//! End-to-end anonymous payment walkthrough (the §2.2/§5 payment system).
//!
//! An initiator funds an escrow with blind-signed bearer tokens, a bundle
//! of connections completes, forwarders present receipts, the bank settles
//! `m·P_f + P_r/‖π‖` per forwarder — and every cheating attempt on the way
//! is shown to be rejected.
//!
//! ```text
//! cargo run --release --example anonymous_payment
//! ```

use idpa::crypto::bigint::BigUint;
use idpa::crypto::hmac::HmacKey;
use idpa::payment::bank::Bank;
use idpa::payment::escrow::Escrow;
use idpa::payment::receipt::{Receipt, ReceiptBook};
use idpa::payment::token::Wallet;
use idpa::payment::DepositError;
use idpa::prelude::{StreamFactory, Token};

fn main() {
    let streams = StreamFactory::new(42);
    let mut rng = streams.stream("payment-demo");

    // --- setup: a bank, the initiator, three forwarders -----------------
    println!("[1] bank opens with fresh RSA keys (512-bit, simulation scale)");
    let mut bank = Bank::new(512, &mut rng);
    let initiator = bank.open_account(10_000);
    let forwarders = [
        bank.open_account(0),
        bank.open_account(0),
        bank.open_account(0),
    ];

    // --- withdrawal: blind tokens ----------------------------------------
    // Contract: P_f = 50 per instance, P_r = 100 shared; 4 connections with
    // at most 3 hops each => escrow budget 4*3*50 + 100 = 700.
    let (pf, pr) = (50u64, 100u64);
    let budget = Escrow::required_budget(pf, pr, 4, 3);
    println!("[2] initiator withdraws {budget} credits as blind-signed bearer tokens");
    let mut wallet = Wallet::new();
    bank.withdraw_into_wallet(initiator, budget, &mut wallet, &mut rng)
        .expect("funds available");
    println!(
        "    wallet: {} tokens, {} credits; bank never saw a serial",
        wallet.len(),
        wallet.balance()
    );

    // --- escrow funding ---------------------------------------------------
    let bundle_id = 1u64;
    let tokens = wallet.take_exact(budget).expect("binary denominations");
    let mut escrow = Escrow::open(&mut bank, bundle_id, pf, pr, tokens).expect("tokens verify");
    println!(
        "[3] escrow funded with {} credits BEFORE any connection runs",
        escrow.funded()
    );
    println!("    (non-payment by the initiator is now impossible)");

    // --- the bundle runs: receipts accumulate -----------------------------
    // 4 connections; forwarder 0 on all of them, forwarder 1 on two,
    // forwarder 2 on one. The bundle key is shared between I and R.
    let bundle_key = &HmacKey::new(b"bundle-1-shared-key");
    let mut book = ReceiptBook::new();
    for conn in 0..4u32 {
        book.add(Receipt::issue(
            bundle_key,
            bundle_id,
            conn,
            0,
            forwarders[0],
        ));
    }
    for conn in 0..2u32 {
        book.add(Receipt::issue(
            bundle_key,
            bundle_id,
            conn,
            1,
            forwarders[1],
        ));
    }
    book.add(Receipt::issue(bundle_key, bundle_id, 3, 1, forwarders[2]));
    println!(
        "[4] bundle complete: {} receipts collected on the reverse path",
        book.len()
    );

    // --- cheating attempts -------------------------------------------------
    println!("[5] cheating attempts:");

    // (a) A forwarder forges a receipt to inflate its count.
    let mut forged = Receipt::issue(bundle_key, bundle_id, 2, 1, forwarders[1]);
    forged.forwarder = forwarders[2]; // divert someone else's slot
    book.add(forged);
    println!("    (a) forged receipt added (diverted payee) — will be dropped at settlement");

    // (b) A replayed receipt (same connection+hop claimed twice).
    book.add(Receipt::issue(bundle_key, bundle_id, 0, 0, forwarders[0]));
    println!("    (b) replayed receipt added — will be dropped at settlement");

    // (c) A forged bearer token is rejected at deposit.
    let fake = Token {
        id: idpa::payment::token::TokenId::random(&mut rng),
        value: 1_000_000,
        signature: BigUint::from_u64(1234),
    };
    let err = bank.deposit(forwarders[0], &fake);
    println!("    (c) forged token deposit: {err:?}");
    assert_eq!(err, Err(DepositError::InvalidSignature));

    // --- settlement --------------------------------------------------------
    let mut refund_wallet = Wallet::new();
    let report = escrow
        .settle(&mut bank, bundle_key, &book, &mut refund_wallet, &mut rng)
        .expect("valid receipts settle");
    println!(
        "[6] settlement: ‖π‖ = {}, {} receipts rejected",
        report.forwarder_set_size, report.rejected_receipts
    );
    for (acct, amount) in &report.payouts {
        println!("    account {acct:?} paid {amount} credits (= m*P_f + P_r/‖π‖)");
    }
    println!(
        "    refund to initiator: {} credits as fresh blind tokens",
        report.refund
    );

    // --- double-spend check -------------------------------------------------
    println!("[7] double-spend: refund tokens deposit once, then bounce");
    let refund_amount = refund_wallet.balance();
    let stash = bank.open_account(0);
    let refund_tokens = refund_wallet.take_exact(refund_amount).unwrap();
    for t in &refund_tokens {
        bank.deposit(stash, t).unwrap();
    }
    let double = bank.deposit(stash, &refund_tokens[0]);
    assert_eq!(double, Err(DepositError::DoubleSpend));
    println!("    second deposit of the same serial: {double:?}");

    // --- conservation -------------------------------------------------------
    println!("[8] conservation: total deposits + outstanding tokens is constant");
    println!(
        "    total now: {} (started with 10000)",
        bank.total_deposits() + bank.outstanding()
    );
    assert_eq!(bank.total_deposits() + bank.outstanding(), 10_000);

    // --- audit chain --------------------------------------------------------
    println!("[9] audit: the hash-chained audit log verifies end-to-end");
    assert!(bank.ledger().audit().verify_chain());
    println!(
        "    {} chained entries, chain intact",
        bank.ledger().audit().len()
    );

    println!("\nAll cheating scenarios rejected; payments settled; initiator");
    println!("anonymity preserved (the bank never linked tokens to the withdrawal).");
}
