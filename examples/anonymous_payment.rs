//! End-to-end anonymous payment walkthrough (the §2.2/§5 payment system).
//!
//! An initiator funds an escrow with blind-signed bearer tokens, a bundle
//! of connections completes, the responder seals each path in a manifest,
//! forwarders' receipts come back on the reverse path, and the bank pays
//! `m·P_f + P_r/‖π‖` per forwarder from the [`PathValidator`] report —
//! and every cheating attempt on the way is shown to be rejected.
//!
//! ```text
//! cargo run --release --example anonymous_payment
//! ```

use idpa::crypto::bigint::BigUint;
use idpa::payment::bank::{AccountId, Bank};
use idpa::payment::escrow::Escrow;
use idpa::payment::receipt::Receipt;
use idpa::payment::token::Wallet;
use idpa::payment::validation::{ConnectionEvidence, PathManifest, PathValidator};
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

    // --- the bundle runs: evidence accumulates ---------------------------
    // 4 connections; forwarder 0 on all of them, forwarder 1 on two,
    // forwarder 2 on one. The bundle key is shared between I and R: R
    // seals each connection's path in a manifest, and each forwarder's
    // receipt is MAC'd as the confirmation passes it.
    let mut validator = PathValidator::new(b"bundle-1-shared-key", bundle_id);
    let key = validator.bundle_key().clone();
    let [f0, f1, f2] = forwarders;
    let paths: [&[AccountId]; 4] = [&[f0, f1], &[f0, f1], &[f0], &[f0, f2]];
    let mut evidence: Vec<ConnectionEvidence> = paths
        .iter()
        .zip(0u32..)
        .map(|(path, conn)| ConnectionEvidence {
            manifest: PathManifest::issue(&key, bundle_id, conn, path.to_vec()),
            receipts: path
                .iter()
                .zip(1u32..)
                .map(|(&f, hop)| Receipt::issue(&key, bundle_id, conn, hop, f))
                .collect(),
            observed_hops: None,
        })
        .collect();
    println!(
        "[4] bundle complete: {} connections, {} receipts on the reverse path",
        evidence.len(),
        evidence.iter().map(|e| e.receipts.len()).sum::<usize>()
    );

    // --- cheating attempts -------------------------------------------------
    println!("[5] cheating attempts:");

    // (a) Forwarder 2 diverts forwarder 0's receipt on connection 2 to
    // itself: the MAC no longer verifies, so the slot goes unpaid.
    evidence[2].receipts[0].forwarder = f2;
    println!("    (a) forged receipt (diverted payee) — the manifest check drops it");

    // (b) Forwarder 0 replays its connection-0 receipt to be paid twice:
    // the manifest pays each hop at most once.
    let replay = evidence[0].receipts[0].clone();
    evidence[0].receipts.push(replay);
    println!("    (b) replayed receipt — each manifest hop is paid once");
    for ev in evidence {
        validator.add_connection(ev);
    }

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
        .settle(&mut bank, &validator, &mut refund_wallet, &mut rng)
        .expect("validated evidence settles");
    println!(
        "[6] settlement: ‖π‖ = {}, {} attested instance(s) unpaid",
        report.forwarder_set_size, report.unpaid_instances
    );
    for (acct, amount) in &report.payouts {
        println!("    account {acct:?} paid {amount} credits (= m*P_f + P_r/‖π‖)");
    }
    // f0 validates on connections 0, 1 and 3 (its connection-2 receipt
    // was diverted), f1 on 0 and 1, f2 on 3; P_r/‖π‖ = 100/3.
    let share = pr / 3;
    assert_eq!(report.unpaid_instances, 1);
    assert_eq!(
        report.payouts,
        vec![(f0, 3 * pf + share), (f1, 2 * pf + share), (f2, pf + share)]
    );
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
    let ledger = bank.ledger();
    let total = ledger.total_deposits() + ledger.outstanding();
    println!("    total now: {total} (started with 10000)");
    assert_eq!(total, 10_000);

    // --- audit chain --------------------------------------------------------
    println!("[9] audit: the hash-chained audit log verifies end-to-end");
    assert!(ledger.audit().verify_chain());
    println!("    {} chained entries, chain intact", ledger.audit().len());

    println!("\nAll cheating scenarios rejected; payments settled; initiator");
    println!("anonymity preserved (the bank never linked tokens to the withdrawal).");
}
