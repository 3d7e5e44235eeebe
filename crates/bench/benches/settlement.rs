//! Settlement throughput: epoch-batched settlement vs per-receipt
//! settlement at one million receipts per epoch.
//!
//! Workload model: one epoch of traffic reaches the bank as `R` forwarding
//! receipts (each a one-credit payout, escrow -> forwarder) plus one
//! bearer-token deposit per connection bundle (`D = R / 256` tokens). The
//! per-receipt arm settles the way the per-bundle bank does: one ledger
//! transfer — with its hash-chained audit entry — per receipt, and one
//! individually verified [`Bank::deposit`] per token. The epoch arm nets
//! every receipt into one signed delta per account as it arrives and
//! settles once at the boundary: the same individually verified deposit
//! per token, then the net applied in one [`Bank::apply_epoch_net`].
//!
//! Honesty notes:
//!
//! * Both arms verify each token signature individually through the cached
//!   Montgomery context, so the measured epoch speedup is pure transfer
//!   netting, and it is a lower bound on the improvement over the
//!   division-based `modpow` deposits the seed shipped. The
//!   crypto-primitive deltas (plain modpow vs cached Montgomery) are
//!   measured separately in the `kernels` bench.
//! * Receipt MAC validation is identical in both settlement modes (the
//!   evidence layer verifies each receipt exactly once either way), so it
//!   is excluded from both arms.
//!
//! Before timing, both arms run once and must agree on every balance, the
//! spent-serial count, total deposits and outstanding liability — the
//! equivalence the payment property suite pins, re-checked at bench scale.
//!
//! `IDPA_ST_QUICK=1` shrinks the epoch to 64k receipts for the CI bench
//! gate; the quick and full tiers use distinct kernel names so their points
//! never gate against each other.

use std::collections::BTreeMap;

use idpa_bench::harness::{smoke_mode, Harness};
use idpa_desim::rng::Xoshiro256StarStar;
use idpa_payment::{AccountId, Bank, Token, Wallet};

/// One epoch of settlement work, pre-generated outside the timed region.
struct Workload {
    /// Pristine bank: accounts opened, tokens withdrawn, nothing settled.
    bank: Bank,
    /// Every account the arms touch (payers, then forwarders).
    accounts: Vec<AccountId>,
    /// `(payer, forwarder)` per one-credit receipt.
    receipts: Vec<(AccountId, AccountId)>,
    /// `(credited forwarder, token)` deposits for the epoch.
    deposits: Vec<(AccountId, Token)>,
}

fn build(n_receipts: usize, n_payers: usize, n_forwarders: usize, n_tokens: usize) -> Workload {
    use rand::RngExt;
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x005e_771e);
    let mut bank = Bank::new(512, &mut rng);
    // Any payer can be hit with every receipt in the worst case.
    let payers: Vec<AccountId> = (0..n_payers)
        .map(|_| bank.open_account(n_receipts as u64))
        .collect();
    let forwarders: Vec<AccountId> = (0..n_forwarders).map(|_| bank.open_account(0)).collect();
    let funding = bank.open_account(n_tokens as u64);
    let mut wallet = Wallet::new();
    let mut deposits = Vec::with_capacity(n_tokens);
    for i in 0..n_tokens {
        bank.withdraw_into_wallet(funding, 1, &mut wallet, &mut rng)
            .expect("funding account covers every token");
        let token = wallet
            .take_exact(1)
            .expect("withdrawal minted a token")
            .pop()
            .expect("one-credit withdrawal is one token");
        deposits.push((forwarders[i % n_forwarders], token));
    }
    let receipts = (0..n_receipts)
        .map(|_| {
            (
                payers[rng.random_range(0..n_payers)],
                forwarders[rng.random_range(0..n_forwarders)],
            )
        })
        .collect();
    let mut accounts = payers;
    accounts.extend(forwarders);
    accounts.push(funding);
    Workload {
        bank,
        accounts,
        receipts,
        deposits,
    }
}

/// The per-bundle path: every receipt is its own ledger transfer (and
/// audit entry), every token its own individually verified deposit.
fn settle_per_receipt(w: &Workload) -> Bank {
    let mut bank = w.bank.clone();
    for &(payer, forwarder) in &w.receipts {
        bank.transfer(payer, forwarder, 1)
            .expect("payer balance covers the receipt");
    }
    for (account, token) in &w.deposits {
        bank.deposit(*account, token)
            .expect("token is valid and unspent");
    }
    bank
}

/// The epoch path: net every receipt, settle once at the boundary.
/// Returns the bank and the number of accounts the net touched.
fn settle_epoch(w: &Workload) -> (Bank, usize) {
    let mut bank = w.bank.clone();
    let mut net: BTreeMap<AccountId, i128> = BTreeMap::new();
    for &(payer, forwarder) in &w.receipts {
        *net.entry(payer).or_insert(0) -= 1;
        *net.entry(forwarder).or_insert(0) += 1;
    }
    for (account, token) in &w.deposits {
        bank.deposit(*account, token)
            .expect("token is valid and unspent");
    }
    bank.apply_epoch_net(0, &net)
        .expect("netted debits are covered");
    let accounts_netted = net.values().filter(|&&d| d != 0).count();
    (bank, accounts_netted)
}

fn main() {
    let quick = std::env::var("IDPA_ST_QUICK").is_ok_and(|v| v == "1");
    // Smoke mode proves the binary runs; keep the probe iteration short.
    let (n_receipts, n_payers, n_forwarders, tag) = if smoke_mode() {
        (8_192, 8, 128, "r8k")
    } else if quick {
        (65_536, 16, 512, "r64k")
    } else {
        (1 << 20, 64, 2_048, "r1m")
    };
    let n_tokens = n_receipts / 256;
    let w = build(n_receipts, n_payers, n_forwarders, n_tokens);

    // Equivalence guard before any timing: both arms must produce the same
    // ledger, token liability and serial state.
    let per_receipt_bank = settle_per_receipt(&w);
    let (epoch_bank, accounts_netted) = settle_epoch(&w);
    let (per_receipt, epoch) = (per_receipt_bank.ledger(), epoch_bank.ledger());
    for &account in &w.accounts {
        assert_eq!(
            per_receipt.balance(account),
            epoch.balance(account),
            "epoch settlement changed a balance ({account:?})"
        );
    }
    assert_eq!(per_receipt.total_deposits(), epoch.total_deposits());
    assert_eq!(per_receipt.outstanding(), epoch.outstanding());
    assert_eq!(per_receipt.spent_serials(), epoch.spent_serials());
    assert_eq!(epoch.spent_serials(), n_tokens);
    println!(
        "settlement/{tag}: {n_receipts} receipts + {n_tokens} token deposits -> \
         {accounts_netted} netted accounts (netting ratio {:.0})",
        n_receipts as f64 / accounts_netted as f64
    );

    let mut h = Harness::new();
    h.bench(&format!("settlement/per_receipt_{tag}"), || {
        settle_per_receipt(&w).ledger().total_deposits()
    });
    h.bench(&format!("settlement/epoch_{tag}"), || {
        settle_epoch(&w).0.ledger().total_deposits()
    });

    if !smoke_mode() {
        let ns_of = |suffix: &str| {
            h.measurements()
                .iter()
                .find(|m| m.name.ends_with(suffix))
                .expect("both arms measured")
                .ns_per_iter
        };
        let per_ns = ns_of(&format!("per_receipt_{tag}"));
        let epoch_ns = ns_of(&format!("epoch_{tag}"));
        let speedup = per_ns / epoch_ns;
        println!(
            "settlement/{tag}: per-receipt {:.1} ms/epoch, epoch-batched {:.1} ms/epoch \
             -> {speedup:.1}x ({:.2} M receipts/s batched)",
            per_ns / 1e6,
            epoch_ns / 1e6,
            n_receipts as f64 * 1e3 / epoch_ns
        );
        // The ISSUE's acceptance floor at full scale; the quick tier keeps a
        // looser tripwire so CI still catches a collapsed speedup.
        let floor = if quick { 3.0 } else { 5.0 };
        assert!(
            speedup >= floor,
            "epoch settlement speedup {speedup:.2}x fell below the {floor}x floor"
        );
    }
    h.write_json_default().expect("write bench report");
}
