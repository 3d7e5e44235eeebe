//! Epoch-batched settlement: accumulate a whole epoch's payment activity
//! and settle it against the bank in one pass.
//!
//! Per-bundle settlement costs the bank one signature verification per
//! token and one ledger transfer per payout — the scalability choke at
//! heavy traffic. Orion-style *seasons* amortize the ledger side: receipts
//! accumulate per (forwarder, epoch), and all transfers collapse into one
//! net balance delta per account ([`Bank::apply_epoch_net`]) with one
//! audit entry per account instead of one per receipt. Token deposits are
//! submitted in one call at the boundary ([`Bank::deposit_batch`]), where
//! each signature is verified individually and strictly — the
//! small-exponents combined equation is unsound over `(Z/n)*` and slower
//! at `e = 65537` besides; netting, not the
//! signature check, is where epoch settlement wins.
//!
//! The incentive argument (Buragohain et al., PAPERS.md): aggregation
//! preserves the forwarding equilibrium as long as each forwarder's
//! per-epoch payout equals the sum of its per-bundle payouts — which
//! netting guarantees identically, not just in expectation. The property
//! suite in `tests/props.rs` pins this: a netted epoch settle ends in the
//! same balances, serials, and outstanding liability as the sequential
//! per-bundle operations it replaces.

use std::collections::BTreeMap;

use crate::bank::{AccountId, Bank, DepositError, EpochNetError};
use crate::token::Token;

/// Accumulates one epoch's deposits and transfers for batched settlement.
#[derive(Debug, Default)]
pub struct EpochLedger {
    /// The epoch currently accumulating (0-based, advances on settle).
    epoch: u64,
    /// Token deposits queued this epoch, in submission order.
    deposits: Vec<(AccountId, Token)>,
    /// Net signed delta per account from the epoch's accrued transfers.
    /// `i128`, so no sum of `u64` transfer amounts can wrap it.
    net: BTreeMap<AccountId, i128>,
    /// Number of individual transfers collapsed into `net`.
    transfers_accrued: u64,
}

/// Report of one settled epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochSettlement {
    /// The epoch that was settled.
    pub epoch: u64,
    /// Per-deposit outcome, in submission order (semantics identical to
    /// sequential [`Bank::deposit`] calls).
    pub deposit_results: Vec<Result<(), DepositError>>,
    /// Deposits accepted (signature valid, serial fresh).
    pub deposits_settled: u64,
    /// Accounts whose netted delta was nonzero — the number of ledger
    /// operations the bank actually performed for all accrued transfers.
    pub accounts_netted: u64,
    /// Individual transfers that were collapsed into those deltas. The
    /// epoch netting ratio is `transfers_netted / accounts_netted`.
    pub transfers_netted: u64,
}

/// A settle that deposited its queue but could not apply the transfer
/// net. The deposits *were* applied to the bank (their audit entries are
/// written), so their per-item verdicts — the forged-signature and
/// double-spend outcomes cheater flagging consumes — are carried here
/// rather than lost; the transfer net is restored in the ledger for a
/// retry once the failure is resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochSettleError {
    /// The epoch whose settle failed (unchanged; it has not advanced).
    pub epoch: u64,
    /// Per-deposit outcome of the queue that was applied before the net
    /// failed, in submission order — identical to what a successful
    /// settle would have reported.
    pub deposit_results: Vec<Result<(), DepositError>>,
    /// Why the netted deltas could not be applied.
    pub error: EpochNetError,
}

impl EpochLedger {
    /// An empty ledger at epoch 0.
    #[must_use]
    pub fn new() -> Self {
        EpochLedger::default()
    }

    /// The epoch currently accumulating.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether nothing is queued for the current epoch.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.deposits.is_empty() && self.transfers_accrued == 0
    }

    /// Number of deposits queued for the current epoch.
    #[must_use]
    pub fn pending_deposits(&self) -> usize {
        self.deposits.len()
    }

    /// Queues a token deposit for the epoch boundary.
    pub fn queue_deposit(&mut self, account: AccountId, token: Token) {
        self.deposits.push((account, token));
    }

    /// Accrues a transfer into the epoch's per-account nets. Funds are not
    /// checked here — debit coverage is validated at [`EpochLedger::settle`].
    /// Accumulation is in `i128`: any `u64` amount is accepted, and no
    /// realizable number of transfers can overflow a per-account net.
    pub fn accrue_transfer(&mut self, from: AccountId, to: AccountId, amount: u64) {
        let amount = i128::from(amount);
        *self.net.entry(from).or_insert(0) -= amount;
        *self.net.entry(to).or_insert(0) += amount;
        self.transfers_accrued += 1;
    }

    /// Settles the epoch: deposits every queued token (individually,
    /// strictly verified — see [`Bank::deposit_batch`]), then applies the
    /// netted transfer deltas atomically, and advances to the next epoch.
    ///
    /// Deposits settle first — they only add funds, so any debit a
    /// sequential interleaving could have covered is covered here too. If
    /// the net still fails (a debit exceeding its account), the deposits
    /// remain applied and the returned [`EpochSettleError`] carries their
    /// per-item verdicts; the transfer nets are restored for a retry and
    /// the epoch does not advance.
    pub fn settle(&mut self, bank: &mut Bank) -> Result<EpochSettlement, EpochSettleError> {
        let deposits = std::mem::take(&mut self.deposits);
        let net = std::mem::take(&mut self.net);
        let transfers_netted = std::mem::take(&mut self.transfers_accrued);

        let deposit_results = bank.deposit_batch(&deposits);
        if let Err(error) = bank.apply_epoch_net(self.epoch, &net) {
            self.net = net;
            self.transfers_accrued = transfers_netted;
            return Err(EpochSettleError {
                epoch: self.epoch,
                deposit_results,
                error,
            });
        }

        let settlement = EpochSettlement {
            epoch: self.epoch,
            deposits_settled: deposit_results.iter().filter(|r| r.is_ok()).count() as u64,
            accounts_netted: net.values().filter(|&&d| d != 0).count() as u64,
            transfers_netted,
            deposit_results,
        };
        self.epoch += 1;
        Ok(settlement)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;
    use crate::token::Wallet;
    use idpa_desim::rng::Xoshiro256StarStar;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    /// Two banks from the same seed, so keys and accounts line up.
    fn twin_banks(seed: u64) -> (Bank, Bank) {
        (
            Bank::new(256, &mut rng(seed)),
            Bank::new(256, &mut rng(seed)),
        )
    }

    #[test]
    fn netted_settle_matches_sequential_operations() {
        let (mut seq, mut epoch) = twin_banks(1);
        let accounts: Vec<AccountId> = (0..4).map(|_| seq.open_account(100)).collect();
        for _ in 0..4 {
            epoch.open_account(100);
        }

        // Sequential arm: interleaved transfers and deposits.
        let mut wallet = Wallet::new();
        seq.withdraw_into_wallet(accounts[0], 7, &mut wallet, &mut rng(3))
            .unwrap();
        let tokens = wallet.take_exact(7).unwrap();
        seq.transfer(accounts[0], accounts[1], 10).unwrap();
        seq.transfer(accounts[1], accounts[2], 4).unwrap();
        seq.transfer(accounts[0], accounts[2], 6).unwrap();
        for t in &tokens {
            seq.deposit(accounts[3], t).unwrap();
        }

        // Epoch arm: same operations accrued, one settle.
        let mut wallet = Wallet::new();
        epoch
            .withdraw_into_wallet(accounts[0], 7, &mut wallet, &mut rng(3))
            .unwrap();
        let tokens = wallet.take_exact(7).unwrap();
        let mut ledger = EpochLedger::new();
        ledger.accrue_transfer(accounts[0], accounts[1], 10);
        ledger.accrue_transfer(accounts[1], accounts[2], 4);
        ledger.accrue_transfer(accounts[0], accounts[2], 6);
        for t in tokens {
            ledger.queue_deposit(accounts[3], t);
        }
        let report = ledger.settle(&mut epoch).unwrap();

        assert!(report.deposit_results.iter().all(Result::is_ok));
        assert_eq!(report.transfers_netted, 3);
        // a1's net is +10-4=+6, so all 4 touched accounts are nonzero... a0
        // -16, a1 +6, a2 +10; a3 only deposits. 3 netted accounts.
        assert_eq!(report.accounts_netted, 3);
        for &a in &accounts {
            assert_eq!(seq.balance(a), epoch.balance(a), "account {a:?}");
        }
        assert_eq!(seq.total_deposits(), epoch.total_deposits());
        assert_eq!(seq.outstanding(), epoch.outstanding());
        assert_eq!(seq.spent_serials(), epoch.spent_serials());
    }

    #[test]
    fn settle_advances_epoch_and_clears_state() {
        let (mut bank, _) = twin_banks(4);
        let a = bank.open_account(50);
        let b = bank.open_account(0);
        let mut ledger = EpochLedger::new();
        assert_eq!(ledger.epoch(), 0);
        ledger.accrue_transfer(a, b, 5);
        assert!(!ledger.is_empty());
        ledger.settle(&mut bank).unwrap();
        assert_eq!(ledger.epoch(), 1);
        assert!(ledger.is_empty());
        assert_eq!(bank.balance(b), Some(5));
        // The audit trail records the net, not the transfer.
        assert!(bank
            .audit()
            .entries()
            .iter()
            .any(|e| matches!(e.event, crate::AuditEvent::EpochNet { epoch: 0, .. })));
    }

    #[test]
    fn uncovered_debit_restores_the_net_for_retry() {
        let (mut bank, _) = twin_banks(5);
        let a = bank.open_account(3);
        let b = bank.open_account(0);
        let mut ledger = EpochLedger::new();
        ledger.accrue_transfer(a, b, 10);
        assert_eq!(
            ledger.settle(&mut bank),
            Err(EpochSettleError {
                epoch: 0,
                deposit_results: Vec::new(),
                error: EpochNetError::InsufficientFunds(a),
            })
        );
        assert_eq!(ledger.epoch(), 0, "failed settle must not advance");
        assert!(!ledger.is_empty(), "net restored for retry");
        assert_eq!(bank.balance(a), Some(3), "nothing applied");
        // Fund the debit and retry the same epoch.
        let c = bank.open_account(20);
        ledger.accrue_transfer(c, a, 10);
        let report = ledger.settle(&mut bank).unwrap();
        assert_eq!(report.transfers_netted, 2);
        assert_eq!(bank.balance(b), Some(10));
    }

    /// The per-deposit verdicts survive a failed net application: the
    /// deposits are applied to the bank, the error carries their results
    /// (cheater flagging reads them), and the retry settles the restored
    /// transfer net against the already-credited deposits.
    #[test]
    fn deposit_verdicts_survive_a_failed_net() {
        let (mut bank, _) = twin_banks(6);
        let funder = bank.open_account(100);
        let payee = bank.open_account(0);
        let broke = bank.open_account(0);
        let mut wallet = Wallet::new();
        bank.withdraw_into_wallet(funder, 1, &mut wallet, &mut rng(7))
            .unwrap();
        let token = wallet.take_exact(1).unwrap().pop().unwrap();

        let mut ledger = EpochLedger::new();
        ledger.queue_deposit(payee, token.clone());
        ledger.queue_deposit(payee, token); // intra-epoch duplicate
        ledger.accrue_transfer(broke, payee, 50); // uncovered debit
        let err = ledger.settle(&mut bank).unwrap_err();
        assert_eq!(err.epoch, 0);
        assert_eq!(err.error, EpochNetError::InsufficientFunds(broke));
        assert_eq!(
            err.deposit_results,
            vec![Ok(()), Err(DepositError::DoubleSpend)],
            "verdicts must not be lost with the failed net"
        );
        assert_eq!(bank.balance(payee), Some(1), "deposit stayed applied");
        assert_eq!(ledger.pending_deposits(), 0, "queue was consumed");

        // Cover the debit; the retry settles the restored net alone.
        bank.transfer(funder, broke, 50).unwrap();
        let report = ledger.settle(&mut bank).expect("retry settles");
        assert!(report.deposit_results.is_empty());
        assert_eq!(report.transfers_netted, 1);
        assert_eq!(bank.balance(payee), Some(51));
    }

    #[test]
    fn intra_and_cross_epoch_double_spends_rejected() {
        let (mut bank, _) = twin_banks(6);
        let a = bank.open_account(10);
        let payee = bank.open_account(0);
        let mut wallet = Wallet::new();
        bank.withdraw_into_wallet(a, 1, &mut wallet, &mut rng(7))
            .unwrap();
        let token = wallet.take_exact(1).unwrap().pop().unwrap();

        let mut ledger = EpochLedger::new();
        ledger.queue_deposit(payee, token.clone());
        ledger.queue_deposit(payee, token.clone()); // intra-epoch duplicate
        let report = ledger.settle(&mut bank).unwrap();
        assert_eq!(
            report.deposit_results,
            vec![Ok(()), Err(DepositError::DoubleSpend)]
        );

        ledger.queue_deposit(payee, token); // cross-epoch duplicate
        let report = ledger.settle(&mut bank).unwrap();
        assert_eq!(report.deposit_results, vec![Err(DepositError::DoubleSpend)]);
        assert_eq!(bank.balance(payee), Some(1));
    }

    /// Amounts above `i64::MAX` accrue without panicking and settle (or
    /// fail validation) through the same i128 pipeline.
    #[test]
    fn huge_transfer_amounts_accrue_without_overflow() {
        let (mut bank, _) = twin_banks(8);
        let a = bank.open_account(5);
        let b = bank.open_account(0);
        let mut ledger = EpochLedger::new();
        // Two maximal transfers in the same direction: the per-account
        // net is ±2·u64::MAX, far outside i64 — must not wrap.
        ledger.accrue_transfer(a, b, u64::MAX);
        ledger.accrue_transfer(a, b, u64::MAX);
        let err = ledger.settle(&mut bank).unwrap_err();
        assert_eq!(err.error, EpochNetError::InsufficientFunds(a));
        assert_eq!(bank.balance(a), Some(5), "nothing applied");
        assert_eq!(bank.balance(b), Some(0), "no wrapped credit");
    }
}
