//! Escrowed settlement of a connection bundle.
//!
//! The paper's timing rule — "the payment is made by I only after all the
//! connections in π are completed" — creates a non-payment risk: the
//! initiator could enjoy the bundle and then refuse to pay. The escrow
//! closes that hole: the initiator funds the escrow with bearer tokens
//! *before* the bundle runs (committing `k·L̂·P_f + P_r` where `L̂` is the
//! per-connection hop budget), and settlement after completion pays each
//! forwarder `m·P_f + P_r/‖π‖` from the escrow, where `m` is its count in
//! the bundle's [`PathValidator`] report (`paid_counts`) — the §5
//! reconstructed-path validation every simulated run settles through.
//! Leftover escrow value is refunded to the (still anonymous) initiator as
//! change tokens.

use idpa_desim::rng::Xoshiro256StarStar;

use crate::bank::{AccountId, Bank, DepositError};
use crate::token::{denominations, PendingWithdrawal, Token, Wallet};
use crate::validation::PathValidator;

/// Errors during settlement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SettlementError {
    /// A funding token was rejected by the bank.
    BadFunding(DepositError),
    /// The validated claims exceed the escrowed amount.
    OverClaim {
        /// Amount owed according to the validation report.
        owed: u64,
        /// Amount actually escrowed.
        escrowed: u64,
    },
    /// No validated forwarding instance — nothing to settle.
    EmptyBundle,
    /// The escrow was already settled (or its forwarders already paid by
    /// a timeout claim).
    AlreadySettled,
    /// The validator holds evidence for another bundle (its id).
    WrongBundle(u64),
}

/// Outcome of a successful settlement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SettlementReport {
    /// Per-forwarder payout `m·P_f + P_r/‖π‖` (integer division remainder
    /// of the routing pool stays in the refund).
    pub payouts: Vec<(AccountId, u64)>,
    /// The forwarder-set size `‖π‖`.
    pub forwarder_set_size: usize,
    /// Forwarding instances the manifests attest to that no valid receipt
    /// backs (forged, diverted or missing receipts): not paid.
    pub unpaid_instances: u64,
    /// Change returned to the initiator (as fresh bearer tokens).
    pub refund: u64,
}

/// A funded escrow for one connection bundle.
pub struct Escrow {
    bundle_id: u64,
    /// The escrow's own bank account, holding the committed funds.
    account: AccountId,
    funded: u64,
    pf: u64,
    pr: u64,
    /// Forwarders were paid (by [`Escrow::settle`] or a timeout claim).
    forwarders_paid: bool,
    /// The residual was refunded; nothing is left to settle. Implies
    /// `forwarders_paid`.
    settled: bool,
}

impl Escrow {
    /// Opens an escrow for `bundle_id` with contract terms `(P_f, P_r)` and
    /// funds it with bearer `tokens`. Every token is deposited into a fresh
    /// escrow account — the bank sees the deposit but cannot link the
    /// tokens to the initiator's withdrawal.
    pub fn open(
        bank: &mut Bank,
        bundle_id: u64,
        pf: u64,
        pr: u64,
        tokens: Vec<Token>,
    ) -> Result<Self, SettlementError> {
        let account = bank.open_account(0);
        let mut funded = 0;
        for token in &tokens {
            bank.deposit(account, token)
                .map_err(SettlementError::BadFunding)?;
            funded += token.value;
        }
        Ok(Escrow {
            bundle_id,
            account,
            funded,
            pf,
            pr,
            forwarders_paid: false,
            settled: false,
        })
    }

    /// The bundle this escrow covers.
    #[must_use]
    pub fn bundle_id(&self) -> u64 {
        self.bundle_id
    }

    /// Amount held.
    #[must_use]
    pub fn funded(&self) -> u64 {
        self.funded
    }

    /// Value still held: the whole funding before settlement, what a
    /// timeout claim left, and 0 once settled.
    #[must_use]
    pub fn residual(&self) -> u64 {
        self.funded
    }

    /// The escrow budget needed for `k` connections with at most
    /// `max_hops` forwarding instances each: `k·max_hops·P_f + P_r`.
    #[must_use]
    pub fn required_budget(pf: u64, pr: u64, k: u32, max_hops: u32) -> u64 {
        u64::from(k) * u64::from(max_hops) * pf + pr
    }

    /// Timeout settlement: after the bundle deadline passes without the
    /// initiator submitting a settlement, any forwarder can present the
    /// bundle's validator and the bank pays each forwarder in its report
    /// `m·P_f + P_r/‖π‖` from the escrow — the mechanism that makes
    /// initiator non-payment harmless. Unlike [`Escrow::settle`], no
    /// refund tokens are minted (the anonymous initiator is not present to
    /// receive them); the [`Escrow::residual`] stays in the escrow account
    /// until a later [`Escrow::settle`] refunds it. On error nothing moves.
    pub fn settle_by_timeout(
        &mut self,
        bank: &mut Bank,
        validator: &PathValidator,
    ) -> Result<SettlementReport, SettlementError> {
        if self.forwarders_paid {
            return Err(SettlementError::AlreadySettled);
        }
        if validator.bundle_id() != self.bundle_id {
            return Err(SettlementError::WrongBundle(validator.bundle_id()));
        }
        let report = validator.report();
        let counts = &report.paid_counts;
        if counts.is_empty() {
            return Err(SettlementError::EmptyBundle);
        }
        let routing_share = self.pr / counts.len() as u64;
        let payouts: Vec<(AccountId, u64)> = counts
            .iter()
            .map(|(&acct, &m)| (acct, m * self.pf + routing_share))
            .collect();
        let owed: u64 = payouts.iter().map(|&(_, v)| v).sum();
        if owed > self.funded {
            return Err(SettlementError::OverClaim {
                owed,
                escrowed: self.funded,
            });
        }
        for &(acct, amount) in &payouts {
            bank.transfer(self.account, acct, amount)
                .expect("escrow balance was checked against owed");
        }
        self.funded -= owed;
        self.forwarders_paid = true;
        Ok(SettlementReport {
            payouts,
            forwarder_set_size: counts.len(),
            unpaid_instances: report.expected_instances - report.validated_instances,
            refund: 0,
        })
    }

    /// Settles the bundle: pays each forwarder `m·P_f + P_r/‖π‖` from
    /// `validator`'s report, and returns the rest to the initiator as
    /// fresh blind-signed tokens in `refund_wallet`. After a timeout claim
    /// ([`Escrow::settle_by_timeout`]) the forwarders are already paid, so
    /// this only refunds the residual.
    ///
    /// On error nothing is paid and the escrow remains open (a later
    /// corrected settlement, or a timeout claim, can still run).
    pub fn settle(
        &mut self,
        bank: &mut Bank,
        validator: &PathValidator,
        refund_wallet: &mut Wallet,
        rng: &mut Xoshiro256StarStar,
    ) -> Result<SettlementReport, SettlementError> {
        if self.settled {
            return Err(SettlementError::AlreadySettled);
        }
        // The forwarders are paid exactly as a timeout claim pays them.
        let mut report = if self.forwarders_paid {
            SettlementReport::default()
        } else {
            self.settle_by_timeout(bank, validator)?
        };
        report.refund = self.funded;
        // Refund as fresh bearer tokens (a blind withdrawal from the
        // escrow account), so the initiator stays unlinked.
        for value in denominations(report.refund) {
            let pending = PendingWithdrawal::prepare(value, bank.public_key(), rng);
            let blind_sig = bank
                .withdraw_blinded(self.account, value, pending.blinded())
                .expect("refund is covered by the escrow balance");
            refund_wallet.put(pending.complete(&bank.public_key().clone(), &blind_sig));
        }
        self.funded = 0;
        self.settled = true;
        Ok(report)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;
    use crate::receipt::Receipt;
    use crate::validation::{ConnectionEvidence, PathManifest};

    const KEY: &[u8] = b"bundle key";

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    struct World {
        bank: Bank,
        initiator: AccountId,
        forwarders: Vec<AccountId>,
        rng: Xoshiro256StarStar,
    }

    fn world(seed: u64) -> World {
        let mut r = rng(seed);
        let mut bank = Bank::new(256, &mut r);
        let initiator = bank.open_account(10_000);
        let forwarders = (0..4).map(|_| bank.open_account(0)).collect();
        World {
            bank,
            initiator,
            forwarders,
            rng: r,
        }
    }

    fn balance(w: &World, account: AccountId) -> Option<u64> {
        w.bank.ledger().balance(account)
    }

    /// Evidence for one completed connection over `path`: the responder's
    /// manifest and one genuine receipt per hop.
    fn evidence(bundle_id: u64, connection: u32, path: &[AccountId]) -> ConnectionEvidence {
        let v = PathValidator::new(KEY, bundle_id);
        let key = v.bundle_key();
        ConnectionEvidence {
            manifest: PathManifest::issue(key, bundle_id, connection, path.to_vec()),
            receipts: path
                .iter()
                .enumerate()
                .map(|(i, &a)| Receipt::issue(key, bundle_id, connection, i as u32 + 1, a))
                .collect(),
            observed_hops: None,
        }
    }

    /// A validator for `bundle_id` holding one connection per path.
    fn validator(bundle_id: u64, paths: &[&[AccountId]]) -> PathValidator {
        let mut v = PathValidator::new(KEY, bundle_id);
        for (c, path) in paths.iter().enumerate() {
            v.add_connection(evidence(bundle_id, c as u32, path));
        }
        v
    }

    /// Funds an escrow from the initiator's account through bearer tokens.
    fn fund_escrow(w: &mut World, bundle_id: u64, pf: u64, pr: u64, budget: u64) -> Escrow {
        let mut wallet = Wallet::new();
        w.bank
            .withdraw_into_wallet(w.initiator, budget, &mut wallet, &mut w.rng)
            .unwrap();
        let tokens = wallet.take_exact(budget).unwrap();
        Escrow::open(&mut w.bank, bundle_id, pf, pr, tokens).unwrap()
    }

    fn conserved_total(w: &World) -> u64 {
        w.bank.ledger().total_deposits() + w.bank.ledger().outstanding()
    }

    #[test]
    fn happy_path_settlement() {
        let mut w = world(1);
        let budget = Escrow::required_budget(50, 100, 2, 3); // 2*3*50+100 = 400
        let mut escrow = fund_escrow(&mut w, 1, 50, 100, budget);
        assert_eq!(escrow.funded(), 400);

        // Two connections; forwarder 0 on both, forwarder 1 on the second.
        let f = w.forwarders.clone();
        let v = validator(1, &[&[f[0]], &[f[0], f[1]]]);

        let mut refund = Wallet::new();
        let report = escrow
            .settle(&mut w.bank, &v, &mut refund, &mut w.rng)
            .unwrap();

        assert_eq!(report.forwarder_set_size, 2);
        // f0: 2*50 + 100/2 = 150 ; f1: 1*50 + 50 = 100
        assert_eq!(balance(&w, f[0]), Some(150));
        assert_eq!(balance(&w, f[1]), Some(100));
        assert_eq!(report.refund, 400 - 250);
        assert_eq!(refund.balance(), 150);
    }

    #[test]
    fn refund_tokens_are_spendable_and_anonymous() {
        let mut w = world(2);
        let mut escrow = fund_escrow(&mut w, 1, 10, 10, 100);
        let v = validator(1, &[&[w.forwarders[0]]]);
        let mut refund = Wallet::new();
        let report = escrow
            .settle(&mut w.bank, &v, &mut refund, &mut w.rng)
            .unwrap();
        assert_eq!(report.refund, 100 - 20);
        // The refunded tokens deposit cleanly into any account.
        let stash = w.bank.open_account(0);
        for t in refund.take_exact(80).unwrap() {
            w.bank.deposit(stash, &t).unwrap();
        }
        assert_eq!(balance(&w, stash), Some(80));
    }

    #[test]
    fn conservation_across_whole_flow() {
        let mut w = world(3);
        let total_before = conserved_total(&w);
        let mut escrow = fund_escrow(&mut w, 1, 50, 100, 400);
        let v = validator(1, &[&[w.forwarders[0]]]);
        let mut refund = Wallet::new();
        escrow
            .settle(&mut w.bank, &v, &mut refund, &mut w.rng)
            .unwrap();
        assert_eq!(
            conserved_total(&w),
            total_before,
            "value is conserved through fund->settle->refund"
        );
    }

    #[test]
    fn non_payment_impossible_funds_precommitted() {
        // The "initiator walks away" scenario: funds are already in escrow,
        // so settlement can proceed from the evidence alone.
        let mut w = world(4);
        let initiator_before = balance(&w, w.initiator).unwrap();
        let mut escrow = fund_escrow(&mut w, 1, 50, 100, 400);
        assert_eq!(
            balance(&w, w.initiator),
            Some(initiator_before - 400),
            "funds leave the initiator before any connection runs"
        );
        let v = validator(1, &[&[w.forwarders[0]]]);
        let mut refund = Wallet::new();
        let report = escrow
            .settle(&mut w.bank, &v, &mut refund, &mut w.rng)
            .unwrap();
        assert_eq!(balance(&w, w.forwarders[0]), Some(report.payouts[0].1));
    }

    #[test]
    fn over_claim_rejected() {
        let mut w = world(5);
        // Tiny escrow, many validated instances.
        let mut escrow = fund_escrow(&mut w, 1, 50, 100, 120);
        let f0: &[AccountId] = &[w.forwarders[0]];
        let v = validator(1, &[f0; 5]);
        let mut refund = Wallet::new();
        let err = escrow.settle(&mut w.bank, &v, &mut refund, &mut w.rng);
        assert_eq!(
            err,
            Err(SettlementError::OverClaim {
                owed: 5 * 50 + 100,
                escrowed: 120
            })
        );
        // Nothing was paid, and a timeout claim hits the same check.
        assert_eq!(balance(&w, w.forwarders[0]), Some(0));
        assert_eq!(escrow.funded(), 120);
        assert!(matches!(
            escrow.settle_by_timeout(&mut w.bank, &v),
            Err(SettlementError::OverClaim { .. })
        ));
        assert_eq!(balance(&w, w.forwarders[0]), Some(0));
    }

    #[test]
    fn forged_receipts_do_not_get_paid() {
        let mut w = world(6);
        let mut escrow = fund_escrow(&mut w, 1, 50, 100, 400);
        let f = w.forwarders.clone();
        let mut v = validator(1, &[&[f[0]]]);
        // Hop 1 of connection 1 belongs to f0; its receipt is diverted to
        // f2, so the MAC no longer verifies.
        let mut ev = evidence(1, 1, &[f[0]]);
        ev.receipts[0].forwarder = f[2];
        v.add_connection(ev);
        let mut refund = Wallet::new();
        let report = escrow
            .settle(&mut w.bank, &v, &mut refund, &mut w.rng)
            .unwrap();
        assert_eq!(report.unpaid_instances, 1);
        assert_eq!(report.payouts, vec![(f[0], 50 + 100)]);
        assert_eq!(balance(&w, f[2]), Some(0));
    }

    #[test]
    fn double_settlement_rejected() {
        let mut w = world(7);
        let mut escrow = fund_escrow(&mut w, 1, 10, 10, 100);
        let v = validator(1, &[&[w.forwarders[0]]]);
        let mut refund = Wallet::new();
        escrow
            .settle(&mut w.bank, &v, &mut refund, &mut w.rng)
            .unwrap();
        let again = escrow.settle(&mut w.bank, &v, &mut refund, &mut w.rng);
        assert_eq!(again.unwrap_err(), SettlementError::AlreadySettled);
        assert_eq!(
            escrow.settle_by_timeout(&mut w.bank, &v),
            Err(SettlementError::AlreadySettled)
        );
    }

    #[test]
    fn empty_bundle_rejected() {
        let mut w = world(8);
        let mut escrow = fund_escrow(&mut w, 1, 10, 10, 100);
        let v = PathValidator::new(KEY, 1);
        let mut refund = Wallet::new();
        let err = escrow.settle(&mut w.bank, &v, &mut refund, &mut w.rng);
        assert_eq!(err.unwrap_err(), SettlementError::EmptyBundle);
    }

    #[test]
    fn validator_for_another_bundle_rejected() {
        let mut w = world(13);
        let mut escrow = fund_escrow(&mut w, 1, 10, 10, 100);
        let v = validator(2, &[&[w.forwarders[0]]]);
        let mut refund = Wallet::new();
        assert_eq!(
            escrow.settle(&mut w.bank, &v, &mut refund, &mut w.rng),
            Err(SettlementError::WrongBundle(2))
        );
        assert_eq!(
            escrow.settle_by_timeout(&mut w.bank, &v),
            Err(SettlementError::WrongBundle(2))
        );
        assert_eq!(balance(&w, w.forwarders[0]), Some(0));
        assert_eq!(escrow.funded(), 100);
    }

    #[test]
    fn double_spent_funding_rejected() {
        let mut w = world(9);
        let mut wallet = Wallet::new();
        w.bank
            .withdraw_into_wallet(w.initiator, 1, &mut wallet, &mut w.rng)
            .unwrap();
        let tokens = wallet.take_exact(1).unwrap();
        // Spend the token once normally.
        let sink = w.bank.open_account(0);
        w.bank.deposit(sink, &tokens[0]).unwrap();
        // Then try to fund an escrow with the same token.
        let err = Escrow::open(&mut w.bank, 2, 1, 1, tokens);
        assert!(matches!(
            err,
            Err(SettlementError::BadFunding(DepositError::DoubleSpend))
        ));
    }

    #[test]
    fn required_budget_formula() {
        assert_eq!(Escrow::required_budget(50, 100, 20, 6), 20 * 6 * 50 + 100);
    }

    #[test]
    fn timeout_settlement_pays_without_initiator() {
        let mut w = world(11);
        let mut escrow = fund_escrow(&mut w, 1, 50, 100, 400);
        // The initiator vanishes; a forwarder presents the evidence.
        let f0: &[AccountId] = &[w.forwarders[0]];
        let v = validator(1, &[f0, f0]);
        let report = escrow.settle_by_timeout(&mut w.bank, &v).unwrap();
        // 2*50 + 100/1 = 200 paid; 200 residual held.
        assert_eq!(balance(&w, w.forwarders[0]), Some(200));
        assert_eq!(report.refund, 0);
        assert_eq!(escrow.residual(), 200);
        // No double settlement afterwards.
        assert_eq!(
            escrow.settle_by_timeout(&mut w.bank, &v),
            Err(SettlementError::AlreadySettled)
        );
    }

    #[test]
    fn settle_after_timeout_refunds_the_residual_once() {
        let mut w = world(14);
        let total_before = conserved_total(&w);
        let mut escrow = fund_escrow(&mut w, 1, 50, 100, 400);
        let f0: &[AccountId] = &[w.forwarders[0]];
        let v = validator(1, &[f0, f0]);
        escrow.settle_by_timeout(&mut w.bank, &v).unwrap();
        assert_eq!(escrow.residual(), 200);

        let mut refund = Wallet::new();
        let report = escrow
            .settle(&mut w.bank, &v, &mut refund, &mut w.rng)
            .unwrap();
        assert_eq!(report.refund, 200, "exactly the residual comes back");
        assert!(report.payouts.is_empty(), "no forwarder is paid twice");
        assert_eq!(refund.balance(), 200);
        assert_eq!(balance(&w, w.forwarders[0]), Some(200));
        assert_eq!(escrow.residual(), 0);
        assert_eq!(
            escrow.settle(&mut w.bank, &v, &mut refund, &mut w.rng),
            Err(SettlementError::AlreadySettled)
        );
        assert_eq!(conserved_total(&w), total_before);
    }

    #[test]
    fn timeout_settlement_still_rejects_forgeries() {
        let mut w = world(12);
        let mut escrow = fund_escrow(&mut w, 1, 50, 100, 400);
        let mut ev = evidence(1, 0, &[w.forwarders[0]]);
        ev.receipts[0].forwarder = w.forwarders[1];
        let mut v = PathValidator::new(KEY, 1);
        v.add_connection(ev);
        let err = escrow.settle_by_timeout(&mut w.bank, &v);
        assert_eq!(err, Err(SettlementError::EmptyBundle));
        assert_eq!(balance(&w, w.forwarders[1]), Some(0));
    }

    #[test]
    fn routing_pool_divides_among_forwarder_set() {
        // 3 forwarders, Pr = 100 => 33 each; remainder 1 goes to refund.
        let mut w = world(10);
        let mut escrow = fund_escrow(&mut w, 1, 10, 100, 400);
        let f = w.forwarders.clone();
        let v = validator(1, &[&[f[0], f[1], f[2]]]);
        let mut refund = Wallet::new();
        let report = escrow
            .settle(&mut w.bank, &v, &mut refund, &mut w.rng)
            .unwrap();
        assert_eq!(report.forwarder_set_size, 3);
        for &(_, amount) in &report.payouts {
            assert_eq!(amount, 10 + 33);
        }
        assert_eq!(report.refund, 400 - 3 * 43);
    }
}
