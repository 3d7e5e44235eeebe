//! Escrowed settlement of a connection bundle.
//!
//! The paper's timing rule — "the payment is made by I only after all the
//! connections in π are completed" — creates a non-payment risk: the
//! initiator could enjoy the bundle and then refuse to pay. The escrow
//! closes that hole: the initiator funds the escrow with bearer tokens
//! *before* the bundle runs (committing `k·L̂·P_f + P_r` where `L̂` is the
//! per-connection hop budget), and settlement after completion pays each
//! forwarder `m·P_f + P_r/‖π‖` from the escrow against validated receipts.
//! Leftover escrow value is refunded to the (still anonymous) initiator as
//! change tokens.

use idpa_crypto::hmac::HmacKey;
use idpa_desim::rng::Xoshiro256StarStar;

use crate::bank::{AccountId, Bank, DepositError};
use crate::receipt::ReceiptBook;
use crate::token::{denominations, PendingWithdrawal, Token, Wallet};

/// Errors during settlement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SettlementError {
    /// A funding token was rejected by the bank.
    BadFunding(DepositError),
    /// The validated claims exceed the escrowed amount.
    OverClaim {
        /// Amount owed according to validated receipts.
        owed: u64,
        /// Amount actually escrowed.
        escrowed: u64,
    },
    /// No valid receipts — nothing to settle.
    EmptyBundle,
    /// The escrow was already settled.
    AlreadySettled,
}

/// Outcome of a successful settlement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SettlementReport {
    /// Per-forwarder payout `m·P_f + P_r/‖π‖` (integer division remainder
    /// of the routing pool stays in the refund).
    pub payouts: Vec<(AccountId, u64)>,
    /// The forwarder-set size `‖π‖`.
    pub forwarder_set_size: usize,
    /// Receipts dropped as invalid/duplicate/foreign.
    pub rejected_receipts: usize,
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

    /// The escrow budget needed for `k` connections with at most
    /// `max_hops` forwarding instances each: `k·max_hops·P_f + P_r`.
    #[must_use]
    pub fn required_budget(pf: u64, pr: u64, k: u32, max_hops: u32) -> u64 {
        u64::from(k) * u64::from(max_hops) * pf + pr
    }

    /// Settles the bundle: validates `receipts` under `bundle_key`, pays
    /// each forwarder `m·P_f + P_r/‖π‖`, and returns the change to the
    /// initiator as fresh blind-signed tokens in `refund_wallet`.
    ///
    /// On error nothing is paid and the escrow remains open (a later
    /// corrected settlement, or a timeout claim, can still run).
    pub fn settle(
        &mut self,
        bank: &mut Bank,
        bundle_key: &HmacKey,
        receipts: &ReceiptBook,
        refund_wallet: &mut Wallet,
        rng: &mut Xoshiro256StarStar,
    ) -> Result<SettlementReport, SettlementError> {
        if self.settled {
            return Err(SettlementError::AlreadySettled);
        }
        let (counts, rejected) = receipts.validated_counts(bundle_key, self.bundle_id);
        if counts.is_empty() {
            return Err(SettlementError::EmptyBundle);
        }
        let set_size = counts.len() as u64;
        let routing_share = self.pr / set_size;

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

        // Execute transfers from the escrow account.
        for &(acct, amount) in &payouts {
            bank.transfer(self.account, acct, amount)
                .expect("escrow balance was checked against owed");
        }
        let refund = self.funded - owed;
        if refund > 0 {
            // Refund as fresh bearer tokens (a blind withdrawal from the
            // escrow account), so the initiator stays unlinked.
            for value in denominations(refund) {
                let pending = PendingWithdrawal::prepare(value, bank.public_key(), rng);
                let blind_sig = bank
                    .withdraw_blinded(self.account, value, pending.blinded())
                    .expect("refund is covered by the escrow balance");
                refund_wallet.put(pending.complete(&bank.public_key().clone(), &blind_sig));
            }
        }
        self.settled = true;
        self.funded = 0;
        Ok(SettlementReport {
            payouts,
            forwarder_set_size: counts.len(),
            rejected_receipts: rejected,
            refund,
        })
    }
}

impl Escrow {
    /// Timeout settlement: after the bundle deadline passes without the
    /// initiator submitting a settlement, any forwarder can present the
    /// receipt book and the bank pays out from the escrow — the mechanism
    /// that makes initiator non-payment harmless. Unlike
    /// [`Escrow::settle`], no refund tokens are minted (the anonymous
    /// initiator is not present to receive them); the residual stays in
    /// the escrow account and remains claimable by a later
    /// initiator-driven settlement of the remainder.
    pub fn settle_by_timeout(
        &mut self,
        bank: &mut Bank,
        bundle_key: &HmacKey,
        receipts: &ReceiptBook,
    ) -> Result<SettlementReport, SettlementError> {
        if self.settled {
            return Err(SettlementError::AlreadySettled);
        }
        let (counts, rejected) = receipts.validated_counts(bundle_key, self.bundle_id);
        if counts.is_empty() {
            return Err(SettlementError::EmptyBundle);
        }
        let set_size = counts.len() as u64;
        let routing_share = self.pr / set_size;
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
                .expect("escrow balance checked against owed");
        }
        self.funded -= owed;
        self.settled = true;
        Ok(SettlementReport {
            payouts,
            forwarder_set_size: counts.len(),
            rejected_receipts: rejected,
            refund: 0,
        })
    }

    /// Residual value still held after a timeout settlement.
    #[must_use]
    pub fn residual(&self) -> u64 {
        self.funded
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;
    use crate::receipt::Receipt;
    use std::sync::LazyLock;

    static KEY: LazyLock<HmacKey> = LazyLock::new(|| HmacKey::new(b"bundle key"));

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

    /// Funds an escrow from the initiator's account through bearer tokens.
    fn fund_escrow(w: &mut World, bundle_id: u64, pf: u64, pr: u64, budget: u64) -> Escrow {
        let mut wallet = Wallet::new();
        w.bank
            .withdraw_into_wallet(w.initiator, budget, &mut wallet, &mut w.rng)
            .unwrap();
        let tokens = wallet.take_exact(budget).unwrap();
        Escrow::open(&mut w.bank, bundle_id, pf, pr, tokens).unwrap()
    }

    #[test]
    fn happy_path_settlement() {
        let mut w = world(1);
        let budget = Escrow::required_budget(50, 100, 2, 3); // 2*3*50+100 = 400
        let mut escrow = fund_escrow(&mut w, 1, 50, 100, budget);
        assert_eq!(escrow.funded(), 400);

        // Two connections; forwarder 0 on both, forwarder 1 on the second.
        let mut book = ReceiptBook::new();
        book.add(Receipt::issue(&KEY, 1, 0, 0, w.forwarders[0]));
        book.add(Receipt::issue(&KEY, 1, 1, 0, w.forwarders[0]));
        book.add(Receipt::issue(&KEY, 1, 1, 1, w.forwarders[1]));

        let mut refund = Wallet::new();
        let report = escrow
            .settle(&mut w.bank, &KEY, &book, &mut refund, &mut w.rng)
            .unwrap();

        assert_eq!(report.forwarder_set_size, 2);
        // f0: 2*50 + 100/2 = 150 ; f1: 1*50 + 50 = 100
        assert_eq!(w.bank.balance(w.forwarders[0]), Some(150));
        assert_eq!(w.bank.balance(w.forwarders[1]), Some(100));
        assert_eq!(report.refund, 400 - 250);
        assert_eq!(refund.balance(), 150);
    }

    #[test]
    fn refund_tokens_are_spendable_and_anonymous() {
        let mut w = world(2);
        let mut escrow = fund_escrow(&mut w, 1, 10, 10, 100);
        let mut book = ReceiptBook::new();
        book.add(Receipt::issue(&KEY, 1, 0, 0, w.forwarders[0]));
        let mut refund = Wallet::new();
        let report = escrow
            .settle(&mut w.bank, &KEY, &book, &mut refund, &mut w.rng)
            .unwrap();
        assert_eq!(report.refund, 100 - 20);
        // The refunded tokens deposit cleanly into any account.
        let stash = w.bank.open_account(0);
        for t in refund.take_exact(80).unwrap() {
            w.bank.deposit(stash, &t).unwrap();
        }
        assert_eq!(w.bank.balance(stash), Some(80));
    }

    #[test]
    fn conservation_across_whole_flow() {
        let mut w = world(3);
        let total_before = w.bank.total_deposits() + w.bank.outstanding();
        let mut escrow = fund_escrow(&mut w, 1, 50, 100, 400);
        let mut book = ReceiptBook::new();
        book.add(Receipt::issue(&KEY, 1, 0, 0, w.forwarders[0]));
        let mut refund = Wallet::new();
        escrow
            .settle(&mut w.bank, &KEY, &book, &mut refund, &mut w.rng)
            .unwrap();
        assert_eq!(
            w.bank.total_deposits() + w.bank.outstanding(),
            total_before,
            "value is conserved through fund->settle->refund"
        );
    }

    #[test]
    fn non_payment_impossible_funds_precommitted() {
        // The "initiator walks away" scenario: funds are already in escrow,
        // so settlement can proceed from receipts alone.
        let mut w = world(4);
        let initiator_before = w.bank.balance(w.initiator).unwrap();
        let mut escrow = fund_escrow(&mut w, 1, 50, 100, 400);
        assert_eq!(
            w.bank.balance(w.initiator),
            Some(initiator_before - 400),
            "funds leave the initiator before any connection runs"
        );
        let mut book = ReceiptBook::new();
        book.add(Receipt::issue(&KEY, 1, 0, 0, w.forwarders[0]));
        let mut refund = Wallet::new();
        let report = escrow
            .settle(&mut w.bank, &KEY, &book, &mut refund, &mut w.rng)
            .unwrap();
        assert_eq!(w.bank.balance(w.forwarders[0]), Some(report.payouts[0].1));
    }

    #[test]
    fn over_claim_rejected() {
        let mut w = world(5);
        // Tiny escrow, many claimed instances.
        let mut escrow = fund_escrow(&mut w, 1, 50, 100, 120);
        let mut book = ReceiptBook::new();
        for c in 0..5 {
            book.add(Receipt::issue(&KEY, 1, c, 0, w.forwarders[0]));
        }
        let mut refund = Wallet::new();
        let err = escrow.settle(&mut w.bank, &KEY, &book, &mut refund, &mut w.rng);
        assert!(matches!(err, Err(SettlementError::OverClaim { .. })));
        // Nothing was paid.
        assert_eq!(w.bank.balance(w.forwarders[0]), Some(0));
        assert_eq!(escrow.funded(), 120);
    }

    #[test]
    fn forged_receipts_do_not_get_paid() {
        let mut w = world(6);
        let mut escrow = fund_escrow(&mut w, 1, 50, 100, 400);
        let mut book = ReceiptBook::new();
        book.add(Receipt::issue(&KEY, 1, 0, 0, w.forwarders[0]));
        let mut forged = Receipt::issue(&KEY, 1, 1, 0, w.forwarders[0]);
        forged.forwarder = w.forwarders[2]; // divert to another account
        book.add(forged);
        let mut refund = Wallet::new();
        let report = escrow
            .settle(&mut w.bank, &KEY, &book, &mut refund, &mut w.rng)
            .unwrap();
        assert_eq!(report.rejected_receipts, 1);
        assert_eq!(w.bank.balance(w.forwarders[2]), Some(0));
    }

    #[test]
    fn double_settlement_rejected() {
        let mut w = world(7);
        let mut escrow = fund_escrow(&mut w, 1, 10, 10, 100);
        let mut book = ReceiptBook::new();
        book.add(Receipt::issue(&KEY, 1, 0, 0, w.forwarders[0]));
        let mut refund = Wallet::new();
        escrow
            .settle(&mut w.bank, &KEY, &book, &mut refund, &mut w.rng)
            .unwrap();
        let again = escrow.settle(&mut w.bank, &KEY, &book, &mut refund, &mut w.rng);
        assert_eq!(again.unwrap_err(), SettlementError::AlreadySettled);
    }

    #[test]
    fn empty_bundle_rejected() {
        let mut w = world(8);
        let mut escrow = fund_escrow(&mut w, 1, 10, 10, 100);
        let book = ReceiptBook::new();
        let mut refund = Wallet::new();
        let err = escrow.settle(&mut w.bank, &KEY, &book, &mut refund, &mut w.rng);
        assert_eq!(err.unwrap_err(), SettlementError::EmptyBundle);
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
        // The initiator vanishes; a forwarder presents the receipts.
        let mut book = ReceiptBook::new();
        book.add(Receipt::issue(&KEY, 1, 0, 0, w.forwarders[0]));
        book.add(Receipt::issue(&KEY, 1, 1, 0, w.forwarders[0]));
        let report = escrow.settle_by_timeout(&mut w.bank, &KEY, &book).unwrap();
        // 2*50 + 100/1 = 200 paid; 200 residual held.
        assert_eq!(w.bank.balance(w.forwarders[0]), Some(200));
        assert_eq!(report.refund, 0);
        assert_eq!(escrow.residual(), 200);
        // No double settlement afterwards.
        assert_eq!(
            escrow.settle_by_timeout(&mut w.bank, &KEY, &book),
            Err(SettlementError::AlreadySettled)
        );
    }

    #[test]
    fn timeout_settlement_still_rejects_forgeries() {
        let mut w = world(12);
        let mut escrow = fund_escrow(&mut w, 1, 50, 100, 400);
        let mut book = ReceiptBook::new();
        let mut forged = Receipt::issue(&KEY, 1, 0, 0, w.forwarders[0]);
        forged.forwarder = w.forwarders[1];
        book.add(forged);
        let err = escrow.settle_by_timeout(&mut w.bank, &KEY, &book);
        assert_eq!(err, Err(SettlementError::EmptyBundle));
        assert_eq!(w.bank.balance(w.forwarders[1]), Some(0));
    }

    #[test]
    fn routing_pool_divides_among_forwarder_set() {
        // 3 forwarders, Pr = 100 => 33 each; remainder 1 goes to refund.
        let mut w = world(10);
        let mut escrow = fund_escrow(&mut w, 1, 10, 100, 400);
        let mut book = ReceiptBook::new();
        book.add(Receipt::issue(&KEY, 1, 0, 0, w.forwarders[0]));
        book.add(Receipt::issue(&KEY, 1, 0, 1, w.forwarders[1]));
        book.add(Receipt::issue(&KEY, 1, 0, 2, w.forwarders[2]));
        let mut refund = Wallet::new();
        let report = escrow
            .settle(&mut w.bank, &KEY, &book, &mut refund, &mut w.rng)
            .unwrap();
        for &(_, amount) in &report.payouts {
            assert_eq!(amount, 10 + 33);
        }
        assert_eq!(report.refund, 400 - 3 * 43);
    }
}
