//! The central bank: accounts, blind-signed withdrawal, deposit with
//! double-spend detection.
//!
//! The bank is trusted for *payment integrity* only — it sees account
//! balances and deposited token serials, but by construction (blind
//! signatures) it cannot link a deposit back to a withdrawal, so it never
//! learns which initiator paid which forwarder.
//!
//! All state lives in the crypto-free [`Ledger`]; the bank adds RSA blind
//! signing and verification on top. That split is what makes the ledger
//! durable: attach a WAL ([`Bank::enable_wal`]) and every state mutation
//! is logged before it applies, and [`Bank::recover`] rebuilds the exact
//! pre-crash state from the intact log prefix (keys are long-lived
//! material restored separately — the WAL never holds private keys).

use std::collections::BTreeMap;

use idpa_crypto::bigint::BigUint;
use idpa_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use idpa_desim::rng::Xoshiro256StarStar;

use crate::ledger::{Ledger, RecoveryReport};
use crate::token::{denominations, PendingWithdrawal, Token, Wallet, WithdrawError};
use crate::wal::Wal;

/// Identifier of a bank account (peers and the escrow service hold these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccountId(pub u64);

/// Errors during deposit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepositError {
    /// The token's bank signature is invalid (forgery).
    InvalidSignature,
    /// The token's serial has already been deposited (double spend).
    DoubleSpend,
    /// The target account does not exist.
    UnknownAccount,
    /// The deposit exceeds the outstanding bearer liability: it would
    /// credit value no withdrawal put into circulation.
    ExceedsOutstanding,
    /// The credit would push the account's balance past `u64::MAX`.
    BalanceOverflow,
}

/// Error applying an epoch's netted balance deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochNetError {
    /// A netted account does not exist.
    UnknownAccount(AccountId),
    /// A net debit exceeds the account's balance.
    InsufficientFunds(AccountId),
    /// A net credit would push the account's balance past `u64::MAX`.
    BalanceOverflow(AccountId),
    /// The deltas do not sum to zero (a sum overflowing `i128` counts as
    /// nonzero): the net would create or destroy value.
    NotZeroSum,
}

/// The central bank.
///
/// `Clone` snapshots the entire bank — keys (the cached Montgomery context
/// is shared), ledger, serial set and audit chain — which is what lets
/// benches and tests replay the same settlement workload from a pristine
/// state.
#[derive(Clone)]
pub struct Bank {
    keys: RsaKeyPair,
    ledger: Ledger,
}

impl Bank {
    /// Creates a bank with fresh RSA keys of `modulus_bits`.
    #[must_use]
    pub fn new(modulus_bits: usize, rng: &mut Xoshiro256StarStar) -> Self {
        Bank {
            keys: RsaKeyPair::generate(modulus_bits, rng),
            ledger: Ledger::new(),
        }
    }

    /// Rebuilds a bank from its long-lived keys and a write-ahead log
    /// image: replays the intact record prefix, discards any torn tail
    /// (details in the report), and leaves the WAL attached so operation
    /// resumes where the durable history ends. Never fails — corruption
    /// only shortens the accepted prefix.
    #[must_use]
    pub fn recover(keys: RsaKeyPair, wal_bytes: &[u8]) -> (Self, RecoveryReport) {
        let (ledger, report) = Ledger::recover(wal_bytes);
        (Bank { keys, ledger }, report)
    }

    /// Attaches a fresh write-ahead log: from here on every state
    /// mutation appends a checksummed record before applying.
    pub fn enable_wal(&mut self) {
        self.ledger.attach_wal(Wal::new());
    }

    /// The bank's keys (to pair with a WAL image in [`Bank::recover`]).
    #[must_use]
    pub fn keys(&self) -> &RsaKeyPair {
        &self.keys
    }

    /// The underlying crypto-free ledger: balances, totals, spent serials
    /// and the audit chain are read here.
    #[must_use]
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The bank's public key (token verification).
    #[must_use]
    pub fn public_key(&self) -> &RsaPublicKey {
        self.keys.public()
    }

    /// Opens an account with an initial balance, returning its id.
    pub fn open_account(&mut self, initial_balance: u64) -> AccountId {
        self.ledger.open_account(initial_balance)
    }

    /// Executes the bank side of a withdrawal: debits the account by the
    /// declared value and blind-signs the representative. The serial stays
    /// hidden inside the blinding.
    pub fn withdraw_blinded(
        &mut self,
        account: AccountId,
        declared_value: u64,
        blinded: &BigUint,
    ) -> Result<BigUint, WithdrawError> {
        self.ledger.withdraw(account, declared_value)?;
        Ok(self.keys.raw_sign(blinded))
    }

    /// Client-plus-bank convenience: withdraws `amount` as binary
    /// denominations into `wallet`.
    pub fn withdraw_into_wallet(
        &mut self,
        account: AccountId,
        amount: u64,
        wallet: &mut Wallet,
        rng: &mut Xoshiro256StarStar,
    ) -> Result<(), WithdrawError> {
        // Check funds and liability up-front so a partial failure cannot
        // strand value.
        let balance = self
            .ledger
            .balance(account)
            .ok_or(WithdrawError::UnknownAccount)?;
        if balance < amount {
            return Err(WithdrawError::InsufficientFunds);
        }
        if self.ledger.outstanding().checked_add(amount).is_none() {
            return Err(WithdrawError::BalanceOverflow);
        }
        for value in denominations(amount) {
            let pending = PendingWithdrawal::prepare(value, self.public_key(), rng);
            let blind_sig = self
                .withdraw_blinded(account, value, pending.blinded())
                .expect("funds were checked");
            wallet.put(pending.complete(&self.keys.public().clone(), &blind_sig));
        }
        Ok(())
    }

    /// Deposits a bearer token into an account: verifies the signature,
    /// rejects double spends, credits the face value. The only way a token
    /// enters the ledger. Each signature is verified on its own, through
    /// the key's cached Montgomery context: a combined batch equation over
    /// `(Z/n)*` is unsound (Boyd–Pavlovski: negating an even number of
    /// valid signatures passes it while every negated token fails
    /// [`Token::verify`]), and at `e = 65537` it was slower besides.
    pub fn deposit(&mut self, account: AccountId, token: &Token) -> Result<(), DepositError> {
        if !self.ledger.has_account(account) {
            return Err(DepositError::UnknownAccount);
        }
        if !token.verify(self.keys.public()) {
            return Err(DepositError::InvalidSignature);
        }
        self.ledger.deposit_serial(account, token.id, token.value)
    }

    /// Applies one net balance delta per account for a settled epoch,
    /// atomically: every delta applies (one [`crate::LedgerOp::EpochNet`]
    /// audit entry for the whole net) or none does — a failed validation
    /// (a nonzero sum, an unknown account, an uncovered debit, or a credit
    /// overflowing `u64`)
    /// leaves every balance untouched. Deltas are
    /// `i128`, so any sum of `u64` transfer amounts is representable
    /// without wrapping. The deltas must sum to zero, so a net only moves
    /// value between accounts.
    pub fn apply_epoch_net(
        &mut self,
        epoch: u64,
        net: &BTreeMap<AccountId, i128>,
    ) -> Result<(), EpochNetError> {
        self.ledger.apply_epoch_net(epoch, net)
    }

    /// Account-to-account ledger transfer (used by escrow payouts, which
    /// need no anonymity — forwarder payees are known to the bank by
    /// design; only the initiator side is hidden).
    pub fn transfer(
        &mut self,
        from: AccountId,
        to: AccountId,
        amount: u64,
    ) -> Result<(), WithdrawError> {
        self.ledger.transfer(from, to, amount)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;
    use crate::token::{PendingWithdrawal, TokenId};

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    fn bank(seed: u64) -> Bank {
        Bank::new(256, &mut rng(seed))
    }

    #[test]
    fn open_account_and_balance() {
        let mut b = bank(1);
        let acct = b.open_account(100);
        assert_eq!(b.ledger().balance(acct), Some(100));
        assert_eq!(b.ledger().balance(AccountId(999)), None);
    }

    #[test]
    fn withdraw_deposit_round_trip_moves_value() {
        let mut b = bank(2);
        let mut r = rng(3);
        let alice = b.open_account(100);
        let bob = b.open_account(0);

        let mut wallet = Wallet::new();
        b.withdraw_into_wallet(alice, 37, &mut wallet, &mut r)
            .unwrap();
        assert_eq!(b.ledger().balance(alice), Some(63));
        assert_eq!(wallet.balance(), 37);
        assert_eq!(b.ledger().outstanding(), 37);

        for token in wallet.take_exact(37).unwrap() {
            b.deposit(bob, &token).unwrap();
        }
        assert_eq!(b.ledger().balance(bob), Some(37));
        assert_eq!(b.ledger().outstanding(), 0);
    }

    #[test]
    fn conservation_of_value() {
        let mut b = bank(4);
        let mut r = rng(5);
        let alice = b.open_account(1000);
        let bob = b.open_account(500);
        let total_before = b.ledger().total_deposits();

        let mut wallet = Wallet::new();
        b.withdraw_into_wallet(alice, 123, &mut wallet, &mut r)
            .unwrap();
        assert_eq!(
            b.ledger().total_deposits() + b.ledger().outstanding(),
            total_before
        );

        for token in wallet.take_exact(123).unwrap() {
            b.deposit(bob, &token).unwrap();
        }
        assert_eq!(b.ledger().total_deposits(), total_before);
    }

    #[test]
    fn insufficient_funds_rejected_atomically() {
        let mut b = bank(6);
        let mut r = rng(7);
        let alice = b.open_account(10);
        let mut wallet = Wallet::new();
        let err = b.withdraw_into_wallet(alice, 11, &mut wallet, &mut r);
        assert_eq!(err, Err(WithdrawError::InsufficientFunds));
        assert_eq!(b.ledger().balance(alice), Some(10), "no partial debit");
        assert!(wallet.is_empty());
    }

    #[test]
    fn double_spend_detected() {
        let mut b = bank(8);
        let mut r = rng(9);
        let alice = b.open_account(100);
        let bob = b.open_account(0);
        let carol = b.open_account(0);

        let mut wallet = Wallet::new();
        b.withdraw_into_wallet(alice, 1, &mut wallet, &mut r)
            .unwrap();
        let token = wallet.take_exact(1).unwrap().pop().unwrap();

        b.deposit(bob, &token).unwrap();
        assert_eq!(b.deposit(carol, &token), Err(DepositError::DoubleSpend));
        assert_eq!(b.ledger().balance(carol), Some(0));
    }

    #[test]
    fn forged_token_rejected() {
        let mut b = bank(10);
        let mut r = rng(11);
        let bob = b.open_account(0);
        // Forge: self-signed garbage.
        let forged = Token {
            id: TokenId::random(&mut r),
            value: 1_000_000,
            signature: BigUint::from_u64(12345),
        };
        assert_eq!(b.deposit(bob, &forged), Err(DepositError::InvalidSignature));
    }

    #[test]
    fn inflated_value_rejected() {
        let mut b = bank(12);
        let mut r = rng(13);
        let alice = b.open_account(100);
        let bob = b.open_account(0);
        let mut wallet = Wallet::new();
        b.withdraw_into_wallet(alice, 2, &mut wallet, &mut r)
            .unwrap();
        let mut token = wallet.take_exact(2).unwrap().pop().unwrap();
        token.value = 200; // claim a bigger denomination
        assert_eq!(b.deposit(bob, &token), Err(DepositError::InvalidSignature));
    }

    /// Regression for the Boyd–Pavlovski sign attack: a negated signature
    /// (`sig → n - sig`) fails strict verification, so `deposit` rejects
    /// it even when an even number of negated tokens arrive together (the
    /// case a combined batch equation accepts with probability 1), and the
    /// rejection burns no serial.
    #[test]
    fn negated_signatures_rejected_by_deposit() {
        let mut b = bank(30);
        let mut r = rng(32);
        let alice = b.open_account(100);
        let bob = b.open_account(0);
        let mut wallet = Wallet::new();
        let mut tokens = Vec::with_capacity(4);
        for _ in 0..4 {
            b.withdraw_into_wallet(alice, 1, &mut wallet, &mut r)
                .unwrap();
            tokens.extend(wallet.take_exact(1).unwrap());
        }
        let genuine = tokens.clone();

        // Negate an even number of signatures (indices 1 and 3).
        let n = b.public_key().modulus().clone();
        for i in [1, 3] {
            tokens[i].signature = n.sub(&tokens[i].signature);
        }
        let verdicts: Vec<_> = tokens.iter().map(|t| b.deposit(bob, t)).collect();
        assert_eq!(
            verdicts,
            vec![
                Ok(()),
                Err(DepositError::InvalidSignature),
                Ok(()),
                Err(DepositError::InvalidSignature),
            ]
        );
        assert_eq!(b.ledger().balance(bob), Some(2));
        assert_eq!(b.ledger().spent_serials(), 2);
        // The genuine originals of the rejected tokens still deposit.
        for i in [1, 3] {
            assert_eq!(b.deposit(bob, &genuine[i]), Ok(()));
        }
        assert_eq!(b.ledger().balance(bob), Some(4));
        assert_eq!(b.ledger().outstanding(), 0);
    }

    #[test]
    fn epoch_net_rejects_overflowing_credit_atomically() {
        let mut b = bank(33);
        let rich = b.open_account(u64::MAX - 5);
        let poor = b.open_account(100);
        let mut net: BTreeMap<AccountId, i128> = BTreeMap::new();
        net.insert(rich, 10);
        net.insert(poor, -10);
        assert_eq!(
            b.apply_epoch_net(0, &net),
            Err(EpochNetError::BalanceOverflow(rich))
        );
        assert_eq!(
            b.ledger().balance(rich),
            Some(u64::MAX - 5),
            "nothing applied"
        );
        assert_eq!(b.ledger().balance(poor), Some(100), "nothing applied");
    }

    #[test]
    fn epoch_net_handles_deltas_beyond_i64() {
        // Nets larger than i64::MAX in magnitude must validate, not wrap:
        // a debit of 2·(i64::MAX) against a small balance is an
        // InsufficientFunds error, never a silent wraparound credit.
        let mut b = bank(34);
        let a = b.open_account(7);
        let c = b.open_account(0);
        let huge = 2 * i128::from(i64::MAX);
        let mut net: BTreeMap<AccountId, i128> = BTreeMap::new();
        net.insert(a, -huge);
        net.insert(c, huge);
        assert_eq!(
            b.apply_epoch_net(0, &net),
            Err(EpochNetError::InsufficientFunds(a))
        );
        assert_eq!(b.ledger().balance(a), Some(7));
        assert_eq!(b.ledger().balance(c), Some(0));
    }

    #[test]
    fn deposit_to_unknown_account_rejected() {
        let mut b = bank(14);
        let mut r = rng(15);
        let alice = b.open_account(100);
        let mut wallet = Wallet::new();
        b.withdraw_into_wallet(alice, 1, &mut wallet, &mut r)
            .unwrap();
        let token = wallet.take_exact(1).unwrap().pop().unwrap();
        assert_eq!(
            b.deposit(AccountId(404), &token),
            Err(DepositError::UnknownAccount)
        );
        // The serial must NOT be burned by the failed attempt.
        let bob = b.open_account(0);
        assert_eq!(b.deposit(bob, &token), Ok(()));
    }

    #[test]
    fn unlinkability_bank_never_sees_serial_at_withdrawal() {
        // Mechanical check: the blinded representative the bank signs is
        // unequal to the digest it later verifies at deposit.
        let mut b = bank(16);
        let mut r = rng(17);
        let alice = b.open_account(10);
        let pending = PendingWithdrawal::prepare(1, b.public_key(), &mut r);
        let seen_by_bank = pending.blinded().clone();
        let blind_sig = b.withdraw_blinded(alice, 1, &seen_by_bank).unwrap();
        let token = pending.complete(&b.public_key().clone(), &blind_sig);
        let digest = crate::token::token_digest(&token.id, token.value, b.public_key());
        assert_ne!(seen_by_bank, digest);
        assert!(token.verify(b.public_key()));
    }

    #[test]
    fn account_ids_are_sequential_and_distinct() {
        let mut b = bank(18);
        let a = b.open_account(0);
        let c = b.open_account(0);
        assert_ne!(a, c);
    }

    #[test]
    fn audit_log_chains_and_replays_ledger() {
        let mut b = bank(19);
        let mut r = rng(20);
        let alice = b.open_account(100);
        let bob = b.open_account(0);
        let mut wallet = Wallet::new();
        b.withdraw_into_wallet(alice, 5, &mut wallet, &mut r)
            .unwrap();
        for t in wallet.take_exact(5).unwrap() {
            b.deposit(bob, &t).unwrap();
        }
        b.transfer(bob, alice, 2).unwrap();

        // The chain verifies, and replaying it reconstructs every balance.
        assert_eq!(b.ledger().audit().verify(), Ok(()));
        assert_eq!(
            b.ledger().audit().replay_balance(alice),
            i128::from(b.ledger().balance(alice).unwrap())
        );
        assert_eq!(
            b.ledger().audit().replay_balance(bob),
            i128::from(b.ledger().balance(bob).unwrap())
        );
    }

    #[test]
    fn failed_operations_leave_no_audit_entries() {
        let mut b = bank(21);
        let mut r = rng(22);
        let alice = b.open_account(1);
        let before = b.ledger().audit().len();
        let mut w = Wallet::new();
        let _ = b.withdraw_into_wallet(alice, 100, &mut w, &mut r); // fails
        let _ = b.transfer(alice, AccountId(404), 1); // fails
        assert_eq!(
            b.ledger().audit().len(),
            before,
            "failures must not be logged"
        );
    }

    #[test]
    fn wal_enabled_bank_recovers_to_identical_state() {
        let mut b = bank(23);
        b.enable_wal();
        let mut r = rng(24);
        let alice = b.open_account(100);
        let bob = b.open_account(0);
        let mut wallet = Wallet::new();
        b.withdraw_into_wallet(alice, 9, &mut wallet, &mut r)
            .unwrap();
        for t in wallet.take_exact(9).unwrap() {
            b.deposit(bob, &t).unwrap();
        }
        b.transfer(bob, alice, 4).unwrap();

        let wal = b.ledger().wal().unwrap().committed_bytes().to_vec();
        let (recovered, report) = Bank::recover(b.keys().clone(), &wal);
        assert!(report.is_clean());
        assert_eq!(recovered.ledger().digest(), {
            let mut stripped = b.ledger().clone();
            stripped.take_wal();
            stripped.digest()
        });
        assert_eq!(recovered.ledger().balance(alice), b.ledger().balance(alice));
        assert_eq!(recovered.ledger().balance(bob), b.ledger().balance(bob));
        assert_eq!(recovered.ledger().audit().head(), b.ledger().audit().head());
        assert!(recovered.ledger().audit().verify_chain());
        // The recovered bank keeps its keys: round-trip a fresh token.
        let mut b2 = recovered;
        let mut w2 = Wallet::new();
        let mut r2 = rng(25);
        b2.withdraw_into_wallet(alice, 1, &mut w2, &mut r2).unwrap();
        let t = w2.take_exact(1).unwrap().pop().unwrap();
        assert!(t.verify(b2.public_key()));
    }

    #[test]
    fn wal_off_bank_has_no_log_overhead() {
        let b = bank(26);
        assert!(b.ledger().wal().is_none(), "durability is opt-in");
    }
}
