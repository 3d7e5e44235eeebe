//! The crypto-free ledger core of the bank, with optional write-ahead
//! durability.
//!
//! [`Ledger`] owns everything the bank knows that is *state* — account
//! balances, the spent-serial set, outstanding bearer liability, the
//! hash-chained audit log — and none of the cryptography. [`crate::Bank`]
//! wraps it with RSA blind signing/verification; the simulation's durable
//! shadow bank uses it directly on the crypto-free hot path.
//!
//! Durability contract (enforced by every mutating method): validate
//! (read-only) → record the [`LedgerOp`] (its payload is encoded once,
//! framed into the attached [`Wal`] and hashed onto the audit chain) →
//! mutate. Only validated operations reach either log, so replaying any
//! intact log prefix succeeds and reproduces the exact state that prefix
//! describes — the property [`Ledger::recover`] relies on and the
//! crash-anywhere suite in `tests/wal_recovery.rs` proves byte by byte.

use std::collections::{BTreeMap, HashMap, HashSet};

use idpa_desim::codec::{fnv1a_64, Enc};

use crate::audit::AuditLog;
use crate::bank::{AccountId, DepositError, EpochNetError};
use crate::token::{TokenId, WithdrawError};
use crate::wal::{scan, LedgerOp, Wal};

/// Why an intact-looking WAL record failed to apply during replay — this
/// can only happen when the log was corrupted in a way the frame checksums
/// cannot see (e.g. a spliced duplicate of a valid record), because the
/// clean path logs only validated operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyError {
    /// The operation references an account the replayed state lacks.
    UnknownAccount,
    /// A debit exceeds the replayed balance.
    InsufficientFunds,
    /// The deposit's serial is already in the replayed spent set.
    DoubleSpend,
    /// A deposit exceeds the replayed outstanding bearer liability.
    ExceedsOutstanding,
    /// A credit would overflow a balance.
    BalanceOverflow,
    /// An epoch net's deltas do not sum to zero.
    NotZeroSum,
}

/// What recovery found in a WAL byte image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records replayed into the recovered ledger.
    pub records_replayed: u64,
    /// Bytes of the log accepted as the intact prefix.
    pub bytes_replayed: usize,
    /// Bytes discarded as the torn/corrupt tail.
    pub torn_bytes: usize,
    /// Human-readable reason the tail was discarded (`None` = the whole
    /// image was intact and applied).
    pub defect: Option<String>,
}

impl RecoveryReport {
    /// Whether the whole image was intact and replayed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.torn_bytes == 0 && self.defect.is_none()
    }
}

/// The bank's account/serial/liability state plus the audit chain, with an
/// optional attached write-ahead log.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    accounts: HashMap<AccountId, u64>,
    spent: HashSet<TokenId>,
    next_account: u64,
    /// Total value of tokens signed but not yet deposited — outstanding
    /// bearer liability (used by the conservation-of-value invariant).
    outstanding: u64,
    /// Total value ever minted by `open_account` (`u128`: many max-value
    /// accounts must not wrap the conservation check).
    minted: u128,
    /// Sum of all balances, maintained incrementally so the conservation
    /// invariant is O(1) to check on the hot path.
    total_balance: u128,
    /// Tamper-evident chain of every applied operation.
    audit: AuditLog,
    /// The write-ahead log; `None` runs the exact non-durable path.
    wal: Option<Wal>,
    /// Whether `record` stages records for group commit instead of appending
    /// them durably one by one.
    group_commit: bool,
}

impl Ledger {
    /// An empty ledger with no WAL attached.
    #[must_use]
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Attaches a write-ahead log; subsequent mutations append to it
    /// before touching state.
    pub fn attach_wal(&mut self, wal: Wal) {
        self.wal = Some(wal);
    }

    /// Detaches and returns the WAL (the durable medium outlives the
    /// in-memory ledger across a simulated crash).
    pub fn take_wal(&mut self) -> Option<Wal> {
        self.wal.take()
    }

    /// The attached WAL, if any.
    #[must_use]
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// Switches between per-op durability (`false`, the default) and
    /// group commit (`true`: records stage until [`Ledger::commit_wal`]).
    pub fn set_group_commit(&mut self, group: bool) {
        self.group_commit = group;
    }

    /// Group-commits all staged records; returns how many became durable.
    /// A no-op without a WAL or in per-op mode.
    pub fn commit_wal(&mut self) -> u64 {
        self.wal.as_mut().map_or(0, Wal::commit)
    }

    /// Records a validated op on the WAL (stage or commit per the mode)
    /// and the audit chain, which hashes the payload the WAL just framed.
    /// Called *before* the mutation it describes.
    fn record(&mut self, op: LedgerOp) {
        let Some(wal) = self.wal.as_mut() else {
            self.audit.append(op);
            return;
        };
        let payload = if self.group_commit {
            wal.stage(&op)
        } else {
            wal.append(&op)
        };
        self.audit.push(op, payload);
    }

    /// Opens an account with an initial balance, returning its id.
    /// Ids are sequential, so log replay re-assigns them identically.
    pub fn open_account(&mut self, initial_balance: u64) -> AccountId {
        self.record(LedgerOp::Open {
            balance: initial_balance,
        });
        let id = AccountId(self.next_account);
        self.next_account += 1;
        self.accounts.insert(id, initial_balance);
        self.minted += u128::from(initial_balance);
        self.total_balance += u128::from(initial_balance);
        id
    }

    /// Balance of an account, or `None` if unknown.
    #[must_use]
    pub fn balance(&self, account: AccountId) -> Option<u64> {
        self.accounts.get(&account).copied()
    }

    /// Whether the account exists.
    #[must_use]
    pub fn has_account(&self, account: AccountId) -> bool {
        self.accounts.contains_key(&account)
    }

    /// Debits `value` from `account`, moving it to outstanding bearer
    /// liability (the ledger half of a blind withdrawal).
    pub fn withdraw(&mut self, account: AccountId, value: u64) -> Result<(), WithdrawError> {
        let Some(&balance) = self.accounts.get(&account) else {
            return Err(WithdrawError::UnknownAccount);
        };
        if balance < value {
            return Err(WithdrawError::InsufficientFunds);
        }
        let Some(outstanding) = self.outstanding.checked_add(value) else {
            return Err(WithdrawError::BalanceOverflow);
        };
        self.record(LedgerOp::Withdraw { account, value });
        *self.accounts.get_mut(&account).expect("checked above") = balance - value;
        self.total_balance -= u128::from(value);
        self.outstanding = outstanding;
        Ok(())
    }

    /// Credits a deposited serial's face value: rejects unknown accounts,
    /// double spends, a value above the outstanding liability and a credit
    /// past `u64::MAX` (the signature check lives in [`crate::Bank`]).
    pub fn deposit_serial(
        &mut self,
        account: AccountId,
        serial: TokenId,
        value: u64,
    ) -> Result<(), DepositError> {
        let Some(&balance) = self.accounts.get(&account) else {
            return Err(DepositError::UnknownAccount);
        };
        if self.spent.contains(&serial) {
            return Err(DepositError::DoubleSpend);
        }
        let Some(outstanding) = self.outstanding.checked_sub(value) else {
            return Err(DepositError::ExceedsOutstanding);
        };
        let Some(credited) = balance.checked_add(value) else {
            return Err(DepositError::BalanceOverflow);
        };
        self.record(LedgerOp::Deposit {
            account,
            serial,
            value,
        });
        self.spent.insert(serial);
        self.outstanding = outstanding;
        *self.accounts.get_mut(&account).expect("checked above") = credited;
        self.total_balance += u128::from(value);
        Ok(())
    }

    /// Account-to-account transfer. Checks the destination first, then the
    /// source, then funds (the order [`crate::Bank::transfer`] pins).
    pub fn transfer(
        &mut self,
        from: AccountId,
        to: AccountId,
        amount: u64,
    ) -> Result<(), WithdrawError> {
        let Some(&dst) = self.accounts.get(&to) else {
            return Err(WithdrawError::UnknownAccount);
        };
        let Some(&src) = self.accounts.get(&from) else {
            return Err(WithdrawError::UnknownAccount);
        };
        if src < amount {
            return Err(WithdrawError::InsufficientFunds);
        }
        // A self-transfer leaves the balance as it is, so cannot overflow.
        if from != to && dst.checked_add(amount).is_none() {
            return Err(WithdrawError::BalanceOverflow);
        }
        self.record(LedgerOp::Transfer { from, to, amount });
        *self.accounts.get_mut(&from).expect("checked above") = src - amount;
        *self.accounts.get_mut(&to).expect("checked above") += amount;
        Ok(())
    }

    /// Applies one net balance delta per account for a settled epoch,
    /// atomically: the net must sum to zero and every delta is validated
    /// before any applies, and the whole net is one WAL record and one
    /// audit entry — the epoch-boundary group the log commits together.
    pub fn apply_epoch_net(
        &mut self,
        epoch: u64,
        net: &BTreeMap<AccountId, i128>,
    ) -> Result<(), EpochNetError> {
        let sum = net.values().try_fold(0i128, |acc, &d| acc.checked_add(d));
        if sum != Some(0) {
            return Err(EpochNetError::NotZeroSum);
        }
        for (&account, &delta) in net {
            let Some(&balance) = self.accounts.get(&account) else {
                return Err(EpochNetError::UnknownAccount(account));
            };
            let new = i128::from(balance) + delta;
            if new < 0 {
                return Err(EpochNetError::InsufficientFunds(account));
            }
            if new > i128::from(u64::MAX) {
                return Err(EpochNetError::BalanceOverflow(account));
            }
        }
        self.record(LedgerOp::EpochNet {
            epoch,
            deltas: net.clone(),
        });
        for (&account, &delta) in net {
            let balance = self.accounts.get_mut(&account).expect("validated above");
            let old = u128::from(*balance);
            *balance = u64::try_from(i128::from(*balance) + delta).expect("validated above");
            self.total_balance = self.total_balance - old + u128::from(*balance);
        }
        Ok(())
    }

    /// Applies a replayed WAL record through the same validated paths the
    /// live methods use (with the WAL detached during recovery, nothing is
    /// re-logged). Failure means the log was corrupted in a way the frame
    /// checksums cannot detect.
    pub fn apply(&mut self, op: &LedgerOp) -> Result<(), ApplyError> {
        match op {
            LedgerOp::Open { balance } => {
                self.open_account(*balance);
                Ok(())
            }
            LedgerOp::Withdraw { account, value } => {
                self.withdraw(*account, *value).map_err(ApplyError::from)
            }
            LedgerOp::Deposit {
                account,
                serial,
                value,
            } => self
                .deposit_serial(*account, *serial, *value)
                .map_err(ApplyError::from),
            LedgerOp::Transfer { from, to, amount } => {
                self.transfer(*from, *to, *amount).map_err(ApplyError::from)
            }
            LedgerOp::EpochNet { epoch, deltas } => self
                .apply_epoch_net(*epoch, deltas)
                .map_err(ApplyError::from),
        }
    }

    /// Rebuilds a ledger from a WAL byte image: a cold [`BankReplica`]
    /// replays the longest intact record prefix and is promoted, the
    /// torn/corrupt tail is discarded, and a WAL holding exactly the
    /// replayed prefix is re-attached — so the recovered ledger continues
    /// the same log where the intact history ends.
    ///
    /// Never fails: corruption of any kind (torn frame, flipped byte,
    /// spliced record that no longer applies) just shortens the accepted
    /// prefix, reported in the [`RecoveryReport`].
    #[must_use]
    pub fn recover(bytes: &[u8]) -> (Ledger, RecoveryReport) {
        let mut replica = BankReplica::new();
        let (records, defect) = replica.advance(bytes);
        let (mut ledger, accepted) = replica.promote();
        ledger.attach_wal(Wal::from_recovered(bytes[..accepted].to_vec(), records));
        let report = RecoveryReport {
            records_replayed: records,
            bytes_replayed: accepted,
            torn_bytes: bytes.len() - accepted,
            defect,
        };
        (ledger, report)
    }

    /// Sum of all account balances (u64 view; see
    /// [`Ledger::total_balance`] for the exact sum).
    #[must_use]
    pub fn total_deposits(&self) -> u64 {
        self.accounts.values().sum()
    }

    /// Sum of all balances as maintained incrementally (exact, `u128`).
    #[must_use]
    pub fn total_balance(&self) -> u128 {
        self.total_balance
    }

    /// Total value ever minted by account openings.
    #[must_use]
    pub fn minted(&self) -> u128 {
        self.minted
    }

    /// Outstanding bearer-token liability (withdrawn, not yet deposited).
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// Number of accounts.
    #[must_use]
    pub fn accounts_len(&self) -> usize {
        self.accounts.len()
    }

    /// Number of serials seen.
    #[must_use]
    pub fn spent_serials(&self) -> usize {
        self.spent.len()
    }

    /// The tamper-evident audit log.
    #[must_use]
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Mutable audit access for corruption-injection tests (the invariant
    /// monitor must pinpoint a tampered entry).
    #[doc(hidden)]
    pub fn audit_mut(&mut self) -> &mut AuditLog {
        &mut self.audit
    }

    /// The O(1) conservation-of-value invariant: balances + outstanding
    /// liability equals everything ever minted. Exact (`u128`) — any
    /// silent loss or creation of value breaks it.
    #[must_use]
    pub fn conservation_holds(&self) -> bool {
        self.total_balance + u128::from(self.outstanding) == self.minted
    }

    /// Account balances in ascending id order (canonical iteration for
    /// digests and deep invariant checks).
    #[must_use]
    pub fn sorted_accounts(&self) -> Vec<(AccountId, u64)> {
        let mut v: Vec<(AccountId, u64)> = self.accounts.iter().map(|(&a, &b)| (a, b)).collect();
        v.sort_unstable_by_key(|(a, _)| *a);
        v
    }

    /// FNV-1a-64 digest of the canonical ledger state: sorted balances,
    /// sorted spent serials, counters, and the audit-chain head (which
    /// commits to the entire operation history). Two ledgers with equal
    /// digests went through identical state trajectories.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut e = Enc::new();
        let accounts = self.sorted_accounts();
        e.seq_len(accounts.len());
        for (a, b) in accounts {
            e.u64(a.0);
            e.u64(b);
        }
        let mut serials: Vec<&TokenId> = self.spent.iter().collect();
        serials.sort_unstable_by_key(|t| t.0);
        e.seq_len(serials.len());
        for s in serials {
            e.raw(&s.0);
        }
        e.u64(self.next_account);
        e.u64(self.outstanding);
        e.u64((self.minted >> 64) as u64);
        e.u64(self.minted as u64);
        e.u64((self.total_balance >> 64) as u64);
        e.u64(self.total_balance as u64);
        e.u64(self.audit.len() as u64);
        e.raw(&self.audit.head());
        fnv1a_64(&e.into_bytes())
    }
}

impl From<WithdrawError> for ApplyError {
    fn from(e: WithdrawError) -> Self {
        match e {
            WithdrawError::UnknownAccount => ApplyError::UnknownAccount,
            WithdrawError::InsufficientFunds => ApplyError::InsufficientFunds,
            WithdrawError::BalanceOverflow => ApplyError::BalanceOverflow,
        }
    }
}

impl From<DepositError> for ApplyError {
    fn from(e: DepositError) -> Self {
        match e {
            DepositError::UnknownAccount => ApplyError::UnknownAccount,
            DepositError::DoubleSpend => ApplyError::DoubleSpend,
            DepositError::ExceedsOutstanding => ApplyError::ExceedsOutstanding,
            DepositError::BalanceOverflow => ApplyError::BalanceOverflow,
            // The ledger never checks signatures; unreachable by
            // construction, mapped defensively.
            DepositError::InvalidSignature => ApplyError::UnknownAccount,
        }
    }
}

impl From<EpochNetError> for ApplyError {
    fn from(e: EpochNetError) -> Self {
        match e {
            EpochNetError::UnknownAccount(_) => ApplyError::UnknownAccount,
            EpochNetError::InsufficientFunds(_) => ApplyError::InsufficientFunds,
            EpochNetError::BalanceOverflow(_) => ApplyError::BalanceOverflow,
            EpochNetError::NotZeroSum => ApplyError::NotZeroSum,
        }
    }
}

/// A warm standby that consumes the primary's WAL stream and can take
/// over deterministically after a crash.
///
/// The replica applies intact records incrementally from its byte cursor;
/// because the WAL is append-only and logs only validated operations, a
/// replica fed to offset `c` is *bit-identical* to a primary whose durable
/// log is `c` bytes long — which is exactly the failover guarantee the
/// runner's crash class relies on.
#[derive(Debug, Clone, Default)]
pub struct BankReplica {
    ledger: Ledger,
    cursor: usize,
}

impl BankReplica {
    /// A cold replica (empty ledger, cursor at the log's start).
    #[must_use]
    pub fn new() -> Self {
        BankReplica::default()
    }

    /// A warm replica re-created after a failover: `ledger` is a clone of
    /// the promoted primary's state (WAL detached), `cursor` the byte
    /// length of the log it reflects.
    #[must_use]
    pub fn warm(mut ledger: Ledger, cursor: usize) -> Self {
        ledger.take_wal();
        BankReplica { ledger, cursor }
    }

    /// Applies every intact record between the cursor and the end of
    /// `wal_bytes`, returning how many records were applied. A torn tail
    /// (or a record that fails to apply) leaves the cursor at the last
    /// good boundary; feeding again after the primary repairs or extends
    /// the log resumes from there.
    pub fn feed(&mut self, wal_bytes: &[u8]) -> u64 {
        self.advance(wal_bytes).0
    }

    /// [`BankReplica::feed`], also returning why it stopped short of the
    /// end of `wal_bytes` (`None` = everything past the cursor applied):
    /// a frame defect, or an intact record (numbered from the cursor)
    /// that contradicts the replayed state.
    fn advance(&mut self, wal_bytes: &[u8]) -> (u64, Option<String>) {
        let s = scan(&wal_bytes[self.cursor.min(wal_bytes.len())..]);
        let start = self.cursor;
        let mut applied = 0u64;
        for (i, op) in s.ops.iter().enumerate() {
            if let Err(e) = self.ledger.apply(op) {
                return (applied, Some(format!("record {i} failed to apply: {e:?}")));
            }
            self.cursor = start + s.boundaries[i];
            applied += 1;
        }
        (applied, s.defect.as_ref().map(ToString::to_string))
    }

    /// Byte offset of the log prefix the replica reflects.
    #[must_use]
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// The replica's ledger state.
    #[must_use]
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Promotes the replica: consumes it, returning the ledger (no WAL
    /// attached — the caller re-attaches the recovered log) and the byte
    /// cursor it had caught up to.
    #[must_use]
    pub fn promote(self) -> (Ledger, usize) {
        (self.ledger, self.cursor)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;

    fn serial(tag: u8) -> TokenId {
        TokenId([tag; 32])
    }

    /// A ledger with a WAL attached and a representative mixed workload.
    fn sample() -> Ledger {
        let mut l = Ledger::new();
        l.attach_wal(Wal::new());
        let a = l.open_account(1_000);
        let b = l.open_account(0);
        l.withdraw(a, 200).unwrap();
        l.deposit_serial(b, serial(1), 150).unwrap();
        l.deposit_serial(b, serial(2), 50).unwrap();
        l.transfer(b, a, 30).unwrap();
        let mut net = BTreeMap::new();
        net.insert(a, -25i128);
        net.insert(b, 25i128);
        l.apply_epoch_net(0, &net).unwrap();
        l
    }

    #[test]
    fn conservation_holds_across_a_mixed_workload() {
        let l = sample();
        assert!(l.conservation_holds());
        assert_eq!(l.total_balance(), u128::from(l.total_deposits()));
        assert_eq!(l.outstanding(), 0);
        assert_eq!(l.minted(), 1_000);
    }

    #[test]
    fn recover_reproduces_the_exact_state() {
        let l = sample();
        let bytes = l.wal().unwrap().committed_bytes().to_vec();
        let (r, report) = Ledger::recover(&bytes);
        assert!(report.is_clean());
        assert_eq!(report.records_replayed, 7);
        assert_eq!(r.digest(), l.digest());
        assert_eq!(r.sorted_accounts(), l.sorted_accounts());
        assert_eq!(r.audit().head(), l.audit().head());
        // The recovered ledger continues the same log.
        assert_eq!(r.wal().unwrap().committed_bytes(), &bytes[..]);
    }

    #[test]
    fn recover_discards_a_torn_tail() {
        let l = sample();
        let mut bytes = l.wal().unwrap().committed_bytes().to_vec();
        let full = bytes.len();
        bytes.truncate(full - 5);
        let (r, report) = Ledger::recover(&bytes);
        assert!(!report.is_clean());
        assert_eq!(report.records_replayed, 6, "final record torn");
        assert_eq!(report.bytes_replayed + report.torn_bytes, bytes.len());
        assert!(r.conservation_holds());
    }

    #[test]
    fn recover_rejects_a_spliced_duplicate_record() {
        // Frame-intact corruption: duplicate the deposit of serial(1).
        // Checksums pass, but replay hits a double spend — recovery must
        // cut the prefix there, not panic or apply it.
        let l = sample();
        let bytes = l.wal().unwrap().committed_bytes();
        let s = scan(bytes);
        let dep_end = s.boundaries[3]; // records 0..=3 end (deposit #1)
        let dep_start = s.boundaries[2];
        let mut spliced = bytes[..dep_end].to_vec();
        spliced.extend_from_slice(&bytes[dep_start..dep_end]);
        let (r, report) = Ledger::recover(&spliced);
        assert_eq!(report.records_replayed, 4);
        assert_eq!(report.bytes_replayed, dep_end);
        assert!(report
            .defect
            .as_deref()
            .unwrap()
            .contains("failed to apply"));
        assert!(r.conservation_holds());
    }

    #[test]
    fn replica_follows_the_stream_and_promotes_identically() {
        let mut l = Ledger::new();
        l.attach_wal(Wal::new());
        let mut replica = BankReplica::new();
        let a = l.open_account(500);
        let b = l.open_account(0);
        replica.feed(l.wal().unwrap().committed_bytes());
        assert_eq!(replica.ledger().digest(), strip_wal(&l).digest());
        l.withdraw(a, 100).unwrap();
        l.deposit_serial(b, serial(9), 100).unwrap();
        let fed = replica.feed(l.wal().unwrap().committed_bytes());
        assert_eq!(fed, 2, "incremental feed applies only new records");
        assert_eq!(replica.cursor(), l.wal().unwrap().committed_len());
        let (promoted, cursor) = replica.promote();
        assert_eq!(promoted.digest(), strip_wal(&l).digest());
        assert_eq!(cursor, l.wal().unwrap().committed_len());
    }

    #[test]
    fn group_commit_keeps_records_out_of_the_durable_image() {
        let mut l = Ledger::new();
        l.attach_wal(Wal::new());
        l.set_group_commit(true);
        l.open_account(10);
        assert_eq!(l.wal().unwrap().committed_len(), 0);
        assert_eq!(l.wal().unwrap().staged_records(), 1);
        assert_eq!(l.commit_wal(), 1);
        let (r, report) = Ledger::recover(l.wal().unwrap().committed_bytes());
        assert!(report.is_clean());
        assert_eq!(r.balance(AccountId(0)), Some(10));
    }

    #[test]
    fn failed_operations_are_never_logged() {
        let mut l = Ledger::new();
        l.attach_wal(Wal::new());
        let a = l.open_account(5);
        let before = l.wal().unwrap().committed_records();
        assert!(l.withdraw(a, 100).is_err());
        assert!(l.transfer(a, AccountId(404), 1).is_err());
        assert!(l.deposit_serial(AccountId(404), serial(3), 1).is_err());
        let mut net = BTreeMap::new();
        net.insert(a, -100i128);
        assert!(l.apply_epoch_net(0, &net).is_err());
        assert_eq!(
            l.wal().unwrap().committed_records(),
            before,
            "validate → log → mutate: failures must leave no record"
        );
    }

    #[test]
    fn an_epoch_net_must_sum_to_zero() {
        let mut l = Ledger::new();
        l.attach_wal(Wal::new());
        let a = l.open_account(100);
        let b = l.open_account(0);
        let c = l.open_account(0);
        let before = l.digest();
        for net in [
            BTreeMap::from([(a, 5i128)]),
            BTreeMap::from([(a, -5), (b, 4)]),
            // Wraps to zero in two's complement; a checked sum overflows.
            BTreeMap::from([(a, i128::MAX), (b, i128::MAX), (c, 2)]),
        ] {
            assert_eq!(l.apply_epoch_net(0, &net), Err(EpochNetError::NotZeroSum));
        }
        assert_eq!(l.digest(), before, "a rejected net leaves no trace");

        // Replay applies the same check: a log that nets value from
        // nowhere stops before that record.
        let mut wal = Wal::new();
        wal.append(&LedgerOp::Open { balance: 100 });
        wal.append(&LedgerOp::EpochNet {
            epoch: 0,
            deltas: BTreeMap::from([(AccountId(0), 5)]),
        });
        let (r, report) = Ledger::recover(wal.committed_bytes());
        assert!(!report.is_clean(), "{report:?}");
        assert_eq!(report.records_replayed, 1);
        assert!(report.defect.unwrap().contains("NotZeroSum"));
        assert_eq!(r.balance(AccountId(0)), Some(100));
        assert!(r.conservation_holds());
    }

    #[test]
    fn a_deposit_must_be_backed_by_a_withdrawal() {
        let mut l = Ledger::new();
        l.attach_wal(Wal::new());
        let a = l.open_account(100);
        l.withdraw(a, 3).unwrap();
        let before = l.digest();
        assert_eq!(
            l.deposit_serial(a, serial(5), 5),
            Err(DepositError::ExceedsOutstanding)
        );
        assert_eq!(l.digest(), before, "a rejected deposit leaves no trace");
        l.deposit_serial(a, serial(5), 3).unwrap();
        assert_eq!(l.outstanding(), 0);

        // Replay applies the same check: a log that deposits a token no
        // one withdrew stops before that record.
        let mut wal = Wal::new();
        wal.append(&LedgerOp::Open { balance: 100 });
        wal.append(&LedgerOp::Deposit {
            account: AccountId(0),
            serial: serial(5),
            value: 5,
        });
        let (r, report) = Ledger::recover(wal.committed_bytes());
        assert!(!report.is_clean(), "{report:?}");
        assert_eq!(report.records_replayed, 1);
        assert!(report.defect.unwrap().contains("ExceedsOutstanding"));
        assert_eq!(r.balance(AccountId(0)), Some(100));
        assert!(r.conservation_holds());
    }

    #[test]
    fn a_credit_must_not_overflow() {
        let full = u64::MAX;
        let mut l = Ledger::new();
        l.attach_wal(Wal::new());
        let a = l.open_account(full);
        let b = l.open_account(full);
        l.withdraw(a, 10).unwrap();
        let before = l.digest();
        assert_eq!(
            l.deposit_serial(b, serial(1), 10),
            Err(DepositError::BalanceOverflow)
        );
        assert_eq!(l.transfer(a, b, 1), Err(WithdrawError::BalanceOverflow));
        assert_eq!(l.withdraw(b, full), Err(WithdrawError::BalanceOverflow));
        assert_eq!(l.digest(), before, "a rejected credit leaves no trace");
        // A full account may still pay itself.
        l.transfer(b, b, full).unwrap();
        assert_eq!(l.balance(b), Some(full));

        // Replay applies the same checks: a log whose credit would wrap
        // stops before that record, with a typed error, not a panic or a
        // wrapped balance.
        let prefix = [
            LedgerOp::Open { balance: full },
            LedgerOp::Open { balance: full },
            LedgerOp::Withdraw {
                account: AccountId(0),
                value: 10,
            },
        ];
        for overflowing in [
            LedgerOp::Deposit {
                account: AccountId(1),
                serial: serial(1),
                value: 10,
            },
            LedgerOp::Transfer {
                from: AccountId(0),
                to: AccountId(1),
                amount: 1,
            },
            LedgerOp::Withdraw {
                account: AccountId(1),
                value: full,
            },
        ] {
            let mut wal = Wal::new();
            let mut replayed = Ledger::new();
            for op in &prefix {
                wal.append(op);
                replayed.apply(op).unwrap();
            }
            wal.append(&overflowing);
            assert_eq!(
                replayed.apply(&overflowing),
                Err(ApplyError::BalanceOverflow),
                "{overflowing:?}"
            );
            let (r, report) = Ledger::recover(wal.committed_bytes());
            assert!(!report.is_clean(), "{report:?}");
            assert_eq!(report.records_replayed, 3);
            assert!(report.defect.unwrap().contains("BalanceOverflow"));
            assert_eq!(r.balance(AccountId(1)), Some(full));
            assert!(r.conservation_holds());
        }
    }

    #[test]
    fn digest_tracks_every_state_component() {
        let base = sample().digest();
        let mut l2 = sample();
        l2.open_account(0);
        assert_ne!(l2.digest(), base, "accounts move the digest");
        let mut l3 = sample();
        let a0 = AccountId(0);
        l3.withdraw(a0, 1).unwrap();
        assert_ne!(l3.digest(), base, "outstanding moves the digest");
    }

    /// Clone without the WAL (digest ignores the WAL, but replica ledgers
    /// never carry one — keep comparisons honest).
    fn strip_wal(l: &Ledger) -> Ledger {
        let mut c = l.clone();
        c.take_wal();
        c
    }
}
