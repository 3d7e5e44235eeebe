//! Tamper-evident audit log for the bank.
//!
//! The paper's payment system must "handle typical scenarios of cheating
//! and malicious attacks" — and disputes need evidence. The bank keeps an
//! append-only log of every balance-affecting operation, hash-chained
//! (each entry commits to its predecessor via SHA-256), so after the fact
//! any party holding the log can verify that no entry was altered,
//! reordered or dropped. An entry holds the [`LedgerOp`] the ledger
//! applied, and its hash covers the op's WAL payload — the bytes the
//! write-ahead log frames — so one encoding of each op feeds both logs.
//! Token serials appear at deposit (where the bank legitimately sees
//! them), and withdrawals record only amounts — the unlinkability of
//! blind signatures is preserved.

use idpa_crypto::sha256::Sha256;

use crate::bank::AccountId;
use crate::wal::LedgerOp;

/// One chained log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEntry {
    /// Sequence number (0-based); on a ledger whose WAL was attached from
    /// the start it is also the op's WAL record index.
    pub seq: u64,
    /// The applied operation.
    pub op: LedgerOp,
    /// `SHA-256(prev_hash ‖ seq ‖ op payload)`.
    pub hash: [u8; 32],
}

/// The append-only, hash-chained audit log.
#[derive(Debug, Clone, Default)]
pub struct AuditLog {
    entries: Vec<AuditEntry>,
    /// Encoding buffer reused by [`AuditLog::append`].
    scratch: Vec<u8>,
}

/// The genesis "previous hash" of an empty chain.
const GENESIS: [u8; 32] = [0u8; 32];

fn chain_hash(prev: &[u8; 32], seq: u64, payload: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(prev);
    h.update(&seq.to_be_bytes());
    h.update(payload);
    h.finalize()
}

impl AuditLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        AuditLog::default()
    }

    /// Reconstructs a log from entries read back from untrusted storage.
    /// No recomputation happens here — call [`AuditLog::verify`] to check
    /// the chain; this constructor exists precisely so that auditors (and
    /// property tests) can load a possibly tampered log and interrogate it.
    #[must_use]
    pub fn from_entries(entries: Vec<AuditEntry>) -> Self {
        AuditLog {
            entries,
            scratch: Vec::new(),
        }
    }

    /// Appends an op, extending the hash chain.
    pub fn append(&mut self, op: LedgerOp) {
        let mut payload = std::mem::take(&mut self.scratch);
        op.encode_payload_onto(&mut payload);
        self.push(op, &payload);
        self.scratch = payload;
    }

    /// [`AuditLog::append`] for an op whose payload is already encoded
    /// (the ledger hashes the bytes it just framed into the WAL).
    pub(crate) fn push(&mut self, op: LedgerOp, payload: &[u8]) {
        let seq = self.entries.len() as u64;
        let hash = chain_hash(&self.head(), seq, payload);
        self.entries.push(AuditEntry { seq, op, hash });
    }

    /// The entries, oldest first.
    #[must_use]
    pub fn entries(&self) -> &[AuditEntry] {
        &self.entries
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The chain head (commitment to the entire history).
    #[must_use]
    pub fn head(&self) -> [u8; 32] {
        self.entries.last().map_or(GENESIS, |e| e.hash)
    }

    /// Verifies the whole chain; returns the index of the first corrupt
    /// entry, or `Ok(())`.
    pub fn verify(&self) -> Result<(), usize> {
        let mut prev = GENESIS;
        let mut payload = Vec::new();
        for (i, entry) in self.entries.iter().enumerate() {
            if entry.seq != i as u64 {
                return Err(i);
            }
            entry.op.encode_payload_onto(&mut payload);
            let expect = chain_hash(&prev, entry.seq, &payload);
            if expect != entry.hash {
                return Err(i);
            }
            prev = entry.hash;
        }
        Ok(())
    }

    /// End-of-run chain assertion: `true` iff the whole hash chain
    /// verifies. Every experiment/example run asserts this before
    /// reporting results; use [`AuditLog::verify`] when the index of the
    /// first corrupt entry is needed.
    #[must_use]
    pub fn verify_chain(&self) -> bool {
        self.verify().is_ok()
    }

    /// Net balance delta of `account` according to the log — the replay
    /// check used to audit the ledger. An `Open` carries no id: ids are
    /// sequential, so the k-th `Open` in the log opened account k.
    #[must_use]
    pub fn replay_balance(&self, account: AccountId) -> i128 {
        let mut bal: i128 = 0;
        let mut opened = 0u64;
        for e in &self.entries {
            match &e.op {
                LedgerOp::Open { balance } => {
                    if AccountId(opened) == account {
                        bal += i128::from(*balance);
                    }
                    opened += 1;
                }
                LedgerOp::Withdraw { account: a, value } if *a == account => {
                    bal -= i128::from(*value);
                }
                LedgerOp::Deposit {
                    account: a, value, ..
                } if *a == account => {
                    bal += i128::from(*value);
                }
                LedgerOp::Transfer { from, to, amount } => {
                    if *from == account {
                        bal -= i128::from(*amount);
                    }
                    if *to == account {
                        bal += i128::from(*amount);
                    }
                }
                LedgerOp::EpochNet { deltas, .. } => {
                    bal += deltas.get(&account).copied().unwrap_or(0);
                }
                _ => {}
            }
        }
        bal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenId;
    use std::collections::BTreeMap;

    fn sample_log() -> AuditLog {
        let mut log = AuditLog::new();
        log.append(LedgerOp::Open { balance: 100 });
        log.append(LedgerOp::Withdraw {
            account: AccountId(0),
            value: 30,
        });
        log.append(LedgerOp::Deposit {
            account: AccountId(1),
            serial: TokenId(*b"serial00serial00serial00serial00"),
            value: 30,
        });
        log.append(LedgerOp::Transfer {
            from: AccountId(1),
            to: AccountId(0),
            amount: 10,
        });
        log
    }

    #[test]
    fn clean_chain_verifies() {
        assert_eq!(sample_log().verify(), Ok(()));
    }

    #[test]
    fn tampered_event_detected() {
        let mut log = sample_log();
        if let LedgerOp::Withdraw { value, .. } = &mut log.entries[1].op {
            *value = 3; // shave the withdrawal
        }
        assert_eq!(log.verify(), Err(1));
    }

    #[test]
    fn dropped_entry_detected() {
        let mut log = sample_log();
        log.entries.remove(1);
        assert!(log.verify().is_err());
    }

    #[test]
    fn reordered_entries_detected() {
        let mut log = sample_log();
        log.entries.swap(1, 2);
        assert!(log.verify().is_err());
    }

    #[test]
    fn recomputed_hash_after_tamper_still_detected_downstream() {
        // An attacker who rewrites an op AND its hash breaks the link to
        // the next entry.
        let mut log = sample_log();
        if let LedgerOp::Withdraw { value, .. } = &mut log.entries[1].op {
            *value = 3;
        }
        let prev = log.entries[0].hash;
        let mut payload = Vec::new();
        log.entries[1].op.encode_payload_onto(&mut payload);
        log.entries[1].hash = chain_hash(&prev, 1, &payload);
        assert_eq!(log.verify(), Err(2), "next link must fail");
    }

    #[test]
    fn head_commits_to_history() {
        let a = sample_log();
        let mut b = sample_log();
        assert_eq!(a.head(), b.head());
        b.append(LedgerOp::Open { balance: 0 });
        assert_ne!(a.head(), b.head());
    }

    #[test]
    fn replay_balance_reconstructs_ledger() {
        let log = sample_log();
        // Account 0: +100 - 30 + 10 = 80 ; account 1: +30 - 10 = 20.
        assert_eq!(log.replay_balance(AccountId(0)), 80);
        assert_eq!(log.replay_balance(AccountId(1)), 20);
        assert_eq!(log.replay_balance(AccountId(42)), 0);
    }

    #[test]
    fn epoch_net_entries_chain_and_replay_as_signed_deltas() {
        let mut log = sample_log();
        let mut deltas = BTreeMap::new();
        deltas.insert(AccountId(0), -25i128);
        deltas.insert(AccountId(1), 25i128);
        log.append(LedgerOp::EpochNet { epoch: 3, deltas });
        assert_eq!(log.verify(), Ok(()));
        // Account 0: 80 - 25 = 55 ; account 1: 20 + 25 = 45.
        assert_eq!(log.replay_balance(AccountId(0)), 55);
        assert_eq!(log.replay_balance(AccountId(1)), 45);
        let mut t = log.clone();
        if let LedgerOp::EpochNet { deltas, .. } = &mut t.entries[4].op {
            deltas.insert(AccountId(0), -5); // understate the debit
        }
        assert_eq!(t.verify(), Err(4));
    }

    #[test]
    fn from_entries_round_trips_and_preserves_tampering() {
        let log = sample_log();
        let reloaded = AuditLog::from_entries(log.entries().to_vec());
        assert_eq!(reloaded.verify(), Ok(()));
        assert_eq!(reloaded.head(), log.head());

        let mut entries = log.entries().to_vec();
        entries[2].hash[0] ^= 1;
        let tampered = AuditLog::from_entries(entries);
        assert_eq!(tampered.verify(), Err(2));
    }

    #[test]
    fn empty_log_invariants() {
        let log = AuditLog::new();
        assert!(log.is_empty());
        assert_eq!(log.verify(), Ok(()));
        assert_eq!(log.head(), GENESIS);
    }
}
