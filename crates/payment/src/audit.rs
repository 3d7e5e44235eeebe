//! Tamper-evident audit log for the bank.
//!
//! The paper's payment system must "handle typical scenarios of cheating
//! and malicious attacks" — and disputes need evidence. The bank keeps an
//! append-only log of every balance-affecting operation, hash-chained
//! (each entry commits to its predecessor via SHA-256), so after the fact
//! any party holding the log can verify that no entry was altered,
//! reordered or dropped. The log stores *account-level* events only: token
//! serials appear at deposit (where the bank legitimately sees them), and
//! withdrawals record only amounts — the unlinkability of blind signatures
//! is preserved.

use idpa_crypto::sha256::Sha256;

use crate::bank::AccountId;

/// One balance-affecting operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditEvent {
    /// Account opened with an initial balance.
    Open {
        /// The new account.
        account: AccountId,
        /// Opening balance.
        balance: u64,
    },
    /// Blind withdrawal (serial unknown to the bank by design).
    Withdraw {
        /// Debited account.
        account: AccountId,
        /// Face value withdrawn.
        value: u64,
    },
    /// Token deposit (the serial becomes public at spend time).
    Deposit {
        /// Credited account.
        account: AccountId,
        /// Face value deposited.
        value: u64,
        /// First 8 bytes of the token serial (enough to match disputes
        /// without reproducing the full serial in every log copy).
        serial_prefix: [u8; 8],
    },
    /// Ledger transfer (escrow payouts).
    Transfer {
        /// Source account.
        from: AccountId,
        /// Destination account.
        to: AccountId,
        /// Amount moved.
        amount: u64,
    },
    /// Net balance delta applied at an epoch boundary: the one entry that
    /// replaces the per-bundle `Transfer` entries an account accumulated
    /// during the epoch under epoch-batched settlement. Deltas of one
    /// epoch's settlement sum to zero across accounts (transfers only move
    /// value), so conservation survives netting.
    EpochNet {
        /// The settled epoch (0-based).
        epoch: u64,
        /// The account whose epoch activity is being netted.
        account: AccountId,
        /// Net signed delta applied to the balance. `i128` end to end: the
        /// ledger accrues nets in `i128`, so the log must record what was
        /// applied without narrowing (encoded as 16 big-endian bytes).
        delta: i128,
    },
}

impl AuditEvent {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(40);
        match self {
            AuditEvent::Open { account, balance } => {
                out.push(0);
                out.extend_from_slice(&account.0.to_be_bytes());
                out.extend_from_slice(&balance.to_be_bytes());
            }
            AuditEvent::Withdraw { account, value } => {
                out.push(1);
                out.extend_from_slice(&account.0.to_be_bytes());
                out.extend_from_slice(&value.to_be_bytes());
            }
            AuditEvent::Deposit {
                account,
                value,
                serial_prefix,
            } => {
                out.push(2);
                out.extend_from_slice(&account.0.to_be_bytes());
                out.extend_from_slice(&value.to_be_bytes());
                out.extend_from_slice(serial_prefix);
            }
            AuditEvent::Transfer { from, to, amount } => {
                out.push(3);
                out.extend_from_slice(&from.0.to_be_bytes());
                out.extend_from_slice(&to.0.to_be_bytes());
                out.extend_from_slice(&amount.to_be_bytes());
            }
            AuditEvent::EpochNet {
                epoch,
                account,
                delta,
            } => {
                // Tag 4 is retired (a balance-neutral discrepancy record
                // the ledger never wrote); it is not reused.
                out.push(5);
                out.extend_from_slice(&epoch.to_be_bytes());
                out.extend_from_slice(&account.0.to_be_bytes());
                out.extend_from_slice(&delta.to_be_bytes());
            }
        }
        out
    }
}

/// One chained log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEntry {
    /// Sequence number (0-based).
    pub seq: u64,
    /// The event.
    pub event: AuditEvent,
    /// `SHA-256(prev_hash ‖ seq ‖ encode(event))`.
    pub hash: [u8; 32],
}

/// The append-only, hash-chained audit log.
#[derive(Debug, Clone, Default)]
pub struct AuditLog {
    entries: Vec<AuditEntry>,
}

/// The genesis "previous hash" of an empty chain.
const GENESIS: [u8; 32] = [0u8; 32];

fn chain_hash(prev: &[u8; 32], seq: u64, event: &AuditEvent) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(prev);
    h.update(&seq.to_be_bytes());
    h.update(&event.encode());
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
        AuditLog { entries }
    }

    /// Appends an event, extending the hash chain.
    pub fn append(&mut self, event: AuditEvent) {
        let seq = self.entries.len() as u64;
        let prev = self.entries.last().map_or(GENESIS, |e| e.hash);
        let hash = chain_hash(&prev, seq, &event);
        self.entries.push(AuditEntry { seq, event, hash });
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
        for (i, entry) in self.entries.iter().enumerate() {
            if entry.seq != i as u64 {
                return Err(i);
            }
            let expect = chain_hash(&prev, entry.seq, &entry.event);
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
    /// check used to audit the ledger.
    #[must_use]
    pub fn replay_balance(&self, account: AccountId) -> i128 {
        let mut bal: i128 = 0;
        for e in &self.entries {
            match e.event {
                AuditEvent::Open {
                    account: a,
                    balance,
                } if a == account => {
                    bal += i128::from(balance);
                }
                AuditEvent::Withdraw { account: a, value } if a == account => {
                    bal -= i128::from(value);
                }
                AuditEvent::Deposit {
                    account: a, value, ..
                } if a == account => {
                    bal += i128::from(value);
                }
                AuditEvent::Transfer { from, to, amount } => {
                    if from == account {
                        bal -= i128::from(amount);
                    }
                    if to == account {
                        bal += i128::from(amount);
                    }
                }
                AuditEvent::EpochNet {
                    account: a, delta, ..
                } if a == account => {
                    bal += delta;
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

    fn sample_log() -> AuditLog {
        let mut log = AuditLog::new();
        log.append(AuditEvent::Open {
            account: AccountId(0),
            balance: 100,
        });
        log.append(AuditEvent::Withdraw {
            account: AccountId(0),
            value: 30,
        });
        log.append(AuditEvent::Deposit {
            account: AccountId(1),
            value: 30,
            serial_prefix: *b"serial00",
        });
        log.append(AuditEvent::Transfer {
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
        if let AuditEvent::Withdraw { value, .. } = &mut log.entries[1].event {
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
        // An attacker who rewrites an event AND its hash breaks the link
        // to the next entry.
        let mut log = sample_log();
        if let AuditEvent::Withdraw { value, .. } = &mut log.entries[1].event {
            *value = 3;
        }
        let prev = log.entries[0].hash;
        log.entries[1].hash = chain_hash(&prev, 1, &log.entries[1].event);
        assert_eq!(log.verify(), Err(2), "next link must fail");
    }

    #[test]
    fn head_commits_to_history() {
        let a = sample_log();
        let mut b = sample_log();
        assert_eq!(a.head(), b.head());
        b.append(AuditEvent::Open {
            account: AccountId(9),
            balance: 0,
        });
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
        log.append(AuditEvent::EpochNet {
            epoch: 3,
            account: AccountId(0),
            delta: -25,
        });
        log.append(AuditEvent::EpochNet {
            epoch: 3,
            account: AccountId(1),
            delta: 25,
        });
        assert_eq!(log.verify(), Ok(()));
        // Account 0: 80 - 25 = 55 ; account 1: 20 + 25 = 45.
        assert_eq!(log.replay_balance(AccountId(0)), 55);
        assert_eq!(log.replay_balance(AccountId(1)), 45);
        let mut t = log.clone();
        if let AuditEvent::EpochNet { delta, .. } = &mut t.entries[4].event {
            *delta = -5; // understate the debit
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
