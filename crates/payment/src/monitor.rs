//! Runtime invariant monitor for the bank ledger.
//!
//! The monitor is the independent auditor the durable-bank subsystem runs
//! *continuously*: a cheap O(1) check on every WAL flush and a deep check
//! at every settlement and recovery. Each invariant is stated over the
//! [`crate::ledger::Ledger`] + [`crate::AuditLog`] pair, and a violation
//! pinpoints the first audit sequence number at which the books diverge —
//! so seeded corruption is attributed to an operation, not just detected.
//! The chain holds the applied [`LedgerOp`]s themselves, so the walk reads
//! exactly what the WAL holds: full serials and whole epoch nets.
//!
//! Invariants (see DESIGN.md §12 for why each holds on the clean path):
//! 1. **Conservation** — `Σ balances + outstanding == minted`.
//! 2. **No double deposit** — every deposited serial is unique (compared
//!    whole), and the spent set is as large as the chain's deposits.
//! 3. **Audit chain intact** — the SHA-256 hash chain verifies end to end.
//! 4. **Epoch nets sum to zero** — per epoch, the logged deltas cancel.
//! 5. **Replay agreement** — the audit log's replayed balance total
//!    matches the live ledger (catches mutations that skipped the log).

use std::collections::{BTreeMap, HashSet};

use crate::ledger::Ledger;
use crate::token::TokenId;
use crate::wal::LedgerOp;

/// Which invariant a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// Balances + outstanding liability drifted from minted value.
    Conservation,
    /// A serial appears in two deposit ops.
    DoubleDeposit,
    /// The audit hash chain fails to verify.
    AuditChainBroken,
    /// An epoch's net deltas do not sum to zero.
    EpochNetNonZero,
    /// Replaying the audit log disagrees with the live balance total.
    ReplayMismatch,
}

/// One detected invariant violation, attributed where possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The broken invariant.
    pub kind: InvariantKind,
    /// Audit sequence number of the first offending op (its index in the
    /// chain), when the violation is attributable to a specific operation.
    pub audit_seq: Option<u64>,
    /// Human-readable detail for logs and test output.
    pub detail: String,
}

/// Stateless invariant checker with violation/check counters.
#[derive(Debug, Clone, Default)]
pub struct InvariantMonitor {
    checks: u64,
    violations: u64,
}

impl InvariantMonitor {
    /// A fresh monitor.
    #[must_use]
    pub fn new() -> Self {
        InvariantMonitor::default()
    }

    /// Checks run so far (quick + full).
    #[must_use]
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Total violations observed so far.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// The O(1) hot-path check: conservation only. Suitable for every
    /// WAL flush.
    pub fn check_quick(&mut self, ledger: &Ledger) -> Result<(), InvariantViolation> {
        self.checks += 1;
        if ledger.conservation_holds() {
            return Ok(());
        }
        self.violations += 1;
        Err(InvariantViolation {
            kind: InvariantKind::Conservation,
            audit_seq: None,
            detail: format!(
                "balances {} + outstanding {} != minted {}",
                ledger.total_balance(),
                ledger.outstanding(),
                ledger.minted()
            ),
        })
    }

    /// The deep settlement-time check: every invariant, walking the full
    /// audit log. Returns all violations found (empty = clean).
    pub fn check_full(&mut self, ledger: &Ledger) -> Vec<InvariantViolation> {
        self.checks += 1;
        let mut out = Vec::new();

        // 1. Conservation, recomputed from scratch (not the incremental
        // counter — the whole point is an independent second opinion).
        let recomputed: u128 = ledger
            .sorted_accounts()
            .iter()
            .map(|&(_, b)| u128::from(b))
            .sum();
        if recomputed + u128::from(ledger.outstanding()) != ledger.minted() {
            out.push(InvariantViolation {
                kind: InvariantKind::Conservation,
                audit_seq: None,
                detail: format!(
                    "recomputed balances {recomputed} + outstanding {} != minted {}",
                    ledger.outstanding(),
                    ledger.minted()
                ),
            });
        }

        // 3. Audit chain — verify() reports the first bad seq, which IS
        // the injected op on seeded corruption.
        if let Err(seq) = ledger.audit().verify() {
            out.push(InvariantViolation {
                kind: InvariantKind::AuditChainBroken,
                audit_seq: Some(seq as u64),
                detail: format!("hash chain breaks at audit seq {seq}"),
            });
        }

        // 2 + 4 + 5 in one log walk.
        let mut seen_serials: HashSet<TokenId> = HashSet::new();
        let mut epoch_sums: BTreeMap<u64, (i128, u64)> = BTreeMap::new();
        let mut replay_total: i128 = 0;
        for entry in ledger.audit().entries() {
            match &entry.op {
                LedgerOp::Open { balance } => {
                    replay_total += i128::from(*balance);
                }
                LedgerOp::Withdraw { value, .. } => {
                    replay_total -= i128::from(*value);
                }
                LedgerOp::Deposit { serial, value, .. } => {
                    replay_total += i128::from(*value);
                    if !seen_serials.insert(*serial) {
                        out.push(InvariantViolation {
                            kind: InvariantKind::DoubleDeposit,
                            audit_seq: Some(entry.seq),
                            detail: format!("serial {:02x?} deposited twice", serial.0),
                        });
                    }
                }
                LedgerOp::EpochNet { epoch, deltas } => {
                    let sum: i128 = deltas.values().sum();
                    replay_total += sum;
                    let slot = epoch_sums.entry(*epoch).or_insert((0, entry.seq));
                    slot.0 += sum;
                }
                // Transfers move value between accounts (total-neutral).
                LedgerOp::Transfer { .. } => {}
            }
        }
        // Cross-check: the ledger's spent set and the log's deposit ops
        // must agree in count (a deposit that skipped the log, or a log
        // entry without a spent serial, shows up here).
        if seen_serials.len() != ledger.spent_serials() {
            out.push(InvariantViolation {
                kind: InvariantKind::DoubleDeposit,
                audit_seq: None,
                detail: format!(
                    "audit log records {} distinct deposits but ledger spent set has {}",
                    seen_serials.len(),
                    ledger.spent_serials()
                ),
            });
        }
        for (epoch, (sum, first_seq)) in &epoch_sums {
            if *sum != 0 {
                out.push(InvariantViolation {
                    kind: InvariantKind::EpochNetNonZero,
                    audit_seq: Some(*first_seq),
                    detail: format!("epoch {epoch} nets to {sum}, expected 0"),
                });
            }
        }

        // 5. The log's replayed balance total must match the live ledger:
        // a mutation that skipped the log (or a log entry nothing applied)
        // shows up as a drift between the two.
        let live = i128::try_from(ledger.total_balance()).unwrap_or(i128::MAX);
        if replay_total != live {
            out.push(InvariantViolation {
                kind: InvariantKind::ReplayMismatch,
                audit_seq: None,
                detail: format!("audit replay total {replay_total} != live balance total {live}"),
            });
        }

        self.violations += out.len() as u64;
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;
    use crate::audit::{AuditEntry, AuditLog};
    use crate::bank::AccountId;
    use std::collections::BTreeMap as Net;

    fn clean_ledger() -> Ledger {
        let mut l = Ledger::new();
        let a = l.open_account(1_000);
        let b = l.open_account(200);
        l.withdraw(a, 300).unwrap();
        l.deposit_serial(b, TokenId([7; 32]), 300).unwrap();
        let mut net = Net::new();
        net.insert(a, -40i128);
        net.insert(b, 40i128);
        l.apply_epoch_net(3, &net).unwrap();
        l
    }

    #[test]
    fn clean_ledger_passes_all_checks() {
        let l = clean_ledger();
        let mut m = InvariantMonitor::new();
        assert!(m.check_quick(&l).is_ok());
        assert!(m.check_full(&l).is_empty());
        assert_eq!(m.checks(), 2);
        assert_eq!(m.violations(), 0);
    }

    #[test]
    fn tampered_audit_entry_is_pinpointed() {
        let mut l = clean_ledger();
        // Flip the withdraw (seq 2) into a different value: the chain
        // breaks exactly there and the monitor must say so.
        let mut entries = l.audit().entries().to_vec();
        entries[2].op = LedgerOp::Withdraw {
            account: AccountId(0),
            value: 999,
        };
        *l.audit_mut() = AuditLog::from_entries(entries);
        let mut m = InvariantMonitor::new();
        let violations = m.check_full(&l);
        let chain = violations
            .iter()
            .find(|v| v.kind == InvariantKind::AuditChainBroken)
            .expect("chain break detected");
        assert_eq!(chain.audit_seq, Some(2), "pinpoints the injected op");
    }

    #[test]
    fn double_deposit_in_log_is_flagged_at_its_seq() {
        let mut l = clean_ledger();
        let mut entries = l.audit().entries().to_vec();
        // Splice a duplicate of the deposit op (seq 3) at the tail.
        let dup = entries[3].op.clone();
        let seq = entries.len() as u64;
        entries.push(AuditEntry {
            seq,
            op: dup,
            hash: [0; 32],
        });
        *l.audit_mut() = AuditLog::from_entries(entries);
        let mut m = InvariantMonitor::new();
        let violations = m.check_full(&l);
        assert!(violations
            .iter()
            .any(|v| v.kind == InvariantKind::DoubleDeposit && v.audit_seq == Some(seq)));
    }

    #[test]
    fn nonzero_epoch_net_is_flagged() {
        let mut l = clean_ledger();
        let mut entries = l.audit().entries().to_vec();
        let seq = entries.len() as u64;
        entries.push(AuditEntry {
            seq,
            op: LedgerOp::EpochNet {
                epoch: 9,
                deltas: Net::from([(AccountId(0), 17)]),
            },
            hash: [0; 32],
        });
        *l.audit_mut() = AuditLog::from_entries(entries);
        let mut m = InvariantMonitor::new();
        let violations = m.check_full(&l);
        assert!(violations
            .iter()
            .any(|v| v.kind == InvariantKind::EpochNetNonZero && v.audit_seq == Some(seq)));
    }

    #[test]
    fn serials_sharing_a_prefix_are_distinct_deposits() {
        // Two tokens whose serials agree in their first 8 bytes are still
        // two tokens: the monitor compares whole serials.
        let mut l = Ledger::new();
        let a = l.open_account(100);
        l.withdraw(a, 20).unwrap();
        let mut second = [7; 32];
        second[31] = 8;
        l.deposit_serial(a, TokenId([7; 32]), 10).unwrap();
        l.deposit_serial(a, TokenId(second), 10).unwrap();
        let mut m = InvariantMonitor::new();
        assert_eq!(m.check_full(&l), Vec::new());
    }

    #[test]
    fn quick_check_is_conservation_only() {
        let l = clean_ledger();
        let mut m = InvariantMonitor::new();
        for _ in 0..100 {
            assert!(m.check_quick(&l).is_ok());
        }
        assert_eq!(m.checks(), 100);
    }
}
