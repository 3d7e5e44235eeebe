//! Durable-bank layer: a WAL-backed settlement ledger with a warm replica.
//!
//! When `--bank-durability wal` is on, the run maintains a real
//! [`Ledger`] that mirrors the settlement flow: every settlement window
//! the validators close becomes one write-ahead-logged flush
//! ([`BankDurabilityState::settle`]: escrow-to-forwarder transfers for a
//! per-bundle window, one netted [`LedgerOp::EpochNet`] for an epoch
//! window, plus withdraw/deposit pairs modelling receipt clearing). A
//! [`BankReplica`] continuously consumes the committed log, so when the fault plan's
//! bank-crash class kills the primary mid-flush the replica takes over
//! from the exact durable prefix — and because the settlement layer
//! re-submits every unacknowledged operation after failover, a run that
//! crashes anywhere finishes with the same WAL bytes and the same ledger
//! digest as a run that never crashed. Only the recovery *counters*
//! (crashes, torn tails, records replayed) differ, and those are excluded
//! from result fingerprints.
//!
//! The [`InvariantMonitor`] rides along: an O(1) conservation check after
//! every flush, a full sweep (audit chain, double deposits, epoch-net
//! zero-sums, balance replay) at every failover and at the end of the run.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use idpa_desim::fault::{BankCrashDraw, FaultPlan};
use idpa_payment::{AccountId, BankReplica, InvariantMonitor, Ledger, LedgerOp, TokenId, Wal};

use crate::error::SimError;

/// The escrow account all payouts are drawn from. Opened first, so it is
/// always ledger account 0.
const ESCROW: AccountId = AccountId(0);

/// Escrow opening balance: large enough that no realistic run drains it
/// (payout units are receipt counts, bounded by the workload size).
const ESCROW_FUND: u64 = 1 << 40;

/// Flushes a run may make: [`clearing_serial`] keeps the flush position in
/// 40 bits.
const MAX_FLUSHES: u64 = 1 << 40;

/// Receipts cleared per synthetic withdraw/deposit pair (mirrors the
/// epoch-settlement batch size used for `batch_ops` accounting).
const CLEARING_BATCH: u64 = 1024;

/// Mutable counters of the durability layer — everything that may differ
/// between a crashing and a non-crashing run (and is therefore excluded
/// from result fingerprints).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DurabilityCounters {
    /// Seeded bank crashes injected by the fault plan.
    pub(crate) crashes: u64,
    /// Crashes that left a torn (partially written) final record.
    pub(crate) torn_tails: u64,
    /// WAL records the replica replayed while taking over at a failover.
    pub(crate) records_replayed: u64,
    /// Invariant-monitor checks executed (quick + full).
    pub(crate) monitor_checks: u64,
    /// Invariant violations detected (always 0 on a healthy run).
    pub(crate) monitor_violations: u64,
}

/// End-of-run summary handed to [`RunResult`](crate::runner::RunResult).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DurabilityOutcome {
    /// Durably committed WAL records.
    pub(crate) wal_records: u64,
    /// Durably committed WAL bytes.
    pub(crate) wal_bytes: u64,
    /// Order-independent digest of the final ledger state.
    pub(crate) ledger_digest: u64,
    /// Whether the bank's audit hash chain verified end-to-end.
    pub(crate) audit_ok: bool,
    /// The run's durability counters.
    pub(crate) counters: DurabilityCounters,
}

/// The durable bank: primary ledger (WAL attached), warm replica, and
/// the node-to-account mapping the settlement flow builds lazily.
pub(crate) struct BankDurabilityState {
    primary: Ledger,
    replica: BankReplica,
    /// Simulation node index → ledger account, in order of first payout.
    node_accounts: BTreeMap<u64, AccountId>,
    /// Epoch mode: stage every boundary's operations, commit as one group.
    group_commit: bool,
    /// Flush sequence number — the position key for crash draws and
    /// clearing serials, monotone across the whole run (survives resume).
    flushes: u64,
    counters: DurabilityCounters,
}

impl BankDurabilityState {
    /// A fresh durable bank: empty WAL, funded escrow, warm replica.
    pub(crate) fn new(group_commit: bool) -> Self {
        let mut primary = Ledger::new();
        primary.attach_wal(Wal::new());
        primary.set_group_commit(group_commit);
        let escrow = primary.open_account(ESCROW_FUND);
        debug_assert_eq!(escrow, ESCROW);
        if group_commit {
            primary.commit_wal();
        }
        let replica = Self::warm_replica(&primary);
        BankDurabilityState {
            primary,
            replica,
            node_accounts: BTreeMap::new(),
            group_commit,
            flushes: 0,
            counters: DurabilityCounters::default(),
        }
    }

    /// Rebuilds the durable bank from snapshot parts: the ledger is
    /// recovered from the persisted WAL image (exercising the same code
    /// path as crash recovery), the replica re-warmed at its tail.
    ///
    /// A snapshot only ever carries a WAL image that scans clean, an
    /// account map of distinct, open, non-escrow accounts, a flush counter
    /// in range and past every flush the log has cleared receipts in (a
    /// lower one would reuse a clearing serial), and a ledger that passes
    /// the full invariant sweep; anything else is rejected here, before
    /// the resumed run could trip over it.
    pub(crate) fn restore(
        wal_bytes: &[u8],
        node_accounts: BTreeMap<u64, AccountId>,
        group_commit: bool,
        flushes: u64,
        counters: DurabilityCounters,
    ) -> Result<Self, SimError> {
        let invalid = |what| Err(SimError::SnapshotMismatch { what });
        let (mut primary, report) = Ledger::recover(wal_bytes);
        if !report.is_clean() {
            return invalid("bank WAL image");
        }
        let mut seen = BTreeSet::new();
        for &acct in node_accounts.values() {
            if acct == ESCROW || !primary.has_account(acct) || !seen.insert(acct) {
                return invalid("bank account map");
            }
        }
        let cleared = primary.audit().entries().iter().any(|entry| {
            matches!(&entry.op, LedgerOp::Deposit { serial, .. }
                if clearing_flush(serial) >= flushes)
        });
        if cleared || flushes >= MAX_FLUSHES {
            return invalid("bank flush counter");
        }
        if !InvariantMonitor::new().check_full(&primary).is_empty() {
            return invalid("bank ledger invariants");
        }
        primary.set_group_commit(group_commit);
        let replica = Self::warm_replica(&primary);
        Ok(BankDurabilityState {
            primary,
            replica,
            node_accounts,
            group_commit,
            flushes,
            counters,
        })
    }

    /// A replica bit-identical to the primary, cursored at the WAL tail.
    /// Valid only between flushes (no staged operations outstanding).
    fn warm_replica(primary: &Ledger) -> BankReplica {
        let cursor = primary.wal().map_or(0, Wal::committed_len);
        BankReplica::warm(primary.clone(), cursor)
    }

    /// Settles one closed window as one flush: `paid` maps each node to
    /// its payable receipt count, `receipts` is the window's total.
    /// `epoch` names an epoch window, whose payouts net into one
    /// [`LedgerOp::EpochNet`]; a per-bundle window (`None`) pays each
    /// forwarder with its own transfer.
    pub(crate) fn settle(
        &mut self,
        paid: &BTreeMap<u64, u64>,
        receipts: u64,
        epoch: Option<u64>,
        plan: &FaultPlan,
    ) {
        let ops = self.build_ops(paid, receipts, epoch);
        self.flush(ops, plan);
    }

    /// Builds the ledger operations one settlement action commits: account
    /// opens for first-seen forwarders, payouts (transfers or one netted
    /// epoch record), and withdraw/deposit pairs clearing the receipts
    /// through the bearer-token path.
    fn build_ops(
        &mut self,
        paid: &BTreeMap<u64, u64>,
        receipts: u64,
        epoch: Option<u64>,
    ) -> Vec<LedgerOp> {
        let mut ops = Vec::new();
        let mut next = self.primary.accounts_len() as u64;
        for &node in paid.keys() {
            if let Entry::Vacant(slot) = self.node_accounts.entry(node) {
                slot.insert(AccountId(next));
                next += 1;
                ops.push(LedgerOp::Open { balance: 0 });
            }
        }
        let total: u64 = paid.values().sum();
        match epoch {
            None => {
                for (node, count) in paid {
                    if *count == 0 {
                        continue;
                    }
                    ops.push(LedgerOp::Transfer {
                        from: ESCROW,
                        to: self.node_accounts[node],
                        amount: *count,
                    });
                }
            }
            Some(e) if total > 0 => {
                let mut deltas: BTreeMap<AccountId, i128> = BTreeMap::new();
                for (node, count) in paid {
                    if *count == 0 {
                        continue;
                    }
                    deltas.insert(self.node_accounts[node], i128::from(*count));
                }
                deltas.insert(ESCROW, -i128::from(total));
                ops.push(LedgerOp::EpochNet { epoch: e, deltas });
            }
            Some(_) => {}
        }
        let mut remaining = receipts;
        let mut chunk = 0u64;
        while remaining > 0 {
            let take = remaining.min(CLEARING_BATCH);
            ops.push(LedgerOp::Withdraw {
                account: ESCROW,
                value: take,
            });
            ops.push(LedgerOp::Deposit {
                account: ESCROW,
                serial: clearing_serial(self.flushes, chunk),
                value: take,
            });
            remaining -= take;
            chunk += 1;
        }
        ops
    }

    /// Applies one settlement action's operations through the WAL, drawing
    /// a seeded crash for this flush position. On a crash the replica
    /// takes over from the durable prefix and every unacknowledged
    /// operation is re-submitted, so the post-flush state is identical
    /// whether or not the crash fired.
    fn flush(&mut self, ops: Vec<LedgerOp>, plan: &FaultPlan) {
        if ops.is_empty() {
            return;
        }
        let crash = plan.bank_crash(self.flushes);
        let crash_at = crash.map(|d| usize::try_from(d.u_pos % ops.len() as u64).unwrap_or(0));
        let mut crashed = false;
        let mut i = 0;
        while i < ops.len() {
            if !crashed && crash_at == Some(i) {
                crashed = true;
                let draw = crash.expect("crash_at implies a draw");
                self.crash_and_failover(&ops[i], draw);
                if self.group_commit {
                    // The whole group was staged, not committed: the crash
                    // lost it all, so the boundary re-submits from the top.
                    i = 0;
                }
                continue;
            }
            self.primary
                .apply(&ops[i])
                .expect("durability-layer operations are pre-validated");
            i += 1;
        }
        if self.group_commit {
            self.primary.commit_wal();
        }
        if let Some(wal) = self.primary.wal() {
            // Keep the replica warm: stream the newly committed suffix.
            self.replica.feed(wal.committed_bytes());
        }
        self.counters.monitor_checks += 1;
        if InvariantMonitor::new().check_quick(&self.primary).is_err() {
            self.counters.monitor_violations += 1;
        }
        self.flushes += 1;
    }

    /// The seeded crash: the primary dies while `in_flight` is being
    /// logged (optionally tearing a partial record onto the durable
    /// image), the replica replays the intact prefix and is promoted.
    fn crash_and_failover(&mut self, in_flight: &LedgerOp, draw: BankCrashDraw) {
        self.counters.crashes += 1;
        let mut wal = self
            .primary
            .take_wal()
            .expect("durable bank always has a WAL attached");
        // A crash loses the in-memory group buffer.
        wal.discard_staged();
        if draw.torn {
            let record = in_flight.encode_record();
            let frag_len =
                1 + usize::try_from(draw.u_tear % (record.len() as u64 - 1)).unwrap_or(0);
            wal.append_torn(&record[..frag_len]);
            self.counters.torn_tails += 1;
        }
        // Failover: the warm replica consumes the durable image up to the
        // torn tail, then takes over as primary.
        self.counters.records_replayed += self.replica.feed(wal.committed_bytes());
        let old = std::mem::replace(&mut self.replica, BankReplica::new());
        let (mut promoted, cursor) = old.promote();
        wal.truncate(cursor);
        promoted.attach_wal(wal);
        promoted.set_group_commit(self.group_commit);
        self.primary = promoted;
        self.replica = Self::warm_replica(&self.primary);
        self.full_check();
    }

    /// Full invariant sweep (conservation, audit chain, double deposits,
    /// epoch zero-sums, balance replay) against the current primary.
    fn full_check(&mut self) {
        self.counters.monitor_checks += 1;
        let violations = InvariantMonitor::new().check_full(&self.primary);
        self.counters.monitor_violations += violations.len() as u64;
        debug_assert!(
            violations.is_empty(),
            "invariant violations: {violations:?}"
        );
    }

    /// Snapshot export: the durable WAL image plus the mutable state the
    /// log alone cannot reproduce.
    pub(crate) fn snapshot_parts(
        &self,
    ) -> (&[u8], &BTreeMap<u64, AccountId>, u64, DurabilityCounters) {
        let bytes = self.primary.wal().map_or(&[][..], Wal::committed_bytes);
        (bytes, &self.node_accounts, self.flushes, self.counters)
    }

    /// End-of-run summary: final full sweep, replica/primary agreement
    /// check, audit-chain verification, WAL accounting.
    pub(crate) fn finalize(&mut self) -> DurabilityOutcome {
        self.full_check();
        if let Some(wal) = self.primary.wal() {
            self.replica.feed(wal.committed_bytes());
        }
        let diverged = self.replica.ledger().digest() != self.primary.digest();
        if diverged {
            self.counters.monitor_violations += 1;
        }
        debug_assert!(!diverged, "warm replica diverged from the primary ledger");
        let audit_ok = self.primary.audit().verify_chain();
        let (wal_records, wal_bytes) = self.primary.wal().map_or((0, 0), |w| {
            (w.committed_records(), w.committed_len() as u64)
        });
        DurabilityOutcome {
            wal_records,
            wal_bytes,
            ledger_digest: self.primary.digest(),
            audit_ok,
            counters: self.counters,
        }
    }
}

/// Deterministic serial for a clearing deposit, tagged so it can never
/// collide with protocol token serials. Its first 8 bytes carry the
/// (flush, chunk) position as `flush << 24 | chunk`: unique while one
/// flush clears fewer than 2^24 chunks and a run stays under 2^40 flushes.
/// The layout is part of every pinned WAL byte, so it stays as it is.
fn clearing_serial(flush: u64, chunk: u64) -> TokenId {
    debug_assert!(
        chunk < 1 << 24 && flush < MAX_FLUSHES,
        "clearing serial overflow"
    );
    let mut id = [0u8; 32];
    id[..8].copy_from_slice(&(flush << 24 | chunk).to_le_bytes());
    id[16] = 0xEE;
    TokenId(id)
}

/// The flush a [`clearing_serial`] was issued in, read from the serial's
/// first 8 bytes.
fn clearing_flush(serial: &TokenId) -> u64 {
    let mut position = [0u8; 8];
    position.copy_from_slice(&serial.0[..8]);
    u64::from_le_bytes(position) >> 24
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;
    use idpa_desim::fault::FaultConfig;
    use idpa_desim::rng::StreamFactory;

    fn plan(crash_rate: f64) -> FaultPlan {
        let cfg = FaultConfig {
            bank_crash_rate: crash_rate,
            bank_crash_torn_share: 0.5,
            ..FaultConfig::default()
        };
        FaultPlan::new(cfg, StreamFactory::new(0xD1CE), 64, 1_000.0)
    }

    fn paid(counts: &[(u64, u64)]) -> (BTreeMap<u64, u64>, u64) {
        (
            counts.iter().copied().collect(),
            counts.iter().map(|c| c.1).sum(),
        )
    }

    #[test]
    fn per_bundle_settlement_is_logged_and_conserves_value() {
        let p = plan(0.0);
        let mut bank = BankDurabilityState::new(false);
        for counts in [&[(3, 5), (7, 2)][..], &[(3, 4)]] {
            let (paid, receipts) = paid(counts);
            bank.settle(&paid, receipts, None, &p);
        }
        let out = bank.finalize();
        assert!(out.audit_ok);
        assert_eq!(out.counters.monitor_violations, 0);
        // 2 opens + 3 transfers + 2 withdraw/deposit clearing pairs.
        assert_eq!(out.wal_records, 1 + 2 + 3 + 4);
    }

    #[test]
    fn one_flush_clearing_many_chunks_stays_clean() {
        // 3000 receipts clear in three chunks of one flush; each chunk's
        // deposit needs its own serial or the monitor sees a double deposit.
        let mut bank = BankDurabilityState::new(true);
        let paid: BTreeMap<u64, u64> = [(3, 2000), (7, 1000)].into();
        bank.settle(&paid, 3000, Some(0), &plan(0.0));
        bank.settle(&paid, 3000, Some(1), &plan(0.0));
        let out = bank.finalize();
        assert_eq!(out.counters.monitor_violations, 0);
        assert!(out.audit_ok);
    }

    #[test]
    fn clearing_serials_are_distinct_and_name_their_flush() {
        let mut seen = std::collections::HashSet::new();
        for flush in [0u64, 1, 2, 1 << 20] {
            for chunk in [0u64, 1, 2, 1 << 20] {
                let serial = clearing_serial(flush, chunk);
                assert_eq!(serial.0[16], 0xEE, "tag kept");
                assert!(seen.insert(serial.0[..8].to_vec()), "({flush}, {chunk})");
                assert_eq!(clearing_flush(&serial), flush);
            }
        }
    }

    #[test]
    fn crash_anywhere_matches_the_crash_free_run() {
        let calm = plan(0.0);
        let stormy = plan(1.0); // crash at every flush
        let mut a = BankDurabilityState::new(true);
        let mut b = BankDurabilityState::new(true);
        for round in 0..20u64 {
            let (paid, receipts) = paid(&[(round % 5, 3 + round % 4), (9, 1)]);
            a.settle(&paid, receipts, Some(round), &calm);
            b.settle(&paid, receipts, Some(round), &stormy);
        }
        let (oa, ob) = (a.finalize(), b.finalize());
        assert!(ob.counters.crashes > 0, "crash class never fired");
        assert_eq!(oa.ledger_digest, ob.ledger_digest);
        assert_eq!(oa.wal_records, ob.wal_records);
        assert_eq!(oa.wal_bytes, ob.wal_bytes);
        assert_eq!(ob.counters.monitor_violations, 0);
        assert!(ob.audit_ok);
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let p = plan(0.35);
        let mut full = BankDurabilityState::new(false);
        let mut front = BankDurabilityState::new(false);
        for round in 0..12u64 {
            let (paid, receipts) = paid(&[(round % 3, 2 + round % 5)]);
            full.settle(&paid, receipts, None, &p);
            if round < 6 {
                front.settle(&paid, receipts, None, &p);
            }
        }
        let (bytes, accounts, flushes, counters) = front.snapshot_parts();
        let mut resumed =
            BankDurabilityState::restore(bytes, accounts.clone(), false, flushes, counters)
                .unwrap();
        let p2 = plan(0.35);
        for round in 6..12u64 {
            let (paid, receipts) = paid(&[(round % 3, 2 + round % 5)]);
            resumed.settle(&paid, receipts, None, &p2);
        }
        let (of, or) = (full.finalize(), resumed.finalize());
        assert_eq!(of.ledger_digest, or.ledger_digest);
        assert_eq!(of.wal_records, or.wal_records);
        assert_eq!(of.counters.crashes, or.counters.crashes);
    }

    #[test]
    fn restore_rejects_a_defective_image_or_account_map() {
        let p = plan(0.0);
        let mut bank = BankDurabilityState::new(false);
        let (paid, receipts) = paid(&[(3, 5), (7, 2)]);
        bank.settle(&paid, receipts, None, &p);
        let (bytes, accounts, flushes, counters) = bank.snapshot_parts();
        let restore = |bytes: &[u8], accounts: BTreeMap<u64, AccountId>| {
            BankDurabilityState::restore(bytes, accounts, false, flushes, counters).map(|_| ())
        };
        assert_eq!(restore(bytes, accounts.clone()), Ok(()));
        let mut torn = bytes.to_vec();
        torn.pop();
        let err = |what| Err(SimError::SnapshotMismatch { what });
        assert_eq!(restore(&torn, accounts.clone()), err("bank WAL image"));
        assert_eq!(
            BankDurabilityState::restore(bytes, accounts.clone(), false, 0, counters).map(|_| ()),
            err("bank flush counter"),
            "flush 0 cleared receipts, so the counter must be past it"
        );
        for bad in [
            [(3, AccountId(1)), (7, AccountId(1))],
            [(3, ESCROW), (7, AccountId(2))],
            [(3, AccountId(1)), (7, AccountId(9))],
        ] {
            assert_eq!(
                restore(bytes, bad.into()),
                err("bank account map"),
                "{bad:?}"
            );
        }
        // A log that deposits a token nobody withdrew (value from nowhere)
        // does not replay.
        let mut wal = Wal::new();
        wal.append(&LedgerOp::Open { balance: 100 });
        wal.append(&LedgerOp::Deposit {
            account: ESCROW,
            serial: clearing_serial(0, 0),
            value: 5,
        });
        assert_eq!(
            restore(wal.committed_bytes(), BTreeMap::new()),
            err("bank WAL image")
        );
    }
}
