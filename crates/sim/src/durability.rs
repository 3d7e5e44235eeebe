//! Durable-bank layer: a WAL-backed settlement ledger with a warm replica.
//!
//! When `--bank-durability wal` is on, the run maintains a real
//! [`Ledger`] that mirrors the settlement flow: every payout the
//! validators authorize becomes a write-ahead-logged ledger operation
//! (escrow-to-forwarder transfers in per-bundle mode, one netted
//! [`LedgerOp::EpochNet`] per epoch boundary in epoch mode, plus
//! withdraw/deposit pairs modelling receipt clearing). A [`BankReplica`]
//! continuously consumes the committed log, so when the fault plan's
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
use std::collections::BTreeMap;

use idpa_desim::fault::{BankCrashDraw, FaultPlan};
use idpa_payment::{
    AccountId, BankReplica, InvariantMonitor, Ledger, LedgerOp, TokenId, ValidationReport, Wal,
};

/// The escrow account all payouts are drawn from. Opened first, so it is
/// always ledger account 0.
const ESCROW: AccountId = AccountId(0);

/// Escrow opening balance: large enough that no realistic run drains it
/// (payout units are receipt counts, bounded by the workload size).
const ESCROW_FUND: u64 = 1 << 40;

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
    /// Epochs settled through the durable ledger (names `EpochNet` records).
    epoch_counter: u64,
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
            epoch_counter: 0,
            counters: DurabilityCounters::default(),
        }
    }

    /// Rebuilds the durable bank from snapshot parts: the ledger is
    /// recovered from the persisted WAL image (exercising the same code
    /// path as crash recovery), the replica re-warmed at its tail.
    pub(crate) fn restore(
        wal_bytes: &[u8],
        node_accounts: BTreeMap<u64, AccountId>,
        group_commit: bool,
        flushes: u64,
        epoch_counter: u64,
        counters: DurabilityCounters,
    ) -> Self {
        let (mut primary, report) = Ledger::recover(wal_bytes);
        debug_assert!(
            report.is_clean(),
            "snapshot carried a corrupt WAL image: {report:?}"
        );
        primary.set_group_commit(group_commit);
        let replica = Self::warm_replica(&primary);
        BankDurabilityState {
            primary,
            replica,
            node_accounts,
            group_commit,
            flushes,
            epoch_counter,
            counters,
        }
    }

    /// A replica bit-identical to the primary, cursored at the WAL tail.
    /// Valid only between flushes (no staged operations outstanding).
    fn warm_replica(primary: &Ledger) -> BankReplica {
        let cursor = primary.wal().map_or(0, Wal::committed_len);
        BankReplica::warm(primary.clone(), cursor)
    }

    /// Per-bundle settlement: one flush per validated connection.
    pub(crate) fn settle_connection(&mut self, report: &ValidationReport, plan: &FaultPlan) {
        let paid: BTreeMap<u64, u64> = report.paid_counts.iter().map(|(a, c)| (a.0, *c)).collect();
        let ops = self.build_ops(&paid, report.validated_instances, None);
        self.flush(ops, plan);
    }

    /// Epoch settlement: one flush per boundary, netting the whole window.
    pub(crate) fn settle_epoch(
        &mut self,
        paid: &BTreeMap<u64, u64>,
        receipts: u64,
        plan: &FaultPlan,
    ) {
        let epoch = self.epoch_counter;
        self.epoch_counter += 1;
        let ops = self.build_ops(paid, receipts, Some(epoch));
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
    ) -> (
        &[u8],
        &BTreeMap<u64, AccountId>,
        u64,
        u64,
        DurabilityCounters,
    ) {
        let bytes = self.primary.wal().map_or(&[][..], Wal::committed_bytes);
        (
            bytes,
            &self.node_accounts,
            self.flushes,
            self.epoch_counter,
            self.counters,
        )
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
/// collide with protocol token serials. The invariant monitor tells
/// deposits apart by their first 8 bytes, so those carry the whole
/// (flush, chunk) position as `flush << 24 | chunk`: unique while one
/// flush clears fewer than 2^24 chunks and a run stays under 2^40 flushes.
fn clearing_serial(flush: u64, chunk: u64) -> TokenId {
    debug_assert!(
        chunk < 1 << 24 && flush < 1 << 40,
        "clearing serial overflow"
    );
    let mut id = [0u8; 32];
    id[..8].copy_from_slice(&(flush << 24 | chunk).to_le_bytes());
    id[16] = 0xEE;
    TokenId(id)
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

    fn report(paid: &[(u64, u64)]) -> ValidationReport {
        let mut r = ValidationReport::default();
        for &(node, count) in paid {
            r.paid_counts.insert(AccountId(node), count);
            r.validated_instances += count;
        }
        r
    }

    #[test]
    fn per_bundle_settlement_is_logged_and_conserves_value() {
        let p = plan(0.0);
        let mut bank = BankDurabilityState::new(false);
        bank.settle_connection(&report(&[(3, 5), (7, 2)]), &p);
        bank.settle_connection(&report(&[(3, 4)]), &p);
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
        bank.settle_epoch(&paid, 3000, &plan(0.0));
        bank.settle_epoch(&paid, 3000, &plan(0.0));
        let out = bank.finalize();
        assert_eq!(out.counters.monitor_violations, 0);
        assert!(out.audit_ok);
    }

    #[test]
    fn clearing_serials_differ_in_the_monitored_prefix() {
        let prefix = |flush, chunk| {
            let TokenId(id) = clearing_serial(flush, chunk);
            assert_eq!(id[16], 0xEE, "tag kept");
            <[u8; 8]>::try_from(&id[..8]).unwrap()
        };
        let mut seen = std::collections::HashSet::new();
        for flush in [0u64, 1, 2, 1 << 20] {
            for chunk in [0u64, 1, 2, 1 << 20] {
                assert!(seen.insert(prefix(flush, chunk)), "({flush}, {chunk})");
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
            let r = report(&[(round % 5, 3 + round % 4), (9, 1)]);
            let paid: BTreeMap<u64, u64> = r.paid_counts.iter().map(|(k, v)| (k.0, *v)).collect();
            let receipts: u64 = paid.values().sum();
            a.settle_epoch(&paid, receipts, &calm);
            b.settle_epoch(&paid, receipts, &stormy);
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
            let r = report(&[(round % 3, 2 + round % 5)]);
            full.settle_connection(&r, &p);
            if round < 6 {
                front.settle_connection(&r, &p);
            }
        }
        let (bytes, accounts, flushes, epochs, counters) = front.snapshot_parts();
        let mut resumed =
            BankDurabilityState::restore(bytes, accounts.clone(), false, flushes, epochs, counters);
        let p2 = plan(0.35);
        for round in 6..12u64 {
            let r = report(&[(round % 3, 2 + round % 5)]);
            resumed.settle_connection(&r, &p2);
        }
        let (of, or) = (full.finalize(), resumed.finalize());
        assert_eq!(of.ledger_digest, or.ledger_digest);
        assert_eq!(of.wal_records, or.wal_records);
        assert_eq!(of.counters.crashes, or.counters.crashes);
    }
}
