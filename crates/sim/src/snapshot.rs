//! The versioned, checksummed snapshot codec for crash-safe service runs.
//!
//! [`encode`] serializes the mutable trajectory state of a
//! [`SimulationRun`] plus its [`Engine`] that the run cannot re-derive
//! into one framed byte buffer ([`idpa_desim::codec::frame`]: magic,
//! version, length, word-wise FNV-1a checksum), encoded in place behind
//! the frame header. The sections, in order:
//!
//! 1. the scenario fingerprint;
//! 2. the engine clock and event count, and the calendar with its
//!    original sequence numbers;
//! 3. the sequential routing RNG cursor and the connection count;
//! 4. the crash overlay;
//! 5. the per-pair transmission times;
//! 6. per pair, the bundle tallies, the reformation tracker and the
//!    intersection attack;
//! 7. the history arena cells;
//! 8. the keys of the resident probe cells and their residency counters;
//! 9. the idle-eviction sweep tick and the windowed-metrics buckets;
//! 10. under a fault runtime: delivery counters, per-pair completion
//!     times, fault ledgers, probe-invalidation horizons, unsettled
//!     evidence, settlement totals and flagged forwarders, adversary
//!     counters and the durable bank.
//!
//! [`restore`] rebuilds a run that continues **bit-identically** to the
//! uninterrupted one.
//!
//! Each section's layout is stated once, by its type: a `Wire` value
//! `put`s itself and `take`s itself back, and a sequence checks its
//! declared length against its element type's `MIN_BYTES`. [`encode`] is
//! one `put` per section and [`restore`] one `take`, in the same order;
//! what stays explicit in [`restore`] are the checks that relate a section
//! to the scenario or to another section.
//!
//! What is *not* serialized is exactly the state that is a pure function
//! of the configuration or of what *is* serialized: the sampled [`World`]
//! (regenerated from the master seed; only the open workload's live
//! arrival times are trajectory state and travel in the snapshot), the
//! [`FaultPlan`] (position-keyed, rebuilt from the fault config), bundle
//! keys, each probe cell's estimator (rebuilt from its node and synced
//! tick through the same materialise-and-sync path a read takes),
//! evidence that a settlement window already folded into the per-pair
//! totals (dropped when it settled), routing scratch buffers and memo
//! caches (value-invisible by construction) and the quality weights. The
//! configuration itself travels only as an FNV-1a fingerprint of its
//! `Debug` rendering: a snapshot is a *continuation* of one scenario, not
//! a self-describing archive, and resuming under a different scenario is
//! a typed [`SimError::SnapshotMismatch`] instead of silent divergence.
//!
//! Decoding is hardened end to end: every length is bounds-checked
//! against the buffer *and* the scenario's dimensions, every float is
//! validated (no NaN time, no negative crash horizon), every index is
//! range-checked, every sorted export must be strictly ascending, and the
//! outer checksum rejects byte flips before structural decoding even
//! starts. A corrupted snapshot returns a typed [`SimError`] and never
//! panics — and because [`restore`] builds the run locally and returns it
//! only on success, a failed restore mutates nothing.
//!
//! [`FaultPlan`]: idpa_desim::FaultPlan

use idpa_core::adversary::IntersectionAttack;
use idpa_core::bundle::{BundleAccounting, BundleId, ForwarderTally};
use idpa_core::history::HistoryRecord;
use idpa_core::metrics::{DeliveryTracker, ReformationTracker};
use idpa_core::reputation::EdgeReputation;
use idpa_desim::codec::{fnv1a_64, unframe, Dec, Enc, MAGIC};
use idpa_desim::rng::Xoshiro256StarStar;
use idpa_desim::{Calendar, Engine, SimTime};
use idpa_overlay::{NodeId, ProbeCellsSnapshot, ProbeInvalidation, Residency};
use idpa_payment::bank::AccountId;
use idpa_payment::receipt::Receipt;
use idpa_payment::validation::{ConnectionEvidence, PathManifest};

use crate::durability::{BankDurabilityState, DurabilityCounters};
use crate::error::SimError;
use crate::runner::{AdversaryCounters, Ev, SimulationRun};
use crate::scenario::{ScenarioConfig, SettlementMode};
use crate::slab::{LedgerEntries, NodeSlab};
use crate::window::WindowCollector;
use crate::world::World;

/// Snapshot format version, bumped on any change to the layout or to
/// what a restore regenerates, so a stale snapshot fails with
/// [`idpa_desim::CodecError::UnsupportedVersion`] instead of misdecoding
/// or resuming over a different world (versions 7 and 9 kept every byte
/// of the layout but changed how the world derives). The frame pins in
/// `tests/snapshot_hardening.rs` fail on any layout change. Version 13
/// drops the initiator costs, the retired reputation archives, the
/// abandoned-message and archived-entry counters, the tally participation
/// flag and the pair of each flagged forwarder.
pub const SNAPSHOT_VERSION: u32 = 13;

/// The scenario fingerprint a snapshot is bound to: FNV-1a over the
/// config's `Debug` rendering. Every field participates, including the
/// value-invisible ones (idle-eviction window, ignored fields): resuming under a
/// *different but equivalent* configuration is intentionally rejected,
/// because "equivalent" is exactly the property the equivalence suites
/// exist to prove, not one the decoder should assume.
#[must_use]
pub fn config_fingerprint(cfg: &ScenarioConfig) -> u64 {
    fnv1a_64(format!("{cfg:?}").as_bytes())
}

fn mismatch(what: &'static str) -> SimError {
    SimError::SnapshotMismatch { what }
}

/// `Ok` if `ok` holds, else the mismatch `what`.
fn check(ok: bool, what: &'static str) -> Result<(), SimError> {
    ok.then_some(()).ok_or(mismatch(what))
}

/// Checks that `keys` ascend strictly and stay below `end`: every sorted
/// export has exactly one encoding, and its indices are in range.
fn ascending<K: PartialOrd>(
    keys: impl IntoIterator<Item = K>,
    end: K,
    what: &'static str,
) -> Result<(), SimError> {
    check(
        keys.into_iter().chain([end]).is_sorted_by(|a, b| a < b),
        what,
    )
}

/// A `usize` index that must lie below `end`.
fn index(d: &mut Dec, end: usize, what: &'static str) -> Result<usize, SimError> {
    let v = d.usize()?;
    check(v < end, what).map(|()| v)
}

/// The scenario's dimensions, which bound every decoded index.
struct Bounds {
    nodes: usize,
    pairs: usize,
}

/// A value with one wire layout, written by `put` and read back by `take`.
trait Wire: Sized {
    /// The fewest bytes any encoding takes; a sequence length is checked
    /// against it before anything is allocated.
    const MIN_BYTES: usize;
    fn put(&self, e: &mut Enc);
    fn take(d: &mut Dec, b: &Bounds) -> Result<Self, SimError>;
}

fn take<T: Wire>(d: &mut Dec, b: &Bounds) -> Result<T, SimError> {
    T::take(d, b)
}

/// A length prefix, then each item.
fn put_seq<'a, T: Wire + 'a>(e: &mut Enc, items: impl ExactSizeIterator<Item = &'a T>) {
    e.seq_len(items.len());
    items.for_each(|x| x.put(e));
}

macro_rules! wire_primitive {
    ($($t:ty: $n:expr, $put:ident, $take:ident;)+) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = $n;
            fn put(&self, e: &mut Enc) {
                e.$put(*self);
            }
            fn take(d: &mut Dec, _: &Bounds) -> Result<Self, SimError> {
                Ok(d.$take()?)
            }
        }
    )+};
}
wire_primitive! {
    u8: 1, u8, u8;
    u32: 4, u32, u32;
    u64: 8, u64, u64;
    usize: 8, usize, usize;
    bool: 1, bool, bool;
    SimTime: 8, time, time;
}

impl Wire for f64 {
    const MIN_BYTES: usize = 8;
    fn put(&self, e: &mut Enc) {
        e.f64(*self);
    }
    fn take(d: &mut Dec, _: &Bounds) -> Result<Self, SimError> {
        let v = d.f64()?;
        check(v.is_finite(), "non-finite float")?;
        Ok(v)
    }
}

/// Byte arrays (MACs) travel as raw bytes.
impl<const N: usize> Wire for [u8; N] {
    const MIN_BYTES: usize = N;
    fn put(&self, e: &mut Enc) {
        e.raw(self);
    }
    fn take(d: &mut Dec, _: &Bounds) -> Result<Self, SimError> {
        let mut out = [0; N];
        out.copy_from_slice(d.raw(N)?);
        Ok(out)
    }
}

impl Wire for [u64; 4] {
    const MIN_BYTES: usize = 32;
    fn put(&self, e: &mut Enc) {
        self.iter().for_each(|w| w.put(e));
    }
    fn take(d: &mut Dec, _: &Bounds) -> Result<Self, SimError> {
        Ok([d.u64()?, d.u64()?, d.u64()?, d.u64()?])
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn put(&self, e: &mut Enc) {
        put_seq(e, self.iter());
    }
    fn take(d: &mut Dec, b: &Bounds) -> Result<Self, SimError> {
        let n = d.seq_len(T::MIN_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::take(d, b)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, e: &mut Enc) {
        e.bool(self.is_some());
        if let Some(v) = self {
            v.put(e);
        }
    }
    fn take(d: &mut Dec, b: &Bounds) -> Result<Self, SimError> {
        d.bool()?.then(|| T::take(d, b)).transpose()
    }
}

macro_rules! wire_tuple {
    ($(($($t:ident . $i:tt),+))+) => {$(
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            const MIN_BYTES: usize = 0 $(+ $t::MIN_BYTES)+;
            fn put(&self, e: &mut Enc) {
                $(self.$i.put(e);)+
            }
            fn take(d: &mut Dec, b: &Bounds) -> Result<Self, SimError> {
                Ok(($($t::take(d, b)?,)+))
            }
        }
    )+};
}
wire_tuple! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Structs laid out as their listed fields, in order (`0` names a
/// newtype's field).
macro_rules! wire_struct {
    ($($ty:ident { $($f:tt: $ft:ty),+ })+) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = 0 $(+ <$ft as Wire>::MIN_BYTES)+;
            fn put(&self, e: &mut Enc) {
                $(self.$f.put(e);)+
            }
            fn take(d: &mut Dec, b: &Bounds) -> Result<Self, SimError> {
                Ok($ty { $($f: <$ft as Wire>::take(d, b)?),+ })
            }
        }
    )+};
}
wire_struct! {
    AccountId { 0: u64 }
    ForwarderTally { instances: u64, transmission_cost: f64 }
    HistoryRecord { connection: u32, predecessor: NodeId, successor: NodeId }
    Residency { materialized: usize, peak: usize, evictions: u64, bytes: usize, peak_bytes: usize }
    ProbeCellsSnapshot { cells: Vec<(usize, u64)>, stats: Residency }
    Receipt { bundle_id: u64, connection: u32, hop: u32, forwarder: AccountId, mac: [u8; 32] }
    PathManifest { bundle_id: u64, connection: u32, hops: Vec<AccountId>, mac: [u8; 32] }
    ConnectionEvidence {
        manifest: PathManifest,
        receipts: Vec<Receipt>,
        observed_hops: Option<Vec<AccountId>>
    }
    AdversaryCounters {
        whitewash_events: u64,
        whitewash_evasions: u64,
        free_rider_refusals: u64,
        phantom_injected: u64
    }
    DurabilityCounters {
        crashes: u64,
        torn_tails: u64,
        records_replayed: u64,
        monitor_checks: u64,
        monitor_violations: u64
    }
}

impl Wire for NodeId {
    const MIN_BYTES: usize = 8;
    fn put(&self, e: &mut Enc) {
        e.usize(self.0);
    }
    fn take(d: &mut Dec, b: &Bounds) -> Result<Self, SimError> {
        index(d, b.nodes, "node index").map(NodeId)
    }
}

impl Wire for BundleId {
    const MIN_BYTES: usize = 8;
    fn put(&self, e: &mut Enc) {
        e.u64(self.0);
    }
    fn take(d: &mut Dec, b: &Bounds) -> Result<Self, SimError> {
        Ok(BundleId(index(d, b.pairs, "bundle index")? as u64))
    }
}

impl Wire for Ev {
    const MIN_BYTES: usize = 1;
    fn put(&self, e: &mut Enc) {
        match *self {
            Ev::Probe => e.u8(0),
            Ev::Maintain(node) => (1u8, node).put(e),
            Ev::Transmit { pair, conn } => (2u8, pair, conn).put(e),
            Ev::Retry {
                pair,
                conn,
                attempt,
            } => (3u8, pair, conn, attempt).put(e),
            Ev::EpochSettle => e.u8(4),
            Ev::Arrival { pair } => (5u8, pair).put(e),
            Ev::Whitewash(node) => (6u8, node).put(e),
        }
    }
    fn take(d: &mut Dec, b: &Bounds) -> Result<Self, SimError> {
        let pair = |d: &mut Dec| index(d, b.pairs, "event pair index");
        Ok(match d.u8()? {
            0 => Ev::Probe,
            1 => Ev::Maintain(NodeId::take(d, b)?.0),
            2 => Ev::Transmit {
                pair: pair(d)?,
                conn: d.u32()?,
            },
            3 => Ev::Retry {
                pair: pair(d)?,
                conn: d.u32()?,
                attempt: d.u32()?,
            },
            4 => Ev::EpochSettle,
            5 => Ev::Arrival { pair: pair(d)? },
            6 => Ev::Whitewash(NodeId::take(d, b)?.0),
            _ => return Err(mismatch("event tag")),
        })
    }
}

/// Serializes the full mutable state of `run` + `engine` into a framed,
/// checksummed snapshot buffer.
#[must_use]
pub fn encode(run: &SimulationRun, engine: &Engine<Ev>) -> Vec<u8> {
    let mut frame = Enc::framed(MAGIC, SNAPSHOT_VERSION);
    let e = &mut frame;
    config_fingerprint(&run.cfg).put(e);

    // Engine clock and calendar (original sequence numbers preserved, so
    // same-time event ordering survives the resume).
    let cal = engine.calendar();
    (engine.now(), engine.events_handled()).put(e);
    (cal.next_seq(), cal.snapshot_entries()).put(e);

    // The sequential routing RNG cursor (every other draw is
    // position-keyed and needs no state) and the crash overlay (empty when
    // faults are off).
    (run.routing_rng.state(), run.connections).put(e);
    run.crashed_until.put(e);

    // Per-pair transmission times. Closed mode regenerates these
    // identically from the seed, but the open workload appends each live
    // arrival — they are trajectory state, so they travel uniformly.
    put_seq(e, run.world.pairs.iter().map(|p| &p.times));

    run.bundles.iter().for_each(|b| b.snapshot_state().put(e));
    run.trackers.iter().for_each(|t| t.snapshot_state().put(e));
    run.attacks.iter().for_each(|a| a.snapshot_state().put(e));

    // History arena cells, restored by replaying `record_hop` — that
    // reconstructs the per-cell connection multisets and the membership
    // filter exactly.
    run.histories.snapshot_cells().put(e);

    // Probe cells as keys: restore rebuilds each estimator from its node
    // and synced tick, the way a re-touch after eviction does.
    run.probes.snapshot_cells().put(e);
    run.slab.as_ref().map(NodeSlab::last_sweep_tick).put(e);
    let windows = run.windows.as_ref().map(WindowCollector::snapshot_state);
    windows.put(e);

    run.fault.is_some().put(e);
    let Some(fr) = &run.fault else {
        return frame.seal_frame();
    };
    fr.delivery.snapshot_state().put(e);
    fr.last_completion.put(e);
    fr.reputation.snapshot_ledgers().put(e);
    fr.probe_invalid.snapshot_state().put(e);

    // Only the evidence no window has settled yet (always none under
    // per-bundle settlement).
    fr.validators
        .iter()
        .for_each(|v| put_seq(e, v.pending().iter()));

    let st = &fr.settlement;
    st.expected
        .iter()
        .chain(&st.validated)
        .for_each(|x| x.put(e));
    put_seq(e, st.flagged.iter());
    (st.epochs_settled, st.payout_ops, st.batch_ops).put(e);
    (st.receipts_netted, st.phantom_flagged).put(e);

    // Adversary counters: the layer's only mutable state (the plan is a
    // pure precomputed schedule, rebuilt from the config).
    fr.adv.put(e);

    // Durable-bank block. The WAL image is the source of truth for ledger
    // state: restore replays it through the same crash-recovery path a
    // real restart would use. Alongside it, only the state the log cannot
    // reproduce: the node-to-account map, the flush position key, and the
    // counters.
    fr.bank.is_some().put(e);
    if let Some(bank) = &fr.bank {
        let (wal, accounts, flushes, counters) = bank.snapshot_parts();
        e.seq_len(wal.len());
        e.raw(wal);
        e.seq_len(accounts.len());
        accounts.iter().for_each(|(&n, &a)| (n, a).put(e));
        (flushes, counters).put(e);
    }
    frame.seal_frame()
}

/// Rebuilds a run + engine pair from a snapshot taken under the same
/// scenario configuration.
///
/// The world is regenerated from the seed, a fresh run is built locally,
/// and only then is the serialized trajectory state swapped in — so a
/// decode failure at any depth returns a typed [`SimError`] with no
/// partial mutation anywhere. The history records and the pending
/// evidence go straight into the run as they decode.
pub fn restore(
    cfg: &ScenarioConfig,
    bytes: &[u8],
) -> Result<(SimulationRun, Engine<Ev>), SimError> {
    let d = &mut Dec::new(unframe(bytes, MAGIC, SNAPSHOT_VERSION)?);
    let ok = d.u64()? == config_fingerprint(cfg);
    check(ok, "configuration fingerprint")?;

    let mut run = SimulationRun::new(*cfg, World::try_generate(cfg)?);
    let b = &Bounds {
        nodes: cfg.n_nodes,
        pairs: run.world.pairs.len(),
    };

    let (now, events_handled): (SimTime, u64) = take(d, b)?;
    let (next_seq, entries): (u64, Vec<(SimTime, u64, Ev)>) = take(d, b)?;
    let ok = entries.iter().all(|e| e.0 >= now);
    check(ok, "calendar entry before now")?;
    let ok = entries.iter().all(|e| e.1 < next_seq);
    check(ok, "calendar sequence number")?;

    run.routing_rng = Xoshiro256StarStar::from_state(take(d, b)?);
    run.connections = take(d, b)?;
    let n_crashed = run.crashed_until.len();
    run.crashed_until = take(d, b)?;
    check(run.crashed_until.len() == n_crashed, "crash overlay length")?;
    check(run.crashed_until.iter().all(|&t| t >= 0.0), "crash horizon")?;

    let n_pairs = d.seq_len(<Vec<f64>>::MIN_BYTES)?;
    check(n_pairs == b.pairs, "workload pair count")?;
    for p in &mut run.world.pairs {
        p.times = take(d, b)?;
        let n = p.times.len();
        check(n <= cfg.max_connections as usize, "pair connection count")?;
        let ok = p.times.first().is_none_or(|&t| t >= 0.0) && p.times.is_sorted();
        check(ok, "transmission time order")?;
    }

    for acc in &mut run.bundles {
        let (tallies, connections, total_hops): (Vec<(NodeId, _)>, _, _) = take(d, b)?;
        let nodes = tallies.iter().map(|t| t.0);
        ascending(nodes, NodeId(b.nodes), "tally node order")?;
        *acc = BundleAccounting::from_snapshot(tallies, connections, total_hops);
    }
    for tr in &mut run.trackers {
        let (edges, c, new, total, reformed) = take(d, b)?;
        *tr = ReformationTracker::from_snapshot(edges, c, new, total, reformed);
    }
    for at in &mut run.attacks {
        let (observations, candidates) = take(d, b)?;
        *at = IntersectionAttack::from_snapshot(observations, candidates);
    }

    // History arena: replay every record through the write path.
    let h = &mut run.histories;
    for _ in 0..d.seq_len(<(u64, u64, Vec<HistoryRecord>)>::MIN_BYTES)? {
        let (node, bundle) = take(d, b)?;
        for _ in 0..d.seq_len(HistoryRecord::MIN_BYTES)? {
            let r: HistoryRecord = take(d, b)?;
            h.record_hop(node, bundle, r.connection, r.predecessor, r.successor);
        }
    }

    // `restore_cells` range- and order-checks the probe cell keys and
    // rebuilds each cell.
    run.probes.restore_cells(take(d, b)?).map_err(mismatch)?;
    match (&mut run.slab, take(d, b)?) {
        (None, None) => {}
        (Some(slab), Some(tick)) => slab.set_last_sweep_tick(tick),
        _ => return Err(mismatch("idle eviction")),
    }
    let rows: Option<Vec<(u64, u64, u64, u64)>> = take(d, b)?;
    check(rows.is_some() == run.windows.is_some(), "windowed metrics")?;
    for r in rows.iter().flatten() {
        check(f64::from_bits(r.3).is_finite(), "window payoff")?;
    }
    let (len, warmup) = (cfg.window_len, cfg.window_warmup);
    run.windows = rows.map(|rows| WindowCollector::from_snapshot(len, warmup, &rows));

    check(d.bool()? == run.fault.is_some(), "fault block presence")?;
    if let Some(fr) = &mut run.fault {
        let delivery: (u64, u64, u64, u64, u64) = take(d, b)?;
        check(f64::from_bits(delivery.3).is_finite(), "latency sum")?;
        fr.delivery = DeliveryTracker::from_snapshot(delivery);
        fr.last_completion = take(d, b)?;
        let ok = fr.last_completion.len() == b.pairs;
        check(ok, "completion time length")?;

        let ledgers: Vec<(usize, LedgerEntries)> = take(d, b)?;
        ascending(ledgers.iter().map(|l| l.0), b.nodes, "ledger order")?;
        for (initiator, entries) in ledgers {
            ascending(entries.iter().map(|e| e.0), b.nodes, "ledger relay order")?;
            *fr.reputation.get_mut(initiator) = EdgeReputation::from_snapshot(b.nodes, &entries);
        }

        let until: Vec<f64> = take(d, b)?;
        check(until.len() == b.nodes, "probe invalidation length")?;
        check(until.iter().all(|&t| t >= 0.0), "invalidation horizon")?;
        fr.probe_invalid = ProbeInvalidation::from_snapshot(until);

        // A per-bundle window settles at its connection, so a real
        // per-bundle frame never carries pending evidence.
        let per_bundle = cfg.settlement == SettlementMode::PerBundle;
        for v in &mut fr.validators {
            let n = d.seq_len(ConnectionEvidence::MIN_BYTES)?;
            let what = "pending evidence under per-bundle settlement";
            check(!per_bundle || n == 0, what)?;
            for _ in 0..n {
                v.add_connection(take(d, b)?);
            }
        }

        let st = &mut fr.settlement;
        for slot in st.expected.iter_mut().chain(&mut st.validated) {
            *slot = take(d, b)?;
        }
        let flagged: Vec<usize> = take(d, b)?;
        ascending(flagged.iter().copied(), b.nodes, "flagged order")?;
        st.flagged = flagged.into_iter().collect();
        (st.epochs_settled, st.payout_ops, st.batch_ops) = take(d, b)?;
        (st.receipts_netted, st.phantom_flagged) = take(d, b)?;
        fr.adv = take(d, b)?;

        check(d.bool()? == fr.bank.is_some(), "bank durability presence")?;
        if let Some(bank) = &mut fr.bank {
            let wal_len = d.seq_len(1)?;
            let wal = d.raw(wal_len)?;
            let accounts: Vec<(u64, AccountId)> = take(d, b)?;
            let nodes = accounts.iter().map(|a| a.0);
            ascending(nodes, b.nodes as u64, "bank account order")?;
            let (flushes, counters) = take(d, b)?;
            let epoch = cfg.settlement == SettlementMode::Epoch;
            let accounts = accounts.into_iter().collect();
            *bank = BankDurabilityState::restore(wal, accounts, epoch, flushes, counters)?;
        }
    }
    d.finish()?;

    let calendar = Calendar::from_snapshot(entries, next_seq);
    Ok((run, Engine::from_parts(calendar, now, events_handled)))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::scenario::{BankDurability, WorkloadMode};
    use idpa_desim::{CodecError, FaultConfig, StopReason};

    fn cfg(seed: u64) -> ScenarioConfig {
        ScenarioConfig::quick_test(seed)
    }

    /// Run `cfg` to the horizon, snapshotting after `budget` events, then
    /// resume from the snapshot and check the final result matches the
    /// uninterrupted run exactly.
    fn resume_matches(cfg: ScenarioConfig, budget: u64) {
        let horizon = SimTime::new(cfg.churn.horizon);
        let baseline = SimulationRun::execute(cfg);

        let world = World::generate(&cfg);
        let mut run = SimulationRun::new(cfg, world);
        let mut engine = Engine::new();
        run.schedule_all(&mut engine);
        engine.set_event_budget(budget);
        let stop = engine.run(&mut run, Some(horizon));
        assert_eq!(stop, StopReason::EventBudget, "budget must interrupt");

        let bytes = encode(&run, &engine);
        drop((run, engine));
        let (mut run2, mut engine2) = restore(&cfg, &bytes).expect("restore");
        engine2.run(&mut run2, Some(horizon));
        let resumed = run2.finish();
        assert_eq!(baseline, resumed);
    }

    #[test]
    fn resume_matches_uninterrupted_fault_free() {
        resume_matches(cfg(3), 100);
    }

    #[test]
    fn resume_matches_uninterrupted_with_faults() {
        let c = ScenarioConfig {
            fault: FaultConfig {
                crash_rate: 0.05,
                drop_rate: 0.1,
                delay_rate: 0.2,
                ..FaultConfig::default()
            },
            ..cfg(7)
        };
        resume_matches(c, 250);
    }

    #[test]
    fn resume_matches_uninterrupted_with_durable_bank() {
        let c = ScenarioConfig {
            bank_durability: BankDurability::Wal,
            fault: FaultConfig {
                drop_rate: 0.1,
                bank_crash_rate: 0.2,
                ..FaultConfig::default()
            },
            ..cfg(11)
        };
        resume_matches(c, 150);
    }

    #[test]
    fn resume_matches_uninterrupted_with_durable_bank_epoch_mode() {
        let c = ScenarioConfig {
            bank_durability: BankDurability::Wal,
            settlement: SettlementMode::Epoch,
            fault: FaultConfig {
                bank_crash_rate: 0.3,
                ..FaultConfig::default()
            },
            ..cfg(13)
        };
        resume_matches(c, 200);
    }

    #[test]
    fn resume_matches_open_workload_with_windows() {
        let c = ScenarioConfig {
            workload: WorkloadMode::Open,
            open_arrival_rate: 0.02,
            window_len: 200.0,
            window_warmup: 100.0,
            ..cfg(11)
        };
        resume_matches(c, 150);
    }

    #[test]
    fn snapshot_is_deterministic() {
        let c = cfg(5);
        let mk = || {
            let world = World::generate(&c);
            let mut run = SimulationRun::new(c, world);
            let mut engine = Engine::new();
            run.schedule_all(&mut engine);
            engine.set_event_budget(80);
            engine.run(&mut run, Some(SimTime::new(c.churn.horizon)));
            encode(&run, &engine)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn wrong_config_is_rejected() {
        let c = cfg(5);
        let world = World::generate(&c);
        let run = SimulationRun::new(c, world);
        let mut engine = Engine::new();
        run.schedule_all(&mut engine);
        let bytes = encode(&run, &engine);
        let other = ScenarioConfig { seed: 6, ..c };
        match restore(&other, &bytes) {
            Ok(_) => panic!("must reject a different scenario"),
            Err(err) => assert_eq!(
                err,
                SimError::SnapshotMismatch {
                    what: "configuration fingerprint"
                }
            ),
        }
    }

    /// Runs `c` for `budget` events and encodes the frame bound to
    /// `bind`'s fingerprint (resealed), so decoding `bind` reaches the
    /// sections past the fingerprint.
    fn frame_bound_to(c: ScenarioConfig, budget: u64, bind: &ScenarioConfig) -> Vec<u8> {
        let world = World::generate(&c);
        let mut run = SimulationRun::new(c, world);
        let mut engine = Engine::new();
        run.schedule_all(&mut engine);
        engine.set_event_budget(budget);
        engine.run(&mut run, Some(SimTime::new(c.churn.horizon)));
        let mut bytes = encode(&run, &engine);
        let header = idpa_desim::codec::FRAME_HEADER_BYTES;
        bytes[header..header + 8].copy_from_slice(&config_fingerprint(bind).to_le_bytes());
        let n = bytes.len();
        let sum = idpa_desim::codec::frame_checksum(&bytes[header..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn slab_presence_must_match_the_config() {
        // Re-bind each frame to the other config's fingerprint (and reseal
        // it), so decoding reaches the slab section and fails there.
        for (taken, resumed) in [(None, Some(4)), (Some(4), None)] {
            let c = ScenarioConfig {
                evict_idle_ticks: taken,
                ..cfg(5)
            };
            let other = ScenarioConfig {
                evict_idle_ticks: resumed,
                ..c
            };
            let bytes = frame_bound_to(c, 80, &other);
            match restore(&other, &bytes) {
                Ok(_) => panic!("slab presence {taken:?} -> {resumed:?} must be rejected"),
                Err(err) => assert_eq!(err, mismatch("idle eviction")),
            }
        }
    }

    #[test]
    fn per_bundle_frame_with_pending_evidence_is_rejected() {
        // An epoch-settled run holds the evidence of its open windows;
        // rebound to the per-bundle twin of its scenario, that evidence is
        // something a per-bundle run can never have pending.
        let epoch = ScenarioConfig {
            settlement: SettlementMode::Epoch,
            fault: FaultConfig {
                drop_rate: 0.1,
                ..FaultConfig::default()
            },
            ..cfg(7)
        };
        let per_bundle = ScenarioConfig {
            settlement: SettlementMode::PerBundle,
            ..epoch
        };
        let bytes = frame_bound_to(epoch, 250, &per_bundle);
        match restore(&per_bundle, &bytes) {
            Ok(_) => panic!("pending evidence under per-bundle settlement must be rejected"),
            Err(err) => assert_eq!(
                err,
                mismatch("pending evidence under per-bundle settlement")
            ),
        }
        // The same frame under its own scenario restores.
        let own = frame_bound_to(epoch, 250, &epoch);
        assert!(restore(&epoch, &own).is_ok());
    }

    #[test]
    fn previous_version_frame_is_unsupported() {
        let c = cfg(5);
        let mut bytes = frame_bound_to(c, 80, &c);
        bytes[8..12].copy_from_slice(&(SNAPSHOT_VERSION - 1).to_le_bytes());
        match restore(&c, &bytes) {
            Ok(_) => panic!("a version {} frame must not decode", SNAPSHOT_VERSION - 1),
            Err(err) => assert_eq!(
                err,
                SimError::from(CodecError::UnsupportedVersion(SNAPSHOT_VERSION - 1))
            ),
        }
    }

    /// The sections in front of the crash overlay: fingerprint, clock,
    /// calendar, routing RNG and connection count.
    type BeforeCrashes = (
        u64,
        (SimTime, u64),
        (u64, Vec<(SimTime, u64, Ev)>),
        ([u64; 4], u64),
    );
    /// One bundle's accounting section.
    type Bundle = (Vec<(NodeId, ForwarderTally)>, u32, u64);

    /// Skips one `T` section.
    fn skip<T: Wire>(d: &mut Dec, b: &Bounds) {
        take::<T>(d, b).unwrap();
    }

    /// `frame` with the `T` section that starts where `before` stops
    /// decoded, edited and put back, then resealed: a real frame with one
    /// bad value.
    fn retake<T: Wire>(
        frame: &[u8],
        b: &Bounds,
        before: impl FnOnce(&mut Dec, &Bounds),
        edit: impl FnOnce(&mut T),
    ) -> Vec<u8> {
        let header = idpa_desim::codec::FRAME_HEADER_BYTES;
        let payload = &frame[header..frame.len() - 8];
        let d = &mut Dec::new(payload);
        before(d, b);
        let at = d.offset();
        let mut section: T = take(d, b).unwrap();
        edit(&mut section);
        let mut e = Enc::framed(MAGIC, SNAPSHOT_VERSION);
        e.raw(&payload[..at]);
        section.put(&mut e);
        e.raw(&payload[d.offset()..]);
        e.seal_frame()
    }

    #[test]
    fn each_validator_rejects_its_field() {
        let c = ScenarioConfig {
            settlement: SettlementMode::Epoch,
            fault: FaultConfig {
                drop_rate: 0.1,
                ..FaultConfig::default()
            },
            ..cfg(7)
        };
        let world = World::generate(&c);
        let mut run = SimulationRun::new(c, world);
        let mut engine = Engine::new();
        run.schedule_all(&mut engine);
        engine.set_event_budget(250);
        engine.run(&mut run, Some(SimTime::new(c.churn.horizon)));
        assert!(engine.now() > SimTime::ZERO && !engine.calendar().is_empty());
        let frame = encode(&run, &engine);
        let b = &Bounds {
            nodes: c.n_nodes,
            pairs: run.world.pairs.len(),
        };
        let (n_pairs, n_trackers, n_attacks) =
            (run.bundles.len(), run.trackers.len(), run.attacks.len());
        let before_bundles =
            |d: &mut Dec, b: &Bounds| skip::<(BeforeCrashes, Vec<f64>, Vec<Vec<f64>>)>(d, b);
        let before_slab = |d: &mut Dec, b: &Bounds| {
            before_bundles(d, b);
            (0..n_pairs).for_each(|_| skip::<Bundle>(d, b));
            (0..n_trackers).for_each(|_| skip::<(Vec<(NodeId, NodeId)>, u32, u64, u64, u32)>(d, b));
            (0..n_attacks).for_each(|_| skip::<(u32, Option<Vec<NodeId>>)>(d, b));
            skip::<(Vec<(u64, u64, Vec<HistoryRecord>)>, ProbeCellsSnapshot)>(d, b);
        };

        // The walk lands on section boundaries: an unedited section
        // re-encodes to the same frame.
        assert_eq!(retake::<Bundle>(&frame, b, before_bundles, |_| {}), frame);
        assert_eq!(retake::<Option<u64>>(&frame, b, before_slab, |_| {}), frame);

        let cases: Vec<(&str, Vec<u8>)> = vec![
            (
                "calendar entry before now",
                retake(
                    &frame,
                    b,
                    skip::<(u64, (SimTime, u64))>,
                    |cal: &mut (u64, Vec<(SimTime, u64, Ev)>)| {
                        cal.1[0].0 = SimTime::ZERO;
                    },
                ),
            ),
            (
                "non-finite float",
                retake(
                    &frame,
                    b,
                    skip::<BeforeCrashes>,
                    |crashed: &mut Vec<f64>| crashed[0] = f64::NAN,
                ),
            ),
            (
                "crash overlay length",
                retake(
                    &frame,
                    b,
                    skip::<BeforeCrashes>,
                    |crashed: &mut Vec<f64>| crashed.push(0.0),
                ),
            ),
            (
                "node index",
                retake(&frame, b, before_bundles, |acc: &mut Bundle| {
                    acc.0[0].0 = NodeId(c.n_nodes)
                }),
            ),
            (
                "tally node order",
                retake(&frame, b, before_bundles, |acc: &mut Bundle| {
                    assert!(acc.0.len() >= 2, "bundle 0 needs two forwarders");
                    acc.0[1].0 = acc.0[0].0;
                }),
            ),
            (
                "idle eviction",
                retake(&frame, b, before_slab, |slab: &mut Option<u64>| {
                    assert!(slab.is_none(), "the scenario runs without a slab");
                    *slab = Some(0);
                }),
            ),
        ];
        for (what, bad) in cases {
            match restore(&c, &bad) {
                Ok(_) => panic!("{what}: the bad value decoded"),
                Err(err) => assert_eq!(err, mismatch(what)),
            }
        }
    }

    #[test]
    fn truncation_and_flips_are_typed_errors() {
        let c = cfg(9);
        let world = World::generate(&c);
        let mut run = SimulationRun::new(c, world);
        let mut engine = Engine::new();
        run.schedule_all(&mut engine);
        engine.set_event_budget(60);
        engine.run(&mut run, Some(SimTime::new(c.churn.horizon)));
        let bytes = encode(&run, &engine);

        for cut in [0, 7, 8, 12, 20, bytes.len() - 1] {
            assert!(restore(&c, &bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(restore(&c, &flipped).is_err(), "checksum must catch flip");
    }
}
