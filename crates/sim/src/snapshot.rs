//! The versioned, checksummed snapshot codec for crash-safe service runs.
//!
//! [`encode`] serializes the **complete mutable trajectory state** of a
//! [`SimulationRun`] plus its [`Engine`] — the calendar with original
//! sequence numbers, the sequential routing RNG cursor, the history arena, the
//! bundle/tracker/attack accumulators, the touched nodes' probe cells, the
//! fault runtime (delivery counters, evidence, fault ledgers, epoch
//! cursors) and the windowed-metrics buckets — into one framed byte
//! buffer ([`idpa_desim::codec::frame`]: magic, version, length,
//! word-wise FNV-1a checksum), encoded in place behind the frame header.
//! [`restore`] rebuilds a run that continues
//! **bit-identically** to the uninterrupted one.
//!
//! What is *not* serialized is exactly the state that is a pure function
//! of the configuration: the sampled [`World`] (regenerated from the
//! master seed; only the open workload's live arrival times are
//! trajectory state and travel in the snapshot), the [`FaultPlan`]
//! (position-keyed, rebuilt from the fault config), bundle keys, routing
//! scratch buffers and memo caches (value-invisible by construction) and
//! the quality weights. The configuration itself travels only as an
//! FNV-1a fingerprint of its `Debug` rendering: a snapshot is a
//! *continuation* of one scenario, not a self-describing archive, and
//! resuming under a different scenario is a typed
//! [`SimError::SnapshotMismatch`] instead of silent divergence.
//!
//! Decoding is hardened end to end: every length is bounds-checked
//! against the buffer *and* the scenario's dimensions, every float is
//! validated (no NaN time, no negative crash horizon), every index is
//! range-checked, and the outer checksum rejects byte flips before
//! structural decoding even starts. A corrupted snapshot returns a typed
//! [`SimError`] and never panics — and because [`restore`] builds the
//! run locally and returns it only on success, a failed restore mutates
//! nothing.
//!
//! [`FaultPlan`]: idpa_desim::FaultPlan

use idpa_core::adversary::IntersectionAttack;
use idpa_core::arena::HistoryArena;
use idpa_core::bundle::{BundleAccounting, BundleId, ForwarderTally};
use idpa_core::history::HistoryWrite;
use idpa_core::metrics::{DeliveryTracker, ReformationTracker};
use idpa_core::reputation::EdgeReputation;
use idpa_desim::codec::{fnv1a_64, unframe, CodecError, Dec, Enc};
use idpa_desim::rng::Xoshiro256StarStar;
use idpa_desim::{Calendar, Engine};
use idpa_overlay::{
    NodeId, ProbeCellState, ProbeCellsSnapshot, ProbeEstimatorState, ProbeInvalidation, Residency,
};
use idpa_payment::bank::AccountId;
use idpa_payment::receipt::Receipt;
use idpa_payment::validation::{ConnectionEvidence, PathManifest, PathValidator};

use std::collections::BTreeMap;

use crate::durability::{BankDurabilityState, DurabilityCounters};
use crate::error::SimError;
use crate::runner::{Ev, SimulationRun};
use crate::scenario::{ScenarioConfig, SettlementMode};
use crate::window::WindowCollector;
use crate::world::World;

/// Snapshot format version; bumped on any layout change so a stale
/// snapshot fails with [`CodecError::UnsupportedVersion`] instead of
/// misdecoding. Version 5 switched the frame to the word-wise
/// [`idpa_desim::codec::frame_checksum`]; version 6 dropped the probe-store
/// tag (one cell store remains) and writes only materialized fault
/// ledgers.
pub const SNAPSHOT_VERSION: u32 = 6;

/// The scenario fingerprint a snapshot is bound to: FNV-1a over the
/// config's `Debug` rendering. Every field participates, including the
/// value-invisible ones (shard counts, idle-eviction window): resuming under a
/// *different but equivalent* configuration is intentionally rejected,
/// because "equivalent" is exactly the property the equivalence suites
/// exist to prove, not one the decoder should assume.
#[must_use]
pub fn config_fingerprint(cfg: &ScenarioConfig) -> u64 {
    fnv1a_64(format!("{cfg:?}").as_bytes())
}

fn codec(e: CodecError) -> SimError {
    SimError::SnapshotCodec {
        detail: e.to_string(),
    }
}

fn mismatch(what: &'static str) -> SimError {
    SimError::SnapshotMismatch { what }
}

/// A range-checked index.
fn idx(v: usize, n: usize, what: &'static str) -> Result<usize, SimError> {
    if v < n {
        Ok(v)
    } else {
        Err(mismatch(what))
    }
}

/// A validated finite float.
fn finite(v: f64, what: &'static str) -> Result<f64, SimError> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(mismatch(what))
    }
}

fn enc_ev(e: &mut Enc, ev: &Ev) {
    match *ev {
        Ev::Probe => e.u8(0),
        Ev::Maintain(node) => {
            e.u8(1);
            e.usize(node);
        }
        Ev::Transmit { pair, conn } => {
            e.u8(2);
            e.usize(pair);
            e.u32(conn);
        }
        Ev::Retry {
            pair,
            conn,
            attempt,
        } => {
            e.u8(3);
            e.usize(pair);
            e.u32(conn);
            e.u32(attempt);
        }
        Ev::EpochSettle => e.u8(4),
        Ev::Arrival { pair } => {
            e.u8(5);
            e.usize(pair);
        }
        Ev::Whitewash(node) => {
            e.u8(6);
            e.usize(node);
        }
    }
}

fn dec_ev(d: &mut Dec, n_nodes: usize, n_pairs: usize) -> Result<Ev, SimError> {
    Ok(match d.u8().map_err(codec)? {
        0 => Ev::Probe,
        1 => Ev::Maintain(idx(d.usize().map_err(codec)?, n_nodes, "event node index")?),
        2 => Ev::Transmit {
            pair: idx(d.usize().map_err(codec)?, n_pairs, "event pair index")?,
            conn: d.u32().map_err(codec)?,
        },
        3 => Ev::Retry {
            pair: idx(d.usize().map_err(codec)?, n_pairs, "event pair index")?,
            conn: d.u32().map_err(codec)?,
            attempt: d.u32().map_err(codec)?,
        },
        4 => Ev::EpochSettle,
        5 => Ev::Arrival {
            pair: idx(d.usize().map_err(codec)?, n_pairs, "event pair index")?,
        },
        6 => Ev::Whitewash(idx(d.usize().map_err(codec)?, n_nodes, "event node index")?),
        _ => return Err(mismatch("event tag")),
    })
}

fn enc_probe_est(e: &mut Enc, s: &ProbeEstimatorState) {
    e.usize(s.owner.index());
    e.f64(s.period);
    e.seq_len(s.neighbors.len());
    for &n in &s.neighbors {
        e.usize(n.index());
    }
    for &v in &s.init_time {
        e.f64(v);
    }
    for &v in &s.live_rounds {
        e.u64(v);
    }
    for &v in &s.ever_seen {
        e.bool(v);
    }
    for &v in &s.last_alive_round {
        e.u64(v);
    }
    e.u64(s.rounds);
}

fn dec_probe_est(
    d: &mut Dec,
    cfg: &ScenarioConfig,
    expect_owner: usize,
) -> Result<ProbeEstimatorState, SimError> {
    let owner = idx(d.usize().map_err(codec)?, cfg.n_nodes, "probe owner")?;
    if owner != expect_owner {
        return Err(mismatch("probe owner order"));
    }
    let period = d.f64().map_err(codec)?;
    if period.to_bits() != cfg.probe_period.to_bits() {
        return Err(mismatch("probe period"));
    }
    let deg = d.seq_len(8).map_err(codec)?;
    let mut neighbors = Vec::with_capacity(deg);
    for _ in 0..deg {
        neighbors.push(NodeId(idx(
            d.usize().map_err(codec)?,
            cfg.n_nodes,
            "probe neighbor",
        )?));
    }
    let mut init_time = Vec::with_capacity(deg);
    for _ in 0..deg {
        init_time.push(finite(d.f64().map_err(codec)?, "probe init time")?);
    }
    let mut live_rounds = Vec::with_capacity(deg);
    for _ in 0..deg {
        live_rounds.push(d.u64().map_err(codec)?);
    }
    let mut ever_seen = Vec::with_capacity(deg);
    for _ in 0..deg {
        ever_seen.push(d.bool().map_err(codec)?);
    }
    let mut last_alive_round = Vec::with_capacity(deg);
    for _ in 0..deg {
        last_alive_round.push(d.u64().map_err(codec)?);
    }
    let rounds = d.u64().map_err(codec)?;
    Ok(ProbeEstimatorState {
        owner: NodeId(owner),
        period,
        neighbors,
        init_time,
        live_rounds,
        ever_seen,
        last_alive_round,
        rounds,
    })
}

fn enc_residency(e: &mut Enc, r: &Residency) {
    e.usize(r.materialized);
    e.usize(r.peak);
    e.u64(r.evictions);
    e.usize(r.bytes);
    e.usize(r.peak_bytes);
}

fn dec_residency(d: &mut Dec) -> Result<Residency, SimError> {
    Ok(Residency {
        materialized: d.usize().map_err(codec)?,
        peak: d.usize().map_err(codec)?,
        evictions: d.u64().map_err(codec)?,
        bytes: d.usize().map_err(codec)?,
        peak_bytes: d.usize().map_err(codec)?,
    })
}

/// Serializes the full mutable state of `run` + `engine` into a framed,
/// checksummed snapshot buffer.
#[must_use]
pub fn encode(run: &SimulationRun, engine: &Engine<Ev>) -> Vec<u8> {
    let mut e = Enc::framed(SNAPSHOT_VERSION);
    e.u64(config_fingerprint(&run.cfg));

    // Engine clock and calendar (original sequence numbers preserved, so
    // same-time event ordering survives the resume).
    e.time(engine.now());
    e.u64(engine.events_handled());
    let cal = engine.calendar();
    e.u64(cal.next_seq());
    let entries = cal.snapshot_entries();
    e.seq_len(entries.len());
    for (t, seq, ev) in &entries {
        e.time(*t);
        e.u64(*seq);
        enc_ev(&mut e, ev);
    }
    let cancelled = cal.snapshot_cancelled();
    e.seq_len(cancelled.len());
    for c in &cancelled {
        e.u64(*c);
    }

    // The sequential routing RNG cursor (every other draw is
    // position-keyed and needs no state).
    for w in run.routing_rng.state() {
        e.u64(w);
    }

    e.u64(run.connections);

    // Crash overlay (empty when faults are off).
    e.seq_len(run.crashed_until.len());
    for &t in &run.crashed_until {
        e.f64(t);
    }

    e.seq_len(run.initiator_costs.len());
    for &c in &run.initiator_costs {
        e.f64(c);
    }

    // Per-pair transmission times. Closed mode regenerates these
    // identically from the seed, but the open workload appends each live
    // arrival — they are trajectory state, so they travel uniformly.
    e.seq_len(run.world.pairs.len());
    for p in &run.world.pairs {
        e.seq_len(p.times.len());
        for &t in &p.times {
            e.f64(t);
        }
    }

    for b in &run.bundles {
        let (tallies, connections, total_hops) = b.snapshot_state();
        e.seq_len(tallies.len());
        for (node, t) in &tallies {
            e.usize(node.index());
            e.u64(t.instances);
            e.f64(t.transmission_cost);
            e.bool(t.participated);
        }
        e.u32(connections);
        e.u64(total_hops);
    }

    for tr in &run.trackers {
        let (edges, connections, new_edges, total_edges, reformed) = tr.snapshot_state();
        e.seq_len(edges.len());
        for (a, b) in &edges {
            e.usize(a.index());
            e.usize(b.index());
        }
        e.u32(connections);
        e.u64(new_edges);
        e.u64(total_edges);
        e.u32(reformed);
    }

    for at in &run.attacks {
        let (observations, candidates) = at.snapshot_state();
        e.u32(observations);
        match candidates {
            None => e.bool(false),
            Some(c) => {
                e.bool(true);
                e.seq_len(c.len());
                for n in &c {
                    e.usize(n.index());
                }
            }
        }
    }

    // History arena cells, restored by replaying `record_hop` — that
    // reconstructs the per-cell connection multisets and bundle filters
    // exactly, whatever the shard count.
    let cells = run.histories.snapshot_cells();
    e.seq_len(cells.len());
    for (node, bundle, records) in &cells {
        e.u64(*node);
        e.u64(*bundle);
        e.seq_len(records.len());
        for r in records {
            e.u32(r.connection);
            e.usize(r.predecessor.index());
            e.usize(r.successor.index());
        }
    }

    let ProbeCellsSnapshot { cells, stats } = run.probes.snapshot_cells();
    e.seq_len(cells.len());
    for (i, c, touch) in &cells {
        e.usize(*i);
        enc_probe_est(&mut e, &c.est);
        e.u64(c.synced_tick);
        e.u64(*touch);
    }
    enc_residency(&mut e, &stats);

    match &run.slab {
        None => e.bool(false),
        Some(slab) => {
            e.bool(true);
            e.u64(slab.last_sweep_tick());
        }
    }

    match &run.windows {
        None => e.bool(false),
        Some(w) => {
            e.bool(true);
            let rows = w.snapshot_state();
            e.seq_len(rows.len());
            for (scheduled, delivered, retries, payoff) in rows {
                e.u64(scheduled);
                e.u64(delivered);
                e.u64(retries);
                e.u64(payoff);
            }
        }
    }

    match &run.fault {
        None => e.bool(false),
        Some(fr) => {
            e.bool(true);
            let (scheduled, delivered, abandoned, retries, latency_bits, latency_count) =
                fr.delivery.snapshot_state();
            e.u64(scheduled);
            e.u64(delivered);
            e.u64(abandoned);
            e.u64(retries);
            e.u64(latency_bits);
            e.u64(latency_count);

            e.seq_len(fr.last_completion.len());
            for &t in &fr.last_completion {
                e.f64(t);
            }

            let ledgers = fr.reputation.snapshot_ledgers();
            e.seq_len(ledgers.len());
            for (initiator, entries) in &ledgers {
                e.usize(*initiator);
                e.seq_len(entries.len());
                for (relay, drops, timeouts, flagged) in entries {
                    e.usize(*relay);
                    e.u32(*drops);
                    e.u32(*timeouts);
                    e.bool(*flagged);
                }
            }

            // Retired (whitewashed) ledger archives — dynamic evidence
            // that must survive a resume bit-identically.
            let retired = fr.reputation.snapshot_retired();
            e.seq_len(retired.len());
            for (initiator, relays) in &retired {
                e.usize(*initiator);
                e.seq_len(relays.len());
                for (relay, gens) in relays {
                    e.usize(*relay);
                    e.seq_len(gens.len());
                    for (drops, timeouts, flagged) in gens {
                        e.u32(*drops);
                        e.u32(*timeouts);
                        e.bool(*flagged);
                    }
                }
            }

            let until = fr.probe_invalid.snapshot_state();
            e.seq_len(until.len());
            for &t in &until {
                e.f64(t);
            }

            for v in &fr.validators {
                let evidence = v.evidence();
                e.seq_len(evidence.len());
                for ev in evidence {
                    e.u64(ev.manifest.bundle_id);
                    e.u32(ev.manifest.connection);
                    e.seq_len(ev.manifest.hops.len());
                    for h in &ev.manifest.hops {
                        e.u64(h.0);
                    }
                    e.raw(&ev.manifest.mac);
                    e.seq_len(ev.receipts.len());
                    for r in &ev.receipts {
                        e.u64(r.bundle_id);
                        e.u32(r.connection);
                        e.u32(r.hop);
                        e.u64(r.forwarder.0);
                        e.raw(&r.mac);
                    }
                    match &ev.observed_hops {
                        None => e.bool(false),
                        Some(obs) => {
                            e.bool(true);
                            e.seq_len(obs.len());
                            for h in obs {
                                e.u64(h.0);
                            }
                        }
                    }
                }
            }

            match &fr.epoch {
                None => e.bool(false),
                Some(es) => {
                    e.bool(true);
                    for &c in &es.cursors {
                        e.usize(c);
                    }
                    for &x in &es.expected {
                        e.u64(x);
                    }
                    for &x in &es.validated {
                        e.u64(x);
                    }
                    e.seq_len(es.flagged.len());
                    for &f in &es.flagged {
                        e.usize(f);
                    }
                    e.u64(es.epochs_settled);
                    e.u64(es.payout_ops);
                    e.u64(es.batch_ops);
                    e.u64(es.receipts_netted);
                    e.u64(es.phantom_flagged);
                }
            }

            // Adversary counters: the layer's only mutable state (the plan
            // is a pure precomputed schedule, rebuilt from the config).
            e.u64(fr.adv.whitewash_events);
            e.u64(fr.adv.whitewash_evasions);
            e.u64(fr.adv.whitewash_archived);
            e.u64(fr.adv.free_rider_refusals);
            e.u64(fr.adv.phantom_injected);

            // Durable-bank block (v3). The WAL image is the source of
            // truth for ledger state: restore replays it through the same
            // crash-recovery path a real restart would use. Alongside it,
            // only the state the log cannot reproduce: the node-to-account
            // map, the flush/epoch position keys, and the counters.
            match &fr.bank {
                None => e.bool(false),
                Some(bank) => {
                    e.bool(true);
                    let (wal, accounts, flushes, epochs, counters) = bank.snapshot_parts();
                    e.seq_len(wal.len());
                    e.raw(wal);
                    e.seq_len(accounts.len());
                    for (&node, acct) in accounts {
                        e.u64(node);
                        e.u64(acct.0);
                    }
                    e.u64(flushes);
                    e.u64(epochs);
                    e.u64(counters.crashes);
                    e.u64(counters.torn_tails);
                    e.u64(counters.records_replayed);
                    e.u64(counters.monitor_checks);
                    e.u64(counters.monitor_violations);
                }
            }
        }
    }

    e.seal_frame()
}

/// Rebuilds a run + engine pair from a snapshot taken under the same
/// scenario configuration.
///
/// The world is regenerated from the seed, a fresh run is built locally,
/// and only then is the serialized trajectory state swapped in — so a
/// decode failure at any depth returns a typed [`SimError`] with no
/// partial mutation anywhere.
pub fn restore(
    cfg: &ScenarioConfig,
    bytes: &[u8],
) -> Result<(SimulationRun, Engine<Ev>), SimError> {
    let payload = unframe(bytes, SNAPSHOT_VERSION).map_err(codec)?;
    let mut d = Dec::new(payload);

    if d.u64().map_err(codec)? != config_fingerprint(cfg) {
        return Err(mismatch("configuration fingerprint"));
    }

    let world = World::try_generate(cfg)?;
    let mut run = SimulationRun::new(*cfg, world);
    let n_nodes = cfg.n_nodes;
    let n_pairs = run.world.pairs.len();

    // Engine clock and calendar.
    let now = d.time().map_err(codec)?;
    let events_handled = d.u64().map_err(codec)?;
    let next_seq = d.u64().map_err(codec)?;
    let n_entries = d.seq_len(17).map_err(codec)?;
    let mut entries = Vec::with_capacity(n_entries);
    for _ in 0..n_entries {
        let t = d.time().map_err(codec)?;
        if t < now {
            return Err(mismatch("calendar entry before now"));
        }
        let seq = d.u64().map_err(codec)?;
        if seq >= next_seq {
            return Err(mismatch("calendar sequence number"));
        }
        entries.push((t, seq, dec_ev(&mut d, n_nodes, n_pairs)?));
    }
    let n_cancelled = d.seq_len(8).map_err(codec)?;
    let mut cancelled = Vec::with_capacity(n_cancelled);
    for _ in 0..n_cancelled {
        let seq = d.u64().map_err(codec)?;
        if seq >= next_seq {
            return Err(mismatch("cancelled sequence number"));
        }
        cancelled.push(seq);
    }

    let mut routing_state = [0u64; 4];
    for w in &mut routing_state {
        *w = d.u64().map_err(codec)?;
    }
    run.routing_rng = Xoshiro256StarStar::from_state(routing_state);

    run.connections = d.u64().map_err(codec)?;

    let n_crashed = d.seq_len(8).map_err(codec)?;
    if n_crashed != run.crashed_until.len() {
        return Err(mismatch("crash overlay length"));
    }
    for slot in &mut run.crashed_until {
        let t = finite(d.f64().map_err(codec)?, "crash horizon")?;
        if t < 0.0 {
            return Err(mismatch("crash horizon"));
        }
        *slot = t;
    }

    let n_costs = d.seq_len(8).map_err(codec)?;
    if n_costs != n_pairs {
        return Err(mismatch("initiator cost length"));
    }
    for slot in &mut run.initiator_costs {
        *slot = finite(d.f64().map_err(codec)?, "initiator cost")?;
    }

    let n_time_pairs = d.seq_len(8).map_err(codec)?;
    if n_time_pairs != n_pairs {
        return Err(mismatch("workload pair count"));
    }
    for p in &mut run.world.pairs {
        let n_times = d.seq_len(8).map_err(codec)?;
        if n_times > cfg.max_connections as usize {
            return Err(mismatch("pair connection count"));
        }
        let mut times = Vec::with_capacity(n_times);
        for _ in 0..n_times {
            let t = finite(d.f64().map_err(codec)?, "transmission time")?;
            if t < 0.0 || times.last().is_some_and(|&prev| t < prev) {
                return Err(mismatch("transmission time order"));
            }
            times.push(t);
        }
        p.times = times;
    }

    for b in &mut run.bundles {
        let n_tallies = d.seq_len(21).map_err(codec)?;
        let mut tallies: Vec<(NodeId, ForwarderTally)> = Vec::with_capacity(n_tallies);
        for _ in 0..n_tallies {
            let node = idx(d.usize().map_err(codec)?, n_nodes, "tally node")?;
            if tallies.last().is_some_and(|(prev, _)| prev.index() >= node) {
                return Err(mismatch("tally node order"));
            }
            let instances = d.u64().map_err(codec)?;
            let transmission_cost = finite(d.f64().map_err(codec)?, "transmission cost")?;
            let participated = d.bool().map_err(codec)?;
            tallies.push((
                NodeId(node),
                ForwarderTally {
                    instances,
                    transmission_cost,
                    participated,
                },
            ));
        }
        let connections = d.u32().map_err(codec)?;
        let total_hops = d.u64().map_err(codec)?;
        *b = BundleAccounting::from_snapshot(tallies, connections, total_hops);
    }

    for tr in &mut run.trackers {
        let n_edges = d.seq_len(16).map_err(codec)?;
        let mut edges = Vec::with_capacity(n_edges);
        for _ in 0..n_edges {
            let a = idx(d.usize().map_err(codec)?, n_nodes, "tracker edge")?;
            let b = idx(d.usize().map_err(codec)?, n_nodes, "tracker edge")?;
            edges.push((NodeId(a), NodeId(b)));
        }
        let connections = d.u32().map_err(codec)?;
        let new_edges = d.u64().map_err(codec)?;
        let total_edges = d.u64().map_err(codec)?;
        let reformed = d.u32().map_err(codec)?;
        *tr =
            ReformationTracker::from_snapshot(edges, connections, new_edges, total_edges, reformed);
    }

    for at in &mut run.attacks {
        let observations = d.u32().map_err(codec)?;
        let candidates = if d.bool().map_err(codec)? {
            let n = d.seq_len(8).map_err(codec)?;
            let mut c = Vec::with_capacity(n);
            for _ in 0..n {
                c.push(NodeId(idx(
                    d.usize().map_err(codec)?,
                    n_nodes,
                    "attack candidate",
                )?));
            }
            Some(c)
        } else {
            None
        };
        *at = IntersectionAttack::from_snapshot(observations, candidates);
    }

    // History arena: replay every record through the write path.
    let mut histories = HistoryArena::with_capacity(
        cfg.n_nodes,
        cfg.resolved_history_shards(),
        cfg.history_capacity,
    );
    {
        let mut ex = histories.exclusive();
        let n_cells = d.seq_len(27).map_err(codec)?;
        for _ in 0..n_cells {
            let node = d.u64().map_err(codec)?;
            idx(node as usize, n_nodes, "history node")?;
            let bundle = d.u64().map_err(codec)?;
            idx(bundle as usize, n_pairs, "history bundle")?;
            let n_records = d.seq_len(20).map_err(codec)?;
            for _ in 0..n_records {
                let connection = d.u32().map_err(codec)?;
                let pred = idx(d.usize().map_err(codec)?, n_nodes, "history predecessor")?;
                let succ = idx(d.usize().map_err(codec)?, n_nodes, "history successor")?;
                ex.record_hop(
                    NodeId(node as usize),
                    BundleId(bundle),
                    connection,
                    NodeId(pred),
                    NodeId(succ),
                );
            }
        }
    }
    run.histories = histories;

    let n = d.seq_len(41).map_err(codec)?;
    let mut cells = Vec::with_capacity(n);
    let mut last: Option<usize> = None;
    for _ in 0..n {
        let i = idx(d.usize().map_err(codec)?, n_nodes, "probe cell node")?;
        if last.is_some_and(|prev| prev >= i) {
            return Err(mismatch("probe cell order"));
        }
        last = Some(i);
        let est = dec_probe_est(&mut d, cfg, i)?;
        let synced_tick = d.u64().map_err(codec)?;
        let touch = d.u64().map_err(codec)?;
        cells.push((i, ProbeCellState { est, synced_tick }, touch));
    }
    let stats = dec_residency(&mut d)?;
    run.probes
        .restore_cells(ProbeCellsSnapshot { cells, stats })
        .map_err(mismatch)?;

    let slab_present = d.bool().map_err(codec)?;
    match (&mut run.slab, slab_present) {
        (None, false) => {}
        (Some(slab), true) => slab.set_last_sweep_tick(d.u64().map_err(codec)?),
        _ => return Err(mismatch("idle eviction")),
    }

    let windows_present = d.bool().map_err(codec)?;
    match (run.windows.is_some(), windows_present) {
        (false, false) => {}
        (true, true) => {
            let n = d.seq_len(32).map_err(codec)?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let scheduled = d.u64().map_err(codec)?;
                let delivered = d.u64().map_err(codec)?;
                let retries = d.u64().map_err(codec)?;
                let payoff = d.u64().map_err(codec)?;
                finite(f64::from_bits(payoff), "window payoff")?;
                rows.push((scheduled, delivered, retries, payoff));
            }
            run.windows = Some(WindowCollector::from_snapshot(
                cfg.window_len,
                cfg.window_warmup,
                &rows,
            ));
        }
        _ => return Err(mismatch("windowed metrics")),
    }

    let fault_present = d.bool().map_err(codec)?;
    match (&mut run.fault, fault_present) {
        (None, false) => {}
        (Some(fr), true) => {
            let scheduled = d.u64().map_err(codec)?;
            let delivered = d.u64().map_err(codec)?;
            let abandoned = d.u64().map_err(codec)?;
            let retries = d.u64().map_err(codec)?;
            let latency_bits = d.u64().map_err(codec)?;
            finite(f64::from_bits(latency_bits), "latency sum")?;
            let latency_count = d.u64().map_err(codec)?;
            fr.delivery = DeliveryTracker::from_snapshot((
                scheduled,
                delivered,
                abandoned,
                retries,
                latency_bits,
                latency_count,
            ));

            let n = d.seq_len(8).map_err(codec)?;
            if n != n_pairs {
                return Err(mismatch("completion time length"));
            }
            for slot in &mut fr.last_completion {
                *slot = finite(d.f64().map_err(codec)?, "completion time")?;
            }

            let n_ledgers = d.seq_len(16).map_err(codec)?;
            let mut last: Option<usize> = None;
            for _ in 0..n_ledgers {
                let initiator = idx(d.usize().map_err(codec)?, n_nodes, "ledger initiator")?;
                if last.is_some_and(|prev| prev >= initiator) {
                    return Err(mismatch("ledger order"));
                }
                last = Some(initiator);
                let n_entries = d.seq_len(18).map_err(codec)?;
                let mut entries = Vec::with_capacity(n_entries);
                let mut last_relay: Option<usize> = None;
                for _ in 0..n_entries {
                    let relay = idx(d.usize().map_err(codec)?, n_nodes, "ledger relay")?;
                    if last_relay.is_some_and(|prev| prev >= relay) {
                        return Err(mismatch("ledger relay order"));
                    }
                    last_relay = Some(relay);
                    let drops = d.u32().map_err(codec)?;
                    let timeouts = d.u32().map_err(codec)?;
                    let flagged = d.bool().map_err(codec)?;
                    entries.push((relay, drops, timeouts, flagged));
                }
                *fr.reputation.get_mut(initiator) =
                    EdgeReputation::from_snapshot(n_nodes, &entries);
            }

            let n_retired = d.seq_len(9).map_err(codec)?;
            let mut retired = Vec::with_capacity(n_retired);
            let mut last_init: Option<usize> = None;
            for _ in 0..n_retired {
                let initiator = idx(d.usize().map_err(codec)?, n_nodes, "retired initiator")?;
                if last_init.is_some_and(|prev| prev >= initiator) {
                    return Err(mismatch("retired initiator order"));
                }
                last_init = Some(initiator);
                let n_relays = d.seq_len(9).map_err(codec)?;
                let mut relays = Vec::with_capacity(n_relays);
                let mut last_relay: Option<usize> = None;
                for _ in 0..n_relays {
                    let relay = idx(d.usize().map_err(codec)?, n_nodes, "retired relay")?;
                    if last_relay.is_some_and(|prev| prev >= relay) {
                        return Err(mismatch("retired relay order"));
                    }
                    last_relay = Some(relay);
                    let n_gens = d.seq_len(9).map_err(codec)?;
                    let mut gens = Vec::with_capacity(n_gens);
                    for _ in 0..n_gens {
                        let drops = d.u32().map_err(codec)?;
                        let timeouts = d.u32().map_err(codec)?;
                        let flagged = d.bool().map_err(codec)?;
                        gens.push((drops, timeouts, flagged));
                    }
                    relays.push((relay, gens));
                }
                retired.push((initiator, relays));
            }
            fr.reputation.restore_retired(&retired);

            let n_until = d.seq_len(8).map_err(codec)?;
            if n_until != n_nodes {
                return Err(mismatch("probe invalidation length"));
            }
            let mut until = Vec::with_capacity(n_until);
            for _ in 0..n_until {
                let t = finite(d.f64().map_err(codec)?, "invalidation horizon")?;
                if t < 0.0 {
                    return Err(mismatch("invalidation horizon"));
                }
                until.push(t);
            }
            fr.probe_invalid = ProbeInvalidation::from_snapshot(until);

            for (pair, v) in fr.validators.iter_mut().enumerate() {
                let n_evidence = d.seq_len(29).map_err(codec)?;
                let mut evidence = Vec::with_capacity(n_evidence);
                for _ in 0..n_evidence {
                    let bundle_id = d.u64().map_err(codec)?;
                    let connection = d.u32().map_err(codec)?;
                    let n_hops = d.seq_len(8).map_err(codec)?;
                    let mut hops = Vec::with_capacity(n_hops);
                    for _ in 0..n_hops {
                        hops.push(AccountId(d.u64().map_err(codec)?));
                    }
                    let mut mac = [0u8; 32];
                    mac.copy_from_slice(d.raw(32).map_err(codec)?);
                    let manifest = PathManifest {
                        bundle_id,
                        connection,
                        hops,
                        mac,
                    };
                    let n_receipts = d.seq_len(52).map_err(codec)?;
                    let mut receipts = Vec::with_capacity(n_receipts);
                    for _ in 0..n_receipts {
                        let bundle_id = d.u64().map_err(codec)?;
                        let connection = d.u32().map_err(codec)?;
                        let hop = d.u32().map_err(codec)?;
                        let forwarder = AccountId(d.u64().map_err(codec)?);
                        let mut mac = [0u8; 32];
                        mac.copy_from_slice(d.raw(32).map_err(codec)?);
                        receipts.push(Receipt {
                            bundle_id,
                            connection,
                            hop,
                            forwarder,
                            mac,
                        });
                    }
                    let observed_hops = if d.bool().map_err(codec)? {
                        let n_obs = d.seq_len(8).map_err(codec)?;
                        let mut obs = Vec::with_capacity(n_obs);
                        for _ in 0..n_obs {
                            obs.push(AccountId(d.u64().map_err(codec)?));
                        }
                        Some(obs)
                    } else {
                        None
                    };
                    evidence.push(ConnectionEvidence {
                        manifest,
                        receipts,
                        observed_hops,
                    });
                }
                *v = PathValidator::from_snapshot(&fr.keys[pair], pair as u64, evidence);
            }

            let epoch_present = d.bool().map_err(codec)?;
            match (&mut fr.epoch, epoch_present) {
                (None, false) => {}
                (Some(es), true) => {
                    for (pair, slot) in es.cursors.iter_mut().enumerate() {
                        let c = d.usize().map_err(codec)?;
                        if c > fr.validators[pair].connections() {
                            return Err(mismatch("epoch cursor"));
                        }
                        *slot = c;
                    }
                    for slot in &mut es.expected {
                        *slot = d.u64().map_err(codec)?;
                    }
                    for slot in &mut es.validated {
                        *slot = d.u64().map_err(codec)?;
                    }
                    let n_flagged = d.seq_len(8).map_err(codec)?;
                    let mut last: Option<usize> = None;
                    for _ in 0..n_flagged {
                        let f = idx(d.usize().map_err(codec)?, n_nodes, "flagged forwarder")?;
                        if last.is_some_and(|prev| prev >= f) {
                            return Err(mismatch("flagged order"));
                        }
                        last = Some(f);
                        es.flagged.insert(f);
                    }
                    es.epochs_settled = d.u64().map_err(codec)?;
                    es.payout_ops = d.u64().map_err(codec)?;
                    es.batch_ops = d.u64().map_err(codec)?;
                    es.receipts_netted = d.u64().map_err(codec)?;
                    es.phantom_flagged = d.u64().map_err(codec)?;
                }
                _ => return Err(mismatch("settlement mode")),
            }

            fr.adv.whitewash_events = d.u64().map_err(codec)?;
            fr.adv.whitewash_evasions = d.u64().map_err(codec)?;
            fr.adv.whitewash_archived = d.u64().map_err(codec)?;
            fr.adv.free_rider_refusals = d.u64().map_err(codec)?;
            fr.adv.phantom_injected = d.u64().map_err(codec)?;

            let bank_present = d.bool().map_err(codec)?;
            match (fr.bank.is_some(), bank_present) {
                (false, false) => {}
                (true, true) => {
                    let wal_len = d.seq_len(1).map_err(codec)?;
                    let wal = d.raw(wal_len).map_err(codec)?.to_vec();
                    let n_accounts = d.seq_len(16).map_err(codec)?;
                    let mut accounts: BTreeMap<u64, AccountId> = BTreeMap::new();
                    let mut last: Option<u64> = None;
                    for _ in 0..n_accounts {
                        let node = d.u64().map_err(codec)?;
                        if last.is_some_and(|prev| prev >= node) {
                            return Err(mismatch("bank account node order"));
                        }
                        idx(node as usize, n_nodes, "bank account node")?;
                        last = Some(node);
                        let acct = AccountId(d.u64().map_err(codec)?);
                        accounts.insert(node, acct);
                    }
                    let flushes = d.u64().map_err(codec)?;
                    let epochs = d.u64().map_err(codec)?;
                    let counters = DurabilityCounters {
                        crashes: d.u64().map_err(codec)?,
                        torn_tails: d.u64().map_err(codec)?,
                        records_replayed: d.u64().map_err(codec)?,
                        monitor_checks: d.u64().map_err(codec)?,
                        monitor_violations: d.u64().map_err(codec)?,
                    };
                    fr.bank = Some(BankDurabilityState::restore(
                        &wal,
                        accounts,
                        cfg.settlement == SettlementMode::Epoch,
                        flushes,
                        epochs,
                        counters,
                    ));
                }
                _ => return Err(mismatch("bank durability presence")),
            }
        }
        _ => return Err(mismatch("fault block presence")),
    }

    d.finish().map_err(codec)?;

    let engine = Engine::from_parts(
        Calendar::from_snapshot(entries, cancelled, next_seq),
        now,
        events_handled,
    );
    Ok((run, engine))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::scenario::{BankDurability, WorkloadMode};
    use idpa_desim::{FaultConfig, SimTime, StopReason};

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
            let world = World::generate(&c);
            let mut run = SimulationRun::new(c, world);
            let mut engine = Engine::new();
            run.schedule_all(&mut engine);
            engine.set_event_budget(80);
            engine.run(&mut run, Some(SimTime::new(c.churn.horizon)));
            let mut bytes = encode(&run, &engine);
            let header = idpa_desim::codec::FRAME_HEADER_LEN;
            bytes[header..header + 8].copy_from_slice(&config_fingerprint(&other).to_le_bytes());
            let n = bytes.len();
            let sum = idpa_desim::codec::frame_checksum(&bytes[header..n - 8]);
            bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
            match restore(&other, &bytes) {
                Ok(_) => panic!("slab presence {taken:?} -> {resumed:?} must be rejected"),
                Err(err) => assert_eq!(err, mismatch("idle eviction")),
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
