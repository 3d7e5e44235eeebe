//! Sparse per-node runtime state.
//!
//! A node's runtime state (probe cell, reputation ledger) exists only
//! while the node is *active*: the probe cell materializes from the
//! analytic churn schedule on first touch (see
//! [`idpa_overlay::LazyProbeSet`]) and can be evicted back to nothing when
//! idle, and an initiator's fault ledger materializes on its first
//! recorded observation. Both re-materialize value-identically — the probe
//! cell because it is a pure function of (schedules, streams, tick), the
//! ledger because an absent ledger *is* the clean ledger (see
//! [`idpa_core::reputation::EdgeReputation`]'s sparse semantics) and
//! recorded fault counts are never thrown away.
//!
//! [`NodeSlab`] is the sweep driver: a deterministic, event-time-keyed
//! cadence that evicts idle probe cells. Eviction is value-invisible, so
//! the cadence is pure policy — any sweep schedule yields bit-identical
//! run results; only the residency statistics move.

use std::collections::HashMap;

use idpa_core::reputation::EdgeReputation;
use idpa_desim::rng::Mix64State;
use idpa_overlay::LazyProbeSet;

/// Storage for per-initiator fault ledgers. Ledgers materialize on the
/// first recorded observation. An absent ledger reads as the shared clean
/// ledger, which is value-identical to a fresh [`EdgeReputation`] — so
/// reads never materialize.
#[derive(Debug, Clone)]
pub struct ReputationStore {
    /// Ledger dimension handed to on-demand materialization.
    n_nodes: usize,
    /// Materialized ledgers, keyed by initiator index.
    ledgers: HashMap<usize, EdgeReputation, Mix64State>,
    /// The shared read target for initiators with no ledger yet.
    clean: EdgeReputation,
}

impl ReputationStore {
    /// An empty store: no ledgers until a fault is recorded.
    #[must_use]
    pub fn new(n_nodes: usize) -> Self {
        ReputationStore {
            n_nodes,
            ledgers: HashMap::default(),
            clean: EdgeReputation::new(n_nodes),
        }
    }

    /// Initiator `i`'s ledger for reading. A read of an absent ledger
    /// returns the clean ledger (score 1, nothing suppressed).
    #[must_use]
    pub fn get(&self, i: usize) -> &EdgeReputation {
        self.ledgers.get(&i).unwrap_or(&self.clean)
    }

    /// Initiator `i`'s ledger for writing, materializing it if absent.
    pub fn get_mut(&mut self, i: usize) -> &mut EdgeReputation {
        let n_nodes = self.n_nodes;
        self.ledgers
            .entry(i)
            .or_insert_with(|| EdgeReputation::new(n_nodes))
    }

    /// Number of ledgers currently allocated.
    #[must_use]
    pub fn materialized(&self) -> usize {
        self.ledgers.len()
    }

    /// Summed heap estimate of all ledger observations.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.ledgers
            .values()
            .map(EdgeReputation::approx_bytes)
            .sum()
    }

    /// Whitewashes relay `v` across every materialized ledger: each
    /// active entry for `v` is archived into its ledger's retired store
    /// (see [`EdgeReputation::whitewash`]) so the fresh identity reads
    /// clean while the evidence survives. An absent ledger is the clean
    /// ledger and holds nothing for `v`, so skipping it changes nothing.
    ///
    /// Returns `(archived, evaded)`: how many ledgers held an active
    /// entry for `v`, and in how many of those `v` was suppressed at the
    /// moment of the wash — the suppression the fresh identity escapes.
    /// Both are order-independent sums, and the wash of one ledger never
    /// reads another, so the map's iteration order cannot show.
    pub fn whitewash_node(&mut self, v: idpa_overlay::NodeId) -> (usize, usize) {
        let mut archived = 0usize;
        let mut evaded = 0usize;
        for ledger in self.ledgers.values_mut() {
            let suppressed = ledger.is_suppressed(v);
            if ledger.whitewash(v) {
                archived += 1;
                if suppressed {
                    evaded += 1;
                }
            }
        }
        (archived, evaded)
    }

    /// Snapshot export: `(initiator, ledger entries)` for every
    /// materialized ledger, sorted by initiator index, so residency
    /// statistics survive a resume.
    #[must_use]
    pub fn snapshot_ledgers(&self) -> Vec<(usize, LedgerEntries)> {
        let mut out: Vec<(usize, LedgerEntries)> = self
            .ledgers
            .iter()
            .map(|(&i, l)| (i, l.snapshot_entries()))
            .collect();
        out.sort_unstable_by_key(|e| e.0);
        out
    }

    /// Snapshot export of the retired (whitewashed) archives:
    /// `(initiator, retired rows)` for every ledger holding at least one
    /// retired generation, sorted by initiator index.
    #[must_use]
    pub fn snapshot_retired(&self) -> Vec<(usize, RetiredEntries)> {
        let mut out: Vec<(usize, RetiredEntries)> = self
            .ledgers
            .iter()
            .map(|(&i, l)| (i, l.snapshot_retired()))
            .filter(|(_, r)| !r.is_empty())
            .collect();
        out.sort_unstable_by_key(|e| e.0);
        out
    }

    /// Restores retired archives exported by
    /// [`ReputationStore::snapshot_retired`]. Every initiator in the
    /// export had a materialized ledger at snapshot time (an archive is
    /// only ever created by washing a materialized active entry), so
    /// materializing through `get_mut` reproduces the interrupted run's
    /// residency exactly.
    pub fn restore_retired(&mut self, entries: &[(usize, RetiredEntries)]) {
        for (i, rows) in entries {
            self.get_mut(*i).restore_retired(rows);
        }
    }
}

/// One ledger's snapshot rows: `(relay, drops, timeouts, flagged)` per
/// recorded relay — the shape [`EdgeReputation::snapshot_entries`] exports.
pub type LedgerEntries = Vec<(usize, u32, u32, bool)>;

/// One ledger's retired archive rows: per relay, the
/// `(drops, timeouts, flagged)` of each whitewashed generation in wash
/// order — the shape [`EdgeReputation::snapshot_retired`] exports.
pub type RetiredEntries = Vec<(usize, Vec<(u32, u32, bool)>)>;

/// The idle-eviction sweeper (present only when
/// [`crate::ScenarioConfig::evict_idle_ticks`] is set).
///
/// Sweeps are keyed to probe ticks of the event clock, so the cadence is a
/// deterministic function of simulation time — but since eviction is
/// value-invisible (evicted state reconstructs bit-identically on
/// re-touch), the cadence only shapes the residency statistics, never a
/// result.
#[derive(Debug, Clone)]
pub struct NodeSlab {
    period: f64,
    evict_idle_ticks: u64,
    /// Sweep every this many ticks — half the idle window, so a cell is
    /// evicted at most 1.5× the window after its last touch.
    sweep_every: u64,
    last_sweep_tick: u64,
}

impl NodeSlab {
    /// A sweeper evicting state idle for `evict_idle_ticks` probe ticks
    /// (of length `period` minutes each).
    #[must_use]
    pub fn new(evict_idle_ticks: u64, period: f64) -> Self {
        assert!(evict_idle_ticks >= 1, "idle window must be >= 1 tick");
        assert!(period > 0.0, "probe period must be positive");
        NodeSlab {
            period,
            evict_idle_ticks,
            sweep_every: (evict_idle_ticks / 2).max(1),
            last_sweep_tick: 0,
        }
    }

    /// Snapshot export: the tick of the last sweep that ran. This is the
    /// slab's only mutable state — the cadence parameters are rebuilt from
    /// configuration on resume.
    #[must_use]
    pub fn last_sweep_tick(&self) -> u64 {
        self.last_sweep_tick
    }

    /// Restores the last-sweep tick from a snapshot, so the post-resume
    /// sweep cadence continues exactly where the interrupted run left off.
    pub fn set_last_sweep_tick(&mut self, tick: u64) {
        self.last_sweep_tick = tick;
    }

    /// Runs an eviction sweep over `probes` if one is due at `now`.
    /// Returns the number of cells evicted (0 when no sweep ran).
    pub fn maybe_sweep(&mut self, probes: &LazyProbeSet, now: f64) -> usize {
        let tick = (now / self.period) as u64;
        if tick < self.last_sweep_tick + self.sweep_every {
            return 0;
        }
        self.last_sweep_tick = tick;
        probes.evict_idle(now, self.evict_idle_ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idpa_overlay::NodeId;

    #[test]
    fn reads_see_the_clean_ledger_without_materializing() {
        let store = ReputationStore::new(6);
        let clean = EdgeReputation::new(6);
        for i in 0..6 {
            assert_eq!(store.get(i), &clean);
            for v in 0..6 {
                assert_eq!(store.get(i).score(NodeId(v)), 1.0);
                assert!(!store.get(i).is_suppressed(NodeId(v)));
            }
        }
        assert_eq!(store.materialized(), 0, "reads must not materialize");
        assert_eq!(store.approx_bytes(), 0);
    }

    #[test]
    fn writes_materialize_only_the_written_ledgers() {
        let mut store = ReputationStore::new(5);
        let mut ledgers = vec![EdgeReputation::new(5); 5];
        store.get_mut(2).record_drop(NodeId(4));
        store.get_mut(2).record_timeout(NodeId(4));
        store.get_mut(0).flag_cheater(NodeId(1));
        ledgers[2].record_drop(NodeId(4));
        ledgers[2].record_timeout(NodeId(4));
        ledgers[0].flag_cheater(NodeId(1));
        assert_eq!(store.materialized(), 2);
        for (i, ledger) in ledgers.iter().enumerate() {
            assert_eq!(store.get(i), ledger, "ledger {i}");
        }
        let bytes: usize = ledgers.iter().map(EdgeReputation::approx_bytes).sum();
        assert_eq!(store.approx_bytes(), bytes);
        assert!(store.get(2).is_suppressed(NodeId(4)));
    }

    #[test]
    fn whitewash_node_archives_and_counts_evasions() {
        let mut store = ReputationStore::new(5);
        // Suppress node 4 in ledger 2, record-but-not-suppress it in
        // ledger 0, and leave ledger 1 untouched.
        for _ in 0..3 {
            store.get_mut(2).record_drop(NodeId(4));
        }
        store.get_mut(0).record_timeout(NodeId(4));
        assert_eq!(store.whitewash_node(NodeId(4)), (2, 1));
        // Second wash: nothing active remains anywhere.
        assert_eq!(store.whitewash_node(NodeId(4)), (0, 0));
        assert_eq!(store.snapshot_retired().len(), 2);
        assert_eq!(store.materialized(), 2, "washing never materializes");
        // Fresh identity reads clean; the evidence survived.
        assert!(!store.get(2).is_suppressed(NodeId(4)));
        assert_eq!(store.get(2).score(NodeId(4)), 1.0);
        assert_eq!(store.get(2).retired_fault_count(NodeId(4)), 3);
        // Round trip through a fresh store.
        let mut restored = ReputationStore::new(5);
        restored.restore_retired(&store.snapshot_retired());
        assert_eq!(restored.snapshot_retired(), store.snapshot_retired());
    }

    #[test]
    fn sweep_cadence_is_tick_gated() {
        use idpa_desim::rng::StreamFactory;
        use idpa_netmodel::NodeSchedule;
        use idpa_overlay::Topology;
        use std::sync::Arc;
        let schedules = Arc::new(vec![
            NodeSchedule::from_sessions(vec![(0.0, 200.0)]),
            NodeSchedule::from_sessions(vec![(0.0, 200.0)]),
        ]);
        let neighbors = Arc::new(Topology::from_lists(vec![vec![NodeId(1)], vec![NodeId(0)]]));
        let probes = LazyProbeSet::new_sparse(
            5.0,
            200.0,
            schedules,
            neighbors,
            None,
            StreamFactory::new(1),
        );
        let mut slab = NodeSlab::new(4, 5.0);
        let _ = probes.availability(NodeId(0), NodeId(1), 10.0);
        // Inside the first cadence window: no sweep.
        assert_eq!(slab.maybe_sweep(&probes, 5.0), 0);
        // Far past the idle window: the due sweep evicts the idle cell.
        assert_eq!(slab.maybe_sweep(&probes, 150.0), 1);
        assert_eq!(probes.residency().materialized, 0);
    }
}
