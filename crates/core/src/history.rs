//! Connection history profiles (§2.3, Table 1).
//!
//! "Each node stores history information about connections passing through
//! it. Thus if a node s lies on a path π^i with connection identifier cid,
//! it stores the corresponding predecessor and successor hops. ... The
//! ratio of the number of entries corresponding to (s, v) and the maximum
//! possible entries (k − 1) is called its selectivity."
//!
//! Records are keyed by bundle so that selectivity for connection `k` of a
//! bundle looks only at that bundle's earlier connections, and the
//! predecessor is stored so a node occupying two positions on one path can
//! distinguish its outgoing edges per position.

use std::collections::HashMap;

use idpa_desim::rng::Mix64State;
use idpa_overlay::NodeId;

use crate::bundle::BundleId;

/// One history record — the paper's Table 1 row, extended with the bundle
/// and connection index that scope it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryRecord {
    /// The bundle (set of recurring connections) the path belonged to.
    pub bundle: BundleId,
    /// Connection index within the bundle (`π^i`).
    pub connection: u32,
    /// Predecessor hop (the paper's "Predecessor" column).
    pub predecessor: NodeId,
    /// Successor hop (the paper's "Successor" column).
    pub successor: NodeId,
}

/// A multiset of connection indices, kept sorted with per-index
/// reference counts.
///
/// This is the selectivity index's leaf: for one `(bundle, successor)` (or
/// `(bundle, predecessor, successor)`) key it answers "on how many
/// *distinct* prior connections did this edge appear?" without scanning
/// records. The refcount absorbs duplicate records on one connection (a
/// node occupying two positions on a path) so eviction of one duplicate
/// does not lose the connection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ConnCounter {
    /// `(connection, records carrying it)`, sorted by connection.
    entries: Vec<(u32, u32)>,
}

impl ConnCounter {
    /// Registers one record for `conn`.
    pub(crate) fn add(&mut self, conn: u32) {
        match self.entries.binary_search_by_key(&conn, |&(c, _)| c) {
            Ok(i) => self.entries[i].1 += 1,
            // Records almost always arrive in connection order, so the
            // insertion point is almost always the end: O(1) amortised.
            Err(i) => self.entries.insert(i, (conn, 1)),
        }
    }

    /// Unregisters one record for `conn` (eviction).
    pub(crate) fn remove(&mut self, conn: u32) {
        if let Ok(i) = self.entries.binary_search_by_key(&conn, |&(c, _)| c) {
            self.entries[i].1 -= 1;
            if self.entries[i].1 == 0 {
                self.entries.remove(i);
            }
        }
    }

    /// Number of distinct connections `< priors` — O(1) on the hot path
    /// (every retained connection is a prior), O(log n) otherwise.
    pub(crate) fn distinct_below(&self, priors: u32) -> usize {
        match self.entries.last() {
            None => 0,
            Some(&(last, _)) if last < priors => self.entries.len(),
            _ => self.entries.partition_point(|&(c, _)| c < priors),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Read access to bundle-scoped selectivity state, abstracted over the
/// storage layout.
///
/// The routing layer never cares *where* a node's Table 1 records live —
/// only what `σ(s, v)` they imply. Implementations exist for the classic
/// per-node layout (`[HistoryProfile]` / `Vec<HistoryProfile>`, indexed by
/// `NodeId`) and for the runner's [`crate::arena::HistoryArena`]. Both
/// keep their records in the same cell type, and the arena property suite
/// checks both against the rescan oracle.
pub trait HistoryRead {
    /// Selectivity `σ(s, v)` of node `s` toward `v` after `priors`
    /// completed connections of `bundle` — see
    /// [`HistoryProfile::selectivity`].
    fn selectivity_at(&self, s: NodeId, bundle: BundleId, priors: u32, v: NodeId) -> f64;

    /// Position-aware selectivity restricted to records whose predecessor
    /// matches — see [`HistoryProfile::selectivity_from`].
    fn selectivity_from_at(
        &self,
        s: NodeId,
        bundle: BundleId,
        priors: u32,
        predecessor: NodeId,
        v: NodeId,
    ) -> f64;
}

/// Write access to history storage: commit one Table 1 record for `node`.
///
/// Mirrors [`HistoryProfile::record`] (including the per-bundle retention
/// bound, which is a property of the storage, not of the caller).
pub trait HistoryWrite {
    /// Records that on connection `connection` of `bundle`, `node` received
    /// from `predecessor` and forwarded to `successor`.
    fn record_hop(
        &mut self,
        node: NodeId,
        bundle: BundleId,
        connection: u32,
        predecessor: NodeId,
        successor: NodeId,
    );
}

impl HistoryRead for [HistoryProfile] {
    fn selectivity_at(&self, s: NodeId, bundle: BundleId, priors: u32, v: NodeId) -> f64 {
        self[s.index()].selectivity(bundle, priors, v)
    }

    fn selectivity_from_at(
        &self,
        s: NodeId,
        bundle: BundleId,
        priors: u32,
        predecessor: NodeId,
        v: NodeId,
    ) -> f64 {
        self[s.index()].selectivity_from(bundle, priors, predecessor, v)
    }
}

impl HistoryWrite for [HistoryProfile] {
    fn record_hop(
        &mut self,
        node: NodeId,
        bundle: BundleId,
        connection: u32,
        predecessor: NodeId,
        successor: NodeId,
    ) {
        self[node.index()].record(bundle, connection, predecessor, successor);
    }
}

impl HistoryRead for Vec<HistoryProfile> {
    fn selectivity_at(&self, s: NodeId, bundle: BundleId, priors: u32, v: NodeId) -> f64 {
        self.as_slice().selectivity_at(s, bundle, priors, v)
    }

    fn selectivity_from_at(
        &self,
        s: NodeId,
        bundle: BundleId,
        priors: u32,
        predecessor: NodeId,
        v: NodeId,
    ) -> f64 {
        self.as_slice()
            .selectivity_from_at(s, bundle, priors, predecessor, v)
    }
}

impl HistoryWrite for Vec<HistoryProfile> {
    fn record_hop(
        &mut self,
        node: NodeId,
        bundle: BundleId,
        connection: u32,
        predecessor: NodeId,
        successor: NodeId,
    ) {
        self.as_mut_slice()
            .record_hop(node, bundle, connection, predecessor, successor);
    }
}

/// Packs a `(predecessor, successor)` pair into one injective `u64` key.
fn pred_succ_key(predecessor: NodeId, successor: NodeId) -> u64 {
    debug_assert!(predecessor.index() < (1 << 32) && successor.index() < (1 << 32));
    ((predecessor.index() as u64) << 32) | successor.index() as u64
}

/// One node's history for one bundle: the retained records plus the
/// incremental selectivity indexes maintained alongside them. Append order
/// is arrival order, eviction drops the oldest first and unwinds both
/// indexes, and empty counters are removed. Both [`HistoryProfile`] and
/// [`crate::arena::HistoryArena`] store their records in this type.
#[derive(Debug, Clone, Default)]
pub(crate) struct BundleHistory {
    /// Retained records in insertion (connection) order.
    records: Vec<HistoryRecord>,
    /// `successor -> distinct prior connections` (drives `selectivity`).
    by_succ: HashMap<u64, ConnCounter, Mix64State>,
    /// `(predecessor, successor) -> distinct prior connections` (drives
    /// `selectivity_from`), keyed by [`pred_succ_key`].
    by_pred_succ: HashMap<u64, ConnCounter, Mix64State>,
}

impl BundleHistory {
    /// Appends one record, keeping at most `capacity` (oldest evicted).
    pub(crate) fn record(&mut self, record: HistoryRecord, capacity: Option<usize>) {
        self.by_succ
            .entry(record.successor.index() as u64)
            .or_default()
            .add(record.connection);
        self.by_pred_succ
            .entry(pred_succ_key(record.predecessor, record.successor))
            .or_default()
            .add(record.connection);
        self.records.push(record);
        if let Some(cap) = capacity {
            if self.records.len() > cap {
                let overflow = self.records.len() - cap;
                self.evict_oldest(overflow);
            }
        }
    }

    /// Evicts the `n` oldest records, unwinding the indexes.
    fn evict_oldest(&mut self, n: usize) {
        for old in self.records.drain(..n) {
            let succ_key = old.successor.index() as u64;
            if let Some(counter) = self.by_succ.get_mut(&succ_key) {
                counter.remove(old.connection);
                if counter.is_empty() {
                    self.by_succ.remove(&succ_key);
                }
            }
            let pair_key = pred_succ_key(old.predecessor, old.successor);
            if let Some(counter) = self.by_pred_succ.get_mut(&pair_key) {
                counter.remove(old.connection);
                if counter.is_empty() {
                    self.by_pred_succ.remove(&pair_key);
                }
            }
        }
    }

    /// Retained records, oldest first.
    pub(crate) fn records(&self) -> &[HistoryRecord] {
        &self.records
    }

    /// `σ(s, v)` after `priors` connections from an optional cell: zero
    /// priors or no records for the bundle yield `0.0`.
    pub(crate) fn selectivity(cell: Option<&Self>, priors: u32, v: NodeId) -> f64 {
        match cell {
            Some(c) if priors > 0 => {
                let count = c
                    .by_succ
                    .get(&(v.index() as u64))
                    .map_or(0, |c| c.distinct_below(priors));
                count as f64 / f64::from(priors)
            }
            _ => 0.0,
        }
    }

    /// Position-aware variant of [`BundleHistory::selectivity`].
    pub(crate) fn selectivity_from(
        cell: Option<&Self>,
        priors: u32,
        predecessor: NodeId,
        v: NodeId,
    ) -> f64 {
        match cell {
            Some(c) if priors > 0 => {
                let count = c
                    .by_pred_succ
                    .get(&pred_succ_key(predecessor, v))
                    .map_or(0, |c| c.distinct_below(priors));
                count as f64 / f64::from(priors)
            }
            _ => 0.0,
        }
    }
}

/// A node's history profile `H^k(s)`, with an optional retention bound.
///
/// Selectivity queries sit on the per-hop critical path of every
/// transmission (each candidate neighbor is scored with `σ(s, v)`), so the
/// profile maintains incremental per-`(bundle, successor)` and
/// per-`(bundle, predecessor, successor)` connection-count indexes in
/// [`HistoryProfile::record`]: `selectivity`/`selectivity_from` are O(1)
/// lookups instead of O(records) scans with a per-call `HashSet`
/// allocation. [`HistoryProfile::selectivity_rescan`] keeps the naive scan
/// as the reference oracle (property tests assert agreement under random
/// record/evict sequences; the bench harness uses it as the baseline).
#[derive(Debug, Clone)]
pub struct HistoryProfile {
    owner: NodeId,
    /// Per-bundle records and indexes.
    records: HashMap<BundleId, BundleHistory>,
    /// Maximum records retained per bundle (`None` = unbounded). The paper
    /// notes "the amount of history information stored at a node also
    /// influences the quality of the edge" — this is the ablation knob.
    capacity_per_bundle: Option<usize>,
}

impl HistoryProfile {
    /// Unbounded history for `owner`.
    #[must_use]
    pub fn new(owner: NodeId) -> Self {
        HistoryProfile {
            owner,
            records: HashMap::new(),
            capacity_per_bundle: None,
        }
    }

    /// History bounded to the most recent `capacity` records per bundle.
    #[must_use]
    pub fn with_capacity(owner: NodeId, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        HistoryProfile {
            owner,
            records: HashMap::new(),
            capacity_per_bundle: Some(capacity),
        }
    }

    /// The owning node.
    #[must_use]
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Records a hop: on connection `connection` of `bundle`, the owner
    /// received from `predecessor` and forwarded to `successor`.
    pub fn record(
        &mut self,
        bundle: BundleId,
        connection: u32,
        predecessor: NodeId,
        successor: NodeId,
    ) {
        self.records.entry(bundle).or_default().record(
            HistoryRecord {
                bundle,
                connection,
                predecessor,
                successor,
            },
            self.capacity_per_bundle,
        );
    }

    /// All retained records for a bundle (insertion order).
    #[must_use]
    pub fn bundle_records(&self, bundle: BundleId) -> &[HistoryRecord] {
        self.records
            .get(&bundle)
            .map_or(&[], BundleHistory::records)
    }

    /// Selectivity `σ(s, v)` when forming a new connection after `priors`
    /// completed connections of `bundle`: the number of those prior
    /// connections on which the owner forwarded to `v`, divided by the
    /// maximum possible `priors`.
    ///
    /// In the paper's 1-based notation this is the σ used while forming
    /// `π^k` with `priors = k − 1`. Zero-based connection indices
    /// `0..priors` are the priors. Multiple appearances of the edge on one
    /// prior connection (a node occupying two positions) count once — the
    /// numerator counts *connections*, matching the denominator.
    #[must_use]
    pub fn selectivity(&self, bundle: BundleId, priors: u32, v: NodeId) -> f64 {
        BundleHistory::selectivity(self.records.get(&bundle), priors, v)
    }

    /// Reference implementation of [`HistoryProfile::selectivity`] by
    /// full rescan of the retained records — the pre-index O(records)
    /// algorithm, kept as the oracle for property tests and as the
    /// benchmark baseline for the indexed fast path.
    #[must_use]
    pub fn selectivity_rescan(&self, bundle: BundleId, priors: u32, v: NodeId) -> f64 {
        if priors == 0 {
            return 0.0;
        }
        let mut seen = std::collections::HashSet::new();
        for r in self.bundle_records(bundle) {
            if r.connection < priors && r.successor == v {
                seen.insert(r.connection);
            }
        }
        seen.len() as f64 / f64::from(priors)
    }

    /// Position-aware selectivity: like [`HistoryProfile::selectivity`] but
    /// restricted to records whose predecessor matches — "by using the
    /// predecessor information, a node can differentiate between outgoing
    /// edges for two different positions on the same path".
    #[must_use]
    pub fn selectivity_from(
        &self,
        bundle: BundleId,
        priors: u32,
        predecessor: NodeId,
        v: NodeId,
    ) -> f64 {
        BundleHistory::selectivity_from(self.records.get(&bundle), priors, predecessor, v)
    }

    /// Reference implementation of [`HistoryProfile::selectivity_from`] by
    /// full rescan — see [`HistoryProfile::selectivity_rescan`].
    #[must_use]
    pub fn selectivity_from_rescan(
        &self,
        bundle: BundleId,
        priors: u32,
        predecessor: NodeId,
        v: NodeId,
    ) -> f64 {
        if priors == 0 {
            return 0.0;
        }
        let mut seen = std::collections::HashSet::new();
        for r in self.bundle_records(bundle) {
            if r.connection < priors && r.successor == v && r.predecessor == predecessor {
                seen.insert(r.connection);
            }
        }
        seen.len() as f64 / f64::from(priors)
    }

    /// Total records retained (all bundles).
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.values().map(|b| b.records.len()).sum()
    }

    /// Whether no records are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }
    const B: BundleId = BundleId(7);

    #[test]
    fn empty_profile_has_zero_selectivity() {
        let h = HistoryProfile::new(n(0));
        assert_eq!(h.selectivity(B, 5, n(1)), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn selectivity_counts_prior_connections() {
        let mut h = HistoryProfile::new(n(0));
        // Owner forwarded to node 1 on connections 0 and 2, to node 2 on 1.
        h.record(B, 0, n(9), n(1));
        h.record(B, 1, n(9), n(2));
        h.record(B, 2, n(9), n(1));
        // Forming the 4th connection, priors = 3: edge (s,1) appeared on
        // prior connections {0, 2} => 2/3; edge (s,2) on {1} => 1/3.
        assert!((h.selectivity(B, 3, n(1)) - 2.0 / 3.0).abs() < 1e-12);
        assert!((h.selectivity(B, 3, n(2)) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn selectivity_is_one_for_always_chosen_edge() {
        let mut h = HistoryProfile::new(n(0));
        for c in 0..4 {
            h.record(B, c, n(9), n(1));
        }
        // All 4 prior connections used (s,1) => σ = 4/4 = 1.
        assert_eq!(h.selectivity(B, 4, n(1)), 1.0);
    }

    #[test]
    fn duplicate_edge_on_one_connection_counts_once() {
        let mut h = HistoryProfile::new(n(0));
        // Node occupies two positions on connection 0, forwarding to n1
        // both times.
        h.record(B, 0, n(8), n(1));
        h.record(B, 0, n(9), n(1));
        assert_eq!(h.selectivity(B, 1, n(1)), 1.0);
    }

    #[test]
    fn position_aware_selectivity_distinguishes_predecessors() {
        let mut h = HistoryProfile::new(n(0));
        h.record(B, 0, n(8), n(1)); // position A forwards to 1
        h.record(B, 0, n(9), n(2)); // position B forwards to 2
        assert_eq!(h.selectivity_from(B, 1, n(8), n(1)), 1.0);
        assert_eq!(h.selectivity_from(B, 1, n(8), n(2)), 0.0);
        assert_eq!(h.selectivity_from(B, 1, n(9), n(2)), 1.0);
    }

    #[test]
    fn selectivity_scoped_per_bundle() {
        let mut h = HistoryProfile::new(n(0));
        h.record(BundleId(1), 0, n(9), n(1));
        assert_eq!(h.selectivity(BundleId(2), 2, n(1)), 0.0);
    }

    #[test]
    fn future_connections_do_not_count() {
        let mut h = HistoryProfile::new(n(0));
        h.record(B, 5, n(9), n(1)); // a later connection
        assert_eq!(h.selectivity(B, 3, n(1)), 0.0);
    }

    #[test]
    fn zero_priors_has_no_history() {
        let mut h = HistoryProfile::new(n(0));
        h.record(B, 0, n(9), n(1));
        assert_eq!(h.selectivity(B, 0, n(1)), 0.0);
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        let mut h = HistoryProfile::with_capacity(n(0), 2);
        h.record(B, 0, n(9), n(1));
        h.record(B, 1, n(9), n(2));
        h.record(B, 2, n(9), n(3));
        assert_eq!(h.bundle_records(B).len(), 2);
        // The record for connection 0 was evicted.
        assert_eq!(h.selectivity(B, 3, n(1)), 0.0);
        assert!((h.selectivity(B, 3, n(2)) - 1.0 / 3.0).abs() < 1e-12);
    }

    /// The tentpole's safety net: under random record sequences (with
    /// duplicates, out-of-order connections, and capacity eviction) the
    /// incremental index must agree exactly with a naive recount of the
    /// retained records, for every (priors, predecessor, successor) probe.
    #[test]
    fn index_agrees_with_rescan_under_random_sequences() {
        use idpa_desim::rng::Xoshiro256StarStar;
        use rand::RngExt;

        let mut rng = Xoshiro256StarStar::seed_from_u64(0xA11CE);
        for case in 0..300 {
            let capacity = match case % 3 {
                0 => None,
                1 => Some(1 + rng.random_range(0..4usize)),
                _ => Some(1 + rng.random_range(0..12usize)),
            };
            let mut h = match capacity {
                Some(cap) => HistoryProfile::with_capacity(n(0), cap),
                None => HistoryProfile::new(n(0)),
            };
            let ops = rng.random_range(1..40usize);
            for _ in 0..ops {
                let bundle = BundleId(rng.random_range(0..3u64));
                // Mostly monotone connections with occasional out-of-order
                // and duplicate indices.
                let conn = rng.random_range(0..12u32);
                let pred = n(rng.random_range(0..4usize));
                let succ = n(rng.random_range(0..5usize));
                h.record(bundle, conn, pred, succ);
            }
            for bundle in (0..3).map(BundleId) {
                for priors in 0..14u32 {
                    for v in (0..5).map(n) {
                        assert_eq!(
                            h.selectivity(bundle, priors, v).to_bits(),
                            h.selectivity_rescan(bundle, priors, v).to_bits(),
                            "case {case}: selectivity({bundle:?}, {priors}, {v:?})"
                        );
                        for pred in (0..4).map(n) {
                            assert_eq!(
                                h.selectivity_from(bundle, priors, pred, v).to_bits(),
                                h.selectivity_from_rescan(bundle, priors, pred, v).to_bits(),
                                "case {case}: selectivity_from({bundle:?}, {priors}, {pred:?}, {v:?})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rescan_matches_index_on_basic_profile() {
        let mut h = HistoryProfile::new(n(0));
        h.record(B, 0, n(9), n(1));
        h.record(B, 1, n(9), n(2));
        h.record(B, 2, n(9), n(1));
        assert_eq!(h.selectivity(B, 3, n(1)), h.selectivity_rescan(B, 3, n(1)));
        assert_eq!(
            h.selectivity_from(B, 3, n(9), n(2)),
            h.selectivity_from_rescan(B, 3, n(9), n(2))
        );
    }

    #[test]
    fn eviction_of_one_duplicate_keeps_the_connection_counted() {
        // Two records on connection 0 both forward to node 1; evicting one
        // of them (capacity 1) must keep σ = 1 because a record for the
        // connection remains.
        let mut h = HistoryProfile::with_capacity(n(0), 1);
        h.record(B, 0, n(8), n(1));
        h.record(B, 0, n(9), n(1));
        assert_eq!(h.bundle_records(B).len(), 1);
        assert_eq!(h.selectivity(B, 1, n(1)), 1.0);
        // The predecessor-scoped view lost the evicted position, kept the
        // surviving one.
        assert_eq!(h.selectivity_from(B, 1, n(8), n(1)), 0.0);
        assert_eq!(h.selectivity_from(B, 1, n(9), n(1)), 1.0);
    }

    #[test]
    fn bounded_history_lowers_selectivity() {
        // The ablation the paper hints at: less retained history => lower
        // measured selectivity for long-running bundles.
        let mut unbounded = HistoryProfile::new(n(0));
        let mut bounded = HistoryProfile::with_capacity(n(0), 3);
        for c in 0..10 {
            unbounded.record(B, c, n(9), n(1));
            bounded.record(B, c, n(9), n(1));
        }
        assert!(bounded.selectivity(B, 10, n(1)) < unbounded.selectivity(B, 10, n(1)));
    }
}
