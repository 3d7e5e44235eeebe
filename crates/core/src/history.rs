//! Connection history records and the selectivity index (§2.3, Table 1).
//!
//! "Each node stores history information about connections passing through
//! it. Thus if a node s lies on a path π^i with connection identifier cid,
//! it stores the corresponding predecessor and successor hops. ... The
//! ratio of the number of entries corresponding to (s, v) and the maximum
//! possible entries (k − 1) is called its selectivity."
//!
//! A node's records for one bundle live in one `BundleHistory` cell of
//! [`crate::arena::HistoryArena`], so selectivity for connection `k` of a
//! bundle looks only at that bundle's earlier connections. σ counts the
//! records' successors; the predecessor is kept as Table 1's column (and
//! in snapshots) but no index is built over it.

use std::collections::HashMap;

use idpa_desim::rng::Mix64State;
use idpa_overlay::NodeId;

/// One history record — the paper's Table 1 row, with the connection
/// index that scopes it within its bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryRecord {
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
/// This is the selectivity index's leaf: for one successor it answers "on
/// how many *distinct* prior connections did this edge appear?" without
/// scanning records. The refcount absorbs duplicate records on one
/// connection (a node occupying two positions on a path) so eviction of
/// one duplicate does not lose the connection.
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

/// One node's history for one bundle: the retained records plus the
/// per-successor connection index maintained alongside them. Append order
/// is arrival order, eviction drops the oldest first and unwinds the
/// index, and empty counters are removed.
#[derive(Debug, Clone, Default)]
pub(crate) struct BundleHistory {
    /// Retained records in insertion (connection) order.
    records: Vec<HistoryRecord>,
    /// `successor -> distinct prior connections` (drives `selectivity`).
    by_succ: HashMap<u64, ConnCounter, Mix64State>,
}

impl BundleHistory {
    /// Appends one record, keeping at most `capacity` (oldest evicted).
    pub(crate) fn record(&mut self, record: HistoryRecord, capacity: Option<usize>) {
        self.by_succ
            .entry(record.successor.index() as u64)
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

    /// Evicts the `n` oldest records, unwinding the index.
    fn evict_oldest(&mut self, n: usize) {
        for old in self.records.drain(..n) {
            let succ_key = old.successor.index() as u64;
            if let Some(counter) = self.by_succ.get_mut(&succ_key) {
                counter.remove(old.connection);
                if counter.is_empty() {
                    self.by_succ.remove(&succ_key);
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
}

#[cfg(test)]
mod tests {
    use crate::arena::HistoryArena;
    use crate::bundle::BundleId;
    use idpa_overlay::NodeId;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }
    const B: BundleId = BundleId(7);
    /// The node whose history every test records.
    const S: NodeId = NodeId(0);

    fn unbounded() -> HistoryArena {
        HistoryArena::with_capacity(None)
    }

    #[test]
    fn empty_profile_has_zero_selectivity() {
        let h = unbounded();
        assert_eq!(h.selectivity(S, B, 5, n(1)), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn selectivity_counts_prior_connections() {
        let mut h = unbounded();
        // Owner forwarded to node 1 on connections 0 and 2, to node 2 on 1.
        h.record_hop(S, B, 0, n(9), n(1));
        h.record_hop(S, B, 1, n(9), n(2));
        h.record_hop(S, B, 2, n(9), n(1));
        // Forming the 4th connection, priors = 3: edge (s,1) appeared on
        // prior connections {0, 2} => 2/3; edge (s,2) on {1} => 1/3.
        assert!((h.selectivity(S, B, 3, n(1)) - 2.0 / 3.0).abs() < 1e-12);
        assert!((h.selectivity(S, B, 3, n(2)) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn selectivity_is_one_for_always_chosen_edge() {
        let mut h = unbounded();
        for c in 0..4 {
            h.record_hop(S, B, c, n(9), n(1));
        }
        // All 4 prior connections used (s,1) => σ = 4/4 = 1.
        assert_eq!(h.selectivity(S, B, 4, n(1)), 1.0);
    }

    #[test]
    fn duplicate_edge_on_one_connection_counts_once() {
        let mut h = unbounded();
        // Node occupies two positions on connection 0, forwarding to n1
        // both times.
        h.record_hop(S, B, 0, n(8), n(1));
        h.record_hop(S, B, 0, n(9), n(1));
        assert_eq!(h.selectivity(S, B, 1, n(1)), 1.0);
        assert_eq!(h.selectivity_rescan(S, B, 1, n(1)), 1.0);
    }

    #[test]
    fn selectivity_scoped_per_bundle() {
        let mut h = unbounded();
        h.record_hop(S, BundleId(1), 0, n(9), n(1));
        assert_eq!(h.selectivity(S, BundleId(2), 2, n(1)), 0.0);
    }

    #[test]
    fn future_connections_do_not_count() {
        let mut h = unbounded();
        h.record_hop(S, B, 5, n(9), n(1)); // a later connection
        assert_eq!(h.selectivity(S, B, 3, n(1)), 0.0);
    }

    #[test]
    fn zero_priors_has_no_history() {
        let mut h = unbounded();
        h.record_hop(S, B, 0, n(9), n(1));
        assert_eq!(h.selectivity(S, B, 0, n(1)), 0.0);
        assert_eq!(h.selectivity_rescan(S, B, 0, n(1)), 0.0);
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        let mut h = HistoryArena::with_capacity(Some(2));
        h.record_hop(S, B, 0, n(9), n(1));
        h.record_hop(S, B, 1, n(9), n(2));
        h.record_hop(S, B, 2, n(9), n(3));
        let kept: Vec<u32> = h.records(S, B).iter().map(|r| r.connection).collect();
        assert_eq!(kept, [1, 2]);
        // The record for connection 0 was evicted.
        assert_eq!(h.selectivity(S, B, 3, n(1)), 0.0);
        assert!((h.selectivity(S, B, 3, n(2)) - 1.0 / 3.0).abs() < 1e-12);
    }

    /// Under random record sequences (with duplicates, out-of-order
    /// connections, and capacity eviction) the incremental index must
    /// agree exactly with a naive recount of the retained records, for
    /// every (priors, successor) probe.
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
            let mut h = HistoryArena::with_capacity(capacity);
            let ops = rng.random_range(1..40usize);
            for _ in 0..ops {
                let bundle = BundleId(rng.random_range(0..3u64));
                // Mostly monotone connections with occasional out-of-order
                // and duplicate indices.
                let conn = rng.random_range(0..12u32);
                let pred = n(rng.random_range(0..4usize));
                let succ = n(rng.random_range(0..5usize));
                h.record_hop(S, bundle, conn, pred, succ);
            }
            for bundle in (0..3).map(BundleId) {
                for priors in 0..14u32 {
                    for v in (0..5).map(n) {
                        let sigma = h.selectivity(S, bundle, priors, v);
                        assert_eq!(
                            sigma.to_bits(),
                            h.selectivity_rescan(S, bundle, priors, v).to_bits(),
                            "case {case}: selectivity({bundle:?}, {priors}, {v:?})"
                        );
                        assert!((0.0..=1.0).contains(&sigma), "case {case}: σ = {sigma}");
                    }
                }
            }
        }
    }

    #[test]
    fn eviction_of_one_duplicate_keeps_the_connection_counted() {
        // Two records on connection 0 both forward to node 1; evicting one
        // of them (capacity 1) must keep σ = 1 because a record for the
        // connection remains.
        let mut h = HistoryArena::with_capacity(Some(1));
        h.record_hop(S, B, 0, n(8), n(1));
        h.record_hop(S, B, 0, n(9), n(1));
        assert_eq!(h.selectivity(S, B, 1, n(1)), 1.0);
        // The oldest position's record went, the newer one stayed.
        let kept: Vec<NodeId> = h.records(S, B).iter().map(|r| r.predecessor).collect();
        assert_eq!(kept, [n(9)]);
    }

    #[test]
    fn bounded_history_lowers_selectivity() {
        // The ablation the paper hints at: less retained history => lower
        // measured selectivity for long-running bundles.
        let mut unbounded = unbounded();
        let mut bounded = HistoryArena::with_capacity(Some(3));
        for c in 0..10 {
            unbounded.record_hop(S, B, c, n(9), n(1));
            bounded.record_hop(S, B, c, n(9), n(1));
        }
        assert!(bounded.selectivity(S, B, 10, n(1)) < unbounded.selectivity(S, B, 10, n(1)));
    }
}
