//! Owner-keyed storage for every node's connection history.
//!
//! [`HistoryArena`] is the one history store: one map over every
//! `(node, bundle)` pair, owned by the run and written through `&mut`,
//! each cell holding that node's Table 1 records for that bundle and the
//! successor index σ is read from. A small never-cleared membership
//! filter answers the common "this node has no history for this bundle
//! yet" query without probing the map.
//!
//! `crates/core/tests/arena_equivalence.rs` checks the arena against an
//! independent model of the retained records under randomized interleaved
//! commits (including dropped-confirmation suffix commits).

use std::collections::HashMap;

use idpa_desim::rng::{splitmix64, Mix64State};
use idpa_overlay::NodeId;

use crate::bundle::BundleId;
use crate::history::{BundleHistory, HistoryRecord};

/// Number of bits in the `(node, bundle)` membership filter.
const FILTER_BITS: usize = 1 << 13;

/// Hash used for the membership filter (independent of the map hash).
fn filter_slot(node: u64, bundle: u64) -> usize {
    (splitmix64(node.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ bundle) as usize) & (FILTER_BITS - 1)
}

/// Every node's history, keyed by `(node index, bundle id)`.
#[derive(Debug)]
pub struct HistoryArena {
    cells: HashMap<(u64, u64), BundleHistory, Mix64State>,
    filter: Vec<u64>,
    capacity_per_bundle: Option<usize>,
}

impl HistoryArena {
    /// An empty arena retaining at most `capacity` records per
    /// `(node, bundle)` when `Some`, unbounded when `None` (oldest evicted
    /// first).
    ///
    /// # Panics
    /// If `capacity` is `Some(0)`.
    #[must_use]
    pub fn with_capacity(capacity: Option<usize>) -> Self {
        assert!(capacity != Some(0), "capacity must be positive");
        HistoryArena {
            cells: HashMap::default(),
            filter: vec![0; FILTER_BITS / 64],
            capacity_per_bundle: capacity,
        }
    }

    fn cell(&self, node: NodeId, bundle: BundleId) -> Option<&BundleHistory> {
        let (n, b) = (node.index() as u64, bundle.0);
        let slot = filter_slot(n, b);
        if self.filter[slot / 64] & (1 << (slot % 64)) == 0 {
            return None;
        }
        self.cells.get(&(n, b))
    }

    /// The records node `node` holds for `bundle`, oldest first.
    #[must_use]
    pub fn records(&self, node: NodeId, bundle: BundleId) -> &[HistoryRecord] {
        self.cell(node, bundle).map_or(&[], BundleHistory::records)
    }

    /// Records a hop: on connection `connection` of `bundle`, `node`
    /// received from `predecessor` and forwarded to `successor`. At most
    /// the arena's capacity of records is kept per `(node, bundle)`.
    pub fn record_hop(
        &mut self,
        node: NodeId,
        bundle: BundleId,
        connection: u32,
        predecessor: NodeId,
        successor: NodeId,
    ) {
        let (n, b) = (node.index() as u64, bundle.0);
        let slot = filter_slot(n, b);
        self.filter[slot / 64] |= 1 << (slot % 64);
        self.cells.entry((n, b)).or_default().record(
            HistoryRecord {
                connection,
                predecessor,
                successor,
            },
            self.capacity_per_bundle,
        );
    }

    /// Selectivity `σ(s, v)` when forming a new connection after `priors`
    /// completed connections of `bundle`: the number of those prior
    /// connections on which `s` forwarded to `v`, divided by the maximum
    /// possible `priors`.
    ///
    /// In the paper's 1-based notation this is the σ used while forming
    /// `π^k` with `priors = k − 1`. Zero-based connection indices
    /// `0..priors` are the priors. Multiple appearances of the edge on one
    /// prior connection (a node occupying two positions) count once — the
    /// numerator counts *connections*, matching the denominator.
    #[must_use]
    pub fn selectivity(&self, s: NodeId, bundle: BundleId, priors: u32, v: NodeId) -> f64 {
        BundleHistory::selectivity(self.cell(s, bundle), priors, v)
    }

    /// Reference implementation of [`HistoryArena::selectivity`] by full
    /// rescan of the retained records instead of the index — the oracle
    /// for tests and the baseline of the indexed lookup's benchmark.
    #[must_use]
    pub fn selectivity_rescan(&self, s: NodeId, bundle: BundleId, priors: u32, v: NodeId) -> f64 {
        if priors == 0 {
            return 0.0;
        }
        let mut seen = std::collections::HashSet::new();
        for r in self.records(s, bundle) {
            if r.connection < priors && r.successor == v {
                seen.insert(r.connection);
            }
        }
        seen.len() as f64 / f64::from(priors)
    }

    /// Total records retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.values().map(|c| c.records().len()).sum()
    }

    /// Whether the arena holds no records at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot export: every `(node, bundle)` cell's retained records,
    /// oldest first, sorted by `(node, bundle)` — a pure function of the
    /// arena's value, independent of hash-map order.
    ///
    /// Restore is replay: push each cell's records through
    /// [`HistoryArena::record_hop`] into a fresh arena with the same
    /// retention bound. Eviction already unwound the selectivity index to
    /// exactly the state the retained records imply, and a cell's retained
    /// count never exceeds the per-bundle capacity, so replay reproduces
    /// records, index and membership-filter bits identically.
    #[must_use]
    pub fn snapshot_cells(&self) -> Vec<(u64, u64, Vec<HistoryRecord>)> {
        let mut out: Vec<_> = self
            .cells
            .iter()
            .map(|(&(node, bundle), cell)| (node, bundle, cell.records().to_vec()))
            .collect();
        out.sort_unstable_by_key(|&(node, bundle, _)| (node, bundle));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn cells_are_scoped_per_node_and_bundle() {
        let mut arena = HistoryArena::with_capacity(None);
        let b = BundleId(4);
        for (conn, (p, s)) in [(0, 2), (0, 3), (1, 2), (2, 5)].into_iter().enumerate() {
            arena.record_hop(n(1), b, conn as u32, n(p), n(s));
        }
        arena.record_hop(n(2), BundleId(5), 0, n(1), n(3));
        assert_eq!(arena.len(), 5);
        assert_eq!(arena.records(n(1), b).len(), 4);
        assert!(arena.records(n(2), b).is_empty());
        assert!(arena.records(n(1), BundleId(5)).is_empty());
        // Node 2's record for bundle 5 does not leak into node 1's σ.
        assert_eq!(arena.selectivity(n(1), BundleId(5), 1, n(3)), 0.0);
        assert_eq!(arena.selectivity(n(2), BundleId(5), 1, n(3)), 1.0);
        let keys: Vec<(u64, u64)> = arena
            .snapshot_cells()
            .into_iter()
            .map(|(node, bundle, _)| (node, bundle))
            .collect();
        assert_eq!(keys, [(1, 4), (2, 5)]);
    }

    #[test]
    fn capacity_evicts_oldest_per_cell() {
        let mut arena = HistoryArena::with_capacity(Some(2));
        let b = BundleId(9);
        for conn in 0..5u32 {
            arena.record_hop(n(0), b, conn, n(1), n(conn as usize % 3));
            arena.record_hop(n(1), b, conn, n(0), n(2));
        }
        let kept: Vec<(u32, NodeId)> = arena
            .records(n(0), b)
            .iter()
            .map(|r| (r.connection, r.successor))
            .collect();
        assert_eq!(kept, [(3, n(0)), (4, n(1))]);
        assert_eq!(arena.records(n(1), b).len(), 2);
        assert_eq!(arena.len(), 4);
        for priors in 0..6u32 {
            for v in 0..3 {
                assert_eq!(
                    arena.selectivity(n(0), b, priors, n(v)).to_bits(),
                    arena.selectivity_rescan(n(0), b, priors, n(v)).to_bits()
                );
            }
        }
    }
}
