//! Owner-keyed storage for every node's connection history.
//!
//! [`crate::history::HistoryProfile`] keeps one node's Table 1 records
//! behind a per-node bundle map. [`HistoryArena`] is the runner's store:
//! one map over every `(node, bundle)` pair, owned by the run and written
//! through `&mut`, each cell holding that node's records for that bundle
//! in the same `BundleHistory` type the profile uses. A small
//! never-cleared membership filter answers the common "this node has no
//! history for this bundle yet" query without probing the map.
//!
//! `crates/core/tests/arena_equivalence.rs` checks the arena against the
//! profile's rescan oracle under randomized interleaved commits (including
//! dropped-confirmation suffix commits).

use std::collections::HashMap;

use idpa_desim::rng::{splitmix64, Mix64State};
use idpa_overlay::NodeId;

use crate::bundle::BundleId;
use crate::history::{BundleHistory, HistoryRead, HistoryRecord, HistoryWrite};

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
    /// first, matching
    /// [`crate::history::HistoryProfile::with_capacity`]).
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
    /// [`HistoryWrite::record_hop`] into a fresh arena with the same
    /// retention bound. Eviction already unwound the selectivity indexes
    /// to exactly the state the retained records imply, and a cell's
    /// retained count never exceeds the per-bundle capacity, so replay
    /// reproduces records, indexes and membership-filter bits identically.
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

impl HistoryRead for HistoryArena {
    fn selectivity_at(&self, s: NodeId, bundle: BundleId, priors: u32, v: NodeId) -> f64 {
        BundleHistory::selectivity(self.cell(s, bundle), priors, v)
    }

    fn selectivity_from_at(
        &self,
        s: NodeId,
        bundle: BundleId,
        priors: u32,
        predecessor: NodeId,
        v: NodeId,
    ) -> f64 {
        BundleHistory::selectivity_from(self.cell(s, bundle), priors, predecessor, v)
    }
}

impl HistoryWrite for HistoryArena {
    fn record_hop(
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
                bundle,
                connection,
                predecessor,
                successor,
            },
            self.capacity_per_bundle,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryProfile;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn arena_matches_profile_semantics() {
        let mut profile = HistoryProfile::new(n(1));
        let mut arena = HistoryArena::with_capacity(None);
        let b = BundleId(4);
        for (conn, (p, s)) in [(0, 2), (0, 3), (1, 2), (2, 5)].into_iter().enumerate() {
            profile.record(b, conn as u32, n(p), n(s));
            arena.record_hop(n(1), b, conn as u32, n(p), n(s));
        }
        for priors in 0..5u32 {
            for v in 0..6 {
                assert_eq!(
                    profile.selectivity(b, priors, n(v)).to_bits(),
                    arena.selectivity_at(n(1), b, priors, n(v)).to_bits()
                );
                assert_eq!(
                    profile.selectivity_from(b, priors, n(0), n(v)).to_bits(),
                    arena
                        .selectivity_from_at(n(1), b, priors, n(0), n(v))
                        .to_bits()
                );
            }
        }
        assert_eq!(arena.len(), 4);
        assert!(arena.records(n(2), b).is_empty());
    }

    #[test]
    fn capacity_evicts_oldest_like_profile() {
        let mut profile = HistoryProfile::with_capacity(n(0), 2);
        let mut arena = HistoryArena::with_capacity(Some(2));
        let b = BundleId(9);
        for conn in 0..5u32 {
            profile.record(b, conn, n(1), n(conn as usize % 3));
            arena.record_hop(n(0), b, conn, n(1), n(conn as usize % 3));
        }
        assert_eq!(arena.records(n(0), b), profile.bundle_records(b));
        for priors in 0..6u32 {
            for v in 0..3 {
                assert_eq!(
                    profile.selectivity(b, priors, n(v)).to_bits(),
                    arena.selectivity_at(n(0), b, priors, n(v)).to_bits()
                );
            }
        }
    }
}
