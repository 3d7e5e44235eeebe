//! The neighbor relation `D(s)`.
//!
//! §3: "each node randomly selects d nodes as its neighbors" (d = 5 in the
//! paper's experiments). The relation is directed — `v ∈ D(s)` does not
//! imply `s ∈ D(v)` — matching the paper's phrasing that each node
//! *maintains information about* its own d potential forwarders.

use idpa_desim::rng::StreamFactory;
use rand::RngExt;

use crate::node::NodeId;

/// A directed, fixed-out-degree neighbor relation over `n` nodes.
///
/// Stored flat: node `s`'s neighbor set is `neighbors[s·d .. (s+1)·d]`,
/// one allocation for the whole relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    neighbors: Vec<NodeId>,
    n: usize,
    degree: usize,
}

/// Label of the per-node streams: node `s`'s neighbor set comes from
/// `stream_indexed(TOPOLOGY_STREAM, s)`.
const TOPOLOGY_STREAM: &str = "topology";

impl Topology {
    /// Node `s`'s neighbor set in a world of `n` nodes at out-degree
    /// `degree`: `degree` distinct random nodes other than `s`, sorted,
    /// drawn from the stream keyed by `s`. A pure function of
    /// `(master seed, n, degree, s)`, so any node's set can be derived on
    /// its own, in any order.
    ///
    /// Panics if `degree >= n` (a node cannot have `n` distinct non-self
    /// neighbors).
    #[must_use]
    pub fn sample_neighbors(
        n: usize,
        degree: usize,
        streams: &StreamFactory,
        s: NodeId,
    ) -> Vec<NodeId> {
        assert!(
            degree < n,
            "degree {degree} impossible with {n} nodes (needs degree < n)"
        );
        let s = s.index();
        let mut rng = streams.stream_indexed(TOPOLOGY_STREAM, s as u64);
        // Partial Fisher-Yates over the candidate set {0..n} \ {s}, run
        // *sparsely*: the candidate array is never materialized. Position
        // `i` of the virtual array holds `i` (or `i + 1` once past the
        // excluded self entry); the at most `d` positions an earlier swap
        // overwrote are logged as `(position, value)` pairs, and a lookup
        // scans the log newest-first, so the latest write wins. The draws
        // are `random_range(k..n-1)` either way — bounds depend only on
        // `n`, not on array contents — so the bit stream, and therefore
        // the sampled set, is identical to the dense construction at O(d)
        // instead of O(n).
        let mut displaced: Vec<(usize, usize)> = Vec::with_capacity(degree);
        let at = |displaced: &[(usize, usize)], i: usize| {
            displaced
                .iter()
                .rev()
                .find(|&&(pos, _)| pos == i)
                .map_or(if i < s { i } else { i + 1 }, |&(_, v)| v)
        };
        let mut neighbors = Vec::with_capacity(degree);
        for k in 0..degree {
            let pick = rng.random_range(k..n - 1);
            let picked = at(&displaced, pick);
            // Complete the swap: position `pick` inherits position `k`'s
            // value. Position `k` itself is never read again (later draws
            // range over `k+1..`), so only this half matters.
            let at_k = at(&displaced, k);
            displaced.push((pick, at_k));
            neighbors.push(NodeId(picked));
        }
        neighbors.sort_unstable();
        neighbors
    }

    /// Samples a topology where every node independently picks `degree`
    /// distinct random neighbors (never itself): one
    /// [`Topology::sample_neighbors`] per node.
    ///
    /// Panics if `degree >= n` or `n == 0`.
    #[must_use]
    pub fn random(n: usize, degree: usize, streams: &StreamFactory) -> Self {
        assert!(n > 0, "empty topology");
        let mut neighbors = Vec::with_capacity(n * degree);
        for s in 0..n {
            neighbors.extend(Self::sample_neighbors(n, degree, streams, NodeId(s)));
        }
        Topology {
            neighbors,
            n,
            degree,
        }
    }

    /// Builds a topology from explicit adjacency lists (used by tests and
    /// the worked example of Figs. 1–2), keeping each list's order — it is
    /// the probe-slot order. Validates no self-loops and no duplicate
    /// neighbors, and that every list has the same length.
    #[must_use]
    pub fn from_lists(lists: Vec<Vec<NodeId>>) -> Self {
        let n = lists.len();
        for (s, nbrs) in lists.iter().enumerate() {
            let mut seen = std::collections::HashSet::new();
            for &v in nbrs {
                assert!(v.index() < n, "neighbor {v} out of range");
                assert!(v.index() != s, "self-loop at {s}");
                assert!(seen.insert(v), "duplicate neighbor {v} at node {s}");
            }
        }
        let degree = lists.first().map_or(0, Vec::len);
        assert!(
            lists.iter().all(|l| l.len() == degree),
            "ragged neighbor lists: every node needs {degree} neighbors"
        );
        Topology {
            neighbors: lists.concat(),
            n,
            degree,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the topology has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The configured out-degree `d`.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The neighbor set `D(s)`.
    #[must_use]
    pub fn neighbors(&self, s: NodeId) -> &[NodeId] {
        let start = s.index() * self.degree;
        &self.neighbors[start..start + self.degree]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn streams(seed: u64) -> StreamFactory {
        StreamFactory::new(seed)
    }

    #[test]
    fn random_topology_has_exact_degree() {
        let t = Topology::random(40, 5, &streams(1));
        assert_eq!(t.len(), 40);
        assert_eq!(t.degree(), 5);
        for s in 0..40 {
            assert_eq!(t.neighbors(NodeId(s)).len(), 5);
        }
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        let t = Topology::random(40, 5, &streams(2));
        for s in 0..40 {
            let nbrs = t.neighbors(NodeId(s));
            assert!(nbrs.iter().all(|v| v.index() != s));
            let mut uniq = nbrs.to_vec();
            uniq.dedup();
            assert_eq!(uniq.len(), nbrs.len());
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Topology::random(20, 4, &streams(3));
        let b = Topology::random(20, 4, &streams(3));
        assert_eq!(a, b);
    }

    #[test]
    fn degree_saturates_at_n_minus_1() {
        let t = Topology::random(5, 4, &streams(6));
        for s in 0..5 {
            assert_eq!(t.neighbors(NodeId(s)).len(), 4);
        }
    }

    #[test]
    #[should_panic(expected = "needs degree < n")]
    fn rejects_impossible_degree() {
        let _ = Topology::random(5, 5, &streams(7));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn from_lists_rejects_self_loop() {
        let _ = Topology::from_lists(vec![vec![NodeId(0)]]);
    }

    #[test]
    #[should_panic(expected = "duplicate neighbor")]
    fn from_lists_rejects_duplicates() {
        let _ = Topology::from_lists(vec![vec![NodeId(1), NodeId(1)], vec![]]);
    }

    #[test]
    #[should_panic(expected = "ragged neighbor lists")]
    fn from_lists_rejects_ragged_lists() {
        let _ = Topology::from_lists(vec![vec![NodeId(1)], vec![], vec![NodeId(0)]]);
    }

    #[test]
    fn from_lists_keeps_order_of_unsorted_sets() {
        let lists: Vec<Vec<NodeId>> = [[3, 1, 2], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
            .iter()
            .map(|l| l.iter().map(|&v| NodeId(v)).collect())
            .collect();
        let t = Topology::from_lists(lists.clone());
        assert_eq!(t.len(), 4);
        assert_eq!(t.degree(), 3);
        for (s, list) in lists.iter().enumerate() {
            assert_eq!(t.neighbors(NodeId(s)), list.as_slice(), "slot order kept");
        }
    }

    #[test]
    fn sparse_sampling_matches_dense_reference() {
        // The shipped sampler simulates the candidate array sparsely; this
        // pins it bit-for-bit against a dense partial Fisher-Yates over the
        // same per-node stream, across self-exclusion positions and
        // near-full degrees.
        for (n, d, seed) in [
            (40usize, 5usize, 1u64),
            (17, 16, 2),
            (300, 3, 9),
            (6, 5, 10),
            // The churn-maintenance shape and a large sparse world: the
            // displaced-position log at real degrees.
            (500, 24, 11),
            (10_000, 5, 12),
        ] {
            let f = streams(seed);
            let sparse = Topology::random(n, d, &f);
            let mut lists = Vec::new();
            for s in 0..n {
                let mut r = f.stream_indexed("topology", s as u64);
                let mut candidates: Vec<usize> = (0..n).filter(|&v| v != s).collect();
                let mut chosen = Vec::with_capacity(d);
                for k in 0..d {
                    let pick = r.random_range(k..candidates.len());
                    candidates.swap(k, pick);
                    chosen.push(NodeId(candidates[k]));
                }
                chosen.sort_unstable();
                lists.push(chosen);
            }
            assert_eq!(sparse, Topology::from_lists(lists));
        }
    }

    #[test]
    fn a_node_samples_alone_to_its_place_in_the_topology() {
        let f = streams(13);
        let t = Topology::random(50, 6, &f);
        for s in [49usize, 0, 7, 7, 22] {
            assert_eq!(
                Topology::sample_neighbors(50, 6, &f, NodeId(s)),
                t.neighbors(NodeId(s)),
                "node {s}"
            );
        }
    }

    #[test]
    fn neighbor_choice_is_roughly_uniform() {
        // Aggregate in-degree over many topologies should be near-uniform.
        let n = 10;
        let mut indeg = vec![0usize; n];
        for seed in 0..2000 {
            let t = Topology::random(n, 3, &streams(seed));
            for s in 0..n {
                for v in t.neighbors(NodeId(s)) {
                    indeg[v.index()] += 1;
                }
            }
        }
        let total: usize = indeg.iter().sum();
        let expected = total as f64 / n as f64;
        for (i, &c) in indeg.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() / expected < 0.05,
                "node {i} in-degree {c} vs expected {expected}"
            );
        }
    }
}
