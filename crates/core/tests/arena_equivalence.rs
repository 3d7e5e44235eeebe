//! History-store oracle suite.
//!
//! Drives the runner's [`HistoryArena`] and the suite's own model of
//! retained records through the same randomized schedule of interleaved
//! bundle commits — mixing full-path commits and dropped-confirmation
//! *suffix* commits (the fault layer commits only the hops after the last
//! confirmed position). The model shares no code with the arena: one list
//! of `(connection, predecessor, successor)` rows per `(node, bundle)`,
//! trimmed oldest-first to the capacity. The suite asserts that the
//! arena retains exactly the model's records, and that every selectivity
//! the router could consult equals, bit for bit, a recount of the model's
//! records.
//!
//! 256 seeded cases randomize node count, bounded/unbounded history
//! capacity, bundle count, path shapes and commit interleaving. Each case
//! also replays the arena's snapshot export into a fresh arena, the way
//! snapshot restore does, and checks the replay reads the same.

use std::collections::{BTreeMap, BTreeSet};

use idpa_core::bundle::BundleId;
use idpa_core::history::HistoryRecord;
use idpa_core::HistoryArena;
use idpa_desim::rng::Xoshiro256StarStar;
use idpa_overlay::NodeId;
use rand::RngExt;

/// One committed connection: bundle, connection index, and the hop
/// records `(node, predecessor, successor)` actually applied (already
/// suffix-trimmed when the case simulates a dropped confirmation).
struct Commit {
    bundle: usize,
    connection: u32,
    hops: Vec<(NodeId, NodeId, NodeId)>,
}

/// Samples a random hop chain and trims it to a suffix with probability
/// ~1/4, mirroring `PendingConnection::commit_suffix` semantics.
fn sample_commit(
    rng: &mut Xoshiro256StarStar,
    n_nodes: usize,
    bundle: usize,
    connection: u32,
) -> Commit {
    let len = rng.random_range(2..6usize);
    let chain: Vec<NodeId> = (0..len)
        .map(|_| NodeId(rng.random_range(0..n_nodes)))
        .collect();
    let mut hops: Vec<(NodeId, NodeId, NodeId)> = Vec::new();
    for i in 1..len.saturating_sub(1) {
        hops.push((chain[i], chain[i - 1], chain[i + 1]));
    }
    if !hops.is_empty() && rng.random_range(0..4u32) == 0 {
        let start = rng.random_range(0..=hops.len());
        hops.drain(..start);
    }
    Commit {
        bundle,
        connection,
        hops,
    }
}

/// The retained records per `(node, bundle)`, oldest first — the
/// suite's independent model of bounded retention.
struct Model {
    capacity: Option<usize>,
    cells: BTreeMap<(u64, u64), Vec<HistoryRecord>>,
}

impl Model {
    fn new(capacity: Option<usize>) -> Self {
        Model {
            capacity,
            cells: BTreeMap::new(),
        }
    }

    fn apply(&mut self, commit: &Commit) {
        for &(node, predecessor, successor) in &commit.hops {
            let cell = self
                .cells
                .entry((node.index() as u64, commit.bundle as u64))
                .or_default();
            cell.push(HistoryRecord {
                connection: commit.connection,
                predecessor,
                successor,
            });
            if let Some(cap) = self.capacity {
                while cell.len() > cap {
                    cell.remove(0);
                }
            }
        }
    }

    fn records(&self, node: usize, bundle: usize) -> &[HistoryRecord] {
        self.cells
            .get(&(node as u64, bundle as u64))
            .map_or(&[], Vec::as_slice)
    }

    /// σ by recount: distinct prior connections whose record forwards to
    /// `v`, over `priors`.
    fn selectivity(&self, node: usize, bundle: usize, priors: u32, v: NodeId) -> f64 {
        if priors == 0 {
            return 0.0;
        }
        let connections: BTreeSet<u32> = self
            .records(node, bundle)
            .iter()
            .filter(|r| r.connection < priors && r.successor == v)
            .map(|r| r.connection)
            .collect();
        connections.len() as f64 / f64::from(priors)
    }
}

fn apply(arena: &mut HistoryArena, commit: &Commit) {
    for &(node, pred, succ) in &commit.hops {
        arena.record_hop(
            node,
            BundleId(commit.bundle as u64),
            commit.connection,
            pred,
            succ,
        );
    }
}

/// Asserts the arena retains exactly the model's records and that every
/// selectivity the router could ask for is bit-equal to the model's
/// recount.
fn assert_matches_model(
    model: &Model,
    arena: &HistoryArena,
    n_nodes: usize,
    priors_by_bundle: &[u32],
    label: &str,
) {
    for s in 0..n_nodes {
        for (b, &bundle_priors) in priors_by_bundle.iter().enumerate() {
            let bundle = BundleId(b as u64);
            assert_eq!(
                arena.records(NodeId(s), bundle),
                model.records(s, b),
                "{label}: retained records diverged at node {s} bundle {b}"
            );
            for priors in [
                0,
                bundle_priors.saturating_sub(1),
                bundle_priors,
                bundle_priors + 3,
            ] {
                for v in (0..n_nodes).map(NodeId) {
                    let want = model.selectivity(s, b, priors, v);
                    let have = arena.selectivity(NodeId(s), bundle, priors, v);
                    assert_eq!(
                        want.to_bits(),
                        have.to_bits(),
                        "{label}: selectivity({s}, {bundle:?}, {priors}, {v:?}) \
                         expected {want} got {have}"
                    );
                    let rescan = arena.selectivity_rescan(NodeId(s), bundle, priors, v);
                    assert_eq!(
                        want.to_bits(),
                        rescan.to_bits(),
                        "{label}: selectivity_rescan({s}, {bundle:?}, {priors}, {v:?})"
                    );
                }
            }
        }
    }
    let retained: usize = model.cells.values().map(Vec::len).sum();
    assert_eq!(arena.len(), retained, "{label}: retained record count");
}

#[test]
fn randomized_interleaved_commits_agree_with_the_model() {
    const CASES: u64 = 256;
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x5eed_0000 ^ case);
        let n_nodes = rng.random_range(3..24usize);
        let capacity = if rng.random_range(0..2u32) == 0 {
            None
        } else {
            Some(rng.random_range(1..5usize))
        };
        let n_bundles = rng.random_range(1..4usize);

        let mut model = Model::new(capacity);
        let mut arena = HistoryArena::with_capacity(capacity);

        let mut next_conn = vec![0u32; n_bundles];
        let steps = rng.random_range(6..32usize);
        for _ in 0..steps {
            let b = rng.random_range(0..n_bundles);
            let conn = next_conn[b];
            next_conn[b] += 1;
            let commit = sample_commit(&mut rng, n_nodes, b, conn);
            model.apply(&commit);
            apply(&mut arena, &commit);
        }

        let label = format!("case {case} (n={n_nodes} cap={capacity:?})");
        assert_matches_model(&model, &arena, n_nodes, &next_conn, &label);
        let exported: Vec<_> = arena
            .snapshot_cells()
            .into_iter()
            .map(|(node, bundle, records)| ((node, bundle), records))
            .collect();
        let expected: Vec<_> = model.cells.clone().into_iter().collect();
        assert_eq!(exported, expected, "{label}: snapshot export");

        let mut replayed = HistoryArena::with_capacity(capacity);
        for ((node, bundle), records) in exported {
            for r in records {
                replayed.record_hop(
                    NodeId(node as usize),
                    BundleId(bundle),
                    r.connection,
                    r.predecessor,
                    r.successor,
                );
            }
        }
        assert_matches_model(
            &model,
            &replayed,
            n_nodes,
            &next_conn,
            &format!("{label} replayed"),
        );
    }
}
