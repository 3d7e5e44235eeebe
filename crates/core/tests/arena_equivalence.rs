//! History-store oracle suite.
//!
//! Drives the runner's [`HistoryArena`] and a per-node
//! `Vec<HistoryProfile>` through the same randomized schedule of
//! interleaved bundle commits — mixing full-path commits and dropped-
//! confirmation *suffix* commits (the fault layer commits only the hops
//! after the last confirmed position) — then asserts that every
//! selectivity the router could consult from the arena equals, bit for
//! bit, the profiles' full-rescan reference
//! ([`HistoryProfile::selectivity_rescan`] /
//! [`HistoryProfile::selectivity_from_rescan`]), which recounts the
//! retained records instead of reading an index. The arena and the
//! profiles store records in the same cell type, so the rescan, not the
//! profiles' own indexed reads, is the independent side.
//!
//! 256 seeded cases randomize node count, bounded/unbounded history
//! capacity, bundle count, path shapes and commit interleaving. Each case
//! also replays the arena's snapshot export into a fresh arena, the way
//! snapshot restore does, and checks the replay reads the same.

use idpa_core::bundle::BundleId;
use idpa_core::history::{HistoryProfile, HistoryRead, HistoryWrite};
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

fn apply<H: HistoryWrite + ?Sized>(h: &mut H, commit: &Commit) {
    for &(node, pred, succ) in &commit.hops {
        h.record_hop(
            node,
            BundleId(commit.bundle as u64),
            commit.connection,
            pred,
            succ,
        );
    }
}

/// Asserts every selectivity the router could ask for is bit-equal
/// between the rescan of the oracle profiles and the arena.
fn assert_reads_agree(
    oracle: &[HistoryProfile],
    arena: &HistoryArena,
    priors_by_bundle: &[u32],
    label: &str,
) {
    let n_nodes = oracle.len();
    for (s, profile) in oracle.iter().enumerate() {
        for (b, &bundle_priors) in priors_by_bundle.iter().enumerate() {
            let bundle = BundleId(b as u64);
            // Every predecessor the node has recorded, plus one it may not.
            let mut preds: Vec<NodeId> = profile
                .bundle_records(bundle)
                .iter()
                .map(|r| r.predecessor)
                .chain([NodeId((s + b) % n_nodes)])
                .collect();
            preds.sort_unstable();
            preds.dedup();
            for priors in [
                0,
                bundle_priors.saturating_sub(1),
                bundle_priors,
                bundle_priors + 3,
            ] {
                for v in 0..n_nodes {
                    let (s, v) = (NodeId(s), NodeId(v));
                    let want = profile.selectivity_rescan(bundle, priors, v);
                    let have = arena.selectivity_at(s, bundle, priors, v);
                    assert_eq!(
                        want.to_bits(),
                        have.to_bits(),
                        "{label}: selectivity({s:?}, {bundle:?}, {priors}, {v:?}) \
                         expected {want} got {have}"
                    );
                    for &pred in &preds {
                        let want = profile.selectivity_from_rescan(bundle, priors, pred, v);
                        let have = arena.selectivity_from_at(s, bundle, priors, pred, v);
                        assert_eq!(
                            want.to_bits(),
                            have.to_bits(),
                            "{label}: selectivity_from({s:?}, {bundle:?}, {priors}, {pred:?}, {v:?})"
                        );
                    }
                }
            }
            // Stored records themselves must match, not just what they imply.
            assert_eq!(
                arena.records(NodeId(s), bundle),
                profile.bundle_records(bundle),
                "{label}: raw records diverged at node {s} bundle {b}"
            );
        }
    }
}

#[test]
fn randomized_interleaved_commits_agree_with_the_rescan_oracle() {
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

        let mut oracle: Vec<HistoryProfile> = (0..n_nodes)
            .map(|i| match capacity {
                Some(cap) => HistoryProfile::with_capacity(NodeId(i), cap),
                None => HistoryProfile::new(NodeId(i)),
            })
            .collect();
        let mut arena = HistoryArena::with_capacity(capacity);

        let mut next_conn = vec![0u32; n_bundles];
        let steps = rng.random_range(6..32usize);
        for _ in 0..steps {
            let b = rng.random_range(0..n_bundles);
            let conn = next_conn[b];
            next_conn[b] += 1;
            let commit = sample_commit(&mut rng, n_nodes, b, conn);
            apply(&mut oracle, &commit);
            apply(&mut arena, &commit);
        }

        let label = format!("case {case} (n={n_nodes} cap={capacity:?})");
        assert_reads_agree(&oracle, &arena, &next_conn, &label);
        let retained: usize = oracle.iter().map(HistoryProfile::len).sum();
        assert_eq!(arena.len(), retained, "{label}: retained record count");

        let mut replayed = HistoryArena::with_capacity(capacity);
        for (node, bundle, records) in arena.snapshot_cells() {
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
        assert_reads_agree(&oracle, &replayed, &next_conn, &format!("{label} replayed"));
    }
}
