//! Model II semantics check: `continuation_quality` must equal the value of
//! an independently written backward induction over the §2.4.3 L-stage
//! game. The SPNE structure matters: each subsequent mover maximises *its
//! own* continuation quality (its average edge quality to R), not the
//! first mover's — so the reference solver below recursively solves each
//! subgame by the subgame owner's objective, exactly as backward induction
//! prescribes, and the production code must agree with it on every
//! (seed, lookahead, candidate) triple.
//!
//! Every node carries seeded prior connections of the bundle, so the
//! selectivity term of each edge quality is live: the reference reads σ
//! through [`HistoryArena::selectivity_rescan`] (a recount of the stored
//! records), the router through the arena's index, and the suite checks
//! that the edges the reference visits include some with σ > 0.

use idpa_core::bundle::BundleId;
use idpa_core::contract::Contract;
use idpa_core::quality::{EdgeQuality, Weights};
use idpa_core::routing::{continuation_quality, RoutingView};
use idpa_core::HistoryArena;
use idpa_desim::rng::{StreamFactory, Xoshiro256StarStar};
use idpa_overlay::{NodeId, Topology};
use rand::RngExt;

/// Prior connections of the bundle recorded before each routing decision.
const PRIORS: u32 = 6;

/// A random static overlay with per-edge availabilities.
struct Fixture {
    topology: Topology,
    avail: Vec<Vec<f64>>, // avail[s][v]
}

impl Fixture {
    fn random(n: usize, degree: usize, seed: u64) -> Self {
        let topology = Topology::random(n, degree, &StreamFactory::new(seed));
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let avail = (0..n)
            .map(|_| (0..n).map(|_| rng.random_range(0.0..1.0)).collect())
            .collect();
        Fixture { topology, avail }
    }

    /// Histories of `PRIORS` earlier connections of `bundle`: on each one,
    /// every node lay on the path with probability 1/2 and forwarded to a
    /// random neighbor.
    fn seeded_histories(&self, bundle: BundleId, seed: u64) -> HistoryArena {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0x4157_0b1d);
        let mut histories = HistoryArena::with_capacity(None);
        for conn in 0..PRIORS {
            for s in 0..self.topology.len() {
                let nbrs = self.topology.neighbors(NodeId(s));
                if rng.random_range(0..2u32) == 0 {
                    continue;
                }
                let pred = nbrs[rng.random_range(0..nbrs.len())];
                let succ = nbrs[rng.random_range(0..nbrs.len())];
                histories.record_hop(NodeId(s), bundle, conn, pred, succ);
            }
        }
        histories
    }
}

impl RoutingView for Fixture {
    fn live_neighbors_into(&self, s: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend_from_slice(self.topology.neighbors(s));
    }
    fn availability(&self, s: NodeId, v: NodeId) -> f64 {
        self.avail[s.index()][v.index()]
    }
    fn transmission_cost(&self, _: NodeId, _: NodeId) -> f64 {
        1.0
    }
    fn participation_cost(&self, _: NodeId) -> f64 {
        1.0
    }
}

/// Brute force: the best (sum+responder)/(edges+1) over all simple
/// continuations from `j` (with `s` excluded), forwarding whenever a live
/// candidate exists and the horizon allows. Counts in `selective_edges`
/// the visited edges whose σ is positive.
#[allow(clippy::too_many_arguments)]
fn brute_force(
    fix: &Fixture,
    contract: &Contract,
    quality: &EdgeQuality,
    histories: &HistoryArena,
    from: NodeId,
    depth: u8,
    visited: &mut Vec<NodeId>,
    selective_edges: &mut usize,
) -> (f64, usize) {
    let deliver = (1.0, 1);
    if depth == 0 {
        return deliver;
    }
    let candidates: Vec<NodeId> = fix
        .topology
        .neighbors(from)
        .iter()
        .copied()
        .filter(|v| *v != contract.responder && !visited.contains(v))
        .collect();
    if candidates.is_empty() {
        return deliver;
    }
    let mut best = (f64::NEG_INFINITY, 1);
    for v in candidates {
        let sigma = histories.selectivity_rescan(from, contract.bundle, PRIORS, v);
        if sigma > 0.0 {
            *selective_edges += 1;
        }
        let q = quality.edge(sigma, fix.availability(from, v));
        visited.push(v);
        let (tail, edges) = brute_force(
            fix,
            contract,
            quality,
            histories,
            v,
            depth - 1,
            visited,
            selective_edges,
        );
        visited.pop();
        let cand = (q + tail, edges + 1);
        if cand.0 / cand.1 as f64 > best.0 / best.1 as f64 {
            best = cand;
        }
    }
    best
}

#[test]
fn continuation_quality_matches_brute_force_enumeration() {
    let mut selective_edges = 0;
    for seed in 0..10 {
        let fix = Fixture::random(12, 3, seed);
        let contract = Contract::new(BundleId(0), NodeId(11), 50.0, 100.0);
        let quality = EdgeQuality::new(Weights::balanced());
        let histories = fix.seeded_histories(contract.bundle, seed);

        for lookahead in 1..=4u8 {
            for &j in fix.topology.neighbors(NodeId(0)) {
                if j == contract.responder {
                    continue;
                }
                let sigma = histories.selectivity_rescan(NodeId(0), contract.bundle, PRIORS, j);
                let q_edge = quality.edge(sigma, fix.availability(NodeId(0), j));

                let got = continuation_quality(
                    NodeId(0),
                    j,
                    q_edge,
                    lookahead,
                    &contract,
                    PRIORS,
                    &histories,
                    &fix,
                    &quality,
                );

                let mut visited = vec![NodeId(0), j];
                let (tail, edges) = brute_force(
                    &fix,
                    &contract,
                    &quality,
                    &histories,
                    j,
                    lookahead - 1,
                    &mut visited,
                    &mut selective_edges,
                );
                let expect = (q_edge + tail) / (1.0 + edges as f64);

                assert!(
                    (got - expect).abs() < 1e-9,
                    "seed {seed} lookahead {lookahead} j {j}: got {got}, brute {expect}"
                );
            }
        }
    }
    assert!(
        selective_edges > 0,
        "every visited edge had σ = 0: the histories exercised nothing"
    );
}

#[test]
fn deeper_lookahead_never_reduces_information() {
    // Not a value monotonicity claim (averaging can go either way), but the
    // computation must stay within [0, 1] and be deterministic per input.
    let fix = Fixture::random(15, 4, 99);
    let contract = Contract::new(BundleId(0), NodeId(14), 50.0, 100.0);
    let quality = EdgeQuality::new(Weights::balanced());
    let histories = fix.seeded_histories(contract.bundle, 99);
    for la in 1..=5u8 {
        for &j in fix.topology.neighbors(NodeId(0)) {
            if j == contract.responder {
                continue;
            }
            let q1 = continuation_quality(
                NodeId(0),
                j,
                0.5,
                la,
                &contract,
                PRIORS,
                &histories,
                &fix,
                &quality,
            );
            let q2 = continuation_quality(
                NodeId(0),
                j,
                0.5,
                la,
                &contract,
                PRIORS,
                &histories,
                &fix,
                &quality,
            );
            assert_eq!(q1, q2, "deterministic");
            assert!((0.0..=1.0).contains(&q1), "bounded: {q1}");
        }
    }
}
