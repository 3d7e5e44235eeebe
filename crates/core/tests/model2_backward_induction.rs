//! Model II semantics check: `continuation_quality` must equal the value of
//! an independently written backward induction over the §2.4.3 L-stage
//! game. The SPNE structure matters: each subsequent mover maximises *its
//! own* continuation quality (its average edge quality to R), not the
//! first mover's — so the reference solver below recursively solves each
//! subgame by the subgame owner's objective, exactly as backward induction
//! prescribes, and the production code must agree with it on every
//! (seed, lookahead, candidate) triple.

use idpa_core::bundle::BundleId;
use idpa_core::contract::Contract;
use idpa_core::history::HistoryProfile;
use idpa_core::quality::{EdgeQuality, Weights};
use idpa_core::routing::{continuation_quality, RoutingView};
use idpa_desim::rng::{StreamFactory, Xoshiro256StarStar};
use idpa_overlay::{NodeId, Topology};
use rand::RngExt;

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
/// candidate exists and the horizon allows.
#[allow(clippy::too_many_arguments)]
fn brute_force(
    fix: &Fixture,
    contract: &Contract,
    quality: &EdgeQuality,
    histories: &[HistoryProfile],
    from: NodeId,
    depth: u8,
    visited: &mut Vec<NodeId>,
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
        let sigma = histories[from.index()].selectivity(contract.bundle, 0, v);
        let q = quality.edge(sigma, fix.availability(from, v));
        visited.push(v);
        let (tail, edges) = brute_force(fix, contract, quality, histories, v, depth - 1, visited);
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
    for seed in 0..10 {
        let fix = Fixture::random(12, 3, seed);
        let contract = Contract::new(BundleId(0), NodeId(11), 50.0, 100.0);
        let quality = EdgeQuality::new(Weights::balanced());
        let histories: Vec<HistoryProfile> =
            (0..12).map(|i| HistoryProfile::new(NodeId(i))).collect();

        for lookahead in 1..=4u8 {
            for &j in fix.topology.neighbors(NodeId(0)) {
                if j == contract.responder {
                    continue;
                }
                let sigma = histories[0].selectivity(contract.bundle, 0, j);
                let q_edge = quality.edge(sigma, fix.availability(NodeId(0), j));

                let got = continuation_quality(
                    NodeId(0),
                    j,
                    q_edge,
                    lookahead,
                    &contract,
                    0,
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
                );
                let expect = (q_edge + tail) / (1.0 + edges as f64);

                assert!(
                    (got - expect).abs() < 1e-9,
                    "seed {seed} lookahead {lookahead} j {j}: got {got}, brute {expect}"
                );
            }
        }
    }
}

#[test]
fn deeper_lookahead_never_reduces_information() {
    // Not a value monotonicity claim (averaging can go either way), but the
    // computation must stay within [0, 1] and be deterministic per input.
    let fix = Fixture::random(15, 4, 99);
    let contract = Contract::new(BundleId(0), NodeId(14), 50.0, 100.0);
    let quality = EdgeQuality::new(Weights::balanced());
    let histories: Vec<HistoryProfile> = (0..15).map(|i| HistoryProfile::new(NodeId(i))).collect();
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
                0,
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
                0,
                &histories,
                &fix,
                &quality,
            );
            assert_eq!(q1, q2, "deterministic");
            assert!((0.0..=1.0).contains(&q1), "bounded: {q1}");
        }
    }
}
