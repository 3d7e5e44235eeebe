//! Model II routing is the subgame perfect equilibrium of the §2.4.3
//! L-stage game. For each seeded fixture and lookahead 1–4 the suite builds
//! that game as an [`idpa_game::GameTree`], solves it by backward
//! induction, and checks the router against the SPNE:
//! `choose_next_hop_with(ModelII)` must return the SPNE root action, and
//! `continuation_quality_with` the SPNE path quality of every root
//! candidate, to 1e-9.
//!
//! The game. The router at `s` is player 0; it picks among its live,
//! unvisited, non-responder neighbours in `live_neighbors_into` order, or
//! declines (a last action worth 0: the router's `utility >= 0` filter).
//! The node it picks is player 1 and picks among its own such neighbours,
//! and so on; delivery to R ends the game at the horizon (L forwarder
//! edges) or at a dead end. A mover's payoff is its own Model II utility
//! `P_f + q(own suffix)·P_r − (C^p + C^t)`, where its suffix is the path
//! from it to R and `C^t` is the cost of its own edge.
//!
//! The router reads the movers after the root one way: each ranks its
//! continuations by suffix quality alone ([`Reading::SuffixQuality`]), so
//! its own transmission cost does not enter. With a constant `C^t` that
//! reading and the cost-counting one ([`Reading::CostCounting`]) have the
//! same SPNE, and the suite asserts the router against both; with per-edge
//! costs it asserts the router against its own reading everywhere and pins
//! how many checks the cost-counting reading disagrees on.
//!
//! Every node carries seeded prior connections of the bundle, so the
//! selectivity term of each edge quality is live: the game reads σ
//! through [`HistoryArena::selectivity_rescan`] (a recount of the stored
//! records), the router through the arena's index, and the suite checks
//! that the games score some edges with σ > 0.

use idpa_core::bundle::BundleId;
use idpa_core::contract::Contract;
use idpa_core::quality::{EdgeQuality, Weights};
use idpa_core::routing::{
    choose_next_hop_with, continuation_quality_with, RouteScratch, RoutingStrategy, RoutingView,
};
use idpa_core::utility::UtilityModel;
use idpa_core::HistoryArena;
use idpa_desim::rng::{StreamFactory, Xoshiro256StarStar};
use idpa_game::{GameTree, NodeRef};
use idpa_overlay::{NodeId, Topology};
use rand::RngExt;

/// Prior connections of the bundle recorded before each routing decision.
const PRIORS: u32 = 6;

/// The deciding node of every check.
const ROUTER: NodeId = NodeId(0);

/// A random static overlay with per-edge availabilities and costs.
struct Fixture {
    topology: Topology,
    avail: Vec<Vec<f64>>, // avail[s][v]
    /// `C^t(s, v)` per edge; `None` charges 1 on every edge.
    ct: Option<Vec<Vec<f64>>>,
    cp: f64,
}

impl Fixture {
    /// Constant costs: `C^t = C^p = 1`.
    fn random(n: usize, degree: usize, seed: u64) -> Self {
        let topology = Topology::random(n, degree, &StreamFactory::new(seed));
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let avail = (0..n)
            .map(|_| (0..n).map(|_| rng.random_range(0.0..1.0)).collect())
            .collect();
        Fixture {
            topology,
            avail,
            ct: None,
            cp: 1.0,
        }
    }

    /// Per-edge transmission costs drawn uniformly from `[1, 10)`, the
    /// range of the simulator's default cost model.
    fn with_edge_costs(mut self, seed: u64) -> Self {
        let n = self.topology.len();
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0xc057_ed9e);
        self.ct = Some(
            (0..n)
                .map(|_| (0..n).map(|_| rng.random_range(1.0..10.0)).collect())
                .collect(),
        );
        self
    }

    fn with_participation_cost(mut self, cp: f64) -> Self {
        self.cp = cp;
        self
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
    fn transmission_cost(&self, s: NodeId, v: NodeId) -> f64 {
        self.ct.as_ref().map_or(1.0, |ct| ct[s.index()][v.index()])
    }
    fn participation_cost(&self, _: NodeId) -> f64 {
        self.cp
    }
}

/// What a mover after the root maximises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reading {
    /// Its suffix quality alone — the router's reading.
    SuffixQuality,
    /// Its full Model II utility, its own `C^p + C^t` counted.
    CostCounting,
}

/// The L-stage game of the router at [`ROUTER`], built bottom-up into a
/// [`GameTree`] whose player `k` is the stage-`k` mover.
struct PathGame<'a> {
    fix: &'a Fixture,
    contract: &'a Contract,
    quality: &'a EdgeQuality,
    histories: &'a HistoryArena,
    reading: Reading,
    stages: usize,
    tree: GameTree,
    /// Edges the game scored with σ > 0.
    selective_edges: usize,
    /// The root's forwarding subgames, in action order.
    root_actions: Vec<NodeRef>,
}

impl PathGame<'_> {
    /// Live, unvisited, non-responder neighbours of the path's last node,
    /// in `live_neighbors_into` order.
    fn candidates(&self, path: &[NodeId]) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.fix.live_neighbors_into(path[path.len() - 1], &mut out);
        out.retain(|v| *v != self.contract.responder && !path.contains(v));
        out
    }

    fn edge(&mut self, s: NodeId, v: NodeId) -> f64 {
        let sigma = self
            .histories
            .selectivity_rescan(s, self.contract.bundle, PRIORS, v);
        if sigma > 0.0 {
            self.selective_edges += 1;
        }
        self.quality.edge(sigma, self.fix.availability(s, v))
    }

    /// The subgame after `path` has formed over edges of quality `edges`;
    /// its mover is the path's last node, player `path.len() - 1`.
    fn subgame(&mut self, path: &mut Vec<NodeId>, edges: &mut Vec<f64>) -> NodeRef {
        let stage = path.len() - 1;
        let candidates = if stage < self.stages {
            self.candidates(path)
        } else {
            Vec::new()
        };
        if stage > 0 && candidates.is_empty() {
            return self.deliver(path, edges);
        }
        let mut actions = Vec::with_capacity(candidates.len() + 1);
        for v in candidates {
            let q = self.edge(path[stage], v);
            path.push(v);
            edges.push(q);
            let child = self.subgame(path, edges);
            path.pop();
            edges.pop();
            actions.push((v.to_string(), child));
        }
        if stage == 0 {
            self.root_actions = actions.iter().map(|(_, child)| *child).collect();
            let decline = self.tree.terminal(vec![0.0; self.stages]);
            actions.push(("decline".to_string(), decline));
        }
        self.tree.decision(stage, actions)
    }

    /// Delivery to R over `path`. A node that forwarded is paid its Model
    /// II utility over its own suffix (or, under the router's reading and
    /// after the root, that suffix's quality); any other player gets 0.
    fn deliver(&mut self, path: &[NodeId], edges: &[f64]) -> NodeRef {
        let c = self.contract;
        let payoffs = (0..self.stages)
            .map(|k| {
                if k >= edges.len() {
                    return 0.0;
                }
                let suffix = &edges[k..];
                let q = (suffix.iter().sum::<f64>() + self.quality.responder_edge())
                    / (suffix.len() + 1) as f64;
                if k > 0 && self.reading == Reading::SuffixQuality {
                    return q;
                }
                let cost = self.fix.participation_cost(path[k])
                    + self.fix.transmission_cost(path[k], path[k + 1]);
                c.pf + q * c.pr - cost
            })
            .collect();
        self.tree.terminal(payoffs)
    }
}

/// One comparison of the router with the SPNE of its game.
struct Check {
    /// The SPNE root action is "decline".
    declined: bool,
    /// Every way the router departs from the SPNE.
    mismatches: Vec<String>,
}

/// Builds and solves the game of the router at [`ROUTER`] with the given
/// lookahead under `reading`, and compares it with the router.
fn check(
    fix: &Fixture,
    seed: u64,
    lookahead: u8,
    reading: Reading,
    selective: &mut usize,
) -> Check {
    let contract = Contract::new(BundleId(0), NodeId(fix.topology.len() - 1), 50.0, 100.0);
    let quality = EdgeQuality::new(Weights::balanced());
    let histories = fix.seeded_histories(contract.bundle, seed);
    let mut game = PathGame {
        fix,
        contract: &contract,
        quality: &quality,
        histories: &histories,
        reading,
        stages: usize::from(lookahead),
        tree: GameTree::new(usize::from(lookahead)),
        selective_edges: 0,
        root_actions: Vec::new(),
    };
    let root = game.subgame(&mut vec![ROUTER], &mut Vec::new());
    game.tree.set_root(root);
    let spne = game.tree.solve();
    *selective += game.selective_edges;
    let candidates = game.candidates(&[ROUTER]);
    let chosen = spne.choice[root.0].expect("the root decides");
    let spne_next = candidates.get(chosen).copied();

    let mut scratch = RouteScratch::new();
    let routed = choose_next_hop_with(
        &mut scratch,
        ROUTER,
        RoutingStrategy::Utility(UtilityModel::ModelII { lookahead }),
        &contract,
        PRIORS,
        &histories,
        fix,
        &quality,
        &mut Xoshiro256StarStar::seed_from_u64(seed),
    )
    .map(|c| c.next);
    let case = format!("seed {seed} lookahead {lookahead} {reading:?}");
    let mut mismatches = Vec::new();
    if routed != spne_next {
        mismatches.push(format!("{case}: routed {routed:?}, SPNE {spne_next:?}"));
    }
    // The SPNE path quality behind each root action, read back from the
    // root's equilibrium utility of that action's subgame.
    let cp = fix.participation_cost(ROUTER);
    for (&j, &child) in candidates.iter().zip(&game.root_actions) {
        let u = spne.value(child)[0];
        let expect = (u - contract.pf + cp + fix.transmission_cost(ROUTER, j)) / contract.pr;
        let sigma = histories.selectivity_rescan(ROUTER, contract.bundle, PRIORS, j);
        let q_edge = quality.edge(sigma, fix.availability(ROUTER, j));
        let got = continuation_quality_with(
            &mut scratch,
            ROUTER,
            j,
            q_edge,
            lookahead,
            &contract,
            PRIORS,
            &histories,
            fix,
            &quality,
        );
        if (got - expect).abs() >= 1e-9 {
            mismatches.push(format!("{case} via {j}: q {got}, SPNE {expect}"));
        }
    }
    Check {
        declined: spne_next.is_none(),
        mismatches,
    }
}

/// The router checked on every seeded fixture, both cost fixtures and
/// lookahead 1–4; `reading` picks what later movers maximise.
fn checks(reading: Reading, edge_costs: bool, cp: f64, selective: &mut usize) -> Vec<Check> {
    let mut out = Vec::new();
    for seed in 0..10 {
        let mut fix = Fixture::random(12, 3, seed).with_participation_cost(cp);
        if edge_costs {
            fix = fix.with_edge_costs(seed);
        }
        for lookahead in 1..=4u8 {
            out.push(check(&fix, seed, lookahead, reading, selective));
        }
    }
    out
}

fn mismatches(checks: &[Check]) -> Vec<&String> {
    checks.iter().flat_map(|c| &c.mismatches).collect()
}

#[test]
fn model2_router_plays_the_spne_of_the_l_stage_game() {
    let mut selective = 0;
    for edge_costs in [false, true] {
        let runs = checks(Reading::SuffixQuality, edge_costs, 1.0, &mut selective);
        let bad = mismatches(&runs);
        assert!(bad.is_empty(), "edge costs {edge_costs}: {bad:#?}");
    }
    assert!(
        selective > 0,
        "every edge the games scored had σ = 0: the histories exercised nothing"
    );
}

#[test]
fn constant_costs_make_the_two_readings_agree() {
    let runs = checks(Reading::CostCounting, false, 1.0, &mut 0);
    let bad = mismatches(&runs);
    assert!(bad.is_empty(), "{bad:#?}");
}

#[test]
fn router_declines_exactly_when_the_spne_declines() {
    // C^p = 110 puts the root's best utility on both sides of 0 across
    // the fixtures, so the "decline" action is taken and passed over.
    for reading in [Reading::SuffixQuality, Reading::CostCounting] {
        let runs = checks(reading, false, 110.0, &mut 0);
        let bad = mismatches(&runs);
        assert!(bad.is_empty(), "{reading:?}: {bad:#?}");
        let declined = runs.iter().filter(|c| c.declined).count();
        assert!(
            declined > 0 && declined < runs.len(),
            "{reading:?}: {declined} of {} declined",
            runs.len()
        );
    }
}

#[test]
fn per_edge_costs_split_the_two_readings() {
    // Under per-edge C^t a later mover that counts its own transmission
    // cost can prefer a cheaper edge to a better suffix; the router ranks
    // by suffix quality alone. On these fixtures that moves 16 root
    // candidates' path qualities and one root action (seed 9, lookahead
    // 4), all at lookahead 3 or 4; a router change that moves the count
    // shows here.
    let runs = checks(Reading::CostCounting, true, 1.0, &mut 0);
    let bad = mismatches(&runs);
    let root_actions = bad.iter().filter(|m| m.contains("routed")).count();
    assert_eq!((bad.len(), root_actions), (17, 1), "{bad:#?}");
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
        for &j in fix.topology.neighbors(ROUTER) {
            if j == contract.responder {
                continue;
            }
            let q = || {
                continuation_quality_with(
                    &mut RouteScratch::new(),
                    ROUTER,
                    j,
                    0.5,
                    la,
                    &contract,
                    PRIORS,
                    &histories,
                    &fix,
                    &quality,
                )
            };
            let (q1, q2) = (q(), q());
            assert_eq!(q1, q2, "deterministic");
            assert!((0.0..=1.0).contains(&q1), "bounded: {q1}");
        }
    }
}
