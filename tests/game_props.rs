//! Integration of the game-theoretic analysis (§2.4) with the simulated
//! mechanism: the stage-game propositions hold under the same parameters
//! the simulator runs with.

use idpa::game::extensive::GameTree;
use idpa::game::forwarding::{
    dominance_threshold, expected_session_payoff, participation_threshold, ForwardingStageGame,
    StageAction,
};
use idpa::prelude::*;

/// Prop. 3 under the simulator's default parameters: with P_f ∈ [50, 100]
/// and C^p + C^t at most 5 + 10, forwarding is a dominant strategy.
#[test]
fn default_scenario_satisfies_dominance_condition() {
    let cfg = ScenarioConfig::default();
    let world = World::generate(&cfg);
    // The worst-case transmission cost any link can draw.
    let max_ct = world.costs.max_transmission_cost();
    let cp = world.costs.participation_cost();
    let threshold = dominance_threshold(cp, max_ct);
    assert!(
        cfg.pf_range.0 > threshold,
        "P_f lower bound {} must exceed the dominance threshold {threshold}",
        cfg.pf_range.0
    );

    // And the normal-form check agrees for a representative game.
    let game = ForwardingStageGame {
        pf: cfg.pf_range.0,
        pr: 0.0,
        cp,
        ct: max_ct,
        q_random: 0.0,
        q_nonrandom: 0.0,
    };
    assert!(game.forwarding_is_dominant(3));
}

/// Prop. 2 under the paper's workload: N = 40, L ≈ 4 (Crowds p = 0.75),
/// k = 20 rounds per pair — the participation threshold is far below the
/// configured P_f.
#[test]
fn default_scenario_satisfies_participation_condition() {
    let cfg = ScenarioConfig::default();
    let l = cfg.policy.expected_hops();
    let k = cfg.total_transmissions / cfg.n_pairs;
    let threshold = participation_threshold(
        cfg.cost.participation_cost,
        10.0, // worst-case C^t under the default cost config
        cfg.n_nodes,
        l,
        k,
    );
    assert!(cfg.pf_range.0 > threshold);
    assert!(
        expected_session_payoff(
            cfg.pf_range.0,
            cfg.cost.participation_cost,
            10.0,
            cfg.n_nodes,
            l,
            k
        ) > 0.0
    );
}

/// The rational stage action under simulator parameters is non-random
/// forwarding whenever quality-routing yields any quality edge.
#[test]
fn rational_action_is_nonrandom_forwarding() {
    let game = ForwardingStageGame {
        pf: 50.0,
        pr: 50.0,
        cp: 5.0,
        ct: 10.0,
        q_random: 0.2,
        q_nonrandom: 0.6,
    };
    assert_eq!(game.rational_action(), StageAction::ForwardNonRandom);
    // And it is a pure Nash equilibrium of the 3-player encoding.
    let normal = game.to_normal_form(3);
    let all_nonrandom = vec![StageAction::ForwardNonRandom.index(); 3];
    assert!(normal.pure_nash_equilibria().contains(&all_nonrandom));
}

/// Model II's L-stage path game (§2.4.3): backward induction on an
/// explicit 3-stage tree picks the path that maximises each mover's own
/// continuation, which here coincides with the high-quality path.
#[test]
fn path_formation_game_spne_prefers_quality() {
    // Stage payoffs express U = P_f + q·P_r − C for the moving forwarder:
    // stage players 0 (initiator-side forwarder) then 1 (second forwarder).
    let pf = 50.0;
    let pr = 100.0;
    let c = 7.0;
    let u = |q: f64| pf + q * pr - c;

    let mut tree = GameTree::new(2);
    // Player 1 (second forwarder) chooses between delivering over a good
    // edge (q = 1, the responder edge) or a mediocre peer edge (q = 0.3).
    let deliver = tree.terminal(vec![u(0.9), u(1.0)]);
    let relay = tree.terminal(vec![u(0.9), u(0.3)]);
    let second = tree.decision(1, vec![("deliver", deliver), ("relay", relay)]);
    // Player 0 chooses between the path through player 1 (edge quality
    // 0.9) and a direct low-quality hand-off (q = 0.2).
    let low = tree.terminal(vec![u(0.2), 0.0]);
    let root = tree.decision(0, vec![("via-1", second), ("low", low)]);
    tree.set_root(root);

    let sol = tree.solve();
    let path: Vec<String> = sol
        .equilibrium_path(&tree)
        .into_iter()
        .map(|(_, label)| label)
        .collect();
    assert_eq!(path, vec!["via-1", "deliver"]);
    // The SPNE value for player 0 reflects the high-quality edge.
    assert!((sol.root_value(&tree)[0] - u(0.9)).abs() < 1e-12);
}

/// Sweeping P_f across the Prop. 3 boundary flips dominance exactly there.
#[test]
fn dominance_flips_at_threshold() {
    let (cp, ct) = (5.0, 2.0);
    let mk = |pf: f64| ForwardingStageGame {
        pf,
        pr: 0.0,
        cp,
        ct,
        q_random: 0.0,
        q_nonrandom: 0.0,
    };
    let thr = dominance_threshold(cp, ct);
    assert!(!mk(thr - 0.5).forwarding_is_dominant(2));
    assert!(mk(thr + 0.5).forwarding_is_dominant(2));
}
