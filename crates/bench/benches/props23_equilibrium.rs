//! Props. 2-3 regeneration: stage-game dominance checks and threshold
//! evaluation across the P_f sweep, plus backward induction on a
//! path-formation-shaped extensive game.

use idpa_bench::harness::Harness;
use idpa_game::forwarding::{
    dominance_threshold, expected_session_payoff, participation_threshold, ForwardingStageGame,
};
use idpa_game::{GameTree, NodeRef};
use std::hint::black_box;

/// A full `branching`-ary two-player tree of the given depth whose leaf
/// payoffs depend only on the parity of the move-index sum — the
/// extensive-form shape path formation produces, where the branching
/// factor is the neighbor degree.
fn parity_tree(depth: u32, branching: usize) -> GameTree {
    let mut t = GameTree::new(2);
    let leaves = branching.pow(depth);
    let mut level: Vec<NodeRef> = (0..leaves)
        .map(|leaf| {
            // Sum of base-`branching` digits: the number of odd moves on
            // the history reaching this leaf.
            let mut x = leaf;
            let mut digit_sum = 0usize;
            while x > 0 {
                digit_sum += x % branching;
                x /= branching;
            }
            if digit_sum.is_multiple_of(2) {
                t.terminal(vec![1.0, 0.0])
            } else {
                t.terminal(vec![0.0, 1.0])
            }
        })
        .collect();
    let mut stage = 0usize;
    while level.len() > 1 {
        let player = stage % 2;
        level = level
            .chunks(branching)
            .map(|kids| {
                let actions: Vec<(String, NodeRef)> = kids
                    .iter()
                    .enumerate()
                    .map(|(a, &c)| (format!("a{a}"), c))
                    .collect();
                t.decision(player, actions)
            })
            .collect();
        stage += 1;
    }
    t.set_root(level[0]);
    t
}

fn main() {
    let (cp, ct) = (5.0, 2.0);
    let p2 = participation_threshold(cp, ct, 40, 4.0, 20);
    let p3 = dominance_threshold(cp, ct);
    println!("props23: Prop.2 threshold={p2:.2} Prop.3 threshold={p3:.2}");
    for pf in [p3 * 0.9, p3 * 1.1, 50.0] {
        let game = ForwardingStageGame {
            pf,
            pr: 0.0,
            cp,
            ct,
            q_random: 0.0,
            q_nonrandom: 0.0,
        };
        println!(
            "  P_f={pf:.2}: dominant={} session_payoff={:.2}",
            game.forwarding_is_dominant(2),
            expected_session_payoff(pf, cp, ct, 40, 4.0, 20)
        );
    }
    let mut h = Harness::new();
    let game = ForwardingStageGame {
        pf: 50.0,
        pr: 100.0,
        cp,
        ct,
        q_random: 0.2,
        q_nonrandom: 0.8,
    };
    h.bench("props23/dominance_check_3p", || {
        game.forwarding_is_dominant(black_box(3))
    });
    let normal = game.to_normal_form(3);
    h.bench("props23/nash_enumeration_3p", || {
        normal.pure_nash_equilibria()
    });

    let tree = parity_tree(5, 8); // degree-8 path game, 37449 nodes
    h.bench("props23/spne_solve_d8", || tree.solve());
    h.write_json_default().expect("write bench report");
}
