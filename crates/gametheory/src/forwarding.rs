//! The paper's forwarding/routing stage game (§2.4).
//!
//! "At each stage a node has three choices; a) not participate in
//! forwarding, b) forward and route randomly, c) forward and route
//! non-randomly." A forwarder's utility (model I) is
//! `U = P_f + q·P_r − (C^p + C^t)` where the achieved edge quality `q`
//! depends on the routing choice: utility-driven (non-random) routing picks
//! the maximum-quality edge, random routing draws an average one.
//!
//! The module provides the stage game itself plus numeric verification of
//! the paper's two analytic conditions:
//!
//! * **Prop. 2** — `P_f > C^p·N/(L·k) + C^t` induces participation: with k
//!   connections of average length L spread over N peers, a peer expects
//!   `L·k/N` forwarding instances per session, so the per-instance benefit
//!   must amortise the one-time participation cost.
//! * **Prop. 3** — `P_f > C^p + C^t` makes forwarding a dominant strategy
//!   of the stage game: the worst-case benefit (quality 0, so no routing
//!   benefit) already beats non-participation.

use crate::normal::NormalFormGame;

/// The three stage-game actions, in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageAction {
    /// Decline to join the forwarding path (utility 0).
    NotParticipate,
    /// Forward, choosing the next hop uniformly at random (the adversary's
    /// strategy, also available to selfish peers).
    ForwardRandom,
    /// Forward, choosing the next hop by maximum utility (edge quality).
    ForwardNonRandom,
}

impl StageAction {
    /// All actions, indexed consistently with
    /// [`ForwardingStageGame::to_normal_form`].
    pub const ALL: [StageAction; 3] = [
        StageAction::NotParticipate,
        StageAction::ForwardRandom,
        StageAction::ForwardNonRandom,
    ];

    /// The index used in normal-form encodings.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            StageAction::NotParticipate => 0,
            StageAction::ForwardRandom => 1,
            StageAction::ForwardNonRandom => 2,
        }
    }
}

/// Parameters of one stage of the forwarding game.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForwardingStageGame {
    /// Forwarding benefit `P_f` per forwarding instance.
    pub pf: f64,
    /// Routing benefit pool `P_r` (shared over the forwarder set).
    pub pr: f64,
    /// One-time participation cost `C^p`.
    pub cp: f64,
    /// Transmission cost `C^t` to the next hop.
    pub ct: f64,
    /// Expected edge quality achieved by *random* next-hop choice.
    pub q_random: f64,
    /// Edge quality achieved by utility-maximising choice (the maximum over
    /// the neighbor set, so `q_nonrandom >= q_random`).
    pub q_nonrandom: f64,
}

impl ForwardingStageGame {
    /// Validates the quality ordering and ranges.
    pub fn validate(&self) {
        assert!(self.pf >= 0.0 && self.pr >= 0.0, "negative benefits");
        assert!(self.cp >= 0.0 && self.ct >= 0.0, "negative costs");
        assert!(
            (0.0..=1.0).contains(&self.q_random) && (0.0..=1.0).contains(&self.q_nonrandom),
            "qualities must be in [0,1]"
        );
        assert!(
            self.q_nonrandom >= self.q_random,
            "max-quality choice cannot be worse than a random one"
        );
    }

    /// Single-peer stage utility of an action (utility model I with the
    /// routing-benefit share at its single-stage value `q·P_r`).
    #[must_use]
    pub fn utility(&self, action: StageAction) -> f64 {
        match action {
            StageAction::NotParticipate => 0.0,
            StageAction::ForwardRandom => self.pf + self.q_random * self.pr - (self.cp + self.ct),
            StageAction::ForwardNonRandom => {
                self.pf + self.q_nonrandom * self.pr - (self.cp + self.ct)
            }
        }
    }

    /// The action a rational peer plays at this stage (argmax utility; ties
    /// broken toward the higher-quality routing choice, as the paper breaks
    /// ties "by selecting a neighbor with a higher quality").
    #[must_use]
    pub fn rational_action(&self) -> StageAction {
        let mut best = StageAction::NotParticipate;
        for action in [StageAction::ForwardRandom, StageAction::ForwardNonRandom] {
            if self.utility(action) >= self.utility(best) {
                best = action;
            }
        }
        best
    }

    /// Encodes an `n_players`-peer symmetric participation game.
    ///
    /// The coupling between peers is the *implicit cooperation* the routing
    /// benefit induces (§2.2): a peer's achieved routing-benefit share
    /// grows with the fraction of other participants who also route
    /// non-randomly, because non-random routing keeps the forwarder set
    /// `‖π‖` small. We model the share multiplicatively:
    /// `share_i = q_i · P_r · (1 + #others-nonrandom) / n_players`.
    /// The factor is ≥ 1/n and ≤ 1, so it preserves both propositions'
    /// thresholds while making "everyone non-random" the best symmetric
    /// outcome.
    #[must_use]
    pub fn to_normal_form(&self, n_players: usize) -> NormalFormGame {
        self.validate();
        assert!(n_players >= 1);
        let game = *self;
        NormalFormGame::from_fn(vec![3; n_players], move |profile| {
            let nonrandom_count = profile
                .iter()
                .filter(|&&a| a == StageAction::ForwardNonRandom.index())
                .count();
            profile
                .iter()
                .map(|&a| {
                    if a == StageAction::NotParticipate.index() {
                        return 0.0;
                    }
                    let q = if a == StageAction::ForwardNonRandom.index() {
                        game.q_nonrandom
                    } else {
                        game.q_random
                    };
                    let others_nonrandom =
                        nonrandom_count - usize::from(a == StageAction::ForwardNonRandom.index());
                    let coop = (1.0 + others_nonrandom as f64) / n_players as f64;
                    game.pf + q * game.pr * coop - (game.cp + game.ct)
                })
                .collect()
        })
    }

    /// Whether forwarding (in either routing flavour) strictly beats
    /// non-participation for **every** quality outcome — the Prop. 3
    /// dominance condition, checked numerically over the normal form.
    #[must_use]
    pub fn forwarding_is_dominant(&self, n_players: usize) -> bool {
        let g = self.to_normal_form(n_players);
        // "Forwarding dominant" in the paper's sense: NotParticipate is
        // strictly dominated (by the better of the two forwarding actions).
        let alive = g.iterated_elimination();
        alive
            .iter()
            .all(|set| !set.contains(&StageAction::NotParticipate.index()))
    }
}

/// Prop. 2 threshold: the `P_f` above which participation is induced, for
/// participation cost `cp`, transmission cost `ct`, `n` peers, average path
/// length `l` and `k` connections.
#[must_use]
pub fn participation_threshold(cp: f64, ct: f64, n: usize, l: f64, k: usize) -> f64 {
    assert!(
        l > 0.0 && k > 0,
        "need positive path length and connections"
    );
    cp * n as f64 / (l * k as f64) + ct
}

/// Prop. 3 threshold: the `P_f` above which forwarding is a dominant
/// strategy of the stage game.
#[must_use]
pub fn dominance_threshold(cp: f64, ct: f64) -> f64 {
    cp + ct
}

/// Expected per-session payoff of a participating peer under Prop. 2's
/// accounting: `m·P_f − m·C^t − C^p` with `m = L·k/N` expected forwarding
/// instances (routing benefit omitted — the proposition's worst case).
#[must_use]
pub fn expected_session_payoff(pf: f64, cp: f64, ct: f64, n: usize, l: f64, k: usize) -> f64 {
    let m = l * k as f64 / n as f64;
    m * pf - m * ct - cp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn game(pf: f64) -> ForwardingStageGame {
        ForwardingStageGame {
            pf,
            pr: 100.0,
            cp: 5.0,
            ct: 2.0,
            q_random: 0.3,
            q_nonrandom: 0.8,
        }
    }

    #[test]
    fn utilities_match_model_one() {
        let g = game(50.0);
        assert_eq!(g.utility(StageAction::NotParticipate), 0.0);
        assert!((g.utility(StageAction::ForwardRandom) - (50.0 + 30.0 - 7.0)).abs() < 1e-12);
        assert!((g.utility(StageAction::ForwardNonRandom) - (50.0 + 80.0 - 7.0)).abs() < 1e-12);
    }

    #[test]
    fn rational_peer_routes_nonrandomly() {
        assert_eq!(game(50.0).rational_action(), StageAction::ForwardNonRandom);
    }

    #[test]
    fn rational_peer_opts_out_when_costs_dominate() {
        let g = ForwardingStageGame {
            pf: 1.0,
            pr: 0.0,
            cp: 5.0,
            ct: 2.0,
            q_random: 0.0,
            q_nonrandom: 0.0,
        };
        assert_eq!(g.rational_action(), StageAction::NotParticipate);
    }

    #[test]
    fn prop3_dominance_above_threshold() {
        // pf > cp + ct = 7: forwarding dominant for any quality values.
        let g = game(7.5);
        assert!(g.forwarding_is_dominant(2));
        assert!(g.forwarding_is_dominant(3));
    }

    #[test]
    fn prop3_no_dominance_below_threshold_with_zero_quality() {
        // pf < cp + ct and no routing benefit reachable: not dominant.
        let g = ForwardingStageGame {
            pf: 6.0,
            pr: 0.0,
            cp: 5.0,
            ct: 2.0,
            q_random: 0.0,
            q_nonrandom: 0.0,
        };
        assert!(!g.forwarding_is_dominant(2));
    }

    #[test]
    fn equilibrium_is_all_nonrandom_above_threshold() {
        let g = game(10.0).to_normal_form(3);
        let eqs = g.pure_nash_equilibria();
        let all_nonrandom = vec![StageAction::ForwardNonRandom.index(); 3];
        assert!(
            eqs.contains(&all_nonrandom),
            "all-nonrandom must be an equilibrium, got {eqs:?}"
        );
    }

    #[test]
    fn nonrandom_weakly_dominates_random() {
        let g = game(10.0).to_normal_form(2);
        // For each player: nonrandom is weakly dominant among the three,
        // i.e. a best response to every opponent profile.
        let nr = StageAction::ForwardNonRandom.index();
        for p in 0..2 {
            for profile in g.profiles() {
                assert!(g.best_responses(&profile, p).contains(&nr), "{profile:?}");
            }
        }
    }

    #[test]
    fn participation_threshold_formula() {
        // cp=5, ct=2, N=40, L=4, k=20: threshold = 5*40/(4*20) + 2 = 4.5
        let t = participation_threshold(5.0, 2.0, 40, 4.0, 20);
        assert!((t - 4.5).abs() < 1e-12);
    }

    #[test]
    fn participation_threshold_monotonicity() {
        // More peers => each forwards less often => higher threshold.
        assert!(
            participation_threshold(5.0, 2.0, 80, 4.0, 20)
                > participation_threshold(5.0, 2.0, 40, 4.0, 20)
        );
        // More connections => cost amortised further => lower threshold.
        assert!(
            participation_threshold(5.0, 2.0, 40, 4.0, 40)
                < participation_threshold(5.0, 2.0, 40, 4.0, 20)
        );
    }

    #[test]
    fn expected_payoff_positive_exactly_above_threshold() {
        let (cp, ct, n, l, k) = (5.0, 2.0, 40, 4.0, 20);
        let thr = participation_threshold(cp, ct, n, l, k);
        assert!(expected_session_payoff(thr + 0.01, cp, ct, n, l, k) > 0.0);
        assert!(expected_session_payoff(thr - 0.01, cp, ct, n, l, k) < 0.0);
        assert!(expected_session_payoff(thr, cp, ct, n, l, k).abs() < 1e-9);
    }

    #[test]
    fn dominance_threshold_is_cost_sum() {
        assert_eq!(dominance_threshold(5.0, 2.0), 7.0);
    }

    #[test]
    fn coop_factor_rewards_mutual_nonrandom_routing() {
        // A nonrandom router earns more when the other player also routes
        // nonrandomly than when the other routes randomly.
        let g = game(10.0).to_normal_form(2);
        let nr = StageAction::ForwardNonRandom.index();
        let r = StageAction::ForwardRandom.index();
        assert!(g.payoff(&[nr, nr], 0) > g.payoff(&[nr, r], 0));
    }

    #[test]
    #[should_panic(expected = "cannot be worse")]
    fn validate_rejects_inverted_qualities() {
        ForwardingStageGame {
            pf: 1.0,
            pr: 1.0,
            cp: 0.0,
            ct: 0.0,
            q_random: 0.9,
            q_nonrandom: 0.1,
        }
        .validate();
    }
}
