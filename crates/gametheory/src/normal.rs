//! Finite n-player normal-form games.
//!
//! Strategy profiles are indexed in mixed radix: player `i` contributes
//! digit `profile[i] ∈ 0..n_strategies[i]`. Payoffs are stored densely,
//! one `Vec<f64>` (a payoff per player) per profile.

/// A finite n-player game in strategic (normal) form.
#[derive(Debug, Clone)]
pub struct NormalFormGame {
    n_strategies: Vec<usize>,
    /// `payoffs[profile_index][player]`.
    payoffs: Vec<Vec<f64>>,
}

impl NormalFormGame {
    /// Builds a game from a payoff function evaluated on every profile.
    ///
    /// `n_strategies[i]` is the number of pure strategies of player `i`;
    /// `payoff(profile)` returns one payoff per player.
    #[must_use]
    pub fn from_fn(n_strategies: Vec<usize>, mut payoff: impl FnMut(&[usize]) -> Vec<f64>) -> Self {
        assert!(!n_strategies.is_empty(), "game needs at least one player");
        assert!(
            n_strategies.iter().all(|&k| k > 0),
            "every player needs at least one strategy"
        );
        let total: usize = n_strategies.iter().product();
        let n_players = n_strategies.len();
        let mut payoffs = Vec::with_capacity(total);
        let mut profile = vec![0usize; n_players];
        for _ in 0..total {
            let p = payoff(&profile);
            assert_eq!(p.len(), n_players, "payoff vector length mismatch");
            payoffs.push(p);
            // Mixed-radix increment.
            for d in 0..n_players {
                profile[d] += 1;
                if profile[d] < n_strategies[d] {
                    break;
                }
                profile[d] = 0;
            }
        }
        NormalFormGame {
            n_strategies,
            payoffs,
        }
    }

    /// Number of players.
    #[must_use]
    pub fn n_players(&self) -> usize {
        self.n_strategies.len()
    }

    /// Number of pure strategies of `player`.
    #[must_use]
    pub fn n_strategies(&self, player: usize) -> usize {
        self.n_strategies[player]
    }

    fn profile_index(&self, profile: &[usize]) -> usize {
        debug_assert_eq!(profile.len(), self.n_strategies.len());
        let mut idx = 0;
        let mut stride = 1;
        for (d, &s) in profile.iter().enumerate() {
            debug_assert!(s < self.n_strategies[d]);
            idx += s * stride;
            stride *= self.n_strategies[d];
        }
        idx
    }

    /// Payoff of `player` at `profile`.
    #[must_use]
    pub fn payoff(&self, profile: &[usize], player: usize) -> f64 {
        self.payoffs[self.profile_index(profile)][player]
    }

    /// All profiles (mixed-radix enumeration). Intended for small games.
    #[must_use]
    pub fn profiles(&self) -> Vec<Vec<usize>> {
        let total: usize = self.n_strategies.iter().product();
        let mut out = Vec::with_capacity(total);
        let mut profile = vec![0usize; self.n_players()];
        for _ in 0..total {
            out.push(profile.clone());
            for (digit, &limit) in profile.iter_mut().zip(&self.n_strategies) {
                *digit += 1;
                if *digit < limit {
                    break;
                }
                *digit = 0;
            }
        }
        out
    }

    /// Best responses of `player` to the opponents' strategies in `profile`
    /// (the player's own entry is ignored). Returns all maximisers.
    #[must_use]
    pub fn best_responses(&self, profile: &[usize], player: usize) -> Vec<usize> {
        let mut probe = profile.to_vec();
        let mut best = f64::NEG_INFINITY;
        let mut arg = Vec::new();
        for s in 0..self.n_strategies[player] {
            probe[player] = s;
            let u = self.payoff(&probe, player);
            if u > best + 1e-12 {
                best = u;
                arg.clear();
                arg.push(s);
            } else if (u - best).abs() <= 1e-12 {
                arg.push(s);
            }
        }
        arg
    }

    /// All pure-strategy Nash equilibria (profiles where each strategy is a
    /// best response to the others).
    #[must_use]
    pub fn pure_nash_equilibria(&self) -> Vec<Vec<usize>> {
        self.profiles()
            .into_iter()
            .filter(|profile| {
                (0..self.n_players()).all(|player| {
                    self.best_responses(profile, player)
                        .contains(&profile[player])
                })
            })
            .collect()
    }

    /// Iterated elimination of strictly dominated strategies. Returns the
    /// surviving strategy sets, one per player.
    #[must_use]
    pub fn iterated_elimination(&self) -> Vec<Vec<usize>> {
        let mut alive: Vec<Vec<usize>> = self
            .n_strategies
            .iter()
            .map(|&k| (0..k).collect())
            .collect();

        loop {
            let mut removed_any = false;
            for player in 0..self.n_players() {
                let candidates = alive[player].clone();
                for &s in &candidates {
                    if alive[player].len() == 1 {
                        break;
                    }
                    // s is strictly dominated if some alive alternative does
                    // strictly better against all alive opponent profiles.
                    let dominated = alive[player].iter().any(|&alt| {
                        alt != s
                            && self.all_alive_opponent_profiles(&alive, player, |probe| {
                                let mut probe = probe.to_vec();
                                probe[player] = alt;
                                let u_alt = self.payoff(&probe, player);
                                probe[player] = s;
                                self.payoff(&probe, player) < u_alt - 1e-12
                            })
                    });
                    if dominated {
                        alive[player].retain(|&x| x != s);
                        removed_any = true;
                    }
                }
            }
            if !removed_any {
                return alive;
            }
        }
    }

    fn all_alive_opponent_profiles(
        &self,
        alive: &[Vec<usize>],
        player: usize,
        mut pred: impl FnMut(&[usize]) -> bool,
    ) -> bool {
        let others: Vec<usize> = (0..self.n_players()).filter(|&p| p != player).collect();
        let total: usize = others.iter().map(|&p| alive[p].len()).product();
        let mut digits = vec![0usize; others.len()];
        let mut profile = vec![0usize; self.n_players()];
        for _ in 0..total.max(1) {
            for (k, &p) in others.iter().enumerate() {
                profile[p] = alive[p][digits[k]];
            }
            if !pred(&profile) {
                return false;
            }
            for k in 0..digits.len() {
                digits[k] += 1;
                if digits[k] < alive[others[k]].len() {
                    break;
                }
                digits[k] = 0;
            }
        }
        true
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;

    /// Prisoner's dilemma: strategy 0 = cooperate, 1 = defect.
    fn prisoners_dilemma() -> NormalFormGame {
        NormalFormGame::from_fn(vec![2, 2], |p| match (p[0], p[1]) {
            (0, 0) => vec![3.0, 3.0],
            (0, 1) => vec![0.0, 5.0],
            (1, 0) => vec![5.0, 0.0],
            (1, 1) => vec![1.0, 1.0],
            _ => unreachable!(),
        })
    }

    /// Coordination game with two equilibria.
    fn coordination() -> NormalFormGame {
        NormalFormGame::from_fn(vec![2, 2], |p| {
            if p[0] == p[1] {
                vec![1.0, 1.0]
            } else {
                vec![0.0, 0.0]
            }
        })
    }

    /// Matching pennies: no pure equilibrium.
    fn matching_pennies() -> NormalFormGame {
        NormalFormGame::from_fn(vec![2, 2], |p| {
            if p[0] == p[1] {
                vec![1.0, -1.0]
            } else {
                vec![-1.0, 1.0]
            }
        })
    }

    #[test]
    fn payoff_lookup() {
        let g = prisoners_dilemma();
        assert_eq!(g.payoff(&[0, 1], 0), 0.0);
        assert_eq!(g.payoff(&[0, 1], 1), 5.0);
        assert_eq!(g.payoff(&[1, 1], 0), 1.0);
    }

    #[test]
    fn defect_is_strictly_dominant_in_pd() {
        // Strict dominance: defect is the unique best response to every
        // opponent strategy.
        let g = prisoners_dilemma();
        for player in 0..2 {
            for other in 0..2 {
                let mut profile = [other; 2];
                profile[player] = 0;
                assert_eq!(g.best_responses(&profile, player), vec![1]);
            }
        }
    }

    #[test]
    fn pd_unique_nash_is_defect_defect() {
        let g = prisoners_dilemma();
        assert_eq!(g.pure_nash_equilibria(), vec![vec![1, 1]]);
    }

    #[test]
    fn coordination_has_two_equilibria() {
        let g = coordination();
        let eqs = g.pure_nash_equilibria();
        assert_eq!(eqs, vec![vec![0, 0], vec![1, 1]]);
        // Neither strategy is dominant: each is the unique best response
        // to one opponent strategy only.
        assert_eq!(g.best_responses(&[0, 0], 0), vec![0]);
        assert_eq!(g.best_responses(&[0, 1], 0), vec![1]);
    }

    #[test]
    fn matching_pennies_has_no_pure_nash() {
        assert!(matching_pennies().pure_nash_equilibria().is_empty());
    }

    #[test]
    fn best_responses_in_pd() {
        let g = prisoners_dilemma();
        assert_eq!(g.best_responses(&[0, 0], 0), vec![1]);
        assert_eq!(g.best_responses(&[0, 1], 0), vec![1]);
    }

    #[test]
    fn best_responses_report_ties() {
        let g = NormalFormGame::from_fn(vec![3, 1], |p| vec![f64::from((p[0] != 1) as u8), 0.0]);
        assert_eq!(g.best_responses(&[0, 0], 0), vec![0, 2]);
    }

    #[test]
    fn iterated_elimination_solves_pd() {
        let g = prisoners_dilemma();
        assert_eq!(g.iterated_elimination(), vec![vec![1], vec![1]]);
    }

    #[test]
    fn iterated_elimination_keeps_undominated() {
        let g = coordination();
        assert_eq!(g.iterated_elimination(), vec![vec![0, 1], vec![0, 1]]);
    }

    #[test]
    fn iterated_elimination_multi_round() {
        // A 2-player game where elimination must cascade:
        // Player 0: strategies {0,1,2}; strategy 2 strictly dominated by 0;
        // once 2 is gone, player 1's strategy 1 becomes dominated.
        let g = NormalFormGame::from_fn(vec![3, 2], |p| {
            let u0 = match p[0] {
                0 => 3.0,
                1 => 2.0,
                _ => 1.0,
            };
            let u1 = match (p[0], p[1]) {
                (2, 1) => 10.0, // only good against eliminated strategy
                (_, 1) => 0.0,
                (_, 0) => 1.0,
                _ => unreachable!(),
            };
            vec![u0, u1]
        });
        let alive = g.iterated_elimination();
        assert_eq!(alive[0], vec![0]);
        assert_eq!(alive[1], vec![0]);
    }

    #[test]
    fn three_player_game_works() {
        // Three players each with 2 strategies; payoff 1 to everyone if all
        // match, else 0. All-match profiles are the pure equilibria.
        let g = NormalFormGame::from_fn(vec![2, 2, 2], |p| {
            let all_same = p.iter().all(|&s| s == p[0]);
            vec![f64::from(all_same as u8); 3]
        });
        let eqs = g.pure_nash_equilibria();
        assert!(eqs.contains(&vec![0, 0, 0]));
        assert!(eqs.contains(&vec![1, 1, 1]));
    }

    #[test]
    fn profiles_enumerates_all() {
        let g = NormalFormGame::from_fn(vec![2, 3], |_| vec![0.0, 0.0]);
        assert_eq!(g.profiles().len(), 6);
    }

    #[test]
    #[should_panic(expected = "at least one player")]
    fn empty_game_rejected() {
        let _ = NormalFormGame::from_fn(vec![], |_| vec![]);
    }
}
