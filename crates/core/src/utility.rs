//! The utility models (§2.2, §2.4.2, §2.4.3).
//!
//! * **Model I** (edge-local): `U_i(j) = P_f + q(i,j)·P_r − (C_i^p + C^t(i,j))`
//! * **Model II** (path-global): `U_i(j) = P_f + q(π(i,j,R))·P_r − (C_i^p + C^t(i,j))`,
//!   where `q(π(i,j,R))` is the quality of the best continuation path from
//!   `i` through `j` to the responder — evaluated by bounded-depth backward
//!   induction over the live neighbor graph (the L-stage game of §2.4.3).

/// Forwarder utility, model I: `P_f + q·P_r − (C^p + C^t)`.
#[must_use]
pub fn model_one_utility(pf: f64, pr: f64, edge_quality: f64, cp: f64, ct: f64) -> f64 {
    pf + edge_quality * pr - (cp + ct)
}

/// Forwarder utility, model II: `P_f + q_path·P_r − (C^p + C^t)` where
/// `q_path` is the (normalised) quality of the continuation path through
/// the candidate.
#[must_use]
pub fn model_two_utility(pf: f64, pr: f64, path_quality: f64, cp: f64, ct: f64) -> f64 {
    pf + path_quality * pr - (cp + ct)
}

/// Which utility model a good node routes by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UtilityModel {
    /// Edge-local (§2.4.2). Next-hop choice costs `O(d)` per hop
    /// (`O(log d)` with a sorted neighbor cache, as the paper notes).
    ModelI,
    /// Path-global (§2.4.3), with the given lookahead horizon (depth of
    /// the backward-induction evaluation toward R).
    ModelII {
        /// Continuation-path search depth. Depth 1 degenerates to model I.
        lookahead: u8,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_one_matches_formula() {
        // U = 50 + 0.5*100 - (5 + 2) = 93
        assert!((model_one_utility(50.0, 100.0, 0.5, 5.0, 2.0) - 93.0).abs() < 1e-12);
    }

    #[test]
    fn model_one_increases_with_quality() {
        let low = model_one_utility(50.0, 100.0, 0.2, 5.0, 2.0);
        let high = model_one_utility(50.0, 100.0, 0.9, 5.0, 2.0);
        assert!(high > low);
    }

    #[test]
    fn model_two_matches_formula() {
        assert!((model_two_utility(50.0, 100.0, 0.8, 5.0, 2.0) - 123.0).abs() < 1e-12);
    }

    #[test]
    fn models_agree_when_path_equals_edge_quality() {
        assert_eq!(
            model_one_utility(50.0, 100.0, 0.6, 5.0, 2.0),
            model_two_utility(50.0, 100.0, 0.6, 5.0, 2.0)
        );
    }
}
