//! Adversary models (§1, §2.4, §5).
//!
//! * **Random routing**: "We model an adversary's routing strategy as
//!   random routing" — realised by [`crate::routing::RoutingStrategy::Random`],
//!   which malicious nodes use regardless of the configured good-node
//!   strategy.
//! * **Availability attack** (§5 attack 1): "malicious nodes become highly
//!   available and wait for paths to be reformed through them" — a
//!   per-node rule of the world's churn source
//!   (`idpa_overlay::NodeSource::with_pinned_up`): an attacker's schedule
//!   is one session spanning the whole horizon.
//! * **Intersection attack** (§1, §2.1): a passive observer correlates the
//!   sets of *active* nodes across the recurring connections it can see,
//!   so the candidate set shrinks with each observation —
//!   [`IntersectionAttack`].

use std::collections::HashSet;

use idpa_desim::rng::Mix64State;
use idpa_overlay::NodeId;

/// The attacker's candidate-initiator set. Keys are node indices below N,
/// so the set hashes with [`Mix64State`] rather than SipHash.
pub type CandidateSet = HashSet<NodeId, Mix64State>;

/// A passive intersection attack on initiator anonymity.
///
/// Each time the adversary observes one of the target's recurring
/// connections (i.e. a malicious node sits on the path, or the attacker
/// taps the responder), it intersects its candidate-initiator set with the
/// set of nodes active at that moment. `‖candidates‖ = 1` means the
/// attack has narrowed the set to one node.
///
/// Nothing guarantees that node is the true initiator. An observation is
/// taken whenever a target connection runs, whatever the initiator's own
/// churn state, so an initiator that is down at that instant drops out of
/// the set; and a candidate pool of good nodes never contains a malicious
/// initiator. Either way the set can shrink onto the wrong node, or to
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct IntersectionAttack {
    candidates: Option<CandidateSet>,
    observations: u32,
}

impl IntersectionAttack {
    /// A fresh attack with no observations.
    #[must_use]
    pub fn new() -> Self {
        IntersectionAttack::default()
    }

    /// Incorporates one observation. `pool` lists every node the attacker
    /// counts as a possible initiator, and `is_active(n)` says whether
    /// node `n` was active while the target connection ran.
    ///
    /// The first observation keeps the active members of `pool`; every
    /// later one keeps only the candidates that are still active. Since
    /// every candidate came from the pool, that is the intersection with
    /// the pool's active members, and `pool` is read only once per
    /// attack: later observations cost O(‖candidates‖), not O(‖pool‖).
    /// Callers must pass the same pool on every observation.
    pub fn observe<P, A>(&mut self, pool: P, mut is_active: A)
    where
        P: IntoIterator<Item = NodeId>,
        A: FnMut(NodeId) -> bool,
    {
        self.observations += 1;
        match &mut self.candidates {
            None => {
                self.candidates = Some(pool.into_iter().filter(|&n| is_active(n)).collect());
            }
            Some(c) => c.retain(|&n| is_active(n)),
        }
    }

    /// Observations incorporated so far.
    #[must_use]
    pub fn observations(&self) -> u32 {
        self.observations
    }

    /// Size of the current candidate set (`usize::MAX` before any
    /// observation — every node is a candidate).
    #[must_use]
    pub fn candidate_count(&self) -> usize {
        self.candidates.as_ref().map_or(usize::MAX, HashSet::len)
    }

    /// The candidate set, if any observation happened.
    #[must_use]
    pub fn candidates(&self) -> Option<&CandidateSet> {
        self.candidates.as_ref()
    }

    /// Whether the attack has narrowed the candidates to exactly one node.
    #[must_use]
    pub fn exposed(&self) -> bool {
        self.candidate_count() == 1
    }

    /// Snapshot export: the observation count and, if any observation
    /// happened, the candidate set sorted by node index. The
    /// `None`/`Some` distinction is preserved — `None` means "every node
    /// is a candidate" and must not collapse to an empty set.
    #[must_use]
    pub fn snapshot_state(&self) -> (u32, Option<Vec<NodeId>>) {
        let candidates = self.candidates.as_ref().map(|c| {
            let mut v: Vec<NodeId> = c.iter().copied().collect();
            v.sort_unstable_by_key(|n| n.index());
            v
        });
        (self.observations, candidates)
    }

    /// Rebuilds an attack from an [`IntersectionAttack::snapshot_state`]
    /// export.
    #[must_use]
    pub fn from_snapshot(observations: u32, candidates: Option<Vec<NodeId>>) -> Self {
        IntersectionAttack {
            candidates: candidates.map(|v| v.into_iter().collect()),
            observations,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;

    /// One observation over the pool `0..8` with `active` up.
    fn observe(atk: &mut IntersectionAttack, active: &[usize]) {
        atk.observe((0..8).map(NodeId), |n| active.contains(&n.index()));
    }

    #[test]
    fn intersection_shrinks_candidates() {
        let mut atk = IntersectionAttack::new();
        assert_eq!(atk.candidate_count(), usize::MAX);
        observe(&mut atk, &[0, 1, 2, 3]);
        assert_eq!(atk.candidate_count(), 4);
        observe(&mut atk, &[0, 1, 5]);
        assert_eq!(atk.candidate_count(), 2);
        observe(&mut atk, &[1, 7]);
        assert!(atk.exposed());
        assert!(atk.candidates().unwrap().contains(&NodeId(1)));
        assert_eq!(atk.observations(), 3);
    }

    #[test]
    fn node_active_in_every_observation_survives() {
        // Node 0 is in every active set, so no intersection removes it.
        let mut atk = IntersectionAttack::new();
        for extra in [[1, 2], [3, 4], [5, 6]] {
            observe(&mut atk, &[0, extra[0], extra[1]]);
        }
        assert!(atk.candidates().unwrap().contains(&NodeId(0)));
        assert!(atk.exposed());
    }

    #[test]
    fn fewer_observations_leave_more_anonymity() {
        // The quantitative point of minimising path reformations: each
        // observation can only shrink the candidate set.
        let observations: [&[usize]; 4] = [&[0, 1, 2, 3, 4, 5], &[0, 1, 2, 3], &[0, 2, 3], &[0, 3]];
        let mut few = IntersectionAttack::new();
        observe(&mut few, observations[0]);
        observe(&mut few, observations[1]);
        let mut many = IntersectionAttack::new();
        for o in observations {
            observe(&mut many, o);
        }
        assert!(few.candidate_count() >= many.candidate_count());
    }

    #[test]
    fn disjoint_observation_empties_candidates() {
        let mut atk = IntersectionAttack::new();
        observe(&mut atk, &[1, 2]);
        observe(&mut atk, &[3, 4]);
        assert_eq!(atk.candidate_count(), 0);
        assert!(!atk.exposed());
    }
}
