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
//!   sets of *active* nodes across the recurring connections it can see;
//!   the initiator must lie in every such set, so the candidate set shrinks
//!   with each observation — [`IntersectionAttack`].

use std::collections::HashSet;

use idpa_overlay::NodeId;

/// A passive intersection attack on initiator anonymity.
///
/// Each time the adversary observes one of the target's recurring
/// connections (i.e. a malicious node sits on the path, or the attacker
/// taps the responder), it intersects its candidate-initiator set with the
/// set of nodes active at that moment. `‖candidates‖ = 1` means the
/// initiator is exposed.
#[derive(Debug, Clone, Default)]
pub struct IntersectionAttack {
    candidates: Option<HashSet<NodeId>>,
    observations: u32,
}

impl IntersectionAttack {
    /// A fresh attack with no observations.
    #[must_use]
    pub fn new() -> Self {
        IntersectionAttack::default()
    }

    /// Incorporates one observation: the set of nodes active while a
    /// target connection ran. (The true initiator is always active during
    /// its own connection, so it survives every intersection.)
    pub fn observe(&mut self, active: &HashSet<NodeId>) {
        self.observations += 1;
        match &mut self.candidates {
            None => self.candidates = Some(active.clone()),
            Some(c) => c.retain(|n| active.contains(n)),
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
    pub fn candidates(&self) -> Option<&HashSet<NodeId>> {
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

    fn set(ids: &[usize]) -> HashSet<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn intersection_shrinks_candidates() {
        let mut atk = IntersectionAttack::new();
        assert_eq!(atk.candidate_count(), usize::MAX);
        atk.observe(&set(&[0, 1, 2, 3]));
        assert_eq!(atk.candidate_count(), 4);
        atk.observe(&set(&[0, 1, 5]));
        assert_eq!(atk.candidate_count(), 2);
        atk.observe(&set(&[1, 7]));
        assert!(atk.exposed());
        assert!(atk.candidates().unwrap().contains(&NodeId(1)));
        assert_eq!(atk.observations(), 3);
    }

    #[test]
    fn true_initiator_survives_every_intersection() {
        // The initiator (node 0) is in every active set by construction.
        let mut atk = IntersectionAttack::new();
        for extra in [[1, 2], [3, 4], [5, 6]] {
            let mut s = set(&extra);
            s.insert(NodeId(0));
            atk.observe(&s);
        }
        assert!(atk.candidates().unwrap().contains(&NodeId(0)));
        assert!(atk.exposed());
    }

    #[test]
    fn fewer_observations_leave_more_anonymity() {
        // The quantitative point of minimising path reformations: each
        // observation can only shrink the candidate set.
        let observations = [
            set(&[0, 1, 2, 3, 4, 5]),
            set(&[0, 1, 2, 3]),
            set(&[0, 2, 3]),
            set(&[0, 3]),
        ];
        let mut few = IntersectionAttack::new();
        few.observe(&observations[0]);
        few.observe(&observations[1]);
        let mut many = IntersectionAttack::new();
        for o in &observations {
            many.observe(o);
        }
        assert!(few.candidate_count() >= many.candidate_count());
    }

    #[test]
    fn disjoint_observation_empties_candidates() {
        let mut atk = IntersectionAttack::new();
        atk.observe(&set(&[1, 2]));
        atk.observe(&set(&[3, 4]));
        assert_eq!(atk.candidate_count(), 0);
        assert!(!atk.exposed());
    }
}
