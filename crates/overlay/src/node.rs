//! Peer identities and roles.

use std::fmt;

use rand::{Rng, RngExt};

/// Identifier of a peer: index into the system's node table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Role of a peer in the threat model of §2.4 / §3.
///
/// The paper: "the primary objective of an adversary in an anonymous
/// forwarding system is to identify the end points of a communication and
/// therefore its routing decision is not aligned with any economic
/// incentive. We model an adversary's routing strategy as random routing."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A selfish-but-rational peer: maximises its utility, so it routes by
    /// edge/path quality.
    Good,
    /// An adversary: participates, but routes randomly (and, in the
    /// availability-attack variant, manipulates its own uptime).
    Malicious,
}

impl NodeKind {
    /// Whether this peer plays the utility-maximising strategy.
    #[must_use]
    pub fn is_good(self) -> bool {
        matches!(self, NodeKind::Good)
    }
}

/// Assigns roles to `n` nodes with exactly `⌊f·n⌉` malicious ones: the
/// ids that a backward Fisher–Yates shuffle of `0..n` leaves in its last
/// `⌊f·n⌉` positions. The workload draws initiators and responders by id
/// from its own stream, so it is unaffected by `f` under common random
/// numbers, and the malicious set at a lower `f` is a subset of the set at
/// a higher one.
///
/// Only the first `⌊f·n⌉` steps of the shuffle run: step `i` swaps
/// position `i` with a uniform `j ≤ i` and never touches position `i`
/// again, so the tail is final once its steps are done. The same
/// `rng.random_range(0..=i)` calls as the full shuffle give the same ids.
/// Position 0 takes no draw: after every other step it holds the one id
/// left. At `f = 0` no step runs and no id array is allocated.
#[must_use]
pub fn assign_roles<R: Rng>(n: usize, f: f64, rng: &mut R) -> Vec<NodeKind> {
    assert!((0.0..=1.0).contains(&f), "fraction out of range: {f}");
    let n_bad = (f * n as f64).round() as usize;
    let mut kinds = vec![NodeKind::Good; n];
    if n_bad == 0 {
        return kinds;
    }
    let n32 = u32::try_from(n).expect("node count exceeds u32 ids");
    let mut ids: Vec<u32> = (0..n32).collect();
    let tail = n - n_bad..n;
    for i in tail.clone().rev().filter(|&i| i > 0) {
        let j = rng.random_range(0..=i);
        ids.swap(i, j);
    }
    for &id in &ids[tail] {
        kinds[id as usize] = NodeKind::Malicious;
    }
    kinds
}

#[cfg(test)]
mod tests {
    use super::*;
    use idpa_desim::rng::Xoshiro256StarStar;

    #[test]
    fn node_id_round_trips() {
        assert_eq!(NodeId(7).index(), 7);
        assert_eq!(format!("{}", NodeId(3)), "n3");
        assert_eq!(format!("{:?}", NodeId(3)), "n3");
    }

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    /// The reference: the full backward Fisher–Yates shuffle of `0..n`.
    fn shuffled(n: usize, seed: u64) -> Vec<usize> {
        let mut rng = rng(seed);
        let mut ids: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            ids.swap(i, j);
        }
        ids
    }

    fn malicious(kinds: &[NodeKind]) -> usize {
        kinds.iter().filter(|k| !k.is_good()).count()
    }

    #[test]
    fn tail_draw_matches_the_dense_shuffle() {
        let mut cases: Vec<(usize, f64)> = Vec::new();
        for n in [1usize, 2] {
            for f in [0.0, 0.25, 0.5, 0.75, 1.0] {
                cases.push((n, f));
            }
        }
        let mut pick = rng(0x501e);
        while cases.len() < 320 {
            let n = pick.random_range(3usize..3000);
            let f = match cases.len() % 5 {
                0 => 0.0,
                1 => 1.0,
                // Short tails.
                2 => pick.random_range(0.0..0.03),
                // f·n on a rounding boundary: k + 0.5, or just either side.
                3 => {
                    let k = pick.random_range(0..n) as f64;
                    let f = (k + 0.5) / n as f64;
                    [f, f.next_down(), f.next_up()][pick.random_range(0usize..3)].min(1.0)
                }
                _ => pick.random_range(0.0..=1.0),
            };
            cases.push((n, f));
        }
        for (case, &(n, f)) in cases.iter().enumerate() {
            let seed = 7 + case as u64;
            let n_bad = (f * n as f64).round() as usize;
            let kinds = assign_roles(n, f, &mut rng(seed));
            let mut expected = vec![NodeKind::Good; n];
            for &v in &shuffled(n, seed)[n - n_bad..] {
                expected[v] = NodeKind::Malicious;
            }
            assert_eq!(kinds, expected, "n={n} f={f}");
            assert_eq!(malicious(&kinds), n_bad, "n={n} f={f}");
            // A lower f marks a subset of the same ids.
            let lower = f * pick.random_range(0.0..1.0);
            let fewer = assign_roles(n, lower, &mut rng(seed));
            for (v, (lo, hi)) in fewer.iter().zip(&kinds).enumerate() {
                assert!(
                    lo.is_good() || !hi.is_good(),
                    "n={n} f={lower}<{f}: node {v}"
                );
            }
        }
    }

    #[test]
    fn assign_roles_counts() {
        assert_eq!(malicious(&assign_roles(40, 0.1, &mut rng(1))), 4);
    }

    #[test]
    fn assign_roles_zero_and_one() {
        assert!(assign_roles(10, 0.0, &mut rng(2))
            .iter()
            .all(|k| k.is_good()));
        assert!(assign_roles(10, 1.0, &mut rng(2))
            .iter()
            .all(|k| !k.is_good()));
    }

    #[test]
    #[should_panic(expected = "fraction out of range")]
    fn assign_roles_rejects_bad_fraction() {
        let _ = assign_roles(2, 1.5, &mut rng(3));
    }
}
