//! Active-probing availability estimation (§2.3 of the paper).
//!
//! > "When a peer first joins the system, it initializes the session time of
//! > each of its neighbors to 0. At the start of each probing period a peer
//! > s checks the liveness of each neighbor. If the neighbor is alive, its
//! > session time t_s is updated as t_s^new = t_s^old + T, where T is the
//! > probing time period. If a new neighbor is found, its session time is
//! > updated as t_s^new = rand(0, T) ... Finally availability of a neighbor
//! > u ∈ D(s) is calculated as α(u) = t_s(u) / Σ_{v∈D(s)} t_s(v)."
//!
//! Note the estimator is *relative*: α sums to 1 over the neighbor set (when
//! any session time is non-zero), so it ranks neighbors by observed uptime
//! rather than measuring absolute uptime fraction.

use idpa_desim::rng::{StreamFactory, Xoshiro256StarStar};
use rand::RngExt;

use crate::node::NodeId;

/// The most neighbor slots an estimator may hold: the first-sighting draw
/// packs the slot index into 16 bits of its stream key, so a larger degree
/// would make two slots share one draw.
pub const MAX_NEIGHBOR_SLOTS: usize = 1 << 16;

/// Stream label for the `rand(0, T)` first-sighting initialisation draw.
pub(crate) const PROBE_INIT_LABEL: &str = "probe-init";
/// Stream label for neighbor-replacement candidate draws.
pub(crate) const PROBE_MAINT_LABEL: &str = "probe-maint";

/// The `rand(0, T)` first-sighting draw, keyed by *position* — (owner,
/// neighbor slot, probe round) — rather than taken from a shared sequential
/// stream. Keying by position is what lets a lazily-materialized estimator
/// reproduce the draw bit-for-bit without replaying every earlier round.
pub(crate) fn init_session_draw(
    streams: &StreamFactory,
    owner: NodeId,
    slot: usize,
    round: u64,
    period: f64,
) -> f64 {
    debug_assert!(
        slot < MAX_NEIGHBOR_SLOTS,
        "neighbor slot index exceeds key space"
    );
    let key = (round << 16) | slot as u64;
    let mut rng = streams.stream_indexed2(PROBE_INIT_LABEL, owner.index() as u64, key);
    rng.random_range(0.0..period)
}

/// The candidate stream for one (owner, round) neighbor-maintenance pass.
/// All stale slots of the round draw sequentially from this one stream, in
/// slot order.
pub(crate) fn maintenance_stream(
    streams: &StreamFactory,
    owner: NodeId,
    round: u64,
) -> Xoshiro256StarStar {
    streams.stream_indexed2(PROBE_MAINT_LABEL, owner.index() as u64, round)
}

/// Per-node availability estimator driven by periodic liveness probes.
///
/// Session time is represented in closed form — `init + live_rounds · T`
/// per neighbor — so that an estimator advanced one round at a time and one
/// reconstructed analytically from a churn schedule produce bit-identical
/// floating-point values (no dependence on f64 summation order).
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeEstimator {
    pub(crate) owner: NodeId,
    pub(crate) period: f64,
    pub(crate) neighbors: Vec<NodeId>,
    /// The `rand(0, T)` first-sighting initialisation per slot (0 until the
    /// neighbor is first seen alive), parallel to `neighbors`.
    pub(crate) init_time: Vec<f64>,
    /// Live probe rounds observed *after* the first sighting, per slot.
    pub(crate) live_rounds: Vec<u64>,
    /// Whether the neighbor was seen alive at least once (drives the
    /// "new neighbor found" initialisation rule).
    pub(crate) ever_seen: Vec<bool>,
    /// Round at which each neighbor was last observed alive (0 if never).
    pub(crate) last_alive_round: Vec<u64>,
    pub(crate) rounds: u64,
}

impl ProbeEstimator {
    /// Creates the estimator for `owner` with probing period `period`
    /// minutes over neighbor set `neighbors`. All session times start at 0,
    /// as the paper specifies for a freshly joined peer.
    #[must_use]
    pub fn new(owner: NodeId, period: f64, neighbors: Vec<NodeId>) -> Self {
        assert!(period > 0.0, "probing period must be positive");
        let n = neighbors.len();
        ProbeEstimator {
            owner,
            period,
            neighbors,
            init_time: vec![0.0; n],
            live_rounds: vec![0; n],
            ever_seen: vec![false; n],
            last_alive_round: vec![0; n],
            rounds: 0,
        }
    }

    /// The probing period `T`.
    #[must_use]
    pub fn period(&self) -> f64 {
        self.period
    }

    /// The owning node.
    #[must_use]
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Number of probe rounds executed.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Executes one probing round. `is_alive(v)` reports neighbor liveness
    /// at probe time. The `rand(0, T)` initialisation for a neighbor seen
    /// alive for the first time is keyed by (owner, slot, round) through
    /// `streams`, so estimators are independent across nodes — the order
    /// in which nodes probe (or whether rounds are replayed lazily) cannot
    /// shift anyone's draws.
    pub fn probe_round_seeded(
        &mut self,
        streams: &StreamFactory,
        mut is_alive: impl FnMut(NodeId) -> bool,
    ) {
        self.rounds += 1;
        for (i, &v) in self.neighbors.iter().enumerate() {
            if !is_alive(v) {
                continue;
            }
            self.last_alive_round[i] = self.rounds;
            if self.ever_seen[i] {
                self.live_rounds[i] += 1;
            } else {
                // First sighting: the neighbor has been up for an unknown
                // fraction of the period — initialise uniformly in (0, T).
                self.ever_seen[i] = true;
                self.init_time[i] =
                    init_session_draw(streams, self.owner, i, self.rounds, self.period);
            }
        }
    }

    /// Replaces every neighbor silent for `threshold`+ rounds with a fresh
    /// random peer (not self, not already a neighbor; up to 16 candidate
    /// draws each). Candidates come from the per-(owner, round)
    /// `maintenance_stream`, so the decision sequence is a pure function
    /// of (master seed, owner, round, current estimator state). A
    /// replacement restarts the paper's "new neighbor found" state: session
    /// time is zero until the next sighting draws `rand(0, T)`.
    pub fn maintain_seeded(&mut self, streams: &StreamFactory, threshold: u64, n_nodes: usize) {
        self.maintain_slots(streams, n_nodes, |est, i| {
            est.rounds - est.last_alive_round[i] >= threshold
        });
    }

    /// The maintenance pass itself: replaces the neighbor of every slot
    /// `i` for which `due(self, i)` holds, in slot order, at round
    /// `self.rounds`. [`ProbeEstimator::maintain_seeded`] tests the
    /// silence threshold; a lazy catch-up passes the slots it knows are
    /// due, because its lagging slots hold a stale `last_alive_round`.
    pub(crate) fn maintain_slots(
        &mut self,
        streams: &StreamFactory,
        n_nodes: usize,
        mut due: impl FnMut(&Self, usize) -> bool,
    ) {
        let mut rng: Option<Xoshiro256StarStar> = None;
        for i in 0..self.neighbors.len() {
            if !due(self, i) {
                continue;
            }
            let rng =
                rng.get_or_insert_with(|| maintenance_stream(streams, self.owner, self.rounds));
            let mut found = None;
            for _ in 0..16 {
                let c = NodeId(rng.random_range(0..n_nodes));
                if c != self.owner && !self.neighbors.contains(&c) {
                    found = Some(c);
                    break;
                }
            }
            if let Some(new) = found {
                self.neighbors[i] = new;
                self.init_time[i] = 0.0;
                self.live_rounds[i] = 0;
                self.ever_seen[i] = false;
                self.last_alive_round[i] = self.rounds;
            }
        }
    }

    /// Session time of the neighbor in `slot`, in the closed form
    /// `init + live_rounds · T`.
    pub(crate) fn slot_session_time(&self, slot: usize) -> f64 {
        if self.ever_seen[slot] {
            self.init_time[slot] + self.live_rounds[slot] as f64 * self.period
        } else {
            0.0
        }
    }

    /// Observed session time `t_s(v)`; 0 for a neighbor never seen alive or
    /// a node outside `D(s)`.
    #[must_use]
    pub fn session_time(&self, v: NodeId) -> f64 {
        self.neighbors
            .iter()
            .position(|&u| u == v)
            .map_or(0.0, |i| self.slot_session_time(i))
    }

    /// The §2.3 availability estimate `α_s(v) ∈ [0, 1]`.
    ///
    /// Before any neighbor has been observed alive, every availability is 0
    /// (the paper's initialisation); afterwards the estimates over `D(s)`
    /// sum to 1.
    #[must_use]
    pub fn availability(&self, v: NodeId) -> f64 {
        let total: f64 = (0..self.neighbors.len())
            .map(|i| self.slot_session_time(i))
            .sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.session_time(v) / total
    }

    /// All `(neighbor, availability)` pairs.
    #[must_use]
    pub fn availabilities(&self) -> Vec<(NodeId, f64)> {
        self.neighbors
            .iter()
            .map(|&v| (v, self.availability(v)))
            .collect()
    }

    /// The current neighbor set (it changes under replacement).
    #[must_use]
    pub fn neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimator() -> ProbeEstimator {
        ProbeEstimator::new(NodeId(0), 5.0, vec![NodeId(1), NodeId(2), NodeId(3)])
    }

    #[test]
    fn initial_availability_is_zero() {
        let est = estimator();
        assert_eq!(est.availability(NodeId(1)), 0.0);
        assert_eq!(est.session_time(NodeId(2)), 0.0);
    }

    #[test]
    fn first_sighting_initialises_in_zero_period() {
        let mut est = estimator();
        let s = StreamFactory::new(1);
        est.probe_round_seeded(&s, |v| v == NodeId(1));
        let t = est.session_time(NodeId(1));
        assert!((0.0..5.0).contains(&t), "t={t}");
        assert_eq!(est.session_time(NodeId(2)), 0.0);
    }

    #[test]
    fn subsequent_sightings_add_full_period() {
        let mut est = estimator();
        let s = StreamFactory::new(2);
        est.probe_round_seeded(&s, |v| v == NodeId(1));
        let t0 = est.session_time(NodeId(1));
        est.probe_round_seeded(&s, |v| v == NodeId(1));
        est.probe_round_seeded(&s, |v| v == NodeId(1));
        assert!((est.session_time(NodeId(1)) - (t0 + 10.0)).abs() < 1e-12);
    }

    #[test]
    fn availability_is_share_of_total() {
        let mut est = estimator();
        let s = StreamFactory::new(3);
        // Node 1 alive for 4 rounds, node 2 for 2 rounds, node 3 never.
        for round in 0..4 {
            est.probe_round_seeded(&s, |v| v == NodeId(1) || (v == NodeId(2) && round < 2));
        }
        let a1 = est.availability(NodeId(1));
        let a2 = est.availability(NodeId(2));
        let a3 = est.availability(NodeId(3));
        assert!(a1 > a2, "a1={a1} a2={a2}");
        assert_eq!(a3, 0.0);
        assert!(
            (a1 + a2 + a3 - 1.0).abs() < 1e-12,
            "availabilities sum to 1"
        );
    }

    #[test]
    fn availability_of_stranger_is_zero() {
        let mut est = estimator();
        est.probe_round_seeded(&StreamFactory::new(4), |_| true);
        assert_eq!(est.availability(NodeId(99)), 0.0);
    }

    #[test]
    fn down_neighbor_gains_nothing() {
        let mut est = estimator();
        let s = StreamFactory::new(5);
        for _ in 0..10 {
            est.probe_round_seeded(&s, |v| v != NodeId(3));
        }
        assert_eq!(est.session_time(NodeId(3)), 0.0);
        assert_eq!(est.availability(NodeId(3)), 0.0);
    }

    #[test]
    fn rejoin_resumes_accumulation() {
        // A neighbor that goes down and comes back keeps its accumulated
        // session time and continues adding full periods (the estimator has
        // already "found" it).
        let mut est = estimator();
        let s = StreamFactory::new(6);
        est.probe_round_seeded(&s, |v| v == NodeId(1));
        let t0 = est.session_time(NodeId(1));
        est.probe_round_seeded(&s, |_| false); // down
        est.probe_round_seeded(&s, |v| v == NodeId(1)); // back up
        assert!((est.session_time(NodeId(1)) - (t0 + 5.0)).abs() < 1e-12);
    }

    #[test]
    fn rounds_counter_increments() {
        let mut est = estimator();
        let s = StreamFactory::new(7);
        for _ in 0..3 {
            est.probe_round_seeded(&s, |_| false);
        }
        assert_eq!(est.rounds(), 3);
    }

    #[test]
    fn higher_observed_uptime_means_higher_availability() {
        // Statistical form of the paper's claim: "a neighbor with a higher
        // observed session time has a higher availability".
        let mut est = ProbeEstimator::new(NodeId(0), 1.0, vec![NodeId(1), NodeId(2)]);
        let s = StreamFactory::new(8);
        for round in 0..100 {
            // Node 1 up 80% of rounds, node 2 up 20%.
            est.probe_round_seeded(&s, |v| {
                (v == NodeId(1) && round % 5 != 0) || (v == NodeId(2) && round % 5 == 0)
            });
        }
        assert!(est.availability(NodeId(1)) > est.availability(NodeId(2)));
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn rejects_zero_period() {
        let _ = ProbeEstimator::new(NodeId(0), 0.0, vec![]);
    }

    /// Consecutive probe rounds since neighbor slot `i` was last seen
    /// alive — the silence the replacement threshold reads.
    fn silence(est: &ProbeEstimator, i: usize) -> u64 {
        est.rounds - est.last_alive_round[i]
    }

    #[test]
    fn rounds_since_alive_tracks_silence() {
        let mut est = estimator();
        let s = StreamFactory::new(9);
        let (one, three) = (0, 2); // the slots of NodeId(1) and NodeId(3)
        est.probe_round_seeded(&s, |v| v == NodeId(1));
        assert_eq!(silence(&est, one), 0);
        est.probe_round_seeded(&s, |_| false);
        est.probe_round_seeded(&s, |_| false);
        assert_eq!(silence(&est, one), 2);
        // Never-seen neighbor: silence equals total rounds.
        assert_eq!(silence(&est, three), 3);
    }

    #[test]
    fn replacement_resets_state() {
        let s = StreamFactory::new(10);
        let mut est = ProbeEstimator::new(NodeId(0), 5.0, vec![NodeId(1)]);
        for _ in 0..3 {
            est.probe_round_seeded(&s, |v| v == NodeId(1));
        }
        assert!(est.session_time(NodeId(1)) > 0.0);
        // Two silent rounds reach the threshold: the slot is replaced.
        est.probe_round_seeded(&s, |_| false);
        est.probe_round_seeded(&s, |_| false);
        est.maintain_seeded(&s, 2, 50);
        let new = est.neighbors()[0];
        assert!(
            new != NodeId(1) && new != NodeId(0),
            "replaced by a stranger"
        );
        assert_eq!(est.session_time(new), 0.0);
        assert_eq!(est.session_time(NodeId(1)), 0.0, "old neighbor forgotten");
        assert_eq!(silence(&est, 0), 0);
        // Next sighting re-initialises with the rand(0, T) rule.
        est.probe_round_seeded(&s, |v| v == new);
        let t = est.session_time(new);
        assert!((0.0..5.0).contains(&t), "t={t}");
    }

    #[test]
    fn seeded_probe_rounds_are_replayable() {
        let streams = StreamFactory::new(99);
        let mut a = estimator();
        let mut b = estimator();
        for round in 0..6u64 {
            a.probe_round_seeded(&streams, |v| v.index() as u64 % 2 == round % 2);
        }
        for round in 0..6u64 {
            b.probe_round_seeded(&streams, |v| v.index() as u64 % 2 == round % 2);
        }
        assert_eq!(a, b);
        assert!(a.session_time(NodeId(1)) > 0.0);
    }

    #[test]
    fn seeded_draws_do_not_depend_on_other_estimators() {
        // The draw for (owner, slot, round) is keyed by position: advancing
        // a completely different estimator in between must not perturb it.
        let streams = StreamFactory::new(7);
        let mut alone = estimator();
        alone.probe_round_seeded(&streams, |_| true);

        let mut other = ProbeEstimator::new(NodeId(9), 5.0, vec![NodeId(4)]);
        let mut interleaved = estimator();
        other.probe_round_seeded(&streams, |_| true);
        interleaved.probe_round_seeded(&streams, |_| true);
        assert_eq!(alone, interleaved);
    }

    #[test]
    fn maintain_seeded_replaces_silent_neighbors_deterministically() {
        let streams = StreamFactory::new(3);
        let build = || {
            let mut est = ProbeEstimator::new(NodeId(0), 1.0, vec![NodeId(1), NodeId(2)]);
            // Neighbor 1 alive every round, neighbor 2 never seen.
            for _ in 0..4 {
                est.probe_round_seeded(&streams, |v| v == NodeId(1));
                est.maintain_seeded(&streams, 3, 10);
            }
            est
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert!(a.neighbors().contains(&NodeId(1)), "live neighbor kept");
        assert!(
            !a.neighbors().contains(&NodeId(2)),
            "silent neighbor replaced"
        );
        assert!(!a.neighbors().contains(&NodeId(0)), "never picks self");
    }

    #[test]
    fn session_time_closed_form_matches_incremental_semantics() {
        // init + k·T after k post-sighting rounds — exactly, not approximately.
        let streams = StreamFactory::new(11);
        let mut est = estimator();
        est.probe_round_seeded(&streams, |v| v == NodeId(1));
        let t0 = est.session_time(NodeId(1));
        for _ in 0..7 {
            est.probe_round_seeded(&streams, |v| v == NodeId(1));
        }
        assert_eq!(est.session_time(NodeId(1)), t0 + 7.0 * 5.0);
    }
}
