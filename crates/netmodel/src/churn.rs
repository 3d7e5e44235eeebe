//! Churn: per-node join/leave schedules.
//!
//! §3 of the paper: "A poisson process is used to simulate the joining of
//! nodes" and "the session time of peers is modeled using a Pareto
//! distribution and the median session time is set as 60 mins". §2.1 defines
//! a peer's availability as "the ratio of the sum of its session times to
//! its lifetime, where the lifetime is from the time of the initial entry of
//! the peer node into the system to the time of its final departure".
//!
//! Of this process only the joins are sequential: node `v` joins after node
//! `v − 1`, so the join times come from one pass over a single stream
//! ([`ChurnModel::join_times`]). Everything after a node's join is its own:
//! its alternating up/down schedule over the horizon is drawn from the
//! stream keyed by its position `v` ([`ChurnModel::node_schedule`]), so a
//! node's schedule can be derived on first touch, in any order, on any
//! thread, and re-derived after being dropped, always to the same bits.
//! Position keying, not pre-generation, is what keeps common-random-number
//! comparisons across routing strategies exact: the churn trace is
//! bit-identical for every strategy whichever nodes a run happens to read.

use std::sync::Arc;

use idpa_desim::rng::{StreamFactory, Xoshiro256StarStar};
use idpa_desim::SimTime;

use crate::dist::{Exponential, Pareto};

/// Parameters of the churn process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Number of peers (the paper uses N = 40).
    pub n_nodes: usize,
    /// Rate of the Poisson join process (nodes per minute). Successive nodes
    /// enter the system at exponential inter-arrival times with this rate.
    pub join_rate: f64,
    /// Median of the Pareto session-time distribution, minutes (paper: 60).
    pub session_median: f64,
    /// Pareto shape (tail index) of session times. Measurement studies of
    /// P2P session times report shapes between 1 and 2; default 1.5.
    pub session_shape: f64,
    /// Mean of the exponential downtime between sessions, minutes.
    pub downtime_mean: f64,
    /// End of the generated schedule, minutes.
    pub horizon: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            n_nodes: 40,
            join_rate: 2.0,
            session_median: 60.0,
            session_shape: 1.5,
            downtime_mean: 30.0,
            horizon: 24.0 * 60.0,
        }
    }
}

impl ChurnConfig {
    /// Checks parameter ranges; returns a description of the first
    /// violation (zero nodes, or a rate, mean or horizon that is not
    /// positive and finite).
    pub fn validate(&self) -> Result<(), String> {
        if self.n_nodes == 0 {
            return Err("need at least one node".into());
        }
        let positive = [
            ("join_rate", self.join_rate),
            ("session_median", self.session_median),
            ("session_shape", self.session_shape),
            ("downtime_mean", self.downtime_mean),
            ("horizon", self.horizon),
        ];
        for (name, v) in positive {
            if !(v > 0.0 && v.is_finite()) {
                return Err(format!("{name} must be positive and finite, got {v}"));
            }
        }
        Ok(())
    }
}

/// One node's alternating up/down schedule: a sorted list of disjoint
/// `[up, down)` intervals clamped to the horizon, stored exact-size (a
/// run may hold thousands at once, so spare capacity would add up).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeSchedule {
    sessions: Box<[(f64, f64)]>,
}

impl NodeSchedule {
    /// Builds a schedule from explicit intervals; they must be sorted,
    /// disjoint, and well-formed (`start < end`).
    #[must_use]
    pub fn from_sessions(sessions: Vec<(f64, f64)>) -> Self {
        for w in sessions.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "sessions must be sorted and disjoint: {w:?}"
            );
        }
        for &(s, e) in &sessions {
            assert!(s < e, "empty or inverted session ({s}, {e})");
            assert!(s >= 0.0, "negative session start {s}");
        }
        NodeSchedule {
            sessions: sessions.into_boxed_slice(),
        }
    }

    /// The `[start, end)` session intervals, sorted.
    #[must_use]
    pub fn sessions(&self) -> &[(f64, f64)] {
        &self.sessions
    }

    /// Whether the node is up at time `t`.
    #[inline]
    #[must_use]
    pub fn is_up(&self, t: SimTime) -> bool {
        let t = t.minutes();
        // Sessions are sorted; find the last session starting at or before t.
        match self.sessions.partition_point(|&(s, _)| s <= t) {
            0 => false,
            i => t < self.sessions[i - 1].1,
        }
    }

    /// End of the session containing `t`, or `None` if the node is down at
    /// `t`. Fault injection uses this to truncate a crashed forwarder's
    /// current session: the node stays down from the crash until its next
    /// scheduled join.
    #[must_use]
    pub fn session_end_at(&self, t: SimTime) -> Option<f64> {
        let t = t.minutes();
        match self.sessions.partition_point(|&(s, _)| s <= t) {
            0 => None,
            i => {
                let (_, end) = self.sessions[i - 1];
                (t < end).then_some(end)
            }
        }
    }

    /// The paper's availability metric: total session time divided by
    /// lifetime (first join to final departure). Zero for a node with no
    /// sessions; 1.0 for a node with a single uninterrupted session.
    #[must_use]
    pub fn availability(&self) -> f64 {
        let (Some(&(first, _)), Some(&(_, last))) = (self.sessions.first(), self.sessions.last())
        else {
            return 0.0;
        };
        let lifetime = last - first;
        if lifetime <= 0.0 {
            return 0.0;
        }
        let up: f64 = self.sessions.iter().map(|&(s, e)| e - s).sum();
        up / lifetime
    }

    /// Total time the node is up within `[0, horizon]`.
    #[must_use]
    pub fn uptime(&self) -> f64 {
        self.sessions.iter().map(|&(s, e)| e - s).sum()
    }
}

/// Label of the single sequential stream the Poisson join times come from.
const JOIN_STREAM: &str = "churn/join";
/// Label of the per-node streams: node `v`'s sessions come from
/// `stream_indexed(SESSION_STREAM, v)`.
const SESSION_STREAM: &str = "churn";

/// The churn process: Poisson joins, then per node alternating Pareto
/// up-periods and exponential down-periods until the horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnModel {
    config: ChurnConfig,
    /// Session lengths, built once from the config.
    session: Pareto,
    /// Downtime lengths, built once from the config.
    downtime: Exponential,
}

impl ChurnModel {
    /// Creates a churn model; panics if `config` fails
    /// [`ChurnConfig::validate`].
    #[must_use]
    pub fn new(config: ChurnConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid churn config: {e}");
        }
        ChurnModel {
            config,
            session: Pareto::from_median(config.session_median, config.session_shape),
            downtime: Exponential::from_mean(config.downtime_mean),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ChurnConfig {
        &self.config
    }

    /// The join time of every node, in node order: a Poisson process
    /// (exponential inter-arrivals) drawn in one pass over one stream. The
    /// only sequential part of the churn trace. Collected straight into
    /// the shared slice, in one allocation.
    #[must_use]
    pub fn join_times(&self, streams: &StreamFactory) -> Arc<[f64]> {
        let gap = Exponential::new(self.config.join_rate);
        let mut rng = streams.stream(JOIN_STREAM);
        let mut arrival = 0.0;
        (0..self.config.n_nodes)
            .map(|_| {
                arrival += gap.sample(&mut rng);
                arrival
            })
            .collect()
    }

    /// The sessions of node `v`, which joins at `join`, in order: a pure
    /// function of `(master seed, v, join)`, drawn lazily from the node's
    /// position-keyed stream.
    #[must_use]
    pub fn sessions(&self, streams: &StreamFactory, v: usize, join: f64) -> Sessions {
        Sessions {
            rng: streams.stream_indexed(SESSION_STREAM, v as u64),
            t: join,
            horizon: self.config.horizon,
            session: self.session,
            downtime: self.downtime,
        }
    }

    /// Node `v`'s schedule: [`ChurnModel::sessions`], drawn into `buf`
    /// (cleared first; the caller reuses it, so it stops growing) and
    /// copied out in one exact-size allocation.
    #[must_use]
    pub fn node_schedule(
        &self,
        streams: &StreamFactory,
        v: usize,
        join: f64,
        buf: &mut Vec<(f64, f64)>,
    ) -> NodeSchedule {
        buf.clear();
        buf.extend(self.sessions(streams, v, join));
        NodeSchedule::from_sessions(buf.to_vec())
    }

    /// The whole trace, one schedule per node: [`ChurnModel::join_times`]
    /// and then [`ChurnModel::node_schedule`] for every node.
    #[must_use]
    pub fn generate(&self, streams: &StreamFactory) -> Vec<NodeSchedule> {
        let mut buf = Vec::new();
        self.join_times(streams)
            .iter()
            .enumerate()
            .map(|(v, &join)| self.node_schedule(streams, v, join, &mut buf))
            .collect()
    }
}

/// The sessions of one node, drawn one at a time (see
/// [`ChurnModel::sessions`]).
#[derive(Debug, Clone)]
pub struct Sessions {
    rng: Xoshiro256StarStar,
    /// Start of the next up-period.
    t: f64,
    horizon: f64,
    session: Pareto,
    downtime: Exponential,
}

impl Iterator for Sessions {
    type Item = (f64, f64);

    fn next(&mut self) -> Option<(f64, f64)> {
        while self.t < self.horizon {
            let start = self.t;
            let up_end = (start + self.session.sample(&mut self.rng)).min(self.horizon);
            self.t = up_end + self.downtime.sample(&mut self.rng);
            if up_end > start {
                return Some((start, up_end));
            }
        }
        None
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;

    fn streams(seed: u64) -> StreamFactory {
        StreamFactory::new(seed)
    }

    fn default_model() -> ChurnModel {
        ChurnModel::new(ChurnConfig::default())
    }

    #[test]
    fn session_end_at_matches_is_up() {
        let sched = NodeSchedule::from_sessions(vec![(10.0, 20.0), (30.0, 45.0)]);
        assert_eq!(sched.session_end_at(SimTime::new(5.0)), None);
        assert_eq!(sched.session_end_at(SimTime::new(10.0)), Some(20.0));
        assert_eq!(sched.session_end_at(SimTime::new(19.9)), Some(20.0));
        assert_eq!(sched.session_end_at(SimTime::new(20.0)), None);
        assert_eq!(sched.session_end_at(SimTime::new(31.0)), Some(45.0));
        for t in 0..50 {
            let t = SimTime::new(t as f64);
            assert_eq!(sched.session_end_at(t).is_some(), sched.is_up(t));
        }
    }

    #[test]
    fn generates_one_schedule_per_node() {
        let scheds = default_model().generate(&streams(1));
        assert_eq!(scheds.len(), 40);
    }

    #[test]
    fn schedules_are_sorted_disjoint_and_within_horizon() {
        let cfg = ChurnConfig::default();
        let scheds = ChurnModel::new(cfg).generate(&streams(2));
        for sched in &scheds {
            let mut prev_end = 0.0;
            for &(s, e) in sched.sessions() {
                assert!(s < e, "degenerate session");
                assert!(s >= prev_end, "overlapping sessions");
                assert!(e <= cfg.horizon + 1e-9, "session beyond horizon");
                prev_end = e;
            }
        }
    }

    #[test]
    fn generate_matches_naive_per_node_reference() {
        // Pins the session iterator and the whole-world loop against a
        // plain per-node loop: joins from the one sequential stream, each
        // node's sessions from its own position-keyed stream.
        let cfg = ChurnConfig {
            n_nodes: 60,
            horizon: 300.0,
            ..ChurnConfig::default()
        };
        for seed in [1u64, 7, 42, 1234] {
            let shipped = ChurnModel::new(cfg).generate(&streams(seed));
            let f = streams(seed);
            let mut joins = f.stream("churn/join");
            let join_gap = Exponential::new(cfg.join_rate);
            let session = Pareto::from_median(cfg.session_median, cfg.session_shape);
            let downtime = Exponential::from_mean(cfg.downtime_mean);
            let mut arrival = 0.0;
            let mut reference = Vec::new();
            for v in 0..cfg.n_nodes {
                arrival += join_gap.sample(&mut joins);
                let mut r = f.stream_indexed("churn", v as u64);
                let mut sessions = Vec::new();
                let mut t = arrival;
                while t < cfg.horizon {
                    let up_end = (t + session.sample(&mut r)).min(cfg.horizon);
                    if up_end > t {
                        sessions.push((t, up_end));
                    }
                    t = up_end + downtime.sample(&mut r);
                }
                reference.push(NodeSchedule::from_sessions(sessions));
            }
            assert_eq!(shipped, reference, "seed {seed}");
            assert!(
                shipped.iter().filter(|s| s.sessions().len() > 1).count() > 1,
                "the horizon must give several nodes more than one session"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = default_model().generate(&streams(3));
        let b = default_model().generate(&streams(3));
        assert_eq!(a, b);
    }

    #[test]
    fn a_node_derives_alone_to_its_place_in_the_trace() {
        // Deriving one node touches no other node's draws: any order, any
        // subset, and a repeat derivation give the whole trace's entry.
        let model = default_model();
        let f = streams(21);
        let whole = model.generate(&f);
        let joins = model.join_times(&f);
        // One scratch buffer across nodes: each derivation clears it first.
        let mut buf = vec![(-1.0, -2.0); 3];
        for v in [39usize, 0, 17, 17, 3] {
            let derived = model.node_schedule(&f, v, joins[v], &mut buf);
            assert_eq!(derived, whole[v], "node {v}");
            assert_eq!(buf.as_slice(), derived.sessions(), "node {v}");
            let streamed: Vec<(f64, f64)> = model.sessions(&f, v, joins[v]).collect();
            assert_eq!(streamed.as_slice(), whole[v].sessions());
        }
        // Joins are increasing and each schedule starts at its join.
        assert!(joins.windows(2).all(|w| w[0] < w[1]));
        for (s, &j) in whole.iter().zip(joins.iter()) {
            assert!(s.sessions().first().is_none_or(|&(first, _)| first == j));
        }
    }

    #[test]
    fn is_up_matches_sessions() {
        let sched = NodeSchedule::from_sessions(vec![(1.0, 3.0), (5.0, 8.0)]);
        assert!(!sched.is_up(SimTime::new(0.5)));
        assert!(sched.is_up(SimTime::new(1.0)));
        assert!(sched.is_up(SimTime::new(2.9)));
        assert!(!sched.is_up(SimTime::new(3.0)));
        assert!(!sched.is_up(SimTime::new(4.0)));
        assert!(sched.is_up(SimTime::new(5.0)));
        assert!(!sched.is_up(SimTime::new(8.0)));
    }

    #[test]
    fn availability_definition_matches_paper() {
        // Sessions of length 2 and 3 over a lifetime of 7 (from 1 to 8).
        let sched = NodeSchedule::from_sessions(vec![(1.0, 3.0), (5.0, 8.0)]);
        assert!((sched.availability() - 5.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn availability_of_single_session_is_one() {
        let sched = NodeSchedule::from_sessions(vec![(2.0, 9.0)]);
        assert_eq!(sched.availability(), 1.0);
    }

    #[test]
    fn availability_of_empty_schedule_is_zero() {
        assert_eq!(NodeSchedule::default().availability(), 0.0);
    }

    #[test]
    fn median_session_time_near_configured() {
        // Collect raw session lengths over many nodes; the empirical median
        // should approximate the configured 60-minute median. Sessions are
        // truncated at the horizon, which biases the median down slightly,
        // so generate with a long horizon.
        let cfg = ChurnConfig {
            n_nodes: 2000,
            horizon: 10_000.0,
            ..ChurnConfig::default()
        };
        let scheds = ChurnModel::new(cfg).generate(&streams(4));
        let mut lengths: Vec<f64> = scheds
            .iter()
            .flat_map(|s| s.sessions().iter().map(|&(a, b)| b - a))
            .collect();
        lengths.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = lengths[lengths.len() / 2];
        assert!(
            (median - 60.0).abs() / 60.0 < 0.1,
            "median session {median}"
        );
    }

    #[test]
    fn join_times_follow_configured_rate() {
        let cfg = ChurnConfig {
            n_nodes: 5000,
            join_rate: 2.0,
            horizon: 1e7,
            ..ChurnConfig::default()
        };
        let scheds = ChurnModel::new(cfg).generate(&streams(5));
        let last_join = scheds
            .iter()
            .filter_map(|s| s.sessions().first().map(|&(first, _)| first))
            .fold(0.0f64, f64::max);
        // 5000 arrivals at rate 2/min ≈ 2500 minutes.
        assert!((last_join - 2500.0).abs() < 200.0, "last_join={last_join}");
    }

    #[test]
    #[should_panic(expected = "sorted and disjoint")]
    fn from_sessions_rejects_overlap() {
        let _ = NodeSchedule::from_sessions(vec![(1.0, 4.0), (3.0, 5.0)]);
    }

    #[test]
    #[should_panic(expected = "need at least one node")]
    fn config_rejects_zero_nodes() {
        let _ = ChurnModel::new(ChurnConfig {
            n_nodes: 0,
            ..ChurnConfig::default()
        });
    }
}
