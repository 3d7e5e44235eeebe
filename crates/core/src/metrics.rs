//! Anonymity and efficiency metrics (§2.1, §3).
//!
//! * Path quality `Q(π) = L / ‖π‖` — average path length normalised by the
//!   forwarder-set size; the system objective is to maximise it by
//!   minimising `‖π‖` (§2.1).
//! * Routing efficiency — "ratio of average payoff and average number of
//!   forwarders", the Table 2 metric.
//! * Entropy-based anonymity degree — the standard Serjantov/Diaz measure
//!   used to report the quality of the anonymity set.
//! * Reformation tracking — the `E[X]` estimator of Prop. 1: the fraction
//!   of a new connection's edges not seen on any earlier connection of the
//!   bundle.

use std::collections::HashSet;

use idpa_desim::rng::Mix64State;
use idpa_overlay::NodeId;

/// `Q(π) = L / ‖π‖`. Zero when the forwarder set is empty.
#[must_use]
pub fn path_quality(average_path_length: f64, forwarder_set_size: usize) -> f64 {
    if forwarder_set_size == 0 {
        0.0
    } else {
        average_path_length / forwarder_set_size as f64
    }
}

/// Routing efficiency: `avg payoff / avg #forwarders` (Table 2). Zero when
/// no forwarders.
#[must_use]
pub fn routing_efficiency(average_payoff: f64, average_forwarders: f64) -> f64 {
    if average_forwarders <= 0.0 {
        0.0
    } else {
        average_payoff / average_forwarders
    }
}

/// Shannon entropy (bits) of a discrete distribution. Zero-probability
/// entries contribute nothing; probabilities must sum to ~1.
#[must_use]
pub fn entropy_bits(probs: &[f64]) -> f64 {
    let sum: f64 = probs.iter().sum();
    debug_assert!(
        (sum - 1.0).abs() < 1e-6,
        "probabilities must sum to 1, got {sum}"
    );
    -probs
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| p * p.log2())
        .sum::<f64>()
}

/// Degree of anonymity `d = H(X) / log2(N)` for `N` possible senders:
/// 1 means the attacker learns nothing, 0 means fully exposed.
#[must_use]
pub fn anonymity_degree(probs: &[f64]) -> f64 {
    let n = probs.iter().filter(|&&p| p >= 0.0).count();
    if n <= 1 {
        return 0.0;
    }
    entropy_bits(probs) / (n as f64).log2()
}

/// Uniform-over-candidates anonymity degree given a candidate set of size
/// `candidates` out of `n` nodes — the form the intersection attack
/// produces.
#[must_use]
pub fn candidate_set_degree(candidates: usize, n: usize) -> f64 {
    assert!(n >= 1 && candidates <= n, "invalid candidate set");
    if n == 1 || candidates == 0 {
        return 0.0;
    }
    (candidates as f64).log2() / (n as f64).log2()
}

/// Reiter–Rubin predecessor analysis for Crowds-style forwarding (the
/// paper's substrate protocol): the probability that the node immediately
/// preceding the *first collaborator* on a path is the true initiator,
/// with `n` total jondos, `c` collaborators and forwarding probability
/// `p_f`:
///
/// `P = 1 − p_f·(n − c − 1)/n`
///
/// Initiator anonymity degrades as `c/n` grows — which is why the paper's
/// mechanism works to keep good, stable forwarders available.
#[must_use]
pub fn crowds_predecessor_probability(n: usize, c: usize, p_forward: f64) -> f64 {
    assert!(n >= 1 && c < n, "need at least one honest jondo");
    assert!((0.0..1.0).contains(&p_forward), "p_forward in [0,1)");
    1.0 - p_forward * (n - c - 1) as f64 / n as f64
}

/// Whether Crowds' *probable innocence* holds (`P ≤ 1/2`): the first
/// collaborator's predecessor is no more likely than not to be the
/// initiator.
#[must_use]
pub fn crowds_probable_innocence(n: usize, c: usize, p_forward: f64) -> bool {
    crowds_predecessor_probability(n, c, p_forward) <= 0.5
}

/// Minimum network size for probable innocence against `c` collaborators
/// at forwarding probability `p_f > 1/2`:
/// `n ≥ p_f/(p_f − 1/2) · (c + 1)`.
#[must_use]
pub fn crowds_min_network_size(c: usize, p_forward: f64) -> f64 {
    assert!(p_forward > 0.5, "probable innocence needs p_forward > 1/2");
    p_forward / (p_forward - 0.5) * (c + 1) as f64
}

/// Tracks path reformations over a bundle's connections — the empirical
/// `E[X]` of Prop. 1 (probability that an edge of the new connection is
/// *new*, i.e. absent from all earlier connections of the bundle).
#[derive(Debug, Clone, Default)]
pub struct ReformationTracker {
    seen_edges: HashSet<(NodeId, NodeId), Mix64State>,
    connections: u32,
    new_edges: u64,
    total_edges: u64,
    reformed_connections: u32,
}

impl ReformationTracker {
    /// Fresh tracker.
    #[must_use]
    pub fn new() -> Self {
        ReformationTracker::default()
    }

    /// Records the edges of one completed connection; returns the number
    /// of new (never seen) edges it contributed.
    pub fn record(&mut self, edges: &[(NodeId, NodeId)]) -> usize {
        self.connections += 1;
        let mut fresh = 0;
        for &e in edges {
            self.total_edges += 1;
            if self.seen_edges.insert(e) {
                fresh += 1;
            }
        }
        self.new_edges += fresh as u64;
        // The first connection's edges are all trivially new; it is not a
        // "reformation". Later connections count as reformed if any edge
        // changed.
        if self.connections > 1 && fresh > 0 {
            self.reformed_connections += 1;
        }
        fresh
    }

    /// Empirical `E[X]`: fraction of recorded edges that were new at the
    /// time of recording, over every connection including the first. The
    /// first connection's edges are all new, so a bundle of `c`
    /// connections over one unchanging path reads `1/c`, not 0.
    #[must_use]
    pub fn new_edge_fraction(&self) -> f64 {
        if self.total_edges == 0 {
            return 0.0;
        }
        self.new_edges as f64 / self.total_edges as f64
    }

    /// Fraction of post-first connections that changed at least one edge.
    #[must_use]
    pub fn reformation_rate(&self) -> f64 {
        if self.connections <= 1 {
            return 0.0;
        }
        f64::from(self.reformed_connections) / f64::from(self.connections - 1)
    }

    /// Distinct edges seen so far.
    #[must_use]
    pub fn distinct_edges(&self) -> usize {
        self.seen_edges.len()
    }

    /// Snapshot export: the seen-edge set (sorted, so the export is a pure
    /// function of the tracker's value) plus the four counters
    /// `(connections, new_edges, total_edges, reformed_connections)`.
    #[must_use]
    pub fn snapshot_state(&self) -> (Vec<(NodeId, NodeId)>, u32, u64, u64, u32) {
        let mut edges: Vec<(NodeId, NodeId)> = self.seen_edges.iter().copied().collect();
        edges.sort_unstable_by_key(|&(a, b)| (a.index(), b.index()));
        (
            edges,
            self.connections,
            self.new_edges,
            self.total_edges,
            self.reformed_connections,
        )
    }

    /// Rebuilds a tracker from a [`ReformationTracker::snapshot_state`]
    /// export.
    #[must_use]
    pub fn from_snapshot(
        edges: Vec<(NodeId, NodeId)>,
        connections: u32,
        new_edges: u64,
        total_edges: u64,
        reformed_connections: u32,
    ) -> Self {
        ReformationTracker {
            seen_edges: edges.into_iter().collect(),
            connections,
            new_edges,
            total_edges,
            reformed_connections,
        }
    }
}

/// Degradation bookkeeping under fault injection: delivery ratio, retries
/// per message, and the latency added by retry/reformation cycles.
///
/// A *message* is one scheduled transmission; each failed attempt costs a
/// retry (a fresh path formation after backoff), and a message is
/// *delivered* only when the initiator receives the confirmation. Messages
/// whose retries are exhausted — or whose pending retries fall past the
/// horizon — count against the delivery ratio.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeliveryTracker {
    scheduled: u64,
    delivered: u64,
    abandoned: u64,
    retries: u64,
    latency_sum: f64,
    latency_count: u64,
}

impl DeliveryTracker {
    /// Fresh tracker.
    #[must_use]
    pub fn new() -> Self {
        DeliveryTracker::default()
    }

    /// Registers `n` scheduled messages (the denominator of the ratio).
    pub fn record_scheduled(&mut self, n: u64) {
        self.scheduled += n;
    }

    /// Registers one retry (a failed attempt with budget remaining).
    pub fn record_retry(&mut self) {
        self.retries += 1;
    }

    /// Registers a message whose retry budget ran out.
    pub fn record_abandoned(&mut self) {
        self.abandoned += 1;
    }

    /// Registers an end-to-end confirmed delivery. `latency` is the time
    /// from the message's original schedule to completion; it feeds the
    /// reformation-latency mean only when the message `retried`.
    pub fn record_delivered(&mut self, latency: f64, retried: bool) {
        self.delivered += 1;
        if retried {
            self.latency_sum += latency;
            self.latency_count += 1;
        }
    }

    /// Confirmed deliveries over scheduled messages (1.0 with nothing
    /// scheduled, so a fault-free run reports perfect delivery).
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.scheduled == 0 {
            return 1.0;
        }
        self.delivered as f64 / self.scheduled as f64
    }

    /// Mean retries per scheduled message.
    #[must_use]
    pub fn retries_per_message(&self) -> f64 {
        if self.scheduled == 0 {
            return 0.0;
        }
        self.retries as f64 / self.scheduled as f64
    }

    /// Mean schedule-to-completion latency over delivered messages that
    /// needed at least one reformation (0 when none did).
    #[must_use]
    pub fn reformation_latency(&self) -> f64 {
        if self.latency_count == 0 {
            return 0.0;
        }
        self.latency_sum / self.latency_count as f64
    }

    /// Messages that exhausted their retry budget.
    #[must_use]
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    /// Total retries across all messages.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Confirmed deliveries.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Snapshot export: `(scheduled, delivered, abandoned, retries,
    /// latency_sum bits, latency_count)` — the latency sum travels as its
    /// bit pattern so the restored mean is bit-identical.
    #[must_use]
    pub fn snapshot_state(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.scheduled,
            self.delivered,
            self.abandoned,
            self.retries,
            self.latency_sum.to_bits(),
            self.latency_count,
        )
    }

    /// Rebuilds a tracker from a [`DeliveryTracker::snapshot_state`] export.
    #[must_use]
    pub fn from_snapshot(state: (u64, u64, u64, u64, u64, u64)) -> Self {
        DeliveryTracker {
            scheduled: state.0,
            delivered: state.1,
            abandoned: state.2,
            retries: state.3,
            latency_sum: f64::from_bits(state.4),
            latency_count: state.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(a: usize, b: usize) -> (NodeId, NodeId) {
        (NodeId(a), NodeId(b))
    }

    #[test]
    fn path_quality_formula() {
        assert_eq!(path_quality(4.0, 8), 0.5);
        assert_eq!(path_quality(4.0, 4), 1.0);
        assert_eq!(path_quality(4.0, 0), 0.0);
        // Smaller forwarder set at equal length => higher quality (§2.1).
        assert!(path_quality(4.0, 3) > path_quality(4.0, 8));
    }

    #[test]
    fn routing_efficiency_formula() {
        assert_eq!(routing_efficiency(600.0, 2.0), 300.0);
        assert_eq!(routing_efficiency(600.0, 0.0), 0.0);
    }

    #[test]
    fn entropy_of_uniform_is_log_n() {
        let probs = vec![0.25; 4];
        assert!((entropy_bits(&probs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_point_mass_is_zero() {
        assert_eq!(entropy_bits(&[1.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn anonymity_degree_bounds() {
        assert!((anonymity_degree(&[0.25; 4]) - 1.0).abs() < 1e-12);
        assert_eq!(anonymity_degree(&[1.0, 0.0, 0.0, 0.0]), 0.0);
        let skewed = anonymity_degree(&[0.7, 0.1, 0.1, 0.1]);
        assert!(skewed > 0.0 && skewed < 1.0);
    }

    #[test]
    fn candidate_set_degree_behaviour() {
        assert_eq!(candidate_set_degree(40, 40), 1.0);
        assert_eq!(candidate_set_degree(1, 40), 0.0);
        assert_eq!(candidate_set_degree(0, 40), 0.0);
        assert!(candidate_set_degree(20, 40) > candidate_set_degree(5, 40));
    }

    #[test]
    fn stable_path_has_no_reformations() {
        let mut t = ReformationTracker::new();
        let path = [e(0, 1), e(1, 2), e(2, 9)];
        for _ in 0..5 {
            t.record(&path);
        }
        assert_eq!(t.reformation_rate(), 0.0);
        assert_eq!(t.distinct_edges(), 3);
        // 3 new of 15 total edges.
        assert!((t.new_edge_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn changing_paths_count_as_reformations() {
        let mut t = ReformationTracker::new();
        t.record(&[e(0, 1), e(1, 9)]);
        t.record(&[e(0, 2), e(2, 9)]); // fully new
        t.record(&[e(0, 1), e(1, 9)]); // reuses connection 1's edges
        assert_eq!(t.reformation_rate(), 0.5);
    }

    #[test]
    fn first_connection_is_not_a_reformation() {
        let mut t = ReformationTracker::new();
        t.record(&[e(0, 1)]);
        assert_eq!(t.reformation_rate(), 0.0);
    }

    #[test]
    fn empty_tracker_metrics() {
        let t = ReformationTracker::new();
        assert_eq!(t.new_edge_fraction(), 0.0);
        assert_eq!(t.reformation_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid candidate set")]
    fn candidate_degree_rejects_oversized_set() {
        let _ = candidate_set_degree(41, 40);
    }

    #[test]
    fn crowds_predecessor_probability_formula() {
        // n=40, c=4, p_f=0.75: P = 1 - 0.75*35/40 = 0.34375
        let p = crowds_predecessor_probability(40, 4, 0.75);
        assert!((p - 0.34375).abs() < 1e-12);
    }

    #[test]
    fn crowds_probability_grows_with_collaborators() {
        let p1 = crowds_predecessor_probability(40, 2, 0.75);
        let p2 = crowds_predecessor_probability(40, 20, 0.75);
        assert!(p2 > p1);
    }

    #[test]
    fn crowds_probable_innocence_at_paper_scale() {
        // The paper's N=40, p_f=0.75 setting: innocence holds up to a
        // sizeable collaborator count, then breaks.
        assert!(crowds_probable_innocence(40, 4, 0.75));
        assert!(!crowds_probable_innocence(40, 20, 0.75));
    }

    #[test]
    fn crowds_min_network_size_matches_inequality() {
        let p_f = 0.75;
        for c in [1usize, 4, 10] {
            let n_min = crowds_min_network_size(c, p_f);
            let n_ok = n_min.ceil() as usize;
            assert!(crowds_probable_innocence(n_ok, c, p_f), "c={c}");
            if n_min.floor() as usize > c + 1 {
                let n_bad = n_min.floor() as usize - 1;
                if n_bad > c {
                    assert!(!crowds_probable_innocence(n_bad, c, p_f), "c={c} n={n_bad}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "p_forward > 1/2")]
    fn min_size_needs_majority_forwarding() {
        let _ = crowds_min_network_size(2, 0.4);
    }

    #[test]
    fn delivery_tracker_fault_free_run_is_perfect() {
        let mut t = DeliveryTracker::new();
        t.record_scheduled(10);
        for _ in 0..10 {
            t.record_delivered(0.0, false);
        }
        assert_eq!(t.delivery_ratio(), 1.0);
        assert_eq!(t.retries_per_message(), 0.0);
        assert_eq!(t.reformation_latency(), 0.0);
        assert_eq!(t.abandoned(), 0);
    }

    #[test]
    fn delivery_tracker_degradation_accounting() {
        let mut t = DeliveryTracker::new();
        t.record_scheduled(4);
        t.record_delivered(0.0, false); // clean
        t.record_retry();
        t.record_delivered(6.0, true); // one retry, 6 min late
        t.record_retry();
        t.record_retry();
        t.record_delivered(10.0, true); // two retries, 10 min late
        t.record_retry();
        t.record_abandoned(); // budget exhausted
        assert_eq!(t.delivery_ratio(), 0.75);
        assert_eq!(t.retries_per_message(), 1.0);
        assert_eq!(t.reformation_latency(), 8.0);
        assert_eq!(t.abandoned(), 1);
        assert_eq!(t.delivered(), 3);
        assert_eq!(t.retries(), 4);
    }

    #[test]
    fn delivery_tracker_empty_defaults() {
        let t = DeliveryTracker::new();
        assert_eq!(t.delivery_ratio(), 1.0);
        assert_eq!(t.retries_per_message(), 0.0);
        assert_eq!(t.reformation_latency(), 0.0);
    }
}
