//! Bookkeeping for one bundle of recurring connections (§2.1–2.2).
//!
//! The paper's central bookkeeping object is the set
//! `π = {π^1, …, π^k}` of recurring connections between an initiator and a
//! responder: the forwarder set is the union of forwarders over all
//! connections, each forwarder's benefit is `m·P_f + P_r/‖π‖` for its `m`
//! forwarding instances, and the system objective is to keep `‖π‖` small.

use std::collections::BTreeMap;

use idpa_overlay::NodeId;

/// Identifier of a connection bundle (one (I, R) pair's recurring traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BundleId(pub u64);

/// Per-forwarder tallies within one bundle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ForwarderTally {
    /// Forwarding instances `m` (hops served across all connections).
    pub instances: u64,
    /// Sum of transmission costs incurred.
    pub transmission_cost: f64,
}

/// Accounting for one bundle: connections recorded hop by hop, payoffs
/// computed at completion.
#[derive(Debug, Clone, Default)]
pub struct BundleAccounting {
    tallies: BTreeMap<NodeId, ForwarderTally>,
    connections: u32,
    total_hops: u64,
}

impl BundleAccounting {
    /// Fresh accounting with no connections.
    #[must_use]
    pub fn new() -> Self {
        BundleAccounting::default()
    }

    /// Records one completed connection path `I → f_1 → … → f_n → R`.
    /// `forwarders` is the intermediate hop list (no endpoints);
    /// `hop_costs[i]` is the transmission cost forwarder `i` paid to reach
    /// its successor.
    pub fn record_connection(&mut self, forwarders: &[NodeId], hop_costs: &[f64]) {
        assert_eq!(
            forwarders.len(),
            hop_costs.len(),
            "one transmission cost per forwarder"
        );
        self.connections += 1;
        self.total_hops += forwarders.len() as u64;
        for (&f, &cost) in forwarders.iter().zip(hop_costs) {
            let t = self.tallies.entry(f).or_default();
            t.instances += 1;
            t.transmission_cost += cost;
        }
    }

    /// Number of connections recorded so far (`k`).
    #[must_use]
    pub fn connections(&self) -> u32 {
        self.connections
    }

    /// The forwarder set size `‖π‖`: distinct forwarders across all
    /// connections of the bundle.
    #[must_use]
    pub fn forwarder_set_size(&self) -> usize {
        self.tallies.len()
    }

    /// The distinct forwarders.
    #[must_use]
    pub fn forwarder_set(&self) -> Vec<NodeId> {
        self.tallies.keys().copied().collect()
    }

    /// Average path length `L` over the recorded connections (forwarder
    /// hops per connection).
    #[must_use]
    pub fn average_path_length(&self) -> f64 {
        if self.connections == 0 {
            0.0
        } else {
            self.total_hops as f64 / f64::from(self.connections)
        }
    }

    /// Forwarding instances `m` of a node (0 if it never forwarded).
    #[must_use]
    pub fn instances(&self, node: NodeId) -> u64 {
        self.tallies.get(&node).map_or(0, |t| t.instances)
    }

    /// Final net payoffs at bundle completion: for each forwarder,
    /// `m·P_f + P_r/‖π‖ − C^t_total − C^p` (participation cost charged once
    /// per bundle, per §2.4.1's "one time cost").
    #[must_use]
    pub fn payoffs(&self, pf: f64, pr: f64, participation_cost: f64) -> Vec<(NodeId, f64)> {
        let set = self.forwarder_set_size();
        if set == 0 {
            return Vec::new();
        }
        let routing_share = pr / set as f64;
        self.tallies
            .iter()
            .map(|(&node, t)| {
                let gross = t.instances as f64 * pf + routing_share;
                (node, gross - t.transmission_cost - participation_cost)
            })
            .collect()
    }

    /// Gross benefit (no costs) of a forwarder — the paper's
    /// "`m·P_f + P_r/‖π‖`".
    #[must_use]
    pub fn gross_benefit(&self, node: NodeId, pf: f64, pr: f64) -> f64 {
        let set = self.forwarder_set_size();
        if set == 0 || !self.tallies.contains_key(&node) {
            return 0.0;
        }
        self.instances(node) as f64 * pf + pr / set as f64
    }

    /// Snapshot export: the per-forwarder tallies (already sorted — the
    /// map is a `BTreeMap`) plus `(connections, total_hops)`.
    #[must_use]
    pub fn snapshot_state(&self) -> (Vec<(NodeId, ForwarderTally)>, u32, u64) {
        let tallies: Vec<(NodeId, ForwarderTally)> =
            self.tallies.iter().map(|(&n, &t)| (n, t)).collect();
        (tallies, self.connections, self.total_hops)
    }

    /// Rebuilds accounting from a [`BundleAccounting::snapshot_state`]
    /// export.
    #[must_use]
    pub fn from_snapshot(
        tallies: Vec<(NodeId, ForwarderTally)>,
        connections: u32,
        total_hops: u64,
    ) -> Self {
        BundleAccounting {
            tallies: tallies.into_iter().collect(),
            connections,
            total_hops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn empty_bundle() {
        let b = BundleAccounting::new();
        assert_eq!(b.forwarder_set_size(), 0);
        assert_eq!(b.average_path_length(), 0.0);
        assert!(b.payoffs(50.0, 100.0, 5.0).is_empty());
    }

    #[test]
    fn forwarder_set_is_union_over_connections() {
        let mut b = BundleAccounting::new();
        b.record_connection(&[n(1), n(2)], &[0.0, 0.0]);
        b.record_connection(&[n(2), n(3)], &[0.0, 0.0]);
        assert_eq!(b.forwarder_set_size(), 3);
        assert_eq!(b.forwarder_set(), vec![n(1), n(2), n(3)]);
        assert_eq!(b.connections(), 2);
    }

    #[test]
    fn instances_count_repeat_participation() {
        let mut b = BundleAccounting::new();
        b.record_connection(&[n(1), n(2)], &[0.0, 0.0]);
        b.record_connection(&[n(1)], &[0.0]);
        assert_eq!(b.instances(n(1)), 2);
        assert_eq!(b.instances(n(2)), 1);
        assert_eq!(b.instances(n(9)), 0);
    }

    #[test]
    fn node_twice_on_same_path_counts_twice() {
        // The paper explicitly allows a node to occupy two positions on the
        // same path.
        let mut b = BundleAccounting::new();
        b.record_connection(&[n(1), n(2), n(1)], &[0.0, 0.0, 0.0]);
        assert_eq!(b.instances(n(1)), 2);
        assert_eq!(b.forwarder_set_size(), 2);
    }

    #[test]
    fn average_path_length() {
        let mut b = BundleAccounting::new();
        b.record_connection(&[n(1), n(2)], &[0.0, 0.0]);
        b.record_connection(&[n(3), n(4), n(5), n(6)], &[0.0; 4]);
        assert_eq!(b.average_path_length(), 3.0);
    }

    #[test]
    fn payoff_formula_matches_paper() {
        // pf = 50, pr = 100, two forwarders => routing share 50 each.
        let mut b = BundleAccounting::new();
        b.record_connection(&[n(1), n(2)], &[2.0, 3.0]);
        b.record_connection(&[n(1)], &[2.0]);
        let payoffs: BTreeMap<NodeId, f64> = b.payoffs(50.0, 100.0, 5.0).into_iter().collect();
        // n1: 2*50 + 50 - 4 - 5 = 141 ; n2: 1*50 + 50 - 3 - 5 = 92
        assert!((payoffs[&n(1)] - 141.0).abs() < 1e-12);
        assert!((payoffs[&n(2)] - 92.0).abs() < 1e-12);
    }

    #[test]
    fn gross_benefit_shrinks_with_forwarder_set() {
        // Same instances; a bigger forwarder set dilutes the routing share
        // (the Figure 1 vs Figure 2 comparison).
        let mut small = BundleAccounting::new();
        small.record_connection(&[n(1), n(2), n(3)], &[0.0; 3]);
        small.record_connection(&[n(1), n(2), n(3)], &[0.0; 3]);

        let mut large = BundleAccounting::new();
        large.record_connection(&[n(1), n(2), n(3)], &[0.0; 3]);
        large.record_connection(&[n(1), n(4), n(5)], &[0.0; 3]);

        let pf = 50.0;
        let pr = 100.0;
        assert!(small.gross_benefit(n(1), pf, pr) > large.gross_benefit(n(1), pf, pr));
        // n2 also loses its second forwarding instance in the large case.
        assert!(small.gross_benefit(n(2), pf, pr) > large.gross_benefit(n(2), pf, pr));
    }

    #[test]
    #[should_panic(expected = "one transmission cost per forwarder")]
    fn mismatched_costs_rejected() {
        let mut b = BundleAccounting::new();
        b.record_connection(&[n(1)], &[0.0, 0.0]);
    }
}
