//! Hop-by-hop path formation (§2.2).
//!
//! "The establishment of the forwarding path is based on propagation of
//! contract information (P_f and P_r) through the intermediate nodes":
//! starting at the initiator, each payload holder applies the Crowds coin
//! (continue vs deliver), then — if continuing — picks the next hop by its
//! own routing strategy (utility-driven for selfish-rational peers, random
//! for adversaries). After delivery, the confirmation flows back along the
//! reverse path and every forwarder's history profile is updated with its
//! `(predecessor, successor)` record (Table 1).

use idpa_desim::rng::Xoshiro256StarStar;
use idpa_overlay::{NodeId, NodeKind};
use rand::RngExt;

use crate::arena::HistoryArena;
use crate::contract::Contract;
use crate::quality::EdgeQuality;
use crate::routing::{
    choose_next_hop_colluding_with, choose_next_hop_with, AdversaryStrategy, PathPolicy,
    RouteScratch, RoutingStrategy, RoutingView,
};

/// The outcome of forming one connection.
#[derive(Debug, Clone, PartialEq)]
pub struct PathOutcome {
    /// Intermediate forwarders in order (`I → f_1 → … → f_n → R`,
    /// endpoints excluded). May repeat a node (two positions on one path).
    pub forwarders: Vec<NodeId>,
    /// Transmission cost paid by each forwarder to its successor
    /// (`f_i → f_{i+1}` or `f_n → R`), parallel to `forwarders`.
    pub hop_costs: Vec<f64>,
}

impl PathOutcome {
    /// Number of forwarding hops (path length contribution `L`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.forwarders.len()
    }

    /// Whether the connection went directly `I → R`.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.forwarders.is_empty()
    }

    /// The directed forwarding edges of the path, including `I`'s first
    /// hop and the final hop into `R` — the edge set Prop. 1's reformation
    /// argument counts.
    #[must_use]
    pub fn edges(&self, initiator: NodeId, responder: NodeId) -> Vec<(NodeId, NodeId)> {
        let mut nodes = Vec::with_capacity(self.forwarders.len() + 2);
        nodes.push(initiator);
        nodes.extend_from_slice(&self.forwarders);
        nodes.push(responder);
        nodes.windows(2).map(|w| (w[0], w[1])).collect()
    }
}

/// Forms and commits one connection of a bundle: [`form_connection_pending`]
/// with the base adversary model ([`AdversaryStrategy::Random`]) and fresh
/// scratch state, then [`PendingConnection::commit`].
///
/// * `priors` — completed connections of this bundle (drives selectivity).
/// * `good_strategy` — the routing strategy selfish-rational peers use
///   (the experiment axis of Figs. 5–7); malicious peers always route
///   randomly (§2.4).
/// * `histories` — every node's history; updated in place with this
///   connection's records as the confirmation returns.
///
/// The initiator always attempts at least one forwarder hop (as in Crowds,
/// the first hop is unconditional); the coin governs every later hop.
#[allow(clippy::too_many_arguments)]
pub fn form_connection(
    initiator: NodeId,
    connection_index: u32,
    contract: &Contract,
    priors: u32,
    view: &impl RoutingView,
    histories: &mut HistoryArena,
    kinds: &[NodeKind],
    quality: &EdgeQuality,
    good_strategy: RoutingStrategy,
    policy: &PathPolicy,
    rng: &mut Xoshiro256StarStar,
) -> PathOutcome {
    let pending = form_connection_pending(
        &mut RouteScratch::new(),
        initiator,
        contract,
        priors,
        view,
        &*histories,
        kinds,
        quality,
        good_strategy,
        AdversaryStrategy::Random,
        policy,
        rng,
    );
    pending.commit(contract.bundle, connection_index, histories);
    pending.into_outcome()
}

/// A formed connection whose history records have **not** been committed.
///
/// §2.2 makes history confirmation-driven: "after R receives the payload,
/// it sends back a confirmation through the reverse path" and only then do
/// path nodes update their Table 1 records. Under fault injection a
/// transmission can fail mid-path (no confirmation, no history) or the
/// confirmation can be swallowed partway back (only the suffix that saw it
/// records), so formation and commit are separate steps; a connection
/// that completes commits every record.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingConnection {
    outcome: PathOutcome,
    /// `(node, predecessor, successor)` per path position: entry 0 is the
    /// initiator's record, entry `p >= 1` belongs to forwarder `f_p`.
    hop_records: Vec<(NodeId, NodeId, NodeId)>,
}

impl PendingConnection {
    /// The formed path (read-only until committed).
    #[must_use]
    pub fn outcome(&self) -> &PathOutcome {
        &self.outcome
    }

    /// Extracts the outcome, discarding the uncommitted records.
    #[must_use]
    pub fn into_outcome(self) -> PathOutcome {
        self.outcome
    }

    /// The per-position history records (initiator first).
    #[must_use]
    pub fn records(&self) -> &[(NodeId, NodeId, NodeId)] {
        &self.hop_records
    }

    /// Commits every node's record — the full confirmation reached `I`.
    pub fn commit(
        &self,
        bundle: crate::bundle::BundleId,
        connection_index: u32,
        histories: &mut HistoryArena,
    ) {
        for &(node, pred, succ) in &self.hop_records {
            histories.record_hop(node, bundle, connection_index, pred, succ);
        }
    }

    /// Commits only the records of path positions **strictly after**
    /// `position` — the nodes a confirmation passed through before being
    /// swallowed by the cheater at `position` (1-based forwarder index).
    /// The cheater itself and everyone upstream (including `I`) record
    /// nothing.
    pub fn commit_suffix(
        &self,
        position: usize,
        bundle: crate::bundle::BundleId,
        connection_index: u32,
        histories: &mut HistoryArena,
    ) {
        for &(node, pred, succ) in self.hop_records.iter().skip(position + 1) {
            histories.record_hop(node, bundle, connection_index, pred, succ);
        }
    }
}

/// Forms a connection without committing history — see
/// [`PendingConnection`]. Hop decisions read `histories` but never write.
///
/// The hot path of the simulator: buffers and the per-transmission memo
/// caches in `scratch` are reused across hops of this connection (and the
/// buffers across connections). This function calls
/// [`RouteScratch::begin_transmission`] itself — histories are only
/// mutated after all hop decisions are made, so the caches are valid for
/// exactly the duration of the hop loop. `adversary` is the
/// malicious-node strategy: the base model's
/// [`AdversaryStrategy::Random`], or [`AdversaryStrategy::Colluding`] per
/// the §4 collusion discussion.
#[allow(clippy::too_many_arguments)]
pub fn form_connection_pending(
    scratch: &mut RouteScratch,
    initiator: NodeId,
    contract: &Contract,
    priors: u32,
    view: &impl RoutingView,
    histories: &HistoryArena,
    kinds: &[NodeKind],
    quality: &EdgeQuality,
    good_strategy: RoutingStrategy,
    adversary: AdversaryStrategy,
    policy: &PathPolicy,
    rng: &mut Xoshiro256StarStar,
) -> PendingConnection {
    scratch.begin_transmission();
    let mut forwarders: Vec<NodeId> = Vec::new();
    let mut hop_records: Vec<(NodeId, NodeId, NodeId)> = Vec::new(); // (node, pred, succ)
    let mut current = initiator;
    let mut predecessor = initiator; // I's own record uses itself as pred

    loop {
        let coin = rng.random_range(0.0..1.0);
        if !policy.wants_another_hop(forwarders.len(), coin) {
            break;
        }
        let choice = if kinds[current.index()].is_good() {
            choose_next_hop_with(
                scratch,
                current,
                good_strategy,
                contract,
                priors,
                histories,
                view,
                quality,
                rng,
            )
        } else {
            match adversary {
                AdversaryStrategy::Random => choose_next_hop_with(
                    scratch,
                    current,
                    RoutingStrategy::Random,
                    contract,
                    priors,
                    histories,
                    view,
                    quality,
                    rng,
                ),
                AdversaryStrategy::Colluding => {
                    choose_next_hop_colluding_with(scratch, current, contract, kinds, view, rng)
                }
            }
        };
        let Some(choice) = choice else {
            break; // no candidate or rational decline: deliver to R
        };
        hop_records.push((current, predecessor, choice.next));
        forwarders.push(choice.next);
        predecessor = current;
        current = choice.next;
    }
    // Final delivery edge: current → R.
    hop_records.push((current, predecessor, contract.responder));

    // Cost accounting: each forwarder pays the transmission cost of its
    // outgoing edge.
    let hop_costs = forwarders
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            let succ = forwarders.get(i + 1).copied().unwrap_or(contract.responder);
            view.transmission_cost(f, succ)
        })
        .collect();

    PendingConnection {
        outcome: PathOutcome {
            forwarders,
            hop_costs,
        },
        hop_records,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;
    use crate::bundle::BundleId;
    use crate::quality::Weights;
    use crate::utility::UtilityModel;
    use std::collections::HashMap;

    struct FixtureView {
        neighbors: HashMap<NodeId, Vec<NodeId>>,
        availability: HashMap<(NodeId, NodeId), f64>,
    }

    impl FixtureView {
        fn ring(n: usize) -> Self {
            // Node i's neighbors: i+1 and i+2 (mod n); responder is n-1.
            let mut neighbors = HashMap::new();
            let mut availability = HashMap::new();
            for i in 0..n {
                let a = NodeId((i + 1) % n);
                let b = NodeId((i + 2) % n);
                neighbors.insert(NodeId(i), vec![a, b]);
                availability.insert((NodeId(i), a), 0.8);
                availability.insert((NodeId(i), b), 0.4);
            }
            FixtureView {
                neighbors,
                availability,
            }
        }
    }

    impl RoutingView for FixtureView {
        fn live_neighbors_into(&self, s: NodeId, out: &mut Vec<NodeId>) {
            out.clear();
            out.extend(self.neighbors.get(&s).into_iter().flatten());
        }
        fn availability(&self, s: NodeId, v: NodeId) -> f64 {
            self.availability.get(&(s, v)).copied().unwrap_or(0.0)
        }
        fn transmission_cost(&self, _: NodeId, _: NodeId) -> f64 {
            1.0
        }
        fn participation_cost(&self, _: NodeId) -> f64 {
            1.0
        }
    }

    fn setup(n: usize) -> (Contract, HistoryArena, Vec<NodeKind>, EdgeQuality) {
        let contract = Contract::new(BundleId(0), NodeId(n - 1), 50.0, 100.0);
        let histories = HistoryArena::with_capacity(None);
        let kinds = vec![NodeKind::Good; n];
        let quality = EdgeQuality::new(Weights::balanced());
        (contract, histories, kinds, quality)
    }

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn forms_nonempty_paths() {
        let view = FixtureView::ring(10);
        let (contract, mut histories, kinds, quality) = setup(10);
        let out = form_connection(
            NodeId(0),
            0,
            &contract,
            0,
            &view,
            &mut histories,
            &kinds,
            &quality,
            RoutingStrategy::Utility(UtilityModel::ModelI),
            &PathPolicy::new(0.75, 8),
            &mut rng(1),
        );
        assert!(!out.is_empty(), "first hop is unconditional");
        assert_eq!(out.forwarders.len(), out.hop_costs.len());
    }

    #[test]
    fn respects_max_hops() {
        let view = FixtureView::ring(10);
        let (contract, mut histories, kinds, quality) = setup(10);
        for seed in 0..50 {
            let out = form_connection(
                NodeId(0),
                0,
                &contract,
                0,
                &view,
                &mut histories,
                &kinds,
                &quality,
                RoutingStrategy::Random,
                &PathPolicy::new(0.95, 4),
                &mut rng(seed),
            );
            assert!(out.len() <= 4, "seed {seed}: {}", out.len());
        }
    }

    #[test]
    fn forwarders_never_include_endpoints() {
        let view = FixtureView::ring(10);
        let (contract, mut histories, kinds, quality) = setup(10);
        for seed in 0..50 {
            let out = form_connection(
                NodeId(0),
                0,
                &contract,
                0,
                &view,
                &mut histories,
                &kinds,
                &quality,
                RoutingStrategy::Random,
                &PathPolicy::new(0.75, 8),
                &mut rng(seed),
            );
            assert!(!out.forwarders.contains(&contract.responder));
        }
    }

    #[test]
    fn history_recorded_for_every_path_node() {
        let view = FixtureView::ring(10);
        let (contract, mut histories, kinds, quality) = setup(10);
        let out = form_connection(
            NodeId(0),
            0,
            &contract,
            0,
            &view,
            &mut histories,
            &kinds,
            &quality,
            RoutingStrategy::Utility(UtilityModel::ModelI),
            &PathPolicy::new(0.75, 8),
            &mut rng(2),
        );
        // The initiator recorded its first hop.
        assert_eq!(histories.records(NodeId(0), contract.bundle).len(), 1);
        // The last forwarder recorded an edge into R.
        let last = *out.forwarders.last().unwrap();
        let recs = histories.records(last, contract.bundle);
        assert!(recs.iter().any(|r| r.successor == contract.responder));
    }

    #[test]
    fn stable_choice_across_connections_with_history() {
        // With utility routing and static liveness, the second connection
        // must reuse the first connection's edges (selectivity reinforces
        // them) — the mechanism behind Prop. 1.
        let view = FixtureView::ring(10);
        let (contract, mut histories, kinds, quality) = setup(10);
        let strategy = RoutingStrategy::Utility(UtilityModel::ModelI);
        let policy = PathPolicy::new(0.75, 8);
        let first = form_connection(
            NodeId(0),
            0,
            &contract,
            0,
            &view,
            &mut histories,
            &kinds,
            &quality,
            strategy,
            &policy,
            &mut rng(3),
        );
        let second = form_connection(
            NodeId(0),
            1,
            &contract,
            1,
            &view,
            &mut histories,
            &kinds,
            &quality,
            strategy,
            &policy,
            &mut rng(4),
        );
        // Same prefix as far as the shorter path goes.
        let common = first.forwarders.len().min(second.forwarders.len());
        assert!(common > 0);
        assert_eq!(
            &first.forwarders[..common],
            &second.forwarders[..common],
            "utility routing must stay on reinforced edges"
        );
    }

    #[test]
    fn pending_commit_matches_inline_formation() {
        // The committed-path entry point and the pending+commit pair must
        // leave histories and RNG state bit-identical.
        let view = FixtureView::ring(10);
        let (contract, mut h_inline, kinds, quality) = setup(10);
        let (_, mut h_pending, _, _) = setup(10);
        let strategy = RoutingStrategy::Utility(UtilityModel::ModelI);
        let policy = PathPolicy::new(0.75, 8);
        let mut rng_a = rng(21);
        let mut rng_b = rng(21);
        let inline = form_connection(
            NodeId(0),
            0,
            &contract,
            0,
            &view,
            &mut h_inline,
            &kinds,
            &quality,
            strategy,
            &policy,
            &mut rng_a,
        );
        let mut scratch = RouteScratch::new();
        let pending = form_connection_pending(
            &mut scratch,
            NodeId(0),
            &contract,
            0,
            &view,
            &h_pending,
            &kinds,
            &quality,
            strategy,
            AdversaryStrategy::Random,
            &policy,
            &mut rng_b,
        );
        pending.commit(contract.bundle, 0, &mut h_pending);
        assert_eq!(inline, *pending.outcome());
        assert_eq!(rng_a, rng_b, "identical RNG consumption");
        for i in 0..10 {
            assert_eq!(
                h_inline.records(NodeId(i), contract.bundle),
                h_pending.records(NodeId(i), contract.bundle),
                "node {i} history diverged"
            );
        }
    }

    #[test]
    fn uncommitted_connection_leaves_histories_untouched() {
        let view = FixtureView::ring(10);
        let (contract, histories, kinds, quality) = setup(10);
        let mut scratch = RouteScratch::new();
        let pending = form_connection_pending(
            &mut scratch,
            NodeId(0),
            &contract,
            0,
            &view,
            &histories,
            &kinds,
            &quality,
            RoutingStrategy::Random,
            AdversaryStrategy::Random,
            &policy_default(),
            &mut rng(22),
        );
        assert!(!pending.records().is_empty());
        assert!(histories.is_empty());
    }

    #[test]
    fn commit_suffix_records_only_downstream_of_cheater() {
        let view = FixtureView::ring(10);
        let (contract, mut histories, kinds, quality) = setup(10);
        let mut scratch = RouteScratch::new();
        // Find a seed with at least 3 forwarders so the suffix is nonempty.
        let pending = (0..100)
            .find_map(|seed| {
                let p = form_connection_pending(
                    &mut scratch,
                    NodeId(0),
                    &contract,
                    0,
                    &view,
                    &histories,
                    &kinds,
                    &quality,
                    RoutingStrategy::Random,
                    AdversaryStrategy::Random,
                    &policy_default(),
                    &mut rng(seed),
                );
                (p.outcome().len() >= 3).then_some(p)
            })
            .expect("some seed forms a 3-hop path");
        let cheater_pos = 1; // f_1 swallows the confirmation
        pending.commit_suffix(cheater_pos, contract.bundle, 0, &mut histories);
        // Initiator (position 0) and the cheater recorded nothing.
        assert!(histories.records(NodeId(0), contract.bundle).is_empty());
        let cheater = pending.outcome().forwarders[cheater_pos - 1];
        assert!(histories.records(cheater, contract.bundle).is_empty());
        // Every position after the cheater recorded exactly its entry.
        for (p, &(node, pred, succ)) in pending.records().iter().enumerate().skip(cheater_pos + 1) {
            let recs = histories.records(node, contract.bundle);
            assert!(
                recs.iter()
                    .any(|r| r.predecessor == pred && r.successor == succ),
                "position {p} missing its record"
            );
        }
    }

    fn policy_default() -> PathPolicy {
        PathPolicy::new(0.75, 8)
    }

    #[test]
    fn edges_include_endpoints() {
        let out = PathOutcome {
            forwarders: vec![NodeId(1), NodeId(2)],
            hop_costs: vec![1.0, 1.0],
        };
        assert_eq!(
            out.edges(NodeId(0), NodeId(9)),
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(2), NodeId(9)),
            ]
        );
    }

    #[test]
    fn direct_connection_when_no_candidates() {
        // A star where the initiator's only neighbor is the responder.
        let mut neighbors = HashMap::new();
        neighbors.insert(NodeId(0), vec![NodeId(1)]);
        let view = FixtureView {
            neighbors,
            availability: HashMap::new(),
        };
        let contract = Contract::new(BundleId(0), NodeId(1), 50.0, 100.0);
        let mut histories = HistoryArena::with_capacity(None);
        let kinds = vec![NodeKind::Good; 2];
        let quality = EdgeQuality::new(Weights::balanced());
        let out = form_connection(
            NodeId(0),
            0,
            &contract,
            0,
            &view,
            &mut histories,
            &kinds,
            &quality,
            RoutingStrategy::Utility(UtilityModel::ModelI),
            &PathPolicy::new(0.75, 8),
            &mut rng(5),
        );
        assert!(out.is_empty());
        assert!(out.hop_costs.is_empty());
    }

    #[test]
    fn hop_distance_policy_forms_exact_length_paths() {
        let view = FixtureView::ring(10);
        let (contract, mut histories, kinds, quality) = setup(10);
        for seed in 0..20 {
            let out = form_connection(
                NodeId(0),
                0,
                &contract,
                0,
                &view,
                &mut histories,
                &kinds,
                &quality,
                RoutingStrategy::Random,
                &PathPolicy::hop_distance(4),
                &mut rng(seed),
            );
            // The ring always has live candidates, so length is exact.
            assert_eq!(out.len(), 4, "seed {seed}");
        }
    }

    #[test]
    fn malicious_nodes_route_randomly_regardless_of_strategy() {
        // All nodes malicious: with utility strategy configured for good
        // nodes, paths must still vary across seeds (random routing).
        let view = FixtureView::ring(10);
        let (contract, mut histories, _, quality) = setup(10);
        let kinds = vec![NodeKind::Malicious; 10];
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..20 {
            let out = form_connection(
                NodeId(0),
                0,
                &contract,
                0,
                &view,
                &mut histories,
                &kinds,
                &quality,
                RoutingStrategy::Utility(UtilityModel::ModelI),
                &PathPolicy::new(0.75, 8),
                &mut rng(seed),
            );
            distinct.insert(out.forwarders.clone());
        }
        assert!(distinct.len() > 3, "random routing must vary paths");
    }
}
