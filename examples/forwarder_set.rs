//! The paper's Figure 1 vs Figure 2, executable.
//!
//! Figure 1: random routing (plus one unavailable node) scatters the
//! recurring connections over a *large* forwarder set — every forwarder's
//! routing-benefit share shrinks to `P_r/‖π‖` with big `‖π‖`.
//! Figure 2: quality-driven routing keeps a *stable* set of forwarders, so
//! each one collects both more forwarding instances and a larger share.
//!
//! ```text
//! cargo run --release --example forwarder_set
//! ```

use idpa::prelude::*;

/// A static view over a fixed small overlay (no churn): node 0 is the
/// initiator I, node 9 the responder R, everyone else a potential
/// forwarder with uniform availability estimates.
struct StaticView {
    neighbors: Vec<Vec<NodeId>>,
}

impl RoutingView for StaticView {
    fn live_neighbors_into(&self, s: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend_from_slice(&self.neighbors[s.index()]);
    }
    fn availability(&self, s: NodeId, v: NodeId) -> f64 {
        // Mild asymmetry so the utility maximiser has a stable argmax.
        0.3 + 0.05 * ((s.index() * 3 + v.index() * 7) % 10) as f64 / 10.0
    }
    fn transmission_cost(&self, _: NodeId, _: NodeId) -> f64 {
        1.0
    }
    fn participation_cost(&self, _: NodeId) -> f64 {
        2.0
    }
}

fn run(strategy: RoutingStrategy, label: &str) {
    let n = 10;
    let view = StaticView {
        neighbors: (0..n)
            .map(|i| {
                (1..=3)
                    .map(|d| NodeId((i + d) % n))
                    .filter(|v| v.index() != i)
                    .collect()
            })
            .collect(),
    };
    let contract = Contract::new(BundleId(0), NodeId(9), 50.0, 100.0);
    let mut histories = HistoryArena::with_capacity(None);
    let kinds = vec![NodeKind::Good; n];
    let quality = EdgeQuality::new(Weights::balanced());
    let policy = PathPolicy::new(0.7, 5);
    let mut rng = StreamFactory::new(99).stream(label);

    let mut bundle = BundleAccounting::new();
    let k = 8;
    for conn in 0..k {
        let out = form_connection(
            NodeId(0),
            conn,
            &contract,
            bundle.connections(),
            &view,
            &mut histories,
            &kinds,
            &quality,
            strategy,
            &policy,
            &mut rng,
        );
        let hops: Vec<String> = out.forwarders.iter().map(ToString::to_string).collect();
        println!("  π^{conn}: I -> {} -> R", hops.join(" -> "));
        bundle.record_connection(&out.forwarders, &out.hop_costs);
    }

    let set = bundle.forwarder_set_size();
    println!("  forwarder set ‖π‖ = {set} over {k} connections");
    println!(
        "  routing-benefit share per forwarder: P_r/‖π‖ = {:.1}",
        contract.pr / set as f64
    );
    let best = bundle
        .forwarder_set()
        .into_iter()
        .map(|f| (f, bundle.gross_benefit(f, contract.pf, contract.pr)))
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    println!(
        "  best-paid forwarder: {} with gross benefit {:.1} (m = {})",
        best.0,
        best.1,
        bundle.instances(best.0)
    );
    println!();
}

fn main() {
    println!("=== Figure 1: random routing scatters the forwarder set ===");
    run(RoutingStrategy::Random, "random");

    println!("=== Figure 2: utility-driven routing keeps it stable ===");
    run(RoutingStrategy::Utility(UtilityModel::ModelI), "utility");

    println!("The routing benefit P_r = 100 is shared over the forwarder set:");
    println!("a scattered set (paper's P_r/8) pays each forwarder far less than");
    println!("a stable one (paper's P_r/3) — that differential is the incentive.");
}
