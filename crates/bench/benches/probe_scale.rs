//! End-to-end lazy probing at scale: a probe-dominated large-N scenario
//! (N = 4000, d = 32, T = 0.5). Probing every node's full neighbor set at
//! every tick would cost N·d·ticks whether or not anyone reads the
//! estimates; the lazy estimator materializes probe state on demand from
//! the analytic churn schedule, so its cost scales with reads instead.
//! Before timing, the run's [`result_fingerprint`] must equal the pin
//! below, so the speed cannot come from computing something different.

use idpa_bench::harness::Harness;
use idpa_bench::result_fingerprint;
use idpa_sim::{ScenarioConfig, SimulationRun};

/// A scenario where per-tick probing would dominate the event loop: large
/// N, wide neighbor sets, a 30-second probe period over the default
/// 24-hour horizon, and a light transmission load (64 messages over 8
/// pairs). Neighbor sets are static (the default), the regime lazy
/// probing is built for: probe state is touched only where transmissions
/// actually read it.
fn probe_dominated() -> ScenarioConfig {
    let cfg = ScenarioConfig {
        degree: 32,
        n_pairs: 8,
        total_transmissions: 64,
        max_connections: 8,
        probe_period: 0.5,
        seed: 3,
        ..ScenarioConfig::default()
    }
    .with_nodes(4000);
    cfg.validate().expect("bench scenario must be valid");
    cfg
}

fn main() {
    let cfg = probe_dominated();

    // The speed must not come from computing something different.
    let r = SimulationRun::execute(cfg);
    assert_eq!(
        result_fingerprint(&r),
        0x4684_3b73_51a0_82c5,
        "probe_scale: run drifted from its pinned result"
    );
    println!(
        "probe_scale: pinned result at N=4000 (connections={}, avg payoff={:.3})",
        r.connections, r.avg_good_payoff
    );

    let mut h = Harness::new();
    h.bench("probe_scale/run_n4000_d32_lazy", || {
        SimulationRun::execute(cfg)
    });
    h.write_json_default().expect("write bench report");
}
