//! End-to-end probe-mode trajectory: a probe-dominated large-N scenario
//! (N = 4000, d = 32, T = 1) run under `--probe-mode eager` versus
//! `--probe-mode lazy`. The eager sweep probes every node's full neighbor
//! set at every tick whether or not anyone reads the estimates; the lazy
//! estimator materializes probe state on demand from the analytic churn
//! schedule, so its cost scales with reads and replacement events instead
//! of N·d·ticks. Both modes draw probe randomness from position-keyed
//! streams and produce bit-identical results — asserted here before timing.

use idpa_bench::harness::Harness;
use idpa_sim::{ProbeMode, ScenarioConfig, SimulationRun};

/// A scenario where the probe sweep dominates the event loop: large N,
/// wide neighbor sets, a 30-second probe period over the default 24-hour
/// horizon, and a light transmission load (64 messages over 8 pairs).
/// Neighbor sets are static (the default), the regime lazy probing is
/// built for: with no replacement schedule, probe state is touched only
/// where transmissions actually read it.
fn probe_dominated(mode: ProbeMode) -> ScenarioConfig {
    let cfg = ScenarioConfig {
        degree: 32,
        n_pairs: 8,
        total_transmissions: 64,
        max_connections: 8,
        probe_period: 0.5,
        probe_mode: mode,
        seed: 3,
        ..ScenarioConfig::default()
    }
    .with_nodes(4000);
    cfg.validate().expect("bench scenario must be valid");
    cfg
}

fn main() {
    let eager = probe_dominated(ProbeMode::Eager);
    let lazy = probe_dominated(ProbeMode::Lazy);

    // The speedup must not come from computing something different: the
    // two modes are bit-identical.
    let a = SimulationRun::execute(eager);
    let b = SimulationRun::execute(lazy);
    assert_eq!(a, b, "lazy run diverged from eager run");
    println!(
        "probe_scale: eager == lazy at N=4000 (connections={}, avg payoff={:.3})",
        a.connections, a.avg_good_payoff
    );

    let mut h = Harness::new();
    h.bench("probe_scale/run_n4000_d32_eager", || {
        SimulationRun::execute(eager)
    });
    h.bench("probe_scale/run_n4000_d32_lazy", || {
        SimulationRun::execute(lazy)
    });
    h.write_json_default().expect("write bench report");
}
