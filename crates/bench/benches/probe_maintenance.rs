//! Maintenance-heavy lazy probing: a churny, replacement-dense scenario
//! (tight replacement threshold, short probe period, wide neighbor sets)
//! where nearly every probe tick makes some node replace a neighbor. Lazy
//! cells schedule nothing; a read catches its cell up through every
//! replacement since the last read. The per-slot due-tick cache keeps
//! that catch-up cheap: a maintenance at tick `k` recomputes only the
//! slots it replaced (those due at `k`), not all `d`.
//!
//! Before timing, each run's [`result_fingerprint`] must equal the pin
//! below, captured while an eager per-tick probing arm still ran beside
//! the lazy one and the two were asserted equal. The timing therefore
//! measures the maintenance bookkeeping, never behavioral drift.
//!
//! Replacement-saturated churn is the hardest regime for lazy probing, yet
//! it pays only for the cells transmissions read: about 27 ms a run at
//! N = 500 on a 2-core Xeon, where stepping every node at every tick took
//! 215 ms. The per-tick cost of that reference stays timed by the
//! `overlay/probe_tick_eager_*` and `overlay/eager_replay_all_288_ticks`
//! kernels.
//!
//! `IDPA_PM_QUICK=1` restricts the run to the N = 500 scale — the CI bench
//! gate uses this for its short timed pass.

use idpa_bench::harness::Harness;
use idpa_bench::result_fingerprint;
use idpa_sim::{ScenarioConfig, SimulationRun};

/// A maintenance-dominated scenario: replacements fall due every ~6 probe
/// rounds per silent neighbor, so every lazy catch-up replays many
/// replacements while the transmission load stays light.
fn maintenance_heavy(n_nodes: usize) -> ScenarioConfig {
    let cfg = ScenarioConfig {
        degree: 24,
        n_pairs: 8,
        total_transmissions: 64,
        max_connections: 8,
        probe_period: 1.0,
        neighbor_replacement_rounds: Some(6),
        seed: 9,
        ..ScenarioConfig::default()
    }
    .with_nodes(n_nodes);
    cfg.validate().expect("bench scenario must be valid");
    cfg
}

fn bench_scale(h: &mut Harness, tag: &str, n_nodes: usize, pin: u64) {
    let cfg = maintenance_heavy(n_nodes);

    // The speed must not come from computing something different.
    let r = SimulationRun::execute(cfg);
    assert_eq!(
        result_fingerprint(&r),
        pin,
        "probe_maintenance/{tag}: run drifted from its pinned result"
    );
    println!(
        "probe_maintenance/{tag}: pinned result (connections={}, avg payoff={:.3})",
        r.connections, r.avg_good_payoff
    );

    h.bench(&format!("probe_maintenance/run_{tag}_lazy"), || {
        SimulationRun::execute(cfg)
    });
}

fn main() {
    let quick = std::env::var("IDPA_PM_QUICK").is_ok_and(|v| v == "1");

    let mut h = Harness::new();
    bench_scale(&mut h, "n500_d24_r6", 500, 0xea0c_f9cf_8f58_b7b0);
    if !quick {
        bench_scale(&mut h, "n2k_d24_r6", 2000, 0x76f8_9e2e_99af_8ecc);
    }
    h.write_json_default().expect("write bench report");
}
