//! Maintenance-heavy lazy probing: a churny, replacement-dense scenario
//! (tight replacement threshold, short probe period, wide neighbor sets)
//! where nearly every probe tick makes some node replace a neighbor. Lazy
//! cells schedule nothing; a read catches its cell up through every
//! replacement since the last read. The per-slot due-tick cache keeps
//! that catch-up cheap: a maintenance at tick `k` recomputes only the
//! slots it replaced (those due at `k`), not all `d`.
//!
//! Eager and lazy arms are asserted bit-identical *before* timing (per-node
//! RNG streams make the modes equivalent), so the ratio measures the
//! maintenance bookkeeping, never behavioral drift.
//!
//! Replacement-saturated churn is the hardest regime for lazy mode, yet it
//! pays only for the cells transmissions read: about 27 ms a run against
//! eager's 215 ms at N = 500 on a 2-core Xeon. A floor asserts lazy ≤
//! eager wall time at N = 500 before timing. The read-sparse
//! `probe_scale` bench is the other side, where lazy wins 20x.
//!
//! `IDPA_PM_QUICK=1` restricts the run to the N = 500 scale — the CI bench
//! gate uses this for its short timed pass.

use std::time::Instant;

use idpa_bench::harness::Harness;
use idpa_sim::{ProbeMode, RunResult, ScenarioConfig, SimulationRun};

/// A maintenance-dominated scenario: replacements fall due every ~6 probe
/// rounds per silent neighbor, so every lazy catch-up replays many
/// replacements while the transmission load stays light.
fn maintenance_heavy(n_nodes: usize, mode: ProbeMode) -> ScenarioConfig {
    let cfg = ScenarioConfig {
        degree: 24,
        n_pairs: 8,
        total_transmissions: 64,
        max_connections: 8,
        probe_period: 1.0,
        neighbor_replacement_rounds: Some(6),
        probe_mode: mode,
        seed: 9,
        ..ScenarioConfig::default()
    }
    .with_nodes(n_nodes);
    cfg.validate().expect("bench scenario must be valid");
    cfg
}

/// Runs `cfg` once; returns the result and the wall time in seconds.
fn timed(cfg: ScenarioConfig) -> (RunResult, f64) {
    let start = Instant::now();
    let r = SimulationRun::execute(cfg);
    (r, start.elapsed().as_secs_f64())
}

fn bench_scale(h: &mut Harness, tag: &str, n_nodes: usize) {
    let eager = maintenance_heavy(n_nodes, ProbeMode::Eager);
    let lazy = maintenance_heavy(n_nodes, ProbeMode::Lazy);

    // The speedup must not come from computing something different.
    let (a, eager_s) = timed(eager);
    let (b, lazy_s) = timed(lazy);
    assert_eq!(a, b, "lazy run diverged from eager run at {tag}");
    println!(
        "probe_maintenance/{tag}: eager == lazy (connections={}, avg payoff={:.3}); \
         eager {:.1} ms, lazy {:.1} ms",
        a.connections,
        a.avg_good_payoff,
        eager_s * 1e3,
        lazy_s * 1e3
    );
    if n_nodes == 500 {
        // Floor: lazy must win even where every catch-up replays many
        // replacements.
        assert!(
            lazy_s <= eager_s,
            "lazy run ({:.1} ms) slower than eager ({:.1} ms) at {tag}",
            lazy_s * 1e3,
            eager_s * 1e3
        );
    }

    h.bench(&format!("probe_maintenance/run_{tag}_eager"), || {
        SimulationRun::execute(eager)
    });
    h.bench(&format!("probe_maintenance/run_{tag}_lazy"), || {
        SimulationRun::execute(lazy)
    });
}

fn main() {
    let quick = std::env::var("IDPA_PM_QUICK").is_ok_and(|v| v == "1");

    let mut h = Harness::new();
    bench_scale(&mut h, "n500_d24_r6", 500);
    if !quick {
        bench_scale(&mut h, "n2k_d24_r6", 2000);
    }
    h.write_json_default().expect("write bench report");
}
