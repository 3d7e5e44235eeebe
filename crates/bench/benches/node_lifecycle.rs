//! The lazy node lifecycle at scale: per-tick cost and resident memory
//! must track active traffic, not N.
//!
//! Three guards run before timing:
//!
//! 1. **Value identity** — at N = 2000 the lazy lifecycle's `RunResult`
//!    equals the eager one after zeroing the resident-state metrics (the
//!    only fields the lifecycle may change).
//! 2. **Bounded residency** — the peak materialized node count of a lazy
//!    scale run stays a small fraction of N (the fixed 512-pair workload
//!    saturates around ~3.3k touched nodes regardless of N).
//! 3. **Bounded memory** — the whole run's heap high-water mark, counted
//!    by the in-tree [`CountingAllocator`], stays under a ceiling sized to
//!    the deliberate O(N) residuals (analytic churn schedules, topology)
//!    plus the O(active) slab. At N = 10⁶ the measured peak is ~255 MiB
//!    (~34 MiB at N = 100k); the ceilings are 640 MiB and 84 MiB, far
//!    below what eagerly materialized per-node state (let alone the
//!    O(N²) dense cost matrix) would need.
//!
//! Timed arms compare eager vs lazy lifecycles at N = 100k and time the
//! million-node lazy run. `IDPA_NL_QUICK=1` restricts the sweep to
//! N = 20k (and the memory assertion to N = 100k) for the CI bench gate.

use idpa_bench::alloc_counter::CountingAllocator;
use idpa_bench::harness::Harness;
use idpa_sim::{NodeLifecycle, RunResult, ScenarioConfig, SimulationRun};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// The scale scenario with an explicit lifecycle arm.
fn scale_cfg(n: usize, lifecycle: NodeLifecycle) -> ScenarioConfig {
    let cfg = ScenarioConfig {
        node_lifecycle: lifecycle,
        ..ScenarioConfig::scale(n, 1)
    };
    cfg.validate().expect("bench scenario must be valid");
    cfg
}

/// Zeroes the resident-state metrics — the only fields the lifecycle is
/// allowed to change.
fn normalized(mut r: RunResult) -> RunResult {
    r.peak_materialized_nodes = 0;
    r.node_evictions = 0;
    r.slab_bytes = 0;
    r
}

/// Runs the lazy arm at `n` under a fresh peak window, asserting residency
/// and heap stay under the ceilings. Returns the run for reporting.
fn bounded_run(n: usize, max_nodes: usize, max_heap_bytes: usize) -> RunResult {
    let cfg = scale_cfg(n, NodeLifecycle::Lazy);
    ALLOC.reset_peak();
    let r = SimulationRun::execute(cfg);
    let peak = ALLOC.peak_bytes();
    println!(
        "node_lifecycle/scale_{n}: peak heap {:.1} MiB, peak nodes {}, evictions {}, slab {:.1} KiB",
        peak as f64 / (1024.0 * 1024.0),
        r.peak_materialized_nodes,
        r.node_evictions,
        r.slab_bytes as f64 / 1024.0
    );
    assert!(
        r.peak_materialized_nodes <= max_nodes,
        "N={n}: peak residency {} exceeds the {max_nodes}-node ceiling",
        r.peak_materialized_nodes
    );
    assert!(
        peak <= max_heap_bytes,
        "N={n}: peak heap {peak} B exceeds the {max_heap_bytes} B ceiling"
    );
    r
}

fn main() {
    let quick = std::env::var("IDPA_NL_QUICK").is_ok_and(|v| v == "1");
    let mut h = Harness::new();

    // Guard 1 — value identity before any timing.
    let eager = SimulationRun::execute(scale_cfg(2_000, NodeLifecycle::Eager));
    let lazy = SimulationRun::execute(scale_cfg(2_000, NodeLifecycle::Lazy));
    assert_eq!(
        normalized(eager),
        normalized(lazy),
        "lazy lifecycle diverged from eager at N=2000"
    );
    println!("node_lifecycle: lazy == eager at N=2000 (normalized resident metrics)");

    // Guards 2 + 3 — bounded residency and heap. The working set is
    // ~3.3k nodes at every N; ceilings leave ~15x (nodes) and ~2.5x
    // (heap) headroom over the measured figures so the assert catches
    // regressions in kind, not noise.
    let (mem_n, heap_ceiling) = if quick {
        (100_000, 84 << 20)
    } else {
        (1_000_000, 640 << 20)
    };
    let r = bounded_run(mem_n, 50_000, heap_ceiling);
    assert_eq!(r.connections, 4_096, "scale run dropped transmissions");

    // Timed arms: the lifecycle comparison at fixed N, and the lazy run
    // at the largest scale for the tier.
    let compare_n = if quick { 20_000 } else { 100_000 };
    let tag = if quick { "n20k" } else { "n100k" };
    h.bench(&format!("node_lifecycle/scale_{tag}_eager"), || {
        SimulationRun::execute(scale_cfg(compare_n, NodeLifecycle::Eager))
    });
    h.bench(&format!("node_lifecycle/scale_{tag}_lazy"), || {
        SimulationRun::execute(scale_cfg(compare_n, NodeLifecycle::Lazy))
    });
    if !quick {
        h.bench("node_lifecycle/scale_1m_lazy", || {
            SimulationRun::execute(scale_cfg(1_000_000, NodeLifecycle::Lazy))
        });
    }
    h.write_json_default().expect("write bench report");
}
