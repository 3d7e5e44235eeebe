//! The lazy node lifecycle at scale: per-tick cost and resident memory
//! must track active traffic, not N.
//!
//! Four guards run before timing:
//!
//! 1. **Value identity** — at N = 2000 the scale scenario's `RunResult`
//!    with idle eviction (`evict_idle_ticks: Some(64)`) equals the one
//!    without (`None`) after zeroing the resident-state metrics (the only
//!    fields eviction may change).
//! 2. **Bounded residency** — the peak materialized node count of a lazy
//!    scale run stays a small fraction of N (the fixed 512-pair workload
//!    saturates around ~3.3k touched nodes regardless of N).
//! 3. **Bounded memory** — the whole run's heap high-water mark, counted
//!    by the in-tree [`CountingAllocator`], stays under a ceiling. A node's
//!    churn schedule and neighbor set are derived on first touch, so what
//!    grows with N is a handful of flat arrays: one join time (8 B), one
//!    cache slot (4 B) and one role (1 B) per node, and the final per-node
//!    payoff totals (8 B). The O(active) working set — probe cells, cached
//!    nodes, history — adds ~12 MiB at every N. The measured peaks are
//!    ~34 MiB at N = 10⁶ and ~15 MiB at N = 100k; the ceilings, ~1.5×
//!    those, are 50 MiB and 22 MiB.
//! 4. **Set-up without O(N) transients** — `World::generate` at N = 10⁶
//!    peaks at ≤ 12 MiB: the join times (8 MB, collected straight into
//!    their shared slice) and the roles (1 MB) are all it holds, 8.65 MiB
//!    measured. A second join-time buffer or a dense id permutation for
//!    the role draw at f = 0 would each push it past the ceiling.
//!
//! Timed arms run the scale scenario at N = 100k and at N = 10⁶. The
//! N = 10⁷ arm — a bounded run under a ceiling sized from its O(N) arrays,
//! then a timed run — is left out of the smoke tier (`IDPA_BENCH_SMOKE=1`)
//! and the quick tier. `IDPA_NL_QUICK=1` restricts the sweep to N = 20k
//! (and the memory assertion to N = 100k) for the CI bench gate.

use idpa_bench::alloc_counter::CountingAllocator;
use idpa_bench::harness::{smoke_mode, Harness};
use idpa_bench::without_residency;
use idpa_sim::{RunResult, ScenarioConfig, SimulationRun, World};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// The scale scenario (idle eviction after 64 ticks).
fn scale_cfg(n: usize) -> ScenarioConfig {
    let cfg = ScenarioConfig::scale(n, 1);
    cfg.validate().expect("bench scenario must be valid");
    cfg
}

/// Runs the scale scenario at `n` under a fresh peak window, asserting
/// residency and heap stay under the ceilings. Returns the run for
/// reporting.
fn bounded_run(n: usize, max_nodes: usize, max_heap_bytes: usize) -> RunResult {
    let cfg = scale_cfg(n);
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
    let evicting = SimulationRun::execute(scale_cfg(2_000));
    let kept = SimulationRun::execute(ScenarioConfig {
        evict_idle_ticks: None,
        ..scale_cfg(2_000)
    });
    assert!(evicting.node_evictions > 0, "no evictions at N=2000");
    assert_eq!(
        without_residency(evicting),
        without_residency(kept),
        "idle eviction changed the run at N=2000"
    );
    println!("node_lifecycle: evicting == never-evicting at N=2000 (normalized resident metrics)");

    // Guard 4 — the set-up peak, in every tier (it takes ~20 ms).
    let cfg = scale_cfg(1_000_000);
    ALLOC.reset_peak();
    let base = ALLOC.current_bytes();
    let world = World::generate(&cfg);
    let setup_peak = ALLOC.peak_bytes() - base;
    drop(world);
    println!(
        "node_lifecycle: World::generate at N=10^6 peaks at {:.2} MiB",
        setup_peak as f64 / (1024.0 * 1024.0)
    );
    assert!(
        setup_peak <= 12 << 20,
        "World::generate at N=10^6 peaked at {setup_peak} B, over the 12 MiB ceiling"
    );

    // Guards 2 + 3 — bounded residency and heap. The working set is
    // ~3.3k nodes at every N; the node ceiling leaves ~15x headroom and
    // the heap ceilings ~1.5x over the measured figures, so the assert
    // catches regressions in kind, not noise.
    let (mem_n, heap_ceiling) = if quick {
        (100_000, 22 << 20)
    } else {
        (1_000_000, 50 << 20)
    };
    let r = bounded_run(mem_n, 50_000, heap_ceiling);
    assert_eq!(r.connections, 4_096, "scale run dropped transmissions");

    // Timed arms: the scale run at fixed N, and at the largest scale for
    // the tier.
    let timed_n = if quick { 20_000 } else { 100_000 };
    let tag = if quick { "n20k" } else { "n100k" };
    h.bench(&format!("node_lifecycle/scale_{tag}_lazy"), || {
        SimulationRun::execute(scale_cfg(timed_n))
    });
    if !quick {
        h.bench("node_lifecycle/scale_1m_lazy", || {
            SimulationRun::execute(scale_cfg(1_000_000))
        });
    }
    // N = 10⁷: the arrays resident through the run (join time, cache
    // slot, role, payoff total) are 21 B a node, ~200 MiB, and the
    // measured peak is ~222 MiB. The ceiling is ~1.5x that.
    if !quick && !smoke_mode() {
        let r = bounded_run(10_000_000, 50_000, 336 << 20);
        assert_eq!(r.connections, 4_096, "scale run dropped transmissions");
        h.bench("node_lifecycle/scale_10m_lazy", || {
            SimulationRun::execute(scale_cfg(10_000_000))
        });
    }
    h.write_json_default().expect("write bench report");
}
