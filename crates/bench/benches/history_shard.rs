//! Sharded-arena vs global-vec bundle formation (PR 4 tentpole bench).
//!
//! Two arms form the identical set of connection bundles:
//!
//! * `global_grouped` — one flat `Vec<HistoryProfile>`, bundles formed
//!   one at a time on a single thread: the reference the sharded
//!   executor must reproduce.
//! * `sharded_s8` — the sharded executor: 8-shard arena, pool workers
//!   over disjoint initiator groups, every selectivity read served from
//!   the worker's bundle-local cache-resident `BundleMirror`, shard
//!   locks only at commit (ascending order).
//!
//! Both arms are asserted bit-identical — at several shard/thread
//! combinations — *before* any timing, so the ratio measures schedule
//! and layout, never behavioral drift.
//!
//! `IDPA_HS_QUICK=1` restricts the sweep to N = 1k — the CI bench gate
//! uses this for its short timed pass.

use idpa_bench::harness::Harness;
use idpa_core::history::HistoryProfile;
use idpa_core::HistoryArena;
use idpa_desim::pool::default_threads;
use idpa_overlay::NodeId;
use idpa_sim::experiments::model_two;
use idpa_sim::{form_bundles_global, form_bundles_sharded, ScenarioConfig, World};

/// A formation-dominated scenario: every pair re-forms its bundle from
/// scratch, so history writes and per-hop selectivity reads are the
/// entire workload (no event loop, no probes).
fn formation_cfg(n_nodes: usize, n_pairs: usize, total: usize) -> ScenarioConfig {
    let cfg = ScenarioConfig {
        degree: 12,
        n_pairs,
        total_transmissions: total,
        max_connections: 64,
        adversary_fraction: 0.1,
        good_strategy: model_two(),
        seed: 42,
        ..ScenarioConfig::default()
    }
    .with_nodes(n_nodes);
    cfg.validate().expect("bench scenario must be valid");
    cfg
}

fn fresh_profiles(cfg: &ScenarioConfig) -> Vec<HistoryProfile> {
    (0..cfg.n_nodes)
        .map(|i| HistoryProfile::new(NodeId(i)))
        .collect()
}

/// Asserts sharded formation reproduces the global baseline bit-for-bit
/// at several `(shards, threads)` combinations before anything is timed.
fn assert_arms_agree(world: &World, cfg: &ScenarioConfig) {
    let mut profiles = fresh_profiles(cfg);
    let grouped = form_bundles_global(world, cfg, &mut profiles);
    for (shards, threads) in [(1usize, 1usize), (8, 1), (8, 8)] {
        let arena = HistoryArena::new(cfg.n_nodes, shards);
        let sharded = form_bundles_sharded(world, cfg, &arena, threads);
        assert_eq!(
            grouped, sharded,
            "sharded formation diverged at shards={shards} threads={threads}"
        );
    }
}

fn bench_scale(h: &mut Harness, tag: &str, cfg: &ScenarioConfig) {
    let world = World::generate(cfg);
    assert_arms_agree(&world, cfg);
    println!(
        "history_shard/{tag}: sharded == global ({} pairs, {} transmissions)",
        cfg.n_pairs, cfg.total_transmissions
    );

    h.bench(&format!("history_shard/form_{tag}_global_grouped"), || {
        let mut profiles = fresh_profiles(cfg);
        form_bundles_global(&world, cfg, &mut profiles)
    });
    // Thread count auto-sizes to the machine (IDPA_THREADS overrides);
    // results are bit-identical at any count, so only wall clock varies.
    let threads = default_threads();
    h.bench(&format!("history_shard/form_{tag}_sharded_s8"), || {
        let arena = HistoryArena::new(cfg.n_nodes, 8);
        form_bundles_sharded(&world, cfg, &arena, threads)
    });
}

fn main() {
    let quick = std::env::var("IDPA_HS_QUICK").is_ok_and(|v| v == "1");

    let mut h = Harness::new();
    // Paper-proportioned workloads (§3 runs 100 pairs x ~20 recurring
    // connections): ~8 connections per pair at N=1k, ~32 at N=10k.
    bench_scale(&mut h, "n1k", &formation_cfg(1000, 128, 1024));
    if !quick {
        bench_scale(&mut h, "n10k", &formation_cfg(10_000, 128, 4096));
    }
    h.write_json_default().expect("write bench report");
}
