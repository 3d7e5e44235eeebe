//! Pins for the sharded history arena (PR 4).
//!
//! Two independent guarantees:
//!
//! 1. **The event-loop runner is shard-invariant** — the arena partitions
//!    storage without changing values, so runs reproduce the pinned
//!    fingerprints at `--history-shards 1` *and at every other shard
//!    count*, including under active fault plans.
//! 2. **The parallel formation executor is layout- and
//!    schedule-invariant** — sharded formation over the arena (any shard
//!    or thread count) forms exactly the bundles the sequential
//!    global-`Vec<HistoryProfile>` baseline forms, and commits exactly
//!    the records the baseline commits.

use idpa_core::bundle::BundleId;
use idpa_core::history::HistoryProfile;
use idpa_core::HistoryArena;
use idpa_desim::FaultConfig;
use idpa_sim::{
    form_bundles_global, form_bundles_items, form_bundles_sharded, partition_pairs,
    partition_pairs_balanced, ScenarioConfig, World,
};

mod common;
use common::{base, fingerprint, run, BASELINE};

#[test]
fn runner_reproduces_pr3_fingerprints_at_every_shard_count() {
    for (seed, replacement, expect_fp, expect_avg) in BASELINE {
        for shards in [1usize, 4, 16] {
            let r = run(ScenarioConfig {
                history_shards: shards,
                ..base(seed, replacement)
            });
            assert_eq!(
                fingerprint(&r),
                expect_fp,
                "seed {seed} repl {replacement:?} shards {shards}: drifted from the pinned baseline"
            );
            assert_eq!(r.avg_good_payoff.to_bits(), expect_avg);
        }
    }
}

#[test]
fn runner_results_are_bit_identical_across_shard_counts_under_faults() {
    let fault = FaultConfig {
        crash_rate: 0.03,
        drop_rate: 0.08,
        delay_rate: 0.2,
        cheat_fraction: 0.25,
        ..FaultConfig::default()
    };
    for seed in [1u64, 7] {
        let mut cfg = base(seed, Some(3));
        cfg.fault = fault;
        let reference = run(ScenarioConfig {
            history_shards: 1,
            ..cfg
        });
        for shards in [2usize, 3, 8, 20] {
            let r = run(ScenarioConfig {
                history_shards: shards,
                ..cfg
            });
            assert_eq!(
                reference, r,
                "seed {seed}: faulty run diverged at {shards} shards"
            );
        }
    }
}

/// Builds the formation scenario: quick-test scale with an adversary
/// share so both routing strategies are exercised.
fn formation_cfg(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        adversary_fraction: 0.2,
        ..ScenarioConfig::quick_test(seed)
    }
}

fn fresh_profiles(cfg: &ScenarioConfig) -> Vec<HistoryProfile> {
    (0..cfg.n_nodes)
        .map(|i| match cfg.history_capacity {
            Some(cap) => HistoryProfile::with_capacity(idpa_overlay::NodeId(i), cap),
            None => HistoryProfile::new(idpa_overlay::NodeId(i)),
        })
        .collect()
}

/// Asserts the arena holds exactly the records the flat profile vector
/// holds, for every `(node, bundle)` cell.
fn assert_same_records(
    arena: &HistoryArena,
    profiles: &[HistoryProfile],
    n_pairs: usize,
    label: &str,
) {
    for (i, profile) in profiles.iter().enumerate() {
        for p in 0..n_pairs {
            let bundle = BundleId(p as u64);
            assert_eq!(
                arena.records(idpa_overlay::NodeId(i), bundle),
                profile.bundle_records(bundle).to_vec(),
                "{label}: node {i} bundle {p} records diverged"
            );
        }
    }
}

#[test]
fn sharded_formation_matches_global_at_every_shard_thread_combo() {
    for seed in [11u64, 29] {
        let cfg = formation_cfg(seed);
        cfg.validate().expect("valid formation scenario");
        let world = World::generate(&cfg);

        let mut profiles = fresh_profiles(&cfg);
        let global = form_bundles_global(&world, &cfg, &mut profiles);

        for (shards, threads) in [(1usize, 1usize), (2, 1), (3, 2), (8, 4), (20, 8)] {
            let arena = HistoryArena::with_capacity(cfg.n_nodes, shards, cfg.history_capacity);
            let sharded = form_bundles_sharded(&world, &cfg, &arena, threads);
            assert_eq!(
                global, sharded,
                "seed {seed}: outcomes diverged at shards={shards} threads={threads}"
            );
            assert_same_records(
                &arena,
                &profiles,
                cfg.n_pairs,
                &format!("seed {seed} shards={shards} threads={threads}"),
            );
        }
    }
}

#[test]
fn sharded_formation_matches_global_with_bounded_history() {
    let cfg = ScenarioConfig {
        history_capacity: Some(3),
        ..formation_cfg(5)
    };
    cfg.validate().expect("valid bounded scenario");
    let world = World::generate(&cfg);

    let mut profiles = fresh_profiles(&cfg);
    let global = form_bundles_global(&world, &cfg, &mut profiles);

    let arena = HistoryArena::with_capacity(cfg.n_nodes, 8, cfg.history_capacity);
    let sharded = form_bundles_sharded(&world, &cfg, &arena, 4);
    assert_eq!(global, sharded, "bounded-history outcomes diverged");
    assert_same_records(&arena, &profiles, cfg.n_pairs, "bounded history");
}

/// Replaces the sampled workload with a deterministic Zipf profile: the
/// rank-`p` pair carries `⌈64/(p+1)⌉` transmissions, so a handful of head
/// pairs own most of the scheduled depth — the shape that starves workers
/// under the ungrouped locality split.
fn zipf_skew_workload(world: &mut World, cfg: &ScenarioConfig) {
    let span = cfg.churn.horizon - cfg.warmup;
    for (p, wl) in world.pairs.iter_mut().enumerate() {
        let count = (64 / (p + 1)).max(1);
        wl.times = (0..count)
            .map(|j| cfg.warmup + span * (j as f64 + 1.0) / (count as f64 + 1.0))
            .collect();
    }
}

#[test]
fn balanced_split_is_bit_identical_under_zipf_skew() {
    for seed in [13u64, 31] {
        let cfg = formation_cfg(seed);
        cfg.validate().expect("valid formation scenario");
        let mut world = World::generate(&cfg);
        zipf_skew_workload(&mut world, &cfg);

        let mut profiles = fresh_profiles(&cfg);
        let global = form_bundles_global(&world, &cfg, &mut profiles);

        for (shards, threads) in [(1usize, 1usize), (4, 2), (4, 8), (16, 2), (16, 8)] {
            // The production path: depth-balanced split.
            let arena = HistoryArena::with_capacity(cfg.n_nodes, shards, cfg.history_capacity);
            let balanced = form_bundles_sharded(&world, &cfg, &arena, threads);
            assert_eq!(
                global, balanced,
                "seed {seed}: balanced split diverged at shards={shards} threads={threads}"
            );
            assert_same_records(
                &arena,
                &profiles,
                cfg.n_pairs,
                &format!("zipf balanced seed {seed} shards={shards} threads={threads}"),
            );

            // The ungrouped locality split through the same executor —
            // grouping must be value-invisible.
            let arena2 = HistoryArena::with_capacity(cfg.n_nodes, shards, cfg.history_capacity);
            let items = partition_pairs(&world, &arena2);
            let ungrouped = form_bundles_items(&world, &cfg, &arena2, threads, &items);
            assert_eq!(
                global, ungrouped,
                "seed {seed}: ungrouped split diverged at shards={shards} threads={threads}"
            );
        }
    }
}

#[test]
fn balanced_partition_is_deterministic_and_balanced() {
    let cfg = formation_cfg(17);
    let mut world = World::generate(&cfg);
    zipf_skew_workload(&mut world, &cfg);
    let arena = HistoryArena::with_capacity(cfg.n_nodes, 4, cfg.history_capacity);

    let a = partition_pairs_balanced(&world, &arena, 4);
    let b = partition_pairs_balanced(&world, &arena, 4);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.pairs, y.pairs, "partition must be deterministic");
        assert_eq!(x.shards, y.shards);
    }

    // Every pair appears exactly once, item sizes differ by at most one
    // (the round-robin deal), and shard covers are sorted and deduped.
    let mut seen: Vec<usize> = a.iter().flat_map(|i| i.pairs.clone()).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..cfg.n_pairs).collect::<Vec<_>>());
    let sizes: Vec<usize> = a.iter().map(|i| i.pairs.len()).collect();
    let (min, max) = (sizes.iter().min(), sizes.iter().max());
    assert!(
        max.expect("nonempty") - min.expect("nonempty") <= 1,
        "sizes {sizes:?}"
    );
    for item in &a {
        assert!(item.shards.windows(2).all(|w| w[0] < w[1]));
    }

    // The deal is depth-aware: no single item may hold the whole depth
    // (which the locality split can under this Zipf workload).
    let depth = |item: &idpa_sim::FormationItem| -> usize {
        item.pairs.iter().map(|&p| world.pairs[p].times.len()).sum()
    };
    let total: usize = a.iter().map(depth).sum();
    let heaviest = a.iter().map(depth).max().expect("nonempty");
    assert!(
        heaviest < total,
        "one item holds the entire depth ({heaviest}/{total})"
    );
}

#[test]
fn formation_outcomes_are_nontrivial() {
    // Guard against the equality tests passing vacuously on empty output.
    let cfg = formation_cfg(11);
    let world = World::generate(&cfg);
    let mut profiles = fresh_profiles(&cfg);
    let formed = form_bundles_global(&world, &cfg, &mut profiles);
    assert_eq!(formed.len(), cfg.n_pairs);
    let total: usize = formed.iter().map(|f| f.outcomes.len()).sum();
    assert_eq!(total, cfg.total_transmissions);
    assert!(
        formed
            .iter()
            .flat_map(|f| &f.outcomes)
            .any(|o| !o.is_empty()),
        "some connection must recruit a forwarder"
    );
    let recorded: usize = profiles.iter().map(HistoryProfile::len).sum();
    assert!(recorded > 0, "formation must commit history records");
}
