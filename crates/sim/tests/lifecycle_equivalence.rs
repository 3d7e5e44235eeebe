//! The lazy node lifecycle's load-bearing property: per-node state that
//! materializes on first touch and is evicted when idle
//! (`evict_idle_ticks: Some(_)`) is **value-identical** to state that,
//! once touched, stays resident (`None`, the default). Materialization,
//! idle eviction, and re-materialization are all invisible in the results
//! — only the resident-state metrics (`peak_materialized_nodes`,
//! `node_evictions`, `slab_bytes`) differ, and those are zeroed before
//! comparison.
//!
//! The suite sweeps well over 256 cases (each case = one run compared
//! against a pinned fingerprint or a never-evicting reference run) and
//! asserts the count, so shrinking the sweep by accident fails loudly.

use idpa_desim::FaultConfig;
use idpa_sim::experiments::Options;
use idpa_sim::{FaultResponse, RunResult, ScenarioConfig};

mod common;
use common::{base, fingerprint, normalized, run, BASELINE};

#[test]
fn idle_eviction_is_value_identical_across_windows_and_threads() {
    let mut cases = 0usize;

    // Part 1 — fingerprint pins: every pinned (seed, replacement) config
    // run with idle eviction, across idle-eviction windows (1 tick =
    // maximal touch/evict/re-touch churn), reproduces the pinned
    // fingerprint exactly. 6 x 9 = 54 cases.
    for (seed, replacement, expect_fp, expect_avg) in BASELINE {
        for evict in [1u64, 2, 3, 4, 8, 16, 32, 64, 128] {
            let r = run(ScenarioConfig {
                evict_idle_ticks: Some(evict),
                ..base(seed, replacement)
            });
            assert_eq!(
                fingerprint(&r),
                expect_fp,
                "seed {seed} repl {replacement:?} evict {evict}: \
                 idle eviction drifted from the pinned baseline"
            );
            assert_eq!(r.avg_good_payoff.to_bits(), expect_avg);
            cases += 1;
        }
    }

    // Part 2 — active-fault equivalence: under live fault plans (crashes,
    // drops, cheaters — the paths that touch the reputation ledgers), an
    // evicting run's full RunResult equals the never-evicting reference
    // after normalizing the resident metrics, across eviction windows;
    // and replays identically.
    // 8 seeds x 3 replacements x 2 profiles x (4 + 1) = 240 cases.
    let profiles = [
        FaultConfig {
            crash_rate: 0.03,
            drop_rate: 0.08,
            delay_rate: 0.2,
            cheat_fraction: 0.25,
            ..FaultConfig::default()
        },
        FaultConfig {
            crash_rate: 0.06,
            drop_rate: 0.12,
            cheat_fraction: 0.4,
            cheat_corrupt_share: 0.8,
            response: FaultResponse::Adaptive,
            ..FaultConfig::default()
        },
    ];
    for seed in [1u64, 2, 3, 5, 7, 9, 11, 42] {
        for replacement in [None, Some(2), Some(3)] {
            for fault in profiles {
                let mut cfg = base(seed, replacement);
                cfg.fault = fault;
                if fault.response == FaultResponse::Adaptive {
                    cfg.weights = (0.4, 0.4);
                    cfg.reputation_weight = 0.2;
                }
                let kept = normalized(run(ScenarioConfig {
                    evict_idle_ticks: None,
                    ..cfg
                }));
                for evict in [1u64, 2, 4, 8] {
                    let evicting = run(ScenarioConfig {
                        evict_idle_ticks: Some(evict),
                        ..cfg
                    });
                    assert_eq!(
                        kept,
                        normalized(evicting),
                        "seed {seed} repl {replacement:?} evict {evict}: \
                         idle eviction diverged under faults"
                    );
                    cases += 1;
                }
                let replay = run(ScenarioConfig {
                    evict_idle_ticks: Some(1),
                    ..cfg
                });
                assert_eq!(
                    kept,
                    normalized(replay),
                    "seed {seed}: evicting replay diverged"
                );
                cases += 1;
            }
        }
    }

    // Part 3 — thread invariance: evicting replications are
    // byte-identical at any worker count. 8 reps x 2 = 16 cases.
    let replicated: Vec<Vec<RunResult>> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| {
            let opts = Options {
                reps: 8,
                quick: true,
                threads,
                scenario: ScenarioConfig {
                    fault: profiles[0],
                    evict_idle_ticks: Some(64),
                    ..ScenarioConfig::default()
                },
                ..Options::default()
            };
            idpa_sim::experiments::replicate_base(&opts)
        })
        .collect();
    for (rep, base) in replicated[0].iter().enumerate() {
        for other in [1, 2] {
            assert_eq!(
                base, &replicated[other][rep],
                "rep {rep}: evicting replication diverged across thread counts"
            );
            cases += 1;
        }
    }

    assert!(
        cases >= 256,
        "property sweep shrank to {cases} cases (< 256)"
    );
}

/// The machinery actually cycles: with a 1-tick idle window the run must
/// evict and re-materialize (guarding the identity above against a dead
/// eviction path), and the resident metrics must be populated.
#[test]
fn lazy_lifecycle_actually_evicts_and_rematerializes() {
    let r = run(ScenarioConfig {
        evict_idle_ticks: Some(1),
        ..base(7, Some(3))
    });
    assert!(r.node_evictions > 0, "no evictions with a 1-tick window");
    assert!(r.peak_materialized_nodes > 0);
    assert!(r.slab_bytes > 0);
}

/// The default never evicts: the resident metrics count the nodes the run
/// touched, at most N, and no sweep ever runs.
#[test]
fn default_run_never_evicts() {
    let cfg = ScenarioConfig::quick_test(7);
    assert_eq!(cfg.evict_idle_ticks, None);
    let r = run(cfg);
    assert_eq!(r.node_evictions, 0, "the default must not evict");
    assert!(r.peak_materialized_nodes > 0);
    assert!(r.peak_materialized_nodes <= cfg.n_nodes);
    assert!(r.slab_bytes > 0);
}

/// At scale the resident set is bounded by active traffic, not N: the
/// scale scenario's fixed 512-pair workload touches a saturating set of
/// nodes (~3k: initiators, responders, forwarders and their probed
/// neighbors), so at N = 20,000 peak residency stays far below N — the
/// same absolute working set the `node_lifecycle` bench bounds at N = 10⁶.
#[test]
fn scale_run_keeps_residency_below_node_count() {
    let r = run(ScenarioConfig::scale(20_000, 5));
    assert!(
        r.peak_materialized_nodes < 20_000 / 4,
        "peak residency {} is not O(active) at N=20000",
        r.peak_materialized_nodes
    );
    assert!(r.node_evictions > 0, "idle sweeps must run at scale");
    assert!(r.connections > 0, "scale run formed no connections");
}
