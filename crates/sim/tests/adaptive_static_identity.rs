//! The adaptive layer's load-bearing compatibility property: with
//! `reputation_weight = 0` and `--fault-response static` (both defaults),
//! a build that *contains* the adaptive fault-response machinery —
//! per-initiator reputation ledgers, probe invalidation, the `w_r` quality
//! term, escalated reformation — produces `RunResult`s **byte-identical**
//! to the pre-adaptive build, across history-shard counts and worker
//! thread counts.
//!
//! The suite sweeps well over 256 cases (each case = one run compared
//! against a pinned fingerprint or a reference run) and asserts the count,
//! so shrinking the sweep by accident fails loudly.

use idpa_desim::FaultConfig;
use idpa_sim::experiments::Options;
use idpa_sim::{FaultResponse, RunResult, ScenarioConfig, SimulationRun};

/// FNV-1a over the pre-fault-layer result fields (bit patterns) — the
/// same fingerprint `tests/fault_injection.rs` pins, duplicated so this
/// suite stands alone.
fn fingerprint(r: &RunResult) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for v in r
        .good_payoffs
        .iter()
        .chain(&r.malicious_payoffs)
        .chain(&r.node_totals)
        .chain([
            &r.avg_good_payoff,
            &r.avg_forwarder_set,
            &r.avg_path_length,
            &r.avg_path_quality,
            &r.routing_efficiency,
            &r.new_edge_fraction,
            &r.reformation_rate,
            &r.attack_exposure_rate,
            &r.avg_anonymity_degree,
        ])
    {
        eat(v.to_bits());
    }
    eat(r.connections);
    h
}

/// The base scenario of the pinned baselines, with the static response and
/// zero reputation weight spelled out (they are the defaults — the point
/// of this suite is that the spelled-out form is the old build).
fn static_base(seed: u64, replacement: Option<u64>) -> ScenarioConfig {
    let mut cfg = ScenarioConfig {
        neighbor_replacement_rounds: replacement,
        adversary_fraction: 0.2,
        reputation_weight: 0.0,
        ..ScenarioConfig::quick_test(seed)
    };
    cfg.fault.response = FaultResponse::Static;
    cfg
}

fn run(cfg: ScenarioConfig) -> RunResult {
    cfg.validate().expect("scenario must be valid");
    SimulationRun::execute(cfg)
}

/// `(seed, replacement, fingerprint, avg_good_payoff bits)` — the PR 4
/// pins, identical constants to `tests/fault_injection.rs`.
const BASELINE: [(u64, Option<u64>, u64, u64); 6] = [
    (1, None, 0xd51afc10a8e3c367, 0x40730bffb79ce582),
    (1, Some(3), 0x172c5eda5998b960, 0x406d05c4bfa7690d),
    (7, None, 0xb68cfd87107b7817, 0x4071c00b9e48bb2a),
    (7, Some(3), 0x604446ccd329adb4, 0x406ddf312fe95040),
    (42, None, 0x8e362e89db0da04a, 0x4074a18aa74a4ec1),
    (42, Some(3), 0x4a5899e5e47b947e, 0x4072fbb62ff024b6),
];

#[test]
fn static_zero_weight_is_byte_identical_to_pr4_across_modes_shards_threads() {
    let mut cases = 0usize;

    // Part 1 — fingerprint pins: every pinned (seed, replacement) config,
    // at three shard counts, reproduces its pinned fingerprint exactly.
    // 6 x 3 = 18 cases.
    for (seed, replacement, expect_fp, expect_avg) in BASELINE {
        for shards in [1usize, 4, 16] {
            let r = run(ScenarioConfig {
                history_shards: shards,
                ..static_base(seed, replacement)
            });
            assert_eq!(
                fingerprint(&r),
                expect_fp,
                "seed {seed} repl {replacement:?} shards {shards}: \
                 adaptive build drifted from the pinned baseline"
            );
            assert_eq!(r.avg_good_payoff.to_bits(), expect_avg);
            cases += 1;
        }
    }

    // Part 2 — active-fault invariance: under live fault plans (where the
    // adaptive machinery *would* act if enabled), static + w_r = 0 runs
    // are byte-identical across shard counts, and replay identically. 8 seeds x 3 replacements x 2 fault profiles
    // x (4 comparisons + 1 replay) = 240 cases.
    let profiles = [
        FaultConfig {
            crash_rate: 0.03,
            drop_rate: 0.08,
            delay_rate: 0.2,
            cheat_fraction: 0.25,
            response: FaultResponse::Static,
            ..FaultConfig::default()
        },
        FaultConfig {
            crash_rate: 0.06,
            drop_rate: 0.12,
            cheat_fraction: 0.4,
            cheat_corrupt_share: 0.8,
            response: FaultResponse::Static,
            ..FaultConfig::default()
        },
    ];
    for seed in [1u64, 2, 3, 5, 7, 9, 11, 42] {
        for replacement in [None, Some(2), Some(3)] {
            for fault in profiles {
                let mut cfg = static_base(seed, replacement);
                cfg.fault = fault;
                let reference = run(ScenarioConfig {
                    history_shards: 1,
                    ..cfg
                });
                for shards in [2usize, 4, 16, 20] {
                    let r = run(ScenarioConfig {
                        history_shards: shards,
                        ..cfg
                    });
                    assert_eq!(
                        reference, r,
                        "seed {seed} repl {replacement:?} shards {shards}: \
                         static faulty run diverged"
                    );
                    cases += 1;
                }
                let replay = run(ScenarioConfig {
                    history_shards: 1,
                    ..cfg
                });
                assert_eq!(reference, replay, "seed {seed}: replay diverged");
                cases += 1;
            }
        }
    }

    // Part 3 — thread invariance: replicated static faulty runs are
    // byte-identical at any worker count. 8 reps x 2 comparisons = 16
    // cases.
    let replicated: Vec<Vec<RunResult>> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| {
            let opts = Options {
                reps: 8,
                quick: true,
                threads,
                scenario: ScenarioConfig {
                    fault: profiles[0],
                    reputation_weight: 0.0,
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
                "rep {rep}: static faulty replication diverged across thread counts"
            );
            cases += 1;
        }
    }

    assert!(
        cases >= 256,
        "property sweep shrank to {cases} cases (< 256)"
    );
}

/// The flip side: the machinery exists and does something. With the same
/// fault plan, turning on the adaptive response (with a positive `w_r`)
/// changes the run — this guards against the identity above passing
/// because the adaptive path is dead code.
#[test]
fn adaptive_mode_actually_diverges_from_static_under_faults() {
    let fault = FaultConfig {
        crash_rate: 0.05,
        drop_rate: 0.1,
        cheat_fraction: 0.25,
        ..FaultConfig::default()
    };
    let mut static_cfg = static_base(7, Some(3));
    static_cfg.fault = fault;
    let mut adaptive_cfg = static_cfg;
    adaptive_cfg.fault.response = FaultResponse::Adaptive;
    adaptive_cfg.weights = (0.4, 0.4);
    adaptive_cfg.reputation_weight = 0.2;
    let s = run(static_cfg);
    let a = run(adaptive_cfg);
    assert_ne!(s, a, "adaptive response must change a faulty run");
}
