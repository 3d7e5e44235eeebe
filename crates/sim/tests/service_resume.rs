//! Service-mode checkpoint/resume equivalence: **interrupt anywhere,
//! resume, and the completed run is indistinguishable from an
//! uninterrupted one** — across idle-eviction windows, settlement modes,
//! workloads, shard counts and live fault plans. Plus the two
//! backstops that pin service mode to the pre-service codebase: the PR 4
//! fingerprint baselines reproduce through `run_service`, and a closed
//! workload without service flags is byte-identical to
//! [`SimulationRun::execute`].
//!
//! The sweep tops 256 cases and asserts the count, so it can't silently
//! shrink.

use idpa_desim::{Engine, FaultConfig, FaultResponse, SimTime};
use idpa_sim::experiments::Options;
use idpa_sim::snapshot::{encode, restore};
use idpa_sim::{
    run_service, RunResult, ScenarioConfig, ServiceOptions, SettlementMode, SimulationRun,
    WorkloadMode, World,
};

/// FNV-1a over the pre-fault-layer result fields — the same fingerprint
/// `tests/fault_injection.rs` and `tests/lifecycle_equivalence.rs` pin,
/// duplicated so this suite stands alone.
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

fn base(seed: u64, replacement: Option<u64>) -> ScenarioConfig {
    ScenarioConfig {
        neighbor_replacement_rounds: replacement,
        adversary_fraction: 0.2,
        ..ScenarioConfig::quick_test(seed)
    }
}

/// The two live fault plans of the lifecycle suite: one static, one
/// adaptive with receipt corruption.
fn profiles() -> [FaultConfig; 2] {
    [
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
    ]
}

/// Interrupts `cfg` after `budget` events, snapshots, restores, runs the
/// rest, and checks the final result equals the uninterrupted run's.
fn interrupt_resume_matches(cfg: &ScenarioConfig, budget: u64, baseline: &RunResult) {
    let horizon = SimTime::new(cfg.churn.horizon);
    let world = World::generate(cfg);
    let mut run = SimulationRun::new(*cfg, world);
    let mut engine = Engine::new();
    run.schedule_all(&mut engine);
    engine.set_event_budget(budget);
    // Most budgets interrupt mid-run (the interesting case); a few short
    // configs exhaust the calendar first, which snapshots the end state —
    // still a valid resume point, so no assertion on the stop reason.
    engine.run(&mut run, Some(horizon));

    let bytes = encode(&run, &engine);
    drop((run, engine));
    let (mut resumed, mut engine) = restore(cfg, &bytes).expect("restore must succeed");
    engine.run(&mut resumed, Some(horizon));
    assert_eq!(
        baseline,
        &resumed.finish(),
        "resume diverged (budget {budget})"
    );
}

#[test]
fn interrupt_and_resume_reproduces_uninterrupted_runs_across_the_matrix() {
    let mut cases = 0usize;

    // Part 1 — the full mode matrix, library-level: 3 seeds x 3
    // idle-eviction windows x 2 settlements x 2 fault profiles x 3 shard
    // counts x 2 workloads = 216 cases, each at a distinct interrupt
    // point (the budget walks with the case index).
    for seed in [1u64, 7, 42] {
        for evict in [None, Some(1), Some(4)] {
            for settlement in [SettlementMode::PerBundle, SettlementMode::Epoch] {
                for fault in profiles() {
                    for shards in [1usize, 4, 16] {
                        for workload in [WorkloadMode::Closed, WorkloadMode::Open] {
                            let mut cfg = base(seed, Some(3));
                            cfg.evict_idle_ticks = evict;
                            cfg.settlement = settlement;
                            cfg.fault = fault;
                            if fault.response == FaultResponse::Adaptive {
                                cfg.weights = (0.4, 0.4);
                                cfg.reputation_weight = 0.2;
                            }
                            cfg.history_shards = shards;
                            cfg.workload = workload;
                            if workload == WorkloadMode::Open {
                                cfg.open_arrival_rate = 0.02;
                                cfg.window_len = cfg.churn.horizon / 8.0;
                                cfg.window_warmup = cfg.churn.horizon / 8.0;
                            }
                            cfg.validate().expect("matrix scenario must be valid");

                            let baseline = SimulationRun::execute(cfg);
                            let budget = 50 + (cases as u64 * 37) % 400;
                            interrupt_resume_matches(&cfg, budget, &baseline);
                            cases += 1;
                        }
                    }
                }
            }
        }
    }

    // Part 2 — PR 4 fingerprint pins through the service runner: a closed
    // workload with no service flags reproduces the pinned baselines AND
    // equals `execute` byte for byte. 6 pins x 3 shard counts = 18 cases.
    for (seed, replacement, expect_fp, expect_avg) in BASELINE {
        for shards in [1usize, 4, 16] {
            let cfg = ScenarioConfig {
                history_shards: shards,
                ..base(seed, replacement)
            };
            let direct = SimulationRun::execute(cfg);
            let service = run_service(cfg, &ServiceOptions::default()).expect("service run");
            assert_eq!(direct, service, "service mode must not perturb runs");
            assert_eq!(
                fingerprint(&service),
                expect_fp,
                "seed {seed} repl {replacement:?}: service run drifted from the PR 4 baseline"
            );
            assert_eq!(service.avg_good_payoff.to_bits(), expect_avg);
            assert!(!service.interrupted);
            cases += 1;
        }
    }

    // Part 3 — on-disk checkpoint cycle through `run_service`: checkpoint
    // periodically, resume the last checkpoint, same result. Covers the
    // open workload with windowed metrics and epoch settlement. 8 cases.
    let dir = std::env::temp_dir().join("idpa-service-resume-suite");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (i, seed) in [3u64, 5, 11, 13].iter().enumerate() {
        for open in [false, true] {
            let mut cfg = base(*seed, Some(3));
            cfg.fault = profiles()[i % 2];
            if cfg.fault.response == FaultResponse::Adaptive {
                cfg.weights = (0.4, 0.4);
                cfg.reputation_weight = 0.2;
            }
            cfg.settlement = if open {
                SettlementMode::Epoch
            } else {
                SettlementMode::PerBundle
            };
            if open {
                cfg.workload = WorkloadMode::Open;
                cfg.open_arrival_rate = 0.03;
                cfg.window_len = cfg.churn.horizon / 6.0;
                cfg.window_warmup = 0.0;
            }
            let path = dir.join(format!("case-{seed}-{open}.snap"));
            let baseline = SimulationRun::execute(cfg);
            let ckpt = run_service(
                cfg,
                &ServiceOptions {
                    snapshot_every: Some(cfg.churn.horizon / 5.0),
                    snapshot_path: Some(path.clone()),
                    ..ServiceOptions::default()
                },
            )
            .expect("checkpointing run");
            assert_eq!(baseline, ckpt, "checkpointing must not perturb the run");
            let resumed = run_service(
                cfg,
                &ServiceOptions {
                    resume: Some(path.clone()),
                    ..ServiceOptions::default()
                },
            )
            .expect("resumed run");
            assert_eq!(baseline, resumed, "resumed run diverged");
            std::fs::remove_file(&path).ok();
            cases += 1;
        }
    }

    // Part 4 — thread invariance: replicated service-equivalent runs are
    // byte-identical at any worker count (the service path itself is
    // sequential; replication is where threads enter). 8 reps x 2 = 16
    // cases.
    let replicated: Vec<Vec<RunResult>> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| {
            let opts = Options {
                reps: 8,
                quick: true,
                threads,
                scenario: ScenarioConfig {
                    fault: profiles()[0],
                    ..ScenarioConfig::default()
                },
                ..Options::default()
            };
            idpa_sim::experiments::replicate_base(&opts)
        })
        .collect();
    for (rep, first) in replicated[0].iter().enumerate() {
        for other in [1, 2] {
            assert_eq!(
                first, &replicated[other][rep],
                "rep {rep}: replication diverged across thread counts"
            );
            cases += 1;
        }
    }

    assert!(cases >= 256, "equivalence sweep shrank to {cases} cases");
}

/// Graceful shutdown end to end: a zero wall budget interrupts
/// immediately, writes a resumable checkpoint, and reports partial
/// aggregates with `interrupted = true`; resuming completes to the exact
/// uninterrupted result.
#[test]
fn graceful_shutdown_checkpoints_and_resumes() {
    let dir = std::env::temp_dir().join("idpa-service-shutdown-suite");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("shutdown.snap");
    let mut cfg = base(7, Some(3));
    cfg.fault = profiles()[1];
    cfg.weights = (0.4, 0.4);
    cfg.reputation_weight = 0.2;

    let partial = run_service(
        cfg,
        &ServiceOptions {
            snapshot_path: Some(path.clone()),
            max_wall_secs: Some(0),
            ..ServiceOptions::default()
        },
    )
    .expect("interrupted run");
    assert!(partial.interrupted);

    let resumed = run_service(
        cfg,
        &ServiceOptions {
            resume: Some(path.clone()),
            ..ServiceOptions::default()
        },
    )
    .expect("resume");
    assert!(!resumed.interrupted);
    assert_eq!(SimulationRun::execute(cfg), resumed);
    std::fs::remove_file(&path).ok();
}
