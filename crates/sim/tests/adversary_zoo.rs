//! Integration pins for the deterministic adversary-strategy layer.
//!
//! The load-bearing guarantees:
//!
//! 1. **Zero-rate byte-identicality** — with every adversary rate zero, the
//!    plan is never constructed, no adversary RNG stream is consumed, and a
//!    run is bit-identical to the pre-adversary-layer build. The PR 4
//!    fingerprint constants below were captured before the fault layer
//!    landed and have survived every layer since; they must keep
//!    reproducing across idle-eviction windows and shard counts.
//! 2. **Whitewash rejoin properties** — a rejoin archives the shed
//!    identity's evidence (it is never destroyed) and the fresh identity's
//!    ledger starts clean; the archives survive snapshot/resume
//!    bit-identically at arbitrary interrupt points, composing with the
//!    full service-mode matrix (≥ 256 cases, count asserted).
//! 3. **Clique detection** — at paper scale the cross-confirmation check
//!    flags at least 90% of phantom-forwarding payouts; without it every
//!    phantom is paid.

use idpa_desim::{AdversaryConfig, Engine, FaultConfig, FaultResponse, SimTime};
use idpa_sim::snapshot::{encode, restore};
use idpa_sim::{RunResult, ScenarioConfig, SettlementMode, SimulationRun, World};

/// FNV-1a over the pre-fault-layer result fields — the same fingerprint
/// `tests/fault_injection.rs` and `tests/service_resume.rs` pin, duplicated
/// so this suite stands alone.
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

fn run(cfg: ScenarioConfig) -> RunResult {
    cfg.validate().expect("scenario must be valid");
    SimulationRun::execute(cfg)
}

/// An explicitly all-zero adversary config — spelled out field by field so
/// a future default-value change can't silently weaken the zero-rate pin.
fn zero_rates() -> AdversaryConfig {
    AdversaryConfig {
        free_rider_fraction: 0.0,
        whitewash_fraction: 0.0,
        clique_count: 0,
        clique_forge_rate: 0.0,
        ..AdversaryConfig::default()
    }
}

#[test]
fn zero_rate_adversary_runs_reproduce_the_pr4_pins() {
    for (seed, replacement, expect_fp, expect_avg) in BASELINE {
        for evict in [None, Some(2)] {
            for shards in [1usize, 4, 16] {
                let r = run(ScenarioConfig {
                    evict_idle_ticks: evict,
                    history_shards: shards,
                    adversary: zero_rates(),
                    ..base(seed, replacement)
                });
                assert_eq!(
                    fingerprint(&r),
                    expect_fp,
                    "seed {seed} repl {replacement:?} evict {evict:?} shards {shards}: \
                     zero-rate adversary drifted from the pinned baseline"
                );
                assert_eq!(r.avg_good_payoff.to_bits(), expect_avg);
                // The adversary surface reports a clean run.
                assert!(r.free_riders.is_empty());
                assert_eq!(r.free_rider_refusals, 0);
                assert_eq!(r.free_rider_payoff, 0.0);
                assert_eq!(r.whitewash_events, 0);
                assert_eq!(r.reputation_evasion_rate, 0.0);
                assert_eq!(r.clique_phantom_instances, 0);
                assert_eq!(r.clique_phantom_flagged, 0);
                assert_eq!(r.clique_payout_leakage, 0.0);
            }
        }
    }
}

/// Interrupts `cfg` after `budget` events, snapshots, restores, runs the
/// rest, and checks the final result equals the uninterrupted run's —
/// including every adversary metric (RunResult implements `PartialEq`).
fn interrupt_resume_matches(cfg: &ScenarioConfig, budget: u64, baseline: &RunResult) {
    let horizon = SimTime::new(cfg.churn.horizon);
    let world = World::generate(cfg);
    let mut sim = SimulationRun::new(*cfg, world);
    let mut engine = Engine::new();
    sim.schedule_all(&mut engine);
    engine.set_event_budget(budget);
    engine.run(&mut sim, Some(horizon));

    let bytes = encode(&sim, &engine);
    drop((sim, engine));
    let (mut resumed, mut engine) = restore(cfg, &bytes).expect("restore must succeed");
    engine.run(&mut resumed, Some(horizon));
    assert_eq!(
        baseline,
        &resumed.finish(),
        "resume diverged (budget {budget})"
    );
}

/// The whitewash rejoin property suite: across the mode matrix, a run with
/// live whitewashers (and the background drop faults that give their shed
/// ledgers something to escape) is deterministic, fires its rejoin
/// schedule, and survives snapshot/resume at arbitrary interrupt points
/// bit-identically — the archived evidence of every evicted identity
/// included, since any archive drift would desynchronize the resumed
/// suppression decisions and fail the result equality.
#[test]
fn whitewash_rejoins_survive_snapshot_resume_across_the_matrix() {
    let mut cases = 0usize;
    for seed in [1u64, 7, 42, 1337] {
        for evict in [None, Some(1), Some(4)] {
            for settlement in [SettlementMode::PerBundle, SettlementMode::Epoch] {
                for shards in [1usize, 4, 16] {
                    for discount in [false, true] {
                        for (fraction, interval) in [(0.3, 120.0), (0.6, 60.0)] {
                            let mut cfg = base(seed, Some(3));
                            cfg.evict_idle_ticks = evict;
                            cfg.settlement = settlement;
                            cfg.history_shards = shards;
                            cfg.adversary = AdversaryConfig {
                                whitewash_fraction: fraction,
                                whitewash_interval: interval,
                                whitewash_age_discount: discount,
                                reputation_maturity: 90.0,
                                ..AdversaryConfig::default()
                            };
                            cfg.fault = FaultConfig {
                                drop_rate: 0.15,
                                response: FaultResponse::Adaptive,
                                ..FaultConfig::default()
                            };
                            cfg.weights = (0.3, 0.3);
                            cfg.reputation_weight = 0.4;
                            cfg.validate().expect("whitewash scenario must be valid");

                            let baseline = SimulationRun::execute(cfg);
                            assert!(
                                baseline.whitewash_events > 0,
                                "seed {seed} fraction {fraction}: rejoin schedule never fired"
                            );
                            // Determinism: re-execution is bit-identical.
                            assert_eq!(baseline, SimulationRun::execute(cfg));
                            // Crash anywhere, resume, same result — archives
                            // and counters included.
                            let budget = 40 + (cases as u64 * 53) % 500;
                            interrupt_resume_matches(&cfg, budget, &baseline);
                            cases += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(cases >= 256, "whitewash property suite shrank to {cases}");
}

/// Free riders earn zero forwarding payoff (Prop. 2's economics) while
/// compliant nodes keep earning, and the adaptive response recovers the
/// delivery the ghosts cost.
#[test]
fn free_riders_earn_nothing_and_the_adaptive_response_routes_around_them() {
    let mut deliveries = [0.0f64; 2];
    for (i, response) in [FaultResponse::Static, FaultResponse::Adaptive]
        .into_iter()
        .enumerate()
    {
        let cfg = ScenarioConfig {
            adversary: AdversaryConfig {
                free_rider_fraction: 0.25,
                ..AdversaryConfig::default()
            },
            fault: FaultConfig {
                response,
                ..FaultConfig::default()
            },
            ..base(7, Some(3))
        };
        let r = run(cfg);
        assert!(!r.free_riders.is_empty());
        assert!(r.free_rider_refusals > 0, "ghosting must actually occur");
        assert_eq!(
            r.free_rider_payoff, 0.0,
            "a node that never forwards never earns forwarding payoff"
        );
        assert!(r.compliant_payoff > 0.0);
        deliveries[i] = r.delivery_ratio;
    }
    assert!(
        deliveries[1] >= deliveries[0],
        "adaptive must not deliver less than static under free riding \
         (static {}, adaptive {})",
        deliveries[0],
        deliveries[1]
    );
}

/// The acceptance bar at paper scale (N = 40, 100 pairs, 2000
/// transmissions): the cross-confirmation check flags at least 90% of
/// phantom-forwarding payouts; without it, every phantom is paid in full.
#[test]
fn clique_cross_check_flags_at_least_90_percent_of_phantoms_at_paper_scale() {
    for (cross_check, seed) in [(false, 11u64), (true, 11), (true, 23)] {
        let cfg = ScenarioConfig {
            seed,
            adversary: AdversaryConfig {
                clique_count: 3,
                clique_size: 4,
                clique_forge_rate: 1.0,
                clique_cross_check: cross_check,
                ..ScenarioConfig::default().adversary
            },
            ..ScenarioConfig::default()
        };
        let r = run(cfg);
        assert!(
            r.clique_phantom_instances > 0,
            "seed {seed}: the forgery never fired at paper scale"
        );
        if cross_check {
            assert!(
                r.clique_phantom_flagged as f64 >= 0.9 * r.clique_phantom_instances as f64,
                "seed {seed}: cross-check flagged only {}/{} phantoms",
                r.clique_phantom_flagged,
                r.clique_phantom_instances
            );
            assert!(r.clique_payout_leakage <= 0.1);
        } else {
            assert_eq!(
                r.clique_phantom_flagged, 0,
                "without the cross-check no phantom is flagged"
            );
            assert_eq!(r.clique_payout_leakage, 1.0);
        }
    }
}

/// Adversary runs replicate bit-identically — the plan is a pure function
/// of the seeded streams, never of wall clock or iteration order — and the
/// dense and sparse reputation stores agree under whitewashing.
#[test]
fn adversary_runs_are_deterministic_and_lifecycle_invariant() {
    let mut cfg = base(42, Some(3));
    cfg.adversary = AdversaryConfig {
        free_rider_fraction: 0.15,
        whitewash_fraction: 0.2,
        whitewash_interval: 120.0,
        clique_count: 2,
        clique_size: 3,
        clique_forge_rate: 0.5,
        clique_cross_check: true,
        ..AdversaryConfig::default()
    };
    cfg.fault = FaultConfig {
        drop_rate: 0.1,
        response: FaultResponse::Adaptive,
        ..FaultConfig::default()
    };
    cfg.weights = (0.4, 0.4);
    cfg.reputation_weight = 0.2;
    cfg.validate().expect("compound scenario must be valid");
    let kept = SimulationRun::execute(cfg);
    assert_eq!(kept, SimulationRun::execute(cfg), "re-execution diverged");

    let evicting = SimulationRun::execute(ScenarioConfig {
        evict_idle_ticks: Some(2),
        ..cfg
    });
    assert_eq!(
        kept.good_payoffs, evicting.good_payoffs,
        "idle eviction changed adversary economics"
    );
    assert_eq!(kept.whitewash_events, evicting.whitewash_events);
    assert_eq!(
        kept.reputation_evasion_rate,
        evicting.reputation_evasion_rate
    );
    assert_eq!(kept.free_rider_refusals, evicting.free_rider_refusals);
    assert_eq!(
        kept.clique_phantom_instances,
        evicting.clique_phantom_instances
    );
    assert_eq!(kept.clique_phantom_flagged, evicting.clique_phantom_flagged);
}
