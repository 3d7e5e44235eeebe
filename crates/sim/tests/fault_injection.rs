//! Integration pins for the deterministic fault-injection layer.
//!
//! The load-bearing guarantees:
//!
//! 1. **Zero-fault bit-identicality** — with every fault rate zero, a run is
//!    bit-identical to the fault-free code path: it reproduces the pinned
//!    fingerprints of `common::BASELINE` over the original result fields,
//!    so any drift in the formation/commit path shows up here as a changed
//!    constant.
//! 2. **Determinism under faults** — fault draws are pure functions of the
//!    `(pair, connection, attempt)` position, so faulty runs replicate
//!    bit-identically across idle-eviction windows and repeated
//!    executions, and degradation responds monotonically to the injected
//!    rates.
//! 3. **The adaptive response pays** — under the same faults it delivers
//!    no less than the static protocol, and its in-run cheater feedback
//!    cuts the payment that corrupting cheaters destroy.

use idpa_core::{RoutingStrategy, UtilityModel};
use idpa_desim::FaultConfig;
use idpa_sim::{FaultResponse, RunResult, ScenarioConfig};

mod common;
use common::{base, fingerprint, run, BASELINE};

#[test]
fn zero_fault_runs_are_bit_identical_to_the_pre_fault_baseline() {
    for (seed, replacement, expect_fp, expect_avg) in BASELINE {
        let r = run(base(seed, replacement));
        assert_eq!(
            fingerprint(&r),
            expect_fp,
            "seed {seed} repl {replacement:?}: drifted from the pinned baseline"
        );
        assert_eq!(r.avg_good_payoff.to_bits(), expect_avg);
        assert_eq!(r.connections, 200);
        // The fault surface reports a clean run.
        assert_eq!(r.delivery_ratio, 1.0);
        assert_eq!(r.retries_per_message, 0.0);
        assert_eq!(r.payment_shortfall, 0.0);
        assert_eq!(r.settlement_delay, 0.0);
        assert!(r.flagged_cheaters.is_empty());
        assert!(r.injected_cheaters.is_empty());
        assert_eq!(r.audit_discrepancies, 0);
    }
}

#[test]
fn delivery_ratio_degrades_monotonically_in_drop_rate() {
    let ratios: Vec<f64> = [0.0, 0.05, 0.1, 0.2, 0.4]
        .into_iter()
        .map(|drop_rate| {
            let mut cfg = base(1, None);
            cfg.fault = FaultConfig {
                drop_rate,
                ..FaultConfig::default()
            };
            run(cfg).delivery_ratio
        })
        .collect();
    assert_eq!(ratios[0], 1.0, "zero drop rate loses nothing");
    for w in ratios.windows(2) {
        assert!(
            w[1] <= w[0],
            "delivery ratio must not improve with more drops: {ratios:?}"
        );
    }
    assert!(
        ratios[ratios.len() - 1] < 1.0,
        "a 40% drop rate must lose messages: {ratios:?}"
    );
}

#[test]
fn faulty_runs_are_deterministic_and_eviction_invariant() {
    let fault = FaultConfig {
        crash_rate: 0.03,
        drop_rate: 0.08,
        delay_rate: 0.2,
        cheat_fraction: 0.25,
        ..FaultConfig::default()
    };
    for seed in [1u64, 7] {
        for replacement in [None, Some(3)] {
            let mut cfg = base(seed, replacement);
            cfg.fault = fault;
            let kept = run(cfg);
            let mut evicting = run(ScenarioConfig {
                evict_idle_ticks: Some(1),
                ..cfg
            });
            assert!(evicting.node_evictions > 0, "seed {seed}: nothing evicted");
            // Eviction may move only the resident-state metrics.
            evicting.peak_materialized_nodes = kept.peak_materialized_nodes;
            evicting.node_evictions = kept.node_evictions;
            evicting.slab_bytes = kept.slab_bytes;
            assert_eq!(
                kept, evicting,
                "seed {seed} repl {replacement:?}: eviction changed a faulty run"
            );
            assert_eq!(kept, run(cfg), "faulty run must replicate bit-identically");
        }
    }
}

#[test]
fn retries_recover_most_drops_and_are_bounded() {
    let mut cfg = base(3, None);
    cfg.fault = FaultConfig {
        drop_rate: 0.15,
        delay_rate: 0.3,
        ..FaultConfig::default()
    };
    let r = run(cfg);
    assert!(r.retries_per_message > 0.0, "drops must trigger retries");
    assert!(
        r.retries_per_message <= f64::from(cfg.fault.max_retries),
        "retries are bounded per message"
    );
    assert!(
        r.reformation_latency > 0.0,
        "retried deliveries pay reformation latency"
    );
    // Bounded retries recover most losses at this rate.
    assert!(
        r.delivery_ratio > 0.9,
        "delivery ratio {} too low for retry recovery",
        r.delivery_ratio
    );
    assert!(r.delivery_ratio < 1.0 || r.connections == 200);
}

#[test]
fn corrupting_cheaters_are_flagged_and_shortfall_is_audited() {
    let mut cfg = base(3, None);
    cfg.fault = FaultConfig {
        cheat_fraction: 0.35,
        cheat_corrupt_share: 1.0, // corrupt-only: every cheat leaves evidence
        ..FaultConfig::default()
    };
    let r = run(cfg);
    assert!(
        !r.injected_cheaters.is_empty(),
        "a 35% cheat fraction over 20 nodes must inject cheaters"
    );
    // Accumulated over the run's bundles, reconstructed-path validation
    // flags every injected cheater — and never an honest forwarder. (A
    // cheater masked by an upstream cheater on one connection is exposed on
    // any connection where it is the most-upstream corrupter; at this seed
    // every cheater acts unmasked at least once.)
    assert_eq!(
        r.flagged_cheaters, r.injected_cheaters,
        "validation must flag exactly the injected cheater set"
    );
    assert!(r.payment_shortfall > 0.0, "corruption destroys payment");
    assert!(
        r.audit_discrepancies > 0,
        "shortfall must reach the audit log"
    );
    // Corruption never blocks delivery — only confirmation drops do.
    assert_eq!(r.delivery_ratio, 1.0);
}

#[test]
fn bank_outages_delay_settlement_without_touching_routing() {
    let mut with_outages = base(4, None);
    with_outages.fault = FaultConfig {
        bank_downtime: 0.3,
        ..FaultConfig::default()
    };
    let faulty = run(with_outages);
    let clean = run(base(4, None));
    assert!(
        faulty.settlement_delay > 0.0,
        "a 30% bank downtime must delay some settlements"
    );
    // Bank unavailability is orthogonal to the forwarding layer.
    assert_eq!(faulty.delivery_ratio, 1.0);
    assert_eq!(faulty.connections, clean.connections);
    assert_eq!(faulty.avg_good_payoff, clean.avg_good_payoff);
}

/// An inactive fault plan reports a perfectly clean run under every
/// routing strategy, not only the Model I runs the pins above cover.
#[test]
fn zero_fault_runs_are_clean_under_every_routing_strategy() {
    for strategy in [
        RoutingStrategy::Random,
        RoutingStrategy::Utility(UtilityModel::ModelI),
        RoutingStrategy::Utility(UtilityModel::ModelII { lookahead: 2 }),
    ] {
        let r = run(ScenarioConfig {
            good_strategy: strategy,
            ..base(11, None)
        });
        assert_eq!(r.delivery_ratio, 1.0, "{strategy:?}");
        assert_eq!(r.retries_per_message, 0.0, "{strategy:?}");
        assert!(r.flagged_cheaters.is_empty(), "{strategy:?}");
    }
}

/// `cfg` under the static protocol and under the adaptive response —
/// reputation suppression, in-run cheater feedback, probe invalidation,
/// escalated reformation — at `w_r = 0.2`.
fn static_and_adaptive(cfg: ScenarioConfig) -> [RunResult; 2] {
    [(FaultResponse::Static, 0.0), (FaultResponse::Adaptive, 0.2)].map(|(response, wr)| {
        run(ScenarioConfig {
            fault: FaultConfig {
                response,
                ..cfg.fault
            },
            weights: ((1.0 - wr) / 2.0, (1.0 - wr) / 2.0),
            reputation_weight: wr,
            ..cfg
        })
    })
}

/// Under compound faults (crashes, drops and confirmation-swallowing
/// cheaters) the adaptive response delivers at least as much as the
/// static protocol.
#[test]
fn adaptive_response_delivers_at_least_as_much_as_static_under_compound_faults() {
    let [static_run, adaptive_run] = static_and_adaptive(ScenarioConfig {
        good_strategy: RoutingStrategy::Utility(UtilityModel::ModelII { lookahead: 2 }),
        fault: FaultConfig {
            crash_rate: 0.05,
            drop_rate: 0.10,
            cheat_fraction: 0.25,
            ..FaultConfig::default()
        },
        ..base(11, None)
    });
    assert!(
        adaptive_run.delivery_ratio >= static_run.delivery_ratio,
        "adaptive delivered {} < static {}",
        adaptive_run.delivery_ratio,
        static_run.delivery_ratio
    );
}

/// In-run cheater feedback: the adaptive initiator flags a receipt
/// corrupter as soon as the corrupted evidence comes back and routes
/// around it for the rest of the run, so corrupt-only cheaters destroy
/// well under three quarters of the payment they destroy under the static
/// protocol, which learns of them only at settlement.
#[test]
fn in_run_flagging_cuts_the_shortfall_of_corrupting_cheaters() {
    for seed in [1u64, 3, 7, 11, 42] {
        let [static_run, adaptive_run] = static_and_adaptive(ScenarioConfig {
            fault: FaultConfig {
                cheat_fraction: 0.35,
                cheat_corrupt_share: 1.0,
                ..FaultConfig::default()
            },
            ..base(seed, None)
        });
        assert!(
            adaptive_run.payment_shortfall < 0.75 * static_run.payment_shortfall,
            "seed {seed}: adaptive shortfall {} vs static {}",
            adaptive_run.payment_shortfall,
            static_run.payment_shortfall
        );
    }
}
