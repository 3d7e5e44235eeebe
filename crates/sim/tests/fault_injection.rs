//! Integration pins for the deterministic fault-injection layer.
//!
//! The two load-bearing guarantees:
//!
//! 1. **Zero-fault bit-identicality** — with every fault rate zero, a run is
//!    bit-identical to the pre-fault-layer build. The fingerprints below
//!    were captured on the commit *before* the fault layer landed, over the
//!    original result fields; any drift in the refactored formation/commit
//!    path shows up here as a changed constant.
//! 2. **Determinism under faults** — fault draws are pure functions of the
//!    `(pair, connection, attempt)` position, so faulty runs replicate
//!    bit-identically across idle-eviction windows and repeated
//!    executions, and degradation responds monotonically to the injected
//!    rates.

use idpa_desim::FaultConfig;
use idpa_sim::{RunResult, ScenarioConfig, SimulationRun};

/// FNV-1a over the pre-fault-layer result fields (bit patterns), matching
/// the baseline capture exactly — the new fault metrics are deliberately
/// excluded so the constant pins the legacy surface.
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

/// `(seed, replacement, fingerprint, avg_good_payoff bits)` captured on the
/// pre-fault-layer commit (eager and lazy were already identical).
const BASELINE: [(u64, Option<u64>, u64, u64); 6] = [
    (1, None, 0xd51afc10a8e3c367, 0x40730bffb79ce582),
    (1, Some(3), 0x172c5eda5998b960, 0x406d05c4bfa7690d),
    (7, None, 0xb68cfd87107b7817, 0x4071c00b9e48bb2a),
    (7, Some(3), 0x604446ccd329adb4, 0x406ddf312fe95040),
    (42, None, 0x8e362e89db0da04a, 0x4074a18aa74a4ec1),
    (42, Some(3), 0x4a5899e5e47b947e, 0x4072fbb62ff024b6),
];

#[test]
fn zero_fault_runs_are_bit_identical_to_the_pre_fault_baseline() {
    for (seed, replacement, expect_fp, expect_avg) in BASELINE {
        let r = run(base(seed, replacement));
        assert_eq!(
            fingerprint(&r),
            expect_fp,
            "seed {seed} repl {replacement:?}: drifted from pre-fault baseline"
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
    let mut cfg = base(2, None);
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
