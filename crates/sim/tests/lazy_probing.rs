//! Integration pins for lazy probing: probe state materializes on demand
//! from the analytic churn schedule, and every run reproduces the result
//! pinned while an eager per-tick probing arm still ran beside it and the
//! two were asserted bit-identical — same payoffs, same paths, same attack
//! metrics — with and without neighbor replacement. Replicated results are
//! identical at any thread count.

use idpa_desim::{Engine, SimTime};
use idpa_sim::experiments::Options;
use idpa_sim::{RunResult, ScenarioConfig, SimulationRun, World};

/// FNV-1a over every f64 (bit pattern) and counter in the result, so "equal"
/// means equal to the last bit, not approximately.
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

fn run(cfg: ScenarioConfig) -> RunResult {
    cfg.validate().expect("scenario must be valid");
    SimulationRun::execute(cfg)
}

/// A replacement-saturated shape: N=500, d=24, T=1 min, replace after 6
/// silent rounds, 8 pairs × 8 connections over `hours` of churn. Nearly
/// every probe tick makes some node replace a neighbor.
fn maintenance_saturated(hours: f64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig {
        degree: 24,
        n_pairs: 8,
        total_transmissions: 64,
        max_connections: 8,
        probe_period: 1.0,
        neighbor_replacement_rounds: Some(6),
        history_shards: 1,
        ..ScenarioConfig::default()
    }
    .with_nodes(500);
    cfg.churn.horizon = hours * 60.0;
    cfg
}

/// `(seed, replacement, fingerprint)` — the pre-fault-layer pins,
/// identical constants to `tests/fault_injection.rs`.
const BASELINE: [(u64, Option<u64>, u64); 6] = [
    (1, None, 0xd51afc10a8e3c367),
    (1, Some(3), 0x172c5eda5998b960),
    (7, None, 0xb68cfd87107b7817),
    (7, Some(3), 0x604446ccd329adb4),
    (42, None, 0x8e362e89db0da04a),
    (42, Some(3), 0x4a5899e5e47b947e),
];

/// The replacement-saturated shape at a 2-hour horizon, pinned while the
/// eager per-tick arm still ran beside it.
const SATURATED_PIN: u64 = 0xaae8305cfea45271;

#[test]
fn lazy_runs_reproduce_the_eager_pins() {
    for (seed, replacement, pin) in BASELINE {
        let r = run(ScenarioConfig {
            neighbor_replacement_rounds: replacement,
            adversary_fraction: 0.2,
            ..ScenarioConfig::quick_test(seed)
        });
        assert_eq!(
            fingerprint(&r),
            pin,
            "seed {seed} replacement {replacement:?}: drifted from the pin"
        );
    }
    // Replacement-saturated: cells are read only by the 64 transmissions,
    // so every catch-up spans many replacements — with and without idle
    // eviction re-materializing the cells in between.
    for evict in [None, Some(1)] {
        let r = run(ScenarioConfig {
            evict_idle_ticks: evict,
            ..maintenance_saturated(2.0)
        });
        assert_eq!(
            fingerprint(&r),
            SATURATED_PIN,
            "saturated, evict {evict:?}: drifted from the pin"
        );
    }
}

#[test]
fn lazy_probing_schedules_only_transmissions() {
    for evict in [None, Some(64)] {
        let cfg = ScenarioConfig {
            evict_idle_ticks: evict,
            ..maintenance_saturated(8.0)
        };
        cfg.validate().expect("scenario must be valid");
        let mut sim = SimulationRun::new(cfg, World::generate(&cfg));
        let mut engine = Engine::new();
        sim.schedule_all(&mut engine);
        engine.run(&mut sim, Some(SimTime::new(cfg.churn.horizon)));
        assert_eq!(
            engine.events_handled(),
            cfg.total_transmissions as u64,
            "evict {evict:?}: lazy probing must schedule no probe or maintenance events"
        );
    }
}

#[test]
fn replication_is_thread_invariant() {
    let results: Vec<u64> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| {
            let opts = Options {
                reps: 4,
                quick: true,
                threads,
                ..Options::default()
            };
            let runs = idpa_sim::experiments::replicate_base(&opts);
            runs.iter()
                .map(fingerprint)
                .fold(0u64, |acc, f| acc ^ f.rotate_left(17))
        })
        .collect();
    assert_eq!(results[0], results[1], "1 vs 2 threads");
    assert_eq!(results[0], results[2], "1 vs 8 threads");
}
