//! Integration pins for lazy probing: probe state materializes on demand
//! from the analytic churn schedule, and every run reproduces the result
//! pinned while an eager per-tick probing arm still ran beside it and the
//! two were asserted bit-identical — same payoffs, same paths, same attack
//! metrics — with and without neighbor replacement. Replicated results are
//! identical at any thread count.

use idpa_desim::{Engine, SimTime};
use idpa_sim::experiments::Options;
use idpa_sim::{ScenarioConfig, SimulationRun, World};

mod common;
use common::{base, fingerprint, run, BASELINE};

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
        ..ScenarioConfig::default()
    }
    .with_nodes(500);
    cfg.churn.horizon = hours * 60.0;
    cfg
}

/// The replacement-saturated shape at a 2-hour horizon, pinned beside
/// [`common::BASELINE`].
const SATURATED_PIN: u64 = 0x14d7f4f76eec6646;

#[test]
fn lazy_runs_reproduce_the_eager_pins() {
    for (seed, replacement, pin, _) in BASELINE {
        let r = run(base(seed, replacement));
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
