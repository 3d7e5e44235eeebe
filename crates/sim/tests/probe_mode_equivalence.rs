//! Integration pins for `--probe-mode`: with position-keyed probe draws, a
//! lazy run is **bit-identical** to an eager run —
//! same payoffs, same paths, same attack metrics — with and without
//! neighbor replacement, and replicated results are identical at any
//! thread count.

use idpa_desim::{Engine, SimTime};
use idpa_sim::experiments::Options;
use idpa_sim::{NodeLifecycle, ProbeMode, RunResult, ScenarioConfig, SimulationRun, World};

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

fn assert_lazy_matches_eager(base: ScenarioConfig, label: &str) {
    // Eager probing touches every node, so under the lazy lifecycle the
    // resident-state metrics are the one thing the probe mode may change.
    let comparable = |mut r: RunResult| {
        if base.node_lifecycle == NodeLifecycle::Lazy {
            r.peak_materialized_nodes = 0;
            r.node_evictions = 0;
            r.slab_bytes = 0;
        }
        r
    };
    let eager = comparable(run(ScenarioConfig {
        probe_mode: ProbeMode::Eager,
        ..base
    }));
    let lazy = comparable(run(ScenarioConfig {
        probe_mode: ProbeMode::Lazy,
        ..base
    }));
    assert_eq!(
        fingerprint(&eager),
        fingerprint(&lazy),
        "{label}: lazy diverged from eager"
    );
    assert_eq!(eager, lazy, "{label}");
}

#[test]
fn lazy_run_is_bit_identical_to_eager_run() {
    for seed in [1u64, 7, 42] {
        for replacement in [None, Some(3)] {
            let base = ScenarioConfig {
                neighbor_replacement_rounds: replacement,
                adversary_fraction: 0.2,
                ..ScenarioConfig::quick_test(seed)
            };
            assert_lazy_matches_eager(base, &format!("seed {seed} replacement {replacement:?}"));
        }
    }
    // Replacement-saturated: cells are read only by the 64 transmissions,
    // so every catch-up spans many replacements.
    for lifecycle in [NodeLifecycle::Eager, NodeLifecycle::Lazy] {
        let base = ScenarioConfig {
            node_lifecycle: lifecycle,
            ..maintenance_saturated(2.0)
        };
        assert_lazy_matches_eager(base, &format!("saturated, {lifecycle:?} lifecycle"));
    }
}

#[test]
fn lazy_probing_schedules_only_transmissions() {
    for lifecycle in [NodeLifecycle::Eager, NodeLifecycle::Lazy] {
        let cfg = ScenarioConfig {
            node_lifecycle: lifecycle,
            probe_mode: ProbeMode::Lazy,
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
            "{lifecycle:?} lifecycle: lazy probing must schedule no maintenance events"
        );
    }
}

#[test]
fn replication_is_thread_invariant_in_both_probe_modes() {
    for mode in [ProbeMode::Eager, ProbeMode::Lazy] {
        let results: Vec<u64> = [1usize, 2, 8]
            .into_iter()
            .map(|threads| {
                let opts = Options {
                    reps: 4,
                    quick: true,
                    threads,
                    scenario: ScenarioConfig {
                        probe_mode: mode,
                        ..ScenarioConfig::default()
                    },
                    ..Options::default()
                };
                let runs = idpa_sim::experiments::replicate_base(&opts);
                runs.iter()
                    .map(fingerprint)
                    .fold(0u64, |acc, f| acc ^ f.rotate_left(17))
            })
            .collect();
        assert_eq!(results[0], results[1], "{mode:?}: 1 vs 2 threads");
        assert_eq!(results[0], results[2], "{mode:?}: 1 vs 8 threads");
    }
}
