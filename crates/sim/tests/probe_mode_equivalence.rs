//! Integration pins for `--probe-mode`: with position-keyed probe draws, a
//! lazy run is **bit-identical** to an eager run —
//! same payoffs, same paths, same attack metrics — with and without
//! neighbor replacement, and replicated results are identical at any
//! thread count.

use idpa_sim::experiments::Options;
use idpa_sim::{ProbeMode, RunResult, ScenarioConfig, SimulationRun};

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

#[test]
fn lazy_run_is_bit_identical_to_eager_run() {
    for seed in [1u64, 7, 42] {
        for replacement in [None, Some(3)] {
            let base = ScenarioConfig {
                neighbor_replacement_rounds: replacement,
                adversary_fraction: 0.2,
                ..ScenarioConfig::quick_test(seed)
            };
            let eager = run(ScenarioConfig {
                probe_mode: ProbeMode::Eager,
                ..base
            });
            let lazy = run(ScenarioConfig {
                probe_mode: ProbeMode::Lazy,
                ..base
            });
            assert_eq!(
                fingerprint(&eager),
                fingerprint(&lazy),
                "seed {seed} replacement {replacement:?}: lazy diverged from eager"
            );
            assert_eq!(eager, lazy);
        }
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
