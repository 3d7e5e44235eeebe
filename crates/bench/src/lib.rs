//! Shared fixtures for the benchmark harness.
//!
//! Each paper table/figure has a bench target under `benches/` that
//! exercises exactly the code path regenerating it (the full-scale
//! regeneration itself is `cargo run --release -p idpa-sim -- <name>`).
//! Bench-scale runs use a reduced workload so `cargo bench --workspace`
//! completes in minutes while stressing the same kernels. Timing is done
//! by the in-tree median-of-N harness in [`harness`] (no external
//! dependencies; each target's results merge into
//! `target/bench/<target>.json`, or `$IDPA_BENCH_OUT`).

#![deny(clippy::unwrap_used)]

pub mod alloc_counter;
pub mod harness;

use idpa_core::routing::RoutingStrategy;
use idpa_sim::{RunResult, ScenarioConfig, SimulationRun};

/// The experiments' strategy constructors: model I, and model II at the
/// experiment-default lookahead.
pub use idpa_sim::experiments::{model_one, model_two};

/// The bench-scale scenario: the paper's topology parameters with a
/// quarter-size workload.
#[must_use]
pub fn bench_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        n_pairs: 25,
        total_transmissions: 500,
        seed,
        ..ScenarioConfig::default()
    }
}

/// Runs one bench-scale scenario point.
#[must_use]
pub fn run_point(f: f64, strategy: RoutingStrategy, tau: f64, seed: u64) -> RunResult {
    SimulationRun::execute(ScenarioConfig {
        adversary_fraction: f,
        good_strategy: strategy,
        tau,
        ..bench_config(seed)
    })
}

/// `r` with the resident-state metrics (`peak_materialized_nodes`,
/// `node_evictions`, `slab_bytes`) zeroed: the only fields that depend on
/// which probe cells a run kept resident rather than on what it computed.
#[must_use]
pub fn without_residency(mut r: RunResult) -> RunResult {
    r.peak_materialized_nodes = 0;
    r.node_evictions = 0;
    r.slab_bytes = 0;
    r
}

/// FNV-1a over the `Debug` rendering of [`without_residency`]`(r)`: the
/// pin a bench asserts before timing, so a faster run can never be one
/// that computes something else.
#[must_use]
pub fn result_fingerprint(r: &RunResult) -> u64 {
    idpa_desim::codec::fnv1a_64(format!("{:?}", without_residency(r.clone())).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_is_valid() {
        bench_config(1)
            .validate()
            .expect("bench scenario must be valid");
    }

    #[test]
    fn run_point_produces_connections() {
        let r = run_point(0.1, model_one(), 1.0, 2);
        assert_eq!(r.connections, 500);
    }
}
