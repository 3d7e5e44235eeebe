//! The four fixed workloads. Each is a list of scenario shapes cycled by
//! run index; run `i` draws its seed from `--seed`, the workload name and
//! `i`, so the same seed always yields the same sequence of scenarios.

use idpa_bench::{model_one, model_two};
use idpa_core::routing::RoutingStrategy;
use idpa_desim::rng::StreamFactory;
use idpa_desim::{AdversaryConfig, FaultConfig, FaultResponse};
use idpa_sim::{BankDurability, ScenarioConfig, SettlementMode, WorkloadMode};

/// Snapshot points of `service_hostile`: `encode` at this many evenly
/// spaced interior horizons, with a `restore` from the middle one.
const SNAPSHOTS: usize = 6;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §3 closed runs over the Figs. 3–7 / Table 2 grid.
    PaperClosed,
    /// Maintenance-saturated churn at N = 500.
    ChurnMaint,
    /// The million-node lazy-lifecycle scenario.
    Scale1m,
    /// Open Poisson workload under every fault, adversary and durability
    /// layer, with snapshots.
    ServiceHostile,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperClosed,
        Workload::ChurnMaint,
        Workload::Scale1m,
        Workload::ServiceHostile,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperClosed => "paper_closed",
            Workload::ChurnMaint => "churn_maint",
            Workload::Scale1m => "scale_1m",
            Workload::ServiceHostile => "service_hostile",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload schedules a fixed batch of transmissions, so
    /// every run must form exactly `total_transmissions` connections.
    pub fn closed(self) -> bool {
        self != Workload::ServiceHostile
    }

    /// The scenario shapes one round of the workload cycles through.
    /// Every shape pins `history_shards = 1`, so no scenario depends on
    /// the machine's core count.
    pub fn shapes(self) -> Vec<ScenarioConfig> {
        let pinned = ScenarioConfig {
            history_shards: 1,
            ..ScenarioConfig::default()
        };
        match self {
            Workload::PaperClosed => {
                let mut grid = Vec::new();
                for f in [0.1, 0.5, 0.9] {
                    for strategy in [model_one(), model_two(), RoutingStrategy::Random] {
                        for tau in [0.5, 4.0] {
                            grid.push(ScenarioConfig {
                                adversary_fraction: f,
                                good_strategy: strategy,
                                tau,
                                ..pinned
                            });
                        }
                    }
                }
                grid
            }
            Workload::ChurnMaint => {
                let mut cfg = ScenarioConfig {
                    degree: 24,
                    n_pairs: 8,
                    total_transmissions: 64,
                    max_connections: 8,
                    probe_period: 1.0,
                    neighbor_replacement_rounds: Some(6),
                    ..pinned
                }
                .with_nodes(500);
                cfg.churn.horizon = 8.0 * 60.0;
                vec![cfg]
            }
            Workload::Scale1m => vec![ScenarioConfig {
                history_shards: 1,
                ..ScenarioConfig::scale_1m(0)
            }],
            Workload::ServiceHostile => vec![ScenarioConfig {
                workload: WorkloadMode::Open,
                open_arrival_rate: 0.04,
                // Room for every Poisson arrival: ~55 per pair on average.
                max_connections: 128,
                fault: FaultConfig {
                    crash_rate: 0.03,
                    drop_rate: 0.05,
                    delay_rate: 0.05,
                    cheat_fraction: 0.10,
                    bank_downtime: 0.02,
                    bank_crash_rate: 0.10,
                    response: FaultResponse::Adaptive,
                    ..FaultConfig::default()
                },
                reputation_weight: 0.2,
                weights: (0.4, 0.4),
                settlement: SettlementMode::Epoch,
                bank_durability: BankDurability::Wal,
                adversary: AdversaryConfig {
                    free_rider_fraction: 0.10,
                    whitewash_fraction: 0.10,
                    clique_count: 2,
                    clique_size: 4,
                    clique_forge_rate: 1.0,
                    clique_cross_check: true,
                    ..AdversaryConfig::default()
                },
                ..pinned
            }],
        }
    }

    /// The scenario of run `i` under master seed `seed`.
    pub fn config(self, seed: u64, i: u64) -> ScenarioConfig {
        let shapes = self.shapes();
        let run_seed = StreamFactory::new(seed)
            .stream_indexed(self.name(), i)
            .next();
        ScenarioConfig {
            seed: run_seed,
            ..shapes[(i % shapes.len() as u64) as usize]
        }
    }

    /// Intermediate horizons (minutes) at which a run stops to encode a
    /// snapshot; empty for workloads that do not exercise the codec.
    pub fn snapshot_horizons(self, cfg: &ScenarioConfig) -> Vec<f64> {
        if self != Workload::ServiceHostile {
            return Vec::new();
        }
        let step = cfg.churn.horizon / (SNAPSHOTS + 1) as f64;
        (1..=SNAPSHOTS).map(|k| k as f64 * step).collect()
    }

    /// Index into [`Workload::snapshot_horizons`] of the snapshot the run
    /// continues from after a `restore`.
    pub fn restore_index(self) -> Option<usize> {
        (self == Workload::ServiceHostile).then_some(SNAPSHOTS / 2 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shape_validates() {
        for w in Workload::ALL {
            for i in 0..w.shapes().len() as u64 {
                w.config(1, i)
                    .validate()
                    .unwrap_or_else(|e| panic!("{} run {i}: {e}", w.name()));
            }
        }
    }

    #[test]
    fn seeds_depend_on_seed_workload_and_run() {
        let a = Workload::ChurnMaint.config(1, 0).seed;
        assert_eq!(a, Workload::ChurnMaint.config(1, 0).seed);
        assert_ne!(a, Workload::ChurnMaint.config(2, 0).seed);
        assert_ne!(a, Workload::ChurnMaint.config(1, 1).seed);
        assert_ne!(a, Workload::Scale1m.config(1, 0).seed);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
