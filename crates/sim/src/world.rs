//! The static world of one run.
//!
//! Everything stochastic that is *not* a routing decision comes from named
//! substreams of the master seed: the topology, the churn trace, the link
//! bandwidths, the role assignment and the (I, R) workload. The
//! sequential parts — the Poisson join times, the roles and the workload —
//! are sampled here, up front. The join times are one O(N) pass into one
//! shared slice. The malicious nodes are the last `⌊f·N⌉` ids of a
//! shuffle of which only those tail steps run, so the roles cost O(f·N)
//! draws ([`assign_roles`]). Each node's sessions and
//! neighbor set are not: they are derived when a run first reads them,
//! from streams keyed by the node's position ([`NodeSource`]). Each link's
//! bandwidth likewise comes from a stream keyed by the link
//! ([`CostModel`]), so it does not depend on N. Position keying, not
//! pre-generation, is what gives common random numbers across the routing
//! strategies being compared — the comparisons in Figs. 5–7 are
//! within-world whichever nodes and links each strategy happens to read.

use idpa_desim::rng::{StreamFactory, Xoshiro256StarStar};
use idpa_netmodel::{ChurnModel, CostModel};
use idpa_overlay::{node::assign_roles, NodeId, NodeKind, NodeSource};
use rand::RngExt;

use crate::error::SimError;
use crate::scenario::{ScenarioConfig, WorkloadMode};

/// One (I, R) pair's workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PairWorkload {
    /// The initiator.
    pub initiator: NodeId,
    /// The responder.
    pub responder: NodeId,
    /// This pair's forwarding benefit `P_f` (uniform in the configured
    /// range) — `P_r = τ·P_f`.
    pub pf: f64,
    /// Transmission times (minutes), sorted ascending.
    pub times: Vec<f64>,
}

/// The static world: everything fixed before the event loop starts.
#[derive(Debug, Clone)]
pub struct World {
    /// Node roles (good / malicious).
    pub kinds: Vec<NodeKind>,
    /// Every node's churn schedule and initial neighbor set: one join time
    /// per node up front, the rest derived per node on demand. Immutable
    /// and `Sync`; the run's probe store memoizes the schedules it derives
    /// in an [`idpa_overlay::NodeCache`].
    pub nodes: NodeSource,
    /// Link bandwidths and costs, each edge's derived when first read
    /// from a stream keyed by the edge.
    pub costs: CostModel,
    /// The (I, R) workload.
    pub pairs: Vec<PairWorkload>,
}

impl World {
    /// Samples a world from the scenario's master seed, panicking with the
    /// diagnostic on an invalid scenario. Library callers that want to
    /// handle misconfiguration should use [`World::try_generate`].
    #[must_use]
    pub fn generate(cfg: &ScenarioConfig) -> Self {
        match Self::try_generate(cfg) {
            Ok(world) => world,
            Err(e) => panic!("{e}"),
        }
    }

    /// Samples a world, surfacing configuration and workload-feasibility
    /// problems as [`SimError`] instead of panicking.
    pub fn try_generate(cfg: &ScenarioConfig) -> Result<Self, SimError> {
        cfg.validate()?;
        let streams = StreamFactory::new(cfg.seed);

        let mut nodes =
            NodeSource::derived(ChurnModel::new(cfg.churn), cfg.degree, streams.clone());

        let costs = CostModel::new(cfg.cost, streams.clone());

        // Roles: the tail of a shuffle of the ids is malicious. Using a
        // dedicated stream keeps the workload identical across f values.
        let kinds = assign_roles(
            cfg.n_nodes,
            cfg.adversary_fraction,
            &mut streams.stream("roles"),
        );

        // §5 availability attack: malicious nodes stay up all run.
        if cfg.availability_attack {
            nodes = nodes.with_pinned_up(kinds.iter().map(|k| !k.is_good()).collect());
        }

        let pairs = Self::generate_workload(cfg, &mut streams.stream("workload"))?;

        Ok(World {
            kinds,
            nodes,
            costs,
            pairs,
        })
    }

    /// Samples the (I, R) pairs and assigns each of the
    /// `total_transmissions` messages to a random pair (subject to
    /// `max_connections`), at a uniform time in `[warmup, horizon]`.
    ///
    /// Under [`WorkloadMode::Open`] the pair sampling (initiator,
    /// responder, `P_f`) is bit-identical to the closed mode — the same
    /// draws from the same stream — but the time-assignment loop is
    /// skipped entirely: send times are generated live by the runner's
    /// Poisson arrival process, so every `times` vector stays empty.
    fn generate_workload(
        cfg: &ScenarioConfig,
        rng: &mut Xoshiro256StarStar,
    ) -> Result<Vec<PairWorkload>, SimError> {
        let mut pairs: Vec<PairWorkload> = (0..cfg.n_pairs)
            .map(|_| {
                let initiator = NodeId(rng.random_range(0..cfg.n_nodes));
                let responder = loop {
                    let r = NodeId(rng.random_range(0..cfg.n_nodes));
                    if r != initiator {
                        break r;
                    }
                };
                let pf = rng.random_range(cfg.pf_range.0..=cfg.pf_range.1);
                PairWorkload {
                    initiator,
                    responder,
                    pf,
                    times: Vec::new(),
                }
            })
            .collect();

        if cfg.workload == WorkloadMode::Open {
            return Ok(pairs);
        }

        let mut assigned = 0usize;
        let mut attempts = 0usize;
        while assigned < cfg.total_transmissions {
            attempts += 1;
            if attempts >= cfg.total_transmissions * 100 {
                return Err(SimError::WorkloadInfeasible {
                    assigned,
                    requested: cfg.total_transmissions,
                });
            }
            let p = rng.random_range(0..pairs.len());
            if pairs[p].times.len() >= cfg.max_connections as usize {
                continue;
            }
            let t = rng.random_range(cfg.warmup..cfg.churn.horizon);
            pairs[p].times.push(t);
            assigned += 1;
        }
        for p in &mut pairs {
            // Sampled times are finite by construction; total_cmp avoids
            // the panicking partial-order unwrap.
            p.times.sort_by(f64::total_cmp);
        }
        Ok(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;

    fn world(seed: u64) -> World {
        World::generate(&ScenarioConfig::quick_test(seed))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = world(3);
        let b = world(3);
        assert_eq!(a.kinds, b.kinds);
        assert_eq!(a.nodes.topology(), b.nodes.topology());
        assert_eq!(a.nodes.schedules(), b.nodes.schedules());
        assert_eq!(a.pairs, b.pairs);
    }

    #[test]
    fn try_generate_surfaces_invalid_config() {
        let mut cfg = ScenarioConfig::quick_test(1);
        cfg.degree = cfg.n_nodes; // degree must be < N
        let err = World::try_generate(&cfg).expect_err("must reject");
        assert!(
            matches!(
                err,
                SimError::InvalidConfig {
                    field: "degree",
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn workload_totals_match_config() {
        let cfg = ScenarioConfig::quick_test(1);
        let w = World::generate(&cfg);
        let total: usize = w.pairs.iter().map(|p| p.times.len()).sum();
        assert_eq!(total, cfg.total_transmissions);
        assert_eq!(w.pairs.len(), cfg.n_pairs);
    }

    #[test]
    fn max_connections_respected() {
        let cfg = ScenarioConfig {
            max_connections: 12,
            ..ScenarioConfig::quick_test(2)
        };
        let w = World::generate(&cfg);
        assert!(w.pairs.iter().all(|p| p.times.len() <= 12));
        // The cap binds: with 200 transmissions over 20 pairs (mean 10),
        // some pair would exceed 12 without the cap.
        assert!(w.pairs.iter().any(|p| p.times.len() == 12));
    }

    #[test]
    fn initiators_differ_from_responders() {
        let w = world(4);
        assert!(w.pairs.iter().all(|p| p.initiator != p.responder));
    }

    #[test]
    fn pf_in_configured_range() {
        let w = world(5);
        assert!(w.pairs.iter().all(|p| (50.0..=100.0).contains(&p.pf)));
    }

    #[test]
    fn transmission_times_sorted_within_window() {
        let cfg = ScenarioConfig::quick_test(6);
        let w = World::generate(&cfg);
        for p in &w.pairs {
            assert!(p.times.windows(2).all(|t| t[0] <= t[1]));
            assert!(p
                .times
                .iter()
                .all(|&t| t >= cfg.warmup && t < cfg.churn.horizon));
        }
    }

    #[test]
    fn open_workload_keeps_pair_sampling_and_skips_times() {
        let closed = ScenarioConfig::quick_test(11);
        let open = ScenarioConfig {
            workload: WorkloadMode::Open,
            open_arrival_rate: 0.05,
            ..closed
        };
        let wc = World::generate(&closed);
        let wo = World::generate(&open);
        assert_eq!(wc.pairs.len(), wo.pairs.len());
        for (c, o) in wc.pairs.iter().zip(&wo.pairs) {
            assert_eq!(c.initiator, o.initiator, "same pair draws either way");
            assert_eq!(c.responder, o.responder);
            assert_eq!(c.pf.to_bits(), o.pf.to_bits());
            assert!(o.times.is_empty(), "open mode assigns no times up front");
        }
        // Everything downstream of the workload stream is untouched too.
        assert_eq!(wc.nodes.topology(), wo.nodes.topology());
        assert_eq!(wc.nodes.schedules(), wo.nodes.schedules());
        assert_eq!(wc.kinds, wo.kinds);
    }

    #[test]
    fn adversary_fraction_respected() {
        let cfg = ScenarioConfig {
            adversary_fraction: 0.5,
            ..ScenarioConfig::quick_test(7)
        };
        let w = World::generate(&cfg);
        assert_eq!(w.kinds.iter().filter(|k| k.is_good()).count(), 10);
    }

    #[test]
    fn workload_invariant_under_adversary_fraction() {
        // Common random numbers: changing f must not change the workload,
        // topology or churn trace.
        let base = ScenarioConfig::quick_test(8);
        let w0 = World::generate(&base);
        let w5 = World::generate(&ScenarioConfig {
            adversary_fraction: 0.5,
            ..base
        });
        assert_eq!(w0.pairs, w5.pairs);
        assert_eq!(w0.nodes.topology(), w5.nodes.topology());
        assert_eq!(w0.nodes.schedules(), w5.nodes.schedules());
    }

    #[test]
    fn growing_f_preserves_existing_adversaries() {
        let base = ScenarioConfig::quick_test(9);
        let w2 = World::generate(&ScenarioConfig {
            adversary_fraction: 0.2,
            ..base
        });
        let w6 = World::generate(&ScenarioConfig {
            adversary_fraction: 0.6,
            ..base
        });
        for i in 0..base.n_nodes {
            if !w2.kinds[i].is_good() {
                assert!(!w6.kinds[i].is_good(), "node {i} flipped back to good");
            }
        }
    }

    #[test]
    fn availability_attack_pins_adversaries() {
        let cfg = ScenarioConfig {
            adversary_fraction: 0.3,
            availability_attack: true,
            ..ScenarioConfig::quick_test(10)
        };
        let w = World::generate(&cfg);
        let plain = World::generate(&ScenarioConfig {
            availability_attack: false,
            ..cfg
        });
        for (i, k) in w.kinds.iter().enumerate() {
            let v = NodeId(i);
            if k.is_good() {
                assert_eq!(w.nodes.schedule(v), plain.nodes.schedule(v), "node {i}");
            } else {
                assert_eq!(w.nodes.schedule(v).sessions(), &[(0.0, cfg.churn.horizon)]);
            }
        }
    }
}
