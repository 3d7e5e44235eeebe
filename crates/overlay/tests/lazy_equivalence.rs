//! Seeded property suite: the lazy probe set is **bit-identical** to the
//! eager estimator driven at every tick, across random churn schedules,
//! topologies, probing periods, replacement thresholds, and query times.
//!
//! The eager reference below is the paper's periodic probing (§2.3)
//! stepped literally: at every tick `k·T < horizon`, every live node runs
//! `probe_round_seeded` and then (with a threshold) `maintain_seeded`.

use std::sync::Arc;

use idpa_desim::rng::{StreamFactory, Xoshiro256StarStar};
use idpa_desim::SimTime;
use idpa_netmodel::NodeSchedule;
use idpa_overlay::probe_lazy::tick_time;
use idpa_overlay::{LazyProbeSet, NodeId, ProbeEstimator, Topology};
use rand::RngExt;

struct Case {
    period: f64,
    horizon: f64,
    schedules: Vec<NodeSchedule>,
    neighbors: Vec<Vec<NodeId>>,
    threshold: Option<u64>,
    streams: StreamFactory,
}

impl Case {
    /// A fresh lazy probe set over the case's world.
    fn probe_set(&self) -> LazyProbeSet {
        LazyProbeSet::new_sparse(
            self.period,
            self.horizon,
            Arc::new(self.schedules.clone()),
            Arc::new(Topology::from_lists(self.neighbors.clone())),
            self.threshold,
            self.streams.clone(),
        )
    }
}

fn random_case(rng: &mut Xoshiro256StarStar) -> Case {
    let n = rng.random_range(4..12usize);
    let period = [0.5, 1.0, 2.5, 5.0][rng.random_range(0..4usize)];
    let horizon = period * rng.random_range(20..120u32) as f64;
    let schedules = (0..n)
        .map(|_| {
            let mut sessions = Vec::new();
            // Random alternating up/down walk; some nodes join late, some
            // sessions start or end exactly on a tick boundary to exercise
            // the [start, end) edge cases.
            let mut t = if rng.random_range(0..4u32) == 0 {
                0.0
            } else {
                rng.random_range(0.0..horizon * 0.5)
            };
            while t < horizon {
                let snap = rng.random_range(0..3u32) == 0;
                let up = if snap {
                    // Snap the duration so the boundary lands on a tick.
                    period * rng.random_range(1..30u32) as f64
                } else {
                    rng.random_range(period * 0.3..period * 25.0)
                };
                let end = (t + up).min(horizon + period);
                if end > t {
                    sessions.push((t, end));
                }
                t = end + rng.random_range(period * 0.2..period * 20.0);
            }
            NodeSchedule::from_sessions(sessions)
        })
        .collect();
    let degree = rng.random_range(1..4usize).min(n - 1);
    let neighbors = (0..n)
        .map(|i| {
            let mut set = Vec::new();
            while set.len() < degree {
                let v = NodeId(rng.random_range(0..n));
                if v.index() != i && !set.contains(&v) {
                    set.push(v);
                }
            }
            set
        })
        .collect();
    let threshold = match rng.random_range(0..3u32) {
        0 => None,
        _ => Some(rng.random_range(1..6u64)),
    };
    Case {
        period,
        horizon,
        schedules,
        neighbors,
        threshold,
        streams: StreamFactory::new(rng.next()),
    }
}

/// Drives eager estimators tick by tick, capturing full state snapshots at
/// each requested tick frontier (the state after all ticks `<= frontier`).
fn eager_reference(case: &Case, frontiers: &[u64]) -> Vec<Vec<ProbeEstimator>> {
    let n = case.schedules.len();
    let mut ests: Vec<ProbeEstimator> = (0..n)
        .map(|i| ProbeEstimator::new(NodeId(i), case.period, case.neighbors[i].clone()))
        .collect();
    let mut snapshots = Vec::with_capacity(frontiers.len());
    let mut next_frontier = 0usize;
    let mut k = 1u64;
    loop {
        let t = tick_time(k, case.period);
        let done = t >= case.horizon;
        while next_frontier < frontiers.len() && (done || k > frontiers[next_frontier]) {
            snapshots.push(ests.clone());
            next_frontier += 1;
        }
        if done {
            break;
        }
        let now = SimTime::new(t);
        for (i, est) in ests.iter_mut().enumerate() {
            if !case.schedules[i].is_up(now) {
                continue;
            }
            let schedules = &case.schedules;
            est.probe_round_seeded(&case.streams, |v| schedules[v.index()].is_up(now));
            if let Some(thr) = case.threshold {
                est.maintain_seeded(&case.streams, thr, n);
            }
        }
        k += 1;
    }
    while snapshots.len() < frontiers.len() {
        snapshots.push(ests.clone());
    }
    snapshots
}

#[test]
fn lazy_probe_set_is_bit_identical_to_eager_reference() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x1d9a);
    for case_idx in 0..256 {
        let case = random_case(&mut rng);
        let lazy = case.probe_set();

        // Query at a few random times (sorted — the estimator is an
        // online process) plus the horizon.
        let mut times: Vec<f64> = (0..4)
            .map(|_| rng.random_range(0.0..case.horizon))
            .collect();
        times.push(case.horizon);
        times.sort_by(f64::total_cmp);
        // Frontier per query time: largest k with k·T <= t, capped at the
        // horizon tick.
        let frontiers: Vec<u64> = times
            .iter()
            .map(|&t| {
                let mut k = (t / case.period) as u64 + 2;
                while tick_time(k, case.period) > t {
                    k -= 1;
                }
                k.min(lazy.max_tick())
            })
            .collect();

        let snapshots = eager_reference(&case, &frontiers);
        for (q, (&t, eager_states)) in times.iter().zip(&snapshots).enumerate() {
            for (i, eager_state) in eager_states.iter().enumerate() {
                let lazy_est = lazy.estimator(NodeId(i), t);
                assert_eq!(
                    &lazy_est, eager_state,
                    "case {case_idx} query {q} (t={t}) node {i}: lazy != eager\n\
                     period={} horizon={} threshold={:?}",
                    case.period, case.horizon, case.threshold
                );
                // Derived quantities are bit-identical too.
                for &v in eager_state.neighbors() {
                    assert_eq!(
                        lazy.availability(NodeId(i), v, t).to_bits(),
                        eager_state.availability(v).to_bits(),
                        "case {case_idx} availability mismatch"
                    );
                }
            }
        }
    }
}

/// Zeroes the resident-state metrics: the only fields idle eviction may
/// change.
fn normalized(mut r: idpa_sim::RunResult) -> idpa_sim::RunResult {
    r.peak_materialized_nodes = 0;
    r.node_evictions = 0;
    r.slab_bytes = 0;
    r
}

/// End-to-end: with an active fault plan (crashes, drops, delays,
/// cheaters), a simulation run whose probe cells are evicted and
/// re-materialized after every idle tick stays bit-identical to the run
/// that never evicts, and replication stays invariant to the thread count.
/// The crash overlay suppresses routing liveness only — never the probe
/// estimates the lazy set reconstructs analytically — which is the
/// invariant this test pins.
#[test]
fn eviction_is_invisible_under_active_fault_plan() {
    use idpa_sim::experiments::Options;
    use idpa_sim::{FaultConfig, ScenarioConfig, SimulationRun};

    let fault = FaultConfig {
        crash_rate: 0.05,
        drop_rate: 0.1,
        delay_rate: 0.25,
        cheat_fraction: 0.2,
        ..FaultConfig::default()
    };
    for seed in [11u64, 23, 31] {
        let mut cfg = ScenarioConfig {
            adversary_fraction: 0.2,
            neighbor_replacement_rounds: Some(3),
            ..ScenarioConfig::quick_test(seed)
        };
        cfg.fault = fault;
        let kept = SimulationRun::execute(cfg);
        let evicting = SimulationRun::execute(ScenarioConfig {
            evict_idle_ticks: Some(1),
            ..cfg
        });
        assert!(evicting.node_evictions > 0, "seed {seed}: nothing evicted");
        assert_eq!(
            normalized(kept.clone()),
            normalized(evicting),
            "seed {seed}: eviction changed a run under an active fault plan"
        );
        assert!(
            kept.delivery_ratio < 1.0 || kept.retries_per_message > 0.0,
            "seed {seed}: the fault plan must actually bite for this test to mean anything"
        );
    }

    // Replicated faulty runs are bit-identical at any worker count.
    let folds: Vec<u64> = [1usize, 4]
        .into_iter()
        .map(|threads| {
            let opts = Options {
                reps: 3,
                quick: true,
                threads,
                scenario: idpa_sim::ScenarioConfig {
                    fault,
                    ..idpa_sim::ScenarioConfig::default()
                },
                ..Options::default()
            };
            let runs = idpa_sim::experiments::replicate_base(&opts);
            runs.iter().fold(0u64, |acc, r| {
                acc ^ r
                    .delivery_ratio
                    .to_bits()
                    .wrapping_add(r.connections)
                    .rotate_left(9)
            })
        })
        .collect();
    assert_eq!(folds[0], folds[1], "faulty replication is thread-invariant");
}

/// Same guarantee under `--fault-response adaptive`: crash-aware probe
/// invalidation is an overlay on the availability *read path*
/// (`ProbeInvalidation`), never a mutation of probe state, so evicting
/// runs stay bit-identical to non-evicting ones even while invalidation
/// masks, reputation suppression, and the `w_r` quality term are all
/// active — and adaptive runs replay bit-identically from the master seed.
#[test]
fn eviction_is_invisible_under_adaptive_fault_response() {
    use idpa_sim::{FaultConfig, FaultResponse, ScenarioConfig, SimulationRun};

    let fault = FaultConfig {
        crash_rate: 0.05,
        drop_rate: 0.1,
        delay_rate: 0.25,
        cheat_fraction: 0.2,
        response: FaultResponse::Adaptive,
        ..FaultConfig::default()
    };
    for seed in [11u64, 23, 31] {
        let mut cfg = ScenarioConfig {
            adversary_fraction: 0.2,
            neighbor_replacement_rounds: Some(3),
            weights: (0.4, 0.4),
            reputation_weight: 0.2,
            ..ScenarioConfig::quick_test(seed)
        };
        cfg.fault = fault;
        cfg.validate().expect("adaptive scenario must validate");
        let kept = SimulationRun::execute(cfg);
        let evicting = SimulationRun::execute(ScenarioConfig {
            evict_idle_ticks: Some(1),
            ..cfg
        });
        assert_eq!(
            normalized(kept.clone()),
            normalized(evicting),
            "seed {seed}: eviction changed a run under adaptive fault response"
        );
        assert_eq!(
            kept,
            SimulationRun::execute(cfg),
            "seed {seed}: adaptive run must replay bit-identically"
        );
        assert!(
            kept.retries_per_message > 0.0 || kept.delivery_ratio < 1.0,
            "seed {seed}: the fault plan must bite for this test to mean anything"
        );
    }
}

#[test]
fn lazy_sync_all_matches_per_node_queries() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(777);
    for _ in 0..16 {
        let case = random_case(&mut rng);
        let lazy_query = case.probe_set();
        let mut lazy_bulk = case.probe_set();
        // Materialize every cell at t = 0, then catch them all up at once.
        for i in 0..case.schedules.len() {
            lazy_bulk.sync_node(NodeId(i), 0.0);
        }
        lazy_bulk.sync_all(case.horizon);
        let synced = lazy_bulk.snapshot_cells().cells;
        assert_eq!(synced.len(), case.schedules.len());
        for (i, state, _) in synced {
            assert_eq!(state.synced_tick, lazy_bulk.max_tick(), "node={i}");
            assert_eq!(
                ProbeEstimator::from_snapshot(state.est),
                lazy_query.estimator(NodeId(i), case.horizon),
                "node={i}"
            );
        }
    }
}
