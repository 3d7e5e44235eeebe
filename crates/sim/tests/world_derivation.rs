//! Per-node derivation of the world: a node's churn schedule and neighbor
//! set are pure functions of the master seed and the node's position. So
//! the value a reader gets does not depend on which nodes it read before,
//! on in which order, on whether the node was evicted and re-derived, or
//! on the thread that derived it — and every node equals its entry in the
//! whole-world helpers built on the same per-node functions. A link's
//! bandwidth is likewise a pure function of the seed and the link.

use idpa_desim::pool::parallel_map;
use idpa_desim::rng::{StreamFactory, Xoshiro256StarStar};
use idpa_netmodel::{ChurnModel, NodeSchedule};
use idpa_overlay::{LazyProbeSet, NodeCache, NodeId, Topology};
use idpa_sim::{ScenarioConfig, World};
use rand::RngExt;

/// A world shape per case: the quick-test scenario at a few sizes and
/// degrees, with and without the availability attack.
fn world_cfg(case: u64) -> ScenarioConfig {
    let n = [20usize, 57, 300][(case % 3) as usize];
    let mut cfg = ScenarioConfig {
        degree: [3usize, 5, 8][(case % 3) as usize],
        adversary_fraction: 0.25,
        availability_attack: case % 4 == 1,
        ..ScenarioConfig::quick_test(100 + case)
    }
    .with_nodes(n);
    cfg.churn.join_rate = n as f64 / 30.0;
    cfg
}

#[test]
fn derived_nodes_are_independent_of_order_eviction_and_thread() {
    let mut cases = 0usize;
    for case in 0..32u64 {
        let cfg = world_cfg(case);
        let world = World::generate(&cfg);
        let n = cfg.n_nodes;
        let schedules = world.nodes.schedules();
        let topology = world.nodes.topology();
        assert_eq!(schedules.len(), n);

        // Random touch orders with repeats, stamped with increasing ticks
        // and interleaved with evictions at random cutoffs: every schedule
        // read through the cache, and every neighbor set a probe cell is
        // built with (static neighbor sets, so the cell keeps it), equals
        // the whole-world helpers.
        let mut rng = Xoshiro256StarStar::seed_from_u64(case);
        let mut cache = NodeCache::new(world.nodes.clone());
        let probes = LazyProbeSet::new_sparse(
            cfg.probe_period,
            cfg.churn.horizon,
            world.nodes.clone(),
            None,
            StreamFactory::new(cfg.seed),
        );
        let steps = 4 * n as u64;
        let at = |step: u64| cfg.churn.horizon * step as f64 / steps as f64;
        for step in 0..steps {
            let v = NodeId(rng.random_range(0..n));
            assert_eq!(cache.touch(v, step), &schedules[v.index()], "case {case}");
            if rng.random_range(0..3u32) == 0 {
                assert_eq!(world.nodes.neighbors(v), topology.neighbors(v));
                assert_eq!(
                    probes.estimator(v, at(step)).neighbors(),
                    topology.neighbors(v),
                    "case {case}"
                );
            }
            if rng.random_range(0..16u32) == 0 {
                let idle = rng.random_range(0..n as u64);
                let _ = cache.evict_idle(step.saturating_sub(idle));
                let _ = probes.evict_idle(at(step), idle);
            }
            cases += 1;
        }
        // Whatever survived the evictions still reads the same.
        for v in (0..n).map(NodeId) {
            assert_eq!(cache.touch(v, u64::MAX), &schedules[v.index()]);
            assert_eq!(
                probes.estimator(v, at(steps)).neighbors(),
                topology.neighbors(v)
            );
        }
        assert_eq!(cache.resident(), n);

        // Derived on pool workers, in whatever order the pool hands out.
        let on_workers: Vec<(NodeSchedule, Vec<NodeId>)> = parallel_map(4, n, |v| {
            let v = NodeId(n - 1 - v);
            (world.nodes.schedule(v), world.nodes.neighbors(v))
        });
        for (i, (s, d)) in on_workers.into_iter().enumerate() {
            let v = n - 1 - i;
            assert_eq!(s, schedules[v], "case {case} node {v} on a worker");
            assert_eq!(d, topology.neighbors(NodeId(v)));
        }
    }
    assert!(cases >= 256, "the sweep shrank to {cases} cases");
}

#[test]
fn the_whole_world_helpers_are_loops_over_the_per_node_functions() {
    for case in 0..8u64 {
        let cfg = ScenarioConfig {
            availability_attack: false,
            ..world_cfg(case)
        };
        let world = World::generate(&cfg);
        let streams = StreamFactory::new(cfg.seed);
        let model = ChurnModel::new(cfg.churn);
        assert_eq!(
            world.nodes.schedules(),
            model.generate(&streams),
            "case {case}"
        );
        assert_eq!(
            world.nodes.topology(),
            Topology::random(cfg.n_nodes, cfg.degree, &streams),
            "case {case}"
        );
        let mut buf = Vec::new();
        for (v, &join) in model.join_times(&streams).iter().enumerate() {
            assert_eq!(
                world.nodes.schedule(NodeId(v)),
                model.node_schedule(&streams, v, join, &mut buf)
            );
            assert_eq!(
                world.nodes.neighbors(NodeId(v)),
                Topology::sample_neighbors(cfg.n_nodes, cfg.degree, &streams, NodeId(v))
            );
        }
    }
}

#[test]
fn uncached_liveness_matches_the_derived_schedule() {
    // Whole-world scans ask `is_up` without caching; the answer must equal
    // the whole-world schedule's at every probe of time, including session
    // boundaries.
    for case in 0..6u64 {
        let cfg = world_cfg(case);
        let world = World::generate(&cfg);
        let schedules = world.nodes.schedules();
        let mut cache = NodeCache::new(world.nodes.clone());
        for (v, sched) in schedules.iter().enumerate() {
            let mut times: Vec<f64> = sched.sessions().iter().flat_map(|&(s, e)| [s, e]).collect();
            times.extend((0..48).map(|k| f64::from(k) * 30.0));
            for t in times {
                let t = idpa_desim::SimTime::new(t);
                assert_eq!(
                    cache.is_up_uncached(NodeId(v), t),
                    sched.is_up(t),
                    "case {case} node {v} at {t:?}"
                );
            }
        }
        assert_eq!(cache.resident(), 0, "uncached reads cache nothing");
    }
}

/// A link's bandwidth is a function of the seed and the link alone: the
/// same in the paper-sized world, at N = 500 and in the million-node
/// scale scenario.
#[test]
fn link_bandwidth_does_not_depend_on_the_world_size() {
    let seed = 5;
    let paper = ScenarioConfig {
        seed,
        ..ScenarioConfig::default()
    };
    let small = World::generate(&paper);
    let mid = World::generate(&paper.with_nodes(500));
    let big = World::generate(&ScenarioConfig::scale_1m(seed));
    for (a, b) in [(0usize, 1usize), (3, 39), (17, 4), (38, 39)] {
        let bw = small.costs.bandwidth(a, b).to_bits();
        assert_eq!(mid.costs.bandwidth(a, b).to_bits(), bw, "N=500 ({a}, {b})");
        assert_eq!(big.costs.bandwidth(a, b).to_bits(), bw, "scale ({a}, {b})");
    }
}
