//! Property-based tests over the core data structures and invariants.
//!
//! Randomized with fixed-seed Xoshiro256** streams (in-tree, offline)
//! instead of an external property-testing framework: every property runs
//! a few hundred generated cases and is exactly reproducible.

use idpa::core::bundle::BundleAccounting;
use idpa::core::metrics::{anonymity_degree, entropy_bits, ReformationTracker};
use idpa::crypto::bigint::BigUint;
use idpa::desim::calendar::Calendar;
use idpa::desim::stats::{Ecdf, OnlineStats};
use idpa::netmodel::{ChurnConfig, ChurnModel, Pareto};
use idpa::prelude::*;
use rand::RngExt as _;

const CASES: usize = 256;

fn rng(seed: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seed_from_u64(seed)
}

fn random_len(r: &mut Xoshiro256StarStar, lo: usize, hi: usize) -> usize {
    lo + (r.next() as usize) % (hi - lo)
}

fn random_u64s(r: &mut Xoshiro256StarStar, lo: usize, hi: usize) -> Vec<u64> {
    let n = random_len(r, lo, hi);
    (0..n).map(|_| r.next()).collect()
}

fn random_f64s(r: &mut Xoshiro256StarStar, lo: f64, hi: f64, min: usize, max: usize) -> Vec<f64> {
    let n = random_len(r, min, max);
    (0..n)
        .map(|_| lo + r.random_range(0.0..1.0) * (hi - lo))
        .collect()
}

fn biguint_from(parts: &[u64]) -> BigUint {
    // Build from big-endian bytes of the parts.
    let bytes: Vec<u8> = parts.iter().flat_map(|p| p.to_be_bytes()).collect();
    BigUint::from_bytes_be(&bytes)
}

// ---------------- bigint ------------------------------------------

/// Division reconstruction: a = q*b + r with r < b, for arbitrary widths
/// (covers the Knuth Algorithm D path).
#[test]
fn bigint_divrem_reconstructs() {
    let mut r = rng(0x3001);
    let mut ran = 0;
    while ran < CASES {
        let a = biguint_from(&random_u64s(&mut r, 1, 6));
        let b = biguint_from(&random_u64s(&mut r, 1, 4));
        if b.is_zero() {
            continue;
        }
        ran += 1;
        let (q, rem) = a.divrem(&b);
        assert!(rem < b);
        assert_eq!(q.mul(&b).add(&rem), a);
    }
}

/// Add/sub round trip.
#[test]
fn bigint_add_sub_round_trip() {
    let mut r = rng(0x3002);
    for _ in 0..CASES {
        let a = biguint_from(&random_u64s(&mut r, 1, 5));
        let b = biguint_from(&random_u64s(&mut r, 1, 5));
        assert_eq!(a.add(&b).sub(&b), a);
    }
}

/// Multiplication is commutative and distributes over addition.
#[test]
fn bigint_mul_laws() {
    let mut r = rng(0x3003);
    for _ in 0..CASES {
        let a = BigUint::from_u64(r.next());
        let b = BigUint::from_u64(r.next());
        let c = BigUint::from_u64(r.next());
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }
}

/// Byte serialisation round-trips.
#[test]
fn bigint_bytes_round_trip() {
    let mut r = rng(0x3004);
    for _ in 0..CASES {
        let len = random_len(&mut r, 0, 64);
        let bytes: Vec<u8> = (0..len).map(|_| (r.next() & 0xff) as u8).collect();
        let n = BigUint::from_bytes_be(&bytes);
        let back = BigUint::from_bytes_be(&n.to_bytes_be());
        assert_eq!(n, back);
    }
}

/// Modular inverse, when it exists, actually inverts.
#[test]
fn bigint_mod_inverse_inverts() {
    let mut r = rng(0x3005);
    for _ in 0..CASES {
        let a = BigUint::from_u64(1 + r.next() % (u64::MAX - 1));
        let m = BigUint::from_u64(3 + r.next() % (u64::MAX - 3));
        if let Some(inv) = a.mod_inverse(&m) {
            assert_eq!(a.mulmod(&inv, &m), BigUint::one());
        }
    }
}

// ---------------- stats -------------------------------------------

/// OnlineStats::merge equals pushing everything into one collector.
#[test]
fn stats_merge_is_concatenation() {
    let mut r = rng(0x3006);
    for _ in 0..CASES {
        let xs = random_f64s(&mut r, -1e6, 1e6, 0, 50);
        let ys = random_f64s(&mut r, -1e6, 1e6, 0, 50);
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            a.push(x);
            whole.push(x);
        }
        for &y in &ys {
            b.push(y);
            whole.push(y);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        if whole.count() > 0 {
            assert!((a.mean() - whole.mean()).abs() < 1e-6);
            assert!((a.variance() - whole.variance()).abs() < 1e-3);
        }
    }
}

/// ECDF is monotone non-decreasing and bounded by [0, 1].
#[test]
fn ecdf_is_monotone() {
    let mut r = rng(0x3007);
    for _ in 0..CASES {
        let xs = random_f64s(&mut r, -1e3, 1e3, 1, 100);
        let probes = random_f64s(&mut r, -2e3, 2e3, 2, 20);
        let mut e = Ecdf::from_samples(xs);
        let mut sorted = probes;
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for p in sorted {
            let v = e.eval(p);
            assert!((0.0..=1.0).contains(&v));
            assert!(v >= prev);
            prev = v;
        }
    }
}

/// Every quantile is an element of the sample.
#[test]
fn ecdf_quantile_is_a_sample() {
    let mut r = rng(0x3008);
    for _ in 0..CASES {
        let xs = random_f64s(&mut r, -1e3, 1e3, 1, 50);
        let q = r.random_range(0.0..1.0);
        let mut e = Ecdf::from_samples(xs.clone());
        let v = e.quantile(q);
        assert!(xs.contains(&v));
    }
}

// ---------------- desim calendar ------------------------------------

/// The calendar pops every scheduled event exactly once, in
/// non-decreasing time order.
#[test]
fn calendar_pops_sorted_and_complete() {
    let mut r = rng(0x3009);
    for _ in 0..CASES {
        let times = random_f64s(&mut r, 0.0, 1e4, 0, 200);
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(SimTime::new(t), i);
        }
        let mut popped = Vec::new();
        let mut prev = SimTime::ZERO;
        while let Some(entry) = cal.pop() {
            assert!(entry.time >= prev);
            prev = entry.time;
            popped.push(entry.event);
        }
        popped.sort_unstable();
        assert_eq!(popped, (0..times.len()).collect::<Vec<_>>());
    }
}

// ---------------- netmodel ------------------------------------------

/// Pareto samples never fall below the scale parameter and the CDF at
/// the empirical median is near 1/2.
#[test]
fn pareto_respects_support() {
    let mut r = rng(0x300a);
    for _ in 0..CASES {
        let median = 1.0 + r.random_range(0.0..1.0) * 999.0;
        let shape = 0.5 + r.random_range(0.0..1.0) * 4.5;
        let d = Pareto::from_median(median, shape);
        let mut sample_rng = Xoshiro256StarStar::seed_from_u64(r.next());
        for _ in 0..100 {
            let x = d.sample(&mut sample_rng);
            assert!(x >= d.scale());
            assert!((0.0..=1.0).contains(&d.cdf(x)));
        }
        assert!((d.cdf(median) - 0.5).abs() < 1e-9);
    }
}

/// Churn schedules are sorted, disjoint, within the horizon, and
/// availability lies in [0, 1].
#[test]
fn churn_schedules_are_wellformed() {
    let mut r = rng(0x300b);
    // Schedule generation over a full horizon is the expensive kernel
    // here; a reduced case count keeps the suite fast.
    for _ in 0..CASES / 4 {
        let n = random_len(&mut r, 1, 30);
        let cfg = ChurnConfig {
            n_nodes: n,
            ..ChurnConfig::default()
        };
        let scheds = ChurnModel::new(cfg).generate(&StreamFactory::new(r.next()));
        for s in &scheds {
            let mut prev_end = 0.0;
            for &(a, b) in s.sessions() {
                assert!(a < b);
                assert!(a >= prev_end);
                assert!(b <= cfg.horizon + 1e-9);
                prev_end = b;
            }
            let avail = s.availability();
            assert!((0.0..=1.0 + 1e-9).contains(&avail));
        }
    }
}

// ---------------- overlay -------------------------------------------

/// Random topologies always have exact degree, no self-loops, no
/// duplicates.
#[test]
fn topology_invariants() {
    let mut r = rng(0x300c);
    for _ in 0..CASES {
        let n = random_len(&mut r, 2, 40);
        let d = (n - 1).min(5);
        let t = Topology::random(n, d, &StreamFactory::new(r.next()));
        for i in 0..n {
            let nbrs = t.neighbors(NodeId(i));
            assert_eq!(nbrs.len(), d);
            assert!(nbrs.iter().all(|v| v.index() != i));
            let mut uniq = nbrs.to_vec();
            uniq.dedup();
            assert_eq!(uniq.len(), d);
        }
    }
}

/// Probe availability estimates sum to 1 over the neighbor set once
/// anything was observed, and each lies in [0, 1].
#[test]
fn probe_availability_is_a_distribution() {
    let mut r = rng(0x300d);
    for _ in 0..CASES {
        let rounds = random_len(&mut r, 1, 30);
        let liveness: Vec<[bool; 4]> = (0..rounds)
            .map(|_| {
                let bits = r.next();
                [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0, bits & 8 != 0]
            })
            .collect();
        let mut est = ProbeEstimator::new(NodeId(0), 1.0, (1..=4).map(NodeId).collect());
        let streams = StreamFactory::new(r.next());
        let mut anything = false;
        for round in &liveness {
            anything |= round.iter().any(|&b| b);
            est.probe_round_seeded(&streams, |v| round[v.index() - 1]);
        }
        let total: f64 = (1..=4).map(|i| est.availability(NodeId(i))).sum();
        if anything {
            assert!((total - 1.0).abs() < 1e-9, "total {total}");
        } else {
            assert_eq!(total, 0.0);
        }
    }
}

// ---------------- core ----------------------------------------------

/// Selectivity is a probability and the per-target selectivities over
/// one predecessor sum to at most 1.
#[test]
fn selectivity_is_bounded() {
    let mut r = rng(0x300e);
    for _ in 0..CASES {
        let n_records = random_len(&mut r, 0, 30);
        let succs: Vec<usize> = (0..n_records).map(|_| (r.next() % 5) as usize).collect();
        let mut h = HistoryArena::with_capacity(None);
        for (conn, &s) in succs.iter().enumerate() {
            h.record_hop(NodeId(9), BundleId(0), conn as u32, NodeId(8), NodeId(s));
        }
        let priors = succs.len() as u32;
        let mut total = 0.0;
        for v in 0..5 {
            let sigma = h.selectivity(NodeId(9), BundleId(0), priors, NodeId(v));
            assert!((0.0..=1.0).contains(&sigma));
            total += sigma;
        }
        assert!(total <= 1.0 + 1e-9);
    }
}

/// Bundle payoffs: gross benefits over a bundle sum to
/// `instances*P_f + P_r` (the routing pool is fully distributed).
#[test]
fn bundle_benefit_conservation() {
    let mut r = rng(0x300f);
    for _ in 0..CASES {
        let n_paths = random_len(&mut r, 1, 10);
        let pf = 1.0 + r.random_range(0.0..1.0) * 99.0;
        let pr = r.random_range(0.0..1.0) * 400.0;
        let mut b = BundleAccounting::new();
        let mut total_instances = 0usize;
        for _ in 0..n_paths {
            let len = random_len(&mut r, 1, 5);
            let nodes: Vec<NodeId> = (0..len).map(|_| NodeId((r.next() % 8) as usize)).collect();
            let costs = vec![0.0; nodes.len()];
            total_instances += nodes.len();
            b.record_connection(&nodes, &costs);
        }
        let gross: f64 = b
            .forwarder_set()
            .iter()
            .map(|&f| b.gross_benefit(f, pf, pr))
            .sum();
        let expect = total_instances as f64 * pf + pr;
        assert!(
            (gross - expect).abs() < 1e-6,
            "gross {gross} expect {expect}"
        );
    }
}

/// The reformation tracker's new-edge fraction is a probability, and
/// replaying identical paths drives it down monotonically.
#[test]
fn reformation_fraction_bounded() {
    let mut r = rng(0x3010);
    for _ in 0..CASES {
        let n_edges = random_len(&mut r, 1, 10);
        let path: Vec<(NodeId, NodeId)> = (0..n_edges)
            .map(|_| {
                (
                    NodeId((r.next() % 10) as usize),
                    NodeId((r.next() % 10) as usize),
                )
            })
            .collect();
        let reps = random_len(&mut r, 1, 10);
        let mut t = ReformationTracker::new();
        let mut prev = 1.0;
        for _ in 0..reps {
            t.record(&path);
            let frac = t.new_edge_fraction();
            assert!((0.0..=1.0).contains(&frac));
            assert!(frac <= prev + 1e-12);
            prev = frac;
        }
    }
}

/// Entropy-based degree of anonymity stays in [0, 1] for arbitrary
/// normalised distributions.
#[test]
fn anonymity_degree_bounded() {
    let mut r = rng(0x3011);
    for _ in 0..CASES {
        let n = random_len(&mut r, 2, 20);
        let weights: Vec<f64> = (0..n)
            .map(|_| 0.01 + r.random_range(0.0..1.0) * 9.99)
            .collect();
        let total: f64 = weights.iter().sum();
        let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let h = entropy_bits(&probs);
        assert!(h >= 0.0);
        let d = anonymity_degree(&probs);
        assert!((0.0..=1.0 + 1e-9).contains(&d));
    }
}
