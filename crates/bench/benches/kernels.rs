//! Micro-benchmarks of the substrate kernels: event calendar throughput,
//! RNG and position-keyed stream derivation, per-link transmission cost,
//! selectivity lookups (indexed vs rescan), path formation, model II
//! lookahead (memoised vs naive recursion), probing, the crypto
//! primitives, the snapshot frame checksum and game solving.

use idpa_bench::harness::Harness;
use idpa_core::bundle::BundleId;
use idpa_core::contract::Contract;
use idpa_core::path::form_connection;
use idpa_core::quality::{EdgeQuality, Weights};
use idpa_core::routing::{
    continuation_quality_with, PathPolicy, RouteScratch, RoutingStrategy, RoutingView,
};
use idpa_core::utility::UtilityModel;
use idpa_core::HistoryArena;
use idpa_crypto::bigint::BigUint;
use idpa_crypto::blind::BlindingFactor;
use idpa_crypto::chacha20::ChaCha20;
use idpa_crypto::hmac::HmacKey;
use idpa_crypto::rsa::RsaKeyPair;
use idpa_crypto::sha256::Sha256;
use idpa_desim::rng::{StreamFactory, Xoshiro256StarStar};
use idpa_desim::{Calendar, SimTime};
use idpa_netmodel::{CostConfig, CostModel};
use idpa_overlay::{NodeId, NodeKind, ProbeEstimator, Topology};
use std::hint::black_box;

fn bench_calendar(h: &mut Harness) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(1);
    h.bench("desim/calendar_schedule_pop_10k", || {
        let mut cal = Calendar::new();
        for i in 0..10_000u32 {
            let t = (rng.next() % 1_000_000) as f64 / 1000.0;
            cal.schedule(SimTime::new(t), i);
        }
        let mut count = 0;
        while let Some(e) = cal.pop() {
            count += black_box(e.event) as u64;
        }
        count
    });
    let mut rng = Xoshiro256StarStar::seed_from_u64(2);
    h.bench("desim/xoshiro_1m_draws", || {
        let mut acc = 0u64;
        for _ in 0..1_000_000 {
            acc = acc.wrapping_add(rng.next());
        }
        acc
    });
}

/// Links whose derived bits the derivation arms pin, `(3, 999_999)` among
/// them: an N=10⁶ link.
const PINNED_LINKS: [(u64, u64); 4] = [(0, 1), (3, 999_999), (17, 42), (41, 40)];

/// Position-keyed stream derivation, one `stream_indexed2` and one draw
/// per call, over the `"bandwidth/edge"` label a link cost reads. The
/// pinned first draws catch any change to the derivation's bits.
fn bench_stream_derivation(h: &mut Harness) {
    const FIRST_DRAWS: [u64; 4] = [
        0xc24a_a82b_dc17_ac66,
        0xbbfb_e45b_07f8_7884,
        0x8f8e_1eef_26cb_7af9,
        0x3b1c_06db_9d1e_fcd4,
    ];
    let f = StreamFactory::new(1);
    for (&(a, b), &want) in PINNED_LINKS.iter().zip(&FIRST_DRAWS) {
        let got = f.stream_indexed2("bandwidth/edge", a, b).next();
        assert_eq!(got, want, "stream_indexed2 bits moved for ({a}, {b})");
    }
    let mut k = 0u64;
    h.bench("rng/stream_indexed2", || {
        k = k.wrapping_add(1);
        f.stream_indexed2("bandwidth/edge", black_box(k & 1023), black_box(k >> 10))
            .next()
    });
}

/// `C^t(i, j)` as routing reads it: one link-keyed stream derivation and
/// one uniform bandwidth draw per call, under the default cost config.
fn bench_transmission_cost(h: &mut Harness) {
    const COST_BITS: [u64; 4] = [
        0x3ff4_6ec8_e288_63b3,
        0x3ff5_073b_976b_39d3,
        0x3ffa_75c3_2a7a_330d,
        0x3ff1_4169_561d_3445,
    ];
    let costs = CostModel::new(CostConfig::default(), StreamFactory::new(1));
    for (&(a, b), &want) in PINNED_LINKS.iter().zip(&COST_BITS) {
        let got = costs.transmission_cost(a as usize, b as usize).to_bits();
        assert_eq!(got, want, "transmission_cost bits moved for ({a}, {b})");
    }
    let mut k = 0usize;
    h.bench("cost/transmission_cost", || {
        k = k.wrapping_add(1);
        costs.transmission_cost(black_box(k & 1023), black_box(1024 + (k >> 10)))
    });
}

struct BenchView {
    topology: Topology,
}

impl RoutingView for BenchView {
    fn live_neighbors_into(&self, s: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend_from_slice(self.topology.neighbors(s));
    }
    fn availability(&self, s: NodeId, v: NodeId) -> f64 {
        ((s.index() * 13 + v.index() * 7) % 100) as f64 / 100.0
    }
    fn transmission_cost(&self, _: NodeId, _: NodeId) -> f64 {
        1.0
    }
    fn participation_cost(&self, _: NodeId) -> f64 {
        5.0
    }
}

/// An arena where node 0 holds `records` hops on one bundle: the
/// selectivity-lookup workload.
fn loaded_history(records: u32) -> HistoryArena {
    let mut hist = HistoryArena::with_capacity(None);
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    use rand::RngExt;
    for conn in 0..records {
        let pred = NodeId(rng.random_range(1..8usize));
        let succ = NodeId(rng.random_range(8..16usize));
        hist.record_hop(NodeId(0), BundleId(0), conn, pred, succ);
    }
    hist
}

fn bench_selectivity(h: &mut Harness) {
    let hist = loaded_history(512);
    let priors = 512;
    // The indexed lookup must read exactly what a recount of the records
    // gives, or its timing below compares different answers.
    for v in (8..16).map(NodeId) {
        assert_eq!(
            hist.selectivity(NodeId(0), BundleId(0), priors, v)
                .to_bits(),
            hist.selectivity_rescan(NodeId(0), BundleId(0), priors, v)
                .to_bits(),
            "indexed σ toward {v:?} differs from the rescan"
        );
    }
    h.bench("history/selectivity_indexed_512", || {
        let mut acc = 0.0;
        for v in 8..16 {
            acc += hist.selectivity(NodeId(0), BundleId(0), priors, NodeId(v));
        }
        acc
    });
    h.bench("history/selectivity_rescan_512", || {
        let mut acc = 0.0;
        for v in 8..16 {
            acc += hist.selectivity_rescan(NodeId(0), BundleId(0), priors, NodeId(v));
        }
        acc
    });
}

/// The pre-memoisation model II recursion (the seed's algorithm), kept
/// here as the before-side of the lookahead speedup measurement.
#[allow(clippy::too_many_arguments)]
fn continuation_rec_nomemo(
    from: NodeId,
    depth: u8,
    contract: &Contract,
    priors: u32,
    histories: &HistoryArena,
    view: &impl RoutingView,
    quality: &EdgeQuality,
    visited: &mut Vec<NodeId>,
) -> (f64, usize) {
    let deliver = (quality.responder_edge(), 1usize);
    if depth == 0 {
        return deliver;
    }
    let mut best: Option<(f64, usize)> = None;
    let mut best_avg = f64::NEG_INFINITY;
    let mut neighbors = Vec::new();
    view.live_neighbors_into(from, &mut neighbors);
    for v in neighbors {
        if v == contract.responder || visited.contains(&v) {
            continue;
        }
        let q_edge = quality.edge(
            histories.selectivity(from, contract.bundle, priors, v),
            view.availability(from, v),
        );
        visited.push(v);
        let (tail_sum, tail_edges) = continuation_rec_nomemo(
            v,
            depth - 1,
            contract,
            priors,
            histories,
            view,
            quality,
            visited,
        );
        visited.pop();
        let cand = (q_edge + tail_sum, 1 + tail_edges);
        let cand_avg = cand.0 / cand.1 as f64;
        if cand_avg > best_avg + 1e-12 {
            best = Some(cand);
            best_avg = cand_avg;
        }
    }
    best.unwrap_or(deliver)
}

fn bench_model2_lookahead(h: &mut Harness) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(3);
    let view = BenchView {
        topology: Topology::random(40, 5, &StreamFactory::new(3)),
    };
    let contract = Contract::new(BundleId(0), NodeId(39), 50.0, 100.0);
    let quality = EdgeQuality::new(Weights::balanced());
    // Warmed-up histories, as mid-run routing sees them: every node has
    // prior records over its real neighbor edges.
    use rand::RngExt;
    let mut histories = HistoryArena::with_capacity(None);
    for i in 0..40 {
        let nbrs = view.topology.neighbors(NodeId(i));
        for conn in 0..64u32 {
            let pred = nbrs[rng.random_range(0..nbrs.len())];
            let succ = nbrs[rng.random_range(0..nbrs.len())];
            histories.record_hop(NodeId(i), BundleId(0), conn, pred, succ);
        }
    }
    let first_edge = |j: NodeId| {
        quality.edge(
            histories.selectivity(NodeId(0), BundleId(0), 20, j),
            view.availability(NodeId(0), j),
        )
    };
    // One transmission evaluates the continuation for every candidate of
    // every hop: approximate with all 5 neighbors of node 0.
    let candidates: Vec<NodeId> = view.topology.neighbors(NodeId(0)).to_vec();
    for la in [3u8, 4u8, 5u8] {
        let mut scratch = RouteScratch::new();
        h.bench(&format!("core/model2_cont_memo_la{la}"), || {
            scratch.begin_transmission();
            let mut acc = 0.0;
            for &j in &candidates {
                let q_edge = first_edge(j);
                acc += continuation_quality_with(
                    &mut scratch,
                    NodeId(0),
                    j,
                    q_edge,
                    la,
                    &contract,
                    20,
                    &histories,
                    &view,
                    &quality,
                );
            }
            acc
        });
        h.bench(&format!("core/model2_cont_nomemo_la{la}"), || {
            let mut acc = 0.0;
            for &j in &candidates {
                let q_edge = first_edge(j);
                let mut visited = vec![NodeId(0), j];
                let (total, edges) = continuation_rec_nomemo(
                    j,
                    la.saturating_sub(1),
                    &contract,
                    20,
                    &histories,
                    &view,
                    &quality,
                    &mut visited,
                );
                acc += (q_edge + total) / (1.0 + edges as f64);
            }
            acc
        });
    }
}

fn bench_path_formation(h: &mut Harness) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(3);
    let view = BenchView {
        topology: Topology::random(40, 5, &StreamFactory::new(3)),
    };
    let contract = Contract::new(BundleId(0), NodeId(39), 50.0, 100.0);
    let kinds = vec![NodeKind::Good; 40];
    let quality = EdgeQuality::new(Weights::balanced());
    let policy = PathPolicy::new(0.75, 8);

    for (label, strategy) in [
        ("core/path_random", RoutingStrategy::Random),
        (
            "core/path_model1",
            RoutingStrategy::Utility(UtilityModel::ModelI),
        ),
        (
            "core/path_model2_la2",
            RoutingStrategy::Utility(UtilityModel::ModelII { lookahead: 2 }),
        ),
        (
            "core/path_model2_la3",
            RoutingStrategy::Utility(UtilityModel::ModelII { lookahead: 3 }),
        ),
    ] {
        let mut histories = HistoryArena::with_capacity(None);
        let mut conn = 0u32;
        h.bench(label, || {
            let out = form_connection(
                NodeId(0),
                conn,
                &contract,
                conn.min(20),
                &view,
                &mut histories,
                &kinds,
                &quality,
                strategy,
                &policy,
                &mut rng,
            );
            conn += 1;
            out.forwarders.len()
        });
    }
}

fn bench_probing(h: &mut Harness) {
    let mut est = ProbeEstimator::new(NodeId(0), 5.0, (1..=5).map(NodeId).collect());
    let streams = idpa_desim::rng::StreamFactory::new(4);
    let mut round = 0u64;
    h.bench("overlay/probe_round_d5", || {
        round += 1;
        est.probe_round_seeded(&streams, |v| !(v.index() as u64 + round).is_multiple_of(3));
        est.availability(NodeId(1))
    });
}

/// Random degree-`d` neighbor sets over `n` nodes (distinct, non-self).
fn random_neighbor_sets(n: usize, d: usize, rng: &mut Xoshiro256StarStar) -> Vec<Vec<NodeId>> {
    use rand::RngExt;
    (0..n)
        .map(|i| {
            let mut nbrs: Vec<NodeId> = Vec::with_capacity(d);
            while nbrs.len() < d {
                let v = NodeId(rng.random_range(0..n));
                if v.index() != i && !nbrs.contains(&v) {
                    nbrs.push(v);
                }
            }
            nbrs
        })
        .collect()
}

/// The cost the lazy path avoids paying per tick: one full eager probe
/// sweep (probe round + neighbor maintenance for every node) at network
/// sizes where it dominates the event loop.
fn bench_probe_tick(h: &mut Harness) {
    use idpa_desim::rng::StreamFactory;
    for (n, d) in [(1_000usize, 8usize), (10_000, 32)] {
        let streams = StreamFactory::new(11);
        let mut topo_rng = Xoshiro256StarStar::seed_from_u64(9);
        let sets = random_neighbor_sets(n, d, &mut topo_rng);
        let mut ests: Vec<ProbeEstimator> = sets
            .into_iter()
            .enumerate()
            .map(|(i, nbrs)| ProbeEstimator::new(NodeId(i), 5.0, nbrs))
            .collect();
        let mut round = 0u64;
        h.bench(&format!("overlay/probe_tick_eager_n{n}_d{d}"), || {
            round += 1;
            for est in &mut ests {
                est.probe_round_seeded(&streams, |v| !(v.index() as u64 + round).is_multiple_of(3));
                est.maintain_seeded(&streams, 6, n);
            }
            ests[0].rounds()
        });
    }
}

/// Lazy catch-up after a long idle gap: nothing read any probe state for
/// a full day of churn (288 probe ticks at T = 5), then the whole
/// network's cells are synchronised at once. The lazy set does one
/// closed-form advance per (node, slot) — O(session intervals) — where
/// the eager estimator replays every probe of every tick.
fn bench_lazy_catchup(h: &mut Harness) {
    use idpa_netmodel::NodeSchedule;
    use idpa_overlay::LazyProbeSet;

    let n = 256usize;
    let d = 8usize;
    let period = 5.0;
    let horizon = 24.0 * 60.0; // 288 probe ticks
    let mut topo_rng = Xoshiro256StarStar::seed_from_u64(10);
    let sets = random_neighbor_sets(n, d, &mut topo_rng);
    // Alternating sessions staggered by node index so probes see a mix of
    // live and silent neighbors.
    let schedules: Vec<NodeSchedule> = (0..n)
        .map(|i| {
            let mut sessions = Vec::new();
            let mut t = (i % 7) as f64 * 3.0;
            while t < horizon {
                let up = 40.0 + (i % 5) as f64 * 25.0;
                sessions.push((t, (t + up).min(horizon)));
                t += up + 20.0 + (i % 3) as f64 * 15.0;
            }
            NodeSchedule::from_sessions(sessions)
        })
        .collect();
    let streams = StreamFactory::new(11);
    let pristine = LazyProbeSet::new_sparse(
        period,
        horizon,
        idpa_overlay::NodeSource::from_tables(
            schedules.clone(),
            idpa_overlay::Topology::from_lists(sets.clone()),
        ),
        None,
        streams.clone(),
    );
    // Every cell resident and synced to tick 0, so the timed closure does
    // only the catch-up.
    for i in 0..n {
        pristine.sync_node(NodeId(i), 0.0);
    }
    h.bench("overlay/lazy_catchup_all_288_ticks", || {
        let mut set = pristine.clone();
        set.sync_all(horizon);
        set.session_time(NodeId(0), sets[0][0], horizon)
    });
    h.bench("overlay/eager_replay_all_288_ticks", || {
        let mut ests: Vec<ProbeEstimator> = sets
            .iter()
            .enumerate()
            .map(|(i, nbrs)| ProbeEstimator::new(NodeId(i), period, nbrs.clone()))
            .collect();
        for k in 1.. {
            let t = k as f64 * period;
            if t >= horizon {
                break;
            }
            let now = idpa_desim::SimTime::new(t);
            for est in &mut ests {
                if !schedules[est.owner().index()].is_up(now) {
                    continue;
                }
                est.probe_round_seeded(&streams, |v| schedules[v.index()].is_up(now));
            }
        }
        ests[0].session_time(sets[0][0])
    });
}

fn bench_crypto(h: &mut Harness) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(5);
    let keys = RsaKeyPair::generate(512, &mut rng);

    let m = BigUint::from_u64(0xdead_beef);
    h.bench("crypto/rsa512_sign_montgomery", || keys.raw_sign(&m));
    {
        // The same-width exponentiation without the Montgomery fast path:
        // a dense 511-bit exponent driven through division-based modpow.
        let n = keys.public().modulus().clone();
        let mut fake_d = BigUint::zero();
        for i in 0..n.bits() - 1 {
            if i % 2 == 0 {
                fake_d.set_bit(i);
            }
        }
        h.bench("crypto/rsa512_sign_plain_modpow", || m.modpow(&fake_d, &n));
    }
    let sig = keys.raw_sign(&m);
    h.bench("crypto/rsa512_verify", || keys.public().raw_verify(&sig));
    {
        // The uncached verification path the seed shipped (division-based
        // modpow, no shared Montgomery context) — the before-side of the
        // cached-context speedup that `crypto/rsa512_verify` now measures.
        let n = keys.public().modulus().clone();
        let e = keys.public().exponent().clone();
        h.bench("crypto/rsa512_verify_plain_modpow", || sig.modpow(&e, &n));
    }
    {
        // Strict individual verification of one settlement-sized batch —
        // what `Bank::deposit_batch` does per token.
        let items: Vec<(BigUint, BigUint)> = (0..256u64)
            .map(|i| {
                let m = BigUint::from_bytes_be(&Sha256::digest(&i.to_be_bytes()))
                    .rem(keys.public().modulus());
                (keys.raw_sign(&m), m)
            })
            .collect();
        h.bench("crypto/rsa512_individual_verify_256", || {
            items
                .iter()
                .filter(|(sig, m)| &keys.public().raw_verify(sig) == m)
                .count()
        });
    }
    h.bench("crypto/blind_unblind", || {
        let bf = BlindingFactor::random(keys.public(), &mut rng);
        let blinded = bf.blind(keys.public(), &m);
        let sig = keys.raw_sign(&blinded);
        bf.unblind(keys.public(), &sig)
    });
    let data = vec![0xabu8; 4096];
    h.bench("crypto/sha256_4k", || Sha256::digest(&data));
    {
        // One receipt MAC under a bundle's prepared key: the 24-byte
        // `bundle ‖ connection ‖ hop ‖ forwarder` message of settlement.
        let bundle_key = HmacKey::new(&[9u8; 32]);
        let msg = [0x5au8; 24];
        h.bench("crypto/hmac_receipt", || bundle_key.mac(black_box(&msg)));
    }
    let key = [7u8; 32];
    let nonce = [1u8; 12];
    let zeros = vec![0u8; 4096];
    h.bench("crypto/chacha20_4k", || {
        ChaCha20::encrypt(&key, &nonce, &zeros)
    });
}

fn bench_codec(h: &mut Harness) {
    // Checksum of a 1 MiB snapshot payload (a service-mode checkpoint
    // frames ~0.65 MiB).
    let payload: Vec<u8> = (0..1u32 << 20).map(|i| (i % 251) as u8).collect();
    h.bench("codec/frame_checksum_1m", || {
        idpa_desim::codec::frame_checksum(black_box(&payload))
    });
}

fn bench_games(h: &mut Harness) {
    use idpa_game::NormalFormGame;
    let game = NormalFormGame::from_fn(vec![3, 3, 3], |p| p.iter().map(|&s| s as f64).collect());
    h.bench("game/iterated_elimination_3x3x3", || {
        game.iterated_elimination()
    });
}

fn main() {
    let mut h = Harness::new();
    bench_calendar(&mut h);
    bench_stream_derivation(&mut h);
    bench_transmission_cost(&mut h);
    bench_selectivity(&mut h);
    bench_model2_lookahead(&mut h);
    bench_path_formation(&mut h);
    bench_probing(&mut h);
    bench_probe_tick(&mut h);
    bench_lazy_catchup(&mut h);
    bench_crypto(&mut h);
    bench_codec(&mut h);
    bench_games(&mut h);
    h.write_json_default().expect("write bench report");
}
