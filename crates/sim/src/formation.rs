//! Parallel connection-bundle formation over the sharded history arena.
//!
//! The event-loop runner interleaves every pair's transmissions on one
//! timeline; this module is the throughput-oriented alternative for
//! studies that only need the formed bundles: it forms each (I, R) pair's
//! whole connection bundle independently, so disjoint initiator sets
//! proceed in parallel on the deterministic pool
//! ([`idpa_desim::pool::parallel_map_items`]).
//!
//! # Why this parallelism is safe (and bit-identical)
//!
//! * **History is bundle-scoped and owner-private** (§2.3): a routing
//!   decision for bundle `p` reads only selectivity *for bundle `p`*, and
//!   bundle `p`'s records are written only by pair `p`'s own
//!   transmissions. A worker forming pair `p` therefore serves every
//!   history read from its private [`BundleMirror`] — value-identical to
//!   reading the shared store — and takes shard locks only to commit.
//! * **Commits are deterministic**: a worker commits each formed path to
//!   its mirror immediately (feeding the next connection's reads) and
//!   flushes the finished bundle into the shared [`HistoryArena`] as one
//!   bulk [`HistoryArena::absorb_mirror`] per pair, which locks the
//!   covering shards in ascending order keyed by `NodeId`.
//!   Per-`(node, bundle)` record order is the pair's own connection
//!   order, independent of how workers interleave.
//! * **Everything else a worker reads is immutable or position-keyed**:
//!   costs, a per-pair RNG stream keyed by position
//!   (`stream_indexed2("formation/path", pair, 0)`, never by thread), and
//!   the nodes' schedules and neighbor sets, which each worker derives
//!   into its own [`NodeCache`] from the world's immutable
//!   [`idpa_overlay::NodeSource`] — the same bits on every thread.
//!
//! Consequently [`form_bundles_sharded`] returns the same outcomes for
//! every `(shard count, thread count)` combination, equal to the
//! sequential [`form_bundles_global`] baseline over a flat
//! `Vec<HistoryProfile>` — pinned by `tests/shard_invariance.rs`.

use std::cell::RefCell;

use idpa_core::arena::{BundleMirror, HistoryArena};
use idpa_core::bundle::BundleId;
use idpa_core::contract::Contract;
use idpa_core::history::{HistoryProfile, HistoryRead};
use idpa_core::path::{form_connection_pending, PathOutcome, PendingConnection};
use idpa_core::quality::{EdgeQuality, Weights};
use idpa_core::routing::{RouteScratch, RoutingView};
use idpa_desim::pool::parallel_map_items;
use idpa_desim::rng::StreamFactory;
use idpa_overlay::{NodeCache, NodeId};

use crate::scenario::ScenarioConfig;
use crate::world::World;

/// The formed connection bundle of one (I, R) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairFormation {
    /// Index of the pair in `world.pairs`.
    pub pair: usize,
    /// One outcome per scheduled transmission, in connection order.
    pub outcomes: Vec<PathOutcome>,
}

/// One unit of pool work: a group of pairs formed by one worker pass,
/// carrying the shard set so the scheduler (and the reader of a trace)
/// knows which arena locks the item's commits will touch.
#[derive(Debug, Clone)]
pub struct FormationItem {
    /// Arena shards hosting this item's initiators, sorted ascending
    /// (a single shard under [`partition_pairs`]'s locality split,
    /// possibly several under [`partition_pairs_balanced`]).
    pub shards: Vec<usize>,
    /// Pair indices formed by this item, in pair order.
    pub pairs: Vec<usize>,
}

/// Groups pairs by the home shard of their initiator, ascending by shard
/// id, preserving pair order within each item. The grouping only affects
/// scheduling — per-pair results are independent of it.
///
/// This is the original, locality-first split. Under skewed workloads
/// (one popular initiator region owning most of the scheduled depth) it
/// starves workers: a single item carries almost all the work while the
/// rest finish early and idle. [`partition_pairs_balanced`] is the
/// depth-aware replacement [`form_bundles_sharded`] uses.
#[must_use]
pub fn partition_pairs(world: &World, arena: &HistoryArena) -> Vec<FormationItem> {
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); arena.shard_count()];
    for (pair, wl) in world.pairs.iter().enumerate() {
        buckets[arena.shard_of(wl.initiator)].push(pair);
    }
    buckets
        .into_iter()
        .enumerate()
        .filter(|(_, pairs)| !pairs.is_empty())
        .map(|(shard, pairs)| FormationItem {
            shards: vec![shard],
            pairs,
        })
        .collect()
}

/// Groups pairs into `buckets` depth-balanced work items: pairs are
/// ordered by descending estimated bundle depth (their scheduled
/// connection count — known exactly up front, since the workload is
/// pre-sampled), ties broken by ascending pair index, and dealt
/// round-robin. The deal is fully deterministic, and per-pair results are
/// independent of grouping (each pair forms against its private mirror
/// with a position-keyed RNG stream and commits in one bulk absorb), so
/// results are bit-identical to any other split — only wall-clock balance
/// changes. Each item records the arena shards its commits will touch,
/// sorted ascending.
#[must_use]
pub fn partition_pairs_balanced(
    world: &World,
    arena: &HistoryArena,
    buckets: usize,
) -> Vec<FormationItem> {
    let buckets = buckets.max(1).min(world.pairs.len().max(1));
    let mut order: Vec<usize> = (0..world.pairs.len()).collect();
    order.sort_by(|&a, &b| {
        world.pairs[b]
            .times
            .len()
            .cmp(&world.pairs[a].times.len())
            .then(a.cmp(&b))
    });
    let mut items: Vec<FormationItem> = (0..buckets)
        .map(|_| FormationItem {
            shards: Vec::new(),
            pairs: Vec::new(),
        })
        .collect();
    for (i, &pair) in order.iter().enumerate() {
        items[i % buckets].pairs.push(pair);
    }
    for item in &mut items {
        let mut shards: Vec<usize> = item
            .pairs
            .iter()
            .map(|&p| arena.shard_of(world.pairs[p].initiator))
            .collect();
        shards.sort_unstable();
        shards.dedup();
        item.shards = shards;
    }
    items.retain(|item| !item.pairs.is_empty());
    items
}

/// Liveness snapshot with per-query memoization: routing's lookahead
/// revisits the same nodes many times per connection, so each
/// `is_up(now)` binary search is answered once and cached until the
/// snapshot time changes.
///
/// One cache serves every pair a worker forms, so each worker derives a
/// node's schedule and neighbor set at most once.
struct LiveCache {
    /// The derived schedules and neighbor sets this worker has read.
    nodes: NodeCache,
    /// 0 = unknown, 1 = up, 2 = down, per node.
    state: Vec<u8>,
    touched: Vec<usize>,
}

impl LiveCache {
    fn new(world: &World) -> RefCell<Self> {
        RefCell::new(LiveCache {
            nodes: NodeCache::new(world.nodes.clone()),
            state: vec![0; world.nodes.len()],
            touched: Vec::new(),
        })
    }
}

/// Routing view of one pair's formation: topology neighbors filtered by
/// the analytic churn schedule at the connection's scheduled time, the
/// schedule's long-run availability as `α`, and the world cost model.
struct FormationView<'w> {
    world: &'w World,
    now: idpa_desim::SimTime,
    live: &'w RefCell<LiveCache>,
}

impl<'w> FormationView<'w> {
    fn new(world: &'w World, live: &'w RefCell<LiveCache>) -> Self {
        FormationView {
            world,
            now: idpa_desim::SimTime::ZERO,
            live,
        }
    }

    /// Moves the snapshot to a new time, invalidating the liveness cache.
    fn set_now(&mut self, now: f64) {
        self.now = idpa_desim::SimTime::new(now);
        let cache = &mut *self.live.borrow_mut();
        for &i in &cache.touched {
            cache.state[i] = 0;
        }
        cache.touched.clear();
    }

    fn is_up(&self, v: NodeId) -> bool {
        let mut cache = self.live.borrow_mut();
        let i = v.index();
        if cache.state[i] == 0 {
            cache.state[i] = if cache.nodes.touch(v, 0).is_up(self.now) {
                1
            } else {
                2
            };
            cache.touched.push(i);
        }
        cache.state[i] == 1
    }
}

impl RoutingView for FormationView<'_> {
    fn live_neighbors(&self, s: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.live_neighbors_into(s, &mut out);
        out
    }

    fn live_neighbors_into(&self, s: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        {
            let mut cache = self.live.borrow_mut();
            out.extend_from_slice(cache.nodes.neighbors(s, 0));
        }
        out.retain(|&v| self.is_up(v));
    }

    fn availability(&self, _s: NodeId, v: NodeId) -> f64 {
        self.live.borrow_mut().nodes.availability(v, 0)
    }

    fn transmission_cost(&self, s: NodeId, v: NodeId) -> f64 {
        self.world.costs.transmission_cost(s.index(), v.index())
    }

    fn participation_cost(&self, s: NodeId) -> f64 {
        let _ = s;
        self.world.costs.participation_cost()
    }
}

/// Read adapter over a `RefCell`-guarded mutable history store, so one
/// store can serve immutable reads during formation and mutable commits
/// between connections. Both the global baseline and the sharded workers
/// route reads through this adapter, keeping the per-query overhead
/// identical across the arms the bench compares.
struct CellReads<'a, 'm, H: ?Sized> {
    cell: &'a RefCell<&'m mut H>,
}

impl<H: HistoryRead + ?Sized> HistoryRead for CellReads<'_, '_, H> {
    fn selectivity_at(&self, s: NodeId, bundle: BundleId, priors: u32, v: NodeId) -> f64 {
        self.cell.borrow().selectivity_at(s, bundle, priors, v)
    }

    fn selectivity_from_at(
        &self,
        s: NodeId,
        bundle: BundleId,
        priors: u32,
        predecessor: NodeId,
        v: NodeId,
    ) -> f64 {
        self.cell
            .borrow()
            .selectivity_from_at(s, bundle, priors, predecessor, v)
    }
}

/// Shared per-run inputs, computed once and read by every worker.
struct FormationCtx<'w> {
    world: &'w World,
    cfg: &'w ScenarioConfig,
    streams: StreamFactory,
    quality: EdgeQuality,
}

impl<'w> FormationCtx<'w> {
    fn new(world: &'w World, cfg: &'w ScenarioConfig) -> Self {
        FormationCtx {
            world,
            cfg,
            streams: StreamFactory::new(cfg.seed),
            quality: EdgeQuality::new(Weights::new(cfg.weights.0, cfg.weights.1)),
        }
    }

    /// Forms every connection of one pair, reading history from `reads`
    /// and handing each pending path to `commit`. The RNG stream is keyed
    /// by pair position, so formation is independent of scheduling.
    fn form_pair<H, F>(
        &self,
        pair: usize,
        scratch: &mut RouteScratch,
        live: &RefCell<LiveCache>,
        reads: &H,
        mut commit: F,
    ) -> PairFormation
    where
        H: HistoryRead + ?Sized,
        F: FnMut(&PendingConnection, u32),
    {
        let wl = &self.world.pairs[pair];
        let bundle = BundleId(pair as u64);
        let contract = Contract::from_tau(bundle, wl.responder, wl.pf, self.cfg.tau);
        let mut rng = self
            .streams
            .stream_indexed2("formation/path", pair as u64, 0);
        let mut view = FormationView::new(self.world, live);
        let mut outcomes = Vec::with_capacity(wl.times.len());
        for (conn, &t) in wl.times.iter().enumerate() {
            view.set_now(t);
            let pending = form_connection_pending(
                scratch,
                wl.initiator,
                &contract,
                conn as u32,
                &view,
                reads,
                &self.world.kinds,
                &self.quality,
                self.cfg.good_strategy,
                self.cfg.adversary_strategy,
                &self.cfg.policy,
                &mut rng,
            );
            commit(&pending, conn as u32);
            outcomes.push(pending.into_outcome());
        }
        PairFormation { pair, outcomes }
    }
}

/// Sequential pair-grouped formation against a flat `Vec<HistoryProfile>`
/// — the single-threaded reference [`form_bundles_sharded`] must
/// reproduce bit-for-bit at every shard and thread count.
#[must_use]
pub fn form_bundles_global(
    world: &World,
    cfg: &ScenarioConfig,
    histories: &mut Vec<HistoryProfile>,
) -> Vec<PairFormation> {
    let ctx = FormationCtx::new(world, cfg);
    let mut scratch = RouteScratch::new();
    let live = LiveCache::new(world);
    let cell = RefCell::new(histories);
    (0..world.pairs.len())
        .map(|pair| {
            let bundle = BundleId(pair as u64);
            let reads = CellReads { cell: &cell };
            ctx.form_pair(pair, &mut scratch, &live, &reads, |pending, conn| {
                pending.commit(bundle, conn, &mut **cell.borrow_mut());
            })
        })
        .collect()
}

/// Parallel sharded formation: work items (pairs grouped by initiator
/// home shard) run on `threads` pool workers; each worker serves every
/// history read from its private [`BundleMirror`], commits formed paths
/// to the mirror as it goes, and flushes the finished bundle into the
/// shared arena in one bulk [`HistoryArena::absorb_mirror`] commit per
/// pair (covering shards locked in ascending order). Bit-identical to
/// [`form_bundles_global`] at every `(shard, thread)` combination — see
/// the module docs.
#[must_use]
pub fn form_bundles_sharded(
    world: &World,
    cfg: &ScenarioConfig,
    arena: &HistoryArena,
    threads: usize,
) -> Vec<PairFormation> {
    // Depth-balanced split (one bucket per shard's worth of parallelism):
    // under Zipf-skewed workloads the locality split starves workers,
    // while regrouping is value-invisible — see `partition_pairs_balanced`.
    let items = partition_pairs_balanced(world, arena, arena.shard_count());
    form_bundles_items(world, cfg, arena, threads, &items)
}

/// Runs the parallel executor over an explicit work-item split. Results
/// are independent of the split (see the module docs) — this entry point
/// exists so equivalence tests can pin that claim by driving the same
/// machinery with different partitions.
#[must_use]
pub fn form_bundles_items(
    world: &World,
    cfg: &ScenarioConfig,
    arena: &HistoryArena,
    threads: usize,
    items: &[FormationItem],
) -> Vec<PairFormation> {
    let ctx = FormationCtx::new(world, cfg);
    // Each worker keeps one scratch, one node cache and one mirror for
    // every item it takes: the cache is value-invisible, so which worker
    // derived a node first never changes a result.
    let worker = || {
        (
            RouteScratch::new(),
            LiveCache::new(world),
            BundleMirror::new(BundleId(0), cfg.history_capacity),
        )
    };
    let formed: Vec<Vec<PairFormation>> = parallel_map_items(
        threads,
        items,
        worker,
        |(scratch, live, mirror), _, item| {
            item.pairs
                .iter()
                .map(|&pair| {
                    let bundle = BundleId(pair as u64);
                    mirror.reset(bundle);
                    let formed = {
                        let cell = RefCell::new(&mut *mirror);
                        let reads = CellReads { cell: &cell };
                        ctx.form_pair(pair, scratch, live, &reads, |pending, conn| {
                            pending.commit(bundle, conn, &mut **cell.borrow_mut());
                        })
                    };
                    // One bulk commit per pair: the finished mirror cells
                    // move into the arena wholesale (covering shards locked
                    // in ascending order), identical to committing every
                    // record under `lock_path` as it formed.
                    arena.absorb_mirror(mirror);
                    formed
                })
                .collect()
        },
    );
    let mut by_pair: Vec<Option<PairFormation>> = world.pairs.iter().map(|_| None).collect();
    for pf in formed.into_iter().flatten() {
        let slot = pf.pair;
        by_pair[slot] = Some(pf);
    }
    by_pair
        .into_iter()
        .map(|o| o.expect("every pair is formed by exactly one item"))
        .collect()
}

/// Convenience wrapper: builds an arena from the scenario's resolved
/// shard count, forms all bundles on `threads` workers, and returns both.
#[must_use]
pub fn form_bundles(
    world: &World,
    cfg: &ScenarioConfig,
    threads: usize,
) -> (HistoryArena, Vec<PairFormation>) {
    let arena = HistoryArena::with_capacity(
        cfg.n_nodes,
        cfg.resolved_history_shards(),
        cfg.history_capacity,
    );
    let formed = form_bundles_sharded(world, cfg, &arena, threads);
    (arena, formed)
}
