//! Event-driven lazy availability estimation.
//!
//! The eager [`ProbeEstimator`](crate::ProbeEstimator) is advanced by a
//! global sweep at every probe tick — O(N·d) work per tick whether or not
//! anyone reads the estimates. But the churn schedule is known analytically
//! (`NodeSchedule` holds each node's `[up, down)` intervals), so the state
//! an estimator would have reached at time `t` is computable in closed
//! form: the number of probe ticks `k·T ≤ t` falling inside an intersection
//! of the owner's and a neighbor's sessions gives the live-round count, and
//! the `rand(0, T)` first-sighting draw is reproducible because it is keyed
//! by (owner, slot, round) rather than consumed from a shared stream.
//!
//! [`LazyProbeSet`] therefore keeps one **cell** per *touched* node — the
//! estimator plus the last tick it was synced to — and only touches a cell
//! when it is *read* (a transmission queries availability or live
//! neighbors). A cell materializes on its first read and can be evicted
//! again when idle. The catch-up replays every neighbor replacement that
//! fell due in between, so nothing has to keep cells warm. Catch-up is
//! O(sessions) per neighbor slot and per replacement, amortized
//! O(churn + queries) overall, instead of O(N·d·horizon/T).
//!
//! # Equivalence to the eager estimator
//!
//! For the same master seed the lazy cell is **bit-identical** to an eager
//! estimator driven with `probe_round_seeded`/`maintain_seeded` at every
//! tick `k·T < horizon`, because every quantity is derived the same way on
//! both paths:
//!
//! * tick times are `k as f64 * period` (a product, not a running sum), so
//!   both paths evaluate liveness at exactly the same f64 instants;
//! * session time is stored in closed form (`init + live_rounds · T`), so
//!   no f64 summation-order differences can arise;
//! * the first-sighting draw for (owner, slot, round) and the replacement
//!   candidate stream for (owner, round) are position-keyed, so skipping
//!   the rounds in between cannot shift them;
//! * replacement decisions are replayed at exactly the ticks where a slot
//!   crosses the silence threshold (computed in closed form from the
//!   schedule intersections), in slot order, via the *same*
//!   `maintain_seeded` code path.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use idpa_desim::rng::{Mix64State, StreamFactory};
use idpa_netmodel::NodeSchedule;

use crate::node::NodeId;
use crate::probe::{ProbeEstimator, ProbeEstimatorState};
use crate::topology::Topology;

/// The probe tick index `k` as a simulation time, computed as a product so
/// that eager scheduling and lazy reconstruction agree to the last bit.
#[inline]
#[must_use]
pub fn tick_time(k: u64, period: f64) -> f64 {
    k as f64 * period
}

/// Smallest `k ≥ 0` with `k·period ≥ t`.
fn first_tick_at_or_after(t: f64, period: f64) -> u64 {
    if t <= 0.0 {
        return 0;
    }
    let mut k = (t / period) as u64;
    while tick_time(k, period) < t {
        k += 1;
    }
    while k > 0 && tick_time(k - 1, period) >= t {
        k -= 1;
    }
    k
}

/// Largest `k ≥ 0` with `k·period < t` (`None` if `t ≤ 0`).
fn last_tick_before(t: f64, period: f64) -> Option<u64> {
    if t <= 0.0 {
        return None;
    }
    let mut k = (t / period).ceil() as u64 + 1;
    while k > 0 && tick_time(k, period) >= t {
        k -= 1;
    }
    while tick_time(k + 1, period) < t {
        k += 1;
    }
    (tick_time(k, period) < t).then_some(k)
}

/// Largest `k ≥ 0` with `k·period ≤ t` (0 if `t < 0`).
fn last_tick_at_or_before(t: f64, period: f64) -> u64 {
    if t < 0.0 {
        return 0;
    }
    let mut k = (t / period).ceil() as u64 + 1;
    while k > 0 && tick_time(k, period) > t {
        k -= 1;
    }
    while tick_time(k + 1, period) <= t {
        k += 1;
    }
    k
}

/// Ticks `k` with `start ≤ k·period < end` — i.e. the ticks at which a node
/// with session `[start, end)` is up, matching `NodeSchedule::is_up`
/// exactly — intersected with `(after, upto]`. Inclusive range, or `None`
/// if empty.
fn session_tick_range(
    start: f64,
    end: f64,
    period: f64,
    after: u64,
    upto: u64,
) -> Option<(u64, u64)> {
    let lo = first_tick_at_or_after(start, period).max(after + 1);
    let hi = last_tick_before(end, period)?.min(upto);
    (lo <= hi).then_some((lo, hi))
}

/// Index of the first session that can still contain a tick `> after`.
/// Sessions are sorted and disjoint, so ends are increasing; a session
/// ending at or before `after·T` cannot contain any tick `k·T` with
/// `k > after` (its ticks satisfy `k·T < e ≤ after·T`).
fn first_live_session(sessions: &[(f64, f64)], period: f64, after: u64) -> usize {
    let frontier = tick_time(after, period);
    sessions.partition_point(|&(_, e)| e <= frontier)
}

/// Number of ticks in `(after, upto]` at which `sessions` is up.
fn count_up_ticks(sessions: &[(f64, f64)], period: f64, after: u64, upto: u64) -> u64 {
    let upto_time = tick_time(upto, period);
    let mut n = 0;
    for &(s, e) in &sessions[first_live_session(sessions, period, after)..] {
        if s > upto_time {
            // Starts are sorted: no later session can contain a tick ≤ upto.
            break;
        }
        if let Some((lo, hi)) = session_tick_range(s, e, period, after, upto) {
            n += hi - lo + 1;
        }
    }
    n
}

/// The `p`-th (1-indexed) up tick of `sessions` in `(after, upto]`.
fn up_tick_at_position(
    sessions: &[(f64, f64)],
    period: f64,
    after: u64,
    upto: u64,
    p: u64,
) -> Option<u64> {
    debug_assert!(p >= 1);
    let upto_time = tick_time(upto, period);
    let mut remaining = p;
    for &(s, e) in &sessions[first_live_session(sessions, period, after)..] {
        if s > upto_time {
            break;
        }
        if let Some((lo, hi)) = session_tick_range(s, e, period, after, upto) {
            let c = hi - lo + 1;
            if remaining <= c {
                return Some(lo + remaining - 1);
            }
            remaining -= c;
        }
    }
    None
}

/// Visits every maximal run of ticks in `(after, upto]` at which *both*
/// schedules are up, as inclusive tick ranges in increasing order.
fn for_each_joint_range(
    own: &[(f64, f64)],
    nbr: &[(f64, f64)],
    period: f64,
    after: u64,
    upto: u64,
    mut f: impl FnMut(u64, u64),
) {
    let upto_time = tick_time(upto, period);
    let mut i = first_live_session(own, period, after);
    let mut j = first_live_session(nbr, period, after);
    while i < own.len() && j < nbr.len() {
        let (s1, e1) = own[i];
        let (s2, e2) = nbr[j];
        let lo_t = s1.max(s2);
        let hi_t = e1.min(e2);
        if lo_t > upto_time {
            // Starts are sorted, so max(s1, s2) only grows from here: no
            // later pair can intersect at a tick ≤ upto.
            break;
        }
        if lo_t < hi_t {
            if let Some((lo, hi)) = session_tick_range(lo_t, hi_t, period, after, upto) {
                f(lo, hi);
            }
        }
        if e1 <= e2 {
            i += 1;
        } else {
            j += 1;
        }
    }
}

/// Shared, immutable context of a [`LazyProbeSet`]: the analytic churn
/// schedules, tick geometry and the position-keyed randomness source.
#[derive(Debug, Clone)]
struct LazyCtx {
    period: f64,
    /// Probe ticks are `1..=max_tick` (all `k` with `0 < k·T < horizon`).
    max_tick: u64,
    n_nodes: usize,
    threshold: Option<u64>,
    streams: StreamFactory,
    /// Shared with the world: the analytic schedules are, with the
    /// topology, the O(N) structures a run keeps resident.
    schedules: Arc<Vec<NodeSchedule>>,
}

/// Sentinel in a cell's due cache: the slot's due tick must be recomputed.
const DUE_UNKNOWN: u64 = u64::MAX;
/// Sentinel in a cell's due cache: the slot never falls due again before
/// the horizon.
const DUE_NEVER: u64 = u64::MAX - 1;

/// One node's shard of probe state: the estimator plus its sync frontier.
#[derive(Debug, Clone, PartialEq)]
struct ProbeCell {
    est: ProbeEstimator,
    /// All ticks `≤ synced_tick` have been applied to `est`.
    synced_tick: u64,
    /// Per-slot cache of the next replacement-due tick, computed against
    /// the full horizon ([`DUE_UNKNOWN`] = recompute, [`DUE_NEVER`] = no
    /// further due tick). A slot's absolute due tick is a pure function of
    /// the schedules and the slot's state trajectory, and [`advance`] only
    /// moves the frontier *along* that trajectory — so cached values
    /// survive plain advances, and a maintenance at tick `k` drops only
    /// the slots due at `k` (the only ones `maintain_seeded` touches).
    due_cache: Vec<u64>,
}

/// Below this many ticks, catching up by replaying the probe rounds
/// directly is cheaper than the closed-form interval arithmetic (whose
/// per-slot session-range scans have a fixed cost worth paying only for
/// long idle gaps).
const REPLAY_WINDOW: u64 = 8;

/// Applies all probe rounds in ticks `(synced_tick, to]` to the cell in
/// closed form. Must not cross a replacement-due tick (callers segment at
/// those via [`next_due_tick`]).
fn advance(cell: &mut ProbeCell, ctx: &LazyCtx, to: u64) {
    let after = cell.synced_tick;
    if to <= after {
        return;
    }
    if to - after <= REPLAY_WINDOW {
        // Short catch-up: run the probe rounds tick by tick — the eager
        // code path itself, so equivalence is by construction.
        for k in (after + 1)..=to {
            let t = idpa_desim::SimTime::new(tick_time(k, ctx.period));
            if ctx.schedules[cell.est.owner.index()].is_up(t) {
                let sch = &ctx.schedules;
                cell.est
                    .probe_round_seeded(&ctx.streams, |v| sch[v.index()].is_up(t));
            }
        }
        cell.synced_tick = to;
        return;
    }
    let own = ctx.schedules[cell.est.owner.index()].sessions();
    let new_rounds = count_up_ticks(own, ctx.period, after, to);
    if new_rounds > 0 {
        for i in 0..cell.est.neighbors.len() {
            let nbr = ctx.schedules[cell.est.neighbors[i].index()].sessions();
            let mut live = 0u64;
            let mut first = None;
            let mut last = 0u64;
            for_each_joint_range(own, nbr, ctx.period, after, to, |lo, hi| {
                live += hi - lo + 1;
                if first.is_none() {
                    first = Some(lo);
                }
                last = hi;
            });
            if live == 0 {
                continue;
            }
            // Owner round numbers at the first/last joint tick.
            let r_last = cell.est.rounds + count_up_ticks(own, ctx.period, after, last);
            cell.est.last_alive_round[i] = r_last;
            if cell.est.ever_seen[i] {
                cell.est.live_rounds[i] += live;
            } else {
                let first = first.expect("live > 0 implies a first joint tick");
                let r_first = cell.est.rounds + count_up_ticks(own, ctx.period, after, first);
                cell.est.ever_seen[i] = true;
                cell.est.init_time[i] = crate::probe::init_session_draw(
                    &ctx.streams,
                    cell.est.owner,
                    i,
                    r_first,
                    ctx.period,
                );
                cell.est.live_rounds[i] = live - 1;
            }
        }
        cell.est.rounds += new_rounds;
    }
    cell.synced_tick = to;
}

/// First tick in `(synced_tick, upper]` at which slot `i` will be
/// replacement-due: the owner is up, and after probing, the slot's silence
/// `rounds − last_alive_round` reaches `thr`. `None` if no such tick.
fn slot_due(
    est: &ProbeEstimator,
    synced_tick: u64,
    ctx: &LazyCtx,
    i: usize,
    thr: u64,
    upper: u64,
) -> Option<u64> {
    debug_assert!(thr >= 1, "lazy maintenance needs threshold >= 1");
    let after = synced_tick;
    let own = ctx.schedules[est.owner.index()].sessions();
    let nbr = ctx.schedules[est.neighbors[i].index()].sessions();
    let gap0 = est.rounds - est.last_alive_round[i];
    // The slot falls due at the `due_pos`-th owner-up tick after the sync
    // frontier, unless a joint-live tick resets the silence gap first. A
    // tick that is itself joint-live is never due (the probe runs before
    // maintenance and clears the gap). The two-pointer walk below visits
    // the joint-live ranges in increasing order (the same order
    // [`for_each_joint_range`] produces) and stops at the first range
    // starting after the candidate due position, so a near due tick never
    // pays for the schedule's full tail.
    let mut due_pos = if gap0 >= thr { 1 } else { thr - gap0 };
    let upper_time = tick_time(upper, ctx.period);
    let mut oi = first_live_session(own, ctx.period, after);
    let mut ni = first_live_session(nbr, ctx.period, after);
    while oi < own.len() && ni < nbr.len() {
        let (s1, e1) = own[oi];
        let (s2, e2) = nbr[ni];
        let lo_t = s1.max(s2);
        let hi_t = e1.min(e2);
        if lo_t > upper_time {
            break;
        }
        if lo_t < hi_t {
            if let Some((lo, hi)) = session_tick_range(lo_t, hi_t, ctx.period, after, upper) {
                // Ticks lo..=hi are consecutive owner-up ticks (they lie
                // inside one owner session), all joint-live.
                let p_start = count_up_ticks(own, ctx.period, after, lo);
                let p_end = p_start + (hi - lo);
                if due_pos < p_start {
                    return up_tick_at_position(own, ctx.period, after, upper, due_pos);
                }
                due_pos = p_end + thr;
            }
        }
        if e1 <= e2 {
            oi += 1;
        } else {
            ni += 1;
        }
    }
    up_tick_at_position(own, ctx.period, after, upper, due_pos)
}

/// Earliest replacement-due tick over all slots strictly after the sync
/// frontier, up to the horizon. Served from the cell's per-slot due cache;
/// only the slots the last maintenance replaced are recomputed, so each
/// step of [`sync_cell_slow`]'s advance/maintain loop costs a `min` over
/// ≤ degree cached values plus one closed-form scan per replaced slot.
fn next_due_tick(cell: &mut ProbeCell, ctx: &LazyCtx, thr: u64) -> Option<u64> {
    let ProbeCell {
        est,
        synced_tick,
        due_cache,
    } = cell;
    due_cache.resize(est.neighbors.len(), DUE_UNKNOWN);
    let mut min = DUE_NEVER;
    for (i, slot) in due_cache.iter_mut().enumerate() {
        if *slot == DUE_UNKNOWN {
            *slot = slot_due(est, *synced_tick, ctx, i, thr, ctx.max_tick)
                .map_or(DUE_NEVER, |k| k.min(DUE_NEVER - 1));
        }
        min = min.min(*slot);
    }
    (min < DUE_NEVER).then_some(min)
}

/// Syncs the cell through tick `target`, replaying maintenance at exactly
/// the due ticks in between. The common case — the cell is already at the
/// target, because reads cluster at one simulation time — stays inline;
/// actual catch-up is the out-of-line slow path.
#[inline]
fn sync_cell(cell: &mut ProbeCell, ctx: &LazyCtx, target: u64) {
    if cell.synced_tick < target {
        sync_cell_slow(cell, ctx, target);
    }
}

fn sync_cell_slow(cell: &mut ProbeCell, ctx: &LazyCtx, target: u64) {
    let Some(thr) = ctx.threshold else {
        advance(cell, ctx, target);
        return;
    };
    while cell.synced_tick < target {
        match next_due_tick(cell, ctx, thr) {
            Some(k) if k <= target => {
                advance(cell, ctx, k);
                cell.est.maintain_seeded(&ctx.streams, thr, ctx.n_nodes);
                // Maintenance touched exactly the slots whose silence
                // reached the threshold, i.e. those due at `k`; their
                // trajectories (and hence due ticks) are new. Every other
                // slot's cached due tick still holds.
                for slot in cell.due_cache.iter_mut().filter(|slot| **slot <= k) {
                    *slot = DUE_UNKNOWN;
                }
            }
            // Next due tick beyond the target (or never): plain advance,
            // cached dues stay valid for the next sync or query.
            _ => advance(cell, ctx, target),
        }
    }
}

/// Residency statistics of a probe-cell store: how much per-node state is
/// materialized, how much ever was, and what came back out. The byte
/// figures are estimates from [`cell_footprint`], not allocator readings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Residency {
    /// Cells resident right now.
    pub materialized: usize,
    /// High-water mark of simultaneously resident cells.
    pub peak: usize,
    /// Cells evicted back to their analytic summary.
    pub evictions: u64,
    /// Estimated bytes of currently resident cells.
    pub bytes: usize,
    /// High-water mark of the byte estimate.
    pub peak_bytes: usize,
}

/// Estimated resident footprint of one materialized probe cell with
/// `degree` neighbor slots: the per-slot arrays of the estimator
/// (neighbor id, init time, live rounds, last-alive round, ever-seen)
/// plus the due cache and the fixed cell struct. A *model*, deliberately a
/// pure function of the degree, so the figure does not depend on the
/// allocator or on map capacity.
#[must_use]
pub fn cell_footprint(degree: usize) -> usize {
    std::mem::size_of::<ProbeCell>() + degree * (5 * std::mem::size_of::<u64>() + 1)
}

/// One store entry: the cell plus the tick it was last touched at (the
/// eviction clock).
#[derive(Debug, Clone)]
struct SparseCell {
    cell: ProbeCell,
    last_touch: u64,
}

/// The cell store: cells exist only for touched nodes and can be dropped
/// again — the analytic schedule plus the position-keyed streams *are* the
/// compact summary, so a re-touch reconstructs the exact state the cell
/// would have held had it never been evicted.
#[derive(Debug, Clone)]
struct SparseCells {
    map: HashMap<usize, SparseCell, Mix64State>,
    /// The initial topology, shared with its owner (the world): the seed
    /// every (re-)materialization starts its trajectory from.
    init_neighbors: Arc<Topology>,
    stats: Residency,
}

impl SparseCells {
    /// Materializes (if absent) and syncs node `s`'s cell through `target`.
    fn touch(&mut self, s: NodeId, target: u64, ctx: &LazyCtx) -> &mut ProbeCell {
        let SparseCells {
            map,
            init_neighbors,
            stats,
        } = self;
        let sc = map.entry(s.index()).or_insert_with(|| {
            let nbrs = init_neighbors.neighbors(s).to_vec();
            stats.materialized += 1;
            stats.peak = stats.peak.max(stats.materialized);
            stats.bytes += cell_footprint(nbrs.len());
            stats.peak_bytes = stats.peak_bytes.max(stats.bytes);
            SparseCell {
                cell: ProbeCell {
                    est: ProbeEstimator::new(s, ctx.period, nbrs),
                    synced_tick: 0,
                    due_cache: Vec::new(),
                },
                last_touch: target,
            }
        });
        sc.last_touch = sc.last_touch.max(target);
        sync_cell(&mut sc.cell, ctx, target);
        &mut sc.cell
    }
}

/// Lazily-synced probe state for every node in the system.
///
/// Reads (`availability`, `with_neighbors`, …) sync the queried node's cell
/// on demand through interior mutability; [`LazyProbeSet::sync_all`] bulk-
/// syncs every resident cell.
///
/// A cell is allocated the first time its node is touched and can be
/// evicted again when idle ([`LazyProbeSet::evict_idle`]). Because a
/// cell's state at tick `k` is a pure function of the schedules, the
/// initial neighbor sets and the position-keyed streams, an evicted cell
/// reconstructs **bit-identically** on re-touch: which cells are resident
/// never changes a query result.
#[derive(Debug, Clone)]
pub struct LazyProbeSet {
    ctx: LazyCtx,
    cells: RefCell<SparseCells>,
    /// Memo of the last `now → target tick` mapping: reads cluster at a
    /// single simulation time (all queries of one transmission), so the
    /// tick arithmetic is paid once per distinct `now`.
    tick_memo: std::cell::Cell<(f64, u64)>,
}

impl LazyProbeSet {
    /// Builds the lazy probe state over analytic churn `schedules` and the
    /// initial neighbor sets of the shared `neighbors` topology. Probe
    /// ticks are every `k·period < horizon` (`k ≥ 1`); `threshold` enables
    /// neighbor replacement after that many silent rounds (must be ≥ 1 — a
    /// threshold of 0 would replace a neighbor at the very tick it is
    /// observed alive).
    ///
    /// No cell exists until its node is first touched by a read, and idle
    /// cells can be evicted back to nothing. The initial neighbor sets are
    /// read from `neighbors`, never copied per node, so resident memory
    /// scales with the touched working set, never with `N`.
    #[must_use]
    pub fn new_sparse(
        period: f64,
        horizon: f64,
        schedules: Arc<Vec<NodeSchedule>>,
        neighbors: Arc<Topology>,
        threshold: Option<u64>,
        streams: StreamFactory,
    ) -> Self {
        assert_eq!(
            schedules.len(),
            neighbors.len(),
            "one neighbor set per node"
        );
        assert!(period > 0.0, "probing period must be positive");
        if let Some(t) = threshold {
            assert!(t >= 1, "replacement threshold must be >= 1");
        }
        LazyProbeSet {
            ctx: LazyCtx {
                period,
                max_tick: last_tick_before(horizon, period).unwrap_or(0),
                n_nodes: schedules.len(),
                threshold,
                streams,
                schedules,
            },
            cells: RefCell::new(SparseCells {
                map: HashMap::default(),
                init_neighbors: neighbors,
                stats: Residency::default(),
            }),
            tick_memo: std::cell::Cell::new((f64::NEG_INFINITY, 0)),
        }
    }

    /// The probing period `T`.
    #[must_use]
    pub fn period(&self) -> f64 {
        self.ctx.period
    }

    /// The last probe tick before the horizon.
    #[must_use]
    pub fn max_tick(&self) -> u64 {
        self.ctx.max_tick
    }

    /// The tick the state at time `now` reflects: all ticks `k·T ≤ now`
    /// (clamped to the horizon).
    fn target_tick(&self, now: f64) -> u64 {
        let (memo_now, memo_tick) = self.tick_memo.get();
        if memo_now == now {
            return memo_tick;
        }
        let tick = last_tick_at_or_before(now, self.ctx.period).min(self.ctx.max_tick);
        self.tick_memo.set((now, tick));
        tick
    }

    /// Syncs node `s`'s cell through `now` and hands it to `f`. This is
    /// the touch point: the cell materializes here if absent, and its
    /// eviction clock advances to the queried tick.
    fn with_cell<R>(&self, s: NodeId, now: f64, f: impl FnOnce(&ProbeCell) -> R) -> R {
        let target = self.target_tick(now);
        f(self.cells.borrow_mut().touch(s, target, &self.ctx))
    }

    /// Syncs node `s` through every tick at or before `now`.
    pub fn sync_node(&self, s: NodeId, now: f64) {
        self.with_cell(s, now, |_| ());
    }

    /// `α_s(v)` as of time `now` (syncs `s` on demand).
    #[must_use]
    pub fn availability(&self, s: NodeId, v: NodeId, now: f64) -> f64 {
        self.with_cell(s, now, |cell| cell.est.availability(v))
    }

    /// `t_s(v)` as of time `now` (syncs `s` on demand).
    #[must_use]
    pub fn session_time(&self, s: NodeId, v: NodeId, now: f64) -> f64 {
        self.with_cell(s, now, |cell| cell.est.session_time(v))
    }

    /// Calls `f` with `s`'s current neighbor set as of `now` (syncs `s` on
    /// demand — replacements up to `now` are visible).
    pub fn with_neighbors<R>(&self, s: NodeId, now: f64, f: impl FnOnce(&[NodeId]) -> R) -> R {
        self.with_cell(s, now, |cell| f(cell.est.neighbors()))
    }

    /// A snapshot of `s`'s estimator as of `now` — the exact state an eager
    /// [`ProbeEstimator`] driven with `probe_round_seeded`/`maintain_seeded`
    /// at every tick would hold.
    #[must_use]
    pub fn estimator(&self, s: NodeId, now: f64) -> ProbeEstimator {
        self.with_cell(s, now, |cell| cell.est.clone())
    }

    /// Syncs every *resident* cell through `now` without materializing
    /// any. Each sync is a pure function of (cell, schedules, target), so
    /// the result does not depend on the store's iteration order.
    pub fn sync_all(&mut self, now: f64) {
        let target = self.target_tick(now);
        for sc in self.cells.get_mut().map.values_mut() {
            sync_cell(&mut sc.cell, &self.ctx, target);
        }
    }

    /// Evicts cells last touched more than `idle_ticks` probe ticks before
    /// `now` back to their analytic summary. Returns the number evicted.
    ///
    /// Eviction is **value-invisible**: which cells are resident never
    /// affects any query result (a later touch reconstructs the dropped
    /// cell bit-identically from the schedules and streams), so the sweep
    /// cadence is free to be a pure policy choice.
    pub fn evict_idle(&self, now: f64, idle_ticks: u64) -> usize {
        let cutoff = self.target_tick(now).saturating_sub(idle_ticks);
        let mut store = self.cells.borrow_mut();
        let SparseCells { map, stats, .. } = &mut *store;
        let before = map.len();
        map.retain(|_, sc| {
            let keep = sc.last_touch >= cutoff;
            if !keep {
                stats.bytes -= cell_footprint(sc.cell.est.neighbors.len());
            }
            keep
        });
        let evicted = before - map.len();
        stats.materialized -= evicted;
        stats.evictions += evicted as u64;
        evicted
    }

    /// Residency statistics of the cell store.
    #[must_use]
    pub fn residency(&self) -> Residency {
        self.cells.borrow().stats
    }

    /// Snapshot export of the mutable cell state. Pure caches (the per-slot
    /// due cache, the tick memo) are *not* captured — they are recomputed
    /// on demand after [`LazyProbeSet::restore_cells`], and every cached
    /// value is a pure function of the state that *is* captured.
    #[must_use]
    pub fn snapshot_cells(&self) -> ProbeCellsSnapshot {
        let store = self.cells.borrow();
        let mut cells: Vec<(usize, ProbeCellState, u64)> = store
            .map
            .iter()
            .map(|(&i, sc)| {
                (
                    i,
                    ProbeCellState {
                        est: sc.cell.est.snapshot_state(),
                        synced_tick: sc.cell.synced_tick,
                    },
                    sc.last_touch,
                )
            })
            .collect();
        cells.sort_unstable_by_key(|&(i, _, _)| i);
        ProbeCellsSnapshot {
            cells,
            stats: store.stats,
        }
    }

    /// Overwrites the mutable cell state with a
    /// [`LazyProbeSet::snapshot_cells`] export. The probe set must have
    /// been freshly constructed with the same configuration (period,
    /// horizon, schedules, initial neighbor sets, threshold, streams) —
    /// resume rebuilds those deterministically and only the trajectory
    /// state comes from the snapshot.
    ///
    /// Every field of the snapshot is validated *before* any mutation: on
    /// `Err`, the probe set is untouched. Never panics.
    ///
    /// # Errors
    ///
    /// A static description of the first inconsistency found
    /// (out-of-range or unsorted indices, non-parallel estimator arrays,
    /// inconsistent residency stats, …).
    pub fn restore_cells(&mut self, snap: ProbeCellsSnapshot) -> Result<(), &'static str> {
        let ProbeCellsSnapshot { cells, stats } = snap;
        let ctx = &self.ctx;
        let mut bytes = 0usize;
        let mut prev: Option<usize> = None;
        for (node, state, _) in &cells {
            if *node >= ctx.n_nodes {
                return Err("probe cell node out of range");
            }
            if prev.is_some_and(|p| p >= *node) {
                return Err("probe cells not strictly sorted");
            }
            prev = Some(*node);
            check_cell_state(ctx, NodeId(*node), state)?;
            bytes += cell_footprint(state.est.neighbors.len());
        }
        if stats.materialized != cells.len()
            || stats.bytes != bytes
            || stats.peak < stats.materialized
            || stats.peak_bytes < stats.bytes
        {
            return Err("probe residency stats inconsistent");
        }
        let store = self.cells.get_mut();
        store.map = cells
            .into_iter()
            .map(|(node, state, last_touch)| {
                let cell = ProbeCell {
                    est: ProbeEstimator::from_snapshot(state.est),
                    synced_tick: state.synced_tick,
                    due_cache: Vec::new(),
                };
                (node, SparseCell { cell, last_touch })
            })
            .collect();
        store.stats = stats;
        self.tick_memo = std::cell::Cell::new((f64::NEG_INFINITY, 0));
        Ok(())
    }
}

/// Validates one cell state against the probe set's immutable context —
/// everything the sync and due-tick machinery would otherwise trust (and
/// index arrays or subtract counters with).
fn check_cell_state(
    ctx: &LazyCtx,
    owner: NodeId,
    state: &ProbeCellState,
) -> Result<(), &'static str> {
    let e = &state.est;
    if e.owner != owner {
        return Err("probe cell owner mismatch");
    }
    if e.period.to_bits() != ctx.period.to_bits() {
        return Err("probe cell period mismatch");
    }
    let n = e.neighbors.len();
    if e.init_time.len() != n
        || e.live_rounds.len() != n
        || e.ever_seen.len() != n
        || e.last_alive_round.len() != n
    {
        return Err("probe estimator arrays not parallel");
    }
    if e.neighbors.iter().any(|v| v.index() >= ctx.n_nodes) {
        return Err("probe neighbor out of range");
    }
    if e.init_time.iter().any(|t| !t.is_finite() || *t < 0.0) {
        return Err("probe init time invalid");
    }
    if e.last_alive_round.iter().any(|&r| r > e.rounds) {
        return Err("probe last-alive round ahead of round counter");
    }
    if state.synced_tick > ctx.max_tick {
        return Err("probe synced tick beyond horizon");
    }
    Ok(())
}

/// Snapshot of one probe cell: the estimator trajectory plus the sync
/// frontier. Pure caches are excluded by design.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeCellState {
    /// The estimator's full mutable state.
    pub est: ProbeEstimatorState,
    /// All ticks `≤ synced_tick` have been applied to the estimator.
    pub synced_tick: u64,
}

/// Snapshot export of a [`LazyProbeSet`]'s resident cells.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeCellsSnapshot {
    /// `(node index, cell state, last-touch tick)`, strictly sorted by
    /// node index.
    pub cells: Vec<(usize, ProbeCellState, u64)>,
    /// The residency statistics at snapshot time (peaks and eviction
    /// counts are part of the reported run result, so they must survive a
    /// resume).
    pub stats: Residency,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A probe set over owned schedules and neighbor lists.
    fn probe_set(
        period: f64,
        horizon: f64,
        schedules: Vec<NodeSchedule>,
        neighbors: Vec<Vec<NodeId>>,
        threshold: Option<u64>,
        streams: StreamFactory,
    ) -> LazyProbeSet {
        LazyProbeSet::new_sparse(
            period,
            horizon,
            Arc::new(schedules),
            Arc::new(Topology::from_lists(neighbors)),
            threshold,
            streams,
        )
    }

    #[test]
    fn tick_helpers_agree_with_is_up_semantics() {
        use idpa_desim::SimTime;
        let sched = NodeSchedule::from_sessions(vec![(2.5, 10.0), (12.0, 13.0)]);
        let period = 2.5;
        for k in 1..8u64 {
            let t = tick_time(k, period);
            let counted = count_up_ticks(sched.sessions(), period, k - 1, k) == 1;
            assert_eq!(sched.is_up(SimTime::new(t)), counted, "tick {k} at t={t}");
        }
    }

    #[test]
    fn boundary_ticks_land_like_is_up() {
        // A session starting exactly on a tick includes it; one ending
        // exactly on a tick excludes it ([start, end) semantics).
        let period = 5.0;
        let sessions = [(5.0, 20.0)];
        assert_eq!(session_tick_range(5.0, 20.0, period, 0, 100), Some((1, 3)));
        assert_eq!(count_up_ticks(&sessions, period, 0, 100), 3);
    }

    #[test]
    fn last_tick_before_handles_exact_multiples() {
        assert_eq!(last_tick_before(10.0, 5.0), Some(1));
        assert_eq!(last_tick_before(10.1, 5.0), Some(2));
        assert_eq!(last_tick_before(0.0, 5.0), None);
        assert_eq!(last_tick_at_or_before(10.0, 5.0), 2);
        assert_eq!(last_tick_at_or_before(9.9, 5.0), 1);
    }

    #[test]
    fn lazy_matches_eager_simple_two_node_case() {
        let streams = StreamFactory::new(17);
        let period = 5.0;
        let horizon = 100.0;
        let schedules = vec![
            NodeSchedule::from_sessions(vec![(0.0, 100.0)]),
            NodeSchedule::from_sessions(vec![(12.0, 40.0), (60.0, 80.0)]),
        ];
        let neighbors = vec![vec![NodeId(1)], vec![NodeId(0)]];

        // Eager reference.
        let mut eager: Vec<ProbeEstimator> = (0..2)
            .map(|i| ProbeEstimator::new(NodeId(i), period, neighbors[i].clone()))
            .collect();
        let mut k = 1u64;
        while tick_time(k, period) < horizon {
            let t = idpa_desim::SimTime::new(tick_time(k, period));
            for i in 0..2 {
                if schedules[i].is_up(t) {
                    let sch = &schedules;
                    eager[i].probe_round_seeded(&streams, |v| sch[v.index()].is_up(t));
                }
            }
            k += 1;
        }

        let lazy = probe_set(period, horizon, schedules, neighbors, None, streams);
        for (i, e) in eager.iter().enumerate() {
            assert_eq!(&lazy.estimator(NodeId(i), horizon), e, "node {i}");
        }
    }

    #[test]
    fn queries_at_intermediate_times_see_partial_state() {
        let streams = StreamFactory::new(5);
        let schedules = vec![
            NodeSchedule::from_sessions(vec![(0.0, 50.0)]),
            NodeSchedule::from_sessions(vec![(0.0, 50.0)]),
        ];
        let lazy = probe_set(
            5.0,
            50.0,
            schedules,
            vec![vec![NodeId(1)], vec![NodeId(0)]],
            None,
            streams,
        );
        assert_eq!(lazy.session_time(NodeId(0), NodeId(1), 0.0), 0.0);
        let early = lazy.session_time(NodeId(0), NodeId(1), 12.0);
        let late = lazy.session_time(NodeId(0), NodeId(1), 40.0);
        assert!(early > 0.0);
        assert!(late > early, "early={early} late={late}");
    }

    fn staggered_world(n: usize) -> (Vec<NodeSchedule>, Vec<Vec<NodeId>>) {
        let schedules: Vec<NodeSchedule> = (0..n)
            .map(|i| {
                let s = i as f64 * 1.7;
                NodeSchedule::from_sessions(vec![(s, s + 37.0), (s + 50.0, s + 90.0)])
            })
            .collect();
        let neighbors: Vec<Vec<NodeId>> = (0..n)
            .map(|i| vec![NodeId((i + 1) % n), NodeId((i + 3) % n)])
            .collect();
        (schedules, neighbors)
    }

    #[test]
    fn residency_counts_touched_cells() {
        let (schedules, neighbors) = staggered_world(12);
        let set = probe_set(
            1.0,
            120.0,
            schedules,
            neighbors,
            Some(4),
            StreamFactory::new(31),
        );
        assert_eq!(set.residency(), Residency::default(), "nothing touched");
        for now in [0.0, 13.0, 55.5, 120.0] {
            for i in 0..12 {
                let _ = set.availability(NodeId(i), NodeId((i + 1) % 12), now);
            }
        }
        let r = set.residency();
        assert_eq!(r.materialized, 12);
        assert_eq!(r.peak, 12);
        assert_eq!(r.evictions, 0);
        assert_eq!(r.bytes, 12 * cell_footprint(2));
        assert_eq!(r.peak_bytes, r.bytes);
    }

    #[test]
    fn evicted_cells_reconstruct_bit_identically() {
        let streams = StreamFactory::new(47);
        let (schedules, neighbors) = staggered_world(10);
        let build = || {
            probe_set(
                1.0,
                120.0,
                schedules.clone(),
                neighbors.clone(),
                Some(3),
                streams.clone(),
            )
        };
        let kept = build();
        let evicting = build();
        // Touch everyone early, idle past the window, evict, then re-touch:
        // the reconstructed state must equal the never-evicted cell.
        for i in 0..10 {
            let _ = kept.availability(NodeId(i), NodeId((i + 1) % 10), 10.0);
            let _ = evicting.availability(NodeId(i), NodeId((i + 1) % 10), 10.0);
        }
        assert_eq!(evicting.residency().materialized, 10);
        let evicted = evicting.evict_idle(60.0, 8);
        assert_eq!(evicted, 10, "all cells idle past the window");
        let r = evicting.residency();
        assert_eq!(r.materialized, 0);
        assert_eq!(r.bytes, 0);
        assert_eq!(r.evictions, 10);
        assert_eq!(r.peak, 10, "peak survives eviction");
        for i in 0..10 {
            assert_eq!(
                kept.estimator(NodeId(i), 97.0),
                evicting.estimator(NodeId(i), 97.0),
                "re-touched node {i}"
            );
        }
        assert_eq!(evicting.residency().materialized, 10);
        assert!(evicting.residency().peak_bytes >= evicting.residency().bytes);
    }

    #[test]
    fn sync_all_only_syncs_residents() {
        let streams = StreamFactory::new(7);
        let (schedules, neighbors) = staggered_world(8);
        let mut set = probe_set(
            1.0,
            100.0,
            schedules.clone(),
            neighbors.clone(),
            None,
            streams.clone(),
        );
        let _ = set.availability(NodeId(2), NodeId(3), 20.0);
        set.sync_all(80.0);
        assert_eq!(
            set.residency().materialized,
            1,
            "sync_all must not materialize"
        );
        let fresh = probe_set(1.0, 100.0, schedules, neighbors, None, streams);
        assert_eq!(
            fresh.estimator(NodeId(2), 80.0),
            set.estimator(NodeId(2), 80.0)
        );
    }

    #[test]
    fn replacement_lands_at_threshold_tick() {
        let streams = StreamFactory::new(40);
        // Owner always up; the only neighbor is never up, so it falls due
        // exactly at the threshold-th tick.
        let schedules = vec![
            NodeSchedule::from_sessions(vec![(0.0, 1000.0)]),
            NodeSchedule::from_sessions(vec![(990.0, 1000.0)]),
            NodeSchedule::from_sessions(vec![(0.0, 1000.0)]),
        ];
        let lazy = probe_set(
            10.0,
            1000.0,
            schedules,
            vec![vec![NodeId(1)], vec![NodeId(0)], vec![NodeId(0)]],
            Some(3),
            streams,
        );
        // Threshold 3 with ticks at 10, 20, 30, ...: rounds-since-alive for
        // the never-seen slot reaches 3 at tick 3 (t = 30), where the only
        // eligible candidate (neither the owner nor a current neighbor)
        // takes the slot.
        lazy.with_neighbors(NodeId(0), 29.9, |d| assert_eq!(d, [NodeId(1)]));
        lazy.with_neighbors(NodeId(0), 30.0, |d| assert_eq!(d, [NodeId(2)]));
    }

    #[test]
    fn one_long_catch_up_equals_tick_by_tick_sync() {
        let (schedules, neighbors) = staggered_world(12);
        let streams = StreamFactory::new(59);
        let lazy = probe_set(
            1.0,
            120.0,
            schedules.clone(),
            neighbors.clone(),
            Some(3),
            streams.clone(),
        );
        let ctx = &lazy.ctx;
        let thr = ctx.threshold.expect("threshold set");
        let k_end = ctx.max_tick;
        let mut replacements = 0;
        for (i, nbrs) in neighbors.into_iter().enumerate() {
            let mut eager = ProbeEstimator::new(NodeId(i), ctx.period, nbrs.clone());
            let fresh = || ProbeCell {
                est: eager.clone(),
                synced_tick: 0,
                due_cache: Vec::new(),
            };
            let mut jump = fresh();
            sync_cell(&mut jump, ctx, k_end);
            let mut step = fresh();
            for k in 1..=k_end {
                let t = idpa_desim::SimTime::new(tick_time(k, ctx.period));
                if schedules[i].is_up(t) {
                    eager.probe_round_seeded(&streams, |v| schedules[v.index()].is_up(t));
                    let before = eager.neighbors.clone();
                    eager.maintain_seeded(&streams, thr, schedules.len());
                    replacements += before
                        .iter()
                        .zip(&eager.neighbors)
                        .filter(|(a, b)| a != b)
                        .count();
                }
                sync_cell(&mut step, ctx, k);
                assert_eq!(step.est, eager, "node {i} at tick {k}");
                // The due ticks kept across maintenances equal a full
                // recompute from the current frontier.
                next_due_tick(&mut step, ctx, thr);
                let mut recomputed = step.clone();
                recomputed.due_cache.fill(DUE_UNKNOWN);
                next_due_tick(&mut recomputed, ctx, thr);
                assert_eq!(recomputed, step, "node {i} at tick {k}");
            }
            // One jump over every replacement lands on the same estimator,
            // frontier and cached due ticks.
            next_due_tick(&mut jump, ctx, thr);
            assert_eq!(jump, step, "node {i}");
        }
        assert!(replacements > 0, "the fixture must exercise replacements");
    }
}
