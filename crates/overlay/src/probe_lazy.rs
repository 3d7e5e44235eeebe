//! Event-driven lazy availability estimation.
//!
//! The eager [`ProbeEstimator`] is advanced by a
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
//! fell due in between, so nothing has to keep cells warm.
//!
//! # Catch-up cost
//!
//! A catch-up over more than a few ticks works in tick space. It converts
//! the owner's sessions in its window to runs of up ticks once, each with
//! the number of up ticks before it, so "owner rounds in `(a, x]`" and
//! "the owner's p-th up tick" are binary searches and prefix differences
//! for the rest of the catch-up. Each slot advance and each due-tick
//! search then walks that neighbor's sessions once, converting them as it
//! goes, and merges them with the owner runs.
//!
//! A session converts to ticks in O(1): one division estimates each
//! bound's tick, and a bracket check of the tick's definition at the
//! estimate and its neighbours proves the answer. Only inputs the check
//! cannot prove (NaN, a tick index at or past 2⁵², a saturating period)
//! take the search that walks from the estimate.
//!
//! With neighbor replacement on, the catch-up works slot by slot. Each
//! slot keeps its own frontier tick; a due tick advances only the slots
//! due there, from their own frontiers, and maintains only them, while
//! the others lag with a stale silence gap that nothing reads. The end of
//! the catch-up advances every slot once, from its frontier to the
//! target. So a catch-up costs O(owner sessions) once, plus one neighbor
//! walk per slot and two each time a slot falls due (its advance and its
//! next due-tick search), not a walk of all `d` slots at every due tick —
//! amortized O(churn + queries) over a run, instead of O(N·d·horizon/T).
//! The runs and the slot frontiers live in buffers reused across cells,
//! not per cell.
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
//!   schedule intersections), in slot order, via the *same* maintenance
//!   pass `maintain_seeded` runs, with the due set in place of its
//!   threshold test.

use std::cell::RefCell;
use std::collections::HashMap;

use idpa_desim::rng::{Mix64State, StreamFactory};
use idpa_desim::SimTime;
use idpa_netmodel::NodeSchedule;

use crate::node::NodeId;
use crate::nodes::{NodeCache, NodeSource};
use crate::probe::ProbeEstimator;

/// The probe tick index `k` as a simulation time, computed as a product so
/// that eager scheduling and lazy reconstruction agree to the last bit.
#[inline]
#[must_use]
pub fn tick_time(k: u64, period: f64) -> f64 {
    k as f64 * period
}

/// The most probe ticks a horizon may hold. Tick indices then stay far
/// from `u64` overflow in the tick helpers, and a tick-by-tick walk over
/// the horizon stays finite.
const MAX_PROBE_TICKS: u64 = 1 << 32;

/// Whether probing every `period` puts at most 2³² ticks before `horizon`
/// (false for a NaN ratio).
#[must_use]
pub fn probe_ticks_fit(period: f64, horizon: f64) -> bool {
    horizon / period <= MAX_PROBE_TICKS as f64
}

/// Tick indices below this are exact as `f64`, and so are their
/// neighbours `k ± 1`: `tick_time` is then a rounded product of exact
/// operands, monotone in `k` for a positive period.
const EXACT_TICKS: u64 = 1 << 52;

// The three tick helpers below are O(1): each takes the estimate
// `k = ⌊t / period⌋`, checks its own definition at `k − 1`, `k` and
// `k + 1`, and returns the answer that check proves. The estimate is off
// by at most one rounding of the quotient, so the check nearly always
// holds; when it does not (a NaN, a non-positive or infinite period, a
// quotient at or past 2⁵² or saturating `u64`), the helper falls back to
// the walk beside it, which defines it.

/// Smallest `k ≥ 0` with `k·period ≥ t` (saturating at `u64::MAX`).
#[inline]
fn first_tick_at_or_after(t: f64, period: f64) -> u64 {
    if t <= 0.0 {
        return 0;
    }
    let k = (t / period) as u64;
    if k < EXACT_TICKS {
        let at = tick_time(k, period);
        // Exactly the walk's first steps when it stops at once.
        if at >= t && (k == 0 || tick_time(k - 1, period) < t) {
            return k;
        }
        if at < t && tick_time(k + 1, period) >= t {
            return k + 1;
        }
    }
    first_tick_at_or_after_walk(t, period)
}

/// [`first_tick_at_or_after`] by walking from the estimate.
#[cold]
#[inline(never)]
fn first_tick_at_or_after_walk(t: f64, period: f64) -> u64 {
    if t <= 0.0 {
        return 0;
    }
    let mut k = (t / period) as u64;
    while k < u64::MAX && tick_time(k, period) < t {
        k += 1;
    }
    while k > 0 && tick_time(k - 1, period) >= t {
        k -= 1;
    }
    k
}

/// Largest `k ≥ 0` with `k·period < t` (`None` if `t ≤ 0`; saturating at
/// `u64::MAX`).
#[inline]
fn last_tick_before(t: f64, period: f64) -> Option<u64> {
    if t <= 0.0 {
        return None;
    }
    let k = (t / period) as u64;
    if k < EXACT_TICKS {
        // Ticks are monotone through the walk's start `⌈t / period⌉ + 1
        // ≤ k + 2`, so a bracket `tick(j) < t ≤ tick(j + 1)` is where the
        // walk stops.
        let at = tick_time(k, period);
        if at < t && tick_time(k + 1, period) >= t {
            return Some(k);
        }
        if at >= t && k > 0 && tick_time(k - 1, period) < t {
            return Some(k - 1);
        }
    }
    last_tick_before_walk(t, period)
}

/// [`last_tick_before`] by walking down from past the estimate.
#[cold]
#[inline(never)]
fn last_tick_before_walk(t: f64, period: f64) -> Option<u64> {
    if t <= 0.0 {
        return None;
    }
    let mut k = ((t / period).ceil() as u64).saturating_add(1);
    while k > 0 && tick_time(k, period) >= t {
        k -= 1;
    }
    while k < u64::MAX && tick_time(k + 1, period) < t {
        k += 1;
    }
    (tick_time(k, period) < t).then_some(k)
}

/// Largest `k ≥ 0` with `k·period ≤ t` (0 if `t < 0`; saturating at
/// `u64::MAX`).
#[inline]
fn last_tick_at_or_before(t: f64, period: f64) -> u64 {
    if t < 0.0 {
        return 0;
    }
    let k = (t / period) as u64;
    if k < EXACT_TICKS {
        // As in `last_tick_before`, with `≤` for `<`.
        let at = tick_time(k, period);
        if at <= t && tick_time(k + 1, period) > t {
            return k;
        }
        if at > t && k > 0 && tick_time(k - 1, period) <= t {
            return k - 1;
        }
    }
    last_tick_at_or_before_walk(t, period)
}

/// [`last_tick_at_or_before`] by walking down from past the estimate.
#[cold]
#[inline(never)]
fn last_tick_at_or_before_walk(t: f64, period: f64) -> u64 {
    if t < 0.0 {
        return 0;
    }
    let mut k = ((t / period).ceil() as u64).saturating_add(1);
    while k > 0 && tick_time(k, period) > t {
        k -= 1;
    }
    while k < u64::MAX && tick_time(k + 1, period) <= t {
        k += 1;
    }
    k
}

/// The probe ticks `(after, upto]`, with the times of both bounds.
#[derive(Debug, Clone, Copy)]
struct TickWindow {
    period: f64,
    after: u64,
    upto: u64,
    after_time: f64,
    upto_time: f64,
}

impl TickWindow {
    fn new(period: f64, after: u64, upto: u64) -> Self {
        TickWindow {
            period,
            after,
            upto,
            after_time: tick_time(after, period),
            upto_time: tick_time(upto, period),
        }
    }

    /// Ticks `k` of the window with `start ≤ k·period < end` — i.e. the
    /// ticks at which a node with session `[start, end)` is up, matching
    /// `NodeSchedule::is_up` exactly. Inclusive range, or `None` if empty.
    /// The one conversion from session time to tick space; a bound outside
    /// the window costs no division.
    fn session_tick_range(&self, start: f64, end: f64) -> Option<(u64, u64)> {
        let lo = if start <= self.after_time {
            self.after + 1
        } else {
            first_tick_at_or_after(start, self.period)
        };
        let hi = if end > self.upto_time {
            self.upto
        } else {
            last_tick_before(end, self.period)?
        };
        (lo <= hi).then_some((lo, hi))
    }

    /// The sessions that can have a tick in the window: they start at or
    /// before `upto·T` and end after `after·T`. Sessions are sorted and
    /// disjoint, so ends are increasing; a session ending at or before
    /// `after·T` has no tick `k·T` with `k > after` (its ticks satisfy
    /// `k·T < e ≤ after·T`).
    fn live<'a>(&self, sessions: &'a [(f64, f64)]) -> &'a [(f64, f64)] {
        let from = sessions.partition_point(|&(_, e)| e <= self.after_time);
        let to = from + sessions[from..].partition_point(|&(s, _)| s <= self.upto_time);
        &sessions[from..to]
    }
}

/// The ticks `lo..=hi`, all up, preceded by `before` up ticks of the
/// window they were counted in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TickRun {
    lo: u64,
    hi: u64,
    before: u64,
}

impl TickRun {
    /// Up ticks of the window through `hi`.
    fn through(&self) -> u64 {
        self.before + (self.hi - self.lo + 1)
    }
}

/// The owner's up ticks in a window `(base, upto]`, one run per session
/// that has any, built once per catch-up. The window's `p`-th up tick has
/// position `p`, so counts over any `(after, x]` with `after ≥ base` are
/// prefix differences, and both counts and positions are binary searches.
#[derive(Debug, Clone, Default)]
struct OwnerTicks {
    runs: Vec<TickRun>,
    /// The window `(base, upto]` the runs were built over, if built.
    window: Option<(u64, u64)>,
    /// Probe rounds the owner had run at the base: the window's `p`-th up
    /// tick is its round `rounds + p`.
    rounds: u64,
}

impl OwnerTicks {
    /// Forgets the runs; the next [`OwnerTicks::get`] rebuilds them, for
    /// an owner that had run `rounds` probe rounds at the window base.
    fn clear(&mut self, rounds: u64) {
        self.window = None;
        self.rounds = rounds;
    }

    /// The runs of `sessions` over `(after, upto]`, built on first use
    /// since the last [`OwnerTicks::clear`]. Later calls of the same
    /// catch-up may ask for a later `after` and must ask for the same
    /// `upto`: they reuse the runs.
    fn get(&mut self, sessions: &[(f64, f64)], period: f64, after: u64, upto: u64) -> &Self {
        if self.window.is_none() {
            self.runs.clear();
            let window = TickWindow::new(period, after, upto);
            let mut n = 0;
            for &(s, e) in window.live(sessions) {
                if let Some((lo, hi)) = window.session_tick_range(s, e) {
                    self.runs.push(TickRun { lo, hi, before: n });
                    n += hi - lo + 1;
                }
            }
            self.window = Some((after, upto));
        }
        debug_assert!(
            self.window
                .is_some_and(|(base, end)| after >= base && upto == end),
            "window moved"
        );
        self
    }

    /// Up ticks in `(base, x]`, for `x ≥ base`.
    fn through(&self, x: u64) -> u64 {
        match self.runs.partition_point(|r| r.lo <= x) {
            0 => 0,
            i => {
                let r = &self.runs[i - 1];
                r.before + (x.min(r.hi) - r.lo + 1)
            }
        }
    }

    /// The owner's probe round count after tick `x ≥ base`.
    fn rounds_through(&self, x: u64) -> u64 {
        self.rounds + self.through(x)
    }

    /// The up tick at position `p ≥ 1`, or `None` past the window.
    fn at(&self, p: u64) -> Option<u64> {
        let r = self
            .runs
            .get(self.runs.partition_point(|r| r.through() < p))?;
        Some(r.lo + (p - r.before - 1))
    }

    /// Calls `f` on each run of ticks in `(after, upto]` at which both the
    /// owner and a neighbor with sessions `nbr` are up, in increasing
    /// order, each with the owner's up ticks before it, until `f` returns
    /// `false`. Walks `nbr` once, converting each session on the fly, and
    /// merges it with the owner runs. A tick lies in both sessions exactly
    /// when it lies in both tick sets, so the runs are those of the
    /// session intersections.
    fn for_each_joint(
        &self,
        nbr: &[(f64, f64)],
        period: f64,
        after: u64,
        upto: u64,
        mut f: impl FnMut(TickRun) -> bool,
    ) {
        debug_assert!(self
            .window
            .is_some_and(|(base, end)| after >= base && upto <= end));
        let window = TickWindow::new(period, after, upto);
        let mut own = &self.runs[..];
        for &(s, e) in window.live(nbr) {
            let Some((lo, hi)) = window.session_tick_range(s, e) else {
                continue;
            };
            // Runs ending before this session cannot meet a later one.
            own = &own[own.partition_point(|r| r.hi < lo)..];
            for run in own.iter().take_while(|r| r.lo <= hi) {
                let lo = lo.max(run.lo);
                let joint = TickRun {
                    lo,
                    hi: hi.min(run.hi),
                    before: run.before + (lo - run.lo),
                };
                if !f(joint) {
                    return;
                }
            }
        }
    }
}

/// Shared, immutable context of a [`LazyProbeSet`]: tick geometry and the
/// position-keyed randomness source. The analytic churn schedules are read
/// through the store's [`NodeCache`].
#[derive(Debug, Clone)]
struct LazyCtx {
    period: f64,
    /// Probe ticks are `1..=max_tick` (all `k` with `0 < k·T < horizon`).
    max_tick: u64,
    n_nodes: usize,
    threshold: Option<u64>,
    streams: StreamFactory,
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
/// directly is cheaper than the closed form, whose owner runs and
/// per-slot neighbor walks have a fixed cost worth paying only for long
/// idle gaps.
const REPLAY_WINDOW: u64 = 8;

/// Derives (or re-stamps) the schedules a sync of `cell` reads: the
/// owner's and every current neighbor's.
fn touch_cell_nodes(cell: &ProbeCell, nodes: &mut NodeCache, tick: u64) {
    let _ = nodes.touch(cell.est.owner, tick);
    for &v in &cell.est.neighbors {
        let _ = nodes.touch(v, tick);
    }
}

/// Applies the probe rounds of ticks `(from, to]` to slot `i` alone, in
/// closed form: the ticks at which both the owner and the slot's neighbor
/// are up. Joint-live counts add over any split of a window, so a slot
/// may be advanced from its own frontier while the others lag or lead.
/// `own` holds this catch-up's owner runs from a base at or before
/// `from`, which give each tick's round number.
fn advance_slot(
    est: &mut ProbeEstimator,
    i: usize,
    ctx: &LazyCtx,
    nodes: &NodeCache,
    own: &OwnerTicks,
    from: u64,
    to: u64,
) {
    let nbr = nodes.schedule(est.neighbors[i]).sessions();
    let mut live = 0u64;
    let mut first = None;
    let mut last = None;
    own.for_each_joint(nbr, ctx.period, from, to, |r| {
        live += r.hi - r.lo + 1;
        first.get_or_insert(r);
        last = Some(r);
        true
    });
    let (Some(first), Some(last)) = (first, last) else {
        return;
    };
    // Owner round numbers at the first/last joint tick.
    est.last_alive_round[i] = own.rounds + last.through();
    if est.ever_seen[i] {
        est.live_rounds[i] += live;
    } else {
        est.ever_seen[i] = true;
        est.init_time[i] = crate::probe::init_session_draw(
            &ctx.streams,
            est.owner,
            i,
            own.rounds + first.before + 1,
            ctx.period,
        );
        est.live_rounds[i] = live - 1;
    }
}

/// Applies all probe rounds in ticks `(synced_tick, to]` to the cell.
/// Must not cross a replacement-due tick, the cell's nodes must be
/// touched, and `own` must be cleared at the cell's round count or hold
/// this catch-up's owner runs.
fn advance(cell: &mut ProbeCell, ctx: &LazyCtx, nodes: &NodeCache, own: &mut OwnerTicks, to: u64) {
    let after = cell.synced_tick;
    if to <= after {
        return;
    }
    if to - after <= REPLAY_WINDOW {
        // Short catch-up: run the probe rounds tick by tick — the eager
        // code path itself, so equivalence is by construction.
        let own = nodes.schedule(cell.est.owner);
        for k in (after + 1)..=to {
            let t = SimTime::new(tick_time(k, ctx.period));
            if own.is_up(t) {
                cell.est
                    .probe_round_seeded(&ctx.streams, |v| nodes.schedule(v).is_up(t));
            }
        }
        cell.synced_tick = to;
        return;
    }
    // With replacement on, the due-tick searches of the same catch-up read
    // the runs up to the horizon.
    let end = ctx.threshold.map_or(to, |_| ctx.max_tick);
    let own = own.get(
        nodes.schedule(cell.est.owner).sessions(),
        ctx.period,
        after,
        end,
    );
    if own.through(to) > own.through(after) {
        for i in 0..cell.est.neighbors.len() {
            advance_slot(&mut cell.est, i, ctx, nodes, own, after, to);
        }
        cell.est.rounds = own.rounds_through(to);
    }
    cell.synced_tick = to;
}

/// First tick in `(after, max_tick]` at which slot `i`, synced through
/// `after`, will be replacement-due: the owner is up, and after probing,
/// the slot's silence `rounds − last_alive_round` reaches `thr`. `None` if
/// no such tick. `own` holds the owner runs up to `max_tick`.
fn slot_due(
    est: &ProbeEstimator,
    after: u64,
    ctx: &LazyCtx,
    nodes: &NodeCache,
    own: &OwnerTicks,
    i: usize,
    thr: u64,
) -> Option<u64> {
    debug_assert!(thr >= 1, "lazy maintenance needs threshold >= 1");
    let nbr = nodes.schedule(est.neighbors[i]).sessions();
    let at_after = own.through(after);
    let gap0 = own.rounds + at_after - est.last_alive_round[i];
    // The slot falls due at the `due_pos`-th owner-up tick after its
    // frontier, unless a joint-live tick resets the silence gap first. A
    // tick that is itself joint-live is never due (the probe runs before
    // maintenance and clears the gap). The joint runs come in increasing
    // order, so the walk stops at the first one starting after the
    // candidate due position, and a near due tick never pays for the
    // neighbor schedule's full tail.
    let mut due_pos = if gap0 >= thr { 1 } else { thr - gap0 };
    own.for_each_joint(nbr, ctx.period, after, ctx.max_tick, |r| {
        // Ticks lo..=hi are consecutive owner-up ticks (they lie inside
        // one owner run), all joint-live.
        let p_start = r.before + 1 - at_after;
        if due_pos < p_start {
            return false;
        }
        due_pos = (r.through() - at_after).saturating_add(thr);
        true
    });
    own.at(at_after.saturating_add(due_pos))
}

/// Earliest replacement-due tick over all slots, each searched from its
/// own `frontier`, up to the horizon. Served from the cell's per-slot due
/// cache; only the slots the last maintenance replaced are recomputed, so
/// each step of [`sync_cell_slow`]'s loop costs a `min` over ≤ degree
/// cached values plus one neighbor walk per replaced slot.
fn next_due_tick(
    cell: &mut ProbeCell,
    ctx: &LazyCtx,
    nodes: &NodeCache,
    own: &mut OwnerTicks,
    frontier: &[u64],
    thr: u64,
) -> Option<u64> {
    let ProbeCell {
        est,
        synced_tick,
        due_cache,
    } = cell;
    due_cache.resize(est.neighbors.len(), DUE_UNKNOWN);
    let mut min = DUE_NEVER;
    for (i, slot) in due_cache.iter_mut().enumerate() {
        if *slot == DUE_UNKNOWN {
            let sessions = nodes.schedule(est.owner).sessions();
            let own = own.get(sessions, ctx.period, *synced_tick, ctx.max_tick);
            *slot = slot_due(est, frontier[i], ctx, nodes, own, i, thr)
                .map_or(DUE_NEVER, |k| k.min(DUE_NEVER - 1));
        }
        min = min.min(*slot);
    }
    (min < DUE_NEVER).then_some(min)
}

/// Syncs the cell through tick `target`, replaying maintenance at exactly
/// the due ticks in between. The common case — the cell is already at the
/// target, because reads cluster at one simulation time — stays inline;
/// actual catch-up is the out-of-line slow path. `own` and `frontier` are
/// scratch space for the owner runs and the slot frontiers, reused across
/// cells.
#[inline]
fn sync_cell(
    cell: &mut ProbeCell,
    ctx: &LazyCtx,
    nodes: &mut NodeCache,
    own: &mut OwnerTicks,
    frontier: &mut Vec<u64>,
    target: u64,
) {
    if cell.synced_tick < target {
        sync_cell_slow(cell, ctx, nodes, own, frontier, target);
    }
}

fn sync_cell_slow(
    cell: &mut ProbeCell,
    ctx: &LazyCtx,
    nodes: &mut NodeCache,
    own: &mut OwnerTicks,
    frontier: &mut Vec<u64>,
    target: u64,
) {
    touch_cell_nodes(cell, nodes, target);
    // The owner runs are built at most once per catch-up, on first use.
    own.clear(cell.est.rounds);
    let Some(thr) = ctx.threshold else {
        advance(cell, ctx, nodes, own, target);
        return;
    };
    // Slot by slot: each slot keeps its own frontier and moves only when
    // it falls due, so a catch-up walks each neighbor's sessions once to
    // the target plus twice each time its slot falls due, however many
    // other slots fall due in between.
    frontier.clear();
    frontier.resize(cell.est.neighbors.len(), cell.synced_tick);
    let mut maintained = false;
    while let Some(k) = next_due_tick(cell, ctx, nodes, own, frontier, thr) {
        if k > target {
            break;
        }
        let ProbeCell {
            est,
            synced_tick,
            due_cache,
        } = &mut *cell;
        let owner = nodes.schedule(est.owner).sessions();
        let own = own.get(owner, ctx.period, *synced_tick, ctx.max_tick);
        for (i, at) in frontier.iter_mut().enumerate() {
            if due_cache[i] == k {
                advance_slot(est, i, ctx, nodes, own, *at, k);
                *at = k;
            }
        }
        // Maintenance touches exactly the slots due at `k`: the others
        // lag, and their stale silence gaps must not be read.
        est.rounds = own.rounds_through(k);
        est.maintain_slots(&ctx.streams, ctx.n_nodes, |_, i| due_cache[i] == k);
        // The maintained slots' trajectories (and hence due ticks) are
        // new, and a replacement's schedule is derived only now that it
        // holds the slot. Every other slot's cached due tick still holds.
        for (slot, &v) in due_cache.iter_mut().zip(&est.neighbors) {
            if *slot == k {
                *slot = DUE_UNKNOWN;
                let _ = nodes.touch(v, target);
            }
        }
        maintained = true;
    }
    // No due tick up to the target (or ever): one plain advance, and the
    // cached dues stay valid for the next sync or query.
    if !maintained {
        advance(cell, ctx, nodes, own, target);
        return;
    }
    let ProbeCell {
        est, synced_tick, ..
    } = cell;
    let owner = nodes.schedule(est.owner).sessions();
    let own = own.get(owner, ctx.period, *synced_tick, ctx.max_tick);
    for (i, &at) in frontier.iter().enumerate() {
        if at < target {
            advance_slot(est, i, ctx, nodes, own, at, target);
        }
    }
    est.rounds = own.rounds_through(target);
    *synced_tick = target;
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

/// The cell store: cells exist only for touched nodes and can be dropped
/// again — the analytic schedule plus the position-keyed streams *are* the
/// compact summary, so a re-touch reconstructs the exact state the cell
/// would have held had it never been evicted.
#[derive(Debug, Clone)]
struct SparseCells {
    /// Each cell's synced tick doubles as its eviction clock: every read
    /// syncs the cell to the tick it reads at.
    map: HashMap<usize, ProbeCell, Mix64State>,
    /// The derived schedules the cells read, over the source of the
    /// initial neighbor sets every (re-)materialization starts from.
    nodes: NodeCache,
    /// Scratch owner runs of the cell being caught up.
    own: OwnerTicks,
    /// Scratch slot frontiers of the cell being caught up.
    frontier: Vec<u64>,
    stats: Residency,
}

impl SparseCells {
    /// Materializes (if absent) and syncs node `s`'s cell through `target`.
    fn touch(&mut self, s: NodeId, target: u64, ctx: &LazyCtx) -> &mut ProbeCell {
        self.touch_with_nodes(s, target, ctx).0
    }

    /// [`SparseCells::touch`], also handing back the node cache.
    fn touch_with_nodes(
        &mut self,
        s: NodeId,
        target: u64,
        ctx: &LazyCtx,
    ) -> (&mut ProbeCell, &mut NodeCache) {
        let SparseCells {
            map,
            nodes,
            own,
            frontier,
            stats,
        } = self;
        let cell = map.entry(s.index()).or_insert_with(|| {
            // The cell's estimator keeps the node's current neighbor set,
            // so the initial one is derived straight into it, not cached.
            let nbrs = nodes.source().neighbors(s);
            stats.materialized += 1;
            stats.peak = stats.peak.max(stats.materialized);
            stats.bytes += cell_footprint(nbrs.len());
            stats.peak_bytes = stats.peak_bytes.max(stats.bytes);
            ProbeCell {
                est: ProbeEstimator::new(s, ctx.period, nbrs),
                synced_tick: 0,
                due_cache: Vec::new(),
            }
        });
        sync_cell(cell, ctx, nodes, own, frontier, target);
        (cell, nodes)
    }
}

/// Lazily-synced probe state for every node in the system.
///
/// Reads (`availability`, `live_neighbors_into`, …) sync the queried node's cell
/// on demand through interior mutability.
///
/// A cell is allocated the first time its node is touched and can be
/// evicted again when idle ([`LazyProbeSet::evict_idle`]). Because a
/// cell's state at tick `k` is a pure function of the schedules, the
/// initial neighbor sets and the position-keyed streams, an evicted cell
/// reconstructs **bit-identically** on re-touch: which cells are resident
/// never changes a query result. The schedules themselves are derived on
/// first read into the store's [`NodeCache`] and evicted by the same
/// sweep; a cell's initial neighbor set is derived when the cell is built.
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
    /// Builds the lazy probe state over the churn schedules and initial
    /// neighbor sets of `nodes`. Probe ticks are every `k·period < horizon`
    /// (`k ≥ 1`); `threshold` enables neighbor replacement after that many
    /// silent rounds (must be ≥ 1 — a threshold of 0 would replace a
    /// neighbor at the very tick it is observed alive).
    ///
    /// No cell exists until its node is first touched by a read, and idle
    /// cells can be evicted back to nothing. A node's schedule and initial
    /// neighbor set are derived from `nodes` when first read, so resident
    /// memory scales with the touched working set, never with `N`.
    #[must_use]
    pub fn new_sparse(
        period: f64,
        horizon: f64,
        nodes: NodeSource,
        threshold: Option<u64>,
        streams: StreamFactory,
    ) -> Self {
        assert!(period > 0.0, "probing period must be positive");
        assert!(
            probe_ticks_fit(period, horizon),
            "probing period puts more than 2^32 ticks in the horizon"
        );
        if let Some(t) = threshold {
            assert!(t >= 1, "replacement threshold must be >= 1");
        }
        LazyProbeSet {
            ctx: LazyCtx {
                period,
                max_tick: last_tick_before(horizon, period).unwrap_or(0),
                n_nodes: nodes.len(),
                threshold,
                streams,
            },
            cells: RefCell::new(SparseCells {
                map: HashMap::default(),
                nodes: NodeCache::new(nodes),
                own: OwnerTicks::default(),
                frontier: Vec::new(),
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
    /// synced tick — the eviction clock — advances to the queried tick.
    fn with_cell<R>(&self, s: NodeId, now: f64, f: impl FnOnce(&ProbeCell) -> R) -> R {
        let target = self.target_tick(now);
        f(self.cells.borrow_mut().touch(s, target, &self.ctx))
    }

    /// Calls `f` with node `v`'s churn schedule, derived on first read and
    /// cached until the node idles past an eviction window.
    #[inline]
    pub fn with_schedule<R>(&self, v: NodeId, now: f64, f: impl FnOnce(&NodeSchedule) -> R) -> R {
        let tick = self.target_tick(now);
        f(self.cells.borrow_mut().nodes.touch(v, tick))
    }

    /// Whether node `v` is up at `now`, without caching `v` if it is not
    /// resident — for whole-world scans.
    #[inline]
    #[must_use]
    pub fn is_up_uncached(&self, v: NodeId, now: f64) -> bool {
        self.cells
            .borrow_mut()
            .nodes
            .is_up_uncached(v, SimTime::new(now))
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

    /// Fills `out` with `s`'s current neighbors as of `now` (syncs `s` on
    /// demand — replacements up to `now` are visible) that are up at `now`
    /// and pass `keep`, in slot order. The routing hot path: one store
    /// access answers the whole neighbor set.
    pub fn live_neighbors_into(
        &self,
        s: NodeId,
        now: f64,
        out: &mut Vec<NodeId>,
        keep: impl Fn(NodeId) -> bool,
    ) {
        let target = self.target_tick(now);
        let t = SimTime::new(now);
        let mut store = self.cells.borrow_mut();
        let (cell, nodes) = store.touch_with_nodes(s, target, &self.ctx);
        out.clear();
        for &v in &cell.est.neighbors {
            if nodes.touch(v, target).is_up(t) && keep(v) {
                out.push(v);
            }
        }
    }

    /// A snapshot of `s`'s estimator as of `now` — the exact state an eager
    /// [`ProbeEstimator`] driven with `probe_round_seeded`/`maintain_seeded`
    /// at every tick would hold.
    #[must_use]
    pub fn estimator(&self, s: NodeId, now: f64) -> ProbeEstimator {
        self.with_cell(s, now, |cell| cell.est.clone())
    }

    /// Evicts cells last read more than `idle_ticks` probe ticks before
    /// `now` (by their synced tick) back to their analytic summary, and
    /// the derived schedules last read before the same cutoff. Returns the
    /// number of cells evicted.
    ///
    /// Eviction is **value-invisible**: which cells and nodes are resident
    /// never affects any query result (a later touch reconstructs the
    /// dropped state bit-identically from the position-keyed streams), so
    /// the sweep cadence is free to be a pure policy choice.
    pub fn evict_idle(&self, now: f64, idle_ticks: u64) -> usize {
        let cutoff = self.target_tick(now).saturating_sub(idle_ticks);
        let mut store = self.cells.borrow_mut();
        let SparseCells {
            map, nodes, stats, ..
        } = &mut *store;
        nodes.evict_idle(cutoff);
        let before = map.len();
        map.retain(|_, cell| {
            let keep = cell.synced_tick >= cutoff;
            if !keep {
                stats.bytes -= cell_footprint(cell.est.neighbors.len());
            }
            keep
        });
        let evicted = before - map.len();
        stats.materialized -= evicted;
        stats.evictions += evicted as u64;
        evicted
    }

    /// Number of nodes whose schedule is derived and cached right now.
    #[must_use]
    pub fn resident_nodes(&self) -> usize {
        self.cells.borrow().nodes.resident()
    }

    /// Residency statistics of the cell store.
    #[must_use]
    pub fn residency(&self) -> Residency {
        self.cells.borrow().stats
    }

    /// Snapshot export of the cell store: each resident cell's key
    /// (node, synced tick) plus the residency stats. A cell's estimator is
    /// a pure function of its node and synced tick — the same fact idle
    /// eviction relies on — so [`LazyProbeSet::restore_cells`] rebuilds it
    /// instead of reading it.
    #[must_use]
    pub fn snapshot_cells(&self) -> ProbeCellsSnapshot {
        let store = self.cells.borrow();
        let mut cells: Vec<(usize, u64)> = store
            .map
            .iter()
            .map(|(&i, cell)| (i, cell.synced_tick))
            .collect();
        cells.sort_unstable_by_key(|&(i, _)| i);
        ProbeCellsSnapshot {
            cells,
            stats: store.stats,
        }
    }

    /// Replaces the cell store with the one a
    /// [`LazyProbeSet::snapshot_cells`] export describes. The probe set
    /// must have been constructed with the same configuration (period,
    /// horizon, node source, threshold, streams) as the exporting one.
    ///
    /// Each cell is rebuilt through the materialise-and-sync path a read
    /// takes, so a restored cell costs the same catch-up as re-touching
    /// it after eviction. The residency stats are installed only if they
    /// agree with the rebuilt cells. On `Err` the probe set is untouched.
    /// Never panics.
    ///
    /// # Errors
    ///
    /// A static description of the first inconsistency found: a node out
    /// of range or out of strict order, a tick beyond the horizon, or
    /// stats that disagree with the rebuilt cells.
    pub fn restore_cells(&mut self, snap: ProbeCellsSnapshot) -> Result<(), &'static str> {
        let ProbeCellsSnapshot { cells, stats } = snap;
        let ctx = &self.ctx;
        let mut prev: Option<usize> = None;
        for &(node, synced_tick) in &cells {
            if node >= ctx.n_nodes {
                return Err("probe cell node out of range");
            }
            if prev.is_some_and(|p| p >= node) {
                return Err("probe cells not strictly sorted");
            }
            prev = Some(node);
            if synced_tick > ctx.max_tick {
                return Err("probe cell tick beyond horizon");
            }
        }
        let store = self.cells.get_mut();
        let mut rebuilt = SparseCells {
            map: HashMap::default(),
            nodes: NodeCache::new(store.nodes.source().clone()),
            own: OwnerTicks::default(),
            frontier: Vec::new(),
            stats: Residency::default(),
        };
        for &(node, synced_tick) in &cells {
            rebuilt.touch(NodeId(node), synced_tick, ctx);
        }
        let have = rebuilt.stats;
        if stats.materialized != have.materialized
            || stats.bytes != have.bytes
            || stats.peak < stats.materialized
            || stats.peak_bytes < stats.bytes
        {
            return Err("probe residency stats inconsistent");
        }
        rebuilt.stats = stats;
        *store = rebuilt;
        self.tick_memo = std::cell::Cell::new((f64::NEG_INFINITY, 0));
        Ok(())
    }
}

/// Snapshot export of a [`LazyProbeSet`]'s resident cells: keys, not
/// state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeCellsSnapshot {
    /// `(node index, synced tick)`, strictly sorted by node index.
    pub cells: Vec<(usize, u64)>,
    /// The residency statistics at snapshot time (peaks and eviction
    /// counts are part of the reported run result, so they must survive a
    /// resume).
    pub stats: Residency,
}

#[cfg(test)]
mod tests {
    use super::*;

    use idpa_desim::rng::Xoshiro256StarStar;
    use rand::RngExt;

    use crate::topology::Topology;

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
            NodeSource::from_tables(schedules, Topology::from_lists(neighbors)),
            threshold,
            streams,
        )
    }

    /// Owner runs of `sched` over `(after, upto]`.
    fn owner_ticks(sched: &NodeSchedule, period: f64, after: u64, upto: u64) -> OwnerTicks {
        let mut own = OwnerTicks::default();
        own.get(sched.sessions(), period, after, upto);
        own
    }

    #[test]
    fn tick_helpers_agree_with_is_up_semantics() {
        let sched = NodeSchedule::from_sessions(vec![(2.5, 10.0), (12.0, 13.0)]);
        let period = 2.5;
        let own = owner_ticks(&sched, period, 0, 8);
        for k in 1..8u64 {
            let t = tick_time(k, period);
            let counted = own.through(k) - own.through(k - 1) == 1;
            assert_eq!(sched.is_up(SimTime::new(t)), counted, "tick {k} at t={t}");
        }
    }

    #[test]
    fn boundary_ticks_land_like_is_up() {
        // A session starting exactly on a tick includes it; one ending
        // exactly on a tick excludes it ([start, end) semantics).
        let period = 5.0;
        let sched = NodeSchedule::from_sessions(vec![(5.0, 20.0)]);
        let window = TickWindow::new(period, 0, 100);
        assert_eq!(window.session_tick_range(5.0, 20.0), Some((1, 3)));
        assert_eq!(window.session_tick_range(4.0, 20.5), Some((1, 4)));
        // Bounds outside the window clip to it.
        let window = TickWindow::new(period, 2, 3);
        assert_eq!(window.session_tick_range(0.0, 100.0), Some((3, 3)));
        assert_eq!(window.session_tick_range(0.0, 15.0), None);
        assert_eq!(owner_ticks(&sched, period, 0, 100).through(100), 3);
    }

    /// The up ticks of `sched` in `(after, upto]`, one `is_up` call a tick.
    fn up_ticks(sched: &NodeSchedule, period: f64, after: u64, upto: u64) -> Vec<u64> {
        ((after + 1)..=upto)
            .filter(|&k| sched.is_up(SimTime::new(tick_time(k, period))))
            .collect()
    }

    /// A random schedule over `[0, horizon)` whose session bounds often sit
    /// exactly on a tick, and whose sessions sometimes touch.
    fn random_schedule(rng: &mut Xoshiro256StarStar, period: f64, horizon: f64) -> NodeSchedule {
        // The next session bound at or after `t`: one of the next few
        // ticks (possibly `t` itself), or an arbitrary time.
        let next = |rng: &mut Xoshiro256StarStar, t: f64| match rng.random_range(0..2u32) {
            0 => tick_time(
                first_tick_at_or_after(t, period) + rng.random_range(0..3u64),
                period,
            ),
            _ => t + rng.random_range(0.01..4.0 * period),
        };
        let mut sessions = Vec::new();
        let mut t = 0.0;
        loop {
            let start = next(rng, t);
            let end = next(rng, start + period / 8.0);
            if end >= horizon {
                break;
            }
            sessions.push((start, end));
            t = end;
        }
        NodeSchedule::from_sessions(sessions)
    }

    /// Seeded oracle: the owner runs' counts and positions, and the joint
    /// runs with a neighbor, equal a per-tick `is_up` walk, also for
    /// windows whose `after` lies past the build base and for empty ones.
    #[test]
    fn tick_runs_match_a_per_tick_walk() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2525);
        let (mut joint_seen, mut empty_seen) = (0, 0);
        for case in 0..300 {
            let period = [1.0, 2.5, 0.7, 5.0][case % 4];
            let horizon = tick_time(rng.random_range(2..60u64), period) + 0.3;
            let max_tick = last_tick_before(horizon, period).unwrap_or(0);
            let owner = random_schedule(&mut rng, period, horizon);
            let nbr = random_schedule(&mut rng, period, horizon);
            let base = rng.random_range(0..=max_tick);
            let upto = rng.random_range(base..=max_tick);
            let own = owner_ticks(&owner, period, base, upto);
            let ups = up_ticks(&owner, period, base, upto);
            for after in base..=upto {
                let at_after = own.through(after);
                assert_eq!(
                    at_after as usize,
                    ups.iter().filter(|&&k| k <= after).count(),
                    "case {case}: ups in ({base}, {after}]"
                );
                for x in after..=upto {
                    let want = ups.iter().filter(|&&k| k > after && k <= x).count();
                    assert_eq!((own.through(x) - at_after) as usize, want, "case {case}");
                }
                let later: Vec<u64> = ups.iter().copied().filter(|&k| k > after).collect();
                for p in 1..=later.len() as u64 + 2 {
                    assert_eq!(
                        own.at(at_after + p),
                        later.get(p as usize - 1).copied(),
                        "case {case}: position {p} after {after}"
                    );
                }
                for to in after..=upto {
                    let both: Vec<u64> = up_ticks(&nbr, period, after, to)
                        .into_iter()
                        .filter(|&k| owner.is_up(SimTime::new(tick_time(k, period))))
                        .collect();
                    let mut runs = Vec::new();
                    own.for_each_joint(nbr.sessions(), period, after, to, |r| {
                        runs.push(r);
                        true
                    });
                    let walked: Vec<u64> = runs.iter().flat_map(|r| r.lo..=r.hi).collect();
                    assert_eq!(walked, both, "case {case}: joint ticks in ({after}, {to}]");
                    for r in &runs {
                        assert_eq!(own.through(r.lo), r.before + 1, "case {case}: run {r:?}");
                        assert_eq!(own.through(r.hi), r.through(), "case {case}: run {r:?}");
                    }
                    joint_seen += runs.len();
                    empty_seen += usize::from(to == after);
                }
            }
        }
        assert!(
            joint_seen > 1000 && empty_seen > 0,
            "{joint_seen} {empty_seen}"
        );
    }

    #[test]
    fn probe_tick_bound_rejects_tiny_periods() {
        assert!(probe_ticks_fit(0.5, 14.0 * 1440.0));
        assert!(probe_ticks_fit(f64::INFINITY, 1440.0));
        assert!(probe_ticks_fit(1e-9, 1.0));
        assert!(!probe_ticks_fit(1e-300, 1440.0));
        assert!(!probe_ticks_fit(
            1440.0 / (MAX_PROBE_TICKS as f64 * 2.0),
            1440.0
        ));
        // The helpers saturate instead of wrapping.
        assert_eq!(last_tick_before(1440.0, 1e-300), Some(u64::MAX));
        assert_eq!(first_tick_at_or_after(1440.0, 1e-300), u64::MAX);
    }

    #[test]
    fn last_tick_before_handles_exact_multiples() {
        assert_eq!(last_tick_before(10.0, 5.0), Some(1));
        assert_eq!(last_tick_before(10.1, 5.0), Some(2));
        assert_eq!(last_tick_before(0.0, 5.0), None);
        assert_eq!(last_tick_at_or_before(10.0, 5.0), 2);
        assert_eq!(last_tick_at_or_before(9.9, 5.0), 1);
    }

    /// Checks each O(1) tick helper against its walk at `(t, period)`.
    fn assert_helpers_equal_walks(t: f64, period: f64) {
        assert_eq!(
            first_tick_at_or_after(t, period),
            first_tick_at_or_after_walk(t, period),
            "first_tick_at_or_after({t:e}, {period:e})"
        );
        assert_eq!(
            last_tick_before(t, period),
            last_tick_before_walk(t, period),
            "last_tick_before({t:e}, {period:e})"
        );
        assert_eq!(
            last_tick_at_or_before(t, period),
            last_tick_at_or_before_walk(t, period),
            "last_tick_at_or_before({t:e}, {period:e})"
        );
    }

    /// The bracket-checked helpers return what their walks return: over
    /// seeded pairs, on and one ulp around exact tick times, and at the
    /// inputs only the walks serve (non-positive and NaN times, periods
    /// that saturate the tick index or are not positive and finite).
    #[test]
    fn tick_helpers_equal_their_walks() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3636);
        for _ in 0..1_000_000 {
            let period = 10f64.powf(rng.random_range(-3.0..3.0));
            let t = match rng.random_range(0..3u32) {
                0 => rng.random_range(0.0..1e6),
                1 => rng.random_range(0.0..1.0) * period,
                // A few ulps from a tick time.
                _ => {
                    let t = tick_time(rng.random_range(1..1u64 << 40), period);
                    let ulps = rng.random_range(0..7u64) as i64 - 3;
                    f64::from_bits(t.to_bits().wrapping_add_signed(ulps))
                }
            };
            assert_helpers_equal_walks(t, period);
        }
        for period in [1e-3, 0.1, 0.3, 1.0, 7.0 / 3.0, 5.0] {
            let ks = (0..20_000u64).chain((0..40).map(|i| (1u64 << 52) - 20 + i));
            for k in ks {
                let t = tick_time(k, period);
                for t in [t.next_down(), t, t.next_up()] {
                    assert_helpers_equal_walks(t, period);
                }
            }
        }
        let times = [
            0.0,
            -0.0,
            -1.0,
            -5e-324,
            5e-324,
            f64::NEG_INFINITY,
            f64::NAN,
            1.0,
            1e300,
        ];
        for t in times {
            for period in [1e-300, 5e-324, f64::INFINITY, f64::NAN, 5.0] {
                assert_helpers_equal_walks(t, period);
            }
        }
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
        assert_eq!(lazy.estimator(NodeId(0), 29.9).neighbors(), [NodeId(1)]);
        assert_eq!(lazy.estimator(NodeId(0), 30.0).neighbors(), [NodeId(2)]);
    }

    /// Computes every unknown due tick of a synced cell from its frontier.
    fn fill_dues(
        cell: &mut ProbeCell,
        ctx: &LazyCtx,
        nodes: &mut NodeCache,
        own: &mut OwnerTicks,
        thr: u64,
    ) {
        touch_cell_nodes(cell, nodes, cell.synced_tick);
        own.clear(cell.est.rounds);
        let frontier = vec![cell.synced_tick; cell.est.neighbors.len()];
        next_due_tick(cell, ctx, nodes, own, &frontier, thr);
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
        let mut nodes = NodeCache::new(NodeSource::from_tables(
            schedules.clone(),
            Topology::from_lists(neighbors.clone()),
        ));
        let mut own = OwnerTicks::default();
        let mut frontier = Vec::new();
        let mut replacements = 0;
        for (i, nbrs) in neighbors.into_iter().enumerate() {
            let mut eager = ProbeEstimator::new(NodeId(i), ctx.period, nbrs.clone());
            let fresh = || ProbeCell {
                est: eager.clone(),
                synced_tick: 0,
                due_cache: Vec::new(),
            };
            let mut jump = fresh();
            sync_cell(&mut jump, ctx, &mut nodes, &mut own, &mut frontier, k_end);
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
                sync_cell(&mut step, ctx, &mut nodes, &mut own, &mut frontier, k);
                assert_eq!(step.est, eager, "node {i} at tick {k}");
                // The due ticks kept across maintenances equal a full
                // recompute from the current frontier.
                fill_dues(&mut step, ctx, &mut nodes, &mut own, thr);
                let mut recomputed = step.clone();
                recomputed.due_cache.fill(DUE_UNKNOWN);
                fill_dues(&mut recomputed, ctx, &mut nodes, &mut own, thr);
                assert_eq!(recomputed, step, "node {i} at tick {k}");
            }
            // One jump over every replacement lands on the same estimator,
            // frontier and cached due ticks.
            fill_dues(&mut jump, ctx, &mut nodes, &mut own, thr);
            assert_eq!(jump, step, "node {i}");
        }
        assert!(replacements > 0, "the fixture must exercise replacements");
    }

    /// Seeded oracle for the slot-by-slot catch-up with replacement on:
    /// one catch-up over dozens of due ticks lands every estimator where
    /// an eager `probe_round_seeded` + `maintain_seeded` run stepped tick
    /// by tick does. Nodes share schedules, so several slots of one owner
    /// fall due at the same tick; a third of the worlds hold `degree + 2`
    /// nodes, where a replacement's 16 draws can all fail; a quarter run
    /// threshold 1; and half the cases first sync mid-horizon, so the long
    /// catch-up starts from a warm due cache.
    #[test]
    fn replacement_catch_up_matches_eager_ticks() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2727);
        // Ticks with two or more slots due, maintenances that left a due
        // slot unreplaced, threshold-1 cases, and warm-started catch-ups
        // that replayed a maintenance.
        let (mut shared, mut failed, mut thr_one, mut warm) = (0, 0, 0, 0);
        for case in 0..256 {
            let period = [1.0, 2.5, 0.7, 5.0][case % 4];
            let max_tick = rng.random_range(40..160u64);
            let horizon = tick_time(max_tick, period) + period / 2.0;
            let degree = rng.random_range(2..9usize);
            let n = if case % 3 == 0 {
                degree + 2
            } else {
                degree + rng.random_range(3..20usize)
            };
            let thr = if case % 4 == 1 {
                1
            } else {
                rng.random_range(1..8u64)
            };
            thr_one += usize::from(thr == 1);
            let pool: Vec<NodeSchedule> = (0..3)
                .map(|_| random_schedule(&mut rng, period, horizon))
                .collect();
            let schedules: Vec<NodeSchedule> = (0..n)
                .map(|_| match rng.random_range(0..5usize) {
                    i @ 0..=2 => pool[i].clone(),
                    _ => random_schedule(&mut rng, period, horizon),
                })
                .collect();
            let neighbors: Vec<Vec<NodeId>> = (0..n)
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
            let streams = StreamFactory::new(rng.random_range(0..u64::MAX));
            let lazy = probe_set(
                period,
                horizon,
                schedules.clone(),
                neighbors.clone(),
                Some(thr),
                streams.clone(),
            );
            assert_eq!(lazy.max_tick(), max_tick);
            let mid = (case % 2 == 0).then(|| rng.random_range(max_tick / 4..=max_tick / 2));

            let mut eager: Vec<ProbeEstimator> = (0..n)
                .map(|i| ProbeEstimator::new(NodeId(i), period, neighbors[i].clone()))
                .collect();
            let mut at_mid = None;
            let mut due_after_mid = false;
            for k in 1..=max_tick {
                let t = SimTime::new(tick_time(k, period));
                for est in eager
                    .iter_mut()
                    .filter(|e| schedules[e.owner.index()].is_up(t))
                {
                    est.probe_round_seeded(&streams, |v| schedules[v.index()].is_up(t));
                    let due = |e: &ProbeEstimator| {
                        (0..degree)
                            .filter(|&i| e.rounds - e.last_alive_round[i] >= thr)
                            .count()
                    };
                    let before = due(est);
                    est.maintain_seeded(&streams, thr, n);
                    shared += usize::from(before >= 2);
                    failed += usize::from(due(est) > 0);
                    due_after_mid |= before > 0 && mid.is_some_and(|m| k > m);
                }
                if Some(k) == mid {
                    at_mid = Some(eager.clone());
                }
            }
            warm += usize::from(due_after_mid);

            for i in 0..n {
                if let (Some(m), Some(at_mid)) = (mid, &at_mid) {
                    let t = tick_time(m, period);
                    assert_eq!(
                        lazy.estimator(NodeId(i), t),
                        at_mid[i],
                        "case {case} node {i} at {m}"
                    );
                }
                assert_eq!(
                    lazy.estimator(NodeId(i), horizon),
                    eager[i],
                    "case {case} node {i}: n={n} d={degree} thr={thr} mid={mid:?}"
                );
            }
        }
        assert!(
            shared > 10_000 && failed > 500 && thr_one >= 64 && warm > 100,
            "shared={shared} failed={failed} thr_one={thr_one} warm={warm}"
        );
    }
}
