//! Next-hop selection (§2.2, §2.4).
//!
//! A forwarder holding the payload "calculates its utility corresponding to
//! each neighbor q ∈ D(X) and selects the neighbor which gives it the
//! maximum utility as the next hop. Ties are broken by selecting a neighbor
//! with a higher quality." Adversaries route randomly. Termination is
//! Crowds-style (probabilistic) and/or hop-bounded ([`PathPolicy`]) — the
//! responder is *not* a candidate next hop; the coin, not the utility,
//! decides when the payload leaves the forwarding layer, which is how the
//! paper keeps "path lengths which are appropriate for anonymity systems".

use std::collections::HashMap;

use idpa_desim::rng::{splitmix64, Xoshiro256StarStar};
use idpa_overlay::NodeId;
use rand::RngExt;

use crate::arena::HistoryArena;
use crate::contract::Contract;
use crate::quality::EdgeQuality;
use crate::utility::{model_one_utility, model_two_utility, UtilityModel};

/// The immutable system snapshot a routing decision reads.
///
/// Implemented by the simulator over its churn schedules, probe estimators
/// and cost model; implemented over fixtures in tests.
pub trait RoutingView {
    /// Clears `out` and fills it with the neighbors of `s` currently alive
    /// (the candidate forwarders). The caller owns the buffer, so the
    /// routing hot path allocates no `Vec` per hop.
    fn live_neighbors_into(&self, s: NodeId, out: &mut Vec<NodeId>);
    /// `α_s(v)`: availability of `v` as estimated by `s` (§2.3).
    fn availability(&self, s: NodeId, v: NodeId) -> f64;
    /// `ρ_s(v)`: reputation of `v` as observed by the deciding initiator
    /// ([`crate::reputation::EdgeReputation::score`]). Only read when the
    /// quality model's reputation weight `w_r` is non-zero; the default is
    /// the clean-ledger score 1 (views without a fault ledger).
    fn reputation(&self, _s: NodeId, _v: NodeId) -> f64 {
        1.0
    }
    /// Transmission cost `C^t(s, v)` for one forwarding instance.
    fn transmission_cost(&self, s: NodeId, v: NodeId) -> f64;
    /// Participation cost `C^p` of `s`.
    fn participation_cost(&self, s: NodeId) -> f64;
}

/// Reusable scratch state for routing decisions: candidate buffers shared
/// across hops plus the per-transmission memo caches that de-duplicate
/// work inside model II's exponential lookahead.
///
/// One transmission (one connection being formed) reads a fixed snapshot —
/// histories are updated only after the confirmation returns, and the
/// liveness view is fixed at the transmission's timestamp — so edge
/// qualities `q(s, v)` and continuation values memoised during the
/// transmission stay valid across all of its hops. Callers own one scratch
/// (per run, or per connection) and call
/// [`RouteScratch::begin_transmission`] whenever the underlying snapshot
/// may have changed.
#[derive(Debug, Default)]
pub struct RouteScratch {
    /// Candidate next hops for the current decision.
    candidates: Vec<NodeId>,
    /// Colluding subset of the candidates (adversary routing).
    colluders: Vec<NodeId>,
    /// One neighbor buffer per lookahead depth, reused across the tree.
    neighbor_bufs: Vec<Vec<NodeId>>,
    /// DFS path of the lookahead (loop avoidance).
    visited: Vec<NodeId>,
    /// Order-independent fingerprint of `visited` (XOR of per-node
    /// SplitMix64 hashes), the memo key component for continuations.
    visited_fp: u64,
    /// Memo: pre-mixed `(s, v)` key `-> q(s, v)` for this transmission.
    edge_q: HashMap<u64, f64, PremixedState>,
    /// Memo: pre-mixed `(from, depth, visited fingerprint)` key
    /// `-> (sum, edges)` of the best continuation.
    cont: HashMap<u64, (f64, usize), PremixedState>,
}

/// Build-hasher for keys that are already SplitMix64-mixed `u64`s: the
/// hash *is* the key. A tuple key under the default SipHash state costs
/// more than the memoised computation it replaces; identity hashing keeps
/// a cache probe at a few nanoseconds.
#[derive(Debug, Default, Clone)]
struct PremixedState;

#[derive(Debug)]
struct PremixedHasher(u64);

impl std::hash::Hasher for PremixedHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("premixed maps only hash u64 keys")
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

impl std::hash::BuildHasher for PremixedState {
    type Hasher = PremixedHasher;
    fn build_hasher(&self) -> PremixedHasher {
        PremixedHasher(0)
    }
}

/// Mixed key for the edge memo.
fn edge_key(s: NodeId, v: NodeId) -> u64 {
    splitmix64(((s.index() as u64) << 32) | v.index() as u64)
}

/// Mixed key for the continuation memo: the visited fingerprint is
/// already mixed, the `(from, depth)` pair is mixed in.
fn cont_key(from: NodeId, depth: u8, visited_fp: u64) -> u64 {
    visited_fp ^ splitmix64(((from.index() as u64) << 8) | u64::from(depth))
}

impl RouteScratch {
    /// An empty scratch.
    #[must_use]
    pub fn new() -> Self {
        RouteScratch::default()
    }

    /// Invalidates the memo caches. Call at the start of every
    /// transmission (or whenever histories or the liveness snapshot
    /// change); buffers stay allocated.
    pub fn begin_transmission(&mut self) {
        self.edge_q.clear();
        self.cont.clear();
    }

    fn reset_visited(&mut self) {
        self.visited.clear();
        self.visited_fp = 0;
    }

    fn push_visited(&mut self, v: NodeId) {
        self.visited.push(v);
        self.visited_fp ^= node_fingerprint(v);
    }

    fn pop_visited(&mut self) {
        if let Some(v) = self.visited.pop() {
            self.visited_fp ^= node_fingerprint(v);
        }
    }

    fn take_neighbor_buf(&mut self, depth: usize) -> Vec<NodeId> {
        while self.neighbor_bufs.len() <= depth {
            self.neighbor_bufs.push(Vec::new());
        }
        std::mem::take(&mut self.neighbor_bufs[depth])
    }

    fn put_neighbor_buf(&mut self, depth: usize, buf: Vec<NodeId>) {
        self.neighbor_bufs[depth] = buf;
    }
}

/// SplitMix64 finaliser over the node index — the per-node hash XORed into
/// the visited-set fingerprint.
fn node_fingerprint(v: NodeId) -> u64 {
    splitmix64(v.index() as u64)
}

/// How a node routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingStrategy {
    /// Uniform random next hop — the adversary model, and the baseline the
    /// paper compares against in Figs. 5–7.
    Random,
    /// Utility-maximising under the given model — the selfish-rational
    /// strategy the incentive mechanism rewards.
    Utility(UtilityModel),
}

/// How malicious nodes route (the paper's base model is random routing;
/// collusion is the §4-motivated strengthening where colluders steer
/// traffic to each other to capture payments and observations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AdversaryStrategy {
    /// Uniform random next hop (§2.4's adversary model).
    #[default]
    Random,
    /// Prefer a colluding (malicious) neighbor uniformly at random; fall
    /// back to uniform random when no colluder is a live candidate.
    Colluding,
}

/// How a path decides to stop extending (§2.2: "both Crowds like
/// probabilistic forwarding and hop-distance based forwarding are
/// applicable to our model").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Termination {
    /// Crowds coin: after the unconditional first hop, forward again with
    /// this probability, else deliver to R.
    Crowds {
        /// Forwarding probability per hop, in `[0, 1)`.
        p_forward: f64,
    },
    /// Hop-distance: extend to exactly this many forwarder hops (fewer
    /// only when no candidate exists), then deliver.
    HopDistance {
        /// Target number of forwarder hops (≥ 1).
        length: u32,
    },
}

/// Termination policy for path formation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathPolicy {
    /// The termination rule.
    pub termination: Termination,
    /// Hard hop bound (applies to both modes).
    pub max_hops: u32,
}

impl PathPolicy {
    /// Crowds-style policy; `p_forward ∈ [0, 1)`.
    #[must_use]
    pub fn new(p_forward: f64, max_hops: u32) -> Self {
        assert!(
            (0.0..1.0).contains(&p_forward),
            "p_forward must be in [0,1), got {p_forward}"
        );
        assert!(max_hops >= 1, "need at least one hop");
        PathPolicy {
            termination: Termination::Crowds { p_forward },
            max_hops,
        }
    }

    /// Hop-distance policy: paths of exactly `length` forwarder hops.
    #[must_use]
    pub fn hop_distance(length: u32) -> Self {
        assert!(length >= 1, "need at least one hop");
        PathPolicy {
            termination: Termination::HopDistance { length },
            max_hops: length,
        }
    }

    /// Expected number of forwarder hops (ignoring the hop bound and
    /// candidate exhaustion).
    #[must_use]
    pub fn expected_hops(&self) -> f64 {
        match self.termination {
            Termination::Crowds { p_forward } => 1.0 / (1.0 - p_forward),
            Termination::HopDistance { length } => f64::from(length),
        }
    }

    /// Whether the path should attempt another hop, given the hops so far
    /// and a uniform draw in `[0, 1)` for the Crowds coin.
    #[must_use]
    pub fn wants_another_hop(&self, hops_so_far: usize, coin: f64) -> bool {
        if hops_so_far >= self.max_hops as usize {
            return false;
        }
        match self.termination {
            // First hop unconditional, as in Crowds.
            Termination::Crowds { p_forward } => hops_so_far == 0 || coin < p_forward,
            Termination::HopDistance { length } => hops_so_far < length as usize,
        }
    }
}

/// A next-hop decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopChoice {
    /// The chosen neighbor.
    pub next: NodeId,
    /// The utility the chooser assigned (for diagnostics; `NaN` for random
    /// routing, which does not evaluate utilities).
    pub utility: f64,
    /// The edge quality `q` the chooser saw.
    pub quality: f64,
}

/// Memoised `q(s, v)`: looks the edge up in the transmission cache and
/// computes it from the history store on a miss.
#[allow(clippy::too_many_arguments)]
fn edge_quality_memo(
    s: NodeId,
    v: NodeId,
    contract: &Contract,
    priors: u32,
    histories: &HistoryArena,
    view: &impl RoutingView,
    quality: &EdgeQuality,
    scratch: &mut RouteScratch,
) -> f64 {
    let key = edge_key(s, v);
    if let Some(&q) = scratch.edge_q.get(&key) {
        return q;
    }
    let sigma = histories.selectivity(s, contract.bundle, priors, v);
    // The two-term branch never reads ρ and evaluates the exact paper
    // expression, so w_r = 0 runs are bit-identical to the pre-reputation
    // build (fingerprint-pinned).
    let q = if quality.uses_reputation() {
        quality.edge_with_reputation(sigma, view.availability(s, v), view.reputation(s, v))
    } else {
        quality.edge(sigma, view.availability(s, v))
    };
    scratch.edge_q.insert(key, q);
    q
}

/// Picks the next hop at node `s` (which may be the initiator).
///
/// Candidates are the live neighbors of `s`, excluding the responder (the
/// termination coin in [`PathPolicy`] decides delivery) and excluding `s`
/// itself. Returns `None` when no candidate exists **or** (for utility
/// strategies) when every candidate yields negative utility — the rational
/// node declines to extend the path, and the caller delivers to R.
///
/// Allocation-free: reuses the candidate buffer and memo caches in
/// `scratch`. The caller is responsible for calling
/// [`RouteScratch::begin_transmission`] when the snapshot changes.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn choose_next_hop_with(
    scratch: &mut RouteScratch,
    s: NodeId,
    strategy: RoutingStrategy,
    contract: &Contract,
    priors: u32,
    histories: &HistoryArena,
    view: &impl RoutingView,
    quality: &EdgeQuality,
    rng: &mut Xoshiro256StarStar,
) -> Option<HopChoice> {
    let mut candidates = std::mem::take(&mut scratch.candidates);
    view.live_neighbors_into(s, &mut candidates);
    candidates.retain(|&v| v != contract.responder && v != s);
    let choice = if candidates.is_empty() {
        None
    } else {
        match strategy {
            RoutingStrategy::Random => {
                let next = candidates[rng.random_range(0..candidates.len())];
                Some(HopChoice {
                    next,
                    utility: f64::NAN,
                    quality: f64::NAN,
                })
            }
            RoutingStrategy::Utility(model) => {
                let cp = view.participation_cost(s);
                let mut best: Option<HopChoice> = None;
                for &v in &candidates {
                    let q_edge = edge_quality_memo(
                        s, v, contract, priors, histories, view, quality, scratch,
                    );
                    let ct = view.transmission_cost(s, v);
                    let (u, q_seen) = match model {
                        UtilityModel::ModelI => (
                            model_one_utility(contract.pf, contract.pr, q_edge, cp, ct),
                            q_edge,
                        ),
                        UtilityModel::ModelII { lookahead } => {
                            let q_path = continuation_quality_with(
                                scratch, s, v, q_edge, lookahead, contract, priors, histories,
                                view, quality,
                            );
                            (
                                model_two_utility(contract.pf, contract.pr, q_path, cp, ct),
                                q_path,
                            )
                        }
                    };
                    let better = match &best {
                        None => true,
                        Some(b) => {
                            u > b.utility + 1e-12
                                // Paper's tie-break: higher quality wins.
                                || ((u - b.utility).abs() <= 1e-12 && q_seen > b.quality)
                        }
                    };
                    if better {
                        best = Some(HopChoice {
                            next: v,
                            utility: u,
                            quality: q_seen,
                        });
                    }
                }
                // A rational node does not extend the path at a loss.
                best.filter(|b| b.utility >= 0.0)
            }
        }
    };
    scratch.candidates = candidates;
    choice
}

/// Picks the next hop for a **colluding** malicious node: a uniformly
/// random malicious live neighbor if any exists, else uniformly random
/// among all candidates (the base adversary behaviour).
#[must_use]
pub fn choose_next_hop_colluding_with(
    scratch: &mut RouteScratch,
    s: NodeId,
    contract: &Contract,
    kinds: &[idpa_overlay::NodeKind],
    view: &impl RoutingView,
    rng: &mut Xoshiro256StarStar,
) -> Option<HopChoice> {
    let candidates = &mut scratch.candidates;
    view.live_neighbors_into(s, candidates);
    candidates.retain(|&v| v != contract.responder && v != s);
    if candidates.is_empty() {
        return None;
    }
    let colluders = &mut scratch.colluders;
    colluders.clear();
    colluders.extend(
        candidates
            .iter()
            .copied()
            .filter(|v| !kinds[v.index()].is_good()),
    );
    let pool: &[NodeId] = if colluders.is_empty() {
        candidates
    } else {
        colluders
    };
    let next = pool[rng.random_range(0..pool.len())];
    Some(HopChoice {
        next,
        utility: f64::NAN,
        quality: f64::NAN,
    })
}

/// Model II's continuation-path quality `q(π(s, j, R))`, normalised to
/// `[0, 1]`.
///
/// Evaluated by depth-limited backward induction over the live neighbor
/// graph (the §2.4.3 L-stage game under full information): each later
/// mover forwards to the neighbor whose continuation maximises its own
/// suffix quality, and delivery to R happens at the lookahead horizon or
/// at a dead end. The total is divided by the number of edges it
/// contains, keeping model II's quality on the same `[0, 1]` scale as
/// model I's. Continuation values and edge qualities are cached in
/// `scratch` and shared across all hops of one transmission.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn continuation_quality_with(
    scratch: &mut RouteScratch,
    s: NodeId,
    j: NodeId,
    q_first_edge: f64,
    lookahead: u8,
    contract: &Contract,
    priors: u32,
    histories: &HistoryArena,
    view: &impl RoutingView,
    quality: &EdgeQuality,
) -> f64 {
    scratch.reset_visited();
    scratch.push_visited(s);
    scratch.push_visited(j);
    let (total, edges) = continuation_rec(
        j,
        lookahead.saturating_sub(1),
        contract,
        priors,
        histories,
        view,
        quality,
        scratch,
    );
    (q_first_edge + total) / (1.0 + edges as f64)
}

/// Returns `(sum of edge qualities to R, number of edges counted)` for the
/// best continuation from `from`, including the final responder edge.
///
/// During lookahead a node is assumed to *forward* whenever it has a live
/// candidate (the Crowds coin keeps paths going with probability
/// `p_forward` regardless of utilities); delivery to R happens only at the
/// lookahead horizon or at a dead end. Without this, the fixed-quality-1
/// responder edge would dominate every comparison and model II would
/// degenerate to model I.
///
/// Subtrees are memoised on `(from, depth, visited-set fingerprint)`: the
/// value of a node at a given depth depends only on which nodes the path
/// already excludes (as a set — order is irrelevant), so identical states
/// reached through different branches are computed once per transmission.
#[allow(clippy::too_many_arguments)]
fn continuation_rec(
    from: NodeId,
    depth: u8,
    contract: &Contract,
    priors: u32,
    histories: &HistoryArena,
    view: &impl RoutingView,
    quality: &EdgeQuality,
    scratch: &mut RouteScratch,
) -> (f64, usize) {
    // Delivery to R: one final edge of fixed quality 1.
    let deliver = (quality.responder_edge(), 1usize);
    if depth == 0 {
        return deliver;
    }
    let key = cont_key(from, depth, scratch.visited_fp);
    if let Some(&hit) = scratch.cont.get(&key) {
        return hit;
    }
    let mut neighbors = scratch.take_neighbor_buf(depth as usize);
    view.live_neighbors_into(from, &mut neighbors);
    let mut best: Option<(f64, usize)> = None;
    let mut best_avg = f64::NEG_INFINITY;
    for &v in &neighbors {
        if v == contract.responder || scratch.visited.contains(&v) {
            continue;
        }
        let q_edge =
            edge_quality_memo(from, v, contract, priors, histories, view, quality, scratch);
        scratch.push_visited(v);
        let (tail_sum, tail_edges) = continuation_rec(
            v,
            depth - 1,
            contract,
            priors,
            histories,
            view,
            quality,
            scratch,
        );
        scratch.pop_visited();
        let cand = (q_edge + tail_sum, 1 + tail_edges);
        let cand_avg = cand.0 / cand.1 as f64;
        if cand_avg > best_avg + 1e-12 {
            best = Some(cand);
            best_avg = cand_avg;
        }
    }
    scratch.put_neighbor_buf(depth as usize, neighbors);
    // Dead end: forced delivery.
    let result = best.unwrap_or(deliver);
    scratch.cont.insert(key, result);
    result
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;
    use crate::bundle::BundleId;
    use crate::quality::Weights;
    use std::collections::HashMap;

    /// A fixture view over explicit tables.
    struct FixtureView {
        neighbors: HashMap<NodeId, Vec<NodeId>>,
        availability: HashMap<(NodeId, NodeId), f64>,
        cost: f64,
        cp: f64,
    }

    impl FixtureView {
        fn new(cost: f64, cp: f64) -> Self {
            FixtureView {
                neighbors: HashMap::new(),
                availability: HashMap::new(),
                cost,
                cp,
            }
        }
        fn with_neighbors(mut self, s: usize, nbrs: &[usize]) -> Self {
            self.neighbors
                .insert(NodeId(s), nbrs.iter().map(|&i| NodeId(i)).collect());
            self
        }
        fn with_availability(mut self, s: usize, v: usize, a: f64) -> Self {
            self.availability.insert((NodeId(s), NodeId(v)), a);
            self
        }
    }

    impl RoutingView for FixtureView {
        fn live_neighbors_into(&self, s: NodeId, out: &mut Vec<NodeId>) {
            out.clear();
            out.extend(self.neighbors.get(&s).into_iter().flatten());
        }
        fn availability(&self, s: NodeId, v: NodeId) -> f64 {
            self.availability.get(&(s, v)).copied().unwrap_or(0.0)
        }
        fn transmission_cost(&self, _: NodeId, _: NodeId) -> f64 {
            self.cost
        }
        fn participation_cost(&self, _: NodeId) -> f64 {
            self.cp
        }
    }

    fn contract() -> Contract {
        Contract::new(BundleId(0), NodeId(99), 50.0, 100.0)
    }

    fn histories() -> HistoryArena {
        HistoryArena::with_capacity(None)
    }

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    fn quality() -> EdgeQuality {
        EdgeQuality::new(Weights::balanced())
    }

    #[test]
    fn utility_routing_picks_highest_availability() {
        // No history yet: quality reduces to availability.
        let view = FixtureView::new(1.0, 1.0)
            .with_neighbors(0, &[1, 2, 3])
            .with_availability(0, 1, 0.2)
            .with_availability(0, 2, 0.7)
            .with_availability(0, 3, 0.1);
        let h = histories();
        let c = contract();
        let choice = choose_next_hop_with(
            &mut RouteScratch::new(),
            NodeId(0),
            RoutingStrategy::Utility(UtilityModel::ModelI),
            &c,
            0,
            &h,
            &view,
            &quality(),
            &mut rng(1),
        )
        .unwrap();
        assert_eq!(choice.next, NodeId(2));
        // U = 50 + (0.5*0 + 0.5*0.7)*100 - (1+1) = 50 + 35 - 2 = 83
        assert!((choice.utility - 83.0).abs() < 1e-9);
    }

    #[test]
    fn history_pulls_choice_toward_previously_used_edge() {
        // Availability slightly favours node 2, but node 1 carried the
        // previous connections of this bundle.
        let view = FixtureView::new(1.0, 1.0)
            .with_neighbors(0, &[1, 2])
            .with_availability(0, 1, 0.5)
            .with_availability(0, 2, 0.6);
        let mut h = histories();
        for conn in 0..4 {
            h.record_hop(NodeId(0), BundleId(0), conn, NodeId(9), NodeId(1));
        }
        let c = contract();
        let choice = choose_next_hop_with(
            &mut RouteScratch::new(),
            NodeId(0),
            RoutingStrategy::Utility(UtilityModel::ModelI),
            &c,
            4,
            &h,
            &view,
            &quality(),
            &mut rng(2),
        )
        .unwrap();
        // q(0,1) = 0.5*1.0 + 0.5*0.5 = 0.75 > q(0,2) = 0.5*0 + 0.5*0.6 = 0.3
        assert_eq!(choice.next, NodeId(1));
    }

    #[test]
    fn responder_excluded_from_candidates() {
        let view = FixtureView::new(1.0, 1.0)
            .with_neighbors(0, &[99])
            .with_availability(0, 99, 1.0);
        let h = histories();
        let c = contract();
        let choice = choose_next_hop_with(
            &mut RouteScratch::new(),
            NodeId(0),
            RoutingStrategy::Utility(UtilityModel::ModelI),
            &c,
            0,
            &h,
            &view,
            &quality(),
            &mut rng(3),
        );
        assert!(choice.is_none(), "only candidate was the responder");
    }

    #[test]
    fn no_live_neighbors_returns_none() {
        let view = FixtureView::new(1.0, 1.0).with_neighbors(0, &[]);
        let h = histories();
        let c = contract();
        for strategy in [
            RoutingStrategy::Random,
            RoutingStrategy::Utility(UtilityModel::ModelI),
        ] {
            assert!(choose_next_hop_with(
                &mut RouteScratch::new(),
                NodeId(0),
                strategy,
                &c,
                0,
                &h,
                &view,
                &quality(),
                &mut rng(4),
            )
            .is_none());
        }
    }

    #[test]
    fn negative_utility_declines() {
        // Costs dwarf benefits: the rational node refuses to extend.
        let view = FixtureView::new(500.0, 500.0)
            .with_neighbors(0, &[1])
            .with_availability(0, 1, 1.0);
        let h = histories();
        let c = contract();
        let choice = choose_next_hop_with(
            &mut RouteScratch::new(),
            NodeId(0),
            RoutingStrategy::Utility(UtilityModel::ModelI),
            &c,
            0,
            &h,
            &view,
            &quality(),
            &mut rng(5),
        );
        assert!(choice.is_none());
    }

    #[test]
    fn random_routing_ignores_quality() {
        // Over many draws, random routing must pick the low-availability
        // node about half the time.
        let view = FixtureView::new(1.0, 1.0)
            .with_neighbors(0, &[1, 2])
            .with_availability(0, 1, 0.0)
            .with_availability(0, 2, 1.0);
        let h = histories();
        let c = contract();
        let mut r = rng(6);
        let picks_low = (0..2000)
            .filter(|_| {
                choose_next_hop_with(
                    &mut RouteScratch::new(),
                    NodeId(0),
                    RoutingStrategy::Random,
                    &c,
                    0,
                    &h,
                    &view,
                    &quality(),
                    &mut r,
                )
                .unwrap()
                .next
                    == NodeId(1)
            })
            .count();
        assert!((800..1200).contains(&picks_low), "picks_low={picks_low}");
    }

    #[test]
    fn ties_break_to_higher_quality() {
        // Same utility by construction is impossible with different q here,
        // so engineer equal utilities: q difference compensated by cost
        // difference is not possible with constant cost — instead give two
        // candidates identical availability; the first encountered wins
        // only if quality ties too.
        let view = FixtureView::new(1.0, 1.0)
            .with_neighbors(0, &[1, 2])
            .with_availability(0, 1, 0.4)
            .with_availability(0, 2, 0.4);
        let h = histories();
        let c = contract();
        let choice = choose_next_hop_with(
            &mut RouteScratch::new(),
            NodeId(0),
            RoutingStrategy::Utility(UtilityModel::ModelI),
            &c,
            0,
            &h,
            &view,
            &quality(),
            &mut rng(7),
        )
        .unwrap();
        // Exact tie in both utility and quality: first candidate retained.
        assert_eq!(choice.next, NodeId(1));
    }

    #[test]
    fn model_two_sees_through_a_good_relay() {
        // Topology: 0 -> {1, 2}. The immediate edge to 2 is slightly
        // better (model I picks it), but 2's onward neighborhood is
        // terrible while 1's is excellent — model II must pick 1.
        // q(0,1) = 0.25, continuation 1->3 has q = 0.5:   avg (0.25+0.5+1)/3 ≈ 0.583
        // q(0,2) = 0.30, continuation 2->4 has q = 0.025: avg (0.30+0.025+1)/3 ≈ 0.442
        let view = FixtureView::new(1.0, 1.0)
            .with_neighbors(0, &[1, 2])
            .with_neighbors(1, &[3])
            .with_neighbors(2, &[4])
            .with_availability(0, 1, 0.5)
            .with_availability(0, 2, 0.6)
            .with_availability(1, 3, 1.0)
            .with_availability(2, 4, 0.05);
        let h = histories();
        let c = contract();
        let model2 = choose_next_hop_with(
            &mut RouteScratch::new(),
            NodeId(0),
            RoutingStrategy::Utility(UtilityModel::ModelII { lookahead: 3 }),
            &c,
            0,
            &h,
            &view,
            &quality(),
            &mut rng(8),
        )
        .unwrap();
        let model1 = choose_next_hop_with(
            &mut RouteScratch::new(),
            NodeId(0),
            RoutingStrategy::Utility(UtilityModel::ModelI),
            &c,
            0,
            &h,
            &view,
            &quality(),
            &mut rng(8),
        )
        .unwrap();
        assert_eq!(model1.next, NodeId(2), "model I is myopic");
        assert_eq!(model2.next, NodeId(1), "model II looks ahead");
    }

    #[test]
    fn continuation_quality_in_unit_interval() {
        let view = FixtureView::new(1.0, 1.0)
            .with_neighbors(0, &[1])
            .with_neighbors(1, &[2])
            .with_neighbors(2, &[0])
            .with_availability(0, 1, 0.9)
            .with_availability(1, 2, 0.8)
            .with_availability(2, 0, 0.7);
        let h = histories();
        let c = contract();
        for lookahead in 1..=5 {
            let q = continuation_quality_with(
                &mut RouteScratch::new(),
                NodeId(0),
                NodeId(1),
                0.5,
                lookahead,
                &c,
                0,
                &h,
                &view,
                &quality(),
            );
            assert!((0.0..=1.0).contains(&q), "lookahead {lookahead}: q={q}");
        }
    }

    #[test]
    fn lookahead_one_degenerates_to_model_one_choice() {
        let view = FixtureView::new(1.0, 1.0)
            .with_neighbors(0, &[1, 2])
            .with_availability(0, 1, 0.3)
            .with_availability(0, 2, 0.8);
        let h = histories();
        let c = contract();
        let m1 = choose_next_hop_with(
            &mut RouteScratch::new(),
            NodeId(0),
            RoutingStrategy::Utility(UtilityModel::ModelI),
            &c,
            0,
            &h,
            &view,
            &quality(),
            &mut rng(9),
        )
        .unwrap();
        let m2 = choose_next_hop_with(
            &mut RouteScratch::new(),
            NodeId(0),
            RoutingStrategy::Utility(UtilityModel::ModelII { lookahead: 1 }),
            &c,
            0,
            &h,
            &view,
            &quality(),
            &mut rng(9),
        )
        .unwrap();
        assert_eq!(m1.next, m2.next);
    }

    #[test]
    fn path_policy_expected_hops() {
        let p = PathPolicy::new(0.75, 8);
        assert!((p.expected_hops() - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "p_forward must be in")]
    fn policy_rejects_certain_forwarding() {
        let _ = PathPolicy::new(1.0, 8);
    }
}
