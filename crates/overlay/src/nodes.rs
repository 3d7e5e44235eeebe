//! Per-node world data — churn schedules and initial neighbor sets —
//! derived on demand.
//!
//! §3's world is Poisson joins, Pareto sessions and `d` random neighbors
//! per node. Only the joins are sequential, so [`NodeSource`] keeps one
//! join time per node and derives everything else for a node when it is
//! first asked: the node's sessions from its position-keyed churn stream
//! ([`ChurnModel::node_schedule`]) and its neighbor set from its
//! position-keyed topology stream ([`Topology::sample_neighbors`]). A
//! derivation is a pure function of the master seed and the node's
//! position, so it gives the same bits in any order, on any thread, and
//! again after the result was dropped.
//!
//! [`NodeCache`] memoizes derived schedules for one reader — the run's
//! probe store — behind an O(1) per-node slot index, and can evict idle
//! entries again: which nodes are cached never changes a value read
//! through it. Neighbor sets are not cached: the probe store derives one
//! only when it first builds that node's probe cell, which keeps it.

use std::sync::Arc;

use idpa_desim::rng::StreamFactory;
use idpa_desim::SimTime;
use idpa_netmodel::{ChurnModel, NodeSchedule};

use crate::node::NodeId;
use crate::topology::Topology;

/// Where a world's churn schedules come from.
#[derive(Debug, Clone)]
enum Schedules {
    /// Derived per node from the join times and the node's churn stream;
    /// `pinned_up[v]` (when present) replaces node `v`'s schedule with one
    /// session spanning the whole horizon.
    Derived {
        model: ChurnModel,
        streams: StreamFactory,
        joins: Arc<[f64]>,
        pinned_up: Option<Arc<[bool]>>,
    },
    /// An explicit table, one schedule per node: a hand-built world.
    Table(Arc<[NodeSchedule]>),
}

/// Where a world's initial neighbor sets come from.
#[derive(Debug, Clone)]
enum Neighbors {
    /// Derived per node from the node's topology stream.
    Derived {
        degree: usize,
        streams: StreamFactory,
    },
    /// Explicit adjacency lists.
    Table(Arc<Topology>),
}

/// The recipe for every node's churn schedule and initial neighbor set:
/// immutable, `Sync` and cheap to clone (the tables are shared).
#[derive(Debug, Clone)]
pub struct NodeSource {
    n: usize,
    schedules: Schedules,
    neighbors: Neighbors,
}

impl NodeSource {
    /// A world of `model.config().n_nodes` nodes at out-degree `degree`:
    /// draws the join times (the one sequential pass) and nothing else.
    #[must_use]
    pub fn derived(model: ChurnModel, degree: usize, streams: StreamFactory) -> Self {
        let n = model.config().n_nodes;
        assert!(
            degree < n,
            "degree {degree} impossible with {n} nodes (needs degree < n)"
        );
        NodeSource {
            n,
            schedules: Schedules::Derived {
                model,
                joins: model.join_times(&streams),
                streams: streams.clone(),
                pinned_up: None,
            },
            neighbors: Neighbors::Derived { degree, streams },
        }
    }

    /// A world given by explicit tables, one schedule and one neighbor
    /// list per node.
    #[must_use]
    pub fn from_tables(schedules: Vec<NodeSchedule>, topology: Topology) -> Self {
        assert_eq!(schedules.len(), topology.len(), "one neighbor set per node");
        NodeSource {
            n: schedules.len(),
            schedules: Schedules::Table(schedules.into()),
            neighbors: Neighbors::Table(Arc::new(topology)),
        }
    }

    /// The §5 availability attack as a per-node rule: every node `v` with
    /// `pinned[v]` is up for one session spanning `[0, horizon)` instead
    /// of its derived schedule. Applies to derived schedules only.
    #[must_use]
    pub fn with_pinned_up(mut self, pinned: Vec<bool>) -> Self {
        assert_eq!(pinned.len(), self.n, "one flag per node");
        if let Schedules::Derived { pinned_up, .. } = &mut self.schedules {
            *pinned_up = Some(pinned.into());
        }
        self
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the world has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Node `v`'s churn schedule, derived (or copied from the table) now:
    /// [`NodeSource::schedule_with`] over a fresh buffer.
    #[must_use]
    pub fn schedule(&self, v: NodeId) -> NodeSchedule {
        self.schedule_with(v, &mut Vec::new())
    }

    /// Node `v`'s churn schedule, derived (or copied from the table) now,
    /// in one exact-size allocation; a derivation draws the sessions into
    /// `buf`, which a caller deriving many nodes reuses. Every schedule
    /// read comes through here.
    #[must_use]
    pub fn schedule_with(&self, v: NodeId, buf: &mut Vec<(f64, f64)>) -> NodeSchedule {
        match &self.schedules {
            Schedules::Table(t) => t[v.index()].clone(),
            Schedules::Derived {
                model,
                streams,
                joins,
                pinned_up,
            } => {
                if pinned_up.as_ref().is_some_and(|p| p[v.index()]) {
                    NodeSchedule::from_sessions(vec![(0.0, model.config().horizon)])
                } else {
                    model.node_schedule(streams, v.index(), joins[v.index()], buf)
                }
            }
        }
    }

    /// Node `v`'s initial neighbor set `D(v)`, derived (or copied from the
    /// table) now.
    #[must_use]
    pub fn neighbors(&self, v: NodeId) -> Vec<NodeId> {
        match &self.neighbors {
            Neighbors::Derived { degree, streams } => {
                Topology::sample_neighbors(self.n, *degree, streams, v)
            }
            Neighbors::Table(t) => t.neighbors(v).to_vec(),
        }
    }

    /// Every node's schedule, derived one at a time and not kept: a
    /// whole-world scan whose memory does not grow with `N`.
    pub fn iter_schedules(&self) -> impl Iterator<Item = NodeSchedule> + '_ {
        let mut buf = Vec::new();
        (0..self.n).map(move |v| self.schedule_with(NodeId(v), &mut buf))
    }

    /// The whole churn trace, one schedule per node.
    #[must_use]
    pub fn schedules(&self) -> Vec<NodeSchedule> {
        self.iter_schedules().collect()
    }

    /// The whole initial neighbor relation.
    #[must_use]
    pub fn topology(&self) -> Topology {
        match &self.neighbors {
            Neighbors::Derived { degree, streams } => Topology::random(self.n, *degree, streams),
            Neighbors::Table(t) => Topology::clone(t),
        }
    }
}

/// One memoized node.
#[derive(Debug, Clone)]
struct CachedNode {
    node: NodeId,
    schedule: NodeSchedule,
    /// The eviction clock: the latest tick the node was read at.
    last_touch: u64,
}

/// Slot-index sentinel: the node is not cached.
const NO_SLOT: u32 = u32::MAX;

/// A memo of derived nodes over a [`NodeSource`]: a node is derived on its
/// first read and kept until [`NodeCache::evict_idle`] drops it. Lookup is
/// one load from a per-node slot index (4 bytes a node); entries live in a
/// slab whose freed places are reused, so its size follows the number of
/// nodes resident at once.
#[derive(Debug, Clone)]
pub struct NodeCache {
    source: NodeSource,
    slot: Vec<u32>,
    entries: Vec<CachedNode>,
    free: Vec<u32>,
    /// Scratch for [`NodeSource::schedule_with`].
    scratch: Vec<(f64, f64)>,
}

impl NodeCache {
    /// An empty cache over `source`.
    #[must_use]
    pub fn new(source: NodeSource) -> Self {
        let n = source.len();
        assert!(n < NO_SLOT as usize, "node count exceeds the slot index");
        NodeCache {
            slot: vec![NO_SLOT; n],
            source,
            entries: Vec::new(),
            free: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The recipe the cache derives from.
    #[must_use]
    pub fn source(&self) -> &NodeSource {
        &self.source
    }

    /// Node `v`'s schedule, derived if it is not cached, with the node
    /// stamped as read at `tick`. Afterwards [`NodeCache::schedule`]
    /// answers for `v` until the next eviction.
    #[inline]
    pub fn touch(&mut self, v: NodeId, tick: u64) -> &NodeSchedule {
        let s = match self.slot[v.index()] {
            NO_SLOT => self.derive(v, tick),
            s => {
                let e = &mut self.entries[s as usize];
                e.last_touch = e.last_touch.max(tick);
                s
            }
        };
        &self.entries[s as usize].schedule
    }

    /// Derives node `v` into a free place of the slab; returns the place.
    fn derive(&mut self, v: NodeId, tick: u64) -> u32 {
        let entry = CachedNode {
            node: v,
            schedule: self.source.schedule_with(v, &mut self.scratch),
            last_touch: tick,
        };
        let s = match self.free.pop() {
            Some(s) => {
                self.entries[s as usize] = entry;
                s
            }
            None => {
                self.entries.push(entry);
                (self.entries.len() - 1) as u32
            }
        };
        self.slot[v.index()] = s;
        s
    }

    /// The cached schedule of a touched node. Panics if `v` is not cached.
    #[inline]
    #[must_use]
    pub fn schedule(&self, v: NodeId) -> &NodeSchedule {
        let s = self.slot[v.index()];
        debug_assert!(s != NO_SLOT, "node {v} read before it was touched");
        // An uncached node's sentinel slot is out of the slab's bounds.
        &self.entries[s as usize].schedule
    }

    /// Whether `v` is up at `t`, read from the cache when `v` is resident
    /// and derived without caching otherwise — for whole-world scans, which
    /// must not fill the cache with every node.
    #[inline]
    #[must_use]
    pub fn is_up_uncached(&mut self, v: NodeId, t: SimTime) -> bool {
        match self.slot[v.index()] {
            NO_SLOT => self.source.schedule_with(v, &mut self.scratch).is_up(t),
            s => self.entries[s as usize].schedule.is_up(t),
        }
    }

    /// Drops every entry last read before `cutoff`. Returns how many.
    pub fn evict_idle(&mut self, cutoff: u64) -> usize {
        let mut evicted = 0;
        for (s, e) in self.entries.iter_mut().enumerate() {
            let i = e.node.index();
            if self.slot[i] == s as u32 && e.last_touch < cutoff {
                self.slot[i] = NO_SLOT;
                // Release the payload now; the husk waits for reuse.
                e.schedule = NodeSchedule::default();
                self.free.push(s as u32);
                evicted += 1;
            }
        }
        evicted
    }

    /// Number of nodes cached right now.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.entries.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idpa_netmodel::ChurnConfig;

    fn source(n: usize, seed: u64) -> NodeSource {
        let model = ChurnModel::new(ChurnConfig {
            n_nodes: n,
            ..ChurnConfig::default()
        });
        NodeSource::derived(model, 5, StreamFactory::new(seed))
    }

    #[test]
    fn derived_nodes_equal_the_whole_world_helpers() {
        let src = source(60, 3);
        let model = ChurnModel::new(ChurnConfig {
            n_nodes: 60,
            ..ChurnConfig::default()
        });
        let f = StreamFactory::new(3);
        let schedules = model.generate(&f);
        let topology = Topology::random(60, 5, &f);
        // Node by node, in reverse: no derivation depends on another.
        for v in (0..60).rev().map(NodeId) {
            assert_eq!(src.schedule(v), schedules[v.index()], "node {v}");
            assert_eq!(src.neighbors(v), topology.neighbors(v), "node {v}");
        }
        assert_eq!(src.schedules(), schedules);
    }

    #[test]
    fn cache_answers_equal_the_source_through_eviction_and_reuse() {
        let src = source(40, 5);
        let mut cache = NodeCache::new(src.clone());
        for (tick, v) in [(1u64, 7usize), (1, 3), (2, 7), (5, 11), (9, 3)] {
            let _ = cache.touch(NodeId(v), tick);
        }
        assert_eq!(cache.resident(), 3);
        // 7 was last read at tick 2 and 11 at 5: both idle before 6.
        assert_eq!(cache.evict_idle(6), 2);
        assert_eq!(cache.resident(), 1);
        let t = SimTime::new(100.0);
        assert_eq!(
            cache.is_up_uncached(NodeId(7), t),
            src.schedule(NodeId(7)).is_up(t)
        );
        // Re-touching reuses the freed places and re-derives the same bits.
        for v in [11usize, 7, 20] {
            let _ = cache.touch(NodeId(v), 10);
        }
        assert_eq!(cache.resident(), 4);
        assert_eq!(cache.entries.len(), 4, "freed places are reused");
        for v in [3usize, 7, 11, 20] {
            assert_eq!(cache.schedule(NodeId(v)), &src.schedule(NodeId(v)));
        }
    }

    #[test]
    fn pinned_nodes_are_up_for_the_whole_horizon() {
        let mut pinned = vec![false; 20];
        pinned[4] = true;
        let src = source(20, 1).with_pinned_up(pinned);
        let horizon = ChurnConfig::default().horizon;
        assert_eq!(src.schedule(NodeId(4)).sessions(), &[(0.0, horizon)]);
        assert!(src.schedule(NodeId(4)).is_up(SimTime::new(0.0)));
        assert_eq!(src.schedule(NodeId(5)), source(20, 1).schedule(NodeId(5)));
    }
}
