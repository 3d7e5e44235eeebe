//! Seed-derived deterministic adversary strategies.
//!
//! The paper evaluates a single adversary class — a random-routing
//! fraction `f` of malicious nodes — but the incentive mechanism's real
//! stress test is the strategy classes the related work catalogues:
//!
//! * **free riders** (Buragohain et al.): nodes that initiate connections
//!   and collect routing benefit but refuse forwarding duty, probing the
//!   participation incentive of Prop. 2;
//! * **whitewashers** (the free-riding survey): nodes that accumulate
//!   faults until their reputation suppresses them, then rejoin under a
//!   fresh identity on a seeded schedule, shedding every edge-reputation
//!   ledger that learned to avoid them;
//! * **colluding cliques**: seeded k-cliques whose members vouch for each
//!   other's *phantom* forwarding — a clique responder extends the §5 path
//!   manifest with clique mates that never forwarded anything and issues
//!   them valid receipts, attacking `PathValidator` reconstruction.
//!
//! Like [`crate::fault::FaultPlan`], every decision is drawn from a
//! position-keyed stream of the master seed
//! ([`crate::rng::StreamFactory`]), so adversarial runs replicate
//! bit-identically across thread counts and idle-eviction windows.
//! The layer is strictly additive: with every rate at zero
//! ([`AdversaryConfig::is_active`] false) no adversary stream is ever
//! touched and simulations are bit-identical to a build without this
//! module.

use crate::rng::{StreamFactory, Xoshiro256StarStar};
use rand::RngExt;

/// Adversary strategy rates and the defense toggles.
///
/// All-zero rates (the default) disable the subsystem entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversaryConfig {
    /// Fraction of nodes that free-ride: they initiate connections but
    /// ghost every forwarding duty, so any path routed through them fails.
    pub free_rider_fraction: f64,
    /// Fraction of nodes that whitewash: on a seeded renewal schedule they
    /// rejoin as a fresh identity, clearing every reputation ledger's
    /// active entry for them (the evicted identity's evidence is archived,
    /// not destroyed).
    pub whitewash_fraction: f64,
    /// Mean minutes between one whitewasher's identity rejoins.
    pub whitewash_interval: f64,
    /// Number of seeded colluding cliques (0 = no cliques).
    pub clique_count: usize,
    /// Members per clique (≥ 2 when cliques are enabled).
    pub clique_size: usize,
    /// Probability that a clique responder forges phantom-forwarding
    /// evidence for its mates on a completed connection.
    pub clique_forge_rate: f64,
    /// Defense: discount a node's reputation score by its identity age,
    /// so freshly whitewashed identities do not instantly regain full
    /// trust (`min(1, age / reputation_maturity)` scaling).
    pub whitewash_age_discount: bool,
    /// Minutes a fresh identity needs to reach full reputation weight
    /// under the age-discount defense.
    pub reputation_maturity: f64,
    /// Defense: cross-check the manifest's hop list against the hops the
    /// initiator actually observed forwarding, so phantom clique entries
    /// are flagged instead of paid.
    pub clique_cross_check: bool,
}

impl Default for AdversaryConfig {
    fn default() -> Self {
        AdversaryConfig {
            free_rider_fraction: 0.0,
            whitewash_fraction: 0.0,
            whitewash_interval: 240.0,
            clique_count: 0,
            clique_size: 3,
            clique_forge_rate: 0.0,
            whitewash_age_discount: false,
            reputation_maturity: 120.0,
            clique_cross_check: false,
        }
    }
}

impl AdversaryConfig {
    /// Whether any strategy class is enabled. When false, an
    /// [`AdversaryPlan`] is never built and no adversary stream is
    /// consumed.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.free_rider_fraction > 0.0 || self.whitewash_fraction > 0.0 || self.cliques_active()
    }

    /// Whether the colluding-clique class is enabled.
    #[must_use]
    pub fn cliques_active(&self) -> bool {
        self.clique_count > 0 && self.clique_forge_rate > 0.0
    }

    /// Checks field ranges; returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("free_rider_fraction", self.free_rider_fraction),
            ("whitewash_fraction", self.whitewash_fraction),
            ("clique_forge_rate", self.clique_forge_rate),
        ];
        for (name, v) in probs {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be a probability in [0, 1], got {v}"));
            }
        }
        if self.whitewash_fraction > 0.0 && self.whitewash_interval <= 0.0 {
            return Err(format!(
                "whitewash_interval must be positive when whitewashing is enabled, got {}",
                self.whitewash_interval
            ));
        }
        if self.clique_count > 0 && self.clique_size < 2 {
            return Err(format!(
                "clique_size must be >= 2 when cliques are enabled, got {}",
                self.clique_size
            ));
        }
        if self.whitewash_age_discount && self.reputation_maturity <= 0.0 {
            return Err(format!(
                "reputation_maturity must be positive under the age-discount defense, got {}",
                self.reputation_maturity
            ));
        }
        Ok(())
    }
}

/// A fully deterministic adversary schedule derived from the master seed.
///
/// Static per-node class membership (free riders, whitewashers, clique
/// assignments) and each whitewasher's rejoin times are sampled up front;
/// the per-connection forge decision is a pure function of
/// `(pair, connection)`, materialized on demand.
#[derive(Debug, Clone)]
pub struct AdversaryPlan {
    cfg: AdversaryConfig,
    streams: StreamFactory,
    free_riders: Vec<bool>,
    /// Per node: ascending rejoin times within the horizon (empty for
    /// non-whitewashers).
    whitewash_times: Vec<Vec<f64>>,
    /// Per node: clique index, or `u32::MAX` when not in a clique.
    clique_of: Vec<u32>,
    /// Members per clique, each sorted ascending.
    cliques: Vec<Vec<usize>>,
}

impl AdversaryPlan {
    /// Builds the plan for `n_nodes` peers over `horizon` minutes.
    #[must_use]
    pub fn new(cfg: AdversaryConfig, streams: StreamFactory, n_nodes: usize, horizon: f64) -> Self {
        let free_riders = (0..n_nodes)
            .map(|i| {
                cfg.free_rider_fraction > 0.0 && {
                    let mut rng = streams.stream_indexed2("adversary/free-rider", i as u64, 0);
                    rng.random_range(0.0..1.0) < cfg.free_rider_fraction
                }
            })
            .collect();
        let whitewash_times = (0..n_nodes)
            .map(|i| Self::sample_whitewash(&cfg, &streams, i as u64, horizon))
            .collect();
        let (clique_of, cliques) = Self::sample_cliques(&cfg, &streams, n_nodes);
        AdversaryPlan {
            cfg,
            streams,
            free_riders,
            whitewash_times,
            clique_of,
            cliques,
        }
    }

    /// One whitewasher's rejoin schedule: a renewal process of
    /// Exp-distributed gaps (mean `whitewash_interval`) starting from 0,
    /// truncated to the horizon. Non-whitewashers get no schedule and
    /// consume no stream.
    fn sample_whitewash(
        cfg: &AdversaryConfig,
        streams: &StreamFactory,
        node: u64,
        horizon: f64,
    ) -> Vec<f64> {
        if cfg.whitewash_fraction <= 0.0 {
            return Vec::new();
        }
        let mut rng = streams.stream_indexed2("adversary/whitewash", node, 0);
        if rng.random_range(0.0..1.0) >= cfg.whitewash_fraction {
            return Vec::new();
        }
        let mut sched = streams.stream_indexed2("adversary/whitewash-sched", node, 0);
        let mut out = Vec::new();
        let mut t = 0.0f64;
        loop {
            t += exp_sample(&mut sched, cfg.whitewash_interval);
            if t >= horizon {
                break;
            }
            out.push(t);
        }
        out
    }

    /// Seeded clique membership: `clique_count * clique_size` distinct
    /// nodes drawn by partial Fisher–Yates from one stream, then chunked
    /// into cliques. Requesting more members than nodes exist caps the
    /// clique set at `n_nodes / clique_size` full cliques.
    fn sample_cliques(
        cfg: &AdversaryConfig,
        streams: &StreamFactory,
        n_nodes: usize,
    ) -> (Vec<u32>, Vec<Vec<usize>>) {
        let mut clique_of = vec![u32::MAX; n_nodes];
        if !cfg.cliques_active() {
            return (clique_of, Vec::new());
        }
        let count = cfg.clique_count.min(n_nodes / cfg.clique_size.max(1));
        let wanted = count * cfg.clique_size;
        let mut pool: Vec<usize> = (0..n_nodes).collect();
        let mut rng = streams.stream("adversary/clique");
        for i in 0..wanted {
            let j = i + (rng.random_range(0.0..1.0) * (n_nodes - i) as f64) as usize;
            pool.swap(i, j.min(n_nodes - 1));
        }
        let mut cliques = Vec::with_capacity(count);
        for c in 0..count {
            let mut members: Vec<usize> =
                pool[c * cfg.clique_size..(c + 1) * cfg.clique_size].to_vec();
            members.sort_unstable();
            for &m in &members {
                clique_of[m] = c as u32;
            }
            cliques.push(members);
        }
        (clique_of, cliques)
    }

    /// The configuration this plan was built from.
    #[must_use]
    pub fn config(&self) -> &AdversaryConfig {
        &self.cfg
    }

    /// Whether `node` free-rides (refuses all forwarding duty).
    #[must_use]
    pub fn is_free_rider(&self, node: usize) -> bool {
        self.free_riders.get(node).copied().unwrap_or(false)
    }

    /// The sorted indices of all free riders.
    #[must_use]
    pub fn free_riders(&self) -> Vec<usize> {
        self.free_riders
            .iter()
            .enumerate()
            .filter(|(_, &c)| c)
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether `node` whitewashes at least once within the horizon.
    #[must_use]
    pub fn is_whitewasher(&self, node: usize) -> bool {
        self.whitewash_times
            .get(node)
            .is_some_and(|t| !t.is_empty())
    }

    /// `node`'s ascending rejoin times (empty for non-whitewashers).
    #[must_use]
    pub fn whitewash_times(&self, node: usize) -> &[f64] {
        self.whitewash_times
            .get(node)
            .map_or(&[], std::vec::Vec::as_slice)
    }

    /// Every `(node, rejoin time)` event within the horizon, in node order.
    #[must_use]
    pub fn whitewash_events(&self) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        for (node, times) in self.whitewash_times.iter().enumerate() {
            for &t in times {
                out.push((node, t));
            }
        }
        out
    }

    /// The birth time of `node`'s identity live at time `t`: its latest
    /// rejoin at or before `t`, or 0 for the original identity. A pure
    /// function of the precomputed schedule, so it needs no snapshotting.
    #[must_use]
    pub fn identity_birth(&self, node: usize, t: f64) -> f64 {
        match self.whitewash_times.get(node) {
            Some(times) => match times.partition_point(|&w| w <= t) {
                0 => 0.0,
                k => times[k - 1],
            },
            None => 0.0,
        }
    }

    /// Age of `node`'s current identity at time `t`, in minutes.
    #[must_use]
    pub fn identity_age(&self, node: usize, t: f64) -> f64 {
        (t - self.identity_birth(node, t)).max(0.0)
    }

    /// The clique `node` belongs to, if any.
    #[must_use]
    pub fn clique_of(&self, node: usize) -> Option<usize> {
        match self.clique_of.get(node) {
            Some(&c) if c != u32::MAX => Some(c as usize),
            _ => None,
        }
    }

    /// Members of clique `c`, sorted ascending.
    #[must_use]
    pub fn clique_members(&self, c: usize) -> &[usize] {
        self.cliques.get(c).map_or(&[], std::vec::Vec::as_slice)
    }

    /// All cliques, each a sorted member list.
    #[must_use]
    pub fn cliques(&self) -> &[Vec<usize>] {
        &self.cliques
    }

    /// Whether a clique responder forges phantom-forwarding evidence on
    /// this connection. A pure function of `(pair, connection)` so the
    /// decision is independent of retry count and event interleaving.
    #[must_use]
    pub fn forges_confirmation(&self, pair: u64, connection: u64) -> bool {
        self.cfg.cliques_active() && {
            let mut rng = self
                .streams
                .stream_indexed2("adversary/forge", pair, connection);
            rng.random_range(0.0..1.0) < self.cfg.clique_forge_rate
        }
    }
}

/// Inverse-CDF exponential sample with the given mean (`u` uniform in
/// `[0, 1)` makes `1 - u` strictly positive, so the log is finite).
fn exp_sample(rng: &mut Xoshiro256StarStar, mean: f64) -> f64 {
    let u: f64 = rng.random_range(0.0..1.0);
    -mean * (1.0 - u).ln()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;

    fn active_cfg() -> AdversaryConfig {
        AdversaryConfig {
            free_rider_fraction: 0.2,
            whitewash_fraction: 0.15,
            whitewash_interval: 120.0,
            clique_count: 3,
            clique_size: 4,
            clique_forge_rate: 0.5,
            ..AdversaryConfig::default()
        }
    }

    fn plan(seed: u64) -> AdversaryPlan {
        AdversaryPlan::new(active_cfg(), StreamFactory::new(seed), 100, 1440.0)
    }

    #[test]
    fn default_config_is_inactive_and_valid() {
        let cfg = AdversaryConfig::default();
        assert!(!cfg.is_active());
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn each_strategy_class_activates() {
        for cfg in [
            AdversaryConfig {
                free_rider_fraction: 0.1,
                ..AdversaryConfig::default()
            },
            AdversaryConfig {
                whitewash_fraction: 0.1,
                ..AdversaryConfig::default()
            },
            AdversaryConfig {
                clique_count: 2,
                clique_forge_rate: 0.5,
                ..AdversaryConfig::default()
            },
        ] {
            assert!(cfg.is_active());
            assert_eq!(cfg.validate(), Ok(()));
        }
        // A clique count without a forge rate does nothing.
        assert!(!AdversaryConfig {
            clique_count: 2,
            ..AdversaryConfig::default()
        }
        .is_active());
    }

    #[test]
    fn invalid_configs_rejected_with_field_name() {
        let bad = AdversaryConfig {
            free_rider_fraction: 1.5,
            ..AdversaryConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("free_rider_fraction"));
        let bad = AdversaryConfig {
            whitewash_fraction: 0.1,
            whitewash_interval: 0.0,
            ..AdversaryConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("whitewash_interval"));
        let bad = AdversaryConfig {
            clique_count: 1,
            clique_size: 1,
            ..AdversaryConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("clique_size"));
        let bad = AdversaryConfig {
            whitewash_age_discount: true,
            reputation_maturity: 0.0,
            ..AdversaryConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("reputation_maturity"));
    }

    #[test]
    fn zero_rates_derive_nothing() {
        let p = AdversaryPlan::new(
            AdversaryConfig::default(),
            StreamFactory::new(1),
            50,
            1000.0,
        );
        assert!(p.free_riders().is_empty());
        assert!(p.whitewash_events().is_empty());
        assert!(p.cliques().is_empty());
        assert!(!p.forges_confirmation(0, 0));
        assert_eq!(p.identity_age(3, 500.0), 500.0);
    }

    #[test]
    fn class_membership_is_seed_stable_and_matches_fractions() {
        let a = plan(9);
        let b = plan(9);
        assert_eq!(a.free_riders(), b.free_riders());
        assert_eq!(a.whitewash_events(), b.whitewash_events());
        assert_eq!(a.cliques(), b.cliques());
        let fr = a.free_riders().len();
        assert!((5..40).contains(&fr), "free riders: {fr}/100");
        let ww = (0..100).filter(|&i| a.is_whitewasher(i)).count();
        assert!((3..35).contains(&ww), "whitewashers: {ww}/100");
    }

    #[test]
    fn cliques_are_disjoint_and_sized() {
        let p = plan(11);
        assert_eq!(p.cliques().len(), 3);
        let mut seen = std::collections::HashSet::new();
        for (c, members) in p.cliques().iter().enumerate() {
            assert_eq!(members.len(), 4);
            for &m in members {
                assert!(seen.insert(m), "node {m} in two cliques");
                assert_eq!(p.clique_of(m), Some(c));
            }
            assert!(members.windows(2).all(|w| w[0] < w[1]), "members sorted");
        }
        assert_eq!(p.clique_of(1000), None);
    }

    #[test]
    fn clique_request_larger_than_world_is_capped() {
        let p = AdversaryPlan::new(
            AdversaryConfig {
                clique_count: 10,
                clique_size: 4,
                clique_forge_rate: 1.0,
                ..AdversaryConfig::default()
            },
            StreamFactory::new(3),
            10,
            100.0,
        );
        assert_eq!(p.cliques().len(), 2, "10 nodes hold two 4-cliques");
    }

    #[test]
    fn whitewash_schedule_is_ascending_and_renewal_paced() {
        let p = AdversaryPlan::new(
            AdversaryConfig {
                whitewash_fraction: 1.0,
                whitewash_interval: 100.0,
                ..AdversaryConfig::default()
            },
            StreamFactory::new(21),
            40,
            100_000.0,
        );
        let mut total = 0usize;
        for node in 0..40 {
            let times = p.whitewash_times(node);
            assert!(!times.is_empty());
            assert!(times.windows(2).all(|w| w[0] < w[1]), "ascending");
            assert!(times.iter().all(|&t| t > 0.0 && t < 100_000.0));
            total += times.len();
        }
        // 40 nodes x ~1000 rejoins at mean gap 100 over 100k minutes.
        let mean = total as f64 / 40.0;
        assert!((800.0..1200.0).contains(&mean), "mean rejoins {mean}");
    }

    #[test]
    fn identity_age_resets_at_each_rejoin() {
        let p = plan(5);
        let node = (0..100).find(|&i| p.is_whitewasher(i)).unwrap();
        let t0 = p.whitewash_times(node)[0];
        assert_eq!(p.identity_birth(node, t0 - 0.01), 0.0);
        assert_eq!(p.identity_birth(node, t0), t0);
        assert!(p.identity_age(node, t0 + 5.0) <= 5.0 + 1e-9);
        // Non-whitewashers age from the origin.
        let plain = (0..100).find(|&i| !p.is_whitewasher(i)).unwrap();
        assert_eq!(p.identity_age(plain, 777.0), 777.0);
    }

    #[test]
    fn forge_decisions_are_position_stable_and_mixed() {
        let p = plan(13);
        let mut yes = 0;
        for conn in 0..200u64 {
            if p.forges_confirmation(3, conn) {
                yes += 1;
            }
        }
        assert!((60..140).contains(&yes), "forge rate off: {yes}/200");
        assert_eq!(p.forges_confirmation(1, 2), p.forges_confirmation(1, 2));
    }
}
