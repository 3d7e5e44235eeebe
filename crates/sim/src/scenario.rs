//! Scenario configuration (§3 of the paper).
//!
//! Defaults reproduce the paper's stated setup: "a small network size of
//! N = 40", "each node randomly selects d nodes as its neighbors (d = 5)",
//! "100 (I, R) pairs and a total of 2000 message transmissions, for an
//! average of 20 communication rounds for a single (I, R) pair", `P_f`
//! uniform in `[50, 100]`, `τ ∈ {0.5, 1, 2, 4}`, `w_s = w_a = 0.5`,
//! Pareto session times with a 60-minute median, Poisson joins, and a
//! fraction `f` of adversaries that route randomly.

use idpa_core::routing::{AdversaryStrategy, PathPolicy, RoutingStrategy};
use idpa_core::utility::UtilityModel;
use idpa_desim::{AdversaryConfig, FaultConfig};
use idpa_netmodel::{ChurnConfig, CostConfig};

use crate::error::SimError;

/// How the symmetric bandwidth matrix backing the cost model is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostStorage {
    /// The full O(N²) upper-triangular matrix, drawn from the sequential
    /// `"bandwidth"` stream — the historical layout every existing
    /// scenario pins. The default.
    Dense,
    /// No matrix: each edge's bandwidth is re-derived on demand from a
    /// position-keyed stream. O(1) memory — required for million-node
    /// worlds — but the sampled values differ from `Dense` (a different,
    /// equally i.i.d. draw per edge), so this is a scenario-level choice,
    /// not a transparent execution mode.
    Sparse,
}

/// How connection requests arrive over the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadMode {
    /// The historical closed workload: `total_transmissions` send times are
    /// drawn up front, uniformly in `[warmup, horizon)`, and scheduled as a
    /// fixed batch. The default — byte-identical to builds without the
    /// workload layer.
    Closed,
    /// Open workload: each (I, R) pair generates connection requests as an
    /// independent Poisson process of rate
    /// [`ScenarioConfig::open_arrival_rate`] per minute, starting at
    /// `warmup` and capped at `max_connections` requests per pair. Arrival
    /// gaps come from position-keyed streams, so the process is
    /// deterministic under the master seed and survives snapshot/resume.
    Open,
}

/// When payment evidence is settled against the bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SettlementMode {
    /// Settle every bundle individually after the horizon — one signature
    /// verification per receipt, one ledger transfer per payout. The
    /// historical behaviour and the default (byte-identical to builds
    /// without the epoch layer).
    PerBundle,
    /// Epoch-batched settlement: a settlement event fires every
    /// [`ScenarioConfig::epoch_length`] minutes, validates the evidence
    /// window accrued since the previous boundary, nets all payouts into
    /// one balance delta per account and submits the window's deposits in
    /// batched (individually verified) bank calls. Economic outcomes
    /// (payoffs, shortfall, flags, audit
    /// discrepancies) are identical to `PerBundle`; only the bank-facing
    /// operation counts and the settlement-delay model change — a bank
    /// outage delays an epoch boundary instead of a bundle.
    Epoch,
}

/// Whether the settlement-side bank ledger is durable
/// (`--bank-durability`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BankDurability {
    /// No write-ahead log: the historical in-memory ledger. The default,
    /// byte-identical to builds without the durability layer — and the
    /// mode every fingerprint pin replays.
    #[default]
    Off,
    /// Write-ahead logging: every settlement-side ledger mutation appends
    /// a checksummed record before applying (group-committed at epoch
    /// boundaries under epoch settlement), a warm replica follows the log
    /// stream, and seeded bank crashes (`--fault-bank-crash`) trigger
    /// deterministic recovery + failover. Requires the fault/evidence
    /// layer to be active (settlement is what gets logged).
    Wal,
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Number of peers `N`.
    pub n_nodes: usize,
    /// Neighbor-set size `d`.
    pub degree: usize,
    /// Number of (I, R) pairs.
    pub n_pairs: usize,
    /// Total message transmissions across all pairs.
    pub total_transmissions: usize,
    /// Cap on connections per pair (`max-connections` in §3).
    pub max_connections: u32,
    /// `P_f` is drawn uniformly from this range per pair.
    pub pf_range: (f64, f64),
    /// `τ = P_r / P_f`.
    pub tau: f64,
    /// `(w_s, w_a)` edge-quality weights.
    pub weights: (f64, f64),
    /// `w_r`, the weight of the per-initiator reputation term in the
    /// adaptive quality model `q = w_s·σ + w_a·α + w_r·ρ`. The default `0`
    /// reproduces the paper's two-term model bit-for-bit; when positive,
    /// `w_s + w_a + w_r` must sum to 1.
    pub reputation_weight: f64,
    /// Fraction `f` of malicious nodes.
    pub adversary_fraction: f64,
    /// Routing strategy of good nodes (the Figs. 5–7 axis).
    pub good_strategy: RoutingStrategy,
    /// Routing strategy of malicious nodes (§2.4 base model: random).
    pub adversary_strategy: AdversaryStrategy,
    /// Path termination policy.
    pub policy: PathPolicy,
    /// Churn model parameters.
    pub churn: ChurnConfig,
    /// Cost model parameters.
    pub cost: CostConfig,
    /// Active-probing period `T` (minutes).
    pub probe_period: f64,
    /// Transmissions are scheduled uniformly in `[warmup, horizon]`.
    pub warmup: f64,
    /// Master seed; every stochastic component derives its stream from it.
    pub seed: u64,
    /// §5 availability attack: adversaries force permanent uptime.
    pub availability_attack: bool,
    /// Retention bound for history profiles (`None` = unbounded).
    pub history_capacity: Option<usize>,
    /// Neighbor maintenance: replace a neighbor after this many probe
    /// rounds of observed silence (`None` = static neighbor sets). The
    /// probing rule's "if a new neighbor is found" clause (§2.3) is what
    /// re-initialises the replacement's session time.
    pub neighbor_replacement_rounds: Option<u64>,
    /// Deterministic fault injection (all-zero rates = faults off, and the
    /// run is bit-identical to a build without the fault layer).
    pub fault: FaultConfig,
    /// Deterministic adversary strategies (`--adversary-*`): free riders,
    /// whitewashers and colluding cliques. All-zero rates (the default)
    /// derive nothing and the run is bit-identical to a build without the
    /// adversary layer.
    pub adversary: AdversaryConfig,
    /// Number of owner-keyed shards the history arena is split into
    /// (`--history-shards`). `0` (the default) resolves to the worker
    /// thread count; any value is clamped to `1..=n_nodes`. Results are
    /// bit-identical at every shard count — sharding partitions storage
    /// without changing per-`(node, bundle)` record order.
    pub history_shards: usize,
    /// Bandwidth matrix storage. [`CostStorage::Sparse`] drops the O(N²)
    /// matrix for million-node worlds at the price of *different* (still
    /// i.i.d. uniform) edge draws than the dense layout.
    pub cost_storage: CostStorage,
    /// Idle eviction of per-node probe cells: evict a node's materialized
    /// state after this many probe ticks without a touch (`None`, the
    /// default, never evicts; `Some(0)` is rejected). Pure policy — any
    /// value yields identical results, only the residency figures move.
    pub evict_idle_ticks: Option<u64>,
    /// When payment evidence settles against the bank (`--settlement`):
    /// per bundle after the horizon (the default) or batched at epoch
    /// boundaries. Meaningful only when fault injection is active (that is
    /// when the §5 evidence layer runs); economics are identical in both
    /// modes.
    pub settlement: SettlementMode,
    /// Epoch length in minutes under [`SettlementMode::Epoch`]
    /// (`--epoch-length`). Must be positive in epoch mode; ignored
    /// otherwise.
    pub epoch_length: f64,
    /// How connection requests arrive (`--workload`): the historical fixed
    /// batch (the default) or a per-pair Poisson arrival process.
    pub workload: WorkloadMode,
    /// Poisson arrival rate per pair (requests per minute) under
    /// [`WorkloadMode::Open`]. Must be positive in open mode; ignored
    /// otherwise.
    pub open_arrival_rate: f64,
    /// Length in minutes of each steady-state metrics window
    /// (`--window-len`). `0` (the default) disables windowed collection —
    /// byte-identical to builds without the metrics layer.
    pub window_len: f64,
    /// Warm-up trim for windowed metrics (`--window-warmup`): windows only
    /// start after this time, so transient start-up behaviour does not
    /// pollute the steady-state series. Ignored when windows are disabled.
    pub window_warmup: f64,
    /// Settlement-ledger durability (`--bank-durability`). Off (the
    /// default) keeps runs byte-identical to pre-durability builds;
    /// [`BankDurability::Wal`] adds write-ahead logging, a warm replica,
    /// and crash/failover handling for the `--fault-bank-crash` class.
    pub bank_durability: BankDurability,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        let churn = ChurnConfig {
            n_nodes: 40,
            join_rate: 2.0,
            session_median: 60.0,
            session_shape: 1.5,
            downtime_mean: 30.0,
            horizon: 24.0 * 60.0,
        };
        let cost = CostConfig {
            n_nodes: 40,
            participation_cost: 5.0,
            payload_size: 1.0,
            bandwidth_lo: 1.0,
            bandwidth_hi: 10.0,
            cost_scale: 10.0,
        };
        ScenarioConfig {
            n_nodes: 40,
            degree: 5,
            n_pairs: 100,
            total_transmissions: 2000,
            max_connections: 40,
            pf_range: (50.0, 100.0),
            tau: 1.0,
            weights: (0.5, 0.5),
            reputation_weight: 0.0,
            adversary_fraction: 0.0,
            good_strategy: RoutingStrategy::Utility(UtilityModel::ModelI),
            adversary_strategy: AdversaryStrategy::Random,
            policy: PathPolicy::new(0.75, 8),
            churn,
            cost,
            probe_period: 5.0,
            warmup: 60.0,
            seed: 1,
            availability_attack: false,
            history_capacity: None,
            neighbor_replacement_rounds: None,
            fault: FaultConfig::default(),
            adversary: AdversaryConfig::default(),
            history_shards: 0,
            cost_storage: CostStorage::Dense,
            evict_idle_ticks: None,
            settlement: SettlementMode::PerBundle,
            epoch_length: 240.0,
            workload: WorkloadMode::Closed,
            open_arrival_rate: 0.0,
            window_len: 0.0,
            window_warmup: 0.0,
            bank_durability: BankDurability::Off,
        }
    }
}

/// Returns `Err` with the offending field when `cond` is false.
fn ensure(cond: bool, field: &'static str, message: String) -> Result<(), SimError> {
    if cond {
        Ok(())
    } else {
        Err(SimError::InvalidConfig { field, message })
    }
}

impl ScenarioConfig {
    /// Validates cross-field consistency. Returns a descriptive
    /// [`SimError::InvalidConfig`] naming the offending field instead of
    /// panicking, so misconfigured scenarios fail with a diagnostic at the
    /// CLI (and in library callers) rather than a backtrace.
    pub fn validate(&self) -> Result<(), SimError> {
        ensure(
            self.n_nodes >= 4,
            "n_nodes",
            format!("need at least 4 nodes (got {})", self.n_nodes),
        )?;
        ensure(
            self.churn.n_nodes == self.n_nodes,
            "churn.n_nodes",
            format!(
                "churn size mismatch ({} != n_nodes {})",
                self.churn.n_nodes, self.n_nodes
            ),
        )?;
        ensure(
            self.cost.n_nodes == self.n_nodes,
            "cost.n_nodes",
            format!(
                "cost size mismatch ({} != n_nodes {})",
                self.cost.n_nodes, self.n_nodes
            ),
        )?;
        ensure(
            self.degree >= 1 && self.degree < self.n_nodes,
            "degree",
            format!(
                "degree must be in 1..n_nodes (got {} with n_nodes {})",
                self.degree, self.n_nodes
            ),
        )?;
        ensure(
            self.n_pairs > 0,
            "n_pairs",
            "need at least one (I, R) pair".into(),
        )?;
        ensure(
            self.total_transmissions > 0,
            "total_transmissions",
            "need at least one transmission".into(),
        )?;
        ensure(
            self.max_connections > 0,
            "max_connections",
            "per-pair connection cap must be positive".into(),
        )?;
        ensure(
            self.n_pairs * self.max_connections as usize >= self.total_transmissions,
            "max_connections",
            format!(
                "max_connections x n_pairs cannot absorb total_transmissions \
                 ({} x {} < {})",
                self.max_connections, self.n_pairs, self.total_transmissions
            ),
        )?;
        ensure(
            self.pf_range.0 > 0.0 && self.pf_range.1 >= self.pf_range.0,
            "pf_range",
            format!(
                "invalid P_f range [{}, {}] (need 0 < lo <= hi)",
                self.pf_range.0, self.pf_range.1
            ),
        )?;
        ensure(
            self.tau >= 0.0,
            "tau",
            format!("tau must be nonnegative (got {})", self.tau),
        )?;
        ensure(
            (0.0..=1.0).contains(&self.adversary_fraction),
            "adversary_fraction",
            format!("f out of range [0, 1] (got {})", self.adversary_fraction),
        )?;
        ensure(
            self.probe_period > 0.0,
            "probe_period",
            format!("probe period must be positive (got {})", self.probe_period),
        )?;
        ensure(
            self.neighbor_replacement_rounds != Some(0),
            "neighbor_replacement_rounds",
            "neighbor replacement needs a silence threshold >= 1".into(),
        )?;
        ensure(
            self.evict_idle_ticks != Some(0),
            "evict_idle_ticks",
            "idle eviction needs an idle-eviction window >= 1 tick".into(),
        )?;
        if self.settlement == SettlementMode::Epoch {
            ensure(
                self.epoch_length > 0.0,
                "epoch_length",
                format!(
                    "epoch settlement needs a positive epoch length (got {})",
                    self.epoch_length
                ),
            )?;
        }
        if self.workload == WorkloadMode::Open {
            ensure(
                self.open_arrival_rate > 0.0 && self.open_arrival_rate.is_finite(),
                "open_arrival_rate",
                format!(
                    "open workload needs a positive finite arrival rate (got {})",
                    self.open_arrival_rate
                ),
            )?;
        }
        ensure(
            self.window_len >= 0.0 && self.window_len.is_finite(),
            "window_len",
            format!(
                "window length must be finite and nonnegative (got {})",
                self.window_len
            ),
        )?;
        if self.window_len > 0.0 {
            ensure(
                self.window_warmup >= 0.0 && self.window_warmup < self.churn.horizon,
                "window_warmup",
                format!(
                    "window warm-up must lie in [0, horizon) (got {} with horizon {})",
                    self.window_warmup, self.churn.horizon
                ),
            )?;
        }
        ensure(
            self.warmup < self.churn.horizon,
            "warmup",
            format!(
                "warmup must precede the horizon ({} >= {})",
                self.warmup, self.churn.horizon
            ),
        )?;
        // Sub-config fields, mirrored from ChurnConfig/CostConfig::validate
        // so the whole scenario reports through SimError.
        ensure(
            self.churn.join_rate > 0.0,
            "churn.join_rate",
            "join rate must be positive".into(),
        )?;
        ensure(
            self.churn.session_median > 0.0 && self.churn.session_shape > 0.0,
            "churn.session_median",
            "Pareto session parameters must be positive".into(),
        )?;
        ensure(
            self.churn.downtime_mean > 0.0,
            "churn.downtime_mean",
            "downtime mean must be positive".into(),
        )?;
        ensure(
            self.churn.horizon > 0.0,
            "churn.horizon",
            "horizon must be positive".into(),
        )?;
        ensure(
            self.cost.participation_cost >= 0.0,
            "cost.participation_cost",
            "negative C^p".into(),
        )?;
        ensure(
            self.cost.payload_size > 0.0,
            "cost.payload_size",
            "payload size must be positive".into(),
        )?;
        ensure(
            0.0 < self.cost.bandwidth_lo && self.cost.bandwidth_lo <= self.cost.bandwidth_hi,
            "cost.bandwidth_lo",
            format!(
                "invalid bandwidth range [{}, {}]",
                self.cost.bandwidth_lo, self.cost.bandwidth_hi
            ),
        )?;
        ensure(
            self.cost.cost_scale > 0.0,
            "cost.cost_scale",
            "cost_scale must be positive".into(),
        )?;
        let (ws, wa) = self.weights;
        let wr = self.reputation_weight;
        ensure(
            ws >= 0.0 && wa >= 0.0 && wr >= 0.0 && (ws + wa + wr - 1.0).abs() <= 1e-9,
            "weights",
            format!(
                "(w_s, w_a, w_r) must be nonnegative and sum to 1 \
                 (got ({ws}, {wa}, {wr}))"
            ),
        )?;
        self.fault
            .validate()
            .map_err(|message| SimError::InvalidConfig {
                field: "fault",
                message,
            })?;
        self.adversary
            .validate()
            .map_err(|message| SimError::InvalidConfig {
                field: "adversary",
                message,
            })?;
        // Bank crashes without a durable ledger would silently lose
        // settlement state — reject the combination up front instead.
        ensure(
            self.fault.bank_crash_rate == 0.0 || self.bank_durability == BankDurability::Wal,
            "bank_durability",
            format!(
                "--fault-bank-crash {} requires --bank-durability wal \
                 (a crash without a write-ahead log loses ledger state)",
                self.fault.bank_crash_rate
            ),
        )
        // `--bank-durability wal` on its own is fine: it forces the
        // settlement runtime on (a zero-rate fault plan injects nothing),
        // so the durable ledger always has a settlement flow to mirror.
    }

    /// A scaled-down scenario for fast tests: 20 nodes, 20 pairs,
    /// 200 transmissions.
    #[must_use]
    pub fn quick_test(seed: u64) -> Self {
        ScenarioConfig {
            seed,
            ..ScenarioConfig::default()
        }
        .quick()
    }

    /// Shrinks the workload to the quick tier (20 nodes, 20 pairs, 200
    /// transmissions) and leaves every other field as it is, so `--quick`
    /// composes with any mode or fault flag in either order.
    #[must_use]
    pub fn quick(self) -> Self {
        ScenarioConfig {
            n_pairs: 20,
            total_transmissions: 200,
            ..self
        }
        .with_nodes(20)
    }

    /// A large-N scale scenario: paper churn scaled proportionally
    /// (`join_rate = n/20`, the default 2/min at N = 40), idle eviction of
    /// probe cells after 64 ticks, sparse cost storage (no O(N²) matrix),
    /// and a fixed-size active workload — so per-tick cost and resident
    /// state track the 512-pair traffic, not N. `adversary_fraction` stays
    /// 0: the attack observer is an O(N)-per-connection layer this
    /// scenario does not measure.
    #[must_use]
    pub fn scale(n: usize, seed: u64) -> Self {
        let mut cfg = ScenarioConfig {
            n_pairs: 512,
            total_transmissions: 4096,
            max_connections: 64,
            evict_idle_ticks: Some(64),
            cost_storage: CostStorage::Sparse,
            seed,
            ..ScenarioConfig::default()
        }
        .with_nodes(n);
        cfg.churn.join_rate = n as f64 / 20.0;
        cfg
    }

    /// The million-node scenario — [`ScenarioConfig::scale`] at
    /// N = 1,000,000. Completes in memory bounded by the active working
    /// set (asserted by the `node_lifecycle` bench's counting allocator).
    #[must_use]
    pub fn scale_1m(seed: u64) -> Self {
        Self::scale(1_000_000, seed)
    }

    /// Applies a new node count consistently across sub-configs.
    #[must_use]
    pub fn with_nodes(mut self, n: usize) -> Self {
        self.n_nodes = n;
        self.churn.n_nodes = n;
        self.cost.n_nodes = n;
        self
    }

    /// The effective history-arena shard count: `history_shards`, with `0`
    /// resolving to the default worker thread count, clamped to
    /// `1..=n_nodes`.
    #[must_use]
    pub fn resolved_history_shards(&self) -> usize {
        let requested = if self.history_shards == 0 {
            idpa_desim::pool::default_threads()
        } else {
            self.history_shards
        };
        requested.clamp(1, self.n_nodes.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let cfg = ScenarioConfig::default();
        assert_eq!(cfg.n_nodes, 40);
        assert_eq!(cfg.degree, 5);
        assert_eq!(cfg.n_pairs, 100);
        assert_eq!(cfg.total_transmissions, 2000);
        assert_eq!(cfg.pf_range, (50.0, 100.0));
        assert_eq!(cfg.weights, (0.5, 0.5));
        assert_eq!(cfg.churn.session_median, 60.0);
        assert!(!cfg.fault.is_active(), "faults default off");
        cfg.validate().expect("paper defaults must validate");
    }

    #[test]
    fn average_rounds_per_pair_is_twenty() {
        let cfg = ScenarioConfig::default();
        assert_eq!(cfg.total_transmissions / cfg.n_pairs, 20);
    }

    #[test]
    fn quick_test_is_consistent() {
        ScenarioConfig::quick_test(7)
            .validate()
            .expect("quick_test must validate");
    }

    #[test]
    fn with_nodes_updates_subconfigs() {
        let cfg = ScenarioConfig::default().with_nodes(10);
        cfg.validate().expect("with_nodes must stay consistent");
        assert_eq!(cfg.churn.n_nodes, 10);
        assert_eq!(cfg.cost.n_nodes, 10);
    }

    /// Asserts validation fails on `field` with `fragment` in the message.
    fn assert_rejected(cfg: &ScenarioConfig, field: &str, fragment: &str) {
        match cfg.validate() {
            Err(SimError::InvalidConfig { field: f, message }) => {
                assert_eq!(f, field);
                assert!(message.contains(fragment), "message: {message}");
            }
            other => panic!("expected InvalidConfig on {field}, got {other:?}"),
        }
    }

    #[test]
    fn inconsistent_sizes_rejected() {
        let cfg = ScenarioConfig {
            n_nodes: 30, // without updating churn/cost
            ..ScenarioConfig::default()
        };
        assert_rejected(&cfg, "churn.n_nodes", "churn size mismatch");
    }

    #[test]
    fn bad_fraction_rejected() {
        let cfg = ScenarioConfig {
            adversary_fraction: 1.5,
            ..ScenarioConfig::default()
        };
        assert_rejected(&cfg, "adversary_fraction", "f out of range");
    }

    #[test]
    fn oversized_degree_rejected_with_values_in_message() {
        let cfg = ScenarioConfig {
            degree: 40,
            ..ScenarioConfig::default()
        };
        assert_rejected(&cfg, "degree", "40 with n_nodes 40");
    }

    #[test]
    fn inverted_pf_range_rejected() {
        let cfg = ScenarioConfig {
            pf_range: (100.0, 50.0),
            ..ScenarioConfig::default()
        };
        assert_rejected(&cfg, "pf_range", "invalid P_f range [100, 50]");
    }

    #[test]
    fn warmup_beyond_horizon_rejected() {
        let mut cfg = ScenarioConfig::default();
        cfg.warmup = cfg.churn.horizon + 1.0;
        assert_rejected(&cfg, "warmup", "warmup must precede the horizon");
    }

    #[test]
    fn bad_fault_config_rejected_through_scenario() {
        let mut cfg = ScenarioConfig::default();
        cfg.fault.drop_rate = 1.5;
        assert_rejected(&cfg, "fault", "drop_rate");
    }

    #[test]
    fn active_fault_config_validates() {
        let mut cfg = ScenarioConfig::default();
        cfg.fault.drop_rate = 0.1;
        cfg.fault.crash_rate = 0.05;
        cfg.fault.cheat_fraction = 0.2;
        cfg.validate().expect("active faults are a valid scenario");
        assert!(cfg.fault.is_active());
    }

    #[test]
    fn three_term_weights_validate_and_unbalanced_rejected() {
        let cfg = ScenarioConfig {
            weights: (0.4, 0.4),
            reputation_weight: 0.2,
            ..ScenarioConfig::default()
        };
        cfg.validate()
            .expect("balanced three-term weights are valid");
        let bad = ScenarioConfig {
            reputation_weight: 0.2, // on top of (0.5, 0.5)
            ..ScenarioConfig::default()
        };
        assert_rejected(&bad, "weights", "sum to 1");
    }

    #[test]
    fn history_shards_resolve_and_clamp() {
        let cfg = ScenarioConfig::default();
        assert_eq!(cfg.history_shards, 0, "default is auto");
        assert!(cfg.resolved_history_shards() >= 1);
        let explicit = ScenarioConfig {
            history_shards: 7,
            ..ScenarioConfig::default()
        };
        assert_eq!(explicit.resolved_history_shards(), 7);
        let oversized = ScenarioConfig {
            history_shards: 10_000,
            ..ScenarioConfig::default()
        };
        assert_eq!(oversized.resolved_history_shards(), 40, "clamped to N");
    }

    #[test]
    fn quick_shrinks_sizes_and_keeps_everything_else() {
        let cfg = ScenarioConfig {
            evict_idle_ticks: Some(8),
            reputation_weight: 0.2,
            weights: (0.4, 0.4),
            seed: 9,
            ..ScenarioConfig::default()
        };
        let quick = cfg.quick();
        quick.validate().expect("quick tier validates");
        assert_eq!(
            (quick.n_nodes, quick.churn.n_nodes, quick.cost.n_nodes),
            (20, 20, 20)
        );
        assert_eq!((quick.n_pairs, quick.total_transmissions), (20, 200));
        assert_eq!(quick, cfg.quick().quick(), "idempotent");
        assert_eq!(
            ScenarioConfig {
                n_nodes: 40,
                n_pairs: 100,
                total_transmissions: 2000,
                churn: cfg.churn,
                cost: cfg.cost,
                ..quick
            },
            cfg,
            "only sizes change"
        );
        assert_eq!(
            ScenarioConfig::quick_test(9),
            ScenarioConfig {
                seed: 9,
                ..ScenarioConfig::default().quick()
            }
        );
    }

    #[test]
    fn lazy_with_zero_threshold_rejected() {
        let cfg = ScenarioConfig {
            neighbor_replacement_rounds: Some(0),
            ..ScenarioConfig::default()
        };
        assert_rejected(&cfg, "neighbor_replacement_rounds", "threshold >= 1");
    }

    #[test]
    fn default_never_evicts_and_stores_costs_densely() {
        let cfg = ScenarioConfig::default();
        assert_eq!(cfg.evict_idle_ticks, None);
        assert_eq!(cfg.cost_storage, CostStorage::Dense);
    }

    #[test]
    fn idle_eviction_validates_and_zero_window_rejected() {
        let cfg = ScenarioConfig {
            evict_idle_ticks: Some(1),
            ..ScenarioConfig::default()
        };
        cfg.validate().expect("idle eviction is a valid scenario");
        let bad = ScenarioConfig {
            evict_idle_ticks: Some(0),
            ..cfg
        };
        assert_rejected(&bad, "evict_idle_ticks", "idle-eviction window");
    }

    #[test]
    fn scale_scenarios_validate_with_proportional_churn() {
        let cfg = ScenarioConfig::scale(4_000, 3);
        cfg.validate().expect("scale scenario must validate");
        assert_eq!(cfg.evict_idle_ticks, Some(64));
        assert_eq!(cfg.cost_storage, CostStorage::Sparse);
        assert_eq!(cfg.churn.join_rate, 200.0);
        let big = ScenarioConfig::scale_1m(3);
        big.validate().expect("scale_1m must validate");
        assert_eq!(big.n_nodes, 1_000_000);
        assert_eq!(big.churn.n_nodes, 1_000_000);
    }

    #[test]
    fn default_settlement_is_per_bundle() {
        let cfg = ScenarioConfig::default();
        assert_eq!(cfg.settlement, SettlementMode::PerBundle);
        assert_eq!(cfg.epoch_length, 240.0);
    }

    #[test]
    fn default_bank_durability_is_off() {
        let cfg = ScenarioConfig::default();
        assert_eq!(cfg.bank_durability, BankDurability::Off);
        cfg.validate().expect("default scenario validates");
    }

    #[test]
    fn bank_crash_without_durability_is_a_typed_error() {
        let mut bad = ScenarioConfig::default();
        bad.fault.bank_crash_rate = 0.1;
        assert_rejected(&bad, "bank_durability", "--bank-durability wal");
        // Turning durability on makes the same scenario valid.
        let good = ScenarioConfig {
            bank_durability: BankDurability::Wal,
            ..bad
        };
        good.validate()
            .expect("crash class with WAL durability validates");
    }

    #[test]
    fn wal_durability_validates_with_and_without_other_faults() {
        let idle = ScenarioConfig {
            bank_durability: BankDurability::Wal,
            ..ScenarioConfig::default()
        };
        idle.validate()
            .expect("WAL durability alone validates (it forces the settlement runtime on)");
        let mut with_faults = idle;
        with_faults.fault.drop_rate = 0.05;
        with_faults
            .validate()
            .expect("durability over an active fault layer validates");
    }

    #[test]
    fn epoch_settlement_validates_and_nonpositive_length_rejected() {
        let cfg = ScenarioConfig {
            settlement: SettlementMode::Epoch,
            ..ScenarioConfig::default()
        };
        cfg.validate()
            .expect("epoch settlement is a valid scenario");
        let bad = ScenarioConfig {
            epoch_length: 0.0,
            ..cfg
        };
        assert_rejected(&bad, "epoch_length", "positive epoch length");
        // A nonpositive length is fine in per-bundle mode (it is ignored).
        let ignored = ScenarioConfig {
            epoch_length: -1.0,
            ..ScenarioConfig::default()
        };
        ignored
            .validate()
            .expect("length ignored in per-bundle mode");
    }

    #[test]
    fn default_workload_is_closed_with_windows_off() {
        let cfg = ScenarioConfig::default();
        assert_eq!(cfg.workload, WorkloadMode::Closed);
        assert_eq!(cfg.open_arrival_rate, 0.0);
        assert_eq!(cfg.window_len, 0.0);
        assert_eq!(cfg.window_warmup, 0.0);
    }

    #[test]
    fn open_workload_needs_positive_rate() {
        let cfg = ScenarioConfig {
            workload: WorkloadMode::Open,
            ..ScenarioConfig::default()
        };
        assert_rejected(&cfg, "open_arrival_rate", "positive finite arrival rate");
        let ok = ScenarioConfig {
            open_arrival_rate: 0.05,
            ..cfg
        };
        ok.validate().expect("open workload with a rate is valid");
        let inf = ScenarioConfig {
            open_arrival_rate: f64::INFINITY,
            ..cfg
        };
        assert_rejected(&inf, "open_arrival_rate", "positive finite arrival rate");
    }

    #[test]
    fn window_bounds_are_validated() {
        let bad_len = ScenarioConfig {
            window_len: -1.0,
            ..ScenarioConfig::default()
        };
        assert_rejected(&bad_len, "window_len", "finite and nonnegative");
        let mut late = ScenarioConfig::default();
        late.window_len = 60.0;
        late.window_warmup = late.churn.horizon;
        assert_rejected(&late, "window_warmup", "[0, horizon)");
        // Warm-up is ignored while windows are disabled.
        let ignored = ScenarioConfig {
            window_warmup: 1e12,
            ..ScenarioConfig::default()
        };
        ignored
            .validate()
            .expect("warm-up ignored with windows off");
    }

    #[test]
    fn adversary_defaults_off_and_bad_rates_rejected_through_scenario() {
        let cfg = ScenarioConfig::default();
        assert!(!cfg.adversary.is_active(), "adversary layer defaults off");
        cfg.validate().expect("adversary defaults must validate");
        let mut bad = cfg;
        bad.adversary.free_rider_fraction = 1.5;
        assert_rejected(&bad, "adversary", "free_rider_fraction");
        let mut active = cfg;
        active.adversary.clique_count = 2;
        active.adversary.clique_forge_rate = 0.5;
        active.validate().expect("clique scenario must validate");
        assert!(active.adversary.is_active());
    }
}
