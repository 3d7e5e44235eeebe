//! The event-driven simulation run.
//!
//! Transmissions (one connection of one (I, R) pair, formed hop by hop
//! under the incentive mechanism) drive the run. Availability estimates
//! `α_s(v)` are lazy: a node's probe state, neighbor replacements
//! included, materializes on demand from the analytic churn schedule when
//! routing reads it, bit-identical to probing every node at every tick
//! (see [`idpa_overlay::probe_lazy`]), and no probe event is ever
//! scheduled. After the horizon the per-bundle accounting is settled into
//! per-node payoffs (`m·P_f + P_r/‖π‖ − costs`).
//!
//! Every transmission takes one path: form the connection without
//! committing history, then complete it. With a fault runtime (an active
//! fault config, adversary plan or durable bank:
//! [`ScenarioConfig::settles`]) the run additionally injects seed-derived
//! faults between the two: each attempt walks its
//! formed path edge by edge (crash / drop / delay), the confirmation walks
//! back through any cheating forwarders (drop / receipt corruption), and
//! failed attempts are retried with exponential backoff up to
//! `max_retries` before being abandoned. History stays
//! confirmation-driven (§2.2): a failed attempt commits no Table 1
//! records, and a swallowed confirmation commits only the path suffix it
//! actually traversed. Completed connections deposit a MAC'd path manifest
//! plus per-hop receipts with a [`PathValidator`]. Settlement replays that
//! evidence in windows, each validated once: the completing pair's window
//! closes at every completed connection under per-bundle settlement, every
//! pair's at each epoch boundary under epoch settlement, and `finish`
//! closes the tail. The replay reconstructs π, pays only validated
//! instances and flags cheaters. All fault draws come from dedicated
//! position-keyed streams, so a run with every rate zero is bit-identical
//! to one without the fault runtime.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use idpa_core::adversary::IntersectionAttack;
use idpa_core::arena::HistoryArena;
use idpa_core::bundle::{BundleAccounting, BundleId};
use idpa_core::contract::Contract;
use idpa_core::metrics::{self, DeliveryTracker, ReformationTracker};
use idpa_core::path::{form_connection_pending, PendingConnection};
use idpa_core::quality::{EdgeQuality, Weights};
use idpa_core::reputation::EdgeReputation;
use idpa_core::routing::{RouteScratch, RoutingView};
use idpa_desim::rng::{StreamFactory, Xoshiro256StarStar};
use idpa_desim::{AdversaryPlan, CheatAction, Engine, FaultPlan, FaultResponse, Process, SimTime};
use idpa_netmodel::CostModel;
use idpa_overlay::{LazyProbeSet, NodeId, ProbeInvalidation};
use idpa_payment::audit::{AuditEvent, AuditLog};
use idpa_payment::bank::AccountId;
use idpa_payment::receipt::Receipt;
use idpa_payment::validation::{ConnectionEvidence, PathManifest, PathValidator};
use rand::{Rng, RngExt};

use crate::durability::BankDurabilityState;
use crate::scenario::{BankDurability, ScenarioConfig, SettlementMode, WorkloadMode};
use crate::slab::{NodeSlab, ReputationStore};
use crate::window::WindowCollector;
use crate::world::World;

/// Events of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    /// Retired global probe tick: never scheduled, handled as a no-op.
    /// Lazy cells replay probe rounds when read.
    Probe,
    /// Retired per-node maintenance event: never scheduled, handled as a
    /// no-op. Lazy cells replay replacements when read.
    Maintain(usize),
    /// One transmission of one (I, R) pair.
    Transmit {
        /// Index of the pair in the workload.
        pair: usize,
        /// Connection index within the pair's bundle.
        conn: u32,
    },
    /// A retry of a failed transmission attempt (fault injection only).
    Retry {
        /// Index of the pair in the workload.
        pair: usize,
        /// Connection index within the pair's bundle.
        conn: u32,
        /// Attempt number (1 = first retry).
        attempt: u32,
    },
    /// An epoch boundary under `--settlement epoch`: the evidence window
    /// accrued since the previous boundary is validated, payouts are
    /// netted per account and deposits batch-verified.
    EpochSettle,
    /// An open-workload connection request (`--workload open`): the pair's
    /// next Poisson arrival fires, starts a transmission at the current
    /// time, and schedules the following arrival from the pair's
    /// position-keyed gap stream.
    Arrival {
        /// Index of the pair in the workload.
        pair: usize,
    },
    /// A whitewash rejoin (`--adversary-whitewash`): this node sheds its
    /// accumulated reputation by rejoining under a fresh identity — every
    /// active ledger entry against it is archived (the evidence survives),
    /// and its probe-distrust mask is cleared.
    Whitewash(usize),
}

/// The live snapshot the routing layer reads during one transmission.
struct RunView<'a> {
    /// Probe state, and the churn schedules routing liveness reads.
    probes: &'a LazyProbeSet,
    costs: &'a CostModel,
    /// Per-node crash overlay (empty when fault injection is off): node `v`
    /// is routable only once `now >= crashed[v]`. The overlay affects
    /// routing liveness only — probe estimates still follow the analytic
    /// churn schedule, which is what lets them be reconstructed lazily.
    crashed: &'a [f64],
    /// The forming initiator's private fault ledger (`Some` only under
    /// `--fault-response adaptive`): suppressed relays are filtered from
    /// candidate sets and ρ(v) feeds the `w_r` quality term.
    reputation: Option<&'a EdgeReputation>,
    /// Crash-aware probe invalidation (`Some` only in adaptive mode): a
    /// masked relay's probe-derived availability reads as 0 until its
    /// horizon — the mask is an overlay on the read path, never on probe
    /// state.
    invalid: Option<&'a ProbeInvalidation>,
    /// Identity-age discounting (`Some` only under
    /// `--adversary-age-discount`): a relay's reputation term is scaled by
    /// `min(1, age/maturity)`, so a whitewashed identity rebuilds trust
    /// instead of inheriting the clean ledger's full score. Age is a pure
    /// function of the plan's precomputed rejoin schedule — never state.
    age_discount: Option<&'a AdversaryPlan>,
    now: SimTime,
}

impl RoutingView for RunView<'_> {
    fn live_neighbors_into(&self, s: NodeId, out: &mut Vec<NodeId>) {
        // D(s) is maintained by the node itself (its probe estimator), so
        // neighbor replacement is visible to routing. A neighbor is
        // routable when its churn schedule has it up, it is past any
        // crash, and the initiator has not suppressed it.
        let now = self.now.minutes();
        self.probes.live_neighbors_into(s, now, out, |v| {
            (self.crashed.is_empty() || now >= self.crashed[v.index()])
                && !self.reputation.is_some_and(|r| r.is_suppressed(v))
        });
    }

    fn availability(&self, s: NodeId, v: NodeId) -> f64 {
        if self
            .invalid
            .is_some_and(|iv| iv.masked(v.index(), self.now.minutes()))
        {
            return 0.0;
        }
        self.probes.availability(s, v, self.now.minutes())
    }

    fn reputation(&self, _s: NodeId, v: NodeId) -> f64 {
        let base = self.reputation.map_or(1.0, |r| r.score(v));
        match self.age_discount {
            None => base,
            Some(plan) => {
                let maturity = plan.config().reputation_maturity;
                let age = plan.identity_age(v.index(), self.now.minutes());
                base * (age / maturity).min(1.0)
            }
        }
    }

    fn transmission_cost(&self, s: NodeId, v: NodeId) -> f64 {
        self.costs.transmission_cost(s.index(), v.index())
    }

    fn participation_cost(&self, _: NodeId) -> f64 {
        self.costs.participation_cost()
    }
}

/// Aggregated outcome of one simulation run.
///
/// Payoffs are aggregated **per (bundle, forwarder) participation** — the
/// paper's unit: a forwarder on a bundle earns `m·P_f + P_r/‖π‖ − costs`
/// for its `m` forwarding instances on that bundle. This is the unit in
/// which Figs. 3–4's decline with `f` and Figs. 6–7's CDFs are expressed;
/// a lifetime-total-per-node aggregation would be dominated by `P_f` and
/// mask the routing-benefit dilution the paper studies.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Per-(bundle, good forwarder) payoffs (the Figs. 6–7 CDF samples).
    pub good_payoffs: Vec<f64>,
    /// Per-(bundle, malicious forwarder) payoffs.
    pub malicious_payoffs: Vec<f64>,
    /// Lifetime total payoff per node (indexed by `NodeId`).
    pub node_totals: Vec<f64>,
    /// Mean per-(bundle, good forwarder) payoff (the Figs. 3–4 metric).
    pub avg_good_payoff: f64,
    /// Mean forwarder-set size over pairs (the Fig. 5 metric).
    pub avg_forwarder_set: f64,
    /// Mean path length `L` over pairs.
    pub avg_path_length: f64,
    /// Mean `Q(π) = L/‖π‖` over pairs.
    pub avg_path_quality: f64,
    /// `avg payoff / avg #forwarders` (the Table 2 metric).
    pub routing_efficiency: f64,
    /// Mean fraction of new edges per connection (Prop. 1's `E[X]`).
    pub new_edge_fraction: f64,
    /// Mean fraction of post-first connections that changed an edge.
    pub reformation_rate: f64,
    /// Connections actually formed.
    pub connections: u64,
    /// Fraction of pairs whose initiator the intersection attack narrowed
    /// to a single candidate.
    pub attack_exposure_rate: f64,
    /// Mean anonymity degree left by the intersection attack (1 = full
    /// anonymity).
    pub avg_anonymity_degree: f64,
    /// Fraction of scheduled transmissions eventually delivered (1.0 in a
    /// fault-free run).
    pub delivery_ratio: f64,
    /// Mean retry attempts per scheduled transmission.
    pub retries_per_message: f64,
    /// Mean extra latency (minutes) of deliveries that needed at least one
    /// path reformation (0.0 when nothing was retried).
    pub reformation_latency: f64,
    /// Fraction of manifest-attested forwarding instances whose receipts
    /// were destroyed by cheaters (payment lost to cheating).
    pub payment_shortfall: f64,
    /// Mean settlement delay (minutes) pairs wait for the bank to come back
    /// up after their last completed connection.
    pub settlement_delay: f64,
    /// Nodes flagged by reconstructed-path validation (sorted).
    pub flagged_cheaters: Vec<usize>,
    /// Nodes the fault plan injected as cheaters (sorted).
    pub injected_cheaters: Vec<usize>,
    /// Detected-versus-paid [`AuditEvent::Discrepancy`] entries recorded.
    pub audit_discrepancies: u64,
    /// Peak number of simultaneously materialized per-node probe cells. A
    /// cell materializes when the run first reads its node's probe state,
    /// so without idle eviction this is the number of distinct nodes read
    /// (at most N); with it, the largest working set between sweeps.
    pub peak_materialized_nodes: usize,
    /// Probe cells evicted by the idle sweep (always 0 when
    /// [`ScenarioConfig::evict_idle_ticks`] is `None`).
    pub node_evictions: u64,
    /// Estimated peak bytes of materialized per-node state: probe cells
    /// (via [`idpa_overlay::cell_footprint`]) plus reputation-ledger
    /// observations. A model, not an allocator reading, so it does not
    /// depend on the machine.
    pub slab_bytes: usize,
    /// Epoch boundaries that settled at least one new connection under
    /// `--settlement epoch` (0 in per-bundle mode).
    pub epochs_settled: u64,
    /// Mean bank-facing settlement operations (netted payouts plus
    /// batched deposit calls) per settled epoch. A structural count,
    /// not a timing — comparable across machines (0.0 in per-bundle
    /// mode).
    pub settlement_ops_per_epoch: f64,
    /// Receipts collapsed into each netted payout operation — the
    /// transfer-amortization factor epoch batching buys over per-bundle
    /// settlement (0.0 in per-bundle mode).
    pub epoch_netting_ratio: f64,
    /// Per-window `delivered / scheduled` under `--window-len` (empty when
    /// windowed collection is off). See [`crate::window::WindowCollector`].
    pub windowed_delivery_ratio: Vec<f64>,
    /// Per-window gross forwarding benefit per minute (empty when windowed
    /// collection is off).
    pub windowed_payoff_rate: Vec<f64>,
    /// Per-window retries per scheduled transmission (empty when windowed
    /// collection is off).
    pub windowed_retry_rate: Vec<f64>,
    /// Nodes the adversary plan designated free riders (sorted; empty when
    /// the strategy is off).
    pub free_riders: Vec<usize>,
    /// Transmission attempts that died because a free-riding forwarder
    /// ghosted its forwarding duty.
    pub free_rider_refusals: u64,
    /// Mean lifetime forwarding payoff of free-riding nodes. Prop. 2 in
    /// action: a node that refuses forwarding duty earns no `m·P_f`.
    pub free_rider_payoff: f64,
    /// Mean lifetime forwarding payoff of compliant good nodes (the
    /// free-rider counterfactual; 0 when the strategy is off).
    pub compliant_payoff: f64,
    /// Whitewash rejoins executed.
    pub whitewash_events: u64,
    /// Fraction of whitewash rejoins that escaped at least one active
    /// suppression — the reputation-evasion rate. Rejoins that found no
    /// suppression to shed count in the denominator only.
    pub reputation_evasion_rate: f64,
    /// Phantom forwarding instances injected by clique-forged manifests.
    pub clique_phantom_instances: u64,
    /// Phantom instances the cross-confirmation check withheld from payout.
    pub clique_phantom_flagged: u64,
    /// Fraction of injected phantom instances that escaped into payouts
    /// (0 with the cross-check on, ~1 with it off).
    pub clique_payout_leakage: f64,
    /// WAL records durably committed by the bank (`--bank-durability wal`
    /// only; 0 when durability is off).
    pub bank_wal_records: u64,
    /// WAL bytes durably committed by the bank.
    pub bank_wal_bytes: u64,
    /// Seeded bank crashes injected by the fault plan's bank-crash class.
    pub bank_crashes: u64,
    /// Bank crashes that left a torn (partially written) final record.
    pub bank_torn_tails: u64,
    /// WAL records the warm replica replayed while taking over at
    /// failovers.
    pub bank_records_replayed: u64,
    /// Runtime invariant-monitor checks executed against the durable
    /// ledger (O(1) conservation per flush + full sweeps at failovers).
    pub bank_monitor_checks: u64,
    /// Invariant violations the monitor detected (0 on every healthy run).
    pub bank_monitor_violations: u64,
    /// Order-independent digest of the final durable-ledger state. Equal
    /// across crash-anywhere and crash-free runs of the same scenario.
    pub bank_ledger_digest: u64,
    /// Whether every audit hash chain verified end-to-end (vacuously true
    /// when no audit log was built).
    pub audit_chain_verified: bool,
    /// Whether the run was cut short by a service-mode shutdown
    /// (`--max-wall-secs`): the aggregates cover only the simulated time
    /// actually executed. Always `false` for runs that reached the horizon.
    pub interrupted: bool,
}

/// Mutable fault-injection state (present only when faults are active).
pub(crate) struct FaultRuntime {
    pub(crate) plan: FaultPlan,
    pub(crate) delivery: DeliveryTracker,
    /// Per-pair §5 evidence accumulators.
    pub(crate) validators: Vec<PathValidator>,
    /// Per-pair raw bundle keys (shared by manifest and receipts). The
    /// validators prepare them on first use; restore rebuilds validators
    /// from these.
    pub(crate) keys: Vec<[u8; 32]>,
    /// Per-pair time of the last completed connection (`< 0` = none).
    pub(crate) last_completion: Vec<f64>,
    /// Per-initiator private fault ledgers (keyed by initiator node).
    /// Written only under `--fault-response adaptive`; in static mode they
    /// stay pristine and are never handed to the routing view, keeping
    /// static runs bit-identical to the pre-adaptive code path. Ledgers
    /// materialize on the first recorded fault.
    pub(crate) reputation: ReputationStore,
    /// Global probe-availability mask, advanced on confirmed failures
    /// (adaptive mode only).
    pub(crate) probe_invalid: ProbeInvalidation,
    /// Settlement windows and the totals every closed window folded in.
    pub(crate) settlement: SettlementState,
    /// Deterministic adversary strategies (`Some` only when at least one
    /// `--adversary-*` rate is nonzero; `None` leaves every code path
    /// byte-identical to a build without the adversary layer).
    pub(crate) adversary: Option<AdversaryPlan>,
    /// Dynamic adversary counters (all zero when no strategy is active).
    pub(crate) adv: AdversaryCounters,
    /// The durable bank (`Some` only under `--bank-durability wal`):
    /// WAL-backed ledger mirroring the settlement flow, warm replica,
    /// seeded crash/failover, and the runtime invariant monitor.
    pub(crate) bank: Option<BankDurabilityState>,
}

/// Dynamic counters of the adversary layer — the only mutable adversary
/// state (the plan itself is a precomputed pure schedule), so these are
/// what crash-safe snapshots carry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct AdversaryCounters {
    /// Whitewash rejoins executed so far.
    pub(crate) whitewash_events: u64,
    /// Rejoins that escaped at least one active suppression.
    pub(crate) whitewash_evasions: u64,
    /// Ledger entries archived by whitewashes.
    pub(crate) whitewash_archived: u64,
    /// Transmission attempts ghosted by free-riding forwarders.
    pub(crate) free_rider_refusals: u64,
    /// Phantom forwarding instances injected by clique forgery.
    pub(crate) phantom_injected: u64,
}

/// Running state of settlement: per-pair window cursors plus the totals
/// of every closed window. Because [`PathValidator::validate_range`]
/// windows partition each pair's evidence, the totals equal a single
/// whole-bundle validation however the windows fall — the settlement mode
/// changes *when* settlement work happens and how many bank operations it
/// costs, never the economics.
pub(crate) struct SettlementState {
    /// Per-pair count of evidence entries settled in closed windows.
    pub(crate) cursors: Vec<usize>,
    /// Per-pair manifest-attested instances over all closed windows.
    pub(crate) expected: Vec<u64>,
    /// Per-pair receipt-backed (payable) instances over all closed
    /// windows.
    pub(crate) validated: Vec<u64>,
    /// `(pair, forwarder)` for every forwarder a closed window of that
    /// pair flagged.
    pub(crate) flagged: BTreeSet<(usize, usize)>,
    /// Phantom instances withheld by the cross-confirmation check across
    /// all closed windows.
    pub(crate) phantom_flagged: u64,
    /// Epoch boundaries that closed at least one window (0 under
    /// per-bundle settlement, as are the three counters below).
    pub(crate) epochs_settled: u64,
    /// Netted payout operations: one per account paid per epoch, however
    /// many receipts it earned in the window.
    pub(crate) payout_ops: u64,
    /// Batched deposit calls: one per window of up to 1024 individually
    /// verified deposits.
    pub(crate) batch_ops: u64,
    /// Receipts cleared through batched settlement.
    pub(crate) receipts_netted: u64,
}

impl SettlementState {
    pub(crate) fn new(n_pairs: usize) -> Self {
        SettlementState {
            cursors: vec![0; n_pairs],
            expected: vec![0; n_pairs],
            validated: vec![0; n_pairs],
            flagged: BTreeSet::new(),
            phantom_flagged: 0,
            epochs_settled: 0,
            payout_ops: 0,
            batch_ops: 0,
            receipts_netted: 0,
        }
    }
}

impl FaultRuntime {
    fn adaptive(&self) -> bool {
        self.plan.config().response == FaultResponse::Adaptive
    }

    /// Closes the settlement window of every pair in `pairs`: validates
    /// the evidence each accrued since its last close, folds the reports
    /// into the per-pair totals, and settles the paid counts through the
    /// durable bank as one flush. An epoch boundary (`epoch`) also counts
    /// the bank-facing operations the batch collapses the windows into
    /// (one netted payout per paid account, one batch-verification call
    /// per 1024 deposits). A no-op when no pair has new evidence.
    fn close_windows(&mut self, pairs: Range<usize>, epoch: bool) {
        let st = &mut self.settlement;
        let mut receipts = 0u64;
        let mut closed_any = false;
        let mut paid: BTreeMap<u64, u64> = BTreeMap::new();
        for pair in pairs {
            let validator = &self.validators[pair];
            let (start, end) = (st.cursors[pair], validator.connections());
            if start == end {
                continue;
            }
            closed_any = true;
            let report = validator.validate_range(start, end);
            st.cursors[pair] = end;
            st.expected[pair] += report.expected_instances;
            st.validated[pair] += report.validated_instances;
            st.phantom_flagged += report.phantom_instances;
            st.flagged
                .extend(report.flagged.iter().map(|a| (pair, a.0 as usize)));
            for (a, c) in &report.paid_counts {
                *paid.entry(a.0).or_insert(0) += c;
            }
            receipts += report.validated_instances;
        }
        if !closed_any {
            return;
        }
        let epoch = epoch.then_some(st.epochs_settled);
        if epoch.is_some() {
            st.epochs_settled += 1;
            st.receipts_netted += receipts;
            st.payout_ops += paid.len() as u64;
            st.batch_ops += receipts.div_ceil(1024);
        }
        if let Some(bank) = self.bank.as_mut() {
            bank.settle(&paid, receipts, epoch, &self.plan);
        }
    }

    /// The §5 settlement summary over every closed window: payment
    /// shortfall, flagged cheaters, the audit trail of detected-vs-paid
    /// discrepancies, the phantom instances withheld, the epoch operation
    /// counts, and the bank-outage settlement delay. Funds leave the bank
    /// at a pair's last completion, or under epoch settlement
    /// (`epoch_length`) at the first boundary at or after it, further
    /// delayed by any bank outage covering that moment — an outage stalls
    /// an epoch, not a bundle.
    fn settlement_summary(&self, epoch_length: Option<f64>) -> SettlementSummary {
        let st = &self.settlement;
        let mut audit = AuditLog::new();
        for (pair, (&expected, &validated)) in st.expected.iter().zip(&st.validated).enumerate() {
            if validated < expected {
                audit.append(AuditEvent::Discrepancy {
                    bundle: pair as u64,
                    expected,
                    validated,
                    flagged: st.flagged.range((pair, 0)..(pair + 1, 0)).count() as u64,
                });
            }
        }
        assert!(
            audit.verify_chain(),
            "settlement audit hash chain failed verification"
        );
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let expected: u64 = st.expected.iter().sum();
        let validated: u64 = st.validated.iter().sum();
        let delays: Vec<f64> = self
            .last_completion
            .iter()
            .filter(|&&t| t >= 0.0)
            .map(|&t| {
                let paid_at = epoch_length.map_or(t, |e| (t / e).ceil() * e);
                self.plan.next_bank_up(paid_at) - t
            })
            .collect();
        let flagged: BTreeSet<usize> = st.flagged.iter().map(|&(_, f)| f).collect();
        SettlementSummary {
            shortfall: if expected == 0 {
                0.0
            } else {
                1.0 - ratio(validated, expected)
            },
            delay: if delays.is_empty() {
                0.0
            } else {
                delays.iter().sum::<f64>() / delays.len() as f64
            },
            flagged: flagged.into_iter().collect(),
            discrepancies: audit.len() as u64,
            phantom_flagged: st.phantom_flagged,
            epochs_settled: st.epochs_settled,
            ops_per_epoch: ratio(st.payout_ops + st.batch_ops, st.epochs_settled),
            netting_ratio: ratio(st.receipts_netted, st.payout_ops),
        }
    }
}

/// What settlement reports into the [`RunResult`] (all zero or empty for
/// a run without a fault runtime).
#[derive(Default)]
struct SettlementSummary {
    shortfall: f64,
    delay: f64,
    flagged: Vec<usize>,
    discrepancies: u64,
    phantom_flagged: u64,
    epochs_settled: u64,
    ops_per_epoch: f64,
    netting_ratio: f64,
}

/// The forwarder an initiator blames for a fault on edge `i` (which carries
/// the payload from path position `i` to `i + 1`): the receiving forwarder
/// when there is one, else the sending forwarder. A direct
/// initiator-to-responder edge has no forwarder to blame.
fn edge_suspect(forwarders: &[NodeId], i: usize) -> Option<NodeId> {
    if i < forwarders.len() {
        Some(forwarders[i])
    } else if i >= 1 {
        Some(forwarders[i - 1])
    } else {
        None
    }
}

/// What ended a transmission attempt before confirmation reached `I`.
enum AttemptFailure {
    /// A forwarder crashed mid-transmission.
    Crash,
    /// The payload was dropped on an edge.
    Drop,
    /// Accumulated edge delays exceeded the initiator's retry timeout.
    Timeout,
    /// A cheater swallowed the confirmation at this 1-based path position.
    ConfirmationDropped(usize),
}

/// The simulation process: owns all mutable run state.
pub struct SimulationRun {
    pub(crate) cfg: ScenarioConfig,
    pub(crate) world: World,
    /// Lazily-synced probe cells of the touched nodes.
    pub(crate) probes: LazyProbeSet,
    /// Every node's connection history, read and written through `&mut`
    /// by the sequential event loop.
    pub(crate) histories: HistoryArena,
    pub(crate) bundles: Vec<BundleAccounting>,
    pub(crate) trackers: Vec<ReformationTracker>,
    pub(crate) attacks: Vec<IntersectionAttack>,
    pub(crate) initiator_costs: Vec<f64>,
    quality: EdgeQuality,
    pub(crate) routing_rng: Xoshiro256StarStar,
    /// Source of position-keyed draws: probe first sightings and
    /// replacement candidates, arrival gaps and payment keys.
    streams: StreamFactory,
    pub(crate) connections: u64,
    /// Routing buffers and memo caches, reused across all transmissions.
    scratch: RouteScratch,
    /// Crash overlay: node `v` is unroutable until `crashed_until[v]`.
    /// Empty when fault injection is off (the zero-overhead fast path).
    pub(crate) crashed_until: Vec<f64>,
    /// Fault-injection, evidence and settlement state; `None` (no fault
    /// rate, adversary or durable bank configured) skips the fault walks,
    /// evidence and settlement.
    pub(crate) fault: Option<FaultRuntime>,
    /// Idle-eviction sweeper (`Some` only when `evict_idle_ticks` is set).
    pub(crate) slab: Option<NodeSlab>,
    /// Steady-state windowed metrics (`Some` only under `--window-len`).
    pub(crate) windows: Option<WindowCollector>,
}

impl SimulationRun {
    /// Builds the run state over a sampled world.
    #[must_use]
    pub fn new(cfg: ScenarioConfig, world: World) -> Self {
        let streams = StreamFactory::new(cfg.seed);
        // No cell exists until its node is touched, and no node's schedule
        // or neighbor set is derived until the run first reads it.
        let probes = LazyProbeSet::new_sparse(
            cfg.probe_period,
            cfg.churn.horizon,
            world.nodes.clone(),
            cfg.neighbor_replacement_rounds,
            streams.clone(),
        );
        let histories = HistoryArena::with_capacity(cfg.history_capacity);
        let n_pairs = world.pairs.len();
        // An adversary plan or a durable bank forces the runtime on even
        // with every fault rate zero — a zero-rate FaultPlan consumes no
        // streams and injects nothing.
        let (crashed_until, fault) = if cfg.settles() {
            let plan = FaultPlan::new(cfg.fault, streams.clone(), cfg.n_nodes, cfg.churn.horizon);
            let adversary = cfg.adversary.is_active().then(|| {
                AdversaryPlan::new(
                    cfg.adversary,
                    streams.clone(),
                    cfg.n_nodes,
                    cfg.churn.horizon,
                )
            });
            let mut delivery = DeliveryTracker::new();
            // The closed workload's schedule is fixed up front; the open
            // workload records each arrival as it fires.
            if cfg.workload == WorkloadMode::Closed {
                delivery.record_scheduled(cfg.total_transmissions as u64);
            }
            let keys: Vec<[u8; 32]> = (0..n_pairs)
                .map(|p| {
                    let mut key = [0u8; 32];
                    streams
                        .stream_indexed2("payment/bundle-key", p as u64, 0)
                        .fill_bytes(&mut key);
                    key
                })
                .collect();
            let validators = keys
                .iter()
                .enumerate()
                .map(|(p, key)| PathValidator::new(key, p as u64))
                .collect();
            (
                vec![0.0; cfg.n_nodes],
                Some(FaultRuntime {
                    plan,
                    delivery,
                    validators,
                    keys,
                    last_completion: vec![-1.0; n_pairs],
                    reputation: ReputationStore::new(cfg.n_nodes),
                    probe_invalid: ProbeInvalidation::new(cfg.n_nodes),
                    settlement: SettlementState::new(n_pairs),
                    adversary,
                    adv: AdversaryCounters::default(),
                    bank: (cfg.bank_durability == BankDurability::Wal)
                        .then(|| BankDurabilityState::new(cfg.settlement == SettlementMode::Epoch)),
                }),
            )
        } else {
            (Vec::new(), None)
        };
        SimulationRun {
            quality: EdgeQuality::new(Weights::with_reputation(
                cfg.weights.0,
                cfg.weights.1,
                cfg.reputation_weight,
            )),
            probes,
            histories,
            bundles: vec![BundleAccounting::new(); n_pairs],
            trackers: vec![ReformationTracker::new(); n_pairs],
            attacks: vec![IntersectionAttack::new(); n_pairs],
            initiator_costs: vec![0.0; n_pairs],
            routing_rng: streams.stream("routing"),
            streams,
            connections: 0,
            scratch: RouteScratch::new(),
            crashed_until,
            fault,
            slab: cfg
                .evict_idle_ticks
                .map(|ticks| NodeSlab::new(ticks, cfg.probe_period)),
            windows: (cfg.window_len > 0.0)
                .then(|| WindowCollector::new(cfg.window_len, cfg.window_warmup)),
            cfg,
            world,
        }
    }

    /// The next exponential arrival gap for `pair` (minutes), drawn from
    /// the pair's position-keyed stream: draw `k` is a pure function of
    /// `(master seed, pair, k)`, so the arrival process is deterministic
    /// and resumes mid-sequence from the per-pair arrival count alone.
    fn arrival_gap(streams: &StreamFactory, pair: usize, k: u64, rate: f64) -> f64 {
        let mut rng = streams.stream_indexed2("workload/arrival", pair as u64, k);
        let u: f64 = rng.random_range(0.0..1.0);
        -(1.0 - u).ln() / rate
    }

    /// Convenience: generate the world, run to the horizon, aggregate.
    #[must_use]
    pub fn execute(cfg: ScenarioConfig) -> RunResult {
        let horizon = SimTime::new(cfg.churn.horizon);
        let world = World::generate(&cfg);
        let mut run = SimulationRun::new(cfg, world);
        let mut engine = Engine::new();
        run.schedule_all(&mut engine);
        engine.run(&mut run, Some(horizon));
        run.finish()
    }

    /// Schedules the workload's transmissions (or first arrivals), epoch
    /// boundaries and whitewash rejoins. No probe event is scheduled: a
    /// read catches the node's cell up through every probe round and
    /// neighbor replacement since its last read.
    pub fn schedule_all(&self, engine: &mut Engine<Ev>) {
        match self.cfg.workload {
            WorkloadMode::Closed => {
                for (pair, wl) in self.world.pairs.iter().enumerate() {
                    for (conn, &time) in wl.times.iter().enumerate() {
                        engine.schedule_at(
                            SimTime::new(time),
                            Ev::Transmit {
                                pair,
                                conn: conn as u32,
                            },
                        );
                    }
                }
            }
            WorkloadMode::Open => {
                // Seed each pair's Poisson process: first arrival at
                // `warmup + gap_0`. Subsequent arrivals are chained by the
                // Arrival handler, drawing gap `k` at arrival `k - 1`.
                for pair in 0..self.world.pairs.len() {
                    let gap = Self::arrival_gap(&self.streams, pair, 0, self.cfg.open_arrival_rate);
                    let t = self.cfg.warmup + gap;
                    if t < self.cfg.churn.horizon {
                        engine.schedule_at(SimTime::new(t), Ev::Arrival { pair });
                    }
                }
            }
        }
        // Epoch boundaries land at exact multiples of the epoch length,
        // like probe ticks; the window after the last in-horizon boundary
        // closes at `finish`. Nothing is scheduled in per-bundle mode, so
        // the default event stream is untouched.
        if self.fault.is_some() && self.cfg.settlement == SettlementMode::Epoch {
            let mut k = 1u64;
            loop {
                let t = k as f64 * self.cfg.epoch_length;
                if t >= self.cfg.churn.horizon {
                    break;
                }
                engine.schedule_at(SimTime::new(t), Ev::EpochSettle);
                k += 1;
            }
        }
        // Whitewash rejoins fire at the plan's precomputed schedule (node
        // order, so same-instant rejoins tie-break deterministically).
        // Nothing is scheduled when the strategy is off.
        if let Some(plan) = self.fault.as_ref().and_then(|fr| fr.adversary.as_ref()) {
            for (node, t) in plan.whitewash_events() {
                if t < self.cfg.churn.horizon {
                    engine.schedule_at(SimTime::new(t), Ev::Whitewash(node));
                }
            }
        }
    }

    /// An open-workload arrival: record the request as connection
    /// `times.len()` of the pair (its send time is the arrival time, which
    /// is what delivery latency is measured against), chain the next
    /// arrival while the pair is under its connection cap, and start the
    /// transmission immediately.
    fn handle_arrival(&mut self, engine: &mut Engine<Ev>, now: SimTime, pair: usize) {
        let conn = self.world.pairs[pair].times.len() as u32;
        self.world.pairs[pair].times.push(now.minutes());
        if let Some(fr) = self.fault.as_mut() {
            fr.delivery.record_scheduled(1);
        }
        let count = self.world.pairs[pair].times.len();
        if count < self.cfg.max_connections as usize {
            let gap = Self::arrival_gap(
                &self.streams,
                pair,
                count as u64,
                self.cfg.open_arrival_rate,
            );
            let t = now.minutes() + gap;
            if t < self.cfg.churn.horizon {
                engine.schedule_at(SimTime::new(t), Ev::Arrival { pair });
            }
        }
        self.handle_transmit(engine, now, pair, conn, 0);
    }

    fn handle_transmit(
        &mut self,
        engine: &mut Engine<Ev>,
        now: SimTime,
        pair: usize,
        conn: u32,
        attempt: u32,
    ) {
        if attempt == 0 {
            if let Some(w) = self.windows.as_mut() {
                w.record_scheduled(now.minutes());
            }
        }
        if let Some(slab) = &mut self.slab {
            slab.maybe_sweep(&self.probes, now.minutes());
        }
        // take/put-back keeps the fault state out of `self` while the
        // transmission mutably borrows the rest of the run.
        let mut fault = self.fault.take();
        self.transmit(engine, now, pair, conn, attempt, fault.as_mut());
        self.fault = fault;
    }

    /// Intersection attack: if any malicious node sat on the path, the
    /// adversary observes the set of currently-live nodes.
    fn observe_attack(&mut self, pair: usize, forwarders: &[NodeId], now: SimTime) {
        let kinds = &self.world.kinds;
        if forwarders.iter().any(|f| !kinds[f.index()].is_good()) {
            // The attacker intersects the active sets it can see. Its own
            // colluders are never initiator candidates (it knows them), so
            // the pool is the good nodes. Only a pair's first observation
            // scans the whole world; nodes the run never read are derived
            // without being cached.
            let probes = &self.probes;
            self.attacks[pair].observe(
                (0..self.cfg.n_nodes)
                    .map(NodeId)
                    .filter(|n| kinds[n.index()].is_good()),
                |n| probes.is_up_uncached(n, now.minutes()),
            );
        }
    }

    /// One transmission attempt: form the path, then — with a fault
    /// runtime — walk the faults forward (crash / drop / delay) and the
    /// confirmation backward (cheaters), then either complete the
    /// connection or schedule a retry with exponential backoff. Without a
    /// fault runtime every attempt completes.
    fn transmit(
        &mut self,
        engine: &mut Engine<Ev>,
        now: SimTime,
        pair: usize,
        conn: u32,
        attempt: u32,
        fr: Option<&mut FaultRuntime>,
    ) {
        let adaptive_fr = fr.as_deref().filter(|fr| fr.adaptive());
        let adaptive = adaptive_fr.is_some();
        let wl = &self.world.pairs[pair];
        let contract = Contract::from_tau(BundleId(pair as u64), wl.responder, wl.pf, self.cfg.tau);
        let priors = self.bundles[pair].connections();
        let view = RunView {
            probes: &self.probes,
            costs: &self.world.costs,
            crashed: &self.crashed_until,
            reputation: adaptive_fr.map(|fr| fr.reputation.get(wl.initiator.index())),
            invalid: adaptive_fr.map(|fr| &fr.probe_invalid),
            age_discount: fr
                .as_deref()
                .and_then(|fr| fr.adversary.as_ref())
                .filter(|p| p.config().whitewash_age_discount),
            now,
        };
        let pending = form_connection_pending(
            &mut self.scratch,
            wl.initiator,
            &contract,
            priors,
            &view,
            &self.histories,
            &self.world.kinds,
            &self.quality,
            self.cfg.good_strategy,
            self.cfg.adversary_strategy,
            &self.cfg.policy,
            &mut self.routing_rng,
        );
        let Some(fr) = fr else {
            self.complete_connection(now, pair, conn, attempt, pending, None, None);
            return;
        };
        let timeout = fr.plan.config().retry_timeout;
        let forwarders = &pending.outcome().forwarders;
        let n_edges = forwarders.len() + 1;
        let faults =
            fr.plan
                .sample_transmission(pair as u64, u64::from(conn), u64::from(attempt), n_edges);

        // Forward walk: edge i carries the payload from position i to i+1.
        let mut failure: Option<AttemptFailure> = None;
        let mut suspect: Option<NodeId> = None;
        let mut cum_delay = 0.0f64;
        for (i, ef) in faults.edges.iter().enumerate() {
            // The sender of edge i >= 1 is forwarder f_i; the initiator
            // (edge 0's sender) never crashes out of its own transmission.
            if ef.crash && i >= 1 {
                let v = forwarders[i - 1];
                let end = self
                    .probes
                    .with_schedule(v, now.minutes(), |s| s.session_end_at(now))
                    .unwrap_or_else(|| now.minutes());
                let slot = &mut self.crashed_until[v.index()];
                *slot = slot.max(end);
                failure = Some(AttemptFailure::Crash);
                suspect = Some(v);
                break;
            }
            if ef.dropped {
                failure = Some(AttemptFailure::Drop);
                suspect = edge_suspect(forwarders, i);
                break;
            }
            cum_delay += ef.delay;
            if cum_delay > timeout {
                failure = Some(AttemptFailure::Timeout);
                suspect = edge_suspect(forwarders, i);
                break;
            }
            // Free riders ghost their forwarding duty: the payload reaches
            // the receiving forwarder of edge i and dies there — after the
            // edge's own faults had their chance, before the next edge.
            // To the initiator this is indistinguishable from a drop.
            if i < forwarders.len()
                && fr
                    .adversary
                    .as_ref()
                    .is_some_and(|p| p.is_free_rider(forwarders[i].index()))
            {
                fr.adv.free_rider_refusals += 1;
                failure = Some(AttemptFailure::Drop);
                suspect = Some(forwarders[i]);
                break;
            }
        }

        // Reverse walk: the confirmation passes f_n, …, f_1. A cheater
        // either swallows it (nothing upstream learns of the connection)
        // or corrupts every receipt strictly downstream of itself.
        let mut corrupt_from: Option<usize> = None;
        if failure.is_none() {
            for p in (1..=forwarders.len()).rev() {
                if !fr.plan.is_cheater(forwarders[p - 1].index()) {
                    continue;
                }
                match fr.plan.cheat_action(
                    pair as u64,
                    u64::from(conn),
                    u64::from(attempt),
                    p as u64,
                ) {
                    CheatAction::DropConfirmation => {
                        failure = Some(AttemptFailure::ConfirmationDropped(p));
                        suspect = Some(forwarders[p - 1]);
                        break;
                    }
                    CheatAction::CorruptReceipts => corrupt_from = Some(p),
                }
            }
        }

        match failure {
            None => {
                self.complete_connection(now, pair, conn, attempt, pending, corrupt_from, Some(fr));
            }
            Some(kind) => {
                // §2.2: no confirmation, no history — except the suffix a
                // swallowed confirmation actually traversed.
                if let AttemptFailure::ConfirmationDropped(p) = kind {
                    pending.commit_suffix(p, contract.bundle, conn, &mut self.histories);
                }
                // Adaptive response: charge the failure to the suspect's
                // ledger and invalidate its probe-derived availability —
                // immediately, not at session-end recovery. A crash masks
                // until one probe period past the truncated session's end
                // (the next round that could re-vouch for it); a drop or
                // timeout masks for one probe period from now.
                if adaptive {
                    if let Some(v) = suspect {
                        let initiator = self.world.pairs[pair].initiator;
                        let rep = fr.reputation.get_mut(initiator.index());
                        let horizon = match kind {
                            AttemptFailure::Crash => {
                                rep.record_drop(v);
                                self.crashed_until[v.index()] + self.cfg.probe_period
                            }
                            AttemptFailure::Drop => {
                                rep.record_drop(v);
                                now.minutes() + self.cfg.probe_period
                            }
                            AttemptFailure::Timeout | AttemptFailure::ConfirmationDropped(_) => {
                                rep.record_timeout(v);
                                now.minutes() + self.cfg.probe_period
                            }
                        };
                        fr.probe_invalid.invalidate(v.index(), horizon);
                    }
                }
                if attempt < fr.plan.config().max_retries {
                    fr.delivery.record_retry();
                    if let Some(w) = self.windows.as_mut() {
                        w.record_retry(now.minutes());
                    }
                    // Static: exponential backoff on the same schedule every
                    // retry. Adaptive: once the suspect is suppressed the
                    // next formation excludes it, so escalate straight to
                    // reformation with a flat backoff instead of waiting
                    // out the exponential schedule.
                    let reform_now = adaptive
                        && suspect.is_some_and(|v| {
                            let initiator = self.world.pairs[pair].initiator;
                            fr.reputation.get(initiator.index()).is_suppressed(v)
                        });
                    let backoff = if reform_now {
                        timeout
                    } else {
                        timeout * f64::from(2u32.pow(attempt))
                    };
                    engine.schedule_in(
                        backoff,
                        Ev::Retry {
                            pair,
                            conn,
                            attempt: attempt + 1,
                        },
                    );
                } else {
                    fr.delivery.record_abandoned();
                }
            }
        }
    }

    /// The confirmation reached `I`: commit history and do the shared
    /// accounting. With a fault runtime, also track delivery and deposit
    /// the §5 evidence (manifest + receipts, corrupted downstream of
    /// `corrupt_from` when a cheater acted).
    #[allow(clippy::too_many_arguments)]
    fn complete_connection(
        &mut self,
        now: SimTime,
        pair: usize,
        conn: u32,
        attempt: u32,
        pending: PendingConnection,
        corrupt_from: Option<usize>,
        fr: Option<&mut FaultRuntime>,
    ) {
        let wl = &self.world.pairs[pair];
        let responder = wl.responder;
        let bundle = BundleId(pair as u64);
        pending.commit(bundle, conn, &mut self.histories);
        let outcome = pending.into_outcome();
        self.connections += 1;
        self.initiator_costs[pair] += outcome.initiator_cost;
        self.trackers[pair].record(&outcome.edges(wl.initiator, responder));
        if let Some(w) = self.windows.as_mut() {
            w.record_delivered(now.minutes());
            w.record_payoff(now.minutes(), outcome.forwarders.len() as f64 * wl.pf);
        }
        self.observe_attack(pair, &outcome.forwarders, now);
        self.bundles[pair].record_connection(&outcome.forwarders, &outcome.hop_costs);
        let Some(fr) = fr else {
            return;
        };

        let scheduled = self.world.pairs[pair].times[conn as usize];
        fr.delivery
            .record_delivered(now.minutes() - scheduled, attempt > 0);
        fr.last_completion[pair] = now.minutes();

        // §5 evidence: the responder's MAC'd path manifest plus per-hop
        // receipts; a corrupting cheater destroys every receipt strictly
        // downstream of itself but keeps its own intact.
        let account = |n: NodeId| AccountId(n.index() as u64);
        let mut hops: Vec<AccountId> = outcome.forwarders.iter().map(|&f| account(f)).collect();
        // Clique forgery: a colluding responder holds the bundle key, so
        // it can pad its own manifest with clique mates that never
        // forwarded and issue them genuine receipts. The initiator's
        // private record of who it actually handed the payload to
        // (`observed_hops`) is the one thing the responder cannot forge —
        // attached only when the cross-confirmation defense is on, so the
        // defenseless evidence stream is byte-identical to the attack-free
        // one apart from the padding itself.
        let mut observed_hops = None;
        if let Some(plan) = fr.adversary.as_ref() {
            if let Some(c) = plan
                .clique_of(responder.index())
                .filter(|_| plan.forges_confirmation(pair as u64, u64::from(conn)))
            {
                if plan.config().clique_cross_check {
                    observed_hops = Some(hops.clone());
                }
                for &mate in plan.clique_members(c) {
                    let a = AccountId(mate as u64);
                    if mate != responder.index() && !hops.contains(&a) {
                        hops.push(a);
                        fr.adv.phantom_injected += 1;
                    }
                }
            }
        }
        let key = fr.validators[pair].bundle_key();
        let receipts = hops
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let mut r = Receipt::issue(key, pair as u64, conn, (i + 1) as u32, a);
                if corrupt_from.is_some_and(|cf| i + 1 > cf) {
                    r.mac[0] ^= 0x55;
                }
                r
            })
            .collect();
        let manifest = PathManifest::issue(key, pair as u64, conn, hops);
        fr.validators[pair].add_connection(ConnectionEvidence {
            manifest,
            receipts,
            observed_hops,
        });

        // Per-bundle settlement closes the pair's window now: this one
        // connection is validated and, with the durable bank, settled as
        // its own WAL flush. Epoch settlement closes every window at the
        // next boundary instead.
        if self.cfg.settlement == SettlementMode::PerBundle {
            fr.close_windows(pair..pair + 1, false);
        }

        // In-run cheater feedback (adaptive only): when receipts came back
        // corrupted, replay just this connection's evidence now instead of
        // waiting for settlement. The §5 intact-prefix rule pins the
        // corruption on one forwarder; flagging it in the initiator's
        // ledger suppresses it from this run's subsequent path formations.
        if fr.adaptive() && corrupt_from.is_some() {
            let initiator = self.world.pairs[pair].initiator;
            let idx = fr.validators[pair].connections() - 1;
            if let Some(cheater) = fr.validators[pair].flag_connection(idx) {
                fr.reputation
                    .get_mut(initiator.index())
                    .flag_cheater(NodeId(cheater.0 as usize));
            }
        }
    }

    /// Settles all bundles into the aggregate result.
    #[must_use]
    pub fn finish(mut self) -> RunResult {
        // Close the tail windows (evidence accrued after the last
        // in-horizon epoch boundary) before aggregating. Per-bundle windows
        // all closed at their connections, so this is a no-op for them.
        let epoch = self.cfg.settlement == SettlementMode::Epoch;
        if let Some(fr) = self.fault.as_mut() {
            fr.close_windows(0..fr.validators.len(), epoch);
        }
        let n = self.cfg.n_nodes;
        let residency = self.probes.residency();
        let slab_bytes = residency.peak_bytes
            + self
                .fault
                .as_ref()
                .map_or(0, |fr| fr.reputation.approx_bytes());
        let cp = self.world.costs.participation_cost();
        let mut payoff = vec![0.0f64; n];
        let mut set_sizes = Vec::with_capacity(self.bundles.len());
        let mut lengths = Vec::with_capacity(self.bundles.len());
        let mut qualities = Vec::with_capacity(self.bundles.len());

        let mut good_payoffs: Vec<f64> = Vec::new();
        let mut malicious_payoffs: Vec<f64> = Vec::new();
        for (pair, bundle) in self.bundles.iter().enumerate() {
            if bundle.connections() == 0 {
                continue;
            }
            let wl = &self.world.pairs[pair];
            let pr = self.cfg.tau * wl.pf;
            for (node, p) in bundle.payoffs(wl.pf, pr, cp) {
                payoff[node.index()] += p;
                if self.world.kinds[node.index()].is_good() {
                    good_payoffs.push(p);
                } else {
                    malicious_payoffs.push(p);
                }
            }
            set_sizes.push(bundle.forwarder_set_size() as f64);
            lengths.push(bundle.average_path_length());
            qualities.push(metrics::path_quality(
                bundle.average_path_length(),
                bundle.forwarder_set_size(),
            ));
        }

        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let avg_good_payoff = mean(&good_payoffs);
        let avg_forwarder_set = mean(&set_sizes);

        let exposure = self
            .attacks
            .iter()
            .filter(|a| a.observations() > 0)
            .filter(|a| a.exposed())
            .count();
        let observed_attacks = self.attacks.iter().filter(|a| a.observations() > 0).count();
        // Anonymity is measured over the attacker's candidate pool: the
        // good (non-colluding) nodes.
        let n_good = self
            .world
            .kinds
            .iter()
            .filter(|k| k.is_good())
            .count()
            .max(1);
        let degrees: Vec<f64> = self
            .attacks
            .iter()
            .map(|a| {
                let c = if a.observations() == 0 {
                    n_good
                } else {
                    a.candidate_count()
                };
                metrics::candidate_set_degree(c.min(n_good), n_good)
            })
            .collect();

        // Durable-bank end-of-run summary (needs `&mut`, so it runs before
        // the shared borrows below): final full invariant sweep, replica
        // agreement check, audit-chain verification, WAL accounting.
        let bank_outcome = self
            .fault
            .as_mut()
            .and_then(|fr| fr.bank.as_mut())
            .map(BankDurabilityState::finalize);
        if let Some(out) = &bank_outcome {
            assert!(
                out.audit_ok,
                "durable bank audit hash chain failed verification"
            );
        }

        let (delivery_ratio, retries_per_message, reformation_latency, injected_cheaters) =
            match &self.fault {
                None => (1.0, 0.0, 0.0, Vec::new()),
                Some(fr) => (
                    fr.delivery.delivery_ratio(),
                    fr.delivery.retries_per_message(),
                    fr.delivery.reformation_latency(),
                    fr.plan.cheaters(),
                ),
            };
        let settled = self
            .fault
            .as_ref()
            .map_or_else(SettlementSummary::default, |fr| {
                fr.settlement_summary(epoch.then_some(self.cfg.epoch_length))
            });

        // Per-class adversary metrics. All defaults (empty / zero) when no
        // strategy is active — the existing result fingerprints exclude
        // these fields, so zero-rate runs keep their pins.
        let adv = self
            .fault
            .as_ref()
            .map_or(AdversaryCounters::default(), |fr| fr.adv);
        let free_riders: Vec<usize> = self
            .fault
            .as_ref()
            .and_then(|fr| fr.adversary.as_ref())
            .map(|p| p.free_riders())
            .unwrap_or_default();
        let (free_rider_payoff, compliant_payoff) = if free_riders.is_empty() {
            (0.0, 0.0)
        } else {
            let mut is_fr = vec![false; n];
            for &i in &free_riders {
                is_fr[i] = true;
            }
            let rider: Vec<f64> = free_riders.iter().map(|&i| payoff[i]).collect();
            let compliant: Vec<f64> = (0..n)
                .filter(|&i| self.world.kinds[i].is_good() && !is_fr[i])
                .map(|i| payoff[i])
                .collect();
            (mean(&rider), mean(&compliant))
        };
        let reputation_evasion_rate = if adv.whitewash_events == 0 {
            0.0
        } else {
            adv.whitewash_evasions as f64 / adv.whitewash_events as f64
        };
        let clique_payout_leakage = if adv.phantom_injected == 0 {
            0.0
        } else {
            adv.phantom_injected.saturating_sub(settled.phantom_flagged) as f64
                / adv.phantom_injected as f64
        };

        let (windowed_delivery_ratio, windowed_payoff_rate, windowed_retry_rate) =
            match &self.windows {
                None => (Vec::new(), Vec::new(), Vec::new()),
                Some(w) => (w.delivery_ratios(), w.payoff_rates(), w.retry_rates()),
            };

        RunResult {
            avg_good_payoff,
            avg_forwarder_set,
            avg_path_length: mean(&lengths),
            avg_path_quality: mean(&qualities),
            routing_efficiency: metrics::routing_efficiency(avg_good_payoff, avg_forwarder_set),
            new_edge_fraction: mean(
                &self
                    .trackers
                    .iter()
                    .filter(|t| t.distinct_edges() > 0)
                    .map(ReformationTracker::new_edge_fraction)
                    .collect::<Vec<_>>(),
            ),
            reformation_rate: mean(
                &self
                    .trackers
                    .iter()
                    .filter(|t| t.distinct_edges() > 0)
                    .map(ReformationTracker::reformation_rate)
                    .collect::<Vec<_>>(),
            ),
            connections: self.connections,
            attack_exposure_rate: if observed_attacks == 0 {
                0.0
            } else {
                exposure as f64 / observed_attacks as f64
            },
            avg_anonymity_degree: mean(&degrees),
            good_payoffs,
            malicious_payoffs,
            node_totals: payoff,
            delivery_ratio,
            retries_per_message,
            reformation_latency,
            payment_shortfall: settled.shortfall,
            settlement_delay: settled.delay,
            flagged_cheaters: settled.flagged,
            injected_cheaters,
            audit_discrepancies: settled.discrepancies,
            peak_materialized_nodes: residency.peak,
            node_evictions: residency.evictions,
            slab_bytes,
            epochs_settled: settled.epochs_settled,
            settlement_ops_per_epoch: settled.ops_per_epoch,
            epoch_netting_ratio: settled.netting_ratio,
            windowed_delivery_ratio,
            windowed_payoff_rate,
            windowed_retry_rate,
            free_riders,
            free_rider_refusals: adv.free_rider_refusals,
            free_rider_payoff,
            compliant_payoff,
            whitewash_events: adv.whitewash_events,
            reputation_evasion_rate,
            clique_phantom_instances: adv.phantom_injected,
            clique_phantom_flagged: settled.phantom_flagged,
            clique_payout_leakage,
            bank_wal_records: bank_outcome.map_or(0, |o| o.wal_records),
            bank_wal_bytes: bank_outcome.map_or(0, |o| o.wal_bytes),
            bank_crashes: bank_outcome.map_or(0, |o| o.counters.crashes),
            bank_torn_tails: bank_outcome.map_or(0, |o| o.counters.torn_tails),
            bank_records_replayed: bank_outcome.map_or(0, |o| o.counters.records_replayed),
            bank_monitor_checks: bank_outcome.map_or(0, |o| o.counters.monitor_checks),
            bank_monitor_violations: bank_outcome.map_or(0, |o| o.counters.monitor_violations),
            bank_ledger_digest: bank_outcome.map_or(0, |o| o.ledger_digest),
            audit_chain_verified: bank_outcome.is_none_or(|o| o.audit_ok),
            interrupted: false,
        }
    }

    /// A whitewash rejoin: archives every active ledger entry against the
    /// node (the fresh identity reads clean; the evidence survives in the
    /// retired archives) and clears its probe-distrust mask — the distrust
    /// was earned by the shed identity. Counted as an evasion when at
    /// least one ledger was actively suppressing the node.
    fn handle_whitewash(&mut self, node: usize) {
        let Some(fr) = self.fault.as_mut() else {
            return;
        };
        if fr.adversary.is_none() {
            return;
        }
        let (archived, evaded) = fr.reputation.whitewash_node(NodeId(node));
        fr.adv.whitewash_events += 1;
        fr.adv.whitewash_archived += archived as u64;
        if evaded > 0 {
            fr.adv.whitewash_evasions += 1;
        }
        fr.probe_invalid.forgive(node);
    }
}

impl Process for SimulationRun {
    type Event = Ev;

    fn handle(&mut self, engine: &mut Engine<Ev>, event: Ev) -> idpa_desim::engine::Control {
        let now = engine.now();
        match event {
            // Never scheduled; kept so event matches elsewhere still
            // compile.
            Ev::Probe | Ev::Maintain(_) => {}
            Ev::Transmit { pair, conn } => self.handle_transmit(engine, now, pair, conn, 0),
            Ev::Retry {
                pair,
                conn,
                attempt,
            } => self.handle_transmit(engine, now, pair, conn, attempt),
            Ev::EpochSettle => {
                if let Some(fr) = self.fault.as_mut() {
                    fr.close_windows(0..fr.validators.len(), true);
                }
            }
            Ev::Arrival { pair } => self.handle_arrival(engine, now, pair),
            Ev::Whitewash(node) => self.handle_whitewash(node),
        }
        idpa_desim::engine::Control::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idpa_core::routing::RoutingStrategy;
    use idpa_core::utility::UtilityModel;

    fn run_with(f: f64, strategy: RoutingStrategy, seed: u64) -> RunResult {
        let cfg = ScenarioConfig {
            adversary_fraction: f,
            good_strategy: strategy,
            ..ScenarioConfig::quick_test(seed)
        };
        SimulationRun::execute(cfg)
    }

    #[test]
    fn run_is_deterministic() {
        let a = run_with(0.1, RoutingStrategy::Utility(UtilityModel::ModelI), 1);
        let b = run_with(0.1, RoutingStrategy::Utility(UtilityModel::ModelI), 1);
        assert_eq!(a.avg_good_payoff, b.avg_good_payoff);
        assert_eq!(a.good_payoffs, b.good_payoffs);
        assert_eq!(a.connections, b.connections);
    }

    #[test]
    fn all_transmissions_form_connections() {
        let r = run_with(0.0, RoutingStrategy::Utility(UtilityModel::ModelI), 2);
        assert_eq!(r.connections, 200);
    }

    #[test]
    fn payoffs_are_mostly_positive_with_paper_benefits() {
        // P_f in [50,100] dwarfs costs, so participating nodes profit.
        let r = run_with(0.0, RoutingStrategy::Utility(UtilityModel::ModelI), 3);
        assert!(r.avg_good_payoff > 0.0, "avg={}", r.avg_good_payoff);
    }

    #[test]
    fn utility_routing_beats_random_on_forwarder_set() {
        // The Fig. 5 headline, at test scale.
        let seed = 4;
        let util = run_with(0.1, RoutingStrategy::Utility(UtilityModel::ModelI), seed);
        let rand = run_with(0.1, RoutingStrategy::Random, seed);
        assert!(
            util.avg_forwarder_set < rand.avg_forwarder_set,
            "utility {} vs random {}",
            util.avg_forwarder_set,
            rand.avg_forwarder_set
        );
    }

    #[test]
    fn utility_routing_reduces_reformations() {
        // Prop. 1, empirically.
        let seed = 5;
        let util = run_with(0.0, RoutingStrategy::Utility(UtilityModel::ModelI), seed);
        let rand = run_with(0.0, RoutingStrategy::Random, seed);
        assert!(
            util.new_edge_fraction < rand.new_edge_fraction,
            "utility {} vs random {}",
            util.new_edge_fraction,
            rand.new_edge_fraction
        );
    }

    #[test]
    fn more_adversaries_reduce_good_payoff() {
        // Figs. 3–4: payoff decreases as f grows (compare extremes to
        // tolerate noise at test scale).
        let strategy = RoutingStrategy::Utility(UtilityModel::ModelI);
        let low = run_with(0.0, strategy, 6);
        let high = run_with(0.6, strategy, 6);
        assert!(
            high.avg_good_payoff < low.avg_good_payoff,
            "f=0: {}, f=0.6: {}",
            low.avg_good_payoff,
            high.avg_good_payoff
        );
    }

    #[test]
    fn path_lengths_within_policy_bound() {
        let r = run_with(0.2, RoutingStrategy::Random, 7);
        assert!(r.avg_path_length <= 8.0);
        assert!(r.avg_path_length > 0.0);
    }

    #[test]
    fn attack_metrics_present_with_adversaries() {
        let r = run_with(0.5, RoutingStrategy::Random, 8);
        assert!(r.avg_anonymity_degree <= 1.0);
        assert!((0.0..=1.0).contains(&r.attack_exposure_rate));
    }

    #[test]
    fn no_adversaries_no_attack_observations() {
        let r = run_with(0.0, RoutingStrategy::Utility(UtilityModel::ModelI), 9);
        assert_eq!(r.attack_exposure_rate, 0.0);
        assert_eq!(r.avg_anonymity_degree, 1.0);
    }

    #[test]
    fn node_totals_cover_all_nodes() {
        let r = run_with(0.3, RoutingStrategy::Utility(UtilityModel::ModelI), 10);
        assert_eq!(r.node_totals.len(), 20);
        // Per-participation samples exist for both populations at f=0.3.
        assert!(!r.good_payoffs.is_empty());
        assert!(!r.malicious_payoffs.is_empty());
    }

    #[test]
    fn neighbor_replacement_changes_neighbor_sets() {
        let base = ScenarioConfig::quick_test(13);
        let static_run = SimulationRun::execute(base);
        let dynamic = SimulationRun::execute(ScenarioConfig {
            neighbor_replacement_rounds: Some(3),
            ..base
        });
        // Both runs complete all transmissions; the replacement policy is
        // behaviour-changing but must not break accounting invariants.
        assert_eq!(static_run.connections, dynamic.connections);
        assert!(dynamic.avg_forwarder_set > 0.0);
        assert!((0.0..=1.0).contains(&dynamic.new_edge_fraction));
    }

    #[test]
    fn epoch_settlement_preserves_economics() {
        use crate::scenario::SettlementMode;
        let mut cfg = ScenarioConfig::quick_test(21);
        cfg.fault.drop_rate = 0.05;
        cfg.fault.crash_rate = 0.02;
        cfg.fault.cheat_fraction = 0.2;
        cfg.fault.bank_downtime = 0.2;
        cfg.fault.bank_outage_mean = 30.0;
        let per_bundle = SimulationRun::execute(cfg);
        let epoch = SimulationRun::execute(ScenarioConfig {
            settlement: SettlementMode::Epoch,
            epoch_length: 120.0,
            ..cfg
        });
        // Economics are mode-invariant: only the delay model and the
        // bank-facing operation counts may differ.
        assert_eq!(per_bundle.good_payoffs, epoch.good_payoffs);
        assert_eq!(per_bundle.node_totals, epoch.node_totals);
        assert_eq!(per_bundle.delivery_ratio, epoch.delivery_ratio);
        assert_eq!(per_bundle.payment_shortfall, epoch.payment_shortfall);
        assert_eq!(per_bundle.flagged_cheaters, epoch.flagged_cheaters);
        assert_eq!(per_bundle.injected_cheaters, epoch.injected_cheaters);
        assert_eq!(per_bundle.audit_discrepancies, epoch.audit_discrepancies);
        // Per-bundle mode reports no epoch activity at all.
        assert_eq!(per_bundle.epochs_settled, 0);
        assert_eq!(per_bundle.settlement_ops_per_epoch, 0.0);
        // Epoch mode settled real windows and amortized transfers.
        assert!(epoch.epochs_settled > 0, "no epochs settled");
        assert!(epoch.epoch_netting_ratio >= 1.0);
    }

    #[test]
    fn epoch_mode_without_faults_reports_no_settlement() {
        use crate::scenario::SettlementMode;
        let cfg = ScenarioConfig {
            settlement: SettlementMode::Epoch,
            ..ScenarioConfig::quick_test(22)
        };
        // No fault layer means no evidence to settle: the run equals the
        // fault-free baseline with all epoch metrics zero.
        let r = SimulationRun::execute(cfg);
        let baseline = SimulationRun::execute(ScenarioConfig::quick_test(22));
        assert_eq!(r, baseline);
    }

    #[test]
    fn a_run_derives_only_the_nodes_it_reads() {
        // A large world with a small workload: routing and probing read a
        // few hundred nodes, and only those are ever derived.
        let cfg = ScenarioConfig {
            n_pairs: 8,
            total_transmissions: 32,
            ..ScenarioConfig::quick_test(23).with_nodes(20_000)
        };
        let world = World::generate(&cfg);
        let mut run = SimulationRun::new(cfg, world);
        assert_eq!(run.probes.resident_nodes(), 0, "nothing derived up front");
        let mut engine = Engine::new();
        run.schedule_all(&mut engine);
        engine.run(&mut run, Some(SimTime::new(cfg.churn.horizon)));
        let derived = run.probes.resident_nodes();
        assert!(derived > 0 && derived < 2_000, "derived {derived} nodes");
    }

    #[test]
    fn open_workload_arrivals_are_deterministic_and_capped() {
        use crate::scenario::WorkloadMode;
        let cfg = ScenarioConfig {
            workload: WorkloadMode::Open,
            open_arrival_rate: 0.05,
            ..ScenarioConfig::quick_test(31)
        };
        let drive = |cfg: ScenarioConfig| {
            let world = World::generate(&cfg);
            let mut run = SimulationRun::new(cfg, world);
            let mut engine = Engine::new();
            run.schedule_all(&mut engine);
            engine.run(&mut run, Some(SimTime::new(cfg.churn.horizon)));
            run
        };
        let a = drive(cfg);
        let b = drive(cfg);
        let times_a: Vec<Vec<f64>> = a.world.pairs.iter().map(|p| p.times.clone()).collect();
        let times_b: Vec<Vec<f64>> = b.world.pairs.iter().map(|p| p.times.clone()).collect();
        assert_eq!(times_a, times_b, "Poisson arrivals replay from the seed");
        assert!(a.connections > 0, "the arrival process produced traffic");
        for p in &a.world.pairs {
            assert!(p.times.len() <= cfg.max_connections as usize);
            assert!(p.times.windows(2).all(|t| t[0] <= t[1]));
            assert!(p
                .times
                .iter()
                .all(|&t| t >= cfg.warmup && t < cfg.churn.horizon));
        }
        // The two full runs also aggregate identically.
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn open_workload_tracks_delivery_under_faults() {
        use crate::scenario::WorkloadMode;
        let mut cfg = ScenarioConfig {
            workload: WorkloadMode::Open,
            open_arrival_rate: 0.05,
            ..ScenarioConfig::quick_test(33)
        };
        cfg.fault.drop_rate = 0.05;
        cfg.fault.cheat_fraction = 0.2;
        let r = SimulationRun::execute(cfg);
        assert!(r.connections > 0);
        assert!(
            (0.0..=1.0).contains(&r.delivery_ratio),
            "open-mode scheduling counts arrivals, not total_transmissions \
             (got {})",
            r.delivery_ratio
        );
    }

    #[test]
    fn windowed_metrics_ride_along_without_disturbing_aggregates() {
        let base = ScenarioConfig::quick_test(32);
        let windowed = SimulationRun::execute(ScenarioConfig {
            window_len: 240.0,
            window_warmup: 60.0,
            ..base
        });
        let baseline = SimulationRun::execute(base);
        // The collector is pure observation: every aggregate matches the
        // run without it.
        assert_eq!(windowed.good_payoffs, baseline.good_payoffs);
        assert_eq!(windowed.node_totals, baseline.node_totals);
        assert_eq!(windowed.connections, baseline.connections);
        assert!(baseline.windowed_delivery_ratio.is_empty());
        assert!(!windowed.windowed_delivery_ratio.is_empty());
        // Fault-free transmissions complete at their scheduled instant, so
        // every active window balances exactly.
        for (&ratio, &rate) in windowed
            .windowed_delivery_ratio
            .iter()
            .zip(&windowed.windowed_retry_rate)
        {
            assert!(ratio == 1.0 || ratio == 0.0, "ratio {ratio}");
            assert_eq!(rate, 0.0, "no retries without faults");
        }
        assert!(windowed.windowed_payoff_rate.iter().any(|&r| r > 0.0));
    }

    #[test]
    fn participation_payoffs_sum_to_node_totals() {
        let r = run_with(0.2, RoutingStrategy::Utility(UtilityModel::ModelI), 11);
        let samples: f64 =
            r.good_payoffs.iter().sum::<f64>() + r.malicious_payoffs.iter().sum::<f64>();
        let totals: f64 = r.node_totals.iter().sum();
        assert!((samples - totals).abs() < 1e-6);
    }
}
