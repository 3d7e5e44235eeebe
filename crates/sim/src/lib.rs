//! # idpa-sim — the full-system experiment driver
//!
//! Composes every substrate into the paper's §3 evaluation: a discrete-
//! event simulation of N = 40 peers under Poisson joins and Pareto session
//! times, 100 (I, R) pairs exchanging 2000 recurring transmissions under
//! the `(P_f, P_r)` incentive contract, with a fraction `f` of malicious
//! (randomly routing) nodes — measuring good-node payoffs, forwarder-set
//! sizes, payoff CDFs and routing efficiency.
//!
//! * [`scenario`] — configuration mirroring the paper's §3 parameters;
//! * [`cli`] — the one scenario-flag parser both `idpa-sim` subcommands
//!   share;
//! * [`error`] — typed scenario/driver errors ([`SimError`]);
//! * [`world`] — the sampled static world (topology, churn trace, costs,
//!   roles, workload);
//! * [`runner`] — the event-driven run (transmissions reading lazily
//!   synced probe state);
//! * [`experiments`] — the paper's tables/figures and ablations as data;
//! * [`report`] — markdown/CSV table emission;
//! * [`chart`] — terminal line/CDF charts so regenerated figures are
//!   visually comparable to the paper's;
//! * [`window`] — steady-state windowed metrics (delivery/payoff/retry
//!   series with warm-up trimming);
//! * [`snapshot`] — the versioned, checksummed snapshot codec for
//!   crash-safe service runs;
//! * [`service`] — the open-workload service runner: segmented execution
//!   with periodic checkpoints, graceful wall-clock shutdown and
//!   deterministic resume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod chart;
pub mod cli;
pub(crate) mod durability;
pub mod error;
pub mod experiments;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod service;
pub mod slab;
pub mod snapshot;
pub mod window;
pub mod world;

pub use error::SimError;
pub use idpa_desim::{AdversaryConfig, AdversaryPlan, FaultConfig, FaultResponse};
pub use runner::{RunResult, SimulationRun};
pub use scenario::{BankDurability, ScenarioConfig, SettlementMode, WorkloadMode};
pub use service::{run_service, ServiceOptions};
pub use slab::{NodeSlab, ReputationStore};
pub use window::WindowCollector;
pub use world::World;
