//! # idpa-desim — deterministic discrete-event simulation kernel
//!
//! The evaluation in *Incentive-Driven P2P Anonymity System* (Ray, Slutzki,
//! Zhang; ICPP 2007) is performed entirely with an event-driven simulator.
//! This crate provides that substrate:
//!
//! * a [`Calendar`] of timestamped events with deterministic FIFO tie-breaking,
//! * an [`Engine`] that drives a user-supplied [`Process`] until a horizon,
//! * reproducible random-number streams ([`rng::SplitMix64`],
//!   [`rng::Xoshiro256StarStar`], [`rng::StreamFactory`]) so that every
//!   experiment in the paper reproduction is replayable from a single seed,
//! * deterministic fault injection ([`fault::FaultPlan`]): crashes, drops,
//!   delays, confirmation cheating and bank outages, all drawn by position
//!   from the master seed so faulty runs replicate bit-identically,
//! * deterministic adversary strategies
//!   ([`adversary_plan::AdversaryPlan`]): free riders, whitewashers and
//!   colluding cliques, derived from position-keyed streams like the
//!   fault plan,
//! * a versioned, checksummed snapshot codec ([`codec`]) with typed decode
//!   errors, the byte-level substrate for `idpa-sim`'s crash-safe
//!   checkpoint/resume,
//! * statistics collectors ([`stats::OnlineStats`], [`stats::Ecdf`],
//!   [`stats::ConfidenceInterval`]) used to produce the paper's
//!   mean-with-95%-CI figures and payoff CDFs.
//!
//! The kernel is intentionally single-threaded: determinism of the event
//! order is a correctness requirement (experiments are compared across
//! routing strategies with common random numbers). Parallelism lives one
//! level up, across independent replications — [`pool::parallel_map`]
//! fans replications out over a deterministic work-queue thread pool whose
//! results are bit-identical at any thread count (see `idpa-sim`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod adversary_plan;
pub mod calendar;
pub mod codec;
pub mod engine;
pub mod fault;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod time;

pub use adversary_plan::{AdversaryConfig, AdversaryPlan};
pub use calendar::{Calendar, EventEntry};
pub use codec::CodecError;
pub use engine::{Engine, Process, StopReason};
pub use fault::{
    CheatAction, EdgeFault, FaultConfig, FaultPlan, FaultResponse, TransmissionFaults,
};
pub use time::SimTime;
