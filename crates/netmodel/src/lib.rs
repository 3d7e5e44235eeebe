//! # idpa-netmodel — stochastic network substrate
//!
//! The paper's simulation (§3) drives the overlay with:
//!
//! * a **Poisson process** for node joins,
//! * **Pareto-distributed session times** with a median of 60 minutes
//!   (following Saroiu et al.'s measurement study of P2P file-sharing
//!   systems, the paper's reference \[23\]),
//! * a **transmission cost** between two peers "proportional to the
//!   communication bandwidth between them" (`C^t = b·l` for payload size
//!   `b` and per-unit cost `l`, §2.4.1), and
//! * a constant one-time **participation cost** `C^p` per peer session.
//!
//! This crate provides exactly those pieces: inverse-CDF samplers for the
//! needed distributions ([`dist`]), per-node churn schedules ([`churn`]),
//! and per-link bandwidths and costs, each derived on demand ([`cost`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod churn;
pub mod cost;
pub mod dist;
pub mod trace;

pub use churn::{ChurnConfig, ChurnModel, NodeSchedule};
pub use cost::{CostConfig, CostModel};
pub use dist::{Exponential, Pareto};
pub use trace::to_csv as trace_to_csv;
