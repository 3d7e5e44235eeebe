//! # idpa-overlay — the P2P overlay substrate
//!
//! The paper's system model (§2.2–2.3): "a network of N nodes which
//! participate in anonymous forwarding of data packets. Each node s
//! maintains information about a fixed number d of neighbors which can be
//! used as potential forwarders" — the neighbor set `D(s)`. Each peer
//! estimates the availability of its neighbors *locally*, by **active
//! probing**: at the start of each probing period it checks each neighbor's
//! liveness and accumulates observed session time; availability is each
//! neighbor's share of total observed session time.
//!
//! This crate provides:
//! * [`NodeId`] / [`NodeKind`] — peer identities and good/malicious roles,
//! * [`Topology`] — the random fixed-degree neighbor relation `D(s)`,
//! * [`ProbeEstimator`] — the §2.3 availability estimator
//!   (`α_s(v) = t_s(v) / Σ_{u∈D(s)} t_s(u)`),
//! * [`LazyProbeSet`] — the event-driven lazy form of the same estimator:
//!   per-node cells materialized on demand from the analytic churn
//!   schedule, bit-identical to driving [`ProbeEstimator`] eagerly at
//!   every probe tick,
//! * [`ProbeInvalidation`] — the adaptive fault-response overlay that
//!   masks a relay's probe-derived availability after a confirmed
//!   transmission failure through it, without touching probe state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod invalidate;
pub mod node;
pub mod probe;
pub mod probe_lazy;
pub mod topology;

pub use invalidate::ProbeInvalidation;
pub use node::{NodeId, NodeKind};
pub use probe::{ProbeEstimator, ProbeEstimatorState};
pub use probe_lazy::{cell_footprint, LazyProbeSet, ProbeCellState, ProbeCellsSnapshot, Residency};
pub use topology::Topology;
