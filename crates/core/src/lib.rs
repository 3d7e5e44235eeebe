//! # idpa-core — the incentive-driven anonymity forwarding mechanism
//!
//! This crate is the paper's primary contribution (§2): an incentive
//! mechanism for Crowds-style P2P anonymity overlays in which every
//! forwarder makes the routing decision, and the incentive is engineered so
//! that selfish utility maximisation *aligns* with the system-level
//! anonymity objective of a small, stable forwarder set.
//!
//! The pieces, mirroring the paper's structure:
//!
//! * [`contract`] — the `(P_f, P_r)` contract an initiator commits to and
//!   propagates along the path (§2.2);
//! * [`history`] — the connection history record `H^k(s)` (Table 1) and
//!   the per-successor index behind the *selectivity* `σ(s,v)` (§2.3);
//! * [`arena`] — every node's history in one owner-keyed store, which
//!   answers `σ(s,v)`;
//! * [`quality`] — edge quality `q(s,v) = w_s·σ(s,v) + w_a·α(v)` and path
//!   quality (§2.3);
//! * [`utility`] — utility models I and II for forwarders (§2.2,
//!   §2.4.2–2.4.3);
//! * [`routing`] — next-hop selection: random (the adversary strategy) and
//!   utility-driven under either model, with Crowds-style probabilistic
//!   termination (§2.2, §2.4);
//! * [`path`] — hop-by-hop path formation over a live overlay snapshot;
//! * [`bundle`] — bookkeeping for a bundle of recurring connections
//!   between one (I, R) pair: forwarder set `‖π‖`, per-forwarder benefit
//!   `m·P_f + P_r/‖π‖`, costs;
//! * [`reputation`] — the per-initiator fault ledger behind the adaptive
//!   third quality term `w_r·ρ` (observed drops, timeouts, and
//!   validator-flagged cheaters; §5 cheating tolerance);
//! * [`adversary`] — the malicious-node models (random routing,
//!   availability attack) and the passive intersection attack (§1, §5);
//! * [`metrics`] — path quality `Q(π) = L/‖π‖`, routing efficiency,
//!   entropy-based anonymity degree, and path-reformation counting
//!   (Prop. 1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod adversary;
pub mod arena;
pub mod bundle;
pub mod contract;
pub mod history;
pub mod metrics;
pub mod path;
pub mod quality;
pub mod reputation;
pub mod routing;
pub mod utility;

pub use arena::HistoryArena;
pub use bundle::{BundleAccounting, BundleId};
pub use contract::Contract;
pub use quality::{EdgeQuality, Weights};
pub use reputation::EdgeReputation;
pub use routing::{PathPolicy, RoutingStrategy};
pub use utility::UtilityModel;
