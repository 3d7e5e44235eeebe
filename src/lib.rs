//! # idpa — Incentive-Driven P2P Anonymity System
//!
//! A full reproduction of *Ray, Slutzki, Zhang: Incentive-Driven P2P
//! Anonymity System: A Game-Theoretic Approach* (ICPP 2007), built from
//! scratch in Rust: the incentive mechanism itself plus every substrate the
//! paper's evaluation depends on (discrete-event simulation kernel, churn
//! and cost models, P2P overlay with active probing, an anonymity-
//! preserving payment system over from-scratch crypto, and a finite-game
//! framework).
//!
//! This facade crate re-exports the workspace so downstream users depend on
//! one crate:
//!
//! ```
//! use idpa::prelude::*;
//!
//! // Simulate the paper's default scenario at test scale.
//! let cfg = ScenarioConfig::quick_test(42);
//! let result = SimulationRun::execute(cfg);
//! assert!(result.avg_forwarder_set > 0.0);
//! ```
//!
//! Start with [`prelude`], or drill into the per-subsystem modules:
//! [`desim`], [`netmodel`], [`overlay`], [`crypto`], [`payment`], [`game`],
//! [`core`], [`sim`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Discrete-event simulation kernel (calendar, engine, RNG streams, stats).
pub use idpa_desim as desim;

/// Stochastic network substrate (churn, Pareto sessions, cost model).
pub use idpa_netmodel as netmodel;

/// P2P overlay (nodes, topology, active-probing availability estimation).
pub use idpa_overlay as overlay;

/// From-scratch crypto (bignum, RSA blind signatures, SHA-256, HMAC).
pub use idpa_crypto as crypto;

/// Anonymity-preserving payment system (bank, tokens, receipts, escrow).
pub use idpa_payment as payment;

/// Finite-game framework (normal form, extensive form, the stage game).
pub use idpa_game as game;

/// The paper's contribution: incentive-driven anonymity forwarding.
pub use idpa_core as core;

/// Full-system experiment driver (every table and figure of §3).
pub use idpa_sim as sim;

/// The most common imports, one `use` away.
pub mod prelude {
    pub use idpa_core::arena::HistoryArena;
    pub use idpa_core::bundle::{BundleAccounting, BundleId};
    pub use idpa_core::contract::Contract;
    pub use idpa_core::path::{form_connection, PathOutcome};
    pub use idpa_core::quality::{EdgeQuality, Weights};
    pub use idpa_core::reputation::EdgeReputation;
    pub use idpa_core::routing::{PathPolicy, RoutingStrategy, RoutingView};
    pub use idpa_core::utility::UtilityModel;
    pub use idpa_desim::rng::{StreamFactory, Xoshiro256StarStar};
    pub use idpa_desim::stats::{Ecdf, OnlineStats};
    pub use idpa_desim::{
        AdversaryConfig, AdversaryPlan, Engine, FaultConfig, FaultResponse, Process, SimTime,
    };
    pub use idpa_overlay::{NodeId, NodeKind, ProbeEstimator, ProbeInvalidation, Topology};
    pub use idpa_payment::{Bank, Escrow, PathValidator, Receipt, Token, Wallet};
    pub use idpa_sim::{
        BankDurability, RunResult, ScenarioConfig, SettlementMode, SimulationRun, World,
    };
}
