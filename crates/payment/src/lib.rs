//! # idpa-payment — the anonymity-preserving payment system
//!
//! §2.2 of the paper: "After evaluating the path quality, the initiator
//! uses a central entity (bank) to make payments to the forwarders. ...
//! The payment is made by I only after all the connections in π are
//! completed." §5 adds that the payment mechanism must not decrease the
//! anonymity the forwarding system provides, and that it must "handle
//! typical scenarios of cheating and malicious attacks".
//!
//! The design implemented here (the paper's own protocol details live in
//! its unavailable technical report; DESIGN.md §5 documents the
//! substitution):
//!
//! * **Bearer tokens with Chaum blind signatures** ([`token`]): the
//!   initiator withdraws tokens whose serial numbers the bank never sees,
//!   so settling them later cannot be linked back to the withdrawal — the
//!   bank learns *that* forwarders were paid, never *which initiator* paid
//!   them.
//! * **A central bank** ([`bank`]): accounts, withdrawal (debit + blind
//!   sign), deposit (verify + double-spend check + credit).
//! * **Receipts** ([`receipt`]): per-forwarding-instance records MAC'd
//!   with a per-bundle key, which is what lets forwarders prove their
//!   participation.
//! * **Reconstructed-path validation** ([`validation`]): the initiator
//!   replays each connection's MAC'd path manifest against the surviving
//!   receipts, pays only validated instances, and flags the most-upstream
//!   forwarder below which every receipt went bad — the §5 "recreate the
//!   path and validate it" step that makes confirmation cheating traceable.
//! * **Escrow settlement** ([`escrow`]): the initiator funds an escrow with
//!   bearer tokens *before* the connection bundle runs (no non-payment
//!   cheating), and after the bundle completes each forwarder is paid
//!   `m·P_f + P_r/‖π‖` from the [`PathValidator`] report (no
//!   over-claiming). A simulated run validates through the same
//!   [`PathValidator`]; its durable bank nets an epoch's payouts into one
//!   [`LedgerOp::EpochNet`] on the [`Ledger`].
//! * **One record per ledger operation** ([`wal`], [`audit`]): every
//!   [`Ledger`] mutation is one [`LedgerOp`], encoded once; the
//!   write-ahead log frames that payload and the SHA-256 audit chain
//!   hashes it, so crash recovery and the [`InvariantMonitor`] read the
//!   same record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod audit;
pub mod bank;
pub mod escrow;
pub mod ledger;
pub mod monitor;
pub mod receipt;
pub mod token;
pub mod validation;
pub mod wal;

pub use audit::AuditLog;
pub use bank::{AccountId, Bank, DepositError, EpochNetError};
pub use escrow::{Escrow, SettlementError, SettlementReport};
pub use ledger::{ApplyError, BankReplica, Ledger, RecoveryReport};
pub use monitor::{InvariantKind, InvariantMonitor, InvariantViolation};
pub use receipt::Receipt;
pub use token::{Token, TokenId, Wallet, WithdrawError};
pub use validation::{ConnectionEvidence, PathManifest, PathValidator, ValidationReport};
pub use wal::{LedgerOp, Wal, WalScan};
