//! # idpa-crypto — from-scratch cryptographic substrate
//!
//! The paper's §5 defers "the payment infrastructure and the various
//! cryptographic operations involved in route formation and verification"
//! to its technical report, which is not publicly available. The
//! reproduction therefore implements the canonical 2007-era design those
//! operations require (the substitution is documented in `DESIGN.md` §5):
//!
//! * **Chaum blind signatures over RSA** — the bank signs withdrawal tokens
//!   without seeing their serial numbers, which is what lets the initiator
//!   pay forwarders without the bank linking payments to connections;
//! * **SHA-256 / HMAC-SHA-256** — token serials, receipt digests, and the
//!   path-validation MACs the initiator checks when it "recreates the path
//!   and validates it" from the confirmations on the reverse path.
//!
//! Everything is built here from first principles on an arbitrary-precision
//! integer ([`bigint::BigUint`]): Miller–Rabin primality, RSA key
//! generation, blinding/unblinding. No external crypto crates.
//!
//! **This code is for simulation and study, not production use**: it makes
//! no attempt at constant-time execution or side-channel hygiene.
//!
//! SHA-256 compression picks its kernel at run time: the x86-64 SHA
//! extensions where the CPU has them, the portable scalar rounds
//! elsewhere, with identical bits. Entering the hardware kernel after the
//! CPU check is the crate's one `unsafe` block (safe code has no other way
//! to reach those instructions); every other item is safe code, and
//! `deny(unsafe_code)` keeps it that way.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod bigint;
pub mod blind;
pub mod hmac;
pub mod montgomery;
pub mod prime;
pub mod rsa;
pub mod sha256;

pub use bigint::BigUint;
pub use blind::BlindingFactor;
pub use montgomery::MontgomeryCtx;
pub use rsa::{RsaKeyPair, RsaPublicKey};
pub use sha256::Sha256;
