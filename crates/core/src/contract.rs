//! The forwarding contract (§2.2).
//!
//! "When an initiator I decides to set up a connection to a responder R
//! ... It makes a commitment to pay an amount P_f to any intermediate
//! forwarder, per forwarding instance (forwarding benefit). In addition it
//! also decides to pay a total shared benefit (routing benefit) equal to
//! P_r to all the forwarders." The contract `(P_f, P_r)` is what propagates
//! hop by hop — the initiator's identity does not.

use idpa_overlay::NodeId;

use crate::bundle::BundleId;

/// The contract an initiator attaches to a connection bundle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contract {
    /// The bundle of recurring connections this contract covers.
    pub bundle: BundleId,
    /// The responder; known to intermediate forwarders (the paper hides
    /// only the initiator).
    pub responder: NodeId,
    /// Forwarding benefit `P_f` per forwarding instance.
    pub pf: f64,
    /// Total routing benefit `P_r`, shared over the forwarder set.
    pub pr: f64,
}

impl Contract {
    /// Creates a contract, validating benefit signs.
    #[must_use]
    pub fn new(bundle: BundleId, responder: NodeId, pf: f64, pr: f64) -> Self {
        assert!(pf >= 0.0 && pf.is_finite(), "invalid P_f: {pf}");
        assert!(pr >= 0.0 && pr.is_finite(), "invalid P_r: {pr}");
        Contract {
            bundle,
            responder,
            pf,
            pr,
        }
    }

    /// The ratio `τ = P_r / P_f` the paper sweeps in Table 2 (∞ if
    /// `P_f = 0`).
    #[must_use]
    pub fn tau(&self) -> f64 {
        self.pr / self.pf
    }

    /// Constructs the contract from `P_f` and `τ` (`P_r = τ·P_f`), the
    /// parameterisation of §3.
    #[must_use]
    pub fn from_tau(bundle: BundleId, responder: NodeId, pf: f64, tau: f64) -> Self {
        assert!(tau >= 0.0 && tau.is_finite(), "invalid tau: {tau}");
        Contract::new(bundle, responder, pf, tau * pf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau_round_trips() {
        let c = Contract::from_tau(BundleId(1), NodeId(3), 50.0, 2.0);
        assert_eq!(c.pr, 100.0);
        assert!((c.tau() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn plain_construction() {
        let c = Contract::new(BundleId(0), NodeId(1), 75.0, 37.5);
        assert!((c.tau() - 0.5).abs() < 1e-12);
        assert_eq!(c.responder, NodeId(1));
    }

    #[test]
    #[should_panic(expected = "invalid P_f")]
    fn negative_pf_rejected() {
        let _ = Contract::new(BundleId(0), NodeId(1), -1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid tau")]
    fn negative_tau_rejected() {
        let _ = Contract::from_tau(BundleId(0), NodeId(1), 50.0, -2.0);
    }
}
