//! Forwarding receipts and the path-validation record.
//!
//! §2.2: "after R receives the payload, it sends back a confirmation
//! through the reverse path. Each intermediate forwarder also includes path
//! information which is then used by I to recreate the path and validate
//! it." We realise the validation with HMACs under a per-bundle key that
//! the initiator shares with the responder at bundle setup: a forwarder's
//! receipt for connection `c` is countersigned (MAC'd) as the confirmation
//! passes through it on the reverse path, so the initiator can verify that
//! a claimed `(forwarder, connection)` participation really lies on the
//! path the responder confirmed, and a forwarder cannot inflate its count
//! of forwarding instances. [`crate::validation::PathValidator`] replays
//! the receipts against the responder's path manifests.

use idpa_crypto::hmac::HmacKey;

use crate::bank::AccountId;

/// A per-forwarding-instance receipt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipt {
    /// The connection bundle this belongs to.
    pub bundle_id: u64,
    /// Index of the connection within the bundle (`π^k`).
    pub connection: u32,
    /// Position of the forwarder on the path (1-based hop index from the
    /// initiator, as in [`crate::validation::PathManifest::hops`]).
    pub hop: u32,
    /// The forwarder's payment account (its payee identity — the paper's
    /// design hides the *initiator*, not the forwarders, from the bank).
    pub forwarder: AccountId,
    /// MAC under the bundle key over all the fields above.
    pub mac: [u8; 32],
}

fn receipt_message(bundle_id: u64, connection: u32, hop: u32, forwarder: AccountId) -> [u8; 24] {
    let mut msg = [0u8; 24];
    msg[..8].copy_from_slice(&bundle_id.to_be_bytes());
    msg[8..12].copy_from_slice(&connection.to_be_bytes());
    msg[12..16].copy_from_slice(&hop.to_be_bytes());
    msg[16..].copy_from_slice(&forwarder.0.to_be_bytes());
    msg
}

impl Receipt {
    /// Issues a receipt MAC'd under `bundle_key` (executed by the
    /// responder-side confirmation as it passes the forwarder).
    #[must_use]
    pub fn issue(
        bundle_key: &HmacKey,
        bundle_id: u64,
        connection: u32,
        hop: u32,
        forwarder: AccountId,
    ) -> Self {
        let mac = bundle_key.mac(&receipt_message(bundle_id, connection, hop, forwarder));
        Receipt {
            bundle_id,
            connection,
            hop,
            forwarder,
            mac,
        }
    }

    /// Verifies the MAC under the bundle key.
    #[must_use]
    pub fn verify(&self, bundle_key: &HmacKey) -> bool {
        bundle_key.verify(
            &receipt_message(self.bundle_id, self.connection, self.hop, self.forwarder),
            &self.mac,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validation::{ConnectionEvidence, PathManifest, PathValidator, ValidationReport};
    use std::sync::LazyLock;

    const KEY_BYTES: &[u8] = b"per-bundle shared key";
    static KEY: LazyLock<HmacKey> = LazyLock::new(|| HmacKey::new(KEY_BYTES));

    #[test]
    fn issue_verify_round_trip() {
        let r = Receipt::issue(&KEY, 7, 3, 1, AccountId(42));
        assert!(r.verify(&KEY));
    }

    #[test]
    fn mac_covers_the_big_endian_field_layout() {
        let r = Receipt::issue(&KEY, 7, 3, 1, AccountId(42));
        let mut msg = Vec::new();
        msg.extend_from_slice(&7u64.to_be_bytes());
        msg.extend_from_slice(&3u32.to_be_bytes());
        msg.extend_from_slice(&1u32.to_be_bytes());
        msg.extend_from_slice(&42u64.to_be_bytes());
        assert_eq!(r.mac, idpa_crypto::hmac::hmac_sha256(KEY_BYTES, &msg));
    }

    #[test]
    fn wrong_key_rejected() {
        let r = Receipt::issue(&KEY, 7, 3, 1, AccountId(42));
        assert!(!r.verify(&HmacKey::new(b"other key")));
    }

    #[test]
    fn tampered_fields_rejected() {
        let r = Receipt::issue(&KEY, 7, 3, 1, AccountId(42));
        let mut t = r.clone();
        t.forwarder = AccountId(43); // redirect payment
        assert!(!t.verify(&KEY));
        let mut t = r.clone();
        t.connection = 4; // claim an extra connection
        assert!(!t.verify(&KEY));
        let mut t = r;
        t.hop = 2;
        assert!(!t.verify(&KEY));
    }

    /// Evidence for connection 0 of bundle 9 over `path`, one genuine
    /// receipt per hop.
    fn evidence(path: &[u64]) -> ConnectionEvidence {
        let hops: Vec<AccountId> = path.iter().map(|&a| AccountId(a)).collect();
        ConnectionEvidence {
            manifest: PathManifest::issue(&KEY, 9, 0, hops.clone()),
            receipts: hops
                .iter()
                .enumerate()
                .map(|(i, &a)| Receipt::issue(&KEY, 9, 0, i as u32 + 1, a))
                .collect(),
            observed_hops: None,
        }
    }

    fn validate(ev: ConnectionEvidence) -> ValidationReport {
        let mut v = PathValidator::new(KEY_BYTES, 9);
        v.add_connection(ev);
        v.settle()
    }

    #[test]
    fn duplicate_slot_claims_are_rejected() {
        let mut ev = evidence(&[1, 2]);
        ev.receipts.push(ev.receipts[0].clone()); // replay hop 1's receipt
        let r = validate(ev);
        assert_eq!(
            r.paid_counts[&AccountId(1)],
            1,
            "replay must not double-count"
        );
        assert_eq!(r.validated_instances, 2);
    }

    #[test]
    fn forged_receipt_rejected_without_blocking_others() {
        let mut ev = evidence(&[1, 2]);
        ev.receipts[1].forwarder = AccountId(3); // divert hop 2's payment
        let r = validate(ev);
        assert_eq!(r.expected_instances, 2);
        assert_eq!(r.validated_instances, 1);
        assert_eq!(
            r.paid_counts.keys().copied().collect::<Vec<_>>(),
            [AccountId(1)]
        );
    }

    #[test]
    fn receipts_from_other_bundle_rejected() {
        let mut ev = evidence(&[1]);
        ev.receipts[0] = Receipt::issue(&KEY, 8, 0, 1, AccountId(1)); // bundle 8
        let r = validate(ev);
        assert!(r.paid_counts.is_empty());
        assert_eq!(r.expected_instances, 1);
    }
}
