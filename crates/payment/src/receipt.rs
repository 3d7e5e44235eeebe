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
//! of forwarding instances.

use idpa_crypto::hmac::HmacKey;

use crate::bank::AccountId;

/// A per-forwarding-instance receipt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipt {
    /// The connection bundle this belongs to.
    pub bundle_id: u64,
    /// Index of the connection within the bundle (`π^k`).
    pub connection: u32,
    /// Position of the forwarder on the path (hop index from the initiator).
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

/// The initiator's collection of receipts for one bundle, with validation.
#[derive(Debug, Default)]
pub struct ReceiptBook {
    receipts: Vec<Receipt>,
}

impl ReceiptBook {
    /// An empty book.
    #[must_use]
    pub fn new() -> Self {
        ReceiptBook::default()
    }

    /// Adds a receipt collected from the reverse path.
    pub fn add(&mut self, receipt: Receipt) {
        self.receipts.push(receipt);
    }

    /// Number of receipts collected.
    #[must_use]
    pub fn len(&self) -> usize {
        self.receipts.len()
    }

    /// Whether the book is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.receipts.is_empty()
    }

    /// Validates every receipt against the bundle key and `bundle_id`,
    /// deduplicates `(connection, hop)` slots (a forwarder cannot claim the
    /// same slot twice), and returns per-forwarder forwarding-instance
    /// counts `m` — the input to settlement.
    ///
    /// Invalid or duplicate receipts are dropped (and counted in the
    /// second return value) rather than failing the whole bundle: a
    /// malicious forwarder must not be able to block everyone's payment.
    #[must_use]
    pub fn validated_counts(
        &self,
        bundle_key: &HmacKey,
        bundle_id: u64,
    ) -> (std::collections::BTreeMap<AccountId, u64>, usize) {
        let mut seen_slots = std::collections::HashSet::new();
        let mut counts = std::collections::BTreeMap::new();
        let mut rejected = 0usize;
        for r in &self.receipts {
            let valid = r.bundle_id == bundle_id
                && r.verify(bundle_key)
                && seen_slots.insert((r.connection, r.hop));
            if valid {
                *counts.entry(r.forwarder).or_insert(0) += 1;
            } else {
                rejected += 1;
            }
        }
        (counts, rejected)
    }

    /// The distinct forwarders appearing in **valid** receipts — the
    /// forwarder set `π` whose size divides the routing benefit.
    #[must_use]
    pub fn forwarder_set(&self, bundle_key: &HmacKey, bundle_id: u64) -> Vec<AccountId> {
        self.validated_counts(bundle_key, bundle_id)
            .0
            .into_keys()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn validated_counts_aggregate_per_forwarder() {
        let mut book = ReceiptBook::new();
        // Forwarder 1 on two connections, forwarder 2 on one.
        book.add(Receipt::issue(&KEY, 9, 0, 0, AccountId(1)));
        book.add(Receipt::issue(&KEY, 9, 1, 0, AccountId(1)));
        book.add(Receipt::issue(&KEY, 9, 0, 1, AccountId(2)));
        let (counts, rejected) = book.validated_counts(&KEY, 9);
        assert_eq!(rejected, 0);
        assert_eq!(counts[&AccountId(1)], 2);
        assert_eq!(counts[&AccountId(2)], 1);
    }

    #[test]
    fn duplicate_slot_claims_are_rejected() {
        let mut book = ReceiptBook::new();
        let r = Receipt::issue(&KEY, 9, 0, 0, AccountId(1));
        book.add(r.clone());
        book.add(r); // replay the same receipt
        let (counts, rejected) = book.validated_counts(&KEY, 9);
        assert_eq!(counts[&AccountId(1)], 1, "replay must not double-count");
        assert_eq!(rejected, 1);
    }

    #[test]
    fn forged_receipt_rejected_without_blocking_others() {
        let mut book = ReceiptBook::new();
        book.add(Receipt::issue(&KEY, 9, 0, 0, AccountId(1)));
        let mut forged = Receipt::issue(&KEY, 9, 1, 0, AccountId(2));
        forged.forwarder = AccountId(3);
        book.add(forged);
        let (counts, rejected) = book.validated_counts(&KEY, 9);
        assert_eq!(rejected, 1);
        assert_eq!(counts.len(), 1);
        assert!(counts.contains_key(&AccountId(1)));
    }

    #[test]
    fn receipts_from_other_bundle_rejected() {
        let mut book = ReceiptBook::new();
        book.add(Receipt::issue(&KEY, 8, 0, 0, AccountId(1))); // bundle 8
        let (counts, rejected) = book.validated_counts(&KEY, 9);
        assert!(counts.is_empty());
        assert_eq!(rejected, 1);
    }

    #[test]
    fn forwarder_set_is_distinct_accounts() {
        let mut book = ReceiptBook::new();
        book.add(Receipt::issue(&KEY, 9, 0, 0, AccountId(5)));
        book.add(Receipt::issue(&KEY, 9, 1, 0, AccountId(5)));
        book.add(Receipt::issue(&KEY, 9, 1, 1, AccountId(6)));
        assert_eq!(
            book.forwarder_set(&KEY, 9),
            vec![AccountId(5), AccountId(6)]
        );
    }
}
