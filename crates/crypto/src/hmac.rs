//! HMAC-SHA-256 (RFC 2104), for receipt digests and the path-validation
//! MACs an initiator checks when reconstructing a forwarding path.
//!
//! [`HmacKey`] is the one kernel: it absorbs the key's ipad and opad
//! blocks once, so each MAC under a reused key (every receipt and manifest
//! of a bundle) costs two SHA-256 compressions for a message of up to 55
//! bytes instead of four. [`hmac_sha256`] and [`verify_hmac`] are one-shot
//! wrappers over it.

use crate::sha256::Sha256;

const BLOCK: usize = 64;

/// A prepared HMAC-SHA-256 key: the hash states after the ipad and opad
/// blocks.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The absorbed pads are key material; keep them out of logs.
        f.debug_struct("HmacKey").finish_non_exhaustive()
    }
}

impl HmacKey {
    /// Prepares `key` (keys longer than one block are hashed first).
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0x36u8; BLOCK];
        let mut opad = [0x5cu8; BLOCK];
        for i in 0..BLOCK {
            ipad[i] ^= key_block[i];
            opad[i] ^= key_block[i];
        }

        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacKey { inner, outer }
    }

    /// Computes `HMAC-SHA256(key, message)`.
    #[must_use]
    pub fn mac(&self, message: &[u8]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        inner.update(message);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }

    /// Constant-shape comparison of `mac` against the MAC of `message`
    /// (length then bytes, XOR-folded).
    #[must_use]
    pub fn verify(&self, message: &[u8], mac: &[u8]) -> bool {
        let expect = self.mac(message);
        if mac.len() != expect.len() {
            return false;
        }
        let mut diff = 0u8;
        for (a, b) in expect.iter().zip(mac) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

/// Computes `HMAC-SHA256(key, message)` under a one-off key.
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(message)
}

/// [`HmacKey::verify`] under a one-off key.
#[must_use]
pub fn verify_hmac(key: &[u8], message: &[u8], mac: &[u8]) -> bool {
    HmacKey::new(key).verify(message, mac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::hex;

    /// Checks an RFC 4231 vector through the one-shot wrapper and through
    /// a prepared key used twice (the clone must leave the key intact).
    fn rfc4231(key: &[u8], data: &[u8], expect: &str) {
        assert_eq!(hex(&hmac_sha256(key, data)), expect);
        let prepared = HmacKey::new(key);
        assert_eq!(hex(&prepared.mac(data)), expect);
        assert_eq!(hex(&prepared.mac(data)), expect, "key reuse");
    }

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case_1() {
        rfc4231(
            &[0x0bu8; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    #[test]
    fn rfc4231_case_2() {
        rfc4231(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    #[test]
    fn rfc4231_case_3() {
        rfc4231(
            &[0xaau8; 20],
            &[0xddu8; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        rfc4231(
            &[0xaau8; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    #[test]
    fn verify_accepts_correct_mac() {
        let mac = hmac_sha256(b"k", b"m");
        assert!(verify_hmac(b"k", b"m", &mac));
    }

    #[test]
    fn verify_rejects_wrong_mac() {
        let mut mac = hmac_sha256(b"k", b"m");
        mac[0] ^= 1;
        assert!(!verify_hmac(b"k", b"m", &mac));
    }

    #[test]
    fn verify_rejects_wrong_length() {
        let mac = hmac_sha256(b"k", b"m");
        assert!(!verify_hmac(b"k", b"m", &mac[..31]));
    }

    #[test]
    fn debug_hides_key_material() {
        assert_eq!(format!("{:?}", HmacKey::new(b"secret")), "HmacKey { .. }");
    }

    #[test]
    fn different_keys_give_different_macs() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }
}
