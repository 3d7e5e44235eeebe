//! HMAC-SHA-256 (RFC 2104), for receipt digests and the path-validation
//! MACs an initiator checks when reconstructing a forwarding path.
//!
//! [`HmacKey`] is the one kernel: it absorbs the key's ipad and opad
//! blocks once, so each MAC under a reused key (every receipt and manifest
//! of a bundle) costs two SHA-256 compressions for a message of up to 55
//! bytes instead of four. Such a message, its padding and its length fill
//! one block, which [`HmacKey::mac`] builds directly and compresses from
//! the ipad state; the 32-byte inner digest then fills one block after the
//! opad state the same way. [`hmac_sha256`] and [`verify_hmac`] are
//! one-shot wrappers over it.

use crate::sha256::{self, Sha256, H0};

const BLOCK: usize = 64;

/// The longest tail that still fits one block with its `0x80` marker and
/// 8-byte length.
const ONE_BLOCK_TAIL: usize = BLOCK - 9;

/// A prepared HMAC-SHA-256 key: the hash states after the ipad and opad
/// blocks.
#[derive(Clone)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
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

        let (mut inner, mut outer) = (H0, H0);
        Sha256::compress(&mut inner, &ipad);
        Sha256::compress(&mut outer, &opad);
        HmacKey { inner, outer }
    }

    /// Computes `HMAC-SHA256(key, message)`.
    #[must_use]
    pub fn mac(&self, message: &[u8]) -> [u8; 32] {
        let inner = if message.len() <= ONE_BLOCK_TAIL {
            last_block(self.inner, message)
        } else {
            let mut h = Sha256::after_block(self.inner);
            h.update(message);
            h.finalize()
        };
        last_block(self.outer, &inner)
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

/// The digest of one absorbed pad block (leaving `state`) followed by
/// `tail`, which is at most [`ONE_BLOCK_TAIL`] bytes: `tail`, the `0x80`
/// marker, zeros and the bit length fill one block.
fn last_block(mut state: [u32; 8], tail: &[u8]) -> [u8; 32] {
    let mut block = [0u8; BLOCK];
    block[..tail.len()].copy_from_slice(tail);
    block[tail.len()] = 0x80;
    let bits = (BLOCK + tail.len()) as u64 * 8;
    block[BLOCK - 8..].copy_from_slice(&bits.to_be_bytes());
    Sha256::compress(&mut state, &block);
    sha256::digest_bytes(&state)
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
    use crate::sha256::kernels::{self, Kernel};

    /// RFC 2104 written out over whole messages: `H(K ⊕ opad ‖ H(K ⊕ ipad
    /// ‖ m))`, every block through `kernel`.
    fn textbook(kernel: Kernel, key: &[u8], message: &[u8]) -> [u8; 32] {
        let mut k = if key.len() > BLOCK {
            kernels::digest_with(kernel, key).to_vec()
        } else {
            key.to_vec()
        };
        k.resize(BLOCK, 0);
        let mut inner: Vec<u8> = k.iter().map(|b| b ^ 0x36).collect();
        inner.extend_from_slice(message);
        let mut outer: Vec<u8> = k.iter().map(|b| b ^ 0x5c).collect();
        outer.extend_from_slice(&kernels::digest_with(kernel, &inner));
        kernels::digest_with(kernel, &outer)
    }

    /// The MAC through the hasher's buffered `update`/`finalize` from the
    /// prepared pad states, at any message length.
    fn buffered(key: &HmacKey, message: &[u8]) -> [u8; 32] {
        let mut inner = Sha256::after_block(key.inner);
        inner.update(message);
        let mut outer = Sha256::after_block(key.outer);
        outer.update(&inner.finalize());
        outer.finalize()
    }

    /// Checks an RFC 4231 vector through the one-shot wrapper, through a
    /// prepared key used twice (a MAC must leave the key intact), and
    /// through RFC 2104 written out on each compression kernel.
    fn rfc4231(key: &[u8], data: &[u8], expect: &str) {
        assert_eq!(hex(&hmac_sha256(key, data)), expect);
        let prepared = HmacKey::new(key);
        assert_eq!(hex(&prepared.mac(data)), expect);
        assert_eq!(hex(&prepared.mac(data)), expect, "key reuse");
        for (name, kernel) in kernels::all("rfc4231") {
            assert_eq!(hex(&textbook(kernel, key, data)), expect, "{name} kernel");
        }
    }

    /// The one-block path (messages up to 55 bytes) against the buffered
    /// path at every length from 0 to 120, across the 55/56 boundary where
    /// `mac` switches between them, under a short and a hashed long key.
    #[test]
    fn one_block_mac_matches_buffered_path() {
        let message: Vec<u8> = (0u8..=120).map(|i| i.wrapping_mul(37) ^ 0xa5).collect();
        for key in [&b"bundle key"[..], &[0x3cu8; 100][..]] {
            let prepared = HmacKey::new(key);
            for len in 0..=120 {
                let msg = &message[..len];
                let want = buffered(&prepared, msg);
                assert_eq!(prepared.mac(msg), want, "key {} len {len}", key.len());
                assert_eq!(textbook(Sha256::compress, key, msg), want);
            }
        }
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
