//! Textbook RSA key generation, signing and verification.
//!
//! The payment system signs *hashes* of token serials (full-domain-hash
//! style would require a hash into Z_n; for the simulated bank, signing the
//! SHA-256 digest interpreted as an integer is sufficient — the security
//! arguments the paper needs are unlinkability and unforgeability at the
//! protocol level, not modern EUF-CMA bounds).

use std::sync::OnceLock;

use idpa_desim::rng::Xoshiro256StarStar;

use crate::bigint::BigUint;
use crate::montgomery::MontgomeryCtx;
use crate::prime::generate_prime;

/// An RSA public key `(n, e)`.
///
/// Carries a lazily built, cached [`MontgomeryCtx`] over `n` so that every
/// repeated same-modulus operation — the bank verifying thousands of token
/// signatures, blinding factors raised to `e` — shares one context instead
/// of rebuilding `R^2 mod n` per call.
#[derive(Debug, Clone)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
    mont: OnceLock<MontgomeryCtx>,
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        // The cached context is derived from n; key identity is (n, e).
        self.n == other.n && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

impl RsaPublicKey {
    /// The modulus.
    #[must_use]
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The public exponent.
    #[must_use]
    pub fn exponent(&self) -> &BigUint {
        &self.e
    }

    /// The shared Montgomery context over `n`, built on first use.
    #[must_use]
    pub fn mont(&self) -> &MontgomeryCtx {
        self.mont.get_or_init(|| MontgomeryCtx::new(&self.n))
    }

    /// Raw RSA verification primitive: `sig^e mod n`.
    #[must_use]
    pub fn raw_verify(&self, sig: &BigUint) -> BigUint {
        self.mont().modpow(sig, &self.e)
    }
}

/// An RSA key pair.
#[derive(Debug, Clone)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    d: BigUint,
}

/// The conventional public exponent 65537.
#[must_use]
pub fn f4() -> BigUint {
    BigUint::from_u64(65537)
}

impl RsaKeyPair {
    /// Generates a key pair with a modulus of `modulus_bits` bits
    /// (two primes of half that size) and exponent 65537.
    ///
    /// `modulus_bits` must be even and at least 128. Simulation-scale keys
    /// (512–1024 bits) generate quickly; nothing here is hardened for real
    /// deployment.
    #[must_use]
    pub fn generate(modulus_bits: usize, rng: &mut Xoshiro256StarStar) -> Self {
        assert!(
            modulus_bits >= 128 && modulus_bits.is_multiple_of(2),
            "modulus_bits must be even and >= 128, got {modulus_bits}"
        );
        let e = f4();
        let one = BigUint::one();
        loop {
            let p = generate_prime(modulus_bits / 2, rng);
            let q = generate_prime(modulus_bits / 2, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let phi = p.sub(&one).mul(&q.sub(&one));
            // e must be invertible mod phi.
            let Some(d) = e.mod_inverse(&phi) else {
                continue;
            };
            let public = RsaPublicKey {
                n,
                e,
                mont: OnceLock::new(),
            };
            // Warm the shared context at creation so the first signature
            // does not pay the one-time R^2 setup.
            let _ = public.mont();
            return RsaKeyPair { public, d };
        }
    }

    /// The public half.
    #[must_use]
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Raw RSA signing primitive: `m^d mod n` (Montgomery fast path with
    /// fixed-window exponentiation — `d` is full modulus size and dense).
    #[must_use]
    pub fn raw_sign(&self, m: &BigUint) -> BigUint {
        self.public.mont().modpow_window(m, &self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::Sha256;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    fn test_keys(seed: u64) -> RsaKeyPair {
        // 256-bit keys keep the test suite fast; the math is size-agnostic.
        RsaKeyPair::generate(256, &mut rng(seed))
    }

    #[test]
    fn modulus_has_requested_size() {
        let kp = test_keys(1);
        assert_eq!(kp.public().modulus().bits(), 256);
    }

    /// SHA-256 of `message` as an integer mod n — how a token's digest
    /// is signed.
    fn digest(kp: &RsaKeyPair, message: &[u8]) -> BigUint {
        BigUint::from_bytes_be(&Sha256::digest(message)).rem(kp.public().modulus())
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = test_keys(2);
        let m = digest(&kp, b"pay the forwarder 50 units");
        assert_eq!(kp.public().raw_verify(&kp.raw_sign(&m)), m);
    }

    #[test]
    fn verification_rejects_wrong_message() {
        let kp = test_keys(3);
        let sig = kp.raw_sign(&digest(&kp, b"original"));
        assert_ne!(kp.public().raw_verify(&sig), digest(&kp, b"tampered"));
    }

    #[test]
    fn verification_rejects_wrong_key() {
        let kp1 = test_keys(4);
        let kp2 = test_keys(5);
        let sig = kp1.raw_sign(&digest(&kp1, b"msg"));
        assert_ne!(kp2.public().raw_verify(&sig), digest(&kp2, b"msg"));
    }

    #[test]
    fn raw_primitives_invert() {
        let kp = test_keys(6);
        let m = BigUint::from_u64(123_456_789);
        let sig = kp.raw_sign(&m);
        assert_eq!(kp.public().raw_verify(&sig), m);
    }

    #[test]
    fn encryption_direction_also_inverts() {
        // RSA is a trapdoor permutation: e then d also round-trips.
        let kp = test_keys(7);
        let m = BigUint::from_u64(42);
        let c = m.modpow(kp.public().exponent(), kp.public().modulus());
        let back = kp.raw_sign(&c);
        assert_eq!(back, m);
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        assert_ne!(
            test_keys(8).public().modulus(),
            test_keys(9).public().modulus()
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = test_keys(10);
        let b = test_keys(10);
        assert_eq!(a.public(), b.public());
    }
}
