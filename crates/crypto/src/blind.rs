//! Chaum blind signatures over RSA.
//!
//! The anonymity requirement the paper places on its payment system is that
//! "in trying to increase the system anonymity, the payment mechanism does
//! not actually decrease it" (§5): the bank must be able to issue and
//! settle payment value without linking a settled token back to the
//! withdrawal — otherwise payments would deanonymise initiators. Chaum's
//! construction achieves exactly that:
//!
//! 1. the withdrawer picks a random blinding factor `r` coprime to `n` and
//!    asks the bank to sign `m·r^e mod n`;
//! 2. the bank signs blindly: `(m·r^e)^d = m^d·r mod n`;
//! 3. the withdrawer divides by `r`, obtaining the ordinary signature
//!    `m^d mod n` — which the bank has never seen together with `m`.

use idpa_desim::rng::Xoshiro256StarStar;

use crate::bigint::BigUint;
use crate::prime::random_below;
use crate::rsa::RsaPublicKey;

/// A blinding factor `r` and its precomputed inverse.
#[derive(Debug, Clone)]
pub struct BlindingFactor {
    r: BigUint,
    r_inv: BigUint,
}

impl BlindingFactor {
    /// Samples a blinding factor coprime to the key's modulus.
    #[must_use]
    pub fn random(key: &RsaPublicKey, rng: &mut Xoshiro256StarStar) -> Self {
        let n = key.modulus();
        loop {
            let r = random_below(n, rng);
            if r.is_zero() {
                continue;
            }
            if let Some(r_inv) = r.mod_inverse(n) {
                return BlindingFactor { r, r_inv };
            }
        }
    }

    /// Blinds message representative `m`: returns `m·r^e mod n`.
    #[must_use]
    pub fn blind(&self, key: &RsaPublicKey, m: &BigUint) -> BigUint {
        // r^e through the key's cached Montgomery context — the same
        // context every other operation under this modulus shares.
        let r_e = key.mont().modpow(&self.r, key.exponent());
        m.mulmod(&r_e, key.modulus())
    }

    /// Unblinds a blind signature: returns `sig_blind · r^{-1} mod n`.
    #[must_use]
    pub fn unblind(&self, key: &RsaPublicKey, blind_sig: &BigUint) -> BigUint {
        blind_sig.mulmod(&self.r_inv, key.modulus())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::RsaKeyPair;
    use crate::sha256::Sha256;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    fn setup(seed: u64) -> (RsaKeyPair, Xoshiro256StarStar) {
        let mut r = rng(seed);
        let kp = RsaKeyPair::generate(256, &mut r);
        (kp, r)
    }

    fn digest_of(serial: &[u8], n: &BigUint) -> BigUint {
        BigUint::from_bytes_be(&Sha256::digest(serial)).rem(n)
    }

    #[test]
    fn blind_signature_verifies_as_ordinary_signature() {
        let (bank, mut r) = setup(1);
        let m = digest_of(b"token-serial-0001", bank.public().modulus());

        let bf = BlindingFactor::random(bank.public(), &mut r);
        let blinded = bf.blind(bank.public(), &m);
        let blind_sig = bank.raw_sign(&blinded);
        let sig = bf.unblind(bank.public(), &blind_sig);

        // The unblinded signature equals a direct signature on m.
        assert_eq!(sig, bank.raw_sign(&m));
        assert_eq!(bank.public().raw_verify(&sig), m);
    }

    #[test]
    fn bank_never_sees_the_message() {
        // Unlinkability's mechanical core: the blinded representative
        // differs from the message, and differs across blinding factors.
        let (bank, mut r) = setup(2);
        let m = digest_of(b"serial", bank.public().modulus());
        let bf1 = BlindingFactor::random(bank.public(), &mut r);
        let bf2 = BlindingFactor::random(bank.public(), &mut r);
        let b1 = bf1.blind(bank.public(), &m);
        let b2 = bf2.blind(bank.public(), &m);
        assert_ne!(b1, m);
        assert_ne!(b2, m);
        assert_ne!(b1, b2, "same message blinds to different values");
    }

    #[test]
    fn unblinding_with_wrong_factor_fails_verification() {
        let (bank, mut r) = setup(3);
        let m = digest_of(b"serial-x", bank.public().modulus());
        let bf = BlindingFactor::random(bank.public(), &mut r);
        let wrong = BlindingFactor::random(bank.public(), &mut r);
        let blind_sig = bank.raw_sign(&bf.blind(bank.public(), &m));
        let sig = wrong.unblind(bank.public(), &blind_sig);
        assert_ne!(bank.public().raw_verify(&sig), m);
    }

    #[test]
    fn forged_signature_fails() {
        let (bank, mut r) = setup(4);
        let m = digest_of(b"serial-y", bank.public().modulus());
        let forged = random_below(bank.public().modulus(), &mut r);
        assert_ne!(bank.public().raw_verify(&forged), m);
    }

    #[test]
    fn many_tokens_all_verify() {
        let (bank, mut r) = setup(5);
        for i in 0..10 {
            let serial = format!("token-{i}");
            let m = digest_of(serial.as_bytes(), bank.public().modulus());
            let bf = BlindingFactor::random(bank.public(), &mut r);
            let sig = bf.unblind(bank.public(), &bank.raw_sign(&bf.blind(bank.public(), &m)));
            assert_eq!(bank.public().raw_verify(&sig), m, "token {i}");
        }
    }
}
