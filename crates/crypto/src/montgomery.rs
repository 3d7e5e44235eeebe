//! Montgomery modular arithmetic (CIOS), the fast path for RSA-scale
//! `modpow`.
//!
//! Plain `modpow` performs a full Knuth division after every multiply;
//! Montgomery form replaces each of those divisions with a fused
//! multiply-reduce (the Coarsely Integrated Operand Scanning method),
//! cutting RSA signing time several-fold at 512–1024-bit sizes. The
//! context is reusable across operations under the same (odd) modulus —
//! exactly the bank-key usage pattern of the payment system.

use crate::bigint::BigUint;

/// Precomputed context for Montgomery arithmetic modulo an odd modulus.
#[derive(Debug, Clone)]
pub struct MontgomeryCtx {
    /// The modulus `n` as limbs, little-endian.
    n: Vec<u64>,
    /// `-n^{-1} mod 2^64`.
    n_prime: u64,
    /// `R^2 mod n` where `R = 2^(64·len(n))`, used to enter Montgomery form.
    r2: Vec<u64>,
}

impl MontgomeryCtx {
    /// Builds a context; the modulus must be odd and ≥ 3 (RSA moduli are).
    #[must_use]
    pub fn new(modulus: &BigUint) -> Self {
        assert!(modulus.is_odd(), "Montgomery needs an odd modulus");
        assert!(modulus.bits() >= 2, "modulus too small");
        let n = modulus.to_limbs();

        // n' = -n^{-1} mod 2^64 via Newton iteration (Hensel lifting):
        // x_{k+1} = x_k (2 - n x_k) doubles correct low bits per step.
        let n0 = n[0];
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let n_prime = inv.wrapping_neg();

        // R^2 mod n computed with plain BigUint arithmetic (setup only).
        let r2_big = BigUint::one().shl(64 * n.len() * 2).rem(modulus);
        let mut r2 = r2_big.to_limbs();
        r2.resize(n.len(), 0);

        MontgomeryCtx { n, n_prime, r2 }
    }

    /// Limb count `s` of the modulus.
    pub(crate) fn s(&self) -> usize {
        self.n.len()
    }

    /// CIOS Montgomery multiplication: returns `a·b·R^{-1} mod n`.
    /// Inputs are limb vectors of length `s` (Montgomery residues).
    pub(crate) fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let s = self.s();
        debug_assert_eq!(a.len(), s);
        debug_assert_eq!(b.len(), s);
        // t has s + 2 limbs.
        let mut t = vec![0u64; s + 2];
        for &ai in a.iter() {
            // t += ai * b
            let mut carry = 0u128;
            for j in 0..s {
                let sum = u128::from(t[j]) + u128::from(ai) * u128::from(b[j]) + carry;
                t[j] = sum as u64;
                carry = sum >> 64;
            }
            let sum = u128::from(t[s]) + carry;
            t[s] = sum as u64;
            t[s + 1] = (sum >> 64) as u64;

            // m = t[0] * n' mod 2^64 ; t += m * n ; t >>= 64
            let m = t[0].wrapping_mul(self.n_prime);
            let mut carry = (u128::from(t[0]) + u128::from(m) * u128::from(self.n[0])) >> 64;
            for j in 1..s {
                let sum = u128::from(t[j]) + u128::from(m) * u128::from(self.n[j]) + carry;
                t[j - 1] = sum as u64;
                carry = sum >> 64;
            }
            let sum = u128::from(t[s]) + carry;
            t[s - 1] = sum as u64;
            t[s] = t[s + 1] + ((sum >> 64) as u64);
            t[s + 1] = 0;
        }
        // Conditional final subtraction: t may be in [0, 2n). When the
        // overflow limb t[s] is set, the value is R + out and the borrow
        // of the limb-level subtraction cancels against it.
        let mut out = t[..s].to_vec();
        let overflow = t[s] != 0;
        if overflow || !less_than(&out, &self.n) {
            let borrow = sub_in_place(&mut out, &self.n);
            debug_assert_eq!(borrow, overflow, "CIOS range invariant violated");
        }
        out
    }

    /// Converts into Montgomery form: `a·R mod n`.
    pub(crate) fn to_mont(&self, a: &BigUint) -> Vec<u64> {
        let mut limbs = a.rem(&self.modulus_big()).to_limbs();
        limbs.resize(self.s(), 0);
        self.mont_mul(&limbs, &self.r2)
    }

    /// `1` in Montgomery form (`R mod n`), the multiplicative identity of
    /// [`Self::mont_mul`].
    pub(crate) fn one_mont(&self) -> Vec<u64> {
        self.to_mont(&BigUint::one())
    }

    /// Converts out of Montgomery form.
    pub(crate) fn decode_mont(&self, a: &[u64]) -> BigUint {
        let one: Vec<u64> = std::iter::once(1u64)
            .chain(std::iter::repeat(0))
            .take(self.s())
            .collect();
        BigUint::from_limbs(self.mont_mul(a, &one))
    }

    fn modulus_big(&self) -> BigUint {
        BigUint::from_limbs(self.n.clone())
    }

    /// `base^exponent mod n` by left-to-right square-and-multiply entirely
    /// in Montgomery form.
    #[must_use]
    pub fn modpow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        if exponent.is_zero() {
            return BigUint::one().rem(&self.modulus_big());
        }
        let base_m = self.to_mont(base);
        // acc = 1 in Montgomery form = R mod n = mont(1).
        let mut acc = self.to_mont(&BigUint::one());
        for i in (0..exponent.bits()).rev() {
            acc = self.mont_mul(&acc, &acc);
            if exponent.bit(i) {
                acc = self.mont_mul(&acc, &base_m);
            }
        }
        self.decode_mont(&acc)
    }

    /// `base^exponent mod n` by 4-bit fixed-window exponentiation.
    ///
    /// The window trades 14 table-building multiplies for one multiply per
    /// 4 squarings instead of (on average) one per 2, so it only pays off
    /// on long dense exponents — RSA private exponents, not `e = 65537`
    /// (17 bits, Hamming weight 2, for which binary is already near
    /// optimal). Short exponents therefore delegate to [`Self::modpow`].
    #[must_use]
    pub fn modpow_window(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        const WINDOW: usize = 4;
        let bits = exponent.bits();
        if bits <= 64 {
            return self.modpow(base, exponent);
        }
        let base_m = self.to_mont(base);
        // table[w] = base^w in Montgomery form, w in 0..16.
        let mut table = Vec::with_capacity(1 << WINDOW);
        table.push(self.one_mont());
        for w in 1..1usize << WINDOW {
            table.push(self.mont_mul(&table[w - 1], &base_m));
        }
        let windows = bits.div_ceil(WINDOW);
        let mut acc = self.one_mont();
        for wi in (0..windows).rev() {
            for _ in 0..WINDOW {
                acc = self.mont_mul(&acc, &acc);
            }
            let mut w = 0usize;
            for b in 0..WINDOW {
                let bit = wi * WINDOW + (WINDOW - 1 - b);
                w <<= 1;
                if bit < bits && exponent.bit(bit) {
                    w |= 1;
                }
            }
            if w != 0 {
                acc = self.mont_mul(&acc, &table[w]);
            }
        }
        self.decode_mont(&acc)
    }
}

/// `a < b` over equal-length little-endian limb slices.
fn less_than(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x < y;
        }
    }
    false
}

/// `a -= b` over equal-length limb slices; returns whether a final borrow
/// occurred (expected exactly when the value had an overflow limb).
fn sub_in_place(a: &mut [u64], b: &[u64]) -> bool {
    let mut borrow = 0u64;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d1, b1) = x.overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *x = d2;
        borrow = u64::from(b1) + u64::from(b2);
    }
    borrow != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::{generate_prime, random_bits};
    use idpa_desim::rng::Xoshiro256StarStar;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn matches_plain_modpow_small() {
        let n = BigUint::from_u64(1_000_003); // odd prime
        let ctx = MontgomeryCtx::new(&n);
        for (b, e) in [(2u64, 10u64), (3, 0), (12345, 67890), (999_999, 1_000_002)] {
            let base = BigUint::from_u64(b);
            let exp = BigUint::from_u64(e);
            assert_eq!(
                ctx.modpow(&base, &exp),
                base.modpow(&exp, &n),
                "b={b} e={e}"
            );
        }
    }

    #[test]
    fn matches_plain_modpow_rsa_sized() {
        let mut r = rng(1);
        let p = generate_prime(128, &mut r);
        let q = generate_prime(128, &mut r);
        let n = p.mul(&q);
        let ctx = MontgomeryCtx::new(&n);
        for _ in 0..10 {
            let base = random_bits(256, &mut r);
            let exp = random_bits(128, &mut r);
            assert_eq!(ctx.modpow(&base, &exp), base.modpow(&exp, &n));
        }
    }

    #[test]
    fn handles_base_larger_than_modulus() {
        let n = BigUint::from_u64(101);
        let ctx = MontgomeryCtx::new(&n);
        let base = BigUint::from_u64(123_456_789);
        let exp = BigUint::from_u64(17);
        assert_eq!(ctx.modpow(&base, &exp), base.modpow(&exp, &n));
    }

    #[test]
    fn zero_exponent_yields_one() {
        let n = BigUint::from_u64(97);
        let ctx = MontgomeryCtx::new(&n);
        assert_eq!(
            ctx.modpow(&BigUint::from_u64(5), &BigUint::zero()),
            BigUint::one()
        );
    }

    #[test]
    fn fermat_little_theorem_via_montgomery() {
        let mut r = rng(2);
        let p = generate_prime(96, &mut r);
        let ctx = MontgomeryCtx::new(&p);
        let a = BigUint::from_u64(7);
        let p_minus_1 = p.sub(&BigUint::one());
        assert_eq!(ctx.modpow(&a, &p_minus_1), BigUint::one());
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn even_modulus_rejected() {
        let _ = MontgomeryCtx::new(&BigUint::from_u64(100));
    }

    #[test]
    fn window_matches_binary_modpow() {
        let mut r = rng(4);
        let p = generate_prime(128, &mut r);
        let q = generate_prime(128, &mut r);
        let n = p.mul(&q);
        let ctx = MontgomeryCtx::new(&n);
        for trial in 0..10 {
            let base = random_bits(256, &mut r);
            // Cover both the delegating (short) and windowed (long) paths.
            let exp = random_bits(if trial % 2 == 0 { 48 } else { 250 }, &mut r);
            assert_eq!(
                ctx.modpow_window(&base, &exp),
                base.modpow(&exp, &n),
                "trial {trial}"
            );
        }
        assert_eq!(
            ctx.modpow_window(&BigUint::from_u64(5), &BigUint::zero()),
            BigUint::one()
        );
    }

    #[test]
    fn many_random_cross_checks() {
        let mut r = rng(3);
        for trial in 0..20 {
            // Random odd modulus of varying width.
            let bits = 65 + (trial * 13) % 190;
            let mut n = random_bits(bits, &mut r);
            n.set_bit(0); // force odd
            n.set_bit(bits - 1);
            if n.is_one() {
                continue;
            }
            let ctx = MontgomeryCtx::new(&n);
            let base = random_bits(bits + 10, &mut r);
            let exp = random_bits(64, &mut r);
            assert_eq!(
                ctx.modpow(&base, &exp),
                base.modpow(&exp, &n),
                "trial {trial} bits {bits}"
            );
        }
    }
}
