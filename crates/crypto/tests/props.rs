//! Property-based tests of the cryptographic substrate.
//!
//! Randomized with a fixed-seed Xoshiro256** stream (in-tree, offline)
//! instead of an external property-testing framework: every property runs
//! a few hundred generated cases and is exactly reproducible.

use idpa_crypto::bigint::BigUint;
use idpa_crypto::hmac::{hmac_sha256, verify_hmac, HmacKey};
use idpa_crypto::sha256::Sha256;
use idpa_desim::rng::Xoshiro256StarStar;

const CASES: usize = 256;

fn rng(seed: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seed_from_u64(seed)
}

fn random_bytes(rng: &mut Xoshiro256StarStar, len: usize) -> Vec<u8> {
    (0..len).map(|_| (rng.next() & 0xff) as u8).collect()
}

fn random_len(rng: &mut Xoshiro256StarStar, lo: usize, hi: usize) -> usize {
    lo + (rng.next() as usize) % (hi - lo)
}

fn from_words(words: &[u64]) -> BigUint {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
    BigUint::from_bytes_be(&bytes)
}

fn random_biguint(rng: &mut Xoshiro256StarStar, max_words: usize) -> BigUint {
    let n = 1 + (rng.next() as usize) % max_words;
    let words: Vec<u64> = (0..n).map(|_| rng.next()).collect();
    from_words(&words)
}

/// Exponent laws: a^(x+y) = a^x · a^y (mod m).
#[test]
fn modpow_exponent_addition() {
    let mut r = rng(0x1001);
    for _ in 0..CASES {
        let a = BigUint::from_u64(2 + r.next() % (u64::MAX - 2));
        let m = BigUint::from_u64(2 + r.next() % (u64::MAX - 2));
        let x = r.next() % 2000;
        let y = r.next() % 2000;
        let lhs = a.modpow(&BigUint::from_u64(x + y), &m);
        let rhs = a
            .modpow(&BigUint::from_u64(x), &m)
            .mulmod(&a.modpow(&BigUint::from_u64(y), &m), &m);
        assert_eq!(lhs, rhs, "a^(x+y) != a^x a^y for x={x} y={y}");
    }
}

/// (a·b)^e = a^e · b^e (mod m) — the homomorphism blind signatures rely on.
#[test]
fn modpow_is_multiplicative() {
    let mut r = rng(0x1002);
    for _ in 0..CASES {
        let a = BigUint::from_u64(1 + r.next() % (u64::MAX - 1));
        let b = BigUint::from_u64(1 + r.next() % (u64::MAX - 1));
        let m = BigUint::from_u64(2 + r.next() % (u64::MAX - 2));
        let e = BigUint::from_u64(r.next() % 500);
        let lhs = a.mulmod(&b, &m).modpow(&e, &m);
        let rhs = a.modpow(&e, &m).mulmod(&b.modpow(&e, &m), &m);
        assert_eq!(lhs, rhs);
    }
}

/// gcd divides both arguments and gcd(a/g, b/g) == 1.
#[test]
fn gcd_properties() {
    let mut r = rng(0x1003);
    let mut ran = 0;
    while ran < CASES {
        let a = random_biguint(&mut r, 2);
        let b = random_biguint(&mut r, 2);
        if a.is_zero() || b.is_zero() {
            continue;
        }
        ran += 1;
        let g = a.gcd(&b);
        assert!(!g.is_zero());
        assert!(a.rem(&g).is_zero());
        assert!(b.rem(&g).is_zero());
        let (aq, _) = a.divrem(&g);
        let (bq, _) = b.divrem(&g);
        assert!(aq.gcd(&bq).is_one());
    }
}

/// SHA-256 digests are stable and sensitive to any single-bit flip.
#[test]
fn sha256_bit_sensitivity() {
    let mut r = rng(0x1004);
    for _ in 0..CASES {
        let len = random_len(&mut r, 1, 200);
        let data = random_bytes(&mut r, len);
        let d1 = Sha256::digest(&data);
        let mut mutated = data.clone();
        let idx = (r.next() as usize) % mutated.len();
        let bit = (r.next() % 8) as u8;
        mutated[idx] ^= 1 << bit;
        let d2 = Sha256::digest(&mutated);
        assert_ne!(d1, d2);
        assert_eq!(d1, Sha256::digest(&data), "deterministic");
    }
}

/// Incremental hashing equals one-shot hashing at any split point.
#[test]
fn sha256_incremental_any_split() {
    let mut r = rng(0x1005);
    for _ in 0..CASES {
        let len = random_len(&mut r, 0, 300);
        let data = random_bytes(&mut r, len);
        let split = if data.is_empty() {
            0
        } else {
            (r.next() as usize) % (data.len() + 1)
        };
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), Sha256::digest(&data));
    }
}

/// HMAC verifies its own output and rejects any MAC bit flip.
#[test]
fn hmac_round_trip_and_rejection() {
    let mut r = rng(0x1006);
    for _ in 0..CASES {
        let key_len = random_len(&mut r, 0, 100);
        let key = random_bytes(&mut r, key_len);
        let msg_len = random_len(&mut r, 0, 100);
        let msg = random_bytes(&mut r, msg_len);
        let mac = hmac_sha256(&key, &msg);
        assert!(verify_hmac(&key, &msg, &mac));
        let flip = (r.next() % 256) as usize;
        let mut bad = mac;
        bad[flip / 8] ^= 1 << (flip % 8);
        assert!(!verify_hmac(&key, &msg, &bad));
    }
}

/// RFC 2104 written out literally: pad the key, hash `ipad ‖ message`,
/// then `opad ‖ inner` — every call re-derives the pads from scratch.
fn reference_hmac(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut block = [0u8; 64];
    if key.len() > 64 {
        block[..32].copy_from_slice(&Sha256::digest(key));
    } else {
        block[..key.len()].copy_from_slice(key);
    }
    let mut inner: Vec<u8> = block.iter().map(|b| b ^ 0x36).collect();
    inner.extend_from_slice(message);
    let mut outer: Vec<u8> = block.iter().map(|b| b ^ 0x5c).collect();
    outer.extend_from_slice(&Sha256::digest(&inner));
    Sha256::digest(&outer)
}

/// A prepared key agrees with the per-call reference for every key length
/// across the 64-byte hash-the-key rule and every message length across
/// both padding layouts of the inner hash (the key is reused throughout).
#[test]
fn prepared_key_matches_rfc2104_reference() {
    let mut r = rng(0x1007);
    let message = random_bytes(&mut r, 130);
    for key_len in 0..=130 {
        let key = random_bytes(&mut r, key_len);
        let prepared = HmacKey::new(&key);
        for msg_len in 0..=130 {
            let msg = &message[..msg_len];
            assert_eq!(
                prepared.mac(msg),
                reference_hmac(&key, msg),
                "key_len={key_len} msg_len={msg_len}"
            );
        }
    }
}

/// Montgomery modpow agrees with plain modpow on arbitrary odd moduli.
#[test]
fn montgomery_agrees_with_plain() {
    use idpa_crypto::montgomery::MontgomeryCtx;
    let mut r = rng(0x1007);
    let mut ran = 0;
    while ran < CASES {
        let base = random_biguint(&mut r, 3);
        let mut modulus = random_biguint(&mut r, 3);
        modulus.set_bit(0); // force odd
        if modulus.is_one() {
            continue;
        }
        ran += 1;
        let exp = BigUint::from_u64(r.next());
        let ctx = MontgomeryCtx::new(&modulus);
        assert_eq!(ctx.modpow(&base, &exp), base.modpow(&exp, &modulus));
    }
}
