//! Reproducible random-number streams.
//!
//! Every experiment in the reproduction must be replayable from a single
//! master seed, and the comparison between routing strategies uses *common
//! random numbers*: the churn process, neighbor selection and (I,R) pair
//! workload must be identical across the strategies being compared. That
//! requires stable, named substreams rather than one shared generator, so
//! that consuming extra randomness in one component cannot shift another
//! component's stream.
//!
//! We implement our own small generators (SplitMix64 for seeding,
//! xoshiro256** as the workhorse) so the bit streams cannot change under us
//! when the `rand` crate revises its `StdRng` algorithm. Both implement
//! [`rand::TryRng`] (infallible), so all of `rand`'s machinery works on top.

use core::convert::Infallible;
use rand::TryRng;

/// SplitMix64: a tiny, statistically solid generator used here for seed
/// derivation (its output is equidistributed over `u64`, so it is the
/// recommended seeder for xoshiro-family generators).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 random bits.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let z = splitmix64(self.state);
        self.state = self.state.wrapping_add(SPLITMIX_GAMMA);
        z
    }
}

/// The SplitMix64 increment (the golden-ratio constant).
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step as a pure function: the output of a generator
/// whose state is `x` (Stafford mix 13 over `x + γ`).
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build-hasher for integer keys: accumulates each word through
/// [`splitmix64`], so multi-word keys (tuples) mix exactly and hashing
/// costs a handful of ALU ops instead of SipHash. Collisions are harmless
/// — `Eq` on the full key decides membership. The history arena, the
/// probe-cell store, the fault-ledger store, each fault ledger's relay
/// maps, the reformation tracker's edge set and the intersection attack's
/// candidate set key their maps with it; their keys are node and bundle
/// indices below N, never raw outside input, so SipHash's resistance to
/// crafted collisions buys nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mix64State;

/// Hasher produced by [`Mix64State`]; accepts only whole-word writes.
#[derive(Debug)]
pub struct Mix64Hasher(u64);

impl core::hash::BuildHasher for Mix64State {
    type Hasher = Mix64Hasher;

    fn build_hasher(&self) -> Mix64Hasher {
        Mix64Hasher(0)
    }
}

impl core::hash::Hasher for Mix64Hasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("Mix64Hasher keys hash via whole-word writes only");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = splitmix64(self.0 ^ v);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

impl TryRng for SplitMix64 {
    type Error = Infallible;

    fn try_next_u32(&mut self) -> Result<u32, Infallible> {
        Ok((self.next() >> 32) as u32)
    }

    fn try_next_u64(&mut self) -> Result<u64, Infallible> {
        Ok(self.next())
    }

    fn try_fill_bytes(&mut self, dst: &mut [u8]) -> Result<(), Infallible> {
        let mut chunks = dst.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
        Ok(())
    }
}

/// xoshiro256**: the main generator used by all simulation components.
///
/// Period 2^256 − 1; passes BigCrush. Seeded through SplitMix64 so that
/// low-entropy seeds (0, 1, 2, …) still give well-mixed initial states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator whose 256-bit state is expanded from `seed` via
    /// SplitMix64.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next();
        }
        // The all-zero state is the one invalid state; SplitMix64 cannot
        // produce four consecutive zeros from any seed, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256StarStar { s }
    }

    /// The raw 256-bit state, for snapshotting a stream cursor mid-run.
    #[must_use]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a state captured by
    /// [`Xoshiro256StarStar::state`]. The all-zero state (which no valid
    /// capture produces, but a hostile snapshot could claim) is replaced by
    /// the same guard constant as [`Xoshiro256StarStar::seed_from_u64`], so
    /// the generator can never enter its one degenerate fixed point.
    #[must_use]
    pub fn from_state(mut s: [u64; 4]) -> Self {
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256StarStar { s }
    }

    /// The next 64 random bits.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl TryRng for Xoshiro256StarStar {
    type Error = Infallible;

    fn try_next_u32(&mut self) -> Result<u32, Infallible> {
        Ok((self.next() >> 32) as u32)
    }

    fn try_next_u64(&mut self) -> Result<u64, Infallible> {
        Ok(self.next())
    }

    fn try_fill_bytes(&mut self, dst: &mut [u8]) -> Result<(), Infallible> {
        fill_bytes_via_u64(self, dst);
        Ok(())
    }
}

fn fill_bytes_via_u64(rng: &mut Xoshiro256StarStar, dst: &mut [u8]) {
    let mut chunks = dst.chunks_exact_mut(8);
    for chunk in &mut chunks {
        chunk.copy_from_slice(&rng.next().to_le_bytes());
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let bytes = rng.next().to_le_bytes();
        rem.copy_from_slice(&bytes[..rem.len()]);
    }
}

/// Derives independent, named random streams from one master seed.
///
/// Stream identity is the FNV-1a hash of the label mixed with the master
/// seed, so `stream("churn")` yields the same generator no matter how many
/// other streams were created before it — the property that makes
/// common-random-number comparisons valid.
///
/// ```
/// use idpa_desim::rng::StreamFactory;
///
/// let f = StreamFactory::new(42);
/// let mut a1 = f.stream("churn");
/// let mut a2 = f.stream("churn");
/// let mut b = f.stream("workload");
/// assert_eq!(a1.next(), a2.next()); // same label => same stream
/// assert_ne!(f.stream("churn").next(), b.next());
/// ```
#[derive(Debug, Clone)]
pub struct StreamFactory {
    master_seed: u64,
}

impl StreamFactory {
    /// Creates a factory over the given master seed.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        StreamFactory { master_seed }
    }

    /// The master seed this factory was built from.
    #[must_use]
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// A generator for the named stream.
    #[must_use]
    pub fn stream(&self, label: &str) -> Xoshiro256StarStar {
        self.stream_indexed(label, 0)
    }

    /// A generator for the `index`-th substream of the named stream; use for
    /// per-node or per-replication streams ("node", 17).
    #[inline]
    #[must_use]
    pub fn stream_indexed(&self, label: &str, index: u64) -> Xoshiro256StarStar {
        let h = fnv1a(label, &[index]);
        // One extra SplitMix64 round decorrelates label-hash and seed.
        let mut mixer = SplitMix64::new(h ^ self.master_seed);
        Xoshiro256StarStar::seed_from_u64(mixer.next())
    }

    /// A generator keyed by two indices — e.g. `(node, round)` — so that
    /// per-event randomness can be drawn *by position* rather than from a
    /// shared sequential stream. Two components that derive their draws this
    /// way consume identical bits no matter in which order (or on which
    /// thread) they materialize them, which is what makes lazily-evaluated
    /// state bit-identical to its eagerly-evaluated counterpart.
    #[inline]
    #[must_use]
    pub fn stream_indexed2(&self, label: &str, a: u64, b: u64) -> Xoshiro256StarStar {
        let h = fnv1a(label, &[a, b]);
        let mut mixer = SplitMix64::new(h ^ self.master_seed);
        Xoshiro256StarStar::seed_from_u64(mixer.next())
    }

    /// A generator keyed by three indices — e.g. `(pair, connection,
    /// attempt)` — the finest-grained position key. Like
    /// [`StreamFactory::stream_indexed2`], draws are a pure function of the
    /// key, so components that materialize them lazily, out of order, or on
    /// different threads consume identical bits.
    #[inline]
    #[must_use]
    pub fn stream_indexed3(&self, label: &str, a: u64, b: u64, c: u64) -> Xoshiro256StarStar {
        let h = fnv1a(label, &[a, b, c]);
        let mut mixer = SplitMix64::new(h ^ self.master_seed);
        Xoshiro256StarStar::seed_from_u64(mixer.next())
    }
}

/// FNV-1a over the label bytes followed by each index's LE bytes.
#[inline]
fn fnv1a(label: &str, indices: &[u64]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for byte in label.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    for index in indices {
        for byte in index.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngExt};

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // splitmix64.c by Sebastiano Vigna.
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next(), 6457827717110365317);
        assert_eq!(sm.next(), 3203168211198807973);
        assert_eq!(sm.next(), 9817491932198370423);
    }

    #[test]
    fn mix64_hashes_usize_like_u64_and_tuples_per_word() {
        use core::hash::BuildHasher;
        assert_eq!(Mix64State.hash_one(7usize), Mix64State.hash_one(7u64));
        assert_eq!(Mix64State.hash_one(7u64), splitmix64(7));
        assert_eq!(
            Mix64State.hash_one((3u64, 4u64)),
            splitmix64(splitmix64(3) ^ 4)
        );
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256StarStar::seed_from_u64(99);
        let mut b = Xoshiro256StarStar::seed_from_u64(99);
        for _ in 0..1000 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn xoshiro_different_seeds_differ() {
        let mut a = Xoshiro256StarStar::seed_from_u64(1);
        let mut b = Xoshiro256StarStar::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next() == b.next()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fill_bytes_handles_non_multiple_of_8() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        // The first 8 bytes must be the LE encoding of the first u64.
        let mut rng2 = Xoshiro256StarStar::seed_from_u64(7);
        assert_eq!(&buf[..8], &rng2.next_u64().to_le_bytes());
    }

    #[test]
    fn works_with_rand_distributions() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let x: f64 = rng.random_range(0.0..1.0);
        assert!((0.0..1.0).contains(&x));
        let n: u32 = rng.random_range(0..10);
        assert!(n < 10);
    }

    #[test]
    fn streams_are_label_stable() {
        let f = StreamFactory::new(7);
        let mut churn1 = f.stream("churn");
        let _ignored = f.stream("other"); // must not perturb "churn"
        let mut churn2 = f.stream("churn");
        for _ in 0..100 {
            assert_eq!(churn1.next(), churn2.next());
        }
    }

    #[test]
    fn streams_with_different_labels_decorrelate() {
        let f = StreamFactory::new(7);
        let mut a = f.stream("alpha");
        let mut b = f.stream("beta");
        let matches = (0..256).filter(|_| a.next() == b.next()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn indexed_streams_decorrelate() {
        let f = StreamFactory::new(7);
        let mut a = f.stream_indexed("node", 0);
        let mut b = f.stream_indexed("node", 1);
        let matches = (0..256).filter(|_| a.next() == b.next()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn two_index_streams_are_position_stable() {
        let f = StreamFactory::new(7);
        let mut a1 = f.stream_indexed2("probe", 3, 41);
        let mut a2 = f.stream_indexed2("probe", 3, 41);
        for _ in 0..64 {
            assert_eq!(a1.next(), a2.next());
        }
    }

    #[test]
    fn three_index_streams_are_position_stable_and_decorrelated() {
        let f = StreamFactory::new(7);
        let mut a1 = f.stream_indexed3("fault/tx", 3, 41, 2);
        let mut a2 = f.stream_indexed3("fault/tx", 3, 41, 2);
        for _ in 0..64 {
            assert_eq!(a1.next(), a2.next());
        }
        let mut base = f.stream_indexed3("fault/tx", 3, 41, 2);
        let b0 = base.next();
        assert_ne!(b0, f.stream_indexed3("fault/tx", 4, 41, 2).next());
        assert_ne!(b0, f.stream_indexed3("fault/tx", 3, 42, 2).next());
        assert_ne!(b0, f.stream_indexed3("fault/tx", 3, 41, 3).next());
        assert_ne!(b0, f.stream_indexed2("fault/tx", 3, 41).next());
    }

    #[test]
    fn two_index_streams_decorrelate_in_both_indices() {
        let f = StreamFactory::new(7);
        let mut base = f.stream_indexed2("probe", 3, 41);
        let mut other_a = f.stream_indexed2("probe", 4, 41);
        let mut other_b = f.stream_indexed2("probe", 3, 42);
        let mut swapped = f.stream_indexed2("probe", 41, 3);
        let b0 = base.next();
        assert_ne!(b0, other_a.next());
        assert_ne!(b0, other_b.next());
        assert_ne!(b0, swapped.next());
    }

    #[test]
    fn different_master_seeds_decorrelate() {
        let mut a = StreamFactory::new(1).stream("x");
        let mut b = StreamFactory::new(2).stream("x");
        let matches = (0..256).filter(|_| a.next() == b.next()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn uniformity_smoke_test() {
        // Mean of 100k uniform f64 draws should be near 0.5.
        let mut rng = Xoshiro256StarStar::seed_from_u64(2024);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.random_range(0.0..1.0f64)).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.005, "mean={mean}");
    }
}
