//! Versioned, checksummed binary codec for simulation snapshots.
//!
//! The service-mode runner (`idpa-sim`) periodically serializes the full
//! mutable simulation state so a long heavy-traffic run can be killed and
//! resumed bit-identically. This module provides the byte-level substrate:
//! little-endian primitive encoding ([`Enc`]/[`Dec`]), a typed error for
//! every way a snapshot can be malformed ([`CodecError`]), and a framing
//! layer ([`frame`]/[`unframe`]) that wraps a payload in magic bytes, a
//! format version, an explicit length, and a word-wise FNV-1a-64
//! checksum ([`frame_checksum`]). A snapshot writer encodes its payload
//! straight into the frame ([`Enc::framed`] … [`Enc::seal_frame`]), so
//! the payload is never copied.
//!
//! Design rules, enforced by the decode-hardening property suite in
//! `idpa-sim`:
//!
//! * decoding never panics — every malformed input maps to a
//!   [`CodecError`];
//! * decoding never allocates proportionally to an attacker-controlled
//!   length field — collection lengths are validated against the bytes
//!   actually remaining before any allocation;
//! * floating-point values round-trip through [`f64::to_bits`], so a
//!   decoded snapshot is *bit*-identical to the encoded state, not merely
//!   numerically close.

use crate::time::SimTime;

/// Magic bytes opening every snapshot file ("IDPA snapshot").
pub const MAGIC: [u8; 8] = *b"IDPASNP\0";

/// How a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a fixed-size field could be read.
    UnexpectedEof {
        /// Byte offset at which the read was attempted.
        offset: usize,
        /// Bytes the field needed.
        needed: usize,
    },
    /// The leading magic bytes are not [`MAGIC`].
    BadMagic,
    /// The format version is not one this build understands.
    UnsupportedVersion(u32),
    /// The payload length field disagrees with the bytes present.
    LengthMismatch {
        /// Length the header declared.
        declared: u64,
        /// Payload bytes actually present.
        present: u64,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum recorded in the frame.
        expected: u64,
        /// Checksum of the payload as received.
        actual: u64,
    },
    /// A collection length field exceeds the bytes remaining.
    LengthOverflow {
        /// Byte offset of the length field.
        offset: usize,
        /// The declared element count.
        declared: u64,
    },
    /// A field decoded to a value that is structurally impossible
    /// (e.g. a boolean byte that is neither 0 nor 1, an unknown enum tag).
    Invalid {
        /// Which field was malformed.
        what: &'static str,
    },
    /// Bytes remained after the payload was fully decoded.
    TrailingBytes {
        /// Number of undecoded bytes.
        remaining: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof { offset, needed } => {
                write!(f, "unexpected EOF at byte {offset} (needed {needed} more)")
            }
            CodecError::BadMagic => write!(f, "bad magic bytes (not an IDPA snapshot)"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            CodecError::LengthMismatch { declared, present } => write!(
                f,
                "payload length mismatch: header declares {declared} bytes, {present} present"
            ),
            CodecError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: expected {expected:#018x}, computed {actual:#018x}"
            ),
            CodecError::LengthOverflow { offset, declared } => write!(
                f,
                "collection length {declared} at byte {offset} exceeds remaining input"
            ),
            CodecError::Invalid { what } => write!(f, "malformed field: {what}"),
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after payload")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Byte length of the frame header in front of the payload: magic,
/// version, payload length.
pub const FRAME_HEADER_LEN: usize = MAGIC.len() + 4 + 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes`, one byte per step — the configuration
/// fingerprint, ledger digest and WAL record checksum.
///
/// Every step after a byte is absorbed (XOR with later bytes, multiply by
/// the odd FNV prime) is injective in the running hash, so any single-byte
/// change to the input changes the final value.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for byte in bytes {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The snapshot frame checksum: FNV-1a-64 absorbing the payload as
/// little-endian `u64` words, then the 0–7 tail bytes one at a time.
///
/// Each step is still a bijection in the absorbed word (XOR, then a
/// multiply by the odd FNV prime), so any change confined to one word —
/// in particular any single-byte change — changes the final value; the
/// decode-hardening suite relies on this to prove corrupted snapshots are
/// always rejected. It takes one multiply per eight bytes instead of one
/// per byte.
#[must_use]
pub fn frame_checksum(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let mut w = [0u8; 8];
        w.copy_from_slice(word);
        h ^= u64::from_le_bytes(w);
        h = h.wrapping_mul(FNV_PRIME);
    }
    for byte in words.remainder() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Little-endian primitive encoder appending to an owned buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    /// Wraps an existing buffer, appending after its current contents —
    /// lets hot paths encode straight onto a destination (or reuse a
    /// scratch allocation) instead of paying a fresh `Vec` per record.
    #[must_use]
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Enc { buf }
    }

    /// Starts a snapshot frame: the buffer opens with the frame header
    /// (its length field left zero) and everything encoded next is the
    /// payload. [`Enc::seal_frame`] finishes it in place.
    #[must_use]
    pub fn framed(version: u32) -> Self {
        let mut buf = Vec::with_capacity(FRAME_HEADER_LEN);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&version.to_le_bytes());
        buf.extend_from_slice(&[0u8; 8]);
        Enc { buf }
    }

    /// Finishes a frame begun by [`Enc::framed`]: patches the payload
    /// length into the header and appends the [`frame_checksum`], giving
    /// `MAGIC ‖ version:u32 ‖ payload_len:u64 ‖ payload ‖ checksum:u64`.
    ///
    /// # Panics
    ///
    /// If the encoder was not started by [`Enc::framed`].
    #[must_use]
    pub fn seal_frame(self) -> Vec<u8> {
        let mut buf = self.buf;
        assert!(
            buf.len() >= FRAME_HEADER_LEN && buf.starts_with(&MAGIC),
            "seal_frame needs an encoder started by Enc::framed"
        );
        let payload = &buf[FRAME_HEADER_LEN..];
        let len = payload.len() as u64;
        let checksum = frame_checksum(payload);
        buf[MAGIC.len() + 4..FRAME_HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf
    }

    /// Consumes the encoder, returning the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a boolean as a single 0/1 byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (snapshots are portable across word sizes).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` by bit pattern (exact round-trip, NaN-safe).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a [`SimTime`] by the bit pattern of its minutes.
    pub fn time(&mut self, t: SimTime) {
        self.f64(t.minutes());
    }

    /// Appends raw bytes with no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a collection length prefix (`u64`).
    pub fn seq_len(&mut self, len: usize) {
        self.u64(len as u64);
    }
}

/// Little-endian primitive decoder over a borrowed buffer.
///
/// Every read is bounds-checked and returns [`CodecError`] on failure;
/// nothing in this type panics on malformed input.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Creates a decoder over `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current byte offset.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                offset: self.pos,
                needed: n - self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a boolean; rejects any byte other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid { what: "bool byte" }),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        let mut arr = [0u8; 4];
        arr.copy_from_slice(b);
        Ok(u32::from_le_bytes(arr))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a `usize` encoded as `u64`, rejecting values beyond this
    /// platform's address range.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError::Invalid {
            what: "usize field",
        })
    }

    /// Reads an `f64` by bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a [`SimTime`]; rejects NaN, infinities and negative values
    /// (no valid snapshot contains them, and [`SimTime::new`] would panic).
    pub fn time(&mut self) -> Result<SimTime, CodecError> {
        let m = self.f64()?;
        if !(m.is_finite() && m >= 0.0) {
            return Err(CodecError::Invalid { what: "SimTime" });
        }
        Ok(SimTime::new(m))
    }

    /// Reads `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Reads a collection length prefix, validating it against the bytes
    /// remaining: each element of any encoded collection occupies at least
    /// `min_elem_bytes` bytes, so a declared count that could not possibly
    /// fit is rejected *before* any allocation.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let at = self.pos;
        let declared = self.u64()?;
        let fits = usize::try_from(declared)
            .ok()
            .and_then(|n| n.checked_mul(min_elem_bytes.max(1)))
            .is_some_and(|total| total <= self.remaining());
        if !fits {
            return Err(CodecError::LengthOverflow {
                offset: at,
                declared,
            });
        }
        #[allow(clippy::cast_possible_truncation)]
        Ok(declared as usize)
    }

    /// Asserts the input is fully consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Wraps `payload` in the snapshot frame:
/// `MAGIC ‖ version:u32 ‖ payload_len:u64 ‖ payload ‖ frame_checksum(payload):u64`
/// (the same bytes [`Enc::framed`] … [`Enc::seal_frame`] produce).
#[must_use]
pub fn frame(version: u32, payload: &[u8]) -> Vec<u8> {
    let mut e = Enc::framed(version);
    e.buf.reserve_exact(payload.len() + 8);
    e.raw(payload);
    e.seal_frame()
}

/// Validates a snapshot frame and returns the payload slice.
///
/// Checks, in order: magic bytes, format version (must equal
/// `expect_version`), declared-vs-present length, and payload checksum.
pub fn unframe(bytes: &[u8], expect_version: u32) -> Result<&[u8], CodecError> {
    let mut dec = Dec::new(bytes);
    let magic = dec.raw(MAGIC.len())?;
    if magic != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = dec.u32()?;
    if version != expect_version {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let declared = dec.u64()?;
    let present = dec.remaining().saturating_sub(8) as u64;
    if declared != present {
        return Err(CodecError::LengthMismatch { declared, present });
    }
    #[allow(clippy::cast_possible_truncation)]
    let payload = dec.raw(declared as usize)?;
    let expected = dec.u64()?;
    dec.finish()?;
    let actual = frame_checksum(payload);
    if expected != actual {
        return Err(CodecError::ChecksumMismatch { expected, actual });
    }
    Ok(payload)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut enc = Enc::new();
        enc.u8(7);
        enc.bool(true);
        enc.bool(false);
        enc.u32(0xDEAD_BEEF);
        enc.u64(u64::MAX - 1);
        enc.usize(123_456);
        enc.f64(-0.0);
        enc.f64(std::f64::consts::PI);
        enc.time(SimTime::new(1440.0));
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.u8().unwrap(), 7);
        assert!(dec.bool().unwrap());
        assert!(!dec.bool().unwrap());
        assert_eq!(dec.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.u64().unwrap(), u64::MAX - 1);
        assert_eq!(dec.usize().unwrap(), 123_456);
        assert_eq!(dec.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(dec.f64().unwrap(), std::f64::consts::PI);
        assert_eq!(dec.time().unwrap(), SimTime::new(1440.0));
        dec.finish().unwrap();
    }

    #[test]
    fn eof_is_typed() {
        let mut dec = Dec::new(&[1, 2, 3]);
        let err = dec.u64().unwrap_err();
        assert!(matches!(err, CodecError::UnexpectedEof { .. }));
    }

    #[test]
    fn bad_bool_is_typed() {
        let mut dec = Dec::new(&[2]);
        assert_eq!(
            dec.bool().unwrap_err(),
            CodecError::Invalid { what: "bool byte" }
        );
    }

    #[test]
    fn absurd_length_rejected_before_allocation() {
        let mut enc = Enc::new();
        enc.u64(u64::MAX / 2); // declares ~2^63 elements over an empty body
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let err = dec.seq_len(8).unwrap_err();
        assert!(matches!(err, CodecError::LengthOverflow { .. }));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let dec = Dec::new(&[0]);
        assert_eq!(
            dec.finish().unwrap_err(),
            CodecError::TrailingBytes { remaining: 1 }
        );
    }

    #[test]
    fn frame_round_trips() {
        let payload = b"snapshot payload".to_vec();
        let framed = frame(3, &payload);
        assert_eq!(unframe(&framed, 3).unwrap(), payload.as_slice());
    }

    #[test]
    fn frame_rejects_wrong_magic() {
        let mut framed = frame(1, b"x");
        framed[0] ^= 0xFF;
        assert_eq!(unframe(&framed, 1).unwrap_err(), CodecError::BadMagic);
    }

    #[test]
    fn frame_rejects_wrong_version() {
        let framed = frame(1, b"x");
        assert_eq!(
            unframe(&framed, 2).unwrap_err(),
            CodecError::UnsupportedVersion(1)
        );
    }

    #[test]
    fn frame_rejects_truncation() {
        let framed = frame(1, b"some payload");
        for cut in 0..framed.len() {
            let err = unframe(&framed[..cut], 1).unwrap_err();
            assert!(
                matches!(
                    err,
                    CodecError::UnexpectedEof { .. }
                        | CodecError::BadMagic
                        | CodecError::LengthMismatch { .. }
                ),
                "cut={cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn frame_rejects_any_payload_bit_flip() {
        let payload: Vec<u8> = (0u8..=255).collect();
        let framed = frame(1, &payload);
        let start = MAGIC.len() + 4 + 8;
        for i in start..start + payload.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x01;
            let err = unframe(&bad, 1).unwrap_err();
            assert!(
                matches!(err, CodecError::ChecksumMismatch { .. }),
                "flip at {i} gave {err:?}"
            );
        }
    }

    #[test]
    fn frame_rejects_any_single_byte_change_on_word_and_tail_paths() {
        // Lengths 0..=24 cover empty payloads, pure tails (< 8), whole
        // words and every word/tail mix up to three words.
        for len in 0..=24usize {
            let payload: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let framed = frame(5, &payload);
            assert_eq!(unframe(&framed, 5).unwrap(), payload.as_slice());
            for i in FRAME_HEADER_LEN..FRAME_HEADER_LEN + len {
                for delta in [0x01u8, 0x80, 0xFF] {
                    let mut bad = framed.clone();
                    bad[i] ^= delta;
                    let err = unframe(&bad, 5).unwrap_err();
                    assert!(
                        matches!(err, CodecError::ChecksumMismatch { .. }),
                        "len={len} byte={i} delta={delta:#x} gave {err:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn frame_checksum_reads_words_little_endian_then_the_tail() {
        // One hand-unrolled word step plus one tail step.
        let bytes = [1u8, 2, 3, 4, 5, 6, 7, 8, 9];
        let mut h = FNV_OFFSET;
        h ^= 0x0807_0605_0403_0201;
        h = h.wrapping_mul(FNV_PRIME);
        h ^= 9;
        h = h.wrapping_mul(FNV_PRIME);
        assert_eq!(frame_checksum(&bytes), h);
        // Under eight bytes it is the byte-wise FNV-1a.
        assert_eq!(frame_checksum(&bytes[..7]), fnv1a_64(&bytes[..7]));
    }

    #[test]
    fn older_snapshot_frames_are_rejected_by_version() {
        // Version 4 frames carried the byte-wise checksum, version 5 the
        // word-wise one over the payload layout with probe-store tags. A
        // version 6 reader must reject both by version, before looking at
        // the checksum or the payload.
        let payload = b"old snapshot payload";
        for (version, checksum) in [(4u32, fnv1a_64(payload)), (5, frame_checksum(payload))] {
            let mut old = Vec::new();
            old.extend_from_slice(&MAGIC);
            old.extend_from_slice(&version.to_le_bytes());
            old.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            old.extend_from_slice(payload);
            old.extend_from_slice(&checksum.to_le_bytes());
            assert_eq!(
                unframe(&old, 6).unwrap_err(),
                CodecError::UnsupportedVersion(version)
            );
        }
    }

    #[test]
    fn in_place_framing_matches_frame() {
        let mut e = Enc::framed(5);
        e.u64(42);
        e.raw(b"tail");
        let mut payload = Enc::new();
        payload.u64(42);
        payload.raw(b"tail");
        assert_eq!(e.seal_frame(), frame(5, &payload.into_bytes()));
    }

    #[test]
    #[should_panic(expected = "seal_frame needs an encoder started by Enc::framed")]
    fn sealing_an_unframed_encoder_panics() {
        let _ = Enc::new().seal_frame();
    }

    #[test]
    fn checksum_detects_checksum_field_corruption() {
        let framed = frame(1, b"payload");
        let mut bad = framed.clone();
        let n = bad.len();
        bad[n - 1] ^= 0x80;
        assert!(matches!(
            unframe(&bad, 1).unwrap_err(),
            CodecError::ChecksumMismatch { .. }
        ));
    }
}
