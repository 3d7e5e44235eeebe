//! Write-ahead ledger log: the durability substrate of the bank.
//!
//! Every state-mutating ledger operation is encoded as a [`LedgerOp`],
//! wrapped in the codec frame simulation snapshots use
//! (`WAL_MAGIC ‖ version ‖ payload_len ‖ payload ‖ frame_checksum(payload)`,
//! see `idpa_desim::codec`) and appended to the log *before* the in-memory
//! state mutates. The contract is **logged = committed**: only operations
//! that already passed validation are appended, so replaying any intact
//! prefix of the log always succeeds and reproduces the exact ledger state
//! at the moment that prefix was durable.
//!
//! A crash can leave a *torn tail* — a final record whose bytes were only
//! partially written. Recovery ([`scan`], driven by
//! [`crate::ledger::Ledger::recover`]) replays the longest prefix of
//! intact records and discards everything from the first record whose
//! frame fails the codec's magic, version, length or checksum check, or
//! whose payload fails to decode. The
//! crash-anywhere property suite in `tests/wal_recovery.rs` truncates and
//! flips the log at every byte offset to prove recovery ≡ replaying the
//! intact prefix.

use std::collections::BTreeMap;
use std::ops::Range;

use idpa_desim::codec::{unframe_prefix, CodecError, Dec, Enc, FRAME_HEADER_BYTES};

use crate::bank::AccountId;
use crate::token::TokenId;

/// Magic bytes opening every WAL record ("IDPA write-ahead log").
const WAL_MAGIC: [u8; 8] = *b"IDPAWAL\0";

/// WAL record format version. Version 1 records carried a byte-wise
/// FNV-1a checksum; version 2 records use the codec frame and its
/// word-wise checksum.
const WAL_VERSION: u32 = 2;

/// One state-mutating ledger operation, as logged — the one description
/// of a ledger mutation: the WAL frames its payload and the audit chain
/// ([`crate::AuditLog`]) hashes the same bytes.
///
/// `Open` carries no account id: replay re-assigns ids from the ledger's
/// sequential counter, which reproduces the original assignment exactly
/// (ids are allocated in log order by construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerOp {
    /// Open a new account with an initial balance (mints value).
    Open {
        /// Opening balance.
        balance: u64,
    },
    /// Debit an account for a blind withdrawal (value becomes outstanding
    /// bearer liability).
    Withdraw {
        /// Debited account.
        account: AccountId,
        /// Face value withdrawn.
        value: u64,
    },
    /// Credit a deposited token's face value (serial enters the spent set).
    Deposit {
        /// Credited account.
        account: AccountId,
        /// Full token serial (the bank legitimately sees it at spend time).
        serial: TokenId,
        /// Face value deposited.
        value: u64,
    },
    /// Account-to-account ledger transfer.
    Transfer {
        /// Source account.
        from: AccountId,
        /// Destination account.
        to: AccountId,
        /// Amount moved.
        amount: u64,
    },
    /// One epoch's netted balance deltas, applied atomically.
    EpochNet {
        /// The settled epoch (0-based).
        epoch: u64,
        /// Signed delta per account (ascending account order).
        deltas: BTreeMap<AccountId, i128>,
    },
}

impl LedgerOp {
    /// Encodes the record payload (everything inside the frame).
    fn encode_payload_into(&self, e: &mut Enc) {
        match self {
            LedgerOp::Open { balance } => {
                e.u8(0);
                e.u64(*balance);
            }
            LedgerOp::Withdraw { account, value } => {
                e.u8(1);
                e.u64(account.0);
                e.u64(*value);
            }
            LedgerOp::Deposit {
                account,
                serial,
                value,
            } => {
                e.u8(2);
                e.u64(account.0);
                e.raw(&serial.0);
                e.u64(*value);
            }
            LedgerOp::Transfer { from, to, amount } => {
                e.u8(3);
                e.u64(from.0);
                e.u64(to.0);
                e.u64(*amount);
            }
            LedgerOp::EpochNet { epoch, deltas } => {
                e.u8(4);
                e.u64(*epoch);
                e.seq_len(deltas.len());
                for (account, delta) in deltas {
                    e.u64(account.0);
                    e.raw(&delta.to_le_bytes());
                }
            }
        }
    }

    /// Replaces `buf`'s contents with the record payload — what the audit
    /// chain hashes for an op that was not framed into a WAL. The caller
    /// reuses `buf`, so a steady stream of ops allocates nothing.
    pub(crate) fn encode_payload_onto(&self, buf: &mut Vec<u8>) {
        buf.clear();
        let mut e = Enc::onto(std::mem::take(buf));
        self.encode_payload_into(&mut e);
        *buf = e.into_bytes();
    }

    /// Decodes a record payload; any malformation maps to a typed
    /// [`CodecError`] (never a panic).
    fn decode_payload(payload: &[u8]) -> Result<LedgerOp, CodecError> {
        let mut d = Dec::new(payload);
        let op = match d.u8()? {
            0 => LedgerOp::Open { balance: d.u64()? },
            1 => LedgerOp::Withdraw {
                account: AccountId(d.u64()?),
                value: d.u64()?,
            },
            2 => {
                let account = AccountId(d.u64()?);
                let mut serial = [0u8; 32];
                serial.copy_from_slice(d.raw(32)?);
                LedgerOp::Deposit {
                    account,
                    serial: TokenId(serial),
                    value: d.u64()?,
                }
            }
            3 => LedgerOp::Transfer {
                from: AccountId(d.u64()?),
                to: AccountId(d.u64()?),
                amount: d.u64()?,
            },
            4 => {
                let epoch = d.u64()?;
                // Each delta entry is 8 (account) + 16 (i128) bytes.
                let n = d.seq_len(24)?;
                let mut deltas = BTreeMap::new();
                let mut last: Option<u64> = None;
                for _ in 0..n {
                    let account = d.u64()?;
                    if last.is_some_and(|prev| prev >= account) {
                        return Err(CodecError::Invalid {
                            what: "epoch-net account order",
                        });
                    }
                    last = Some(account);
                    let mut bytes = [0u8; 16];
                    bytes.copy_from_slice(d.raw(16)?);
                    deltas.insert(AccountId(account), i128::from_le_bytes(bytes));
                }
                LedgerOp::EpochNet { epoch, deltas }
            }
            _ => {
                return Err(CodecError::Invalid {
                    what: "ledger-op tag",
                })
            }
        };
        d.finish()?;
        Ok(op)
    }

    /// Encodes the full framed record:
    /// `WAL_MAGIC ‖ version:u32 ‖ payload_len:u64 ‖ payload ‖ checksum:u64`.
    #[must_use]
    pub fn encode_record(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_record_onto(&mut out);
        out
    }

    /// Appends the framed record directly onto `out` — the append hot
    /// path — and returns where its payload landed in `out`. The frame is
    /// written in place at the end of `out`, so a settlement-rate append
    /// costs no intermediate allocation or copy.
    fn encode_record_onto(&self, out: &mut Vec<u8>) -> Range<usize> {
        let start = out.len() + FRAME_HEADER_BYTES;
        let mut e = Enc::framed_onto(std::mem::take(out), WAL_MAGIC, WAL_VERSION);
        self.encode_payload_into(&mut e);
        let end = e.len();
        *out = e.seal_frame();
        start..end
    }
}

/// Result of scanning a WAL byte stream for its intact record prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// The decoded intact records, oldest first.
    pub ops: Vec<LedgerOp>,
    /// End offset of each intact record (`boundaries[i]` is the byte
    /// length of the prefix holding records `0..=i`).
    pub boundaries: Vec<usize>,
    /// Length in bytes of the intact prefix (every record before the first
    /// defect).
    pub intact_len: usize,
    /// Why scanning stopped before the end of the input (`None` = the
    /// whole input is intact).
    pub defect: Option<CodecError>,
}

/// Decodes the longest intact prefix of `bytes` as framed records.
///
/// Never panics and never errors: a defect anywhere (bad magic, version,
/// length, checksum, payload) terminates the scan at the last intact
/// record boundary and is reported in [`WalScan::defect`]. This is the
/// torn-write recovery rule — a crash mid-append leaves a partial final
/// record, which the checksum/length checks reject deterministically.
#[must_use]
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut ops = Vec::new();
    let mut boundaries = Vec::new();
    let mut at = 0usize;
    let defect = loop {
        if at == bytes.len() {
            break None;
        }
        let record = unframe_prefix(&bytes[at..], WAL_MAGIC, WAL_VERSION)
            .and_then(|(payload, len)| Ok((LedgerOp::decode_payload(payload)?, len)));
        match record {
            Ok((op, len)) => {
                ops.push(op);
                at += len;
                boundaries.push(at);
            }
            Err(e) => break Some(e),
        }
    };
    WalScan {
        ops,
        boundaries,
        intact_len: at,
        defect,
    }
}

/// The append-only write-ahead log (the durable medium, abstracted as an
/// owned byte buffer).
///
/// Appends go either straight to the committed image (`append`) or into a
/// staging buffer (`stage`) that [`Wal::commit`] makes durable as one
/// group — the epoch-boundary group-commit. Only `committed_bytes()`
/// survive a crash; staged bytes are lost with the process.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Wal {
    committed: Vec<u8>,
    staged: Vec<u8>,
    committed_records: u64,
    staged_records: u64,
}

impl Wal {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Wal::default()
    }

    /// Rebuilds a log around an already-verified intact byte prefix (the
    /// recovery path: the caller scanned `bytes` and counted `records`).
    #[must_use]
    pub(crate) fn from_recovered(bytes: Vec<u8>, records: u64) -> Self {
        Wal {
            committed: bytes,
            staged: Vec::new(),
            committed_records: records,
            staged_records: 0,
        }
    }

    /// Appends one record durably (per-op commit); returns its payload.
    pub fn append(&mut self, op: &LedgerOp) -> &[u8] {
        let payload = op.encode_record_onto(&mut self.committed);
        self.committed_records += 1;
        &self.committed[payload]
    }

    /// Appends one record to the staging buffer (group commit: durable
    /// only after [`Wal::commit`]); returns its payload.
    pub fn stage(&mut self, op: &LedgerOp) -> &[u8] {
        let payload = op.encode_record_onto(&mut self.staged);
        self.staged_records += 1;
        &self.staged[payload]
    }

    /// Makes all staged records durable as one group. Returns how many
    /// records the group contained.
    pub fn commit(&mut self) -> u64 {
        let n = self.staged_records;
        self.committed.append(&mut self.staged);
        self.committed_records += n;
        self.staged_records = 0;
        n
    }

    /// Appends raw bytes to the committed image *without* a record frame —
    /// the crash-simulation hook used to model a torn final record (and by
    /// fuzzing to splice garbage). Never used on the clean path.
    pub fn append_torn(&mut self, bytes: &[u8]) {
        self.committed.extend_from_slice(bytes);
    }

    /// Truncates the committed image to `len` bytes (discarding a torn
    /// tail identified by recovery).
    pub fn truncate(&mut self, len: usize) {
        self.committed.truncate(len);
    }

    /// The durable byte image (what survives a crash).
    #[must_use]
    pub fn committed_bytes(&self) -> &[u8] {
        &self.committed
    }

    /// Durable length in bytes.
    #[must_use]
    pub fn committed_len(&self) -> usize {
        self.committed.len()
    }

    /// Number of durably committed records.
    #[must_use]
    pub fn committed_records(&self) -> u64 {
        self.committed_records
    }

    /// Records staged but not yet committed.
    #[must_use]
    pub fn staged_records(&self) -> u64 {
        self.staged_records
    }

    /// Drops all staged (uncommitted) records — what a crash does to the
    /// in-memory group buffer.
    pub fn discard_staged(&mut self) {
        self.staged.clear();
        self.staged_records = 0;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;

    /// The record payload of `op` (everything inside the frame).
    fn encode_payload(op: &LedgerOp) -> Vec<u8> {
        let mut e = Enc::new();
        op.encode_payload_into(&mut e);
        e.into_bytes()
    }

    fn sample_ops() -> Vec<LedgerOp> {
        let mut deltas = BTreeMap::new();
        deltas.insert(AccountId(0), -17i128);
        deltas.insert(AccountId(1), 17i128);
        vec![
            LedgerOp::Open { balance: 100 },
            LedgerOp::Open { balance: 0 },
            LedgerOp::Withdraw {
                account: AccountId(0),
                value: 37,
            },
            LedgerOp::Deposit {
                account: AccountId(1),
                serial: TokenId([7u8; 32]),
                value: 37,
            },
            LedgerOp::Transfer {
                from: AccountId(1),
                to: AccountId(0),
                amount: 5,
            },
            LedgerOp::EpochNet { epoch: 3, deltas },
        ]
    }

    #[test]
    fn ops_round_trip_through_records() {
        for op in sample_ops() {
            let rec = op.encode_record();
            let s = scan(&rec);
            assert_eq!(s.defect, None);
            assert_eq!(s.intact_len, rec.len());
            assert_eq!(s.ops, vec![op]);
        }
    }

    #[test]
    fn scan_reads_a_whole_log() {
        let ops = sample_ops();
        let mut wal = Wal::new();
        for op in &ops {
            wal.append(op);
        }
        let s = scan(wal.committed_bytes());
        assert_eq!(s.ops, ops);
        assert_eq!(s.intact_len, wal.committed_len());
        assert_eq!(s.defect, None);
        assert_eq!(wal.committed_records(), ops.len() as u64);
    }

    #[test]
    fn truncation_anywhere_yields_an_intact_prefix() {
        let ops = sample_ops();
        let mut wal = Wal::new();
        let mut boundaries = vec![0usize];
        for op in &ops {
            wal.append(op);
            boundaries.push(wal.committed_len());
        }
        let bytes = wal.committed_bytes();
        for cut in 0..=bytes.len() {
            let s = scan(&bytes[..cut]);
            // The intact prefix is the greatest record boundary <= cut.
            let k = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(s.intact_len, boundaries[k], "cut at {cut}");
            assert_eq!(s.ops, ops[..k], "cut at {cut}");
            assert_eq!(s.defect.is_some(), cut != boundaries[k], "cut at {cut}");
        }
    }

    #[test]
    fn byte_flip_anywhere_stops_at_the_corrupt_record() {
        let ops = sample_ops();
        let mut wal = Wal::new();
        let mut boundaries = vec![0usize];
        for op in &ops {
            wal.append(op);
            boundaries.push(wal.committed_len());
        }
        let clean = wal.committed_bytes().to_vec();
        for at in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x40;
            let s = scan(&bytes);
            // Records strictly before the flipped record decode intact.
            let k = boundaries.iter().filter(|&&b| b <= at).count() - 1;
            assert_eq!(s.intact_len, boundaries[k], "flip at {at}");
            assert_eq!(s.ops, ops[..k], "flip at {at}");
            assert!(s.defect.is_some(), "flip at {at} must be detected");
        }
    }

    #[test]
    fn group_commit_stages_until_commit() {
        let ops = sample_ops();
        let mut wal = Wal::new();
        for op in &ops {
            wal.stage(op);
        }
        assert_eq!(wal.committed_len(), 0, "staged bytes are not durable");
        assert_eq!(wal.staged_records(), ops.len() as u64);
        assert_eq!(wal.commit(), ops.len() as u64);
        assert_eq!(wal.staged_records(), 0);
        let s = scan(wal.committed_bytes());
        assert_eq!(s.ops, ops);
    }

    #[test]
    fn torn_append_is_rejected_by_scan() {
        let mut wal = Wal::new();
        wal.append(&LedgerOp::Open { balance: 9 });
        let intact = wal.committed_len();
        let rec = LedgerOp::Open { balance: 10 }.encode_record();
        wal.append_torn(&rec[..rec.len() - 3]);
        let s = scan(wal.committed_bytes());
        assert_eq!(s.intact_len, intact);
        assert_eq!(s.ops.len(), 1);
        assert!(s.defect.is_some());
        wal.truncate(intact);
        assert_eq!(scan(wal.committed_bytes()).defect, None);
    }

    #[test]
    fn records_use_the_codec_frame_and_reject_other_versions() {
        use idpa_desim::codec::{frame, frame_checksum};
        let op = LedgerOp::Open { balance: 9 };
        let payload = encode_payload(&op);
        let rec = op.encode_record();
        assert_eq!(rec, frame(WAL_MAGIC, WAL_VERSION, &payload));
        assert_eq!(
            Wal::new().append(&op),
            payload,
            "append returns the payload"
        );
        assert_eq!(rec.len(), FRAME_HEADER_BYTES + payload.len() + 8);
        // A version 1 record (same layout, byte-wise checksum) is rejected
        // by version before its checksum is read.
        let mut old = rec.clone();
        old[8..12].copy_from_slice(&1u32.to_le_bytes());
        let n = old.len();
        old[n - 8..].copy_from_slice(&frame_checksum(&payload).to_le_bytes());
        let s = scan(&old);
        assert_eq!(s.intact_len, 0);
        assert_eq!(s.defect, Some(CodecError::UnsupportedVersion(1)));
    }

    #[test]
    fn unordered_epoch_net_payload_rejected() {
        let mut deltas = BTreeMap::new();
        deltas.insert(AccountId(2), 1i128);
        deltas.insert(AccountId(5), -1i128);
        let op = LedgerOp::EpochNet { epoch: 0, deltas };
        let mut payload = encode_payload(&op);
        // Swap the two account ids (bytes 17.. and 41..) to break ordering.
        let (a, b) = (17, 41);
        for i in 0..8 {
            payload.swap(a + i, b + i);
        }
        assert!(matches!(
            LedgerOp::decode_payload(&payload),
            Err(CodecError::Invalid { .. })
        ));
    }
}
