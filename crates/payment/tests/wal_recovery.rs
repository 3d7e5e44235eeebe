//! Crash-anywhere property suite for the write-ahead ledger.
//!
//! The durability claim is exact: a crash at *any* byte offset of the WAL
//! — torn final record, flipped byte, spliced frame — recovers to the
//! state reached by replaying the longest intact record prefix, which is
//! the state of an uninterrupted run over those operations. The suite
//! proves it exhaustively, one case per byte offset (well over the
//! 256-case floor: the reference log is several KiB long).

use std::collections::BTreeMap;

use idpa_desim::rng::Xoshiro256StarStar;
use idpa_payment::bank::AccountId;
use idpa_payment::ledger::Ledger;
use idpa_payment::monitor::InvariantMonitor;
use idpa_payment::token::TokenId;
use idpa_payment::wal::{scan, Wal};
use idpa_payment::Bank;

/// Deterministic serial from a counter (no crypto needed at this layer).
fn serial(i: u64) -> TokenId {
    let mut id = [0u8; 32];
    id[..8].copy_from_slice(&i.to_le_bytes());
    id[8] = 0xA5;
    TokenId(id)
}

/// Tiny deterministic generator (the payment crate has no RNG dep; the
/// workload only needs varied, reproducible amounts).
fn mix(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// A mixed workload that exercises every `LedgerOp` variant repeatedly,
/// producing a WAL long enough that byte-granular sweeps exceed the
/// 256-case acceptance floor many times over.
fn reference_ledger() -> Ledger {
    let mut l = Ledger::new();
    l.attach_wal(Wal::new());
    let mut state = 0x9a17u64;
    let accounts: Vec<AccountId> = (0..8).map(|i| l.open_account(1_000 + i * 37)).collect();
    let mut next_serial = 0u64;
    for round in 0..12u64 {
        for (i, &a) in accounts.iter().enumerate() {
            let amount = 1 + (mix(&mut state) % 50);
            if l.balance(a).unwrap_or(0) >= amount {
                l.withdraw(a, amount).expect("funds checked");
                let payee = accounts[(i + 1) % accounts.len()];
                l.deposit_serial(payee, serial(next_serial), amount)
                    .expect("fresh serial");
                next_serial += 1;
            }
            let to = accounts[(i + 3) % accounts.len()];
            let xfer = 1 + (mix(&mut state) % 20);
            if a != to && l.balance(a).unwrap_or(0) >= xfer {
                l.transfer(a, to, xfer).expect("funds checked");
            }
        }
        // One zero-sum epoch net per round.
        let mut net: BTreeMap<AccountId, i128> = BTreeMap::new();
        let d = 1 + (mix(&mut state) % 10) as i128;
        net.insert(accounts[0], -d);
        net.insert(accounts[7], d);
        l.apply_epoch_net(round, &net).expect("covered net");
    }
    l
}

/// Replay the intact prefix of `bytes` through a fresh ledger — the
/// independent oracle every recovery result is compared against.
fn oracle_replay(bytes: &[u8]) -> Ledger {
    let s = scan(bytes);
    let mut l = Ledger::new();
    for op in &s.ops {
        l.apply(op).expect("intact prefix ops always apply");
    }
    l
}

#[test]
fn truncation_at_every_byte_offset_recovers_the_intact_prefix() {
    let reference = reference_ledger();
    let full = reference.wal().expect("wal attached").committed_bytes();
    assert!(
        full.len() >= 2_048,
        "reference workload must dwarf the 256-case floor, got {} bytes",
        full.len()
    );
    let boundaries = scan(full).boundaries;
    let mut monitor = InvariantMonitor::new();
    for cut in 0..=full.len() {
        let (recovered, report) = Ledger::recover(&full[..cut]);
        // The accepted prefix is exactly the greatest record boundary ≤ cut.
        let expect_intact = boundaries.iter().rev().find(|&&b| b <= cut).copied();
        assert_eq!(
            report.bytes_replayed,
            expect_intact.unwrap_or(0),
            "cut at {cut}"
        );
        assert_eq!(report.torn_bytes, cut - report.bytes_replayed);
        // Crash ≡ uninterrupted over the surviving prefix.
        let oracle = oracle_replay(&full[..cut]);
        assert_eq!(recovered.digest(), oracle.digest(), "cut at {cut}");
        // Every recovered state satisfies every invariant.
        assert!(monitor.check_quick(&recovered).is_ok(), "cut at {cut}");
    }
    assert_eq!(monitor.violations(), 0);
}

#[test]
fn byte_flip_at_every_offset_recovers_a_valid_prefix() {
    let reference = reference_ledger();
    let full = reference.wal().expect("wal attached").committed_bytes();
    let boundaries = scan(full).boundaries;
    let mut monitor = InvariantMonitor::new();
    for offset in 0..full.len() {
        let mut corrupted = full.to_vec();
        corrupted[offset] ^= 0x40;
        let (recovered, report) = Ledger::recover(&corrupted);
        // The flip lands inside some record; everything before that
        // record's start must survive. (A flipped length field can widen
        // the frame so that checksum failure is detected at the *same*
        // record, never earlier.)
        let containing_start = boundaries
            .iter()
            .rev()
            .find(|&&b| b <= offset)
            .copied()
            .unwrap_or(0);
        assert!(
            report.bytes_replayed >= containing_start.min(offset),
            "flip at {offset}: replayed {} < containing record start {containing_start}",
            report.bytes_replayed
        );
        assert!(report.bytes_replayed <= corrupted.len(), "flip at {offset}");
        // Whatever prefix was accepted, it replays clean and conserves.
        let oracle = oracle_replay(&corrupted[..report.bytes_replayed]);
        assert_eq!(recovered.digest(), oracle.digest(), "flip at {offset}");
        assert!(monitor.check_quick(&recovered).is_ok(), "flip at {offset}");
        assert!(
            monitor.check_full(&recovered).is_empty(),
            "flip at {offset}"
        );
    }
    assert_eq!(monitor.violations(), 0);
}

#[test]
fn recovery_is_idempotent_at_every_truncation_point() {
    // recover(recover(x).wal) == recover(x): the recovered WAL is always
    // a clean image.
    let reference = reference_ledger();
    let full = reference.wal().expect("wal attached").committed_bytes();
    // Sample every 7th offset to keep runtime modest; the exhaustive
    // single-pass properties above cover the rest.
    for cut in (0..=full.len()).step_by(7) {
        let (first, _) = Ledger::recover(&full[..cut]);
        let first_wal = first.wal().expect("recover reattaches").committed_bytes();
        let (second, report) = Ledger::recover(first_wal);
        assert!(report.is_clean(), "cut at {cut}");
        assert_eq!(second.digest(), first.digest(), "cut at {cut}");
    }
}

#[test]
fn group_commit_crash_loses_only_unacknowledged_operations() {
    // Epoch-boundary group commit: ops staged since the last commit are
    // not durable; a crash discards exactly those and nothing else.
    let mut l = Ledger::new();
    l.attach_wal(Wal::new());
    l.set_group_commit(true);
    let a = l.open_account(500);
    let b = l.open_account(0);
    l.commit_wal(); // epoch boundary: accounts are durable
    let committed_digest = {
        let (r, _) = Ledger::recover(l.wal().expect("attached").committed_bytes());
        r.digest()
    };
    // Mid-epoch activity, staged only.
    l.withdraw(a, 50).expect("funds");
    l.deposit_serial(b, serial(999), 50).expect("fresh");
    assert_eq!(l.wal().expect("attached").staged_records(), 2);
    // Crash before the boundary: the durable image still holds only the
    // committed prefix.
    let (recovered, report) = Ledger::recover(l.wal().expect("attached").committed_bytes());
    assert!(report.is_clean());
    assert_eq!(recovered.digest(), committed_digest);
    assert_eq!(recovered.balance(a), Some(500), "staged ops lost, not torn");
    // And committing instead of crashing makes them durable.
    l.commit_wal();
    let (after, _) = Ledger::recover(l.wal().expect("attached").committed_bytes());
    assert_eq!(after.balance(a), Some(450));
    assert_eq!(after.balance(b), Some(50));
}

#[test]
fn torn_final_record_fragments_of_every_length_are_discarded() {
    // Simulate the torn-write crash class end to end: a valid log plus a
    // fragment of the next record, at every fragment length.
    let mut l = Ledger::new();
    l.attach_wal(Wal::new());
    let a = l.open_account(100);
    let next = idpa_payment::wal::LedgerOp::Withdraw {
        account: a,
        value: 10,
    };
    let record = next.encode_record();
    let base = l.wal().expect("attached").committed_bytes().to_vec();
    for frag in 0..record.len() {
        let mut torn = base.clone();
        torn.extend_from_slice(&record[..frag]);
        let (recovered, report) = Ledger::recover(&torn);
        assert_eq!(report.bytes_replayed, base.len(), "fragment {frag}");
        assert_eq!(report.torn_bytes, frag, "fragment {frag}");
        assert_eq!(recovered.balance(a), Some(100), "fragment {frag}");
        assert_eq!(frag == 0, report.is_clean(), "fragment {frag}");
    }
    // The complete record, of course, applies.
    let mut whole = base.clone();
    whole.extend_from_slice(&record);
    let (recovered, report) = Ledger::recover(&whole);
    assert!(report.is_clean());
    assert_eq!(recovered.balance(a), Some(90));
}

#[test]
fn bank_recover_pairs_keys_with_the_replayed_ledger() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xba77);
    let mut bank = Bank::new(256, &mut rng);
    bank.enable_wal();
    let alice = bank.open_account(64);
    let bob = bank.open_account(0);
    let mut wallet = idpa_payment::Wallet::new();
    bank.withdraw_into_wallet(alice, 8, &mut wallet, &mut rng)
        .expect("funds");
    for t in wallet.take_exact(8).expect("exact") {
        bank.deposit(bob, &t).expect("valid token");
    }
    let image = bank
        .ledger()
        .wal()
        .expect("wal enabled")
        .committed_bytes()
        .to_vec();
    // Crash with a torn tail, recover with the same keys.
    let mut torn = image.clone();
    torn.extend_from_slice(&image[..13]);
    let (recovered, report) = Bank::recover(bank.keys().clone(), &torn);
    assert!(!report.is_clean());
    assert_eq!(
        recovered.ledger().balance(alice),
        bank.ledger().balance(alice)
    );
    assert_eq!(recovered.ledger().balance(bob), bank.ledger().balance(bob));
    assert_eq!(
        recovered.ledger().outstanding(),
        bank.ledger().outstanding()
    );
    assert_eq!(
        recovered.ledger().audit().head(),
        bank.ledger().audit().head()
    );
    assert!(recovered.ledger().audit().verify_chain());
}
