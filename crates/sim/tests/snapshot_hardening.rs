//! Decode hardening for service-mode snapshots: **no input, however
//! mangled, may panic the decoder or silently misdecode** — corruption is
//! a typed [`SimError`], always.
//!
//! Three attack layers, well over 256 cases total (asserted, so the sweep
//! can't silently shrink):
//!
//! 1. **Raw byte flips** — any single-bit change to the file is caught by
//!    the frame checksum (or the magic/version/length checks in front of
//!    it) and must decode to `Err`, never a panic.
//! 2. **Truncations** — every prefix of a valid snapshot must decode to
//!    `Err`.
//! 3. **Checksum-fixed tampering** — the hard layer: payload bytes are
//!    corrupted *and the checksum recomputed*, so the frame is pristine
//!    and the structural validators (index bounds, float validity,
//!    ordering invariants, cross-field lengths, the durable bank's WAL
//!    scan and ledger sweep) are the only line of defense. The decoder
//!    must return `Ok` (the flip hit genuinely free state, e.g. an RNG
//!    word) or a typed `Err` — and never panic or abort. A snapshot that
//!    restores is run to its horizon and finished, so state the decoder
//!    accepted cannot panic the resumed run either.
//!
//! A final test checks the no-partial-mutation contract the service
//! runner relies on: a failed restore leaves nothing behind — a
//! subsequent restore of the intact snapshot still reproduces the
//! uninterrupted run exactly.

use idpa_desim::codec::{fnv1a_64, frame_checksum, FRAME_HEADER_BYTES};
use idpa_desim::rng::StreamFactory;
use idpa_desim::{Engine, FaultConfig, FaultResponse, SimTime};
use idpa_sim::snapshot::{encode, restore};
use idpa_sim::{
    BankDurability, ScenarioConfig, SettlementMode, SimError, SimulationRun, WorkloadMode, World,
};
use rand::RngExt;

/// Scenario variants chosen to exercise every optional snapshot section:
/// fault-free closed, faulty adaptive, epoch settlement, idle eviction,
/// open workload with windowed metrics, and the durable bank (WAL image,
/// account map, crash counters) under both settlement modes.
fn scenarios() -> Vec<ScenarioConfig> {
    let base = ScenarioConfig {
        ..ScenarioConfig::quick_test(5)
    };
    vec![
        base,
        ScenarioConfig {
            fault: FaultConfig {
                crash_rate: 0.05,
                drop_rate: 0.1,
                cheat_fraction: 0.3,
                cheat_corrupt_share: 0.5,
                response: FaultResponse::Adaptive,
                ..FaultConfig::default()
            },
            weights: (0.4, 0.4),
            reputation_weight: 0.2,
            ..base
        },
        ScenarioConfig {
            fault: FaultConfig {
                crash_rate: 0.04,
                drop_rate: 0.06,
                ..FaultConfig::default()
            },
            settlement: SettlementMode::Epoch,
            evict_idle_ticks: Some(2),
            ..base
        },
        ScenarioConfig {
            workload: WorkloadMode::Open,
            open_arrival_rate: 0.02,
            window_len: base.churn.horizon / 8.0,
            window_warmup: base.churn.horizon / 8.0,
            ..base
        },
        durable(base, SettlementMode::PerBundle),
        durable(base, SettlementMode::Epoch),
    ]
}

/// `fnv1a_64` of `mid_run_snapshot` for each of [`scenarios`], in order.
const FRAME_PINS: [u64; 6] = [
    0x9750_283a_e05b_4800,
    0xbf31_4669_300e_205c,
    0x2e8a_655a_92fe_c842,
    0xc18e_e1f0_a9e5_e829,
    0xc73b_a833_2955_f6f0,
    0x3a2f_976e_7cfa_e9d6,
];

/// `base` with the durable bank on, real settlement traffic and seeded
/// bank crashes.
fn durable(base: ScenarioConfig, settlement: SettlementMode) -> ScenarioConfig {
    ScenarioConfig {
        fault: FaultConfig {
            drop_rate: 0.05,
            cheat_fraction: 0.2,
            bank_crash_rate: 0.2,
            ..FaultConfig::default()
        },
        settlement,
        bank_durability: BankDurability::Wal,
        ..base
    }
}

/// A mid-run snapshot of `cfg` (deep enough that every accumulator holds
/// real state).
fn mid_run_snapshot(cfg: &ScenarioConfig) -> Vec<u8> {
    let world = World::generate(cfg);
    let mut run = SimulationRun::new(*cfg, world);
    let mut engine = Engine::new();
    run.schedule_all(&mut engine);
    engine.set_event_budget(400);
    engine.run(&mut run, Some(SimTime::new(cfg.churn.horizon)));
    encode(&run, &engine)
}

/// Recomputes and rewrites the trailing checksum over the payload with the
/// codec's own [`frame_checksum`], so a tampered snapshot passes the frame
/// and reaches the structural decoder.
fn reseal(bytes: &mut [u8]) {
    let n = bytes.len();
    let payload = &bytes[FRAME_HEADER_BYTES..n - 8];
    let sum = frame_checksum(payload).to_le_bytes();
    bytes[n - 8..].copy_from_slice(&sum);
}

/// Restores a resealed, tampered snapshot. The decoder may accept it (the
/// flip hit free state) or reject it with a typed error; an accepted one
/// is run to its horizon and finished, which must not panic either.
fn restore_and_finish(cfg: &ScenarioConfig, bytes: &[u8]) {
    if let Ok((mut run, mut engine)) = restore(cfg, bytes) {
        engine.run(&mut run, Some(SimTime::new(cfg.churn.horizon)));
        let _ = run.finish();
    }
}

/// `restore` on a snapshot that must not decode; returns the typed error.
/// (Plain `expect_err` needs the `Ok` side to be `Debug`, which
/// `Engine<Ev>` deliberately isn't.)
fn must_fail(cfg: &ScenarioConfig, bytes: &[u8], what: &str) -> SimError {
    match restore(cfg, bytes) {
        Ok(_) => panic!("{what}: mangled snapshot decoded"),
        Err(e) => e,
    }
}

#[test]
fn flips_truncations_and_resealed_tampering_never_panic() {
    let mut cases = 0usize;

    for cfg in scenarios() {
        let bytes = mid_run_snapshot(&cfg);
        let mut rng = StreamFactory::new(0xFEED).stream("hardening");

        // Layer 1 — raw flips: 40 per scenario, all typed errors.
        for _ in 0..40 {
            let pos = rng.random_range(0..bytes.len());
            let bit = rng.random_range(0..8u32);
            let mut mangled = bytes.clone();
            mangled[pos] ^= 1 << bit;
            assert!(
                restore(&cfg, &mangled).is_err(),
                "flip at byte {pos} bit {bit} must not decode"
            );
            cases += 1;
        }

        // Layer 2 — truncations: every length from empty to one short, in
        // strides, plus the boundary cuts around the frame header.
        let mut cuts: Vec<usize> = (0..bytes.len()).step_by(97.max(bytes.len() / 16)).collect();
        cuts.extend([0, 1, 7, 8, 11, 12, 19, 20, bytes.len() - 9, bytes.len() - 1]);
        for cut in cuts {
            assert!(
                restore(&cfg, &bytes[..cut]).is_err(),
                "truncation to {cut} bytes must not decode"
            );
            cases += 1;
        }

        // Layer 3 — checksum-fixed tampering: the structural validators
        // are on their own. Any outcome but a panic is acceptable. Random
        // flips anywhere in the payload, then a sweep over its tail, where
        // the settlement windows and the durable-bank block sit, and a
        // low-bit flip of each of its last 64 bytes, which lowers as often
        // as raises the position keys and counters stored there.
        for _ in 0..30 {
            let pos = rng.random_range(20..bytes.len() - 8);
            let bit = rng.random_range(0..8u32);
            let mut mangled = bytes.clone();
            mangled[pos] ^= 1 << bit;
            reseal(&mut mangled);
            restore_and_finish(&cfg, &mangled);
            cases += 1;
        }
        let payload_end = bytes.len() - 8;
        let tail_start = payload_end.saturating_sub(3_000).max(FRAME_HEADER_BYTES);
        let sweep = (tail_start..payload_end).step_by(7).map(|pos| (pos, 0x10));
        let last = (payload_end - 64..payload_end).map(|pos| (pos, 0x01));
        for (pos, bit) in sweep.chain(last) {
            let mut mangled = bytes.clone();
            mangled[pos] ^= bit;
            reseal(&mut mangled);
            restore_and_finish(&cfg, &mangled);
            cases += 1;
        }
    }

    assert!(cases >= 256, "hardening sweep shrank to {cases} cases");
}

/// The frame bytes of each scenario's mid-run snapshot, pinned by their
/// FNV-1a-64 digest: any layout change (a field added, dropped, reordered
/// or re-encoded) moves a pin and must come with a `SNAPSHOT_VERSION` bump.
#[test]
fn frame_bytes_are_pinned() {
    let digests: Vec<u64> = scenarios()
        .iter()
        .map(|cfg| fnv1a_64(&mid_run_snapshot(cfg)))
        .collect();
    assert_eq!(digests, FRAME_PINS);
}

/// Deterministic header attacks hit their dedicated frame checks.
#[test]
fn frame_layer_rejects_each_header_field() {
    let cfg = scenarios().remove(0);
    let bytes = mid_run_snapshot(&cfg);

    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    let err = must_fail(&cfg, &bad_magic, "bad magic");
    assert!(matches!(err, SimError::SnapshotCodec { .. }), "{err}");
    assert!(err.to_string().contains("magic"), "{err}");

    let mut bad_version = bytes.clone();
    bad_version[8] = 0xEE;
    let err = must_fail(&cfg, &bad_version, "bad version");
    assert!(err.to_string().contains("version"), "{err}");

    let mut bad_len = bytes.clone();
    bad_len[12] ^= 0x01;
    let err = must_fail(&cfg, &bad_len, "bad length");
    assert!(matches!(err, SimError::SnapshotCodec { .. }), "{err}");

    let mut bad_sum = bytes.clone();
    let n = bad_sum.len();
    bad_sum[n - 1] ^= 0x01;
    let err = must_fail(&cfg, &bad_sum, "bad checksum");
    assert!(err.to_string().contains("checksum"), "{err}");
}

/// A resealed flip of the very first payload field (the configuration
/// fingerprint) must be caught as a scenario mismatch — the structural
/// layer's first gate.
#[test]
fn resealed_fingerprint_flip_is_a_mismatch() {
    let cfg = scenarios().remove(0);
    let mut bytes = mid_run_snapshot(&cfg);
    bytes[20] ^= 0x01;
    reseal(&mut bytes);
    assert_eq!(
        must_fail(&cfg, &bytes, "fingerprint must gate"),
        SimError::SnapshotMismatch {
            what: "configuration fingerprint"
        }
    );
}

/// No partial mutation: after an arbitrary number of failed restores, the
/// intact snapshot still resumes to the exact uninterrupted result.
#[test]
fn failed_restores_leave_no_trace() {
    let cfg = ScenarioConfig {
        fault: FaultConfig {
            crash_rate: 0.05,
            drop_rate: 0.1,
            ..FaultConfig::default()
        },
        ..ScenarioConfig::quick_test(9)
    };
    let baseline = SimulationRun::execute(cfg);
    let bytes = mid_run_snapshot(&cfg);

    let mut rng = StreamFactory::new(0xBEEF).stream("no-trace");
    for _ in 0..64 {
        let pos = rng.random_range(0..bytes.len());
        let mut mangled = bytes.clone();
        mangled[pos] ^= 0x10;
        let _ = restore(&cfg, &mangled);
    }

    let (mut run, mut engine) = restore(&cfg, &bytes).expect("intact snapshot");
    engine.run(&mut run, Some(SimTime::new(cfg.churn.horizon)));
    assert_eq!(baseline, run.finish());
}
