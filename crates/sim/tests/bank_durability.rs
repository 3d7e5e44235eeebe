//! Durable-bank equivalence suite: **crash anywhere, fail over, and the
//! run is indistinguishable from one that never crashed** — across
//! settlement modes and seeds, with and without torn final
//! records, and straight through snapshot/resume. Plus the backstop the
//! whole layer rides on: `--bank-durability off` replays the pinned
//! fingerprints byte-identically, so the default path never paid for the
//! new machinery.

use idpa_desim::{Engine, FaultConfig, SimTime};
use idpa_sim::snapshot::{encode, restore};
use idpa_sim::{BankDurability, RunResult, ScenarioConfig, SettlementMode, SimulationRun, World};

mod common;
use common::{base, fingerprint, BASELINE};

/// A scenario with real settlement traffic and the durable bank on.
fn durable(seed: u64, settlement: SettlementMode, crash: f64) -> ScenarioConfig {
    let mut cfg = base(seed, Some(3));
    cfg.settlement = settlement;
    cfg.bank_durability = BankDurability::Wal;
    cfg.fault = FaultConfig {
        drop_rate: 0.08,
        cheat_fraction: 0.2,
        bank_crash_rate: crash,
        bank_crash_torn_share: 0.5,
        ..FaultConfig::default()
    };
    cfg.validate().expect("durable scenario must be valid");
    cfg
}

/// Zeroes the fields that legitimately differ between a crashing and a
/// non-crashing run — the recovery counters. Everything else (including
/// WAL byte/record counts and the final ledger digest) must be equal.
fn scrub(mut r: RunResult) -> RunResult {
    r.bank_crashes = 0;
    r.bank_torn_tails = 0;
    r.bank_records_replayed = 0;
    r.bank_monitor_checks = 0;
    r
}

#[test]
fn failover_anywhere_is_bit_identical_to_no_failover() {
    let mut total_crashes = 0u64;
    let mut total_torn = 0u64;
    for settlement in [SettlementMode::PerBundle, SettlementMode::Epoch] {
        for seed in [1u64, 7, 42, 2, 3, 5] {
            let calm = SimulationRun::execute(durable(seed, settlement, 0.0));
            let stormy = SimulationRun::execute(durable(seed, settlement, 0.6));
            assert_eq!(stormy.bank_monitor_violations, 0, "monitor must stay clean");
            assert!(stormy.audit_chain_verified);
            assert!(stormy.bank_wal_records > 0, "durable bank must log work");
            assert_eq!(
                calm.bank_ledger_digest, stormy.bank_ledger_digest,
                "failover changed the final ledger ({settlement:?}, seed {seed})"
            );
            total_crashes += stormy.bank_crashes;
            total_torn += stormy.bank_torn_tails;
            assert_eq!(
                scrub(calm),
                scrub(stormy),
                "failover-anywhere diverged ({settlement:?}, seed {seed})"
            );
        }
    }
    assert!(
        total_crashes > 10,
        "crash class barely fired: {total_crashes}"
    );
    assert!(total_torn > 0, "torn-record path never exercised");
}

/// One epoch longer than the horizon settles the whole paper-scale run in
/// a single tail flush that clears well over 1024 receipts, so the flush
/// deposits several clearing chunks. Each chunk must carry its own serial
/// prefix: the invariant monitor reads a shared prefix as a double deposit.
#[test]
fn a_flush_clearing_over_1024_receipts_keeps_the_monitor_clean() {
    let cfg = ScenarioConfig {
        settlement: SettlementMode::Epoch,
        epoch_length: 2000.0,
        bank_durability: BankDurability::Wal,
        adversary_fraction: 0.2,
        fault: FaultConfig {
            drop_rate: 0.02,
            ..FaultConfig::default()
        },
        ..ScenarioConfig::default()
    };
    cfg.validate().expect("scenario must be valid");
    let r = SimulationRun::execute(cfg);
    assert_eq!(r.epochs_settled, 1, "one tail flush");
    // With one epoch, ops = payouts + ceil(receipts / 1024) and netting =
    // receipts / payouts, so netting * (ops - 1) exceeds 1024 exactly when
    // the flush cleared more than one chunk.
    assert!(
        r.epoch_netting_ratio * (r.settlement_ops_per_epoch - 1.0) > 1024.0,
        "the flush must clear more than one 1024-receipt chunk"
    );
    assert_eq!(r.bank_monitor_violations, 0);
    assert!(r.audit_chain_verified);
}

/// The full matrix: bank crashes x settlement mode x seed, each case
/// interrupted at a walking snapshot point,
/// resumed, and required to equal the uninterrupted run bit-for-bit —
/// recovery counters included (crash draws are position-keyed, so even
/// they must reproduce across a resume).
#[test]
fn crash_recover_and_resume_matches_uninterrupted_across_the_matrix() {
    let mut cases = 0u64;
    for settlement in [SettlementMode::PerBundle, SettlementMode::Epoch] {
        for seed in [1u64, 7, 42, 2, 3, 5, 9, 11, 13] {
            let cfg = durable(seed, settlement, 0.4);
            let baseline = SimulationRun::execute(cfg);
            assert!(baseline.bank_wal_records > 0);

            let horizon = SimTime::new(cfg.churn.horizon);
            let world = World::generate(&cfg);
            let mut run = SimulationRun::new(cfg, world);
            let mut engine = Engine::new();
            run.schedule_all(&mut engine);
            engine.set_event_budget(60 + (cases * 53) % 350);
            engine.run(&mut run, Some(horizon));

            let bytes = encode(&run, &engine);
            drop((run, engine));
            let (mut resumed, mut engine) = restore(&cfg, &bytes).expect("restore");
            engine.run(&mut resumed, Some(horizon));
            assert_eq!(
                baseline,
                resumed.finish(),
                "crash+resume diverged ({settlement:?}, seed {seed})"
            );
            cases += 1;
        }
    }
    assert_eq!(cases, 18, "the matrix must not silently shrink");
}

/// `--bank-durability off` (the default) replays the pinned fingerprints
/// byte-identically: the durable-bank layer costs the legacy path nothing.
#[test]
fn durability_off_replays_the_pr4_pins() {
    for (seed, replacement, pin, payoff_bits) in BASELINE {
        let cfg = ScenarioConfig {
            bank_durability: BankDurability::Off,
            ..base(seed, replacement)
        };
        let r = SimulationRun::execute(cfg);
        assert_eq!(
            fingerprint(&r),
            pin,
            "durability-off drifted from the pin (seed {seed}, {replacement:?})"
        );
        assert_eq!(r.avg_good_payoff.to_bits(), payoff_bits);
        assert_eq!(r.bank_wal_records, 0);
        assert_eq!(r.bank_ledger_digest, 0);
        assert!(r.audit_chain_verified, "vacuously true with no audit log");
    }
}

/// Re-running the same durable scenario reproduces every bank metric —
/// the WAL image, the monitor counters and the digest are deterministic.
#[test]
fn durable_runs_replicate_bit_identically() {
    let cfg = durable(7, SettlementMode::Epoch, 0.3);
    let a = SimulationRun::execute(cfg);
    let b = SimulationRun::execute(cfg);
    assert_eq!(a, b);
    assert!(a.bank_crashes > 0, "crash class must fire at rate 0.3");
    assert!(a.bank_monitor_checks > 0);
    assert_eq!(a.bank_monitor_violations, 0);
}

/// `(bank_wal_records, bank_wal_bytes, bank_ledger_digest)` of each
/// [`BASELINE`] scenario with the durable bank on and every fault rate
/// zero, per-bundle settlement first, then epoch settlement.
const ZERO_RATE_DURABLE: [[(u64, u64, u64); 6]; 2] = [
    [
        (996, 55668, 0xf2172f222fe614e8),
        (850, 47914, 0xecb31690dea084d3),
        (1072, 59680, 0x1514a8d5f726de33),
        (884, 49732, 0x76e037cf1966a35a),
        (913, 51237, 0xb9a55a1bda2164fc),
        (915, 51343, 0x5bf1ba1af180195d),
    ],
    [
        (38, 4406, 0x9cccc56ccb88ba7a),
        (39, 3651, 0x65436528a4b3a68d),
        (39, 4419, 0x6ed7c375aebd89ac),
        (38, 3374, 0x6ba7236597e7de22),
        (38, 4238, 0x9b8ac9485225e5a8),
        (39, 3771, 0x7ebd3208ec4d3d69),
    ],
];

/// The zero-rate fault runtime replays the pins: `--bank-durability wal`
/// forces the fault runtime on with every rate zero, so each baseline run
/// goes through the one transmit path with fault walks and through
/// settlement windows in both modes, and must reproduce the pinned
/// fingerprint and payoff bits. The bank's WAL and ledger are pinned too.
#[test]
fn zero_rate_durable_runs_replay_the_pins() {
    for (settlement, bank_pins) in [SettlementMode::PerBundle, SettlementMode::Epoch]
        .into_iter()
        .zip(ZERO_RATE_DURABLE)
    {
        for ((seed, replacement, pin, payoff_bits), (records, bytes, digest)) in
            BASELINE.into_iter().zip(bank_pins)
        {
            let cfg = ScenarioConfig {
                bank_durability: BankDurability::Wal,
                settlement,
                ..base(seed, replacement)
            };
            let r = common::run(cfg);
            let case = format!("{settlement:?}, seed {seed}, {replacement:?}");
            assert_eq!(fingerprint(&r), pin, "fingerprint drifted ({case})");
            assert_eq!(
                r.avg_good_payoff.to_bits(),
                payoff_bits,
                "payoff drifted ({case})"
            );
            assert_eq!(
                (r.bank_wal_records, r.bank_wal_bytes, r.bank_ledger_digest),
                (records, bytes, digest),
                "durable bank drifted ({case})"
            );
            assert_eq!(r.bank_monitor_violations, 0, "{case}");
            assert_eq!(r.payment_shortfall, 0.0, "{case}");
        }
    }
}
