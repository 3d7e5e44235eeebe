//! Epoch-batched settlement's load-bearing property: `--settlement epoch`
//! is **economically identical** to the per-bundle default. Payoffs,
//! delivery, payment shortfall, flagged cheaters and audit discrepancies
//! are all mode-invariant — batching changes *when* settlement work
//! happens and how many bank operations it costs, never who gets paid
//! what. Only the settlement-delay model (a bank outage stalls an epoch
//! boundary instead of a bundle) and the three epoch metrics may differ,
//! and those are zeroed before comparison.
//!
//! The suite sweeps well over 256 cases (each case = one epoch-mode run
//! compared against its per-bundle reference, or a replay) and asserts
//! the count, so shrinking the sweep by accident fails loudly.

use idpa_core::{RoutingStrategy, UtilityModel};
use idpa_desim::FaultConfig;
use idpa_sim::{FaultResponse, RunResult, ScenarioConfig, SettlementMode, SimulationRun};

/// Zeroes the fields epoch settlement is *allowed* to change: the delay
/// model and the epoch operation counters.
fn normalized(mut r: RunResult) -> RunResult {
    r.settlement_delay = 0.0;
    r.epochs_settled = 0;
    r.settlement_ops_per_epoch = 0.0;
    r.epoch_netting_ratio = 0.0;
    r
}

fn run(cfg: ScenarioConfig) -> RunResult {
    cfg.validate().expect("scenario must be valid");
    SimulationRun::execute(cfg)
}

/// Fault profiles covering the settlement-relevant axes: static faults
/// with receipt-corrupting cheaters, the adaptive response (in-run
/// flagging feeds routing), and heavy bank outages (the delay model's
/// stress case).
fn profiles() -> [FaultConfig; 3] {
    [
        FaultConfig {
            crash_rate: 0.03,
            drop_rate: 0.08,
            cheat_fraction: 0.25,
            cheat_corrupt_share: 0.7,
            ..FaultConfig::default()
        },
        FaultConfig {
            crash_rate: 0.05,
            drop_rate: 0.10,
            cheat_fraction: 0.4,
            cheat_corrupt_share: 0.8,
            response: FaultResponse::Adaptive,
            ..FaultConfig::default()
        },
        FaultConfig {
            drop_rate: 0.05,
            cheat_fraction: 0.2,
            bank_downtime: 0.3,
            bank_outage_mean: 60.0,
            ..FaultConfig::default()
        },
    ]
}

fn base(seed: u64, fault: FaultConfig) -> ScenarioConfig {
    let mut cfg = ScenarioConfig {
        adversary_fraction: 0.2,
        fault,
        ..ScenarioConfig::quick_test(seed)
    };
    if fault.response == FaultResponse::Adaptive {
        cfg.weights = (0.4, 0.4);
        cfg.reputation_weight = 0.2;
    }
    cfg
}

#[test]
fn epoch_settlement_is_economically_identical_to_per_bundle() {
    let mut cases = 0usize;
    // Epoch lengths spanning the interesting boundary structure: many
    // short windows, the default-ish 240, a single mid-run boundary, and
    // one longer than the 1440-minute horizon (everything settles in the
    // finish-time tail flush).
    let lengths = [30.0, 120.0, 240.0, 720.0, 2000.0];
    for seed in [
        1u64, 2, 3, 5, 7, 9, 11, 13, 17, 19, 23, 29, 31, 37, 41, 42, 77, 101,
    ] {
        for fault in profiles() {
            let cfg = base(seed, fault);
            let reference = normalized(run(cfg));
            for epoch_length in lengths {
                let epoch = run(ScenarioConfig {
                    settlement: SettlementMode::Epoch,
                    epoch_length,
                    ..cfg
                });
                if epoch.connections > 0 {
                    assert!(
                        epoch.epochs_settled > 0,
                        "seed {seed} L={epoch_length}: evidence was never settled"
                    );
                }
                assert_eq!(
                    reference,
                    normalized(epoch),
                    "seed {seed} L={epoch_length}: epoch settlement changed the economics"
                );
                cases += 1;
            }
        }
    }

    // Replay determinism: the epoch arm reproduces itself bit-for-bit,
    // including the delay model and operation counters.
    for seed in [1u64, 7, 42] {
        for fault in profiles() {
            let cfg = ScenarioConfig {
                settlement: SettlementMode::Epoch,
                epoch_length: 120.0,
                ..base(seed, fault)
            };
            assert_eq!(run(cfg), run(cfg), "seed {seed}: epoch replay diverged");
            cases += 1;
        }
    }

    assert!(
        cases >= 256,
        "property sweep shrank to {cases} cases (< 256)"
    );
}

/// The same identity under Model II lookahead routing, one fault class at
/// a time: crashes, drops with delays, confirmation cheating and bank
/// outages each leave the economics mode-invariant.
#[test]
fn epoch_settlement_is_identical_under_model_two_for_each_fault_class() {
    let none = FaultConfig::default();
    for fault in [
        FaultConfig {
            crash_rate: 0.05,
            ..none
        },
        FaultConfig {
            drop_rate: 0.1,
            delay_rate: 0.3,
            ..none
        },
        FaultConfig {
            cheat_fraction: 0.25,
            ..none
        },
        FaultConfig {
            bank_downtime: 0.3,
            ..none
        },
    ] {
        let cfg = ScenarioConfig {
            good_strategy: RoutingStrategy::Utility(UtilityModel::ModelII { lookahead: 2 }),
            ..base(11, fault)
        };
        let epoch = run(ScenarioConfig {
            settlement: SettlementMode::Epoch,
            epoch_length: 240.0,
            ..cfg
        });
        assert!(epoch.epochs_settled > 0, "{fault:?}: nothing settled");
        assert_eq!(normalized(run(cfg)), normalized(epoch), "{fault:?}");
    }
}

/// The batching machinery actually amortizes: with short epochs every
/// boundary settles a small window (ops per epoch stays bounded), and the
/// netting ratio exceeds 1 — multiple receipts collapse into each payout.
#[test]
fn epoch_batching_amortizes_bank_operations() {
    let cfg = ScenarioConfig {
        settlement: SettlementMode::Epoch,
        epoch_length: 120.0,
        ..base(7, profiles()[0])
    };
    let r = run(cfg);
    assert!(r.epochs_settled > 1, "expected multiple settled epochs");
    assert!(
        r.epoch_netting_ratio > 1.0,
        "netting ratio {} should exceed 1 (receipts per payout op)",
        r.epoch_netting_ratio
    );
    assert!(r.settlement_ops_per_epoch > 0.0);
}

/// Under bank outages the epoch delay model waits for the first bank-up
/// instant at or after the epoch boundary — never earlier than the
/// boundary itself would allow, and zero-delay only if every pair's last
/// completion lands exactly on an up boundary.
#[test]
fn epoch_delay_model_waits_for_epoch_boundaries() {
    let fault = profiles()[2]; // heavy bank outages
    let per_bundle = run(base(11, fault));
    let epoch = run(ScenarioConfig {
        settlement: SettlementMode::Epoch,
        epoch_length: 240.0,
        ..base(11, fault)
    });
    // Per-bundle settles as soon as the bank is up after each pair's last
    // completion; the epoch must additionally wait out its boundary, so
    // its mean delay can only be larger (or equal in degenerate cases).
    assert!(
        epoch.settlement_delay >= per_bundle.settlement_delay,
        "epoch delay {} < per-bundle delay {}",
        epoch.settlement_delay,
        per_bundle.settlement_delay
    );
}
