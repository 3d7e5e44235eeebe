//! Fault matrix: every fault class crossed with every routing strategy.
//!
//! Exercises the deterministic fault-injection layer end to end — forwarder
//! crashes, per-edge drops and delays, confirmation cheating, and bank
//! outages — and prints how each routing strategy degrades: delivery ratio,
//! retries per message, reformation latency, payment shortfall, and the
//! cheaters flagged by reconstructed-path validation.
//!
//! ```text
//! cargo run --release --example fault_matrix
//! IDPA_FAULT_SMOKE=1 cargo run --release --example fault_matrix   # CI smoke
//! ```
//!
//! `IDPA_FAULT_SMOKE=1` (or `IDPA_SETTLE_SMOKE=1`) shrinks the matrix to
//! one severity per fault class at quick scale — a seconds-long end-to-end
//! pass for `scripts/verify.sh`. Every run is a pure function of
//! `(scenario seed, fault plan)`, so the numbers printed here are
//! bit-stable across machines and thread counts.
//!
//! The settlement section reruns the matrix under `--settlement epoch` and
//! asserts the economics are mode-invariant: payoffs, delivery, shortfall,
//! flags and audit discrepancies must match the per-bundle run exactly —
//! only the bank-facing operation counts and the delay model (an outage
//! stalls an epoch boundary instead of a bundle) may differ.

use idpa::prelude::*;

struct FaultClass {
    label: &'static str,
    fault: FaultConfig,
}

fn fault_classes(smoke: bool) -> Vec<FaultClass> {
    let base = FaultConfig::default();
    let mut classes = vec![
        FaultClass {
            label: "none",
            fault: base,
        },
        FaultClass {
            label: "crash 5%",
            fault: FaultConfig {
                crash_rate: 0.05,
                ..base
            },
        },
        FaultClass {
            label: "drop+delay",
            fault: FaultConfig {
                drop_rate: 0.1,
                delay_rate: 0.3,
                ..base
            },
        },
        FaultClass {
            label: "cheat 25%",
            fault: FaultConfig {
                cheat_fraction: 0.25,
                ..base
            },
        },
        FaultClass {
            label: "bank 30%",
            fault: FaultConfig {
                bank_downtime: 0.3,
                ..base
            },
        },
    ];
    if !smoke {
        classes.push(FaultClass {
            label: "compound",
            fault: FaultConfig {
                crash_rate: 0.03,
                drop_rate: 0.08,
                delay_rate: 0.2,
                cheat_fraction: 0.15,
                bank_downtime: 0.15,
                ..base
            },
        });
    }
    classes
}

fn main() {
    let smoke = ["IDPA_FAULT_SMOKE", "IDPA_SETTLE_SMOKE"]
        .iter()
        .any(|k| std::env::var(k).is_ok_and(|v| v == "1"));
    let strategies: [(&str, RoutingStrategy); 3] = [
        ("random ", RoutingStrategy::Random),
        ("model I", RoutingStrategy::Utility(UtilityModel::ModelI)),
        (
            "model II",
            RoutingStrategy::Utility(UtilityModel::ModelII { lookahead: 2 }),
        ),
    ];
    let seed = 11;

    println!(
        "fault class | strategy | delivery | retries/msg | reform lat | shortfall | settle dly | flagged"
    );
    println!(
        "------------+----------+----------+-------------+------------+-----------+------------+--------"
    );
    for class in fault_classes(smoke) {
        for (label, strategy) in strategies {
            let scenario = if smoke {
                ScenarioConfig::quick_test(seed)
            } else {
                ScenarioConfig {
                    seed,
                    ..ScenarioConfig::default()
                }
            };
            let cfg = ScenarioConfig {
                good_strategy: strategy,
                adversary_fraction: 0.2,
                fault: class.fault,
                ..scenario
            };
            cfg.validate().expect("fault matrix scenario must be valid");
            let r = SimulationRun::execute(cfg);
            assert!(r.audit_chain_verified, "audit chain must verify");
            println!(
                "{:<11} | {label} | {:>8.3} | {:>11.3} | {:>10.2} | {:>9.2} | {:>10.2} | {:>7}",
                class.label,
                r.delivery_ratio,
                r.retries_per_message,
                r.reformation_latency,
                r.payment_shortfall,
                r.settlement_delay,
                r.flagged_cheaters.len(),
            );
            // The zero-fault row doubles as a regression tripwire: an
            // inactive fault plan must report a perfectly clean run.
            if class.label == "none" {
                assert_eq!(r.delivery_ratio, 1.0);
                assert_eq!(r.retries_per_message, 0.0);
                assert!(r.flagged_cheaters.is_empty());
            }
        }
    }
    println!();
    println!("expected shape: drops cost retries but bounded retransmission keeps");
    println!("delivery high; cheaters are flagged by path validation and show up as");
    println!("payment shortfall; bank outages touch settlement, never delivery.");

    // The same matrix under both settlement modes: epoch batching must be
    // economically invisible. Each row asserts cross-mode equality of the
    // payoff, delivery, shortfall, flag and audit metrics, then prints
    // what actually changed — the delay model and the amortized
    // bank-operation counts.
    println!();
    println!("fault class | dly/bundle | dly/epoch | epochs | ops/epoch | netting");
    println!("------------+------------+-----------+--------+-----------+--------");
    for class in fault_classes(smoke) {
        let scenario = if smoke {
            ScenarioConfig::quick_test(seed)
        } else {
            ScenarioConfig {
                seed,
                ..ScenarioConfig::default()
            }
        };
        let cfg = ScenarioConfig {
            good_strategy: RoutingStrategy::Utility(UtilityModel::ModelII { lookahead: 2 }),
            adversary_fraction: 0.2,
            fault: class.fault,
            ..scenario
        };
        cfg.validate().expect("settlement matrix must be valid");
        let per_bundle = SimulationRun::execute(cfg);
        let epoch = SimulationRun::execute(ScenarioConfig {
            settlement: SettlementMode::Epoch,
            epoch_length: 240.0,
            ..cfg
        });
        assert_eq!(per_bundle.good_payoffs, epoch.good_payoffs);
        assert_eq!(per_bundle.node_totals, epoch.node_totals);
        assert_eq!(per_bundle.delivery_ratio, epoch.delivery_ratio);
        assert_eq!(per_bundle.retries_per_message, epoch.retries_per_message);
        assert_eq!(per_bundle.payment_shortfall, epoch.payment_shortfall);
        assert_eq!(per_bundle.flagged_cheaters, epoch.flagged_cheaters);
        assert_eq!(per_bundle.audit_discrepancies, epoch.audit_discrepancies);
        assert!(per_bundle.audit_chain_verified && epoch.audit_chain_verified);
        println!(
            "{:<11} | {:>10.2} | {:>9.2} | {:>6} | {:>9.1} | {:>7.1}",
            class.label,
            per_bundle.settlement_delay,
            epoch.settlement_delay,
            epoch.epochs_settled,
            epoch.settlement_ops_per_epoch,
            epoch.epoch_netting_ratio,
        );
    }
    println!();
    println!("expected shape: economics identical across modes (asserted); epoch rows");
    println!("amortize many receipts into few netted payouts and batched deposits,");
    println!("while outages now stall epoch boundaries, lengthening the settle delay.");

    // Static vs adaptive fault response under a compound load (crash +
    // drop + cheat — the regime where learned reputation has signal). The
    // adaptive arm runs the three-term quality model (w_r = 0.2) with
    // reputation suppression, in-run cheater feedback, crash-aware probe
    // invalidation and escalated reformation.
    let compound = FaultConfig {
        crash_rate: 0.05,
        drop_rate: 0.10,
        cheat_fraction: 0.25,
        ..FaultConfig::default()
    };
    println!();
    println!("response | delivery | retries/msg | reform lat | shortfall | flagged");
    println!("---------+----------+-------------+------------+-----------+--------");
    let mut deliveries = [0.0f64; 2];
    let arms: [(&str, FaultResponse, f64); 2] = [
        ("static  ", FaultResponse::Static, 0.0),
        ("adaptive", FaultResponse::Adaptive, 0.2),
    ];
    for (i, (label, response, wr)) in arms.into_iter().enumerate() {
        let scenario = if smoke {
            ScenarioConfig::quick_test(seed)
        } else {
            ScenarioConfig {
                seed,
                ..ScenarioConfig::default()
            }
        };
        let cfg = ScenarioConfig {
            good_strategy: RoutingStrategy::Utility(UtilityModel::ModelII { lookahead: 2 }),
            adversary_fraction: 0.2,
            fault: FaultConfig {
                response,
                ..compound
            },
            weights: ((1.0 - wr) / 2.0, (1.0 - wr) / 2.0),
            reputation_weight: wr,
            ..scenario
        };
        cfg.validate()
            .expect("adaptive matrix scenario must be valid");
        let r = SimulationRun::execute(cfg);
        assert!(r.audit_chain_verified, "audit chain must verify");
        deliveries[i] = r.delivery_ratio;
        println!(
            "{label} | {:>8.3} | {:>11.3} | {:>10.2} | {:>9.2} | {:>7}",
            r.delivery_ratio,
            r.retries_per_message,
            r.reformation_latency,
            r.payment_shortfall,
            r.flagged_cheaters.len(),
        );
    }
    assert!(
        deliveries[1] >= deliveries[0],
        "adaptive response must not deliver less than static under compound faults \
         (static {}, adaptive {})",
        deliveries[0],
        deliveries[1]
    );
    println!();
    println!("expected shape: the adaptive arm routes around cheaters it has flagged");
    println!("or repeatedly timed out on, recovering delivery the static protocol");
    println!("loses to confirmation-swallowing cheats.");

    // Durable bank under seeded crashes: the WAL-backed ledger with a warm
    // failover replica must finish bit-identical to a crash-free run —
    // only the recovery counters may differ.
    println!();
    println!("bank crashes | WAL records | crashes | torn | replayed | monitor | digest match");
    println!("-------------+-------------+---------+------+----------+---------+-------------");
    for settlement in [SettlementMode::PerBundle, SettlementMode::Epoch] {
        let scenario = if smoke {
            ScenarioConfig::quick_test(seed)
        } else {
            ScenarioConfig {
                seed,
                ..ScenarioConfig::default()
            }
        };
        let cfg = ScenarioConfig {
            good_strategy: RoutingStrategy::Utility(UtilityModel::ModelII { lookahead: 2 }),
            adversary_fraction: 0.2,
            settlement,
            bank_durability: BankDurability::Wal,
            fault: FaultConfig {
                drop_rate: 0.08,
                cheat_fraction: 0.2,
                bank_crash_rate: 0.5,
                ..FaultConfig::default()
            },
            ..scenario
        };
        cfg.validate().expect("durable-bank scenario must be valid");
        let calm = SimulationRun::execute(ScenarioConfig {
            fault: FaultConfig {
                bank_crash_rate: 0.0,
                ..cfg.fault
            },
            ..cfg
        });
        let stormy = SimulationRun::execute(cfg);
        assert!(stormy.audit_chain_verified, "bank audit chain must verify");
        assert_eq!(stormy.bank_monitor_violations, 0, "monitor must stay clean");
        assert_eq!(
            calm.bank_ledger_digest, stormy.bank_ledger_digest,
            "failover must not change the final ledger"
        );
        assert_eq!(calm.bank_wal_records, stormy.bank_wal_records);
        println!(
            "{:<12} | {:>11} | {:>7} | {:>4} | {:>8} | {:>7} | {}",
            match settlement {
                SettlementMode::PerBundle => "per-bundle",
                SettlementMode::Epoch => "epoch",
            },
            stormy.bank_wal_records,
            stormy.bank_crashes,
            stormy.bank_torn_tails,
            stormy.bank_records_replayed,
            stormy.bank_monitor_checks,
            calm.bank_ledger_digest == stormy.bank_ledger_digest,
        );
    }
    println!();
    println!("expected shape: crash-anywhere runs replay the intact WAL prefix into the");
    println!("warm replica and finish with the exact crash-free ledger digest; the");
    println!("invariant monitor reports zero violations throughout.");
}
