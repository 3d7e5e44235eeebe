//! `idpa-sim` — regenerate the paper's tables and figures.
//!
//! ```text
//! idpa-sim [EXPERIMENT ...] [--reps N] [--threads N] [--quick] [--out DIR] [--list]
//!          [SCENARIO FLAGS]
//! idpa-sim service [--seed N] [--quick] [SERVICE FLAGS] [SCENARIO FLAGS]
//! idpa-sim trace-export [SEED]
//! ```
//!
//! With no experiment names, runs everything in the registry. Markdown
//! goes to stdout; per-experiment CSVs to the output directory
//! (`target/results` unless `--out` says otherwise). A CSV that cannot be
//! written fails the command.
//!
//! `idpa-sim service [FLAGS]` runs one scenario as a crash-safe service
//! instead: open or closed workload, periodic checkpoints, deterministic
//! resume and graceful wall-clock shutdown (see `idpa-sim service --help`).
//!
//! Both subcommands parse the scenario flags (modes, `--fault-*`,
//! `--adversary-*`, ...) with the same [`idpa_sim::cli::scenario_flag`].

use std::process::ExitCode;

use idpa_sim::cli::{parse_experiment_args, parse_service_args, SCENARIO_FLAGS_HELP};
use idpa_sim::experiments::{registry, Experiment};
use idpa_sim::run_service;

fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

/// `idpa-sim service`: run one scenario as a crash-safe service.
fn service_main(args: &[String]) -> ExitCode {
    if wants_help(args) {
        println!(
            "usage: idpa-sim service [--seed N] [--quick] [--snapshot-every MIN] \
             [--snapshot-path P]\n\
             \u{20}                       [--resume P] [--max-wall-secs S] [SCENARIO FLAGS]\n\n  \
             --seed N                      master seed (default 1)\n  \
             --quick                       quick tier: 20 nodes, 20 pairs, 200 transmissions\n  \
             --snapshot-every MIN          checkpoint every MIN simulated minutes\n  \
             --snapshot-path P             checkpoint file (written atomically)\n  \
             --resume P                    resume from a checkpoint (same scenario flags!)\n  \
             --max-wall-secs S             graceful shutdown: stop, checkpoint, report\n  \
             \u{20}                             partial aggregates with interrupted=true\n\n\
             {SCENARIO_FLAGS_HELP}"
        );
        return ExitCode::SUCCESS;
    }
    let (cfg, svc) = match parse_service_args(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let started = std::time::Instant::now();
    let result = match run_service(cfg, &svc) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("service run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("# idpa-sim service run (seed = {})\n", cfg.seed);
    println!("- simulated connections: {}", result.connections);
    println!("- delivery ratio: {:.4}", result.delivery_ratio);
    println!("- avg good payoff: {:.3}", result.avg_good_payoff);
    println!("- interrupted: {}", result.interrupted);
    if result.bank_wal_records > 0 {
        println!("- audit chain verified: {}", result.audit_chain_verified);
        println!(
            "- bank WAL: {} records / {} bytes, {} crashes ({} torn), {} records replayed",
            result.bank_wal_records,
            result.bank_wal_bytes,
            result.bank_crashes,
            result.bank_torn_tails,
            result.bank_records_replayed
        );
        println!(
            "- bank invariants: {} checks, {} violations, ledger digest {:#018x}",
            result.bank_monitor_checks, result.bank_monitor_violations, result.bank_ledger_digest
        );
    } else {
        println!("- audit chain: none kept (no --bank-durability wal)");
    }
    if !result.windowed_delivery_ratio.is_empty() {
        println!("\nwindow,delivery_ratio,payoff_rate,retry_rate");
        for (i, ((d, p), r)) in result
            .windowed_delivery_ratio
            .iter()
            .zip(&result.windowed_payoff_rate)
            .zip(&result.windowed_retry_rate)
            .enumerate()
        {
            println!("{i},{d:.6},{p:.6},{r:.6}");
        }
    }
    eprintln!("[service run done in {:.1?}]", started.elapsed());
    ExitCode::SUCCESS
}

/// `idpa-sim trace-export [SEED]`: the synthetic churn trace of the
/// paper-scale scenario as CSV on stdout (seed 1 when none is given).
fn trace_export(args: &[String]) -> ExitCode {
    let seed = match args {
        [] => 1,
        [seed] => match seed.parse() {
            Ok(seed) => seed,
            Err(_) => {
                eprintln!("trace-export: SEED must be a non-negative integer, got '{seed}'");
                return ExitCode::FAILURE;
            }
        },
        [_, extra, ..] => {
            eprintln!(
                "trace-export: unexpected argument '{extra}'; usage: idpa-sim trace-export [SEED]"
            );
            return ExitCode::FAILURE;
        }
    };
    let cfg = idpa_sim::ScenarioConfig {
        seed,
        ..idpa_sim::ScenarioConfig::default()
    };
    let world = idpa_sim::World::generate(&cfg);
    // Each schedule is derived, written and dropped.
    print!(
        "{}",
        idpa_netmodel::trace::to_csv(world.nodes.iter_schedules())
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.first().map(String::as_str) == Some("trace-export") {
        return trace_export(&args[1..]);
    }

    // Service mode: `idpa-sim service [FLAGS]` — one scenario, run as a
    // crash-safe open/closed-workload service with snapshot/resume.
    if args.first().map(String::as_str) == Some("service") {
        return service_main(&args[1..]);
    }

    if wants_help(&args) {
        println!(
            "usage: idpa-sim [EXPERIMENT ...] [--reps N] [--threads N] [--quick] \
             [--out DIR] [--list] [SCENARIO FLAGS]\n\
             \u{20}      idpa-sim service [FLAGS]      (see idpa-sim service --help)\n\
             \u{20}      idpa-sim trace-export [SEED]\n\n  \
             --reps N                      replications per sweep point (default 10)\n  \
             --threads N                   worker threads (0 = auto; results identical\n  \
             \u{20}                             at any N)\n  \
             --quick                       quick tier: 20 nodes, 20 pairs, 200 transmissions\n  \
             --out DIR                     CSV directory (default target/results)\n  \
             --list                        list the experiment names\n\n\
             {SCENARIO_FLAGS_HELP}"
        );
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--list") {
        for (name, _) in registry() {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    let parsed = match parse_experiment_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Without a fault rate, an adversary plan or a durable bank there is
    // no evidence to settle and epoch mode reports all-zero settlement
    // metrics. Warn rather than fail: all-zero rates are a legitimate
    // baseline in fingerprint comparisons.
    if parsed.epoch_settlement_idle() {
        eprintln!(
            "warning: --settlement epoch has no effect without fault injection, \
             an --adversary-* strategy or --bank-durability wal (any of them \
             activates the evidence and settlement layers); settlement \
             metrics will be zero"
        );
    }

    let opts = parsed.opts;
    let reg = registry();
    let to_run: Vec<&(&str, Experiment)> = if parsed.selected.is_empty() {
        reg.iter().collect()
    } else {
        let mut picked = Vec::new();
        for name in &parsed.selected {
            match reg.iter().find(|(n, _)| n == name) {
                Some(entry) => picked.push(entry),
                None => {
                    eprintln!("unknown experiment '{name}'; try --list");
                    return ExitCode::FAILURE;
                }
            }
        }
        picked
    };

    println!(
        "# idpa-sim results (reps = {}, {} scale)\n",
        opts.reps,
        if opts.quick { "quick" } else { "paper" }
    );
    for (name, run) in to_run {
        eprintln!("[running {name} ...]");
        let started = std::time::Instant::now();
        let output = match run(&opts) {
            Ok(output) => output,
            Err(e) => {
                eprintln!("{name}: writing CSV under {}: {e}", opts.out_dir.display());
                return ExitCode::FAILURE;
            }
        };
        eprintln!("[{name} done in {:.1?}]", started.elapsed());
        println!("{output}");
    }
    ExitCode::SUCCESS
}
