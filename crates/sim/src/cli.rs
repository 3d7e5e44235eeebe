//! Command-line parsing for `idpa-sim`.
//!
//! [`scenario_flag`] is the one parser for every flag that sets a
//! [`ScenarioConfig`] field. The experiment runner
//! ([`parse_experiment_args`]) and the service ([`parse_service_args`])
//! both delegate to it, and both validate the result through
//! [`ScenarioConfig::validate`], so a scenario flag means the same thing —
//! and fails the same way — under either subcommand.

use std::path::PathBuf;
use std::str::FromStr;

use idpa_desim::FaultResponse;

use crate::experiments::{split_weights, Options};
use crate::scenario::{BankDurability, ScenarioConfig, SettlementMode, WorkloadMode};
use crate::service::ServiceOptions;

/// Help text for the scenario flags both subcommands accept.
pub const SCENARIO_FLAGS_HELP: &str = "\
scenario flags (both subcommands):
  --history-shards N            history-arena shard count (0 = one per worker
                                thread; results identical at any N)
  --settlement MODE             'per-bundle' (each bundle settles alone, the
                                default) or 'epoch' (payouts netted and deposits
                                batched at epoch boundaries; identical
                                economics). Takes effect only with fault
                                injection active
  --epoch-length MIN            epoch length for '--settlement epoch'
  --bank-durability MODE        'off' (the default) or 'wal' (write-ahead ledger
                                log, torn-write crash recovery, warm failover
                                replica and the runtime invariant monitor)
  --workload MODE               'closed' (the paper's fixed 2000-transmission
                                schedule, the default) or 'open' (Poisson
                                connection-request arrivals per pair)
  --open-arrival-rate R         per-pair arrival rate, requests per minute
  --window-len MIN              steady-state metric window length (0 = off)
  --window-warmup MIN           start-up transient trimmed before window 0

fault injection (all rates default to 0 = off; any nonzero rate activates
the deterministic fault plan):
  --fault-crash P               per-hop forwarder crash probability
  --fault-drop P                per-edge message drop probability
  --fault-delay P               per-edge extra-delay probability
  --fault-delay-mean MIN        mean of the injected edge delay
  --fault-cheat F               fraction of nodes that cheat on confirmations
  --fault-cheat-corrupt-share S share of cheats that corrupt (vs drop) receipts
  --fault-bank-downtime F       long-run fraction of time the bank is down
  --fault-bank-outage-mean MIN  mean length of one bank outage
  --fault-bank-crash P          per-flush bank crash probability (kills the
                                primary mid-epoch; needs --bank-durability wal,
                                the warm replica takes over)
  --fault-bank-crash-torn F     share of bank crashes that tear the final WAL
                                record (partial write, discarded by recovery)
  --fault-retries N             max retransmission attempts per message
  --fault-timeout MIN           base retry timeout (exponential backoff)
  --fault-response MODE         'static' (baseline retry protocol) or 'adaptive'
                                (reputation-driven suppression, probe
                                invalidation, escalated reformation)
  --reputation-weight W         w_r of the adaptive quality model
                                q = w_s*sigma + w_a*alpha + w_r*rho, with w_s and
                                w_a splitting 1 - w_r evenly (0 = the paper's
                                two-term model)

adversary strategy classes (all rates default to 0 = off; any nonzero rate
activates the deterministic adversary plan):
  --adversary-free-riders F     fraction of nodes that ghost forwarding duty
  --adversary-whitewash F       fraction of nodes that shed their identity
  --adversary-whitewash-interval MIN  mean minutes between rejoins
  --adversary-cliques N         number of colluding cliques
  --adversary-clique-size K     members per clique (>= 2)
  --adversary-forge-rate P      per-connection phantom-forge probability
  --adversary-age-discount      defense: identity-age reputation discount
  --adversary-maturity MIN      minutes to full weight under the discount
  --adversary-cross-check       defense: initiator cross-confirmation of
                                manifest hops vs observed forwarders";

/// The next argument, as the value of `flag`.
fn value<'a>(
    flag: &str,
    values: &mut impl Iterator<Item = &'a String>,
    what: &str,
) -> Result<&'a String, String> {
    values.next().ok_or_else(|| format!("{flag} needs {what}"))
}

/// The next argument parsed as an integer (or any `FromStr` count).
fn count<'a, T: FromStr>(
    flag: &str,
    values: &mut impl Iterator<Item = &'a String>,
) -> Result<T, String> {
    let what = "a non-negative integer";
    value(flag, values, what)?
        .parse()
        .map_err(|_| format!("{flag} needs {what}"))
}

/// The next argument parsed as a finite number.
fn float<'a>(flag: &str, values: &mut impl Iterator<Item = &'a String>) -> Result<f64, String> {
    let what = "a finite number";
    value(flag, values, what)?
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("{flag} needs {what}"))
}

/// The next argument as one of two named modes.
fn choice<'a, T: Copy>(
    flag: &str,
    values: &mut impl Iterator<Item = &'a String>,
    modes: [(&str, T); 2],
) -> Result<T, String> {
    let what = format!("'{}' or '{}'", modes[0].0, modes[1].0);
    let v = value(flag, values, &what)?;
    modes
        .iter()
        .find(|(name, _)| name == v)
        .map(|&(_, mode)| mode)
        .ok_or_else(|| format!("{flag} needs {what}"))
}

/// Applies one scenario flag to `cfg`, taking its value (if it has one)
/// from `values`. Returns `Ok(false)` when `flag` is not a scenario flag,
/// so each subcommand can try its own flags next.
pub fn scenario_flag<'a>(
    cfg: &mut ScenarioConfig,
    flag: &str,
    values: &mut impl Iterator<Item = &'a String>,
) -> Result<bool, String> {
    let (f, a) = (flag, values);
    match f {
        "--settlement" => {
            cfg.settlement = choice(
                f,
                a,
                [
                    ("per-bundle", SettlementMode::PerBundle),
                    ("epoch", SettlementMode::Epoch),
                ],
            )?;
        }
        "--bank-durability" => {
            cfg.bank_durability = choice(
                f,
                a,
                [("off", BankDurability::Off), ("wal", BankDurability::Wal)],
            )?;
        }
        "--workload" => {
            cfg.workload = choice(
                f,
                a,
                [
                    ("closed", WorkloadMode::Closed),
                    ("open", WorkloadMode::Open),
                ],
            )?;
        }
        "--fault-response" => {
            cfg.fault.response = choice(
                f,
                a,
                [
                    ("static", FaultResponse::Static),
                    ("adaptive", FaultResponse::Adaptive),
                ],
            )?;
        }
        "--reputation-weight" => {
            cfg.reputation_weight = float(f, a)?;
            cfg.weights = split_weights(cfg.reputation_weight);
        }
        "--history-shards" => cfg.history_shards = count(f, a)?,
        "--epoch-length" => cfg.epoch_length = float(f, a)?,
        "--open-arrival-rate" => cfg.open_arrival_rate = float(f, a)?,
        "--window-len" => cfg.window_len = float(f, a)?,
        "--window-warmup" => cfg.window_warmup = float(f, a)?,
        "--fault-crash" => cfg.fault.crash_rate = float(f, a)?,
        "--fault-drop" => cfg.fault.drop_rate = float(f, a)?,
        "--fault-delay" => cfg.fault.delay_rate = float(f, a)?,
        "--fault-delay-mean" => cfg.fault.delay_mean = float(f, a)?,
        "--fault-cheat" => cfg.fault.cheat_fraction = float(f, a)?,
        "--fault-cheat-corrupt-share" => cfg.fault.cheat_corrupt_share = float(f, a)?,
        "--fault-bank-downtime" => cfg.fault.bank_downtime = float(f, a)?,
        "--fault-bank-outage-mean" => cfg.fault.bank_outage_mean = float(f, a)?,
        "--fault-bank-crash" => cfg.fault.bank_crash_rate = float(f, a)?,
        "--fault-bank-crash-torn" => cfg.fault.bank_crash_torn_share = float(f, a)?,
        "--fault-timeout" => cfg.fault.retry_timeout = float(f, a)?,
        "--fault-retries" => cfg.fault.max_retries = count(f, a)?,
        "--adversary-free-riders" => cfg.adversary.free_rider_fraction = float(f, a)?,
        "--adversary-whitewash" => cfg.adversary.whitewash_fraction = float(f, a)?,
        "--adversary-whitewash-interval" => cfg.adversary.whitewash_interval = float(f, a)?,
        "--adversary-forge-rate" => cfg.adversary.clique_forge_rate = float(f, a)?,
        "--adversary-maturity" => cfg.adversary.reputation_maturity = float(f, a)?,
        "--adversary-cliques" => cfg.adversary.clique_count = count(f, a)?,
        "--adversary-clique-size" => cfg.adversary.clique_size = count(f, a)?,
        "--adversary-age-discount" => cfg.adversary.whitewash_age_discount = true,
        "--adversary-cross-check" => cfg.adversary.clique_cross_check = true,
        _ => return Ok(false),
    }
    Ok(true)
}

/// What `idpa-sim [EXPERIMENT ...] [FLAGS]` asks for.
#[derive(Debug, Clone)]
pub struct ExperimentArgs {
    /// Options shared by every selected experiment.
    pub opts: Options,
    /// Experiment names, in command-line order (empty = all).
    pub selected: Vec<String>,
}

/// Parses the experiment runner's command line (`--help` and `--list` are
/// the caller's) and validates the resulting scenario.
///
/// # Errors
///
/// A diagnostic for an unknown flag, a malformed value or an invalid
/// scenario.
pub fn parse_experiment_args(args: &[String]) -> Result<ExperimentArgs, String> {
    let mut opts = Options::default();
    let mut selected = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--reps" => opts.reps = count(arg, &mut iter)?,
            "--threads" => opts.threads = count(arg, &mut iter)?,
            "--out" => opts.out_dir = PathBuf::from(value(arg, &mut iter, "a directory")?),
            name if !name.starts_with('-') => selected.push(name.to_string()),
            flag => {
                if !scenario_flag(&mut opts.scenario, flag, &mut iter)? {
                    return Err(format!("unknown flag: {flag}"));
                }
            }
        }
    }
    opts.base_config(opts.scenario.seed)
        .validate()
        .map_err(|e| e.to_string())?;
    Ok(ExperimentArgs { opts, selected })
}

/// Parses `idpa-sim service [FLAGS]` (`--help` is the caller's) into the
/// scenario to run and the service knobs. `quick` is the tier before any
/// `--quick` flag is seen.
///
/// # Errors
///
/// A diagnostic for an unknown flag, a malformed value or an invalid
/// scenario.
pub fn parse_service_args(
    args: &[String],
    quick: bool,
) -> Result<(ScenarioConfig, ServiceOptions), String> {
    let mut cfg = ScenarioConfig::default();
    let mut quick = quick;
    let mut svc = ServiceOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            // Not a scenario flag: the experiment runner seeds replication
            // `rep` with `1000 + rep` and would ignore it.
            "--seed" => cfg.seed = count(arg, &mut iter)?,
            "--snapshot-every" => svc.snapshot_every = Some(float(arg, &mut iter)?),
            "--snapshot-path" => {
                svc.snapshot_path = Some(value(arg, &mut iter, "a file path")?.into());
            }
            "--resume" => svc.resume = Some(value(arg, &mut iter, "a file path")?.into()),
            "--max-wall-secs" => svc.max_wall_secs = Some(count(arg, &mut iter)?),
            flag => {
                if !scenario_flag(&mut cfg, flag, &mut iter)? {
                    return Err(format!("unknown service flag: {flag}"));
                }
            }
        }
    }
    if quick {
        cfg = cfg.quick();
    }
    cfg.validate().map_err(|e| e.to_string())?;
    Ok((cfg, svc))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn experiment(s: &str) -> Result<ScenarioConfig, String> {
        parse_experiment_args(&args(s)).map(|p| p.opts.base_config(1))
    }

    fn service(s: &str) -> Result<ScenarioConfig, String> {
        parse_service_args(&args(s), false).map(|(cfg, _)| cfg)
    }

    #[test]
    fn one_flag_list_yields_one_scenario_in_both_subcommands() {
        let flags = "--quick --history-shards 3 \
                     --reputation-weight 0.2 --fault-response adaptive --fault-drop 0.1 \
                     --fault-crash 0.05 --fault-retries 4 --fault-timeout 2.5 \
                     --settlement epoch --epoch-length 120 --bank-durability wal \
                     --fault-bank-crash 0.5 --fault-bank-crash-torn 0.25 \
                     --workload open --open-arrival-rate 0.02 --window-len 60 \
                     --window-warmup 30 --adversary-free-riders 0.1 --adversary-cliques 2 \
                     --adversary-clique-size 3 --adversary-forge-rate 0.5 \
                     --adversary-cross-check --adversary-age-discount";
        let exp = experiment(flags).unwrap();
        assert_eq!(exp, service(flags).unwrap());

        assert_eq!((exp.n_nodes, exp.total_transmissions), (20, 200));
        assert_eq!(exp.history_shards, 3);
        assert_eq!(exp.reputation_weight, 0.2);
        assert_eq!(exp.weights, split_weights(0.2));
        assert_eq!(exp.fault.response, FaultResponse::Adaptive);
        assert_eq!(exp.fault.max_retries, 4);
        assert_eq!(exp.settlement, SettlementMode::Epoch);
        assert_eq!(exp.bank_durability, BankDurability::Wal);
        assert_eq!(exp.workload, WorkloadMode::Open);
        assert_eq!(exp.adversary.clique_size, 3);
        assert!(exp.adversary.clique_cross_check && exp.adversary.whitewash_age_discount);
    }

    #[test]
    fn no_flags_is_the_paper_default() {
        assert_eq!(experiment("").unwrap(), ScenarioConfig::default());
        assert_eq!(service("").unwrap(), ScenarioConfig::default());
        assert_eq!(
            service("--quick --seed 1").unwrap(),
            ScenarioConfig::quick_test(1)
        );
    }

    #[test]
    fn quick_composes_in_either_order() {
        let before = service("--quick --fault-drop 0.1 --adversary-cliques 2").unwrap();
        let after = service("--fault-drop 0.1 --adversary-cliques 2 --quick").unwrap();
        assert_eq!(before, after);
        assert_eq!(before.n_nodes, 20);
        assert_eq!(before.fault.drop_rate, 0.1);
        let forced = parse_service_args(&args("--fault-drop 0.1 --adversary-cliques 2"), true);
        assert_eq!(forced.unwrap().0, before, "a forced quick tier is the same");
    }

    #[test]
    fn service_accepts_a_reputation_weight() {
        let cfg = service("--quick --reputation-weight 0.2").unwrap();
        assert_eq!(cfg.reputation_weight, 0.2);
        assert_eq!(cfg.weights, split_weights(0.2));
    }

    #[test]
    fn experiment_only_and_service_only_flags_stay_apart() {
        let p = parse_experiment_args(&args("fig5 --reps 3 --threads 2 --out x table2")).unwrap();
        assert_eq!(p.selected, ["fig5", "table2"]);
        assert_eq!((p.opts.reps, p.opts.threads), (3, 2));
        assert_eq!(p.opts.out_dir, PathBuf::from("x"));
        assert!(experiment("--seed 3").unwrap_err().contains("unknown flag"));
        assert!(service("--reps 3")
            .unwrap_err()
            .contains("unknown service flag"));
        let (_, svc) = parse_service_args(
            &args("--snapshot-every 60 --snapshot-path s.snap --resume r.snap --max-wall-secs 5"),
            false,
        )
        .unwrap();
        assert_eq!(svc.snapshot_every, Some(60.0));
        assert_eq!(svc.snapshot_path, Some(PathBuf::from("s.snap")));
        assert_eq!(svc.resume, Some(PathBuf::from("r.snap")));
        assert_eq!(svc.max_wall_secs, Some(5));
    }

    #[test]
    fn malformed_values_and_invalid_scenarios_are_rejected_by_both() {
        for (flags, fragment) in [
            ("--settlement fast", "'per-bundle' or 'epoch'"),
            ("--probe-mode lazy", "flag: --probe-mode"),
            ("--node-lifecycle lazy", "flag: --node-lifecycle"),
            ("--fault-drop", "a finite number"),
            ("--fault-drop inf", "a finite number"),
            ("--adversary-cliques -1", "non-negative integer"),
            ("--fault-drop 1.5", "drop_rate"),
            ("--fault-bank-crash 0.1", "--bank-durability wal"),
            ("--reputation-weight 1.5", "sum to 1"),
            (
                "--settlement epoch --epoch-length 0",
                "positive epoch length",
            ),
            ("--adversary-free-riders 2", "free_rider_fraction"),
        ] {
            for parsed in [experiment(flags), service(flags)] {
                let err = parsed.unwrap_err();
                assert!(err.contains(fragment), "{flags}: {err}");
            }
        }
    }
}
