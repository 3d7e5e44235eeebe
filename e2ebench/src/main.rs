//! # End-to-end benchmark of the idpa simulator
//!
//! One binary, one workload per invocation, one thread:
//!
//! ```sh
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload paper_closed --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The benchmark drives every run itself through the public API —
//! `World::generate` → `SimulationRun::new` → `schedule_all` →
//! `Engine::run` (in segments, for checkpoints) → `snapshot::encode` /
//! `restore` → `SimulationRun::finish` — checks the outputs, and prints
//! each metric by name and unit. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`, where
//! `attempted` counts timed runs and `failed` those that failed a check.
//! A fuller report with metadata (git revision, CPU model and count,
//! rustc version, seed, run count, p25/p50/p75 of every per-run timing and
//! one record per run) goes to `<target dir>/bench/e2e-<workload>-<pass>.json`.
//! `baseline/set1` and `baseline/set2` hold these reports, without the
//! per-run records, from two separate processes of every workload and
//! pass at `--seed 1` on the reference machine. `baseline/spread` holds
//! the spread of every end-to-end metric over ten seeds, twice, as
//! reported and as measured, with the script that takes it.
//!
//! ## Workloads
//!
//! Each workload is a fixed list of scenarios cycled by run index. Run
//! `i`'s seed is drawn from `--seed`, the workload name and `i`, and every
//! scenario pins `history_shards = 1`, so inputs do not depend on the core
//! count. Runs repeat until `--seconds` have passed, and always cover one
//! full list ("round"). Run 0 is first driven untimed as the correctness
//! reference, which doubles as the discarded warm-up run.
//!
//! | name | definition | why |
//! |---|---|---|
//! | `paper_closed` | §3 defaults (N=40, d=5, 100 pairs, 2000 closed transmissions) over f∈{0.1,0.5,0.9} × good strategy {Model I, Model II la=2, Random} × τ∈{0.5,4}; ≈11 ms a run | The Figs. 3–7 / Table 2 runs. Routing, quality evaluation and history selectivity do nearly all the work, with no fault runtime, settlement or snapshots: the bypass workload for payment, probe and codec changes. |
//! | `churn_maint` | N=500, d=24, T=1 min, replace after 6 silent rounds, 8 pairs × 8 connections, 8 h horizon, lazy probing; ≈0.5 s a run | Maintenance-saturated churn: `Maintain` handlers take almost all the wall and formation very little. Lazy probing is slowest here, and calendar changes show here first. |
//! | `scale_1m` | `ScenarioConfig::scale_1m` (N=10⁶, 512 pairs, 4096 transmissions, lazy lifecycle, sparse costs); ≈1.2 s a run | Set-up and memory dominate: `World::generate` takes most of each run and the heap peaks near 400 MiB. Probe reads are sparse and the slab evicts idle nodes. |
//! | `service_hostile` | open Poisson 0.04/pair/min; faults crash 3%, drop 5%, delay 5%, cheat 10%, bank downtime 2%, bank crash 10%; adaptive response, w_r=0.2; epoch settlement + WAL; free riders 10%, whitewash 10%, 2×4 cliques with cross-check; `snapshot::encode` at 6 even horizons and a `restore` from the third | The only workload where retries, path validation, epoch settlement and the WAL, the adversary defences and the snapshot codec do real work. It writes to the bank and the codec while `paper_closed` only reads routing state. |
//!
//! ## Two passes
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation.
//! `--trace 1` runs each scenario twice, once untraced and once through a
//! wrapper `Process` that times every `handle` call by `Ev` variant, and
//! reports the per-layer metrics from the traced runs. The order of the
//! two alternates by run. The two results must be equal, so tracing never
//! changes what is measured, and `trace.overhead` compares their walls.
//! Per-`Ev` self times plus `desim.calendar_s`, set-up, codec and finish
//! times add up to the traced wall; `trace.accounted` is that share.
//! `--seconds 0 --trace 1` is the smoke tier: one round, untimed in
//! effect, with every check and the traced ≡ untraced comparison.
//!
//! ## Times are stated at a reference speed
//!
//! Before every run the benchmark times a fixed probe kernel of its own
//! ([`calib`]) and multiplies each of the run's times by the run's speed,
//! reference probe time / probe time, so a shared machine's speed drift
//! cancels out while a change to the simulator still shows in full. Rates
//! come from the scaled times. On the reference machine in a quiet period
//! the speed is about 1; `calib.speed` is its median over the runs. The
//! report file records each run's probe, so every time can be read back
//! as measured; `baseline/spread` compares the two readings.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! | name | unit | bound | meaning |
//! |---|---|---|---|
//! | `setup_s` | s | 25% | Median per run of `World::generate` + `SimulationRun::new` + `schedule_all`. |
//! | `run_s_p50` | s | 20% | Median per run of config to `RunResult`, set-up and codec included. The stdout summary adds the highest percentile with at least ten runs beyond it. |
//! | `conn_per_s` | conn/s | 20% | Σ connections delivered / Σ run wall over each full round, median over rounds. |
//! | `peak_heap_mib_p95` | MiB | 2% | 95th percentile over runs of the run's heap high-water mark above the heap live at its start, from the in-tree `CountingAllocator`. With fewer than 20 runs it is the largest. |
//!
//! A 10% timing bound would reject identical code on a contended machine.
//! In `baseline/spread`, two sets of ten seeds each, the machine ran up to
//! twice as slow in the second set. At reference speed the median of
//! `run_s_p50` on `paper_closed` still moved 18.4% from one set to the
//! next (70% as measured), and that of `conn_per_s` 15%; within a set
//! the quartile spread of either stayed under 8%. `setup_s` carries the
//! widest bound, as a check on work moved into set-up.
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! Times are per-run means over all traced runs. Counts are per-run means
//! over the first round, which is the same set of scenarios in every
//! process for a given seed, so counts repeat exactly. Each row names the
//! end-to-end metric it should move, and on which workload.
//!
//! | names | should move |
//! |---|---|
//! | `world.generate_s`, `runner.new_s`, `runner.schedule_s`, `world.heap_mib` | `setup_s` and `peak_heap_mib_p95` on `scale_1m`; `runner.schedule_s` also `setup_s` on `paper_closed`. |
//! | `desim.events`, `desim.calendar_s` (engine wall minus summed handler wall), `desim.pending_peak` | `run_s_p50` on `churn_maint` and `scale_1m`. |
//! | `runner.{maintain,transmit,retry,arrival,epoch_settle,whitewash}.n` / `.self_s` | `run_s_p50` where the variant dominates: maintain on `churn_maint`, transmit on `paper_closed`, arrival, retry and epoch_settle on `service_hostile`. |
//! | `runner.connect_us_p50`, `runner.connect_us_p99` (per `Transmit`/`Arrival` handler) | `conn_per_s` on `paper_closed` and `service_hostile`. |
//! | `runner.maintain_us_p50`, `runner.maintain_us_p99` | `run_s_p50` on `churn_maint`. |
//! | `runner.epoch_settle_ms_p50`, `runner.finish_s` | `run_s_p50` on `service_hostile`; `runner.finish_s` also on `scale_1m`. |
//! | `runner.retry_share` (retries / connection attempts), `runner.fail_frac` (requests not delivered) | `conn_per_s` on `service_hostile`. Both are 0 on the fault-free workloads. |
//! | `snapshot.encode_s`, `snapshot.restore_s`, `snapshot.frame_kib`, `snapshot.encode_mib_per_s` | `run_s_p50` on `service_hostile`; 0 elsewhere. |
//! | `payment.wal_records`, `payment.wal_bytes`, `payment.epochs_settled`, `payment.netting_ratio`, `payment.monitor_checks`, `payment.invariant_violations` (from `RunResult`) | `runner.epoch_settle.self_s` on `service_hostile`. |
//! | `slab.peak_nodes`, `slab.evictions`, `slab.kib` | `peak_heap_mib_p95` on `scale_1m`. |
//! | `adversary.phantom_flag_ratio`, `adversary.whitewash_events` | Defence correctness on `service_hostile`; the cross-check must stay ≥ 0.9. |
//! | `trace.overhead` (traced wall / untraced wall − 1), `trace.accounted` | None; read the per-layer numbers against them. |
//! | `calib.speed` | None; the median run's speed, reference probe time / probe time. |
//!
//! ## Checks
//!
//! Before timing, run 0 driven step by step must equal
//! `SimulationRun::execute` (and, on `service_hostile`, `run_service` with
//! default options), so segmenting, encoding and restoring change nothing.
//! Every run must verify its audit chain and reach its horizon; closed
//! workloads must deliver every scheduled transmission; on
//! `service_hostile` free riders must earn nothing and the clique
//! cross-check must flag at least 90% of phantom instances. Each pass
//! prints the digest of run 0 and of all its runs.
//!
//! ## Known value: `payment.invariant_violations` is not always 0
//!
//! The durable bank's clearing serial puts the flush index in bytes 0..8,
//! and `InvariantMonitor::check_full` dedups deposits on exactly that
//! 8-byte prefix. A flush that clears more than `CLEARING_BATCH` = 1024
//! receipts therefore reads as a double deposit. The `service_hostile`
//! scenario with raw seeds 0x5e41 and 0x5e43 shows 4 such violations in
//! release builds, and 102 of its first 200 runs under `--seed 1` show
//! between 2 and 9 (debug builds panic in the monitor instead). The count
//! is a false positive of the monitor, not a ledger fault, so it is
//! reported and not checked; the fix belongs in `idpa-sim`.

mod calib;
mod drive;
mod metrics;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use idpa_desim::stats::Ecdf;
use idpa_sim::{run_service, ServiceOptions, SimulationRun};

use drive::{check, digest, drive, requests, Tracer};
use metrics::{Decl, Sample, END_TO_END, PER_LAYER};
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: e2e --workload <paper_closed|churn_maint|scale_1m|service_hostile> \
                     --seed <u64> --seconds <u64> --trace <0|1>";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Run 0, driven untimed and compared with the library's own runners.
fn reference_check(w: Workload, seed: u64) -> Result<u64, String> {
    let cfg = w.config(seed, 0);
    let (driven, _) = drive(w, &cfg, None, 1.0);
    if driven != SimulationRun::execute(cfg) {
        return Err("run 0: the segmented drive differs from SimulationRun::execute".into());
    }
    if w == Workload::ServiceHostile {
        let service = run_service(cfg, &ServiceOptions::default()).map_err(|e| e.to_string())?;
        if driven != service {
            return Err("run 0: the segmented drive differs from run_service".into());
        }
    }
    check(w, &cfg, &driven).map_err(|e| format!("run 0: {e}"))?;
    Ok(digest(&driven))
}

fn fold_digest(acc: u64, d: u64) -> u64 {
    idpa_desim::codec::fnv1a_64(&[acc.to_le_bytes(), d.to_le_bytes()].concat())
}

/// `{"p25": .., "p50": .., "p75": ..}` of a per-run series.
fn quartiles(values: impl Iterator<Item = f64>) -> String {
    let mut e = Ecdf::from_samples(values);
    let q = |e: &mut Ecdf, p| metrics::json_number(metrics::quantile(e, p));
    format!(
        "{{\"p25\": {}, \"p50\": {}, \"p75\": {}}}",
        q(&mut e, 0.25),
        q(&mut e, 0.5),
        q(&mut e, 0.75)
    )
}

/// What the report adds to the per-run records.
struct Summary<'a> {
    /// Metrics at reference speed, as on the result line.
    metrics_json: &'a str,
    probe_s: f64,
    /// Digests of run 0 and of every timed run.
    digests: (u64, u64),
}

/// The CPU model of the machine running the benchmark.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().replace(['"', '\\'], "'"))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The full report: metadata, metrics, timing spreads and one record per
/// run, written next to the build so it stays inside the checkout. Every
/// time is at reference speed; each run's probe, as measured, turns it
/// back into the time measured.
fn write_report(args: &Args, samples: &[Sample], summary: &Summary) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("bench")))
    else {
        return;
    };
    let pass = if args.trace { "trace" } else { "plain" };
    let path = dir.join(format!("e2e-{}-{pass}.json", args.workload.name()));
    let mut runs = String::new();
    for (i, s) in samples.iter().enumerate() {
        let r = &s.record;
        let _ = write!(
            runs,
            "{}{{\"run\": {i}, \"seed\": {}, \"setup_s\": {}, \"engine_s\": {}, \"encode_s\": {}, \
             \"restore_s\": {}, \"finish_s\": {}, \"wall_s\": {}, \"events\": {}, \"connections\": {}, \"peak_heap_bytes\": {}, \"probe_s\": {}}}",
            if i == 0 { "\n    " } else { ",\n    " },
            args.workload.config(args.seed, i as u64).seed,
            r.setup_s(),
            r.engine_s,
            r.encode_s,
            r.restore_s,
            r.finish_s,
            r.wall_s,
            r.events,
            s.connections,
            r.peak_heap_bytes,
            s.probe_s,
        );
    }
    let timing = |f: fn(&drive::RunRecord) -> f64| quartiles(samples.iter().map(|s| f(&s.record)));
    let report = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
         \"runs\": {},\n  \"round\": {},\n  \"git_rev\": \"{}\",\n  \"rustc\": \"{}\",\n  \"cpu_model\": \"{}\",\n  \
         \"cpus\": {},\n  \"threads\": 1,\n  \"run0_digest\": \"{:016x}\",\n  \"digest\": \"{:016x}\",\n  \
         \"probe_s\": {},\n  \"reference_probe_s\": {},\n  \"metrics\": {},\n  \"timings\": {{\"setup_s\": {}, \"generate_s\": {}, \
         \"new_s\": {}, \"schedule_s\": {}, \"engine_s\": {}, \"encode_s\": {}, \"restore_s\": {}, \
         \"finish_s\": {}, \"wall_s\": {}}},\n  \"per_run\": [{runs}\n  ]\n}}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        samples.len(),
        args.workload.shapes().len(),
        env!("E2E_GIT_REV"),
        env!("E2E_RUSTC"),
        cpu_model(),
        std::thread::available_parallelism().map_or(0, usize::from),
        summary.digests.0,
        summary.digests.1,
        summary.probe_s,
        calib::REFERENCE_S,
        summary.metrics_json,
        timing(drive::RunRecord::setup_s),
        timing(|r| r.generate_s),
        timing(|r| r.new_s),
        timing(|r| r.schedule_s),
        timing(|r| r.engine_s),
        timing(|r| r.encode_s),
        timing(|r| r.restore_s),
        timing(|r| r.finish_s),
        timing(|r| r.wall_s),
    );
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, report));
    match written {
        Ok(()) => eprintln!("e2e: report written to {}", path.display()),
        Err(e) => eprintln!("e2e: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let name = w.name();

    let run0 = match reference_check(w, args.seed) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("e2e: {name}: {e}");
            println!("{}", metrics::result_json(false, 1, 1, "{}"));
            return ExitCode::FAILURE;
        }
    };
    println!("{name}: run 0 equals execute, digest {run0:016x}");

    let round = w.shapes().len();
    let mut tracer = Tracer::default();
    let mut samples: Vec<Sample> = Vec::new();
    let mut round_results = Vec::with_capacity(round);
    let mut failed = 0usize;
    let mut all = 0u64;
    let mut probes = Ecdf::new();
    let start = Instant::now();
    let mut i = 0u64;
    while (i as usize) < round || start.elapsed().as_secs_f64() < args.seconds as f64 {
        let probe_s = calib::probe();
        probes.push(probe_s);
        let speed = calib::REFERENCE_S / probe_s;
        let cfg = w.config(args.seed, i);
        let (result, record, plain_wall_s) = if args.trace {
            // Alternate which twin runs first so drift cancels out.
            let plain_first = i.is_multiple_of(2);
            let plain = plain_first.then(|| drive(w, &cfg, None, speed));
            let (traced, rec) = drive(w, &cfg, Some(&mut tracer), speed);
            let (plain, plain_rec) = plain.unwrap_or_else(|| drive(w, &cfg, None, speed));
            if plain != traced {
                failed += 1;
                eprintln!("e2e: {name} run {i}: the traced run differs from the untraced one");
            }
            (traced, rec, Some(plain_rec.wall_s))
        } else {
            let (r, rec) = drive(w, &cfg, None, speed);
            (r, rec, None)
        };
        if let Err(e) = check(w, &cfg, &result) {
            failed += 1;
            eprintln!("e2e: {name} run {i}: {e}");
        }
        all = fold_digest(all, digest(&result));
        let (requested, undelivered) = requests(w, &cfg, &result);
        samples.push(Sample {
            record,
            probe_s,
            connections: result.connections,
            requested,
            undelivered,
            plain_wall_s,
        });
        if round_results.len() < round {
            round_results.push(result);
        }
        i += 1;
    }

    let probe_s = metrics::quantile(&mut probes, 0.5);
    let speed = calib::REFERENCE_S / probe_s;
    let (decls, values): (&[Decl], Vec<f64>) = if args.trace {
        let layers = metrics::per_layer(&samples, &round_results, &mut tracer, speed);
        (PER_LAYER, layers)
    } else {
        (END_TO_END, metrics::end_to_end(&samples, round))
    };
    let pass = if args.trace { "traced" } else { "untraced" };
    println!(
        "{name}: {} {pass} runs in {:.1} s, digest {all:016x}",
        samples.len(),
        start.elapsed().as_secs_f64()
    );
    println!(
        "{name}: probe median {:.1} us, speed {speed:.4} x reference; times below are at reference speed, run by run",
        probe_s * 1e6
    );
    if let Some(q) = metrics::tail_level(samples.len()) {
        let mut wall = Ecdf::from_samples(samples.iter().map(|s| s.record.wall_s));
        println!(
            "{name}: run_s p{} = {:.6} s over {} runs",
            q * 100.0,
            wall.quantile(q),
            samples.len()
        );
    }
    let reported: Vec<(&Decl, f64)> = decls.iter().zip(values).collect();
    for (d, v) in &reported {
        let better = if d.lower_is_better { "lower" } else { "higher" };
        let bound = d
            .bound
            .map_or(String::new(), |b| format!(", bound {:.0}%", b * 100.0));
        println!(
            "{name}: {:<30} {:>16.6} {:<7} ({better} is better{bound})",
            d.name, v, d.unit
        );
    }
    let metrics_json = metrics::metrics_json(&reported);
    write_report(
        &args,
        &samples,
        &Summary {
            metrics_json: &metrics_json,
            probe_s,
            digests: (run0, all),
        },
    );
    println!(
        "{}",
        metrics::result_json(failed == 0, samples.len(), failed, &metrics_json)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
