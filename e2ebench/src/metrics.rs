//! Metric declarations and their computation from run records.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single list of what the
//! benchmark reports; `BENCHMARK.json` declares the same names, units and
//! bounds, and a test holds the two in step.

use idpa_desim::stats::Ecdf;
use idpa_sim::RunResult;

use crate::drive::{RunRecord, Tracer, ARRIVAL, EV_NAMES, RETRY, TRANSMIT};

/// One declared metric: name, unit, and whether lower values are better.
/// End-to-end metrics also carry the regression bound (a share of the
/// parent's median).
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        lower_is_better: lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, lower: bool) -> Decl {
    Decl {
        name,
        unit,
        lower_is_better: lower,
        bound: None,
    }
}

/// Reported on the untraced pass (`--trace 0`).
pub const END_TO_END: &[Decl] = &[
    e2e("setup_s", "s", true, 0.25),
    e2e("run_s_p50", "s", true, 0.2),
    e2e("conn_per_s", "conn/s", false, 0.2),
    e2e("peak_heap_mib_p95", "MiB", true, 0.02),
];

/// Reported on the traced pass (`--trace 1`).
pub const PER_LAYER: &[Decl] = &[
    layer("world.generate_s", "s", true),
    layer("runner.new_s", "s", true),
    layer("runner.schedule_s", "s", true),
    layer("world.heap_mib", "MiB", true),
    layer("desim.events", "count", true),
    layer("desim.calendar_s", "s", true),
    layer("desim.pending_peak", "count", true),
    layer("runner.maintain.n", "count", true),
    layer("runner.maintain.self_s", "s", true),
    layer("runner.transmit.n", "count", true),
    layer("runner.transmit.self_s", "s", true),
    layer("runner.retry.n", "count", true),
    layer("runner.retry.self_s", "s", true),
    layer("runner.arrival.n", "count", true),
    layer("runner.arrival.self_s", "s", true),
    layer("runner.epoch_settle.n", "count", true),
    layer("runner.epoch_settle.self_s", "s", true),
    layer("runner.whitewash.n", "count", true),
    layer("runner.whitewash.self_s", "s", true),
    layer("runner.connect_us_p50", "us", true),
    layer("runner.connect_us_p99", "us", true),
    layer("runner.maintain_us_p50", "us", true),
    layer("runner.maintain_us_p99", "us", true),
    layer("runner.epoch_settle_ms_p50", "ms", true),
    layer("runner.finish_s", "s", true),
    layer("runner.retry_share", "ratio", true),
    layer("runner.fail_frac", "ratio", true),
    layer("snapshot.encode_s", "s", true),
    layer("snapshot.restore_s", "s", true),
    layer("snapshot.frame_kib", "KiB", true),
    layer("snapshot.encode_mib_per_s", "MiB/s", false),
    layer("payment.wal_records", "count", true),
    layer("payment.wal_bytes", "count", true),
    layer("payment.epochs_settled", "count", true),
    layer("payment.netting_ratio", "ratio", false),
    layer("payment.monitor_checks", "count", true),
    layer("payment.invariant_violations", "count", true),
    layer("slab.peak_nodes", "count", true),
    layer("slab.evictions", "count", true),
    layer("slab.kib", "KiB", true),
    layer("adversary.phantom_flag_ratio", "ratio", false),
    layer("adversary.whitewash_events", "count", true),
    layer("trace.overhead", "ratio", true),
    layer("trace.accounted", "ratio", false),
    layer("calib.speed", "ratio", false),
];

const MIB: f64 = 1024.0 * 1024.0;

/// One timed run as the report sees it. Full results are kept for the
/// first round only (see [`per_layer`]); a million-node result alone
/// holds 8 MB of per-node totals.
pub struct Sample {
    /// Times at reference speed.
    pub record: RunRecord,
    /// The probe taken just before the run, as measured.
    pub probe_s: f64,
    pub connections: u64,
    pub requested: f64,
    pub undelivered: f64,
    /// Wall of the untraced twin of a traced run.
    pub plain_wall_s: Option<f64>,
}

fn sum(xs: impl Iterator<Item = f64>) -> f64 {
    xs.sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median by the nearest-rank rule of [`Ecdf::quantile`]; 0 when empty.
pub fn quantile(ecdf: &mut Ecdf, q: f64) -> f64 {
    if ecdf.is_empty() {
        0.0
    } else {
        ecdf.quantile(q)
    }
}

/// The highest percentile that leaves at least ten samples beyond its
/// nearest-rank position (rank `⌈q·n⌉`, as [`Ecdf::quantile`] reads it),
/// from a fixed ladder; `None` when even the median leaves fewer.
pub fn tail_level(n: usize) -> Option<f64> {
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|per_mille| n - (n * per_mille).div_ceil(1000) >= 10)
        .map(|per_mille| per_mille as f64 / 1000.0)
}

/// End-to-end metrics over every untraced sample, in [`END_TO_END`] order.
/// `round` is the number of scenario shapes the workload cycles through.
pub fn end_to_end(samples: &[Sample], round: usize) -> Vec<f64> {
    let mut setup = Ecdf::from_samples(samples.iter().map(|s| s.record.setup_s()));
    let mut wall = Ecdf::from_samples(samples.iter().map(|s| s.record.wall_s));
    // Σ connections / Σ wall within each full round, so every rate covers
    // the whole scenario mix; the median over rounds keeps a round slowed
    // by a noisy neighbour from moving it, where one sum over all runs
    // would not.
    let mut rate = Ecdf::from_samples(samples.chunks_exact(round).map(|r| {
        ratio(
            sum(r.iter().map(|s| s.connections as f64)),
            sum(r.iter().map(|s| s.record.wall_s)),
        )
    }));
    // Not the largest per-run peak, an extreme value: over ten seeds its
    // spread on `service_hostile` was 3.6%, the 95th percentile's under 1%
    // (`baseline/spread`).
    let mut heap = Ecdf::from_samples(samples.iter().map(|s| s.record.peak_heap_bytes as f64));
    vec![
        quantile(&mut setup, 0.5),
        quantile(&mut wall, 0.5),
        quantile(&mut rate, 0.5),
        quantile(&mut heap, 0.95) / MIB,
    ]
}

/// Per-layer metrics, in [`PER_LAYER`] order. Times are per-run means over
/// every traced sample. Counts are per-run means over the first round,
/// the samples `round` holds results for, which are the same scenarios in
/// every process given the seed.
pub fn per_layer(
    samples: &[Sample],
    round: &[RunResult],
    tracer: &mut Tracer,
    speed: f64,
) -> Vec<f64> {
    let n = samples.len() as f64;
    let first = &samples[..round.len()];
    let nf = first.len() as f64;
    let mean = |f: &dyn Fn(&Sample) -> f64| sum(samples.iter().map(f)) / n;
    let mean_first = |f: &dyn Fn(&Sample) -> f64| sum(first.iter().map(f)) / nf;
    let handlers = |s: &Sample| s.record.handlers.unwrap_or_default();
    let self_sum = |s: &Sample| handlers(s).self_s.iter().sum::<f64>();

    let mut out = vec![
        mean(&|s| s.record.generate_s),
        mean(&|s| s.record.new_s),
        mean(&|s| s.record.schedule_s),
        mean_first(&|s| s.record.world_heap_bytes as f64 / MIB),
        mean_first(&|s| s.record.events as f64),
        mean(&|s| s.record.engine_s - self_sum(s)),
        first
            .iter()
            .map(|s| handlers(s).pending_peak as f64)
            .fold(0.0, f64::max),
    ];
    for slot in 0..EV_NAMES.len() {
        out.push(mean_first(&|s| handlers(s).n[slot] as f64));
        out.push(mean(&|s| handlers(s).self_s[slot]));
    }
    let retry = sum(first.iter().map(|s| handlers(s).n[RETRY] as f64));
    let attempts = sum(first.iter().map(|s| {
        let h = handlers(s);
        (h.n[TRANSMIT] + h.n[RETRY] + h.n[ARRIVAL]) as f64
    }));
    let encoded = sum(samples.iter().map(|s| s.record.frame_bytes as f64));
    let encode_s = sum(samples.iter().map(|s| s.record.encode_s));
    let traced = sum(samples.iter().map(|s| s.record.wall_s));
    let plain = sum(samples.iter().filter_map(|s| s.plain_wall_s));
    let accounted = sum(samples.iter().map(|s| {
        let r = &s.record;
        r.setup_s() + r.engine_s + r.encode_s + r.restore_s + r.finish_s
    }));
    let mean_round = |f: &dyn Fn(&RunResult) -> f64| sum(round.iter().map(f)) / nf;
    out.extend([
        quantile(&mut tracer.connect_us, 0.5),
        quantile(&mut tracer.connect_us, 0.99),
        quantile(&mut tracer.maintain_us, 0.5),
        quantile(&mut tracer.maintain_us, 0.99),
        quantile(&mut tracer.epoch_settle_ms, 0.5),
        mean(&|s| s.record.finish_s),
        ratio(retry, attempts),
        ratio(
            sum(first.iter().map(|s| s.undelivered)),
            sum(first.iter().map(|s| s.requested)),
        ),
        mean(&|s| s.record.encode_s),
        mean(&|s| s.record.restore_s),
        mean_first(&|s| s.record.frame_bytes as f64 / 1024.0),
        ratio(encoded / MIB, encode_s),
        mean_round(&|r| r.bank_wal_records as f64),
        mean_round(&|r| r.bank_wal_bytes as f64),
        mean_round(&|r| r.epochs_settled as f64),
        mean_round(&|r| r.epoch_netting_ratio),
        mean_round(&|r| r.bank_monitor_checks as f64),
        sum(round.iter().map(|r| r.bank_monitor_violations as f64)),
        mean_round(&|r| r.peak_materialized_nodes as f64),
        mean_round(&|r| r.node_evictions as f64),
        mean_round(&|r| r.slab_bytes as f64 / 1024.0),
        ratio(
            sum(round.iter().map(|r| r.clique_phantom_flagged as f64)),
            sum(round.iter().map(|r| r.clique_phantom_instances as f64)),
        ),
        mean_round(&|r| r.whitewash_events as f64),
        ratio(traced, plain) - 1.0,
        ratio(accounted, traced),
        speed,
    ]);
    out
}

/// The `metrics` object: each value with its unit, printed with every
/// digit Rust keeps.
pub fn metrics_json(metrics: &[(&Decl, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(*v),
                d.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

/// A finite number as JSON (non-finite values cannot occur in a valid
/// report and are written as 0 rather than producing invalid JSON).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The declaration line `BENCHMARK.json` carries for `d`.
    fn declaration(d: &Decl) -> String {
        let better = if d.lower_is_better { "lower" } else { "higher" };
        match d.bound {
            Some(b) => format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {b}}}",
                d.name, d.unit
            ),
            None => format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                d.name, d.unit
            ),
        }
    }

    #[test]
    fn tail_level_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_level(10_000), Some(0.999));
        assert_eq!(tail_level(1800), Some(0.99));
        assert_eq!(tail_level(1000), Some(0.99));
        assert_eq!(tail_level(999), Some(0.95));
        assert_eq!(tail_level(280), Some(0.95));
        assert_eq!(tail_level(100), Some(0.9));
        assert_eq!(tail_level(40), Some(0.75));
        assert_eq!(tail_level(20), Some(0.5));
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(0), None);
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let declared = |section: &str| -> Vec<String> {
            let start = BENCHMARK_JSON
                .find(&format!("\"{section}\""))
                .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
            let rest = &BENCHMARK_JSON[start..];
            let end = rest.find(']').expect("section closes");
            rest[..end]
                .lines()
                .map(str::trim)
                .filter(|l| l.starts_with('{'))
                .map(|l| l.trim_end_matches(',').to_string())
                .collect()
        };
        let expect = |decls: &[Decl]| decls.iter().map(declaration).collect::<Vec<_>>();
        assert_eq!(declared("end_to_end"), expect(END_TO_END));
        assert_eq!(declared("per_layer"), expect(PER_LAYER));
        let workloads: Vec<String> = declared("workloads")
            .iter()
            .map(|l| {
                let name = l.split('"').nth(3).expect("workload line has a name");
                name.to_string()
            })
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_end_to_end_keeps_setup_s() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
        let setup = &END_TO_END[0];
        assert_eq!((setup.name, setup.unit), ("setup_s", "s"));
        let widest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the widest bound"
        );
    }

    #[test]
    fn per_variant_names_follow_the_tracer_slots() {
        let first = PER_LAYER
            .iter()
            .position(|d| d.name == "runner.maintain.n")
            .expect("per-variant metrics are declared");
        for (slot, ev) in EV_NAMES.iter().enumerate() {
            assert_eq!(PER_LAYER[first + 2 * slot].name, format!("runner.{ev}.n"));
            assert_eq!(
                PER_LAYER[first + 2 * slot + 1].name,
                format!("runner.{ev}.self_s")
            );
        }
    }

    #[test]
    fn end_to_end_rates_cover_full_rounds() {
        let sample = |wall_s: f64, connections: u64, peak_heap_bytes: usize| Sample {
            record: RunRecord {
                generate_s: wall_s / 4.0,
                wall_s,
                peak_heap_bytes,
                ..RunRecord::default()
            },
            connections,
            probe_s: 0.75e-3,
            requested: connections as f64,
            undelivered: 0.0,
            plain_wall_s: None,
        };
        // Three rounds of two shapes, at 100, 200 and 50 connections a
        // second, and a partial fourth round that does not count.
        let samples = [
            sample(1.0, 100, 3 << 20),
            sample(3.0, 300, 5 << 20),
            sample(1.0, 300, 4 << 20),
            sample(1.0, 100, 3 << 20),
            sample(4.0, 200, 5 << 20),
            sample(4.0, 200, 4 << 20),
            sample(0.5, 1000, 9 << 20),
        ];
        let m = end_to_end(&samples, 2);
        assert_eq!(m, vec![0.25, 1.0, 100.0, 9.0]);
        // Single-shape workloads: every run is a round, so the rate is the
        // median of 100, 100 and 300, not 700 / 5.
        assert_eq!(end_to_end(&samples[..3], 1)[2], 100.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let metrics = metrics_json(&[(&END_TO_END[0], 0.8127), (&END_TO_END[2], f64::NAN)]);
        let line = result_json(true, 3, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"conn_per_s\": {\"value\": 0, \"unit\": \"conn/s\"}}}"
        );
    }
}
