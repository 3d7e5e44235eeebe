//! A minimal, dependency-free benchmark harness.
//!
//! Replaces the former criterion dev-dependency so the workspace builds
//! and benches fully offline. Each bench target registers kernels on a
//! [`Harness`]; a kernel is timed as the **median of N batch samples**
//! (wall clock), where the batch iteration count is auto-calibrated so a
//! batch is long enough for the clock to resolve. Results are printed as
//! a table and merged into a flat JSON file (`name -> ns/iter`), so
//! successive bench targets accumulate into one report.
//!
//! Setting `IDPA_BENCH_SMOKE=1` turns every kernel into a single
//! un-timed iteration and suppresses the report merge — CI uses this to
//! prove each bench binary still runs without paying for measurement.
//!
//! As with libtest, the bench binary's first free argument filters the
//! kernels by name substring: `cargo bench -p idpa-bench --bench kernels
//! -- crypto/` times only the `crypto/*` kernels, and the report keeps
//! every other entry as it was.

use std::collections::BTreeMap;
use std::ffi::OsStr;
use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub use std::hint::black_box as bb;

/// Target wall-clock duration of one calibrated batch.
const TARGET_BATCH_NS: f64 = 20_000_000.0; // 20 ms
/// Batches sampled per kernel (median taken).
const DEFAULT_SAMPLES: usize = 11;

/// One measured kernel: `ns_per_iter` is the median-of-samples estimate.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Kernel name, conventionally `group/kernel`.
    pub name: String,
    /// Median nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Iterations per batch used for the measurement.
    pub iters_per_batch: u64,
    /// Number of batch samples taken.
    pub samples: usize,
}

/// Collects kernel measurements for one bench target.
#[derive(Debug, Default)]
pub struct Harness {
    measurements: Vec<Measurement>,
    /// Only kernels whose names contain this are run.
    filter: Option<String>,
}

impl Harness {
    /// An empty harness, filtered by the process's first free argument
    /// (one not starting with `-`; cargo passes `--bench`).
    #[must_use]
    pub fn new() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Harness::with_filter(filter.as_deref())
    }

    /// An empty harness that runs only the kernels whose names contain
    /// `filter` (every kernel for `None`).
    fn with_filter(filter: Option<&str>) -> Self {
        Harness {
            measurements: Vec::new(),
            filter: filter.map(str::to_string),
        }
    }

    /// Times `f` and records the measurement under `name`; a kernel the
    /// filter leaves out is neither run nor recorded.
    ///
    /// Warm-up: `f` runs at least once and for at least `TARGET_BATCH_NS`
    /// of wall time, so a penalty the first calls of a process pay stays
    /// out of the figure. Calibration: a batch runs as many iterations as
    /// the last warm-up call says fill `TARGET_BATCH_NS`, and at least
    /// one; every
    /// kernel, however slow, takes `DEFAULT_SAMPLES` batches. The reported
    /// figure is the median batch, divided by the batch iteration count.
    pub fn bench<R, F: FnMut() -> R>(&mut self, name: &str, mut f: F) {
        if self
            .filter
            .as_ref()
            .is_some_and(|want| !name.contains(want))
        {
            return;
        }
        // Warm-up; its last call is the calibration probe. A smoke run
        // makes one call.
        let warm_start = Instant::now();
        let probe_ns = loop {
            let call_start = Instant::now();
            black_box(f());
            let call_ns = call_start.elapsed().as_nanos() as f64;
            if smoke_mode() || warm_start.elapsed().as_nanos() as f64 >= TARGET_BATCH_NS {
                break call_ns;
            }
        };

        if smoke_mode() {
            println!("bench {name:<44} smoke: 1 iter, not timed");
            self.measurements.push(Measurement {
                name: name.to_string(),
                ns_per_iter: probe_ns,
                iters_per_batch: 1,
                samples: 1,
            });
            return;
        }

        let iters = ((TARGET_BATCH_NS / probe_ns.max(1.0)).ceil() as u64).clamp(1, 100_000_000);
        let mut batch_ns: Vec<f64> = Vec::with_capacity(DEFAULT_SAMPLES);
        for _ in 0..DEFAULT_SAMPLES {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            batch_ns.push(start.elapsed().as_nanos() as f64);
        }
        batch_ns.sort_by(|a, b| a.total_cmp(b));
        let median = batch_ns[batch_ns.len() / 2];
        let m = Measurement {
            name: name.to_string(),
            ns_per_iter: median / iters as f64,
            iters_per_batch: iters,
            samples: DEFAULT_SAMPLES,
        };
        println!(
            "bench {:<44} {:>14} ns/iter  (x{} iters, {} samples)",
            m.name,
            format_ns(m.ns_per_iter),
            m.iters_per_batch,
            m.samples
        );
        self.measurements.push(m);
    }

    /// The measurements recorded so far.
    #[must_use]
    pub fn measurements(&self) -> &[Measurement] {
        &self.measurements
    }

    /// Merges the measurements into the flat JSON report at `path`
    /// (created if absent): existing keys not re-measured are preserved.
    ///
    /// # Errors
    /// Propagates I/O failures reading or writing the report.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        let mut map: BTreeMap<String, f64> = match std::fs::read_to_string(path) {
            Ok(s) => parse_flat_json(&s),
            Err(_) => BTreeMap::new(),
        };
        for m in &self.measurements {
            map.insert(m.name.clone(), m.ns_per_iter);
        }
        let mut out = String::from("{\n");
        let n = map.len();
        for (i, (k, v)) in map.iter().enumerate() {
            out.push_str(&format!("  \"{k}\": {v:.1}"));
            out.push_str(if i + 1 < n { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())
    }

    /// Merges into the default report location: `$IDPA_BENCH_OUT`, or
    /// [`default_report_path`] for the running bench target — never a
    /// committed `BENCH_*.json`. A no-op under `IDPA_BENCH_SMOKE=1` (smoke
    /// numbers are not measurements).
    ///
    /// # Errors
    /// Propagates I/O failures from [`Harness::write_json`].
    pub fn write_json_default(&self) -> std::io::Result<()> {
        if smoke_mode() {
            println!("bench report skipped (IDPA_BENCH_SMOKE=1)");
            return Ok(());
        }
        let path = match std::env::var("IDPA_BENCH_OUT") {
            Ok(p) => PathBuf::from(p),
            Err(_) => {
                let exe = std::env::current_exe()?;
                let stem = exe.file_stem().and_then(OsStr::to_str).unwrap_or("bench");
                let path = default_report_path(bench_name(stem));
                if let Some(dir) = path.parent() {
                    std::fs::create_dir_all(dir)?;
                }
                path
            }
        };
        let path = path.to_string_lossy();
        self.write_json(&path)?;
        println!("bench report merged into {path}");
        Ok(())
    }
}

/// `target/bench/<bench>.json` under the workspace root: where a bench
/// target's report goes unless `IDPA_BENCH_OUT` says otherwise.
#[must_use]
pub fn default_report_path(bench: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/bench")
        .join(format!("{bench}.json"))
}

/// A bench executable's target name: its file stem without the
/// `-<16 hex digits>` suffix cargo appends.
fn bench_name(stem: &str) -> &str {
    match stem.rsplit_once('-') {
        Some((name, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            name
        }
        _ => stem,
    }
}

/// Whether `IDPA_BENCH_SMOKE=1`: run each kernel once, skip the report.
#[must_use]
pub fn smoke_mode() -> bool {
    std::env::var("IDPA_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// Parses the flat `{"name": number, ...}` JSON this harness writes.
/// Tolerant of whitespace; ignores malformed entries.
fn parse_flat_json(s: &str) -> BTreeMap<String, f64> {
    let mut map = BTreeMap::new();
    let body = s.trim().trim_start_matches('{').trim_end_matches('}');
    for entry in body.split(',') {
        let Some((k, v)) = entry.split_once(':') else {
            continue;
        };
        let key = k.trim().trim_matches('"');
        if key.is_empty() {
            continue;
        }
        if let Ok(num) = v.trim().parse::<f64>() {
            map.insert(key.to_string(), num);
        }
    }
    map
}

/// Human-readable ns with thousands separators.
fn format_ns(ns: f64) -> String {
    let raw = format!("{ns:.1}");
    let (int_part, frac) = raw.split_once('.').unwrap_or((&raw, "0"));
    let mut grouped = String::new();
    for (i, ch) in int_part.chars().rev().enumerate() {
        if i > 0 && i % 3 == 0 {
            grouped.push('_');
        }
        grouped.push(ch);
    }
    let int_grouped: String = grouped.chars().rev().collect();
    format!("{int_grouped}.{frac}")
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;

    #[test]
    fn measures_a_cheap_kernel() {
        let mut h = Harness::with_filter(None);
        let mut acc = 0u64;
        h.bench("test/add", || {
            acc = acc.wrapping_add(1);
            acc
        });
        assert_eq!(h.measurements().len(), 1);
        assert!(h.measurements()[0].ns_per_iter > 0.0);
        assert!(h.measurements()[0].iters_per_batch > 1);
    }

    #[test]
    fn a_slow_kernel_takes_every_sample() {
        let mut h = Harness::with_filter(None);
        h.bench("test/sleep_11ms", || {
            std::thread::sleep(std::time::Duration::from_millis(11));
        });
        let m = &h.measurements()[0];
        assert_eq!(m.samples, DEFAULT_SAMPLES);
        assert!(m.ns_per_iter >= 11e6, "{} ns/iter", m.ns_per_iter);
    }

    #[test]
    fn json_round_trip_merges() {
        let dir = std::env::temp_dir().join("idpa_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);

        let mut h = Harness::with_filter(None);
        h.bench("a/one", || 1u64);
        h.write_json(path).unwrap();
        let first = parse_flat_json(&std::fs::read_to_string(path).unwrap());
        assert!(first.contains_key("a/one"));

        let mut h2 = Harness::with_filter(None);
        h2.bench("b/two", || 2u64);
        h2.write_json(path).unwrap();
        let merged = parse_flat_json(&std::fs::read_to_string(path).unwrap());
        assert!(merged.contains_key("a/one") && merged.contains_key("b/two"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn filter_skips_and_keeps_other_report_entries() {
        let dir = std::env::temp_dir().join("idpa_bench_filter_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let path = path.to_str().unwrap();
        std::fs::write(path, "{\n  \"a/one\": 7.0,\n  \"b/two\": 9.0\n}\n").unwrap();

        let mut h = Harness::with_filter(Some("b/"));
        let mut ran = Vec::new();
        h.bench("a/one", || ran.push("a"));
        h.bench("b/two", || 2u64);
        assert!(ran.is_empty(), "a filtered-out kernel ran");
        let names: Vec<&str> = h.measurements().iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["b/two"]);
        h.write_json(path).unwrap();
        let merged = parse_flat_json(&std::fs::read_to_string(path).unwrap());
        assert_eq!(merged["a/one"], 7.0, "an unmeasured entry changed");
        assert_ne!(merged["b/two"], 9.0);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn default_report_lands_under_target_not_on_a_committed_file() {
        let path = default_report_path(bench_name("probe_scale-0123456789abcdef"));
        assert!(path.ends_with("target/bench/probe_scale.json"), "{path:?}");
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert_eq!(path.parent().unwrap(), root.join("target/bench"));
        // A stem without cargo's hash suffix is already the name.
        assert_eq!(bench_name("kernels"), "kernels");
        assert_eq!(bench_name("node-lifecycle"), "node-lifecycle");
    }

    #[test]
    fn parser_ignores_garbage() {
        let map = parse_flat_json("{\"ok\": 1.5, \"bad\": x, nonsense}");
        assert_eq!(map.len(), 1);
        assert_eq!(map["ok"], 1.5);
    }

    #[test]
    fn format_ns_groups_thousands() {
        assert_eq!(format_ns(1_234_567.89), "1_234_567.9");
        assert_eq!(format_ns(12.3), "12.3");
    }
}
