//! Service mode: the crash-safe open-workload runner.
//!
//! [`run_service`] drives one scenario the same way [`SimulationRun::execute`]
//! does — same events, same order, same results — but executes it in
//! **segments** so long runs survive crashes and scheduled shutdowns:
//!
//! * `--snapshot-every K` checkpoints the full run state every `K` simulated
//!   minutes via the [`crate::snapshot`] codec. Checkpoints are taken at
//!   *intermediate horizons* of the engine (run to `t`, stop, serialize):
//!   the calendar is never perturbed, so a checkpointed run is bit-identical
//!   to an uninterrupted one.
//! * `--resume P` restores a checkpoint and continues. The combination
//!   "interrupt at any boundary, resume, run to the horizon" reproduces the
//!   uninterrupted run's [`RunResult`] exactly — across idle-eviction
//!   windows, settlement modes, seeds and fault plans (the
//!   equivalence suite pins this).
//! * `--max-wall-secs S` is the graceful-shutdown clock: the event loop
//!   polls a wall-clock deadline every few thousand events (an *event
//!   budget*, so the simulated trajectory is untouched), and on expiry
//!   drains the in-flight event, writes a final checkpoint and returns the
//!   partial aggregates with [`RunResult::interrupted`] set. Where the
//!   platform offers signals this is the place SIGTERM would hook in; this
//!   build is `forbid(unsafe_code)` + std-only, so the wall-clock deadline
//!   is the supported trigger.
//!
//! Checkpoint writes are atomic (write `P.tmp`, then rename over `P`): a
//! crash mid-write leaves the previous checkpoint intact, and a torn file
//! can never be mistaken for a valid one anyway thanks to the codec's
//! length + checksum frame.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use idpa_desim::{Engine, SimTime, StopReason};

use crate::error::SimError;
use crate::runner::{Ev, RunResult, SimulationRun};
use crate::scenario::ScenarioConfig;
use crate::snapshot;
use crate::world::World;

/// Events handled between wall-clock deadline polls. Purely a polling
/// granularity: it bounds shutdown latency to a few thousand events
/// without ever touching the simulated trajectory.
const EVENT_CHUNK: u64 = 4096;

/// Service-mode knobs, all optional — with everything `None`,
/// [`run_service`] is exactly [`SimulationRun::execute`] with a `Result`
/// wrapper.
#[derive(Debug, Clone, Default)]
pub struct ServiceOptions {
    /// Checkpoint every this many simulated minutes (requires
    /// [`ServiceOptions::snapshot_path`]).
    pub snapshot_every: Option<f64>,
    /// Where checkpoints are written (atomically, via `.tmp` + rename).
    pub snapshot_path: Option<PathBuf>,
    /// Resume from this checkpoint instead of starting fresh.
    pub resume: Option<PathBuf>,
    /// Graceful-shutdown deadline: stop, checkpoint and return partial
    /// aggregates after this much wall-clock time.
    pub max_wall_secs: Option<u64>,
}

impl ServiceOptions {
    fn validate(&self) -> Result<(), SimError> {
        if let Some(every) = self.snapshot_every {
            if !every.is_finite() || every <= 0.0 {
                return Err(SimError::invalid(
                    "service.snapshot_every",
                    "checkpoint interval must be positive and finite",
                ));
            }
            if self.snapshot_path.is_none() {
                return Err(SimError::invalid(
                    "service.snapshot_path",
                    "--snapshot-every needs --snapshot-path",
                ));
            }
        }
        Ok(())
    }
}

fn io_err(path: &Path, e: &std::io::Error) -> SimError {
    SimError::SnapshotIo {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// Atomically replaces `path` with a fresh checkpoint of `run` + `engine`.
fn write_checkpoint(run: &SimulationRun, engine: &Engine<Ev>, path: &Path) -> Result<(), SimError> {
    let bytes = snapshot::encode(run, engine);
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, &bytes).map_err(|e| io_err(&tmp, &e))?;
    fs::rename(&tmp, path).map_err(|e| io_err(path, &e))?;
    Ok(())
}

/// The smallest multiple of `every` strictly greater than `now` — the next
/// checkpoint boundary. Resume-safe: a run restored at boundary `k·every`
/// schedules its next checkpoint at `(k+1)·every`, exactly where the
/// interrupted run would have.
fn next_boundary(now: f64, every: f64) -> f64 {
    let mut k = (now / every).floor() + 1.0;
    while k * every <= now {
        k += 1.0;
    }
    k * every
}

/// Runs one scenario as a crash-safe service: periodic checkpoints,
/// deterministic resume, graceful wall-clock shutdown.
///
/// Without service options this produces byte-identical results to
/// [`SimulationRun::execute`]; with them, any interrupt-and-resume
/// sequence reproduces the uninterrupted run exactly.
pub fn run_service(cfg: ScenarioConfig, opts: &ServiceOptions) -> Result<RunResult, SimError> {
    cfg.validate()?;
    opts.validate()?;

    let horizon = cfg.churn.horizon;
    let (mut run, mut engine) = match &opts.resume {
        Some(path) => {
            let bytes = fs::read(path).map_err(|e| io_err(path, &e))?;
            snapshot::restore(&cfg, &bytes)?
        }
        None => {
            let world = World::try_generate(&cfg)?;
            let run = SimulationRun::new(cfg, world);
            let mut engine = Engine::new();
            run.schedule_all(&mut engine);
            (run, engine)
        }
    };

    let deadline = opts
        .max_wall_secs
        .map(|secs| Instant::now() + Duration::from_secs(secs));
    let mut next_snap = opts
        .snapshot_every
        .map(|every| next_boundary(engine.now().minutes(), every));
    let mut interrupted = false;

    loop {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            interrupted = true;
            break;
        }
        let target = match next_snap {
            Some(t) if t < horizon => SimTime::new(t),
            _ => SimTime::new(horizon),
        };
        engine.set_event_budget(engine.events_handled() + EVENT_CHUNK);
        match engine.run(&mut run, Some(target)) {
            StopReason::Exhausted => break,
            StopReason::Requested => break,
            StopReason::EventBudget => {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    interrupted = true;
                    break;
                }
            }
            StopReason::Horizon => {
                if target.minutes() >= horizon {
                    break;
                }
                // Intermediate checkpoint boundary: the clock sits exactly
                // at the boundary with every event ≤ it already handled.
                if let (Some(path), Some(every)) = (&opts.snapshot_path, opts.snapshot_every) {
                    write_checkpoint(&run, &engine, path)?;
                    next_snap = Some(next_boundary(target.minutes(), every));
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    interrupted = true;
                    break;
                }
            }
        }
    }
    engine.clear_event_budget();

    if interrupted {
        if let Some(path) = &opts.snapshot_path {
            write_checkpoint(&run, &engine, path)?;
        }
    }

    let mut result = run.finish();
    result.interrupted = interrupted;
    Ok(result)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> ScenarioConfig {
        ScenarioConfig::quick_test(seed)
    }

    #[test]
    fn plain_service_run_matches_execute() {
        let c = cfg(3);
        let baseline = SimulationRun::execute(c);
        let service = run_service(c, &ServiceOptions::default()).expect("service run");
        assert_eq!(baseline, service);
        assert!(!service.interrupted);
    }

    #[test]
    fn checkpointing_does_not_disturb_the_run() {
        let dir = std::env::temp_dir().join("idpa-svc-test-ckpt");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.snap");
        let c = cfg(4);
        let baseline = SimulationRun::execute(c);
        let opts = ServiceOptions {
            snapshot_every: Some(c.churn.horizon / 7.0),
            snapshot_path: Some(path.clone()),
            ..ServiceOptions::default()
        };
        let service = run_service(c, &opts).expect("service run");
        assert_eq!(baseline, service);
        // The last intermediate checkpoint is resumable and completes to
        // the same result.
        let resumed = run_service(
            c,
            &ServiceOptions {
                resume: Some(path.clone()),
                ..ServiceOptions::default()
            },
        )
        .expect("resume");
        assert_eq!(baseline, resumed);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_wall_budget_interrupts_and_checkpoints() {
        let dir = std::env::temp_dir().join("idpa-svc-test-wall");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.snap");
        let c = cfg(5);
        let opts = ServiceOptions {
            snapshot_path: Some(path.clone()),
            max_wall_secs: Some(0),
            ..ServiceOptions::default()
        };
        let partial = run_service(c, &opts).expect("interrupted run");
        assert!(partial.interrupted, "0s wall budget must interrupt");
        // The final checkpoint resumes to the full uninterrupted result.
        let resumed = run_service(
            c,
            &ServiceOptions {
                resume: Some(path.clone()),
                ..ServiceOptions::default()
            },
        )
        .expect("resume");
        assert_eq!(SimulationRun::execute(c), resumed);
        assert!(!resumed.interrupted);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn options_are_validated() {
        let c = cfg(6);
        let e = run_service(
            c,
            &ServiceOptions {
                snapshot_every: Some(10.0),
                ..ServiceOptions::default()
            },
        )
        .expect_err("interval without path must fail");
        assert!(matches!(e, SimError::InvalidConfig { .. }));
        let e = run_service(
            c,
            &ServiceOptions {
                snapshot_every: Some(-1.0),
                snapshot_path: Some(PathBuf::from("/tmp/x")),
                ..ServiceOptions::default()
            },
        )
        .expect_err("negative interval must fail");
        assert!(matches!(e, SimError::InvalidConfig { .. }));
        let e = run_service(
            c,
            &ServiceOptions {
                resume: Some(PathBuf::from("/nonexistent/idpa.snap")),
                ..ServiceOptions::default()
            },
        )
        .expect_err("missing resume file must fail");
        assert!(matches!(e, SimError::SnapshotIo { .. }));
    }

    #[test]
    fn boundary_arithmetic_is_resume_stable() {
        assert_eq!(next_boundary(0.0, 50.0), 50.0);
        assert_eq!(next_boundary(49.9, 50.0), 50.0);
        assert_eq!(next_boundary(50.0, 50.0), 100.0);
        assert_eq!(next_boundary(123.4, 50.0), 150.0);
    }
}
