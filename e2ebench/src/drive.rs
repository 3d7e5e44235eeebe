//! One benchmark run, driven step by step through the public API, with an
//! optional tracer that times every event handler from outside the
//! program.

use std::time::Instant;

use idpa_bench::alloc_counter::CountingAllocator;
use idpa_desim::engine::Control;
use idpa_desim::stats::Ecdf;
use idpa_desim::{Engine, Process, SimTime};
use idpa_sim::runner::Ev;
use idpa_sim::snapshot;
use idpa_sim::{RunResult, ScenarioConfig, SimulationRun, World};

use crate::workloads::Workload;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Event variants the tracer separates, by slot. Eager probing
/// (`Ev::Probe`) is in no workload, so it has no slot.
pub const EV_NAMES: [&str; 6] = [
    "maintain",
    "transmit",
    "retry",
    "arrival",
    "epoch_settle",
    "whitewash",
];
pub const TRANSMIT: usize = 1;
pub const RETRY: usize = 2;
pub const ARRIVAL: usize = 3;

fn ev_slot(ev: Ev) -> usize {
    match ev {
        Ev::Maintain(_) => 0,
        Ev::Transmit { .. } => TRANSMIT,
        Ev::Retry { .. } => RETRY,
        Ev::Arrival { .. } => ARRIVAL,
        Ev::EpochSettle => 4,
        Ev::Whitewash(_) => 5,
        Ev::Probe => panic!("no workload schedules eager probe ticks"),
    }
}

/// Handler timings collected by a traced run. Per-run sums are taken out
/// with [`Tracer::take_run`]; the distributions span every traced run.
#[derive(Default)]
pub struct Tracer {
    n: [u64; EV_NAMES.len()],
    self_s: [f64; EV_NAMES.len()],
    pending_peak: usize,
    /// Per-handler wall (µs) of connection starts: `Transmit` and `Arrival`.
    pub connect_us: Ecdf,
    /// Per-handler wall (µs) of `Maintain`.
    pub maintain_us: Ecdf,
    /// Per-handler wall (ms) of `EpochSettle`.
    pub epoch_settle_ms: Ecdf,
}

impl Tracer {
    fn record(&mut self, ev: Ev, secs: f64, pending: usize) {
        let slot = ev_slot(ev);
        self.n[slot] += 1;
        self.self_s[slot] += secs;
        self.pending_peak = self.pending_peak.max(pending);
        match ev {
            Ev::Transmit { .. } | Ev::Arrival { .. } => self.connect_us.push(secs * 1e6),
            Ev::Maintain(_) => self.maintain_us.push(secs * 1e6),
            Ev::EpochSettle => self.epoch_settle_ms.push(secs * 1e3),
            _ => {}
        }
    }

    /// The per-run counters since the last call, reset for the next run.
    fn take_run(&mut self) -> HandlerTotals {
        let totals = HandlerTotals {
            n: self.n,
            self_s: self.self_s,
            pending_peak: self.pending_peak,
        };
        self.n = [0; EV_NAMES.len()];
        self.self_s = [0.0; EV_NAMES.len()];
        self.pending_peak = 0;
        totals
    }
}

/// One run's handler counts and self times per event variant.
#[derive(Debug, Clone, Copy, Default)]
pub struct HandlerTotals {
    pub n: [u64; EV_NAMES.len()],
    pub self_s: [f64; EV_NAMES.len()],
    pub pending_peak: usize,
}

/// The traced process: delegates each event to the run and times it.
struct Traced<'a> {
    run: &'a mut SimulationRun,
    tracer: &'a mut Tracer,
    speed: f64,
}

impl Process for Traced<'_> {
    type Event = Ev;

    fn handle(&mut self, engine: &mut Engine<Ev>, event: Ev) -> Control {
        let start = Instant::now();
        let control = self.run.handle(engine, event);
        let secs = since(start, self.speed);
        self.tracer.record(event, secs, engine.pending());
        control
    }
}

/// Wall-clock split (at reference speed) and sizes of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunRecord {
    pub generate_s: f64,
    pub new_s: f64,
    pub schedule_s: f64,
    /// Summed wall of the `Engine::run` segments (handlers included).
    pub engine_s: f64,
    pub encode_s: f64,
    pub restore_s: f64,
    pub finish_s: f64,
    pub wall_s: f64,
    pub events: u64,
    pub frame_bytes: u64,
    /// Heap the sampled world holds.
    pub world_heap_bytes: usize,
    /// Heap high-water mark of the run above the live heap at its start.
    pub peak_heap_bytes: usize,
    /// Present on traced runs only.
    pub handlers: Option<HandlerTotals>,
}

impl RunRecord {
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.new_s + self.schedule_s
    }
}

/// Seconds since `start`, restated at reference speed: multiplied by
/// `speed`, the reference probe time over the time of the probe taken
/// just before the run (see [`crate::calib`]).
fn since(start: Instant, speed: f64) -> f64 {
    start.elapsed().as_secs_f64() * speed
}

fn segment(
    run: &mut SimulationRun,
    engine: &mut Engine<Ev>,
    until: f64,
    tracer: &mut Option<&mut Tracer>,
    speed: f64,
) -> f64 {
    let start = Instant::now();
    let until = Some(SimTime::new(until));
    match tracer {
        None => engine.run(run, until),
        Some(tracer) => engine.run(&mut Traced { run, tracer, speed }, until),
    };
    since(start, speed)
}

/// Drives one run from config to [`RunResult`]: `World::generate` →
/// `SimulationRun::new` → `schedule_all` → `Engine::run` in segments,
/// stopping at the workload's snapshot horizons to `encode` (and once to
/// `restore` and continue from the restored state) → `finish`. Every
/// time is multiplied by `speed` (1 leaves it as measured).
pub fn drive(
    workload: Workload,
    cfg: &ScenarioConfig,
    mut tracer: Option<&mut Tracer>,
    speed: f64,
) -> (RunResult, RunRecord) {
    let mut rec = RunRecord::default();
    let heap_base = ALLOC.current_bytes();
    ALLOC.reset_peak();
    let start = Instant::now();

    let world = World::generate(cfg);
    rec.generate_s = since(start, speed);
    rec.world_heap_bytes = ALLOC.current_bytes().saturating_sub(heap_base);
    let t = Instant::now();
    let mut run = SimulationRun::new(*cfg, world);
    rec.new_s = since(t, speed);
    let t = Instant::now();
    let mut engine = Engine::new();
    run.schedule_all(&mut engine);
    rec.schedule_s = since(t, speed);

    let restore_at = workload.restore_index();
    for (k, h) in workload.snapshot_horizons(cfg).into_iter().enumerate() {
        rec.engine_s += segment(&mut run, &mut engine, h, &mut tracer, speed);
        let t = Instant::now();
        let frame = snapshot::encode(&run, &engine);
        rec.encode_s += since(t, speed);
        rec.frame_bytes += frame.len() as u64;
        if restore_at == Some(k) {
            let t = Instant::now();
            (run, engine) = snapshot::restore(cfg, &frame).expect("a fresh snapshot restores");
            rec.restore_s = since(t, speed);
        }
    }
    rec.engine_s += segment(&mut run, &mut engine, cfg.churn.horizon, &mut tracer, speed);
    rec.events = engine.events_handled();

    let t = Instant::now();
    drop(engine);
    let result = run.finish();
    rec.finish_s = since(t, speed);
    rec.wall_s = since(start, speed);
    rec.peak_heap_bytes = ALLOC.peak_bytes().saturating_sub(heap_base);
    rec.handlers = tracer.map(Tracer::take_run);
    (result, rec)
}

/// Connection requests of a run and how many of them went undelivered.
pub fn requests(workload: Workload, cfg: &ScenarioConfig, r: &RunResult) -> (f64, f64) {
    let requested = if workload.closed() {
        cfg.total_transmissions as f64
    } else if r.delivery_ratio > 0.0 {
        (r.connections as f64 / r.delivery_ratio).round()
    } else {
        0.0
    };
    (requested, (requested - r.connections as f64).max(0.0))
}

/// The checks every run must pass.
pub fn check(workload: Workload, cfg: &ScenarioConfig, r: &RunResult) -> Result<(), String> {
    if !r.audit_chain_verified {
        return Err("audit hash chain failed verification".into());
    }
    if r.interrupted {
        return Err("run stopped before its horizon".into());
    }
    if workload.closed() && r.connections != cfg.total_transmissions as u64 {
        return Err(format!(
            "{} connections formed, {} scheduled",
            r.connections, cfg.total_transmissions
        ));
    }
    if workload == Workload::ServiceHostile {
        if r.connections == 0 {
            return Err("no connection delivered".into());
        }
        if r.free_rider_payoff != 0.0 {
            return Err(format!("free riders earned {}", r.free_rider_payoff));
        }
        if (r.clique_phantom_flagged as f64) < 0.9 * r.clique_phantom_instances as f64 {
            return Err(format!(
                "cross-check flagged {} of {} phantom instances",
                r.clique_phantom_flagged, r.clique_phantom_instances
            ));
        }
    }
    Ok(())
}

/// A stable digest of a result (FNV-1a over its `Debug` rendering).
pub fn digest(r: &RunResult) -> u64 {
    idpa_desim::codec::fnv1a_64(format!("{r:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_drive_equals_execute() {
        let cfg = ScenarioConfig::quick_test(7);
        let mut tracer = Tracer::default();
        let (traced, rec) = drive(Workload::PaperClosed, &cfg, Some(&mut tracer), 1.0);
        assert_eq!(traced, SimulationRun::execute(cfg));
        let handlers = rec.handlers.expect("traced runs carry handler totals");
        assert_eq!(handlers.n[1], cfg.total_transmissions as u64);
        assert_eq!(handlers.n.iter().sum::<u64>(), rec.events);
        assert_eq!(tracer.connect_us.len(), cfg.total_transmissions);
    }

    #[test]
    fn snapshot_and_restore_leave_the_result_unchanged() {
        let mut cfg = Workload::ServiceHostile.config(3, 0);
        // Quick-test scale keeps the debug-build test fast.
        cfg.n_pairs = 20;
        cfg.churn.horizon = 6.0 * 60.0;
        let (driven, rec) = drive(Workload::ServiceHostile, &cfg, None, 1.0);
        assert!(rec.frame_bytes > 0 && rec.restore_s > 0.0);
        assert_eq!(driven, SimulationRun::execute(cfg));
        check(Workload::ServiceHostile, &cfg, &driven).expect("hostile checks hold");
    }
}
