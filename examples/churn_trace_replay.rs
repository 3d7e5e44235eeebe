//! Measured-trace replay: export a churn trace, re-import it, and run the
//! incentive mechanism over it.
//!
//! The paper calibrates its synthetic churn to measurement studies
//! (Pareto sessions, 60-minute median). In a deployment study you would
//! replay *measured* traces instead; this example shows the workflow with
//! the CSV trace format (`idpa::netmodel::trace`), using an exported
//! synthetic trace as the stand-in measurement.
//!
//! ```text
//! cargo run --release --example churn_trace_replay
//! ```

use idpa::netmodel::{trace_from_csv, trace_to_csv};
use idpa::prelude::*;

fn main() {
    // [1] Produce a trace (in the field: collect it from a real overlay).
    let cfg = ScenarioConfig {
        adversary_fraction: 0.2,
        seed: 31,
        ..ScenarioConfig::default()
    };
    let world = World::generate(&cfg);
    let schedules = world.nodes.schedules();
    let csv = trace_to_csv(&schedules);
    let sessions: usize = schedules.iter().map(|s| s.sessions().len()).sum();
    println!(
        "[1] exported churn trace: {} nodes, {} sessions, {} bytes of CSV",
        schedules.len(),
        sessions,
        csv.len()
    );

    // [2] Re-import it, as one would a measured trace file.
    let replayed = trace_from_csv(&csv, cfg.n_nodes).expect("trace parses");
    println!(
        "[2] re-imported trace parses and round-trips: {}",
        replayed == schedules
    );

    // [3] Run the full mechanism over the replayed trace.
    let mut replay_world = world.clone();
    replay_world.nodes = replay_world.nodes.with_schedules(replayed);
    let mut run = SimulationRun::new(cfg, replay_world);
    let mut engine = Engine::new();
    run.schedule_all(&mut engine);
    engine.run(&mut run, Some(SimTime::new(cfg.churn.horizon)));
    let result = run.finish();

    println!(
        "[3] replay run: {} connections, ‖π‖ = {:.1}, payoff = {:.1}, anonymity = {:.3}",
        result.connections,
        result.avg_forwarder_set,
        result.avg_good_payoff,
        result.avg_anonymity_degree
    );

    // [4] Availability summary of the trace, the quantity the §2.3
    // probing estimator tracks.
    let mut avail: Vec<f64> = schedules
        .iter()
        .map(idpa::netmodel::NodeSchedule::availability)
        .collect();
    avail.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!(
        "[4] trace availability: min {:.2}, median {:.2}, max {:.2}",
        avail.first().unwrap(),
        avail[avail.len() / 2],
        avail.last().unwrap()
    );
    println!(
        "\nTo export a trace for external tooling: cargo run -p idpa-sim -- trace-export [SEED]"
    );
}
