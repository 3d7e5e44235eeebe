//! The paper's tables and figures (§3: Figs. 3–7, Table 2, Prop. 1), the
//! ablations from DESIGN.md, and the attack, fault and adversary studies.
//!
//! Most experiments are data: a `Sweep` of rows and arms over metric
//! columns, listed in [`registry`] and run by one interpreter. Each cell,
//! one row under one arm, replicates the base scenario of [`Options`] under
//! **common random numbers** (replication `rep` runs seed `1000 + rep` at
//! every point) on the deterministic work-queue pool ([`idpa_desim::pool`]),
//! so its results are a pure function of its config: bit-identical at any
//! thread count and in any cell order. Six experiments stay functions:
//! the closed forms (`props23`, `crowds-analysis`), the ECDF figures
//! (`fig6`, `fig7`), `scale-lifecycle` (one run per N) and `adversary-zoo`
//! (class-specific columns and a flagged/injected sum over replications).

use std::fmt::{Display, Write as _};
use std::io;
use std::path::PathBuf;

use idpa_core::routing::{AdversaryStrategy, PathPolicy, RoutingStrategy};
use idpa_core::utility::UtilityModel;
use idpa_desim::stats::{Ecdf, OnlineStats};
use idpa_desim::{AdversaryConfig, Engine, FaultConfig, FaultResponse, SimTime};
use idpa_game::forwarding::{dominance_threshold, participation_threshold, ForwardingStageGame};

use crate::chart::{cdf_chart, line_chart, Series};
use crate::report::{fmt_ci, Table};
use crate::runner::{RunResult, SimulationRun};
use crate::scenario::ScenarioConfig;
use crate::world::World;

/// Options shared by all experiments.
#[derive(Debug, Clone)]
pub struct Options {
    /// Replications per sweep point.
    pub reps: u64,
    /// Scale down the workload for smoke runs.
    pub quick: bool,
    /// Output directory for CSVs.
    pub out_dir: PathBuf,
    /// Worker threads for replication fan-out (0 = auto-detect, also
    /// overridable with `IDPA_THREADS`). Results are identical at any
    /// value — only wall-clock time changes.
    pub threads: usize,
    /// The scenario every sweep point starts from: the paper defaults plus
    /// the mode, fault and adversary flags (see [`crate::cli`]). Each
    /// experiment overrides its own axis and the replication seed.
    pub scenario: ScenarioConfig,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            reps: 10,
            quick: false,
            out_dir: PathBuf::from("target/results"),
            threads: 0,
            scenario: ScenarioConfig::default(),
        }
    }
}

impl Options {
    /// The scenario of replication `seed`: [`Options::scenario`], shrunk to
    /// the quick tier under `quick`.
    #[must_use]
    pub(crate) fn base_config(&self, seed: u64) -> ScenarioConfig {
        let base = if self.quick {
            self.scenario.quick()
        } else {
            self.scenario
        };
        ScenarioConfig { seed, ..base }
    }
}

/// `(w_s, w_a)` for a given `w_r`: the remaining mass split evenly, so
/// `w_r = 0` reproduces the paper's `(0.5, 0.5)` exactly.
#[must_use]
pub(crate) fn split_weights(wr: f64) -> (f64, f64) {
    ((1.0 - wr) / 2.0, (1.0 - wr) / 2.0)
}

/// The model II configuration used throughout the experiments (lookahead 2
/// keeps full-scale sweeps tractable; the lookahead ablation explores 1–4).
#[must_use]
pub const fn model_two() -> RoutingStrategy {
    RoutingStrategy::Utility(UtilityModel::ModelII { lookahead: 2 })
}

/// Model I as a strategy.
#[must_use]
pub const fn model_one() -> RoutingStrategy {
    RoutingStrategy::Utility(UtilityModel::ModelI)
}

/// The routing strategies the figures compare, with their labels.
const STRATEGIES: [(&str, RoutingStrategy); 3] = [
    ("random", RoutingStrategy::Random),
    ("model-1", model_one()),
    ("model-2", model_two()),
];

/// The adversary fractions swept in the figures.
const F_SWEEP: [f64; 10] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// Runs `reps` replications in parallel on the deterministic work-queue
/// pool. Replication `rep` runs `base_config(1000 + rep)` after `set`,
/// stopped at `until` times its churn horizon (1 runs it whole), so the
/// result vector is bit-identical at any thread count.
fn replicate(
    opts: &Options,
    until: f64,
    set: impl Fn(&mut ScenarioConfig) + Sync,
) -> Vec<RunResult> {
    let threads = Some(opts.threads).filter(|&n| n > 0);
    let threads = threads.unwrap_or_else(idpa_desim::pool::default_threads);
    idpa_desim::pool::parallel_map(threads, opts.reps as usize, |rep| {
        let mut cfg = opts.base_config(1000 + rep as u64);
        set(&mut cfg);
        let horizon = SimTime::new(cfg.churn.horizon * until);
        let world = World::generate(&cfg);
        let mut run = SimulationRun::new(cfg, world);
        let mut engine = Engine::new();
        run.schedule_all(&mut engine);
        engine.run(&mut run, Some(horizon));
        run.finish()
    })
}

/// Replicates the base configuration as-is — the replication kernel exposed
/// for integration tests that pin thread-count invariance.
#[must_use]
pub fn replicate_base(opts: &Options) -> Vec<RunResult> {
    replicate(opts, 1.0, |_| {})
}

fn stats_of(results: &[RunResult], f: impl Fn(&RunResult) -> f64) -> OnlineStats {
    let mut s = OnlineStats::new();
    for r in results {
        s.push(f(r));
    }
    s
}

/// How a metric column renders its statistics.
#[derive(Clone, Copy)]
enum Fmt {
    /// The mean, at this many decimals.
    Mean(usize),
    /// `mean ± half-width` of the 95% CI ([`fmt_ci`]).
    Ci,
    /// The 95% CI half-width alone, at one decimal.
    Half,
}

/// A metric column: its header (`.0`), what it reads from each run (`.1`)
/// and how it renders (`.2`).
#[derive(Clone, Copy)]
struct Metric(&'static str, fn(&RunResult) -> f64, Fmt);

impl Metric {
    fn render(self, s: &OnlineStats) -> String {
        match self.2 {
            Fmt::Mean(p) => format!("{:.p$}", s.mean()),
            Fmt::Ci => fmt_ci(s.mean(), s.ci95().half_width),
            Fmt::Half => format!("{:.1}", s.ci95().half_width),
        }
    }
}

const PAYOFF: Metric = Metric("avg good payoff", |r| r.avg_good_payoff, Fmt::Mean(0));
const SET: Metric = Metric("‖π‖", |r| r.avg_forwarder_set, Fmt::Mean(2));
const EX: Metric = Metric("E[X]", |r| r.new_edge_fraction, Fmt::Mean(3));
const EFFICIENCY: Metric = Metric("routing efficiency", |r| r.routing_efficiency, Fmt::Mean(0));
const LENGTH: Metric = Metric("path length L", |r| r.avg_path_length, Fmt::Mean(2));
const QUALITY: Metric = Metric("Q(π)", |r| r.avg_path_quality, Fmt::Mean(3));
const EXPOSURE: Metric = Metric("exposure rate", |r| r.attack_exposure_rate, Fmt::Mean(3));
const ANONYMITY: Metric = Metric("anonymity degree", |r| r.avg_anonymity_degree, Fmt::Mean(3));
const DELIVERY: Metric = Metric("delivery ratio", |r| r.delivery_ratio, Fmt::Ci);
const RETRIES: Metric = Metric("retries/msg", |r| r.retries_per_message, Fmt::Mean(3));
const LATENCY: Metric = Metric("reform latency", |r| r.reformation_latency, Fmt::Mean(2));
const SHORTFALL: Metric = Metric("payment shortfall", |r| r.payment_shortfall, Fmt::Mean(2));
/// The mean payoff of a run's malicious nodes (0 when it has none).
const MALICIOUS: Metric = Metric(
    "avg malicious payoff",
    |r| r.malicious_payoffs.iter().sum::<f64>() / r.malicious_payoffs.len().max(1) as f64,
    Fmt::Mean(0),
);

/// A point on a sweep axis: its label cells and its setter.
struct Point {
    cells: Vec<String>,
    /// The row's position on the chart's x axis.
    x: f64,
    /// The fraction of the churn horizon a row's runs stop at.
    until: f64,
    set: Box<dyn Fn(&mut ScenarioConfig) + Sync>,
}

fn point(cells: Vec<String>, set: impl Fn(&mut ScenarioConfig) + Sync + 'static) -> Point {
    let set = Box::new(set);
    Point {
        cells,
        x: 0.0,
        until: 1.0,
        set,
    }
}

/// One point per value, labelled by `label` and set by `set`.
fn axis<T: Copy + Send + Sync + 'static>(
    values: impl IntoIterator<Item = T>,
    label: impl Fn(&T) -> String,
    set: fn(&mut ScenarioConfig, T),
) -> Vec<Point> {
    let at = |v| point(vec![label(&v)], move |c| set(c, v));
    values.into_iter().map(at).collect()
}

/// One point per number, labelled at `decimals` places and charted at
/// its value.
fn line<const N: usize>(
    values: [f64; N],
    decimals: usize,
    set: fn(&mut ScenarioConfig, f64),
) -> Vec<Point> {
    let label = |x: &f64| format!("{x:.decimals$}");
    let points = axis(values, label, set).into_iter().zip(values);
    points.map(|(p, x)| Point { x, ..p }).collect()
}

/// One point per `(label, value)` pair.
fn named<T: Copy + Send + Sync + 'static, const N: usize>(
    pairs: [(&str, T); N],
    set: fn(&mut ScenarioConfig, T),
) -> Vec<Point> {
    let at = |(label, v): (&str, T)| point(vec![label.into()], move |c| set(c, v));
    pairs.into_iter().map(at).collect()
}

/// The plain label of a value.
fn shown(x: &impl Display) -> String {
    x.to_string()
}

/// One point per routing strategy in [`STRATEGIES`].
fn strategies() -> Vec<Point> {
    named(STRATEGIES, |c, s| c.good_strategy = s)
}

/// An experiment as data; see the module documentation.
#[derive(Default)]
struct Sweep {
    name: &'static str,
    csv: &'static str,
    title: String,
    /// The label columns' headers; `across`, every header.
    labels: &'static [&'static str],
    rows: Vec<Point>,
    /// At least one. A single arm is a setting every row shares, and its
    /// label is not a column.
    arms: Vec<Point>,
    /// Each arm adds its metric columns to the row instead of a row.
    across: bool,
    metrics: Vec<Metric>,
    /// A line chart's title and the metric it plots against the rows' `x`,
    /// a series per arm.
    chart: Option<(&'static str, usize)>,
    /// Ends the table with the mean of each column's row means.
    mean_row: bool,
}

/// A sweep with a name, a CSV stem and one arm that sets nothing.
fn sweep(name: &'static str, csv: &'static str) -> Sweep {
    let arms = vec![point(vec![String::new()], |_| {})];
    Sweep {
        name,
        csv,
        arms,
        ..Sweep::default()
    }
}

/// An ablation: a sweep whose rows run model I routing at `f = 0.1`
/// unless their setter overrides either.
fn ablation(name: &'static str, csv: &'static str) -> Sweep {
    let arms = vec![point(vec![String::new()], |c| {
        c.good_strategy = model_one();
        c.adversary_fraction = 0.1;
    })];
    Sweep {
        arms,
        ..sweep(name, csv)
    }
}

impl Sweep {
    /// The interpreter: replicates every cell, renders the table (and the
    /// chart) and writes the CSV.
    fn run(&self, opts: &Options) -> io::Result<String> {
        let width = self.metrics.len();
        let cell = |row: &Point, arm: &Point| {
            let results = replicate(opts, row.until, |c| {
                (arm.set)(c);
                (row.set)(c);
            });
            self.metrics.iter().map(move |k| stats_of(&results, k.1))
        };
        // Per row, the statistics of every (arm, metric) column, arm-major.
        let stats: Vec<Vec<OnlineStats>> = (self.rows.iter())
            .map(|row| self.arms.iter().flat_map(|arm| cell(row, arm)).collect())
            .collect();
        let render = |j: usize, s: &OnlineStats| self.metrics[j % width].render(s);
        let metric_headers = self.metrics.iter().map(|m| m.0).filter(|_| !self.across);
        let header: Vec<&str> = self.labels.iter().copied().chain(metric_headers).collect();
        let mut table = Table::new(&header);
        for (row, columns) in self.rows.iter().zip(&stats) {
            let cells: Vec<String> = (columns.iter().enumerate())
                .map(|(j, s)| render(j, s))
                .collect();
            if self.across {
                table.row([&row.cells[..], &cells].concat());
                continue;
            }
            for (arm, metrics) in self.arms.iter().zip(cells.chunks(width)) {
                let mut labels = row.cells.clone();
                if self.arms.len() > 1 {
                    labels.extend_from_slice(&arm.cells);
                }
                table.row([&labels[..], metrics].concat());
            }
        }
        if self.mean_row {
            let columns = self.arms.len() * width;
            let mut means = vec![OnlineStats::new(); columns];
            for (j, s) in stats.iter().flatten().enumerate() {
                means[j % columns].push(s.mean());
            }
            let cells = means.iter().enumerate().map(|(j, s)| render(j, s));
            table.row(std::iter::once(String::from("mean")).chain(cells).collect());
        }
        table.write_csv(&opts.out_dir, self.csv)?;
        let mut out = format!("## {}\n\n{}", self.title, table.to_markdown());
        if let Some((title, metric)) = self.chart {
            let curve = |arm: usize| {
                let means = stats.iter().map(|row| row[arm * width + metric].mean());
                self.rows.iter().map(|row| row.x).zip(means).collect()
            };
            let series: Vec<Series> = (self.arms.iter().enumerate())
                .map(|(i, arm)| Series::new(arm.cells.concat(), curve(i)))
                .collect();
            let rendered = line_chart(title, &series, 60, 12);
            let _ = write!(out, "\n```text\n{rendered}```\n");
        }
        Ok(out)
    }
}

/// Figs. 3 and 4: average payoff of a non-malicious node vs `f`, with 95%
/// confidence intervals, for the given utility model.
fn fig_payoff_vs_f(name: &'static str, csv: &'static str, strategy: RoutingStrategy) -> Sweep {
    Sweep {
        title: format!("{csv}: average payoff for a non-malicious node"),
        labels: &["f"],
        rows: line(F_SWEEP, 1, |c, f| c.adversary_fraction = f),
        arms: vec![point(vec!["payoff".into()], move |c| {
            c.good_strategy = strategy
        })],
        metrics: vec![
            Metric("avg good payoff", |r| r.avg_good_payoff, Fmt::Mean(1)),
            Metric("95% CI half-width", |r| r.avg_good_payoff, Fmt::Half),
        ],
        chart: Some(("avg good-node payoff vs f", 0)),
        ..sweep(name, csv)
    }
}

/// Figs. 6–7: CDF of good-node payoffs at a fixed `f`, per strategy.
/// Reports deciles in the markdown table; full curves go to CSV.
fn fig_payoff_cdf(opts: &Options, f: f64, name: &str) -> io::Result<String> {
    let mut curves = STRATEGIES.map(|(label, strategy)| {
        let results = replicate(opts, 1.0, |c| {
            c.adversary_fraction = f;
            c.good_strategy = strategy;
        });
        let payoffs = results.iter().flat_map(|r| r.good_payoffs.iter().copied());
        (label, Ecdf::from_samples(payoffs))
    });

    // Deciles table.
    let mut table = Table::new(&["quantile", "random", "model I", "model II"]);
    for q in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
        let deciles = curves
            .iter_mut()
            .map(|(_, ecdf)| format!("{:.0}", ecdf.quantile(q)));
        table.row(std::iter::once(format!("{q:.1}")).chain(deciles).collect());
    }

    // Full curves to CSV, and the variance summary (the paper's
    // observation: model I has the largest spread, random the smallest).
    let mut csv = Table::new(&["strategy", "payoff", "cdf"]);
    let mut summary = Table::new(&["strategy", "mean", "std dev", "max"]);
    for (label, ecdf) in &mut curves {
        let mut s = OnlineStats::new();
        for (x, p) in ecdf.points() {
            csv.row(vec![(*label).into(), format!("{x:.3}"), format!("{p:.5}")]);
            s.push(x);
        }
        let cells = [s.mean(), s.std_dev(), s.max()].map(|v| format!("{v:.1}"));
        summary.row([vec![label.to_string()], cells.into()].concat());
    }
    csv.write_csv(&opts.out_dir, name)?;

    // Render the CDFs (downsampled to percentiles for the terminal).
    let percentiles = (1..=100).map(|p| f64::from(p) / 100.0);
    let series: Vec<Series> = (curves.iter_mut())
        .map(|(label, ecdf)| {
            let points = percentiles.clone().map(|q| (ecdf.quantile(q), q));
            Series::new(*label, points.collect())
        })
        .collect();
    let chart = cdf_chart("payoff CDF (x = payoff, y = F(x))", &series, 64, 14);
    Ok(format!(
        "## {name}: CDF of good-node payoff at f={f}\n\n### Payoff deciles\n\n{}\n### Distribution summary\n\n{}\n```text\n{chart}```\n",
        table.to_markdown(),
        summary.to_markdown()
    ))
}

/// Props. 2–3: numeric verification of the participation and dominance
/// thresholds in the stage game.
fn props23() -> String {
    let (cp, ct) = (5.0, 2.0);
    let (n, l, k) = (40, 4.0, 20);
    let p2 = participation_threshold(cp, ct, n, l, k);
    let p3 = dominance_threshold(cp, ct);

    let mut table = Table::new(&[
        "P_f",
        "vs Prop.2 thr",
        "session payoff > 0",
        "vs Prop.3 thr",
        "forwarding dominant",
    ]);
    for pf in [
        p2 * 0.5,
        p2 * 0.99,
        p2 * 1.01,
        p3 * 0.99,
        p3 * 1.01,
        p3 * 2.0,
        50.0,
    ] {
        let payoff = idpa_game::forwarding::expected_session_payoff(pf, cp, ct, n, l, k);
        let game = ForwardingStageGame {
            pf,
            pr: 0.0, // worst case for dominance: no routing benefit
            cp,
            ct,
            q_random: 0.0,
            q_nonrandom: 0.0,
        };
        table.row(vec![
            format!("{pf:.2}"),
            if pf > p2 { "above" } else { "below" }.into(),
            format!("{}", payoff > 0.0),
            if pf > p3 { "above" } else { "below" }.into(),
            format!("{}", game.forwarding_is_dominant(2)),
        ]);
    }
    format!(
        "## props23: thresholds (Prop.2 = {p2:.2}, Prop.3 = {p3:.2}; C^p={cp}, C^t={ct}, N={n}, L={l}, k={k})\n\n{}",
        table.to_markdown()
    )
}

/// Timeline: how the system's metrics evolve over the simulated day. Each
/// row generates the full world and stops the engine at a fraction of the
/// horizon, so every point is a true prefix of the same trajectory (common
/// random numbers).
fn timeline() -> Sweep {
    let horizon = ScenarioConfig::default().churn.horizon;
    let fractions = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
    let mut rows = line(fractions.map(|frac| horizon * frac), 0, |_, _| {});
    for (row, until) in rows.iter_mut().zip(fractions) {
        row.until = until;
    }
    Sweep {
        title: "timeline: metric evolution over the simulated day".into(),
        labels: &["horizon (min)"],
        rows,
        arms: vec![point(vec!["anonymity".into()], |c| {
            c.adversary_fraction = 0.3;
            c.good_strategy = model_one();
        })],
        metrics: vec![
            Metric("connections", |r| r.connections as f64, Fmt::Mean(0)),
            PAYOFF,
            ANONYMITY,
        ],
        chart: Some((
            "anonymity degree left to the attacker vs horizon (f=0.3)",
            2,
        )),
        ..sweep("timeline", "timeline")
    }
}

/// Crowds predecessor analysis (closed form): how far the substrate
/// protocol's own probable-innocence guarantee stretches at the paper's
/// scale — the theoretical backdrop for the intersection-attack results.
fn crowds_analysis(opts: &Options) -> io::Result<String> {
    use idpa_core::metrics::{
        crowds_min_network_size, crowds_predecessor_probability, crowds_probable_innocence,
    };
    let n = 40;
    let p_f = 0.75;
    let mut table = Table::new(&[
        "collaborators c",
        "P(pred = initiator)",
        "probable innocence",
        "min N for innocence",
    ]);
    let mut points = Vec::new();
    for c in [0usize, 2, 4, 8, 12, 16, 20, 24] {
        let p = crowds_predecessor_probability(n, c, p_f);
        points.push((c as f64, p));
        table.row(vec![
            c.to_string(),
            format!("{p:.3}"),
            crowds_probable_innocence(n, c, p_f).to_string(),
            format!("{:.0}", crowds_min_network_size(c, p_f)),
        ]);
    }
    table.write_csv(&opts.out_dir, "crowds_analysis")?;
    let chart = line_chart(
        "P(first collaborator's predecessor = initiator), N=40, p_f=0.75",
        &[Series::new("P", points)],
        60,
        12,
    );
    Ok(format!(
        "## crowds-analysis: Reiter-Rubin predecessor bound at paper scale\n\n{}\n```text\n{chart}```\n",
        table.to_markdown()
    ))
}

/// Scale study: lazily materialized per-node state, evicted after 64 idle
/// ticks, at growing N under proportionally scaled paper churn: each
/// point is the scenario flags' configuration with the overrides of
/// [`ScenarioConfig::scale`]. One run per point, so `--reps` does not
/// apply (the object of study is the resident-state footprint, not a
/// CI): reports the run's throughput next to the peak materialized node
/// count, idle evictions, and the slab's byte estimate — the `RunResult`
/// resident-state metrics. Peak residency tracks the fixed 512-pair
/// workload, so the `peak/N` column falls as N grows.
fn scale_lifecycle(opts: &Options) -> io::Result<String> {
    let sizes: &[usize] = if opts.quick {
        &[200, 2_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let mut table = Table::new(&[
        "N",
        "connections",
        "peak materialized",
        "peak/N",
        "evictions",
        "slab KiB",
        "avg good payoff",
    ]);
    for (i, &n) in sizes.iter().enumerate() {
        let seed = 1000 + i as u64;
        let cfg = ScenarioConfig {
            seed,
            ..opts.scenario
        }
        .scaled(n);
        let r = SimulationRun::execute(cfg);
        table.row(vec![
            n.to_string(),
            r.connections.to_string(),
            r.peak_materialized_nodes.to_string(),
            format!("{:.4}", r.peak_materialized_nodes as f64 / n as f64),
            r.node_evictions.to_string(),
            format!("{:.1}", r.slab_bytes as f64 / 1024.0),
            format!("{:.0}", r.avg_good_payoff),
        ]);
    }
    table.write_csv(&opts.out_dir, "scale_lifecycle")?;
    Ok(format!(
        "## scale-lifecycle: resident state under the lazy node lifecycle\n\n{}",
        table.to_markdown()
    ))
}

/// The adversary zoo: each §4 strategy class run with its matching defense
/// off and on, everything else held fixed, so every row pair isolates one
/// defense's effect.
///
/// * **free riders** (Prop. 2's worst case: initiate but never forward) —
///   defense = the adaptive response (reputation suppression plus probe
///   invalidation routes around the ghosts);
/// * **whitewashers** (accumulate faults, rejoin as a fresh identity) —
///   defense = identity-age discounting of the reputation term
///   (`w_r > 0` so the discount reaches path formation); a background
///   drop rate gives the whitewashed identities faults worth shedding;
/// * **colluding cliques** (a colluding responder pads its manifest with
///   phantom clique-mate hops and mints them genuine receipts) — defense =
///   the initiator's cross-confirmation check of manifest hops against the
///   hops it actually observed forwarding.
fn adversary_zoo(opts: &Options) -> io::Result<String> {
    use FaultResponse::{Adaptive, Static};
    type Defend = fn(&mut ScenarioConfig, bool);
    let classes: [(&str, [&str; 2], Defend); 3] = [
        // 20% of nodes ghost every forwarding duty.
        ("free-rider", ["off", "on (adaptive)"], |c, on| {
            c.adversary = AdversaryConfig::default();
            c.adversary.free_rider_fraction = 0.2;
            c.fault.response = if on { Adaptive } else { Static };
        }),
        // 20% of nodes shed their identity on a renewal schedule, against a
        // background drop rate that makes the shed identity's ledger worth
        // escaping.
        ("whitewasher", ["off", "on (age discount)"], |c, on| {
            c.adversary = AdversaryConfig::default();
            c.adversary.whitewash_fraction = 0.2;
            c.adversary.whitewash_interval = 240.0;
            c.adversary.whitewash_age_discount = on;
            c.adversary.reputation_maturity = 120.0;
            c.fault.drop_rate = 0.2;
            c.fault.response = Adaptive;
            c.weights = split_weights(0.5);
            c.reputation_weight = 0.5;
        }),
        // Two 4-cliques forge phantom-forwarding evidence on every
        // connection their responder completes.
        ("clique", ["off", "on (cross-check)"], |c, on| {
            c.adversary = AdversaryConfig::default();
            c.adversary.clique_count = 2;
            c.adversary.clique_size = 4;
            c.adversary.clique_forge_rate = 1.0;
            c.adversary.clique_cross_check = on;
        }),
    ];
    let mut table = Table::new(&[
        "class",
        "defense",
        "delivery",
        "adversary payoff",
        "compliant payoff",
        "evasion rate",
        "phantoms flagged/injected",
        "payout leakage",
    ]);
    for (class, defenses, set) in classes {
        for (defense, on) in defenses.into_iter().zip([false, true]) {
            let results = replicate(opts, 1.0, |c| {
                set(c, on);
                c.good_strategy = model_two();
            });
            let mean = |p, get| Metric("", get, Fmt::Mean(p)).render(&stats_of(&results, get));
            let sum = |get: fn(&RunResult) -> u64| results.iter().map(get).sum::<u64>();
            let delivery = DELIVERY.render(&stats_of(&results, DELIVERY.1));
            let mut cells = vec![class.to_string(), defense.into(), delivery];
            // Each class fills only the columns it measures.
            cells.extend(["-"; 5].map(String::from));
            match class {
                "free-rider" => {
                    cells[3] = mean(1, |r| r.free_rider_payoff);
                    cells[4] = mean(1, |r| r.compliant_payoff);
                }
                "whitewasher" => cells[5] = mean(3, |r| r.reputation_evasion_rate),
                _ => {
                    let flagged = sum(|r| r.clique_phantom_flagged);
                    cells[6] = format!("{flagged}/{}", sum(|r| r.clique_phantom_instances));
                    cells[7] = mean(3, |r| r.clique_payout_leakage);
                }
            }
            table.row(cells);
        }
    }
    table.write_csv(&opts.out_dir, "adversary_zoo")?;
    Ok(format!(
        "## adversary-zoo: strategy classes vs their defenses\n\n{}",
        table.to_markdown()
    ))
}

/// An experiment: renders its figure/table from the shared options and
/// writes its CSVs; a failed write is an error.
pub type Experiment = Box<dyn Fn(&Options) -> io::Result<String>>;

/// Every experiment by name, in DESIGN.md order.
#[must_use]
pub fn registry() -> Vec<(&'static str, Experiment)> {
    use FaultResponse::{Adaptive, Static};
    let func = |name, run: fn(&Options) -> io::Result<String>| (name, Box::new(run) as Experiment);
    let data = |s: Sweep| (s.name, Box::new(move |o: &Options| s.run(o)) as Experiment);
    vec![
        data(fig_payoff_vs_f("fig3", "fig3_payoff_model1", model_one())),
        data(fig_payoff_vs_f("fig4", "fig4_payoff_model2", model_two())),
        data(Sweep {
            title: "fig5: average forwarder-set size ‖π‖ by routing strategy".into(),
            labels: &["f", "random", "model I", "model II"],
            rows: line(F_SWEEP, 1, |c, f| c.adversary_fraction = f),
            arms: strategies(),
            across: true,
            metrics: vec![Metric("‖π‖", |r| r.avg_forwarder_set, Fmt::Ci)],
            chart: Some(("forwarder set ‖π‖ vs f", 0)),
            ..sweep("fig5", "fig5_forwarder_set")
        }),
        func("fig6", |o| fig_payoff_cdf(o, 0.1, "fig6_payoff_cdf_f01")),
        func("fig7", |o| fig_payoff_cdf(o, 0.5, "fig7_payoff_cdf_f05")),
        // Table 2: routing efficiency (avg payoff / avg #forwarders) for
        // utility model I over `f × τ`, with a row of column means.
        data(Sweep {
            title: "table2: routing efficiency, utility model I".into(),
            labels: &["", "tau=0.5", "tau=1", "tau=2", "tau=4"],
            rows: axis(
                [0.1, 0.5, 0.9],
                |f| format!("f={f:.1}"),
                |c, f| {
                    c.adversary_fraction = f;
                    c.good_strategy = model_one();
                },
            ),
            arms: axis([0.5, 1.0, 2.0, 4.0], shown, |c, tau| c.tau = tau),
            across: true,
            metrics: vec![EFFICIENCY],
            mean_row: true,
            ..sweep("table2", "table2_routing_efficiency")
        }),
        data(Sweep {
            title: "prop1: path reformations, utility vs random routing".into(),
            labels: &["strategy"],
            rows: strategies(),
            metrics: vec![
                Metric("new-edge fraction E[X]", |r| r.new_edge_fraction, Fmt::Ci),
                Metric("reformation rate", |r| r.reformation_rate, Fmt::Ci),
            ],
            ..sweep("prop1", "prop1_reformations")
        }),
        func("props23", |_| Ok(props23())),
        data(Sweep {
            title: "ablation-weights: selectivity vs availability weighting".into(),
            labels: &["w_s", "w_a"],
            rows: Vec::from([0.0, 0.25, 0.5, 0.75, 1.0].map(|ws| {
                let cells = vec![format!("{ws:.2}"), format!("{:.2}", 1.0 - ws)];
                point(cells, move |c| c.weights = (ws, 1.0 - ws))
            })),
            metrics: vec![SET, PAYOFF, EX],
            ..ablation("ablation-weights", "ablation_weights")
        }),
        data(Sweep {
            title: "ablation-tau: routing-to-forwarding benefit ratio".into(),
            labels: &["tau"],
            rows: axis([0.25, 0.5, 1.0, 2.0, 4.0, 8.0], shown, |c, tau| c.tau = tau),
            metrics: vec![EFFICIENCY, SET, PAYOFF],
            ..ablation("ablation-tau", "ablation_tau")
        }),
        data(Sweep {
            title: "ablation-degree: neighbor-set size d".into(),
            labels: &["d"],
            rows: axis([3usize, 5, 8, 12], shown, |c, d| c.degree = d),
            metrics: vec![SET, LENGTH, QUALITY],
            ..ablation("ablation-degree", "ablation_degree")
        }),
        data(Sweep {
            title: "ablation-probe: probing period sensitivity".into(),
            labels: &["T (min)"],
            rows: axis([1.0, 5.0, 15.0, 60.0], shown, |c, t| c.probe_period = t),
            metrics: vec![SET, PAYOFF],
            ..ablation("ablation-probe", "ablation_probe")
        }),
        data(Sweep {
            title: "ablation-history: history retention bound".into(),
            labels: &["history capacity"],
            rows: axis(
                [Some(1usize), Some(2), Some(5), Some(20), None],
                |cap| cap.map_or("unbounded".into(), |c| c.to_string()),
                |c, cap| c.history_capacity = cap,
            ),
            metrics: vec![SET, EX],
            ..ablation("ablation-history", "ablation_history")
        }),
        // Model II lookahead horizon (depth of the §2.4.3 backward
        // induction). Depth 1 degenerates to model I.
        data(Sweep {
            title: "ablation-lookahead: model II backward-induction horizon".into(),
            labels: &["lookahead"],
            rows: axis([1u8, 2, 3, 4], shown, |c, lookahead| {
                c.good_strategy = RoutingStrategy::Utility(UtilityModel::ModelII { lookahead });
            }),
            metrics: vec![SET, PAYOFF, EX],
            ..ablation("ablation-lookahead", "ablation_lookahead")
        }),
        // Recurring-connection count (`max-connections` in §3) vs the
        // intersection attack, at `f = 0.3`: more rounds per pair give the
        // attacker more observations.
        data(Sweep {
            title: "ablation-rounds: recurring connections vs intersection attack".into(),
            labels: &["avg rounds/pair"],
            rows: axis([5usize, 10, 20, 40], shown, |c, rounds| {
                c.total_transmissions = c.n_pairs * rounds;
                c.max_connections = (rounds * 2) as u32;
                c.adversary_fraction = 0.3;
            }),
            metrics: vec![EXPOSURE, ANONYMITY, SET],
            ..ablation("ablation-rounds", "ablation_rounds")
        }),
        // Dynamic neighbor replacement (replace a neighbor after N silent
        // probe rounds; §2.3's "new neighbor found" rule re-initialises the
        // replacement).
        data(Sweep {
            title: "ablation-replacement: dynamic neighbor maintenance".into(),
            labels: &["replace after"],
            rows: axis(
                [None, Some(3u64), Some(10), Some(30)],
                |n| n.map_or("never".into(), |r| format!("{r} rounds")),
                |c, n| c.neighbor_replacement_rounds = n,
            ),
            metrics: vec![SET, PAYOFF, EX],
            ..ablation("ablation-replacement", "ablation_replacement")
        }),
        // Termination mode: the Crowds coin vs hop-distance forwarding (the
        // two §2.2 variants), at matched expected path length.
        data(Sweep {
            title: "ablation-termination: Crowds coin vs hop-distance forwarding".into(),
            labels: &["termination"],
            rows: named(
                [
                    ("crowds p=0.67 (E[L]=3)", PathPolicy::new(2.0 / 3.0, 8)),
                    ("hop-distance L=3", PathPolicy::hop_distance(3)),
                    ("crowds p=0.75 (E[L]=4)", PathPolicy::new(0.75, 8)),
                    ("hop-distance L=4", PathPolicy::hop_distance(4)),
                ],
                |c, policy| c.policy = policy,
            ),
            metrics: vec![Metric("L", LENGTH.1, LENGTH.2), SET, QUALITY, PAYOFF],
            ..ablation("ablation-termination", "ablation_termination")
        }),
        // §5 availability attack: attacker payoff share and anonymity
        // impact.
        data(Sweep {
            title: "attack-availability: §5 availability attack".into(),
            labels: &["f", "attack"],
            rows: line([0.1, 0.3, 0.5], 1, |c, f| c.adversary_fraction = f),
            arms: named([("off", false), ("on", true)], |c, on| {
                c.availability_attack = on;
                c.good_strategy = model_one();
            }),
            metrics: vec![MALICIOUS, PAYOFF, ANONYMITY],
            ..sweep("attack-availability", "attack_availability")
        }),
        // §4-motivated collusion attack: malicious nodes steer traffic to
        // each other instead of routing uniformly. Measures how much payment
        // they capture and what it costs good nodes and anonymity.
        data(Sweep {
            title: "attack-collusion: colluding vs random adversaries".into(),
            labels: &["f", "adversary"],
            rows: line([0.1, 0.3, 0.5], 1, |c, f| c.adversary_fraction = f),
            arms: named(
                [
                    ("random", AdversaryStrategy::Random),
                    ("colluding", AdversaryStrategy::Colluding),
                ],
                |c, s| {
                    c.adversary_strategy = s;
                    c.good_strategy = model_one();
                },
            ),
            metrics: vec![MALICIOUS, PAYOFF, ANONYMITY, SET],
            ..sweep("attack-collusion", "attack_collusion")
        }),
        data(Sweep {
            title: "attack-intersection: passive intersection attack vs strategy".into(),
            labels: &["f", "strategy"],
            rows: line([0.1, 0.3, 0.5], 1, |c, f| c.adversary_fraction = f),
            arms: strategies(),
            metrics: vec![EXPOSURE, ANONYMITY],
            ..sweep("attack-intersection", "attack_intersection")
        }),
        // Robustness: delivery ratio, retries per message, reformation
        // latency and payment shortfall vs the per-edge drop rate, for each
        // routing strategy. Any `--fault-*` options act as a fixed
        // background (crashes, cheaters, bank outages) on top of the swept
        // drop rate, so the same experiment renders both the
        // clean-degradation curve and the compound-fault one.
        data(Sweep {
            title: "fault-degradation: retry-protocol resilience under injected faults".into(),
            labels: &["drop rate", "strategy"],
            rows: line([0.0, 0.05, 0.1, 0.2, 0.4], 2, |c, d| c.fault.drop_rate = d),
            arms: strategies(),
            metrics: vec![DELIVERY, RETRIES, LATENCY, SHORTFALL],
            chart: Some(("delivery ratio vs per-edge drop rate", 0)),
            ..sweep("fault-degradation", "fault_degradation")
        }),
        // Adaptive-vs-static fault response under a compound fault load.
        // Sweeps the cheat fraction (the one node-correlated fault class,
        // where learned reputation has signal) over a fixed crash + drop
        // background, which any `--fault-*` options replace. The adaptive
        // arm runs the three-term quality model with `w_r` from
        // `--reputation-weight` (0.2 when unset); the static arm is the plain
        // retry protocol (`w_r = 0`).
        data(Sweep {
            title: "fault-adaptation: reputation-driven response vs the static retry protocol"
                .into(),
            labels: &["cheat fraction", "response"],
            rows: line([0.0, 0.1, 0.2, 0.4], 2, |c, f| c.fault.cheat_fraction = f),
            arms: named([("static", Static), ("adaptive", Adaptive)], |c, mode| {
                if !c.fault.is_active() {
                    c.fault = FaultConfig {
                        crash_rate: 0.05,
                        drop_rate: 0.10,
                        ..FaultConfig::default()
                    };
                }
                let wr = match mode {
                    Static => 0.0,
                    Adaptive if c.reputation_weight > 0.0 => c.reputation_weight,
                    Adaptive => 0.2,
                };
                c.fault.response = mode;
                c.weights = split_weights(wr);
                c.reputation_weight = wr;
                c.good_strategy = model_two();
            }),
            metrics: vec![DELIVERY, RETRIES, LATENCY],
            chart: Some(("delivery ratio vs cheat fraction", 0)),
            ..sweep("fault-adaptation", "fault_adaptation")
        }),
        func("scale-lifecycle", scale_lifecycle),
        func("adversary-zoo", adversary_zoo),
        data(timeline()),
        func("crowds-analysis", crowds_analysis),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> Options {
        Options {
            reps: 2,
            quick: true,
            out_dir: std::env::temp_dir().join("idpa_exp_test"),
            ..Options::default()
        }
    }

    /// Runs the registry entry `name` at the quick tier with `reps`
    /// replications.
    fn run_quick(name: &str, reps: u64) -> String {
        let (_, run) = registry()
            .into_iter()
            .find(|(n, _)| *n == name)
            .expect("registered");
        run(&Options {
            reps,
            ..quick_opts()
        })
        .expect("write CSV")
    }

    #[test]
    fn replicate_is_bit_identical_across_thread_counts() {
        // The acceptance bar for the in-tree pool: per-replication seeds
        // (1000 + rep) make the result vector independent of scheduling.
        let make = |opts: &Options| {
            replicate(opts, 1.0, |c| {
                c.adversary_fraction = 0.3;
                c.good_strategy = model_two();
            })
        };
        let baseline = make(&Options {
            reps: 4,
            threads: 1,
            ..quick_opts()
        });
        for threads in [2, 8] {
            let parallel = make(&Options {
                reps: 4,
                threads,
                ..quick_opts()
            });
            assert_eq!(baseline, parallel, "threads={threads} diverged");
        }
    }

    #[test]
    fn registry_covers_all_paper_artifacts() {
        // Every name, in order, with the CSV stems its quick run writes.
        let expected: [(&str, &[&str]); 26] = [
            ("fig3", &["fig3_payoff_model1"]),
            ("fig4", &["fig4_payoff_model2"]),
            ("fig5", &["fig5_forwarder_set"]),
            ("fig6", &["fig6_payoff_cdf_f01"]),
            ("fig7", &["fig7_payoff_cdf_f05"]),
            ("table2", &["table2_routing_efficiency"]),
            ("prop1", &["prop1_reformations"]),
            ("props23", &[]),
            ("ablation-weights", &["ablation_weights"]),
            ("ablation-tau", &["ablation_tau"]),
            ("ablation-degree", &["ablation_degree"]),
            ("ablation-probe", &["ablation_probe"]),
            ("ablation-history", &["ablation_history"]),
            ("ablation-lookahead", &["ablation_lookahead"]),
            ("ablation-rounds", &["ablation_rounds"]),
            ("ablation-replacement", &["ablation_replacement"]),
            ("ablation-termination", &["ablation_termination"]),
            ("attack-availability", &["attack_availability"]),
            ("attack-collusion", &["attack_collusion"]),
            ("attack-intersection", &["attack_intersection"]),
            ("fault-degradation", &["fault_degradation"]),
            ("fault-adaptation", &["fault_adaptation"]),
            ("scale-lifecycle", &["scale_lifecycle"]),
            ("adversary-zoo", &["adversary_zoo"]),
            ("timeline", &["timeline"]),
            ("crowds-analysis", &["crowds_analysis"]),
        ];
        let registry = registry();
        let names: Vec<&str> = registry.iter().map(|(n, _)| *n).collect();
        let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
        let root = std::env::temp_dir().join(format!("idpa_exp_registry_{}", std::process::id()));
        for ((name, run), (_, stems)) in registry.iter().zip(expected) {
            let out_dir = root.join(name);
            run(&Options {
                reps: 1,
                out_dir: out_dir.clone(),
                ..quick_opts()
            })
            .expect("write CSV");
            let mut written: Vec<String> = std::fs::read_dir(&out_dir)
                .map(|dir| {
                    dir.map(|e| e.expect("dir entry").file_name().to_string_lossy().into())
                        .collect()
                })
                .unwrap_or_default();
            written.sort();
            let want: Vec<String> = stems.iter().map(|s| format!("{s}.csv")).collect();
            assert_eq!(written, want, "{name}");
        }
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(expected.iter().map(|(_, s)| s.len()).sum::<usize>(), 25);
    }

    #[test]
    fn props23_runs_and_reports_thresholds() {
        let out = props23();
        assert!(out.contains("Prop.2 = 4.50"));
        assert!(out.contains("Prop.3 = 7.00"));
        // Above both thresholds everything holds.
        assert!(out.contains("50.00"));
    }

    #[test]
    fn table2_emits_all_rows() {
        let out = run_quick("table2", 2);
        assert!(out.contains("f=0.1"));
        assert!(out.contains("f=0.9"));
        assert!(out.contains("mean"));
    }

    #[test]
    fn fault_degradation_runs_quick_and_reports_degradation() {
        let out = run_quick("fault-degradation", 1);
        assert!(out.contains("0.40"), "largest swept drop rate missing");
        assert!(out.contains("model-2") || out.contains("model II"));
        assert!(out.contains("delivery ratio"));
    }

    #[test]
    fn fault_adaptation_runs_quick_with_both_arms() {
        let out = run_quick("fault-adaptation", 1);
        assert!(out.contains("static"));
        assert!(out.contains("adaptive"));
        assert!(out.contains("0.40"), "largest swept cheat fraction missing");
        assert!(out.contains("delivery ratio"));
    }

    #[test]
    fn scale_lifecycle_runs_quick_with_bounded_residency() {
        let out = run_quick("scale-lifecycle", 2);
        assert!(out.contains("peak materialized"));
        assert!(out.contains("2000"), "largest quick size missing");
    }

    #[test]
    fn scale_lifecycle_applies_the_scenario_flags() {
        let table = |flags: &str| {
            let args: Vec<String> = flags.split_whitespace().map(String::from).collect();
            let parsed = crate::cli::parse_experiment_args(&args).expect("flags parse");
            let (_, run) = registry()
                .into_iter()
                .find(|(n, _)| *n == "scale-lifecycle")
                .expect("registered");
            run(&Options {
                out_dir: std::env::temp_dir().join("idpa_exp_test_scale_flags"),
                ..parsed.opts
            })
            .expect("write CSV")
        };
        assert_ne!(table("--quick"), table("--quick --fault-drop 0.5"));
    }

    #[test]
    fn fig5_runs_quick() {
        let out = run_quick("fig5", 1);
        assert!(out.contains("model II"));
        assert!(out.lines().count() > 10);
    }
}
