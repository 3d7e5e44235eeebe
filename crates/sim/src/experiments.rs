//! One driver per paper table/figure, plus the ablations from DESIGN.md.
//!
//! Every experiment sweeps its axis with **common random numbers** (the
//! same replication seeds across all points of the sweep) and runs
//! replications in parallel on the in-tree deterministic work-queue pool
//! ([`idpa_desim::pool`]): each replication derives its RNG streams from
//! its own seed, so results are bit-identical at any thread count. Output
//! is a markdown table (shape comparison against the paper) plus a CSV per
//! experiment under the output directory.

use std::path::PathBuf;

use idpa_core::routing::{AdversaryStrategy, RoutingStrategy};
use idpa_core::utility::UtilityModel;
use idpa_desim::stats::{Ecdf, OnlineStats};
use idpa_desim::{AdversaryConfig, FaultConfig, FaultResponse};
use idpa_game::forwarding::{dominance_threshold, participation_threshold, ForwardingStageGame};

use crate::chart::{cdf_chart, line_chart, Series};
use crate::report::{fmt_ci, Table};
use crate::runner::{RunResult, SimulationRun};
use crate::scenario::ScenarioConfig;

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
pub fn model_two() -> RoutingStrategy {
    RoutingStrategy::Utility(UtilityModel::ModelII { lookahead: 2 })
}

/// Model I as a strategy.
#[must_use]
pub fn model_one() -> RoutingStrategy {
    RoutingStrategy::Utility(UtilityModel::ModelI)
}

/// Resolves the configured worker count (0 = auto).
fn thread_count(opts: &Options) -> usize {
    if opts.threads == 0 {
        idpa_desim::pool::default_threads()
    } else {
        opts.threads
    }
}

/// Runs `reps` replications of `make(seed)` in parallel on the
/// deterministic work-queue pool. Replication `rep` always runs from seed
/// `1000 + rep`, so the result vector is bit-identical at any thread
/// count.
fn replicate(opts: &Options, make: impl Fn(u64) -> ScenarioConfig + Sync) -> Vec<RunResult> {
    idpa_desim::pool::parallel_map(thread_count(opts), opts.reps as usize, |rep| {
        SimulationRun::execute(make(1000 + rep as u64))
    })
}

/// Replicates the base configuration as-is — the replication kernel exposed
/// for integration tests that pin thread-count invariance.
#[must_use]
pub fn replicate_base(opts: &Options) -> Vec<RunResult> {
    replicate(opts, |seed| opts.base_config(seed))
}

fn stats_of(results: &[RunResult], f: impl Fn(&RunResult) -> f64) -> OnlineStats {
    let mut s = OnlineStats::new();
    for r in results {
        s.push(f(r));
    }
    s
}

/// The adversary fractions swept in the figures.
const F_SWEEP: [f64; 10] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// Figs. 3 and 4: average payoff of a non-malicious node vs `f`, with 95%
/// confidence intervals, for the given utility model.
pub fn fig_payoff_vs_f(opts: &Options, strategy: RoutingStrategy, name: &str) -> String {
    let mut table = Table::new(&["f", "avg good payoff", "95% CI half-width"]);
    let mut points = Vec::new();
    for f in F_SWEEP {
        let results = replicate(opts, |seed| ScenarioConfig {
            adversary_fraction: f,
            good_strategy: strategy,
            ..opts.base_config(seed)
        });
        let s = stats_of(&results, |r| r.avg_good_payoff);
        let ci = s.ci95();
        points.push((f, ci.mean));
        table.row(vec![
            format!("{f:.1}"),
            format!("{:.1}", ci.mean),
            format!("{:.1}", ci.half_width),
        ]);
    }
    let _ = table.write_csv(&opts.out_dir, name);
    let chart = line_chart(
        "avg good-node payoff vs f",
        &[Series::new("payoff", points)],
        60,
        12,
    );
    format!(
        "## {name}: average payoff for a non-malicious node\n\n{}\n```text\n{chart}```\n",
        table.to_markdown()
    )
}

/// Fig. 5: average forwarder-set size vs `f` for Random / Model I / Model II.
pub fn fig5(opts: &Options) -> String {
    let strategies: [(&str, RoutingStrategy); 3] = [
        ("random", RoutingStrategy::Random),
        ("model-1", model_one()),
        ("model-2", model_two()),
    ];
    let mut table = Table::new(&["f", "random", "model I", "model II"]);
    let mut curves: Vec<Vec<(f64, f64)>> = vec![Vec::new(); 3];
    for f in F_SWEEP {
        let mut cells = vec![format!("{f:.1}")];
        for (si, (_, strategy)) in strategies.iter().enumerate() {
            let results = replicate(opts, |seed| ScenarioConfig {
                adversary_fraction: f,
                good_strategy: *strategy,
                ..opts.base_config(seed)
            });
            let s = stats_of(&results, |r| r.avg_forwarder_set);
            curves[si].push((f, s.mean()));
            cells.push(fmt_ci(s.mean(), s.ci95().half_width));
        }
        table.row(cells);
    }
    let _ = table.write_csv(&opts.out_dir, "fig5_forwarder_set");
    let series: Vec<Series> = strategies
        .iter()
        .zip(&curves)
        .map(|((label, _), pts)| Series::new(*label, pts.clone()))
        .collect();
    let chart = line_chart("forwarder set ‖π‖ vs f", &series, 60, 12);
    format!(
        "## fig5: average forwarder-set size ‖π‖ by routing strategy\n\n{}\n```text\n{chart}```\n",
        table.to_markdown()
    )
}

/// Figs. 6–7: CDF of good-node payoffs at a fixed `f`, per strategy.
/// Reports deciles in the markdown table; full curves go to CSV.
pub fn fig_payoff_cdf(opts: &Options, f: f64, name: &str) -> String {
    let strategies: [(&str, RoutingStrategy); 3] = [
        ("random", RoutingStrategy::Random),
        ("model-1", model_one()),
        ("model-2", model_two()),
    ];
    let mut curves: Vec<(&str, Ecdf)> = Vec::new();
    for (label, strategy) in strategies {
        let results = replicate(opts, |seed| ScenarioConfig {
            adversary_fraction: f,
            good_strategy: strategy,
            ..opts.base_config(seed)
        });
        let mut ecdf = Ecdf::new();
        for r in &results {
            for &p in &r.good_payoffs {
                ecdf.push(p);
            }
        }
        curves.push((label, ecdf));
    }

    // Deciles table.
    let mut table = Table::new(&["quantile", "random", "model I", "model II"]);
    for q in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
        let mut cells = vec![format!("{q:.1}")];
        for (_, ecdf) in &mut curves {
            cells.push(format!("{:.0}", ecdf.quantile(q)));
        }
        table.row(cells);
    }

    // Full curves to CSV.
    let mut csv = Table::new(&["strategy", "payoff", "cdf"]);
    for (label, ecdf) in &mut curves {
        for (x, p) in ecdf.points() {
            csv.row(vec![(*label).into(), format!("{x:.3}"), format!("{p:.5}")]);
        }
    }
    let _ = csv.write_csv(&opts.out_dir, name);

    // Variance summary (the paper's observation: model I has the largest
    // spread, random the smallest).
    let mut summary = Table::new(&["strategy", "mean", "std dev", "max"]);
    for (label, ecdf) in &mut curves {
        let mut s = OnlineStats::new();
        for (x, _) in ecdf.points() {
            s.push(x);
        }
        summary.row(vec![
            (*label).into(),
            format!("{:.1}", s.mean()),
            format!("{:.1}", s.std_dev()),
            format!("{:.1}", s.max()),
        ]);
    }

    // Render the CDFs (downsampled to percentiles for the terminal).
    let series: Vec<Series> = curves
        .iter_mut()
        .map(|(label, ecdf)| {
            let pts: Vec<(f64, f64)> = (1..=100)
                .map(|p| {
                    let q = f64::from(p) / 100.0;
                    (ecdf.quantile(q), q)
                })
                .collect();
            Series::new(*label, pts)
        })
        .collect();
    let chart = cdf_chart("payoff CDF (x = payoff, y = F(x))", &series, 64, 14);
    format!(
        "## {name}: CDF of good-node payoff at f={f}\n\n### Payoff deciles\n\n{}\n### Distribution summary\n\n{}\n```text\n{chart}```\n",
        table.to_markdown(),
        summary.to_markdown()
    )
}

/// Table 2: routing efficiency (avg payoff / avg #forwarders) for utility
/// model I over `f × τ`.
pub fn table2(opts: &Options) -> String {
    let taus = [0.5, 1.0, 2.0, 4.0];
    let fs = [0.1, 0.5, 0.9];
    let mut table = Table::new(&["", "tau=0.5", "tau=1", "tau=2", "tau=4"]);
    let mut col_means = vec![OnlineStats::new(); taus.len()];
    for f in fs {
        let mut cells = vec![format!("f={f:.1}")];
        for (ti, &tau) in taus.iter().enumerate() {
            let results = replicate(opts, |seed| ScenarioConfig {
                adversary_fraction: f,
                tau,
                good_strategy: model_one(),
                ..opts.base_config(seed)
            });
            let s = stats_of(&results, |r| r.routing_efficiency);
            col_means[ti].push(s.mean());
            cells.push(format!("{:.0}", s.mean()));
        }
        table.row(cells);
    }
    let mut mean_row = vec!["mean".to_string()];
    for c in &col_means {
        mean_row.push(format!("{:.0}", c.mean()));
    }
    table.row(mean_row);
    let _ = table.write_csv(&opts.out_dir, "table2_routing_efficiency");
    format!(
        "## table2: routing efficiency, utility model I\n\n{}",
        table.to_markdown()
    )
}

/// Prop. 1: new-edge fraction (`E[X]`) and reformation rate, utility vs
/// random routing.
pub fn prop1(opts: &Options) -> String {
    let strategies: [(&str, RoutingStrategy); 3] = [
        ("random", RoutingStrategy::Random),
        ("model-1", model_one()),
        ("model-2", model_two()),
    ];
    let mut table = Table::new(&["strategy", "new-edge fraction E[X]", "reformation rate"]);
    for (label, strategy) in strategies {
        let results = replicate(opts, |seed| ScenarioConfig {
            good_strategy: strategy,
            ..opts.base_config(seed)
        });
        let ex = stats_of(&results, |r| r.new_edge_fraction);
        let rr = stats_of(&results, |r| r.reformation_rate);
        table.row(vec![
            label.into(),
            fmt_ci(ex.mean(), ex.ci95().half_width),
            fmt_ci(rr.mean(), rr.ci95().half_width),
        ]);
    }
    let _ = table.write_csv(&opts.out_dir, "prop1_reformations");
    format!(
        "## prop1: path reformations, utility vs random routing\n\n{}",
        table.to_markdown()
    )
}

/// Props. 2–3: numeric verification of the participation and dominance
/// thresholds in the stage game.
pub fn props23(_opts: &Options) -> String {
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

/// Ablation: `w_s`/`w_a` weighting.
pub fn ablation_weights(opts: &Options) -> String {
    let mut table = Table::new(&["w_s", "w_a", "‖π‖", "avg good payoff", "E[X]"]);
    for ws in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let results = replicate(opts, |seed| ScenarioConfig {
            weights: (ws, 1.0 - ws),
            good_strategy: model_one(),
            adversary_fraction: 0.1,
            ..opts.base_config(seed)
        });
        let set = stats_of(&results, |r| r.avg_forwarder_set);
        let pay = stats_of(&results, |r| r.avg_good_payoff);
        let ex = stats_of(&results, |r| r.new_edge_fraction);
        table.row(vec![
            format!("{ws:.2}"),
            format!("{:.2}", 1.0 - ws),
            format!("{:.2}", set.mean()),
            format!("{:.0}", pay.mean()),
            format!("{:.3}", ex.mean()),
        ]);
    }
    let _ = table.write_csv(&opts.out_dir, "ablation_weights");
    format!(
        "## ablation-weights: selectivity vs availability weighting\n\n{}",
        table.to_markdown()
    )
}

/// Ablation: τ continuum.
pub fn ablation_tau(opts: &Options) -> String {
    let mut table = Table::new(&["tau", "routing efficiency", "‖π‖", "avg good payoff"]);
    for tau in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let results = replicate(opts, |seed| ScenarioConfig {
            tau,
            good_strategy: model_one(),
            adversary_fraction: 0.1,
            ..opts.base_config(seed)
        });
        let eff = stats_of(&results, |r| r.routing_efficiency);
        let set = stats_of(&results, |r| r.avg_forwarder_set);
        let pay = stats_of(&results, |r| r.avg_good_payoff);
        table.row(vec![
            format!("{tau}"),
            format!("{:.0}", eff.mean()),
            format!("{:.2}", set.mean()),
            format!("{:.0}", pay.mean()),
        ]);
    }
    let _ = table.write_csv(&opts.out_dir, "ablation_tau");
    format!(
        "## ablation-tau: routing-to-forwarding benefit ratio\n\n{}",
        table.to_markdown()
    )
}

/// Ablation: neighbor degree `d`.
pub fn ablation_degree(opts: &Options) -> String {
    let mut table = Table::new(&["d", "‖π‖", "path length L", "Q(π)"]);
    for d in [3usize, 5, 8, 12] {
        let results = replicate(opts, |seed| ScenarioConfig {
            degree: d,
            good_strategy: model_one(),
            adversary_fraction: 0.1,
            ..opts.base_config(seed)
        });
        let set = stats_of(&results, |r| r.avg_forwarder_set);
        let len = stats_of(&results, |r| r.avg_path_length);
        let q = stats_of(&results, |r| r.avg_path_quality);
        table.row(vec![
            d.to_string(),
            format!("{:.2}", set.mean()),
            format!("{:.2}", len.mean()),
            format!("{:.3}", q.mean()),
        ]);
    }
    let _ = table.write_csv(&opts.out_dir, "ablation_degree");
    format!(
        "## ablation-degree: neighbor-set size d\n\n{}",
        table.to_markdown()
    )
}

/// Ablation: probing period `T`.
pub fn ablation_probe(opts: &Options) -> String {
    let mut table = Table::new(&["T (min)", "‖π‖", "avg good payoff"]);
    for t in [1.0, 5.0, 15.0, 60.0] {
        let results = replicate(opts, |seed| ScenarioConfig {
            probe_period: t,
            good_strategy: model_one(),
            adversary_fraction: 0.1,
            ..opts.base_config(seed)
        });
        let set = stats_of(&results, |r| r.avg_forwarder_set);
        let pay = stats_of(&results, |r| r.avg_good_payoff);
        table.row(vec![
            format!("{t}"),
            format!("{:.2}", set.mean()),
            format!("{:.0}", pay.mean()),
        ]);
    }
    let _ = table.write_csv(&opts.out_dir, "ablation_probe");
    format!(
        "## ablation-probe: probing period sensitivity\n\n{}",
        table.to_markdown()
    )
}

/// Ablation: bounded history retention.
pub fn ablation_history(opts: &Options) -> String {
    let mut table = Table::new(&["history capacity", "‖π‖", "E[X]"]);
    for cap in [Some(1usize), Some(2), Some(5), Some(20), None] {
        let results = replicate(opts, |seed| ScenarioConfig {
            history_capacity: cap,
            good_strategy: model_one(),
            adversary_fraction: 0.1,
            ..opts.base_config(seed)
        });
        let set = stats_of(&results, |r| r.avg_forwarder_set);
        let ex = stats_of(&results, |r| r.new_edge_fraction);
        table.row(vec![
            cap.map_or("unbounded".into(), |c| c.to_string()),
            format!("{:.2}", set.mean()),
            format!("{:.3}", ex.mean()),
        ]);
    }
    let _ = table.write_csv(&opts.out_dir, "ablation_history");
    format!(
        "## ablation-history: history retention bound\n\n{}",
        table.to_markdown()
    )
}

/// Ablation: model II lookahead horizon (depth of the §2.4.3 backward
/// induction). Depth 1 degenerates to model I.
pub fn ablation_lookahead(opts: &Options) -> String {
    let mut table = Table::new(&["lookahead", "‖π‖", "avg good payoff", "E[X]"]);
    for la in [1u8, 2, 3, 4] {
        let results = replicate(opts, |seed| ScenarioConfig {
            good_strategy: RoutingStrategy::Utility(UtilityModel::ModelII { lookahead: la }),
            adversary_fraction: 0.1,
            ..opts.base_config(seed)
        });
        let set = stats_of(&results, |r| r.avg_forwarder_set);
        let pay = stats_of(&results, |r| r.avg_good_payoff);
        let ex = stats_of(&results, |r| r.new_edge_fraction);
        table.row(vec![
            la.to_string(),
            format!("{:.2}", set.mean()),
            format!("{:.0}", pay.mean()),
            format!("{:.3}", ex.mean()),
        ]);
    }
    let _ = table.write_csv(&opts.out_dir, "ablation_lookahead");
    format!(
        "## ablation-lookahead: model II backward-induction horizon\n\n{}",
        table.to_markdown()
    )
}

/// Ablation: recurring-connection count (`max-connections` in §3) vs the
/// intersection attack — more rounds per pair give the attacker more
/// observations.
pub fn ablation_rounds(opts: &Options) -> String {
    let mut table = Table::new(&[
        "avg rounds/pair",
        "exposure rate",
        "anonymity degree",
        "‖π‖",
    ]);
    for rounds in [5usize, 10, 20, 40] {
        let results = replicate(opts, |seed| {
            let mut cfg = opts.base_config(seed);
            cfg.total_transmissions = cfg.n_pairs * rounds;
            cfg.max_connections = (rounds * 2) as u32;
            cfg.adversary_fraction = 0.3;
            cfg.good_strategy = model_one();
            cfg
        });
        let exp = stats_of(&results, |r| r.attack_exposure_rate);
        let anon = stats_of(&results, |r| r.avg_anonymity_degree);
        let set = stats_of(&results, |r| r.avg_forwarder_set);
        table.row(vec![
            rounds.to_string(),
            format!("{:.3}", exp.mean()),
            format!("{:.3}", anon.mean()),
            format!("{:.2}", set.mean()),
        ]);
    }
    let _ = table.write_csv(&opts.out_dir, "ablation_rounds");
    format!(
        "## ablation-rounds: recurring connections vs intersection attack\n\n{}",
        table.to_markdown()
    )
}

/// Ablation: termination mode — Crowds coin vs hop-distance forwarding
/// (the two §2.2 variants), at matched expected path length.
pub fn ablation_termination(opts: &Options) -> String {
    use idpa_core::routing::PathPolicy;
    let modes: [(&str, PathPolicy); 4] = [
        ("crowds p=0.67 (E[L]=3)", PathPolicy::new(2.0 / 3.0, 8)),
        ("hop-distance L=3", PathPolicy::hop_distance(3)),
        ("crowds p=0.75 (E[L]=4)", PathPolicy::new(0.75, 8)),
        ("hop-distance L=4", PathPolicy::hop_distance(4)),
    ];
    let mut table = Table::new(&["termination", "L", "‖π‖", "Q(π)", "avg good payoff"]);
    for (label, policy) in modes {
        let results = replicate(opts, |seed| ScenarioConfig {
            policy,
            good_strategy: model_one(),
            adversary_fraction: 0.1,
            ..opts.base_config(seed)
        });
        let len = stats_of(&results, |r| r.avg_path_length);
        let set = stats_of(&results, |r| r.avg_forwarder_set);
        let q = stats_of(&results, |r| r.avg_path_quality);
        let pay = stats_of(&results, |r| r.avg_good_payoff);
        table.row(vec![
            label.into(),
            format!("{:.2}", len.mean()),
            format!("{:.2}", set.mean()),
            format!("{:.3}", q.mean()),
            format!("{:.0}", pay.mean()),
        ]);
    }
    let _ = table.write_csv(&opts.out_dir, "ablation_termination");
    format!(
        "## ablation-termination: Crowds coin vs hop-distance forwarding\n\n{}",
        table.to_markdown()
    )
}

/// Ablation: dynamic neighbor replacement (replace a neighbor after N
/// silent probe rounds; §2.3's "new neighbor found" rule re-initialises
/// the replacement).
pub fn ablation_replacement(opts: &Options) -> String {
    let mut table = Table::new(&["replace after", "‖π‖", "avg good payoff", "E[X]"]);
    for rounds in [None, Some(3u64), Some(10), Some(30)] {
        let results = replicate(opts, |seed| ScenarioConfig {
            neighbor_replacement_rounds: rounds,
            good_strategy: model_one(),
            adversary_fraction: 0.1,
            ..opts.base_config(seed)
        });
        let set = stats_of(&results, |r| r.avg_forwarder_set);
        let pay = stats_of(&results, |r| r.avg_good_payoff);
        let ex = stats_of(&results, |r| r.new_edge_fraction);
        table.row(vec![
            rounds.map_or("never".into(), |r| format!("{r} rounds")),
            format!("{:.2}", set.mean()),
            format!("{:.0}", pay.mean()),
            format!("{:.3}", ex.mean()),
        ]);
    }
    let _ = table.write_csv(&opts.out_dir, "ablation_replacement");
    format!(
        "## ablation-replacement: dynamic neighbor maintenance\n\n{}",
        table.to_markdown()
    )
}

/// §5 availability attack: attacker payoff share and anonymity impact.
pub fn attack_availability(opts: &Options) -> String {
    let mut table = Table::new(&[
        "f",
        "attack",
        "avg malicious payoff",
        "avg good payoff",
        "anonymity degree",
    ]);
    for f in [0.1, 0.3, 0.5] {
        for attack in [false, true] {
            let results = replicate(opts, |seed| ScenarioConfig {
                adversary_fraction: f,
                availability_attack: attack,
                good_strategy: model_one(),
                ..opts.base_config(seed)
            });
            let mal = stats_of(&results, |r| {
                let v = &r.malicious_payoffs;
                if v.is_empty() {
                    0.0
                } else {
                    v.iter().sum::<f64>() / v.len() as f64
                }
            });
            let good = stats_of(&results, |r| r.avg_good_payoff);
            let anon = stats_of(&results, |r| r.avg_anonymity_degree);
            table.row(vec![
                format!("{f:.1}"),
                if attack { "on" } else { "off" }.into(),
                format!("{:.0}", mal.mean()),
                format!("{:.0}", good.mean()),
                format!("{:.3}", anon.mean()),
            ]);
        }
    }
    let _ = table.write_csv(&opts.out_dir, "attack_availability");
    format!(
        "## attack-availability: §5 availability attack\n\n{}",
        table.to_markdown()
    )
}

/// §4-motivated collusion attack: malicious nodes steer traffic to each
/// other instead of routing uniformly. Measures how much payment they
/// capture and what it costs good nodes and anonymity.
pub fn attack_collusion(opts: &Options) -> String {
    let mut table = Table::new(&[
        "f",
        "adversary",
        "avg malicious payoff",
        "avg good payoff",
        "anonymity degree",
        "‖π‖",
    ]);
    for f in [0.1, 0.3, 0.5] {
        for (label, strategy) in [
            ("random", AdversaryStrategy::Random),
            ("colluding", AdversaryStrategy::Colluding),
        ] {
            let results = replicate(opts, |seed| ScenarioConfig {
                adversary_fraction: f,
                adversary_strategy: strategy,
                good_strategy: model_one(),
                ..opts.base_config(seed)
            });
            let mal = stats_of(&results, |r| {
                if r.malicious_payoffs.is_empty() {
                    0.0
                } else {
                    r.malicious_payoffs.iter().sum::<f64>() / r.malicious_payoffs.len() as f64
                }
            });
            let good = stats_of(&results, |r| r.avg_good_payoff);
            let anon = stats_of(&results, |r| r.avg_anonymity_degree);
            let set = stats_of(&results, |r| r.avg_forwarder_set);
            table.row(vec![
                format!("{f:.1}"),
                label.into(),
                format!("{:.0}", mal.mean()),
                format!("{:.0}", good.mean()),
                format!("{:.3}", anon.mean()),
                format!("{:.2}", set.mean()),
            ]);
        }
    }
    let _ = table.write_csv(&opts.out_dir, "attack_collusion");
    format!(
        "## attack-collusion: colluding vs random adversaries

{}",
        table.to_markdown()
    )
}

/// Timeline: how the system's metrics evolve over the simulated day —
/// run the same seeded world to increasing horizons (common random
/// numbers make the prefixes identical) and snapshot payoff and anonymity.
pub fn timeline(opts: &Options) -> String {
    let fractions = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
    let mut table = Table::new(&[
        "horizon (min)",
        "connections",
        "avg good payoff",
        "anonymity degree",
    ]);
    let mut payoff_pts = Vec::new();
    let mut anon_pts = Vec::new();
    for frac in fractions {
        // Generate the FULL world, then stop the engine early: each point
        // is a true prefix of the same trajectory (common random numbers).
        let results: Vec<crate::runner::RunResult> =
            idpa_desim::pool::parallel_map(thread_count(opts), opts.reps as usize, |rep| {
                let cfg = ScenarioConfig {
                    adversary_fraction: 0.3,
                    good_strategy: model_one(),
                    ..opts.base_config(1000 + rep as u64)
                };
                let world = crate::world::World::generate(&cfg);
                let horizon = idpa_desim::SimTime::new(cfg.churn.horizon * frac);
                let mut run = SimulationRun::new(cfg, world);
                let mut engine = idpa_desim::Engine::new();
                run.schedule_all(&mut engine);
                engine.run(&mut run, Some(horizon));
                run.finish()
            });
        let conns = stats_of(&results, |r| r.connections as f64);
        let pay = stats_of(&results, |r| r.avg_good_payoff);
        let anon = stats_of(&results, |r| r.avg_anonymity_degree);
        let horizon = ScenarioConfig::default().churn.horizon * frac;
        payoff_pts.push((horizon, pay.mean()));
        anon_pts.push((horizon, anon.mean()));
        table.row(vec![
            format!("{horizon:.0}"),
            format!("{:.0}", conns.mean()),
            format!("{:.0}", pay.mean()),
            format!("{:.3}", anon.mean()),
        ]);
    }
    let _ = table.write_csv(&opts.out_dir, "timeline");
    let chart = line_chart(
        "anonymity degree left to the attacker vs horizon (f=0.3)",
        &[Series::new("anonymity", anon_pts)],
        60,
        12,
    );
    format!(
        "## timeline: metric evolution over the simulated day\n\n{}\n```text\n{chart}```\n",
        table.to_markdown()
    )
}

/// Intersection-attack resistance by routing strategy.
pub fn attack_intersection(opts: &Options) -> String {
    let strategies: [(&str, RoutingStrategy); 3] = [
        ("random", RoutingStrategy::Random),
        ("model-1", model_one()),
        ("model-2", model_two()),
    ];
    let mut table = Table::new(&["f", "strategy", "exposure rate", "anonymity degree"]);
    for f in [0.1, 0.3, 0.5] {
        for (label, strategy) in strategies {
            let results = replicate(opts, |seed| ScenarioConfig {
                adversary_fraction: f,
                good_strategy: strategy,
                ..opts.base_config(seed)
            });
            let exp = stats_of(&results, |r| r.attack_exposure_rate);
            let anon = stats_of(&results, |r| r.avg_anonymity_degree);
            table.row(vec![
                format!("{f:.1}"),
                label.into(),
                format!("{:.3}", exp.mean()),
                format!("{:.3}", anon.mean()),
            ]);
        }
    }
    let _ = table.write_csv(&opts.out_dir, "attack_intersection");
    format!(
        "## attack-intersection: passive intersection attack vs strategy\n\n{}",
        table.to_markdown()
    )
}

/// Crowds predecessor analysis (closed form): how far the substrate
/// protocol's own probable-innocence guarantee stretches at the paper's
/// scale — the theoretical backdrop for the intersection-attack results.
pub fn crowds_analysis(opts: &Options) -> String {
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
    let _ = table.write_csv(&opts.out_dir, "crowds_analysis");
    let chart = line_chart(
        "P(first collaborator's predecessor = initiator), N=40, p_f=0.75",
        &[Series::new("P", points)],
        60,
        12,
    );
    format!(
        "## crowds-analysis: Reiter-Rubin predecessor bound at paper scale\n\n{}\n```text\n{chart}```\n",
        table.to_markdown()
    )
}

/// Robustness sweep: delivery ratio, retries per message, reformation
/// latency, and payment shortfall vs the per-edge drop rate, for each
/// routing strategy. Any `--fault-*` options act as a fixed background
/// (crashes, cheaters, bank outages) on top of the swept drop rate, so the
/// same experiment renders both the clean-degradation curve and the
/// compound-fault one.
pub fn fault_degradation(opts: &Options) -> String {
    let strategies: [(&str, RoutingStrategy); 3] = [
        ("random", RoutingStrategy::Random),
        ("model-1", model_one()),
        ("model-2", model_two()),
    ];
    let drop_rates = [0.0, 0.05, 0.1, 0.2, 0.4];
    let mut table = Table::new(&[
        "drop rate",
        "strategy",
        "delivery ratio",
        "retries/msg",
        "reform latency",
        "payment shortfall",
    ]);
    let mut curves: Vec<Vec<(f64, f64)>> = vec![Vec::new(); strategies.len()];
    for drop_rate in drop_rates {
        let fault = FaultConfig {
            drop_rate,
            ..opts.scenario.fault
        };
        for (si, (label, strategy)) in strategies.iter().enumerate() {
            let results = replicate(opts, |seed| ScenarioConfig {
                fault,
                good_strategy: *strategy,
                ..opts.base_config(seed)
            });
            let delivery = stats_of(&results, |r| r.delivery_ratio);
            let retries = stats_of(&results, |r| r.retries_per_message);
            let latency = stats_of(&results, |r| r.reformation_latency);
            let shortfall = stats_of(&results, |r| r.payment_shortfall);
            curves[si].push((drop_rate, delivery.mean()));
            table.row(vec![
                format!("{drop_rate:.2}"),
                (*label).into(),
                fmt_ci(delivery.mean(), delivery.ci95().half_width),
                format!("{:.3}", retries.mean()),
                format!("{:.2}", latency.mean()),
                format!("{:.2}", shortfall.mean()),
            ]);
        }
    }
    let _ = table.write_csv(&opts.out_dir, "fault_degradation");
    let series: Vec<Series> = strategies
        .iter()
        .zip(&curves)
        .map(|((label, _), pts)| Series::new(*label, pts.clone()))
        .collect();
    let chart = line_chart("delivery ratio vs per-edge drop rate", &series, 60, 12);
    format!(
        "## fault-degradation: retry-protocol resilience under injected faults\n\n{}\n```text\n{chart}```\n",
        table.to_markdown()
    )
}

/// Adaptive-vs-static fault response under a compound fault load. Sweeps
/// the cheat fraction (the one node-correlated fault class, where learned
/// reputation has signal) over a fixed crash + drop background and compares
/// `--fault-response static` against `adaptive` on delivery ratio, retries
/// per message, and reformation latency. The adaptive arm runs the
/// three-term quality model with `w_r` from `--reputation-weight`
/// (defaulting to 0.2 when unset); the static arm is the exact PR 4
/// baseline. Any `--fault-*` options replace the default background.
pub fn fault_adaptation(opts: &Options) -> String {
    let background = if opts.scenario.fault.is_active() {
        opts.scenario.fault
    } else {
        FaultConfig {
            crash_rate: 0.05,
            drop_rate: 0.10,
            ..FaultConfig::default()
        }
    };
    let wr = if opts.scenario.reputation_weight > 0.0 {
        opts.scenario.reputation_weight
    } else {
        0.2
    };
    let cheat_fractions = [0.0, 0.1, 0.2, 0.4];
    let arms: [(&str, FaultResponse, f64); 2] = [
        ("static", FaultResponse::Static, 0.0),
        ("adaptive", FaultResponse::Adaptive, wr),
    ];
    let mut table = Table::new(&[
        "cheat fraction",
        "response",
        "delivery ratio",
        "retries/msg",
        "reform latency",
    ]);
    let mut curves: Vec<Vec<(f64, f64)>> = vec![Vec::new(); arms.len()];
    for cheat_fraction in cheat_fractions {
        for (ai, (label, response, arm_wr)) in arms.iter().enumerate() {
            let fault = FaultConfig {
                cheat_fraction,
                response: *response,
                ..background
            };
            let results = replicate(opts, |seed| ScenarioConfig {
                fault,
                weights: split_weights(*arm_wr),
                reputation_weight: *arm_wr,
                good_strategy: model_two(),
                ..opts.base_config(seed)
            });
            let delivery = stats_of(&results, |r| r.delivery_ratio);
            let retries = stats_of(&results, |r| r.retries_per_message);
            let latency = stats_of(&results, |r| r.reformation_latency);
            curves[ai].push((cheat_fraction, delivery.mean()));
            table.row(vec![
                format!("{cheat_fraction:.2}"),
                (*label).into(),
                fmt_ci(delivery.mean(), delivery.ci95().half_width),
                format!("{:.3}", retries.mean()),
                format!("{:.2}", latency.mean()),
            ]);
        }
    }
    let _ = table.write_csv(&opts.out_dir, "fault_adaptation");
    let series: Vec<Series> = arms
        .iter()
        .zip(&curves)
        .map(|((label, _, _), pts)| Series::new(*label, pts.clone()))
        .collect();
    let chart = line_chart("delivery ratio vs cheat fraction", &series, 60, 12);
    format!(
        "## fault-adaptation: reputation-driven response vs the static retry protocol\n\n{}\n```text\n{chart}```\n",
        table.to_markdown()
    )
}

/// Scale study: lazily materialized per-node state, evicted after 64 idle
/// ticks, at growing N under proportionally scaled paper churn
/// ([`ScenarioConfig::scale`]). One run
/// per point (the object of study is the resident-state footprint, not a
/// CI): reports the run's throughput next to the peak materialized node
/// count, idle evictions, and the slab's byte estimate — the `RunResult`
/// resident-state metrics. Peak residency tracks the fixed 512-pair
/// workload, so the `peak/N` column falls as N grows.
pub fn scale_lifecycle(opts: &Options) -> String {
    // IDPA_SCALE_SMOKE=1 (the verify.sh stage) caps the sweep at the
    // quick tier even without --quick.
    let smoke = std::env::var("IDPA_SCALE_SMOKE").is_ok_and(|v| v == "1");
    let sizes: &[usize] = if opts.quick || smoke {
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
        let cfg = ScenarioConfig::scale(n, 1000 + i as u64);
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
    let _ = table.write_csv(&opts.out_dir, "scale_lifecycle");
    format!(
        "## scale-lifecycle: resident state under the lazy node lifecycle\n\n{}",
        table.to_markdown()
    )
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
pub fn adversary_zoo(opts: &Options) -> String {
    // IDPA_AZ_SMOKE=1 (the verify.sh stage) caps the matrix at the quick
    // tier even without --quick.
    let smoke = std::env::var("IDPA_AZ_SMOKE").is_ok_and(|v| v == "1");
    let mut capped = opts.clone();
    if smoke {
        capped.quick = true;
        capped.reps = capped.reps.min(2);
    }
    let opts = &capped;

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

    // Free riders: 20% of nodes ghost every forwarding duty.
    for (label, response) in [
        ("off", FaultResponse::Static),
        ("on (adaptive)", FaultResponse::Adaptive),
    ] {
        let adversary = AdversaryConfig {
            free_rider_fraction: 0.2,
            ..AdversaryConfig::default()
        };
        let fault = FaultConfig {
            response,
            ..opts.scenario.fault
        };
        let results = replicate(opts, |seed| ScenarioConfig {
            adversary,
            fault,
            good_strategy: model_two(),
            ..opts.base_config(seed)
        });
        let delivery = stats_of(&results, |r| r.delivery_ratio);
        let freeloader = stats_of(&results, |r| r.free_rider_payoff);
        let compliant = stats_of(&results, |r| r.compliant_payoff);
        table.row(vec![
            "free-rider".into(),
            label.into(),
            fmt_ci(delivery.mean(), delivery.ci95().half_width),
            format!("{:.1}", freeloader.mean()),
            format!("{:.1}", compliant.mean()),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
    }

    // Whitewashers: 20% of nodes shed their identity on a renewal
    // schedule, against a background drop rate that makes the shed
    // identity's ledger worth escaping.
    for (label, discount) in [("off", false), ("on (age discount)", true)] {
        let adversary = AdversaryConfig {
            whitewash_fraction: 0.2,
            whitewash_interval: 240.0,
            whitewash_age_discount: discount,
            reputation_maturity: 120.0,
            ..AdversaryConfig::default()
        };
        let fault = FaultConfig {
            drop_rate: 0.2,
            response: FaultResponse::Adaptive,
            ..opts.scenario.fault
        };
        let wr = 0.5;
        let results = replicate(opts, |seed| ScenarioConfig {
            adversary,
            fault,
            weights: split_weights(wr),
            reputation_weight: wr,
            good_strategy: model_two(),
            ..opts.base_config(seed)
        });
        let delivery = stats_of(&results, |r| r.delivery_ratio);
        let evasion = stats_of(&results, |r| r.reputation_evasion_rate);
        table.row(vec![
            "whitewasher".into(),
            label.into(),
            fmt_ci(delivery.mean(), delivery.ci95().half_width),
            "-".into(),
            "-".into(),
            format!("{:.3}", evasion.mean()),
            "-".into(),
            "-".into(),
        ]);
    }

    // Colluding cliques: two 4-cliques forge phantom-forwarding evidence
    // on every connection their responder completes.
    for (label, cross_check) in [("off", false), ("on (cross-check)", true)] {
        let adversary = AdversaryConfig {
            clique_count: 2,
            clique_size: 4,
            clique_forge_rate: 1.0,
            clique_cross_check: cross_check,
            ..AdversaryConfig::default()
        };
        let results = replicate(opts, |seed| ScenarioConfig {
            adversary,
            good_strategy: model_two(),
            ..opts.base_config(seed)
        });
        let delivery = stats_of(&results, |r| r.delivery_ratio);
        let injected: u64 = results.iter().map(|r| r.clique_phantom_instances).sum();
        let flagged: u64 = results.iter().map(|r| r.clique_phantom_flagged).sum();
        let leakage = stats_of(&results, |r| r.clique_payout_leakage);
        table.row(vec![
            "clique".into(),
            label.into(),
            fmt_ci(delivery.mean(), delivery.ci95().half_width),
            "-".into(),
            "-".into(),
            "-".into(),
            format!("{flagged}/{injected}"),
            format!("{:.3}", leakage.mean()),
        ]);
    }

    let _ = table.write_csv(&opts.out_dir, "adversary_zoo");
    format!(
        "## adversary-zoo: strategy classes vs their defenses\n\n{}",
        table.to_markdown()
    )
}

/// An experiment: renders its figure/table from the shared options.
pub type Experiment = fn(&Options) -> String;

/// Every experiment by name, in DESIGN.md order.
#[must_use]
pub fn registry() -> Vec<(&'static str, Experiment)> {
    vec![
        (
            "fig3",
            (|o| fig_payoff_vs_f(o, model_one(), "fig3_payoff_model1")) as Experiment,
        ),
        ("fig4", |o| {
            fig_payoff_vs_f(o, model_two(), "fig4_payoff_model2")
        }),
        ("fig5", fig5),
        ("fig6", |o| fig_payoff_cdf(o, 0.1, "fig6_payoff_cdf_f01")),
        ("fig7", |o| fig_payoff_cdf(o, 0.5, "fig7_payoff_cdf_f05")),
        ("table2", table2),
        ("prop1", prop1),
        ("props23", props23),
        ("ablation-weights", ablation_weights),
        ("ablation-tau", ablation_tau),
        ("ablation-degree", ablation_degree),
        ("ablation-probe", ablation_probe),
        ("ablation-history", ablation_history),
        ("ablation-lookahead", ablation_lookahead),
        ("ablation-rounds", ablation_rounds),
        ("ablation-replacement", ablation_replacement),
        ("ablation-termination", ablation_termination),
        ("attack-availability", attack_availability),
        ("attack-collusion", attack_collusion),
        ("attack-intersection", attack_intersection),
        ("fault-degradation", fault_degradation),
        ("fault-adaptation", fault_adaptation),
        ("scale-lifecycle", scale_lifecycle),
        ("adversary-zoo", adversary_zoo),
        ("timeline", timeline),
        ("crowds-analysis", crowds_analysis),
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

    #[test]
    fn replicate_is_bit_identical_across_thread_counts() {
        // The acceptance bar for the in-tree pool: per-replication seeds
        // (1000 + rep) make the result vector independent of scheduling.
        let make = |opts: &Options| {
            replicate(opts, |seed| ScenarioConfig {
                adversary_fraction: 0.3,
                good_strategy: model_two(),
                ..opts.base_config(seed)
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
        let names: Vec<&str> = registry().iter().map(|(n, _)| *n).collect();
        for required in ["fig3", "fig4", "fig5", "fig6", "fig7", "table2"] {
            assert!(names.contains(&required), "{required} missing");
        }
    }

    #[test]
    fn props23_runs_and_reports_thresholds() {
        let out = props23(&quick_opts());
        assert!(out.contains("Prop.2 = 4.50"));
        assert!(out.contains("Prop.3 = 7.00"));
        // Above both thresholds everything holds.
        assert!(out.contains("50.00"));
    }

    #[test]
    fn table2_emits_all_rows() {
        let out = table2(&quick_opts());
        assert!(out.contains("f=0.1"));
        assert!(out.contains("f=0.9"));
        assert!(out.contains("mean"));
    }

    #[test]
    fn fault_degradation_runs_quick_and_reports_degradation() {
        let out = fault_degradation(&Options {
            reps: 1,
            ..quick_opts()
        });
        assert!(out.contains("0.40"), "largest swept drop rate missing");
        assert!(out.contains("model-2") || out.contains("model II"));
        assert!(out.contains("delivery ratio"));
    }

    #[test]
    fn fault_adaptation_runs_quick_with_both_arms() {
        let out = fault_adaptation(&Options {
            reps: 1,
            ..quick_opts()
        });
        assert!(out.contains("static"));
        assert!(out.contains("adaptive"));
        assert!(out.contains("0.40"), "largest swept cheat fraction missing");
        assert!(out.contains("delivery ratio"));
    }

    #[test]
    fn scale_lifecycle_runs_quick_with_bounded_residency() {
        let out = scale_lifecycle(&quick_opts());
        assert!(out.contains("peak materialized"));
        assert!(out.contains("2000"), "largest quick size missing");
    }

    #[test]
    fn fig5_runs_quick() {
        let out = fig5(&Options {
            reps: 1,
            ..quick_opts()
        });
        assert!(out.contains("model II"));
        assert!(out.lines().count() > 10);
    }
}
