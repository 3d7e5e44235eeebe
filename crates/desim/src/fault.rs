//! Seed-derived deterministic fault injection.
//!
//! The paper's robustness claims — quality-driven routing reduces path
//! reformations under churn (Prop. 1), and the §5 payment scheme tolerates
//! cheating on the reverse confirmation path — are only meaningful under
//! partial failures. This module supplies those failures *deterministically*:
//! every fault decision is drawn from a position-keyed stream of the master
//! seed ([`crate::rng::StreamFactory::stream_indexed3`] keyed by
//! `(pair, connection, attempt)`), so the exact same crashes, drops, delays
//! and cheats fire no matter how many worker threads replicate the run or
//! when probe state is materialized. A replication with faults
//! enabled is as bit-reproducible as one without.
//!
//! Four fault classes (the knobs of [`FaultConfig`]):
//!
//! * **forwarder crash mid-transmission** — the sending forwarder of an
//!   edge dies while relaying; its current session is truncated (it stays
//!   down until the churn schedule's next join), and the message is lost;
//! * **per-edge message drop and delay** — a hop loses the payload outright
//!   or adds exponential latency that can push the transmission past the
//!   initiator's retry timeout;
//! * **cheating forwarders** — a static, seed-derived subset of nodes that
//!   tamper with the §2.2 confirmation flowing back to `I`: either dropping
//!   it (so `I` never learns the connection completed) or corrupting the
//!   receipts of every hop downstream of themselves while keeping their own;
//! * **transient bank unavailability** — an alternating renewal process of
//!   outage windows during which settlement requests must wait.
//!
//! The fault layer is strictly additive: with every rate at zero
//! ([`FaultConfig::is_active`] false) no fault stream is ever touched and
//! simulations are bit-identical to a build without this module.

use crate::rng::{StreamFactory, Xoshiro256StarStar};
use rand::RngExt;

/// How the initiator responds to observed faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultResponse {
    /// The PR 3 baseline: fixed exponential backoff (`retry_timeout · 2^a`),
    /// retry over a fresh formation with no memory of what failed. The
    /// default, and the mode every fingerprint suite pins.
    #[default]
    Static,
    /// Adaptive response: failures feed a per-initiator reputation ledger
    /// that downweights and eventually suppresses suspects, validator cheat
    /// flags take effect mid-run, confirmed failures invalidate the
    /// suspect's probe-derived availability, and repeat offenders trigger
    /// an escalated reform-excluding-suspect retry with flat backoff.
    Adaptive,
}

/// Fault-injection rates and the retry protocol's parameters.
///
/// All-zero rates (the default) disable the subsystem entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Per-hop probability that the sending forwarder of an edge crashes
    /// mid-transmission (session truncation; the initiator never crashes).
    pub crash_rate: f64,
    /// Per-edge probability that the payload is dropped.
    pub drop_rate: f64,
    /// Per-edge probability of an extra transmission delay.
    pub delay_rate: f64,
    /// Mean of the exponential extra delay, in minutes.
    pub delay_mean: f64,
    /// Fraction of nodes that cheat on confirmations flowing back to `I`.
    /// Cheater status is a static per-node property drawn from the master
    /// seed, orthogonal to the good/malicious routing roles.
    pub cheat_fraction: f64,
    /// Probability that a cheating forwarder's act corrupts downstream
    /// receipts (detectable by §5 path validation) rather than dropping
    /// the confirmation outright.
    pub cheat_corrupt_share: f64,
    /// Long-run fraction of time the bank is unreachable (`[0, 1)`).
    pub bank_downtime: f64,
    /// Mean length of one bank outage window, in minutes.
    pub bank_outage_mean: f64,
    /// Per-settlement-flush probability that the bank process *crashes*
    /// (distinct from an outage: state is lost mid-write and recovery
    /// replays the WAL; requires durability to be enabled by the runner).
    pub bank_crash_rate: f64,
    /// Given a crash, probability that the final WAL record is torn
    /// (partially written) rather than cleanly cut.
    pub bank_crash_torn_share: f64,
    /// Bounded retries per message after the unconditional first attempt.
    pub max_retries: u32,
    /// Initiator's per-attempt timeout (minutes); attempt `a`'s backoff is
    /// `retry_timeout · 2^a`.
    pub retry_timeout: f64,
    /// How the initiator reacts to the faults it observes
    /// (`--fault-response`; [`FaultResponse::Static`] preserves baselines).
    pub response: FaultResponse,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            crash_rate: 0.0,
            drop_rate: 0.0,
            delay_rate: 0.0,
            delay_mean: 0.5,
            cheat_fraction: 0.0,
            cheat_corrupt_share: 0.5,
            bank_downtime: 0.0,
            bank_outage_mean: 15.0,
            bank_crash_rate: 0.0,
            bank_crash_torn_share: 0.5,
            max_retries: 3,
            retry_timeout: 2.0,
            response: FaultResponse::default(),
        }
    }
}

impl FaultConfig {
    /// Whether any fault class is enabled. When false, a [`FaultPlan`] is
    /// never built and no fault stream is consumed.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.crash_rate > 0.0
            || self.drop_rate > 0.0
            || self.delay_rate > 0.0
            || self.cheat_fraction > 0.0
            || self.bank_downtime > 0.0
            || self.bank_crash_rate > 0.0
    }

    /// Checks field ranges; returns a description of the first violation.
    /// The bank-outage and bank-crash knobs go through the same
    /// probability gate as every other rate — one shared range check, so
    /// a new fault class cannot silently skip validation.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("crash_rate", self.crash_rate),
            ("drop_rate", self.drop_rate),
            ("delay_rate", self.delay_rate),
            ("cheat_fraction", self.cheat_fraction),
            ("cheat_corrupt_share", self.cheat_corrupt_share),
            ("bank_crash_rate", self.bank_crash_rate),
            ("bank_crash_torn_share", self.bank_crash_torn_share),
        ];
        for (name, v) in probs {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be a probability in [0, 1], got {v}"));
            }
        }
        if !(0.0..1.0).contains(&self.bank_downtime) {
            return Err(format!(
                "bank_downtime must be in [0, 1), got {}",
                self.bank_downtime
            ));
        }
        if self.delay_rate > 0.0 && self.delay_mean <= 0.0 {
            return Err(format!(
                "delay_mean must be positive when delays are enabled, got {}",
                self.delay_mean
            ));
        }
        if self.bank_downtime > 0.0 && self.bank_outage_mean <= 0.0 {
            return Err(format!(
                "bank_outage_mean must be positive when outages are enabled, got {}",
                self.bank_outage_mean
            ));
        }
        if self.is_active() && self.retry_timeout <= 0.0 {
            return Err(format!(
                "retry_timeout must be positive, got {}",
                self.retry_timeout
            ));
        }
        if self.max_retries > 100 {
            return Err(format!(
                "max_retries must be <= 100, got {}",
                self.max_retries
            ));
        }
        Ok(())
    }
}

/// What a cheating forwarder does to a confirmation passing through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheatAction {
    /// Swallow the confirmation: `I` never learns the connection completed.
    DropConfirmation,
    /// Forward the confirmation but corrupt the receipts of every hop
    /// strictly downstream of itself (keeping its own receipt valid).
    CorruptReceipts,
}

/// The sampled faults of one transmission attempt, in path-edge order
/// (`I→f_1`, `f_1→f_2`, …, `f_n→R`).
#[derive(Debug, Clone, PartialEq)]
pub struct TransmissionFaults {
    /// One entry per edge of the attempted path.
    pub edges: Vec<EdgeFault>,
}

/// Faults on a single path edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeFault {
    /// The edge's sender crashes mid-transmission (never applied to the
    /// initiator's own first hop).
    pub crash: bool,
    /// The payload is dropped on this edge.
    pub dropped: bool,
    /// Extra transmission delay on this edge, minutes (0 when not delayed).
    pub delay: f64,
}

/// A fully deterministic fault schedule derived from the master seed.
///
/// Per-transmission faults are *not* precomputed: they are pure functions
/// of the `(pair, connection, attempt)` position, materialized on demand by
/// [`FaultPlan::sample_transmission`]. Only the static per-node cheater
/// assignment and the bank outage windows are sampled up front.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    streams: StreamFactory,
    cheaters: Vec<bool>,
    bank_outages: Vec<(f64, f64)>,
}

impl FaultPlan {
    /// Builds the plan for `n_nodes` peers over `horizon` minutes.
    #[must_use]
    pub fn new(cfg: FaultConfig, streams: StreamFactory, n_nodes: usize, horizon: f64) -> Self {
        let cheaters = (0..n_nodes)
            .map(|i| {
                cfg.cheat_fraction > 0.0 && {
                    let mut rng = streams.stream_indexed2("fault/cheater", i as u64, 0);
                    rng.random_range(0.0..1.0) < cfg.cheat_fraction
                }
            })
            .collect();
        let bank_outages = Self::sample_bank_outages(&cfg, &streams, horizon);
        FaultPlan {
            cfg,
            streams,
            cheaters,
            bank_outages,
        }
    }

    /// Alternating renewal process: Exp-distributed up gaps whose mean is
    /// chosen so the long-run down fraction matches `bank_downtime`, then
    /// Exp-distributed outages of mean `bank_outage_mean`. Windows extend
    /// past the horizon so post-horizon settlement still sees outages.
    fn sample_bank_outages(
        cfg: &FaultConfig,
        streams: &StreamFactory,
        horizon: f64,
    ) -> Vec<(f64, f64)> {
        if cfg.bank_downtime <= 0.0 {
            return Vec::new();
        }
        let mut rng = streams.stream("fault/bank");
        let mean_gap = cfg.bank_outage_mean * (1.0 - cfg.bank_downtime) / cfg.bank_downtime;
        let mut out = Vec::new();
        let mut t = 0.0f64;
        let limit = horizon + 20.0 * cfg.bank_outage_mean;
        while t < limit {
            t += exp_sample(&mut rng, mean_gap);
            let end = t + exp_sample(&mut rng, cfg.bank_outage_mean);
            if t >= limit {
                break;
            }
            out.push((t, end));
            t = end;
        }
        out
    }

    /// The configuration this plan was built from.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        self.cfg()
    }

    fn cfg(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Whether `node` is a confirmation cheater.
    #[must_use]
    pub fn is_cheater(&self, node: usize) -> bool {
        self.cheaters.get(node).copied().unwrap_or(false)
    }

    /// The sorted indices of all injected cheaters.
    #[must_use]
    pub fn cheaters(&self) -> Vec<usize> {
        self.cheaters
            .iter()
            .enumerate()
            .filter(|(_, &c)| c)
            .map(|(i, _)| i)
            .collect()
    }

    /// Samples the per-edge faults of one transmission attempt. A pure
    /// function of `(pair, connection, attempt)`: four uniforms are drawn
    /// per edge (crash, drop, delay gate, delay length) from the attempt's
    /// own keyed stream, so the draw order of other attempts — or other
    /// threads — cannot perturb it.
    #[must_use]
    pub fn sample_transmission(
        &self,
        pair: u64,
        connection: u64,
        attempt: u64,
        n_edges: usize,
    ) -> TransmissionFaults {
        let mut rng = self
            .streams
            .stream_indexed3("fault/tx", pair, connection, attempt);
        let edges = (0..n_edges)
            .map(|_| {
                let u_crash: f64 = rng.random_range(0.0..1.0);
                let u_drop: f64 = rng.random_range(0.0..1.0);
                let u_gate: f64 = rng.random_range(0.0..1.0);
                let u_len: f64 = rng.random_range(0.0..1.0);
                EdgeFault {
                    crash: u_crash < self.cfg.crash_rate,
                    dropped: u_drop < self.cfg.drop_rate,
                    delay: if u_gate < self.cfg.delay_rate {
                        -self.cfg.delay_mean * (1.0 - u_len).ln()
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        TransmissionFaults { edges }
    }

    /// The action a cheater at path position `hop` (1-based) takes on this
    /// attempt's confirmation. Position-keyed like
    /// [`FaultPlan::sample_transmission`]; `attempt` must stay below 256 so
    /// it packs losslessly beside the connection index.
    #[must_use]
    pub fn cheat_action(&self, pair: u64, connection: u64, attempt: u64, hop: u64) -> CheatAction {
        debug_assert!(attempt < 256, "attempt index overflows the packed key");
        let mut rng =
            self.streams
                .stream_indexed3("fault/confirm", pair, (connection << 8) | attempt, hop);
        if rng.random_range(0.0..1.0) < self.cfg.cheat_corrupt_share {
            CheatAction::CorruptReceipts
        } else {
            CheatAction::DropConfirmation
        }
    }

    /// Whether (and how) the bank process crashes during settlement flush
    /// number `flush`. A pure function of the flush index, drawn from its
    /// own keyed stream ("fault/bank-crash"), so adding or removing crash
    /// draws never perturbs any other fault class — the same discipline as
    /// [`FaultPlan::sample_transmission`]. Returns `None` when no crash
    /// fires (always, at rate zero: the stream is never touched).
    #[must_use]
    pub fn bank_crash(&self, flush: u64) -> Option<BankCrashDraw> {
        if self.cfg.bank_crash_rate <= 0.0 {
            return None;
        }
        let mut rng = self.streams.stream_indexed2("fault/bank-crash", flush, 0);
        let u_gate: f64 = rng.random_range(0.0..1.0);
        if u_gate >= self.cfg.bank_crash_rate {
            return None;
        }
        let u_pos = rng.next();
        let u_torn: f64 = rng.random_range(0.0..1.0);
        let u_tear = rng.next();
        Some(BankCrashDraw {
            u_pos,
            torn: u_torn < self.cfg.bank_crash_torn_share,
            u_tear,
        })
    }

    /// The earliest time `>= t` at which the bank is reachable (identity
    /// when it already is).
    #[must_use]
    pub fn next_bank_up(&self, t: f64) -> f64 {
        // Outage windows are few (sparse renewal process); linear scan with
        // early exit is cheaper than a partition point for typical counts.
        for &(start, end) in &self.bank_outages {
            if t < start {
                return t;
            }
            if t < end {
                return end;
            }
        }
        t
    }
}

/// A seeded bank-crash decision for one settlement flush: *where* inside
/// the flush the primary dies and whether the write in flight is torn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankCrashDraw {
    /// Uniform draw locating the crash point: the runner reduces it
    /// modulo the flush's operation count to pick the op that dies.
    pub u_pos: u64,
    /// Whether the final record is torn (partially written) rather than
    /// cut at a record boundary.
    pub torn: bool,
    /// Uniform draw locating the tear: reduced modulo the record length
    /// to pick how many bytes of the final record survive.
    pub u_tear: u64,
}

/// Inverse-CDF exponential sample with the given mean (`u` uniform in
/// `[0, 1)` makes `1 - u` strictly positive, so the log is finite).
pub(crate) fn exp_sample(rng: &mut Xoshiro256StarStar, mean: f64) -> f64 {
    let u: f64 = rng.random_range(0.0..1.0);
    -mean * (1.0 - u).ln()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;

    fn active_cfg() -> FaultConfig {
        FaultConfig {
            crash_rate: 0.05,
            drop_rate: 0.1,
            delay_rate: 0.2,
            cheat_fraction: 0.25,
            bank_downtime: 0.2,
            ..FaultConfig::default()
        }
    }

    fn plan(seed: u64) -> FaultPlan {
        FaultPlan::new(active_cfg(), StreamFactory::new(seed), 40, 1440.0)
    }

    #[test]
    fn default_config_is_inactive_and_valid() {
        let cfg = FaultConfig::default();
        assert!(!cfg.is_active());
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn each_fault_class_activates() {
        for cfg in [
            FaultConfig {
                crash_rate: 0.1,
                ..FaultConfig::default()
            },
            FaultConfig {
                drop_rate: 0.1,
                ..FaultConfig::default()
            },
            FaultConfig {
                delay_rate: 0.1,
                ..FaultConfig::default()
            },
            FaultConfig {
                cheat_fraction: 0.1,
                ..FaultConfig::default()
            },
            FaultConfig {
                bank_downtime: 0.1,
                ..FaultConfig::default()
            },
        ] {
            assert!(cfg.is_active());
            assert_eq!(cfg.validate(), Ok(()));
        }
    }

    #[test]
    fn invalid_configs_rejected_with_field_name() {
        let bad = FaultConfig {
            drop_rate: 1.5,
            ..FaultConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("drop_rate"));
        let bad = FaultConfig {
            bank_downtime: 1.0,
            ..FaultConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("bank_downtime"));
        let bad = FaultConfig {
            drop_rate: 0.1,
            retry_timeout: 0.0,
            ..FaultConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("retry_timeout"));
        let bad = FaultConfig {
            delay_rate: 0.1,
            delay_mean: 0.0,
            ..FaultConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("delay_mean"));
    }

    #[test]
    fn transmission_faults_are_position_stable() {
        let a = plan(9);
        let b = plan(9);
        // Materialization order must not matter.
        let x1 = a.sample_transmission(3, 7, 1, 5);
        let _interleaved = a.sample_transmission(4, 0, 0, 3);
        let x2 = b.sample_transmission(3, 7, 1, 5);
        assert_eq!(x1, x2);
        assert_eq!(x1.edges.len(), 5);
    }

    #[test]
    fn attempts_decorrelate() {
        let p = plan(10);
        let a0 = p.sample_transmission(0, 0, 0, 64);
        let a1 = p.sample_transmission(0, 0, 1, 64);
        assert_ne!(a0, a1);
    }

    #[test]
    fn fault_rates_are_respected_in_aggregate() {
        let p = plan(11);
        let mut drops = 0usize;
        let mut total = 0usize;
        for pair in 0..200u64 {
            let tf = p.sample_transmission(pair, 0, 0, 10);
            total += tf.edges.len();
            drops += tf.edges.iter().filter(|e| e.dropped).count();
        }
        let rate = drops as f64 / total as f64;
        assert!((rate - 0.1).abs() < 0.03, "empirical drop rate {rate}");
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let p = FaultPlan::new(FaultConfig::default(), StreamFactory::new(1), 10, 1000.0);
        let tf = p.sample_transmission(0, 0, 0, 8);
        assert!(tf
            .edges
            .iter()
            .all(|e| !e.crash && !e.dropped && e.delay == 0.0));
        assert!(p.cheaters().is_empty());
        assert!(p.bank_outages.is_empty());
        assert_eq!(p.next_bank_up(500.0), 500.0);
    }

    #[test]
    fn cheater_assignment_matches_fraction() {
        let p = FaultPlan::new(
            FaultConfig {
                cheat_fraction: 0.25,
                ..FaultConfig::default()
            },
            StreamFactory::new(5),
            1000,
            100.0,
        );
        let k = p.cheaters().len();
        assert!((150..350).contains(&k), "cheaters: {k}/1000");
        for &c in &p.cheaters() {
            assert!(p.is_cheater(c));
        }
        assert!(!p.is_cheater(5000), "out of range is not a cheater");
    }

    #[test]
    fn cheat_actions_cover_both_kinds_and_are_stable() {
        let p = plan(12);
        let mut drop = false;
        let mut corrupt = false;
        for hop in 1..100u64 {
            match p.cheat_action(0, 0, 0, hop) {
                CheatAction::DropConfirmation => drop = true,
                CheatAction::CorruptReceipts => corrupt = true,
            }
        }
        assert!(drop && corrupt);
        assert_eq!(p.cheat_action(1, 2, 3, 4), p.cheat_action(1, 2, 3, 4));
    }

    #[test]
    fn bank_outages_are_disjoint_and_match_downtime() {
        let p = FaultPlan::new(
            FaultConfig {
                bank_downtime: 0.3,
                bank_outage_mean: 10.0,
                ..FaultConfig::default()
            },
            StreamFactory::new(77),
            10,
            100_000.0,
        );
        let outages = &p.bank_outages;
        assert!(!outages.is_empty());
        for w in outages.windows(2) {
            assert!(w[0].1 <= w[1].0, "windows must be disjoint and sorted");
        }
        let down: f64 = outages
            .iter()
            .map(|&(s, e)| e.min(100_000.0) - s.min(100_000.0))
            .sum();
        let frac = down / 100_000.0;
        assert!((frac - 0.3).abs() < 0.05, "downtime fraction {frac}");
    }

    #[test]
    fn bank_crash_draws_are_position_stable_and_rate_respecting() {
        let cfg = FaultConfig {
            bank_crash_rate: 0.3,
            bank_crash_torn_share: 0.5,
            ..FaultConfig::default()
        };
        assert!(cfg.is_active(), "crash class activates the fault layer");
        assert_eq!(cfg.validate(), Ok(()));
        let a = FaultPlan::new(cfg, StreamFactory::new(21), 10, 100.0);
        let b = FaultPlan::new(cfg, StreamFactory::new(21), 10, 100.0);
        let mut crashes = 0usize;
        let mut torn = 0usize;
        for flush in 0..2000u64 {
            let d = a.bank_crash(flush);
            assert_eq!(d, b.bank_crash(flush), "flush {flush} draw unstable");
            if let Some(d) = d {
                crashes += 1;
                torn += usize::from(d.torn);
            }
        }
        let rate = crashes as f64 / 2000.0;
        assert!((rate - 0.3).abs() < 0.04, "empirical crash rate {rate}");
        let share = torn as f64 / crashes as f64;
        assert!((share - 0.5).abs() < 0.08, "empirical torn share {share}");
    }

    #[test]
    fn zero_crash_rate_never_draws() {
        let p = plan(14); // active plan, but bank_crash_rate defaults to 0
        for flush in 0..100u64 {
            assert_eq!(p.bank_crash(flush), None);
        }
    }

    #[test]
    fn bank_crash_rate_shares_the_probability_gate() {
        let bad = FaultConfig {
            bank_crash_rate: 1.5,
            ..FaultConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("bank_crash_rate"));
        let bad = FaultConfig {
            bank_crash_torn_share: -0.1,
            ..FaultConfig::default()
        };
        assert!(bad
            .validate()
            .unwrap_err()
            .contains("bank_crash_torn_share"));
    }

    #[test]
    fn next_bank_up_is_consistent_with_availability() {
        let p = plan(13);
        let available = |t: f64| !p.bank_outages.iter().any(|&(s, e)| s <= t && t < e);
        for t in 0..1440 {
            let t = t as f64;
            let up = p.next_bank_up(t);
            assert!(up >= t);
            assert!(available(up));
            if available(t) {
                assert_eq!(up, t);
            }
        }
    }
}
