//! Per-initiator edge reputation — the ρ term of the adaptive quality model.
//!
//! The paper's edge quality `q(s,v) = w_s·σ(s,v) + w_a·α(v)` (§3) folds
//! history and availability into next-hop choice, and §5 argues the payment
//! system must *tolerate* cheating, not merely detect it at settlement. This
//! module closes that loop: each initiator keeps a private ledger of what it
//! has *observed* going wrong through each relay — confirmed drops,
//! confirmation timeouts, and validator-flagged receipt corruption — and
//! exposes a reputation score `ρ(v) ∈ [0, 1]` that enters the quality model
//! as a third weighted term, `q = w_s·σ + w_a·α + w_r·ρ`
//! ([`crate::quality::Weights::with_reputation`]).
//!
//! The ledger is strictly per-initiator: reputations are *local
//! observations*, never gossiped, matching the paper's stance that each
//! peer estimates neighbor behavior from its own probes and receipts. All
//! updates are driven by deterministic simulation events, so adaptive runs
//! replay bit-identically from the master seed.

use std::collections::HashMap;

use idpa_desim::rng::Mix64State;
use idpa_overlay::NodeId;

/// Observed faults after which a relay is suppressed from path formation
/// (in addition to any validator cheat flag, which suppresses immediately).
const SUPPRESSION_FAULTS: u32 = 2;

/// The observations one initiator holds against a single relay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RelayFaults {
    drops: u32,
    timeouts: u32,
    flagged: bool,
}

/// One initiator's private fault ledger over all potential relays.
///
/// Scores decay harmonically with the observed fault count — one strike
/// halves the reputation, two strikes third it — and a validator cheat
/// flag zeroes it outright: receipt corruption is *attributed* misbehavior
/// (the §5 intact-prefix rule pins it on a specific forwarder), whereas a
/// drop or timeout could be the network's fault.
///
/// Storage is sparse: a relay with no recorded observation occupies no
/// memory (absent ≡ clean, ρ = 1), so a ledger's footprint scales with the
/// relays an initiator has actually seen misbehave, not with the network
/// size. Entries appear only on a recorded fault or flag, so equality over
/// the sparse map coincides with value equality of the dense ledger it
/// replaced.
///
/// Whitewash semantics: when a relay sheds its identity and rejoins
/// fresh, the ledger drops its entry for it, so the new identity reads
/// clean (ρ = 1, nothing suppressed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeReputation {
    n_nodes: usize,
    observed: HashMap<usize, RelayFaults, Mix64State>,
}

impl EdgeReputation {
    /// A clean ledger over `n_nodes` relays (everyone starts at ρ = 1).
    #[must_use]
    pub fn new(n_nodes: usize) -> Self {
        EdgeReputation {
            n_nodes,
            observed: HashMap::default(),
        }
    }

    fn get(&self, v: NodeId) -> RelayFaults {
        assert!(v.index() < self.n_nodes, "relay {v} out of range");
        self.observed.get(&v.index()).copied().unwrap_or_default()
    }

    fn get_mut(&mut self, v: NodeId) -> &mut RelayFaults {
        assert!(v.index() < self.n_nodes, "relay {v} out of range");
        self.observed.entry(v.index()).or_default()
    }

    /// Records a confirmed loss (crash or packet drop) through `v`.
    pub fn record_drop(&mut self, v: NodeId) {
        self.get_mut(v).drops += 1;
    }

    /// Records a confirmation timeout attributed to `v` (includes dropped
    /// confirmations — from the initiator's seat a swallowed confirmation
    /// is indistinguishable from a slow one).
    pub fn record_timeout(&mut self, v: NodeId) {
        self.get_mut(v).timeouts += 1;
    }

    /// Marks `v` as a validator-flagged cheater (receipt corruption pinned
    /// on `v` by the intact-prefix rule). Irrevocable within a run.
    pub fn flag_cheater(&mut self, v: NodeId) {
        self.get_mut(v).flagged = true;
    }

    /// Observed drop count for `v`.
    #[must_use]
    pub fn drops(&self, v: NodeId) -> u32 {
        self.get(v).drops
    }

    /// Observed timeout count for `v`.
    #[must_use]
    pub fn timeouts(&self, v: NodeId) -> u32 {
        self.get(v).timeouts
    }

    /// The reputation score ρ(v) ∈ [0, 1]: zero for flagged cheaters,
    /// otherwise `1 / (1 + faults)`.
    #[must_use]
    pub fn score(&self, v: NodeId) -> f64 {
        let f = self.get(v);
        if f.flagged {
            0.0
        } else {
            1.0 / (1.0 + f64::from(f.drops + f.timeouts))
        }
    }

    /// Whether `v` should be excluded from path formation outright:
    /// flagged cheaters immediately, repeat offenders after
    /// `SUPPRESSION_FAULTS` observed faults.
    #[must_use]
    pub fn is_suppressed(&self, v: NodeId) -> bool {
        let f = self.get(v);
        f.flagged || f.drops + f.timeouts >= SUPPRESSION_FAULTS
    }

    /// Drops the entry for `v` — the whitewash: `v` rejoined under a
    /// fresh identity, so its reputation resets to clean. A no-op on a
    /// clean entry, so sparse ledgers never materialize state for it.
    pub fn whitewash(&mut self, v: NodeId) {
        assert!(v.index() < self.n_nodes, "relay {v} out of range");
        self.observed.remove(&v.index());
    }

    /// Approximate heap footprint of the ledger, in bytes (sparse entries
    /// only — a clean ledger reports zero).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        // Entries are counted by length, not allocated capacity: the
        // estimate must be a pure function of the ledger's *value* so it
        // survives snapshot/resume bit-identically. Capacity is not
        // value-pure once whitewashing can remove entries — a live map that
        // grew past its current population and a freshly restored one hold
        // the same value at different capacities.
        self.observed.len() * (std::mem::size_of::<RelayFaults>() + std::mem::size_of::<usize>())
    }

    /// Snapshot export: `(relay, drops, timeouts, flagged)` for every relay
    /// with a recorded entry, sorted by relay index — a pure function of the
    /// ledger's value, independent of hash-map iteration order.
    #[must_use]
    pub fn snapshot_entries(&self) -> Vec<(usize, u32, u32, bool)> {
        let mut entries: Vec<(usize, u32, u32, bool)> = self
            .observed
            .iter()
            .map(|(&v, f)| (v, f.drops, f.timeouts, f.flagged))
            .collect();
        entries.sort_unstable_by_key(|e| e.0);
        entries
    }

    /// Rebuilds a ledger from a [`EdgeReputation::snapshot_entries`] export.
    /// Callers must have validated `v < n_nodes` for every entry (the
    /// snapshot decoder does). [`EdgeReputation::approx_bytes`] — which
    /// feeds the run's memory metrics — is a pure function of the entries,
    /// so the restored ledger reports the snapshotted run's bytes exactly.
    #[must_use]
    pub fn from_snapshot(n_nodes: usize, entries: &[(usize, u32, u32, bool)]) -> Self {
        let mut rep = EdgeReputation::new(n_nodes);
        for &(v, drops, timeouts, flagged) in entries {
            rep.observed.insert(
                v,
                RelayFaults {
                    drops,
                    timeouts,
                    flagged,
                },
            );
        }
        rep
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;

    #[test]
    fn clean_ledger_scores_everyone_at_one() {
        let rep = EdgeReputation::new(4);
        for i in 0..4 {
            assert!((rep.score(NodeId(i)) - 1.0).abs() < f64::EPSILON);
            assert!(!rep.is_suppressed(NodeId(i)));
        }
        assert!(rep.snapshot_entries().is_empty());
    }

    #[test]
    fn faults_decay_score_harmonically() {
        let mut rep = EdgeReputation::new(3);
        rep.record_drop(NodeId(1));
        assert!((rep.score(NodeId(1)) - 0.5).abs() < f64::EPSILON);
        assert!(!rep.is_suppressed(NodeId(1)), "one strike is not enough");
        rep.record_timeout(NodeId(1));
        assert!((rep.score(NodeId(1)) - 1.0 / 3.0).abs() < f64::EPSILON);
        assert!(rep.is_suppressed(NodeId(1)), "two strikes suppress");
        assert_eq!(rep.snapshot_entries(), vec![(1, 1, 1, false)]);
    }

    #[test]
    fn whitewash_drops_the_entry_so_the_relay_reads_clean() {
        let mut rep = EdgeReputation::new(4);
        rep.record_drop(NodeId(1));
        rep.record_timeout(NodeId(1));
        rep.flag_cheater(NodeId(1));
        rep.record_drop(NodeId(3));
        assert!(rep.is_suppressed(NodeId(1)));

        rep.whitewash(NodeId(1));
        // The fresh identity reads clean; other relays keep their entries.
        assert_eq!(rep.score(NodeId(1)), 1.0);
        assert!(!rep.is_suppressed(NodeId(1)));
        assert_eq!(rep.snapshot_entries(), vec![(3, 1, 0, false)]);
        assert_eq!(rep, EdgeReputation::from_snapshot(4, &[(3, 1, 0, false)]));

        // Whitewashing a never-observed relay changes nothing.
        rep.whitewash(NodeId(2));
        assert_eq!(rep.snapshot_entries(), vec![(3, 1, 0, false)]);
    }

    #[test]
    fn cheat_flag_zeroes_and_suppresses_immediately() {
        let mut rep = EdgeReputation::new(3);
        rep.flag_cheater(NodeId(2));
        assert_eq!(rep.score(NodeId(2)), 0.0);
        assert!(rep.is_suppressed(NodeId(2)));
        assert_eq!(
            rep.snapshot_entries(),
            vec![(2, 0, 0, true)],
            "flags are not fault counts"
        );
    }
}
