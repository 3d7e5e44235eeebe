//! Crash-aware probe invalidation — adaptive distrust of stale estimates.
//!
//! The §2.3 availability estimate `α_s(v)` is a long-run session-time
//! share derived purely from the analytic churn schedule; the probe layer
//! never observes injected faults. So when a transmission through relay
//! `v` fails in a *confirmed* way (a crash truncates `v`'s session, or a
//! payload is lost on an edge into `v`), the estimate the initiator keeps
//! routing on is known-stale — under the static response it stays in force
//! until the session-end recovery naturally washes it out.
//!
//! [`ProbeInvalidation`] is the adaptive fix: a per-node "distrust until"
//! horizon that masks the probe-derived estimate to zero availability the
//! moment the failure is confirmed, holding until fresh probe evidence
//! could have re-established the relay (one probing period past the point
//! the relay is actually reachable again).
//!
//! It is deliberately an *overlay applied on top of* probe state rather
//! than a mutation of [`crate::LazyProbeSet`] cells: a lazy cell must stay
//! a pure function of the schedules and streams so an evicted cell can be
//! rebuilt bit-identically, and masking the read path preserves that by
//! construction, where rewriting cells would have to be replayed on every
//! re-materialization too.

/// Per-node probe-estimate invalidation horizons.
///
/// All horizons are deterministic functions of confirmed simulation events,
/// so adaptive runs replay bit-identically from the master seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeInvalidation {
    /// `until[v]`: probe estimates for `v` are masked to zero availability
    /// while `now < until[v]`.
    until: Vec<f64>,
}

impl ProbeInvalidation {
    /// No distrust: every node's probe estimate is taken at face value.
    #[must_use]
    pub fn new(n_nodes: usize) -> Self {
        ProbeInvalidation {
            until: vec![0.0; n_nodes],
        }
    }

    /// Invalidates `v`'s probe estimate until the given time (minutes).
    /// Horizons only ever extend — a shorter new horizon never un-masks an
    /// earlier, longer distrust window.
    pub fn invalidate(&mut self, v: usize, until: f64) {
        if until > self.until[v] {
            self.until[v] = until;
        }
    }

    /// Clears `v`'s distrust window entirely. The one exception to
    /// "horizons only extend": a whitewash rejoin — the distrust was
    /// earned by the identity the node just shed, so the fresh identity
    /// starts untracked, exactly like a genuinely new node.
    pub fn forgive(&mut self, v: usize) {
        self.until[v] = 0.0;
    }

    /// Whether `v`'s probe estimate is currently masked.
    #[must_use]
    pub fn masked(&self, v: usize, now: f64) -> bool {
        now < self.until[v]
    }

    /// The current distrust horizon for `v` (0 when never invalidated).
    #[must_use]
    pub fn horizon(&self, v: usize) -> f64 {
        self.until[v]
    }

    /// Snapshot export: the per-node distrust horizons.
    #[must_use]
    pub fn snapshot_state(&self) -> Vec<f64> {
        self.until.clone()
    }

    /// Rebuilds the overlay from a [`ProbeInvalidation::snapshot_state`]
    /// export. Callers must have validated the vector (finite,
    /// non-negative, one entry per node) — the snapshot decoder does.
    #[must_use]
    pub fn from_snapshot(until: Vec<f64>) -> Self {
        ProbeInvalidation { until }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_overlay_masks_nothing() {
        let inv = ProbeInvalidation::new(3);
        assert!(!inv.masked(0, 0.0));
        assert!(!inv.masked(2, 1e9));
        assert!(inv.snapshot_state().iter().all(|&t| t == 0.0));
    }

    #[test]
    fn masking_holds_until_the_horizon_then_clears() {
        let mut inv = ProbeInvalidation::new(2);
        inv.invalidate(1, 30.0);
        assert!(inv.masked(1, 0.0));
        assert!(inv.masked(1, 29.999));
        assert!(!inv.masked(1, 30.0), "horizon itself is trusted again");
        assert!(!inv.masked(0, 0.0), "other nodes unaffected");
        assert_eq!(inv.snapshot_state(), [0.0, 30.0]);
    }

    #[test]
    fn horizons_only_extend() {
        let mut inv = ProbeInvalidation::new(1);
        inv.invalidate(0, 50.0);
        inv.invalidate(0, 10.0);
        assert!((inv.horizon(0) - 50.0).abs() < f64::EPSILON);
        inv.invalidate(0, 80.0);
        assert!((inv.horizon(0) - 80.0).abs() < f64::EPSILON);
    }

    #[test]
    fn forgive_clears_the_window_and_later_distrust_restarts() {
        let mut inv = ProbeInvalidation::new(2);
        inv.invalidate(0, 50.0);
        inv.forgive(0);
        assert!(!inv.masked(0, 0.0));
        assert_eq!(inv.snapshot_state(), [0.0, 0.0]);
        // The fresh identity can earn distrust again from scratch.
        inv.invalidate(0, 10.0);
        assert!((inv.horizon(0) - 10.0).abs() < f64::EPSILON);
    }
}
