//! The cost model of §2.4.1.
//!
//! * **Participation cost** `C^p`: a one-time cost per peer session ("the
//!   cost of running a software associated with a particular application
//!   for a peer session").
//! * **Transmission cost** `C^t = b·l`: payload size `b` times per-unit
//!   transmission cost `l` to the next hop. §3 adds: "We model the
//!   transmission cost between two peers as being proportional to the
//!   communication bandwidth between them" — we realise this as
//!   `l(i,j) = cost_scale / bandwidth(i,j)`, i.e. cheap links are the
//!   high-bandwidth ones, which is the reading under which a selfish peer
//!   "forwards traffic on low bandwidth links" to conserve its own access
//!   bandwidth (the Shrivastava–Banerjee behaviour the paper cites).
//!
//! The paper leaves the bandwidth distribution open; each link's
//! bandwidth is an i.i.d. uniform draw, derived on demand from a stream
//! keyed by the link, so no per-pair table is ever stored.

use idpa_desim::rng::StreamFactory;
use rand::RngExt;

/// Parameters of the cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostConfig {
    /// One-time participation cost `C^p` per peer session.
    pub participation_cost: f64,
    /// Payload size `b` (arbitrary units; the paper leaves it abstract).
    pub payload_size: f64,
    /// Lower bound of the uniform link-bandwidth distribution.
    pub bandwidth_lo: f64,
    /// Upper bound of the uniform link-bandwidth distribution.
    pub bandwidth_hi: f64,
    /// Numerator of the per-unit cost: `l(i,j) = cost_scale / bw(i,j)`.
    pub cost_scale: f64,
}

impl Default for CostConfig {
    fn default() -> Self {
        CostConfig {
            participation_cost: 5.0,
            payload_size: 1.0,
            bandwidth_lo: 1.0,
            bandwidth_hi: 10.0,
            cost_scale: 10.0,
        }
    }
}

impl CostConfig {
    /// Checks parameter ranges; returns a description of the first
    /// violation. Every parameter must be finite, so every derived cost is.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.participation_cost >= 0.0 && self.participation_cost.is_finite()) {
            return Err(format!(
                "participation_cost must be nonnegative and finite, got {}",
                self.participation_cost
            ));
        }
        for (name, v) in [
            ("payload_size", self.payload_size),
            ("cost_scale", self.cost_scale),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(format!("{name} must be positive and finite, got {v}"));
            }
        }
        if !(0.0 < self.bandwidth_lo
            && self.bandwidth_lo <= self.bandwidth_hi
            && self.bandwidth_hi.is_finite())
        {
            return Err(format!(
                "invalid bandwidth range [{}, {}] \
                 (need 0 < bandwidth_lo <= bandwidth_hi, both finite)",
                self.bandwidth_lo, self.bandwidth_hi
            ));
        }
        Ok(())
    }
}

/// Per-edge bandwidths and the costs derived from them. No matrix is
/// stored: each symmetric edge's bandwidth is the first draw of its own
/// stream (`"bandwidth/edge"` keyed by the ordered pair), re-derived on
/// every lookup. Memory is O(1) in the number of peers, and an edge's
/// value does not depend on how many peers the world has.
#[derive(Debug, Clone)]
pub struct CostModel {
    config: CostConfig,
    streams: StreamFactory,
}

impl CostModel {
    /// A model whose edge bandwidths are i.i.d. uniform in
    /// `[bandwidth_lo, bandwidth_hi]`, drawn from `streams`.
    #[must_use]
    pub fn new(config: CostConfig, streams: StreamFactory) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid cost config: {e}");
        }
        CostModel { config, streams }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &CostConfig {
        &self.config
    }

    /// Bandwidth between peers `i` and `j` (symmetric; `i != j`).
    #[must_use]
    pub fn bandwidth(&self, i: usize, j: usize) -> f64 {
        assert!(i != j, "no self-link bandwidth");
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        let mut rng = self
            .streams
            .stream_indexed2("bandwidth/edge", a as u64, b as u64);
        rng.random_range(self.config.bandwidth_lo..=self.config.bandwidth_hi)
    }

    /// Per-unit transmission cost `l(i,j) = cost_scale / bandwidth(i,j)`.
    #[must_use]
    pub fn unit_cost(&self, i: usize, j: usize) -> f64 {
        self.config.cost_scale / self.bandwidth(i, j)
    }

    /// Transmission cost `C^t(i,j) = b · l(i,j)` for one forwarding instance.
    #[must_use]
    pub fn transmission_cost(&self, i: usize, j: usize) -> f64 {
        self.config.payload_size * self.unit_cost(i, j)
    }

    /// Participation cost `C^p` (constant across peers in the base model).
    #[must_use]
    pub fn participation_cost(&self) -> f64 {
        self.config.participation_cost
    }

    /// Largest possible transmission cost under this configuration — a
    /// useful bound when choosing `P_f` to satisfy Prop. 3.
    #[must_use]
    pub fn max_transmission_cost(&self) -> f64 {
        self.config.payload_size * self.config.cost_scale / self.config.bandwidth_lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(seed: u64) -> CostModel {
        CostModel::new(CostConfig::default(), StreamFactory::new(seed))
    }

    #[test]
    fn bandwidth_is_symmetric() {
        let m = model(1);
        for i in 0..10 {
            for j in 0..10 {
                if i != j {
                    assert_eq!(m.bandwidth(i, j), m.bandwidth(j, i));
                }
            }
        }
        // Far-apart ids behave like near ones: there is no table to index.
        for (i, j) in [(3usize, 999_999usize), (500_000, 7)] {
            assert_eq!(m.bandwidth(i, j), m.bandwidth(j, i), "({i}, {j})");
        }
    }

    #[test]
    fn bandwidth_in_configured_range() {
        let m = model(2);
        let near = (0..40).flat_map(|i| ((i + 1)..40).map(move |j| (i, j)));
        for (i, j) in near.chain([(3, 999_999), (500_000, 7)]) {
            let bw = m.bandwidth(i, j);
            assert!((1.0..=10.0).contains(&bw), "bw={bw}");
        }
    }

    #[test]
    fn cost_inversely_proportional_to_bandwidth() {
        let m = model(3);
        // Find two pairs with different bandwidths; the one with more
        // bandwidth must cost less.
        let (hi_bw, lo_bw) = if m.bandwidth(0, 1) > m.bandwidth(2, 3) {
            ((0, 1), (2, 3))
        } else {
            ((2, 3), (0, 1))
        };
        assert!(m.transmission_cost(hi_bw.0, hi_bw.1) <= m.transmission_cost(lo_bw.0, lo_bw.1));
    }

    #[test]
    fn transmission_cost_scales_with_payload() {
        let cfg = CostConfig {
            payload_size: 2.0,
            ..CostConfig::default()
        };
        let m2 = CostModel::new(cfg, StreamFactory::new(4));
        let m1 = model(4);
        // Same seed => same bandwidths => exactly double cost.
        assert!((m2.transmission_cost(0, 1) - 2.0 * m1.transmission_cost(0, 1)).abs() < 1e-12);
    }

    #[test]
    fn max_transmission_cost_bounds_all_links() {
        let m = model(5);
        let bound = m.max_transmission_cost();
        for i in 0..40 {
            for j in (i + 1)..40 {
                assert!(m.transmission_cost(i, j) <= bound + 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "no self-link")]
    fn self_link_is_rejected() {
        let _ = model(6).bandwidth(3, 3);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = model(7);
        let b = model(7);
        assert_eq!(a.bandwidth(0, 5), b.bandwidth(0, 5));
        assert_eq!(a.bandwidth(3, 999_999), b.bandwidth(3, 999_999));
    }

    #[test]
    fn reads_are_position_stable() {
        let m = model(11);
        let first = m.bandwidth(4, 17);
        let _interleaved = (m.bandwidth(0, 1), m.bandwidth(98, 99));
        assert_eq!(
            m.bandwidth(4, 17),
            first,
            "lookups must not disturb each other"
        );
    }
}
