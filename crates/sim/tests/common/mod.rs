//! Helpers shared by the integration suites: the result fingerprint and
//! the pinned baseline it is checked against, plus the base scenario
//! those pins were captured on.

// Each suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use idpa_sim::{RunResult, ScenarioConfig, SimulationRun};

/// FNV-1a over the pre-fault-layer result fields (bit patterns), so
/// "equal" means equal to the last bit. The fault, adversary, durability
/// and resident-state metrics are deliberately excluded: the constant pins
/// the legacy surface, and evicting runs must reproduce it unchanged.
pub fn fingerprint(r: &RunResult) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for v in r
        .good_payoffs
        .iter()
        .chain(&r.malicious_payoffs)
        .chain(&r.node_totals)
        .chain([
            &r.avg_good_payoff,
            &r.avg_forwarder_set,
            &r.avg_path_length,
            &r.avg_path_quality,
            &r.routing_efficiency,
            &r.new_edge_fraction,
            &r.reformation_rate,
            &r.attack_exposure_rate,
            &r.avg_anonymity_degree,
        ])
    {
        eat(v.to_bits());
    }
    eat(r.connections);
    h
}

/// `(seed, replacement, fingerprint, avg_good_payoff bits)` of
/// [`base`]`(seed, replacement)`. Every suite checks its own axis
/// (eviction, resume, zero-rate layers) against this one table,
/// so a deliberate change to what a run computes re-pins it here.
pub const BASELINE: [(u64, Option<u64>, u64, u64); 6] = [
    (1, None, 0x80794479fe21664f, 0x4070d2bb55c06c81),
    (1, Some(3), 0xcca2509736d36ccf, 0x40738904e7d61dc0),
    (7, None, 0xc6028866140949cc, 0x406fa51827042c08),
    (7, Some(3), 0x929d88a8f68fc10e, 0x40729ee29ee703d4),
    (42, None, 0x307f6848851574d2, 0x407a9dc3a1fb97b0),
    (42, Some(3), 0x9c000259ee37c978, 0x4070d75f75113009),
];

/// The scenario the [`BASELINE`] pins were captured on.
pub fn base(seed: u64, replacement: Option<u64>) -> ScenarioConfig {
    ScenarioConfig {
        neighbor_replacement_rounds: replacement,
        adversary_fraction: 0.2,
        ..ScenarioConfig::quick_test(seed)
    }
}

/// Zeroes the resident-state metrics — the only fields idle eviction is
/// *allowed* to change.
pub fn normalized(mut r: RunResult) -> RunResult {
    r.peak_materialized_nodes = 0;
    r.node_evictions = 0;
    r.slab_bytes = 0;
    r
}

/// Validates and executes one scenario.
pub fn run(cfg: ScenarioConfig) -> RunResult {
    cfg.validate().expect("scenario must be valid");
    SimulationRun::execute(cfg)
}
