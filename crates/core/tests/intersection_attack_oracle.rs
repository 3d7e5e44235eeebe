//! Intersection-attack oracle suite.
//!
//! Drives [`IntersectionAttack::observe`] and the suite's own model of the
//! attack through the same seeded sequences of observations. The model is
//! the explicit-set intersection: each observation builds the set of pool
//! members active at that moment and intersects the candidates with it.
//! `observe` instead scans the pool only on the first observation and then
//! filters the candidates it already holds. The suite asserts that both
//! read the same after every observation: the candidate set, the
//! observation count, `exposed`, and the snapshot export.
//!
//! 256 seeded cases randomize the universe, the pool (a subset of the
//! universe, like the good nodes of a run), the number of observations
//! and each node's chance to be active. Each case also round-trips the
//! attack through `snapshot_state` → `from_snapshot` at a seeded point in
//! the sequence, before or after any observation. Over all cases the
//! suite checks that it met a candidate that went down and came back, an
//! intersection that became empty, and an exposure.

use std::cell::Cell;
use std::collections::BTreeSet;

use idpa_core::adversary::IntersectionAttack;
use idpa_desim::rng::Xoshiro256StarStar;
use idpa_overlay::NodeId;
use rand::RngExt;

/// The explicit-set model: `None` before any observation, then the
/// intersection of every observed active set.
#[derive(Default)]
struct Model {
    candidates: Option<BTreeSet<usize>>,
    observations: u32,
}

impl Model {
    fn observe(&mut self, pool: &[usize], active: &BTreeSet<usize>) {
        self.observations += 1;
        let seen: BTreeSet<usize> = pool
            .iter()
            .copied()
            .filter(|n| active.contains(n))
            .collect();
        self.candidates = Some(match self.candidates.take() {
            None => seen,
            Some(c) => c.intersection(&seen).copied().collect(),
        });
    }

    fn snapshot(&self) -> (u32, Option<Vec<NodeId>>) {
        (
            self.observations,
            self.candidates
                .as_ref()
                .map(|c| c.iter().map(|&n| NodeId(n)).collect()),
        )
    }
}

fn assert_matches(atk: &IntersectionAttack, model: &Model, case: u64, step: usize) {
    let got: Option<BTreeSet<usize>> = atk
        .candidates()
        .map(|c| c.iter().map(|n| n.index()).collect());
    assert_eq!(got, model.candidates, "case {case} step {step}: candidates");
    assert_eq!(
        atk.observations(),
        model.observations,
        "case {case} step {step}: observations"
    );
    let model_count = model.candidates.as_ref().map_or(usize::MAX, BTreeSet::len);
    assert_eq!(
        atk.candidate_count(),
        model_count,
        "case {case} step {step}: count"
    );
    assert_eq!(
        atk.exposed(),
        model_count == 1,
        "case {case} step {step}: exposed"
    );
    assert_eq!(
        atk.snapshot_state(),
        model.snapshot(),
        "case {case} step {step}: snapshot"
    );
}

#[test]
fn filtered_observations_agree_with_explicit_set_intersection() {
    const CASES: u64 = 256;
    let mut came_back = 0u32;
    let mut emptied = 0u32;
    let mut exposed = 0u32;
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xa77a_c000 ^ case);
        let universe = rng.random_range(2..48usize);
        let pool: Vec<usize> = (0..universe)
            .filter(|_| rng.random_range(0..10u32) < 8)
            .collect();
        let steps = rng.random_range(1..14usize);
        let up_percent = rng.random_range(40..98u32);
        let actives: Vec<BTreeSet<usize>> = (0..steps)
            .map(|_| {
                (0..universe)
                    .filter(|_| rng.random_range(0..100u32) < up_percent)
                    .collect()
            })
            .collect();
        let round_trip_at = rng.random_range(0..=steps);

        let mut atk = IntersectionAttack::new();
        let mut model = Model::default();
        assert_matches(&atk, &model, case, 0);
        for (step, active) in actives.iter().enumerate() {
            if step == round_trip_at {
                let (observations, candidates) = atk.snapshot_state();
                atk = IntersectionAttack::from_snapshot(observations, candidates);
                assert_matches(&atk, &model, case, step);
            }
            let before = atk.candidate_count();
            let pool_reads = Cell::new(0usize);
            let activity_reads = Cell::new(0usize);
            atk.observe(
                pool.iter().map(|&n| {
                    pool_reads.set(pool_reads.get() + 1);
                    NodeId(n)
                }),
                |n| {
                    activity_reads.set(activity_reads.get() + 1);
                    active.contains(&n.index())
                },
            );
            model.observe(&pool, active);
            assert_matches(&atk, &model, case, step + 1);
            if step == 0 {
                assert_eq!(pool_reads.get(), pool.len(), "case {case}: first scan");
            } else {
                // Later observations read only the candidates held.
                assert_eq!(pool_reads.get(), 0, "case {case} step {step}: pool read");
                assert_eq!(activity_reads.get(), before, "case {case} step {step}");
            }
            if step > 0 && before > 0 && model.candidates.as_ref().is_some_and(BTreeSet::is_empty) {
                emptied += 1;
            }
        }
        if steps == round_trip_at {
            let (observations, candidates) = atk.snapshot_state();
            atk = IntersectionAttack::from_snapshot(observations, candidates);
            assert_matches(&atk, &model, case, steps);
        }
        if atk.exposed() {
            exposed += 1;
        }
        // A candidate (active at every observation before `j`) that is
        // down at observation `j` and active again after it: the model
        // eliminated it for good, and the suite checked `observe` did too.
        came_back += pool
            .iter()
            .filter(|n| {
                (1..steps).any(|j| {
                    actives[..j].iter().all(|a| a.contains(n))
                        && !actives[j].contains(n)
                        && actives[j + 1..].iter().any(|a| a.contains(n))
                })
            })
            .count() as u32;
    }
    assert!(came_back > 0, "no candidate went down and came back");
    assert!(emptied > 0, "no intersection became empty");
    assert!(exposed > 0, "no case ended exposed");
}
