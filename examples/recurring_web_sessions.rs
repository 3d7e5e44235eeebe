//! Recurring web sessions under an intersection attack.
//!
//! The paper's motivating application (§1, §2.1): protocols like HTTP make
//! *recurring* connections from an initiator to a fixed set of responders,
//! and every path reformation gives a passive observer another active-set
//! observation to intersect. This example models one user browsing a site
//! daily for a month through the overlay and reports how far an
//! intersection attacker narrows the candidate-initiator set under random
//! vs incentive-driven routing.
//!
//! ```text
//! cargo run --release --example recurring_web_sessions
//! ```

use idpa::core::adversary::IntersectionAttack;
use idpa::core::metrics::candidate_set_degree;
use idpa::prelude::*;
use rand::RngExt;

fn attack_outcome(strategy: RoutingStrategy, label: &str) {
    // One pair (the user and the web server), 30 recurring connections,
    // 30% of peers are colluding observers that route randomly.
    let mut cfg = ScenarioConfig {
        n_pairs: 1,
        total_transmissions: 30,
        max_connections: 30,
        adversary_fraction: 0.3,
        good_strategy: strategy,
        seed: 7,
        ..ScenarioConfig::default()
    };
    cfg.churn.horizon = 30.0 * 24.0 * 60.0; // a month of daily sessions
    cfg.warmup = 120.0;

    let world = World::generate(&cfg);
    let user = world.pairs[0].initiator;

    let result = SimulationRun::execute(cfg);

    println!("--- {label} ---");
    println!("user node ................. {user}");
    println!(
        "forwarder set ‖π‖ ......... {:.0}",
        result.avg_forwarder_set
    );
    println!("path reformation rate ..... {:.2}", result.reformation_rate);
    println!(
        "anonymity degree left ..... {:.3}  (1 = attacker learned nothing)",
        result.avg_anonymity_degree
    );
    println!(
        "initiator exposed ......... {}",
        if result.attack_exposure_rate > 0.0 {
            "YES"
        } else {
            "no"
        }
    );
    println!();
}

fn main() {
    println!("Recurring HTTP sessions: one user, one site, 30 daily visits,");
    println!("30% of peers are passive observers.\n");

    attack_outcome(RoutingStrategy::Random, "random routing (baseline)");
    attack_outcome(
        RoutingStrategy::Utility(UtilityModel::ModelI),
        "incentive-driven routing (utility model I)",
    );
    attack_outcome(
        RoutingStrategy::Utility(UtilityModel::ModelII { lookahead: 2 }),
        "incentive-driven routing (utility model II)",
    );

    // The mechanics, in miniature: each observation intersects the set of
    // currently-active nodes; fewer distinct observations leave more
    // candidates.
    println!("--- why reformations matter (toy intersection) ---");
    let mut stable = IntersectionAttack::new();
    let mut churny = IntersectionAttack::new();
    // The stable path is observed twice; the churny one ten times. In each
    // round about 70% of the network is online, drawn from a stream keyed
    // by (round, node); the user (node 0) is online for every visit.
    let streams = StreamFactory::new(7);
    let online = |round: usize| {
        let streams = streams.clone();
        move |n: NodeId| {
            n.index() == 0
                || streams
                    .stream_indexed2("toy/online", round as u64, n.index() as u64)
                    .random_range(0.0..1.0)
                    < 0.7
        }
    };
    let everyone = || (0..40).map(NodeId);
    for round in 0..2 {
        stable.observe(everyone(), online(round));
    }
    for round in 0..10 {
        churny.observe(everyone(), online(round));
    }
    println!(
        "2 observations: {} candidates (degree {:.2})",
        stable.candidate_count(),
        candidate_set_degree(stable.candidate_count().min(40), 40)
    );
    println!(
        "10 observations: {} candidates (degree {:.2})",
        churny.candidate_count(),
        candidate_set_degree(churny.candidate_count().min(40), 40)
    );
    assert!(
        churny.candidate_count() < stable.candidate_count(),
        "ten observations must narrow the set further than two"
    );
}
