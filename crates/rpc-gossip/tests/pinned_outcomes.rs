//! Exact outcomes of the convenience entry points at fixed seeds.
//!
//! The robustness runs behind Figures 2, 3 and 5
//! ([`MemoryGossip::run_with_failures`]) and the run-to-completion
//! [`GossipAlgorithm::run`] of the three gossiping protocols are pinned field
//! by field: rounds, packets, exchanges, channels, lost and failed nodes, and
//! every phase snapshot. Any change to how the protocol drivers execute their
//! rounds, or to how these entry points step them, shows up here as a
//! mismatching line.

use std::fmt::Write as _;

use rpc_gossip::prelude::*;
use rpc_graphs::prelude::*;

/// Every field of an outcome on one line, phase snapshots as
/// `label@rounds/packets/exchanges/channels`.
fn render(o: &GossipOutcome) -> String {
    let mut line = format!(
        "completed={} rounds={} packets={} exchanges={} channels={} max_node_packets={} \
         informed={} lost={} failed={}",
        o.completed(),
        o.rounds(),
        o.total_packets(),
        o.total_exchanges(),
        o.channels_opened(),
        o.max_packets_per_node(),
        o.fully_informed(),
        o.lost_messages(),
        o.failed_nodes(),
    );
    for p in o.phases() {
        write!(
            line,
            " {}@{}/{}/{}/{}",
            p.label, p.rounds, p.packets, p.exchanges, p.channels_opened
        )
        .expect("string write is infallible");
    }
    line
}

#[test]
fn memory_runs_with_failures_are_pinned() {
    // `n - 1` fails every node but the leader; `n + 5` asks for more than
    // exist and is capped to the same set.
    let mut actual = Vec::new();
    for n in [256usize, 1024] {
        let graph = ErdosRenyi::paper_density(n).generate(1);
        for trees in [1usize, 3] {
            let alg = MemoryGossip::new(MemoryGossipConfig::paper_defaults(n).with_trees(trees));
            for failures in [0, 32, n - 1, n + 5] {
                for seed in [11u64, 12] {
                    let outcome = alg.run_with_failures(&graph, seed, failures);
                    actual.push(format!(
                        "n={n} trees={trees} failures={failures} seed={seed} {}",
                        render(&outcome)
                    ));
                }
            }
        }
    }
    assert_eq!(actual, MEMORY_WITH_FAILURES);
}

#[test]
fn memory_runs_without_trees_are_pinned() {
    // `trees` is a public field, so a hand-built configuration can skip
    // Phases I and II entirely: the leader is drawn, the failures land, and
    // no round runs.
    let n = 256;
    let graph = ErdosRenyi::paper_density(n).generate(1);
    let config = MemoryGossipConfig { trees: 0, ..MemoryGossipConfig::paper_defaults(n) };
    let actual: Vec<String> = [0usize, 32]
        .into_iter()
        .map(|failures| {
            let outcome = MemoryGossip::new(config).run_with_failures(&graph, 11, failures);
            format!("failures={failures} {}", render(&outcome))
        })
        .collect();
    assert_eq!(actual, MEMORY_WITHOUT_TREES);
}

#[test]
fn runs_to_completion_are_pinned() {
    let mut actual = Vec::new();
    for n in [128usize, 1024] {
        let graph = ErdosRenyi::paper_density(n).generate(3);
        let algorithms: Vec<Box<dyn GossipAlgorithm>> = vec![
            Box::new(PushPullGossip::default()),
            Box::new(FastGossiping::paper(n)),
            Box::new(MemoryGossip::paper(n)),
        ];
        for algorithm in &algorithms {
            let outcome = algorithm.run(&graph, 5);
            actual.push(format!("n={n} {} {}", algorithm.name(), render(&outcome)));
        }
    }
    assert_eq!(actual, RUNS_TO_COMPLETION);
}

/// `MemoryGossip::run_with_failures` on `G(n, log² n / n)` (graph seed 1).
const MEMORY_WITH_FAILURES: &[&str] = &[
    "n=256 trees=1 failures=0 seed=11 completed=true rounds=44 packets=826 exchanges=826 \
     channels=862 max_node_packets=10 informed=1 lost=0 failed=0 phase1-trees@22/354/354/390 \
     phase2-gather@44/826/826/862",
    "n=256 trees=1 failures=0 seed=12 completed=true rounds=44 packets=885 exchanges=885 \
     channels=922 max_node_packets=12 informed=1 lost=0 failed=0 phase1-trees@22/376/376/413 \
     phase2-gather@44/885/885/922",
    "n=256 trees=1 failures=32 seed=11 completed=false rounds=44 packets=724 exchanges=724 \
     channels=807 max_node_packets=9 informed=0 lost=28 failed=32 phase1-trees@22/354/354/390 \
     phase2-gather@44/724/724/807",
    "n=256 trees=1 failures=32 seed=12 completed=false rounds=44 packets=785 exchanges=785 \
     channels=877 max_node_packets=12 informed=0 lost=52 failed=32 phase1-trees@22/376/376/413 \
     phase2-gather@44/785/785/877",
    "n=256 trees=1 failures=255 seed=11 completed=true rounds=44 packets=354 exchanges=354 \
     channels=394 max_node_packets=6 informed=0 lost=0 failed=255 phase1-trees@22/354/354/390 \
     phase2-gather@44/354/354/394",
    "n=256 trees=1 failures=255 seed=12 completed=true rounds=44 packets=376 exchanges=376 \
     channels=417 max_node_packets=6 informed=0 lost=0 failed=255 phase1-trees@22/376/376/413 \
     phase2-gather@44/376/376/417",
    "n=256 trees=1 failures=261 seed=11 completed=true rounds=44 packets=354 exchanges=354 \
     channels=394 max_node_packets=6 informed=0 lost=0 failed=255 phase1-trees@22/354/354/390 \
     phase2-gather@44/354/354/394",
    "n=256 trees=1 failures=261 seed=12 completed=true rounds=44 packets=376 exchanges=376 \
     channels=417 max_node_packets=6 informed=0 lost=0 failed=255 phase1-trees@22/376/376/413 \
     phase2-gather@44/376/376/417",
    "n=256 trees=3 failures=0 seed=11 completed=true rounds=132 packets=2527 exchanges=2527 \
     channels=2655 max_node_packets=27 informed=37 lost=0 failed=0 \
     phase1-trees@66/1065/1065/1193 phase2-gather@132/2527/2527/2655",
    "n=256 trees=3 failures=0 seed=12 completed=true rounds=132 packets=2619 exchanges=2619 \
     channels=2719 max_node_packets=25 informed=25 lost=0 failed=0 \
     phase1-trees@66/1125/1125/1225 phase2-gather@132/2619/2619/2719",
    "n=256 trees=3 failures=32 seed=11 completed=true rounds=132 packets=2226 exchanges=2226 \
     channels=2478 max_node_packets=26 informed=0 lost=0 failed=32 \
     phase1-trees@66/1065/1065/1193 phase2-gather@132/2226/2226/2478",
    "n=256 trees=3 failures=32 seed=12 completed=true rounds=132 packets=2296 exchanges=2296 \
     channels=2530 max_node_packets=24 informed=0 lost=0 failed=32 \
     phase1-trees@66/1125/1125/1225 phase2-gather@132/2296/2296/2530",
    "n=256 trees=3 failures=255 seed=11 completed=true rounds=132 packets=1065 exchanges=1065 \
     channels=1205 max_node_packets=17 informed=0 lost=0 failed=255 \
     phase1-trees@66/1065/1065/1193 phase2-gather@132/1065/1065/1205",
    "n=256 trees=3 failures=255 seed=12 completed=true rounds=132 packets=1125 exchanges=1125 \
     channels=1237 max_node_packets=14 informed=0 lost=0 failed=255 \
     phase1-trees@66/1125/1125/1225 phase2-gather@132/1125/1125/1237",
    "n=256 trees=3 failures=261 seed=11 completed=true rounds=132 packets=1065 exchanges=1065 \
     channels=1205 max_node_packets=17 informed=0 lost=0 failed=255 \
     phase1-trees@66/1065/1065/1193 phase2-gather@132/1065/1065/1205",
    "n=256 trees=3 failures=261 seed=12 completed=true rounds=132 packets=1125 exchanges=1125 \
     channels=1237 max_node_packets=14 informed=0 lost=0 failed=255 \
     phase1-trees@66/1125/1125/1225 phase2-gather@132/1125/1125/1237",
    "n=1024 trees=1 failures=0 seed=11 completed=true rounds=52 packets=3401 exchanges=3401 \
     channels=3543 max_node_packets=13 informed=1 lost=0 failed=0 phase1-trees@26/1453/1453/1595 \
     phase2-gather@52/3401/3401/3543",
    "n=1024 trees=1 failures=0 seed=12 completed=true rounds=52 packets=3472 exchanges=3472 \
     channels=3604 max_node_packets=13 informed=1 lost=0 failed=0 phase1-trees@26/1492/1492/1624 \
     phase2-gather@52/3472/3472/3604",
    "n=1024 trees=1 failures=32 seed=11 completed=false rounds=52 packets=3309 exchanges=3309 \
     channels=3500 max_node_packets=13 informed=0 lost=24 failed=32 \
     phase1-trees@26/1453/1453/1595 phase2-gather@52/3309/3309/3500",
    "n=1024 trees=1 failures=32 seed=12 completed=false rounds=52 packets=3375 exchanges=3375 \
     channels=3552 max_node_packets=13 informed=0 lost=28 failed=32 \
     phase1-trees@26/1492/1492/1624 phase2-gather@52/3375/3375/3552",
    "n=1024 trees=1 failures=1023 seed=11 completed=true rounds=52 packets=1453 exchanges=1453 \
     channels=1599 max_node_packets=7 informed=0 lost=0 failed=1023 \
     phase1-trees@26/1453/1453/1595 phase2-gather@52/1453/1453/1599",
    "n=1024 trees=1 failures=1023 seed=12 completed=true rounds=52 packets=1492 exchanges=1492 \
     channels=1628 max_node_packets=7 informed=0 lost=0 failed=1023 \
     phase1-trees@26/1492/1492/1624 phase2-gather@52/1492/1492/1628",
    "n=1024 trees=1 failures=1029 seed=11 completed=true rounds=52 packets=1453 exchanges=1453 \
     channels=1599 max_node_packets=7 informed=0 lost=0 failed=1023 \
     phase1-trees@26/1453/1453/1595 phase2-gather@52/1453/1453/1599",
    "n=1024 trees=1 failures=1029 seed=12 completed=true rounds=52 packets=1492 exchanges=1492 \
     channels=1628 max_node_packets=7 informed=0 lost=0 failed=1023 \
     phase1-trees@26/1492/1492/1624 phase2-gather@52/1492/1492/1628",
    "n=1024 trees=3 failures=0 seed=11 completed=true rounds=156 packets=10252 exchanges=10252 \
     channels=10659 max_node_packets=26 informed=22 lost=0 failed=0 \
     phase1-trees@78/4403/4403/4810 phase2-gather@156/10252/10252/10659",
    "n=1024 trees=3 failures=0 seed=12 completed=true rounds=156 packets=10316 exchanges=10316 \
     channels=10710 max_node_packets=25 informed=27 lost=0 failed=0 \
     phase1-trees@78/4438/4438/4832 phase2-gather@156/10316/10316/10710",
    "n=1024 trees=3 failures=32 seed=11 completed=true rounds=156 packets=9888 exchanges=9888 \
     channels=10446 max_node_packets=26 informed=0 lost=0 failed=32 \
     phase1-trees@78/4403/4403/4810 phase2-gather@156/9888/9888/10446",
    "n=1024 trees=3 failures=32 seed=12 completed=true rounds=156 packets=10006 exchanges=10006 \
     channels=10532 max_node_packets=25 informed=0 lost=0 failed=32 \
     phase1-trees@78/4438/4438/4832 phase2-gather@156/10006/10006/10532",
    "n=1024 trees=3 failures=1023 seed=11 completed=true rounds=156 packets=4403 exchanges=4403 \
     channels=4822 max_node_packets=15 informed=0 lost=0 failed=1023 \
     phase1-trees@78/4403/4403/4810 phase2-gather@156/4403/4403/4822",
    "n=1024 trees=3 failures=1023 seed=12 completed=true rounds=156 packets=4438 exchanges=4438 \
     channels=4844 max_node_packets=16 informed=0 lost=0 failed=1023 \
     phase1-trees@78/4438/4438/4832 phase2-gather@156/4438/4438/4844",
    "n=1024 trees=3 failures=1029 seed=11 completed=true rounds=156 packets=4403 exchanges=4403 \
     channels=4822 max_node_packets=15 informed=0 lost=0 failed=1023 \
     phase1-trees@78/4403/4403/4810 phase2-gather@156/4403/4403/4822",
    "n=1024 trees=3 failures=1029 seed=12 completed=true rounds=156 packets=4438 exchanges=4438 \
     channels=4844 max_node_packets=16 informed=0 lost=0 failed=1023 \
     phase1-trees@78/4438/4438/4832 phase2-gather@156/4438/4438/4844",
];

/// The same with a hand-built `trees: 0` configuration at `n = 256`, seed 11.
const MEMORY_WITHOUT_TREES: &[&str] = &[
    "failures=0 completed=false rounds=0 packets=0 exchanges=0 channels=0 max_node_packets=0 \
     informed=0 lost=255 failed=0 phase1-trees@0/0/0/0 phase2-gather@0/0/0/0",
    "failures=32 completed=false rounds=0 packets=0 exchanges=0 channels=0 max_node_packets=0 \
     informed=0 lost=223 failed=32 phase1-trees@0/0/0/0 phase2-gather@0/0/0/0",
];

/// `GossipAlgorithm::run` on `G(n, log² n / n)` (graph seed 3), run seed 5.
const RUNS_TO_COMPLETION: &[&str] = &[
    "n=128 push-pull completed=true rounds=8 packets=2048 exchanges=1024 channels=1024 \
     max_node_packets=23 informed=128 lost=0 failed=0 push-pull@8/2048/1024/1024",
    "n=128 fast-gossiping completed=true rounds=29 packets=1305 exchanges=1177 channels=1177 \
     max_node_packets=21 informed=128 lost=0 failed=0 phase1-distribution@4/512/512/512 \
     phase2-random-walks@28/1049/1049/1049 phase3-broadcast@29/1305/1177/1177",
    "n=128 memory completed=true rounds=55 packets=705 exchanges=705 channels=949 \
     max_node_packets=15 informed=128 lost=0 failed=0 phase1-trees@21/278/278/281 \
     phase2-gather@42/577/577/580 phase3-broadcast@55/705/705/949",
    "n=1024 push-pull completed=true rounds=11 packets=22528 exchanges=11264 channels=11264 \
     max_node_packets=35 informed=1024 lost=0 failed=0 push-pull@11/22528/11264/11264",
    "n=1024 fast-gossiping completed=true rounds=43 packets=14025 exchanges=10953 channels=10953 \
     max_node_packets=24 informed=1024 lost=0 failed=0 phase1-distribution@4/4096/4096/4096 \
     phase2-random-walks@40/7881/7881/7881 phase3-broadcast@43/14025/10953/10953",
    "n=1024 memory completed=true rounds=71 packets=4516 exchanges=4516 channels=6928 \
     max_node_packets=17 informed=1024 lost=0 failed=0 phase1-trees@26/1473/1473/1640 \
     phase2-gather@52/3490/3490/3657 phase3-broadcast@71/4516/4516/6928",
];
