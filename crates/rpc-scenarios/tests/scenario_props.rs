//! Property tests for the scenario engine (ISSUE 2 satellite):
//!
//! 1. churn/loss scenarios are deterministic in `(seed, threads)` — one
//!    worker and four workers produce the same outcome, both for a single
//!    replication and for a fixed-policy sweep over a list of scenarios;
//! 2. a dead (churned-out) node never sends or receives a packet.

use proptest::prelude::*;

use rpc_engine::{Engine, Simulation, Transfer};
use rpc_graphs::prelude::*;
use rpc_scenarios::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn churn_loss_outcomes_are_deterministic_in_seed_and_threads(
        seed in 0u64..10_000,
        loss in 0.0f64..0.5,
        churn_fraction in 0.0f64..0.3,
    ) {
        let scenario = Scenario::builder("prop", TopologySpec::ErdosRenyiPaper { n: 192 })
            .loss(loss)
            .churn(churn_fraction, 3, 5)
            .build()
            .unwrap();
        let single = run_scenario(&scenario, seed, 1);
        let multi = run_scenario(&scenario, seed, 4);
        prop_assert_eq!(&single, &multi);
        // And rerunning with the same seed reproduces the outcome exactly.
        prop_assert_eq!(&single, &run_scenario(&scenario, seed, 1));
    }

    #[test]
    fn sweep_reports_are_identical_for_one_and_four_threads(seed in 0u64..10_000) {
        let scenarios = [
            Scenario::builder("churny", TopologySpec::ErdosRenyiPaper { n: 128 })
                .churn(0.15, 2, 4)
                .build()
                .unwrap(),
            Scenario::builder("lossy", TopologySpec::ErdosRenyiPaper { n: 128 })
                .loss(0.3)
                .build()
                .unwrap(),
        ];
        let mut spec = SweepSpec::new("batch", seed, RepPolicy::fixed(3));
        for scenario in scenarios {
            let axes = vec![("scenario".to_string(), scenario.name.clone())];
            spec.push_cell(axes, CellJob::scenario(scenario)).unwrap();
        }
        let one = SweepRunner::new().with_threads(1).run(&spec);
        let four = SweepRunner::new().with_threads(4).run(&spec);
        prop_assert_eq!(one.cells.len(), 2);
        prop_assert!(one.cells.iter().all(|cell| cell.reps == 3));
        prop_assert_eq!(one, four);
    }

    #[test]
    fn dead_nodes_never_send_or_receive(
        seed in 0u64..10_000,
        victim in 0u32..64,
        warmup in 1usize..4,
    ) {
        let graph = ErdosRenyi::with_expected_degree(64, 12.0).generate(seed);
        let mut sim = Simulation::new(&graph, seed).with_loss_probability(0.1);
        let drive_round = |sim: &mut Simulation<'_>| {
            let mut transfers = Vec::new();
            for v in 0..64u32 {
                if let Some(u) = sim.open_channel(v) {
                    transfers.push(Transfer::new(v, u));
                    transfers.push(Transfer::new(u, v));
                }
            }
            sim.deliver(&transfers);
            sim.metrics_mut().finish_round();
        };
        for _ in 0..warmup {
            drive_round(&mut sim);
        }
        sim.kill_nodes(&[victim]);
        let packets_before = sim.metrics().packets_per_node()[victim as usize];
        let known_before = sim.num_known(victim);
        let state_before = sim.state(victim).clone();
        for _ in 0..8 {
            drive_round(&mut sim);
        }
        // While dead: no packet sent, nothing received or stored.
        prop_assert_eq!(sim.metrics().packets_per_node()[victim as usize], packets_before);
        prop_assert_eq!(sim.num_known(victim), known_before);
        prop_assert_eq!(sim.state(victim), &state_before);
    }
}
