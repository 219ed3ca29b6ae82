//! Packed-vs-unpacked equivalence (ISSUE 3 tentpole guarantee, extended to
//! the step-driven executor of ISSUE 4).
//!
//! The packed, word-parallel engine (`rpc_engine::Simulation`) and the
//! unpacked reference oracle (`rpc_engine::reference::UnpackedSimulation`)
//! must be observationally identical: for any `(scenario, seed)` both produce
//! the same [`ScenarioOutcome`] *and* the same per-round [`ScenarioTrace`].
//! Every protocol — push-pull and the phase-based fast-gossiping and
//! memory-model algorithms — is stepped one round at a time, so the traces
//! now carry a row per round for all of them. This file asserts equivalence
//!
//! 1. for every scenario in the 17-entry registry (all three protocols under
//!    complete/rounds/coverage stop rules, churn/loss/crash environments,
//!    plus the hostile dimensions — failure zones, loss bursts, edge churn
//!    and Byzantine senders), at several seeds and for one and several
//!    delivery worker threads;
//! 2. property-based, for randomized scenarios drawn across topology,
//!    protocol, environment and stop-rule space — the stop-rule dimension
//!    covers the phase-based protocols too.

use proptest::prelude::*;

use rpc_scenarios::prelude::*;
use rpc_scenarios::registry;
use rpc_scenarios::{run_scenario_unpacked, run_scenario_unpacked_traced};

#[test]
fn every_registry_scenario_traces_identically_on_both_engines() {
    for scenario in registry::builtin(64) {
        for seed in [1u64, 7, 42] {
            let (unpacked, unpacked_trace) = run_scenario_unpacked_traced(&scenario, seed);
            for threads in [1usize, 3] {
                let (packed, packed_trace) = run_scenario_traced(&scenario, seed, threads);
                assert_eq!(
                    packed, unpacked,
                    "outcome diverged for {} (seed {seed}, {threads} threads)",
                    scenario.name
                );
                assert_eq!(
                    packed_trace, unpacked_trace,
                    "trace diverged for {} (seed {seed}, {threads} threads)",
                    scenario.name
                );
            }
            // Every protocol is step-driven: one row per round plus the
            // final stop-rule evaluation.
            assert_eq!(
                unpacked_trace.rounds.len() as u64,
                unpacked.rounds + 1,
                "{} trace rows do not match its rounds",
                scenario.name
            );
        }
    }
}

/// A degree that keeps an `n`-node random-regular graph well-formed.
fn regular_degree(n: usize, wanted: usize) -> usize {
    let mut d = wanted.clamp(2, n - 1);
    if n % 2 == 1 && d % 2 == 1 {
        d += 1;
    }
    d.min(n - 1)
}

fn topology_strategy() -> impl Strategy<Value = TopologySpec> {
    (24usize..100, 0u8..4, 4usize..12).prop_map(|(n, kind, degree)| match kind {
        0 => TopologySpec::ErdosRenyiPaper { n },
        1 => TopologySpec::ErdosRenyiDegree { n, degree: degree as f64 },
        2 => TopologySpec::RandomRegular { n, degree: regular_degree(n, degree) },
        _ => TopologySpec::Complete { n },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random push-pull scenarios across the whole environment and stop-rule
    /// space: packed and unpacked traces must be identical.
    #[test]
    fn random_push_pull_scenarios_trace_identically(
        topology in topology_strategy(),
        seed in 0u64..10_000,
        loss in 0.0f64..0.4,
        churn in proptest::option::of((0.02f64..0.3, 2u64..5, 2u64..8)),
        crash in proptest::option::of((0u64..6, 1usize..16)),
        placement in 0u8..3,
        stop in 0u8..3,
        coverage in 0.3f64..1.0,
        budget in 1u64..40,
        threads in 1usize..4,
    ) {
        let mut builder = Scenario::builder("prop-pp", topology)
            .loss(loss)
            .placement(match placement {
                0 => StartPlacement::Random,
                1 => StartPlacement::MinDegree,
                _ => StartPlacement::MaxDegree,
            })
            .stop(match stop {
                0 => StopRule::Complete,
                1 => StopRule::Rounds(budget),
                _ => StopRule::Coverage(coverage),
            });
        if let Some((fraction, period, downtime)) = churn {
            builder = builder.churn(fraction, period, downtime);
        }
        if let Some((round, count)) = crash {
            builder = builder.crash(round, count);
        }
        let scenario = builder.build().unwrap();
        let (packed, packed_trace) = run_scenario_traced(&scenario, seed, threads);
        let (unpacked, unpacked_trace) = run_scenario_unpacked_traced(&scenario, seed);
        prop_assert_eq!(&packed, &unpacked);
        prop_assert_eq!(packed_trace, unpacked_trace);
        // The untraced entry points agree with the traced ones.
        prop_assert_eq!(&run_scenario(&scenario, seed, threads), &packed);
        prop_assert_eq!(&run_scenario_unpacked(&scenario, seed), &unpacked);
    }

    /// Random phase-based (fast-gossiping, optionally tuned, / memory)
    /// scenarios under hostile environments and **all three stop rules**:
    /// outcomes, per-round traces and phase traces must be identical on both
    /// engines.
    #[test]
    fn random_phase_scenarios_trace_identically(
        n in 24usize..80,
        protocol_pick in 0u8..2,
        seed in 0u64..10_000,
        loss in 0.0f64..0.2,
        crash in proptest::option::of((0u64..4, 1usize..10)),
        churn in proptest::option::of((0.02f64..0.2, 2u64..5, 2u64..6)),
        stop in 0u8..3,
        coverage in 0.3f64..1.0,
        budget in 1u64..60,
        tuning in proptest::option::of((0.25f64..8.0, 1usize..5)),
    ) {
        let protocol = if protocol_pick == 0 {
            ProtocolSpec::FastGossiping
        } else {
            ProtocolSpec::Memory
        };
        let mut builder = Scenario::builder("prop-phase", TopologySpec::ErdosRenyiPaper { n })
            .protocol(protocol)
            .loss(loss)
            .stop(match stop {
                0 => StopRule::Complete,
                1 => StopRule::Rounds(budget),
                _ => StopRule::Coverage(coverage),
            });
        if let Some((round, count)) = crash {
            builder = builder.crash(round, count);
        }
        if let Some((fraction, period, downtime)) = churn {
            builder = builder.churn(fraction, period, downtime);
        }
        if let (ProtocolSpec::FastGossiping, Some((factor, steps))) = (protocol, tuning) {
            builder = builder.fast_tuning(factor, steps);
        }
        let scenario = builder.build().unwrap();
        let (packed, packed_trace) = run_scenario_traced(&scenario, seed, 2);
        let (unpacked, unpacked_trace) = run_scenario_unpacked_traced(&scenario, seed);
        prop_assert_eq!(&packed, &unpacked);
        prop_assert_eq!(&packed_trace, &unpacked_trace);
        prop_assert!(!packed.phases.is_empty(), "phase protocols must mark phases");
        // The step-driven executor records one row per round plus the final
        // stop-rule evaluation, for phase protocols too.
        prop_assert_eq!(packed_trace.rounds.len() as u64, packed.rounds + 1);
        // A round budget within the schedule is spent exactly.
        if let StopRule::Rounds(r) = scenario.stop {
            prop_assert!(packed.rounds <= r);
            if packed.stopped_by == StoppedBy::RoundBudget {
                prop_assert_eq!(packed.rounds, r);
            }
        }
    }
}
