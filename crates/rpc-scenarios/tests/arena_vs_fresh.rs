//! Arena-reuse equivalence suite.
//!
//! The Monte Carlo hot path runs every repetition through a per-worker
//! [`ScenarioArena`] — reused graph buffers, reused simulation storage,
//! reused delivery pools. These tests pin the contract that makes that
//! optimization safe: for any `(scenario, seed, threads)` a dirty arena
//! produces **bit-identical** results to a fresh one — same
//! [`ScenarioOutcome`] (including `stopped_by`), same per-round
//! [`ScenarioTrace`] — no matter what the arena ran before (larger graphs,
//! smaller graphs, other protocols).

use proptest::prelude::*;

use rpc_engine::derive_seed;
use rpc_obs::NoopObserver;
use rpc_scenarios::prelude::*;
use rpc_scenarios::registry;

/// One traced run through `arena`: the trace rides along as the observer.
fn traced_in(
    arena: &mut ScenarioArena,
    scenario: &Scenario,
    seed: u64,
    threads: usize,
) -> (ScenarioOutcome, ScenarioTrace) {
    let mut trace = ScenarioTrace::default();
    let outcome = run_scenario_observed_in(arena, scenario, seed, threads, &mut trace);
    (outcome, trace)
}

/// One deterministic comparison: fresh vs arena, traced and untraced (the
/// no-op observer build sweep workers run), under the given engine thread
/// count.
fn assert_arena_equals_fresh(
    arena: &mut ScenarioArena,
    scenario: &Scenario,
    seed: u64,
    threads: usize,
) {
    let (fresh, fresh_trace) = run_scenario_traced(scenario, seed, threads);
    let (reused, reused_trace) = traced_in(arena, scenario, seed, threads);
    assert_eq!(fresh, reused, "{} seed {seed} threads {threads}: outcome", scenario.name);
    assert_eq!(fresh_trace, reused_trace, "{} seed {seed} threads {threads}: trace", scenario.name);
    let untraced = run_scenario_observed_in(arena, scenario, seed, threads, &mut NoopObserver);
    assert_eq!(fresh, untraced, "{} seed {seed} threads {threads}: untraced", scenario.name);
}

#[test]
fn every_registry_scenario_agrees_through_one_shared_arena() {
    // One arena across the whole registry: scenario sizes, topologies and
    // protocols all change under it, which is exactly a sweep worker's
    // usage pattern. Each (n, seed) input gets its own arena.
    for (n, seed) in [(96, 7), (64, 3), (64, 0xBA7C4)] {
        let mut arena = ScenarioArena::default();
        for scenario in registry::builtin(n) {
            assert_arena_equals_fresh(&mut arena, &scenario, seed, 1);
        }
    }
}

#[test]
fn short_horizon_complete_graph_cells_agree_on_every_repetition() {
    // The Monte Carlo cell where per-repetition setup dominates: K_n at
    // n = 1000 for four rounds, once per gossiping protocol. Each cell gets
    // one arena, warmed by one run as a sweep worker's first cell warms it,
    // then serves 30 seeded repetitions that must each equal a fresh run.
    const BASE: u64 = 0xBA7C4;
    for protocol in [ProtocolSpec::PushPull, ProtocolSpec::FastGossiping, ProtocolSpec::Memory] {
        let scenario = Scenario::builder(
            format!("batch-{}", protocol.name()),
            TopologySpec::Complete { n: 1000 },
        )
        .protocol(protocol)
        .stop(StopRule::Rounds(4))
        .build()
        .unwrap();
        let mut arena = ScenarioArena::default();
        let mut run_in =
            |seed| run_scenario_observed_in(&mut arena, &scenario, seed, 1, &mut NoopObserver);
        run_in(derive_seed(BASE, u64::MAX, 0));
        for rep in 0..30 {
            let seed = derive_seed(BASE, 1, rep);
            let fresh = run_scenario(&scenario, seed, 1);
            assert_eq!(fresh, run_in(seed), "{} rep {rep}", scenario.name);
        }
    }
}

#[test]
fn dirty_arena_big_small_big_sequence_agrees() {
    // A big run, then a small run, then a big run again — stale state
    // tables, pooled buffers sized for the other universe, and leftover CSR
    // capacity must never leak into a later result.
    let mut arena = ScenarioArena::default();
    let big = Scenario::builder("big", TopologySpec::ErdosRenyiPaper { n: 512 })
        .loss(0.1)
        .build()
        .unwrap();
    let small = Scenario::builder("small", TopologySpec::Complete { n: 24 })
        .stop(StopRule::Rounds(6))
        .build()
        .unwrap();
    for (scenario, seed) in [(&big, 1u64), (&small, 2), (&big, 3), (&small, 4), (&big, 5)] {
        assert_arena_equals_fresh(&mut arena, scenario, seed, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arena == fresh across the protocol × stop-rule matrix, the engine
    /// thread-count axis, and a dirty-arena size sequence: every case runs
    /// big → small → big through ONE arena and compares each leg against a
    /// fresh run.
    #[test]
    fn arena_reuse_is_bit_identical_across_protocols_and_stop_rules(
        protocol_pick in 0u8..3,
        stop_pick in 0u8..3,
        threads in 1usize..4,
        seed in 0u64..10_000,
        small_n in 24usize..64,
        big_n in 128usize..256,
    ) {
        let protocol = match protocol_pick {
            0 => ProtocolSpec::PushPull,
            1 => ProtocolSpec::FastGossiping,
            _ => ProtocolSpec::Memory,
        };
        let stop = match stop_pick {
            0 => StopRule::Complete,
            1 => StopRule::Rounds(9),
            _ => StopRule::Coverage(0.8),
        };
        let build = |name: &str, n: usize| {
            Scenario::builder(name, TopologySpec::ErdosRenyiPaper { n })
                .protocol(protocol)
                .stop(stop)
                .loss(0.05)
                .churn(0.1, 4, 6)
                .build()
                .unwrap()
        };
        let big = build("big", big_n);
        let small = build("small", small_n);
        let mut arena = ScenarioArena::default();
        for (scenario, leg) in [(&big, 0u64), (&small, 1), (&big, 2)] {
            let leg_seed = seed.wrapping_add(leg);
            let (fresh, fresh_trace) = run_scenario_traced(scenario, leg_seed, threads);
            let (reused, reused_trace) = traced_in(&mut arena, scenario, leg_seed, threads);
            prop_assert_eq!(&fresh, &reused, "leg {} outcome", leg);
            prop_assert_eq!(&fresh_trace, &reused_trace, "leg {} trace", leg);
            prop_assert_eq!(fresh.stopped_by, reused.stopped_by);
        }
    }
}
