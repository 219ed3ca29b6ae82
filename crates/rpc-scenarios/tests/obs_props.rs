//! Observer-attachment determinism: the zero-cost contract's observable half.
//!
//! Attaching any observer — a [`ScenarioTrace`], or a trace together with the
//! full JSON-lines [`TraceWriter`] — to a scenario run must leave the outcome
//! bit-identical to the no-op observed run, for every registry scenario and
//! any thread count, and both traces must agree row for row. Observers are
//! write-only sinks; nothing they do (formatting, I/O, buffering) may flow
//! back into the seeded computation.

use proptest::prelude::*;

use rpc_obs::{parse_object, NoopObserver, TraceWriter};
use rpc_scenarios::registry;
use rpc_scenarios::{
    run_scenario_observed_in, run_scenario_traced, RoundTrace, ScenarioArena, ScenarioTrace,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every registry scenario: the outcome with a trace attached, and
    /// with a trace plus the JSON-lines observer attached, equal the no-op
    /// observer's — across thread counts. The two traces are equal, and the
    /// JSON-lines stream carries one `round` line per trace row.
    #[test]
    fn observed_runs_are_bit_identical_to_unobserved(
        scenario_pick in 0usize..registry::BUILTIN_NAMES.len(),
        n in 48usize..96,
        seed in 0u64..10_000,
        threads in 1usize..5,
    ) {
        let scenario = registry::builtin(n)
            .into_iter()
            .nth(scenario_pick)
            .expect("registry index in range");

        let noop = run_scenario_observed_in(
            &mut ScenarioArena::default(),
            &scenario,
            seed,
            threads,
            &mut NoopObserver,
        );

        let (traced, trace) = run_scenario_traced(&scenario, seed, threads);
        prop_assert_eq!(&noop, &traced, "trace observer perturbed the run");

        let mut written_trace = ScenarioTrace::default();
        let mut writer = TraceWriter::new(Vec::new());
        let written = run_scenario_observed_in(
            &mut ScenarioArena::default(),
            &scenario,
            seed,
            threads,
            &mut (&mut written_trace, &mut writer),
        );
        prop_assert_eq!(&noop, &written, "JSON-lines observer perturbed the run");
        prop_assert_eq!(&trace, &written_trace);

        // The emitted stream is well-formed flat JSON lines, and a run
        // always emits at least the per-round and run-finished events.
        let bytes = writer.finish().expect("in-memory trace cannot fail");
        let text = String::from_utf8(bytes).expect("traces are UTF-8");
        let mut kinds = Vec::new();
        let mut round_rows = Vec::new();
        for line in text.lines() {
            let fields = parse_object(line)
                .unwrap_or_else(|| panic!("unparseable trace line: {line}"));
            let field = |name: &str| {
                fields.iter().find(|(k, _)| k == name).map(|(_, v)| v).unwrap_or_else(|| {
                    panic!("trace line lacks {name}: {line}")
                })
            };
            let kind = field("ev").as_str().expect("every event carries its kind");
            if kind == "round" {
                let num = |name: &str| field(name).as_u64().expect("round counters are numbers");
                round_rows.push(RoundTrace {
                    round: num("round"),
                    fully_informed: num("fully_informed") as usize,
                    tracked_informed: num("tracked_informed") as usize,
                    packets: num("packets"),
                });
            }
            kinds.push(kind.to_string());
        }
        prop_assert_eq!(&round_rows, &trace.rounds, "one round line per trace row");
        prop_assert!(kinds.iter().any(|k| k == "run-finished"));
        prop_assert!(kinds.iter().any(|k| k == "pool"));
    }
}
