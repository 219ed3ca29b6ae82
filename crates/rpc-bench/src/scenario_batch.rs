//! The tracked Monte Carlo batch baseline (`BENCH_scenario_batch.json`).
//!
//! The production workload the ROADMAP targets is *many repetitions* of a
//! scenario — coverage estimation, robustness sweeps, parameter studies —
//! where every repetition regenerates its graph and simulation state. This
//! module measures the repetition itself as the unit of work, in two modes
//! over identical seeds:
//!
//! * **fresh** — [`rpc_scenarios::run_scenario`]: every repetition allocates
//!   its graph and its simulation from scratch (the pre-ISSUE-5 path);
//! * **arena** — [`rpc_scenarios::run_scenario_observed_in`]: all
//!   repetitions run through one warmed-up [`ScenarioArena`], so graph
//!   buffers, state tables and delivery pools are reused (the sweep worker's
//!   path).
//!
//! Both modes are bit-identical by contract; the measurement loop asserts
//! the outcomes equal on **every** repetition, so a full baseline run is
//! also a large-scale equivalence check. Repetitions of the two modes are
//! interleaved with alternating order, like the round-loop baseline, so
//! host-level noise biases neither mode's median.
//!
//! The workload is a short-horizon estimation cell on the complete graph —
//! the random phone call model's classical baseline topology — under a fixed
//! round budget: the regime where per-repetition setup (adjacency
//! construction, state-table allocation) dominates and the arena path pays.
//! Erdős–Rényi cells amortize differently: their per-repetition cost is
//! dominated by the *edge sampling* itself (one `ln()` per edge, pinned by
//! the bit-identity contract), which no buffer reuse can remove — the arena
//! still wins there, but by buffer-reuse margins, not multiples.

use std::time::Instant;

use rpc_engine::derive_seed;
use rpc_obs::NoopObserver;
use rpc_scenarios::registry;
use rpc_scenarios::{
    run_scenario, run_scenario_observed_in, run_scenario_traced, ProtocolSpec, Scenario,
    ScenarioArena, ScenarioTrace, StopRule, TopologySpec,
};

/// The benchmark protocol keys (the crate-level canonical list).
pub use crate::PROTOCOLS;

/// Round budget of the benchmark cell. Four rounds is the shape of a
/// coverage-estimation repetition: enough traffic that the delivery hot path
/// matters, short enough that graph + simulation setup is a first-order cost.
pub const CELL_ROUNDS: u64 = 4;

/// Builds the benchmark scenario for one `(protocol, n)` cell.
pub fn batch_scenario(protocol: &str, n: usize) -> Scenario {
    let spec = match protocol {
        "push-pull" => ProtocolSpec::PushPull,
        "fast-gossiping" => ProtocolSpec::FastGossiping,
        "memory" => ProtocolSpec::Memory,
        other => panic!("unknown benchmark protocol: {other}"),
    };
    Scenario::builder(format!("batch-{protocol}"), TopologySpec::Complete { n })
        .protocol(spec)
        .stop(StopRule::Rounds(CELL_ROUNDS))
        .build()
        .expect("benchmark scenario must validate")
}

/// One measured mode of one `(protocol, n)` cell.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchMeasurement {
    /// Scenario name (`batch-<protocol>`).
    pub scenario: String,
    /// Protocol key (see [`PROTOCOLS`]).
    pub protocol: String,
    /// Nodes per graph.
    pub n: usize,
    /// `"fresh"` (allocate per repetition) or `"arena"` (reuse per worker).
    pub mode: &'static str,
    /// Timed repetitions.
    pub reps: usize,
    /// Median wall-clock nanoseconds per repetition.
    pub median_ns_per_rep: f64,
    /// Median repetition throughput (1e9 / ns-per-rep).
    pub reps_per_sec: f64,
}

/// Measures one cell in both modes with interleaved repetitions over
/// identical per-repetition seeds, asserting outcome equality on every
/// repetition. Returns `(fresh, arena)`.
pub fn measure_cell(
    scenario: &Scenario,
    protocol: &str,
    seed: u64,
    reps: usize,
) -> (BatchMeasurement, BatchMeasurement) {
    assert!(reps > 0, "at least one repetition is required");
    let mut arena = ScenarioArena::default();
    let mut run_in =
        |seed| run_scenario_observed_in(&mut arena, scenario, seed, 1, &mut NoopObserver);
    // One untimed warm-up so "arena" measures the steady state a sweep
    // worker reaches after its first cell.
    let _ = run_in(derive_seed(seed, u64::MAX, 0));
    let mut fresh_ns = Vec::with_capacity(reps);
    let mut arena_ns = Vec::with_capacity(reps);
    for rep in 0..reps {
        let rep_seed = derive_seed(seed, 1, rep as u64);
        // Alternate which mode goes first so slow host drift cancels.
        let fresh_first = rep % 2 == 0;
        let mut fresh_outcome = None;
        let mut arena_outcome = None;
        for pick in 0..2 {
            if (pick == 0) == fresh_first {
                let start = Instant::now();
                let outcome = run_scenario(scenario, rep_seed, 1);
                fresh_ns.push(start.elapsed().as_nanos() as f64);
                fresh_outcome = Some(outcome);
            } else {
                let start = Instant::now();
                let outcome = run_in(rep_seed);
                arena_ns.push(start.elapsed().as_nanos() as f64);
                arena_outcome = Some(outcome);
            }
        }
        assert_eq!(
            fresh_outcome, arena_outcome,
            "arena diverged from fresh: {} rep {rep}",
            scenario.name
        );
    }
    let finish = |mode: &'static str, ns: &mut Vec<f64>| {
        let median_ns = crate::median(ns);
        BatchMeasurement {
            scenario: scenario.name.clone(),
            protocol: protocol.to_string(),
            n: scenario.num_nodes(),
            mode,
            reps,
            median_ns_per_rep: median_ns,
            reps_per_sec: if median_ns == 0.0 { 0.0 } else { 1e9 / median_ns },
        }
    };
    (finish("fresh", &mut fresh_ns), finish("arena", &mut arena_ns))
}

/// The fresh-vs-arena repetition speedup for one `(protocol, n)` cell, if
/// both modes were measured.
pub fn speedup_at(results: &[BatchMeasurement], protocol: &str, n: usize) -> Option<f64> {
    let find = |mode: &str| {
        results
            .iter()
            .find(|m| m.protocol == protocol && m.n == n && m.mode == mode)
            .map(|m| m.median_ns_per_rep)
    };
    match (find("fresh"), find("arena")) {
        (Some(fresh), Some(arena)) if arena > 0.0 => Some(fresh / arena),
        _ => None,
    }
}

/// Runs the whole registry once through one arena and once fresh, comparing
/// outcome **and** per-round trace. This is the CI smoke assertion: any
/// divergence between the reuse path and the fresh path fails the job.
pub fn registry_smoke(n: usize, seed: u64) -> Result<usize, String> {
    let mut arena = ScenarioArena::default();
    let scenarios = registry::builtin(n);
    for scenario in &scenarios {
        let fresh = run_scenario_traced(scenario, seed, 1);
        let mut trace = ScenarioTrace::default();
        let reused = (run_scenario_observed_in(&mut arena, scenario, seed, 1, &mut trace), trace);
        if fresh != reused {
            return Err(format!(
                "arena path diverged from fresh path on registry scenario `{}`",
                scenario.name
            ));
        }
    }
    Ok(scenarios.len())
}

/// Renders the measurements as the `BENCH_scenario_batch.json` document
/// (hand-rolled strict JSON; the offline build has no serde).
pub fn to_json(results: &[BatchMeasurement], seed: u64) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"scenario_batch\",\n");
    out.push_str(&format!(
        "  \"description\": \"Monte Carlo repetitions of a short-horizon scenario cell \
         (complete-graph topology, stop=rounds:{CELL_ROUNDS}, engine threads=1); fresh = allocate \
         graph+simulation per repetition, arena = per-worker ScenarioArena reuse \
         (bit-identical outcomes, asserted per repetition); modes interleaved with \
         alternating order\",\n"
    ));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(
        "  \"units\": {\"median_ns_per_rep\": \"ns\", \"reps_per_sec\": \"repetitions/s\"},\n",
    );
    out.push_str("  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"protocol\": \"{}\", \"n\": {}, \"mode\": \"{}\", \
             \"reps\": {}, \"median_ns_per_rep\": {:.1}, \"reps_per_sec\": {:.1}}}{}\n",
            m.scenario,
            m.protocol,
            m.n,
            m.mode,
            m.reps,
            m.median_ns_per_rep,
            m.reps_per_sec,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_scenarios_build_for_every_protocol() {
        for protocol in PROTOCOLS {
            let s = batch_scenario(protocol, 128);
            assert_eq!(s.num_nodes(), 128);
            assert_eq!(s.protocol.name(), protocol);
            assert_eq!(s.stop, StopRule::Rounds(CELL_ROUNDS));
        }
    }

    #[test]
    fn measure_cell_reports_both_modes_and_equal_outcomes() {
        let s = batch_scenario("push-pull", 96);
        let (fresh, arena) = measure_cell(&s, "push-pull", 7, 3);
        assert_eq!(fresh.mode, "fresh");
        assert_eq!(arena.mode, "arena");
        assert_eq!(fresh.reps, 3);
        assert!(fresh.median_ns_per_rep > 0.0 && arena.median_ns_per_rep > 0.0);
        assert!(fresh.reps_per_sec > 0.0 && arena.reps_per_sec > 0.0);
        let results = vec![fresh, arena];
        assert!(speedup_at(&results, "push-pull", 96).unwrap() > 0.0);
        assert_eq!(speedup_at(&results, "memory", 96), None);
    }

    #[test]
    fn registry_smoke_passes_on_the_builtin_registry() {
        let count = registry_smoke(64, 3).expect("arena must match fresh on the registry");
        assert_eq!(count, registry::BUILTIN_NAMES.len());
    }

    #[test]
    fn json_document_is_well_formed() {
        let s = batch_scenario("memory", 64);
        let (fresh, arena) = measure_cell(&s, "memory", 5, 2);
        let json = to_json(&[fresh, arena], 5);
        assert!(json.starts_with("{\n") && json.ends_with("}\n"));
        assert!(json.contains("\"benchmark\": \"scenario_batch\""));
        assert!(json.contains("\"mode\": \"fresh\""));
        assert!(json.contains("\"mode\": \"arena\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
