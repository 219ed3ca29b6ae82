//! Shared helpers for the Criterion benchmark suite.
//!
//! The criterion benchmarks live in `benches/`; this library crate exposes
//! the workloads they share so the bench files stay readable and the helpers
//! themselves are unit-testable. The repository's recorded benchmark is
//! `perfbench/` (see `BENCHMARK.json`); these benches guard the library hot
//! paths against regressions between its runs.

/// The protocol round loops the `round_loop` and `scenario_step` benches
/// time, runnable on the packed engine and the unpacked reference oracle.
pub mod round_loop {
    use rpc_engine::{Engine, MessageId};
    use rpc_gossip::{
        run_driver, FastGossiping, FastGossipingDriver, MemoryDriver, MemoryGossip, ProtocolDriver,
        PushPullDriver, StepStatus,
    };
    use rpc_graphs::log2n;
    use rpc_graphs::prelude::*;

    /// Safety cap on rounds per run; push-pull completes in Θ(log n) on every
    /// benchmark topology, so hitting this indicates a bug.
    const MAX_ROUNDS: usize = 10_000;

    /// The benchmark topology keys, in reporting order.
    pub const TOPOLOGIES: [&str; 4] = ["er-dense", "er-sparse", "regular", "complete"];

    /// Rumor count (and message universe) of the multi-rumor streaming row
    /// run by [`run_streaming`]: two staggered injections per round, sources
    /// striding the node space. The message universe is decoupled from `n`,
    /// so this row exercises the word-parallel delivery path on a state
    /// layout no classic single-rumor bench reaches.
    pub const STREAM_RUMORS: usize = 16;

    /// Runs one protocol (`push-pull`, `fast-gossiping` or `memory`) to its
    /// natural end on any engine, with the same paper constants the scenario
    /// layer uses, and returns the rounds run.
    pub fn run_protocol<E: Engine>(protocol: &str, sim: &mut E) -> u64 {
        let n = sim.num_nodes();
        match protocol {
            "push-pull" => run_driver(&mut PushPullDriver::new(MAX_ROUNDS), sim),
            "fast-gossiping" => {
                run_driver(&mut FastGossipingDriver::new(FastGossiping::paper(n), n), sim)
            }
            "memory" => run_driver(&mut MemoryDriver::new(MemoryGossip::paper(n)), sim),
            other => panic!("unknown benchmark protocol: {other}"),
        }
    }

    /// Registers the streaming row's deterministic injection schedule (no
    /// RNG draws — the same staggered arrivals on every engine and rep) and
    /// runs push-pull until every rumor has completed or the safety cap.
    /// `sim` must be a streaming engine with a universe of at least
    /// [`STREAM_RUMORS`] rumors.
    pub fn run_streaming<E: Engine>(sim: &mut E) {
        let n = sim.num_nodes();
        for m in 0..STREAM_RUMORS {
            sim.schedule_injection((m / 2) as u64, ((m * 97) % n) as NodeId, m as MessageId);
        }
        sim.track_message(0);
        let mut driver = PushPullDriver::new(MAX_ROUNDS);
        while !(0..STREAM_RUMORS).all(|m| sim.rumor_complete(m as MessageId))
            && driver.step(sim) == StepStatus::Running
        {}
    }

    /// Builds the graph behind a topology key:
    ///
    /// * `er-dense` — Erdős–Rényi with expected degree `4 log² n` (the
    ///   registry's dense working point, behaves almost like `K_n`);
    /// * `er-sparse` — Erdős–Rényi at the paper's density threshold
    ///   `p = log² n / n`;
    /// * `regular` — random regular graph with degree `≈ log² n`;
    /// * `complete` — `K_n` (quadratic adjacency: only use at moderate `n`).
    pub fn build_topology(kind: &str, n: usize, seed: u64) -> Graph {
        let log2 = log2n(n);
        let paper_degree = log2 * log2;
        match kind {
            "er-dense" => {
                let degree = (4.0 * paper_degree).min(n as f64 - 1.0);
                ErdosRenyi::with_expected_degree(n, degree).generate(seed)
            }
            "er-sparse" => ErdosRenyi::paper_density(n).generate(seed),
            "regular" => {
                let mut d = (paper_degree.round() as usize).clamp(2, n - 1);
                if n % 2 == 1 && d % 2 == 1 {
                    d += 1;
                }
                RandomRegular::new(n, d.min(n - 1)).generate(seed)
            }
            "complete" => CompleteGraph::new(n).generate(seed),
            other => panic!("unknown benchmark topology: {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::round_loop::*;
    use rpc_engine::{Engine, Simulation, UnpackedSimulation};

    #[test]
    fn every_topology_key_builds_a_graph() {
        for kind in TOPOLOGIES {
            let g = build_topology(kind, 129, 1); // odd n exercises the
                                                  // regular-degree adjustment
            assert_eq!(g.num_nodes(), 129, "{kind}");
            assert!(g.num_edges() > 0, "{kind}");
        }
        assert_eq!(build_topology("complete", 64, 0).num_edges(), 64 * 63 / 2);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark topology")]
    fn unknown_topology_key_panics() {
        let _ = build_topology("torus", 64, 0);
    }

    /// `(rounds, packets)` of one finished run.
    fn totals<E: Engine>(sim: &E) -> (u64, u64) {
        (sim.metrics().rounds(), sim.metrics().total_packets())
    }

    #[test]
    fn every_protocol_runs_identically_on_both_engines() {
        // (topology, n, graph seed, protocol, run seed)
        let cells = [
            ("er-sparse", 192, 5, "push-pull", 7),
            ("er-sparse", 160, 5, "push-pull", 7),
            ("er-sparse", 128, 5, "fast-gossiping", 9),
            ("er-sparse", 128, 5, "memory", 9),
            ("complete", 96, 3, "push-pull", 3),
        ];
        for (topology, n, graph_seed, protocol, seed) in cells {
            let g = build_topology(topology, n, graph_seed);
            let mut packed = Simulation::new(&g, seed);
            let mut unpacked = UnpackedSimulation::new(&g, seed);
            let rounds = run_protocol(protocol, &mut packed);
            assert!(rounds > 0, "{protocol} on {topology} executed no rounds");
            assert_eq!(run_protocol(protocol, &mut unpacked), rounds, "{protocol} on {topology}");
            assert_eq!(totals(&packed), totals(&unpacked), "{protocol} on {topology}");
        }
    }

    #[test]
    fn streaming_row_runs_identically_on_both_engines() {
        let g = build_topology("er-sparse", 160, 5);
        let mut packed = Simulation::new_streaming(&g, 7, STREAM_RUMORS);
        let mut unpacked = UnpackedSimulation::new_streaming(&g, 7, STREAM_RUMORS);
        run_streaming(&mut packed);
        run_streaming(&mut unpacked);
        assert_eq!(totals(&packed), totals(&unpacked), "engines must replay the same run");
        // All 16 rumors arrive two per round, so the run outlives the
        // injection window and ends by rumor completion, not the cap.
        let rounds = packed.metrics().rounds();
        assert!(rounds >= (STREAM_RUMORS / 2) as u64);
        assert!(rounds < 10_000);
    }
}
