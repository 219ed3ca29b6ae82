//! Reusable graph-generation storage for batch workloads.
//!
//! Monte Carlo scenario batches regenerate a fresh random graph for every
//! repetition. With the plain [`generate`](crate::GraphGenerator::generate)
//! entry point each repetition allocates an edge list, a degree table and the
//! two CSR arrays, then frees them a few milliseconds later — at small and
//! medium `n` this setup traffic rivals the simulation itself. A
//! [`GraphArena`] owns all of that storage once per worker: generators write
//! into its buffers through
//! [`generate_into`](crate::GraphGenerator::generate_into), so after the
//! first repetition a worker's graph generation allocates nothing (the
//! buffers only grow if a later graph is larger).
//!
//! The contract is strict bit-identity: for every generator `g`,
//! `g.generate_into(seed, &mut arena)` leaves `arena.graph()` equal to
//! `g.generate(seed)` — same RNG draw sequence, same adjacency, for any
//! sequence of prior arena uses (including larger or smaller graphs). The
//! tests below pin this for every generator in the crate.

use rpc_obs::ReuseStats;

use crate::csr::{Graph, NodeId};

/// Reusable storage for repeated graph generation: the generated CSR graph
/// plus the edge-list, degree/cursor and stub scratch the samplers need.
///
/// Create one per worker thread and pass it to
/// [`GraphGenerator::generate_into`](crate::GraphGenerator::generate_into)
/// for every repetition; read the result with [`GraphArena::graph`].
#[derive(Debug, Clone)]
pub struct GraphArena {
    graph: Graph,
    /// Edge-list buffer the samplers fill (cleared per generation).
    pub(crate) edges: Vec<(NodeId, NodeId)>,
    /// Degree/cursor scratch for the in-place CSR build.
    pub(crate) scratch: Vec<usize>,
    /// Stub buffer for the configuration model's pairing.
    pub(crate) stubs: Vec<NodeId>,
    /// Reuse-vs-fresh counters over the arena's generations.
    stats: ReuseStats,
}

impl Default for GraphArena {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphArena {
    /// An empty arena; buffers are grown by the first generation.
    pub fn new() -> Self {
        Self {
            graph: Graph::from_edges(0, &[]),
            edges: Vec::new(),
            scratch: Vec::new(),
            stubs: Vec::new(),
            stats: ReuseStats::default(),
        }
    }

    /// Generation counters: the first build per arena counts as *fresh*,
    /// every later one as *reused* (the buffers carry over). Purely
    /// diagnostic — the generated graphs are bit-identical either way.
    pub fn stats(&self) -> ReuseStats {
        self.stats
    }

    /// Marks one generation into this arena (called by every build path).
    fn record_build(&mut self) {
        self.stats.record(self.stats.total() > 0);
    }

    /// The most recently generated graph. Before the first
    /// [`generate_into`](crate::GraphGenerator::generate_into) this is the
    /// empty zero-node graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Mutable access for generators that replace or fill the graph directly.
    pub(crate) fn graph_mut(&mut self) -> &mut Graph {
        self.record_build();
        &mut self.graph
    }

    /// Makes the arena's graph the implicit `K_n`. The CSR buffers keep
    /// their capacity for the next sparse build.
    pub(crate) fn rebuild_complete(&mut self, n: usize) {
        self.record_build();
        self.graph.rebuild_complete(n);
    }

    /// Rebuilds the arena's graph from the edges currently in the edge
    /// buffer (see [`Graph::rebuild_from_edges`]).
    pub(crate) fn rebuild_from_edges(&mut self, n: usize) {
        self.record_build();
        let Self { graph, edges, scratch, .. } = self;
        graph.rebuild_from_edges(n, edges, scratch);
    }

    /// Sort-skipping variant for samplers whose emission order scatters into
    /// already-sorted adjacency (see `Graph::rebuild_from_edges_presorted`).
    pub(crate) fn rebuild_from_edges_presorted(&mut self, n: usize) {
        self.record_build();
        let Self { graph, edges, scratch, .. } = self;
        graph.rebuild_from_edges_presorted(n, edges, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complete::CompleteGraph;
    use crate::config_model::{ConfigurationModel, MultiEdgePolicy};
    use crate::erdos_renyi::ErdosRenyi;
    use crate::generator::GraphGenerator;
    use crate::regular::RandomRegular;

    fn generators(n: usize) -> Vec<Box<dyn GraphGenerator>> {
        let d = if n * 6 % 2 == 0 { 6 } else { 5 };
        vec![
            Box::new(ErdosRenyi::paper_density(n)),
            Box::new(ErdosRenyi::with_expected_degree(n, 8.0)),
            Box::new(CompleteGraph::new(n)),
            Box::new(ConfigurationModel::new(n, d)),
            Box::new(ConfigurationModel::new(n, d).with_policy(MultiEdgePolicy::Erase)),
            Box::new(RandomRegular::new(n, d)),
        ]
    }

    #[test]
    fn generate_into_matches_generate_for_every_generator() {
        let mut arena = GraphArena::new();
        for n in [64usize, 130] {
            for gen in generators(n) {
                for seed in [0u64, 1, 99] {
                    gen.generate_into(seed, &mut arena);
                    assert_eq!(
                        arena.graph(),
                        &gen.generate(seed),
                        "{} diverged at seed {seed}",
                        gen.label()
                    );
                }
            }
        }
    }

    #[test]
    fn er_sorted_scatter_matches_from_edges_at_scale() {
        // The ER override skips the adjacency sort (the scatter is provably
        // pre-sorted); pin exact equality — including neighbor order — on
        // graphs big enough for many multi-entry lists, both sampler
        // branches (p < 1 and the p = 1 complete fill).
        let mut arena = GraphArena::new();
        for gen in [ErdosRenyi::paper_density(2000), ErdosRenyi::new(80, 1.0)] {
            for seed in 0..5u64 {
                gen.generate_into(seed, &mut arena);
                assert_eq!(arena.graph(), &gen.generate(seed), "seed {seed}");
            }
        }
    }

    #[test]
    fn dirty_arena_reuse_is_bit_identical() {
        // Big graph, then a small one, then a big one again: stale buffer
        // content and capacities from earlier generations must never leak
        // into a later graph.
        let mut arena = GraphArena::new();
        let big = ErdosRenyi::paper_density(400);
        let small = CompleteGraph::new(9);
        big.generate_into(7, &mut arena);
        assert_eq!(arena.graph(), &big.generate(7));
        small.generate_into(3, &mut arena);
        assert_eq!(arena.graph(), &small.generate(3));
        big.generate_into(8, &mut arena);
        assert_eq!(arena.graph(), &big.generate(8));
    }

    #[test]
    fn default_trait_impl_falls_back_to_fresh_generation() {
        // A generator without an override still produces the right graph
        // through the arena entry point.
        struct Fixed;
        impl GraphGenerator for Fixed {
            fn num_nodes(&self) -> usize {
                3
            }
            fn expected_degree(&self) -> f64 {
                2.0
            }
            fn generate(&self, _seed: u64) -> Graph {
                Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)])
            }
            fn label(&self) -> String {
                "fixed-triangle".into()
            }
        }
        let mut arena = GraphArena::new();
        Fixed.generate_into(0, &mut arena);
        assert_eq!(arena.graph(), &Fixed.generate(0));
    }

    #[test]
    fn empty_arena_graph_has_zero_nodes() {
        let arena = GraphArena::new();
        assert_eq!(arena.graph().num_nodes(), 0);
        assert_eq!(arena.stats().total(), 0);
    }

    #[test]
    fn generation_stats_count_first_build_as_fresh() {
        let mut arena = GraphArena::new();
        let gen = ErdosRenyi::with_expected_degree(32, 4.0);
        gen.generate_into(0, &mut arena);
        gen.generate_into(1, &mut arena);
        gen.generate_into(2, &mut arena);
        let stats = arena.stats();
        assert_eq!((stats.fresh, stats.reused), (1, 2));
    }
}
