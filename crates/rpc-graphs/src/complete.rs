//! Complete graphs `K_n`.
//!
//! The complete graph is the classical setting of the random phone call model
//! (Karp et al., FOCS 2000; Berenbrink et al., ICALP 2010). The paper's main
//! question is whether results for `K_n` carry over to sparse random graphs,
//! so `K_n` is the baseline topology for every comparison experiment.
//!
//! The generated [`Graph`] is implicit: it stores `n` and nothing that grows
//! with it, so neither [`GraphGenerator::generate`] nor
//! [`GraphGenerator::generate_into`] allocates `n(n − 1)` neighbor ids. It
//! answers every query, and every random draw, exactly like `K_n` built from
//! explicit adjacency lists (see [`crate::csr`]).

use crate::arena::GraphArena;
use crate::csr::Graph;
use crate::generator::GraphGenerator;

/// Generator for the complete graph on `n` nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompleteGraph {
    n: usize,
}

impl CompleteGraph {
    /// Complete graph `K_n`.
    pub fn new(n: usize) -> Self {
        Self { n }
    }
}

impl GraphGenerator for CompleteGraph {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn expected_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.n as f64 - 1.0
        }
    }

    fn generate(&self, _seed: u64) -> Graph {
        Graph::complete(self.n)
    }

    fn generate_into(&self, _seed: u64, arena: &mut GraphArena) {
        arena.rebuild_complete(self.n);
    }

    fn label(&self) -> String {
        format!("complete(n={})", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::is_connected;

    #[test]
    fn k5_has_all_edges() {
        let g = CompleteGraph::new(5).generate(0);
        assert_eq!(g.num_edges(), 10);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
            for u in g.nodes() {
                assert_eq!(g.has_edge(u, v), u != v);
            }
        }
    }

    #[test]
    fn seed_is_irrelevant() {
        let gen = CompleteGraph::new(16);
        assert_eq!(gen.generate(1), gen.generate(999));
    }

    #[test]
    fn complete_graphs_are_connected() {
        assert!(is_connected(&CompleteGraph::new(64).generate(0)));
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(CompleteGraph::new(0).generate(0).num_nodes(), 0);
        assert_eq!(CompleteGraph::new(1).generate(0).num_edges(), 0);
        assert_eq!(CompleteGraph::new(2).generate(0).num_edges(), 1);
    }
}
