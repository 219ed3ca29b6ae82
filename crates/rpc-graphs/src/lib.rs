//! # rpc-graphs
//!
//! Random graph substrate for the reproduction of *"On the Influence of Graph
//! Density on Randomized Gossiping"* (Elsässer & Kaaser, 2015).
//!
//! The paper analyses randomized gossiping on two random graph models and uses
//! the complete graph as the classical baseline:
//!
//! * **Erdős–Rényi graphs** `G(n, p)` with `p ≥ log^{2+ε} n / n`
//!   ([`erdos_renyi::ErdosRenyi`]), the model used for all simulations in
//!   Section 5 (with `p = log² n / n`);
//! * the **configuration model** with `d` stubs per node
//!   ([`config_model::ConfigurationModel`]) used for the proof of Theorem 1;
//! * **complete graphs** ([`complete::CompleteGraph`]), the reference point of
//!   Karp et al. and Berenbrink et al.
//!
//! Graphs are stored in a compact CSR (compressed sparse row) representation
//! ([`csr::Graph`]) sized for simulations with up to a few million nodes;
//! `K_n` is implicit and stores only `n`. All generators are deterministic
//! given a seed so that every experiment in the repository can be reproduced
//! bit-for-bit.
//!
//! ```
//! use rpc_graphs::prelude::*;
//!
//! let graph = ErdosRenyi::paper_density(1024).generate(42);
//! assert_eq!(graph.num_nodes(), 1024);
//! // The paper requires d = Ω(log^{2+ε} n); with p = log² n / n the expected
//! // degree is log² n = 100 for n = 1024.
//! assert!(graph.average_degree() > 50.0);
//! assert!(is_connected(&graph));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod complete;
pub mod config_model;
pub mod csr;
pub mod erdos_renyi;
pub mod generator;
pub mod properties;
pub mod regular;
pub mod topology;

pub use arena::GraphArena;
pub use complete::CompleteGraph;
pub use config_model::ConfigurationModel;
pub use csr::{Graph, Neighbors, NodeId};
pub use erdos_renyi::ErdosRenyi;
pub use generator::GraphGenerator;
pub use regular::RandomRegular;

/// Commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use crate::arena::GraphArena;
    pub use crate::complete::CompleteGraph;
    pub use crate::config_model::ConfigurationModel;
    pub use crate::csr::{Graph, Neighbors, NodeId};
    pub use crate::erdos_renyi::ErdosRenyi;
    pub use crate::generator::GraphGenerator;
    pub use crate::properties::{connected_components, degree_stats, is_connected, DegreeStats};
    pub use crate::regular::RandomRegular;
    pub use crate::topology::{hypercube, ring, star};
}

/// Binary logarithm of `n` as used throughout the paper (`log n` denotes the
/// logarithm to base 2, see Section 1.1 footnote 1).
///
/// Returns `0.0` for `n <= 1` so that degenerate graph sizes do not produce
/// negative or infinite parameters.
pub fn log2n(n: usize) -> f64 {
    if n <= 1 {
        0.0
    } else {
        (n as f64).log2()
    }
}

/// Natural logarithm of `n`, guarded the same way as [`log2n`].
pub fn lnn(n: usize) -> f64 {
    if n <= 1 {
        0.0
    } else {
        (n as f64).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2n_matches_std() {
        assert_eq!(log2n(0), 0.0);
        assert_eq!(log2n(1), 0.0);
        assert_eq!(log2n(2), 1.0);
        assert_eq!(log2n(1024), 10.0);
        assert!((log2n(1_000_000) - 19.931568).abs() < 1e-5);
    }

    #[test]
    fn lnn_matches_std() {
        assert_eq!(lnn(1), 0.0);
        assert!((lnn(1024) - 6.931471).abs() < 1e-5);
    }
}
