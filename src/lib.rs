//! # gossip-density
//!
//! Umbrella crate for the reproduction of *"On the Influence of Graph Density on
//! Randomized Gossiping"* (Elsässer & Kaaser, 2015). It re-exports the three
//! library layers so downstream users only need a single dependency:
//!
//! * [`graphs`] — random graph substrate (Erdős–Rényi, configuration model,
//!   complete graphs) in a compact CSR representation,
//! * [`engine`] — the random phone call model simulation engine (channels,
//!   message sets, communication accounting, failures, memory lists),
//! * [`gossip`] — the gossiping/broadcasting algorithms studied in the paper
//!   (Push-Pull, fast-gossiping, memory-model gossiping, leader election),
//! * [`scenarios`] — the declarative scenario engine (topology/protocol/
//!   environment specs, dynamic churn and message loss, a multi-threaded
//!   Monte Carlo sweep engine, and a registry of named workloads),
//! * [`runtime`] — the fault-tolerant node runtime (per-node actors speaking
//!   JSON lines, a seeded nemesis fault injector, and a retrying round
//!   synchronizer),
//! * [`experiments`] — the harness that regenerates every figure and table of
//!   the paper's evaluation section,
//! * [`obs`] — the zero-cost observability layer (the `Observer` trait, the
//!   event taxonomy, trace and progress sinks) shared by all of the
//!   above.
//!
//! ## Quickstart
//!
//! ```
//! use gossip_density::prelude::*;
//!
//! // G(n, p) with the paper's density p = log^2 n / n.
//! let graph = ErdosRenyi::paper_density(1 << 10).generate(7);
//! let outcome = PushPullGossip::default().run(&graph, 7);
//! assert!(outcome.completed());
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rpc_engine as engine;
pub use rpc_experiments as experiments;
pub use rpc_gossip as gossip;
pub use rpc_graphs as graphs;
pub use rpc_obs as obs;
pub use rpc_runtime as runtime;
pub use rpc_scenarios as scenarios;

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use rpc_engine::prelude::*;
    pub use rpc_gossip::prelude::*;
    pub use rpc_graphs::prelude::*;
    pub use rpc_scenarios::prelude::*;
}
