//! # rpc-engine
//!
//! Simulation engine for the **random phone call model** (Demers et al. 1987,
//! Karp et al. 2000) as used in *"On the Influence of Graph Density on
//! Randomized Gossiping"* (Elsässer & Kaaser, 2015).
//!
//! The engine provides the substrate that all gossiping and broadcasting
//! algorithms of the paper run on:
//!
//! * [`message`] — combined messages as dense bitsets over the message
//!   universe (the `n` original messages in the classic configuration, an
//!   arbitrary rumor space in streaming mode), with cheap unions;
//! * [`bitset`] — the packed per-node [`BitSet`] behind the word-parallel
//!   hot path (liveness masks, completion checks, coverage popcounts);
//! * [`sim`] — the synchronous simulation state: per-node knowledge, channel
//!   opening (uniform and `open-avoid`), packet delivery with faithful
//!   "messages arrive next step" timing, and node failures;
//! * [`api`] — the [`Engine`] trait: the primitive surface algorithms drive,
//!   implemented by [`Simulation`] and the unpacked oracle;
//! * [`mod@reference`] — [`reference::UnpackedSimulation`], the pre-optimization
//!   `Vec<bool>`-and-scans engine with the same RNG draw sequence, kept as
//!   correctness oracle and benchmark baseline;
//! * [`metrics`] — communication accounting in the two conventions used by
//!   the paper (per packet and per channel exchange);
//! * [`walks`] — random-walk tokens and per-node queues (Algorithm 1,
//!   Phase II);
//! * [`memory`] — the constant-size contact lists of the memory model
//!   (Section 4);
//! * [`failures`] — uniform node-failure sampling (Theorem 3 / Figures 2,
//!   3, 5);
//! * [`parallel`] — crossbeam-based parallel computation of sparse per-step
//!   message deltas (bit-identical to the sequential path);
//! * [`seeding`] — SplitMix64 seed derivation shared by every replication
//!   harness, so Monte Carlo results are identical for any thread count, and
//!   [`engine_rng`], the one constructor of a run's random stream.
//!
//! Beyond the paper's static model, the simulation supports *dynamic*
//! scenarios used by the `rpc-scenarios` crate: per-packet message loss
//! ([`Simulation::with_loss_probability`]) and scheduled churn / crash events
//! ([`Simulation::schedule_kill`], [`Simulation::schedule_revive`],
//! [`Simulation::schedule_crash`]) that fire at round boundaries without any
//! cooperation from the algorithm being simulated. In *streaming* mode
//! ([`Simulation::new_streaming`]) the rumor space is decoupled from the node
//! count entirely: rumors are injected mid-run ([`Simulation::inject_rumor`],
//! [`Simulation::schedule_injection`]) and may expire globally
//! ([`Simulation::schedule_expiry`]), with per-rumor informed counts
//! maintained incrementally by the same word-parallel delivery kernels.
//!
//! ```
//! use rpc_engine::prelude::*;
//! use rpc_graphs::prelude::*;
//!
//! let graph = CompleteGraph::new(8).generate(0);
//! let mut sim = Simulation::new(&graph, 42);
//! // One push from node 0 to a random neighbour.
//! if let Some(u) = sim.open_channel(0) {
//!     sim.deliver(&[Transfer::new(0, u)]);
//!     assert!(sim.knows(u, 0));
//! }
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod bitset;
pub mod failures;
pub mod memory;
pub mod message;
pub mod metrics;
pub mod parallel;
pub mod reference;
pub mod seeding;
pub mod sim;
pub mod walks;

pub use api::Engine;
pub use bitset::BitSet;
pub use failures::{sample_failures, sample_from_pool};
pub use memory::{Contact, ContactLists, ContactMemory, MEMORY_SLOTS};
pub use message::{MessageId, MessageSet};
pub use metrics::{Accounting, Metrics, PhaseSnapshot};
pub use reference::UnpackedSimulation;
// Observability counter types, re-exported so engine users need not name
// `rpc-obs` for plain diagnostics reads (`Metrics::core_rounds` etc.).
pub use rpc_obs::{CoreRounds, DeliveryCore, DispatchRecord, PoolStats, ReuseStats};
pub use seeding::{derive_seed, engine_rng, hash_key, splitmix64};
pub use sim::{Simulation, SimulationArena, Transfer};
pub use walks::{Walk, WalkQueues};

/// Commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use crate::api::Engine;
    pub use crate::bitset::BitSet;
    pub use crate::failures::{sample_failures, sample_from_pool};
    pub use crate::memory::{Contact, ContactLists, ContactMemory};
    pub use crate::message::{MessageId, MessageSet};
    pub use crate::metrics::{Accounting, Metrics};
    pub use crate::reference::UnpackedSimulation;
    pub use crate::seeding::{derive_seed, engine_rng, hash_key, splitmix64};
    pub use crate::sim::{Simulation, SimulationArena, Transfer};
    pub use crate::walks::{Walk, WalkQueues};
}
