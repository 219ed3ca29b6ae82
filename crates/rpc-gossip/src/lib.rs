//! # rpc-gossip
//!
//! The gossiping and broadcasting algorithms studied in *"On the Influence of
//! Graph Density on Randomized Gossiping"* (Elsässer & Kaaser, 2015),
//! implemented on top of the [`rpc_engine`] random phone call simulator and
//! the [`rpc_graphs`] graph models.
//!
//! | paper | module | type |
//! |---|---|---|
//! | Algorithm 4 (appendix) | [`push_pull`] | [`PushPullGossip`] — the simple push-pull baseline |
//! | Algorithm 1 | [`fast_gossiping`] | [`FastGossiping`] — distribution, random walks, broadcast |
//! | Algorithm 2 | [`memory_model`] | [`MemoryGossip`] — leader tree, gather, broadcast with `open-avoid` |
//! | Algorithm 3 | [`leader_election`] | [`LeaderElection`] |
//! | Karp et al. / Pittel baselines | [`broadcast`] | [`PushBroadcast`], [`PushPullBroadcast`] |
//! | Table 1 | [`config`] | per-phase constants |
//! | Theorems 1–3 reference values | [`theory`] | closed-form bounds |
//!
//! Every protocol is a resumable [`ProtocolDriver`] ([`PushPullDriver`],
//! [`FastGossipingDriver`], [`MemoryDriver`], [`LeaderElectionDriver`],
//! [`BroadcastDriver`]) executing one synchronous round per step; its `step`
//! is the only code that runs the protocol's rounds. The scenario engine
//! steps drivers to apply round budgets, coverage thresholds and per-round
//! tracing to any algorithm, and the convenience entry points —
//! `run(graph, seed)` on every protocol type (as in the example below), the
//! memory model's robustness run, the election with failures — are short
//! bodies over [`run_driver`].
//!
//! ```
//! use rpc_gossip::prelude::*;
//! use rpc_graphs::prelude::*;
//!
//! let n = 256;
//! let graph = ErdosRenyi::paper_density(n).generate(1);
//! let outcome = FastGossiping::paper(n).run(&graph, 7);
//! assert!(outcome.completed());
//! println!("messages per node: {:.2}", outcome.messages_per_node(Accounting::PerPacket));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broadcast;
pub mod config;
pub mod fast_gossiping;
pub mod leader_election;
pub mod memory_model;
pub mod outcome;
pub mod push_pull;
pub mod runner;
pub mod theory;

pub use broadcast::{
    BroadcastDriver, BroadcastMode, BroadcastOutcome, PushBroadcast, PushPullBroadcast,
};
pub use config::{
    loglog2n, FastGossipingConfig, LeaderElectionConfig, MemoryGossipConfig, PushPullConfig,
};
pub use fast_gossiping::{FastGossiping, FastGossipingDriver};
pub use leader_election::{ElectionOutcome, ElectionSummary, LeaderElection, LeaderElectionDriver};
pub use memory_model::{MemoryDriver, MemoryGossip};
pub use outcome::GossipOutcome;
pub use push_pull::{PushPullDriver, PushPullGossip};
pub use runner::{run_driver, GossipAlgorithm, ProtocolDriver, StepStatus};

/// Commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use crate::broadcast::{
        BroadcastDriver, BroadcastMode, BroadcastOutcome, PushBroadcast, PushPullBroadcast,
    };
    pub use crate::config::{
        FastGossipingConfig, LeaderElectionConfig, MemoryGossipConfig, PushPullConfig,
    };
    pub use crate::fast_gossiping::{FastGossiping, FastGossipingDriver};
    pub use crate::leader_election::{
        ElectionOutcome, ElectionSummary, LeaderElection, LeaderElectionDriver,
    };
    pub use crate::memory_model::{MemoryDriver, MemoryGossip};
    pub use crate::outcome::GossipOutcome;
    pub use crate::push_pull::{PushPullDriver, PushPullGossip};
    pub use crate::runner::{run_driver, GossipAlgorithm, ProtocolDriver, StepStatus};
    pub use rpc_engine::Accounting;
}
