//! # rpc-runtime
//!
//! The fault-tolerant node runtime: the scenario engine's push-pull protocol
//! turned into *deployable actors*. Where the rest of the workspace
//! simulates the random phone call model inside one process, this crate
//! splits a push-pull gossip run into `n` independent node actors plus a
//! coordinator, speaking a JSON-lines wire protocol — and keeps the result
//! bit-identical to the simulator when the network behaves.
//!
//! The layers, bottom up:
//!
//! * [`wire`] — envelopes, typed bodies, and a total decoder (malformed
//!   input becomes structured errors, never panics);
//! * [`store`] — the durable per-node rumor bitset and its hex codec;
//! * [`node`] — [`NodeActor`]: owns a store and replays the run's contact
//!   schedule, drawing each round's transfers locally from the shared seed
//!   exactly as the simulator's push-pull round does, so no randomness ever
//!   crosses the wire;
//! * [`sync`] — [`Coordinator`]: the round synchronizer with timeouts,
//!   bounded exponential-backoff retries and quorum-based round advance;
//! * [`nemesis`] — the seeded fault injector (drop, delay, duplicate,
//!   partition, crash-restart), deterministic and fully audited;
//! * [`host`] — [`StdioTransport`], JSON lines over stdin/stdout, and
//!   [`serve`], the `experiments node` main loop;
//! * [`cluster`] — the single-threaded deterministic harness running a whole
//!   cluster in-process by calling each actor directly: [`run_cluster`].
//!
//! ## The correctness anchor
//!
//! With a benign nemesis, [`run_cluster`]'s per-round trace equals the
//! in-process executor's `ScenarioTrace` row for row — both are
//! `RoundTrace` rows, compared with `==`: same seeds, same placement, same
//! schedule, same packet accounting. The coordinator emits the same `round`
//! events as the executor, so a `ScenarioTrace` attached to
//! [`run_cluster_observed`] records the same rows. The `runtime_props`
//! differential suite pins this. Under faults the trace may stretch
//! (retries, skipped acks), but the invariants hold: no rumor is forged,
//! per-node coverage is monotone, and crash-restarted nodes rejoin with
//! their persisted state.

pub mod cluster;
pub mod host;
pub mod nemesis;
pub mod node;
pub mod store;
pub mod sync;
pub mod wire;

pub use cluster::{run_cluster, run_cluster_observed, ClusterConfig, CrashAudit, RuntimeOutcome};
pub use host::{serve, StdioTransport, TransportError};
pub use nemesis::{CrashPlan, FaultStats, Nemesis, NemesisSpec};
pub use node::NodeActor;
pub use store::RumorStore;
pub use sync::{Coordinator, RetryPolicy};
pub use wire::{Body, Envelope, WireError, COORDINATOR};

/// Convenience re-exports of the most commonly used runtime types.
pub mod prelude {
    pub use crate::cluster::{run_cluster, ClusterConfig, RuntimeOutcome};
    pub use crate::nemesis::NemesisSpec;
    pub use crate::sync::RetryPolicy;
    pub use crate::wire::{Body, Envelope};
}
