//! The [`Engine`] trait: the simulation-primitive API algorithms drive.
//!
//! Every gossiping protocol in this repository interacts with the simulation
//! exclusively through the methods below — open a channel, deliver a batch of
//! transfers, absorb a message set, query liveness and completion. Capturing
//! that surface as a trait lets the same protocol code run on two engines:
//!
//! * [`crate::Simulation`] — the packed, word-parallel production engine
//!   ([`crate::bitset::BitSet`] masks, sparse deltas, allocation-free rounds);
//! * [`crate::reference::UnpackedSimulation`] — the straightforward
//!   `Vec<bool>`-and-scans oracle with the *same RNG draw sequence*, kept as
//!   the correctness reference and benchmark baseline.
//!
//! Because both engines consume randomness identically, a protocol driven on
//! both with the same graph and seed must produce bit-identical traces; the
//! `rpc-scenarios` property tests assert exactly that.
//!
//! Both engines define these primitives only in their `Engine` impls (no
//! inherent method shares a name), so callers bring the trait into scope:
//! `use rpc_engine::Engine;` or `use rpc_engine::prelude::*;`.

use rand::rngs::SmallRng;

use rpc_graphs::{Graph, NodeId};

use crate::message::{MessageId, MessageSet};
use crate::metrics::Metrics;
use crate::sim::Transfer;

/// The simulation primitives a gossiping algorithm needs — implemented by the
/// packed [`crate::Simulation`] and the unpacked
/// [`crate::reference::UnpackedSimulation`] oracle.
///
/// See the [module docs](self) for the bit-identical-traces contract.
pub trait Engine {
    /// The underlying graph.
    fn graph(&self) -> &Graph;

    /// Number of nodes.
    fn num_nodes(&self) -> usize;

    /// Size of the message universe the node states range over — equal to
    /// [`Engine::num_nodes`] in the classic gossiping configuration,
    /// decoupled from it on streaming simulations.
    fn universe(&self) -> usize;

    /// Opens a channel from `v` to a uniformly random (present) neighbour.
    fn open_channel(&mut self, v: NodeId) -> Option<NodeId>;

    /// Opens a channel from `v` to a uniformly random (present) neighbour
    /// outside `avoid`.
    fn open_channel_avoiding(&mut self, v: NodeId, avoid: &[NodeId]) -> Option<NodeId>;

    /// Applies one synchronous step's packet transfers; returns the number of
    /// newly learned (node, message) pairs.
    fn deliver(&mut self, transfers: &[Transfer]) -> usize;

    /// Merges `set` into node `v`'s combined message without packet
    /// accounting; returns how many messages were new.
    fn absorb(&mut self, v: NodeId, set: &MessageSet) -> usize;

    /// Current combined message of node `v`.
    fn state(&self, v: NodeId) -> &MessageSet;

    /// Whether node `v` knows original message `m`.
    fn knows(&self, v: NodeId, m: MessageId) -> bool;

    /// Whether node `v` is alive (has not crashed).
    fn is_alive(&self, v: NodeId) -> bool;

    /// Whether node `v` is present (has not churned out).
    fn is_present(&self, v: NodeId) -> bool;

    /// Whether node `v` is alive and present.
    fn is_participating(&self, v: NodeId) -> bool {
        self.is_alive(v) && self.is_present(v)
    }

    /// Number of alive nodes.
    fn alive_count(&self) -> usize;

    /// Number of present nodes.
    fn present_count(&self) -> usize;

    /// Number of alive-and-present nodes.
    fn participating_count(&self) -> usize;

    /// Number of alive-and-present nodes that are fully informed.
    fn participating_informed_count(&self) -> usize;

    /// Whether node `v` knows all `n` original messages.
    fn is_fully_informed(&self, v: NodeId) -> bool;

    /// Number of nodes (alive or failed) that know all original messages.
    fn fully_informed_count(&self) -> usize;

    /// Whether every participating node knows every original message.
    fn gossip_complete(&self) -> bool;

    /// Number of nodes that know original message `m` (diagnostic scan).
    fn informed_count_of(&self, m: MessageId) -> usize;

    /// Starts tracking original message `m` for cheap coverage queries.
    fn track_message(&mut self, m: MessageId);

    /// Number of nodes that know the tracked rumor. Panics if
    /// [`Engine::track_message`] was never called.
    fn tracked_informed_count(&self) -> usize;

    /// Injects rumor `m` at node `source` immediately; returns whether the
    /// node newly learned it. Draws nothing from the RNG — callers sample
    /// sources and timing from their own stream, which keeps both engines in
    /// RNG lockstep. A TTL-expired rumor is never re-injected.
    fn inject_rumor(&mut self, source: NodeId, m: MessageId) -> bool;

    /// Expires rumor `m`, removing it from every node's combined message;
    /// an expired rumor can never reappear.
    fn expire_rumor(&mut self, m: MessageId);

    /// Schedules rumor `m` to be injected at node `source` at the start of
    /// round `round`.
    fn schedule_injection(&mut self, round: u64, source: NodeId, m: MessageId);

    /// Schedules rumor `m` to expire at the start of round `round`.
    fn schedule_expiry(&mut self, round: u64, m: MessageId);

    /// Number of nodes whose combined message contains rumor `m` (the
    /// paper's `|I_m(t)|`, per rumor).
    fn rumor_informed_count(&self, m: MessageId) -> usize;

    /// Whether rumor `m` has been injected. In the classic configuration
    /// every original message is present from round 0, so this is `true`.
    fn rumor_injected(&self, m: MessageId) -> bool;

    /// Whether rumor `m` has expired (its TTL ran out).
    fn rumor_expired(&self, m: MessageId) -> bool;

    /// Whether every participating node knows rumor `m` — the per-rumor
    /// completion condition. A rumor that was never injected is not
    /// complete. Default O(n) scan with early exit, identical on both
    /// engines by construction.
    fn rumor_complete(&self, m: MessageId) -> bool {
        self.rumor_injected(m)
            && (0..self.num_nodes() as NodeId)
                .all(|v| !self.is_participating(v) || self.knows(v, m))
    }

    /// Crashes the given nodes immediately (paper failure model).
    fn fail_nodes(&mut self, nodes: &[NodeId]);

    /// Churns the given nodes out immediately.
    fn kill_nodes(&mut self, nodes: &[NodeId]);

    /// Brings previously departed nodes back immediately.
    fn revive_nodes(&mut self, nodes: &[NodeId]);

    /// Schedules a churn-out at the start of round `round`.
    fn schedule_kill(&mut self, round: u64, nodes: Vec<NodeId>);

    /// Schedules a rejoin at the start of round `round`.
    fn schedule_revive(&mut self, round: u64, nodes: Vec<NodeId>);

    /// Schedules a crash at the start of round `round`.
    fn schedule_crash(&mut self, round: u64, nodes: Vec<NodeId>);

    /// Schedules an edge-churn wave at the start of round `round`: the given
    /// CSR edge slots go down, replacing any previously down set.
    fn schedule_edge_outage(&mut self, round: u64, slots: Vec<NodeId>);

    /// Applies every scheduled liveness/injection event due at the current
    /// round immediately. Scheduled events are normally applied lazily from
    /// the engine primitives (`open_channel`, `deliver`); drivers that gate
    /// per-node work on liveness or informedness *before* calling a
    /// primitive invoke this at the top of each step so round-boundary
    /// events (crash bursts, rumor injections) are visible to those checks.
    /// Idempotent within a round; never draws randomness.
    fn apply_due_events(&mut self);

    /// Marks the given nodes Byzantine: they open channels and receive
    /// normally but silently drop every packet they should send.
    fn set_byzantine(&mut self, nodes: &[NodeId]);

    /// Whether node `v` is Byzantine.
    fn is_byzantine(&self, v: NodeId) -> bool;

    /// Number of Byzantine nodes.
    fn byzantine_count(&self) -> usize;

    /// Sets the per-packet loss probability (`p ∈ [0, 1)`).
    fn set_loss_probability(&mut self, p: f64);

    /// Communication metrics collected so far.
    fn metrics(&self) -> &Metrics;

    /// Mutable access to the metrics (exchange accounting, phase markers,
    /// round counting).
    fn metrics_mut(&mut self) -> &mut Metrics;

    /// The simulation's random source.
    fn rng_mut(&mut self) -> &mut SmallRng;
}
