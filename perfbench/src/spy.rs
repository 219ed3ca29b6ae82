//! An [`Engine`] wrapper that forwards every call to a real engine and
//! records an `engine.deliver` span around each delivery, plus the newly
//! learned (node, message) pairs `deliver` returns. The protocol driver sees
//! the same engine surface, so rounds and packets are unchanged.

use rand::rngs::SmallRng;
use rpc_engine::{Engine, MessageId, MessageSet, Metrics, Transfer};
use rpc_graphs::{Graph, NodeId};

use crate::spans::SpanRecorder;

/// Forwarding wrapper spanning `deliver`.
pub struct SpanEngine<'r, E> {
    /// The wrapped engine.
    pub inner: E,
    /// Where spans go; callers open their own spans through it between calls.
    pub rec: &'r mut SpanRecorder,
    /// Sum of `deliver`'s return values: newly learned (node, message) pairs.
    pub learned: u64,
}

impl<'r, E: Engine> SpanEngine<'r, E> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: E, rec: &'r mut SpanRecorder) -> Self {
        SpanEngine { inner, rec, learned: 0 }
    }
}

impl<E: Engine> Engine for SpanEngine<'_, E> {
    fn deliver(&mut self, transfers: &[Transfer]) -> usize {
        let span = self.rec.enter("engine.deliver");
        let learned = self.inner.deliver(transfers);
        self.rec.exit(span);
        self.learned += learned as u64;
        learned
    }

    fn graph(&self) -> &Graph {
        self.inner.graph()
    }
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    fn universe(&self) -> usize {
        self.inner.universe()
    }
    fn open_channel(&mut self, v: NodeId) -> Option<NodeId> {
        self.inner.open_channel(v)
    }
    fn open_channel_avoiding(&mut self, v: NodeId, avoid: &[NodeId]) -> Option<NodeId> {
        self.inner.open_channel_avoiding(v, avoid)
    }
    fn absorb(&mut self, v: NodeId, set: &MessageSet) -> usize {
        self.inner.absorb(v, set)
    }
    fn state(&self, v: NodeId) -> &MessageSet {
        self.inner.state(v)
    }
    fn knows(&self, v: NodeId, m: MessageId) -> bool {
        self.inner.knows(v, m)
    }
    fn is_alive(&self, v: NodeId) -> bool {
        self.inner.is_alive(v)
    }
    fn is_present(&self, v: NodeId) -> bool {
        self.inner.is_present(v)
    }
    fn is_participating(&self, v: NodeId) -> bool {
        self.inner.is_participating(v)
    }
    fn alive_count(&self) -> usize {
        self.inner.alive_count()
    }
    fn present_count(&self) -> usize {
        self.inner.present_count()
    }
    fn participating_count(&self) -> usize {
        self.inner.participating_count()
    }
    fn participating_informed_count(&self) -> usize {
        self.inner.participating_informed_count()
    }
    fn is_fully_informed(&self, v: NodeId) -> bool {
        self.inner.is_fully_informed(v)
    }
    fn fully_informed_count(&self) -> usize {
        self.inner.fully_informed_count()
    }
    fn gossip_complete(&self) -> bool {
        self.inner.gossip_complete()
    }
    fn informed_count_of(&self, m: MessageId) -> usize {
        self.inner.informed_count_of(m)
    }
    fn track_message(&mut self, m: MessageId) {
        self.inner.track_message(m)
    }
    fn tracked_informed_count(&self) -> usize {
        self.inner.tracked_informed_count()
    }
    fn inject_rumor(&mut self, source: NodeId, m: MessageId) -> bool {
        self.inner.inject_rumor(source, m)
    }
    fn expire_rumor(&mut self, m: MessageId) {
        self.inner.expire_rumor(m)
    }
    fn schedule_injection(&mut self, round: u64, source: NodeId, m: MessageId) {
        self.inner.schedule_injection(round, source, m)
    }
    fn schedule_expiry(&mut self, round: u64, m: MessageId) {
        self.inner.schedule_expiry(round, m)
    }
    fn rumor_informed_count(&self, m: MessageId) -> usize {
        self.inner.rumor_informed_count(m)
    }
    fn rumor_injected(&self, m: MessageId) -> bool {
        self.inner.rumor_injected(m)
    }
    fn rumor_expired(&self, m: MessageId) -> bool {
        self.inner.rumor_expired(m)
    }
    fn rumor_complete(&self, m: MessageId) -> bool {
        self.inner.rumor_complete(m)
    }
    fn fail_nodes(&mut self, nodes: &[NodeId]) {
        self.inner.fail_nodes(nodes)
    }
    fn kill_nodes(&mut self, nodes: &[NodeId]) {
        self.inner.kill_nodes(nodes)
    }
    fn revive_nodes(&mut self, nodes: &[NodeId]) {
        self.inner.revive_nodes(nodes)
    }
    fn schedule_kill(&mut self, round: u64, nodes: Vec<NodeId>) {
        self.inner.schedule_kill(round, nodes)
    }
    fn schedule_revive(&mut self, round: u64, nodes: Vec<NodeId>) {
        self.inner.schedule_revive(round, nodes)
    }
    fn schedule_crash(&mut self, round: u64, nodes: Vec<NodeId>) {
        self.inner.schedule_crash(round, nodes)
    }
    fn schedule_edge_outage(&mut self, round: u64, slots: Vec<NodeId>) {
        self.inner.schedule_edge_outage(round, slots)
    }
    fn apply_due_events(&mut self) {
        self.inner.apply_due_events()
    }
    fn set_byzantine(&mut self, nodes: &[NodeId]) {
        self.inner.set_byzantine(nodes)
    }
    fn is_byzantine(&self, v: NodeId) -> bool {
        self.inner.is_byzantine(v)
    }
    fn byzantine_count(&self) -> usize {
        self.inner.byzantine_count()
    }
    fn set_loss_probability(&mut self, p: f64) {
        self.inner.set_loss_probability(p)
    }
    fn metrics(&self) -> &Metrics {
        self.inner.metrics()
    }
    fn metrics_mut(&mut self) -> &mut Metrics {
        self.inner.metrics_mut()
    }
    fn rng_mut(&mut self) -> &mut SmallRng {
        self.inner.rng_mut()
    }
}
