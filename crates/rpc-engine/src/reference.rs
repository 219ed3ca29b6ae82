//! The unpacked reference engine — correctness oracle and benchmark baseline.
//!
//! [`UnpackedSimulation`] preserves the pre-optimization implementation of the
//! simulation hot path: `Vec<bool>` liveness bookkeeping, O(n) scans for the
//! completion check and coverage queries, dense per-receiver delta bitsets,
//! a freshly allocated effective-transfer buffer per delivery, and masked
//! neighbor sampling that materializes the filtered neighbor list when
//! rejection sampling gives up.
//!
//! It exists for two reasons:
//!
//! 1. **Oracle** — it consumes randomness in *exactly* the same order as the
//!    packed [`crate::Simulation`] (same rejection-sampling attempts, same
//!    fallback draw over the same candidate count, same loss-sampling order),
//!    so any protocol driven on both engines with the same graph and seed
//!    must produce bit-identical traces. The `rpc-scenarios` property tests
//!    assert this for randomized scenarios and the whole registry.
//! 2. **Baseline** — the `rpc-bench` `round_loop` criterion benches time it
//!    next to the packed engine on every topology, so a regression in the
//!    word-parallel hot path shows up against the same workload.
//!
//! It is deliberately sequential (no worker threads) and unoptimized; do not
//! use it for large production runs.

use rand::rngs::SmallRng;
use rand::Rng;

use rpc_graphs::{Graph, NodeId};

use crate::api::Engine;
use crate::message::{MessageId, MessageSet};
use crate::metrics::Metrics;
use crate::seeding::engine_rng;
use crate::sim::{LivenessEvent, LivenessKind, Transfer};

/// The unpacked (pre-optimization) simulation engine. Same API and RNG draw
/// sequence as [`crate::Simulation`], `Vec<bool>`-and-scans bookkeeping.
#[derive(Debug)]
pub struct UnpackedSimulation<'g> {
    graph: &'g Graph,
    states: Vec<MessageSet>,
    known: Vec<u32>,
    /// Size of the message universe; equal to the node count in the classic
    /// configuration, decoupled from it in streaming mode.
    universe: usize,
    /// Whether this simulation was built via [`Self::new_streaming`]. Only
    /// streaming simulations keep injection/expiry flags, mirroring the
    /// packed engine's optional `RumorSpace`.
    streaming: bool,
    /// Per-rumor injection flags (streaming only; empty otherwise).
    injected: Vec<bool>,
    /// Per-rumor expiry flags (streaming only; empty otherwise).
    expired: Vec<bool>,
    alive: Vec<bool>,
    alive_count: usize,
    present: Vec<bool>,
    departed_count: usize,
    fully_informed: usize,
    tracked: Option<MessageId>,
    metrics: Metrics,
    rng: SmallRng,
    loss_probability: f64,
    schedule: Vec<LivenessEvent>,
    next_event: usize,
    scratch_pool: Vec<MessageSet>,
    /// Behaviour mask mirroring the packed engine's Byzantine bitset.
    byzantine: Vec<bool>,
    byzantine_count: usize,
    /// Edge presence flags over the CSR edge slots, mirroring the packed
    /// engine's `edge_up` bitset; only consulted while `edge_down_count > 0`.
    edge_up: Vec<bool>,
    edge_down_count: usize,
}

impl<'g> UnpackedSimulation<'g> {
    /// Creates an unpacked simulation in the gossiping start configuration.
    /// Seeding matches [`crate::Simulation::new`] bit for bit.
    pub fn new(graph: &'g Graph, seed: u64) -> Self {
        let n = graph.num_nodes();
        let states = (0..n).map(|v| MessageSet::singleton(n, v as MessageId)).collect();
        Self {
            graph,
            states,
            known: vec![1; n],
            universe: n,
            streaming: false,
            injected: Vec::new(),
            expired: Vec::new(),
            alive: vec![true; n],
            alive_count: n,
            present: vec![true; n],
            departed_count: 0,
            fully_informed: if n <= 1 { n } else { 0 },
            tracked: None,
            metrics: Metrics::new(n),
            rng: engine_rng(seed),
            loss_probability: 0.0,
            schedule: Vec::new(),
            next_event: 0,
            scratch_pool: Vec::new(),
            byzantine: vec![false; n],
            byzantine_count: 0,
            edge_up: Vec::new(),
            edge_down_count: 0,
        }
    }

    /// Creates an unpacked simulation in the *streaming* start configuration,
    /// mirroring [`crate::Simulation::new_streaming`]: a `universe`-rumor
    /// message space decoupled from the node count, every node starting
    /// empty. Seeding matches bit for bit and nothing extra is drawn.
    pub fn new_streaming(graph: &'g Graph, seed: u64, universe: usize) -> Self {
        let n = graph.num_nodes();
        let mut sim = Self::new(graph, seed);
        sim.states = (0..n).map(|_| MessageSet::empty(universe)).collect();
        sim.known = vec![0; n];
        sim.universe = universe;
        sim.streaming = true;
        sim.injected = vec![false; universe];
        sim.expired = vec![false; universe];
        sim.fully_informed = if universe == 0 { n } else { 0 };
        sim
    }

    /// Number of original messages node `v` knows.
    pub fn num_known(&self, v: NodeId) -> usize {
        self.known[v as usize] as usize
    }

    fn push_event(&mut self, event: LivenessEvent) {
        self.schedule.push(event);
        self.schedule[self.next_event..].sort_by_key(|e| e.round);
    }

    fn poll_events(&mut self) {
        if self.next_event >= self.schedule.len() {
            return;
        }
        let round = self.metrics.rounds();
        while self.next_event < self.schedule.len() && self.schedule[self.next_event].round <= round
        {
            let kind = self.schedule[self.next_event].kind;
            let nodes = std::mem::take(&mut self.schedule[self.next_event].nodes);
            self.next_event += 1;
            match kind {
                LivenessKind::Kill => Engine::kill_nodes(self, &nodes),
                LivenessKind::Revive => Engine::revive_nodes(self, &nodes),
                LivenessKind::Crash => Engine::fail_nodes(self, &nodes),
                LivenessKind::EdgeOutage => self.apply_edge_outage(&nodes),
                LivenessKind::Inject { source, rumor } => {
                    Engine::inject_rumor(self, source, rumor);
                }
                LivenessKind::Expire { rumor } => Engine::expire_rumor(self, rumor),
            }
        }
    }

    /// Mirrors [`crate::Simulation::apply_edge_outage`]: the listed CSR edge
    /// slots go down, replacing any previously down set.
    fn apply_edge_outage(&mut self, slots: &[NodeId]) {
        self.edge_up.clear();
        self.edge_up.resize(self.graph.num_edge_slots(), true);
        let mut down = 0usize;
        for &slot in slots {
            if self.edge_up[slot as usize] {
                self.edge_up[slot as usize] = false;
                down += 1;
            }
        }
        self.edge_down_count = down;
    }

    fn bump_known(&mut self, v: NodeId, added: usize) {
        if added == 0 {
            return;
        }
        self.known[v as usize] += added as u32;
        if self.known[v as usize] as usize == self.universe {
            self.fully_informed += 1;
        }
    }

    /// The pre-optimization effective-packet filter: allocates a fresh buffer
    /// on every call. The iteration order — and therefore the loss-sampling
    /// order — matches the packed engine exactly.
    fn count_packets(&mut self, transfers: &[Transfer]) -> Vec<Transfer> {
        let mut effective = Vec::with_capacity(transfers.len());
        for &t in transfers {
            if !self.alive[t.from as usize] || !self.present[t.from as usize] {
                continue;
            }
            if self.byzantine_count > 0 && self.byzantine[t.from as usize] {
                continue;
            }
            if !self.present[t.to as usize] {
                continue;
            }
            self.metrics.record_packet(t.from);
            if t.from == t.to {
                continue;
            }
            if self.loss_probability > 0.0 && self.rng.gen_bool(self.loss_probability) {
                continue;
            }
            effective.push(t);
        }
        effective
    }

    /// Dense deferred delivery: one full-width delta bitset per receiver,
    /// built with copy + union and committed with a counting union.
    fn deliver_deferred(&mut self, transfers: &[Transfer]) -> usize {
        let mut effective = self.count_packets(transfers);
        if effective.is_empty() {
            return 0;
        }
        // Mirror the packed engine's dispatch diagnostics so the oracle's
        // per-core counts agree at the sequential thread count it models.
        // The packed engine classifies *after* dropping crashed and fully
        // informed receivers, so apply the same predicate to the count (the
        // delta loop below re-checks `alive` at commit time anyway).
        let n = self.states.len();
        let universe = self.universe;
        let classified = effective
            .iter()
            .filter(|t| {
                self.alive[t.to as usize] && (self.known[t.to as usize] as usize) < universe.max(1)
            })
            .count();
        if classified > 0 {
            self.metrics.record_dispatch(crate::parallel::classify_dispatch(
                n,
                classified,
                1,
                crate::parallel::cache_resident(&self.states),
            ));
        }
        effective.sort_unstable_by_key(|t| t.to);
        let mut deltas: Vec<(NodeId, MessageSet)> = Vec::new();
        let mut start = 0usize;
        while start < effective.len() {
            let to = effective[start].to;
            let mut end = start + 1;
            while end < effective.len() && effective[end].to == to {
                end += 1;
            }
            let mut delta = self.scratch_pool.pop().unwrap_or_else(|| MessageSet::empty(universe));
            let mut first = true;
            for t in &effective[start..end] {
                let sender_state = &self.states[t.from as usize];
                if first {
                    delta.copy_from(sender_state);
                    first = false;
                } else {
                    delta.union_from(sender_state);
                }
            }
            deltas.push((to, delta));
            start = end;
        }
        let mut total_added = 0usize;
        for (to, delta) in &deltas {
            if self.alive[*to as usize] {
                let added = self.states[*to as usize].union_from(delta);
                self.bump_known(*to, added);
                total_added += added;
            }
        }
        for (_, delta) in deltas {
            self.scratch_pool.push(delta);
        }
        total_added
    }

    /// The pre-optimization masked sampling: rejection sampling over the raw
    /// neighbor list, then a materialized filtered list. The draw sequence
    /// (32 attempts, then one draw over the eligible count) is identical to
    /// `Graph::random_neighbor_masked` on the packed presence words.
    fn random_neighbor_masked(&mut self, v: NodeId) -> Option<NodeId> {
        let nbrs = self.graph.neighbors(v);
        if nbrs.is_empty() {
            return None;
        }
        for _ in 0..32 {
            let candidate = nbrs.get(self.rng.gen_range(0..nbrs.len()));
            if self.present[candidate as usize] {
                return Some(candidate);
            }
        }
        let pool: Vec<NodeId> = nbrs.iter().filter(|&u| self.present[u as usize]).collect();
        if pool.is_empty() {
            None
        } else {
            Some(pool[self.rng.gen_range(0..pool.len())])
        }
    }

    /// Masked `open-avoid` sampling, same draw sequence as the packed engine.
    fn random_neighbor_masked_avoiding(&mut self, v: NodeId, avoid: &[NodeId]) -> Option<NodeId> {
        let nbrs = self.graph.neighbors(v);
        if nbrs.is_empty() {
            return None;
        }
        for _ in 0..32 {
            let candidate = nbrs.get(self.rng.gen_range(0..nbrs.len()));
            if self.present[candidate as usize] && !avoid.contains(&candidate) {
                return Some(candidate);
            }
        }
        let pool: Vec<NodeId> =
            nbrs.iter().filter(|&u| self.present[u as usize] && !avoid.contains(&u)).collect();
        if pool.is_empty() {
            None
        } else {
            Some(pool[self.rng.gen_range(0..pool.len())])
        }
    }

    /// Edge-masked sampling, mirroring `Graph::random_neighbor_edge_masked`:
    /// the eligibility predicate also requires the candidate's CSR edge slot
    /// to be up, and the node (presence) mask only participates while churn
    /// is active (`use_node_mask`). Draw sequence: 32 rejection attempts over
    /// the raw neighbor list, then one draw over the eligible pool.
    fn random_neighbor_edge_masked(&mut self, v: NodeId, use_node_mask: bool) -> Option<NodeId> {
        let nbrs = self.graph.neighbors(v);
        if nbrs.is_empty() {
            return None;
        }
        let base = self.graph.edge_slot_range(v).start;
        for _ in 0..32 {
            let i = self.rng.gen_range(0..nbrs.len());
            let candidate = nbrs.get(i);
            if self.edge_up[base + i] && (!use_node_mask || self.present[candidate as usize]) {
                return Some(candidate);
            }
        }
        let pool: Vec<NodeId> = nbrs
            .iter()
            .enumerate()
            .filter(|&(i, u)| {
                self.edge_up[base + i] && (!use_node_mask || self.present[u as usize])
            })
            .map(|(_, u)| u)
            .collect();
        if pool.is_empty() {
            None
        } else {
            Some(pool[self.rng.gen_range(0..pool.len())])
        }
    }

    /// Edge-masked `open-avoid` sampling, mirroring
    /// `Graph::random_neighbor_edge_masked_avoiding`.
    fn random_neighbor_edge_masked_avoiding(
        &mut self,
        v: NodeId,
        avoid: &[NodeId],
        use_node_mask: bool,
    ) -> Option<NodeId> {
        let nbrs = self.graph.neighbors(v);
        if nbrs.is_empty() {
            return None;
        }
        let base = self.graph.edge_slot_range(v).start;
        for _ in 0..32 {
            let i = self.rng.gen_range(0..nbrs.len());
            let candidate = nbrs.get(i);
            if self.edge_up[base + i]
                && (!use_node_mask || self.present[candidate as usize])
                && !avoid.contains(&candidate)
            {
                return Some(candidate);
            }
        }
        let pool: Vec<NodeId> = nbrs
            .iter()
            .enumerate()
            .filter(|&(i, u)| {
                self.edge_up[base + i]
                    && (!use_node_mask || self.present[u as usize])
                    && !avoid.contains(&u)
            })
            .map(|(_, u)| u)
            .collect();
        if pool.is_empty() {
            None
        } else {
            Some(pool[self.rng.gen_range(0..pool.len())])
        }
    }
}

impl Engine for UnpackedSimulation<'_> {
    fn graph(&self) -> &Graph {
        self.graph
    }

    fn num_nodes(&self) -> usize {
        self.states.len()
    }

    fn universe(&self) -> usize {
        self.universe
    }

    fn open_channel(&mut self, v: NodeId) -> Option<NodeId> {
        self.poll_events();
        if !self.alive[v as usize] || !self.present[v as usize] {
            return None;
        }
        let target = if self.edge_down_count > 0 {
            let use_node_mask = self.departed_count > 0;
            self.random_neighbor_edge_masked(v, use_node_mask)?
        } else if self.departed_count == 0 {
            self.graph.random_neighbor(v, &mut self.rng)?
        } else {
            self.random_neighbor_masked(v)?
        };
        self.metrics.record_channel_open(v);
        Some(target)
    }

    fn open_channel_avoiding(&mut self, v: NodeId, avoid: &[NodeId]) -> Option<NodeId> {
        self.poll_events();
        if !self.alive[v as usize] || !self.present[v as usize] {
            return None;
        }
        let target = if self.edge_down_count > 0 {
            let use_node_mask = self.departed_count > 0;
            self.random_neighbor_edge_masked_avoiding(v, avoid, use_node_mask)?
        } else if self.departed_count == 0 {
            self.graph.random_neighbor_avoiding(v, avoid, &mut self.rng)?
        } else {
            self.random_neighbor_masked_avoiding(v, avoid)?
        };
        self.metrics.record_channel_open(v);
        Some(target)
    }

    fn deliver(&mut self, transfers: &[Transfer]) -> usize {
        self.poll_events();
        self.deliver_deferred(transfers)
    }

    fn absorb(&mut self, v: NodeId, set: &MessageSet) -> usize {
        if !self.alive[v as usize] || !self.present[v as usize] {
            return 0;
        }
        let added = self.states[v as usize].union_from(set);
        self.bump_known(v, added);
        added
    }

    fn state(&self, v: NodeId) -> &MessageSet {
        &self.states[v as usize]
    }

    fn knows(&self, v: NodeId, m: MessageId) -> bool {
        self.states[v as usize].contains(m)
    }

    fn is_alive(&self, v: NodeId) -> bool {
        self.alive[v as usize]
    }

    fn is_present(&self, v: NodeId) -> bool {
        self.present[v as usize]
    }

    fn alive_count(&self) -> usize {
        self.alive_count
    }

    fn present_count(&self) -> usize {
        self.states.len() - self.departed_count
    }

    fn participating_count(&self) -> usize {
        (0..self.states.len()).filter(|&v| self.alive[v] && self.present[v]).count()
    }

    fn participating_informed_count(&self) -> usize {
        let u = self.universe;
        (0..self.states.len())
            .filter(|&v| self.alive[v] && self.present[v] && self.known[v] as usize == u)
            .count()
    }

    fn is_fully_informed(&self, v: NodeId) -> bool {
        self.known[v as usize] as usize == self.universe
    }

    fn fully_informed_count(&self) -> usize {
        self.fully_informed
    }

    /// The pre-optimization completion check: an O(n) scan over the counters.
    fn gossip_complete(&self) -> bool {
        (0..self.states.len() as NodeId).all(|v| {
            !self.alive[v as usize] || !self.present[v as usize] || self.is_fully_informed(v)
        })
    }

    fn informed_count_of(&self, m: MessageId) -> usize {
        self.states.iter().filter(|s| s.contains(m)).count()
    }

    fn track_message(&mut self, m: MessageId) {
        assert!((m as usize) < self.universe, "message id {m} outside universe");
        self.tracked = Some(m);
    }

    /// The pre-optimization coverage query: an O(n) scan per call.
    fn tracked_informed_count(&self) -> usize {
        let m = self.tracked.expect("no tracked message; call track_message first");
        self.informed_count_of(m)
    }

    /// Mirrors [`crate::Simulation::inject_rumor`] exactly: the expiry guard
    /// and injected flag first, then the liveness check, then the insert.
    fn inject_rumor(&mut self, source: NodeId, m: MessageId) -> bool {
        assert!((m as usize) < self.universe, "message id {m} outside universe {}", self.universe);
        if self.streaming {
            if self.expired[m as usize] {
                return false;
            }
            self.injected[m as usize] = true;
        }
        if !self.alive[source as usize] || !self.present[source as usize] {
            return false;
        }
        let newly = self.states[source as usize].insert(m);
        if newly {
            self.bump_known(source, 1);
        }
        newly
    }

    /// Mirrors [`crate::Simulation::expire_rumor`] with the pre-optimization
    /// bookkeeping: an O(n) removal scan, no incremental per-rumor counts.
    fn expire_rumor(&mut self, m: MessageId) {
        assert!((m as usize) < self.universe, "message id {m} outside universe {}", self.universe);
        if self.streaming {
            if self.expired[m as usize] {
                return;
            }
            self.expired[m as usize] = true;
        }
        for v in 0..self.states.len() {
            if self.states[v].remove(m) {
                if self.known[v] as usize == self.universe {
                    self.fully_informed -= 1;
                }
                self.known[v] -= 1;
            }
        }
    }

    fn schedule_injection(&mut self, round: u64, source: NodeId, m: MessageId) {
        self.push_event(LivenessEvent {
            round,
            kind: LivenessKind::Inject { source, rumor: m },
            nodes: Vec::new(),
        });
    }

    fn schedule_expiry(&mut self, round: u64, m: MessageId) {
        self.push_event(LivenessEvent {
            round,
            kind: LivenessKind::Expire { rumor: m },
            nodes: Vec::new(),
        });
    }

    /// The pre-optimization per-rumor coverage query: an O(n) scan, where
    /// the packed engine answers from an incrementally maintained counter.
    fn rumor_informed_count(&self, m: MessageId) -> usize {
        assert!((m as usize) < self.universe, "message id {m} outside universe {}", self.universe);
        self.informed_count_of(m)
    }

    fn rumor_injected(&self, m: MessageId) -> bool {
        assert!((m as usize) < self.universe, "message id {m} outside universe {}", self.universe);
        !self.streaming || self.injected[m as usize]
    }

    fn rumor_expired(&self, m: MessageId) -> bool {
        assert!((m as usize) < self.universe, "message id {m} outside universe {}", self.universe);
        self.streaming && self.expired[m as usize]
    }

    fn fail_nodes(&mut self, nodes: &[NodeId]) {
        for &v in nodes {
            if std::mem::replace(&mut self.alive[v as usize], false) {
                self.alive_count -= 1;
            }
        }
    }

    fn kill_nodes(&mut self, nodes: &[NodeId]) {
        for &v in nodes {
            if std::mem::replace(&mut self.present[v as usize], false) {
                self.departed_count += 1;
            }
        }
    }

    fn revive_nodes(&mut self, nodes: &[NodeId]) {
        for &v in nodes {
            if !std::mem::replace(&mut self.present[v as usize], true) {
                self.departed_count -= 1;
            }
        }
    }

    fn schedule_kill(&mut self, round: u64, nodes: Vec<NodeId>) {
        self.push_event(LivenessEvent { round, kind: LivenessKind::Kill, nodes });
    }

    fn schedule_revive(&mut self, round: u64, nodes: Vec<NodeId>) {
        self.push_event(LivenessEvent { round, kind: LivenessKind::Revive, nodes });
    }

    fn schedule_crash(&mut self, round: u64, nodes: Vec<NodeId>) {
        self.push_event(LivenessEvent { round, kind: LivenessKind::Crash, nodes });
    }

    fn schedule_edge_outage(&mut self, round: u64, slots: Vec<NodeId>) {
        self.push_event(LivenessEvent { round, kind: LivenessKind::EdgeOutage, nodes: slots });
    }

    fn apply_due_events(&mut self) {
        self.poll_events();
    }

    fn set_byzantine(&mut self, nodes: &[NodeId]) {
        for &v in nodes {
            if !self.byzantine[v as usize] {
                self.byzantine[v as usize] = true;
                self.byzantine_count += 1;
            }
        }
    }

    fn is_byzantine(&self, v: NodeId) -> bool {
        self.byzantine[v as usize]
    }

    fn byzantine_count(&self) -> usize {
        self.byzantine_count
    }

    fn set_loss_probability(&mut self, p: f64) {
        assert!(p.is_finite() && (0.0..1.0).contains(&p), "loss probability must lie in [0, 1)");
        self.loss_probability = p;
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    fn rng_mut(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulation;
    use rpc_graphs::prelude::*;

    /// Drives both engines through an identical mixed workload — channel
    /// openings under churn, lossy deliveries, scheduled events, absorbs —
    /// and asserts bit-identical observable state after every step.
    #[test]
    fn unpacked_engine_mirrors_the_packed_engine_step_for_step() {
        let n = 150usize; // not a multiple of 64
        let g = ErdosRenyi::with_expected_degree(n, 9.0).generate(17);
        let mut packed = Simulation::new(&g, 23).with_loss_probability(0.2);
        let mut unpacked = UnpackedSimulation::new(&g, 23);
        unpacked.set_loss_probability(0.2);
        for sim in [&mut packed as &mut dyn Engine, &mut unpacked as &mut dyn Engine] {
            sim.schedule_kill(2, vec![5, 6, 7]);
            sim.schedule_revive(5, vec![5, 6]);
            sim.schedule_crash(7, vec![10, 11]);
            sim.track_message(3);
        }
        for round in 0..12u64 {
            let mut transfers_p = Vec::new();
            let mut transfers_u = Vec::new();
            for v in 0..n as NodeId {
                let a = packed.open_channel(v);
                let b = unpacked.open_channel(v);
                assert_eq!(a, b, "channel choice diverged at round {round}, node {v}");
                if let Some(u) = a {
                    transfers_p.push(Transfer::new(v, u));
                    transfers_p.push(Transfer::new(u, v));
                    transfers_u.push(Transfer::new(v, u));
                    transfers_u.push(Transfer::new(u, v));
                }
            }
            let added_p = packed.deliver(&transfers_p);
            let added_u = unpacked.deliver(&transfers_u);
            assert_eq!(added_p, added_u, "delivery diverged at round {round}");
            packed.metrics_mut().finish_round();
            unpacked.metrics_mut().finish_round();
            assert_eq!(packed.fully_informed_count(), unpacked.fully_informed_count());
            assert_eq!(packed.tracked_informed_count(), unpacked.tracked_informed_count());
            assert_eq!(packed.gossip_complete(), unpacked.gossip_complete());
            assert_eq!(packed.participating_count(), unpacked.participating_count());
            assert_eq!(
                packed.participating_informed_count(),
                unpacked.participating_informed_count()
            );
            assert_eq!(packed.metrics().total_packets(), unpacked.metrics().total_packets());
        }
        for v in 0..n as NodeId {
            assert_eq!(Engine::state(&packed, v), Engine::state(&unpacked, v), "state of {v}");
        }
    }

    #[test]
    fn open_avoid_draws_match_under_churn() {
        let g = RandomRegular::new(60, 6).generate(3);
        let mut packed = Simulation::new(&g, 9);
        let mut unpacked = UnpackedSimulation::new(&g, 9);
        packed.kill_nodes(&[1, 2, 3, 4, 5]);
        Engine::kill_nodes(&mut unpacked, &[1, 2, 3, 4, 5]);
        for v in 0..60 {
            let avoid = [(v + 1) % 60, (v + 2) % 60];
            assert_eq!(
                packed.open_channel_avoiding(v, &avoid),
                unpacked.open_channel_avoiding(v, &avoid),
                "open-avoid diverged for node {v}"
            );
        }
    }

    /// Byzantine senders and a scheduled edge outage exercise the new
    /// hostile-environment paths in both engines at once; every draw must
    /// stay in lockstep including the per-slot edge eligibility checks.
    #[test]
    fn hostile_dimensions_stay_in_lockstep_across_engines() {
        let n = 90usize;
        let g = ErdosRenyi::with_expected_degree(n, 8.0).generate(41);
        // Take down one directed slot of roughly every fourth edge.
        let down: Vec<NodeId> = (0..g.num_edge_slots()).step_by(4).map(|s| s as NodeId).collect();
        let mut packed = Simulation::new(&g, 77).with_loss_probability(0.1);
        let mut unpacked = UnpackedSimulation::new(&g, 77);
        unpacked.set_loss_probability(0.1);
        for sim in [&mut packed as &mut dyn Engine, &mut unpacked as &mut dyn Engine] {
            sim.set_byzantine(&[3, 4, 5, 6]);
            sim.schedule_edge_outage(2, down.clone());
            sim.schedule_kill(4, vec![10, 11]);
            sim.schedule_edge_outage(6, Vec::new()); // full topology restored
        }
        for round in 0..10u64 {
            let mut transfers = Vec::new();
            for v in 0..n as NodeId {
                let a = packed.open_channel(v);
                let b = unpacked.open_channel(v);
                assert_eq!(a, b, "channel choice diverged at round {round}, node {v}");
                if let Some(u) = a {
                    transfers.push(Transfer::new(v, u));
                    transfers.push(Transfer::new(u, v));
                }
            }
            assert_eq!(packed.deliver(&transfers), unpacked.deliver(&transfers));
            packed.metrics_mut().finish_round();
            unpacked.metrics_mut().finish_round();
            assert_eq!(packed.metrics().total_packets(), unpacked.metrics().total_packets());
            assert_eq!(packed.fully_informed_count(), unpacked.fully_informed_count());
        }
        for v in 0..n as NodeId {
            assert_eq!(Engine::state(&packed, v), Engine::state(&unpacked, v), "state of {v}");
        }
        // A Byzantine node sent nothing in either engine.
        for &b in &[3u32, 4, 5, 6] {
            assert_eq!(packed.metrics().packets_per_node()[b as usize], 0);
            assert_eq!(unpacked.metrics().packets_per_node()[b as usize], 0);
        }
    }

    /// Streaming lockstep: scheduled injections and expiries under loss and
    /// churn must leave both engines with bit-identical states, per-rumor
    /// counts and flags — the engine-level half of the injection contract
    /// (neither engine draws for injections; schedules are data).
    #[test]
    fn streaming_injections_stay_in_lockstep_across_engines() {
        let n = 120usize;
        let universe = 24usize;
        let g = ErdosRenyi::with_expected_degree(n, 9.0).generate(29);
        let mut packed = Simulation::new_streaming(&g, 31, universe).with_loss_probability(0.15);
        let mut unpacked = UnpackedSimulation::new_streaming(&g, 31, universe);
        unpacked.set_loss_probability(0.15);
        for sim in [&mut packed as &mut dyn Engine, &mut unpacked as &mut dyn Engine] {
            for m in 0..universe as u32 {
                sim.schedule_injection(m as u64 % 6, ((m * 11) % n as u32) as NodeId, m);
            }
            sim.schedule_expiry(5, 2);
            sim.schedule_expiry(8, 7);
            sim.schedule_kill(3, vec![4, 5]);
            sim.schedule_crash(6, vec![9]);
            sim.track_message(0);
        }
        for round in 0..14u64 {
            let mut transfers = Vec::new();
            for v in 0..n as NodeId {
                let a = packed.open_channel(v);
                let b = unpacked.open_channel(v);
                assert_eq!(a, b, "channel choice diverged at round {round}, node {v}");
                if let Some(u) = a {
                    transfers.push(Transfer::new(v, u));
                    transfers.push(Transfer::new(u, v));
                }
            }
            assert_eq!(
                packed.deliver(&transfers),
                unpacked.deliver(&transfers),
                "delivery diverged at round {round}"
            );
            packed.metrics_mut().finish_round();
            unpacked.metrics_mut().finish_round();
            for m in 0..universe as u32 {
                assert_eq!(
                    packed.rumor_informed_count(m),
                    unpacked.rumor_informed_count(m),
                    "per-rumor count diverged at round {round}, rumor {m}"
                );
                assert_eq!(packed.rumor_injected(m), unpacked.rumor_injected(m));
                assert_eq!(packed.rumor_expired(m), unpacked.rumor_expired(m));
                assert_eq!(packed.rumor_complete(m), unpacked.rumor_complete(m));
            }
            assert_eq!(packed.fully_informed_count(), unpacked.fully_informed_count());
            assert_eq!(packed.tracked_informed_count(), unpacked.tracked_informed_count());
        }
        for v in 0..n as NodeId {
            assert_eq!(Engine::state(&packed, v), Engine::state(&unpacked, v), "state of {v}");
        }
        assert!(packed.rumor_expired(2) && packed.rumor_expired(7));
        assert_eq!(packed.rumor_informed_count(2), 0, "expired rumor never reappears");
    }

    #[test]
    fn dense_mask_fallback_matches_packed_fallback() {
        // Kill all but one neighbor so rejection sampling usually fails and
        // both engines take their exact fallback path.
        let g = CompleteGraph::new(40).generate(0);
        let mut packed = Simulation::new(&g, 4);
        let mut unpacked = UnpackedSimulation::new(&g, 4);
        let departed: Vec<NodeId> = (2..40).collect();
        packed.kill_nodes(&departed);
        Engine::kill_nodes(&mut unpacked, &departed);
        for _ in 0..50 {
            assert_eq!(packed.open_channel(0), unpacked.open_channel(0));
        }
        // With every neighbor departed, both report isolation identically.
        packed.kill_nodes(&[1]);
        Engine::kill_nodes(&mut unpacked, &[1]);
        assert_eq!(packed.open_channel(0), None);
        assert_eq!(unpacked.open_channel(0), None);
    }
}
