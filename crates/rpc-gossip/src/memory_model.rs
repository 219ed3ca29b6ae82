//! Algorithm 2: gossiping in the memory model (Section 4).
//!
//! Each node may remember up to four previously contacted neighbours and can
//! avoid them (`open-avoid`) or deliberately reuse them. The algorithm:
//!
//! * **Phase I** — starting from a leader, a communication tree is built in
//!   *long-steps* of four steps each: a node informed in long-step `j`
//!   contacts four (distinct, avoided) neighbours in long-step `j+1` and
//!   remembers whom it contacted and when. A short pull period lets the
//!   remaining uninformed nodes attach themselves to the tree.
//! * **Phase II** — the tree edges are replayed *backwards in time*, so every
//!   node's original message travels along its tree path to the leader, which
//!   ends up knowing all messages.
//! * **Phase III** — the leader broadcasts the combined messages using the
//!   Phase I procedure again.
//!
//! Theorem 2: `O(log n)` time and `O(n)` message transmissions (plus
//! `O(n log log n)` if a leader has to be elected first). Theorem 3 analyses
//! robustness against random node failures when the tree construction is run
//! multiple times independently; the experiments of Figures 2, 3 and 5 use
//! three independent trees and fail nodes between Phase I and Phase II.
//!
//! The per-round bodies live in three small private sub-machines —
//! `TreeBuilder` (Phase I), `GatherReplay` (Phase II), `BroadcastBack`
//! (Phase III) — and only the resumable [`MemoryDriver`] steps them. The
//! robustness run ([`MemoryGossip::run_with_failures`]) steps the same
//! driver to the end of Phase I, fails nodes, and steps on to the end of
//! Phase II.

use std::collections::HashMap;

use rpc_graphs::{Graph, NodeId};

use rpc_engine::{sample_failures, ContactLists, Engine, Simulation, Transfer};

use crate::config::MemoryGossipConfig;
use crate::outcome::GossipOutcome;
use crate::runner::{run_driver, GossipAlgorithm, ProtocolDriver, StepStatus};

/// Algorithm 2 (memory-model gossiping).
#[derive(Clone, Copy, Debug)]
pub struct MemoryGossip {
    config: MemoryGossipConfig,
    leader: Option<NodeId>,
}

/// The record of one Phase I tree construction, used to replay the tree
/// backwards in Phase II.
#[derive(Clone, Debug)]
struct TreeRecord {
    /// Contact lists `l_v`: whom each node contacted, and in which step.
    contacts: ContactLists,
    /// For nodes informed during the pull period: the step and the parent
    /// they pulled the leader message from (stored in `l_v[0]` in the paper).
    pull_parent: Vec<Option<(u64, NodeId)>>,
    /// Total number of Phase I steps of this tree (push + pull).
    total_steps: u64,
    /// Which nodes were reached by the tree at all.
    covered: Vec<bool>,
}

/// In-progress Phase I tree construction: one [`TreeBuilder::push_round`] or
/// [`TreeBuilder::pull_round`] call per synchronous step.
#[derive(Clone, Debug)]
struct TreeBuilder {
    record: TreeRecord,
    /// Which nodes hold the leader message.
    has_msg: Vec<bool>,
    /// Nodes informed in the previous long-step (active in the current one).
    active: Vec<NodeId>,
    /// Nodes newly informed in the current long-step.
    newly: Vec<NodeId>,
    /// Pull steps executed so far.
    pull_step: usize,
}

impl TreeBuilder {
    fn new(n: usize, leader: NodeId) -> Self {
        let mut record = TreeRecord {
            contacts: ContactLists::new(n),
            pull_parent: vec![None; n],
            total_steps: 0,
            covered: vec![false; n],
        };
        record.covered[leader as usize] = true;
        let mut has_msg = vec![false; n];
        has_msg[leader as usize] = true;
        Self { record, has_msg, active: vec![leader], newly: Vec::new(), pull_step: 0 }
    }

    /// One push step: every node informed in the previous long-step contacts
    /// its `k`-th avoided neighbour of the current long-step.
    fn push_round<E: Engine>(&mut self, sim: &mut E, k: usize) {
        self.record.total_steps += 1;
        let step = self.record.total_steps;
        for &v in &self.active {
            let avoid = self.record.contacts.get(v).addresses();
            if let Some(u) = sim.open_channel_avoiding(v, &avoid) {
                sim.metrics_mut().record_packet(v);
                sim.metrics_mut().record_exchange(v);
                self.record.contacts.get_mut(v).store(k, u, step);
                if sim.is_alive(u) && !self.has_msg[u as usize] {
                    self.has_msg[u as usize] = true;
                    self.record.covered[u as usize] = true;
                    self.newly.push(u);
                }
            }
        }
        sim.metrics_mut().finish_round();
    }

    /// Ends a long-step: the nodes informed during it become the active set.
    fn end_long_step(&mut self) {
        self.active = std::mem::take(&mut self.newly);
    }

    /// Whether the pull period may end. The paper runs `⌊2 log log n⌋` pull
    /// steps; we keep pulling (up to a safety cap) until every alive node
    /// joined the tree, matching the simulation note that the dissemination
    /// phases are run to completion.
    fn pull_done<E: Engine>(&self, sim: &E, config: &MemoryGossipConfig) -> bool {
        let n = sim.num_nodes();
        let all_covered = (0..n).all(|v| self.has_msg[v] || !sim.is_alive(v as NodeId));
        self.pull_step >= config.phase1_pull_steps
            && (all_covered || self.pull_step >= config.phase3_max_pull_steps)
    }

    /// One pull step: every node without the leader message opens an avoided
    /// channel; if the contacted node is informed, the message is pulled.
    fn pull_round<E: Engine>(&mut self, sim: &mut E) {
        let n = sim.num_nodes();
        self.record.total_steps += 1;
        self.pull_step += 1;
        let step = self.record.total_steps;
        let mut newly: Vec<(NodeId, NodeId)> = Vec::new();
        for v in 0..n as NodeId {
            if self.has_msg[v as usize] || !sim.is_alive(v) {
                continue;
            }
            let avoid = self.record.contacts.get(v).addresses();
            if let Some(u) = sim.open_channel_avoiding(v, &avoid) {
                self.record.contacts.get_mut(v).store((step % 4) as usize, u, step);
                if self.has_msg[u as usize] && sim.is_alive(u) {
                    // u answers the open channel with a pull transmission.
                    sim.metrics_mut().record_packet(u);
                    sim.metrics_mut().record_exchange(v);
                    newly.push((v, u));
                }
            }
        }
        for (v, u) in newly {
            self.has_msg[v as usize] = true;
            self.record.covered[v as usize] = true;
            self.record.pull_parent[v as usize] = Some((step, u));
            self.record.contacts.get_mut(v).store(0, u, step);
        }
        sim.metrics_mut().finish_round();
    }
}

/// Phase II replay bookkeeping for one tree: the tree's contact events
/// grouped by step, so each reversed step is O(#contacts of that step).
#[derive(Clone, Debug)]
struct GatherReplay {
    pulls_by_step: HashMap<u64, Vec<(NodeId, NodeId)>>,
    contacts_by_step: HashMap<u64, Vec<(NodeId, NodeId)>>,
    total_steps: u64,
}

impl GatherReplay {
    fn new(tree: &TreeRecord) -> Self {
        let mut pulls_by_step: HashMap<u64, Vec<(NodeId, NodeId)>> = HashMap::new();
        for (v, pull) in tree.pull_parent.iter().enumerate() {
            if let Some((step, parent)) = *pull {
                pulls_by_step.entry(step).or_default().push((v as NodeId, parent));
            }
        }
        let mut contacts_by_step: HashMap<u64, Vec<(NodeId, NodeId)>> = HashMap::new();
        for s in 1..=tree.total_steps {
            let list = tree.contacts.nodes_with_step(s);
            if !list.is_empty() {
                contacts_by_step.insert(s, list);
            }
        }
        Self { pulls_by_step, contacts_by_step, total_steps: tree.total_steps }
    }

    /// Replays reversed step `t` (forward index, `1..=total_steps`; the tree
    /// step replayed is `total_steps + 1 - t`).
    fn round<E: Engine>(&self, sim: &mut E, t: u64, transfers: &mut Vec<Transfer>) {
        let rev = self.total_steps + 1 - t;
        transfers.clear();
        // Nodes that pulled the leader message in step `rev` push all
        // original messages they have to the parent they pulled from.
        if let Some(pulls) = self.pulls_by_step.get(&rev) {
            for &(v, parent) in pulls {
                if !sim.is_alive(v) {
                    continue;
                }
                sim.metrics_mut().record_channel_open(v);
                sim.metrics_mut().record_exchange(v);
                transfers.push(Transfer::new(v, parent));
            }
        }
        // Nodes that contacted a neighbour in step `rev` re-open that
        // channel; the neighbour answers with all original messages it has.
        if let Some(contacts) = self.contacts_by_step.get(&rev) {
            for &(v, u) in contacts {
                if !sim.is_alive(v) {
                    continue;
                }
                sim.metrics_mut().record_channel_open(v);
                if sim.is_alive(u) {
                    sim.metrics_mut().record_exchange(v);
                    transfers.push(Transfer::new(u, v));
                }
            }
        }
        sim.deliver(transfers);
        sim.metrics_mut().finish_round();
    }
}

/// In-progress Phase III broadcast: the leader re-runs the Phase I procedure,
/// this time delivering the payload into the node states.
#[derive(Clone, Debug)]
struct BroadcastBack {
    contacts: ContactLists,
    has_msg: Vec<bool>,
    active: Vec<NodeId>,
    newly: Vec<NodeId>,
    /// Closing pull steps executed so far.
    pull_steps: usize,
}

impl BroadcastBack {
    fn new(n: usize, leader: NodeId) -> Self {
        let mut has_msg = vec![false; n];
        has_msg[leader as usize] = true;
        Self {
            contacts: ContactLists::new(n),
            has_msg,
            active: vec![leader],
            newly: Vec::new(),
            pull_steps: 0,
        }
    }

    /// One broadcast push step (`k`-th of its long-step), payload delivered.
    fn push_round<E: Engine>(&mut self, sim: &mut E, k: usize, transfers: &mut Vec<Transfer>) {
        transfers.clear();
        for &v in &self.active {
            let avoid = self.contacts.get(v).addresses();
            if let Some(u) = sim.open_channel_avoiding(v, &avoid) {
                self.contacts.get_mut(v).store(k, u, 0);
                sim.metrics_mut().record_exchange(v);
                transfers.push(Transfer::new(v, u));
                if sim.is_alive(u) && !self.has_msg[u as usize] {
                    self.has_msg[u as usize] = true;
                    self.newly.push(u);
                }
            }
        }
        sim.deliver(transfers);
        sim.metrics_mut().finish_round();
    }

    /// Ends a long-step: the nodes informed during it become the active set.
    fn end_long_step(&mut self) {
        self.active = std::mem::take(&mut self.newly);
    }

    /// Whether every alive node has received the broadcast.
    fn pull_done<E: Engine>(&self, sim: &E) -> bool {
        let n = sim.num_nodes();
        (0..n).all(|v| self.has_msg[v] || !sim.is_alive(v as NodeId))
    }

    /// One closing pull step.
    fn pull_round<E: Engine>(&mut self, sim: &mut E, transfers: &mut Vec<Transfer>) {
        let n = sim.num_nodes();
        transfers.clear();
        let mut newly: Vec<NodeId> = Vec::new();
        for v in 0..n as NodeId {
            if self.has_msg[v as usize] || !sim.is_alive(v) {
                continue;
            }
            let avoid = self.contacts.get(v).addresses();
            if let Some(u) = sim.open_channel_avoiding(v, &avoid) {
                self.contacts.get_mut(v).store(self.pull_steps % 4, u, 0);
                if self.has_msg[u as usize] && sim.is_alive(u) {
                    sim.metrics_mut().record_exchange(v);
                    transfers.push(Transfer::new(u, v));
                    newly.push(v);
                }
            }
        }
        sim.deliver(transfers);
        for v in newly {
            self.has_msg[v as usize] = true;
        }
        sim.metrics_mut().finish_round();
        self.pull_steps += 1;
    }
}

impl MemoryGossip {
    /// Memory-model gossiping with an explicit configuration. The leader is a
    /// uniformly random node unless overridden with [`Self::with_leader`].
    pub fn new(config: MemoryGossipConfig) -> Self {
        Self { config, leader: None }
    }

    /// Memory-model gossiping with the Table 1 constants for `n` nodes.
    pub fn paper(n: usize) -> Self {
        Self::new(MemoryGossipConfig::paper_defaults(n))
    }

    /// Fixes the leader node (by default a uniformly random node acts as the
    /// leader, as assumed by the paper).
    pub fn with_leader(mut self, leader: NodeId) -> Self {
        self.leader = Some(leader);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemoryGossipConfig {
        &self.config
    }

    fn pick_leader<E: Engine>(&self, sim: &mut E) -> NodeId {
        use rand::Rng;
        let n = sim.num_nodes() as NodeId;
        self.leader.unwrap_or_else(|| sim.rng_mut().gen_range(0..n))
    }

    /// Runs the complete algorithm with `failures` uniformly random node
    /// failures injected between Phase I (tree construction) and Phase II
    /// (gathering), exactly as in the robustness experiments of Figures 2, 3
    /// and 5. The leader itself never fails (a failed leader loses everything
    /// trivially and is excluded by the experiments). Phase III is skipped —
    /// the measured quantity is which original messages reached the leader.
    ///
    /// The returned outcome's [`GossipOutcome::lost_messages`] is the number
    /// of *healthy* non-leader nodes whose original message is missing at the
    /// leader, and [`GossipOutcome::additional_loss_ratio`] is the y-value of
    /// Figures 2 and 3.
    pub fn run_with_failures(&self, graph: &Graph, seed: u64, failures: usize) -> GossipOutcome {
        let mut sim = Simulation::new(graph, seed);
        self.run_with_failures_on(&mut sim, failures)
    }

    /// [`Self::run_with_failures`] on a caller-prepared simulation — the
    /// entry point arena-backed sweep drivers use (the simulation may be
    /// checked out of a [`rpc_engine::SimulationArena`]). Consumes randomness
    /// identically to `run_with_failures`, so both produce bit-identical
    /// outcomes for the same `(graph, seed)`.
    ///
    /// A [`MemoryDriver`] runs both phases: it is stepped until the
    /// `phase1-trees` marker, the failures land, and it is stepped on until
    /// the `phase2-gather` marker.
    pub fn run_with_failures_on(&self, sim: &mut Simulation<'_>, failures: usize) -> GossipOutcome {
        let mut driver = MemoryDriver::new(*self);
        // Starting before the first step lets `trees: 0` mark its empty
        // phases without running a round.
        let leader = driver.start(sim);
        driver.step_until_phase(sim, "phase1-trees");

        // Fail `failures` random non-leader nodes.
        let n = sim.num_nodes();
        let failed: Vec<NodeId> = if failures > 0 {
            let mut candidates = sample_failures(n, (failures + 1).min(n), sim.rng_mut());
            candidates.retain(|&v| v != leader);
            candidates.truncate(failures);
            candidates
        } else {
            Vec::new()
        };
        sim.fail_nodes(&failed);
        driver.step_until_phase(sim, "phase2-gather");

        // Count healthy original messages missing at the leader.
        let leader_state = sim.state(leader);
        let mut lost = 0usize;
        for v in 0..n as NodeId {
            if v == leader || !sim.is_alive(v) {
                continue;
            }
            if !leader_state.contains(v) {
                lost += 1;
            }
        }
        GossipOutcome::from_metrics(
            sim.metrics(),
            lost == 0,
            sim.fully_informed_count(),
            lost,
            failed.len(),
        )
    }
}

/// Where the [`MemoryDriver`] is inside Algorithm 2's schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MmState {
    /// Before the first round; the leader draw happens in the first `step`.
    Init,
    /// Phase I, tree `tree`: push step `k` of long-step `long_step`.
    TreePush { tree: usize, long_step: usize, k: usize },
    /// Phase I, tree `tree`: pull period.
    TreePull { tree: usize },
    /// Phase II, replaying tree `tree`, forward index `t` (1-based).
    Gather { tree: usize, t: u64 },
    /// Phase III: broadcast push step `k` of long-step `long_step`.
    BroadcastPush { long_step: usize, k: usize },
    /// Phase III: closing pull steps.
    BroadcastPull,
    /// Schedule exhausted.
    Finished,
}

/// The resumable [`ProtocolDriver`] for Algorithm 2 (memory-model gossiping).
///
/// Tree construction, the backwards replay and the closing broadcast become
/// explicit per-round states; the contact lists, partial tree records and
/// replay indices live in the driver, so the scenario engine can stop, trace
/// or budget the protocol between any two rounds. The leader draw (one RNG
/// value when no leader is fixed) happens inside the first `step` call,
/// before any round.
#[derive(Clone, Debug)]
pub struct MemoryDriver {
    alg: MemoryGossip,
    state: MmState,
    leader: Option<NodeId>,
    builder: Option<TreeBuilder>,
    trees: Vec<TreeRecord>,
    replay: Option<GatherReplay>,
    broadcast: Option<BroadcastBack>,
    transfers: Vec<Transfer>,
}

impl MemoryDriver {
    /// A driver for `alg`, positioned before the first Phase I round.
    pub fn new(alg: MemoryGossip) -> Self {
        Self {
            alg,
            state: MmState::Init,
            leader: None,
            builder: None,
            trees: Vec::new(),
            replay: None,
            broadcast: None,
            transfers: Vec::new(),
        }
    }

    /// Draws the leader (unless fixed) and positions the driver before its
    /// first round. With `trees: 0`, Phases I and II are empty, so both their
    /// markers land here. Called by the first `step`, or up front by
    /// [`MemoryGossip::run_with_failures_on`]; returns the leader.
    fn start<E: Engine>(&mut self, sim: &mut E) -> NodeId {
        let leader = self.alg.pick_leader(sim);
        self.leader = Some(leader);
        if self.alg.config.trees == 0 {
            // Degenerate configuration: no trees, so Phases I and II are
            // empty and the broadcast starts immediately.
            sim.metrics_mut().mark_phase("phase1-trees");
            sim.metrics_mut().mark_phase("phase2-gather");
            self.broadcast = Some(BroadcastBack::new(sim.num_nodes(), leader));
            self.state = MmState::BroadcastPush { long_step: 0, k: 0 };
        } else {
            self.builder = Some(TreeBuilder::new(sim.num_nodes(), leader));
            self.state = MmState::TreePush { tree: 0, long_step: 0, k: 0 };
        }
        leader
    }

    /// Steps until the engine holds the phase marker `label` (or the
    /// schedule is exhausted).
    fn step_until_phase<E: Engine>(&mut self, sim: &mut E, label: &str) {
        while !sim.metrics().phases().iter().any(|p| p.label == label)
            && self.step(sim) == StepStatus::Running
        {}
    }

    /// Crosses every phase boundary the current position has reached: ends
    /// long-steps, finalises trees, prepares the replay/broadcast machinery,
    /// marks phase snapshots and skips zero-length segments. Draws no
    /// randomness.
    fn advance_boundaries<E: Engine>(&mut self, sim: &mut E) {
        let config = self.alg.config;
        let push_long_steps = config.phase1_push_steps / 4;
        let broadcast_long_steps = config.phase3_push_steps / 4;
        loop {
            match self.state {
                MmState::TreePush { tree, long_step, k } if k >= 4 => {
                    self.builder.as_mut().expect("builder present during Phase I").end_long_step();
                    self.state = MmState::TreePush { tree, long_step: long_step + 1, k: 0 };
                }
                MmState::TreePush { tree, long_step, k: 0 } if long_step >= push_long_steps => {
                    self.state = MmState::TreePull { tree };
                }
                MmState::TreePull { tree }
                    if self
                        .builder
                        .as_ref()
                        .expect("builder present during Phase I")
                        .pull_done(sim, &config) =>
                {
                    let builder = self.builder.take().expect("builder present during Phase I");
                    self.trees.push(builder.record);
                    let next = tree + 1;
                    if next < config.trees {
                        let leader = self.leader.expect("leader picked in the first step");
                        self.builder = Some(TreeBuilder::new(sim.num_nodes(), leader));
                        self.state = MmState::TreePush { tree: next, long_step: 0, k: 0 };
                    } else {
                        sim.metrics_mut().mark_phase("phase1-trees");
                        self.replay = Some(GatherReplay::new(&self.trees[0]));
                        self.state = MmState::Gather { tree: 0, t: 1 };
                    }
                }
                MmState::Gather { tree, t }
                    if t > self
                        .replay
                        .as_ref()
                        .expect("replay present during Phase II")
                        .total_steps =>
                {
                    let next = tree + 1;
                    if next < self.trees.len() {
                        self.replay = Some(GatherReplay::new(&self.trees[next]));
                        self.state = MmState::Gather { tree: next, t: 1 };
                    } else {
                        sim.metrics_mut().mark_phase("phase2-gather");
                        let leader = self.leader.expect("leader picked in the first step");
                        self.broadcast = Some(BroadcastBack::new(sim.num_nodes(), leader));
                        self.state = MmState::BroadcastPush { long_step: 0, k: 0 };
                    }
                }
                MmState::BroadcastPush { long_step, k } if k >= 4 => {
                    self.broadcast
                        .as_mut()
                        .expect("broadcast present during Phase III")
                        .end_long_step();
                    self.state = MmState::BroadcastPush { long_step: long_step + 1, k: 0 };
                }
                MmState::BroadcastPush { long_step, k: 0 } if long_step >= broadcast_long_steps => {
                    self.state = MmState::BroadcastPull;
                }
                MmState::BroadcastPull
                    if {
                        let bc =
                            self.broadcast.as_ref().expect("broadcast present during Phase III");
                        bc.pull_steps >= config.phase3_max_pull_steps || bc.pull_done(sim)
                    } =>
                {
                    sim.metrics_mut().mark_phase("phase3-broadcast");
                    self.state = MmState::Finished;
                }
                _ => break,
            }
        }
    }
}

impl ProtocolDriver for MemoryDriver {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn finished<E: Engine>(&self, _sim: &E) -> bool {
        self.state == MmState::Finished
    }

    fn step<E: Engine>(&mut self, sim: &mut E) -> StepStatus {
        if self.state == MmState::Init {
            self.start(sim);
        }
        self.advance_boundaries(sim);
        match self.state {
            MmState::Finished => return StepStatus::Done,
            MmState::Init => unreachable!("Init is resolved above"),
            MmState::TreePush { tree, long_step, k } => {
                self.builder.as_mut().expect("builder present during Phase I").push_round(sim, k);
                self.state = MmState::TreePush { tree, long_step, k: k + 1 };
            }
            MmState::TreePull { .. } => {
                self.builder.as_mut().expect("builder present during Phase I").pull_round(sim);
            }
            MmState::Gather { tree, t } => {
                self.replay.as_ref().expect("replay present during Phase II").round(
                    sim,
                    t,
                    &mut self.transfers,
                );
                self.state = MmState::Gather { tree, t: t + 1 };
            }
            MmState::BroadcastPush { long_step, k } => {
                self.broadcast.as_mut().expect("broadcast present during Phase III").push_round(
                    sim,
                    k,
                    &mut self.transfers,
                );
                self.state = MmState::BroadcastPush { long_step, k: k + 1 };
            }
            MmState::BroadcastPull => {
                self.broadcast
                    .as_mut()
                    .expect("broadcast present during Phase III")
                    .pull_round(sim, &mut self.transfers);
            }
        }
        // Cross any boundary this round just reached, so phase markers land
        // right after a phase's last round and `finished` flips with it.
        self.advance_boundaries(sim);
        StepStatus::Running
    }
}

impl GossipAlgorithm for MemoryGossip {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn run(&self, graph: &Graph, seed: u64) -> GossipOutcome {
        let mut sim = Simulation::new(graph, seed);
        run_driver(&mut MemoryDriver::new(*self), &mut sim);
        GossipOutcome::from_engine(&sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpc_engine::Accounting;
    use rpc_graphs::prelude::*;

    #[test]
    fn completes_on_paper_density_random_graph() {
        let n = 512;
        let g = ErdosRenyi::paper_density(n).generate(1);
        let outcome = MemoryGossip::paper(n).run(&g, 2);
        assert!(outcome.completed(), "leader-based gossiping did not complete");
        assert_eq!(outcome.fully_informed(), n);
    }

    #[test]
    fn completes_on_complete_graph() {
        let n = 256;
        let g = CompleteGraph::new(n).generate(0);
        let outcome = MemoryGossip::paper(n).run(&g, 3);
        assert!(outcome.completed());
    }

    #[test]
    fn message_count_per_node_is_a_small_constant() {
        // Theorem 2 / Figure 1: O(n) transmissions overall, i.e. O(1) per node;
        // the paper's measured value stays below 5, ours below a slightly
        // looser constant that is still far below log n.
        let n = 2048;
        let g = ErdosRenyi::paper_density(n).generate(4);
        let outcome = MemoryGossip::paper(n).run(&g, 5);
        assert!(outcome.completed());
        let per_node = outcome.messages_per_node(Accounting::PerPacket);
        assert!(
            per_node < 12.0,
            "memory model should use O(1) messages per node, got {per_node:.2}"
        );
        assert!(per_node < 0.6 * (n as f64).log2());
    }

    #[test]
    fn gather_collects_every_message_at_the_leader() {
        let n = 512;
        let g = ErdosRenyi::paper_density(n).generate(6);
        let mut driver = MemoryDriver::new(MemoryGossip::paper(n).with_leader(0));
        let mut sim = Simulation::new(&g, 7);
        driver.step_until_phase(&mut sim, "phase2-gather");
        assert_eq!(driver.trees.len(), 1);
        assert!(driver.trees[0].covered.iter().all(|&c| c), "tree must reach every node");
        assert!(sim.is_fully_informed(0), "leader is missing messages after the gather phase");
    }

    #[test]
    fn fixed_leader_is_respected() {
        let n = 128;
        let g = ErdosRenyi::paper_density(n).generate(8);
        let outcome = MemoryGossip::paper(n).with_leader(17).run(&g, 9);
        assert!(outcome.completed());
    }

    #[test]
    fn manual_steps_match_run() {
        // `run` is a loop over the driver; stepping manually — with
        // interleaved read-only queries, as the scenario engine does — must
        // reproduce it exactly.
        let n = 256;
        let g = ErdosRenyi::paper_density(n).generate(15);
        let run = MemoryGossip::paper(n).run(&g, 16);

        let mut sim = Simulation::new(&g, 16);
        let mut driver = MemoryDriver::new(MemoryGossip::paper(n));
        let mut rounds = 0u64;
        while !driver.finished(&sim) {
            // Interleave the kind of read-only queries a stop rule performs.
            let _ = sim.fully_informed_count();
            match driver.step(&mut sim) {
                StepStatus::Done => break,
                StepStatus::Running => rounds += 1,
            }
        }
        assert_eq!(rounds, run.rounds());
        assert_eq!(sim.metrics().rounds(), run.rounds());
        assert_eq!(sim.metrics().total_packets(), run.total_packets());
        assert_eq!(sim.metrics().total_exchanges(), run.total_exchanges());
        assert!(sim.gossip_complete());
        let labels: Vec<_> = sim.metrics().phases().iter().map(|p| p.label.clone()).collect();
        assert_eq!(labels, vec!["phase1-trees", "phase2-gather", "phase3-broadcast"]);
    }

    #[test]
    fn without_failures_nothing_is_lost() {
        let n = 256;
        let g = ErdosRenyi::paper_density(n).generate(10);
        let outcome = MemoryGossip::paper(n).with_trees_helper(3).run_with_failures(&g, 11, 0);
        assert_eq!(outcome.lost_messages(), 0);
        assert_eq!(outcome.failed_nodes(), 0);
        assert!(outcome.completed());
        assert_eq!(outcome.additional_loss_ratio(), None);
    }

    #[test]
    fn failures_lose_only_a_bounded_number_of_additional_messages() {
        // Figure 2: the ratio of additionally lost healthy messages to failed
        // nodes stays small (the paper observes values up to ~2.5).
        let n = 1024;
        let g = ErdosRenyi::paper_density(n).generate(12);
        let failures = 50;
        let outcome =
            MemoryGossip::paper(n).with_trees_helper(3).run_with_failures(&g, 13, failures);
        assert_eq!(outcome.failed_nodes(), failures);
        let ratio = outcome.additional_loss_ratio().unwrap();
        assert!(ratio < 4.0, "loss ratio {ratio:.2} implausibly high");
    }

    #[test]
    fn more_trees_lose_fewer_messages() {
        let n = 1024;
        let g = ErdosRenyi::paper_density(n).generate(14);
        let failures = 120;
        let mut one_tree_losses = 0usize;
        let mut three_tree_losses = 0usize;
        for seed in 0..3u64 {
            one_tree_losses += MemoryGossip::paper(n)
                .with_trees_helper(1)
                .run_with_failures(&g, 20 + seed, failures)
                .lost_messages();
            three_tree_losses += MemoryGossip::paper(n)
                .with_trees_helper(3)
                .run_with_failures(&g, 20 + seed, failures)
                .lost_messages();
        }
        assert!(
            three_tree_losses <= one_tree_losses,
            "3 trees ({three_tree_losses}) should not lose more than 1 tree ({one_tree_losses})"
        );
    }

    impl MemoryGossip {
        /// Test helper: same algorithm with a different tree count.
        fn with_trees_helper(mut self, trees: usize) -> Self {
            self.config = self.config.with_trees(trees);
            self
        }
    }
}
