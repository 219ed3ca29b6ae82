//! Algorithm 3: randomized leader election in the memory model (Section 4.1).
//!
//! Every node becomes a *possible leader* with probability `log² n / n` and
//! starts broadcasting its identifier with `open-avoid` push steps; nodes
//! forward the smallest identifier they have seen. After
//! `log n + ρ log log n` push steps, `ρ log log n` pull steps let every node
//! learn the smallest candidate identifier. The unique node whose own
//! identifier equals the smallest seen identifier becomes the leader
//! (Lemma 18), and the procedure tolerates `n^{ε'}` random node failures
//! (Lemma 19).

use rand::Rng;
use rpc_graphs::{Graph, NodeId};

use rpc_engine::{sample_failures, ContactLists, Engine, Simulation};

use crate::config::LeaderElectionConfig;
use crate::runner::{run_driver, ProtocolDriver, StepStatus};

/// Result of one leader-election run.
#[derive(Clone, Debug)]
pub struct ElectionOutcome {
    /// The elected leader, if exactly one node considers itself the leader.
    pub leader: Option<NodeId>,
    /// Number of alive nodes that consider themselves the leader (1 on
    /// success).
    pub self_declared: usize,
    /// Number of nodes that declared themselves candidates.
    pub candidates: usize,
    /// Number of alive nodes that know the winning identifier at the end
    /// ("aware of the leader", Lemma 18).
    pub aware_nodes: usize,
    /// Number of alive nodes.
    pub alive_nodes: usize,
    /// Number of synchronous steps executed.
    pub rounds: u64,
    /// Total identifier packets sent.
    pub total_packets: u64,
    /// Total channels opened.
    pub channels_opened: u64,
}

impl ElectionOutcome {
    /// Whether election succeeded: exactly one self-declared leader and every
    /// alive node is aware of it.
    pub fn succeeded(&self) -> bool {
        self.leader.is_some() && self.aware_nodes == self.alive_nodes
    }

    /// Average number of identifier packets sent per node.
    pub fn messages_per_node(&self) -> f64 {
        if self.alive_nodes == 0 {
            0.0
        } else {
            self.total_packets as f64 / self.alive_nodes as f64
        }
    }
}

/// Algorithm 3 (leader election).
#[derive(Clone, Copy, Debug)]
pub struct LeaderElection {
    config: LeaderElectionConfig,
}

impl LeaderElection {
    /// Leader election with an explicit configuration.
    pub fn new(config: LeaderElectionConfig) -> Self {
        Self { config }
    }

    /// Leader election with the default constants for `n` nodes.
    pub fn paper(n: usize) -> Self {
        Self::new(LeaderElectionConfig::paper_defaults(n))
    }

    /// Runs the election without failures.
    pub fn run(&self, graph: &Graph, seed: u64) -> ElectionOutcome {
        self.run_with_failures(graph, seed, 0)
    }

    /// Runs the election with `failures` uniformly random nodes failing before
    /// the algorithm starts (the non-malicious failure model of Lemma 19):
    /// the failures are drawn from the engine RNG, then a
    /// [`LeaderElectionDriver`] runs its schedule.
    pub fn run_with_failures(&self, graph: &Graph, seed: u64, failures: usize) -> ElectionOutcome {
        let n = graph.num_nodes();
        let mut sim = Simulation::new(graph, seed);
        let failed = sample_failures(n, failures.min(n), sim.rng_mut());
        sim.fail_nodes(&failed);
        let mut driver = LeaderElectionDriver::new(self.config, n);
        run_driver(&mut driver, &mut sim);
        let summary = driver.election_summary().expect("summary cached once the schedule ends");
        ElectionOutcome {
            leader: summary.leader,
            self_declared: summary.self_declared,
            candidates: summary.candidates,
            aware_nodes: summary.aware_nodes,
            alive_nodes: summary.alive_nodes,
            rounds: sim.metrics().rounds(),
            total_packets: sim.metrics().total_packets(),
            channels_opened: sim.metrics().channels_opened(),
        }
    }
}

/// The distilled result of a driver-run election, carried on the scenario
/// outcome so registry scenarios can assert the paper's success predicate
/// (Lemma 18: a unique leader every alive node is aware of) without
/// re-running the election.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElectionSummary {
    /// The elected leader, if exactly one node considers itself the leader.
    pub leader: Option<NodeId>,
    /// Number of nodes that consider themselves the leader (1 on success).
    pub self_declared: usize,
    /// Number of nodes that declared themselves candidates.
    pub candidates: usize,
    /// Number of participating nodes aware of the leader at the end.
    pub aware_nodes: usize,
    /// Number of participating nodes at the end.
    pub alive_nodes: usize,
}

impl ElectionSummary {
    /// Whether election succeeded: exactly one self-declared leader and every
    /// participating node is aware of it (the same predicate as
    /// [`ElectionOutcome::succeeded`]).
    pub fn succeeded(&self) -> bool {
        self.leader.is_some() && self.aware_nodes == self.alive_nodes
    }
}

/// Where a [`LeaderElectionDriver`] is in Algorithm 3's schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ElectionStage {
    /// Candidate selection plus the candidates' initial push (one round).
    Candidacy,
    /// Push step `k` of `push_steps` (1-based).
    Push(u64),
    /// Pull step `k` of `pull_steps` (1-based).
    Pull(u64),
    /// Schedule exhausted; the summary is cached.
    Done,
}

/// The resumable [`ProtocolDriver`] for Algorithm 3: candidacy, then
/// `push_steps` push rounds, then `pull_steps` pull rounds, one per step.
/// Liveness comes from the engine's masks, so the scenario executor's
/// environment dimensions (crash bursts, per-round traces, stop rules) apply
/// uniformly, and every random draw (candidacy coin, `open-avoid` neighbour
/// choice) comes from the engine RNG, so runs are deterministic in the seed.
#[derive(Clone, Debug)]
pub struct LeaderElectionDriver {
    config: LeaderElectionConfig,
    stage: ElectionStage,
    /// Smallest identifier seen so far by each node (identifier of `v` is `v`).
    best: Vec<Option<NodeId>>,
    active: Vec<bool>,
    contacts: ContactLists,
    candidates: usize,
    arrivals: Vec<(NodeId, NodeId)>,
    summary: Option<ElectionSummary>,
}

impl LeaderElectionDriver {
    /// A driver for an `n`-node election with an explicit configuration.
    pub fn new(config: LeaderElectionConfig, n: usize) -> Self {
        Self {
            config,
            stage: ElectionStage::Candidacy,
            best: vec![None; n],
            active: vec![false; n],
            contacts: ContactLists::new(n),
            candidates: 0,
            arrivals: Vec::new(),
            summary: None,
        }
    }

    /// A driver with the paper's default constants for `n` nodes.
    pub fn paper(n: usize) -> Self {
        Self::new(LeaderElectionConfig::paper_defaults(n), n)
    }

    /// The cached election result; `Some` once the schedule is exhausted.
    pub fn summary(&self) -> Option<&ElectionSummary> {
        self.summary.as_ref()
    }

    fn merge_arrivals<E: Engine>(&mut self, sim: &E) {
        for &(to, id) in &self.arrivals {
            if !sim.is_participating(to) {
                continue;
            }
            self.active[to as usize] = true;
            self.best[to as usize] = Some(match self.best[to as usize] {
                Some(current) => current.min(id),
                None => id,
            });
        }
    }

    fn advance<E: Engine>(&mut self, sim: &E) {
        let push_steps = self.config.push_steps as u64;
        let pull_steps = self.config.pull_steps as u64;
        self.stage = match self.stage {
            ElectionStage::Candidacy if push_steps > 0 => ElectionStage::Push(1),
            ElectionStage::Push(step) if step < push_steps => ElectionStage::Push(step + 1),
            ElectionStage::Candidacy | ElectionStage::Push(_) if pull_steps > 0 => {
                ElectionStage::Pull(1)
            }
            ElectionStage::Pull(step) if step < pull_steps => ElectionStage::Pull(step + 1),
            _ => ElectionStage::Done,
        };
        if self.stage == ElectionStage::Done && self.summary.is_none() {
            self.summary = Some(self.evaluate(sim));
        }
    }

    fn evaluate<E: Engine>(&self, sim: &E) -> ElectionSummary {
        let n = sim.num_nodes();
        let self_declared: Vec<NodeId> = (0..n as NodeId)
            .filter(|&v| sim.is_participating(v) && self.best[v as usize] == Some(v))
            .collect();
        let leader = if self_declared.len() == 1 { Some(self_declared[0]) } else { None };
        let aware_nodes = match leader {
            Some(l) => (0..n as NodeId)
                .filter(|&v| sim.is_participating(v) && self.best[v as usize] == Some(l))
                .count(),
            None => 0,
        };
        let alive_nodes = (0..n as NodeId).filter(|&v| sim.is_participating(v)).count();
        ElectionSummary {
            leader,
            self_declared: self_declared.len(),
            candidates: self.candidates,
            aware_nodes,
            alive_nodes,
        }
    }
}

impl ProtocolDriver for LeaderElectionDriver {
    fn name(&self) -> &'static str {
        "leader-election"
    }

    fn finished<E: Engine>(&self, _sim: &E) -> bool {
        self.stage == ElectionStage::Done
    }

    fn succeeded<E: Engine>(&self, _sim: &E) -> bool {
        self.summary.is_some_and(|s| s.succeeded())
    }

    fn election_summary(&self) -> Option<ElectionSummary> {
        self.summary
    }

    fn step<E: Engine>(&mut self, sim: &mut E) -> StepStatus {
        if self.stage == ElectionStage::Done {
            return StepStatus::Done;
        }
        // Land scheduled crash/churn bursts before the stage body so a
        // round-0 failure regime excludes its victims from candidacy, like
        // the failures `LeaderElection::run_with_failures` applies up front.
        sim.apply_due_events();
        let n = sim.num_nodes();
        self.arrivals.clear();
        match self.stage {
            ElectionStage::Candidacy => {
                for v in 0..n as NodeId {
                    if !sim.is_participating(v)
                        || !sim.rng_mut().gen_bool(self.config.candidate_probability)
                    {
                        continue;
                    }
                    self.candidates += 1;
                    self.active[v as usize] = true;
                    self.best[v as usize] = Some(v);
                    let avoid = self.contacts.get(v).addresses();
                    if let Some(u) = sim.open_channel_avoiding(v, &avoid) {
                        sim.metrics_mut().record_packet(v);
                        sim.metrics_mut().record_exchange(v);
                        self.contacts.get_mut(v).store(0, u, 0);
                        self.arrivals.push((u, v));
                    }
                }
            }
            ElectionStage::Push(step) => {
                for v in 0..n as NodeId {
                    if !sim.is_participating(v) || !self.active[v as usize] {
                        continue;
                    }
                    let Some(id) = self.best[v as usize] else { continue };
                    let avoid = self.contacts.get(v).addresses();
                    if let Some(u) = sim.open_channel_avoiding(v, &avoid) {
                        sim.metrics_mut().record_packet(v);
                        sim.metrics_mut().record_exchange(v);
                        self.contacts.get_mut(v).store((step % 4) as usize, u, step);
                        self.arrivals.push((u, id));
                    }
                }
            }
            ElectionStage::Pull(step) => {
                for v in 0..n as NodeId {
                    let avoid = self.contacts.get(v).addresses();
                    if let Some(u) = sim.open_channel_avoiding(v, &avoid) {
                        self.contacts.get_mut(v).store((step % 4) as usize, u, 1000 + step);
                        if sim.is_participating(u) {
                            if let Some(id) = self.best[u as usize] {
                                sim.metrics_mut().record_packet(u);
                                sim.metrics_mut().record_exchange(v);
                                self.arrivals.push((v, id));
                            }
                        }
                    }
                }
            }
            ElectionStage::Done => unreachable!("early-returned above"),
        }
        sim.metrics_mut().finish_round();
        self.merge_arrivals(sim);
        self.advance(sim);
        StepStatus::Running
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpc_graphs::prelude::*;

    #[test]
    fn elects_exactly_one_leader_on_random_graphs() {
        let n = 1024;
        let g = ErdosRenyi::paper_density(n).generate(1);
        let outcome = LeaderElection::paper(n).run(&g, 2);
        assert!(outcome.succeeded(), "election failed: {outcome:?}");
        assert_eq!(outcome.self_declared, 1);
        // The winner is the candidate with the smallest identifier, and every
        // node ends up aware of it.
        assert_eq!(outcome.aware_nodes, n);
        assert!(outcome.candidates >= 1);
    }

    #[test]
    fn leader_is_the_smallest_candidate_id() {
        let n = 512;
        let g = ErdosRenyi::paper_density(n).generate(3);
        let outcome = LeaderElection::paper(n).run(&g, 4);
        let leader = outcome.leader.expect("leader elected");
        // No self-declared leader can have a larger id than the winner, and
        // the winner considers itself leader, so it is the minimum.
        assert_eq!(outcome.self_declared, 1, "{leader} is not the only self-declared leader");
    }

    #[test]
    fn candidate_count_concentrates_around_log_squared() {
        let n = 1 << 14;
        let g = ErdosRenyi::paper_density(n).generate(5);
        let outcome = LeaderElection::paper(n).run(&g, 6);
        let expected = (n as f64).log2().powi(2);
        assert!(
            (outcome.candidates as f64) > expected / 3.0
                && (outcome.candidates as f64) < expected * 3.0,
            "candidate count {} far from log^2 n = {expected:.0}",
            outcome.candidates
        );
    }

    #[test]
    fn message_complexity_is_order_n_loglog_n() {
        // Lemma 18: O(n log log n) transmissions. All nodes stay active for
        // the (ρ + O(1)) log log n closing push steps plus ρ log log n pull
        // steps, so the per-node constant is ≈ ρ + 4; with ρ = 2 allow 8.
        let n = 1 << 13;
        let g = ErdosRenyi::paper_density(n).generate(7);
        let outcome = LeaderElection::paper(n).run(&g, 8);
        assert!(outcome.succeeded());
        let per_node = outcome.messages_per_node();
        let loglog = (n as f64).log2().log2();
        assert!(
            per_node < 8.0 * loglog,
            "messages per node {per_node:.2} exceed 8 · log log n = {:.1}",
            8.0 * loglog
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let n = 256;
        let g = ErdosRenyi::paper_density(n).generate(9);
        let a = LeaderElection::paper(n).run(&g, 10);
        let b = LeaderElection::paper(n).run(&g, 10);
        assert_eq!(a.leader, b.leader);
        assert_eq!(a.total_packets, b.total_packets);
    }

    #[test]
    fn driver_elects_a_unique_known_leader_on_a_random_graph() {
        use rpc_engine::Simulation;

        let n = 1024;
        let g = ErdosRenyi::paper_density(n).generate(1);
        let mut sim = Simulation::new(&g, 2);
        let mut driver = LeaderElectionDriver::paper(n);
        assert!(!driver.finished(&sim));
        assert_eq!(driver.election_summary(), None);
        let rounds = crate::runner::run_driver(&mut driver, &mut sim);
        let config = LeaderElectionConfig::paper_defaults(n);
        assert_eq!(rounds, 1 + config.push_steps as u64 + config.pull_steps as u64);
        assert_eq!(rounds, sim.metrics().rounds());
        assert!(driver.finished(&sim));
        let summary = driver.election_summary().expect("summary cached at Done");
        assert!(summary.succeeded(), "election failed: {summary:?}");
        assert_eq!(summary.self_declared, 1);
        assert_eq!(summary.aware_nodes, n);
        assert_eq!(summary.alive_nodes, n);
        assert!(summary.candidates >= 1);
        assert!(driver.succeeded(&sim));
        // Further steps are no-op `Done`s.
        let packets = sim.metrics().total_packets();
        assert_eq!(driver.step(&mut sim), StepStatus::Done);
        assert_eq!(sim.metrics().total_packets(), packets);
    }

    #[test]
    fn driver_tolerates_a_round_zero_crash_burst() {
        use rpc_engine::Simulation;

        // Lemma 19's failure regime expressed through the engine: a scheduled
        // crash burst at round 0 lands (via `apply_due_events`) before the
        // candidacy draw, so victims neither run nor count as alive.
        let n = 2048;
        let failures = 64; // ≈ n^{0.55}
        let g = ErdosRenyi::paper_density(n).generate(11);
        let mut sim = Simulation::new(&g, 12);
        sim.schedule_crash(0, (0..failures as NodeId).collect());
        let mut driver = LeaderElectionDriver::paper(n);
        crate::runner::run_driver(&mut driver, &mut sim);
        let summary = driver.election_summary().expect("summary cached at Done");
        assert_eq!(summary.alive_nodes, n - failures);
        assert_eq!(summary.self_declared, 1, "no unique leader: {summary:?}");
        assert!(summary.aware_nodes as f64 >= 0.99 * summary.alive_nodes as f64);
    }

    #[test]
    fn driver_is_deterministic_in_the_seed() {
        use rpc_engine::Simulation;

        let n = 256;
        let g = ErdosRenyi::paper_density(n).generate(9);
        let run = |seed| {
            let mut sim = Simulation::new(&g, seed);
            let mut driver = LeaderElectionDriver::paper(n);
            crate::runner::run_driver(&mut driver, &mut sim);
            (*driver.summary().unwrap(), sim.metrics().total_packets())
        };
        assert_eq!(run(10), run(10));
        // Different seeds elect (almost surely) different candidate sets.
        assert_ne!(run(10).1, run(99).1);
    }

    #[test]
    fn survives_random_node_failures() {
        // Lemma 19: with n^{ε'} random failures the remaining nodes still
        // elect a unique leader.
        let n = 2048;
        let g = ErdosRenyi::paper_density(n).generate(11);
        let failures = 64; // ≈ n^{0.55}
        let outcome = LeaderElection::paper(n).run_with_failures(&g, 12, failures);
        assert_eq!(outcome.alive_nodes, n - failures);
        assert_eq!(outcome.self_declared, 1, "no unique leader: {outcome:?}");
        // Awareness may miss a handful of nodes whose neighbourhood was hit by
        // failures; require near-complete awareness.
        assert!(outcome.aware_nodes as f64 >= 0.99 * outcome.alive_nodes as f64);
    }
}
