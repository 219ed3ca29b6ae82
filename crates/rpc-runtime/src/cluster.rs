//! The in-process cluster harness: a deterministic, single-threaded
//! event scheduler driving one [`Coordinator`] and `n` [`NodeActor`]s, with
//! every message routed through a [`Nemesis`]. A delivery is a direct call
//! to the recipient's `handle`; no transport sits in between.
//!
//! Time is a virtual tick counter. Every message costs one base tick of
//! latency; the nemesis can add delay, drop the message, or duplicate it.
//! Delivery order is a strict `(due, sequence)` total order, so for a fixed
//! `(scenario, seed, config)` the entire run — every delivery, every fault,
//! every retry — replays bit-identically. That determinism is what the
//! differential suite leans on: with a benign nemesis the cluster's
//! per-round trace must equal the in-process simulator's, row for row.
//!
//! Crash-restart is enacted here (the nemesis only *declares* windows): when
//! a node's crash window opens, its actor is destroyed after persisting its
//! rumor store words; when the window closes, a fresh actor is rebuilt from
//! the persisted words via [`NodeActor::restart`]. The persisted snapshots
//! are kept in the outcome's [`CrashAudit`]s so tests can assert that a
//! rejoined node's final state contains everything it had saved. A crash
//! aimed at a node the cluster does not have is a
//! [`ScenarioError::Invalid`] before round 0, not a window that never opens.

use std::collections::BinaryHeap;

use rpc_graphs::NodeId;
use rpc_obs::{NoopObserver, Observer};
use rpc_scenarios::{
    plan_runtime, scenario_engine_seeds, RoundTrace, Scenario, ScenarioError, StoppedBy,
};

use crate::nemesis::{FaultStats, Nemesis, NemesisSpec};
use crate::node::NodeActor;
use crate::sync::{Coordinator, RetryPolicy};
use crate::wire::{parse_node_name, Body, Envelope, COORDINATOR};

/// Everything configurable about a cluster run besides the scenario itself.
#[derive(Clone, Debug, Default)]
pub struct ClusterConfig {
    /// The coordinator's timeout/retry knobs.
    pub policy: RetryPolicy,
    /// The fault schedule (benign by default).
    pub nemesis: NemesisSpec,
}

impl ClusterConfig {
    /// A benign config with default retry policy.
    pub fn benign() -> Self {
        ClusterConfig::default()
    }
}

/// The rumor-store snapshot persisted when a node crashed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashAudit {
    /// The crashed node.
    pub node: NodeId,
    /// Its store words at crash time.
    pub persisted: Vec<u64>,
}

/// What a cluster run produced.
#[derive(Clone, Debug)]
pub struct RuntimeOutcome {
    /// Whether the stop rule was satisfied (mirrors `StoppedBy::satisfied`).
    pub completed: bool,
    /// Why the run stopped.
    pub stopped_by: StoppedBy,
    /// Rounds the cluster completed.
    pub rounds: u64,
    /// Cumulative packets across all acked rounds.
    pub total_packets: u64,
    /// Cumulative opened channels across all acked rounds.
    pub total_exchanges: u64,
    /// The per-round trace (round 0 first) — the simulator-equality anchor.
    pub trace: Vec<RoundTrace>,
    /// Retransmissions the coordinator sent.
    pub retries: u64,
    /// Rounds advanced degraded (quorum or retry exhaustion).
    pub quorum_advances: u64,
    /// Faults the nemesis injected.
    pub faults: FaultStats,
    /// Final rumor-store words per node (persisted snapshot for a node that
    /// ended the run inside a crash window).
    pub final_words: Vec<Vec<u64>>,
    /// Per-round snapshots of the reported per-node counts (round 0 first);
    /// the last row is each node's final report.
    pub count_history: Vec<Vec<u64>>,
    /// Store snapshots persisted at each crash.
    pub crash_audits: Vec<CrashAudit>,
    /// Whether any surviving node held a rumor that never arrived in a
    /// payload (must always be `false`; see `NodeActor::no_forged_rumors`).
    pub forged: bool,
}

/// One scheduled delivery; min-ordered by `(due, seq)`.
struct InFlight {
    due: u64,
    seq: u64,
    env: Envelope,
}

/// The delivery queue plus its FIFO tiebreaker counter.
struct Scheduler {
    queue: BinaryHeap<InFlight>,
    seq: u64,
}

impl Scheduler {
    /// Enqueues one envelope for delivery at `due`, preserving send order
    /// among same-instant deliveries.
    fn push_at(&mut self, due: u64, env: Envelope) {
        self.seq += 1;
        self.queue.push(InFlight { due, seq: self.seq, env });
    }
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest delivery.
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// Runs `scenario` on the node runtime under `config`, unobserved.
pub fn run_cluster(
    scenario: &Scenario,
    seed: u64,
    config: &ClusterConfig,
) -> Result<RuntimeOutcome, ScenarioError> {
    run_cluster_observed(scenario, seed, config, &mut NoopObserver)
}

/// [`run_cluster`] with an observer receiving the full event stream:
/// per-round `Round` events, `TransportFault`s, `RetryTimeout`s and
/// `RoundAdvanced`s. Fails with [`ScenarioError::Invalid`], before any
/// event, if a nemesis crash names a node outside `0..n`.
pub fn run_cluster_observed<O: Observer>(
    scenario: &Scenario,
    seed: u64,
    config: &ClusterConfig,
    obs: &mut O,
) -> Result<RuntimeOutcome, ScenarioError> {
    let graph = scenario.topology.build().generate(scenario_engine_seeds(seed).0);
    let plan = plan_runtime(scenario, seed, &graph)?;
    let n = plan.n;
    if let Some(crash) = config.nemesis.crashes.iter().find(|c| c.node as usize >= n) {
        return Err(ScenarioError::Invalid(format!(
            "nemesis crash targets node {}, but the cluster has n = {n} nodes (0..{n})",
            crash.node
        )));
    }

    // `None` while the node is inside a crash window.
    let mut actors: Vec<Option<NodeActor<'_>>> =
        (0..n).map(|k| Some(NodeActor::new(&graph, &plan, k as NodeId))).collect();
    let mut coordinator = Coordinator::new(plan.clone(), config.policy, &scenario.name, seed);
    let mut nemesis = Nemesis::new(config.nemesis.clone());

    let mut sched = Scheduler { queue: BinaryHeap::new(), seq: 0 };
    let mut now: u64 = 0;
    // The round whose crash windows `actors` reflects (none before the
    // first delivery).
    let mut enacted: Option<u64> = None;
    let mut persisted: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut crash_audits: Vec<CrashAudit> = Vec::new();

    // Routes one outbound envelope: ticks go straight to the scheduler,
    // everything else passes through the nemesis.
    fn route<O: Observer>(
        env: Envelope,
        now: u64,
        sched: &mut Scheduler,
        nemesis: &mut Nemesis,
        round: u64,
        n: usize,
        obs: &mut O,
    ) {
        let delays: Vec<u64> = if matches!(env.body, Body::Tick { .. }) {
            // Timers are local to the coordinator: exact, fault-free.
            let Body::Tick { after, .. } = env.body else { unreachable!() };
            sched.push_at(now + after, env);
            return;
        } else {
            nemesis.route(&env, round, n, obs)
        };
        for extra in delays {
            sched.push_at(now + 1 + extra, env.clone());
        }
    }

    for env in coordinator.start() {
        route(env, now, &mut sched, &mut nemesis, 0, n, obs);
    }

    // Backstop far above any real run (rounds × n × retries is tiny by
    // comparison); tripping it means the scheduler is wedged, which is a
    // bug, not a scenario property.
    let mut budget: u64 = 10_000_000;
    while !coordinator.finished() {
        let Some(InFlight { due, env, .. }) = sched.queue.pop() else {
            return Err(ScenarioError::Invalid(
                "runtime scheduler drained its queue before the stop rule fired".into(),
            ));
        };
        budget -= 1;
        if budget == 0 {
            return Err(ScenarioError::Invalid(
                "runtime scheduler exceeded its delivery budget".into(),
            ));
        }
        now = due;
        let round = coordinator.current_round();

        // Enact crash-window transitions declared by the nemesis. Windows
        // depend only on (node, round), so once a round's transitions are
        // enacted, checking again before it ends changes nothing.
        if enacted != Some(round) {
            enacted = Some(round);
            for (k, slot) in actors.iter_mut().enumerate() {
                if nemesis.crashed(k as NodeId, round) {
                    if let Some(actor) = slot.take() {
                        persisted[k] = actor.store().words().to_vec();
                        crash_audits.push(CrashAudit {
                            node: k as NodeId,
                            persisted: persisted[k].clone(),
                        });
                        nemesis.note_crash();
                    }
                } else if slot.is_none() {
                    *slot = Some(NodeActor::restart(&graph, &plan, k as NodeId, &persisted[k]));
                    nemesis.note_restart();
                }
            }
        }

        // Deliver. A node with no actor is inside a crash window that opened
        // between send and delivery; the message is lost.
        let replies: Vec<Envelope> = if env.dest == COORDINATOR {
            coordinator.handle(&env, obs)
        } else {
            parse_node_name(&env.dest)
                .and_then(|id| actors.get_mut(id as usize)?.as_mut())
                .map_or_else(Vec::new, |actor| actor.handle(&env))
        };
        let round = coordinator.current_round();
        for reply in replies {
            route(reply, now, &mut sched, &mut nemesis, round, n, obs);
        }
    }

    let stopped_by = coordinator.stopped_by().expect("a finished coordinator names its stop cause");
    let final_words: Vec<Vec<u64>> = (0..n)
        .map(|k| match &actors[k] {
            Some(actor) => actor.store().words().to_vec(),
            None => persisted[k].clone(),
        })
        .collect();
    let forged = actors.iter().flatten().any(|actor| !actor.no_forged_rumors());
    Ok(RuntimeOutcome {
        completed: stopped_by.satisfied(),
        stopped_by,
        rounds: coordinator.rounds(),
        total_packets: coordinator.total_packets(),
        total_exchanges: coordinator.total_exchanges(),
        trace: coordinator.trace().to_vec(),
        retries: coordinator.retries(),
        quorum_advances: coordinator.quorum_advances(),
        faults: *nemesis.stats(),
        final_words,
        count_history: coordinator.count_history().to_vec(),
        crash_audits,
        forged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpc_scenarios::registry;

    #[test]
    fn benign_cluster_completes_sparse_er() {
        let scenario = registry::find("sparse-er", 16).unwrap();
        let outcome = run_cluster(&scenario, 3, &ClusterConfig::benign()).unwrap();
        assert!(outcome.completed);
        assert_eq!(outcome.stopped_by, StoppedBy::Complete);
        assert!(!outcome.forged);
        assert_eq!(outcome.retries, 0, "a benign run never times out");
        assert_eq!(outcome.faults, FaultStats::default());
        // Trace shape: one row per round plus round 0.
        assert_eq!(outcome.trace.len() as u64, outcome.rounds + 1);
        assert_eq!(outcome.trace[0].round, 0);
        assert_eq!(outcome.trace.last().unwrap().fully_informed, 16);
        // Everyone ends fully informed.
        assert_eq!(outcome.count_history.last(), Some(&vec![16; 16]));
    }

    #[test]
    fn benign_cluster_runs_are_deterministic() {
        let scenario = registry::find("dense-er", 16).unwrap();
        let a = run_cluster(&scenario, 11, &ClusterConfig::benign()).unwrap();
        let b = run_cluster(&scenario, 11, &ClusterConfig::benign()).unwrap();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.count_history.last(), b.count_history.last());
        assert_eq!(a.total_packets, b.total_packets);
    }

    #[test]
    fn dropping_nemesis_still_completes_via_retries() {
        let scenario = registry::find("sparse-er", 16).unwrap();
        let config = ClusterConfig {
            nemesis: NemesisSpec::parse("drop=0.1,seed=5").unwrap(),
            ..ClusterConfig::default()
        };
        let outcome = run_cluster(&scenario, 3, &config).unwrap();
        assert!(outcome.completed, "stopped by {:?}", outcome.stopped_by);
        assert!(!outcome.forged);
        assert!(outcome.faults.dropped > 0, "the nemesis actually dropped packets");
    }

    #[test]
    fn crash_aimed_at_a_missing_node_is_rejected_before_round_zero() {
        /// Counts the events of a run that has started.
        struct Events(usize);
        impl Observer for Events {
            fn record(&mut self, _event: &rpc_obs::ObsEvent<'_>) {
                self.0 += 1;
            }
        }
        let scenario = registry::find("sparse-er", 16).unwrap();
        for (spec, node) in [("crash=999@1+2", 999), ("crash=2@1+1,crash=16@3+1", 16)] {
            let config = ClusterConfig {
                nemesis: NemesisSpec::parse(spec).unwrap(),
                ..ClusterConfig::default()
            };
            let mut obs = Events(0);
            match run_cluster_observed(&scenario, 1, &config, &mut obs) {
                Err(ScenarioError::Invalid(msg)) => {
                    assert!(msg.contains(&format!("node {node}")), "{msg}");
                    assert!(msg.contains("n = 16"), "{msg}");
                }
                other => panic!("{spec}: expected Invalid, got {other:?}"),
            }
            assert_eq!(obs.0, 0, "{spec}: the run started");
        }
        // The last node is a valid target.
        let config = ClusterConfig {
            nemesis: NemesisSpec::parse("crash=15@1+1,seed=2").unwrap(),
            ..ClusterConfig::default()
        };
        assert_eq!(run_cluster(&scenario, 1, &config).unwrap().faults.crashes, 1);
    }

    #[test]
    fn crash_restart_rejoins_with_persisted_state() {
        let scenario = registry::find("sparse-er", 16).unwrap();
        let config = ClusterConfig {
            nemesis: NemesisSpec::parse("crash=2@2+2,seed=1").unwrap(),
            ..ClusterConfig::default()
        };
        let outcome = run_cluster(&scenario, 3, &config).unwrap();
        assert!(outcome.completed, "stopped by {:?}", outcome.stopped_by);
        assert!(!outcome.forged);
        assert_eq!(outcome.faults.crashes, 1);
        assert_eq!(outcome.faults.restarts, 1);
        assert_eq!(outcome.crash_audits.len(), 1);
        let audit = &outcome.crash_audits[0];
        assert_eq!(audit.node, 2);
        // The rejoined node's final store contains everything it persisted.
        let final_words = &outcome.final_words[2];
        for (w, p) in final_words.iter().zip(&audit.persisted) {
            assert_eq!(p & !w, 0, "persisted rumors survive the restart");
        }
    }
}
