//! The protocol-runner interface: [`ProtocolDriver`] (resumable, one
//! synchronous round per [`ProtocolDriver::step`] call) and
//! [`GossipAlgorithm`] (run a gossiping protocol to completion on a graph).
//!
//! A driver's `step` is the only code that executes a protocol's rounds. The
//! scenario engine steps drivers one round at a time, so round budgets,
//! coverage thresholds and per-round traces work uniformly for every
//! algorithm — including the phase-based ones, whose phase loops are explicit
//! resumable states in their drivers. Everything else is a loop over `step`:
//! [`run_driver`] runs a driver to its natural termination, and the
//! convenience entry points (`run(graph, seed)` on every protocol type, the
//! memory model's robustness run, the election with failures) are short
//! bodies over it.

use rpc_engine::Engine;
use rpc_graphs::Graph;

use crate::leader_election::ElectionSummary;
use crate::outcome::GossipOutcome;

/// What one [`ProtocolDriver::step`] call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepStatus {
    /// One synchronous round was executed; the driver can produce more.
    Running,
    /// The driver's schedule is exhausted — **no round was executed** by this
    /// call, and further `step` calls remain no-op `Done`s.
    Done,
}

/// A gossiping protocol as a resumable state machine: each [`Self::step`]
/// call executes exactly one synchronous round (one
/// [`rpc_engine::Metrics::finish_round`]).
///
/// # Resumability contract
///
/// A driver owns every piece of cross-round protocol state (phase counters,
/// walk queues, contact lists, partial trees, …); the only state living in
/// the engine is what the paper's model puts there (node message sets,
/// liveness masks, metrics, the RNG). Callers may therefore interleave
/// `step` calls with arbitrary *read-only* engine queries — stop-rule checks,
/// coverage counters, trace capture — without perturbing the run, and may
/// act on the engine between two rounds (the memory model's robustness run
/// fails nodes between Phase I and Phase II that way).
///
/// # Randomness
///
/// Drivers draw randomness only from the engine RNG, inside `step` (lazy
/// initialisation, such as the memory model's leader draw, happens in the
/// first call). Two engines that implement the primitives identically
/// therefore see the same draws in the same order for a fixed
/// `(graph, seed)` — this is what lets the packed-vs-unpacked
/// trace-equivalence suite compare the production engine with the unpacked
/// oracle round by round.
pub trait ProtocolDriver {
    /// Short name used in reports, matching [`GossipAlgorithm::name`].
    fn name(&self) -> &'static str;

    /// Whether the protocol's *natural termination* has been reached: gossip
    /// completion for push-pull and the broadcasts (whose round loops are
    /// otherwise unbounded), schedule exhaustion for the phase-based
    /// protocols. Read-only; never draws randomness.
    fn finished<E: Engine>(&self, sim: &E) -> bool;

    /// Executes one synchronous round, or returns [`StepStatus::Done`]
    /// (without executing anything) once the schedule is exhausted.
    fn step<E: Engine>(&mut self, sim: &mut E) -> StepStatus;

    /// Whether the protocol's *goal* has been achieved at its natural
    /// termination. For the gossiping protocols this is gossip completion
    /// (the default); protocols with a different success condition — leader
    /// election, whose goal is a unique, universally known leader — override
    /// it so the scenario executor reports `completed` against the right
    /// predicate. Read-only; never draws randomness.
    fn succeeded<E: Engine>(&self, sim: &E) -> bool {
        sim.gossip_complete()
    }

    /// The election result, for drivers that run a leader election
    /// ([`crate::LeaderElectionDriver`]); `None` for every gossiping
    /// protocol. Available once the driver's schedule is exhausted.
    fn election_summary(&self) -> Option<ElectionSummary> {
        None
    }
}

/// Steps `driver` until it reports [`ProtocolDriver::finished`] or its
/// schedule is exhausted ([`StepStatus::Done`]), and returns the number of
/// rounds executed. The phase-based drivers flip `finished` right after
/// their last round, so for them this is exactly their schedule; push-pull
/// and the broadcasts stop at completion or at their round cap.
pub fn run_driver<D: ProtocolDriver, E: Engine>(driver: &mut D, sim: &mut E) -> u64 {
    let mut rounds = 0;
    while !driver.finished(sim) && driver.step(sim) == StepStatus::Running {
        rounds += 1;
    }
    rounds
}

/// A gossiping protocol that can be run to completion on any graph with a
/// given seed. Object safe, so reports and examples can iterate
/// `Box<dyn GossipAlgorithm>`; every implementation is a short body over its
/// [`ProtocolDriver`] and [`run_driver`].
pub trait GossipAlgorithm {
    /// Short name used in reports (e.g. `"push-pull"`, `"fast-gossiping"`,
    /// `"memory"`).
    fn name(&self) -> &'static str;

    /// Runs the protocol to completion on a fresh, loss- and churn-free
    /// simulation of `graph`, deterministically in `seed`, and returns the
    /// communication accounting.
    fn run(&self, graph: &Graph, seed: u64) -> GossipOutcome;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast_gossiping::FastGossiping;
    use crate::memory_model::MemoryGossip;
    use crate::push_pull::PushPullGossip;
    use rpc_engine::Accounting;
    use rpc_graphs::prelude::*;

    /// All three algorithms compared in Figure 1, as trait objects.
    fn all_algorithms(n: usize) -> Vec<Box<dyn GossipAlgorithm>> {
        vec![
            Box::new(PushPullGossip::default()),
            Box::new(FastGossiping::paper(n)),
            Box::new(MemoryGossip::paper(n)),
        ]
    }

    #[test]
    fn every_algorithm_completes_on_a_small_random_graph() {
        let n = 256;
        let graph = ErdosRenyi::paper_density(n).generate(3);
        for algorithm in all_algorithms(n) {
            let outcome = algorithm.run(&graph, 7);
            assert!(outcome.completed(), "{} did not complete gossiping", algorithm.name());
            assert_eq!(outcome.fully_informed(), n, "{}", algorithm.name());
            assert!(outcome.total_packets() > 0);
            assert!(outcome.messages_per_node(Accounting::PerPacket) > 0.0, "{}", algorithm.name());
        }
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        let n = 128;
        let graph = ErdosRenyi::paper_density(n).generate(1);
        for algorithm in all_algorithms(n) {
            let a = algorithm.run(&graph, 11);
            let b = algorithm.run(&graph, 11);
            assert_eq!(a.total_packets(), b.total_packets(), "{}", algorithm.name());
            assert_eq!(a.rounds(), b.rounds(), "{}", algorithm.name());
        }
    }
}
