//! Executing a single scenario replication.
//!
//! [`run_scenario`] turns a declarative [`Scenario`] into one deterministic
//! simulation run: it generates the graph, pre-computes the churn/crash event
//! schedule with a dedicated RNG stream, configures the engine (loss
//! probability, worker threads), drives the protocol, and measures the
//! outcome. Everything is a pure function of `(scenario, seed)` — the thread
//! count only parallelises bitset unions, which are bit-identical in any
//! configuration.
//!
//! ## One stepper for every protocol
//!
//! Every protocol — push-pull *and* the phase-based fast-gossiping and
//! memory-model algorithms — is driven through the resumable
//! [`rpc_gossip::ProtocolDriver`] interface, one synchronous round per step.
//! The executor evaluates the stop rule between any two rounds, emits one
//! [`ObsEvent::Round`] per evaluation, enforces the scenario's `max_rounds`
//! cap uniformly, and reports *why* the run ended in
//! [`ScenarioOutcome::stopped_by`]. Apart from the environment it schedules,
//! the executor only reads the engine between steps, so a stepped run under
//! [`StopRule::Complete`] is bit-identical to a bare
//! [`rpc_gossip::run_driver`] loop over the same driver on an identically
//! prepared engine.
//!
//! ## Five entry points, one core
//!
//! Every entry point is a one-line wrapper over one private execution core,
//! generic over [`rpc_engine::Engine`] and [`Observer`]:
//!
//! * [`run_scenario_observed_in`] — the packed, word-parallel production
//!   [`Simulation`], checked out of a reusable [`ScenarioArena`], with any
//!   observer attached;
//! * [`run_scenario`] / [`run_scenario_traced`] — the same packed path on a
//!   fresh default arena;
//! * [`run_scenario_unpacked`] / [`run_scenario_unpacked_traced`] — the
//!   [`UnpackedSimulation`] oracle (`Vec<bool>` bookkeeping, O(n) scans).
//!
//! A [`ScenarioTrace`] is itself an observer: it keeps the `round` events as
//! [`RoundTrace`] rows and ignores the rest, so a traced run is an observed
//! run. Pair it with another sink as `(&mut trace, &mut other)`.
//!
//! Both engines consume randomness identically, so for any `(scenario, seed)`
//! the two must produce identical outcomes *and* identical per-round traces;
//! the property tests in `tests/packed_vs_unpacked.rs` assert exactly that
//! across the registry and randomized scenarios.
//!
//! Coverage bookkeeping is word-parallel on the packed engine: the tracked
//! rumor's knower set is maintained incrementally
//! ([`rpc_engine::Simulation::track_message`]), the coverage stop rule reads
//! a popcount-backed counter instead of scanning all `n` states per round,
//! and the final participating/informed counts are single popcount passes.
//!
//! ## Multi-rumor streaming
//!
//! When the scenario carries an [`InjectionSpec`], the engines run in
//! *streaming* mode: the message universe is the rumor count `R` (decoupled
//! from `n`), every node starts empty, and rumors arrive mid-run at scheduled
//! `(round, source)` coordinates. The RNG-draw ordering contract extends the
//! environment stream: the classic rumor-placement draw is **always**
//! consumed first (so classic and streaming runs stay aligned per stream),
//! then [`sample_injection_schedule`](self) draws the injection schedule —
//! Poisson arrival counts and uniform sources in round order; hotspot and
//! explicit patterns draw nothing. The engines replay the schedule as
//! draw-free liveness events at round boundaries, so the run stream never
//! shifts. Per-rumor completion rounds and the in-flight high-water mark are
//! latched between rounds and reported in [`ScenarioOutcome::rumor_stats`];
//! [`StopRule::AllRumors`] ends the run once every rumor has settled
//! (completed or expired).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use rpc_engine::{
    derive_seed, sample_failures, sample_from_pool, Engine, MessageId, PhaseSnapshot, Simulation,
    SimulationArena, UnpackedSimulation,
};
use rpc_gossip::{
    BroadcastDriver, ElectionSummary, FastGossiping, FastGossipingConfig, FastGossipingDriver,
    LeaderElectionDriver, MemoryDriver, MemoryGossip, ProtocolDriver, PushPullDriver, StepStatus,
};
use rpc_graphs::{Graph, GraphArena, NodeId};
use rpc_obs::{CoreRounds, NoopObserver, ObsEvent, Observer};

use crate::spec::{
    zone_members, InjectPattern, InjectionSpec, ProtocolSpec, Scenario, ScenarioError,
    StartPlacement, StopRule,
};

// Sub-stream indices for [`derive_seed`], so graph generation, environment
// sampling and the protocol run draw from independent RNG streams.
const STREAM_GRAPH: u64 = 0x0147_5241;
const STREAM_ENV: u64 = 0x02e5_56e3;
const STREAM_RUN: u64 = 0x0375_6e21;

/// The engine seeds a scenario replication derives from `seed`:
/// `(graph_seed, run_seed)`. Exposed so harnesses that compare a stepped
/// [`run_scenario`] against a bare driver loop (the `scenario_step` bench,
/// equivalence tests) can run the bare side on **exactly** the graph and RNG
/// stream the stepped side uses.
pub fn scenario_engine_seeds(seed: u64) -> (u64, u64) {
    (derive_seed(seed, STREAM_GRAPH, 0), derive_seed(seed, STREAM_RUN, 0))
}

/// The environment stream of `seed`: churn, crash, edge-churn and Byzantine
/// sampling, then rumor placement and the injection schedule.
fn env_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(derive_seed(seed, STREAM_ENV, 0))
}

/// Everything the node runtime (`rpc-runtime`) needs to replicate a scenario
/// run outside the in-process executor: the derived engine seeds, the tracked
/// rumor's source (drawn from the environment stream exactly as
/// [`run_scenario`] draws it), and the parameters of the drive loop.
#[derive(Clone, Debug, PartialEq)]
pub struct RuntimePlan {
    /// Seed for the topology generator (the graph stream of `seed`).
    pub graph_seed: u64,
    /// Seed of the run stream every node replays its contact schedule from
    /// (the run stream of `seed`).
    pub run_seed: u64,
    /// The tracked rumor's source node.
    pub tracked: NodeId,
    /// The scenario's stop rule.
    pub stop: StopRule,
    /// Hard cap on executed rounds.
    pub max_rounds: u64,
    /// Number of nodes.
    pub n: usize,
}

/// Derives the [`RuntimePlan`] of `scenario` under `seed` against the
/// already generated `graph`, for the node runtime's coordinator.
///
/// The runtime covers the **benign, classic, push-pull** slice of the
/// scenario space — per-round lockstep equality with [`run_scenario_traced`]
/// is only defined where the simulator's randomness is confined to the run
/// stream every node actor replicates. Anything else (a phase-based or
/// election protocol, a hostile environment, streaming injection) is
/// rejected with a [`ScenarioError::Invalid`] naming the unsupported
/// dimension; faults belong to the runtime's nemesis transport, not the
/// scenario's environment schedule.
pub fn plan_runtime(
    scenario: &Scenario,
    seed: u64,
    graph: &Graph,
) -> Result<RuntimePlan, ScenarioError> {
    if scenario.protocol != ProtocolSpec::PushPull {
        return Err(ScenarioError::Invalid(format!(
            "the node runtime drives the push-pull protocol only, not {}",
            scenario.protocol.name()
        )));
    }
    if scenario.environment.is_hostile() {
        return Err(ScenarioError::Invalid(
            "the node runtime requires a benign environment (no loss, churn, \
             crash, edge-churn or byzantine dimensions): faults are injected \
             by its nemesis transport instead"
                .into(),
        ));
    }
    if scenario.injection.is_some() {
        return Err(ScenarioError::Invalid(
            "the node runtime drives classic (one-rumor-per-node) runs only, \
             not streaming injection"
                .into(),
        ));
    }
    let n = scenario.num_nodes();
    if graph.num_nodes() != n {
        return Err(ScenarioError::Invalid(format!(
            "graph has {} nodes but the scenario specifies n = {n}",
            graph.num_nodes()
        )));
    }
    let (graph_seed, run_seed) = scenario_engine_seeds(seed);
    // Benign environments schedule nothing, so the placement draw is the
    // environment stream's first — replicated here draw for draw.
    let tracked = place_rumor(scenario.environment.placement, graph, &mut env_rng(seed));
    Ok(RuntimePlan {
        graph_seed,
        run_seed,
        tracked,
        stop: scenario.stop,
        max_rounds: scenario.max_rounds,
        n,
    })
}

/// Why a scenario run ended — the discriminant behind
/// [`ScenarioOutcome::completed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoppedBy {
    /// The protocol reached its natural termination with gossiping complete:
    /// the [`StopRule::Complete`] rule fired, or (under a round budget or a
    /// coverage threshold) the protocol's own schedule ended fully informed
    /// before the rule did.
    Complete,
    /// A [`StopRule::Rounds`] budget was spent exactly.
    RoundBudget,
    /// A [`StopRule::Coverage`] threshold was met by the tracked rumor (or,
    /// in a streaming run, by every injected rumor).
    CoverageReached,
    /// A [`StopRule::AllRumors`] rule fired: every streaming rumor either
    /// reached all participating nodes or expired.
    AllRumorsDone,
    /// The run ended **without** satisfying its stop rule: the scenario's
    /// `max_rounds` cap was exhausted, or a phase-based protocol's schedule
    /// ran out first (e.g. gossiping left incomplete by a crash burst, or a
    /// coverage threshold the rumor never met). Reported honestly instead of
    /// being conflated with rule satisfaction.
    MaxRoundsExhausted,
}

impl StoppedBy {
    /// Whether the run's stop condition was genuinely satisfied (everything
    /// except [`StoppedBy::MaxRoundsExhausted`]).
    pub fn satisfied(self) -> bool {
        self != StoppedBy::MaxRoundsExhausted
    }

    /// Short label for reports and CSVs (comma-free).
    pub fn label(self) -> &'static str {
        match self {
            StoppedBy::Complete => "complete",
            StoppedBy::RoundBudget => "round-budget",
            StoppedBy::CoverageReached => "coverage",
            StoppedBy::AllRumorsDone => "all-rumors",
            StoppedBy::MaxRoundsExhausted => "max-rounds",
        }
    }
}

/// Per-rumor statistics of a streaming run, measured engine-agnostically by
/// the executor's per-round rumor watch (so packed and unpacked runs must
/// agree bit for bit — they are part of [`ScenarioOutcome`] equality).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RumorStats {
    /// Round at which each rumor first reached every participating node
    /// (`None`: it never did — not injected in time, expired first, or the
    /// run ended). Indexed by rumor id; completion is latched, so a rumor
    /// that completes and later expires keeps its completion round.
    pub completion_rounds: Vec<Option<u64>>,
    /// High-water mark of simultaneously in-flight rumors (injected, not
    /// expired, not yet complete) across all stop-rule evaluations.
    pub inflight_high_water: usize,
    /// Rumors injected by the end of the run.
    pub injected: usize,
    /// Rumors expired by the end of the run.
    pub expired: usize,
}

impl RumorStats {
    /// Rumors that reached every participating node at some point.
    pub fn completed_count(&self) -> usize {
        self.completion_rounds.iter().filter(|c| c.is_some()).count()
    }

    /// Mean completion round over the completed rumors (0 when none
    /// completed).
    pub fn mean_completion_round(&self) -> f64 {
        let done: Vec<u64> = self.completion_rounds.iter().filter_map(|c| *c).collect();
        if done.is_empty() {
            0.0
        } else {
            done.iter().sum::<u64>() as f64 / done.len() as f64
        }
    }
}

/// The measured result of one scenario replication.
///
/// Equality deliberately skips [`Self::core_rounds`]: the chosen delivery
/// core depends on the configured engine thread count, while everything else
/// here is bit-identical across thread counts — and the equivalence tests
/// compare outcomes exactly that way.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Whether the stop rule was satisfied before the round cap (equivalent
    /// to [`StoppedBy::satisfied`] on [`Self::stopped_by`]).
    pub completed: bool,
    /// Why the run ended.
    pub stopped_by: StoppedBy,
    /// Rounds executed.
    pub rounds: u64,
    /// Total packets sent (per-packet accounting).
    pub total_packets: u64,
    /// Total channel exchanges (per-channel-exchange accounting).
    pub total_exchanges: u64,
    /// Fraction of participating (alive and present) nodes that are fully
    /// informed at the end.
    pub coverage: f64,
    /// Fraction of all nodes that know the tracked rumor at the end.
    pub tracked_coverage: f64,
    /// The node whose original message is tracked as "the rumor".
    pub tracked_source: NodeId,
    /// Crashed nodes at the end of the run.
    pub crashed: usize,
    /// Departed (churned-out) nodes at the end of the run.
    pub departed: usize,
    /// Phase snapshots the protocol marked (empty for push-pull).
    pub phases: Vec<PhaseSnapshot>,
    /// Per-rumor statistics of a streaming run; `None` for classic (single
    /// tracked rumor) scenarios. Engine-agnostic, included in equality.
    pub rumor_stats: Option<RumorStats>,
    /// The election result of a `leader-election` scenario; `None` for every
    /// gossiping protocol. Engine-agnostic, included in equality.
    pub election: Option<ElectionSummary>,
    /// Delivery batches per adaptive core (scalar/eager/batch) over the run.
    /// **Diagnostics**: thread-count-dependent, excluded from equality.
    pub core_rounds: CoreRounds,
}

impl PartialEq for ScenarioOutcome {
    fn eq(&self, other: &Self) -> bool {
        // `core_rounds` excluded — see the type docs.
        self.completed == other.completed
            && self.stopped_by == other.stopped_by
            && self.rounds == other.rounds
            && self.total_packets == other.total_packets
            && self.total_exchanges == other.total_exchanges
            && self.coverage == other.coverage
            && self.tracked_coverage == other.tracked_coverage
            && self.tracked_source == other.tracked_source
            && self.crashed == other.crashed
            && self.departed == other.departed
            && self.phases == other.phases
            && self.rumor_stats == other.rumor_stats
            && self.election == other.election
    }
}

impl ScenarioOutcome {
    /// Average packets per node over the whole network.
    pub fn packets_per_node(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.total_packets as f64 / n as f64
        }
    }
}

/// One entry of a scenario's round-by-round record, captured every time the
/// stop rule is evaluated — one row per executed round plus the final
/// evaluation, for every protocol. The node runtime's coordinator records
/// the same rows, so runtime and simulator traces compare with `==`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundTrace {
    /// Completed rounds at capture time.
    pub round: u64,
    /// Nodes knowing all original messages.
    pub fully_informed: usize,
    /// Nodes knowing the tracked rumor.
    pub tracked_informed: usize,
    /// Cumulative packets sent.
    pub packets: u64,
}

/// The full observable trace of one scenario replication, one
/// [`RoundTrace`] row per stop-rule evaluation. Two engines implementing the
/// same semantics must produce equal traces for equal `(scenario, seed)` —
/// this is what the packed-vs-unpacked property tests compare.
///
/// A trace is an [`Observer`] that keeps the [`ObsEvent::Round`] events and
/// ignores every other event: attach it to [`run_scenario_observed_in`] (or
/// to the node runtime's cluster) alone, or paired with another sink as
/// `(&mut trace, &mut other)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScenarioTrace {
    /// Stop-rule evaluations of the unified stepper, for every protocol.
    pub rounds: Vec<RoundTrace>,
}

impl Observer for ScenarioTrace {
    fn record(&mut self, event: &ObsEvent<'_>) {
        if let ObsEvent::Round { round, fully_informed, tracked_informed, packets } = *event {
            self.rounds.push(RoundTrace { round, fully_informed, tracked_informed, packets });
        }
    }
}

/// Reusable per-worker storage for [`run_scenario_observed_in`]: the
/// graph-generation buffers ([`GraphArena`]) plus the simulation backing
/// storage ([`SimulationArena`]).
///
/// A Monte Carlo batch gives every worker thread one arena and runs all of
/// its repetitions through it; after the first repetition both the graph
/// generation and the simulation are allocation-free in steady state (the
/// buffers only grow when a later scenario is larger). One-off runs
/// ([`run_scenario`], [`run_scenario_traced`]) use a fresh default arena.
/// Results are bit-identical for any prior arena use — the property tests
/// pin this across protocols, stop rules and thread counts.
#[derive(Debug, Default)]
pub struct ScenarioArena {
    pub(crate) graph: GraphArena,
    pub(crate) sim: SimulationArena,
}

/// Runs one replication of `scenario` on the packed engine, deterministically
/// in `seed`.
///
/// `threads` is the engine worker-thread count used for large delivery
/// batches; the outcome is bit-identical for every value (see
/// `rpc_engine::parallel`).
pub fn run_scenario(scenario: &Scenario, seed: u64, threads: usize) -> ScenarioOutcome {
    run_scenario_observed_in(
        &mut ScenarioArena::default(),
        scenario,
        seed,
        threads,
        &mut NoopObserver,
    )
}

/// Like [`run_scenario`], additionally capturing the per-round trace.
pub fn run_scenario_traced(
    scenario: &Scenario,
    seed: u64,
    threads: usize,
) -> (ScenarioOutcome, ScenarioTrace) {
    traced(|trace| {
        run_scenario_observed_in(&mut ScenarioArena::default(), scenario, seed, threads, trace)
    })
}

/// Runs one replication of `scenario` through `arena`'s reusable storage
/// with an attached [`Observer`] receiving the engine-level event stream
/// (per-round progress, dispatch decisions, rumor progress, the run's
/// totals, then [`ObsEvent::Pool`] and [`ObsEvent::Arena`] with the reuse
/// counters). [`run_scenario`] and [`run_scenario_traced`] are this path on
/// a fresh default arena.
///
/// The zero-cost contract: with [`NoopObserver`] every event construction is
/// dead code, and with *any* observer the outcome is bit-identical to the
/// unobserved run — observers are write-only sinks outside every seeded path
/// (property-pinned in `tests/obs_props.rs`).
pub fn run_scenario_observed_in<O: Observer>(
    arena: &mut ScenarioArena,
    scenario: &Scenario,
    seed: u64,
    threads: usize,
    obs: &mut O,
) -> ScenarioOutcome {
    run_packed(arena, scenario, seed, threads, obs, |sim, obs| run_core(scenario, seed, sim, obs))
}

/// Runs one replication on the unpacked reference oracle
/// ([`UnpackedSimulation`]). Must agree with [`run_scenario`] bit for bit;
/// exists for the equivalence tests and the benchmark baseline, not for
/// production runs.
pub fn run_scenario_unpacked(scenario: &Scenario, seed: u64) -> ScenarioOutcome {
    run_unpacked(scenario, seed, &mut NoopObserver)
}

/// Like [`run_scenario_unpacked`], additionally capturing the per-round trace.
pub fn run_scenario_unpacked_traced(
    scenario: &Scenario,
    seed: u64,
) -> (ScenarioOutcome, ScenarioTrace) {
    traced(|trace| run_unpacked(scenario, seed, trace))
}

/// Runs `run` with a fresh [`ScenarioTrace`] as its observer.
fn traced(
    run: impl FnOnce(&mut ScenarioTrace) -> ScenarioOutcome,
) -> (ScenarioOutcome, ScenarioTrace) {
    let mut trace = ScenarioTrace::default();
    (run(&mut trace), trace)
}

/// Runs one replication of `scenario` through `arena`, but with fast-gossiping
/// driven by an explicit [`FastGossipingConfig`] instead of the paper
/// defaults. The sweep engine's ablation cells use this to tune walk
/// probability and broadcast length while keeping the scenario machinery
/// (environment schedule, stop rules, seed derivation) byte-for-byte the same
/// as [`run_scenario_observed_in`]; with
/// `config == FastGossipingConfig::paper_defaults(n)` the result is identical
/// to a `ProtocolSpec::FastGossiping` scenario run. `scenario.protocol` is not
/// consulted: the run always drives fast-gossiping.
pub(crate) fn run_fast_tuned_in(
    arena: &mut ScenarioArena,
    scenario: &Scenario,
    config: FastGossipingConfig,
    seed: u64,
    threads: usize,
) -> ScenarioOutcome {
    run_packed(arena, scenario, seed, threads, &mut NoopObserver, |sim, obs| {
        let mut driver = FastGossipingDriver::new(FastGossiping::new(config), scenario.num_nodes());
        run_driver(scenario, seed, sim, &mut driver, obs)
    })
}

/// The packed set-up: generate the graph into the arena's buffers, check a
/// simulation out of the arena (classic, or streaming over the injection
/// spec's rumor universe), `run` it, recycle.
fn run_packed<O: Observer>(
    arena: &mut ScenarioArena,
    scenario: &Scenario,
    seed: u64,
    threads: usize,
    obs: &mut O,
    run: impl FnOnce(&mut Simulation<'_>, &mut O) -> ScenarioOutcome,
) -> ScenarioOutcome {
    let (graph_seed, run_seed) = scenario_engine_seeds(seed);
    let ScenarioArena { graph, sim } = arena;
    scenario.topology.build().generate_into(graph_seed, graph);
    let mut engine = match &scenario.injection {
        Some(inj) => sim.checkout_streaming(graph.graph(), run_seed, inj.rumors),
        None => sim.checkout(graph.graph(), run_seed),
    }
    .with_threads(threads);
    let outcome = run(&mut engine, obs);
    if O::ENABLED {
        obs.record(&ObsEvent::Pool { stats: engine.pool_stats() });
    }
    sim.recycle(engine);
    if O::ENABLED {
        obs.record(&ObsEvent::Arena { graph: graph.stats(), sim: sim.stats() });
    }
    outcome
}

/// The oracle set-up, mirroring [`run_packed`] on fresh storage.
fn run_unpacked<O: Observer>(scenario: &Scenario, seed: u64, obs: &mut O) -> ScenarioOutcome {
    let (graph_seed, run_seed) = scenario_engine_seeds(seed);
    let graph = scenario.topology.build().generate(graph_seed);
    let mut sim = match &scenario.injection {
        Some(inj) => UnpackedSimulation::new_streaming(&graph, run_seed, inj.rumors),
        None => UnpackedSimulation::new(&graph, run_seed),
    };
    run_core(scenario, seed, &mut sim, obs)
}

/// The engine-generic execution core behind the public entry points above.
/// Instantiates the protocol's resumable driver with its paper constants —
/// protocol dispatch ends here — and hands it to [`run_driver`].
fn run_core<E: Engine, O: Observer>(
    scenario: &Scenario,
    seed: u64,
    sim: &mut E,
    obs: &mut O,
) -> ScenarioOutcome {
    let n = scenario.num_nodes();
    let max_rounds = scenario.max_rounds as usize;
    match scenario.protocol {
        ProtocolSpec::PushPull => {
            run_driver(scenario, seed, sim, &mut PushPullDriver::new(max_rounds), obs)
        }
        ProtocolSpec::FastGossiping => {
            let config = FastGossipingConfig::paper_defaults(n);
            let mut driver = FastGossipingDriver::new(FastGossiping::new(config), n);
            run_driver(scenario, seed, sim, &mut driver, obs)
        }
        ProtocolSpec::Memory => {
            run_driver(scenario, seed, sim, &mut MemoryDriver::new(MemoryGossip::paper(n)), obs)
        }
        ProtocolSpec::BroadcastPush => {
            run_driver(scenario, seed, sim, &mut BroadcastDriver::push(max_rounds), obs)
        }
        ProtocolSpec::BroadcastPushPull => {
            run_driver(scenario, seed, sim, &mut BroadcastDriver::push_pull(max_rounds), obs)
        }
        ProtocolSpec::LeaderElection => {
            run_driver(scenario, seed, sim, &mut LeaderElectionDriver::paper(n), obs)
        }
    }
}

/// The driver-generic tail of the execution core: environment setup, rumor
/// placement, the unified stepper, and outcome measurement.
fn run_driver<E: Engine, D: ProtocolDriver, O: Observer>(
    scenario: &Scenario,
    seed: u64,
    sim: &mut E,
    driver: &mut D,
    obs: &mut O,
) -> ScenarioOutcome {
    let n = scenario.num_nodes();
    let env_rng = &mut env_rng(seed);
    sim.set_loss_probability(scenario.environment.loss);
    schedule_environment(scenario, env_rng, sim);
    // The placement draw is consumed in both modes — injection-schedule
    // draws slot in strictly *after* rumor placement, so classic and
    // streaming runs share one draw-ordering contract.
    let placed = place_rumor(scenario.environment.placement, sim.graph(), env_rng);
    let mut watch: Option<RumorWatch> = None;
    let tracked = match &scenario.injection {
        None => {
            sim.track_message(placed);
            placed
        }
        Some(inj) => {
            // Sample the whole schedule here, then register draw-free events
            // with the engine: both engines replay the identical schedule
            // without touching their own RNG streams.
            let schedule = sample_injection_schedule(inj, scenario, n, env_rng);
            for (m, &(round, source)) in schedule.iter().enumerate() {
                sim.schedule_injection(round, source, m as MessageId);
                if let Some(ttl) = inj.ttl {
                    // Saturating: an expiry past `u64::MAX` never fires.
                    sim.schedule_expiry(round.saturating_add(ttl), m as MessageId);
                }
            }
            // The coverage metric follows rumor 0 — the first id of the
            // stream — so `tracked_coverage` stays meaningful.
            sim.track_message(0);
            watch = Some(RumorWatch::new(inj.rumors));
            schedule[0].1
        }
    };

    let (stopped_by, rounds) = drive(scenario, sim, driver, watch.as_mut(), obs);
    if let Some(watch) = watch.as_mut() {
        // Latch completions reached by the very last step (a Done/cap break
        // exits before the next top-of-loop evaluation). Observer-free: the
        // event stream covers stop-rule evaluations only.
        watch.latch(sim, sim.metrics().rounds());
    }

    let participating = sim.participating_count();
    let fully_informed = sim.participating_informed_count();
    let coverage =
        if participating == 0 { 0.0 } else { fully_informed as f64 / participating as f64 };
    let tracked_coverage =
        if n == 0 { 0.0 } else { sim.tracked_informed_count() as f64 / n as f64 };

    if O::ENABLED {
        obs.record(&ObsEvent::RunFinished {
            rounds,
            total_packets: sim.metrics().total_packets(),
            cores: sim.metrics().core_rounds(),
        });
    }

    ScenarioOutcome {
        completed: stopped_by.satisfied(),
        stopped_by,
        rounds,
        total_packets: sim.metrics().total_packets(),
        total_exchanges: sim.metrics().total_exchanges(),
        coverage,
        tracked_coverage,
        tracked_source: tracked,
        crashed: n - sim.alive_count(),
        departed: n - sim.present_count(),
        phases: sim.metrics().phases().to_vec(),
        rumor_stats: watch.map(|w| w.into_stats(sim)),
        election: driver.election_summary(),
        core_rounds: sim.metrics().core_rounds(),
    }
}

/// The executor-side bookkeeping of a streaming run: latched per-rumor
/// completion rounds and the in-flight high-water mark. Reads only the
/// engine-agnostic [`Engine`] rumor surface, so packed and unpacked runs
/// observe identical statistics.
struct RumorWatch {
    completion_rounds: Vec<Option<u64>>,
    inflight_high_water: usize,
}

impl RumorWatch {
    fn new(rumors: usize) -> Self {
        RumorWatch { completion_rounds: vec![None; rumors], inflight_high_water: 0 }
    }

    /// Latches completions visible in the current engine state (a rumor that
    /// later expires keeps its completion round). Returns the ids completing
    /// at this evaluation, for event emission.
    fn latch<E: Engine>(&mut self, sim: &E, round: u64) -> Vec<usize> {
        let mut fresh = Vec::new();
        for m in 0..self.completion_rounds.len() {
            if self.completion_rounds[m].is_none()
                && !sim.rumor_expired(m as MessageId)
                && sim.rumor_complete(m as MessageId)
            {
                self.completion_rounds[m] = Some(round);
                fresh.push(m);
            }
        }
        fresh
    }

    /// One per-evaluation observation: latch completions, update the
    /// in-flight high-water mark, and emit the rumor events.
    fn observe<E: Engine, O: Observer>(&mut self, sim: &E, round: u64, obs: &mut O) {
        let fresh = self.latch(sim, round);
        let (mut injected, mut expired, mut in_flight) = (0usize, 0usize, 0usize);
        for m in 0..self.completion_rounds.len() {
            let inj = sim.rumor_injected(m as MessageId);
            let exp = sim.rumor_expired(m as MessageId);
            if inj {
                injected += 1;
            }
            if exp {
                expired += 1;
            }
            if inj && !exp && self.completion_rounds[m].is_none() {
                in_flight += 1;
            }
        }
        self.inflight_high_water = self.inflight_high_water.max(in_flight);
        if O::ENABLED {
            for m in fresh {
                obs.record(&ObsEvent::RumorComplete { rumor: m, round });
            }
            obs.record(&ObsEvent::Rumors {
                round,
                injected,
                expired,
                in_flight,
                complete: self.completion_rounds.iter().filter(|c| c.is_some()).count(),
            });
        }
    }

    /// Whether every rumor has either completed (latched) or expired — the
    /// [`StopRule::AllRumors`] condition.
    fn all_settled<E: Engine>(&self, sim: &E) -> bool {
        (0..self.completion_rounds.len())
            .all(|m| self.completion_rounds[m].is_some() || sim.rumor_expired(m as MessageId))
    }

    /// Whether every rumor has either expired or been injected *and* reached
    /// `target` knowers — the per-rumor [`StopRule::Coverage`] condition.
    fn all_covered<E: Engine>(&self, sim: &E, target: usize) -> bool {
        (0..self.completion_rounds.len()).all(|m| {
            let m = m as MessageId;
            sim.rumor_expired(m) || (sim.rumor_injected(m) && sim.rumor_informed_count(m) >= target)
        })
    }

    fn into_stats<E: Engine>(self, sim: &E) -> RumorStats {
        let rumors = self.completion_rounds.len();
        RumorStats {
            completion_rounds: self.completion_rounds,
            inflight_high_water: self.inflight_high_water,
            injected: (0..rumors).filter(|&m| sim.rumor_injected(m as MessageId)).count(),
            expired: (0..rumors).filter(|&m| sim.rumor_expired(m as MessageId)).count(),
        }
    }
}

/// Drives any protocol one synchronous round at a time, evaluating the stop
/// rule (and emitting a `round` event) between rounds. Returns why the run
/// ended and how many rounds it executed.
///
/// The rule check order encodes the reporting semantics:
///
/// 1. the scenario's stop rule (so a rule firing exactly at the cap wins);
/// 2. the scenario's `max_rounds` cap, applied uniformly to every protocol;
/// 3. the driver's own schedule — [`StepStatus::Done`] before the rule fires
///    is reported as [`StoppedBy::Complete`] when gossiping finished and
///    [`StoppedBy::MaxRoundsExhausted`] otherwise.
///
/// Under a [`StopRule::Rounds`] budget the driver is stepped *past* gossip
/// completion when necessary — a round budget specifies a workload of exactly
/// `r` rounds, and those rounds draw randomness and send packets exactly like
/// any other round.
fn drive<E: Engine, D: ProtocolDriver, O: Observer>(
    scenario: &Scenario,
    sim: &mut E,
    driver: &mut D,
    mut watch: Option<&mut RumorWatch>,
    obs: &mut O,
) -> (StoppedBy, u64) {
    let mut rounds: u64 = 0;
    let mut prev_cores = CoreRounds::default();
    let stopped_by = loop {
        if O::ENABLED {
            obs.record(&ObsEvent::Round {
                round: sim.metrics().rounds(),
                fully_informed: sim.fully_informed_count(),
                tracked_informed: sim.tracked_informed_count(),
                packets: sim.metrics().total_packets(),
            });
        }
        if let Some(watch) = watch.as_deref_mut() {
            watch.observe(sim, sim.metrics().rounds(), obs);
        }
        match scenario.stop {
            StopRule::Complete => {
                if driver.finished(sim) {
                    break if driver.succeeded(sim) {
                        StoppedBy::Complete
                    } else {
                        // A phase-based schedule can end with its goal unmet
                        // (gossiping incomplete under crashes, a failed
                        // election); report it honestly.
                        StoppedBy::MaxRoundsExhausted
                    };
                }
            }
            StopRule::Rounds(r) => {
                if rounds == r {
                    break StoppedBy::RoundBudget;
                }
            }
            StopRule::Coverage(f) => {
                let target = coverage_target(f, sim.alive_count());
                // target == 0 only when every node has crashed; a dead
                // network never "reaches" coverage — let the run end via the
                // schedule or the cap and report MaxRoundsExhausted honestly.
                if target > 0 {
                    let reached = match watch.as_deref() {
                        // Streaming: the threshold applies to *every* rumor
                        // (expired rumors are excused).
                        Some(watch) => watch.all_covered(sim, target),
                        None => sim.tracked_informed_count() >= target,
                    };
                    if reached {
                        break StoppedBy::CoverageReached;
                    }
                }
            }
            StopRule::AllRumors => {
                // Validation guarantees an injection spec, hence a watch.
                let settled = watch
                    .as_deref()
                    .expect("all-rumors stop rule without an injection spec")
                    .all_settled(sim);
                if settled {
                    break StoppedBy::AllRumorsDone;
                }
            }
        }
        if rounds >= scenario.max_rounds {
            break StoppedBy::MaxRoundsExhausted;
        }
        // Time-varying loss: re-derive the effective per-packet rate for the
        // round about to execute (base rate compounded with every active
        // burst). With no bursts the base rate set once up front stands.
        if !scenario.environment.loss_bursts.is_empty() {
            sim.set_loss_probability(scenario.environment.loss_at(sim.metrics().rounds()));
        }
        let status = driver.step(sim);
        if O::ENABLED {
            // One dispatch event per round that actually delivered something:
            // the per-core counters only move when a delivery batch ran.
            let cores = sim.metrics().core_rounds();
            if cores != prev_cores {
                if let Some(record) = sim.metrics().last_dispatch() {
                    obs.record(&ObsEvent::Dispatch { round: sim.metrics().rounds(), record });
                }
                prev_cores = cores;
            }
        }
        match status {
            StepStatus::Done => {
                break if driver.succeeded(sim) {
                    StoppedBy::Complete
                } else {
                    StoppedBy::MaxRoundsExhausted
                };
            }
            StepStatus::Running => rounds += 1,
        }
    };
    (stopped_by, rounds)
}

/// The coverage rule's target: the tracked rumor must be known by at least
/// `⌈f · alive⌉` nodes, where `alive` is the **current, crash-adjusted
/// population** (churned-out nodes are still alive — they rejoin with state
/// intact — so they stay in the basis; crashed nodes are permanently gone, so
/// they leave it). Measuring against the full `n` instead would make a
/// `Coverage(f)` rule unreachable after a crash burst of more than
/// `(1 - f) · n` nodes, silently exhausting `max_rounds` on every run.
/// Informed nodes that crash *after* learning the rumor still count toward
/// the achieved side, which only makes the rule easier to satisfy. A target
/// of 0 (possible only when `alive == 0`) never fires — see the caller.
///
/// The product carries the representation error of `fraction` (0.55 is
/// stored as 0.55000000000000004), so one within a few ulps of an integer
/// counts as that integer: `coverage:0.55` of 100 nodes demands 55, not 56.
pub fn coverage_target(fraction: f64, alive: usize) -> usize {
    let product = fraction * alive as f64;
    let nearest = product.round();
    if (product - nearest).abs() <= 4.0 * f64::EPSILON * nearest {
        nearest as usize
    } else {
        product.ceil() as usize
    }
}

/// Pre-computes every environment perturbation — churn waves, the crash
/// burst, edge-churn waves, the Byzantine set — and registers it with the
/// simulation's event schedule.
///
/// Waves are only sampled up to the effective round horizon (a `rounds:`
/// budget can be far below `max_rounds`), and each churn wave draws
/// exclusively from nodes that are *up* at its round, so every departed node
/// stays out for exactly its configured downtime even when
/// `downtime > period`.
///
/// ## RNG-draw ordering contract
///
/// All sampling comes from the dedicated environment stream (`STREAM_ENV`),
/// in this fixed order:
///
/// 1. node-churn waves, one per period below the horizon — with `zones` set,
///    each wave first draws its target zone, then samples the wave's nodes
///    from that zone's eligible members;
/// 2. the crash burst — from the named zone's members when `@zone` is given,
///    from the whole population otherwise;
/// 3. edge-churn waves, one per period below the horizon, each sampling an
///    undirected edge subset (both directed CSR slots go down together);
/// 4. the Byzantine set.
///
/// Rumor placement draws from the same stream *after* this function. The
/// benign fast path below is RNG-neutral: a dimension that is absent draws
/// nothing, so old scenarios' sequences are unchanged by the new dimensions.
fn schedule_environment<E: Engine>(scenario: &Scenario, env_rng: &mut SmallRng, sim: &mut E) {
    if !scenario.environment.is_hostile() {
        // Benign fast path. Safe exactly because `is_hostile` accounts for
        // every perturbing dimension (pinned in spec.rs tests) and because
        // a hostile run with no absent-dimension draws consumes the same
        // stream this early return leaves untouched.
        return;
    }
    let n = sim.num_nodes();
    let horizon = round_limit(scenario);
    if let Some(churn) = scenario.environment.churn {
        match scenario.environment.zones {
            None => {
                let count = ((churn.fraction * n as f64).round() as usize).min(n);
                if count > 0 {
                    let mut down_until = vec![0u64; n];
                    let mut wave = churn.period;
                    // Events at round == horizon can never fire (the run
                    // executes rounds 0..horizon), so the last sampled wave
                    // is at horizon - 1.
                    while wave < horizon {
                        let eligible: Vec<NodeId> =
                            (0..n as NodeId).filter(|&v| down_until[v as usize] <= wave).collect();
                        let take = count.min(eligible.len());
                        let nodes = sample_from_pool(eligible, take, env_rng);
                        // Saturating ends: a rejoin past `u64::MAX` never
                        // fires, and neither does a wave past it.
                        let back = wave.saturating_add(churn.downtime);
                        for &v in &nodes {
                            down_until[v as usize] = back;
                        }
                        sim.schedule_kill(wave, nodes.clone());
                        sim.schedule_revive(back, nodes);
                        wave = wave.saturating_add(churn.period);
                    }
                }
            }
            Some(zones) => {
                // Correlated churn: each wave takes out a fraction of one
                // zone (a "rack") instead of a cross-section of the network.
                let mut down_until = vec![0u64; n];
                let mut wave = churn.period;
                while wave < horizon {
                    let zone = env_rng.gen_range(0..zones);
                    let members = zone_members(zone, n, zones);
                    let count = ((churn.fraction * members.len() as f64).round() as usize)
                        .min(members.len());
                    let eligible: Vec<NodeId> =
                        members.filter(|&v| down_until[v as usize] <= wave).collect();
                    let take = count.min(eligible.len());
                    let nodes = sample_from_pool(eligible, take, env_rng);
                    let back = wave.saturating_add(churn.downtime);
                    for &v in &nodes {
                        down_until[v as usize] = back;
                    }
                    sim.schedule_kill(wave, nodes.clone());
                    sim.schedule_revive(back, nodes);
                    wave = wave.saturating_add(churn.period);
                }
            }
        }
    }
    if let Some(crash) = scenario.environment.crash {
        if crash.count > 0 {
            let nodes = match crash.zone {
                // Validation guarantees the zones key is set, the zone index
                // is in range and the count fits the zone.
                Some(zone) => {
                    let zones = scenario.environment.zones.expect("crash zone requires zones");
                    let members: Vec<NodeId> = zone_members(zone, n, zones).collect();
                    let take = crash.count.min(members.len());
                    sample_from_pool(members, take, env_rng)
                }
                None => sample_failures(n, crash.count.min(n), env_rng),
            };
            sim.schedule_crash(crash.round, nodes);
        }
    }
    if let Some(edge_churn) = scenario.environment.edge_churn {
        let pairs = undirected_slot_pairs(sim.graph());
        let take = ((edge_churn.fraction * pairs.len() as f64).round() as usize).min(pairs.len());
        if take > 0 {
            let mut wave = edge_churn.period;
            while wave < horizon {
                let picked = sample_from_pool((0..pairs.len() as NodeId).collect(), take, env_rng);
                let mut slots = Vec::with_capacity(2 * take);
                for &p in &picked {
                    let (a, b) = pairs[p as usize];
                    slots.push(a);
                    slots.push(b);
                }
                sim.schedule_edge_outage(wave, slots);
                wave = wave.saturating_add(edge_churn.period);
            }
        }
    }
    if scenario.environment.byzantine > 0.0 {
        let count = ((scenario.environment.byzantine * n as f64).round() as usize).min(n);
        if count > 0 {
            sim.set_byzantine(&sample_failures(n, count, env_rng));
        }
    }
}

/// Enumerates the graph's undirected edges as pairs of directed CSR slot
/// indices, so an edge-churn wave can take both directions of an edge down
/// together.
///
/// The adjacency is sorted per node, so parallel edges form contiguous runs;
/// the `k`-th occurrence of `u` in `v`'s list (with `u > v`) pairs with the
/// `k`-th occurrence of `v` in `u`'s list. Self-loop slots are excluded —
/// a self-loop carries no information anyway (self-delivery is a no-op).
fn undirected_slot_pairs(graph: &Graph) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::new();
    for v in graph.nodes() {
        let base = graph.edge_slot_range(v).start;
        let nbrs = graph.neighbors(v);
        let mut i = 0usize;
        while i < nbrs.len() {
            let u = nbrs[i];
            let mut j = i + 1;
            while j < nbrs.len() && nbrs[j] == u {
                j += 1;
            }
            if u > v {
                let u_base = graph.edge_slot_range(u).start;
                let u_nbrs = graph.neighbors(u);
                let first = u_nbrs.partition_point(|&w| w < v);
                for k in 0..(j - i) {
                    debug_assert_eq!(u_nbrs.get(first + k), Some(&v), "asymmetric adjacency");
                    pairs.push(((base + i + k) as NodeId, (u_base + first + k) as NodeId));
                }
            }
            i = j;
        }
    }
    pairs
}

/// The effective round bound of a run: the `rounds:` budget where one is set
/// (validation guarantees it does not exceed the hard cap), the scenario's
/// hard cap otherwise.
fn round_limit(scenario: &Scenario) -> u64 {
    match scenario.stop {
        StopRule::Rounds(r) => r,
        _ => scenario.max_rounds,
    }
}

/// Picks the tracked rumor's source node according to the placement policy.
fn place_rumor(placement: StartPlacement, graph: &Graph, env_rng: &mut SmallRng) -> NodeId {
    let n = graph.num_nodes();
    match placement {
        StartPlacement::Random => env_rng.gen_range(0..n) as NodeId,
        StartPlacement::MinDegree => {
            graph.nodes().min_by_key(|&v| (graph.degree(v), v)).expect("non-empty graph")
        }
        StartPlacement::MaxDegree => graph
            .nodes()
            .max_by_key(|&v| (graph.degree(v), std::cmp::Reverse(v)))
            .expect("non-empty graph"),
    }
}

/// Materialises the injection spec into one `(round, source)` entry per
/// rumor id, drawing from the environment stream.
///
/// Draw order (part of the RNG contract documented on
/// [`schedule_environment`]): Poisson samples one arrival count per round
/// (Knuth's sampler) followed by one uniform source per arrival, in round
/// order; leftover rumors at the horizon draw their sources in id order.
/// Hotspot and explicit schedules draw nothing. All injections land strictly
/// below the effective round horizon — an event at `round >= horizon` could
/// never fire.
fn sample_injection_schedule(
    inj: &InjectionSpec,
    scenario: &Scenario,
    n: usize,
    env_rng: &mut SmallRng,
) -> Vec<(u64, NodeId)> {
    let last = round_limit(scenario).saturating_sub(1);
    match &inj.pattern {
        InjectPattern::Poisson { rate } => {
            let mut schedule = Vec::with_capacity(inj.rumors);
            let mut round = 0u64;
            while schedule.len() < inj.rumors && round < last {
                let arrivals = poisson_knuth(*rate, env_rng).min(inj.rumors - schedule.len());
                for _ in 0..arrivals {
                    schedule.push((round, env_rng.gen_range(0..n) as NodeId));
                }
                round += 1;
            }
            // Whatever the Poisson stream did not place in time is injected
            // in the last executable round, so every rumor id exists.
            while schedule.len() < inj.rumors {
                schedule.push((last, env_rng.gen_range(0..n) as NodeId));
            }
            schedule
        }
        InjectPattern::Hotspot { node, count } => {
            (0..inj.rumors).map(|m| (((m / count) as u64).min(last), *node)).collect()
        }
        InjectPattern::Explicit(entries) => {
            entries.iter().map(|e| (e.round.min(last), e.source)).collect()
        }
    }
}

/// Knuth's Poisson sampler (product of uniforms against `e^-rate`): exact,
/// dependency-free, and cheap for the small per-round rates scenarios use.
fn poisson_knuth(rate: f64, rng: &mut SmallRng) -> usize {
    let l = (-rate).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen_range(0.0..1.0);
        if p <= l {
            break k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{InjectionEntry, TopologySpec};
    use proptest::prelude::*;
    use rpc_gossip::BroadcastMode;

    fn er(n: usize) -> TopologySpec {
        TopologySpec::ErdosRenyiPaper { n }
    }

    #[test]
    fn clean_scenario_completes_with_full_coverage() {
        let s = Scenario::builder("clean", er(256)).build().unwrap();
        let o = run_scenario(&s, 1, 1);
        assert!(o.completed);
        assert_eq!(o.stopped_by, StoppedBy::Complete);
        assert!(o.rounds > 0);
        assert_eq!(o.coverage, 1.0);
        assert_eq!(o.tracked_coverage, 1.0);
        assert_eq!(o.crashed, 0);
        assert_eq!(o.departed, 0);
        assert!(o.packets_per_node(256) > 0.0);
    }

    #[test]
    fn outcome_is_deterministic_in_the_seed() {
        let s = Scenario::builder("det", er(256)).loss(0.1).churn(0.1, 3, 5).build().unwrap();
        assert_eq!(run_scenario(&s, 9, 1), run_scenario(&s, 9, 1));
        assert_ne!(run_scenario(&s, 9, 1), run_scenario(&s, 10, 1));
    }

    #[test]
    fn outcome_is_identical_for_any_thread_count() {
        let s = Scenario::builder("threads", er(512)).loss(0.2).churn(0.15, 2, 4).build().unwrap();
        let single = run_scenario(&s, 3, 1);
        let multi = run_scenario(&s, 3, 4);
        assert_eq!(single, multi);
    }

    #[test]
    fn lossy_scenario_still_completes_with_more_rounds() {
        let clean = Scenario::builder("clean", er(256)).build().unwrap();
        let lossy = Scenario::builder("lossy", er(256)).loss(0.4).build().unwrap();
        let a = run_scenario(&clean, 5, 1);
        let b = run_scenario(&lossy, 5, 1);
        assert!(a.completed && b.completed);
        assert!(b.rounds >= a.rounds, "loss should not speed gossiping up");
    }

    #[test]
    fn round_budget_is_honoured_exactly() {
        let s = Scenario::builder("budget", er(128)).stop(StopRule::Rounds(7)).build().unwrap();
        let o = run_scenario(&s, 2, 1);
        assert!(o.completed);
        assert_eq!(o.stopped_by, StoppedBy::RoundBudget);
        assert_eq!(o.rounds, 7);
    }

    #[test]
    fn round_budgets_work_for_every_protocol() {
        for protocol in [ProtocolSpec::PushPull, ProtocolSpec::FastGossiping, ProtocolSpec::Memory]
        {
            let s = Scenario::builder("budget", er(128))
                .protocol(protocol)
                .stop(StopRule::Rounds(5))
                .build()
                .unwrap();
            let o = run_scenario(&s, 3, 1);
            assert_eq!(o.rounds, 5, "{}", protocol.name());
            assert_eq!(o.stopped_by, StoppedBy::RoundBudget, "{}", protocol.name());
            assert!(o.total_packets > 0, "{}", protocol.name());
        }
    }

    #[test]
    fn coverage_stop_halts_before_completion() {
        let s = Scenario::builder("cov", er(512))
            .placement(StartPlacement::MinDegree)
            .stop(StopRule::Coverage(0.5))
            .build()
            .unwrap();
        let o = run_scenario(&s, 4, 1);
        assert!(o.completed);
        assert_eq!(o.stopped_by, StoppedBy::CoverageReached);
        assert!(o.tracked_coverage >= 0.5);
        let full = Scenario::builder("full", er(512)).build().unwrap();
        assert!(o.rounds < run_scenario(&full, 4, 1).rounds);
    }

    #[test]
    fn coverage_stop_works_for_phase_protocols() {
        for protocol in [ProtocolSpec::FastGossiping, ProtocolSpec::Memory] {
            let s = Scenario::builder("cov", er(256))
                .protocol(protocol)
                .stop(StopRule::Coverage(0.8))
                .build()
                .unwrap();
            let o = run_scenario(&s, 5, 1);
            assert!(o.completed, "{}", protocol.name());
            assert_eq!(o.stopped_by, StoppedBy::CoverageReached, "{}", protocol.name());
            assert!(o.tracked_coverage >= 0.8, "{}", protocol.name());
        }
    }

    #[test]
    fn coverage_target_follows_the_crash_burst_population() {
        // 192 of 256 nodes crash at round 1. Against the full population a
        // 0.95 threshold (244 knowers) would be unreachable — only 64 nodes
        // stay alive; against the crash-adjusted population the bar is
        // ⌈0.95 · 64⌉ = 61 knowers, which push-pull reaches.
        let s = Scenario::builder("crash-cov", er(256))
            .crash(1, 192)
            .stop(StopRule::Coverage(0.95))
            .build()
            .unwrap();
        let o = run_scenario(&s, 8, 1);
        assert_eq!(o.crashed, 192);
        assert_eq!(o.stopped_by, StoppedBy::CoverageReached, "rounds: {}", o.rounds);
        assert!(o.completed);
        assert!(o.rounds < s.max_rounds, "rule should fire well before the cap");
    }

    #[test]
    fn coverage_target_is_exact_for_whole_percentages() {
        // 0.55 · 100 and 0.07 · 100 land a few ulps above 55 and 7; a plain
        // ceiling demanded 56 and 8 knowers.
        assert_eq!(coverage_target(0.55, 100), 55);
        assert_eq!(coverage_target(0.07, 100), 7);
        assert_eq!(coverage_target(0.5, 3), 2);
        assert_eq!(coverage_target(1e-300, 5), 1, "a positive bar never rounds to zero");
        assert_eq!(coverage_target(0.9, 0), 0);
        for p in 1..=100usize {
            let fraction = p as f64 / 100.0;
            for alive in 1..=10_000usize {
                let exact = (p * alive).div_ceil(100);
                assert_eq!(coverage_target(fraction, alive), exact, "{p}% of {alive}");
            }
        }
    }

    #[test]
    fn coverage_never_fires_on_a_fully_crashed_network() {
        // Every node crashes at round 1, so the alive basis drops to 0 and
        // the target becomes 0 — which must NOT count as reached: a dead
        // network has no coverage to report. The run ends at the cap.
        let s = Scenario::builder("dead", er(64))
            .crash(1, 64)
            .stop(StopRule::Coverage(0.9))
            .max_rounds(5)
            .build()
            .unwrap();
        for o in [run_scenario(&s, 3, 1), run_scenario_unpacked(&s, 3)] {
            assert_eq!(o.crashed, 64);
            assert!(!o.completed);
            assert_eq!(o.stopped_by, StoppedBy::MaxRoundsExhausted);
        }
    }

    #[test]
    fn unreachable_stop_reports_max_rounds_exhausted() {
        // One round cannot spread the rumor to 90% of 256 nodes, so a tight
        // cap exhausts without the rule firing — and says so.
        let s = Scenario::builder("tight", er(256))
            .stop(StopRule::Coverage(0.9))
            .max_rounds(1)
            .build()
            .unwrap();
        let o = run_scenario(&s, 6, 1);
        assert!(!o.completed);
        assert_eq!(o.stopped_by, StoppedBy::MaxRoundsExhausted);
        assert_eq!(o.rounds, 1);
    }

    #[test]
    fn crash_burst_reduces_final_coverage_population() {
        let s = Scenario::builder("crash", er(256))
            .crash(2, 64)
            .stop(StopRule::Rounds(30))
            .build()
            .unwrap();
        let o = run_scenario(&s, 6, 1);
        assert_eq!(o.crashed, 64);
        assert_eq!(o.departed, 0);
    }

    #[test]
    fn churn_departs_and_rejoins_nodes() {
        // Downtime longer than the residual run leaves the last wave out.
        let s = Scenario::builder("churn", er(256))
            .churn(0.2, 5, 1000)
            .stop(StopRule::Rounds(12))
            .build()
            .unwrap();
        let o = run_scenario(&s, 7, 1);
        assert!(o.departed > 0, "last churn wave should still be away");
    }

    #[test]
    fn phase_protocols_run_under_hostile_environments() {
        for protocol in [ProtocolSpec::FastGossiping, ProtocolSpec::Memory] {
            let s = Scenario::builder("hostile", er(256))
                .protocol(protocol)
                .loss(0.05)
                .crash(4, 16)
                .build()
                .unwrap();
            let o = run_scenario(&s, 8, 1);
            assert!(o.rounds > 0, "{} executed no rounds", protocol.name());
            assert_eq!(o.crashed, 16);
        }
    }

    /// Satellite regression: a scenario with `loss = 0` and only a
    /// `loss-burst` must still lose packets — `is_hostile` covers the burst
    /// dimension, so the benign fast path cannot elide it, and the stepper
    /// re-derives the per-round rate.
    #[test]
    fn loss_burst_only_scenario_still_loses_packets() {
        let clean = Scenario::builder("clean", er(256)).stop(StopRule::Rounds(12)).build().unwrap();
        // A 90% burst across the whole window, on an otherwise clean spec.
        let bursty = Scenario::builder("bursty", er(256))
            .loss_burst(0, 1000, 0.9)
            .stop(StopRule::Rounds(12))
            .build()
            .unwrap();
        assert_eq!(bursty.environment.loss, 0.0);
        assert!(bursty.environment.is_hostile());
        let a = run_scenario(&clean, 5, 1);
        let b = run_scenario(&bursty, 5, 1);
        // Same round budget, but far less information spreads under the burst.
        assert!(
            b.coverage < a.coverage,
            "burst run should spread less: clean {} vs bursty {}",
            a.coverage,
            b.coverage
        );
        // And the engine really sampled loss draws: same seed, same protocol,
        // same rounds, yet the effective deliveries diverge.
        assert_eq!(a.rounds, b.rounds);
        assert!(b.total_packets > 0);
    }

    #[test]
    fn burst_windows_only_perturb_their_rounds() {
        // A burst strictly after the round budget is inert: outside the
        // window `loss_at` returns the exact base rate, so the run is
        // bit-identical to the burst-free scenario.
        let plain = Scenario::builder("plain", er(128))
            .loss(0.1)
            .stop(StopRule::Rounds(8))
            .build()
            .unwrap();
        let late_burst = Scenario::builder("plain", er(128))
            .loss(0.1)
            .loss_burst(100, 5, 0.9)
            .stop(StopRule::Rounds(8))
            .build()
            .unwrap();
        assert_eq!(run_scenario(&plain, 3, 1), run_scenario(&late_burst, 3, 1));
    }

    /// Satellite: `coverage:F` under a zone crash measures the alive
    /// population — the bar shrinks with the crashed zone and stays
    /// reachable.
    #[test]
    fn coverage_target_survives_a_zone_crash() {
        let s = Scenario::builder("zone-cov", er(256))
            .zones(4)
            .crash_in_zone(2, 64, 1) // zone 1 (nodes 64..128) fully crashes
            .stop(StopRule::Coverage(0.95))
            .build()
            .unwrap();
        let o = run_scenario(&s, 6, 1);
        assert_eq!(o.crashed, 64);
        assert_eq!(o.stopped_by, StoppedBy::CoverageReached, "rounds: {}", o.rounds);
        assert!(o.completed);
    }

    /// Zone crashes only hit the named zone: every crashed node lies inside
    /// it, and nodes outside stay alive.
    #[test]
    fn zone_crash_only_hits_the_named_zone() {
        use crate::spec::zone_members;
        let (n, zones, zone) = (256usize, 8usize, 5usize);
        let s = Scenario::builder("zone-only", er(n))
            .zones(zones)
            .crash_in_zone(1, 16, zone)
            .stop(StopRule::Rounds(4))
            .build()
            .unwrap();
        let seed = 9;
        let graph = s.topology.build().generate(derive_seed(seed, STREAM_GRAPH, 0));
        let mut sim = Simulation::new(&graph, derive_seed(seed, STREAM_RUN, 0));
        schedule_environment(&s, &mut env_rng(seed), &mut sim);
        // Step past the crash round, then inspect liveness per node.
        for _ in 0..3 {
            for v in 0..n as NodeId {
                sim.open_channel(v);
            }
            sim.metrics_mut().finish_round();
        }
        let members = zone_members(zone, n, zones);
        let crashed: Vec<NodeId> =
            (0..n as NodeId).filter(|&v| !Engine::is_alive(&sim, v)).collect();
        assert_eq!(crashed.len(), 16);
        for &v in &crashed {
            assert!(members.contains(&v), "node {v} crashed outside zone {zone}");
        }
    }

    /// Satellite: with enough Byzantine mass, completion is unreachable —
    /// a Byzantine node's own original message never spreads — and the
    /// executor reports `MaxRoundsExhausted` honestly instead of claiming
    /// the stop rule fired.
    #[test]
    fn byzantine_density_reports_max_rounds_exhausted() {
        let s = Scenario::builder("byz", er(128)).byzantine(0.2).max_rounds(40).build().unwrap();
        for o in [run_scenario(&s, 11, 1), run_scenario_unpacked(&s, 11)] {
            assert!(!o.completed);
            assert_eq!(o.stopped_by, StoppedBy::MaxRoundsExhausted);
            assert!(o.coverage < 1.0, "Byzantine originals must stay unknown");
        }
    }

    /// Edge churn never strands the stop-rule evaluation: even with most
    /// edges down every round, the run terminates via its rule or cap on
    /// both engines with identical outcomes.
    #[test]
    fn edge_churn_never_strands_stop_rule_evaluation() {
        for stop in [StopRule::Complete, StopRule::Rounds(15), StopRule::Coverage(0.7)] {
            let s = Scenario::builder("edgy", er(128))
                .edge_churn(0.9, 1)
                .stop(stop)
                .max_rounds(60)
                .build()
                .unwrap();
            let packed = run_scenario(&s, 13, 1);
            let unpacked = run_scenario_unpacked(&s, 13);
            assert_eq!(packed, unpacked);
            assert!(packed.rounds <= 60);
        }
    }

    #[test]
    fn undirected_slot_pairs_cover_each_edge_once() {
        let g = er(96).build().generate(7);
        let pairs = undirected_slot_pairs(&g);
        // Both directed slots of a pair point at each other's endpoint, and
        // no slot appears twice.
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &pairs {
            assert!(seen.insert(a), "slot {a} paired twice");
            assert!(seen.insert(b), "slot {b} paired twice");
        }
        // Pair count: every non-self-loop undirected edge exactly once.
        let self_loops: usize =
            g.nodes().map(|v| g.neighbors(v).iter().filter(|&&u| u == v).count()).sum();
        assert_eq!(2 * pairs.len(), g.num_edge_slots() - self_loops);
        // Endpoint consistency: slot a sits in v's range and holds u; slot b
        // sits in u's range and holds v.
        for &(a, b) in &pairs {
            let owner = |slot: NodeId| {
                g.nodes().find(|&v| g.edge_slot_range(v).contains(&(slot as usize))).unwrap()
            };
            let target = |slot: NodeId| {
                let v = owner(slot);
                let base = g.edge_slot_range(v).start;
                g.neighbors(v)[slot as usize - base]
            };
            assert_eq!(target(a), owner(b));
            assert_eq!(target(b), owner(a));
        }
    }

    #[test]
    fn adversarial_placement_tracks_the_min_degree_node() {
        let s =
            Scenario::builder("adv", er(256)).placement(StartPlacement::MinDegree).build().unwrap();
        let o = run_scenario(&s, 11, 1);
        let graph = s.topology.build().generate(derive_seed(11, STREAM_GRAPH, 0));
        let min_deg = graph.nodes().map(|v| graph.degree(v)).min().unwrap();
        assert_eq!(graph.degree(o.tracked_source), min_deg);
    }

    #[test]
    fn traced_run_matches_untraced_and_records_progress() {
        let s = Scenario::builder("traced", er(128)).loss(0.1).build().unwrap();
        let plain = run_scenario(&s, 13, 1);
        let (traced, trace) = run_scenario_traced(&s, 13, 1);
        assert_eq!(plain, traced, "tracing must not perturb the run");
        // One record per stop-rule evaluation: rounds + the final check.
        assert_eq!(trace.rounds.len() as u64, traced.rounds + 1);
        let last = trace.rounds.last().unwrap();
        assert_eq!(last.round, traced.rounds);
        assert_eq!(last.packets, traced.total_packets);
        assert!(trace.rounds.windows(2).all(|w| w[0].fully_informed <= w[1].fully_informed));
        // Push-pull driving marks no phases.
        assert!(traced.phases.is_empty());
    }

    #[test]
    fn phase_protocol_traces_record_every_round() {
        for protocol in [ProtocolSpec::FastGossiping, ProtocolSpec::Memory] {
            let s = Scenario::builder("traced", er(128)).protocol(protocol).build().unwrap();
            let plain = run_scenario(&s, 14, 1);
            let (traced, trace) = run_scenario_traced(&s, 14, 1);
            assert_eq!(plain, traced, "tracing must not perturb {}", protocol.name());
            assert_eq!(trace.rounds.len() as u64, traced.rounds + 1, "{}", protocol.name());
            let last = trace.rounds.last().unwrap();
            assert_eq!(last.round, traced.rounds);
            assert_eq!(last.packets, traced.total_packets);
            assert!(!traced.phases.is_empty(), "{} must mark phases", protocol.name());
        }
    }

    #[test]
    fn arena_run_matches_fresh_run_on_a_hostile_scenario() {
        let s = Scenario::builder("arena", er(192))
            .loss(0.15)
            .churn(0.1, 3, 4)
            .crash(5, 12)
            .placement(StartPlacement::MaxDegree)
            .build()
            .unwrap();
        let mut arena = ScenarioArena::default();
        for seed in [1u64, 21, 77] {
            let (fresh, fresh_trace) = run_scenario_traced(&s, seed, 1);
            let mut reused_trace = ScenarioTrace::default();
            let reused = run_scenario_observed_in(&mut arena, &s, seed, 1, &mut reused_trace);
            assert_eq!(fresh, reused, "outcome diverged at seed {seed}");
            assert_eq!(fresh_trace, reused_trace, "trace diverged at seed {seed}");
            assert_eq!(run_scenario_observed_in(&mut arena, &s, seed, 1, &mut NoopObserver), fresh);
        }
    }

    #[test]
    fn unpacked_oracle_agrees_on_a_hostile_scenario() {
        let s = Scenario::builder("oracle", er(192))
            .loss(0.15)
            .churn(0.1, 3, 4)
            .crash(5, 12)
            .placement(StartPlacement::MaxDegree)
            .build()
            .unwrap();
        let (packed, packed_trace) = run_scenario_traced(&s, 21, 1);
        let (unpacked, unpacked_trace) = run_scenario_unpacked_traced(&s, 21);
        assert_eq!(packed, unpacked);
        assert_eq!(packed_trace, unpacked_trace);
        assert_eq!(run_scenario_unpacked(&s, 21), unpacked);
    }

    #[test]
    fn single_node_scenario_is_trivially_complete() {
        let s = Scenario::builder("one", TopologySpec::Complete { n: 1 }).build().unwrap();
        for (o, trace) in [run_scenario_traced(&s, 1, 1), run_scenario_unpacked_traced(&s, 1)] {
            assert!(o.completed);
            assert_eq!(o.rounds, 0, "a single node has nothing to learn");
            assert_eq!(o.total_packets, 0);
            assert_eq!(o.coverage, 1.0);
            assert_eq!(o.tracked_coverage, 1.0);
            assert_eq!(trace.rounds.len(), 1, "only the initial stop-rule check runs");
        }
    }

    #[test]
    fn poisson_stream_settles_every_rumor() {
        let s = Scenario::builder("stream", er(128))
            .inject_poisson(8, 1.0)
            .stop(StopRule::AllRumors)
            .build()
            .unwrap();
        let o = run_scenario(&s, 3, 1);
        assert!(o.completed);
        assert_eq!(o.stopped_by, StoppedBy::AllRumorsDone);
        let stats = o.rumor_stats.expect("streaming run must report rumor stats");
        assert_eq!(stats.injected, 8);
        assert_eq!(stats.expired, 0);
        assert_eq!(stats.completed_count(), 8, "all-rumors only fires once every rumor settled");
        assert!(stats.completion_rounds.iter().all(|r| r.is_some()));
        assert!(stats.inflight_high_water >= 1);
        assert!(stats.mean_completion_round() > 0.0);
        assert_eq!(o.coverage, 1.0, "every node ends up knowing all 8 rumors");
    }

    #[test]
    fn explicit_injections_complete_no_earlier_than_they_arrive() {
        let entries: Vec<InjectionEntry> = [(0u64, 0u32), (2, 5), (4, 9)]
            .iter()
            .map(|&(round, source)| InjectionEntry { round, source })
            .collect();
        let s = Scenario::builder("explicit", er(96))
            .inject_explicit(entries.clone())
            .stop(StopRule::AllRumors)
            .build()
            .unwrap();
        let o = run_scenario(&s, 11, 1);
        assert_eq!(o.stopped_by, StoppedBy::AllRumorsDone);
        let stats = o.rumor_stats.unwrap();
        for (m, entry) in entries.iter().enumerate() {
            let done = stats.completion_rounds[m].expect("explicit rumor must complete");
            assert!(
                done > entry.round,
                "rumor {m} reported complete at round {done} but arrived at {}",
                entry.round
            );
        }
        assert_eq!(o.tracked_source, entries[0].source, "rumor 0's source is the tracked one");
    }

    #[test]
    fn short_ttl_expires_slow_rumors() {
        let s = Scenario::builder("ttl", er(128))
            .inject_poisson(6, 0.5)
            .rumor_ttl(2)
            .stop(StopRule::AllRumors)
            .build()
            .unwrap();
        let o = run_scenario(&s, 7, 1);
        assert_eq!(o.stopped_by, StoppedBy::AllRumorsDone);
        let stats = o.rumor_stats.unwrap();
        assert_eq!(stats.injected, 6);
        assert!(stats.expired > 0, "a 2-round ttl must cut rumors off mid-spread");
        // Every rumor settled one way or the other: completed before its
        // expiry, or expired.
        for m in 0..6 {
            assert!(stats.completion_rounds[m].is_some() || stats.expired > 0);
        }
        assert!(stats.completed_count() < 6, "nothing spreads network-wide in 2 rounds");
    }

    #[test]
    fn streaming_outcome_is_identical_across_engines_arena_and_threads() {
        let s = Scenario::builder("stream-diff", er(160))
            .inject_poisson(10, 0.75)
            .rumor_ttl(12)
            .loss(0.1)
            .churn(0.1, 3, 4)
            .stop(StopRule::AllRumors)
            .build()
            .unwrap();
        let mut arena = ScenarioArena::default();
        for seed in [2u64, 19] {
            let (fresh, fresh_trace) = run_scenario_traced(&s, seed, 1);
            let (oracle, oracle_trace) = run_scenario_unpacked_traced(&s, seed);
            assert_eq!(fresh, oracle, "oracle diverged at seed {seed}");
            assert_eq!(fresh_trace, oracle_trace, "oracle trace diverged at seed {seed}");
            let reused = run_scenario_observed_in(&mut arena, &s, seed, 1, &mut NoopObserver);
            assert_eq!(reused, fresh);
            assert_eq!(run_scenario(&s, seed, 4), fresh, "thread count changed the outcome");
            assert!(fresh.rumor_stats.is_some());
        }
    }

    /// What a bare [`rpc_gossip::run_driver`] loop left behind.
    struct BareRun {
        rounds: u64,
        packets: u64,
        exchanges: u64,
        succeeded: bool,
        election: Option<ElectionSummary>,
    }

    fn bare_run<D: ProtocolDriver, E: Engine>(mut driver: D, sim: &mut E) -> BareRun {
        let rounds = rpc_gossip::run_driver(&mut driver, sim);
        BareRun {
            rounds,
            packets: sim.metrics().total_packets(),
            exchanges: sim.metrics().total_exchanges(),
            succeeded: driver.succeeded(sim),
            election: driver.election_summary(),
        }
    }

    #[test]
    fn classic_scenarios_report_no_rumor_stats() {
        let s = Scenario::builder("classic", er(96)).build().unwrap();
        assert!(run_scenario(&s, 1, 1).rumor_stats.is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The unified stepper under [`StopRule::Complete`] must reproduce a
        /// bare [`rpc_gossip::run_driver`] loop bit for bit, for every
        /// protocol: same graph, same engine seed, same rounds, packets and
        /// exchanges, and for the election the same summary. The broadcasts
        /// run on a streaming engine with the scenario's round-0 injection.
        #[test]
        fn stepped_complete_runs_equal_bare_driver_runs(
            n in 48usize..128,
            protocol_pick in 0u8..6,
            seed in 0u64..10_000,
        ) {
            let protocol = match protocol_pick {
                0 => ProtocolSpec::PushPull,
                1 => ProtocolSpec::FastGossiping,
                2 => ProtocolSpec::Memory,
                3 => ProtocolSpec::BroadcastPush,
                4 => ProtocolSpec::BroadcastPushPull,
                _ => ProtocolSpec::LeaderElection,
            };
            let mut builder = Scenario::builder("step-vs-driver", er(n)).protocol(protocol);
            if protocol.is_broadcast() {
                builder = builder.inject_explicit(vec![InjectionEntry { round: 0, source: 0 }]);
            }
            let s = builder.build().unwrap();
            let stepped = run_scenario(&s, seed, 1);

            // The bare driver on an identically seeded engine over the same graph.
            let (graph_seed, run_seed) = scenario_engine_seeds(seed);
            let graph = s.topology.build().generate(graph_seed);
            let mut sim = Simulation::new(&graph, run_seed);
            let max_rounds = s.max_rounds as usize;
            let bare = match protocol {
                ProtocolSpec::PushPull => bare_run(PushPullDriver::new(max_rounds), &mut sim),
                ProtocolSpec::FastGossiping => {
                    bare_run(FastGossipingDriver::new(FastGossiping::paper(n), n), &mut sim)
                }
                ProtocolSpec::Memory => {
                    bare_run(MemoryDriver::new(MemoryGossip::paper(n)), &mut sim)
                }
                ProtocolSpec::LeaderElection => {
                    bare_run(LeaderElectionDriver::paper(n), &mut sim)
                }
                broadcast => {
                    let mode = if broadcast == ProtocolSpec::BroadcastPush {
                        BroadcastMode::Push
                    } else {
                        BroadcastMode::PushPull
                    };
                    let mut sim = Simulation::new_streaming(&graph, run_seed, 1);
                    sim.schedule_injection(0, 0, 0);
                    bare_run(BroadcastDriver::new(mode, max_rounds), &mut sim)
                }
            };

            prop_assert_eq!(stepped.rounds, bare.rounds);
            prop_assert_eq!(stepped.total_packets, bare.packets);
            prop_assert_eq!(stepped.total_exchanges, bare.exchanges);
            prop_assert_eq!(stepped.completed, bare.succeeded);
            prop_assert_eq!(stepped.election, bare.election);
        }
    }
}
