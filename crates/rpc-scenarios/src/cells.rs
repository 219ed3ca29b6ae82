//! The unit of sweep work: one [`CellJob`] executed once per repetition.
//!
//! A sweep cell describes *what* to simulate; [`run_cell`] turns a
//! `(job, seed)` pair into one [`RepOutcome`] — a flat list of named metric
//! samples plus the [`StoppedBy`] discriminant — on a caller-provided
//! [`ScenarioArena`]. Every job kind runs on the arena's packed engine, so
//! sweeps inherit the executor's determinism contract: the outcome is a pure
//! function of `(job, seed)`, independent of thread count, batch
//! granularity, or prior arena use.
//!
//! Two job kinds cover the paper's experiments:
//!
//! * [`CellJob::Scenario`] — any declarative [`Scenario`] (topology,
//!   protocol with its optional fast-gossiping tuning, loss, churn, crash,
//!   stop rule), run by [`run_scenario_observed_in`] and optionally probed
//!   per phase;
//! * [`CellJob::MemoryFailure`] — the robustness experiments' memory-model
//!   run with node failures injected between Phase I and Phase II, a crash
//!   at a phase boundary that the scenario grammar does not express.

use rpc_engine::{Engine, PhaseSnapshot};
use rpc_gossip::{MemoryGossip, MemoryGossipConfig};
use rpc_obs::{CoreRounds, NoopObserver};

use crate::exec::{
    run_scenario_observed_in, scenario_engine_seeds, ScenarioArena, ScenarioOutcome, StoppedBy,
};
use crate::spec::{Scenario, ScenarioError, TopologySpec};

/// What a scenario cell measures beyond the standard outcome metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Probe {
    /// The standard outcome metrics only.
    #[default]
    Metrics,
    /// Additionally record per-phase packets-per-node metrics (one
    /// `<phase-label>_ppn` metric per phase the protocol marks), read from
    /// the phase snapshots every outcome now carries.
    Phases,
}

/// One sweep cell's workload, executed once per repetition by [`run_cell`].
#[derive(Clone, Debug, PartialEq)]
pub enum CellJob {
    /// A declarative scenario run through the stepper path, exactly like
    /// [`run_scenario_observed_in`].
    Scenario {
        /// The scenario to replicate (boxed: a full `Scenario` with its
        /// hostile-environment dimensions dwarfs the other variant).
        scenario: Box<Scenario>,
        /// Whether to additionally capture per-phase metrics.
        probe: Probe,
    },
    /// The memory model on `G(n, log² n / n)` with `failures` uniformly
    /// random healthy nodes crashing between Phase I (tree building) and
    /// Phase II (gather) — the Figures 2/3/5 robustness workload.
    MemoryFailure {
        /// Graph size.
        n: usize,
        /// Nodes failing between the phases.
        failures: usize,
        /// Independently built distribution trees (the robustness figures
        /// use 3).
        trees: usize,
    },
}

impl CellJob {
    /// A plain scenario cell with the standard metrics.
    pub fn scenario(scenario: Scenario) -> Self {
        CellJob::Scenario { scenario: Box::new(scenario), probe: Probe::Metrics }
    }

    /// A scenario cell that additionally records per-phase metrics.
    pub fn scenario_with_phases(scenario: Scenario) -> Self {
        CellJob::Scenario { scenario: Box::new(scenario), probe: Probe::Phases }
    }

    /// Graph size of the cell's runs.
    pub fn num_nodes(&self) -> usize {
        match self {
            CellJob::Scenario { scenario, .. } => scenario.num_nodes(),
            CellJob::MemoryFailure { n, .. } => *n,
        }
    }

    /// Checks the job's semantic constraints (delegating to the scenario
    /// builder's validation where one is embedded).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        match self {
            CellJob::Scenario { .. } => Ok(()),
            CellJob::MemoryFailure { n, failures, trees } => {
                if *n == 0 {
                    return Err(ScenarioError::Invalid(
                        "memory-failure cell has zero nodes".into(),
                    ));
                }
                if failures > n {
                    return Err(ScenarioError::Invalid(format!(
                        "cannot fail {failures} of {n} nodes"
                    )));
                }
                if *trees == 0 {
                    return Err(ScenarioError::Invalid("tree count must be at least 1".into()));
                }
                Ok(())
            }
        }
    }

    /// A stable text rendering of everything that determines the job's
    /// results. Cache fingerprints hash this, so any change to the workload
    /// invalidates cached cells instead of silently reusing stale numbers.
    pub fn fingerprint_text(&self) -> String {
        match self {
            CellJob::Scenario { scenario, probe } => {
                let probe = match probe {
                    Probe::Metrics => "metrics",
                    Probe::Phases => "phases",
                };
                format!("scenario probe={probe}\n{}", scenario.to_text())
            }
            CellJob::MemoryFailure { n, failures, trees } => {
                format!("memory-failure n={n} failures={failures} trees={trees}")
            }
        }
    }
}

/// One repetition's measurements: why the run ended plus named metric
/// samples, in a fixed order that is identical across the repetitions of one
/// cell.
#[derive(Clone, Debug, PartialEq)]
pub struct RepOutcome {
    /// Why the run ended.
    pub stopped_by: StoppedBy,
    /// `(metric name, sample)` pairs. Names are identifier-like (no commas,
    /// no whitespace) so they survive the CSV and cell-cache formats.
    pub metrics: Vec<(String, f64)>,
}

impl RepOutcome {
    /// The sample of one metric, if the repetition produced it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(m, _)| m == name).map(|&(_, v)| v)
    }
}

/// Per-repetition execution diagnostics alongside a [`RepOutcome`]: facts a
/// sweep observer wants per repetition that are not themselves metrics.
/// Thread-count-dependent (the core counters), so kept out of the seeded
/// result entirely.
#[derive(Clone, Copy, Debug, Default)]
pub struct RepMeta {
    /// Rounds the repetition executed.
    pub rounds: u64,
    /// Delivery batches per adaptive core over the repetition.
    pub cores: CoreRounds,
}

/// Executes one repetition of `job` with `seed` on `arena` and measures it.
///
/// Runs single-threaded inside: sweep parallelism lives at the repetition
/// fan-out (see [`crate::sweep::SweepRunner`]), and scenario outcomes are
/// thread-invariant anyway.
pub fn run_cell(arena: &mut ScenarioArena, job: &CellJob, seed: u64) -> RepOutcome {
    run_cell_meta(arena, job, seed).0
}

/// [`run_cell`] additionally reporting per-repetition diagnostics
/// ([`RepMeta`]) for sweep observers. The [`RepOutcome`] is identical to
/// [`run_cell`]'s.
pub fn run_cell_meta(arena: &mut ScenarioArena, job: &CellJob, seed: u64) -> (RepOutcome, RepMeta) {
    match job {
        CellJob::Scenario { scenario, probe } => {
            let outcome = run_scenario_observed_in(arena, scenario, seed, 1, &mut NoopObserver);
            let meta = RepMeta { rounds: outcome.rounds, cores: outcome.core_rounds };
            (scenario_rep(scenario.num_nodes(), &outcome, *probe == Probe::Phases), meta)
        }
        CellJob::MemoryFailure { n, failures, trees } => {
            run_memory_failure(arena, *n, *failures, *trees, seed)
        }
    }
}

/// The standard metric vector of a scenario outcome, plus per-rumor
/// streaming metrics when the outcome carries them and per-phase
/// packets-per-node metrics when the probe asked for them.
fn scenario_rep(n: usize, outcome: &ScenarioOutcome, with_phases: bool) -> RepOutcome {
    let nf = n.max(1) as f64;
    let mut metrics = vec![
        ("completed".to_string(), f64::from(u8::from(outcome.completed))),
        ("rounds".to_string(), outcome.rounds as f64),
        ("packets_per_node".to_string(), outcome.total_packets as f64 / nf),
        ("messages_per_node".to_string(), outcome.total_exchanges as f64 / nf),
        ("coverage".to_string(), outcome.coverage),
        ("rumor_coverage".to_string(), outcome.tracked_coverage),
    ];
    if let Some(stats) = &outcome.rumor_stats {
        metrics.push(("rumors_injected".to_string(), stats.injected as f64));
        metrics.push(("rumors_completed".to_string(), stats.completed_count() as f64));
        metrics.push(("rumors_expired".to_string(), stats.expired as f64));
        metrics.push(("rumor_inflight_high_water".to_string(), stats.inflight_high_water as f64));
        metrics.push(("rumor_mean_completion_round".to_string(), stats.mean_completion_round()));
    }
    if with_phases {
        push_phase_metrics(&mut metrics, &outcome.phases, nf);
    }
    RepOutcome { stopped_by: outcome.stopped_by, metrics }
}

/// Appends one `{label}_ppn` metric per phase snapshot. Snapshots are
/// cumulative; per-phase packets are the deltas.
fn push_phase_metrics(metrics: &mut Vec<(String, f64)>, phases: &[PhaseSnapshot], nf: f64) {
    let mut previous = 0u64;
    for phase in phases {
        metrics.push((format!("{}_ppn", phase.label), (phase.packets - previous) as f64 / nf));
        previous = phase.packets;
    }
}

/// One repetition of the robustness workload: build the graph and the
/// simulation from the same seed streams every scenario run uses, then run
/// the memory model with mid-run failures through its arena entry point.
///
/// The memory driver marks its phases in the engine metrics on every run;
/// these used to be discarded here, leaving the robustness tables without
/// phase columns. They now ride along as `{phase}_ppn` metrics after the
/// standard nine, exactly like the scenario path's phase probe.
fn run_memory_failure(
    arena: &mut ScenarioArena,
    n: usize,
    failures: usize,
    trees: usize,
    seed: u64,
) -> (RepOutcome, RepMeta) {
    let (graph_seed, run_seed) = scenario_engine_seeds(seed);
    let ScenarioArena { graph, sim } = arena;
    TopologySpec::ErdosRenyiPaper { n }.build().generate_into(graph_seed, graph);
    let mut engine = sim.checkout(graph.graph(), run_seed).with_threads(1);
    let algorithm = MemoryGossip::new(MemoryGossipConfig::paper_defaults(n).with_trees(trees));
    let outcome = algorithm.run_with_failures_on(&mut engine, failures);
    let cores = engine.metrics().core_rounds();
    sim.recycle(engine);

    let nf = n.max(1) as f64;
    let lost = outcome.lost_messages();
    let stopped_by =
        if outcome.completed() { StoppedBy::Complete } else { StoppedBy::MaxRoundsExhausted };
    let mut metrics = vec![
        ("completed".to_string(), f64::from(u8::from(outcome.completed()))),
        ("rounds".to_string(), outcome.rounds() as f64),
        ("packets_per_node".to_string(), outcome.total_packets() as f64 / nf),
        ("messages_per_node".to_string(), outcome.total_exchanges() as f64 / nf),
        ("lost_messages".to_string(), lost as f64),
        ("loss_ratio".to_string(), outcome.additional_loss_ratio().unwrap_or(0.0)),
        ("lost_gt0".to_string(), f64::from(u8::from(lost > 0))),
        ("lost_gt10".to_string(), f64::from(u8::from(lost > 10))),
        ("lost_gt100".to_string(), f64::from(u8::from(lost > 100))),
    ];
    push_phase_metrics(&mut metrics, outcome.phases(), nf);
    let meta = RepMeta { rounds: outcome.rounds(), cores };
    (RepOutcome { stopped_by, metrics }, meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_scenario;
    use crate::spec::{ProtocolSpec, StopRule};
    use rpc_gossip::FastGossipingConfig;

    fn er(n: usize) -> TopologySpec {
        TopologySpec::ErdosRenyiPaper { n }
    }

    /// A fast-gossiping cell on `G(n, log² n / n)`, with `fast-tuning` when
    /// `tuning` is given.
    fn fast_cell(n: usize, tuning: Option<(f64, usize)>) -> CellJob {
        let mut builder = Scenario::builder("fast", er(n)).protocol(ProtocolSpec::FastGossiping);
        if let Some((factor, steps)) = tuning {
            builder = builder.fast_tuning(factor, steps);
        }
        CellJob::scenario(builder.build().unwrap())
    }

    #[test]
    fn scenario_cell_metrics_match_the_executor() {
        let scenario =
            Scenario::builder("cell", er(128)).loss(0.1).churn(0.1, 3, 4).build().unwrap();
        let outcome = run_scenario(&scenario, 7, 1);
        let mut arena = ScenarioArena::default();
        let rep = run_cell(&mut arena, &CellJob::scenario(scenario.clone()), 7);
        assert_eq!(rep.stopped_by, outcome.stopped_by);
        assert_eq!(rep.metric("rounds"), Some(outcome.rounds as f64));
        assert_eq!(rep.metric("packets_per_node"), Some(outcome.total_packets as f64 / 128.0));
        assert_eq!(rep.metric("coverage"), Some(outcome.coverage));
        assert_eq!(rep.metric("rumor_coverage"), Some(outcome.tracked_coverage));
        assert_eq!(rep.metric("no-such-metric"), None);
    }

    #[test]
    fn streaming_cells_report_per_rumor_metrics() {
        let scenario = Scenario::builder("stream-cell", er(128))
            .inject_poisson(8, 1.0)
            .stop(StopRule::AllRumors)
            .build()
            .unwrap();
        let mut arena = ScenarioArena::default();
        let rep = run_cell(&mut arena, &CellJob::scenario(scenario.clone()), 5);
        let outcome = run_scenario(&scenario, 5, 1);
        let stats = outcome.rumor_stats.as_ref().unwrap();
        assert_eq!(rep.metric("rumors_injected"), Some(stats.injected as f64));
        assert_eq!(rep.metric("rumors_completed"), Some(stats.completed_count() as f64));
        assert_eq!(rep.metric("rumors_expired"), Some(stats.expired as f64));
        assert_eq!(rep.metric("rumor_inflight_high_water"), Some(stats.inflight_high_water as f64));
        assert_eq!(rep.metric("rumor_mean_completion_round"), Some(stats.mean_completion_round()));
        // A classic cell carries none of the streaming metrics.
        let classic = CellJob::scenario(Scenario::builder("c", er(96)).build().unwrap());
        assert_eq!(run_cell(&mut arena, &classic, 5).metric("rumors_injected"), None);
    }

    #[test]
    fn phase_probe_appends_per_phase_metrics_without_perturbing_the_rest() {
        let scenario = Scenario::builder("cell", er(128))
            .protocol(ProtocolSpec::FastGossiping)
            .build()
            .unwrap();
        let mut arena = ScenarioArena::default();
        let plain = run_cell(&mut arena, &CellJob::scenario(scenario.clone()), 3);
        let probed = run_cell(&mut arena, &CellJob::scenario_with_phases(scenario), 3);
        assert_eq!(plain.metrics, probed.metrics[..plain.metrics.len()]);
        let phase_sum: f64 =
            probed.metrics.iter().filter(|(name, _)| name.ends_with("_ppn")).map(|&(_, v)| v).sum();
        assert!(phase_sum > 0.0, "phase probe recorded no phase packets");
        let total = probed.metric("packets_per_node").unwrap();
        assert!((phase_sum - total).abs() < 1e-9, "phases sum to {phase_sum}, total {total}");
    }

    #[test]
    fn tuned_cell_with_paper_parameters_matches_the_plain_protocol() {
        let n = 128;
        let steps = FastGossipingConfig::paper_defaults(n).broadcast_steps;
        let (tuned, plain) = (fast_cell(n, Some((1.0, steps))), fast_cell(n, None));
        let mut arena = ScenarioArena::default();
        for seed in [1u64, 9, 17] {
            assert_eq!(
                run_cell(&mut arena, &tuned, seed),
                run_cell(&mut arena, &plain, seed),
                "factor 1.0 must reproduce the paper configuration at seed {seed}"
            );
        }
    }

    #[test]
    fn tuned_cells_respond_to_their_parameters() {
        let mut arena = ScenarioArena::default();
        let base = run_cell(&mut arena, &fast_cell(256, Some((1.0, 2))), 5);
        let heavy = run_cell(&mut arena, &fast_cell(256, Some((4.0, 2))), 5);
        assert_ne!(base, heavy, "a 4x walk probability must change the measurements");
        assert_eq!(base.metric("completed"), Some(1.0));
        assert_eq!(heavy.metric("completed"), Some(1.0));
    }

    #[test]
    fn memory_failure_cell_reports_loss_metrics() {
        let mut arena = ScenarioArena::default();
        let clean =
            run_cell(&mut arena, &CellJob::MemoryFailure { n: 256, failures: 0, trees: 3 }, 11);
        assert_eq!(clean.metric("lost_messages"), Some(0.0));
        assert_eq!(clean.metric("loss_ratio"), Some(0.0));
        assert_eq!(clean.metric("lost_gt0"), Some(0.0));
        assert_eq!(clean.stopped_by, StoppedBy::Complete);

        let failing =
            run_cell(&mut arena, &CellJob::MemoryFailure { n: 256, failures: 32, trees: 3 }, 11);
        let lost = failing.metric("lost_messages").unwrap();
        let gt0 = failing.metric("lost_gt0").unwrap();
        assert_eq!(gt0, f64::from(u8::from(lost > 0.0)));
        assert!(failing.metric("loss_ratio").unwrap() >= 0.0);
    }

    #[test]
    fn cells_are_deterministic_and_arena_independent() {
        let jobs = [
            CellJob::scenario(
                Scenario::builder("det", er(96))
                    .loss(0.2)
                    .stop(StopRule::Rounds(6))
                    .build()
                    .unwrap(),
            ),
            fast_cell(96, Some((2.0, 1))),
            CellJob::MemoryFailure { n: 96, failures: 8, trees: 2 },
        ];
        let mut shared = ScenarioArena::default();
        for job in &jobs {
            let mut fresh = ScenarioArena::default();
            let a = run_cell(&mut fresh, job, 21);
            let b = run_cell(&mut shared, job, 21);
            assert_eq!(a, b, "arena reuse changed {job:?}");
            assert_eq!(a, run_cell(&mut shared, job, 21), "rerun changed {job:?}");
        }
    }

    #[test]
    fn validation_rejects_degenerate_jobs() {
        assert!(CellJob::MemoryFailure { n: 64, failures: 65, trees: 1 }.validate().is_err());
        assert!(CellJob::MemoryFailure { n: 64, failures: 4, trees: 0 }.validate().is_err());
        assert!(CellJob::MemoryFailure { n: 64, failures: 4, trees: 3 }.validate().is_ok());
    }

    #[test]
    fn fingerprints_distinguish_jobs() {
        let a = fast_cell(64, Some((1.0, 2)));
        let b = fast_cell(64, Some((2.0, 2)));
        let c = CellJob::MemoryFailure { n: 64, failures: 4, trees: 3 };
        assert_ne!(a.fingerprint_text(), b.fingerprint_text());
        assert_ne!(a.fingerprint_text(), c.fingerprint_text());
        assert_ne!(a.fingerprint_text(), fast_cell(64, None).fingerprint_text());
        let s = CellJob::scenario(Scenario::builder("x", er(64)).build().unwrap());
        let p = CellJob::scenario_with_phases(Scenario::builder("x", er(64)).build().unwrap());
        assert_ne!(s.fingerprint_text(), p.fingerprint_text());
    }
}
