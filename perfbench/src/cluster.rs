//! Workload `cluster-nemesis`: `run_cluster` of registry `sparse-er` at
//! n = 192, to its stop rule, under a fixed fault mix whose seed derives from
//! the workload seed. It is the only workload through `rpc-runtime` — wire,
//! node actors, coordinator retries, nemesis, crash-restart — and every actor
//! steps a full n-node replica, which this workload prices.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rpc_engine::{derive_seed, hash_key};
use rpc_graphs::NodeId;
use rpc_runtime::{
    run_cluster, run_cluster_observed, ClusterConfig, NemesisSpec, NodeActor, RuntimeOutcome,
};
use rpc_scenarios::{
    plan_runtime, registry, run_cell_meta, run_scenario_traced, scenario_engine_seeds, CellJob,
    Scenario, ScenarioArena,
};

use crate::drive::{total_nanos, Replayer, Stamps};
use crate::host::NoiseProbe;
use crate::reference::Reference;
use crate::report::Report;
use crate::spans::SpanRecorder;
use crate::stats::{self, median};
use crate::{Budget, Ctx, Facts, Measured};

const SCENARIO: &str = "sparse-er";
const N: usize = 192;
/// Every fault dimension of the nemesis grammar at once; `seed=` is appended.
const NEMESIS: &str = "drop=0.1,delay=0.2:3,duplicate=0.05,partition=4:2,crash=3@5+4";
/// Length of the op list the timed loop cycles through. Runs differ in
/// rounds and faults from seed to seed, so the list is long enough for its
/// median to settle across workload seeds.
const OPS: usize = 48;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

fn stream(tag: &str) -> u64 {
    hash_key(format!("cluster-nemesis/{tag}").as_bytes())
}

/// The op list: (cluster seed, config with its own nemesis seed).
fn ops(seed: u64) -> Result<Vec<(u64, ClusterConfig)>, String> {
    (0..OPS as u64)
        .map(|i| {
            let nemesis_seed = derive_seed(seed, stream("nemesis"), i);
            let nemesis = NemesisSpec::parse(&format!("{NEMESIS},seed={nemesis_seed}"))?;
            Ok((
                derive_seed(seed, stream("ops"), i),
                ClusterConfig { nemesis, ..ClusterConfig::default() },
            ))
        })
        .collect()
}

fn scenario() -> Result<Scenario, String> {
    registry::find(SCENARIO, N).ok_or_else(|| format!("registry has no {SCENARIO}"))
}

fn facts(out: &RuntimeOutcome) -> Facts {
    (out.rounds, out.total_packets, out.stopped_by)
}

/// Whether a run satisfied its stop rule without forging a rumor.
fn sound(out: &RuntimeOutcome) -> bool {
    out.completed && out.stopped_by.satisfied() && !out.forged
}

fn faults(out: &RuntimeOutcome) -> u64 {
    let f = &out.faults;
    f.dropped + f.delayed + f.duplicated + f.partition_drops + f.crash_drops
}

/// Times the workload's cluster runs for `window` with tracing off, each
/// after one chunk of the host-speed reference.
pub fn run(ctx: &Ctx, window: Duration) -> Result<Measured, String> {
    let mut report = Report::default();
    let mut reference = Reference::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut state = None;
    for i in 0..SETUPS {
        drop(state.take());
        let t = Instant::now();
        let scenario = scenario()?;
        let ops = ops(ctx.seed)?;
        let warm = derive_seed(ctx.seed, stream("warm-up"), i as u64);
        black_box(run_cluster(&scenario, warm, &ops[0].1).map_err(|e| e.to_string())?);
        setups.push(t.elapsed().as_secs_f64());
        state = Some((scenario, ops));
    }
    let (scenario, ops) = state.expect("at least one set-up");

    let mut first: Vec<Option<Facts>> = vec![None; OPS];
    let (mut op_ms, mut ref_ms, mut rounds) = (Vec::new(), Vec::new(), Vec::new());
    let probe = NoiseProbe::start();
    let start = Instant::now();
    while Budget::Time(window).more(start, op_ms.len()) {
        let k = op_ms.len() % OPS;
        ref_ms.push(reference.chunk());
        let t = Instant::now();
        let out = run_cluster(&scenario, ops[k].0, &ops[k].1).map_err(|e| e.to_string())?;
        let secs = t.elapsed().as_secs_f64();
        let facts = facts(&out);
        report.op(sound(&out) && first[k].map_or(true, |seen| seen == facts));
        first[k].get_or_insert(facts);
        op_ms.push(secs * 1e3);
        rounds.push(out.rounds as f64);
    }
    report.line(probe.describe(None));
    let rss = crate::workload_peak_rss_mb(&reference)?;

    // With a benign nemesis the cluster must replay the simulator row for row.
    let seed = ops[0].0;
    let benign =
        run_cluster(&scenario, seed, &ClusterConfig::benign()).map_err(|e| e.to_string())?;
    let (sim, trace) = run_scenario_traced(&scenario, seed, 1);
    let rows_match = benign.trace.len() == trace.rounds.len()
        && benign.trace.iter().zip(&trace.rounds).all(|(a, b)| {
            (a.round, a.fully_informed, a.tracked_informed, a.packets)
                == (b.round, b.fully_informed, b.tracked_informed, b.packets)
        });
    report.check(
        "a benign-nemesis cluster trace equals run_scenario_traced's",
        rows_match && benign.stopped_by == sim.stopped_by && benign.rounds == sim.rounds,
    );
    let seeds: Vec<u64> = ops.iter().map(|(s, _)| *s).collect();
    report.line(crate::facts_digest(&seeds, &first));

    // The dispatch counts of one replica: the simulator's RepMeta per op seed.
    let mut arena = ScenarioArena::default();
    let job = CellJob::scenario(scenario.clone());
    let metas: Vec<_> = seeds.iter().map(|&s| run_cell_meta(&mut arena, &job, s).1).collect();
    let mean = |f: fn(&rpc_obs::CoreRounds) -> u64| {
        metas.iter().map(|m| f(&m.cores)).sum::<u64>() as f64 / metas.len() as f64
    };

    let op_p50_ms = crate::end_to_end(
        &mut report,
        &op_ms,
        &ref_ms,
        &rounds,
        &setups,
        (rss, "VmHWM of this process less the reference's tables"),
    );
    Ok(Measured {
        report,
        op_p50_ms,
        cores_per_op: [mean(|c| c.scalar), mean(|c| c.eager), mean(|c| c.batch)],
        facts: first,
    })
}

/// The traced run: cluster runs under a timestamping observer, actor
/// construction timed alone, and the simulator replica replayed layer by
/// layer. Returns the per-layer metrics and the median traced run time (ms).
pub fn profile(
    ctx: &Ctx,
    budget: Budget,
    untraced: Option<&Measured>,
    rec: &mut SpanRecorder,
) -> Result<(Report, f64), String> {
    let mut report = Report::default();
    let scenario = scenario()?;
    let ops = ops(ctx.seed)?;
    let mut replayer = Replayer::new(scenario.clone())?;
    black_box(run_cluster(&scenario, ops[0].0, &ops[0].1).map_err(|e| e.to_string())?);
    replayer.rep(ops[0].0, &mut SpanRecorder::new())?;

    let (mut run_ms, mut round_ms, mut build_ms, mut step_ms_per_round) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut per_seed: Vec<Option<(u64, u64, u64, u64)>> = vec![None; OPS];
    let start = Instant::now();
    while budget.more(start, run_ms.len()) {
        let op = run_ms.len();
        let (seed, config) = &ops[op % OPS];
        rec.set_op(op as u64);

        let mut stamps = Stamps::default();
        let t0 = Instant::now();
        let out = run_cluster_observed(&scenario, *seed, config, &mut stamps)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let span = rec.enter_at("runtime.run_cluster_observed", t0);
        for w in stamps.rounds.windows(2) {
            rec.record("runtime.round", w[0], w[1]);
            round_ms.push((w[1] - w[0]).as_secs_f64() * 1e3);
        }
        rec.exit_at(span, t1);
        run_ms.push((t1 - t0).as_secs_f64() * 1e3);
        let want = untraced.and_then(|u| u.facts[op % OPS]);
        report.op(sound(&out) && want.map_or(true, |w| w == facts(&out)));
        per_seed[op % OPS].get_or_insert((
            out.rounds,
            out.retries,
            out.quorum_advances,
            faults(&out),
        ));

        let graph = scenario.topology.build().generate(scenario_engine_seeds(*seed).0);
        let span = rec.enter("runtime.actor_build");
        let plan = plan_runtime(&scenario, *seed, &graph).map_err(|e| e.to_string())?;
        let actors: Vec<NodeActor<'_>> =
            (0..N).map(|k| NodeActor::new(&graph, &plan, k as NodeId)).collect();
        rec.exit(span);
        build_ms.push(rec.nanos(span) as f64 / 1e6);
        drop(black_box(actors));

        let before = rec.spans().len();
        let replay = replayer.rep(*seed, rec)?;
        let step_ns = total_nanos(rec, before, "driver.step");
        step_ms_per_round.push(step_ns as f64 / 1e6 / replay.rounds as f64);
    }

    let seen: Vec<_> = per_seed.iter().flatten().collect();
    let (rounds, retries, quorum, fault_count) = seen
        .iter()
        .fold((0, 0, 0, 0), |acc, s| (acc.0 + s.0, acc.1 + s.1, acc.2 + s.2, acc.3 + s.3));
    let seeds = format!("{} op seeds", seen.len());
    let n = run_ms.len();
    let tail = stats::p90(&round_ms);
    report.metric(
        "runtime.round_ms_p50",
        median(&round_ms),
        "ms",
        format!("median of {} round spans over {n} runs", round_ms.len()),
    );
    report.metric("runtime.round_ms_p90", tail.value, "ms", tail.note(round_ms.len()));
    report.metric(
        "runtime.replica_est_ms_per_round",
        N as f64 * median(&step_ms_per_round),
        "ms",
        format!("estimate: n x simulator step time per round, median of {n} replays"),
    );
    report.metric(
        "runtime.actor_build_ms",
        median(&build_ms),
        "ms",
        format!("plan_runtime + {N} x NodeActor::new, median of {n}"),
    );
    report.metric(
        "runtime.retries_per_round",
        retries as f64 / rounds as f64,
        "1/round",
        format!("{retries} retries / {rounds} rounds over {seeds}"),
    );
    report.metric(
        "runtime.quorum_advances",
        quorum as f64 / seen.len() as f64,
        "count",
        format!("per op over {seeds}"),
    );
    report.metric(
        "runtime.faults",
        fault_count as f64 / seen.len() as f64,
        "count",
        format!("per op over {seeds}"),
    );
    Ok((report, median(&run_ms)))
}
