//! Workload `pushpull-er10k`: Monte Carlo repetitions of registry
//! `sparse-er` — push-pull to completion on the paper's G(n, log² n / n) at
//! n = 10 000 — through `run_cell_meta`, the call every sweep worker makes
//! per repetition, with one warm `ScenarioArena`. The graph is regenerated
//! per repetition, as in production. The 12.5 MB state table exceeds the
//! engine's 8 MB cache-residency threshold, so every round takes the eager
//! delivery core.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rpc_engine::{derive_seed, hash_key};
use rpc_scenarios::{
    registry, run_cell_meta, run_scenario_observed_in, run_scenario_unpacked, CellJob, RepMeta,
    RepOutcome, Scenario, ScenarioArena, StoppedBy,
};

use crate::drive::{total_nanos, Replayer, Stamps};
use crate::host::NoiseProbe;
use crate::reference::Reference;
use crate::report::Report;
use crate::spans::{self, SpanRecorder};
use crate::stats::median;
use crate::{Budget, Ctx, Facts, Measured};

const SCENARIO: &str = "sparse-er";
const N: usize = 10_000;
/// Length of the op list the timed loop cycles through. Peak RSS is the
/// largest graph and buffer pool over the list, so the list is long enough
/// for that maximum to settle across workload seeds.
const OPS: usize = 32;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Op seeds rerun on the unpacked oracle after the timed window.
const ORACLE_SAMPLE: [usize; 2] = [0, OPS - 1];

fn stream(tag: &str) -> u64 {
    hash_key(format!("pushpull-er10k/{tag}").as_bytes())
}

fn op_seeds(seed: u64) -> Vec<u64> {
    (0..OPS as u64).map(|i| derive_seed(seed, stream("ops"), i)).collect()
}

fn scenario() -> Result<Scenario, String> {
    registry::find(SCENARIO, N).ok_or_else(|| format!("registry has no {SCENARIO}"))
}

/// The simulated statistics of one repetition; every rerun of its seed must
/// reproduce them exactly.
fn facts(outcome: &RepOutcome) -> Facts {
    let metric = |name| outcome.metric(name).unwrap_or(f64::NAN);
    let packets = (metric("packets_per_node") * N as f64).round() as u64;
    (metric("rounds") as u64, packets, outcome.stopped_by)
}

/// Times the workload's repetitions for `window` with tracing off, each after
/// one chunk of the host-speed reference.
pub fn run(ctx: &Ctx, window: Duration) -> Result<Measured, String> {
    let mut report = Report::default();
    let mut reference = Reference::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut state = None;
    for i in 0..SETUPS {
        drop(state.take());
        let t = Instant::now();
        let scenario = scenario()?;
        let job = CellJob::scenario(scenario.clone());
        let mut arena = ScenarioArena::default();
        black_box(run_cell_meta(
            &mut arena,
            &job,
            derive_seed(ctx.seed, stream("warm-up"), i as u64),
        ));
        setups.push(t.elapsed().as_secs_f64());
        state = Some((scenario, job, arena));
    }
    let (scenario, job, mut arena) = state.expect("at least one set-up");
    let setup_rss = crate::workload_peak_rss_mb(&reference)?;

    let seeds = op_seeds(ctx.seed);
    let mut first: Vec<Option<Facts>> = vec![None; OPS];
    let mut cores: Vec<Option<RepMeta>> = vec![None; OPS];
    let (mut op_ms, mut ref_ms, mut rounds) = (Vec::new(), Vec::new(), Vec::new());
    let probe = NoiseProbe::start();
    let start = Instant::now();
    while Budget::Time(window).more(start, op_ms.len()) {
        let k = op_ms.len() % OPS;
        ref_ms.push(reference.chunk());
        let t = Instant::now();
        let (outcome, meta) = run_cell_meta(&mut arena, &job, seeds[k]);
        let secs = t.elapsed().as_secs_f64();
        let facts = facts(&outcome);
        report.op(match first[k] {
            Some(seen) => seen == facts,
            None => facts.2 == StoppedBy::Complete,
        });
        first[k].get_or_insert(facts);
        cores[k].get_or_insert(meta);
        op_ms.push(secs * 1e3);
        rounds.push(meta.rounds as f64);
    }
    report.line(probe.describe(None));
    let rss = crate::workload_peak_rss_mb(&reference)?;
    report.line(format!("peak RSS {setup_rss:.1} MiB after set-up, {rss:.1} MiB after the window"));

    for k in ORACLE_SAMPLE {
        let Some(want) = first[k] else { continue };
        let got = run_scenario_unpacked(&scenario, seeds[k]);
        let same = (got.rounds, got.total_packets, got.stopped_by) == want;
        report.check(format!("op seed {k} matches the unpacked oracle"), same);
    }
    report.line(crate::facts_digest(&seeds, &first));

    let op_p50_ms = crate::end_to_end(
        &mut report,
        &op_ms,
        &ref_ms,
        &rounds,
        &setups,
        (rss, "VmHWM of this process less the reference's tables"),
    );
    let seen: Vec<RepMeta> = cores.into_iter().flatten().collect();
    let mean = |f: fn(&RepMeta) -> u64| seen.iter().map(f).sum::<u64>() as f64 / seen.len() as f64;
    let cores_per_op = [mean(|m| m.cores.scalar), mean(|m| m.cores.eager), mean(|m| m.cores.batch)];
    Ok(Measured { report, op_p50_ms, cores_per_op, facts: first })
}

/// The traced run: replays the op seeds layer by layer and runs them through
/// `run_scenario_observed_in` with a timestamping observer. Returns the
/// per-layer metrics and the median traced repetition time (ms).
pub fn profile(
    ctx: &Ctx,
    budget: Budget,
    untraced: Option<&Measured>,
    rec: &mut SpanRecorder,
) -> Result<(Report, f64), String> {
    let mut report = Report::default();
    let scenario = scenario()?;
    let seeds = op_seeds(ctx.seed);
    let warm = derive_seed(ctx.seed, stream("warm-up"), 0);
    let mut replayer = Replayer::new(scenario.clone())?;
    replayer.rep(warm, &mut SpanRecorder::new())?;
    let mut arena = ScenarioArena::default();
    // The set-up repetition fills the fresh arena's buffer pools.
    let mut cold = Stamps::default();
    run_scenario_observed_in(&mut arena, &scenario, warm, 1, &mut cold);
    let pool = cold.pool.ok_or("the observed run emitted no pool event")?;

    // Each seed is replayed and then run observed back to back, so host
    // drift reaches both sides of the layer-sum check alike.
    let first_span = rec.spans().len();
    let (mut rep_ms, mut gen_ms, mut checkout_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rounds, mut packets, mut learned, mut bytes) = (0u64, 0u64, 0u64, 0f64);
    let mut observed_ns = 0u64;
    let start = Instant::now();
    while budget.more(start, rep_ms.len()) {
        let op = rep_ms.len();
        let seed = seeds[op % OPS];
        rec.set_op(op as u64);
        let before = rec.spans().len();
        let replay = replayer.rep(seed, rec)?;
        rep_ms.push(rec.nanos(replay.span) as f64 / 1e6);
        gen_ms.push(total_nanos(rec, before, "graphs.generate_into") as f64 / 1e6);
        checkout_ms.push(total_nanos(rec, before, "engine.checkout") as f64 / 1e6);
        rounds += replay.rounds;
        packets += replay.packets;
        learned += replay.learned;
        bytes += replay.packets as f64 * replay.universe as f64 / 8.0;

        let mut stamps = Stamps::default();
        let t0 = Instant::now();
        let outcome = run_scenario_observed_in(&mut arena, &scenario, seed, 1, &mut stamps);
        let t1 = Instant::now();
        let span = rec.enter_at("scenarios.run_observed", t0);
        stamps.record_rounds(rec, "scenarios.round", "scenarios.step");
        rec.exit_at(span, t1);
        observed_ns += (t1 - t0).as_nanos() as u64;
        let replayed = (replay.rounds, replay.packets, replay.stopped);
        let executed = (outcome.rounds, outcome.total_packets, outcome.stopped_by);
        let untraced_facts = untraced.and_then(|u| u.facts[op % OPS]);
        report.op(replayed == executed
            && replay.stopped == StoppedBy::Complete
            && untraced_facts.map_or(true, |want| want == replayed));
    }

    let own = spans::self_time_by_name(rec.spans(), first_span);
    let ns = |name: &str| own.get(name).copied().unwrap_or(0) as f64;
    let (step_self, deliver, exec) =
        (ns("driver.step"), ns("engine.deliver"), ns("scenarios.round"));
    let per_round = |total: f64| total / 1e6 / rounds as f64;
    let layers = ns("graphs.generate_into") + ns("engine.checkout") + step_self + deliver + exec;
    let coverage = layers / observed_ns as f64;
    report.check(
        format!(
            "layer self times sum to the traced rep time within a tenth ({:.1}%)",
            coverage * 100.0
        ),
        (coverage - 1.0).abs() <= 0.1,
    );

    let n = rep_ms.len();
    let reps = format!("{n} traced repetitions");
    report.metric(
        "graphs.er_gen_ms",
        median(&gen_ms),
        "ms",
        format!("generate_into, median of {reps}"),
    );
    report.metric("engine.checkout_ms", median(&checkout_ms), "ms", format!("median of {reps}"));
    report.metric(
        "engine.channel_ms_per_round",
        per_round(step_self),
        "ms",
        format!("step self time outside deliver, {rounds} rounds"),
    );
    report.metric(
        "engine.deliver_ms_per_round",
        per_round(deliver),
        "ms",
        format!("{rounds} rounds"),
    );
    report.metric(
        "engine.deliver_gb_per_s",
        bytes / (deliver / 1e9) / 1e9,
        "GB/s",
        "computed: packets x universe / 8 per deliver second, not measured traffic",
    );
    report.metric(
        "engine.learned_per_packet",
        learned as f64 / packets as f64,
        "ratio",
        format!("{learned} learned pairs / {packets} packets"),
    );
    report.metric(
        "engine.pool_fresh_ratio",
        pool.fresh as f64 / pool.checkouts as f64,
        "ratio",
        format!(
            "{} fresh of {} pool checkouts in a fresh arena's first repetition",
            pool.fresh, pool.checkouts
        ),
    );
    report.metric(
        "scenarios.exec_ms_per_round",
        per_round(exec),
        "ms",
        "observed round span minus its step, which ends at the dispatch event",
    );
    Ok((report, median(&rep_ms)))
}
