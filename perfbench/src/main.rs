//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --experiments PATH --work-dir DIR
//!           --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload on one thread and prints a human-readable report whose
//! last line is the JSON result. `--trace 0` times the workload for `S`
//! seconds with tracing off and reports the end-to-end metrics. `--trace 1`
//! times it untraced for `S/2` seconds, then traced for `S/2`, and reports the
//! per-layer metrics: those of the named workload, plus the layers only the
//! other workloads reach, from a short fixed number of their ops. Spans are
//! kept in memory and written to the work directory at exit.
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//!
//! * `pushpull-er10k` — one op is one repetition of registry `sparse-er` at
//!   n = 10 000 through `run_cell_meta` with one warm `ScenarioArena`;
//! * `sweep-quick` — one op is one `experiments sweep --quick --threads 1`
//!   child process with a fresh cache file and output directory;
//! * `cluster-nemesis` — one op is one `run_cluster` of registry `sparse-er`
//!   at n = 192 under a fixed fault mix.
//!
//! Every seed an op uses derives from `--seed`, and ops cycle through a fixed
//! list, so runs with one seed do identical simulated work.
//!
//! End-to-end times are stated in units of the host-speed [`reference`]: a
//! fixed kernel, which never calls the crates, is timed beside the ops, and
//! an op's cost is its wall time over a reference chunk's. Drift of the
//! shared host slows both and cancels; a change to the crates moves the cost
//! alone. Raw wall times are printed beside the costs.

#![deny(unsafe_code)]

mod cluster;
mod drive;
mod host;
mod layers;
mod pushpull;
mod reference;
mod report;
mod spans;
mod spy;
mod stats;
mod sweep;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use reference::Reference;
use report::Report;
use rpc_engine::hash_key;
use rpc_scenarios::StoppedBy;
use spans::SpanRecorder;

/// Everything a workload needs from the command line.
pub struct Ctx {
    /// The workload seed every op seed derives from.
    pub seed: u64,
    /// The `experiments` binary the sweep workload runs.
    pub experiments: PathBuf,
    /// Scratch directory private to this run.
    pub scratch: PathBuf,
}

/// How long a measuring loop runs.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Start ops until this much time has passed.
    Time(Duration),
    /// Run exactly this many ops.
    Ops(usize),
}

impl Budget {
    /// Whether another op should start, `done` ops after `start`.
    pub fn more(self, start: Instant, done: usize) -> bool {
        match self {
            Budget::Time(d) => start.elapsed() < d,
            Budget::Ops(k) => done < k,
        }
    }
}

/// The op count each workload runs when profiled beside another workload's
/// traced run: enough to reach every layer, small enough to stay cheap.
const SIDE_OPS_PUSHPULL: usize = 4;
const SIDE_OPS_SWEEP: usize = 1;
const SIDE_OPS_CLUSTER: usize = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    experiments: PathBuf,
    work_dir: PathBuf,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut experiments, mut work_dir) = (None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--experiments" => experiments = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        experiments: experiments.ok_or("--experiments is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// Per-layer metrics every traced run reports for its own workload: which
/// delivery core ran, and what tracing cost.
fn generic_layers(report: &mut Report, untraced: &Measured, traced_p50: f64, ops: &str) {
    let [scalar, eager, batch] = untraced.cores_per_op;
    let note = format!("per op, mean over the {ops}");
    report.metric("engine.scalar_rounds", scalar, "count", note.clone());
    report.metric("engine.eager_rounds", eager, "count", note.clone());
    report.metric("engine.batch_rounds", batch, "count", note);
    report.metric(
        "obs.trace_overhead_pct",
        (traced_p50 / untraced.op_p50_ms - 1.0) * 100.0,
        "%",
        format!("traced op p50 {traced_p50:.3} ms vs untraced {:.3} ms", untraced.op_p50_ms),
    );
}

/// What an untraced window hands the traced run.
pub struct Measured {
    /// The window's report (ops, checks, end-to-end metrics).
    pub report: Report,
    /// Median op wall time, ms.
    pub op_p50_ms: f64,
    /// Delivery batches per op on the scalar, eager and batch cores.
    pub cores_per_op: [f64; 3],
    /// (rounds, packets, stop cause) per op-list seed, where the workload
    /// has them; the traced run must reproduce them.
    pub facts: Vec<Option<Facts>>,
}

/// Records the end-to-end metrics of an untraced window and returns the
/// median op wall time (ms).
///
/// Op `i` took `op_ms[i]` of wall time and `rounds[i]` simulated rounds, and
/// the host-speed [`reference`] measured `ref_ms[i]` beside it. Its cost is
/// `op_ms[i] / ref_ms[i]`, its time in reference chunks: `op_cost_p50`,
/// `op_cost_p90` (tail rule) and `rounds_per_ref` (the median per-op ratio
/// of rounds to cost) come from those, so host drift that slows op and
/// reference alike cancels. The raw wall times are printed beside them.
/// `setup_s` is the median set-up, and `rss` the workload's peak resident
/// set with its provenance.
pub fn end_to_end(
    report: &mut Report,
    op_ms: &[f64],
    ref_ms: &[f64],
    rounds: &[f64],
    setup_s: &[f64],
    (rss_mb, rss_note): (f64, &str),
) -> f64 {
    let n = op_ms.len();
    let cost: Vec<f64> = op_ms.iter().zip(ref_ms).map(|(op, r)| op / r).collect();
    let per_ref: Vec<f64> = rounds.iter().zip(&cost).map(|(r, c)| r / c).collect();
    let (raw, tail) = (stats::p90(op_ms), stats::p90(&cost));
    let p50 = stats::median(op_ms);
    let per_s: Vec<f64> = rounds.iter().zip(op_ms).map(|(r, ms)| r / (ms / 1e3)).collect();
    report.line(format!(
        "raw wall time per op: op_ms_p50 {p50:.3} ms, op_ms_p90 {:.3} ms ({}), rounds_per_s \
         {:.3} 1/s; reference chunk p50 {:.3} ms",
        raw.value,
        raw.note(n),
        stats::median(&per_s),
        stats::median(ref_ms)
    ));
    report.metric("op_cost_p50", stats::median(&cost), "ref", format!("median of {n} ops"));
    report.metric("op_cost_p90", tail.value, "ref", tail.note(n));
    report.metric(
        "rounds_per_ref",
        stats::median(&per_ref),
        "1/ref",
        format!("median of {n} per-op ratios"),
    );
    let each: Vec<String> = setup_s.iter().map(|s| format!("{s:.3}")).collect();
    let setups = format!("median of {} set-ups: {}", setup_s.len(), each.join(" "));
    report.metric("setup_s", stats::median(setup_s), "s", setups);
    report.metric("peak_rss_mb", rss_mb, "MiB", rss_note);
    p50
}

/// This process's peak resident set less the reference's tables, in MiB:
/// the workload's own peak, as the tables stay resident from before set-up.
pub fn workload_peak_rss_mb(reference: &Reference) -> Result<f64, String> {
    let hwm = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    Ok(hwm - reference.resident_bytes() as f64 / f64::from(1 << 20))
}

/// The simulated statistics of one op: rounds, packets and stop cause.
pub type Facts = (u64, u64, StoppedBy);

/// Digest of the per-seed facts, in op-list order, and their listing.
pub fn facts_digest(seeds: &[u64], facts: &[Option<Facts>]) -> String {
    let seen: Vec<String> = seeds
        .iter()
        .zip(facts)
        .filter_map(|(s, f)| f.map(|(r, p, stop)| format!("{s}:{r}:{p}:{}", stop.label())))
        .collect();
    let listing: Vec<String> = facts
        .iter()
        .flatten()
        .map(|(r, p, stop)| format!("({r}, {p}, {})", stop.label()))
        .collect();
    format!(
        "digest {:016x} of (rounds, packets, stop) over {} op seeds: {}",
        hash_key(seen.join(";").as_bytes()),
        seen.len(),
        listing.join(" ")
    )
}

fn run(args: &Args, ctx: &Ctx) -> Result<Report, String> {
    let window = Duration::from_secs(args.seconds);
    let name = args.workload.as_str();
    if !args.trace {
        let measured = match name {
            "pushpull-er10k" => pushpull::run(ctx, window)?,
            "sweep-quick" => sweep::run(ctx, window)?,
            "cluster-nemesis" => cluster::run(ctx, window)?,
            other => return Err(format!("unknown workload {other}")),
        };
        return Ok(measured.report);
    }

    let half = window / 2;
    let mut rec = SpanRecorder::new();
    let mut report = Report::default();
    let (untraced, (traced, traced_p50), ops) = match name {
        "pushpull-er10k" => {
            let u = pushpull::run(ctx, half)?;
            let t = pushpull::profile(ctx, Budget::Time(half), Some(&u), &mut rec)?;
            report.merge(sweep::profile(ctx, Budget::Ops(SIDE_OPS_SWEEP), &mut rec)?.0);
            report.merge(cluster::profile(ctx, Budget::Ops(SIDE_OPS_CLUSTER), None, &mut rec)?.0);
            (u, t, "fixed seed list")
        }
        "sweep-quick" => {
            let u = sweep::run(ctx, half)?;
            let t = sweep::profile(ctx, Budget::Time(half), &mut rec)?;
            report.merge(pushpull::profile(ctx, Budget::Ops(SIDE_OPS_PUSHPULL), None, &mut rec)?.0);
            report.merge(cluster::profile(ctx, Budget::Ops(SIDE_OPS_CLUSTER), None, &mut rec)?.0);
            (u, t, "passes")
        }
        "cluster-nemesis" => {
            let u = cluster::run(ctx, half)?;
            let t = cluster::profile(ctx, Budget::Time(half), Some(&u), &mut rec)?;
            report.merge(pushpull::profile(ctx, Budget::Ops(SIDE_OPS_PUSHPULL), None, &mut rec)?.0);
            report.merge(sweep::profile(ctx, Budget::Ops(SIDE_OPS_SWEEP), &mut rec)?.0);
            (u, t, "fixed seed list")
        }
        other => return Err(format!("unknown workload {other}")),
    };
    report.merge(traced);
    generic_layers(&mut report, &untraced, traced_p50, ops);
    report.absorb("untraced half", untraced.report);
    let mut got: Vec<&str> = report.metrics().iter().map(|m| m.name.as_str()).collect();
    let mut want: Vec<&str> = layers::MOVES.iter().map(|(n, _)| *n).collect();
    got.sort_unstable();
    want.sort_unstable();
    let complete = got == want;
    report.check("the traced run reports every per-layer metric once", complete);

    let path = ctx.scratch.with_file_name(format!("spans-{name}-seed{}.jsonl", args.seed));
    rec.write_jsonl(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    report.line(format!("{} spans written to {}", rec.spans().len(), path.display()));
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        experiments: args.experiments.clone(),
        scratch: args.work_dir.join(format!("{}-{}", args.workload, std::process::id())),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.scratch.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, &ctx);
    // Scratch holds only per-op outputs already checked; spans live beside it.
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    match result {
        Ok(report) => {
            report.print(&format!(
                "workload {} seed {} seconds {} trace {}",
                args.workload,
                args.seed,
                args.seconds,
                u8::from(args.trace)
            ));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_parse_and_missing_or_bad_ones_are_refused() {
        let base = ["--experiments", "e", "--work-dir", "w", "--workload", "sweep-quick"];
        let mut full: Vec<&str> = base.to_vec();
        full.extend(["--seed", "7", "--seconds", "30", "--trace", "1"]);
        let a = args(&full).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 30, true));
        assert!(args(&base).is_err(), "seed, seconds and trace are required");
        let last = full.len() - 1;
        let mut bad = full.clone();
        bad[last] = "2";
        assert!(args(&bad).is_err());
        let mut zero = full.clone();
        zero[9] = "0";
        assert!(args(&zero).is_err());
        assert!(args(&["--seed"]).is_err());
    }

    #[test]
    fn costs_cancel_a_slowdown_shared_by_op_and_reference() {
        let rounds = [12.0, 12.0, 13.0];
        let metrics = |slowdown: f64| {
            let op: Vec<f64> = [100.0, 120.0, 130.0].iter().map(|v| v * slowdown).collect();
            let reference: Vec<f64> = [10.0, 12.0, 10.0].iter().map(|v| v * slowdown).collect();
            let mut report = Report::default();
            let p50 =
                end_to_end(&mut report, &op, &reference, &rounds, &[0.5, 0.7, 0.6], (9.0, ""));
            let values: Vec<(String, f64)> =
                report.metrics().iter().map(|m| (m.name.clone(), m.value)).collect();
            (p50, values)
        };
        let (p50, quiet) = metrics(1.0);
        let (slow_p50, slow) = metrics(1.5);
        assert_eq!((p50, slow_p50), (120.0, 180.0), "raw wall time moves with the host");
        let names: Vec<&str> = quiet.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["op_cost_p50", "op_cost_p90", "rounds_per_ref", "setup_s", "peak_rss_mb"]
        );
        for ((name, a), (_, b)) in quiet.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-9, "{name} {a} vs {b}");
        }
        // Costs 10, 10, 13: median 10, and 12 / 10 rounds per reference chunk.
        assert_eq!(quiet[0].1, 10.0);
        assert!((quiet[2].1 - 1.2).abs() < 1e-12);
        assert_eq!(quiet[3].1, 0.6);
    }

    #[test]
    fn budgets_count_ops_or_time() {
        let start = Instant::now();
        assert!(Budget::Ops(2).more(start, 1));
        assert!(!Budget::Ops(2).more(start, 2));
        assert!(!Budget::Time(Duration::ZERO).more(start, 0));
        assert!(Budget::Time(Duration::from_secs(3600)).more(start, 1_000_000));
    }
}
