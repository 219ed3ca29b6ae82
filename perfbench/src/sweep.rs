//! Workload `sweep-quick`: one op is one `experiments sweep --quick
//! --threads 1` child process with a fresh cache file and output directory —
//! the CI pipeline as users pay for it, process start included. It runs
//! every protocol, the hostile and streaming scenarios, the memory-failure
//! and tuned fast-gossiping cells, adaptive CI stopping, report rendering and
//! cache writes, all at n ≤ 4096 where the state table fits the engine's 8 MB
//! cache-residency threshold and only the scalar delivery core runs.

use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use rpc_engine::{derive_seed, hash_key};
use rpc_experiments::profile::{self as trace_fold, ProfileRow};
use rpc_experiments::Scale;
use rpc_graphs::GraphArena;
use rpc_scenarios::{registry, scenario_engine_seeds};

use crate::host::{self, NoiseProbe};
use crate::reference::Reference;
use crate::report::Report;
use crate::spans::SpanRecorder;
use crate::stats::median;
use crate::{Budget, Ctx, Measured};

/// Committed quick-sweep goldens, relative to the repository root.
const GOLDEN_DIR: &str = "crates/rpc-experiments/tests/golden/quick";
const GOLDEN_FILES: [&str; 3] = ["fig1_overhead.csv", "table1_constants.csv", "scenarios.csv"];
/// The experiments of a quick sweep, as their sweep names begin.
const EXPERIMENTS: [&str; 9] =
    ["fig1", "fig2", "fig3", "fig4", "fig5", "theory", "ablation", "phases", "scenario"];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Reference chunks before each pass: about a twentieth of its time.
const CHUNKS_PER_PASS: usize = 6;
/// Sweep seeds a run cycles through. Passes of different seeds differ by up
/// to a fifth in work, so a run spreads its passes over several seeds, and
/// its median settles across workload seeds.
const SWEEP_SEEDS: u64 = 3;

/// CSV outputs by file name.
type Files = BTreeMap<String, String>;

/// One finished child process.
struct Pass {
    wall_ms: f64,
    files: Files,
    exit: host::ChildExit,
    trace: Option<Fold>,
}

fn read_csvs(dir: &Path) -> Result<Files, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut files = Files::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "csv") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let name = path.file_name().expect("a listed file has a name").to_string_lossy();
            files.insert(name.into_owned(), text);
        }
    }
    Ok(files)
}

/// Names of the golden files that `files` lacks or renders differently.
fn golden_mismatches(files: &Files, goldens: &Files) -> Vec<String> {
    goldens
        .iter()
        .filter(|(name, want)| files.get(*name) != Some(want))
        .map(|(name, _)| name.clone())
        .collect()
}

fn read_goldens() -> Result<Files, String> {
    GOLDEN_FILES
        .iter()
        .map(|name| {
            let path = Path::new(GOLDEN_DIR).join(name);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("golden {}: {e}", path.display()))?;
            Ok((name.to_string(), text))
        })
        .collect()
}

/// Runs `experiments <args>` with output to files in `dir`; returns its wall
/// time and how it ended, or an error if it failed.
fn child(ctx: &Ctx, dir: &Path, args: &[&str]) -> Result<(f64, host::ChildExit), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let log = |name: &str| File::create(dir.join(name)).map_err(|e| format!("{name}: {e}"));
    let t = Instant::now();
    let mut proc = Command::new(&ctx.experiments)
        .args(args)
        .stdin(Stdio::null())
        .stdout(log("stdout.md")?)
        .stderr(log("stderr.txt")?)
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", ctx.experiments.display()))?;
    let exit = host::wait_child(&mut proc).map_err(|e| e.to_string())?;
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    if !exit.status.success() {
        let stderr = std::fs::read_to_string(dir.join("stderr.txt")).unwrap_or_default();
        return Err(format!("experiments {} failed ({}): {stderr}", args.join(" "), exit.status));
    }
    Ok((wall_ms, exit))
}

/// The sweep seeds of a run: the workload seed, then seeds derived from it.
fn sweep_seeds(seed: u64) -> Vec<u64> {
    let stream = hash_key(b"sweep-quick/sweep-seeds");
    (0..SWEEP_SEEDS).map(|k| if k == 0 { seed } else { derive_seed(seed, stream, k) }).collect()
}

/// One quick-sweep pass at sweep seed `seed` in `dir`, traced to
/// `dir/trace.jsonl` when `trace`.
fn pass(ctx: &Ctx, seed: u64, dir: &Path, trace: bool) -> Result<Pass, String> {
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (seed, cache, out, trace_out) =
        (seed.to_string(), path("cache.txt"), path("out"), path("trace.jsonl"));
    let mut args = vec![
        "sweep",
        "--quick",
        "--threads",
        "1",
        "--seed",
        &seed,
        "--cache",
        &cache,
        "--out",
        &out,
    ];
    if trace {
        args.extend(["--trace-out", trace_out.as_str()]);
    }
    let (wall_ms, exit) = child(ctx, dir, &args)?;
    let files = read_csvs(&dir.join("out"))?;
    let trace = if trace { Some(fold(&trace_fold::load(Path::new(&trace_out))?)) } else { None };
    Ok(Pass { wall_ms, files, exit, trace })
}

/// A pass's trace folded per experiment.
#[derive(Debug, Default, PartialEq)]
struct Fold {
    /// Total repetition wall time per experiment, ns.
    rep_ns: BTreeMap<String, u64>,
    reps_executed: usize,
    reps_kept: usize,
    rounds: u64,
    cores: [u64; 3],
    /// (cell key, repetitions run) of the registry's `random-regular` cell.
    regular_cell: Option<(String, usize)>,
}

/// Groups the per-cell rows of `experiments profile`'s trace fold by
/// experiment (`fig3-n512` belongs to `fig3`).
fn fold(rows: &[ProfileRow]) -> Fold {
    let mut f = Fold::default();
    for row in rows {
        let experiment = row.sweep.split('-').next().unwrap_or(&row.sweep);
        *f.rep_ns.entry(experiment.to_string()).or_insert(0) += row.wall_nanos;
        f.reps_executed += row.reps_run;
        f.reps_kept += row.reps_kept;
        f.rounds += row.rounds;
        f.cores[0] += row.cores.scalar;
        f.cores[1] += row.cores.eager;
        f.cores[2] += row.cores.batch;
        if row.sweep == "scenario" && row.cell.contains("/scenario=random-regular/") {
            f.regular_cell = Some((row.cell.clone(), row.reps_run));
        }
    }
    f
}

/// Checks the CSVs of a pass at sweep seed `seed`: against the goldens at
/// the goldens' seed, and against the run's first pass at that seed always.
/// Returns the mismatching file names.
fn mismatches(seed: u64, files: &Files, first: Option<&Files>, goldens: &Files) -> Vec<String> {
    let mut bad =
        if seed == Scale::quick().seed { golden_mismatches(files, goldens) } else { Vec::new() };
    if let Some(first) = first {
        if first != files {
            bad.push("differs from the run's first pass at its seed".into());
        }
    }
    bad
}

fn files_digest(files: &Files) -> String {
    let text: String = files.iter().map(|(name, body)| format!("{name}\n{body}")).collect();
    format!("{:016x}", hash_key(text.as_bytes()))
}

/// Times quick-sweep passes for `window` with tracing off, each after a few
/// chunks of the host-speed reference. A pass lasts about a hundred chunks,
/// so every pass is set against the run's median chunk rather than the few
/// before it.
pub fn run(ctx: &Ctx, window: Duration) -> Result<Measured, String> {
    let mut report = Report::default();
    let mut reference = Reference::new();
    let goldens = read_goldens()?;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut warm_files: Option<Files> = None;
    for i in 0..SETUPS {
        // Process start plus a small sweep with a fixed repetition budget:
        // warms the binary's pages and the sweep path on nearly seed-free work.
        let t = Instant::now();
        let dir = ctx.scratch.join(format!("setup-{i}"));
        let (seed, out) = (ctx.seed.to_string(), dir.join("out").to_string_lossy().into_owned());
        child(
            ctx,
            &dir,
            &["fig1", "--quick", "--threads", "1", "--reps", "2", "--seed", &seed, "--out", &out],
        )?;
        setups.push(t.elapsed().as_secs_f64());
        let files = read_csvs(&dir.join("out"))?;
        let _ = std::fs::remove_dir_all(&dir);
        if let Some(first) = &warm_files {
            report.check(format!("set-up {i} repeats set-up 0's fig1 CSV"), *first == files);
        }
        warm_files.get_or_insert(files);
    }

    // The first pass at each sweep seed is traced: it gives the seed's
    // simulated rounds, delivery-core counts and the CSVs every later pass at
    // the seed must repeat, so a traced pass must write what untraced ones
    // do. Only the later, untraced passes are timed.
    let seeds = sweep_seeds(ctx.seed);
    let mut first: Vec<Option<(Files, Fold)>> = (0..seeds.len()).map(|_| None).collect();
    let (mut op_ms, mut rounds, mut wait_ns, mut rss) =
        (Vec::new(), Vec::new(), Some(0u64), Some(0f64));
    let mut chunk_ms = Vec::new();
    let probe = NoiseProbe::start();
    let start = Instant::now();
    let mut passes = 0;
    while passes <= seeds.len() || Budget::Time(window).more(start, passes) {
        chunk_ms.extend((0..CHUNKS_PER_PASS).map(|_| reference.chunk()));
        let k = passes % seeds.len();
        let dir = ctx.scratch.join(format!("pass-{passes}"));
        let p = pass(ctx, seeds[k], &dir, first[k].is_none())?;
        let _ = std::fs::remove_dir_all(&dir);
        let bad = mismatches(seeds[k], &p.files, first[k].as_ref().map(|f| &f.0), &goldens);
        if !bad.is_empty() {
            report.line(format!("pass {passes} mismatches: {}", bad.join(", ")));
        }
        report.op(bad.is_empty());
        passes += 1;
        if let Some((_, fold)) = &first[k] {
            op_ms.push(p.wall_ms);
            rounds.push(fold.rounds as f64);
            wait_ns = wait_ns.zip(p.exit.sched).map(|(a, s)| a + s.wait_ns);
            rss = rss.zip(p.exit.peak_rss_mb).map(|(a, b)| a.max(b));
        } else {
            first[k] = Some((p.files, p.trace.expect("a seed's first pass is traced")));
        }
    }
    report.line(probe.describe(wait_ns));
    report.line(format!(
        "timed pass wall times, ms: {}",
        op_ms.iter().map(|ms| format!("{ms:.1}")).collect::<Vec<_>>().join(" ")
    ));
    let rss = rss.ok_or("wait4 gave no resource usage for a pass")?;
    let folds: Vec<&Fold> = first.iter().flatten().map(|(_, f)| f).collect();
    for (seed, (files, fold)) in seeds.iter().zip(first.iter().flatten()) {
        report.line(format!(
            "sweep seed {seed}: digest {} of the pass CSVs ({} files), {} simulated rounds, \
             {} reps executed",
            files_digest(files),
            files.len(),
            fold.rounds,
            fold.reps_executed
        ));
    }

    // One reference for every pass: a pass lasts about a hundred chunks.
    let ref_ms = vec![median(&chunk_ms); op_ms.len()];
    let rss_note = format!("largest ru_maxrss of the {} pass processes", op_ms.len());
    let op_p50_ms =
        crate::end_to_end(&mut report, &op_ms, &ref_ms, &rounds, &setups, (rss, &rss_note));
    let cores_per_op = [0, 1, 2]
        .map(|c| folds.iter().map(|f| f.cores[c] as f64).sum::<f64>() / folds.len() as f64);
    Ok(Measured { report, op_p50_ms, cores_per_op, facts: Vec::new() })
}

/// Graph seeds of the `random-regular` cell's repetitions in a pass.
fn regular_graph_seeds(sweep_seed: u64, key: &str, reps: usize) -> Vec<u64> {
    (0..reps as u64)
        .map(|r| scenario_engine_seeds(derive_seed(sweep_seed, hash_key(key.as_bytes()), r)).0)
        .collect()
}

/// The traced run: passes with `--trace-out`, folded per experiment, and the
/// `random-regular` cell's graphs regenerated and timed. Returns the
/// per-layer metrics and the median traced pass time (ms).
pub fn profile(ctx: &Ctx, budget: Budget, rec: &mut SpanRecorder) -> Result<(Report, f64), String> {
    let mut report = Report::default();
    let goldens = read_goldens()?;
    let mut first: Option<Files> = None;
    let mut folds = Vec::new();
    let mut pass_ms = Vec::new();
    let start = Instant::now();
    while budget.more(start, pass_ms.len()) {
        let op = pass_ms.len();
        rec.set_op(op as u64);
        let dir = ctx.scratch.join(format!("traced-{op}"));
        let t0 = Instant::now();
        let p = pass(ctx, ctx.seed, &dir, true)?;
        rec.record("experiments.sweep_quick", t0, Instant::now());
        let _ = std::fs::remove_dir_all(&dir);
        report.op(mismatches(ctx.seed, &p.files, first.as_ref(), &goldens).is_empty());
        first.get_or_insert(p.files);
        pass_ms.push(p.wall_ms);
        folds.push(p.trace.expect("a traced pass has a trace"));
    }

    let n = pass_ms.len();
    for exp in EXPERIMENTS {
        let ms: Vec<f64> =
            folds.iter().map(|f| f.rep_ns.get(exp).copied().unwrap_or(0) as f64 / 1e6).collect();
        report.metric(
            format!("sweep.rep_ms.{exp}"),
            median(&ms),
            "ms",
            format!("total rep wall time per pass, median of {n}"),
        );
    }
    let f = &folds[0];
    report.metric("sweep.reps_executed", f.reps_executed as f64, "count", "per pass");
    report.metric("sweep.reps_kept", f.reps_kept as f64, "count", "per pass, by the CI stop rule");
    report.metric(
        "sweep.rep_yield",
        f.reps_kept as f64 / f.reps_executed as f64,
        "ratio",
        "kept / executed",
    );
    let non_rep: Vec<f64> = folds
        .iter()
        .zip(&pass_ms)
        .map(|(f, ms)| ms - f.rep_ns.values().sum::<u64>() as f64 / 1e6)
        .collect();
    report.metric(
        "experiments.non_rep_ms",
        median(&non_rep),
        "ms",
        format!("pass wall minus total rep time, median of {n}"),
    );

    let (key, reps) =
        f.regular_cell.clone().ok_or("the trace has no random-regular scenario cell")?;
    let nodes: usize = key
        .rsplit('/')
        .find_map(|axis| axis.strip_prefix("n="))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("cell {key} has no n axis"))?;
    let scenario =
        registry::find("random-regular", nodes).ok_or("registry has no random-regular")?;
    let generator = scenario.topology.build();
    let seeds = regular_graph_seeds(ctx.seed, &key, reps);
    let mut arena = GraphArena::new();
    generator.generate_into(seeds[0], &mut arena);
    let mut gen_ms = Vec::with_capacity(seeds.len());
    for &s in &seeds {
        let span = rec.enter("graphs.regular_generate_into");
        generator.generate_into(s, &mut arena);
        rec.exit(span);
        black_box(arena.graph());
        gen_ms.push(rec.nanos(span) as f64 / 1e6);
    }
    report.metric(
        "graphs.regular_gen_ms",
        median(&gen_ms),
        "ms",
        format!(
            "generate_into on the random-regular cell's {} graph seeds (n = {nodes})",
            seeds.len()
        ),
    );
    Ok((report, median(&pass_ms)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(pairs: &[(&str, &str)]) -> Files {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    #[test]
    fn golden_comparison_names_missing_and_differing_files() {
        let goldens = files(&[("a.csv", "x\n1\n"), ("b.csv", "y\n2\n")]);
        let same = files(&[("a.csv", "x\n1\n"), ("b.csv", "y\n2\n"), ("extra.csv", "z\n")]);
        assert!(golden_mismatches(&same, &goldens).is_empty(), "extra outputs are not compared");
        let off = files(&[("a.csv", "x\n1\n"), ("b.csv", "y\n3\n")]);
        assert_eq!(golden_mismatches(&off, &goldens), vec!["b.csv".to_string()]);
        let missing = files(&[("b.csv", "y\n2\n")]);
        assert_eq!(golden_mismatches(&missing, &goldens), vec!["a.csv".to_string()]);
        let trailing = files(&[("a.csv", "x\n1"), ("b.csv", "y\n2\n")]);
        assert_eq!(
            golden_mismatches(&trailing, &goldens),
            vec!["a.csv".to_string()],
            "byte for byte"
        );
    }

    #[test]
    fn committed_goldens_are_readable_from_the_repository_root() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        for name in GOLDEN_FILES {
            assert!(root.join(GOLDEN_DIR).join(name).is_file(), "{name}");
        }
    }

    #[test]
    fn trace_fold_groups_cells_by_experiment() {
        let lines = [
            r#"{"ev":"rep-finished","sweep":"fig3-n512","cell":"fig3-n512/f=2","rep":0,"wall_nanos":1000,"rounds":10,"scalar_rounds":9,"eager_rounds":0,"batch_rounds":0}"#,
            r#"{"ev":"rep-finished","sweep":"fig3-n2048","cell":"fig3-n2048/f=2","rep":0,"wall_nanos":3000,"rounds":12,"scalar_rounds":11,"eager_rounds":1,"batch_rounds":0}"#,
            r#"{"ev":"cell-finished","sweep":"fig3-n512","cell":"fig3-n512/f=2","reps":1,"cached":false}"#,
            r#"{"ev":"rep-finished","sweep":"scenario","cell":"scenario/scenario=random-regular/n=1024","rep":0,"wall_nanos":500,"rounds":7,"scalar_rounds":7,"eager_rounds":0,"batch_rounds":0}"#,
            r#"{"ev":"rep-finished","sweep":"scenario","cell":"scenario/scenario=random-regular/n=1024","rep":1,"wall_nanos":700,"rounds":8,"scalar_rounds":8,"eager_rounds":0,"batch_rounds":0}"#,
            r#"{"ev":"cell-finished","sweep":"scenario","cell":"scenario/scenario=random-regular/n=1024","reps":2,"cached":false}"#,
            r#"{"ev":"sweep-finished","sweep":"scenario","cells":1,"executed_reps":2,"cached_cells":0}"#,
        ];
        let rows = trace_fold::aggregate(lines.iter().map(|l| l.to_string())).unwrap();
        let f = fold(&rows);
        assert_eq!(f.rep_ns["fig3"], 4000);
        assert_eq!(f.rep_ns["scenario"], 1200);
        assert_eq!((f.reps_executed, f.reps_kept), (4, 3));
        assert_eq!(f.rounds, 37);
        assert_eq!(f.cores, [35, 1, 0]);
        assert_eq!(
            f.regular_cell,
            Some(("scenario/scenario=random-regular/n=1024".to_string(), 2))
        );
    }

    #[test]
    fn regular_seeds_follow_the_sweep_rep_seed_derivation() {
        let seeds = regular_graph_seeds(1, "scenario/x", 3);
        assert_eq!(seeds.len(), 3);
        let rep1 = derive_seed(1, hash_key(b"scenario/x"), 1);
        assert_eq!(seeds[1], scenario_engine_seeds(rep1).0);
    }

    #[test]
    fn first_pass_mismatch_is_reported_at_any_seed() {
        let goldens = files(&[("a.csv", "gold")]);
        let a = files(&[("a.csv", "other")]);
        assert!(
            mismatches(12345, &a, None, &goldens).is_empty(),
            "goldens apply at their seed only"
        );
        assert!(mismatches(12345, &a, Some(&a), &goldens).is_empty());
        assert_eq!(mismatches(12345, &a, Some(&goldens), &goldens).len(), 1);
        let golden_seed = Scale::quick().seed;
        assert_eq!(mismatches(golden_seed, &a, None, &goldens), vec!["a.csv".to_string()]);
    }

    #[test]
    fn a_run_cycles_through_the_workload_seed_and_derived_ones() {
        let seeds = sweep_seeds(7);
        assert_eq!(seeds.len(), SWEEP_SEEDS as usize);
        assert_eq!(seeds[0], 7, "the workload seed itself, so seed 1 meets the goldens");
        assert_eq!(seeds, sweep_seeds(7));
        assert_ne!(seeds[1], seeds[2]);
        assert_ne!(sweep_seeds(8)[1], seeds[1]);
    }
}
