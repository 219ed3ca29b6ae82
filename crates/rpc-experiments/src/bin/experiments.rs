//! Command-line entry point that regenerates the paper's figures and tables.
//!
//! ```text
//! experiments <subcommand> [--quick|--large] [--max-n N] [--reps K]
//!             [--max-reps K] [--ci-rel T] [--seed S] [--threads T]
//!             [--out DIR] [--cache FILE] [--only NAME]...
//!             [--trace-out FILE] [--profile]
//!
//! subcommands:
//!   table1      Table 1  — simulation constants
//!   fig1        Figure 1 — messages per node for Push-Pull / Algorithm 1 / Algorithm 2
//!   fig2        Figure 2 — robustness ratio (largest size)
//!   fig3        Figure 3 — robustness ratio (two sizes)
//!   fig4        Figure 4 — fast-gossiping detail
//!   fig5        Figure 5 — loss thresholds
//!   theory      Theorems 1 & 2 shape check
//!   separation  Broadcast-vs-gossip density contrast
//!   ablation    Fast-gossiping parameter tuning
//!   phases      Per-phase packet breakdown
//!   scenario    Built-in scenario registry as one sweep
//!   sweep       Every experiment above but separation (respects --only)
//!   all         sweep + separation (respects --only)
//!   profile     Aggregate a recorded trace into a per-cell timing table
//!   node        Serve one gossip node over JSON lines on stdin/stdout
//!   cluster     Run a scenario as an in-process node cluster under a nemesis
//! ```
//!
//! `node` and `cluster` take their own flags (they are runtime commands, not
//! sweeps):
//!
//! ```text
//! experiments node [--state-path FILE]
//! experiments cluster [--scenario NAME] [--n N] [--seed S]
//!                     [--nemesis SPEC] [--trace-out FILE] [--require-complete]
//! ```
//!
//! `node` speaks the Maelstrom-style wire protocol of `rpc-runtime`: it waits
//! for an `init` envelope naming a registry scenario, then answers
//! `start_round`/`gossip`/`read` until EOF. `--state-path` persists the rumor
//! store after every message so a supervisor can kill and restart the process
//! without losing rumors. `cluster` runs n such actors and the coordinator in
//! one process and injects faults per the `--nemesis` grammar
//! (`drop=0.1,delay=0.2:3,duplicate=0.05,partition=4:2,crash=3@5+4,seed=9`);
//! `--require-complete` exits nonzero unless the stop rule was satisfied.
//!
//! `--only NAME` restricts `sweep` and `all` to the named experiments. An
//! unknown name, or a list that selects nothing the subcommand runs (such as
//! `sweep --only separation`: only `all` and `separation` run separation),
//! fails the command before the trace or any output file is touched.
//!
//! `--profile` (or `--trace-out FILE`) streams every sweep's observability
//! events — dispatch decisions, pool/arena stats, per-repetition wall-clock —
//! as JSON lines and reports live progress on stderr; `experiments profile`
//! then folds that trace into a per-cell, per-delivery-core timing table.
//! Tracing never changes results: observed runs are bit-identical to
//! unobserved ones (see `rpc-obs`).
//!
//! Every simulation experiment is a declarative `SweepSpec` executed by the
//! adaptive sweep engine: repetitions per cell run until a 95% CI stop rule on
//! the experiment's headline metric is met (or `--reps K` forces a fixed
//! budget), `--cache FILE` makes interrupted runs resume from finished cells,
//! and all reported numbers are bit-identical for any `--threads` value.
//!
//! Results are printed as Markdown and, when `--out DIR` is given, written as
//! one CSV file per experiment plus a JSON sweep report (same stem) carrying
//! the per-cell CI aggregates. A CSV, JSON, `--cache` or trace file that cannot
//! be written ends the command with `error: failed to write <path>: <cause>`
//! and a nonzero exit.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rpc_experiments::{
    ablation, fig1, fig4, phases, profile, report::Table, robustness, scenario, separation, table1,
    theory_check, RunOpts,
};
use rpc_obs::TraceWriter;
use rpc_runtime::{
    run_cluster, run_cluster_observed, serve, ClusterConfig, NemesisSpec, RetryPolicy,
    RuntimeOutcome, StdioTransport,
};
use rpc_scenarios::{
    arithmetic_failure_sweep, dense_size_sweep, failure_sweep, registry, size_sweep, SweepReport,
};

/// What an experiment subcommand returns: `Err` carries the message printed
/// before the command exits nonzero.
type CmdResult = Result<(), String>;

/// Prints the table as Markdown and, with `--out`, writes `<stem>.csv` plus —
/// for sweep-backed experiments — the `<stem>.json` report. A failed write is
/// an error: the command must not succeed without its outputs.
fn emit(table: &Table, stem: &str, report: Option<&SweepReport>, opts: &RunOpts) -> CmdResult {
    println!("{}", table.to_markdown());
    if let Some(dir) = &opts.out_dir {
        let csv = dir.join(format!("{stem}.csv"));
        table.write_csv(&csv).map_err(|e| format!("failed to write {}: {e}", csv.display()))?;
        eprintln!("wrote {}", csv.display());
        if let Some(report) = report {
            write_file(&dir.join(format!("{stem}.json")), &report.to_json())?;
        }
    }
    Ok(())
}

/// Writes `contents` to `path`, reporting the write on stderr.
fn write_file(path: &Path, contents: &str) -> CmdResult {
    std::fs::write(path, contents)
        .map_err(|e| format!("failed to write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn run_table1(opts: &RunOpts) -> CmdResult {
    emit(&table1::run(&[1_000, 10_000, 100_000, 1_000_000]), "table1_constants", None, opts)
}

fn run_fig1(opts: &RunOpts) -> CmdResult {
    let sizes = size_sweep(opts.scale.min_n, opts.scale.max_n);
    let spec = fig1::spec(&sizes, opts.scale.seed, opts.policy("packets_per_node"));
    let report = opts.run_spec(&spec)?;
    emit(&fig1::table(&report), "fig1_overhead", Some(&report), opts)
}

fn run_fig2(opts: &RunOpts) -> CmdResult {
    // The paper uses n = 10^6; we use the largest size of the configured scale.
    let n = opts.scale.max_n;
    let failures = failure_sweep((n / 1000).max(2), n / 10);
    let spec = robustness::loss_ratio_spec(
        "fig2",
        n,
        &failures,
        3,
        opts.scale.seed,
        opts.policy("loss_ratio"),
    );
    let report = opts.run_spec(&spec)?;
    let title = format!("Figure 2 — additional loss ratio, n = {n}");
    emit(&robustness::loss_ratio_table(&title, &report), "fig2_robustness", Some(&report), opts)
}

fn run_fig3(opts: &RunOpts) -> CmdResult {
    for (idx, n) in [opts.scale.max_n / 8, opts.scale.max_n / 2].into_iter().enumerate() {
        let n = n.max(512);
        let failures = failure_sweep((n / 1000).max(2), n / 10);
        let spec = robustness::loss_ratio_spec(
            &format!("fig3-n{n}"),
            n,
            &failures,
            3,
            opts.scale.seed,
            opts.policy("loss_ratio"),
        );
        let report = opts.run_spec(&spec)?;
        let title = format!("Figure 3.{} — additional loss ratio, n = {n}", idx + 1);
        emit(
            &robustness::loss_ratio_table(&title, &report),
            &format!("fig3_robustness_n{n}"),
            Some(&report),
            opts,
        )?;
    }
    Ok(())
}

fn run_fig4(opts: &RunOpts) -> CmdResult {
    let sizes = dense_size_sweep(opts.scale.max_n / 8, opts.scale.max_n);
    let spec = fig4::spec(&sizes, opts.scale.seed, opts.policy("packets_per_node"));
    let report = opts.run_spec(&spec)?;
    emit(&fig4::table(&report), "fig4_fastgossip_detail", Some(&report), opts)
}

fn run_fig5(opts: &RunOpts) -> CmdResult {
    for (idx, n) in [opts.scale.max_n / 8, opts.scale.max_n / 2].into_iter().enumerate() {
        let n = n.max(512);
        let step = (n / 20).max(1);
        let failures = arithmetic_failure_sweep(step, n / 4);
        // At least five runs per point so the exceedance percentages resolve.
        let spec = robustness::loss_ratio_spec(
            &format!("fig5-n{n}"),
            n,
            &failures,
            3,
            opts.scale.seed,
            opts.policy_with_min(5, "lost_messages"),
        );
        let report = opts.run_spec(&spec)?;
        let title = format!("Figure 5.{} — runs losing more than T messages, n = {n}", idx + 1);
        emit(
            &robustness::loss_thresholds_table(&title, &report),
            &format!("fig5_thresholds_n{n}"),
            Some(&report),
            opts,
        )?;
    }
    Ok(())
}

fn run_theory(opts: &RunOpts) -> CmdResult {
    let sizes = size_sweep(opts.scale.min_n, opts.scale.max_n.min(1 << 14));
    let spec = theory_check::spec(&sizes, opts.scale.seed, opts.policy("packets_per_node"));
    let report = opts.run_spec(&spec)?;
    emit(&theory_check::table(&report), "theory_shape_check", Some(&report), opts)
}

fn run_separation(opts: &RunOpts) -> CmdResult {
    let sizes = size_sweep(opts.scale.min_n, opts.scale.max_n.min(1 << 14));
    let spec = separation::spec(&sizes, opts.scale.seed, opts.policy("packets_per_node"));
    let report = opts.run_spec(&spec)?;
    emit(&separation::table(&report), "separation_broadcast_vs_gossip", Some(&report), opts)
}

fn run_ablation(opts: &RunOpts) -> CmdResult {
    let n = (opts.scale.max_n / 4).max(1024);
    let spec = ablation::spec(
        n,
        &[0.5, 1.0, 2.0, 4.0],
        &[1, 2, 3],
        opts.scale.seed,
        opts.policy("packets_per_node"),
    );
    let report = opts.run_spec(&spec)?;
    emit(&ablation::table(&report), "ablation_fast_gossiping", Some(&report), opts)
}

fn run_phases(opts: &RunOpts) -> CmdResult {
    let n = (opts.scale.max_n / 4).max(1024);
    let spec = phases::spec(n, opts.scale.seed, opts.policy("packets_per_node"));
    let report = opts.run_spec(&spec)?;
    emit(&phases::table(&report), "phase_breakdown", Some(&report), opts)
}

fn run_scenarios(opts: &RunOpts) -> CmdResult {
    // Scenario graphs use a quarter of the sweep's largest size: the registry
    // runs 24 scenarios (all three protocols under complete/rounds/coverage
    // stop rules, the hostile-dimension set — zone crashes, loss bursts,
    // edge churn, Byzantine senders — the multi-rumor streaming set, and the
    // node-runtime trio that the differential suite replays), so this keeps
    // `--quick` in CI territory while the default/large scales still
    // exercise real sizes.
    let n = (opts.scale.max_n / 4).max(256);
    let spec = scenario::spec(n, opts.scale.seed, opts.policy("rounds"));
    let report = opts.run_spec(&spec)?;
    emit(&scenario::table(&report), "scenarios", Some(&report), opts)
}

/// The experiments of `sweep`/`all`, in execution order. `table1` rides along
/// (constants only, no spec); `separation` runs only under `all` or its own
/// subcommand, so `sweep` keeps its quick-scale cost.
type NamedExperiment = (&'static str, fn(&RunOpts) -> CmdResult);

const SWEEP_EXPERIMENTS: &[NamedExperiment] = &[
    ("table1", run_table1),
    ("fig1", run_fig1),
    ("fig2", run_fig2),
    ("fig3", run_fig3),
    ("fig4", run_fig4),
    ("fig5", run_fig5),
    ("theory", run_theory),
    ("ablation", run_ablation),
    ("phases", run_phases),
    ("scenario", run_scenarios),
];

fn run_sweep(opts: &RunOpts) -> CmdResult {
    for (name, run) in SWEEP_EXPERIMENTS {
        if opts.should_run(name) {
            run(opts)?;
        }
    }
    Ok(())
}

fn run_all(opts: &RunOpts) -> CmdResult {
    run_sweep(opts)?;
    if opts.should_run("separation") {
        run_separation(opts)?;
    }
    Ok(())
}

/// The subcommands that run sweeps (`table1` rides along): each starts its
/// trace from an empty file.
fn sweep_command(name: &str) -> Option<fn(&RunOpts) -> CmdResult> {
    let run: fn(&RunOpts) -> CmdResult = match name {
        "separation" => run_separation,
        "sweep" => run_sweep,
        "all" => run_all,
        _ => return SWEEP_EXPERIMENTS.iter().find(|(n, _)| *n == name).map(|&(_, run)| run),
    };
    Some(run)
}

/// Whether the sweep subcommand `command` runs `experiment` when `--only`
/// names it.
fn runs(command: &str, experiment: &str) -> bool {
    match command {
        "sweep" => SWEEP_EXPERIMENTS.iter().any(|&(name, _)| name == experiment),
        "all" => experiment == "separation" || runs("sweep", experiment),
        _ => command == experiment,
    }
}

/// Aggregates a JSON-lines trace (from `--profile` / `--trace-out`) into the
/// per-cell, per-core timing table.
fn run_profile(opts: &RunOpts) -> CmdResult {
    let path = opts.trace_path().unwrap_or_else(|| {
        opts.out_dir
            .as_deref()
            .map_or_else(|| std::path::PathBuf::from("trace.jsonl"), |dir| dir.join("trace.jsonl"))
    });
    let rows = profile::load(&path)?;
    if rows.is_empty() {
        return Err(format!("trace {} contains no sweep cells", path.display()));
    }
    emit(&profile::table(&rows), "profile", None, opts)?;
    match &opts.out_dir {
        Some(dir) => write_file(&dir.join("profile.json"), &profile::to_json(&rows)),
        None => Ok(()),
    }
}

/// Creates the trace file at `path`, empty, along with any missing parent
/// directories. A sweep command calls this once before it runs, because its
/// per-sweep writers append: without it reruns would accumulate stale events
/// and the `profile` table would double-count.
fn create_trace(path: &Path) -> Result<std::fs::File, String> {
    let failed = |e: std::io::Error| format!("failed to write {}: {e}", path.display());
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(failed)?;
    }
    std::fs::File::create(path).map_err(failed)
}

/// `experiments node [--state-path FILE]` — the deployable actor: serve one
/// gossip node over JSON lines on stdin/stdout until EOF.
fn run_node(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut state_path: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--state-path" => {
                let path = args.next().ok_or("--state-path needs a file argument")?;
                state_path = Some(PathBuf::from(path));
            }
            other => return Err(format!("unknown node flag: {other}")),
        }
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut transport = StdioTransport::new(stdin.lock(), stdout.lock());
    serve(&mut transport, state_path.as_deref()).map_err(|e| e.to_string())
}

/// `experiments cluster ...` — run one registry scenario as an in-process
/// cluster of node actors under a (possibly hostile) nemesis and print the
/// outcome summary.
fn run_cluster_cmd(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut scenario_name = "sparse-er".to_string();
    let mut n = 16usize;
    let mut seed = 1u64;
    let mut nemesis = NemesisSpec::default();
    let mut trace_out: Option<PathBuf> = None;
    let mut require_complete = false;
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs an argument"));
        match arg.as_str() {
            "--scenario" => scenario_name = value("--scenario")?,
            "--n" => {
                n = value("--n")?.parse().map_err(|e| format!("bad --n: {e}"))?;
            }
            "--seed" => {
                seed = value("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--nemesis" => nemesis = NemesisSpec::parse(&value("--nemesis")?)?,
            "--trace-out" => trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--require-complete" => require_complete = true,
            other => return Err(format!("unknown cluster flag: {other}")),
        }
    }

    let scenario = registry::find(&scenario_name, n)
        .ok_or_else(|| format!("no registry scenario named {scenario_name:?}"))?;
    // The registry clamps sizes so every scenario stays well-formed; report
    // the size the cluster will actually run at, not the one requested.
    if scenario.topology.num_nodes() != n {
        eprintln!("note: registry clamped --n {n} to {}", scenario.topology.num_nodes());
        n = scenario.topology.num_nodes();
    }
    let config = ClusterConfig { policy: RetryPolicy::default(), nemesis };
    let outcome = match &trace_out {
        Some(path) => {
            let mut sink = TraceWriter::new(std::io::BufWriter::new(create_trace(path)?));
            let outcome = run_cluster_observed(&scenario, seed, &config, &mut sink)
                .map_err(|e| e.to_string())?;
            let failed = |e: std::io::Error| format!("failed to write {}: {e}", path.display());
            sink.finish().map_err(failed)?.flush().map_err(failed)?;
            eprintln!("wrote {}", path.display());
            outcome
        }
        None => run_cluster(&scenario, seed, &config).map_err(|e| e.to_string())?,
    };

    print_cluster_summary(&scenario_name, n, seed, &outcome);
    if require_complete && !outcome.completed {
        return Err(format!("stop rule not satisfied: {:?}", outcome.stopped_by));
    }
    Ok(())
}

/// Prints the cluster outcome in the same key/value style the sweep tables
/// use for their stderr progress lines.
fn print_cluster_summary(scenario: &str, n: usize, seed: u64, outcome: &RuntimeOutcome) {
    println!("cluster {scenario} n={n} seed={seed}");
    println!("  completed        {}", outcome.completed);
    println!("  stopped_by       {:?}", outcome.stopped_by);
    println!("  rounds           {}", outcome.rounds);
    println!("  packets          {}", outcome.total_packets);
    println!("  exchanges        {}", outcome.total_exchanges);
    println!("  retries          {}", outcome.retries);
    println!("  degraded_rounds  {}", outcome.quorum_advances);
    let f = &outcome.faults;
    println!(
        "  faults           dropped={} delayed={} duplicated={} partition_drops={} \
         crash_drops={} crashes={} restarts={}",
        f.dropped, f.delayed, f.duplicated, f.partition_drops, f.crash_drops, f.crashes, f.restarts
    );
    let informed = outcome.trace.last().map_or(0, |row| row.fully_informed);
    println!("  informed_nodes   {informed}/{n}");
    println!("  forged_rumors    {}", outcome.forged);
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| "help".to_string());
    let result = match command.as_str() {
        // The runtime commands parse their own flags — they are not sweeps
        // and take none of the sweep options.
        "node" => run_node(args),
        "cluster" => run_cluster_cmd(args),
        _ => RunOpts::parse(args).and_then(|opts| run_with_sweep_options(&command, &opts)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs a subcommand that takes the sweep options. Only a sweep subcommand
/// empties the trace file: `profile` reads it, and `help` or a mistyped
/// name must leave it alone. A trace file that cannot be created, an
/// `--only` naming no experiment, or an `--only` selecting nothing the
/// subcommand runs (both would run nothing) fails the command before any
/// sweep runs or any file is touched.
fn run_with_sweep_options(command: &str, opts: &RunOpts) -> CmdResult {
    if let Some(run) = sweep_command(command) {
        if let Some(unknown) = opts.only.iter().find(|name| !runs("all", name)) {
            return Err(format!("unknown experiment {unknown}"));
        }
        if !opts.only.is_empty() && !opts.only.iter().any(|name| runs(command, name)) {
            let hint = if opts.only.iter().any(|name| name == "separation") {
                "; separation runs only under `all` or `separation`"
            } else {
                ""
            };
            return Err(format!("--only selects nothing `{command}` runs{hint}"));
        }
        if let Some(path) = opts.trace_path() {
            create_trace(&path)?;
        }
        return run(opts);
    }
    match command {
        "profile" => run_profile(opts),
        "help" | "--help" | "-h" => {
            println!(
                "usage: experiments \
                 <table1|fig1|fig2|fig3|fig4|fig5|theory|separation|ablation|phases|scenario|sweep|all|profile> \
                 [--quick|--large] [--max-n N] [--reps K] [--max-reps K] [--ci-rel T] \
                 [--seed S] [--threads T] [--out DIR] [--cache FILE] [--only NAME]... \
                 [--trace-out FILE] [--profile]\n       \
                 experiments node [--state-path FILE]\n       \
                 experiments cluster [--scenario NAME] [--n N] [--seed S] [--nemesis SPEC] \
                 [--trace-out FILE] [--require-complete]"
            );
            Ok(())
        }
        other => Err(format!("unknown subcommand: {other} (try `experiments help`)")),
    }
}
