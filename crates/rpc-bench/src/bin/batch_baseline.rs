//! Emits the tracked Monte Carlo batch baseline (`BENCH_scenario_batch.json`).
//!
//! Measures scenario *repetitions* — the unit of work of a Monte Carlo batch
//! — in two modes over identical seeds: `fresh` (allocate graph + simulation
//! per repetition) and `arena` (per-worker [`rpc_scenarios::ScenarioArena`]
//! reuse, the sweep worker's path). Outcomes are asserted equal on every
//! repetition, and the run starts with a registry-wide fresh-vs-arena trace
//! comparison, so a passing baseline is also an equivalence check — CI runs
//! `--quick` for exactly that assertion.
//!
//! ```text
//! batch_baseline [--quick] [--out PATH] [--seed S] [--reps R]
//! ```
//!
//! * `--quick` — n = 1000 only, 30 repetitions + the registry smoke
//!   assertion (CI mode);
//! * default    — n ∈ {1000, 10 000} × all three protocols, 10 000
//!   repetitions at n = 1000 and 1000 at n = 10 000;
//! * `--out`   — output path (default `BENCH_scenario_batch.json`);
//! * `--seed`  — base seed (default `0xBA7C4`);
//! * `--reps`  — override the per-cell repetition count.

use std::io::Write as _;

use rpc_bench::scenario_batch::{
    batch_scenario, measure_cell, registry_smoke, speedup_at, to_json, BatchMeasurement, PROTOCOLS,
};

fn main() {
    let mut quick = false;
    let mut out_path = String::from("BENCH_scenario_batch.json");
    let mut seed: u64 = 0xBA7C4;
    let mut reps_override: Option<usize> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--seed" => {
                seed = args.next().and_then(|s| s.parse().ok()).expect("--seed needs a number")
            }
            "--reps" => {
                reps_override =
                    Some(args.next().and_then(|s| s.parse().ok()).expect("--reps needs a number"))
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: batch_baseline [--quick] [--out PATH] [--seed S] [--reps R]");
                std::process::exit(2);
            }
        }
    }

    // The smoke assertion always runs: the reuse path must agree with the
    // fresh path on every registry scenario (outcome AND per-round trace).
    let smoke_n = if quick { 64 } else { 256 };
    eprintln!("registry fresh-vs-arena smoke at n={smoke_n} …");
    match registry_smoke(smoke_n, seed) {
        Ok(count) => eprintln!("  ok: {count} scenarios agree"),
        Err(message) => {
            eprintln!("  FAILED: {message}");
            std::process::exit(1);
        }
    }

    // (n, default repetitions): the n=1k cell carries the headline 10k-rep
    // measurement; n=10k runs fewer repetitions to keep the baseline
    // regenerable in minutes.
    let cells: &[(usize, usize)] =
        if quick { &[(1_000, 30)] } else { &[(1_000, 10_000), (10_000, 1_000)] };

    let mut results: Vec<BatchMeasurement> = Vec::new();
    for &(n, default_reps) in cells {
        for protocol in PROTOCOLS {
            let reps = reps_override.unwrap_or(default_reps);
            eprintln!("cell {protocol} n={n} ({reps} reps, interleaved) …");
            let scenario = batch_scenario(protocol, n);
            let (fresh, arena) = measure_cell(&scenario, protocol, seed, reps);
            for m in [fresh, arena] {
                eprintln!(
                    "  {:>6}: {:>12.1} ns/rep, {:>10.1} reps/s",
                    m.mode, m.median_ns_per_rep, m.reps_per_sec
                );
                results.push(m);
            }
            if let Some(speedup) = speedup_at(&results, protocol, n) {
                eprintln!("  speedup : {speedup:.2}x");
            }
        }
    }

    let json = to_json(&results, seed);
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", parent.display()));
        }
    }
    let mut file = std::fs::File::create(&out_path)
        .unwrap_or_else(|e| panic!("cannot create {out_path}: {e}"));
    file.write_all(json.as_bytes()).expect("write BENCH json");
    eprintln!("wrote {out_path} ({} measurements)", results.len());
}
