//! CI gate for the observability layer's zero-cost contract.
//!
//! Runs the scenario round loop A/B — plain [`run_scenario`] vs the observed
//! path monomorphized at [`NoopObserver`], each on fresh storage — with
//! interleaved repetitions, and exits non-zero if the no-op observed median
//! is more than `--tolerance` slower than the plain median on any protocol.
//! The vendored criterion harness runs single-shot in CI, so this binary (not
//! the `obs_overhead` bench) is what enforces the zero-cost contract's ≤2%
//! bound.
//!
//! ```text
//! obs_overhead_gate [--quick] [--reps R] [--tolerance F] [--seed S]
//! ```
//!
//! * `--reps`      — repetitions per arm (default 30; medians over
//!   interleaved samples so shared-VM stalls bias neither arm);
//! * `--tolerance` — allowed relative slowdown (default 0.02 = 2%);
//! * `--quick`     — 10 repetitions, push-pull only (CI smoke mode).

use std::time::Instant;

use rpc_obs::NoopObserver;
use rpc_scenarios::prelude::*;

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let mid = samples.len() / 2;
    if samples.len() % 2 == 0 {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}

fn main() {
    let mut quick = false;
    let mut reps: usize = 30;
    let mut tolerance: f64 = 0.02;
    let mut seed: u64 = 0xC0FFEE;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--reps" => {
                reps = args.next().and_then(|s| s.parse().ok()).expect("--reps needs a number")
            }
            "--tolerance" => {
                tolerance =
                    args.next().and_then(|s| s.parse().ok()).expect("--tolerance needs a number")
            }
            "--seed" => {
                seed = args.next().and_then(|s| s.parse().ok()).expect("--seed needs a number")
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: obs_overhead_gate [--quick] [--reps R] [--tolerance F] [--seed S]"
                );
                std::process::exit(2);
            }
        }
    }
    if quick {
        reps = reps.min(10);
    }

    let n = 1 << 10;
    let protocols: &[ProtocolSpec] = if quick {
        &[ProtocolSpec::PushPull]
    } else {
        &[ProtocolSpec::PushPull, ProtocolSpec::FastGossiping, ProtocolSpec::Memory]
    };

    let mut failed = false;
    for &protocol in protocols {
        let scenario = Scenario::builder("gate", TopologySpec::ErdosRenyiPaper { n })
            .protocol(protocol)
            .build()
            .expect("gate scenario must validate");
        // One warm-up pair so page faults and lazy init hit neither arm's
        // samples, then interleave: host noise (shared VM, frequency drift)
        // drifts over seconds, so alternating A/B keeps it common-mode.
        // The no-op arm allocates a fresh arena per run, like `run_scenario`.
        let noop_run = || {
            run_scenario_observed_in(
                &mut ScenarioArena::default(),
                &scenario,
                seed,
                1,
                &mut NoopObserver,
            )
        };
        let _ = run_scenario(&scenario, seed, 1);
        let _ = noop_run();
        let mut plain = Vec::with_capacity(reps);
        let mut noop = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            let a = run_scenario(&scenario, seed, 1).rounds;
            plain.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let b = noop_run().rounds;
            noop.push(t.elapsed().as_secs_f64());
            assert_eq!(a, b, "no-op observed run diverged from plain run");
        }
        let plain_ms = median(&mut plain) * 1e3;
        let noop_ms = median(&mut noop) * 1e3;
        let ratio = noop_ms / plain_ms;
        let verdict = if ratio <= 1.0 + tolerance { "ok" } else { "FAIL" };
        eprintln!(
            "{:<15} plain {plain_ms:>8.3} ms  noop {noop_ms:>8.3} ms  ratio {ratio:.4}  {verdict}",
            protocol.name(),
        );
        if ratio > 1.0 + tolerance {
            failed = true;
        }
    }

    if failed {
        eprintln!(
            "obs_overhead_gate: no-op observer exceeds the {:.1}% overhead budget",
            tolerance * 100.0
        );
        std::process::exit(1);
    }
    eprintln!("obs_overhead_gate: no-op observer within the {:.1}% budget", tolerance * 100.0);
}
