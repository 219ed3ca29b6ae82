//! `obs_overhead`: the zero-cost contract of the observability layer, A/B.
//!
//! Three arms over the same scenario round loop:
//!
//! * `plain`      — [`run_scenario`], the default entry point (internally the
//!   observed path monomorphized at [`NoopObserver`]);
//! * `noop`       — [`run_scenario_observed_in`] on a fresh arena with an
//!   explicit [`NoopObserver`]. The contract is that this is the *same
//!   machine code* as `plain`: `Observer::ENABLED == false` makes every
//!   event construction dead code. CI enforces the ≤2% bound with the
//!   `obs_overhead_gate` binary (criterion runs single-shot there);
//! * `trace`      — a [`ScenarioTrace`], the enabled observer the
//!   differential suites and the node runtime attach, measuring what a
//!   cheap real observer actually costs (informational, not gated).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rpc_obs::{NoopObserver, Observer};
use rpc_scenarios::prelude::*;

const SEED: u64 = 0xC0FFEE;

/// One observed run on fresh storage, like [`run_scenario`].
fn observed<O: Observer>(scenario: &Scenario, obs: &mut O) -> u64 {
    run_scenario_observed_in(&mut ScenarioArena::default(), scenario, SEED, 1, obs).rounds
}

fn bench_obs_overhead(c: &mut Criterion) {
    let n = 1 << 10;
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    for protocol in [ProtocolSpec::PushPull, ProtocolSpec::FastGossiping, ProtocolSpec::Memory] {
        let scenario = Scenario::builder("bench", TopologySpec::ErdosRenyiPaper { n })
            .protocol(protocol)
            .build()
            .expect("bench scenario must validate");
        group.bench_with_input(
            BenchmarkId::new("plain", protocol.name()),
            &scenario,
            |b, scenario| b.iter(|| black_box(run_scenario(black_box(scenario), SEED, 1).rounds)),
        );
        group.bench_with_input(
            BenchmarkId::new("noop", protocol.name()),
            &scenario,
            |b, scenario| b.iter(|| black_box(observed(black_box(scenario), &mut NoopObserver))),
        );
        group.bench_with_input(
            BenchmarkId::new("trace", protocol.name()),
            &scenario,
            |b, scenario| {
                b.iter(|| {
                    let mut trace = ScenarioTrace::default();
                    let rounds = observed(black_box(scenario), &mut trace);
                    black_box((rounds, trace.rounds.len()))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
