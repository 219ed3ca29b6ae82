//! `scenario_step`: the step-driven scenario executor vs a bare driver loop.
//!
//! The scenario engine drives every protocol one round at a time through
//! `rpc_gossip::ProtocolDriver`, evaluating the stop rule between rounds.
//! These benches make the executor's overhead visible against
//! `rpc_gossip::run_driver` over the same driver, which skips the per-round
//! stop-rule evaluation and executor bookkeeping. Both sides regenerate the
//! graph per iteration so the comparison is apples-to-apples.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rpc_bench::round_loop::run_protocol;
use rpc_engine::Simulation;
use rpc_scenarios::prelude::*;
use rpc_scenarios::scenario_engine_seeds;

const SEED: u64 = 0xC0FFEE;

fn bench_scenario_step(c: &mut Criterion) {
    let n = 1 << 10;
    // Both arms run on exactly the graph and engine RNG stream the scenario
    // executor derives from SEED, so the measured delta is the stepper's
    // bookkeeping, not a workload difference.
    let (graph_seed, run_seed) = scenario_engine_seeds(SEED);
    let mut group = c.benchmark_group("scenario_step");
    group.sample_size(10);
    for protocol in [ProtocolSpec::PushPull, ProtocolSpec::FastGossiping, ProtocolSpec::Memory] {
        let scenario = Scenario::builder("bench", TopologySpec::ErdosRenyiPaper { n })
            .protocol(protocol)
            .build()
            .expect("bench scenario must validate");
        group.bench_with_input(
            BenchmarkId::new("stepped", protocol.name()),
            &scenario,
            |b, scenario| b.iter(|| black_box(run_scenario(black_box(scenario), SEED, 1).rounds)),
        );
        group.bench_with_input(
            BenchmarkId::new("driver", protocol.name()),
            &scenario,
            |b, scenario| {
                b.iter(|| {
                    let graph = scenario.topology.build().generate(graph_seed);
                    let mut sim = Simulation::new(black_box(&graph), run_seed);
                    black_box(run_protocol(protocol.name(), &mut sim))
                })
            },
        );
    }
    group.finish();
}

fn bench_stop_rules(c: &mut Criterion) {
    // Stop-rule evaluation cost per round: a coverage rule reads the packed
    // engine's O(1) tracked-rumor counter, a round budget only compares
    // counters — neither should cost measurably more than running to
    // completion over the same rounds.
    let n = 1 << 10;
    let mut group = c.benchmark_group("scenario_step_rules");
    group.sample_size(10);
    for (label, stop) in [
        ("complete", StopRule::Complete),
        ("rounds", StopRule::Rounds(24)),
        ("coverage", StopRule::Coverage(0.9)),
    ] {
        let scenario = Scenario::builder("bench", TopologySpec::ErdosRenyiPaper { n })
            .stop(stop)
            .build()
            .expect("bench scenario must validate");
        group.bench_with_input(BenchmarkId::new("push-pull", label), &scenario, |b, scenario| {
            b.iter(|| black_box(run_scenario(black_box(scenario), SEED, 1).rounds))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scenario_step, bench_stop_rules);
criterion_main!(benches);
