//! Criterion benchmark suite — one group per paper artefact.
//!
//! The groups mirror the experiment index of the `rpc-experiments` crate:
//!
//! * `table1_config` — deriving the Table 1 constants,
//! * `fig1_overhead` — the three gossiping algorithms of Figure 1,
//! * `fig2_robustness_ratio` — memory-model gossiping under failures (Figs 2/3),
//! * `fig4_fastgossip_detail` — fast-gossiping across sizes,
//! * `fig5_robustness_runs` — repeated failure runs,
//! * `theorem1_scaling` — fast-gossiping on random vs complete graphs,
//! * `broadcast_vs_gossip` — the motivating separation experiment,
//! * `substrate` — graph generation and engine delivery throughput,
//! * `scenario_throughput` — the churn-heavy scenario at quick scale
//!   (steps/sec = rounds per iteration / measured time; the round count per
//!   run is deterministic, so the per-iteration time tracks step throughput).
//!
//! Benchmark sizes are deliberately moderate (2¹⁰–2¹²) so the whole suite runs
//! in a few minutes; the absolute numbers are not the reproduction target (the
//! experiment harness is), the benchmarks guard against performance
//! regressions in the library itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rpc_engine::{Simulation, Transfer};
use rpc_experiments::{fig1, robustness};
use rpc_gossip::prelude::*;
use rpc_graphs::prelude::*;

const SEED: u64 = 0xC0FFEE;

fn bench_table1_config(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_config");
    group.bench_function("paper_defaults_1e6", |b| {
        b.iter(|| {
            let fg = FastGossipingConfig::paper_defaults(black_box(1_000_000));
            let mg = MemoryGossipConfig::paper_defaults(black_box(1_000_000));
            black_box((fg, mg))
        })
    });
    group.finish();
}

fn bench_fig1_overhead(c: &mut Criterion) {
    let n = 1 << 10;
    let graph = ErdosRenyi::paper_density(n).generate(SEED);
    let mut group = c.benchmark_group("fig1_overhead");
    group.sample_size(10);
    group.bench_function("push_pull", |b| {
        b.iter(|| black_box(PushPullGossip::default().run(&graph, SEED)))
    });
    group.bench_function("fast_gossiping", |b| {
        b.iter(|| black_box(FastGossiping::paper(n).run(&graph, SEED)))
    });
    group.bench_function("memory", |b| {
        b.iter(|| black_box(MemoryGossip::paper(n).run(&graph, SEED)))
    });
    group.finish();
}

fn bench_fig2_robustness_ratio(c: &mut Criterion) {
    let n = 1 << 10;
    let graph = ErdosRenyi::paper_density(n).generate(SEED);
    let algorithm = MemoryGossip::new(MemoryGossipConfig::paper_defaults(n).with_trees(3));
    let mut group = c.benchmark_group("fig2_robustness_ratio");
    group.sample_size(10);
    for failures in [0usize, 32, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(failures), &failures, |b, &failures| {
            b.iter(|| black_box(algorithm.run_with_failures(&graph, SEED, failures)))
        });
    }
    group.finish();
}

fn bench_fig4_fastgossip_detail(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_fastgossip_detail");
    group.sample_size(10);
    for exp in [10u32, 11, 12] {
        let n = 1usize << exp;
        let graph = ErdosRenyi::paper_density(n).generate(SEED);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(FastGossiping::paper(n).run(&graph, SEED)))
        });
    }
    group.finish();
}

fn bench_fig5_robustness_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_robustness_runs");
    group.sample_size(10);
    let spec = robustness::loss_ratio_spec(
        "fig5-bench",
        512,
        &[0, 32],
        3,
        SEED,
        rpc_scenarios::RepPolicy::fixed(3),
    );
    group.bench_function("thresholds_n512_f32_runs3", |b| {
        b.iter(|| {
            black_box(
                rpc_scenarios::SweepRunner::new()
                    .with_threads(1)
                    .run(black_box(&spec))
                    .total_reps(),
            )
        })
    });
    group.finish();
}

fn bench_theorem1_scaling(c: &mut Criterion) {
    let n = 1 << 10;
    let random = ErdosRenyi::paper_density(n).generate(SEED);
    let complete = CompleteGraph::new(n).generate(0);
    let mut group = c.benchmark_group("theorem1_scaling");
    group.sample_size(10);
    group.bench_function("fast_gossiping_random", |b| {
        b.iter(|| black_box(FastGossiping::paper(n).run(&random, SEED)))
    });
    group.bench_function("fast_gossiping_complete", |b| {
        b.iter(|| black_box(FastGossiping::paper(n).run(&complete, SEED)))
    });
    group.finish();
}

fn bench_broadcast_vs_gossip(c: &mut Criterion) {
    let n = 1 << 11;
    let random = ErdosRenyi::paper_density(n).generate(SEED);
    let complete = CompleteGraph::new(n).generate(0);
    let mut group = c.benchmark_group("broadcast_vs_gossip");
    group.sample_size(10);
    group.bench_function("pushpull_broadcast_complete", |b| {
        b.iter(|| black_box(PushPullBroadcast::default().run(&complete, SEED)))
    });
    group.bench_function("pushpull_broadcast_random", |b| {
        b.iter(|| black_box(PushPullBroadcast::default().run(&random, SEED)))
    });
    group.bench_function("pushpull_gossip_random", |b| {
        b.iter(|| black_box(PushPullGossip::default().run(&random, SEED)))
    });
    group.finish();
}

fn bench_fig1_harness(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_harness");
    group.sample_size(10);
    let spec = fig1::spec(&[256, 512], SEED, rpc_scenarios::RepPolicy::fixed(1));
    group.bench_function("sweep_256_512", |b| {
        b.iter(|| {
            black_box(
                rpc_scenarios::SweepRunner::new()
                    .with_threads(1)
                    .run(black_box(&spec))
                    .total_reps(),
            )
        })
    });
    group.finish();
}

fn bench_substrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate");
    group.bench_function("erdos_renyi_generate_n4096", |b| {
        let generator = ErdosRenyi::paper_density(1 << 12);
        b.iter(|| black_box(generator.generate(SEED)))
    });
    group.bench_function("configuration_model_generate_n4096", |b| {
        let generator = ConfigurationModel::paper_degree(1 << 12, 0.1);
        b.iter(|| black_box(generator.generate(SEED)))
    });
    group.bench_function("engine_deliver_full_round_n2048", |b| {
        let n = 1 << 11;
        let graph = CompleteGraph::new(n).generate(0);
        let transfers: Vec<Transfer> =
            (0..n as u32).map(|v| Transfer::new(v, (v + 1) % n as u32)).collect();
        b.iter(|| {
            let mut sim = Simulation::new(&graph, SEED);
            for _ in 0..4 {
                sim.deliver(black_box(&transfers));
            }
            black_box(sim.fully_informed_count())
        })
    });
    group.finish();
}

fn bench_scenario_throughput(c: &mut Criterion) {
    let n = 512;
    let scenario = rpc_scenarios::registry::find("churn-heavy", n)
        .expect("churn-heavy is a registry scenario");
    let mut group = c.benchmark_group("scenario_throughput");
    group.sample_size(10);
    group.bench_function("churn_heavy_n512", |b| {
        b.iter(|| black_box(rpc_scenarios::run_scenario(black_box(&scenario), SEED, 1)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_table1_config,
    bench_fig1_overhead,
    bench_fig2_robustness_ratio,
    bench_fig4_fastgossip_detail,
    bench_fig5_robustness_runs,
    bench_theorem1_scaling,
    bench_broadcast_vs_gossip,
    bench_fig1_harness,
    bench_substrate,
    bench_scenario_throughput
);
criterion_main!(benches);
