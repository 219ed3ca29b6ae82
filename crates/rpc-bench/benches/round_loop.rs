//! Criterion benches for the protocol round loops — packed engine vs.
//! unpacked reference oracle.
//!
//! These guard the word-parallel hot path against regressions at sizes that
//! finish quickly under criterion: the push-pull baseline on every topology,
//! a multi-rumor streaming row (16 staggered injections, message universe
//! decoupled from `n`), plus the phase-based fast-gossiping and memory-model
//! loops (whose absorb/ open-avoid/walk traffic exercises different engine
//! primitives than plain push-pull). Whole-workload timings with
//! dispersion come from the repository benchmark, `perfbench/`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rpc_bench::round_loop::{
    build_topology, run_protocol, run_streaming, STREAM_RUMORS, TOPOLOGIES,
};
use rpc_engine::{Engine, Simulation, UnpackedSimulation};

const SEED: u64 = 0xC0FFEE;

fn bench_round_loop(c: &mut Criterion) {
    let n = 1 << 10;
    let mut group = c.benchmark_group("round_loop");
    group.sample_size(10);
    for topology in TOPOLOGIES {
        let graph = build_topology(topology, n, SEED);
        group.bench_with_input(BenchmarkId::new("packed", topology), &graph, |b, graph| {
            b.iter(|| {
                let mut sim = Simulation::new(black_box(graph), SEED);
                run_protocol("push-pull", &mut sim);
                black_box(sim.metrics().rounds())
            })
        });
        group.bench_with_input(BenchmarkId::new("unpacked", topology), &graph, |b, graph| {
            b.iter(|| {
                let mut sim = UnpackedSimulation::new(black_box(graph), SEED);
                run_protocol("push-pull", &mut sim);
                black_box(sim.metrics().rounds())
            })
        });
    }
    // The multi-rumor streaming row: 16 staggered injections into the
    // sparse working point, run until every rumor completes. Lives in the
    // same group so criterion reports it next to the classic loops.
    let graph = build_topology("er-sparse", n, SEED);
    group.bench_with_input(BenchmarkId::new("packed", "er-sparse-stream"), &graph, |b, graph| {
        b.iter(|| {
            let mut sim = Simulation::new_streaming(black_box(graph), SEED, STREAM_RUMORS);
            run_streaming(&mut sim);
            black_box(sim.metrics().rounds())
        })
    });
    group.bench_with_input(BenchmarkId::new("unpacked", "er-sparse-stream"), &graph, |b, graph| {
        b.iter(|| {
            let mut sim = UnpackedSimulation::new_streaming(black_box(graph), SEED, STREAM_RUMORS);
            run_streaming(&mut sim);
            black_box(sim.metrics().rounds())
        })
    });
    group.finish();
}

fn bench_fast_gossiping_round_loop(c: &mut Criterion) {
    // Algorithm 1 on the paper's er-sparse working point: distribution
    // rounds, random walks and the closing broadcast drive absorb and the
    // walk queues — primitives push-pull never touches.
    let n = 1 << 10;
    let graph = build_topology("er-sparse", n, SEED);
    let mut group = c.benchmark_group("fast_gossiping_round_loop");
    group.sample_size(10);
    group.bench_function("packed", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(black_box(&graph), SEED);
            run_protocol("fast-gossiping", &mut sim);
            black_box(sim.metrics().rounds())
        })
    });
    group.bench_function("unpacked", |b| {
        b.iter(|| {
            let mut sim = UnpackedSimulation::new(black_box(&graph), SEED);
            run_protocol("fast-gossiping", &mut sim);
            black_box(sim.metrics().rounds())
        })
    });
    group.finish();
}

fn bench_memory_model_round_loop(c: &mut Criterion) {
    // Algorithm 2: leader-tree building with open-avoid sampling, gather
    // and broadcast-back phases.
    let n = 1 << 10;
    let graph = build_topology("er-sparse", n, SEED);
    let mut group = c.benchmark_group("memory_model_round_loop");
    group.sample_size(10);
    group.bench_function("packed", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(black_box(&graph), SEED);
            run_protocol("memory", &mut sim);
            black_box(sim.metrics().rounds())
        })
    });
    group.bench_function("unpacked", |b| {
        b.iter(|| {
            let mut sim = UnpackedSimulation::new(black_box(&graph), SEED);
            run_protocol("memory", &mut sim);
            black_box(sim.metrics().rounds())
        })
    });
    group.finish();
}

fn bench_round_loop_churny(c: &mut Criterion) {
    // The masked-sampling path: a scenario with a permanent 20% hole in the
    // presence mask exercises random_neighbor_masked every round.
    let n = 1 << 10;
    let graph = build_topology("er-sparse", n, SEED);
    let departed: Vec<u32> = (0..n as u32).filter(|v| v % 5 == 0).collect();
    let mut group = c.benchmark_group("round_loop_masked");
    group.sample_size(10);
    group.bench_function("packed", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(&graph, SEED);
            sim.kill_nodes(black_box(&departed));
            run_protocol("push-pull", &mut sim);
            black_box(sim.metrics().rounds())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_round_loop,
    bench_fast_gossiping_round_loop,
    bench_memory_model_round_loop,
    bench_round_loop_churny
);
criterion_main!(benches);
