//! The node runtime's differential and invariant suite.
//!
//! **Anchor:** with a benign nemesis and the deterministic single-threaded
//! scheduler, [`run_cluster`]'s per-round trace is *bit-identical* to the
//! in-process scenario executor's `ScenarioTrace` for the same scenario and
//! seed — same rounds, same informed counts, same packet totals, same stop
//! cause. The distributed handshake is pure plumbing; the protocol it
//! carries is the simulator's, exactly.
//!
//! **Under faults** the trace may differ, but the safety invariants hold:
//! no rumor is forged (everything a node holds arrived in a payload), each
//! node's reported coverage is monotone round over round, and a
//! crash-restarted node rejoins with its persisted rumors intact. One
//! hostile mix is also pinned exactly, so a change to the contact schedule
//! or the message order cannot pass behind the invariants.

use proptest::prelude::*;
use rpc_obs::TraceWriter;
use rpc_runtime::{
    run_cluster, run_cluster_observed, ClusterConfig, FaultStats, NemesisSpec, RetryPolicy,
};
use rpc_scenarios::{registry, run_scenario_traced, ScenarioTrace, StoppedBy};

/// Drives one scenario through both executors and asserts trace equality.
/// The cluster runs with a [`ScenarioTrace`] attached, so the coordinator's
/// `round` events are checked against the trace it stores as well.
fn assert_differential(name: &str, n: usize, seed: u64) {
    let scenario = registry::find(name, n).unwrap_or_else(|| panic!("registry has {name}"));
    let (outcome, trace) = run_scenario_traced(&scenario, seed, 1);
    let mut observed = ScenarioTrace::default();
    let runtime = run_cluster_observed(&scenario, seed, &ClusterConfig::benign(), &mut observed)
        .expect("benign cluster run succeeds");

    assert_eq!(
        runtime.stopped_by, outcome.stopped_by,
        "{name} n={n} seed={seed}: stop cause diverged"
    );
    assert_eq!(runtime.rounds, outcome.rounds, "{name} n={n} seed={seed}: round count diverged");
    assert_eq!(runtime.trace, trace.rounds, "{name} n={n} seed={seed}: trace diverged");
    assert_eq!(
        observed.rounds, runtime.trace,
        "{name} n={n} seed={seed}: round events diverged from the stored trace"
    );
    assert!(!runtime.forged);
    assert_eq!(runtime.retries, 0, "a benign run never times out");
}

#[test]
fn fault_free_trace_equals_simulator_dense_er() {
    for seed in [1, 7] {
        assert_differential("dense-er", 16, seed);
        assert_differential("dense-er", 32, seed);
    }
}

#[test]
fn fault_free_trace_equals_simulator_sparse_er() {
    for seed in [1, 7] {
        assert_differential("sparse-er", 16, seed);
        assert_differential("sparse-er", 32, seed);
    }
}

#[test]
fn fault_free_trace_equals_simulator_adversarial_start() {
    // Coverage stop rule + min-degree placement: exercises the non-Complete
    // stop path and the environment-stream placement replication.
    for seed in [1, 7] {
        assert_differential("adversarial-start", 16, seed);
        assert_differential("adversarial-start", 32, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(16)
    ))]

    /// The differential anchor over the whole benign push-pull slice the
    /// runtime supports: any registry trio member, any small n, any seed.
    #[test]
    fn prop_fault_free_trace_equals_simulator(
        which in 0usize..3,
        n in 16usize..40,
        seed in 0u64..1_000_000,
    ) {
        let name = ["dense-er", "sparse-er", "adversarial-start"][which];
        assert_differential(name, n, seed);
    }

    /// Same cluster config twice → identical outcome, faults included.
    #[test]
    fn prop_cluster_runs_are_deterministic(
        seed in 0u64..1_000_000,
        drop in 0u32..200,
        nemesis_seed in 0u64..1_000_000,
    ) {
        let scenario = registry::find("sparse-er", 16).unwrap();
        let config = ClusterConfig {
            policy: RetryPolicy::default(),
            nemesis: NemesisSpec {
                drop: f64::from(drop) / 1000.0,
                seed: nemesis_seed,
                ..NemesisSpec::default()
            },
        };
        let a = run_cluster(&scenario, seed, &config).unwrap();
        let b = run_cluster(&scenario, seed, &config).unwrap();
        prop_assert_eq!(a.trace, b.trace);
        prop_assert_eq!(a.count_history.last(), b.count_history.last());
        prop_assert_eq!(a.faults, b.faults);
        prop_assert_eq!(a.retries, b.retries);
    }

    /// Safety invariants survive arbitrary probabilistic fault mixes.
    #[test]
    fn prop_invariants_hold_under_faults(
        seed in 0u64..1_000_000,
        nemesis_seed in 0u64..1_000_000,
        drop in 0u32..150,
        delay in 0u32..200,
        duplicate in 0u32..100,
    ) {
        let scenario = registry::find("sparse-er", 16).unwrap();
        let config = ClusterConfig {
            policy: RetryPolicy::default(),
            nemesis: NemesisSpec {
                drop: f64::from(drop) / 1000.0,
                delay: f64::from(delay) / 1000.0,
                delay_max: 3,
                duplicate: f64::from(duplicate) / 1000.0,
                seed: nemesis_seed,
                ..NemesisSpec::default()
            },
        };
        let outcome = run_cluster(&scenario, seed, &config).unwrap();
        prop_assert!(!outcome.forged, "no node may hold a rumor that never arrived");
        // Per-node coverage is monotone across the round snapshots.
        for node in 0..16 {
            let mut prev = 0u64;
            for (round, snapshot) in outcome.count_history.iter().enumerate() {
                prop_assert!(
                    snapshot[node] >= prev,
                    "node {node} coverage regressed at round {round}"
                );
                prev = snapshot[node];
            }
        }
        // Terminal state is consistent with the reported counts.
        let reported = outcome.count_history.last().expect("a finished run has a round-0 row");
        for (node, words) in outcome.final_words.iter().enumerate() {
            let held: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
            prop_assert!(held >= reported[node], "node {node} reported more rumors than it holds");
        }
    }

    /// Safety and liveness under partitions and crash-restart windows on
    /// top of probabilistic faults. Every window closes by round 60, far
    /// below the round cap, so every run must also complete. The vendored
    /// proptest does not shrink, so each failure names its schedule as an
    /// `experiments cluster` command line that replays it.
    #[test]
    fn prop_invariants_hold_under_partitions_and_crashes(
        n in 16usize..33,
        seed in 0u64..1_000_000,
        probabilities in (0u32..150, 0u32..200, 0u32..100),
        nemesis_seed in 0u64..1_000_000,
        partition in proptest::option::of((0u64..30, 1u64..30)),
        crashes in prop::collection::vec((0usize..32, 0u64..30, 1u64..30), 0..6),
    ) {
        let (drop, delay, duplicate) = probabilities;
        let mut spec = format!(
            "drop={},delay={}:3,duplicate={},seed={nemesis_seed}",
            f64::from(drop) / 1000.0,
            f64::from(delay) / 1000.0,
            f64::from(duplicate) / 1000.0,
        );
        if let Some((start, len)) = partition {
            spec += &format!(",partition={start}:{len}");
        }
        for &(node, round, downtime) in &crashes {
            spec += &format!(",crash={}@{round}+{downtime}", node % n);
        }
        let case = format!(
            "experiments cluster --scenario sparse-er --n {n} --seed {seed} --nemesis {spec}"
        );
        let scenario = registry::find("sparse-er", n).unwrap();
        prop_assert_eq!(scenario.topology.num_nodes(), n, "{case}: registry resized");
        let config = ClusterConfig {
            policy: RetryPolicy::default(),
            nemesis: NemesisSpec::parse(&spec).unwrap(),
        };
        let outcome = run_cluster(&scenario, seed, &config).unwrap();
        prop_assert!(outcome.completed, "{case}: stopped by {:?}", outcome.stopped_by);
        prop_assert!(!outcome.forged, "{case}: a node holds a rumor that never arrived");
        for node in 0..n {
            let mut prev = 0u64;
            for (round, snapshot) in outcome.count_history.iter().enumerate() {
                prop_assert!(
                    snapshot[node] >= prev,
                    "{case}: node {node} coverage regressed at round {round}"
                );
                prev = snapshot[node];
            }
        }
        let faults = outcome.faults;
        let audits = outcome.crash_audits.len() as u64;
        prop_assert_eq!(faults.crashes, audits, "{case}: one audit per crash");
        prop_assert!(faults.restarts <= faults.crashes, "{case}: {faults:?}");
        for audit in &outcome.crash_audits {
            let node = audit.node as usize;
            for (w, p) in outcome.final_words[node].iter().zip(&audit.persisted) {
                prop_assert_eq!(p & !w, 0, "{case}: node {node} lost persisted rumors");
            }
        }
    }
}

/// The acceptance scenario: drop + delay + duplicate + partition +
/// crash-restart, all at once, completing via retry/backoff.
#[test]
fn hostile_nemesis_run_completes_with_invariants_intact() {
    let scenario = registry::find("sparse-er", 32).unwrap();
    let config = ClusterConfig {
        policy: RetryPolicy::default(),
        nemesis: NemesisSpec::parse(
            "drop=0.15,delay=0.2:3,duplicate=0.1,partition=2:3,crash=1@2+3,seed=9",
        )
        .unwrap(),
    };
    let outcome = run_cluster(&scenario, 3, &config).unwrap();
    assert!(outcome.completed, "stopped by {:?}", outcome.stopped_by);
    assert_eq!(outcome.stopped_by, StoppedBy::Complete);
    assert!(!outcome.forged);
    // The nemesis actually did its job.
    assert!(outcome.faults.dropped > 0);
    assert!(outcome.faults.partition_drops > 0);
    assert_eq!(outcome.faults.crashes, 1);
    assert_eq!(outcome.faults.restarts, 1);
    // The restarted node's final store contains everything it persisted.
    let audit = &outcome.crash_audits[0];
    assert_eq!(audit.node, 1);
    for (w, p) in outcome.final_words[1].iter().zip(&audit.persisted) {
        assert_eq!(p & !w, 0, "persisted rumors survive the restart");
    }
    // The fault tolerance machinery visibly engaged.
    assert!(outcome.retries > 0, "drops must trigger retransmissions");
    // Coverage stays monotone per node even through the crash window.
    for node in 0..32 {
        let mut prev = 0u64;
        for snapshot in &outcome.count_history {
            assert!(snapshot[node] >= prev);
            prev = snapshot[node];
        }
    }
}

/// The invariants above would still hold if a change moved the contact
/// schedule or reordered messages, so one hostile mix is pinned exactly:
/// any change that keeps the runtime's behaviour reproduces every count
/// below.
#[test]
fn hostile_runs_are_pinned_exactly() {
    struct Pinned {
        seed: u64,
        rounds: u64,
        total_packets: u64,
        total_exchanges: u64,
        retries: u64,
        quorum_advances: u64,
        faults: FaultStats,
        /// Per-round sums of the reported per-node counts, round 0 first.
        coverage: [u64; 13],
        /// The crashed node and how many rumors it persisted.
        audit: (u32, u32),
    }
    let pinned = [
        Pinned {
            seed: 1,
            rounds: 12,
            total_packets: 3603,
            total_exchanges: 1873,
            retries: 17,
            quorum_advances: 12,
            faults: FaultStats {
                dropped: 1182,
                delayed: 2154,
                duplicated: 549,
                partition_drops: 723,
                crash_drops: 20,
                crashes: 1,
                restarts: 1,
            },
            coverage: [
                192, 497, 1304, 3536, 6321, 11392, 21650, 30598, 35210, 36572, 36824, 36832, 36864,
            ],
            audit: (3, 50),
        },
        Pinned {
            seed: 2,
            rounds: 12,
            total_packets: 3552,
            total_exchanges: 1858,
            retries: 17,
            quorum_advances: 12,
            faults: FaultStats {
                dropped: 1193,
                delayed: 2166,
                duplicated: 551,
                partition_drops: 719,
                crash_drops: 26,
                crashes: 1,
                restarts: 1,
            },
            coverage: [
                192, 513, 1339, 3485, 6760, 10828, 20328, 29721, 34843, 36572, 36847, 36863, 36864,
            ],
            audit: (3, 15),
        },
        Pinned {
            seed: 3,
            rounds: 12,
            total_packets: 3576,
            total_exchanges: 1865,
            retries: 17,
            quorum_advances: 12,
            faults: FaultStats {
                dropped: 1187,
                delayed: 2158,
                duplicated: 549,
                partition_drops: 773,
                crash_drops: 22,
                crashes: 1,
                restarts: 1,
            },
            coverage: [
                192, 518, 1349, 3343, 6110, 10232, 19816, 29854, 34780, 36421, 36795, 36863, 36864,
            ],
            audit: (3, 52),
        },
    ];
    let scenario = registry::find("sparse-er", 192).unwrap();
    let config = ClusterConfig {
        policy: RetryPolicy::default(),
        nemesis: NemesisSpec::parse(
            "drop=0.1,delay=0.2:3,duplicate=0.05,partition=4:2,crash=3@5+4,seed=9",
        )
        .unwrap(),
    };
    for p in &pinned {
        let outcome = run_cluster(&scenario, p.seed, &config).unwrap();
        let seed = p.seed;
        assert_eq!(outcome.stopped_by, StoppedBy::Complete, "seed {seed}");
        assert_eq!(outcome.rounds, p.rounds, "seed {seed}: rounds");
        assert_eq!(outcome.total_packets, p.total_packets, "seed {seed}: packets");
        assert_eq!(outcome.total_exchanges, p.total_exchanges, "seed {seed}: exchanges");
        assert_eq!(outcome.retries, p.retries, "seed {seed}: retries");
        assert_eq!(outcome.quorum_advances, p.quorum_advances, "seed {seed}: quorum advances");
        assert_eq!(outcome.faults, p.faults, "seed {seed}: faults");
        assert_eq!(
            outcome.count_history.last(),
            Some(&vec![192; 192]),
            "seed {seed}: final counts"
        );
        let coverage: Vec<u64> =
            outcome.count_history.iter().map(|counts| counts.iter().sum()).collect();
        assert_eq!(coverage, p.coverage, "seed {seed}: per-round coverage");
        let audits: Vec<(u32, u32)> = outcome
            .crash_audits
            .iter()
            .map(|a| (a.node, a.persisted.iter().map(|w| w.count_ones()).sum()))
            .collect();
        assert_eq!(audits, [p.audit], "seed {seed}: crash audit");
        assert!(!outcome.forged, "seed {seed}");
    }
}

/// Fault, retry and round-advance events are all visible through the
/// rpc-obs trace sink as parseable flat JSON lines.
#[test]
fn observability_exposes_transport_and_retry_events() {
    let scenario = registry::find("sparse-er", 16).unwrap();
    let config = ClusterConfig {
        policy: RetryPolicy::default(),
        nemesis: NemesisSpec::parse("drop=0.2,partition=2:2,crash=3@2+2,seed=4").unwrap(),
    };
    let mut sink = TraceWriter::new(Vec::new());
    let outcome = run_cluster_observed(&scenario, 3, &config, &mut sink).unwrap();
    assert!(outcome.completed, "stopped by {:?}", outcome.stopped_by);
    let buf = sink.finish().expect("no io error on Vec");
    let text = String::from_utf8(buf).unwrap();
    let kinds: Vec<String> = text
        .lines()
        .filter_map(|line| {
            rpc_obs::parse_object(line)
                .unwrap_or_else(|| panic!("unparseable trace line: {line}"))
                .into_iter()
                .find(|(k, _)| k == "ev")
                .and_then(|(_, v)| v.as_str().map(str::to_string))
        })
        .collect();
    for expected in ["transport-fault", "retry-timeout", "round-advanced", "round"] {
        assert!(
            kinds.iter().any(|k| k == expected),
            "trace is missing {expected:?} events; kinds seen: {kinds:?}"
        );
    }
}
