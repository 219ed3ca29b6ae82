//! Multi-rumor streaming differential equivalence (ISSUE 9 tentpole).
//!
//! Streaming workloads — mid-run rumor injection (Poisson, hotspot and
//! explicit schedules), optional TTL expiry, the `all-rumors` stop rule and
//! per-rumor statistics — must land inside the repo's differential-testing
//! net. For randomized injection specs composed with hostile-environment
//! dimensions, this suite pins four equivalences:
//!
//! 1. **packed vs unpacked** — the word-parallel engine and the `Vec<bool>`
//!    oracle produce identical outcomes *and* identical per-round traces;
//! 2. **arena vs fresh** — reusing parked storage is unobservable;
//! 3. **observed vs unobserved** — attaching the JSON-lines observer never
//!    perturbs a run;
//! 4. **thread counts** — one worker and four workers are bit-identical.
//!
//! Plus the streaming invariants: a TTL-expired rumor never reappears (on
//! both engines, in lockstep), per-rumor completion counts are consistent
//! with aggregate coverage on clean runs, and explicit injections never
//! complete before they arrive. The injection grammar rides along: sampled
//! specs roundtrip through the text format, and the validation corpus pins
//! the list-all-problems error style.

use proptest::prelude::*;

use rpc_engine::{Engine, Simulation, Transfer, UnpackedSimulation};
use rpc_graphs::prelude::*;
use rpc_graphs::NodeId;
use rpc_obs::{NoopObserver, Observer, TraceWriter};
use rpc_scenarios::prelude::*;
use rpc_scenarios::{run_scenario_unpacked_traced, ScenarioBuilder};

/// One sampled streaming workload: an injection pattern, an optional TTL,
/// and the hostile dimensions it composes with.
#[derive(Clone, Debug)]
struct StreamConfig {
    rumors: usize,
    pattern_pick: u8,
    rate: f64,
    hotspot: (usize, usize),
    explicit: Vec<(u64, usize)>,
    ttl: Option<u64>,
    loss: f64,
    bursts: Vec<(u64, u64, f64)>,
    churn: Option<(f64, u64, u64)>,
    byzantine: f64,
}

impl StreamConfig {
    fn apply(&self, mut b: ScenarioBuilder, n: usize) -> ScenarioBuilder {
        b = match self.pattern_pick {
            0 => b.inject_poisson(self.rumors, self.rate),
            1 => b.inject_hotspot(self.rumors, (self.hotspot.0 % n) as NodeId, self.hotspot.1),
            _ => b.inject_explicit(
                self.explicit
                    .iter()
                    .take(self.rumors)
                    .map(|&(round, source)| InjectionEntry {
                        round,
                        source: (source % n) as NodeId,
                    })
                    .collect(),
            ),
        };
        if let Some(ttl) = self.ttl {
            b = b.rumor_ttl(ttl);
        }
        b = b.loss(self.loss).byzantine(self.byzantine);
        for &(start, len, prob) in &self.bursts {
            b = b.loss_burst(start, len, prob);
        }
        if let Some((fraction, period, downtime)) = self.churn {
            b = b.churn(fraction, period, downtime);
        }
        b
    }
}

fn stream_strategy() -> impl Strategy<Value = StreamConfig> {
    (
        (
            2usize..10,
            0u8..3,
            0.2f64..2.5,
            (0usize..96, 1usize..5),
            prop::collection::vec((0u64..40, 0usize..96), 10..11),
        ),
        (
            proptest::option::of(1u64..20),
            0.0f64..0.15,
            prop::collection::vec((0u64..12, 1u64..5, 0.1f64..0.8), 0..2),
            proptest::option::of((0.02f64..0.2, 2u64..5, 1u64..6)),
            0.0f64..0.2,
        ),
    )
        .prop_map(
            |(
                (rumors, pattern_pick, rate, hotspot, explicit),
                (ttl, loss, bursts, churn, byzantine),
            )| StreamConfig {
                rumors,
                pattern_pick,
                rate,
                hotspot,
                explicit,
                ttl,
                loss,
                bursts,
                churn,
                byzantine,
            },
        )
}

/// One single-threaded run through `arena` with a [`ScenarioTrace`]
/// attached beside `obs`.
fn traced_in<O: Observer>(
    arena: &mut ScenarioArena,
    scenario: &Scenario,
    seed: u64,
    obs: &mut O,
) -> (ScenarioOutcome, ScenarioTrace) {
    let mut trace = ScenarioTrace::default();
    let outcome = run_scenario_observed_in(arena, scenario, seed, 1, &mut (&mut trace, obs));
    (outcome, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole sweep: every injection pattern × TTL × hostile
    /// dimensions × stop rules, pinning packed-vs-unpacked trace
    /// equivalence, arena-vs-fresh, observed-vs-unobserved, and
    /// thread-count bit-identity at once.
    #[test]
    fn streaming_workloads_are_bit_identical_across_every_execution_path(
        config in stream_strategy(),
        stop_pick in 0u8..3,
        seed in 0u64..10_000,
    ) {
        let n = 96usize;
        let stop = match stop_pick {
            0 => StopRule::AllRumors,
            1 => StopRule::Rounds(24),
            _ => StopRule::Coverage(0.7),
        };
        let scenario = config
            .apply(Scenario::builder("stream-prop", TopologySpec::ErdosRenyiPaper { n }), n)
            .stop(stop)
            .max_rounds(80)
            .build()
            .unwrap();

        // Packed vs unpacked: identical outcome and per-round trace.
        let (unpacked, unpacked_trace) = run_scenario_unpacked_traced(&scenario, seed);
        let (packed, packed_trace) = run_scenario_traced(&scenario, seed, 1);
        prop_assert_eq!(&packed, &unpacked, "packed vs unpacked outcome");
        prop_assert_eq!(&packed_trace, &unpacked_trace, "packed vs unpacked trace");
        prop_assert!(packed.rumor_stats.is_some(), "streaming runs must report rumor stats");

        // Thread-count bit-identity.
        let (multi, multi_trace) = run_scenario_traced(&scenario, seed, 4);
        prop_assert_eq!(&packed, &multi, "1 vs 4 threads outcome");
        prop_assert_eq!(&packed_trace, &multi_trace, "1 vs 4 threads trace");

        // Arena vs fresh — with the arena deliberately warmed by a different
        // run first, so the checkout actually reuses parked storage.
        let mut arena = ScenarioArena::default();
        let warm_seed = seed ^ 0x5a5a;
        let _ = run_scenario_observed_in(&mut arena, &scenario, warm_seed, 1, &mut NoopObserver);
        let (reused, reused_trace) = traced_in(&mut arena, &scenario, seed, &mut NoopObserver);
        prop_assert_eq!(&packed, &reused, "arena vs fresh outcome");
        prop_assert_eq!(&packed_trace, &reused_trace, "arena vs fresh trace");

        // Observed vs unobserved: the JSON-lines observer is a pure sink.
        let mut writer = TraceWriter::new(Vec::new());
        let (observed, observed_trace) =
            traced_in(&mut ScenarioArena::default(), &scenario, seed, &mut writer);
        prop_assert_eq!(&packed, &observed, "observed vs unobserved outcome");
        prop_assert_eq!(&packed_trace, &observed_trace, "observed vs unobserved trace");

        // And the injection grammar roundtrips through the text format.
        prop_assert_eq!(Scenario::parse_str(&scenario.to_text()).unwrap(), scenario);
    }

    /// Invariant: on a clean network (no loss, churn or expiry) the
    /// `all-rumors` rule only fires once per-rumor completion counts agree
    /// with aggregate coverage — every rumor completes, every participating
    /// node is fully informed, and no completion precedes its injection.
    #[test]
    fn per_rumor_completion_is_consistent_with_aggregate_coverage(
        rumors in 2usize..10,
        sources in prop::collection::vec(0usize..96, 10..11),
        spread in 1u64..6,
        seed in 0u64..10_000,
    ) {
        let n = 96usize;
        let entries: Vec<InjectionEntry> = (0..rumors)
            .map(|m| InjectionEntry {
                round: m as u64 * spread,
                source: (sources[m] % n) as NodeId,
            })
            .collect();
        let scenario = Scenario::builder("consistency", TopologySpec::ErdosRenyiPaper { n })
            .inject_explicit(entries.clone())
            .stop(StopRule::AllRumors)
            .max_rounds(120)
            .build()
            .unwrap();
        let outcome = run_scenario(&scenario, seed, 1);
        prop_assert_eq!(outcome.stopped_by, StoppedBy::AllRumorsDone);
        let stats = outcome.rumor_stats.as_ref().unwrap();
        prop_assert_eq!(stats.injected, rumors);
        prop_assert_eq!(stats.expired, 0);
        prop_assert_eq!(stats.completed_count(), rumors);
        prop_assert_eq!(outcome.coverage, 1.0, "all rumors complete => everyone fully informed");
        prop_assert_eq!(outcome.tracked_coverage, 1.0);
        for (m, entry) in entries.iter().enumerate() {
            let done = stats.completion_rounds[m].unwrap();
            prop_assert!(
                done > entry.round,
                "rumor {} complete at {} but injected at {}", m, done, entry.round
            );
        }
        prop_assert!(stats.inflight_high_water >= 1);
    }

    /// Invariant: once a rumor expires it never reappears — on both engines,
    /// in lockstep: informed counts drop to zero and stay there, expiry is
    /// idempotent, and re-injection of an expired id is refused.
    #[test]
    fn expired_rumors_never_reappear(
        seed in 0u64..10_000,
        expire_after in 1usize..4,
    ) {
        let n = 64usize;
        let universe = 3usize;
        let graph = ErdosRenyi::with_expected_degree(n, 10.0).generate(seed);
        let mut packed = Simulation::new_streaming(&graph, seed, universe);
        let mut unpacked = UnpackedSimulation::new_streaming(&graph, seed, universe);
        prop_assert!(packed.inject_rumor(0, 1));
        prop_assert!(Engine::inject_rumor(&mut unpacked, 0, 1));
        for round in 0..8usize {
            if round == expire_after {
                packed.expire_rumor(1);
                Engine::expire_rumor(&mut unpacked, 1);
                // Idempotent, and a dead id cannot come back.
                packed.expire_rumor(1);
                Engine::expire_rumor(&mut unpacked, 1);
                prop_assert!(!packed.inject_rumor(3, 1));
                prop_assert!(!Engine::inject_rumor(&mut unpacked, 3, 1));
            }
            let mut transfers = Vec::new();
            for v in 0..n as NodeId {
                let a = packed.open_channel(v);
                prop_assert_eq!(a, unpacked.open_channel(v));
                if let Some(u) = a {
                    transfers.push(Transfer::new(v, u));
                    transfers.push(Transfer::new(u, v));
                }
            }
            packed.deliver(&transfers);
            unpacked.deliver(&transfers);
            packed.metrics_mut().finish_round();
            unpacked.metrics_mut().finish_round();
            if round >= expire_after {
                for sim in [&packed as &dyn Engine, &unpacked as &dyn Engine] {
                    prop_assert!(sim.rumor_expired(1));
                    prop_assert_eq!(
                        sim.rumor_informed_count(1), 0,
                        "expired rumor resurfaced in round {}", round
                    );
                    prop_assert!(!sim.rumor_complete(1));
                }
            }
        }
        prop_assert_eq!(packed.rumor_informed_count(1), 0);
    }
}

// ---------------------------------------------------------------------------
// Injection grammar validation (ISSUE 9 satellite): bad specs are rejected
// with every problem listed at once.
// ---------------------------------------------------------------------------

/// Validation rejects injections scheduled past `max_rounds`, explicit
/// entry counts that disagree with `rumors`, sources outside the graph, and
/// injection keys without a rumor space — collecting all problems into one
/// error instead of stopping at the first.
#[test]
fn injection_validation_rejects_bad_specs_listing_every_problem() {
    let er = |n| TopologySpec::ErdosRenyiPaper { n };

    // An explicit entry at the round cap can never fire.
    let late = Scenario::builder("late", er(64))
        .inject_explicit(vec![InjectionEntry { round: 500, source: 0 }])
        .max_rounds(100)
        .build();
    assert!(matches!(late, Err(ScenarioError::Invalid(_))), "{late:?}");

    // A source outside the graph.
    let ghost = Scenario::builder("ghost", er(64))
        .inject_explicit(vec![InjectionEntry { round: 1, source: 64 }])
        .build();
    assert!(ghost.is_err());

    // Streaming requires the push-pull protocol.
    let phased = Scenario::builder("phased", er(64))
        .protocol(ProtocolSpec::FastGossiping)
        .inject_poisson(4, 1.0)
        .build();
    assert!(phased.is_err());

    // `rumor-ttl` without an injection spec is meaningless.
    let ttl_only = Scenario::parse_str("name = x\nn = 64\nrumor-ttl = 5\n");
    assert!(ttl_only.is_err());

    // `stop = all-rumors` without an injection spec can never fire.
    let no_inj = Scenario::builder("no-inj", er(64)).stop(StopRule::AllRumors).build();
    assert!(no_inj.is_err());

    // Several problems at once: every one appears in the single message.
    let err = Scenario::builder("multi", er(64))
        .protocol(ProtocolSpec::Memory)
        .inject_explicit(vec![
            InjectionEntry { round: 900, source: 80 },
            InjectionEntry { round: 1, source: 0 },
        ])
        .rumor_ttl(0)
        .max_rounds(100)
        .build();
    match err {
        Err(ScenarioError::Invalid(msg)) => {
            for needle in ["push-pull", "round 900", "source 80", "ttl"] {
                assert!(msg.contains(needle), "missing `{needle}` in: {msg}");
            }
        }
        other => panic!("expected a combined Invalid error, got {other:?}"),
    }
}

/// Malformed injection values fail the parse with key-specific messages.
#[test]
fn malformed_injection_values_are_rejected() {
    let bad: &[&str] = &[
        "name = x\nn = 64\nrumors = 0\n", // empty rumor space
        "name = x\nn = 64\nrumors = 4\ninject = poisson\n", // missing rate
        "name = x\nn = 64\nrumors = 4\ninject = poisson:-1\n", // negative rate
        "name = x\nn = 64\nrumors = 4\ninject = hotspot:0\n", // missing count
        "name = x\nn = 64\nrumors = 4\ninject = comet:1\n", // unknown pattern
        "name = x\nn = 64\nrumors = 4\ninject = 3\n", // malformed entry
        "name = x\nn = 64\ninject = poisson:1\n", // inject without rumors
        "name = x\nn = 64\nrumors = 2\ninject = poisson:1\ninject = 0:1\n", // mixed forms
        "name = x\nn = 64\nrumors = 4\nrumor-ttl = 0\n", // zero ttl
    ];
    for text in bad {
        assert!(Scenario::parse_str(text).is_err(), "accepted malformed input:\n{text}");
    }
}
