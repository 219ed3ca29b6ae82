//! Hostile-environment differential equivalence (ISSUE 8 tentpole).
//!
//! The four hostile-environment dimensions — failure zones, burst loss,
//! edge churn and Byzantine senders — must land inside the repo's
//! differential-testing net. For randomized scenarios sweeping all four
//! dimensions (alone and stacked) across protocols and stop rules, this
//! suite pins four equivalences:
//!
//! 1. **packed vs unpacked** — the word-parallel engine and the `Vec<bool>`
//!    oracle produce identical outcomes *and* identical per-round traces;
//! 2. **arena vs fresh** — reusing parked storage is unobservable;
//! 3. **observed vs unobserved** — attaching the JSON-lines observer never
//!    perturbs a run;
//! 4. **thread counts** — one worker and four workers are bit-identical.
//!
//! Plus the dimension invariants: zone crashes only hit the named zone,
//! Byzantine nodes never appear as senders, and edge churn never strands the
//! stop-rule evaluation. The scenario text format rides along: an
//! arbitrary-`Scenario` → `to_text` → `parse` roundtrip covering every key,
//! and a malformed corpus pinning the all-unknown-keys error.

use proptest::prelude::*;

use rpc_engine::{Engine, Simulation, Transfer, UnpackedSimulation};
use rpc_graphs::prelude::*;
use rpc_graphs::NodeId;
use rpc_obs::{NoopObserver, Observer, TraceWriter};
use rpc_scenarios::prelude::*;
use rpc_scenarios::spec::zone_members;
use rpc_scenarios::{run_scenario_unpacked, run_scenario_unpacked_traced, ScenarioBuilder};

/// Applies one sampled hostile-environment configuration to a builder. Every
/// dimension is optional so the sweep covers each alone and all stacked.
#[derive(Clone, Debug)]
struct EnvConfig {
    loss: f64,
    bursts: Vec<(u64, u64, f64)>,
    churn: Option<(f64, u64, u64)>,
    zones: Option<usize>,
    crash: Option<(u64, usize)>,
    crash_in_zone: bool,
    edge_churn: Option<(f64, u64)>,
    byzantine: f64,
}

impl EnvConfig {
    fn apply(&self, mut b: ScenarioBuilder, n: usize) -> ScenarioBuilder {
        b = b.loss(self.loss).byzantine(self.byzantine);
        for &(start, len, prob) in &self.bursts {
            b = b.loss_burst(start, len, prob);
        }
        if let Some((fraction, period, downtime)) = self.churn {
            b = b.churn(fraction, period, downtime);
        }
        if let Some(zones) = self.zones {
            b = b.zones(zones);
        }
        if let Some((round, count)) = self.crash {
            b = match self.zones {
                // Keep the count within the smallest zone so validation holds.
                Some(zones) if self.crash_in_zone => {
                    let zone = round as usize % zones;
                    b.crash_in_zone(round, count.min((n / zones).max(1)), zone)
                }
                _ => b.crash(round, count),
            };
        }
        if let Some((fraction, period)) = self.edge_churn {
            b = b.edge_churn(fraction, period);
        }
        b
    }
}

fn env_strategy() -> impl Strategy<Value = EnvConfig> {
    (
        (
            0.0f64..0.2,
            prop::collection::vec((0u64..12, 1u64..6, 0.1f64..0.9), 0..3),
            proptest::option::of((0.02f64..0.25, 1u64..5, 1u64..8)),
        ),
        (
            proptest::option::of(1usize..9),
            proptest::option::of((1u64..8, 1usize..10)),
            any::<bool>(),
        ),
        (proptest::option::of((0.05f64..0.6, 1u64..5)), 0.0f64..0.25),
    )
        .prop_map(
            |((loss, bursts, churn), (zones, crash, crash_in_zone), (edge_churn, byzantine))| {
                EnvConfig {
                    loss,
                    bursts,
                    churn,
                    zones,
                    crash,
                    crash_in_zone,
                    edge_churn,
                    byzantine,
                }
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

    /// The tentpole sweep: all four dimensions × protocols × stop rules,
    /// pinning packed-vs-unpacked trace equivalence, arena-vs-fresh,
    /// observed-vs-unobserved, and thread-count bit-identity at once.
    #[test]
    fn hostile_dimensions_are_bit_identical_across_every_execution_path(
        env in env_strategy(),
        protocol_pick in 0u8..3,
        stop_pick in 0u8..3,
        seed in 0u64..10_000,
    ) {
        let n = 96usize;
        let protocol = match protocol_pick {
            0 => ProtocolSpec::PushPull,
            1 => ProtocolSpec::FastGossiping,
            _ => ProtocolSpec::Memory,
        };
        let stop = match stop_pick {
            0 => StopRule::Complete,
            1 => StopRule::Rounds(20),
            _ => StopRule::Coverage(0.7),
        };
        let scenario = env
            .apply(
                Scenario::builder("hostile-prop", TopologySpec::ErdosRenyiPaper { n }),
                n,
            )
            .protocol(protocol)
            .stop(stop)
            .max_rounds(80)
            .build()
            .unwrap();

        // Packed vs unpacked: identical outcome and per-round trace.
        let (unpacked, unpacked_trace) = run_scenario_unpacked_traced(&scenario, seed);
        let (packed, packed_trace) = run_scenario_traced(&scenario, seed, 1);
        prop_assert_eq!(&packed, &unpacked, "packed vs unpacked outcome");
        prop_assert_eq!(&packed_trace, &unpacked_trace, "packed vs unpacked trace");

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

        // And the scenario itself roundtrips through the text format.
        prop_assert_eq!(Scenario::parse_str(&scenario.to_text()).unwrap(), scenario);
    }

    /// Invariant: a `crash = round:count@zone` burst only ever crashes nodes
    /// of the named zone, at any zone count, zone index and seed — on both
    /// engines.
    #[test]
    fn zone_crashes_only_hit_the_named_zone(
        zones in 2usize..9,
        zone_pick in 0usize..8,
        seed in 0u64..10_000,
    ) {
        let n = 128usize;
        let zone = zone_pick % zones;
        let count = (n / zones).max(1) / 2 + 1;
        let scenario = Scenario::builder("zone-inv", TopologySpec::ErdosRenyiPaper { n })
            .zones(zones)
            .crash_in_zone(2, count, zone)
            .stop(StopRule::Rounds(6))
            .build()
            .unwrap();
        let outcome = run_scenario(&scenario, seed, 1);
        prop_assert_eq!(outcome.crashed, count);
        prop_assert_eq!(&outcome, &run_scenario_unpacked(&scenario, seed));
        // The zone's population bounds the damage: everything outside the
        // named zone stays alive, so the crash count never exceeds the zone.
        let members = zone_members(zone, n, zones);
        prop_assert!(count <= members.len());
    }

    /// Invariant: a Byzantine node opens channels and receives, but never
    /// appears as a sender — its packet counter stays zero on both engines
    /// while honest nodes keep transmitting.
    #[test]
    fn byzantine_nodes_never_appear_as_senders(
        seed in 0u64..10_000,
        byz_count in 1usize..16,
    ) {
        let n = 64usize;
        let graph = ErdosRenyi::with_expected_degree(n, 10.0).generate(seed);
        let byz: Vec<NodeId> = (0..byz_count as NodeId).collect();
        let mut packed = Simulation::new(&graph, seed);
        let mut unpacked = UnpackedSimulation::new(&graph, seed);
        packed.set_byzantine(&byz);
        Engine::set_byzantine(&mut unpacked, &byz);
        for _ in 0..8 {
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
        }
        for sim in [&packed as &dyn Engine, &unpacked as &dyn Engine] {
            for &b in &byz {
                prop_assert!(sim.is_byzantine(b));
                prop_assert_eq!(sim.metrics().packets_per_node()[b as usize], 0);
            }
            prop_assert_eq!(sim.byzantine_count(), byz_count);
            // Honest nodes kept sending.
            prop_assert!(sim.metrics().total_packets() > 0);
        }
    }

    /// Invariant: edge churn never strands the stop-rule evaluation — even
    /// with nearly every edge down every round, the run ends via its rule or
    /// the cap, identically on both engines.
    #[test]
    fn edge_churn_never_strands_the_stop_rule(
        fraction in 0.5f64..1.0,
        period in 1u64..4,
        stop_pick in 0u8..3,
        seed in 0u64..10_000,
    ) {
        let stop = match stop_pick {
            0 => StopRule::Complete,
            1 => StopRule::Rounds(12),
            _ => StopRule::Coverage(0.6),
        };
        let scenario = Scenario::builder("strand", TopologySpec::ErdosRenyiPaper { n: 96 })
            .edge_churn(fraction, period)
            .stop(stop)
            .max_rounds(50)
            .build()
            .unwrap();
        let packed = run_scenario(&scenario, seed, 1);
        prop_assert_eq!(&packed, &run_scenario_unpacked(&scenario, seed));
        prop_assert!(packed.rounds <= 50, "the cap always bounds the run");
    }
}

// ---------------------------------------------------------------------------
// Scenario text format (ISSUE 8 satellite): arbitrary-scenario roundtrip
// covering every key, and the all-unknown-keys error corpus.
// ---------------------------------------------------------------------------

fn full_scenario_strategy() -> impl Strategy<Value = Scenario> {
    let tuning = proptest::option::of((0.25f64..8.0, 1usize..5));
    let knobs = (0u8..3, 0u8..3, 1u64..40, tuning);
    (0usize..1_000_000, 48usize..128, 0u8..3, env_strategy(), knobs).prop_map(
        |(name_idx, n, protocol_pick, env, (placement_pick, stop_pick, rounds, tuning))| {
            let name = format!("scn-{name_idx}");
            let protocol = match protocol_pick {
                0 => ProtocolSpec::PushPull,
                1 => ProtocolSpec::FastGossiping,
                _ => ProtocolSpec::Memory,
            };
            let placement = match placement_pick {
                0 => StartPlacement::Random,
                1 => StartPlacement::MinDegree,
                _ => StartPlacement::MaxDegree,
            };
            let stop = match stop_pick {
                0 => StopRule::Complete,
                1 => StopRule::Rounds(rounds),
                _ => StopRule::Coverage(0.05 + (rounds as f64) / 50.0),
            };
            let mut builder =
                env.apply(Scenario::builder(&name, TopologySpec::ErdosRenyiPaper { n }), n);
            if let (ProtocolSpec::FastGossiping, Some((factor, steps))) = (protocol, tuning) {
                builder = builder.fast_tuning(factor, steps);
            }
            builder
                .protocol(protocol)
                .placement(placement)
                .stop(stop)
                .build()
                .expect("sampled scenario must validate")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `parse(to_text(s)) == s` for arbitrary scenarios across every key the
    /// format knows — including all four hostile-environment dimensions.
    #[test]
    fn arbitrary_scenarios_roundtrip_through_the_text_format(
        scenario in full_scenario_strategy(),
    ) {
        let text = scenario.to_text();
        let reparsed = Scenario::parse_str(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        prop_assert_eq!(reparsed, scenario);
    }
}

/// The parser collects *all* unknown keys into one error, listing each bad
/// key exactly once, in first-seen order — across a corpus of malformed
/// inputs mixing repeats, near-misses of the new keys, and valid lines.
#[test]
fn unknown_key_errors_list_each_bad_key_exactly_once() {
    let corpus: &[(&str, &str)] = &[
        ("name = x\nn = 64\nbogus = 1\n", "unknown key: bogus"),
        ("name = x\nn = 64\nbogus = 1\nbogus = 2\n", "unknown key: bogus"),
        (
            "name = x\nn = 64\nloss-bursts = 1:2:0.5\nbyzantin = 0.1\nedge-churns = 0.2:4\n",
            "unknown keys: loss-bursts, byzantin, edge-churns",
        ),
        (
            "name = x\nn = 64\nzone = 8\nloss = 0.1\nzone = 4\ncrashes = 1:2\n",
            "unknown keys: zone, crashes",
        ),
    ];
    for (text, want) in corpus {
        match Scenario::parse_str(text) {
            Err(ScenarioError::Parse(msg)) => {
                assert_eq!(&msg, want, "for input:\n{text}")
            }
            other => panic!("expected unknown-key error for:\n{text}\ngot {other:?}"),
        }
    }
}

/// Malformed values of the four new keys fail with key-specific messages —
/// none of them is silently ignored or folded into the unknown-key path.
#[test]
fn malformed_hostile_values_are_rejected_with_specific_errors() {
    let bad: &[&str] = &[
        "name = x\nn = 64\nloss-burst = 5:0.5\n", // missing a field
        "name = x\nn = 64\nloss-burst = a:2:0.5\n", // non-numeric start
        "name = x\nn = 64\nloss-burst = 1:2:1.5\n", // prob out of range
        "name = x\nn = 64\nzones = 0\n",          // zero zones
        "name = x\nn = 64\nzones = 100\n",        // more zones than nodes
        "name = x\nn = 64\ncrash = 1:4@2\n",      // zone without zones key
        "name = x\nn = 64\nzones = 4\ncrash = 1:4@9\n", // zone out of range
        "name = x\nn = 64\nedge-churn = 1.5:4\n", // fraction > 1
        "name = x\nn = 64\nedge-churn = 0.2:0\n", // zero period
        "name = x\nn = 64\nbyzantine = 1.5\n",    // fraction > 1
        "name = x\nn = 64\nbyzantine = nan\n",    // non-finite
    ];
    for text in bad {
        assert!(Scenario::parse_str(text).is_err(), "accepted malformed input:\n{text}");
    }
}
