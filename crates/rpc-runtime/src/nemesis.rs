//! The seeded nemesis: a deterministic transport-level fault injector.
//!
//! The nemesis sits between the scheduler and the wire and decides, per
//! message, what the network does to it: deliver, drop, delay, duplicate.
//! Two structured faults ride on top — a **partition** that splits the node
//! population in half for a window of rounds, and **crash-restart** plans
//! that take a node down for a number of rounds (its in-flight traffic is
//! dropped; the cluster rebuilds it from persisted state when the window
//! ends).
//!
//! Everything is driven by one `SmallRng` seeded from the spec, so a nemesis
//! run is exactly reproducible: same spec, same message sequence, same
//! faults. Faults are observable — every injected fault emits an
//! [`ObsEvent::TransportFault`] — and audited in [`FaultStats`].
//!
//! Specs parse from a compact CLI grammar, e.g.
//! `drop=0.1,delay=0.2:3,duplicate=0.05,partition=4:2,crash=3@5+4,seed=9`:
//! 10% drop, 20% chance of 1–3 extra ticks of delay, 5% duplication, a
//! partition covering rounds 4–5, and node 3 crashing at round 5 for 4
//! rounds. A window whose end lies past `u64::MAX` lasts to the end of the
//! run.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rpc_graphs::NodeId;
use rpc_obs::{ObsEvent, Observer};

use crate::wire::{parse_node_name, Envelope};

/// One planned crash: `node` goes down at the start of round `round` and
/// rejoins (restarted from persisted state) `downtime` rounds later.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPlan {
    /// The node to crash.
    pub node: NodeId,
    /// The round at whose start the crash happens.
    pub round: u64,
    /// Rounds the node stays down.
    pub downtime: u64,
}

/// A declarative fault schedule (see module docs for the CLI grammar).
#[derive(Clone, Debug, PartialEq)]
pub struct NemesisSpec {
    /// Seed of the nemesis RNG (independent of the scenario seed).
    pub seed: u64,
    /// Per-message drop probability.
    pub drop: f64,
    /// Per-message probability of extra delivery delay.
    pub delay: f64,
    /// Maximum extra delay, in scheduler ticks (uniform in `1..=delay_max`).
    pub delay_max: u64,
    /// Per-message duplication probability (the copy arrives one tick late).
    pub duplicate: f64,
    /// A half/half network partition over rounds `start..start + len`.
    pub partition: Option<(u64, u64)>,
    /// Crash-restart plans (may overlap; a node is down if any plan covers
    /// the current round).
    pub crashes: Vec<CrashPlan>,
}

impl Default for NemesisSpec {
    fn default() -> Self {
        NemesisSpec {
            seed: 0,
            drop: 0.0,
            delay: 0.0,
            delay_max: 1,
            duplicate: 0.0,
            partition: None,
            crashes: Vec::new(),
        }
    }
}

impl NemesisSpec {
    /// Whether this spec injects no faults at all (the differential suite's
    /// precondition for trace equality with the simulator).
    pub fn is_benign(&self) -> bool {
        self.drop == 0.0
            && self.delay == 0.0
            && self.duplicate == 0.0
            && self.partition.is_none()
            && self.crashes.is_empty()
    }

    /// Parses the compact CLI grammar (see module docs). Unknown keys and
    /// malformed values are reported, never ignored.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut spec = NemesisSpec::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) =
                part.split_once('=').ok_or_else(|| format!("expected key=value, got {part:?}"))?;
            match key {
                "seed" => spec.seed = value.parse().map_err(|_| bad(key, value))?,
                "drop" => spec.drop = prob(key, value)?,
                "duplicate" => spec.duplicate = prob(key, value)?,
                "delay" => {
                    // delay=P[:MAX] — probability with optional max extra ticks.
                    let (p, max) = match value.split_once(':') {
                        Some((p, max)) => {
                            (prob(key, p)?, max.parse().map_err(|_| bad(key, value))?)
                        }
                        None => (prob(key, value)?, 1),
                    };
                    if max == 0 {
                        return Err(format!("delay max must be >= 1 in {part:?}"));
                    }
                    spec.delay = p;
                    spec.delay_max = max;
                }
                "partition" => {
                    // partition=START:LEN in rounds.
                    let (start, len) = value.split_once(':').ok_or_else(|| bad(key, value))?;
                    let start = start.parse().map_err(|_| bad(key, value))?;
                    let len: u64 = len.parse().map_err(|_| bad(key, value))?;
                    if len == 0 {
                        return Err(format!("partition length must be >= 1 in {part:?}"));
                    }
                    spec.partition = Some((start, len));
                }
                "crash" => {
                    // crash=NODE@ROUND+DOWNTIME, repeatable.
                    let (node, rest) = value.split_once('@').ok_or_else(|| bad(key, value))?;
                    let (round, downtime) = rest.split_once('+').ok_or_else(|| bad(key, value))?;
                    let plan = CrashPlan {
                        node: node.parse().map_err(|_| bad(key, value))?,
                        round: round.parse().map_err(|_| bad(key, value))?,
                        downtime: downtime.parse().map_err(|_| bad(key, value))?,
                    };
                    if plan.downtime == 0 {
                        return Err(format!("crash downtime must be >= 1 in {part:?}"));
                    }
                    spec.crashes.push(plan);
                }
                other => return Err(format!("unknown nemesis key {other:?}")),
            }
        }
        Ok(spec)
    }
}

/// Whether `round` falls in the window of `len` rounds opening at `start`.
/// Written without `start + len`, which overflows for lengths the grammar
/// accepts: a window reaching past `u64::MAX` lasts to the end of the run.
fn in_window(round: u64, start: u64, len: u64) -> bool {
    round >= start && round - start < len
}

fn bad(key: &str, value: &str) -> String {
    format!("malformed value {value:?} for nemesis key {key:?}")
}

fn prob(key: &str, value: &str) -> Result<f64, String> {
    let p: f64 = value.parse().map_err(|_| bad(key, value))?;
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(format!("probability {p} for {key:?} is outside [0, 1]"))
    }
}

/// Counts of every fault the nemesis actually injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped by the random drop dimension.
    pub dropped: u64,
    /// Messages given extra delivery delay.
    pub delayed: u64,
    /// Messages duplicated.
    pub duplicated: u64,
    /// Messages dropped because they crossed the partition.
    pub partition_drops: u64,
    /// Messages dropped because an endpoint was crashed.
    pub crash_drops: u64,
    /// Crash windows that began.
    pub crashes: u64,
    /// Nodes rebuilt from persisted state after a crash window.
    pub restarts: u64,
}

/// The runtime fault injector: applies a [`NemesisSpec`] to every routed
/// message, deterministically (see module docs).
#[derive(Debug)]
pub struct Nemesis {
    spec: NemesisSpec,
    rng: SmallRng,
    stats: FaultStats,
}

impl Nemesis {
    /// A nemesis executing `spec`.
    pub fn new(spec: NemesisSpec) -> Self {
        let rng = SmallRng::seed_from_u64(spec.seed);
        Nemesis { spec, rng, stats: FaultStats::default() }
    }

    /// The spec being executed.
    pub fn spec(&self) -> &NemesisSpec {
        &self.spec
    }

    /// The faults injected so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Records a crash window beginning (bookkeeping for the audit).
    pub fn note_crash(&mut self) {
        self.stats.crashes += 1;
    }

    /// Records a node rebuilt from persisted state.
    pub fn note_restart(&mut self) {
        self.stats.restarts += 1;
    }

    /// Whether `node` is inside any crash window during `round`.
    pub fn crashed(&self, node: NodeId, round: u64) -> bool {
        self.spec.crashes.iter().any(|c| c.node == node && in_window(round, c.round, c.downtime))
    }

    /// Whether the partition is active during `round`.
    pub fn partitioned(&self, round: u64) -> bool {
        self.spec.partition.is_some_and(|(start, len)| in_window(round, start, len))
    }

    /// Routes one message: returns the extra delays (in ticks beyond the
    /// base latency) of every copy to deliver. Empty means dropped, `[0]`
    /// means normal delivery, `[0, 1]` means duplicated.
    ///
    /// `round` is the cluster's current round (fault windows are in rounds);
    /// `n` is the node population (for the half/half partition split).
    pub fn route<O: Observer>(
        &mut self,
        env: &Envelope,
        round: u64,
        n: usize,
        obs: &mut O,
    ) -> Vec<u64> {
        let src = parse_node_name(&env.src);
        let dst = parse_node_name(&env.dest);
        // Crashed endpoints: traffic from or to a down node vanishes.
        let crash_hit = src.map(|v| self.crashed(v, round)).unwrap_or(false)
            || dst.map(|v| self.crashed(v, round)).unwrap_or(false);
        if crash_hit {
            self.stats.crash_drops += 1;
            self.fault(obs, env, round, "crash");
            return Vec::new();
        }
        // The partition splits the node population in half; coordinator
        // traffic is control-plane and always goes through.
        if self.partitioned(round) {
            if let (Some(a), Some(b)) = (src, dst) {
                let half = (n / 2) as NodeId;
                if (a < half) != (b < half) {
                    self.stats.partition_drops += 1;
                    self.fault(obs, env, round, "partition");
                    return Vec::new();
                }
            }
        }
        if self.spec.drop > 0.0 && self.rng.gen_bool(self.spec.drop) {
            self.stats.dropped += 1;
            self.fault(obs, env, round, "drop");
            return Vec::new();
        }
        let mut extra = 0;
        if self.spec.delay > 0.0 && self.rng.gen_bool(self.spec.delay) {
            extra = self.rng.gen_range(1..=self.spec.delay_max);
            self.stats.delayed += 1;
            self.fault(obs, env, round, "delay");
        }
        if self.spec.duplicate > 0.0 && self.rng.gen_bool(self.spec.duplicate) {
            self.stats.duplicated += 1;
            self.fault(obs, env, round, "duplicate");
            return vec![extra, extra + 1];
        }
        vec![extra]
    }

    fn fault<O: Observer>(&self, obs: &mut O, env: &Envelope, round: u64, kind: &str) {
        if O::ENABLED {
            obs.record(&ObsEvent::TransportFault { round, kind, from: &env.src, to: &env.dest });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Body;
    use rpc_obs::NoopObserver;

    fn gossip(from: &str, to: &str) -> Envelope {
        Envelope::new(from, to, Body::Gossip { round: 1, from: 0, rumors: "00".into() })
    }

    #[test]
    fn parse_full_grammar() {
        let spec = NemesisSpec::parse(
            "drop=0.1,delay=0.2:3,duplicate=0.05,partition=4:2,crash=3@5+4,seed=9",
        )
        .unwrap();
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.drop, 0.1);
        assert_eq!(spec.delay, 0.2);
        assert_eq!(spec.delay_max, 3);
        assert_eq!(spec.duplicate, 0.05);
        assert_eq!(spec.partition, Some((4, 2)));
        assert_eq!(spec.crashes, vec![CrashPlan { node: 3, round: 5, downtime: 4 }]);
        assert!(!spec.is_benign());
        assert!(NemesisSpec::parse("").unwrap().is_benign());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(NemesisSpec::parse("drop=2.0").is_err(), "probability out of range");
        assert!(NemesisSpec::parse("warble=1").is_err(), "unknown key");
        assert!(NemesisSpec::parse("crash=3@5").is_err(), "missing downtime");
        assert!(NemesisSpec::parse("partition=4").is_err(), "missing length");
        assert!(NemesisSpec::parse("drop").is_err(), "missing value");
        assert!(NemesisSpec::parse("crash=1@1+0").is_err(), "zero downtime");
    }

    #[test]
    fn benign_nemesis_delivers_everything_untouched() {
        let mut nemesis = Nemesis::new(NemesisSpec::default());
        let mut obs = NoopObserver;
        for _ in 0..100 {
            assert_eq!(nemesis.route(&gossip("n0", "n1"), 1, 16, &mut obs), vec![0]);
        }
        assert_eq!(*nemesis.stats(), FaultStats::default());
    }

    #[test]
    fn crash_windows_drop_traffic_for_their_rounds_only() {
        let spec = NemesisSpec {
            crashes: vec![CrashPlan { node: 2, round: 3, downtime: 2 }],
            ..NemesisSpec::default()
        };
        let mut nemesis = Nemesis::new(spec);
        let mut obs = NoopObserver;
        assert!(!nemesis.crashed(2, 2));
        assert!(nemesis.crashed(2, 3));
        assert!(nemesis.crashed(2, 4));
        assert!(!nemesis.crashed(2, 5));
        assert!(nemesis.route(&gossip("n2", "n5"), 3, 16, &mut obs).is_empty());
        assert!(nemesis.route(&gossip("n5", "n2"), 4, 16, &mut obs).is_empty());
        assert_eq!(nemesis.route(&gossip("n5", "n2"), 5, 16, &mut obs), vec![0]);
        assert_eq!(nemesis.stats().crash_drops, 2);
    }

    #[test]
    fn windows_reaching_past_the_last_round_stay_open() {
        let crash = Nemesis::new(NemesisSpec::parse("crash=3@1+18446744073709551615").unwrap());
        assert!(!crash.crashed(3, 0));
        for round in [1, 2, 1 << 40, u64::MAX] {
            assert!(crash.crashed(3, round), "round {round}");
            assert!(!crash.crashed(4, round));
        }
        let partition =
            Nemesis::new(NemesisSpec::parse("partition=1:18446744073709551615").unwrap());
        assert!(!partition.partitioned(0));
        for round in [1, 2, 1 << 40, u64::MAX] {
            assert!(partition.partitioned(round), "round {round}");
        }
        // In-range windows keep their exact bounds.
        let edge = Nemesis::new(NemesisSpec::parse("partition=18446744073709551614:1").unwrap());
        assert!(!edge.partitioned(u64::MAX - 2));
        assert!(edge.partitioned(u64::MAX - 1));
        assert!(!edge.partitioned(u64::MAX));
    }

    #[test]
    fn partition_splits_halves_but_spares_the_coordinator() {
        let spec = NemesisSpec { partition: Some((2, 1)), ..NemesisSpec::default() };
        let mut nemesis = Nemesis::new(spec);
        let mut obs = NoopObserver;
        // Cross-half traffic dies during the window.
        assert!(nemesis.route(&gossip("n1", "n12"), 2, 16, &mut obs).is_empty());
        // Same-half traffic and coordinator traffic survive.
        assert_eq!(nemesis.route(&gossip("n1", "n3"), 2, 16, &mut obs), vec![0]);
        assert_eq!(nemesis.route(&gossip("c0", "n12"), 2, 16, &mut obs), vec![0]);
        // Outside the window everything flows.
        assert_eq!(nemesis.route(&gossip("n1", "n12"), 3, 16, &mut obs), vec![0]);
        assert_eq!(nemesis.stats().partition_drops, 1);
    }

    #[test]
    fn seeded_probabilistic_faults_are_reproducible() {
        let spec = NemesisSpec::parse("drop=0.3,delay=0.3:4,duplicate=0.2,seed=42").unwrap();
        let run = |spec: NemesisSpec| {
            let mut nemesis = Nemesis::new(spec);
            let mut obs = NoopObserver;
            let plans: Vec<Vec<u64>> = (0..200)
                .map(|i| {
                    let from = format!("n{}", i % 8);
                    let to = format!("n{}", (i + 3) % 8);
                    nemesis.route(&gossip(&from, &to), 1, 16, &mut obs)
                })
                .collect();
            (plans, *nemesis.stats())
        };
        let (plans_a, stats_a) = run(spec.clone());
        let (plans_b, stats_b) = run(spec);
        assert_eq!(plans_a, plans_b);
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.dropped > 0 && stats_a.delayed > 0 && stats_a.duplicated > 0);
    }
}
