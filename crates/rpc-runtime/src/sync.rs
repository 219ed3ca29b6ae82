//! The round synchronizer: a coordinator actor with timeout, bounded
//! exponential-backoff retry, and quorum-based round advance.
//!
//! The coordinator (`c0` on the wire) runs the same drive loop as the
//! in-process scenario executor — trace row, stop rule, round cap, next
//! round — except that "execute one round" becomes a distributed handshake:
//! broadcast `start_round`, collect `round_ok` acks, and arbitrate the
//! stragglers with timers. It records its trace the way any observer does,
//! from the `round` events it emits, into the executor's [`ScenarioTrace`] —
//! which is what the differential suite pins.
//!
//! Timers are ordinary envelopes the coordinator addresses to itself
//! ([`crate::wire::Body::Tick`]); the cluster's scheduler delivers them
//! `after` ticks later, bypassing the nemesis. Every retransmission bumps an
//! epoch so stale timers are inert. The escalation ladder on a timeout is:
//!
//! 1. retransmit `start_round` to the unacked nodes with backoff
//!    `min(timeout · 2^attempt, cap)`,
//! 2. once at least one retry has been sent, advance anyway if a majority
//!    (⌊n/2⌋ + 1) has acked — the quorum advance,
//! 3. after [`RetryPolicy::max_retries`] retries, advance unconditionally:
//!    push-pull re-carries everything, so skipping a wedged round costs
//!    information nothing and buys liveness.

use rpc_graphs::NodeId;
use rpc_obs::{ObsEvent, Observer};
use rpc_scenarios::{coverage_target, RoundTrace, RuntimePlan, ScenarioTrace, StopRule, StoppedBy};

use crate::wire::{node_name, Body, Envelope, COORDINATOR};

/// Timeout and retry knobs of the [`Coordinator`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Scheduler ticks to wait for acks before the first retry. Fault-free
    /// rounds complete in ≤ 3 ticks, so the default never fires spuriously.
    pub timeout_ticks: u64,
    /// Upper bound on the exponential backoff, in ticks.
    pub backoff_cap: u64,
    /// Retries per round (and per init) before advancing unconditionally.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { timeout_ticks: 16, backoff_cap: 256, max_retries: 6 }
    }
}

impl RetryPolicy {
    /// The backoff applied after retry `attempt` (1-based), capped.
    pub fn backoff(&self, attempt: u32) -> u64 {
        self.timeout_ticks
            .checked_shl(attempt.min(32))
            .unwrap_or(u64::MAX)
            .min(self.backoff_cap)
            .max(self.timeout_ticks)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Init,
    Round,
    Done,
}

/// The round-synchronizing coordinator actor (see module docs).
#[derive(Debug)]
pub struct Coordinator {
    plan: RuntimePlan,
    policy: RetryPolicy,
    scenario: String,
    seed: u64,
    phase: Phase,
    /// Per-node ack flags for the in-flight handshake (init or round).
    acked: Vec<bool>,
    /// Last reported per-node state.
    informed: Vec<bool>,
    tracked: Vec<bool>,
    counts: Vec<u64>,
    /// Per-round snapshots of `counts` (round 0 first) — the monotonicity
    /// invariant's raw material.
    count_history: Vec<Vec<u64>>,
    /// The round currently executing (1-based; 0 during init).
    round: u64,
    rounds_done: u64,
    /// Retries spent on the in-flight handshake.
    attempt: u32,
    /// Timer generation; ticks from older generations are stale.
    epoch: u64,
    total_packets: u64,
    total_exchanges: u64,
    retries: u64,
    quorum_advances: u64,
    trace: ScenarioTrace,
    stopped: Option<StoppedBy>,
}

impl Coordinator {
    /// A coordinator for `plan`, announcing `scenario`/`seed` in its `init`s.
    pub fn new(plan: RuntimePlan, policy: RetryPolicy, scenario: &str, seed: u64) -> Self {
        let n = plan.n;
        Coordinator {
            plan,
            policy,
            scenario: scenario.to_string(),
            seed,
            phase: Phase::Init,
            acked: vec![false; n],
            informed: vec![false; n],
            tracked: vec![false; n],
            counts: vec![0; n],
            count_history: Vec::new(),
            round: 0,
            rounds_done: 0,
            attempt: 0,
            epoch: 0,
            total_packets: 0,
            total_exchanges: 0,
            retries: 0,
            quorum_advances: 0,
            trace: ScenarioTrace::default(),
            stopped: None,
        }
    }

    /// Kicks off the run: `init` to every node plus the first timer.
    pub fn start(&mut self) -> Vec<Envelope> {
        let mut out: Vec<Envelope> = (0..self.plan.n)
            .map(|k| {
                Envelope::new(
                    COORDINATOR,
                    node_name(k as NodeId),
                    Body::Init {
                        node_id: k as NodeId,
                        n: self.plan.n as u64,
                        scenario: self.scenario.clone(),
                        seed: self.seed,
                    },
                )
            })
            .collect();
        out.push(self.tick(self.policy.timeout_ticks));
        out
    }

    /// Whether the run has reached its stop rule.
    pub fn finished(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Why the run stopped (once [`Coordinator::finished`]).
    pub fn stopped_by(&self) -> Option<StoppedBy> {
        self.stopped
    }

    /// Rounds the cluster completed.
    pub fn rounds(&self) -> u64 {
        self.rounds_done
    }

    /// The per-round trace (one row per completed round, plus round 0).
    pub fn trace(&self) -> &[RoundTrace] {
        &self.trace.rounds
    }

    /// Cumulative packets across all counted acks.
    pub fn total_packets(&self) -> u64 {
        self.total_packets
    }

    /// Cumulative opened channels across all counted acks.
    pub fn total_exchanges(&self) -> u64 {
        self.total_exchanges
    }

    /// Retransmissions sent (init and rounds combined).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Rounds advanced degraded on a quorum or retry exhaustion.
    pub fn quorum_advances(&self) -> u64 {
        self.quorum_advances
    }

    /// Last reported rumor counts per node.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Per-round snapshots of the per-node counts (round 0 first).
    pub fn count_history(&self) -> &[Vec<u64>] {
        &self.count_history
    }

    /// The round currently being synchronized (0 during init).
    pub fn current_round(&self) -> u64 {
        self.round
    }

    /// Handles one envelope addressed to `c0`.
    pub fn handle<O: Observer>(&mut self, env: &Envelope, obs: &mut O) -> Vec<Envelope> {
        if self.phase == Phase::Done {
            return Vec::new();
        }
        match env.body {
            Body::InitOk { informed, tracked, count } => {
                self.on_init_ok(&env.src, informed, tracked, count, obs)
            }
            Body::RoundOk { round, informed, tracked, count, packets, exchanges } => {
                self.on_round_ok(&env.src, round, informed, tracked, count, packets, exchanges, obs)
            }
            Body::Tick { epoch, .. } => self.on_tick(epoch, obs),
            // Structured node errors are diagnostic, not fatal; everything
            // else is noise.
            _ => Vec::new(),
        }
    }

    fn on_init_ok<O: Observer>(
        &mut self,
        src: &str,
        informed: bool,
        tracked: bool,
        count: u64,
        obs: &mut O,
    ) -> Vec<Envelope> {
        let Some(k) = crate::wire::parse_node_name(src).map(|id| id as usize) else {
            return Vec::new();
        };
        if self.phase != Phase::Init || k >= self.plan.n || self.acked[k] {
            return Vec::new();
        }
        self.acked[k] = true;
        self.informed[k] = informed;
        self.tracked[k] = tracked;
        self.counts[k] = count;
        if self.acked.iter().all(|&a| a) {
            return self.advance(obs);
        }
        Vec::new()
    }

    #[allow(clippy::too_many_arguments)]
    fn on_round_ok<O: Observer>(
        &mut self,
        src: &str,
        round: u64,
        informed: bool,
        tracked: bool,
        count: u64,
        packets: u64,
        exchanges: u64,
        obs: &mut O,
    ) -> Vec<Envelope> {
        let Some(k) = crate::wire::parse_node_name(src).map(|id| id as usize) else {
            return Vec::new();
        };
        if k >= self.plan.n {
            return Vec::new();
        }
        if self.phase == Phase::Round && round == self.round && !self.acked[k] {
            self.acked[k] = true;
            self.informed[k] = informed;
            self.tracked[k] = tracked;
            self.counts[k] = count;
            self.total_packets += packets;
            self.total_exchanges += exchanges;
            if self.acked.iter().all(|&a| a) {
                if O::ENABLED {
                    obs.record(&ObsEvent::RoundAdvanced {
                        round: self.round,
                        acks: self.plan.n,
                        expected: self.plan.n,
                        retries: self.attempt,
                        quorum: false,
                    });
                }
                return self.advance(obs);
            }
        } else if round < self.round && count >= self.counts[k] {
            // A straggler's report for a round we advanced past: its state
            // is monotone, so refreshing the snapshot only improves
            // accuracy. Its packets stay uncounted — the round they belong
            // to was already traced.
            self.informed[k] = informed;
            self.tracked[k] = tracked;
            self.counts[k] = count;
        }
        Vec::new()
    }

    fn on_tick<O: Observer>(&mut self, epoch: u64, obs: &mut O) -> Vec<Envelope> {
        if epoch != self.epoch {
            return Vec::new();
        }
        let missing: Vec<usize> = (0..self.plan.n).filter(|&k| !self.acked[k]).collect();
        let acks = self.plan.n - missing.len();
        match self.phase {
            Phase::Done => Vec::new(),
            Phase::Init => {
                if self.attempt >= self.policy.max_retries {
                    // A node that never answered init gets the classic
                    // defaults — it knows its own rumor and nothing else.
                    for &k in &missing {
                        self.acked[k] = true;
                        self.informed[k] = self.plan.n == 1;
                        self.tracked[k] = k == self.plan.tracked as usize;
                        self.counts[k] = 1;
                    }
                    return self.advance(obs);
                }
                self.attempt += 1;
                self.retries += 1;
                let backoff = self.policy.backoff(self.attempt);
                if O::ENABLED {
                    obs.record(&ObsEvent::RetryTimeout {
                        round: 0,
                        attempt: self.attempt,
                        backoff,
                        missing: missing.len(),
                    });
                }
                let mut out: Vec<Envelope> = missing
                    .iter()
                    .map(|&k| {
                        Envelope::new(
                            COORDINATOR,
                            node_name(k as NodeId),
                            Body::Init {
                                node_id: k as NodeId,
                                n: self.plan.n as u64,
                                scenario: self.scenario.clone(),
                                seed: self.seed,
                            },
                        )
                    })
                    .collect();
                out.push(self.tick(backoff));
                out
            }
            Phase::Round => {
                let backoff = self.policy.backoff(self.attempt + 1);
                if O::ENABLED {
                    obs.record(&ObsEvent::RetryTimeout {
                        round: self.round,
                        attempt: self.attempt + 1,
                        backoff,
                        missing: missing.len(),
                    });
                }
                let quorum = self.plan.n / 2 + 1;
                let degraded = (self.attempt >= 1 && acks >= quorum)
                    || self.attempt >= self.policy.max_retries;
                if degraded {
                    self.quorum_advances += 1;
                    if O::ENABLED {
                        obs.record(&ObsEvent::RoundAdvanced {
                            round: self.round,
                            acks,
                            expected: self.plan.n,
                            retries: self.attempt,
                            quorum: acks >= quorum,
                        });
                    }
                    // Unacked nodes carry their previous report forward;
                    // mark them so the next handshake starts clean.
                    for &k in &missing {
                        self.acked[k] = true;
                    }
                    return self.advance(obs);
                }
                self.attempt += 1;
                self.retries += 1;
                let mut out: Vec<Envelope> = missing
                    .iter()
                    .map(|&k| {
                        Envelope::new(
                            COORDINATOR,
                            node_name(k as NodeId),
                            Body::StartRound { round: self.round, attempt: self.attempt as u64 },
                        )
                    })
                    .collect();
                out.push(self.tick(backoff));
                out
            }
        }
    }

    /// Closes the in-flight handshake: trace row, stop rule, round cap,
    /// next round — mirroring the in-process executor's drive loop.
    fn advance<O: Observer>(&mut self, obs: &mut O) -> Vec<Envelope> {
        self.rounds_done = self.round;
        self.count_history.push(self.counts.clone());
        let fully = self.informed.iter().filter(|&&i| i).count();
        let tracked = self.tracked.iter().filter(|&&t| t).count();
        let row = ObsEvent::Round {
            round: self.rounds_done,
            fully_informed: fully,
            tracked_informed: tracked,
            packets: self.total_packets,
        };
        self.trace.record(&row);
        if O::ENABLED {
            obs.record(&row);
        }
        let stopped = match self.plan.stop {
            StopRule::Complete => (fully == self.plan.n).then_some(StoppedBy::Complete),
            StopRule::Rounds(r) => (self.rounds_done == r).then_some(StoppedBy::RoundBudget),
            StopRule::Coverage(f) => {
                let target = coverage_target(f, self.plan.n);
                (target > 0 && tracked >= target).then_some(StoppedBy::CoverageReached)
            }
            // plan_runtime rejects injection scenarios, so this rule never
            // reaches a coordinator; treat it as never-firing defensively.
            StopRule::AllRumors => None,
        };
        let stopped = stopped.or_else(|| {
            (self.rounds_done >= self.plan.max_rounds).then_some(StoppedBy::MaxRoundsExhausted)
        });
        if let Some(s) = stopped {
            self.stopped = Some(s);
            self.phase = Phase::Done;
            return Vec::new();
        }
        // Open the next round's handshake.
        self.phase = Phase::Round;
        self.round = self.rounds_done + 1;
        self.attempt = 0;
        for a in &mut self.acked {
            *a = false;
        }
        let mut out: Vec<Envelope> = (0..self.plan.n)
            .map(|k| {
                Envelope::new(
                    COORDINATOR,
                    node_name(k as NodeId),
                    Body::StartRound { round: self.round, attempt: 0 },
                )
            })
            .collect();
        out.push(self.tick(self.policy.timeout_ticks));
        out
    }

    /// A fresh-generation timer envelope addressed to ourselves.
    fn tick(&mut self, after: u64) -> Envelope {
        self.epoch += 1;
        Envelope::new(COORDINATOR, COORDINATOR, Body::Tick { epoch: self.epoch, after })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpc_obs::NoopObserver;
    use rpc_scenarios::{plan_runtime, registry};

    fn plan(n: usize, seed: u64) -> RuntimePlan {
        let scenario = registry::find("sparse-er", n).unwrap();
        let graph =
            scenario.topology.build().generate(rpc_scenarios::scenario_engine_seeds(seed).0);
        plan_runtime(&scenario, seed, &graph).unwrap()
    }

    fn init_ok(k: usize, tracked: bool) -> Envelope {
        Envelope::new(
            node_name(k as NodeId),
            COORDINATOR,
            Body::InitOk { informed: false, tracked, count: 1 },
        )
    }

    #[test]
    fn start_inits_every_node_and_arms_a_timer() {
        let p = plan(16, 1);
        let mut c = Coordinator::new(p, RetryPolicy::default(), "sparse-er", 1);
        let out = c.start();
        assert_eq!(out.len(), 17);
        assert_eq!(out.iter().filter(|e| matches!(e.body, Body::Init { .. })).count(), 16);
        assert!(matches!(out[16].body, Body::Tick { .. }));
    }

    #[test]
    fn full_init_acks_open_round_one_with_a_round_zero_row() {
        let p = plan(16, 1);
        let tracked = p.tracked as usize;
        let mut c = Coordinator::new(p, RetryPolicy::default(), "sparse-er", 1);
        let _ = c.start();
        let mut obs = NoopObserver;
        let mut last = Vec::new();
        for k in 0..16 {
            last = c.handle(&init_ok(k, k == tracked), &mut obs);
        }
        assert_eq!(c.trace().len(), 1);
        assert_eq!(
            c.trace()[0],
            RoundTrace { round: 0, fully_informed: 0, tracked_informed: 1, packets: 0 }
        );
        assert_eq!(c.current_round(), 1);
        assert_eq!(
            last.iter().filter(|e| matches!(e.body, Body::StartRound { round: 1, .. })).count(),
            16
        );
    }

    #[test]
    fn init_timeout_retries_then_defaults_the_silent_nodes() {
        let p = plan(16, 1);
        let policy = RetryPolicy { max_retries: 2, ..RetryPolicy::default() };
        let mut c = Coordinator::new(p, policy, "sparse-er", 1);
        let _ = c.start();
        let mut obs = NoopObserver;
        // Ack all but node 3, then fire timers to exhaustion.
        for k in (0..16).filter(|&k| k != 3) {
            let _ = c.handle(&init_ok(k, false), &mut obs);
        }
        let mut epoch = 1;
        loop {
            let out = c.handle(
                &Envelope::new(COORDINATOR, COORDINATOR, Body::Tick { epoch, after: 0 }),
                &mut obs,
            );
            epoch += 1;
            if c.current_round() == 1 {
                break;
            }
            assert!(
                out.iter().any(|e| matches!(e.body, Body::Init { node_id: 3, .. })),
                "retries go to the silent node"
            );
        }
        assert_eq!(c.retries(), 2);
        assert_eq!(c.counts()[3], 1, "defaulted to the classic initial state");
    }

    #[test]
    fn stale_epoch_ticks_are_inert() {
        let p = plan(16, 1);
        let mut c = Coordinator::new(p, RetryPolicy::default(), "sparse-er", 1);
        let _ = c.start();
        let mut obs = NoopObserver;
        let out = c.handle(
            &Envelope::new(COORDINATOR, COORDINATOR, Body::Tick { epoch: 99, after: 0 }),
            &mut obs,
        );
        assert!(out.is_empty());
        assert_eq!(c.retries(), 0);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let policy = RetryPolicy { timeout_ticks: 16, backoff_cap: 100, max_retries: 6 };
        assert_eq!(policy.backoff(1), 32);
        assert_eq!(policy.backoff(2), 64);
        assert_eq!(policy.backoff(3), 100);
        assert_eq!(policy.backoff(30), 100);
    }
}
