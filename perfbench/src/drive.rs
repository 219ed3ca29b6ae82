//! Layer-by-layer replays of production code paths for the traced run.
//!
//! [`Replayer`] re-drives one push-pull scenario repetition through the
//! crates' public layer entry points — `generate_into`, `SimulationArena::
//! checkout`, and `PushPullDriver::step` over a [`SpanEngine`] — with the
//! seeds, rumor placement, stop rule and round cap the scenario executor
//! derives, so its rounds and packets must equal the executor's. [`Stamps`]
//! is the timestamping observer attached to the production entry points.

use std::time::Instant;

use rpc_engine::{Engine, SimulationArena};
use rpc_gossip::{ProtocolDriver, PushPullDriver, StepStatus};
use rpc_graphs::{GraphArena, GraphGenerator};
use rpc_obs::{ObsEvent, Observer, PoolStats};
use rpc_scenarios::{plan_runtime, scenario_engine_seeds, Scenario, StopRule, StoppedBy};

use crate::spans::SpanRecorder;
use crate::spy::SpanEngine;

/// Facts of one replayed repetition.
#[derive(Clone, Copy, Debug)]
pub struct Replay {
    /// The root `rep` span's id.
    pub span: usize,
    /// Rounds executed.
    pub rounds: u64,
    /// Packets sent.
    pub packets: u64,
    /// Why the run ended.
    pub stopped: StoppedBy,
    /// Newly learned (node, message) pairs over all deliveries.
    pub learned: u64,
    /// Message universe (bits per state).
    pub universe: usize,
}

/// Reusable graph and simulation storage for replaying one scenario.
pub struct Replayer {
    scenario: Scenario,
    generator: Box<dyn GraphGenerator>,
    graphs: GraphArena,
    sims: SimulationArena,
}

impl Replayer {
    /// A replayer for a benign push-pull `scenario` with the complete stop
    /// rule (the runtime's slice of the scenario space).
    pub fn new(scenario: Scenario) -> Result<Self, String> {
        if scenario.stop != StopRule::Complete {
            return Err(format!("{}: replay covers the complete stop rule only", scenario.name));
        }
        let generator = scenario.topology.build();
        Ok(Replayer {
            scenario,
            generator,
            graphs: GraphArena::new(),
            sims: SimulationArena::default(),
        })
    }

    /// Replays repetition `seed` into `rec` as a `rep` span enclosing
    /// `graphs.generate_into`, `engine.checkout` and one `driver.step` per
    /// round, each enclosing `engine.deliver`.
    pub fn rep(&mut self, seed: u64, rec: &mut SpanRecorder) -> Result<Replay, String> {
        let Replayer { scenario, generator, graphs, sims } = self;
        let root = rec.enter("rep");
        let span = rec.enter("graphs.generate_into");
        generator.generate_into(scenario_engine_seeds(seed).0, graphs);
        rec.exit(span);
        let graph = graphs.graph();
        // Placement and seeds exactly as the executor draws them.
        let plan = plan_runtime(scenario, seed, graph).map_err(|e| e.to_string())?;
        let span = rec.enter("engine.checkout");
        let sim = sims.checkout(graph, plan.run_seed);
        rec.exit(span);

        let mut engine = SpanEngine::new(sim, rec);
        engine.track_message(plan.tracked);
        let mut driver = PushPullDriver::new(plan.max_rounds as usize);
        let mut rounds = 0u64;
        // The executor's loop for the complete rule: stop rule, round cap, step.
        let stopped = loop {
            if driver.finished(&engine) {
                break if driver.succeeded(&engine) {
                    StoppedBy::Complete
                } else {
                    StoppedBy::MaxRoundsExhausted
                };
            }
            if rounds >= plan.max_rounds {
                break StoppedBy::MaxRoundsExhausted;
            }
            let span = engine.rec.enter("driver.step");
            let status = driver.step(&mut engine);
            engine.rec.exit(span);
            match status {
                StepStatus::Running => rounds += 1,
                StepStatus::Done => {
                    break if driver.succeeded(&engine) {
                        StoppedBy::Complete
                    } else {
                        StoppedBy::MaxRoundsExhausted
                    };
                }
            }
        };
        let packets = engine.metrics().total_packets();
        let universe = engine.universe();
        let SpanEngine { inner, learned, .. } = engine;
        sims.recycle(inner);
        rec.exit(root);
        Ok(Replay { span: root, rounds, packets, stopped, learned, universe })
    }
}

/// Timestamps of an observed run's `round` and `dispatch` events, plus its
/// last pool counters.
#[derive(Debug, Default)]
pub struct Stamps {
    /// One instant per `round` event (top of each executor iteration).
    pub rounds: Vec<Instant>,
    /// One instant per `dispatch` event (right after a step that delivered).
    pub dispatches: Vec<Instant>,
    /// The last `pool` event's counters.
    pub pool: Option<PoolStats>,
}

impl Observer for Stamps {
    fn record(&mut self, event: &ObsEvent<'_>) {
        match event {
            ObsEvent::Round { .. } => self.rounds.push(Instant::now()),
            ObsEvent::Dispatch { .. } => self.dispatches.push(Instant::now()),
            ObsEvent::Pool { stats } => self.pool = Some(*stats),
            _ => {}
        }
    }
}

impl Stamps {
    /// Records one `round_name` span per pair of consecutive `round` events,
    /// enclosing a `step_name` span from the first event to the last
    /// `dispatch` event between them. A round's self time is then the
    /// executor's own work after the step: the trace row, the next round's
    /// events and its stop rule.
    pub fn record_rounds(
        &self,
        rec: &mut SpanRecorder,
        round_name: &'static str,
        step_name: &'static str,
    ) {
        let mut dispatches = self.dispatches.iter().peekable();
        for w in self.rounds.windows(2) {
            let span = rec.enter_at(round_name, w[0]);
            let mut step_end = None;
            while let Some(&&d) = dispatches.peek() {
                if d > w[1] {
                    break;
                }
                if d > w[0] {
                    step_end = Some(d);
                }
                dispatches.next();
            }
            if let Some(end) = step_end {
                rec.record(step_name, w[0], end);
            }
            rec.exit_at(span, w[1]);
        }
    }
}

/// Sum of the durations of `rec`'s spans named `name` with ids from `from`.
pub fn total_nanos(rec: &SpanRecorder, from: usize, name: &str) -> u64 {
    rec.spans()[from..].iter().filter(|s| s.name == name).map(|s| s.nanos()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::self_time_by_name;
    use std::time::Duration;

    #[test]
    fn round_self_time_is_what_follows_the_step() {
        let mut rec = SpanRecorder::new();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Rounds at 0, 10, 25; steps end at 8 and 21; a stray dispatch
        // before the first round is ignored.
        let stamps = Stamps {
            rounds: vec![at(1), at(10), at(25)],
            dispatches: vec![at(0), at(8), at(21)],
            pool: None,
        };
        stamps.record_rounds(&mut rec, "round", "step");
        let own = self_time_by_name(rec.spans(), 0);
        assert_eq!(own["round"], Duration::from_millis(2 + 4).as_nanos() as u64);
        assert_eq!(own["step"], Duration::from_millis(7 + 11).as_nanos() as u64);
    }

    #[test]
    fn a_round_without_a_dispatch_is_all_executor_time() {
        let mut rec = SpanRecorder::new();
        let t0 = Instant::now();
        let stamps = Stamps {
            rounds: vec![t0, t0 + Duration::from_millis(5)],
            dispatches: Vec::new(),
            pool: None,
        };
        stamps.record_rounds(&mut rec, "round", "step");
        assert_eq!(rec.spans().len(), 1);
        assert_eq!(self_time_by_name(rec.spans(), 0)["round"], 5_000_000);
    }
}
