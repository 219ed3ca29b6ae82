//! # rpc-scenarios
//!
//! A declarative scenario engine on top of the random phone call simulator:
//! describe *what* to simulate — topology, protocol, environment, scale,
//! stopping rule — and let the engine execute it at scale.
//!
//! * [`spec`] — the [`Scenario`] type, a builder API, and a dependency-free
//!   `key = value` text format;
//! * [`exec`] — deterministic execution of one replication, including dynamic
//!   churn (nodes departing and rejoining mid-run), per-packet message loss,
//!   crash bursts, adversarial rumor placement, and multi-rumor streaming
//!   (scheduled mid-run injection with optional TTL expiry, per-rumor
//!   completion statistics in [`ScenarioOutcome::rumor_stats`]); every
//!   protocol is driven one round at a time through
//!   [`rpc_gossip::ProtocolDriver`], so round budgets, coverage thresholds
//!   and per-round traces work uniformly, and
//!   [`ScenarioOutcome::stopped_by`] reports why each run ended. Five entry
//!   points share one engine-generic core: [`run_scenario_observed_in`] (the
//!   packed engine on a reusable [`ScenarioArena`], any observer attached),
//!   [`run_scenario`] and [`run_scenario_traced`] (the same on a fresh
//!   arena), and [`run_scenario_unpacked`] and
//!   [`run_scenario_unpacked_traced`] (the unpacked oracle);
//! * [`stats`] — min/mean/max/percentile aggregation;
//! * [`registry`] — twenty-four built-in named scenarios covering the
//!   paper's density/robustness axes plus dynamic workloads — the
//!   phase-based protocols under round budgets and coverage thresholds, the
//!   correlated hostile dimensions (failure zones, burst loss, edge churn,
//!   Byzantine senders), multi-rumor streaming (Poisson arrivals, hotspot
//!   bursts, TTL expiry, streaming under fire), the broadcast baselines and
//!   leader election;
//! * [`cells`] — the unit of sweep work: a [`CellJob`] (scenario or
//!   memory-model-with-failures) measured into named metric samples by
//!   [`run_cell`];
//! * [`sweep`] — the adaptive sweep engine: a declarative [`SweepSpec`]
//!   (grid of axes × repetition policy) executed by [`SweepRunner`] on a
//!   crossbeam worker pool (one [`ScenarioArena`] per worker) with CI-based
//!   early stopping, a persistent cell cache, and per-cell results
//!   bit-identical across thread counts, batch sizes and cache resume. A
//!   Monte Carlo batch over a list of scenarios is a fixed-policy sweep.
//!
//! Every layer is instrumented through the zero-cost [`rpc_obs::Observer`]
//! interface: [`run_scenario_observed_in`] streams engine-level events
//! (rounds, dispatch decisions, pool/arena reuse), [`SweepRunner::run_with`]
//! streams sweep lifecycle events with per-repetition wall-clock. A
//! [`ScenarioTrace`] is one such observer, keeping the `round` events as
//! rows. Attaching any observer never changes a result — wall-clock is read
//! strictly outside seeded code (property-pinned in `tests/obs_props.rs`).
//!
//! ```
//! use rpc_scenarios::prelude::*;
//!
//! let scenario = Scenario::builder("demo", TopologySpec::ErdosRenyiPaper { n: 128 })
//!     .loss(0.1)
//!     .churn(0.05, 4, 8)
//!     .build()
//!     .unwrap();
//! let outcome = run_scenario(&scenario, 42, 1);
//! assert!(outcome.completed);
//!
//! // The same scenario round-trips through the text format:
//! assert_eq!(Scenario::parse_str(&scenario.to_text()).unwrap(), scenario);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cells;
pub mod exec;
pub mod registry;
pub mod spec;
pub mod stats;
pub mod sweep;

pub use cells::{run_cell, run_cell_meta, CellJob, Probe, RepMeta, RepOutcome};
pub use exec::{
    coverage_target, plan_runtime, run_scenario, run_scenario_observed_in, run_scenario_traced,
    run_scenario_unpacked, run_scenario_unpacked_traced, scenario_engine_seeds, RoundTrace,
    RumorStats, RuntimePlan, ScenarioArena, ScenarioOutcome, ScenarioTrace, StoppedBy,
};
pub use spec::{
    zone_members, zone_of, ChurnSpec, CrashSpec, EdgeChurnSpec, EnvironmentSpec, FastTuning,
    InjectPattern, InjectionEntry, InjectionSpec, LossBurstSpec, ProtocolSpec, Scenario,
    ScenarioBuilder, ScenarioError, StartPlacement, StopRule, TopologySpec,
};
pub use stats::{summarize, SummaryStats};
pub use sweep::{
    arithmetic_failure_sweep, dense_size_sweep, failure_sweep, size_sweep, stop_index, AxisPoint,
    CacheWriteError, CellResult, CiStopRule, GridBuilder, MetricSummary, RepPolicy, SpecCell,
    StoppedByCounts, SweepReport, SweepRunner, SweepSpec, DEFAULT_Z,
};

/// Commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use crate::cells::{run_cell, CellJob, Probe, RepOutcome};
    pub use crate::exec::{
        run_scenario, run_scenario_observed_in, run_scenario_traced, RumorStats, ScenarioArena,
        ScenarioOutcome, ScenarioTrace, StoppedBy,
    };
    pub use crate::registry;
    pub use crate::spec::{
        ChurnSpec, CrashSpec, EdgeChurnSpec, EnvironmentSpec, InjectPattern, InjectionEntry,
        InjectionSpec, LossBurstSpec, ProtocolSpec, Scenario, ScenarioError, StartPlacement,
        StopRule, TopologySpec,
    };
    pub use crate::stats::{summarize, SummaryStats};
    pub use crate::sweep::{
        CellResult, CiStopRule, RepPolicy, StoppedByCounts, SweepReport, SweepRunner, SweepSpec,
    };
}
