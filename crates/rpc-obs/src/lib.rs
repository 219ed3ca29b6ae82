//! # rpc-obs
//!
//! The observability layer of the gossip-density workspace: a zero-cost
//! [`Observer`] trait, a typed event taxonomy ([`ObsEvent`]), and two sinks —
//! a JSON-lines [`TraceWriter`] and a live stderr [`ProgressReporter`].
//!
//! ## The zero-cost contract
//!
//! Everything is generic and monomorphized: code instrumented with
//! `O: Observer` compiles, for `O = `[`NoopObserver`], to exactly the code it
//! would be without the instrumentation. [`NoopObserver::record`] is an empty
//! inlined body and [`Observer::ENABLED`] is `false`, so event construction
//! behind an `if O::ENABLED` guard is dead code the optimizer removes. The
//! `obs_overhead` benchmark in `rpc-bench` pins this A/B (no-op observed vs.
//! plain) to within noise, and CI fails if the no-op path regresses the round
//! loop by more than 2%.
//!
//! ## The determinism rule
//!
//! Observers must never feed information *into* the simulation: engines and
//! runners emit events out of band and read nothing back. In particular no
//! wall-clock value is ever read inside a seeded code path — timing lives in
//! the sinks (this crate) and in the sweep coordinator/workers *around* the
//! deterministic work, so an observed run is bit-identical to an unobserved
//! one (property-pinned in `rpc-scenarios/tests/obs_props.rs`).
//!
//! This crate depends on nothing, so every layer of the workspace (graphs,
//! engine, scenarios, experiments, bench) can share its plain-data types:
//! [`DeliveryCore`], [`CoreRounds`], [`DispatchRecord`], [`PoolStats`],
//! [`ReuseStats`].

pub mod event;
pub mod json;
pub mod progress;
pub mod stats;
pub mod trace;

pub use event::{NoopObserver, ObsEvent, Observer};
pub use json::{escape_into, parse_object, JsonValue};
pub use progress::ProgressReporter;
pub use stats::{CoreRounds, DeliveryCore, DispatchRecord, PoolStats, ReuseStats};
pub use trace::TraceWriter;
