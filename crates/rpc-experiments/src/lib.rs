//! # rpc-experiments
//!
//! The experiment harness that regenerates every figure and table of the
//! paper's evaluation (Section 5 and Appendix C), plus shape checks for the
//! analytical results. Each simulation experiment is a thin pair of
//! functions: a `spec(...)` building a declarative
//! [`rpc_scenarios::SweepSpec`] (which axes, which cells, which repetition
//! policy) and a `table(...)` post-processing the executed
//! [`rpc_scenarios::SweepReport`] into a [`report::Table`] renderable as
//! Markdown or CSV. All grid iteration, seeding, adaptive CI stopping,
//! threading and caching lives in the sweep engine:
//!
//! | paper artefact | module | CLI subcommand |
//! |---|---|---|
//! | Table 1 (simulation constants) | [`table1`] | `table1` |
//! | Figure 1 (messages/node, 3 algorithms) | [`fig1`] | `fig1` |
//! | Figure 2 (robustness ratio, large n) | [`robustness`] | `fig2` |
//! | Figure 3 (robustness ratio, 2 sizes) | [`robustness`] | `fig3` |
//! | Figure 4 (fast-gossiping detail) | [`fig4`] | `fig4` |
//! | Figure 5 (loss thresholds) | [`robustness`] | `fig5` |
//! | Theorems 1 & 2 shape check | [`theory_check`] | `theory` |
//! | Broadcast-vs-gossip motivation | [`separation`] | `separation` |
//! | Parameter-tuning ablation (abstract's tuning claim) | [`ablation`] | `ablation` |
//! | Per-phase packet breakdown | [`phases`] | `phases` |
//! | Scenario registry (churn/loss/crash workloads) | [`scenario`] | `scenario` |
//!
//! The `sweep` subcommand runs the experiments in one go, sharing a cell
//! cache so interrupted runs resume where they stopped. [`table1`] samples no
//! randomness (constants only) and rides along. [`separation`] is a sweep
//! spec too, but runs only under its own subcommand and `all` (= `sweep` +
//! `separation`), so `sweep` keeps its quick-scale cost.
//!
//! The default sizes are scaled to laptop hardware (the paper used four
//! 64-core machines with 512 GB–1 TB of RAM and graphs up to 10⁶ nodes).
//! Every experiment takes the sizes as parameters, so larger runs only
//! require different CLI flags.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod fig1;
pub mod fig4;
pub mod opts;
pub mod phases;
pub mod profile;
pub mod report;
pub mod robustness;
pub mod scenario;
pub mod separation;
pub mod table1;
pub mod theory_check;

pub use opts::RunOpts;
pub use report::Table;

/// Scale of an experiment run: how large the graphs are and how many
/// repetitions are averaged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Smallest graph size of size sweeps.
    pub min_n: usize,
    /// Largest graph size of size sweeps.
    pub max_n: usize,
    /// Repetitions per measured point.
    pub repetitions: usize,
    /// Base seed for all runs.
    pub seed: u64,
}

impl Scale {
    /// Quick scale for CI and smoke tests (seconds).
    pub fn quick() -> Self {
        Self { min_n: 1 << 10, max_n: 1 << 12, repetitions: 1, seed: 1 }
    }

    /// Default laptop scale (about a minute per experiment).
    pub fn default_scale() -> Self {
        Self { min_n: 1 << 10, max_n: 1 << 15, repetitions: 3, seed: 1 }
    }

    /// Large scale approximating the paper's sweep as far as memory allows.
    pub fn large() -> Self {
        Self { min_n: 1 << 10, max_n: 1 << 17, repetitions: 3, seed: 1 }
    }
}

/// Commonly used items.
pub mod prelude {
    pub use crate::opts::RunOpts;
    pub use crate::report::Table;
    pub use crate::Scale;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::quick().max_n <= Scale::default_scale().max_n);
        assert!(Scale::default_scale().max_n <= Scale::large().max_n);
        assert!(Scale::quick().repetitions >= 1);
    }
}
