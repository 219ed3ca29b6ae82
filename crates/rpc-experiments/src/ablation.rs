//! Parameter ablations for Algorithm 1 (fast-gossiping).
//!
//! The paper's abstract: "our simulations illustrate that by tuning the
//! parameters of our algorithms, we can significantly reduce the communication
//! overhead compared to the traditional push-pull approach". This module makes
//! that tuning measurable: a sweep grid over the random-walk probability
//! (as multiples of the Table 1 value `1/log n`) and the per-round broadcast
//! length, each cell a [`CellJob::FastTuned`] run.

use rpc_scenarios::{CellJob, RepPolicy, SweepReport, SweepSpec};

use crate::report::{sweep_table, Table};

/// The ablation sweep: `walk_prob_factor × broadcast_steps` at one size.
pub fn spec(
    n: usize,
    probability_factors: &[f64],
    broadcast_steps: &[usize],
    seed: u64,
    policy: RepPolicy,
) -> SweepSpec {
    SweepSpec::grid("ablation", seed, policy)
        .axis("n", [n])
        .axis("walk_prob_factor", probability_factors.iter().copied())
        .axis("broadcast_steps", broadcast_steps.iter().copied())
        .cells(|point| {
            Some(CellJob::FastTuned {
                n: point.parse("n"),
                walk_probability_factor: point.parse("walk_prob_factor"),
                broadcast_steps: point.parse("broadcast_steps"),
            })
        })
        .expect("ablation grid is well-formed")
}

/// Renders the ablation sweep as a table.
pub fn table(report: &SweepReport) -> Table {
    sweep_table("Ablation — fast-gossiping parameter tuning", report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpc_scenarios::SweepRunner;

    #[test]
    fn sweep_produces_one_cell_per_combination() {
        let report =
            SweepRunner::new().run(&spec(256, &[0.5, 1.0], &[1, 2], 3, RepPolicy::fixed(1)));
        assert_eq!(report.cells.len(), 4);
        assert!(report.cells.iter().all(|c| c.mean("completed") == Some(1.0)));
        assert_eq!(table(&report).len(), 4);
    }

    #[test]
    fn walk_probability_sweep_always_completes_and_adds_walk_packets() {
        let report = SweepRunner::new().run(&spec(512, &[1.0, 4.0], &[2], 5, RepPolicy::fixed(2)));
        let get = |factor: &str| {
            report.cells.iter().find(|c| c.axis("walk_prob_factor") == Some(factor)).unwrap()
        };
        let base = get("1");
        let heavy = get("4");
        assert_eq!(base.mean("completed"), Some(1.0));
        assert_eq!(heavy.mean("completed"), Some(1.0));
        // More walks add walk packets, though a faster phase II can claw some
        // of that back in phase III — allow a generous margin.
        let (b, h) =
            (base.mean("packets_per_node").unwrap(), heavy.mean("packets_per_node").unwrap());
        assert!(h >= b * 0.75, "heavy {h:.2} vs base {b:.2}");
    }

    #[test]
    fn immediate_semantics_never_needs_more_rounds() {
        // A comparison of the engine's two delivery semantics on the Push-Pull
        // baseline — kept as a test-only oracle; the sweeps always use the
        // faithful deferred timing.
        use rpc_engine::{derive_seed, DeliverySemantics, Simulation};
        use rpc_gossip::prelude::*;
        use rpc_graphs::prelude::*;

        let n = 512;
        let generator = ErdosRenyi::paper_density(n);
        let mut totals = (0.0f64, 0.0f64);
        for i in 0..2u64 {
            let seed = derive_seed(7, 0, i);
            let graph = generator.generate(seed ^ (i << 32));
            for (idx, semantics) in
                [DeliverySemantics::Deferred, DeliverySemantics::Immediate].into_iter().enumerate()
            {
                let mut sim = Simulation::new(&graph, seed).with_semantics(semantics);
                let steps = run_driver(&mut PushPullDriver::new(10_000), &mut sim);
                if idx == 0 {
                    totals.0 += steps as f64;
                } else {
                    totals.1 += steps as f64;
                }
            }
        }
        assert!(totals.0 > 0.0 && totals.1 > 0.0);
        assert!(
            totals.1 <= totals.0 + 1e-9,
            "immediate ({}) should not be slower than deferred ({})",
            totals.1,
            totals.0
        );
    }
}
