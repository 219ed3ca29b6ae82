//! Parameter ablations for Algorithm 1 (fast-gossiping).
//!
//! The paper's abstract: "our simulations illustrate that by tuning the
//! parameters of our algorithms, we can significantly reduce the communication
//! overhead compared to the traditional push-pull approach". This module makes
//! that tuning measurable: a sweep grid over the random-walk probability
//! (as multiples of the Table 1 value `1/log n`) and the per-round broadcast
//! length, each cell a plain fast-gossiping scenario whose `fast-tuning` key
//! carries the grid point.

use rpc_scenarios::{
    CellJob, ProtocolSpec, RepPolicy, Scenario, SweepReport, SweepSpec, TopologySpec,
};

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
            let topology = TopologySpec::ErdosRenyiPaper { n: point.parse("n") };
            let scenario = Scenario::builder("ablation", topology)
                .protocol(ProtocolSpec::FastGossiping)
                .fast_tuning(point.parse("walk_prob_factor"), point.parse("broadcast_steps"))
                .build()
                .expect("ablation values must be a valid fast-tuning");
            Some(CellJob::scenario(scenario))
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
}
