//! The broadcast-vs-gossip density contrast that motivates the paper.
//!
//! Karp et al.'s push-pull broadcasting needs only `O(n log log n)`
//! transmissions in complete graphs, but this cannot be achieved in sparse
//! random graphs (Elsässer, SPAA'06) — broadcasting *is* sensitive to density.
//! The paper's main message is that gossiping is *not*: fast-gossiping matches
//! its complete-graph message complexity on `G(n, p)` with
//! `p ≥ log^{2+ε} n / n`.
//!
//! This experiment measures both, per topology, so the contrast can be read
//! off one table: the broadcast ratio (random / complete) grows with `n`,
//! while the gossiping ratio stays near 1.
//!
//! The experiment is a [`SweepSpec`] grid `n × protocol × topology`: the
//! push-pull broadcast of one rumor injected at node 0 in round 0, and
//! fast-gossiping, each on the complete graph and on `G(n, log² n / n)`. The
//! adaptive CI stop watches `packets_per_node` — rumor transmissions per node
//! for the broadcast — and the table pivots each size's four cells into one
//! row.

use rpc_scenarios::{
    AxisPoint, CellJob, InjectionEntry, ProtocolSpec, RepPolicy, Scenario, SweepReport, SweepSpec,
    TopologySpec,
};

use crate::report::{fmt3, Table};

/// The two protocols of the contrast, as `protocol` axis values.
pub const PROTOCOLS: [&str; 2] = ["broadcast-push-pull", "fast-gossiping"];

/// The two topologies, as `topology` axis values.
pub const TOPOLOGIES: [&str; 2] = ["complete", "er-paper"];

/// Builds the scenario cell for one `(n, protocol, topology)` grid point.
fn cell(point: &AxisPoint) -> CellJob {
    let n: usize = point.parse("n");
    let topology = match point.get("topology") {
        "complete" => TopologySpec::Complete { n },
        _ => TopologySpec::ErdosRenyiPaper { n },
    };
    let builder = Scenario::builder("separation", topology);
    let builder = match point.get("protocol") {
        "broadcast-push-pull" => builder
            .protocol(ProtocolSpec::BroadcastPushPull)
            .inject_explicit(vec![InjectionEntry { round: 0, source: 0 }]),
        _ => builder.protocol(ProtocolSpec::FastGossiping),
    };
    CellJob::scenario(builder.build().expect("separation scenario is valid"))
}

/// The separation sweep: every size crossed with both protocols and both
/// topologies.
pub fn spec(sizes: &[usize], seed: u64, policy: RepPolicy) -> SweepSpec {
    SweepSpec::grid("separation", seed, policy)
        .axis("n", sizes.iter().copied())
        .axis("protocol", PROTOCOLS)
        .axis("topology", TOPOLOGIES)
        .cells(|point| Some(cell(point)))
        .expect("separation grid is well-formed")
}

/// Renders the sweep report as the separation table: one row per size with
/// the four cells' mean `packets_per_node` and the random/complete ratios.
pub fn table(report: &SweepReport) -> Table {
    let mut table = Table::new(
        "Broadcast vs gossip — per-node overhead on complete vs random graphs",
        &[
            "n",
            "broadcast_complete",
            "broadcast_random",
            "broadcast_ratio",
            "gossip_complete",
            "gossip_random",
            "gossip_ratio",
        ],
    );
    let mut sizes: Vec<&str> = report.cells.iter().filter_map(|c| c.axis("n")).collect();
    sizes.dedup();
    for n in sizes {
        let mean = |protocol: &str, topology: &str| {
            report
                .cells
                .iter()
                .find(|c| {
                    c.axis("n") == Some(n)
                        && c.axis("protocol") == Some(protocol)
                        && c.axis("topology") == Some(topology)
                })
                .and_then(|c| c.mean("packets_per_node"))
                .unwrap_or_else(|| panic!("no {protocol} cell on {topology} at n = {n}"))
        };
        let [broadcast, gossip] = PROTOCOLS;
        let [complete, random] = TOPOLOGIES;
        let (bc, br) = (mean(broadcast, complete), mean(broadcast, random));
        let (gc, gr) = (mean(gossip, complete), mean(gossip, random));
        table.push_row(vec![
            n.to_string(),
            fmt3(bc),
            fmt3(br),
            fmt3(br / bc),
            fmt3(gc),
            fmt3(gr),
            fmt3(gr / gc),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpc_scenarios::SweepRunner;

    #[test]
    fn gossip_ratio_is_close_to_one() {
        let report = SweepRunner::new().run(&spec(&[512], 4, RepPolicy::fixed(1)));
        assert_eq!(report.cells.len(), 4);
        assert!(report.cells.iter().all(|c| c.mean("completed") == Some(1.0)));
        let t = table(&report);
        assert_eq!(t.len(), 1);
        let value = |column: &str| -> f64 {
            let i = t.columns.iter().position(|c| c == column).expect("known column");
            t.rows[0][i].parse().expect("numeric cell")
        };
        let gossip_ratio = value("gossip_ratio");
        assert!(
            (0.5..=2.0).contains(&gossip_ratio),
            "gossiping should not separate by density, ratio {gossip_ratio:.2}"
        );
        assert!(value("broadcast_complete") > 0.0 && value("broadcast_random") > 0.0);
    }

    #[test]
    fn csv_is_identical_across_thread_counts() {
        let s = spec(&[256, 512], 7, RepPolicy::fixed(2));
        let one = table(&SweepRunner::new().with_threads(1).run(&s)).to_csv();
        let two = table(&SweepRunner::new().with_threads(2).run(&s)).to_csv();
        assert_eq!(one, two, "separation CSV must not depend on --threads");
    }
}
