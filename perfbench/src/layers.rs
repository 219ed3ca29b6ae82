//! Which end-to-end metric, on which workload, each per-layer metric should
//! move — written down before any change claims a gain. The traced run prints
//! it beside each per-layer value.

/// (per-layer metric, what a change to that layer should move).
pub const MOVES: [(&str, &str); 33] = [
    ("graphs.er_gen_ms", "op_cost_p50 and op_cost_p90 on pushpull-er10k"),
    ("graphs.regular_gen_ms", "op_cost_p50 on sweep-quick only"),
    ("engine.checkout_ms", "op_cost_p50 on pushpull-er10k"),
    ("engine.channel_ms_per_round", "rounds_per_ref on pushpull-er10k"),
    (
        "engine.deliver_ms_per_round",
        "rounds_per_ref and op_cost_p50 on pushpull-er10k; not sweep-quick",
    ),
    ("engine.deliver_gb_per_s", "rounds_per_ref on pushpull-er10k"),
    (
        "engine.learned_per_packet",
        "rounds_per_ref on pushpull-er10k (exact ratio of useful delivery work)",
    ),
    (
        "engine.scalar_rounds",
        "nothing itself: an exact count naming the workloads a scalar-core change can move",
    ),
    (
        "engine.eager_rounds",
        "nothing itself: an exact count naming the workloads an eager-core change can move",
    ),
    (
        "engine.batch_rounds",
        "nothing itself: an exact count naming the workloads a batch-core change can move",
    ),
    ("engine.pool_fresh_ratio", "setup_s on pushpull-er10k"),
    ("scenarios.exec_ms_per_round", "op_cost_p50 on pushpull-er10k"),
    ("sweep.rep_ms.fig1", "op_cost_p50 on sweep-quick"),
    ("sweep.rep_ms.fig2", "op_cost_p50 on sweep-quick"),
    ("sweep.rep_ms.fig3", "op_cost_p50 on sweep-quick"),
    ("sweep.rep_ms.fig4", "op_cost_p50 on sweep-quick"),
    ("sweep.rep_ms.fig5", "op_cost_p50 on sweep-quick"),
    ("sweep.rep_ms.theory", "op_cost_p50 on sweep-quick"),
    ("sweep.rep_ms.ablation", "op_cost_p50 on sweep-quick"),
    ("sweep.rep_ms.phases", "op_cost_p50 on sweep-quick"),
    ("sweep.rep_ms.scenario", "op_cost_p50 on sweep-quick"),
    ("sweep.reps_executed", "op_cost_p50 on sweep-quick"),
    ("sweep.reps_kept", "op_cost_p50 on sweep-quick"),
    ("sweep.rep_yield", "op_cost_p50 on sweep-quick"),
    ("experiments.non_rep_ms", "op_cost_p50 on sweep-quick"),
    ("runtime.round_ms_p50", "op_cost_p50 and rounds_per_ref on cluster-nemesis"),
    ("runtime.round_ms_p90", "op_cost_p90 on cluster-nemesis"),
    ("runtime.replica_est_ms_per_round", "rounds_per_ref on cluster-nemesis"),
    ("runtime.actor_build_ms", "op_cost_p50 on cluster-nemesis"),
    ("runtime.retries_per_round", "op_cost_p50 on cluster-nemesis"),
    ("runtime.quorum_advances", "op_cost_p50 on cluster-nemesis"),
    ("runtime.faults", "op_cost_p50 on cluster-nemesis"),
    ("obs.trace_overhead_pct", "nothing end to end: traced minus untraced median op wall time"),
];

/// What per-layer metric `name` should move, if it is one.
pub fn moves(name: &str) -> Option<&'static str> {
    MOVES.iter().find(|(n, _)| *n == name).map(|(_, m)| *m)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one top-level array of `BENCHMARK.json`.
    fn names(json: &str, section: &str) -> Vec<String> {
        let start = json.find(&format!("\"{section}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is an array")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_per_layer_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = names(&json, "per_layer");
        let ours: Vec<String> = MOVES.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(listed, ours);
        assert_eq!(
            names(&json, "end_to_end"),
            ["op_cost_p50", "op_cost_p90", "rounds_per_ref", "setup_s", "peak_rss_mb"]
        );
    }
}
