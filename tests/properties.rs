//! Property-based tests (proptest) on the core data structures and the
//! invariants the paper's analysis relies on.

use gossip_density::engine::{
    sample_failures, MessageSet, Simulation, Transfer, UnpackedSimulation,
};
use gossip_density::graphs::prelude::*;
use gossip_density::graphs::topology;
use gossip_density::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Union is monotone and idempotent, and the reported "newly added" count
    /// matches the change in cardinality.
    #[test]
    fn message_set_union_invariants(
        universe in 1usize..300,
        a_ids in prop::collection::vec(0u32..300, 0..40),
        b_ids in prop::collection::vec(0u32..300, 0..40),
    ) {
        let mut a = MessageSet::empty(universe);
        for id in a_ids.iter().filter(|&&id| (id as usize) < universe) {
            a.insert(*id);
        }
        let mut b = MessageSet::empty(universe);
        for id in b_ids.iter().filter(|&&id| (id as usize) < universe) {
            b.insert(*id);
        }
        let before = a.len();
        let added = a.union_from(&b);
        prop_assert_eq!(a.len(), before + added);
        // Every element of b is now in a.
        for id in b.iter() {
            prop_assert!(a.contains(id));
        }
        // Idempotence.
        prop_assert_eq!(a.union_from(&b), 0);
        // Monotonicity: nothing was removed.
        prop_assert!(a.len() >= before);
    }

    /// difference_len(a, b) counts exactly the elements of a missing from b.
    #[test]
    fn message_set_difference_matches_naive_count(
        ids_a in prop::collection::vec(0u32..200, 0..50),
        ids_b in prop::collection::vec(0u32..200, 0..50),
    ) {
        let universe = 200;
        let mut a = MessageSet::empty(universe);
        let mut b = MessageSet::empty(universe);
        for &id in &ids_a { a.insert(id); }
        for &id in &ids_b { b.insert(id); }
        let naive = a.iter().filter(|&id| !b.contains(id)).count();
        prop_assert_eq!(a.difference_len(&b), naive);
    }

    /// The Erdős–Rényi generator produces simple graphs with symmetric
    /// adjacency and the degree sum identity.
    #[test]
    fn erdos_renyi_graphs_are_simple_and_symmetric(
        n in 2usize..200,
        p in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        let g = ErdosRenyi::new(n, p).generate(seed);
        prop_assert_eq!(g.num_nodes(), n);
        prop_assert_eq!(g.num_self_loops(), 0);
        prop_assert_eq!(g.num_parallel_edges(), 0);
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
        // Symmetry: u in N(v) iff v in N(u).
        for v in g.nodes() {
            for u in g.neighbors(v).iter() {
                prop_assert!(g.neighbors(u).contains(v));
            }
        }
    }

    /// The configuration model preserves the prescribed degree sequence
    /// exactly (counting loops twice).
    #[test]
    fn configuration_model_preserves_degrees(
        n in 2usize..120,
        half_d in 1usize..6,
        seed in any::<u64>(),
    ) {
        let d = 2 * half_d;
        let g = ConfigurationModel::new(n, d).generate(seed);
        for v in g.nodes() {
            prop_assert_eq!(g.degree(v), d);
        }
    }

    /// Failure sampling returns distinct, in-range nodes of the requested count.
    #[test]
    fn failure_samples_are_distinct(
        n in 1usize..500,
        frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let count = ((n as f64) * frac) as usize;
        let mut rng = SmallRng::seed_from_u64(seed);
        let sample = sample_failures(n, count, &mut rng);
        prop_assert_eq!(sample.len(), count);
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), count);
        prop_assert!(sample.iter().all(|&v| (v as usize) < n));
    }

    /// Knowledge in a simulation only ever grows, and the deferred delivery
    /// semantics never lets a message cross more than one hop per step.
    #[test]
    fn simulation_knowledge_is_monotone(
        n in 2usize..64,
        steps in 1usize..8,
        seed in any::<u64>(),
    ) {
        let g = CompleteGraph::new(n).generate(0);
        let mut sim = Simulation::new(&g, seed);
        let mut previous: Vec<usize> = (0..n).map(|v| sim.num_known(v as u32)).collect();
        for _ in 0..steps {
            let mut transfers = Vec::new();
            for v in 0..n as u32 {
                if let Some(u) = sim.open_channel(v) {
                    transfers.push(Transfer::new(v, u));
                }
            }
            sim.deliver(&transfers);
            for (v, prev) in previous.iter_mut().enumerate() {
                let now = sim.num_known(v as u32);
                prop_assert!(now >= *prev, "knowledge shrank at node {v}");
                // One push per node per step: at most n-1 new messages, and a
                // node can learn at most as many messages as it has in-neighbours
                // this step — certainly no more than n.
                prop_assert!(now <= n);
                *prev = now;
            }
        }
    }

    /// The packed engine and the unpacked oracle deliver with the same
    /// begin-of-step semantics: applying every ring edge each step, both hold
    /// identical states after every step, and both reach the all-informed
    /// fixpoint after exactly the ring's diameter of `n / 2` steps — one hop
    /// per step.
    #[test]
    fn delivery_semantics_agree_at_fixpoint(n in 3usize..32, seed in any::<u64>()) {
        let g = topology::ring(n);
        let mut transfers = Vec::new();
        for v in 0..n as u32 {
            for u in g.neighbors(v).iter() {
                transfers.push(Transfer::new(v, u));
            }
        }
        let mut packed = Simulation::new(&g, seed);
        let mut oracle = UnpackedSimulation::new(&g, seed);
        for step in 0..n / 2 {
            prop_assert!(!packed.gossip_complete(), "complete after {} of {} steps", step, n / 2);
            packed.deliver(&transfers);
            oracle.deliver(&transfers);
            for v in 0..n as u32 {
                prop_assert_eq!(packed.state(v), oracle.state(v));
            }
        }
        for v in 0..n as u32 {
            prop_assert!(packed.is_fully_informed(v));
            prop_assert!(oracle.is_fully_informed(v));
        }
    }

    /// Push-pull gossiping completes on every connected test topology and its
    /// exchange count per node equals the number of rounds.
    #[test]
    fn push_pull_completes_on_connected_topologies(dim in 2u32..7, seed in any::<u64>()) {
        let g = topology::hypercube(dim);
        let outcome = PushPullGossip::default().run(&g, seed);
        prop_assert!(outcome.completed());
        let per_node = outcome.messages_per_node(Accounting::PerChannelExchange);
        prop_assert!((per_node - outcome.rounds() as f64).abs() < 1e-9);
    }

    /// The gossip outcome's packet totals are consistent with the per-phase
    /// snapshots for fast-gossiping.
    #[test]
    fn fast_gossiping_phase_packets_sum_to_total(seed in any::<u64>()) {
        let n = 256;
        let g = ErdosRenyi::paper_density(n).generate(seed);
        let outcome = FastGossiping::paper(n).run(&g, seed);
        let total: u64 = ["phase1-distribution", "phase2-random-walks", "phase3-broadcast"]
            .iter()
            .map(|label| outcome.packets_in_phase(label).unwrap_or(0))
            .sum();
        prop_assert_eq!(total, outcome.total_packets());
    }
}
