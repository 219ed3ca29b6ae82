//! The implicit complete graph against `K_n` built from explicit adjacency
//! lists, the oracle: equal queries, equal draws from every selection
//! primitive, clean arena reuse, and a footprint that does not grow with
//! `n(n − 1)`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rpc_graphs::{CompleteGraph, ErdosRenyi, Graph, GraphArena, GraphGenerator, NodeId};

const SIZES: [usize; 6] = [1, 2, 3, 64, 65, 130];

/// `K_n` through explicit adjacency lists.
fn materialized(n: usize) -> Graph {
    let nodes = 0..n as NodeId;
    Graph::from_adjacency(
        nodes.clone().map(|v| nodes.clone().filter(|&u| u != v).collect()).collect(),
    )
}

/// A packed LSB-first bitset over `bits` entries, each set with probability
/// `density`.
fn random_mask(bits: usize, density: f64, rng: &mut SmallRng) -> Vec<u64> {
    let mut words = vec![0u64; bits.div_ceil(64)];
    for i in 0..bits {
        if rng.gen_bool(density) {
            words[i / 64] |= 1 << (i % 64);
        }
    }
    words
}

#[test]
fn implicit_complete_graph_answers_every_query_like_the_materialized_one() {
    for n in [0].into_iter().chain(SIZES) {
        let oracle = materialized(n);
        let implicit = CompleteGraph::new(n).generate(17);
        assert_eq!(implicit, oracle, "n={n}");
        assert_eq!(oracle, implicit, "n={n}");
        assert_eq!(implicit.num_nodes(), oracle.num_nodes());
        assert_eq!(implicit.num_edges(), oracle.num_edges());
        assert_eq!(implicit.num_edge_slots(), oracle.num_edge_slots());
        assert_eq!(implicit.average_degree().to_bits(), oracle.average_degree().to_bits());
        assert_eq!(implicit.min_degree(), oracle.min_degree());
        assert_eq!(implicit.max_degree(), oracle.max_degree());
        assert_eq!(implicit.num_self_loops(), 0);
        assert_eq!(implicit.num_parallel_edges(), 0);
        assert!(implicit.edges().eq(oracle.edges()), "n={n}");
        for v in implicit.nodes() {
            let (a, b) = (implicit.neighbors(v), oracle.neighbors(v));
            assert_eq!(implicit.degree(v), oracle.degree(v));
            assert_eq!(implicit.edge_slot_range(v), oracle.edge_slot_range(v));
            assert_eq!((a.len(), a.is_empty(), a.first()), (b.len(), b.is_empty(), b.first()));
            assert!(a.iter().eq(b.iter()), "n={n} v={v}");
            for i in 0..a.len() {
                assert_eq!(a.get(i), b.get(i), "n={n} v={v} i={i}");
            }
            for u in 0..=n as NodeId {
                assert_eq!(a.contains(u), b.contains(u), "n={n} v={v} u={u}");
                assert_eq!(implicit.has_edge(v, u), oracle.has_edge(v, u));
            }
        }
    }
}

/// Calls every selection primitive at `v` from one generator seeded with
/// `seed`, then reads one more value, so a primitive that consumed a
/// different number of draws shows up in every later entry.
fn draws(
    g: &Graph,
    v: NodeId,
    seed: u64,
    avoid: &[NodeId],
    node_mask: &[u64],
    edge_mask: &[u64],
) -> Vec<Option<u64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut picks = Vec::new();
    for _ in 0..3 {
        picks.push(g.random_neighbor(v, &mut rng));
        picks.push(g.random_neighbor_avoiding(v, avoid, &mut rng));
        picks.push(g.random_neighbor_masked(v, node_mask, &mut rng));
        picks.push(g.random_neighbor_masked_avoiding(v, avoid, node_mask, &mut rng));
        for nodes in [None, Some(node_mask)] {
            picks.push(g.random_neighbor_edge_masked(v, nodes, edge_mask, &mut rng));
            picks
                .push(g.random_neighbor_edge_masked_avoiding(v, avoid, nodes, edge_mask, &mut rng));
        }
    }
    let mut out: Vec<Option<u64>> = picks.into_iter().map(|u| u.map(u64::from)).collect();
    out.push(Some(rng.gen_range(0..u64::MAX)));
    out
}

#[test]
fn every_selection_primitive_draws_like_the_materialized_graph() {
    // Densities from "nothing eligible" through the exact count-and-pick
    // fallback to "everything eligible".
    const DENSITIES: [f64; 6] = [0.0, 0.02, 0.1, 0.5, 0.9, 1.0];
    for n in SIZES {
        let oracle = materialized(n);
        let implicit = CompleteGraph::new(n).generate(0);
        for seed in 0..48u64 {
            let mut setup = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9) ^ n as u64);
            let node_density = DENSITIES[seed as usize % DENSITIES.len()];
            let edge_density = DENSITIES[(seed as usize / DENSITIES.len()) % DENSITIES.len()];
            let node_mask = random_mask(n, node_density, &mut setup);
            let edge_mask = random_mask(oracle.num_edge_slots(), edge_density, &mut setup);
            let avoid: Vec<NodeId> =
                (0..setup.gen_range(0..=4usize)).map(|_| setup.gen_range(0..n as NodeId)).collect();
            for v in 0..n as NodeId {
                let draw_seed = seed << 8 | u64::from(v);
                assert_eq!(
                    draws(&implicit, v, draw_seed, &avoid, &node_mask, &edge_mask),
                    draws(&oracle, v, draw_seed, &avoid, &node_mask, &edge_mask),
                    "n={n} seed={seed} v={v} avoid={avoid:?}"
                );
            }
        }
    }
}

#[test]
fn a_sparse_build_after_a_complete_one_equals_a_fresh_build() {
    let mut arena = GraphArena::new();
    for n in [64usize, 130] {
        let sparse = ErdosRenyi::paper_density(n);
        for seed in 0..3u64 {
            CompleteGraph::new(n).generate_into(seed, &mut arena);
            assert_eq!(arena.graph(), &materialized(n));
            sparse.generate_into(seed, &mut arena);
            let fresh = sparse.generate(seed);
            assert_eq!(arena.graph(), &fresh, "n={n} seed={seed}");
            assert_eq!(arena.graph().num_edge_slots(), fresh.num_edge_slots());
            for v in fresh.nodes() {
                assert_eq!(arena.graph().edge_slot_range(v), fresh.edge_slot_range(v));
            }
        }
    }
}

#[test]
fn a_million_node_complete_graph_is_built_and_sampled_without_its_edge_lists() {
    // K_{2^20} as explicit lists would need 4 TiB of neighbor ids.
    let n: usize = 1 << 20;
    let mut arena = GraphArena::new();
    CompleteGraph::new(n).generate_into(1, &mut arena);
    let g = arena.graph();
    assert_eq!(g.num_nodes(), n);
    assert_eq!(g.num_edge_slots(), n * (n - 1));
    let mut rng = SmallRng::seed_from_u64(5);
    for _ in 0..10_000 {
        let v = rng.gen_range(0..n as NodeId);
        let u = g.random_neighbor(v, &mut rng).expect("K_n has no isolated node");
        assert!(u != v && (u as usize) < n, "{v} drew {u}");
        assert_eq!(g.degree(v), n - 1);
        let start = v as usize * (n - 1);
        assert_eq!(g.edge_slot_range(v), start..start + n - 1);
    }
}
