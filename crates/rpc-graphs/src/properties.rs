//! Structural graph properties used by the analysis and the experiments:
//! connectivity, degree statistics, BFS distances, local neighbourhood trees.

use std::collections::VecDeque;

use crate::csr::{Graph, NodeId};

/// Summary statistics of the degree sequence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree `2m/n`.
    pub mean: f64,
    /// Population variance of the degree sequence.
    pub variance: f64,
}

/// Computes [`DegreeStats`] for a graph. Returns zeros for the empty graph.
pub fn degree_stats(graph: &Graph) -> DegreeStats {
    let n = graph.num_nodes();
    if n == 0 {
        return DegreeStats { min: 0, max: 0, mean: 0.0, variance: 0.0 };
    }
    let degrees: Vec<usize> = graph.nodes().map(|v| graph.degree(v)).collect();
    let min = *degrees.iter().min().unwrap();
    let max = *degrees.iter().max().unwrap();
    let mean = degrees.iter().sum::<usize>() as f64 / n as f64;
    let variance = degrees.iter().map(|&d| (d as f64 - mean).powi(2)).sum::<f64>() / n as f64;
    DegreeStats { min, max, mean, variance }
}

/// Breadth-first distances from `source`; `None` marks unreachable nodes.
pub fn bfs_distances(graph: &Graph, source: NodeId) -> Vec<Option<u32>> {
    let n = graph.num_nodes();
    let mut dist: Vec<Option<u32>> = vec![None; n];
    if (source as usize) >= n {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[source as usize] = Some(0);
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize].unwrap();
        for u in graph.neighbors(v).iter() {
            if dist[u as usize].is_none() {
                dist[u as usize] = Some(dv + 1);
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Assigns every node a component id in `0..k` and returns `(ids, k)`.
pub fn connected_components(graph: &Graph) -> (Vec<usize>, usize) {
    let n = graph.num_nodes();
    let mut component = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if component[start] != usize::MAX {
            continue;
        }
        component[start] = next;
        queue.push_back(start as NodeId);
        while let Some(v) = queue.pop_front() {
            for u in graph.neighbors(v).iter() {
                if component[u as usize] == usize::MAX {
                    component[u as usize] = next;
                    queue.push_back(u);
                }
            }
        }
        next += 1;
    }
    (component, next)
}

/// Whether the graph is connected. The empty graph and single-node graph are
/// considered connected.
pub fn is_connected(graph: &Graph) -> bool {
    if graph.num_nodes() <= 1 {
        return true;
    }
    connected_components(graph).1 == 1
}

/// Lower bound on the diameter obtained with a double BFS sweep (exact on
/// trees, a good estimate on expanders). Returns `None` for disconnected or
/// empty graphs.
pub fn diameter_estimate(graph: &Graph) -> Option<u32> {
    if graph.num_nodes() == 0 || !is_connected(graph) {
        return None;
    }
    let first = bfs_distances(graph, 0);
    let (far, _) =
        first.iter().enumerate().filter_map(|(v, d)| d.map(|d| (v, d))).max_by_key(|&(_, d)| d)?;
    let second = bfs_distances(graph, far as NodeId);
    second.iter().filter_map(|d| *d).max()
}

/// Number of nodes within distance `radius` of `v` (including `v` itself).
///
/// The proof of Lemma 6 reasons about the `O(log log n)`-neighbourhood of a
/// vertex being (pseudo-)tree-like; this helper supports empirical checks of
/// that structure.
pub fn ball_size(graph: &Graph, v: NodeId, radius: u32) -> usize {
    let dist = bfs_distances(graph, v);
    dist.iter().filter(|d| matches!(d, Some(x) if *x <= radius)).count()
}

/// Number of edges inside the ball of the given radius around `v`.
///
/// Together with [`ball_size`] this measures how far the local neighbourhood
/// is from a tree: a tree on `k` nodes has exactly `k - 1` edges, and the
/// paper's "pseudo-tree" property (Lemma 4.7 of Berenbrink et al. 2014) allows
/// only a constant number of additional edges.
pub fn ball_edge_count(graph: &Graph, v: NodeId, radius: u32) -> usize {
    let dist = bfs_distances(graph, v);
    let in_ball = |u: NodeId| matches!(dist[u as usize], Some(x) if x <= radius);
    let mut count = 0usize;
    for u in graph.nodes() {
        if !in_ball(u) {
            continue;
        }
        for w in graph.neighbors(u).iter() {
            if w >= u && in_ball(w) {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erdos_renyi::ErdosRenyi;
    use crate::generator::GraphGenerator;
    use crate::topology::{hypercube, path, ring, star};

    #[test]
    fn degree_stats_on_star() {
        let stats = degree_stats(&star(11));
        assert_eq!(stats.min, 1);
        assert_eq!(stats.max, 10);
        assert!((stats.mean - 20.0 / 11.0).abs() < 1e-12);
        assert!(stats.variance > 0.0);
    }

    #[test]
    fn degree_stats_on_empty_graph() {
        let stats = degree_stats(&Graph::from_edges(0, &[]));
        assert_eq!(stats, DegreeStats { min: 0, max: 0, mean: 0.0, variance: 0.0 });
    }

    #[test]
    fn bfs_distances_on_path() {
        let d = bfs_distances(&path(6), 2);
        let got: Vec<_> = d.into_iter().map(|x| x.unwrap()).collect();
        assert_eq!(got, vec![2, 1, 0, 1, 2, 3]);
    }

    #[test]
    fn bfs_marks_unreachable_nodes() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![Some(0), Some(1), None, None]);
    }

    #[test]
    fn connected_components_counts_components() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let (ids, k) = connected_components(&g);
        assert_eq!(k, 3);
        assert_eq!(ids[0], ids[1]);
        assert_eq!(ids[1], ids[2]);
        assert_eq!(ids[3], ids[4]);
        assert_ne!(ids[0], ids[3]);
        assert_ne!(ids[5], ids[0]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn trivial_graphs_are_connected() {
        assert!(is_connected(&Graph::from_edges(0, &[])));
        assert!(is_connected(&Graph::from_edges(1, &[])));
    }

    #[test]
    fn diameter_of_known_topologies() {
        assert_eq!(diameter_estimate(&path(10)), Some(9));
        assert_eq!(diameter_estimate(&ring(10)), Some(5));
        assert_eq!(diameter_estimate(&hypercube(5)), Some(5));
        assert_eq!(diameter_estimate(&Graph::from_edges(3, &[(0, 1)])), None);
    }

    #[test]
    fn random_graph_diameter_is_logarithmic() {
        let g = ErdosRenyi::paper_density(2048).generate(1);
        let diam = diameter_estimate(&g).unwrap();
        assert!((2..=6).contains(&diam), "diameter {diam} implausible for G(n, log^2 n/n)");
    }

    #[test]
    fn ball_size_on_ring() {
        let g = ring(20);
        assert_eq!(ball_size(&g, 0, 0), 1);
        assert_eq!(ball_size(&g, 0, 1), 3);
        assert_eq!(ball_size(&g, 0, 3), 7);
        assert_eq!(ball_size(&g, 0, 10), 20);
    }

    #[test]
    fn ball_edge_count_detects_tree_like_balls() {
        let g = path(10);
        let nodes = ball_size(&g, 5, 2);
        let edges = ball_edge_count(&g, 5, 2);
        assert_eq!(nodes, 5);
        assert_eq!(edges, nodes - 1, "a path ball is a tree");
        // On a ring of length 6 the radius-3 ball is the whole cycle: one
        // extra edge beyond a tree.
        let c = ring(6);
        assert_eq!(ball_edge_count(&c, 0, 3), ball_size(&c, 0, 3));
    }

    #[test]
    fn sparse_random_graph_balls_are_nearly_trees() {
        // Empirical check of the pseudo-tree property used by Lemma 6: for
        // d^(2r) = o(n) the radius-r neighbourhood has at most a constant
        // number of edges more than a spanning tree (expected excess
        // ~ d^(2r) / n).
        let g = ErdosRenyi::with_expected_degree(1 << 14, 8.0).generate(5);
        let radius = 2;
        for v in [0u32, 17, 1234, 4000] {
            let nodes = ball_size(&g, v, radius);
            let edges = ball_edge_count(&g, v, radius);
            assert!(edges + 1 >= nodes, "ball must be connected");
            assert!(edges < nodes + 6, "ball has too many extra edges: {edges} vs {nodes} nodes");
        }
    }
}
