//! Node-failure injection.
//!
//! The paper's robustness model (Section 4, Theorem 3 and the experiments in
//! Figures 2, 3 and 5): `f` nodes chosen uniformly at random fail; failures
//! are non-malicious — "a failed node does not communicate at all", and in
//! the simulation "these nodes simply do not store any incoming message and
//! refuse to transmit messages to other nodes". For the empirical robustness
//! study the nodes are deactivated between Phase I and Phase II of
//! Algorithm 2.

use rand::Rng;
use rpc_graphs::NodeId;

/// Draws `count` distinct nodes uniformly at random from `0..n`.
///
/// Panics if `count > n`. Uses a partial Fisher–Yates shuffle, `O(n)` memory
/// and `O(count)` swaps, so sampling even hundreds of thousands of failures
/// out of a million nodes is cheap.
pub fn sample_failures<R: Rng + ?Sized>(n: usize, count: usize, rng: &mut R) -> Vec<NodeId> {
    assert!(count <= n, "cannot fail more nodes than exist");
    let ids: Vec<NodeId> = (0..n as NodeId).collect();
    sample_from_pool(ids, count, rng)
}

/// Draws `count` distinct nodes uniformly at random from an arbitrary
/// candidate pool (consumed and partially shuffled). Panics if
/// `count > pool.len()`. Used by churn schedulers that must exclude
/// already-departed nodes from the next wave.
pub fn sample_from_pool<R: Rng + ?Sized>(
    mut pool: Vec<NodeId>,
    count: usize,
    rng: &mut R,
) -> Vec<NodeId> {
    assert!(count <= pool.len(), "cannot sample more nodes than the pool holds");
    for i in 0..count {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(count);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn samples_are_distinct_and_in_range() {
        let mut rng = SmallRng::seed_from_u64(1);
        let sample = sample_failures(1000, 250, &mut rng);
        assert_eq!(sample.len(), 250);
        let set: HashSet<_> = sample.iter().copied().collect();
        assert_eq!(set.len(), 250, "samples must be distinct");
        assert!(sample.iter().all(|&v| (v as usize) < 1000));
    }

    #[test]
    fn sampling_everything_returns_all_nodes() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut sample = sample_failures(32, 32, &mut rng);
        sample.sort_unstable();
        assert_eq!(sample, (0..32u32).collect::<Vec<_>>());
    }

    #[test]
    fn sampling_zero_is_empty() {
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(sample_failures(10, 0, &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot fail more nodes")]
    fn oversampling_panics() {
        let mut rng = SmallRng::seed_from_u64(4);
        let _ = sample_failures(5, 6, &mut rng);
    }

    #[test]
    fn pool_sampling_respects_the_pool() {
        let mut rng = SmallRng::seed_from_u64(5);
        let pool: Vec<u32> = vec![3, 7, 11, 19, 23];
        for _ in 0..50 {
            let sample = sample_from_pool(pool.clone(), 3, &mut rng);
            assert_eq!(sample.len(), 3);
            let set: HashSet<_> = sample.iter().copied().collect();
            assert_eq!(set.len(), 3, "samples must be distinct");
            assert!(sample.iter().all(|v| pool.contains(v)));
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample more nodes")]
    fn pool_oversampling_panics() {
        let mut rng = SmallRng::seed_from_u64(6);
        let _ = sample_from_pool(vec![1, 2], 3, &mut rng);
    }

    #[test]
    fn sample_is_roughly_uniform() {
        // Each node should be picked with probability 1/2 when half the nodes
        // fail; check no node is wildly over/under represented across trials.
        let n = 100;
        let mut counts = vec![0u32; n];
        for seed in 0..400u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            for v in sample_failures(n, n / 2, &mut rng) {
                counts[v as usize] += 1;
            }
        }
        for &c in &counts {
            assert!((120..=280).contains(&c), "count {c} outside plausible range");
        }
    }
}
