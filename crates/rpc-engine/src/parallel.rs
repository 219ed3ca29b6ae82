//! Parallel, allocation-free computation of per-receiver state updates.
//!
//! The expensive part of a simulation step is combining message bitsets.
//! Delivery is deferred — every receiver's new state depends only on the
//! senders' begin-of-step states — so all updates can be computed independently
//! from a shared immutable view of the states and committed afterwards.
//!
//! Three kernels cover the shape of a gossip run, picked per receiver from
//! the senders' set sizes (`known`) and the fully-informed mask:
//!
//! * **sparse senders** (early rounds) — walk the senders' nonzero-word
//!   summaries ([`MessageSet::summary`]) and emit only the *candidate new
//!   words* (`s ∧ ¬r` at the sender's nonzero indices). The sequential
//!   commit ORs them into the receiver in place, counting as it goes — no
//!   full-width buffer is ever touched, so a round with nearly-empty states
//!   costs KBs instead of a full state copy per receiver.
//! * **fused dense** (mixing rounds) — one branch-free, vectorizable pass
//!   per word building the receiver's *complete new state* in a pooled
//!   buffer: `or = ⋁ sᵢ; added += popcount(or ∧ ¬r); out = r ∨ or`. The
//!   commit is an O(1) pointer swap; the begin-of-step state returns to the
//!   pool. Compared to the classic delta pipeline (copy, union, counting
//!   union into the receiver) this halves the memory traffic.
//! * **fully informed sender** (endgame) — the union is the whole universe,
//!   so no sender payload is read at all: one pass over the receiver emits
//!   its *complement* as candidate words. Receivers are nearly full by the
//!   time fully informed senders exist, so the payload is a handful of words
//!   and the commit stays in place — the endgame rounds cost a read of each
//!   receiver instead of a full buffer write.
//!
//! Once the state table has outgrown the CPU caches, receivers are processed
//! in *sender-chain order*: after one receiver's update
//! is computed, processing continues with one of its senders, whose state —
//! the next base — was just streamed through the cache. The order is a pure
//! function of the transfer batch and never changes results. For parallel
//! runs the ordered receivers are split into contiguous chunks, one per
//! worker thread (crossbeam scoped threads); the result is identical for any
//! thread count, and also identical to the eager sequential path in
//! [`Simulation::deliver`](crate::Engine::deliver), which interleaves
//! these kernels with reader-gated commits.

use rpc_graphs::NodeId;
use rpc_obs::{DeliveryCore, DispatchRecord, PoolStats};

use crate::message::MessageSet;
use crate::sim::Transfer;

const WORD_BITS: usize = 64;

/// How one receiver's step outcome is applied at commit time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdatePayload {
    /// Candidate new words `(word index, bits)` with the receiver's
    /// begin-of-step content already masked out. Word indices may repeat
    /// (one run per sender); the in-place commit ORs them into the live
    /// state and counts actual news, which deduplicates naturally.
    Sparse(Vec<(u32, u64)>),
    /// The receiver's complete begin-of-next-step state (pooled buffer) plus
    /// the precomputed newly-learned count; committed by pointer swap.
    Replace {
        /// `|state \ old state|`.
        added: usize,
        /// The complete new state.
        state: MessageSet,
    },
}

/// One receiver's computed step outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReceiverUpdate {
    /// The receiving node.
    pub to: NodeId,
    /// What to apply at commit time.
    pub payload: UpdatePayload,
}

/// Reusable buffers for [`compute_updates`], handed back by
/// [`Simulation::deliver`](crate::Engine::deliver)'s commit loop.
#[derive(Debug, Default)]
pub struct UpdatePools {
    /// Full-width state buffers for [`UpdatePayload::Replace`].
    pub states: Vec<MessageSet>,
    /// Entry vectors for [`UpdatePayload::Sparse`].
    pub entries: Vec<Vec<(u32, u64)>>,
    /// Scratch for the chain ordering: node id → pending group index.
    pub(crate) group_of: Vec<u32>,
    /// Scratch for the chain ordering: the processing order (group indices).
    pub(crate) order: Vec<u32>,
    /// Checkout/fresh/high-water counters, maintained on the sequential
    /// cores. The batch core's worker-local pools (from the crate-private
    /// `split_off`) are consumed inside the crossbeam scope and never merged
    /// back, so their checkouts go uncounted — a documented limitation, kept
    /// so the hot parallel path stays untouched.
    pub stats: PoolStats,
}

impl UpdatePools {
    /// Pops a reusable entry vector, counting the checkout in [`Self::stats`].
    pub(crate) fn checkout_entries(&mut self) -> Vec<(u32, u64)> {
        let popped = self.entries.pop();
        self.stats.record_checkout(popped.is_none());
        popped.unwrap_or_default()
    }

    /// Pops a reusable full-width state buffer (allocating one for `universe`
    /// if the pool is empty), counting the checkout in [`Self::stats`].
    pub(crate) fn checkout_state(&mut self, universe: usize) -> MessageSet {
        let popped = self.states.pop();
        self.stats.record_checkout(popped.is_none());
        popped.unwrap_or_else(|| MessageSet::empty(universe))
    }

    fn split_off(&mut self, threads: usize) -> Vec<UpdatePools> {
        let mut pools = Vec::with_capacity(threads);
        let state_share = self.states.len() / threads;
        let entry_share = self.entries.len() / threads;
        for _ in 0..threads {
            let st = self.states.len().saturating_sub(state_share);
            let en = self.entries.len().saturating_sub(entry_share);
            pools.push(UpdatePools {
                states: self.states.split_off(st),
                entries: self.entries.split_off(en),
                ..UpdatePools::default()
            });
        }
        pools
    }
}

/// Computes, for every receiver appearing in `sorted_transfers` (which must
/// be sorted by receiver), its step outcome — either the candidate new words
/// or its complete new state, see [`UpdatePayload`].
///
/// `known` holds every node's current set size (`|state(v)|`, as maintained
/// by the simulation) and `full_words` the packed mask of fully informed
/// nodes (one bit per node, the layout of `BitSet::words`); together they
/// drive the kernel choice per receiver. The choice only affects speed: the
/// committed result is identical for every kernel, thread count, and mask.
///
/// `pools` supplies reusable buffers; the caller pushes them back after
/// committing.
pub fn compute_updates(
    states: &[MessageSet],
    sorted_transfers: &[Transfer],
    known: &[u32],
    full_words: &[u64],
    threads: usize,
    pools: &mut UpdatePools,
) -> Vec<ReceiverUpdate> {
    debug_assert!(
        sorted_transfers.windows(2).all(|w| w[0].to <= w[1].to),
        "transfers must be sorted by receiver"
    );
    let groups = group_by_receiver(sorted_transfers);
    if groups.is_empty() {
        return Vec::new();
    }
    // Order the receivers along sender chains: after computing receiver `v`,
    // continue with one of `v`'s senders (if it is itself a pending
    // receiver). That sender's full state was just streamed through the
    // cache as kernel input, so the next group's base-state read is an L2
    // hit instead of a cold DRAM read — in the memory-bound mixing rounds
    // this removes one of the ~5 full-width streams per receiver. The order
    // is a pure function of the transfer batch, and commits are
    // per-receiver-disjoint, so results are unchanged.
    let (mut order, group_of) =
        (std::mem::take(&mut pools.order), std::mem::take(&mut pools.group_of));
    let group_of = if cache_resident(states) {
        // Small problem: plain receiver order, no reordering overhead.
        order.clear();
        order.extend(0..groups.len() as u32);
        group_of
    } else {
        let (o, g) = chain_order(&groups, sorted_transfers, states.len(), order, group_of);
        order = o;
        g
    };
    let threads = threads.max(1).min(groups.len());
    let mut results: Vec<Vec<ReceiverUpdate>> = Vec::new();
    if threads == 1 {
        results.push(compute_group_updates(
            states,
            sorted_transfers,
            known,
            full_words,
            &groups,
            &order,
            pools,
        ));
    } else {
        // Hand each worker an equal share of the reusable buffers.
        let worker_pools = pools.split_off(threads);
        let chunk_size = order.len().div_ceil(threads);
        let chunks: Vec<&[u32]> = order.chunks(chunk_size).collect();

        let groups = &groups;
        crossbeam::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (chunk, mut local_pools) in chunks.into_iter().zip(worker_pools) {
                handles.push(scope.spawn(move |_| {
                    compute_group_updates(
                        states,
                        sorted_transfers,
                        known,
                        full_words,
                        groups,
                        chunk,
                        &mut local_pools,
                    )
                }));
            }
            for handle in handles {
                results.push(handle.join().expect("update worker panicked"));
            }
        })
        .expect("crossbeam scope failed");
    }

    pools.order = order;
    pools.group_of = group_of;
    results.into_iter().flatten().collect()
}

/// Whether the whole state table plausibly fits in the CPU caches. Below
/// this size the chain ordering and the eager commit cannot save DRAM
/// traffic (there is none to save) and their per-round bookkeeping is pure
/// overhead, so the delivery paths fall back to straight receiver order and
/// batch commits.
pub(crate) fn cache_resident(states: &[MessageSet]) -> bool {
    cache_resident_table(states.len(), states.first().map_or(0, |s| s.words().len()))
}

/// The [`cache_resident`] predicate on raw table dimensions (`rows` states of
/// `state_words` words each), so the unpacked oracle — which has no
/// [`MessageSet`] table — can classify dispatch decisions identically.
pub(crate) fn cache_resident_table(rows: usize, state_words: usize) -> bool {
    const CACHE_BUDGET_BYTES: usize = 8 << 20;
    rows * state_words * 8 < CACHE_BUDGET_BYTES
}

/// Classifies one deferred batch onto a delivery core — the single source of
/// truth for the adaptive dispatch in
/// [`Simulation::deliver`](crate::Engine::deliver) and for the unpacked
/// oracle's mirrored diagnostics. `packets` is the batch size *after* loss,
/// crash and fully-informed filtering.
pub(crate) fn classify_dispatch(
    n: usize,
    packets: usize,
    threads: usize,
    cache_resident: bool,
) -> DispatchRecord {
    let sparse = packets * 8 < n;
    let core = if threads == 1 {
        if sparse || cache_resident {
            DeliveryCore::Scalar
        } else {
            DeliveryCore::Eager
        }
    } else {
        DeliveryCore::Batch
    };
    DispatchRecord { core, n, packets, sparse, cache_resident, threads }
}

/// Not a pending receiver (or already ordered).
pub(crate) const NO_GROUP: u32 = u32::MAX;

/// Computes the cache-friendly processing order described in
/// [`compute_updates`]: a permutation of the group indices that greedily
/// follows, from each receiver, its first sender that is itself still a
/// pending receiver. `order` and `group_of` are reusable scratch buffers,
/// returned filled (`order`) and exhausted (`group_of`, all [`NO_GROUP`]).
pub(crate) fn chain_order(
    groups: &[Group],
    transfers: &[Transfer],
    num_nodes: usize,
    mut order: Vec<u32>,
    mut group_of: Vec<u32>,
) -> (Vec<u32>, Vec<u32>) {
    group_of.clear();
    group_of.resize(num_nodes, NO_GROUP);
    for (gi, (to, _)) in groups.iter().enumerate() {
        group_of[*to as usize] = gi as u32;
    }
    order.clear();
    order.reserve(groups.len());
    for start in 0..groups.len() {
        let mut cur = start;
        if group_of[groups[cur].0 as usize] == NO_GROUP {
            continue; // already ordered as part of an earlier chain
        }
        loop {
            let (to, range) = &groups[cur];
            group_of[*to as usize] = NO_GROUP;
            order.push(cur as u32);
            let Some(next) = transfers[range.clone()]
                .iter()
                .map(|t| group_of[t.from as usize])
                .find(|&g| g != NO_GROUP)
            else {
                break;
            };
            cur = next as usize;
        }
    }
    debug_assert_eq!(order.len(), groups.len(), "the order must be a permutation");
    (order, group_of)
}

pub(crate) type Group = (NodeId, std::ops::Range<usize>);

pub(crate) fn group_by_receiver(sorted_transfers: &[Transfer]) -> Vec<Group> {
    let mut groups = Vec::new();
    let mut start = 0usize;
    while start < sorted_transfers.len() {
        let to = sorted_transfers[start].to;
        let mut end = start + 1;
        while end < sorted_transfers.len() && sorted_transfers[end].to == to {
            end += 1;
        }
        groups.push((to, start..end));
        start = end;
    }
    groups
}

fn compute_group_updates(
    states: &[MessageSet],
    transfers: &[Transfer],
    known: &[u32],
    full_words: &[u64],
    groups: &[Group],
    order: &[u32],
    pools: &mut UpdatePools,
) -> Vec<ReceiverUpdate> {
    let mut out = Vec::with_capacity(order.len());
    for &oi in order {
        let (to, range) = &groups[oi as usize];
        let payload =
            compute_one_update(states, &transfers[range.clone()], *to, known, full_words, pools);
        out.push(ReceiverUpdate { to: *to, payload });
    }
    out
}

/// Computes one receiver's step outcome from its transfer group (all
/// transfers with `t.to == to`), choosing a kernel as described in the
/// [module docs](self). This is the shared core of the batch path above and
/// the eager sequential path in [`Simulation::deliver`].
///
/// [`Simulation::deliver`]: crate::Engine::deliver
pub(crate) fn compute_one_update(
    states: &[MessageSet],
    group: &[Transfer],
    to: NodeId,
    known: &[u32],
    full_words: &[u64],
    pools: &mut UpdatePools,
) -> UpdatePayload {
    let is_full = |v: NodeId| {
        let v = v as usize;
        full_words.get(v / WORD_BITS).is_some_and(|w| w & (1u64 << (v % WORD_BITS)) != 0)
    };
    let recv = &states[to as usize];
    let universe = recv.universe();
    let word_count = recv.words().len();

    if group.iter().any(|t| is_full(t.from)) {
        // Endgame: some sender knows everything, so the new state is the
        // whole universe. Emit the receiver's complement as candidate
        // words — no sender payload is read, and since receivers are
        // nearly full by the time full senders exist, the payload is a
        // handful of words instead of a full-width buffer.
        let mut entries = pools.checkout_entries();
        entries.clear();
        let recv_words = recv.words();
        let rem = universe % WORD_BITS;
        for (wi, &r) in recv_words.iter().enumerate() {
            let mut missing = !r;
            if rem != 0 && wi + 1 == recv_words.len() {
                missing &= (1u64 << rem) - 1;
            }
            if missing != 0 {
                entries.push((wi as u32, missing));
            }
        }
        return UpdatePayload::Sparse(entries);
    }

    let sender_bits: usize = group.iter().map(|t| known[t.from as usize] as usize).sum();
    // The sparse kernel's scattered word reads defeat the prefetcher, so
    // it only pays off while the candidate words are far fewer than the
    // receiver's cache lines; past that, the streaming fused kernel wins.
    if 32 * sender_bits <= word_count {
        // Early rounds: the senders' sets are tiny relative to the word
        // count — emit only the candidate new words, no buffer at all.
        let mut entries = pools.checkout_entries();
        entries.clear();
        let recv_words = recv.words();
        for t in group {
            let sender = &states[t.from as usize];
            let words = sender.words();
            for (si, &sum) in sender.summary().iter().enumerate() {
                let mut bits = sum;
                while bits != 0 {
                    let wi = si * WORD_BITS + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let new = words[wi] & !recv_words[wi];
                    if new != 0 {
                        entries.push((wi as u32, new));
                    }
                }
            }
        }
        UpdatePayload::Sparse(entries)
    } else {
        // Mixing rounds: one fused, branch-free, vectorizable pass
        // building the complete new state.
        let mut buf = pools.checkout_state(universe);
        debug_assert_eq!(buf.universe(), universe, "pooled buffer universe mismatch");
        let added = match group {
            [a] => buf.assign_union_counting(recv, &[&states[a.from as usize]]),
            [a, b] => buf
                .assign_union_counting(recv, &[&states[a.from as usize], &states[b.from as usize]]),
            _ => {
                let senders: Vec<&MessageSet> =
                    group.iter().map(|t| &states[t.from as usize]).collect();
                buf.assign_union_counting(recv, &senders)
            }
        };
        UpdatePayload::Replace { added, state: buf }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageSet;

    fn states(n: usize) -> Vec<MessageSet> {
        (0..n).map(|v| MessageSet::singleton(n, v as u32)).collect()
    }

    fn known_of(states: &[MessageSet]) -> Vec<u32> {
        states.iter().map(|s| s.len() as u32).collect()
    }

    /// Applies updates the way the simulation's commit loop does and returns
    /// the per-receiver added counts.
    fn commit(states: &mut [MessageSet], updates: Vec<ReceiverUpdate>) -> Vec<(NodeId, usize)> {
        let mut out = Vec::new();
        for u in updates {
            let to = u.to as usize;
            match u.payload {
                UpdatePayload::Sparse(entries) => {
                    let mut added = 0usize;
                    let mut reference = states[to].clone();
                    for &(wi, bits) in &entries {
                        added += reference.or_word_counting(wi as usize, bits);
                    }
                    states[to] = reference;
                    out.push((u.to, added));
                }
                UpdatePayload::Replace { added, state } => {
                    states[to] = state;
                    out.push((u.to, added));
                }
            }
        }
        out
    }

    #[test]
    fn grouping_splits_runs_of_equal_receivers() {
        let transfers = vec![
            Transfer::new(5, 1),
            Transfer::new(6, 1),
            Transfer::new(7, 2),
            Transfer::new(8, 4),
        ];
        let groups = group_by_receiver(&transfers);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0], (1, 0..2));
        assert_eq!(groups[1], (2, 2..3));
        assert_eq!(groups[2], (4, 3..4));
    }

    #[test]
    fn updates_commit_to_union_of_receiver_and_senders() {
        let mut s = states(80);
        let transfers = vec![Transfer::new(3, 0), Transfer::new(65, 0), Transfer::new(6, 7)];
        let known = known_of(&s);
        let mut pools = UpdatePools::default();
        let updates = compute_updates(&s, &transfers, &known, &[], 1, &mut pools);
        assert_eq!(updates.len(), 2);
        let added = commit(&mut s, updates);
        assert_eq!(added, vec![(0, 2), (7, 1)]);
        assert_eq!(s[0].iter().collect::<Vec<_>>(), vec![0, 3, 65]);
        assert_eq!(s[7].iter().collect::<Vec<_>>(), vec![6, 7]);
    }

    #[test]
    fn duplicate_candidate_words_are_counted_once() {
        // Two sparse senders offering the same message: the in-place commit
        // must count it exactly once. The universe is large enough (128
        // words) that four sender bits select the sparse kernel
        // (`32 * sender_bits <= word_count`).
        let mut s = states(8192);
        s[3].insert(42);
        s[5].insert(42);
        let known = known_of(&s);
        let transfers = vec![Transfer::new(3, 0), Transfer::new(5, 0)];
        let mut pools = UpdatePools::default();
        let updates = compute_updates(&s, &transfers, &known, &[], 1, &mut pools);
        assert!(matches!(updates[0].payload, UpdatePayload::Sparse(_)));
        let added = commit(&mut s, updates);
        assert_eq!(added, vec![(0, 3)], "42 must be counted once, not twice");
        assert_eq!(s[0].iter().collect::<Vec<_>>(), vec![0, 3, 5, 42]);
    }

    #[test]
    fn dense_and_sparse_kernels_agree() {
        // Mixed sender-set sizes across receivers: whatever kernel the
        // threshold picks, every receiver must end with the same union and
        // count as a straightforward reference union.
        let n = 200;
        let mut s = states(n);
        for i in 0..n as u32 {
            s[10].insert(i % 97);
            s[11].insert((i * 7) % n as u32);
        }
        let known = known_of(&s);
        let transfers = vec![
            Transfer::new(10, 0), // dense (big senders)
            Transfer::new(11, 0),
            Transfer::new(12, 1), // sparse (singleton sender)
        ];
        let mut pools = UpdatePools::default();
        let updates = compute_updates(&s, &transfers, &known, &[], 1, &mut pools);
        let mut reference = s.clone();
        let mut expected = Vec::new();
        for to in [0u32, 1] {
            let mut new_state = s[to as usize].clone();
            let mut added = 0usize;
            for t in transfers.iter().filter(|t| t.to == to) {
                added += new_state.union_from(&s[t.from as usize]);
            }
            reference[to as usize] = new_state;
            expected.push((to, added));
        }
        let added = commit(&mut s, updates);
        assert_eq!(added, expected);
        assert_eq!(s[0], reference[0]);
        assert_eq!(s[1], reference[1]);
    }

    #[test]
    fn full_sender_shortcut_matches_the_plain_union() {
        let n = 130; // not a multiple of 64: the tail mask matters
        let mut s = states(n);
        s[5] = MessageSet::full(n);
        let known = known_of(&s);
        let mut full_words = vec![0u64; 3];
        full_words[0] |= 1 << 5;
        let transfers = vec![Transfer::new(5, 0), Transfer::new(1, 0)];
        let mut pools = UpdatePools::default();
        let with_mask = compute_updates(&s, &transfers, &known, &full_words, 1, &mut pools);
        match &with_mask[0].payload {
            UpdatePayload::Sparse(entries) => {
                // The endgame kernel emits exactly the receiver's complement:
                // every missing bit once, nothing beyond the universe.
                let total: usize =
                    entries.iter().map(|&(_, bits)| bits.count_ones() as usize).sum();
                assert_eq!(total, n - 1);
                assert!(entries.iter().all(|&(wi, _)| (wi as usize) < s[0].words().len()));
            }
            other => panic!("expected the sparse complement, got {other:?}"),
        }
        let mut s_masked = s.clone();
        let mut s_plain = s.clone();
        commit(&mut s_masked, with_mask);
        let without_mask = compute_updates(&s, &transfers, &known, &[], 1, &mut pools);
        commit(&mut s_plain, without_mask);
        assert_eq!(s_masked[0], s_plain[0]);
    }

    #[test]
    fn parallel_and_sequential_updates_agree() {
        let n = 190; // deliberately not a multiple of 64
        let s = states(n);
        let known = known_of(&s);
        let mut transfers = Vec::new();
        for v in 0..n as u32 {
            transfers.push(Transfer::new((v + 1) % n as u32, v));
            transfers.push(Transfer::new((v + 5) % n as u32, v));
        }
        transfers.sort_unstable_by_key(|t| t.to);
        let mut pools = UpdatePools::default();
        let mut seq = compute_updates(&s, &transfers, &known, &[], 1, &mut pools);
        let mut par = compute_updates(&s, &transfers, &known, &[], 4, &mut pools);
        seq.sort_by_key(|u| u.to);
        par.sort_by_key(|u| u.to);
        assert_eq!(seq, par);
    }

    #[test]
    fn pool_buffers_are_reused_and_overwritten() {
        let n = 80;
        let mut s = states(n);
        // A big sender forces the Replace kernel, which must take the stale
        // pooled buffer and fully overwrite it.
        for i in 0..60u32 {
            s[1].insert(i);
        }
        let known = known_of(&s);
        let transfers = vec![Transfer::new(1, 0)];
        let mut pools = UpdatePools::default();
        pools.states.push(MessageSet::full(n)); // stale content must vanish
        let updates = compute_updates(&s, &transfers, &known, &[], 1, &mut pools);
        assert!(pools.states.is_empty(), "buffer should have been taken from the pool");
        match &updates[0].payload {
            UpdatePayload::Replace { added, state } => {
                assert_eq!(*added, 59);
                assert_eq!(state.len(), 60);
            }
            other => panic!("expected a replacement, got {other:?}"),
        }
    }

    #[test]
    fn empty_transfer_list_yields_no_updates() {
        let s = states(4);
        let mut pools = UpdatePools::default();
        assert!(compute_updates(&s, &[], &[1, 1, 1, 1], &[], 3, &mut pools).is_empty());
    }
}
