//! Compressed sparse row (CSR) graph representation, with an implicit form
//! for complete graphs.
//!
//! All graph models in this crate produce a [`Graph`], an immutable undirected
//! graph. Sparse graphs are stored as two flat arrays (`offsets`,
//! `neighbors`). This keeps a million-node Erdős–Rényi graph with expected
//! degree `log² n ≈ 400` at roughly 1.6 GB of adjacency data and, more
//! importantly for the simulator, makes "pick a uniformly random neighbor" a
//! single array index.
//!
//! The complete graph `K_n` stores only `n`. Its CSR arrays would hold all
//! `n(n − 1)` neighbor ids (64 MiB at `n = 4096`, 1 GiB at `n = 16384`), yet
//! every list is `0..n` without the node itself. So neighbor `i` of `v` is
//! `i + (i >= v)`, and `v`'s first edge slot is `v · (n − 1)`: exactly the
//! entries a materialized `K_n` would hold. Every query and every selection
//! primitive answers from that rule, consuming the same RNG draws and
//! returning the same nodes as on the materialized graph. Equality compares
//! adjacency, so the two forms of `K_n` are equal.

use rand::Rng;

/// Node identifier. Graphs in this repository stay below `2^32` nodes, so a
/// 32-bit id halves the adjacency memory compared to `usize`.
pub type NodeId = u32;

/// An immutable undirected (multi-)graph in CSR form, or an implicit `K_n`.
///
/// Self-loops and parallel edges are representable (the configuration model
/// can produce a constant number of them, see Section 2 of the paper); the
/// generators document whether they emit them.
#[derive(Clone, Debug)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes the neighbor slice of node `v`.
    /// Empty while `complete` is set.
    offsets: Vec<usize>,
    /// Concatenated adjacency lists; each undirected edge appears twice
    /// (once per endpoint), a self-loop appears twice at its single endpoint.
    /// Empty while `complete` is set.
    neighbors: Vec<NodeId>,
    /// `Some(n)`: this is the complete graph `K_n`, whose adjacency is
    /// implicit. Every CSR build clears it.
    complete: Option<usize>,
}

/// Equality compares adjacency, not storage: an implicit `K_n` equals the
/// same graph built from explicit lists.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.num_nodes() == other.num_nodes()
            && self.nodes().all(|v| self.neighbors(v).iter().eq(other.neighbors(v).iter()))
    }
}

impl Eq for Graph {}

impl Graph {
    /// The complete graph `K_n` in its implicit form: it stores `n` only.
    pub(crate) fn complete(n: usize) -> Self {
        Self { offsets: Vec::new(), neighbors: Vec::new(), complete: Some(n) }
    }

    /// Turns this graph into the implicit `K_n` in place. The CSR buffers
    /// are emptied but keep their capacity for a later CSR build.
    pub(crate) fn rebuild_complete(&mut self, n: usize) {
        self.offsets.clear();
        self.neighbors.clear();
        self.complete = Some(n);
    }

    /// Builds a graph with `n` nodes from a list of undirected edges.
    ///
    /// Edges may be given in any order; `(u, v)` and `(v, u)` denote the same
    /// edge and must only be listed once. Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut degrees = vec![0usize; n];
        for &(u, v) in edges {
            assert!((u as usize) < n && (v as usize) < n, "edge endpoint out of range");
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as NodeId; acc];
        for &(u, v) in edges {
            neighbors[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        let mut graph = Self { offsets, neighbors, complete: None };
        graph.sort_adjacency();
        graph
    }

    /// Builds a graph directly from per-node adjacency lists.
    ///
    /// The adjacency must already be symmetric: if `u` lists `v` then `v`
    /// must list `u` (checked in debug builds only, as this is `O(m log m)`).
    pub fn from_adjacency(adjacency: Vec<Vec<NodeId>>) -> Self {
        let n = adjacency.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut total = 0usize;
        for list in &adjacency {
            total += list.len();
            offsets.push(total);
        }
        let mut neighbors = Vec::with_capacity(total);
        for list in adjacency {
            neighbors.extend_from_slice(&list);
        }
        let mut graph = Self { offsets, neighbors, complete: None };
        graph.sort_adjacency();
        debug_assert!(graph.is_symmetric(), "adjacency lists are not symmetric");
        graph
    }

    /// Rebuilds this graph in place from a list of undirected edges, reusing
    /// the existing CSR allocations — the write-into-caller-buffers
    /// counterpart of [`Graph::from_edges`], used by
    /// [`crate::arena::GraphArena`] so Monte Carlo batch workloads regenerate
    /// graphs without allocating. `scratch` is caller-provided degree/cursor
    /// storage whose previous content is irrelevant.
    ///
    /// The result is identical to `Graph::from_edges(n, edges)`. Panics if an
    /// endpoint is `>= n`.
    pub fn rebuild_from_edges(
        &mut self,
        n: usize,
        edges: &[(NodeId, NodeId)],
        scratch: &mut Vec<usize>,
    ) {
        self.rebuild_scatter(n, edges, scratch);
        self.sort_adjacency();
    }

    /// Like [`Graph::rebuild_from_edges`] but *skips the per-node sort*: the
    /// caller guarantees the edge emission order already scatters into
    /// sorted adjacency lists (checked in debug builds). The property to
    /// prove for an emission order is that every node's smaller neighbors
    /// are appended (ascending) before its larger neighbors (ascending).
    /// Both Erdős–Rényi sampler branches satisfy it — the geometric-skip
    /// `p < 1` branch groups edges by larger endpoint ascending (a node's
    /// own group appends its smaller neighbors in order; later groups append
    /// its larger neighbors in order), and the dense `p ≥ 1` branch groups
    /// by smaller endpoint ascending (earlier groups append the smaller
    /// neighbors in order; the node's own group appends its larger neighbors
    /// in order) — which makes the sort, a third of the CSR build cost, pure
    /// overhead.
    pub(crate) fn rebuild_from_edges_presorted(
        &mut self,
        n: usize,
        edges: &[(NodeId, NodeId)],
        scratch: &mut Vec<usize>,
    ) {
        self.rebuild_scatter(n, edges, scratch);
        debug_assert!(
            (0..n).all(|v| self.csr_neighbors(v as NodeId).windows(2).all(|w| w[0] <= w[1])),
            "edge emission order did not scatter into sorted adjacency"
        );
    }

    /// The shared build core: degree count, prefix offsets, scatter. The
    /// result is a CSR graph, whatever this graph was before.
    fn rebuild_scatter(&mut self, n: usize, edges: &[(NodeId, NodeId)], scratch: &mut Vec<usize>) {
        self.complete = None;
        scratch.clear();
        scratch.resize(n, 0);
        for &(u, v) in edges {
            assert!((u as usize) < n && (v as usize) < n, "edge endpoint out of range");
            scratch[u as usize] += 1;
            scratch[v as usize] += 1;
        }
        self.offsets.clear();
        self.offsets.reserve(n + 1);
        let mut acc = 0usize;
        self.offsets.push(0);
        for &d in scratch.iter() {
            acc += d;
            self.offsets.push(acc);
        }
        // The degree counters become the per-node write cursors.
        scratch.copy_from_slice(&self.offsets[..n]);
        self.neighbors.clear();
        self.neighbors.resize(acc, 0);
        for &(u, v) in edges {
            self.neighbors[scratch[u as usize]] = v;
            scratch[u as usize] += 1;
            self.neighbors[scratch[v as usize]] = u;
            scratch[v as usize] += 1;
        }
    }

    fn sort_adjacency(&mut self) {
        for v in 0..self.num_nodes() {
            let (a, b) = (self.offsets[v], self.offsets[v + 1]);
            self.neighbors[a..b].sort_unstable();
        }
    }

    fn is_symmetric(&self) -> bool {
        // A (multi-)graph adjacency is symmetric iff the multiset of directed
        // pairs {(v, u)} is closed under swapping, i.e. equals the multiset of
        // swapped pairs. O(m log m) — cheap enough for a debug assertion even
        // on million-edge graphs.
        let mut forward: Vec<(NodeId, NodeId)> = Vec::with_capacity(self.neighbors.len());
        let mut backward: Vec<(NodeId, NodeId)> = Vec::with_capacity(self.neighbors.len());
        for v in self.nodes() {
            for u in self.neighbors(v).iter() {
                forward.push((v, u));
                backward.push((u, v));
            }
        }
        forward.sort_unstable();
        backward.sort_unstable();
        forward == backward
    }

    /// Number of nodes `n`.
    pub fn num_nodes(&self) -> usize {
        self.complete.unwrap_or_else(|| self.offsets.len() - 1)
    }

    /// Number of undirected edges (self-loops count once, parallel edges each).
    pub fn num_edges(&self) -> usize {
        self.num_edge_slots() / 2
    }

    /// Degree of node `v` (self-loops contribute 2, matching the CSR storage).
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// The neighbor list of node `v`, sorted ascending. Panics if `v` is not
    /// a node.
    pub fn neighbors(&self, v: NodeId) -> Neighbors<'_> {
        match self.complete {
            Some(n) => Neighbors::all_but(n, v),
            None => Neighbors(NeighborList::Listed(self.csr_neighbors(v))),
        }
    }

    /// The stored neighbor slice of `v` in a CSR graph.
    fn csr_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the edge `{u, v}` exists (`O(log deg)`).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).contains(v)
    }

    /// A uniformly random neighbor of `v`, or `None` if `v` is isolated.
    ///
    /// This is the core primitive of the random phone call model: "every node
    /// opens a communication channel to a randomly chosen neighbor". The
    /// node runtime calls it `n` times per actor per round, so the CSR path
    /// indexes the slice directly and `K_n` takes one early branch.
    pub fn random_neighbor<R: Rng + ?Sized>(&self, v: NodeId, rng: &mut R) -> Option<NodeId> {
        if let Some(n) = self.complete {
            return random_complete_neighbor(n, v, rng);
        }
        let nbrs = self.csr_neighbors(v);
        if nbrs.is_empty() {
            None
        } else {
            Some(nbrs[rng.gen_range(0..nbrs.len())])
        }
    }

    /// A uniformly random neighbor of `v` that is not contained in `avoid`.
    ///
    /// This implements the `open-avoid` operation of the memory model
    /// (Section 4): nodes remember up to four previously contacted neighbors
    /// and call on a neighbor chosen uniformly at random from
    /// `N(v) \ {l_v[0..3]}`. Returns `None` if every neighbor is excluded.
    pub fn random_neighbor_avoiding<R: Rng + ?Sized>(
        &self,
        v: NodeId,
        avoid: &[NodeId],
        rng: &mut R,
    ) -> Option<NodeId> {
        let nbrs = self.neighbors(v);
        if nbrs.is_empty() {
            return None;
        }
        // Rejection sampling is efficient because |avoid| <= 4 while the
        // paper's graphs have degree >= log^{2+eps} n. Fall back to an exact
        // scan when the neighborhood is tiny (test topologies).
        if nbrs.len() > 4 * avoid.len().max(1) {
            for _ in 0..32 {
                let candidate = nbrs.get(rng.gen_range(0..nbrs.len()));
                if !avoid.contains(&candidate) {
                    return Some(candidate);
                }
            }
        }
        kth_eligible(nbrs, rng, |u| !avoid.contains(&u))
    }

    /// A uniformly random neighbor of `v` among those whose bit is set in
    /// `mask_words`, or `None` if no neighbor is eligible.
    ///
    /// This is the graph-side shim for *dynamic* (churn) scenarios: the CSR
    /// arrays stay immutable, and departed nodes are excluded at selection
    /// time instead. `mask_words` is a packed bitset with one bit per node
    /// (bit `u` in word `u / 64` at position `u % 64`, LSB-first) — exactly
    /// the layout of `rpc_engine::BitSet::words` — so eligibility is a single
    /// shift-and-mask per candidate and the sampling allocates nothing.
    pub fn random_neighbor_masked<R: Rng + ?Sized>(
        &self,
        v: NodeId,
        mask_words: &[u64],
        rng: &mut R,
    ) -> Option<NodeId> {
        debug_assert!(mask_words.len() * 64 >= self.num_nodes(), "mask must cover every node");
        self.random_neighbor_where(v, rng, |u| mask_bit(mask_words, u))
    }

    /// A uniformly random neighbor of `v` that is present (bit set in
    /// `mask_words`) and not contained in `avoid` — the churn-aware variant
    /// of [`Self::random_neighbor_avoiding`]. Returns `None` if no neighbor
    /// is eligible.
    pub fn random_neighbor_masked_avoiding<R: Rng + ?Sized>(
        &self,
        v: NodeId,
        avoid: &[NodeId],
        mask_words: &[u64],
        rng: &mut R,
    ) -> Option<NodeId> {
        debug_assert!(mask_words.len() * 64 >= self.num_nodes(), "mask must cover every node");
        self.random_neighbor_where(v, rng, |u| mask_bit(mask_words, u) && !avoid.contains(&u))
    }

    /// Total number of directed edge slots: the length of the concatenated
    /// adjacency (`2m`). Each undirected edge owns two slots, one per
    /// endpoint; a self-loop owns two consecutive slots at its endpoint.
    /// Slot indices identify edges for the edge-churn presence masks.
    pub fn num_edge_slots(&self) -> usize {
        match self.complete {
            Some(n) => n * n.saturating_sub(1),
            None => self.neighbors.len(),
        }
    }

    /// The contiguous range of edge slots belonging to node `v`: slot
    /// `edge_slot_range(v).start + i` holds `neighbors(v).get(i)`.
    pub fn edge_slot_range(&self, v: NodeId) -> std::ops::Range<usize> {
        let v = v as usize;
        match self.complete {
            Some(n) => {
                let degree = Neighbors::all_but(n, v as NodeId).len();
                v * degree..(v + 1) * degree
            }
            None => self.offsets[v]..self.offsets[v + 1],
        }
    }

    /// A uniformly random neighbor of `v` reachable over an *up* edge:
    /// candidate slot `s` (holding neighbor `u`) is eligible iff bit `s` is
    /// set in `edge_words` and, when `node_words` is given, bit `u` is set
    /// there too. Returns `None` if no neighbor is eligible.
    ///
    /// This is the graph-side shim for *edge churn* (dynamic topologies):
    /// the CSR arrays stay immutable and down edges are excluded at
    /// selection time, exactly like [`Self::random_neighbor_masked`] does
    /// for departed nodes — but keyed on edge slots
    /// ([`Self::edge_slot_range`]), so the two directions of one undirected
    /// edge are two distinct bits that churn together. `edge_words` is a
    /// packed LSB-first bitset with one bit per slot
    /// ([`Self::num_edge_slots`] bits). The draw shape matches the node
    /// variant: up to 32 rejection draws over the full neighbor list, then
    /// one exact count-and-pick draw.
    pub fn random_neighbor_edge_masked<R: Rng + ?Sized>(
        &self,
        v: NodeId,
        node_words: Option<&[u64]>,
        edge_words: &[u64],
        rng: &mut R,
    ) -> Option<NodeId> {
        debug_assert!(
            edge_words.len() * 64 >= self.num_edge_slots(),
            "edge mask must cover every slot"
        );
        self.random_neighbor_slot_where(v, rng, |slot, u| {
            slot_bit(edge_words, slot) && node_words.map_or(true, |words| mask_bit(words, u))
        })
    }

    /// The `avoid`-aware variant of [`Self::random_neighbor_edge_masked`],
    /// for the memory model's `open-avoid` under edge churn. Returns `None`
    /// if no neighbor is eligible.
    pub fn random_neighbor_edge_masked_avoiding<R: Rng + ?Sized>(
        &self,
        v: NodeId,
        avoid: &[NodeId],
        node_words: Option<&[u64]>,
        edge_words: &[u64],
        rng: &mut R,
    ) -> Option<NodeId> {
        debug_assert!(
            edge_words.len() * 64 >= self.num_edge_slots(),
            "edge mask must cover every slot"
        );
        self.random_neighbor_slot_where(v, rng, |slot, u| {
            slot_bit(edge_words, slot)
                && node_words.map_or(true, |words| mask_bit(words, u))
                && !avoid.contains(&u)
        })
    }

    /// Slot-indexed counterpart of [`Self::random_neighbor_where`]: the
    /// predicate sees the global edge slot alongside the neighbor it holds.
    /// Same draw shape — up to 32 rejection draws over the neighbor list,
    /// then one exact count-and-pick — so slot-masked and node-masked
    /// sampling consume identical RNG sequences for identical acceptances.
    fn random_neighbor_slot_where<R: Rng + ?Sized>(
        &self,
        v: NodeId,
        rng: &mut R,
        eligible: impl Fn(usize, NodeId) -> bool,
    ) -> Option<NodeId> {
        let base = self.edge_slot_range(v).start;
        let nbrs = self.neighbors(v);
        if nbrs.is_empty() {
            return None;
        }
        for _ in 0..32 {
            let i = rng.gen_range(0..nbrs.len());
            let candidate = nbrs.get(i);
            if eligible(base + i, candidate) {
                return Some(candidate);
            }
        }
        let count = nbrs.iter().enumerate().filter(|&(i, u)| eligible(base + i, u)).count();
        if count == 0 {
            return None;
        }
        let k = rng.gen_range(0..count);
        nbrs.iter().enumerate().filter(|&(i, u)| eligible(base + i, u)).nth(k).map(|(_, u)| u)
    }

    /// Uniform selection among the neighbors satisfying `eligible`: rejection
    /// sampling while the predicate is likely to hit, then an exact two-pass
    /// count-and-pick directly over the neighbor list, so even the fallback
    /// is correct without materializing a filtered neighbor list.
    fn random_neighbor_where<R: Rng + ?Sized>(
        &self,
        v: NodeId,
        rng: &mut R,
        eligible: impl Fn(NodeId) -> bool,
    ) -> Option<NodeId> {
        let nbrs = self.neighbors(v);
        if nbrs.is_empty() {
            return None;
        }
        for _ in 0..32 {
            let candidate = nbrs.get(rng.gen_range(0..nbrs.len()));
            if eligible(candidate) {
                return Some(candidate);
            }
        }
        kth_eligible(nbrs, rng, eligible)
    }

    /// Average degree `2m / n` (0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_edge_slots() as f64 / self.num_nodes() as f64
        }
    }

    /// Minimum degree over all nodes (0 for the empty graph).
    pub fn min_degree(&self) -> usize {
        (0..self.num_nodes()).map(|v| self.degree(v as NodeId)).min().unwrap_or(0)
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes()).map(|v| self.degree(v as NodeId)).max().unwrap_or(0)
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes() as NodeId
    }

    /// Iterator over all undirected edges `(u, v)` with `u <= v`.
    ///
    /// Parallel edges are reported once per multiplicity; a self-loop `(v, v)`
    /// is reported once.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u).iter().filter(move |&v| u < v).map(move |v| (u, v)).chain(
                // Self-loops appear twice in the neighbor list of u; emit half.
                self.neighbors(u)
                    .iter()
                    .filter(move |&v| v == u)
                    .enumerate()
                    .filter(|(i, _)| i % 2 == 0)
                    .map(move |(_, v)| (u, v)),
            )
        })
    }

    /// Number of self-loops in the graph.
    pub fn num_self_loops(&self) -> usize {
        self.nodes().map(|v| self.neighbors(v).iter().filter(|&u| u == v).count() / 2).sum()
    }

    /// Number of parallel edge *pairs* beyond the first copy of each edge.
    pub fn num_parallel_edges(&self) -> usize {
        let mut extra = 0usize;
        for v in self.nodes() {
            // Lists are sorted, so each repeat of the previous non-loop
            // neighbor is one extra copy.
            let mut previous = None;
            for u in self.neighbors(v).iter() {
                if u != v && previous == Some(u) {
                    extra += 1;
                }
                previous = Some(u);
            }
        }
        extra / 2
    }
}

/// The sorted neighbor list of one node, as returned by [`Graph::neighbors`]:
/// a slice of the CSR adjacency, or the implicit list `0..n` without the
/// node itself in a complete graph.
#[derive(Clone, Copy, Debug)]
pub struct Neighbors<'a>(NeighborList<'a>);

#[derive(Clone, Copy, Debug)]
enum NeighborList<'a> {
    /// A stored CSR list.
    Listed(&'a [NodeId]),
    /// `0..n` without `v`: node `v` of `K_n`.
    AllBut { n: usize, v: NodeId },
}

impl<'a> Neighbors<'a> {
    /// Node `v`'s list in `K_n`. Panics if `v` is not a node.
    fn all_but(n: usize, v: NodeId) -> Self {
        assert!((v as usize) < n, "node {v} out of range for K_{n}");
        Self(NeighborList::AllBut { n, v })
    }

    /// Number of neighbors: the node's degree.
    pub fn len(self) -> usize {
        match self.0 {
            NeighborList::Listed(list) => list.len(),
            NeighborList::AllBut { n, .. } => n - 1,
        }
    }

    /// Whether the node has no neighbor.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Neighbor `i` in ascending order. Panics if `i >= self.len()`, like
    /// slice indexing.
    #[inline]
    pub fn get(self, i: usize) -> NodeId {
        match self.0 {
            NeighborList::Listed(list) => list[i],
            NeighborList::AllBut { n, v } => {
                assert!(i < n - 1, "neighbor index {i} out of range for degree {}", n - 1);
                (i + usize::from(i >= v as usize)) as NodeId
            }
        }
    }

    /// The smallest neighbor, or `None` for an isolated node.
    pub fn first(self) -> Option<NodeId> {
        (!self.is_empty()).then(|| self.get(0))
    }

    /// Whether `u` is a neighbor (`O(log len)`).
    pub fn contains(self, u: NodeId) -> bool {
        match self.0 {
            NeighborList::Listed(list) => list.binary_search(&u).is_ok(),
            NeighborList::AllBut { n, v } => (u as usize) < n && u != v,
        }
    }

    /// The neighbors in ascending order.
    pub fn iter(self) -> impl Iterator<Item = NodeId> + 'a {
        let (listed, below, above) = match self.0 {
            NeighborList::Listed(list) => (list, 0..0, 0..0),
            NeighborList::AllBut { n, v } => (&[][..], 0..v, v + 1..n as NodeId),
        };
        listed.iter().copied().chain(below).chain(above)
    }
}

/// [`Graph::random_neighbor`] for node `v` of `K_n`. Out of line: inlined,
/// it made `random_neighbor` too large to inline into the callers' draw
/// loops, which slowed the CSR path too.
#[inline(never)]
fn random_complete_neighbor<R: Rng + ?Sized>(n: usize, v: NodeId, rng: &mut R) -> Option<NodeId> {
    let nbrs = Neighbors::all_but(n, v);
    (!nbrs.is_empty()).then(|| nbrs.get(rng.gen_range(0..nbrs.len())))
}

/// Whether bit `u` is set in a packed LSB-first mask.
#[inline]
fn mask_bit(mask_words: &[u64], u: NodeId) -> bool {
    slot_bit(mask_words, u as usize)
}

/// Whether bit `slot` is set in a packed LSB-first mask over edge slots.
#[inline]
fn slot_bit(mask_words: &[u64], slot: usize) -> bool {
    mask_words[slot / 64] & (1u64 << (slot % 64)) != 0
}

/// Uniform choice among the elements of `pool` satisfying `eligible`, without
/// materializing the filtered list: count the eligible elements, draw a rank,
/// scan to it. Draw-for-draw equivalent to collecting the eligible elements
/// and indexing them uniformly (same single `gen_range` over the same count).
fn kth_eligible<R: Rng + ?Sized>(
    pool: Neighbors<'_>,
    rng: &mut R,
    eligible: impl Fn(NodeId) -> bool,
) -> Option<NodeId> {
    let count = pool.iter().filter(|&u| eligible(u)).count();
    if count == 0 {
        return None;
    }
    let k = rng.gen_range(0..count);
    pool.iter().filter(|&u| eligible(u)).nth(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Packs a `bool` slice into the LSB-first mask layout the masked
    /// sampling primitives consume.
    fn pack_mask(bits: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; bits.len().div_ceil(64)];
        for (i, &b) in bits.iter().enumerate() {
            if b {
                words[i / 64] |= 1u64 << (i % 64);
            }
        }
        words
    }

    fn listed(g: &Graph, v: NodeId) -> Vec<NodeId> {
        g.neighbors(v).iter().collect()
    }

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn from_edges_builds_symmetric_adjacency() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(listed(&g, 0), [1, 2]);
        assert_eq!(listed(&g, 1), [0, 2]);
        assert_eq!(listed(&g, 2), [0, 1]);
        assert_eq!(g.degree(0), 2);
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn from_adjacency_roundtrips() {
        let g = Graph::from_adjacency(vec![vec![1], vec![0, 2], vec![1]]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(listed(&g, 1), [0, 2]);
        assert_eq!(g.average_degree(), 4.0 / 3.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_rejects_out_of_range() {
        let _ = Graph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn degree_extremes() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.min_degree(), 1);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.average_degree(), 1.5);
    }

    #[test]
    fn random_neighbor_is_a_neighbor() {
        let g = triangle();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let u = g.random_neighbor(0, &mut rng).unwrap();
            assert!(g.neighbors(0).contains(u));
        }
    }

    #[test]
    fn random_neighbor_of_isolated_node_is_none() {
        let g = Graph::from_edges(2, &[]);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(g.random_neighbor(0, &mut rng), None);
    }

    #[test]
    fn random_neighbor_avoiding_respects_avoid_list() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..200 {
            let u = g.random_neighbor_avoiding(0, &[1, 2, 3], &mut rng).unwrap();
            assert_eq!(u, 4);
        }
        assert_eq!(g.random_neighbor_avoiding(0, &[1, 2, 3, 4], &mut rng), None);
    }

    #[test]
    fn random_neighbor_avoiding_covers_all_eligible() {
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.insert(g.random_neighbor_avoiding(0, &[1], &mut rng).unwrap());
        }
        assert_eq!(seen, [2, 3, 4, 5].into_iter().collect());
    }

    #[test]
    fn random_neighbor_masked_excludes_absent_nodes() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let mut rng = SmallRng::seed_from_u64(11);
        let mask = pack_mask(&[true, false, true, false, true]); // 1 and 3 departed
        let mut seen = std::collections::HashSet::new();
        for _ in 0..300 {
            seen.insert(g.random_neighbor_masked(0, &mask, &mut rng).unwrap());
        }
        assert_eq!(seen, [2, 4].into_iter().collect());
    }

    #[test]
    fn random_neighbor_masked_returns_none_when_all_excluded() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 2)]);
        let mut rng = SmallRng::seed_from_u64(13);
        let mask = pack_mask(&[true, false, false]);
        assert_eq!(g.random_neighbor_masked(0, &mask, &mut rng), None);
    }

    #[test]
    fn random_neighbor_masked_works_past_the_first_word() {
        // Nodes above index 63 exercise the second mask word.
        let n = 130;
        let edges: Vec<(NodeId, NodeId)> = (1..n).map(|u| (0, u)).collect();
        let g = Graph::from_edges(n as usize, &edges);
        let mut alive = vec![false; n as usize];
        alive[100] = true;
        alive[129] = true;
        let mask = pack_mask(&alive);
        let mut rng = SmallRng::seed_from_u64(29);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..300 {
            seen.insert(g.random_neighbor_masked(0, &mask, &mut rng).unwrap());
        }
        assert_eq!(seen, [100, 129].into_iter().collect());
    }

    #[test]
    fn random_neighbor_masked_avoiding_combines_both_filters() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let mut rng = SmallRng::seed_from_u64(17);
        let mask = pack_mask(&[true, true, false, true, true]); // 2 departed
        for _ in 0..200 {
            let u = g.random_neighbor_masked_avoiding(0, &[1], &mask, &mut rng).unwrap();
            assert!(u == 3 || u == 4, "got excluded neighbor {u}");
        }
        assert_eq!(g.random_neighbor_masked_avoiding(0, &[1, 3, 4], &mask, &mut rng), None);
    }

    #[test]
    fn edge_slot_ranges_tile_the_adjacency() {
        let g = triangle();
        assert_eq!(g.num_edge_slots(), 6);
        let mut covered = 0;
        for v in g.nodes() {
            let range = g.edge_slot_range(v);
            assert_eq!(range.len(), g.degree(v));
            assert_eq!(range.start, covered);
            covered = range.end;
        }
        assert_eq!(covered, g.num_edge_slots());
    }

    #[test]
    fn random_neighbor_edge_masked_excludes_down_slots() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let mut rng = SmallRng::seed_from_u64(19);
        // Take down the slots of node 0 holding neighbors 1 and 3.
        let mut up = vec![true; g.num_edge_slots()];
        let base = g.edge_slot_range(0).start;
        for (i, u) in g.neighbors(0).iter().enumerate() {
            if u == 1 || u == 3 {
                up[base + i] = false;
            }
        }
        let edge_mask = pack_mask(&up);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..300 {
            seen.insert(g.random_neighbor_edge_masked(0, None, &edge_mask, &mut rng).unwrap());
        }
        assert_eq!(seen, [2, 4].into_iter().collect());
    }

    #[test]
    fn random_neighbor_edge_masked_combines_node_and_edge_masks() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let mut rng = SmallRng::seed_from_u64(23);
        // Edge to 1 is down, node 2 is departed: only 3 and 4 remain.
        let mut up = vec![true; g.num_edge_slots()];
        let base = g.edge_slot_range(0).start;
        up[base + g.neighbors(0).iter().position(|u| u == 1).unwrap()] = false;
        let edge_mask = pack_mask(&up);
        let node_mask = pack_mask(&[true, true, false, true, true]);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..300 {
            seen.insert(
                g.random_neighbor_edge_masked(0, Some(&node_mask), &edge_mask, &mut rng).unwrap(),
            );
        }
        assert_eq!(seen, [3, 4].into_iter().collect());
        // Avoiding 3 on top leaves only 4.
        for _ in 0..100 {
            let u = g
                .random_neighbor_edge_masked_avoiding(
                    0,
                    &[3],
                    Some(&node_mask),
                    &edge_mask,
                    &mut rng,
                )
                .unwrap();
            assert_eq!(u, 4);
        }
    }

    #[test]
    fn random_neighbor_edge_masked_returns_none_when_all_down() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 2)]);
        let mut rng = SmallRng::seed_from_u64(31);
        let edge_mask = pack_mask(&vec![false; g.num_edge_slots()]);
        assert_eq!(g.random_neighbor_edge_masked(0, None, &edge_mask, &mut rng), None);
    }

    #[test]
    fn edge_masked_sampling_matches_node_masked_draw_sequence() {
        // With an all-up edge mask the slot-masked sampler must consume the
        // exact same RNG draws as the node-masked sampler — the contract that
        // keeps traces bit-identical when edge churn is configured but no
        // wave is currently active.
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2)]);
        let all_up = pack_mask(&vec![true; g.num_edge_slots()]);
        let node_mask = pack_mask(&[true, true, false, true, false, true]);
        for seed in 0..50 {
            let mut a = SmallRng::seed_from_u64(seed);
            let mut b = SmallRng::seed_from_u64(seed);
            let via_nodes = g.random_neighbor_masked(0, &node_mask, &mut a);
            let via_slots = g.random_neighbor_edge_masked(0, Some(&node_mask), &all_up, &mut b);
            assert_eq!(via_nodes, via_slots);
            // The generators must have advanced identically too.
            assert_eq!(a.gen_range(0..u64::MAX), b.gen_range(0..u64::MAX));
        }
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = triangle();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn self_loops_and_parallel_edges_are_counted() {
        // Node 0 with a self loop, and a double edge between 1 and 2.
        let g = Graph::from_edges(3, &[(0, 0), (1, 2), (1, 2)]);
        assert_eq!(g.num_self_loops(), 1);
        assert_eq!(g.num_parallel_edges(), 1);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn nodes_iterator_covers_all_nodes() {
        let g = triangle();
        assert_eq!(g.nodes().collect::<Vec<_>>(), vec![0, 1, 2]);
    }
}
