//! The synchronous random phone call simulation state.
//!
//! A [`Simulation`] bundles the network graph, every node's current combined
//! message, the liveness masks used by the failure and churn models, the
//! communication metrics and the random source. Algorithms drive it with three
//! primitives:
//!
//! 1. [`Simulation::open_channel`] / [`Simulation::open_channel_avoiding`] —
//!    "in each step every node opens a communication channel to a randomly
//!    chosen neighbor" (Section 2), optionally avoiding remembered contacts
//!    (Section 4);
//! 2. [`Simulation::deliver`] — applies a batch of push/pull packet transfers
//!    for one synchronous step;
//! 3. [`Simulation::absorb`] — merges an arbitrary message set into one node
//!    (used for random-walk tokens, whose payload travels separately from the
//!    node states).
//!
//! Delivery obeys the model's timing: all packets of a step are computed from
//! the senders' states *at the beginning of the step* ("`m_v(t)` is the union
//! of all messages received in steps `< t`"), so a message travels at most
//! one hop per step.
//!
//! ## The packed hot path
//!
//! All per-node boolean bookkeeping is packed into [`BitSet`]s — `alive`
//! (not crashed), `present` (not churned out) and `full` (fully informed) —
//! so the per-round control questions are word-parallel:
//!
//! * the completion check walks `(alive ∧ present) ∧ ¬full` one word at a
//!   time instead of scanning `n` counters ([`Simulation::gossip_complete`]);
//! * neighbor sampling under churn tests the presence mask with a shift and
//!   an AND per candidate (`Graph::random_neighbor_masked` consumes
//!   [`BitSet::words`] directly);
//! * coverage queries for a tracked rumor are maintained incrementally and
//!   answered from a popcount-backed counter
//!   ([`Simulation::tracked_informed_count`]).
//!
//! Delivery itself is allocation-free in steady state: the effective-transfer
//! buffer, the counting-sort buckets, and the kernel buffers (see
//! [`crate::parallel`] for the three delivery kernels) are pooled and reused
//! across rounds, and receivers that are already fully informed (or crashed)
//! are dropped before any kernel work happens. Once the state table outgrows
//! the CPU caches, the sequential path additionally processes receivers in
//! *sender-chain order* and commits each node eagerly as soon as its last
//! pending reader has been computed — the begin-of-step snapshot semantics
//! are preserved exactly, but the base state and the pooled output buffer of
//! a fused update are then usually cache-hot instead of cold DRAM reads
//! (see [`crate::parallel`] for the scheduling details).
//!
//! The unoptimized PR 2 implementation of this type survives as
//! [`crate::reference::UnpackedSimulation`] — same API, same RNG draw
//! sequence, `Vec<bool>` bookkeeping — and serves as the correctness oracle
//! and benchmark baseline for this hot path.

use rand::rngs::SmallRng;
use rand::Rng;

use rpc_graphs::{Graph, NodeId};

use crate::api::Engine;
use crate::bitset::{any_and2_not, count_and3, BitSet};
use crate::message::{MessageId, MessageSet};
use crate::metrics::Metrics;
use crate::parallel::{
    cache_resident, chain_order, classify_dispatch, compute_one_update, compute_updates,
    group_by_receiver, UpdatePayload, UpdatePools,
};
use crate::seeding::engine_rng;

/// A single packet transfer: `from` sends its current combined message to `to`.
///
/// Whether this is a *push* (sender opened the channel) or a *pull* (receiver
/// opened the channel) only matters for the accounting, which the algorithms
/// perform via [`Metrics`]; the engine treats both identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
}

impl Transfer {
    /// Convenience constructor.
    pub fn new(from: NodeId, to: NodeId) -> Self {
        Self { from, to }
    }
}

/// What a scheduled liveness event does to its node set. Kept private: users
/// go through [`Simulation::schedule_kill`] / [`Simulation::schedule_revive`]
/// / [`Simulation::schedule_crash`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LivenessKind {
    /// Churn out: the nodes leave the network entirely.
    Kill,
    /// Churn in: previously departed nodes rejoin with their old state.
    Revive,
    /// Crash: the paper's failure model — the nodes stay addressable but
    /// neither transmit nor store (Section 5).
    Crash,
    /// Edge-churn wave: the event's `nodes` are CSR edge *slot* indices
    /// (see `Graph::edge_slot_range`), not node ids. The listed slots go
    /// down, **replacing** the previously down set — edges from earlier
    /// waves implicitly come back up.
    EdgeOutage,
    /// Rumor injection: `rumor` enters the network at node `source`
    /// (see [`Simulation::inject_rumor`]). The event's `nodes` list is empty.
    Inject { source: NodeId, rumor: MessageId },
    /// Rumor TTL expiry: `rumor` is removed from every node's state
    /// (see [`Simulation::expire_rumor`]). The event's `nodes` list is empty.
    Expire { rumor: MessageId },
}

/// A liveness change applied at the start of the given round.
#[derive(Clone, Debug)]
pub(crate) struct LivenessEvent {
    pub(crate) round: u64,
    pub(crate) kind: LivenessKind,
    pub(crate) nodes: Vec<NodeId>,
}

/// Per-rumor bookkeeping of a *streaming* simulation: informed counts
/// maintained incrementally by every delivery path, plus injection and
/// expiry flags. Only present on simulations built via
/// [`Simulation::new_streaming`] / [`SimulationArena::checkout_streaming`];
/// the classic gossiping configuration pays one `Option` check per commit
/// and nothing else.
#[derive(Clone, Debug)]
pub(crate) struct RumorSpace {
    /// `counts[m]` = number of node states containing rumor `m` (the paper's
    /// `|I_m(t)|` per rumor, maintained so coverage queries are O(1)).
    counts: Vec<u32>,
    /// Whether rumor `m` has ever been injected.
    injected: Vec<bool>,
    /// Whether rumor `m` has expired; an expired rumor is rejected by
    /// [`Simulation::inject_rumor`] forever.
    expired: Vec<bool>,
}

impl RumorSpace {
    fn new(universe: usize) -> Self {
        Self {
            counts: vec![0; universe],
            injected: vec![false; universe],
            expired: vec![false; universe],
        }
    }

    fn reset(&mut self, universe: usize) {
        self.counts.clear();
        self.counts.resize(universe, 0);
        self.injected.clear();
        self.injected.resize(universe, false);
        self.expired.clear();
        self.expired.resize(universe, false);
    }

    /// Credits every rumor whose bit is set in `new` but not in `old`
    /// (one node just gained it). `old` and `new` are the packed words of
    /// one node's state before and after a union.
    fn count_gains(&mut self, old: &[u64], new: &[u64]) {
        for (wi, (&o, &nw)) in old.iter().zip(new.iter()).enumerate() {
            self.record_word_gain(wi, nw & !o);
        }
    }

    /// Credits each rumor in `new_bits` — the bits of packed word `wi` that
    /// one node newly learned.
    fn record_word_gain(&mut self, wi: usize, mut new_bits: u64) {
        while new_bits != 0 {
            let b = new_bits.trailing_zeros() as usize;
            new_bits &= new_bits - 1;
            self.counts[wi * 64 + b] += 1;
        }
    }
}

/// Incrementally maintained knowledge of one tracked original message.
#[derive(Clone, Debug)]
struct TrackedRumor {
    id: MessageId,
    /// Which nodes know the rumor — kept in lockstep with the states.
    knowers: BitSet,
    /// `knowers.count_ones()`, maintained incrementally so coverage stop
    /// rules are O(1) per round.
    count: usize,
}

/// The mutable state of one simulation run.
#[derive(Debug)]
pub struct Simulation<'g> {
    graph: &'g Graph,
    states: Vec<MessageSet>,
    known: Vec<u32>,
    /// Size of the message universe the states range over. Equal to the node
    /// count in the classic gossiping start configuration; decoupled from it
    /// in streaming mode (see [`Simulation::new_streaming`]).
    universe: usize,
    /// Per-rumor informed counts and injection/expiry flags; `Some` exactly
    /// on streaming simulations.
    rumors: Option<RumorSpace>,
    /// Snapshot of one node's packed words taken before a whole-set union so
    /// the per-rumor counts can be updated from the word diff (streaming
    /// simulations only).
    rumor_diff_scratch: Vec<u64>,
    alive: BitSet,
    alive_count: usize,
    /// Churn mask: a cleared bit means the node has departed the network.
    /// Unlike a crashed node (cleared `alive` bit), a departed node is also
    /// excluded from its neighbors' channel selection.
    present: BitSet,
    departed_count: usize,
    /// Fully informed nodes (`known[v] == universe`), maintained by
    /// `bump_known` so the completion check is word-parallel.
    full: BitSet,
    fully_informed: usize,
    tracked: Option<TrackedRumor>,
    metrics: Metrics,
    rng: SmallRng,
    threads: usize,
    /// Per-packet loss probability applied inside [`Simulation::deliver`].
    loss_probability: f64,
    /// Scheduled liveness events, sorted by round; `next_event` is the cursor
    /// into the already-applied prefix.
    schedule: Vec<LivenessEvent>,
    next_event: usize,
    /// Reusable buffers for the delivery kernels (see [`crate::parallel`]);
    /// the commit swaps replacement buffers into the state table and returns
    /// the previous states here.
    update_pools: UpdatePools,
    /// Reusable effective-transfer buffer for [`Simulation::deliver`].
    transfer_scratch: Vec<Transfer>,
    /// Reusable receiver-grouped transfer buffer (counting-sort output).
    grouped_scratch: Vec<Transfer>,
    /// Reusable per-node counters for the counting sort.
    bucket_scratch: Vec<u32>,
    /// Reusable per-node pending-reader counters for the eager sequential
    /// commit (how many not-yet-computed receivers still read this node's
    /// begin-of-step state).
    reader_scratch: Vec<u32>,
    /// Reusable per-node stash of computed-but-not-yet-committable payloads
    /// for the eager sequential commit.
    pending_scratch: Vec<Option<UpdatePayload>>,
    /// Reusable staging list of the scalar small-n delivery kernel:
    /// `(receiver, newly-learned count, complete next state)` per receiver,
    /// drained by the swap-commit phase.
    scalar_scratch: Vec<(NodeId, usize, MessageSet)>,
    /// Behaviour mask: a set bit marks a Byzantine node that silently drops
    /// every packet it should send while still opening channels and
    /// receiving normally.
    byzantine: BitSet,
    byzantine_count: usize,
    /// Edge presence mask over the graph's CSR edge slots: a cleared bit
    /// means the directed slot is down and excluded from channel selection.
    /// Only consulted while `edge_down_count > 0`, so it is sized lazily by
    /// [`Self::apply_edge_outage`] and may hold stale bits otherwise.
    edge_up: BitSet,
    edge_down_count: usize,
}

impl<'g> Simulation<'g> {
    /// Creates a simulation in the gossiping start configuration: node `v`
    /// knows exactly its own original message `m_v = {v}`.
    pub fn new(graph: &'g Graph, seed: u64) -> Self {
        let n = graph.num_nodes();
        let states = (0..n).map(|v| MessageSet::singleton(n, v as MessageId)).collect();
        Self {
            graph,
            states,
            known: vec![1; n],
            universe: n,
            rumors: None,
            rumor_diff_scratch: Vec::new(),
            alive: BitSet::new_full(n),
            alive_count: n,
            present: BitSet::new_full(n),
            departed_count: 0,
            full: if n <= 1 { BitSet::new_full(n) } else { BitSet::new(n) },
            fully_informed: if n <= 1 { n } else { 0 },
            tracked: None,
            metrics: Metrics::new(n),
            rng: engine_rng(seed),
            threads: 1,
            loss_probability: 0.0,
            schedule: Vec::new(),
            next_event: 0,
            update_pools: UpdatePools::default(),
            transfer_scratch: Vec::new(),
            grouped_scratch: Vec::new(),
            bucket_scratch: Vec::new(),
            reader_scratch: Vec::new(),
            pending_scratch: Vec::new(),
            scalar_scratch: Vec::new(),
            byzantine: BitSet::new(n),
            byzantine_count: 0,
            edge_up: BitSet::new(0),
            edge_down_count: 0,
        }
    }

    /// Creates a simulation in the *streaming* start configuration: the
    /// message universe holds `universe` rumors, decoupled from the node
    /// count, and every node starts knowing nothing. Rumors enter the
    /// network via [`Self::inject_rumor`] / [`Self::schedule_injection`] and
    /// spread through the ordinary delivery paths — the word-parallel
    /// kernels are rumor-agnostic and unchanged. Per-rumor informed counts
    /// ([`Self::rumor_informed_count`]) are maintained incrementally.
    ///
    /// Seeding matches [`Simulation::new`] bit for bit; a streaming
    /// simulation draws nothing extra from the RNG.
    pub fn new_streaming(graph: &'g Graph, seed: u64, universe: usize) -> Self {
        let n = graph.num_nodes();
        let states = (0..n).map(|_| MessageSet::empty(universe)).collect();
        Self {
            graph,
            states,
            known: vec![0; n],
            universe,
            rumors: Some(RumorSpace::new(universe)),
            rumor_diff_scratch: Vec::new(),
            alive: BitSet::new_full(n),
            alive_count: n,
            present: BitSet::new_full(n),
            departed_count: 0,
            // An empty universe leaves nothing to learn: everyone is
            // vacuously fully informed from the start.
            full: if universe == 0 { BitSet::new_full(n) } else { BitSet::new(n) },
            fully_informed: if universe == 0 { n } else { 0 },
            tracked: None,
            metrics: Metrics::new(n),
            rng: engine_rng(seed),
            threads: 1,
            loss_probability: 0.0,
            schedule: Vec::new(),
            next_event: 0,
            update_pools: UpdatePools::default(),
            transfer_scratch: Vec::new(),
            grouped_scratch: Vec::new(),
            bucket_scratch: Vec::new(),
            reader_scratch: Vec::new(),
            pending_scratch: Vec::new(),
            scalar_scratch: Vec::new(),
            byzantine: BitSet::new(n),
            byzantine_count: 0,
            edge_up: BitSet::new(0),
            edge_down_count: 0,
        }
    }

    /// Resets the simulation to the gossiping start configuration of a fresh
    /// run over `graph` with `seed`, reusing every allocation it can: the
    /// state table (when the universe size is unchanged), the liveness
    /// bitsets, the metrics' per-node counters, the delivery pools and all
    /// scratch buffers survive across runs. This is what makes Monte Carlo
    /// repetitions allocation-free in steady state (see [`SimulationArena`]).
    ///
    /// Observable behaviour after `reset` is identical to
    /// `Simulation::new(graph, seed)`: same RNG stream, same start states,
    /// empty event schedule, zeroed metrics. The thread count keeps its
    /// builder-applied value; the loss probability resets to `0.0` — like
    /// the builders, it is simply re-applicable per run via
    /// [`Engine::set_loss_probability`].
    pub fn reset(&mut self, graph: &'g Graph, seed: u64) {
        self.reset_core(graph, seed, graph.num_nodes(), false);
    }

    /// Resets the simulation to the streaming start configuration of a fresh
    /// run, reusing allocations like [`Self::reset`]. Observable behaviour
    /// after `reset_streaming` is identical to
    /// `Simulation::new_streaming(graph, seed, universe)`.
    pub fn reset_streaming(&mut self, graph: &'g Graph, seed: u64, universe: usize) {
        self.reset_core(graph, seed, universe, true);
    }

    fn reset_core(&mut self, graph: &'g Graph, seed: u64, universe: usize, streaming: bool) {
        let n = graph.num_nodes();
        self.graph = graph;
        self.universe = universe;
        let same_universe = self.states.len() == n
            && self.states.first().map_or(true, |s| s.universe() == universe);
        if same_universe {
            for (v, state) in self.states.iter_mut().enumerate() {
                if streaming {
                    state.reset_empty(universe);
                } else {
                    state.reset_singleton(universe, v as MessageId);
                }
            }
        } else {
            self.states.clear();
            if streaming {
                self.states.extend((0..n).map(|_| MessageSet::empty(universe)));
            } else {
                self.states.extend((0..n).map(|v| MessageSet::singleton(universe, v as MessageId)));
            }
            // Pooled full-width buffers of the old universe no longer fit.
            self.update_pools.states.clear();
        }
        let initial_known: u32 = if streaming { 0 } else { 1 };
        self.known.clear();
        self.known.resize(n, initial_known);
        if streaming {
            let mut rs = self.rumors.take().unwrap_or_else(|| RumorSpace::new(universe));
            rs.reset(universe);
            self.rumors = Some(rs);
        } else {
            self.rumors = None;
        }
        self.alive.reset_full(n);
        self.alive_count = n;
        self.present.reset_full(n);
        self.departed_count = 0;
        if initial_known as usize == universe {
            self.full.reset_full(n);
            self.fully_informed = n;
        } else {
            self.full.reset_empty(n);
            self.fully_informed = 0;
        }
        self.tracked = None;
        self.metrics.reset(n);
        self.update_pools.stats = rpc_obs::PoolStats::default();
        self.rng = engine_rng(seed);
        self.loss_probability = 0.0;
        self.schedule.clear();
        self.next_event = 0;
        self.byzantine.reset_empty(n);
        self.byzantine_count = 0;
        // `edge_up` is only read while `edge_down_count > 0`, and every
        // EdgeOutage application rebuilds it at full width first, so stale
        // contents from a previous run are unobservable.
        self.edge_down_count = 0;
    }

    /// Number of worker threads used to apply large delivery batches
    /// (default 1 = fully sequential). The result is identical regardless of
    /// the thread count; threads only speed up the bitset unions.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the per-packet message-loss probability (default `0.0`). Each
    /// packet that would be delivered is instead dropped with probability `p`,
    /// drawn from the simulation's own RNG so runs stay deterministic in the
    /// seed for any thread count. Lost packets are still counted as sent.
    ///
    /// Panics unless `p ∈ [0, 1)`.
    pub fn with_loss_probability(mut self, p: f64) -> Self {
        self.set_loss_probability(p);
        self
    }

    /// The configured per-packet loss probability.
    pub fn loss_probability(&self) -> f64 {
        self.loss_probability
    }

    /// Buffer-pool counters for this run (reset with the simulation).
    /// Sequential delivery cores only — the batch core's worker-local pools
    /// are not merged back (see [`UpdatePools`]).
    pub fn pool_stats(&self) -> rpc_obs::PoolStats {
        self.update_pools.stats
    }

    /// Number of original messages node `v` knows.
    pub fn num_known(&self, v: NodeId) -> usize {
        self.known[v as usize] as usize
    }

    /// The message id currently tracked via [`Engine::track_message`], if
    /// any.
    pub fn tracked_message(&self) -> Option<MessageId> {
        self.tracked.as_ref().map(|t| t.id)
    }

    /// Takes the given CSR edge slots down immediately, replacing any
    /// previously down set. Down slots are excluded from channel selection in
    /// both directions independently (callers pass both directed slots of an
    /// undirected edge to sever it symmetrically).
    pub fn apply_edge_outage(&mut self, slots: &[NodeId]) {
        self.edge_up.reset_full(self.graph.num_edge_slots());
        let mut down = 0usize;
        for &slot in slots {
            if self.edge_up.clear_bit(slot as usize) {
                down += 1;
            }
        }
        self.edge_down_count = down;
    }

    fn push_event(&mut self, event: LivenessEvent) {
        self.schedule.push(event);
        // Keep the unapplied suffix sorted by round; the sort is stable, so
        // events scheduled for the same round apply in insertion order.
        self.schedule[self.next_event..].sort_by_key(|e| e.round);
    }

    /// Applies every scheduled event that is due at the current round. Called
    /// lazily from the engine primitives so algorithms need no churn-specific
    /// code: the round counter advances via [`Metrics::finish_round`] and the
    /// next engine call picks the events up.
    #[inline]
    fn poll_events(&mut self) {
        if self.next_event >= self.schedule.len() {
            return;
        }
        let round = self.metrics.rounds();
        while self.next_event < self.schedule.len() && self.schedule[self.next_event].round <= round
        {
            let kind = self.schedule[self.next_event].kind;
            let nodes = std::mem::take(&mut self.schedule[self.next_event].nodes);
            self.next_event += 1;
            match kind {
                LivenessKind::Kill => self.kill_nodes(&nodes),
                LivenessKind::Revive => self.revive_nodes(&nodes),
                LivenessKind::Crash => self.fail_nodes(&nodes),
                LivenessKind::EdgeOutage => self.apply_edge_outage(&nodes),
                LivenessKind::Inject { source, rumor } => {
                    self.inject_rumor(source, rumor);
                }
                LivenessKind::Expire { rumor } => self.expire_rumor(rumor),
            }
        }
    }

    fn bump_known(&mut self, v: NodeId, added: usize) {
        if added == 0 {
            return;
        }
        self.known[v as usize] += added as u32;
        if self.known[v as usize] as usize == self.universe {
            self.full.set(v as usize);
            self.fully_informed += 1;
        }
    }

    /// Re-derives node `v`'s tracked-rumor bit from its state (used by the
    /// paths that union whole message sets rather than sparse deltas).
    fn refresh_tracked(&mut self, v: NodeId) {
        if let Some(tracked) = &mut self.tracked {
            if !tracked.knowers.get(v as usize) && self.states[v as usize].contains(tracked.id) {
                tracked.knowers.set(v as usize);
                tracked.count += 1;
            }
        }
    }

    /// Filters `transfers` down to the packets that are actually put on the
    /// wire, recording packet metrics and sampling loss along the way. The
    /// survivors are appended to `out` (cleared first).
    fn count_packets(&mut self, transfers: &[Transfer], out: &mut Vec<Transfer>) {
        out.clear();
        out.reserve(transfers.len());
        for &t in transfers {
            if !self.alive.get(t.from as usize) || !self.present.get(t.from as usize) {
                continue; // failed nodes do not transmit, departed nodes are gone
            }
            if self.byzantine_count > 0 && self.byzantine.get(t.from as usize) {
                continue; // Byzantine senders silently drop: nothing sent, nothing counted
            }
            if !self.present.get(t.to as usize) {
                continue; // the connection to a departed node fails silently
            }
            self.metrics.record_packet(t.from);
            if t.from == t.to {
                continue; // self-delivery is a no-op (possible via self-loops)
            }
            if self.loss_probability > 0.0 && self.rng.gen_bool(self.loss_probability) {
                continue; // lost in transit: sent (counted) but never stored
            }
            out.push(t);
        }
    }

    fn deliver_deferred(&mut self, transfers: &[Transfer]) -> usize {
        let mut effective = std::mem::take(&mut self.transfer_scratch);
        self.count_packets(transfers, &mut effective);
        // Packets to crashed receivers were counted but are never stored, and
        // fully informed receivers cannot learn anything — drop both before
        // any delta work happens.
        let n = self.num_nodes();
        let universe = self.universe;
        let (alive, known) = (&self.alive, &self.known);
        effective.retain(|t| {
            alive.get(t.to as usize) && (known[t.to as usize] as usize) < universe.max(1)
        });
        if effective.is_empty() {
            self.transfer_scratch = effective;
            return 0;
        }
        // A batch is *sparse* when it carries far fewer packets than the
        // network has nodes (the memory model's tree phases send a handful
        // of packets per round; a push-pull round sends 2n). Every O(n)
        // per-round pass — counting-sort buckets, prefix offsets, the eager
        // core's reader/pending tables — is pure overhead then, so sparse
        // batches take O(m log m) / O(m · words) paths instead.
        //
        // The classification is computed once, up front, as a
        // `DispatchRecord` and recorded into the metrics — the record *is*
        // the dispatch (the match below routes on `dispatch.core`), so the
        // diagnostics the observability layer reports can never drift from
        // what actually ran.
        let dispatch =
            classify_dispatch(n, effective.len(), self.threads, cache_resident(&self.states));
        self.metrics.record_dispatch(dispatch);
        let sparse_batch = dispatch.sparse;
        // Group by receiver so each receiver's new state is computed exactly
        // once from the senders' begin-of-step states. Dense batches use a
        // counting sort over the node ids — O(m + n), two linear passes,
        // reusing the bucket and output buffers across rounds; sparse
        // batches comparison-sort the few transfers instead. Within-group
        // sender order may differ between the two, which cannot change
        // results: a receiver's update is a union over its senders'
        // begin-of-step states, and unions are commutative.
        {
            let grouped = &mut self.grouped_scratch;
            if sparse_batch {
                grouped.clear();
                grouped.extend_from_slice(&effective);
                grouped.sort_unstable_by_key(|t| t.to);
            } else {
                let buckets = &mut self.bucket_scratch;
                buckets.clear();
                buckets.resize(n, 0);
                for t in &effective {
                    buckets[t.to as usize] += 1;
                }
                let mut offset = 0u32;
                for b in buckets.iter_mut() {
                    let count = *b;
                    *b = offset;
                    offset += count;
                }
                grouped.clear();
                grouped.resize(effective.len(), Transfer::new(0, 0));
                for &t in &effective {
                    let slot = &mut buckets[t.to as usize];
                    grouped[*slot as usize] = t;
                    *slot += 1;
                }
            }
        }
        // Adaptive dispatch over the three delivery cores (the per-receiver
        // kernels live one level below, in `parallel::compute_one_update`):
        //
        // * sequential + cache-resident state table *or* a sparse batch →
        //   the *scalar* core: with no DRAM traffic to optimize (or too few
        //   packets to amortize any per-node table), the group table, kernel
        //   dispatch and update collection of the other cores are pure
        //   overhead — this is what makes the packed engine win at n = 1k
        //   (where it used to trail the unpacked oracle) and on the memory
        //   model's packet-light rounds;
        // * sequential + larger-than-cache dense batches → the *eager*
        //   chain-ordered core (reader-gated commits keep fused bases
        //   cache-hot);
        // * multi-threaded → the *batch* core, whose commit barrier the
        //   workers need anyway.
        let total_added = match dispatch.core {
            rpc_obs::DeliveryCore::Scalar => self.deliver_grouped_scalar(),
            rpc_obs::DeliveryCore::Eager => self.deliver_grouped_eager(),
            rpc_obs::DeliveryCore::Batch => self.deliver_grouped_batch(),
        };
        self.transfer_scratch = effective;
        total_added
    }

    /// Sequential small-n delivery core — the *scalar kernel* of the
    /// adaptive dispatch. While the whole state table is cache-resident the
    /// chain ordering, kernel choice and update collection of the other
    /// cores cost more than the word work they could save, so this path
    /// walks the receiver-grouped transfers directly: one lean fused pass
    /// per receiver builds its complete next state in a pooled buffer
    /// (phase 1), then every buffer is committed by an O(1) swap (phase 2).
    /// No group table, no `ReceiverUpdate` collection, no per-round
    /// allocation. Payloads are computed exclusively from begin-of-step
    /// states, so the result is identical to the eager and batch cores.
    fn deliver_grouped_scalar(&mut self) -> usize {
        let universe = self.universe;
        let Simulation {
            states,
            known,
            full,
            fully_informed,
            tracked,
            rumors,
            update_pools,
            grouped_scratch,
            scalar_scratch,
            ..
        } = self;
        let grouped: &[Transfer] = grouped_scratch;
        debug_assert!(scalar_scratch.is_empty(), "stale scalar staging list");
        let mut start = 0usize;
        while start < grouped.len() {
            let to = grouped[start].to;
            let mut end = start + 1;
            while end < grouped.len() && grouped[end].to == to {
                end += 1;
            }
            let recv = &states[to as usize];
            let mut buf = update_pools.checkout_state(universe);
            let added = match &grouped[start..end] {
                [a] => buf.assign_union_counting(recv, &[&states[a.from as usize]]),
                [a, b, rest @ ..] => {
                    let mut added = buf.assign_union_counting(
                        recv,
                        &[&states[a.from as usize], &states[b.from as usize]],
                    );
                    // Further senders fold in one at a time; the counted news
                    // telescopes to |union \ begin-of-step receiver| because
                    // each union counts only bits new to the running result.
                    for t in rest {
                        added += buf.union_from(&states[t.from as usize]);
                    }
                    added
                }
                [] => unreachable!("receiver group cannot be empty"),
            };
            scalar_scratch.push((to, added, buf));
            start = end;
        }
        // Phase 2: every payload was computed from begin-of-step states, so
        // the swap commits may run in any order without changing results.
        let mut total_added = 0usize;
        for (to, added, state) in scalar_scratch.drain(..) {
            total_added += commit_payload(
                states,
                known,
                full,
                fully_informed,
                tracked,
                rumors,
                universe,
                update_pools,
                to,
                UpdatePayload::Replace { added, state },
            );
        }
        total_added
    }

    /// Sequential delivery core: computes each receiver's payload in chain
    /// order and commits a node's payload *as soon as its last pending reader
    /// has been computed* (tracked with per-node reader counts). A sender is
    /// therefore never committed while any receiver still needs its
    /// begin-of-step state — the result is identical to the batch path — but
    /// the buffer a commit returns to the LIFO pool is typically the state
    /// the kernel just streamed through the cache, so the next fused
    /// receiver's buffer pop avoids a cold read-for-ownership of 200 bytes
    /// per 100 nodes of universe. Together with the chain ordering this
    /// keeps two of the ~five full-width streams per receiver in cache in
    /// the memory-bound mixing rounds.
    fn deliver_grouped_eager(&mut self) -> usize {
        let universe = self.universe;
        let Simulation {
            states,
            known,
            full,
            fully_informed,
            tracked,
            rumors,
            update_pools,
            grouped_scratch,
            reader_scratch,
            pending_scratch,
            ..
        } = self;
        let grouped: &[Transfer] = grouped_scratch;
        let n = states.len();
        let groups = group_by_receiver(grouped);
        let (order, group_of) = chain_order(
            &groups,
            grouped,
            n,
            std::mem::take(&mut update_pools.order),
            std::mem::take(&mut update_pools.group_of),
        );
        let counts = reader_scratch;
        counts.clear();
        counts.resize(n, 0);
        for t in grouped {
            counts[t.from as usize] += 1;
        }
        let pending = pending_scratch;
        pending.clear();
        pending.resize_with(n, || None);
        let mut total_added = 0usize;
        for &oi in &order {
            let (to, range) = &groups[oi as usize];
            let group = &grouped[range.clone()];
            let payload = compute_one_update(states, group, *to, known, full.words(), update_pools);
            if counts[*to as usize] == 0 {
                // Every reader of `to` has already been computed (or there
                // were none): safe to commit immediately.
                total_added += commit_payload(
                    states,
                    known,
                    full,
                    fully_informed,
                    tracked,
                    rumors,
                    universe,
                    update_pools,
                    *to,
                    payload,
                );
            } else {
                pending[*to as usize] = Some(payload);
            }
            for t in group {
                let c = &mut counts[t.from as usize];
                *c -= 1;
                if *c == 0 {
                    if let Some(p) = pending[t.from as usize].take() {
                        total_added += commit_payload(
                            states,
                            known,
                            full,
                            fully_informed,
                            tracked,
                            rumors,
                            universe,
                            update_pools,
                            t.from,
                            p,
                        );
                    }
                }
            }
        }
        debug_assert!(pending.iter().all(Option::is_none), "payload left uncommitted");
        update_pools.order = order;
        update_pools.group_of = group_of;
        total_added
    }

    /// Multi-threaded delivery core: all payloads are computed from the
    /// frozen begin-of-step states by [`compute_updates`], then committed in
    /// one sequential pass. Bit-identical to the eager sequential path.
    fn deliver_grouped_batch(&mut self) -> usize {
        let updates = compute_updates(
            &self.states,
            &self.grouped_scratch,
            &self.known,
            self.full.words(),
            self.threads,
            &mut self.update_pools,
        );
        let universe = self.universe;
        let Simulation {
            states, known, full, fully_informed, tracked, rumors, update_pools, ..
        } = self;
        let mut total_added = 0usize;
        for update in updates {
            total_added += commit_payload(
                states,
                known,
                full,
                fully_informed,
                tracked,
                rumors,
                universe,
                update_pools,
                update.to,
                update.payload,
            );
        }
        total_added
    }
}

impl Engine for Simulation<'_> {
    fn graph(&self) -> &Graph {
        self.graph
    }

    fn num_nodes(&self) -> usize {
        self.states.len()
    }

    fn universe(&self) -> usize {
        self.universe
    }

    /// Records the channel opening. Returns `None` if `v` has failed,
    /// departed, or is isolated. Departed neighbours are excluded from the
    /// selection; crashed neighbours remain selectable (they silently drop
    /// what they receive), matching the paper's failure semantics.
    fn open_channel(&mut self, v: NodeId) -> Option<NodeId> {
        self.poll_events();
        if !self.alive.get(v as usize) || !self.present.get(v as usize) {
            return None;
        }
        let target = if self.edge_down_count > 0 {
            let node_words = (self.departed_count > 0).then(|| self.present.words());
            self.graph.random_neighbor_edge_masked(
                v,
                node_words,
                self.edge_up.words(),
                &mut self.rng,
            )?
        } else if self.departed_count == 0 {
            self.graph.random_neighbor(v, &mut self.rng)?
        } else {
            self.graph.random_neighbor_masked(v, self.present.words(), &mut self.rng)?
        };
        self.metrics.record_channel_open(v);
        Some(target)
    }

    /// The memory model's `open-avoid`. Returns `None` if `v` has failed or
    /// departed, or every neighbour is excluded.
    fn open_channel_avoiding(&mut self, v: NodeId, avoid: &[NodeId]) -> Option<NodeId> {
        self.poll_events();
        if !self.alive.get(v as usize) || !self.present.get(v as usize) {
            return None;
        }
        let target = if self.edge_down_count > 0 {
            let node_words = (self.departed_count > 0).then(|| self.present.words());
            self.graph.random_neighbor_edge_masked_avoiding(
                v,
                avoid,
                node_words,
                self.edge_up.words(),
                &mut self.rng,
            )?
        } else if self.departed_count == 0 {
            self.graph.random_neighbor_avoiding(v, avoid, &mut self.rng)?
        } else {
            self.graph.random_neighbor_masked_avoiding(
                v,
                avoid,
                self.present.words(),
                &mut self.rng,
            )?
        };
        self.metrics.record_channel_open(v);
        Some(target)
    }

    /// Applies one synchronous step's packet transfers.
    ///
    /// * Packets from failed senders are dropped (they "refuse to transmit").
    /// * Packets to failed receivers are transmitted — and therefore counted —
    ///   but not stored.
    /// * Transfers from or to *departed* (churned-out) nodes are dropped
    ///   entirely and never counted: the connection fails before a packet is
    ///   put on the wire.
    /// * With a non-zero loss probability, each surviving packet is dropped in
    ///   transit with that probability (counted as sent, never stored).
    /// * Every transmitted packet increments the sender's packet counter in
    ///   the metrics. Channel-exchange accounting is the caller's
    ///   responsibility because only the caller knows which node opened the
    ///   channel.
    ///
    /// Returns the total number of (node, message) pairs that became known in
    /// this step, which is `0` exactly when the step made no progress.
    fn deliver(&mut self, transfers: &[Transfer]) -> usize {
        self.poll_events();
        self.deliver_deferred(transfers)
    }

    /// No packet is recorded — callers account for the transmission that
    /// carried `set` themselves (e.g. random walks). Failed and departed nodes
    /// ignore the merge.
    fn absorb(&mut self, v: NodeId, set: &MessageSet) -> usize {
        if !self.alive.get(v as usize) || !self.present.get(v as usize) {
            return 0;
        }
        if self.rumors.is_some() {
            // Snapshot the old words so the per-rumor counts can be updated
            // from the diff after the union.
            self.rumor_diff_scratch.clear();
            self.rumor_diff_scratch.extend_from_slice(self.states[v as usize].words());
        }
        let added = self.states[v as usize].union_from(set);
        if added > 0 {
            if let Some(rs) = &mut self.rumors {
                rs.count_gains(&self.rumor_diff_scratch, self.states[v as usize].words());
            }
        }
        self.bump_known(v, added);
        if added > 0 {
            self.refresh_tracked(v);
        }
        added
    }

    fn state(&self, v: NodeId) -> &MessageSet {
        &self.states[v as usize]
    }

    fn knows(&self, v: NodeId, m: MessageId) -> bool {
        self.states[v as usize].contains(m)
    }

    fn is_alive(&self, v: NodeId) -> bool {
        self.alive.get(v as usize)
    }

    fn is_present(&self, v: NodeId) -> bool {
        self.present.get(v as usize)
    }

    fn alive_count(&self) -> usize {
        self.alive_count
    }

    fn present_count(&self) -> usize {
        self.num_nodes() - self.departed_count
    }

    /// One popcount pass over `alive ∧ present`.
    fn participating_count(&self) -> usize {
        self.alive.intersection_count(&self.present)
    }

    /// One popcount pass over `alive ∧ present ∧ full`.
    fn participating_informed_count(&self) -> usize {
        count_and3(&self.alive, &self.present, &self.full)
    }

    fn is_fully_informed(&self, v: NodeId) -> bool {
        self.known[v as usize] as usize == self.universe
    }

    fn fully_informed_count(&self) -> usize {
        self.fully_informed
    }

    /// Crashed and churned-out nodes are exempt.
    ///
    /// Word-parallel: walks `(alive ∧ present) ∧ ¬full` in `n / 64` steps and
    /// stops at the first word containing an uninformed participant.
    fn gossip_complete(&self) -> bool {
        !any_and2_not(&self.alive, &self.present, &self.full)
    }

    /// An `O(n)` scan intended for tests and phase diagnostics; a per-round
    /// coverage stop rule uses [`Engine::track_message`] and the O(1)
    /// [`Engine::tracked_informed_count`] instead.
    fn informed_count_of(&self, m: MessageId) -> usize {
        self.states.iter().filter(|s| s.contains(m)).count()
    }

    /// From now on the set of nodes knowing `m` is maintained incrementally
    /// alongside the deliveries, so [`Engine::tracked_informed_count`] is
    /// O(1) instead of an O(n) scan per query. Tracking may be enabled at any
    /// point; the initial knower set is computed once from the current
    /// states.
    fn track_message(&mut self, m: MessageId) {
        let n = self.num_nodes();
        let universe = self.universe;
        assert!((m as usize) < universe, "message id {m} outside universe {universe}");
        let mut knowers = BitSet::new(n);
        let mut count = 0usize;
        for (v, state) in self.states.iter().enumerate() {
            if state.contains(m) {
                knowers.set(v);
                count += 1;
            }
        }
        self.tracked = Some(TrackedRumor { id: m, knowers, count });
    }

    /// O(1): the count is maintained by the delivery paths.
    fn tracked_informed_count(&self) -> usize {
        self.tracked.as_ref().expect("no tracked message; call track_message first").count
    }

    /// Injection into a crashed or departed node is dropped (the arrival is
    /// recorded, nothing is stored).
    fn inject_rumor(&mut self, source: NodeId, m: MessageId) -> bool {
        assert!((m as usize) < self.universe, "message id {m} outside universe {}", self.universe);
        if let Some(rs) = &mut self.rumors {
            if rs.expired[m as usize] {
                return false;
            }
            rs.injected[m as usize] = true;
        }
        if !self.alive.get(source as usize) || !self.present.get(source as usize) {
            return false;
        }
        let newly = self.states[source as usize].insert(m);
        if newly {
            if let Some(rs) = &mut self.rumors {
                rs.counts[m as usize] += 1;
            }
            self.bump_known(source, 1);
            self.refresh_tracked(source);
        }
        newly
    }

    /// Zeroes the rumor's informed count. Nodes that were fully informed lose
    /// that status permanently (the rumor no longer exists to be re-learned).
    fn expire_rumor(&mut self, m: MessageId) {
        assert!((m as usize) < self.universe, "message id {m} outside universe {}", self.universe);
        if let Some(rs) = &mut self.rumors {
            if rs.expired[m as usize] {
                return;
            }
            rs.expired[m as usize] = true;
            rs.counts[m as usize] = 0;
        }
        let universe = self.universe;
        for v in 0..self.states.len() {
            if self.states[v].remove(m) {
                if self.known[v] as usize == universe && self.full.clear_bit(v) {
                    self.fully_informed -= 1;
                }
                self.known[v] -= 1;
            }
        }
        if let Some(t) = &mut self.tracked {
            if t.id == m {
                t.knowers.reset_empty(self.states.len());
                t.count = 0;
            }
        }
    }

    /// Events scheduled for the same round apply in insertion order, so
    /// callers that schedule environment events first keep them ahead of the
    /// injections.
    fn schedule_injection(&mut self, round: u64, source: NodeId, m: MessageId) {
        self.push_event(LivenessEvent {
            round,
            kind: LivenessKind::Inject { source, rumor: m },
            nodes: Vec::new(),
        });
    }

    fn schedule_expiry(&mut self, round: u64, m: MessageId) {
        self.push_event(LivenessEvent {
            round,
            kind: LivenessKind::Expire { rumor: m },
            nodes: Vec::new(),
        });
    }

    /// O(1) on streaming simulations (the delivery paths maintain the count
    /// incrementally); falls back to the O(n) scan of
    /// [`Engine::informed_count_of`] otherwise.
    fn rumor_informed_count(&self, m: MessageId) -> usize {
        assert!((m as usize) < self.universe, "message id {m} outside universe {}", self.universe);
        match &self.rumors {
            Some(rs) => rs.counts[m as usize] as usize,
            None => self.informed_count_of(m),
        }
    }

    fn rumor_injected(&self, m: MessageId) -> bool {
        assert!((m as usize) < self.universe, "message id {m} outside universe {}", self.universe);
        self.rumors.as_ref().map_or(true, |rs| rs.injected[m as usize])
    }

    fn rumor_expired(&self, m: MessageId) -> bool {
        assert!((m as usize) < self.universe, "message id {m} outside universe {}", self.universe);
        self.rumors.as_ref().is_some_and(|rs| rs.expired[m as usize])
    }

    /// Failed nodes do not open channels, do not transmit and do not store
    /// incoming messages (Section 5).
    fn fail_nodes(&mut self, nodes: &[NodeId]) {
        for &v in nodes {
            if self.alive.clear_bit(v as usize) {
                self.alive_count -= 1;
            }
        }
    }

    /// A departed node opens no channels, neither sends nor receives any
    /// packet, and — unlike a crashed node — is excluded from its neighbors'
    /// channel selection, as if its edges were removed (the CSR adjacency
    /// itself stays immutable).
    fn kill_nodes(&mut self, nodes: &[NodeId]) {
        for &v in nodes {
            if self.present.clear_bit(v as usize) {
                self.departed_count += 1;
            }
        }
    }

    /// A revived node keeps the combined message it had when it left; reviving
    /// a node that never departed is a no-op.
    fn revive_nodes(&mut self, nodes: &[NodeId]) {
        for &v in nodes {
            if self.present.set(v as usize) {
                self.departed_count -= 1;
            }
        }
    }

    /// Rounds are counted by [`Metrics::finish_round`], so round `r` is the
    /// step executed after `r` completed rounds.
    fn schedule_kill(&mut self, round: u64, nodes: Vec<NodeId>) {
        self.push_event(LivenessEvent { round, kind: LivenessKind::Kill, nodes });
    }

    fn schedule_revive(&mut self, round: u64, nodes: Vec<NodeId>) {
        self.push_event(LivenessEvent { round, kind: LivenessKind::Revive, nodes });
    }

    fn schedule_crash(&mut self, round: u64, nodes: Vec<NodeId>) {
        self.push_event(LivenessEvent { round, kind: LivenessKind::Crash, nodes });
    }

    /// The slots are CSR edge slots (see [`Graph::edge_slot_range`]); passing
    /// an empty slot list restores the full topology.
    fn schedule_edge_outage(&mut self, round: u64, slots: Vec<NodeId>) {
        self.push_event(LivenessEvent { round, kind: LivenessKind::EdgeOutage, nodes: slots });
    }

    fn apply_due_events(&mut self) {
        self.poll_events();
    }

    /// A Byzantine sender never appears in the effective transfer stream and
    /// its packet counter stays untouched.
    fn set_byzantine(&mut self, nodes: &[NodeId]) {
        for &v in nodes {
            if self.byzantine.set(v as usize) {
                self.byzantine_count += 1;
            }
        }
    }

    fn is_byzantine(&self, v: NodeId) -> bool {
        self.byzantine.get(v as usize)
    }

    fn byzantine_count(&self) -> usize {
        self.byzantine_count
    }

    fn set_loss_probability(&mut self, p: f64) {
        assert!(p.is_finite() && (0.0..1.0).contains(&p), "loss probability must lie in [0, 1)");
        self.loss_probability = p;
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    fn rng_mut(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

/// Applies one receiver's computed payload to the live state and maintains
/// the derived bookkeeping: the knowledge counter, the fully-informed mask
/// and count, and the tracked rumor. Returns how many messages were newly
/// learned. Shared by the eager and the batch commit paths — the payload is
/// always computed from begin-of-step states, so applying it is
/// order-independent across receivers.
#[allow(clippy::too_many_arguments)]
fn commit_payload(
    states: &mut [MessageSet],
    known: &mut [u32],
    full: &mut BitSet,
    fully_informed: &mut usize,
    tracked: &mut Option<TrackedRumor>,
    rumors: &mut Option<RumorSpace>,
    universe: usize,
    pools: &mut UpdatePools,
    to: NodeId,
    payload: UpdatePayload,
) -> usize {
    let added = match payload {
        UpdatePayload::Sparse(entries) => {
            // In-place commit: OR the candidate words into the live state,
            // counting actual news (duplicates across senders deduplicate
            // against the already-updated words).
            let state = &mut states[to as usize];
            let mut added = 0usize;
            for &(wi, bits) in &entries {
                if let Some(rs) = rumors.as_mut() {
                    rs.record_word_gain(wi as usize, bits & !state.words()[wi as usize]);
                }
                added += state.or_word_counting(wi as usize, bits);
            }
            pools.entries.push(entries);
            added
        }
        UpdatePayload::Replace { added, mut state } => {
            // O(1) commit: the computed buffer becomes the state, the old
            // state becomes a pool buffer.
            std::mem::swap(&mut states[to as usize], &mut state);
            if added > 0 {
                if let Some(rs) = rumors.as_mut() {
                    rs.count_gains(state.words(), states[to as usize].words());
                }
            }
            pools.states.push(state);
            pools.stats.record_parked(pools.states.len());
            added
        }
    };
    if added > 0 {
        known[to as usize] += added as u32;
        if known[to as usize] as usize == universe {
            full.set(to as usize);
            *fully_informed += 1;
        }
        if let Some(t) = tracked {
            if !t.knowers.get(to as usize) && states[to as usize].contains(t.id) {
                t.knowers.set(to as usize);
                t.count += 1;
            }
        }
    }
    added
}

/// Reusable backing storage for a [`Simulation`], detached from any graph.
///
/// A `Simulation` borrows its graph, so it cannot live inside the same
/// struct that owns the graph storage across repetitions. The arena solves
/// this by holding only the graph-independent parts — the state table,
/// bitsets, metrics counters, delivery pools and scratch buffers — between
/// runs: [`SimulationArena::checkout`] assembles a simulation over the
/// caller's graph reference (behaving exactly like [`Simulation::new`]), and
/// [`SimulationArena::recycle`] takes the storage back when the run is done.
/// One arena per worker thread makes Monte Carlo repetitions allocation-free
/// in steady state.
///
/// ```
/// use rpc_engine::{Engine, SimulationArena};
/// use rpc_graphs::prelude::*;
///
/// let graph = CompleteGraph::new(16).generate(0);
/// let mut arena = SimulationArena::default();
/// for seed in 0..3 {
///     let mut sim = arena.checkout(&graph, seed);
///     let u = sim.open_channel(0).unwrap();
///     sim.deliver(&[rpc_engine::Transfer::new(0, u)]);
///     arena.recycle(sim);
/// }
/// ```
#[derive(Debug, Default)]
pub struct SimulationArena {
    parked: Option<SimulationStorage>,
    stats: rpc_obs::ReuseStats,
}

/// The graph-independent parts of a [`Simulation`] kept alive between runs.
#[derive(Debug)]
struct SimulationStorage {
    states: Vec<MessageSet>,
    known: Vec<u32>,
    rumors: Option<RumorSpace>,
    rumor_diff_scratch: Vec<u64>,
    alive: BitSet,
    present: BitSet,
    full: BitSet,
    metrics: Metrics,
    update_pools: UpdatePools,
    transfer_scratch: Vec<Transfer>,
    grouped_scratch: Vec<Transfer>,
    bucket_scratch: Vec<u32>,
    reader_scratch: Vec<u32>,
    pending_scratch: Vec<Option<UpdatePayload>>,
    scalar_scratch: Vec<(NodeId, usize, MessageSet)>,
    schedule: Vec<LivenessEvent>,
    byzantine: BitSet,
    edge_up: BitSet,
}

impl SimulationArena {
    /// Builds a simulation over `graph`, reusing parked storage when
    /// available. The returned simulation is indistinguishable from
    /// `Simulation::new(graph, seed)` — default configuration; re-apply
    /// [`Simulation::with_threads`] / loss per run as needed.
    pub fn checkout<'g>(&mut self, graph: &'g Graph, seed: u64) -> Simulation<'g> {
        self.checkout_with(graph, seed, None)
    }

    /// Builds a *streaming* simulation over `graph` with the given rumor
    /// universe, reusing parked storage when available — the arena
    /// counterpart of [`Simulation::new_streaming`], from which the result
    /// is indistinguishable.
    pub fn checkout_streaming<'g>(
        &mut self,
        graph: &'g Graph,
        seed: u64,
        universe: usize,
    ) -> Simulation<'g> {
        self.checkout_with(graph, seed, Some(universe))
    }

    fn checkout_with<'g>(
        &mut self,
        graph: &'g Graph,
        seed: u64,
        streaming: Option<usize>,
    ) -> Simulation<'g> {
        self.stats.record(self.parked.is_some());
        let Some(st) = self.parked.take() else {
            return match streaming {
                Some(universe) => Simulation::new_streaming(graph, seed, universe),
                None => Simulation::new(graph, seed),
            };
        };
        let mut sim = Simulation {
            graph,
            states: st.states,
            known: st.known,
            universe: 0,
            rumors: st.rumors,
            rumor_diff_scratch: st.rumor_diff_scratch,
            alive: st.alive,
            alive_count: 0,
            present: st.present,
            departed_count: 0,
            full: st.full,
            fully_informed: 0,
            tracked: None,
            metrics: st.metrics,
            rng: engine_rng(seed),
            threads: 1,
            loss_probability: 0.0,
            schedule: st.schedule,
            next_event: 0,
            update_pools: st.update_pools,
            transfer_scratch: st.transfer_scratch,
            grouped_scratch: st.grouped_scratch,
            bucket_scratch: st.bucket_scratch,
            reader_scratch: st.reader_scratch,
            pending_scratch: st.pending_scratch,
            scalar_scratch: st.scalar_scratch,
            byzantine: st.byzantine,
            byzantine_count: 0,
            edge_up: st.edge_up,
            edge_down_count: 0,
        };
        // The reset re-derives every run-dependent field from the graph, so
        // the placeholder counts above never become observable.
        match streaming {
            Some(universe) => sim.reset_streaming(graph, seed, universe),
            None => sim.reset(graph, seed),
        }
        sim
    }

    /// Reuse-vs-fresh counters over this arena's checkouts.
    pub fn stats(&self) -> rpc_obs::ReuseStats {
        self.stats
    }

    /// Takes a simulation's storage back for the next [`Self::checkout`].
    /// The graph borrow ends here; run results should be read off the
    /// simulation before recycling.
    pub fn recycle(&mut self, sim: Simulation<'_>) {
        let Simulation {
            states,
            known,
            rumors,
            rumor_diff_scratch,
            alive,
            present,
            full,
            metrics,
            update_pools,
            transfer_scratch,
            grouped_scratch,
            bucket_scratch,
            reader_scratch,
            pending_scratch,
            scalar_scratch,
            mut schedule,
            byzantine,
            edge_up,
            ..
        } = sim;
        schedule.clear();
        self.parked = Some(SimulationStorage {
            states,
            known,
            rumors,
            rumor_diff_scratch,
            alive,
            present,
            full,
            metrics,
            update_pools,
            transfer_scratch,
            grouped_scratch,
            bucket_scratch,
            reader_scratch,
            pending_scratch,
            scalar_scratch,
            schedule,
            byzantine,
            edge_up,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpc_graphs::prelude::*;
    use rpc_graphs::topology::path;

    fn complete(n: usize) -> Graph {
        CompleteGraph::new(n).generate(0)
    }

    #[test]
    fn initial_state_is_own_message_only() {
        let g = complete(8);
        let sim = Simulation::new(&g, 1);
        for v in 0..8u32 {
            assert!(sim.knows(v, v));
            assert_eq!(sim.num_known(v), 1);
            assert!(!sim.is_fully_informed(v));
        }
        assert_eq!(sim.fully_informed_count(), 0);
        assert!(!sim.gossip_complete());
        assert_eq!(sim.informed_count_of(3), 1);
    }

    #[test]
    fn single_node_network_is_immediately_complete() {
        let g = complete(1);
        let sim = Simulation::new(&g, 1);
        assert!(sim.gossip_complete());
        assert_eq!(sim.fully_informed_count(), 1);
        assert_eq!(sim.participating_count(), 1);
        assert_eq!(sim.participating_informed_count(), 1);
    }

    #[test]
    fn deliver_merges_messages_and_counts_packets() {
        let g = complete(4);
        let mut sim = Simulation::new(&g, 2);
        let added = sim.deliver(&[Transfer::new(0, 1), Transfer::new(2, 1)]);
        assert_eq!(added, 2);
        assert!(sim.knows(1, 0) && sim.knows(1, 2) && sim.knows(1, 1));
        assert_eq!(sim.num_known(1), 3);
        assert_eq!(sim.metrics().total_packets(), 2);
        assert_eq!(sim.informed_count_of(0), 2);
    }

    #[test]
    fn deferred_delivery_uses_begin_of_step_states() {
        // Chain 0 -> 1 -> 2 submitted in one step: node 2 must NOT yet learn
        // message 0 (it only gets node 1's begin-of-step state).
        let g = complete(3);
        let mut sim = Simulation::new(&g, 3);
        sim.deliver(&[Transfer::new(0, 1), Transfer::new(1, 2)]);
        assert!(sim.knows(1, 0));
        assert!(sim.knows(2, 1));
        assert!(!sim.knows(2, 0), "message must not travel two hops in one step");
    }

    #[test]
    fn repeated_exchange_along_a_path_reaches_the_fixpoint() {
        // Exchanging along every edge of a 6-node path informs everyone
        // within the path's diameter of steps; 20 steps leave ample slack.
        let g = path(6);
        let mut sim = Simulation::new(&g, 9);
        for _ in 0..20 {
            let mut transfers = Vec::new();
            for v in 0..6u32 {
                for u in g.neighbors(v).iter() {
                    transfers.push(Transfer::new(v, u));
                }
            }
            sim.deliver(&transfers);
        }
        assert!(sim.gossip_complete(), "deferred delivery did not converge");
    }

    #[test]
    fn parallel_delivery_matches_sequential() {
        let g = ErdosRenyi::with_expected_degree(256, 12.0).generate(4);
        let mut transfers = Vec::new();
        let mut seq = Simulation::new(&g, 5);
        let mut par = Simulation::new(&g, 5).with_threads(4);
        // Build a deterministic, fairly dense transfer batch.
        for v in g.nodes() {
            for u in g.neighbors(v).iter().take(3) {
                transfers.push(Transfer::new(v, u));
            }
        }
        for _ in 0..4 {
            let a = seq.deliver(&transfers);
            let b = par.deliver(&transfers);
            assert_eq!(a, b);
        }
        for v in g.nodes() {
            assert_eq!(seq.num_known(v), par.num_known(v));
            assert_eq!(seq.state(v), par.state(v));
        }
    }

    #[test]
    fn dispatch_diagnostics_track_the_adaptive_core_choice() {
        // n = 1k: the state table (1024 × 16 words) is far below the cache
        // budget, so every dense sequential round must take the scalar core;
        // with worker threads configured the same batch must go to the batch
        // core. The outcome (who knows what) is identical either way — only
        // the diagnostics differ.
        let g = ErdosRenyi::with_expected_degree(1024, 8.0).generate(7);
        let mut transfers = Vec::new();
        for v in g.nodes() {
            if let Some(u) = g.neighbors(v).first() {
                transfers.push(Transfer::new(v, u));
            }
        }
        assert!(transfers.len() * 8 >= 1024, "batch must be dense for this test");

        let mut seq = Simulation::new(&g, 11);
        seq.deliver(&transfers);
        seq.deliver(&transfers);
        let cores = seq.metrics().core_rounds();
        assert_eq!((cores.scalar, cores.eager, cores.batch), (2, 0, 0));
        let last = seq.metrics().last_dispatch().expect("delivery happened");
        assert_eq!(last.core, rpc_obs::DeliveryCore::Scalar);
        assert!(last.cache_resident && !last.sparse);
        assert_eq!((last.n, last.threads), (1024, 1));

        let mut par = Simulation::new(&g, 11).with_threads(4);
        par.deliver(&transfers);
        let cores = par.metrics().core_rounds();
        assert_eq!((cores.scalar, cores.eager, cores.batch), (0, 0, 1));
        assert_eq!(par.metrics().last_dispatch().unwrap().core, rpc_obs::DeliveryCore::Batch);

        // A near-empty batch classifies as sparse (still the scalar core).
        let mut sparse = Simulation::new(&g, 11);
        sparse.deliver(&transfers[..3]);
        let last = sparse.metrics().last_dispatch().unwrap();
        assert!(last.sparse);
        assert_eq!(last.core, rpc_obs::DeliveryCore::Scalar);
        assert_eq!(last.packets, 3);
    }

    #[test]
    fn pool_and_arena_stats_observe_reuse() {
        let g = complete(64);
        let mut arena = SimulationArena::default();
        for seed in 0..2u64 {
            let mut sim = arena.checkout(&g, seed);
            let mut transfers = Vec::new();
            for v in g.nodes() {
                for u in g.neighbors(v).iter().take(2) {
                    transfers.push(Transfer::new(v, u));
                }
            }
            sim.deliver(&transfers);
            let stats = sim.pool_stats();
            assert!(stats.checkouts > 0, "dense delivery must check buffers out");
            assert!(stats.fresh <= stats.checkouts);
            arena.recycle(sim);
        }
        assert_eq!(arena.stats(), rpc_obs::ReuseStats { reused: 1, fresh: 1 });
    }

    #[test]
    fn failed_nodes_neither_send_nor_store() {
        let g = complete(4);
        let mut sim = Simulation::new(&g, 7);
        sim.fail_nodes(&[2]);
        assert!(!sim.is_alive(2));
        assert_eq!(sim.alive_count(), 3);
        let added = sim.deliver(&[
            Transfer::new(2, 0), // dropped: failed sender
            Transfer::new(1, 2), // counted but not stored: failed receiver
            Transfer::new(3, 0), // normal
        ]);
        assert_eq!(added, 1);
        assert!(!sim.knows(0, 2));
        assert!(!sim.knows(2, 1));
        assert!(sim.knows(0, 3));
        // Only the packets from alive senders are counted.
        assert_eq!(sim.metrics().total_packets(), 2);
        assert_eq!(sim.open_channel(2), None, "failed nodes do not open channels");
    }

    #[test]
    fn gossip_complete_ignores_failed_nodes() {
        let g = complete(3);
        let mut sim = Simulation::new(&g, 8);
        sim.fail_nodes(&[2]);
        // Fully inform nodes 0 and 1 only.
        sim.deliver(&[Transfer::new(0, 1), Transfer::new(1, 0)]);
        sim.deliver(&[Transfer::new(2, 0)]); // dropped, 2 is dead
        let full = MessageSet::full(3);
        sim.absorb(0, &full);
        sim.absorb(1, &full);
        assert!(sim.gossip_complete());
    }

    #[test]
    fn absorb_updates_counters_and_respects_failures() {
        let g = complete(4);
        let mut sim = Simulation::new(&g, 9);
        let mut set = MessageSet::empty(4);
        set.insert(0);
        set.insert(3);
        assert_eq!(sim.absorb(1, &set), 2);
        assert_eq!(sim.num_known(1), 3);
        sim.fail_nodes(&[2]);
        assert_eq!(sim.absorb(2, &set), 0);
        assert_eq!(sim.num_known(2), 1);
    }

    #[test]
    fn open_channel_returns_neighbors_and_counts() {
        let g = path(3);
        let mut sim = Simulation::new(&g, 10);
        for _ in 0..20 {
            let u = sim.open_channel(1).unwrap();
            assert!(u == 0 || u == 2);
        }
        assert_eq!(sim.metrics().channels_opened(), 20);
        let avoided = sim.open_channel_avoiding(1, &[0]).unwrap();
        assert_eq!(avoided, 2);
        assert_eq!(sim.open_channel_avoiding(1, &[0, 2]), None);
    }

    #[test]
    fn fully_informed_counter_reaches_n_when_everyone_knows_everything() {
        let g = complete(5);
        let mut sim = Simulation::new(&g, 11);
        let full = MessageSet::full(5);
        for v in 0..5u32 {
            sim.absorb(v, &full);
        }
        assert_eq!(sim.fully_informed_count(), 5);
        assert!(sim.gossip_complete());
        assert_eq!(sim.participating_informed_count(), 5);
    }

    #[test]
    fn departed_nodes_are_invisible_to_the_network() {
        let g = complete(4);
        let mut sim = Simulation::new(&g, 21);
        sim.kill_nodes(&[2]);
        assert!(!sim.is_present(2));
        assert!(!sim.is_participating(2));
        assert_eq!(sim.present_count(), 3);
        assert_eq!(sim.participating_count(), 3);
        // A departed node opens no channels and is never selected as a target.
        assert_eq!(sim.open_channel(2), None);
        for _ in 0..50 {
            let u = sim.open_channel(0).unwrap();
            assert_ne!(u, 2, "departed node selected as channel target");
        }
        // Transfers from and to the departed node are dropped without any
        // packet accounting.
        let added = sim.deliver(&[Transfer::new(2, 0), Transfer::new(1, 2), Transfer::new(3, 0)]);
        assert_eq!(added, 1);
        assert_eq!(sim.metrics().total_packets(), 1);
        assert_eq!(sim.metrics().packets_per_node(), &[0, 0, 0, 1]);
        assert_eq!(sim.num_known(2), 1);
        // absorb is ignored as well.
        assert_eq!(sim.absorb(2, &MessageSet::full(4)), 0);
    }

    #[test]
    fn revived_nodes_rejoin_with_their_old_state() {
        let g = complete(3);
        let mut sim = Simulation::new(&g, 22);
        sim.deliver(&[Transfer::new(1, 0)]);
        sim.kill_nodes(&[0]);
        sim.deliver(&[Transfer::new(2, 0)]); // dropped, 0 is away
        sim.revive_nodes(&[0]);
        assert!(sim.is_present(0));
        assert_eq!(sim.present_count(), 3);
        assert!(sim.knows(0, 1), "state must survive the downtime");
        assert!(!sim.knows(0, 2), "messages sent while away are not received");
        let added = sim.deliver(&[Transfer::new(2, 0)]);
        assert_eq!(added, 1);
    }

    #[test]
    fn gossip_complete_ignores_departed_nodes() {
        let g = complete(3);
        let mut sim = Simulation::new(&g, 23);
        sim.kill_nodes(&[2]);
        let full = MessageSet::full(3);
        sim.absorb(0, &full);
        sim.absorb(1, &full);
        assert!(sim.gossip_complete());
        sim.revive_nodes(&[2]);
        assert!(!sim.gossip_complete(), "rejoined node counts again");
    }

    #[test]
    fn all_departed_network_is_vacuously_complete() {
        // The all-dead presence mask: every word of alive ∧ present is zero,
        // so the word-parallel completion check finds no uninformed
        // participant and no channel can be opened.
        let g = complete(100); // not a multiple of 64: exercises the tail word
        let mut sim = Simulation::new(&g, 31);
        let everyone: Vec<NodeId> = (0..100).collect();
        sim.kill_nodes(&everyone);
        assert_eq!(sim.present_count(), 0);
        assert_eq!(sim.participating_count(), 0);
        assert_eq!(sim.participating_informed_count(), 0);
        assert!(sim.gossip_complete(), "no participants means nothing left to inform");
        for v in 0..100u32 {
            assert_eq!(sim.open_channel(v), None);
        }
        assert_eq!(sim.deliver(&[Transfer::new(0, 1)]), 0);
        assert_eq!(sim.metrics().total_packets(), 0);
        // Reviving one node makes it a (fully informed? no) participant again.
        sim.revive_nodes(&[7]);
        assert!(!sim.gossip_complete());
    }

    #[test]
    fn scheduled_events_fire_at_their_round() {
        let g = complete(4);
        let mut sim = Simulation::new(&g, 24);
        sim.schedule_kill(1, vec![3]);
        sim.schedule_revive(2, vec![3]);
        sim.schedule_crash(2, vec![1]);
        // Round 0: nothing due yet.
        sim.deliver(&[Transfer::new(3, 0)]);
        assert!(sim.knows(0, 3));
        sim.metrics_mut().finish_round();
        // Round 1: node 3 departs before any round-1 traffic.
        assert_eq!(sim.open_channel(3), None);
        sim.deliver(&[Transfer::new(3, 1)]);
        assert!(!sim.knows(1, 3));
        sim.metrics_mut().finish_round();
        // Round 2: node 3 rejoins, node 1 crashes.
        assert!(sim.open_channel(3).is_some());
        assert!(!sim.is_alive(1));
        assert!(sim.is_present(1), "crashed nodes remain addressable");
    }

    #[test]
    fn full_loss_blocks_all_progress_but_counts_packets() {
        let g = complete(4);
        let mut sim = Simulation::new(&g, 25).with_loss_probability(0.999_999);
        let added = sim.deliver(&[Transfer::new(0, 1), Transfer::new(2, 3)]);
        assert_eq!(added, 0);
        assert_eq!(sim.metrics().total_packets(), 2, "lost packets still count as sent");
    }

    #[test]
    fn loss_is_deterministic_in_seed_and_thread_count() {
        let g = ErdosRenyi::with_expected_degree(128, 10.0).generate(6);
        let mut transfers = Vec::new();
        for v in g.nodes() {
            for u in g.neighbors(v).iter().take(2) {
                transfers.push(Transfer::new(v, u));
            }
        }
        let run = |threads: usize| {
            let mut sim = Simulation::new(&g, 77).with_loss_probability(0.3).with_threads(threads);
            let mut total = 0usize;
            for _ in 0..6 {
                total += sim.deliver(&transfers);
            }
            let knowledge: Vec<usize> = g.nodes().map(|v| sim.num_known(v)).collect();
            (total, knowledge)
        };
        assert_eq!(run(1), run(4), "loss must not depend on the thread count");
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn loss_probability_must_be_a_probability() {
        let g = complete(2);
        let _ = Simulation::new(&g, 1).with_loss_probability(1.5);
    }

    #[test]
    fn self_transfers_are_counted_but_change_nothing() {
        let g = Graph::from_edges(2, &[(0, 0), (0, 1)]);
        let mut sim = Simulation::new(&g, 12);
        let added = sim.deliver(&[Transfer::new(0, 0)]);
        assert_eq!(added, 0);
        assert_eq!(sim.metrics().total_packets(), 1);
    }

    #[test]
    fn tracked_rumor_count_matches_the_scan() {
        let g = ErdosRenyi::with_expected_degree(150, 10.0).generate(9);
        let mut sim = Simulation::new(&g, 13);
        sim.track_message(42);
        assert_eq!(sim.tracked_message(), Some(42));
        assert_eq!(sim.tracked_informed_count(), 1);
        // Drive a few dozen random-ish deterministic steps and compare the
        // incremental count against the O(n) scan after every one.
        for round in 0..30u32 {
            let mut transfers = Vec::new();
            for v in g.nodes() {
                let nbrs = g.neighbors(v);
                if !nbrs.is_empty() {
                    let u = nbrs.get((v as usize + round as usize) % nbrs.len());
                    transfers.push(Transfer::new(v, u));
                    transfers.push(Transfer::new(u, v));
                }
            }
            sim.deliver(&transfers);
            assert_eq!(
                sim.tracked_informed_count(),
                sim.informed_count_of(42),
                "incremental tracked count diverged at round {round}"
            );
        }
    }

    #[test]
    fn tracked_rumor_is_maintained_by_absorb_and_delivery() {
        let g = complete(5);
        let mut sim = Simulation::new(&g, 14);
        sim.track_message(0);
        assert_eq!(sim.tracked_informed_count(), 1);
        sim.deliver(&[Transfer::new(0, 1), Transfer::new(1, 2)]);
        assert_eq!(sim.tracked_informed_count(), 2, "the rumor travels one hop per step");
        sim.deliver(&[Transfer::new(1, 2)]);
        assert_eq!(sim.tracked_informed_count(), 3);
        sim.absorb(4, &MessageSet::singleton(5, 0));
        assert_eq!(sim.tracked_informed_count(), 4);
        assert_eq!(sim.tracked_informed_count(), sim.informed_count_of(0));
    }

    #[test]
    #[should_panic(expected = "no tracked message")]
    fn tracked_count_without_tracking_panics() {
        let g = complete(2);
        let sim = Simulation::new(&g, 1);
        let _ = sim.tracked_informed_count();
    }

    #[test]
    fn streaming_start_configuration_decouples_universe_from_node_count() {
        let g = complete(8);
        let sim = Simulation::new_streaming(&g, 1, 3);
        assert_eq!(sim.num_nodes(), 8);
        assert_eq!(sim.universe(), 3);
        for v in 0..8u32 {
            assert_eq!(sim.num_known(v), 0);
            assert!(!sim.is_fully_informed(v));
        }
        for m in 0..3u32 {
            assert_eq!(sim.rumor_informed_count(m), 0);
            assert!(!sim.rumor_injected(m));
            assert!(!sim.rumor_expired(m));
        }
        assert!(!sim.gossip_complete(), "uninjected rumors still count toward full knowledge");
    }

    #[test]
    fn injected_rumors_spread_and_counts_stay_incremental() {
        let g = complete(6);
        let mut sim = Simulation::new_streaming(&g, 2, 2);
        assert!(sim.inject_rumor(0, 0));
        assert!(!sim.inject_rumor(0, 0), "second injection is a no-op");
        assert!(sim.rumor_injected(0));
        assert_eq!(sim.rumor_informed_count(0), 1);
        sim.deliver(&[Transfer::new(0, 1), Transfer::new(0, 2)]);
        assert_eq!(sim.rumor_informed_count(0), 3);
        assert_eq!(sim.rumor_informed_count(0), sim.informed_count_of(0));
        assert_eq!(sim.rumor_informed_count(1), 0, "uninjected rumor stays unknown");
        // Injecting the second rumor at a node that already knows the first
        // completes it on the spot; forwarding completes the receiver too.
        sim.inject_rumor(1, 1);
        assert!(sim.is_fully_informed(1));
        sim.deliver(&[Transfer::new(1, 0)]);
        assert!(sim.knows(0, 0) && sim.knows(0, 1));
        assert!(sim.is_fully_informed(0));
        assert_eq!(sim.fully_informed_count(), 2);
    }

    #[test]
    fn injection_into_dead_or_departed_nodes_is_dropped() {
        let g = complete(4);
        let mut sim = Simulation::new_streaming(&g, 3, 2);
        sim.fail_nodes(&[1]);
        sim.kill_nodes(&[2]);
        assert!(!sim.inject_rumor(1, 0), "crashed node stores nothing");
        assert!(!sim.inject_rumor(2, 0), "departed node stores nothing");
        assert_eq!(sim.rumor_informed_count(0), 0);
        assert!(sim.rumor_injected(0), "the arrival itself is recorded");
    }

    #[test]
    fn expired_rumor_vanishes_globally_and_never_reappears() {
        let g = complete(5);
        let mut sim = Simulation::new_streaming(&g, 4, 2);
        sim.inject_rumor(0, 0);
        sim.inject_rumor(3, 1);
        sim.deliver(&[Transfer::new(0, 1), Transfer::new(0, 2), Transfer::new(3, 0)]);
        assert_eq!(sim.rumor_informed_count(0), 3);
        sim.expire_rumor(0);
        assert!(sim.rumor_expired(0));
        assert_eq!(sim.rumor_informed_count(0), 0);
        assert_eq!(sim.informed_count_of(0), 0, "no copy survives anywhere");
        assert!(!sim.inject_rumor(0, 0), "expired rumor is rejected forever");
        assert_eq!(sim.rumor_informed_count(0), 0);
        // The other rumor is untouched and keeps spreading.
        assert_eq!(sim.rumor_informed_count(1), 2);
        sim.deliver(&[Transfer::new(0, 4)]);
        assert_eq!(sim.rumor_informed_count(1), 3);
    }

    #[test]
    fn expiry_revokes_fully_informed_status() {
        let g = complete(3);
        let mut sim = Simulation::new_streaming(&g, 5, 2);
        sim.inject_rumor(0, 0);
        sim.inject_rumor(0, 1);
        assert!(sim.is_fully_informed(0));
        assert_eq!(sim.fully_informed_count(), 1);
        sim.expire_rumor(1);
        assert!(!sim.is_fully_informed(0));
        assert_eq!(sim.fully_informed_count(), 0);
        assert_eq!(sim.num_known(0), 1);
    }

    #[test]
    fn scheduled_injections_fire_after_environment_events_of_the_same_round() {
        let g = complete(4);
        let mut sim = Simulation::new_streaming(&g, 6, 1);
        // Node 2 crashes at round 1 *before* the same-round injection into it
        // (stable sort keeps insertion order within a round).
        sim.schedule_crash(1, vec![2]);
        sim.schedule_injection(1, 2, 0);
        sim.metrics_mut().finish_round();
        sim.deliver(&[]);
        assert!(!sim.is_alive(2));
        assert_eq!(sim.rumor_informed_count(0), 0, "injection hit the already-crashed node");
        assert!(sim.rumor_injected(0));
    }

    #[test]
    fn scheduled_expiry_fires_at_its_round() {
        let g = complete(4);
        let mut sim = Simulation::new_streaming(&g, 7, 1);
        sim.inject_rumor(0, 0);
        sim.schedule_expiry(2, 0);
        sim.deliver(&[Transfer::new(0, 1)]);
        sim.metrics_mut().finish_round();
        assert_eq!(sim.rumor_informed_count(0), 2);
        sim.metrics_mut().finish_round();
        sim.deliver(&[Transfer::new(0, 2)]); // poll applies the expiry first
        assert_eq!(sim.rumor_informed_count(0), 0);
        assert!(sim.rumor_expired(0));
    }

    #[test]
    fn per_rumor_counts_agree_across_delivery_cores() {
        let g = ErdosRenyi::with_expected_degree(200, 10.0).generate(8);
        let mut seq = Simulation::new_streaming(&g, 9, 48);
        let mut par = Simulation::new_streaming(&g, 9, 48).with_threads(4);
        for sim in [&mut seq, &mut par] {
            for m in 0..48u32 {
                sim.inject_rumor((m * 4) % 200, m);
            }
        }
        for round in 0..12u32 {
            let mut transfers = Vec::new();
            for v in g.nodes() {
                let nbrs = g.neighbors(v);
                if !nbrs.is_empty() {
                    let u = nbrs.get((v as usize + round as usize) % nbrs.len());
                    transfers.push(Transfer::new(v, u));
                    transfers.push(Transfer::new(u, v));
                }
            }
            seq.deliver(&transfers);
            par.deliver(&transfers);
            for m in 0..48u32 {
                let scan = seq.informed_count_of(m);
                assert_eq!(seq.rumor_informed_count(m), scan, "seq diverged, rumor {m}");
                assert_eq!(par.rumor_informed_count(m), scan, "par diverged, rumor {m}");
            }
        }
        for v in g.nodes() {
            assert_eq!(seq.state(v), par.state(v), "state of {v}");
        }
    }

    #[test]
    fn absorb_maintains_per_rumor_counts() {
        let g = complete(5);
        let mut sim = Simulation::new_streaming(&g, 10, 4);
        let mut set = MessageSet::empty(4);
        set.insert(1);
        set.insert(3);
        assert_eq!(sim.absorb(2, &set), 2);
        assert_eq!(sim.rumor_informed_count(1), 1);
        assert_eq!(sim.rumor_informed_count(3), 1);
        assert_eq!(sim.rumor_informed_count(0), 0);
    }

    #[test]
    fn reset_streaming_replays_a_fresh_streaming_run_bit_for_bit() {
        let g = ErdosRenyi::with_expected_degree(120, 9.0).generate(12);
        let mut reused = Simulation::new_streaming(&g, 1, 16).with_loss_probability(0.2);
        for m in 0..16u32 {
            reused.schedule_injection(m as u64 % 5, (m * 7) % 120, m);
        }
        reused.schedule_expiry(8, 3);
        let _ = fingerprint(&mut reused, 6);
        reused.reset_streaming(&g, 42, 16);
        let mut fresh = Simulation::new_streaming(&g, 42, 16);
        for sim in [&mut reused, &mut fresh] {
            for m in 0..16u32 {
                sim.schedule_injection(m as u64 % 4, (m * 3) % 120, m);
            }
            sim.schedule_expiry(6, 5);
        }
        assert_eq!(fingerprint(&mut reused, 8), fingerprint(&mut fresh, 8));
        for v in g.nodes() {
            assert_eq!(reused.state(v), fresh.state(v), "state of {v}");
        }
        for m in 0..16u32 {
            assert_eq!(reused.rumor_informed_count(m), fresh.rumor_informed_count(m));
            assert_eq!(reused.rumor_expired(m), fresh.rumor_expired(m));
        }
    }

    #[test]
    fn arena_checkout_streaming_equals_fresh_construction() {
        let g = ErdosRenyi::with_expected_degree(100, 8.0).generate(13);
        let mut arena = SimulationArena::default();
        // Classic, streaming, streaming with another universe, classic again:
        // mode switches must never leak stale bookkeeping.
        for (streaming, seed) in [(None, 1u64), (Some(12), 2), (Some(30), 3), (None, 4)] {
            let mut sim = match streaming {
                Some(u) => arena.checkout_streaming(&g, seed, u),
                None => arena.checkout(&g, seed),
            };
            let mut fresh = match streaming {
                Some(u) => Simulation::new_streaming(&g, seed, u),
                None => Simulation::new(&g, seed),
            };
            if let Some(u) = streaming {
                for m in 0..u as u32 {
                    sim.schedule_injection(m as u64 % 3, (m * 5) % 100, m);
                    fresh.schedule_injection(m as u64 % 3, (m * 5) % 100, m);
                }
            }
            assert_eq!(fingerprint(&mut sim, 6), fingerprint(&mut fresh, 6));
            assert_eq!(sim.universe(), fresh.universe());
            for v in g.nodes() {
                assert_eq!(sim.state(v), fresh.state(v));
            }
            arena.recycle(sim);
        }
    }

    /// Drives a deterministic mixed workload and returns the full observable
    /// fingerprint: channel choices, delivery counts, final states, metrics.
    fn fingerprint(
        sim: &mut Simulation<'_>,
        rounds: u32,
    ) -> (Vec<Option<NodeId>>, Vec<usize>, u64) {
        let n = sim.num_nodes();
        let mut channels = Vec::new();
        let mut added = Vec::new();
        for _ in 0..rounds {
            let mut transfers = Vec::new();
            for v in 0..n as NodeId {
                let u = sim.open_channel(v);
                channels.push(u);
                if let Some(u) = u {
                    transfers.push(Transfer::new(v, u));
                    transfers.push(Transfer::new(u, v));
                }
            }
            added.push(sim.deliver(&transfers));
            sim.metrics_mut().finish_round();
        }
        (channels, added, sim.metrics().total_packets())
    }

    #[test]
    fn reset_replays_a_fresh_simulation_bit_for_bit() {
        let g = ErdosRenyi::with_expected_degree(200, 10.0).generate(3);
        // Dirty a simulation thoroughly: loss, churn schedule, tracking.
        let mut reused = Simulation::new(&g, 1).with_loss_probability(0.3);
        reused.track_message(7);
        reused.schedule_kill(1, vec![2, 3]);
        reused.schedule_crash(2, vec![9]);
        let _ = fingerprint(&mut reused, 6);
        // Reset and replay against a genuinely fresh simulation.
        reused.reset(&g, 42);
        let mut fresh = Simulation::new(&g, 42);
        assert_eq!(reused.loss_probability(), 0.0, "loss must reset");
        assert_eq!(fingerprint(&mut reused, 8), fingerprint(&mut fresh, 8));
        for v in g.nodes() {
            assert_eq!(reused.state(v), fresh.state(v), "state of {v}");
            assert_eq!(reused.num_known(v), fresh.num_known(v));
        }
        assert_eq!(reused.fully_informed_count(), fresh.fully_informed_count());
        assert_eq!(reused.gossip_complete(), fresh.gossip_complete());
    }

    #[test]
    fn reset_handles_universe_changes_in_both_directions() {
        let big = ErdosRenyi::with_expected_degree(300, 9.0).generate(5);
        let small = CompleteGraph::new(17).generate(0);
        let mut sim = Simulation::new(&big, 1);
        let _ = fingerprint(&mut sim, 4);
        for (graph, seed) in [(&small, 9u64), (&big, 10), (&small, 11)] {
            sim.reset(graph, seed);
            let mut fresh = Simulation::new(graph, seed);
            assert_eq!(sim.num_nodes(), graph.num_nodes());
            assert_eq!(fingerprint(&mut sim, 5), fingerprint(&mut fresh, 5));
        }
    }

    #[test]
    fn reset_single_node_is_immediately_complete() {
        let big = complete(8);
        let one = complete(1);
        let mut sim = Simulation::new(&big, 2);
        let _ = fingerprint(&mut sim, 2);
        sim.reset(&one, 3);
        assert!(sim.gossip_complete());
        assert_eq!(sim.fully_informed_count(), 1);
    }

    #[test]
    fn arena_checkout_equals_fresh_construction() {
        let g = ErdosRenyi::with_expected_degree(150, 8.0).generate(11);
        let small = CompleteGraph::new(12).generate(0);
        let mut arena = SimulationArena::default();
        // Big run, small run, big run — stale storage must never leak.
        for (graph, seed) in [(&g, 1u64), (&small, 2), (&g, 3)] {
            let mut sim = arena.checkout(graph, seed).with_loss_probability(0.1);
            let mut fresh = Simulation::new(graph, seed).with_loss_probability(0.1);
            assert_eq!(fingerprint(&mut sim, 6), fingerprint(&mut fresh, 6));
            for v in graph.nodes() {
                assert_eq!(sim.state(v), fresh.state(v));
            }
            arena.recycle(sim);
        }
    }

    #[test]
    fn scalar_and_batch_delivery_cores_agree() {
        // Small n → sequential delivery takes the scalar core; threads > 1
        // takes the batch core. Groups with 1, 2 and 3+ senders, a fully
        // informed sender, and a tracked rumor must all commit identically.
        let g = CompleteGraph::new(96).generate(0);
        let mut scalar = Simulation::new(&g, 5);
        let mut batch = Simulation::new(&g, 5).with_threads(4);
        for sim in [&mut scalar, &mut batch] {
            sim.track_message(3);
            sim.absorb(7, &MessageSet::full(96)); // endgame-shaped sender
        }
        let mut transfers = Vec::new();
        for v in 0..96u32 {
            transfers.push(Transfer::new(v, (v + 1) % 96)); // 1 sender each
            if v % 2 == 0 {
                transfers.push(Transfer::new(v, (v + 2) % 96)); // 2nd sender
            }
            if v % 4 == 0 {
                transfers.push(Transfer::new(v, (v + 4) % 96)); // 3rd/4th
                transfers.push(Transfer::new(v, (v + 8) % 96));
            }
        }
        for round in 0..5 {
            let a = scalar.deliver(&transfers);
            let b = batch.deliver(&transfers);
            assert_eq!(a, b, "added diverged at round {round}");
            assert_eq!(scalar.tracked_informed_count(), batch.tracked_informed_count());
        }
        for v in g.nodes() {
            assert_eq!(scalar.state(v), batch.state(v), "state of {v}");
            assert_eq!(scalar.num_known(v), batch.num_known(v));
        }
        assert_eq!(scalar.fully_informed_count(), batch.fully_informed_count());
    }
}
