//! Declarative scenario specifications.
//!
//! A [`Scenario`] bundles everything one simulated workload needs: a
//! [`TopologySpec`] (which graph model at which scale), a [`ProtocolSpec`]
//! (which gossiping algorithm), an [`EnvironmentSpec`] (message loss, loss
//! bursts, churn, crash bursts, failure zones, edge churn, Byzantine
//! senders, adversarial start placement), an optional [`InjectionSpec`]
//! (multi-rumor streaming workloads: how many rumors, when and where they
//! appear, how long they live), and a [`StopRule`]. Scenarios are built
//! either with the builder API ([`Scenario::builder`]) or parsed from a
//! simple `key = value` text format ([`Scenario::parse_str`]) that needs no
//! external dependencies.
//!
//! ## Text format
//!
//! One scenario per block, blocks separated by blank lines, `#` starts a
//! comment:
//!
//! ```text
//! name = churn-heavy
//! topology = erdos-renyi      # erdos-renyi | random-regular | complete
//! n = 1024
//! degree = 100                # optional; omitted = paper density log^2 n
//! protocol = push-pull        # push-pull | fast-gossiping | memory |
//!                             # broadcast-push | broadcast-push-pull |
//!                             # leader-election
//! loss = 0.05                 # per-packet loss probability, default 0
//! loss-burst = 4:6:0.5        # start:len:prob, repeatable, default none
//! churn = 0.1:4:8             # fraction:period:downtime, default none
//! crash = 3:64                # round:count[@zone], default none
//! zones = 8                   # number of failure zones, default none
//! edge-churn = 0.2:4          # fraction:period, default none
//! byzantine = 0.1             # fraction of silently-dropping nodes, default 0
//! rumors = 16                 # streaming rumor count, default none (classic)
//! inject = poisson:1.5        # poisson:rate | hotspot:node:count |
//!                             # round:source (repeatable), default poisson:1
//! rumor-ttl = 32              # rounds until global expiry, default none
//! start = min-degree          # random | min-degree | max-degree
//! stop = complete             # complete | rounds:N | coverage:F | all-rumors
//! max-rounds = 400            # safety cap, default 64 * log2(n) + 64
//! ```
//!
//! ### Formal grammar
//!
//! The format, in EBNF (terminals quoted; `*` is repetition, `?` is option,
//! `|` is alternation):
//!
//! ```text
//! file       = block ( blank-line+ block )* ;
//! block      = line+ ;
//! line       = ( entry )? comment? newline ;
//! entry      = key ws? "=" ws? value ;
//! comment    = "#" ⟨any characters except newline⟩ ;
//! blank-line = ws? comment? newline ;          (* comment-only lines do NOT
//!                                                 separate blocks *)
//!
//! key        = "name" | "topology" | "n" | "degree" | "protocol" | "loss"
//!            | "loss-burst" | "churn" | "crash" | "zones" | "edge-churn"
//!            | "byzantine" | "rumors" | "inject" | "rumor-ttl" | "start"
//!            | "stop" | "max-rounds" ;
//!
//! value      =                                 (* per key: *)
//!     ⟨name⟩     : string                      (* non-empty after trimming;
//!                                                 must not contain "#" or
//!                                                 line breaks *)
//!   | ⟨topology⟩ : "erdos-renyi" | "random-regular" | "complete"
//!   | ⟨n⟩        : uint                        (* required, > 0 *)
//!   | ⟨degree⟩   : float                       (* for random-regular: a
//!                                                 positive integer *)
//!   | ⟨protocol⟩ : "push-pull" | "fast-gossiping" | "memory"
//!                | "broadcast-push" | "broadcast-push-pull"
//!                | "leader-election"
//!   | ⟨loss⟩     : float                       (* in [0, 1) *)
//!   | ⟨loss-burst⟩ : uint ":" uint ":" float   (* start:len:prob; the only
//!                                                 repeatable key — each
//!                                                 occurrence appends one
//!                                                 burst *)
//!   | ⟨churn⟩    : float ":" uint ":" uint     (* fraction:period:downtime *)
//!   | ⟨crash⟩    : uint ":" uint ( "@" uint )? (* round:count[@zone]; "@"
//!                                                 confines the burst to one
//!                                                 failure zone and requires
//!                                                 the "zones" key *)
//!   | ⟨zones⟩    : uint                        (* failure domains, in
//!                                                 [1, n] *)
//!   | ⟨edge-churn⟩ : float ":" uint            (* fraction:period *)
//!   | ⟨byzantine⟩ : float                      (* in [0, 1] *)
//!   | ⟨rumors⟩   : uint                        (* ≥ 1; decouples the rumor
//!                                                 space from n and switches
//!                                                 the run to streaming mode *)
//!   | ⟨inject⟩   : "poisson:" float            (* mean arrivals per round *)
//!                | "hotspot:" uint ":" uint    (* node:count — count rumors
//!                                                 per round at one node *)
//!                | uint ":" uint               (* round:source — repeatable
//!                                                 like loss-burst; each
//!                                                 occurrence appends one
//!                                                 explicit entry; explicit
//!                                                 entries cannot be mixed
//!                                                 with the sampled forms *)
//!   | ⟨rumor-ttl⟩ : uint                       (* ≥ 1; rounds from injection
//!                                                 to global expiry *)
//!   | ⟨start⟩    : "random" | "min-degree" | "max-degree"
//!   | ⟨stop⟩     : "complete" | "rounds:" uint | "coverage:" float
//!                | "all-rumors"
//!   | ⟨max-rounds⟩ : uint ;                    (* ≥ 1 *)
//! ```
//!
//! Whitespace around keys and values is trimmed; everything from `#` to the
//! end of the line is ignored. `name` and `n` are required, every other key
//! is optional and defaults as documented above; duplicate keys are allowed
//! and the last occurrence wins — except `loss-burst`, which is repeatable
//! and accumulates one [`LossBurstSpec`] per occurrence (in file order).
//! Keys outside the list are rejected —
//! [`Scenario::parse_str`] collects **all** unrecognized keys of a block and
//! reports them in one [`ScenarioError::Parse`] so a typo-ridden file is
//! fixed in a single round trip. Semantic constraints (value ranges, a
//! `rounds:` budget within the `max-rounds` cap, even `n · degree` for
//! regular graphs, …) are enforced by [`ScenarioBuilder::build`] after
//! parsing and reported as [`ScenarioError::Invalid`]. Every stop rule and
//! an explicit `max-rounds` cap are valid for **every** protocol: the
//! executor drives all of them one round at a time through
//! [`rpc_gossip::ProtocolDriver`].

use std::fmt;

use rpc_graphs::log2n;
use rpc_graphs::prelude::*;

/// Errors produced while building or parsing a scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioError {
    /// The text format could not be parsed; the message names the offending
    /// key or line.
    Parse(String),
    /// The specification is structurally valid but semantically inconsistent
    /// (e.g. a coverage stop rule on a phase-based protocol).
    Invalid(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(msg) => write!(f, "scenario parse error: {msg}"),
            ScenarioError::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Which graph model a scenario runs on.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySpec {
    /// Erdős–Rényi `G(n, p)` at the paper's density `p = log² n / n`.
    ErdosRenyiPaper {
        /// Number of nodes.
        n: usize,
    },
    /// Erdős–Rényi with an explicit expected degree.
    ErdosRenyiDegree {
        /// Number of nodes.
        n: usize,
        /// Expected degree `p (n - 1)`.
        degree: f64,
    },
    /// Random `d`-regular simple graph.
    RandomRegular {
        /// Number of nodes.
        n: usize,
        /// Degree of every node (`n * degree` must be even).
        degree: usize,
    },
    /// The complete graph `K_n`.
    Complete {
        /// Number of nodes.
        n: usize,
    },
}

impl TopologySpec {
    /// Number of nodes of the generated graphs.
    pub fn num_nodes(&self) -> usize {
        match *self {
            TopologySpec::ErdosRenyiPaper { n }
            | TopologySpec::ErdosRenyiDegree { n, .. }
            | TopologySpec::RandomRegular { n, .. }
            | TopologySpec::Complete { n } => n,
        }
    }

    /// Instantiates the corresponding graph generator.
    pub fn build(&self) -> Box<dyn GraphGenerator> {
        match *self {
            TopologySpec::ErdosRenyiPaper { n } => Box::new(ErdosRenyi::paper_density(n)),
            TopologySpec::ErdosRenyiDegree { n, degree } => {
                Box::new(ErdosRenyi::with_expected_degree(n, degree))
            }
            TopologySpec::RandomRegular { n, degree } => Box::new(RandomRegular::new(n, degree)),
            TopologySpec::Complete { n } => Box::new(CompleteGraph::new(n)),
        }
    }

    /// Short label for reports. Comma-free so the labels survive the plain
    /// (unquoted) CSV rendering of experiment tables.
    pub fn label(&self) -> String {
        match *self {
            TopologySpec::ErdosRenyiPaper { n } => format!("er-paper(n={n})"),
            TopologySpec::ErdosRenyiDegree { n, degree } => format!("er(n={n} d={degree:.0})"),
            TopologySpec::RandomRegular { n, degree } => format!("regular(n={n} d={degree})"),
            TopologySpec::Complete { n } => format!("complete(n={n})"),
        }
    }
}

/// Which gossiping protocol a scenario runs. Every protocol supports every
/// [`StopRule`] — the executor drives each of them one round at a time
/// through its [`rpc_gossip::ProtocolDriver`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ProtocolSpec {
    /// The simple push-pull baseline (Algorithm 4).
    #[default]
    PushPull,
    /// Algorithm 1 (distribution, random walks, broadcast).
    FastGossiping,
    /// Algorithm 2 (memory model: leader tree, gather, broadcast).
    Memory,
    /// The push broadcast baseline (Pittel): informed nodes push the rumor.
    /// Requires a streaming injection — broadcasting spreads injected rumors,
    /// not the classic one-rumor-per-node start.
    BroadcastPush,
    /// The push-pull broadcast baseline (Karp et al.). Requires a streaming
    /// injection, like [`Self::BroadcastPush`].
    BroadcastPushPull,
    /// Algorithm 3 (randomized leader election in the memory model). Success
    /// is a unique universally known leader, reported through
    /// [`rpc_gossip::ElectionSummary`] on the scenario outcome.
    LeaderElection,
}

impl ProtocolSpec {
    /// Report label: the name of the protocol's
    /// [`rpc_gossip::ProtocolDriver`].
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolSpec::PushPull => "push-pull",
            ProtocolSpec::FastGossiping => "fast-gossiping",
            ProtocolSpec::Memory => "memory",
            ProtocolSpec::BroadcastPush => "broadcast-push",
            ProtocolSpec::BroadcastPushPull => "broadcast-push-pull",
            ProtocolSpec::LeaderElection => "leader-election",
        }
    }

    /// Whether the protocol runs on the streaming rumor engine (and may thus
    /// carry an injection spec): push-pull and the broadcast baselines spread
    /// whatever rumors exist, while the phase-based protocols and the leader
    /// election assume the classic one-rumor-per-node start.
    pub fn supports_streaming(&self) -> bool {
        matches!(
            self,
            ProtocolSpec::PushPull | ProtocolSpec::BroadcastPush | ProtocolSpec::BroadcastPushPull
        )
    }

    /// Whether the protocol is a single/streamed-rumor broadcast baseline,
    /// which *requires* an injection spec (there is no classic start to fall
    /// back to).
    pub fn is_broadcast(&self) -> bool {
        matches!(self, ProtocolSpec::BroadcastPush | ProtocolSpec::BroadcastPushPull)
    }
}

/// Periodic churn: every `period` rounds a fresh uniformly random set of
/// `fraction · n` nodes departs and rejoins `downtime` rounds later with its
/// state intact.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnSpec {
    /// Fraction of nodes departing per wave, in `[0, 1]`.
    pub fraction: f64,
    /// Rounds between consecutive waves (≥ 1).
    pub period: u64,
    /// Rounds a departed node stays out (≥ 1).
    pub downtime: u64,
}

/// A one-shot crash burst: `count` uniformly random nodes crash at the start
/// of `round` and never recover (the paper's failure model — crashed nodes
/// remain addressable but neither transmit nor store). With a `zone`, the
/// burst is correlated: all crashing nodes are drawn from that failure zone
/// (see [`EnvironmentSpec::zones`] and [`zone_of`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// Round at which the burst fires.
    pub round: u64,
    /// Number of crashing nodes.
    pub count: usize,
    /// Failure zone the crashing nodes are drawn from; `None` samples from
    /// the whole population. Requires [`EnvironmentSpec::zones`].
    pub zone: Option<usize>,
}

/// A window of elevated message loss: during rounds `start ..= start+len-1`
/// every packet is additionally dropped with probability `prob`, layered
/// multiplicatively over the base rate and any other overlapping bursts (a
/// packet survives a round only if it survives every active loss source; see
/// [`EnvironmentSpec::loss_at`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LossBurstSpec {
    /// First round of the burst.
    pub start: u64,
    /// Number of rounds the burst lasts (≥ 1).
    pub len: u64,
    /// Additional per-packet loss probability while active, in `[0, 1)`.
    pub prob: f64,
}

impl LossBurstSpec {
    /// Whether the burst is active at `round`.
    pub fn active_at(&self, round: u64) -> bool {
        round >= self.start && round - self.start < self.len
    }
}

/// Periodic edge churn (a dynamic topology): every `period` rounds a fresh
/// uniformly random set of `fraction · m` undirected edges goes down,
/// replacing the previous wave's set (edges from earlier waves come back
/// up). A down edge cannot be chosen as a communication channel in either
/// direction, but delivery on already-open channels is unaffected.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeChurnSpec {
    /// Fraction of undirected edges down per wave, in `[0, 1]`.
    pub fraction: f64,
    /// Rounds between consecutive waves (≥ 1).
    pub period: u64,
}

/// One explicit injection: a rumor appears at `source` at the start of
/// `round`. Explicit entries are indexed by position — the `m`-th entry of
/// [`InjectPattern::Explicit`] injects rumor id `m`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectionEntry {
    /// Round at whose boundary the rumor is injected.
    pub round: u64,
    /// Node the rumor first appears at.
    pub source: NodeId,
}

/// When and where streaming rumors enter the network. The sampled forms
/// (Poisson, hotspot) draw their schedules from the seeded environment RNG
/// at prepare time — after the tracked-rumor placement draw, per the
/// documented draw-ordering contract — so every engine replays the identical
/// schedule without drawing anything itself.
#[derive(Clone, Debug, PartialEq)]
pub enum InjectPattern {
    /// Independent arrivals: each round injects `Poisson(rate)` new rumors
    /// (Knuth's product-of-uniforms sampler) at uniformly random sources,
    /// until all `rumors` ids are spent; leftovers are injected in the last
    /// round before the `max-rounds` horizon.
    Poisson {
        /// Mean arrivals per round, positive and finite.
        rate: f64,
    },
    /// A bursty producer: `count` rumors per round, all at one fixed node,
    /// starting at round 0, until all ids are spent.
    Hotspot {
        /// The producing node.
        node: NodeId,
        /// Rumors injected per round (≥ 1).
        count: usize,
    },
    /// A fully spelled-out schedule: exactly one entry per rumor id.
    Explicit(Vec<InjectionEntry>),
}

/// A multi-rumor streaming workload: `rumors` message ids (the engine's
/// message universe, decoupled from the node count) entering the network
/// per `pattern`, each optionally expiring globally `ttl` rounds after its
/// injection.
#[derive(Clone, Debug, PartialEq)]
pub struct InjectionSpec {
    /// Size of the rumor space (≥ 1). Streaming runs start with *empty*
    /// node states; every rumor enters via injection.
    pub rumors: usize,
    /// When and where rumors are injected.
    pub pattern: InjectPattern,
    /// Rounds from a rumor's injection to its global expiry, if any. An
    /// expired rumor is removed from every node and never reappears.
    pub ttl: Option<u64>,
}

/// Where the tracked rumor starts. The scenario engine follows one original
/// message ("the rumor") for its coverage metric; adversarial placement puts
/// it where spreading is hardest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StartPlacement {
    /// A uniformly random node.
    #[default]
    Random,
    /// The minimum-degree node (worst case for push-based spreading).
    MinDegree,
    /// The maximum-degree node.
    MaxDegree,
}

impl StartPlacement {
    /// Report label.
    pub fn name(&self) -> &'static str {
        match self {
            StartPlacement::Random => "random",
            StartPlacement::MinDegree => "min-degree",
            StartPlacement::MaxDegree => "max-degree",
        }
    }
}

/// Environmental conditions of a scenario run.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct EnvironmentSpec {
    /// Per-packet message-loss probability in `[0, 1)`.
    pub loss: f64,
    /// Windows of elevated loss layered over the base rate, if any.
    pub loss_bursts: Vec<LossBurstSpec>,
    /// Periodic churn, if any.
    pub churn: Option<ChurnSpec>,
    /// One-shot crash burst, if any.
    pub crash: Option<CrashSpec>,
    /// Number of failure zones the nodes are partitioned into; `None`
    /// disables zone-correlated failures. With zones, churn waves hit one
    /// uniformly drawn zone per wave and a crash burst can be confined to a
    /// named zone via [`CrashSpec::zone`]. The partition is [`zone_of`].
    pub zones: Option<usize>,
    /// Periodic edge churn (dynamic topology), if any.
    pub edge_churn: Option<EdgeChurnSpec>,
    /// Fraction of Byzantine nodes in `[0, 1]`: a seeded uniformly random
    /// set of `byzantine · n` nodes silently drops every packet it should
    /// send (instead of forwarding), while still opening channels and
    /// receiving normally. Byzantine nodes never appear as senders.
    pub byzantine: f64,
    /// Placement of the tracked rumor.
    pub placement: StartPlacement,
}

impl EnvironmentSpec {
    /// Whether this environment perturbs the run at all. The executor skips
    /// environment scheduling entirely for benign environments, so every
    /// perturbing dimension must be reflected here — a dimension this method
    /// misses would be silently elided. (`zones` alone is excluded on
    /// purpose: it only modulates churn and crash sampling.)
    pub fn is_hostile(&self) -> bool {
        self.loss > 0.0
            || !self.loss_bursts.is_empty()
            || self.churn.is_some()
            || self.crash.is_some()
            || self.edge_churn.is_some()
            || self.byzantine > 0.0
    }

    /// Effective per-packet loss probability at `round`: the base rate and
    /// every active burst are independent drop sources, so a packet survives
    /// with probability `(1 - loss) · ∏ (1 - probᵢ)`. All factors are
    /// positive (validation keeps each probability below 1), so the result
    /// always stays in `[0, 1)`.
    pub fn loss_at(&self, round: u64) -> f64 {
        let mut burst_survive = 1.0f64;
        for burst in &self.loss_bursts {
            if burst.active_at(round) {
                burst_survive *= 1.0 - burst.prob;
            }
        }
        if burst_survive == 1.0 {
            // Outside every burst the base rate applies *exactly* — no
            // `1 - (1 - loss)` float round-trip that would perturb the
            // engine's `gen_bool` threshold relative to a burst-free run.
            self.loss
        } else {
            1.0 - (1.0 - self.loss) * burst_survive
        }
    }
}

/// Failure zone of node `v` when `n` nodes are partitioned into `zones`
/// contiguous blocks: `⌊v · zones / n⌋`. Blocks differ in size by at most
/// one node and every zone is non-empty for `zones ≤ n`.
pub fn zone_of(v: NodeId, n: usize, zones: usize) -> usize {
    debug_assert!((v as usize) < n && zones >= 1);
    ((v as u128 * zones as u128) / n as u128) as usize
}

/// The contiguous node range making up failure zone `zone` under the
/// [`zone_of`] partition: `⌈zone · n / zones⌉ .. ⌈(zone+1) · n / zones⌉`.
pub fn zone_members(zone: usize, n: usize, zones: usize) -> std::ops::Range<NodeId> {
    debug_assert!(zone < zones && zones <= n);
    let lo = (zone as u128 * n as u128).div_ceil(zones as u128) as NodeId;
    let hi = ((zone as u128 + 1) * n as u128).div_ceil(zones as u128) as NodeId;
    lo..hi
}

/// When a scenario run ends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StopRule {
    /// Run until every participating node knows every message (capped by the
    /// scenario's `max_rounds`).
    Complete,
    /// Run exactly this many rounds. Validation rejects a budget above the
    /// scenario's `max_rounds` cap — a budget the run could never spend is a
    /// user error, not something to truncate silently.
    Rounds(u64),
    /// Run until the tracked rumor is known by at least this fraction of the
    /// **alive** (crash-adjusted) population, in `(0, 1]` (capped by
    /// `max_rounds`). Churned-out nodes stay in the basis — they rejoin with
    /// state intact — while crashed nodes leave it, so the rule stays
    /// reachable after a crash burst (see `rpc_scenarios::exec` for the exact
    /// target arithmetic). With an [`InjectionSpec`] the rule applies **per
    /// rumor**: every rumor must reach the threshold (or expire) before the
    /// run stops.
    Coverage(f64),
    /// Run until every streaming rumor has either reached all participating
    /// nodes or expired (capped by `max_rounds`). Requires an
    /// [`InjectionSpec`].
    AllRumors,
}

/// A complete, validated scenario description.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Unique name used in reports and the registry.
    pub name: String,
    /// Graph model.
    pub topology: TopologySpec,
    /// Gossiping protocol.
    pub protocol: ProtocolSpec,
    /// Loss / churn / crash / placement conditions.
    pub environment: EnvironmentSpec,
    /// Multi-rumor streaming workload, if any. `None` is the classic
    /// configuration: every node starts knowing its own message and the
    /// message universe equals the node count.
    pub injection: Option<InjectionSpec>,
    /// Termination rule.
    pub stop: StopRule,
    /// Hard cap on executed rounds — applied uniformly to every protocol by
    /// the step-driven executor — and the horizon up to which churn waves are
    /// pre-sampled. Phase-based protocols (fast-gossiping, memory) are
    /// additionally bounded by their own paper configurations, whichever ends
    /// first.
    pub max_rounds: u64,
}

/// The default round cap for a graph of `n` nodes: generous enough for every
/// protocol in the registry, small enough that a stuck scenario ends quickly.
pub fn default_max_rounds(n: usize) -> u64 {
    64 * (log2n(n).ceil() as u64) + 64
}

impl Scenario {
    /// Starts building a scenario; `topology` fixes the scale.
    pub fn builder(name: impl Into<String>, topology: TopologySpec) -> ScenarioBuilder {
        ScenarioBuilder {
            name: name.into(),
            topology,
            protocol: ProtocolSpec::default(),
            environment: EnvironmentSpec::default(),
            injection: None,
            rumor_ttl: None,
            stop: StopRule::Complete,
            max_rounds: None,
        }
    }

    /// Number of nodes in this scenario's graphs.
    pub fn num_nodes(&self) -> usize {
        self.topology.num_nodes()
    }

    /// Serialises the scenario into the text format parsed by
    /// [`Scenario::parse_str`]. `parse_str(to_text(s)) == s` for every valid
    /// scenario.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("name = {}\n", self.name));
        match self.topology {
            TopologySpec::ErdosRenyiPaper { n } => {
                out.push_str(&format!("topology = erdos-renyi\nn = {n}\n"));
            }
            TopologySpec::ErdosRenyiDegree { n, degree } => {
                out.push_str(&format!("topology = erdos-renyi\nn = {n}\ndegree = {degree}\n"));
            }
            TopologySpec::RandomRegular { n, degree } => {
                out.push_str(&format!("topology = random-regular\nn = {n}\ndegree = {degree}\n"));
            }
            TopologySpec::Complete { n } => {
                out.push_str(&format!("topology = complete\nn = {n}\n"));
            }
        }
        out.push_str(&format!("protocol = {}\n", self.protocol.name()));
        if self.environment.loss > 0.0 {
            out.push_str(&format!("loss = {}\n", self.environment.loss));
        }
        for burst in &self.environment.loss_bursts {
            out.push_str(&format!("loss-burst = {}:{}:{}\n", burst.start, burst.len, burst.prob));
        }
        if let Some(churn) = self.environment.churn {
            out.push_str(&format!(
                "churn = {}:{}:{}\n",
                churn.fraction, churn.period, churn.downtime
            ));
        }
        if let Some(crash) = self.environment.crash {
            match crash.zone {
                Some(zone) => {
                    out.push_str(&format!("crash = {}:{}@{}\n", crash.round, crash.count, zone))
                }
                None => out.push_str(&format!("crash = {}:{}\n", crash.round, crash.count)),
            }
        }
        if let Some(zones) = self.environment.zones {
            out.push_str(&format!("zones = {zones}\n"));
        }
        if let Some(ec) = self.environment.edge_churn {
            out.push_str(&format!("edge-churn = {}:{}\n", ec.fraction, ec.period));
        }
        if self.environment.byzantine > 0.0 {
            out.push_str(&format!("byzantine = {}\n", self.environment.byzantine));
        }
        if let Some(inj) = &self.injection {
            out.push_str(&format!("rumors = {}\n", inj.rumors));
            match &inj.pattern {
                InjectPattern::Poisson { rate } => {
                    out.push_str(&format!("inject = poisson:{rate}\n"));
                }
                InjectPattern::Hotspot { node, count } => {
                    out.push_str(&format!("inject = hotspot:{node}:{count}\n"));
                }
                InjectPattern::Explicit(entries) => {
                    for e in entries {
                        out.push_str(&format!("inject = {}:{}\n", e.round, e.source));
                    }
                }
            }
            if let Some(ttl) = inj.ttl {
                out.push_str(&format!("rumor-ttl = {ttl}\n"));
            }
        }
        out.push_str(&format!("start = {}\n", self.environment.placement.name()));
        match self.stop {
            StopRule::Complete => out.push_str("stop = complete\n"),
            StopRule::Rounds(r) => out.push_str(&format!("stop = rounds:{r}\n")),
            StopRule::Coverage(f) => out.push_str(&format!("stop = coverage:{f}\n")),
            StopRule::AllRumors => out.push_str("stop = all-rumors\n"),
        }
        // The default cap is derived from n; only a custom cap is spelled out.
        if self.max_rounds != default_max_rounds(self.topology.num_nodes()) {
            out.push_str(&format!("max-rounds = {}\n", self.max_rounds));
        }
        out
    }

    /// Parses one scenario from the `key = value` text format (see the module
    /// docs for the grammar).
    pub fn parse_str(text: &str) -> Result<Scenario, ScenarioError> {
        let mut name = None;
        let mut topology = None;
        let mut n = None;
        let mut degree: Option<f64> = None;
        let mut protocol = ProtocolSpec::default();
        let mut environment = EnvironmentSpec::default();
        let mut rumors: Option<usize> = None;
        let mut inject_pattern: Option<InjectPattern> = None;
        let mut rumor_ttl: Option<u64> = None;
        let mut stop = StopRule::Complete;
        let mut max_rounds = None;
        let mut unknown_keys: Vec<String> = Vec::new();

        for raw_line in text.lines() {
            let line = raw_line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| ScenarioError::Parse(format!("expected `key = value`: {line}")))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "name" => name = Some(value.to_string()),
                "topology" => topology = Some(value.to_string()),
                "n" => n = Some(parse_num::<usize>("n", value)?),
                "degree" => degree = Some(parse_num::<f64>("degree", value)?),
                "protocol" => {
                    protocol = match value {
                        "push-pull" => ProtocolSpec::PushPull,
                        "fast-gossiping" => ProtocolSpec::FastGossiping,
                        "memory" => ProtocolSpec::Memory,
                        "broadcast-push" => ProtocolSpec::BroadcastPush,
                        "broadcast-push-pull" => ProtocolSpec::BroadcastPushPull,
                        "leader-election" => ProtocolSpec::LeaderElection,
                        other => {
                            return Err(ScenarioError::Parse(format!("unknown protocol: {other}")))
                        }
                    }
                }
                "loss" => environment.loss = parse_num::<f64>("loss", value)?,
                "loss-burst" => {
                    let parts: Vec<&str> = value.split(':').collect();
                    if parts.len() != 3 {
                        return Err(ScenarioError::Parse(format!(
                            "loss-burst must be start:len:prob, got {value}"
                        )));
                    }
                    // The one repeatable key: every occurrence appends.
                    environment.loss_bursts.push(LossBurstSpec {
                        start: parse_num::<u64>("loss-burst start", parts[0])?,
                        len: parse_num::<u64>("loss-burst len", parts[1])?,
                        prob: parse_num::<f64>("loss-burst prob", parts[2])?,
                    });
                }
                "churn" => {
                    let parts: Vec<&str> = value.split(':').collect();
                    if parts.len() != 3 {
                        return Err(ScenarioError::Parse(format!(
                            "churn must be fraction:period:downtime, got {value}"
                        )));
                    }
                    environment.churn = Some(ChurnSpec {
                        fraction: parse_num::<f64>("churn fraction", parts[0])?,
                        period: parse_num::<u64>("churn period", parts[1])?,
                        downtime: parse_num::<u64>("churn downtime", parts[2])?,
                    });
                }
                "crash" => {
                    let parts: Vec<&str> = value.split(':').collect();
                    if parts.len() != 2 {
                        return Err(ScenarioError::Parse(format!(
                            "crash must be round:count[@zone], got {value}"
                        )));
                    }
                    let (count_part, zone) = match parts[1].split_once('@') {
                        Some((count, zone)) => {
                            (count, Some(parse_num::<usize>("crash zone", zone)?))
                        }
                        None => (parts[1], None),
                    };
                    environment.crash = Some(CrashSpec {
                        round: parse_num::<u64>("crash round", parts[0])?,
                        count: parse_num::<usize>("crash count", count_part)?,
                        zone,
                    });
                }
                "zones" => environment.zones = Some(parse_num::<usize>("zones", value)?),
                "edge-churn" => {
                    let parts: Vec<&str> = value.split(':').collect();
                    if parts.len() != 2 {
                        return Err(ScenarioError::Parse(format!(
                            "edge-churn must be fraction:period, got {value}"
                        )));
                    }
                    environment.edge_churn = Some(EdgeChurnSpec {
                        fraction: parse_num::<f64>("edge-churn fraction", parts[0])?,
                        period: parse_num::<u64>("edge-churn period", parts[1])?,
                    });
                }
                "byzantine" => environment.byzantine = parse_num::<f64>("byzantine", value)?,
                "rumors" => rumors = Some(parse_num::<usize>("rumors", value)?),
                "inject" => {
                    let mixed = || {
                        ScenarioError::Parse(
                            "inject forms cannot be mixed: use either one sampled form \
                             (poisson/hotspot) or explicit round:source entries"
                                .into(),
                        )
                    };
                    if let Some(rate) = value.strip_prefix("poisson:") {
                        if matches!(inject_pattern, Some(InjectPattern::Explicit(_))) {
                            return Err(mixed());
                        }
                        inject_pattern = Some(InjectPattern::Poisson {
                            rate: parse_num::<f64>("inject poisson rate", rate)?,
                        });
                    } else if let Some(rest) = value.strip_prefix("hotspot:") {
                        if matches!(inject_pattern, Some(InjectPattern::Explicit(_))) {
                            return Err(mixed());
                        }
                        let parts: Vec<&str> = rest.split(':').collect();
                        if parts.len() != 2 {
                            return Err(ScenarioError::Parse(format!(
                                "inject hotspot must be hotspot:node:count, got {value}"
                            )));
                        }
                        inject_pattern = Some(InjectPattern::Hotspot {
                            node: parse_num::<NodeId>("inject hotspot node", parts[0])?,
                            count: parse_num::<usize>("inject hotspot count", parts[1])?,
                        });
                    } else {
                        let (round, source) = value.split_once(':').ok_or_else(|| {
                            ScenarioError::Parse(format!(
                                "inject must be poisson:rate, hotspot:node:count, \
                                 or round:source, got {value}"
                            ))
                        })?;
                        let entry = InjectionEntry {
                            round: parse_num::<u64>("inject round", round)?,
                            source: parse_num::<NodeId>("inject source", source)?,
                        };
                        // Like loss-burst, explicit entries accumulate.
                        match &mut inject_pattern {
                            Some(InjectPattern::Explicit(entries)) => entries.push(entry),
                            None => inject_pattern = Some(InjectPattern::Explicit(vec![entry])),
                            Some(_) => return Err(mixed()),
                        }
                    }
                }
                "rumor-ttl" => rumor_ttl = Some(parse_num::<u64>("rumor-ttl", value)?),
                "start" => {
                    environment.placement = match value {
                        "random" => StartPlacement::Random,
                        "min-degree" => StartPlacement::MinDegree,
                        "max-degree" => StartPlacement::MaxDegree,
                        other => {
                            return Err(ScenarioError::Parse(format!("unknown start: {other}")))
                        }
                    }
                }
                "stop" => {
                    stop = if value == "complete" {
                        StopRule::Complete
                    } else if value == "all-rumors" {
                        StopRule::AllRumors
                    } else if let Some(r) = value.strip_prefix("rounds:") {
                        StopRule::Rounds(parse_num::<u64>("stop rounds", r)?)
                    } else if let Some(f) = value.strip_prefix("coverage:") {
                        StopRule::Coverage(parse_num::<f64>("stop coverage", f)?)
                    } else {
                        return Err(ScenarioError::Parse(format!("unknown stop rule: {value}")));
                    };
                }
                "max-rounds" => max_rounds = Some(parse_num::<u64>("max-rounds", value)?),
                // Collect every unknown key instead of failing on the first,
                // so a typo-ridden file is fixed in one round trip. The
                // roundtrip guarantee depends on this being an error: silently
                // dropping keys would make parse(to_text(s)) lossy for inputs
                // the format does not actually support.
                other => {
                    if !unknown_keys.iter().any(|k| k == other) {
                        unknown_keys.push(other.to_string());
                    }
                }
            }
        }

        if !unknown_keys.is_empty() {
            return Err(ScenarioError::Parse(format!(
                "unknown key{}: {}",
                if unknown_keys.len() == 1 { "" } else { "s" },
                unknown_keys.join(", ")
            )));
        }

        let name = name.ok_or_else(|| ScenarioError::Parse("missing key: name".into()))?;
        let n = n.ok_or_else(|| ScenarioError::Parse("missing key: n".into()))?;
        let topology = match topology.as_deref() {
            Some("erdos-renyi") | None => match degree {
                Some(d) => TopologySpec::ErdosRenyiDegree { n, degree: d },
                None => TopologySpec::ErdosRenyiPaper { n },
            },
            Some("random-regular") => {
                let d = degree.ok_or_else(|| {
                    ScenarioError::Parse("random-regular requires a degree".into())
                })?;
                if !d.is_finite() || d.fract() != 0.0 || d < 1.0 {
                    return Err(ScenarioError::Parse(format!(
                        "random-regular degree must be a positive integer, got {d}"
                    )));
                }
                TopologySpec::RandomRegular { n, degree: d as usize }
            }
            Some("complete") => TopologySpec::Complete { n },
            Some(other) => return Err(ScenarioError::Parse(format!("unknown topology: {other}"))),
        };

        // `inject` / `rumor-ttl` only mean something for a streaming
        // workload, so either without `rumors` is a spec inconsistency (the
        // builder cannot even represent it).
        let injection = match rumors {
            Some(r) => Some(InjectionSpec {
                rumors: r,
                pattern: inject_pattern.unwrap_or(InjectPattern::Poisson { rate: 1.0 }),
                ttl: rumor_ttl,
            }),
            None if inject_pattern.is_some() => {
                return Err(ScenarioError::Invalid("inject requires the rumors key".into()));
            }
            None if rumor_ttl.is_some() => {
                return Err(ScenarioError::Invalid("rumor-ttl requires the rumors key".into()));
            }
            None => None,
        };

        let mut builder = Scenario::builder(name, topology);
        builder.protocol = protocol;
        builder.environment = environment;
        builder.injection = injection;
        builder.stop = stop;
        builder.max_rounds = max_rounds;
        builder.build()
    }

    /// Parses several scenarios separated by blank lines. Comment-only lines
    /// belong to the surrounding block (they are not separators), matching
    /// what [`Scenario::parse_str`] accepts inside a block.
    pub fn parse_many(text: &str) -> Result<Vec<Scenario>, ScenarioError> {
        let mut scenarios = Vec::new();
        let mut block = String::new();
        let mut has_content = false;
        for line in text.lines().chain(std::iter::once("")) {
            if line.trim().is_empty() {
                if has_content {
                    scenarios.push(Scenario::parse_str(&block)?);
                }
                block.clear();
                has_content = false;
            } else {
                block.push_str(line);
                block.push('\n');
                // A block of nothing but comments (e.g. a file header) is not
                // a scenario.
                has_content |= !line.split('#').next().unwrap_or("").trim().is_empty();
            }
        }
        Ok(scenarios)
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, ScenarioError> {
    value
        .trim()
        .parse::<T>()
        .map_err(|_| ScenarioError::Parse(format!("invalid value for {key}: {value}")))
}

/// Builder returned by [`Scenario::builder`].
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    name: String,
    topology: TopologySpec,
    protocol: ProtocolSpec,
    environment: EnvironmentSpec,
    injection: Option<InjectionSpec>,
    rumor_ttl: Option<u64>,
    stop: StopRule,
    max_rounds: Option<u64>,
}

impl ScenarioBuilder {
    /// Selects the protocol (default push-pull).
    pub fn protocol(mut self, protocol: ProtocolSpec) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets the per-packet loss probability.
    pub fn loss(mut self, loss: f64) -> Self {
        self.environment.loss = loss;
        self
    }

    /// Adds periodic churn (see [`ChurnSpec`]).
    pub fn churn(mut self, fraction: f64, period: u64, downtime: u64) -> Self {
        self.environment.churn = Some(ChurnSpec { fraction, period, downtime });
        self
    }

    /// Appends a loss burst (see [`LossBurstSpec`]); repeatable.
    pub fn loss_burst(mut self, start: u64, len: u64, prob: f64) -> Self {
        self.environment.loss_bursts.push(LossBurstSpec { start, len, prob });
        self
    }

    /// Adds a one-shot crash burst (see [`CrashSpec`]).
    pub fn crash(mut self, round: u64, count: usize) -> Self {
        self.environment.crash = Some(CrashSpec { round, count, zone: None });
        self
    }

    /// Adds a crash burst confined to one failure zone; requires
    /// [`ScenarioBuilder::zones`].
    pub fn crash_in_zone(mut self, round: u64, count: usize, zone: usize) -> Self {
        self.environment.crash = Some(CrashSpec { round, count, zone: Some(zone) });
        self
    }

    /// Partitions the nodes into `zones` failure domains (see
    /// [`EnvironmentSpec::zones`]).
    pub fn zones(mut self, zones: usize) -> Self {
        self.environment.zones = Some(zones);
        self
    }

    /// Adds periodic edge churn (see [`EdgeChurnSpec`]).
    pub fn edge_churn(mut self, fraction: f64, period: u64) -> Self {
        self.environment.edge_churn = Some(EdgeChurnSpec { fraction, period });
        self
    }

    /// Makes a seeded `fraction` of the nodes Byzantine (silent droppers).
    pub fn byzantine(mut self, fraction: f64) -> Self {
        self.environment.byzantine = fraction;
        self
    }

    /// Selects the tracked-rumor placement.
    pub fn placement(mut self, placement: StartPlacement) -> Self {
        self.environment.placement = placement;
        self
    }

    /// Installs a fully specified streaming workload (see [`InjectionSpec`]).
    pub fn injection(mut self, injection: InjectionSpec) -> Self {
        self.injection = Some(injection);
        self
    }

    /// Streams `rumors` Poisson arrivals at `rate` mean rumors per round.
    pub fn inject_poisson(mut self, rumors: usize, rate: f64) -> Self {
        self.injection =
            Some(InjectionSpec { rumors, pattern: InjectPattern::Poisson { rate }, ttl: None });
        self
    }

    /// Streams `rumors` from one node, `count` per round (see
    /// [`InjectPattern::Hotspot`]).
    pub fn inject_hotspot(mut self, rumors: usize, node: NodeId, count: usize) -> Self {
        self.injection = Some(InjectionSpec {
            rumors,
            pattern: InjectPattern::Hotspot { node, count },
            ttl: None,
        });
        self
    }

    /// Streams rumors on an explicit schedule: entry `m` injects rumor `m`.
    pub fn inject_explicit(mut self, entries: Vec<InjectionEntry>) -> Self {
        self.injection = Some(InjectionSpec {
            rumors: entries.len(),
            pattern: InjectPattern::Explicit(entries),
            ttl: None,
        });
        self
    }

    /// Expires every streaming rumor `ttl` rounds after its injection;
    /// requires one of the `inject_*` methods (checked at build time).
    pub fn rumor_ttl(mut self, ttl: u64) -> Self {
        self.rumor_ttl = Some(ttl);
        self
    }

    /// Selects the stop rule (default [`StopRule::Complete`]).
    pub fn stop(mut self, stop: StopRule) -> Self {
        self.stop = stop;
        self
    }

    /// Overrides the hard round cap (default [`default_max_rounds`]).
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Validates the specification and produces the [`Scenario`].
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        let n = self.topology.num_nodes();
        if n == 0 {
            return Err(ScenarioError::Invalid("topology has zero nodes".into()));
        }
        // Names must survive the text format: no comment marker, no line
        // breaks, no surrounding whitespace (the parser trims values).
        if self.name.is_empty()
            || self.name != self.name.trim()
            || self.name.contains(['#', '\n', '\r'])
        {
            return Err(ScenarioError::Invalid(format!(
                "scenario name {:?} must be non-empty, trimmed, and free of '#' and line breaks",
                self.name
            )));
        }
        if let TopologySpec::ErdosRenyiDegree { degree, .. } = self.topology {
            if !degree.is_finite() || degree < 0.0 {
                return Err(ScenarioError::Invalid(format!(
                    "expected degree must be finite and non-negative, got {degree}"
                )));
            }
        }
        if let TopologySpec::RandomRegular { n, degree } = self.topology {
            if degree == 0 {
                return Err(ScenarioError::Invalid(
                    "random-regular degree must be at least 1 (an edgeless graph cannot gossip)"
                        .into(),
                ));
            }
            // Parity without the product, which overflows for large values.
            if n % 2 == 1 && degree % 2 == 1 {
                return Err(ScenarioError::Invalid(format!(
                    "random-regular requires even n * degree, got {n} * {degree}"
                )));
            }
            if degree >= n {
                return Err(ScenarioError::Invalid(format!(
                    "random-regular degree {degree} must be below n = {n}"
                )));
            }
        }
        let env = &self.environment;
        if !env.loss.is_finite() || !(0.0..1.0).contains(&env.loss) {
            return Err(ScenarioError::Invalid(format!(
                "loss probability must lie in [0, 1), got {}",
                env.loss
            )));
        }
        if let Some(churn) = env.churn {
            if !churn.fraction.is_finite() || !(0.0..=1.0).contains(&churn.fraction) {
                return Err(ScenarioError::Invalid(format!(
                    "churn fraction must lie in [0, 1], got {}",
                    churn.fraction
                )));
            }
            if churn.period == 0 || churn.downtime == 0 {
                return Err(ScenarioError::Invalid(
                    "churn period and downtime must be at least 1".into(),
                ));
            }
        }
        for burst in &env.loss_bursts {
            if !burst.prob.is_finite() || !(0.0..1.0).contains(&burst.prob) {
                return Err(ScenarioError::Invalid(format!(
                    "loss-burst probability must lie in [0, 1), got {}",
                    burst.prob
                )));
            }
            if burst.len == 0 {
                return Err(ScenarioError::Invalid("loss-burst len must be at least 1".into()));
            }
        }
        if let Some(zones) = env.zones {
            if zones == 0 || zones > n {
                return Err(ScenarioError::Invalid(format!(
                    "zones must lie in [1, n]; got {zones} zones for n = {n}"
                )));
            }
        }
        if let Some(crash) = env.crash {
            if crash.count > n {
                return Err(ScenarioError::Invalid(format!(
                    "cannot crash {} of {} nodes",
                    crash.count, n
                )));
            }
            if let Some(zone) = crash.zone {
                let zones = env.zones.ok_or_else(|| {
                    ScenarioError::Invalid(format!("crash zone @{zone} requires the zones key"))
                })?;
                if zone >= zones {
                    return Err(ScenarioError::Invalid(format!(
                        "crash zone {zone} out of range for {zones} zones"
                    )));
                }
                let members = zone_members(zone, n, zones);
                let size = (members.end - members.start) as usize;
                if crash.count > size {
                    return Err(ScenarioError::Invalid(format!(
                        "cannot crash {} of the {} nodes in zone {}",
                        crash.count, size, zone
                    )));
                }
            }
        }
        if let Some(ec) = env.edge_churn {
            if !ec.fraction.is_finite() || !(0.0..=1.0).contains(&ec.fraction) {
                return Err(ScenarioError::Invalid(format!(
                    "edge-churn fraction must lie in [0, 1], got {}",
                    ec.fraction
                )));
            }
            if ec.period == 0 {
                return Err(ScenarioError::Invalid("edge-churn period must be at least 1".into()));
            }
        }
        if !env.byzantine.is_finite() || !(0.0..=1.0).contains(&env.byzantine) {
            return Err(ScenarioError::Invalid(format!(
                "byzantine fraction must lie in [0, 1], got {}",
                env.byzantine
            )));
        }
        let max_rounds = self.max_rounds.unwrap_or_else(|| default_max_rounds(n));
        if max_rounds == 0 {
            return Err(ScenarioError::Invalid("max-rounds must be at least 1".into()));
        }
        let mut injection = self.injection;
        if let Some(ttl) = self.rumor_ttl {
            match &mut injection {
                Some(inj) => inj.ttl = Some(ttl),
                None => {
                    return Err(ScenarioError::Invalid(
                        "rumor-ttl requires a streaming injection (the rumors key)".into(),
                    ));
                }
            }
        }
        if let Some(inj) = &injection {
            // Like unknown keys at parse time, every problem with the
            // injection spec is collected and reported in one error.
            let mut problems: Vec<String> = Vec::new();
            if inj.rumors == 0 {
                problems.push("rumors must be at least 1".into());
            }
            if !self.protocol.supports_streaming() {
                problems.push(format!(
                    "streaming injection requires the push-pull protocol or a \
                     broadcast baseline (the {} protocol assumes the classic \
                     one-rumor-per-node start)",
                    self.protocol.name()
                ));
            }
            match &inj.pattern {
                InjectPattern::Poisson { rate } => {
                    if !rate.is_finite() || *rate <= 0.0 {
                        problems
                            .push(format!("poisson rate must be positive and finite, got {rate}"));
                    }
                }
                InjectPattern::Hotspot { node, count } => {
                    if *node as usize >= n {
                        problems.push(format!("hotspot node {node} out of range for n = {n}"));
                    }
                    if *count == 0 {
                        problems.push("hotspot count must be at least 1".into());
                    }
                }
                InjectPattern::Explicit(entries) => {
                    if entries.len() != inj.rumors {
                        problems.push(format!(
                            "explicit injection needs exactly {} round:source entries \
                             (one per rumor), got {}",
                            inj.rumors,
                            entries.len()
                        ));
                    }
                    for (m, e) in entries.iter().enumerate() {
                        if e.round >= max_rounds {
                            problems.push(format!(
                                "rumor {m} injected at round {} at or past the \
                                 max-rounds cap {max_rounds}",
                                e.round
                            ));
                        }
                        if e.source as usize >= n {
                            problems.push(format!(
                                "rumor {m} source {} out of range for n = {n}",
                                e.source
                            ));
                        }
                    }
                }
            }
            if inj.ttl == Some(0) {
                problems.push("rumor-ttl must be at least 1".into());
            }
            if !problems.is_empty() {
                return Err(ScenarioError::Invalid(format!(
                    "injection spec: {}",
                    problems.join("; ")
                )));
            }
        }
        if self.protocol.is_broadcast() && injection.is_none() {
            return Err(ScenarioError::Invalid(format!(
                "the {} protocol requires a streaming injection (the rumors/inject \
                 keys): broadcasting spreads injected rumors, there is no classic \
                 one-rumor-per-node start to fall back to",
                self.protocol.name()
            )));
        }
        if matches!(self.stop, StopRule::AllRumors) && injection.is_none() {
            return Err(ScenarioError::Invalid(
                "stop = all-rumors requires a streaming injection (the rumors key)".into(),
            ));
        }
        match self.stop {
            StopRule::Coverage(f) if !(f.is_finite() && 0.0 < f && f <= 1.0) => {
                return Err(ScenarioError::Invalid(format!(
                    "coverage threshold must lie in (0, 1], got {f}"
                )));
            }
            StopRule::Rounds(0) => {
                return Err(ScenarioError::Invalid("round budget must be at least 1".into()));
            }
            // A budget above the cap is a user error: the run could never
            // execute that many rounds, so truncating it silently would make
            // every outcome report `completed = false` round counts that the
            // spec never asked for.
            StopRule::Rounds(r) if r > max_rounds => {
                return Err(ScenarioError::Invalid(format!(
                    "round budget {r} exceeds the max-rounds cap {max_rounds}; \
                     raise max-rounds or lower the budget"
                )));
            }
            _ => {}
        }
        Ok(Scenario {
            name: self.name,
            topology: self.topology,
            protocol: self.protocol,
            environment: self.environment,
            injection,
            stop: self.stop,
            max_rounds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario::builder("demo", TopologySpec::ErdosRenyiPaper { n: 256 })
            .loss(0.1)
            .churn(0.05, 4, 8)
            .crash(3, 16)
            .placement(StartPlacement::MinDegree)
            .stop(StopRule::Coverage(0.9))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_a_valid_scenario() {
        let s = sample();
        assert_eq!(s.num_nodes(), 256);
        assert_eq!(s.protocol.name(), "push-pull");
        assert!(s.environment.is_hostile());
        assert_eq!(s.max_rounds, default_max_rounds(256));
    }

    #[test]
    fn text_roundtrip_preserves_every_field() {
        let s = sample();
        let reparsed = Scenario::parse_str(&s.to_text()).unwrap();
        assert_eq!(s, reparsed);
    }

    #[test]
    fn text_roundtrip_for_every_topology_and_protocol() {
        let topologies = [
            TopologySpec::ErdosRenyiPaper { n: 128 },
            TopologySpec::ErdosRenyiDegree { n: 128, degree: 12.0 },
            TopologySpec::RandomRegular { n: 128, degree: 6 },
            TopologySpec::Complete { n: 128 },
        ];
        for topology in topologies {
            for protocol in [
                ProtocolSpec::PushPull,
                ProtocolSpec::FastGossiping,
                ProtocolSpec::Memory,
                ProtocolSpec::BroadcastPush,
                ProtocolSpec::BroadcastPushPull,
                ProtocolSpec::LeaderElection,
            ] {
                let mut builder = Scenario::builder("t", topology.clone()).protocol(protocol);
                if protocol.is_broadcast() {
                    // Broadcast baselines require an injection to start from.
                    builder = builder.inject_explicit(vec![InjectionEntry { round: 0, source: 0 }]);
                }
                let s = builder.build().unwrap();
                assert_eq!(Scenario::parse_str(&s.to_text()).unwrap(), s);
            }
        }
    }

    fn hostile() -> Scenario {
        Scenario::builder("hostile", TopologySpec::ErdosRenyiPaper { n: 256 })
            .loss(0.05)
            .loss_burst(2, 4, 0.5)
            .loss_burst(8, 2, 0.25)
            .churn(0.05, 4, 8)
            .zones(8)
            .crash_in_zone(3, 16, 5)
            .edge_churn(0.2, 4)
            .byzantine(0.1)
            .stop(StopRule::Coverage(0.8))
            .build()
            .unwrap()
    }

    #[test]
    fn every_new_dimension_roundtrips_through_the_text_format() {
        let s = hostile();
        let text = s.to_text();
        for needle in [
            "loss-burst = 2:4:0.5",
            "loss-burst = 8:2:0.25",
            "crash = 3:16@5",
            "zones = 8",
            "edge-churn = 0.2:4",
            "byzantine = 0.1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert_eq!(Scenario::parse_str(&text).unwrap(), s);
    }

    #[test]
    fn loss_bursts_accumulate_in_file_order() {
        let s =
            Scenario::parse_str("name = x\nn = 64\nloss-burst = 1:2:0.5\nloss-burst = 4:1:0.25\n")
                .unwrap();
        assert_eq!(
            s.environment.loss_bursts,
            vec![
                LossBurstSpec { start: 1, len: 2, prob: 0.5 },
                LossBurstSpec { start: 4, len: 1, prob: 0.25 },
            ]
        );
    }

    #[test]
    fn loss_at_layers_active_bursts_over_the_base_rate() {
        let env = hostile().environment;
        // Outside every burst: base rate only.
        assert_eq!(env.loss_at(0), 0.05);
        assert_eq!(env.loss_at(6), 0.05);
        assert_eq!(env.loss_at(10), 0.05);
        // Inside the first burst: 1 - 0.95 * 0.5.
        assert!((env.loss_at(2) - (1.0 - 0.95 * 0.5)).abs() < 1e-12);
        assert!((env.loss_at(5) - (1.0 - 0.95 * 0.5)).abs() < 1e-12);
        // Inside the second burst: 1 - 0.95 * 0.75.
        assert!((env.loss_at(9) - (1.0 - 0.95 * 0.75)).abs() < 1e-12);
        // Overlapping bursts multiply and stay below 1.
        let stacked = Scenario::builder("s", TopologySpec::Complete { n: 16 })
            .loss_burst(0, 10, 0.9)
            .loss_burst(0, 10, 0.9)
            .build()
            .unwrap()
            .environment;
        let at = stacked.loss_at(3);
        assert!((at - (1.0 - 0.01)).abs() < 1e-12);
        assert!(at < 1.0);
        // A loss-burst-only environment is hostile even at loss = 0.
        assert_eq!(stacked.loss, 0.0);
        assert!(stacked.is_hostile());
    }

    #[test]
    fn every_new_dimension_alone_makes_the_environment_hostile() {
        let base = || Scenario::builder("x", TopologySpec::Complete { n: 64 });
        assert!(!base().build().unwrap().environment.is_hostile());
        assert!(!base().zones(4).build().unwrap().environment.is_hostile());
        assert!(base().loss_burst(1, 2, 0.5).build().unwrap().environment.is_hostile());
        assert!(base().edge_churn(0.1, 4).build().unwrap().environment.is_hostile());
        assert!(base().byzantine(0.1).build().unwrap().environment.is_hostile());
    }

    #[test]
    fn zone_partition_is_total_contiguous_and_balanced() {
        for (n, zones) in [(64, 8), (100, 7), (17, 17), (255, 3), (16, 1)] {
            let mut counted = 0usize;
            for zone in 0..zones {
                let members = zone_members(zone, n, zones);
                assert!(members.end > members.start, "zone {zone} empty for n={n} z={zones}");
                for v in members.clone() {
                    assert_eq!(zone_of(v, n, zones), zone);
                }
                counted += (members.end - members.start) as usize;
                let size = (members.end - members.start) as usize;
                assert!(
                    size >= n / zones && size <= n.div_ceil(zones),
                    "zone {zone} has {size} nodes for n={n} z={zones}"
                );
            }
            assert_eq!(counted, n, "partition not total for n={n} z={zones}");
        }
    }

    #[test]
    fn validation_rejects_bad_hostile_dimensions() {
        let base = || Scenario::builder("x", TopologySpec::ErdosRenyiPaper { n: 64 });
        assert!(matches!(base().loss_burst(0, 2, 1.0).build(), Err(ScenarioError::Invalid(_))));
        assert!(matches!(base().loss_burst(0, 0, 0.5).build(), Err(ScenarioError::Invalid(_))));
        assert!(matches!(
            base().loss_burst(0, 2, f64::NAN).build(),
            Err(ScenarioError::Invalid(_))
        ));
        assert!(matches!(base().zones(0).build(), Err(ScenarioError::Invalid(_))));
        assert!(matches!(base().zones(65).build(), Err(ScenarioError::Invalid(_))));
        // A zoned crash needs the zones key, a valid zone index, and a count
        // that fits inside the zone.
        assert!(matches!(base().crash_in_zone(1, 4, 2).build(), Err(ScenarioError::Invalid(_))));
        assert!(matches!(
            base().zones(4).crash_in_zone(1, 4, 4).build(),
            Err(ScenarioError::Invalid(_))
        ));
        assert!(matches!(
            base().zones(4).crash_in_zone(1, 17, 2).build(),
            Err(ScenarioError::Invalid(_))
        ));
        assert!(base().zones(4).crash_in_zone(1, 16, 2).build().is_ok());
        assert!(matches!(base().edge_churn(1.5, 4).build(), Err(ScenarioError::Invalid(_))));
        assert!(matches!(base().edge_churn(0.2, 0).build(), Err(ScenarioError::Invalid(_))));
        assert!(matches!(base().byzantine(1.5).build(), Err(ScenarioError::Invalid(_))));
        assert!(matches!(base().byzantine(-0.1).build(), Err(ScenarioError::Invalid(_))));
        assert!(base().byzantine(1.0).build().is_ok());
    }

    #[test]
    fn parse_rejects_malformed_hostile_values() {
        for line in [
            "loss-burst = 1:2",
            "loss-burst = 1:2:0.5:9",
            "loss-burst = a:2:0.5",
            "crash = 1:2@z",
            "crash = 1:2@",
            "edge-churn = 0.5",
            "edge-churn = 0.5:4:9",
            "zones = -3",
            "byzantine = many",
        ] {
            let text = format!("name = x\nn = 64\n{line}\n");
            assert!(
                matches!(Scenario::parse_str(&text), Err(ScenarioError::Parse(_))),
                "accepted {line:?}"
            );
        }
    }

    #[test]
    fn parse_accepts_comments_and_whitespace() {
        let text = "
            # a comment
            name = lossy   # trailing comment
            topology = complete
            n = 64
            loss = 0.25
            stop = rounds:10
        ";
        let s = Scenario::parse_str(text).unwrap();
        assert_eq!(s.name, "lossy");
        assert_eq!(s.topology, TopologySpec::Complete { n: 64 });
        assert_eq!(s.environment.loss, 0.25);
        assert_eq!(s.stop, StopRule::Rounds(10));
    }

    #[test]
    fn parse_many_splits_on_blank_lines() {
        let text = "name = a\nn = 32\n\nname = b\nn = 64\ntopology = complete\n";
        let scenarios = Scenario::parse_many(text).unwrap();
        assert_eq!(scenarios.len(), 2);
        assert_eq!(scenarios[0].name, "a");
        assert_eq!(scenarios[1].topology, TopologySpec::Complete { n: 64 });
    }

    #[test]
    fn parse_many_keeps_comment_lines_inside_blocks() {
        let text = "# file header comment\n\nname = a\n# interior comment\nn = 32\n\n# trailer\n";
        let scenarios = Scenario::parse_many(text).unwrap();
        assert_eq!(scenarios.len(), 1);
        assert_eq!(scenarios[0].name, "a");
        assert_eq!(scenarios[0].num_nodes(), 32);
    }

    #[test]
    fn parse_rejects_non_integer_regular_degrees() {
        for degree in ["6.9", "0", "-3"] {
            let text = format!("name = x\nn = 32\ntopology = random-regular\ndegree = {degree}");
            assert!(
                matches!(Scenario::parse_str(&text), Err(ScenarioError::Parse(_))),
                "accepted degree {degree}"
            );
        }
    }

    #[test]
    fn validation_rejects_bad_erdos_renyi_degrees() {
        for degree in [-5.0, f64::NAN, f64::INFINITY] {
            let built =
                Scenario::builder("x", TopologySpec::ErdosRenyiDegree { n: 64, degree }).build();
            assert!(matches!(built, Err(ScenarioError::Invalid(_))), "accepted degree {degree}");
        }
    }

    #[test]
    fn parse_rejects_unknown_keys_and_bad_values() {
        assert!(matches!(
            Scenario::parse_str("name = x\nn = 32\nbogus = 1"),
            Err(ScenarioError::Parse(_))
        ));
        // Every unrecognized key of a block is reported, not just the first,
        // and duplicates are listed once.
        match Scenario::parse_str("name = x\nn = 32\nbogus = 1\ntypo = 2\nbogus = 3") {
            Err(ScenarioError::Parse(msg)) => {
                assert_eq!(msg, "unknown keys: bogus, typo", "got: {msg}");
            }
            other => panic!("expected a parse error listing all unknown keys, got {other:?}"),
        }
        match Scenario::parse_str("name = x\nn = 32\nlost = 0.1") {
            Err(ScenarioError::Parse(msg)) => {
                assert_eq!(msg, "unknown key: lost", "got: {msg}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        assert!(matches!(
            Scenario::parse_str("name = x\nn = 32\nloss = banana"),
            Err(ScenarioError::Parse(_))
        ));
        assert!(matches!(Scenario::parse_str("n = 32"), Err(ScenarioError::Parse(_))));
        assert!(matches!(
            Scenario::parse_str("name = x\nn = 32\nstop = never"),
            Err(ScenarioError::Parse(_))
        ));
    }

    #[test]
    fn validation_rejects_inconsistent_specs() {
        let base = || Scenario::builder("x", TopologySpec::ErdosRenyiPaper { n: 64 });
        assert!(matches!(base().loss(1.5).build(), Err(ScenarioError::Invalid(_))));
        assert!(matches!(base().churn(2.0, 4, 4).build(), Err(ScenarioError::Invalid(_))));
        assert!(matches!(base().churn(0.1, 0, 4).build(), Err(ScenarioError::Invalid(_))));
        assert!(matches!(base().crash(1, 65).build(), Err(ScenarioError::Invalid(_))));
        assert!(base().stop(StopRule::Coverage(0.0)).build().is_err());
        assert!(base().stop(StopRule::Rounds(0)).build().is_err());
        assert!(matches!(
            Scenario::builder("x", TopologySpec::RandomRegular { n: 9, degree: 3 }).build(),
            Err(ScenarioError::Invalid(_))
        ));
        assert!(base().max_rounds(5).build().is_ok());
    }

    #[test]
    fn every_stop_rule_is_valid_for_every_protocol() {
        // The step-driven executor removed the push-pull-only restriction:
        // round budgets, coverage thresholds and explicit caps now validate
        // for the phase-based protocols too.
        for protocol in [
            ProtocolSpec::PushPull,
            ProtocolSpec::FastGossiping,
            ProtocolSpec::Memory,
            ProtocolSpec::LeaderElection,
        ] {
            for stop in [StopRule::Complete, StopRule::Rounds(5), StopRule::Coverage(0.9)] {
                let built = Scenario::builder("x", TopologySpec::ErdosRenyiPaper { n: 64 })
                    .protocol(protocol)
                    .stop(stop)
                    .build();
                assert!(built.is_ok(), "{} + {:?} rejected", protocol.name(), stop);
            }
            let capped = Scenario::builder("x", TopologySpec::ErdosRenyiPaper { n: 64 })
                .protocol(protocol)
                .max_rounds(40)
                .build();
            assert!(capped.is_ok(), "{} + explicit cap rejected", protocol.name());
        }
    }

    #[test]
    fn round_budgets_above_the_cap_are_rejected_not_clamped() {
        let base = || Scenario::builder("x", TopologySpec::ErdosRenyiPaper { n: 64 });
        // Against an explicit cap...
        assert!(matches!(
            base().max_rounds(10).stop(StopRule::Rounds(11)).build(),
            Err(ScenarioError::Invalid(_))
        ));
        assert!(base().max_rounds(10).stop(StopRule::Rounds(10)).build().is_ok());
        // ...and against the derived default cap.
        let over = default_max_rounds(64) + 1;
        assert!(matches!(
            base().stop(StopRule::Rounds(over)).build(),
            Err(ScenarioError::Invalid(_))
        ));
    }

    #[test]
    fn every_injection_pattern_roundtrips_through_the_text_format() {
        let base = || Scenario::builder("stream", TopologySpec::ErdosRenyiPaper { n: 128 });
        let cases = [
            base().inject_poisson(16, 1.5).stop(StopRule::AllRumors).build().unwrap(),
            base().inject_hotspot(12, 7, 4).rumor_ttl(24).build().unwrap(),
            base()
                .inject_explicit(vec![
                    InjectionEntry { round: 0, source: 3 },
                    InjectionEntry { round: 2, source: 9 },
                    InjectionEntry { round: 2, source: 0 },
                ])
                .stop(StopRule::Coverage(0.9))
                .build()
                .unwrap(),
        ];
        for s in cases {
            let text = s.to_text();
            assert_eq!(Scenario::parse_str(&text).unwrap(), s, "lossy roundtrip for:\n{text}");
        }
        let explicit = base()
            .inject_explicit(vec![
                InjectionEntry { round: 0, source: 3 },
                InjectionEntry { round: 2, source: 9 },
            ])
            .build()
            .unwrap()
            .to_text();
        assert!(explicit.contains("inject = 0:3\ninject = 2:9"), "got:\n{explicit}");
    }

    #[test]
    fn rumors_without_inject_defaults_to_unit_rate_poisson() {
        let s = Scenario::parse_str("name = x\nn = 64\nrumors = 8\n").unwrap();
        let inj = s.injection.as_ref().unwrap();
        assert_eq!(inj.rumors, 8);
        assert_eq!(inj.pattern, InjectPattern::Poisson { rate: 1.0 });
        assert_eq!(inj.ttl, None);
        assert_eq!(Scenario::parse_str(&s.to_text()).unwrap(), s);
    }

    #[test]
    fn injection_validation_reports_every_problem_at_once() {
        let built = Scenario::builder("x", TopologySpec::Complete { n: 16 })
            .max_rounds(10)
            .inject_explicit(vec![
                InjectionEntry { round: 10, source: 3 },
                InjectionEntry { round: 2, source: 16 },
                InjectionEntry { round: 3, source: 5 },
            ])
            .rumor_ttl(0)
            .build();
        match built {
            Err(ScenarioError::Invalid(msg)) => {
                assert!(msg.contains("rumor 0 injected at round 10"), "got: {msg}");
                assert!(msg.contains("rumor 1 source 16 out of range"), "got: {msg}");
                assert!(msg.contains("rumor-ttl must be at least 1"), "got: {msg}");
            }
            other => panic!("expected one Invalid listing all problems, got {other:?}"),
        }
    }

    #[test]
    fn injection_validation_rejects_bad_specs() {
        let base = || Scenario::builder("x", TopologySpec::Complete { n: 16 });
        assert!(matches!(base().inject_poisson(0, 1.0).build(), Err(ScenarioError::Invalid(_))));
        assert!(matches!(base().inject_poisson(4, 0.0).build(), Err(ScenarioError::Invalid(_))));
        assert!(matches!(
            base().inject_poisson(4, f64::NAN).build(),
            Err(ScenarioError::Invalid(_))
        ));
        assert!(matches!(base().inject_hotspot(4, 16, 1).build(), Err(ScenarioError::Invalid(_))));
        assert!(matches!(base().inject_hotspot(4, 0, 0).build(), Err(ScenarioError::Invalid(_))));
        // Entry count must equal the rumor count.
        assert!(matches!(
            base()
                .injection(InjectionSpec {
                    rumors: 3,
                    pattern: InjectPattern::Explicit(vec![InjectionEntry { round: 0, source: 0 }]),
                    ttl: None,
                })
                .build(),
            Err(ScenarioError::Invalid(_))
        ));
        // Streaming is push-pull-only: the phase-based protocols assume the
        // classic one-rumor-per-node start.
        assert!(matches!(
            base().protocol(ProtocolSpec::Memory).inject_poisson(4, 1.0).build(),
            Err(ScenarioError::Invalid(_))
        ));
        // TTL and the all-rumors stop rule require an injection.
        assert!(matches!(base().rumor_ttl(8).build(), Err(ScenarioError::Invalid(_))));
        assert!(matches!(base().stop(StopRule::AllRumors).build(), Err(ScenarioError::Invalid(_))));
        assert!(base().inject_poisson(4, 1.0).stop(StopRule::AllRumors).build().is_ok());
    }

    #[test]
    fn broadcast_baselines_require_an_injection_and_accept_one() {
        let base = || Scenario::builder("bcast", TopologySpec::ErdosRenyiPaper { n: 128 });
        for protocol in [ProtocolSpec::BroadcastPush, ProtocolSpec::BroadcastPushPull] {
            let rejected = base().protocol(protocol).build();
            assert!(
                matches!(rejected, Err(ScenarioError::Invalid(ref m)) if m.contains("injection")),
                "{} without injection: {rejected:?}",
                protocol.name()
            );
            let accepted = base()
                .protocol(protocol)
                .inject_explicit(vec![InjectionEntry { round: 0, source: 3 }])
                .stop(StopRule::AllRumors)
                .build();
            assert!(accepted.is_ok(), "{} with injection: {accepted:?}", protocol.name());
        }
        // Leader election is classic-start-only, like the phase-based
        // protocols.
        assert!(matches!(
            base().protocol(ProtocolSpec::LeaderElection).inject_poisson(4, 1.0).build(),
            Err(ScenarioError::Invalid(_))
        ));
        assert!(base().protocol(ProtocolSpec::LeaderElection).build().is_ok());
    }

    #[test]
    fn parse_rejects_malformed_injection_values() {
        for line in [
            "inject = poisson:fast",
            "inject = hotspot:3",
            "inject = hotspot:3:2:1",
            "inject = 5",
            "inject = a:b",
        ] {
            let text = format!("name = x\nn = 64\nrumors = 4\n{line}\n");
            assert!(
                matches!(Scenario::parse_str(&text), Err(ScenarioError::Parse(_))),
                "accepted {line:?}"
            );
        }
        // Mixing the sampled and explicit forms is a parse error.
        for lines in ["inject = poisson:1\ninject = 2:3", "inject = 2:3\ninject = hotspot:1:2"] {
            let text = format!("name = x\nn = 64\nrumors = 4\n{lines}\n");
            assert!(
                matches!(Scenario::parse_str(&text), Err(ScenarioError::Parse(_))),
                "accepted mixed forms: {lines:?}"
            );
        }
        // `inject` / `rumor-ttl` without `rumors` are spec inconsistencies.
        assert!(matches!(
            Scenario::parse_str("name = x\nn = 64\ninject = poisson:1\n"),
            Err(ScenarioError::Invalid(_))
        ));
        assert!(matches!(
            Scenario::parse_str("name = x\nn = 64\nrumor-ttl = 8\n"),
            Err(ScenarioError::Invalid(_))
        ));
    }

    #[test]
    fn names_must_survive_the_text_format() {
        let named =
            |name: &str| Scenario::builder(name, TopologySpec::ErdosRenyiPaper { n: 64 }).build();
        assert!(named("ok-name with spaces").is_ok());
        for bad in ["", " padded ", "has#comment", "two\nlines", "cr\rname"] {
            assert!(matches!(named(bad), Err(ScenarioError::Invalid(_))), "accepted {bad:?}");
        }
    }

    #[test]
    fn name_roundtrip_regression() {
        // Legal-but-tricky names survive `parse_str(to_text(s)) == s` byte
        // for byte — including '=' and ':' characters, which only have
        // special meaning left of the first '=' of a line.
        for name in ["spaces in name", "equals = inside", "colons:everywhere", "ends-with-dash-"] {
            let s =
                Scenario::builder(name, TopologySpec::ErdosRenyiPaper { n: 64 }).build().unwrap();
            assert_eq!(Scenario::parse_str(&s.to_text()).unwrap().name, name);
        }
        // A '#' in a name *value* is a comment per the grammar, so parsing
        // yields the truncated pre-'#' part — the builder therefore refuses
        // to construct a name that `to_text` could never round-trip, which is
        // what upholds the documented guarantee.
        let parsed = Scenario::parse_str("name = a#b\nn = 64").unwrap();
        assert_eq!(parsed.name, "a");
        assert!(matches!(
            Scenario::builder("a#b", TopologySpec::ErdosRenyiPaper { n: 64 }).build(),
            Err(ScenarioError::Invalid(_))
        ));
    }

    #[test]
    fn custom_round_caps_roundtrip_and_defaults_are_omitted() {
        let custom = Scenario::builder("capped", TopologySpec::ErdosRenyiPaper { n: 128 })
            .max_rounds(9)
            .build()
            .unwrap();
        assert!(custom.to_text().contains("max-rounds = 9"));
        assert_eq!(Scenario::parse_str(&custom.to_text()).unwrap(), custom);

        let phase = Scenario::builder("mem", TopologySpec::ErdosRenyiPaper { n: 128 })
            .protocol(ProtocolSpec::Memory)
            .build()
            .unwrap();
        assert!(!phase.to_text().contains("max-rounds"));
        assert_eq!(Scenario::parse_str(&phase.to_text()).unwrap(), phase);

        // Phase-based protocols now accept explicit caps and step-granular
        // stop rules; both must survive the text format.
        let capped_mem = Scenario::builder("mem-capped", TopologySpec::ErdosRenyiPaper { n: 128 })
            .protocol(ProtocolSpec::Memory)
            .stop(StopRule::Rounds(9))
            .max_rounds(9)
            .build()
            .unwrap();
        assert!(capped_mem.to_text().contains("max-rounds = 9"));
        assert!(capped_mem.to_text().contains("stop = rounds:9"));
        assert_eq!(Scenario::parse_str(&capped_mem.to_text()).unwrap(), capped_mem);
    }

    #[test]
    fn topology_spec_builds_generators_of_the_right_size() {
        let specs = [
            TopologySpec::ErdosRenyiPaper { n: 100 },
            TopologySpec::ErdosRenyiDegree { n: 100, degree: 8.0 },
            TopologySpec::RandomRegular { n: 100, degree: 4 },
            TopologySpec::Complete { n: 100 },
        ];
        for spec in specs {
            assert_eq!(spec.build().num_nodes(), 100);
            assert!(!spec.label().is_empty());
            assert!(!spec.label().contains(','), "labels must survive unquoted CSV");
        }
    }
}
