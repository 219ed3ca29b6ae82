//! The JSON-lines wire format of the node runtime.
//!
//! One flat JSON object per line, Maelstrom-style: every message is an
//! [`Envelope`] with a `src`, a `dest` and a typed body, e.g.
//!
//! ```text
//! {"src":"c0","dest":"n3","type":"start_round","round":4,"attempt":0}
//! {"src":"n3","dest":"n7","type":"gossip","round":4,"from":3,"rumors":"1a00000000000000"}
//! ```
//!
//! The codec reuses the observability layer's flat-JSON reader/writer
//! ([`rpc_obs::parse_object`] / [`rpc_obs::escape_into`]) instead of pulling
//! in a serialization framework, which keeps the build hermetic and the
//! format trivially greppable. Two deliberate wire conventions:
//!
//! * **Seeds travel as decimal strings.** Flat-JSON numbers are `f64`, which
//!   silently rounds integers above 2⁵³ — and derived engine seeds use all
//!   64 bits. Encoding `seed` as a string makes the round trip exact.
//! * **Rumor sets travel as fixed-width hex words** (see
//!   [`crate::store::RumorStore::to_hex`]), so payload size is `⌈n/64⌉ · 16`
//!   characters regardless of how many rumors a node knows.
//!
//! Decoding is total: every malformed, truncated or unknown input maps to a
//! structured [`WireError`] — the stdio host turns these into `error` replies
//! instead of dying, and a property suite pins "never panics" over random
//! mutations of valid lines.

use rpc_graphs::NodeId;
use rpc_obs::{escape_into, parse_object, JsonValue};

/// The name of the round coordinator on the wire.
pub const COORDINATOR: &str = "c0";

/// Error code of an undecodable line (not valid flat JSON).
pub const CODE_MALFORMED: u64 = 10;
/// Error code of a structurally valid message with an unknown `type`.
pub const CODE_UNKNOWN_TYPE: u64 = 11;
/// Error code of a known message with a missing or ill-typed field.
pub const CODE_BAD_FIELD: u64 = 12;
/// Error code of a message that is valid but unusable in the current state
/// (e.g. gossip before `init`, or an unknown scenario name).
pub const CODE_UNUSABLE: u64 = 13;

/// The wire name of node `id` (`n0`, `n1`, …).
pub fn node_name(id: NodeId) -> String {
    format!("n{id}")
}

/// Parses a wire node name back into its id (`"n3"` → `3`).
pub fn parse_node_name(name: &str) -> Option<NodeId> {
    name.strip_prefix('n')?.parse().ok()
}

/// One wire message: source, destination, typed body.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Sender name (`c0` or `n<k>`).
    pub src: String,
    /// Receiver name.
    pub dest: String,
    /// The typed payload.
    pub body: Body,
}

impl Envelope {
    /// A new envelope.
    pub fn new(src: impl Into<String>, dest: impl Into<String>, body: Body) -> Self {
        Envelope { src: src.into(), dest: dest.into(), body }
    }

    /// Serializes the envelope as one flat JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut line = String::with_capacity(96);
        line.push('{');
        push_str_field(&mut line, "src", &self.src);
        line.push(',');
        push_str_field(&mut line, "dest", &self.dest);
        line.push(',');
        self.body.encode_into(&mut line);
        line.push('}');
        line
    }

    /// Parses one flat JSON line into an envelope.
    pub fn decode(line: &str) -> Result<Self, WireError> {
        let pairs = parse_object(line).ok_or(WireError::Malformed)?;
        let fields = Fields(&pairs);
        let src = fields.str("src")?.to_string();
        let dest = fields.str("dest")?.to_string();
        let body = Body::decode(&fields)?;
        Ok(Envelope { src, dest, body })
    }
}

/// The typed payload of an [`Envelope`].
#[derive(Clone, Debug, PartialEq)]
pub enum Body {
    /// Coordinator → node: adopt this identity and scenario. The stdio host
    /// builds its graph and contact schedule from exactly these parameters.
    Init {
        /// This node's id.
        node_id: NodeId,
        /// Network size.
        n: u64,
        /// Registry name of the (benign, classic, push-pull) scenario.
        scenario: String,
        /// The scenario seed (decimal string on the wire; see module docs).
        seed: u64,
    },
    /// Node → coordinator: initialised; initial rumor state attached.
    InitOk {
        /// Whether the node already knows every rumor (true only for n = 1).
        informed: bool,
        /// Whether the node holds the tracked rumor.
        tracked: bool,
        /// Number of rumors known.
        count: u64,
    },
    /// Coordinator → node: execute synchronous round `round` (1-based).
    /// Retransmitted with an increasing `attempt` until acknowledged.
    StartRound {
        /// The round to execute.
        round: u64,
        /// Retry attempt (0 on first transmission).
        attempt: u64,
    },
    /// Node → coordinator: round executed, post-merge state attached.
    RoundOk {
        /// The acknowledged round.
        round: u64,
        /// Whether the node now knows every rumor.
        informed: bool,
        /// Whether the node now holds the tracked rumor.
        tracked: bool,
        /// Number of rumors known.
        count: u64,
        /// Packets this node sent in this round.
        packets: u64,
        /// Channel exchanges this node opened in this round.
        exchanges: u64,
    },
    /// Node → node: one push or pull packet of round `round`, carrying the
    /// sender's full pre-round rumor set.
    Gossip {
        /// The round this packet belongs to.
        round: u64,
        /// The sending node's id (redundant with `src`, kept explicit so the
        /// payload is self-describing in captured traces).
        from: NodeId,
        /// Hex-encoded rumor words (see [`crate::store::RumorStore`]).
        rumors: String,
    },
    /// Anyone → node: report your rumor state (debugging / invariant probes).
    Read,
    /// Node → asker: the reply to [`Body::Read`].
    ReadOk {
        /// Whether the node knows every rumor.
        informed: bool,
        /// Whether the node holds the tracked rumor.
        tracked: bool,
        /// Number of rumors known.
        count: u64,
        /// Hex-encoded rumor words.
        rumors: String,
    },
    /// Structured failure reply (never fatal to the receiver).
    Error {
        /// One of the `CODE_*` constants.
        code: u64,
        /// Human-readable description.
        text: String,
    },
    /// Coordinator → itself: a timer. The cluster's scheduler delivers it
    /// `after` ticks in the future; `epoch` guards against stale timers.
    /// Internal — nodes reply with [`Body::Error`] if they ever receive one.
    Tick {
        /// Timer generation; ticks from earlier generations are ignored.
        epoch: u64,
        /// Delay in scheduler ticks.
        after: u64,
    },
}

impl Body {
    /// The wire `type` tag of this body.
    pub fn kind(&self) -> &'static str {
        match self {
            Body::Init { .. } => "init",
            Body::InitOk { .. } => "init_ok",
            Body::StartRound { .. } => "start_round",
            Body::RoundOk { .. } => "round_ok",
            Body::Gossip { .. } => "gossip",
            Body::Read => "read",
            Body::ReadOk { .. } => "read_ok",
            Body::Error { .. } => "error",
            Body::Tick { .. } => "tick",
        }
    }

    fn encode_into(&self, line: &mut String) {
        push_str_field(line, "type", self.kind());
        match *self {
            Body::Init { node_id, n, ref scenario, seed } => {
                push_num_field(line, "node_id", node_id as u64);
                push_num_field(line, "n", n);
                push_str_field_c(line, "scenario", scenario);
                push_str_field_c(line, "seed", &seed.to_string());
            }
            Body::InitOk { informed, tracked, count } => {
                push_bool_field(line, "informed", informed);
                push_bool_field(line, "tracked", tracked);
                push_num_field(line, "count", count);
            }
            Body::StartRound { round, attempt } => {
                push_num_field(line, "round", round);
                push_num_field(line, "attempt", attempt);
            }
            Body::RoundOk { round, informed, tracked, count, packets, exchanges } => {
                push_num_field(line, "round", round);
                push_bool_field(line, "informed", informed);
                push_bool_field(line, "tracked", tracked);
                push_num_field(line, "count", count);
                push_num_field(line, "packets", packets);
                push_num_field(line, "exchanges", exchanges);
            }
            Body::Gossip { round, from, ref rumors } => {
                push_num_field(line, "round", round);
                push_num_field(line, "from", from as u64);
                push_str_field_c(line, "rumors", rumors);
            }
            Body::Read => {}
            Body::ReadOk { informed, tracked, count, ref rumors } => {
                push_bool_field(line, "informed", informed);
                push_bool_field(line, "tracked", tracked);
                push_num_field(line, "count", count);
                push_str_field_c(line, "rumors", rumors);
            }
            Body::Error { code, ref text } => {
                push_num_field(line, "code", code);
                push_str_field_c(line, "text", text);
            }
            Body::Tick { epoch, after } => {
                push_num_field(line, "epoch", epoch);
                push_num_field(line, "after", after);
            }
        }
    }

    fn decode(fields: &Fields<'_>) -> Result<Self, WireError> {
        let kind = fields.str("type")?;
        match kind {
            "init" => Ok(Body::Init {
                node_id: fields.node_id("node_id")?,
                n: fields.u64("n")?,
                scenario: fields.str("scenario")?.to_string(),
                seed: fields.seed("seed")?,
            }),
            "init_ok" => Ok(Body::InitOk {
                informed: fields.bool("informed")?,
                tracked: fields.bool("tracked")?,
                count: fields.u64("count")?,
            }),
            "start_round" => Ok(Body::StartRound {
                round: fields.u64("round")?,
                attempt: fields.u64("attempt")?,
            }),
            "round_ok" => Ok(Body::RoundOk {
                round: fields.u64("round")?,
                informed: fields.bool("informed")?,
                tracked: fields.bool("tracked")?,
                count: fields.u64("count")?,
                packets: fields.u64("packets")?,
                exchanges: fields.u64("exchanges")?,
            }),
            "gossip" => Ok(Body::Gossip {
                round: fields.u64("round")?,
                from: fields.node_id("from")?,
                rumors: fields.str("rumors")?.to_string(),
            }),
            "read" => Ok(Body::Read),
            "read_ok" => Ok(Body::ReadOk {
                informed: fields.bool("informed")?,
                tracked: fields.bool("tracked")?,
                count: fields.u64("count")?,
                rumors: fields.str("rumors")?.to_string(),
            }),
            "error" => {
                Ok(Body::Error { code: fields.u64("code")?, text: fields.str("text")?.to_string() })
            }
            "tick" => Ok(Body::Tick { epoch: fields.u64("epoch")?, after: fields.u64("after")? }),
            other => Err(WireError::UnknownType { found: other.to_string() }),
        }
    }
}

/// Why a wire line failed to decode. Every variant maps to an error `code`
/// via [`WireError::code`]; none of them is a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Not a flat JSON object (syntax error, nesting, trailing garbage, or a
    /// truncated line).
    Malformed,
    /// Valid object, but its `type` tag names no known message.
    UnknownType {
        /// The unrecognized tag.
        found: String,
    },
    /// A required field is absent.
    MissingField {
        /// The field name.
        field: &'static str,
    },
    /// A required field is present but has the wrong JSON type or an
    /// unrepresentable value (e.g. a negative count, a non-numeric seed).
    BadField {
        /// The field name.
        field: &'static str,
    },
}

impl WireError {
    /// The wire error code this failure is reported under.
    pub fn code(&self) -> u64 {
        match self {
            WireError::Malformed => CODE_MALFORMED,
            WireError::UnknownType { .. } => CODE_UNKNOWN_TYPE,
            WireError::MissingField { .. } | WireError::BadField { .. } => CODE_BAD_FIELD,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Malformed => write!(f, "not a flat JSON object"),
            WireError::UnknownType { found } => write!(f, "unknown message type {found:?}"),
            WireError::MissingField { field } => write!(f, "missing field {field:?}"),
            WireError::BadField { field } => write!(f, "ill-typed field {field:?}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Typed field access over a parsed flat object.
struct Fields<'a>(&'a [(String, JsonValue)]);

impl Fields<'_> {
    fn get(&self, field: &'static str) -> Result<&JsonValue, WireError> {
        self.0
            .iter()
            .find(|(k, _)| k == field)
            .map(|(_, v)| v)
            .ok_or(WireError::MissingField { field })
    }

    fn str(&self, field: &'static str) -> Result<&str, WireError> {
        self.get(field)?.as_str().ok_or(WireError::BadField { field })
    }

    /// Counters must be whole numbers exactly representable in f64 (see
    /// `JsonValue::as_u64`); anything else on the wire is a corrupt message,
    /// not a value.
    fn u64(&self, field: &'static str) -> Result<u64, WireError> {
        self.get(field)?.as_u64().ok_or(WireError::BadField { field })
    }

    fn bool(&self, field: &'static str) -> Result<bool, WireError> {
        self.get(field)?.as_bool().ok_or(WireError::BadField { field })
    }

    fn node_id(&self, field: &'static str) -> Result<NodeId, WireError> {
        NodeId::try_from(self.u64(field)?).map_err(|_| WireError::BadField { field })
    }

    /// Seeds are decimal strings on the wire (see module docs).
    fn seed(&self, field: &'static str) -> Result<u64, WireError> {
        self.str(field)?.parse().map_err(|_| WireError::BadField { field })
    }
}

fn push_str_field(line: &mut String, key: &str, value: &str) {
    escape_into(line, key);
    line.push(':');
    escape_into(line, value);
}

/// `push_str_field` with the leading comma (every body field is non-first).
fn push_str_field_c(line: &mut String, key: &str, value: &str) {
    line.push(',');
    push_str_field(line, key, value);
}

fn push_num_field(line: &mut String, key: &str, value: u64) {
    use std::fmt::Write as _;
    line.push(',');
    escape_into(line, key);
    let _ = write!(line, ":{value}");
}

fn push_bool_field(line: &mut String, key: &str, value: bool) {
    line.push(',');
    escape_into(line, key);
    line.push(':');
    line.push_str(if value { "true" } else { "false" });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One sample of every body variant, for exhaustive codec tests.
    pub(crate) fn samples() -> Vec<Envelope> {
        vec![
            Envelope::new(
                COORDINATOR,
                "n0",
                Body::Init {
                    node_id: 0,
                    n: 16,
                    scenario: "sparse-er".into(),
                    // Deliberately above 2^53, to pin the string encoding.
                    seed: 0xDEAD_BEEF_CAFE_F00D,
                },
            ),
            Envelope::new(
                "n0",
                COORDINATOR,
                Body::InitOk { informed: false, tracked: true, count: 1 },
            ),
            Envelope::new(COORDINATOR, "n1", Body::StartRound { round: 3, attempt: 1 }),
            Envelope::new(
                "n1",
                COORDINATOR,
                Body::RoundOk {
                    round: 3,
                    informed: false,
                    tracked: true,
                    count: 9,
                    packets: 2,
                    exchanges: 1,
                },
            ),
            Envelope::new(
                "n1",
                "n4",
                Body::Gossip { round: 3, from: 1, rumors: "02ff000000000000".into() },
            ),
            Envelope::new(COORDINATOR, "n2", Body::Read),
            Envelope::new(
                "n2",
                COORDINATOR,
                Body::ReadOk {
                    informed: true,
                    tracked: true,
                    count: 16,
                    rumors: "ffff000000000000".into(),
                },
            ),
            Envelope::new("n2", "c0", Body::Error { code: CODE_BAD_FIELD, text: "nope".into() }),
            Envelope::new(COORDINATOR, COORDINATOR, Body::Tick { epoch: 7, after: 16 }),
        ]
    }

    #[test]
    fn every_body_round_trips_through_the_codec() {
        for env in samples() {
            let line = env.encode();
            let back = Envelope::decode(&line)
                .unwrap_or_else(|e| panic!("{e} decoding {line:?} ({:?})", env.body.kind()));
            assert_eq!(back, env, "line: {line}");
        }
    }

    #[test]
    fn seeds_survive_the_full_u64_range() {
        for seed in [0u64, 1, (1 << 53) + 1, u64::MAX] {
            let env = Envelope::new(
                COORDINATOR,
                "n0",
                Body::Init { node_id: 0, n: 2, scenario: "s".into(), seed },
            );
            match Envelope::decode(&env.encode()).unwrap().body {
                Body::Init { seed: back, .. } => assert_eq!(back, seed),
                other => panic!("decoded {other:?}"),
            }
        }
    }

    #[test]
    fn decode_reports_structured_errors() {
        assert_eq!(Envelope::decode("not json"), Err(WireError::Malformed));
        assert_eq!(
            Envelope::decode(r#"{"src":"a","dest":"b"}"#),
            Err(WireError::MissingField { field: "type" })
        );
        assert_eq!(
            Envelope::decode(r#"{"src":"a","dest":"b","type":"warble"}"#),
            Err(WireError::UnknownType { found: "warble".into() })
        );
        assert_eq!(
            Envelope::decode(
                r#"{"src":"a","dest":"b","type":"start_round","round":-1,"attempt":0}"#
            ),
            Err(WireError::BadField { field: "round" })
        );
        assert_eq!(
            Envelope::decode(
                r#"{"src":"a","dest":"b","type":"start_round","round":1.5,"attempt":0}"#
            ),
            Err(WireError::BadField { field: "round" })
        );
    }

    #[test]
    fn node_names_round_trip() {
        assert_eq!(node_name(0), "n0");
        assert_eq!(parse_node_name("n17"), Some(17));
        assert_eq!(parse_node_name("c0"), None);
        assert_eq!(parse_node_name("n"), None);
        assert_eq!(parse_node_name("nx"), None);
    }

    #[test]
    fn error_codes_partition_the_failure_modes() {
        assert_eq!(WireError::Malformed.code(), CODE_MALFORMED);
        assert_eq!(WireError::UnknownType { found: "x".into() }.code(), CODE_UNKNOWN_TYPE);
        assert_eq!(WireError::MissingField { field: "f" }.code(), CODE_BAD_FIELD);
        assert_eq!(WireError::BadField { field: "f" }.code(), CODE_BAD_FIELD);
    }
}
