//! The stdio transport and the node's main loop: how a deployable actor
//! meets the outside world.
//!
//! [`StdioTransport`] carries one JSON envelope per line over any
//! `BufRead`/`Write` pair — in production stdin/stdout, so a node is a plain
//! OS process (`experiments node`) a Maelstrom-style harness can spawn and
//! wire up. The in-process cluster needs no transport: it calls
//! [`NodeActor::handle`] directly (see [`crate::cluster`]).
//!
//! [`serve`] is the deployable node's main loop: wait for `init`, build the
//! graph and plan locally from the announced `(scenario, n, seed)`, then
//! pump messages until EOF — answering every undecodable line with a
//! structured `error` envelope instead of dying, and persisting the rumor
//! store to an optional state file so a supervisor can crash and restart the
//! process without losing state.

use std::io::{BufRead, Write};
use std::path::Path;

use rpc_graphs::Graph;
use rpc_scenarios::{plan_runtime, registry, scenario_engine_seeds, RuntimePlan};

use crate::node::NodeActor;
use crate::store::RumorStore;
use crate::wire::{Body, Envelope, WireError, CODE_UNUSABLE};

/// A transport failure.
#[derive(Debug)]
pub enum TransportError {
    /// The underlying byte stream failed.
    Io(std::io::Error),
    /// A received line failed to decode. Recoverable: the connection is
    /// still usable, the offending line is simply not a message.
    Wire(WireError),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
            TransportError::Wire(e) => write!(f, "undecodable message: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// JSON-lines over a `BufRead`/`Write` pair (stdin/stdout in production).
#[derive(Debug)]
pub struct StdioTransport<R: BufRead, W: Write> {
    input: R,
    output: W,
    line: String,
}

impl<R: BufRead, W: Write> StdioTransport<R, W> {
    /// A transport reading envelopes from `input` and writing to `output`.
    pub fn new(input: R, output: W) -> Self {
        StdioTransport { input, output, line: String::new() }
    }

    /// Consumes the transport, returning the output writer (for tests that
    /// inspect what a served node wrote).
    pub fn into_output(self) -> W {
        self.output
    }

    /// Sends one envelope as one line.
    pub fn send(&mut self, env: &Envelope) -> Result<(), TransportError> {
        self.output.write_all(env.encode().as_bytes())?;
        self.output.write_all(b"\n")?;
        self.output.flush()?;
        Ok(())
    }

    /// Receives the next envelope, skipping blank lines. `Ok(None)` means
    /// EOF. [`TransportError::Wire`] is recoverable: the line was garbage
    /// but the stream lives on.
    pub fn recv(&mut self) -> Result<Option<Envelope>, TransportError> {
        loop {
            self.line.clear();
            if self.input.read_line(&mut self.line)? == 0 {
                return Ok(None);
            }
            let line = self.line.trim();
            if line.is_empty() {
                continue;
            }
            return Envelope::decode(line).map(Some).map_err(TransportError::Wire);
        }
    }

    /// [`recv`](Self::recv) that answers every undecodable line with an
    /// `error` envelope from `name` (`?` before `init`) and reads on.
    fn recv_answering_garbage(&mut self, name: &str) -> Result<Option<Envelope>, TransportError> {
        loop {
            match self.recv() {
                Err(TransportError::Wire(e)) => self.send(&Envelope::new(
                    name,
                    "?",
                    Body::Error { code: e.code(), text: e.to_string() },
                ))?,
                other => return other,
            }
        }
    }
}

/// The deployable node's main loop (see module docs): wait for `init`,
/// build the local actor, whose schedule replay needs nothing but the graph
/// and the plan, and pump until EOF. `state_path` enables crash-restart
/// persistence: the rumor store is written there after every handled
/// message and reloaded (when valid) at `init`.
pub fn serve<R: BufRead, W: Write>(
    transport: &mut StdioTransport<R, W>,
    state_path: Option<&Path>,
) -> Result<(), TransportError> {
    // Phase 1: everything before a successful init is either the init
    // itself or answered with a structured error.
    let (graph, plan, init_env) = loop {
        let Some(env) = transport.recv_answering_garbage("?")? else {
            return Ok(());
        };
        match env.body {
            Body::Init { n, ref scenario, seed, .. } => match prepare(scenario, n as usize, seed) {
                Ok((graph, plan)) => break (graph, plan, env),
                Err(text) => transport.send(&Envelope::new(
                    env.dest.clone(),
                    env.src.clone(),
                    Body::Error { code: CODE_UNUSABLE, text },
                ))?,
            },
            _ => transport.send(&Envelope::new(
                env.dest.clone(),
                env.src.clone(),
                Body::Error {
                    code: CODE_UNUSABLE,
                    text: "not initialised: send init first".into(),
                },
            ))?,
        }
    };
    let Body::Init { node_id, .. } = init_env.body else { unreachable!("phase 1 breaks on init") };
    let mut actor = match state_path.and_then(|p| load_state(p, plan.n)) {
        Some(persisted) => NodeActor::restart(&graph, &plan, node_id, persisted.words()),
        None => NodeActor::new(&graph, &plan, node_id),
    };
    let name = actor.name();
    // Phase 2: the init reply, then pump until EOF.
    let mut next = Some(init_env);
    while let Some(env) = next {
        for reply in actor.handle(&env) {
            transport.send(&reply)?;
        }
        if let Some(path) = state_path {
            // Best-effort durability; a full disk must not kill the node.
            let _ = std::fs::write(path, actor.store().to_hex());
        }
        next = transport.recv_answering_garbage(&name)?;
    }
    Ok(())
}

/// Builds the graph and runtime plan a freshly initialised node needs.
fn prepare(scenario: &str, n: usize, seed: u64) -> Result<(Graph, RuntimePlan), String> {
    let spec =
        registry::find(scenario, n).ok_or_else(|| format!("unknown scenario {scenario:?}"))?;
    if spec.num_nodes() != n {
        return Err(format!(
            "scenario {scenario:?} adjusts n = {n} to {}; init with the adjusted size",
            spec.num_nodes()
        ));
    }
    let graph = spec.topology.build().generate(scenario_engine_seeds(seed).0);
    let plan = plan_runtime(&spec, seed, &graph).map_err(|e| e.to_string())?;
    Ok((graph, plan))
}

/// Loads a persisted rumor store, if the file exists and decodes.
fn load_state(path: &Path, n: usize) -> Option<RumorStore> {
    let text = std::fs::read_to_string(path).ok()?;
    RumorStore::from_hex(text.trim(), n).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::COORDINATOR;

    fn init_line(node: u64, n: u64, seed: u64) -> String {
        Envelope::new(
            COORDINATOR,
            format!("n{node}"),
            Body::Init { node_id: node as u32, n, scenario: "sparse-er".into(), seed },
        )
        .encode()
    }

    fn serve_lines(input: &str) -> Vec<Envelope> {
        let mut transport = StdioTransport::new(input.as_bytes(), Vec::new());
        serve(&mut transport, None).expect("serve survives to EOF");
        let out = String::from_utf8(transport.output).unwrap();
        out.lines().map(|l| Envelope::decode(l).expect("replies decode")).collect()
    }

    #[test]
    fn serve_initialises_and_answers_reads() {
        let read = Envelope::new("probe", "n0", Body::Read).encode();
        let replies = serve_lines(&format!("{}\n{read}\n", init_line(0, 16, 3)));
        assert_eq!(replies.len(), 2);
        assert!(matches!(replies[0].body, Body::InitOk { count: 1, .. }));
        match replies[1].body {
            Body::ReadOk { count, ref rumors, .. } => {
                assert_eq!(count, 1);
                let s = RumorStore::from_hex(rumors, 16).unwrap();
                assert!(s.contains(0));
            }
            ref other => panic!("expected read_ok, got {other:?}"),
        }
        assert_eq!(replies[1].dest, "probe");
    }

    #[test]
    fn serve_answers_garbage_with_errors_and_keeps_going() {
        let replies = serve_lines(&format!(
            "this is not json\n{}\n{{\"src\":\"a\",\"dest\":\"n0\",\"type\":\"warble\"}}\n",
            init_line(0, 16, 3)
        ));
        assert_eq!(replies.len(), 3);
        assert!(matches!(replies[0].body, Body::Error { code: crate::wire::CODE_MALFORMED, .. }));
        assert!(matches!(replies[1].body, Body::InitOk { .. }));
        assert!(matches!(
            replies[2].body,
            Body::Error { code: crate::wire::CODE_UNKNOWN_TYPE, .. }
        ));
    }

    #[test]
    fn serve_rejects_messages_before_init() {
        let read = Envelope::new("probe", "n0", Body::Read).encode();
        let replies = serve_lines(&format!("{read}\n{}\n", init_line(0, 16, 3)));
        assert_eq!(replies.len(), 2);
        match replies[0].body {
            Body::Error { code, ref text } => {
                assert_eq!(code, CODE_UNUSABLE);
                assert!(text.contains("init"));
            }
            ref other => panic!("expected error, got {other:?}"),
        }
        assert!(matches!(replies[1].body, Body::InitOk { .. }));
    }

    #[test]
    fn serve_rejects_unknown_scenarios() {
        let bad = Envelope::new(
            COORDINATOR,
            "n0",
            Body::Init { node_id: 0, n: 16, scenario: "no-such-scenario".into(), seed: 1 },
        )
        .encode();
        let replies = serve_lines(&format!("{bad}\n"));
        assert_eq!(replies.len(), 1);
        assert!(matches!(replies[0].body, Body::Error { code: CODE_UNUSABLE, .. }));
    }

    #[test]
    fn state_file_round_trips_across_a_restart() {
        let dir = std::env::temp_dir().join("rpc-runtime-host-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("n0.state");
        let _ = std::fs::remove_file(&path);
        // First life: init writes the initial one-rumor store.
        {
            let input = format!("{}\n", init_line(0, 16, 3));
            let mut transport = StdioTransport::new(input.as_bytes(), Vec::new());
            serve(&mut transport, Some(&path)).unwrap();
        }
        let persisted = std::fs::read_to_string(&path).unwrap();
        let store = RumorStore::from_hex(persisted.trim(), 16).unwrap();
        assert!(store.contains(0));
        // Second life: seed the file with extra rumors and observe the
        // restarted node report them.
        let mut seeded = RumorStore::with_own(16, 0);
        seeded.insert(7);
        seeded.insert(11);
        std::fs::write(&path, seeded.to_hex()).unwrap();
        let read = Envelope::new("probe", "n0", Body::Read).encode();
        let input = format!("{}\n{read}\n", init_line(0, 16, 3));
        let mut transport = StdioTransport::new(input.as_bytes(), Vec::new());
        serve(&mut transport, Some(&path)).unwrap();
        let out = String::from_utf8(transport.output).unwrap();
        let replies: Vec<Envelope> = out.lines().map(|l| Envelope::decode(l).unwrap()).collect();
        match replies[1].body {
            Body::ReadOk { count, .. } => assert_eq!(count, 3),
            ref other => panic!("expected read_ok, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_far_future_round_is_answered_without_replaying_every_round() {
        // A round far past the plan's cap draws nothing, so the node must
        // not walk its schedule there one round at a time.
        let start = Envelope::new(
            COORDINATOR,
            "n0",
            Body::StartRound { round: 100_000_000_000_000, attempt: 0 },
        )
        .encode();
        let read = Envelope::new("probe", "n0", Body::Read).encode();
        let input = format!("{}\n{start}\n{read}\n", init_line(0, 16, 3));
        // A thread and a timeout, so a node that stalls fails the test
        // instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || tx.send(serve_lines(&input)));
        let replies = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("serve answers the read within 10 s");
        worker.join().expect("serve returns at EOF").expect("the receiver is alive");
        assert!(
            matches!(replies.last().map(|e| &e.body), Some(Body::ReadOk { count: 1, .. })),
            "replies: {replies:?}"
        );
    }
}
