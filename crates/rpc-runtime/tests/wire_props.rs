//! Property suite for the JSON transport's error paths: decoding is total.
//!
//! Every malformed, truncated, mutated or type-confused line must map to a
//! structured [`WireError`] — never a panic — and the stdio serve loop must
//! answer such lines with `error` envelopes and keep running.

use proptest::prelude::*;
use rpc_runtime::wire::{Body, Envelope, WireError};
use rpc_runtime::{serve, RumorStore, StdioTransport};

/// A strategy for short lowercase identifiers (node names, scenario names).
fn arb_name() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..26, 1..9)
        .prop_map(|v| v.into_iter().map(|b| char::from(b'a' + b)).collect())
}

/// A strategy for printable-ASCII strings of length `0..max` (free text and
/// garbage lines).
fn arb_ascii(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(32u8..127, 0..max).prop_map(|v| v.into_iter().map(char::from).collect())
}

/// A strategy for 16-hex-char rumor payloads (one word).
fn arb_hex_word() -> impl Strategy<Value = String> {
    any::<u64>().prop_map(|w| format!("{w:016x}"))
}

/// An arbitrary valid envelope, cycling through every body variant.
fn arb_envelope() -> impl Strategy<Value = Envelope> {
    let fields =
        (0usize..9, (any::<u64>(), any::<u64>(), any::<u64>()), (any::<bool>(), any::<bool>()));
    (arb_name(), arb_name(), arb_name(), arb_hex_word(), arb_ascii(30), fields).prop_map(
        |(src, dest, name, hex, text, (variant, (a, b, c), (f1, f2)))| {
            // Counters on the wire are small by construction (rounds,
            // packets, node counts); only the string-encoded seed may span
            // the full u64 range — JSON numbers are f64-backed, so values
            // beyond 2^53 are deliberately rejected by the decoder.
            let (a, b) = (a % 1_000_000_000, b % 1_000_000_000);
            let body = match variant {
                0 => Body::Init {
                    node_id: (a % u64::from(u32::MAX)) as u32,
                    n: b % 1000 + 1,
                    scenario: name,
                    seed: c,
                },
                1 => Body::InitOk { informed: f1, tracked: f2, count: a },
                2 => Body::StartRound { round: a, attempt: b },
                3 => Body::RoundOk {
                    round: a,
                    informed: f1,
                    tracked: f2,
                    count: b,
                    packets: c % 1_000_000_000,
                    exchanges: c % 97,
                },
                4 => Body::Gossip { round: a, from: (b % u64::from(u32::MAX)) as u32, rumors: hex },
                5 => Body::Read,
                6 => Body::ReadOk { informed: f1, tracked: f2, count: a, rumors: hex },
                7 => Body::Error { code: a % 100, text },
                _ => Body::Tick { epoch: a, after: b % 1000 },
            };
            Envelope::new(src, dest, body)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round trip: encode then decode is the identity, for every variant.
    #[test]
    fn prop_encode_decode_round_trips(env in arb_envelope()) {
        let line = env.encode();
        let back = Envelope::decode(&line);
        prop_assert_eq!(back, Ok(env), "line: {}", line);
    }

    /// Truncating a valid line at ANY byte boundary yields a structured
    /// error — never a panic. A strict prefix of a flat JSON object is
    /// never itself a complete object, so every truncation must fail
    /// cleanly as malformed.
    #[test]
    fn prop_truncation_at_any_point_is_a_structured_error(env in arb_envelope()) {
        let line = env.encode();
        for cut in 0..line.len() {
            if !line.is_char_boundary(cut) {
                continue;
            }
            let truncated = &line[..cut];
            prop_assert_eq!(
                Envelope::decode(truncated),
                Err(WireError::Malformed),
                "truncated at {}: {:?}",
                cut,
                truncated
            );
        }
    }

    /// Arbitrary printable garbage never panics the decoder.
    #[test]
    fn prop_garbage_never_panics(garbage in arb_ascii(200)) {
        // Either it errors, or the garbage happened to be a valid envelope
        // (possible only for brace-wrapped input) — both are fine; what is
        // forbidden is a panic, which would fail this test.
        let _ = Envelope::decode(&garbage);
    }

    /// Mutating one byte of a valid line either still decodes (the byte
    /// landed in free-text position) or errors — never panics.
    #[test]
    fn prop_single_byte_mutations_never_panic(
        env in arb_envelope(),
        pos in any::<usize>(),
        byte in 32u8..127,
    ) {
        let line = env.encode();
        let mut bytes = line.into_bytes();
        let i = pos % bytes.len();
        bytes[i] = byte;
        if let Ok(mutated) = String::from_utf8(bytes) {
            let _ = Envelope::decode(&mutated);
        }
    }

    /// An unknown `type` tag is reported as such, preserving the tag.
    #[test]
    fn prop_unknown_types_are_reported(tag in arb_name()) {
        let known = [
            "init", "init_ok", "start_round", "round_ok", "gossip", "read", "read_ok",
            "error", "tick",
        ];
        if !known.contains(&tag.as_str()) {
            let line = format!(r#"{{"src":"a","dest":"b","type":"{tag}"}}"#);
            prop_assert_eq!(
                Envelope::decode(&line),
                Err(WireError::UnknownType { found: tag })
            );
        }
    }

    /// Hex rumor payload decoding is total: wrong length or charset is a
    /// structured error, valid payloads round trip.
    #[test]
    fn prop_rumor_hex_decoding_is_total(payload in arb_ascii(64), n in 1usize..200) {
        match RumorStore::from_hex(&payload, n) {
            Ok(store) => {
                prop_assert_eq!(store.to_hex().len(), payload.len());
                prop_assert!(store.count() <= n);
            }
            Err(e) => prop_assert_eq!(e, WireError::BadField { field: "rumors" }),
        }
    }

    /// Numeric fields reject negatives, fractions and overflow with a
    /// structured BadField — the f64 backing of flat JSON never smuggles a
    /// bad value through as a u64.
    #[test]
    fn prop_bad_numeric_fields_are_rejected(round in any::<u64>()) {
        for bad in ["-1", "1.5", "1e300", "-0.25"] {
            let line = format!(
                r#"{{"src":"a","dest":"b","type":"start_round","round":{bad},"attempt":{round}}}"#
            );
            let decoded = Envelope::decode(&line);
            prop_assert!(
                decoded == Err(WireError::BadField { field: "round" })
                    || decoded == Err(WireError::Malformed),
                "bad number {bad} decoded to {decoded:?}"
            );
        }
    }

    /// The stdio serve loop answers garbage lines with structured error
    /// envelopes and keeps serving — it never dies mid-stream.
    #[test]
    fn prop_serve_survives_garbage_lines(garbage in arb_ascii(120)) {
        let init = Envelope::new(
            "c0",
            "n0",
            Body::Init { node_id: 0, n: 16, scenario: "sparse-er".into(), seed: 3 },
        )
        .encode();
        let read = Envelope::new("probe", "n0", Body::Read).encode();
        let input = format!("{garbage}\n{init}\n{garbage}\n{read}\n");
        let mut transport = StdioTransport::new(input.as_bytes(), Vec::new());
        serve(&mut transport, None).expect("serve must survive to EOF");
        let mut replies = Vec::new();
        let output = transport.into_output();
        let mut echo = StdioTransport::new(output.as_slice(), Vec::new());
        while let Ok(Some(env)) = echo.recv() {
            replies.push(env);
        }
        // The trailing read was answered, so the garbage did not kill the
        // loop; and a non-envelope garbage line drew a structured error.
        prop_assert!(
            replies.iter().any(|e| matches!(e.body, Body::ReadOk { .. })),
            "serve died before the trailing read; replies: {:?}",
            replies
        );
        if Envelope::decode(garbage.trim()).is_err() && !garbage.trim().is_empty() {
            prop_assert!(
                replies.iter().any(|e| matches!(e.body, Body::Error { .. })),
                "garbage line drew no error envelope; replies: {:?}",
                replies
            );
        }
    }
}
