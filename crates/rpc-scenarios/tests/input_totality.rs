//! Scenario text is a total input surface.
//!
//! Every text the grammar accepts either fails with a [`ScenarioError`] or
//! yields a scenario that round-trips and runs cleanly — never a panic:
//!
//! 1. truncating a registry scenario's text at any char boundary, or
//!    replacing any one of its bytes, gives `Err` or a scenario that
//!    round-trips through [`Scenario::parse_str`];
//! 2. setting any numeric field of a registry scenario to `u64::MAX` gives
//!    `Err` or a run that ends within its round cap. Event ends past
//!    `u64::MAX` saturate and never fire, so a saturated TTL or churn
//!    downtime behaves exactly like one past the run's horizon.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rpc_scenarios::prelude::*;
use rpc_scenarios::registry;

/// Registry size for every check: small enough to run each mutant.
const N: usize = 64;

/// The largest scenario a mutant may have and still be run.
const MAX_RUN_SIZE: usize = 4096;

/// `Err`, or a scenario equal to its own text round trip.
fn assert_total(text: &str) {
    if let Ok(scenario) = Scenario::parse_str(text) {
        let again = Scenario::parse_str(&scenario.to_text());
        assert_eq!(again.as_ref(), Ok(&scenario), "accepted text does not round-trip:\n{text}");
    }
}

#[test]
fn truncated_and_mutated_registry_texts_are_err_or_round_trip() {
    // Printable ASCII plus the line structure's whitespace.
    let bytes: Vec<u8> = (32u8..127).chain([b'\n', b'\t']).collect();
    for scenario in registry::builtin(N) {
        let text = scenario.to_text();
        for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
            assert_total(&text[..cut]);
        }
        for i in 0..text.len() {
            for &byte in &bytes {
                let mut mutated = text.clone().into_bytes();
                mutated[i] = byte;
                if let Ok(mutated) = String::from_utf8(mutated) {
                    assert_total(&mutated);
                }
            }
        }
    }
}

/// Byte ranges of the numbers in `text`'s values: maximal runs of digits
/// and dots after each line's `=` (names excluded).
fn numeric_fields(text: &str) -> Vec<std::ops::Range<usize>> {
    let mut fields = Vec::new();
    let mut line_start = 0;
    for line in text.split_inclusive('\n') {
        if let Some(eq) = line.find('=').filter(|_| !line.starts_with("name")) {
            let mut run: Option<usize> = None;
            for (i, c) in line.char_indices().skip_while(|&(i, _)| i <= eq) {
                let numeric = c.is_ascii_digit() || c == '.';
                match (run, numeric) {
                    (None, true) => run = Some(i),
                    (Some(start), false) => {
                        fields.push(line_start + start..line_start + i);
                        run = None;
                    }
                    _ => {}
                }
            }
            if let Some(start) = run {
                fields.push(line_start + start..line_start + line.len());
            }
        }
        line_start += line.len();
    }
    fields
}

#[test]
fn every_numeric_field_at_u64_max_is_err_or_a_clean_run() {
    let max = u64::MAX.to_string();
    let mut fields_checked = 0;
    let mut failures = Vec::new();
    for scenario in registry::builtin(N) {
        let text = scenario.to_text();
        for field in numeric_fields(&text) {
            let mutated = format!("{}{max}{}", &text[..field.start], &text[field.end..]);
            fields_checked += 1;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let Ok(mutant) = Scenario::parse_str(&mutated) else { return };
                let rumors = mutant.injection.as_ref().map_or(0, |inj| inj.rumors);
                if mutant.num_nodes() > MAX_RUN_SIZE || rumors > MAX_RUN_SIZE {
                    return;
                }
                let outcome = run_scenario(&mutant, 1, 1);
                assert!(outcome.rounds <= mutant.max_rounds, "run overshot its cap");
            }));
            if outcome.is_err() {
                failures.push(mutated);
            }
        }
    }
    assert!(fields_checked > 100, "only {fields_checked} numeric fields found");
    assert!(failures.is_empty(), "{} mutants panicked:\n{}", failures.len(), failures.join("\n"));
}

fn registry_scenario(name: &str) -> Scenario {
    registry::find(name, N).expect("registry scenario")
}

#[test]
fn saturated_ends_behave_like_ends_past_the_horizon() {
    // A u64::MAX TTL expires no rumor: the run equals one whose TTL ends
    // far past its round budget.
    let ttl = |ttl: u64| {
        let mut scenario = registry_scenario("ttl-expiry");
        scenario.injection.as_mut().expect("streaming scenario").ttl = Some(ttl);
        run_scenario(&scenario, 1, 1)
    };
    let saturated = ttl(u64::MAX);
    let stats = saturated.rumor_stats.as_ref().expect("streaming outcome");
    assert_eq!(stats.expired, 0, "a u64::MAX TTL must expire no rumor");
    assert_eq!(saturated, ttl(1_000_000));

    // A u64::MAX churn downtime never rejoins: the departed stay out, as
    // with a downtime past the budget.
    let downtime = |downtime: u64| {
        let mut scenario = registry_scenario("churn-heavy");
        scenario.stop = StopRule::Rounds(40);
        scenario.environment.churn.as_mut().expect("churn scenario").downtime = downtime;
        run_scenario(&scenario, 1, 1)
    };
    let saturated = downtime(u64::MAX);
    assert!(saturated.departed > 0);
    assert_eq!(saturated, downtime(1_000_000));
}
