//! The `profile` subcommand: aggregate a JSON-lines observability trace into
//! a per-cell, per-core timing table.
//!
//! `experiments sweep --profile` (or any subcommand with `--trace-out`)
//! streams the sweep's event stream — one flat JSON object per line, written
//! by `rpc_obs::TraceWriter` — to a file. This module folds that stream back
//! into one row per sweep cell: repetitions executed and kept, wall-clock
//! spent, simulated rounds, and the split of delivery work across the three
//! adaptive cores (scalar / eager / batch). Per-core wall-clock is attributed
//! proportionally to each repetition's per-core delivery counts, so the table
//! answers "which core and which cell did the time go to" — the question
//! every perf PR needs to cite.
//!
//! Wall-clock lives only in the trace (it is measured strictly outside the
//! seeded simulation paths), so profiling is a pure post-processing step:
//! re-running the sweep with different thread counts changes this table but
//! never the experiment results.

use std::path::Path;

use rpc_obs::{parse_object, CoreRounds, JsonValue};

use crate::report::{fmt3, Table};

/// Aggregated timing facts of one sweep cell, folded from the trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileRow {
    /// Sweep (spec) name.
    pub sweep: String,
    /// Cell key.
    pub cell: String,
    /// Repetitions actually executed (including surplus past the CI cut).
    pub reps_run: usize,
    /// Repetitions kept by the cell's stop decision (or served from cache).
    pub reps_kept: usize,
    /// Whether the cell was served from the persistent cell cache.
    pub cached: bool,
    /// Total simulated rounds across executed repetitions.
    pub rounds: u64,
    /// Total wall-clock nanoseconds across executed repetitions.
    pub wall_nanos: u64,
    /// Delivery batches per adaptive core across executed repetitions.
    pub cores: CoreRounds,
}

impl ProfileRow {
    /// Wall-clock milliseconds attributed to one core, proportional to its
    /// share of the cell's delivery batches. Zero when no deliveries ran.
    pub fn core_ms(&self, core_batches: u64) -> f64 {
        let total = self.cores.total();
        if total == 0 {
            0.0
        } else {
            self.wall_nanos as f64 / 1e6 * core_batches as f64 / total as f64
        }
    }
}

fn field<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn str_field(fields: &[(String, JsonValue)], key: &str) -> Option<String> {
    field(fields, key)?.as_str().map(str::to_string)
}

/// A count field of the trace line numbered `line`: absent, it reads as 0;
/// present, it must be a count ([`JsonValue::as_u64`]).
fn count_field(fields: &[(String, JsonValue)], key: &str, line: usize) -> Result<u64, String> {
    match field(fields, key) {
        None => Ok(0),
        Some(value) => value
            .as_u64()
            .ok_or_else(|| format!("line {line}: `{key}` is not a whole number from 0 to 2^53")),
    }
}

/// Adds the count field `key` of line `line` to a per-cell total.
fn add_count(
    total: &mut u64,
    fields: &[(String, JsonValue)],
    key: &str,
    line: usize,
) -> Result<(), String> {
    *total = total
        .checked_add(count_field(fields, key, line)?)
        .ok_or_else(|| format!("line {line}: the cell's `{key}` total overflows u64"))?;
    Ok(())
}

/// Folds a JSON-lines trace into per-cell rows, in first-appearance order.
/// Unparseable lines, count fields that are not counts and per-cell totals
/// that overflow `u64` are reported as errors (a trace is machine-written;
/// corruption should be loud), unknown event kinds are skipped (forward
/// compatibility with richer traces).
pub fn aggregate<I: IntoIterator<Item = String>>(lines: I) -> Result<Vec<ProfileRow>, String> {
    let mut rows: Vec<ProfileRow> = Vec::new();
    let row = |sweep: String, cell: String, rows: &mut Vec<ProfileRow>| -> usize {
        match rows.iter().position(|r| r.sweep == sweep && r.cell == cell) {
            Some(idx) => idx,
            None => {
                rows.push(ProfileRow { sweep, cell, ..ProfileRow::default() });
                rows.len() - 1
            }
        }
    };
    for (lineno, line) in lines.into_iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields = parse_object(&line)
            .ok_or_else(|| format!("line {}: not a flat JSON object", lineno + 1))?;
        let Some(kind) = str_field(&fields, "ev") else {
            return Err(format!("line {}: missing `ev` kind", lineno + 1));
        };
        match kind.as_str() {
            "rep-finished" => {
                let (Some(sweep), Some(cell)) =
                    (str_field(&fields, "sweep"), str_field(&fields, "cell"))
                else {
                    return Err(format!("line {}: rep-finished without sweep/cell", lineno + 1));
                };
                let idx = row(sweep, cell, &mut rows);
                let r = &mut rows[idx];
                let line = lineno + 1;
                r.reps_run += 1;
                add_count(&mut r.rounds, &fields, "rounds", line)?;
                add_count(&mut r.wall_nanos, &fields, "wall_nanos", line)?;
                add_count(&mut r.cores.scalar, &fields, "scalar_rounds", line)?;
                add_count(&mut r.cores.eager, &fields, "eager_rounds", line)?;
                add_count(&mut r.cores.batch, &fields, "batch_rounds", line)?;
            }
            "cell-finished" => {
                let (Some(sweep), Some(cell)) =
                    (str_field(&fields, "sweep"), str_field(&fields, "cell"))
                else {
                    return Err(format!("line {}: cell-finished without sweep/cell", lineno + 1));
                };
                let cached = field(&fields, "cached").and_then(JsonValue::as_bool).unwrap_or(false);
                let reps = count_field(&fields, "reps", lineno + 1)?;
                let idx = row(sweep, cell, &mut rows);
                rows[idx].reps_kept = usize::try_from(reps)
                    .map_err(|_| format!("line {}: `reps` exceeds usize", lineno + 1))?;
                rows[idx].cached = cached;
            }
            _ => {}
        }
    }
    Ok(rows)
}

/// Reads and folds the trace file at `path`.
pub fn load(path: &Path) -> Result<Vec<ProfileRow>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read trace {}: {e}", path.display()))?;
    aggregate(text.lines().map(str::to_string))
}

/// Renders the per-cell, per-core timing table.
pub fn table(rows: &[ProfileRow]) -> Table {
    let mut table = Table::new(
        "Profile — per-cell wall-clock and delivery-core split",
        &[
            "sweep",
            "cell",
            "reps_run",
            "reps_kept",
            "cached",
            "wall_ms",
            "wall_ms_per_rep",
            "rounds",
            "scalar_rounds",
            "eager_rounds",
            "batch_rounds",
            "scalar_ms",
            "eager_ms",
            "batch_ms",
        ],
    );
    for r in rows {
        let wall_ms = r.wall_nanos as f64 / 1e6;
        let per_rep = if r.reps_run == 0 { 0.0 } else { wall_ms / r.reps_run as f64 };
        table.push_row(vec![
            r.sweep.clone(),
            r.cell.clone(),
            r.reps_run.to_string(),
            r.reps_kept.to_string(),
            u8::from(r.cached).to_string(),
            fmt3(wall_ms),
            fmt3(per_rep),
            r.rounds.to_string(),
            r.cores.scalar.to_string(),
            r.cores.eager.to_string(),
            r.cores.batch.to_string(),
            fmt3(r.core_ms(r.cores.scalar)),
            fmt3(r.core_ms(r.cores.eager)),
            fmt3(r.core_ms(r.cores.batch)),
        ]);
    }
    table
}

/// Renders the rows as a JSON array (beside the CSV, like the sweep reports).
pub fn to_json(rows: &[ProfileRow]) -> String {
    let mut out = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut sweep = String::new();
        rpc_obs::escape_into(&mut sweep, &r.sweep);
        let mut cell = String::new();
        rpc_obs::escape_into(&mut cell, &r.cell);
        out.push_str(&format!(
            "{{\"sweep\":{sweep},\"cell\":{cell},\"reps_run\":{},\"reps_kept\":{},\
             \"cached\":{},\"wall_nanos\":{},\"rounds\":{},\"scalar_rounds\":{},\
             \"eager_rounds\":{},\"batch_rounds\":{}}}",
            r.reps_run,
            r.reps_kept,
            r.cached,
            r.wall_nanos,
            r.rounds,
            r.cores.scalar,
            r.cores.eager,
            r.cores.batch,
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Vec<String> {
        vec![
            r#"{"ev":"sweep-started","sweep":"fig1","cells":2,"threads":4}"#.into(),
            r#"{"ev":"cell-started","sweep":"fig1","cell":"a","index":0,"target_reps":2}"#.into(),
            concat!(
                r#"{"ev":"rep-finished","sweep":"fig1","cell":"a","rep":0,"wall_nanos":3000000,"#,
                r#""rounds":10,"scalar_rounds":6,"eager_rounds":0,"batch_rounds":4}"#
            )
            .into(),
            concat!(
                r#"{"ev":"rep-finished","sweep":"fig1","cell":"a","rep":1,"wall_nanos":1000000,"#,
                r#""rounds":10,"scalar_rounds":10,"eager_rounds":0,"batch_rounds":0}"#
            )
            .into(),
            r#"{"ev":"cell-finished","sweep":"fig1","cell":"a","reps":2,"cached":false}"#.into(),
            r#"{"ev":"cache-hit","sweep":"fig1","cell":"b","reps":5}"#.into(),
            r#"{"ev":"cell-finished","sweep":"fig1","cell":"b","reps":5,"cached":true}"#.into(),
        ]
    }

    #[test]
    fn aggregates_reps_and_cores_per_cell() {
        let rows = aggregate(sample_trace()).unwrap();
        assert_eq!(rows.len(), 2);
        let a = &rows[0];
        assert_eq!((a.sweep.as_str(), a.cell.as_str()), ("fig1", "a"));
        assert_eq!((a.reps_run, a.reps_kept, a.cached), (2, 2, false));
        assert_eq!(a.rounds, 20);
        assert_eq!(a.wall_nanos, 4_000_000);
        assert_eq!((a.cores.scalar, a.cores.eager, a.cores.batch), (16, 0, 4));
        // Proportional attribution: 16/20 of 4ms to scalar, 4/20 to batch.
        assert!((a.core_ms(a.cores.scalar) - 3.2).abs() < 1e-9);
        assert!((a.core_ms(a.cores.batch) - 0.8).abs() < 1e-9);
        let b = &rows[1];
        assert_eq!((b.reps_run, b.reps_kept, b.cached), (0, 5, true));
        assert_eq!(b.core_ms(b.cores.scalar), 0.0);
    }

    #[test]
    fn table_and_json_render_every_row() {
        let rows = aggregate(sample_trace()).unwrap();
        let t = table(&rows);
        assert_eq!(t.len(), 2);
        assert!(t.to_csv().starts_with("sweep,cell,reps_run"));
        let json = to_json(&rows);
        assert!(json.contains("\"cell\":\"a\""));
        assert!(json.contains("\"cached\":true"));
    }

    #[test]
    fn count_fields_that_are_not_counts_are_line_errors() {
        let rep = |wall: &str| {
            format!(
                r#"{{"ev":"rep-finished","sweep":"s","cell":"c","rounds":1,"wall_nanos":{wall}}}"#
            )
        };
        let ok = rep("7");
        for bad in ["4e45032", "-1", "1.5", "\"7\"", "1e20"] {
            let err = aggregate(vec![ok.clone(), rep(bad)]).unwrap_err();
            assert!(err.starts_with("line 2: `wall_nanos`"), "{bad}: {err}");
        }
        let kept = r#"{"ev":"cell-finished","sweep":"s","cell":"c","reps":-3}"#;
        assert!(aggregate(vec![kept.to_string()]).unwrap_err().starts_with("line 1: `reps`"));
        // 2^53 is the largest count; 2048 of them sum to 2^64.
        let big = rep("9007199254740992");
        assert_eq!(aggregate(vec![big.clone(); 2047]).unwrap()[0].wall_nanos, 2047 << 53);
        let err = aggregate(vec![big; 2048]).unwrap_err();
        assert!(err.starts_with("line 2048: the cell's `wall_nanos` total overflows"), "{err}");
    }

    #[test]
    fn corrupt_lines_are_loud_and_unknown_kinds_are_not() {
        assert!(aggregate(vec!["not json".to_string()]).is_err());
        assert!(aggregate(vec![r#"{"sweep":"x"}"#.to_string()]).is_err());
        let rows = aggregate(vec![r#"{"ev":"dispatch","round":3}"#.to_string()]).unwrap();
        assert!(rows.is_empty());
    }
}
