//! A run's result: metrics with units and sample notes, op and check
//! accounting, the human-readable report, and the final JSON line.

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
    /// Sample count and provenance, for the human-readable report.
    pub note: String,
}

/// Ops attempted and failed, named correctness checks, metrics, and free
/// report lines (digests, host noise).
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    checks: Vec<(String, bool)>,
    metrics: Vec<Metric>,
    lines: Vec<String>,
}

impl Report {
    /// Counts one op; `ok` is whether its output passed its check.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records a whole-run correctness check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Records a metric. A non-finite value fails the run's checks.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        let name = name.into();
        if !value.is_finite() {
            self.check(format!("{name} is a finite number"), false);
        }
        self.metrics.push(Metric { name, value, unit, note: note.into() });
    }

    /// Adds a free line to the human-readable report.
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// The metrics recorded so far.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Takes over `other`'s ops, checks and lines; its metrics become report
    /// lines under `label`, not result metrics.
    pub fn absorb(&mut self, label: &str, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checks.extend(other.checks);
        self.lines.extend(other.lines);
        for m in other.metrics {
            self.lines.push(format!("{label}: {} = {} {} ({})", m.name, m.value, m.unit, m.note));
        }
    }

    /// Takes over `other` entirely, metrics included.
    pub fn merge(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checks.extend(other.checks);
        self.metrics.extend(other.metrics);
        self.lines.extend(other.lines);
    }

    /// Whether every op and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints the human-readable report, then the JSON result as the last
    /// line of standard output.
    pub fn print(&self, header: &str) {
        println!("{header}");
        for line in &self.lines {
            println!("  {line}");
        }
        for m in &self.metrics {
            let moves = crate::layers::moves(&m.name)
                .map_or(String::new(), |w| format!("; should move {w}"));
            println!("  {:<34} {:>14.4} {:<6} {}{moves}", m.name, m.value, m.unit, m.note);
        }
        for (what, ok) in &self.checks {
            println!("  check {}: {what}", if *ok { "ok" } else { "FAILED" });
        }
        println!("  ops attempted {}, failed {}", self.attempted, self.failed);
        println!("{}", self.json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_result_keys() {
        let mut r = Report::default();
        r.op(true);
        r.op(true);
        r.metric("op_ms_p50", 12.5, "ms", "n=2 ops");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \
             \"metrics\": {\"op_ms_p50\": {\"value\": 12.5, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn failures_checks_and_non_finite_values_make_a_run_incorrect() {
        let mut r = Report::default();
        assert!(!r.correct(), "a run without ops proves nothing");
        r.op(true);
        assert!(r.correct());
        r.metric("x", f64::NAN, "ms", "");
        assert!(!r.correct());
        assert!(r.json().contains("\"x\": {\"value\": 0, \"unit\": \"ms\"}"));

        let mut r = Report::default();
        r.op(false);
        assert!(!r.correct());
        let mut r = Report::default();
        r.op(true);
        r.check("golden", false);
        assert!(!r.correct());
    }

    #[test]
    fn absorbed_metrics_become_lines() {
        let mut inner = Report::default();
        inner.op(true);
        inner.metric("op_ms_p50", 3.0, "ms", "n=1");
        let mut outer = Report::default();
        outer.absorb("untraced", inner);
        assert!(outer.metrics().is_empty());
        assert!(outer.correct());
    }
}
