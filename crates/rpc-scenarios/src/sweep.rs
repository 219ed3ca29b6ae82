//! The adaptive sweep engine: declarative experiment grids over the scenario
//! stack.
//!
//! A [`SweepSpec`] names a grid of [`CellJob`]s — one *cell* per combination
//! of experiment axes (graph size, topology, protocol, loss, failure count,
//! …) — plus one [`RepPolicy`] saying how many seeded repetitions each cell
//! runs. [`SweepRunner`] executes the grid on the arena-backed worker pool
//! and aggregates each cell's repetitions into a [`CellResult`] inside a
//! [`SweepReport`].
//!
//! # Adaptive repetition
//!
//! With [`RepPolicy::adaptive`], a cell keeps running batches of repetitions
//! until the confidence interval of a target statistic is narrow enough (see
//! [`CiStopRule`]) or the repetition budget is exhausted. The stop decision
//! is a pure function of the cell's sample *prefix* ([`stop_index`]): the
//! runner may batch repetitions however it likes (it doubles the target per
//! round), but the chosen cut `k` — and therefore the aggregated result —
//! depends only on the first `k` samples. Surplus repetitions computed past
//! the cut are discarded, never averaged in.
//!
//! # Determinism contract
//!
//! Repetition `r` of the cell with key `key` is seeded
//! `derive_seed(spec.seed, hash_key(key), r)` — a pure function of the spec
//! seed and the cell's identity. Combined with prefix-stable stopping and the
//! task-ordered worker pool, a sweep's per-cell results are
//! bit-identical for **any** thread count, any batch granularity, and any
//! subset of cells served from cache.
//!
//! # Cell cache
//!
//! With [`SweepRunner::with_cache`], finished cells are persisted to a text
//! file keyed by cell key and fingerprinted over everything that determines
//! the numbers (spec seed, repetition policy, the job itself). Reruns skip
//! cells whose fingerprint matches and reproduce their results exactly;
//! fingerprint mismatches rerun the cell and overwrite the entry.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use rpc_engine::{derive_seed, hash_key};
use rpc_obs::{NoopObserver, ObsEvent, Observer};

use crate::cells::{run_cell_meta, CellJob, RepMeta, RepOutcome};
use crate::exec::{ScenarioArena, StoppedBy};
use crate::spec::ScenarioError;
use crate::stats::{summarize, SummaryStats};

/// The default normal quantile: a 95% two-sided interval.
pub const DEFAULT_Z: f64 = 1.96;

// ---------------------------------------------------------------------------
// Axis helpers
// ---------------------------------------------------------------------------

/// Geometric sweep of graph sizes between `min_n` and `max_n` (both rounded to
/// powers of two), mirroring the log-scaled x-axis of Figures 1 and 4.
pub fn size_sweep(min_n: usize, max_n: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut n = min_n.next_power_of_two().max(2);
    let max = max_n.max(n);
    while n <= max {
        sizes.push(n);
        n *= 2;
    }
    sizes
}

/// Geometric sweep with intermediate points (`×2` and `×3` per octave), used
/// by the Figure 4 detail plot.
pub fn dense_size_sweep(min_n: usize, max_n: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut base = min_n.next_power_of_two().max(2);
    while base <= max_n {
        sizes.push(base);
        let mid = base + base / 2;
        if mid <= max_n {
            sizes.push(mid);
        }
        base *= 2;
    }
    sizes
}

/// Failure-count sweep used by Figures 2 and 3: roughly log-spaced values from
/// `min_f` to `max_f`.
pub fn failure_sweep(min_f: usize, max_f: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut f = min_f.max(1);
    while f <= max_f {
        out.push(f);
        let next = (f as f64 * 2.0).round() as usize;
        f = next.max(f + 1);
    }
    out
}

/// Arithmetic failure sweep used by Figure 5 (`0, step, 2·step, …`).
pub fn arithmetic_failure_sweep(step: usize, max_f: usize) -> Vec<usize> {
    (0..=max_f / step.max(1)).map(|k| k * step).collect()
}

// ---------------------------------------------------------------------------
// Repetition policy
// ---------------------------------------------------------------------------

/// The confidence-interval stop rule of an adaptive sweep: stop a cell once
/// the 95% two-sided CI half-width of `metric`'s mean, `z·sd/√k` with
/// `z =` [`DEFAULT_Z`], is within `tolerance · |mean|`.
#[derive(Clone, Debug, PartialEq)]
pub struct CiStopRule {
    /// The target statistic (a metric name produced by every repetition of
    /// every cell, e.g. `packets_per_node`).
    pub metric: String,
    /// Tolerance on the half-width, as a fraction of the running `|mean|`.
    pub tolerance: f64,
}

impl CiStopRule {
    /// Stop once the 95% half-width is within `tolerance · |mean|`.
    pub fn relative(metric: impl Into<String>, tolerance: f64) -> Self {
        Self { metric: metric.into(), tolerance }
    }
}

/// How many seeded repetitions each cell of a sweep runs.
#[derive(Clone, Debug, PartialEq)]
pub struct RepPolicy {
    /// Repetitions every cell runs at least (≥ 2 when adaptive, so a
    /// standard deviation exists).
    pub min_reps: usize,
    /// Hard per-cell repetition budget.
    pub max_reps: usize,
    /// The adaptive stop rule; `None` means exactly
    /// [`Self::max_reps`] (= [`Self::min_reps`]) repetitions.
    pub ci: Option<CiStopRule>,
}

impl RepPolicy {
    /// Exactly `reps` repetitions per cell (clamped to ≥ 1), no early stop.
    pub fn fixed(reps: usize) -> Self {
        let reps = reps.max(1);
        Self { min_reps: reps, max_reps: reps, ci: None }
    }

    /// Between `min_reps` (clamped to ≥ 2) and `max_reps` repetitions per
    /// cell, stopping early once `ci` is satisfied.
    pub fn adaptive(min_reps: usize, max_reps: usize, ci: CiStopRule) -> Self {
        let min_reps = min_reps.max(2);
        Self { min_reps, max_reps: max_reps.max(min_reps), ci: Some(ci) }
    }

    /// Everything about the policy that affects a cell's aggregated numbers,
    /// rendered for cache fingerprinting. The fixed `z=` and `relative=`
    /// fields keep the text, and so every cached fingerprint, unchanged.
    fn fingerprint_text(&self) -> String {
        match &self.ci {
            None => format!("fixed min={} max={}", self.min_reps, self.max_reps),
            Some(ci) => format!(
                "adaptive min={} max={} metric={} z={DEFAULT_Z} tol={} relative=true",
                self.min_reps, self.max_reps, ci.metric, ci.tolerance
            ),
        }
    }
}

/// The prefix-stable stop decision: the smallest admissible repetition count
/// `k` at which the cell may stop, given the target statistic's samples in
/// repetition order.
///
/// Returns `Some((k, budget_exhausted))` once a decision exists:
///
/// * with a CI rule, the smallest `k ∈ [max(min_reps, 2), max_reps]` whose
///   prefix half-width `z·sd(values[..k])/√k` is within the tolerance
///   (`budget_exhausted = false`), or `(max_reps, true)` once the budget is
///   spent without convergence;
/// * without one, `(max_reps, false)` as soon as enough samples exist
///   (`values` themselves are ignored — only their count matters).
///
/// Returns `None` while more repetitions are needed. The decision depends
/// only on `values[..k]`, never on later samples, so any batching schedule
/// that eventually reaches `max_reps` selects the same cut — this is what
/// makes adaptive sweeps bit-identical across thread counts and batch sizes.
pub fn stop_index(values: &[f64], policy: &RepPolicy) -> Option<(usize, bool)> {
    let max = policy.max_reps;
    let Some(ci) = &policy.ci else {
        return (values.len() >= max).then_some((max, false));
    };
    let lo = policy.min_reps.max(2);
    // Streaming prefix mean / M2 (Welford): the k-th iteration sees exactly
    // the statistics of values[..k].
    let mut mean = 0.0f64;
    let mut m2 = 0.0f64;
    for (i, &v) in values.iter().take(max).enumerate() {
        let k = i + 1;
        let delta = v - mean;
        mean += delta / k as f64;
        m2 += delta * (v - mean);
        if k >= lo {
            let sd = (m2 / (k - 1) as f64).sqrt();
            let half = DEFAULT_Z * sd / (k as f64).sqrt();
            if half <= ci.tolerance * mean.abs() {
                return Some((k, false));
            }
        }
    }
    (values.len() >= max).then_some((max, true))
}

// ---------------------------------------------------------------------------
// Spec
// ---------------------------------------------------------------------------

/// One cell of a sweep: a stable key, the axis coordinates it reports under,
/// and the workload each repetition runs.
#[derive(Clone, Debug)]
pub struct SpecCell {
    /// Stable identity: `<spec-name>/<axis>=<value>/…`. Seeds and cache
    /// entries key off this, so results survive grid reordering.
    pub key: String,
    /// `(axis name, value)` pairs, in declaration order.
    pub axes: Vec<(String, String)>,
    /// The per-repetition workload.
    pub job: CellJob,
}

/// A declarative sweep: a named grid of cells plus the repetition policy.
///
/// Build one cell-by-cell with [`SweepSpec::new`] + [`SweepSpec::push_cell`],
/// or as a cross product with [`SweepSpec::grid`].
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Sweep name; prefixes every cell key.
    pub name: String,
    /// Base seed of the whole sweep.
    pub seed: u64,
    /// Repetition policy applied to every cell.
    pub policy: RepPolicy,
    cells: Vec<SpecCell>,
}

impl SweepSpec {
    /// An empty sweep.
    ///
    /// # Panics
    ///
    /// When `name` is empty or contains whitespace, `#`, `,` or `/` — cell
    /// keys derived from it must survive the cache and CSV formats.
    pub fn new(name: impl Into<String>, seed: u64, policy: RepPolicy) -> Self {
        let name = name.into();
        validate_token(&name, "sweep name").expect("invalid sweep name");
        Self { name, seed, policy, cells: Vec::new() }
    }

    /// Starts a cross-product grid over named axes.
    pub fn grid(name: impl Into<String>, seed: u64, policy: RepPolicy) -> GridBuilder {
        GridBuilder { spec: SweepSpec::new(name, seed, policy), axes: Vec::new() }
    }

    /// Appends one cell with explicit axis coordinates.
    ///
    /// Validates the job, the axis tokens (no whitespace, `#`, `,` or `/`;
    /// axis names additionally exclude `=`) and key uniqueness.
    pub fn push_cell(
        &mut self,
        axes: Vec<(String, String)>,
        job: CellJob,
    ) -> Result<(), ScenarioError> {
        job.validate()?;
        let mut key = self.name.clone();
        for (axis, value) in &axes {
            validate_token(axis, "axis name")?;
            if axis.contains('=') {
                return Err(ScenarioError::Invalid(format!("axis name {axis:?} contains '='")));
            }
            validate_token(value, "axis value")?;
            write!(key, "/{axis}={value}").expect("string write is infallible");
        }
        if self.cells.iter().any(|c| c.key == key) {
            return Err(ScenarioError::Invalid(format!("duplicate sweep cell key {key:?}")));
        }
        self.cells.push(SpecCell { key, axes, job });
        Ok(())
    }

    /// The cells, in declaration order.
    pub fn cells(&self) -> &[SpecCell] {
        &self.cells
    }
}

/// Checks that a key component survives the cell-cache and CSV formats.
fn validate_token(token: &str, what: &str) -> Result<(), ScenarioError> {
    if token.is_empty() {
        return Err(ScenarioError::Invalid(format!("{what} is empty")));
    }
    if let Some(bad) = token.chars().find(|c| c.is_whitespace() || matches!(c, '#' | ',' | '/')) {
        return Err(ScenarioError::Invalid(format!("{what} {token:?} contains {bad:?}")));
    }
    Ok(())
}

/// One coordinate of a grid: the value of every axis, as declared.
#[derive(Clone, Debug)]
pub struct AxisPoint {
    axes: Vec<(String, String)>,
}

impl AxisPoint {
    /// The value of `axis`.
    ///
    /// # Panics
    ///
    /// When the grid declares no such axis (a spec-construction bug).
    pub fn get(&self, axis: &str) -> &str {
        self.axes
            .iter()
            .find(|(a, _)| a == axis)
            .map(|(_, v)| v.as_str())
            .unwrap_or_else(|| panic!("grid has no axis {axis:?}"))
    }

    /// The value of `axis`, parsed.
    ///
    /// # Panics
    ///
    /// When the axis is missing or its value does not parse as `T`.
    pub fn parse<T>(&self, axis: &str) -> T
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Debug,
    {
        let raw = self.get(axis);
        raw.parse().unwrap_or_else(|e| panic!("axis {axis}={raw:?} did not parse: {e:?}"))
    }
}

/// Builder for cross-product sweeps: declare axes, then map every grid point
/// to a job.
#[derive(Clone, Debug)]
pub struct GridBuilder {
    spec: SweepSpec,
    axes: Vec<(String, Vec<String>)>,
}

impl GridBuilder {
    /// Declares an axis with the given values (rendered with `ToString`).
    /// Axes iterate in declaration order, the last axis fastest.
    pub fn axis<T: ToString>(
        mut self,
        name: impl Into<String>,
        values: impl IntoIterator<Item = T>,
    ) -> Self {
        self.axes.push((name.into(), values.into_iter().map(|v| v.to_string()).collect()));
        self
    }

    /// Enumerates the cross product and appends one cell per point for which
    /// `make_job` returns a job (`None` skips the point — holes in the grid
    /// are fine).
    pub fn cells<F>(self, make_job: F) -> Result<SweepSpec, ScenarioError>
    where
        F: Fn(&AxisPoint) -> Option<CellJob>,
    {
        let GridBuilder { mut spec, axes } = self;
        if axes.iter().any(|(_, values)| values.is_empty()) {
            return Ok(spec); // an empty axis empties the whole product
        }
        let mut odometer = vec![0usize; axes.len()];
        loop {
            let point = AxisPoint {
                axes: axes
                    .iter()
                    .zip(&odometer)
                    .map(|((name, values), &i)| (name.clone(), values[i].clone()))
                    .collect(),
            };
            if let Some(job) = make_job(&point) {
                spec.push_cell(point.axes, job)?;
            }
            // Advance the odometer, last axis fastest.
            let mut digit = axes.len();
            loop {
                if digit == 0 {
                    return Ok(spec);
                }
                digit -= 1;
                odometer[digit] += 1;
                if odometer[digit] < axes[digit].1.len() {
                    break;
                }
                odometer[digit] = 0;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// How many repetitions of one cell ended for each [`StoppedBy`]
/// discriminant. The five counts sum to the repetition count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoppedByCounts {
    /// Runs that ended in natural termination with gossiping complete.
    pub complete: usize,
    /// Runs that spent a [`crate::spec::StopRule::Rounds`] budget exactly.
    pub round_budget: usize,
    /// Runs that met a [`crate::spec::StopRule::Coverage`] threshold.
    pub coverage: usize,
    /// Runs where every injected rumor settled (completed or expired) under
    /// a [`crate::spec::StopRule::AllRumors`] rule.
    pub all_rumors: usize,
    /// Runs that exhausted `max_rounds` (or a phase schedule) without
    /// satisfying their stop rule.
    pub max_rounds: usize,
}

impl StoppedByCounts {
    /// Adds one run with the given discriminant to the tally.
    pub fn record(&mut self, stopped_by: StoppedBy) {
        match stopped_by {
            StoppedBy::Complete => self.complete += 1,
            StoppedBy::RoundBudget => self.round_budget += 1,
            StoppedBy::CoverageReached => self.coverage += 1,
            StoppedBy::AllRumorsDone => self.all_rumors += 1,
            StoppedBy::MaxRoundsExhausted => self.max_rounds += 1,
        }
    }

    /// Total runs tallied.
    pub fn total(&self) -> usize {
        self.complete + self.round_budget + self.coverage + self.all_rumors + self.max_rounds
    }
}

/// The aggregated statistics of one metric over a cell's repetitions.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSummary {
    /// Metric name, as produced by [`RepOutcome`].
    pub name: String,
    /// Five-number summary of the samples.
    pub stats: SummaryStats,
    /// Sample standard deviation (`k-1` denominator; 0 below two samples).
    pub sd: f64,
    /// CI half-width of the mean, `z·sd/√k` with `z =` [`DEFAULT_Z`].
    pub ci_half: f64,
}

/// One cell's aggregated result.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// The cell's stable key.
    pub key: String,
    /// Axis coordinates, as declared in the spec.
    pub axes: Vec<(String, String)>,
    /// Repetitions aggregated (the adaptive cut `k`).
    pub reps: usize,
    /// Whether an adaptive cell spent its whole budget without the CI rule
    /// converging (always `false` for fixed policies).
    pub budget_exhausted: bool,
    /// Repetitions by [`StoppedBy`] discriminant.
    pub stopped: StoppedByCounts,
    /// Per-metric summaries, in the metrics' first-seen order.
    pub metrics: Vec<MetricSummary>,
    /// Whether this result was served from the cell cache instead of being
    /// recomputed. Cached results are bit-identical to recomputed ones.
    pub from_cache: bool,
}

impl CellResult {
    /// The summary of one metric, if the cell produced it.
    pub fn metric(&self, name: &str) -> Option<&MetricSummary> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Convenience: one metric's mean, if the cell produced it.
    pub fn mean(&self, name: &str) -> Option<f64> {
        self.metric(name).map(|m| m.stats.mean)
    }

    /// One axis's value, if the cell declares it.
    pub fn axis(&self, name: &str) -> Option<&str> {
        self.axes.iter().find(|(a, _)| a == name).map(|(_, v)| v.as_str())
    }
}

/// The result of one sweep: every cell's aggregate, in spec order.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepReport {
    /// The spec's name.
    pub spec_name: String,
    /// Per-cell results, in spec order.
    pub cells: Vec<CellResult>,
    /// Simulations actually executed by this run — includes surplus
    /// repetitions past an adaptive cut (computed, then discarded) and
    /// excludes cache-served cells. This is the cost measure adaptive
    /// stopping reduces.
    pub executed_reps: usize,
    /// Cells served from the cell cache.
    pub cached_cells: usize,
}

impl SweepReport {
    /// Total repetitions aggregated into the report (`Σ cell.reps`),
    /// independent of caching and surplus.
    pub fn total_reps(&self) -> usize {
        self.cells.iter().map(|c| c.reps).sum()
    }

    /// Union of metric names across cells, in first-seen order.
    pub fn metric_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for cell in &self.cells {
            for metric in &cell.metrics {
                if !names.contains(&metric.name.as_str()) {
                    names.push(&metric.name);
                }
            }
        }
        names
    }

    /// Serialises the report as JSON (hand-rolled; the repo carries no serde
    /// dependency). Floats render in Rust's shortest round-trip form.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        write!(
            out,
            "\"spec\":{},\"ci_z\":{DEFAULT_Z},\"executed_reps\":{},\"cached_cells\":{},\"cells\":[",
            json_string(&self.spec_name),
            self.executed_reps,
            self.cached_cells
        )
        .unwrap();
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"key\":{},\"reps\":{},\"budget_exhausted\":{},\"from_cache\":{},",
                json_string(&cell.key),
                cell.reps,
                cell.budget_exhausted,
                cell.from_cache
            )
            .unwrap();
            out.push_str("\"axes\":{");
            for (j, (axis, value)) in cell.axes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write!(out, "{}:{}", json_string(axis), json_string(value)).unwrap();
            }
            let s = cell.stopped;
            write!(
                out,
                "}},\"stopped\":{{\"complete\":{},\"round_budget\":{},\"coverage\":{},\
                 \"max_rounds\":{}}},\"metrics\":{{",
                s.complete, s.round_budget, s.coverage, s.max_rounds
            )
            .unwrap();
            for (j, m) in cell.metrics.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write!(
                    out,
                    "{}:{{\"min\":{},\"mean\":{},\"max\":{},\"p50\":{},\"p90\":{},\"sd\":{},\
                     \"ci_half\":{}}}",
                    json_string(&m.name),
                    m.stats.min,
                    m.stats.mean,
                    m.stats.max,
                    m.stats.p50,
                    m.stats.p90,
                    m.sd,
                    m.ci_half
                )
                .unwrap();
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Sample standard deviation (`k-1` denominator; 0 below two samples).
fn sample_sd(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let ss: f64 = values.iter().map(|v| (v - mean) * (v - mean)).sum();
    (ss / (values.len() - 1) as f64).sqrt()
}

fn ci_half_width(sd: f64, reps: usize) -> f64 {
    if reps == 0 {
        0.0
    } else {
        DEFAULT_Z * sd / (reps as f64).sqrt()
    }
}

// ---------------------------------------------------------------------------
// Cell cache
// ---------------------------------------------------------------------------

const CACHE_HEADER: &str = "# sweep cell cache v1";

#[derive(Clone, Debug, PartialEq)]
struct CacheEntry {
    fingerprint: u64,
    reps: usize,
    budget_exhausted: bool,
    stopped: StoppedByCounts,
    /// `(name, five-number summary, sample sd)` per metric, in order.
    metrics: Vec<(String, SummaryStats, f64)>,
}

impl CacheEntry {
    fn to_result(&self, cell: &SpecCell) -> CellResult {
        CellResult {
            key: cell.key.clone(),
            axes: cell.axes.clone(),
            reps: self.reps,
            budget_exhausted: self.budget_exhausted,
            stopped: self.stopped,
            metrics: self
                .metrics
                .iter()
                .map(|(name, stats, sd)| MetricSummary {
                    name: name.clone(),
                    stats: *stats,
                    sd: *sd,
                    ci_half: ci_half_width(*sd, self.reps),
                })
                .collect(),
            from_cache: true,
        }
    }
}

/// The persistent cell store behind [`SweepRunner::with_cache`]: a
/// line-oriented text file, one block per finished cell, floats in Rust's
/// shortest round-trip rendering (so reload is exact). Loading is lenient —
/// malformed blocks are dropped, which at worst recomputes their cells.
#[derive(Clone, Debug, Default, PartialEq)]
struct CellCache {
    entries: BTreeMap<String, CacheEntry>,
}

impl CellCache {
    fn load(path: &Path) -> Self {
        let Ok(text) = std::fs::read_to_string(path) else {
            return Self::default();
        };
        let mut cache = Self::default();
        let mut current: Option<(String, Vec<&str>)> = None;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(key) = line.strip_prefix("cell ") {
                current = Some((key.to_string(), Vec::new()));
            } else if line == "end" {
                if let Some((key, fields)) = current.take() {
                    if let Some(entry) = parse_entry(&fields) {
                        cache.entries.insert(key, entry);
                    }
                }
            } else if let Some((_, fields)) = current.as_mut() {
                fields.push(line);
            }
        }
        cache
    }

    fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut out = String::from(CACHE_HEADER);
        out.push('\n');
        for (key, e) in &self.entries {
            writeln!(out, "cell {key}").unwrap();
            writeln!(out, "fp {:016x}", e.fingerprint).unwrap();
            writeln!(out, "reps {}", e.reps).unwrap();
            writeln!(out, "exhausted {}", u8::from(e.budget_exhausted)).unwrap();
            let s = e.stopped;
            writeln!(
                out,
                "stopped {} {} {} {} {}",
                s.complete, s.round_budget, s.coverage, s.all_rumors, s.max_rounds
            )
            .unwrap();
            for (name, st, sd) in &e.metrics {
                writeln!(
                    out,
                    "metric {name} {} {} {} {} {} {sd}",
                    st.min, st.mean, st.max, st.p50, st.p90
                )
                .unwrap();
            }
            out.push_str("end\n");
        }
        // Write-then-rename so an interrupt (Ctrl-C, SIGTERM, OOM-kill) mid
        // write can never leave a truncated cache at `path`: the reader either
        // sees the previous complete file or the new complete file. The
        // temporary lives in the same directory, so the rename stays on one
        // filesystem (atomic on POSIX).
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, out)?;
        match std::fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                // Don't leave the orphan behind; the save still failed.
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

fn parse_entry(fields: &[&str]) -> Option<CacheEntry> {
    let mut fingerprint = None;
    let mut reps = None;
    let mut budget_exhausted = None;
    let mut stopped = None;
    let mut metrics = Vec::new();
    for field in fields {
        let mut parts = field.split_ascii_whitespace();
        match parts.next()? {
            "fp" => fingerprint = Some(u64::from_str_radix(parts.next()?, 16).ok()?),
            "reps" => reps = Some(parts.next()?.parse().ok()?),
            "exhausted" => budget_exhausted = Some(parts.next()? == "1"),
            "stopped" => {
                let mut next = || parts.next().and_then(|p| p.parse().ok());
                stopped = Some(StoppedByCounts {
                    complete: next()?,
                    round_budget: next()?,
                    coverage: next()?,
                    all_rumors: next()?,
                    max_rounds: next()?,
                });
            }
            "metric" => {
                let name = parts.next()?.to_string();
                let mut next = || parts.next().and_then(|p| p.parse::<f64>().ok());
                let stats = SummaryStats {
                    min: next()?,
                    mean: next()?,
                    max: next()?,
                    p50: next()?,
                    p90: next()?,
                };
                metrics.push((name, stats, next()?));
            }
            _ => return None,
        }
    }
    Some(CacheEntry {
        fingerprint: fingerprint?,
        reps: reps?,
        budget_exhausted: budget_exhausted?,
        stopped: stopped?,
        metrics,
    })
}

/// Everything that determines a cell's numbers, folded to one word: the spec
/// seed, the repetition policy, the cell key (which seeds repetitions) and
/// the workload. A cached entry is valid only while this matches.
fn cell_fingerprint(spec: &SweepSpec, cell: &SpecCell) -> u64 {
    let text = format!(
        "seed={}\npolicy={}\nkey={}\njob={}",
        spec.seed,
        spec.policy.fingerprint_text(),
        cell.key,
        cell.job.fingerprint_text()
    );
    hash_key(text.as_bytes())
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Fans `tasks` out across up to `threads` workers, each owning one private
/// [`ScenarioArena`], and returns the results **in task order** regardless of
/// which worker computed what.
///
/// Tasks are split into contiguous chunks (one per worker), every chunk is
/// processed in order on its own arena, and the chunk results are rejoined
/// in spawn order. Because each task's result is a pure function of the task
/// itself (arenas are bit-identical to fresh allocation), the output is
/// independent of the thread count.
fn run_on_pool<T, R, F>(tasks: &[T], threads: usize, run_task: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&mut ScenarioArena, &T) -> R + Sync,
{
    let threads = threads.max(1).min(tasks.len().max(1));
    if threads <= 1 {
        let mut arena = ScenarioArena::default();
        return tasks.iter().map(|task| run_task(&mut arena, task)).collect();
    }
    let chunk_size = tasks.len().div_ceil(threads);
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = tasks
            .chunks(chunk_size)
            .map(|chunk| {
                let run_task = &run_task;
                scope.spawn(move |_| {
                    let mut arena = ScenarioArena::default();
                    chunk.iter().map(|task| run_task(&mut arena, task)).collect::<Vec<_>>()
                })
            })
            .collect();
        // Joining in spawn order keeps the results in task order regardless
        // of which worker finishes first.
        handles.into_iter().flat_map(|h| h.join().expect("pool worker panicked")).collect()
    })
    .expect("crossbeam scope failed")
}

/// Executes [`SweepSpec`]s on the arena-backed worker pool.
#[derive(Clone, Debug)]
pub struct SweepRunner {
    threads: usize,
    cache_path: Option<PathBuf>,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepRunner {
    /// A runner with one worker per available CPU and no cache.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        Self { threads, cache_path: None }
    }

    /// Overrides the worker-thread count (clamped to ≥ 1). Results are
    /// bit-identical for any value.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Persists finished cells to `path` and serves matching cells from it on
    /// reruns. Served results are bit-identical to recomputation.
    pub fn with_cache(mut self, path: impl Into<PathBuf>) -> Self {
        self.cache_path = Some(path.into());
        self
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs the sweep: serves fingerprint-matching cells from the cache,
    /// fans fresh repetitions across the pool in doubling batches until every
    /// cell's [`stop_index`] decides, aggregates, and (when caching) persists
    /// the finished cells.
    ///
    /// # Panics
    ///
    /// When an adaptive policy targets a metric some cell never produces, or
    /// when the cache file cannot be written. [`SweepRunner::run_with`]
    /// returns a failed cache write as a [`CacheWriteError`] instead.
    pub fn run(&self, spec: &SweepSpec) -> SweepReport {
        self.run_with(spec, &mut NoopObserver).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`SweepRunner::run`] with an attached [`Observer`] receiving the
    /// sweep's lifecycle event stream: cells started or served from cache,
    /// batches scheduled, repetitions finished (with per-repetition
    /// wall-clock), CI stops, and cells finished.
    ///
    /// All events are emitted from the coordinator thread in deterministic
    /// task order; workers only measure wall-clock (and only when the
    /// observer is enabled), so the report is bit-identical to [`run`]'s —
    /// wall-clock never feeds back into any seeded path.
    ///
    /// # Errors
    ///
    /// When the cell cache cannot be written. The finished cells are then
    /// discarded: a caller that asked for a resume file must not succeed
    /// without one.
    ///
    /// # Panics
    ///
    /// When an adaptive policy targets a metric some cell never produces.
    ///
    /// [`run`]: SweepRunner::run
    pub fn run_with<O: Observer>(
        &self,
        spec: &SweepSpec,
        obs: &mut O,
    ) -> Result<SweepReport, CacheWriteError> {
        let mut cache = self.cache_path.as_deref().map(CellCache::load).unwrap_or_default();

        if O::ENABLED {
            obs.record(&ObsEvent::SweepStarted {
                sweep: &spec.name,
                cells: spec.cells.len(),
                threads: self.threads,
            });
        }

        let mut results: Vec<Option<CellResult>> = vec![None; spec.cells.len()];
        let mut cached_cells = 0;
        // (cell index, samples so far, current repetition target)
        let mut pending: Vec<(usize, Vec<RepOutcome>, usize)> = Vec::new();
        for (idx, cell) in spec.cells.iter().enumerate() {
            let served = cache
                .entries
                .get(&cell.key)
                .filter(|e| e.fingerprint == cell_fingerprint(spec, cell))
                .map(|e| e.to_result(cell));
            match served {
                Some(result) => {
                    if O::ENABLED {
                        obs.record(&ObsEvent::CacheHit {
                            sweep: &spec.name,
                            cell: &cell.key,
                            reps: result.reps,
                        });
                        obs.record(&ObsEvent::CellFinished {
                            sweep: &spec.name,
                            cell: &cell.key,
                            reps: result.reps,
                            cached: true,
                        });
                    }
                    results[idx] = Some(result);
                    cached_cells += 1;
                }
                None => {
                    if O::ENABLED {
                        obs.record(&ObsEvent::CellStarted {
                            sweep: &spec.name,
                            cell: &cell.key,
                            index: idx,
                            target_reps: spec.policy.min_reps,
                        });
                    }
                    pending.push((idx, Vec::new(), spec.policy.min_reps));
                }
            }
        }

        let mut executed_reps = 0;
        while !pending.is_empty() {
            // One batch: top every undecided cell up to its current target.
            let tasks: Vec<(usize, usize, usize)> = pending
                .iter()
                .enumerate()
                .flat_map(|(slot, (idx, samples, target))| {
                    (samples.len()..*target).map(move |rep| (slot, *idx, rep))
                })
                .collect();
            if O::ENABLED {
                obs.record(&ObsEvent::BatchScheduled { sweep: &spec.name, tasks: tasks.len() });
            }
            let outcomes = run_on_pool(&tasks, self.threads, |arena, &(_, idx, rep)| {
                let cell = &spec.cells[idx];
                let seed = derive_seed(spec.seed, hash_key(cell.key.as_bytes()), rep as u64);
                // Wall-clock is measured only when an observer is attached,
                // and flows only into the event stream — never into results.
                let started = O::ENABLED.then(std::time::Instant::now);
                let (outcome, meta) = run_cell_meta(arena, &cell.job, seed);
                let wall_nanos = started.map_or(0, |t| t.elapsed().as_nanos() as u64);
                (outcome, meta, wall_nanos)
            });
            executed_reps += tasks.len();
            for (&(slot, idx, rep), (outcome, meta, wall_nanos)) in tasks.iter().zip(outcomes) {
                if O::ENABLED {
                    let RepMeta { rounds, cores } = meta;
                    obs.record(&ObsEvent::RepFinished {
                        sweep: &spec.name,
                        cell: &spec.cells[idx].key,
                        rep,
                        wall_nanos,
                        rounds,
                        cores,
                    });
                }
                pending[slot].1.push(outcome);
            }

            pending.retain_mut(|(idx, samples, target)| {
                let cell = &spec.cells[*idx];
                let values: Vec<f64> = match &spec.policy.ci {
                    Some(ci) => samples
                        .iter()
                        .map(|s| {
                            s.metric(&ci.metric).unwrap_or_else(|| {
                                panic!(
                                    "adaptive stop metric {:?} is not produced by cell {:?}",
                                    ci.metric, cell.key
                                )
                            })
                        })
                        .collect(),
                    None => vec![0.0; samples.len()],
                };
                match stop_index(&values, &spec.policy) {
                    Some((k, budget_exhausted)) => {
                        samples.truncate(k);
                        if O::ENABLED {
                            if spec.policy.ci.is_some() && !budget_exhausted {
                                obs.record(&ObsEvent::CiStop {
                                    sweep: &spec.name,
                                    cell: &cell.key,
                                    reps: k,
                                });
                            }
                            obs.record(&ObsEvent::CellFinished {
                                sweep: &spec.name,
                                cell: &cell.key,
                                reps: k,
                                cached: false,
                            });
                        }
                        results[*idx] = Some(finalize(cell, samples, budget_exhausted));
                        false
                    }
                    None => {
                        *target = (*target * 2).min(spec.policy.max_reps);
                        true
                    }
                }
            });
        }

        let cells: Vec<CellResult> =
            results.into_iter().map(|r| r.expect("every cell decided")).collect();

        if let Some(path) = &self.cache_path {
            for (cell, result) in spec.cells.iter().zip(&cells) {
                if result.from_cache {
                    continue;
                }
                cache.entries.insert(
                    cell.key.clone(),
                    CacheEntry {
                        fingerprint: cell_fingerprint(spec, cell),
                        reps: result.reps,
                        budget_exhausted: result.budget_exhausted,
                        stopped: result.stopped,
                        metrics: result
                            .metrics
                            .iter()
                            .map(|m| (m.name.clone(), m.stats, m.sd))
                            .collect(),
                    },
                );
            }
            cache.save(path).map_err(|source| CacheWriteError { path: path.clone(), source })?;
        }

        if O::ENABLED {
            obs.record(&ObsEvent::SweepFinished {
                sweep: &spec.name,
                cells: spec.cells.len(),
                executed_reps,
                cached_cells,
            });
        }

        Ok(SweepReport { spec_name: spec.name.clone(), cells, executed_reps, cached_cells })
    }
}

/// The cell cache of a [`SweepRunner::with_cache`] run could not be written.
#[derive(Debug)]
pub struct CacheWriteError {
    /// The cache file.
    pub path: PathBuf,
    /// Why the write (or the rename over the old file) failed.
    pub source: std::io::Error,
}

impl std::fmt::Display for CacheWriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "failed to write {}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for CacheWriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Aggregates one cell's (already truncated) samples.
fn finalize(cell: &SpecCell, samples: &[RepOutcome], budget_exhausted: bool) -> CellResult {
    let mut stopped = StoppedByCounts::default();
    for sample in samples {
        stopped.record(sample.stopped_by);
    }
    let mut names: Vec<&str> = Vec::new();
    for sample in samples {
        for (name, _) in &sample.metrics {
            if !names.contains(&name.as_str()) {
                names.push(name);
            }
        }
    }
    let metrics = names
        .into_iter()
        .map(|name| {
            let values: Vec<f64> = samples.iter().map(|s| s.metric(name).unwrap_or(0.0)).collect();
            let sd = sample_sd(&values);
            MetricSummary {
                name: name.to_string(),
                stats: summarize(&values),
                sd,
                ci_half: ci_half_width(sd, values.len()),
            }
        })
        .collect();
    CellResult {
        key: cell.key.clone(),
        axes: cell.axes.clone(),
        reps: samples.len(),
        budget_exhausted,
        stopped,
        metrics,
        from_cache: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Scenario, TopologySpec};

    fn tiny_job(n: usize) -> CellJob {
        CellJob::scenario(
            Scenario::builder("cell", TopologySpec::ErdosRenyiPaper { n }).build().unwrap(),
        )
    }

    #[test]
    fn size_sweep_doubles() {
        assert_eq!(size_sweep(1024, 8192), vec![1024, 2048, 4096, 8192]);
        assert_eq!(size_sweep(1000, 1000), vec![1024]);
    }

    #[test]
    fn dense_sweep_adds_midpoints() {
        assert_eq!(dense_size_sweep(1024, 4096), vec![1024, 1536, 2048, 3072, 4096]);
    }

    #[test]
    fn failure_sweep_is_increasing_and_bounded() {
        let sweep = failure_sweep(10, 1000);
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*sweep.first().unwrap(), 10);
        assert!(*sweep.last().unwrap() <= 1000);
    }

    #[test]
    fn arithmetic_sweep_includes_zero() {
        assert_eq!(arithmetic_failure_sweep(100, 350), vec![0, 100, 200, 300]);
    }

    #[test]
    fn fixed_policy_stops_exactly_at_the_budget() {
        let policy = RepPolicy::fixed(4);
        assert_eq!(stop_index(&[0.0; 3], &policy), None);
        assert_eq!(stop_index(&[0.0; 4], &policy), Some((4, false)));
        assert_eq!(stop_index(&[0.0; 9], &policy), Some((4, false)), "surplus is ignored");
        assert_eq!(RepPolicy::fixed(0), RepPolicy::fixed(1), "a cell runs at least once");
        assert_eq!(SweepRunner::new().with_threads(0).threads(), 1);
    }

    #[test]
    fn ci_rule_fires_at_the_documented_width() {
        // Samples [0, 4, 2, 2]: prefix half-widths at z = 1.96 are
        // k=2: sd = 2·√2, half ≈ 3.92;  k=3: sd = 2, half ≈ 2.26;
        // k=4: sd = √(8/3), half = 1.96·√(8/3)/2 ≈ 1.60.
        // Every one of those prefixes has mean exactly 2, so a relative
        // tolerance of tol/2 is an absolute width of tol there.
        let values = [0.0, 4.0, 2.0, 2.0, 9.0, 9.0];
        let policy = |tol: f64| RepPolicy::adaptive(2, 6, CiStopRule::relative("m", tol / 2.0));
        assert_eq!(stop_index(&values, &policy(4.0)), Some((2, false)));
        assert_eq!(stop_index(&values, &policy(2.3)), Some((3, false)));
        assert_eq!(stop_index(&values, &policy(1.7)), Some((4, false)));
        // Too tight to ever converge on these samples: budget exhausted.
        assert_eq!(stop_index(&values, &policy(0.001)), Some((6, true)));
        // The documented boundary is inclusive: half-width exactly equal to
        // the tolerance fires.
        let exact = 1.96 * (8.0f64 / 3.0).sqrt() / 2.0;
        assert_eq!(stop_index(&values, &policy(exact)), Some((4, false)));
    }

    #[test]
    fn ci_decision_is_prefix_stable() {
        // Appending samples never changes an already-made decision.
        let values = [5.0, 5.0, 1.0, 9.0, 2.0, 8.0];
        // Relative 0.1 of the constant prefix's mean 5: a width of 0.5.
        let policy = RepPolicy::adaptive(2, 64, CiStopRule::relative("m", 0.1));
        let early = stop_index(&values[..2], &policy);
        assert_eq!(early, Some((2, false)), "constant prefix has zero width");
        for len in 3..=values.len() {
            assert_eq!(stop_index(&values[..len], &policy), early);
        }
    }

    #[test]
    fn relative_rule_scales_with_the_mean() {
        let narrow = [100.0, 101.0];
        let policy = RepPolicy::adaptive(2, 8, CiStopRule::relative("m", 0.05));
        // half ≈ 1.96·0.707/1.414 ≈ 0.98; 5% of 100.5 ≈ 5.02 → stops at 2.
        assert_eq!(stop_index(&narrow, &policy), Some((2, false)));
        let wide = [10.0, 200.0];
        // Same spread relative rule: half ≈ 186 ≫ 5% of 105 → keeps going.
        assert_eq!(stop_index(&wide, &policy), None);
    }

    #[test]
    fn zero_variance_zero_mean_fires_immediately() {
        let policy = RepPolicy::adaptive(2, 8, CiStopRule::relative("m", 0.01));
        assert_eq!(stop_index(&[0.0, 0.0], &policy), Some((2, false)));
    }

    #[test]
    fn adaptive_policy_clamps_to_two_minimum_reps() {
        let policy = RepPolicy::adaptive(0, 0, CiStopRule::relative("m", 0.1));
        assert_eq!((policy.min_reps, policy.max_reps), (2, 2));
        assert_eq!(RepPolicy::fixed(0).max_reps, 1);
    }

    #[test]
    fn grid_builder_enumerates_the_cross_product_last_axis_fastest() {
        let spec = SweepSpec::grid("g", 1, RepPolicy::fixed(1))
            .axis("n", [64usize, 128])
            .axis("p", ["a", "b"])
            .cells(|point| {
                let n: usize = point.parse("n");
                (point.get("p") != "b" || n != 64).then(|| tiny_job(n))
            })
            .unwrap();
        let keys: Vec<&str> = spec.cells().iter().map(|c| c.key.as_str()).collect();
        assert_eq!(keys, ["g/n=64/p=a", "g/n=128/p=a", "g/n=128/p=b"]);
        assert_eq!(
            spec.cells()[0].axes,
            vec![("n".to_string(), "64".to_string()), ("p".to_string(), "a".to_string())]
        );
    }

    #[test]
    fn push_cell_rejects_duplicate_keys_and_bad_tokens() {
        let mut spec = SweepSpec::new("s", 1, RepPolicy::fixed(1));
        let axes = vec![("n".to_string(), "64".to_string())];
        spec.push_cell(axes.clone(), tiny_job(64)).unwrap();
        assert!(spec.push_cell(axes, tiny_job(64)).is_err(), "duplicate key");
        for bad in ["has space", "has,comma", "has#hash", "has/slash", ""] {
            let axes = vec![("a".to_string(), bad.to_string())];
            assert!(spec.push_cell(axes, tiny_job(64)).is_err(), "accepted value {bad:?}");
        }
        let eq_axis = vec![("a=b".to_string(), "v".to_string())];
        assert!(spec.push_cell(eq_axis, tiny_job(64)).is_err(), "axis name with '='");
        assert!(
            spec.push_cell(vec![], CellJob::MemoryFailure { n: 8, failures: 99, trees: 1 })
                .is_err(),
            "invalid job"
        );
    }

    #[test]
    fn axis_values_may_contain_equals_signs() {
        // Topology labels like er-paper(n=1024) are legal axis values.
        let mut spec = SweepSpec::new("s", 1, RepPolicy::fixed(1));
        spec.push_cell(
            vec![("topology".to_string(), "er-paper(n=1024)".to_string())],
            tiny_job(64),
        )
        .unwrap();
        assert_eq!(spec.cells()[0].key, "s/topology=er-paper(n=1024)");
    }

    #[test]
    fn cache_round_trips_awkward_floats_exactly() {
        let entry = CacheEntry {
            fingerprint: 0xdead_beef_0123_4567,
            reps: 7,
            budget_exhausted: true,
            stopped: StoppedByCounts {
                complete: 4,
                round_budget: 1,
                coverage: 0,
                all_rumors: 3,
                max_rounds: 2,
            },
            metrics: vec![
                (
                    "m".to_string(),
                    SummaryStats {
                        min: 0.1 + 0.2,
                        mean: 1.0 / 3.0,
                        max: f64::MAX,
                        p50: 5e-324,
                        p90: -0.0,
                    },
                    1e-17,
                ),
                ("n".to_string(), SummaryStats::default(), 0.0),
            ],
        };
        let mut cache = CellCache::default();
        cache.entries.insert("s/n=64".to_string(), entry.clone());
        let dir = std::env::temp_dir().join("rpc-sweep-cache-test");
        let path = dir.join("cells.cache");
        cache.save(&path).unwrap();
        let reloaded = CellCache::load(&path);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(reloaded, cache);
        assert_eq!(reloaded.entries["s/n=64"], entry);
    }

    #[test]
    fn cache_load_is_lenient_about_garbage() {
        let dir = std::env::temp_dir().join("rpc-sweep-cache-lenient");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cells.cache");
        std::fs::write(
            &path,
            "# header\ncell good\nfp 00000000000000ff\nreps 2\nexhausted 0\n\
             stopped 2 0 0 0 0\nmetric m 1 1 1 1 1 0\nend\n\
             cell broken\nreps not-a-number\nend\nnoise outside blocks\n",
        )
        .unwrap();
        let cache = CellCache::load(&path);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(cache.entries.len(), 1);
        assert_eq!(cache.entries["good"].fingerprint, 0xff);
        assert!(CellCache::load(Path::new("/no/such/file")).entries.is_empty());
    }

    #[test]
    fn cache_save_is_atomic_and_truncated_files_load_leniently() {
        let dir = std::env::temp_dir().join("rpc-sweep-cache-atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cells.cache");
        let mut cache = CellCache::default();
        cache.entries.insert(
            "s/n=64".to_string(),
            CacheEntry {
                fingerprint: 1,
                reps: 2,
                budget_exhausted: false,
                stopped: StoppedByCounts::default(),
                metrics: vec![("m".to_string(), SummaryStats::default(), 0.0)],
            },
        );
        cache.save(&path).unwrap();
        // The write-then-rename leaves no temporary behind.
        assert!(!path.with_extension("tmp").exists(), "orphan temp file after save");
        // A kill mid-write truncates the file at an arbitrary byte. Every
        // prefix must load without panicking, dropping at most the cut block
        // (an interrupted *save* can't produce these thanks to the rename,
        // but a cache copied off a dying machine can).
        let full = std::fs::read_to_string(&path).unwrap();
        for cut in 0..=full.len() {
            let truncated = &full[..cut];
            std::fs::write(&path, truncated).unwrap();
            let loaded = CellCache::load(&path);
            assert!(loaded.entries.len() <= 1, "phantom entries from {truncated:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprints_cover_seed_policy_and_job() {
        let mut spec = SweepSpec::new("s", 1, RepPolicy::fixed(2));
        spec.push_cell(vec![("n".to_string(), "64".to_string())], tiny_job(64)).unwrap();
        let base = cell_fingerprint(&spec, &spec.cells()[0]);
        let mut reseeded = spec.clone();
        reseeded.seed = 2;
        assert_ne!(cell_fingerprint(&reseeded, &reseeded.cells()[0]), base);
        let mut repoliced = spec.clone();
        repoliced.policy = RepPolicy::fixed(3);
        assert_ne!(cell_fingerprint(&repoliced, &repoliced.cells()[0]), base);
        let mut rejobbed = SweepSpec::new("s", 1, RepPolicy::fixed(2));
        rejobbed.push_cell(vec![("n".to_string(), "64".to_string())], tiny_job(128)).unwrap();
        assert_ne!(cell_fingerprint(&rejobbed, &rejobbed.cells()[0]), base);
    }

    #[test]
    fn report_json_is_well_formed_enough_to_eyeball() {
        let spec = SweepSpec::grid("json", 3, RepPolicy::fixed(2))
            .axis("n", [64usize])
            .cells(|p| Some(tiny_job(p.parse("n"))))
            .unwrap();
        let report = SweepRunner::new().with_threads(1).run(&spec);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"spec\":\"json\""));
        assert!(json.contains("\"key\":\"json/n=64\""));
        assert!(json.contains("\"rounds\""));
        assert_eq!(json.matches("\"axes\"").count(), 1);
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn report_accessors_expose_axes_and_metrics() {
        let spec = SweepSpec::grid("acc", 5, RepPolicy::fixed(2))
            .axis("n", [64usize, 128])
            .cells(|p| Some(tiny_job(p.parse("n"))))
            .unwrap();
        let report = SweepRunner::new().with_threads(2).run(&spec);
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.total_reps(), 4);
        assert_eq!(report.executed_reps, 4);
        assert_eq!(report.cached_cells, 0);
        let cell = &report.cells[0];
        assert_eq!(cell.axis("n"), Some("64"));
        assert_eq!(cell.axis("missing"), None);
        assert_eq!(cell.stopped.total(), 2);
        assert!(cell.mean("rounds").unwrap() > 0.0);
        assert!(cell.metric("rounds").unwrap().ci_half >= 0.0);
        assert!(report.metric_names().contains(&"packets_per_node"));
    }

    #[test]
    #[should_panic(expected = "not produced by cell")]
    fn missing_adaptive_metric_panics_with_the_cell_key() {
        let spec = SweepSpec::grid(
            "miss",
            1,
            RepPolicy::adaptive(2, 4, CiStopRule::relative("no-such-metric", 0.1)),
        )
        .axis("n", [64usize])
        .cells(|p| Some(tiny_job(p.parse("n"))))
        .unwrap();
        SweepRunner::new().with_threads(1).run(&spec);
    }
}
