//! Shared run options parsed once for every `experiments` subcommand.
//!
//! Historically each subcommand hand-rolled its own flag handling; [`RunOpts`]
//! centralises it: scale presets, thread count, output/cache paths, and the
//! repetition policy knobs (`--reps` forces a fixed budget, `--max-reps` and
//! `--ci-rel` tune the adaptive CI stop). The same options drive both the
//! unified `sweep` subcommand and the per-figure subcommands.

use std::fs::OpenOptions;
use std::io::BufWriter;
use std::path::PathBuf;

use rpc_obs::{NoopObserver, ProgressReporter, TraceWriter};
use rpc_scenarios::{CiStopRule, RepPolicy, SweepReport, SweepRunner, SweepSpec};

use crate::Scale;

/// Options shared by every experiment subcommand.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Graph sizes and base seed.
    pub scale: Scale,
    /// Worker threads for sweep execution (0 = auto-detect).
    pub threads: usize,
    /// Directory for CSV/JSON output; `None` prints Markdown only.
    pub out_dir: Option<PathBuf>,
    /// Cell-cache file for resumable sweeps.
    pub cache: Option<PathBuf>,
    /// `--reps N`: run exactly N repetitions per cell (disables the CI stop).
    pub fixed_reps: Option<usize>,
    /// `--max-reps N`: adaptive budget ceiling (default: 4 × the minimum).
    pub max_reps: Option<usize>,
    /// `--ci-rel T`: relative CI half-width tolerance (default 0.1).
    pub ci_rel: Option<f64>,
    /// `--only NAME` (repeatable): restrict `sweep`/`all` to these experiments.
    pub only: Vec<String>,
    /// `--trace-out FILE`: write the observability event stream (JSON lines)
    /// to this file. Implies tracing even without `--profile`.
    pub trace_out: Option<PathBuf>,
    /// `--profile`: trace to the default path (`<out-dir>/trace.jsonl`, or
    /// `trace.jsonl` without `--out`) and report live sweep progress on
    /// stderr.
    pub profile: bool,
}

impl Default for RunOpts {
    fn default() -> Self {
        Self {
            scale: Scale::default_scale(),
            threads: 0,
            out_dir: None,
            cache: None,
            fixed_reps: None,
            max_reps: None,
            ci_rel: None,
            only: Vec::new(),
            trace_out: None,
            profile: false,
        }
    }
}

impl RunOpts {
    /// Parses the flag list (everything after the subcommand). Returns a
    /// human-readable error for unknown flags or malformed values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut opts = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => opts.scale = Scale::quick(),
                "--large" => opts.scale = Scale::large(),
                "--max-n" => opts.scale.max_n = parse_value(&arg, args.next())?,
                "--reps" => opts.fixed_reps = Some(parse_value(&arg, args.next())?),
                "--max-reps" => opts.max_reps = Some(parse_value(&arg, args.next())?),
                "--ci-rel" => opts.ci_rel = Some(parse_value(&arg, args.next())?),
                "--seed" => opts.scale.seed = parse_value(&arg, args.next())?,
                "--threads" => opts.threads = parse_value(&arg, args.next())?,
                "--out" => {
                    opts.out_dir = Some(PathBuf::from(required(&arg, args.next())?));
                }
                "--cache" => {
                    opts.cache = Some(PathBuf::from(required(&arg, args.next())?));
                }
                "--only" => opts.only.push(required(&arg, args.next())?),
                "--trace-out" => {
                    opts.trace_out = Some(PathBuf::from(required(&arg, args.next())?));
                }
                "--profile" => opts.profile = true,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(opts)
    }

    /// The repetition policy for an experiment whose CI stop watches `metric`.
    ///
    /// `--reps` forces a fixed budget; otherwise the policy is adaptive with
    /// the scale's repetition count as the minimum, `--max-reps` (default
    /// 4 × minimum) as the ceiling, and a relative CI half-width tolerance of
    /// `--ci-rel` (default 0.1) on `metric`.
    pub fn policy(&self, metric: &str) -> RepPolicy {
        self.policy_with_min(1, metric)
    }

    /// Like [`RunOpts::policy`] but with a floor on the repetition count —
    /// threshold experiments (Figure 5) need at least five runs per point for
    /// the exceedance percentages to be meaningful.
    pub fn policy_with_min(&self, floor: usize, metric: &str) -> RepPolicy {
        if let Some(reps) = self.fixed_reps {
            return RepPolicy::fixed(reps.max(floor));
        }
        let min = self.scale.repetitions.max(floor).max(2);
        let max = self.max_reps.unwrap_or(min * 4).max(min);
        RepPolicy::adaptive(min, max, CiStopRule::relative(metric, self.ci_rel.unwrap_or(0.1)))
    }

    /// A sweep runner configured with the requested threads and cell cache.
    pub fn runner(&self) -> SweepRunner {
        let mut runner = SweepRunner::new();
        if self.threads > 0 {
            runner = runner.with_threads(self.threads);
        }
        if let Some(cache) = &self.cache {
            runner = runner.with_cache(cache);
        }
        runner
    }

    /// Whether `--only` filters allow the named experiment.
    pub fn should_run(&self, name: &str) -> bool {
        self.only.is_empty() || self.only.iter().any(|o| o == name)
    }

    /// The JSON-lines trace destination, if tracing is enabled:
    /// `--trace-out` wins, `--profile` alone falls back to
    /// `<out-dir>/trace.jsonl` (or `trace.jsonl` in the working directory).
    pub fn trace_path(&self) -> Option<PathBuf> {
        if let Some(path) = &self.trace_out {
            return Some(path.clone());
        }
        self.profile.then(|| {
            self.out_dir
                .as_deref()
                .map_or_else(|| PathBuf::from("trace.jsonl"), |dir| dir.join("trace.jsonl"))
        })
    }

    /// Executes a sweep spec with the configured runner, attaching the
    /// JSON-lines trace writer and the live stderr progress reporter when
    /// tracing is enabled. The report is bit-identical either way — observers
    /// are write-only sinks (see `rpc-obs`).
    ///
    /// The trace file is opened in append mode so the experiments of one
    /// invocation share a single stream; the CLI truncates it once at
    /// startup.
    ///
    /// # Errors
    ///
    /// `failed to write <path>: <os error>` when the `--cache` file cannot
    /// be written.
    pub fn run_spec(&self, spec: &SweepSpec) -> Result<SweepReport, String> {
        let runner = self.runner();
        let untraced = || runner.run_with(spec, &mut NoopObserver).map_err(|e| e.to_string());
        let Some(path) = self.trace_path() else {
            return untraced();
        };
        let file = match OpenOptions::new().create(true).append(true).open(&path) {
            Ok(file) => file,
            Err(e) => {
                eprintln!("cannot open trace file {}: {e}; tracing disabled", path.display());
                return untraced();
            }
        };
        let mut obs = (TraceWriter::new(BufWriter::new(file)), ProgressReporter::stderr());
        let report = runner.run_with(spec, &mut obs);
        if let Err(e) = obs.0.finish() {
            eprintln!("trace write to {} failed: {e}", path.display());
        }
        report.map_err(|e| e.to_string())
    }
}

fn required(flag: &str, value: Option<String>) -> Result<String, String> {
    value.ok_or_else(|| format!("{flag} requires a value"))
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let raw = required(flag, value)?;
    raw.parse().map_err(|_| format!("{flag}: invalid value `{raw}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> RunOpts {
        RunOpts::parse(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn defaults_match_the_default_scale() {
        let opts = parse(&[]);
        assert_eq!(opts.scale, Scale::default_scale());
        assert_eq!(opts.threads, 0);
        assert!(opts.out_dir.is_none() && opts.cache.is_none());
    }

    #[test]
    fn scale_and_value_flags_apply_in_order() {
        let opts = parse(&["--quick", "--max-n", "8192", "--seed", "7", "--threads", "3"]);
        assert_eq!(opts.scale.max_n, 8192);
        assert_eq!(opts.scale.seed, 7);
        assert_eq!(opts.threads, 3);
        assert_eq!(opts.scale.min_n, Scale::quick().min_n);
    }

    #[test]
    fn reps_forces_a_fixed_policy() {
        let opts = parse(&["--reps", "4"]);
        let policy = opts.policy("rounds");
        assert_eq!(policy, RepPolicy::fixed(4));
        // The floor still applies to fixed budgets.
        assert_eq!(opts.policy_with_min(5, "rounds"), RepPolicy::fixed(5));
    }

    #[test]
    fn adaptive_policy_uses_scale_reps_and_overrides() {
        let opts = parse(&["--max-reps", "20", "--ci-rel", "0.05"]);
        let policy = opts.policy("packets_per_node");
        assert_eq!(policy.min_reps, 3);
        assert_eq!(policy.max_reps, 20);
        let ci = policy.ci.as_ref().unwrap();
        assert_eq!(ci.metric, "packets_per_node");
        assert_eq!(ci.tolerance, 0.05);
    }

    #[test]
    fn only_filters_experiments() {
        let opts = parse(&["--only", "fig1", "--only", "table1"]);
        assert!(opts.should_run("fig1") && opts.should_run("table1"));
        assert!(!opts.should_run("fig2"));
        assert!(parse(&[]).should_run("fig2"));
    }

    #[test]
    fn unknown_and_malformed_flags_error() {
        assert!(RunOpts::parse(["--bogus".to_string()]).is_err());
        assert!(RunOpts::parse(["--reps".to_string()]).is_err());
        assert!(RunOpts::parse(["--reps".to_string(), "many".to_string()]).is_err());
    }
}
