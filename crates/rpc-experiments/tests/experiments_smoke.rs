//! End-to-end smoke test: run the `experiments` binary's `--quick` path and
//! assert it produces non-empty Markdown on stdout and non-empty CSV files.

use std::path::PathBuf;
use std::process::Command;

/// Directory unique to this test process so parallel test runs cannot clash.
fn scratch_dir(label: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("experiments-smoke-{label}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("stale scratch dir should be removable");
    }
    dir
}

#[test]
fn table1_quick_emits_markdown_and_csv() {
    let out_dir = scratch_dir("table1");
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["table1", "--quick", "--out"])
        .arg(&out_dir)
        .output()
        .expect("experiments binary should spawn");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));

    let stdout = String::from_utf8(output.stdout).expect("stdout should be UTF-8");
    assert!(!stdout.trim().is_empty(), "expected Markdown output on stdout");
    assert!(stdout.contains('|'), "expected a Markdown table, got:\n{stdout}");
    assert!(stdout.contains("Table 1"), "expected a Table 1 caption, got:\n{stdout}");

    let csv = out_dir.join("table1_constants.csv");
    let contents = std::fs::read_to_string(&csv)
        .unwrap_or_else(|e| panic!("expected CSV at {}: {e}", csv.display()));
    let lines: Vec<&str> = contents.lines().collect();
    assert!(lines.len() >= 2, "CSV should have a header and at least one row:\n{contents}");
    assert!(lines[0].contains(','), "CSV header should be comma-separated: {}", lines[0]);

    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn fig1_quick_emits_markdown_and_csv() {
    let out_dir = scratch_dir("fig1");
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig1", "--quick", "--reps", "1", "--out"])
        .arg(&out_dir)
        .output()
        .expect("experiments binary should spawn");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));

    let stdout = String::from_utf8(output.stdout).expect("stdout should be UTF-8");
    assert!(stdout.contains('|'), "expected a Markdown table, got:\n{stdout}");

    let csv = out_dir.join("fig1_overhead.csv");
    let contents = std::fs::read_to_string(&csv)
        .unwrap_or_else(|e| panic!("expected CSV at {}: {e}", csv.display()));
    assert!(contents.lines().count() >= 2, "CSV should have header and data:\n{contents}");
    assert!(
        contents.lines().next().is_some_and(|h| h.contains("stopped_complete")),
        "expected stopped_by columns in the header:\n{contents}"
    );

    // Sweep-backed experiments also emit the JSON report next to the CSV.
    let json = out_dir.join("fig1_overhead.json");
    let report = std::fs::read_to_string(&json)
        .unwrap_or_else(|e| panic!("expected JSON at {}: {e}", json.display()));
    assert!(report.trim_start().starts_with('{'), "expected a JSON object:\n{report}");
    assert!(report.contains("\"cells\""), "expected per-cell results:\n{report}");

    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn scenario_quick_is_byte_identical_across_thread_counts() {
    let mut csvs = Vec::new();
    for threads in ["1", "4"] {
        let out_dir = scratch_dir(&format!("scenario-t{threads}"));
        let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["scenario", "--quick", "--reps", "1", "--threads", threads, "--out"])
            .arg(&out_dir)
            .output()
            .expect("experiments binary should spawn");
        assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));

        let stdout = String::from_utf8(output.stdout).expect("stdout should be UTF-8");
        assert!(stdout.contains("churn-heavy"), "expected registry rows, got:\n{stdout}");
        assert!(
            stdout.contains("fast-round-budget") && stdout.contains("memory-coverage-churn"),
            "expected the phase-protocol stop-rule scenarios, got:\n{stdout}"
        );

        let csv = out_dir.join("scenarios.csv");
        let contents = std::fs::read_to_string(&csv)
            .unwrap_or_else(|e| panic!("expected CSV at {}: {e}", csv.display()));
        assert!(contents.lines().count() >= 18, "expected 17 scenario rows:\n{contents}");
        assert!(
            contents.lines().next().is_some_and(|h| h.contains("stopped_max")),
            "expected stopped_by columns in the header:\n{contents}"
        );
        csvs.push(contents);
        std::fs::remove_dir_all(&out_dir).ok();
    }
    assert_eq!(csvs[0], csvs[1], "scenario CSV must not depend on --threads");
}

#[test]
fn unwritable_out_dir_fails_the_command() {
    // An `--out` directory below a regular file cannot be created: the
    // command must report the failed write and exit nonzero instead of
    // succeeding without its outputs.
    let blocker =
        std::env::temp_dir().join(format!("experiments-smoke-blocker-{}", std::process::id()));
    std::fs::write(&blocker, "a regular file").expect("scratch file should be writable");
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["table1", "--quick", "--out"])
        .arg(blocker.join("out"))
        .output()
        .expect("experiments binary should spawn");
    std::fs::remove_file(&blocker).ok();
    assert!(!output.status.success(), "a failed CSV write must fail the command");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("failed to write"), "stderr: {stderr}");
    assert!(stderr.contains("table1_constants.csv"), "stderr: {stderr}");
}

/// Runs `<args> <flag> <blocker>/sub/<file>` where `<blocker>` is a regular
/// file, so the path cannot be written: the command must report the failed
/// write and exit nonzero, not panic and not succeed without it.
fn assert_unwritable_path_fails(args: &[&str], flag: &str, file: &str) {
    let label = format!("{}-{}", args[0], flag.trim_start_matches('-'));
    let blocker = std::env::temp_dir()
        .join(format!("experiments-smoke-{label}-blocker-{}", std::process::id()));
    std::fs::write(&blocker, "a regular file").expect("scratch file should be writable");
    let path = blocker.join("sub").join(file);
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .arg(flag)
        .arg(&path)
        .output()
        .expect("experiments binary should spawn");
    std::fs::remove_file(&blocker).ok();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "a failed {flag} write must fail the command");
    assert_ne!(output.status.code(), Some(101), "exit code 101 is a panic; stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let expected = format!("error: failed to write {}: ", path.display());
    assert!(stderr.contains(&expected), "stderr: {stderr}");
}

#[test]
fn unwritable_cache_fails_the_command_without_a_panic() {
    assert_unwritable_path_fails(&["fig1", "--quick"], "--cache", "cells.cache");
}

#[test]
fn unwritable_trace_fails_the_command_without_a_panic() {
    assert_unwritable_path_fails(&["fig1", "--quick"], "--trace-out", "trace.jsonl");
}

#[test]
fn unwritable_cluster_trace_fails_the_command_without_a_panic() {
    assert_unwritable_path_fails(
        &["cluster", "--scenario", "sparse-er"],
        "--trace-out",
        "trace.jsonl",
    );
}

#[test]
fn commands_that_run_no_sweep_leave_the_trace_file_alone() {
    let dir = scratch_dir("keep-trace");
    std::fs::create_dir_all(&dir).expect("scratch dir should be creatable");
    let trace = dir.join("trace.jsonl");
    std::fs::write(&trace, "{\"ev\":\"kept\"}\n").expect("trace should be writable");
    for (command, succeeds) in [("no-such-cmd", false), ("help", true)] {
        let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args([command, "--trace-out"])
            .arg(&trace)
            .output()
            .expect("experiments binary should spawn");
        assert_eq!(output.status.success(), succeeds, "{command}");
        let kept = std::fs::read_to_string(&trace).expect("trace should still exist");
        assert_eq!(kept, "{\"ev\":\"kept\"}\n", "`{command}` rewrote the trace");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_only_names_fail_before_the_trace_is_touched() {
    let dir = scratch_dir("unknown-only");
    std::fs::create_dir_all(&dir).expect("scratch dir should be creatable");
    let trace = dir.join("trace.jsonl");
    std::fs::write(&trace, "{\"ev\":\"kept\"}\n").expect("trace should be writable");
    for command in ["sweep", "all", "fig1"] {
        let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args([command, "--quick", "--only", "ablatoin", "--out"])
            .arg(dir.join("out"))
            .arg("--trace-out")
            .arg(&trace)
            .output()
            .expect("experiments binary should spawn");
        assert_eq!(output.status.code(), Some(1), "{command}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("error: unknown experiment ablatoin"), "stderr: {stderr}");
        let kept = std::fs::read_to_string(&trace).expect("trace should still exist");
        assert_eq!(kept, "{\"ev\":\"kept\"}\n", "`{command}` rewrote the trace");
        assert!(!dir.join("out").exists(), "`{command}` wrote output");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn only_selecting_nothing_the_command_runs_fails_before_the_trace_is_touched() {
    let dir = scratch_dir("empty-only");
    std::fs::create_dir_all(&dir).expect("scratch dir should be creatable");
    let trace = dir.join("trace.jsonl");
    std::fs::write(&trace, "{\"ev\":\"kept\"}\n").expect("trace should be writable");
    for (command, only, hint) in [
        ("sweep", "separation", true),
        ("fig1", "separation", true),
        ("separation", "fig1", false),
        ("fig1", "theory", false),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args([command, "--quick", "--only", only, "--out"])
            .arg(dir.join("out"))
            .arg("--trace-out")
            .arg(&trace)
            .output()
            .expect("experiments binary should spawn");
        assert_eq!(output.status.code(), Some(1), "{command} --only {only}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("error: --only selects nothing `{command}` runs")),
            "stderr: {stderr}"
        );
        assert_eq!(
            stderr.contains("separation runs only under `all` or `separation`"),
            hint,
            "stderr: {stderr}"
        );
        let kept = std::fs::read_to_string(&trace).expect("trace should still exist");
        assert_eq!(kept, "{\"ev\":\"kept\"}\n", "`{command} --only {only}` rewrote the trace");
        assert!(!dir.join("out").exists(), "`{command} --only {only}` wrote output");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The `informed_nodes` line of `experiments cluster`'s summary.
fn cluster_informed_nodes(nemesis: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["cluster", "--scenario", "sparse-er", "--n", "16", "--seed", "3"])
        .args(["--nemesis", nemesis])
        .output()
        .expect("experiments binary should spawn");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8(output.stdout).expect("stdout should be UTF-8");
    stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("informed_nodes"))
        .unwrap_or_else(|| panic!("no informed_nodes line:\n{stdout}"))
        .trim()
        .to_string()
}

#[test]
fn cluster_summary_counts_only_fully_informed_nodes() {
    // Every message dropped: no node learns a rumor besides its own.
    assert_eq!(cluster_informed_nodes("drop=1.0,seed=4"), "0/16");
    assert_eq!(cluster_informed_nodes(""), "16/16");
}

#[test]
fn cluster_crash_aimed_at_a_missing_node_fails_the_command() {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["cluster", "--scenario", "sparse-er", "--n", "16", "--seed", "1"])
        .args(["--nemesis", "crash=999@1+2"])
        .output()
        .expect("experiments binary should spawn");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("crash targets node 999") && stderr.contains("n = 16"), "{stderr}");
    assert!(output.stdout.is_empty(), "a rejected cluster printed a summary");
}

#[test]
fn unknown_subcommand_fails_with_message() {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("no-such-figure")
        .output()
        .expect("experiments binary should spawn");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown subcommand"), "stderr: {stderr}");
}
