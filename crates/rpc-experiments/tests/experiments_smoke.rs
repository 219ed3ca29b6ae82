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

#[test]
fn unwritable_cache_fails_the_command_without_a_panic() {
    // A `--cache` file below a regular file cannot be written: the sweep
    // must report the failed write and exit nonzero, not panic.
    let blocker = std::env::temp_dir()
        .join(format!("experiments-smoke-cache-blocker-{}", std::process::id()));
    std::fs::write(&blocker, "a regular file").expect("scratch file should be writable");
    let cache = blocker.join("sub").join("cells.cache");
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig1", "--quick", "--cache"])
        .arg(&cache)
        .output()
        .expect("experiments binary should spawn");
    std::fs::remove_file(&blocker).ok();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "a failed cache write must fail the command");
    assert_ne!(output.status.code(), Some(101), "exit code 101 is a panic; stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let expected = format!("error: failed to write {}: ", cache.display());
    assert!(stderr.contains(&expected), "stderr: {stderr}");
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
