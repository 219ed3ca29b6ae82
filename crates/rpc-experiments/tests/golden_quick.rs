//! Golden comparison of the `sweep --quick` CSV output.
//!
//! The committed files under `tests/golden/quick/` were produced by
//!
//! ```text
//! experiments sweep --quick --only fig1 --only table1 --only scenario --only ablation --out <dir>
//! ```
//!
//! and must be reproduced byte for byte: the sweep engine's determinism
//! contract (seeds derived per cell and repetition, CI stop decisions
//! prefix-stable, thread-count independent) means any diff is a real
//! behavioural change. Regenerate the goldens with the command above when
//! intentionally changing experiment schemas or the engine's numbers.

use std::path::{Path, PathBuf};
use std::process::Command;

const GOLDEN_FILES: [&str; 4] =
    ["fig1_overhead.csv", "table1_constants.csv", "scenarios.csv", "ablation_fast_gossiping.csv"];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden").join("quick")
}

#[test]
fn sweep_quick_reproduces_the_committed_goldens() {
    let out_dir = std::env::temp_dir().join(format!("experiments-golden-{}", std::process::id()));
    if out_dir.exists() {
        std::fs::remove_dir_all(&out_dir).expect("stale scratch dir should be removable");
    }
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["sweep", "--quick", "--only", "fig1", "--only", "table1", "--only", "scenario"])
        .args(["--only", "ablation"])
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("experiments binary should spawn");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));

    for name in GOLDEN_FILES {
        let got = std::fs::read_to_string(out_dir.join(name))
            .unwrap_or_else(|e| panic!("missing output {name}: {e}"));
        let want = std::fs::read_to_string(golden_dir().join(name))
            .unwrap_or_else(|e| panic!("missing golden {name}: {e}"));
        assert_eq!(
            got, want,
            "{name} diverged from tests/golden/quick/{name}; regenerate the golden if the \
             change is intentional"
        );
    }
    std::fs::remove_dir_all(&out_dir).ok();
}
