//! The `experiment` binary's command line: a missing or unknown
//! experiment name, a flag without a meaningful value and an unknown
//! flag all exit 2 with the usage and the valid names, writing nothing; `experiment report` exits non-zero exactly when a claim
//! required at its scale fails.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The committed results directory's CSVs, copied into a fresh `name`.
fn committed_csvs(name: &str) -> PathBuf {
    let out = std::env::temp_dir().join(format!("sqda_report_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).expect("mkdir");
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for entry in std::fs::read_dir(results).expect("results/") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "csv") {
            std::fs::copy(&path, out.join(path.file_name().expect("name"))).expect("copy");
        }
    }
    out
}

fn report(dir: &Path, quick: bool) -> std::process::ExitStatus {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiment"));
    cmd.arg("report")
        .args(quick.then_some("--quick"))
        .arg("--out")
        .arg(dir);
    cmd.output().expect("run experiment report").status
}

#[test]
fn report_exits_non_zero_when_a_required_claim_fails() {
    let dir = committed_csvs("exit");
    assert!(report(&dir, true).success() && report(&dir, false).success());
    assert!(dir.join("REPORT.md").exists());
    // Extension 4 must save 37–47 % of the node accesses at k = 1, at
    // quick scale too: 20 % fails both scales.
    let csv = dir.join("ext_tighter_threshold.csv");
    let text = std::fs::read_to_string(&csv).expect("csv");
    std::fs::write(&csv, text.replacen("41.7%", "20.0%", 1)).expect("break a claim");
    assert_eq!(report(&dir, true).code(), Some(1));
    assert_eq!(report(&dir, false).code(), Some(1));
    // Table 3 is checked at full scale only.
    std::fs::write(&csv, text).expect("restore");
    let csv = dir.join("table3_scaleup_population.csv");
    let text = std::fs::read_to_string(&csv).expect("csv");
    std::fs::write(&csv, text.replacen("0.7872", "9.9999", 1)).expect("break a claim");
    assert!(report(&dir, true).success());
    assert_eq!(report(&dir, false).code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        !report(&dir, false).success(),
        "a missing results directory"
    );
}

/// Runs `experiment <args> --quick --out <fresh dir>` and asserts it
/// exits 2 with the usage and every experiment's name on stderr, having
/// printed and written nothing.
fn assert_usage_error(args: &[&str]) {
    let out = std::env::temp_dir().join(format!("sqda_experiment_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_experiment"))
        .args(args)
        .args(["--quick", "--out"])
        .arg(&out)
        .output()
        .expect("run experiment");
    assert_eq!(run.status.code(), Some(2), "{args:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    for listed in [
        "usage: experiment <name>",
        "all",
        "fig08_nodes_vs_k",
        "table5_summary",
        "fault_sweep",
        "bench_explain",
    ] {
        assert!(
            stderr.contains(listed),
            "{args:?}: {listed} not named in {stderr}"
        );
    }
    assert!(run.stdout.is_empty(), "{args:?} printed a table");
    assert!(!out.exists(), "{args:?} wrote {}", out.display());
}

#[test]
fn experiment_without_a_known_name_fails_lists_the_names_and_writes_nothing() {
    assert_usage_error(&["no_such_experiment"]);
    assert_usage_error(&[]);
}

#[test]
fn experiment_with_a_bad_flag_prints_the_usage_and_exits_2() {
    assert_usage_error(&["fig08_nodes_vs_k", "--jobs", "0"]);
    assert_usage_error(&["fig08_nodes_vs_k", "--warmup", "2"]);
    assert_usage_error(&["fig08_nodes_vs_k", "--no-such-flag"]);
}
