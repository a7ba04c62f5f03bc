//! The `experiment` binary's command line: a missing or unknown
//! experiment name is an error that lists the valid names and writes
//! nothing.

use std::process::Command;

#[test]
fn experiment_without_a_known_name_fails_lists_the_names_and_writes_nothing() {
    let out = std::env::temp_dir().join(format!("sqda_experiment_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    for name in [&["no_such_experiment"][..], &[]] {
        let run = Command::new(env!("CARGO_BIN_EXE_experiment"))
            .args(name)
            .args(["--quick", "--out"])
            .arg(&out)
            .output()
            .expect("run experiment");
        assert!(!run.status.success(), "{name:?} must fail");
        let stderr = String::from_utf8_lossy(&run.stderr);
        for listed in [
            "all",
            "fig08_nodes_vs_k",
            "table5_summary",
            "fault_sweep",
            "bench_explain",
        ] {
            assert!(
                stderr.contains(listed),
                "{name:?}: {listed} not named in {stderr}"
            );
        }
        assert!(run.stdout.is_empty(), "{name:?} printed a table");
        assert!(!out.exists(), "{name:?} wrote {}", out.display());
    }
}
