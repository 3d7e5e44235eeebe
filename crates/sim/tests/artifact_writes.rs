//! A failed artifact write fails the `idpa-sim` command: an experiment
//! whose CSV cannot be written exits non-zero and names the experiment,
//! instead of printing its table and exiting 0 with no file.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh directory under the system temp dir, unique to this test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("idpa_artifacts_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn ablation_tau(out: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_idpa-sim"))
        .args([
            "ablation-tau",
            "--quick",
            "--reps",
            "1",
            "--threads",
            "1",
            "--out",
        ])
        .arg(out)
        .output()
        .expect("run idpa-sim")
}

#[test]
fn csv_write_under_a_regular_file_fails_the_command() {
    let dir = scratch_dir("fail");
    let file = dir.join("plain_file");
    std::fs::write(&file, b"not a directory").expect("write plain file");
    let out = ablation_tau(&file.join("results"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exited 0: {stderr}");
    assert!(stderr.contains("ablation-tau: writing CSV"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn csv_write_to_a_directory_succeeds() {
    let dir = scratch_dir("ok");
    let out = ablation_tau(&dir.join("results"));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("results/ablation_tau.csv").is_file());
    let _ = std::fs::remove_dir_all(&dir);
}
