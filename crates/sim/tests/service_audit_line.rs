//! `idpa-sim service` reports an audit-chain verdict only for a run that
//! kept a chain: without `--bank-durability wal` there is no durable bank,
//! so the report says no chain was kept instead of "verified: true".

use std::process::Output;

fn service(extra: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_idpa-sim"))
        .args([
            "service",
            "--quick",
            "--seed",
            "3",
            "--fault-cheat",
            "0.3",
            "--fault-cheat-corrupt-share",
            "1",
        ])
        .args(extra)
        .output()
        .expect("run idpa-sim")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn a_run_without_a_durable_bank_claims_no_verified_chain() {
    let text = stdout(&service(&[]));
    assert!(!text.contains("audit chain verified"), "{text}");
    assert!(
        text.contains("- audit chain: none kept (no --bank-durability wal)\n"),
        "{text}"
    );
}

#[test]
fn a_durable_run_reports_its_verified_chain() {
    let text = stdout(&service(&["--bank-durability", "wal"]));
    assert!(text.contains("- audit chain verified: true\n"), "{text}");
    assert!(!text.contains("none kept"), "{text}");
}
