//! `idpa-sim trace-export [SEED]` prints one seed's churn trace, and only
//! that: a malformed seed or an extra argument fails the command instead
//! of silently exporting seed 1.

use std::process::Output;

fn trace_export(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_idpa-sim"))
        .arg("trace-export")
        .args(args)
        .output()
        .expect("run idpa-sim")
}

#[test]
fn no_seed_exports_seed_one() {
    let default = trace_export(&[]);
    assert!(default.status.success());
    assert!(default.stdout.starts_with(b"node,start,end\n"));
    assert_eq!(default.stdout, trace_export(&["1"]).stdout);
    assert_ne!(default.stdout, trace_export(&["2"]).stdout);
}

#[test]
fn a_malformed_seed_or_an_extra_argument_fails() {
    for (args, fragment) in [
        (
            &["abc"][..],
            "SEED must be a non-negative integer, got 'abc'",
        ),
        (&["-1"][..], "got '-1'"),
        (&["1", "extra", "junk"][..], "unexpected argument 'extra'"),
    ] {
        let out = trace_export(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} exited 0");
        assert!(out.stdout.is_empty(), "{args:?} printed a trace");
        assert!(stderr.contains(fragment), "{args:?}: {stderr}");
    }
}
