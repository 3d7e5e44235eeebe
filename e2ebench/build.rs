//! Records the git revision and the compiler version for the report's
//! metadata. Each reads "unknown" where it cannot be found (a source
//! checkout without `.git`, for one). The revision carries a `-dirty`
//! suffix when the working tree differs from it.

use std::process::Command;

fn stdout_of(cmd: &str, args: &[&str]) -> Option<String> {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
}

fn git_rev() -> String {
    let Some(rev) = stdout_of("git", &["rev-parse", "--short=12", "HEAD"]) else {
        return "unknown".into();
    };
    match stdout_of("git", &["status", "--porcelain", "--untracked-files=no"]) {
        Some(status) if status.is_empty() => rev,
        _ => format!("{rev}-dirty"),
    }
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc = stdout_of(&rustc, &["-V"])
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=E2E_RUSTC={rustc}");
    println!("cargo:rustc-env=E2E_GIT_REV={}", git_rev());
    // Whatever can change the revision or its dirty state. Only existing
    // paths: a missing one would rebuild on every run.
    for path in [
        "build.rs",
        "src",
        "Cargo.toml",
        "../BENCHMARK.json",
        "../crates",
        "../.git/HEAD",
        "../.git/index",
    ] {
        if std::path::Path::new(path).exists() {
            println!("cargo:rerun-if-changed={path}");
        }
    }
}
