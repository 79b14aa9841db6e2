//! The `vidur` binary rejects invalid flag values and unknown flags with
//! `error: ...` and exit code 1, instead of panicking or silently running
//! something else; `--help`/`-h` after a subcommand prints the usage.

use std::process::Command;

#[test]
fn invalid_flags_fail_cleanly() {
    // (subcommand and flags, expected fragment of the error line)
    let cases: &[(&[&str], &str)] = &[
        (&["simulate", "--replicas", "0"], "--replicas must be"),
        (&["simulate", "--batch-size", "0"], "--batch-size must be"),
        (&["simulate", "--chunk", "0"], "--chunk must be"),
        (&["simulate", "--tp", "0"], "--tp must be"),
        (&["simulate", "--pp", "0"], "--pp must be"),
        (&["simulate", "--qps", "-3"], "--qps must be"),
        (&["simulate", "--qps", "nan"], "--qps must be"),
        (&["simulate", "--qps", "inf"], "--qps must be"),
        // A typo for `--replicas` must not simulate one replica.
        (&["simulate", "--replica", "4"], "unknown flag --replica"),
        (&["simulate", "--full"], "unknown flag --full"),
        // `search` takes no arrival rate.
        (&["search", "--qps", "3"], "unknown flag --qps"),
    ];
    for (args, expected) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_vidur"))
            .args(*args)
            .args(["--requests", "3"])
            .output()
            .expect("vidur binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with("error:") && l.contains(expected)),
            "{args:?}: no `error:` line naming {expected:?} in {stderr:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: must not report a run");
    }
}

#[test]
fn subcommand_help_prints_usage() {
    for args in [
        ["simulate", "--help"],
        ["simulate", "-h"],
        ["search", "--help"],
        ["search", "-h"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_vidur"))
            .args(args)
            .output()
            .expect("vidur binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("USAGE:"), "{args:?}: {stdout:?}");
        assert!(stdout.contains("SIMULATE OPTIONS:"), "{args:?}: {stdout:?}");
    }
}
