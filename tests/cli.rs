//! The `vidur` binary rejects invalid numeric flags with `error: ...` and
//! exit code 1, instead of panicking or silently running something else.

use std::process::Command;

#[test]
fn invalid_numeric_flags_fail_cleanly() {
    let cases: &[&[&str]] = &[
        &["--replicas", "0"],
        &["--batch-size", "0"],
        &["--chunk", "0"],
        &["--tp", "0"],
        &["--pp", "0"],
        &["--qps", "-3"],
        &["--qps", "nan"],
        &["--qps", "inf"],
    ];
    for flags in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_vidur"))
            .arg("simulate")
            .args(*flags)
            .args(["--requests", "3"])
            .output()
            .expect("vidur binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(
            stderr.lines().any(|l| l.starts_with("error:")),
            "{flags:?}: no `error:` line in {stderr:?}"
        );
        assert!(out.stdout.is_empty(), "{flags:?}: must not report a run");
    }
}
