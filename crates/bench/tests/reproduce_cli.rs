//! `reproduce` argument handling: what it refuses, and how.

use std::process::Command;

/// Run `reproduce` with `args`; returns its exit code and stderr.
fn reproduce(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("spawn reproduce");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_flags_are_usage_errors() {
    // A misspelt flag is a flag, not an experiment.
    let (code, err) = reproduce(&["fig1", "--smok"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("unknown flag '--smok'"), "{err}");
    for flag in ["--csv", "--smoke", "--shards", "--trace"] {
        assert!(err.contains(flag), "usage must list {flag}: {err}");
    }
    // A flag is never swallowed as another flag's value.
    for flag in ["--trace", "--csv", "--shards"] {
        let (code, err) = reproduce(&["fig1", flag, "--smoke"]);
        assert_eq!(code, Some(2), "{flag} --smoke");
        assert!(err.contains("needs a value"), "{err}");
    }
    let (code, err) = reproduce(&["nosuch"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("unknown experiment 'nosuch'"), "{err}");
    // A flag is refused when any selected experiment would ignore it, and
    // the refusal names the experiments that honour it.
    for args in [
        &["multi_tenant", "--shards", "4"][..],
        &["merge_latency", "fig1", "--trace", "t.json"],
        &["all", "--smoke", "--shards", "2"],
    ] {
        let (code, err) = reproduce(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(
            err.contains("honoured by merge_latency only"),
            "{args:?}: {err}"
        );
        assert!(!err.contains(">> running"), "{args:?} ran something: {err}");
    }
}
