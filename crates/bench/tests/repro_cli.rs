//! The `repro` binary refuses an unknown table, figure or ablation with
//! exit status 2 before running any experiment.

use std::process::Command;

#[test]
fn unknown_selections_exit_with_status_2() {
    for args in [
        ["--table", "9"],
        ["--table", "0"],
        ["--figure", "2"],
        ["--ablation", "nonsense"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro must start");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("no such"), "{args:?}: {stderr}");
        assert!(
            output.stdout.is_empty(),
            "{args:?} must fail before any work: {}",
            String::from_utf8_lossy(&output.stdout)
        );
    }
}
