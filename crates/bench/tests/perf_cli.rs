//! The `perf` binary refuses arguments that would silently weaken or
//! disable its regression gate with exit status 2, before running any
//! probe.

use std::process::Command;

#[test]
fn gate_weakening_arguments_exit_with_status_2() {
    for args in [
        &["--check", "--tolerance", "1"][..],
        &["--check", "--tolerance", "-0.1"],
        &["--check", "--tolerance", "abc"],
        &["--check", "--tolerance", "NaN"],
        &["--check", "--tolerance"],
        &["--quick", "--out"],
        &["--quick", "--chek"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_perf"))
            .args(args)
            .output()
            .expect("perf must start");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: perf"), "{args:?}: {stderr}");
        assert!(
            output.stdout.is_empty(),
            "{args:?} must fail before any probe: {}",
            String::from_utf8_lossy(&output.stdout)
        );
    }
}
