//! Facts about the host a result was measured on, and its memory peak.

use std::process::Command;

use pelta_tensor::pool;
use serde::Value;

/// First line of a command's standard output, or `"unknown"` if it cannot
/// run. The child is waited for before this returns.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| {
            String::from_utf8_lossy(&output.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Whether the CPU offers each instruction-set extension the GEMM
/// micro-kernel dispatch keys on.
fn cpu_flags() -> Value {
    #[cfg(target_arch = "x86_64")]
    let flags = [
        ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ("fma", std::arch::is_x86_feature_detected!("fma")),
    ];
    #[cfg(not(target_arch = "x86_64"))]
    let flags = [("avx512f", false), ("avx2", false), ("fma", false)];
    Value::Map(
        flags
            .into_iter()
            .map(|(name, on)| (name.to_string(), Value::Bool(on)))
            .collect(),
    )
}

/// Host facts recorded with every result: core count, compute-pool threads,
/// CPU flags, compiler, source revision (when the checkout is a git
/// repository) and the workload seed.
pub fn facts(seed: u64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    Value::Map(vec![
        ("nproc".to_string(), Value::Int(nproc as i128)),
        (
            "pelta_threads".to_string(),
            Value::Int(pool::global().threads() as i128),
        ),
        ("cpu_flags".to_string(), cpu_flags()),
        (
            "rustc".to_string(),
            Value::Str(command_line("rustc", &["-V"])),
        ),
        ("commit".to_string(), Value::Str(commit)),
        ("seed".to_string(), Value::Int(seed as i128)),
    ])
}

/// Peak resident set size of this process (`VmHWM`) in MB, or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let kb = line.strip_prefix("VmHWM:")?.split_whitespace().next()?;
        kb.parse::<f64>().ok().map(|kb| kb / 1e3)
    })
}
