//! The repository benchmark.
//!
//! ```text
//! benchmark --workload <fl_vit|attack_pgd|fl_wire|fl_secure>
//!           [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--spans <path>]
//! ```
//!
//! With `--trace 0` it times untraced operations of the workload — rounds
//! of `Federation::run`, or PGD attack pairs through the real oracles — for
//! `--seconds` after one discarded warm-up operation, and reports the
//! end-to-end metrics. With `--trace 1` it runs the traced pass instead and
//! reports the per-layer metrics; `--spans` also writes the spans as JSON
//! lines. The last line of standard output is the result object; the line
//! before it carries sample counts, quartiles, host facts and the
//! determinism digest. Any failed check counts the operation as failed and
//! makes the exit code non-zero. See `README.md`.

mod host;
mod layers;
mod mlp;
mod oracle;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use pelta_tensor::pool;
use serde::{Serialize, Value};

use crate::stats::{median, min, summary};
use crate::trace::Tracer;
use crate::workloads::{attack_op, fl_op, OpSample, Scale, Workload};

/// End-to-end metrics `(name, unit)`, reported with `--trace 0`: the median
/// set-up, the fastest operation of the run, and the memory high-water mark
/// of one set-up plus one operation. The fastest operation rather than the
/// median, because co-tenant load on a shared host comes in phases of tens
/// of seconds that move a run's median by up to ±20% while its fastest
/// operation stays within a few percent; the detail line keeps the
/// quartiles.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("latency_ms.min", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported with `--trace 1`. A layer the
/// workload never enters reports 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("models.train_step_ms", "ms"),
    ("models.forward_ms", "ms"),
    ("autodiff.backward_ms", "ms"),
    ("nn.sgd_ms", "ms"),
    ("models.train_steps_per_round", "count"),
    ("models.local_eval_ms", "ms"),
    ("models.central_eval_ms", "ms"),
    ("fl.import_export_ms", "ms"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("core.probe_ms.clear", "ms"),
    ("core.probe_ms.shielded", "ms"),
    ("core.shield_ms", "ms"),
    ("core.logits_ms", "ms"),
    ("attacks.self_ms_per_step", "ms"),
    ("tee.world_switches_per_probe", "count"),
    ("tee.channel_bytes_per_probe", "bytes"),
    ("core.enclave_bytes_per_probe", "bytes"),
    ("fl.encode_ms", "ms"),
    ("fl.decode_ms", "ms"),
    ("fl.broadcast_encode_ms", "ms"),
    ("fl.update_frame_bytes", "bytes"),
    ("fl.messages_per_round", "count"),
    ("fl.wire_bytes_per_round", "bytes"),
    ("fl.transport_ms", "ms"),
    ("fl.edge_relay_ms", "ms"),
    ("fl.server_fold_ms", "ms"),
    ("tee.seal_ms", "ms"),
    ("tee.unseal_ms", "ms"),
    ("fl.mask_ms", "ms"),
    ("tee.masked_fold_ms", "ms"),
    ("tee.sealed_bytes_per_round", "bytes"),
    ("trace.op_ms", "ms"),
    ("trace.real_op_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Measured operations per run, however long each takes.
const MIN_OPS: usize = 3;

const USAGE: &str = "usage: benchmark --workload <fl_vit|attack_pgd|fl_wire|fl_secure> \
                     [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--spans <path>]";

/// Serialises a JSON value tree.
pub(crate) fn to_json(value: Value) -> String {
    struct Json(Value);
    impl Serialize for Json {
        fn serialize_value(&self) -> Value {
            self.0.clone()
        }
    }
    serde_json::to_string(&Json(value)).expect("a value tree always serialises")
}

/// The command line, checked.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::FlVit,
        seed: 2023,
        seconds: 25.0,
        trace: false,
        spans: None,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--spans" => parsed.spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// What one invocation measured.
struct Outcome {
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
    detail: Vec<(String, Value)>,
}

fn one_op(workload: Workload, scale: Scale, seed: u64, index: usize, tracer: &Tracer) -> OpSample {
    match workload {
        Workload::AttackPgd => attack_op(scale, seed, index, tracer),
        federated => fl_op(federated, scale, seed),
    }
}

/// The untraced pass: a warm-up operation, then operations until `seconds`
/// have passed (at least [`MIN_OPS`]). Every operation must reproduce the
/// warm-up's digest bit for bit.
fn measure(workload: Workload, scale: Scale, seed: u64, seconds: f64) -> Outcome {
    let untraced = Tracer::new(false);
    let mut failures = Vec::new();
    let mut failed = 0;
    let mut setup_s = Vec::new();
    let mut latency_ms = Vec::new();
    let warm_up = one_op(workload, scale, seed, 0, &untraced);
    let mut record = |index: usize, sample: &OpSample| {
        let mut problems = sample.failures.clone();
        if sample.digest != warm_up.digest {
            problems.push(format!(
                "operation {index} digest {:016x} differs from the warm-up's {:016x}",
                sample.digest, warm_up.digest
            ));
        }
        failed += usize::from(!problems.is_empty());
        failures.extend(problems);
    };
    record(0, &warm_up);
    // The high-water mark of one set-up plus one operation: later
    // operations only add allocator-dependent fragmentation noise.
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);
    let start = Instant::now();
    let mut index = 1;
    while index <= MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        let sample = one_op(workload, scale, seed, index, &untraced);
        record(index, &sample);
        setup_s.push(sample.setup_s);
        latency_ms.push(sample.latency_s * 1e3);
        index += 1;
    }
    let mut detail = vec![
        (
            "peak_rss_mb_at_exit".to_string(),
            Value::Num(host::peak_rss_mb().unwrap_or(f64::NAN)),
        ),
        ("setup_s".to_string(), summary(&setup_s)),
        ("latency_ms".to_string(), summary(&latency_ms)),
        (
            "digest".to_string(),
            Value::Str(format!("{:016x}", warm_up.digest)),
        ),
    ];
    if let Some(bytes) = warm_up.wire_bytes_per_round {
        detail.push(("wire_bytes_per_round".to_string(), Value::Num(bytes)));
    }
    if let Some(accuracy) = warm_up.robust_accuracy_shielded {
        detail.push(("robust_accuracy_shielded".to_string(), Value::Num(accuracy)));
    }
    Outcome {
        attempted: index,
        failed,
        failures,
        metrics: END_TO_END
            .iter()
            .zip([median(&setup_s), min(&latency_ms), peak_rss_mb])
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect(),
        detail,
    }
}

/// The traced pass: per-layer metrics, zero for layers the workload never
/// enters, plus the GEMM kernel probe.
fn trace_layers(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
) -> Outcome {
    let traced = match workload {
        Workload::AttackPgd => layers::trace_attack(scale, seed, seconds, tracer),
        federated => layers::trace_fl(federated, scale, seed, seconds, tracer),
    };
    let gflops = layers::gemm_gflops();
    let value = |name: &str| match name {
        "tensor.gemm_gflops" => gflops,
        _ => traced
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v),
    };
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, value(name)))
        .collect();
    Outcome {
        attempted: traced.ops,
        failed: traced.failed,
        failures: traced.failures,
        metrics,
        detail: Vec::new(),
    }
}

fn run(args: &Args, scale: Scale) -> Outcome {
    if !args.trace {
        return measure(args.workload, scale, args.seed, args.seconds);
    }
    let tracer = Tracer::new(true);
    let mut outcome = trace_layers(args.workload, scale, args.seed, args.seconds, &tracer);
    if let Some(path) = &args.spans {
        if let Err(e) = tracer.write_jsonl(path) {
            outcome
                .failures
                .push(format!("writing spans to {path}: {e}"));
            outcome.failed = outcome.failed.max(1);
        }
    }
    outcome
}

/// The result object the last output line carries.
fn result_line(outcome: &Outcome) -> Value {
    let correct = outcome.failed == 0
        && outcome
            .metrics
            .iter()
            .all(|(_, _, value)| value.is_finite());
    Value::Map(vec![
        ("correct".to_string(), Value::Bool(correct)),
        (
            "attempted".to_string(),
            Value::Int(outcome.attempted as i128),
        ),
        ("failed".to_string(), Value::Int(outcome.failed as i128)),
        (
            "metrics".to_string(),
            Value::Map(
                outcome
                    .metrics
                    .iter()
                    .map(|&(name, unit, value)| {
                        (
                            name.to_string(),
                            Value::Map(vec![
                                ("value".to_string(), Value::Num(value)),
                                ("unit".to_string(), Value::Str(unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One compute thread unless PELTA_THREADS asks for more: on a shared
    // two-vCPU host, two threads shorten rounds but widen the run-to-run
    // spread (client tasks race for whichever core a co-tenant slows).
    if std::env::var_os("PELTA_THREADS").is_none() {
        pool::set_global_threads(1);
    }
    let outcome = run(&args, Scale::Full);
    for failure in &outcome.failures {
        eprintln!("FAILED: {failure}");
    }
    let mut detail = vec![
        (
            "workload".to_string(),
            Value::Str(args.workload.name().to_string()),
        ),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("host".to_string(), host::facts(args.seed)),
    ];
    detail.extend(outcome.detail.iter().cloned());
    println!("{}", to_json(Value::Map(detail)));
    let result = result_line(&outcome);
    let correct = matches!(result.as_map().map(|m| &m[0].1), Some(Value::Bool(true)));
    println!("{}", to_json(result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Deserialize)]
    struct MetricSpec {
        name: String,
        unit: String,
    }

    #[derive(Deserialize)]
    struct WorkloadSpec {
        name: String,
    }

    #[derive(Deserialize)]
    struct Manifest {
        workloads: Vec<WorkloadSpec>,
        end_to_end: Vec<MetricSpec>,
        per_layer: Vec<MetricSpec>,
    }

    fn manifest() -> Manifest {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn declared(specs: &[MetricSpec]) -> Vec<(String, String)> {
        specs
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect()
    }

    fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
        outcome
            .metrics
            .iter()
            .map(|&(name, unit, _)| (name.to_string(), unit.to_string()))
            .collect()
    }

    /// Every workload at its smallest size, untraced and traced: each
    /// metric `BENCHMARK.json` declares is emitted with its unit and a
    /// finite value, and no check fails — so code and manifest cannot
    /// drift apart.
    #[test]
    fn every_declared_metric_is_emitted_and_finite() {
        let manifest = manifest();
        let names: Vec<&str> = manifest.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
        for workload in Workload::ALL {
            for trace in [false, true] {
                let args = Args {
                    workload,
                    seed: 7,
                    seconds: 0.0,
                    trace,
                    spans: None,
                };
                let outcome = run(&args, Scale::Smoke);
                let label = format!("{} trace={trace}", workload.name());
                assert_eq!(outcome.failed, 0, "{label}: {:?}", outcome.failures);
                let expected = if trace {
                    &manifest.per_layer
                } else {
                    &manifest.end_to_end
                };
                assert_eq!(emitted(&outcome), declared(expected), "{label}");
                for (name, _, value) in &outcome.metrics {
                    assert!(value.is_finite(), "{label}: {name} = {value}");
                }
            }
        }
    }

    #[test]
    fn bad_arguments_are_refused() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(str::to_string));
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload fl_vit --trace 2").is_err());
        assert!(parse("--workload fl_vit --seconds").is_err());
        let args = parse("--workload fl_wire --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(args.workload, Workload::FlWire);
        assert_eq!((args.seed, args.seconds, args.trace), (9, 3.0, true));
    }
}
