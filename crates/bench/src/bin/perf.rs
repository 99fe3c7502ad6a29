//! `perf` — kernel and federation throughput snapshots, and the gate that
//! diffs them against the committed baselines.
//!
//! **Kernels** (`BENCH_kernels.json`) measure the blocked/parallel compute
//! backend of `pelta-tensor` against the naive seed kernels, at one thread
//! and at `PELTA_THREADS` (default: available parallelism) threads:
//!
//! * 256×256×256 matmul GFLOP/s (naive i-k-j vs packed GEMM);
//! * a ResNet-block conv2d forward (naive 7-loop vs im2col + GEMM);
//! * end-to-end scaled-ViT train-step latency;
//! * a determinism probe (max |logit difference| between 1 and N threads,
//!   which the backend contract requires to be exactly zero).
//!
//! **Federation** (`BENCH_federation.json`): every probe except the
//! population fold is a [`ScenarioSpec`] over scaled-ViT replicas, built by
//! [`Federation::vit_scenario`] and run by [`Federation::run`]. Seats,
//! delivery sweeps, the fold, `RoundEnd` frames and central evaluation are
//! therefore the runtime's own. The seats are free riders that echo the
//! broadcast without training, which keeps local training out of the
//! measurement. Their small perturbation moves the global model: every
//! probe asserts that its final model differs from its initial one, so the
//! replay-determinism fields compare bits that actually move. Each probe
//! runs 3 rounds with a one-image central evaluation, and every timed
//! repeat doubles as a replay.
//!
//! * `federation` — 4 seats on a Raw star, in-memory vs serialized.
//! * `wire_codecs` — the serialized star once per [`UpdateCodec`]: update
//!   bytes per round, throughput, and a determinism field against the
//!   in-memory star, a two-edge hierarchy and `PELTA_THREADS` 1 and 4.
//! * `adversarial_round` — 5 serialized seats under
//!   `TrimmedMean { trim: 1 }`. Seat 4 sends two junk frames a round, which
//!   the server Nacks, and ships a heavy outlier under a 512-sample claim.
//! * `krum_round` — the same population without spam under `Krum { f: 1 }`:
//!   the pairwise-distance scan the coordinate-wise rules never pay.
//! * `hierarchical_round` — 4 serialized seats under two edge aggregators.
//! * `fault_injection` — [`run_chaos`]: a hierarchical soak under the
//!   scripted chaos plan, timed, then replayed over the serialized
//!   transport (rounds/s at the fixed fault rate, the recovery counters).
//! * `secure_agg` — [`run_secure_agg`]: masked vs clear shielded rounds with
//!   a scripted dropout, the `MaskShare` bytes per round, and the root's
//!   individual-blob unseals under masking (asserted zero).
//! * `population_scale` — one streaming-FedAvg round at 1k / 10k / 100k
//!   seats (rounds/s, peak RSS, MB folded), driven straight through the
//!   server's fold; the 100k-seat peak RSS is the O(model) memory guard.
//!
//! Usage: `perf [--quick] [--out <path>] [--check] [--tolerance <frac>]`.
//! `--quick` runs fewer iterations (the CI snapshot). `--check` (implies
//! `--quick`) reads the committed snapshots as baselines *before*
//! refreshing them, then exits 1 if a baseline is missing or does not
//! parse, or if a gated metric regressed by more than `--tolerance` (a
//! fraction in `[0, 1)`, default 0.5). A nonzero determinism field panics
//! in every mode. An unknown flag, a flag without its value or a bad
//! tolerance exits 2 before any probe runs.

use std::time::Instant;

use pelta_bench::{run_chaos, run_secure_agg, ModelBits, CHAOS_CLIENTS, SECURE_AGG_CLIENTS};
use pelta_data::{Dataset, DatasetSpec, GeneratorConfig};
use pelta_fl::{
    AgentRole, AggregationRule, BroadcastFrame, Federation, FederationConfig, Message, ModelUpdate,
    RunHistory, ScenarioSpec, Topology, TransportKind, UpdateCodec,
};
use pelta_models::{predict_logits, train_step, ViTConfig, VisionTransformer};
use pelta_nn::Sgd;
use pelta_tensor::kernels::reference;
use pelta_tensor::{pool, Conv2dSpec, SeedStream, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

/// Minimum wall-clock per iteration over `iters` runs, in seconds.
fn time_best<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

#[derive(Serialize, Deserialize)]
struct MatmulRow {
    naive_gflops: f64,
    kernel_gflops_1t: f64,
    kernel_gflops_nt: f64,
    speedup_1t: f64,
    speedup_nt: f64,
}

#[derive(Serialize, Deserialize)]
struct ConvRow {
    naive_ms: f64,
    kernel_ms_1t: f64,
    kernel_ms_nt: f64,
    speedup_1t: f64,
    speedup_nt: f64,
}

/// Scaled-ViT train-step latency in ms, at one thread and at
/// `PELTA_THREADS`.
#[derive(Serialize, Deserialize)]
struct TrainStepRow {
    threads_1: f64,
    threads_n: f64,
}

/// The `BENCH_kernels.json` snapshot.
#[derive(Serialize, Deserialize)]
struct KernelSnapshot {
    threads: usize,
    quick: bool,
    matmul_256: MatmulRow,
    conv2d_resnet_block: ConvRow,
    vit_train_step_ms: TrainStepRow,
    determinism_max_abs_logit_diff: f32,
}

fn bench_matmul(iters: usize, threads: usize) -> MatmulRow {
    const DIM: usize = 256;
    let flops = (2 * DIM * DIM * DIM) as f64;
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let a = Tensor::rand_uniform(&[DIM, DIM], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(&[DIM, DIM], -1.0, 1.0, &mut rng);

    let naive = time_best(iters, || {
        std::hint::black_box(reference::naive_matmul(&a, &b).unwrap());
    });
    pool::set_global_threads(1);
    let kernel_1t = time_best(iters, || {
        std::hint::black_box(a.matmul(&b).unwrap());
    });
    pool::set_global_threads(threads);
    let kernel_nt = time_best(iters, || {
        std::hint::black_box(a.matmul(&b).unwrap());
    });
    MatmulRow {
        naive_gflops: flops / naive / 1e9,
        kernel_gflops_1t: flops / kernel_1t / 1e9,
        kernel_gflops_nt: flops / kernel_nt / 1e9,
        speedup_1t: naive / kernel_1t,
        speedup_nt: naive / kernel_nt,
    }
}

fn bench_conv(iters: usize, threads: usize) -> ConvRow {
    // A residual-block body conv at the reproduction's CIFAR scale:
    // 64→64 channels, 3×3, stride 1, pad 1 on a [4, 64, 16, 16] feature map.
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    let x = Tensor::rand_uniform(&[4, 64, 16, 16], -1.0, 1.0, &mut rng);
    let w = Tensor::rand_uniform(&[64, 64, 3, 3], -0.5, 0.5, &mut rng);
    let spec = Conv2dSpec::new(1, 1);

    let naive = time_best(iters, || {
        std::hint::black_box(reference::naive_conv2d(&x, &w, spec).unwrap());
    });
    pool::set_global_threads(1);
    let kernel_1t = time_best(iters, || {
        std::hint::black_box(x.conv2d(&w, spec).unwrap());
    });
    pool::set_global_threads(threads);
    let kernel_nt = time_best(iters, || {
        std::hint::black_box(x.conv2d(&w, spec).unwrap());
    });
    ConvRow {
        naive_ms: naive * 1e3,
        kernel_ms_1t: kernel_1t * 1e3,
        kernel_ms_nt: kernel_nt * 1e3,
        speedup_1t: naive / kernel_1t,
        speedup_nt: naive / kernel_nt,
    }
}

fn scaled_vit(seed: u64) -> VisionTransformer {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    VisionTransformer::new(ViTConfig::vit_b16_scaled(32, 3, 10), &mut rng)
        .expect("scaled ViT configuration is valid")
}

/// Train-step latency of the scaled ViT on one mini-batch.
fn bench_train_step(iters: usize, threads: usize) -> TrainStepRow {
    let mut rng = ChaCha8Rng::seed_from_u64(44);
    let batch = Tensor::rand_uniform(&[16, 3, 32, 32], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();
    let time_at = |n: usize| {
        pool::set_global_threads(n);
        let mut model = scaled_vit(7);
        let mut opt = Sgd::new(0.01, 0.9);
        time_best(iters, || {
            train_step(&mut model, &batch, &labels, &mut opt).unwrap();
        }) * 1e3
    };
    TrainStepRow {
        threads_1: time_at(1),
        threads_n: time_at(threads),
    }
}

/// Max |logit difference| of an identical forward pass at 1 vs N threads.
/// The determinism contract of the kernel backend requires exactly 0.
fn determinism_probe(threads: usize) -> f32 {
    let mut rng = ChaCha8Rng::seed_from_u64(45);
    let batch = Tensor::rand_uniform(&[8, 3, 32, 32], 0.0, 1.0, &mut rng);
    let model = scaled_vit(9);
    pool::set_global_threads(1);
    let logits_1t = predict_logits(&model, &batch).expect("forward pass");
    pool::set_global_threads(threads);
    let logits_nt = predict_logits(&model, &batch).expect("forward pass");
    logits_1t
        .data()
        .iter()
        .zip(logits_nt.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max)
}

/// The federation probe: Raw star, in-memory vs serialized.
#[derive(Serialize, Deserialize)]
struct FederationRow {
    clients: usize,
    rounds: usize,
    protocol_messages: usize,
    wire_bytes: usize,
    in_memory_msgs_per_s: f64,
    serialized_msgs_per_s: f64,
    serialized_wire_mb_per_s: f64,
}

/// One codec of the wire-codec probe.
#[derive(Serialize, Deserialize)]
struct CodecRow {
    /// Bytes of the update frames per round, as shipped under the codec.
    update_bytes_per_round: f64,
    serialized_msgs_per_s: f64,
    serialized_mb_per_s: f64,
    determinism_param_diffs: usize,
}

#[derive(Serialize, Deserialize)]
struct WireCodecs {
    raw: CodecRow,
    bf16: CodecRow,
    int8: CodecRow,
    topk: CodecRow,
}

/// An adversarial probe: echo seats plus one outlier seat under a robust
/// rule.
#[derive(Serialize, Deserialize)]
struct AdversarialRow {
    clients: usize,
    adversaries: usize,
    rule: AggregationRule,
    spam_frames: usize,
    protocol_messages: usize,
    msgs_per_s: f64,
    determinism_param_diffs: usize,
}

#[derive(Serialize, Deserialize)]
struct HierarchicalRow {
    clients: usize,
    edges: usize,
    rounds: usize,
    protocol_messages: usize,
    msgs_per_s: f64,
    determinism_param_diffs: usize,
}

#[derive(Serialize, Deserialize)]
struct FaultInjectionRow {
    clients: usize,
    rounds: usize,
    rounds_per_s: f64,
    dropped: usize,
    duplicated: usize,
    corrupted: usize,
    retransmissions: usize,
    recoveries: usize,
    determinism_param_diffs: usize,
}

#[derive(Serialize, Deserialize)]
struct SecureAggRow {
    clients: usize,
    rounds: usize,
    clear_shielded_msgs_per_s: f64,
    masked_shielded_msgs_per_s: f64,
    mask_share_bytes_per_round: f64,
    masked_raw_unseals: u64,
    determinism_param_diffs: usize,
}

#[derive(Serialize, Deserialize)]
struct PopulationRow {
    rounds_per_s: f64,
    peak_rss_mb: f64,
    folded_mb: f64,
}

#[derive(Serialize, Deserialize)]
struct PopulationScale {
    pop_1k: PopulationRow,
    pop_10k: PopulationRow,
    pop_100k: PopulationRow,
    /// Update-frame wire MB folded by the 100k-seat round under Int8.
    pop_100k_int8_folded_mb: f64,
}

/// The `BENCH_federation.json` snapshot.
#[derive(Serialize, Deserialize)]
struct FederationSnapshot {
    federation: FederationRow,
    wire_codecs: WireCodecs,
    adversarial_round: AdversarialRow,
    krum_round: AdversarialRow,
    hierarchical_round: HierarchicalRow,
    fault_injection: FaultInjectionRow,
    secure_agg: SecureAggRow,
    population_scale: PopulationScale,
}

/// Rounds of every scenario probe.
const ROUNDS: usize = 3;
/// Seed of the probe datasets and federations.
const PROBE_SEED: u64 = 13;
/// A seat that echoes the broadcast without training. The perturbation is
/// small, but it moves the global model.
const ECHO: AgentRole = AgentRole::FreeRider {
    claimed_samples: 16,
    spam: 0,
    perturbation: 1e-3,
};

/// A probe scenario: `clients` echo seats over `transport` for [`ROUNDS`]
/// rounds, with a one-image central evaluation.
fn echo_spec(clients: usize, transport: TransportKind) -> ScenarioSpec {
    let config = FederationConfig {
        clients,
        rounds: ROUNDS,
        eval_samples: 1,
        transport,
        ..FederationConfig::default()
    };
    (0..clients).fold(ScenarioSpec::honest(config), |spec, id| {
        spec.with_role(id, ECHO)
    })
}

/// Seats 0–1 and 2–3 under one edge aggregator each.
fn two_edges() -> Topology {
    Topology::hierarchical(vec![vec![0, 1], vec![2, 3]])
}

/// What one probe run left behind.
struct ProbeRun {
    history: RunHistory,
    model: ModelBits,
}

/// Builds `spec` over scaled-ViT replicas and runs it through
/// [`Federation::run`].
///
/// # Panics
/// Panics if the federation fails to build or run, or if the run left the
/// global model bit-identical to the initial one.
fn run_probe(spec: &ScenarioSpec) -> ProbeRun {
    let data = Dataset::generate(
        DatasetSpec::Cifar10Like,
        &GeneratorConfig {
            train_samples: spec.federation.clients,
            test_samples: 1,
            ..GeneratorConfig::default()
        },
        PROBE_SEED,
    );
    let mut seeds = SeedStream::new(PROBE_SEED);
    let mut federation =
        Federation::vit_scenario(&data, spec, &mut seeds).expect("probe federation builds");
    let initial = ModelBits::of(federation.server().parameters());
    let history = federation.run(&mut seeds).expect("probe federation runs");
    let model = ModelBits::of(federation.server().parameters());
    assert_ne!(
        model.diffs(&initial),
        0,
        "a probe federation must move the global model"
    );
    ProbeRun { history, model }
}

/// Runs `spec` `iters` times. Returns the first run, the best wall-clock
/// seconds of one build-and-run, and the bit diffs of every later run
/// against the first: each timed repeat doubles as a replay.
fn time_probe(iters: usize, spec: &ScenarioSpec) -> (ProbeRun, f64, usize) {
    let mut runs = Vec::with_capacity(iters);
    let secs = time_best(iters, || runs.push(run_probe(spec)));
    let replay_diffs = runs[1..]
        .iter()
        .map(|run| runs[0].model.diffs(&run.model))
        .sum();
    (runs.swap_remove(0), secs, replay_diffs)
}

/// The federation probe: 4 echo seats on a Raw star. Both transports
/// report the same logical traffic.
fn bench_federation(iters: usize) -> FederationRow {
    let (run, in_memory, _) = time_probe(iters, &echo_spec(4, TransportKind::InMemory));
    let (_, serialized, _) = time_probe(iters, &echo_spec(4, TransportKind::Serialized));
    let messages = run.history.total_messages;
    let wire_bytes = run.history.total_wire_bytes;
    FederationRow {
        clients: 4,
        rounds: ROUNDS,
        protocol_messages: messages,
        wire_bytes,
        in_memory_msgs_per_s: messages as f64 / in_memory,
        serialized_msgs_per_s: messages as f64 / serialized,
        serialized_wire_mb_per_s: wire_bytes as f64 / serialized / 1e6,
    }
}

/// The wire-codec probe: the serialized federation probe once per
/// [`UpdateCodec`]. Reports the update-frame bytes per round, serialized
/// throughput, and a determinism field that adds the diffs of the timed
/// repeats, the in-memory star, the two-edge hierarchy and
/// `PELTA_THREADS` 1 and 4 against the serialized star.
fn bench_wire_codecs(iters: usize, threads: usize) -> WireCodecs {
    let star = |transport, codec| echo_spec(4, transport).with_codec(codec);
    let mut control_bytes = None;
    let codecs = [
        UpdateCodec::Raw,
        UpdateCodec::Bf16,
        UpdateCodec::Int8,
        UpdateCodec::TopK { k: 64 },
    ];
    let [raw, bf16, int8, topk] = codecs.map(|codec| {
        let (reference, secs, repeat_diffs) =
            time_probe(iters, &star(TransportKind::Serialized, codec));
        let mut replays = vec![
            run_probe(&star(TransportKind::InMemory, codec)),
            run_probe(&star(TransportKind::Serialized, codec).with_topology(two_edges())),
        ];
        for n in [1, 4] {
            pool::set_global_threads(n);
            replays.push(run_probe(&star(TransportKind::InMemory, codec)));
        }
        pool::set_global_threads(threads);
        let history = &reference.history;
        // `upload_bytes` counts every update at its Raw size whatever the
        // codec, and only update frames depend on the codec. So the Raw run,
        // which comes first, pins the control traffic every run shares, and
        // the rest of each run's wire bytes are its update frames.
        let control = *control_bytes.get_or_insert_with(|| {
            history.total_wire_bytes - history.rounds.iter().map(|r| r.upload_bytes).sum::<usize>()
        });
        CodecRow {
            update_bytes_per_round: (history.total_wire_bytes - control) as f64 / ROUNDS as f64,
            serialized_msgs_per_s: history.total_messages as f64 / secs,
            serialized_mb_per_s: history.total_wire_bytes as f64 / secs / 1e6,
            determinism_param_diffs: repeat_diffs
                + replays
                    .iter()
                    .map(|replay| reference.model.diffs(&replay.model))
                    .sum::<usize>(),
        }
    });
    WireCodecs {
        raw,
        bf16,
        int8,
        topk,
    }
}

/// An adversarial probe: 5 serialized seats under `rule` with a quorum of
/// 5. Seats 0–3 echo; seat 4 claims 512 samples, perturbs the broadcast by
/// up to ±0.5 and first sends `spam` junk frames a round, each of which the
/// server Nacks.
fn bench_adversarial(iters: usize, rule: AggregationRule, spam: usize) -> AdversarialRow {
    let mut spec = echo_spec(5, TransportKind::Serialized);
    spec.federation.rule = rule;
    spec.federation.policy.quorum = 5;
    spec.roles[4].role = AgentRole::FreeRider {
        claimed_samples: 512,
        spam,
        perturbation: 0.5,
    };
    let (run, secs, determinism_param_diffs) = time_probe(iters, &spec);
    AdversarialRow {
        clients: 5,
        adversaries: 1,
        rule,
        spam_frames: spam * ROUNDS,
        protocol_messages: run.history.total_messages,
        msgs_per_s: run.history.total_messages as f64 / secs,
        determinism_param_diffs,
    }
}

/// The hierarchical probe: 4 serialized echo seats under two edge
/// aggregators, so every update takes the two-hop path (member → edge →
/// combined subtree frame → root).
fn bench_hierarchical(iters: usize) -> HierarchicalRow {
    let spec = echo_spec(4, TransportKind::Serialized).with_topology(two_edges());
    let (run, secs, determinism_param_diffs) = time_probe(iters, &spec);
    HierarchicalRow {
        clients: 4,
        edges: 2,
        rounds: ROUNDS,
        protocol_messages: run.history.total_messages,
        msgs_per_s: run.history.total_messages as f64 / secs,
        determinism_param_diffs,
    }
}

/// Resets the kernel's peak-RSS high-water mark to the current RSS (Linux
/// `clear_refs`; silently a no-op elsewhere, leaving `peak_rss_mb` at the
/// process-lifetime peak).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak RSS (`VmHWM`) in MB since the last reset; 0 when unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let rest = line.strip_prefix("VmHWM:")?;
                rest.split_whitespace().next()?.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1e3)
}

/// One full federated round at population scale: `population` seats join a
/// streaming-FedAvg server over in-memory links, the round opens with one
/// shared broadcast frame, and each update is delivered — folded and
/// dropped — as soon as its seat reports, so in-flight payloads stay O(1)
/// and server memory stays O(model) rather than O(population). Update
/// frames travel through `codec`. Returns (seconds per round,
/// accepted-update MB folded at raw payload size, update-frame wire MB as
/// shipped under the codec).
///
/// This is the one probe that bypasses `Federation`: a 100k-seat
/// federation would need 100k training samples, about 1.2 GB of 32×32×3
/// images, so the server's fold stays the entry point that the O(model)
/// memory guard measures.
fn population_round(
    parameters: &[(String, Tensor)],
    population: usize,
    codec: UpdateCodec,
) -> (f64, f64, f64) {
    let mut server = pelta_fl::FedAvgServer::new(parameters.to_vec());
    let links: Vec<_> = (0..population)
        .map(|_| TransportKind::InMemory.duplex_with(codec))
        .collect();
    for (id, (client_end, server_end)) in links.iter().enumerate() {
        client_end
            .send(&Message::Join { client_id: id })
            .expect("join");
        let join = server_end.recv().expect("recv").expect("queued join");
        server.deliver(&join);
    }
    let join_bytes: usize = links.iter().map(|(c, _)| c.bytes_sent()).sum();
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let start = Instant::now();
    let participants = server.begin_round(&mut rng).expect("begin round");
    let broadcast = server.broadcast();
    let frame = BroadcastFrame::new(Message::RoundStart {
        round: broadcast.round,
        global: broadcast,
    });
    for &id in &participants {
        links[id].1.send_broadcast(&frame).expect("broadcast");
        let Some(Message::RoundStart { global, .. }) = links[id].0.recv().expect("client recv")
        else {
            panic!("client expected RoundStart");
        };
        links[id]
            .0
            .send(&Message::Update {
                update: ModelUpdate {
                    client_id: id,
                    round: global.round,
                    num_samples: 16,
                    parameters: global.parameters,
                },
                shielded: Vec::new(),
            })
            .expect("update");
        let update = links[id].1.recv().expect("server recv").expect("queued");
        let responses = server.deliver(&update);
        assert!(responses.is_empty(), "update unexpectedly refused");
    }
    let summary = server.close_round().expect("close round");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(summary.reporters.len(), population, "every seat must fold");
    let upload_wire_bytes: usize =
        links.iter().map(|(c, _)| c.bytes_sent()).sum::<usize>() - join_bytes;
    (
        elapsed,
        summary.update_bytes as f64 / 1e6,
        upload_wire_bytes as f64 / 1e6,
    )
}

/// The population-scale probe: 1k / 10k / 100k sampled seats, one timed
/// round each (best of two), with the kernel's peak-RSS high-water mark
/// reset per population so the figures isolate each round's footprint.
/// A last round repeats the 100k round under [`UpdateCodec::Int8`] and
/// reports the update-frame wire MB that actually folds through per round
/// — the codec's answer to the ~418 MB raw payload wall.
fn bench_population() -> PopulationScale {
    let mut rng = ChaCha8Rng::seed_from_u64(37);
    // A ~1k-float synthetic model: the probe isolates the per-seat protocol
    // + fold cost, not model size.
    let parameters = vec![(
        "population.weights".to_string(),
        Tensor::rand_uniform(&[1024], -1.0, 1.0, &mut rng),
    )];
    let [pop_1k, pop_10k, pop_100k] = [1_000, 10_000, 100_000].map(|population| {
        reset_peak_rss();
        let (first, folded_mb, _) = population_round(&parameters, population, UpdateCodec::Raw);
        let (second, _, _) = population_round(&parameters, population, UpdateCodec::Raw);
        PopulationRow {
            rounds_per_s: 1.0 / first.min(second),
            peak_rss_mb: peak_rss_mb(),
            folded_mb,
        }
    });
    let (_, _, pop_100k_int8_folded_mb) = population_round(&parameters, 100_000, UpdateCodec::Int8);
    PopulationScale {
        pop_1k,
        pop_10k,
        pop_100k,
        pop_100k_int8_folded_mb,
    }
}

/// The churn/fault probe: a hierarchical soak federation under the scripted
/// chaos plan (drops, duplicates, corruption, reordering, partitions, a
/// seat crash and an edge crash-and-resync), timed end to end, then
/// replayed over the serialized transport — the replay must match the
/// reference bit for bit, counter for counter.
fn bench_fault_injection(iters: usize) -> FaultInjectionRow {
    const ROUNDS: usize = 12;
    const FAULT_SEED: u64 = 0x5EED_FA17;
    let topology = Topology::hierarchical(vec![vec![0, 2, 4], vec![1, 3, 5]]);
    let reference = run_chaos(&topology, TransportKind::InMemory, ROUNDS, FAULT_SEED);
    let elapsed = time_best(iters, || {
        std::hint::black_box(run_chaos(
            &topology,
            TransportKind::InMemory,
            ROUNDS,
            FAULT_SEED,
        ));
    });
    let replay = run_chaos(&topology, TransportKind::Serialized, ROUNDS, FAULT_SEED);
    let determinism_param_diffs = reference.global.diffs(&replay.global)
        + usize::from(replay.reporters != reference.reporters)
        + usize::from(replay.stats != reference.stats);
    FaultInjectionRow {
        clients: CHAOS_CLIENTS,
        rounds: ROUNDS,
        rounds_per_s: ROUNDS as f64 / elapsed,
        dropped: reference.stats.dropped,
        duplicated: reference.stats.duplicated,
        corrupted: reference.stats.corrupted,
        retransmissions: reference.stats.retransmissions,
        recoveries: reference.stats.recoveries,
        determinism_param_diffs,
    }
}

/// The secure-aggregation probe: one small shielded federation with a
/// scripted mid-round dropout (so the `MaskShare` reconstruction sweep
/// always runs), first with pairwise masking off — the clear shielded
/// baseline whose blobs the root opens one by one — then with masking on,
/// where only the folded sum ever leaves the enclave. Reports masked vs
/// clear round throughput, the extra `MaskShare` wire bytes per round, the
/// root's individual-blob unseal count under masking (must be zero) and a
/// replay-determinism field folding four invariance checks: masked vs
/// clear bits, a repeat, the serialized transport, and the hierarchical
/// route — all required to match bit for bit.
fn bench_secure_agg(iters: usize) -> SecureAggRow {
    const ROUNDS: usize = 3;
    let star = Topology::Star;
    let tree = Topology::hierarchical(vec![vec![0, 2], vec![1, 3]]);

    let clear = run_secure_agg(&star, TransportKind::InMemory, ROUNDS, false);
    assert!(
        clear.raw_unseals > 0,
        "the clear shielded baseline must open member blobs individually"
    );
    let masked = run_secure_agg(&star, TransportKind::InMemory, ROUNDS, true);
    let repeat = run_secure_agg(&star, TransportKind::InMemory, ROUNDS, true);
    let serialized = run_secure_agg(&star, TransportKind::Serialized, ROUNDS, true);
    let hierarchical = run_secure_agg(&tree, TransportKind::InMemory, ROUNDS, true);
    let determinism_param_diffs = [&clear, &repeat, &serialized, &hierarchical]
        .iter()
        .map(|replay| masked.global.diffs(&replay.global))
        .sum();

    let clear_elapsed = time_best(iters, || {
        std::hint::black_box(run_secure_agg(
            &star,
            TransportKind::InMemory,
            ROUNDS,
            false,
        ));
    });
    let masked_elapsed = time_best(iters, || {
        std::hint::black_box(run_secure_agg(&star, TransportKind::InMemory, ROUNDS, true));
    });
    SecureAggRow {
        clients: SECURE_AGG_CLIENTS,
        rounds: ROUNDS,
        clear_shielded_msgs_per_s: clear.messages as f64 / clear_elapsed,
        masked_shielded_msgs_per_s: masked.messages as f64 / masked_elapsed,
        mask_share_bytes_per_round: masked.wire_bytes.saturating_sub(clear.wire_bytes) as f64
            / ROUNDS as f64,
        masked_raw_unseals: masked.raw_unseals,
        determinism_param_diffs,
    }
}

/// Which direction of a gated metric is an improvement.
#[derive(Clone, Copy)]
enum Better {
    Higher,
    Lower,
}

/// A gated metric: its dotted path in the snapshot, its direction, and the
/// accessor that reads it.
type Gate<T> = (&'static str, Better, fn(&T) -> f64);

/// Builds a [`Gate`] named after the field path it reads, so the name and
/// the field cannot drift apart.
macro_rules! gate {
    ($better:ident, $($field:ident).+) => {
        (stringify!($($field).+), Better::$better, |s| s.$($field).+ as f64)
    };
}

/// The kernel metrics `--check` gates. `vit_train_step_ms.threads_n` is
/// left out: on a one-thread host it repeats the `threads_1` measurement.
const KERNEL_GATES: [Gate<KernelSnapshot>; 5] = [
    gate!(Higher, matmul_256.kernel_gflops_1t),
    gate!(Higher, matmul_256.kernel_gflops_nt),
    gate!(Lower, conv2d_resnet_block.kernel_ms_1t),
    gate!(Lower, conv2d_resnet_block.kernel_ms_nt),
    gate!(Lower, vit_train_step_ms.threads_1),
];

/// The federation metrics `--check` gates. The 100k-seat peak RSS is the
/// O(population) memory guard: a reintroduced full-population update
/// buffer blows far past the tolerance. The wire bytes and the per-codec
/// update bytes guard the frame sizes, so a codec change that silently
/// fattens frames fails even when throughput barely moves.
const FEDERATION_GATES: [Gate<FederationSnapshot>; 20] = [
    gate!(Higher, federation.in_memory_msgs_per_s),
    gate!(Higher, federation.serialized_msgs_per_s),
    gate!(Higher, federation.serialized_wire_mb_per_s),
    gate!(Higher, adversarial_round.msgs_per_s),
    gate!(Higher, krum_round.msgs_per_s),
    gate!(Higher, hierarchical_round.msgs_per_s),
    gate!(Higher, fault_injection.rounds_per_s),
    gate!(Higher, secure_agg.clear_shielded_msgs_per_s),
    gate!(Higher, secure_agg.masked_shielded_msgs_per_s),
    gate!(Higher, population_scale.pop_1k.rounds_per_s),
    gate!(Higher, population_scale.pop_10k.rounds_per_s),
    gate!(Higher, population_scale.pop_100k.rounds_per_s),
    gate!(Lower, population_scale.pop_100k.peak_rss_mb),
    gate!(Lower, secure_agg.mask_share_bytes_per_round),
    gate!(Lower, federation.wire_bytes),
    gate!(Lower, wire_codecs.raw.update_bytes_per_round),
    gate!(Lower, wire_codecs.bf16.update_bytes_per_round),
    gate!(Lower, wire_codecs.int8.update_bytes_per_round),
    gate!(Lower, wire_codecs.topk.update_bytes_per_round),
    gate!(Lower, population_scale.pop_100k_int8_folded_mb),
];

/// Diffs a fresh snapshot against its committed baseline; both texts must
/// parse as `T`. A higher-is-better metric may not fall below
/// `baseline * (1 - tolerance)`, a lower-is-better one may not rise above
/// `baseline / (1 - tolerance)`. Returns the regressions (empty = pass).
fn check_snapshot<T: DeserializeOwned>(
    label: &str,
    baseline: &str,
    fresh: &str,
    gates: &[Gate<T>],
    tolerance: f64,
) -> Vec<String> {
    let parse = |which: &str, text: &str| {
        serde_json::from_str::<T>(text)
            .map_err(|e| format!("{label}: the {which} snapshot does not parse: {e}"))
    };
    let (baseline, fresh) = match (parse("committed", baseline), parse("fresh", fresh)) {
        (Ok(baseline), Ok(fresh)) => (baseline, fresh),
        (baseline, fresh) => return baseline.err().into_iter().chain(fresh.err()).collect(),
    };
    let mut regressions = Vec::new();
    for (name, better, read) in gates {
        let (base, new) = (read(&baseline), read(&fresh));
        let ok = match better {
            Better::Higher => new >= base * (1.0 - tolerance),
            Better::Lower => new <= base / (1.0 - tolerance),
        };
        let verdict = if ok { "ok" } else { "REGRESSION" };
        eprintln!("perf-check: {label}.{name}: baseline {base:.3} -> fresh {new:.3} [{verdict}]");
        if !ok {
            regressions.push(format!(
                "{label}.{name} regressed beyond tolerance {tolerance}: {base:.3} -> {new:.3}"
            ));
        }
    }
    regressions
}

/// Command-line options.
struct Cli {
    quick: bool,
    check: bool,
    tolerance: f64,
    out: String,
}

const USAGE: &str = "usage: perf [--quick] [--out <path>] [--check] [--tolerance <frac in [0, 1)>]";

/// Parses the arguments after the program name. Refuses an unknown flag, a
/// flag without its value, and a tolerance that does not parse or lies
/// outside `[0, 1)`: each would silently weaken or disable the gate.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        quick: false,
        check: false,
        tolerance: 0.5,
        out: "BENCH_kernels.json".to_string(),
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => cli.quick = true,
            "--check" => cli.check = true,
            "--out" => cli.out = args.next().ok_or("missing value for --out")?,
            "--tolerance" => {
                let value = args.next().ok_or("missing value for --tolerance")?;
                cli.tolerance = match value.parse::<f64>() {
                    Ok(tolerance) if (0.0..1.0).contains(&tolerance) => tolerance,
                    _ => return Err(format!("--tolerance must lie in [0, 1), got '{value}'")),
                };
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(cli)
}

/// Serializes `snapshot`, prints it and writes it to `path`; returns the
/// text written.
fn write_snapshot<T: Serialize>(path: &str, snapshot: &T) -> String {
    let json = serde_json::to_string(snapshot).expect("snapshots serialize") + "\n";
    print!("{json}");
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("wrote {path}");
    json
}

fn main() {
    let cli = parse_args(std::env::args().skip(1)).unwrap_or_else(|message| {
        eprintln!("error: {message}\n{USAGE}");
        std::process::exit(2);
    });
    let quick = cli.check || cli.quick;
    let iters = if quick { 2 } else { 5 };
    let threads = pool::env_threads();
    let federation_path = if cli.out == "BENCH_kernels.json" {
        "BENCH_federation.json".to_string()
    } else {
        format!("{}.federation.json", cli.out)
    };
    // In check mode the committed snapshots are the baselines; read them
    // before the fresh run overwrites the files. A missing file reads as
    // empty text, which fails the gate as a baseline that does not parse.
    let baselines = cli.check.then(|| {
        [&cli.out, &federation_path].map(|path| {
            std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("perf-check: cannot read {path}: {e}");
                String::new()
            })
        })
    });

    eprintln!("kernel perf snapshot: {iters} iters, {threads} threads (PELTA_THREADS)");
    let kernels = KernelSnapshot {
        threads,
        quick,
        matmul_256: bench_matmul(iters, threads),
        conv2d_resnet_block: bench_conv(iters, threads),
        vit_train_step_ms: bench_train_step(iters.min(3), threads),
        determinism_max_abs_logit_diff: determinism_probe(threads),
    };
    pool::set_global_threads(threads);
    let kernels_json = write_snapshot(&cli.out, &kernels);

    let federation = FederationSnapshot {
        federation: bench_federation(iters),
        wire_codecs: bench_wire_codecs(iters, threads),
        adversarial_round: bench_adversarial(iters, AggregationRule::TrimmedMean { trim: 1 }, 2),
        krum_round: bench_adversarial(iters, AggregationRule::Krum { f: 1 }, 0),
        hierarchical_round: bench_hierarchical(iters),
        fault_injection: bench_fault_injection(iters),
        secure_agg: bench_secure_agg(iters),
        population_scale: bench_population(),
    };
    let federation_json = write_snapshot(&federation_path, &federation);

    assert_eq!(
        kernels.determinism_max_abs_logit_diff, 0.0,
        "determinism contract violated: 1-thread and {threads}-thread logits differ"
    );
    let FederationSnapshot {
        wire_codecs: codecs,
        adversarial_round,
        krum_round,
        hierarchical_round,
        fault_injection,
        secure_agg,
        ..
    } = &federation;
    for (what, diffs) in [
        (
            "adversarial-round",
            adversarial_round.determinism_param_diffs,
        ),
        ("Krum-round", krum_round.determinism_param_diffs),
        (
            "hierarchical two-hop",
            hierarchical_round.determinism_param_diffs,
        ),
        ("faulted soak", fault_injection.determinism_param_diffs),
        // Masked vs clear bits, a repeat, the serialized transport and the
        // hierarchical route.
        ("masked shielded", secure_agg.determinism_param_diffs),
    ] {
        assert_eq!(
            diffs, 0,
            "determinism contract violated: the {what} replay diverged"
        );
    }
    assert_eq!(
        secure_agg.masked_raw_unseals, 0,
        "secrecy contract violated: the root unsealed an individual member \
         blob under secure aggregation"
    );
    let raw = codecs.raw.update_bytes_per_round;
    for (name, row) in [
        ("raw", &codecs.raw),
        ("bf16", &codecs.bf16),
        ("int8", &codecs.int8),
        ("topk", &codecs.topk),
    ] {
        assert_eq!(
            row.determinism_param_diffs, 0,
            "determinism contract violated: codec {name} diverged across repeats, \
             transports, topologies or thread counts"
        );
        if matches!(name, "int8" | "topk") {
            assert!(
                row.update_bytes_per_round * 3.0 <= raw,
                "codec {name} must cut update bytes/round at least 3x vs raw ({:.0} vs {raw:.0})",
                row.update_bytes_per_round
            );
        }
    }

    // The CI perf-regression gate: diff the fresh snapshots against the
    // committed baselines read before this run.
    if let Some([kernels_baseline, federation_baseline]) = baselines {
        let mut regressions = check_snapshot(
            "kernels",
            &kernels_baseline,
            &kernels_json,
            &KERNEL_GATES,
            cli.tolerance,
        );
        regressions.extend(check_snapshot(
            "federation",
            &federation_baseline,
            &federation_json,
            &FEDERATION_GATES,
            cli.tolerance,
        ));
        if !regressions.is_empty() {
            eprintln!("perf-check FAILED:");
            for regression in &regressions {
                eprintln!("  {regression}");
            }
            std::process::exit(1);
        }
        eprintln!("perf-check passed (tolerance {})", cli.tolerance);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize, Deserialize)]
    struct Probe {
        msgs_per_s: f64,
        wire_bytes: usize,
    }

    const GATES: [Gate<Probe>; 2] = [gate!(Higher, msgs_per_s), gate!(Lower, wire_bytes)];
    const BASELINE: &str = r#"{"msgs_per_s": 100, "wire_bytes": 1000}"#;

    fn check(fresh: &str) -> Vec<String> {
        check_snapshot("probe", BASELINE, fresh, &GATES, 0.5)
    }

    #[test]
    fn a_higher_is_better_metric_below_its_floor_fails() {
        let regressions = check(r#"{"msgs_per_s": 49.9, "wire_bytes": 1000}"#);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(
            regressions[0].contains("probe.msgs_per_s"),
            "{regressions:?}"
        );
    }

    #[test]
    fn a_lower_is_better_metric_above_its_ceiling_fails() {
        let regressions = check(r#"{"msgs_per_s": 100, "wire_bytes": 2001}"#);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(
            regressions[0].contains("probe.wire_bytes"),
            "{regressions:?}"
        );
    }

    #[test]
    fn values_exactly_at_the_floor_and_the_ceiling_pass() {
        assert_eq!(
            check(r#"{"msgs_per_s": 50, "wire_bytes": 2000}"#),
            Vec::<String>::new()
        );
    }

    #[test]
    fn a_gated_metric_missing_from_the_fresh_snapshot_fails() {
        let regressions = check(r#"{"msgs_per_s": 100}"#);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].contains("fresh"), "{regressions:?}");
    }

    #[test]
    fn a_committed_baseline_that_does_not_parse_fails() {
        let fresh = r#"{"msgs_per_s": 100, "wire_bytes": 1000}"#;
        for baseline in ["", "{\"msgs_per_s\": 100", r#"{"msgs_per_s": 100}"#] {
            let regressions = check_snapshot("probe", baseline, fresh, &GATES, 0.5);
            assert_eq!(regressions.len(), 1, "{baseline:?}: {regressions:?}");
            assert!(regressions[0].contains("committed"), "{regressions:?}");
        }
    }

    #[test]
    fn the_committed_snapshots_parse_under_their_schemas() {
        let read = |name: &str| {
            std::fs::read_to_string(format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR")))
                .expect("the committed snapshot is readable")
        };
        serde_json::from_str::<KernelSnapshot>(&read("BENCH_kernels.json")).unwrap();
        serde_json::from_str::<FederationSnapshot>(&read("BENCH_federation.json")).unwrap();
    }
}
