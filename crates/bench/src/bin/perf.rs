//! Kernel throughput snapshot → `BENCH_kernels.json`.
//!
//! Measures the blocked/parallel compute backend of `pelta-tensor` against
//! the naive seed kernels on the paper workloads, at one thread and at
//! `PELTA_THREADS` (default: available parallelism) threads:
//!
//! * 256×256×256 matmul GFLOP/s (naive i-k-j vs packed GEMM);
//! * a ResNet-block conv2d forward (naive 7-loop vs im2col + GEMM);
//! * end-to-end scaled-ViT train-step latency;
//! * a determinism probe (max |logit difference| between 1 and N threads,
//!   which the backend contract requires to be exactly zero).
//!
//! A second probe measures the **federation message path** (protocol
//! round-trips through the round state machine, serialised vs in-memory
//! transport, no local training) and lands in `BENCH_federation.json`,
//! together with a **wire-codec probe** that re-runs the round trip once
//! per [`UpdateCodec`] (raw / bf16 / int8 / top-k) and reports the
//! update bytes per round, serialised throughput, and a per-codec
//! replay-determinism field covering transports, the star vs hierarchical
//! route and `PELTA_THREADS` 1 vs 4 — plus an **adversarial-round probe**: a mixed honest/malicious
//! population (boosted outlier updates + junk-frame spam) aggregated under
//! the trimmed mean, replayed twice to assert the adversarial path is
//! bit-deterministic, and a sibling **Krum-round probe** that folds the
//! same boosted-outlier population under `Krum { f: 1 }` — the
//! pairwise-distance scan the coordinate-wise rules never pay — with its
//! own replay-determinism field asserted zero and a `krum_msgs_per_s`
//! metric in the `--check` gate. A **hierarchical-round probe** drives the two-hop
//! path of the topology layer (member → edge aggregator → combined subtree
//! frame → root) over the serialised transport, again replayed twice for a
//! determinism field. A **fault-injection probe** times a hierarchical
//! soak federation under the scripted chaos plan (drops, duplicates,
//! corruption, partitions, a seat crash and an edge crash-and-resync) and
//! replays it over the serialised transport — the `fault_injection` block
//! reports rounds/s at the fixed fault rate, the retransmission/recovery
//! counters, and a replay-determinism field asserted to be zero. A
//! **secure-aggregation probe** runs one shielded federation with a
//! scripted mid-round dropout twice — pairwise masking off, then on — and
//! reports masked vs clear shielded-round msgs/s, the `MaskShare`
//! reconstruction bytes per round, the root's individual-blob unseal count
//! under masking (asserted zero), and a determinism field folding
//! masked-vs-clear, repeat, transport and topology invariance (asserted
//! zero) into the `secure_agg` block. A **population-scale probe** drives one full
//! streaming-FedAvg round at 1k / 10k / 100k seats (shared broadcast
//! frame, fold-on-delivery) and reports rounds/s, peak RSS (`VmHWM`, reset
//! per population) and MB folded — the `population_scale` block of
//! `BENCH_federation.json`, whose 100k-seat peak RSS doubles as the
//! O(population) memory regression guard in `--check` mode.
//!
//! Usage: `perf [--quick] [--out <path>] [--check [--tolerance <frac>]]`.
//! `--quick` runs fewer iterations (the CI snapshot). `--check` (implies
//! `--quick`) reads the committed `BENCH_kernels.json` /
//! `BENCH_federation.json` as baselines *before* refreshing them, then fails
//! (non-zero exit) if any throughput metric regressed by more than
//! `--tolerance` (default 0.5, i.e. 50%) or any determinism probe is
//! non-zero — the CI perf-regression gate.

use std::time::Instant;

use pelta_bench::{run_chaos, run_secure_agg, CHAOS_CLIENTS, SECURE_AGG_CLIENTS};
use pelta_fl::{
    export_parameters, AggregationRule, BroadcastFrame, EdgeAggregator, FedAvgServer, Message,
    ModelUpdate, ParticipationPolicy, TransportKind, UpdateCodec,
};
use pelta_models::{predict_logits, train_step, ViTConfig, VisionTransformer};
use pelta_nn::Sgd;
use pelta_tensor::kernels::reference;
use pelta_tensor::{pool, Conv2dSpec, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

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

struct MatmulRow {
    naive_gflops: f64,
    kernel_gflops_1t: f64,
    kernel_gflops_nt: f64,
}

struct ConvRow {
    naive_ms: f64,
    kernel_ms_1t: f64,
    kernel_ms_nt: f64,
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
    }
}

fn scaled_vit(seed: u64) -> VisionTransformer {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    VisionTransformer::new(ViTConfig::vit_b16_scaled(32, 3, 10), &mut rng)
        .expect("scaled ViT configuration is valid")
}

/// Train-step latency (ms) of the scaled ViT on one mini-batch.
fn bench_train_step(iters: usize, threads: usize) -> (f64, f64) {
    let mut rng = ChaCha8Rng::seed_from_u64(44);
    let batch = Tensor::rand_uniform(&[16, 3, 32, 32], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();

    pool::set_global_threads(1);
    let mut model = scaled_vit(7);
    let mut opt = Sgd::new(0.01, 0.9);
    let t1 = time_best(iters, || {
        train_step(&mut model, &batch, &labels, &mut opt).unwrap();
    });

    pool::set_global_threads(threads);
    let mut model = scaled_vit(7);
    let mut opt = Sgd::new(0.01, 0.9);
    let tn = time_best(iters, || {
        train_step(&mut model, &batch, &labels, &mut opt).unwrap();
    });
    (t1 * 1e3, tn * 1e3)
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

struct FederationRow {
    clients: usize,
    rounds: usize,
    messages: usize,
    wire_bytes: usize,
    in_memory_msgs_per_s: f64,
    serialized_msgs_per_s: f64,
    serialized_mb_per_s: f64,
}

/// What one protocol round-trip run produced: traffic counters plus the
/// final global parameter bits (for replay-determinism diffs).
struct RoundTripOutcome {
    messages: usize,
    /// All logical wire bytes, both directions (broadcasts included).
    wire_bytes: usize,
    /// Client→server `Update`-frame bytes only — the traffic an
    /// [`UpdateCodec`] compresses (joins and broadcasts excluded).
    upload_bytes: usize,
    param_bits: Vec<u32>,
}

/// Count of differing parameter bit positions between two runs (plus any
/// length mismatch) — the replay-determinism measure, required to be 0.
fn param_bit_diffs(reference: &[u32], replay: &[u32]) -> usize {
    reference
        .iter()
        .zip(replay.iter())
        .filter(|(a, b)| a != b)
        .count()
        + reference.len().abs_diff(replay.len())
}

/// Pumps `clients × rounds` protocol round-trips (RoundStart broadcast →
/// Update delivery → renormalised aggregation) through the server state
/// machine over the given transport, using scaled-ViT-sized parameter
/// payloads but no local training — this isolates the wire + state-machine
/// path the runtime added. Update frames travel through `codec`.
fn federation_round_trip(
    kind: TransportKind,
    codec: UpdateCodec,
    parameters: &[(String, Tensor)],
    clients: usize,
    rounds: usize,
) -> RoundTripOutcome {
    let mut server = FedAvgServer::new(parameters.to_vec());
    let links: Vec<_> = (0..clients).map(|_| kind.duplex_with(codec)).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    for (id, (client_end, server_end)) in links.iter().enumerate() {
        client_end
            .send(&Message::Join { client_id: id })
            .expect("join");
        let join = server_end.recv().expect("recv").expect("queued join");
        server.deliver(&join);
    }
    let join_bytes: usize = links.iter().map(|(c, _)| c.bytes_sent()).sum();
    for _ in 0..rounds {
        let participants = server.begin_round(&mut rng).expect("begin round");
        let broadcast = server.broadcast();
        let frame = BroadcastFrame::new(Message::RoundStart {
            round: broadcast.round,
            global: broadcast,
        });
        for &id in &participants {
            links[id].1.send_broadcast(&frame).expect("broadcast");
            // The client consumes the broadcast and answers with its update.
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
        }
        for &id in &participants {
            let update = links[id].1.recv().expect("server recv").expect("queued");
            let responses = server.deliver(&update);
            assert!(responses.is_empty(), "update unexpectedly refused");
        }
        server.close_round().expect("close round");
    }
    let messages: usize = links
        .iter()
        .map(|(c, s)| c.messages_sent() + s.messages_sent())
        .sum();
    let bytes: usize = links
        .iter()
        .map(|(c, s)| c.bytes_sent() + s.bytes_sent())
        .sum();
    let client_bytes: usize = links.iter().map(|(c, _)| c.bytes_sent()).sum();
    let param_bits = server
        .parameters()
        .iter()
        .flat_map(|(_, t)| t.data().iter().map(|v| v.to_bits()))
        .collect();
    RoundTripOutcome {
        messages,
        wire_bytes: bytes,
        upload_bytes: client_bytes - join_bytes,
        param_bits,
    }
}

struct AdversarialRow {
    clients: usize,
    adversaries: usize,
    spam_frames: usize,
    messages: usize,
    msgs_per_s: f64,
    determinism_param_diffs: usize,
}

/// One adversarial round over the serialised transport: `clients - 1` honest
/// seats echo the broadcast, the last seat spams junk frames and ships a
/// boosted outlier update, and the server aggregates under the given robust
/// rule — the message path plus the robust-rule cost the scheduler refactor
/// moved in-protocol. Returns the message count and the final parameter bits.
fn adversarial_round_trip(
    parameters: &[(String, Tensor)],
    clients: usize,
    rounds: usize,
    spam: usize,
    rule: AggregationRule,
) -> (usize, Vec<u32>) {
    let mut server = FedAvgServer::with_rule(
        parameters.to_vec(),
        ParticipationPolicy {
            quorum: clients,
            sample: 0,
            straggler_deadline: 0,
        },
        rule,
    )
    .expect("valid adversarial policy");
    let links: Vec<_> = (0..clients)
        .map(|_| TransportKind::Serialized.duplex())
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    for (id, (client_end, server_end)) in links.iter().enumerate() {
        client_end
            .send(&Message::Join { client_id: id })
            .expect("join");
        let join = server_end.recv().expect("recv").expect("queued join");
        server.deliver(&join);
    }
    for _ in 0..rounds {
        let participants = server.begin_round(&mut rng).expect("begin round");
        let broadcast = server.broadcast();
        let round = broadcast.round;
        let frame = BroadcastFrame::new(Message::RoundStart {
            round,
            global: broadcast,
        });
        for &id in &participants {
            links[id].1.send_broadcast(&frame).expect("broadcast");
            // Drain stale Nacks (the replies to earlier junk frames) until
            // the broadcast arrives.
            let global = loop {
                match links[id].0.recv().expect("client recv") {
                    Some(Message::RoundStart { global, .. }) => break global,
                    Some(_) => continue,
                    None => panic!("client expected RoundStart"),
                }
            };
            let malicious = id == clients - 1;
            if malicious {
                // Junk frames the server Nacks — each one still burns a
                // delivered-message unit of the straggler budget.
                for _ in 0..spam {
                    links[id]
                        .0
                        .send(&Message::RoundEnd {
                            round: global.round,
                        })
                        .expect("spam");
                }
            }
            let parameters: Vec<(String, Tensor)> = if malicious {
                // A boosted outlier: every coordinate doubled.
                global
                    .parameters
                    .iter()
                    .map(|(n, t)| (n.clone(), t.axpy(1.0, t).expect("boost")))
                    .collect()
            } else {
                global.parameters
            };
            links[id]
                .0
                .send(&Message::Update {
                    update: ModelUpdate {
                        client_id: id,
                        round,
                        num_samples: if malicious { 512 } else { 16 },
                        parameters,
                    },
                    shielded: Vec::new(),
                })
                .expect("update");
        }
        for &id in &participants {
            while let Some(message) = links[id].1.recv().expect("server recv") {
                for response in server.deliver(&message) {
                    links[id].1.send(&response).expect("nack route");
                }
            }
        }
        server.close_round().expect("close round");
    }
    let messages: usize = links
        .iter()
        .map(|(c, s)| c.messages_sent() + s.messages_sent())
        .sum();
    let bits = server
        .parameters()
        .iter()
        .flat_map(|(_, t)| t.data().iter().map(|v| v.to_bits()))
        .collect();
    (messages, bits)
}

fn bench_adversarial_rule(iters: usize, spam: usize, rule: AggregationRule) -> AdversarialRow {
    const CLIENTS: usize = 5;
    const ROUNDS: usize = 3;
    let parameters = export_parameters(&scaled_vit(13));

    let (messages, reference_bits) =
        adversarial_round_trip(&parameters, CLIENTS, ROUNDS, spam, rule);
    let (_, replay_bits) = adversarial_round_trip(&parameters, CLIENTS, ROUNDS, spam, rule);
    let determinism_param_diffs = param_bit_diffs(&reference_bits, &replay_bits);
    let elapsed = time_best(iters, || {
        std::hint::black_box(adversarial_round_trip(
            &parameters,
            CLIENTS,
            ROUNDS,
            spam,
            rule,
        ));
    });
    AdversarialRow {
        clients: CLIENTS,
        adversaries: 1,
        spam_frames: spam * ROUNDS,
        messages,
        msgs_per_s: messages as f64 / elapsed,
        determinism_param_diffs,
    }
}

fn bench_adversarial(iters: usize) -> AdversarialRow {
    bench_adversarial_rule(iters, 2, AggregationRule::TrimmedMean { trim: 1 })
}

/// The Krum-round probe: the same boosted-outlier population aggregated
/// under `Krum { f: 1 }` (5 seats satisfy the `n >= 2f + 3` bound), no
/// spam, replayed twice for a determinism field asserted to be zero. The
/// pairwise-distance scan is the O(n^2 d) cost the coordinate-wise rules
/// never pay, so it gets its own throughput metric in the `--check` gate.
fn bench_krum(iters: usize) -> AdversarialRow {
    bench_adversarial_rule(iters, 0, AggregationRule::Krum { f: 1 })
}

struct HierarchicalRow {
    clients: usize,
    edges: usize,
    rounds: usize,
    messages: usize,
    msgs_per_s: f64,
    determinism_param_diffs: usize,
}

/// Pumps `rounds` federated rounds through the **two-hop** hierarchical
/// path over the serialised transport: the broadcast relayed through each
/// edge aggregator to its members, member updates collected by the edges'
/// per-subtree state machines, one combined subtree frame forwarded per
/// edge, and the root unwrapping the members into its own state machine. No
/// local training — this isolates the wire + edge + root cost the topology
/// layer added. Member links and edge uplinks carry `codec`, so the
/// forwarded subtree frame exercises the idempotent coded re-encode.
/// Returns the message count and the final parameter bits.
fn hierarchical_round_trip(
    parameters: &[(String, Tensor)],
    groups: &[Vec<usize>],
    rounds: usize,
    codec: UpdateCodec,
) -> (usize, Vec<u32>) {
    let mut root = FedAvgServer::new(parameters.to_vec());
    let mut edges = Vec::new();
    let mut uplink_root_ends = Vec::new();
    let mut agent_ends = Vec::new();
    for (edge_id, group) in groups.iter().enumerate() {
        let (edge_end, root_end) = TransportKind::Serialized.duplex_with(codec);
        let mut edge = EdgeAggregator::new(edge_id, ParticipationPolicy::default(), edge_end)
            .expect("valid edge policy");
        for &member in group {
            let (agent_end, server_end) = TransportKind::Serialized.duplex_with(codec);
            edge.attach_member(member, server_end, 0);
            agent_end
                .send(&Message::Join { client_id: member })
                .expect("join");
            agent_ends.push((member, agent_end));
        }
        edge.pump_idle().expect("join pump");
        edges.push(edge);
        uplink_root_ends.push(root_end);
    }
    for root_end in &uplink_root_ends {
        while let Some(message) = root_end.recv().expect("uplink recv") {
            root.deliver(&message);
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(29);
    for _ in 0..rounds {
        let participants = root.begin_round(&mut rng).expect("begin round");
        let broadcast = root.broadcast();
        let frame = BroadcastFrame::new(Message::RoundStart {
            round: broadcast.round,
            global: broadcast,
        });
        for (edge, group) in edges.iter_mut().zip(groups) {
            let subset: Vec<usize> = group
                .iter()
                .copied()
                .filter(|id| participants.contains(id))
                .collect();
            edge.open_round(&frame, &subset).expect("open edge round");
        }
        for (member, agent_end) in &agent_ends {
            let Some(Message::RoundStart { global, .. }) = agent_end.recv().expect("client recv")
            else {
                panic!("member expected the relayed RoundStart");
            };
            agent_end
                .send(&Message::Update {
                    update: ModelUpdate {
                        client_id: *member,
                        round: global.round,
                        num_samples: 16,
                        parameters: global.parameters,
                    },
                    shielded: Vec::new(),
                })
                .expect("update");
        }
        for edge in &mut edges {
            let mut sweep = 0;
            while edge.pump(sweep).expect("edge pump").delivered {
                sweep += 1;
            }
            edge.close_and_forward().expect("close edge round");
        }
        for root_end in &uplink_root_ends {
            while let Some(message) = root_end.recv().expect("uplink recv") {
                let Message::AggregateUpdate { members, .. } = message else {
                    panic!("uplink must carry combined subtree frames");
                };
                for member in members {
                    let refused = root.deliver(&Message::Update {
                        update: member.update,
                        shielded: member.shielded,
                    });
                    assert!(refused.is_empty(), "member update unexpectedly refused");
                }
            }
        }
        root.close_round().expect("close root round");
    }
    let mut messages: usize = agent_ends.iter().map(|(_, end)| end.messages_sent()).sum();
    for edge in &edges {
        messages += edge.traffic().0;
    }
    messages += uplink_root_ends
        .iter()
        .map(|end| end.messages_sent())
        .sum::<usize>();
    let bits = root
        .parameters()
        .iter()
        .flat_map(|(_, t)| t.data().iter().map(|v| v.to_bits()))
        .collect();
    (messages, bits)
}

fn bench_hierarchical(iters: usize) -> HierarchicalRow {
    const ROUNDS: usize = 3;
    let groups = vec![vec![0usize, 1], vec![2, 3]];
    let parameters = export_parameters(&scaled_vit(13));

    let (messages, reference_bits) =
        hierarchical_round_trip(&parameters, &groups, ROUNDS, UpdateCodec::Raw);
    let (_, replay_bits) = hierarchical_round_trip(&parameters, &groups, ROUNDS, UpdateCodec::Raw);
    let determinism_param_diffs = param_bit_diffs(&reference_bits, &replay_bits);
    let elapsed = time_best(iters, || {
        std::hint::black_box(hierarchical_round_trip(
            &parameters,
            &groups,
            ROUNDS,
            UpdateCodec::Raw,
        ));
    });
    HierarchicalRow {
        clients: groups.iter().map(Vec::len).sum(),
        edges: groups.len(),
        rounds: ROUNDS,
        messages,
        msgs_per_s: messages as f64 / elapsed,
        determinism_param_diffs,
    }
}

struct PopulationRow {
    population: usize,
    rounds_per_s: f64,
    peak_rss_mb: f64,
    folded_mb: f64,
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
fn population_round(
    parameters: &[(String, Tensor)],
    population: usize,
    codec: UpdateCodec,
) -> (f64, f64, f64) {
    let mut server = FedAvgServer::new(parameters.to_vec());
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
/// A fourth row repeats the 100k round under [`UpdateCodec::Int8`] and
/// reports the update-frame wire MB that actually folds through per round
/// — the codec's answer to the ~418 MB raw payload wall.
fn bench_population() -> (Vec<PopulationRow>, f64) {
    let mut rng = ChaCha8Rng::seed_from_u64(37);
    // A ~1k-float synthetic model: the probe isolates the per-seat protocol
    // + fold cost, not model size.
    let parameters = vec![(
        "population.weights".to_string(),
        Tensor::rand_uniform(&[1024], -1.0, 1.0, &mut rng),
    )];
    let rows = [1_000usize, 10_000, 100_000]
        .into_iter()
        .map(|population| {
            reset_peak_rss();
            let (first, folded_mb, _) = population_round(&parameters, population, UpdateCodec::Raw);
            let (second, _, _) = population_round(&parameters, population, UpdateCodec::Raw);
            PopulationRow {
                population,
                rounds_per_s: 1.0 / first.min(second),
                peak_rss_mb: peak_rss_mb(),
                folded_mb,
            }
        })
        .collect();
    let (_, _, int8_wire_mb) = population_round(&parameters, 100_000, UpdateCodec::Int8);
    (rows, int8_wire_mb)
}

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

/// The churn/fault probe: a hierarchical soak federation under the scripted
/// chaos plan (drops, duplicates, corruption, reordering, partitions, a
/// seat crash and an edge crash-and-resync), timed end to end, then
/// replayed over the serialised transport — the replay must match the
/// reference bit for bit, counter for counter.
fn bench_fault_injection(iters: usize) -> FaultInjectionRow {
    const ROUNDS: usize = 12;
    const FAULT_SEED: u64 = 0x5EED_FA17;
    let topology = pelta_fl::Topology::hierarchical(vec![vec![0, 2, 4], vec![1, 3, 5]]);
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
    let determinism_param_diffs = reference.param_diffs(&replay)
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

struct SecureAggRow {
    clients: usize,
    rounds: usize,
    clear_msgs_per_s: f64,
    masked_msgs_per_s: f64,
    mask_share_bytes_per_round: f64,
    masked_raw_unseals: u64,
    determinism_param_diffs: usize,
}

/// The secure-aggregation probe: one small shielded federation with a
/// scripted mid-round dropout (so the `MaskShare` reconstruction sweep
/// always runs), first with pairwise masking off — the clear shielded
/// baseline whose blobs the root opens one by one — then with masking on,
/// where only the folded sum ever leaves the enclave. Reports masked vs
/// clear round throughput, the extra `MaskShare` wire bytes per round, the
/// root's individual-blob unseal count under masking (must be zero) and a
/// replay-determinism field folding four invariance checks: masked vs
/// clear bits, a repeat, the serialised transport, and the hierarchical
/// route — all required to match bit for bit.
fn bench_secure_agg(iters: usize) -> SecureAggRow {
    const ROUNDS: usize = 3;
    let star = pelta_fl::Topology::Star;
    let tree = pelta_fl::Topology::hierarchical(vec![vec![0, 2], vec![1, 3]]);

    let clear = run_secure_agg(&star, TransportKind::InMemory, ROUNDS, false);
    assert!(
        clear.raw_unseals > 0,
        "the clear shielded baseline must open member blobs individually"
    );
    let masked = run_secure_agg(&star, TransportKind::InMemory, ROUNDS, true);
    let repeat = run_secure_agg(&star, TransportKind::InMemory, ROUNDS, true);
    let serialized = run_secure_agg(&star, TransportKind::Serialized, ROUNDS, true);
    let hierarchical = run_secure_agg(&tree, TransportKind::InMemory, ROUNDS, true);
    let determinism_param_diffs = masked.param_diffs(&clear)
        + masked.param_diffs(&repeat)
        + masked.param_diffs(&serialized)
        + masked.param_diffs(&hierarchical);

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
        clear_msgs_per_s: clear.messages as f64 / clear_elapsed,
        masked_msgs_per_s: masked.messages as f64 / masked_elapsed,
        mask_share_bytes_per_round: masked.wire_bytes.saturating_sub(clear.wire_bytes) as f64
            / ROUNDS as f64,
        masked_raw_unseals: masked.raw_unseals,
        determinism_param_diffs,
    }
}

fn bench_federation(iters: usize) -> FederationRow {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 3;
    // Scaled-ViT-sized payloads: the same parameter schema the real
    // federation broadcasts and aggregates.
    let parameters = export_parameters(&scaled_vit(13));

    let outcome = federation_round_trip(
        TransportKind::InMemory,
        UpdateCodec::Raw,
        &parameters,
        CLIENTS,
        ROUNDS,
    );
    let in_memory = time_best(iters, || {
        std::hint::black_box(federation_round_trip(
            TransportKind::InMemory,
            UpdateCodec::Raw,
            &parameters,
            CLIENTS,
            ROUNDS,
        ));
    });
    let serialized = time_best(iters, || {
        std::hint::black_box(federation_round_trip(
            TransportKind::Serialized,
            UpdateCodec::Raw,
            &parameters,
            CLIENTS,
            ROUNDS,
        ));
    });
    FederationRow {
        clients: CLIENTS,
        rounds: ROUNDS,
        messages: outcome.messages,
        wire_bytes: outcome.wire_bytes,
        in_memory_msgs_per_s: outcome.messages as f64 / in_memory,
        serialized_msgs_per_s: outcome.messages as f64 / serialized,
        serialized_mb_per_s: outcome.wire_bytes as f64 / serialized / 1e6,
    }
}

struct WireCodecRow {
    name: &'static str,
    upload_bytes_per_round: f64,
    serialized_msgs_per_s: f64,
    serialized_mb_per_s: f64,
    determinism_param_diffs: usize,
}

/// The wire-codec probe: the 4-client federation round-trip once per
/// [`UpdateCodec`], over the serialised transport, reporting the
/// `Update`-frame bytes per round (the traffic the codec compresses —
/// broadcasts are shared control frames and stay raw), serialised
/// throughput, and a replay-determinism field that folds together four
/// invariance checks per codec: serialised vs in-memory transport, star vs
/// hierarchical topology, and `PELTA_THREADS` 1 vs 4.
fn bench_wire_codecs(iters: usize, threads: usize) -> Vec<WireCodecRow> {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 3;
    let parameters = export_parameters(&scaled_vit(13));
    let groups = vec![vec![0usize, 1], vec![2, 3]];
    let codecs: [(&'static str, UpdateCodec); 4] = [
        ("raw", UpdateCodec::Raw),
        ("bf16", UpdateCodec::Bf16),
        ("int8", UpdateCodec::Int8),
        ("topk", UpdateCodec::TopK { k: 64 }),
    ];
    codecs
        .into_iter()
        .map(|(name, codec)| {
            let reference = federation_round_trip(
                TransportKind::Serialized,
                codec,
                &parameters,
                CLIENTS,
                ROUNDS,
            );
            let in_memory =
                federation_round_trip(TransportKind::InMemory, codec, &parameters, CLIENTS, ROUNDS);
            let (_, tree_bits) = hierarchical_round_trip(&parameters, &groups, ROUNDS, codec);
            pool::set_global_threads(1);
            let one_thread =
                federation_round_trip(TransportKind::InMemory, codec, &parameters, CLIENTS, ROUNDS);
            pool::set_global_threads(4);
            let four_threads =
                federation_round_trip(TransportKind::InMemory, codec, &parameters, CLIENTS, ROUNDS);
            pool::set_global_threads(threads);
            let determinism_param_diffs =
                param_bit_diffs(&reference.param_bits, &in_memory.param_bits)
                    + param_bit_diffs(&reference.param_bits, &tree_bits)
                    + param_bit_diffs(&reference.param_bits, &one_thread.param_bits)
                    + param_bit_diffs(&reference.param_bits, &four_threads.param_bits);
            let elapsed = time_best(iters, || {
                std::hint::black_box(federation_round_trip(
                    TransportKind::Serialized,
                    codec,
                    &parameters,
                    CLIENTS,
                    ROUNDS,
                ));
            });
            WireCodecRow {
                name,
                upload_bytes_per_round: reference.upload_bytes as f64 / ROUNDS as f64,
                serialized_msgs_per_s: reference.messages as f64 / elapsed,
                serialized_mb_per_s: reference.wire_bytes as f64 / elapsed / 1e6,
                determinism_param_diffs,
            }
        })
        .collect::<Vec<_>>()
}

/// Extracts the first `"key": <number>` value from a JSON document — enough
/// structure awareness for the flat snapshot schemas this binary emits.
fn json_metric(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = doc.find(&needle)? + needle.len();
    let rest = doc[start..].trim_start();
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compares a fresh snapshot against its committed baseline: a
/// higher-is-better metric may not fall below `baseline * (1 - tolerance)`,
/// a lower-is-better metric may not rise above `baseline / (1 - tolerance)`.
/// Returns the regression descriptions (empty = gate passes). Metrics
/// missing from the baseline are skipped — a freshly introduced probe has no
/// history to regress against.
fn check_snapshot(
    label: &str,
    baseline: &str,
    fresh: &str,
    higher_better: &[&str],
    lower_better: &[&str],
    tolerance: f64,
) -> Vec<String> {
    let mut regressions = Vec::new();
    let mut compare = |key: &str, higher: bool| {
        let Some(base) = json_metric(baseline, key) else {
            eprintln!("perf-check: {label}.{key} has no baseline yet, skipping");
            return;
        };
        let Some(new) = json_metric(fresh, key) else {
            regressions.push(format!("{label}.{key}: missing from fresh snapshot"));
            return;
        };
        let ok = if higher {
            new >= base * (1.0 - tolerance)
        } else {
            new <= base / (1.0 - tolerance)
        };
        let verdict = if ok { "ok" } else { "REGRESSION" };
        eprintln!("perf-check: {label}.{key}: baseline {base:.3} -> fresh {new:.3} [{verdict}]");
        if !ok {
            regressions.push(format!(
                "{label}.{key} regressed beyond tolerance {tolerance}: {base:.3} -> {new:.3}"
            ));
        }
    };
    for key in higher_better {
        compare(key, true);
    }
    for key in lower_better {
        compare(key, false);
    }
    regressions
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let quick = check || args.iter().any(|a| a == "--quick");
    let tolerance = args
        .iter()
        .position(|a| a == "--tolerance")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.5);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_kernels.json")
        .to_string();
    let iters = if quick { 2 } else { 5 };
    let threads = pool::env_threads();

    let federation_path = if out_path == "BENCH_kernels.json" {
        "BENCH_federation.json".to_string()
    } else {
        format!("{out_path}.federation.json")
    };
    // In check mode the committed snapshots are the baselines; read them
    // before the fresh run overwrites the files.
    let baseline_kernels = check
        .then(|| std::fs::read_to_string(&out_path).ok())
        .flatten();
    let baseline_federation = check
        .then(|| std::fs::read_to_string(&federation_path).ok())
        .flatten();

    eprintln!("kernel perf snapshot: {iters} iters, {threads} threads (PELTA_THREADS)");
    let matmul = bench_matmul(iters, threads);
    let conv = bench_conv(iters, threads);
    let (train_1t, train_nt) = bench_train_step(iters.min(3), threads);
    let max_diff = determinism_probe(threads);
    pool::set_global_threads(threads);

    let json = format!(
        "{{\n  \"threads\": {threads},\n  \"quick\": {quick},\n  \
         \"matmul_256\": {{\n    \"naive_gflops\": {:.3},\n    \"kernel_gflops_1t\": {:.3},\n    \
         \"kernel_gflops_nt\": {:.3},\n    \"speedup_1t\": {:.2},\n    \"speedup_nt\": {:.2}\n  }},\n  \
         \"conv2d_resnet_block\": {{\n    \"naive_ms\": {:.3},\n    \"kernel_ms_1t\": {:.3},\n    \
         \"kernel_ms_nt\": {:.3},\n    \"speedup_1t\": {:.2},\n    \"speedup_nt\": {:.2}\n  }},\n  \
         \"vit_train_step_ms\": {{\n    \"threads_1\": {:.3},\n    \"threads_n\": {:.3}\n  }},\n  \
         \"determinism_max_abs_logit_diff\": {:e}\n}}\n",
        matmul.naive_gflops,
        matmul.kernel_gflops_1t,
        matmul.kernel_gflops_nt,
        matmul.kernel_gflops_1t / matmul.naive_gflops,
        matmul.kernel_gflops_nt / matmul.naive_gflops,
        conv.naive_ms,
        conv.kernel_ms_1t,
        conv.kernel_ms_nt,
        conv.naive_ms / conv.kernel_ms_1t,
        conv.naive_ms / conv.kernel_ms_nt,
        train_1t,
        train_nt,
        max_diff,
    );
    print!("{json}");
    std::fs::write(&out_path, &json).expect("write BENCH_kernels.json");
    eprintln!("wrote {out_path}");

    // Federation message-path throughput (honest + adversarial rounds) →
    // BENCH_federation.json (a sibling of the kernel snapshot, printed per
    // PR by CI).
    let federation = bench_federation(iters);
    let wire_codecs = bench_wire_codecs(iters, threads);
    let adversarial = bench_adversarial(iters);
    let krum = bench_krum(iters);
    let hierarchical = bench_hierarchical(iters);
    let fault_injection = bench_fault_injection(iters);
    let secure_agg = bench_secure_agg(iters);
    let (population, pop_100k_int8_mb) = bench_population();
    let population_block = population
        .iter()
        .map(|row| {
            let tag = match row.population {
                1_000 => "1k",
                10_000 => "10k",
                _ => "100k",
            };
            format!(
                "    \"pop_{tag}_rounds_per_s\": {:.2},\n    \
                 \"pop_{tag}_peak_rss_mb\": {:.1},\n    \
                 \"pop_{tag}_folded_mb\": {:.2}",
                row.rounds_per_s, row.peak_rss_mb, row.folded_mb
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
        + &format!(",\n    \"pop_100k_int8_folded_mb\": {pop_100k_int8_mb:.2}");
    let wire_codecs_block = wire_codecs
        .iter()
        .map(|row| {
            format!(
                "    \"{name}_upload_bytes_per_round\": {:.0},\n    \
                 \"{name}_serialized_msgs_per_s\": {:.1},\n    \
                 \"{name}_serialized_mb_per_s\": {:.2},\n    \
                 \"{name}_determinism_param_diffs\": {}",
                row.upload_bytes_per_round,
                row.serialized_msgs_per_s,
                row.serialized_mb_per_s,
                row.determinism_param_diffs,
                name = row.name,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let federation_json = format!(
        "{{\n  \"clients\": {},\n  \"rounds\": {},\n  \"protocol_messages\": {},\n  \
         \"wire_bytes\": {},\n  \"in_memory_msgs_per_s\": {:.1},\n  \
         \"serialized_msgs_per_s\": {:.1},\n  \"serialized_wire_mb_per_s\": {:.2},\n  \
         \"wire_codecs\": {{\n{wire_codecs_block}\n  }},\n  \
         \"adversarial_round\": {{\n    \"clients\": {},\n    \"adversaries\": {},\n    \
         \"rule\": \"trimmed_mean\",\n    \"spam_frames\": {},\n    \
         \"protocol_messages\": {},\n    \"adversarial_msgs_per_s\": {:.1},\n    \
         \"determinism_param_diffs\": {}\n  }},\n  \
         \"krum_round\": {{\n    \"clients\": {},\n    \"adversaries\": {},\n    \
         \"rule\": \"krum_f1\",\n    \"protocol_messages\": {},\n    \
         \"krum_msgs_per_s\": {:.1},\n    \
         \"krum_determinism_param_diffs\": {}\n  }},\n  \
         \"hierarchical_round\": {{\n    \"clients\": {},\n    \"edges\": {},\n    \
         \"rounds\": {},\n    \"protocol_messages\": {},\n    \
         \"hierarchical_msgs_per_s\": {:.1},\n    \
         \"hierarchical_determinism_param_diffs\": {}\n  }},\n  \
         \"fault_injection\": {{\n    \"clients\": {},\n    \"rounds\": {},\n    \
         \"fault_rounds_per_s\": {:.1},\n    \"dropped\": {},\n    \
         \"duplicated\": {},\n    \"corrupted\": {},\n    \
         \"retransmissions\": {},\n    \"recoveries\": {},\n    \
         \"fault_determinism_param_diffs\": {}\n  }},\n  \
         \"secure_agg\": {{\n    \"clients\": {},\n    \"rounds\": {},\n    \
         \"clear_shielded_msgs_per_s\": {:.1},\n    \
         \"masked_shielded_msgs_per_s\": {:.1},\n    \
         \"mask_share_bytes_per_round\": {:.0},\n    \
         \"masked_raw_unseals\": {},\n    \
         \"secure_agg_determinism_param_diffs\": {}\n  }},\n  \
         \"population_scale\": {{\n{population_block}\n  }}\n}}\n",
        federation.clients,
        federation.rounds,
        federation.messages,
        federation.wire_bytes,
        federation.in_memory_msgs_per_s,
        federation.serialized_msgs_per_s,
        federation.serialized_mb_per_s,
        adversarial.clients,
        adversarial.adversaries,
        adversarial.spam_frames,
        adversarial.messages,
        adversarial.msgs_per_s,
        adversarial.determinism_param_diffs,
        krum.clients,
        krum.adversaries,
        krum.messages,
        krum.msgs_per_s,
        krum.determinism_param_diffs,
        hierarchical.clients,
        hierarchical.edges,
        hierarchical.rounds,
        hierarchical.messages,
        hierarchical.msgs_per_s,
        hierarchical.determinism_param_diffs,
        fault_injection.clients,
        fault_injection.rounds,
        fault_injection.rounds_per_s,
        fault_injection.dropped,
        fault_injection.duplicated,
        fault_injection.corrupted,
        fault_injection.retransmissions,
        fault_injection.recoveries,
        fault_injection.determinism_param_diffs,
        secure_agg.clients,
        secure_agg.rounds,
        secure_agg.clear_msgs_per_s,
        secure_agg.masked_msgs_per_s,
        secure_agg.mask_share_bytes_per_round,
        secure_agg.masked_raw_unseals,
        secure_agg.determinism_param_diffs,
    );
    print!("{federation_json}");
    std::fs::write(&federation_path, &federation_json).expect("write BENCH_federation.json");
    eprintln!("wrote {federation_path}");

    assert_eq!(
        max_diff, 0.0,
        "determinism contract violated: 1-thread and {threads}-thread logits differ"
    );
    assert_eq!(
        adversarial.determinism_param_diffs, 0,
        "determinism contract violated: adversarial federation replay diverged"
    );
    assert_eq!(
        krum.determinism_param_diffs, 0,
        "determinism contract violated: Krum-round replay diverged"
    );
    assert_eq!(
        hierarchical.determinism_param_diffs, 0,
        "determinism contract violated: hierarchical two-hop replay diverged"
    );
    assert_eq!(
        fault_injection.determinism_param_diffs, 0,
        "determinism contract violated: faulted soak replay diverged"
    );
    assert_eq!(
        secure_agg.determinism_param_diffs, 0,
        "determinism contract violated: the masked shielded federation \
         diverged from the clear shielded bits, a repeat, the serialised \
         transport or the hierarchical route"
    );
    assert_eq!(
        secure_agg.masked_raw_unseals, 0,
        "secrecy contract violated: the root unsealed an individual member \
         blob under secure aggregation"
    );
    let raw_upload = wire_codecs
        .iter()
        .find(|row| row.name == "raw")
        .expect("the codec probe always includes raw")
        .upload_bytes_per_round;
    for row in &wire_codecs {
        assert_eq!(
            row.determinism_param_diffs, 0,
            "determinism contract violated: codec {} diverged across \
             transports, topologies or thread counts",
            row.name
        );
        if matches!(row.name, "int8" | "topk") {
            assert!(
                row.upload_bytes_per_round * 3.0 <= raw_upload,
                "codec {} must cut update bytes/round at least 3x vs raw \
                 ({:.0} vs {raw_upload:.0})",
                row.name,
                row.upload_bytes_per_round
            );
        }
    }

    // The CI perf-regression gate: diff the fresh snapshots against the
    // committed baselines read before this run.
    if check {
        let mut regressions = Vec::new();
        match &baseline_kernels {
            Some(baseline) => regressions.extend(check_snapshot(
                "kernels",
                baseline,
                &json,
                &["kernel_gflops_1t", "kernel_gflops_nt"],
                // `threads_1` is the ViT train step at one thread; its
                // `threads_n` twin is left out because it is the same
                // measurement on a one-thread host.
                &["kernel_ms_1t", "kernel_ms_nt", "threads_1"],
                tolerance,
            )),
            None => eprintln!("perf-check: no committed {out_path} baseline, skipping kernels"),
        }
        match &baseline_federation {
            Some(baseline) => regressions.extend(check_snapshot(
                "federation",
                baseline,
                &federation_json,
                &[
                    "in_memory_msgs_per_s",
                    "serialized_msgs_per_s",
                    "serialized_wire_mb_per_s",
                    "adversarial_msgs_per_s",
                    "krum_msgs_per_s",
                    "hierarchical_msgs_per_s",
                    "fault_rounds_per_s",
                    "clear_shielded_msgs_per_s",
                    "masked_shielded_msgs_per_s",
                    "pop_1k_rounds_per_s",
                    "pop_10k_rounds_per_s",
                    "pop_100k_rounds_per_s",
                ],
                // Peak RSS of the 100k-seat round is the O(population)
                // memory regression guard: a reintroduced full-population
                // update buffer blows far past the tolerance. Wire bytes
                // and the per-codec update bytes/round guard the frame
                // sizes: a codec regression that silently fattens frames
                // fails here even though throughput barely moves.
                &[
                    "pop_100k_peak_rss_mb",
                    "mask_share_bytes_per_round",
                    "wire_bytes",
                    "raw_upload_bytes_per_round",
                    "bf16_upload_bytes_per_round",
                    "int8_upload_bytes_per_round",
                    "topk_upload_bytes_per_round",
                    "pop_100k_int8_folded_mb",
                ],
                tolerance,
            )),
            None => eprintln!(
                "perf-check: no committed {federation_path} baseline, skipping federation"
            ),
        }
        if !regressions.is_empty() {
            eprintln!("perf-check FAILED:");
            for regression in &regressions {
                eprintln!("  {regression}");
            }
            std::process::exit(1);
        }
        eprintln!("perf-check passed (tolerance {tolerance})");
    }
}
