//! The traced pass: spans around calls into each layer, made from this
//! benchmark's own files.
//!
//! Spans inside the runtime do not exist yet, so the federated workloads
//! are broken down by **replaying one round** of their scenario here: the
//! same shards, models, links, edge aggregators, enclave channels and mask
//! contexts `Federation::from_scenario` builds, driven through the same
//! public calls `Federation::run` makes — broadcast, receive, import, train
//! steps, local evaluation, export, mask, seal, send, edge relay, unseal,
//! fold, masked fold, central evaluation — with a span around each call.
//! Clients step one after another, so layer self times plus the replay's
//! own glue (the `op` span's self time, reported as unattributed) add up to
//! the traced round. The runtime may overlap client work on the compute
//! pool; `trace.real_op_ms` is its untraced round for comparison.
//!
//! Encoding and decoding happen inside `Transport::send`/`recv` and the
//! edge aggregator. After each round the replay times `Message::encode_with`
//! and `Message::decode` on exactly the frames that crossed those calls and
//! subtracts them from the enclosing layer, which yields the transport's
//! and the edge relay's self times.
//!
//! The attack workload needs no replay: the timing [`ObservedOracle`] spans
//! every probe in place inside the real attack, and one extra probe is
//! decomposed into forward, backward and shield calls.

use std::collections::BTreeMap;
use std::time::Instant;

use pelta_autodiff::Graph;
use pelta_core::{apply_shield, build_shield_plan};
use pelta_data::federated_split;
use pelta_fl::{
    export_parameters, import_parameters, pair_seeds_for_client, split_segments,
    AggregatorMaskContext, BroadcastFrame, ClientMaskContext, EdgeAggregator, FedAvgServer,
    FlError, MemberUpdate, Message, ModelUpdate, ShieldedUpdateChannel, Topology, Transport,
    UpdateCodec,
};
use pelta_models::{accuracy, ImageModel};
use pelta_nn::Sgd;
use pelta_tee::{Enclave, EnclaveConfig, SealedBlob};
use pelta_tensor::{kernels::gemm::gemm, pool, SeedStream, Tensor};
use rand::Rng;

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{attack_op, fl_op, AttackPlan, FlPlan, Scale, Workload};

type Params = Vec<(String, Tensor)>;

/// Where an encode or decode ran during the round.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Inside {
    Transport,
    EdgeRelay,
}

/// A frame whose encoding and decodings ran inside transport or
/// edge-relay calls during the round.
struct CodecWork {
    message: Message,
    /// Where it was encoded; `None` when the round already timed that
    /// encode in its own span (the broadcast).
    encoded_in: Option<Inside>,
    decoded_in: Inside,
    /// How many receivers decoded it.
    decodes: usize,
}

/// Counts a replayed round produced.
#[derive(Default)]
struct RoundCounts {
    messages: usize,
    sealed_bytes: usize,
    update_frame_bytes: usize,
    train_steps: usize,
}

struct ReplayClient {
    id: usize,
    model: Box<dyn ImageModel>,
    images: Tensor,
    labels: Vec<usize>,
    link: Box<dyn Transport>,
    shield: Option<ShieldedUpdateChannel>,
    mask: Option<ClientMaskContext>,
}

enum Fabric {
    Star {
        links: Vec<Box<dyn Transport>>,
    },
    Tree {
        edges: Vec<EdgeAggregator>,
        uplinks: Vec<Box<dyn Transport>>,
    },
}

/// One federated workload's population, rebuilt from its plan the way
/// `Federation::from_scenario` builds it.
struct Replay<'p> {
    plan: &'p FlPlan,
    server: FedAvgServer,
    server_shield: Option<ShieldedUpdateChannel>,
    masks: Option<AggregatorMaskContext>,
    clients: Vec<ReplayClient>,
    fabric: Fabric,
    eval_model: Box<dyn ImageModel>,
    seeds: SeedStream,
}

fn fl_error(context: &str) -> impl Fn(FlError) -> String + '_ {
    move |e| format!("{context}: {e}")
}

impl<'p> Replay<'p> {
    fn new(plan: &'p FlPlan, seed: u64) -> Result<Self, String> {
        let config = &plan.spec.federation;
        let mut seeds = SeedStream::new(seed);
        let shards = federated_split(
            &plan.dataset,
            config.clients,
            plan.spec.partition,
            &mut seeds.derive("partition"),
        );
        let eval_model = plan.model(&mut seeds.derive_indexed("model", u64::MAX));
        let mut server = FedAvgServer::with_rule(
            export_parameters(eval_model.as_ref()),
            config.policy,
            config.rule,
        )
        .map_err(fl_error("server"))?;
        let connect = |index: u64| {
            let nonce = seeds.derive_indexed("attest", index).gen::<u64>();
            ShieldedUpdateChannel::connect(nonce).map_err(fl_error("enclave channel"))
        };
        let server_shield = config
            .shield_updates
            .then(|| connect(u64::MAX))
            .transpose()?;
        let nonces: BTreeMap<usize, u64> = (0..config.clients)
            .map(|id| (id, seeds.derive_indexed("attest", id as u64).gen::<u64>()))
            .collect();
        let measurement = server_shield
            .as_ref()
            .map(ShieldedUpdateChannel::measurement);
        let masks = measurement
            .filter(|_| config.secure_aggregation)
            .map(|m| AggregatorMaskContext::new(m, nonces.clone()));

        let mut clients = Vec::with_capacity(config.clients);
        let mut runtime_ends = Vec::with_capacity(config.clients);
        for (id, shard) in shards.into_iter().enumerate() {
            let (client_end, runtime_end) = config.transport.duplex_with(config.codec);
            let shield = config
                .shield_updates
                .then(|| connect(id as u64))
                .transpose()?;
            let mask = masks.as_ref().map(|_| {
                ClientMaskContext::new(
                    id,
                    pair_seeds_for_client(
                        measurement.expect("masking implies a shield"),
                        &nonces,
                        id,
                    ),
                )
            });
            client_end
                .send(&Message::Join { client_id: id })
                .map_err(fl_error("join"))?;
            clients.push(ReplayClient {
                id,
                model: plan.model(&mut seeds.derive_indexed("model", id as u64)),
                images: shard.dataset.train_images().clone(),
                labels: shard.dataset.train_labels().to_vec(),
                link: client_end,
                shield,
                mask,
            });
            runtime_ends.push(Some(runtime_end));
        }
        let fabric = match &config.topology {
            Topology::Hierarchical {
                groups,
                edge_policy,
            } => {
                let mut edges = Vec::new();
                let mut uplinks = Vec::new();
                for (edge_id, group) in groups.iter().enumerate() {
                    let (edge_end, root_end) = config.transport.duplex_with(config.codec);
                    let mut edge = EdgeAggregator::new(edge_id, *edge_policy, edge_end)
                        .map_err(fl_error("edge"))?;
                    for &member in group {
                        let link = runtime_ends[member]
                            .take()
                            .ok_or_else(|| format!("client {member} is in two edge groups"))?;
                        edge.attach_member(member, link, 0);
                    }
                    edge.pump_idle().map_err(fl_error("edge join"))?;
                    while let Some(join) = root_end.recv().map_err(fl_error("join"))? {
                        server.deliver(&join);
                    }
                    edges.push(edge);
                    uplinks.push(root_end);
                }
                Fabric::Tree { edges, uplinks }
            }
            _ => {
                let links: Vec<Box<dyn Transport>> = runtime_ends.into_iter().flatten().collect();
                for link in &links {
                    while let Some(join) = link.recv().map_err(fl_error("join"))? {
                        server.deliver(&join);
                    }
                }
                Fabric::Star { links }
            }
        };
        Ok(Replay {
            plan,
            server,
            server_shield,
            masks,
            clients,
            fabric,
            eval_model,
            seeds,
        })
    }

    /// Messages sent so far over every link end the replay can see,
    /// edge aggregators included.
    fn traffic(&self) -> usize {
        let clients: usize = self.clients.iter().map(|c| c.link.messages_sent()).sum();
        clients
            + match &self.fabric {
                Fabric::Star { links } => links.iter().map(|l| l.messages_sent()).sum::<usize>(),
                Fabric::Tree { edges, uplinks } => {
                    uplinks.iter().map(|l| l.messages_sent()).sum::<usize>()
                        + edges.iter().map(|e| e.traffic().0).sum::<usize>()
                }
            }
    }

    /// Delivers one update at the root: opened through the enclave on the
    /// clear shielded path, stashed with zero placeholders under secure
    /// aggregation (the runtime's reassembly), then folded.
    fn deliver(
        &mut self,
        update: ModelUpdate,
        shielded: Vec<SealedBlob>,
        stash: &mut BTreeMap<usize, (usize, Vec<SealedBlob>)>,
        tracer: &Tracer,
    ) -> Result<(), String> {
        let current = self.server.parameters();
        let update = if shielded.is_empty() {
            update
        } else if self.masks.is_some() {
            let parameters = current
                .iter()
                .map(
                    |(name, reference)| match update.parameters.iter().find(|(n, _)| n == name) {
                        Some(pair) => pair.clone(),
                        None => (name.clone(), Tensor::zeros(reference.dims())),
                    },
                )
                .collect();
            stash.insert(update.client_id, (update.num_samples, shielded));
            ModelUpdate {
                parameters,
                ..update
            }
        } else {
            let shield = self
                .server_shield
                .as_ref()
                .ok_or("sealed segments without a server enclave")?;
            let (opened, _) = tracer
                .time("tee.unseal", || shield.open_segments(&shielded))
                .map_err(fl_error("unseal"))?;
            let parameters = current
                .iter()
                .map(|(name, _)| {
                    update
                        .parameters
                        .iter()
                        .chain(opened.iter())
                        .find(|(n, _)| n == name)
                        .cloned()
                        .ok_or_else(|| format!("update lacks parameter {name}"))
                })
                .collect::<Result<Params, String>>()?;
            ModelUpdate {
                parameters,
                ..update
            }
        };
        let refused = tracer.time("fl.server_fold", || {
            self.server.deliver(&Message::Update {
                update,
                shielded: Vec::new(),
            })
        });
        if refused.is_empty() {
            Ok(())
        } else {
            Err(format!("root refused an update: {refused:?}"))
        }
    }

    /// One local round of client `index`: receive the broadcast, import,
    /// train, evaluate, export, mask, seal, send. Returns the update sent.
    fn client_round(
        &mut self,
        index: usize,
        counts: &mut RoundCounts,
        tracer: &Tracer,
    ) -> Result<Message, String> {
        let training = self.plan.spec.federation.local_training.clone();
        let codec = self.plan.spec.federation.codec;
        let client = &mut self.clients[index];
        let received = tracer
            .time("fl.transport", || client.link.recv())
            .map_err(fl_error("broadcast recv"))?;
        let Some(Message::RoundStart { round, global }) = received else {
            return Err(format!("client {} expected a RoundStart", client.id));
        };
        tracer
            .time("fl.import_export", || {
                import_parameters(client.model.as_mut(), &global.parameters)
            })
            .map_err(fl_error("import"))?;
        client.model.set_training(true);
        let mut sgd = Sgd::new(training.learning_rate, training.momentum);
        let n = client.labels.len();
        let mut start = 0;
        while start < n {
            let len = training.batch_size.min(n - start);
            let batch = client
                .images
                .narrow(0, start, len)
                .map_err(|e| e.to_string())?;
            let labels = &client.labels[start..start + len];
            let _step = tracer.span("models.train_step");
            let (graph, loss) = tracer
                .time("models.forward", || -> pelta_nn::Result<_> {
                    let mut graph = Graph::new();
                    let input = graph.input(batch, "input");
                    let logits = client.model.forward(&mut graph, input)?;
                    let loss = graph.cross_entropy(logits, labels)?;
                    Ok((graph, loss))
                })
                .map_err(|e| e.to_string())?;
            let grads = tracer
                .time("autodiff.backward", || graph.backward(loss))
                .map_err(|e| e.to_string())?;
            tracer
                .time("nn.sgd", || {
                    sgd.step(&mut client.model.parameters_mut(), &graph, &grads)
                })
                .map_err(|e| e.to_string())?;
            counts.train_steps += 1;
            start += len;
        }
        client.model.set_training(false);
        tracer
            .time("models.local_eval", || {
                accuracy(client.model.as_ref(), &client.images, &client.labels)
            })
            .map_err(|e| e.to_string())?;
        let parameters = tracer.time("fl.import_export", || {
            export_parameters(client.model.as_ref())
        });
        let update = |parameters: Params| ModelUpdate {
            client_id: client.id,
            round,
            num_samples: n,
            parameters,
        };
        let message = match &client.shield {
            None => Message::Update {
                update: update(parameters),
                shielded: Vec::new(),
            },
            Some(shield) => {
                let (mut segment, clear) = tracer.time("fl.import_export", || {
                    split_segments(client.model.as_ref(), parameters)
                });
                if let Some(mask) = &client.mask {
                    tracer.time("fl.mask", || mask.mask_segment(round, &mut segment));
                }
                let (blobs, report) = tracer
                    .time("tee.seal", || shield.seal_segments(&segment))
                    .map_err(fl_error("seal"))?;
                counts.sealed_bytes += report.sealed_bytes;
                Message::Update {
                    update: update(clear),
                    shielded: blobs,
                }
            }
        };
        if counts.update_frame_bytes == 0 {
            counts.update_frame_bytes = message.wire_size_with(codec);
        }
        tracer
            .time("fl.transport", || client.link.send(&message))
            .map_err(fl_error("update send"))?;
        Ok(message)
    }

    /// Replays one full round under the `op` span and returns its wall
    /// time, its counts, and the frames whose codec work ran inside
    /// transport and edge-relay calls (assembled after the round closes).
    fn round(&mut self, tracer: &Tracer) -> Result<(f64, RoundCounts, Vec<CodecWork>), String> {
        let messages_before = self.traffic();
        let mut counts = RoundCounts::default();
        let mut sent = Vec::with_capacity(self.clients.len());
        let mut stash = BTreeMap::new();
        let began = Instant::now();
        let op = tracer.span("op");
        let mut rng = self.seeds.derive_indexed("participants", 0);
        let participants = tracer
            .time("fl.server_fold", || self.server.begin_round(&mut rng))
            .map_err(fl_error("begin round"))?;
        let (broadcast, frame) = tracer.time("fl.broadcast_encode", || {
            let broadcast = self.server.broadcast();
            let frame = BroadcastFrame::new(Message::RoundStart {
                round: broadcast.round,
                global: broadcast.clone(),
            });
            frame.encoded();
            (broadcast, frame)
        });
        match &mut self.fabric {
            Fabric::Star { links } => {
                for &id in &participants {
                    tracer
                        .time("fl.transport", || links[id].send_broadcast(&frame))
                        .map_err(fl_error("broadcast"))?;
                }
            }
            Fabric::Tree { edges, .. } => {
                for edge in edges.iter_mut() {
                    let subset: Vec<usize> = participants
                        .iter()
                        .copied()
                        .filter(|&id| edge.contains(id))
                        .collect();
                    tracer
                        .time("fl.edge_relay", || edge.open_round(&frame, &subset))
                        .map_err(fl_error("edge open"))?;
                }
            }
        }
        for index in 0..self.clients.len() {
            sent.push(self.client_round(index, &mut counts, tracer)?);
        }
        let mut arrivals = Vec::new();
        match &mut self.fabric {
            Fabric::Star { links } => {
                for &id in &participants {
                    let message = tracer
                        .time("fl.transport", || links[id].recv())
                        .map_err(fl_error("update recv"))?
                        .ok_or_else(|| format!("no update from client {id}"))?;
                    arrivals.push(message);
                }
            }
            Fabric::Tree { edges, uplinks } => {
                for (edge, uplink) in edges.iter_mut().zip(uplinks.iter()) {
                    tracer
                        .time("fl.edge_relay", || -> pelta_fl::Result<()> {
                            let mut sweep = 0;
                            while edge.pump(sweep)?.delivered {
                                sweep += 1;
                            }
                            edge.close_and_forward()?;
                            Ok(())
                        })
                        .map_err(fl_error("edge relay"))?;
                    let combined = tracer
                        .time("fl.transport", || uplink.recv())
                        .map_err(fl_error("uplink recv"))?
                        .ok_or("an edge forwarded nothing")?;
                    arrivals.push(combined);
                }
            }
        }
        for message in arrivals {
            match message {
                Message::Update { update, shielded } => {
                    self.deliver(update, shielded, &mut stash, tracer)?
                }
                Message::AggregateUpdate { members, .. } => {
                    for member in members {
                        self.deliver(member.update, member.shielded, &mut stash, tracer)?;
                    }
                }
                other => return Err(format!("root received {}", other.kind())),
            }
        }
        let summary = tracer
            .time("fl.server_fold", || self.server.close_round())
            .map_err(fl_error("close round"))?;
        if let (Some(masks), Some(shield)) = (&self.masks, &self.server_shield) {
            let (reference, _) = split_segments(self.eval_model.as_ref(), broadcast.parameters);
            let (folded, _) = tracer
                .time("tee.masked_fold", || {
                    shield.fold_masked_segments(
                        &reference,
                        summary.round,
                        &stash,
                        masks,
                        &[],
                        &BTreeMap::new(),
                    )
                })
                .map_err(fl_error("masked fold"))?;
            tracer
                .time("fl.server_fold", || self.server.splice_parameters(&folded))
                .map_err(fl_error("splice"))?;
        }
        let end = Message::RoundEnd {
            round: summary.round,
        };
        match &mut self.fabric {
            Fabric::Star { links } => {
                for &id in &summary.participants {
                    tracer
                        .time("fl.transport", || links[id].send(&end))
                        .map_err(fl_error("round end"))?;
                }
            }
            Fabric::Tree { edges, uplinks } => {
                for (edge, uplink) in edges.iter_mut().zip(uplinks.iter()) {
                    tracer
                        .time("fl.transport", || uplink.send(&end))
                        .map_err(fl_error("round end"))?;
                    tracer
                        .time("fl.edge_relay", || edge.pump_downstream())
                        .map_err(fl_error("round end relay"))?;
                }
            }
        }
        for client in &self.clients {
            tracer
                .time("fl.transport", || client.link.recv())
                .map_err(fl_error("round end recv"))?;
        }
        tracer
            .time("fl.import_export", || {
                import_parameters(self.eval_model.as_mut(), self.server.parameters())
            })
            .map_err(fl_error("import"))?;
        tracer
            .time("models.central_eval", || {
                let eval = self
                    .plan
                    .dataset
                    .test_subset(self.plan.spec.federation.eval_samples);
                accuracy(self.eval_model.as_ref(), &eval.images, &eval.labels)
            })
            .map_err(|e| e.to_string())?;
        drop(op);
        let op_s = began.elapsed().as_secs_f64();

        counts.messages = self.traffic() - messages_before;
        let mut work = vec![CodecWork {
            message: frame.message().clone(),
            encoded_in: None,
            decoded_in: Inside::Transport,
            decodes: participants.len(),
        }];
        let update_decoded_in = match &self.fabric {
            Fabric::Star { .. } => Inside::Transport,
            Fabric::Tree { edges, .. } => {
                // The edge re-encodes its members into one combined frame
                // and the root decodes it.
                for edge in edges {
                    let members = sent
                        .iter()
                        .filter_map(|message| match message {
                            Message::Update { update, shielded }
                                if edge.contains(update.client_id) =>
                            {
                                Some(MemberUpdate {
                                    update: update.clone(),
                                    shielded: shielded.clone(),
                                })
                            }
                            _ => None,
                        })
                        .collect();
                    work.push(CodecWork {
                        message: Message::AggregateUpdate {
                            origin: edge.edge_id(),
                            round: summary.round,
                            members,
                        },
                        encoded_in: Some(Inside::EdgeRelay),
                        decoded_in: Inside::Transport,
                        decodes: 1,
                    });
                }
                Inside::EdgeRelay
            }
        };
        work.extend(sent.into_iter().map(|message| CodecWork {
            message,
            encoded_in: Some(Inside::Transport),
            decoded_in: update_decoded_in,
            decodes: 1,
        }));
        Ok((op_s, counts, work))
    }
}

fn codec_span(inside: Inside, encode: bool) -> &'static str {
    match (inside, encode) {
        (Inside::Transport, true) => "codec.transport.encode",
        (Inside::Transport, false) => "codec.transport.decode",
        (Inside::EdgeRelay, true) => "codec.edge.encode",
        (Inside::EdgeRelay, false) => "codec.edge.decode",
    }
}

/// Times the codec work that ran inside transport and edge-relay calls, on
/// the same frames, under `codec.*` spans outside the round. Encoding goes
/// through a reused scratch buffer plus one exact-size copy, as the
/// serialized transport's send does.
fn time_codec(work: &[CodecWork], codec: UpdateCodec, tracer: &Tracer) -> Result<(), String> {
    let mut scratch = Vec::new();
    for item in work {
        let mut encode = || {
            item.message.encode_into(codec, &mut scratch);
            scratch.to_vec()
        };
        let bytes = match item.encoded_in {
            Some(inside) => tracer.time(codec_span(inside, true), encode),
            None => encode(),
        };
        for _ in 0..item.decodes {
            tracer
                .time(codec_span(item.decoded_in, false), || {
                    Message::decode(&bytes)
                })
                .map_err(fl_error("decode"))?;
        }
    }
    Ok(())
}

/// GFLOP/s of the largest GEMM in one scaled-ViT train step at batch 16:
/// the MLP projection, `[16·65, 32] × [32, 64]`.
pub fn gemm_gflops() -> f64 {
    let (m, k, n) = (16 * 65, 32, 64);
    let a: Vec<f32> = (0..m * k).map(|i| (i % 7) as f32 * 0.1).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32 * 0.1).collect();
    let mut out = vec![0.0f32; m * n];
    let pool = pool::global();
    let start = Instant::now();
    let mut calls = 0u64;
    while calls < 16 || start.elapsed().as_secs_f64() < 0.05 {
        gemm(&pool, false, &a, false, &b, m, k, n, &mut out, false);
        std::hint::black_box(&mut out);
        calls += 1;
    }
    2.0 * (m * k * n) as f64 * calls as f64 / start.elapsed().as_secs_f64() / 1e9
}

/// Median duration in milliseconds of the spans named `name`; 0 when the
/// pass never entered that layer.
fn median_ms(tracer: &Tracer, name: &str) -> f64 {
    let durations = tracer.durations_ms(name);
    if durations.is_empty() {
        0.0
    } else {
        median(&durations)
    }
}

/// What a traced pass measured.
pub struct LayerTrace {
    /// Per-layer metrics by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Failures met, one line each.
    pub failures: Vec<String>,
    /// Iterations run.
    pub ops: usize,
    /// Iterations that met at least one failure.
    pub failed: usize,
}

/// Runs the federated traced pass for `seconds`: each iteration times one
/// real round untraced, one replayed round untraced and one traced.
pub fn trace_fl(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
) -> LayerTrace {
    let plan = FlPlan::new(workload, scale, seed);
    let codec = plan.spec.federation.codec;
    let untraced = Tracer::new(false);
    let mut failures = Vec::new();
    let mut real_ms = Vec::new();
    let mut replay_ms = Vec::new();
    let mut counts = RoundCounts::default();
    let mut wire_bytes_per_round = f64::NAN;
    let (mut ops, mut failed) = (0, 0);
    let start = Instant::now();
    while ops == 0 || start.elapsed().as_secs_f64() < seconds {
        let failures_before = failures.len();
        let real = fl_op(workload, scale, seed);
        failures.extend(real.failures);
        real_ms.push(real.latency_s * 1e3);
        wire_bytes_per_round = real.wire_bytes_per_round.unwrap_or(f64::NAN);

        let replayed = Replay::new(&plan, seed).and_then(|mut replay| {
            let (op_s, _, _) = replay.round(&untraced)?;
            replay_ms.push(op_s * 1e3);
            Ok(())
        });
        let traced = Replay::new(&plan, seed).and_then(|mut replay| {
            tracer.set_op(ops);
            let (_, round_counts, work) = replay.round(tracer)?;
            time_codec(&work, codec, tracer)?;
            counts = round_counts;
            Ok(())
        });
        failures.extend(replayed.err());
        failures.extend(traced.err());
        failed += usize::from(failures.len() > failures_before);
        ops += 1;
    }

    let self_ms = tracer.self_ms_by_name();
    let per_op = |name: &str| self_ms.get(name).copied().unwrap_or(0.0) / ops as f64;
    let codec_in = |inside: &str| {
        per_op(&format!("codec.{inside}.encode")) + per_op(&format!("codec.{inside}.decode"))
    };
    let traced_op = median_ms(tracer, "op");
    let untraced_op = median(&replay_ms);
    let metrics = vec![
        (
            "models.train_step_ms",
            median_ms(tracer, "models.train_step"),
        ),
        ("models.forward_ms", median_ms(tracer, "models.forward")),
        (
            "autodiff.backward_ms",
            median_ms(tracer, "autodiff.backward"),
        ),
        ("nn.sgd_ms", median_ms(tracer, "nn.sgd")),
        ("models.train_steps_per_round", counts.train_steps as f64),
        ("models.local_eval_ms", per_op("models.local_eval")),
        ("models.central_eval_ms", per_op("models.central_eval")),
        ("fl.import_export_ms", per_op("fl.import_export")),
        (
            "fl.encode_ms",
            per_op("codec.transport.encode") + per_op("codec.edge.encode"),
        ),
        (
            "fl.decode_ms",
            per_op("codec.transport.decode") + per_op("codec.edge.decode"),
        ),
        ("fl.broadcast_encode_ms", per_op("fl.broadcast_encode")),
        ("fl.update_frame_bytes", counts.update_frame_bytes as f64),
        ("fl.messages_per_round", counts.messages as f64),
        ("fl.wire_bytes_per_round", wire_bytes_per_round),
        (
            "fl.transport_ms",
            per_op("fl.transport") - codec_in("transport"),
        ),
        (
            "fl.edge_relay_ms",
            per_op("fl.edge_relay") - codec_in("edge"),
        ),
        ("fl.server_fold_ms", per_op("fl.server_fold")),
        ("tee.seal_ms", per_op("tee.seal")),
        ("tee.unseal_ms", per_op("tee.unseal")),
        ("fl.mask_ms", per_op("fl.mask")),
        ("tee.masked_fold_ms", per_op("tee.masked_fold")),
        ("tee.sealed_bytes_per_round", counts.sealed_bytes as f64),
        ("trace.op_ms", traced_op),
        ("trace.real_op_ms", median(&real_ms)),
        ("trace.unattributed_ms", per_op("op")),
        ("trace.overhead_frac", traced_op / untraced_op - 1.0),
    ];
    LayerTrace {
        metrics,
        failures,
        ops,
        failed,
    }
}

/// Decomposes one shielded probe into the calls `ShieldedWhiteBox::probe`
/// makes — forward with loss, backward, shield plan and application — each
/// under its own span, with a private enclave.
fn decompose_probe(
    plan: &AttackPlan,
    enclave: &Enclave,
    pass: u64,
    tracer: &Tracer,
) -> Result<(), String> {
    let _replay = tracer.span("probe_replay");
    let model = plan.model.as_ref();
    let (graph, loss) = tracer
        .time("models.forward", || -> pelta_nn::Result<_> {
            let mut graph = Graph::new();
            let input = graph.input(plan.images.clone(), "input");
            let logits = model.forward(&mut graph, input)?;
            let loss = graph.cross_entropy(logits, &plan.labels)?;
            Ok((graph, loss))
        })
        .map_err(|e| e.to_string())?;
    let mut grads = tracer
        .time("autodiff.backward", || graph.backward(loss))
        .map_err(|e| e.to_string())?;
    tracer
        .time("core.shield", || -> pelta_core::Result<_> {
            let shield = build_shield_plan(&graph, &[model.frontier_tag()])?;
            apply_shield(&graph, &shield, &mut grads, enclave, pass)
        })
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// Runs the attack traced pass for `seconds`: each iteration times one real
/// attack pair untraced, the same pair untraced on a kept plan, the pair
/// traced (probes timed in place), and one decomposed probe.
pub fn trace_attack(scale: Scale, seed: u64, seconds: f64, tracer: &Tracer) -> LayerTrace {
    let untraced = Tracer::new(false);
    let mut failures = Vec::new();
    let plan = match AttackPlan::new(scale, seed) {
        Ok(plan) => plan,
        Err(e) => {
            return LayerTrace {
                metrics: Vec::new(),
                failures: vec![format!("attack set-up failed: {e}")],
                ops: 1,
                failed: 1,
            }
        }
    };
    let enclave = Enclave::new(EnclaveConfig::trustzone_default());
    let mut real_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let (mut probes, mut switches, mut channel, mut enclave_bytes) = (0usize, 0u64, 0u64, 0usize);
    let (mut ops, mut failed) = (0, 0);
    let start = Instant::now();
    while ops == 0 || start.elapsed().as_secs_f64() < seconds {
        let failures_before = failures.len();
        let shielded_first = ops % 2 == 1;
        let real = attack_op(scale, seed, ops, &untraced);
        failures.extend(real.failures);
        real_ms.push(real.latency_s * 1e3);

        let begin = Instant::now();
        failures.extend(plan.attack(shielded_first, &untraced).err());
        untraced_ms.push(begin.elapsed().as_secs_f64() * 1e3);

        tracer.set_op(ops);
        let traced = tracer.time("op", || plan.attack(shielded_first, tracer));
        match traced {
            Ok(run) => {
                let seen = &run[1].1;
                probes += seen.probes;
                switches += seen.world_switches;
                channel += seen.channel_bytes;
                enclave_bytes += seen.enclave_bytes;
            }
            Err(e) => failures.push(e),
        }
        failures.extend(decompose_probe(&plan, &enclave, ops as u64, tracer).err());
        failed += usize::from(failures.len() > failures_before);
        ops += 1;
    }

    let self_ms = tracer.self_ms_by_name();
    let per_op = |name: &str| self_ms.get(name).copied().unwrap_or(0.0) / ops as f64;
    let probe_count = probes.max(1) as f64;
    let traced_op = median_ms(tracer, "op");
    let metrics = vec![
        ("models.forward_ms", median_ms(tracer, "models.forward")),
        (
            "autodiff.backward_ms",
            median_ms(tracer, "autodiff.backward"),
        ),
        ("core.probe_ms.clear", median_ms(tracer, "core.probe.clear")),
        (
            "core.probe_ms.shielded",
            median_ms(tracer, "core.probe.shielded"),
        ),
        ("core.shield_ms", median_ms(tracer, "core.shield")),
        ("core.logits_ms", median_ms(tracer, "core.logits")),
        (
            "attacks.self_ms_per_step",
            per_op("attack.pgd") / (2 * plan.steps) as f64,
        ),
        (
            "tee.world_switches_per_probe",
            switches as f64 / probe_count,
        ),
        ("tee.channel_bytes_per_probe", channel as f64 / probe_count),
        (
            "core.enclave_bytes_per_probe",
            enclave_bytes as f64 / probe_count,
        ),
        ("trace.op_ms", traced_op),
        ("trace.real_op_ms", median(&real_ms)),
        ("trace.unattributed_ms", per_op("op")),
        (
            "trace.overhead_frac",
            traced_op / median(&untraced_ms) - 1.0,
        ),
    ];
    LayerTrace {
        metrics,
        failures,
        ops,
        failed,
    }
}
