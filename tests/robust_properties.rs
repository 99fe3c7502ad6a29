//! Property tests of the in-protocol robust aggregation path: for every
//! rule, the aggregate is **bit-identical**
//!
//! * across `PELTA_THREADS = 1` and `4` (the rules ride the deterministic
//!   kernel backend),
//! * across the in-memory and the serialised transport (the wire encoding
//!   is bitwise lossless and the state machine is transport-agnostic),
//! * under client-id permutations of the same update set (aggregation
//!   canonicalises the fold order by client id before any float touches an
//!   accumulator), and
//! * between the message-driven `FedAvgServer` state machine and the
//!   call-level `aggregate_with_rule` — the two drivers of the one
//!   `AggregationFold`, and
//! * under **hierarchical routing**: any partition of the client population
//!   into edge-aggregator subtrees — and any permutation of that partition
//!   — forwards the same member granularity, so NormClipping/TrimmedMean
//!   fold the same full-population statistics and produce the same bits as
//!   the flat aggregation.
//!
//! The file closes with the adversarial half of the topology acceptance
//! (the 1-backdoor-vs-4-honest matrix holds when the backdoor sits under
//! an edge aggregator) and the secure-aggregation mask-cancellation
//! properties: pairwise masks cancel exactly in the mod-2³² lattice sum
//! over any full roster, and over any dropout subset once the survivors'
//! verified reconstruction shares land (see `docs/determinism.md`).

use proptest::prelude::*;

use pelta_data::{Dataset, DatasetSpec, GeneratorConfig};
use pelta_fl::{
    aggregate_with_rule, backdoor_success_rate, pair_seeds_for_client, AgentRole, AggregationRule,
    AggregatorMaskContext, BroadcastFrame, ClientMaskContext, Delivery, EdgeAggregator,
    FaultConfig, FaultPlan, FedAvgServer, Federation, FederationConfig, FlError, Message,
    ModelUpdate, NackReason, ParticipationPolicy, ScenarioSpec, Topology, Transport, TransportKind,
    TrojanTrigger, UpdateCodec,
};
use pelta_models::{accuracy, TrainingConfig};
use pelta_tensor::{pool, SeedStream, Tensor};

/// The five rules under test, parameterised off two proptest draws. The
/// properties draw as few as three clients, so the Krum family must satisfy
/// `n >= max(2f + 3, m + f + 2)` at n = 3 — hence `f: 0` and `m: 1`.
fn rules(max_norm: f32, trim: usize) -> [AggregationRule; 5] {
    [
        AggregationRule::FedAvg,
        AggregationRule::NormClipping { max_norm },
        AggregationRule::TrimmedMean { trim },
        AggregationRule::Krum { f: 0 },
        AggregationRule::MultiKrum { f: 0, m: 1 },
    ]
}

/// Two named parameter tensors per client, derived from the drawn values.
fn updates_from(values: &[Vec<f32>]) -> Vec<ModelUpdate> {
    values
        .iter()
        .enumerate()
        .map(|(id, row)| {
            let split = row.len() / 2;
            ModelUpdate {
                client_id: id,
                round: 0,
                num_samples: 5 + id,
                parameters: vec![
                    (
                        "prefix.w".to_string(),
                        Tensor::from_vec(row[..split].to_vec(), &[split]).unwrap(),
                    ),
                    (
                        "suffix.w".to_string(),
                        Tensor::from_vec(row[split..].to_vec(), &[row.len() - split]).unwrap(),
                    ),
                ],
            }
        })
        .collect()
}

fn initial_for(updates: &[ModelUpdate]) -> Vec<(String, Tensor)> {
    updates[0]
        .parameters
        .iter()
        .map(|(name, tensor)| (name.clone(), Tensor::zeros(tensor.dims())))
        .collect()
}

fn bits(parameters: &[(String, Tensor)]) -> Vec<(String, Vec<u32>)> {
    parameters
        .iter()
        .map(|(name, tensor)| {
            (
                name.clone(),
                tensor.data().iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect()
}

/// Call-level aggregation of one round under `rule`.
fn aggregate_call_level(updates: &[ModelUpdate], rule: AggregationRule) -> Vec<(String, Vec<u32>)> {
    bits(&aggregate_with_rule(&initial_for(updates), 0, updates.to_vec(), rule).unwrap())
}

/// The same round pushed through the `FedAvgServer` state machine with every
/// message crossing a transport of the given kind, update frames travelling
/// through `codec`.
fn aggregate_in_protocol_coded(
    updates: &[ModelUpdate],
    rule: AggregationRule,
    kind: TransportKind,
    codec: UpdateCodec,
) -> Vec<(String, Vec<u32>)> {
    let mut server = FedAvgServer::with_rule(
        initial_for(updates),
        ParticipationPolicy {
            quorum: rule.min_updates(),
            sample: 0,
            straggler_deadline: 0,
        },
        rule,
    )
    .unwrap();
    let links: Vec<_> = (0..updates.len())
        .map(|_| kind.duplex_with(codec))
        .collect();
    for (id, (client_end, server_end)) in links.iter().enumerate() {
        client_end.send(&Message::Join { client_id: id }).unwrap();
        let join = server_end.recv().unwrap().unwrap();
        server.deliver(&join);
    }
    let mut rng = SeedStream::new(17).derive("round");
    server.begin_round(&mut rng).unwrap();
    for (update, (client_end, _)) in updates.iter().zip(links.iter()) {
        client_end
            .send(&Message::Update {
                update: update.clone(),
                shielded: Vec::new(),
            })
            .unwrap();
    }
    for (_, server_end) in &links {
        let message = server_end.recv().unwrap().unwrap();
        let refused = server.deliver(&message);
        assert!(refused.is_empty(), "update unexpectedly refused");
    }
    server.close_round().unwrap();
    bits(server.parameters())
}

/// [`aggregate_in_protocol_coded`] with the identity codec.
fn aggregate_in_protocol(
    updates: &[ModelUpdate],
    rule: AggregationRule,
    kind: TransportKind,
) -> Vec<(String, Vec<u32>)> {
    aggregate_in_protocol_coded(updates, rule, kind, UpdateCodec::Raw)
}

/// The same round routed through a 2-level hierarchy: edge aggregators
/// collect their subtrees over real member links and forward combined
/// frames, which a root state machine unwraps and folds under `rule`.
fn aggregate_hierarchical(
    updates: &[ModelUpdate],
    rule: AggregationRule,
    groups: &[Vec<usize>],
) -> Vec<(String, Vec<u32>)> {
    let initial = initial_for(updates);
    let mut root = FedAvgServer::with_rule(
        initial,
        ParticipationPolicy {
            quorum: rule.min_updates(),
            sample: 0,
            straggler_deadline: 0,
        },
        rule,
    )
    .unwrap();
    let mut edges = Vec::new();
    let mut uplink_root_ends = Vec::new();
    let mut agent_ends: Vec<(usize, Box<dyn Transport>)> = Vec::new();
    for (edge_id, group) in groups.iter().enumerate() {
        let (edge_end, root_end) = TransportKind::InMemory.duplex();
        let mut edge =
            EdgeAggregator::new(edge_id, ParticipationPolicy::default(), edge_end).unwrap();
        for &member in group {
            let (agent_end, server_end) = TransportKind::InMemory.duplex();
            edge.attach_member(member, server_end, 0);
            agent_end
                .send(&Message::Join { client_id: member })
                .unwrap();
            agent_ends.push((member, agent_end));
        }
        edge.pump_idle().unwrap();
        edges.push(edge);
        uplink_root_ends.push(root_end);
    }
    for root_end in &uplink_root_ends {
        while let Some(message) = root_end.recv().unwrap() {
            root.deliver(&message);
        }
    }
    let broadcast = root.broadcast();
    let frame = BroadcastFrame::new(Message::RoundStart {
        round: broadcast.round,
        global: broadcast,
    });
    let mut rng = SeedStream::new(23).derive("round");
    root.begin_round(&mut rng).unwrap();
    for (edge, group) in edges.iter_mut().zip(groups) {
        let mut subset = group.clone();
        subset.sort_unstable();
        edge.open_round(&frame, &subset).unwrap();
    }
    for (member, agent_end) in &agent_ends {
        agent_end.recv().unwrap(); // consume the relayed broadcast
        let update = updates.iter().find(|u| u.client_id == *member).unwrap();
        agent_end
            .send(&Message::Update {
                update: update.clone(),
                shielded: Vec::new(),
            })
            .unwrap();
    }
    for edge in &mut edges {
        let mut sweep = 0;
        while edge.pump(sweep).unwrap().delivered {
            sweep += 1;
        }
        edge.close_and_forward().unwrap();
    }
    for root_end in &uplink_root_ends {
        while let Some(message) = root_end.recv().unwrap() {
            let Message::AggregateUpdate { members, .. } = message else {
                panic!("uplink must carry combined frames after the round");
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
    root.close_round().unwrap();
    bits(root.parameters())
}

/// One faulted in-protocol round: every runtime-side link end is wrapped by
/// the fault plan, and delivery runs the runtime's sweep discipline —
/// `recv_checked`, `Faulted` answered with the `CorruptFrame` refusal that
/// triggers retransmission, sweeps continuing while any wrapper holds
/// traffic. Returns the aggregate bits, the reporters that survived the
/// faults, and every Nack the agents were sent (rendered `id:reason`).
type FaultedAggregate = (Vec<(String, Vec<u32>)>, Vec<usize>, Vec<String>);

fn aggregate_with_faults(
    updates: &[ModelUpdate],
    rule: AggregationRule,
    kind: TransportKind,
    faults: &FaultConfig,
) -> FaultedAggregate {
    let plan = FaultPlan::new(faults.clone()).unwrap();
    let mut server = FedAvgServer::with_rule(
        initial_for(updates),
        ParticipationPolicy {
            quorum: rule.min_updates(),
            sample: 0,
            straggler_deadline: 0,
        },
        rule,
    )
    .unwrap();
    let links: Vec<_> = (0..updates.len())
        .map(|id| {
            let (client_end, server_end) = kind.duplex();
            (client_end, plan.wrap_seat(id, server_end))
        })
        .collect();
    // Joins are delivered out-of-band: a partition window opening at sweep
    // 0 may legitimately delay even control traffic, and this harness pins
    // the *round's* fault schedule, not the handshake's.
    for id in 0..updates.len() {
        server.deliver(&Message::Join { client_id: id });
    }
    let mut rng = SeedStream::new(17).derive("round");
    server.begin_round(&mut rng).unwrap();
    plan.begin_round(0);
    for (update, (client_end, _)) in updates.iter().zip(links.iter()) {
        client_end
            .send(&Message::Update {
                update: update.clone(),
                shielded: Vec::new(),
            })
            .unwrap();
    }
    let mut nacks = Vec::new();
    let mut sweep = 0usize;
    loop {
        plan.tick();
        let mut delivered = false;
        for (_, server_end) in &links {
            loop {
                match server_end.recv_checked().unwrap() {
                    Delivery::Empty => break,
                    Delivery::Frame(message) => {
                        delivered = true;
                        for response in server.deliver(&message) {
                            if let Message::Nack {
                                client_id, reason, ..
                            } = &response
                            {
                                nacks.push(format!("{client_id}:{reason}"));
                            }
                            server_end.send(&response).unwrap();
                        }
                    }
                    Delivery::Faulted {
                        sender,
                        round,
                        lost,
                    } => {
                        delivered = true;
                        let responses = if lost {
                            vec![Message::Nack {
                                client_id: sender,
                                round,
                                reason: NackReason::CorruptFrame,
                            }]
                        } else {
                            server.deliver_corrupt(sender, round)
                        };
                        for response in responses {
                            if let Message::Nack {
                                client_id, reason, ..
                            } = &response
                            {
                                nacks.push(format!("{client_id}:{reason}"));
                            }
                            server_end.send(&response).unwrap();
                        }
                    }
                }
            }
        }
        let pending = links.iter().any(|(_, server_end)| server_end.has_pending());
        if !delivered && !pending {
            break;
        }
        sweep += 1;
        assert!(sweep < 10_000, "faulted delivery failed to quiesce");
    }
    let reporters = match server.close_round() {
        Ok(summary) => summary.reporters,
        Err(FlError::QuorumNotMet { .. }) => {
            // Every frame died: the round starves through the quorum path,
            // never through a panic.
            server.abort_round().unwrap();
            Vec::new()
        }
        Err(error) => panic!("faulted round failed outside the quorum path: {error}"),
    };
    (bits(server.parameters()), reporters, nacks)
}

/// Maps a drawn per-client group label into a partition of `0..clients`
/// (labels with no clients vanish; an empty draw collapses to one group).
fn partition_from_labels(labels: &[usize], groups: usize) -> Vec<Vec<usize>> {
    let mut partition: Vec<Vec<usize>> = (0..groups.max(1)).map(|_| Vec::new()).collect();
    for (client, &label) in labels.iter().enumerate() {
        partition[label % groups.max(1)].push(client);
    }
    partition.retain(|group| !group.is_empty());
    partition
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12).with_seed(0x5eed_0b05))]

    /// TrimmedMean / NormClipping (and FedAvg) aggregates are bit-identical
    /// across thread counts, across transports, under client-id
    /// permutations, and between the call-level and in-protocol façades.
    #[test]
    fn robust_aggregation_is_bit_stable(
        values in proptest::collection::vec(
            proptest::collection::vec(-8.0f32..8.0, 8..13),
            3..6,
        ),
        max_norm in 0.1f32..4.0,
        rotation in 0usize..5,
    ) {
        // Every client must carry the same parameter shapes.
        let width = values[0].len();
        let values: Vec<Vec<f32>> = values
            .into_iter()
            .map(|mut row| { row.resize(width, 0.5); row })
            .collect();
        let updates = updates_from(&values);

        for rule in rules(max_norm, 1) {
            // Reference: call-level aggregate at one thread.
            pool::set_global_threads(1);
            let reference = aggregate_call_level(&updates, rule);

            // Thread-count invariance.
            pool::set_global_threads(4);
            prop_assert_eq!(&aggregate_call_level(&updates, rule), &reference);
            pool::set_global_threads(pool::env_threads());

            // Permutation invariance: rotate and reverse the arrival order.
            let mut permuted = updates.clone();
            let shift = rotation % permuted.len();
            permuted.rotate_left(shift);
            permuted.reverse();
            prop_assert_eq!(&aggregate_call_level(&permuted, rule), &reference);

            // Transport invariance + state-machine equivalence: the same
            // set through the server over both transports.
            for kind in [TransportKind::InMemory, TransportKind::Serialized] {
                prop_assert_eq!(&aggregate_in_protocol(&updates, rule, kind), &reference);
            }
        }
    }

    /// Every wire codec's fold keeps the aggregation invariants: for each
    /// rule, the in-protocol (streamed) aggregate of coded updates equals
    /// the call-level (buffered) aggregate of the codec's deterministically
    /// round-tripped updates — bit for bit, across both transports and
    /// under permutations of the arrival order. The codec decides *which*
    /// values fold (its quantization error), never *how* they fold.
    #[test]
    fn coded_folds_are_permutation_invariant_and_stream_buffer_identical(
        values in proptest::collection::vec(
            proptest::collection::vec(-8.0f32..8.0, 8..13),
            3..6,
        ),
        max_norm in 0.1f32..4.0,
        rotation in 0usize..5,
    ) {
        let width = values[0].len();
        let values: Vec<Vec<f32>> = values
            .into_iter()
            .map(|mut row| { row.resize(width, 0.5); row })
            .collect();
        let updates = updates_from(&values);
        let codecs = [
            UpdateCodec::Raw,
            UpdateCodec::Bf16,
            UpdateCodec::Int8,
            UpdateCodec::TopK { k: 3 },
        ];
        for codec in codecs {
            // What the server folds under this codec: the deterministic
            // round trip of every update.
            let decoded: Vec<ModelUpdate> = updates
                .iter()
                .map(|update| codec.round_trip_update(update))
                .collect();
            for rule in rules(max_norm, 1) {
                let reference = aggregate_call_level(&decoded, rule);
                // Streamed-vs-buffered identity over both transports.
                for kind in [TransportKind::InMemory, TransportKind::Serialized] {
                    prop_assert_eq!(
                        &aggregate_in_protocol_coded(&updates, rule, kind, codec),
                        &reference
                    );
                }
                // Permutation invariance of the coded arrival order.
                let mut permuted = updates.clone();
                let shift = rotation % permuted.len();
                permuted.rotate_left(shift);
                permuted.reverse();
                prop_assert_eq!(
                    &aggregate_in_protocol_coded(
                        &permuted,
                        rule,
                        TransportKind::Serialized,
                        codec
                    ),
                    &reference
                );
            }
        }
    }

    /// Hierarchical aggregation is **partition-invariant** to the bit: any
    /// random subtree partition of the same client population — and any
    /// permutation of that partition — produces exactly the flat
    /// aggregate under NormClipping/TrimmedMean (and FedAvg), because the
    /// edges forward member granularity rather than subtree averages.
    #[test]
    fn hierarchical_aggregation_is_bit_stable_across_partitions(
        values in proptest::collection::vec(
            proptest::collection::vec(-8.0f32..8.0, 8..13),
            3..6,
        ),
        labels_a in proptest::collection::vec(0usize..3, 6),
        labels_b in proptest::collection::vec(0usize..3, 6),
        max_norm in 0.1f32..4.0,
        rotation in 0usize..5,
    ) {
        let width = values[0].len();
        let values: Vec<Vec<f32>> = values
            .into_iter()
            .map(|mut row| { row.resize(width, 0.5); row })
            .collect();
        let updates = updates_from(&values);
        let clients = updates.len();
        let partition_a = partition_from_labels(&labels_a[..clients], 3);
        let partition_b = partition_from_labels(&labels_b[..clients], 2);

        for rule in rules(max_norm, 1) {
            let reference = aggregate_call_level(&updates, rule);
            // Two unrelated random partitions yield the flat bits.
            prop_assert_eq!(
                &aggregate_hierarchical(&updates, rule, &partition_a),
                &reference
            );
            prop_assert_eq!(
                &aggregate_hierarchical(&updates, rule, &partition_b),
                &reference
            );
            // Permuting the edge order of a partition changes nothing.
            let mut permuted = partition_a.clone();
            let shift = rotation % permuted.len();
            permuted.rotate_left(shift);
            permuted.reverse();
            prop_assert_eq!(
                &aggregate_hierarchical(&updates, rule, &permuted),
                &reference
            );
        }
    }

    /// Random fault plans over random small rounds replay bit-identically —
    /// same aggregate, same surviving reporters, same Nack traffic — across
    /// repeats, both transports and `PELTA_THREADS` 1/4; and whatever
    /// subset survives, the streamed fold equals a clean buffered aggregate
    /// of exactly that subset (the reorder-window invariant holds under
    /// faults).
    #[test]
    fn fault_plans_replay_bit_identically(
        values in proptest::collection::vec(
            proptest::collection::vec(-8.0f32..8.0, 8..13),
            3..6,
        ),
        rates in proptest::collection::vec(0.0f32..0.24, 4),
        reorder_window in 1usize..4,
        partition in 0.0f32..0.3,
        partition_sweeps in 1usize..3,
        seed in 0u64..u64::MAX,
        max_retransmits in 0usize..3,
        max_norm in 0.1f32..4.0,
    ) {
        let width = values[0].len();
        let values: Vec<Vec<f32>> = values
            .into_iter()
            .map(|mut row| { row.resize(width, 0.5); row })
            .collect();
        let updates = updates_from(&values);
        let faults = FaultConfig {
            seed,
            drop: rates[0],
            duplicate: rates[1],
            corrupt: rates[2],
            reorder: rates[3],
            reorder_window,
            partition,
            partition_sweeps,
            max_retransmits,
            ..FaultConfig::default()
        };
        // The streaming rules: the fold-on-delivery path is where faulted
        // delivery order could corrupt state if the reorder window broke.
        for rule in [AggregationRule::FedAvg, AggregationRule::NormClipping { max_norm }] {
            pool::set_global_threads(1);
            let reference =
                aggregate_with_faults(&updates, rule, TransportKind::InMemory, &faults);
            // Replay and transport invariance.
            prop_assert_eq!(
                &aggregate_with_faults(&updates, rule, TransportKind::InMemory, &faults),
                &reference
            );
            prop_assert_eq!(
                &aggregate_with_faults(&updates, rule, TransportKind::Serialized, &faults),
                &reference
            );
            // Thread-count invariance.
            pool::set_global_threads(4);
            prop_assert_eq!(
                &aggregate_with_faults(&updates, rule, TransportKind::Serialized, &faults),
                &reference
            );
            pool::set_global_threads(pool::env_threads());
            // Whatever survived, the faulted streamed fold equals a clean
            // buffered aggregate of exactly the surviving reporters.
            let (faulted_bits, reporters, _) = &reference;
            if !reporters.is_empty() {
                let surviving: Vec<ModelUpdate> = updates
                    .iter()
                    .filter(|u| reporters.contains(&u.client_id))
                    .cloned()
                    .collect();
                prop_assert_eq!(faulted_bits, &aggregate_call_level(&surviving, rule));
            }
        }
    }
}

/// A duplicate-only fault plan cannot change the aggregate: every copy is
/// refused first-wins with [`NackReason::Duplicate`], nothing folds twice,
/// and the bits equal the fault-free aggregate — for the streaming rules
/// *and* the buffering trimmed mean.
#[test]
fn duplicated_frames_never_double_fold() {
    let values: Vec<Vec<f32>> = (0..4)
        .map(|i| (0..10).map(|j| (i * 10 + j) as f32 * 0.25 - 4.0).collect())
        .collect();
    let updates = updates_from(&values);
    let faults = FaultConfig {
        seed: 0xD0_0D,
        duplicate: 1.0,
        ..FaultConfig::default()
    };
    for rule in rules(1.5, 1) {
        let clean = aggregate_call_level(&updates, rule);
        let (faulted, reporters, nacks) =
            aggregate_with_faults(&updates, rule, TransportKind::InMemory, &faults);
        assert_eq!(
            faulted, clean,
            "duplicated frames changed the {rule:?} aggregate"
        );
        assert_eq!(reporters, vec![0, 1, 2, 3]);
        let duplicate_refusals = nacks
            .iter()
            .filter(|n| n.ends_with(&format!("{}", NackReason::Duplicate)))
            .count();
        assert_eq!(
            duplicate_refusals,
            updates.len(),
            "every copy must draw exactly one Duplicate refusal: {nacks:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Population scale: streamed folds at 1 000 seats
// ---------------------------------------------------------------------------

/// A 1 000-seat synthetic update population with heterogeneous weights and
/// parameters (two named tensors per client, 11 scalars each).
fn thousand_updates() -> Vec<ModelUpdate> {
    let mut rng = SeedStream::new(4301).derive("population");
    (0..1_000)
        .map(|id| ModelUpdate {
            client_id: id,
            round: 0,
            num_samples: 1 + (id % 17),
            parameters: vec![
                (
                    "prefix.w".to_string(),
                    Tensor::rand_uniform(&[6], -4.0, 4.0, &mut rng),
                ),
                (
                    "suffix.w".to_string(),
                    Tensor::rand_uniform(&[5], -4.0, 4.0, &mut rng),
                ),
            ],
        })
        .collect()
}

/// At 1 000 seats the streaming server path — fold on delivery, drop the
/// payload immediately — produces exactly the bits of the buffered
/// call-level aggregation, across both transports, `PELTA_THREADS` 1/4,
/// and a fully reversed delivery order that forces the reorder window to
/// degrade to the old buffered behaviour before draining in one canonical
/// ascending pass.
#[test]
fn thousand_seat_streamed_folds_match_buffered_aggregation() {
    let updates = thousand_updates();
    for rule in [
        AggregationRule::FedAvg,
        AggregationRule::NormClipping { max_norm: 1.5 },
    ] {
        assert!(rule.streams(), "this test pins the streaming rules");
        pool::set_global_threads(1);
        let reference = aggregate_call_level(&updates, rule);
        for threads in [1usize, 4] {
            pool::set_global_threads(threads);
            for kind in [TransportKind::InMemory, TransportKind::Serialized] {
                assert_eq!(
                    aggregate_in_protocol(&updates, rule, kind),
                    reference,
                    "streamed {rule:?} over {kind:?} at {threads} thread(s) \
                     diverged from the buffered fold"
                );
            }
        }
        pool::set_global_threads(pool::env_threads());

        // Reversed delivery: every update waits on an unresolved smaller id
        // until client 0 reports, so the reorder window holds the entire
        // population before the fold drains it in ascending order.
        let mut server = FedAvgServer::with_rule(
            initial_for(&updates),
            ParticipationPolicy {
                quorum: updates.len(),
                sample: 0,
                straggler_deadline: 0,
            },
            rule,
        )
        .unwrap();
        for update in &updates {
            server.deliver(&Message::Join {
                client_id: update.client_id,
            });
        }
        let mut rng = SeedStream::new(17).derive("round");
        server.begin_round(&mut rng).unwrap();
        for update in updates.iter().rev() {
            let refused = server.deliver(&Message::Update {
                update: update.clone(),
                shielded: Vec::new(),
            });
            assert!(refused.is_empty(), "reversed delivery unexpectedly refused");
        }
        server.close_round().unwrap();
        assert_eq!(
            bits(server.parameters()),
            reference,
            "reversed delivery changed the {rule:?} bits"
        );
    }
}

// ---------------------------------------------------------------------------
// Acceptance: the backdoor-vs-rule matrix with the backdoor placed under an
// edge aggregator
// ---------------------------------------------------------------------------

fn backdoor_trigger() -> TrojanTrigger {
    TrojanTrigger::new(6, 1.0, 0).unwrap()
}

/// 1 backdoor seat (`AgentRole::Backdoor`) vs 4 honest seats, placed
/// under the smaller of two edge aggregators — the placement axis the
/// topology layer opens.
fn edge_backdoor_spec(rule: AggregationRule) -> ScenarioSpec {
    ScenarioSpec::honest(FederationConfig {
        clients: 5,
        rounds: 1,
        local_training: TrainingConfig {
            epochs: 1,
            batch_size: 8,
            learning_rate: 0.02,
            momentum: 0.9,
        },
        eval_samples: 30,
        policy: ParticipationPolicy {
            quorum: 5,
            sample: 0,
            straggler_deadline: 0,
        },
        rule,
        ..FederationConfig::default()
    })
    .with_topology(Topology::hierarchical(vec![vec![0, 1, 2], vec![3, 4]]))
    .with_role(
        4,
        AgentRole::Backdoor {
            trigger: backdoor_trigger(),
            poison_fraction: 1.0,
            boost: 30,
            training: Some(TrainingConfig {
                epochs: 4,
                batch_size: 5,
                learning_rate: 0.05,
                momentum: 0.9,
            }),
        },
    )
}

/// The acceptance matrix survives the topology change: under FedAvg the
/// boosted backdoor forwarded through its edge still captures the global
/// model, while NormClipping and TrimmedMean — folding the **full** client
/// population at the root, not per-subtree statistics — hold the backdoor
/// rate at 0.0 even though the attacker dominates its own 2-member subtree.
#[test]
fn backdoor_under_an_edge_aggregator_is_suppressed_by_robust_rules() {
    let run = |rule: AggregationRule| {
        let data = Dataset::generate(
            DatasetSpec::Cifar10Like,
            &GeneratorConfig {
                train_samples: 50,
                test_samples: 30,
                ..GeneratorConfig::default()
            },
            820,
        );
        let mut seeds = SeedStream::new(820);
        let spec = edge_backdoor_spec(rule);
        assert_eq!(spec.adversary_edges(), vec![(4, 1)]);
        let mut federation = Federation::vit_scenario(&data, &spec, &mut seeds).unwrap();
        let history = federation.run(&mut seeds).unwrap();
        let record = &history.rounds[0];
        assert_eq!(record.adversarial_actions, 1);
        assert_eq!(record.summary.reporters.len(), 5);
        // Both subtrees aggregated and forwarded.
        assert_eq!(record.edge_summaries.len(), 2);
        assert_eq!(record.edge_summaries[0].reporters, vec![0, 1, 2]);
        assert_eq!(record.edge_summaries[1].reporters, vec![3, 4]);
        let eval = data.test_subset(30);
        let global = federation.global_model().unwrap();
        let backdoor =
            backdoor_success_rate(global, &eval.images, &eval.labels, &backdoor_trigger()).unwrap();
        let clean = accuracy(global, &eval.images, &eval.labels).unwrap();
        (backdoor, clean)
    };
    let (fedavg_rate, fedavg_clean) = run(AggregationRule::FedAvg);
    let (clipped_rate, clipped_clean) = run(AggregationRule::NormClipping { max_norm: 1.0 });
    let (trimmed_rate, trimmed_clean) = run(AggregationRule::TrimmedMean { trim: 1 });
    eprintln!(
        "edge-placed backdoor: fedavg rate {fedavg_rate} clean {fedavg_clean}; \
         clipped rate {clipped_rate} clean {clipped_clean}; \
         trimmed rate {trimmed_rate} clean {trimmed_clean}"
    );
    assert!(
        fedavg_rate >= 0.5,
        "boosted backdoor under an edge should capture the undefended model, rate {fedavg_rate}"
    );
    assert_eq!(
        clipped_rate, 0.0,
        "norm clipping must zero the edge-placed backdoor"
    );
    assert_eq!(
        trimmed_rate, 0.0,
        "trimmed mean must zero the edge-placed backdoor"
    );
}

// ---------------------------------------------------------------------------
// Secure aggregation: pairwise-mask cancellation on the bit lattice
// ---------------------------------------------------------------------------

/// One client's shielded segment built from drawn values.
fn mask_segment_of(values: &[f32]) -> Vec<(String, Tensor)> {
    vec![(
        "shield.seg".to_string(),
        Tensor::from_vec(values.to_vec(), &[values.len()]).unwrap(),
    )]
}

/// A segment's scalars as raw IEEE-754 bit patterns, in canonical order.
fn mask_segment_bits(segment: &[(String, Tensor)]) -> Vec<u32> {
    segment
        .iter()
        .flat_map(|(_, t)| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

/// The mod-2³² element-wise sum of segment bit patterns — the lattice the
/// enclave folds on, where pairwise masks cancel exactly (see
/// `docs/determinism.md`).
fn lattice_sum(segments: &[Vec<u32>]) -> Vec<u32> {
    let mut acc = vec![0u32; segments.first().map_or(0, Vec::len)];
    for bits in segments {
        for (slot, &word) in acc.iter_mut().zip(bits) {
            *slot = slot.wrapping_add(word);
        }
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16).with_seed(0x9a5c_ca11))]

    /// Full participation: over any roster, values and round, the masked
    /// segments' lattice sum equals the clear segments' lattice sum — the
    /// aggregate is bit-identical while every individual masked segment is
    /// scrambled.
    #[test]
    fn pairwise_masks_cancel_exactly_over_the_full_roster(
        rows in proptest::collection::vec(
            proptest::collection::vec(-8.0f32..8.0, 6),
            3..7,
        ),
        round in 0usize..64,
        handshake in 0u64..=u64::MAX,
    ) {
        let measurement = handshake ^ 0x70e1_7a5e;
        let nonces: std::collections::BTreeMap<usize, u64> = rows
            .iter()
            .enumerate()
            .map(|(id, _)| (id, handshake.wrapping_mul(2 * id as u64 + 1).wrapping_add(id as u64)))
            .collect();
        let mut clear_bits = Vec::new();
        let mut masked_bits = Vec::new();
        for (id, values) in rows.iter().enumerate() {
            let clear = mask_segment_of(values);
            let mut masked = clear.clone();
            let context =
                ClientMaskContext::new(id, pair_seeds_for_client(measurement, &nonces, id));
            context.mask_segment(round, &mut masked);
            // Each member's masked bits are scrambled individually...
            prop_assert_ne!(mask_segment_bits(&clear), mask_segment_bits(&masked));
            clear_bits.push(mask_segment_bits(&clear));
            masked_bits.push(mask_segment_bits(&masked));
        }
        // ...but the lattice sums agree exactly: the masks cancel.
        prop_assert_eq!(lattice_sum(&clear_bits), lattice_sum(&masked_bits));
    }

    /// Random dropout subsets: the survivors' masked lattice sum does NOT
    /// equal their clear sum (orphaned mask halves remain), but once each
    /// survivor's reconstruction shares land — verified against the
    /// attested handshake — masking a zero segment with the dead-pair
    /// seeds extracts exactly the orphaned words, and subtracting them
    /// restores the clear sum bit for bit.
    #[test]
    fn dropout_reconstruction_restores_the_clear_lattice_sum(
        rows in proptest::collection::vec(
            proptest::collection::vec(-8.0f32..8.0, 5),
            5..=5,
        ),
        dead_mask in 1u8..31,
        round in 0usize..64,
        handshake in 0u64..=u64::MAX,
    ) {
        let measurement = handshake ^ 0x5ec2_a667;
        let nonces: std::collections::BTreeMap<usize, u64> = rows
            .iter()
            .enumerate()
            .map(|(id, _)| (id, handshake.wrapping_mul(2 * id as u64 + 1).wrapping_add(id as u64)))
            .collect();
        let aggregator = AggregatorMaskContext::new(measurement, nonces.clone());
        // dead_mask in 1..31 over 5 seats: at least one dead, one survivor.
        let dead: Vec<usize> = (0..rows.len()).filter(|id| dead_mask & (1 << id) != 0).collect();
        let survivors: Vec<usize> =
            (0..rows.len()).filter(|id| dead_mask & (1 << id) == 0).collect();
        prop_assert!(!dead.is_empty() && !survivors.is_empty());

        let mut clear_bits = Vec::new();
        let mut masked_bits = Vec::new();
        let mut orphan_bits = Vec::new();
        for &id in &survivors {
            let clear = mask_segment_of(&rows[id]);
            let mut masked = clear.clone();
            let context =
                ClientMaskContext::new(id, pair_seeds_for_client(measurement, &nonces, id));
            context.mask_segment(round, &mut masked);
            clear_bits.push(mask_segment_bits(&clear));
            masked_bits.push(mask_segment_bits(&masked));
            // The reconstruction path: the survivor's shares for the dead
            // seats verify against the attested handshake, and masking a
            // zero segment with only those pair seeds extracts exactly the
            // survivor's orphaned mask words.
            let shares = context.shares_for(&dead);
            let dead_seeds: std::collections::BTreeMap<usize, u64> = dead
                .iter()
                .zip(&shares)
                .map(|(&seat, &seed)| {
                    aggregator.verify_share(id, seat, seed).unwrap();
                    (seat, seed)
                })
                .collect();
            let mut orphan = mask_segment_of(&vec![0.0; rows[id].len()]);
            ClientMaskContext::new(id, dead_seeds).mask_segment(round, &mut orphan);
            orphan_bits.push(mask_segment_bits(&orphan));
        }
        let clear_sum = lattice_sum(&clear_bits);
        // Orphaned halves poison the survivors-only sum...
        prop_assert_ne!(&lattice_sum(&masked_bits), &clear_sum);
        // ...and subtracting the reconstructed orphan words restores it.
        let mut recovered = lattice_sum(&masked_bits);
        for (slot, &word) in recovered.iter_mut().zip(&lattice_sum(&orphan_bits)) {
            *slot = slot.wrapping_sub(word);
        }
        prop_assert_eq!(recovered, clear_sum);
    }
}
