//! Property tests of the federation wire protocol: the binary codec must be
//! **bitwise lossless** over arbitrary tensors — including ±0.0, subnormals
//! and extreme exponents — and every corruption of a frame must be caught by
//! the integrity checksum. The codec-compressed framing rides the same
//! contract: a coded frame decodes to the codec's deterministic round-trip
//! of the payload, bit-stably across calls and thread counts, and a
//! tampered compressed frame is refused in-protocol as `CorruptFrame`. The
//! secure-aggregation frames close the matrix: tampered `MaskShare`
//! responses fault under the share's `(client, round)` identity while
//! `MaskShare` requests ride hostile links untouched (see
//! `docs/wire-format.md` for the byte layout). Decode is total: garbage
//! behind a valid checksum errors, it never panics.

use proptest::prelude::*;

use pelta_fl::{
    Delivery, FaultConfig, FaultPlan, FedAvgServer, GlobalModel, MemberUpdate, Message,
    ModelUpdate, NackReason, ParticipationPolicy, RoundPhase, ShieldedUpdateChannel, TransportKind,
    UpdateCodec,
};
use pelta_tensor::{pool, SeedStream, Tensor};

/// Every codec under test, the lossy ones included.
fn codecs() -> Vec<UpdateCodec> {
    vec![
        UpdateCodec::Raw,
        UpdateCodec::Bf16,
        UpdateCodec::Int8,
        UpdateCodec::TopK { k: 4 },
    ]
}

/// Builds a tensor from raw IEEE-754 bit patterns — ±0.0, subnormals, ±∞,
/// NaN payloads and every finite exponent pass through untouched.
fn tensor_from_bits(bits: &[u32]) -> Tensor {
    let data: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
    let n = data.len();
    Tensor::from_vec(data, &[n]).expect("rank-1 tensor")
}

/// Bit patterns the strategy must always cover, whatever the RNG draws:
/// ±0.0, the smallest subnormal, the largest subnormal, `MIN_POSITIVE`,
/// `MAX`, `MIN`, ±∞ and a payload-carrying NaN.
fn special_bits() -> Vec<u32> {
    vec![
        0.0f32.to_bits(),
        (-0.0f32).to_bits(),
        1u32,        // smallest positive subnormal
        0x007F_FFFF, // largest subnormal
        f32::MIN_POSITIVE.to_bits(),
        f32::MAX.to_bits(),
        f32::MIN.to_bits(),
        f32::INFINITY.to_bits(),
        f32::NEG_INFINITY.to_bits(),
        0x7FC0_1234, // NaN with payload bits
    ]
}

fn assert_bit_identical(a: &Tensor, b: &Tensor) {
    assert_eq!(a.dims(), b.dims());
    for (x, y) in a.data().iter().zip(b.data()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

fn roundtrip(message: &Message) -> Message {
    let bytes = message.encode();
    assert_eq!(
        bytes.len(),
        message.wire_size(),
        "wire_size must predict the encoded length exactly"
    );
    Message::decode(&bytes).expect("well-formed frame decodes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24).with_seed(0x9e1a_77f1))]

    /// Every message variant round-trips bitwise over random tensors that
    /// always include the special float values.
    #[test]
    fn every_variant_is_bitwise_lossless(
        random_bits in proptest::collection::vec(0u32..=u32::MAX, 1..48),
        client_id in 0usize..64,
        round in 0usize..1000,
        samples in 1usize..10_000,
    ) {
        let mut bits = special_bits();
        bits.extend(random_bits);
        let tensor = tensor_from_bits(&bits);
        let parameters = vec![
            ("prefix.embed.proj".to_string(), tensor.clone()),
            ("suffix.head.weight".to_string(), tensor_from_bits(&bits[..5])),
        ];

        let variants = vec![
            Message::Join { client_id },
            Message::RoundStart {
                round,
                global: GlobalModel { round, parameters: parameters.clone() },
            },
            Message::Update {
                update: ModelUpdate { client_id, round, num_samples: samples, parameters },
                shielded: Vec::new(),
            },
            Message::RoundEnd { round },
            Message::Leave { client_id },
            Message::Nack { client_id, round, reason: NackReason::StragglerDeadline },
        ];
        for message in variants {
            let back = roundtrip(&message);
            // Bit-level equality: re-encoding the decoded message must
            // reproduce the original frame byte for byte. (PartialEq would
            // wrongly fail on NaN payloads, which the wire preserves.)
            prop_assert_eq!(back.encode(), message.encode());
            // And the tensor payloads specifically are bit-for-bit intact.
            if let (Message::Update { update: a, .. }, Message::Update { update: b, .. }) =
                (&message, &back)
            {
                for ((_, ta), (_, tb)) in a.parameters.iter().zip(&b.parameters) {
                    assert_bit_identical(ta, tb);
                }
            }
        }
    }

    /// Flipping any single byte of an encoded update is detected.
    #[test]
    fn checksum_catches_any_single_byte_tamper(
        random_bits in proptest::collection::vec(0u32..=u32::MAX, 1..16),
        position_seed in 0usize..10_000,
        flip in 1u8..=255,
    ) {
        let tensor = tensor_from_bits(&random_bits);
        let message = Message::Update {
            update: ModelUpdate {
                client_id: 1,
                round: 0,
                num_samples: 4,
                parameters: vec![("w".to_string(), tensor)],
            },
            shielded: Vec::new(),
        };
        let mut bytes = message.encode();
        let position = position_seed % bytes.len();
        bytes[position] ^= flip;
        prop_assert!(
            Message::decode(&bytes).is_err(),
            "flip of byte {} went undetected",
            position
        );
    }

    /// Mid-round, **in-protocol** corruption: a tampered `Update` riding a
    /// fault-injected link is caught by the wire checksum and surfaces as
    /// [`Delivery::Faulted`]; the server answers with a `CorruptFrame` Nack
    /// and burns the straggler deadline like any delivered frame — the
    /// round is never aborted, and the honest quorum closes it normally.
    #[test]
    fn in_protocol_tamper_is_nacked_and_burns_the_deadline(
        random_bits in proptest::collection::vec(0u32..=u32::MAX, 1..16),
        seed in 0u64..1_000_000,
    ) {
        let tensor = tensor_from_bits(&random_bits);
        let payload = |client_id: usize| ModelUpdate {
            client_id,
            round: 0,
            num_samples: 4,
            parameters: vec![("w".to_string(), tensor.clone())],
        };
        let mut server = FedAvgServer::with_policy(
            vec![("w".to_string(), Tensor::zeros(tensor.dims()))],
            ParticipationPolicy {
                quorum: 2,
                sample: 0,
                straggler_deadline: 16,
            },
        )
        .unwrap();
        for id in 0..3 {
            server.deliver(&Message::Join { client_id: id });
        }
        let mut rng = SeedStream::new(7).derive("round");
        server.begin_round(&mut rng).unwrap();

        // The honest quorum: seats 0 and 1 deliver clean.
        for id in 0..2 {
            let refused = server.deliver(&Message::Update {
                update: payload(id),
                shielded: Vec::new(),
            });
            prop_assert!(refused.is_empty(), "honest update refused");
        }

        // Seat 2's frame crosses a link that always tampers; the zero
        // retransmission budget makes the corruption terminal.
        let plan = FaultPlan::new(FaultConfig {
            seed,
            corrupt: 1.0,
            max_retransmits: 0,
            ..FaultConfig::default()
        })
        .unwrap();
        let (agent_end, runtime_end) = TransportKind::Serialized.duplex();
        let link = plan.wrap_seat(2, runtime_end);
        plan.begin_round(0);
        agent_end
            .send(&Message::Update {
                update: payload(2),
                shielded: Vec::new(),
            })
            .unwrap();
        let delivered_before = server.delivered_messages();
        let Delivery::Faulted { sender, round, lost } = link.recv_checked().unwrap() else {
            panic!("a corrupt-rate-1 link must surface the tamper as Faulted");
        };
        prop_assert_eq!((sender, round, lost), (2, 0, false));
        let responses = server.deliver_corrupt(sender, round);
        prop_assert_eq!(responses.len(), 1);
        prop_assert!(matches!(
            &responses[0],
            Message::Nack {
                client_id: 2,
                round: 0,
                reason: NackReason::CorruptFrame,
            }
        ));
        for response in &responses {
            link.send(response).unwrap();
        }
        // The damaged delivery burned the straggler deadline like any
        // delivered frame …
        prop_assert_eq!(server.delivered_messages(), delivered_before + 1);
        // … and the round survived: the honest quorum closes it normally.
        prop_assert_eq!(server.phase(), RoundPhase::Collecting);
        let summary = server.close_round().unwrap();
        prop_assert_eq!(summary.reporters, vec![0, 1]);
        // The tampered seat saw its diagnostic refusal.
        let nack = agent_end.recv().unwrap().unwrap();
        prop_assert!(matches!(
            nack,
            Message::Nack {
                client_id: 2,
                reason: NackReason::CorruptFrame,
                ..
            }
        ));
    }

    /// The coded framing keeps the protocol's reproducibility guarantees
    /// over hostile payloads: for every codec, `decode(encode_with(x))`
    /// carries exactly the codec's deterministic round-trip of the tensors
    /// (±0.0, subnormals, NaNs and extreme exponents included), re-encoding
    /// the decoded frame reproduces the bytes exactly (idempotence), and
    /// the bytes are identical across repeated calls and thread counts.
    #[test]
    fn coded_frames_are_bit_stable_across_calls_and_threads(
        random_bits in proptest::collection::vec(0u32..=u32::MAX, 1..32),
        client_id in 0usize..64,
        round in 0usize..1000,
    ) {
        let mut bits = special_bits();
        bits.extend(random_bits);
        let message = Message::Update {
            update: ModelUpdate {
                client_id,
                round,
                num_samples: 16,
                parameters: vec![
                    ("embed.proj".to_string(), tensor_from_bits(&bits)),
                    ("head.weight".to_string(), tensor_from_bits(&bits[..5])),
                ],
            },
            shielded: Vec::new(),
        };
        for codec in codecs() {
            let frame = message.encode_with(codec);
            prop_assert_eq!(frame.len(), message.wire_size_with(codec));
            let decoded = Message::decode(&frame).expect("coded frame decodes");
            // What arrived is the codec's round trip of the payload …
            let expected = codec.round_trip_message(&message).unwrap_or_else(|| message.clone());
            prop_assert_eq!(decoded.encode(), expected.encode());
            // … and re-encoding it reproduces the frame byte for byte.
            prop_assert_eq!(&decoded.encode_with(codec), &frame);
            // Bit-stable across repeated calls and across thread counts:
            // the codecs are scalar, thread-free computations.
            pool::set_global_threads(1);
            let one_thread = message.encode_with(codec);
            pool::set_global_threads(4);
            let four_threads = message.encode_with(codec);
            pool::set_global_threads(pool::env_threads());
            prop_assert_eq!(&one_thread, &frame);
            prop_assert_eq!(&four_threads, &frame);
        }
    }

    /// Flipping any single byte of a *compressed* frame is detected by the
    /// same trailing checksum that guards raw frames.
    #[test]
    fn checksum_catches_tampered_coded_frames(
        random_bits in proptest::collection::vec(0u32..=u32::MAX, 1..16),
        position_seed in 0usize..10_000,
        flip in 1u8..=255,
    ) {
        let message = Message::Update {
            update: ModelUpdate {
                client_id: 1,
                round: 0,
                num_samples: 4,
                parameters: vec![("w".to_string(), tensor_from_bits(&random_bits))],
            },
            shielded: Vec::new(),
        };
        for codec in codecs() {
            let mut bytes = message.encode_with(codec);
            let position = position_seed % bytes.len();
            bytes[position] ^= flip;
            prop_assert!(
                Message::decode(&bytes).is_err(),
                "flip of byte {} of a {} frame went undetected",
                position,
                codec.name()
            );
        }
    }

    /// In-protocol corruption of a *compressed* frame: the chaos shim flips
    /// a byte of the coded encoding riding a coded link, the checksum
    /// refuses it, and the server answers `CorruptFrame` exactly as it does
    /// for raw traffic — the recovery protocol is codec-agnostic.
    #[test]
    fn tampered_coded_frames_nack_as_corrupt_in_protocol(
        random_bits in proptest::collection::vec(0u32..=u32::MAX, 1..16),
        seed in 0u64..1_000_000,
    ) {
        let tensor = tensor_from_bits(&random_bits);
        for codec in codecs() {
            let mut server = FedAvgServer::with_policy(
                vec![("w".to_string(), Tensor::zeros(tensor.dims()))],
                ParticipationPolicy {
                    quorum: 1,
                    sample: 0,
                    straggler_deadline: 16,
                },
            )
            .unwrap();
            for id in 0..3 {
                server.deliver(&Message::Join { client_id: id });
            }
            let mut rng = SeedStream::new(7).derive("round");
            server.begin_round(&mut rng).unwrap();

            let plan = FaultPlan::new(FaultConfig {
                seed,
                corrupt: 1.0,
                max_retransmits: 0,
                ..FaultConfig::default()
            })
            .unwrap();
            let (agent_end, runtime_end) = TransportKind::Serialized.duplex_with(codec);
            let link = plan.wrap_seat(2, runtime_end);
            plan.begin_round(0);
            agent_end
                .send(&Message::Update {
                    update: ModelUpdate {
                        client_id: 2,
                        round: 0,
                        num_samples: 4,
                        parameters: vec![("w".to_string(), tensor.clone())],
                    },
                    shielded: Vec::new(),
                })
                .unwrap();
            let Delivery::Faulted { sender, round, lost } = link.recv_checked().unwrap() else {
                panic!("a corrupt-rate-1 coded link must surface the tamper as Faulted");
            };
            prop_assert_eq!((sender, round, lost), (2, 0, false));
            let responses = server.deliver_corrupt(sender, round);
            prop_assert_eq!(responses.len(), 1);
            for response in &responses {
                link.send(response).unwrap();
            }
            let nack = agent_end.recv().unwrap().unwrap();
            prop_assert!(matches!(
                nack,
                Message::Nack {
                    client_id: 2,
                    reason: NackReason::CorruptFrame,
                    ..
                }
            ));
        }
    }

    /// In-protocol tampering of the secure-aggregation frames. A
    /// `MaskShare` **response** (seeds present) is faultable: a corrupt
    /// link surfaces the tamper as [`Delivery::Faulted`] carrying the
    /// share's `(client, round)` identity — exactly the key the server's
    /// reconstruction sweep Nacks as `CorruptFrame` and re-requests. A
    /// `MaskShare` **request** (seeds empty) is server→client control
    /// traffic like a broadcast: it rides the same hostile link untouched.
    #[test]
    fn tampered_mask_shares_fault_with_their_reconstruction_identity(
        seed in 0u64..1_000_000,
        round in 0usize..1000,
        seeds_payload in proptest::collection::vec(0u64..=u64::MAX, 1..5),
    ) {
        let seats: Vec<usize> = (0..seeds_payload.len()).map(|i| 7 + i).collect();
        let plan = FaultPlan::new(FaultConfig {
            seed,
            corrupt: 1.0,
            max_retransmits: 0,
            ..FaultConfig::default()
        })
        .unwrap();
        let (agent_end, runtime_end) = TransportKind::Serialized.duplex();
        let link = plan.wrap_seat(3, runtime_end);
        plan.begin_round(round);

        // The response is faultable under the share-bearer's identity.
        agent_end
            .send(&Message::MaskShare {
                client_id: 3,
                round,
                seats: seats.clone(),
                seeds: seeds_payload.clone(),
            })
            .unwrap();
        let Delivery::Faulted { sender, round: faulted, lost } = link.recv_checked().unwrap()
        else {
            panic!("a corrupt-rate-1 link must surface the tampered share as Faulted");
        };
        prop_assert_eq!((sender, faulted, lost), (3, round, false));
        // The sweep's refusal names the share it lost, so the wrapper (and
        // the bounded re-request loop above it) can key the recovery.
        link.send(&Message::Nack {
            client_id: 3,
            round,
            reason: NackReason::CorruptFrame,
        })
        .unwrap();
        let nack = agent_end.recv().unwrap().unwrap();
        prop_assert!(matches!(
            nack,
            Message::Nack {
                client_id: 3,
                reason: NackReason::CorruptFrame,
                ..
            }
        ));

        // The request (seeds empty) is control traffic: the same hostile
        // link delivers it clean, so a dead seat can always be named.
        let request = Message::MaskShare {
            client_id: usize::MAX,
            round,
            seats,
            seeds: Vec::new(),
        };
        agent_end.send(&request).unwrap();
        let Delivery::Frame(delivered) = link.recv_checked().unwrap() else {
            panic!("MaskShare requests must never enter the fate draw");
        };
        prop_assert_eq!(delivered, request);
    }

    /// Truncated frames never decode.
    #[test]
    fn truncation_is_detected(
        random_bits in proptest::collection::vec(0u32..=u32::MAX, 1..16),
        cut_seed in 1usize..10_000,
    ) {
        let message = Message::RoundStart {
            round: 1,
            global: GlobalModel {
                round: 1,
                parameters: vec![("w".to_string(), tensor_from_bits(&random_bits))],
            },
        };
        let bytes = message.encode();
        let cut = cut_seed % bytes.len();
        prop_assert!(Message::decode(&bytes[..cut]).is_err());
    }
}

/// FNV-1a 64 over `bytes`: the frame checksum `docs/wire-format.md`
/// specifies (offset basis `0xcbf29ce484222325`, prime `0x100000001b3`).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One valid message of every kind, carrying `tensor` and an empty
/// rank-3 tensor wherever the kind has parameters, and a sealed blob
/// wherever it has a shielded segment.
fn every_kind(tensor: &Tensor) -> Vec<Message> {
    let parameters = vec![
        ("w".to_string(), tensor.clone()),
        ("empty".to_string(), Tensor::zeros(&[2, 3, 0])),
    ];
    let (sealed, _) = ShieldedUpdateChannel::connect(7)
        .expect("enclave channel")
        .seal_segments(&parameters)
        .expect("sealable segment");
    let update = ModelUpdate {
        client_id: 2,
        round: 3,
        num_samples: 5,
        parameters: parameters.clone(),
    };
    vec![
        Message::Join { client_id: 2 },
        Message::RoundStart {
            round: 3,
            global: GlobalModel {
                round: 3,
                parameters,
            },
        },
        Message::Update {
            update: update.clone(),
            shielded: sealed.clone(),
        },
        Message::AggregateUpdate {
            origin: 1,
            round: 3,
            members: vec![
                MemberUpdate {
                    update: update.clone(),
                    shielded: sealed,
                },
                MemberUpdate::clear(ModelUpdate {
                    client_id: 4,
                    ..update
                }),
            ],
        },
        Message::RoundEnd { round: 3 },
        Message::Leave { client_id: 2 },
        Message::Nack {
            client_id: 2,
            round: 3,
            reason: NackReason::Rejected("late".to_string()),
        },
        Message::MaskShare {
            client_id: 2,
            round: 3,
            seats: vec![0, 4],
            seeds: vec![9, 11],
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64).with_seed(0xdec0_de5f))]

    /// Decode fuzz: overwrite random bytes of a valid frame of every kind
    /// under every codec and re-stamp a valid checksum, so the garbage
    /// reaches the parser (FNV-1a is an integrity check, not a MAC). Decode
    /// must return `Ok` or `Err`; it must never panic.
    #[test]
    fn decode_never_panics_behind_a_valid_checksum(
        random_bits in proptest::collection::vec(0u32..=u32::MAX, 1..12),
        edits in proptest::collection::vec(0u64..=u64::MAX, 1..6),
    ) {
        for message in every_kind(&tensor_from_bits(&random_bits)) {
            for codec in codecs() {
                let mut frame = message.encode_with(codec);
                let body_len = frame.len() - 8;
                // Each edit names a body byte (high bits) and writes 0x00,
                // 0xFF or a random byte there: the extremes are what turn
                // length and dim fields hostile.
                for &edit in &edits {
                    let value = match edit % 3 {
                        0 => 0x00,
                        1 => 0xFF,
                        _ => (edit >> 2) as u8,
                    };
                    frame[(edit >> 8) as usize % body_len] = value;
                }
                let checksum = fnv1a64(&frame[..body_len]);
                frame[body_len..].copy_from_slice(&checksum.to_le_bytes());
                let decoded = std::panic::catch_unwind(|| Message::decode(&frame).map(|_| ()));
                prop_assert!(
                    decoded.is_ok(),
                    "decode panicked on a {} frame under {}: {:?}",
                    message.kind(),
                    codec.name(),
                    frame
                );
            }
        }
    }
}
