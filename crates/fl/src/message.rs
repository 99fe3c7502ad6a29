//! The wire protocol of the federated-learning runtime.
//!
//! Every exchange between the aggregation server and a client is one
//! [`Message`] of the versioned protocol enum below. Messages cross a
//! [`crate::Transport`], and the serialised transport moves them as the
//! **binary wire encoding** defined here: a fixed header (magic, protocol
//! version, message kind), a payload in which every `f32` travels as its
//! exact IEEE-754 bit pattern, and a trailing FNV-1a integrity checksum.
//! The encoding is therefore *bitwise lossless* — ±0.0, subnormals and
//! extreme exponents survive a round trip unchanged — which is what lets the
//! federation guarantee bit-identical global models over the in-memory and
//! the serialised transport (see `tests/wire_protocol.rs` for the property
//! tests).
//!
//! The normal message flow is untouched by Pelta (the threat model assumes
//! an honest-but-curious client that follows the protocol); shielded
//! parameter segments ride inside [`Message::Update`] as opaque
//! [`SealedBlob`]s produced by the attested enclave channel of
//! [`crate::ShieldedUpdateChannel`]. The bench harness uses [`Message::wire_size`]
//! to account the §VI bandwidth overhead.
//!
//! Since the topology layer the protocol is no longer star-only: a
//! [`Message::AggregateUpdate`] is the **subtree-addressed** combined update
//! an edge aggregator (or gossip peer) forwards upstream — one frame
//! carrying its accepted member updates with their sealed segments intact,
//! stamped with the forwarding seat's `origin` id so refusals stay routable
//! in a multi-hop topology.
//!
//! The two data kinds, `Update` and `AggregateUpdate`, carry one codec tag
//! byte after the kind that names their [`UpdateCodec`]. Under a lossy codec
//! their tensors travel in the codec's compact layout ([`crate::codec`]),
//! scales as exact bit patterns, behind the same trailing FNV-1a checksum,
//! so a tampered compressed frame is refused exactly like a raw one. Decode
//! reconstructs the dequantized values bit-reproducibly. Control frames —
//! the secure-aggregation [`Message::MaskShare`] exchange included — carry
//! no tag, and neither they nor sealed blobs are ever compressed.
//!
//! The byte-level layout — every frame kind with a worked hex dump — is
//! specified in `docs/wire-format.md` at the repository root.
//!
//! **Adversarial note.** Malicious participants speak this protocol too —
//! by design nothing in a frame reveals intent, so a poisoned update is
//! wire-indistinguishable from an honest one. The server answers every
//! refused or misrouted frame with a [`Message::Nack`] and keeps going; a
//! spammer gains no parse-level leverage, but *delivered* junk still counts
//! against the straggler deadline (see [`crate::ParticipationPolicy`]),
//! which is exactly the timing surface the free-riding seat
//! ([`crate::AgentRole::FreeRider`]) exploits and the scenario tests pin
//! down.

use pelta_tee::SealedBlob;
use pelta_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::codec::{
    bf16_values, int8_scale, int8_values, put_bf16, put_int8, put_raw, raw_values, topk_indices,
    UpdateCodec,
};
use crate::{FlError, Result};

/// Version stamped into every encoded message; receivers reject any other
/// version instead of guessing at the payload layout. Versions 2 to 4 are
/// retired and refused.
pub const PROTOCOL_VERSION: u16 = 5;

/// Leading magic of every encoded message (`"PFL"` + format byte).
const WIRE_MAGIC: [u8; 4] = *b"PFL\x01";

/// Byte length of the fixed wire header (magic + version + kind).
const HEADER_LEN: usize = 4 + 2 + 1;

/// Byte length of the trailing checksum.
const CHECKSUM_LEN: usize = 8;

/// The global model broadcast by the server at the start of a round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalModel {
    /// The federated round this snapshot belongs to.
    pub round: usize,
    /// Named parameter tensors, in the model's canonical order.
    pub parameters: Vec<(String, Tensor)>,
}

impl GlobalModel {
    /// Total number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.parameters.iter().map(|(_, t)| t.numel()).sum()
    }

    /// Size of this snapshot's parameter payload in the binary wire
    /// encoding, in bytes.
    pub fn wire_size(&self) -> usize {
        8 + params_wire_len(&self.parameters)
    }
}

/// One client's update at the end of a round: its local parameters (the
/// clear segment, when shielding is enabled) and the number of samples they
/// were trained on (the FedAvg weight).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelUpdate {
    /// The sending client.
    pub client_id: usize,
    /// The round the update belongs to.
    pub round: usize,
    /// Number of local training samples (the FedAvg weight).
    pub num_samples: usize,
    /// Named parameter tensors after local training.
    pub parameters: Vec<(String, Tensor)>,
}

impl ModelUpdate {
    /// Size of this update's payload in the binary wire encoding, in bytes.
    pub fn wire_size(&self) -> usize {
        3 * 8 + params_wire_len(&self.parameters)
    }
}

/// One client's update as carried inside a subtree-addressed
/// [`Message::AggregateUpdate`]: the clear update plus its sealed shielded
/// segments, exactly as the member sent them. An edge aggregator forwards
/// members **without opening the blobs** — only the root's attested enclave
/// channel ever unseals — so shielded-update sealing threads through the
/// aggregator hop untouched.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberUpdate {
    /// The member's clear update (round, client, weight, clear segment).
    pub update: ModelUpdate,
    /// The member's sealed shielded segments (empty when the deployment
    /// does not shield updates).
    pub shielded: Vec<SealedBlob>,
}

impl MemberUpdate {
    /// Wraps an unshielded update.
    pub fn clear(update: ModelUpdate) -> Self {
        MemberUpdate {
            update,
            shielded: Vec::new(),
        }
    }

    /// Size of this member's payload in the binary wire encoding, in bytes.
    pub fn wire_size(&self) -> usize {
        update_payload_wire_len(&self.update, &self.shielded, UpdateCodec::Raw)
    }
}

/// Why the server refused a message (carried by [`Message::Nack`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NackReason {
    /// The update targets a round the server is no longer collecting.
    StaleRound,
    /// The update arrived after the straggler deadline closed the round.
    StragglerDeadline,
    /// The client was not sampled into (or registered for) this round.
    NotParticipating,
    /// A frame for this round was already accepted from the sender
    /// (first-wins: a duplicated or replayed frame is refused, never folded
    /// twice).
    Duplicate,
    /// The update failed schema or attestation validation.
    Rejected(String),
    /// The frame did not survive the link: it was lost or failed the wire
    /// checksum. Receiving this Nack is the retransmission trigger.
    CorruptFrame,
}

impl std::fmt::Display for NackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NackReason::StaleRound => write!(f, "stale round"),
            NackReason::StragglerDeadline => write!(f, "straggler deadline passed"),
            NackReason::NotParticipating => write!(f, "client not participating this round"),
            NackReason::Duplicate => write!(f, "duplicate frame"),
            NackReason::Rejected(reason) => write!(f, "rejected: {reason}"),
            NackReason::CorruptFrame => write!(f, "frame lost or corrupted on the link"),
        }
    }
}

/// One message of the federation protocol, version [`PROTOCOL_VERSION`].
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A client announces itself (initial connection or rejoin after a
    /// dropout).
    Join {
        /// The joining client.
        client_id: usize,
    },
    /// The server opens a round by broadcasting the global parameters to
    /// every sampled participant.
    RoundStart {
        /// The round being opened.
        round: usize,
        /// The global model snapshot (`global_params`).
        global: GlobalModel,
    },
    /// A client reports its local update (`delta` = full local parameters,
    /// `weight` = sample count). Shielded parameter segments travel as
    /// sealed enclave blobs next to the clear segment.
    Update {
        /// The clear part of the update (round, client, weight, clear
        /// parameter segment).
        update: ModelUpdate,
        /// Sealed shielded parameter segments (empty when the deployment
        /// does not shield updates).
        shielded: Vec<SealedBlob>,
    },
    /// A subtree-addressed combined update: the single frame an edge
    /// aggregator (or gossip peer) forwards upstream, carrying the member
    /// updates it accepted this round in ascending client-id order. Member
    /// granularity is preserved — the consensus point folds the round's
    /// *full* update set under the configured rule, whatever the topology —
    /// and sealed segments pass through unopened.
    AggregateUpdate {
        /// The forwarding seat (edge aggregator index or gossip peer id) —
        /// the addressee of any refusal, so Nacks stay routable through
        /// multi-hop topologies.
        origin: usize,
        /// The round the members belong to.
        round: usize,
        /// Accepted member updates in ascending client-id order.
        members: Vec<MemberUpdate>,
    },
    /// The server closes a round towards its participants.
    RoundEnd {
        /// The round that was aggregated.
        round: usize,
    },
    /// A client leaves the federation (possibly mid-round).
    Leave {
        /// The leaving client.
        client_id: usize,
    },
    /// The server refuses a message.
    Nack {
        /// The addressee.
        client_id: usize,
        /// The round the refusal concerns.
        round: usize,
        /// Why the message was refused.
        reason: NackReason,
    },
    /// The secure-aggregation mask-reconstruction exchange. After a masked
    /// round closes, the server broadcasts a **request** naming the round's
    /// dead seats (`seeds` empty); every surviving reporter answers with a
    /// **response** carrying its own pairwise seed for each dead seat
    /// (`seeds[k]` pairs with `seats[k]`), letting the aggregator enclave
    /// cancel exactly the orphaned mask halves. Seeds are pairwise secrets
    /// between the responder and a *dead* client, so revealing them exposes
    /// nothing a surviving pair still relies on.
    MaskShare {
        /// The responding client (or, on a request, the addressing server's
        /// sentinel id).
        client_id: usize,
        /// The round whose orphaned masks are being reconstructed.
        round: usize,
        /// The dead seats, in ascending order.
        seats: Vec<usize>,
        /// On a response: the responder's pairwise mask seed for each seat
        /// in `seats`, parallel by index. Empty on a request.
        seeds: Vec<u64>,
    },
}

impl Message {
    /// Discriminant byte used on the wire.
    fn kind_byte(&self) -> u8 {
        match self {
            Message::Join { .. } => 0,
            Message::RoundStart { .. } => 1,
            Message::Update { .. } => 2,
            Message::RoundEnd { .. } => 3,
            Message::Leave { .. } => 4,
            Message::Nack { .. } => 5,
            Message::AggregateUpdate { .. } => 6,
            Message::MaskShare { .. } => 7,
        }
    }

    /// Human-readable message kind (logging / reports).
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Join { .. } => "Join",
            Message::RoundStart { .. } => "RoundStart",
            Message::Update { .. } => "Update",
            Message::RoundEnd { .. } => "RoundEnd",
            Message::Leave { .. } => "Leave",
            Message::Nack { .. } => "Nack",
            Message::AggregateUpdate { .. } => "AggregateUpdate",
            Message::MaskShare { .. } => "MaskShare",
        }
    }

    /// Encodes the message into the binary wire format:
    /// `magic ‖ version ‖ kind ‖ [codec tag] ‖ payload ‖ fnv1a64(everything
    /// before)`, where only the data kinds carry the codec tag.
    ///
    /// Tensors are encoded element-wise as IEEE-754 bit patterns, so the
    /// encoding is bitwise lossless. Equivalent to
    /// [`Message::encode_with`] under [`UpdateCodec::Raw`].
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with(UpdateCodec::Raw)
    }

    /// Encodes the message under an update codec. `Update` and
    /// `AggregateUpdate` frames carry the codec's tag byte after the kind
    /// and their tensors in the codec's layout; control frames ignore the
    /// codec and equal the [`Message::encode`] output.
    pub fn encode_with(&self, codec: UpdateCodec) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size_with(codec));
        self.encode_body(codec, &mut out);
        out
    }

    /// [`Message::encode_with`] into a caller-owned buffer, clearing it
    /// first. The serialized transport feeds a thread-local scratch buffer
    /// through here so the hot send loop reuses grown capacity instead of
    /// sizing and allocating a fresh vector per message.
    pub fn encode_into(&self, codec: UpdateCodec, out: &mut Vec<u8>) {
        out.clear();
        self.encode_body(codec, out);
    }

    fn encode_body(&self, codec: UpdateCodec, out: &mut Vec<u8>) {
        out.extend_from_slice(&WIRE_MAGIC);
        out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        out.push(self.kind_byte());
        match self {
            Message::Join { client_id } => put_u64(out, *client_id as u64),
            Message::RoundStart { round, global } => {
                put_u64(out, *round as u64);
                put_u64(out, global.round as u64);
                put_params(out, &global.parameters);
            }
            Message::Update { update, shielded } => {
                out.push(codec.wire_tag());
                put_update_payload(out, update, shielded, codec);
            }
            Message::AggregateUpdate {
                origin,
                round,
                members,
            } => {
                out.push(codec.wire_tag());
                put_u64(out, *origin as u64);
                put_u64(out, *round as u64);
                put_u32(out, members.len() as u32);
                for member in members {
                    put_update_payload(out, &member.update, &member.shielded, codec);
                }
            }
            Message::RoundEnd { round } => put_u64(out, *round as u64),
            Message::Leave { client_id } => put_u64(out, *client_id as u64),
            Message::Nack {
                client_id,
                round,
                reason,
            } => {
                put_u64(out, *client_id as u64);
                put_u64(out, *round as u64);
                let (tag, detail): (u8, &str) = match reason {
                    NackReason::StaleRound => (0, ""),
                    NackReason::StragglerDeadline => (1, ""),
                    NackReason::NotParticipating => (2, ""),
                    NackReason::Duplicate => (3, ""),
                    NackReason::Rejected(detail) => (4, detail.as_str()),
                    NackReason::CorruptFrame => (5, ""),
                };
                out.push(tag);
                put_str(out, detail);
            }
            Message::MaskShare {
                client_id,
                round,
                seats,
                seeds,
            } => {
                put_u64(out, *client_id as u64);
                put_u64(out, *round as u64);
                put_u32(out, seats.len() as u32);
                for &seat in seats {
                    put_u64(out, seat as u64);
                }
                put_u32(out, seeds.len() as u32);
                for &seed in seeds {
                    put_u64(out, seed);
                }
            }
        }
        let checksum = fnv1a64(out);
        out.extend_from_slice(&checksum.to_le_bytes());
    }

    /// Decodes a message from its binary wire format, verifying magic,
    /// protocol version and integrity checksum.
    ///
    /// # Errors
    /// Returns [`FlError::Wire`] describing the first framing, version or
    /// integrity violation.
    pub fn decode(bytes: &[u8]) -> Result<Message> {
        if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
            return wire_err("message shorter than header + checksum");
        }
        let (body, tail) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
        let expected = u64::from_le_bytes(tail.try_into().expect("checksum tail is 8 bytes"));
        if fnv1a64(body) != expected {
            return wire_err("integrity checksum mismatch");
        }
        if body[..4] != WIRE_MAGIC {
            return wire_err("bad wire magic");
        }
        let version = u16::from_le_bytes([body[4], body[5]]);
        if version != PROTOCOL_VERSION {
            return Err(FlError::Wire {
                reason: format!(
                    "unsupported protocol version {version} (expected {PROTOCOL_VERSION})"
                ),
            });
        }
        let mut cursor = Cursor::new(&body[HEADER_LEN..]);
        let message = match body[6] {
            0 => Message::Join {
                client_id: cursor.take_u64()? as usize,
            },
            1 => {
                let round = cursor.take_u64()? as usize;
                let global_round = cursor.take_u64()? as usize;
                let parameters = cursor.take_params()?;
                Message::RoundStart {
                    round,
                    global: GlobalModel {
                        round: global_round,
                        parameters,
                    },
                }
            }
            2 => {
                let codec = cursor.take_codec()?;
                let (update, shielded) = cursor.take_update_payload(codec)?;
                Message::Update { update, shielded }
            }
            6 => {
                let codec = cursor.take_codec()?;
                let origin = cursor.take_u64()? as usize;
                let round = cursor.take_u64()? as usize;
                let count = cursor.take_u32()? as usize;
                let mut members = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    let (update, shielded) = cursor.take_update_payload(codec)?;
                    members.push(MemberUpdate { update, shielded });
                }
                Message::AggregateUpdate {
                    origin,
                    round,
                    members,
                }
            }
            3 => Message::RoundEnd {
                round: cursor.take_u64()? as usize,
            },
            4 => Message::Leave {
                client_id: cursor.take_u64()? as usize,
            },
            5 => {
                let client_id = cursor.take_u64()? as usize;
                let round = cursor.take_u64()? as usize;
                let tag = cursor.take_u8()?;
                let detail = cursor.take_str()?;
                let reason = match tag {
                    0 => NackReason::StaleRound,
                    1 => NackReason::StragglerDeadline,
                    2 => NackReason::NotParticipating,
                    3 => NackReason::Duplicate,
                    4 => NackReason::Rejected(detail),
                    5 => NackReason::CorruptFrame,
                    other => {
                        return Err(FlError::Wire {
                            reason: format!("unknown nack reason tag {other}"),
                        })
                    }
                };
                Message::Nack {
                    client_id,
                    round,
                    reason,
                }
            }
            7 => {
                let client_id = cursor.take_u64()? as usize;
                let round = cursor.take_u64()? as usize;
                let count = cursor.take_u32()? as usize;
                let mut seats = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    seats.push(cursor.take_u64()? as usize);
                }
                let count = cursor.take_u32()? as usize;
                let mut seeds = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    seeds.push(cursor.take_u64()?);
                }
                Message::MaskShare {
                    client_id,
                    round,
                    seats,
                    seeds,
                }
            }
            other => {
                return Err(FlError::Wire {
                    reason: format!("unknown message kind {other}"),
                })
            }
        };
        cursor.finish()?;
        Ok(message)
    }

    /// Exact length in bytes of [`Message::encode`]'s output, computed
    /// without encoding. Both transports account traffic with it, so the
    /// in-memory (zero-copy) path reports the same logical volume the
    /// serialised path actually moves.
    pub fn wire_size(&self) -> usize {
        self.wire_size_with(UpdateCodec::Raw)
    }

    /// Exact length in bytes of [`Message::encode_with`]'s output under a
    /// codec, computed without encoding. The in-memory transport accounts
    /// logical traffic with it so both transports report the compressed
    /// volume the serialised path actually moves.
    pub fn wire_size_with(&self, codec: UpdateCodec) -> usize {
        let payload = match self {
            Message::Join { .. } | Message::RoundEnd { .. } | Message::Leave { .. } => 8,
            Message::RoundStart { global, .. } => 8 + global.wire_size(),
            Message::Update { update, shielded } => {
                1 + update_payload_wire_len(update, shielded, codec)
            }
            Message::AggregateUpdate { members, .. } => {
                1 + 8
                    + 8
                    + 4
                    + members
                        .iter()
                        .map(|m| update_payload_wire_len(&m.update, &m.shielded, codec))
                        .sum::<usize>()
            }
            Message::Nack { reason, .. } => {
                let detail = match reason {
                    NackReason::Rejected(detail) => detail.len(),
                    _ => 0,
                };
                8 + 8 + 1 + 4 + detail
            }
            Message::MaskShare { seats, seeds, .. } => {
                8 + 8 + 4 + 8 * seats.len() + 4 + 8 * seeds.len()
            }
        };
        HEADER_LEN + payload + CHECKSUM_LEN
    }
}

/// Decode-side codec dispatch: which tensor layout a data frame's tag byte
/// announced. Decode never needs codec *parameters* (a TopK frame
/// carries its kept count explicitly), so this is deliberately smaller than
/// [`UpdateCodec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireCodec {
    Raw,
    Bf16,
    Int8,
    TopK,
}

/// Wire length of one update payload under a codec (shared by
/// [`Message::Update`] and the members of a [`Message::AggregateUpdate`]).
/// Sealed blobs are opaque ciphertext and are never compressed.
fn update_payload_wire_len(
    update: &ModelUpdate,
    shielded: &[SealedBlob],
    codec: UpdateCodec,
) -> usize {
    let blobs: usize = shielded.iter().map(|b| 4 + b.ciphertext().len() + 8).sum();
    let params = 4 + update
        .parameters
        .iter()
        .map(|(name, tensor)| 4 + name.len() + codec.tensor_wire_len(tensor))
        .sum::<usize>();
    3 * 8 + params + 4 + blobs
}

/// Encodes one update payload: round, client, weight, clear parameters
/// (tensors in the codec's compact layout), sealed blobs. Shared by
/// [`Message::Update`] and the members of a [`Message::AggregateUpdate`],
/// so both frame updates identically.
fn put_update_payload(
    out: &mut Vec<u8>,
    update: &ModelUpdate,
    shielded: &[SealedBlob],
    codec: UpdateCodec,
) {
    put_u64(out, update.round as u64);
    put_u64(out, update.client_id as u64);
    put_u64(out, update.num_samples as u64);
    put_u32(out, update.parameters.len() as u32);
    for (name, tensor) in &update.parameters {
        put_str(out, name);
        put_tensor_coded(out, tensor, codec);
    }
    put_u32(out, shielded.len() as u32);
    for blob in shielded {
        put_bytes(out, blob.ciphertext());
        put_u64(out, blob.checksum_value());
    }
}

/// Wire length of a named parameter list.
fn params_wire_len(parameters: &[(String, Tensor)]) -> usize {
    4 + parameters
        .iter()
        .map(|(name, tensor)| 4 + name.len() + 4 + 8 * tensor.rank() + 4 * tensor.numel())
        .sum::<usize>()
}

fn wire_err<T>(reason: &str) -> Result<T> {
    Err(FlError::Wire {
        reason: reason.to_string(),
    })
}

/// FNV-1a 64-bit hash, the integrity checksum of the wire format.
fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Encodes a tensor element-wise as IEEE-754 bit patterns (bitwise
/// lossless). Public to the crate so the shielded-update channel can seal
/// exactly the bytes the wire would carry.
pub(crate) fn put_tensor(out: &mut Vec<u8>, tensor: &Tensor) {
    put_dims(out, tensor);
    put_raw(out, tensor.data());
}

/// The `rank ‖ dims` framing every tensor layout opens with.
fn put_dims(out: &mut Vec<u8>, tensor: &Tensor) {
    put_u32(out, tensor.rank() as u32);
    for &dim in tensor.dims() {
        put_u64(out, dim as u64);
    }
}

/// Encodes a tensor in the codec's compact wire layout. All four layouts
/// open with the raw `rank ‖ dims` framing; the element section differs:
///
/// * `Raw`  — `4·numel` bytes of exact `f32` bit patterns,
/// * `Bf16` — `2·numel` bytes of rounded high halves,
/// * `Int8` — the 4-byte scale bit pattern then `numel` signed codes,
/// * `TopK` — a 4-byte kept count then `(u32 index, u32 value bits)` pairs
///   in ascending index order.
///
/// Deterministic by construction: scale derivation, rounding and selection
/// are the fixed scalar computations of [`crate::codec`], so encoding the
/// same tensor always yields the same bytes — and encoding a dequantized
/// tensor yields the *same* bytes again (idempotence). The dense sections
/// are written by the section kernels of [`crate::codec`], one pass each.
fn put_tensor_coded(out: &mut Vec<u8>, tensor: &Tensor, codec: UpdateCodec) {
    put_dims(out, tensor);
    match codec {
        UpdateCodec::Raw => put_raw(out, tensor.data()),
        UpdateCodec::Bf16 => put_bf16(out, tensor.data()),
        UpdateCodec::Int8 => {
            let scale = int8_scale(tensor.data());
            put_u32(out, scale.to_bits());
            put_int8(out, tensor.data(), scale);
        }
        UpdateCodec::TopK { k } => {
            let kept = topk_indices(tensor.data(), k);
            put_u32(out, kept.len() as u32);
            for index in kept {
                put_u32(out, index as u32);
                put_u32(out, tensor.data()[index].to_bits());
            }
        }
    }
}

fn put_params(out: &mut Vec<u8>, parameters: &[(String, Tensor)]) {
    put_u32(out, parameters.len() as u32);
    for (name, tensor) in parameters {
        put_str(out, name);
        put_tensor(out, tensor);
    }
}

/// Standalone binary tensor encoding (`put_tensor` framing), used by the
/// shielded-update channel to move segments through the enclave bit-exactly.
pub(crate) fn tensor_to_wire_bytes(tensor: &Tensor) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 * tensor.rank() + 4 * tensor.numel());
    put_tensor(&mut out, tensor);
    out
}

/// Inverse of [`tensor_to_wire_bytes`].
pub(crate) fn tensor_from_wire_bytes(bytes: &[u8]) -> Result<Tensor> {
    let mut cursor = Cursor::new(bytes);
    let tensor = cursor.take_tensor()?;
    cursor.finish()?;
    Ok(tensor)
}

/// Bounds-checked little-endian reader over a wire payload.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(len).filter(|&e| e <= self.data.len());
        match end {
            Some(end) => {
                let slice = &self.data[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => wire_err("payload truncated"),
        }
    }

    fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn take_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn take_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn take_str(&mut self) -> Result<String> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).or_else(|_| wire_err("invalid utf-8 in string field"))
    }

    fn take_bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.take_u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads the `rank ‖ dims` framing every tensor layout opens with.
    fn take_dims(&mut self) -> Result<Vec<usize>> {
        let rank = self.take_u32()? as usize;
        if rank > 8 {
            return wire_err("implausible tensor rank");
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(self.take_u64()? as usize);
        }
        Ok(dims)
    }

    /// Overflow-checked element count of an untrusted shape, bounded by
    /// `budget`. A frame is untrusted input, so the dim product must be
    /// overflow-checked — a wrapping product could smuggle a bogus shape
    /// past the length check (or panic in debug builds). A zero dim makes
    /// the count legitimately zero whatever the sibling dims claim.
    fn checked_numel(dims: &[usize], budget: usize) -> Result<usize> {
        let mut numel = 0usize;
        if !dims.contains(&0) {
            numel = 1;
            for &dim in dims {
                numel = match numel.checked_mul(dim) {
                    Some(n) if n <= budget => n,
                    _ => return wire_err("tensor larger than remaining payload"),
                };
            }
        }
        Ok(numel)
    }

    /// Bytes left in the payload, the base of every element-count budget.
    fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    fn take_tensor(&mut self) -> Result<Tensor> {
        let dims = self.take_dims()?;
        // The remaining payload bounds every plausible element count at 4
        // bytes per element, so the section length cannot overflow; each
        // dense section is then taken whole.
        let numel = Self::checked_numel(&dims, self.remaining() / 4 + 1)?;
        let data = raw_values(self.take(4 * numel)?);
        Tensor::from_vec(data, &dims).or_else(|_| wire_err("inconsistent tensor framing"))
    }

    /// Inverse of [`put_tensor_coded`]: reconstructs the **dequantized**
    /// tensor a coded layout carries. Decoding is total and deterministic —
    /// any framing violation (indices out of range or out of order, claimed
    /// shapes larger than the payload can hold) errors instead of
    /// panicking, and well-formed input reconstructs exact bit patterns.
    fn take_tensor_coded(&mut self, codec: WireCodec) -> Result<Tensor> {
        match codec {
            WireCodec::Raw => self.take_tensor(),
            WireCodec::Bf16 => {
                let dims = self.take_dims()?;
                let numel = Self::checked_numel(&dims, self.remaining() / 2 + 1)?;
                let data = bf16_values(self.take(2 * numel)?);
                Tensor::from_vec(data, &dims).or_else(|_| wire_err("inconsistent tensor framing"))
            }
            WireCodec::Int8 => {
                let dims = self.take_dims()?;
                let scale = f32::from_bits(self.take_u32()?);
                let numel = Self::checked_numel(&dims, self.remaining() + 1)?;
                let data = int8_values(self.take(numel)?, scale);
                Tensor::from_vec(data, &dims).or_else(|_| wire_err("inconsistent tensor framing"))
            }
            WireCodec::TopK => {
                let dims = self.take_dims()?;
                // A sparse layout's element count is not bounded by its
                // payload length, so an absolute cap stops a hostile frame
                // from claiming a huge dense shape and forcing the
                // allocation here.
                const MAX_SPARSE_NUMEL: usize = 1 << 26;
                let numel = Self::checked_numel(&dims, MAX_SPARSE_NUMEL)
                    .or_else(|_| wire_err("implausible sparse tensor shape"))?;
                let count = self.take_u32()? as usize;
                if count > numel || count > self.remaining() / 8 + 1 {
                    return wire_err("sparse entry count larger than remaining payload");
                }
                let mut data = vec![0.0f32; numel];
                let mut previous: Option<usize> = None;
                for _ in 0..count {
                    let index = self.take_u32()? as usize;
                    let bits = self.take_u32()?;
                    if index >= numel || previous.is_some_and(|p| index <= p) {
                        return wire_err("sparse indices out of range or out of order");
                    }
                    data[index] = f32::from_bits(bits);
                    previous = Some(index);
                }
                Tensor::from_vec(data, &dims).or_else(|_| wire_err("inconsistent tensor framing"))
            }
        }
    }

    /// Reads the codec tag byte that opens a data frame's payload.
    fn take_codec(&mut self) -> Result<WireCodec> {
        match self.take_u8()? {
            0 => Ok(WireCodec::Raw),
            1 => Ok(WireCodec::Bf16),
            2 => Ok(WireCodec::Int8),
            3 => Ok(WireCodec::TopK),
            other => Err(FlError::Wire {
                reason: format!("unknown update codec tag {other}"),
            }),
        }
    }

    /// Inverse of [`put_update_payload`].
    fn take_update_payload(&mut self, codec: WireCodec) -> Result<(ModelUpdate, Vec<SealedBlob>)> {
        let round = self.take_u64()? as usize;
        let client_id = self.take_u64()? as usize;
        let num_samples = self.take_u64()? as usize;
        let count = self.take_u32()? as usize;
        let mut parameters = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            let name = self.take_str()?;
            let tensor = self.take_tensor_coded(codec)?;
            parameters.push((name, tensor));
        }
        let blobs = self.take_u32()? as usize;
        let mut shielded = Vec::with_capacity(blobs.min(1024));
        for _ in 0..blobs {
            let ciphertext = self.take_bytes()?;
            let checksum = self.take_u64()?;
            shielded.push(SealedBlob::from_parts(ciphertext, checksum));
        }
        Ok((
            ModelUpdate {
                client_id,
                round,
                num_samples,
                parameters,
            },
            shielded,
        ))
    }

    fn take_params(&mut self) -> Result<Vec<(String, Tensor)>> {
        let count = self.take_u32()? as usize;
        let mut parameters = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            let name = self.take_str()?;
            let tensor = self.take_tensor()?;
            parameters.push((name, tensor));
        }
        Ok(parameters)
    }

    /// Asserts the payload was consumed exactly.
    fn finish(&self) -> Result<()> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            wire_err("trailing bytes after payload")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Vec<(String, Tensor)> {
        vec![
            ("fc.weight".to_string(), Tensor::arange(8)),
            (
                "fc.bias".to_string(),
                Tensor::from_vec(vec![-0.0, f32::MIN_POSITIVE / 2.0, f32::MAX], &[3]).unwrap(),
            ),
        ]
    }

    fn all_variants() -> Vec<Message> {
        vec![
            Message::Join { client_id: 3 },
            Message::RoundStart {
                round: 2,
                global: GlobalModel {
                    round: 2,
                    parameters: params(),
                },
            },
            Message::Update {
                update: ModelUpdate {
                    client_id: 1,
                    round: 2,
                    num_samples: 10,
                    parameters: params(),
                },
                shielded: vec![SealedBlob::from_parts(vec![1, 2, 3, 255], 0xDEAD)],
            },
            Message::AggregateUpdate {
                origin: 1,
                round: 2,
                members: vec![
                    MemberUpdate::clear(ModelUpdate {
                        client_id: 0,
                        round: 2,
                        num_samples: 7,
                        parameters: params(),
                    }),
                    MemberUpdate {
                        update: ModelUpdate {
                            client_id: 3,
                            round: 2,
                            num_samples: 9,
                            parameters: params(),
                        },
                        shielded: vec![SealedBlob::from_parts(vec![9, 8, 7], 0xBEEF)],
                    },
                ],
            },
            Message::RoundEnd { round: 2 },
            Message::Leave { client_id: 0 },
            Message::Nack {
                client_id: 4,
                round: 2,
                reason: NackReason::Rejected("schema".to_string()),
            },
            Message::Nack {
                client_id: 5,
                round: 2,
                reason: NackReason::Duplicate,
            },
            Message::Nack {
                client_id: 6,
                round: 2,
                reason: NackReason::CorruptFrame,
            },
            // A mask-reconstruction request (seeds empty)…
            Message::MaskShare {
                client_id: usize::MAX,
                round: 2,
                seats: vec![1, 4],
                seeds: vec![],
            },
            // …and a reporter's response (seeds parallel to seats).
            Message::MaskShare {
                client_id: 3,
                round: 2,
                seats: vec![1, 4],
                seeds: vec![0xDEAD_BEEF, 0xCAFE_F00D],
            },
        ]
    }

    #[test]
    fn every_variant_roundtrips_and_wire_size_is_exact() {
        for message in all_variants() {
            let bytes = message.encode();
            assert_eq!(bytes.len(), message.wire_size(), "{}", message.kind());
            let back = Message::decode(&bytes).unwrap();
            assert_eq!(back, message);
        }
    }

    #[test]
    fn tampering_is_detected() {
        let bytes = Message::Join { client_id: 1 }.encode();
        for position in 0..bytes.len() {
            let mut tampered = bytes.clone();
            tampered[position] ^= 0x40;
            assert!(
                Message::decode(&tampered).is_err(),
                "flip at byte {position} went undetected"
            );
        }
    }

    /// Re-stamps a frame's trailing checksum after a deliberate edit, so
    /// decode gets past the integrity check to the check under test.
    fn reseal(frame: &mut [u8]) {
        let body_len = frame.len() - CHECKSUM_LEN;
        let checksum = fnv1a64(&frame[..body_len]);
        frame[body_len..].copy_from_slice(&checksum.to_le_bytes());
    }

    #[test]
    fn truncation_and_bad_version_are_rejected() {
        let bytes = Message::RoundEnd { round: 7 }.encode();
        assert!(Message::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(Message::decode(&[]).is_err());
        // Every retired or foreign version is refused, for every kind and
        // codec, even behind a valid checksum.
        for codec in all_codecs() {
            for message in all_variants() {
                for version in [2u16, 3, 4, 0xFF] {
                    let mut foreign = message.encode_with(codec);
                    foreign[4..6].copy_from_slice(&version.to_le_bytes());
                    reseal(&mut foreign);
                    let err = Message::decode(&foreign).unwrap_err();
                    assert!(
                        err.to_string().contains("version"),
                        "{} under {codec} as version {version}: {err}",
                        message.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn overflowing_tensor_dims_are_rejected_not_panicked() {
        // A hand-crafted RoundStart frame claiming a [u64::MAX, 2] tensor:
        // the dim product would wrap (or panic in debug builds) if decode
        // trusted it. The checksum is valid — FNV is an integrity check, not
        // a MAC — so the overflow guard is the only defence.
        let mut frame = Vec::new();
        frame.extend_from_slice(&WIRE_MAGIC);
        frame.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        frame.push(1); // RoundStart
        put_u64(&mut frame, 0); // round
        put_u64(&mut frame, 0); // global.round
        put_u32(&mut frame, 1); // one parameter
        put_str(&mut frame, "w");
        put_u32(&mut frame, 2); // rank 2
        put_u64(&mut frame, u64::MAX);
        put_u64(&mut frame, 2);
        let checksum = fnv1a64(&frame);
        frame.extend_from_slice(&checksum.to_le_bytes());
        let err = Message::decode(&frame).unwrap_err();
        assert!(err.to_string().contains("larger than remaining payload"));
        // A tensor built from such dims is refused the same way.
        assert!(Tensor::from_vec(vec![], &[usize::MAX, 2]).is_err());
        // Zero-element tensors with huge sibling dims remain decodable —
        // their element count is legitimately zero, even where the product
        // of the leading dims alone would overflow.
        for dims in [
            vec![usize::MAX, 0],
            vec![2, usize::MAX, 0],
            vec![usize::MAX, 2, 0],
        ] {
            let empty = Tensor::from_vec(vec![], &dims).unwrap();
            let message = Message::RoundStart {
                round: 0,
                global: GlobalModel {
                    round: 0,
                    parameters: vec![("w".to_string(), empty)],
                },
            };
            assert_eq!(Message::decode(&message.encode()).unwrap(), message);
        }
    }

    #[test]
    fn float_bit_patterns_survive_the_wire() {
        let specials = vec![
            0.0f32,
            -0.0,
            f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 4.0, // subnormal
            f32::MAX,
            f32::MIN,
            1e-38,
            3.4e38,
        ];
        let tensor = Tensor::from_vec(specials.clone(), &[specials.len()]).unwrap();
        let message = Message::RoundStart {
            round: 0,
            global: GlobalModel {
                round: 0,
                parameters: vec![("w".to_string(), tensor)],
            },
        };
        let Message::RoundStart { global, .. } = Message::decode(&message.encode()).unwrap() else {
            panic!("kind changed in flight");
        };
        let restored = &global.parameters[0].1;
        for (a, b) in specials.iter().zip(restored.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn tensor_wire_bytes_roundtrip() {
        let tensor =
            Tensor::from_vec(vec![1.5, -0.0, f32::MIN_POSITIVE / 2.0, 4.0], &[2, 2]).unwrap();
        let bytes = tensor_to_wire_bytes(&tensor);
        let back = tensor_from_wire_bytes(&bytes).unwrap();
        assert_eq!(back.dims(), tensor.dims());
        for (a, b) in tensor.data().iter().zip(back.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(tensor_from_wire_bytes(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn wire_size_and_parameter_count() {
        let global = GlobalModel {
            round: 3,
            parameters: vec![
                ("fc.weight".to_string(), Tensor::zeros(&[4, 2])),
                ("fc.bias".to_string(), Tensor::zeros(&[4])),
            ],
        };
        assert_eq!(global.num_parameters(), 12);
        assert!(global.wire_size() > 0);

        let update = ModelUpdate {
            client_id: 1,
            round: 3,
            num_samples: 32,
            parameters: global.parameters.clone(),
        };
        assert!(update.wire_size() >= global.wire_size());
    }

    fn all_codecs() -> Vec<UpdateCodec> {
        vec![
            UpdateCodec::Raw,
            UpdateCodec::Bf16,
            UpdateCodec::Int8,
            UpdateCodec::TopK { k: 4 },
        ]
    }

    fn update_message() -> Message {
        Message::Update {
            update: ModelUpdate {
                client_id: 1,
                round: 2,
                num_samples: 10,
                parameters: params(),
            },
            shielded: vec![SealedBlob::from_parts(vec![1, 2, 3, 255], 0xDEAD)],
        }
    }

    #[test]
    fn control_frames_ignore_the_codec() {
        for codec in all_codecs() {
            for message in all_variants() {
                if matches!(
                    message,
                    Message::Update { .. } | Message::AggregateUpdate { .. }
                ) {
                    continue;
                }
                assert_eq!(message.encode_with(codec), message.encode());
            }
        }
    }

    #[test]
    fn coded_frames_decode_to_the_round_tripped_values() {
        for codec in all_codecs() {
            for message in all_variants() {
                let bytes = message.encode_with(codec);
                assert_eq!(
                    bytes.len(),
                    message.wire_size_with(codec),
                    "wire_size_with must predict the {} frame length under {codec}",
                    message.kind()
                );
                let decoded = Message::decode(&bytes).unwrap();
                let expected = codec.round_trip_message(&message).unwrap_or(message);
                // Bit-level equality via re-encode: PartialEq would wrongly
                // fail on NaN payloads the wire preserves.
                assert_eq!(decoded.encode(), expected.encode(), "under {codec}");
            }
        }
    }

    #[test]
    fn coded_encode_is_idempotent_under_re_encode() {
        // The edge re-encode path: decoding a compressed member and
        // re-encoding it under the same codec must reproduce the original
        // compressed bytes exactly.
        for codec in all_codecs() {
            for message in all_variants() {
                let bytes = message.encode_with(codec);
                let decoded = Message::decode(&bytes).unwrap();
                assert_eq!(decoded.encode_with(codec), bytes, "under {codec}");
            }
        }
    }

    #[test]
    fn encode_into_reuses_the_buffer_and_matches_encode_with() {
        let mut scratch = Vec::new();
        for codec in all_codecs() {
            for message in all_variants() {
                message.encode_into(codec, &mut scratch);
                assert_eq!(scratch, message.encode_with(codec));
            }
        }
    }

    #[test]
    fn tampered_coded_frames_are_detected() {
        for codec in all_codecs() {
            let bytes = update_message().encode_with(codec);
            for position in 0..bytes.len() {
                let mut tampered = bytes.clone();
                tampered[position] ^= 0x40;
                assert!(
                    Message::decode(&tampered).is_err(),
                    "flip at byte {position} of a {codec} frame went undetected"
                );
            }
        }
    }

    #[test]
    fn int8_and_topk_frames_are_meaningfully_smaller() {
        let wide = Message::Update {
            update: ModelUpdate {
                client_id: 0,
                round: 0,
                num_samples: 1,
                parameters: vec![("w".to_string(), Tensor::arange(4096))],
            },
            shielded: Vec::new(),
        };
        let raw = wide.wire_size_with(UpdateCodec::Raw);
        assert!(wide.wire_size_with(UpdateCodec::Bf16) * 3 < raw * 2);
        assert!(wide.wire_size_with(UpdateCodec::Int8) * 3 < raw);
        assert!(wide.wire_size_with(UpdateCodec::TopK { k: 64 }) * 3 < raw);
    }

    #[test]
    fn hostile_coded_framing_is_rejected_not_panicked() {
        // A codec tag byte after a control kind is refused.
        let mut frame = Vec::new();
        frame.extend_from_slice(&WIRE_MAGIC);
        frame.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        frame.push(3); // RoundEnd — never carries a tag
        frame.push(2); // Int8 tag
        put_u64(&mut frame, 1);
        let checksum = fnv1a64(&frame);
        frame.extend_from_slice(&checksum.to_le_bytes());
        let err = Message::decode(&frame).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"));

        // An unknown codec tag is refused.
        let mut bytes = update_message().encode_with(UpdateCodec::Int8);
        bytes[7] = 9;
        reseal(&mut bytes);
        let err = Message::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("codec tag"));

        // A sparse frame claiming a huge dense shape is refused before any
        // allocation, and out-of-order sparse indices are refused too.
        let hostile_topk = |dims: &[u64], entries: &[(u32, u32)]| {
            let mut frame = Vec::new();
            frame.extend_from_slice(&WIRE_MAGIC);
            frame.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
            frame.push(2); // Update
            frame.push(3); // TopK tag
            put_u64(&mut frame, 0); // round
            put_u64(&mut frame, 0); // client
            put_u64(&mut frame, 1); // samples
            put_u32(&mut frame, 1); // one parameter
            put_str(&mut frame, "w");
            put_u32(&mut frame, dims.len() as u32);
            for &dim in dims {
                put_u64(&mut frame, dim);
            }
            put_u32(&mut frame, entries.len() as u32);
            for &(index, bits) in entries {
                put_u32(&mut frame, index);
                put_u32(&mut frame, bits);
            }
            put_u32(&mut frame, 0); // no blobs
            let checksum = fnv1a64(&frame);
            frame.extend_from_slice(&checksum.to_le_bytes());
            Message::decode(&frame)
        };
        assert!(hostile_topk(&[u64::MAX, 2], &[]).is_err());
        assert!(hostile_topk(&[1 << 40], &[]).is_err());
        assert!(hostile_topk(&[4], &[(2, 0), (1, 0)]).is_err());
        assert!(hostile_topk(&[4], &[(1, 0), (1, 0)]).is_err());
        assert!(hostile_topk(&[4], &[(4, 0)]).is_err());
        // A well-formed sparse frame still decodes.
        assert!(hostile_topk(&[4], &[(1, 1.5f32.to_bits()), (3, 2.0f32.to_bits())]).is_ok());
    }

    #[test]
    fn snapshots_still_roundtrip_through_serde() {
        let update = ModelUpdate {
            client_id: 2,
            round: 0,
            num_samples: 8,
            parameters: vec![("w".to_string(), Tensor::ones(&[3]))],
        };
        let json = serde_json::to_string(&update).unwrap();
        let back: ModelUpdate = serde_json::from_str(&json).unwrap();
        assert_eq!(back, update);
    }

    /// The edge cases of the dense element kernels, one tensor each: exact
    /// `.5` ties after Int8 scaling with their one-ULP neighbours (at scale
    /// 1 with the amax on a negative element, at scale `2^-3`, and at the
    /// ±127 clamp), ±0, subnormals, NaNs with payloads, ±∞, bf16 ties, the
    /// saturating top of the Int8 range, and an all-zero tensor.
    fn pinned_params() -> Vec<(String, Tensor)> {
        let with_neighbours = |ties: &[f32]| -> Vec<f32> {
            ties.iter()
                .flat_map(|&t| [t, -t])
                .flat_map(|t| [t, t.next_down(), t.next_up()])
                .collect()
        };
        let mut unit = with_neighbours(&[0.5, 1.5, 2.5, 3.5, 62.5, 63.5, 99.5]);
        unit.push(-100.0); // amax on a negative element: scale 1
        let mut eighth = with_neighbours(&[0.0625, 0.1875, 0.3125, 7.5625]);
        eighth.push(-12.0); // scale 2^-3
        let mut clamp = with_neighbours(&[125.5, 126.5]);
        clamp.push(127.0); // scale 1, the top code
        let specials = vec![
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 4.0,     // subnormal
            f32::from_bits(0x8000_0001), // smallest negative subnormal
            f32::from_bits(0x7FC0_1234), // quiet NaN with payload
            f32::from_bits(0xFF80_0001), // negative signalling NaN
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0,
            -3.0,                        // finite amax, negative: scale 2^-5
            f32::from_bits(0x3F80_8000), // bf16 tie, even kept half
            f32::from_bits(0x3F81_8000), // bf16 tie, odd kept half
        ];
        let top = vec![f32::MAX, -f32::MAX, 1.0e38, -3.3e38, 1.0];
        let tensor = |data: Vec<f32>| {
            let len = data.len();
            Tensor::from_vec(data, &[len]).unwrap()
        };
        vec![
            ("unit".to_string(), tensor(unit)),
            ("eighth".to_string(), tensor(eighth)),
            ("clamp".to_string(), tensor(clamp)),
            (
                "specials".to_string(),
                Tensor::from_vec(specials, &[3, 4]).unwrap(),
            ),
            ("top".to_string(), tensor(top)),
            (
                "zeros".to_string(),
                Tensor::from_vec(vec![0.0, -0.0, 0.0, 0.0], &[2, 2]).unwrap(),
            ),
        ]
    }

    /// Pins the frame bytes across builds: one FNV-1a hash over an `Update`
    /// and a `RoundStart` of [`pinned_params`] encoded under every codec.
    /// Replay and digest checks compare runs within one build, so only a
    /// pinned constant catches a kernel change that moves every frame's
    /// bytes the same way.
    #[test]
    fn frame_bytes_are_pinned_across_builds() {
        let update = Message::Update {
            update: ModelUpdate {
                client_id: 3,
                round: 5,
                num_samples: 17,
                parameters: pinned_params(),
            },
            shielded: vec![SealedBlob::from_parts(vec![7, 0, 255], 0xC0DE)],
        };
        let round_start = Message::RoundStart {
            round: 5,
            global: GlobalModel {
                round: 5,
                parameters: pinned_params(),
            },
        };
        let mut frames = Vec::new();
        for codec in all_codecs() {
            for message in [&update, &round_start] {
                frames.extend(message.encode_with(codec));
            }
        }
        assert_eq!(frames.len(), 4122);
        assert_eq!(fnv1a64(&frames), 0xf8eb_9875_7252_8fc4);
    }
}
