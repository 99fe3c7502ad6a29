//! The transport boundary between federation participants.
//!
//! A [`Transport`] is one endpoint of a duplex, ordered, reliable message
//! link. Two implementations exist:
//!
//! * [`InMemoryTransport`] — zero-copy: messages move between the endpoints'
//!   FIFO queues as owned values, never touching bytes. This is the fast
//!   path for single-process federations.
//! * [`SerializedTransport`] — a loopback that forces **every** exchange
//!   through the binary wire encoding of [`Message`]: `send` encodes to
//!   bytes (checksummed), `recv` decodes and verifies. Running a federation
//!   over this transport proves the wire path is lossless; the integration
//!   tests assert the resulting global model is bit-identical to the
//!   in-memory run.
//!
//! Both transports report the same *logical* traffic volume
//! ([`Message::wire_size_with`] under the link's codec);
//! [`Transport::bytes_serialized`] additionally reports the bytes that were
//! physically encoded (zero for the in-memory path), which is what the
//! serialisation-equivalence tests compare.
//!
//! **Update codecs.** A link built by [`TransportKind::duplex_with`] carries
//! an [`UpdateCodec`] and is the single choke point where compression
//! touches values: the serialized path encodes upload frames in the codec's
//! compact layout, and the in-memory path applies the *same* value loss
//! ([`UpdateCodec::round_trip_message`]) to the queued message. Both
//! endpoints of a link therefore deliver bit-identical dequantized tensors,
//! whatever the transport kind — the codec extension of the transport-
//! equivalence contract. [`TransportKind::duplex`] builds `Raw` links, which
//! behave exactly as before the codec layer existed.
//!
//! **Broadcast sharing.** A coordinator sending one [`Message`] to a large
//! population must not pay O(population × model) to do it: a
//! [`BroadcastFrame`] wraps the message in an `Arc` (and, for the byte
//! path, encodes it exactly once), and [`Transport::send_broadcast`] enqueues
//! the shared payload per link. Counters are still charged per link — a
//! broadcast to N seats is N logical sends — so traffic accounting is
//! unchanged from N individual `send` calls.
//!
//! **Encode buffer reuse.** Every byte-path encode on a thread runs through
//! one thread-local scratch buffer: the hot serialized send loop writes into
//! retained capacity and queues a single exact-size copy, instead of sizing
//! (a full message walk) and growing a fresh vector per message.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use pelta_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::{Message, Result, UpdateCodec};

/// Which transport a federation runs its links over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransportKind {
    /// Zero-copy in-memory channel.
    InMemory,
    /// Serialise/deserialise loopback (every message crosses as bytes).
    Serialized,
}

#[allow(clippy::derivable_impls)] // the vendored serde derive cannot parse a `#[default]` variant attribute
impl Default for TransportKind {
    fn default() -> Self {
        TransportKind::InMemory
    }
}

impl TransportKind {
    /// Creates a connected endpoint pair of this kind carrying raw
    /// (uncompressed) frames.
    pub fn duplex(self) -> (Box<dyn Transport>, Box<dyn Transport>) {
        self.duplex_with(UpdateCodec::Raw)
    }

    /// Creates a connected endpoint pair of this kind whose upload frames
    /// are compressed by `codec` (see the module docs: both kinds deliver
    /// the codec's dequantized values, so the transports stay equivalent).
    pub fn duplex_with(self, codec: UpdateCodec) -> (Box<dyn Transport>, Box<dyn Transport>) {
        match self {
            TransportKind::InMemory => {
                let (a, b) = InMemoryTransport::pair_with(codec);
                (Box::new(a), Box::new(b))
            }
            TransportKind::Serialized => {
                let (a, b) = SerializedTransport::pair_with(codec);
                (Box::new(a), Box::new(b))
            }
        }
    }
}

thread_local! {
    /// Scratch buffer shared by every byte-path encode on this thread (see
    /// the module docs on encode buffer reuse).
    static ENCODE_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Encodes a message under `codec` through the thread-local scratch buffer,
/// returning an exact-size frame. Steady state performs one allocation (the
/// returned frame) and no sizing walk.
fn encode_frame_bytes(message: &Message, codec: UpdateCodec) -> Vec<u8> {
    ENCODE_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        message.encode_into(codec, &mut scratch);
        scratch.as_slice().to_vec()
    })
}

/// A broadcast payload shared across every link it is sent over: the
/// message travels behind an `Arc`, and the serialized transports encode it
/// exactly once (lazily, on the first byte-path send). This is what keeps a
/// `RoundStart` broadcast O(model + population) instead of
/// O(model × population).
#[derive(Clone)]
pub struct BroadcastFrame {
    message: Arc<Message>,
    encoded: OnceLock<Arc<Vec<u8>>>,
}

impl BroadcastFrame {
    /// Wraps a message for shared broadcast.
    pub fn new(message: Message) -> Self {
        BroadcastFrame {
            message: Arc::new(message),
            encoded: OnceLock::new(),
        }
    }

    /// The wrapped message.
    pub fn message(&self) -> &Message {
        &self.message
    }

    /// The model a `RoundStart` frame opens its round with — the one copy
    /// of the round-open parameters that every reader of the round shares
    /// (empty for any other frame).
    pub(crate) fn parameters(&self) -> &[(String, Tensor)] {
        match self.message() {
            Message::RoundStart { global, .. } => &global.parameters,
            _ => &[],
        }
    }

    /// The shared raw wire encoding, produced at most once per frame
    /// (through the thread-local encode scratch). Broadcast traffic is
    /// control traffic — `RoundStart` / `RoundEnd` — which carries no codec
    /// tag and encodes identically under every codec, so one shared raw
    /// frame serves every link whatever codec it carries.
    pub fn encoded(&self) -> Arc<Vec<u8>> {
        Arc::clone(
            self.encoded
                .get_or_init(|| Arc::new(encode_frame_bytes(&self.message, UpdateCodec::Raw))),
        )
    }
}

/// What one [`Transport::recv_checked`] call observed on the link.
///
/// The healthy transports only ever produce [`Delivery::Empty`] and
/// [`Delivery::Frame`]; [`Delivery::Faulted`] is how a fault-injecting
/// wrapper (see [`crate::fault`]) surfaces a frame that was lost or failed
/// its wire checksum *without* aborting the receiver's pump loop — the
/// runtime turns it into a [`crate::NackReason::CorruptFrame`] refusal,
/// which in turn triggers the wrapper's bounded retransmission.
#[derive(Debug, Clone, PartialEq)]
pub enum Delivery {
    /// Nothing was waiting on the link.
    Empty,
    /// A frame arrived intact.
    Frame(Message),
    /// A frame arrived damaged (checksum-caught) or was lost on the link.
    Faulted {
        /// The sender the damaged frame claimed (client seat or edge
        /// origin) — the addressee of the resulting `CorruptFrame` Nack.
        sender: usize,
        /// The round the damaged frame belonged to.
        round: usize,
        /// `true` if the frame vanished entirely (nothing was delivered, so
        /// it must not burn a straggler-deadline slot); `false` if damaged
        /// bytes were delivered and caught by the checksum.
        lost: bool,
    },
}

/// One endpoint of a duplex message link (see the module docs).
pub trait Transport: Send {
    /// Queues a message for the peer endpoint (ordered, reliable).
    ///
    /// # Errors
    /// Returns [`crate::FlError::Wire`] if the message cannot be encoded.
    fn send(&self, message: &Message) -> Result<()>;

    /// Queues a shared broadcast payload for the peer endpoint. Counters are
    /// charged exactly as for [`Transport::send`]; the only difference is
    /// that the payload (and, on the byte path, its encoding) is shared
    /// across every link the same frame is sent over instead of being cloned
    /// per link.
    ///
    /// # Errors
    /// Returns [`crate::FlError::Wire`] if the message cannot be encoded.
    fn send_broadcast(&self, frame: &BroadcastFrame) -> Result<()> {
        self.send(frame.message())
    }

    /// Pops the next message queued by the peer, if any.
    ///
    /// # Errors
    /// Returns [`crate::FlError::Wire`] if an incoming frame fails to decode
    /// or verify.
    fn recv(&self) -> Result<Option<Message>>;

    /// Pops the next delivery, distinguishing faulted frames from intact
    /// ones. The healthy transports never fault, so the default simply
    /// lifts [`Transport::recv`] into [`Delivery`]; fault-injecting
    /// wrappers override it.
    ///
    /// # Errors
    /// Returns [`crate::FlError::Wire`] if an incoming frame fails to decode
    /// outside the injected-fault path.
    fn recv_checked(&self) -> Result<Delivery> {
        Ok(match self.recv()? {
            Some(message) => Delivery::Frame(message),
            None => Delivery::Empty,
        })
    }

    /// Whether a message from the peer is waiting.
    fn has_pending(&self) -> bool;

    /// Logical bytes sent by this endpoint ([`Message::wire_size`] of every
    /// sent message), identical across transport kinds.
    fn bytes_sent(&self) -> usize;

    /// Bytes this endpoint physically serialised onto the wire — zero for
    /// the zero-copy in-memory transport.
    fn bytes_serialized(&self) -> usize;

    /// Messages sent by this endpoint.
    fn messages_sent(&self) -> usize;

    /// The transport kind of this endpoint.
    fn kind(&self) -> TransportKind;

    /// The update codec this link compresses upload frames with. Fault-
    /// injecting wrappers delegate to the wrapped link so tampering and
    /// retransmission operate on the *compressed* frame bytes.
    fn codec(&self) -> UpdateCodec {
        UpdateCodec::Raw
    }
}

/// Per-endpoint traffic counters.
#[derive(Default)]
struct Counters {
    messages: usize,
    logical_bytes: usize,
    serialized_bytes: usize,
}

/// Zero-copy in-memory endpoint: messages cross as (possibly shared) owned
/// values. Queued messages sit behind `Arc`s so a broadcast frame occupies
/// one allocation however many inboxes it is queued in; `recv` unwraps the
/// `Arc` without copying when this endpoint holds the last reference.
///
/// Under a lossy codec, `send` applies the codec's value loss to upload
/// frames before queueing — the receiver sees exactly the dequantized
/// values a serialized link would decode, keeping the two kinds
/// bit-equivalent.
pub struct InMemoryTransport {
    incoming: Arc<Mutex<VecDeque<Arc<Message>>>>,
    outgoing: Arc<Mutex<VecDeque<Arc<Message>>>>,
    counters: Mutex<Counters>,
    codec: UpdateCodec,
}

impl InMemoryTransport {
    /// Creates a connected endpoint pair carrying raw frames.
    pub fn pair() -> (InMemoryTransport, InMemoryTransport) {
        Self::pair_with(UpdateCodec::Raw)
    }

    /// Creates a connected endpoint pair whose upload messages carry the
    /// codec's dequantized values.
    pub fn pair_with(codec: UpdateCodec) -> (InMemoryTransport, InMemoryTransport) {
        let a_to_b = Arc::new(Mutex::new(VecDeque::new()));
        let b_to_a = Arc::new(Mutex::new(VecDeque::new()));
        (
            InMemoryTransport {
                incoming: Arc::clone(&b_to_a),
                outgoing: Arc::clone(&a_to_b),
                counters: Mutex::new(Counters::default()),
                codec,
            },
            InMemoryTransport {
                incoming: a_to_b,
                outgoing: b_to_a,
                counters: Mutex::new(Counters::default()),
                codec,
            },
        )
    }
}

impl Transport for InMemoryTransport {
    fn send(&self, message: &Message) -> Result<()> {
        let mut counters = self.counters.lock();
        counters.messages += 1;
        counters.logical_bytes += message.wire_size_with(self.codec);
        drop(counters);
        let queued = match self.codec.round_trip_message(message) {
            Some(rewritten) => Arc::new(rewritten),
            None => Arc::new(message.clone()),
        };
        self.outgoing.lock().push_back(queued);
        Ok(())
    }

    fn send_broadcast(&self, frame: &BroadcastFrame) -> Result<()> {
        let mut counters = self.counters.lock();
        counters.messages += 1;
        counters.logical_bytes += frame.message().wire_size_with(self.codec);
        drop(counters);
        // Broadcasts are control traffic, untouched by every codec; an
        // upload frame broadcast under a lossy codec would still need its
        // values rewritten, so handle it for completeness.
        let queued = match self.codec.round_trip_message(frame.message()) {
            Some(rewritten) => Arc::new(rewritten),
            None => Arc::clone(&frame.message),
        };
        self.outgoing.lock().push_back(queued);
        Ok(())
    }

    fn recv(&self) -> Result<Option<Message>> {
        let popped = self.incoming.lock().pop_front();
        Ok(popped.map(|shared| Arc::try_unwrap(shared).unwrap_or_else(|arc| (*arc).clone())))
    }

    fn has_pending(&self) -> bool {
        !self.incoming.lock().is_empty()
    }

    fn bytes_sent(&self) -> usize {
        self.counters.lock().logical_bytes
    }

    fn bytes_serialized(&self) -> usize {
        0
    }

    fn messages_sent(&self) -> usize {
        self.counters.lock().messages
    }

    fn kind(&self) -> TransportKind {
        TransportKind::InMemory
    }

    fn codec(&self) -> UpdateCodec {
        self.codec
    }
}

/// Serialise/deserialise loopback endpoint: every message crosses as its
/// checksummed binary wire encoding — compressed by the link's codec on the
/// upload kinds. Queued frames sit behind `Arc`s so a broadcast is encoded
/// once and shared across every inbox it is queued in.
pub struct SerializedTransport {
    incoming: Arc<Mutex<VecDeque<Arc<Vec<u8>>>>>,
    outgoing: Arc<Mutex<VecDeque<Arc<Vec<u8>>>>>,
    counters: Mutex<Counters>,
    codec: UpdateCodec,
}

impl SerializedTransport {
    /// Creates a connected endpoint pair carrying raw frames.
    pub fn pair() -> (SerializedTransport, SerializedTransport) {
        Self::pair_with(UpdateCodec::Raw)
    }

    /// Creates a connected endpoint pair whose upload frames cross the wire
    /// in the codec's compact encoding.
    pub fn pair_with(codec: UpdateCodec) -> (SerializedTransport, SerializedTransport) {
        let a_to_b = Arc::new(Mutex::new(VecDeque::new()));
        let b_to_a = Arc::new(Mutex::new(VecDeque::new()));
        (
            SerializedTransport {
                incoming: Arc::clone(&b_to_a),
                outgoing: Arc::clone(&a_to_b),
                counters: Mutex::new(Counters::default()),
                codec,
            },
            SerializedTransport {
                incoming: a_to_b,
                outgoing: b_to_a,
                counters: Mutex::new(Counters::default()),
                codec,
            },
        )
    }
}

impl Transport for SerializedTransport {
    fn send(&self, message: &Message) -> Result<()> {
        // The frame length *is* the logical wire size under this link's
        // codec, so counting it directly skips the separate sizing walk.
        let frame = encode_frame_bytes(message, self.codec);
        let mut counters = self.counters.lock();
        counters.messages += 1;
        counters.logical_bytes += frame.len();
        counters.serialized_bytes += frame.len();
        drop(counters);
        self.outgoing.lock().push_back(Arc::new(frame));
        Ok(())
    }

    fn send_broadcast(&self, frame: &BroadcastFrame) -> Result<()> {
        // Broadcasts are control traffic, identical under every codec, so
        // the raw shared encoding (produced at most once per frame) serves
        // all links. An upload frame broadcast under a lossy codec cannot
        // share bytes and falls back to a per-link coded send.
        if !self.codec.is_raw() && self.codec.round_trip_message(frame.message()).is_some() {
            return self.send(frame.message());
        }
        let encoded = frame.encoded();
        let mut counters = self.counters.lock();
        counters.messages += 1;
        counters.logical_bytes += encoded.len();
        counters.serialized_bytes += encoded.len();
        drop(counters);
        self.outgoing.lock().push_back(encoded);
        Ok(())
    }

    fn recv(&self) -> Result<Option<Message>> {
        let frame = self.incoming.lock().pop_front();
        match frame {
            Some(frame) => Ok(Some(Message::decode(&frame)?)),
            None => Ok(None),
        }
    }

    fn has_pending(&self) -> bool {
        !self.incoming.lock().is_empty()
    }

    fn bytes_sent(&self) -> usize {
        self.counters.lock().logical_bytes
    }

    fn bytes_serialized(&self) -> usize {
        self.counters.lock().serialized_bytes
    }

    fn messages_sent(&self) -> usize {
        self.counters.lock().messages
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Serialized
    }

    fn codec(&self) -> UpdateCodec {
        self.codec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelta_tensor::Tensor;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Join { client_id: 1 },
            Message::RoundStart {
                round: 0,
                global: crate::GlobalModel {
                    round: 0,
                    parameters: vec![("w".to_string(), Tensor::arange(6))],
                },
            },
            Message::Leave { client_id: 1 },
        ]
    }

    #[test]
    fn in_memory_endpoints_exchange_fifo() {
        let (client, server) = InMemoryTransport::pair();
        for message in sample_messages() {
            client.send(&message).unwrap();
        }
        assert!(server.has_pending());
        assert_eq!(client.messages_sent(), 3);
        assert_eq!(client.bytes_serialized(), 0);
        assert!(client.bytes_sent() > 0);
        for expected in sample_messages() {
            assert_eq!(server.recv().unwrap().unwrap(), expected);
        }
        assert!(server.recv().unwrap().is_none());
        // The reverse direction works too.
        server.send(&Message::RoundEnd { round: 0 }).unwrap();
        assert_eq!(
            client.recv().unwrap().unwrap(),
            Message::RoundEnd { round: 0 }
        );
    }

    #[test]
    fn serialized_endpoints_force_the_byte_path() {
        let (client, server) = SerializedTransport::pair();
        for message in sample_messages() {
            client.send(&message).unwrap();
        }
        // Physically encoded bytes equal the logical accounting exactly.
        assert_eq!(client.bytes_serialized(), client.bytes_sent());
        assert!(client.bytes_serialized() > 0);
        for expected in sample_messages() {
            assert_eq!(server.recv().unwrap().unwrap(), expected);
        }
        assert!(!server.has_pending());
    }

    #[test]
    fn both_kinds_report_identical_logical_traffic() {
        let (mem, _mem_peer) = InMemoryTransport::pair();
        let (ser, _ser_peer) = SerializedTransport::pair();
        for message in sample_messages() {
            mem.send(&message).unwrap();
            ser.send(&message).unwrap();
        }
        assert_eq!(mem.bytes_sent(), ser.bytes_sent());
        assert_eq!(mem.kind(), TransportKind::InMemory);
        assert_eq!(ser.kind(), TransportKind::Serialized);
    }

    #[test]
    fn broadcast_frames_share_one_payload_and_charge_per_link() {
        let frame = BroadcastFrame::new(sample_messages().remove(1));
        for kind in [TransportKind::InMemory, TransportKind::Serialized] {
            let pairs: Vec<_> = (0..3).map(|_| kind.duplex()).collect();
            for (sender, _) in &pairs {
                sender.send_broadcast(&frame).unwrap();
            }
            // Counters are identical to three individual sends.
            let (reference, _) = kind.duplex();
            reference.send(frame.message()).unwrap();
            for (sender, receiver) in &pairs {
                assert_eq!(sender.messages_sent(), 1);
                assert_eq!(sender.bytes_sent(), reference.bytes_sent());
                assert_eq!(sender.bytes_serialized(), reference.bytes_serialized());
                // The shared payload decodes/unwraps to the original message.
                assert_eq!(receiver.recv().unwrap().unwrap(), *frame.message());
            }
        }
        // The byte path encoded the frame exactly once: the lazily built
        // encoding is the same allocation on every call.
        assert!(Arc::ptr_eq(&frame.encoded(), &frame.encoded()));
    }

    #[test]
    fn duplex_constructor_matches_kind() {
        for kind in [TransportKind::InMemory, TransportKind::Serialized] {
            let (a, b) = kind.duplex();
            assert_eq!(a.kind(), kind);
            assert_eq!(a.codec(), UpdateCodec::Raw);
            a.send(&Message::Join { client_id: 9 }).unwrap();
            assert_eq!(b.recv().unwrap().unwrap(), Message::Join { client_id: 9 });
        }
        assert_eq!(TransportKind::default(), TransportKind::InMemory);
    }

    fn update_message() -> Message {
        let mut values = vec![0.125, -3.5, 0.0, 7.25, -0.0, 1.0e-3];
        values.extend((0..58).map(|i| (i as f32 - 29.0) * 0.0625));
        Message::Update {
            update: crate::ModelUpdate {
                client_id: 2,
                round: 1,
                num_samples: 8,
                parameters: vec![("w".to_string(), Tensor::from_vec(values, &[64]).unwrap())],
            },
            shielded: Vec::new(),
        }
    }

    fn codecs() -> Vec<UpdateCodec> {
        vec![
            UpdateCodec::Raw,
            UpdateCodec::Bf16,
            UpdateCodec::Int8,
            UpdateCodec::TopK { k: 3 },
        ]
    }

    /// The codec extension of transport equivalence: under every codec both
    /// kinds deliver the same dequantized values, report the same logical
    /// traffic, and the coded serialized frames are smaller than raw.
    #[test]
    fn coded_links_stay_equivalent_across_kinds() {
        let message = update_message();
        for codec in codecs() {
            let (mem, mem_peer) = TransportKind::InMemory.duplex_with(codec);
            let (ser, ser_peer) = TransportKind::Serialized.duplex_with(codec);
            assert_eq!(mem.codec(), codec);
            assert_eq!(ser.codec(), codec);
            mem.send(&message).unwrap();
            ser.send(&message).unwrap();
            assert_eq!(mem.bytes_sent(), ser.bytes_sent(), "under {codec}");
            let via_memory = mem_peer.recv().unwrap().unwrap();
            let via_bytes = ser_peer.recv().unwrap().unwrap();
            // Bit-level equality via re-encode (NaN-proof).
            assert_eq!(via_memory.encode(), via_bytes.encode(), "under {codec}");
            // And both equal the codec's declared round trip.
            let expected = codec
                .round_trip_message(&message)
                .unwrap_or_else(|| message.clone());
            assert_eq!(via_memory.encode(), expected.encode(), "under {codec}");
            if !codec.is_raw() {
                assert!(
                    ser.bytes_serialized() < message.wire_size(),
                    "{codec} frames must shrink below the raw wire size"
                );
            }
        }
    }

    /// Control traffic is byte-identical whatever codec the link carries.
    #[test]
    fn coded_links_leave_control_traffic_raw() {
        for codec in codecs() {
            let (ser, peer) = TransportKind::Serialized.duplex_with(codec);
            let (raw, _raw_peer) = TransportKind::Serialized.duplex();
            for message in sample_messages() {
                ser.send(&message).unwrap();
                raw.send(&message).unwrap();
                assert_eq!(peer.recv().unwrap().unwrap(), message);
            }
            assert_eq!(ser.bytes_serialized(), raw.bytes_serialized());
        }
    }

    /// Broadcasting over coded links shares the raw control encoding and
    /// still rewrites upload payloads per link.
    #[test]
    fn coded_broadcast_shares_control_frames_and_rewrites_uploads() {
        let control = BroadcastFrame::new(sample_messages().remove(1));
        let upload = BroadcastFrame::new(update_message());
        for codec in codecs() {
            for kind in [TransportKind::InMemory, TransportKind::Serialized] {
                let (sender, receiver) = kind.duplex_with(codec);
                sender.send_broadcast(&control).unwrap();
                assert_eq!(receiver.recv().unwrap().unwrap(), *control.message());
                sender.send_broadcast(&upload).unwrap();
                let delivered = receiver.recv().unwrap().unwrap();
                let expected = codec
                    .round_trip_message(upload.message())
                    .unwrap_or_else(|| upload.message().clone());
                assert_eq!(
                    delivered.encode(),
                    expected.encode(),
                    "under {codec} / {kind:?}"
                );
            }
        }
    }
}
