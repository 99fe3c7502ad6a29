//! Deterministic fault injection and the recovery protocol around it.
//!
//! A [`FaultPlan`] wraps the *runtime-side* end of any [`Transport`] link in
//! a fault-injecting shim that can **drop**, **duplicate**,
//! **reorder-within-a-window**, **corrupt** (checksum-caught) and
//! **partition** the link, and can take a client seat dark mid-round per a
//! scripted [`CrashPoint`]. Every fault is scheduled in the federation's
//! own logical time and decided by a stateless ChaCha8 draw keyed on
//! `(plan seed, link id, event counter)`, never wall clock. That time is
//! the round, which crash windows key on, and an *instant* that only moves
//! forward: the sweep engine advances it by one before every delivery
//! sweep of every phase ([`FaultPlan::tick`]), so no two sweeps of a run
//! share an instant. The same seed therefore replays the same faults
//! bit-identically across repeats, both transports and any `PELTA_THREADS`
//! value: the determinism contract extends into the failure domain.
//!
//! Recovery is `Nack`-driven: when a faulted `Update`/`AggregateUpdate`
//! surfaces as [`Delivery::Faulted`], the runtime answers with a
//! [`NackReason::CorruptFrame`] refusal addressed to the frame's sender.
//! The wrapper intercepts that Nack on its way out, and — within the
//! bounded [`FaultConfig::max_retransmits`] budget — re-queues the cached
//! original for the next sweep. A retransmitted frame re-enters the fate
//! draw (links do not get healthier because a frame is a retry), so
//! recovery is probabilistic but budgeted and exactly reproducible.
//!
//! The per-frame fates only ever strike the frames a client *produces*
//! towards the consensus point — `Update`, `AggregateUpdate` and the
//! secure-aggregation [`Message::MaskShare`] *response* (a request carries
//! no seeds and rides the clean server→client direction); control traffic
//! (`Join`, `Leave`, `Nack`, …) is never dropped, duplicated, corrupted or
//! reordered, which keeps the protocol's round framing intact while its
//! payloads suffer.
//!
//! A partition is a property of the link, not of a frame: while a window
//! is open the wrapper holds **every** inbound frame, control frames and
//! the frames it holds itself (reordered, duplicated, retransmitted)
//! included, and the sweep that polls the link waits for it. A window
//! drawn at instant `t` holds the link through instant `t +
//! partition_sweeps - 1`, whichever phase or round those instants fall in;
//! its end instant `t + partition_sweeps` is open and draws no new window,
//! so every partitioned link delivers a frame at least once every
//! `partition_sweeps + 1` sweeps, even at partition rate 1.0. Every
//! delivery phase, between rounds as in them, is a clocked sweep to
//! quiescence, so a held `Join` or update always reaches its phase.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::{
    Delivery, FlError, Message, NackReason, Result, Topology, Transport, TransportKind,
    MAX_DELAY_SWEEPS,
};

/// Where a scripted crash strikes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashTarget {
    /// A client seat: its process dies mid-round (the reply it already sent
    /// is lost) and restarts at the rejoin round with a fresh handshake.
    Seat {
        /// The crashing client seat.
        seat: usize,
    },
    /// An edge aggregator (hierarchical topologies only): its subtree round
    /// is lost and it re-syncs to the root's round on rejoin
    /// ([`crate::EdgeAggregator::resync`]).
    Edge {
        /// The crashing edge index.
        edge: usize,
    },
}

/// One scripted crash-and-rejoin: the target is dark from `crash_round`
/// (striking mid-round: the round-`crash_round` broadcast is still
/// delivered, but nothing the target produces survives) until it re-joins
/// at `rejoin_round`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashPoint {
    /// What crashes.
    pub target: CrashTarget,
    /// The round the target dies in (mid-round).
    pub crash_round: usize,
    /// The round the target restarts and re-handshakes in (exclusive end of
    /// the dark window; must be greater than `crash_round`).
    pub rejoin_round: usize,
}

/// A declarative fault plan: per-frame fate rates, link-level partition
/// schedule, retransmission budget and scripted crashes. All probabilities
/// are evaluated by stateless seeded draws — see the module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed of every fault draw (fates, reorder delays, partitions).
    pub seed: u64,
    /// Probability a data frame is lost on the link (nothing delivered).
    pub drop: f32,
    /// Probability a data frame is delivered twice (the copy arrives one
    /// sweep later, intact).
    pub duplicate: f32,
    /// Probability a data frame arrives damaged; the damage is caught by
    /// the wire checksum and surfaced as [`Delivery::Faulted`].
    pub corrupt: f32,
    /// Probability a data frame is delayed by `1..=reorder_window` sweeps,
    /// letting later traffic overtake it.
    pub reorder: f32,
    /// Maximum reorder delay in sweeps (must be ≥ 1 when `reorder > 0`, and
    /// at most [`MAX_DELAY_SWEEPS`]).
    pub reorder_window: usize,
    /// Per-sweep probability a link goes dark for `partition_sweeps` sweeps
    /// (traffic is delayed, not lost: the round's sweeps wait for it). No
    /// window opens at the sweep another one ends, so the link heals there.
    pub partition: f32,
    /// Length of one partition window in sweeps (≥ 1 when `partition > 0`,
    /// and at most [`MAX_DELAY_SWEEPS`]).
    pub partition_sweeps: usize,
    /// How many times one frame may be retransmitted in response to
    /// [`NackReason::CorruptFrame`] before it is abandoned to the quorum /
    /// straggler path (at most [`MAX_DELAY_SWEEPS`]).
    pub max_retransmits: usize,
    /// Scripted crash-and-rejoin events.
    pub crashes: Vec<CrashPoint>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0xFA_17,
            drop: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            reorder: 0.0,
            reorder_window: 1,
            partition: 0.0,
            partition_sweeps: 1,
            max_retransmits: 2,
            crashes: Vec::new(),
        }
    }
}

impl FaultConfig {
    /// Validates the topology-independent parts of the plan: probability
    /// ranges, fate-rate partition, reorder/partition window shapes, the
    /// [`MAX_DELAY_SWEEPS`] cap on both windows and the retransmission
    /// budget (whatever the rates), and crash-window ordering.
    ///
    /// # Errors
    /// Returns [`FlError::InvalidConfig`] describing the first violation.
    pub fn validate_rates(&self) -> Result<()> {
        let rates = [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("corrupt", self.corrupt),
            ("reorder", self.reorder),
            ("partition", self.partition),
        ];
        for (name, rate) in rates {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(FlError::InvalidConfig {
                    reason: format!("fault rate `{name}` must be in [0, 1], got {rate}"),
                });
            }
        }
        let fate_sum = self.drop + self.duplicate + self.corrupt + self.reorder;
        if fate_sum > 1.0 {
            return Err(FlError::InvalidConfig {
                reason: format!(
                    "drop + duplicate + corrupt + reorder must not exceed 1, got {fate_sum}"
                ),
            });
        }
        if self.reorder > 0.0 && self.reorder_window == 0 {
            return Err(FlError::InvalidConfig {
                reason: "reorder_window must be at least 1 when reorder > 0".to_string(),
            });
        }
        if self.partition > 0.0 && self.partition_sweeps == 0 {
            return Err(FlError::InvalidConfig {
                reason: "partition_sweeps must be at least 1 when partition > 0".to_string(),
            });
        }
        let delays = [
            ("reorder_window", self.reorder_window),
            ("partition_sweeps", self.partition_sweeps),
            ("max_retransmits", self.max_retransmits),
        ];
        for (name, sweeps) in delays {
            if sweeps > MAX_DELAY_SWEEPS {
                return Err(FlError::InvalidConfig {
                    reason: format!(
                        "{name} {sweeps} exceeds MAX_DELAY_SWEEPS = {MAX_DELAY_SWEEPS}"
                    ),
                });
            }
        }
        for (index, crash) in self.crashes.iter().enumerate() {
            if crash.crash_round >= crash.rejoin_round {
                return Err(FlError::InvalidConfig {
                    reason: format!(
                        "crash window must rejoin after it crashes (crash_round {} >= rejoin_round {})",
                        crash.crash_round, crash.rejoin_round
                    ),
                });
            }
            if self.crashes[..index]
                .iter()
                .any(|c| c.target == crash.target)
            {
                return Err(FlError::InvalidConfig {
                    reason: format!("at most one crash window per target ({:?})", crash.target),
                });
            }
        }
        Ok(())
    }

    /// Full validation against a federation shape: the rates plus every
    /// crash target's existence under the topology.
    ///
    /// # Errors
    /// Returns [`FlError::InvalidConfig`] describing the first violation.
    pub fn validate(&self, clients: usize, topology: &Topology) -> Result<()> {
        self.validate_rates()?;
        for crash in &self.crashes {
            match crash.target {
                CrashTarget::Seat { seat } => {
                    if seat >= clients {
                        return Err(FlError::InvalidConfig {
                            reason: format!("crash target refers to seat {seat} of {clients}"),
                        });
                    }
                }
                CrashTarget::Edge { edge } => {
                    let edges = topology.num_edges();
                    if edges == 0 {
                        return Err(FlError::InvalidConfig {
                            reason: "edge crashes need a hierarchical topology".to_string(),
                        });
                    }
                    if edge >= edges {
                        return Err(FlError::InvalidConfig {
                            reason: format!("crash target refers to edge {edge} of {edges}"),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Counters of what a [`FaultPlan`] actually did, shared by every link it
/// wrapped. Purely observational — nothing reads them back into behaviour,
/// so they never perturb determinism.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Data frames lost outright.
    pub dropped: usize,
    /// Data frames delivered twice.
    pub duplicated: usize,
    /// Data frames damaged in flight (caught by the checksum).
    pub corrupted: usize,
    /// Data frames delayed past later traffic.
    pub reordered: usize,
    /// Partition windows opened.
    pub partitions: usize,
    /// Nack-triggered retransmissions queued.
    pub retransmissions: usize,
    /// Retransmitted frames that finally arrived intact.
    pub recoveries: usize,
    /// Frames swallowed by a crash window (both directions).
    pub suppressed: usize,
}

/// A live fault plan: the validated [`FaultConfig`] plus the shared logical
/// clock and stats every wrapped link reads. The clock is `(round,
/// instant)`: the scheduler sets the round ([`FaultPlan::begin_round`]),
/// the sweep engine advances the instant ([`FaultPlan::tick`]), and the
/// wrappers only ever read it.
#[derive(Clone)]
pub struct FaultPlan {
    config: Arc<FaultConfig>,
    clock: Arc<Mutex<(usize, u64)>>,
    stats: Arc<Mutex<FaultStats>>,
}

impl FaultPlan {
    /// Builds a plan from a rate-validated config.
    ///
    /// # Errors
    /// Returns [`FlError::InvalidConfig`] if the rates are malformed (see
    /// [`FaultConfig::validate_rates`]).
    pub fn new(config: FaultConfig) -> Result<FaultPlan> {
        config.validate_rates()?;
        Ok(FaultPlan {
            config: Arc::new(config),
            clock: Arc::new(Mutex::new((0, 0))),
            stats: Arc::new(Mutex::new(FaultStats::default())),
        })
    }

    /// Enters `round`, which crash windows key on; the instant carries on.
    pub fn begin_round(&self, round: usize) {
        self.clock.lock().0 = round;
    }

    /// Advances the instant by one. The sweep engine ticks before every
    /// delivery sweep, so each sweep of a run has an instant of its own.
    pub fn tick(&self) {
        self.clock.lock().1 += 1;
    }

    /// A snapshot of what the plan has done so far.
    pub fn stats(&self) -> FaultStats {
        *self.stats.lock()
    }

    /// The crash window scripted for a client seat, if any.
    pub fn seat_crash(&self, seat: usize) -> Option<(usize, usize)> {
        self.config.crashes.iter().find_map(|c| match c.target {
            CrashTarget::Seat { seat: s } if s == seat => Some((c.crash_round, c.rejoin_round)),
            _ => None,
        })
    }

    /// The crash window scripted for an edge aggregator, if any.
    pub fn edge_crash(&self, edge: usize) -> Option<(usize, usize)> {
        self.config.crashes.iter().find_map(|c| match c.target {
            CrashTarget::Edge { edge: e } if e == edge => Some((c.crash_round, c.rejoin_round)),
            _ => None,
        })
    }

    /// Wraps the runtime-side end of a client seat's link (the seat link of
    /// a star or gossip fabric, or an edge member link). Seat crash windows
    /// apply here: inbound traffic is discarded while the seat is dark,
    /// outbound traffic (broadcasts, Nacks) is suppressed strictly between
    /// the crash and rejoin rounds.
    pub fn wrap_seat(&self, seat: usize, inner: Box<dyn Transport>) -> Box<dyn Transport> {
        self.wrap((1 << 32) | seat as u64, self.seat_crash(seat), inner)
    }

    /// Wraps the runtime-side (root) end of an edge aggregator's uplink.
    /// Edge crash windows are orchestrated by the scheduler (the edge's
    /// state machine must abort and re-sync), not by the wrapper.
    pub fn wrap_uplink(&self, edge: usize, inner: Box<dyn Transport>) -> Box<dyn Transport> {
        self.wrap((2 << 32) | edge as u64, None, inner)
    }

    fn wrap(
        &self,
        link: u64,
        crash: Option<(usize, usize)>,
        inner: Box<dyn Transport>,
    ) -> Box<dyn Transport> {
        Box::new(FaultyTransport {
            inner,
            link,
            crash,
            config: Arc::clone(&self.config),
            clock: Arc::clone(&self.clock),
            stats: Arc::clone(&self.stats),
            state: Mutex::new(LinkState::default()),
        })
    }
}

/// Salt separating fate draws from partition draws on the same link.
const FATE_SALT: u64 = 0;
const PARTITION_SALT: u64 = 1 << 63;

/// Stateless splitmix-style key mixer: every fault event derives its own
/// ChaCha8 stream from `(seed, link, counter)`, so the draw sequence is a
/// pure function of the plan — independent of transport kind, thread count
/// and everything else that must not perturb replay.
fn mix(seed: u64, link: u64, counter: u64) -> u64 {
    let mut z = seed
        ^ link.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ counter.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps 64 random bits to a uniform f32 in `[0, 1)` (24-bit mantissa path).
fn unit(bits: u64) -> f32 {
    ((bits >> 40) as f32) / ((1u64 << 24) as f32)
}

/// The sender and round of a faultable data frame; control frames are
/// never faulted. A [`Message::MaskShare`] *response* (seeds present) is a
/// client-produced payload like an update — and its `(sender, round)` key
/// lets a `CorruptFrame` Nack trigger the same bounded retransmission.
fn faultable(message: &Message) -> Option<(usize, usize)> {
    match message {
        Message::Update { update, .. } => Some((update.client_id, update.round)),
        Message::AggregateUpdate { origin, round, .. } => Some((*origin, *round)),
        Message::MaskShare {
            client_id,
            round,
            seeds,
            ..
        } if !seeds.is_empty() => Some((*client_id, *round)),
        _ => None,
    }
}

/// A frame the wrapper is holding for a later sweep.
struct HeldFrame {
    /// The instant at which the frame becomes deliverable.
    release: u64,
    message: Message,
    /// Retransmissions already spent on this frame.
    budget_used: usize,
    /// Whether the frame re-enters the fate draw on delivery
    /// (retransmissions do; duplicate/reorder holds arrive intact).
    refate: bool,
    /// Whether this is a Nack-triggered retransmission.
    retransmit: bool,
}

/// The original of a faulted frame, kept until its Nack (or never).
struct CachedFrame {
    message: Message,
    budget_used: usize,
}

#[derive(Default)]
struct LinkState {
    fate_counter: u64,
    /// Held frames in push order, which breaks ties between frames due at
    /// the same time (FIFO).
    held: Vec<HeldFrame>,
    /// Faulted originals keyed by `(sender, round)`, awaiting a
    /// `CorruptFrame` Nack to trigger retransmission.
    cached: BTreeMap<(usize, usize), CachedFrame>,
    /// Exclusive end instant of the active partition window.
    partition_until: Option<u64>,
    /// Last instant a partition draw was made at (one per instant) or a
    /// window healed at (no draw there).
    partition_drawn: Option<u64>,
}

/// The fault-injecting wrapper around a runtime-side link end. See the
/// module docs for the full fault model.
struct FaultyTransport {
    inner: Box<dyn Transport>,
    link: u64,
    /// Seat crash window `(crash_round, rejoin_round)`, if scripted.
    crash: Option<(usize, usize)>,
    config: Arc<FaultConfig>,
    clock: Arc<Mutex<(usize, u64)>>,
    stats: Arc<Mutex<FaultStats>>,
    state: Mutex<LinkState>,
}

impl FaultyTransport {
    fn rng_for(&self, salt: u64, counter: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(mix(self.config.seed, self.link ^ salt, counter))
    }

    /// Inbound dark: the seat is dead from the crash round (its mid-round
    /// reply is lost) until it rejoins.
    fn inbound_dark(&self, round: usize) -> bool {
        self.crash
            .is_some_and(|(crash, rejoin)| round >= crash && round < rejoin)
    }

    /// Outbound dark: strictly between crash and rejoin — the crash-round
    /// broadcast still reaches the seat (it dies mid-round), and the
    /// rejoin-round broadcast restarts it.
    fn outbound_dark(&self, round: usize) -> bool {
        self.crash
            .is_some_and(|(crash, rejoin)| round > crash && round < rejoin)
    }

    /// Whether the link is inside (or just entered) a partition window at
    /// instant `now`. Draws at most once per instant, keyed on the instant
    /// itself, and never at a window's exclusive end: that instant heals the
    /// link, so a partitioned link opens at least once every
    /// `partition_sweeps + 1` sweeps whatever the rate.
    fn partition_active(&self, state: &mut LinkState, now: u64) -> bool {
        if let Some(until) = state.partition_until {
            if now < until {
                return true;
            }
            state.partition_until = None;
            if now == until {
                state.partition_drawn = Some(now);
            }
        }
        if self.config.partition <= 0.0 || state.partition_drawn == Some(now) {
            return false;
        }
        state.partition_drawn = Some(now);
        let mut rng = self.rng_for(PARTITION_SALT, now);
        if unit(rng.next_u64()) < self.config.partition {
            state.partition_until = Some(now + self.config.partition_sweeps as u64);
            self.stats.lock().partitions += 1;
            return true;
        }
        false
    }
}

impl Transport for FaultyTransport {
    fn send(&self, message: &Message) -> Result<()> {
        let (round, now) = *self.clock.lock();
        if self.outbound_dark(round) {
            self.stats.lock().suppressed += 1;
            return Ok(());
        }
        if let Message::Nack {
            client_id,
            round: nack_round,
            reason: NackReason::CorruptFrame,
        } = message
        {
            let mut state = self.state.lock();
            if let Some(cached) = state.cached.remove(&(*client_id, *nack_round)) {
                if cached.budget_used < self.config.max_retransmits {
                    state.held.push(HeldFrame {
                        release: now + 1,
                        message: cached.message,
                        budget_used: cached.budget_used + 1,
                        refate: true,
                        retransmit: true,
                    });
                    self.stats.lock().retransmissions += 1;
                }
            }
        }
        self.inner.send(message)
    }

    fn send_broadcast(&self, frame: &crate::BroadcastFrame) -> Result<()> {
        let (round, _) = *self.clock.lock();
        if self.outbound_dark(round) {
            self.stats.lock().suppressed += 1;
            return Ok(());
        }
        self.inner.send_broadcast(frame)
    }

    fn recv(&self) -> Result<Option<Message>> {
        // The unchecked path, which only the discard drains of a crashed or
        // re-syncing edge take: a faulted frame is simply lost.
        loop {
            match self.recv_checked()? {
                Delivery::Frame(message) => return Ok(Some(message)),
                Delivery::Empty => return Ok(None),
                Delivery::Faulted { .. } => continue,
            }
        }
    }

    fn recv_checked(&self) -> Result<Delivery> {
        let (round, now) = *self.clock.lock();
        let mut state = self.state.lock();
        if self.inbound_dark(round) {
            let mut suppressed = state.held.len() + state.cached.len();
            state.held.clear();
            state.cached.clear();
            while self.inner.recv()?.is_some() {
                suppressed += 1;
            }
            if suppressed > 0 {
                self.stats.lock().suppressed += suppressed;
            }
            return Ok(Delivery::Empty);
        }
        loop {
            // A partition window holds everything, held frames included;
            // then due held frames (earliest release, then FIFO: the first
            // of equal keys wins), then the live link.
            if self.partition_active(&mut state, now) {
                return Ok(Delivery::Empty);
            }
            let due = state
                .held
                .iter()
                .enumerate()
                .filter(|(_, h)| h.release <= now)
                .min_by_key(|&(_, h)| h.release)
                .map(|(index, _)| index);
            let (message, budget_used, refate, retransmit) = if let Some(index) = due {
                let held = state.held.remove(index);
                (held.message, held.budget_used, held.refate, held.retransmit)
            } else if let Some(message) = self.inner.recv()? {
                (message, 0, true, false)
            } else {
                return Ok(Delivery::Empty);
            };
            let Some((sender, frame_round)) = faultable(&message) else {
                return Ok(Delivery::Frame(message));
            };
            if !refate {
                if retransmit {
                    self.stats.lock().recoveries += 1;
                }
                return Ok(Delivery::Frame(message));
            }
            let counter = state.fate_counter;
            state.fate_counter += 1;
            let mut rng = self.rng_for(FATE_SALT, counter);
            let fate = unit(rng.next_u64());
            let config = &self.config;
            if fate < config.corrupt {
                // Genuinely exercise the checksum: a single-byte flip of
                // the real encoding — the compressed frame when the link
                // carries a codec — must fail to decode.
                let mut tampered = message.encode_with(self.inner.codec());
                let position = (rng.next_u64() as usize) % tampered.len();
                tampered[position] ^= 0x40;
                debug_assert!(
                    Message::decode(&tampered).is_err(),
                    "single-byte tamper must fail the wire checksum"
                );
                state.cached.insert(
                    (sender, frame_round),
                    CachedFrame {
                        message,
                        budget_used,
                    },
                );
                self.stats.lock().corrupted += 1;
                return Ok(Delivery::Faulted {
                    sender,
                    round: frame_round,
                    lost: false,
                });
            }
            if fate < config.corrupt + config.drop {
                state.cached.insert(
                    (sender, frame_round),
                    CachedFrame {
                        message,
                        budget_used,
                    },
                );
                self.stats.lock().dropped += 1;
                return Ok(Delivery::Faulted {
                    sender,
                    round: frame_round,
                    lost: true,
                });
            }
            if fate < config.corrupt + config.drop + config.duplicate {
                state.held.push(HeldFrame {
                    release: now + 1,
                    message: message.clone(),
                    budget_used,
                    refate: false,
                    retransmit: false,
                });
                let mut stats = self.stats.lock();
                stats.duplicated += 1;
                if retransmit {
                    stats.recoveries += 1;
                }
                drop(stats);
                return Ok(Delivery::Frame(message));
            }
            if fate < config.corrupt + config.drop + config.duplicate + config.reorder {
                let delay = 1 + rng.next_u64() % config.reorder_window.max(1) as u64;
                state.held.push(HeldFrame {
                    release: now + delay,
                    message,
                    budget_used,
                    refate: false,
                    retransmit,
                });
                self.stats.lock().reordered += 1;
                continue;
            }
            if retransmit {
                self.stats.lock().recoveries += 1;
            }
            return Ok(Delivery::Frame(message));
        }
    }

    fn has_pending(&self) -> bool {
        self.inner.has_pending() || !self.state.lock().held.is_empty()
    }

    fn bytes_sent(&self) -> usize {
        self.inner.bytes_sent()
    }

    fn bytes_serialized(&self) -> usize {
        self.inner.bytes_serialized()
    }

    fn messages_sent(&self) -> usize {
        self.inner.messages_sent()
    }

    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }

    fn codec(&self) -> crate::UpdateCodec {
        self.inner.codec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelUpdate;
    use pelta_tensor::Tensor;

    fn update(client: usize, round: usize, value: f32) -> Message {
        Message::Update {
            update: ModelUpdate {
                client_id: client,
                round,
                num_samples: 10,
                parameters: vec![(
                    "w".to_string(),
                    Tensor::from_vec(vec![value, value], &[2]).unwrap(),
                )],
            },
            shielded: Vec::new(),
        }
    }

    #[test]
    fn rate_validation_rejects_malformed_plans() {
        assert!(FaultPlan::new(FaultConfig::default()).is_ok());
        let bad = |f: fn(&mut FaultConfig)| {
            let mut config = FaultConfig::default();
            f(&mut config);
            FaultPlan::new(config).is_err()
        };
        assert!(bad(|c| c.drop = -0.1));
        assert!(bad(|c| c.corrupt = 1.5));
        assert!(bad(|c| c.partition = f32::NAN));
        assert!(bad(|c| {
            c.drop = 0.5;
            c.duplicate = 0.3;
            c.reorder = 0.3;
        }));
        assert!(bad(|c| {
            c.reorder = 0.1;
            c.reorder_window = 0;
        }));
        assert!(bad(|c| {
            c.partition = 0.1;
            c.partition_sweeps = 0;
        }));
        assert!(bad(|c| {
            c.crashes.push(CrashPoint {
                target: CrashTarget::Seat { seat: 0 },
                crash_round: 3,
                rejoin_round: 3,
            });
        }));
        assert!(bad(|c| {
            for _ in 0..2 {
                c.crashes.push(CrashPoint {
                    target: CrashTarget::Seat { seat: 0 },
                    crash_round: 1,
                    rejoin_round: 2,
                });
            }
        }));
        // Topology-aware validation: out-of-range targets, edge crashes
        // outside a hierarchy.
        let mut config = FaultConfig::default();
        config.crashes.push(CrashPoint {
            target: CrashTarget::Edge { edge: 0 },
            crash_round: 1,
            rejoin_round: 2,
        });
        assert!(config.validate(4, &Topology::Star).is_err());
        assert!(config
            .validate(4, &Topology::hierarchical(vec![vec![0, 1], vec![2, 3]]))
            .is_ok());
        config.crashes[0].target = CrashTarget::Seat { seat: 9 };
        assert!(config.validate(4, &Topology::Star).is_err());
    }

    #[test]
    fn fault_sequences_replay_identically_across_transports() {
        let config = FaultConfig {
            seed: 0xC0FFEE,
            drop: 0.2,
            duplicate: 0.2,
            corrupt: 0.2,
            reorder: 0.2,
            reorder_window: 3,
            ..FaultConfig::default()
        };
        let trace = |kind: TransportKind| -> Vec<String> {
            let plan = FaultPlan::new(config.clone()).unwrap();
            let (agent_end, runtime_end) = kind.duplex();
            let link = plan.wrap_seat(0, runtime_end);
            let mut observed = Vec::new();
            for round in 0..6usize {
                plan.begin_round(round);
                for burst in 0..4usize {
                    agent_end.send(&update(0, round, burst as f32)).unwrap();
                }
                for sweep in 0..12usize {
                    plan.tick();
                    loop {
                        match link.recv_checked().unwrap() {
                            Delivery::Empty => break,
                            delivery => observed.push(format!("{round}/{sweep}: {delivery:?}")),
                        }
                    }
                }
            }
            observed
        };
        let in_memory = trace(TransportKind::InMemory);
        assert_eq!(in_memory, trace(TransportKind::InMemory), "replay drifted");
        assert_eq!(
            in_memory,
            trace(TransportKind::Serialized),
            "fault schedule depends on the transport kind"
        );
        assert!(!in_memory.is_empty());
    }

    #[test]
    fn corrupt_nack_triggers_bounded_retransmission() {
        // corrupt = 1.0: every delivery (including retransmissions) is
        // damaged, so the budget must be exhausted exactly.
        let plan = FaultPlan::new(FaultConfig {
            corrupt: 1.0,
            max_retransmits: 2,
            ..FaultConfig::default()
        })
        .unwrap();
        let (agent_end, runtime_end) = TransportKind::InMemory.duplex();
        let link = plan.wrap_seat(3, runtime_end);
        plan.begin_round(0);
        agent_end.send(&update(3, 0, 1.0)).unwrap();
        let mut faults = 0;
        for _ in 0..8 {
            plan.tick();
            while let Delivery::Faulted { sender, round, .. } = link.recv_checked().unwrap() {
                assert_eq!((sender, round), (3, 0));
                faults += 1;
                link.send(&Message::Nack {
                    client_id: 3,
                    round: 0,
                    reason: NackReason::CorruptFrame,
                })
                .unwrap();
            }
        }
        // One original + two retransmissions, then the frame is abandoned.
        assert_eq!(faults, 3);
        let stats = plan.stats();
        assert_eq!(stats.corrupted, 3);
        assert_eq!(stats.retransmissions, 2);
        assert_eq!(stats.recoveries, 0);
        // The agent still saw the diagnostic Nacks.
        let mut nacks = 0;
        while agent_end.recv().unwrap().is_some() {
            nacks += 1;
        }
        assert_eq!(nacks, 3);
    }

    #[test]
    fn seat_crash_window_goes_dark_and_comes_back() {
        let plan = FaultPlan::new(FaultConfig {
            crashes: vec![CrashPoint {
                target: CrashTarget::Seat { seat: 1 },
                crash_round: 1,
                rejoin_round: 3,
            }],
            ..FaultConfig::default()
        })
        .unwrap();
        let (agent_end, runtime_end) = TransportKind::InMemory.duplex();
        let link = plan.wrap_seat(1, runtime_end);
        for round in 0..4usize {
            plan.begin_round(round);
            // Outbound: the crash-round broadcast is still delivered (the
            // seat dies mid-round), the dark round is suppressed.
            link.send(&Message::RoundEnd { round }).unwrap();
            let outbound_delivered = agent_end.recv().unwrap().is_some();
            assert_eq!(outbound_delivered, round != 2, "round {round} outbound");
            // Inbound: everything the seat sends in [crash, rejoin) is lost.
            agent_end.send(&update(1, round, 0.0)).unwrap();
            let inbound = link.recv_checked().unwrap();
            if (1..3).contains(&round) {
                assert_eq!(inbound, Delivery::Empty, "round {round} must be dark");
            } else {
                assert!(
                    matches!(inbound, Delivery::Frame(_)),
                    "round {round} must deliver"
                );
            }
        }
        assert!(plan.stats().suppressed >= 3);
    }

    #[test]
    fn a_round_long_partition_drawn_after_sweep_zero_does_not_overflow() {
        // The longest window validation admits, drawn at instant 1, must
        // hold the link dark to its last instant instead of reopening it at
        // once.
        let plan = FaultPlan::new(FaultConfig {
            partition: 1.0,
            partition_sweeps: MAX_DELAY_SWEEPS,
            ..FaultConfig::default()
        })
        .unwrap();
        let (agent_end, runtime_end) = TransportKind::InMemory.duplex();
        let link = plan.wrap_seat(0, runtime_end);
        agent_end.send(&update(0, 0, 1.0)).unwrap();
        plan.begin_round(0);
        for instant in 1..=MAX_DELAY_SWEEPS {
            plan.tick();
            assert_eq!(
                link.recv_checked().unwrap(),
                Delivery::Empty,
                "instant {instant}"
            );
        }
        assert_eq!(plan.stats().partitions, 1);
    }

    /// Two consecutive sweep phases over one link at partition rate 1.0 run
    /// on one clock: every sweep meets an instant of its own, so no instant
    /// draws twice, and the window drawn at the first phase's last sweep
    /// holds the second phase for its remaining sweeps only.
    #[test]
    fn consecutive_phases_share_one_monotone_instant() {
        let plan = FaultPlan::new(FaultConfig {
            partition: 1.0,
            partition_sweeps: 3,
            ..FaultConfig::default()
        })
        .unwrap();
        let (agent_end, runtime_end) = TransportKind::InMemory.duplex();
        let mut links = vec![plan.wrap_seat(0, runtime_end)];
        // (phase, sweep, instant, delivered, windows opened so far)
        let mut trace = Vec::new();
        for phase in 0..2 {
            agent_end.send(&update(0, 0, phase as f32)).unwrap();
            crate::sweep::run(Some(&plan), 0, |sweep| {
                let outcome = crate::sweep::sweep_every(&mut links, sweep, 0..1, |_, _, _| Ok(()))?;
                let instant = plan.clock.lock().1;
                let windows = plan.stats().partitions;
                trace.push((phase, sweep, instant, outcome.delivered, windows));
                Ok(outcome)
            })
            .unwrap();
        }
        let instants: Vec<u64> = trace.iter().map(|step| step.2).collect();
        assert_eq!(instants, (1..=9).collect::<Vec<u64>>(), "{trace:?}");
        // A window opens at instants 1, 5 and 9: each lasts three sweeps,
        // and its end instant heals the link and draws nothing.
        let drawn: Vec<u64> = trace
            .iter()
            .zip(std::iter::once(0).chain(trace.iter().map(|step| step.4)))
            .filter(|(step, before)| step.4 > *before)
            .map(|(step, _)| step.2)
            .collect();
        assert_eq!(drawn, vec![1, 5, 9], "{trace:?}");
        // Phase 0 delivers at its heal instant 4 and draws a window at its
        // last sweep (instant 5); phase 1 waits out that window's two
        // remaining sweeps and delivers at its sweep 2 (instant 8).
        let delivered: Vec<(usize, usize)> = trace
            .iter()
            .filter(|step| step.3)
            .map(|step| (step.0, step.1))
            .collect();
        assert_eq!(delivered, vec![(0, 3), (1, 2)], "{trace:?}");
    }

    #[test]
    fn duplicates_arrive_intact_one_sweep_later() {
        let plan = FaultPlan::new(FaultConfig {
            duplicate: 1.0,
            ..FaultConfig::default()
        })
        .unwrap();
        let (agent_end, runtime_end) = TransportKind::InMemory.duplex();
        let link = plan.wrap_seat(0, runtime_end);
        plan.begin_round(5);
        agent_end.send(&update(0, 5, 2.5)).unwrap();
        plan.tick();
        let Delivery::Frame(first) = link.recv_checked().unwrap() else {
            panic!("the original must be delivered in its sweep");
        };
        assert!(link.has_pending(), "the copy is held for the next sweep");
        assert_eq!(link.recv_checked().unwrap(), Delivery::Empty);
        plan.tick();
        let Delivery::Frame(second) = link.recv_checked().unwrap() else {
            panic!("the copy must be delivered one sweep later");
        };
        assert_eq!(first, second, "the duplicate must be bit-identical");
        assert_eq!(plan.stats().duplicated, 1);
        assert!(!link.has_pending());
    }

    /// A held frame that falls due inside a partition window waits for the
    /// window's heal instant: the window holds every inbound frame of its
    /// link, held ones included.
    #[test]
    fn a_partition_window_holds_a_due_duplicate() {
        let plan = FaultPlan::new(FaultConfig {
            duplicate: 1.0,
            partition: 1.0,
            partition_sweeps: 2,
            ..FaultConfig::default()
        })
        .unwrap();
        let (agent_end, runtime_end) = TransportKind::InMemory.duplex();
        let link = plan.wrap_seat(0, runtime_end);
        plan.begin_round(0);
        agent_end.send(&update(0, 0, 2.5)).unwrap();
        // Windows open at instants 1, 4 and 7, each healing two instants
        // later.
        let mut arrivals = Vec::new();
        for instant in 1..=7u64 {
            plan.tick();
            if let Delivery::Frame(message) = link.recv_checked().unwrap() {
                arrivals.push((instant, message));
            }
        }
        let instants: Vec<u64> = arrivals.iter().map(|(instant, _)| *instant).collect();
        assert_eq!(
            instants,
            vec![3, 6],
            "the copy fell due at 4, inside a window"
        );
        assert_eq!(arrivals[0].1, arrivals[1].1, "the copy is intact");
        assert_eq!(plan.stats().partitions, 3);
        assert!(!link.has_pending());
    }
}
