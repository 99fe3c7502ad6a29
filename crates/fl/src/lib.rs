//! # pelta-fl
//!
//! The **message-driven federated-learning runtime** of the Pelta
//! reproduction: the setting in which the paper's threat model lives
//! (Fig. 1) — including its adversaries, which are first-class scheduler
//! participants racing the honest clients inside the same deterministic
//! delivery sweeps.
//!
//! ## Architecture
//!
//! * **Wire layer** — every exchange is a [`Message`] of the versioned
//!   protocol (`Join`, `RoundStart`, `Update`, `RoundEnd`, `Leave`,
//!   `Nack`), with a checksummed binary encoding in which every `f32`
//!   travels as its exact bit pattern. Messages cross a [`Transport`]:
//!   either the zero-copy [`InMemoryTransport`] or the
//!   [`SerializedTransport`] loopback that forces every exchange through
//!   bytes — both produce bit-identical federations, which the integration
//!   tests assert. An [`UpdateCodec`] (see [`mod@codec`]) optionally
//!   compresses the upload frames — bfloat16 truncation, symmetric Int8
//!   quantization or deterministic TopK sparsification — with
//!   bit-reproducible decode, so the determinism contract holds per codec
//!   and `Raw` ships every `f32` as its exact bit pattern.
//! * **Server layer** — [`FedAvgServer`] is a per-round state machine
//!   (*Broadcasting → Collecting → Aggregating*) under a
//!   [`ParticipationPolicy`]: minimum quorum, per-round client sampling, a
//!   straggler deadline measured in **delivered messages** (never wall
//!   clock, so runs are deterministic), and dropout/rejoin handling. The
//!   server applies its [`AggregationRule`] — plain sample-weighted FedAvg,
//!   norm clipping, coordinate-wise trimmed mean, or distance-based
//!   Krum / multi-Krum selection — through the crate's one fold, the
//!   [`AggregationFold`] of [`mod@robust`] (weights renormalise over the
//!   clients that actually reported; [`aggregate_with_rule`], its only
//!   buffered driver, folds an update set for call-level use). Under the
//!   **streaming fold contract** (see [`mod@robust`]),
//!   FedAvg and norm clipping fold each accepted update as it is delivered
//!   and drop the payload immediately — peak memory stays O(model), not
//!   O(population) — while the trimmed mean and the Krum family buffer by
//!   mathematical necessity; either way the bits are identical to a
//!   buffered fold because buffered aggregation *is* the same fold, driven
//!   from a loop.
//! * **Seat layer** — every client seat is one runtime-private seat type
//!   that owns the link, the `Join` handshake, the inbox drain, the
//!   scheduled mid-round `Leave` and the traffic counters; only its answer
//!   to a broadcast depends on its [`AgentRole`]. The honest seat trains
//!   with an [`FlClient`]; a backdoor seat ships boosted trigger-poisoned
//!   updates from a [`BackdoorClient`] (the adaptive variant re-tunes its
//!   boost each round against the aggregation outcome it observes); a free
//!   rider echoes the broadcast under a lying weight while Nack-spamming
//!   the straggler deadline; and a probing seat runs white-box evasion
//!   probes of every broadcast with a [`CompromisedClient`] behind honest
//!   cover traffic. A [`ScenarioSpec`] assigns roles to seats (and selects
//!   the data partition — IID, label skew, or Dirichlet(α)); the server
//!   cannot tell adversaries apart by message shape or scheduling, only
//!   (possibly) by its aggregation rule.
//! * **Topology layer** — a [`Topology`] routes the updates to the
//!   consensus point: the flat [`Topology::Star`] hub, a
//!   [`Topology::Hierarchical`] tree of [`EdgeAggregator`]s (each running
//!   the root's admission state machine per subtree, with per-level quorum
//!   and straggler semantics, folding nothing and forwarding one
//!   subtree-addressed [`Message::AggregateUpdate`] upstream), or a
//!   [`Topology::Gossip`] mesh flooding updates peer-to-peer with a final
//!   deterministic consensus fold. Member granularity always survives to
//!   the consensus point, so the configured rule folds the same update set
//!   whatever the route — the global model is **bit-identical across
//!   topologies** under FedAvg with full participation (see
//!   [`mod@topology`]).
//! * **Security layer** — when a deployment shields updates, the
//!   enclave-resident parameter segments of the Pelta shield travel sealed
//!   through the attested [`ShieldedUpdateChannel`] (`pelta-tee` sealing +
//!   WaTZ-style attestation), never in plaintext — including through the
//!   aggregator hop, which forwards blobs it cannot open; byte accounting
//!   is surfaced per round next to the core `ShieldReport`. At the root,
//!   one owner holds the enclave's state (the channel and, under secure
//!   aggregation, the mask context and the round's stash), and every
//!   update reaches the server by value through one intake that reassembles
//!   its sealed segments first.
//!
//! * **Fault model** — a [`FaultConfig`] attached to the scenario (see
//!   [`mod@fault`]) wraps every runtime-side link in a deterministic chaos
//!   shim: data frames can be dropped, duplicated, reordered within a
//!   window, corrupted (caught by the wire checksum and surfaced as
//!   [`Delivery::Faulted`]) or stalled behind a link partition, and
//!   scripted [`CrashPoint`]s take a client seat or an [`EdgeAggregator`]
//!   dark mid-round. Recovery is in-protocol: a faulted `Update` or
//!   `AggregateUpdate` draws a [`NackReason::CorruptFrame`] refusal (a
//!   *delivered* corrupt frame burns the straggler deadline like any other
//!   delivery; a lost one does not), which triggers bounded retransmission
//!   at the wrapper; a duplicated frame is refused first-wins with
//!   [`NackReason::Duplicate`] and never folds twice; a crashed edge
//!   aborts its subtree round (degrading through the quorum/withholding
//!   path) and re-syncs to the root's round on rejoin. All
//!   faults are scheduled in rounds and delivery sweeps and drawn from the
//!   plan's seed — never wall clock — so a faulted run replays
//!   bit-identically.
//!
//! The [`Federation`] runtime wires all of this together: parallel local
//! work on the shared compute pool, deterministic delivery sweeps, and
//! central evaluation. Determinism contract: for a fixed scenario —
//! including any mix of adversaries, dropouts, latency schedules, robust
//! rules, topologies and injected fault plans — the global model is
//! bit-identical across repeats, across transports and at any
//! `PELTA_THREADS`.
//!
//! # Example
//!
//! ```rust,no_run
//! use pelta_data::{Dataset, DatasetSpec, GeneratorConfig, Partition};
//! use pelta_fl::{Federation, FederationConfig, ParticipationPolicy, TransportKind};
//! use pelta_tensor::SeedStream;
//!
//! # fn main() -> Result<(), pelta_fl::FlError> {
//! let dataset = Dataset::generate(DatasetSpec::Cifar10Like, &GeneratorConfig::default(), 1);
//! let mut seeds = SeedStream::new(1);
//! let mut federation = Federation::vit_federation(
//!     &dataset,
//!     &FederationConfig {
//!         clients: 4,
//!         rounds: 2,
//!         transport: TransportKind::Serialized,
//!         policy: ParticipationPolicy {
//!             quorum: 3,
//!             sample: 0,
//!             straggler_deadline: 0,
//!         },
//!         ..FederationConfig::default()
//!     },
//!     Partition::Iid,
//!     &mut seeds,
//! )?;
//! let history = federation.run(&mut seeds)?;
//! println!("final global accuracy: {:.1}%", history.final_accuracy * 100.0);
//! # Ok(())
//! # }
//! ```
//!
//! The runtime's scheduling, folding, fault and secure-aggregation layers
//! all uphold the repository-wide bit-replay contract; the consolidated
//! normative statement is `docs/determinism.md`.

#![deny(rustdoc::broken_intra_doc_links)]

mod client;
pub mod codec;
mod error;
pub mod fault;
mod federation;
mod malicious;
mod message;
mod poisoning;
pub mod robust;
mod scenario;
mod seat;
pub mod secure_agg;
mod server;
mod shielded;
mod sweep;
pub mod topology;
mod transport;

pub use client::{
    export_parameters, import_parameters, split_segments, FlClient, LocalTrainingReport,
};
pub use codec::UpdateCodec;
pub use error::FlError;
pub use fault::{CrashPoint, CrashTarget, FaultConfig, FaultPlan, FaultStats};
pub use federation::{ClientSchedule, Federation, FederationConfig, RoundRecord, RunHistory};
pub use malicious::{AttackKind, CompromisedClient, EvasionReport};
pub use message::{GlobalModel, MemberUpdate, Message, ModelUpdate, NackReason, PROTOCOL_VERSION};
pub use poisoning::{backdoor_success_rate, BackdoorClient, TrojanTrigger};
pub use robust::{aggregate_with_rule, AggregationFold, AggregationRule};
pub use scenario::{AgentRole, RoleAssignment, ScenarioSpec};
pub use secure_agg::{pair_seeds_for_client, AggregatorMaskContext, ClientMaskContext};
pub use server::{FedAvgServer, ParticipationPolicy, RoundPhase, RoundSummary};
pub use shielded::{ShieldedTransferReport, ShieldedUpdateChannel};
pub use sweep::{SweepOutcome, MAX_DELAY_SWEEPS};
pub use topology::{EdgeAggregator, Topology};
pub use transport::{
    BroadcastFrame, Delivery, InMemoryTransport, SerializedTransport, Transport, TransportKind,
};

/// Convenience alias for results returned throughout this crate.
pub type Result<T> = std::result::Result<T, FlError>;
