//! The message-driven federation runtime: transports, the per-round server
//! state machine, parallel local training, deterministic message delivery,
//! and central evaluation.
//!
//! Each client seat — honest, or one of the adversaries a [`ScenarioSpec`]
//! assigns as its [`AgentRole`] — is bound to one end of a duplex
//! [`Transport`] link; the server holds the other end. A round proceeds as
//!
//! 1. scheduled rejoins send [`Message::Join`]; all pending client→server
//!    traffic is delivered, in the same clocked sweeps as step 3;
//! 2. the server samples participants ([`FedAvgServer::begin_round`]) and
//!    the runtime broadcasts [`Message::RoundStart`] over their links;
//! 3. seats step in parallel on the shared compute pool — training is
//!    concurrent, but **message delivery is not**: the runtime drains the
//!    links in deterministic sweeps (ascending client id, one message per
//!    link per sweep, a client's traffic lagging by its scheduled latency),
//!    so the straggler deadline — counted in delivered messages — and the
//!    aggregation order are reproducible at any `PELTA_THREADS`;
//! 4. the server closes the round ([`FedAvgServer::close_round`]), applying
//!    its [`AggregationRule`] to the updates that actually arrived (weights
//!    renormalise over the reporters under the weighted rules), and the
//!    runtime broadcasts [`Message::RoundEnd`].
//!
//! Adversaries are scheduled exactly like honest seats — same sweeps, same
//! latency schedules, same dropout semantics — so protocol-timing attacks
//! (Nack-spam against the straggler deadline, reporting just before it,
//! boosting after observing the broadcast) play out deterministically and
//! every scenario replays bit-identically.
//!
//! Shielded parameter segments arriving inside updates are reassembled
//! through the server's attested [`ShieldedUpdateChannel`] before delivery,
//! with their byte accounting surfaced in the [`RoundRecord`]. Sealed
//! segments are outside input: an update they cannot complete is refused
//! with a `Rejected` Nack, like a clear update with a bad schema, and the
//! round closes over the other seats.
//!
//! Under [`FederationConfig::secure_aggregation`] the runtime never opens an
//! individual member's sealed segment at all (see [`crate::secure_agg`]):
//! clients pairwise-mask the shielded segment before sealing, delivery
//! stashes the sealed blobs and feeds the state machine finite zero
//! placeholders, and after the round closes the runtime runs the
//! [`Message::MaskShare`] reconstruction sweep for any dead seats, folds the
//! blobs inside the root enclave ([`ShieldedUpdateChannel::fold_masked_segments`])
//! and splices the aggregate over the placeholder entries
//! ([`FedAvgServer::splice_parameters`]). The result is bit-identical to a
//! clear shielded run — see `docs/determinism.md`.
//!
//! The flow above is the star topology's. Under a [`Topology::Hierarchical`]
//! fabric steps 2 and 4 route through the edge aggregators (broadcast
//! relayed down, one combined subtree frame forwarded up per edge, per-level
//! quorum/straggler policy in between), and under [`Topology::Gossip`] the
//! star's own seat links carry the round while the collected updates flood
//! a peer mesh before the final consensus fold — see [`crate::topology`]
//! for the routing details and the cross-topology bit-determinism contract.

use std::collections::BTreeMap;

use pelta_data::{federated_split, Dataset, Partition};
use pelta_models::{accuracy, ImageModel, TrainingConfig, ViTConfig, VisionTransformer};
use pelta_tee::{CostLedger, SealedBlob};
use pelta_tensor::{pool, SeedStream, Tensor};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::client::{export_parameters, import_parameters, split_segments};
use crate::fault::{FaultConfig, FaultPlan, FaultStats};
use crate::scenario::{AgentRole, ScenarioSpec};
use crate::seat::Seat;
use crate::secure_agg::{pair_seeds_for_client, AggregatorMaskContext, ClientMaskContext};
use crate::server::RoundSummary;
use crate::sweep::{self, Arrival, SweepLinks, SweepOutcome, MAX_DELAY_SWEEPS};
use crate::topology::{EdgeAggregator, GossipMesh, Topology};
use crate::{
    AggregationRule, BroadcastFrame, FedAvgServer, FlError, MemberUpdate, Message, ModelUpdate,
    NackReason, ParticipationPolicy, Result, ShieldedUpdateChannel, Transport, TransportKind,
    UpdateCodec,
};

/// Scenario schedule for one client: when it drops out, when it rejoins,
/// and how far its messages lag behind the other clients' (in delivery
/// sweeps — the deterministic stand-in for network latency).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientSchedule {
    /// The client this schedule applies to.
    pub client_id: usize,
    /// Round in which the client leaves mid-round (it receives the
    /// broadcast but answers with [`Message::Leave`] instead of an update).
    pub drop_at_round: Option<usize>,
    /// Round before which the client rejoins (sends [`Message::Join`]).
    pub rejoin_at_round: Option<usize>,
    /// Delivery sweeps this client's messages lag behind; combined with the
    /// straggler deadline this models a slow client deterministically. At
    /// most [`crate::MAX_DELAY_SWEEPS`].
    pub latency: usize,
}

impl ClientSchedule {
    /// A schedule that never drops and has no latency.
    pub fn punctual(client_id: usize) -> Self {
        ClientSchedule {
            client_id,
            drop_at_round: None,
            rejoin_at_round: None,
            latency: 0,
        }
    }
}

/// Configuration of a federation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationConfig {
    /// Number of participating clients.
    pub clients: usize,
    /// Number of federated rounds.
    pub rounds: usize,
    /// Local training hyper-parameters used by every client.
    pub local_training: TrainingConfig,
    /// Number of held-out samples used for central evaluation each round.
    pub eval_samples: usize,
    /// Which transport the client links run over.
    pub transport: TransportKind,
    /// How updates are routed to the consensus point: the star hub, edge
    /// aggregators, or a gossip mesh (see [`Topology`]).
    pub topology: Topology,
    /// Quorum, per-round sampling and straggler policy.
    pub policy: ParticipationPolicy,
    /// The server's aggregation rule (plain FedAvg, or a robust rule when
    /// the deployment defends against poisoned updates).
    pub rule: AggregationRule,
    /// Whether shielded parameter segments travel sealed through the
    /// attested enclave channel (clear plaintext otherwise).
    pub shield_updates: bool,
    /// Whether sealed segments are additionally pairwise-masked so the root
    /// enclave only ever unseals the folded **sum**, never an individual
    /// member's blob (see [`crate::secure_agg`]). Requires `shield_updates`,
    /// plain FedAvg, a Star or Hierarchical topology, full participation
    /// (`policy.sample == 0`) and an all-honest population.
    pub secure_aggregation: bool,
    /// Per-client dropout/rejoin/latency schedules (clients without an
    /// entry behave punctually).
    pub schedules: Vec<ClientSchedule>,
    /// Deterministic fault plan injected into every runtime-side link
    /// (drops, duplicates, reordering, corruption, partitions, scripted
    /// crashes — see [`crate::fault`]); `None` runs a fault-free fabric.
    pub faults: Option<FaultConfig>,
    /// Update-compression codec carried by every link of the federation
    /// fabric (client seats, edge uplinks, gossip mesh edges — see
    /// [`crate::codec`]); [`UpdateCodec::Raw`] ships every `f32` as its
    /// exact bit pattern.
    pub codec: UpdateCodec,
}

impl FederationConfig {
    /// Validates every static property of the configuration: population and
    /// round counts, the participation policy (including its interplay with
    /// the aggregation rule — a quorum below [`AggregationRule::min_updates`]
    /// could collect a round the rule can never fold), the rule's own
    /// parameters, local-training hyper-parameters, schedules (latencies
    /// capped at [`crate::MAX_DELAY_SWEEPS`]), topology, codec, fault plan,
    /// and the topology-specific constraints on shielding, straggler
    /// deadlines and secure aggregation.
    ///
    /// [`crate::ScenarioSpec::validate`] runs this plus the population-mix
    /// checks; [`crate::Federation::from_scenario`] rejects on the first
    /// defect *before* any shard is cut or link constructed.
    ///
    /// # Errors
    /// Returns an error naming the first defect found.
    pub fn validate(&self) -> Result<()> {
        if self.clients == 0 || self.rounds == 0 {
            return Err(FlError::InvalidConfig {
                reason: "clients and rounds must be positive".to_string(),
            });
        }
        self.policy.validate(self.rule)?;
        if self.policy.quorum > self.clients {
            return Err(FlError::InvalidConfig {
                reason: format!(
                    "quorum {} exceeds the client count {}",
                    self.policy.quorum, self.clients
                ),
            });
        }
        validate_training_config(&self.local_training)?;
        for schedule in &self.schedules {
            if schedule.client_id >= self.clients {
                return Err(FlError::InvalidConfig {
                    reason: format!(
                        "schedule refers to client {} of {}",
                        schedule.client_id, self.clients
                    ),
                });
            }
            if schedule.latency > MAX_DELAY_SWEEPS {
                return Err(FlError::InvalidConfig {
                    reason: format!(
                        "client {} latency {} exceeds MAX_DELAY_SWEEPS = {MAX_DELAY_SWEEPS}",
                        schedule.client_id, schedule.latency
                    ),
                });
            }
        }
        self.topology.validate(self.clients)?;
        if let Topology::Gossip { .. } = self.topology {
            // Gossip has no attested central enclave to open sealed
            // segments, and no central collection point for a
            // delivered-message deadline to count against.
            if self.shield_updates {
                return Err(FlError::InvalidConfig {
                    reason: "gossip topologies cannot shield updates: no peer can open \
                             another peer's sealed segments"
                        .to_string(),
                });
            }
            if self.policy.straggler_deadline != 0 {
                return Err(FlError::InvalidConfig {
                    reason: "gossip topologies have no central straggler deadline; model \
                             slow peers with per-client latency schedules instead"
                        .to_string(),
                });
            }
        }
        if self.secure_aggregation {
            // Pairwise masking only cancels when the whole roster exchanges
            // masks under one linear rule at one consensus enclave.
            if !self.shield_updates {
                return Err(FlError::InvalidConfig {
                    reason: "secure aggregation masks sealed segments; enable shield_updates"
                        .to_string(),
                });
            }
            if self.rule != AggregationRule::FedAvg {
                return Err(FlError::InvalidConfig {
                    reason: "secure aggregation needs a linear rule: the enclave folds the \
                             masked sum, which only FedAvg can consume"
                        .to_string(),
                });
            }
            if matches!(self.topology, Topology::Gossip { .. }) {
                return Err(FlError::InvalidConfig {
                    reason: "secure aggregation needs a root enclave; gossip has none".to_string(),
                });
            }
            if self.policy.sample != 0 {
                return Err(FlError::InvalidConfig {
                    reason: "secure aggregation requires full participation (policy.sample = 0): \
                             masks are exchanged across the whole roster"
                        .to_string(),
                });
            }
        }
        self.codec.validate()?;
        if let Some(fault_config) = &self.faults {
            fault_config.validate(self.clients, &self.topology)?;
        }
        Ok(())
    }
}

/// Static sanity of a training configuration: a zero batch size or epoch
/// count would only surface as a training error mid-round, and a non-finite
/// learning rate or momentum would poison every parameter it touches —
/// both must be rejected at validation time, not after shards are cut.
pub(crate) fn validate_training_config(training: &TrainingConfig) -> Result<()> {
    if training.batch_size == 0 || training.epochs == 0 {
        return Err(FlError::InvalidConfig {
            reason: "training batch_size and epochs must be positive".to_string(),
        });
    }
    if !training.learning_rate.is_finite() || !training.momentum.is_finite() {
        return Err(FlError::InvalidConfig {
            reason: format!(
                "training learning_rate {} and momentum {} must be finite",
                training.learning_rate, training.momentum
            ),
        });
    }
    Ok(())
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            clients: 4,
            rounds: 3,
            local_training: TrainingConfig {
                epochs: 2,
                batch_size: 16,
                learning_rate: 0.02,
                momentum: 0.9,
            },
            eval_samples: 64,
            transport: TransportKind::InMemory,
            topology: Topology::Star,
            policy: ParticipationPolicy::default(),
            rule: AggregationRule::FedAvg,
            shield_updates: false,
            secure_aggregation: false,
            schedules: Vec::new(),
            faults: None,
            codec: UpdateCodec::Raw,
        }
    }
}

/// Metrics recorded at the end of one federated round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: usize,
    /// Mean of the reporting clients' final local losses.
    pub mean_client_loss: f32,
    /// Accuracy of the aggregated global model on the held-out set.
    pub global_accuracy: f32,
    /// Bytes of the update messages aggregated this round (bandwidth
    /// accounting for the §VI discussion): the server's
    /// [`RoundSummary::update_bytes`], which counts each update at its Raw
    /// codec size after reassembly whatever codec carried it, and the
    /// unsealed tensors rather than the sealed blobs under
    /// `shield_updates`. [`RunHistory::total_wire_bytes`] counts the
    /// traffic as shipped.
    pub upload_bytes: usize,
    /// Sealed-blob bytes of shielded segments that crossed the enclave
    /// channel this round (0 when shielding is off).
    pub shielded_bytes: usize,
    /// Adversarial actions taken this round (poisoned updates, evasion
    /// probes, free-rider echoes) — 0 in an all-honest federation.
    pub adversarial_actions: usize,
    /// Participation outcome: participants, reporters, stragglers,
    /// dropouts, renormalised weight.
    pub summary: RoundSummary,
    /// Per-subtree participation outcomes, one entry per edge in edge
    /// order (hierarchical topologies only; empty otherwise). An edge that
    /// missed its own quorum appears with zero reporters and weight; an
    /// edge none of whose members were sampled appears with empty
    /// participants.
    pub edge_summaries: Vec<RoundSummary>,
    /// Gossip frames exchanged across the peer mesh this round (gossip
    /// topologies only; 0 otherwise).
    pub gossip_messages: usize,
}

/// The full history of a federation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunHistory {
    /// Per-round records.
    pub rounds: Vec<RoundRecord>,
    /// Accuracy of the final global model on the held-out set.
    pub final_accuracy: f32,
    /// Protocol messages that crossed the transports, both directions.
    pub total_messages: usize,
    /// Logical wire bytes of those messages.
    pub total_wire_bytes: usize,
}

/// The topology-dependent routing fabric between the seats' links and the
/// consensus point (see [`crate::topology`]).
enum Fabric {
    /// Every runtime-side seat-link end feeds the central server directly,
    /// indexed by client id.
    Star { links: Vec<Box<dyn Transport>> },
    /// Member links are grouped under edge aggregators; the root holds the
    /// root-side uplink ends, indexed by edge id.
    Hierarchical {
        edges: Vec<EdgeAggregator>,
        uplinks: Vec<Box<dyn Transport>>,
    },
    /// The star's seat links, plus a peer mesh that floods the collected
    /// updates before the consensus fold.
    Gossip {
        links: Vec<Box<dyn Transport>>,
        mesh: GossipMesh,
    },
}

impl Fabric {
    /// Messages and logical bytes sent by the fabric's runtime-side link
    /// ends (the counterpart of the seats' own counters).
    fn traffic(&self) -> (usize, usize) {
        let add = |start, links: &[Box<dyn Transport>]| {
            links.iter().fold(start, |(m, b), link| {
                (m + link.messages_sent(), b + link.bytes_sent())
            })
        };
        match self {
            Fabric::Star { links } => add((0, 0), links),
            Fabric::Hierarchical { edges, uplinks } => add(
                edges
                    .iter()
                    .map(EdgeAggregator::traffic)
                    .fold((0, 0), |(m, b), (dm, db)| (m + dm, b + db)),
                uplinks,
            ),
            Fabric::Gossip { links, mesh } => add(mesh.traffic(), links),
        }
    }
}

/// A running federation: one message-driven server, `clients` seats
/// (honest by default, adversarial where a [`ScenarioSpec`] says so) on
/// transport links, a topology fabric routing their traffic, and a central
/// evaluation replica.
pub struct Federation {
    server: FedAvgServer,
    server_shield: Option<ShieldedUpdateChannel>,
    /// The root's secure-aggregation context — the attested roster nonces it
    /// verifies reconstruction shares against (`None` unless
    /// [`FederationConfig::secure_aggregation`] is set).
    masks: Option<AggregatorMaskContext>,
    seats: Vec<Seat>,
    fabric: Fabric,
    eval_model: Box<dyn ImageModel>,
    dataset: Dataset,
    config: FederationConfig,
    /// The live fault plan when the config injects faults: the shared
    /// logical clock the runtime ticks and the wrappers read.
    faults: Option<FaultPlan>,
}

/// Whether an edge aggregator is inside its scripted dark window at
/// `round` — crashed in an earlier round, not yet rejoined. At the crash
/// round itself the edge still collects (it dies mid-round, at close time);
/// at the rejoin round it has already re-synced.
fn edge_dark(faults: &Option<FaultPlan>, edge: usize, round: usize) -> bool {
    faults.as_ref().is_some_and(|plan| {
        plan.edge_crash(edge)
            .is_some_and(|(crash, rejoin)| round > crash && round < rejoin)
    })
}

/// One lockstep member sweep over every edge outside its dark window — a
/// dark edge is a dead process and pumps nothing.
fn pump_live_edges(
    edges: &mut [EdgeAggregator],
    faults: &Option<FaultPlan>,
    round: usize,
    sweep: usize,
) -> Result<SweepOutcome> {
    let mut outcome = SweepOutcome::default();
    for edge in edges.iter_mut() {
        if !edge_dark(faults, edge.edge_id(), round) {
            outcome |= edge.pump(sweep)?;
        }
    }
    Ok(outcome)
}

/// The seat links of a star or gossip fabric, each gated by its seat's
/// scheduled latency. A link knows whose it is, so a faulted frame's
/// refusal goes to the seat that owns the link, never to the id inside
/// the damaged frame.
struct SeatLinks<'a> {
    links: &'a [Box<dyn Transport>],
    seats: &'a [Seat],
}

impl SweepLinks for SeatLinks<'_> {
    fn count(&self) -> usize {
        self.links.len()
    }

    fn link(&self, index: usize) -> &dyn Transport {
        self.links[index].as_ref()
    }

    fn latency(&self, index: usize) -> usize {
        self.seats[index].schedule.latency
    }

    fn refusal_addressee(&self, index: usize, _sender: usize) -> usize {
        index
    }
}

/// The frame of one sweep arrival. A damaged frame yields none: it burns
/// a straggler-deadline slot while the server collects, and the sweep
/// engine sends its refusal.
fn arrived(server: &mut FedAvgServer, arrival: Arrival) -> Option<Message> {
    match arrival {
        Arrival::Frame(message) => Some(message),
        Arrival::Damaged { sender, round } => {
            server.deliver_corrupt(sender, round);
            None
        }
    }
}

/// Delivers `message` to the server and sends its answers back over the
/// link it came in on.
fn answer(server: &mut FedAvgServer, link: &dyn Transport, message: &Message) -> Result<()> {
    for response in server.deliver(message) {
        link.send(&response)?;
    }
    Ok(())
}

impl Federation {
    /// Builds a federation from a [`ScenarioSpec`]: every seat plays the
    /// role the spec assigns it (honest by default), all speaking
    /// [`Message`] over their transport links and scheduled by the same
    /// deterministic delivery sweeps. `factory` produces the model replicas
    /// (honest local models, attacker replicas, the evaluation model — all
    /// sharing one architecture). Every seat joins over its link, in
    /// ascending seat order; when `shield_updates` is set, each honest
    /// seat's enclave is attested before it is admitted (adversaries send
    /// clear updates — a malicious node would not cooperate with sealing,
    /// and the server accepts a complete clear parameter list).
    ///
    /// # Errors
    /// Returns an error if the configuration or population mix is
    /// degenerate, the dataset has fewer training samples than seats, an
    /// adversary's budget is invalid, or attestation fails.
    pub fn from_scenario<F>(
        dataset: &Dataset,
        spec: &ScenarioSpec,
        seeds: &mut SeedStream,
        factory: F,
    ) -> Result<Self>
    where
        F: Fn(&mut ChaCha8Rng) -> Box<dyn ImageModel>,
    {
        let config = &spec.federation;
        // The single consolidated validation gate: every static defect —
        // configuration, policy/rule interplay, topology, codec, fault
        // plan, partition, population mix — is rejected here, before any
        // shard is cut or link constructed.
        spec.validate()?;
        // Every partition gives each seat a sample once there are at least
        // as many samples as seats; an empty shard could not train, probe
        // or claim a weight.
        if dataset.len() < config.clients {
            return Err(FlError::InvalidConfig {
                reason: format!(
                    "dataset has {} training samples for {} seats; every seat needs at least one",
                    dataset.len(),
                    config.clients
                ),
            });
        }
        let fault_plan = config
            .faults
            .as_ref()
            .map(|fault_config| FaultPlan::new(fault_config.clone()))
            .transpose()?;
        let shards = federated_split(
            dataset,
            config.clients,
            spec.partition,
            &mut seeds.derive("partition"),
        );
        let eval_model = factory(&mut seeds.derive_indexed("model", u64::MAX));
        let server = FedAvgServer::with_rule(
            export_parameters(eval_model.as_ref()),
            config.policy,
            config.rule,
        )?;
        let server_shield = if config.shield_updates {
            let nonce = seeds.derive_indexed("attest", u64::MAX).gen::<u64>();
            Some(ShieldedUpdateChannel::connect(nonce)?)
        } else {
            None
        };
        // Secure aggregation: the attestation nonces double as the pairwise
        // key material (`derive_indexed` is order-independent, so these are
        // exactly the nonces each handshake below draws for itself).
        let mask_nonces: Option<BTreeMap<usize, u64>> = config.secure_aggregation.then(|| {
            (0..config.clients)
                .map(|id| (id, seeds.derive_indexed("attest", id as u64).gen::<u64>()))
                .collect()
        });

        // One lookup table each for roles and schedules: per-seat linear
        // scans would make building the population itself O(population²).
        let roles = spec.roles_by_seat();
        let mut schedule_of: std::collections::BTreeMap<usize, &ClientSchedule> =
            std::collections::BTreeMap::new();
        for schedule in &config.schedules {
            schedule_of.entry(schedule.client_id).or_insert(schedule);
        }
        let mut seats = Vec::with_capacity(config.clients);
        let mut runtime_ends: Vec<Option<Box<dyn Transport>>> = Vec::with_capacity(config.clients);
        for (id, shard) in shards.into_iter().enumerate() {
            let (client_end, server_end) = config.transport.duplex_with(config.codec);
            let mask = mask_nonces.as_ref().map(|nonces| {
                let measurement = server_shield
                    .as_ref()
                    .expect("secure aggregation implies shield_updates")
                    .measurement();
                ClientMaskContext::new(id, pair_seeds_for_client(measurement, nonces, id))
            });
            let schedule = schedule_of
                .get(&id)
                .map(|s| (*s).clone())
                .unwrap_or_else(|| ClientSchedule::punctual(id));
            let role = roles.get(&id).copied().unwrap_or(&AgentRole::Honest);
            let seat = Seat::new(
                id, role, shard, client_end, schedule, config, mask, seeds, &factory,
            )?;
            seat.join()?;
            // The fault shim wraps the runtime-side end only: the seat's own
            // end stays clean, so every fault is a *link* fault and the
            // seat-side protocol logic needs no fault awareness.
            let server_end = match &fault_plan {
                Some(plan) => plan.wrap_seat(id, server_end),
                None => server_end,
            };
            runtime_ends.push(Some(server_end));
            seats.push(seat);
        }
        let fabric = match &config.topology {
            Topology::Star => Fabric::Star {
                links: runtime_ends.into_iter().flatten().collect(),
            },
            Topology::Hierarchical {
                groups,
                edge_policy,
            } => {
                let mut edges = Vec::with_capacity(groups.len());
                let mut uplinks = Vec::with_capacity(groups.len());
                for (edge_id, group) in groups.iter().enumerate() {
                    let (edge_end, root_end) = config.transport.duplex_with(config.codec);
                    let root_end = match &fault_plan {
                        Some(plan) => plan.wrap_uplink(edge_id, root_end),
                        None => root_end,
                    };
                    let mut edge = EdgeAggregator::new(edge_id, *edge_policy, edge_end)?;
                    for &member in group {
                        let link = runtime_ends[member]
                            .take()
                            .expect("each client belongs to exactly one edge");
                        edge.attach_member(member, link, seats[member].schedule.latency);
                    }
                    edges.push(edge);
                    uplinks.push(root_end);
                }
                Fabric::Hierarchical { edges, uplinks }
            }
            Topology::Gossip { fanout } => Fabric::Gossip {
                links: runtime_ends.into_iter().flatten().collect(),
                mesh: GossipMesh::new(config.transport, config.codec, config.clients, *fanout),
            },
        };
        let masks = mask_nonces.map(|nonces| {
            let measurement = server_shield
                .as_ref()
                .expect("secure aggregation implies shield_updates")
                .measurement();
            AggregatorMaskContext::new(measurement, nonces)
        });
        let mut federation = Federation {
            server,
            server_shield,
            masks,
            seats,
            fabric,
            eval_model,
            dataset: dataset.clone(),
            config: config.clone(),
            faults: fault_plan,
        };
        // Deliver the Join handshakes before the first round opens.
        federation.pump_links()?;
        Ok(federation)
    }

    /// Convenience constructor: a federation of scaled ViT-B/16 replicas, the
    /// transformer family the paper motivates FL fine-tuning with.
    ///
    /// # Errors
    /// Returns an error if the configuration is degenerate.
    pub fn vit_federation(
        dataset: &Dataset,
        config: &FederationConfig,
        partition: Partition,
        seeds: &mut SeedStream,
    ) -> Result<Self> {
        Self::vit_scenario(
            dataset,
            &ScenarioSpec::honest(config.clone()).with_partition(partition),
            seeds,
        )
    }

    /// Convenience constructor: a [`ScenarioSpec`] federation of scaled
    /// ViT-B/16 replicas — the standard harness of the attack/defense
    /// acceptance matrix.
    ///
    /// # Errors
    /// Returns an error if the configuration or population mix is
    /// degenerate.
    pub fn vit_scenario(
        dataset: &Dataset,
        scenario: &ScenarioSpec,
        seeds: &mut SeedStream,
    ) -> Result<Self> {
        let spec = dataset.spec();
        Self::from_scenario(dataset, scenario, seeds, move |rng| {
            Box::new(
                VisionTransformer::new(
                    ViTConfig::vit_b16_scaled(
                        spec.image_size(),
                        spec.channels(),
                        spec.num_classes(),
                    ),
                    rng,
                )
                .expect("scaled ViT configuration is valid"),
            )
        })
    }

    /// Number of client seats (online or not).
    pub fn num_clients(&self) -> usize {
        self.seats.len()
    }

    /// The aggregation server.
    pub fn server(&self) -> &FedAvgServer {
        &self.server
    }

    /// The server-side enclave ledger of the shielded-update channel, when
    /// shielding is enabled — the §VI byte accounting next to the
    /// `ShieldReport` of `pelta-core`.
    pub fn server_shield_ledger(&self) -> Option<CostLedger> {
        self.server_shield.as_ref().map(|s| s.ledger())
    }

    /// How many times the server-side enclave unsealed an *individual*
    /// object into its keyed store (`None` when shielding is off). Under
    /// secure aggregation this must stay 0 — the whole point of the masked
    /// fold is that no single member's blob is ever opened alone.
    pub fn server_raw_unseals(&self) -> Option<u64> {
        self.server_shield.as_ref().map(|s| s.unseal_count())
    }

    /// What the fault plan actually did so far (`None` when the federation
    /// runs fault-free). Purely observational counters — see
    /// [`FaultStats`].
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(FaultPlan::stats)
    }

    /// The current global parameters loaded into an evaluation replica.
    ///
    /// # Errors
    /// Returns an error if the snapshot does not match the replica.
    pub fn global_model(&mut self) -> Result<&dyn ImageModel> {
        import_parameters(self.eval_model.as_mut(), self.server.parameters())?;
        Ok(self.eval_model.as_ref())
    }

    /// Runs the configured number of rounds and returns the history.
    ///
    /// Clients train in parallel on the shared compute pool (they are
    /// independent devices in the real deployment); message delivery is
    /// deterministic regardless of the thread count (see the module docs).
    ///
    /// # Errors
    /// Returns the first error raised by a client, the server, a transport
    /// or evaluation — or [`FlError::QuorumNotMet`] if dropouts starve a
    /// round below the quorum.
    pub fn run(&mut self, seeds: &mut SeedStream) -> Result<RunHistory> {
        let mut rounds = Vec::with_capacity(self.config.rounds);
        for round_index in 0..self.config.rounds {
            // The fault plan enters the round, which crash windows key on;
            // every other fault is drawn against its instant, which only the
            // sweep engine moves. Crash recovery: a seat whose dark window
            // ends here restarts with a fresh Join handshake; an edge
            // re-syncs its subtree state machine from the coordinator's
            // checkpoint before any round can open over it.
            if let Some(plan) = &self.faults {
                plan.begin_round(round_index);
                let rejoins = |crash: Option<(usize, usize)>| {
                    crash.is_some_and(|(_, rejoin)| rejoin == round_index)
                };
                for (id, seat) in self.seats.iter().enumerate() {
                    if rejoins(plan.seat_crash(id)) {
                        seat.join()?;
                    }
                }
                if let Fabric::Hierarchical { edges, .. } = &mut self.fabric {
                    for edge in edges.iter_mut() {
                        if rejoins(plan.edge_crash(edge.edge_id())) {
                            edge.resync(&self.server.checkpoint())?;
                        }
                    }
                }
            }
            // Scheduled rejoins announce themselves before the round opens.
            for seat in &mut self.seats {
                seat.rejoin(round_index)?;
            }
            self.pump_links()?;

            // Sample participants and broadcast the round through the
            // topology fabric: over the seat links of a star or gossip
            // fabric, or via the edge aggregators' relays.
            let mut sample_rng = seeds.derive_indexed("participants", round_index as u64);
            let participants = self.server.begin_round(&mut sample_rng)?;
            let broadcast = self.server.broadcast();
            // One frame holds the round's global model: every link shares
            // the same payload (and, on serialized transports, the same
            // encoding) instead of cloning the model per link.
            let frame = BroadcastFrame::new(Message::RoundStart {
                round: broadcast.round,
                global: broadcast.clone(),
            });
            match &mut self.fabric {
                Fabric::Star { links } | Fabric::Gossip { links, .. } => {
                    for &id in &participants {
                        links[id].send_broadcast(&frame)?;
                    }
                }
                Fabric::Hierarchical { edges, .. } => {
                    for edge in edges.iter_mut() {
                        // A crashed edge cannot open a round: its sampled
                        // members see silence and the root degrades through
                        // the quorum/withholding path.
                        if edge_dark(&self.faults, edge.edge_id(), round_index) {
                            continue;
                        }
                        let subset: Vec<usize> = participants
                            .iter()
                            .copied()
                            .filter(|id| edge.contains(*id))
                            .collect();
                        if !subset.is_empty() {
                            edge.open_round(&frame, &subset)?;
                        }
                    }
                }
            }
            if let Fabric::Gossip { mesh, .. } = &mut self.fabric {
                mesh.open_round(broadcast.round, &participants);
            }

            // Parallel local training: each seat drains its own inbox and
            // queues its reply; no shared state crosses seats.
            let results = pool::parallel_map_mut(&pool::global(), &mut self.seats, |_, seat| {
                seat.step(round_index)
            });
            let mut loss_sum = 0.0f32;
            let mut reporters = 0usize;
            let mut adversarial_actions = 0usize;
            for result in results {
                let outcome = result?;
                if let Some(report) = outcome.trained {
                    loss_sum += report.epoch_losses.last().copied().unwrap_or(0.0);
                    reporters += 1;
                }
                if outcome.adversarial {
                    adversarial_actions += 1;
                }
            }

            // Deterministic delivery through the fabric, then close the
            // round at the consensus point.
            let (shielded_bytes, edge_summaries, gossip_messages, mask_stash) =
                self.deliver_round()?;
            let summary = self.server.close_round()?;
            // Secure aggregation: reconstruct dead seats' masks, fold the
            // stashed blobs inside the root enclave and splice the aggregate
            // over the placeholder entries the regular fold produced.
            if let Some(stash) = mask_stash {
                self.fold_masked_round(&broadcast.parameters, &summary, stash)?;
            }
            if let Fabric::Gossip { mesh, .. } = &self.fabric {
                // The final deterministic consensus fold: every participant
                // peer folds its converged knowledge with the same rule and
                // must land on exactly the coordinator's bits.
                let reference: Vec<Vec<u32>> = self
                    .server
                    .parameters()
                    .iter()
                    .map(|(_, t)| t.data().iter().map(|v| v.to_bits()).collect())
                    .collect();
                for (peer, fold) in
                    mesh.consensus_folds(&broadcast.parameters, summary.round, self.config.rule)?
                {
                    let peer_bits: Vec<Vec<u32>> = fold
                        .iter()
                        .map(|(_, t)| t.data().iter().map(|v| v.to_bits()).collect())
                        .collect();
                    if peer_bits != reference {
                        return Err(FlError::ConsensusDiverged {
                            round: summary.round,
                            peer,
                        });
                    }
                }
            }
            self.send_round_end(&summary)?;

            // Central evaluation on the held-out pool.
            let eval = self.dataset.test_subset(self.config.eval_samples);
            import_parameters(self.eval_model.as_mut(), self.server.parameters())?;
            let global_accuracy = accuracy(self.eval_model.as_ref(), &eval.images, &eval.labels)?;

            rounds.push(RoundRecord {
                round: summary.round,
                mean_client_loss: loss_sum / reporters.max(1) as f32,
                global_accuracy,
                upload_bytes: summary.update_bytes,
                shielded_bytes,
                adversarial_actions,
                summary,
                edge_summaries,
                gossip_messages,
            });
        }
        let final_accuracy = rounds.last().map(|r| r.global_accuracy).unwrap_or(0.0);
        let (fabric_messages, fabric_bytes) = self.fabric.traffic();
        let (total_messages, total_wire_bytes) = self
            .seats
            .iter()
            .map(Seat::traffic)
            .fold((fabric_messages, fabric_bytes), |(m, b), (dm, db)| {
                (m + dm, b + db)
            });
        Ok(RunHistory {
            rounds,
            final_accuracy,
            total_messages,
            total_wire_bytes,
        })
    }

    /// Delivers all pending client→server traffic between rounds (Join
    /// handshakes, rejoins) through the topology fabric as clocked sweep
    /// phases to quiescence, with the max-latency floor
    /// (`docs/determinism.md` §3): the active seat links of a star or gossip
    /// fabric feed the server directly; under a hierarchy the live edges
    /// sweep their active members in lockstep, then the root sweeps every
    /// uplink, and the edges relay the root's answers down.
    fn pump_links(&mut self) -> Result<()> {
        let Federation {
            server,
            seats,
            fabric,
            faults,
            ..
        } = self;
        let faults = &*faults;
        let max_latency = seats.iter().map(|s| s.schedule.latency).max().unwrap_or(0);
        match fabric {
            Fabric::Star { links } | Fabric::Gossip { links, .. } => {
                let mut root = SeatLinks { links, seats };
                let mut active = None;
                sweep::run(faults.as_ref(), max_latency, |sweep| {
                    sweep::sweep_active(&mut root, sweep, &mut active, |root, index, arrival| {
                        match arrived(server, arrival) {
                            Some(message) => answer(server, root.link(index), &message),
                            None => Ok(()),
                        }
                    })
                })?;
            }
            Fabric::Hierarchical { edges, uplinks } => {
                let round = server.round();
                sweep::run(faults.as_ref(), max_latency, |sweep| {
                    pump_live_edges(edges, faults, round, sweep)
                })?;
                let edge_count = uplinks.len();
                sweep::run(faults.as_ref(), 0, |sweep| {
                    sweep::sweep_every(uplinks, sweep, 0..edge_count, |uplinks, edge, arrival| {
                        match arrived(server, arrival) {
                            Some(message) => answer(server, uplinks.link(edge), &message),
                            None => Ok(()),
                        }
                    })
                })?;
                // A dead edge relays nothing; its members' traffic queues
                // until the rejoin-round resync discards it.
                for edge in edges.iter_mut() {
                    if !edge_dark(faults, edge.edge_id(), round) {
                        edge.pump_downstream()?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Drains the round's update traffic through the fabric with the sweep
    /// engine ([`crate::sweep`], `docs/determinism.md` §3) and returns
    /// `(sealed bytes, edge summaries, gossip frames, mask stash)`.
    ///
    /// * **Star** — the active seats, each gated by its scheduled latency;
    ///   shielded segments are reassembled through the server's enclave
    ///   channel before delivery.
    /// * **Hierarchical** — every live edge sweeps its active members in
    ///   lockstep; edges then close in ascending edge order (per-level
    ///   quorum/straggler semantics) and forward combined frames, which the
    ///   root unwraps member-by-member in ascending client order — unsealing
    ///   each member through its enclave channel — in a sweep over every
    ///   uplink; the edges finally relay any refusals back down.
    /// * **Gossip** — the star's latency-gated collect sweeps over the seat
    ///   links feed each peer's daemon, the mesh floods to quiescence, and
    ///   the coordinator folds the converged union through the same state
    ///   machine.
    fn deliver_round(&mut self) -> Result<(usize, Vec<RoundSummary>, usize, Option<MaskStash>)> {
        let Federation {
            server,
            server_shield,
            masks,
            seats,
            fabric,
            faults,
            ..
        } = self;
        let faults = &*faults;
        // Under secure aggregation sealed blobs are stashed instead of
        // opened; the stash feeds the post-round enclave fold.
        let mut mask_stash: Option<MaskStash> = masks.as_ref().map(|_| MaskStash::new());
        let max_latency = seats.iter().map(|s| s.schedule.latency).max().unwrap_or(0);
        let mut shielded_bytes = 0usize;
        match fabric {
            Fabric::Star { links } => {
                let mut star = SeatLinks { links, seats };
                let mut active = None;
                sweep::run(faults.as_ref(), max_latency, |sweep| {
                    sweep::sweep_active(&mut star, sweep, &mut active, |star, index, arrival| {
                        let link = star.link(index);
                        match arrived(server, arrival) {
                            Some(Message::Update { update, shielded }) => {
                                shielded_bytes += deliver_update(
                                    server,
                                    server_shield.as_ref(),
                                    mask_stash.as_mut(),
                                    link,
                                    update,
                                    shielded,
                                )?;
                                Ok(())
                            }
                            Some(message) => answer(server, link, &message),
                            None => Ok(()),
                        }
                    })
                })?;
                Ok((shielded_bytes, Vec::new(), 0, mask_stash))
            }
            Fabric::Hierarchical { edges, uplinks } => {
                // Phase 1: member → edge sweeps, all subtrees in lockstep.
                let round = server.round();
                sweep::run(faults.as_ref(), max_latency, |sweep| {
                    pump_live_edges(edges, faults, round, sweep)
                })?;
                // Phase 2: edges close their subtree rounds and forward —
                // unless this is the round a scripted crash kills the edge:
                // it dies here, mid-round, with its stash, and the root
                // hears silence from the subtree. Every edge gets a summary
                // slot so edge_summaries[i] always belongs to edge i.
                let mut edge_summaries = Vec::new();
                for edge in edges.iter_mut() {
                    let crashes_now = faults.as_ref().is_some_and(|plan| {
                        plan.edge_crash(edge.edge_id())
                            .is_some_and(|(crash, _)| crash == round)
                    });
                    if crashes_now {
                        edge.crash()?;
                    }
                    if !crashes_now && edge.round_open() {
                        edge_summaries.push(edge.close_and_forward()?);
                    } else {
                        edge_summaries.push(RoundSummary {
                            round,
                            participants: Vec::new(),
                            reporters: Vec::new(),
                            stragglers: Vec::new(),
                            dropouts: Vec::new(),
                            total_weight: 0,
                            delivered_messages: 0,
                            update_bytes: 0,
                        });
                    }
                }
                // Phase 3: the root unwraps the combined frames. A second
                // combined frame from an origin already folded (a duplicated
                // uplink frame) is refused wholesale, first-wins.
                let mut folded_origins = std::collections::BTreeSet::new();
                let edge_count = uplinks.len();
                sweep::run(faults.as_ref(), 0, |sweep| {
                    sweep::sweep_every(uplinks, sweep, 0..edge_count, |uplinks, edge, arrival| {
                        let uplink = uplinks.link(edge);
                        let Some(message) = arrived(server, arrival) else {
                            return Ok(());
                        };
                        let Message::AggregateUpdate {
                            origin,
                            round,
                            members,
                        } = message
                        else {
                            return answer(server, uplink, &message);
                        };
                        if !folded_origins.insert(origin) {
                            return uplink.send(&Message::Nack {
                                client_id: origin,
                                round,
                                reason: NackReason::Duplicate,
                            });
                        }
                        for member in members {
                            shielded_bytes += deliver_update(
                                server,
                                server_shield.as_ref(),
                                mask_stash.as_mut(),
                                uplink,
                                member.update,
                                member.shielded,
                            )?;
                        }
                        Ok(())
                    })
                })?;
                // Phase 4: edges relay the root's refusals to their members.
                for edge in edges.iter_mut() {
                    if edge_dark(faults, edge.edge_id(), round) {
                        continue;
                    }
                    edge.pump_downstream()?;
                }
                Ok((shielded_bytes, edge_summaries, 0, mask_stash))
            }
            Fabric::Gossip { links, mesh } => {
                // Phase 1: collect each peer's own update and the round's
                // control traffic over the seat links.
                let mut peers = SeatLinks { links, seats };
                let mut active = None;
                sweep::run(faults.as_ref(), max_latency, |sweep| {
                    sweep::sweep_active(&mut peers, sweep, &mut active, |peers, peer, arrival| {
                        let Arrival::Frame(message) = arrival else {
                            return Ok(());
                        };
                        let link = peers.link(peer);
                        match mesh.admit(link, peer, message)? {
                            Some(control) => answer(server, link, &control),
                            None => Ok(()),
                        }
                    })
                })?;
                // Phase 2: flood the mesh to quiescence.
                let gossip_messages = mesh.exchange()?;
                // Phase 3: the coordinator folds the converged union through
                // the state machine (ascending client id).
                for member in mesh.union().into_values() {
                    let MemberUpdate { update, .. } = member;
                    let client_id = update.client_id;
                    let message = Message::Update {
                        update,
                        shielded: Vec::new(),
                    };
                    answer(server, peers.link(client_id), &message)?;
                }
                Ok((0, Vec::new(), gossip_messages, None))
            }
        }
    }

    /// Closes the round towards the participants: [`Message::RoundEnd`]
    /// over the seat links of a star or gossip fabric, or via the edges'
    /// downstream relays.
    fn send_round_end(&mut self, summary: &RoundSummary) -> Result<()> {
        let Federation { seats, fabric, .. } = self;
        match fabric {
            Fabric::Star { links } | Fabric::Gossip { links, .. } => {
                for &id in &summary.participants {
                    if seats[id].online {
                        links[id].send(&Message::RoundEnd {
                            round: summary.round,
                        })?;
                    }
                }
            }
            Fabric::Hierarchical { edges, uplinks } => {
                for (edge, uplink) in edges.iter_mut().zip(uplinks.iter_mut()) {
                    if edge.served_round(summary.round) {
                        uplink.send(&Message::RoundEnd {
                            round: summary.round,
                        })?;
                        edge.pump_downstream()?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Completes a secure-aggregation round after the state machine closed
    /// it: reconstructs the masks of dead seats from the reporters' shares,
    /// folds the stashed sealed blobs inside the root enclave (no individual
    /// blob is ever opened) against the round-open reference, and splices
    /// the aggregate over the zero placeholders in the global model. A model
    /// with no shielded parameters leaves nothing to mask, unseal or splice.
    fn fold_masked_round(
        &mut self,
        round_open: &[(String, Tensor)],
        summary: &RoundSummary,
        mut stash: MaskStash,
    ) -> Result<()> {
        // The enclave folds against the round-open snapshot of the shielded
        // names — the reference every client's delta was trained from.
        let (shielded_reference, _clear) =
            split_segments(self.eval_model.as_ref(), round_open.to_vec());
        if shielded_reference.is_empty() {
            return Ok(());
        }
        // Exactly the members the state machine folded, at the weights it
        // folded them with.
        let mut members: BTreeMap<usize, (usize, Vec<SealedBlob>)> = BTreeMap::new();
        for &reporter in &summary.reporters {
            let entry = stash.remove(&reporter).ok_or_else(|| FlError::Wire {
                reason: format!(
                    "reporter {reporter} was folded in round {} without a sealed segment",
                    summary.round
                ),
            })?;
            members.insert(reporter, entry);
        }
        let masks = self
            .masks
            .as_ref()
            .expect("a mask stash implies a mask context");
        // Every roster seat whose update was not folded left orphaned masks
        // in the reporters' segments; their pair seeds must be reconstructed
        // from the reporters' shares before the fold can cancel them.
        let dead: Vec<usize> = masks
            .roster()
            .into_iter()
            .filter(|id| !members.contains_key(id))
            .collect();
        let shares = if dead.is_empty() {
            BTreeMap::new()
        } else {
            self.sweep_mask_shares(summary.round, &dead, &summary.reporters)?
        };
        let masks = self
            .masks
            .as_ref()
            .expect("a mask stash implies a mask context");
        let shield = self
            .server_shield
            .as_ref()
            .expect("secure aggregation implies shield_updates");
        let (folded, _report) = shield.fold_masked_segments(
            &shielded_reference,
            summary.round,
            &members,
            masks,
            &dead,
            &shares,
        )?;
        self.server.splice_parameters(&folded)
    }

    /// The in-protocol mask-reconstruction sweep: broadcasts a
    /// [`Message::MaskShare`] request naming the dead seats to every
    /// reporter (directly over the star links, or relayed through the
    /// edges, which pass it to their reporters only), steps every reporter
    /// so they answer, and drains the responses with the sweep engine —
    /// latency gates, the fault plan's instant (one tick per sweep of every
    /// attempt) and `CorruptFrame`-Nack retransmission included
    /// (`docs/determinism.md` §3). A reporter whose
    /// response is lost is re-asked (fresh fate draws) up to a bounded
    /// number of attempts; a reporter that never answers is a protocol
    /// failure, because its orphaned masks cannot be cancelled.
    fn sweep_mask_shares(
        &mut self,
        round: usize,
        dead: &[usize],
        reporters: &[usize],
    ) -> Result<BTreeMap<usize, BTreeMap<usize, u64>>> {
        const MASK_SHARE_ATTEMPTS: usize = 3;
        let Federation {
            seats,
            fabric,
            faults,
            ..
        } = self;
        let faults = &*faults;
        let request = BroadcastFrame::new(Message::MaskShare {
            client_id: usize::MAX,
            round,
            seats: dead.to_vec(),
            seeds: Vec::new(),
        });
        let mut shares: BTreeMap<usize, BTreeMap<usize, u64>> = BTreeMap::new();
        let max_latency = seats.iter().map(|s| s.schedule.latency).max().unwrap_or(0);
        for _attempt in 0..MASK_SHARE_ATTEMPTS {
            let pending: Vec<usize> = reporters
                .iter()
                .copied()
                .filter(|id| !shares.contains_key(id))
                .collect();
            if pending.is_empty() {
                break;
            }
            // Deliver the request. It is control traffic: the fault shims
            // pass it clean apart from crash suppression, and crashed seats
            // are never reporters. Validation keeps secure aggregation off
            // gossip meshes, so only a star asks over its seat links.
            match fabric {
                Fabric::Star { links } | Fabric::Gossip { links, .. } => {
                    for &id in &pending {
                        links[id].send_broadcast(&request)?;
                    }
                }
                Fabric::Hierarchical { edges, uplinks } => {
                    for (edge, uplink) in edges.iter_mut().zip(uplinks.iter_mut()) {
                        if edge.served_round(round) && pending.iter().any(|&id| edge.contains(id)) {
                            uplink.send_broadcast(&request)?;
                            edge.pump_downstream()?;
                        }
                    }
                }
            }
            // Seats answer from their mask contexts; no training happens
            // outside a RoundStart, so sequential stepping is cheap and
            // trivially deterministic. Every reporter steps: an edge relays
            // a retry to all of its reporters, and one already answered
            // must answer again inside this drain, not in the next round.
            for &id in reporters {
                seats[id].step(round)?;
            }
            // Drain the responses: every pending reporter's star link, or
            // the edges' member sweeps followed by every uplink.
            let mut collect = |arrival| {
                if let Arrival::Frame(Message::MaskShare {
                    client_id,
                    round: share_round,
                    seats,
                    seeds,
                }) = arrival
                {
                    if !seeds.is_empty() && share_round == round {
                        shares
                            .entry(client_id)
                            .or_insert_with(|| seats.into_iter().zip(seeds).collect());
                    }
                }
                Ok(())
            };
            sweep::run(faults.as_ref(), max_latency, |sweep| match &mut *fabric {
                Fabric::Star { links } | Fabric::Gossip { links, .. } => sweep::sweep_every(
                    &mut SeatLinks { links, seats },
                    sweep,
                    pending.iter().copied(),
                    |_, _, arrival| collect(arrival),
                ),
                Fabric::Hierarchical { edges, uplinks } => {
                    let mut outcome = pump_live_edges(edges, faults, round, sweep)?;
                    let edge_count = uplinks.len();
                    outcome |=
                        sweep::sweep_every(uplinks, sweep, 0..edge_count, |_, _, arrival| {
                            collect(arrival)
                        })?;
                    Ok(outcome)
                }
            })?;
        }
        let missing: Vec<usize> = reporters
            .iter()
            .copied()
            .filter(|id| !shares.contains_key(id))
            .collect();
        if !missing.is_empty() {
            return Err(FlError::Wire {
                reason: format!(
                    "mask reconstruction for round {round} is missing shares \
                     from reporters {missing:?}"
                ),
            });
        }
        Ok(shares)
    }
}

/// The sealed blobs a secure-aggregation round stashes per member while the
/// state machine folds placeholders: `client id → (FedAvg weight, blobs)`.
type MaskStash = BTreeMap<usize, (usize, Vec<SealedBlob>)>;

/// Delivers an update to the server and sends the answers back over
/// `link`, returning the sealed bytes it reassembled. Its sealed segments
/// are reassembled first; an update they cannot complete — a blob that fails
/// to open, segments that miss the schema, blobs sent to a server that
/// shields nothing — is outside input, refused with [`NackReason::Rejected`]
/// like an update that fails schema validation
/// ([`FedAvgServer::deliver_refused`]), and the round goes on without it.
fn deliver_update(
    server: &mut FedAvgServer,
    server_shield: Option<&ShieldedUpdateChannel>,
    stash: Option<&mut MaskStash>,
    link: &dyn Transport,
    update: ModelUpdate,
    shielded: Vec<SealedBlob>,
) -> Result<usize> {
    let (update, sealed) = if shielded.is_empty() {
        (update, 0)
    } else {
        match reassemble(server.parameters(), server_shield, stash, &update, shielded) {
            Ok((parameters, sealed)) => (
                ModelUpdate {
                    parameters,
                    ..update
                },
                sealed,
            ),
            Err(error) => {
                for response in server.deliver_refused(&update, error) {
                    link.send(&response)?;
                }
                return Ok(0);
            }
        }
    };
    let message = Message::Update {
        update,
        shielded: Vec::new(),
    };
    answer(server, link, &message)?;
    Ok(sealed)
}

/// Opens the sealed segments of an update through the server's enclave
/// channel and splices them into the canonical parameter order, so the
/// state machine sees a complete update, and returns that parameter list
/// with the sealed bytes.
///
/// Under secure aggregation (`stash` is `Some`) the blobs are **not**
/// opened: they are stashed first-wins for the post-round enclave fold, and
/// the state machine receives finite zero placeholders for the shielded
/// names — FedAvg folds every parameter independently, so the clear
/// parameters come out bit-identical and the placeholder entries are
/// overwritten by [`FedAvgServer::splice_parameters`] after the fold.
///
/// # Errors
/// Returns an error if the server shields nothing, a blob fails to open or
/// the opened and clear segments do not complete the schema.
fn reassemble(
    current: &[(String, Tensor)],
    server_shield: Option<&ShieldedUpdateChannel>,
    stash: Option<&mut MaskStash>,
    update: &ModelUpdate,
    shielded: Vec<SealedBlob>,
) -> Result<(Vec<(String, Tensor)>, usize)> {
    let Some(server_shield) = server_shield else {
        return Err(FlError::InvalidConfig {
            reason: format!(
                "client {} sent sealed segments but the server shields nothing",
                update.client_id
            ),
        });
    };
    let clear = |name: &String| update.parameters.iter().find(|(n, _)| n == name);
    if let Some(stash) = stash {
        let sealed_bytes: usize = shielded.iter().map(SealedBlob::len).sum();
        let parameters = current
            .iter()
            .map(|(name, reference)| match clear(name) {
                Some((n, t)) => (n.clone(), t.clone()),
                None => (name.clone(), Tensor::zeros(reference.dims())),
            })
            .collect();
        stash
            .entry(update.client_id)
            .or_insert((update.num_samples, shielded));
        return Ok((parameters, sealed_bytes));
    }
    let (opened, report) = server_shield.open_segments(&shielded)?;
    let mut parameters = Vec::with_capacity(current.len());
    for (name, _) in current {
        let Some((n, t)) = clear(name).or_else(|| opened.iter().find(|(n, _)| n == name)) else {
            return Err(FlError::SchemaMismatch {
                reason: format!(
                    "client {} update is missing parameter '{name}' in both segments",
                    update.client_id
                ),
            });
        };
        parameters.push((n.clone(), t.clone()));
    }
    Ok((parameters, report.sealed_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelta_data::{DatasetSpec, GeneratorConfig};

    fn small_dataset(seed: u64) -> Dataset {
        Dataset::generate(
            DatasetSpec::Cifar10Like,
            &GeneratorConfig {
                train_samples: 40,
                test_samples: 20,
                ..GeneratorConfig::default()
            },
            seed,
        )
    }

    fn quick_training() -> TrainingConfig {
        TrainingConfig {
            epochs: 1,
            batch_size: 10,
            learning_rate: 0.02,
            momentum: 0.9,
        }
    }

    #[test]
    fn construction_validates_config() {
        let dataset = small_dataset(1);
        let mut seeds = SeedStream::new(1);
        let bad = FederationConfig {
            clients: 0,
            ..FederationConfig::default()
        };
        assert!(Federation::vit_federation(&dataset, &bad, Partition::Iid, &mut seeds).is_err());
        let bad = FederationConfig {
            rounds: 0,
            ..FederationConfig::default()
        };
        assert!(Federation::vit_federation(&dataset, &bad, Partition::Iid, &mut seeds).is_err());
        let bad = FederationConfig {
            clients: 2,
            policy: ParticipationPolicy {
                quorum: 3,
                sample: 0,
                straggler_deadline: 0,
            },
            ..FederationConfig::default()
        };
        assert!(Federation::vit_federation(&dataset, &bad, Partition::Iid, &mut seeds).is_err());
        let bad = FederationConfig {
            clients: 2,
            schedules: vec![ClientSchedule::punctual(5)],
            ..FederationConfig::default()
        };
        assert!(Federation::vit_federation(&dataset, &bad, Partition::Iid, &mut seeds).is_err());
    }

    /// Fewer training samples than seats is refused up front for every
    /// role, before any shard is cut, seat built or Join sent: an honest
    /// seat would never report, and a free rider or a probing seat on the
    /// empty shard would fail mid-build.
    #[test]
    fn fewer_samples_than_seats_is_rejected_up_front() {
        let dataset = Dataset::generate(
            DatasetSpec::Cifar10Like,
            &GeneratorConfig {
                train_samples: 3,
                test_samples: 4,
                ..GeneratorConfig::default()
            },
            10,
        );
        let honest = ScenarioSpec::honest(FederationConfig {
            clients: 4,
            rounds: 1,
            local_training: quick_training(),
            eval_samples: 4,
            ..FederationConfig::default()
        });
        let free_rider = honest.clone().with_role(
            3,
            AgentRole::FreeRider {
                claimed_samples: 0,
                spam: 0,
                perturbation: 0.0,
            },
        );
        let probing = honest.clone().with_role(
            3,
            AgentRole::Probing {
                attack: crate::AttackKind::Fgsm,
                epsilon: 0.05,
                steps: 1,
                probe_samples: 1,
            },
        );
        for spec in [honest, free_rider, probing] {
            let refused = Federation::vit_scenario(&dataset, &spec, &mut SeedStream::new(10))
                .err()
                .expect("fewer samples than seats must be refused");
            let reason = refused.to_string();
            assert!(
                reason.contains("3 training samples for 4 seats"),
                "{reason}"
            );
        }
    }

    #[test]
    fn federation_round_improves_or_preserves_accuracy_and_records_history() {
        let dataset = small_dataset(2);
        let mut seeds = SeedStream::new(2);
        let config = FederationConfig {
            clients: 2,
            rounds: 2,
            local_training: TrainingConfig {
                epochs: 2,
                batch_size: 10,
                learning_rate: 0.02,
                momentum: 0.9,
            },
            eval_samples: 20,
            ..FederationConfig::default()
        };
        let mut federation =
            Federation::vit_federation(&dataset, &config, Partition::Iid, &mut seeds).unwrap();
        assert_eq!(federation.num_clients(), 2);
        let history = federation.run(&mut seeds).unwrap();
        assert_eq!(history.rounds.len(), 2);
        assert_eq!(federation.server().round(), 2);
        assert!(history.total_messages > 0);
        assert!(history.total_wire_bytes > 0);
        for (i, record) in history.rounds.iter().enumerate() {
            assert_eq!(record.round, i);
            assert!(record.upload_bytes > 0);
            assert!((0.0..=1.0).contains(&record.global_accuracy));
            assert!(record.mean_client_loss.is_finite());
            assert_eq!(record.summary.reporters, vec![0, 1]);
            assert!(record.summary.stragglers.is_empty());
            assert_eq!(record.shielded_bytes, 0);
        }
        assert_eq!(
            history.final_accuracy,
            history.rounds.last().unwrap().global_accuracy
        );
        // The aggregated model is usable for inference.
        let global = federation.global_model().unwrap();
        assert_eq!(global.num_classes(), 10);
    }

    #[test]
    fn label_skew_partition_also_runs() {
        let dataset = small_dataset(3);
        let mut seeds = SeedStream::new(3);
        let config = FederationConfig {
            clients: 2,
            rounds: 1,
            local_training: quick_training(),
            eval_samples: 10,
            ..FederationConfig::default()
        };
        let mut federation =
            Federation::vit_federation(&dataset, &config, Partition::LabelSkew, &mut seeds)
                .unwrap();
        let history = federation.run(&mut seeds).unwrap();
        assert_eq!(history.rounds.len(), 1);
    }

    #[test]
    fn dropout_mid_round_completes_with_quorum_and_renormalizes() {
        let dataset = small_dataset(4);
        let mut seeds = SeedStream::new(4);
        let config = FederationConfig {
            clients: 3,
            rounds: 2,
            local_training: quick_training(),
            eval_samples: 10,
            policy: ParticipationPolicy {
                quorum: 2,
                sample: 0,
                straggler_deadline: 0,
            },
            schedules: vec![ClientSchedule {
                client_id: 1,
                drop_at_round: Some(0),
                rejoin_at_round: Some(1),
                latency: 0,
            }],
            ..FederationConfig::default()
        };
        let mut federation =
            Federation::vit_federation(&dataset, &config, Partition::Iid, &mut seeds).unwrap();
        let history = federation.run(&mut seeds).unwrap();
        // Round 0: client 1 left mid-round; the round still completed over
        // the remaining reporters and the weight renormalised over them.
        let first = &history.rounds[0].summary;
        assert_eq!(first.participants, vec![0, 1, 2]);
        assert_eq!(first.reporters, vec![0, 2]);
        assert_eq!(first.dropouts, vec![1]);
        // Round 1: the client rejoined and reported again.
        let second = &history.rounds[1].summary;
        assert_eq!(second.participants, vec![0, 1, 2]);
        assert_eq!(second.reporters, vec![0, 1, 2]);
        assert!(second.dropouts.is_empty());
    }

    #[test]
    fn straggler_past_the_deadline_is_excluded_deterministically() {
        let run = |seed: u64| {
            let dataset = small_dataset(5);
            let mut seeds = SeedStream::new(seed);
            let config = FederationConfig {
                clients: 3,
                rounds: 1,
                local_training: quick_training(),
                eval_samples: 10,
                policy: ParticipationPolicy {
                    quorum: 2,
                    sample: 0,
                    straggler_deadline: 2,
                },
                schedules: vec![ClientSchedule {
                    client_id: 0,
                    drop_at_round: None,
                    rejoin_at_round: None,
                    latency: 3,
                }],
                ..FederationConfig::default()
            };
            let mut federation =
                Federation::vit_federation(&dataset, &config, Partition::Iid, &mut seeds).unwrap();
            federation.run(&mut seeds).unwrap()
        };
        let history = run(5);
        let summary = &history.rounds[0].summary;
        // Clients 1 and 2 fill the deadline; slow client 0 is a straggler.
        assert_eq!(summary.reporters, vec![1, 2]);
        assert_eq!(summary.stragglers, vec![0]);
        assert!(summary.dropouts.is_empty());
        // The run is deterministic across repeats.
        let replay = run(5);
        assert_eq!(history, replay);
    }

    #[test]
    fn shielded_updates_travel_sealed_and_match_the_clear_run() {
        let dataset = small_dataset(6);
        let base = FederationConfig {
            clients: 2,
            rounds: 1,
            local_training: quick_training(),
            eval_samples: 10,
            ..FederationConfig::default()
        };
        let run = |config: &FederationConfig| {
            let mut seeds = SeedStream::new(6);
            let mut federation =
                Federation::vit_federation(&dataset, config, Partition::Iid, &mut seeds).unwrap();
            let history = federation.run(&mut seeds).unwrap();
            let params: Vec<(String, Vec<u32>)> = federation
                .server()
                .parameters()
                .iter()
                .map(|(n, t)| (n.clone(), t.data().iter().map(|v| v.to_bits()).collect()))
                .collect();
            (history, params, federation.server_shield_ledger())
        };
        let (clear_history, clear_params, clear_ledger) = run(&base);
        assert!(clear_ledger.is_none());
        assert_eq!(clear_history.rounds[0].shielded_bytes, 0);

        let shielded_config = FederationConfig {
            shield_updates: true,
            ..base
        };
        let (shielded_history, shielded_params, shielded_ledger) = run(&shielded_config);
        // Sealed segments crossed the enclave channel and were accounted.
        assert!(shielded_history.rounds[0].shielded_bytes > 0);
        let ledger = shielded_ledger.unwrap();
        assert!(ledger.channel_bytes > 0);
        assert!(ledger.sealed_bytes > 0);
        // The sealed path is bitwise lossless: the global model is identical
        // to the clear run's.
        assert_eq!(clear_params, shielded_params);
    }

    /// The secure-aggregation tentpole, full participation: a masked run
    /// produces exactly the bits of the clear shielded run, while the root
    /// enclave never unseals an individual member's blob.
    #[test]
    fn secure_aggregation_matches_the_shielded_run_bit_for_bit() {
        let dataset = small_dataset(7);
        let shielded_config = FederationConfig {
            clients: 3,
            rounds: 2,
            local_training: quick_training(),
            eval_samples: 10,
            shield_updates: true,
            ..FederationConfig::default()
        };
        let run = |config: &FederationConfig| {
            let mut seeds = SeedStream::new(7);
            let mut federation =
                Federation::vit_federation(&dataset, config, Partition::Iid, &mut seeds).unwrap();
            let history = federation.run(&mut seeds).unwrap();
            let params: Vec<(String, Vec<u32>)> = federation
                .server()
                .parameters()
                .iter()
                .map(|(n, t)| (n.clone(), t.data().iter().map(|v| v.to_bits()).collect()))
                .collect();
            (history, params, federation.server_raw_unseals())
        };
        let (shielded_history, shielded_params, shielded_unseals) = run(&shielded_config);
        // The plain shielded path opens every member blob individually.
        assert!(shielded_unseals.unwrap() > 0);

        let masked_config = FederationConfig {
            secure_aggregation: true,
            ..shielded_config
        };
        let (masked_history, masked_params, masked_unseals) = run(&masked_config);
        // Masking is invisible in the bits: the global model, the sealed
        // byte accounting and the round records all match the clear
        // shielded run...
        assert_eq!(shielded_params, masked_params);
        assert_eq!(
            shielded_history.rounds[0].shielded_bytes,
            masked_history.rounds[0].shielded_bytes
        );
        assert_eq!(shielded_history.rounds, masked_history.rounds);
        // ...but no individual blob was ever unsealed by the root.
        assert_eq!(masked_unseals.unwrap(), 0);

        // And the masked run replays bit-identically.
        let (replay_history, replay_params, _) = run(&masked_config);
        assert_eq!(masked_params, replay_params);
        assert_eq!(masked_history, replay_history);
    }

    /// Dropout composes with secure aggregation: the mid-round Leave makes
    /// the seat a dead seat, the MaskShare sweep reconstructs its pair
    /// seeds from the surviving reporters, and the fold still lands on the
    /// clear shielded run's exact bits.
    #[test]
    fn secure_aggregation_reconstructs_dropped_seats() {
        let dataset = small_dataset(8);
        let shielded_config = FederationConfig {
            clients: 3,
            rounds: 2,
            local_training: quick_training(),
            eval_samples: 10,
            shield_updates: true,
            policy: ParticipationPolicy {
                quorum: 2,
                sample: 0,
                straggler_deadline: 0,
            },
            schedules: vec![ClientSchedule {
                client_id: 1,
                drop_at_round: Some(0),
                rejoin_at_round: Some(1),
                latency: 0,
            }],
            ..FederationConfig::default()
        };
        let run = |config: &FederationConfig| {
            let mut seeds = SeedStream::new(8);
            let mut federation =
                Federation::vit_federation(&dataset, config, Partition::Iid, &mut seeds).unwrap();
            let history = federation.run(&mut seeds).unwrap();
            let params: Vec<(String, Vec<u32>)> = federation
                .server()
                .parameters()
                .iter()
                .map(|(n, t)| (n.clone(), t.data().iter().map(|v| v.to_bits()).collect()))
                .collect();
            (history, params, federation.server_raw_unseals())
        };
        let (shielded_history, shielded_params, _) = run(&shielded_config);
        assert_eq!(shielded_history.rounds[0].summary.dropouts, vec![1]);
        let masked_config = FederationConfig {
            secure_aggregation: true,
            ..shielded_config
        };
        let (masked_history, masked_params, masked_unseals) = run(&masked_config);
        // Round 0 really lost the seat, so the reconstruction path ran.
        assert_eq!(masked_history.rounds[0].summary.dropouts, vec![1]);
        assert_eq!(masked_history.rounds[0].summary.reporters, vec![0, 2]);
        assert_eq!(shielded_params, masked_params);
        assert_eq!(masked_unseals.unwrap(), 0);
        // Replay determinism holds through the dropout and the share sweep.
        let (replay_history, replay_params, _) = run(&masked_config);
        assert_eq!(masked_params, replay_params);
        assert_eq!(masked_history, replay_history);
    }

    /// Edge stragglers are dead seats for the masks, so the edges must not
    /// relay them the `MaskShare` request: a straggler would answer at its
    /// next step, and the stale share would reach the root inside the next
    /// round's uplink sweep, where it is Nack'd and burns a delivery.
    #[test]
    fn mask_share_requests_skip_edge_stragglers() {
        let dataset = small_dataset(3);
        let config = FederationConfig {
            clients: 4,
            rounds: 2,
            local_training: quick_training(),
            eval_samples: 10,
            shield_updates: true,
            secure_aggregation: true,
            topology: Topology::Hierarchical {
                groups: vec![vec![0, 1, 2], vec![3]],
                edge_policy: ParticipationPolicy {
                    quorum: 1,
                    sample: 0,
                    straggler_deadline: 1,
                },
            },
            ..FederationConfig::default()
        };
        let mut seeds = SeedStream::new(3);
        let mut federation =
            Federation::vit_federation(&dataset, &config, Partition::Iid, &mut seeds).unwrap();
        let history = federation.run(&mut seeds).unwrap();
        for record in &history.rounds {
            assert_eq!(record.edge_summaries[0].stragglers, vec![1, 2]);
        }
        assert_eq!(
            history.rounds[1].summary.delivered_messages,
            history.rounds[0].summary.delivered_messages
        );
    }

    /// Sealed segments the root cannot reassemble are outside input: the
    /// update is refused with `Nack(Rejected)` like a clear update with a bad
    /// schema, its delivery counts, and the round closes over the other seat
    /// — in the star's collect and in the root's unwrap of a combined
    /// subtree frame alike. Each case used to end the run with an error.
    #[test]
    fn updates_whose_sealed_segments_cannot_be_reassembled_are_refused() {
        use rand::SeedableRng;

        let dataset = small_dataset(11);
        // (topology, server shields, blob tampered, clear segment sent)
        let cases = [
            (Topology::Star, true, true, true),
            (Topology::Star, false, false, true),
            (Topology::Star, true, false, false),
            (Topology::hierarchical(vec![vec![0, 1]]), true, true, true),
        ];
        for (topology, shield_updates, tampered, with_clear) in cases {
            let case = format!("{topology:?} shield={shield_updates} tampered={tampered}");
            let config = FederationConfig {
                clients: 2,
                rounds: 1,
                local_training: quick_training(),
                eval_samples: 10,
                topology,
                shield_updates,
                ..FederationConfig::default()
            };
            let mut seeds = SeedStream::new(11);
            let mut federation =
                Federation::vit_federation(&dataset, &config, Partition::Iid, &mut seeds).unwrap();
            let participants = federation
                .server
                .begin_round(&mut ChaCha8Rng::seed_from_u64(11))
                .unwrap();
            assert_eq!(participants, vec![0, 1], "{case}");
            let global = federation.server.parameters().to_vec();
            let (shielded, clear) = split_segments(federation.eval_model.as_ref(), global.clone());
            let (mut blobs, _) = ShieldedUpdateChannel::connect(1)
                .unwrap()
                .seal_segments(&shielded)
                .unwrap();
            if tampered {
                blobs[0].tamper_for_tests();
            }
            let update = |client_id, parameters| ModelUpdate {
                client_id,
                round: 0,
                num_samples: 5,
                parameters,
            };
            let honest = update(0, global);
            let broken = update(1, if with_clear { clear } else { Vec::new() });
            // The test speaks for the seats: over fresh seat links on the
            // star, or as the edge on its uplink under the hierarchy.
            let (agent_ends, runtime_ends): (Vec<_>, Vec<_>) =
                (0..2).map(|_| TransportKind::InMemory.duplex()).unzip();
            let refusal_end = match &mut federation.fabric {
                Fabric::Star { links } => {
                    *links = runtime_ends;
                    agent_ends[0]
                        .send(&Message::Update {
                            update: honest,
                            shielded: Vec::new(),
                        })
                        .unwrap();
                    agent_ends[1]
                        .send(&Message::Update {
                            update: broken,
                            shielded: blobs,
                        })
                        .unwrap();
                    &agent_ends[1]
                }
                Fabric::Hierarchical { uplinks, .. } => {
                    *uplinks = runtime_ends;
                    agent_ends[0]
                        .send(&Message::AggregateUpdate {
                            origin: 0,
                            round: 0,
                            members: vec![
                                MemberUpdate::clear(honest),
                                MemberUpdate {
                                    update: broken,
                                    shielded: blobs,
                                },
                            ],
                        })
                        .unwrap();
                    &agent_ends[0]
                }
                Fabric::Gossip { .. } => unreachable!("no gossip case"),
            };
            federation
                .deliver_round()
                .unwrap_or_else(|error| panic!("{case}: {error}"));
            let summary = federation.server.close_round().unwrap();
            assert_eq!(summary.reporters, vec![0], "{case}");
            assert_eq!(summary.delivered_messages, 2, "{case}");
            assert!(
                matches!(
                    refusal_end.recv().unwrap(),
                    Some(Message::Nack {
                        client_id: 1,
                        round: 0,
                        reason: NackReason::Rejected(_),
                    })
                ),
                "{case}"
            );
        }
    }

    #[test]
    fn secure_aggregation_config_is_validated() {
        let dataset = small_dataset(9);
        let refused = |mutate: fn(&mut FederationConfig)| {
            let mut config = FederationConfig {
                clients: 2,
                rounds: 1,
                local_training: quick_training(),
                eval_samples: 10,
                shield_updates: true,
                secure_aggregation: true,
                ..FederationConfig::default()
            };
            mutate(&mut config);
            let mut seeds = SeedStream::new(9);
            Federation::vit_federation(&dataset, &config, Partition::Iid, &mut seeds).is_err()
        };
        // Masking without sealing, a non-linear rule, sampling, and gossip
        // are all refused up front.
        assert!(refused(|c| c.shield_updates = false));
        assert!(refused(
            |c| c.rule = AggregationRule::TrimmedMean { trim: 0 }
        ));
        assert!(refused(|c| c.policy.sample = 1));
        assert!(refused(|c| {
            c.shield_updates = false;
            c.topology = Topology::Gossip { fanout: 1 };
        }));
    }
}
