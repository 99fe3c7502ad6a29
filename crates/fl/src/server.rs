//! The trusted aggregation server (FedAvg), driven as an explicit per-round
//! state machine.
//!
//! The server cycles through three phases per round:
//!
//! 1. **Broadcasting** — between rounds. [`FedAvgServer::begin_round`]
//!    samples the round's participants from the connected clients and moves
//!    to *Collecting*; the caller broadcasts [`Message::RoundStart`] over
//!    each participant's transport.
//! 2. **Collecting** — [`FedAvgServer::deliver`] consumes one protocol
//!    message at a time (in whatever deterministic order the runtime drains
//!    the transports) and answers with [`Message::Nack`] when a message is
//!    refused. The **straggler deadline is measured in delivered messages**,
//!    not wall clock, so runs are reproducible: once the deadline count has
//!    passed and the quorum is met, late updates are Nack'd instead of
//!    aggregated. Clients may [`Message::Leave`] mid-round (dropout) or
//!    [`Message::Join`] for the *next* round (rejoin).
//! 3. **Aggregating** — [`FedAvgServer::close_round`] applies the server's
//!    [`AggregationRule`] to the updates that actually arrived (plain
//!    sample-weighted FedAvg by default; norm clipping or trimmed mean when
//!    the deployment defends against poisoned updates) and returns to
//!    *Broadcasting*.
//!
//! The server is two parts. The crate-private `Admission` state machine
//! decides who participates and which updates are accepted — sampling,
//! duplicates, the straggler deadline, the quorum, the schema check, the
//! Nacks and the round's [`RoundSummary`] — and holds no model. The fold
//! is the root's alone: the global parameters and the round's
//! [`AggregationFold`] (in [`crate::robust`], the crate's one fold, with the
//! canonical client-id fold order and the rule dispatch), which the server
//! drives update by update; [`crate::aggregate_with_rule`] drives the same
//! fold over a buffered update set for call-level use. Each
//! [`crate::EdgeAggregator`] runs an `Admission` of its own and folds
//! nothing.
//!
//! The server is codec-agnostic: update frames compressed by an
//! [`crate::UpdateCodec`] are decoded at the transport boundary, so
//! [`FedAvgServer::deliver`] always receives plain dequantized `f32`
//! payloads and the fold below never touches wire bytes.
//!
//! **Streaming collection.** The Collecting phase does not buffer the
//! round's update payloads: accepted updates feed the round's
//! [`AggregationFold`], which under a streaming rule (FedAvg, norm
//! clipping — see the *streaming fold contract* in [`crate::robust`])
//! consumes each payload immediately, keeping the server's peak memory
//! O(model) instead of O(population × model). Because the canonical fold
//! order is ascending client id but updates arrive in delivery order, a
//! small **reorder window** buffers an accepted update only until every
//! participant with a smaller id is accounted for (reported, dropped out,
//! or Nack'd as a straggler) — with in-order delivery sweeps the window
//! never holds more than one payload, and in the worst (fully reversed)
//! case it degrades to the old buffered behaviour, never worse.
//!
//! **Secure aggregation.** The state machine itself never learns whether a
//! deployment runs pairwise-masked shielded rounds (see
//! [`crate::secure_agg`]): masked updates carry finite zero placeholders for
//! the shielded names, fold like any other update, and after
//! [`FedAvgServer::close_round`] the runtime overwrites exactly those
//! entries with the root enclave's aggregate via
//! [`FedAvgServer::splice_parameters`]. Because FedAvg folds every parameter
//! independently, the clear parameters of a masked round are bit-identical
//! to an unmasked run's — only the placeholder entries are replaced.

use std::collections::{BTreeMap, BTreeSet};

use pelta_tensor::Tensor;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::message::clear_update_wire_size;
use crate::robust::{validate_update_schema, AggregationFold};
use crate::{AggregationRule, FlError, GlobalModel, Message, ModelUpdate, NackReason, Result};

/// Who participates in a round and when the server stops waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParticipationPolicy {
    /// Minimum number of client updates required to aggregate a round.
    pub quorum: usize,
    /// Number of connected clients sampled into each round (`0` = every
    /// connected client participates).
    pub sample: usize,
    /// Maximum number of messages the server delivers while collecting
    /// before late updates are treated as stragglers (`0` = wait for every
    /// participant). Counted in **delivered messages** so federations stay
    /// deterministic — wall clocks never enter the protocol.
    pub straggler_deadline: usize,
}

impl ParticipationPolicy {
    /// The one check of a policy against the rule its rounds fold with: a
    /// quorum of at least 1, no larger than a non-zero per-round sample,
    /// valid rule parameters, and a quorum of at least the rule's minimum
    /// update count (a smaller one could close a round the rule cannot
    /// fold). The server, [`crate::FederationConfig::validate`] and the edge
    /// policy of [`crate::Topology::Hierarchical`] all run it.
    ///
    /// # Errors
    /// Returns an error naming the first defect.
    pub fn validate(&self, rule: AggregationRule) -> Result<()> {
        if self.quorum == 0 {
            return Err(FlError::InvalidConfig {
                reason: "participation quorum must be at least 1".to_string(),
            });
        }
        if self.sample != 0 && self.quorum > self.sample {
            return Err(FlError::InvalidConfig {
                reason: format!(
                    "quorum {} exceeds the per-round sample size {}",
                    self.quorum, self.sample
                ),
            });
        }
        rule.validate()?;
        if self.quorum < rule.min_updates() {
            return Err(FlError::InvalidConfig {
                reason: format!(
                    "quorum {} cannot satisfy rule {rule:?}, which needs at least {} updates",
                    self.quorum,
                    rule.min_updates()
                ),
            });
        }
        Ok(())
    }
}

impl Default for ParticipationPolicy {
    fn default() -> Self {
        ParticipationPolicy {
            quorum: 1,
            sample: 0,
            straggler_deadline: 0,
        }
    }
}

/// The server's position in the per-round state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoundPhase {
    /// Between rounds; ready to broadcast the next [`Message::RoundStart`].
    /// A server starts here.
    #[default]
    Broadcasting,
    /// Waiting for participant updates.
    Collecting,
    /// Folding the received updates into the global model (transient, only
    /// observable from within aggregation hooks).
    Aggregating,
}

/// What happened in one completed round.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundSummary {
    /// The round that was aggregated.
    pub round: usize,
    /// Clients sampled into the round (sorted).
    pub participants: Vec<usize>,
    /// Clients whose updates were aggregated, in canonical ascending
    /// client-id order (the fold order).
    pub reporters: Vec<usize>,
    /// Participants whose updates arrived after the straggler deadline.
    pub stragglers: Vec<usize>,
    /// Participants that left mid-round.
    pub dropouts: Vec<usize>,
    /// Total FedAvg weight (sample count) the aggregate renormalised over.
    pub total_weight: usize,
    /// Messages delivered to the server while collecting.
    pub delivered_messages: usize,
    /// Bytes of the accepted updates, each counted at the
    /// [`Message::wire_size`] of a complete clear update of the round's
    /// schema: its size under the Raw codec after reassembly, whatever codec
    /// carried it. Under `shield_updates` the count covers the unsealed
    /// tensors, not the sealed blobs that crossed the link, at an edge
    /// aggregator as at the root. [`crate::RunHistory::total_wire_bytes`]
    /// counts the traffic as shipped.
    pub update_bytes: usize,
}

/// The durable state a recovering aggregator re-syncs from: the round it
/// must rejoin at and the global parameters to re-anchor to. Produced by
/// [`FedAvgServer::checkpoint`] at the consensus point; consumed by
/// [`FedAvgServer::restore`], and by [`crate::EdgeAggregator::resync`] for
/// a crashed edge, which holds no model and takes only the round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundCheckpoint {
    /// The round the checkpoint was taken at.
    pub round: usize,
    /// The global parameters at that round.
    pub parameters: Vec<(String, Tensor)>,
}

/// The per-round admission state machine: who is connected, who was
/// sampled, which updates are accepted, when collection may stop, and the
/// round's [`RoundSummary`]. It holds no model. The root's
/// [`FedAvgServer`] feeds every update it accepts to the round's fold; an
/// [`crate::EdgeAggregator`] runs one per subtree and forwards what it
/// accepts.
///
/// An update is judged in a fixed order: the round (`StaleRound`), the
/// sample (`NotParticipating`), first-wins (`Duplicate`), the straggler
/// deadline (`StragglerDeadline`, once the quorum is met), then the owner's
/// schema check (`Rejected`). Every delivery while collecting burns one
/// unit of the deadline.
#[derive(Default)]
pub(crate) struct Admission {
    round: usize,
    policy: ParticipationPolicy,
    phase: RoundPhase,
    connected: BTreeSet<usize>,
    participants: BTreeSet<usize>,
    /// Participants not yet accounted for (not reported, dropped out, or
    /// straggler-refused).
    unresolved: BTreeSet<usize>,
    reporters: BTreeSet<usize>,
    stragglers: Vec<usize>,
    dropouts: Vec<usize>,
    total_weight: usize,
    delivered: usize,
}

impl Admission {
    /// A state machine between rounds, at round 0, with nobody connected.
    /// The caller has validated `policy`.
    pub(crate) fn new(policy: ParticipationPolicy) -> Self {
        Admission {
            policy,
            ..Admission::default()
        }
    }

    /// Opens round `round` with the participants the coordinator sampled,
    /// at the coordinator's round number: an edge whose subtree was not
    /// sampled skips rounds, so its own counter cannot track the
    /// federation's.
    ///
    /// # Errors
    /// Returns an error if a round is already open, the set is empty, a
    /// participant is not connected, or `round` would move backwards.
    pub(crate) fn begin_with(&mut self, round: usize, participants: &[usize]) -> Result<()> {
        if self.phase != RoundPhase::Broadcasting {
            return Err(FlError::InvalidConfig {
                reason: format!("open_round in phase {:?}", self.phase),
            });
        }
        if participants.is_empty() {
            return Err(FlError::InvalidConfig {
                reason: "open_round needs at least one participant".to_string(),
            });
        }
        if round < self.round {
            return Err(FlError::InvalidConfig {
                reason: format!(
                    "open_round round {round} is behind the server round {}",
                    self.round
                ),
            });
        }
        if let Some(id) = participants.iter().find(|id| !self.connected.contains(id)) {
            return Err(FlError::InvalidConfig {
                reason: format!("participant {id} is not connected"),
            });
        }
        self.round = round;
        self.open(participants.iter().copied().collect());
        Ok(())
    }

    /// Samples the next round's participants from the connected clients:
    /// all of them unless the policy samples fewer.
    ///
    /// # Errors
    /// Returns an error if a round is already open or fewer clients are
    /// connected than the quorum requires.
    fn sample(&self, rng: &mut ChaCha8Rng) -> Result<BTreeSet<usize>> {
        if self.phase != RoundPhase::Broadcasting {
            return Err(FlError::InvalidConfig {
                reason: format!("begin_round in phase {:?}", self.phase),
            });
        }
        if self.connected.len() < self.policy.quorum {
            return Err(FlError::QuorumNotMet {
                round: self.round,
                received: 0,
                quorum: self.policy.quorum,
            });
        }
        let sample = self.policy.sample;
        if sample == 0 || sample >= self.connected.len() {
            return Ok(self.connected.clone());
        }
        // Partial Fisher–Yates over the sorted id list: deterministic for a
        // given rng state, unbiased over subsets.
        let mut pool: Vec<usize> = self.connected.iter().copied().collect();
        let mut drawn = BTreeSet::new();
        for i in 0..sample {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
            drawn.insert(pool[i]);
        }
        Ok(drawn)
    }

    /// Resets the per-round state and opens the *Collecting* phase.
    fn open(&mut self, participants: BTreeSet<usize>) {
        self.reset();
        self.unresolved = participants.clone();
        self.participants = participants;
        self.phase = RoundPhase::Collecting;
    }

    /// Drops the round's state: *Broadcasting*, keeping the round number,
    /// the policy and who is connected.
    fn reset(&mut self) {
        *self = Admission {
            round: self.round,
            policy: self.policy,
            connected: std::mem::take(&mut self.connected),
            ..Admission::default()
        };
    }

    /// Delivers one protocol message and returns the responses to route
    /// back (Nacks). An update is judged with `check`, the owner's schema
    /// check, last; an update answered with no Nack was accepted.
    pub(crate) fn deliver(
        &mut self,
        message: &Message,
        check: impl FnOnce(&ModelUpdate) -> Result<()>,
    ) -> Vec<Message> {
        if let Message::Update { update, .. } = message {
            return self.admit(update, check);
        }
        self.count_delivery();
        match message {
            Message::Join { client_id } => {
                // Joins are accepted in any phase; a mid-round join
                // participates from the next round on.
                self.connected.insert(*client_id);
                Vec::new()
            }
            Message::Leave { client_id } => {
                self.connected.remove(client_id);
                if self.phase == RoundPhase::Collecting
                    && self.participants.contains(client_id)
                    && !self.reporters.contains(client_id)
                    && !self.dropouts.contains(client_id)
                {
                    self.dropouts.push(*client_id);
                    self.unresolved.remove(client_id);
                }
                Vec::new()
            }
            // A subtree-addressed combined update must be unwrapped by the
            // topology runtime (which unseals segments and delivers members
            // individually); a server handed one directly refuses it — and
            // the refusal is addressed to the forwarding seat's `origin`, not
            // to a nobody id, so it stays routable through multi-hop
            // topologies.
            Message::AggregateUpdate { origin, .. } => vec![Message::Nack {
                client_id: *origin,
                round: self.round,
                reason: NackReason::Rejected(
                    "server expects unwrapped member updates, not AggregateUpdate frames"
                        .to_string(),
                ),
            }],
            other => vec![Message::Nack {
                client_id: usize::MAX,
                round: self.round,
                reason: NackReason::Rejected(format!(
                    "server cannot accept {} messages",
                    other.kind()
                )),
            }],
        }
    }

    /// Delivers one update and judges it, `check` last; returns its Nack,
    /// or nothing when it was accepted.
    pub(crate) fn admit(
        &mut self,
        update: &ModelUpdate,
        check: impl FnOnce(&ModelUpdate) -> Result<()>,
    ) -> Vec<Message> {
        self.count_delivery();
        let nack = |reason: NackReason| {
            vec![Message::Nack {
                client_id: update.client_id,
                round: update.round,
                reason,
            }]
        };
        if self.phase != RoundPhase::Collecting || update.round != self.round {
            return nack(NackReason::StaleRound);
        }
        if !self.participants.contains(&update.client_id) {
            return nack(NackReason::NotParticipating);
        }
        if self.reporters.contains(&update.client_id) {
            return nack(NackReason::Duplicate);
        }
        let deadline = self.policy.straggler_deadline;
        if deadline != 0 && self.delivered > deadline && self.reporters.len() >= self.policy.quorum
        {
            self.stragglers.push(update.client_id);
            self.unresolved.remove(&update.client_id);
            return nack(NackReason::StragglerDeadline);
        }
        if let Err(error) = check(update) {
            return nack(NackReason::Rejected(error.to_string()));
        }
        self.reporters.insert(update.client_id);
        self.total_weight += update.num_samples;
        self.unresolved.remove(&update.client_id);
        Vec::new()
    }

    /// Accounts a frame that arrived damaged (see
    /// [`FedAvgServer::deliver_corrupt`]).
    pub(crate) fn deliver_corrupt(&mut self, client_id: usize, round: usize) -> Vec<Message> {
        self.count_delivery();
        vec![Message::Nack {
            client_id,
            round,
            reason: NackReason::CorruptFrame,
        }]
    }

    /// Every delivery while collecting burns one unit of the deadline.
    fn count_delivery(&mut self) {
        if self.phase == RoundPhase::Collecting {
            self.delivered += 1;
        }
    }

    /// Ends collection: checks the quorum and moves to *Aggregating*.
    ///
    /// # Errors
    /// Returns an error if no round is collecting, or
    /// [`FlError::QuorumNotMet`] with the round still collecting.
    pub(crate) fn close(&mut self) -> Result<()> {
        if self.phase != RoundPhase::Collecting {
            return Err(FlError::InvalidConfig {
                reason: format!("close_round in phase {:?}", self.phase),
            });
        }
        if self.reporters.len() < self.policy.quorum {
            return Err(FlError::QuorumNotMet {
                round: self.round,
                received: self.reporters.len(),
                quorum: self.policy.quorum,
            });
        }
        self.phase = RoundPhase::Aggregating;
        Ok(())
    }

    /// Completes a closed round: the next round number, *Broadcasting*, and
    /// the summary. Every accepted update counts `update_size` bytes, the
    /// Raw size of a complete clear update of the round's schema (see
    /// [`RoundSummary::update_bytes`]).
    pub(crate) fn finish(&mut self, update_size: usize) -> RoundSummary {
        self.unresolved.clear();
        let round = self.round;
        self.round += 1;
        self.phase = RoundPhase::Broadcasting;
        let update_bytes = update_size * self.reporters.len();
        RoundSummary {
            round,
            participants: self.participants.iter().copied().collect(),
            update_bytes,
            reporters: std::mem::take(&mut self.reporters).into_iter().collect(),
            stragglers: std::mem::take(&mut self.stragglers),
            dropouts: std::mem::take(&mut self.dropouts),
            total_weight: std::mem::take(&mut self.total_weight),
            delivered_messages: self.delivered,
        }
    }

    /// Abandons the open round: back to *Broadcasting* at the same round
    /// number, with the round's accounting dropped.
    ///
    /// # Errors
    /// Returns an error if no round is open.
    pub(crate) fn abort(&mut self) -> Result<()> {
        if self.phase != RoundPhase::Collecting {
            return Err(FlError::InvalidConfig {
                reason: format!("abort_round in phase {:?}", self.phase),
            });
        }
        self.reset();
        Ok(())
    }

    /// Fast-forwards a recovering aggregator to round `round`.
    ///
    /// # Errors
    /// Returns an error if a round is open or `round` is behind this one.
    pub(crate) fn restore(&mut self, round: usize) -> Result<()> {
        if self.phase != RoundPhase::Broadcasting {
            return Err(FlError::InvalidConfig {
                reason: format!("restore in phase {:?}", self.phase),
            });
        }
        if round < self.round {
            return Err(FlError::InvalidConfig {
                reason: format!(
                    "checkpoint round {round} is behind the server round {}",
                    self.round
                ),
            });
        }
        self.round = round;
        Ok(())
    }
}

/// The trusted federated-learning server of Fig. 1: it never sees raw client
/// data, only model updates, which it combines with federated averaging
/// (McMahan et al.) weighted by each client's sample count and renormalised
/// over the clients that actually reported.
///
/// It is the crate's admission state machine (see the module docs) plus the
/// model: the global parameters, the round's [`AggregationFold`] and its
/// reorder window.
pub struct FedAvgServer {
    admission: Admission,
    parameters: Vec<(String, Tensor)>,
    rule: AggregationRule,
    /// The open round's incremental aggregation (present iff Collecting).
    fold: Option<AggregationFold>,
    /// A fold failure deferred from delivery (the message flow cannot
    /// surface errors) to `close_round`. Unreachable in practice: accepted
    /// updates already passed the same validation the fold re-asserts.
    fold_error: Option<FlError>,
    /// The reorder window: accepted updates waiting for every
    /// smaller-id participant to be accounted for before folding.
    pending: BTreeMap<usize, ModelUpdate>,
}

impl FedAvgServer {
    /// Creates a server from the initial global parameters with the default
    /// participation policy (everyone participates, quorum 1, no deadline).
    pub fn new(initial_parameters: Vec<(String, Tensor)>) -> Self {
        Self::with_policy(initial_parameters, ParticipationPolicy::default())
            .expect("default policy is valid")
    }

    /// Creates a server with an explicit participation policy and the plain
    /// FedAvg rule.
    ///
    /// # Errors
    /// Returns an error if [`ParticipationPolicy::validate`] refuses the
    /// policy under FedAvg.
    pub fn with_policy(
        initial_parameters: Vec<(String, Tensor)>,
        policy: ParticipationPolicy,
    ) -> Result<Self> {
        Self::with_rule(initial_parameters, policy, AggregationRule::FedAvg)
    }

    /// Creates a server with an explicit participation policy and aggregation
    /// rule — the fully-specified constructor of the state machine.
    ///
    /// # Errors
    /// Returns an error if [`ParticipationPolicy::validate`] refuses the
    /// policy under `rule` (a trimmed mean, for one, needs
    /// `quorum > 2·trim` or a quorate round could still fail to aggregate).
    pub fn with_rule(
        initial_parameters: Vec<(String, Tensor)>,
        policy: ParticipationPolicy,
        rule: AggregationRule,
    ) -> Result<Self> {
        policy.validate(rule)?;
        Ok(FedAvgServer {
            admission: Admission::new(policy),
            parameters: initial_parameters,
            rule,
            fold: None,
            fold_error: None,
            pending: BTreeMap::new(),
        })
    }

    /// The current round number.
    pub fn round(&self) -> usize {
        self.admission.round
    }

    /// The server's phase in the round state machine.
    pub fn phase(&self) -> RoundPhase {
        self.admission.phase
    }

    /// Messages delivered so far in the open round (the straggler-deadline
    /// counter); resets when a round opens.
    pub fn delivered_messages(&self) -> usize {
        self.admission.delivered
    }

    /// The aggregation rule applied in the *Aggregating* phase.
    pub fn rule(&self) -> AggregationRule {
        self.rule
    }

    /// The currently connected (joined, not left) clients.
    pub fn connected_clients(&self) -> Vec<usize> {
        self.admission.connected.iter().copied().collect()
    }

    /// The current global parameters.
    pub fn parameters(&self) -> &[(String, Tensor)] {
        &self.parameters
    }

    /// Overwrites a *subset* of the global parameters in place — the secure
    /// aggregation splice: under masked shielded rounds the regular fold sees
    /// finite zero placeholders for the shielded segment, and once the root
    /// enclave has folded the sealed blobs (after the mask-reconstruction
    /// sweep) the runtime splices the enclave's aggregate over exactly those
    /// entries. Every supplied entry must match an existing parameter by
    /// name and shape, and parameters not named are left untouched.
    ///
    /// # Errors
    /// Returns an error if a round is open, a name is unknown, or a tensor's
    /// dims disagree with the parameter it replaces.
    pub fn splice_parameters(&mut self, spliced: &[(String, Tensor)]) -> Result<()> {
        if self.phase() != RoundPhase::Broadcasting {
            return Err(FlError::InvalidConfig {
                reason: format!("splice_parameters in phase {:?}", self.phase()),
            });
        }
        for (name, tensor) in spliced {
            let slot = self
                .parameters
                .iter_mut()
                .find(|(existing, _)| existing == name)
                .ok_or_else(|| FlError::SchemaMismatch {
                    reason: format!("splice names unknown parameter {name:?}"),
                })?;
            if slot.1.dims() != tensor.dims() {
                return Err(FlError::SchemaMismatch {
                    reason: format!(
                        "splice for {name:?} has dims {:?}, parameter has {:?}",
                        tensor.dims(),
                        slot.1.dims()
                    ),
                });
            }
            slot.1 = tensor.clone();
        }
        Ok(())
    }

    /// The broadcast message for the current round.
    pub fn broadcast(&self) -> GlobalModel {
        GlobalModel {
            round: self.round(),
            parameters: self.parameters.clone(),
        }
    }

    /// Snapshots the server's durable state — the round counter and the
    /// global parameters. Everything else (the open round's fold, reorder
    /// window, accounting) is per-round and deliberately *not* part of the
    /// checkpoint: a crash loses the round in flight, never the model.
    pub fn checkpoint(&self) -> RoundCheckpoint {
        RoundCheckpoint {
            round: self.round(),
            parameters: self.parameters.clone(),
        }
    }

    /// Restores a checkpoint into a server that crashed and rejoined:
    /// re-anchors the parameters and fast-forwards the round counter to the
    /// coordinator's. Forward-only — a checkpoint can never rewind a server
    /// past rounds it already folded, which would fork the replay.
    ///
    /// # Errors
    /// Returns an error if a round is open or the checkpoint is older than
    /// the server's round.
    pub fn restore(&mut self, checkpoint: &RoundCheckpoint) -> Result<()> {
        self.admission.restore(checkpoint.round)?;
        self.parameters = checkpoint.parameters.clone();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Round state machine
    // ------------------------------------------------------------------

    /// Opens a round: samples this round's participants from the connected
    /// clients and moves to the *Collecting* phase with a fresh
    /// [`AggregationFold`] anchored to the current parameters. The caller
    /// broadcasts [`Message::RoundStart`] to the returned (sorted)
    /// participant ids.
    ///
    /// # Errors
    /// Returns an error if a round is already open or fewer clients are
    /// connected than the quorum requires.
    pub fn begin_round(&mut self, rng: &mut ChaCha8Rng) -> Result<Vec<usize>> {
        let sampled = self.admission.sample(rng)?;
        self.fold = Some(AggregationFold::new(
            &self.parameters,
            self.admission.round,
            self.rule,
        )?);
        self.fold_error = None;
        self.pending.clear();
        self.admission.open(sampled);
        Ok(self.admission.participants.iter().copied().collect())
    }

    /// Delivers one protocol message to the server and returns the responses
    /// to route back (Nacks). Shielded update segments must be reassembled
    /// into the update's parameter list *before* delivery (the runtime's
    /// [`crate::ShieldedUpdateChannel`] does this) — the state machine never
    /// touches an enclave.
    pub fn deliver(&mut self, message: &Message) -> Vec<Message> {
        let parameters = &self.parameters;
        let responses = self
            .admission
            .deliver(message, |update| validate_update_schema(parameters, update));
        if let (Message::Update { update, .. }, true) = (message, responses.is_empty()) {
            self.pending.insert(update.client_id, update.clone());
        }
        self.advance_fold();
        responses
    }

    /// Delivers an update whose sealed segments the runtime could not
    /// reassemble (a blob that fails to open, segments that miss the
    /// schema): outside input, refused like an update that fails schema
    /// validation. It counts as a delivery and takes the same admission
    /// checks as [`FedAvgServer::deliver`]; one that passes them is answered
    /// with [`NackReason::Rejected`] carrying `error`.
    pub(crate) fn deliver_refused(&mut self, update: &ModelUpdate, error: FlError) -> Vec<Message> {
        let responses = self.admission.admit(update, |_| Err(error));
        self.advance_fold();
        responses
    }

    /// Accounts a frame that arrived *damaged* mid-round — the link
    /// delivered bytes, the wire checksum refused them (see
    /// [`crate::Delivery::Faulted`]). The delivery burns a
    /// straggler-deadline slot exactly like any intact delivery (damaged
    /// bytes consumed server time), and the sender is answered with a
    /// [`NackReason::CorruptFrame`] refusal — the retransmission trigger.
    /// The round is never aborted: if the frame's sender stays silent, the
    /// quorum / straggler path accounts for it.
    pub fn deliver_corrupt(&mut self, client_id: usize, round: usize) -> Vec<Message> {
        self.admission.deliver_corrupt(client_id, round)
    }

    /// Drains the reorder window into the fold: the smallest pending update
    /// folds exactly when no unresolved participant has a smaller id (no
    /// future acceptance can then precede it in the canonical order).
    /// Invariant: every id left in the window exceeds every folded id, so
    /// the global fold order stays strictly ascending.
    fn advance_fold(&mut self) {
        let Some(fold) = self.fold.as_mut() else {
            return;
        };
        while let Some(next) = self.pending.first_entry() {
            if self
                .admission
                .unresolved
                .first()
                .is_some_and(|blocker| blocker < next.key())
            {
                return;
            }
            if let Err(error) = fold.fold(next.remove()) {
                // Unreachable after delivery validation; surfaced at close.
                self.fold_error.get_or_insert(error);
            }
        }
    }

    /// Whether the collecting phase can close: every participant is
    /// accounted for (reported, dropped out, or Nack'd as a straggler), or
    /// the straggler deadline has passed with the quorum met.
    pub fn collecting_done(&self) -> bool {
        let admission = &self.admission;
        if admission.phase != RoundPhase::Collecting {
            return false;
        }
        // `unresolved` shrinks as participants report, drop out, or get
        // Nack'd as stragglers — emptiness is the "all accounted" check
        // without an O(population) rescan.
        if admission.unresolved.is_empty() {
            return true;
        }
        let deadline = admission.policy.straggler_deadline;
        deadline != 0
            && admission.delivered >= deadline
            && admission.reporters.len() >= admission.policy.quorum
    }

    /// Closes the round: checks the quorum, applies the server's
    /// [`AggregationRule`] to the updates that arrived (weights renormalise
    /// over the reporters under the weighted rules), and returns to the
    /// *Broadcasting* phase. The caller sends [`Message::RoundEnd`] to the
    /// participants.
    ///
    /// # Errors
    /// Returns [`FlError::QuorumNotMet`] if too few updates arrived, or the
    /// aggregation's schema errors.
    pub fn close_round(&mut self) -> Result<RoundSummary> {
        self.admission.close()?;
        if let Some(error) = self.fold_error.take() {
            return Err(error);
        }
        let mut fold = self.fold.take().expect("a Collecting round holds a fold");
        // Any updates still in the reorder window (a participant with a
        // smaller id never resolved, e.g. under a straggler deadline) drain
        // now — `pending` is a BTreeMap, so the order stays ascending.
        while let Some((_, update)) = self.pending.pop_first() {
            fold.fold(update)?;
        }
        let update_size = clear_update_wire_size(&self.parameters);
        self.parameters = fold.finish()?;
        Ok(self.admission.finish(update_size))
    }

    /// Abandons an open round without aggregating: the collected updates are
    /// discarded, the global model and round counter stay untouched, and the
    /// server returns to the *Broadcasting* phase — the recovery path when
    /// dropouts starve a round below the quorum
    /// ([`FedAvgServer::close_round`] returning [`FlError::QuorumNotMet`])
    /// and the caller wants to retry with the surviving clients.
    ///
    /// # Errors
    /// Returns an error if no round is open.
    pub fn abort_round(&mut self) -> Result<()> {
        self.admission.abort()?;
        self.fold = None;
        self.fold_error = None;
        self.pending.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn named(value: f32) -> Vec<(String, Tensor)> {
        vec![("w".to_string(), Tensor::full(&[2], value))]
    }

    fn update(client: usize, round: usize, samples: usize, value: f32) -> ModelUpdate {
        ModelUpdate {
            client_id: client,
            round,
            num_samples: samples,
            parameters: named(value),
        }
    }

    fn update_message(client: usize, round: usize, samples: usize, value: f32) -> Message {
        Message::Update {
            update: update(client, round, samples, value),
            shielded: Vec::new(),
        }
    }

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    #[test]
    fn weighted_average_matches_fedavg() {
        let mut server = FedAvgServer::new(named(0.0));
        assert_eq!(server.round(), 0);
        assert_eq!(server.rule(), AggregationRule::FedAvg);
        server.deliver(&Message::Join { client_id: 0 });
        server.deliver(&Message::Join { client_id: 1 });
        server.begin_round(&mut rng()).unwrap();
        // Client 0 has 3x the data of client 1: average = (3·1 + 1·5)/4 = 2.
        server.deliver(&update_message(0, 0, 30, 1.0));
        server.deliver(&update_message(1, 0, 10, 5.0));
        server.close_round().unwrap();
        assert_eq!(server.round(), 1);
        assert!((server.parameters()[0].1.data()[0] - 2.0).abs() < 1e-6);
        let broadcast = server.broadcast();
        assert_eq!(broadcast.round, 1);
    }

    #[test]
    fn robust_rules_apply_inside_the_state_machine() {
        // Trimmed mean in-protocol: the boosted outlier of client 3 is
        // discarded coordinate-wise, and its lying sample count buys nothing
        // because the trimmed mean is unweighted.
        let mut server = FedAvgServer::with_rule(
            named(0.0),
            ParticipationPolicy {
                quorum: 3,
                sample: 0,
                straggler_deadline: 0,
            },
            AggregationRule::TrimmedMean { trim: 1 },
        )
        .unwrap();
        assert_eq!(server.rule(), AggregationRule::TrimmedMean { trim: 1 });
        for id in 0..4 {
            server.deliver(&Message::Join { client_id: id });
        }
        server.begin_round(&mut rng()).unwrap();
        server.deliver(&update_message(0, 0, 10, 1.0));
        server.deliver(&update_message(1, 0, 10, 1.2));
        server.deliver(&update_message(2, 0, 10, 0.8));
        server.deliver(&update_message(3, 0, 500, 100.0));
        let summary = server.close_round().unwrap();
        assert_eq!(summary.reporters, vec![0, 1, 2, 3]);
        let value = server.parameters()[0].1.data()[0];
        assert!((value - 1.1).abs() < 1e-5, "trimmed aggregate {value}");

        // A quorum the trimmed mean can never satisfy is refused up front.
        assert!(FedAvgServer::with_rule(
            named(0.0),
            ParticipationPolicy {
                quorum: 2,
                sample: 0,
                straggler_deadline: 0,
            },
            AggregationRule::TrimmedMean { trim: 1 },
        )
        .is_err());
        // Degenerate rule parameters are refused too.
        assert!(FedAvgServer::with_rule(
            named(0.0),
            ParticipationPolicy::default(),
            AggregationRule::NormClipping { max_norm: -1.0 },
        )
        .is_err());
    }

    #[test]
    fn policy_is_validated() {
        let policy = |quorum: usize, sample: usize| ParticipationPolicy {
            quorum,
            sample,
            straggler_deadline: 0,
        };
        let trim = AggregationRule::TrimmedMean { trim: 1 };
        assert!(policy(1, 0).validate(AggregationRule::FedAvg).is_ok());
        assert!(policy(3, 4).validate(trim).is_ok());
        let defects = [
            // Zero quorum.
            (policy(0, 0), AggregationRule::FedAvg),
            // A quorum larger than the per-round sample.
            (policy(3, 2), AggregationRule::FedAvg),
            // Degenerate rule parameters.
            (
                policy(1, 0),
                AggregationRule::NormClipping { max_norm: -1.0 },
            ),
            // A quorum the rule can never fold.
            (policy(2, 0), trim),
            (policy(4, 0), AggregationRule::Krum { f: 1 }),
        ];
        for (policy, rule) in defects {
            let refusal = format!("{:?}", policy.validate(rule).unwrap_err());
            // The server and the federation config refuse with the very
            // same error: there is one check.
            let server = FedAvgServer::with_rule(named(0.0), policy, rule).err();
            assert_eq!(server.map(|e| format!("{e:?}")), Some(refusal.clone()));
            let config = crate::FederationConfig {
                clients: 4,
                policy,
                rule,
                ..crate::FederationConfig::default()
            };
            assert_eq!(
                config.validate().err().map(|e| format!("{e:?}")),
                Some(refusal)
            );
        }
        // Edge policies are checked against FedAvg, the rule edges fold
        // with.
        let edge_policy = policy(0, 0);
        let topology = crate::Topology::Hierarchical {
            groups: vec![vec![0, 1]],
            edge_policy,
        };
        assert_eq!(
            topology.validate(2).err().map(|e| format!("{e:?}")),
            edge_policy
                .validate(AggregationRule::FedAvg)
                .err()
                .map(|e| format!("{e:?}"))
        );
    }

    #[test]
    fn state_machine_runs_a_full_round() {
        let mut server = FedAvgServer::new(named(0.0));
        assert_eq!(server.phase(), RoundPhase::Broadcasting);
        for id in 0..3 {
            assert!(server.deliver(&Message::Join { client_id: id }).is_empty());
        }
        assert_eq!(server.connected_clients(), vec![0, 1, 2]);

        let participants = server.begin_round(&mut rng()).unwrap();
        assert_eq!(participants, vec![0, 1, 2]);
        assert_eq!(server.phase(), RoundPhase::Collecting);
        assert!(!server.collecting_done());

        for id in 0..3 {
            let responses = server.deliver(&update_message(id, 0, 10, id as f32));
            assert!(responses.is_empty(), "update {id} refused: {responses:?}");
        }
        assert!(server.collecting_done());
        let summary = server.close_round().unwrap();
        assert_eq!(server.phase(), RoundPhase::Broadcasting);
        assert_eq!(summary.round, 0);
        assert_eq!(summary.reporters, vec![0, 1, 2]);
        assert_eq!(summary.total_weight, 30);
        assert!(summary.stragglers.is_empty());
        assert!(summary.update_bytes > 0);
        assert_eq!(server.round(), 1);
        // Mean of 0, 1, 2 with equal weights.
        assert!((server.parameters()[0].1.data()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn refusals_produce_nacks() {
        let mut server = FedAvgServer::new(named(0.0));
        server.deliver(&Message::Join { client_id: 0 });
        server.deliver(&Message::Join { client_id: 1 });
        server.begin_round(&mut rng()).unwrap();

        // Unknown participant.
        let refused = server.deliver(&update_message(9, 0, 5, 1.0));
        assert!(matches!(
            refused[0],
            Message::Nack {
                reason: NackReason::NotParticipating,
                ..
            }
        ));
        // Wrong round.
        let refused = server.deliver(&update_message(0, 3, 5, 1.0));
        assert!(matches!(
            refused[0],
            Message::Nack {
                reason: NackReason::StaleRound,
                ..
            }
        ));
        // Schema violation.
        let bad = Message::Update {
            update: ModelUpdate {
                client_id: 0,
                round: 0,
                num_samples: 5,
                parameters: vec![("other".to_string(), Tensor::zeros(&[2]))],
            },
            shielded: Vec::new(),
        };
        let refused = server.deliver(&bad);
        assert!(matches!(
            refused[0],
            Message::Nack {
                reason: NackReason::Rejected(_),
                ..
            }
        ));
        // Duplicate after a good update: first-wins, the replay is refused
        // and the accepted bits are never folded twice.
        assert!(server.deliver(&update_message(0, 0, 5, 1.0)).is_empty());
        let refused = server.deliver(&update_message(0, 0, 5, 1.0));
        assert!(matches!(
            refused[0],
            Message::Nack {
                reason: NackReason::Duplicate,
                ..
            }
        ));
        // A damaged delivery is refused with CorruptFrame, burns a delivered
        // slot, and never aborts the round.
        let delivered_before = server.delivered_messages();
        let refused = server.deliver_corrupt(1, 0);
        assert!(matches!(
            refused[0],
            Message::Nack {
                client_id: 1,
                round: 0,
                reason: NackReason::CorruptFrame,
            }
        ));
        assert_eq!(server.delivered_messages(), delivered_before + 1);
        assert_eq!(server.phase(), RoundPhase::Collecting);
        // A RoundStart delivered *to* the server is a protocol violation.
        let refused = server.deliver(&Message::RoundEnd { round: 0 });
        assert!(matches!(refused[0], Message::Nack { .. }));
    }

    #[test]
    fn checkpoint_restore_fast_forwards_a_rejoining_server() {
        let mut server = FedAvgServer::new(named(0.0));
        server.deliver(&Message::Join { client_id: 0 });
        server.begin_round(&mut rng()).unwrap();
        server.deliver(&update_message(0, 0, 5, 2.0));
        server.close_round().unwrap();
        let checkpoint = server.checkpoint();
        assert_eq!(checkpoint.round, 1);

        // A replacement replica restores and lands exactly on the
        // coordinator's round and parameter bits.
        let mut replica = FedAvgServer::new(named(9.9));
        replica.restore(&checkpoint).unwrap();
        assert_eq!(replica.round(), 1);
        assert_eq!(
            replica.parameters()[0].1.data()[0].to_bits(),
            server.parameters()[0].1.data()[0].to_bits()
        );
        // Forward-only: an older checkpoint is refused.
        let stale = RoundCheckpoint {
            round: 0,
            parameters: checkpoint.parameters.clone(),
        };
        assert!(replica.restore(&stale).is_err());
        // And never mid-round.
        replica.deliver(&Message::Join { client_id: 0 });
        replica.begin_round(&mut rng()).unwrap();
        assert!(replica.restore(&checkpoint).is_err());
    }

    #[test]
    fn dropout_mid_round_renormalizes_over_reporters() {
        let mut server = FedAvgServer::with_policy(
            named(0.0),
            ParticipationPolicy {
                quorum: 2,
                sample: 0,
                straggler_deadline: 0,
            },
        )
        .unwrap();
        for id in 0..3 {
            server.deliver(&Message::Join { client_id: id });
        }
        server.begin_round(&mut rng()).unwrap();
        server.deliver(&update_message(0, 0, 10, 3.0));
        // Client 1 leaves mid-round.
        server.deliver(&Message::Leave { client_id: 1 });
        assert!(!server.collecting_done());
        server.deliver(&update_message(2, 0, 30, 7.0));
        assert!(server.collecting_done());
        let summary = server.close_round().unwrap();
        assert_eq!(summary.reporters, vec![0, 2]);
        assert_eq!(summary.dropouts, vec![1]);
        assert_eq!(summary.total_weight, 40);
        // (10·3 + 30·7) / 40 = 6.0 — weights renormalised over reporters.
        assert!((server.parameters()[0].1.data()[0] - 6.0).abs() < 1e-6);
        // The dropped client no longer counts as connected.
        assert_eq!(server.connected_clients(), vec![0, 2]);
    }

    #[test]
    fn quorum_failure_is_reported() {
        let mut server = FedAvgServer::with_policy(
            named(0.0),
            ParticipationPolicy {
                quorum: 2,
                sample: 0,
                straggler_deadline: 0,
            },
        )
        .unwrap();
        server.deliver(&Message::Join { client_id: 0 });
        server.deliver(&Message::Join { client_id: 1 });
        server.begin_round(&mut rng()).unwrap();
        server.deliver(&update_message(0, 0, 10, 1.0));
        server.deliver(&Message::Leave { client_id: 1 });
        let err = server.close_round().unwrap_err();
        assert!(matches!(err, FlError::QuorumNotMet { received: 1, .. }));
        // The starved round is not a dead end: aborting discards the partial
        // collection and returns to Broadcasting with the model untouched,
        // so a later round (here: after client 1 rejoins) can proceed.
        assert_eq!(server.phase(), RoundPhase::Collecting);
        server.abort_round().unwrap();
        assert_eq!(server.phase(), RoundPhase::Broadcasting);
        assert_eq!(server.round(), 0, "aborted round must not advance");
        assert_eq!(server.parameters()[0].1.data()[0], 0.0);
        assert!(server.abort_round().is_err(), "no round open to abort");
        server.deliver(&Message::Join { client_id: 1 });
        server.begin_round(&mut rng()).unwrap();
        server.deliver(&update_message(0, 0, 10, 2.0));
        server.deliver(&update_message(1, 0, 10, 4.0));
        server.close_round().unwrap();
        assert!((server.parameters()[0].1.data()[0] - 3.0).abs() < 1e-6);
        // Too few connected clients refuse to even open a round.
        let mut tiny = FedAvgServer::with_policy(
            named(0.0),
            ParticipationPolicy {
                quorum: 2,
                sample: 0,
                straggler_deadline: 0,
            },
        )
        .unwrap();
        tiny.deliver(&Message::Join { client_id: 0 });
        assert!(tiny.begin_round(&mut rng()).is_err());
    }

    #[test]
    fn straggler_deadline_is_counted_in_delivered_messages() {
        let mut server = FedAvgServer::with_policy(
            named(0.0),
            ParticipationPolicy {
                quorum: 2,
                sample: 0,
                straggler_deadline: 2,
            },
        )
        .unwrap();
        for id in 0..3 {
            server.deliver(&Message::Join { client_id: id });
        }
        server.begin_round(&mut rng()).unwrap();
        // Messages 1 and 2 arrive within the deadline.
        assert!(server.deliver(&update_message(0, 0, 10, 1.0)).is_empty());
        assert!(server.deliver(&update_message(1, 0, 10, 3.0)).is_empty());
        assert!(server.collecting_done(), "deadline + quorum met");
        // Message 3 is late: the quorum is met and the deadline passed.
        let refused = server.deliver(&update_message(2, 0, 10, 9.0));
        assert!(matches!(
            refused[0],
            Message::Nack {
                reason: NackReason::StragglerDeadline,
                ..
            }
        ));
        let summary = server.close_round().unwrap();
        assert_eq!(summary.reporters, vec![0, 1]);
        assert_eq!(summary.stragglers, vec![2]);
        // The straggler's value never entered the aggregate: mean(1, 3) = 2.
        assert!((server.parameters()[0].1.data()[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn sampling_draws_a_deterministic_subset() {
        let mut server = FedAvgServer::with_policy(
            named(0.0),
            ParticipationPolicy {
                quorum: 1,
                sample: 2,
                straggler_deadline: 0,
            },
        )
        .unwrap();
        for id in 0..5 {
            server.deliver(&Message::Join { client_id: id });
        }
        let first = server.begin_round(&mut rng()).unwrap();
        assert_eq!(first.len(), 2);
        // A non-participant is refused.
        let outsider = (0..5).find(|id| !first.contains(id)).unwrap();
        let refused = server.deliver(&update_message(outsider, 0, 5, 1.0));
        assert!(matches!(
            refused[0],
            Message::Nack {
                reason: NackReason::NotParticipating,
                ..
            }
        ));
        for &id in &first {
            server.deliver(&update_message(id, 0, 5, 1.0));
        }
        server.close_round().unwrap();
        // Same seed → same draw, fresh server included.
        let mut replay = FedAvgServer::with_policy(
            named(0.0),
            ParticipationPolicy {
                quorum: 1,
                sample: 2,
                straggler_deadline: 0,
            },
        )
        .unwrap();
        for id in 0..5 {
            replay.deliver(&Message::Join { client_id: id });
        }
        assert_eq!(replay.begin_round(&mut rng()).unwrap(), first);
    }

    /// Regression (topology refactor): a combined subtree update handed
    /// straight to a server is refused with a Nack addressed to the
    /// forwarding seat's `origin` — the pre-topology catch-all addressed such
    /// refusals to `usize::MAX`, which no multi-hop runtime could route.
    #[test]
    fn aggregate_update_refusal_is_addressed_to_its_origin() {
        let mut server = FedAvgServer::new(named(0.0));
        server.deliver(&Message::Join { client_id: 0 });
        server.begin_round(&mut rng()).unwrap();
        let combined = Message::AggregateUpdate {
            origin: 3,
            round: 0,
            members: vec![crate::MemberUpdate::clear(update(0, 0, 10, 1.0))],
        };
        let refused = server.deliver(&combined);
        assert!(
            matches!(
                refused[0],
                Message::Nack {
                    client_id: 3,
                    reason: NackReason::Rejected(_),
                    ..
                }
            ),
            "refusal must be addressed to the origin seat: {refused:?}"
        );
    }

    /// The multi-level round open an edge aggregator uses: the admission
    /// state machine opens rounds at the coordinator's round number with an
    /// externally sampled participant set.
    #[test]
    fn admission_opens_rounds_at_the_coordinators_round() {
        let accept = |_: &ModelUpdate| Ok(());
        let mut edge = Admission::new(ParticipationPolicy::default());
        edge.deliver(&Message::Join { client_id: 2 }, accept);
        edge.deliver(&Message::Join { client_id: 5 }, accept);

        // Open the coordinator's round 3 with only the sampled member.
        edge.begin_with(3, &[5]).unwrap();
        assert_eq!(edge.round, 3);
        assert_eq!(edge.phase, RoundPhase::Collecting);
        // The unsampled member is refused, the sampled one accepted.
        let refused = edge.admit(&update(2, 3, 10, 2.0), accept);
        assert!(matches!(
            refused[0],
            Message::Nack {
                reason: NackReason::NotParticipating,
                ..
            }
        ));
        assert!(edge.admit(&update(5, 3, 10, 2.0), accept).is_empty());
        edge.close().unwrap();
        let summary = edge.finish(0);
        assert_eq!(summary.round, 3);
        assert_eq!(summary.reporters, vec![5]);
        assert_eq!(edge.round, 4);

        // Degenerate opens are refused: empty set, unknown participant,
        // rewinding the round counter, double-open.
        assert!(edge.begin_with(4, &[]).is_err());
        assert!(edge.begin_with(4, &[9]).is_err());
        assert!(edge.begin_with(1, &[5]).is_err());
        edge.begin_with(7, &[5]).unwrap();
        assert!(edge.begin_with(7, &[5]).is_err());
    }

    /// The secure-aggregation splice: targeted overwrite of named entries,
    /// refused mid-round and on any name or shape mismatch.
    #[test]
    fn splice_overwrites_named_parameters_only() {
        let params = vec![
            ("clear".to_string(), Tensor::full(&[2], 1.0)),
            ("shielded".to_string(), Tensor::full(&[3], 0.0)),
        ];
        let mut server = FedAvgServer::new(params);

        // Only the named entry changes; the other is untouched.
        server
            .splice_parameters(&[("shielded".to_string(), Tensor::full(&[3], 4.5))])
            .unwrap();
        assert_eq!(server.parameters()[0].1.data(), &[1.0, 1.0]);
        assert_eq!(server.parameters()[1].1.data(), &[4.5, 4.5, 4.5]);

        // Unknown name and wrong shape are schema errors.
        assert!(matches!(
            server.splice_parameters(&[("ghost".to_string(), Tensor::full(&[3], 0.0))]),
            Err(FlError::SchemaMismatch { .. })
        ));
        assert!(matches!(
            server.splice_parameters(&[("shielded".to_string(), Tensor::full(&[4], 0.0))]),
            Err(FlError::SchemaMismatch { .. })
        ));

        // Mid-round splices are refused: the broadcast snapshot is fixed.
        server.deliver(&Message::Join { client_id: 0 });
        server.begin_round(&mut rng()).unwrap();
        assert!(server
            .splice_parameters(&[("shielded".to_string(), Tensor::full(&[3], 9.0))])
            .is_err());
    }

    #[test]
    fn rejoin_participates_in_the_next_round() {
        let mut server = FedAvgServer::new(named(0.0));
        server.deliver(&Message::Join { client_id: 0 });
        server.deliver(&Message::Join { client_id: 1 });
        server.begin_round(&mut rng()).unwrap();
        server.deliver(&Message::Leave { client_id: 1 });
        server.deliver(&update_message(0, 0, 5, 1.0));
        assert!(server.collecting_done());
        server.close_round().unwrap();
        // Client 1 rejoins; the next round samples it again.
        server.deliver(&Message::Join { client_id: 1 });
        let participants = server.begin_round(&mut rng()).unwrap();
        assert_eq!(participants, vec![0, 1]);
    }
}
