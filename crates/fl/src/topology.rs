//! The topology layer: how a federation's updates are routed to the
//! consensus point.
//!
//! PR 3/4 built the message-driven runtime and the adversarial scheduler
//! around a single star hub. This module generalises the *routing* while
//! keeping the aggregation *semantics* fixed:
//!
//! * [`Topology::Star`] — every client links directly to the central server
//!   (the original behaviour).
//! * [`Topology::Hierarchical`] — clients are partitioned into subtrees,
//!   each under an [`EdgeAggregator`] that runs the root's admission state
//!   machine per subtree (quorum and straggler deadlines apply **per
//!   level**) and forwards a single combined
//!   [`Message::AggregateUpdate`] upstream.
//! * [`Topology::Gossip`] — the runtime collects each peer's own update over
//!   the same seat links as the star, the peers flood those updates over
//!   directed peer-to-peer [`Transport`] links in deterministic sweep order
//!   until the mesh is quiescent, then every participant applies the same
//!   final consensus fold.
//!
//! **Determinism contract.** Whatever the topology, the round's *accepted
//! update set* reaches the consensus point with per-client granularity and
//! is folded once by the crate's one fold, [`crate::AggregationFold`], in
//! canonical ascending-client-id order. An edge aggregator therefore
//! forwards its members' updates *inside* the combined frame (sealed
//! segments unopened — only the root's attested enclave channel unseals),
//! and a gossip peer floods whole member updates rather than partial
//! averages. This is what makes the global model **bit-identical** across
//! Star, Hierarchical and Gossip under FedAvg with full participation, and
//! what makes the robust rules **partition-invariant**: a trimmed mean over
//! two 2-member subtree averages would be a different (and weaker)
//! statistic than a trimmed mean over the 4 member updates, and would let a
//! backdoor hiding under a small edge dominate its subtree. The hierarchy
//! changes routing, per-level participation policy and accounting — never
//! the aggregate's bits.
//!
//! So an edge folds nothing and holds no model. It admits each member
//! update against the schema of the root's broadcast frame, which it shares
//! with the member links (only the clear segment of a shielded update: the
//! root checks the whole update once its enclave has reassembled it), and
//! forwards the accepted updates exactly as they arrived.
//!
//! Control plane vs data plane: the `Federation` runtime (the scheduler)
//! opens rounds on edges and meshes by direct call; everything the paper's
//! threat model cares about — updates, joins, leaves, refusals, the
//! combined subtree frames — crosses real [`Transport`] links and is
//! accounted as wire traffic.

use std::collections::{BTreeMap, BTreeSet};

use pelta_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::message::clear_update_wire_size;
use crate::robust::{aggregate_with_rule, validate_clear_segment, validate_update_schema};
use crate::server::{Admission, RoundSummary};
use crate::sweep::{self, Arrival, SweepLinks, SweepOutcome};
use crate::{
    AggregationRule, BroadcastFrame, FlError, MemberUpdate, Message, ModelUpdate, NackReason,
    ParticipationPolicy, Result, Transport, TransportKind, UpdateCodec,
};

/// How a federation routes updates to the consensus point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Topology {
    /// Every client links directly to the central server.
    Star,
    /// Two-level tree: clients are partitioned into subtrees, each under an
    /// edge aggregator that admits the subtree's updates with the root's
    /// admission state machine and forwards one combined
    /// [`Message::AggregateUpdate`] to the root.
    Hierarchical {
        /// The subtree partition: `groups[e]` lists the client ids under
        /// edge aggregator `e`. Groups must partition `0..clients` exactly.
        groups: Vec<Vec<usize>>,
        /// The per-level participation policy every edge runs (quorum and
        /// straggler deadline count *within* the subtree; `sample` must be
        /// 0 — only the root samples participants).
        edge_policy: ParticipationPolicy,
    },
    /// Directed gossip ring: peer `i` pushes to peers `i+1 ..= i+fanout`
    /// (mod `clients`); updates flood in deterministic sweeps until every
    /// peer holds the round's full update set, then all participants apply
    /// the same consensus fold.
    Gossip {
        /// Out-degree of each peer; validation requires
        /// `1 <= fanout <= clients - 1`.
        fanout: usize,
    },
}

#[allow(clippy::derivable_impls)] // the vendored serde derive cannot parse a `#[default]` variant attribute
impl Default for Topology {
    fn default() -> Self {
        Topology::Star
    }
}

impl Topology {
    /// A hierarchical topology over `groups` with the default per-edge
    /// policy (quorum 1, no deadline).
    pub fn hierarchical(groups: Vec<Vec<usize>>) -> Self {
        Topology::Hierarchical {
            groups,
            edge_policy: ParticipationPolicy::default(),
        }
    }

    /// Short lowercase name for reports and bench snapshots.
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Star => "star",
            Topology::Hierarchical { .. } => "hierarchical",
            Topology::Gossip { .. } => "gossip",
        }
    }

    /// Number of edge aggregators (0 unless hierarchical).
    pub fn num_edges(&self) -> usize {
        match self {
            Topology::Hierarchical { groups, .. } => groups.len(),
            _ => 0,
        }
    }

    /// The edge aggregator a client sits under, for hierarchical
    /// topologies.
    pub fn edge_of(&self, client_id: usize) -> Option<usize> {
        match self {
            Topology::Hierarchical { groups, .. } => {
                groups.iter().position(|group| group.contains(&client_id))
            }
            _ => None,
        }
    }

    /// Validates the topology against the federation's client count.
    ///
    /// # Errors
    /// Returns an error if a hierarchical grouping is not an exact partition
    /// of `0..clients`, an edge policy is degenerate (zero or unreachable
    /// quorum, non-zero sample), or a gossip fanout is zero or exceeds the
    /// `clients - 1` possible neighbours of the mesh.
    pub fn validate(&self, clients: usize) -> Result<()> {
        match self {
            Topology::Star => Ok(()),
            Topology::Hierarchical {
                groups,
                edge_policy,
            } => {
                if groups.is_empty() {
                    return Err(FlError::InvalidConfig {
                        reason: "hierarchical topology needs at least one edge group".to_string(),
                    });
                }
                if edge_policy.sample != 0 {
                    return Err(FlError::InvalidConfig {
                        reason: "edges do not sample participants; only the root does".to_string(),
                    });
                }
                // An edge folds nothing; its policy is checked as FedAvg's
                // whatever the root's rule, as `EdgeAggregator::new` does.
                edge_policy.validate(AggregationRule::FedAvg)?;
                let mut seen = BTreeSet::new();
                for (edge_id, group) in groups.iter().enumerate() {
                    if group.is_empty() {
                        return Err(FlError::InvalidConfig {
                            reason: format!("edge group {edge_id} is empty"),
                        });
                    }
                    if edge_policy.quorum > group.len() {
                        return Err(FlError::InvalidConfig {
                            reason: format!(
                                "edge quorum {} exceeds the {} member(s) of edge group {edge_id}",
                                edge_policy.quorum,
                                group.len()
                            ),
                        });
                    }
                    for &client_id in group {
                        if client_id >= clients {
                            return Err(FlError::InvalidConfig {
                                reason: format!(
                                    "edge group {edge_id} refers to client {client_id} of {clients}"
                                ),
                            });
                        }
                        if !seen.insert(client_id) {
                            return Err(FlError::InvalidConfig {
                                reason: format!(
                                    "client {client_id} belongs to more than one edge group"
                                ),
                            });
                        }
                    }
                }
                if seen.len() != clients {
                    return Err(FlError::InvalidConfig {
                        reason: format!("edge groups cover {} of {clients} clients", seen.len()),
                    });
                }
                Ok(())
            }
            Topology::Gossip { fanout } => {
                if *fanout == 0 {
                    return Err(FlError::InvalidConfig {
                        reason: "gossip fanout must be at least 1".to_string(),
                    });
                }
                // A peer has at most `clients - 1` neighbours. The mesh
                // constructor trusts this check: past it, a ring would link
                // peers to themselves or twice to one neighbour.
                if *fanout > clients.saturating_sub(1) {
                    return Err(FlError::InvalidConfig {
                        reason: format!(
                            "gossip fanout {fanout} exceeds the {} possible neighbour(s) of \
                             a {clients}-client mesh",
                            clients.saturating_sub(1)
                        ),
                    });
                }
                Ok(())
            }
        }
    }
}

/// One member seat attached to an edge aggregator: the edge-side end of the
/// member's transport link and its scheduled latency (in delivery sweeps).
struct EdgeMember {
    client_id: usize,
    link: Box<dyn Transport>,
    latency: usize,
}

/// An edge aggregator of a two-level hierarchical federation.
///
/// It holds the edge-side ends of its members' links and the edge-side end
/// of the uplink to the root, admits its subtree's updates with the root's
/// admission state machine (per-level quorum, straggler deadline counted in
/// messages the *edge* delivered, dropout accounting, the schema check on
/// what it can see), and forwards the members it accepted as a single
/// subtree-addressed [`Message::AggregateUpdate`] — sealed segments
/// untouched, member granularity preserved (see the module docs for why
/// the defense rule must fold at the root). An edge folds nothing and
/// holds no model: the schema it checks against is the root's broadcast
/// frame, shared with the member links.
pub struct EdgeAggregator {
    edge_id: usize,
    admission: Admission,
    uplink: Box<dyn Transport>,
    /// Member links in ascending client-id order.
    members: Vec<EdgeMember>,
    /// The open round's broadcast, whose parameters are the schema;
    /// `Some` exactly while a subtree round is open.
    broadcast: Option<BroadcastFrame>,
    /// Sampled participants of the open round.
    sampled: BTreeSet<usize>,
    left: BTreeSet<usize>,
    stash: BTreeMap<usize, MemberUpdate>,
    round: Option<usize>,
    /// Member indices with queued uplink traffic during a sweep phase
    /// (rebuilt at sweep 0; only ever shrinks within a phase).
    active: Option<BTreeSet<usize>>,
}

impl EdgeAggregator {
    /// Creates an edge aggregator speaking upstream over `uplink` under the
    /// given per-level policy. The policy is checked as FedAvg's, though an
    /// edge folds nothing: the configured defense rule folds once, at the
    /// root, over the full population.
    ///
    /// # Errors
    /// Returns an error if the policy is degenerate.
    pub fn new(
        edge_id: usize,
        edge_policy: ParticipationPolicy,
        uplink: Box<dyn Transport>,
    ) -> Result<Self> {
        edge_policy.validate(AggregationRule::FedAvg)?;
        Ok(EdgeAggregator {
            edge_id,
            admission: Admission::new(edge_policy),
            uplink,
            members: Vec::new(),
            broadcast: None,
            sampled: BTreeSet::new(),
            left: BTreeSet::new(),
            stash: BTreeMap::new(),
            round: None,
            active: None,
        })
    }

    /// Attaches a member's edge-side link end; members are kept in ascending
    /// client-id order so delivery sweeps stay deterministic.
    pub fn attach_member(&mut self, client_id: usize, link: Box<dyn Transport>, latency: usize) {
        let position = self
            .members
            .iter()
            .position(|m| m.client_id > client_id)
            .unwrap_or(self.members.len());
        self.members.insert(
            position,
            EdgeMember {
                client_id,
                link,
                latency,
            },
        );
    }

    /// The edge aggregator's index.
    pub fn edge_id(&self) -> usize {
        self.edge_id
    }

    /// Member client ids in ascending order.
    pub fn member_ids(&self) -> Vec<usize> {
        self.members.iter().map(|m| m.client_id).collect()
    }

    /// Whether `client_id` sits under this edge.
    pub fn contains(&self, client_id: usize) -> bool {
        self.members
            .binary_search_by_key(&client_id, |m| m.client_id)
            .is_ok()
    }

    /// Whether a subtree round is currently collecting.
    pub fn round_open(&self) -> bool {
        self.broadcast.is_some()
    }

    /// Whether this edge served the given round (had sampled members).
    pub fn served_round(&self, round: usize) -> bool {
        self.round == Some(round)
    }

    /// Opens a subtree round at the root's round number with the members
    /// the root sampled, keeps the broadcast frame as the round's schema,
    /// and relays the frame to those members — every member link and the
    /// edge share the one broadcast payload instead of each holding a copy.
    ///
    /// # Errors
    /// Returns an error if the frame is not a `RoundStart`, a participant
    /// is not a member of this edge, or the state machine refuses the
    /// round.
    pub fn open_round(&mut self, frame: &BroadcastFrame, participants: &[usize]) -> Result<()> {
        let Message::RoundStart { round, .. } = frame.message() else {
            return Err(FlError::InvalidConfig {
                reason: format!(
                    "edge {} can only open a round from a RoundStart frame",
                    self.edge_id
                ),
            });
        };
        let round = *round;
        for &id in participants {
            if !self.contains(id) {
                return Err(FlError::InvalidConfig {
                    reason: format!("client {id} is not a member of edge {}", self.edge_id),
                });
            }
        }
        self.admission.begin_with(round, participants)?;
        self.broadcast = Some(frame.clone());
        self.sampled = participants.iter().copied().collect();
        self.left.clear();
        self.stash.clear();
        self.round = Some(round);
        self.active = None;
        for member in &self.members {
            if self.sampled.contains(&member.client_id) {
                member.link.send_broadcast(frame)?;
            }
        }
        Ok(())
    }

    /// One delivery sweep over the member links with the runtime's sweep
    /// engine (`docs/determinism.md` §3): ascending client id, one poll per
    /// member, each gated by its latency. The caller ticks the fault clock.
    ///
    /// Only *active* members (queued traffic) are visited: all member
    /// traffic of a sweep phase is queued before sweep 0, so the active set
    /// is rebuilt there and only shrinks afterwards — drained and
    /// never-pending seats are skipped without changing delivery order.
    ///
    /// # Errors
    /// Returns an error if a transport fails.
    pub fn pump(&mut self, sweep: usize) -> Result<SweepOutcome> {
        let mut active = self.active.take();
        let outcome =
            sweep::sweep_active(
                self,
                sweep,
                &mut active,
                |edge, index, arrival| match arrival {
                    Arrival::Frame(message) => edge.route_upward(index, message),
                    Arrival::Damaged { sender, round } => {
                        edge.admission.deliver_corrupt(sender, round);
                        Ok(())
                    }
                },
            );
        self.active = active;
        outcome
    }

    /// Repeats sweep 0 of [`EdgeAggregator::pump`] until a sweep delivers
    /// nothing, for a caller that drives an edge without a fault clock.
    /// Returns whether anything was delivered.
    ///
    /// # Errors
    /// Returns an error if a transport fails.
    pub fn pump_idle(&mut self) -> Result<bool> {
        let mut delivered = false;
        while self.pump(0)?.delivered {
            delivered = true;
        }
        Ok(delivered)
    }

    /// Routes one member message: Join/Leave are delivered to the subtree
    /// state machine *and* relayed upstream (the root tracks the global
    /// connected set); a [`Message::MaskShare`] is relayed upstream
    /// unopened — it is root-addressed secure-aggregation control traffic
    /// only the root's enclave context can verify; an Update is admitted
    /// against the schema (only its clear segment when it carries sealed
    /// segments, which the edge cannot open) and, if accepted, stashed
    /// as it arrived for upstream forwarding; anything else is answered by
    /// the subtree state machine's Nack — junk frames burn the *edge's*
    /// straggler budget, which is exactly the per-level semantics.
    fn route_upward(&mut self, index: usize, message: Message) -> Result<()> {
        match message {
            Message::Join { .. } => {
                self.admission.deliver(&message);
                self.uplink.send(&message)?;
            }
            Message::MaskShare { .. } => {
                self.uplink.send(&message)?;
            }
            Message::Leave { client_id } => {
                self.left.insert(client_id);
                self.admission.deliver(&message);
                self.uplink.send(&message)?;
            }
            Message::Update { update, shielded } => {
                let schema = self
                    .broadcast
                    .as_ref()
                    .map_or(&[][..], BroadcastFrame::parameters);
                let responses = self.admission.admit(&update, |update| {
                    if shielded.is_empty() {
                        validate_update_schema(schema, update)
                    } else {
                        validate_clear_segment(schema, update)
                    }
                });
                if responses.is_empty() {
                    self.stash
                        .insert(update.client_id, MemberUpdate { update, shielded });
                } else {
                    for response in responses {
                        self.members[index].link.send(&response)?;
                    }
                }
            }
            other => {
                for response in self.admission.deliver(&other) {
                    self.members[index].link.send(&response)?;
                }
            }
        }
        Ok(())
    }

    /// Closes the subtree round and forwards the accepted members upstream
    /// as one [`Message::AggregateUpdate`] (ascending client id, sealed
    /// segments intact). If the subtree missed its per-level quorum, the
    /// whole subtree is **withheld** — an empty combined frame goes up and
    /// the returned summary carries zero reporters and weight.
    ///
    /// # Errors
    /// Returns an error if no round is open or the state machine fails for
    /// a reason other than the quorum.
    pub fn close_and_forward(&mut self) -> Result<RoundSummary> {
        let Some(broadcast) = self.broadcast.take() else {
            return Err(FlError::InvalidConfig {
                reason: format!("edge {} has no open round to close", self.edge_id),
            });
        };
        let round = self.round.expect("open round has a round number");
        let summary = match self.admission.close() {
            Ok(()) => self
                .admission
                .finish(clear_update_wire_size(broadcast.parameters())),
            Err(FlError::QuorumNotMet { .. }) => {
                self.admission.abort()?;
                self.stash.clear();
                RoundSummary {
                    round,
                    participants: self.sampled.iter().copied().collect(),
                    reporters: Vec::new(),
                    stragglers: Vec::new(),
                    dropouts: Vec::new(),
                    total_weight: 0,
                    delivered_messages: 0,
                    update_bytes: 0,
                }
            }
            Err(e) => return Err(e),
        };
        self.uplink.send(&Message::AggregateUpdate {
            origin: self.edge_id,
            round,
            members: std::mem::take(&mut self.stash).into_values().collect(),
        })?;
        Ok(summary)
    }

    /// Kills the edge mid-round: the subtree round in flight is lost. The
    /// state machine aborts (its round counter survives, as a real edge's
    /// durable store would), the stash and every queued member/uplink frame
    /// die with the process, and nothing is forwarded upstream — the root
    /// sees silence from this subtree and degrades through its
    /// quorum/withholding path.
    ///
    /// # Errors
    /// Returns an error if a transport fails or the abort is refused.
    pub fn crash(&mut self) -> Result<()> {
        if self.broadcast.take().is_some() {
            self.admission.abort()?;
        }
        // The crashed edge never served the round in flight: no RoundEnd
        // relay may reach its members for it.
        self.round = None;
        self.stash.clear();
        self.active = None;
        for member in &self.members {
            while member.link.recv()?.is_some() {}
        }
        while self.uplink.recv()?.is_some() {}
        Ok(())
    }

    /// Re-handshakes a crashed edge back into the federation at the
    /// coordinator's `round`: traffic queued while the edge was dark is
    /// discarded (it belongs to rounds the edge missed), and the subtree
    /// state machine fast-forwards to `round` — forward-only — so the next
    /// [`EdgeAggregator::open_round`] lands exactly where the federation
    /// is. The edge holds no model, so the round is all it needs.
    ///
    /// # Errors
    /// Returns an error if a round is open, `round` would rewind the
    /// subtree, or a transport fails.
    pub fn resync(&mut self, round: usize) -> Result<()> {
        if self.round_open() {
            return Err(FlError::InvalidConfig {
                reason: format!("edge {} cannot resync with an open round", self.edge_id),
            });
        }
        for member in &self.members {
            while member.link.recv()?.is_some() {}
        }
        while self.uplink.recv()?.is_some() {}
        self.stash.clear();
        self.active = None;
        self.admission.resync(round)
    }

    /// Relays downstream traffic from the root: a [`Message::Nack`] goes to
    /// the addressed member's link, a [`Message::RoundEnd`] to every round
    /// participant that did not leave mid-round, and a [`Message::MaskShare`]
    /// reconstruction *request* (empty seeds) to those of them its `seats`
    /// does not name as dead — the reporters. Returns the number of frames
    /// relayed.
    ///
    /// # Errors
    /// Returns an error if a transport fails.
    pub fn pump_downstream(&mut self) -> Result<usize> {
        let mut relayed = 0;
        while let Some(message) = self.uplink.recv()? {
            match &message {
                // A share request goes to the reporters only: a member the
                // request names as dead (an edge straggler, a dropout) is
                // never asked, and would answer into the next round.
                Message::MaskShare { seats, seeds, .. } if seeds.is_empty() => {
                    for member in &self.members {
                        if self.sampled.contains(&member.client_id)
                            && !self.left.contains(&member.client_id)
                            && !seats.contains(&member.client_id)
                        {
                            member.link.send(&message)?;
                            relayed += 1;
                        }
                    }
                }
                Message::Nack { client_id, .. } => {
                    if let Some(member) = self.members.iter().find(|m| m.client_id == *client_id) {
                        member.link.send(&message)?;
                        relayed += 1;
                    }
                    // A Nack addressed to the edge itself (a refused
                    // combined frame) is consumed here.
                }
                Message::RoundEnd { .. } => {
                    for member in &self.members {
                        if self.sampled.contains(&member.client_id)
                            && !self.left.contains(&member.client_id)
                        {
                            member.link.send(&message)?;
                            relayed += 1;
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(relayed)
    }

    /// Messages and logical bytes sent by this edge's runtime-side link
    /// ends (member downlinks + uplink).
    pub fn traffic(&self) -> (usize, usize) {
        let mut messages = self.uplink.messages_sent();
        let mut bytes = self.uplink.bytes_sent();
        for member in &self.members {
            messages += member.link.messages_sent();
            bytes += member.link.bytes_sent();
        }
        (messages, bytes)
    }
}

/// An edge's member links, each gated by the member's latency.
impl SweepLinks for EdgeAggregator {
    fn count(&self) -> usize {
        self.members.len()
    }

    fn link(&self, index: usize) -> &dyn Transport {
        self.members[index].link.as_ref()
    }

    fn latency(&self, index: usize) -> usize {
        self.members[index].latency
    }
}

/// One directed gossip out-link with its push bookkeeping.
struct GossipLink {
    link: Box<dyn Transport>,
    sent: BTreeSet<usize>,
}

/// One gossip peer's runtime-side daemon: the peer-to-peer link ends and
/// the update set it has learned so far this round.
struct GossipPeer {
    id: usize,
    out_links: Vec<GossipLink>,
    in_links: Vec<(usize, Box<dyn Transport>)>,
    known: BTreeMap<usize, MemberUpdate>,
}

/// The peer-to-peer fabric of a gossip federation: a directed ring mesh
/// that floods member updates in deterministic sweeps and exposes every
/// peer's converged update set for the consensus fold. The seat links it
/// collects over are the runtime's, shared with the star.
pub(crate) struct GossipMesh {
    peers: Vec<GossipPeer>,
    round: Option<usize>,
    participants: BTreeSet<usize>,
}

impl GossipMesh {
    /// Builds the mesh of `n` peers: peer `i` pushes to `i+1 ..= i+fanout`
    /// (mod `n`; validation keeps `fanout <= n - 1`) over fresh duplex links
    /// of the given transport kind, carrying the scenario's update codec.
    /// Because every codec is idempotent, a member update re-flooded across
    /// any number of coded hops keeps the exact bits of its first coded hop,
    /// so the consensus fold sees one value per member whatever the
    /// flooding order.
    pub(crate) fn new(kind: TransportKind, codec: UpdateCodec, n: usize, fanout: usize) -> Self {
        let mut peers: Vec<GossipPeer> = (0..n)
            .map(|id| GossipPeer {
                id,
                out_links: Vec::new(),
                in_links: Vec::new(),
                known: BTreeMap::new(),
            })
            .collect();
        for i in 0..n {
            for j in 1..=fanout {
                let (a, b) = kind.duplex_with(codec);
                peers[i].out_links.push(GossipLink {
                    link: a,
                    sent: BTreeSet::new(),
                });
                peers[(i + j) % n].in_links.push((i, b));
            }
        }
        for peer in &mut peers {
            peer.in_links.sort_by_key(|(source, _)| *source);
        }
        GossipMesh {
            peers,
            round: None,
            participants: BTreeSet::new(),
        }
    }

    /// Opens a gossip round: records the round and its sampled participants
    /// and clears every peer's knowledge and push bookkeeping.
    pub(crate) fn open_round(&mut self, round: usize, participants: &[usize]) {
        self.round = Some(round);
        self.participants = participants.iter().copied().collect();
        for peer in &mut self.peers {
            peer.known.clear();
            for link in &mut peer.out_links {
                link.sent.clear();
            }
        }
    }

    /// The daemon's admission check for one intact frame on peer `index`'s
    /// seat link, run by the runtime's collect sweep ([`crate::sweep`]): a
    /// peer's own round-`r` [`Message::Update`] enters its knowledge;
    /// everything else is returned as control traffic for the coordinator's
    /// state machine.
    ///
    /// Adversarial frames never abort the run here: the daemon knows whose
    /// link it is, so an update under a spoofed client id, for a stale
    /// round, or from an unsampled seat is **refused at the daemon** with a
    /// [`Message::Nack`] on `link`, the receiving peer's own seat link
    /// (forwarding it would let a spoofed frame impersonate a genuine
    /// participant at the coordinator, and the spoofed id inside the frame
    /// is never trusted for routing), and a duplicate is dropped first-wins,
    /// matching both the flood's `or_insert` semantics and the coordinator's
    /// reporter dedup. This keeps every daemon's knowledge exactly the set
    /// the coordinator will accept, which the consensus-fold assertion
    /// relies on.
    ///
    /// # Errors
    /// Returns an error if a transport fails or an update carries sealed
    /// segments (gossip has no attested central enclave to open them).
    pub(crate) fn admit(
        &mut self,
        link: &dyn Transport,
        index: usize,
        message: Message,
    ) -> Result<Option<Message>> {
        let Message::Update { update, shielded } = message else {
            return Ok(Some(message));
        };
        let peer = &mut self.peers[index];
        if !shielded.is_empty() {
            return Err(FlError::InvalidConfig {
                reason: format!(
                    "gossip peer {} sent sealed segments, which no peer can open",
                    update.client_id
                ),
            });
        }
        let reason = if update.client_id != peer.id {
            NackReason::Rejected(format!(
                "update claims client {} on client {}'s link",
                update.client_id, peer.id
            ))
        } else if Some(update.round) != self.round {
            NackReason::StaleRound
        } else if !self.participants.contains(&peer.id) {
            NackReason::NotParticipating
        } else {
            peer.known
                .entry(update.client_id)
                .or_insert(MemberUpdate::clear(update));
            return Ok(None);
        };
        link.send(&Message::Nack {
            client_id: peer.id,
            round: update.round,
            reason,
        })?;
        Ok(None)
    }

    /// Floods the collected updates across the mesh until quiescent:
    /// per sweep, every peer (ascending id) first receives one frame per
    /// in-link (ascending source id), then pushes its newly learned updates
    /// to each out-link as a [`Message::AggregateUpdate`]. Returns the
    /// number of gossip frames exchanged.
    ///
    /// # Errors
    /// Returns an error if a transport fails or no round is open.
    pub(crate) fn exchange(&mut self) -> Result<usize> {
        let round = self.round.ok_or_else(|| FlError::InvalidConfig {
            reason: "gossip exchange without an open round".to_string(),
        })?;
        let mut exchanged = 0;
        loop {
            let mut moved = false;
            for peer in &mut self.peers {
                for (_, link) in &mut peer.in_links {
                    let Some(message) = link.recv()? else {
                        continue;
                    };
                    moved = true;
                    if let Message::AggregateUpdate { members, .. } = message {
                        for member in members {
                            peer.known.entry(member.update.client_id).or_insert(member);
                        }
                    }
                }
            }
            for peer in &mut self.peers {
                for link in &mut peer.out_links {
                    let fresh: Vec<MemberUpdate> = peer
                        .known
                        .iter()
                        .filter(|(id, _)| !link.sent.contains(id))
                        .map(|(_, member)| member.clone())
                        .collect();
                    if fresh.is_empty() {
                        continue;
                    }
                    for member in &fresh {
                        link.sent.insert(member.update.client_id);
                    }
                    link.link.send(&Message::AggregateUpdate {
                        origin: peer.id,
                        round,
                        members: fresh,
                    })?;
                    moved = true;
                    exchanged += 1;
                }
            }
            if !moved {
                return Ok(exchanged);
            }
        }
    }

    /// The union of every peer's knowledge, keyed by client id — the
    /// round's full update set after flooding converged.
    pub(crate) fn union(&self) -> BTreeMap<usize, MemberUpdate> {
        let mut union = BTreeMap::new();
        for peer in &self.peers {
            for (id, member) in &peer.known {
                union.entry(*id).or_insert_with(|| member.clone());
            }
        }
        union
    }

    /// Every participant's local consensus fold: the coordinator's own
    /// [`crate::AggregationFold`], driven by [`aggregate_with_rule`] over
    /// the peer's schema-valid knowledge. All folds must be bit-identical to
    /// the coordinator's aggregate — the topology determinism contract the
    /// runtime asserts each round.
    ///
    /// # Errors
    /// Returns an error if a fold itself fails.
    #[allow(clippy::type_complexity)]
    pub(crate) fn consensus_folds(
        &self,
        current: &[(String, Tensor)],
        round: usize,
        rule: AggregationRule,
    ) -> Result<Vec<(usize, Vec<(String, Tensor)>)>> {
        let mut folds = Vec::new();
        for &peer_id in &self.participants {
            let peer = &self.peers[peer_id];
            let updates: Vec<ModelUpdate> = peer
                .known
                .values()
                .map(|member| member.update.clone())
                .filter(|update| validate_update_schema(current, update).is_ok())
                .collect();
            if updates.is_empty() {
                continue;
            }
            folds.push((peer_id, aggregate_with_rule(current, round, updates, rule)?));
        }
        Ok(folds)
    }

    /// Messages and logical bytes sent by the mesh's peer-to-peer link
    /// ends.
    pub(crate) fn traffic(&self) -> (usize, usize) {
        let mut messages = 0;
        let mut bytes = 0;
        for peer in &self.peers {
            for link in &peer.out_links {
                messages += link.link.messages_sent();
                bytes += link.link.bytes_sent();
            }
            for (_, link) in &peer.in_links {
                messages += link.messages_sent();
                bytes += link.bytes_sent();
            }
        }
        (messages, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultConfig, FaultPlan, FedAvgServer, GlobalModel, InMemoryTransport, NackReason};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn round_start(broadcast: GlobalModel) -> BroadcastFrame {
        BroadcastFrame::new(Message::RoundStart {
            round: broadcast.round,
            global: broadcast,
        })
    }

    fn named(values: &[f32]) -> Vec<(String, Tensor)> {
        vec![(
            "w".to_string(),
            Tensor::from_vec(values.to_vec(), &[values.len()]).unwrap(),
        )]
    }

    fn update(client: usize, round: usize, samples: usize, value: f32) -> ModelUpdate {
        ModelUpdate {
            client_id: client,
            round,
            num_samples: samples,
            parameters: named(&[value, value]),
        }
    }

    fn bits(parameters: &[(String, Tensor)]) -> Vec<u32> {
        parameters
            .iter()
            .flat_map(|(_, t)| t.data().iter().map(|v| v.to_bits()))
            .collect()
    }

    /// `n` seat links: the agents' ends and the runtime's ends.
    fn seat_links(n: usize) -> (Vec<InMemoryTransport>, Vec<Box<dyn Transport>>) {
        (0..n)
            .map(|_| {
                let (agent_end, runtime_end) = InMemoryTransport::pair();
                (agent_end, Box::new(runtime_end) as Box<dyn Transport>)
            })
            .unzip()
    }

    /// Drains every seat link through the daemons' admission check and
    /// returns the control traffic: the gossip collect without a
    /// coordinator state machine.
    fn collect(mesh: &mut GossipMesh, links: &[Box<dyn Transport>]) -> Vec<(usize, Message)> {
        let mut control = Vec::new();
        for (peer, link) in links.iter().enumerate() {
            while let Some(message) = link.recv().unwrap() {
                let admitted = mesh.admit(link.as_ref(), peer, message).unwrap();
                control.extend(admitted.map(|message| (peer, message)));
            }
        }
        control
    }

    #[test]
    fn topology_validation_rejects_degenerate_shapes() {
        assert!(Topology::Star.validate(3).is_ok());
        assert!(Topology::hierarchical(vec![vec![0, 1], vec![2]])
            .validate(3)
            .is_ok());
        // Not a partition: missing client, duplicate, out of range, empty
        // group, no groups.
        assert!(Topology::hierarchical(vec![vec![0, 1]])
            .validate(3)
            .is_err());
        assert!(Topology::hierarchical(vec![vec![0, 1], vec![1, 2]])
            .validate(3)
            .is_err());
        assert!(Topology::hierarchical(vec![vec![0, 5], vec![1, 2]])
            .validate(3)
            .is_err());
        assert!(Topology::hierarchical(vec![vec![0, 1, 2], vec![]])
            .validate(3)
            .is_err());
        assert!(Topology::hierarchical(Vec::new()).validate(3).is_err());
        // Edge policies: unreachable quorum, per-edge sampling, zero quorum.
        let policy = |quorum, sample| ParticipationPolicy {
            quorum,
            sample,
            straggler_deadline: 0,
        };
        assert!(Topology::Hierarchical {
            groups: vec![vec![0], vec![1, 2]],
            edge_policy: policy(2, 0),
        }
        .validate(3)
        .is_err());
        assert!(Topology::Hierarchical {
            groups: vec![vec![0, 1, 2]],
            edge_policy: policy(1, 2),
        }
        .validate(3)
        .is_err());
        assert!(Topology::Hierarchical {
            groups: vec![vec![0, 1, 2]],
            edge_policy: policy(0, 0),
        }
        .validate(3)
        .is_err());
        // Gossip.
        assert!(Topology::Gossip { fanout: 1 }.validate(3).is_ok());
        assert!(Topology::Gossip { fanout: 0 }.validate(3).is_err());
    }

    /// Pins the oversized-fanout rejection: the mesh constructor does not
    /// clamp `fanout >= n`, so validation is what keeps a scenario from
    /// asking for a ring with self-links or doubled links. The spec must
    /// *be* the topology.
    #[test]
    fn gossip_fanout_beyond_the_mesh_is_rejected_at_validation() {
        // fanout == n - 1 is the complete mesh and stays valid…
        assert!(Topology::Gossip { fanout: 2 }.validate(3).is_ok());
        // …fanout == n (each peer's last out-link would loop back to
        // itself) is not, and neither is anything above it.
        assert!(Topology::Gossip { fanout: 3 }.validate(3).is_err());
        assert!(Topology::Gossip { fanout: 17 }.validate(3).is_err());
        // A single-client "mesh" has no possible neighbour at all.
        assert!(Topology::Gossip { fanout: 1 }.validate(1).is_err());
    }

    #[test]
    fn topology_helpers_and_names() {
        // Helpers.
        let hier = Topology::hierarchical(vec![vec![0, 2], vec![1]]);
        assert_eq!(hier.num_edges(), 2);
        assert_eq!(hier.edge_of(2), Some(0));
        assert_eq!(hier.edge_of(1), Some(1));
        assert_eq!(Topology::Star.edge_of(0), None);
        assert_eq!(Topology::default().name(), "star");
        assert_eq!(hier.name(), "hierarchical");
        assert_eq!(Topology::Gossip { fanout: 1 }.name(), "gossip");
    }

    /// An edge collects its subtree over member links, admits the updates
    /// with its per-level state machine, and forwards them upstream as sent,
    /// in one combined frame in ascending client-id order — which the root
    /// folds into exactly the bits a flat aggregation produces.
    #[test]
    fn edge_aggregator_forwards_member_granularity() {
        let (edge_end, root_end) = InMemoryTransport::pair();
        let mut edge =
            EdgeAggregator::new(0, ParticipationPolicy::default(), Box::new(edge_end)).unwrap();
        let mut agent_ends = Vec::new();
        for client_id in [3usize, 1] {
            let (agent_end, server_end) = InMemoryTransport::pair();
            edge.attach_member(client_id, Box::new(server_end), 0);
            agent_ends.push((client_id, agent_end));
        }
        assert_eq!(edge.member_ids(), vec![1, 3]);
        assert!(edge.contains(3) && !edge.contains(0));

        // Members join through the edge; the Joins are relayed upstream.
        for (client_id, agent_end) in &agent_ends {
            agent_end
                .send(&Message::Join {
                    client_id: *client_id,
                })
                .unwrap();
        }
        assert!(edge.pump_idle().unwrap());
        let mut root = FedAvgServer::new(named(&[0.0, 0.0]));
        while let Some(message) = root_end.recv().unwrap() {
            root.deliver(&message);
        }
        assert_eq!(root.connected_clients(), vec![1, 3]);

        // Open round 0 and let both members report.
        let broadcast = root.broadcast();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        root.begin_round(&mut rng).unwrap();
        edge.open_round(&round_start(broadcast), &[1, 3]).unwrap();
        for (client_id, agent_end) in &agent_ends {
            let Some(Message::RoundStart { round, .. }) = agent_end.recv().unwrap() else {
                panic!("member expected the relayed broadcast");
            };
            assert_eq!(round, 0);
            agent_end
                .send(&Message::Update {
                    update: update(*client_id, 0, 10 * client_id, *client_id as f32),
                    shielded: Vec::new(),
                })
                .unwrap();
        }
        assert!(edge.round_open());
        while edge.pump(0).unwrap().delivered {}
        let summary = edge.close_and_forward().unwrap();
        assert!(!edge.round_open());
        assert!(edge.served_round(0));
        assert_eq!(summary.reporters, vec![1, 3]);
        assert_eq!(summary.total_weight, 40);

        // The combined frame carries both members, ascending, each exactly
        // as it was sent.
        let Some(Message::AggregateUpdate {
            origin,
            round,
            members,
        }) = root_end.recv().unwrap()
        else {
            panic!("edge must forward one combined frame");
        };
        assert_eq!((origin, round), (0, 0));
        let sent: Vec<MemberUpdate> = [1, 3]
            .map(|id| MemberUpdate::clear(update(id, 0, 10 * id, id as f32)))
            .into();
        assert_eq!(members, sent);

        // Root folds the members — bit-identical to the flat aggregate.
        for member in &members {
            let refused = root.deliver(&Message::Update {
                update: member.update.clone(),
                shielded: Vec::new(),
            });
            assert!(refused.is_empty());
        }
        root.close_round().unwrap();
        let flat = aggregate_with_rule(
            &named(&[0.0, 0.0]),
            0,
            vec![update(1, 0, 10, 1.0), update(3, 0, 30, 3.0)],
            AggregationRule::FedAvg,
        )
        .unwrap();
        assert_eq!(bits(root.parameters()), bits(&flat));
        let (messages, wire_bytes) = edge.traffic();
        assert!(messages > 0 && wire_bytes > 0);
    }

    /// Per-level policy: a subtree that misses its own quorum is withheld as
    /// a unit — an empty combined frame goes upstream.
    #[test]
    fn edge_quorum_failure_withholds_the_subtree() {
        let (edge_end, root_end) = InMemoryTransport::pair();
        let mut edge = EdgeAggregator::new(
            1,
            ParticipationPolicy {
                quorum: 2,
                sample: 0,
                straggler_deadline: 0,
            },
            Box::new(edge_end),
        )
        .unwrap();
        let mut agent_ends = Vec::new();
        for client_id in 0..2usize {
            let (agent_end, server_end) = InMemoryTransport::pair();
            edge.attach_member(client_id, Box::new(server_end), 0);
            agent_end.send(&Message::Join { client_id }).unwrap();
            agent_ends.push(agent_end);
        }
        edge.pump_idle().unwrap();
        while root_end.recv().unwrap().is_some() {}

        let broadcast = GlobalModel {
            round: 0,
            parameters: named(&[0.0, 0.0]),
        };
        edge.open_round(&round_start(broadcast), &[0, 1]).unwrap();
        for agent_end in &agent_ends {
            agent_end.recv().unwrap();
        }
        // Only client 0 reports; client 1 leaves mid-round.
        agent_ends[0]
            .send(&Message::Update {
                update: update(0, 0, 10, 1.0),
                shielded: Vec::new(),
            })
            .unwrap();
        agent_ends[1]
            .send(&Message::Leave { client_id: 1 })
            .unwrap();
        while edge.pump(0).unwrap().delivered {}
        let summary = edge.close_and_forward().unwrap();
        assert!(summary.reporters.is_empty());
        assert_eq!(summary.total_weight, 0);
        assert_eq!(summary.participants, vec![0, 1]);
        // The Leave was relayed upstream, then the empty combined frame.
        let Some(Message::Leave { client_id: 1 }) = root_end.recv().unwrap() else {
            panic!("Leave must be relayed upstream");
        };
        let Some(Message::AggregateUpdate {
            origin,
            round,
            members,
        }) = root_end.recv().unwrap()
        else {
            panic!("a withheld subtree still sends its (empty) frame");
        };
        assert_eq!((origin, round), (1, 0));
        // Client 0's accepted update is withheld with its subtree.
        assert!(members.is_empty());
        assert!(root_end.recv().unwrap().is_none());
    }

    /// The straggler deadline applies per level: junk frames delivered to
    /// the edge burn the edge's own budget.
    #[test]
    fn edge_straggler_deadline_counts_edge_deliveries() {
        let (edge_end, _root_end) = InMemoryTransport::pair();
        let mut edge = EdgeAggregator::new(
            0,
            ParticipationPolicy {
                quorum: 1,
                sample: 0,
                straggler_deadline: 2,
            },
            Box::new(edge_end),
        )
        .unwrap();
        let mut agent_ends = Vec::new();
        for client_id in 0..2usize {
            let (agent_end, server_end) = InMemoryTransport::pair();
            edge.attach_member(client_id, Box::new(server_end), 0);
            agent_end.send(&Message::Join { client_id }).unwrap();
            agent_ends.push(agent_end);
        }
        edge.pump_idle().unwrap();
        let broadcast = GlobalModel {
            round: 0,
            parameters: named(&[0.0, 0.0]),
        };
        edge.open_round(&round_start(broadcast), &[0, 1]).unwrap();
        for agent_end in &agent_ends {
            agent_end.recv().unwrap();
        }
        // Client 0: a junk frame then its update; client 1 reports last.
        agent_ends[0].send(&Message::RoundEnd { round: 0 }).unwrap();
        agent_ends[0]
            .send(&Message::Update {
                update: update(0, 0, 10, 1.0),
                shielded: Vec::new(),
            })
            .unwrap();
        agent_ends[1]
            .send(&Message::Update {
                update: update(1, 0, 10, 2.0),
                shielded: Vec::new(),
            })
            .unwrap();
        let mut sweep = 0;
        while edge.pump(sweep).unwrap().delivered {
            sweep += 1;
        }
        let summary = edge.close_and_forward().unwrap();
        // One message per link per sweep: sweep 0 delivers client 0's junk
        // frame and client 1's update (filling the deadline of 2); client
        // 0's own update slips to sweep 1 and is the edge's straggler — the
        // spammer burned its own budget.
        assert_eq!(summary.reporters, vec![1]);
        assert_eq!(summary.stragglers, vec![0]);
        // The junk Nack and the straggler Nack both reached the member.
        let Some(Message::Nack { .. }) = agent_ends[0].recv().unwrap() else {
            panic!("junk frame must be Nack'd by the edge");
        };
        let Some(Message::Nack { reason, .. }) = agent_ends[0].recv().unwrap() else {
            panic!("straggler must be Nack'd by the edge");
        };
        assert_eq!(reason, NackReason::StragglerDeadline);
    }

    /// One subtree round under an edge with members 0 and 1: member 0
    /// sends `frame` `sends` times, member 1 reports `reference`, and the
    /// edge closes. Returns the edge's summary and the Nacks member 0 got.
    fn edge_round(
        schema: &[(String, Tensor)],
        participants: &[usize],
        frame: &Message,
        sends: usize,
        reference: ModelUpdate,
    ) -> (RoundSummary, Vec<NackReason>) {
        let (edge_end, _root_end) = InMemoryTransport::pair();
        let mut edge =
            EdgeAggregator::new(0, ParticipationPolicy::default(), Box::new(edge_end)).unwrap();
        let mut agent_ends = Vec::new();
        for client_id in 0..2usize {
            let (agent_end, server_end) = InMemoryTransport::pair();
            edge.attach_member(client_id, Box::new(server_end), 0);
            agent_end.send(&Message::Join { client_id }).unwrap();
            agent_ends.push(agent_end);
        }
        edge.pump_idle().unwrap();
        let broadcast = GlobalModel {
            round: 0,
            parameters: schema.to_vec(),
        };
        edge.open_round(&round_start(broadcast), participants)
            .unwrap();
        for _ in 0..sends {
            agent_ends[0].send(frame).unwrap();
        }
        agent_ends[1]
            .send(&Message::Update {
                update: reference,
                shielded: Vec::new(),
            })
            .unwrap();
        while edge.pump(0).unwrap().delivered {}
        let summary = edge.close_and_forward().unwrap();
        let mut nacks = Vec::new();
        while let Some(message) = agent_ends[0].recv().unwrap() {
            if let Message::Nack { reason, .. } = message {
                nacks.push(reason);
            }
        }
        (summary, nacks)
    }

    /// Edge admission for a clear and a shielded member: the Nack each
    /// case earns and the summary the subtree round closes with. The edge
    /// sees only the clear segment of a shielded update, so it checks the
    /// names that segment carries and no others: a name missing from it may
    /// travel sealed, which only the root's enclave can tell. Every accepted
    /// member counts the Raw size of a clear update of the whole schema,
    /// sealed segment or not.
    #[test]
    fn edge_admission_refuses_and_counts_clear_and_shielded_members() {
        let schema = vec![
            ("a".to_string(), Tensor::zeros(&[2])),
            ("s".to_string(), Tensor::zeros(&[3])),
        ];
        let valid = |client_id: usize| ModelUpdate {
            client_id,
            round: 0,
            num_samples: 10,
            parameters: vec![
                ("a".to_string(), Tensor::full(&[2], 1.0)),
                ("s".to_string(), Tensor::full(&[3], 1.0)),
            ],
        };
        let full_size = Message::Update {
            update: valid(0),
            shielded: Vec::new(),
        }
        .wire_size();
        // A shielded member sends "a" in clear and "s" sealed. The edge
        // forwards blobs unopened, so any bytes serve.
        let frame = |update: ModelUpdate, sealed: bool| {
            if !sealed {
                return Message::Update {
                    update,
                    shielded: Vec::new(),
                };
            }
            let parameters = update
                .parameters
                .into_iter()
                .filter(|(name, _)| name != "s")
                .collect();
            Message::Update {
                update: ModelUpdate {
                    parameters,
                    ..update
                },
                shielded: vec![pelta_tee::SealedBlob::from_parts(vec![1, 2, 3], 7)],
            }
        };
        let rejected = |reason: &str| Some(NackReason::Rejected(reason.to_string()));

        let mut wrong_shape = valid(0);
        wrong_shape.parameters[0].1 = Tensor::full(&[4], 1.0);
        let mut non_finite = valid(0);
        non_finite.parameters[0].1 = Tensor::from_vec(vec![f32::NAN, 1.0], &[2]).unwrap();
        let mut missing_clear = valid(0);
        missing_clear.parameters.remove(0);
        let shape_error =
            rejected("update schema mismatch: client 0 parameter 'a' [4] does not match 'a' [2]");
        let finite_error = rejected(
            "invalid federation config: client 0 parameter 'a' contains non-finite values",
        );
        let samples_error =
            rejected("invalid federation config: client 0 update carries zero samples");
        // (case, member 0's update, copies sent, participants, Nack to a
        // clear member, Nack to a shielded member, whether it is accepted
        // when clear and when shielded)
        #[allow(clippy::type_complexity)]
        let cases: Vec<(
            &str,
            ModelUpdate,
            usize,
            &[usize],
            Option<NackReason>,
            Option<NackReason>,
            [bool; 2],
        )> = vec![
            (
                "wrong shape",
                wrong_shape,
                1,
                &[0, 1],
                shape_error.clone(),
                shape_error,
                [false, false],
            ),
            (
                "non-finite value",
                non_finite,
                1,
                &[0, 1],
                finite_error.clone(),
                finite_error,
                [false, false],
            ),
            (
                "zero samples",
                ModelUpdate {
                    num_samples: 0,
                    ..valid(0)
                },
                1,
                &[0, 1],
                samples_error.clone(),
                samples_error,
                [false, false],
            ),
            (
                "missing clear parameter",
                missing_clear,
                1,
                &[0, 1],
                rejected("update schema mismatch: client 0 sent 1 parameters, expected 2"),
                None,
                [false, true],
            ),
            (
                "duplicate",
                valid(0),
                2,
                &[0, 1],
                Some(NackReason::Duplicate),
                Some(NackReason::Duplicate),
                [true, true],
            ),
            (
                "stale round",
                ModelUpdate {
                    round: 1,
                    ..valid(0)
                },
                1,
                &[0, 1],
                Some(NackReason::StaleRound),
                Some(NackReason::StaleRound),
                [false, false],
            ),
            (
                "non-participant",
                valid(0),
                1,
                &[1],
                Some(NackReason::NotParticipating),
                Some(NackReason::NotParticipating),
                [false, false],
            ),
        ];
        for (case, update, sends, participants, clear_nack, shielded_nack, accepted) in cases {
            for (sealed, nack, accepted) in [
                (false, clear_nack, accepted[0]),
                (true, shielded_nack, accepted[1]),
            ] {
                let (summary, nacks) = edge_round(
                    &schema,
                    participants,
                    &frame(update.clone(), sealed),
                    sends,
                    valid(1),
                );
                let what = format!("{case}, sealed: {sealed}");
                assert_eq!(nacks, nack.into_iter().collect::<Vec<_>>(), "{what}");
                let reporters = if accepted { vec![0, 1] } else { vec![1] };
                assert_eq!(summary.total_weight, 10 * reporters.len(), "{what}");
                assert_eq!(summary.update_bytes, full_size * reporters.len(), "{what}");
                assert_eq!(summary.reporters, reporters, "{what}");
            }
        }
    }

    /// A member sweep polls only the member links that hold traffic: with
    /// a partition drawn on every poll, one queued Join draws exactly one
    /// partition fate, whatever the number of members, and the window's
    /// end instant lets the Join through.
    #[test]
    fn edge_idle_drain_polls_only_members_holding_traffic() {
        let plan = FaultPlan::new(FaultConfig {
            partition: 1.0,
            partition_sweeps: 1,
            ..FaultConfig::default()
        })
        .unwrap();
        let (edge_end, _root_end) = InMemoryTransport::pair();
        let mut edge =
            EdgeAggregator::new(0, ParticipationPolicy::default(), Box::new(edge_end)).unwrap();
        let mut agent_ends = Vec::new();
        for client_id in 0..3usize {
            let (agent_end, server_end) = InMemoryTransport::pair();
            edge.attach_member(
                client_id,
                plan.wrap_seat(client_id, Box::new(server_end)),
                0,
            );
            agent_ends.push(agent_end);
        }
        agent_ends[1].send(&Message::Join { client_id: 1 }).unwrap();
        // The partition holds the Join back; the idle members draw nothing.
        assert!(!edge.pump_idle().unwrap());
        assert_eq!(plan.stats().partitions, 1);
        // Even at rate 1.0 no window opens at the end instant of the last.
        plan.tick();
        assert!(edge.pump(1).unwrap().delivered);
        assert_eq!(plan.stats().partitions, 1);
    }

    /// A crashed edge re-syncs to the coordinator's round: the traffic
    /// queued while it was dark is discarded, and the subtree state machine
    /// moves forward only, never mid-round.
    #[test]
    fn resync_fast_forwards_an_idle_edge_only() {
        let (edge_end, _root_end) = InMemoryTransport::pair();
        let mut edge =
            EdgeAggregator::new(0, ParticipationPolicy::default(), Box::new(edge_end)).unwrap();
        let (agent_end, server_end) = InMemoryTransport::pair();
        edge.attach_member(0, Box::new(server_end), 0);
        agent_end.send(&Message::Join { client_id: 0 }).unwrap();
        edge.pump_idle().unwrap();
        let frame = |round| {
            round_start(GlobalModel {
                round,
                parameters: named(&[0.0, 0.0]),
            })
        };
        // An update of a round the edge missed waits on the member link.
        agent_end
            .send(&Message::Update {
                update: update(0, 1, 10, 1.0),
                shielded: Vec::new(),
            })
            .unwrap();
        edge.resync(3).unwrap();
        assert!(!edge.pump_idle().unwrap(), "the dark-time traffic is gone");
        assert!(agent_end.recv().unwrap().is_none(), "and never answered");
        // Forward-only: neither a resync nor a round may rewind to round 2.
        assert!(edge.resync(2).is_err());
        assert!(edge.open_round(&frame(2), &[0]).is_err());
        // And never mid-round.
        edge.open_round(&frame(3), &[0]).unwrap();
        assert!(edge.resync(4).is_err());
    }

    /// Downstream relays: root Nacks reach the addressed member, RoundEnd
    /// reaches every participant that did not leave.
    #[test]
    fn downstream_traffic_is_routed_to_members() {
        let (edge_end, root_end) = InMemoryTransport::pair();
        let mut edge =
            EdgeAggregator::new(0, ParticipationPolicy::default(), Box::new(edge_end)).unwrap();
        let mut agent_ends = Vec::new();
        for client_id in 0..2usize {
            let (agent_end, server_end) = InMemoryTransport::pair();
            edge.attach_member(client_id, Box::new(server_end), 0);
            agent_end.send(&Message::Join { client_id }).unwrap();
            agent_ends.push(agent_end);
        }
        edge.pump_idle().unwrap();
        let broadcast = GlobalModel {
            round: 0,
            parameters: named(&[0.0, 0.0]),
        };
        edge.open_round(&round_start(broadcast), &[0, 1]).unwrap();
        for agent_end in &agent_ends {
            agent_end.recv().unwrap();
        }
        agent_ends[1]
            .send(&Message::Leave { client_id: 1 })
            .unwrap();
        while edge.pump(0).unwrap().delivered {}

        root_end
            .send(&Message::Nack {
                client_id: 0,
                round: 0,
                reason: NackReason::StaleRound,
            })
            .unwrap();
        root_end.send(&Message::RoundEnd { round: 0 }).unwrap();
        let relayed = edge.pump_downstream().unwrap();
        // The Nack to client 0 plus RoundEnd to client 0 only (1 left).
        assert_eq!(relayed, 2);
        assert!(matches!(
            agent_ends[0].recv().unwrap(),
            Some(Message::Nack { client_id: 0, .. })
        ));
        assert!(matches!(
            agent_ends[0].recv().unwrap(),
            Some(Message::RoundEnd { round: 0 })
        ));
        assert!(agent_ends[1].recv().unwrap().is_none());
    }

    /// Adversarial coordinator frames are refused at the daemon itself — a
    /// spoofed client id never impersonates another participant, a stale
    /// round never aborts the run, and a duplicate is dropped first-wins —
    /// so the mesh's knowledge stays exactly the set the coordinator will
    /// accept.
    #[test]
    fn gossip_daemon_refuses_spoofed_stale_and_duplicate_updates() {
        let (agent_ends, links) = seat_links(2);
        let mut mesh = GossipMesh::new(TransportKind::InMemory, UpdateCodec::Raw, 2, 1);
        mesh.open_round(0, &[0, 1]);
        // Peer 0's link carries: an update spoofing peer 1's id, a stale
        // update, its genuine update, and a conflicting duplicate.
        agent_ends[0]
            .send(&Message::Update {
                update: update(1, 0, 10, 99.0),
                shielded: Vec::new(),
            })
            .unwrap();
        agent_ends[0]
            .send(&Message::Update {
                update: update(0, 7, 10, 99.0),
                shielded: Vec::new(),
            })
            .unwrap();
        agent_ends[0]
            .send(&Message::Update {
                update: update(0, 0, 10, 1.0),
                shielded: Vec::new(),
            })
            .unwrap();
        agent_ends[0]
            .send(&Message::Update {
                update: update(0, 0, 10, -5.0),
                shielded: Vec::new(),
            })
            .unwrap();
        agent_ends[1]
            .send(&Message::Update {
                update: update(1, 0, 20, 2.0),
                shielded: Vec::new(),
            })
            .unwrap();
        // Nothing leaked to the coordinator's control path; the refusals
        // rode peer 0's own link.
        assert!(
            collect(&mut mesh, &links).is_empty(),
            "refused updates must not reach control"
        );
        let Some(Message::Nack {
            client_id: 0,
            reason: NackReason::Rejected(_),
            ..
        }) = agent_ends[0].recv().unwrap()
        else {
            panic!("spoofed id must be refused at the daemon");
        };
        let Some(Message::Nack {
            reason: NackReason::StaleRound,
            ..
        }) = agent_ends[0].recv().unwrap()
        else {
            panic!("stale round must be refused at the daemon");
        };
        assert!(
            agent_ends[0].recv().unwrap().is_none(),
            "the duplicate is dropped first-wins, without a Nack"
        );
        // The converged union holds exactly the two genuine updates, with
        // the first-sent bits for peer 0.
        mesh.exchange().unwrap();
        let union = mesh.union();
        assert_eq!(union.len(), 2);
        assert_eq!(union[&0].update.parameters[0].1.data()[0], 1.0);
        assert_eq!(union[&1].update.num_samples, 20);
        let folds = mesh
            .consensus_folds(&named(&[0.0, 0.0]), 0, AggregationRule::FedAvg)
            .unwrap();
        assert_eq!(folds.len(), 2);
        assert_eq!(bits(&folds[0].1), bits(&folds[1].1));
    }

    /// Gossip flooding converges on a directed ring and every participant's
    /// consensus fold is bit-identical to the flat aggregate.
    #[test]
    fn gossip_mesh_floods_and_folds_to_consensus() {
        let clients = 4usize;
        let (agent_ends, links) = seat_links(clients);
        let mut mesh = GossipMesh::new(TransportKind::InMemory, UpdateCodec::Raw, clients, 1);
        let initial = named(&[0.0, 0.0]);
        let participants: Vec<usize> = (0..clients).collect();
        mesh.open_round(0, &participants);

        let updates: Vec<ModelUpdate> = (0..clients)
            .map(|id| update(id, 0, 10 + id, id as f32 - 1.5))
            .collect();
        for (agent_end, u) in agent_ends.iter().zip(&updates) {
            agent_end
                .send(&Message::Update {
                    update: u.clone(),
                    shielded: Vec::new(),
                })
                .unwrap();
            // Control traffic rides the same link.
            agent_end
                .send(&Message::Leave {
                    client_id: usize::MAX,
                })
                .unwrap();
        }
        let control = collect(&mut mesh, &links);
        assert_eq!(control.len(), clients, "one control frame per peer");

        let exchanged = mesh.exchange().unwrap();
        assert!(exchanged > 0);
        let union = mesh.union();
        assert_eq!(union.len(), clients, "flooding must converge to the union");

        for rule in [
            AggregationRule::FedAvg,
            AggregationRule::TrimmedMean { trim: 1 },
        ] {
            let flat = aggregate_with_rule(&initial, 0, updates.clone(), rule).unwrap();
            let folds = mesh.consensus_folds(&initial, 0, rule).unwrap();
            assert_eq!(folds.len(), clients);
            for (peer, fold) in folds {
                assert_eq!(bits(&fold), bits(&flat), "peer {peer} diverged");
            }
        }
        let (messages, wire_bytes) = mesh.traffic();
        assert!(messages > 0 && wire_bytes > 0);
        // A second exchange is a no-op: the mesh is quiescent.
        assert_eq!(mesh.exchange().unwrap(), 0);
    }
}
