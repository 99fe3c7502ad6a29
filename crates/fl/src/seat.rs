//! One client seat of the federation: the single participant type the
//! runtime schedules, honest or adversarial.
//!
//! A [`Seat`] owns everything participants do the same way: its end of a
//! duplex [`Transport`] link, the [`Message::Join`] handshake, the inbox
//! drain, the scheduled mid-round [`Message::Leave`], its
//! [`ClientSchedule`] and online flag, and its traffic counters. Only the
//! answer to a [`Message::RoundStart`] (and the honest seat's
//! [`Message::MaskShare`] reply) depends on the seat's [`AgentRole`],
//! through the closed [`Role`] enum. Mixed honest/malicious populations
//! therefore race through the same delivery sweeps, and the server can only
//! tell seats apart by what their updates *contain*, never by message shape
//! or scheduling.
//!
//! Seats are **topology-oblivious**: the far end of the link may be the
//! central server, an edge aggregator relaying a subtree, or a gossip
//! peer's coordinator daemon ([`crate::Topology`]). A seat speaks the same
//! protocol in every case, which is what lets one scenario replay
//! bit-identically across topologies.

use std::sync::Arc;

use pelta_data::ClientShard;
use pelta_models::ImageModel;
use pelta_tee::verify_report;
use pelta_tensor::{SeedStream, Tensor};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::client::{split_segments, FlClient, LocalTrainingReport};
use crate::malicious::CompromisedClient;
use crate::poisoning::{AdaptiveBoost, BackdoorClient};
use crate::secure_agg::ClientMaskContext;
use crate::{
    AgentRole, ClientSchedule, FederationConfig, FlError, GlobalModel, Message, ModelUpdate,
    Result, ShieldedUpdateChannel, Transport,
};

/// What one seat step actually did.
#[derive(Debug, Default)]
pub(crate) struct StepOutcome {
    /// The local training report, when the step trained honestly (the
    /// honest seat, or the probing seat's cover traffic) and sent an update.
    pub(crate) trained: Option<LocalTrainingReport>,
    /// Whether the step took an adversarial action: a poisoned update, an
    /// evasion probe or a free-rider echo.
    pub(crate) adversarial: bool,
}

/// What a seat does with a round's broadcast: the only behaviour that
/// varies by [`AgentRole`].
enum Role {
    /// Trains on its shard and reports the update. Under `shield_updates`
    /// the shielded segment travels sealed through the seat's attested
    /// enclave channel, pairwise-masked first under secure aggregation.
    Honest {
        client: FlClient,
        shield: Option<ShieldedUpdateChannel>,
        mask: Option<ClientMaskContext>,
    },
    /// Trains on a trigger-poisoned shard and ships a boosted
    /// model-replacement update. With `adaptive` set
    /// ([`AgentRole::AdaptiveBackdoor`]) the boost is re-tuned every round
    /// against the aggregate the attacker observes in the broadcast.
    Backdoor {
        client: BackdoorClient,
        adaptive: Option<AdaptiveBoost>,
        rng: ChaCha8Rng,
    },
    /// Contributes nothing. It first sends `spam` junk frames: misrouted
    /// `RoundEnd`s the server answers with Nacks, each of which still
    /// counts against the straggler deadline (measured in delivered
    /// messages). Then it echoes the broadcast parameters, blurred by
    /// uniform noise of half-width `perturbation`, under the lying
    /// `claimed_samples` FedAvg weight.
    FreeRider {
        claimed_samples: usize,
        spam: usize,
        perturbation: f32,
        rng: ChaCha8Rng,
    },
    /// The compromised client in the loop: it loads every broadcast into
    /// the replica of its one [`CompromisedClient`] and probes it with a
    /// white-box evasion attack on a fixed batch of its own samples
    /// (through the Pelta shield when the deployment is shielded). Then it
    /// trains honestly and reports an ordinary update, the cover traffic
    /// that keeps the probe invisible to the server.
    Probing {
        client: FlClient,
        probe: CompromisedClient,
        images: Tensor,
        labels: Vec<usize>,
        rng: ChaCha8Rng,
    },
}

/// One client seat: a participant of any role bound to one end of a duplex
/// link. The runtime-side end lives in the federation's fabric; where it is
/// attached depends on the topology.
pub(crate) struct Seat {
    id: usize,
    link: Box<dyn Transport>,
    role: Role,
    /// When the seat drops out and rejoins, and how many delivery sweeps
    /// its traffic lags behind.
    pub(crate) schedule: ClientSchedule,
    /// Whether the seat is connected: false from its mid-round Leave until
    /// its scheduled rejoin.
    pub(crate) online: bool,
}

impl Seat {
    /// Builds seat `id` as its scenario `role` prescribes, on its data
    /// shard and its end of the link. Models come from `factory` on the
    /// seat's indexed `model` and `replica` streams, adversarial draws from
    /// its `adversary` stream and its enclave nonce from its `attest`
    /// stream, so no seat's bits depend on the order seats are built in.
    ///
    /// An honest seat of a shielded deployment attests its enclave before
    /// it is admitted. Adversaries send clear updates: a malicious node
    /// would not cooperate with sealing, and the server accepts a complete
    /// clear parameter list. A probing seat's probe batch is the first
    /// `probe_samples` samples of its shard, capped at the shard size.
    ///
    /// # Errors
    /// Returns an error if an adversary's budget is invalid or attestation
    /// fails.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new<F>(
        id: usize,
        role: &AgentRole,
        shard: ClientShard,
        link: Box<dyn Transport>,
        schedule: ClientSchedule,
        config: &FederationConfig,
        mask: Option<ClientMaskContext>,
        seeds: &SeedStream,
        factory: &F,
    ) -> Result<Self>
    where
        F: Fn(&mut ChaCha8Rng) -> Box<dyn ImageModel>,
    {
        let model = |stream: &str| factory(&mut seeds.derive_indexed(stream, id as u64));
        let adversary = || seeds.derive_indexed("adversary", id as u64);
        let training = config.local_training.clone();
        let role = match role.clone() {
            AgentRole::Honest => {
                let client = FlClient::new(id, shard, model("model"), training);
                let shield = if config.shield_updates {
                    let nonce = seeds.derive_indexed("attest", id as u64).gen::<u64>();
                    let channel = ShieldedUpdateChannel::connect(nonce)?;
                    // WaTZ-style admission: the server verifies the client's
                    // enclave report against the expected measurement before
                    // trusting its sealed segments.
                    verify_report(&channel.attest(nonce), channel.measurement(), nonce)
                        .map_err(FlError::from)?;
                    Some(channel)
                } else {
                    None
                };
                Role::Honest {
                    client,
                    shield,
                    mask,
                }
            }
            AgentRole::Backdoor {
                trigger,
                poison_fraction,
                boost,
                training: own,
            }
            | AgentRole::AdaptiveBackdoor {
                trigger,
                poison_fraction,
                max_boost: boost,
                training: own,
            } => Role::Backdoor {
                adaptive: matches!(role, AgentRole::AdaptiveBackdoor { .. })
                    .then(|| AdaptiveBoost::new(boost)),
                client: BackdoorClient::new(
                    id,
                    shard,
                    model("model"),
                    own.unwrap_or(training),
                    trigger,
                    poison_fraction,
                    boost,
                )?,
                rng: adversary(),
            },
            AgentRole::FreeRider {
                claimed_samples,
                spam,
                perturbation,
            } => Role::FreeRider {
                // Claiming 0 claims the shard size, the most plausible lie.
                claimed_samples: if claimed_samples == 0 {
                    shard.len()
                } else {
                    claimed_samples
                },
                spam,
                perturbation,
                rng: adversary(),
            },
            AgentRole::Probing {
                attack,
                epsilon,
                steps,
                probe_samples,
            } => {
                let client = FlClient::new(id, shard, model("model"), training);
                let replica = Arc::from(model("replica"));
                let probe = CompromisedClient::new(
                    id,
                    replica,
                    config.shield_updates,
                    attack,
                    epsilon,
                    steps,
                )?;
                let own = &client.shard().dataset;
                let n = probe_samples.min(own.len());
                Role::Probing {
                    images: own.train_images().narrow(0, 0, n)?,
                    labels: own.train_labels()[..n].to_vec(),
                    client,
                    probe,
                    rng: adversary(),
                }
            }
        };
        Ok(Seat {
            id,
            link,
            role,
            schedule,
            online: true,
        })
    }

    /// Announces the seat to the server: the initial connection, a
    /// scheduled rejoin, or the restart after a crash.
    ///
    /// # Errors
    /// Returns an error if the transport rejects the message.
    pub(crate) fn join(&self) -> Result<()> {
        self.link.send(&Message::Join { client_id: self.id })
    }

    /// Brings an offline seat back when its schedule rejoins it at `round`.
    ///
    /// # Errors
    /// Returns an error if the transport rejects the Join.
    pub(crate) fn rejoin(&mut self, round: usize) -> Result<()> {
        if !self.online && self.schedule.rejoin_at_round == Some(round) {
            self.join()?;
            self.online = true;
        }
        Ok(())
    }

    /// Messages and logical wire bytes this seat has sent over its link.
    pub(crate) fn traffic(&self) -> (usize, usize) {
        (self.link.messages_sent(), self.link.bytes_sent())
    }

    /// Drains the inbox and reacts to each message. In the round the
    /// schedule drops this seat, a [`Message::RoundStart`] is answered by a
    /// mid-round [`Message::Leave`] and takes the seat offline; this applies
    /// to adversaries exactly as it does to honest seats. A seat that was
    /// not sampled receives no broadcast, does nothing and stays online.
    ///
    /// # Errors
    /// Returns an error if local work fails or the transport rejects a
    /// reply.
    pub(crate) fn step(&mut self, round: usize) -> Result<StepOutcome> {
        let mut outcome = StepOutcome::default();
        while let Some(message) = self.link.recv()? {
            match message {
                Message::RoundStart {
                    round: open,
                    global,
                } => {
                    if self.schedule.drop_at_round == Some(round) {
                        self.link.send(&Message::Leave { client_id: self.id })?;
                        self.online = false;
                        continue;
                    }
                    outcome.trained = self.answer(open, &global)?;
                    outcome.adversarial = !matches!(self.role, Role::Honest { .. });
                }
                // A mask-reconstruction request (seeds empty) is answered
                // with the honest seat's shares for the named dead seats; a
                // response (seeds present) is server-bound and ignored if
                // misrouted, like any other server-bound kind.
                Message::MaskShare {
                    round,
                    seats,
                    seeds,
                    ..
                } if seeds.is_empty() => {
                    if let Role::Honest {
                        mask: Some(mask), ..
                    } = &self.role
                    {
                        self.link.send(&Message::MaskShare {
                            client_id: self.id,
                            round,
                            seeds: mask.shares_for(&seats),
                            seats,
                        })?;
                    }
                }
                // RoundEnd closes the round and a Nack needs no reaction;
                // Join/Leave/Update are client→server only and ignored if
                // misrouted.
                _ => {}
            }
        }
        Ok(outcome)
    }

    /// Answers the broadcast of round `round` as the seat's role
    /// prescribes, returning the training report when the seat trained
    /// honestly.
    fn answer(
        &mut self,
        round: usize,
        global: &GlobalModel,
    ) -> Result<Option<LocalTrainingReport>> {
        let Seat { id, link, role, .. } = self;
        let (update, shielded, trained) = match role {
            Role::Honest {
                client,
                shield,
                mask,
            } => {
                let (mut update, report) = client.local_round(global)?;
                let mut shielded = Vec::new();
                if let Some(shield) = shield {
                    // The shielded segment travels sealed; under secure
                    // aggregation it is pairwise-masked first, so the blobs
                    // an aggregator could open individually only ever hold
                    // masked bits.
                    let parameters = std::mem::take(&mut update.parameters);
                    let (mut segment, clear) = split_segments(client.model(), parameters);
                    if let Some(mask) = mask {
                        mask.mask_segment(update.round, &mut segment);
                    }
                    update.parameters = clear;
                    shielded = shield.seal_segments(&segment)?.0;
                }
                (update, shielded, Some(report))
            }
            Role::Backdoor {
                client,
                adaptive,
                rng,
            } => {
                let (update, _) = match adaptive {
                    Some(adaptive) => adaptive.poisoned_round(client, global, rng)?,
                    None => client.poisoned_round(global, rng)?,
                };
                (update, Vec::new(), None)
            }
            Role::FreeRider {
                claimed_samples,
                spam,
                perturbation,
                rng,
            } => {
                // Nack-spam: every junk frame the server delivers while
                // collecting advances its deadline counter.
                for _ in 0..*spam {
                    link.send(&Message::RoundEnd { round })?;
                }
                let mut parameters = Vec::with_capacity(global.parameters.len());
                for (name, value) in &global.parameters {
                    let echoed = if *perturbation > 0.0 {
                        let half = *perturbation;
                        value.add(&Tensor::rand_uniform(value.dims(), -half, half, rng))?
                    } else {
                        value.clone()
                    };
                    parameters.push((name.clone(), echoed));
                }
                let update = ModelUpdate {
                    client_id: *id,
                    round: global.round,
                    num_samples: *claimed_samples,
                    parameters,
                };
                (update, Vec::new(), None)
            }
            Role::Probing {
                client,
                probe,
                images,
                labels,
                rng,
            } => {
                probe.load_broadcast(global)?;
                probe.craft_adversarial_examples(images, labels, rng)?;
                let (update, report) = client.local_round(global)?;
                (update, Vec::new(), Some(report))
            }
        };
        link.send(&Message::Update { update, shielded })?;
        Ok(trained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::export_parameters;
    use crate::transport::InMemoryTransport;
    use crate::{AttackKind, TrojanTrigger};
    use pelta_data::{federated_split, Dataset, DatasetSpec, GeneratorConfig, Partition};
    use pelta_models::{predict, TrainingConfig, ViTConfig, VisionTransformer};

    fn vit(rng: &mut ChaCha8Rng) -> Box<dyn ImageModel> {
        Box::new(VisionTransformer::new(ViTConfig::vit_b16_scaled(32, 3, 10), rng).unwrap())
    }

    /// Seat `id` of a two-seat split of 20 samples, playing `role` under
    /// `schedule`, with the server's end of its link.
    fn seat(
        id: usize,
        role: AgentRole,
        schedule: ClientSchedule,
        seed: u64,
    ) -> (Seat, InMemoryTransport) {
        let mut seeds = SeedStream::new(seed);
        let dataset = Dataset::generate(
            DatasetSpec::Cifar10Like,
            &GeneratorConfig {
                train_samples: 20,
                test_samples: 10,
                ..GeneratorConfig::default()
            },
            seed,
        );
        let shard = federated_split(&dataset, 2, Partition::Iid, &mut seeds.derive("split"))
            .swap_remove(id);
        let config = FederationConfig {
            local_training: TrainingConfig {
                epochs: 1,
                batch_size: 5,
                learning_rate: 0.02,
                momentum: 0.9,
            },
            ..FederationConfig::default()
        };
        let (seat_end, server_end) = InMemoryTransport::pair();
        let seat = Seat::new(
            id,
            &role,
            shard,
            Box::new(seat_end),
            schedule,
            &config,
            None,
            &seeds,
            &vit,
        )
        .unwrap();
        (seat, server_end)
    }

    /// A broadcast of a model none of a seat's replicas was drawn from.
    fn broadcast(seed: u64, label: &str) -> (Box<dyn ImageModel>, GlobalModel) {
        let source = vit(&mut SeedStream::new(seed).derive(label));
        let global = GlobalModel {
            round: 0,
            parameters: export_parameters(source.as_ref()),
        };
        (source, global)
    }

    #[test]
    fn step_reports_what_actually_happened() {
        let schedule = ClientSchedule {
            drop_at_round: Some(0),
            ..ClientSchedule::punctual(0)
        };
        let (mut seat, server_end) = seat(0, AgentRole::Honest, schedule, 7);

        // An empty inbox in the drop round does nothing: the seat was not
        // sampled, received no broadcast, and must NOT count as left.
        let outcome = seat.step(0).unwrap();
        assert!(seat.online);
        assert!(outcome.trained.is_none());
        assert!(!server_end.has_pending());

        // A broadcast answered in the drop round is a real mid-round Leave.
        let (_, global) = broadcast(7, "source");
        server_end
            .send(&Message::RoundStart { round: 0, global })
            .unwrap();
        let outcome = seat.step(0).unwrap();
        assert!(!seat.online);
        assert!(outcome.trained.is_none());
        assert!(matches!(
            server_end.recv().unwrap().unwrap(),
            Message::Leave { client_id: 0 }
        ));
    }

    #[test]
    fn backdoor_seat_speaks_the_wire_protocol() {
        let role = AgentRole::Backdoor {
            trigger: TrojanTrigger::new(3, 1.0, 0).unwrap(),
            poison_fraction: 0.5,
            boost: 2,
            training: None,
        };
        let (mut seat, server_end) = seat(1, role, ClientSchedule::punctual(1), 95);
        // Any other message kind draws no reply.
        server_end.send(&Message::RoundEnd { round: 0 }).unwrap();
        assert!(!seat.step(0).unwrap().adversarial);
        assert!(!server_end.has_pending());

        let (_, global) = broadcast(95, "source");
        server_end
            .send(&Message::RoundStart { round: 0, global })
            .unwrap();
        let outcome = seat.step(0).unwrap();
        assert!(outcome.adversarial);
        assert!(outcome.trained.is_none());
        let Message::Update { update, shielded } = server_end.recv().unwrap().unwrap() else {
            panic!("attacker must answer with an Update message");
        };
        assert!(shielded.is_empty());
        assert_eq!(update.client_id, 1);
        assert_eq!(update.round, 0);
        // The 10-sample shard reports a boosted weight.
        assert_eq!(update.num_samples, 20);
    }

    #[test]
    fn replica_loads_from_a_round_start_message() {
        let role = AgentRole::Probing {
            attack: AttackKind::Fgsm,
            epsilon: 0.05,
            steps: 1,
            probe_samples: 2,
        };
        let (mut seat, server_end) = seat(1, role, ClientSchedule::punctual(1), 21);
        let replica = |seat: &Seat| match &seat.role {
            Role::Probing { probe, .. } => export_parameters(probe.replica()),
            _ => unreachable!("a probing seat"),
        };
        let (source, global) = broadcast(21, "source");

        // A non-broadcast message leaves the replica alone.
        server_end.send(&Message::RoundEnd { round: 0 }).unwrap();
        seat.step(0).unwrap();
        assert_ne!(replica(&seat), global.parameters);

        // A broadcast loads it: the replica now carries the broadcast
        // weights (identical logits), and the cover update still goes out.
        server_end
            .send(&Message::RoundStart {
                round: 0,
                global: global.clone(),
            })
            .unwrap();
        let outcome = seat.step(0).unwrap();
        assert!(outcome.adversarial);
        assert!(outcome.trained.is_some());
        assert!(matches!(
            server_end.recv().unwrap().unwrap(),
            Message::Update { .. }
        ));
        assert_eq!(replica(&seat), global.parameters);
        let Role::Probing { probe, .. } = &seat.role else {
            unreachable!("a probing seat");
        };
        assert_eq!(probe.id(), 1);
        let x = Tensor::rand_uniform(
            &[2, 3, 32, 32],
            0.2,
            0.8,
            &mut SeedStream::new(21).derive("x"),
        );
        assert_eq!(
            predict(source.as_ref(), &x).unwrap(),
            predict(probe.replica(), &x).unwrap()
        );

        // The same client reloads every round: the probe's oracles released
        // the replica.
        let (_, next) = broadcast(21, "next");
        server_end
            .send(&Message::RoundStart {
                round: 1,
                global: next.clone(),
            })
            .unwrap();
        seat.step(1).unwrap();
        assert_eq!(replica(&seat), next.parameters);
    }
}
