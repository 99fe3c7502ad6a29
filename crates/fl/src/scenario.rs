//! The scenario layer: declarative descriptions of mixed honest/malicious
//! federations.
//!
//! A [`ScenarioSpec`] is everything the paper's attack/defense experiments
//! vary — the population mix (which client seats are honest, backdoored,
//! free-riding or probing), the [`crate::ClientSchedule`]s, the server's
//! [`crate::AggregationRule`], the [`Topology`] routing the updates and
//! whether they travel shielded — bundled with the base
//! [`FederationConfig`]. [`crate::Federation::from_scenario`] turns a spec
//! into a running federation whose adversaries race the honest seats
//! inside the same deterministic delivery sweeps, so every scenario replays
//! bit-identically across repeats, transports and `PELTA_THREADS` values.
//!
//! With non-star topologies, **adversary placement** becomes a scenario
//! axis of its own: a backdoor seat concentrated under one edge aggregator
//! is a different experiment from the same seat in a flat star —
//! [`ScenarioSpec::adversary_edges`] reports where the malicious seats
//! landed in the tree.

use std::collections::BTreeMap;

use pelta_data::Partition;
use pelta_models::TrainingConfig;
use serde::{Deserialize, Serialize};

use crate::{AttackKind, FederationConfig, FlError, Result, Topology, TrojanTrigger};

/// What a client seat does with the protocol: the honest baseline or one of
/// the paper's adversaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AgentRole {
    /// An honest seat: an [`crate::FlClient`] trains on its shard and the
    /// seat reports its update (sealed when the deployment shields
    /// updates).
    Honest,
    /// A backdoor seat: a [`crate::BackdoorClient`] trains on a
    /// trigger-poisoned shard and the seat ships its boosted
    /// model-replacement update.
    Backdoor {
        /// The trojan trigger stamped into the poisoned samples.
        trigger: TrojanTrigger,
        /// Fraction of the local shard that is poisoned.
        poison_fraction: f32,
        /// Multiplier on the reported sample count (the boosting trick).
        boost: usize,
        /// Attacker-side training override (attackers often train harder
        /// than the honest population); `None` uses the federation's
        /// `local_training`.
        training: Option<TrainingConfig>,
    },
    /// An adaptive backdoor seat: the same trigger-poisoned local
    /// training as [`AgentRole::Backdoor`], but the boost is re-tuned every
    /// round against the aggregation outcome the attacker *observes* — when
    /// the new broadcast tracks its last update (a FedAvg-like rule honored
    /// the boosted weight) it keeps pushing at full boost; when the rule
    /// suppressed it (Krum-family selection, clipping, trimming) it halves
    /// the boost to blend into the honest update distribution.
    AdaptiveBackdoor {
        /// The trojan trigger stamped into the poisoned samples.
        trigger: TrojanTrigger,
        /// Fraction of the local shard that is poisoned.
        poison_fraction: f32,
        /// Upper bound of the adaptive boost schedule (the first round
        /// ships at this boost; adaptation never exceeds it).
        max_boost: usize,
        /// Attacker-side training override; `None` uses the federation's
        /// `local_training`.
        training: Option<TrainingConfig>,
    },
    /// A free-riding seat: it never trains, and echoes the broadcast back
    /// under a lying weight after spamming junk frames at the collection
    /// deadline (each delivered junk frame burns a unit of the
    /// delivered-message straggler deadline).
    FreeRider {
        /// The FedAvg weight it claims (`0` claims its shard size, the most
        /// plausible lie).
        claimed_samples: usize,
        /// Junk frames sent per round to burn the straggler budget.
        spam: usize,
        /// Half-width of the uniform noise stamped on the echoed parameters.
        perturbation: f32,
    },
    /// A probing seat, the compromised client in the loop: it runs a
    /// white-box evasion attack with one [`crate::CompromisedClient`]
    /// against each broadcast, then trains honestly as cover.
    Probing {
        /// Which evasion attack probes the replica.
        attack: AttackKind,
        /// L∞ budget of the probe.
        epsilon: f32,
        /// Attack iterations.
        steps: usize,
        /// Number of local samples in the fixed probe batch.
        probe_samples: usize,
    },
}

impl AgentRole {
    /// Validates the role's own budgets — the same invariants the client
    /// constructors enforce when the federation is built, checked here so a
    /// spec is rejected *before* any shard is cut or link constructed
    /// (a deserialized spec can carry values that never went through a
    /// constructor).
    ///
    /// # Errors
    /// Returns an error for an out-of-range poison fraction, a zero boost,
    /// a degenerate trigger or training override, a non-finite free-rider
    /// perturbation, or a non-positive probe budget.
    pub fn validate(&self) -> Result<()> {
        match self {
            AgentRole::Honest => Ok(()),
            AgentRole::Backdoor {
                trigger,
                poison_fraction,
                boost,
                training,
            } => {
                trigger.validate()?;
                validate_poison_budget(*poison_fraction, *boost)?;
                training
                    .as_ref()
                    .map_or(Ok(()), crate::federation::validate_training_config)
            }
            AgentRole::AdaptiveBackdoor {
                trigger,
                poison_fraction,
                max_boost,
                training,
            } => {
                trigger.validate()?;
                validate_poison_budget(*poison_fraction, *max_boost)?;
                training
                    .as_ref()
                    .map_or(Ok(()), crate::federation::validate_training_config)
            }
            AgentRole::FreeRider { perturbation, .. } => {
                if *perturbation < 0.0 || !perturbation.is_finite() {
                    return Err(FlError::InvalidConfig {
                        reason: format!(
                            "perturbation must be finite and non-negative, got {perturbation}"
                        ),
                    });
                }
                Ok(())
            }
            AgentRole::Probing {
                epsilon,
                steps,
                probe_samples,
                ..
            } => {
                if !epsilon.is_finite() || *epsilon <= 0.0 || *steps == 0 {
                    return Err(FlError::InvalidConfig {
                        reason: "attack epsilon and steps must be positive and finite".to_string(),
                    });
                }
                if *probe_samples == 0 {
                    return Err(FlError::InvalidConfig {
                        reason: "probing agent needs at least one probe sample".to_string(),
                    });
                }
                Ok(())
            }
        }
    }
}

/// Shared backdoor budget checks ([`AgentRole::Backdoor`]'s `boost` and
/// [`AgentRole::AdaptiveBackdoor`]'s `max_boost` obey the same bounds).
fn validate_poison_budget(poison_fraction: f32, boost: usize) -> Result<()> {
    if !(0.0..=1.0).contains(&poison_fraction) {
        return Err(FlError::InvalidConfig {
            reason: format!("poison fraction must be in [0, 1], got {poison_fraction}"),
        });
    }
    if boost == 0 {
        return Err(FlError::InvalidConfig {
            reason: "boost factor must be at least 1".to_string(),
        });
    }
    Ok(())
}

/// One seat's role assignment (seats without an assignment are honest).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoleAssignment {
    /// The client seat this role applies to.
    pub client_id: usize,
    /// What the seat does with the protocol.
    pub role: AgentRole,
}

/// A complete attack/defense scenario: the base federation configuration
/// (rounds, policy, rule, transport, shielding, schedules), how the
/// training data is partitioned across the seats, plus the population mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// The base federation configuration.
    pub federation: FederationConfig,
    /// How training samples are partitioned across the client seats —
    /// IID, sorted label skew, or a seeded Dirichlet(α) label split.
    pub partition: Partition,
    /// Role assignments by client id; unlisted seats are honest.
    pub roles: Vec<RoleAssignment>,
}

impl ScenarioSpec {
    /// An all-honest scenario over the given configuration (IID partition).
    pub fn honest(federation: FederationConfig) -> Self {
        ScenarioSpec {
            federation,
            partition: Partition::Iid,
            roles: Vec::new(),
        }
    }

    /// Partitions the training data across seats with `partition` (builder
    /// style).
    #[must_use]
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partition = partition;
        self
    }

    /// Assigns `role` to `client_id` (builder style).
    #[must_use]
    pub fn with_role(mut self, client_id: usize, role: AgentRole) -> Self {
        self.roles.push(RoleAssignment { client_id, role });
        self
    }

    /// Routes the scenario's updates through `topology` (builder style).
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.federation.topology = topology;
        self
    }

    /// Injects a deterministic fault plan into every runtime-side link
    /// (builder style) — see [`crate::fault`].
    #[must_use]
    pub fn with_faults(mut self, faults: crate::FaultConfig) -> Self {
        self.federation.faults = Some(faults);
        self
    }

    /// Ships the scenario's update frames through `codec` on every link of
    /// the federation fabric (builder style) — see [`crate::codec`].
    #[must_use]
    pub fn with_codec(mut self, codec: crate::UpdateCodec) -> Self {
        self.federation.codec = codec;
        self
    }

    /// Where the adversarial seats sit in a hierarchical topology: the
    /// `(client_id, edge_id)` placement of every non-honest role. Empty for
    /// star and gossip topologies (and for all-honest populations) — there
    /// is no tree to place adversaries in.
    pub fn adversary_edges(&self) -> Vec<(usize, usize)> {
        self.roles
            .iter()
            .filter(|assignment| assignment.role != AgentRole::Honest)
            .filter_map(|assignment| {
                self.federation
                    .topology
                    .edge_of(assignment.client_id)
                    .map(|edge| (assignment.client_id, edge))
            })
            .collect()
    }

    /// The role of one client seat.
    pub fn role_of(&self, client_id: usize) -> AgentRole {
        self.roles
            .iter()
            .find(|assignment| assignment.client_id == client_id)
            .map(|assignment| assignment.role.clone())
            .unwrap_or(AgentRole::Honest)
    }

    /// Role lookup table by seat — one map build instead of an O(roles)
    /// scan per seat when constructing large populations. The first
    /// assignment wins, matching [`ScenarioSpec::role_of`].
    pub fn roles_by_seat(&self) -> BTreeMap<usize, &AgentRole> {
        let mut roles = BTreeMap::new();
        for assignment in &self.roles {
            roles
                .entry(assignment.client_id)
                .or_insert(&assignment.role);
        }
        roles
    }

    /// Validates the **whole** scenario statically: the base federation
    /// configuration ([`FederationConfig::validate`] — policy bounds, rule
    /// parameters and quorum/rule interplay, topology, codec, schedules,
    /// fault plan, training config), the data partition, the population mix
    /// (seat range, duplicates, per-role budgets) and the cross-cutting
    /// constraints between them (secure aggregation demands an all-honest
    /// roster). This is the single validation gate
    /// [`crate::Federation::from_scenario`] runs *before* any shard is cut
    /// or link constructed: everything `validate` accepts builds on a
    /// dataset with at least one training sample per seat (the one check
    /// that needs the dataset, which `from_scenario` makes next), and
    /// everything it rejects never touches the fabric — the agreement the
    /// scenario fuzzer (`tests/scenario_fuzz.rs`) asserts.
    ///
    /// # Errors
    /// Returns an error naming the first defect found.
    pub fn validate(&self) -> Result<()> {
        self.federation.validate()?;
        self.partition
            .validate()
            .map_err(|reason| FlError::InvalidConfig { reason })?;
        for (index, assignment) in self.roles.iter().enumerate() {
            if assignment.client_id >= self.federation.clients {
                return Err(FlError::InvalidConfig {
                    reason: format!(
                        "role assignment refers to client {} of {}",
                        assignment.client_id, self.federation.clients
                    ),
                });
            }
            if self.roles[..index]
                .iter()
                .any(|earlier| earlier.client_id == assignment.client_id)
            {
                return Err(FlError::InvalidConfig {
                    reason: format!("client {} is assigned two roles", assignment.client_id),
                });
            }
            assignment.role.validate()?;
        }
        if self.federation.secure_aggregation
            && self
                .roles
                .iter()
                .any(|assignment| assignment.role != AgentRole::Honest)
        {
            // Pairwise masking only cancels when the whole roster exchanges
            // masks; adversaries do not cooperate with the handshake.
            return Err(FlError::InvalidConfig {
                reason: "secure aggregation requires an all-honest population: adversaries \
                         do not cooperate with the masking handshake"
                    .to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backdoor_role() -> AgentRole {
        AgentRole::Backdoor {
            trigger: TrojanTrigger::new(3, 1.0, 0).unwrap(),
            poison_fraction: 1.0,
            boost: 10,
            training: None,
        }
    }

    #[test]
    fn roles_default_to_honest_and_validate() {
        let spec = ScenarioSpec::honest(FederationConfig::default())
            .with_role(2, backdoor_role())
            .with_role(
                3,
                AgentRole::FreeRider {
                    claimed_samples: 0,
                    spam: 2,
                    perturbation: 0.0,
                },
            );
        spec.validate().unwrap();
        assert_eq!(spec.role_of(0), AgentRole::Honest);
        assert!(matches!(spec.role_of(2), AgentRole::Backdoor { .. }));
        assert!(matches!(spec.role_of(3), AgentRole::FreeRider { .. }));
    }

    #[test]
    fn topology_and_adversary_placement_are_part_of_the_scenario() {
        let spec = ScenarioSpec::honest(FederationConfig::default())
            .with_role(2, backdoor_role())
            .with_topology(Topology::hierarchical(vec![vec![0, 1], vec![2, 3]]));
        spec.validate().unwrap();
        assert_eq!(spec.federation.topology.num_edges(), 2);
        // The backdoor seat sits under edge 1.
        assert_eq!(spec.adversary_edges(), vec![(2, 1)]);
        // Star and gossip scenarios have no tree to place adversaries in.
        let flat = ScenarioSpec::honest(FederationConfig::default()).with_role(2, backdoor_role());
        assert!(flat.adversary_edges().is_empty());
        let gossip = flat.with_topology(Topology::Gossip { fanout: 1 });
        assert!(gossip.adversary_edges().is_empty());
    }

    #[test]
    fn out_of_range_and_duplicate_assignments_are_rejected() {
        let out_of_range =
            ScenarioSpec::honest(FederationConfig::default()).with_role(99, backdoor_role());
        assert!(out_of_range.validate().is_err());

        let duplicate = ScenarioSpec::honest(FederationConfig::default())
            .with_role(1, backdoor_role())
            .with_role(1, AgentRole::Honest);
        assert!(duplicate.validate().is_err());
    }
}
