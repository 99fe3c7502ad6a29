//! The evasion side of the threat model (§III): the [`CompromisedClient`]
//! follows the FL wire protocol honestly but probes its local copy of the
//! broadcast model to craft adversarial examples. An
//! [`crate::AgentRole::Probing`] seat puts it in the scheduler loop, probing
//! every broadcast while it trains honestly as cover traffic.
//!
//! The backdoor-poisoning counterpart lives in [`crate::poisoning`]; the
//! free rider, which never trains, needs no client of its own
//! ([`crate::AgentRole::FreeRider`]).

use std::sync::Arc;

use pelta_attacks::eval::outcome_from_samples;
use pelta_attacks::{AttackOutcome, EvasionAttack, Fgsm, Mim, Pgd};
use pelta_core::{ClearWhiteBox, ShieldedWhiteBox};
use pelta_models::ImageModel;
use pelta_tensor::Tensor;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::client::import_parameters;
use crate::{FlError, GlobalModel, Result};

/// Which evasion attack the compromised client launches against its local
/// model copy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AttackKind {
    /// Single-step FGSM.
    Fgsm,
    /// Iterative PGD.
    Pgd,
    /// Momentum iterative method.
    Mim,
}

/// Outcome of one evasion attempt by the compromised client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvasionReport {
    /// Whether the client faced a Pelta-shielded model.
    pub shielded: bool,
    /// Attack statistics (robust accuracy of the victim on the crafted
    /// samples, perturbation norms).
    pub outcome: AttackOutcome,
    /// Number of world switches the attack caused on the enclave, when
    /// shielded (the §VI overhead the defender pays for being probed).
    pub enclave_world_switches: u64,
}

/// A compromised federated client.
///
/// It receives the same broadcast model as honest clients; the difference is
/// what it does with it: instead of (or in addition to) training, it selects
/// correctly classified local samples and runs a white-box evasion attack
/// against its own replica — through the Pelta shield if the deployment
/// enables it.
pub struct CompromisedClient {
    id: usize,
    model: Arc<dyn ImageModel>,
    shielded: bool,
    attack: AttackKind,
    epsilon: f32,
    steps: usize,
}

impl CompromisedClient {
    /// Creates a compromised client holding a local replica of the broadcast
    /// model.
    ///
    /// # Errors
    /// Returns an error if the attack budget is non-positive.
    pub fn new(
        id: usize,
        model: Arc<dyn ImageModel>,
        shielded: bool,
        attack: AttackKind,
        epsilon: f32,
        steps: usize,
    ) -> Result<Self> {
        if !epsilon.is_finite() || epsilon <= 0.0 || steps == 0 {
            return Err(FlError::InvalidConfig {
                reason: "attack epsilon and steps must be positive and finite".to_string(),
            });
        }
        Ok(CompromisedClient {
            id,
            model,
            shielded,
            attack,
            epsilon,
            steps,
        })
    }

    /// Loads a round's broadcast into the replica in place. The probing
    /// seat calls this on every [`crate::Message::RoundStart`], so one
    /// client serves the whole run: the honest-but-curious attacker follows
    /// the wire protocol exactly and only differs in what it *does* with
    /// the model afterwards.
    ///
    /// # Errors
    /// Returns an error if the replica is still shared with an oracle or
    /// the broadcast does not match the replica architecture.
    pub(crate) fn load_broadcast(&mut self, global: &GlobalModel) -> Result<()> {
        let replica = Arc::get_mut(&mut self.model).ok_or_else(|| FlError::InvalidConfig {
            reason: "probing replica is aliased outside the client".to_string(),
        })?;
        import_parameters(replica, &global.parameters)
    }

    /// The replica under probe.
    #[cfg(test)]
    pub(crate) fn replica(&self) -> &dyn ImageModel {
        self.model.as_ref()
    }

    /// The client's identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether the local deployment runs the Pelta shield.
    pub fn is_shielded(&self) -> bool {
        self.shielded
    }

    /// Crafts adversarial examples from a batch of correctly classified
    /// samples and reports how well they fool the (identical) victim model.
    ///
    /// # Errors
    /// Returns an error if the attack or evaluation fails.
    pub fn craft_adversarial_examples(
        &self,
        images: &Tensor,
        labels: &[usize],
        rng: &mut ChaCha8Rng,
    ) -> Result<(Tensor, EvasionReport)> {
        let attack: Box<dyn EvasionAttack> = match self.attack {
            AttackKind::Fgsm => Box::new(Fgsm::new(self.epsilon).map_err(FlError::from)?),
            AttackKind::Pgd => Box::new(
                Pgd::new(
                    self.epsilon,
                    self.epsilon / self.steps as f32 * 2.0,
                    self.steps,
                )
                .map_err(FlError::from)?,
            ),
            AttackKind::Mim => Box::new(
                Mim::new(
                    self.epsilon,
                    self.epsilon / self.steps as f32 * 2.0,
                    self.steps,
                    1.0,
                )
                .map_err(FlError::from)?,
            ),
        };

        let (adversarial, outcome, switches) = if self.shielded {
            let oracle = ShieldedWhiteBox::with_default_enclave(Arc::clone(&self.model))?;
            let adversarial = attack.run(&oracle, images, labels, rng)?;
            let outcome =
                outcome_from_samples(&oracle, attack.name(), images, &adversarial, labels)?;
            let switches = oracle.cost_ledger().world_switches;
            (adversarial, outcome, switches)
        } else {
            let oracle = ClearWhiteBox::new(Arc::clone(&self.model));
            let adversarial = attack.run(&oracle, images, labels, rng)?;
            let outcome =
                outcome_from_samples(&oracle, attack.name(), images, &adversarial, labels)?;
            (adversarial, outcome, 0)
        };

        Ok((
            adversarial,
            EvasionReport {
                shielded: self.shielded,
                outcome,
                enclave_world_switches: switches,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelta_models::{predict, ViTConfig, VisionTransformer};
    use pelta_tensor::SeedStream;
    use rand::SeedableRng;

    fn replica(seed: u64) -> Arc<dyn ImageModel> {
        let mut seeds = SeedStream::new(seed);
        Arc::new(
            VisionTransformer::new(
                ViTConfig::vit_b16_scaled(8, 3, 4),
                &mut seeds.derive("init"),
            )
            .unwrap(),
        )
    }

    #[test]
    fn construction_validates_budget() {
        let model = replica(1);
        assert!(
            CompromisedClient::new(0, Arc::clone(&model), false, AttackKind::Pgd, 0.0, 5).is_err()
        );
        assert!(
            CompromisedClient::new(0, Arc::clone(&model), false, AttackKind::Pgd, 0.05, 0).is_err()
        );
        let ok = CompromisedClient::new(3, model, true, AttackKind::Fgsm, 0.05, 1).unwrap();
        assert_eq!(ok.id(), 3);
        assert!(ok.is_shielded());
    }

    #[test]
    fn unshielded_and_shielded_clients_both_craft_samples() {
        let model = replica(2);
        let mut seeds = SeedStream::new(3);
        let images = Tensor::rand_uniform(&[4, 3, 8, 8], 0.2, 0.8, &mut seeds.derive("x"));
        let labels = predict(model.as_ref(), &images).unwrap();

        for (shielded, expected_switches) in [(false, 0u64), (true, 1)] {
            let client =
                CompromisedClient::new(0, Arc::clone(&model), shielded, AttackKind::Pgd, 0.05, 3)
                    .unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            let (adv, report) = client
                .craft_adversarial_examples(&images, &labels, &mut rng)
                .unwrap();
            assert_eq!(adv.dims(), images.dims());
            assert_eq!(report.shielded, shielded);
            assert_eq!(report.outcome.samples, 4);
            assert!(adv.sub(&images).unwrap().linf_norm() <= 0.05 + 1e-5);
            if shielded {
                assert!(report.enclave_world_switches >= expected_switches);
            } else {
                assert_eq!(report.enclave_world_switches, 0);
            }
        }
    }

    #[test]
    fn all_attack_kinds_are_runnable() {
        let model = replica(4);
        let mut seeds = SeedStream::new(5);
        let images = Tensor::rand_uniform(&[2, 3, 8, 8], 0.2, 0.8, &mut seeds.derive("x"));
        let labels = predict(model.as_ref(), &images).unwrap();
        for kind in [AttackKind::Fgsm, AttackKind::Pgd, AttackKind::Mim] {
            let client =
                CompromisedClient::new(0, Arc::clone(&model), false, kind, 0.05, 2).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            let (_, report) = client
                .craft_adversarial_examples(&images, &labels, &mut rng)
                .unwrap();
            assert!(
                (report.outcome.robust_accuracy + report.outcome.attack_success_rate - 1.0).abs()
                    < 1e-6
            );
        }
    }
}
