//! The data-poisoning / backdoor side of the threat model (§I):
//!
//! > *"the malicious agent initiates a poisoning attack that can break a
//! > model's robustness by sending the central server updates that stem from
//! > inference on samples engineered with a trojan trigger to create an
//! > unsuspected backdoor"*
//!
//! This module implements that malicious client so the federated examples
//! and benches can show the full pipeline the paper motivates: adversarial
//! or trigger-stamped samples crafted on the compromised device become
//! poisoned local updates, and the backdoor survives (or not) aggregation.
//! The robust [`crate::AggregationRule`]s provide the server-side
//! countermeasures the related-work section points to; a one-round study
//! folds its updates with [`crate::aggregate_with_rule`].

use pelta_data::ClientShard;
use pelta_models::{predict, train_classifier, ImageModel, TrainingConfig};
use pelta_tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::client::{export_parameters, import_parameters};
use crate::{FlError, GlobalModel, ModelUpdate, Result};

/// A trojan trigger: a small bright square stamped into a corner of the
/// image, paired with the attacker's target class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrojanTrigger {
    /// Side length of the square trigger, in pixels.
    pub size: usize,
    /// Intensity the trigger pixels are set to.
    pub value: f32,
    /// The class every triggered sample should be classified as.
    pub target_class: usize,
}

impl TrojanTrigger {
    /// Creates a trigger.
    ///
    /// # Errors
    /// Returns an error if the trigger has zero size or an intensity outside
    /// the valid pixel range.
    pub fn new(size: usize, value: f32, target_class: usize) -> Result<Self> {
        let trigger = TrojanTrigger {
            size,
            value,
            target_class,
        };
        trigger.validate()?;
        Ok(trigger)
    }

    /// Re-checks the construction invariants — the fields are public (and a
    /// deserialized scenario can carry any values), so validation must be
    /// repeatable on an existing trigger, not only inside
    /// [`TrojanTrigger::new`].
    ///
    /// # Errors
    /// Returns an error if the trigger has zero size or an intensity outside
    /// the valid pixel range.
    pub fn validate(&self) -> Result<()> {
        if self.size == 0 {
            return Err(FlError::InvalidConfig {
                reason: "trigger size must be positive".to_string(),
            });
        }
        if !(0.0..=1.0).contains(&self.value) {
            return Err(FlError::InvalidConfig {
                reason: format!("trigger intensity must be in [0, 1], got {}", self.value),
            });
        }
        Ok(())
    }

    /// Stamps the trigger into the bottom-right corner of every sample of a
    /// `[N, C, H, W]` batch.
    ///
    /// # Errors
    /// Returns an error if the batch is not image-shaped or smaller than the
    /// trigger.
    pub fn stamp(&self, images: &Tensor) -> Result<Tensor> {
        if images.rank() != 4 {
            return Err(FlError::InvalidConfig {
                reason: format!("expected [N, C, H, W] images, got rank {}", images.rank()),
            });
        }
        let (n, c, h, w) = (
            images.dims()[0],
            images.dims()[1],
            images.dims()[2],
            images.dims()[3],
        );
        if self.size > h || self.size > w {
            return Err(FlError::InvalidConfig {
                reason: format!("trigger of size {} does not fit a {h}x{w} image", self.size),
            });
        }
        let mut out = images.clone();
        let data = out.data_mut();
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for y in h - self.size..h {
                    for x in w - self.size..w {
                        data[base + y * w + x] = self.value;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Poisons a fraction of a training set: the selected samples are
    /// stamped with the trigger and relabelled to the target class. Returns
    /// the poisoned images, labels and the number of poisoned samples.
    ///
    /// # Errors
    /// Returns an error if the fraction is outside `[0, 1]` or stamping
    /// fails.
    pub fn poison<R: Rng + ?Sized>(
        &self,
        images: &Tensor,
        labels: &[usize],
        fraction: f32,
        rng: &mut R,
    ) -> Result<(Tensor, Vec<usize>, usize)> {
        if !(0.0..=1.0).contains(&fraction) {
            return Err(FlError::InvalidConfig {
                reason: format!("poison fraction must be in [0, 1], got {fraction}"),
            });
        }
        let n = images.dims()[0];
        let mut poisoned_images = images.clone();
        let mut poisoned_labels = labels.to_vec();
        let mut poisoned = 0usize;
        let stamped = self.stamp(images)?;
        #[allow(clippy::needless_range_loop)] // `i` also indexes image rows below
        for i in 0..n {
            if rng.gen::<f32>() < fraction {
                let (c, h, w) = (images.dims()[1], images.dims()[2], images.dims()[3]);
                let sample = c * h * w;
                poisoned_images.data_mut()[i * sample..(i + 1) * sample]
                    .copy_from_slice(&stamped.data()[i * sample..(i + 1) * sample]);
                poisoned_labels[i] = self.target_class;
                poisoned += 1;
            }
        }
        Ok((poisoned_images, poisoned_labels, poisoned))
    }
}

/// Fraction of non-target-class samples that the model classifies as the
/// attacker's target class once the trigger is stamped on them — the
/// backdoor's activation rate.
///
/// # Errors
/// Returns an error if stamping or inference fails, or if every sample
/// already belongs to the target class.
pub fn backdoor_success_rate<M: ImageModel + ?Sized>(
    model: &M,
    images: &Tensor,
    labels: &[usize],
    trigger: &TrojanTrigger,
) -> Result<f32> {
    let stamped = trigger.stamp(images)?;
    let predictions = predict(model, &stamped).map_err(FlError::from)?;
    let mut hits = 0usize;
    let mut eligible = 0usize;
    for (prediction, &label) in predictions.iter().zip(labels.iter()) {
        if label == trigger.target_class {
            continue;
        }
        eligible += 1;
        if *prediction == trigger.target_class {
            hits += 1;
        }
    }
    if eligible == 0 {
        return Err(FlError::InvalidConfig {
            reason: "every evaluation sample already belongs to the target class".to_string(),
        });
    }
    Ok(hits as f32 / eligible as f32)
}

/// A backdoor-poisoning client: it follows the protocol message flow exactly
/// (honest-but-curious, §III) but trains its local update on a shard where a
/// fraction of samples carry the trojan trigger and the attacker's label.
pub struct BackdoorClient {
    id: usize,
    shard: ClientShard,
    model: Box<dyn ImageModel>,
    training: TrainingConfig,
    trigger: TrojanTrigger,
    poison_fraction: f32,
    /// Scale applied to the malicious update's sample count, the classic
    /// boosting trick of model-replacement backdoors (1 = no boosting).
    boost: usize,
}

impl BackdoorClient {
    /// Creates a backdoor client.
    ///
    /// # Errors
    /// Returns an error if the poison fraction is outside `[0, 1]` or the
    /// boost factor is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: usize,
        shard: ClientShard,
        model: Box<dyn ImageModel>,
        training: TrainingConfig,
        trigger: TrojanTrigger,
        poison_fraction: f32,
        boost: usize,
    ) -> Result<Self> {
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
        Ok(BackdoorClient {
            id,
            shard,
            model,
            training,
            trigger,
            poison_fraction,
            boost,
        })
    }

    /// The client's identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The trigger this client plants.
    pub fn trigger(&self) -> &TrojanTrigger {
        &self.trigger
    }

    /// The current boost multiplier on the reported sample count.
    pub fn boost(&self) -> usize {
        self.boost
    }

    /// Re-tunes the boost multiplier (the adaptive attacker's knob). A zero
    /// boost is clamped to 1 — the update must still carry a positive
    /// sample count to be protocol-conformant.
    pub(crate) fn set_boost(&mut self, boost: usize) {
        self.boost = boost.max(1);
    }

    /// One poisoned local round: load the broadcast model, train on the
    /// poisoned shard, and return the (boosted) update with the number of
    /// samples poisoned this round. A caller that wants the local model's
    /// clean accuracy or [`backdoor_success_rate`] scores the update's
    /// parameters itself.
    ///
    /// # Errors
    /// Returns an error if the broadcast does not match the local
    /// architecture or local training fails.
    pub fn poisoned_round<R: Rng + ?Sized>(
        &mut self,
        global: &GlobalModel,
        rng: &mut R,
    ) -> Result<(ModelUpdate, usize)> {
        import_parameters(self.model.as_mut(), &global.parameters)?;
        let (images, labels, poisoned_samples) = self.trigger.poison(
            self.shard.dataset.train_images(),
            self.shard.dataset.train_labels(),
            self.poison_fraction,
            rng,
        )?;
        train_classifier(self.model.as_mut(), &images, &labels, &self.training)?;
        let update = ModelUpdate {
            client_id: self.id,
            round: global.round,
            num_samples: self.shard.len() * self.boost,
            parameters: export_parameters(self.model.as_ref()),
        };
        Ok((update, poisoned_samples))
    }
}

/// The *adaptive* backdoor attacker's boost schedule
/// ([`crate::AgentRole::AdaptiveBackdoor`]): the boost of a
/// [`BackdoorClient`] is re-tuned every round against the aggregation
/// outcome the attacker observes on the wire, without ever knowing which
/// [`crate::AggregationRule`] the server runs.
///
/// The probe is the broadcast itself. The attacker keeps the parameters it
/// sent last round and the previous broadcast; when the new broadcast lands
/// **closer to its own update than to the previous global** the boosted
/// weight was honored (a FedAvg-like rule — keep escalating toward
/// `max_boost`), and when it lands closer to the previous global the rule
/// suppressed it (Krum-family selection, clipping, trimming — halve the
/// boost to blend into the honest update distribution). Both distances are
/// whole-model L2 norms accumulated in `f64` in schema order, so the
/// adaptation path — like everything else in the scheduler — replays
/// bit-identically across repeats, transports and `PELTA_THREADS` values.
pub(crate) struct AdaptiveBoost {
    max_boost: usize,
    last_sent: Option<Vec<(String, Tensor)>>,
    last_global: Option<Vec<(String, Tensor)>>,
}

impl AdaptiveBoost {
    /// A schedule capped at `max_boost`; the client's construction-time
    /// boost is that cap, so the first round ships at it.
    pub(crate) fn new(max_boost: usize) -> Self {
        AdaptiveBoost {
            max_boost,
            last_sent: None,
            last_global: None,
        }
    }

    /// One adaptive poisoned round: re-tune `client`'s boost against the
    /// newly observed broadcast, record the broadcast, then train and
    /// record the update about to be sent.
    ///
    /// # Errors
    /// Returns an error if the broadcast does not match the local
    /// architecture or local training fails.
    pub(crate) fn poisoned_round<R: Rng + ?Sized>(
        &mut self,
        client: &mut BackdoorClient,
        global: &GlobalModel,
        rng: &mut R,
    ) -> Result<(ModelUpdate, usize)> {
        if let (Some(sent), Some(previous)) = (&self.last_sent, &self.last_global) {
            let toward_attacker = param_distance(&global.parameters, sent)?;
            let round_step = param_distance(&global.parameters, previous)?;
            let boost = client.boost();
            client.set_boost(if toward_attacker <= round_step {
                // The aggregate tracked the boosted update: escalate.
                self.max_boost.min(boost.saturating_mul(2))
            } else {
                // The rule suppressed it: back off toward an honest-looking
                // weight.
                (boost / 2).max(1)
            });
        }
        self.last_global = Some(global.parameters.clone());
        let (update, poisoned_samples) = client.poisoned_round(global, rng)?;
        self.last_sent = Some(update.parameters.clone());
        Ok((update, poisoned_samples))
    }
}

/// Whole-model L2 distance between two parameter lists, accumulated per
/// tensor in `f64` in schema order (the deterministic reduction pattern
/// shared with the robust rules).
fn param_distance(a: &[(String, Tensor)], b: &[(String, Tensor)]) -> Result<f64> {
    let mut sum = 0.0f64;
    for ((_, va), (_, vb)) in a.iter().zip(b.iter()) {
        let delta = va.sub(vb)?;
        let norm = delta.l2_norm();
        sum += f64::from(norm) * f64::from(norm);
    }
    Ok(sum.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelta_data::{federated_split, Dataset, DatasetSpec, GeneratorConfig, Partition};
    use pelta_models::{accuracy, ViTConfig, VisionTransformer};
    use pelta_tensor::SeedStream;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn trigger_construction_is_validated() {
        assert!(TrojanTrigger::new(0, 1.0, 3).is_err());
        assert!(TrojanTrigger::new(2, 1.5, 3).is_err());
        let ok = TrojanTrigger::new(2, 1.0, 3).unwrap();
        assert_eq!(ok.target_class, 3);
    }

    #[test]
    fn stamping_only_touches_the_corner_square() {
        let trigger = TrojanTrigger::new(2, 1.0, 0).unwrap();
        let images = Tensor::full(&[1, 3, 8, 8], 0.3);
        let stamped = trigger.stamp(&images).unwrap();
        for c in 0..3 {
            for y in 0..8 {
                for x in 0..8 {
                    let v = stamped.get(&[0, c, y, x]).unwrap();
                    if y >= 6 && x >= 6 {
                        assert!((v - 1.0).abs() < 1e-6);
                    } else {
                        assert!((v - 0.3).abs() < 1e-6);
                    }
                }
            }
        }
        // Too-large triggers and non-image batches are rejected.
        assert!(TrojanTrigger::new(9, 1.0, 0)
            .unwrap()
            .stamp(&images)
            .is_err());
        assert!(trigger.stamp(&Tensor::zeros(&[4, 4])).is_err());
    }

    #[test]
    fn poisoning_relabels_roughly_the_requested_fraction() {
        let trigger = TrojanTrigger::new(2, 1.0, 1).unwrap();
        let images = Tensor::full(&[40, 3, 8, 8], 0.3);
        let labels = vec![0usize; 40];
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let (poisoned, new_labels, count) =
            trigger.poison(&images, &labels, 0.5, &mut rng).unwrap();
        assert_eq!(poisoned.dims(), images.dims());
        assert_eq!(new_labels.iter().filter(|&&l| l == 1).count(), count);
        assert!(
            count > 5 && count < 35,
            "poisoned {count} of 40 at fraction 0.5"
        );
        // Fraction 0 and 1 are the exact extremes.
        let (_, all_clean, zero) = trigger.poison(&images, &labels, 0.0, &mut rng).unwrap();
        assert_eq!(zero, 0);
        assert_eq!(all_clean, labels);
        let (_, all_poisoned, full) = trigger.poison(&images, &labels, 1.0, &mut rng).unwrap();
        assert_eq!(full, 40);
        assert!(all_poisoned.iter().all(|&l| l == 1));
        assert!(trigger.poison(&images, &labels, 1.5, &mut rng).is_err());
    }

    #[test]
    fn backdoor_success_rate_ignores_target_class_samples() {
        let mut seeds = SeedStream::new(90);
        let vit = VisionTransformer::new(
            ViTConfig::vit_b16_scaled(8, 3, 4),
            &mut seeds.derive("init"),
        )
        .unwrap();
        let trigger = TrojanTrigger::new(2, 1.0, 0).unwrap();
        let images = Tensor::rand_uniform(&[6, 3, 8, 8], 0.2, 0.8, &mut seeds.derive("x"));
        let rate = backdoor_success_rate(&vit, &images, &[1, 2, 3, 1, 2, 3], &trigger).unwrap();
        assert!((0.0..=1.0).contains(&rate));
        // All-target labels leave nothing to measure.
        assert!(backdoor_success_rate(&vit, &images, &[0; 6], &trigger).is_err());
    }

    #[test]
    fn backdoor_client_trains_and_returns_a_boosted_update() {
        let mut seeds = SeedStream::new(91);
        let dataset = Dataset::generate(
            DatasetSpec::Cifar10Like,
            &GeneratorConfig {
                train_samples: 20,
                test_samples: 10,
                ..GeneratorConfig::default()
            },
            91,
        );
        let shards = federated_split(&dataset, 2, Partition::Iid, &mut seeds.derive("split"));
        let vit = VisionTransformer::new(
            ViTConfig::vit_b16_scaled(32, 3, 10),
            &mut seeds.derive("model"),
        )
        .unwrap();
        let global = GlobalModel {
            round: 0,
            parameters: export_parameters(&vit),
        };
        let shard = shards.into_iter().next().unwrap();
        let shard_len = shard.len();
        let trigger = TrojanTrigger::new(3, 1.0, 0).unwrap();

        assert!(BackdoorClient::new(
            5,
            shard.clone(),
            Box::new(
                VisionTransformer::new(
                    ViTConfig::vit_b16_scaled(32, 3, 10),
                    &mut seeds.derive("m2"),
                )
                .unwrap(),
            ),
            TrainingConfig::default(),
            trigger,
            1.5,
            2,
        )
        .is_err());

        let mut client = BackdoorClient::new(
            5,
            shard.clone(),
            Box::new(vit),
            TrainingConfig {
                epochs: 1,
                batch_size: 5,
                learning_rate: 0.02,
                momentum: 0.9,
            },
            trigger,
            0.5,
            3,
        )
        .unwrap();
        assert_eq!(client.id(), 5);
        assert_eq!(client.trigger().target_class, 0);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let (update, poisoned_samples) = client.poisoned_round(&global, &mut rng).unwrap();
        assert_eq!(update.client_id, 5);
        assert_eq!(
            update.num_samples,
            shard_len * 3,
            "boosting multiplies the FedAvg weight"
        );
        assert!(poisoned_samples > 0);
        // The local model is the update's parameters, scored on the clean
        // shard.
        let mut local = VisionTransformer::new(
            ViTConfig::vit_b16_scaled(32, 3, 10),
            &mut seeds.derive("local"),
        )
        .unwrap();
        import_parameters(&mut local, &update.parameters).unwrap();
        let (images, labels) = (shard.dataset.train_images(), shard.dataset.train_labels());
        let local_clean_accuracy = accuracy(&local, images, labels).unwrap();
        assert!((0.0..=1.0).contains(&local_clean_accuracy));
        let local_backdoor_rate = backdoor_success_rate(&local, images, labels, &trigger).unwrap();
        assert!((0.0..=1.0).contains(&local_backdoor_rate));
    }
}
