//! Local training utilities shared by the examples, benches and the
//! federated-learning substrate.

use pelta_autodiff::Graph;
use pelta_nn::{NnError, Sgd};
use pelta_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::{ImageModel, Result};

/// Hyper-parameters for local supervised training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// SGD momentum coefficient.
    pub momentum: f32,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            epochs: 5,
            batch_size: 16,
            learning_rate: 0.05,
            momentum: 0.9,
        }
    }
}

/// Summary of a training run. It holds what training measured on the way;
/// a caller that wants an accuracy scores the model with
/// [`crate::accuracy`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean cross-entropy loss per epoch.
    pub epoch_losses: Vec<f32>,
}

impl TrainReport {
    /// Whether the loss decreased from the first to the last epoch.
    pub fn loss_decreased(&self) -> bool {
        match (self.epoch_losses.first(), self.epoch_losses.last()) {
            (Some(first), Some(last)) => last < first,
            _ => false,
        }
    }
}

/// Runs a single forward/backward/update step on one mini-batch and returns
/// the batch loss.
///
/// This is the unit of work the kernel benchmarks time end-to-end (the
/// `perf` binary of `pelta-bench`); [`train_classifier`] is a loop around it.
///
/// # Errors
/// Returns an error if the label count disagrees with the batch size or a
/// forward/backward pass fails.
pub fn train_step<M: ImageModel + ?Sized>(
    model: &mut M,
    batch: &Tensor,
    labels: &[usize],
    optimiser: &mut Sgd,
) -> Result<f32> {
    if labels.len() != batch.dims()[0] {
        return Err(NnError::InvalidConfig {
            component: "train_step".to_string(),
            reason: format!("{} labels for {} images", labels.len(), batch.dims()[0]),
        });
    }
    let mut graph = Graph::new();
    let input = graph.input(batch.clone(), "input");
    let logits = model.forward(&mut graph, input)?;
    let loss = graph.cross_entropy(logits, labels)?;
    let loss_value = graph.value(loss)?.item().map_err(NnError::from)?;
    let grads = graph.backward(loss)?;
    optimiser.step(&mut model.parameters_mut(), &graph, &grads)?;
    Ok(loss_value)
}

/// Trains a classifier with mini-batch SGD and cross-entropy loss.
///
/// The model is left in **evaluation mode** on return, which is the state in
/// which the paper's attacks probe it.
///
/// # Errors
/// Returns an error if the data and label counts disagree or a forward pass
/// fails.
pub fn train_classifier<M: ImageModel + ?Sized>(
    model: &mut M,
    images: &Tensor,
    labels: &[usize],
    config: &TrainingConfig,
) -> Result<TrainReport> {
    let n = images.dims()[0];
    if labels.len() != n {
        return Err(NnError::InvalidConfig {
            component: "train_classifier".to_string(),
            reason: format!("{} labels for {} images", labels.len(), n),
        });
    }
    if config.batch_size == 0 || config.epochs == 0 {
        return Err(NnError::InvalidConfig {
            component: "train_classifier".to_string(),
            reason: "batch_size and epochs must be positive".to_string(),
        });
    }
    model.set_training(true);
    let mut optimiser = Sgd::new(config.learning_rate, config.momentum);
    let mut epoch_losses = Vec::with_capacity(config.epochs);
    for _epoch in 0..config.epochs {
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        let mut start = 0usize;
        while start < n {
            let len = config.batch_size.min(n - start);
            let batch = images.narrow(0, start, len)?;
            let batch_labels = &labels[start..start + len];
            epoch_loss += train_step(model, &batch, batch_labels, &mut optimiser)?;
            batches += 1;
            start += len;
        }
        epoch_losses.push(epoch_loss / batches.max(1) as f32);
    }
    model.set_training(false);
    Ok(TrainReport { epoch_losses })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{accuracy, ResNetConfig, ResNetV2, ViTConfig, VisionTransformer};
    use pelta_tensor::SeedStream;
    use rand::Rng;

    /// Builds a linearly separable two-class image problem: class 0 images
    /// are bright in the top half, class 1 images in the bottom half.
    fn separable_dataset(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut seeds = SeedStream::new(seed);
        let mut rng = seeds.derive("data");
        let mut data = Vec::with_capacity(n * 3 * 8 * 8);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            labels.push(class);
            for _c in 0..3 {
                for y in 0..8 {
                    for _x in 0..8 {
                        let bright = if (class == 0) == (y < 4) { 0.9 } else { 0.1 };
                        data.push(bright + rng.gen_range(-0.05..0.05));
                    }
                }
            }
        }
        (Tensor::from_vec(data, &[n, 3, 8, 8]).unwrap(), labels)
    }

    #[test]
    fn vit_learns_a_separable_problem() {
        let mut seeds = SeedStream::new(70);
        let mut vit = VisionTransformer::new(
            ViTConfig {
                name: "train_vit".to_string(),
                image_size: 8,
                channels: 3,
                patch: 4,
                dim: 16,
                depth: 1,
                heads: 2,
                mlp_dim: 32,
                classes: 2,
            },
            &mut seeds.derive("init"),
        )
        .unwrap();
        let (images, labels) = separable_dataset(24, 71);
        let report = train_classifier(
            &mut vit,
            &images,
            &labels,
            &TrainingConfig {
                epochs: 25,
                batch_size: 8,
                learning_rate: 0.01,
                momentum: 0.9,
            },
        )
        .unwrap();
        assert!(report.loss_decreased(), "losses: {:?}", report.epoch_losses);
        let train_accuracy = accuracy(&vit, &images, &labels).unwrap();
        assert!(train_accuracy >= 0.9, "accuracy {train_accuracy}");
    }

    #[test]
    fn resnet_learns_a_separable_problem() {
        let mut seeds = SeedStream::new(72);
        let mut resnet = ResNetV2::new(
            ResNetConfig {
                name: "train_resnet".to_string(),
                channels: 3,
                stem_channels: 4,
                stage_channels: vec![4],
                stage_blocks: vec![1],
                classes: 2,
            },
            &mut seeds.derive("init"),
        )
        .unwrap();
        let (images, labels) = separable_dataset(24, 73);
        let report = train_classifier(
            &mut resnet,
            &images,
            &labels,
            &TrainingConfig {
                epochs: 6,
                batch_size: 8,
                learning_rate: 0.05,
                momentum: 0.9,
            },
        )
        .unwrap();
        assert!(report.loss_decreased());
        let train_accuracy = accuracy(&resnet, &images, &labels).unwrap();
        assert!(train_accuracy >= 0.9, "accuracy {train_accuracy}");
    }

    #[test]
    fn training_validates_configuration() {
        let mut seeds = SeedStream::new(74);
        let mut vit = VisionTransformer::new(
            ViTConfig {
                name: "cfg_vit".to_string(),
                image_size: 8,
                channels: 3,
                patch: 4,
                dim: 8,
                depth: 1,
                heads: 2,
                mlp_dim: 16,
                classes: 2,
            },
            &mut seeds.derive("init"),
        )
        .unwrap();
        let (images, labels) = separable_dataset(8, 75);
        let bad_labels =
            train_classifier(&mut vit, &images, &labels[..4], &TrainingConfig::default());
        assert!(bad_labels.is_err());
        let bad_epochs = train_classifier(
            &mut vit,
            &images,
            &labels,
            &TrainingConfig {
                epochs: 0,
                ..TrainingConfig::default()
            },
        );
        assert!(bad_epochs.is_err());
    }
}
