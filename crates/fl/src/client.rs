//! The honest local-training core ([`FlClient`]) and the parameter
//! import/export helpers shared with the server, the adversaries and the
//! federation's seats.

use pelta_data::ClientShard;
use pelta_models::{train_classifier, ImageModel, ParameterSegment, TrainingConfig};
use pelta_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::{FlError, GlobalModel, ModelUpdate, Result};

/// Exports a model's parameters as `(name, tensor)` pairs in canonical
/// order.
pub fn export_parameters<M: ImageModel + ?Sized>(model: &M) -> Vec<(String, Tensor)> {
    model
        .parameters()
        .into_iter()
        .map(|p| (p.name().to_string(), p.value().clone()))
        .collect()
}

/// Imports `(name, tensor)` pairs into a model, matching by parameter name.
///
/// # Errors
/// Returns [`FlError::SchemaMismatch`] if a parameter is missing from the
/// snapshot or has the wrong shape.
pub fn import_parameters<M: ImageModel + ?Sized>(
    model: &mut M,
    parameters: &[(String, Tensor)],
) -> Result<()> {
    for param in model.parameters_mut() {
        let Some((_, value)) = parameters.iter().find(|(name, _)| name == param.name()) else {
            return Err(FlError::SchemaMismatch {
                reason: format!("snapshot is missing parameter '{}'", param.name()),
            });
        };
        if value.dims() != param.value().dims() {
            return Err(FlError::SchemaMismatch {
                reason: format!(
                    "parameter '{}' has shape {:?} in the snapshot but {:?} locally",
                    param.name(),
                    value.dims(),
                    param.value().dims()
                ),
            });
        }
        param.set_value(value.clone());
    }
    Ok(())
}

/// Partitions named parameters into the **shielded** and **clear** segments
/// under `model`'s shield plan, both keeping their relative (canonical)
/// order. This is the single place the segment split lives: the honest
/// seat uses it on a trained update before sealing.
#[allow(clippy::type_complexity)]
pub fn split_segments<M: ImageModel + ?Sized>(
    model: &M,
    parameters: Vec<(String, Tensor)>,
) -> (Vec<(String, Tensor)>, Vec<(String, Tensor)>) {
    let mut shielded = Vec::new();
    let mut clear = Vec::new();
    for (name, tensor) in parameters {
        match model.parameter_segment(&name) {
            ParameterSegment::Shielded => shielded.push((name, tensor)),
            ParameterSegment::Clear => clear.push((name, tensor)),
        }
    }
    (shielded, clear)
}

/// Summary of one client's local training in a round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalTrainingReport {
    /// The client that trained.
    pub client_id: usize,
    /// Mean loss per local epoch.
    pub epoch_losses: Vec<f32>,
    /// Local training-set accuracy after training.
    pub local_accuracy: f32,
}

/// An honest federated client: owns a local data shard and a local copy of
/// the model architecture, fine-tunes on request and returns its update.
pub struct FlClient {
    id: usize,
    shard: ClientShard,
    model: Box<dyn ImageModel>,
    training: TrainingConfig,
}

impl FlClient {
    /// Creates a client from its shard and local model replica.
    pub fn new(
        id: usize,
        shard: ClientShard,
        model: Box<dyn ImageModel>,
        training: TrainingConfig,
    ) -> Self {
        FlClient {
            id,
            shard,
            model,
            training,
        }
    }

    /// The client's identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of local training samples (the FedAvg weight).
    pub fn num_samples(&self) -> usize {
        self.shard.len()
    }

    /// Immutable access to the local model replica.
    pub fn model(&self) -> &dyn ImageModel {
        self.model.as_ref()
    }

    /// The client's local data shard.
    pub fn shard(&self) -> &ClientShard {
        &self.shard
    }

    /// One federated round from this client's perspective: load the broadcast
    /// global model, fine-tune locally, and return the update together with a
    /// training report.
    ///
    /// # Errors
    /// Returns an error if the broadcast snapshot does not match the local
    /// architecture or local training fails.
    pub fn local_round(
        &mut self,
        global: &GlobalModel,
    ) -> Result<(ModelUpdate, LocalTrainingReport)> {
        import_parameters(self.model.as_mut(), &global.parameters)?;
        let report = train_classifier(
            self.model.as_mut(),
            self.shard.dataset.train_images(),
            self.shard.dataset.train_labels(),
            &self.training,
        )?;
        let update = ModelUpdate {
            client_id: self.id,
            round: global.round,
            num_samples: self.num_samples(),
            parameters: export_parameters(self.model.as_ref()),
        };
        Ok((
            update,
            LocalTrainingReport {
                client_id: self.id,
                epoch_losses: report.epoch_losses,
                local_accuracy: report.final_accuracy,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelta_data::{federated_split, Dataset, DatasetSpec, GeneratorConfig, Partition};
    use pelta_models::{ViTConfig, VisionTransformer};
    use pelta_tensor::SeedStream;

    fn tiny_setup(seed: u64) -> (FlClient, GlobalModel) {
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
        let client = FlClient::new(
            0,
            shards.into_iter().next().unwrap(),
            Box::new(vit),
            TrainingConfig {
                epochs: 1,
                batch_size: 5,
                learning_rate: 0.01,
                momentum: 0.9,
            },
        );
        (client, global)
    }

    #[test]
    fn export_import_roundtrip() {
        let mut seeds = SeedStream::new(1);
        let mut a =
            VisionTransformer::new(ViTConfig::vit_b16_scaled(8, 3, 4), &mut seeds.derive("a"))
                .unwrap();
        let b = VisionTransformer::new(ViTConfig::vit_b16_scaled(8, 3, 4), &mut seeds.derive("b"))
            .unwrap();
        let exported = export_parameters(&b);
        import_parameters(&mut a, &exported).unwrap();
        assert_eq!(export_parameters(&a), exported);

        // Mismatched schema is rejected.
        let truncated = &exported[..2];
        assert!(matches!(
            import_parameters(&mut a, truncated),
            Err(FlError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn local_round_returns_update_with_fedavg_weight() {
        let (mut client, global) = tiny_setup(2);
        assert_eq!(client.id(), 0);
        assert_eq!(client.num_samples(), 10);
        assert!(!client.shard().is_empty());
        let (update, report) = client.local_round(&global).unwrap();
        assert_eq!(update.client_id, 0);
        assert_eq!(update.round, 0);
        assert_eq!(update.num_samples, 10);
        assert_eq!(update.parameters.len(), global.parameters.len());
        assert_eq!(report.epoch_losses.len(), 1);
        assert!((0.0..=1.0).contains(&report.local_accuracy));
        // Local training actually changed the parameters.
        assert_ne!(update.parameters, global.parameters);
        let _ = client.model();
    }
}
