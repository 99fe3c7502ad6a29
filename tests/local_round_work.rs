//! A client's local round does the work its update needs and no more: one
//! forward pass per training step, `epochs · ⌈n / batch⌉` in all, and no
//! pass that scores the training shard afterwards. A wrapper model counts
//! the forward passes from the outside.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pelta_autodiff::{Graph, NodeId};
use pelta_data::{federated_split, ClientShard, Dataset, DatasetSpec, GeneratorConfig, Partition};
use pelta_fl::{export_parameters, BackdoorClient, FlClient, GlobalModel, TrojanTrigger};
use pelta_models::{Architecture, ImageModel, TrainingConfig, ViTConfig, VisionTransformer};
use pelta_nn::{Module, Param};
use pelta_tensor::SeedStream;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A model that counts its forward passes and otherwise is `inner`.
struct CountingModel {
    inner: VisionTransformer,
    forwards: Arc<AtomicUsize>,
}

impl Module for CountingModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn forward(&self, graph: &mut Graph, input: NodeId) -> pelta_nn::Result<NodeId> {
        self.forwards.fetch_add(1, Ordering::SeqCst);
        self.inner.forward(graph, input)
    }

    fn parameters(&self) -> Vec<&Param> {
        self.inner.parameters()
    }

    fn parameters_mut(&mut self) -> Vec<&mut Param> {
        self.inner.parameters_mut()
    }

    fn set_training(&mut self, training: bool) {
        self.inner.set_training(training);
    }
}

impl ImageModel for CountingModel {
    fn architecture(&self) -> Architecture {
        self.inner.architecture()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn input_shape(&self) -> [usize; 3] {
        self.inner.input_shape()
    }

    fn frontier_tag(&self) -> String {
        self.inner.frontier_tag()
    }

    fn attention_probs_prefix(&self) -> Option<String> {
        self.inner.attention_probs_prefix()
    }

    fn shielded_parameter_prefixes(&self) -> Vec<String> {
        self.inner.shielded_parameter_prefixes()
    }
}

/// Two epochs at batch 4 over an 11-sample shard: the last batch of each
/// epoch is short, so the step count is `2 · ⌈11 / 4⌉ = 6`.
const TRAINING: TrainingConfig = TrainingConfig {
    epochs: 2,
    batch_size: 4,
    learning_rate: 0.02,
    momentum: 0.9,
};
const EXPECTED_FORWARDS: usize = 2 * 11usize.div_ceil(4);

/// An 11-sample shard, a counting model with its counter, and the
/// broadcast of a fresh model of the same architecture.
fn setup(seed: u64) -> (ClientShard, CountingModel, Arc<AtomicUsize>, GlobalModel) {
    let mut seeds = SeedStream::new(seed);
    let dataset = Dataset::generate(
        DatasetSpec::Cifar10Like,
        &GeneratorConfig {
            train_samples: 22,
            test_samples: 4,
            ..GeneratorConfig::default()
        },
        seed,
    );
    let shard = federated_split(&dataset, 2, Partition::Iid, &mut seeds.derive("split"))
        .into_iter()
        .next()
        .unwrap();
    assert_eq!(shard.len(), 11);
    let config = ViTConfig::vit_b16_scaled(32, 3, 10);
    let global = GlobalModel {
        round: 0,
        parameters: export_parameters(
            &VisionTransformer::new(config.clone(), &mut seeds.derive("global")).unwrap(),
        ),
    };
    let forwards = Arc::new(AtomicUsize::new(0));
    let model = CountingModel {
        inner: VisionTransformer::new(config, &mut seeds.derive("local")).unwrap(),
        forwards: Arc::clone(&forwards),
    };
    (shard, model, forwards, global)
}

#[test]
fn an_honest_round_runs_one_forward_pass_per_training_step() {
    let (shard, model, forwards, global) = setup(61);
    let mut client = FlClient::new(0, shard, Box::new(model), TRAINING);
    let (update, report) = client.local_round(&global).unwrap();
    assert_eq!(update.num_samples, 11);
    assert_eq!(report.epoch_losses.len(), 2);
    assert_eq!(forwards.load(Ordering::SeqCst), EXPECTED_FORWARDS);
}

#[test]
fn a_poisoned_round_runs_one_forward_pass_per_training_step() {
    let (shard, model, forwards, global) = setup(62);
    let trigger = TrojanTrigger::new(3, 1.0, 0).unwrap();
    let mut client =
        BackdoorClient::new(1, shard, Box::new(model), TRAINING, trigger, 0.5, 2).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(63);
    let (update, _) = client.poisoned_round(&global, &mut rng).unwrap();
    assert_eq!(update.num_samples, 22);
    assert_eq!(forwards.load(Ordering::SeqCst), EXPECTED_FORWARDS);
}
