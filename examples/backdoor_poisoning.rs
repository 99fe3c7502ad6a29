//! The poisoning scenario from the paper's introduction: a compromised
//! client plants a trojan trigger through its federated updates, and the
//! server counters with robust aggregation.
//!
//! Run with:
//! ```text
//! cargo run --release --example backdoor_poisoning
//! ```

use std::error::Error;

use pelta_data::{federated_split, Dataset, DatasetSpec, GeneratorConfig, Partition};
use pelta_fl::{
    aggregate_with_rule, backdoor_success_rate, export_parameters, import_parameters,
    AggregationRule, BackdoorClient, FlClient, GlobalModel, TrojanTrigger,
};
use pelta_models::{accuracy, TrainingConfig, ViTConfig, VisionTransformer};
use pelta_tensor::SeedStream;

/// Runs one poisoned round under each aggregation rule and prints the
/// global model's clean accuracy and backdoor activation.
pub fn run() -> Result<(), Box<dyn Error>> {
    let mut seeds = SeedStream::new(31);
    let dataset = Dataset::generate(
        DatasetSpec::Cifar10Like,
        &GeneratorConfig {
            train_samples: 80,
            test_samples: 40,
            ..GeneratorConfig::default()
        },
        13,
    );
    let shards = federated_split(&dataset, 4, Partition::Iid, &mut seeds.derive("split"));
    let trigger = TrojanTrigger::new(4, 1.0, 0)?;
    let vit_config = ViTConfig::vit_b16_scaled(32, 3, 10);
    let training = TrainingConfig {
        epochs: 2,
        batch_size: 10,
        learning_rate: 0.02,
        momentum: 0.9,
    };
    let eval = dataset.test_subset(40);

    println!(
        "federation: 3 honest clients + 1 backdoor client (trigger: {}×{} patch → class {})\n",
        trigger.size, trigger.size, trigger.target_class
    );

    for (name, rule) in [
        ("FedAvg (no defense)", AggregationRule::FedAvg),
        (
            "norm clipping, max L2 = 1.0",
            AggregationRule::NormClipping { max_norm: 1.0 },
        ),
        (
            "trimmed mean, trim 1",
            AggregationRule::TrimmedMean { trim: 1 },
        ),
    ] {
        let init = VisionTransformer::new(vit_config.clone(), &mut seeds.derive("init"))?;
        let broadcast = GlobalModel {
            round: 0,
            parameters: export_parameters(&init),
        };

        let mut honest: Vec<FlClient> = shards[..3]
            .iter()
            .cloned()
            .enumerate()
            .map(|(id, shard)| {
                let model = VisionTransformer::new(
                    vit_config.clone(),
                    &mut seeds.derive(&format!("honest{id}-{name}")),
                )
                .expect("valid config");
                FlClient::new(id, shard, Box::new(model), training.clone())
            })
            .collect();
        let mut attacker = BackdoorClient::new(
            3,
            shards[3].clone(),
            Box::new(VisionTransformer::new(
                vit_config.clone(),
                &mut seeds.derive(&format!("attacker-{name}")),
            )?),
            training.clone(),
            trigger,
            0.8, // poison 80% of the local shard
            5,   // boost the update's FedAvg weight five-fold
        )?;

        let mut updates = Vec::new();
        for client in &mut honest {
            let (update, _) = client.local_round(&broadcast)?;
            updates.push(update);
        }
        let mut rng = seeds.derive(&format!("poison-{name}"));
        let (poisoned, poisoned_samples) = attacker.poisoned_round(&broadcast, &mut rng)?;
        // The attacker's local model is the update it sends: score its
        // backdoor on the attacker's own clean shard.
        let mut local = VisionTransformer::new(vit_config.clone(), &mut seeds.derive("eval"))?;
        import_parameters(&mut local, &poisoned.parameters)?;
        let shard = &shards[3].dataset;
        let local_backdoor =
            backdoor_success_rate(&local, shard.train_images(), shard.train_labels(), &trigger)?;
        updates.push(poisoned);
        let aggregated = aggregate_with_rule(&broadcast.parameters, 0, updates, rule)?;

        let mut global = VisionTransformer::new(vit_config.clone(), &mut seeds.derive("eval"))?;
        import_parameters(&mut global, &aggregated)?;
        let clean = accuracy(&global, &eval.images, &eval.labels)?;
        let backdoor = backdoor_success_rate(&global, &eval.images, &eval.labels, &trigger)?;
        println!(
            "{name:<30} global clean accuracy {:>6.1}%   backdoor activation {:>6.1}%   (attacker poisoned {} samples, local backdoor {:.0}%)",
            clean * 100.0,
            backdoor * 100.0,
            poisoned_samples,
            local_backdoor * 100.0,
        );
    }

    println!(
        "\nPelta mitigates the *crafting* of adversarial and trigger samples on the client; \
         robust aggregation limits what a poisoned update can do to the global model. The two \
         defenses address complementary steps of the same attack chain (§I, §II)."
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn Error>> {
    run()
}
