//! Integration of the backdoor-poisoning client with the federated substrate
//! and the robust aggregation rules — the §I poisoning motivation end to
//! end.

use pelta_data::{federated_split, Dataset, DatasetSpec, GeneratorConfig, Partition};
use pelta_fl::{
    aggregate_with_rule, backdoor_success_rate, export_parameters, import_parameters,
    AggregationRule, BackdoorClient, FlClient, GlobalModel, TrojanTrigger,
};
use pelta_models::{accuracy, TrainingConfig, ViTConfig, VisionTransformer};
use pelta_tensor::SeedStream;

fn setup(
    seed: u64,
) -> (
    Dataset,
    Vec<pelta_data::ClientShard>,
    ViTConfig,
    TrainingConfig,
) {
    let mut seeds = SeedStream::new(seed);
    let dataset = Dataset::generate(
        DatasetSpec::Cifar10Like,
        &GeneratorConfig {
            train_samples: 48,
            test_samples: 30,
            ..GeneratorConfig::default()
        },
        seed,
    );
    let shards = federated_split(&dataset, 4, Partition::Iid, &mut seeds.derive("split"));
    let config = ViTConfig::vit_b16_scaled(32, 3, 10);
    let training = TrainingConfig {
        epochs: 1,
        batch_size: 6,
        learning_rate: 0.02,
        momentum: 0.9,
    };
    (dataset, shards, config, training)
}

/// Runs one federated round with three honest clients and one backdoor
/// client under the given rule; returns (clean accuracy, backdoor rate) of
/// the aggregated global model.
fn one_poisoned_round(seed: u64, rule: AggregationRule) -> (f32, f32) {
    let (dataset, shards, vit_config, training) = setup(seed);
    let mut seeds = SeedStream::new(seed ^ 0xF00D);
    let trigger = TrojanTrigger::new(4, 1.0, 0).unwrap();

    let init = VisionTransformer::new(vit_config.clone(), &mut seeds.derive("init")).unwrap();
    let broadcast = GlobalModel {
        round: 0,
        parameters: export_parameters(&init),
    };

    let mut honest: Vec<FlClient> = shards[..3]
        .iter()
        .cloned()
        .enumerate()
        .map(|(id, shard)| {
            let model =
                VisionTransformer::new(vit_config.clone(), &mut seeds.derive(&format!("h{id}")))
                    .unwrap();
            FlClient::new(id, shard, Box::new(model), training.clone())
        })
        .collect();
    let mut attacker = BackdoorClient::new(
        3,
        shards[3].clone(),
        Box::new(
            VisionTransformer::new(vit_config.clone(), &mut seeds.derive("attacker")).unwrap(),
        ),
        training.clone(),
        trigger,
        0.9,
        6,
    )
    .unwrap();

    let mut updates = Vec::new();
    for client in &mut honest {
        let (update, report) = client.local_round(&broadcast).unwrap();
        assert_eq!(update.round, 0);
        assert!(report.local_accuracy >= 0.0);
        updates.push(update);
    }
    let mut rng = seeds.derive("poison");
    let (poisoned, report) = attacker.poisoned_round(&broadcast, &mut rng).unwrap();
    assert!(report.poisoned_samples > 0);
    updates.push(poisoned);
    let aggregated = aggregate_with_rule(&broadcast.parameters, 0, updates, rule).unwrap();

    let mut global = VisionTransformer::new(vit_config, &mut seeds.derive("eval")).unwrap();
    import_parameters(&mut global, &aggregated).unwrap();
    let eval = dataset.test_subset(30);
    let clean = accuracy(&global, &eval.images, &eval.labels).unwrap();
    let backdoor = backdoor_success_rate(&global, &eval.images, &eval.labels, &trigger).unwrap();
    (clean, backdoor)
}

/// The complete poisoned-federation loop runs under every aggregation rule
/// and produces valid metrics.
#[test]
fn poisoned_federation_round_completes_under_every_rule() {
    for rule in [
        AggregationRule::FedAvg,
        AggregationRule::NormClipping { max_norm: 1.0 },
        AggregationRule::TrimmedMean { trim: 1 },
    ] {
        let (clean, backdoor) = one_poisoned_round(950, rule);
        assert!((0.0..=1.0).contains(&clean));
        assert!((0.0..=1.0).contains(&backdoor));
    }
}

/// Norm clipping bounds the boosted malicious update: the clipped global
/// model stays closer to the honest-only aggregate than the undefended one.
#[test]
fn norm_clipping_limits_the_influence_of_the_boosted_update() {
    let (_, shards, vit_config, training) = setup(951);
    let mut seeds = SeedStream::new(952);
    let trigger = TrojanTrigger::new(4, 1.0, 0).unwrap();
    let init = VisionTransformer::new(vit_config.clone(), &mut seeds.derive("init")).unwrap();
    let init_params = export_parameters(&init);

    // One honest update and one heavily boosted poisoned update.
    let mut honest_client = FlClient::new(
        0,
        shards[0].clone(),
        Box::new(VisionTransformer::new(vit_config.clone(), &mut seeds.derive("h")).unwrap()),
        training.clone(),
    );
    let mut attacker = BackdoorClient::new(
        1,
        shards[1].clone(),
        Box::new(VisionTransformer::new(vit_config.clone(), &mut seeds.derive("a")).unwrap()),
        training,
        trigger,
        1.0,
        20,
    )
    .unwrap();

    let broadcast = GlobalModel {
        round: 0,
        parameters: init_params.clone(),
    };
    let (honest_update, _) = honest_client.local_round(&broadcast).unwrap();
    let mut rng = seeds.derive("poison");
    let (poisoned_update, _) = attacker.poisoned_round(&broadcast, &mut rng).unwrap();
    assert_eq!(poisoned_update.num_samples, shards[1].len() * 20);

    let distance = |params: &[(String, pelta_tensor::Tensor)]| -> f32 {
        params
            .iter()
            .zip(init_params.iter())
            .map(|((_, a), (_, b))| a.sub(b).unwrap().l2_norm().powi(2))
            .sum::<f32>()
            .sqrt()
    };

    let plain = aggregate_with_rule(
        &init_params,
        0,
        vec![honest_update.clone(), poisoned_update.clone()],
        AggregationRule::FedAvg,
    )
    .unwrap();
    let plain_distance = distance(&plain);

    let clipped = aggregate_with_rule(
        &init_params,
        0,
        vec![honest_update, poisoned_update],
        AggregationRule::NormClipping { max_norm: 0.5 },
    )
    .unwrap();
    let clipped_distance = distance(&clipped);

    assert!(
        clipped_distance <= plain_distance + 1e-6,
        "clipping must not move the global model further than plain FedAvg \
         (clipped {clipped_distance}, plain {plain_distance})"
    );
    assert!(
        clipped_distance <= 0.5 + 1e-4,
        "clipped aggregate escaped the norm bound"
    );
}

/// A fully poisoned local model actually carries the backdoor: stamping the
/// trigger flips most predictions to the target class on the local model,
/// which is the signal the attacker ships to the server.
#[test]
fn local_backdoor_training_plants_the_trigger() {
    let (_, shards, vit_config, _) = setup(953);
    let mut seeds = SeedStream::new(954);
    let trigger = TrojanTrigger::new(6, 1.0, 2).unwrap();
    let init = VisionTransformer::new(vit_config.clone(), &mut seeds.derive("init")).unwrap();
    let mut attacker = BackdoorClient::new(
        0,
        shards[0].clone(),
        Box::new(VisionTransformer::new(vit_config, &mut seeds.derive("a")).unwrap()),
        TrainingConfig {
            epochs: 4,
            batch_size: 6,
            learning_rate: 0.05,
            momentum: 0.9,
        },
        trigger,
        1.0,
        1,
    )
    .unwrap();
    let broadcast = GlobalModel {
        round: 0,
        parameters: export_parameters(&init),
    };
    let mut rng = seeds.derive("poison");
    let (_, report) = attacker.poisoned_round(&broadcast, &mut rng).unwrap();
    assert_eq!(report.poisoned_samples, shards[0].len());
    // With every local sample poisoned and several epochs, the local model
    // should activate the backdoor on a clear majority of triggered inputs.
    assert!(
        report.local_backdoor_rate >= 0.5,
        "local backdoor rate {} too low for a fully poisoned shard",
        report.local_backdoor_rate
    );
}
