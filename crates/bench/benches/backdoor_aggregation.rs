//! Criterion bench behind the backdoor / robust-aggregation study: trigger
//! stamping, poisoned-shard construction, and the three aggregation rules on
//! identical update sets.

use criterion::{criterion_group, criterion_main, Criterion};
use pelta_fl::{aggregate_with_rule, AggregationRule, ModelUpdate, TrojanTrigger};
use pelta_tensor::{SeedStream, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_backdoor_aggregation(c: &mut Criterion) {
    let mut group = c.benchmark_group("backdoor_aggregation");
    group.sample_size(10);

    let mut seeds = SeedStream::new(44);
    let trigger = TrojanTrigger::new(4, 1.0, 0).unwrap();
    let images = Tensor::rand_uniform(&[32, 3, 32, 32], 0.1, 0.9, &mut seeds.derive("x"));
    let labels = vec![1usize; 32];

    group.bench_function("trigger_stamp_batch32", |b| {
        b.iter(|| criterion::black_box(trigger.stamp(&images).unwrap()))
    });
    group.bench_function("poison_half_of_batch32", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            criterion::black_box(trigger.poison(&images, &labels, 0.5, &mut rng).unwrap())
        })
    });

    // Four client updates over a mid-sized parameter vector; one is a
    // boosted outlier.
    let dims = [128usize, 128];
    let initial = vec![("w".to_string(), Tensor::zeros(&dims))];
    let mut updates: Vec<ModelUpdate> = (0..3)
        .map(|i| ModelUpdate {
            client_id: i,
            round: 0,
            num_samples: 16,
            parameters: vec![(
                "w".to_string(),
                Tensor::rand_uniform(&dims, -0.01, 0.01, &mut seeds.derive("honest")),
            )],
        })
        .collect();
    updates.push(ModelUpdate {
        client_id: 3,
        round: 0,
        num_samples: 64,
        parameters: vec![(
            "w".to_string(),
            Tensor::rand_uniform(&dims, -1.0, 1.0, &mut seeds.derive("malicious")),
        )],
    });

    for (name, rule) in [
        ("aggregate_fedavg", AggregationRule::FedAvg),
        (
            "aggregate_norm_clipping",
            AggregationRule::NormClipping { max_norm: 1.0 },
        ),
        (
            "aggregate_trimmed_mean",
            AggregationRule::TrimmedMean { trim: 1 },
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                criterion::black_box(
                    aggregate_with_rule(&initial, 0, updates.clone(), rule).unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_backdoor_aggregation);
criterion_main!(benches);
