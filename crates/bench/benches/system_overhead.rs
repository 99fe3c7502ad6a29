//! Criterion bench behind the **§VI system implications** study: enclave
//! crossings at inference time, the shielded backward probe, sealing and the
//! FedAvg aggregation step.

use criterion::{criterion_group, criterion_main, Criterion};
use pelta_core::{AttackLoss, ClearWhiteBox, GradientOracle, ShieldedWhiteBox};
use pelta_fl::{FedAvgServer, Message, ModelUpdate};
use pelta_models::{ViTConfig, VisionTransformer};
use pelta_tee::{Enclave, EnclaveConfig};
use pelta_tensor::{SeedStream, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn bench_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("system_overhead");
    group.sample_size(10);

    let mut seeds = SeedStream::new(7);
    let vit = Arc::new(
        VisionTransformer::new(
            ViTConfig::vit_b16_scaled(16, 3, 10),
            &mut seeds.derive("vit"),
        )
        .unwrap(),
    );
    let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.1, 0.9, &mut seeds.derive("x"));

    let clear = ClearWhiteBox::new(Arc::clone(&vit) as _);
    group.bench_function("inference_clear", |b| {
        b.iter(|| criterion::black_box(clear.logits(&x).unwrap()))
    });

    let shielded = ShieldedWhiteBox::with_default_enclave(Arc::clone(&vit) as _).unwrap();
    group.bench_function("inference_shielded", |b| {
        b.iter(|| criterion::black_box(shielded.logits(&x).unwrap()))
    });
    group.bench_function("backward_probe_shielded", |b| {
        b.iter(|| criterion::black_box(shielded.probe(&x, &[0], AttackLoss::CrossEntropy).unwrap()))
    });

    group.bench_function("enclave_seal_unseal_1mb", |b| {
        // A sealed segment's round trip, client enclave to root enclave.
        let enclave = Enclave::new(EnclaveConfig::trustzone_default());
        enclave.store_bytes("state", vec![0; 1 << 20]).unwrap();
        let root = Enclave::new(EnclaveConfig::trustzone_default());
        b.iter(|| {
            let blob = enclave.seal("state").unwrap();
            root.unseal(&blob).unwrap();
            root.free("state").unwrap();
            criterion::black_box(blob.len())
        })
    });

    group.bench_function("fedavg_aggregate_two_clients", |b| {
        let params = vec![("w".to_string(), Tensor::zeros(&[64, 64]))];
        b.iter(|| {
            // One protocol round through the state machine — the only
            // aggregation path since the robust rules moved in-protocol.
            let mut server = FedAvgServer::new(params.clone());
            for client_id in 0..2 {
                server.deliver(&Message::Join { client_id });
            }
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            server.begin_round(&mut rng).unwrap();
            for client_id in 0..2 {
                server.deliver(&Message::Update {
                    update: ModelUpdate {
                        client_id,
                        round: 0,
                        num_samples: 8,
                        parameters: params.clone(),
                    },
                    shielded: Vec::new(),
                });
            }
            server.close_round().unwrap();
            criterion::black_box(server.round())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
