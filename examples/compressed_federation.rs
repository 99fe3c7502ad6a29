//! Update compression on the federation wire: the deterministic codecs.
//!
//! The example first encodes one scaled update frame under every
//! [`UpdateCodec`] and prints the wire bytes next to the compression ratio
//! — `Int8` and `TopK` must cut the frame at least 3× against `Raw` — and
//! shows the codec idempotence that lets aggregators and retransmitting
//! links re-encode a decoded frame byte for byte.
//!
//! It then runs the same 4-client scenario per codec via
//! `ScenarioSpec::with_codec` and replays the `Int8` run to demonstrate the
//! extended determinism contract: a given codec's global model is
//! bit-identical across repeats, because every rounding decision on the
//! wire is a fixed scalar computation.
//!
//! Run with:
//! ```text
//! cargo run --release --example compressed_federation
//! ```

use std::error::Error;

use pelta_data::{Dataset, DatasetSpec, GeneratorConfig};
use pelta_fl::{
    export_parameters, Federation, FederationConfig, Message, ModelUpdate, ParticipationPolicy,
    ScenarioSpec, TransportKind, UpdateCodec,
};
use pelta_models::TrainingConfig;
use pelta_tensor::{SeedStream, Tensor};

/// Every codec the wire supports, with a sparsity budget sized for the
/// demo tensor.
fn codecs() -> [UpdateCodec; 4] {
    [
        UpdateCodec::Raw,
        UpdateCodec::Bf16,
        UpdateCodec::Int8,
        UpdateCodec::TopK { k: 128 },
    ]
}

/// One scaled update frame: a 4096-element gradient-like tensor.
fn demo_update() -> Message {
    let mut rng = SeedStream::new(77).derive("demo");
    Message::Update {
        update: ModelUpdate {
            client_id: 0,
            round: 0,
            num_samples: 16,
            parameters: vec![(
                "demo.weights".to_string(),
                Tensor::rand_uniform(&[4096], -0.25, 0.25, &mut rng),
            )],
        },
        shielded: Vec::new(),
    }
}

/// The shared 4-client scenario, parameterised by codec.
fn scenario(codec: UpdateCodec) -> ScenarioSpec {
    ScenarioSpec::honest(FederationConfig {
        clients: 4,
        rounds: 1,
        local_training: TrainingConfig {
            epochs: 1,
            batch_size: 8,
            learning_rate: 0.02,
            momentum: 0.9,
        },
        eval_samples: 20,
        transport: TransportKind::Serialized,
        policy: ParticipationPolicy {
            quorum: 4,
            sample: 0,
            straggler_deadline: 0,
        },
        ..FederationConfig::default()
    })
    .with_codec(codec)
}

/// The global model's exact parameter bits after one scenario run.
fn run_scenario(dataset: &Dataset, codec: UpdateCodec) -> Result<(f32, Vec<u32>), Box<dyn Error>> {
    let mut seeds = SeedStream::new(4711);
    let mut federation = Federation::vit_scenario(dataset, &scenario(codec), &mut seeds)?;
    let history = federation.run(&mut seeds)?;
    let bits = export_parameters(federation.global_model()?)
        .iter()
        .flat_map(|(_, tensor)| tensor.data().iter().map(|v| v.to_bits()))
        .collect();
    Ok((history.final_accuracy, bits))
}

/// Example body, also driven by `tests/examples_smoke.rs`.
pub fn run() -> Result<(), Box<dyn Error>> {
    // Part 1 — wire sizes: one update frame under every codec.
    let message = demo_update();
    let raw_bytes = message.encode().len();
    println!("update frame: {raw_bytes} bytes raw");
    for codec in codecs() {
        let frame = message.encode_with(codec);
        let ratio = raw_bytes as f64 / frame.len() as f64;
        println!(
            "{:>12}: {:>6} bytes on the wire ({ratio:.1}x)",
            codec.to_string(),
            frame.len(),
        );
        // Idempotence: what a re-encoding hop (an edge aggregator, a
        // retransmitting chaos link) produces is byte-for-byte the frame.
        let decoded = Message::decode(&frame)?;
        assert_eq!(
            decoded.encode_with(codec),
            frame,
            "re-encoding a decoded {codec} frame must reproduce it exactly"
        );
        if matches!(codec, UpdateCodec::Int8 | UpdateCodec::TopK { .. }) {
            assert!(
                frame.len() * 3 <= raw_bytes,
                "{codec} must cut the update frame at least 3x ({} vs {raw_bytes})",
                frame.len()
            );
        }
    }

    // Part 2 — the determinism contract extends into the codec domain.
    let dataset = Dataset::generate(
        DatasetSpec::Cifar10Like,
        &GeneratorConfig {
            train_samples: 40,
            test_samples: 20,
            ..GeneratorConfig::default()
        },
        4711,
    );
    let (raw_accuracy, raw_bits) = run_scenario(&dataset, UpdateCodec::Raw)?;
    println!(
        "raw federation: final accuracy {:.0}%",
        raw_accuracy * 100.0
    );
    let (int8_accuracy, int8_bits) = run_scenario(&dataset, UpdateCodec::Int8)?;
    let (_, int8_replay) = run_scenario(&dataset, UpdateCodec::Int8)?;
    assert_eq!(
        int8_bits, int8_replay,
        "an int8 federation must replay bit-identically"
    );
    assert_ne!(
        raw_bits, int8_bits,
        "int8 quantization error must actually reach the fold"
    );
    println!(
        "int8 federation: final accuracy {:.0}%, replay bit-identical over \
         {} parameters",
        int8_accuracy * 100.0,
        int8_bits.len()
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn Error>> {
    run()
}
