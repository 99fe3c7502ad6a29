//! Quickstart: train a small ViT defender, attack it with PGD, then shield it
//! with Pelta and attack it again.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::error::Error;
use std::sync::Arc;

use pelta_attacks::{robust_accuracy, select_correctly_classified, Pgd};
use pelta_core::{ClearWhiteBox, ShieldedWhiteBox};
use pelta_data::{Dataset, DatasetSpec, GeneratorConfig};
use pelta_models::{accuracy, train_classifier, TrainingConfig, ViTConfig, VisionTransformer};
use pelta_tensor::SeedStream;

fn main() -> Result<(), Box<dyn Error>> {
    run()
}

/// The example body, exposed so `tests/examples_smoke.rs` can drive the
/// exact flow `cargo run --example quickstart` executes.
pub fn run() -> Result<(), Box<dyn Error>> {
    let mut seeds = SeedStream::new(42);

    // 1. A synthetic CIFAR-10-like dataset (see DESIGN.md for the
    //    substitution argument).
    let dataset = Dataset::generate(
        DatasetSpec::Cifar10Like,
        &GeneratorConfig {
            train_samples: 64,
            test_samples: 48,
            ..GeneratorConfig::default()
        },
        7,
    );

    // 2. Train a scaled ViT-B/16 defender.
    let mut vit = VisionTransformer::new(
        ViTConfig::vit_b16_scaled(32, 3, 10),
        &mut seeds.derive("model"),
    )?;
    train_classifier(
        &mut vit,
        dataset.train_images(),
        dataset.train_labels(),
        &TrainingConfig {
            epochs: 3,
            batch_size: 16,
            learning_rate: 0.02,
            momentum: 0.9,
        },
    )?;
    println!(
        "trained ViT-B/16 (scaled): final training accuracy {:.1}%",
        accuracy(&vit, dataset.train_images(), dataset.train_labels())? * 100.0
    );

    // 3. Select correctly classified samples — the attacker's starting pool.
    let model = Arc::new(vit);
    let test = dataset.test_subset(48);
    let (samples, labels) =
        select_correctly_classified(model.as_ref(), &test.images, &test.labels, 8)?;
    println!("attacking {} correctly classified samples", labels.len());

    // 4. White-box PGD against the undefended model.
    let pgd = Pgd::new(0.062, 0.02, 8)?;
    let clear = ClearWhiteBox::new(Arc::clone(&model) as _);
    let mut rng = seeds.derive("attack");
    let clear_outcome = robust_accuracy(&clear, &pgd, &samples, &labels, &mut rng)?;
    println!(
        "without Pelta: robust accuracy {:.1}% (attack success {:.1}%)",
        clear_outcome.robust_accuracy * 100.0,
        clear_outcome.attack_success_rate * 100.0
    );

    // 5. The same attack against the Pelta-shielded model: ∇ₓL is masked in
    //    the enclave, the attacker falls back to upsampling δ_{L+1}.
    let shielded = ShieldedWhiteBox::with_default_enclave(Arc::clone(&model) as _)?;
    let shielded_outcome = robust_accuracy(&shielded, &pgd, &samples, &labels, &mut rng)?;
    println!(
        "with Pelta:    robust accuracy {:.1}% (attack success {:.1}%)",
        shielded_outcome.robust_accuracy * 100.0,
        shielded_outcome.attack_success_rate * 100.0
    );

    // 6. What the defence cost: enclave memory and simulated TEE overhead.
    let shield = shielded.last_shield_report();
    let ledger = shielded.cost_ledger();
    println!(
        "enclave usage: {} bytes shielded per pass, {} world switches, {:.3} ms simulated TEE latency",
        shield.total_bytes(),
        ledger.world_switches,
        ledger.total_ms()
    );
    Ok(())
}
