//! The road-sign sticker scenario from the paper's introduction: a
//! compromised FL client crafts an adversarial **patch** against its local
//! replica of the global model, with and without the Pelta shield.
//!
//! Run with:
//! ```text
//! cargo run --release --example patch_attack
//! ```

use std::error::Error;
use std::sync::Arc;

use pelta_attacks::eval::outcome_from_samples;
use pelta_attacks::{select_correctly_classified, AdversarialPatch, EvasionAttack, PatchPlacement};
use pelta_core::{ClearWhiteBox, GradientOracle, ShieldedWhiteBox};
use pelta_data::{Dataset, DatasetSpec, GeneratorConfig};
use pelta_models::{accuracy, train_classifier, TrainingConfig, ViTConfig, VisionTransformer};
use pelta_tensor::SeedStream;

fn main() -> Result<(), Box<dyn Error>> {
    run()
}

/// The example body, exposed so `tests/examples_smoke.rs` can drive the
/// exact flow `cargo run --example patch_attack` executes.
pub fn run() -> Result<(), Box<dyn Error>> {
    let mut seeds = SeedStream::new(11);

    // The collaboratively trained model the compromised client holds: a
    // scaled ViT-B/16 trained on the CIFAR-10-like synthetic dataset.
    let dataset = Dataset::generate(
        DatasetSpec::Cifar10Like,
        &GeneratorConfig {
            train_samples: 64,
            test_samples: 48,
            ..GeneratorConfig::default()
        },
        5,
    );
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
        "defender trained: clean training accuracy {:.1}%",
        accuracy(&vit, dataset.train_images(), dataset.train_labels())? * 100.0
    );

    let model = Arc::new(vit);
    let test = dataset.test_subset(48);
    let (samples, labels) =
        select_correctly_classified(model.as_ref(), &test.images, &test.labels, 8)?;
    println!(
        "crafting a sticker covering ~10% of the image on {} correctly classified samples",
        labels.len()
    );

    // The sticker: ~10% of the image area, optimised for 12 gradient steps.
    let patch = AdversarialPatch::with_placement(0.1, 0.1, 12, PatchPlacement::Center)?;

    for shielded in [false, true] {
        let oracle: Box<dyn GradientOracle> = if shielded {
            Box::new(ShieldedWhiteBox::with_default_enclave(
                Arc::clone(&model) as _
            )?)
        } else {
            Box::new(ClearWhiteBox::new(Arc::clone(&model) as _))
        };
        let mut rng = seeds.derive(if shielded { "shielded" } else { "clear" });
        let adversarial = patch.run(oracle.as_ref(), &samples, &labels, &mut rng)?;
        let outcome = outcome_from_samples(
            oracle.as_ref(),
            patch.name(),
            &samples,
            &adversarial,
            &labels,
        )?;
        println!(
            "{:<14} robust accuracy {:>6.1}%   sticker success rate {:>6.1}%   mean L2 of the sticker {:.3}",
            if shielded { "with Pelta:" } else { "without Pelta:" },
            outcome.robust_accuracy * 100.0,
            outcome.attack_success_rate * 100.0,
            outcome.mean_l2,
        );
    }

    println!(
        "\nThe sticker is optimised by following ∇ₓL inside the patch region; once Pelta \
         masks the shallow layers the attacker only has the upsampled adjoint to follow, \
         so the sticker loses most of its effect — the same mechanism that defeats the \
         ε-ball attacks of Table III."
    );
    Ok(())
}
