//! Property-based integration tests of the enclave substrate and the shield's
//! security invariants.
//!
//! Every block pins an explicit RNG seed via `ProptestConfig::with_seed`, so
//! the TEE sealing/attestation properties explore the same cases on every CI
//! run (set the `PROPTEST_SEED` environment variable and drop `.with_seed`
//! locally to explore different ones).

use proptest::prelude::*;
use std::sync::Arc;

use pelta_core::{AttackLoss, GradientOracle, ShieldedWhiteBox};
use pelta_models::{ImageModel, ViTConfig, VisionTransformer};
use pelta_tee::{Enclave, EnclaveConfig, TeeError, World};
use pelta_tensor::{SeedStream, Tensor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16).with_seed(0x7e1a_2023))]

    /// Storing arbitrary tensors never lets the enclave exceed its budget,
    /// and accounting stays exact through interleaved stores and frees.
    #[test]
    fn enclave_accounting_is_exact(sizes in proptest::collection::vec(1usize..200, 1..12)) {
        let budget = 4 * 256; // room for 256 f32 elements
        let enclave = Enclave::new(EnclaveConfig::with_budget("prop", budget));
        let mut expected_used = 0usize;
        for (i, &size) in sizes.iter().enumerate() {
            let bytes = size * 4;
            let result = enclave.store_tensor(&format!("t{i}"), Tensor::zeros(&[size]));
            if expected_used + bytes <= budget {
                prop_assert!(result.is_ok());
                expected_used += bytes;
            } else {
                let is_out_of_memory = matches!(result, Err(TeeError::OutOfSecureMemory { .. }));
                prop_assert!(is_out_of_memory);
            }
            prop_assert_eq!(enclave.used_bytes(), expected_used);
            prop_assert!(enclave.used_bytes() <= budget);
        }
        // Freeing everything returns the budget to zero.
        for key in enclave.keys() {
            enclave.free(&key).unwrap();
        }
        prop_assert_eq!(enclave.used_bytes(), 0);
    }

    /// Sealed blobs only unseal under the sealing measurement, whatever the
    /// payload.
    #[test]
    fn sealing_is_bound_to_the_measurement(
        payload in proptest::collection::vec(0u8..=255, 1..32),
        measurement in 1u64..u64::MAX,
    ) {
        let mut config = EnclaveConfig::trustzone_default();
        config.measurement = measurement;
        let enclave = Enclave::new(config);
        enclave.store_bytes("payload", payload.clone()).unwrap();
        let blob = enclave.seal("payload").unwrap();

        // Same measurement: restores the exact payload.
        let mut same = EnclaveConfig::trustzone_default();
        same.measurement = measurement;
        let same_enclave = Enclave::new(same);
        same_enclave.unseal(&blob).unwrap();
        let restored = same_enclave.read_bytes("payload", World::Secure).unwrap();
        prop_assert_eq!(restored, payload);

        // Different measurement: rejected.
        let mut other = EnclaveConfig::trustzone_default();
        other.measurement = measurement.wrapping_add(1);
        let other_enclave = Enclave::new(other);
        prop_assert!(other_enclave.unseal(&blob).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4).with_seed(0x7e1a_2023))]

    /// Whatever batch the attacker probes with, a shielded oracle never
    /// returns an input gradient and never leaves readable secrets in the
    /// normal world.
    #[test]
    fn shielded_probe_never_leaks_input_gradient(seed in 0u64..1000, batch in 1usize..3) {
        let mut seeds = SeedStream::new(seed);
        let vit = VisionTransformer::new(
            ViTConfig::vit_b16_scaled(8, 3, 4),
            &mut seeds.derive("model"),
        )
        .unwrap();
        let model: Arc<dyn ImageModel> = Arc::new(vit);
        let oracle = ShieldedWhiteBox::with_default_enclave(model).unwrap();
        let images = Tensor::rand_uniform(&[batch, 3, 8, 8], 0.0, 1.0, &mut seeds.derive("x"));
        let labels = vec![0usize; batch];
        let probe = oracle.probe(&images, &labels, AttackLoss::CrossEntropy).unwrap();
        prop_assert!(probe.input_gradient.is_none());
        prop_assert_eq!(probe.logits.dims(), &[batch, 4]);
        for key in oracle.enclave().keys() {
            prop_assert!(oracle.enclave().read_tensor(&key, World::Normal).is_err());
        }
    }
}
