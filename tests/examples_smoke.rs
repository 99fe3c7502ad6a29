//! Smoke tests keeping the runnable examples honest.
//!
//! The examples are the documented entry points to the codebase (the
//! README's tour table links each one to the subsystem it demonstrates);
//! compiling them is not enough to know they still work. Each example
//! exposes its body as `pub fn run()` (called by its own `main`), and these
//! tests include the example source as a module and drive the same entry
//! point, so `cargo test` fails the moment an example rots.

#[path = "../examples/quickstart.rs"]
#[allow(dead_code)]
mod quickstart;

#[path = "../examples/shielded_inference.rs"]
#[allow(dead_code)]
mod shielded_inference;

#[path = "../examples/federated_dropout.rs"]
#[allow(dead_code)]
mod federated_dropout;

#[path = "../examples/robust_federation.rs"]
#[allow(dead_code)]
mod robust_federation;

#[path = "../examples/hierarchical_federation.rs"]
#[allow(dead_code)]
mod hierarchical_federation;

#[path = "../examples/chaos_federation.rs"]
#[allow(dead_code)]
mod chaos_federation;

#[path = "../examples/compressed_federation.rs"]
#[allow(dead_code)]
mod compressed_federation;

#[path = "../examples/secure_aggregation.rs"]
#[allow(dead_code)]
mod secure_aggregation;

#[path = "../examples/backdoor_poisoning.rs"]
#[allow(dead_code)]
mod backdoor_poisoning;

#[test]
fn quickstart_example_runs() {
    quickstart::run().expect("quickstart example should run to completion");
}

#[test]
fn shielded_inference_example_runs() {
    shielded_inference::run().expect("shielded_inference example should run to completion");
}

#[test]
fn federated_dropout_example_runs() {
    federated_dropout::run().expect("federated_dropout example should run to completion");
}

#[test]
fn robust_federation_example_runs() {
    robust_federation::run().expect("robust_federation example should run to completion");
}

#[test]
fn hierarchical_federation_example_runs() {
    hierarchical_federation::run()
        .expect("hierarchical_federation example should run to completion");
}

#[test]
fn chaos_federation_example_runs() {
    chaos_federation::run().expect("chaos_federation example should run to completion");
}

#[test]
fn compressed_federation_example_runs() {
    compressed_federation::run().expect("compressed_federation example should run to completion");
}

#[test]
fn secure_aggregation_example_runs() {
    secure_aggregation::run().expect("secure_aggregation example should run to completion");
}

#[test]
fn backdoor_poisoning_example_runs() {
    backdoor_poisoning::run().expect("backdoor_poisoning example should run to completion");
}
