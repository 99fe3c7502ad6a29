//! # pelta-tee
//!
//! A software-simulated **trusted execution environment** in the style of Arm
//! TrustZone, providing the substrate the Pelta defence runs on.
//!
//! The paper deploys Pelta inside TrustZone enclaves. This reproduction has
//! no TrustZone hardware, so this crate provides the closest synthetic
//! equivalent that exercises the same code paths (see `DESIGN.md` for the
//! substitution argument). An [`Enclave`]:
//!
//! * holds named secure objects (tensors or raw bytes) inside a
//!   **byte-accounted secure memory budget** — TrustZone secure memory is
//!   limited to tens of megabytes, which is precisely why Pelta shields only
//!   the shallowest layers (Table I);
//! * enforces **world separation**: reads from the normal world are denied,
//!   reads from the secure world succeed — this is the mechanism that makes
//!   the shielded gradients physically unavailable to the attacker;
//! * tracks a **cost ledger** of world switches, secure-channel bytes and
//!   sealing operations using a configurable latency model (constants taken
//!   from published SGX/TrustZone measurements), which the §VI system-
//!   implications bench reads back;
//! * supports **sealing** (encrypted export of a byte object, in one
//!   verbatim format: see [`SealedBlob`]) and a stub remote **attestation**
//!   flow, mirroring the WaTZ-style attestation the paper cites for
//!   establishing trust in the deployed enclave.
//!
//! # Example
//!
//! ```rust
//! use pelta_tee::{Enclave, EnclaveConfig, World};
//! use pelta_tensor::Tensor;
//!
//! # fn main() -> Result<(), pelta_tee::TeeError> {
//! let enclave = Enclave::new(EnclaveConfig::trustzone_default());
//! enclave.store_tensor("embedding", Tensor::zeros(&[8, 8]))?;
//! // The secure world can read the value back…
//! assert!(enclave.read_tensor("embedding", World::Secure).is_ok());
//! // …the normal world (the attacker) cannot.
//! assert!(enclave.read_tensor("embedding", World::Normal).is_err());
//! # Ok(())
//! # }
//! ```
//!
//! Sealing, attestation and pairwise mask derivation are deterministic
//! functions of their seeds — the enclave layer's part of the bit-replay
//! contract specified in `docs/determinism.md`.

#![deny(rustdoc::broken_intra_doc_links)]

mod attestation;
mod channel;
mod cost;
mod enclave;
mod error;
mod masking;
mod sealing;

pub use attestation::{verify_report, AttestationReport};
pub use channel::SecureChannel;
pub use cost::{CostLedger, CostModel};
pub use enclave::{Enclave, EnclaveConfig, World};
pub use error::TeeError;
pub use masking::{pair_seed, round_mask_seed};
pub use sealing::SealedBlob;

/// Convenience alias for results returned throughout this crate.
pub type Result<T> = std::result::Result<T, TeeError>;
