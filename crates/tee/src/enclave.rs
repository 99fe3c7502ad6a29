//! The simulated TrustZone-style enclave: secure storage with a memory
//! budget, world-separation access control and cost accounting.

use std::collections::HashMap;

use parking_lot::Mutex;
use pelta_tensor::Tensor;

use crate::{AttestationReport, CostLedger, CostModel, Result, SealedBlob, TeeError};

/// Which execution world a request originates from.
///
/// Pelta's security argument is exactly this distinction: quantities stored
/// in the enclave are readable from the **secure** world (where the shielded
/// part of the forward/backward pass executes) but not from the **normal**
/// world, where the honest-but-curious attacker probes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum World {
    /// The untrusted rich OS — attacker-observable.
    Normal,
    /// The trusted enclave interior.
    Secure,
}

/// Static configuration of an enclave instance.
#[derive(Debug, Clone, PartialEq)]
pub struct EnclaveConfig {
    /// Human-readable enclave identifier.
    pub id: String,
    /// Secure memory budget in bytes.
    pub memory_budget: usize,
    /// Latency model used for cost accounting.
    pub cost_model: CostModel,
    /// Code measurement reported by attestation (a hash of the trusted
    /// application in a real deployment).
    pub measurement: u64,
}

impl EnclaveConfig {
    /// The default TrustZone-class configuration used throughout the
    /// reproduction: a 30 MB secure memory budget (the upper end of what the
    /// paper reports for TrustZone-enabled devices) and literature-derived
    /// latency constants.
    pub fn trustzone_default() -> Self {
        EnclaveConfig {
            id: "trustzone".to_string(),
            memory_budget: 30 * 1024 * 1024,
            cost_model: CostModel::default(),
            measurement: 0x70e1_7a5e_1fed,
        }
    }

    /// A configuration with a caller-chosen budget (used by tests exercising
    /// the out-of-memory path and by the Table I feasibility check).
    pub fn with_budget(id: &str, memory_budget: usize) -> Self {
        EnclaveConfig {
            id: id.to_string(),
            memory_budget,
            cost_model: CostModel::default(),
            measurement: 0x70e1_7a5e_1fed,
        }
    }
}

struct SecureObject {
    tensor: Option<Tensor>,
    bytes: Vec<u8>,
    size: usize,
}

/// A simulated TEE enclave instance.
///
/// All mutating operations take `&self`: the enclave uses interior
/// mutability so that it can be shared between the defended model (which
/// writes shielded values during the forward pass) and the evaluation
/// harness (which reads the cost ledger), mirroring how a real enclave is a
/// shared hardware resource.
pub struct Enclave {
    config: EnclaveConfig,
    store: Mutex<HashMap<String, SecureObject>>,
    used: Mutex<usize>,
    ledger: Mutex<CostLedger>,
    unseals: Mutex<u64>,
}

impl Enclave {
    /// Creates an enclave with the given configuration.
    pub fn new(config: EnclaveConfig) -> Self {
        Enclave {
            config,
            store: Mutex::new(HashMap::new()),
            used: Mutex::new(0),
            ledger: Mutex::new(CostLedger::default()),
            unseals: Mutex::new(0),
        }
    }

    /// The enclave's configuration.
    pub fn config(&self) -> &EnclaveConfig {
        &self.config
    }

    /// Bytes of secure memory currently in use.
    pub fn used_bytes(&self) -> usize {
        *self.used.lock()
    }

    /// Bytes of secure memory still available.
    pub fn available_bytes(&self) -> usize {
        self.config.memory_budget - self.used_bytes()
    }

    /// Number of stored secure objects.
    pub fn object_count(&self) -> usize {
        self.store.lock().len()
    }

    /// Snapshot of the accumulated cost ledger.
    pub fn ledger(&self) -> CostLedger {
        *self.ledger.lock()
    }

    /// Resets the cost ledger (between benchmark phases).
    pub fn reset_ledger(&self) {
        *self.ledger.lock() = CostLedger::default();
    }

    /// Records a world switch (entering or leaving the enclave). The
    /// shielded forward pass of `pelta-core` calls this when crossing the
    /// shield frontier.
    pub fn record_world_switch(&self) {
        self.ledger
            .lock()
            .record_world_switch(&self.config.cost_model);
    }

    /// Records the transfer of `bytes` bytes over the enclave's secure
    /// channel.
    pub fn record_transfer(&self, bytes: usize) {
        self.ledger
            .lock()
            .record_channel_transfer(bytes, &self.config.cost_model);
    }

    /// Stores a tensor inside the enclave under `key`.
    ///
    /// # Errors
    /// Returns [`TeeError::AlreadyExists`] if the key is taken and
    /// [`TeeError::OutOfSecureMemory`] if the value does not fit in the
    /// budget.
    pub fn store_tensor(&self, key: &str, tensor: Tensor) -> Result<()> {
        let size = tensor.byte_size();
        self.reserve(key, size)?;
        self.store.lock().insert(
            key.to_string(),
            SecureObject {
                tensor: Some(tensor),
                bytes: Vec::new(),
                size,
            },
        );
        Ok(())
    }

    /// Stores raw bytes inside the enclave under `key`.
    ///
    /// # Errors
    /// Returns [`TeeError::AlreadyExists`] if the key is taken and
    /// [`TeeError::OutOfSecureMemory`] if the value does not fit.
    pub fn store_bytes(&self, key: &str, bytes: Vec<u8>) -> Result<()> {
        let size = bytes.len();
        self.reserve(key, size)?;
        self.store.lock().insert(
            key.to_string(),
            SecureObject {
                tensor: None,
                bytes,
                size,
            },
        );
        Ok(())
    }

    /// Reads a tensor back. Only the secure world may read; normal-world
    /// reads are denied — this is the gradient-masking guarantee Pelta
    /// relies on.
    ///
    /// # Errors
    /// Returns [`TeeError::AccessDenied`] for normal-world reads and
    /// [`TeeError::NotFound`] for unknown keys.
    pub fn read_tensor(&self, key: &str, world: World) -> Result<Tensor> {
        if world == World::Normal {
            // The denied access still costs a world switch attempt.
            self.record_world_switch();
            return Err(TeeError::AccessDenied {
                key: key.to_string(),
            });
        }
        let store = self.store.lock();
        let object = store.get(key).ok_or_else(|| TeeError::NotFound {
            key: key.to_string(),
        })?;
        object.tensor.clone().ok_or_else(|| TeeError::NotFound {
            key: key.to_string(),
        })
    }

    /// Reads a raw byte object back. Only the secure world may read;
    /// normal-world reads are denied, exactly as for tensors.
    ///
    /// # Errors
    /// Returns [`TeeError::AccessDenied`] for normal-world reads and
    /// [`TeeError::NotFound`] for unknown keys or tensor-valued objects.
    pub fn read_bytes(&self, key: &str, world: World) -> Result<Vec<u8>> {
        if world == World::Normal {
            self.record_world_switch();
            return Err(TeeError::AccessDenied {
                key: key.to_string(),
            });
        }
        let store = self.store.lock();
        let object = store.get(key).ok_or_else(|| TeeError::NotFound {
            key: key.to_string(),
        })?;
        if object.tensor.is_some() {
            return Err(TeeError::NotFound {
                key: key.to_string(),
            });
        }
        Ok(object.bytes.clone())
    }

    /// Whether an object exists under `key` (existence is not considered
    /// secret; the attacker knows *which* layers are shielded, just not
    /// their values).
    pub fn contains(&self, key: &str) -> bool {
        self.store.lock().contains_key(key)
    }

    /// Keys of all stored objects, sorted (for deterministic reports).
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.store.lock().keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Removes an object, freeing its secure memory.
    ///
    /// # Errors
    /// Returns [`TeeError::NotFound`] for unknown keys.
    pub fn free(&self, key: &str) -> Result<()> {
        let mut store = self.store.lock();
        let object = store.remove(key).ok_or_else(|| TeeError::NotFound {
            key: key.to_string(),
        })?;
        *self.used.lock() -= object.size;
        Ok(())
    }

    /// Removes every stored object (the "flush" the paper mentions as the
    /// best case for enclave memory usage).
    pub fn clear(&self) {
        self.store.lock().clear();
        *self.used.lock() = 0;
    }

    /// Seals a stored **byte** object for export to untrusted storage,
    /// verbatim (see [`SealedBlob`] for the one sealed format), accounting the
    /// sealing cost. The shielded-update channel of the federation uses this
    /// to ship binary-encoded parameter segments between enclaves
    /// losslessly.
    ///
    /// # Errors
    /// Returns [`TeeError::NotFound`] for unknown keys or tensor-valued
    /// objects.
    pub fn seal(&self, key: &str) -> Result<SealedBlob> {
        let store = self.store.lock();
        let object = store.get(key).ok_or_else(|| TeeError::NotFound {
            key: key.to_string(),
        })?;
        if object.tensor.is_some() {
            return Err(TeeError::NotFound {
                key: key.to_string(),
            });
        }
        let blob = SealedBlob::encode(key, &object.bytes, self.config.measurement);
        self.ledger
            .lock()
            .record_seal(object.size, &self.config.cost_model);
        Ok(blob)
    }

    /// Unseals a blob produced by [`Enclave::seal`] on an enclave with the
    /// same measurement, restoring the byte object into secure memory.
    ///
    /// # Errors
    /// Returns [`TeeError::SealIntegrity`] if the blob was tampered with,
    /// sealed by a different measurement or carries a malformed plaintext,
    /// plus the usual storage errors.
    pub fn unseal(&self, blob: &SealedBlob) -> Result<String> {
        let (key, bytes) = blob.decode(self.config.measurement)?;
        *self.unseals.lock() += 1;
        self.ledger
            .lock()
            .record_seal(blob.len(), &self.config.cost_model);
        self.store_bytes(&key, bytes)?;
        Ok(key)
    }

    /// How many times [`Enclave::unseal`] has exposed an **individual**
    /// blob into the keyed secure store.
    ///
    /// Secure aggregation asserts on this counter: a masked federation round
    /// must fold member updates through [`Enclave::unseal_fold`] (which
    /// never materialises a per-member object) and leave this count at zero
    /// on the aggregator's enclave.
    pub fn unseal_count(&self) -> u64 {
        *self.unseals.lock()
    }

    /// Unseals a batch of blobs **transiently**, handing each plaintext
    /// to `visit` without ever storing an individual object in the keyed
    /// secure store.
    ///
    /// This is the secure-aggregation primitive: the visitor folds the
    /// per-member bytes into a running sum inside the enclave, and only the
    /// aggregate ever leaves. Each blob is still accounted as an unsealing
    /// operation in the cost ledger, but none of them increments
    /// [`Enclave::unseal_count`] — the counter tracks individual
    /// exposure, which this path by construction avoids.
    ///
    /// # Errors
    /// Returns [`TeeError::SealIntegrity`] if any blob was tampered with,
    /// sealed by a different measurement or carries a malformed plaintext;
    /// errors from `visit` propagate unchanged and abort the fold.
    pub fn unseal_fold(
        &self,
        blobs: &[SealedBlob],
        visit: &mut dyn FnMut(&str, &[u8]) -> Result<()>,
    ) -> Result<()> {
        for blob in blobs {
            let (key, bytes) = blob.decode(self.config.measurement)?;
            self.ledger
                .lock()
                .record_seal(blob.len(), &self.config.cost_model);
            visit(&key, &bytes)?;
        }
        Ok(())
    }

    /// Produces an attestation report binding the enclave measurement to a
    /// verifier-chosen nonce.
    pub fn attest(&self, nonce: u64) -> AttestationReport {
        self.ledger
            .lock()
            .record_attestation(&self.config.cost_model);
        AttestationReport::new(&self.config.id, self.config.measurement, nonce)
    }

    fn reserve(&self, key: &str, size: usize) -> Result<()> {
        if self.store.lock().contains_key(key) {
            return Err(TeeError::AlreadyExists {
                key: key.to_string(),
            });
        }
        let mut used = self.used.lock();
        let available = self.config.memory_budget - *used;
        if size > available {
            return Err(TeeError::OutOfSecureMemory {
                requested: size,
                available,
                budget: self.config.memory_budget,
            });
        }
        *used += size;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_read_respects_world_separation() {
        let enclave = Enclave::new(EnclaveConfig::trustzone_default());
        enclave.store_tensor("grad", Tensor::ones(&[4, 4])).unwrap();
        assert!(enclave.contains("grad"));
        assert_eq!(enclave.object_count(), 1);
        let secure = enclave.read_tensor("grad", World::Secure).unwrap();
        assert_eq!(secure.dims(), &[4, 4]);
        let denied = enclave.read_tensor("grad", World::Normal);
        assert!(matches!(denied, Err(TeeError::AccessDenied { .. })));
        // The denied attempt was still a world switch.
        assert_eq!(enclave.ledger().world_switches, 1);
    }

    #[test]
    fn memory_budget_is_enforced() {
        let enclave = Enclave::new(EnclaveConfig::with_budget("tiny", 100));
        // 4x4 f32 tensor = 64 bytes: fits.
        enclave.store_tensor("a", Tensor::zeros(&[4, 4])).unwrap();
        assert_eq!(enclave.used_bytes(), 64);
        assert_eq!(enclave.available_bytes(), 36);
        // Another 64 bytes does not fit.
        let err = enclave.store_tensor("b", Tensor::zeros(&[4, 4]));
        assert!(matches!(err, Err(TeeError::OutOfSecureMemory { .. })));
        // Freeing restores the budget.
        enclave.free("a").unwrap();
        assert_eq!(enclave.used_bytes(), 0);
        enclave.store_tensor("b", Tensor::zeros(&[4, 4])).unwrap();
        enclave.clear();
        assert_eq!(enclave.object_count(), 0);
        assert_eq!(enclave.used_bytes(), 0);
    }

    #[test]
    fn duplicate_keys_and_missing_keys_are_errors() {
        let enclave = Enclave::new(EnclaveConfig::trustzone_default());
        enclave.store_bytes("blob", vec![1, 2, 3]).unwrap();
        assert!(matches!(
            enclave.store_bytes("blob", vec![4]),
            Err(TeeError::AlreadyExists { .. })
        ));
        assert!(matches!(
            enclave.read_tensor("missing", World::Secure),
            Err(TeeError::NotFound { .. })
        ));
        assert!(enclave.free("missing").is_err());
        assert_eq!(enclave.keys(), vec!["blob".to_string()]);
    }

    #[test]
    fn seal_unseal_roundtrip_and_tamper_detection() {
        let enclave = Enclave::new(EnclaveConfig::trustzone_default());
        let original = vec![1, 254, 3, 128];
        enclave.store_bytes("weights", original.clone()).unwrap();
        let blob = enclave.seal("weights").unwrap();

        let other = Enclave::new(EnclaveConfig::trustzone_default());
        other.unseal(&blob).unwrap();
        let restored = other.read_bytes("weights", World::Secure).unwrap();
        assert_eq!(restored, original);

        // A tampered blob is rejected.
        let mut tampered = blob.clone();
        tampered.tamper_for_tests();
        assert!(matches!(
            other_unseal(&other, &tampered),
            Err(TeeError::SealIntegrity)
        ));

        // An enclave with a different measurement cannot unseal.
        let mut foreign_cfg = EnclaveConfig::trustzone_default();
        foreign_cfg.measurement = 0xdead_beef;
        let foreign = Enclave::new(foreign_cfg);
        assert!(foreign.unseal(&blob).is_err());
    }

    fn other_unseal(enclave: &Enclave, blob: &SealedBlob) -> Result<String> {
        // Fresh key so AlreadyExists does not mask the integrity error.
        enclave.free("weights").ok();
        enclave.unseal(blob)
    }

    #[test]
    fn raw_seal_unseal_preserves_bytes_and_respects_worlds() {
        let enclave = Enclave::new(EnclaveConfig::trustzone_default());
        let payload: Vec<u8> = vec![0, 255, 1, 254, 127, 128];
        enclave.store_bytes("seg", payload.clone()).unwrap();
        // World separation applies to byte objects too.
        assert!(matches!(
            enclave.read_bytes("seg", World::Normal),
            Err(TeeError::AccessDenied { .. })
        ));
        assert_eq!(enclave.read_bytes("seg", World::Secure).unwrap(), payload);
        // Tensor-valued objects are not visible through the bytes API.
        enclave.store_tensor("t", Tensor::ones(&[2])).unwrap();
        assert!(enclave.read_bytes("t", World::Secure).is_err());
        assert!(enclave.seal("t").is_err());

        let blob = enclave.seal("seg").unwrap();
        let other = Enclave::new(EnclaveConfig::trustzone_default());
        let key = other.unseal(&blob).unwrap();
        assert_eq!(key, "seg");
        assert_eq!(other.read_bytes("seg", World::Secure).unwrap(), payload);
        // A foreign measurement cannot unseal the blob either.
        let mut foreign_cfg = EnclaveConfig::trustzone_default();
        foreign_cfg.measurement = 0x1234;
        let foreign = Enclave::new(foreign_cfg);
        assert!(matches!(
            foreign.unseal(&blob),
            Err(TeeError::SealIntegrity)
        ));
    }

    #[test]
    fn unseal_fold_never_exposes_individual_objects() {
        let sender = Enclave::new(EnclaveConfig::trustzone_default());
        sender.store_bytes("a", vec![1, 2, 3]).unwrap();
        sender.store_bytes("b", vec![4, 5]).unwrap();
        let blobs = vec![sender.seal("a").unwrap(), sender.seal("b").unwrap()];

        let root = Enclave::new(EnclaveConfig::trustzone_default());
        let mut seen: Vec<(String, Vec<u8>)> = Vec::new();
        root.unseal_fold(&blobs, &mut |key, bytes| {
            seen.push((key.to_string(), bytes.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(
            seen,
            vec![
                ("a".to_string(), vec![1, 2, 3]),
                ("b".to_string(), vec![4, 5])
            ]
        );
        // The fold accounted unsealing costs but stored nothing and never
        // counted an individual unseal.
        assert_eq!(root.object_count(), 0);
        assert_eq!(root.unseal_count(), 0);
        assert!(root.ledger().sealed_bytes > 0);

        // The classic path, by contrast, bumps the exposure counter.
        root.unseal(&blobs[0]).unwrap();
        assert_eq!(root.unseal_count(), 1);
        assert_eq!(root.object_count(), 1);

        // Tampering aborts the fold with a seal-integrity error.
        let mut tampered = blobs[1].clone();
        tampered.tamper_for_tests();
        let err = root.unseal_fold(&[tampered], &mut |_, _| Ok(()));
        assert!(matches!(err, Err(TeeError::SealIntegrity)));

        // Visitor errors propagate and abort.
        let err = root.unseal_fold(&blobs, &mut |key, _| {
            Err(TeeError::InvalidConfig {
                reason: format!("reject {key}"),
            })
        });
        assert!(matches!(err, Err(TeeError::InvalidConfig { .. })));
    }

    #[test]
    fn cost_ledger_tracks_interactions() {
        let enclave = Enclave::new(EnclaveConfig::trustzone_default());
        enclave.record_world_switch();
        enclave.record_world_switch();
        enclave.record_transfer(4096);
        let report = enclave.attest(99);
        assert_eq!(report.nonce(), 99);
        let ledger = enclave.ledger();
        assert_eq!(ledger.world_switches, 2);
        assert_eq!(ledger.channel_bytes, 4096);
        assert_eq!(ledger.attestations, 1);
        assert!(ledger.total_ns > 0);
        enclave.reset_ledger();
        assert_eq!(enclave.ledger().world_switches, 0);
    }

    #[test]
    fn table1_scale_shield_fits_trustzone_budget() {
        // The ViT-L/16 + BiT ensemble shield of Table I is ≈ 16 MB; it must
        // fit a 30 MB TrustZone enclave. Emulate with a tensor of that size.
        let enclave = Enclave::new(EnclaveConfig::trustzone_default());
        let four_million_floats = Tensor::zeros(&[4_000_000]);
        assert!(enclave
            .store_tensor("ensemble_shield", four_million_floats)
            .is_ok());
        // But a large model slice (40 MB here, a stand-in for the ~500 MB of
        // a full VGG-16) cannot be shielded in addition, which is the
        // paper's motivation for partial shielding.
        let err = enclave.store_tensor("full_model", Tensor::zeros(&[10_000_000]));
        assert!(matches!(err, Err(TeeError::OutOfSecureMemory { .. })));
    }
}
