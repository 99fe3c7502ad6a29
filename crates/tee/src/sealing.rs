//! Sealing: exporting enclave state to untrusted storage under an
//! enclave-bound key.
//!
//! Real TrustZone/SGX sealing encrypts data with a key derived from the
//! enclave measurement so that only the same trusted application can decrypt
//! it. The simulation keeps the *interface* and the *failure modes* (tamper
//! detection, wrong-measurement rejection) while using a keystream cipher and
//! a checksum instead of real cryptography — none of the paper's claims
//! depend on the cipher strength, only on the access-control semantics.

use pelta_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::{Result, TeeError};

/// Leading magic of raw-bytes payloads, distinguishing them from the JSON
/// tensor payloads at decode time.
const RAW_MAGIC: &[u8; 4] = b"RAW1";

/// An opaque sealed object that can live in untrusted storage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SealedBlob {
    ciphertext: Vec<u8>,
    checksum: u64,
}

impl SealedBlob {
    /// Seals a tensor under the given enclave measurement.
    pub(crate) fn encode_tensor(key: &str, tensor: &Tensor, measurement: u64) -> SealedBlob {
        let payload = Payload {
            key: key.to_string(),
            dims: tensor.dims().to_vec(),
            data: tensor.data().to_vec(),
        };
        Self::encode(&payload, measurement)
    }

    /// Seals raw bytes (stored as a rank-1 byte-valued tensor payload).
    pub(crate) fn encode_bytes(key: &str, bytes: &[u8], measurement: u64) -> SealedBlob {
        let payload = Payload {
            key: key.to_string(),
            dims: vec![bytes.len()],
            data: bytes.iter().map(|&b| b as f32).collect(),
        };
        Self::encode(&payload, measurement)
    }

    fn encode(payload: &Payload, measurement: u64) -> SealedBlob {
        let plain = serde_json::to_vec(payload).expect("payload serialises");
        let mut ciphertext = Vec::with_capacity(plain.len());
        let mut stream = SealStream::new(measurement);
        stream.seal(&plain, &mut ciphertext);
        SealedBlob {
            ciphertext,
            checksum: stream.checksum,
        }
    }

    /// Seals an opaque byte string **verbatim** under the given measurement.
    ///
    /// Unlike [`SealedBlob::encode_bytes`] (which widens each byte to an
    /// `f32` tensor element), this path frames the payload as
    /// `RAW1 ‖ key_len ‖ key ‖ bytes`, so unsealing reproduces the input
    /// bit for bit. The federation's shielded-update channel relies on this
    /// to move binary-encoded parameter segments between enclaves without
    /// any representation change.
    pub(crate) fn encode_raw(key: &str, bytes: &[u8], measurement: u64) -> SealedBlob {
        let key_len = (key.len() as u32).to_le_bytes();
        let mut ciphertext =
            Vec::with_capacity(RAW_MAGIC.len() + key_len.len() + key.len() + bytes.len());
        let mut stream = SealStream::new(measurement);
        for part in [&RAW_MAGIC[..], &key_len, key.as_bytes(), bytes] {
            stream.seal(part, &mut ciphertext);
        }
        SealedBlob {
            ciphertext,
            checksum: stream.checksum,
        }
    }

    /// Unseals a blob produced by [`SealedBlob::encode_raw`], returning the
    /// original key and the verbatim bytes.
    ///
    /// # Errors
    /// Returns [`TeeError::SealIntegrity`] if the measurement is wrong, the
    /// blob was modified, or the blob does not carry a raw payload.
    pub(crate) fn decode_raw(&self, measurement: u64) -> Result<(String, Vec<u8>)> {
        let header_len = RAW_MAGIC.len() + 4;
        if self.ciphertext.len() < header_len {
            return Err(TeeError::SealIntegrity);
        }
        // Header, key and body decrypt into their own buffers in one pass
        // over the ciphertext; a tampered key length still decrypts (and
        // checksums) every byte, so it fails on the checksum like any other
        // modification.
        let (header, rest) = self.ciphertext.split_at(header_len);
        let mut stream = SealStream::new(measurement);
        let mut plain_header = Vec::with_capacity(header_len);
        stream.open(header, &mut plain_header);
        let key_len = u32::from_le_bytes(plain_header[4..].try_into().expect("4-byte length"));
        let (key, body) = rest.split_at((key_len as usize).min(rest.len()));
        let mut plain_key = Vec::with_capacity(key.len());
        stream.open(key, &mut plain_key);
        let mut plain_body = Vec::with_capacity(body.len());
        stream.open(body, &mut plain_body);
        if stream.checksum != self.checksum
            || plain_header[..RAW_MAGIC.len()] != RAW_MAGIC[..]
            || plain_key.len() != key_len as usize
        {
            return Err(TeeError::SealIntegrity);
        }
        let key = String::from_utf8(plain_key).map_err(|_| TeeError::SealIntegrity)?;
        Ok((key, plain_body))
    }

    /// Unseals the blob with the given measurement, returning the original
    /// key and tensor.
    ///
    /// # Errors
    /// Returns [`TeeError::SealIntegrity`] if the measurement is wrong or the
    /// blob was modified.
    pub(crate) fn decode(&self, measurement: u64) -> Result<(String, Tensor)> {
        let mut plain = Vec::with_capacity(self.ciphertext.len());
        let mut stream = SealStream::new(measurement);
        stream.open(&self.ciphertext, &mut plain);
        if stream.checksum != self.checksum {
            return Err(TeeError::SealIntegrity);
        }
        let payload: Payload =
            serde_json::from_slice(&plain).map_err(|_| TeeError::SealIntegrity)?;
        let tensor =
            Tensor::from_vec(payload.data, &payload.dims).map_err(|_| TeeError::SealIntegrity)?;
        Ok((payload.key, tensor))
    }

    /// Size of the sealed ciphertext in bytes.
    pub fn len(&self) -> usize {
        self.ciphertext.len()
    }

    /// Whether the blob is empty (never true for a sealed payload).
    pub fn is_empty(&self) -> bool {
        self.ciphertext.is_empty()
    }

    /// Flips one ciphertext byte — used by tests to verify tamper detection.
    pub fn tamper_for_tests(&mut self) {
        if let Some(byte) = self.ciphertext.get_mut(0) {
            *byte ^= 0xFF;
        }
    }

    /// The opaque ciphertext, for transports that frame sealed blobs into
    /// their own wire format. Possessing the bytes reveals nothing without
    /// the sealing measurement.
    pub fn ciphertext(&self) -> &[u8] {
        &self.ciphertext
    }

    /// The plaintext checksum carried alongside the ciphertext.
    pub fn checksum_value(&self) -> u64 {
        self.checksum
    }

    /// Reassembles a blob from wire parts produced by
    /// [`SealedBlob::ciphertext`] and [`SealedBlob::checksum_value`].
    pub fn from_parts(ciphertext: Vec<u8>, checksum: u64) -> SealedBlob {
        SealedBlob {
            ciphertext,
            checksum,
        }
    }
}

#[derive(Serialize, Deserialize)]
struct Payload {
    key: String,
    dims: Vec<usize>,
    data: Vec<f32>,
}

/// Seed of the sealing keystream, mixed with the measurement.
const KEYSTREAM_SEED: u64 = 0x9E37_79B9_7F4A_7C15;
/// FNV-1a offset basis: the checksum of no bytes.
const CHECKSUM_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One xorshift step of the keystream; its low byte masks one byte.
#[inline(always)]
fn keystream_step(mut state: u64) -> u64 {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    state
}

/// One FNV-1a step of the plaintext checksum.
#[inline(always)]
fn checksum_step(hash: u64, byte: u8) -> u64 {
    (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3)
}

/// The sealing cipher: a measurement-derived xorshift keystream XORed over
/// the plaintext and an FNV-1a checksum of the plaintext, advanced together
/// in one pass over consecutive parts of one plaintext, so the raw path
/// needs no plaintext copy and the two dependency chains overlap.
struct SealStream {
    state: u64,
    checksum: u64,
}

impl SealStream {
    fn new(measurement: u64) -> Self {
        SealStream {
            state: measurement ^ KEYSTREAM_SEED,
            checksum: CHECKSUM_BASIS,
        }
    }

    /// Appends the encryption of the next plaintext part to `out`.
    fn seal(&mut self, plain: &[u8], out: &mut Vec<u8>) {
        let (mut state, mut hash) = (self.state, self.checksum);
        out.extend(plain.iter().map(|&b| {
            state = keystream_step(state);
            hash = checksum_step(hash, b);
            b ^ (state as u8)
        }));
        (self.state, self.checksum) = (state, hash);
    }

    /// Appends the decryption of the next ciphertext part to `out`.
    fn open(&mut self, cipher: &[u8], out: &mut Vec<u8>) {
        let (mut state, mut hash) = (self.state, self.checksum);
        out.extend(cipher.iter().map(|&c| {
            state = keystream_step(state);
            let b = c ^ (state as u8);
            hash = checksum_step(hash, b);
            b
        }));
        (self.state, self.checksum) = (state, hash);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-pass reference of the keystream half of [`SealStream`].
    fn keystream_xor(data: &[u8], measurement: u64) -> Vec<u8> {
        let mut state = measurement ^ KEYSTREAM_SEED;
        data.iter()
            .map(|&b| {
                state = keystream_step(state);
                b ^ (state as u8)
            })
            .collect()
    }

    /// Two-pass reference of the checksum half of [`SealStream`].
    fn checksum(data: &[u8]) -> u64 {
        data.iter()
            .fold(CHECKSUM_BASIS, |hash, &b| checksum_step(hash, b))
    }

    #[test]
    fn roundtrip_preserves_tensor() {
        let tensor = Tensor::from_vec(vec![1.5, -2.25, 0.0, 7.0], &[2, 2]).unwrap();
        let blob = SealedBlob::encode_tensor("weights", &tensor, 42);
        assert!(!blob.is_empty());
        // The ciphertext carries the JSON payload (key, dims and data), so
        // it must exceed the raw tensor bytes alone.
        assert!(blob.len() > 4 * std::mem::size_of::<f32>());
        let (key, restored) = blob.decode(42).unwrap();
        assert_eq!(key, "weights");
        assert_eq!(restored, tensor);
    }

    #[test]
    fn wrong_measurement_is_rejected() {
        let tensor = Tensor::ones(&[3]);
        let blob = SealedBlob::encode_tensor("t", &tensor, 1);
        assert!(matches!(blob.decode(2), Err(TeeError::SealIntegrity)));
    }

    #[test]
    fn tampering_is_detected() {
        let tensor = Tensor::ones(&[3]);
        let mut blob = SealedBlob::encode_tensor("t", &tensor, 7);
        blob.tamper_for_tests();
        assert!(matches!(blob.decode(7), Err(TeeError::SealIntegrity)));
    }

    #[test]
    fn bytes_payload_roundtrips() {
        let blob = SealedBlob::encode_bytes("raw", &[1, 2, 250], 9);
        let (key, tensor) = blob.decode(9).unwrap();
        assert_eq!(key, "raw");
        assert_eq!(tensor.data(), &[1.0, 2.0, 250.0]);
    }

    #[test]
    fn raw_payload_roundtrips_verbatim() {
        let bytes: Vec<u8> = (0u16..=255).map(|b| b as u8).collect();
        let blob = SealedBlob::encode_raw("segment", &bytes, 11);
        let (key, restored) = blob.decode_raw(11).unwrap();
        assert_eq!(key, "segment");
        assert_eq!(restored, bytes);
        // Wrong measurement and tampering are both rejected.
        assert!(matches!(blob.decode_raw(12), Err(TeeError::SealIntegrity)));
        let mut tampered = blob.clone();
        tampered.tamper_for_tests();
        assert!(matches!(
            tampered.decode_raw(11),
            Err(TeeError::SealIntegrity)
        ));
        // A JSON tensor blob is not a raw blob.
        let tensor_blob = SealedBlob::encode_tensor("t", &Tensor::ones(&[2]), 11);
        assert!(matches!(
            tensor_blob.decode_raw(11),
            Err(TeeError::SealIntegrity)
        ));
    }

    /// The one-pass raw cipher gives the two-pass reference's ciphertext
    /// and checksum byte for byte, at every payload length up to 300 and at
    /// 64 KB, and unseals what it sealed; a flipped byte anywhere fails.
    #[test]
    fn one_pass_raw_sealing_matches_the_two_pass_reference() {
        let payload: Vec<u8> = (0..65_536u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in (0..=300).chain([65_536]) {
            let bytes = &payload[..len];
            let blob = SealedBlob::encode_raw("seg", bytes, 0x5EA1);
            let mut plain = RAW_MAGIC.to_vec();
            plain.extend_from_slice(&3u32.to_le_bytes());
            plain.extend_from_slice(b"seg");
            plain.extend_from_slice(bytes);
            assert_eq!(blob.ciphertext, keystream_xor(&plain, 0x5EA1), "len {len}");
            assert_eq!(blob.checksum, checksum(&plain), "len {len}");
            let (key, restored) = blob.decode_raw(0x5EA1).unwrap();
            assert_eq!(
                (key.as_str(), restored.as_slice()),
                ("seg", bytes),
                "len {len}"
            );
            for at in [0, 5, 9, blob.len() - 1] {
                let mut tampered = blob.clone();
                tampered.ciphertext[at] ^= 0x01;
                assert!(
                    matches!(tampered.decode_raw(0x5EA1), Err(TeeError::SealIntegrity)),
                    "len {len}, byte {at}"
                );
            }
        }
    }

    /// The JSON tensor path seals with the same one-pass cipher: its
    /// ciphertext and checksum are the two-pass reference's over the
    /// serialised payload.
    #[test]
    fn json_sealing_matches_the_two_pass_reference() {
        let tensor = Tensor::from_vec(vec![1.5, -2.25, 0.0, 7.0], &[2, 2]).unwrap();
        let blob = SealedBlob::encode_tensor("weights", &tensor, 0x5EA1);
        let plain = serde_json::to_vec(&Payload {
            key: "weights".to_string(),
            dims: vec![2, 2],
            data: tensor.data().to_vec(),
        })
        .unwrap();
        assert_eq!(blob.ciphertext, keystream_xor(&plain, 0x5EA1));
        assert_eq!(blob.checksum, checksum(&plain));
    }

    #[test]
    fn wire_parts_reassemble() {
        let blob = SealedBlob::encode_raw("k", &[9, 8, 7], 3);
        let rebuilt = SealedBlob::from_parts(blob.ciphertext().to_vec(), blob.checksum_value());
        assert_eq!(rebuilt, blob);
        assert_eq!(rebuilt.decode_raw(3).unwrap().1, vec![9, 8, 7]);
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let tensor = Tensor::zeros(&[8]);
        let blob = SealedBlob::encode_tensor("zeros", &tensor, 3);
        // The serialised plaintext contains the key name; the ciphertext must
        // not leak it verbatim.
        let ciphertext_str = String::from_utf8_lossy(&blob.ciphertext);
        assert!(!ciphertext_str.contains("zeros"));
    }
}
