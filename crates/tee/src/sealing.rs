//! Sealing: exporting enclave state to untrusted storage under an
//! enclave-bound key.
//!
//! Real TrustZone/SGX sealing encrypts data with a key derived from the
//! enclave measurement so that only the same trusted application can decrypt
//! it. The simulation keeps the *interface* and the *failure modes* (tamper
//! detection, wrong-measurement rejection) while using a keystream cipher and
//! a checksum instead of real cryptography — none of the paper's claims
//! depend on the cipher strength, only on the access-control semantics.
//!
//! There is one sealed format, over byte objects only ([`SealedBlob`]):
//! a tensor leaves an enclave as its binary wire encoding, never as a
//! tensor object, so unsealing reproduces every bit of what was sealed.

use serde::{Deserialize, Serialize};

use crate::{Result, TeeError};

/// Leading magic of every sealed plaintext.
const RAW_MAGIC: &[u8; 4] = b"RAW1";

/// An opaque sealed object that can live in untrusted storage.
///
/// The one sealed format: the plaintext `RAW1 ‖ key_len ‖ key ‖ bytes`
/// (`key_len` a little-endian `u32`) XORed with a measurement-derived
/// keystream, carried beside an FNV-1a checksum of the plaintext. Unsealing
/// returns the key and the bytes verbatim, so the federation's
/// shielded-update channel moves binary-encoded parameter segments between
/// enclaves without any representation change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SealedBlob {
    ciphertext: Vec<u8>,
    checksum: u64,
}

impl SealedBlob {
    /// Seals `bytes` under `key` and the given enclave measurement.
    pub(crate) fn encode(key: &str, bytes: &[u8], measurement: u64) -> SealedBlob {
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

    /// Unseals the blob, returning the original key and the verbatim bytes.
    ///
    /// # Errors
    /// Returns [`TeeError::SealIntegrity`] if the measurement is wrong, the
    /// blob was modified, or its plaintext is not a well-formed payload (a
    /// short header, a wrong magic, a key length past the end, a key that is
    /// not UTF-8).
    pub(crate) fn decode(&self, measurement: u64) -> Result<(String, Vec<u8>)> {
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
/// in one pass over consecutive parts of one plaintext, so sealing needs no
/// plaintext copy and the two dependency chains overlap.
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
    use crate::{Enclave, EnclaveConfig};

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

    /// A blob that seals `plain` verbatim with a valid checksum, whatever
    /// the plaintext holds: the two-pass reference, not [`SealedBlob::encode`].
    fn forged(plain: &[u8], measurement: u64) -> SealedBlob {
        SealedBlob::from_parts(keystream_xor(plain, measurement), checksum(plain))
    }

    /// `RAW1 ‖ key_len ‖ key ‖ body`, with the given key length.
    fn plaintext(magic: &[u8], key_len: u32, key: &[u8], body: &[u8]) -> Vec<u8> {
        let mut plain = magic.to_vec();
        plain.extend_from_slice(&key_len.to_le_bytes());
        plain.extend_from_slice(key);
        plain.extend_from_slice(body);
        plain
    }

    #[test]
    fn wrong_measurement_is_rejected() {
        let blob = SealedBlob::encode("t", &[1, 2, 3], 1);
        assert!(matches!(blob.decode(2), Err(TeeError::SealIntegrity)));
    }

    #[test]
    fn tampering_is_detected() {
        let mut blob = SealedBlob::encode("t", &[1, 2, 3], 7);
        blob.tamper_for_tests();
        assert!(matches!(blob.decode(7), Err(TeeError::SealIntegrity)));
    }

    #[test]
    fn raw_payload_roundtrips_verbatim() {
        let bytes: Vec<u8> = (0u16..=255).map(|b| b as u8).collect();
        let blob = SealedBlob::encode("segment", &bytes, 11);
        let (key, restored) = blob.decode(11).unwrap();
        assert_eq!(key, "segment");
        assert_eq!(restored, bytes);
        // Wrong measurement and tampering are both rejected.
        assert!(matches!(blob.decode(12), Err(TeeError::SealIntegrity)));
        let mut tampered = blob.clone();
        tampered.tamper_for_tests();
        assert!(matches!(tampered.decode(11), Err(TeeError::SealIntegrity)));
    }

    /// The one-pass cipher gives the two-pass reference's ciphertext and
    /// checksum byte for byte, at every payload length up to 300 and at
    /// 64 KB, and unseals what it sealed; a flipped byte anywhere fails.
    #[test]
    fn one_pass_raw_sealing_matches_the_two_pass_reference() {
        let payload: Vec<u8> = (0..65_536u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in (0..=300).chain([65_536]) {
            let bytes = &payload[..len];
            let blob = SealedBlob::encode("seg", bytes, 0x5EA1);
            let plain = plaintext(RAW_MAGIC, 3, b"seg", bytes);
            assert_eq!(blob.ciphertext, keystream_xor(&plain, 0x5EA1), "len {len}");
            assert_eq!(blob.checksum, checksum(&plain), "len {len}");
            let (key, restored) = blob.decode(0x5EA1).unwrap();
            assert_eq!(
                (key.as_str(), restored.as_slice()),
                ("seg", bytes),
                "len {len}"
            );
            for at in [0, 5, 9, blob.len() - 1] {
                let mut tampered = blob.clone();
                tampered.ciphertext[at] ^= 0x01;
                assert!(
                    matches!(tampered.decode(0x5EA1), Err(TeeError::SealIntegrity)),
                    "len {len}, byte {at}"
                );
            }
        }
    }

    /// Pins the sealed format: FNV-1a over one blob's ciphertext followed
    /// by its little-endian checksum. The value was computed with the
    /// two-format sealing module this one replaced, on its raw path.
    #[test]
    fn sealed_format_is_pinned() {
        let payload: Vec<u8> = (0..1000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let blob = SealedBlob::encode("tiny.stem.weight", &payload, 0x70e1_7a5e_1fed);
        let mut sealed = blob.ciphertext().to_vec();
        sealed.extend_from_slice(&blob.checksum_value().to_le_bytes());
        assert_eq!(blob.len(), 1024);
        assert_eq!(checksum(&sealed), 0x6d0f_cf0a_b20e_6fe5);
    }

    /// Blobs whose checksum is valid but whose plaintext is hostile are
    /// refused with `SealIntegrity` by both unseal paths, without a panic:
    /// the checksum cannot catch them, so the parser must.
    #[test]
    fn forged_plaintexts_with_valid_checksums_are_refused() {
        let measurement = EnclaveConfig::trustzone_default().measurement;
        let cases = [
            (
                "key length past the end",
                plaintext(RAW_MAGIC, 64, b"seg", b"ab"),
            ),
            (
                "key length u32::MAX",
                plaintext(RAW_MAGIC, u32::MAX, b"seg", b""),
            ),
            ("wrong magic", plaintext(b"RAW2", 3, b"seg", b"body")),
            (
                "non-UTF-8 key",
                plaintext(RAW_MAGIC, 2, &[0xC3, 0x28], b"body"),
            ),
            ("header cut short", RAW_MAGIC[..3].to_vec()),
            ("empty ciphertext", Vec::new()),
        ];
        let enclave = Enclave::new(EnclaveConfig::trustzone_default());
        for (case, plain) in cases {
            let blob = forged(&plain, measurement);
            assert_eq!(blob.checksum, checksum(&plain), "{case}");
            assert!(
                matches!(enclave.unseal(&blob), Err(TeeError::SealIntegrity)),
                "{case}"
            );
            let folded = enclave.unseal_fold(&[blob], &mut |_, _| Ok(()));
            assert!(matches!(folded, Err(TeeError::SealIntegrity)), "{case}");
        }
        // The same forgery over a well-formed plaintext unseals: the cases
        // above fail on their plaintext, not on the forging.
        let blob = forged(&plaintext(RAW_MAGIC, 3, b"seg", b"body"), measurement);
        assert_eq!(enclave.unseal(&blob).unwrap(), "seg");
        assert_eq!(enclave.object_count(), 1);
    }

    #[test]
    fn wire_parts_reassemble() {
        let blob = SealedBlob::encode("k", &[9, 8, 7], 3);
        let rebuilt = SealedBlob::from_parts(blob.ciphertext().to_vec(), blob.checksum_value());
        assert_eq!(rebuilt, blob);
        assert_eq!(rebuilt.decode(3).unwrap().1, vec![9, 8, 7]);
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let blob = SealedBlob::encode("zeros", &[0; 8], 3);
        // The plaintext contains the key name; the ciphertext must not leak
        // it verbatim.
        let ciphertext_str = String::from_utf8_lossy(&blob.ciphertext);
        assert!(!ciphertext_str.contains("zeros"));
    }
}
