//! Pairwise mask-key derivation for secure aggregation.
//!
//! Pelta's aggregator enclave only needs to learn the **sum** of the
//! shielded update segments, never an individual member's values. The
//! federation achieves that with Bonawitz-style pairwise masking: every
//! pair of clients shares a seed, client *i* adds the pair's mask stream to
//! its shielded values and client *j* subtracts it, so the masks cancel
//! exactly in the aggregate.
//!
//! In a real deployment the shared seed would come from a Diffie–Hellman
//! exchange piggybacked on remote attestation. This reproduction models
//! that with [`pair_seed`]: a symmetric keyed hash over the enclave
//! measurement and the two attestation nonces exchanged during the Join
//! handshake. Both endpoints of a pair (and the attestation verifier, which
//! issued the nonces) can derive it; the normal-world network observer —
//! Pelta's honest-but-curious attacker — cannot, because the handshake is
//! carried over the established secure channel.
//!
//! [`round_mask_seed`] then ratchets a pair seed into a per-round stream
//! seed, keyed on `(round, min(i, j), max(i, j))` exactly as the federation
//! protocol requires, so mask streams never repeat across rounds or pairs.
//! The stream itself is expanded by the federation crate
//! (`pelta_fl`'s `secure_agg` module): it seeds the vendored ChaCha8
//! generator with the round seed and draws the stream in 4-KB chunks
//! through `fill_bytes`, which computes a batch of ChaCha blocks per step
//! and yields exactly the generator's one-word-at-a-time stream. This
//! module only owns the deterministic key schedule, which is the part that
//! must agree bit-for-bit between every client enclave and the aggregator.
//! The normative statement of this contract lives in `docs/determinism.md`
//! at the repository root.

/// Derives the shared pairwise mask seed for two attested clients.
///
/// Symmetric in the two nonces: `pair_seed(m, a, b) == pair_seed(m, b, a)`,
/// so the two endpoints of a pair derive the same seed regardless of which
/// side initiated the handshake. The enclave `measurement` keys the hash so
/// that seeds from different trusted-application builds never collide.
pub fn pair_seed(measurement: u64, nonce_a: u64, nonce_b: u64) -> u64 {
    let (lo, hi) = if nonce_a <= nonce_b {
        (nonce_a, nonce_b)
    } else {
        (nonce_b, nonce_a)
    };
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ measurement.rotate_left(29);
    hash = mix(hash ^ lo);
    hash = mix(hash ^ hi.rotate_left(17));
    hash
}

/// Ratchets a [`pair_seed`] into the mask-stream seed for one round.
///
/// Keyed on `(round, min(i, j), max(i, j))`: callers must pass the pair's
/// client ids already ordered (`lo_id < hi_id`), matching the wire
/// protocol's canonical pair orientation — the lower id adds the mask
/// stream, the higher id subtracts it.
pub fn round_mask_seed(pair: u64, round: u64, lo_id: u64, hi_id: u64) -> u64 {
    let mut hash = pair ^ round.rotate_left(41);
    hash = mix(hash ^ lo_id);
    hash = mix(hash ^ hi_id.rotate_left(23));
    hash
}

/// SplitMix64 finaliser — the same avalanche used by the tensor crate's
/// seed derivation and the fault plan's fate mixer.
fn mix(mut v: u64) -> u64 {
    v = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    v = (v ^ (v >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    v = (v ^ (v >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    v ^ (v >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: u64 = 0x70e1_7a5e_1fed;

    #[test]
    fn pair_seed_is_symmetric_in_the_nonces() {
        assert_eq!(pair_seed(M, 11, 42), pair_seed(M, 42, 11));
        assert_eq!(pair_seed(M, 0, 0), pair_seed(M, 0, 0));
    }

    #[test]
    fn pair_seed_separates_pairs_and_measurements() {
        let base = pair_seed(M, 11, 42);
        assert_ne!(base, pair_seed(M, 11, 43));
        assert_ne!(base, pair_seed(M, 12, 42));
        assert_ne!(base, pair_seed(M ^ 1, 11, 42));
        // Swapping which endpoint holds which nonce must NOT change the
        // seed, but genuinely different nonce multisets must.
        assert_ne!(pair_seed(M, 1, 4), pair_seed(M, 2, 3));
    }

    #[test]
    fn round_seed_ratchets_on_every_input() {
        let pair = pair_seed(M, 11, 42);
        let base = round_mask_seed(pair, 3, 1, 4);
        assert_ne!(base, round_mask_seed(pair, 4, 1, 4));
        assert_ne!(base, round_mask_seed(pair, 3, 2, 4));
        assert_ne!(base, round_mask_seed(pair, 3, 1, 5));
        assert_ne!(base, round_mask_seed(pair ^ 1, 3, 1, 4));
        // Deterministic: same inputs, same seed — this is what lets both
        // pair endpoints and the reconstruction path agree exactly.
        assert_eq!(base, round_mask_seed(pair, 3, 1, 4));
    }
}
