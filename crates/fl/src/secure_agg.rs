//! Pairwise-masked secure aggregation over shielded segments.
//!
//! ROADMAP open item 2, second half: the root enclave only needs to learn
//! the **sum** of the shielded update segments, never an individual
//! member's values. This module provides the Bonawitz-style pairwise
//! masking that closes the gap. Every pair of roster clients shares a seed
//! derived from the attested Join handshake ([`pelta_tee::pair_seed`]);
//! each round the pair's seed is ratcheted by
//! [`pelta_tee::round_mask_seed`] and expanded into a mask-word stream with
//! the vendored ChaCha8 generator. The lower-id client **adds** the stream
//! to its shielded-segment values, the higher-id client **subtracts** it,
//! so the masks cancel exactly in the aggregate.
//!
//! The stream is expanded 4 KB at a time through `fill_bytes`, which runs
//! the generator's ChaCha kernel a batch of blocks at once (16 lanes under
//! `avx512f`) and yields exactly the words one-at-a-time draws would; the
//! client and the unmasking enclave both expand it this way, once per pair
//! and member.
//!
//! ## The integer mask lattice
//!
//! Masks are applied to the IEEE-754 **bit patterns**, not the float
//! values: `masked = f32::from_bits(v.to_bits().wrapping_add(word))`.
//! Addition mod 2³² is exactly invertible and exactly cancelling over any
//! pair of `+`/`−` applications, whereas float addition is neither. A
//! masked value is therefore an (effectively) uniformly random bit pattern
//! to the normal-world observer, and unmasking inside the aggregator
//! enclave restores the exact original bits — which is what preserves the
//! repo-wide bit-replay contract (see `docs/determinism.md`).
//!
//! ## Dropout and mask reconstruction
//!
//! A mask between two *reporting* clients cancels in the fold. A mask
//! shared with a **dead seat** (a sampled client that crashed, left or
//! missed the straggler deadline) is orphaned: its `+` half was folded but
//! its `−` half never arrived (or vice versa). After the round closes, the
//! server broadcasts a [`crate::Message::MaskShare`] request naming the
//! dead seats; every survivor answers with its pairwise seed for each dead
//! seat, and [`AggregatorMaskContext`] verifies each share against the
//! attested handshake before the enclave cancels the orphaned halves.
//! This reproduction simplifies the full Bonawitz protocol in one honest
//! dimension: shares are whole pair seeds rather than Shamir fragments
//! (threshold t = 1), which matches the paper's honest-but-curious
//! threat model — nobody withholds shares, the adversary only *observes*.

use std::collections::{BTreeMap, BTreeSet};

use pelta_tee::{pair_seed, round_mask_seed};
use pelta_tensor::Tensor;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::{FlError, Result};

/// Mask words expanded per `fill_bytes` call: 4 KB of keystream stays in L1
/// while it is folded into the accumulator, and the count is a whole number
/// of batches at every lane width of the ChaCha kernel (16, 8 or 1 blocks of
/// 16 words), so no call ends on the per-word path.
const MASK_CHUNK_WORDS: usize = 1024;

/// Derives one client's pairwise seed map from the attestation nonces of
/// the whole roster, exactly as the attested Join handshake would: one
/// shared seed per peer, symmetric between the two endpoints.
pub fn pair_seeds_for_client(
    measurement: u64,
    nonces: &BTreeMap<usize, u64>,
    client_id: usize,
) -> BTreeMap<usize, u64> {
    let own = nonces[&client_id];
    nonces
        .iter()
        .filter(|(&peer, _)| peer != client_id)
        .map(|(&peer, &nonce)| (peer, pair_seed(measurement, own, nonce)))
        .collect()
}

/// Accumulates the signed pairwise mask words for one member over its peer
/// seed map: `+stream` for peers above the member's id, `−stream` for peers
/// below (the canonical pair orientation — the *lower* id adds). Both the
/// masking client and the unmasking enclave run this exact loop, which is
/// what makes unmasking a perfect inverse.
///
/// Each pair stream is expanded [`MASK_CHUNK_WORDS`] words at a time
/// through `fill_bytes`, whose little-endian words are exactly those of
/// drawing one `u32` at a time.
pub(crate) fn accumulated_mask(
    member: usize,
    pair_seeds: &BTreeMap<usize, u64>,
    round: usize,
    len: usize,
) -> Vec<u32> {
    let mut acc = vec![0u32; len];
    let mut stream = [0u8; 4 * MASK_CHUNK_WORDS];
    for (&peer, &pair) in pair_seeds {
        if peer == member {
            continue;
        }
        let (lo, hi) = if member < peer {
            (member, peer)
        } else {
            (peer, member)
        };
        let seed = round_mask_seed(pair, round as u64, lo as u64, hi as u64);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for words in acc.chunks_mut(MASK_CHUNK_WORDS) {
            let bytes = &mut stream[..4 * words.len()];
            rng.fill_bytes(bytes);
            let draws = bytes
                .chunks_exact(4)
                .map(|word| u32::from_le_bytes(word.try_into().expect("4-byte chunk")));
            if member == lo {
                for (word, draw) in words.iter_mut().zip(draws) {
                    *word = word.wrapping_add(draw);
                }
            } else {
                for (word, draw) in words.iter_mut().zip(draws) {
                    *word = word.wrapping_sub(draw);
                }
            }
        }
    }
    acc
}

/// Adds accumulated mask words to a tensor's bit patterns in place.
pub(crate) fn mask_tensor_bits(tensor: &mut Tensor, words: &[u32]) {
    for (value, &word) in tensor.data_mut().iter_mut().zip(words) {
        *value = f32::from_bits(value.to_bits().wrapping_add(word));
    }
}

/// Exact inverse of [`mask_tensor_bits`].
pub(crate) fn unmask_tensor_bits(tensor: &mut Tensor, words: &[u32]) {
    for (value, &word) in tensor.data_mut().iter_mut().zip(words) {
        *value = f32::from_bits(value.to_bits().wrapping_sub(word));
    }
}

/// The client half of secure aggregation: the pairwise seeds one client
/// established with every roster peer during the attested Join handshake.
#[derive(Debug, Clone)]
pub struct ClientMaskContext {
    client_id: usize,
    pair_seeds: BTreeMap<usize, u64>,
}

impl ClientMaskContext {
    /// Builds the context from the handshake's pairwise seeds
    /// (`peer id → shared seed`, excluding the client itself).
    pub fn new(client_id: usize, pair_seeds: BTreeMap<usize, u64>) -> Self {
        ClientMaskContext {
            client_id,
            pair_seeds,
        }
    }

    /// The client this context masks for.
    pub fn client_id(&self) -> usize {
        self.client_id
    }

    /// Masks a shielded segment in place for `round`: one accumulated
    /// signed stream over the segment's scalars in canonical order, applied
    /// on the bit lattice **before** the segment is sealed (and thus before
    /// any codec could see it — sealed blobs are never compressed anyway).
    pub fn mask_segment(&self, round: usize, segment: &mut [(String, Tensor)]) {
        let total: usize = segment.iter().map(|(_, t)| t.numel()).sum();
        let acc = accumulated_mask(self.client_id, &self.pair_seeds, round, total);
        let mut offset = 0;
        for (_, tensor) in segment.iter_mut() {
            let len = tensor.numel();
            mask_tensor_bits(tensor, &acc[offset..offset + len]);
            offset += len;
        }
    }

    /// The client's mask-reconstruction shares for the given dead seats:
    /// its own pairwise seed per seat, parallel by index. A seat this
    /// client never paired with yields a zero share, which the aggregator's
    /// verification refuses — honest rosters always pair completely.
    pub fn shares_for(&self, seats: &[usize]) -> Vec<u64> {
        seats
            .iter()
            .map(|seat| self.pair_seeds.get(seat).copied().unwrap_or(0))
            .collect()
    }
}

/// The aggregator half of secure aggregation. The federation server issued
/// every attestation nonce during the Join handshake, so its enclave can
/// re-derive the pairwise seed of any two *live* reporters internally; the
/// seeds shared with **dead** seats must instead arrive as verified
/// [`crate::Message::MaskShare`] responses — the reconstruction protocol is
/// load-bearing, not decorative.
#[derive(Debug, Clone)]
pub struct AggregatorMaskContext {
    measurement: u64,
    nonces: BTreeMap<usize, u64>,
}

impl AggregatorMaskContext {
    /// Builds the context from the attested roster
    /// (`client id → the nonce the server issued to it`).
    pub fn new(measurement: u64, nonces: BTreeMap<usize, u64>) -> Self {
        AggregatorMaskContext {
            measurement,
            nonces,
        }
    }

    /// The full attested roster, ascending.
    pub fn roster(&self) -> Vec<usize> {
        self.nonces.keys().copied().collect()
    }

    /// Verifies one reconstruction share: `seed` must equal the pair seed
    /// the attested handshake produced between `reporter` and `seat`.
    ///
    /// # Errors
    /// Returns an error for an unknown client or a share that does not
    /// match the attested derivation (a tampered or fabricated share).
    pub fn verify_share(&self, reporter: usize, seat: usize, seed: u64) -> Result<()> {
        let expected = pair_seed(
            self.measurement,
            self.nonce_of(reporter)?,
            self.nonce_of(seat)?,
        );
        if seed != expected {
            return Err(FlError::InvalidConfig {
                reason: format!(
                    "mask share from client {reporter} for dead seat {seat} does not \
                     verify against the attested pair seed"
                ),
            });
        }
        Ok(())
    }

    /// Assembles the complete peer seed map for one reporting member:
    /// live-reporter pairs are re-derived from the attested nonces, dead
    /// pairs come from the member's verified reconstruction shares.
    ///
    /// # Errors
    /// Returns an error if a share for a dead seat is missing or fails
    /// verification — without it the member's orphaned mask half cannot be
    /// cancelled and the fold must abort rather than release masked bits.
    pub(crate) fn member_pair_seeds(
        &self,
        member: usize,
        reporters: &BTreeSet<usize>,
        dead: &[usize],
        shares: &BTreeMap<usize, u64>,
    ) -> Result<BTreeMap<usize, u64>> {
        let own = self.nonce_of(member)?;
        let mut seeds = BTreeMap::new();
        for &peer in reporters {
            if peer == member {
                continue;
            }
            seeds.insert(peer, pair_seed(self.measurement, own, self.nonce_of(peer)?));
        }
        for &seat in dead {
            let seed = shares
                .get(&seat)
                .copied()
                .ok_or_else(|| FlError::InvalidConfig {
                    reason: format!(
                        "client {member} delivered no mask share for dead seat {seat}: \
                         the orphaned mask cannot be cancelled"
                    ),
                })?;
            self.verify_share(member, seat, seed)?;
            seeds.insert(seat, seed);
        }
        Ok(seeds)
    }

    fn nonce_of(&self, client: usize) -> Result<u64> {
        self.nonces
            .get(&client)
            .copied()
            .ok_or_else(|| FlError::InvalidConfig {
                reason: format!("client {client} is not in the attested secure-aggregation roster"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: u64 = 0x70e1_7a5e_1fed;

    fn roster_nonces(n: usize) -> BTreeMap<usize, u64> {
        (0..n).map(|id| (id, 0x1000 + id as u64 * 17)).collect()
    }

    fn segment(seed: f32) -> Vec<(String, Tensor)> {
        vec![
            (
                "vit.embed.proj".to_string(),
                Tensor::from_vec(vec![seed, -0.0, f32::MIN_POSITIVE / 2.0, 3.25], &[2, 2]).unwrap(),
            ),
            ("vit.cls.token".to_string(), Tensor::arange(3)),
        ]
    }

    fn segment_bits(segment: &[(String, Tensor)]) -> Vec<u32> {
        segment
            .iter()
            .flat_map(|(_, t)| t.data().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn full_roster_masks_cancel_exactly_on_the_bit_lattice() {
        let nonces = roster_nonces(4);
        let mut clear_sum = vec![0u32; 7];
        let mut masked_sum = vec![0u32; 7];
        for id in 0..4 {
            let seeds = pair_seeds_for_client(M, &nonces, id);
            let context = ClientMaskContext::new(id, seeds);
            let clear = segment(id as f32 + 0.5);
            let mut masked = clear.clone();
            context.mask_segment(3, &mut masked);
            // Individually the masked bits differ from the clear bits…
            assert_ne!(segment_bits(&clear), segment_bits(&masked));
            for (acc, bits) in clear_sum.iter_mut().zip(segment_bits(&clear)) {
                *acc = acc.wrapping_add(bits);
            }
            for (acc, bits) in masked_sum.iter_mut().zip(segment_bits(&masked)) {
                *acc = acc.wrapping_add(bits);
            }
        }
        // …but the mod-2³² lattice sums agree exactly: the masks cancel.
        assert_eq!(clear_sum, masked_sum);
    }

    #[test]
    fn unmasking_is_a_perfect_inverse_per_member() {
        let nonces = roster_nonces(3);
        let aggregator = AggregatorMaskContext::new(M, nonces.clone());
        let reporters: BTreeSet<usize> = (0..3).collect();
        for id in 0..3 {
            let context = ClientMaskContext::new(id, pair_seeds_for_client(M, &nonces, id));
            let clear = segment(1.0 + id as f32);
            let mut masked = clear.clone();
            context.mask_segment(7, &mut masked);
            // The aggregator re-derives the same peer map from the nonces
            // (full participation: no dead seats, no shares needed).
            let seeds = aggregator
                .member_pair_seeds(id, &reporters, &[], &BTreeMap::new())
                .unwrap();
            let total: usize = clear.iter().map(|(_, t)| t.numel()).sum();
            let acc = accumulated_mask(id, &seeds, 7, total);
            let mut offset = 0;
            for (_, tensor) in masked.iter_mut() {
                let len = tensor.numel();
                unmask_tensor_bits(tensor, &acc[offset..offset + len]);
                offset += len;
            }
            assert_eq!(segment_bits(&clear), segment_bits(&masked));
        }
    }

    #[test]
    fn dropout_reconstruction_requires_verified_shares() {
        let nonces = roster_nonces(4);
        let aggregator = AggregatorMaskContext::new(M, nonces.clone());
        assert_eq!(aggregator.roster(), vec![0, 1, 2, 3]);
        // Seat 2 died; reporters are {0, 1, 3}.
        let reporters: BTreeSet<usize> = [0, 1, 3].into_iter().collect();
        let dead = [2usize];
        let member = ClientMaskContext::new(0, pair_seeds_for_client(M, &nonces, 0));
        let shares: BTreeMap<usize, u64> =
            dead.iter().copied().zip(member.shares_for(&dead)).collect();
        // With the member's verified share the peer map covers the dead
        // seat with the true pair seed.
        let seeds = aggregator
            .member_pair_seeds(0, &reporters, &dead, &shares)
            .unwrap();
        assert_eq!(seeds[&2], pair_seed(M, nonces[&0], nonces[&2]));
        assert_eq!(seeds.len(), 3);
        // A missing share aborts; the fold must never release masked bits.
        let err = aggregator.member_pair_seeds(0, &reporters, &dead, &BTreeMap::new());
        assert!(err.is_err());
        // A fabricated share is refused by verification.
        let mut forged = shares.clone();
        forged.insert(2, 0xBAD_5EED);
        assert!(aggregator
            .member_pair_seeds(0, &reporters, &dead, &forged)
            .is_err());
        assert!(aggregator.verify_share(0, 2, shares[&2]).is_ok());
        // Unknown clients are refused outright.
        assert!(aggregator.verify_share(0, 9, 1).is_err());
    }

    /// Pins the mask words across builds: the FNV-1a hash of member 5's
    /// accumulated mask over a 16-seat roster in round 2, at the length of
    /// the `fl_secure` benchmark's shielded segment (66,816 words), as the
    /// scalar one-word-at-a-time generator produced it. The tests above
    /// only check that masks cancel and invert, which a stream that changed
    /// the same way on both sides would still pass.
    #[test]
    fn accumulated_mask_words_are_pinned() {
        let nonces = roster_nonces(16);
        let mask = accumulated_mask(5, &pair_seeds_for_client(M, &nonces, 5), 2, 66_816);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in mask.iter().flat_map(|word| word.to_le_bytes()) {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        assert_eq!(hash, 0xec56_fb9e_b59d_064d);
    }

    #[test]
    fn masked_bits_differ_per_round_and_per_member() {
        let nonces = roster_nonces(2);
        let context = ClientMaskContext::new(0, pair_seeds_for_client(M, &nonces, 0));
        let mut round_a = segment(0.5);
        let mut round_b = segment(0.5);
        context.mask_segment(0, &mut round_a);
        context.mask_segment(1, &mut round_b);
        assert_ne!(segment_bits(&round_a), segment_bits(&round_b));
    }
}
