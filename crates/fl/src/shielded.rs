//! Attested shielded-update channels: moving the enclave-resident parameter
//! segments of a model update between client and server without ever
//! exposing them to the normal world.
//!
//! The Pelta shield (Algorithm 1) keeps the parameters of the masked prefix
//! enclave-resident on every client. When such a client reports a federated
//! update, those segments must not travel in plaintext next to the clear
//! suffix — instead they take the path the paper's §VI infrastructure
//! provides:
//!
//! 1. the client's enclave is **attested** (`pelta-tee`'s WaTZ-style flow):
//!    the server issues a nonce, verifies the signed report against the
//!    expected measurement, and only then accepts shielded traffic from the
//!    client;
//! 2. each shielded segment crosses the client's [`SecureChannel`] into its
//!    enclave (byte-accounted world switch + transfer) and leaves it only as
//!    a measurement-bound [`SealedBlob`];
//! 3. the blobs ride inside [`crate::Message::Update`] over the untrusted
//!    transport — possession of the bytes reveals nothing;
//! 4. the server's enclave (same trusted application, same measurement)
//!    opens them. In a **clear shielded** deployment it unseals each blob
//!    individually ([`ShieldedUpdateChannel::open_segments`]) and releases
//!    the tensors to the streaming aggregation fold through an authorised
//!    channel read, again byte-accounted. Under **secure aggregation**
//!    ([`crate::secure_agg`]) it never materialises an individual segment:
//!    [`ShieldedUpdateChannel::fold_masked_segments`] unseals every
//!    member's blobs *transiently* inside the enclave, cancels the pairwise
//!    masks, folds them with the FedAvg accumulate and normalise steps of
//!    [`crate::AggregationFold`] itself, and releases only the
//!    **aggregated** shielded segment.
//!
//! The root's side of this path has one owner, the runtime-private root
//! enclave: the channel plus, under secure aggregation, the roster's mask
//! context and the round's stash of masked blobs. It reassembles each
//! update the runtime hands it by value — moving every clear and opened
//! tensor into place, or stashing the blobs and leaving zero placeholders
//! — before the server's admission judges the update, and folds the stash
//! once the round has closed.
//!
//! The sealing path is **bitwise lossless**: tensors are framed with the
//! binary wire encoding of [`crate::Message`] before sealing, so a shielded
//! federation produces the same global model bits as a clear one — masked
//! or not (the masked fold calls the fold's own arithmetic; see
//! `docs/determinism.md`). The per-round byte accounting
//! ([`ShieldedTransferReport`]) is surfaced by the federation runtime
//! alongside the `ShieldReport` of `pelta-core`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use pelta_models::ImageModel;
use pelta_tee::{
    AttestationReport, CostLedger, Enclave, EnclaveConfig, SealedBlob, SecureChannel, TeeError,
};
use pelta_tensor::Tensor;

use crate::client::split_segments;
use crate::message::{tensor_from_wire_bytes, tensor_to_wire_bytes};
use crate::robust::{accumulate, normalize};
use crate::secure_agg::{accumulated_mask, unmask_tensor_bits, AggregatorMaskContext};
use crate::{FlError, ModelUpdate, Result, RoundSummary};

/// Byte accounting of one shielded segment transfer (client sealing or
/// server opening), mirroring the paper's Table I conventions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShieldedTransferReport {
    /// Number of parameter segments moved.
    pub segments: usize,
    /// Plain tensor bytes that crossed the secure channel.
    pub channel_bytes: usize,
    /// Ciphertext bytes of the sealed blobs on the wire.
    pub sealed_bytes: usize,
}

/// One endpoint (client or server side) of the attested shielded-update
/// path. Both ends run the same trusted application, so they share the
/// enclave measurement — which is exactly what lets blobs sealed on one side
/// unseal on the other, and nowhere else.
pub struct ShieldedUpdateChannel {
    channel: SecureChannel,
}

impl ShieldedUpdateChannel {
    /// Creates an endpoint backed by a fresh TrustZone-class enclave and
    /// establishes its secure channel under `nonce` (the establishment
    /// itself verifies the enclave's report, as in
    /// [`SecureChannel::establish`]).
    ///
    /// # Errors
    /// Returns an error if the channel handshake fails.
    pub fn connect(nonce: u64) -> Result<Self> {
        let enclave = Arc::new(Enclave::new(EnclaveConfig::trustzone_default()));
        let mut channel = SecureChannel::new(enclave);
        channel.establish(nonce).map_err(FlError::from)?;
        Ok(ShieldedUpdateChannel { channel })
    }

    /// Produces an attestation report binding this endpoint's enclave to a
    /// verifier-chosen nonce. The federation server verifies it (via
    /// [`pelta_tee::verify_report`]) before admitting the client's shielded
    /// updates.
    pub fn attest(&self, nonce: u64) -> AttestationReport {
        self.channel.enclave().attest(nonce)
    }

    /// The measurement this endpoint's blobs are sealed under.
    pub fn measurement(&self) -> u64 {
        self.channel.enclave().config().measurement
    }

    /// Snapshot of the enclave's accumulated cost ledger (world switches,
    /// channel bytes, seals, attestations).
    pub fn ledger(&self) -> CostLedger {
        self.channel.enclave().ledger()
    }

    /// The backing enclave.
    pub fn enclave(&self) -> &Arc<Enclave> {
        self.channel.enclave()
    }

    /// Client side: moves each named segment into the enclave over the
    /// secure channel and seals it for transit. The enclave holds one
    /// update's segments at a time (the previous round's are flushed first).
    ///
    /// # Errors
    /// Returns an error if a segment does not fit the enclave budget or the
    /// channel is not established.
    pub fn seal_segments(
        &self,
        segments: &[(String, Tensor)],
    ) -> Result<(Vec<SealedBlob>, ShieldedTransferReport)> {
        self.channel.enclave().clear();
        let mut blobs = Vec::with_capacity(segments.len());
        let mut report = ShieldedTransferReport::default();
        for (name, tensor) in segments {
            let bytes = tensor_to_wire_bytes(tensor);
            report.channel_bytes += bytes.len();
            self.channel
                .send_bytes(name, bytes)
                .map_err(FlError::from)?;
            let blob = self.channel.enclave().seal(name).map_err(FlError::from)?;
            report.sealed_bytes += blob.len();
            report.segments += 1;
            blobs.push(blob);
        }
        Ok((blobs, report))
    }

    /// Server side: unseals each blob into the enclave and releases the
    /// tensor to the aggregation logic through an authorised channel read.
    /// Returns `(name, tensor)` pairs in blob order.
    ///
    /// # Errors
    /// Returns an error if a blob was tampered with, was sealed under a
    /// foreign measurement, or carries malformed tensor bytes.
    pub fn open_segments(
        &self,
        blobs: &[SealedBlob],
    ) -> Result<(Vec<(String, Tensor)>, ShieldedTransferReport)> {
        self.channel.enclave().clear();
        let mut segments = Vec::with_capacity(blobs.len());
        let mut report = ShieldedTransferReport::default();
        for blob in blobs {
            report.sealed_bytes += blob.len();
            let key = self.channel.enclave().unseal(blob).map_err(FlError::from)?;
            let bytes = self
                .channel
                .receive_bytes_authorized(&key)
                .map_err(FlError::from)?;
            report.channel_bytes += bytes.len();
            report.segments += 1;
            segments.push((key, tensor_from_wire_bytes(&bytes)?));
        }
        Ok((segments, report))
    }

    /// How many individual blobs this endpoint's enclave has ever exposed
    /// into its keyed store ([`pelta_tee::Enclave::unseal_count`]).
    /// Secure-aggregation runs assert this stays **zero** on the
    /// aggregator: every member blob must go through
    /// [`ShieldedUpdateChannel::fold_masked_segments`] instead.
    pub fn unseal_count(&self) -> u64 {
        self.channel.enclave().unseal_count()
    }

    /// Server side, secure aggregation: folds every member's
    /// pairwise-masked sealed segments into the aggregated shielded
    /// parameters **without ever opening an individual blob** into the
    /// keyed store ([`pelta_tee::Enclave::unseal_fold`]).
    ///
    /// Inside the enclave, per member in ascending client-id order: decode
    /// each blob transiently, cancel the member's accumulated pairwise mask
    /// (live-pair seeds re-derived from the attested nonces, dead-pair
    /// seeds taken from the member's verified [`crate::Message::MaskShare`]
    /// response in `shares`), then fold it with the two FedAvg steps of
    /// [`crate::AggregationFold`] itself — accumulate `Σᵤ wᵤ·(paramsᵤ − ref)`,
    /// then normalise once by the total weight — so the released aggregate
    /// is **bit-identical** to the clear shielded fold over the same
    /// reporter set by construction, not by a copy of the arithmetic. Only
    /// the aggregate crosses back to the normal world, and it is the one
    /// transfer the cost ledger records.
    ///
    /// `reference` is the shielded segment of the parameters the round
    /// opened with (canonical order); `members` maps each reporting client
    /// to its FedAvg weight and sealed blobs; `dead` lists the seats whose
    /// masks must be reconstructed via `shares` (reporter → seat → seed).
    ///
    /// # Errors
    /// Returns an error if a blob fails seal integrity, a member's
    /// segments do not match the reference schema, or a dead seat's mask
    /// share is missing or fails verification — the fold aborts rather
    /// than release masked bits.
    #[allow(clippy::type_complexity)]
    pub fn fold_masked_segments(
        &self,
        reference: &[(String, Tensor)],
        round: usize,
        members: &BTreeMap<usize, (usize, Vec<SealedBlob>)>,
        masks: &AggregatorMaskContext,
        dead: &[usize],
        shares: &BTreeMap<usize, BTreeMap<usize, u64>>,
    ) -> Result<(Vec<(String, Tensor)>, ShieldedTransferReport)> {
        if members.is_empty() {
            return Err(FlError::InvalidConfig {
                reason: "no masked updates to fold".to_string(),
            });
        }
        self.channel.enclave().clear();
        let reporters: BTreeSet<usize> = members.keys().copied().collect();
        let total_len: usize = reference.iter().map(|(_, t)| t.numel()).sum();
        let total_weight: usize = members.values().map(|(weight, _)| *weight).sum();
        let mut report = ShieldedTransferReport::default();
        let mut sums: Vec<Tensor> = reference
            .iter()
            .map(|(_, tensor)| Tensor::zeros(tensor.dims()))
            .collect();
        let empty_shares = BTreeMap::new();
        for (&member, (weight, blobs)) in members {
            let member_shares = shares.get(&member).unwrap_or(&empty_shares);
            let seeds = masks.member_pair_seeds(member, &reporters, dead, member_shares)?;
            let acc = accumulated_mask(member, &seeds, round, total_len);
            let weight = *weight as f32;
            let mut index = 0usize;
            let mut offset = 0usize;
            // The visitor runs "inside" the enclave: plaintext segments
            // exist only for the duration of one callback and feed the
            // running sums directly. FlErrors are captured and re-raised
            // outside because the enclave API speaks TeeError.
            let mut failure: Option<FlError> = None;
            let fold = self
                .channel
                .enclave()
                .unseal_fold(blobs, &mut |key, bytes| {
                    let step = (|| -> Result<()> {
                        let Some((name, reference)) = reference.get(index) else {
                            return Err(FlError::SchemaMismatch {
                                reason: format!(
                                    "client {member} sent more shielded segments than the \
                                     reference schema has"
                                ),
                            });
                        };
                        if key != name {
                            return Err(FlError::SchemaMismatch {
                                reason: format!(
                                    "client {member} shielded segment '{key}' does not match \
                                     reference '{name}'"
                                ),
                            });
                        }
                        let mut tensor = tensor_from_wire_bytes(bytes)?;
                        if tensor.dims() != reference.dims() {
                            return Err(FlError::SchemaMismatch {
                                reason: format!(
                                    "client {member} shielded segment '{key}' has shape {:?}, \
                                     expected {:?}",
                                    tensor.dims(),
                                    reference.dims()
                                ),
                            });
                        }
                        let len = tensor.numel();
                        unmask_tensor_bits(&mut tensor, &acc[offset..offset + len]);
                        accumulate(&mut sums[index], weight, &tensor, reference)?;
                        offset += len;
                        index += 1;
                        Ok(())
                    })();
                    step.map_err(|error| {
                        let reason = error.to_string();
                        failure = Some(error);
                        TeeError::InvalidConfig { reason }
                    })
                });
            if let Err(tee) = fold {
                return Err(failure.unwrap_or(FlError::Tee(tee)));
            }
            if index != reference.len() {
                return Err(FlError::SchemaMismatch {
                    reason: format!(
                        "client {member} sent {index} shielded segments, expected {}",
                        reference.len()
                    ),
                });
            }
            report.segments += blobs.len();
            report.sealed_bytes += blobs.iter().map(SealedBlob::len).sum::<usize>();
        }
        // The single released value: the aggregated shielded segment,
        // normalised by the streaming FedAvg fold's own step.
        let mut aggregated = Vec::with_capacity(reference.len());
        for ((name, reference), sum) in reference.iter().zip(sums.iter()) {
            let tensor = normalize(reference, total_weight, sum)?;
            report.channel_bytes += tensor_to_wire_bytes(&tensor).len();
            aggregated.push((name.clone(), tensor));
        }
        self.channel.enclave().record_world_switch();
        self.channel.enclave().record_transfer(report.channel_bytes);
        Ok((aggregated, report))
    }
}

/// Reconstruction shares for a masked fold: reporter → dead seat → seed.
pub(crate) type MaskShares = BTreeMap<usize, BTreeMap<usize, u64>>;

/// The masked blobs a secure-aggregation round stashes per member while the
/// state machine folds placeholders: `client id → (FedAvg weight, blobs)`.
type MaskStash = BTreeMap<usize, (usize, Vec<SealedBlob>)>;

/// The root's enclave state, with one owner: the attested channel that
/// opens members' sealed segments and, under secure aggregation, the
/// roster's mask context with the round's [`MaskStash`], which the enclave
/// folds once the state machine has closed the round.
pub(crate) struct RootEnclave {
    channel: ShieldedUpdateChannel,
    masked: Option<(AggregatorMaskContext, MaskStash)>,
}

impl RootEnclave {
    /// The root behind `channel`; `mask_nonces` (the attested roster's
    /// nonces) turns on secure aggregation.
    pub(crate) fn new(
        channel: ShieldedUpdateChannel,
        mask_nonces: Option<BTreeMap<usize, u64>>,
    ) -> Self {
        let masked = mask_nonces.map(|nonces| {
            let context = AggregatorMaskContext::new(channel.measurement(), nonces);
            (context, MaskStash::new())
        });
        RootEnclave { channel, masked }
    }

    /// The root's channel endpoint.
    pub(crate) fn channel(&self) -> &ShieldedUpdateChannel {
        &self.channel
    }

    /// Reassembles an update's sealed segments into its parameter list in
    /// the canonical order of `schema`, moving each tensor (the first of
    /// each name, clear segment first), and returns the sealed bytes.
    ///
    /// Under secure aggregation the blobs are **not** opened: they are
    /// stashed first-wins for the post-round enclave fold, whatever
    /// admission then makes of the update, and the state machine gets
    /// finite zero placeholders for the names the clear segment lacks —
    /// FedAvg folds every parameter independently, so the clear parameters
    /// come out bit-identical, and [`crate::FedAvgServer::splice_parameters`]
    /// overwrites the placeholders after the fold.
    ///
    /// # Errors
    /// Returns an error if a blob fails to open or the opened and clear
    /// segments do not complete the schema; the update is then refused, and
    /// its parameter list is spent.
    pub(crate) fn reassemble(
        &mut self,
        schema: &[(String, Tensor)],
        update: &mut ModelUpdate,
        shielded: Vec<SealedBlob>,
    ) -> Result<usize> {
        let (mut opened, sealed_bytes) = match &mut self.masked {
            Some((_, stash)) => {
                let sealed_bytes = shielded.iter().map(SealedBlob::len).sum();
                stash
                    .entry(update.client_id)
                    .or_insert((update.num_samples, shielded));
                (Vec::new(), sealed_bytes)
            }
            None => {
                let (opened, report) = self.channel.open_segments(&shielded)?;
                (opened, report.sealed_bytes)
            }
        };
        let take = |segment: &mut Vec<(String, Tensor)>, name: &String| {
            let index = segment.iter().position(|(n, _)| n == name)?;
            Some(segment.remove(index))
        };
        let mut clear = std::mem::replace(&mut update.parameters, Vec::with_capacity(schema.len()));
        for (name, reference) in schema {
            let entry = match take(&mut clear, name).or_else(|| take(&mut opened, name)) {
                Some(entry) => entry,
                None if self.masked.is_some() => (name.clone(), Tensor::zeros(reference.dims())),
                None => {
                    return Err(FlError::SchemaMismatch {
                        reason: format!(
                            "client {} update is missing parameter '{name}' in both segments",
                            update.client_id
                        ),
                    })
                }
            };
            update.parameters.push(entry);
        }
        Ok(sealed_bytes)
    }

    /// Secure aggregation, once the state machine has closed the round:
    /// folds the stashed blobs of exactly the round's reporters, at the
    /// weights the state machine folded them with, inside the enclave (no
    /// individual blob is ever opened) against the round-open shielded
    /// segment of `round_open`, and returns the aggregate to splice over the
    /// placeholders. Every roster seat that was not folded left orphaned
    /// masks in the reporters' segments; `shares_for` collects the
    /// reporters' reconstruction shares for those dead seats. The round's
    /// stash is spent. Returns `None` when the deployment does not mask or
    /// the model has no shielded parameters, which leaves nothing to mask,
    /// unseal or splice.
    ///
    /// # Errors
    /// Returns an error if a reporter stashed no blobs, the shares cannot
    /// be collected, or the enclave fold fails.
    pub(crate) fn fold_masked(
        &mut self,
        model: &dyn ImageModel,
        round_open: &[(String, Tensor)],
        summary: &RoundSummary,
        shares_for: impl FnOnce(&[usize]) -> Result<MaskShares>,
    ) -> Result<Option<Vec<(String, Tensor)>>> {
        let Some((masks, stash)) = &mut self.masked else {
            return Ok(None);
        };
        let mut stash = std::mem::take(stash);
        let (reference, _clear) = split_segments(model, round_open.to_vec());
        if reference.is_empty() {
            return Ok(None);
        }
        let mut members = BTreeMap::new();
        for &reporter in &summary.reporters {
            let entry = stash.remove(&reporter).ok_or_else(|| FlError::Wire {
                reason: format!(
                    "reporter {reporter} was folded in round {} without a sealed segment",
                    summary.round
                ),
            })?;
            members.insert(reporter, entry);
        }
        let dead: Vec<usize> = masks
            .roster()
            .into_iter()
            .filter(|id| !members.contains_key(id))
            .collect();
        let shares = if dead.is_empty() {
            BTreeMap::new()
        } else {
            shares_for(&dead)?
        };
        let (folded, _report) = self.channel.fold_masked_segments(
            &reference,
            summary.round,
            &members,
            masks,
            &dead,
            &shares,
        )?;
        Ok(Some(folded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelta_tee::verify_report;

    fn segments() -> Vec<(String, Tensor)> {
        vec![
            (
                "vit.embed.proj".to_string(),
                Tensor::from_vec(vec![1.5, -0.0, f32::MIN_POSITIVE / 2.0, 3.25], &[2, 2]).unwrap(),
            ),
            ("vit.cls.token".to_string(), Tensor::arange(4)),
        ]
    }

    #[test]
    fn attestation_verifies_against_the_shared_measurement() {
        let client = ShieldedUpdateChannel::connect(41).unwrap();
        let report = client.attest(99);
        verify_report(&report, client.measurement(), 99).unwrap();
        // A stale nonce is refused.
        assert!(verify_report(&report, client.measurement(), 100).is_err());
        // Attestations are accounted.
        assert!(client.ledger().attestations >= 1);
    }

    #[test]
    fn segments_travel_sealed_and_bit_exact() {
        let client = ShieldedUpdateChannel::connect(1).unwrap();
        let server = ShieldedUpdateChannel::connect(2).unwrap();
        let original = segments();
        let (blobs, sent) = client.seal_segments(&original).unwrap();
        assert_eq!(sent.segments, 2);
        assert!(sent.channel_bytes > 0);
        assert!(sent.sealed_bytes > 0);
        // The ciphertext does not contain the raw tensor bytes in clear.
        let (opened, received) = server.open_segments(&blobs).unwrap();
        assert_eq!(received.segments, 2);
        assert_eq!(received.channel_bytes, sent.channel_bytes);
        assert_eq!(opened.len(), original.len());
        for ((name_a, tensor_a), (name_b, tensor_b)) in original.iter().zip(&opened) {
            assert_eq!(name_a, name_b);
            assert_eq!(tensor_a.dims(), tensor_b.dims());
            for (a, b) in tensor_a.data().iter().zip(tensor_b.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // Both ledgers accounted the channel crossings.
        assert!(client.ledger().channel_bytes >= sent.channel_bytes as u64);
        assert!(server.ledger().channel_bytes >= received.channel_bytes as u64);
    }

    #[test]
    fn tampered_blobs_are_rejected() {
        let client = ShieldedUpdateChannel::connect(3).unwrap();
        let server = ShieldedUpdateChannel::connect(4).unwrap();
        let (mut blobs, _) = client.seal_segments(&segments()).unwrap();
        blobs[0].tamper_for_tests();
        assert!(matches!(server.open_segments(&blobs), Err(FlError::Tee(_))));
    }

    #[test]
    fn masked_fold_matches_the_clear_fold_bit_for_bit() {
        use crate::secure_agg::{pair_seeds_for_client, ClientMaskContext};
        use crate::{aggregate_with_rule, AggregationRule, ModelUpdate};

        let server = ShieldedUpdateChannel::connect(0).unwrap();
        let measurement = server.measurement();
        let nonces: BTreeMap<usize, u64> = (0..3).map(|id| (id, 0x40 + id as u64)).collect();
        let reference = segments();
        let round = 2;

        // Three members train "something" (here: reference + client-specific
        // noise), mask, and seal. Weights differ to exercise the weighted fold.
        let weights = [7usize, 10, 5];
        let mut members: BTreeMap<usize, (usize, Vec<SealedBlob>)> = BTreeMap::new();
        let mut clear_updates = Vec::new();
        for (id, &weight) in weights.iter().enumerate() {
            let clear: Vec<(String, Tensor)> = reference
                .iter()
                .map(|(name, t)| {
                    let bump = Tensor::from_vec(
                        t.data()
                            .iter()
                            .map(|v| v + 0.25 * (id as f32 + 1.0))
                            .collect(),
                        t.dims(),
                    )
                    .unwrap();
                    (name.clone(), bump)
                })
                .collect();
            clear_updates.push(ModelUpdate {
                client_id: id,
                round,
                num_samples: weight,
                parameters: clear.clone(),
            });
            let mut masked = clear;
            let context =
                ClientMaskContext::new(id, pair_seeds_for_client(measurement, &nonces, id));
            context.mask_segment(round, &mut masked);
            let client = ShieldedUpdateChannel::connect(10 + id as u64).unwrap();
            let (blobs, _) = client.seal_segments(&masked).unwrap();
            members.insert(id, (weights[id], blobs));
        }

        // The clear fold over the same update set, same order, same weights.
        let expected =
            aggregate_with_rule(&reference, round, clear_updates, AggregationRule::FedAvg).unwrap();

        let masks = AggregatorMaskContext::new(measurement, nonces);
        let (folded, report) = server
            .fold_masked_segments(&reference, round, &members, &masks, &[], &BTreeMap::new())
            .unwrap();
        assert_eq!(report.segments, 6);
        assert!(report.sealed_bytes > 0);
        assert!(report.channel_bytes > 0);
        let bits = |params: &[(String, Tensor)]| -> Vec<(String, Vec<u32>)> {
            params
                .iter()
                .map(|(n, t)| (n.clone(), t.data().iter().map(|v| v.to_bits()).collect()))
                .collect()
        };
        assert_eq!(bits(&expected), bits(&folded));
        // The acceptance hook: no individual blob was ever unsealed alone.
        assert_eq!(server.unseal_count(), 0);

        // A member with a tampered blob aborts the fold.
        let (_, (_, blobs)) = members.iter_mut().next().unwrap();
        blobs[0].tamper_for_tests();
        assert!(server
            .fold_masked_segments(&reference, round, &members, &masks, &[], &BTreeMap::new())
            .is_err());
        // An empty member set is refused.
        assert!(server
            .fold_masked_segments(
                &reference,
                round,
                &BTreeMap::new(),
                &masks,
                &[],
                &BTreeMap::new()
            )
            .is_err());
    }

    #[test]
    fn normal_world_cannot_read_segments_in_transit() {
        use pelta_tee::World;
        let client = ShieldedUpdateChannel::connect(5).unwrap();
        let (_, _) = client.seal_segments(&segments()).unwrap();
        // The segment sits in the client enclave; a normal-world probe of the
        // staged bytes is denied.
        assert!(client
            .enclave()
            .read_bytes("vit.embed.proj", World::Normal)
            .is_err());
    }
}
