//! Robust aggregation rules — the in-protocol defense layer of the server
//! state machine.
//!
//! The paper's related work (§II) points at defenses "against poisoning,
//! i.e., altering the model's parameters to have it underperform in its
//! primary task or overperform in a secondary task unbeknownst to the server
//! or the nodes". Pelta itself defends the *clients* against evasion-sample
//! crafting; the rules here defend the *server* against the poisoned updates
//! such samples feed.
//!
//! There is exactly **one** fold: [`AggregationFold`], driven through
//! [`AggregationFold::new`], [`AggregationFold::fold`] and
//! [`AggregationFold::finish`]. The message-driven [`crate::FedAvgServer`]
//! feeds it each accepted update as delivery resolves the canonical order
//! (after shielded segments were unsealed and the participation policy
//! selected the reporters). [`aggregate_with_rule`] is the fold's only
//! buffered driver: it sorts an owned update set, folds each update and
//! finishes — the gossip consensus point and call-level analyses use it.
//! The secure-aggregation enclave fold
//! ([`crate::ShieldedUpdateChannel::fold_masked_segments`]) cannot hand
//! sealed blobs to the fold, but it calls the fold's own two FedAvg steps,
//! so its aggregate matches the clear fold's bits by construction.
//!
//! **Canonical fold order.** Before any rule runs, the update set is
//! re-ordered by ascending client id. Floating-point accumulation is not
//! associative, so this is what makes every rule's output a function of the
//! update *set* rather than of arrival order — the in-protocol property
//! tests assert bit-identical aggregates under client permutations, across
//! transports and across `PELTA_THREADS` values.
//!
//! **Codec transparency.** The rules never see wire bytes: when a scenario
//! ships updates through an [`crate::UpdateCodec`], the transport layer has
//! already decoded (dequantized / densified) every payload by the time it
//! reaches the fold, so the rules fold exact `f32` values in the same
//! canonical order whatever the codec. A codec changes *which* values
//! arrive (its quantization error), never *how* they are folded — each
//! codec's aggregate is therefore just as permutation-invariant,
//! transport-invariant and streaming/buffered-identical as `Raw`'s, which
//! `tests/robust_properties.rs` asserts per codec.
//!
//! **Topology invariance.** Since the topology layer, the rules also see
//! the same update set whatever route it travelled: edge aggregators and
//! gossip peers forward member updates with per-client granularity, so the
//! fold at the consensus point is identical for star, hierarchical and
//! gossip federations — and the defenses keep their full-population
//! statistics (a per-subtree trimmed mean would be a weaker, partition-
//! dependent statistic; see [`crate::topology`]). The
//! `tests/topology_equivalence.rs` and `tests/robust_properties.rs` suites
//! pin this down to the bit.
//!
//! # Streaming fold contract
//!
//! Aggregation is an [`AggregationFold`]: updates are folded **one at a
//! time, in canonical ascending-client-id order**, and [`aggregate_with_rule`]
//! drives the same fold over a sorted, owned update set. Which rules
//! stream:
//!
//! * [`AggregationRule::FedAvg`] — **streams**. Each update's weighted delta
//!   `num_samplesᵤ · (paramsᵤ − ref)` is added to a running per-parameter
//!   sum and the payload is dropped immediately; one final normalisation by
//!   the accumulated total weight produces the aggregate. Peak memory is
//!   O(model), independent of the population.
//! * [`AggregationRule::NormClipping`] — **streams**. The clip scale
//!   `min(1, max_norm / ‖δᵤ‖)` depends only on the update itself and the
//!   fixed round reference, so the scaled delta folds incrementally exactly
//!   like FedAvg; the final normalisation divides by the update **count**
//!   (equal weights).
//! * [`AggregationRule::TrimmedMean`] — **buffers** (documented two-pass
//!   design). A per-coordinate order statistic needs every client's value
//!   for that coordinate: pass one collects the round's updates, pass two
//!   sorts each coordinate column and averages the untrimmed interior. Peak
//!   memory is inherently O(population × model); deployments that need
//!   population scale use a streaming rule.
//! * [`AggregationRule::Krum`] / [`AggregationRule::MultiKrum`] — **buffer**
//!   by the same mathematical necessity: the Krum score of one client is a
//!   function of its pairwise distances to *every other* client's update,
//!   so no update can be scored (let alone selected) before the whole round
//!   has arrived. Pass one collects, pass two computes the pairwise
//!   squared-L2 distance matrix, scores and selects.
//!
//! Why the bits are unchanged between the streamed and the buffered path:
//! both are the *same* fold code over the same canonical order — the
//! buffered driver sorts, then moves each update into an
//! [`AggregationFold`] one at a time. Streaming therefore preserves
//! the permutation-invariant-bits contract by construction, and the 1k-seat
//! suites in `tests/robust_properties.rs` and
//! `tests/topology_equivalence.rs` assert streamed ≡ buffered to the bit
//! across transports and `PELTA_THREADS` values.
//!
//! The rules:
//!
//! * [`AggregationRule::FedAvg`] — sample-weighted averaging (McMahan et
//!   al.), no defense; the boosted-weight backdoor walks right in.
//! * [`AggregationRule::NormClipping`] — each client's whole-model *delta*
//!   is clipped to a maximum L2 norm and the clipped deltas are averaged
//!   **equally** (clip-and-average, Sun et al.), bounding the reach of
//!   boosted model-replacement updates on both of the axes the adversary
//!   controls: delta magnitude and the self-reported sample count.
//! * [`AggregationRule::TrimmedMean`] — coordinate-wise trimmed mean (Yin et
//!   al.): per coordinate the `trim` largest and smallest client values are
//!   discarded and the rest averaged **unweighted**, so a lying
//!   `num_samples` buys the adversary nothing.
//! * [`AggregationRule::Krum`] — distance-based selection (Blanchard et
//!   al.): each client is scored by the summed squared L2 distances to its
//!   `n − f − 2` nearest neighbours, and the single lowest-scoring client's
//!   parameters become the next global model **bit-exactly** (no averaging
//!   at all, so nothing the adversary reports — weight or magnitude — mixes
//!   in unless its update sits inside the honest cluster). Requires
//!   `n ≥ 2f + 3`.
//! * [`AggregationRule::MultiKrum`] — the multi-selection variant: the `m`
//!   lowest-scoring clients are selected by the same score and their
//!   parameters averaged **unweighted** in ascending client-id order.
//!   Requires `n ≥ max(2f + 3, m + f + 2)`.
//!
//! **Krum-family determinism.** Distances accumulate per-tensor
//! `‖δ‖₂²` in `f64` in schema order (the same pattern as the clip norm);
//! per-client neighbour lists and the final ranking sort with
//! `f64::total_cmp`; score ties break toward the **lowest client id**
//! (selection ranks by `(score, canonical index)`). Every step is a pure
//! function of the canonical ascending-client-id update set, so selection is
//! permutation-, transport-, topology- and thread-invariant like every other
//! rule — `tests/robust_properties.rs` and `tests/topology_equivalence.rs`
//! pin this to the bit.

use pelta_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::{FlError, ModelUpdate, Result};

/// Which aggregation rule the server applies in its *Aggregating* phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AggregationRule {
    /// Plain sample-weighted federated averaging (no defense).
    FedAvg,
    /// Each client's update *delta* is clipped to a maximum L2 norm and the
    /// clipped deltas are averaged **equally** (clip-and-average, Sun et
    /// al.) — the standard defense against boosted model-replacement
    /// backdoors. Self-reported sample counts are ignored: a malicious
    /// client can inflate `num_samples` just as easily as it can boost its
    /// delta, so a defense that bounds one must not honor the other.
    NormClipping {
        /// Maximum L2 norm of one client's whole-model delta.
        max_norm: f32,
    },
    /// Coordinate-wise trimmed mean: per parameter coordinate, the largest
    /// and smallest `trim` client values are discarded before averaging
    /// (unweighted, as in Yin et al.).
    TrimmedMean {
        /// Number of extreme values trimmed at each end.
        trim: usize,
    },
    /// Krum selection (Blanchard et al.): each client is scored by the sum
    /// of squared L2 distances to its `n − f − 2` nearest neighbours and the
    /// lowest-scoring client's parameters are adopted **bit-exactly** as the
    /// next global model. Tolerates up to `f` Byzantine clients out of
    /// `n ≥ 2f + 3` reporters; self-reported sample counts are ignored.
    Krum {
        /// Number of Byzantine clients the selection must tolerate.
        f: usize,
    },
    /// Multi-Krum (Blanchard et al.): the `m` lowest Krum scores are
    /// selected and their parameters averaged **unweighted** in ascending
    /// client-id order. Requires `n ≥ max(2f + 3, m + f + 2)` reporters.
    MultiKrum {
        /// Number of Byzantine clients the selection must tolerate.
        f: usize,
        /// Number of selected clients to average.
        m: usize,
    },
}

impl AggregationRule {
    /// Validates the rule's own parameters (independent of any update set).
    ///
    /// # Errors
    /// Returns an error for a non-positive or non-finite clipping norm, or a
    /// multi-Krum selection size of zero.
    pub fn validate(&self) -> Result<()> {
        match self {
            AggregationRule::NormClipping { max_norm }
                if *max_norm <= 0.0 || !max_norm.is_finite() =>
            {
                Err(FlError::InvalidConfig {
                    reason: format!("clipping norm must be positive and finite, got {max_norm}"),
                })
            }
            AggregationRule::MultiKrum { m: 0, .. } => Err(FlError::InvalidConfig {
                reason: "multi-krum must select at least one client (m >= 1)".to_string(),
            }),
            _ => Ok(()),
        }
    }

    /// The minimum number of updates this rule can aggregate.
    pub fn min_updates(&self) -> usize {
        match self {
            AggregationRule::TrimmedMean { trim } => 2 * trim + 1,
            // Krum scoring sums the n − f − 2 nearest neighbours and must
            // keep at least f + 1 honest neighbours in every list, which is
            // the classic n ≥ 2f + 3 bound; multi-Krum additionally needs
            // the m selected plus f Byzantine plus 2 to fit.
            AggregationRule::Krum { f } => 2 * f + 3,
            AggregationRule::MultiKrum { f, m } => (2 * f + 3).max(m + f + 2),
            _ => 1,
        }
    }

    /// Whether this rule folds updates incrementally (O(model) peak memory)
    /// or must buffer the round's update set (O(population × model)) — see
    /// the module-level *streaming fold contract*.
    pub fn streams(&self) -> bool {
        !matches!(
            self,
            AggregationRule::TrimmedMean { .. }
                | AggregationRule::Krum { .. }
                | AggregationRule::MultiKrum { .. }
        )
    }
}

/// The buffered driver of the [`AggregationFold`]: sorts one round's update
/// set into the canonical ascending-client-id fold order, moves each update
/// into the fold, and returns the next global parameters.
///
/// # Errors
/// Returns the fold's errors: a degenerate rule, an update that targets a
/// different round, carries zero samples, repeats a client id (twins sort
/// next to each other and break the strictly ascending order), disagrees
/// with the schema or holds non-finite values, an empty set, or a set too
/// small for the rule.
pub fn aggregate_with_rule(
    current: &[(String, Tensor)],
    round: usize,
    mut updates: Vec<ModelUpdate>,
    rule: AggregationRule,
) -> Result<Vec<(String, Tensor)>> {
    // Float accumulation is not associative: sorting here is what makes the
    // aggregate a function of the update set, not of arrival order.
    updates.sort_by_key(|u| u.client_id);
    let mut fold = AggregationFold::new(current, round, rule)?;
    for update in updates {
        fold.fold(update)?;
    }
    fold.finish()
}

/// FedAvg's accumulate step, `sum += weight · (value − reference)` in place,
/// shared by the [`AggregationFold`] and the masked enclave fold so the two
/// cannot drift by a bit. Each element takes the subtract, the multiply and
/// the add in that order, unfused, which fixes the aggregate's bits
/// (`docs/determinism.md` §2).
///
/// # Errors
/// Returns [`FlError::SchemaMismatch`] when the three shapes differ; the
/// element loop would otherwise fold a truncated prefix.
pub(crate) fn accumulate(
    sum: &mut Tensor,
    weight: f32,
    value: &Tensor,
    reference: &Tensor,
) -> Result<()> {
    if sum.dims() != value.dims() || value.dims() != reference.dims() {
        return Err(FlError::SchemaMismatch {
            reason: format!(
                "accumulate over shapes {:?} (sum), {:?} (value) and {:?} (reference)",
                sum.dims(),
                value.dims(),
                reference.dims()
            ),
        });
    }
    for ((s, &v), &r) in sum
        .data_mut()
        .iter_mut()
        .zip(value.data())
        .zip(reference.data())
    {
        *s += weight * (v - r);
    }
    Ok(())
}

/// FedAvg's normalise step, `reference + (1 / total_weight) · sum`, shared
/// like [`accumulate`].
pub(crate) fn normalize(reference: &Tensor, total_weight: usize, sum: &Tensor) -> Result<Tensor> {
    Ok(reference.axpy(1.0 / total_weight as f32, sum)?)
}

/// One round's aggregation as an incremental fold (see the module-level
/// *streaming fold contract*). Updates must arrive in strictly ascending
/// client-id order — the canonical fold order — and under a streaming rule
/// each payload is consumed immediately, keeping peak memory at O(model)
/// regardless of the population. The trimmed mean and the Krum family
/// buffer internally and run their documented second pass at
/// [`AggregationFold::finish`].
pub struct AggregationFold {
    rule: AggregationRule,
    round: usize,
    /// The fixed round reference: deltas, clip norms and the final
    /// normalisation are all anchored to the global parameters the round
    /// opened with.
    reference: Vec<(String, Tensor)>,
    /// Running per-parameter sums `Σᵤ wᵤ · (paramsᵤ − ref)` (streaming
    /// rules only; empty for buffering rules).
    sums: Vec<Tensor>,
    /// The streaming rule's total weight: the sample count under FedAvg,
    /// the update count under norm clipping (equal weights).
    total_weight: usize,
    last_client: Option<usize>,
    /// The collected round for buffering rules (empty for streaming rules).
    buffered: Vec<ModelUpdate>,
}

impl AggregationFold {
    /// Opens a fold over the current global parameters for `round`.
    ///
    /// # Errors
    /// Returns an error if the rule's own parameters are degenerate.
    pub fn new(current: &[(String, Tensor)], round: usize, rule: AggregationRule) -> Result<Self> {
        rule.validate()?;
        let sums = if rule.streams() {
            current
                .iter()
                .map(|(_, tensor)| Tensor::zeros(tensor.dims()))
                .collect()
        } else {
            Vec::new()
        };
        Ok(AggregationFold {
            rule,
            round,
            reference: current.to_vec(),
            sums,
            total_weight: 0,
            last_client: None,
            buffered: Vec::new(),
        })
    }

    /// Folds one update, consuming it. Under a streaming rule the payload is
    /// dropped before this returns; under a buffering rule it is retained
    /// until [`AggregationFold::finish`].
    ///
    /// # Errors
    /// Returns an error if the update breaks the strictly ascending
    /// client-id fold order (a repeated id included), targets a different
    /// round, or fails schema validation.
    pub fn fold(&mut self, update: ModelUpdate) -> Result<()> {
        self.admit(&update)?;
        let (weight, scale) = match self.rule {
            AggregationRule::FedAvg => (update.num_samples, update.num_samples as f32),
            AggregationRule::NormClipping { max_norm } => {
                // The clip scale depends only on this update and the fixed
                // round reference, so it is computable without the rest of
                // the round; the equal weights of clip-and-average become
                // the single 1/count normalisation at finish.
                let norm = sq_distance(&update.parameters, &self.reference)?.sqrt() as f32;
                let scale = if norm > max_norm {
                    max_norm / norm
                } else {
                    1.0
                };
                (1, scale)
            }
            AggregationRule::TrimmedMean { .. }
            | AggregationRule::Krum { .. }
            | AggregationRule::MultiKrum { .. } => {
                self.buffered.push(update);
                return Ok(());
            }
        };
        self.total_weight += weight;
        for ((sum, (_, reference)), (_, value)) in self
            .sums
            .iter_mut()
            .zip(&self.reference)
            .zip(&update.parameters)
        {
            accumulate(sum, scale, value, reference)?;
        }
        Ok(())
    }

    /// Admission: strictly ascending client ids (which also subsumes
    /// duplicate detection), the round match, and the schema / finiteness
    /// validation every folded update must pass.
    fn admit(&mut self, update: &ModelUpdate) -> Result<()> {
        if let Some(last) = self.last_client {
            if update.client_id <= last {
                return Err(FlError::InvalidConfig {
                    reason: format!(
                        "update from client {} folds after client {last}: the canonical \
                         fold order is strictly ascending client id",
                        update.client_id
                    ),
                });
            }
        }
        if update.round != self.round {
            return Err(FlError::SchemaMismatch {
                reason: format!(
                    "update from client {} targets round {}, the fold is at round {}",
                    update.client_id, update.round, self.round
                ),
            });
        }
        validate_update_schema(&self.reference, update)?;
        self.last_client = Some(update.client_id);
        Ok(())
    }

    /// Closes the fold and returns the next global parameters.
    ///
    /// # Errors
    /// Returns an error if no update was folded or the round is too small
    /// for the rule (a trimmed mean that would discard every client, a
    /// Krum population below its bound).
    pub fn finish(self) -> Result<Vec<(String, Tensor)>> {
        if self.last_client.is_none() {
            return Err(FlError::InvalidConfig {
                reason: "no client updates to aggregate".to_string(),
            });
        }
        // A streaming rule needs one update; a buffering rule's second pass
        // needs its own minimum (an untrimmed interior, a Krum neighbourhood).
        let needed = self.rule.min_updates();
        if !self.rule.streams() && self.buffered.len() < needed {
            return Err(FlError::InvalidConfig {
                reason: format!(
                    "rule {:?} needs at least {needed} updates, got {}",
                    self.rule,
                    self.buffered.len()
                ),
            });
        }
        match self.rule {
            AggregationRule::FedAvg | AggregationRule::NormClipping { .. } => self
                .reference
                .iter()
                .zip(&self.sums)
                .map(|((name, reference), sum)| {
                    Ok((name.clone(), normalize(reference, self.total_weight, sum)?))
                })
                .collect(),
            AggregationRule::TrimmedMean { trim } => {
                trimmed_mean(&self.reference, &self.buffered, trim)
            }
            AggregationRule::Krum { f } => {
                let winners = krum_winners(&self.buffered, f, 1)?;
                // Krum adopts the winner bit-exactly: no averaging
                // arithmetic may touch the selected parameters.
                let mut buffered = self.buffered;
                Ok(buffered.swap_remove(winners[0]).parameters)
            }
            AggregationRule::MultiKrum { f, m } => {
                let winners = krum_winners(&self.buffered, f, m)?;
                krum_mean(&self.buffered, &winners)
            }
        }
    }
}

/// Validates one update against the current global schema: a positive
/// sample count (zero samples are invalid under every rule — the protocol
/// Nacks them at delivery, and the call-level path must agree), matching
/// parameter names/shapes, and **finite values**. The wire protocol is
/// deliberately bit-exact for NaN/∞, so finiteness must be enforced here:
/// a NaN coordinate would slip past the clip guard (`NaN > max_norm` is
/// false) and an ∞ delta would turn `scale · ∞` into NaN — either way one
/// poisoned update would NaN the next broadcast for every client. Shared by
/// [`crate::FedAvgServer`]'s delivery validation and the fold's admission,
/// so the two cannot drift.
pub(crate) fn validate_update_schema(
    current: &[(String, Tensor)],
    update: &ModelUpdate,
) -> Result<()> {
    if update.num_samples == 0 {
        return Err(FlError::InvalidConfig {
            reason: format!("client {} update carries zero samples", update.client_id),
        });
    }
    if update.parameters.len() != current.len() {
        return Err(FlError::SchemaMismatch {
            reason: format!(
                "client {} sent {} parameters, expected {}",
                update.client_id,
                update.parameters.len(),
                current.len()
            ),
        });
    }
    for ((name, reference), (update_name, value)) in current.iter().zip(update.parameters.iter()) {
        if name != update_name || value.dims() != reference.dims() {
            return Err(FlError::SchemaMismatch {
                reason: format!(
                    "client {} parameter '{update_name}' {:?} does not match '{name}' {:?}",
                    update.client_id,
                    value.dims(),
                    reference.dims()
                ),
            });
        }
        if value.data().iter().any(|v| !v.is_finite()) {
            return Err(FlError::InvalidConfig {
                reason: format!(
                    "client {} parameter '{update_name}' contains non-finite values",
                    update.client_id
                ),
            });
        }
    }
    Ok(())
}

/// Coordinate-wise trimmed mean of the client parameters (unweighted) — the
/// second pass of the buffering rule's documented two-pass design: the
/// round's updates were collected by the [`AggregationFold`], and this pass
/// sorts each coordinate column and averages the untrimmed interior.
fn trimmed_mean(
    current: &[(String, Tensor)],
    updates: &[ModelUpdate],
    trim: usize,
) -> Result<Vec<(String, Tensor)>> {
    let kept = updates.len() - 2 * trim;
    let mut aggregated = Vec::with_capacity(current.len());
    let mut column = vec![0.0f32; updates.len()];
    for (index, (name, reference)) in current.iter().enumerate() {
        let mut out = Tensor::zeros(reference.dims());
        for coord in 0..reference.numel() {
            for (u, update) in updates.iter().enumerate() {
                column[u] = update.parameters[index].1.data()[coord];
            }
            column.sort_by(f32::total_cmp);
            let sum: f32 = column[trim..updates.len() - trim].iter().sum();
            out.data_mut()[coord] = sum / kept as f32;
        }
        aggregated.push((name.clone(), out));
    }
    Ok(aggregated)
}

/// Squared L2 distance `‖a − b‖²` between two full parameter vectors,
/// accumulated per tensor in `f64` in schema order, so it is identical at
/// any `PELTA_THREADS` value. The clip norm is its square root against the
/// round reference; Krum scores sum it pairwise.
fn sq_distance(a: &[(String, Tensor)], b: &[(String, Tensor)]) -> Result<f64> {
    let mut sum = 0.0f64;
    for ((_, va), (_, vb)) in a.iter().zip(b) {
        let norm = va.sub(vb)?.l2_norm();
        sum += f64::from(norm) * f64::from(norm);
    }
    Ok(sum)
}

/// The Krum-family selection pass over a round buffered in canonical
/// ascending-client-id order: scores every client by the sum of squared L2
/// distances to its `n − f − 2` nearest neighbours and returns the indices
/// of the `m` lowest-scoring clients, **sorted ascending** (so a downstream
/// mean folds in canonical client-id order). Ranking and neighbour lists
/// sort with `f64::total_cmp`; score ties rank by ascending index, i.e.
/// ascending client id. [`AggregationFold::finish`] has already checked
/// the population against [`AggregationRule::min_updates`].
fn krum_winners(updates: &[ModelUpdate], f: usize, m: usize) -> Result<Vec<usize>> {
    let n = updates.len();
    // Upper-triangular pairwise distance matrix.
    let mut distance = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = sq_distance(&updates[i].parameters, &updates[j].parameters)?;
            distance[i][j] = d;
            distance[j][i] = d;
        }
    }
    let neighbors = n - f - 2;
    let mut scores = Vec::with_capacity(n);
    for (i, row) in distance.iter().enumerate() {
        let mut others: Vec<f64> = row
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, d)| *d)
            .collect();
        others.sort_by(f64::total_cmp);
        // Summing the sorted prefix keeps the accumulation order (and thus
        // the bits) a pure function of the update set.
        scores.push(others[..neighbors].iter().sum::<f64>());
    }
    let mut ranked: Vec<usize> = (0..n).collect();
    ranked.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
    let mut winners = ranked[..m].to_vec();
    winners.sort_unstable();
    Ok(winners)
}

/// Unweighted mean of the selected clients' parameters, folded in ascending
/// client-id order (the `winners` slice is ascending) — multi-Krum's
/// averaging pass.
fn krum_mean(updates: &[ModelUpdate], winners: &[usize]) -> Result<Vec<(String, Tensor)>> {
    let scale = 1.0 / winners.len() as f32;
    let mut aggregated = Vec::with_capacity(updates[winners[0]].parameters.len());
    for (index, (name, first)) in updates[winners[0]].parameters.iter().enumerate() {
        let mut sum = Tensor::zeros(first.dims());
        for &w in winners {
            sum = sum.axpy(1.0, &updates[w].parameters[index].1)?;
        }
        aggregated.push((name.clone(), Tensor::zeros(first.dims()).axpy(scale, &sum)?));
    }
    Ok(aggregated)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn named(values: &[f32]) -> Vec<(String, Tensor)> {
        vec![(
            "w".to_string(),
            Tensor::from_vec(values.to_vec(), &[values.len()]).unwrap(),
        )]
    }

    fn update(client: usize, samples: usize, values: &[f32]) -> ModelUpdate {
        ModelUpdate {
            client_id: client,
            round: 0,
            num_samples: samples,
            parameters: named(values),
        }
    }

    #[test]
    fn fedavg_rule_matches_the_weighted_average() {
        let aggregated = aggregate_with_rule(
            &named(&[0.0, 0.0]),
            0,
            vec![update(0, 30, &[1.0, 1.0]), update(1, 10, &[5.0, 5.0])],
            AggregationRule::FedAvg,
        )
        .unwrap();
        assert!((aggregated[0].1.data()[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn norm_clipping_bounds_a_boosted_malicious_update() {
        // An honest client moves the single weight by 1; the attacker tries
        // to move it by 100 with a boosted sample count. Clipping at norm 1
        // caps the attacker's influence to the same magnitude as the honest
        // client's.
        let initial = named(&[0.0]);
        let honest = update(0, 10, &[1.0]);
        let malicious = update(1, 30, &[100.0]);

        let plain = aggregate_with_rule(
            &initial,
            0,
            vec![honest.clone(), malicious.clone()],
            AggregationRule::FedAvg,
        )
        .unwrap();
        let undefended = plain[0].1.data()[0];

        let clipped = aggregate_with_rule(
            &initial,
            0,
            vec![honest, malicious],
            AggregationRule::NormClipping { max_norm: 1.0 },
        )
        .unwrap();
        let defended = clipped[0].1.data()[0];

        assert!(undefended > 50.0, "undefended aggregate {undefended}");
        assert!(defended <= 1.0 + 1e-6, "defended aggregate {defended}");
        assert!(defended > 0.0);
    }

    #[test]
    fn trimmed_mean_discards_the_outlier() {
        let aggregated = aggregate_with_rule(
            &named(&[0.0]),
            0,
            vec![
                update(0, 10, &[1.0]),
                update(1, 10, &[1.2]),
                update(2, 10, &[0.8]),
                update(3, 10, &[100.0]),
            ],
            AggregationRule::TrimmedMean { trim: 1 },
        )
        .unwrap();
        let value = aggregated[0].1.data()[0];
        assert!((value - 1.1).abs() < 1e-5, "trimmed mean {value}");
    }

    #[test]
    fn aggregation_is_invariant_under_update_order() {
        // The same update set in two arrival orders: the canonical
        // client-id fold order makes the aggregates bit-identical.
        let updates = vec![
            update(0, 10, &[0.125, -3.0]),
            update(1, 7, &[2.5, 0.0625]),
            update(2, 13, &[-0.75, 1.0]),
        ];
        for rule in [
            AggregationRule::FedAvg,
            AggregationRule::NormClipping { max_norm: 1.0 },
            AggregationRule::TrimmedMean { trim: 1 },
            AggregationRule::Krum { f: 0 },
            AggregationRule::MultiKrum { f: 0, m: 1 },
        ] {
            let initial = named(&[0.5, -0.25]);
            let forward = aggregate_with_rule(&initial, 0, updates.clone(), rule).unwrap();
            let reversed: Vec<ModelUpdate> = updates.iter().rev().cloned().collect();
            let backward = aggregate_with_rule(&initial, 0, reversed, rule).unwrap();
            let bits = |params: &[(String, Tensor)]| -> Vec<u32> {
                params
                    .iter()
                    .flat_map(|(_, t)| t.data().iter().map(|v| v.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&forward), bits(&backward), "rule {rule:?} reordered");
        }
    }

    #[test]
    fn rule_validation_and_min_updates() {
        assert!(AggregationRule::NormClipping { max_norm: 0.0 }
            .validate()
            .is_err());
        assert!(AggregationRule::NormClipping { max_norm: f32::NAN }
            .validate()
            .is_err());
        assert!(AggregationRule::FedAvg.validate().is_ok());
        assert_eq!(AggregationRule::FedAvg.min_updates(), 1);
        assert_eq!(AggregationRule::TrimmedMean { trim: 2 }.min_updates(), 5);
        // Krum family: m = 0 is degenerate; the population bounds are
        // n ≥ 2f + 3 (Krum) and n ≥ max(2f + 3, m + f + 2) (multi-Krum).
        assert!(AggregationRule::MultiKrum { f: 1, m: 0 }
            .validate()
            .is_err());
        assert!(AggregationRule::Krum { f: 1 }.validate().is_ok());
        assert_eq!(AggregationRule::Krum { f: 0 }.min_updates(), 3);
        assert_eq!(AggregationRule::Krum { f: 1 }.min_updates(), 5);
        assert_eq!(AggregationRule::MultiKrum { f: 1, m: 2 }.min_updates(), 5);
        assert_eq!(AggregationRule::MultiKrum { f: 1, m: 4 }.min_updates(), 7);
        assert!(!AggregationRule::Krum { f: 1 }.streams());
        assert!(!AggregationRule::MultiKrum { f: 1, m: 2 }.streams());
    }

    #[test]
    fn krum_adopts_an_honest_update_bit_exactly() {
        // Four clustered honest clients and one boosted outlier: the winner
        // must be one of the honest updates, adopted without any averaging
        // arithmetic — its exact bit pattern becomes the global model.
        let updates = vec![
            update(0, 10, &[1.0, 0.9]),
            update(1, 10, &[1.1, 1.0]),
            update(2, 10, &[0.9, 1.1]),
            update(3, 10, &[1.05, 0.95]),
            update(4, 512, &[100.0, -100.0]),
        ];
        let result = aggregate_with_rule(
            &named(&[0.0, 0.0]),
            0,
            updates.clone(),
            AggregationRule::Krum { f: 1 },
        )
        .unwrap();
        let winner_bits: Vec<u32> = result[0].1.data().iter().map(|v| v.to_bits()).collect();
        let matches_honest = updates[..4].iter().any(|u| {
            let bits: Vec<u32> = u.parameters[0]
                .1
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            bits == winner_bits
        });
        assert!(matches_honest, "krum selected {:?}", result[0].1.data());
        assert!(
            result[0].1.data()[0] < 2.0,
            "outlier won: {:?}",
            result[0].1.data()
        );
    }

    #[test]
    fn multi_krum_excludes_the_outlier_from_its_mean() {
        let updates = vec![
            update(0, 10, &[1.0]),
            update(1, 10, &[1.2]),
            update(2, 10, &[0.8]),
            update(3, 10, &[1.1]),
            update(4, 512, &[100.0]),
        ];
        let result = aggregate_with_rule(
            &named(&[0.0]),
            0,
            updates,
            AggregationRule::MultiKrum { f: 1, m: 2 },
        )
        .unwrap();
        let value = result[0].1.data()[0];
        // The mean of any 2 of the clustered updates lies in [0.8, 1.2];
        // with the outlier mixed in it would exceed 30.
        assert!((0.8..=1.2).contains(&value), "multi-krum mean {value}");
    }

    #[test]
    fn krum_score_ties_break_toward_the_lowest_client_id() {
        // Two identical honest pairs: scores tie pairwise, so selection
        // must deterministically prefer the lower client id.
        let updates = vec![
            update(0, 10, &[1.0]),
            update(1, 10, &[1.0]),
            update(2, 10, &[1.0]),
            update(3, 10, &[1.0]),
            update(4, 10, &[5.0]),
        ];
        let result =
            aggregate_with_rule(&named(&[0.0]), 0, updates, AggregationRule::Krum { f: 1 })
                .unwrap();
        assert_eq!(result[0].1.data()[0].to_bits(), 1.0f32.to_bits());
    }

    #[test]
    fn krum_rejects_populations_below_its_bound() {
        let updates = vec![
            update(0, 10, &[1.0]),
            update(1, 10, &[1.2]),
            update(2, 10, &[0.8]),
            update(3, 10, &[1.1]),
        ];
        // n = 4 < 2f + 3 = 5.
        assert!(aggregate_with_rule(
            &named(&[0.0]),
            0,
            updates.clone(),
            AggregationRule::Krum { f: 1 }
        )
        .is_err());
        // n = 4 < m + f + 2 = 5 even though 2f + 3 = 3 fits.
        assert!(aggregate_with_rule(
            &named(&[0.0]),
            0,
            updates,
            AggregationRule::MultiKrum { f: 0, m: 3 },
        )
        .is_err());
    }

    #[test]
    fn construction_and_aggregation_are_validated() {
        // The buffered driver runs only the fold's own checks; each defect
        // the removed up-front validation used to catch is still refused.
        let refused = |updates: Vec<ModelUpdate>, rule: AggregationRule| {
            aggregate_with_rule(&named(&[0.0]), 0, updates, rule).is_err()
        };
        let trim = AggregationRule::TrimmedMean { trim: 1 };
        // A degenerate rule, even before any update is looked at.
        assert!(refused(
            vec![update(0, 10, &[1.0])],
            AggregationRule::NormClipping { max_norm: 0.0 }
        ));
        // Too few updates for the trim level.
        assert!(refused(
            vec![update(0, 10, &[1.0]), update(1, 10, &[2.0])],
            trim
        ));
        // Empty round, stale round, schema mismatch.
        assert!(refused(Vec::new(), trim));
        assert!(refused(Vec::new(), AggregationRule::FedAvg));
        let stale = ModelUpdate {
            round: 3,
            ..update(0, 10, &[1.0])
        };
        assert!(refused(vec![stale], AggregationRule::FedAvg));
        let bad_schema = ModelUpdate {
            parameters: vec![("other".to_string(), Tensor::zeros(&[1]))],
            ..update(0, 10, &[1.0])
        };
        assert!(refused(vec![bad_schema], AggregationRule::FedAvg));
        // Zero-sample updates are invalid under every rule (the protocol
        // Nacks them at delivery; the buffered driver agrees).
        assert!(refused(vec![update(0, 0, &[1.0])], AggregationRule::FedAvg));
        // A duplicate client id would make the canonical fold order depend
        // on arrival order: the twins sort next to each other and the
        // second breaks the strictly ascending order, under every rule and
        // wherever the twins sit in the input.
        for rule in [
            AggregationRule::FedAvg,
            trim,
            AggregationRule::Krum { f: 0 },
        ] {
            assert!(refused(
                vec![
                    update(2, 10, &[1.0]),
                    update(0, 10, &[1.0]),
                    update(1, 10, &[1.5]),
                    update(2, 10, &[2.0]),
                ],
                rule
            ));
        }
    }

    #[test]
    fn non_finite_updates_are_rejected_under_every_rule() {
        // A NaN coordinate would slip past the `norm > max_norm` clip guard
        // and an ∞ delta would turn `scale · ∞` into NaN — one poisoned
        // update must not NaN the global model under ANY rule.
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for rule in [
                AggregationRule::FedAvg,
                AggregationRule::NormClipping { max_norm: 1.0 },
                AggregationRule::TrimmedMean { trim: 1 },
                AggregationRule::Krum { f: 0 },
                AggregationRule::MultiKrum { f: 0, m: 1 },
            ] {
                let err = aggregate_with_rule(
                    &named(&[0.0]),
                    0,
                    vec![
                        update(0, 10, &[1.0]),
                        update(1, 10, &[1.2]),
                        update(2, 10, &[poison]),
                    ],
                    rule,
                );
                assert!(err.is_err(), "rule {rule:?} accepted {poison}");
            }
        }
    }

    /// The two-temporary accumulate `accumulate` replaced, kept as its
    /// reference.
    fn accumulate_reference(
        sum: &Tensor,
        weight: f32,
        value: &Tensor,
        reference: &Tensor,
    ) -> Result<Tensor> {
        Ok(sum.axpy(weight, &value.sub(reference)?)?)
    }

    #[test]
    fn in_place_accumulate_matches_the_two_temporary_reference_bit_for_bit() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(25);
        // One tensor above the element-wise kernels' parallel threshold,
        // one below it.
        for dims in [vec![2, 20_000], vec![5, 7]] {
            let normal = |rng: &mut rand_chacha::ChaCha8Rng, std: f32| {
                Tensor::rand_normal(&dims, 0.0, std, rng)
            };
            // Special values at fixed, disjoint positions: ±∞ and one NaN
            // payload in the reference, ±0, subnormals, overflowing
            // magnitudes, ±∞ and the same NaN payload in the first update.
            // Disjoint, so no two different NaNs meet (their payloads
            // would depend on operand order, not on the fold).
            let mut reference = normal(&mut rng, 1.0);
            for (index, special) in [
                (0, f32::INFINITY),
                (1, f32::NEG_INFINITY),
                (2, f32::from_bits(0x7FC0_1234)),
            ] {
                reference.data_mut()[index] = special;
            }
            let mut first = normal(&mut rng, 1.0);
            for (index, special) in [
                (3, 0.0),
                (4, -0.0),
                (5, f32::MIN_POSITIVE / 4.0),
                (6, -f32::from_bits(1)),
                (7, f32::MAX),
                (8, -3.0e38),
                (9, f32::INFINITY),
                (10, f32::NEG_INFINITY),
                (11, f32::from_bits(0x7FC0_1234)),
            ] {
                first.data_mut()[index] = special;
            }
            let mut updates = vec![(17.0, first)];
            for (weight, std) in [(1.0, 1.0), (0.5, 1e-3), (3.0e-3, 10.0), (64.0, 1e-30)] {
                updates.push((weight, normal(&mut rng, std)));
            }
            let mut sum = Tensor::zeros(&dims);
            let mut expected = Tensor::zeros(&dims);
            for (weight, value) in &updates {
                accumulate(&mut sum, *weight, value, &reference).unwrap();
                expected = accumulate_reference(&expected, *weight, value, &reference).unwrap();
                for (index, (a, b)) in sum.data().iter().zip(expected.data()).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "element {index}: {a:e} vs {b:e}");
                }
            }
        }
    }

    #[test]
    fn accumulate_refuses_any_shape_mismatch() {
        let t = |dims: &[usize]| Tensor::ones(dims);
        // (sum, value, reference): each pair mismatched in element count,
        // and a transposed shape with the same element count.
        for (sum, value, reference) in [
            (&[3][..], &[4][..], &[4][..]),
            (&[4], &[3], &[4]),
            (&[4], &[4], &[3]),
            (&[4], &[3], &[3]),
            (&[2, 3], &[3, 2], &[2, 3]),
            (&[2, 3], &[2, 3], &[3, 2]),
        ] {
            let mut folded = t(sum);
            let err = accumulate(&mut folded, 1.0, &t(value), &t(reference));
            assert!(
                err.is_err(),
                "shapes {sum:?} += {value:?} - {reference:?} were folded"
            );
            assert!(folded.data().iter().all(|&v| v == 1.0), "sum was written");
        }
    }
}
