//! Deterministic update-compression codecs for the wire protocol.
//!
//! A federation configures one [`UpdateCodec`] per scenario
//! ([`crate::FederationConfig::codec`] / `ScenarioSpec::with_codec`); the
//! transport layer applies it to every **upload** frame — [`crate::Message::Update`]
//! and the subtree-addressed [`crate::Message::AggregateUpdate`] — while
//! control traffic (Join/RoundStart/RoundEnd/Leave/Nack/MaskShare) and
//! sealed shielded segments are never codec-compressed. Compression is
//! *lossy but bit-reproducible*: every rounding decision below is a fixed,
//! scalar, thread-free computation, so a given codec produces the same bytes
//! and the same dequantized values on every run, every transport, every
//! topology and every `PELTA_THREADS` setting.
//!
//! The determinism contract of the runtime extends into the codec domain
//! through two invariants, both proven by the property tests in
//! `tests/wire_protocol.rs`:
//!
//! 1. **Transport equivalence.** `decode(encode_with(m, c))` carries exactly
//!    `c.round_trip(..)` of every tensor in `m`, and the in-memory transport
//!    applies [`UpdateCodec::round_trip_message`] on `send`. Both transports
//!    therefore deliver bit-identical dequantized values, and the server
//!    folds them in the unchanged canonical ascending-client-id order.
//! 2. **Idempotence.** `round_trip(round_trip(x)) == round_trip(x)` bit for
//!    bit, and `encode_with(round_trip(x)) == encode_with(x)` byte for byte.
//!    An edge aggregator that decodes member updates and re-encodes them
//!    into an `AggregateUpdate` — or a faulty link that re-offers a cached
//!    frame — reproduces the member's compressed bytes exactly, so
//!    hierarchical forwarding is wire-equivalent to passing the compressed
//!    members through unopened.
//!
//! `Raw` is the identity codec: its tensors travel as exact `f32` bit
//! patterns, so a codec-free deployment moves its values unchanged.
//!
//! The byte-level layout of every frame — including the codec tag byte each
//! data frame carries after its kind and the compact element sections of
//! [`UpdateCodec`] — is specified with worked hex dumps in
//! `docs/wire-format.md` at the repository root.

use serde::{Deserialize, Serialize};

use pelta_tensor::Tensor;

use crate::{FlError, MemberUpdate, Message, ModelUpdate, Result};

/// How update tensors are compressed on the wire.
///
/// Every variant is deterministic and idempotent (see the module docs); the
/// lossy variants trade accuracy for wire bytes:
///
/// | codec  | bytes per element      | loss                                  |
/// |--------|------------------------|---------------------------------------|
/// | `Raw`  | 4                      | none (exact IEEE-754 bit patterns)    |
/// | `Bf16` | 2                      | mantissa truncated to 7 bits (RNE)    |
/// | `Int8` | 1 (+4/tensor scale)    | 8-bit symmetric power-of-two grid     |
/// | `TopK` | 8 per *kept* element   | all but the `k` largest magnitudes → 0 |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpdateCodec {
    /// Identity: exact `f32` bit patterns (codec tag 0).
    Raw,
    /// Truncate every element to bfloat16 (the high 16 bits of the `f32`
    /// pattern) with round-to-nearest-even; NaNs are quieted into the kept
    /// half so they survive the trip as NaNs.
    Bf16,
    /// Per-tensor symmetric 8-bit quantization. The scale is the smallest
    /// power of two `2^e` with `amax <= 127 * 2^e` (amax over the finite
    /// magnitudes), carried on the wire as its exact `f32` bit pattern;
    /// `q = round(v / 2^e)` clamped to ±127 and dequantized as `q * 2^e`,
    /// which is exact — both factors fit the mantissa — so re-quantizing a
    /// dequantized tensor reproduces the same scale and codes.
    Int8,
    /// Magnitude sparsification: keep the `min(k, numel)` elements of
    /// largest `|v|` (ties broken deterministically by ascending index,
    /// residual-free), zero the rest. Kept values travel as exact bit
    /// patterns next to their `u32` indices.
    TopK {
        /// Number of elements kept per tensor.
        k: usize,
    },
}

#[allow(clippy::derivable_impls)] // the vendored serde derive cannot parse a `#[default]` variant attribute
impl Default for UpdateCodec {
    fn default() -> Self {
        UpdateCodec::Raw
    }
}

impl UpdateCodec {
    /// Short lowercase name used in benchmark reports and examples.
    pub fn name(&self) -> &'static str {
        match self {
            UpdateCodec::Raw => "raw",
            UpdateCodec::Bf16 => "bf16",
            UpdateCodec::Int8 => "int8",
            UpdateCodec::TopK { .. } => "topk",
        }
    }

    /// Whether this codec leaves tensor values untouched.
    pub fn is_raw(&self) -> bool {
        matches!(self, UpdateCodec::Raw)
    }

    /// Checks the codec parameters.
    ///
    /// # Errors
    /// Returns [`FlError::InvalidConfig`] when `TopK` keeps zero elements.
    pub fn validate(&self) -> Result<()> {
        match self {
            UpdateCodec::TopK { k: 0 } => Err(FlError::InvalidConfig {
                reason: "TopK codec must keep at least one element (k >= 1)".to_string(),
            }),
            _ => Ok(()),
        }
    }

    /// The codec tag byte that follows the message kind in a data frame.
    pub(crate) fn wire_tag(&self) -> u8 {
        match self {
            UpdateCodec::Raw => 0,
            UpdateCodec::Bf16 => 1,
            UpdateCodec::Int8 => 2,
            UpdateCodec::TopK { .. } => 3,
        }
    }

    /// What the receiver sees after decode: the dequantized tensor the wire
    /// encoding reconstructs. `Raw` is the identity (exact clone); `Bf16`
    /// and `Int8` pass the tensor through the same section kernels the wire
    /// encode and decode use, so the in-memory and the serialized path
    /// cannot drift.
    pub fn round_trip(&self, tensor: &Tensor) -> Tensor {
        let mut section = Vec::new();
        let data = match self {
            UpdateCodec::Raw => return tensor.clone(),
            UpdateCodec::Bf16 => {
                put_bf16(&mut section, tensor.data());
                bf16_values(&section)
            }
            UpdateCodec::Int8 => {
                let scale = int8_scale(tensor.data());
                put_int8(&mut section, tensor.data(), scale);
                int8_values(&section, scale)
            }
            UpdateCodec::TopK { k } => {
                let mut data = vec![0.0f32; tensor.numel()];
                for index in topk_indices(tensor.data(), *k) {
                    data[index] = tensor.data()[index];
                }
                data
            }
        };
        Tensor::from_vec(data, tensor.dims()).expect("shape preserved")
    }

    /// [`UpdateCodec::round_trip`] over every parameter of an update.
    pub fn round_trip_update(&self, update: &ModelUpdate) -> ModelUpdate {
        ModelUpdate {
            client_id: update.client_id,
            round: update.round,
            num_samples: update.num_samples,
            parameters: update
                .parameters
                .iter()
                .map(|(name, tensor)| (name.clone(), self.round_trip(tensor)))
                .collect(),
        }
    }

    /// Applies the codec's value loss to an upload frame, exactly as the
    /// serialized wire would: returns `Some(rewritten)` for an `Update` or
    /// `AggregateUpdate` under a lossy codec, `None` when the message passes
    /// through unchanged (control traffic, or the `Raw` codec). Sealed
    /// shielded segments are opaque ciphertext and are never compressed.
    pub fn round_trip_message(&self, message: &Message) -> Option<Message> {
        if self.is_raw() {
            return None;
        }
        match message {
            Message::Update { update, shielded } => Some(Message::Update {
                update: self.round_trip_update(update),
                shielded: shielded.clone(),
            }),
            Message::AggregateUpdate {
                origin,
                round,
                members,
            } => Some(Message::AggregateUpdate {
                origin: *origin,
                round: *round,
                members: members
                    .iter()
                    .map(|member| MemberUpdate {
                        update: self.round_trip_update(&member.update),
                        shielded: member.shielded.clone(),
                    })
                    .collect(),
            }),
            _ => None,
        }
    }

    /// Wire length of one tensor under this codec (the coded counterpart of
    /// the raw `4 + 8·rank + 4·numel` framing).
    pub(crate) fn tensor_wire_len(&self, tensor: &Tensor) -> usize {
        let dims = 4 + 8 * tensor.rank();
        match self {
            UpdateCodec::Raw => dims + 4 * tensor.numel(),
            UpdateCodec::Bf16 => dims + 2 * tensor.numel(),
            UpdateCodec::Int8 => dims + 4 + tensor.numel(),
            UpdateCodec::TopK { k } => dims + 4 + 8 * (*k).min(tensor.numel()),
        }
    }
}

impl std::fmt::Display for UpdateCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateCodec::TopK { k } => write!(f, "topk(k={k})"),
            other => write!(f, "{}", other.name()),
        }
    }
}

/// bfloat16 rounding of one `f32`: the high 16 bits after round-to-nearest-
/// even. NaNs keep their sign and high mantissa bits but are quieted (bit 22
/// forced) so the kept half is still a NaN; because the forced bit lives in
/// the kept half, re-rounding a rounded value is the identity.
fn bf16_hi_bits(v: f32) -> u16 {
    let bits = v.to_bits();
    if v.is_nan() {
        return (((bits & 0xFFFF_0000) | 0x0040_0000) >> 16) as u16;
    }
    // Round-to-nearest-even on the dropped 16 bits: adding 0x7FFF plus the
    // LSB of the kept half carries exactly when the tail is > half, or ==
    // half with an odd kept half. A zero tail never carries, which is what
    // makes the rounding idempotent. Finite values whose exponent carries
    // over saturate to ±infinity, the standard bf16 behaviour.
    let rounded = bits.wrapping_add(0x7FFF + ((bits >> 16) & 1));
    (rounded >> 16) as u16
}

/// Inverse of [`bf16_hi_bits`]: the 16-bit pattern widened back to `f32`.
fn bf16_from_hi(hi: u16) -> f32 {
    f32::from_bits(u32::from(hi) << 16)
}

/// Exact power of two `2^e` for `e` in `[-126, 127]` (normal range), built
/// from the bit pattern so no libm call can wobble across platforms.
fn exp2i(e: i32) -> f32 {
    debug_assert!(
        (-126..=127).contains(&e),
        "exponent {e} outside normal range"
    );
    f32::from_bits(((e + 127) as u32) << 23)
}

/// Per-tensor symmetric Int8 scale: the smallest power of two `2^e` (with
/// `e` clamped to `[-126, 121]`) such that `amax <= 127 * 2^e`, where `amax`
/// is the largest **finite** magnitude. An all-zero (or all-non-finite)
/// tensor uses scale 1.0 and quantizes to all zeros. Minimality pins the
/// largest code at `>= 64`, which is what makes re-quantizing a dequantized
/// tensor reproduce the same `e` — the idempotence the edge re-encode path
/// leans on. The upper clamp keeps `127 * 2^e` (the largest dequantized
/// magnitude) finite — `127 * 2^122` would already overflow `f32` — so a
/// dequantized code can never round-trip through infinity; magnitudes in
/// the tiny window above `127 * 2^121` saturate to the top code instead.
pub(crate) fn int8_scale(data: &[f32]) -> f32 {
    const E_MAX: i32 = 121;
    // amax from the bit patterns, in one pass with no branch or select.
    // Without its sign bit a float orders like its pattern. Adding 2^23
    // keeps the finite patterns in order below `i32::MAX` and carries every
    // non-finite one (exponent field all ones) into the negatives, so a
    // signed max that starts at zero's key never picks one.
    const SHIFT: u32 = 1 << 23;
    let amax_bits = data
        .iter()
        .map(|v| ((v.to_bits() & 0x7FFF_FFFF) + SHIFT) as i32)
        .fold(SHIFT as i32, i32::max)
        - SHIFT as i32;
    if amax_bits == 0 {
        return 1.0;
    }
    let amax = f32::from_bits(amax_bits as u32);
    // Seed e from amax's exponent (amax >= 2^ex, 127 < 2^7), then settle
    // minimality in at most a couple of steps. Subnormal amax seeds at the
    // bottom of the range, which the clamp already covers.
    let ex = (amax_bits >> 23) - 127;
    let mut e = (ex - 7).clamp(-126, E_MAX);
    while e < E_MAX && 127.0 * exp2i(e) < amax {
        e += 1;
    }
    while e > -126 && 127.0 * exp2i(e - 1) >= amax {
        e -= 1;
    }
    exp2i(e)
}

/// Quantizes one element against the reciprocal of the tensor scale:
/// `round(v / scale)`, halves away from zero, clamped to ±127. NaN maps to
/// code 0 and ±∞ saturate symmetrically.
///
/// The code is exact, branch-free and free of library calls, so slice
/// loops over it vectorise:
///
/// * `y = v · (1/scale)` is exact (the scale is a power of two), and
///   clamping `y` to ±127 *before* rounding gives the same code as clamping
///   after: any `y > 127` rounds to at least 127, which clamps to 127.
///   A NaN `y` is replaced by 0.
/// * For `|y| ≤ 127`, `y + 1.5·2²³` lies in `[2²³, 2²⁴)`, where the floats
///   are exactly the integers, so the one correctly rounded add is
///   `1.5·2²³ + rne(y)`: round-to-nearest-even of `y`, with no double
///   rounding. Consecutive integers there have consecutive bit patterns,
///   so subtracting the two patterns yields `rne(y)` as an integer.
/// * `rne` and half-away-from-zero differ only on a tie `k + ½` that `rne`
///   sent towards zero. There `y − rne(y)` (exact: at most ½ and on `y`'s
///   grid) is ½ with `y`'s sign, and the code steps one away from zero;
///   it stays within ±127 because the largest tie is 126.5.
fn int8_quantize(v: f32, inv_scale: f32) -> i8 {
    const ROUNDER: f32 = 12_582_912.0; // 1.5 · 2^23
    let y = (v * inv_scale).clamp(-127.0, 127.0);
    let y = if y.is_nan() { 0.0 } else { y };
    let shifted = y + ROUNDER;
    let nearest_even = shifted.to_bits() as i32 - ROUNDER.to_bits() as i32;
    let tie_towards_zero = y - (shifted - ROUNDER) == 0.5f32.copysign(y);
    let away = if tie_towards_zero {
        (y.to_bits() as i32 >> 31) | 1
    } else {
        0
    };
    (nearest_even + away) as i8
}

/// Appends one dense element section to `out`: sized once, then filled in
/// one pass with each element's `W`-byte code. No code depends on another
/// element, so the loop vectorises without changing a byte.
fn put_section<const W: usize>(out: &mut Vec<u8>, data: &[f32], code: impl Fn(f32) -> [u8; W]) {
    let start = out.len();
    out.resize(start + W * data.len(), 0);
    for (bytes, &v) in out[start..].chunks_exact_mut(W).zip(data) {
        bytes.copy_from_slice(&code(v));
    }
}

/// Inverse of [`put_section`]: the values of a section of `W`-byte codes.
fn section_values<const W: usize>(section: &[u8], value: impl Fn([u8; W]) -> f32) -> Vec<f32> {
    section
        .chunks_exact(W)
        .map(|bytes| value(bytes.try_into().expect("W-byte chunk")))
        .collect()
}

/// The `Raw` element section: `4·numel` bytes of exact `f32` bit patterns.
pub(crate) fn put_raw(out: &mut Vec<u8>, data: &[f32]) {
    put_section(out, data, |v| v.to_bits().to_le_bytes());
}

/// Inverse of [`put_raw`].
pub(crate) fn raw_values(section: &[u8]) -> Vec<f32> {
    section_values(section, |bytes| f32::from_bits(u32::from_le_bytes(bytes)))
}

/// The `Bf16` element section: `2·numel` bytes of rounded high halves.
pub(crate) fn put_bf16(out: &mut Vec<u8>, data: &[f32]) {
    put_section(out, data, |v| bf16_hi_bits(v).to_le_bytes());
}

/// Inverse of [`put_bf16`].
pub(crate) fn bf16_values(section: &[u8]) -> Vec<f32> {
    section_values(section, |bytes| bf16_from_hi(u16::from_le_bytes(bytes)))
}

/// The `Int8` codes against `scale`: `numel` signed bytes. The scale's own
/// four bytes precede the codes on the wire and are framed by the caller.
pub(crate) fn put_int8(out: &mut Vec<u8>, data: &[f32], scale: f32) {
    let inv = scale.recip();
    put_section(out, data, move |v| [int8_quantize(v, inv) as u8]);
}

/// Inverse of [`put_int8`]: `q · scale`, exact.
pub(crate) fn int8_values(section: &[u8], scale: f32) -> Vec<f32> {
    section_values(section, move |[code]| f32::from(code as i8) * scale)
}

/// The kept index set of the TopK codec, in ascending order: the
/// `min(k, len)` indices of largest `|v|` under `total_cmp`, ties broken by
/// ascending index. One shared selection for `round_trip`, encode and
/// `wire_size`, so every path keeps exactly the same elements.
pub(crate) fn topk_indices(data: &[f32], k: usize) -> Vec<usize> {
    let kept = k.min(data.len());
    let mut order: Vec<usize> = (0..data.len()).collect();
    order.sort_by(|&a, &b| data[b].abs().total_cmp(&data[a].abs()).then(a.cmp(&b)));
    order.truncate(kept);
    order.sort_unstable();
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codecs() -> Vec<UpdateCodec> {
        vec![
            UpdateCodec::Raw,
            UpdateCodec::Bf16,
            UpdateCodec::Int8,
            UpdateCodec::TopK { k: 3 },
        ]
    }

    fn special_tensor() -> Tensor {
        Tensor::from_vec(
            vec![
                0.0,
                -0.0,
                f32::MIN_POSITIVE / 4.0, // subnormal
                -f32::MIN_POSITIVE,
                1.5,
                -2.75,
                3.4e38,
                -1e-38,
                f32::from_bits(0x7FC0_1234), // NaN with payload
                f32::INFINITY,
                f32::NEG_INFINITY,
                127.0,
            ],
            &[12],
        )
        .unwrap()
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn every_codec_round_trip_is_idempotent_on_special_values() {
        let tensor = special_tensor();
        for codec in codecs() {
            let once = codec.round_trip(&tensor);
            let twice = codec.round_trip(&once);
            assert_bits_eq(&once, &twice);
        }
    }

    #[test]
    fn raw_round_trip_is_the_identity() {
        let tensor = special_tensor();
        assert_bits_eq(&UpdateCodec::Raw.round_trip(&tensor), &tensor);
    }

    #[test]
    fn bf16_rounds_to_nearest_even_and_quiets_nan() {
        // 1.0 + 2^-8 sits exactly halfway between two bf16 grid points with
        // an even lower neighbour: RNE rounds down.
        let halfway = f32::from_bits(0x3F80_8000);
        assert_eq!(bf16_hi_bits(halfway), 0x3F80);
        // The odd neighbour above rounds up.
        let halfway_odd = f32::from_bits(0x3F81_8000);
        assert_eq!(bf16_hi_bits(halfway_odd), 0x3F82);
        let quieted = bf16_from_hi(bf16_hi_bits(f32::from_bits(0x7F80_0001)));
        assert!(quieted.is_nan());
        // Saturation: the largest f32 overflows the bf16 grid to infinity.
        assert_eq!(bf16_from_hi(bf16_hi_bits(f32::MAX)), f32::INFINITY);
    }

    #[test]
    fn int8_scale_is_a_minimal_power_of_two() {
        for amax in [1.0f32, 126.9, 127.0, 127.1, 1e-20, 3.0e38, 0.5] {
            let scale = int8_scale(&[amax, -amax / 2.0]);
            // Power of two: the mantissa field is empty.
            assert_eq!(scale.to_bits() & 0x007F_FFFF, 0, "scale {scale}");
            assert!(127.0 * scale >= amax, "scale {scale} too small for {amax}");
            let exp = ((scale.to_bits() >> 23) & 0xFF) as i32 - 127;
            if exp > -126 {
                assert!(
                    127.0 * exp2i(exp - 1) < amax,
                    "scale {scale} not minimal for {amax}"
                );
            }
        }
        assert_eq!(int8_scale(&[0.0, -0.0]), 1.0);
        assert_eq!(int8_scale(&[f32::NAN, f32::INFINITY]), 1.0);
    }

    #[test]
    fn int8_quantization_saturates_and_zeroes_nan() {
        let inv = 1.0;
        assert_eq!(int8_quantize(f32::NAN, inv), 0);
        assert_eq!(int8_quantize(f32::INFINITY, inv), 127);
        assert_eq!(int8_quantize(f32::NEG_INFINITY, inv), -127);
        assert_eq!(int8_quantize(1000.0, inv), 127);
        assert_eq!(int8_quantize(-1000.0, inv), -127);
    }

    #[test]
    fn topk_selection_breaks_ties_by_ascending_index() {
        let data = [1.0f32, -1.0, 1.0, 0.5, -2.0];
        assert_eq!(topk_indices(&data, 3), vec![0, 1, 4]);
        // k larger than the tensor keeps everything.
        assert_eq!(topk_indices(&data, 99), vec![0, 1, 2, 3, 4]);
        // All-tied zeros keep the lowest indices.
        assert_eq!(topk_indices(&[0.0f32; 4], 2), vec![0, 1]);
    }

    #[test]
    fn topk_round_trip_zeroes_everything_else() {
        let tensor = Tensor::from_vec(vec![0.25, -8.0, 0.5, 7.0, -0.125], &[5]).unwrap();
        let kept = UpdateCodec::TopK { k: 2 }.round_trip(&tensor);
        let expected = [0.0f32, -8.0, 0.0, 7.0, 0.0];
        for (a, &b) in kept.data().iter().zip(expected.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn validate_rejects_empty_topk() {
        assert!(UpdateCodec::TopK { k: 0 }.validate().is_err());
        for codec in codecs() {
            assert!(codec.validate().is_ok());
        }
    }

    /// The quantizer `int8_quantize` replaced, kept as its reference:
    /// `f32::round` rounds halves away from zero, `clamp` passes NaN through
    /// and the saturating cast maps it to 0.
    fn quantize_reference(v: f32, inv_scale: f32) -> i8 {
        (v * inv_scale).round().clamp(-127.0, 127.0) as i8
    }

    /// The scale `int8_scale` replaced, kept as its reference: `amax` by a
    /// float loop over the finite magnitudes.
    fn scale_reference(data: &[f32]) -> f32 {
        const E_MAX: i32 = 121;
        let mut amax = 0.0f32;
        for &v in data {
            if v.is_finite() {
                amax = amax.max(v.abs());
            }
        }
        if amax == 0.0 {
            return 1.0;
        }
        let ex = ((amax.to_bits() >> 23) & 0xFF) as i32 - 127;
        let mut e = (ex - 7).clamp(-126, E_MAX);
        while e < E_MAX && 127.0 * exp2i(e) < amax {
            e += 1;
        }
        while e > -126 && 127.0 * exp2i(e - 1) >= amax {
            e -= 1;
        }
        exp2i(e)
    }

    /// Every tie `k + ½` for `k` in −129..=128 with its one-ULP neighbours,
    /// ±127.5 and the special values.
    fn quantizer_probes() -> Vec<f32> {
        let mut probes: Vec<f32> = (-129..=128)
            .map(|k| k as f32 + 0.5)
            .flat_map(|tie: f32| [tie.next_down(), tie, tie.next_up()])
            .collect();
        probes.extend([
            127.5,
            -127.5,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 4.0,
            -f32::from_bits(1),
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7FC0_1234),
            f32::from_bits(0xFF80_0001),
        ]);
        probes
    }

    #[test]
    fn int8_quantize_and_scale_match_the_reference_formulas() {
        let every_997th: Vec<f32> = (0..=u32::MAX).step_by(997).map(f32::from_bits).collect();
        let probes = quantizer_probes();
        let inputs = || probes.iter().chain(&every_997th).copied();
        // 1/scale over the ends and the middle of its range.
        for inv in [1.0, 0.5, 2.0, exp2i(-121), exp2i(126)] {
            for v in inputs() {
                assert_eq!(
                    int8_quantize(v, inv),
                    quantize_reference(v, inv),
                    "{v:e} ({:#010x}) at 1/scale {inv:e}",
                    v.to_bits()
                );
            }
        }
        let single = inputs().map(|v| vec![v]);
        for data in single.chain(
            probes
                .chunks(7)
                .chain(every_997th.chunks(61))
                .map(<[f32]>::to_vec),
        ) {
            assert_eq!(
                int8_scale(&data).to_bits(),
                scale_reference(&data).to_bits(),
                "{data:?}"
            );
        }
    }

    /// Both quantizers compute `y = v · (1/scale)` the same way, so sweeping
    /// every pattern of `y` at `1/scale = 1` covers every input their
    /// rounding can see.
    #[test]
    #[ignore = "sweeps all 2^32 patterns, about half a minute in release; CI runs it by name"]
    fn int8_quantize_matches_the_reference_on_every_bit_pattern() {
        let mismatch = (0..=u32::MAX)
            .map(f32::from_bits)
            .find(|&v| int8_quantize(v, 1.0) != quantize_reference(v, 1.0));
        if let Some(v) = mismatch {
            panic!(
                "{v:e} ({:#010x}): {} vs {}",
                v.to_bits(),
                int8_quantize(v, 1.0),
                quantize_reference(v, 1.0)
            );
        }
    }
}
