//! Cache-blocked, panel-packed single-precision matrix multiplication.
//!
//! The kernel follows the classic three-level blocking scheme (BLIS/GotoBLAS
//! structure): the `n` dimension is split into `NC` column blocks, `k` into
//! `KC` depth blocks whose B panel is packed once and shared, and `m` into
//! `MC` row blocks that are distributed across the thread pool. Inside a row
//! block an `MR × NR` register-tiled micro-kernel accumulates into a
//! fixed-size array the compiler keeps in vector registers, so each `a`/`b`
//! element is loaded once per block rather than once per multiply (the naive
//! i-k-j loop stores and reloads the output row on every `k` step).
//!
//! # Determinism
//!
//! Every output element accumulates its `k` products in strictly ascending
//! order: `KC` blocks are visited sequentially and the micro-kernel walks
//! `p = 0..kc` in order. Row blocks only partition *which* outputs a task
//! owns, never the summation order, so results are bit-identical at any
//! thread count on a given host. (They are *not* bitwise-identical to the
//! scalar naive reference on FMA-capable CPUs — fused multiply-add rounds
//! once per term instead of twice — which is why the property tests compare
//! against the oracle with a tolerance.)

use std::cell::RefCell;
use std::thread::LocalKey;

use super::SendPtr;
use crate::pool::ThreadPool;

thread_local! {
    /// Reusable packing buffer for the shared B panel of a `KC × NC` block.
    /// Packing into a per-thread buffer removes the `Vec` allocation the hot
    /// loop previously paid once per depth block.
    static PACK_B_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Reusable packing buffer for the per-task A row panels.
    static PACK_A_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on the thread's reusable packing buffer. Falls back to a fresh
/// allocation if the buffer is already borrowed further up the call stack
/// (re-entrant kernels), so reuse is purely an optimisation, never a
/// correctness concern. Users overwrite every element they expose, so stale
/// contents from a previous call are harmless.
pub(super) fn with_pack_buffer<R>(
    key: &'static LocalKey<RefCell<Vec<f32>>>,
    f: impl FnOnce(&mut Vec<f32>) -> R,
) -> R {
    key.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => f(&mut buf),
        Err(_) => f(&mut Vec::new()),
    })
}

/// Grows `buf` to at least `len` elements without touching the prefix.
pub(super) fn ensure_len(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Micro-kernel rows (distinct A values held in registers).
const MR: usize = 4;
/// Micro-kernel columns (output vector width per A value): two 512-bit
/// lanes on AVX-512, four 256-bit lanes on AVX2 (processed as two 16-wide
/// halves), plain arrays on the generic fallback.
const NR: usize = 32;
/// Half-tile width used by the AVX2 and generic kernels.
const NR_HALF: usize = 16;
/// Row-block size distributed across the pool (A panel: `MC × KC` ≈ 64 KiB).
const MC: usize = 64;
/// Depth-block size (B panel rows packed per pass).
const KC: usize = 256;
/// Column-block size (B panel: `KC × NC` ≤ 4 MiB, streamed once per block).
const NC: usize = 4096;

/// Below this `m·k·n` product the packing and task setup cost more than they
/// save; a plain register-free triple loop is used instead. The threshold
/// depends only on the operand shapes, never on the thread count, so the
/// chosen path (and therefore the rounding) is stable for a given problem.
const SMALL_GEMM_FLOPS: usize = 48 * 48 * 48;

/// `out = op(A) · op(B)` (or `out += …` when `accumulate`), where
/// `op(A)` is `[m, k]` and `op(B)` is `[k, n]`.
///
/// `trans_a == false` means `a` is stored row-major `[m, k]`; `true` means it
/// is stored `[k, m]` and used transposed (likewise `b`: `[k, n]` plain,
/// `[n, k]` transposed). The transposed variants let callers multiply by a
/// transpose without materialising it.
///
/// # Panics
/// Panics if a buffer length disagrees with its dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    pool: &ThreadPool,
    trans_a: bool,
    a: &[f32],
    trans_b: bool,
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    accumulate: bool,
) {
    assert_eq!(a.len(), m * k, "gemm: A buffer length mismatch");
    assert_eq!(b.len(), k * n, "gemm: B buffer length mismatch");
    assert_eq!(out.len(), m * n, "gemm: output buffer length mismatch");
    if !accumulate {
        out.fill(0.0);
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if m * k * n <= SMALL_GEMM_FLOPS {
        small_gemm(trans_a, a, trans_b, b, m, k, n, out);
        return;
    }
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            with_pack_buffer(&PACK_B_BUF, |bp_buf| {
                let bp = pack_b(bp_buf, trans_b, b, k, n, pc, kc, jc, nc);
                let tasks = m.div_ceil(MC);
                let out_ptr = SendPtr(out.as_mut_ptr());
                pool.run(tasks, &|t| {
                    let ic = t * MC;
                    let mc = MC.min(m - ic);
                    with_pack_buffer(&PACK_A_BUF, |ap_buf| {
                        let ap = pack_a(ap_buf, trans_a, a, m, k, ic, mc, pc, kc);
                        // SAFETY: this task writes only rows `ic..ic + mc`,
                        // disjoint from every other task's range.
                        unsafe {
                            multiply_block(ap, bp, mc, kc, nc, out_ptr.get(), ic, jc, n);
                        }
                    });
                });
            });
        }
    }
}

/// Element `(i, p)` of `op(A)`.
#[inline(always)]
fn a_at(trans_a: bool, a: &[f32], m: usize, k: usize, i: usize, p: usize) -> f32 {
    if trans_a {
        a[p * m + i]
    } else {
        a[i * k + p]
    }
}

/// Dense triple loop for small problems (accumulates into `out`). A
/// transposed B is first copied `[k, n]` into the thread's B packing buffer,
/// so the inner loop always reads a contiguous row of `op(B)`; each output
/// still adds `a·b` products (multiply, then add) in ascending `p`.
#[allow(clippy::too_many_arguments)]
fn small_gemm(
    trans_a: bool,
    a: &[f32],
    trans_b: bool,
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    if !trans_b {
        small_gemm_rows(trans_a, a, b, m, k, n, out);
        return;
    }
    with_pack_buffer(&PACK_B_BUF, |buf| {
        ensure_len(buf, k * n);
        let bt = &mut buf[..k * n];
        for (j, b_row) in b.chunks_exact(k).enumerate() {
            for (p, &v) in b_row.iter().enumerate() {
                bt[p * n + j] = v;
            }
        }
        small_gemm_rows(trans_a, a, bt, m, k, n, out);
    });
}

/// The i–p–j loop of [`small_gemm`] over a row-major `[k, n]` B.
fn small_gemm_rows(
    trans_a: bool,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
        for (p, b_row) in b.chunks_exact(n).enumerate() {
            let av = a_at(trans_a, a, m, k, i, p);
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Packs `op(B)[pc..pc+kc, jc..jc+nc]` into `NR`-wide column panels, each
/// panel laid out `p`-major so the micro-kernel reads it contiguously.
/// Ragged edges are zero-padded explicitly (the reused buffer may hold stale
/// values from a previous call).
#[allow(clippy::too_many_arguments)]
fn pack_b<'a>(
    buf: &'a mut Vec<f32>,
    trans_b: bool,
    b: &[f32],
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
) -> &'a [f32] {
    let panels = nc.div_ceil(NR);
    let len = panels * kc * NR;
    ensure_len(buf, len);
    let bp = &mut buf[..len];
    for panel in 0..panels {
        let j0 = panel * NR;
        let width = NR.min(nc - j0);
        let base = panel * kc * NR;
        for p in 0..kc {
            let row = &mut bp[base + p * NR..base + (p + 1) * NR];
            if !trans_b {
                let src = &b[(pc + p) * n + jc + j0..(pc + p) * n + jc + j0 + width];
                row[..width].copy_from_slice(src);
            } else {
                for (c, d) in row[..width].iter_mut().enumerate() {
                    *d = b[(jc + j0 + c) * k + pc + p];
                }
            }
            row[width..].fill(0.0);
        }
    }
    bp
}

/// Packs `op(A)[ic..ic+mc, pc..pc+kc]` into `MR`-tall row panels, `p`-major.
/// Ragged edges are zero-padded explicitly (the reused buffer may hold stale
/// values from a previous call).
#[allow(clippy::too_many_arguments)]
fn pack_a<'a>(
    buf: &'a mut Vec<f32>,
    trans_a: bool,
    a: &[f32],
    m: usize,
    k: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
) -> &'a [f32] {
    let panels = mc.div_ceil(MR);
    let len = panels * kc * MR;
    ensure_len(buf, len);
    let ap = &mut buf[..len];
    for panel in 0..panels {
        let i0 = panel * MR;
        let height = MR.min(mc - i0);
        let base = panel * kc * MR;
        for p in 0..kc {
            let tile = &mut ap[base + p * MR..base + (p + 1) * MR];
            for (r, t) in tile[..height].iter_mut().enumerate() {
                *t = a_at(trans_a, a, m, k, ic + i0 + r, pc + p);
            }
            tile[height..].fill(0.0);
        }
    }
    ap
}

/// Multiplies one packed `mc × kc` A block by the packed `kc × nc` B block,
/// accumulating into the output rows `ic..ic+mc`, columns `jc..jc+nc`.
///
/// # Safety
/// `out` must be valid for `m × n` elements and no other thread may touch
/// rows `ic..ic + mc` concurrently.
#[allow(clippy::too_many_arguments)]
unsafe fn multiply_block(
    ap: &[f32],
    bp: &[f32],
    mc: usize,
    kc: usize,
    nc: usize,
    out: *mut f32,
    ic: usize,
    jc: usize,
    n: usize,
) {
    // B panel outer / A panel inner: the `kc × NR` B tile stays L1-resident
    // while the smaller A tiles stream past it.
    for (b_panel, j0) in (0..nc).step_by(NR).enumerate() {
        let width = NR.min(nc - j0);
        let b_tile = &bp[b_panel * kc * NR..(b_panel + 1) * kc * NR];
        for (a_panel, i0) in (0..mc).step_by(MR).enumerate() {
            let height = MR.min(mc - i0);
            let a_tile = &ap[a_panel * kc * MR..(a_panel + 1) * kc * MR];
            let acc = micro_kernel(kc, a_tile, b_tile);
            for (r, acc_row) in acc.iter().enumerate().take(height) {
                let row = out.add((ic + i0 + r) * n + jc + j0);
                for (c, &v) in acc_row.iter().enumerate().take(width) {
                    *row.add(c) += v;
                }
            }
        }
    }
}

/// The register-tiled core: `MR × NR` accumulators over a `kc`-deep panel
/// pair. `p` ascends strictly, fixing the floating-point summation order.
///
/// Dispatches to the AVX-512 or AVX2+FMA kernel when the CPU supports them
/// (the checks are cached by `std`); the choice depends on the machine,
/// never on the thread count, so a given host always computes identical
/// results. Every path accumulates each output element in the same ascending
/// `p` order.
#[inline(always)]
fn micro_kernel(kc: usize, a_tile: &[f32], b_tile: &[f32]) -> [[f32; NR]; MR] {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the required target feature was just detected.
            return unsafe { micro_kernel_avx512(kc, a_tile, b_tile) };
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            let mut out = [[0.0f32; NR]; MR];
            // SAFETY: the required target features were just detected.
            unsafe {
                micro_kernel_fma_half(kc, a_tile, b_tile, 0, &mut out);
                micro_kernel_fma_half(kc, a_tile, b_tile, NR_HALF, &mut out);
            }
            return out;
        }
    }
    micro_kernel_generic(kc, a_tile, b_tile)
}

/// Portable micro-kernel; the fixed-size accumulator array vectorises on any
/// SIMD width the target offers. Works on one 16-column half at a time to
/// keep the live accumulator set small.
fn micro_kernel_generic(kc: usize, a_tile: &[f32], b_tile: &[f32]) -> [[f32; NR]; MR] {
    let mut out = [[0.0f32; NR]; MR];
    for half in [0, NR_HALF] {
        let mut acc = [[0.0f32; NR_HALF]; MR];
        for p in 0..kc {
            let a: &[f32; MR] = a_tile[p * MR..p * MR + MR].try_into().unwrap();
            let b: &[f32; NR_HALF] = b_tile[p * NR + half..p * NR + half + NR_HALF]
                .try_into()
                .unwrap();
            for r in 0..MR {
                let av = a[r];
                for c in 0..NR_HALF {
                    acc[r][c] += av * b[c];
                }
            }
        }
        for r in 0..MR {
            out[r][half..half + NR_HALF].copy_from_slice(&acc[r]);
        }
    }
    out
}

/// AVX-512 micro-kernel: 4×32 output tile held in eight 512-bit
/// accumulators, two B loads and four A broadcasts per `p` step.
///
/// # Safety
/// The caller must have verified `avx512f` support, and the packed tiles
/// must hold at least `kc` panels (`kc·MR` / `kc·NR` elements).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn micro_kernel_avx512(kc: usize, a_tile: &[f32], b_tile: &[f32]) -> [[f32; NR]; MR] {
    use std::arch::x86_64::{
        _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
    };
    debug_assert!(a_tile.len() >= kc * MR && b_tile.len() >= kc * NR);
    // Named accumulators (rather than an array) so none spill.
    let mut acc0_lo = _mm512_setzero_ps();
    let mut acc0_hi = _mm512_setzero_ps();
    let mut acc1_lo = _mm512_setzero_ps();
    let mut acc1_hi = _mm512_setzero_ps();
    let mut acc2_lo = _mm512_setzero_ps();
    let mut acc2_hi = _mm512_setzero_ps();
    let mut acc3_lo = _mm512_setzero_ps();
    let mut acc3_hi = _mm512_setzero_ps();
    let a_ptr = a_tile.as_ptr();
    let b_ptr = b_tile.as_ptr();
    // Unrolled by hand (the trip count is dynamic, so LLVM won't); each
    // accumulator still receives its `p` terms in strictly ascending order,
    // so the summation order — and the result — is unchanged.
    macro_rules! step {
        ($p:expr) => {
            let b_lo = _mm512_loadu_ps(b_ptr.add($p * NR));
            let b_hi = _mm512_loadu_ps(b_ptr.add($p * NR + 16));
            let a0 = _mm512_set1_ps(*a_ptr.add($p * MR));
            acc0_lo = _mm512_fmadd_ps(a0, b_lo, acc0_lo);
            acc0_hi = _mm512_fmadd_ps(a0, b_hi, acc0_hi);
            let a1 = _mm512_set1_ps(*a_ptr.add($p * MR + 1));
            acc1_lo = _mm512_fmadd_ps(a1, b_lo, acc1_lo);
            acc1_hi = _mm512_fmadd_ps(a1, b_hi, acc1_hi);
            let a2 = _mm512_set1_ps(*a_ptr.add($p * MR + 2));
            acc2_lo = _mm512_fmadd_ps(a2, b_lo, acc2_lo);
            acc2_hi = _mm512_fmadd_ps(a2, b_hi, acc2_hi);
            let a3 = _mm512_set1_ps(*a_ptr.add($p * MR + 3));
            acc3_lo = _mm512_fmadd_ps(a3, b_lo, acc3_lo);
            acc3_hi = _mm512_fmadd_ps(a3, b_hi, acc3_hi);
        };
    }
    let kc_even = kc & !1;
    let mut p = 0usize;
    while p < kc_even {
        step!(p);
        step!(p + 1);
        p += 2;
    }
    if p < kc {
        step!(p);
    }
    let mut out = [[0.0f32; NR]; MR];
    _mm512_storeu_ps(out[0].as_mut_ptr(), acc0_lo);
    _mm512_storeu_ps(out[0].as_mut_ptr().add(16), acc0_hi);
    _mm512_storeu_ps(out[1].as_mut_ptr(), acc1_lo);
    _mm512_storeu_ps(out[1].as_mut_ptr().add(16), acc1_hi);
    _mm512_storeu_ps(out[2].as_mut_ptr(), acc2_lo);
    _mm512_storeu_ps(out[2].as_mut_ptr().add(16), acc2_hi);
    _mm512_storeu_ps(out[3].as_mut_ptr(), acc3_lo);
    _mm512_storeu_ps(out[3].as_mut_ptr().add(16), acc3_hi);
    out
}

/// AVX2+FMA micro-kernel over one 16-column half of the 4×32 tile: eight
/// 256-bit accumulators, two B loads and four A broadcasts per `p` step.
///
/// # Safety
/// The caller must have verified `avx2` and `fma` support; `half` must be
/// `0` or [`NR_HALF`], and the packed tiles must hold at least `kc` panels.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_kernel_fma_half(
    kc: usize,
    a_tile: &[f32],
    b_tile: &[f32],
    half: usize,
    out: &mut [[f32; NR]; MR],
) {
    use std::arch::x86_64::{
        _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    debug_assert!(a_tile.len() >= kc * MR && b_tile.len() >= kc * NR);
    // Named accumulators (rather than an array) so none spill: 8 of the 16
    // ymm registers hold the half-tile, leaving room for the B lanes +
    // broadcast.
    let mut acc0_lo = _mm256_setzero_ps();
    let mut acc0_hi = _mm256_setzero_ps();
    let mut acc1_lo = _mm256_setzero_ps();
    let mut acc1_hi = _mm256_setzero_ps();
    let mut acc2_lo = _mm256_setzero_ps();
    let mut acc2_hi = _mm256_setzero_ps();
    let mut acc3_lo = _mm256_setzero_ps();
    let mut acc3_hi = _mm256_setzero_ps();
    let a_ptr = a_tile.as_ptr();
    let b_ptr = b_tile.as_ptr().add(half);
    macro_rules! step {
        ($p:expr) => {
            let b_lo = _mm256_loadu_ps(b_ptr.add($p * NR));
            let b_hi = _mm256_loadu_ps(b_ptr.add($p * NR + 8));
            let a0 = _mm256_set1_ps(*a_ptr.add($p * MR));
            acc0_lo = _mm256_fmadd_ps(a0, b_lo, acc0_lo);
            acc0_hi = _mm256_fmadd_ps(a0, b_hi, acc0_hi);
            let a1 = _mm256_set1_ps(*a_ptr.add($p * MR + 1));
            acc1_lo = _mm256_fmadd_ps(a1, b_lo, acc1_lo);
            acc1_hi = _mm256_fmadd_ps(a1, b_hi, acc1_hi);
            let a2 = _mm256_set1_ps(*a_ptr.add($p * MR + 2));
            acc2_lo = _mm256_fmadd_ps(a2, b_lo, acc2_lo);
            acc2_hi = _mm256_fmadd_ps(a2, b_hi, acc2_hi);
            let a3 = _mm256_set1_ps(*a_ptr.add($p * MR + 3));
            acc3_lo = _mm256_fmadd_ps(a3, b_lo, acc3_lo);
            acc3_hi = _mm256_fmadd_ps(a3, b_hi, acc3_hi);
        };
    }
    let kc_even = kc & !1;
    let mut p = 0usize;
    while p < kc_even {
        step!(p);
        step!(p + 1);
        p += 2;
    }
    if p < kc {
        step!(p);
    }
    _mm256_storeu_ps(out[0].as_mut_ptr().add(half), acc0_lo);
    _mm256_storeu_ps(out[0].as_mut_ptr().add(half + 8), acc0_hi);
    _mm256_storeu_ps(out[1].as_mut_ptr().add(half), acc1_lo);
    _mm256_storeu_ps(out[1].as_mut_ptr().add(half + 8), acc1_hi);
    _mm256_storeu_ps(out[2].as_mut_ptr().add(half), acc2_lo);
    _mm256_storeu_ps(out[2].as_mut_ptr().add(half + 8), acc2_hi);
    _mm256_storeu_ps(out[3].as_mut_ptr().add(half), acc3_lo);
    _mm256_storeu_ps(out[3].as_mut_ptr().add(half + 8), acc3_hi);
}

/// Batched `gemm` over `batch` independent `[m, k] × [k, n]` problems stored
/// contiguously. Small per-slice problems are distributed across the pool
/// (one task per slice, e.g. per-head attention matmuls); large slices run
/// sequentially with the row-parallel `gemm` inside.
#[allow(clippy::too_many_arguments)]
pub fn batch_gemm(
    pool: &ThreadPool,
    trans_a: bool,
    a: &[f32],
    trans_b: bool,
    b: &[f32],
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    assert_eq!(a.len(), batch * m * k, "batch_gemm: A buffer mismatch");
    assert_eq!(b.len(), batch * k * n, "batch_gemm: B buffer mismatch");
    assert_eq!(out.len(), batch * m * n, "batch_gemm: output mismatch");
    if batch == 0 {
        return;
    }
    // Path choice depends only on shapes → deterministic at any thread count.
    if batch > 1 && m * k * n <= MC * KC * NR {
        let out_ptr = SendPtr(out.as_mut_ptr());
        pool.run(batch, &|bi| {
            // SAFETY: each task owns the disjoint output slice `bi`.
            let out_slice =
                unsafe { std::slice::from_raw_parts_mut(out_ptr.get().add(bi * m * n), m * n) };
            gemm(
                pool,
                trans_a,
                &a[bi * m * k..(bi + 1) * m * k],
                trans_b,
                &b[bi * k * n..(bi + 1) * k * n],
                m,
                k,
                n,
                out_slice,
                false,
            );
        });
    } else {
        for bi in 0..batch {
            gemm(
                pool,
                trans_a,
                &a[bi * m * k..(bi + 1) * m * k],
                trans_b,
                &b[bi * k * n..(bi + 1) * k * n],
                m,
                k,
                n,
                &mut out[bi * m * n..(bi + 1) * m * n],
                false,
            );
        }
    }
}
