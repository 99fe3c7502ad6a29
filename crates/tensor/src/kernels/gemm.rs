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
//! Products with `m·k·n ≤ 48³` skip the packing and run a small GEMM that
//! holds a block of up to `4 × 16` outputs in registers across the whole `k`
//! loop.
//!
//! # Determinism
//!
//! Every output element accumulates its `k` products in strictly ascending
//! order: `KC` blocks are visited sequentially and the micro-kernel walks
//! `p = 0..kc` in order. Row blocks only partition *which* outputs a task
//! owns, never the summation order, so results are bit-identical at any
//! thread count on a given host.
//!
//! The two paths round differently. The packed path fuses each term's
//! multiply and add (every micro-kernel, the portable one included), so it
//! is *not* bitwise-identical to the scalar naive reference, which rounds
//! twice per term; the property tests compare it with a tolerance. The
//! small GEMM multiplies and then adds on every path, so it has the bits of
//! [`super::reference::naive_matmul`] on every host.

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
/// save; the unpacked [`small_gemm`] is used instead. The threshold depends
/// only on the operand shapes, never on the thread count, so the chosen path
/// (and therefore the rounding) is stable for a given problem.
const SMALL_GEMM_FLOPS: usize = 48 * 48 * 48;
/// Output rows one small-GEMM block keeps in registers.
const SMALL_ROWS: usize = 4;
/// Width of a full small-GEMM block: one 512-bit lane on AVX-512.
const SMALL_WIDE: usize = 16;
/// Width of the narrow blocks that follow the full ones, and of the
/// zero-padded tail.
const SMALL_NARROW: usize = 8;

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

/// Unpacked GEMM for small problems (accumulates into `out`). A transposed B
/// is first copied `[k, n]` into the thread's B packing buffer, so the
/// kernel always reads a contiguous row of `op(B)`; the last `n % 8`
/// columns of `op(B)` are also copied, zero-padded, into a `[k, 8]` panel
/// there, so no column block reads a partial row. Each output starts from
/// its current value and adds its `a·b` products (multiply, then add) in
/// ascending `p`, which are the bits of the naive reference.
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
    with_pack_buffer(&PACK_B_BUF, |buf| {
        let copy_len = if trans_b { k * n } else { 0 };
        let panel_len = if n.is_multiple_of(SMALL_NARROW) {
            0
        } else {
            k * SMALL_NARROW
        };
        ensure_len(buf, copy_len + panel_len);
        let (bt, tail) = buf[..copy_len + panel_len].split_at_mut(copy_len);
        let b = if trans_b {
            for (j, b_row) in b.chunks_exact(k).enumerate() {
                for (p, &v) in b_row.iter().enumerate() {
                    bt[p * n + j] = v;
                }
            }
            &*bt
        } else {
            b
        };
        fill_tail_panel(b, n, tail);
        small_gemm_rows(trans_a, a, b, tail, m, k, n, out);
    });
}

/// Copies the last `n % 8` columns of the row-major `[k, n]` `b` into
/// `panel` as `[k, 8]` rows, zero-padded (nothing when `panel` is empty).
fn fill_tail_panel(b: &[f32], n: usize, panel: &mut [f32]) {
    let full = n - n % SMALL_NARROW;
    for (panel_row, b_row) in panel.chunks_exact_mut(SMALL_NARROW).zip(b.chunks_exact(n)) {
        for (c, v) in panel_row.iter_mut().enumerate() {
            *v = if full + c < n { b_row[full + c] } else { 0.0 };
        }
    }
}

/// The small GEMM over a row-major `[k, n]` B and the `[k, 8]` panel of its
/// zero-padded last `n % 8` columns (empty when there are none).
///
/// Dispatches to the body compiled for AVX-512 or AVX2 when the CPU supports
/// them (the checks are cached by `std`), as [`micro_kernel`] does. No path
/// fuses a multiply with its add, so every path gives the same bits.
#[allow(clippy::too_many_arguments)]
fn small_gemm_rows(
    trans_a: bool,
    a: &[f32],
    b: &[f32],
    tail: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the required target feature was just detected.
            return unsafe { small_gemm_rows_avx512(trans_a, a, b, tail, m, k, n, out) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the required target feature was just detected.
            return unsafe { small_gemm_rows_avx2(trans_a, a, b, tail, m, k, n, out) };
        }
    }
    small_gemm_rows_body(trans_a, a, b, tail, m, k, n, out);
}

/// [`small_gemm_rows_body`] compiled for AVX-512.
///
/// # Safety
/// The caller must have verified `avx512f` support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn small_gemm_rows_avx512(
    trans_a: bool,
    a: &[f32],
    b: &[f32],
    tail: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    small_gemm_rows_body(trans_a, a, b, tail, m, k, n, out);
}

/// [`small_gemm_rows_body`] compiled for AVX2.
///
/// # Safety
/// The caller must have verified `avx2` support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn small_gemm_rows_avx2(
    trans_a: bool,
    a: &[f32],
    b: &[f32],
    tail: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    small_gemm_rows_body(trans_a, a, b, tail, m, k, n, out);
}

/// Walks the output in blocks of [`SMALL_ROWS`] rows (single rows for the
/// remainder).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn small_gemm_rows_body(
    trans_a: bool,
    a: &[f32],
    b: &[f32],
    tail: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    let mut i0 = 0;
    while i0 + SMALL_ROWS <= m {
        small_row_block::<SMALL_ROWS>(trans_a, a, b, tail, m, k, n, i0, out);
        i0 += SMALL_ROWS;
    }
    for i in i0..m {
        small_row_block::<1>(trans_a, a, b, tail, m, k, n, i, out);
    }
}

/// The `R` output rows starting at `i0`, in [`SMALL_WIDE`]-wide column
/// blocks, then [`SMALL_NARROW`]-wide ones, then one block over the
/// zero-padded `tail` panel.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn small_row_block<const R: usize>(
    trans_a: bool,
    a: &[f32],
    b: &[f32],
    tail: &[f32],
    m: usize,
    k: usize,
    n: usize,
    i0: usize,
    out: &mut [f32],
) {
    let a = (trans_a, a, m, k);
    let mut j0 = 0;
    while j0 + SMALL_WIDE <= n {
        small_tile::<R, SMALL_WIDE>(a, b, n, j0, out, n, i0, j0, SMALL_WIDE);
        j0 += SMALL_WIDE;
    }
    while j0 + SMALL_NARROW <= n {
        small_tile::<R, SMALL_NARROW>(a, b, n, j0, out, n, i0, j0, SMALL_NARROW);
        j0 += SMALL_NARROW;
    }
    if j0 < n {
        small_tile::<R, SMALL_NARROW>(a, tail, SMALL_NARROW, 0, out, n, i0, j0, n - j0);
    }
}

/// One `R × W` block of outputs at `(i0, j0)`, of which the first `width`
/// columns are real, against columns `b_col..b_col + W` of a B stored with
/// row stride `b_stride`; `a` is `(trans_a, a, m, k)` as [`a_at`] takes
/// them. The block is loaded into local accumulators, takes every `p` in
/// ascending order as one multiply and then one add, and is stored once;
/// lanes past `width` are dropped.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn small_tile<const R: usize, const W: usize>(
    (trans_a, a, m, k): (bool, &[f32], usize, usize),
    b: &[f32],
    b_stride: usize,
    b_col: usize,
    out: &mut [f32],
    n: usize,
    i0: usize,
    j0: usize,
    width: usize,
) {
    let mut acc = [[0.0f32; W]; R];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        let start = (i0 + r) * n + j0;
        acc_row[..width].copy_from_slice(&out[start..start + width]);
    }
    for (p, b_row) in b.chunks_exact(b_stride).enumerate() {
        let bv = &b_row[b_col..b_col + W];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let av = a_at(trans_a, a, m, k, i0 + r, p);
            for (o, &x) in acc_row.iter_mut().zip(bv) {
                *o += av * x;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let start = (i0 + r) * n + j0;
        out[start..start + width].copy_from_slice(&acc_row[..width]);
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
/// `p` order with one fused multiply-add per term, so the paths agree bit
/// for bit.
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

/// Portable micro-kernel. Works on one 16-column half at a time to keep the
/// live accumulator set small. Each term is one fused multiply-add, as in
/// the AVX kernels, so every kernel gives the same bits; on a target without
/// hardware FMA, `f32::mul_add` is a (slow) library call.
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
                    acc[r][c] = av.mul_add(b[c], acc[r][c]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    type MicroKernel = fn(usize, &[f32], &[f32]) -> [[f32; NR]; MR];
    type SmallGemm = fn(bool, &[f32], &[f32], &[f32], usize, usize, usize, &mut [f32]);

    /// The micro-kernels this CPU runs besides the portable one.
    fn offered_micro_kernels() -> Vec<(&'static str, MicroKernel)> {
        let mut kernels: Vec<(&'static str, MicroKernel)> = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: the required target feature was detected above.
                kernels.push(("avx512f", |kc, a, b| unsafe {
                    micro_kernel_avx512(kc, a, b)
                }));
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                kernels.push(("avx2+fma", |kc, a, b| {
                    let mut out = [[0.0f32; NR]; MR];
                    // SAFETY: the required target features were detected above.
                    unsafe {
                        micro_kernel_fma_half(kc, a, b, 0, &mut out);
                        micro_kernel_fma_half(kc, a, b, NR_HALF, &mut out);
                    }
                    out
                }));
            }
        }
        kernels
    }

    /// The small-GEMM bodies this CPU runs besides the plain one.
    fn offered_small_gemms() -> Vec<(&'static str, SmallGemm)> {
        let mut paths: Vec<(&'static str, SmallGemm)> = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: the required target feature was detected above.
                paths.push(("avx512f", |ta, a, b, tail, m, k, n, out| unsafe {
                    small_gemm_rows_avx512(ta, a, b, tail, m, k, n, out)
                }));
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the required target feature was detected above.
                paths.push(("avx2", |ta, a, b, tail, m, k, n, out| unsafe {
                    small_gemm_rows_avx2(ta, a, b, tail, m, k, n, out)
                }));
            }
        }
        paths
    }

    fn uniform(rng: &mut ChaCha8Rng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-4.0f32..4.0)).collect()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    /// Every micro-kernel this CPU runs gives the portable kernel's bits, on
    /// 50 random tile pairs at each depth (32 000 outputs in all).
    #[test]
    fn every_micro_kernel_matches_the_portable_one() {
        let kernels = offered_micro_kernels();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for kc in [1, 7, 16, 65, 256] {
            for _ in 0..50 {
                let a_tile = uniform(&mut rng, kc * MR);
                let b_tile = uniform(&mut rng, kc * NR);
                let portable = micro_kernel_generic(kc, &a_tile, &b_tile);
                for (name, kernel) in &kernels {
                    let out = kernel(kc, &a_tile, &b_tile);
                    assert_eq!(
                        bits(out.as_flattened()),
                        bits(portable.as_flattened()),
                        "{name}, kc={kc}"
                    );
                }
            }
        }
    }

    /// Every small-GEMM body this CPU runs gives the plain body's bits, over
    /// shapes that hit every row and column block edge, from a non-zero
    /// starting output.
    #[test]
    fn every_small_gemm_path_matches_the_plain_one() {
        let paths = offered_small_gemms();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        for trans_a in [false, true] {
            for m in [1, 3, 4, 5, 8, 9, 65] {
                for n in [1, 7, 8, 9, 15, 16, 17, 24, 25, 33, 65] {
                    for k in [1, 8, 65] {
                        let a = uniform(&mut rng, m * k);
                        let b = uniform(&mut rng, k * n);
                        let start = uniform(&mut rng, m * n);
                        let mut tail = vec![0.0f32; k * SMALL_NARROW];
                        fill_tail_panel(&b, n, &mut tail);
                        let mut plain = start.clone();
                        small_gemm_rows_body(trans_a, &a, &b, &tail, m, k, n, &mut plain);
                        for (name, path) in &paths {
                            let mut out = start.clone();
                            path(trans_a, &a, &b, &tail, m, k, n, &mut out);
                            assert_eq!(
                                bits(&out),
                                bits(&plain),
                                "{name}, m={m} k={k} n={n} trans_a={trans_a}"
                            );
                        }
                    }
                }
            }
        }
    }
}
