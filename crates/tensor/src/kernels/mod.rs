//! The compute backend behind every hot `Tensor` operation.
//!
//! Four families of kernels live here; the first three run on the shared
//! [`crate::pool`] thread pool:
//!
//! * [`gemm`] — cache-blocked, panel-packed matrix multiplication with
//!   transpose variants (`A·B`, `A·Bᵀ`, `Aᵀ·B`) and a batched driver;
//! * [`conv`] — 2-D convolution forward and both gradients lowered to
//!   im2col/col2im plus the blocked GEMM;
//! * the parallel element-wise map/zip and chunked ordered reductions in
//!   this module, used by the large-tensor paths of `ops.rs` / `reduce.rs`;
//! * the single-threaded row walkers in `strided`, behind mixed-shape
//!   broadcasting, `reduce_to_shape` and `permute`.
//!
//! # Determinism
//!
//! Every kernel fixes its floating-point summation order independently of
//! the thread count: split points are functions of the operand shapes alone,
//! partial reductions combine in task-index order, and parallel tasks write
//! disjoint output regions. `PELTA_THREADS=1` and `PELTA_THREADS=N` produce
//! bit-identical tensors.
//!
//! [`mod@reference`] keeps the seed repository's naive loops as property-test
//! oracles and as the baseline the `perf` binary of `pelta-bench` measures
//! speedups against.

pub mod conv;
pub mod gemm;
pub mod reference;
pub(crate) mod strided;

use crate::pool::ThreadPool;

/// Minimum element count before an element-wise op fans out to the pool.
const PAR_ELEMWISE_MIN: usize = 1 << 15;

/// Fixed chunk length for parallel element-wise ops and reductions. Chunk
/// boundaries depend only on this constant (never the thread count), which
/// pins the reduction order of [`par_sum_map`] and [`par_dot`].
const PAR_CHUNK: usize = 1 << 14;

/// Raw-pointer wrapper letting pool tasks write disjoint output regions.
pub(crate) struct SendPtr<T>(pub(crate) *mut T);

// SAFETY: users index disjoint regions per task (enforced by construction at
// every call site).
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The wrapped pointer. Going through a method (rather than the field)
    /// makes closures capture the `Sync` wrapper, not the raw pointer.
    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

/// `dst[i] = f(src[i])`, fanned out in fixed-size chunks for large buffers.
pub fn par_map_into<F>(pool: &ThreadPool, src: &[f32], dst: &mut [f32], f: F)
where
    F: Fn(f32) -> f32 + Sync,
{
    assert_eq!(src.len(), dst.len(), "par_map_into: length mismatch");
    let len = src.len();
    if len < PAR_ELEMWISE_MIN {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = f(s);
        }
        return;
    }
    let dst_ptr = SendPtr(dst.as_mut_ptr());
    pool.run(len.div_ceil(PAR_CHUNK), &|t| {
        let start = t * PAR_CHUNK;
        let end = (start + PAR_CHUNK).min(len);
        // SAFETY: chunks are disjoint.
        let d = unsafe { std::slice::from_raw_parts_mut(dst_ptr.get().add(start), end - start) };
        for (d, &s) in d.iter_mut().zip(&src[start..end]) {
            *d = f(s);
        }
    });
}

/// In-place variant of [`par_map_into`].
pub fn par_map_inplace<F>(pool: &ThreadPool, data: &mut [f32], f: F)
where
    F: Fn(f32) -> f32 + Sync,
{
    let len = data.len();
    if len < PAR_ELEMWISE_MIN {
        for x in data {
            *x = f(*x);
        }
        return;
    }
    let ptr = SendPtr(data.as_mut_ptr());
    pool.run(len.div_ceil(PAR_CHUNK), &|t| {
        let start = t * PAR_CHUNK;
        let end = (start + PAR_CHUNK).min(len);
        // SAFETY: chunks are disjoint.
        let d = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(start), end - start) };
        for x in d {
            *x = f(*x);
        }
    });
}

/// `dst[i] = f(a[i], b[i])` over same-length buffers, chunk-parallel.
pub fn par_zip_into<F>(pool: &ThreadPool, a: &[f32], b: &[f32], dst: &mut [f32], f: F)
where
    F: Fn(f32, f32) -> f32 + Sync,
{
    assert_eq!(a.len(), b.len(), "par_zip_into: input length mismatch");
    assert_eq!(a.len(), dst.len(), "par_zip_into: output length mismatch");
    let len = a.len();
    if len < PAR_ELEMWISE_MIN {
        for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
            *d = f(x, y);
        }
        return;
    }
    let dst_ptr = SendPtr(dst.as_mut_ptr());
    pool.run(len.div_ceil(PAR_CHUNK), &|t| {
        let start = t * PAR_CHUNK;
        let end = (start + PAR_CHUNK).min(len);
        // SAFETY: chunks are disjoint.
        let d = unsafe { std::slice::from_raw_parts_mut(dst_ptr.get().add(start), end - start) };
        for ((d, &x), &y) in d.iter_mut().zip(&a[start..end]).zip(&b[start..end]) {
            *d = f(x, y);
        }
    });
}

/// `Σ f(x)` with fixed-size chunks whose partial sums combine in chunk order
/// — the same value at every thread count (the chunking, and therefore the
/// rounding, depends only on the buffer length).
pub fn par_sum_map<F>(pool: &ThreadPool, data: &[f32], f: F) -> f32
where
    F: Fn(f32) -> f32 + Sync,
{
    let len = data.len();
    if len < PAR_ELEMWISE_MIN {
        return data.iter().map(|&x| f(x)).sum();
    }
    let tasks = len.div_ceil(PAR_CHUNK);
    let mut partials = vec![0.0f32; tasks];
    let partials_ptr = SendPtr(partials.as_mut_ptr());
    pool.run(tasks, &|t| {
        let start = t * PAR_CHUNK;
        let end = (start + PAR_CHUNK).min(len);
        let sum: f32 = data[start..end].iter().map(|&x| f(x)).sum();
        // SAFETY: one slot per task.
        unsafe {
            *partials_ptr.get().add(t) = sum;
        }
    });
    partials.iter().sum()
}

/// `Σ a[i]·b[i]` with the same fixed, ordered chunking as [`par_sum_map`].
pub fn par_dot(pool: &ThreadPool, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "par_dot: length mismatch");
    let len = a.len();
    if len < PAR_ELEMWISE_MIN {
        return a.iter().zip(b).map(|(&x, &y)| x * y).sum();
    }
    let tasks = len.div_ceil(PAR_CHUNK);
    let mut partials = vec![0.0f32; tasks];
    let partials_ptr = SendPtr(partials.as_mut_ptr());
    pool.run(tasks, &|t| {
        let start = t * PAR_CHUNK;
        let end = (start + PAR_CHUNK).min(len);
        let sum: f32 = a[start..end]
            .iter()
            .zip(&b[start..end])
            .map(|(&x, &y)| x * y)
            .sum();
        // SAFETY: one slot per task.
        unsafe {
            *partials_ptr.get().add(t) = sum;
        }
    });
    partials.iter().sum()
}
