//! Naive reference implementations of the hot kernels.
//!
//! These are the seed repository's original direct loops, kept for two jobs:
//!
//! * **oracles** — the property tests assert the blocked/parallel kernels in
//!   [`super::gemm`] and [`super::conv`] match them within tolerance over
//!   randomised shapes, strides, paddings and thread counts, and that the
//!   row-walking broadcast, reduction and permutation kernels behind
//!   `Tensor::add` and friends, `Tensor::reduce_to_shape`, `Tensor::permute`
//!   and `Tensor::sum_axis` match the per-element loops here bit for bit;
//! * **baselines** — the `perf` binary of `pelta-bench` measures speedup of
//!   the packed kernels against them on the paper workloads.
//!
//! They assume pre-validated operands (the public `Tensor` methods do the
//! shape checking before dispatching to the fast kernels).

use crate::{Conv2dSpec, Result, Shape, Tensor, TensorError};

/// Per-element broadcasting zip `f(a, b)`: every output offset is
/// unflattened into an index and mapped back to each operand's offset.
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] if the shapes are not
/// broadcast-compatible.
pub fn naive_broadcast_zip<F: Fn(f32, f32) -> f32>(a: &Tensor, b: &Tensor, f: F) -> Result<Tensor> {
    let lhs_shape = a.shape();
    let rhs_shape = b.shape();
    let out_shape = lhs_shape.broadcast_with(&rhs_shape)?;
    let numel = out_shape.numel();
    let mut data = Vec::with_capacity(numel);
    for offset in 0..numel {
        let out_index = out_shape.unflatten_index(offset)?;
        let x = a.data()[lhs_shape.broadcast_source_offset(&out_index)];
        let y = b.data()[rhs_shape.broadcast_source_offset(&out_index)];
        data.push(f(x, y));
    }
    Tensor::from_vec(data, out_shape.dims())
}

/// Per-element `Tensor::reduce_to_shape`: each source offset, in ascending
/// order, is added onto its destination, which starts at +0.0. A target
/// equal to the source shape returns a copy.
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] if `target` does not broadcast to
/// the source shape.
pub fn naive_reduce_to_shape(src: &Tensor, target: &[usize]) -> Result<Tensor> {
    let target_shape = Shape::new(target);
    if src.shape().same_dims(&target_shape) {
        return Ok(src.clone());
    }
    let broadcast = target_shape.broadcast_with(&src.shape())?;
    if !broadcast.same_dims(&src.shape()) {
        return Err(TensorError::ShapeMismatch {
            op: "reduce_to_shape",
            lhs: src.dims().to_vec(),
            rhs: target.to_vec(),
        });
    }
    let mut out = Tensor::zeros(target);
    let src_shape = src.shape();
    for offset in 0..src.numel() {
        let idx = src_shape.unflatten_index(offset)?;
        let dst = target_shape.broadcast_source_offset(&idx);
        out.data_mut()[dst] += src.data()[offset];
    }
    Ok(out)
}

/// Per-element axis permutation; `axes` must be a permutation of
/// `0..rank`.
///
/// # Errors
/// Returns an error if an index falls outside its shape (it never does for
/// a valid permutation).
pub fn naive_permute(t: &Tensor, axes: &[usize]) -> Result<Tensor> {
    let src_shape = t.shape();
    let new_dims: Vec<usize> = axes.iter().map(|&a| t.dims()[a]).collect();
    let dst_shape = Shape::new(&new_dims);
    let mut data = vec![0.0f32; t.numel()];
    for (dst_offset, d) in data.iter_mut().enumerate() {
        let dst_index = dst_shape.unflatten_index(dst_offset)?;
        let mut src_index = vec![0usize; t.rank()];
        for (dst_axis, &src_axis) in axes.iter().enumerate() {
            src_index[src_axis] = dst_index[dst_axis];
        }
        *d = t.data()[src_shape.flatten_index(&src_index)?];
    }
    Tensor::from_vec(data, &new_dims)
}

/// Outer/middle/inner loop `Tensor::sum_axis`: each output starts at +0.0
/// and adds its terms in ascending source offset.
///
/// # Errors
/// Never for an `axis` below the rank.
///
/// # Panics
/// Panics if `axis >= rank`.
pub fn naive_sum_axis(t: &Tensor, axis: usize, keep_dims: bool) -> Result<Tensor> {
    let dims = t.dims();
    let outer: usize = dims[..axis].iter().product();
    let mid = dims[axis];
    let inner: usize = dims[axis + 1..].iter().product();
    let mut data = vec![0.0f32; outer * inner];
    for o in 0..outer {
        for m in 0..mid {
            let base = (o * mid + m) * inner;
            for i in 0..inner {
                data[o * inner + i] += t.data()[base + i];
            }
        }
    }
    let shape = if keep_dims {
        t.shape().collapse_axis(axis)?
    } else {
        t.shape().remove_axis(axis)?
    };
    Tensor::from_vec(data, shape.dims())
}

/// Naive i-k-j matrix multiplication `[m, k] × [k, n] → [m, n]`.
///
/// # Errors
/// Returns an error if the output shape is invalid (it never is for valid
/// rank-2 operands).
pub fn naive_matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let av = a.data();
    let bv = b.data();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let a_ik = av[i * k + kk];
            let b_row = &bv[kk * n..(kk + 1) * n];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &bx) in out_row.iter_mut().zip(b_row) {
                *o += a_ik * bx;
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Naive direct 2-D convolution (seven nested loops).
///
/// # Errors
/// Returns an error on geometry mismatch.
pub fn naive_conv2d(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Result<Tensor> {
    let pad = spec.padding.amount();
    let padded = if pad > 0 {
        input.pad2d(pad, pad)?
    } else {
        input.clone()
    };
    let (n, c_in, h, w) = (
        padded.dims()[0],
        padded.dims()[1],
        padded.dims()[2],
        padded.dims()[3],
    );
    let (c_out, kh, kw) = (weight.dims()[0], weight.dims()[2], weight.dims()[3]);
    let oh = spec.output_size(input.dims()[2], kh)?;
    let ow = spec.output_size(input.dims()[3], kw)?;
    let s = spec.stride;
    let mut out = vec![0.0f32; n * c_out * oh * ow];
    let x = padded.data();
    let k = weight.data();
    for ni in 0..n {
        for co in 0..c_out {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ci in 0..c_in {
                        for ky in 0..kh {
                            let iy = oy * s + ky;
                            let x_row = ((ni * c_in + ci) * h + iy) * w + ox * s;
                            let k_row = ((co * c_in + ci) * kh + ky) * kw;
                            for kx in 0..kw {
                                acc += x[x_row + kx] * k[k_row + kx];
                            }
                        }
                    }
                    out[((ni * c_out + co) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c_out, oh, ow])
}

/// Naive input gradient of [`naive_conv2d`].
///
/// # Errors
/// Returns an error on geometry mismatch.
pub fn naive_conv2d_input_grad(
    grad_out: &Tensor,
    weight: &Tensor,
    input_shape: &[usize],
    spec: Conv2dSpec,
) -> Result<Tensor> {
    let pad = spec.padding.amount();
    let (n, c_in, h, w) = (
        input_shape[0],
        input_shape[1],
        input_shape[2] + 2 * pad,
        input_shape[3] + 2 * pad,
    );
    let (c_out, kh, kw) = (weight.dims()[0], weight.dims()[2], weight.dims()[3]);
    let (oh, ow) = (grad_out.dims()[2], grad_out.dims()[3]);
    let s = spec.stride;
    let mut grad_padded = vec![0.0f32; n * c_in * h * w];
    let g = grad_out.data();
    let k = weight.data();
    for ni in 0..n {
        for co in 0..c_out {
            for oy in 0..oh {
                for ox in 0..ow {
                    let go = g[((ni * c_out + co) * oh + oy) * ow + ox];
                    for ci in 0..c_in {
                        for ky in 0..kh {
                            let iy = oy * s + ky;
                            let gx_row = ((ni * c_in + ci) * h + iy) * w + ox * s;
                            let k_row = ((co * c_in + ci) * kh + ky) * kw;
                            for kx in 0..kw {
                                grad_padded[gx_row + kx] += go * k[k_row + kx];
                            }
                        }
                    }
                }
            }
        }
    }
    let padded = Tensor::from_vec(grad_padded, &[n, c_in, h, w])?;
    if pad > 0 {
        padded.unpad2d(pad, pad)
    } else {
        Ok(padded)
    }
}

/// Naive weight gradient of [`naive_conv2d`].
///
/// # Errors
/// Returns an error on geometry mismatch.
pub fn naive_conv2d_weight_grad(
    input: &Tensor,
    grad_out: &Tensor,
    kernel_shape: &[usize],
    spec: Conv2dSpec,
) -> Result<Tensor> {
    let pad = spec.padding.amount();
    let padded = if pad > 0 {
        input.pad2d(pad, pad)?
    } else {
        input.clone()
    };
    let (n, c_in, h, w) = (
        padded.dims()[0],
        padded.dims()[1],
        padded.dims()[2],
        padded.dims()[3],
    );
    let (c_out, kh, kw) = (kernel_shape[0], kernel_shape[2], kernel_shape[3]);
    let (oh, ow) = (grad_out.dims()[2], grad_out.dims()[3]);
    let s = spec.stride;
    let mut grad_w = vec![0.0f32; c_out * c_in * kh * kw];
    let x = padded.data();
    let g = grad_out.data();
    for ni in 0..n {
        for co in 0..c_out {
            for oy in 0..oh {
                for ox in 0..ow {
                    let go = g[((ni * c_out + co) * oh + oy) * ow + ox];
                    for ci in 0..c_in {
                        for ky in 0..kh {
                            let iy = oy * s + ky;
                            let x_row = ((ni * c_in + ci) * h + iy) * w + ox * s;
                            let w_row = ((co * c_in + ci) * kh + ky) * kw;
                            for kx in 0..kw {
                                grad_w[w_row + kx] += go * x[x_row + kx];
                            }
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(grad_w, kernel_shape)
}
