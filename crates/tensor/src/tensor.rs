//! The dense, row-major, contiguous [`Tensor`] type and its structural
//! operations (construction, reshaping, slicing, concatenation, transposes).

use crate::{Result, Shape, TensorError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense `f32` tensor stored contiguously in row-major order.
///
/// `Tensor` is the value type flowing through the whole reproduction: model
/// parameters, activations, gradients, adversarial perturbations and the
/// quantities sealed inside the simulated TEE enclave are all `Tensor`s.
///
/// # Example
///
/// ```rust
/// use pelta_tensor::Tensor;
/// # fn main() -> Result<(), pelta_tensor::TensorError> {
/// let x = Tensor::zeros(&[2, 3]);
/// assert_eq!(x.shape().dims(), &[2, 3]);
/// assert_eq!(x.numel(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor from a data buffer and a shape.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeDataMismatch`] if the buffer length does
    /// not equal the product of the dimensions, or if that product
    /// overflows `usize`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        // A zero axis empties the tensor whatever its sibling axes claim;
        // otherwise an overflowing product is a mismatch, never a wrapped
        // (or, with overflow checks on, panicking) element count.
        let numel = if shape.contains(&0) {
            Some(0)
        } else {
            shape.iter().try_fold(1usize, |n, &dim| n.checked_mul(dim))
        };
        if numel != Some(data.len()) {
            return Err(TensorError::ShapeDataMismatch {
                shape: shape.to_vec(),
                data_len: data.len(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Creates a rank-0 tensor holding a single scalar.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Vec::new(),
            data: vec![value],
        }
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![1.0; shape.iter().product()],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; shape.iter().product()],
        }
    }

    /// Identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Evenly spaced values `[0, 1, …, n-1]` as a rank-1 tensor.
    pub fn arange(n: usize) -> Self {
        Tensor {
            shape: vec![n],
            data: (0..n).map(|i| i as f32).collect(),
        }
    }

    /// Uniform random tensor in `[low, high)` drawn from `rng`.
    pub fn rand_uniform<R: Rng + ?Sized>(
        shape: &[usize],
        low: f32,
        high: f32,
        rng: &mut R,
    ) -> Self {
        let numel: usize = shape.iter().product();
        let data = (0..numel).map(|_| rng.gen_range(low..high)).collect();
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Standard-normal random tensor (Box–Muller) scaled by `std` and shifted
    /// by `mean`, drawn from `rng`.
    pub fn rand_normal<R: Rng + ?Sized>(shape: &[usize], mean: f32, std: f32, rng: &mut R) -> Self {
        let numel: usize = shape.iter().product();
        let mut data = Vec::with_capacity(numel);
        while data.len() < numel {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(mean + std * r * theta.cos());
            if data.len() < numel {
                data.push(mean + std * r * theta.sin());
            }
        }
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> Shape {
        Shape::new(&self.shape)
    }

    /// The dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the backing buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    /// Returns [`TensorError::IndexOutOfBounds`] if the index is invalid.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        let offset = self.shape().flatten_index(index)?;
        Ok(self.data[offset])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    /// Returns [`TensorError::IndexOutOfBounds`] if the index is invalid.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let offset = self.shape().flatten_index(index)?;
        self.data[offset] = value;
        Ok(())
    }

    /// The single value of a tensor with exactly one element.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] if the tensor has more than
    /// one element.
    pub fn item(&self) -> Result<f32> {
        if self.data.len() != 1 {
            return Err(TensorError::InvalidArgument {
                op: "item",
                reason: format!("tensor has {} elements, expected 1", self.data.len()),
            });
        }
        Ok(self.data[0])
    }

    /// Number of bytes occupied by the element data (f32 = 4 bytes each).
    ///
    /// Used by the enclave memory accounting of `pelta-tee` / `pelta-core`
    /// (Table I of the paper).
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    // ------------------------------------------------------------------
    // Structural operations
    // ------------------------------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidReshape`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        let numel: usize = shape.iter().product();
        if numel != self.data.len() {
            return Err(TensorError::InvalidReshape {
                from: self.shape.clone(),
                to: shape.to_vec(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// Flattens to rank 1.
    pub fn flatten(&self) -> Tensor {
        Tensor {
            shape: vec![self.data.len()],
            data: self.data.clone(),
        }
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] for tensors that are not rank 2.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut data = vec![0.0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(Tensor {
            shape: vec![c, r],
            data,
        })
    }

    /// Generalised axis permutation.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] if `axes` is not a
    /// permutation of `0..rank`.
    pub fn permute(&self, axes: &[usize]) -> Result<Tensor> {
        if axes.len() != self.rank() {
            return Err(TensorError::InvalidArgument {
                op: "permute",
                reason: format!("expected {} axes, got {}", self.rank(), axes.len()),
            });
        }
        let mut seen = vec![false; self.rank()];
        for &a in axes {
            if a >= self.rank() || seen[a] {
                return Err(TensorError::InvalidArgument {
                    op: "permute",
                    reason: format!("{axes:?} is not a permutation of 0..{}", self.rank()),
                });
            }
            seen[a] = true;
        }
        let new_dims: Vec<usize> = axes.iter().map(|&a| self.shape[a]).collect();
        let src_strides = self.shape().strides();
        let strides: Vec<usize> = axes.iter().map(|&a| src_strides[a]).collect();
        let data = crate::kernels::strided::gather(&self.data, &strides, &new_dims);
        Ok(Tensor {
            shape: new_dims,
            data,
        })
    }

    /// Extracts the `index`-th slice along `axis` (removing that axis).
    ///
    /// # Errors
    /// Returns an error if `axis` or `index` is out of range.
    pub fn index_axis(&self, axis: usize, index: usize) -> Result<Tensor> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange {
                op: "index_axis",
                axis,
                rank: self.rank(),
            });
        }
        if index >= self.shape[axis] {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![index],
                shape: self.shape.clone(),
            });
        }
        self.narrow(axis, index, 1)?
            .reshape(self.shape().remove_axis(axis)?.dims())
    }

    /// Returns a slice of length `len` starting at `start` along `axis`.
    ///
    /// # Errors
    /// Returns an error if the requested range exceeds the axis length.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Result<Tensor> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange {
                op: "narrow",
                axis,
                rank: self.rank(),
            });
        }
        let end = start
            .checked_add(len)
            .filter(|&end| end <= self.shape[axis])
            .ok_or_else(|| TensorError::InvalidArgument {
                op: "narrow",
                reason: format!(
                    "{len} elements from {start} exceed axis length {}",
                    self.shape[axis]
                ),
            })?;
        let mut new_dims = self.shape.clone();
        new_dims[axis] = len;
        let outer: usize = self.shape[..axis].iter().product();
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut data = Vec::with_capacity(outer * len * inner);
        for o in 0..outer {
            let base = o * self.shape[axis] * inner;
            data.extend_from_slice(&self.data[base + start * inner..base + end * inner]);
        }
        Ok(Tensor {
            shape: new_dims,
            data,
        })
    }

    /// Concatenates tensors along `axis`. All other dimensions must match.
    ///
    /// # Errors
    /// Returns an error if the list is empty or the shapes disagree.
    pub fn concat(tensors: &[&Tensor], axis: usize) -> Result<Tensor> {
        let first = tensors
            .first()
            .ok_or(TensorError::EmptyTensor { op: "concat" })?;
        if axis >= first.rank() {
            return Err(TensorError::AxisOutOfRange {
                op: "concat",
                axis,
                rank: first.rank(),
            });
        }
        let mut axis_total = 0usize;
        for t in tensors {
            if t.rank() != first.rank() {
                return Err(TensorError::ShapeMismatch {
                    op: "concat",
                    lhs: first.shape.clone(),
                    rhs: t.shape.clone(),
                });
            }
            for (d, (&a, &b)) in first.shape.iter().zip(t.shape.iter()).enumerate() {
                if d != axis && a != b {
                    return Err(TensorError::ShapeMismatch {
                        op: "concat",
                        lhs: first.shape.clone(),
                        rhs: t.shape.clone(),
                    });
                }
            }
            axis_total += t.shape[axis];
        }
        let mut new_dims = first.shape.clone();
        new_dims[axis] = axis_total;
        let outer: usize = first.shape[..axis].iter().product();
        let inner: usize = first.shape[axis + 1..].iter().product();
        let mut data = Vec::with_capacity(new_dims.iter().product());
        for o in 0..outer {
            for t in tensors {
                let rows = t.shape[axis];
                let base = o * rows * inner;
                data.extend_from_slice(&t.data[base..base + rows * inner]);
            }
        }
        Ok(Tensor {
            shape: new_dims,
            data,
        })
    }

    /// Stacks rank-`k` tensors along a new leading axis producing rank `k+1`.
    ///
    /// # Errors
    /// Returns an error if the list is empty or the shapes differ.
    pub fn stack(tensors: &[&Tensor]) -> Result<Tensor> {
        let first = tensors
            .first()
            .ok_or(TensorError::EmptyTensor { op: "stack" })?;
        let mut data = Vec::with_capacity(first.numel() * tensors.len());
        for t in tensors {
            if t.shape != first.shape {
                return Err(TensorError::ShapeMismatch {
                    op: "stack",
                    lhs: first.shape.clone(),
                    rhs: t.shape.clone(),
                });
            }
            data.extend_from_slice(&t.data);
        }
        let mut dims = vec![tensors.len()];
        dims.extend_from_slice(&first.shape);
        Ok(Tensor { shape: dims, data })
    }

    /// Splits the tensor into `parts` equal chunks along `axis`.
    ///
    /// # Errors
    /// Returns an error if the axis length is not divisible by `parts`.
    pub fn chunk(&self, parts: usize, axis: usize) -> Result<Vec<Tensor>> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange {
                op: "chunk",
                axis,
                rank: self.rank(),
            });
        }
        if parts == 0 || !self.shape[axis].is_multiple_of(parts) {
            return Err(TensorError::InvalidArgument {
                op: "chunk",
                reason: format!(
                    "axis length {} not divisible into {} parts",
                    self.shape[axis], parts
                ),
            });
        }
        let step = self.shape[axis] / parts;
        (0..parts)
            .map(|p| self.narrow(axis, p * step, step))
            .collect()
    }

    /// Pads a rank-4 `[N, C, H, W]` tensor spatially with zeros.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] for tensors that are not rank 4.
    pub fn pad2d(&self, pad_h: usize, pad_w: usize) -> Result<Tensor> {
        if self.rank() != 4 {
            return Err(TensorError::RankMismatch {
                op: "pad2d",
                expected: 4,
                actual: self.rank(),
            });
        }
        let (n, c, h, w) = (self.shape[0], self.shape[1], self.shape[2], self.shape[3]);
        let (oh, ow) = (h + 2 * pad_h, w + 2 * pad_w);
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        for ni in 0..n {
            for ci in 0..c {
                for hi in 0..h {
                    let src = ((ni * c + ci) * h + hi) * w;
                    let dst = ((ni * c + ci) * oh + hi + pad_h) * ow + pad_w;
                    out.data[dst..dst + w].copy_from_slice(&self.data[src..src + w]);
                }
            }
        }
        Ok(out)
    }

    /// Removes spatial zero padding added by [`Tensor::pad2d`].
    ///
    /// # Errors
    /// Returns an error for non-rank-4 tensors or if the padding exceeds the
    /// spatial dimensions.
    pub fn unpad2d(&self, pad_h: usize, pad_w: usize) -> Result<Tensor> {
        if self.rank() != 4 {
            return Err(TensorError::RankMismatch {
                op: "unpad2d",
                expected: 4,
                actual: self.rank(),
            });
        }
        let (n, c, h, w) = (self.shape[0], self.shape[1], self.shape[2], self.shape[3]);
        if h < 2 * pad_h || w < 2 * pad_w {
            return Err(TensorError::InvalidArgument {
                op: "unpad2d",
                reason: format!("padding ({pad_h},{pad_w}) larger than spatial dims ({h},{w})"),
            });
        }
        let (oh, ow) = (h - 2 * pad_h, w - 2 * pad_w);
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        for ni in 0..n {
            for ci in 0..c {
                for hi in 0..oh {
                    let src = ((ni * c + ci) * h + hi + pad_h) * w + pad_w;
                    let dst = ((ni * c + ci) * oh + hi) * ow;
                    out.data[dst..dst + ow].copy_from_slice(&self.data[src..src + ow]);
                }
            }
        }
        Ok(out)
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(f, ", data=[{} elements])", self.data.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn constructors_fill_values() {
        assert!(Tensor::zeros(&[2, 2]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[2, 2]).data().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(&[3], 7.0).data().iter().all(|&x| x == 7.0));
        let eye = Tensor::eye(3);
        assert_eq!(eye.get(&[0, 0]).unwrap(), 1.0);
        assert_eq!(eye.get(&[0, 1]).unwrap(), 0.0);
        assert_eq!(Tensor::arange(4).data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn rand_uniform_respects_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let t = Tensor::rand_uniform(&[100], -0.5, 0.5, &mut rng);
        assert!(t.data().iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn rand_normal_moments_are_plausible() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let t = Tensor::rand_normal(&[10_000], 1.0, 2.0, &mut rng);
        let mean = t.data().iter().sum::<f32>() / t.numel() as f32;
        let var = t.data().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / t.numel() as f32;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.4, "var {var}");
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 5.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 5.0);
        assert!(t.get(&[2, 0]).is_err());
    }

    #[test]
    fn item_requires_single_element() {
        assert_eq!(Tensor::scalar(3.0).item().unwrap(), 3.0);
        assert!(Tensor::zeros(&[2]).item().is_err());
    }

    #[test]
    fn byte_size_counts_f32() {
        assert_eq!(Tensor::zeros(&[4, 4]).byte_size(), 64);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::arange(6).reshape(&[2, 3]).unwrap();
        assert_eq!(t.dims(), &[2, 3]);
        assert_eq!(t.get(&[1, 0]).unwrap(), 3.0);
        assert!(t.reshape(&[4]).is_err());
    }

    #[test]
    fn transpose_2d() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let tt = t.transpose().unwrap();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.get(&[2, 1]).unwrap(), 6.0);
        assert!(Tensor::zeros(&[2, 2, 2]).transpose().is_err());
    }

    #[test]
    fn permute_matches_transpose_for_rank2() {
        let t = Tensor::arange(6).reshape(&[2, 3]).unwrap();
        assert_eq!(t.permute(&[1, 0]).unwrap(), t.transpose().unwrap());
        assert!(t.permute(&[0, 0]).is_err());
        assert!(t.permute(&[0]).is_err());
    }

    #[test]
    fn permute_rank4_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let t = Tensor::rand_uniform(&[2, 3, 4, 5], 0.0, 1.0, &mut rng);
        let p = t.permute(&[2, 0, 3, 1]).unwrap();
        let back = p.permute(&[1, 3, 0, 2]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn narrow_and_index_axis() {
        let t = Tensor::arange(12).reshape(&[3, 4]).unwrap();
        let mid = t.narrow(0, 1, 2).unwrap();
        assert_eq!(mid.dims(), &[2, 4]);
        assert_eq!(mid.get(&[0, 0]).unwrap(), 4.0);
        let row = t.index_axis(0, 2).unwrap();
        assert_eq!(row.dims(), &[4]);
        assert_eq!(row.data(), &[8.0, 9.0, 10.0, 11.0]);
        let col = t.index_axis(1, 1).unwrap();
        assert_eq!(col.data(), &[1.0, 5.0, 9.0]);
        assert!(t.narrow(0, 2, 2).is_err());
        assert!(t.index_axis(2, 0).is_err());
    }

    #[test]
    fn narrow_rejects_a_range_past_usize_max() {
        let t = Tensor::arange(12).reshape(&[3, 4]).unwrap();
        for (start, len) in [(usize::MAX, 2), (2, usize::MAX), (usize::MAX, usize::MAX)] {
            assert!(matches!(
                t.narrow(0, start, len),
                Err(TensorError::InvalidArgument { op: "narrow", .. })
            ));
        }
    }

    #[test]
    fn concat_along_each_axis() {
        let a = Tensor::arange(4).reshape(&[2, 2]).unwrap();
        let b = Tensor::full(&[2, 2], 9.0);
        let rows = Tensor::concat(&[&a, &b], 0).unwrap();
        assert_eq!(rows.dims(), &[4, 2]);
        assert_eq!(rows.get(&[2, 0]).unwrap(), 9.0);
        let cols = Tensor::concat(&[&a, &b], 1).unwrap();
        assert_eq!(cols.dims(), &[2, 4]);
        assert_eq!(cols.get(&[0, 2]).unwrap(), 9.0);
        assert_eq!(cols.get(&[1, 1]).unwrap(), 3.0);
        assert!(Tensor::concat(&[], 0).is_err());
        let c = Tensor::zeros(&[3, 3]);
        assert!(Tensor::concat(&[&a, &c], 0).is_err());
    }

    #[test]
    fn stack_adds_leading_axis() {
        let a = Tensor::ones(&[2, 2]);
        let b = Tensor::zeros(&[2, 2]);
        let s = Tensor::stack(&[&a, &b]).unwrap();
        assert_eq!(s.dims(), &[2, 2, 2]);
        assert_eq!(s.get(&[0, 1, 1]).unwrap(), 1.0);
        assert_eq!(s.get(&[1, 1, 1]).unwrap(), 0.0);
    }

    #[test]
    fn chunk_splits_evenly() {
        let t = Tensor::arange(12).reshape(&[2, 6]).unwrap();
        let parts = t.chunk(3, 1).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].dims(), &[2, 2]);
        assert_eq!(parts[2].get(&[1, 1]).unwrap(), 11.0);
        assert!(t.chunk(5, 1).is_err());
    }

    #[test]
    fn pad_unpad_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let t = Tensor::rand_uniform(&[1, 2, 3, 3], 0.0, 1.0, &mut rng);
        let padded = t.pad2d(1, 2).unwrap();
        assert_eq!(padded.dims(), &[1, 2, 5, 7]);
        assert_eq!(padded.get(&[0, 0, 0, 0]).unwrap(), 0.0);
        let back = padded.unpad2d(1, 2).unwrap();
        assert_eq!(back, t);
        assert!(Tensor::zeros(&[2, 2]).pad2d(1, 1).is_err());
    }

    #[test]
    fn display_truncates_large_tensors() {
        let small = Tensor::arange(3).to_string();
        assert!(small.contains("data=["));
        let big = Tensor::zeros(&[100]).to_string();
        assert!(big.contains("100 elements"));
    }

    #[test]
    fn tensor_is_send_sync_clone() {
        fn assert_traits<T: Send + Sync + Clone>() {}
        assert_traits::<Tensor>();
    }
}
