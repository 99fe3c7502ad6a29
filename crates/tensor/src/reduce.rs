//! Reductions (sum, mean, max, argmax, norms) and softmax helpers.

use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Sum of all elements.
    ///
    /// Large tensors reduce chunk-parallel with a fixed chunking whose
    /// partials combine in order, so the value is identical at any thread
    /// count.
    pub fn sum(&self) -> f32 {
        crate::kernels::par_sum_map(&crate::pool::global(), self.data(), |x| x)
    }

    /// Mean of all elements.
    ///
    /// # Errors
    /// Returns [`TensorError::EmptyTensor`] if the tensor has no elements.
    pub fn mean(&self) -> Result<f32> {
        if self.numel() == 0 {
            return Err(TensorError::EmptyTensor { op: "mean" });
        }
        Ok(self.sum() / self.numel() as f32)
    }

    /// Maximum element.
    ///
    /// # Errors
    /// Returns [`TensorError::EmptyTensor`] if the tensor has no elements.
    pub fn max(&self) -> Result<f32> {
        self.data()
            .iter()
            .copied()
            .fold(None, |acc: Option<f32>, x| {
                Some(acc.map_or(x, |a| a.max(x)))
            })
            .ok_or(TensorError::EmptyTensor { op: "max" })
    }

    /// Minimum element.
    ///
    /// # Errors
    /// Returns [`TensorError::EmptyTensor`] if the tensor has no elements.
    pub fn min(&self) -> Result<f32> {
        self.data()
            .iter()
            .copied()
            .fold(None, |acc: Option<f32>, x| {
                Some(acc.map_or(x, |a| a.min(x)))
            })
            .ok_or(TensorError::EmptyTensor { op: "min" })
    }

    /// Index of the maximum element of a rank-1 tensor.
    ///
    /// # Errors
    /// Returns an error for empty or higher-rank tensors.
    pub fn argmax(&self) -> Result<usize> {
        if self.rank() > 1 {
            return Err(TensorError::RankMismatch {
                op: "argmax",
                expected: 1,
                actual: self.rank(),
            });
        }
        if self.numel() == 0 {
            return Err(TensorError::EmptyTensor { op: "argmax" });
        }
        let mut best = 0usize;
        for (i, &x) in self.data().iter().enumerate() {
            if x > self.data()[best] {
                best = i;
            }
        }
        Ok(best)
    }

    /// Row-wise argmax of a rank-2 `[rows, cols]` tensor — the predicted class
    /// per sample for a batch of logits.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] for tensors that are not rank 2.
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "argmax_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &self.data()[r * cols..(r + 1) * cols];
            let mut best = 0usize;
            for (i, &x) in row.iter().enumerate() {
                if x > row[best] {
                    best = i;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    /// Sum along `axis`, optionally keeping the reduced dimension. Each
    /// output element adds its terms in ascending source offset, starting
    /// from +0.0.
    ///
    /// # Errors
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn sum_axis(&self, axis: usize, keep_dims: bool) -> Result<Tensor> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange {
                op: "sum_axis",
                axis,
                rank: self.rank(),
            });
        }
        let dims = self.dims();
        let outer: usize = dims[..axis].iter().product();
        let mid = dims[axis];
        let inner: usize = dims[axis + 1..].iter().product();
        let mut data = vec![0.0f32; outer * inner];
        if inner == 1 && mid > 0 {
            // Only length-1 axes follow the reduced one, so each output's
            // terms form one contiguous row.
            for (o, row) in data.iter_mut().zip(self.data().chunks_exact(mid)) {
                *o = row.iter().fold(0.0, |acc, &x| acc + x);
            }
        } else {
            for o in 0..outer {
                for m in 0..mid {
                    let base = (o * mid + m) * inner;
                    for i in 0..inner {
                        data[o * inner + i] += self.data()[base + i];
                    }
                }
            }
        }
        let shape = if keep_dims {
            self.shape().collapse_axis(axis)?
        } else {
            self.shape().remove_axis(axis)?
        };
        Tensor::from_vec(data, shape.dims())
    }

    /// Mean along `axis`, optionally keeping the reduced dimension.
    ///
    /// # Errors
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn mean_axis(&self, axis: usize, keep_dims: bool) -> Result<Tensor> {
        let n = self.shape().dim(axis)? as f32;
        Ok(self.sum_axis(axis, keep_dims)?.mul_scalar(1.0 / n))
    }

    /// Maximum along `axis`, optionally keeping the reduced dimension.
    ///
    /// # Errors
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn max_axis(&self, axis: usize, keep_dims: bool) -> Result<Tensor> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange {
                op: "max_axis",
                axis,
                rank: self.rank(),
            });
        }
        let dims = self.dims();
        let outer: usize = dims[..axis].iter().product();
        let mid = dims[axis];
        let inner: usize = dims[axis + 1..].iter().product();
        let mut data = vec![f32::NEG_INFINITY; outer * inner];
        for o in 0..outer {
            for m in 0..mid {
                let base = (o * mid + m) * inner;
                for i in 0..inner {
                    let v = self.data()[base + i];
                    if v > data[o * inner + i] {
                        data[o * inner + i] = v;
                    }
                }
            }
        }
        let shape = if keep_dims {
            self.shape().collapse_axis(axis)?
        } else {
            self.shape().remove_axis(axis)?
        };
        Tensor::from_vec(data, shape.dims())
    }

    /// Variance along `axis` (population variance), optionally keeping dims.
    ///
    /// # Errors
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn var_axis(&self, axis: usize, keep_dims: bool) -> Result<Tensor> {
        let mean = self.mean_axis(axis, true)?;
        let centered = self.sub(&mean)?;
        centered.square().mean_axis(axis, keep_dims)
    }

    /// L2 (Euclidean) norm over all elements.
    pub fn l2_norm(&self) -> f32 {
        crate::kernels::par_sum_map(&crate::pool::global(), self.data(), |x| x * x).sqrt()
    }

    /// L∞ (maximum-magnitude) norm over all elements — the norm constraining
    /// FGSM/PGD/MIM/APGD/SAGA perturbations.
    pub fn linf_norm(&self) -> f32 {
        self.data().iter().fold(0.0f32, |acc, x| acc.max(x.abs()))
    }

    /// L1 norm over all elements.
    pub fn l1_norm(&self) -> f32 {
        crate::kernels::par_sum_map(&crate::pool::global(), self.data(), f32::abs)
    }

    /// Dot product with another tensor of identical shape.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        if self.dims() != other.dims() {
            return Err(TensorError::ShapeMismatch {
                op: "dot",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        Ok(crate::kernels::par_dot(
            &crate::pool::global(),
            self.data(),
            other.data(),
        ))
    }

    /// Numerically stable softmax along the last axis:
    /// [`Tensor::into_scaled_softmax`] at scale 1, which is exact (`x·1 = x`).
    ///
    /// # Errors
    /// Returns [`TensorError::EmptyTensor`] for empty tensors.
    pub fn softmax_last_axis(&self) -> Result<Tensor> {
        self.clone().into_scaled_softmax(1.0)
    }

    /// `softmax(scale · self)` along the last axis, computed in place. Each
    /// row multiplies every element by `scale`, takes the row maximum, sums
    /// `exp(x − max)` in ascending order from +0.0 and divides each
    /// exponential by that sum.
    ///
    /// # Errors
    /// Returns [`TensorError::EmptyTensor`] for empty tensors.
    pub fn into_scaled_softmax(mut self, scale: f32) -> Result<Tensor> {
        if self.numel() == 0 {
            return Err(TensorError::EmptyTensor { op: "softmax" });
        }
        let last = *self.dims().last().unwrap_or(&1);
        for row in self.data_mut().chunks_exact_mut(last) {
            for x in row.iter_mut() {
                *x *= scale;
            }
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                denom += *x;
            }
            for x in row.iter_mut() {
                *x /= denom;
            }
        }
        Ok(self)
    }

    /// The vector–Jacobian product of [`Tensor::into_scaled_softmax`]: with
    /// `self` the probabilities `y` and `grad` the upstream gradient `g` of
    /// the same shape, returns `(y ⊙ (g − Σ g⊙y)) · scale`, the gradient with
    /// respect to the unscaled input. Each row's `Σ g⊙y` adds its products
    /// in ascending order from +0.0.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn scaled_softmax_backward(&self, grad: &Tensor, scale: f32) -> Result<Tensor> {
        if self.dims() != grad.dims() {
            return Err(TensorError::ShapeMismatch {
                op: "scaled_softmax_backward",
                lhs: self.dims().to_vec(),
                rhs: grad.dims().to_vec(),
            });
        }
        let mut out = grad.clone();
        if out.numel() == 0 {
            return Ok(out);
        }
        let last = *self.dims().last().unwrap_or(&1);
        for (g, y) in out
            .data_mut()
            .chunks_exact_mut(last)
            .zip(self.data().chunks_exact(last))
        {
            let mut dot = 0.0f32;
            for (&gi, &yi) in g.iter().zip(y) {
                dot += gi * yi;
            }
            for (gi, &yi) in g.iter_mut().zip(y) {
                *gi = yi * (*gi - dot) * scale;
            }
        }
        Ok(out)
    }

    /// Numerically stable log-softmax along the last axis.
    ///
    /// # Errors
    /// Returns [`TensorError::EmptyTensor`] for empty tensors.
    pub fn log_softmax_last_axis(&self) -> Result<Tensor> {
        if self.numel() == 0 {
            return Err(TensorError::EmptyTensor { op: "log_softmax" });
        }
        let last = *self.dims().last().unwrap_or(&1);
        let rows = self.numel() / last;
        let mut out = vec![0.0f32; self.numel()];
        for r in 0..rows {
            let row = &self.data()[r * last..(r + 1) * last];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let log_denom = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
            for (i, &x) in row.iter().enumerate() {
                out[r * last + i] = x - max - log_denom;
            }
        }
        Tensor::from_vec(out, self.dims())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn global_reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], &[2, 2]).unwrap();
        assert_eq!(t.sum(), -2.0);
        assert_eq!(t.mean().unwrap(), -0.5);
        assert_eq!(t.max().unwrap(), 3.0);
        assert_eq!(t.min().unwrap(), -4.0);
        assert_eq!(t.l1_norm(), 10.0);
        assert_eq!(t.linf_norm(), 4.0);
        assert!((t.l2_norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn argmax_variants() {
        let v = Tensor::from_vec(vec![0.1, 0.7, 0.2], &[3]).unwrap();
        assert_eq!(v.argmax().unwrap(), 1);
        let m = Tensor::from_vec(vec![0.1, 0.7, 0.2, 0.9, 0.0, 0.05], &[2, 3]).unwrap();
        assert_eq!(m.argmax_rows().unwrap(), vec![1, 0]);
        assert!(m.argmax().is_err());
        assert!(v.argmax_rows().is_err());
    }

    #[test]
    fn axis_reductions() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let rows = t.sum_axis(1, false).unwrap();
        assert_eq!(rows.dims(), &[2]);
        assert_eq!(rows.data(), &[6.0, 15.0]);
        let cols = t.sum_axis(0, true).unwrap();
        assert_eq!(cols.dims(), &[1, 3]);
        assert_eq!(cols.data(), &[5.0, 7.0, 9.0]);
        let mean = t.mean_axis(1, false).unwrap();
        assert_eq!(mean.data(), &[2.0, 5.0]);
        let max = t.max_axis(0, false).unwrap();
        assert_eq!(max.data(), &[4.0, 5.0, 6.0]);
        assert!(t.sum_axis(2, false).is_err());
    }

    #[test]
    fn variance_axis() {
        let t = Tensor::from_vec(vec![1.0, 3.0, 2.0, 4.0], &[2, 2]).unwrap();
        let v = t.var_axis(1, false).unwrap();
        assert_eq!(v.data(), &[1.0, 1.0]);
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]).unwrap();
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        assert!(a.dot(&Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let s = t.softmax_last_axis().unwrap();
        for r in 0..2 {
            let row = &s.data()[r * 3..(r + 1) * 3];
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row[2] > row[1] && row[1] > row[0]);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let t = Tensor::from_vec(vec![1000.0, 1001.0], &[2]).unwrap();
        let s = t.softmax_last_axis().unwrap();
        assert!(s.data().iter().all(|x| x.is_finite()));
        assert!((s.data().iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn log_softmax_matches_ln_of_softmax() {
        let t = Tensor::from_vec(vec![0.5, -1.5, 2.0], &[3]).unwrap();
        let ls = t.log_softmax_last_axis().unwrap();
        let s = t.softmax_last_axis().unwrap();
        for (a, b) in ls.data().iter().zip(s.data().iter()) {
            assert!((a - b.ln()).abs() < 1e-5);
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    /// Rows of width 65 (a ViT's token count): random values, a row whose
    /// maximum is tied, and a row holding ±0.0 and −∞.
    fn softmax_rows() -> Tensor {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let mut t = Tensor::rand_uniform(&[4, 65], -6.0, 6.0, &mut rng);
        let data = t.data_mut();
        for (i, x) in data[65..130].iter_mut().enumerate() {
            *x = if i % 3 == 0 { 2.5 } else { -1.0 };
        }
        data[130] = -0.0;
        data[131] = 0.0;
        data[132] = f32::NEG_INFINITY;
        t
    }

    #[test]
    fn scaled_softmax_matches_scale_then_softmax_bitwise() {
        let x = softmax_rows();
        for scale in [1.0, 0.353_553_38, 3.0] {
            let fused = x.clone().into_scaled_softmax(scale).unwrap();
            // The two-pass chain: scale every element, then softmax.
            let mut expected = x.mul_scalar(scale).into_vec();
            for row in expected.chunks_exact_mut(65) {
                let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
                let denom = exps.iter().fold(0.0f32, |acc, &e| acc + e);
                for (o, e) in row.iter_mut().zip(exps) {
                    *o = e / denom;
                }
            }
            assert_eq!(
                bits(&fused),
                bits(&Tensor::from_vec(expected, &[4, 65]).unwrap())
            );
        }
    }

    #[test]
    fn scaled_softmax_backward_matches_the_tensor_chain_bitwise() {
        use rand::SeedableRng;
        // Not a power of two, so where the scale is applied shows in the bits.
        let scale = 0.353_553_38;
        let y = softmax_rows().into_scaled_softmax(scale).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
        let mut g = Tensor::rand_uniform(&[4, 65], -1.0, 1.0, &mut rng);
        // A row of −0.0 upstream gradients: its Σ g⊙y is +0.0 only because
        // the sum starts from +0.0, and the sign reaches every output.
        g.data_mut()[195..].fill(-0.0);
        let fused = y.scaled_softmax_backward(&g, scale).unwrap();
        let sum = g.mul(&y).unwrap().sum_axis(1, true).unwrap();
        let expected = y.mul(&g.sub(&sum).unwrap()).unwrap().mul_scalar(scale);
        assert_eq!(bits(&fused), bits(&expected));
        assert!(y
            .scaled_softmax_backward(&g.reshape(&[65, 4]).unwrap(), scale)
            .is_err());
    }

    #[test]
    fn empty_reductions_error() {
        let empty = Tensor::from_vec(vec![], &[0]).unwrap();
        assert!(empty.mean().is_err());
        assert!(empty.max().is_err());
        assert!(empty.min().is_err());
        assert!(empty.argmax().is_err());
        assert!(empty.softmax_last_axis().is_err());
    }

    proptest! {
        #[test]
        fn prop_softmax_rows_are_distributions(
            v in proptest::collection::vec(-20.0f32..20.0, 4..40),
        ) {
            let cols = 4;
            let rows = v.len() / cols;
            let t = Tensor::from_vec(v[..rows * cols].to_vec(), &[rows, cols]).unwrap();
            let s = t.softmax_last_axis().unwrap();
            for r in 0..rows {
                let row = &s.data()[r * cols..(r + 1) * cols];
                let sum: f32 = row.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-4);
                prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
            }
        }

        #[test]
        fn prop_sum_axis_total_matches_global_sum(
            seed in 0u64..500, rows in 1usize..6, cols in 1usize..6,
        ) {
            use rand::SeedableRng;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let t = Tensor::rand_uniform(&[rows, cols], -5.0, 5.0, &mut rng);
            let by_rows: f32 = t.sum_axis(0, false).unwrap().sum();
            let by_cols: f32 = t.sum_axis(1, false).unwrap().sum();
            prop_assert!((by_rows - t.sum()).abs() < 1e-3);
            prop_assert!((by_cols - t.sum()).abs() < 1e-3);
        }

        #[test]
        fn prop_norm_inequalities(v in proptest::collection::vec(-10.0f32..10.0, 1..64)) {
            let n = v.len();
            let t = Tensor::from_vec(v, &[n]).unwrap();
            prop_assert!(t.linf_norm() <= t.l2_norm() + 1e-4);
            prop_assert!(t.l2_norm() <= t.l1_norm() + 1e-4);
        }
    }
}
