//! Element-wise arithmetic, broadcasting binary operations and the
//! non-linearities used by the neural-network layers and attacks.

use crate::{Result, Shape, Tensor, TensorError};

impl Tensor {
    // ------------------------------------------------------------------
    // Unary element-wise maps
    // ------------------------------------------------------------------

    /// Applies `f` to every element, returning a new tensor. Large tensors
    /// fan out across the shared thread pool (element-wise, so results are
    /// identical at any thread count).
    pub fn map<F: Fn(f32) -> f32 + Sync>(&self, f: F) -> Tensor {
        let mut out = vec![0.0f32; self.numel()];
        crate::kernels::par_map_into(&crate::pool::global(), self.data(), &mut out, f);
        Tensor::from_vec(out, self.dims()).expect("map preserves element count")
    }

    /// In-place variant of [`Tensor::map`].
    pub fn map_inplace<F: Fn(f32) -> f32 + Sync>(&mut self, f: F) {
        crate::kernels::par_map_inplace(&crate::pool::global(), self.data_mut(), f);
    }

    /// Element-wise negation.
    pub fn neg(&self) -> Tensor {
        self.map(|x| -x)
    }

    /// Element-wise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Element-wise sign (`-1`, `0`, or `1`), as used by FGSM-family attacks.
    pub fn sign(&self) -> Tensor {
        self.map(|x| {
            if x > 0.0 {
                1.0
            } else if x < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
    }

    /// Element-wise exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Element-wise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    /// Element-wise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Element-wise square.
    pub fn square(&self) -> Tensor {
        self.map(|x| x * x)
    }

    /// Element-wise reciprocal.
    pub fn recip(&self) -> Tensor {
        self.map(f32::recip)
    }

    /// Element-wise hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.map(f32::tanh)
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }

    /// Gaussian error linear unit (tanh approximation, as used by ViT MLPs).
    pub fn gelu(&self) -> Tensor {
        self.map(gelu_scalar)
    }

    /// Derivative of [`Tensor::gelu`] evaluated element-wise.
    pub fn gelu_grad(&self) -> Tensor {
        self.map(gelu_grad_scalar)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        self.map(|x| 1.0 / (1.0 + (-x).exp()))
    }

    /// Clamps every element to `[lo, hi]` — used to keep adversarial samples
    /// inside the valid pixel range and inside the ε-ball.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x + s)
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Raises every element to an integer power.
    pub fn powi(&self, n: i32) -> Tensor {
        self.map(|x| x.powi(n))
    }

    // ------------------------------------------------------------------
    // Binary element-wise operations with broadcasting
    // ------------------------------------------------------------------

    /// Element-wise addition with NumPy-style broadcasting.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes are not
    /// broadcast-compatible.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.broadcast_zip(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction with broadcasting.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes are not
    /// broadcast-compatible.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.broadcast_zip(other, "sub", |a, b| a - b)
    }

    /// Element-wise multiplication (Hadamard product) with broadcasting.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes are not
    /// broadcast-compatible.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.broadcast_zip(other, "mul", |a, b| a * b)
    }

    /// Element-wise division with broadcasting.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes are not
    /// broadcast-compatible.
    pub fn div(&self, other: &Tensor) -> Result<Tensor> {
        self.broadcast_zip(other, "div", |a, b| a / b)
    }

    /// Element-wise maximum with broadcasting.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes are not
    /// broadcast-compatible.
    pub fn maximum(&self, other: &Tensor) -> Result<Tensor> {
        self.broadcast_zip(other, "maximum", f32::max)
    }

    /// Element-wise minimum with broadcasting.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes are not
    /// broadcast-compatible.
    pub fn minimum(&self, other: &Tensor) -> Result<Tensor> {
        self.broadcast_zip(other, "minimum", f32::min)
    }

    /// Generic broadcasting binary zip. Identical shapes zip chunk-parallel;
    /// mixed shapes walk the output row by row with each operand's
    /// broadcast strides.
    fn broadcast_zip<F: Fn(f32, f32) -> f32 + Sync>(
        &self,
        other: &Tensor,
        op: &'static str,
        f: F,
    ) -> Result<Tensor> {
        let lhs_shape = self.shape();
        let rhs_shape = other.shape();
        if lhs_shape.same_dims(&rhs_shape) {
            // Fast path: identical shapes, chunk-parallel for large tensors.
            let mut data = vec![0.0f32; self.numel()];
            crate::kernels::par_zip_into(
                &crate::pool::global(),
                self.data(),
                other.data(),
                &mut data,
                f,
            );
            return Tensor::from_vec(data, self.dims());
        }
        let out_shape =
            lhs_shape
                .broadcast_with(&rhs_shape)
                .map_err(|_| TensorError::ShapeMismatch {
                    op,
                    lhs: self.dims().to_vec(),
                    rhs: other.dims().to_vec(),
                })?;
        let rank = out_shape.rank();
        let data = crate::kernels::strided::broadcast_zip(
            self.data(),
            &lhs_shape.broadcast_strides(rank),
            other.data(),
            &rhs_shape.broadcast_strides(rank),
            out_shape.dims(),
            f,
        );
        Tensor::from_vec(data, out_shape.dims())
    }

    /// Reduces a broadcasted gradient back to this tensor's shape by summing
    /// over the broadcast axes.
    ///
    /// This is the adjoint of broadcasting: if `y = broadcast(x)` then
    /// `dL/dx = reduce_to_shape(dL/dy, shape(x))`. Each output element sums
    /// its terms in ascending source offset, starting from +0.0.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if `target` cannot be obtained
    /// from this tensor's shape by broadcasting.
    pub fn reduce_to_shape(&self, target: &[usize]) -> Result<Tensor> {
        let target_shape = Shape::new(target);
        if self.shape().same_dims(&target_shape) {
            return Ok(self.clone());
        }
        // Verify that target broadcasts to self's shape.
        let broadcast = target_shape.broadcast_with(&self.shape())?;
        if !broadcast.same_dims(&self.shape()) {
            return Err(TensorError::ShapeMismatch {
                op: "reduce_to_shape",
                lhs: self.dims().to_vec(),
                rhs: target.to_vec(),
            });
        }
        let mut out = Tensor::zeros(target);
        crate::kernels::strided::reduce_into(
            self.data(),
            self.dims(),
            out.data_mut(),
            &target_shape.broadcast_strides(self.rank()),
        );
        Ok(out)
    }

    /// Linear interpolation `self * (1 - t) + other * t` with broadcasting.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes are not
    /// broadcast-compatible.
    pub fn lerp(&self, other: &Tensor, t: f32) -> Result<Tensor> {
        self.mul_scalar(1.0 - t).add(&other.mul_scalar(t))
    }

    /// Fused multiply-accumulate `self + alpha * other` (shared shape only).
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&self, alpha: f32, other: &Tensor) -> Result<Tensor> {
        if self.dims() != other.dims() {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let mut data = vec![0.0f32; self.numel()];
        crate::kernels::par_zip_into(
            &crate::pool::global(),
            self.data(),
            other.data(),
            &mut data,
            |a, b| a + alpha * b,
        );
        Tensor::from_vec(data, self.dims())
    }
}

/// Scalar GELU (tanh approximation).
pub(crate) fn gelu_scalar(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)).tanh())
}

/// Derivative of the scalar GELU (tanh approximation).
pub(crate) fn gelu_grad_scalar(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let inner = SQRT_2_OVER_PI * (x + 0.044_715 * x3);
    let tanh_inner = inner.tanh();
    let sech2 = 1.0 - tanh_inner * tanh_inner;
    0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044_715 * x * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unary_maps() {
        let t = Tensor::from_vec(vec![-2.0, 0.0, 3.0], &[3]).unwrap();
        assert_eq!(t.neg().data(), &[2.0, -0.0, -3.0]);
        assert_eq!(t.abs().data(), &[2.0, 0.0, 3.0]);
        assert_eq!(t.sign().data(), &[-1.0, 0.0, 1.0]);
        assert_eq!(t.relu().data(), &[0.0, 0.0, 3.0]);
        assert_eq!(t.clamp(-1.0, 1.0).data(), &[-1.0, 0.0, 1.0]);
        assert_eq!(t.add_scalar(1.0).data(), &[-1.0, 1.0, 4.0]);
        assert_eq!(t.mul_scalar(2.0).data(), &[-4.0, 0.0, 6.0]);
        assert_eq!(t.powi(2).data(), &[4.0, 0.0, 9.0]);
    }

    #[test]
    fn sigmoid_and_tanh_ranges() {
        let t = Tensor::from_vec(vec![-10.0, 0.0, 10.0], &[3]).unwrap();
        let s = t.sigmoid();
        assert!(s.data()[0] < 0.001);
        assert!((s.data()[1] - 0.5).abs() < 1e-6);
        assert!(s.data()[2] > 0.999);
        let h = t.tanh();
        assert!(h.data()[0] < -0.999 && h.data()[2] > 0.999);
    }

    #[test]
    fn gelu_matches_known_values() {
        // GELU(0) = 0, GELU(large) ≈ x, GELU(-large) ≈ 0.
        let t = Tensor::from_vec(vec![0.0, 6.0, -6.0, 1.0], &[4]).unwrap();
        let g = t.gelu();
        assert!((g.data()[0]).abs() < 1e-6);
        assert!((g.data()[1] - 6.0).abs() < 1e-3);
        assert!(g.data()[2].abs() < 1e-3);
        assert!((g.data()[3] - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        let eps = 1e-3f32;
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let numeric = (gelu_scalar(x + eps) - gelu_scalar(x - eps)) / (2.0 * eps);
            let analytic = gelu_grad_scalar(x);
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "x={x}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn binary_same_shape() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).unwrap().data(), &[4.0, 2.5, 2.0]);
        assert_eq!(a.maximum(&b).unwrap().data(), &[4.0, 5.0, 6.0]);
        assert_eq!(a.minimum(&b).unwrap().data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn binary_broadcasting_row_and_scalar() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let row = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]).unwrap();
        let sum = m.add(&row).unwrap();
        assert_eq!(sum.dims(), &[2, 3]);
        assert_eq!(sum.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
        let s = Tensor::scalar(2.0);
        assert_eq!(m.mul(&s).unwrap().data(), &[2.0, 4.0, 6.0, 8.0, 10.0, 12.0]);
    }

    #[test]
    fn binary_broadcasting_column() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let col = Tensor::from_vec(vec![10.0, 100.0], &[2, 1]).unwrap();
        let prod = m.mul(&col).unwrap();
        assert_eq!(prod.data(), &[10.0, 20.0, 300.0, 400.0]);
    }

    #[test]
    fn binary_rejects_incompatible() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 3]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn reduce_to_shape_inverts_broadcast() {
        let grad = Tensor::ones(&[2, 3]);
        let reduced = grad.reduce_to_shape(&[3]).unwrap();
        assert_eq!(reduced.dims(), &[3]);
        assert_eq!(reduced.data(), &[2.0, 2.0, 2.0]);
        let reduced_col = grad.reduce_to_shape(&[2, 1]).unwrap();
        assert_eq!(reduced_col.data(), &[3.0, 3.0]);
        let to_scalar = grad.reduce_to_shape(&[]).unwrap();
        assert_eq!(to_scalar.item().unwrap(), 6.0);
        assert!(grad.reduce_to_shape(&[4]).is_err());
    }

    #[test]
    fn zero_length_axes_broadcast_and_reduce() {
        let empty = Tensor::zeros(&[0, 32]);
        let row = Tensor::zeros(&[32]);
        assert_eq!(empty.add(&row).unwrap().dims(), &[0, 32]);
        assert_eq!(row.add(&empty).unwrap().dims(), &[0, 32]);
        let col = Tensor::zeros(&[0, 1]);
        assert_eq!(col.mul(&row).unwrap().dims(), &[0, 32]);
        let reduced = empty.reduce_to_shape(&[32]).unwrap();
        assert_eq!(reduced.dims(), &[32]);
        assert!(reduced.data().iter().all(|x| x.to_bits() == 0));
        assert_eq!(empty.reduce_to_shape(&[1, 1]).unwrap().data(), &[0.0]);
        assert!(empty.reduce_to_shape(&[2, 32]).is_err());
    }

    #[test]
    fn lerp_and_axpy() {
        let a = Tensor::zeros(&[3]);
        let b = Tensor::ones(&[3]);
        assert_eq!(a.lerp(&b, 0.25).unwrap().data(), &[0.25, 0.25, 0.25]);
        assert_eq!(a.axpy(2.0, &b).unwrap().data(), &[2.0, 2.0, 2.0]);
        assert!(a.axpy(1.0, &Tensor::ones(&[4])).is_err());
    }

    proptest! {
        #[test]
        fn prop_add_commutative(v in proptest::collection::vec(-100.0f32..100.0, 1..32)) {
            let n = v.len();
            let a = Tensor::from_vec(v.clone(), &[n]).unwrap();
            let b = Tensor::from_vec(v.iter().rev().copied().collect(), &[n]).unwrap();
            let ab = a.add(&b).unwrap();
            let ba = b.add(&a).unwrap();
            prop_assert_eq!(ab.data(), ba.data());
        }

        #[test]
        fn prop_sign_magnitude_one_or_zero(v in proptest::collection::vec(-10.0f32..10.0, 1..64)) {
            let n = v.len();
            let t = Tensor::from_vec(v, &[n]).unwrap();
            for &s in t.sign().data() {
                prop_assert!(s == 1.0 || s == -1.0 || s == 0.0);
            }
        }

        #[test]
        fn prop_clamp_bounds(v in proptest::collection::vec(-10.0f32..10.0, 1..64)) {
            let n = v.len();
            let t = Tensor::from_vec(v, &[n]).unwrap();
            let c = t.clamp(-1.0, 1.0);
            for &x in c.data() {
                prop_assert!((-1.0..=1.0).contains(&x));
            }
        }

        #[test]
        fn prop_reduce_to_shape_preserves_sum(
            rows in 1usize..5, cols in 1usize..5,
            seed in 0u64..1000,
        ) {
            use rand::SeedableRng;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let t = Tensor::rand_uniform(&[rows, cols], -1.0, 1.0, &mut rng);
            let total: f32 = t.data().iter().sum();
            let reduced = t.reduce_to_shape(&[cols]).unwrap();
            let reduced_total: f32 = reduced.data().iter().sum();
            prop_assert!((total - reduced_total).abs() < 1e-4);
        }
    }
}
