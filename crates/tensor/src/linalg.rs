//! Matrix multiplication and related linear-algebra kernels.
//!
//! All matrix products route through the blocked, panel-packed GEMM of
//! [`crate::kernels::gemm`] running on the shared thread pool. The `_nt` /
//! `_tn` variants multiply by a transposed operand **without materialising
//! the transpose** — the packing routines read the operand in its stored
//! layout — which is what the autodiff backward passes and the fused linear
//! layers use.

use crate::kernels::gemm::{batch_gemm, gemm};
use crate::{pool, Result, Tensor, TensorError};

impl Tensor {
    /// Matrix product of two rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// # Errors
    /// Returns an error if either operand is not rank 2 or the inner
    /// dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        matmul_2d(self, false, other, false, "matmul")
    }

    /// `self · otherᵀ` for `self` `[m, k]` and `other` `[n, k]`, without
    /// materialising the transpose.
    ///
    /// # Errors
    /// Returns an error on rank or inner-dimension mismatch.
    pub fn matmul_nt(&self, other: &Tensor) -> Result<Tensor> {
        matmul_2d(self, false, other, true, "matmul_nt")
    }

    /// `selfᵀ · other` for `self` `[k, m]` and `other` `[k, n]`, without
    /// materialising the transpose.
    ///
    /// # Errors
    /// Returns an error on rank or inner-dimension mismatch.
    pub fn matmul_tn(&self, other: &Tensor) -> Result<Tensor> {
        matmul_2d(self, true, other, false, "matmul_tn")
    }

    /// Batched matrix product of rank-3 tensors: `[b, m, k] × [b, k, n] → [b, m, n]`.
    ///
    /// # Errors
    /// Returns an error if either operand is not rank 3, the batch sizes
    /// differ, or the inner dimensions disagree.
    pub fn batch_matmul(&self, other: &Tensor) -> Result<Tensor> {
        matmul_3d(self, false, other, false, "batch_matmul")
    }

    /// Per-slice `self · otherᵀ` for `self` `[b, m, k]` and `other`
    /// `[b, n, k]`, without materialising the transpose (the per-head
    /// `Q·Kᵀ` of attention).
    ///
    /// # Errors
    /// Returns an error on rank, batch or inner-dimension mismatch.
    pub fn batch_matmul_nt(&self, other: &Tensor) -> Result<Tensor> {
        matmul_3d(self, false, other, true, "batch_matmul_nt")
    }

    /// Per-slice `selfᵀ · other` for `self` `[b, k, m]` and `other`
    /// `[b, k, n]`, without materialising the transpose.
    ///
    /// # Errors
    /// Returns an error on rank, batch or inner-dimension mismatch.
    pub fn batch_matmul_tn(&self, other: &Tensor) -> Result<Tensor> {
        matmul_3d(self, true, other, false, "batch_matmul_tn")
    }

    /// Matrix–vector product `[m, k] × [k] → [m]`.
    ///
    /// # Errors
    /// Returns an error on rank or inner-dimension mismatch.
    pub fn matvec(&self, v: &Tensor) -> Result<Tensor> {
        if self.rank() != 2 || v.rank() != 1 {
            return Err(TensorError::RankMismatch {
                op: "matvec",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, k) = (self.dims()[0], self.dims()[1]);
        if v.dims()[0] != k {
            return Err(TensorError::ShapeMismatch {
                op: "matvec",
                lhs: self.dims().to_vec(),
                rhs: v.dims().to_vec(),
            });
        }
        let mut out = vec![0.0f32; m];
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data()[i * k..(i + 1) * k];
            *o = row.iter().zip(v.data()).map(|(&a, &b)| a * b).sum();
        }
        Tensor::from_vec(out, &[m])
    }

    /// Outer product of two rank-1 tensors: `[m] ⊗ [n] → [m, n]`.
    ///
    /// # Errors
    /// Returns [`TensorError::RankMismatch`] if either tensor is not rank 1.
    pub fn outer(&self, other: &Tensor) -> Result<Tensor> {
        if self.rank() != 1 || other.rank() != 1 {
            return Err(TensorError::RankMismatch {
                op: "outer",
                expected: 1,
                actual: self.rank().max(other.rank()),
            });
        }
        let (m, n) = (self.numel(), other.numel());
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] = self.data()[i] * other.data()[j];
            }
        }
        Tensor::from_vec(out, &[m, n])
    }
}

/// The one rank-2 product body: `a` read as `[m, k]` and `b` as `[k, n]`,
/// each through its transpose when flagged, without materialising it.
fn matmul_2d(
    a: &Tensor,
    trans_a: bool,
    b: &Tensor,
    trans_b: bool,
    op: &'static str,
) -> Result<Tensor> {
    let (m, k) = oriented(check_rank2(a, op)?, trans_a);
    let (k2, n) = oriented(check_rank2(b, op)?, trans_b);
    check_inner(k, k2, a, b, op)?;
    let mut out = vec![0.0f32; m * n];
    gemm(
        &pool::global(),
        trans_a,
        a.data(),
        trans_b,
        b.data(),
        m,
        k,
        n,
        &mut out,
        false,
    );
    Tensor::from_vec(out, &[m, n])
}

/// The one rank-3 product body: per batch slice, `a` read as `[m, k]` and
/// `b` as `[k, n]`, each through its transpose when flagged.
fn matmul_3d(
    a: &Tensor,
    trans_a: bool,
    b: &Tensor,
    trans_b: bool,
    op: &'static str,
) -> Result<Tensor> {
    let (batch, rows, cols) = check_rank3(a, b, op)?;
    let (m, k) = oriented((rows, cols), trans_a);
    let (k2, n) = oriented((b.dims()[1], b.dims()[2]), trans_b);
    check_inner(k, k2, a, b, op)?;
    let mut out = vec![0.0f32; batch * m * n];
    batch_gemm(
        &pool::global(),
        trans_a,
        a.data(),
        trans_b,
        b.data(),
        batch,
        m,
        k,
        n,
        &mut out,
    );
    Tensor::from_vec(out, &[batch, m, n])
}

/// A stored `(rows, cols)` as the product reads it: swapped when the
/// operand is read transposed.
fn oriented((rows, cols): (usize, usize), transposed: bool) -> (usize, usize) {
    if transposed {
        (cols, rows)
    } else {
        (rows, cols)
    }
}

/// Refuses a product whose inner dimensions disagree.
fn check_inner(k: usize, k2: usize, a: &Tensor, b: &Tensor, op: &'static str) -> Result<()> {
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    Ok(())
}

/// Validates a rank-2 operand and returns its dimensions.
fn check_rank2(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.rank(),
        });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

/// Validates a pair of rank-3 operands with matching batch sizes and returns
/// the left operand's dimensions.
fn check_rank3(a: &Tensor, b: &Tensor, op: &'static str) -> Result<(usize, usize, usize)> {
    if a.rank() != 3 || b.rank() != 3 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 3,
            actual: if a.rank() != 3 { a.rank() } else { b.rank() },
        });
    }
    if a.dims()[0] != b.dims()[0] {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    Ok((a.dims()[0], a.dims()[1], a.dims()[2]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let a = Tensor::rand_uniform(&[3, 3], -1.0, 1.0, &mut rng);
        let c = a.matmul(&Tensor::eye(3)).unwrap();
        for (x, y) in a.data().iter().zip(c.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&b).is_err());
        assert!(a.matmul(&Tensor::zeros(&[3])).is_err());
        assert!(Tensor::zeros(&[3]).matmul(&a).is_err());
    }

    #[test]
    fn matmul_rectangular_shapes() {
        let a = Tensor::arange(6).reshape(&[2, 3]).unwrap();
        let b = Tensor::arange(12).reshape(&[3, 4]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 4]);
        // Row 0 of a = [0,1,2]; col 0 of b = [0,4,8] → 0*0+1*4+2*8 = 20.
        assert_eq!(c.get(&[0, 0]).unwrap(), 20.0);
        assert_eq!(c.get(&[1, 3]).unwrap(), 3.0 * 3.0 + 4.0 * 7.0 + 5.0 * 11.0);
    }

    #[test]
    fn batch_matmul_matches_per_slice_matmul() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let a = Tensor::rand_uniform(&[2, 3, 4], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[2, 4, 5], -1.0, 1.0, &mut rng);
        let c = a.batch_matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 3, 5]);
        for bi in 0..2 {
            let ai = a.index_axis(0, bi).unwrap();
            let bi_t = b.index_axis(0, bi).unwrap();
            let ci = c.index_axis(0, bi).unwrap();
            let expected = ai.matmul(&bi_t).unwrap();
            for (x, y) in ci.data().iter().zip(expected.data()) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn batch_matmul_rejects_mismatched_batches() {
        let a = Tensor::zeros(&[2, 3, 4]);
        let b = Tensor::zeros(&[3, 4, 5]);
        assert!(a.batch_matmul(&b).is_err());
        assert!(a.batch_matmul(&Tensor::zeros(&[2, 5, 6])).is_err());
        assert!(Tensor::zeros(&[2, 2]).batch_matmul(&a).is_err());
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = ChaCha8Rng::seed_from_u64(20);
        let a = Tensor::rand_uniform(&[5, 3], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[4, 3], -1.0, 1.0, &mut rng);
        let fused = a.matmul_nt(&b).unwrap();
        let explicit = a.matmul(&b.transpose().unwrap()).unwrap();
        assert_eq!(fused.dims(), &[5, 4]);
        for (x, y) in fused.data().iter().zip(explicit.data()) {
            assert!((x - y).abs() < 1e-6);
        }
        assert!(a.matmul_nt(&Tensor::zeros(&[4, 5])).is_err());
        assert!(a.matmul_nt(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let a = Tensor::rand_uniform(&[3, 5], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[3, 4], -1.0, 1.0, &mut rng);
        let fused = a.matmul_tn(&b).unwrap();
        let explicit = a.transpose().unwrap().matmul(&b).unwrap();
        assert_eq!(fused.dims(), &[5, 4]);
        for (x, y) in fused.data().iter().zip(explicit.data()) {
            assert!((x - y).abs() < 1e-6);
        }
        assert!(a.matmul_tn(&Tensor::zeros(&[4, 4])).is_err());
    }

    #[test]
    fn batch_matmul_transpose_variants_match_permute() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let a = Tensor::rand_uniform(&[3, 4, 5], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[3, 6, 5], -1.0, 1.0, &mut rng);
        let fused = a.batch_matmul_nt(&b).unwrap();
        let explicit = a.batch_matmul(&b.permute(&[0, 2, 1]).unwrap()).unwrap();
        assert_eq!(fused.dims(), &[3, 4, 6]);
        for (x, y) in fused.data().iter().zip(explicit.data()) {
            assert!((x - y).abs() < 1e-6);
        }

        let c = Tensor::rand_uniform(&[3, 4, 6], -1.0, 1.0, &mut rng);
        let fused_tn = a.batch_matmul_tn(&c).unwrap();
        let explicit_tn = a.permute(&[0, 2, 1]).unwrap().batch_matmul(&c).unwrap();
        assert_eq!(fused_tn.dims(), &[3, 5, 6]);
        for (x, y) in fused_tn.data().iter().zip(explicit_tn.data()) {
            assert!((x - y).abs() < 1e-6);
        }
        assert!(a.batch_matmul_nt(&Tensor::zeros(&[2, 6, 5])).is_err());
        assert!(a.batch_matmul_tn(&Tensor::zeros(&[3, 5, 2])).is_err());
    }

    #[test]
    fn large_matmul_matches_naive_reference() {
        // Exercises the blocked/packed path (above the small-GEMM cutoff).
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let a = Tensor::rand_uniform(&[70, 90], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[90, 65], -1.0, 1.0, &mut rng);
        let fast = a.matmul(&b).unwrap();
        let naive = crate::kernels::reference::naive_matmul(&a, &b).unwrap();
        for (x, y) in fast.data().iter().zip(naive.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matvec_and_outer() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let v = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        assert_eq!(m.matvec(&v).unwrap().data(), &[-1.0, -1.0]);
        assert!(m.matvec(&Tensor::zeros(&[3])).is_err());

        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0], &[3]).unwrap();
        let o = a.outer(&b).unwrap();
        assert_eq!(o.dims(), &[2, 3]);
        assert_eq!(o.data(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
        assert!(m.outer(&b).is_err());
    }

    proptest! {
        #[test]
        fn prop_matmul_associates_with_transpose(seed in 0u64..300) {
            // (A B)^T == B^T A^T
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let a = Tensor::rand_uniform(&[3, 4], -2.0, 2.0, &mut rng);
            let b = Tensor::rand_uniform(&[4, 2], -2.0, 2.0, &mut rng);
            let left = a.matmul(&b).unwrap().transpose().unwrap();
            let right = b.transpose().unwrap().matmul(&a.transpose().unwrap()).unwrap();
            for (x, y) in left.data().iter().zip(right.data()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        #[test]
        fn prop_matmul_distributes_over_addition(seed in 0u64..300) {
            // A (B + C) == A B + A C
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let a = Tensor::rand_uniform(&[2, 3], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform(&[3, 2], -1.0, 1.0, &mut rng);
            let c = Tensor::rand_uniform(&[3, 2], -1.0, 1.0, &mut rng);
            let left = a.matmul(&b.add(&c).unwrap()).unwrap();
            let right = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
            for (x, y) in left.data().iter().zip(right.data()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }
    }
}
