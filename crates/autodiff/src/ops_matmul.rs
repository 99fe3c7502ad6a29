//! Matrix-product graph ops: `matmul`, batched `matmul`, the attention
//! probabilities and the fused `linear` layer primitive.

use crate::node::NodeId;
use crate::{Graph, Result};

impl Graph {
    /// Matrix product of two rank-2 nodes: `[m, k] × [k, n] → [m, n]`.
    ///
    /// # Errors
    /// Returns an error on rank or inner-dimension mismatch.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        let value = self.value(a)?.matmul(self.value(b)?)?;
        self.push_op(
            "matmul",
            value,
            vec![a, b],
            Box::new(|ctx| {
                let a_val = ctx.parent_values[0];
                let b_val = ctx.parent_values[1];
                let g = ctx.grad_output;
                // dL/dA = G Bᵀ ; dL/dB = Aᵀ G — fused variants, no transpose
                // materialisation.
                let ga = g.matmul_nt(b_val)?;
                let gb = a_val.matmul_tn(g)?;
                Ok(vec![ga, gb])
            }),
        )
    }

    /// Batched matrix product of rank-3 nodes:
    /// `[b, m, k] × [b, k, n] → [b, m, n]`.
    ///
    /// # Errors
    /// Returns an error on rank, batch or inner-dimension mismatch.
    pub fn batch_matmul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        let value = self.value(a)?.batch_matmul(self.value(b)?)?;
        self.push_op(
            "batch_matmul",
            value,
            vec![a, b],
            Box::new(|ctx| {
                let a_val = ctx.parent_values[0];
                let b_val = ctx.parent_values[1];
                let g = ctx.grad_output;
                let ga = g.batch_matmul_nt(b_val)?;
                let gb = a_val.batch_matmul_tn(g)?;
                Ok(vec![ga, gb])
            }),
        )
    }

    /// Attention probabilities `softmax(scale · q·kᵀ)` of rank-3 nodes:
    /// `q` `[b, t, d]` and `k` `[b, s, d]` give `[b, t, s]`, the softmax taken
    /// along the last axis.
    ///
    /// The node stores only the probabilities: the scores `q·kᵀ` are
    /// computed into a buffer that becomes the probabilities in place
    /// ([`pelta_tensor::Tensor::into_scaled_softmax`]), and the backward
    /// pass needs only the probabilities, `q` and `k`. Every operation runs
    /// in the order of the unfused chain (batched `q·kᵀ`, scale, softmax),
    /// so the value and both gradients have that chain's bits.
    ///
    /// # Errors
    /// Returns an error on rank, batch or inner-dimension mismatch, or if
    /// the scores are empty.
    pub fn attention_probs(&mut self, q: NodeId, k: NodeId, scale: f32) -> Result<NodeId> {
        let value = self
            .value(q)?
            .batch_matmul_nt(self.value(k)?)?
            .into_scaled_softmax(scale)?;
        self.push_op(
            "attention_probs",
            value,
            vec![q, k],
            Box::new(move |ctx| {
                let q_val = ctx.parent_values[0];
                let k_val = ctx.parent_values[1];
                // dS = (y ⊙ (G − Σ G⊙y)) · scale is the gradient of the
                // scores S = q kᵀ, so dL/dq = dS k and dL/dk = dSᵀ q.
                let ds = ctx
                    .output_value
                    .scaled_softmax_backward(ctx.grad_output, scale)?;
                let gq = ds.batch_matmul(k_val)?;
                let gk = ds.batch_matmul_tn(q_val)?;
                Ok(vec![gq, gk])
            }),
        )
    }

    /// Fused affine transform `x · Wᵀ + b` for a batch of row vectors.
    ///
    /// `x` has shape `[batch, in]`, `weight` has shape `[out, in]` (stored in
    /// the usual fully-connected layout) and `bias` shape `[out]`.
    ///
    /// # Errors
    /// Returns an error on shape mismatch.
    pub fn linear(&mut self, x: NodeId, weight: NodeId, bias: NodeId) -> Result<NodeId> {
        let xw = self.value(x)?.matmul_nt(self.value(weight)?)?;
        let value = xw.add(self.value(bias)?)?;
        self.push_op(
            "linear",
            value,
            vec![x, weight, bias],
            Box::new(|ctx| {
                let x_val = ctx.parent_values[0];
                let w_val = ctx.parent_values[1];
                let b_val = ctx.parent_values[2];
                let g = ctx.grad_output;
                // y = x Wᵀ + b  ⇒  dL/dx = G W, dL/dW = Gᵀ x, dL/db = Σ_rows G.
                let gx = g.matmul(w_val)?;
                let gw = g.matmul_tn(x_val)?;
                let gb = g.reduce_to_shape(b_val.dims())?;
                Ok(vec![gx, gw, gb])
            }),
        )
    }

    /// Fused affine transform for a batch of token sequences:
    /// `[batch, tokens, in] · Wᵀ + b → [batch, tokens, out]`.
    ///
    /// # Errors
    /// Returns an error on shape mismatch.
    pub fn linear_3d(&mut self, x: NodeId, weight: NodeId, bias: NodeId) -> Result<NodeId> {
        let x_val = self.value(x)?;
        let (b, t, d_in) = (x_val.dims()[0], x_val.dims()[1], x_val.dims()[2]);
        let w_val = self.value(weight)?;
        let d_out = w_val.dims()[0];
        let flat = x_val.reshape(&[b * t, d_in])?;
        let value = flat
            .matmul_nt(w_val)?
            .add(self.value(bias)?)?
            .reshape(&[b, t, d_out])?;
        self.push_op(
            "linear_3d",
            value,
            vec![x, weight, bias],
            Box::new(move |ctx| {
                let x_val = ctx.parent_values[0];
                let w_val = ctx.parent_values[1];
                let b_val = ctx.parent_values[2];
                let (bb, tt, din) = (x_val.dims()[0], x_val.dims()[1], x_val.dims()[2]);
                let dout = w_val.dims()[0];
                let g = ctx.grad_output.reshape(&[bb * tt, dout])?;
                let x_flat = x_val.reshape(&[bb * tt, din])?;
                let gx = g.matmul(w_val)?.reshape(&[bb, tt, din])?;
                let gw = g.matmul_tn(&x_flat)?;
                let gb = g.reduce_to_shape(b_val.dims())?;
                Ok(vec![gx, gw, gb])
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_grad::{check_input_gradient, check_parameter_gradient};
    use pelta_tensor::{SeedStream, Tensor};

    #[test]
    fn matmul_gradients_numerically() {
        let mut seeds = SeedStream::new(200);
        let mut rng = seeds.derive("matmul");
        let x = Tensor::rand_uniform(&[3, 4], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[4, 2], -1.0, 1.0, &mut rng);
        let w_for_param = w.clone();
        check_input_gradient(&x, 5e-2, |g, xid| {
            let wid = g.parameter(w.clone(), "w");
            let y = g.matmul(xid, wid)?;
            g.sum_all(y)
        });
        let x2 = x.clone();
        check_parameter_gradient(&w_for_param, "w", 5e-2, move |g, w_current| {
            let xid = g.input(x2.clone(), "x");
            let wid = g.parameter(w_current.clone(), "w");
            let y = g.matmul(xid, wid)?;
            g.sum_all(y)
        });
    }

    #[test]
    fn batch_matmul_gradients_numerically() {
        let mut seeds = SeedStream::new(201);
        let mut rng = seeds.derive("batch_matmul");
        let x = Tensor::rand_uniform(&[2, 3, 4], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[2, 4, 3], -1.0, 1.0, &mut rng);
        check_input_gradient(&x, 5e-2, |g, xid| {
            let wid = g.parameter(w.clone(), "w");
            let y = g.batch_matmul(xid, wid)?;
            g.sum_all(y)
        });
    }

    #[test]
    fn attention_probs_gradients_numerically() {
        let mut seeds = SeedStream::new(205);
        let mut rng = seeds.derive("attention_probs");
        let q = Tensor::rand_uniform(&[2, 3, 4], -1.0, 1.0, &mut rng);
        let k = Tensor::rand_uniform(&[2, 5, 4], -1.0, 1.0, &mut rng);
        // A weighted sum, because the rows of a softmax sum to one and an
        // unweighted sum has zero gradient.
        let weights = Tensor::rand_uniform(&[2, 3, 5], 0.0, 1.0, &mut rng);
        let (k1, w1) = (k.clone(), weights.clone());
        check_input_gradient(&q, 5e-2, move |g, qid| {
            let kid = g.parameter(k1.clone(), "k");
            let probs = g.attention_probs(qid, kid, 0.5)?;
            let w = g.constant(w1.clone());
            let weighted = g.mul(probs, w)?;
            g.sum_all(weighted)
        });
        let q2 = q.clone();
        check_parameter_gradient(&k, "k", 5e-2, move |g, k_current| {
            let qid = g.input(q2.clone(), "q");
            let kid = g.parameter(k_current.clone(), "k");
            let probs = g.attention_probs(qid, kid, 0.5)?;
            let w = g.constant(weights.clone());
            let weighted = g.mul(probs, w)?;
            g.sum_all(weighted)
        });
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    /// The node's value and both parent gradients equal the unfused
    /// tensor-level chain bit for bit: `batch_matmul_nt`, `mul_scalar`,
    /// `softmax_last_axis`, and the softmax backward `y ⊙ (g − Σ g⊙y)`
    /// followed by the scale and the two products.
    #[test]
    fn attention_probs_matches_the_tensor_chain_bit_for_bit() {
        let mut seeds = SeedStream::new(206);
        let mut rng = seeds.derive("attention_probs_bits");
        let scale = 1.0 / 8.0f32.sqrt();
        for t in [1, 65] {
            let q = Tensor::rand_uniform(&[3, t, 8], -2.0, 2.0, &mut rng);
            let mut k = Tensor::rand_uniform(&[3, t, 8], -2.0, 2.0, &mut rng);
            // Slice 1: every key equal, so each row of scores ties at its
            // maximum.
            let key = k.data()[t * 8..t * 8 + 8].to_vec();
            for row in k.data_mut()[t * 8..2 * t * 8].chunks_exact_mut(8) {
                row.copy_from_slice(&key);
            }
            let upstream = Tensor::rand_uniform(&[3, t, t], -1.0, 1.0, &mut rng);

            let mut g = Graph::new();
            let qid = g.input(q.clone(), "q");
            let kid = g.parameter(k.clone(), "k");
            let probs = g.attention_probs(qid, kid, scale).unwrap();
            let w = g.constant(upstream.clone());
            let weighted = g.mul(probs, w).unwrap();
            let loss = g.sum_all(weighted).unwrap();
            let grads = g.backward(loss).unwrap();

            let y = q
                .batch_matmul_nt(&k)
                .unwrap()
                .mul_scalar(scale)
                .softmax_last_axis()
                .unwrap();
            assert_eq!(bits(g.value(probs).unwrap()), bits(&y), "value, t={t}");
            let sum = upstream.mul(&y).unwrap().sum_axis(2, true).unwrap();
            let ds = y
                .mul(&upstream.sub(&sum).unwrap())
                .unwrap()
                .mul_scalar(scale);
            let gq = ds.batch_matmul(&k).unwrap();
            let gk = ds.batch_matmul_tn(&q).unwrap();
            assert_eq!(bits(grads.get(qid).unwrap()), bits(&gq), "dq, t={t}");
            assert_eq!(bits(grads.get(kid).unwrap()), bits(&gk), "dk, t={t}");
        }
    }

    #[test]
    fn linear_matches_manual_composition() {
        let mut seeds = SeedStream::new(202);
        let mut rng = seeds.derive("linear");
        let x = Tensor::rand_uniform(&[5, 3], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[4, 3], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[4], -1.0, 1.0, &mut rng);

        let mut g = Graph::new();
        let xid = g.input(x.clone(), "x");
        let wid = g.parameter(w.clone(), "w");
        let bid = g.parameter(b.clone(), "b");
        let y = g.linear(xid, wid, bid).unwrap();
        let expected = x.matmul(&w.transpose().unwrap()).unwrap().add(&b).unwrap();
        assert_eq!(g.value(y).unwrap(), &expected);
    }

    #[test]
    fn linear_gradients_numerically() {
        let mut seeds = SeedStream::new(203);
        let mut rng = seeds.derive("linear_grad");
        let x = Tensor::rand_uniform(&[4, 3], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[2, 3], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[2], -1.0, 1.0, &mut rng);
        let (w1, b1) = (w.clone(), b.clone());
        check_input_gradient(&x, 5e-2, |g, xid| {
            let wid = g.parameter(w1.clone(), "w");
            let bid = g.parameter(b1.clone(), "b");
            let y = g.linear(xid, wid, bid)?;
            g.sum_all(y)
        });
        let x2 = x.clone();
        let b2 = b.clone();
        check_parameter_gradient(&w, "w", 5e-2, move |g, w_current| {
            let xid = g.input(x2.clone(), "x");
            let wid = g.parameter(w_current.clone(), "w");
            let bid = g.parameter(b2.clone(), "b");
            let y = g.linear(xid, wid, bid)?;
            g.sum_all(y)
        });
        let x3 = x.clone();
        let w3 = w.clone();
        check_parameter_gradient(&b, "b", 5e-2, move |g, b_current| {
            let xid = g.input(x3.clone(), "x");
            let wid = g.parameter(w3.clone(), "w");
            let bid = g.parameter(b_current.clone(), "b");
            let y = g.linear(xid, wid, bid)?;
            g.sum_all(y)
        });
    }

    #[test]
    fn linear_3d_gradients_numerically() {
        let mut seeds = SeedStream::new(204);
        let mut rng = seeds.derive("linear3d");
        let x = Tensor::rand_uniform(&[2, 3, 4], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[5, 4], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[5], -1.0, 1.0, &mut rng);
        check_input_gradient(&x, 5e-2, |g, xid| {
            let wid = g.parameter(w.clone(), "w");
            let bid = g.parameter(b.clone(), "b");
            let y = g.linear_3d(xid, wid, bid)?;
            g.sum_all(y)
        });
    }

    #[test]
    fn matmul_shape_errors_propagate() {
        let mut g = Graph::new();
        let a = g.input(Tensor::zeros(&[2, 3]), "a");
        let b = g.parameter(Tensor::zeros(&[2, 3]), "b");
        assert!(g.matmul(a, b).is_err());
    }
}
