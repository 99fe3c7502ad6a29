//! Element-wise arithmetic, activations and global reductions as graph ops.

use pelta_tensor::Tensor;

use crate::node::NodeId;
use crate::{Graph, Result};

impl Graph {
    /// Element-wise addition with broadcasting: `a + b`.
    ///
    /// # Errors
    /// Returns an error if the shapes are not broadcast-compatible.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        let value = self.value(a)?.add(self.value(b)?)?;
        self.push_op(
            "add",
            value,
            vec![a, b],
            Box::new(|ctx| {
                let ga = ctx
                    .grad_output
                    .reduce_to_shape(ctx.parent_values[0].dims())?;
                let gb = ctx
                    .grad_output
                    .reduce_to_shape(ctx.parent_values[1].dims())?;
                Ok(vec![ga, gb])
            }),
        )
    }

    /// Element-wise subtraction with broadcasting: `a - b`.
    ///
    /// # Errors
    /// Returns an error if the shapes are not broadcast-compatible.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        let value = self.value(a)?.sub(self.value(b)?)?;
        self.push_op(
            "sub",
            value,
            vec![a, b],
            Box::new(|ctx| {
                let ga = ctx
                    .grad_output
                    .reduce_to_shape(ctx.parent_values[0].dims())?;
                let gb = ctx
                    .grad_output
                    .neg()
                    .reduce_to_shape(ctx.parent_values[1].dims())?;
                Ok(vec![ga, gb])
            }),
        )
    }

    /// Element-wise (Hadamard) product with broadcasting: `a ⊙ b`.
    ///
    /// # Errors
    /// Returns an error if the shapes are not broadcast-compatible.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        let value = self.value(a)?.mul(self.value(b)?)?;
        self.push_op(
            "mul",
            value,
            vec![a, b],
            Box::new(|ctx| {
                let ga = ctx
                    .grad_output
                    .mul(ctx.parent_values[1])?
                    .reduce_to_shape(ctx.parent_values[0].dims())?;
                let gb = ctx
                    .grad_output
                    .mul(ctx.parent_values[0])?
                    .reduce_to_shape(ctx.parent_values[1].dims())?;
                Ok(vec![ga, gb])
            }),
        )
    }

    /// Element-wise division with broadcasting: `a / b`.
    ///
    /// # Errors
    /// Returns an error if the shapes are not broadcast-compatible.
    pub fn div(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        let value = self.value(a)?.div(self.value(b)?)?;
        self.push_op(
            "div",
            value,
            vec![a, b],
            Box::new(|ctx| {
                let b_val = ctx.parent_values[1];
                let ga = ctx
                    .grad_output
                    .div(b_val)?
                    .reduce_to_shape(ctx.parent_values[0].dims())?;
                // d(a/b)/db = -a / b^2
                let gb = ctx
                    .grad_output
                    .mul(ctx.parent_values[0])?
                    .div(&b_val.square())?
                    .neg()
                    .reduce_to_shape(b_val.dims())?;
                Ok(vec![ga, gb])
            }),
        )
    }

    /// Negation: `-a`.
    ///
    /// # Errors
    /// Returns an error if the node id is invalid.
    pub fn neg(&mut self, a: NodeId) -> Result<NodeId> {
        let value = self.value(a)?.neg();
        self.push_op(
            "neg",
            value,
            vec![a],
            Box::new(|ctx| Ok(vec![ctx.grad_output.neg()])),
        )
    }

    /// Adds a compile-time scalar: `a + s`.
    ///
    /// # Errors
    /// Returns an error if the node id is invalid.
    pub fn add_scalar(&mut self, a: NodeId, s: f32) -> Result<NodeId> {
        let value = self.value(a)?.add_scalar(s);
        self.push_op(
            "add_scalar",
            value,
            vec![a],
            Box::new(|ctx| Ok(vec![ctx.grad_output.clone()])),
        )
    }

    /// Rectified linear unit.
    ///
    /// # Errors
    /// Returns an error if the node id is invalid.
    pub fn relu(&mut self, a: NodeId) -> Result<NodeId> {
        let value = self.value(a)?.relu();
        self.push_op(
            "relu",
            value,
            vec![a],
            Box::new(|ctx| {
                let mask = ctx.parent_values[0].map(|x| if x > 0.0 { 1.0 } else { 0.0 });
                Ok(vec![ctx.grad_output.mul(&mask)?])
            }),
        )
    }

    /// Gaussian error linear unit (tanh approximation), as used by ViT MLPs.
    ///
    /// # Errors
    /// Returns an error if the node id is invalid.
    pub fn gelu(&mut self, a: NodeId) -> Result<NodeId> {
        let value = self.value(a)?.gelu();
        self.push_op(
            "gelu",
            value,
            vec![a],
            Box::new(|ctx| {
                let dgelu = ctx.parent_values[0].gelu_grad();
                Ok(vec![ctx.grad_output.mul(&dgelu)?])
            }),
        )
    }

    /// Hyperbolic tangent.
    ///
    /// # Errors
    /// Returns an error if the node id is invalid.
    pub fn tanh(&mut self, a: NodeId) -> Result<NodeId> {
        let value = self.value(a)?.tanh();
        self.push_op(
            "tanh",
            value,
            vec![a],
            Box::new(|ctx| {
                // d tanh / dx = 1 - tanh(x)^2, read from the output value.
                let one_minus_y2 = ctx.output_value.square().neg().add_scalar(1.0);
                Ok(vec![ctx.grad_output.mul(&one_minus_y2)?])
            }),
        )
    }

    /// Logistic sigmoid.
    ///
    /// # Errors
    /// Returns an error if the node id is invalid.
    pub fn sigmoid(&mut self, a: NodeId) -> Result<NodeId> {
        let value = self.value(a)?.sigmoid();
        self.push_op(
            "sigmoid",
            value,
            vec![a],
            Box::new(|ctx| {
                // dσ/dx = σ(x)(1-σ(x)).
                let y = ctx.output_value;
                let dy = y.mul(&y.neg().add_scalar(1.0))?;
                Ok(vec![ctx.grad_output.mul(&dy)?])
            }),
        )
    }

    /// Numerically stable log-softmax along the last axis.
    ///
    /// # Errors
    /// Returns an error if the node id is invalid or the tensor is empty.
    pub fn log_softmax(&mut self, a: NodeId) -> Result<NodeId> {
        let value = self.value(a)?.log_softmax_last_axis()?;
        self.push_op(
            "log_softmax",
            value,
            vec![a],
            Box::new(|ctx| {
                // dL/dx = dL/dy − softmax(x) ⊙ Σ_last(dL/dy).
                let g = ctx.grad_output;
                let softmax = ctx.output_value.exp();
                let last_axis = ctx.output_value.rank() - 1;
                let gsum = g.sum_axis(last_axis, true)?;
                let dx = g.sub(&softmax.mul(&gsum)?)?;
                Ok(vec![dx])
            }),
        )
    }

    /// Sum of all elements, producing a scalar node.
    ///
    /// # Errors
    /// Returns an error if the node id is invalid.
    pub fn sum_all(&mut self, a: NodeId) -> Result<NodeId> {
        let value = Tensor::scalar(self.value(a)?.sum());
        self.push_op(
            "sum_all",
            value,
            vec![a],
            Box::new(|ctx| {
                let g = ctx.grad_output.item().unwrap_or(1.0);
                Ok(vec![Tensor::full(ctx.parent_values[0].dims(), g)])
            }),
        )
    }

    /// Mean of all elements, producing a scalar node.
    ///
    /// # Errors
    /// Returns an error if the node id is invalid or the tensor is empty.
    pub fn mean_all(&mut self, a: NodeId) -> Result<NodeId> {
        let mean = self.value(a)?.mean()?;
        let value = Tensor::scalar(mean);
        self.push_op(
            "mean_all",
            value,
            vec![a],
            Box::new(|ctx| {
                let n = ctx.parent_values[0].numel() as f32;
                let g = ctx.grad_output.item().unwrap_or(1.0) / n;
                Ok(vec![Tensor::full(ctx.parent_values[0].dims(), g)])
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_grad::check_input_gradient;
    use pelta_tensor::SeedStream;
    use pelta_tensor::Tensor;

    #[test]
    fn add_sub_mul_div_gradients_numerically() {
        let mut seeds = SeedStream::new(100);
        let mut rng = seeds.derive("ops_basic");
        for op in ["add", "sub", "mul", "div"] {
            let x = Tensor::rand_uniform(&[2, 3], 0.5, 2.0, &mut rng);
            let w = Tensor::rand_uniform(&[2, 3], 0.5, 2.0, &mut rng);
            check_input_gradient(&x, 5e-2, |g, xid| {
                let wid = g.parameter(w.clone(), "w");
                let node = match op {
                    "add" => g.add(xid, wid)?,
                    "sub" => g.sub(xid, wid)?,
                    "mul" => g.mul(xid, wid)?,
                    _ => g.div(xid, wid)?,
                };
                g.sum_all(node)
            });
        }
    }

    #[test]
    fn broadcast_add_gradient_reduces() {
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[2, 3]), "x");
        let row = g.parameter(Tensor::ones(&[3]), "row");
        let sum = g.add(x, row).unwrap();
        let loss = g.sum_all(sum).unwrap();
        let grads = g.backward(loss).unwrap();
        assert_eq!(grads.get(row).unwrap().dims(), &[3]);
        assert_eq!(grads.get(row).unwrap().data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn activation_gradients_numerically() {
        let mut seeds = SeedStream::new(101);
        let mut rng = seeds.derive("activations");
        let x = Tensor::rand_uniform(&[3, 4], -2.0, 2.0, &mut rng);
        check_input_gradient(&x, 5e-2, |g, xid| {
            let y = g.gelu(xid)?;
            g.sum_all(y)
        });
        check_input_gradient(&x, 5e-2, |g, xid| {
            let y = g.tanh(xid)?;
            g.sum_all(y)
        });
        check_input_gradient(&x, 5e-2, |g, xid| {
            let y = g.sigmoid(xid)?;
            g.sum_all(y)
        });
        // ReLU is checked away from the kink.
        let x_pos = Tensor::rand_uniform(&[3, 4], 0.5, 2.0, &mut rng);
        check_input_gradient(&x_pos, 5e-2, |g, xid| {
            let y = g.relu(xid)?;
            g.sum_all(y)
        });
    }

    #[test]
    fn scalar_ops_and_neg_gradients() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap(), "x");
        let three = g.constant(Tensor::full(&[2], 3.0));
        let y = g.mul(x, three).unwrap();
        let z = g.add_scalar(y, 1.0).unwrap();
        let n = g.neg(z).unwrap();
        let loss = g.sum_all(n).unwrap();
        let grads = g.backward(loss).unwrap();
        assert_eq!(grads.get(x).unwrap().data(), &[-3.0, -3.0]);
    }

    #[test]
    fn softmax_and_log_softmax_gradients_numerically() {
        let mut seeds = SeedStream::new(102);
        let mut rng = seeds.derive("softmax");
        let x = Tensor::rand_uniform(&[1, 2, 5], -1.0, 1.0, &mut rng);
        // Use a weighted sum so the gradient is not identically zero (softmax
        // rows sum to one, so an unweighted sum has zero gradient).
        let weights = Tensor::rand_uniform(&[1, 2, 5], 0.0, 1.0, &mut rng);
        let w2 = weights.clone();
        // The softmax runs through `attention_probs` against identity keys,
        // whose scores `x·Iᵀ` are exactly `x`.
        let identity = Tensor::eye(5).reshape(&[1, 5, 5]).unwrap();
        check_input_gradient(&x, 5e-2, move |g, xid| {
            let keys = g.constant(identity.clone());
            let s = g.attention_probs(xid, keys, 1.0)?;
            let w = g.constant(weights.clone());
            let weighted = g.mul(s, w)?;
            g.sum_all(weighted)
        });
        check_input_gradient(&x, 5e-2, move |g, xid| {
            let s = g.log_softmax(xid)?;
            let w = g.constant(w2.clone());
            let weighted = g.mul(s, w)?;
            g.sum_all(weighted)
        });
    }

    #[test]
    fn mean_all_gradient_scales_by_count() {
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[4]), "x");
        let m = g.mean_all(x).unwrap();
        let grads = g.backward(m).unwrap();
        assert_eq!(grads.get(x).unwrap().data(), &[0.25, 0.25, 0.25, 0.25]);
    }
}
