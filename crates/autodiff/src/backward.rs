//! Reverse-mode adjoint propagation.

use std::collections::HashMap;

use pelta_tensor::Tensor;

use crate::node::{BackwardCtx, NodeId};
use crate::{AutodiffError, Graph, Result};

/// The result of a backward pass: the adjoint `dL/du_i` of every node that
/// influences the loss.
///
/// In the paper's notation, `Gradients` holds the complete set of backward
/// quantities an unrestricted white-box attacker would read from device
/// memory: `∇_x L` (gradient w.r.t. the input image, used by evasion
/// attacks), `∇_θ L` (gradients w.r.t. parameters, used for training and
/// targeted by inversion attacks) and every intermediate adjoint, including
/// the `δ_{L+1}` of the shallowest clear layer that remains visible once
/// Pelta shields the layers below it.
#[derive(Debug, Default)]
pub struct Gradients {
    grads: HashMap<NodeId, Tensor>,
}

impl Gradients {
    /// Gradient of the loss with respect to the given node, if it exists.
    pub fn get(&self, id: NodeId) -> Option<&Tensor> {
        self.grads.get(&id)
    }

    /// Gradient of the loss with respect to the node carrying `tag`.
    ///
    /// # Errors
    /// Returns [`AutodiffError::UnknownTag`] if the tag does not exist and
    /// [`AutodiffError::NoGradient`] if the node does not influence the loss.
    pub fn by_tag(&self, graph: &Graph, tag: &str) -> Result<&Tensor> {
        let id = graph.node_by_tag(tag)?;
        self.grads.get(&id).ok_or(AutodiffError::NoGradient { id })
    }

    /// Number of nodes that received a gradient.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// Whether no node received a gradient.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    /// Iterates over `(node id, gradient)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Tensor)> {
        self.grads.iter().map(|(id, g)| (*id, g))
    }

    /// Removes and returns the gradient for a node (used by the Pelta shield
    /// to *move* sensitive adjoints into the enclave rather than copy them).
    pub fn take(&mut self, id: NodeId) -> Option<Tensor> {
        self.grads.remove(&id)
    }

    /// Inserts a gradient for a node (used in tests and by gradient
    /// surgery utilities).
    pub fn insert(&mut self, id: NodeId, grad: Tensor) {
        self.grads.insert(id, grad);
    }
}

impl Graph {
    /// Runs reverse-mode differentiation from the scalar node `loss`.
    ///
    /// Adjoints are propagated in reverse topological (insertion) order; a
    /// node with several children accumulates the sum of the incoming
    /// vector–Jacobian products, exactly as in Eq. 1 of the paper.
    ///
    /// # Errors
    /// Returns [`AutodiffError::NonScalarLoss`] if `loss` is not a scalar and
    /// [`AutodiffError::UnknownNode`] if it does not belong to this graph.
    pub fn backward(&self, loss: NodeId) -> Result<Gradients> {
        let loss_node = self.node(loss)?;
        if loss_node.value().numel() != 1 {
            return Err(AutodiffError::NonScalarLoss {
                id: loss,
                shape: loss_node.value().dims().to_vec(),
            });
        }

        let mut adjoints: HashMap<NodeId, Tensor> = HashMap::new();
        adjoints.insert(loss, Tensor::full(loss_node.value().dims(), 1.0));

        // The tape is already topologically ordered (parents precede
        // children), so a reverse sweep visits every child before its parents.
        for index in (0..=loss.index()).rev() {
            let id = NodeId::new(index);
            let node = self.node(id)?;
            let Some(backward) = node.backward_fn() else {
                continue; // Leaf node: nothing to propagate further.
            };
            // Every child has already propagated, so this adjoint is final.
            // It leaves the map while the closure borrows it and goes back
            // afterwards (the shield reads intermediate adjoints), so it is
            // never copied.
            let Some(grad_out) = adjoints.remove(&id) else {
                continue;
            };
            let parent_values: Vec<&Tensor> = node
                .parents()
                .iter()
                .map(|&p| self.value(p))
                .collect::<Result<_>>()?;
            let ctx = BackwardCtx {
                grad_output: &grad_out,
                parent_values,
                output_value: node.value(),
            };
            let parent_grads = backward(&ctx)?;
            adjoints.insert(id, grad_out);
            debug_assert_eq!(parent_grads.len(), node.parents().len());
            for (&parent, grad) in node.parents().iter().zip(parent_grads) {
                // Constants never accumulate gradients.
                if self.node(parent)?.role() == crate::NodeRole::Constant {
                    continue;
                }
                match adjoints.get_mut(&parent) {
                    Some(existing) => {
                        *existing = existing.add(&grad)?;
                    }
                    None => {
                        adjoints.insert(parent, grad);
                    }
                }
            }
        }

        Ok(Gradients { grads: adjoints })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelta_tensor::Tensor;

    #[test]
    fn linear_chain_gradient() {
        // loss = sum(relu(x * w)); with positive values the gradient of x is w.
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap(), "x");
        let w = g.parameter(Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap(), "w");
        let prod = g.mul(x, w).unwrap();
        let act = g.relu(prod).unwrap();
        let loss = g.sum_all(act).unwrap();
        let grads = g.backward(loss).unwrap();
        assert_eq!(grads.get(x).unwrap().data(), &[3.0, 4.0]);
        assert_eq!(grads.get(w).unwrap().data(), &[1.0, 2.0]);
        assert_eq!(grads.by_tag(&g, "x").unwrap().data(), &[3.0, 4.0]);
    }

    #[test]
    fn fan_out_accumulates() {
        // loss = sum(x*a) + sum(x*b): dL/dx = a + b.
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap(), "x");
        let a = g.parameter(Tensor::from_vec(vec![2.0, 3.0], &[2]).unwrap(), "a");
        let b = g.parameter(Tensor::from_vec(vec![5.0, 7.0], &[2]).unwrap(), "b");
        let xa = g.mul(x, a).unwrap();
        let xb = g.mul(x, b).unwrap();
        let sa = g.sum_all(xa).unwrap();
        let sb = g.sum_all(xb).unwrap();
        let loss = g.add(sa, sb).unwrap();
        let grads = g.backward(loss).unwrap();
        assert_eq!(grads.get(x).unwrap().data(), &[7.0, 10.0]);
    }

    #[test]
    fn constants_receive_no_gradient() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![2.0], &[1]).unwrap(), "x");
        let c = g.constant(Tensor::from_vec(vec![3.0], &[1]).unwrap());
        let prod = g.mul(x, c).unwrap();
        let loss = g.sum_all(prod).unwrap();
        let grads = g.backward(loss).unwrap();
        assert!(grads.get(c).is_none());
        assert_eq!(grads.get(x).unwrap().data(), &[3.0]);
    }

    #[test]
    fn non_scalar_loss_rejected() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap(), "x");
        assert!(matches!(
            g.backward(x),
            Err(AutodiffError::NonScalarLoss { .. })
        ));
    }

    #[test]
    fn node_not_on_loss_path_has_no_gradient() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1.0], &[1]).unwrap(), "x");
        let unused = g.input(Tensor::from_vec(vec![9.0], &[1]).unwrap(), "unused");
        let loss = g.sum_all(x).unwrap();
        let grads = g.backward(loss).unwrap();
        assert!(grads.get(unused).is_none());
        assert!(grads.by_tag(&g, "unused").is_err());
        assert!(grads.by_tag(&g, "missing").is_err());
    }

    #[test]
    fn gradients_take_and_insert() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1.0], &[1]).unwrap(), "x");
        let loss = g.sum_all(x).unwrap();
        let mut grads = g.backward(loss).unwrap();
        assert!(!grads.is_empty());
        let taken = grads.take(x).unwrap();
        assert_eq!(taken.data(), &[1.0]);
        assert!(grads.get(x).is_none());
        grads.insert(x, Tensor::from_vec(vec![5.0], &[1]).unwrap());
        assert_eq!(grads.get(x).unwrap().data(), &[5.0]);
        assert!(grads.iter().count() >= 1);
        assert!(!grads.is_empty());
    }
}
