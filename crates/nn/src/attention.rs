//! Multi-head self-attention, the core transformer primitive.

use pelta_autodiff::{Graph, NodeId};
use rand::Rng;

use crate::{Linear, Module, NnError, Param, Result};

/// Multi-head self-attention over a `[N, T, D]` token sequence.
///
/// The per-block attention probability matrices are tagged in the graph as
/// `attn_probs.<name>` (shape `[N·heads, T, T]`); the Self-Attention Gradient
/// Attack of §V-B reads them to build its attention-rollout weighting `ϕ_v`,
/// and tests use them to verify the shield does **not** need to hide deep
/// attention maps (only the shallow embedding layers are shielded).
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    name: String,
    query: Linear,
    key: Linear,
    value: Linear,
    output: Linear,
    heads: usize,
    dim: usize,
}

impl MultiHeadAttention {
    /// Creates a multi-head attention block.
    ///
    /// # Errors
    /// Returns [`NnError::InvalidConfig`] if `dim` is not divisible by
    /// `heads`.
    pub fn new<R: Rng + ?Sized>(name: &str, dim: usize, heads: usize, rng: &mut R) -> Result<Self> {
        if heads == 0 || !dim.is_multiple_of(heads) {
            return Err(NnError::InvalidConfig {
                component: name.to_string(),
                reason: format!("embedding dim {dim} not divisible into {heads} heads"),
            });
        }
        Ok(MultiHeadAttention {
            name: name.to_string(),
            query: Linear::new(&format!("{name}.query"), dim, dim, rng),
            key: Linear::new(&format!("{name}.key"), dim, dim, rng),
            value: Linear::new(&format!("{name}.value"), dim, dim, rng),
            output: Linear::new(&format!("{name}.out"), dim, dim, rng),
            heads,
            dim,
        })
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The graph tag under which this block's attention probabilities are
    /// published.
    pub fn attn_probs_tag(&self) -> String {
        format!("attn_probs.{}", self.name)
    }

    /// Reshapes `[N, T, D]` to `[N·H, T, D/H]` for per-head batched matmuls.
    fn split_heads(&self, graph: &mut Graph, x: NodeId) -> Result<NodeId> {
        let dims = graph.value(x)?.dims().to_vec();
        let (n, t, d) = (dims[0], dims[1], dims[2]);
        let dh = d / self.heads;
        let reshaped = graph.reshape(x, &[n, t, self.heads, dh])?;
        let permuted = graph.permute(reshaped, &[0, 2, 1, 3])?;
        Ok(graph.reshape(permuted, &[n * self.heads, t, dh])?)
    }

    /// Inverse of [`Self::split_heads`].
    fn merge_heads(&self, graph: &mut Graph, x: NodeId, n: usize, t: usize) -> Result<NodeId> {
        let dh = self.dim / self.heads;
        let reshaped = graph.reshape(x, &[n, self.heads, t, dh])?;
        let permuted = graph.permute(reshaped, &[0, 2, 1, 3])?;
        Ok(graph.reshape(permuted, &[n, t, self.dim])?)
    }
}

impl Module for MultiHeadAttention {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&self, graph: &mut Graph, input: NodeId) -> Result<NodeId> {
        let dims = graph.value(input)?.dims().to_vec();
        if dims.len() != 3 || dims[2] != self.dim {
            return Err(NnError::InvalidConfig {
                component: self.name.clone(),
                reason: format!("expected [N, T, {}] input, got {:?}", self.dim, dims),
            });
        }
        let (n, t) = (dims[0], dims[1]);
        let dh = self.dim / self.heads;

        let q = self.query.forward(graph, input)?;
        let k = self.key.forward(graph, input)?;
        let v = self.value.forward(graph, input)?;

        let qh = self.split_heads(graph, q)?;
        let kh = self.split_heads(graph, k)?;
        let vh = self.split_heads(graph, v)?;

        // probs = softmax(Q Kᵀ / sqrt(d_h)) in one node: K is never
        // permuted and the scores are never stored.
        let probs = graph.attention_probs(qh, kh, 1.0 / (dh as f32).sqrt())?;
        graph.set_tag(probs, &self.attn_probs_tag())?;

        let context = graph.batch_matmul(probs, vh)?;
        let merged = self.merge_heads(graph, context, n, t)?;
        self.output.forward(graph, merged)
    }

    fn parameters(&self) -> Vec<&Param> {
        let mut params = self.query.parameters();
        params.extend(self.key.parameters());
        params.extend(self.value.parameters());
        params.extend(self.output.parameters());
        params
    }

    fn parameters_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.query.parameters_mut();
        params.extend(self.key.parameters_mut());
        params.extend(self.value.parameters_mut());
        params.extend(self.output.parameters_mut());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelta_tensor::{SeedStream, Tensor};

    #[test]
    fn construction_validates_head_count() {
        let mut seeds = SeedStream::new(30);
        assert!(MultiHeadAttention::new("attn", 7, 2, &mut seeds.derive("init")).is_err());
        assert!(MultiHeadAttention::new("attn", 8, 0, &mut seeds.derive("init")).is_err());
        assert!(MultiHeadAttention::new("attn", 8, 2, &mut seeds.derive("init")).is_ok());
    }

    #[test]
    fn forward_shape_and_attention_probs_tag() {
        let mut seeds = SeedStream::new(31);
        let attn = MultiHeadAttention::new("block0.attn", 8, 2, &mut seeds.derive("init")).unwrap();
        assert_eq!(attn.heads(), 2);
        assert_eq!(attn.dim(), 8);
        let mut g = Graph::new();
        let x = g.input(
            Tensor::rand_uniform(&[2, 5, 8], -1.0, 1.0, &mut seeds.derive("x")),
            "x",
        );
        let y = attn.forward(&mut g, x).unwrap();
        assert_eq!(g.value(y).unwrap().dims(), &[2, 5, 8]);

        // Attention probabilities are published with the expected tag and are
        // valid probability distributions over tokens.
        let probs_id = g.node_by_tag("attn_probs.block0.attn").unwrap();
        let probs = g.value(probs_id).unwrap();
        assert_eq!(probs.dims(), &[2 * 2, 5, 5]);
        for row in 0..(4 * 5) {
            let sum: f32 = probs.data()[row * 5..(row + 1) * 5].iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn gradients_flow_to_input_and_all_projections() {
        let mut seeds = SeedStream::new(32);
        let attn = MultiHeadAttention::new("attn", 8, 4, &mut seeds.derive("init")).unwrap();
        let mut g = Graph::new();
        let x = g.input(
            Tensor::rand_uniform(&[1, 3, 8], -1.0, 1.0, &mut seeds.derive("x")),
            "x",
        );
        let y = attn.forward(&mut g, x).unwrap();
        let sq = g.mul(y, y).unwrap();
        let loss = g.sum_all(sq).unwrap();
        let grads = g.backward(loss).unwrap();
        assert!(grads.get(x).is_some());
        for tag in [
            "attn.query.weight",
            "attn.key.weight",
            "attn.value.weight",
            "attn.out.weight",
        ] {
            let id = g.node_by_tag(tag).unwrap();
            assert!(grads.get(id).is_some(), "missing gradient for {tag}");
        }
        assert_eq!(attn.parameters().len(), 8);
    }

    #[test]
    fn rejects_wrong_input_shape() {
        let mut seeds = SeedStream::new(33);
        let attn = MultiHeadAttention::new("attn", 8, 2, &mut seeds.derive("init")).unwrap();
        let mut g = Graph::new();
        let bad_dim = g.input(Tensor::zeros(&[2, 5, 6]), "bad_dim");
        assert!(attn.forward(&mut g, bad_dim).is_err());
        let bad_rank = g.input(Tensor::zeros(&[2, 8]), "bad_rank");
        assert!(attn.forward(&mut g, bad_rank).is_err());
    }
}
