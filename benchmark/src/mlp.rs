//! The tiny model of the message-path workloads (`fl_wire`, `fl_secure`).
//!
//! Per-channel means feed three affine layers, 3 → 256 → 256 → 10 (about
//! 69k parameters, ~270 KB as raw `f32`s). Training a step costs
//! microseconds, so a round's time goes to the codec, the transport, the
//! edge relay, the fold and — when shielded — sealing and masking, which is
//! what these workloads exist to measure. The stem and middle layers form
//! the shielded prefix, so a shielded round seals ~267 KB per client.

use pelta_autodiff::{Graph, NodeId};
use pelta_models::{Architecture, ImageModel};
use pelta_nn::{Linear, Module, Param};
use rand_chacha::ChaCha8Rng;

/// Hidden width of the two inner layers.
const HIDDEN: usize = 256;

/// Average-pool → 3→256 → ReLU → 256→256 → ReLU → 256→10.
pub struct WireMlp {
    stem: Linear,
    mid: Linear,
    head: Linear,
}

impl WireMlp {
    /// A freshly initialised replica.
    pub fn new(rng: &mut ChaCha8Rng) -> Self {
        WireMlp {
            stem: Linear::new("mlp.stem", 3, HIDDEN, rng),
            mid: Linear::new("mlp.mid", HIDDEN, HIDDEN, rng),
            head: Linear::new("mlp.head", HIDDEN, 10, rng),
        }
    }
}

impl Module for WireMlp {
    fn name(&self) -> &str {
        "mlp"
    }

    fn forward(&self, graph: &mut Graph, input: NodeId) -> pelta_nn::Result<NodeId> {
        let pooled = graph.global_avg_pool2d(input)?;
        let stem = self.stem.forward(graph, pooled)?;
        let stem = graph.relu(stem)?;
        let mid = self.mid.forward(graph, stem)?;
        graph.set_tag(mid, &self.frontier_tag())?;
        let mid = graph.relu(mid)?;
        self.head.forward(graph, mid)
    }

    fn parameters(&self) -> Vec<&Param> {
        let mut params = self.stem.parameters();
        params.extend(self.mid.parameters());
        params.extend(self.head.parameters());
        params
    }

    fn parameters_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.stem.parameters_mut();
        params.extend(self.mid.parameters_mut());
        params.extend(self.head.parameters_mut());
        params
    }
}

impl ImageModel for WireMlp {
    fn architecture(&self) -> Architecture {
        Architecture::ResNet
    }

    fn num_classes(&self) -> usize {
        10
    }

    fn input_shape(&self) -> [usize; 3] {
        [3, 32, 32]
    }

    fn frontier_tag(&self) -> String {
        "mlp.pelta_frontier".to_string()
    }

    fn shielded_parameter_prefixes(&self) -> Vec<String> {
        vec!["mlp.stem.".to_string(), "mlp.mid.".to_string()]
    }
}
