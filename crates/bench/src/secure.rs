//! The secure-aggregation probe: masked vs clear shielded federations.
//!
//! [`run_secure_agg`] drives one small shielded federation — a two-layer
//! probe model whose stem segment is sealed in transit — with a scripted
//! mid-soak dropout, either with pairwise masking on
//! ([`FederationConfig::secure_aggregation`]) or off. The `perf` binary's
//! `secure_agg` block compares the two: masked vs clear shielded-round
//! throughput, the extra `MaskShare` wire bytes per round, and a
//! replay-determinism field folding masked-vs-clear, repeat, transport and
//! topology invariance (see `docs/determinism.md`), required to be zero.

use pelta_autodiff::{Graph, NodeId};
use pelta_data::{Dataset, DatasetSpec, GeneratorConfig};
use pelta_fl::{
    ClientSchedule, Federation, FederationConfig, ParticipationPolicy, ScenarioSpec, Topology,
    TransportKind,
};
use pelta_models::{Architecture, ImageModel, TrainingConfig};
use pelta_nn::{Linear, Module, Param};
use pelta_tensor::SeedStream;
use rand_chacha::ChaCha8Rng;

use crate::ModelBits;

/// Client seats in the secure-aggregation probe federation.
pub const SECURE_AGG_CLIENTS: usize = 4;
/// Data/run seed for the probe shards.
const DATA_SEED: u64 = 0x5EA1;

/// A tiny defender with a genuine shielded/clear split: per-channel means
/// feed a shielded stem projection (the sealed segment, a `3 → 8` linear
/// layer) and a clear `8 → 10` linear head, so a masked round costs
/// microseconds while still exercising the seal → mask → fold → splice path
/// end to end. The scenario fuzzer runs every spec that shields updates on
/// it.
pub struct ShieldedProbe {
    stem: Linear,
    head: Linear,
}

impl ShieldedProbe {
    /// A fresh probe, initialised from `rng`.
    pub fn new(rng: &mut ChaCha8Rng) -> Self {
        ShieldedProbe {
            stem: Linear::new("probe.stem", 3, 8, rng),
            head: Linear::new("probe.head", 8, 10, rng),
        }
    }
}

impl Module for ShieldedProbe {
    fn name(&self) -> &str {
        "probe"
    }

    fn forward(&self, graph: &mut Graph, input: NodeId) -> pelta_nn::Result<NodeId> {
        let pooled = graph.global_avg_pool2d(input)?;
        let stem = self.stem.forward(graph, pooled)?;
        graph.set_tag(stem, &self.frontier_tag())?;
        self.head.forward(graph, stem)
    }

    fn parameters(&self) -> Vec<&Param> {
        let mut params = self.stem.parameters();
        params.extend(self.head.parameters());
        params
    }

    fn parameters_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.stem.parameters_mut();
        params.extend(self.head.parameters_mut());
        params
    }
}

impl ImageModel for ShieldedProbe {
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
        "probe.pelta_frontier".to_string()
    }

    fn shielded_parameter_prefixes(&self) -> Vec<String> {
        // The stem projection is the sealed segment; the head stays clear.
        vec!["probe.stem.".to_string()]
    }
}

/// Everything one probe run pins: the final global model plus the traffic
/// and unseal accounting the `secure_agg` block reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecureAggRun {
    /// The final global model, bit for bit.
    pub global: ModelBits,
    /// Protocol messages across every link and the fabric.
    pub messages: usize,
    /// Logical wire bytes across every link and the fabric.
    pub wire_bytes: usize,
    /// Times the root enclave unsealed an **individual** member blob.
    /// The clear shielded path opens every blob; the masked path must
    /// report zero (only the folded sum leaves the enclave).
    pub raw_unseals: u64,
}

/// One shielded probe federation of `rounds` rounds (at least two) over
/// [`SECURE_AGG_CLIENTS`] seats, with seat 1 dropping mid-round at
/// `rounds / 2` and rejoining the next round — so a masked run always
/// exercises the `MaskShare` reconstruction sweep — and pairwise masking
/// switched by `masked`.
///
/// # Panics
/// Panics if the federation aborts or the scripted dropout did not land
/// (the probe would silently stop covering the reconstruction path).
pub fn run_secure_agg(
    topology: &Topology,
    transport: TransportKind,
    rounds: usize,
    masked: bool,
) -> SecureAggRun {
    assert!(rounds >= 2, "the scripted dropout needs at least 2 rounds");
    let data = Dataset::generate(
        DatasetSpec::Cifar10Like,
        &GeneratorConfig {
            train_samples: 10 * SECURE_AGG_CLIENTS,
            test_samples: 10,
            ..GeneratorConfig::default()
        },
        DATA_SEED,
    );
    let mut seeds = SeedStream::new(DATA_SEED);
    let drop_round = rounds / 2;
    let spec = ScenarioSpec::honest(FederationConfig {
        clients: SECURE_AGG_CLIENTS,
        rounds,
        local_training: TrainingConfig {
            epochs: 1,
            batch_size: 5,
            learning_rate: 0.05,
            momentum: 0.9,
        },
        eval_samples: 10,
        transport,
        topology: topology.clone(),
        policy: ParticipationPolicy {
            quorum: SECURE_AGG_CLIENTS - 1,
            sample: 0,
            straggler_deadline: 0,
        },
        schedules: vec![ClientSchedule {
            client_id: 1,
            drop_at_round: Some(drop_round),
            rejoin_at_round: Some(drop_round + 1),
            latency: 0,
        }],
        shield_updates: true,
        secure_aggregation: masked,
        ..FederationConfig::default()
    });
    let mut federation = Federation::from_scenario(&data, &spec, &mut seeds, |rng| {
        Box::new(ShieldedProbe::new(rng))
    })
    .expect("secure-aggregation probe federation must build");
    let history = federation
        .run(&mut seeds)
        .expect("secure-aggregation probe federation must run");
    assert_eq!(
        history.rounds[drop_round].summary.dropouts,
        vec![1],
        "the scripted dropout must land so the mask-reconstruction path runs"
    );
    SecureAggRun {
        global: ModelBits::of(federation.server().parameters()),
        messages: history.total_messages,
        wire_bytes: history.total_wire_bytes,
        raw_unseals: federation
            .server_raw_unseals()
            .expect("the probe always shields updates"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The probe's own contract in miniature: masked bits equal clear
    /// shielded bits through the scripted dropout, the masked root opens no
    /// individual blob, and the reconstruction sweep costs extra wire bytes.
    #[test]
    fn masked_probe_matches_the_clear_probe() {
        let clear = run_secure_agg(&Topology::Star, TransportKind::InMemory, 2, false);
        let masked = run_secure_agg(&Topology::Star, TransportKind::InMemory, 2, true);
        assert_eq!(masked.global.diffs(&clear.global), 0);
        assert!(clear.raw_unseals > 0);
        assert_eq!(masked.raw_unseals, 0);
        assert!(masked.wire_bytes > clear.wire_bytes);
    }
}
