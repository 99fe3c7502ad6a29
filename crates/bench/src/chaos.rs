//! The long churn soak: hundreds of faulted rounds per topology.
//!
//! This module is the heavy tier of the fault-injection acceptance story.
//! The always-on smoke shadow lives in `tests/chaos_soak.rs`; here the same
//! scripted chaos — drops, duplicates, corruption, reordering, link
//! partitions, staggered dropout/rejoin churn, a client-seat crash and
//! (under the hierarchy) an edge-aggregator crash-and-resync — runs for
//! **hundreds of rounds** on every topology, and the whole faulted run is
//! replayed to prove bit-identical determinism. The `perf` binary reuses
//! [`run_chaos`] for its `fault_injection` probe (rounds/s under a fixed
//! fault rate, plus a replay-determinism field that must be zero).

use pelta_autodiff::{Graph, NodeId};
use pelta_data::{Dataset, DatasetSpec, GeneratorConfig};
use pelta_fl::{
    ClientSchedule, CrashPoint, CrashTarget, FaultConfig, FaultStats, Federation, FederationConfig,
    ParticipationPolicy, ScenarioSpec, Topology, TransportKind,
};
use pelta_models::{Architecture, ImageModel, TrainingConfig};
use pelta_nn::{Linear, Module, Param};
use pelta_tensor::SeedStream;
use rand_chacha::ChaCha8Rng;

use crate::ModelBits;

/// Client seats in the soak federation.
pub const CHAOS_CLIENTS: usize = 6;
/// Data seed for the soak shards.
const DATA_SEED: u64 = 0x50AC;

/// The tiny defender of every population-scale and fuzzing harness: global
/// average pooling to per-channel means, then one `3 → 10` linear head (40
/// parameters, tensors of 30 and 10 elements, nothing shielded). A faulted
/// round costs microseconds, so a multi-hundred-round soak or a
/// thousand-seat round stays tractable, while every seat still trains a
/// distinct update on its own shard.
pub struct ChannelHead {
    head: Linear,
}

impl ChannelHead {
    /// A fresh head, initialised from `rng`.
    pub fn new(rng: &mut ChaCha8Rng) -> Self {
        ChannelHead {
            head: Linear::new("channel_head", 3, 10, rng),
        }
    }
}

impl Module for ChannelHead {
    fn name(&self) -> &str {
        "channel_head"
    }

    fn forward(&self, graph: &mut Graph, input: NodeId) -> pelta_nn::Result<NodeId> {
        let pooled = graph.global_avg_pool2d(input)?;
        graph.set_tag(pooled, &self.frontier_tag())?;
        self.head.forward(graph, pooled)
    }

    fn parameters(&self) -> Vec<&Param> {
        self.head.parameters()
    }

    fn parameters_mut(&mut self) -> Vec<&mut Param> {
        self.head.parameters_mut()
    }
}

impl ImageModel for ChannelHead {
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
        "channel_head.pelta_frontier".to_string()
    }
}

/// The three soak topologies over [`CHAOS_CLIENTS`] seats.
pub fn chaos_topologies() -> [Topology; 3] {
    [
        Topology::Star,
        Topology::hierarchical(vec![vec![0, 2, 4], vec![1, 3, 5]]),
        Topology::Gossip { fanout: 1 },
    ]
}

/// The scripted fault plan for a soak of `rounds` rounds: every fault class
/// live at once, a seat crash a quarter of the way in, and — when the
/// topology has edges to kill — an edge crash at the halfway mark that
/// re-syncs to the root's round two rounds later.
pub fn chaos_fault_config(seed: u64, topology: &Topology, rounds: usize) -> FaultConfig {
    assert!(rounds >= 8, "the scripted crashes need at least 8 rounds");
    let mut crashes = vec![CrashPoint {
        target: CrashTarget::Seat { seat: 1 },
        crash_round: rounds / 4,
        rejoin_round: rounds / 4 + 2,
    }];
    if matches!(topology, Topology::Hierarchical { .. }) {
        crashes.push(CrashPoint {
            target: CrashTarget::Edge { edge: 1 },
            crash_round: rounds / 2,
            rejoin_round: rounds / 2 + 2,
        });
    }
    FaultConfig {
        seed,
        drop: 0.05,
        duplicate: 0.08,
        corrupt: 0.08,
        reorder: 0.10,
        reorder_window: 2,
        partition: 0.08,
        partition_sweeps: 2,
        max_retransmits: 2,
        crashes,
    }
}

/// Scheduled churn stretched over the soak: two staggered dropout/rejoin
/// windows and one permanently slow client.
fn chaos_churn(rounds: usize) -> Vec<ClientSchedule> {
    vec![
        ClientSchedule {
            client_id: 2,
            drop_at_round: Some(rounds / 8),
            rejoin_at_round: Some(rounds / 2),
            latency: 0,
        },
        ClientSchedule {
            client_id: 4,
            drop_at_round: Some(rounds / 2 + 1),
            rejoin_at_round: Some(3 * rounds / 4),
            latency: 0,
        },
        ClientSchedule {
            client_id: 3,
            drop_at_round: None,
            rejoin_at_round: None,
            latency: 1,
        },
    ]
}

/// Everything a faulted soak pins: the final global model, the per-round
/// reporter lists and the fault counters. Two runs of the same seed must
/// compare equal in full.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosRun {
    /// The final global model, bit for bit.
    pub global: ModelBits,
    /// Reporter ids per round, in fold order.
    pub reporters: Vec<Vec<usize>>,
    /// The fault-plan counters after the run.
    pub stats: FaultStats,
}

/// One faulted soak federation run of `rounds` rounds under the scripted
/// chaos plan seeded with `fault_seed`.
///
/// # Panics
/// Panics if the federation aborts, a duplicated frame double-counts a
/// reporter, or the crashed seat reports while dark — the soak's inline
/// invariants.
pub fn run_chaos(
    topology: &Topology,
    transport: TransportKind,
    rounds: usize,
    fault_seed: u64,
) -> ChaosRun {
    let data = Dataset::generate(
        DatasetSpec::Cifar10Like,
        &GeneratorConfig {
            train_samples: 10 * CHAOS_CLIENTS,
            test_samples: 10,
            ..GeneratorConfig::default()
        },
        DATA_SEED,
    );
    let mut seeds = SeedStream::new(DATA_SEED);
    let faults = chaos_fault_config(fault_seed, topology, rounds);
    let seat_dark = faults.crashes[0].crash_round..faults.crashes[0].rejoin_round;
    let spec = ScenarioSpec::honest(FederationConfig {
        clients: CHAOS_CLIENTS,
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
            quorum: 1,
            sample: 0,
            straggler_deadline: 0,
        },
        schedules: chaos_churn(rounds),
        faults: Some(faults),
        ..FederationConfig::default()
    });
    let mut federation = Federation::from_scenario(&data, &spec, &mut seeds, |rng| {
        Box::new(ChannelHead::new(rng))
    })
    .expect("chaos federation must build");
    let history = federation
        .run(&mut seeds)
        .expect("the soak must survive every scripted fault");
    assert_eq!(history.rounds.len(), rounds, "the soak lost rounds");
    for record in &history.rounds {
        let summary = &record.summary;
        let mut unique = summary.reporters.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            summary.reporters.len(),
            "round {}: duplicated frame double-counted a reporter",
            summary.round
        );
        assert!(
            !seat_dark.contains(&summary.round) || !summary.reporters.contains(&1),
            "round {}: crashed seat reported while dark",
            summary.round
        );
    }
    ChaosRun {
        global: ModelBits::of(federation.server().parameters()),
        reporters: history
            .rounds
            .iter()
            .map(|r| r.summary.reporters.clone())
            .collect(),
        stats: federation.fault_stats().expect("fault plan was configured"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pelta_tensor::pool;

    const SOAK_ROUNDS: usize = 200;
    const SOAK_SEED: u64 = 0xFA17_50AC;

    #[test]
    fn chaos_fault_config_targets_edges_only_under_the_hierarchy() {
        for topology in chaos_topologies() {
            let config = chaos_fault_config(7, &topology, 16);
            let edge_crashes = config
                .crashes
                .iter()
                .filter(|c| matches!(c.target, CrashTarget::Edge { .. }))
                .count();
            let expected = usize::from(matches!(topology, Topology::Hierarchical { .. }));
            assert_eq!(edge_crashes, expected);
            config
                .validate(CHAOS_CLIENTS, &topology)
                .expect("the scripted plan must validate");
        }
    }

    /// The headline soak: 200 faulted rounds per topology under continuous
    /// scripted churn, no panic and no aborted round, every fault class
    /// exercised, and the full run — global bits, per-round reporters and
    /// fault counters — replays bit-identically across repeats, both
    /// transports and `PELTA_THREADS` 1/4.
    #[test]
    #[cfg_attr(
        not(feature = "slow-tests"),
        ignore = "heavy reproduction test; enable with --features slow-tests"
    )]
    fn two_hundred_round_churn_soak_replays_bit_identically() {
        for topology in chaos_topologies() {
            let label = topology.name();
            pool::set_global_threads(1);
            let reference = run_chaos(&topology, TransportKind::InMemory, SOAK_ROUNDS, SOAK_SEED);

            let stats = &reference.stats;
            assert!(stats.dropped > 0, "{label}: no drops over 200 rounds");
            assert!(stats.duplicated > 0, "{label}: no duplicates");
            assert!(stats.corrupted > 0, "{label}: no corruption");
            assert!(stats.reordered > 0, "{label}: no reordering");
            assert!(stats.partitions > 0, "{label}: no partitions");
            assert!(stats.retransmissions > 0, "{label}: recovery never ran");
            assert!(
                stats.recoveries > 0,
                "{label}: no retransmission ever landed"
            );
            assert!(stats.suppressed > 0, "{label}: the seat crash never bit");

            let repeat = run_chaos(&topology, TransportKind::InMemory, SOAK_ROUNDS, SOAK_SEED);
            assert_eq!(repeat, reference, "{label}: faulted repeat diverged");
            assert_eq!(reference.global.diffs(&repeat.global), 0);
            let serialized =
                run_chaos(&topology, TransportKind::Serialized, SOAK_ROUNDS, SOAK_SEED);
            assert_eq!(
                serialized, reference,
                "{label}: fault schedule depends on the transport"
            );
            pool::set_global_threads(4);
            let threaded = run_chaos(&topology, TransportKind::InMemory, SOAK_ROUNDS, SOAK_SEED);
            assert_eq!(
                threaded, reference,
                "{label}: fault schedule depends on the thread count"
            );
            pool::set_global_threads(pool::env_threads());
        }
    }
}
