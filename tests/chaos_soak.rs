//! Churn-soak smoke: full federations under a live fault plan.
//!
//! A deterministic [`FaultConfig`] — drops, duplicates, corruption,
//! reordering, link partitions, a scripted client-seat crash and (under the
//! hierarchy) an edge-aggregator crash — runs against all three topologies
//! together with scheduled dropout/rejoin churn. The soak asserts the
//! failure-domain contract end to end:
//!
//! * the run completes without panic and without aborting a round,
//! * quorum accounting stays coherent every round (reporters are unique,
//!   disjoint from stragglers/dropouts, and within the participant set),
//! * a crashed seat never reports while dark and a crashed edge's subtree
//!   degrades to a withheld summary,
//! * and the whole faulted run replays **bit-identically** across repeats,
//!   both transports and `PELTA_THREADS` 1/4 — the determinism contract
//!   extends into the failure domain.
//!
//! The hundreds-of-rounds soak lives in `pelta-bench` behind the
//! `slow-tests` feature; this file is its always-on tier-1 shadow.

use pelta_bench::ChannelHead;
use pelta_data::{Dataset, DatasetSpec, GeneratorConfig};
use pelta_fl::{
    ClientSchedule, CrashPoint, CrashTarget, FaultConfig, FaultStats, Federation, FederationConfig,
    ParticipationPolicy, ScenarioSpec, Topology, TransportKind,
};
use pelta_models::TrainingConfig;
use pelta_tensor::{pool, SeedStream};

const SEED: u64 = 0xC0A5;
const CLIENTS: usize = 6;
const ROUNDS: usize = 8;

fn dataset() -> Dataset {
    Dataset::generate(
        DatasetSpec::Cifar10Like,
        &GeneratorConfig {
            train_samples: 60,
            test_samples: 10,
            ..GeneratorConfig::default()
        },
        SEED,
    )
}

fn topologies() -> [Topology; 3] {
    [
        Topology::Star,
        Topology::hierarchical(vec![vec![0, 2, 4], vec![1, 3, 5]]),
        Topology::Gossip { fanout: 1 },
    ]
}

/// The scripted chaos: every fault class live at once, a seat crash in
/// rounds 2..4, and — where a hierarchy exists to kill — edge 1 crashing
/// mid-round 3 and re-syncing from the root checkpoint in round 5.
fn chaos(topology: &Topology) -> FaultConfig {
    let mut crashes = vec![CrashPoint {
        target: CrashTarget::Seat { seat: 1 },
        crash_round: 2,
        rejoin_round: 4,
    }];
    if matches!(topology, Topology::Hierarchical { .. }) {
        crashes.push(CrashPoint {
            target: CrashTarget::Edge { edge: 1 },
            crash_round: 3,
            rejoin_round: 5,
        });
    }
    FaultConfig {
        seed: 0xFA17_CAFE,
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

/// Scheduled churn on top of the fault plan: two staggered dropout/rejoin
/// windows and one permanently slow client.
fn churn() -> Vec<ClientSchedule> {
    vec![
        ClientSchedule {
            client_id: 2,
            drop_at_round: Some(1),
            rejoin_at_round: Some(3),
            latency: 0,
        },
        ClientSchedule {
            client_id: 4,
            drop_at_round: Some(5),
            rejoin_at_round: Some(7),
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

type SoakTrace = (
    Vec<(String, Vec<u32>)>,
    Vec<Vec<usize>>,
    Vec<Vec<Vec<usize>>>,
    FaultStats,
);

/// One faulted soak run; returns the final global bits, the per-round
/// reporter lists, the per-round edge reporter lists and the fault stats.
fn run_soak(topology: Topology, transport: TransportKind) -> SoakTrace {
    let data = dataset();
    let mut seeds = SeedStream::new(SEED);
    let spec = ScenarioSpec::honest(FederationConfig {
        clients: CLIENTS,
        rounds: ROUNDS,
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
        schedules: churn(),
        faults: Some(chaos(&topology)),
        ..FederationConfig::default()
    });
    let mut federation = Federation::from_scenario(&data, &spec, &mut seeds, |rng| {
        Box::new(ChannelHead::new(rng))
    })
    .expect("faulted federation must build");
    let history = federation
        .run(&mut seeds)
        .expect("faulted soak must not abort");
    assert_eq!(history.rounds.len(), ROUNDS);

    // Quorum accounting stays coherent under every fault class.
    for record in &history.rounds {
        let summary = &record.summary;
        let mut sorted = summary.reporters.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            summary.reporters.len(),
            "round {}: a duplicated frame double-counted a reporter",
            summary.round
        );
        assert!(
            !summary.reporters.is_empty(),
            "round {}: quorum accounting broke",
            summary.round
        );
        for id in summary.reporters.iter().chain(&summary.stragglers) {
            assert!(
                summary.participants.contains(id),
                "round {}: {id} reported without being sampled",
                summary.round
            );
        }
        for straggler in &summary.stragglers {
            assert!(
                !summary.reporters.contains(straggler),
                "round {}: {straggler} is both reporter and straggler",
                summary.round
            );
        }
        // The crashed seat is dark in [2, 4): it must never report there.
        if (2..4).contains(&summary.round) {
            assert!(
                !summary.reporters.contains(&1),
                "round {}: crashed seat reported while dark",
                summary.round
            );
        }
    }

    let bits = federation
        .server()
        .parameters()
        .iter()
        .map(|(name, tensor)| {
            (
                name.clone(),
                tensor.data().iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect();
    let reporters = history
        .rounds
        .iter()
        .map(|r| r.summary.reporters.clone())
        .collect();
    let edge_reporters = history
        .rounds
        .iter()
        .map(|r| {
            r.edge_summaries
                .iter()
                .map(|s| s.reporters.clone())
                .collect()
        })
        .collect();
    let stats = federation.fault_stats().expect("fault plan was configured");
    (bits, reporters, edge_reporters, stats)
}

/// The soak matrix: each topology survives the chaos, the faults genuinely
/// fire, a crashed edge degrades and recovers, and the run replays
/// bit-identically across repeats, transports and thread counts.
#[test]
fn faulted_soak_replays_bit_identically_across_topologies() {
    for topology in topologies() {
        let label = topology.name();
        pool::set_global_threads(1);
        let reference = run_soak(topology.clone(), TransportKind::InMemory);

        // The plan actually exercised the failure domain.
        let stats = &reference.3;
        assert!(
            stats.dropped + stats.corrupted > 0,
            "{label}: no loss faults"
        );
        assert!(stats.duplicated > 0, "{label}: no duplicate faults");
        assert!(stats.reordered > 0, "{label}: no reorder faults");
        assert!(stats.partitions > 0, "{label}: no partitions opened");
        assert!(
            stats.retransmissions > 0,
            "{label}: Nack recovery never ran"
        );
        assert!(stats.suppressed > 0, "{label}: the seat crash never bit");

        if matches!(topology, Topology::Hierarchical { .. }) {
            // Edge 1 is gone in rounds 3..5 (withheld subtree), back at 5.
            for round in 3..5 {
                assert!(
                    reference.2[round][1].is_empty(),
                    "{label}: crashed edge reported in dark round {round}"
                );
            }
            assert!(
                !reference.2[5][1].is_empty(),
                "{label}: re-synced edge failed to rejoin round 5"
            );
        }

        // Replay: repeats, the serialized transport, 4 threads.
        assert_eq!(
            run_soak(topology.clone(), TransportKind::InMemory),
            reference,
            "{label}: faulted repeat diverged"
        );
        assert_eq!(
            run_soak(topology.clone(), TransportKind::Serialized),
            reference,
            "{label}: fault schedule depends on the transport"
        );
        pool::set_global_threads(4);
        assert_eq!(
            run_soak(topology.clone(), TransportKind::InMemory),
            reference,
            "{label}: fault schedule depends on the thread count"
        );
        pool::set_global_threads(pool::env_threads());
    }
}
