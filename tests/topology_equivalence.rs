//! Cross-topology equivalence harness — the acceptance suite of the
//! topology layer.
//!
//! The contract under test: with FedAvg, full participation and no
//! adversaries, the **route updates travel must not change a single bit of
//! the global model**. A star hub, a 2-level hierarchy of edge aggregators
//! and a gossip mesh run to convergence all fold the same accepted update
//! set in the same canonical order, so their global models are
//! bit-identical — across repeats, across both transports, and at
//! `PELTA_THREADS` 1 and 4 (the cross-topology analogue of the PR 3
//! star-transport acceptance test).
//!
//! A second test pins the shielded path through the aggregator hop: sealed
//! segments forwarded (unopened) by an edge and unsealed at the root yield
//! the same bits as the clear hierarchical run.

use pelta_bench::ChannelHead;
use pelta_data::{Dataset, DatasetSpec, GeneratorConfig, Partition};
use pelta_fl::{
    AggregationRule, Federation, FederationConfig, ParticipationPolicy, ScenarioSpec, Topology,
    TransportKind,
};
use pelta_models::TrainingConfig;
use pelta_tensor::{pool, SeedStream, Tensor};

const SEED: u64 = 830;

fn dataset() -> Dataset {
    Dataset::generate(
        DatasetSpec::Cifar10Like,
        &GeneratorConfig {
            train_samples: 40,
            test_samples: 20,
            ..GeneratorConfig::default()
        },
        SEED,
    )
}

/// The three topologies of the equivalence matrix over 4 clients. The
/// hierarchical grouping is deliberately non-contiguous so member-link
/// ordering inside the edges differs from the flat client order.
fn topologies() -> [Topology; 3] {
    [
        Topology::Star,
        Topology::hierarchical(vec![vec![0, 2], vec![1, 3]]),
        Topology::Gossip { fanout: 1 },
    ]
}

fn config(transport: TransportKind, topology: Topology) -> FederationConfig {
    FederationConfig {
        clients: 4,
        rounds: 2,
        local_training: TrainingConfig {
            epochs: 1,
            batch_size: 10,
            learning_rate: 0.02,
            momentum: 0.9,
        },
        eval_samples: 10,
        transport,
        topology,
        policy: ParticipationPolicy {
            quorum: 4,
            sample: 0,
            straggler_deadline: 0,
        },
        ..FederationConfig::default()
    }
}

/// The final global model as exact bit patterns, keyed by parameter name.
type GlobalBits = Vec<(String, Vec<u32>)>;

fn global_bits(parameters: &[(String, Tensor)]) -> GlobalBits {
    parameters
        .iter()
        .map(|(name, tensor)| {
            (
                name.clone(),
                tensor.data().iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect()
}

/// Runs one all-honest federation and returns the final global model's
/// exact bits plus per-round accounting for the topology-specific checks.
fn run(transport: TransportKind, topology: Topology) -> (GlobalBits, Vec<(usize, usize)>) {
    let data = dataset();
    let mut seeds = SeedStream::new(SEED);
    let cfg = config(transport, topology);
    let mut federation =
        Federation::vit_federation(&data, &cfg, Partition::Iid, &mut seeds).unwrap();
    let history = federation.run(&mut seeds).unwrap();
    let accounting = history
        .rounds
        .iter()
        .map(|r| (r.edge_summaries.len(), r.gossip_messages))
        .collect();
    // Every round must have aggregated all four clients, whatever the route.
    for record in &history.rounds {
        assert_eq!(record.summary.reporters.len(), 4);
        assert!(record.summary.stragglers.is_empty());
        assert!(record.summary.dropouts.is_empty());
    }
    (global_bits(federation.server().parameters()), accounting)
}

/// The headline acceptance matrix: Star ≡ Hierarchical ≡ Gossip global
/// model bits, across repeats, both transports, and `PELTA_THREADS` 1/4.
#[test]
fn topologies_produce_bit_identical_global_models() {
    pool::set_global_threads(1);
    let (reference, _) = run(TransportKind::InMemory, Topology::Star);
    let (repeat, _) = run(TransportKind::InMemory, Topology::Star);
    assert_eq!(reference, repeat, "star repeat diverged");

    for threads in [1usize, 4] {
        pool::set_global_threads(threads);
        for transport in [TransportKind::InMemory, TransportKind::Serialized] {
            for topology in topologies() {
                let label = format!(
                    "{} over {transport:?} at {threads} thread(s)",
                    topology.name()
                );
                let (bits, accounting) = run(transport, topology.clone());
                assert_eq!(bits, reference, "{label} changed the global model bits");
                for (edge_summaries, gossip_messages) in accounting {
                    match &topology {
                        Topology::Star => {
                            assert_eq!(edge_summaries, 0, "{label}");
                            assert_eq!(gossip_messages, 0, "{label}");
                        }
                        Topology::Hierarchical { groups, .. } => {
                            assert_eq!(edge_summaries, groups.len(), "{label}");
                            assert_eq!(gossip_messages, 0, "{label}");
                        }
                        Topology::Gossip { .. } => {
                            assert_eq!(edge_summaries, 0, "{label}");
                            assert!(gossip_messages > 0, "{label}: mesh never exchanged");
                        }
                    }
                }
            }
        }
    }
    pool::set_global_threads(pool::env_threads());
}

// ---------------------------------------------------------------------------
// Population scale: the equivalence matrix at 1 000 seats
// ---------------------------------------------------------------------------

const POPULATION: usize = 1_000;

/// The population-scale topologies: the flat star, a 2-level tree of 8
/// non-contiguous 125-member edges (member `m` sits under edge `m % 8`),
/// and the gossip ring.
fn population_topologies() -> [Topology; 3] {
    let groups = (0..8)
        .map(|edge| (0..POPULATION).filter(|m| m % 8 == edge).collect())
        .collect();
    [
        Topology::Star,
        Topology::hierarchical(groups),
        Topology::Gossip { fanout: 1 },
    ]
}

/// One all-honest 1 000-seat federation round over the tiny model; returns
/// the final global model bits.
fn run_population(data: &Dataset, transport: TransportKind, topology: Topology) -> GlobalBits {
    let mut seeds = SeedStream::new(SEED);
    let cfg = FederationConfig {
        clients: POPULATION,
        rounds: 1,
        local_training: TrainingConfig {
            epochs: 1,
            batch_size: 2,
            learning_rate: 0.05,
            momentum: 0.9,
        },
        eval_samples: 10,
        transport,
        topology,
        policy: ParticipationPolicy {
            quorum: POPULATION,
            sample: 0,
            straggler_deadline: 0,
        },
        ..FederationConfig::default()
    };
    let mut federation =
        Federation::from_scenario(data, &ScenarioSpec::honest(cfg), &mut seeds, |rng| {
            Box::new(ChannelHead::new(rng))
        })
        .unwrap();
    let history = federation.run(&mut seeds).unwrap();
    for record in &history.rounds {
        assert_eq!(record.summary.reporters.len(), POPULATION);
        assert!(record.summary.stragglers.is_empty());
        assert!(record.summary.dropouts.is_empty());
    }
    global_bits(federation.server().parameters())
}

/// The equivalence matrix at population scale: a 1 000-seat round — served
/// by the streaming FedAvg fold and the active-seat sweeps — produces
/// bit-identical global models across Star/Hierarchical/Gossip, repeats,
/// both transports, and `PELTA_THREADS` 1/4. The gossip leg folds the same
/// update set through the buffered consensus path, so the matrix also pins
/// streamed ≡ buffered at this scale.
#[test]
fn thousand_seat_topologies_produce_bit_identical_global_models() {
    assert!(AggregationRule::FedAvg.streams());
    let data = Dataset::generate(
        DatasetSpec::Cifar10Like,
        &GeneratorConfig {
            train_samples: 2 * POPULATION,
            test_samples: 10,
            ..GeneratorConfig::default()
        },
        SEED,
    );

    pool::set_global_threads(1);
    let reference = run_population(&data, TransportKind::InMemory, Topology::Star);
    assert_eq!(
        reference,
        run_population(&data, TransportKind::InMemory, Topology::Star),
        "1k-seat star repeat diverged"
    );

    for threads in [1usize, 4] {
        pool::set_global_threads(threads);
        for transport in [TransportKind::InMemory, TransportKind::Serialized] {
            for topology in population_topologies() {
                let label = format!(
                    "1k-seat {} over {transport:?} at {threads} thread(s)",
                    topology.name()
                );
                assert_eq!(
                    run_population(&data, transport, topology),
                    reference,
                    "{label} changed the global model bits"
                );
            }
        }
    }
    pool::set_global_threads(pool::env_threads());
}

// ---------------------------------------------------------------------------
// Krum-family route invariance: the equivalence matrix under distance-based
// selection
// ---------------------------------------------------------------------------

/// The three topologies of the Krum matrix over 5 clients (`Krum { f: 1 }`
/// needs `2f + 3 = 5` seats). The hierarchy is non-contiguous so member
/// ordering inside the edges differs from the flat client order.
fn krum_topologies() -> [Topology; 3] {
    [
        Topology::Star,
        Topology::hierarchical(vec![vec![0, 2, 4], vec![1, 3]]),
        Topology::Gossip { fanout: 1 },
    ]
}

/// One all-honest 5-seat federation over the tiny model under a Krum-family
/// rule; returns the final global model bits.
fn run_krum(rule: AggregationRule, transport: TransportKind, topology: Topology) -> GlobalBits {
    let data = dataset();
    let mut seeds = SeedStream::new(SEED);
    let cfg = FederationConfig {
        clients: 5,
        rounds: 2,
        local_training: TrainingConfig {
            epochs: 1,
            batch_size: 8,
            learning_rate: 0.02,
            momentum: 0.9,
        },
        eval_samples: 10,
        transport,
        topology,
        policy: ParticipationPolicy {
            quorum: 5,
            sample: 0,
            straggler_deadline: 0,
        },
        rule,
        ..FederationConfig::default()
    };
    let mut federation =
        Federation::from_scenario(&data, &ScenarioSpec::honest(cfg), &mut seeds, |rng| {
            Box::new(ChannelHead::new(rng))
        })
        .unwrap();
    let history = federation.run(&mut seeds).unwrap();
    for record in &history.rounds {
        assert_eq!(record.summary.reporters.len(), 5);
    }
    global_bits(federation.server().parameters())
}

/// The acceptance matrix extended to the Krum family: member granularity
/// survives to the consensus point on every route, so distance-based
/// selection scores the same update set and the Krum / multi-Krum global
/// models are bit-identical across Star/Hierarchical/Gossip, both
/// transports, and `PELTA_THREADS` 1/4.
#[test]
fn krum_family_global_models_are_route_invariant() {
    for rule in [
        AggregationRule::Krum { f: 1 },
        AggregationRule::MultiKrum { f: 1, m: 2 },
    ] {
        assert!(!rule.streams(), "the Krum family buffers by necessity");
        pool::set_global_threads(1);
        let reference = run_krum(rule, TransportKind::InMemory, Topology::Star);
        assert_eq!(
            reference,
            run_krum(rule, TransportKind::InMemory, Topology::Star),
            "{rule:?}: star repeat diverged"
        );
        for threads in [1usize, 4] {
            pool::set_global_threads(threads);
            for transport in [TransportKind::InMemory, TransportKind::Serialized] {
                for topology in krum_topologies() {
                    let label = format!(
                        "{rule:?} over {} / {transport:?} at {threads} thread(s)",
                        topology.name()
                    );
                    assert_eq!(
                        run_krum(rule, transport, topology),
                        reference,
                        "{label} changed the global model bits"
                    );
                }
            }
        }
        pool::set_global_threads(pool::env_threads());
    }
}

/// Shielded updates thread through the aggregator hop bit-exactly: the edge
/// forwards sealed segments it cannot open, the root's attested enclave
/// unseals them, and the global model matches the clear hierarchical run.
#[test]
fn shielded_segments_survive_the_aggregator_hop() {
    let topology = Topology::hierarchical(vec![vec![0], vec![1]]);
    let run_shielded = |shield_updates: bool| {
        let data = dataset();
        let mut seeds = SeedStream::new(SEED);
        let cfg = FederationConfig {
            clients: 2,
            rounds: 1,
            local_training: TrainingConfig {
                epochs: 1,
                batch_size: 10,
                learning_rate: 0.02,
                momentum: 0.9,
            },
            eval_samples: 10,
            topology: topology.clone(),
            shield_updates,
            ..FederationConfig::default()
        };
        let mut federation =
            Federation::vit_federation(&data, &cfg, Partition::Iid, &mut seeds).unwrap();
        let history = federation.run(&mut seeds).unwrap();
        (
            global_bits(federation.server().parameters()),
            history.rounds[0].shielded_bytes,
            federation.server_shield_ledger(),
        )
    };
    let (clear_bits, clear_sealed, clear_ledger) = run_shielded(false);
    assert_eq!(clear_sealed, 0);
    assert!(clear_ledger.is_none());
    let (shielded_bits, shielded_sealed, shielded_ledger) = run_shielded(true);
    // Sealed bytes crossed the two-hop path and were opened at the root.
    assert!(shielded_sealed > 0);
    assert!(shielded_ledger.unwrap().sealed_bytes > 0);
    // The sealed path through the edge is bitwise lossless.
    assert_eq!(clear_bits, shielded_bits);
}

/// Gossip + shielding is a configuration error (no peer can open another
/// peer's sealed segments), as is a central straggler deadline in a
/// topology with no central collection point.
#[test]
fn gossip_rejects_configurations_it_cannot_honor() {
    let data = dataset();
    let mut seeds = SeedStream::new(SEED);
    let shielded_gossip = FederationConfig {
        clients: 2,
        topology: Topology::Gossip { fanout: 1 },
        shield_updates: true,
        ..FederationConfig::default()
    };
    assert!(
        Federation::vit_federation(&data, &shielded_gossip, Partition::Iid, &mut seeds).is_err()
    );
    let deadline_gossip = FederationConfig {
        clients: 2,
        topology: Topology::Gossip { fanout: 1 },
        policy: ParticipationPolicy {
            quorum: 1,
            sample: 0,
            straggler_deadline: 3,
        },
        ..FederationConfig::default()
    };
    assert!(
        Federation::vit_federation(&data, &deadline_gossip, Partition::Iid, &mut seeds).is_err()
    );
}

// ---------------------------------------------------------------------------
// Secure aggregation: the masked matrix
// ---------------------------------------------------------------------------

/// One shielded run — masked or clear — with a scripted mid-round dropout
/// (seat 1 leaves during round 0 and rejoins for round 1), returning the
/// final global bits and the root's individual-blob unseal count.
fn run_masked_matrix_leg(
    transport: TransportKind,
    topology: Topology,
    masked: bool,
) -> (GlobalBits, u64) {
    let data = dataset();
    let mut seeds = SeedStream::new(SEED);
    let cfg = FederationConfig {
        shield_updates: true,
        secure_aggregation: masked,
        policy: ParticipationPolicy {
            quorum: 3,
            sample: 0,
            straggler_deadline: 0,
        },
        schedules: vec![pelta_fl::ClientSchedule {
            client_id: 1,
            drop_at_round: Some(0),
            rejoin_at_round: Some(1),
            latency: 0,
        }],
        ..config(transport, topology)
    };
    let mut federation =
        Federation::vit_federation(&data, &cfg, Partition::Iid, &mut seeds).unwrap();
    let history = federation.run(&mut seeds).unwrap();
    // The dropout really happened mid-round: round 0 closes on three
    // reporters and in the masked run that forces share reconstruction.
    assert_eq!(history.rounds[0].summary.dropouts, vec![1]);
    assert_eq!(history.rounds[0].summary.reporters, vec![0, 2, 3]);
    let unseals = federation
        .server_raw_unseals()
        .expect("shield_updates is on");
    (global_bits(federation.server().parameters()), unseals)
}

/// Acceptance matrix of the secure-aggregation tentpole (see
/// `docs/determinism.md`): a masked shielded federation with a mid-round
/// dropout produces the **same global model bits** as the clear shielded
/// run, and replays bit-identically across repeats, both transports,
/// Star/Hierarchical routing, and `PELTA_THREADS` 1/4 — while the root
/// never unseals an individual member blob (the clear run opens them all).
#[test]
fn masked_runs_match_the_clear_shielded_run_across_the_matrix() {
    pool::set_global_threads(1);
    let (reference, clear_unseals) =
        run_masked_matrix_leg(TransportKind::InMemory, Topology::Star, false);
    assert!(
        clear_unseals > 0,
        "the clear shielded run must open member blobs"
    );
    let (repeat, _) = run_masked_matrix_leg(TransportKind::InMemory, Topology::Star, true);
    let (replay, _) = run_masked_matrix_leg(TransportKind::InMemory, Topology::Star, true);
    assert_eq!(repeat, replay, "masked star replay diverged");

    for threads in [1usize, 4] {
        pool::set_global_threads(threads);
        for transport in [TransportKind::InMemory, TransportKind::Serialized] {
            for topology in [
                Topology::Star,
                Topology::hierarchical(vec![vec![0, 2], vec![1, 3]]),
            ] {
                let label = format!(
                    "masked {} over {transport:?} at {threads} thread(s)",
                    topology.name()
                );
                let (bits, unseals) = run_masked_matrix_leg(transport, topology, true);
                assert_eq!(bits, reference, "{label} changed the global model bits");
                assert_eq!(unseals, 0, "{label} unsealed an individual member blob");
            }
        }
    }
    pool::set_global_threads(pool::env_threads());
}
