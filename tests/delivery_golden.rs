//! Cross-build delivery golden: the integer outcome of every delivery
//! phase, pinned to committed values.
//!
//! Every other determinism check compares two runs of the *same* build, so
//! a change that shifts every run's delivery the same way — a sweep that
//! polls one link more or less, a clock that ticks once more or less —
//! passes all of them. This suite compares against
//! `tests/golden/delivery.txt` instead. Its scenarios together enter every
//! delivery phase of the runtime (`docs/determinism.md` §3): the
//! between-round phase on each fabric, the star collect sweep, the
//! edge-member and uplink sweeps of the hierarchy, the gossip collect
//! sweep and both arms of the secure-aggregation `MaskShare` drain, under
//! latency schedules, straggler deadlines,
//! mid-round churn, a Nack-spamming free rider, every fault class and
//! scripted seat and edge crashes. The role-mix scenarios put every
//! adversarial role (static and adaptive backdoor, probing, free rider)
//! into one Krum population on each topology.
//!
//! Only host-independent integers are pinned: every [`RoundSummary`] field
//! (root and per edge), the per-round byte, gossip and adversarial-action
//! counters, the run's message and wire-byte totals, the full
//! [`FaultStats`] and the root's individual-blob unseal count. Floats and model bits are deliberately
//! left out — GEMM micro-kernel selection is host-specific, so they are
//! only replay-stable within one machine. Because the fault wrappers draw
//! partition fates on every poll, even of an idle link, a change in *which*
//! links a sweep polls moves `partitions` here.
//!
//! Blessing an intentional change: run this suite, check that the reported
//! first difference is the one the change intends, replace the scenario's
//! section of the golden file with the printed actual block, and record
//! the reason in `CHANGES.md`.
//!
//! Two `repro_*` tests pin the liveness of the delivery phases under
//! partitions: the secure scenario completes on 64 consecutive fault seeds
//! on the star and on the hierarchy, and partition rate 1.0 completes every
//! round on all three topologies.

use pelta_autodiff::{Graph, NodeId};
use pelta_data::{Dataset, DatasetSpec, GeneratorConfig};
use pelta_fl::{
    AgentRole, AggregationRule, AttackKind, ClientSchedule, CrashPoint, CrashTarget, FaultConfig,
    FaultStats, Federation, FederationConfig, ParticipationPolicy, RoundSummary, RunHistory,
    ScenarioSpec, Topology, TrojanTrigger, UpdateCodec,
};
use pelta_models::{Architecture, ImageModel, TrainingConfig};
use pelta_nn::{Linear, Module, Param};
use pelta_tensor::SeedStream;
use rand_chacha::ChaCha8Rng;

const SEED: u64 = 0x60_1DE2;
const GOLDEN: &str = include_str!("golden/delivery.txt");

/// Per-channel means → 3→6 → ReLU → 6→10. The stem is the shielded
/// segment, so shielded and masked runs seal a (tiny) blob per update.
struct TinyMlp {
    stem: Linear,
    head: Linear,
}

impl TinyMlp {
    fn new(rng: &mut ChaCha8Rng) -> Self {
        TinyMlp {
            stem: Linear::new("tiny.stem", 3, 6, rng),
            head: Linear::new("tiny.head", 6, 10, rng),
        }
    }
}

impl Module for TinyMlp {
    fn name(&self) -> &str {
        "tiny"
    }

    fn forward(&self, graph: &mut Graph, input: NodeId) -> pelta_nn::Result<NodeId> {
        let pooled = graph.global_avg_pool2d(input)?;
        let stem = self.stem.forward(graph, pooled)?;
        graph.set_tag(stem, &self.frontier_tag())?;
        let stem = graph.relu(stem)?;
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

impl ImageModel for TinyMlp {
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
        "tiny.pelta_frontier".to_string()
    }

    fn shielded_parameter_prefixes(&self) -> Vec<String> {
        vec!["tiny.stem.".to_string()]
    }
}

fn dataset() -> Dataset {
    Dataset::generate(
        DatasetSpec::Cifar10Like,
        &GeneratorConfig {
            train_samples: 48,
            test_samples: 8,
            ..GeneratorConfig::default()
        },
        SEED,
    )
}

/// The shared base: `clients` seats, `rounds` rounds, one cheap local
/// epoch, quorum 1 and no deadline unless a scenario overrides them.
fn base(clients: usize, rounds: usize) -> FederationConfig {
    FederationConfig {
        clients,
        rounds,
        local_training: TrainingConfig {
            epochs: 1,
            batch_size: 4,
            learning_rate: 0.05,
            momentum: 0.9,
        },
        eval_samples: 8,
        policy: ParticipationPolicy {
            quorum: 1,
            sample: 0,
            straggler_deadline: 0,
        },
        ..FederationConfig::default()
    }
}

fn latency(client_id: usize, sweeps: usize) -> ClientSchedule {
    ClientSchedule {
        latency: sweeps,
        ..ClientSchedule::punctual(client_id)
    }
}

fn churn(client_id: usize, drop_at: usize, rejoin_at: usize) -> ClientSchedule {
    ClientSchedule {
        drop_at_round: Some(drop_at),
        rejoin_at_round: Some(rejoin_at),
        ..ClientSchedule::punctual(client_id)
    }
}

fn crash(target: CrashTarget, crash_round: usize, rejoin_round: usize) -> CrashPoint {
    CrashPoint {
        target,
        crash_round,
        rejoin_round,
    }
}

/// Every fault class live at once, plus the given crash windows.
fn every_fault(crashes: Vec<CrashPoint>) -> FaultConfig {
    FaultConfig {
        seed: 0xD311_7E2E,
        drop: 0.10,
        duplicate: 0.12,
        corrupt: 0.12,
        reorder: 0.15,
        reorder_window: 2,
        partition: 0.25,
        partition_sweeps: 2,
        max_retransmits: 2,
        crashes,
    }
}

/// A masked shielded federation with a mid-round dropout — so every round
/// after it runs the `MaskShare` reconstruction drain — under corruption
/// and link partitions, with one slow seat.
fn secure(topology: Topology) -> ScenarioSpec {
    ScenarioSpec::honest(FederationConfig {
        topology,
        shield_updates: true,
        secure_aggregation: true,
        schedules: vec![churn(1, 0, 1), latency(2, 1), churn(3, 1, 2)],
        faults: Some(FaultConfig {
            seed: 0x005E_C02E,
            corrupt: 0.20,
            partition: 0.25,
            partition_sweeps: 2,
            max_retransmits: 4,
            ..FaultConfig::default()
        }),
        ..base(4, 3)
    })
}

/// Every adversarial role in one population under Krum, next to two honest
/// seats (seat 1 slow): a static and an adaptive backdoor (the adaptive
/// seat halves its boost each round Krum suppresses it), a compromised
/// client probing every broadcast behind honest cover traffic, and a
/// Nack-spamming free rider. Unshielded: the `TinyMlp` frontier is rank 2,
/// which the shielded probe cannot upsample.
fn role_mix(topology: Topology) -> ScenarioSpec {
    let trigger = TrojanTrigger::new(3, 1.0, 0).expect("valid trigger");
    ScenarioSpec::honest(FederationConfig {
        topology,
        rule: AggregationRule::Krum { f: 1 },
        policy: ParticipationPolicy {
            quorum: 6,
            sample: 0,
            straggler_deadline: 0,
        },
        schedules: vec![latency(1, 1)],
        ..base(6, 4)
    })
    .with_role(
        2,
        AgentRole::Backdoor {
            trigger,
            poison_fraction: 0.5,
            boost: 4,
            training: None,
        },
    )
    .with_role(
        3,
        AgentRole::AdaptiveBackdoor {
            trigger,
            poison_fraction: 0.5,
            max_boost: 8,
            training: None,
        },
    )
    .with_role(
        4,
        AgentRole::Probing {
            attack: AttackKind::Pgd,
            epsilon: 0.05,
            steps: 2,
            probe_samples: 2,
        },
    )
    .with_role(
        5,
        AgentRole::FreeRider {
            claimed_samples: 0,
            spam: 1,
            perturbation: 0.01,
        },
    )
}

fn write_summary(out: &mut String, label: &str, s: &RoundSummary) {
    out.push_str(&format!(
        "{label} {}: participants={:?} reporters={:?} stragglers={:?} dropouts={:?} \
         weight={} delivered={} update_bytes={}\n",
        s.round,
        s.participants,
        s.reporters,
        s.stragglers,
        s.dropouts,
        s.total_weight,
        s.delivered_messages,
        s.update_bytes
    ));
}

fn write_faults(out: &mut String, f: &FaultStats) {
    out.push_str(&format!(
        "faults: dropped={} duplicated={} corrupted={} reordered={} partitions={} \
         retransmissions={} recoveries={} suppressed={}\n",
        f.dropped,
        f.duplicated,
        f.corrupted,
        f.reordered,
        f.partitions,
        f.retransmissions,
        f.recoveries,
        f.suppressed
    ));
}

/// Builds and runs the scenario, returning the federation and its history.
fn run(spec: &ScenarioSpec) -> pelta_fl::Result<(Federation, RunHistory)> {
    let data = dataset();
    let mut seeds = SeedStream::new(SEED);
    let mut federation =
        Federation::from_scenario(&data, spec, &mut seeds, |rng| Box::new(TinyMlp::new(rng)))?;
    let history = federation.run(&mut seeds)?;
    Ok((federation, history))
}

/// Runs the scenario and renders its host-independent integers.
fn render(spec: &ScenarioSpec) -> String {
    let (federation, history) = run(spec).expect("golden scenario must run");
    let mut out = String::new();
    for record in &history.rounds {
        write_summary(&mut out, "round", &record.summary);
        out.push_str(&format!(
            "  upload_bytes={} shielded_bytes={} gossip_messages={} adversarial_actions={}\n",
            record.upload_bytes,
            record.shielded_bytes,
            record.gossip_messages,
            record.adversarial_actions
        ));
        for (edge, summary) in record.edge_summaries.iter().enumerate() {
            write_summary(&mut out, &format!("  edge {edge} round"), summary);
        }
    }
    out.push_str(&format!(
        "total: messages={} wire_bytes={}\n",
        history.total_messages, history.total_wire_bytes
    ));
    if let Some(stats) = federation.fault_stats() {
        write_faults(&mut out, &stats);
    }
    out.push_str(&format!(
        "raw_unseals={:?}\n",
        federation.server_raw_unseals()
    ));
    out
}

/// The golden file's section for `name`: the lines after its `[name]`
/// header, up to the next header.
fn golden_section(name: &str) -> String {
    let header = format!("[{name}]");
    let mut lines = GOLDEN.lines().skip_while(|line| *line != header);
    assert!(
        lines.next().is_some(),
        "tests/golden/delivery.txt has no {header} section"
    );
    lines
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty())
        .map(|line| format!("{line}\n"))
        .collect()
}

fn check(name: &str, spec: ScenarioSpec) {
    let actual = render(&spec);
    let expected = golden_section(name);
    if actual == expected {
        return;
    }
    let (mut want, mut got) = (expected.lines(), actual.lines());
    let mut line = 1;
    let (want, got) = loop {
        match (want.next(), got.next()) {
            (w, g) if w != g => break (w.unwrap_or("<end>"), g.unwrap_or("<end>")),
            _ => line += 1,
        }
    };
    panic!(
        "[{name}] delivery diverged from the golden at line {line}\n\
         expected: {want}\n     got: {got}\n\nactual section:\n[{name}]\n{actual}"
    );
}

/// Star collect sweep: two latency schedules, a straggler deadline the
/// free rider's junk frames burn, and a mid-round dropout that rejoins.
#[test]
fn star_latency_deadline_churn_free_rider() {
    let spec = ScenarioSpec::honest(FederationConfig {
        policy: ParticipationPolicy {
            quorum: 2,
            sample: 0,
            straggler_deadline: 6,
        },
        schedules: vec![latency(1, 2), churn(2, 1, 2), latency(3, 1)],
        ..base(6, 3)
    })
    .with_role(
        5,
        AgentRole::FreeRider {
            claimed_samples: 0,
            spam: 3,
            perturbation: 0.01,
        },
    );
    check("star_latency_deadline_churn_free_rider", spec);
}

/// Edge-member and uplink sweeps: member latencies against a per-edge
/// straggler deadline, with Int8-coded updates.
#[test]
fn hierarchical_latency_edge_deadline_int8() {
    let spec = ScenarioSpec::honest(FederationConfig {
        topology: Topology::Hierarchical {
            groups: vec![vec![0, 2, 4], vec![1, 3, 5]],
            edge_policy: ParticipationPolicy {
                quorum: 1,
                sample: 0,
                straggler_deadline: 2,
            },
        },
        schedules: vec![latency(1, 1), latency(4, 2), churn(5, 1, 2)],
        ..base(6, 3)
    })
    .with_codec(UpdateCodec::Int8);
    check("hierarchical_latency_edge_deadline_int8", spec);
}

/// Gossip collect sweep with latencies, a dropout and a free rider whose
/// junk the daemons refuse.
#[test]
fn gossip_latency_churn_free_rider() {
    let spec = ScenarioSpec::honest(FederationConfig {
        topology: Topology::Gossip { fanout: 2 },
        schedules: vec![latency(0, 2), latency(3, 1), churn(4, 1, 2)],
        ..base(5, 3)
    })
    .with_role(
        2,
        AgentRole::FreeRider {
            claimed_samples: 0,
            spam: 2,
            perturbation: 0.01,
        },
    );
    check("gossip_latency_churn_free_rider", spec);
}

/// Every fault class and a seat crash on the star.
#[test]
fn star_every_fault_seat_crash() {
    let spec = ScenarioSpec::honest(FederationConfig {
        schedules: vec![latency(2, 1)],
        faults: Some(every_fault(vec![crash(
            CrashTarget::Seat { seat: 1 },
            1,
            3,
        )])),
        ..base(5, 4)
    });
    check("star_every_fault_seat_crash", spec);
}

/// Every fault class, a seat crash and an edge crash on the hierarchy.
#[test]
fn hierarchical_every_fault_seat_and_edge_crash() {
    let spec = ScenarioSpec::honest(FederationConfig {
        topology: Topology::hierarchical(vec![vec![0, 2, 4], vec![1, 3, 5]]),
        schedules: vec![latency(3, 1)],
        faults: Some(every_fault(vec![
            crash(CrashTarget::Seat { seat: 4 }, 1, 3),
            crash(CrashTarget::Edge { edge: 1 }, 2, 4),
        ])),
        ..base(6, 5)
    });
    check("hierarchical_every_fault_seat_and_edge_crash", spec);
}

/// Every fault class and a seat crash on the gossip mesh.
#[test]
fn gossip_every_fault_seat_crash() {
    let spec = ScenarioSpec::honest(FederationConfig {
        topology: Topology::Gossip { fanout: 1 },
        schedules: vec![latency(0, 1)],
        faults: Some(every_fault(vec![crash(
            CrashTarget::Seat { seat: 2 },
            1,
            3,
        )])),
        ..base(5, 4)
    });
    check("gossip_every_fault_seat_crash", spec);
}

/// The star arm of the `MaskShare` drain under faults.
#[test]
fn secure_star_dropout_under_faults() {
    check("secure_star_dropout_under_faults", secure(Topology::Star));
}

/// The hierarchical arm of the `MaskShare` drain under faults.
#[test]
fn secure_hierarchical_dropout_under_faults() {
    check(
        "secure_hierarchical_dropout_under_faults",
        secure(Topology::hierarchical(vec![vec![0, 2], vec![1, 3]])),
    );
}

/// Every role on the star.
#[test]
fn star_role_mix_krum() {
    check("star_role_mix_krum", role_mix(Topology::Star));
}

/// Every role on the hierarchy, adversaries split across both edges.
#[test]
fn hierarchical_role_mix_krum() {
    check(
        "hierarchical_role_mix_krum",
        role_mix(Topology::hierarchical(vec![vec![0, 2, 4], vec![1, 3, 5]])),
    );
}

/// Every role on the gossip mesh.
#[test]
fn gossip_role_mix_krum() {
    check(
        "gossip_role_mix_krum",
        role_mix(Topology::Gossip { fanout: 2 }),
    );
}

/// The liveness census: the `secure(..)` scenario over 64 consecutive fault
/// seeds on the star and on the hierarchy. While Joins were delivered by an
/// unclocked drain between rounds, a partition drawn on a held `Join` could
/// not heal before the round opened, and 1 (star) and 14 (hierarchy) of
/// these seeds stalled round 0 below quorum.
#[test]
fn repro_secure_scenario_completes_on_every_fault_seed() {
    for topology in [
        Topology::Star,
        Topology::hierarchical(vec![vec![0, 2], vec![1, 3]]),
    ] {
        for seed in 0x005E_C000..0x005E_C040u64 {
            let mut spec = secure(topology.clone());
            if let Some(faults) = spec.federation.faults.as_mut() {
                faults.seed = seed;
            }
            let outcome = run(&spec).map(|(_, history)| history.rounds.len());
            assert!(
                matches!(outcome, Ok(3)),
                "{} with fault seed {seed:#x}: {outcome:?}",
                topology.name()
            );
        }
    }
}

/// Partition rate 1.0 passes validation, but a fresh window used to open
/// the instant the last one closed, and the unclocked between-round drain
/// gave up on every held `Join`: round 0 stalled below quorum on all three
/// topologies. A window's end instant now heals the link, so every round
/// completes with every seat reporting.
#[test]
fn repro_partition_rate_one_completes_every_round() {
    for topology in [
        Topology::Star,
        Topology::hierarchical(vec![vec![0, 2], vec![1, 3]]),
        Topology::Gossip { fanout: 1 },
    ] {
        let name = topology.name();
        let spec = ScenarioSpec::honest(FederationConfig {
            topology,
            faults: Some(FaultConfig {
                partition: 1.0,
                partition_sweeps: 3,
                ..FaultConfig::default()
            }),
            ..base(4, 3)
        });
        let (_, history) = run(&spec).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        assert_eq!(history.rounds.len(), 3, "{name}");
        for record in &history.rounds {
            assert_eq!(record.summary.reporters, vec![0, 1, 2, 3], "{name}");
        }
    }
}
