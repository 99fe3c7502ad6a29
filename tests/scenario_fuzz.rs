//! Scenario-space fuzzer — the validation layer's acceptance suite.
//!
//! Each proptest case draws one `u64` seed and derives a *random* complete
//! [`ScenarioSpec`] from it — population size, rounds, quorum/sampling/
//! straggler policy, topology (star, randomly partitioned hierarchies
//! including single-seat edge-of-edge groups, gossip rings with fanouts
//! straddling the validity boundary), aggregation rule (all five, with
//! degenerate parameters), wire codec, data partition (IID, label skew,
//! Dirichlet(α) including invalid concentrations), dropout/latency
//! schedules, fault plans with scripted crashes, partitions up to rate 1.0
//! and the edges of the rate space (a rate at exactly 0 or 1, fate rates
//! summing to exactly 1 and to just above it), `TopK` at and past a
//! tensor's size, sweep delays one past `MAX_DELAY_SWEEPS`, and
//! adversarial role mixes. Most drawn specs are deliberately broken.
//!
//! No case asserts anything scenario-specific. Only the global invariants
//! of the runtime's contract are checked:
//!
//! 1. **`validate()` ⇔ `from_scenario` agreement.** Everything
//!    `ScenarioSpec::validate` accepts must build; everything it rejects
//!    must be rejected by the builder *before any link is constructed*,
//!    with the identical error. The spec is the single source of truth.
//! 2. **No panic.** A valid spec either runs to completion or fails with a
//!    structured `FlError` — never an abort, whatever the roles, faults and
//!    schedules conspire to.
//! 3. **Bit-identical replay.** The outcome — final global model bits and
//!    accuracy on success, the exact error otherwise — is identical across
//!    repeats, across the in-memory and serialized transports, and at
//!    `PELTA_THREADS` 1 and 4.
//! 4. **Robust-rule topology invariance.** For clean full-participation
//!    specs (no faults, schedules or sampling), rerouting the same
//!    population through a star hub, a random hierarchy and a gossip ring
//!    leaves the global model bits unchanged — member granularity always
//!    survives to the consensus point, so every rule (FedAvg, clipping,
//!    trimmed mean, Krum, multi-Krum) folds the same update set.
//! 5. **Liveness.** A valid spec whose fault plan cannot lose a frame (drop
//!    and corrupt at 0, no crash), with no scheduled churn and no straggler
//!    deadline at either level, completes every round: partitions, reorders
//!    and duplicates only delay or repeat frames, and every delivery phase
//!    is a clocked sweep that waits for them.
//!
//! Every run is a fixed-seed batch of 240 cases, small enough for tier-1.
//! `PROPTEST_SEED` overrides the seed.

use std::sync::OnceLock;

use proptest::prelude::*;

use pelta_bench::{ChannelHead, ShieldedProbe};
use pelta_data::{Dataset, DatasetSpec, GeneratorConfig, Partition};
use pelta_fl::{
    AgentRole, AggregationRule, ClientSchedule, CrashPoint, CrashTarget, FaultConfig, Federation,
    FederationConfig, ParticipationPolicy, ScenarioSpec, Topology, TransportKind, TrojanTrigger,
    UpdateCodec, MAX_DELAY_SWEEPS,
};
use pelta_models::{ImageModel, TrainingConfig};
use pelta_tensor::{pool, SeedStream, Tensor};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Proptest cases per run.
const CASES: u32 = 240;

/// Seed of every run's `SeedStream` (model init, shard cut, adversaries).
const RUN_SEED: u64 = 0x5CE7_A210;

/// The shared fuzz dataset: 48 training samples cover 8 clients with at
/// least 6 samples each under every partition.
fn dataset() -> &'static Dataset {
    static DATA: OnceLock<Dataset> = OnceLock::new();
    DATA.get_or_init(|| {
        Dataset::generate(
            DatasetSpec::Cifar10Like,
            &GeneratorConfig {
                train_samples: 48,
                test_samples: 16,
                ..GeneratorConfig::default()
            },
            912,
        )
    })
}

// ---------------------------------------------------------------------------
// Spec generation
// ---------------------------------------------------------------------------

/// A random (sometimes deliberately broken) partition of `0..clients` into
/// edge groups: shuffled seats split at random boundaries, so single-seat
/// edge-of-edge groups are common; with small probability a group gains a
/// duplicate or out-of-range seat.
fn draw_groups(rng: &mut ChaCha8Rng, clients: usize) -> Vec<Vec<usize>> {
    let mut seats: Vec<usize> = (0..clients).collect();
    seats.shuffle(rng);
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    for seat in seats {
        current.push(seat);
        if rng.gen_bool(0.45) {
            groups.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        groups.push(current);
    }
    if rng.gen_bool(0.08) {
        // Corrupt the partition: a duplicate or an out-of-range seat.
        groups[0].push(rng.gen_range(0..clients + 2));
    }
    groups
}

fn draw_topology(rng: &mut ChaCha8Rng, clients: usize) -> Topology {
    match rng.gen_range(0..3usize) {
        0 => Topology::Star,
        1 => Topology::Hierarchical {
            groups: draw_groups(rng, clients),
            edge_policy: ParticipationPolicy {
                quorum: if rng.gen_bool(0.12) {
                    rng.gen_range(0..=3usize)
                } else {
                    1
                },
                sample: if rng.gen_bool(0.05) { 1 } else { 0 },
                straggler_deadline: if rng.gen_bool(0.15) {
                    rng.gen_range(4..=12usize)
                } else {
                    0
                },
            },
        },
        _ => Topology::Gossip {
            // Straddles the validity boundary: 0 and > clients - 1 must be
            // rejected at validation time, never clamped by the mesh.
            fanout: rng.gen_range(0..=clients + 1),
        },
    }
}

fn draw_rule(rng: &mut ChaCha8Rng) -> AggregationRule {
    match rng.gen_range(0..5usize) {
        0 => AggregationRule::FedAvg,
        1 => AggregationRule::NormClipping {
            max_norm: if rng.gen_bool(0.15) { -1.0 } else { 0.5 },
        },
        2 => AggregationRule::TrimmedMean {
            trim: rng.gen_range(0..=2usize),
        },
        3 => AggregationRule::Krum {
            f: rng.gen_range(0..=1usize),
        },
        _ => AggregationRule::MultiKrum {
            f: rng.gen_range(0..=1usize),
            m: rng.gen_range(0..=3usize),
        },
    }
}

fn draw_codec(rng: &mut ChaCha8Rng) -> UpdateCodec {
    match rng.gen_range(0..4usize) {
        0 => UpdateCodec::Raw,
        1 => UpdateCodec::Bf16,
        2 => UpdateCodec::Int8,
        _ => UpdateCodec::TopK {
            // k = 0 is degenerate and must be rejected; 10 and 30 are the
            // sizes of `ChannelHead`'s two tensors, and 31 is past both.
            k: [0, 1, 3, 10, 30, 31][rng.gen_range(0..6usize)],
        },
    }
}

fn draw_partition(rng: &mut ChaCha8Rng) -> Partition {
    match rng.gen_range(0..4usize) {
        0 => Partition::Iid,
        1 => Partition::LabelSkew,
        2 => Partition::Dirichlet {
            alpha: if rng.gen_bool(0.25) { -0.5 } else { 0.1 },
        },
        _ => Partition::Dirichlet { alpha: 1.0 },
    }
}

fn draw_training(rng: &mut ChaCha8Rng) -> TrainingConfig {
    TrainingConfig {
        epochs: 1,
        // batch_size = 0 is degenerate and must be rejected up front, not
        // mid-round inside a client's first local step.
        batch_size: if rng.gen_bool(0.06) {
            0
        } else {
            rng.gen_range(4..=8usize)
        },
        learning_rate: 0.05,
        momentum: 0.9,
    }
}

fn draw_trigger(rng: &mut ChaCha8Rng) -> TrojanTrigger {
    TrojanTrigger {
        // size = 0 and out-of-range intensities must be rejected.
        size: if rng.gen_bool(0.1) {
            0
        } else {
            rng.gen_range(2..=4usize)
        },
        value: if rng.gen_bool(0.08) { 1.5 } else { 1.0 },
        target_class: 0,
    }
}

fn draw_role(rng: &mut ChaCha8Rng) -> AgentRole {
    let training = if rng.gen_bool(0.4) {
        Some(draw_training(rng))
    } else {
        None
    };
    match rng.gen_range(0..4usize) {
        0 => AgentRole::Honest,
        1 => AgentRole::Backdoor {
            trigger: draw_trigger(rng),
            poison_fraction: if rng.gen_bool(0.08) { 1.5 } else { 1.0 },
            boost: if rng.gen_bool(0.08) {
                0
            } else {
                rng.gen_range(1..=8usize)
            },
            training,
        },
        2 => AgentRole::AdaptiveBackdoor {
            trigger: draw_trigger(rng),
            poison_fraction: 1.0,
            max_boost: if rng.gen_bool(0.08) {
                0
            } else {
                rng.gen_range(2..=16usize)
            },
            training,
        },
        _ => AgentRole::FreeRider {
            claimed_samples: rng.gen_range(0..=64usize),
            spam: rng.gen_range(0..=2usize),
            perturbation: if rng.gen_bool(0.08) { -0.5 } else { 0.01 },
        },
    }
}

fn draw_schedules(rng: &mut ChaCha8Rng, clients: usize, rounds: usize) -> Vec<ClientSchedule> {
    if !rng.gen_bool(0.35) {
        return Vec::new();
    }
    (0..rng.gen_range(1..=2usize))
        .map(|_| {
            let drop_at_round = if rng.gen_bool(0.6) {
                Some(rng.gen_range(0..rounds))
            } else {
                None
            };
            ClientSchedule {
                // Occasionally one seat past the population: must be
                // rejected at validation time.
                client_id: if rng.gen_bool(0.1) {
                    clients
                } else {
                    rng.gen_range(0..clients)
                },
                drop_at_round,
                rejoin_at_round: drop_at_round
                    .filter(|_| rng.gen_bool(0.5))
                    .map(|round| round + 1),
                latency: rng.gen_range(0..=2usize),
            }
        })
        .collect()
}

fn draw_faults(rng: &mut ChaCha8Rng, clients: usize, rounds: usize) -> Option<FaultConfig> {
    if !rng.gen_bool(0.25) {
        return None;
    }
    let crashes = if rng.gen_bool(0.4) {
        let target = if rng.gen_bool(0.5) {
            CrashTarget::Seat {
                // Occasionally out of range: must be rejected.
                seat: rng.gen_range(0..clients + 1),
            }
        } else {
            CrashTarget::Edge {
                edge: rng.gen_range(0..=2usize),
            }
        };
        let crash_round = rng.gen_range(0..rounds);
        vec![CrashPoint {
            target,
            crash_round,
            // Occasionally an empty dark window: must be rejected.
            rejoin_round: crash_round + usize::from(!rng.gen_bool(0.1)),
        }]
    } else {
        Vec::new()
    };
    Some(FaultConfig {
        seed: rng.gen_range(0..u64::MAX),
        drop: if rng.gen_bool(0.5) { 0.05 } else { 0.0 },
        duplicate: if rng.gen_bool(0.3) { 0.05 } else { 0.0 },
        corrupt: if rng.gen_bool(0.3) { 0.05 } else { 0.0 },
        reorder: if rng.gen_bool(0.3) { 0.1 } else { 0.0 },
        reorder_window: rng.gen_range(1..=2usize),
        partition: if rng.gen_bool(0.2) { 0.05 } else { 0.0 },
        partition_sweeps: 1,
        max_retransmits: rng.gen_range(0..=2usize),
        crashes,
    })
}

/// Heavy partitions and the edges of the fault-rate space, drawn after
/// every other axis so no earlier draw moves: a drawn plan may partition
/// at rate 0.25, 0.5 or 1.0 over 1–2 sweeps, set one fate rate to exactly
/// 1 and the others to exactly 0, or split exactly 1 (valid) or the next
/// `f32` above it (rejected) across the four fate rates; a spec without a
/// plan may gain a partition-only one, which cannot lose a frame.
fn draw_fault_edges(rng: &mut ChaCha8Rng, faults: &mut Option<FaultConfig>) {
    let (faults, partition) = match faults {
        Some(faults) => (faults, rng.gen_bool(0.5)),
        None if rng.gen_bool(0.3) => {
            let seed = rng.gen_range(0..u64::MAX);
            (
                faults.insert(FaultConfig {
                    seed,
                    ..FaultConfig::default()
                }),
                true,
            )
        }
        None => return,
    };
    if partition {
        faults.partition = [0.25, 0.5, 1.0][rng.gen_range(0..3usize)];
        faults.partition_sweeps = rng.gen_range(1..=2usize);
    }
    let fates = [
        &mut faults.drop,
        &mut faults.duplicate,
        &mut faults.corrupt,
        &mut faults.reorder,
    ];
    match rng.gen_range(0..8usize) {
        0 => {
            let one = rng.gen_range(0..4usize);
            for (index, rate) in fates.into_iter().enumerate() {
                *rate = if index == one { 1.0 } else { 0.0 };
            }
        }
        1 => {
            let above = rng.gen_bool(0.5);
            for rate in fates {
                *rate = 0.25;
            }
            if above {
                faults.reorder += f32::EPSILON;
            }
        }
        _ => {}
    }
}

/// Derives one complete scenario — most draws are invalid in
/// at least one axis, so both sides of the validation gate get traffic.
fn draw_spec(rng: &mut ChaCha8Rng) -> ScenarioSpec {
    let clients = rng.gen_range(1..=8usize);
    let rounds = rng.gen_range(1..=2usize);
    let topology = draw_topology(rng, clients);
    let quorum = if rng.gen_bool(0.15) {
        rng.gen_range(0..=clients + 2)
    } else {
        rng.gen_range(1..=clients)
    };
    let sample = if rng.gen_bool(0.25) {
        rng.gen_range(1..=clients)
    } else {
        0
    };
    let straggler_deadline = if rng.gen_bool(0.2) {
        rng.gen_range(6..=16usize)
    } else {
        0
    };
    let shield_updates = rng.gen_bool(0.2);
    let config = FederationConfig {
        clients,
        rounds,
        local_training: draw_training(rng),
        eval_samples: rng.gen_range(4..=8),
        transport: if rng.gen_bool(0.5) {
            TransportKind::InMemory
        } else {
            TransportKind::Serialized
        },
        topology,
        policy: ParticipationPolicy {
            quorum,
            sample,
            straggler_deadline,
        },
        rule: draw_rule(rng),
        shield_updates,
        secure_aggregation: rng.gen_bool(0.12),
        schedules: draw_schedules(rng, clients, rounds),
        faults: draw_faults(rng, clients, rounds),
        codec: draw_codec(rng),
    };
    let mut spec = ScenarioSpec::honest(config).with_partition(draw_partition(rng));
    if rng.gen_bool(0.45) {
        let role_count = rng.gen_range(1..=2usize);
        for _ in 0..role_count {
            // A duplicate or out-of-range seat must be rejected.
            let seat = if rng.gen_bool(0.08) {
                clients
            } else {
                rng.gen_range(0..clients)
            };
            spec = spec.with_role(seat, draw_role(rng));
        }
    }
    // Half the draws with an out-of-range schedule seat trade it for one
    // sweep delay one past its cap: a seat latency, or a fault plan's
    // reorder window, partition window or retransmission budget, whatever
    // its rates. Validation must refuse that too. Only already-broken specs
    // draw here, so every valid spec is the one drawn before the cap existed.
    let federation = &mut spec.federation;
    if let Some(index) = federation
        .schedules
        .iter()
        .position(|schedule| schedule.client_id == clients)
    {
        if rng.gen_bool(0.5) {
            let over = MAX_DELAY_SWEEPS + 1;
            federation.schedules[index].client_id = 0;
            match rng.gen_range(0..4usize) {
                0 => federation.schedules[index].latency = over,
                delay => {
                    let faults = federation.faults.get_or_insert_with(FaultConfig::default);
                    match delay {
                        1 => faults.reorder_window = over,
                        2 => faults.partition_sweeps = over,
                        _ => faults.max_retransmits = over,
                    }
                }
            }
        }
    }
    draw_fault_edges(rng, &mut spec.federation.faults);
    draw_secure_companions(rng, &mut spec);
    spec
}

/// A masked spec is valid only with all of its companions: shielded
/// updates, FedAvg, `sample` 0, no adversarial roles and a root enclave
/// (star or hierarchy). Drawn independently they almost never coincide, so
/// three masked draws in four take them together (gossip becomes a star);
/// the rest stay as drawn, so validation still sees broken masked specs.
/// Drawn last, and only for masked specs, so no other spec moves.
fn draw_secure_companions(rng: &mut ChaCha8Rng, spec: &mut ScenarioSpec) {
    if !spec.federation.secure_aggregation || !rng.gen_bool(0.75) {
        return;
    }
    let federation = &mut spec.federation;
    federation.shield_updates = true;
    federation.rule = AggregationRule::FedAvg;
    federation.policy.sample = 0;
    if matches!(federation.topology, Topology::Gossip { .. }) {
        federation.topology = Topology::Star;
    }
    spec.roles.clear();
}

// ---------------------------------------------------------------------------
// Running a spec to a comparable outcome
// ---------------------------------------------------------------------------

/// The final global model as exact bit patterns, keyed by parameter name.
type GlobalBits = Vec<(String, Vec<u32>)>;

/// What one full run of a *valid* spec produced: the global model bits and
/// the accuracy bit pattern on success, the exact structured error
/// otherwise. Both sides must replay bit-identically.
type Outcome = Result<(GlobalBits, u32), String>;

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

/// The model every seat of `spec` trains: `ShieldedProbe`, whose stem is a
/// sealed segment, when the spec shields updates, so sealing and masking
/// move real bytes; `ChannelHead`, with nothing shielded, otherwise.
fn factory(spec: &ScenarioSpec) -> fn(&mut ChaCha8Rng) -> Box<dyn ImageModel> {
    if spec.federation.shield_updates {
        |rng| Box::new(ShieldedProbe::new(rng))
    } else {
        |rng| Box::new(ChannelHead::new(rng))
    }
}

fn run_outcome(spec: &ScenarioSpec) -> Outcome {
    run_outcome_on(spec, factory(spec))
}

fn run_outcome_on(
    spec: &ScenarioSpec,
    model: fn(&mut ChaCha8Rng) -> Box<dyn ImageModel>,
) -> Outcome {
    let mut seeds = SeedStream::new(RUN_SEED);
    let mut federation = Federation::from_scenario(dataset(), spec, &mut seeds, model)
        .map_err(|e| format!("build: {e:?}"))?;
    match federation.run(&mut seeds) {
        Ok(history) => Ok((
            global_bits(federation.server().parameters()),
            history.final_accuracy.to_bits(),
        )),
        Err(e) => Err(format!("run: {e:?}")),
    }
}

/// Whether a valid spec's run must complete every round (invariant 5): its
/// fault plan cannot lose a frame — no drop, no corruption, no crash; only
/// partitions, reorders and duplicates, which delay or repeat — and no
/// seat drops out on schedule and no straggler deadline cuts a round short
/// at either level.
fn cannot_lose_a_frame(config: &FederationConfig) -> bool {
    let lossless = config.faults.as_ref().is_none_or(|faults| {
        faults.drop == 0.0 && faults.corrupt == 0.0 && faults.crashes.is_empty()
    });
    let edge_deadline = match &config.topology {
        Topology::Hierarchical { edge_policy, .. } => edge_policy.straggler_deadline,
        _ => 0,
    };
    lossless
        && config.schedules.iter().all(|s| s.drop_at_round.is_none())
        && config.policy.straggler_deadline == 0
        && edge_deadline == 0
}

/// Whether a valid spec is eligible for the topology-invariance sweep:
/// full participation with no faults, schedules, sampling or shielding, and
/// enough seats for a gossip mesh. The quorum value is irrelevant — with
/// nothing scheduled to fail, every seat reports and the consensus point
/// folds the full population whatever the threshold.
fn clean_full_participation(config: &FederationConfig) -> bool {
    config.clients >= 2
        && config.policy.sample == 0
        && config.policy.straggler_deadline == 0
        && config.schedules.is_empty()
        && config.faults.is_none()
        && !config.shield_updates
        && !config.secure_aggregation
}

// ---------------------------------------------------------------------------
// Minimal repros of the validate ⇔ build mismatches the fuzzer shook out
// ---------------------------------------------------------------------------
//
// Before this suite existed, `ScenarioSpec::validate` checked only the role
// table: every defect below sailed through validation and surfaced later —
// in the middle of `from_scenario` (after shards were cut and links built),
// or worst of all inside `Federation::run`'s first local training step.
// Each repro pins the consolidated contract: the defect is rejected by
// `validate()`, and the builder rejects it identically *before any link is
// constructed*.

/// Asserts the spec is rejected by validation and that the builder refuses
/// it with the identical structured error.
fn assert_rejected_before_build(spec: &ScenarioSpec) {
    let verdict = spec.validate();
    let rejection = verdict.expect_err("validation accepted a defective spec");
    let mut seeds = SeedStream::new(RUN_SEED);
    let built = Federation::from_scenario(dataset(), spec, &mut seeds, factory(spec));
    let build_rejection = built.err().expect("the builder accepted a defective spec");
    assert_eq!(
        format!("{build_rejection:?}"),
        format!("{rejection:?}"),
        "builder and validation disagree on the rejection"
    );
}

fn base_config() -> FederationConfig {
    FederationConfig {
        clients: 5,
        rounds: 1,
        local_training: TrainingConfig {
            epochs: 1,
            batch_size: 8,
            learning_rate: 0.05,
            momentum: 0.9,
        },
        eval_samples: 8,
        policy: ParticipationPolicy {
            quorum: 5,
            sample: 0,
            straggler_deadline: 0,
        },
        ..FederationConfig::default()
    }
}

/// A zero quorum used to pass validation and only die inside the builder's
/// `FedAvgServer::with_rule` call.
#[test]
fn repro_zero_quorum_is_rejected_at_validation() {
    let mut config = base_config();
    config.policy.quorum = 0;
    assert_rejected_before_build(&ScenarioSpec::honest(config));
}

/// A quorum below the robust rule's breakdown bound (here a trimmed mean
/// needing `2·trim + 1 = 3` updates over a 2-client population) used to
/// pass validation and only die inside the builder.
#[test]
fn repro_quorum_below_rule_breakdown_is_rejected_at_validation() {
    let mut config = base_config();
    config.clients = 2;
    config.policy.quorum = 2;
    config.rule = AggregationRule::TrimmedMean { trim: 1 };
    assert_rejected_before_build(&ScenarioSpec::honest(config));
}

/// Krum's bound is `2·f + 3`: a 4-client population cannot support `f = 1`,
/// and validation must say so before any shard is cut.
#[test]
fn repro_quorum_below_krum_bound_is_rejected_at_validation() {
    let mut config = base_config();
    config.clients = 4;
    config.policy.quorum = 4;
    config.rule = AggregationRule::Krum { f: 1 };
    assert_rejected_before_build(&ScenarioSpec::honest(config));
}

/// A gossip fanout of `n` used to pass validation — and the mesh then
/// silently clamped it to `n - 1`, so the scenario reported a fabric it
/// never got (the original satellite bug; `topology.rs` pins the
/// validation-level fix, this repro pins the spec-level contract).
#[test]
fn repro_gossip_fanout_beyond_mesh_is_rejected_at_validation() {
    let mut config = base_config();
    config.topology = Topology::Gossip { fanout: 5 };
    assert_rejected_before_build(&ScenarioSpec::honest(config));
}

/// A zero batch size used to pass validation *and* the builder, and only
/// died mid-round inside the first client's local training step.
#[test]
fn repro_degenerate_training_config_is_rejected_at_validation() {
    let mut config = base_config();
    config.local_training.batch_size = 0;
    assert_rejected_before_build(&ScenarioSpec::honest(config));
}

/// An attacker-side training override is validated like the federation's
/// own; a zero-epoch override used to die mid-round.
#[test]
fn repro_degenerate_attacker_training_is_rejected_at_validation() {
    let spec = ScenarioSpec::honest(base_config()).with_role(
        0,
        AgentRole::Backdoor {
            trigger: TrojanTrigger {
                size: 3,
                value: 1.0,
                target_class: 0,
            },
            poison_fraction: 1.0,
            boost: 4,
            training: Some(TrainingConfig {
                epochs: 0,
                batch_size: 8,
                learning_rate: 0.05,
                momentum: 0.9,
            }),
        },
    );
    assert_rejected_before_build(&spec);
}

/// A zero-boost backdoor budget used to pass validation and only die in
/// `BackdoorClient::new`, after the dataset had already been partitioned.
#[test]
fn repro_adversarial_budget_is_rejected_at_validation() {
    let spec = ScenarioSpec::honest(base_config()).with_role(
        2,
        AgentRole::AdaptiveBackdoor {
            trigger: TrojanTrigger {
                size: 3,
                value: 1.0,
                target_class: 0,
            },
            poison_fraction: 1.0,
            max_boost: 0,
            training: None,
        },
    );
    assert_rejected_before_build(&spec);
}

/// Secure aggregation over a population with an adversary used to be
/// caught only by the builder's inline check, not by `validate()`.
#[test]
fn repro_secure_aggregation_with_adversary_is_rejected_at_validation() {
    let mut config = base_config();
    config.shield_updates = true;
    config.secure_aggregation = true;
    let spec = ScenarioSpec::honest(config).with_role(
        1,
        AgentRole::FreeRider {
            claimed_samples: 0,
            spam: 0,
            perturbation: 0.01,
        },
    );
    assert_rejected_before_build(&spec);
}

/// An invalid Dirichlet concentration must be rejected at validation, not
/// by a panic inside the partitioner.
#[test]
fn repro_invalid_dirichlet_alpha_is_rejected_at_validation() {
    let spec =
        ScenarioSpec::honest(base_config()).with_partition(Partition::Dirichlet { alpha: -0.5 });
    assert_rejected_before_build(&spec);
}

/// A seat latency, reorder window, partition window or retransmission
/// budget of `usize::MAX` used to pass validation, and `Federation::run`
/// then swept for practically ever: a sweep phase ends only at quiescence,
/// so each delay holds the round open for that many sweeps. The cap itself
/// is accepted; one past it is rejected before any link is built, whatever
/// the fault rates.
#[test]
fn repro_sweep_delays_beyond_the_cap_are_rejected_at_validation() {
    let with_delay = |sweeps: usize, parameter: usize| {
        let mut config = base_config();
        if parameter == 0 {
            config.schedules = vec![ClientSchedule {
                latency: sweeps,
                ..ClientSchedule::punctual(1)
            }];
        } else {
            let mut faults = FaultConfig::default();
            match parameter {
                1 => faults.reorder_window = sweeps,
                2 => faults.partition_sweeps = sweeps,
                _ => faults.max_retransmits = sweeps,
            }
            config.faults = Some(faults);
        }
        ScenarioSpec::honest(config)
    };
    for parameter in 0..4 {
        assert!(with_delay(MAX_DELAY_SWEEPS, parameter).validate().is_ok());
        assert_rejected_before_build(&with_delay(MAX_DELAY_SWEEPS + 1, parameter));
    }
}

/// Secure aggregation over a model with no shielded parameters (here the
/// fuzzer's own `ChannelHead`) used to validate and then fail every run in
/// round 0: honest seats sealed an empty segment, delivery stashed nothing
/// for them, and the masked fold demanded a sealed segment from every
/// reporter. With nothing to mask, unseal or splice, the run now completes
/// with the bits of the unmasked shielded run.
#[test]
fn repro_secure_aggregation_without_shielded_parameters_completes() {
    let channel_head: fn(&mut ChaCha8Rng) -> Box<dyn ImageModel> =
        |rng| Box::new(ChannelHead::new(rng));
    let mut config = base_config();
    config.shield_updates = true;
    let shielded = run_outcome_on(&ScenarioSpec::honest(config.clone()), channel_head);
    config.secure_aggregation = true;
    let masked = run_outcome_on(&ScenarioSpec::honest(config), channel_head);
    assert!(masked.is_ok(), "the masked run failed: {masked:?}");
    assert_eq!(masked, shielded);
}

/// Guards the generator against degenerating into an all-valid or
/// all-invalid distribution (either would silently hollow out the fuzzer):
/// across a fixed window of seeds, both sides of the validation gate, the
/// topology-sweep eligibility, partitioned specs under invariant 5 and
/// valid masked specs must see real traffic.
#[test]
fn spec_generator_covers_both_sides_of_the_validation_gate() {
    let mut valid = 0usize;
    let mut invalid = 0usize;
    let mut sweep_eligible = 0usize;
    let mut partitioned_liveness = 0usize;
    let mut masked = 0usize;
    for case_seed in 0..400u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(case_seed);
        let spec = draw_spec(&mut rng);
        match spec.validate() {
            Ok(()) => {
                valid += 1;
                if clean_full_participation(&spec.federation) {
                    sweep_eligible += 1;
                }
                let partitioned = spec
                    .federation
                    .faults
                    .as_ref()
                    .is_some_and(|faults| faults.partition > 0.0);
                if partitioned && cannot_lose_a_frame(&spec.federation) {
                    partitioned_liveness += 1;
                }
                if spec.federation.secure_aggregation {
                    masked += 1;
                }
            }
            Err(_) => invalid += 1,
        }
    }
    assert!(valid >= 80, "only {valid}/400 drawn specs were valid");
    assert!(invalid >= 80, "only {invalid}/400 drawn specs were invalid");
    assert!(
        sweep_eligible >= 10,
        "only {sweep_eligible}/400 drawn specs were eligible for the topology sweep"
    );
    assert!(
        partitioned_liveness >= 5,
        "only {partitioned_liveness}/400 drawn specs held invariant 5 to a partition"
    );
    assert!(
        masked >= 5,
        "only {masked}/400 drawn specs were valid masked (secure-aggregation) specs"
    );
    // The run path must genuinely complete for a healthy share of valid
    // specs — an always-failing runtime would leave the replay invariants
    // vacuously comparing errors.
    let mut completed = 0usize;
    for case_seed in 0..80u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(case_seed);
        let spec = draw_spec(&mut rng);
        if spec.validate().is_ok() && run_outcome(&spec).is_ok() {
            completed += 1;
        }
    }
    assert!(
        completed >= 10,
        "only {completed}/80 seeds produced a spec that runs to completion"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES).with_seed(0x5CE7_AF02))]

    /// The headline property: for a random scenario, validation and the
    /// builder agree exactly; valid scenarios never panic and replay
    /// bit-identically across repeats, transports and thread counts; and
    /// clean full-participation scenarios produce the same bits whatever
    /// topology routes their updates.
    #[test]
    fn scenario_space_upholds_the_global_invariants(case_seed in 0u64..u64::MAX) {
        let mut rng = ChaCha8Rng::seed_from_u64(case_seed);
        let spec = draw_spec(&mut rng);
        let verdict = spec.validate();

        pool::set_global_threads(1);
        let mut seeds = SeedStream::new(RUN_SEED);
        let built = Federation::from_scenario(dataset(), &spec, &mut seeds, factory(&spec));
        match (&verdict, &built) {
            (Ok(()), Ok(_)) | (Err(_), Err(_)) => {}
            (Ok(()), Err(e)) => {
                prop_assert!(
                    false,
                    "validation accepted a spec the builder rejects ({e:?}):\n{spec:#?}"
                );
            }
            (Err(e), Ok(_)) => {
                prop_assert!(
                    false,
                    "validation rejected a spec ({e:?}) the builder accepts:\n{spec:#?}"
                );
            }
        }
        drop(built);

        if let Err(expected) = &verdict {
            // Rejection itself must be deterministic: the builder surfaces
            // the identical error on every attempt.
            let mut seeds = SeedStream::new(RUN_SEED);
            let again = Federation::from_scenario(dataset(), &spec, &mut seeds, factory(&spec))
                .err()
                .map(|e| format!("{e:?}"));
            prop_assert!(
                again == Some(format!("{expected:?}")),
                "rejection is not replay-stable: {again:?} vs {expected:?}"
            );
        } else {
            // Invariant 2 + 3: the run (or its structured failure) replays
            // bit-identically across repeats, transports and threads.
            let reference = run_outcome(&spec);
            // Invariant 5: a plan that cannot lose a frame only delays
            // delivery, and every delivery phase waits for it.
            prop_assert!(
                reference.is_ok() || !cannot_lose_a_frame(&spec.federation),
                "a spec that cannot lose a frame failed ({reference:?}):\n{spec:#?}"
            );
            let repeat = run_outcome(&spec);
            prop_assert!(
                repeat == reference,
                "repeat replay diverged:\n{spec:#?}"
            );

            let mut flipped = spec.clone();
            flipped.federation.transport = match spec.federation.transport {
                TransportKind::InMemory => TransportKind::Serialized,
                TransportKind::Serialized => TransportKind::InMemory,
            };
            let other_transport = run_outcome(&flipped);
            prop_assert!(
                other_transport == reference,
                "transport flip changed the outcome:\n{spec:#?}"
            );

            pool::set_global_threads(4);
            let four_threads = run_outcome(&spec);
            pool::set_global_threads(1);
            prop_assert!(
                four_threads == reference,
                "PELTA_THREADS=4 changed the outcome:\n{spec:#?}"
            );

            // Invariant 4: clean full-participation scenarios are route-
            // independent — the consensus point folds the same update set
            // whatever topology delivered it, for every rule.
            if clean_full_participation(&spec.federation) && reference.is_ok() {
                let clients = spec.federation.clients;
                let groups = loop {
                    let candidate = draw_groups(&mut rng, clients);
                    let seats: std::collections::BTreeSet<usize> =
                        candidate.iter().flatten().copied().collect();
                    let total: usize = candidate.iter().map(Vec::len).sum();
                    if seats.len() == clients && total == clients {
                        break candidate;
                    }
                };
                let edge_policy = ParticipationPolicy {
                    quorum: 1,
                    sample: 0,
                    straggler_deadline: 0,
                };
                for topology in [
                    Topology::Star,
                    Topology::Hierarchical { groups, edge_policy },
                    Topology::Gossip { fanout: 1 },
                ] {
                    let mut rerouted = spec.clone();
                    let name = topology.name();
                    rerouted.federation.topology = topology;
                    let outcome = run_outcome(&rerouted);
                    prop_assert!(
                        outcome == reference,
                        "rerouting through {name} changed the outcome:\n{spec:#?}"
                    );
                }
            }
        }
        pool::set_global_threads(pool::env_threads());
    }
}
