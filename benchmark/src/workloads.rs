//! The four workloads and the real code paths they time.
//!
//! Every end-to-end number comes from one of two calls: a fresh
//! [`Federation`] built by `Federation::from_scenario` (or its
//! `vit_scenario` wrapper) and driven by `Federation::run`, or
//! `pelta_attacks::robust_accuracy` running PGD against the real
//! `ClearWhiteBox` / `ShieldedWhiteBox` oracles. Inputs come from the seed
//! alone, and each operation checks its own outputs.

use std::sync::Arc;

use pelta_attacks::{robust_accuracy, AttackOutcome, AttackSuiteParams, Pgd};
use pelta_core::{ClearWhiteBox, ShieldedWhiteBox};
use pelta_data::{Dataset, DatasetSpec, GeneratorConfig};
use pelta_fl::{
    ClientSchedule, Federation, FederationConfig, ParticipationPolicy, RunHistory, ScenarioSpec,
    Topology, TransportKind, UpdateCodec,
};
use pelta_models::{predict, ImageModel, TrainingConfig, ViTConfig, VisionTransformer};
use pelta_tensor::{SeedStream, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::mlp::WireMlp;
use crate::oracle::{bits_hash, Observations, ObservedOracle};
use crate::trace::Tracer;

/// One benchmark workload (see `README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Four scaled-ViT clients training on CIFAR-10-like shards, shielded
    /// updates: the paper's deployment, dominated by local training.
    FlVit,
    /// PGD (Table II) through the clear and the shielded oracle of an
    /// untrained scaled ViT: the compromised client's probe path.
    AttackPgd,
    /// Thirty-two tiny-MLP clients under four edge aggregators, Int8
    /// updates: the message path.
    FlWire,
    /// Sixteen tiny-MLP clients, sealed and pairwise-masked updates with a
    /// scripted dropout: the secure-aggregation path.
    FlSecure,
}

impl Workload {
    /// Every workload, in manifest order.
    pub const ALL: [Workload; 4] = [
        Workload::FlVit,
        Workload::AttackPgd,
        Workload::FlWire,
        Workload::FlSecure,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlVit => "fl_vit",
            Workload::AttackPgd => "attack_pgd",
            Workload::FlWire => "fl_wire",
            Workload::FlSecure => "fl_secure",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the benchmarked ones, or the smallest ones that still run
/// every code path (for the smoke test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// The `fl_secure` seat that drops mid-round, and when.
pub const DROPPED_SEAT: usize = 1;
const DROP_ROUND: usize = 1;

/// What one operation measured and what its checks found.
#[derive(Debug, Clone)]
pub struct OpSample {
    /// Wall time of the set-up: inputs, models, federation or oracles.
    pub setup_s: f64,
    /// Wall time per federated round, or of the attack pair.
    pub latency_s: f64,
    /// Hash of everything the operation must reproduce exactly for its
    /// seed: final global-model bits and wire bytes, or the adversarial
    /// batches and robust accuracies.
    pub digest: u64,
    /// Logical wire bytes per round (federated workloads).
    pub wire_bytes_per_round: Option<f64>,
    /// Robust accuracy under the shielded oracle (attack workload).
    pub robust_accuracy_shielded: Option<f64>,
    /// Every check that failed, one line each.
    pub failures: Vec<String>,
}

/// A federated workload's inputs: its dataset and scenario.
pub struct FlPlan {
    /// Which federated workload this is.
    pub workload: Workload,
    /// The CIFAR-10-like data the clients' shards are cut from.
    pub dataset: Dataset,
    /// The federation: population, rounds, policy, topology, codec, shield.
    pub spec: ScenarioSpec,
}

fn base_config(clients: usize, rounds: usize, batch_size: usize, lr: f32) -> FederationConfig {
    FederationConfig {
        clients,
        rounds,
        local_training: TrainingConfig {
            epochs: 1,
            batch_size,
            learning_rate: lr,
            momentum: 0.9,
        },
        eval_samples: 32,
        transport: TransportKind::Serialized,
        policy: ParticipationPolicy {
            quorum: clients,
            sample: 0,
            straggler_deadline: 0,
        },
        ..FederationConfig::default()
    }
}

impl FlPlan {
    /// Generates the inputs of a federated workload from `seed`.
    ///
    /// # Panics
    /// Panics if `workload` is `attack_pgd`, which has no federation.
    pub fn new(workload: Workload, scale: Scale, seed: u64) -> Self {
        let smoke = scale == Scale::Smoke;
        let (config, train_samples) = match workload {
            Workload::FlVit => {
                let (clients, samples, batch) = if smoke { (2, 16, 8) } else { (4, 64, 16) };
                let mut config = base_config(clients, 1, batch, 0.02);
                config.shield_updates = true;
                (config, samples)
            }
            Workload::FlWire => {
                let (edges, per_edge) = if smoke { (2, 2) } else { (4, 8) };
                let clients = edges * per_edge;
                let mut config = base_config(clients, 3, 4, 0.05);
                config.topology = Topology::hierarchical(
                    (0..edges)
                        .map(|edge| (edge * per_edge..(edge + 1) * per_edge).collect())
                        .collect(),
                );
                config.codec = UpdateCodec::Int8;
                (config, 4 * clients)
            }
            Workload::FlSecure => {
                let clients = if smoke { 4 } else { 16 };
                let mut config = base_config(clients, 3, 4, 0.05);
                config.policy.quorum = clients - 1;
                config.shield_updates = true;
                config.secure_aggregation = true;
                config.schedules = vec![ClientSchedule {
                    client_id: DROPPED_SEAT,
                    drop_at_round: Some(DROP_ROUND),
                    rejoin_at_round: Some(DROP_ROUND + 1),
                    latency: 0,
                }];
                (config, 4 * clients)
            }
            Workload::AttackPgd => panic!("attack_pgd has no federation"),
        };
        let test_samples = config.eval_samples;
        let dataset = Dataset::generate(
            DatasetSpec::Cifar10Like,
            &GeneratorConfig {
                train_samples,
                test_samples,
                ..GeneratorConfig::default()
            },
            seed,
        );
        FlPlan {
            workload,
            dataset,
            spec: ScenarioSpec::honest(config),
        }
    }

    /// A fresh model replica of this workload's architecture.
    pub fn model(&self, rng: &mut ChaCha8Rng) -> Box<dyn ImageModel> {
        match self.workload {
            Workload::FlVit => Box::new(vit(rng)),
            _ => Box::new(WireMlp::new(rng)),
        }
    }

    /// Builds the federation (client shards, models, attested links).
    ///
    /// # Errors
    /// Returns the runtime's error if the scenario is refused.
    pub fn build(&self, seeds: &mut SeedStream) -> pelta_fl::Result<Federation> {
        match self.workload {
            Workload::FlVit => Federation::vit_scenario(&self.dataset, &self.spec, seeds),
            _ => Federation::from_scenario(&self.dataset, &self.spec, seeds, |rng| {
                Box::new(WireMlp::new(rng))
            }),
        }
    }

    /// Checks a finished run: every round collected the expected reporters,
    /// the scripted dropout landed, sealed segments travelled, the secure
    /// root never unsealed an individual blob, and the model is finite.
    pub fn check(&self, federation: &Federation, history: &RunHistory) -> Vec<String> {
        let config = &self.spec.federation;
        let mut failures = Vec::new();
        if history.rounds.len() != config.rounds {
            failures.push(format!(
                "{} of {} rounds recorded",
                history.rounds.len(),
                config.rounds
            ));
        }
        for record in &history.rounds {
            let dropped = config.secure_aggregation && record.round == DROP_ROUND;
            let expected_dropouts = if dropped {
                vec![DROPPED_SEAT]
            } else {
                Vec::new()
            };
            let expected_reporters = config.clients - expected_dropouts.len();
            if record.summary.reporters.len() != expected_reporters
                || record.summary.dropouts != expected_dropouts
            {
                failures.push(format!(
                    "round {}: reporters {:?}, dropouts {:?}",
                    record.round, record.summary.reporters, record.summary.dropouts
                ));
            }
            if config.shield_updates && record.shielded_bytes == 0 {
                failures.push(format!("round {}: no sealed segment bytes", record.round));
            }
        }
        let raw_unseals = federation.server_raw_unseals();
        if config.secure_aggregation && raw_unseals != Some(0) {
            failures.push(format!(
                "secure root unsealed individual blobs: {raw_unseals:?}"
            ));
        }
        let finite = federation
            .server()
            .parameters()
            .iter()
            .all(|(_, tensor)| tensor.data().iter().all(|v| v.is_finite()));
        if !finite {
            failures.push("non-finite global parameters".to_string());
        }
        failures
    }
}

/// A freshly initialised scaled ViT-B/16 for 32×32 ten-class inputs — the
/// replica `Federation::vit_scenario` builds for a CIFAR-10-like dataset.
pub fn vit(rng: &mut ChaCha8Rng) -> VisionTransformer {
    VisionTransformer::new(ViTConfig::vit_b16_scaled(32, 3, 10), rng)
        .expect("scaled ViT configuration is valid")
}

/// Runs one federated operation: set-up, then `Federation::run`.
pub fn fl_op(workload: Workload, scale: Scale, seed: u64) -> OpSample {
    let start = std::time::Instant::now();
    let plan = FlPlan::new(workload, scale, seed);
    let mut seeds = SeedStream::new(seed);
    let built = plan.build(&mut seeds);
    let setup_s = start.elapsed().as_secs_f64();
    let mut sample = OpSample {
        setup_s,
        latency_s: f64::NAN,
        digest: 0,
        wire_bytes_per_round: None,
        robust_accuracy_shielded: None,
        failures: Vec::new(),
    };
    let mut federation = match built {
        Ok(federation) => federation,
        Err(e) => {
            sample
                .failures
                .push(format!("federation build failed: {e}"));
            return sample;
        }
    };
    let start = std::time::Instant::now();
    let run = federation.run(&mut seeds);
    let run_s = start.elapsed().as_secs_f64();
    let history = match run {
        Ok(history) => history,
        Err(e) => {
            sample.failures.push(format!("federation run failed: {e}"));
            return sample;
        }
    };
    let rounds = plan.spec.federation.rounds;
    sample.latency_s = run_s / rounds as f64;
    sample.failures = plan.check(&federation, &history);
    let wire_bytes = history.total_wire_bytes as f64 / rounds as f64;
    sample.wire_bytes_per_round = Some(wire_bytes);
    let parameters = federation.server().parameters();
    sample.digest =
        bits_hash(parameters.iter().flat_map(|(_, t)| t.data().iter())) ^ wire_bytes.to_bits();
    sample
}

/// Images per attack: one keeps an attack pair near 1.3 s on one core, so
/// a 25-second run times well over a dozen pairs.
const ATTACK_IMAGES: usize = 1;

/// The attack workload's inputs: an untrained scaled ViT, a generated
/// image batch labelled with the model's own predictions, the two real
/// oracles and PGD at the Table II CIFAR-10 parameters.
pub struct AttackPlan {
    /// The attacked model.
    pub model: Arc<dyn ImageModel>,
    /// The clean images.
    pub images: Tensor,
    /// The model's predictions on them.
    pub labels: Vec<usize>,
    /// The undefended oracle.
    pub clear: ClearWhiteBox,
    /// The Pelta-shielded oracle.
    pub shielded: ShieldedWhiteBox,
    /// PGD with ε, step and iteration count from Table II.
    pub pgd: Pgd,
    /// The L∞ budget ε.
    pub epsilon: f32,
    /// PGD iterations per attack.
    pub steps: usize,
    seed: u64,
}

impl AttackPlan {
    /// Generates the attack's inputs from `seed`.
    ///
    /// # Errors
    /// Returns a description of the failure if the model or oracles cannot
    /// be built.
    pub fn new(scale: Scale, seed: u64) -> Result<Self, String> {
        let params = AttackSuiteParams::table2(DatasetSpec::Cifar10Like);
        let steps = match scale {
            Scale::Full => params.pgd_steps,
            Scale::Smoke => 2,
        };
        let dataset = Dataset::generate(
            DatasetSpec::Cifar10Like,
            &GeneratorConfig {
                train_samples: ATTACK_IMAGES,
                test_samples: ATTACK_IMAGES,
                ..GeneratorConfig::default()
            },
            seed,
        );
        let mut seeds = SeedStream::new(seed);
        let model: Arc<dyn ImageModel> = Arc::new(vit(&mut seeds.derive("model")));
        let batch = dataset.test_images().clone();
        let labels = predict(model.as_ref(), &batch).map_err(|e| e.to_string())?;
        let shielded = ShieldedWhiteBox::with_default_enclave(Arc::clone(&model))
            .map_err(|e| e.to_string())?;
        let pgd =
            Pgd::new(params.epsilon, params.epsilon_step, steps).map_err(|e| e.to_string())?;
        Ok(AttackPlan {
            clear: ClearWhiteBox::new(Arc::clone(&model)),
            model,
            images: batch,
            labels,
            shielded,
            pgd,
            epsilon: params.epsilon,
            steps,
            seed,
        })
    }

    /// Runs PGD through both oracles, shielded first when `shielded_first`
    /// (alternating the order spreads slow host phases over both), and
    /// returns each oracle's outcome and observations, clear first.
    ///
    /// # Errors
    /// Returns the attack's error, if any.
    pub fn attack(
        &self,
        shielded_first: bool,
        tracer: &Tracer,
    ) -> Result<[(AttackOutcome, Observations); 2], String> {
        let attack_one = |shielded: bool| -> Result<(AttackOutcome, Observations), String> {
            let _span = tracer.span("attack.pgd");
            let oracle = if shielded {
                ObservedOracle::shielded(&self.shielded, &self.images, self.epsilon, tracer)
            } else {
                ObservedOracle::clear(&self.clear, &self.images, self.epsilon, tracer)
            };
            let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
            let outcome = robust_accuracy(&oracle, &self.pgd, &self.images, &self.labels, &mut rng)
                .map_err(|e| e.to_string())?;
            Ok((outcome, oracle.observations()))
        };
        if shielded_first {
            let shielded = attack_one(true)?;
            Ok([attack_one(false)?, shielded])
        } else {
            let clear = attack_one(false)?;
            Ok([clear, attack_one(true)?])
        }
    }
}

/// Runs one attack operation: set-up, then the attack pair.
pub fn attack_op(scale: Scale, seed: u64, index: usize, tracer: &Tracer) -> OpSample {
    let start = std::time::Instant::now();
    let plan = AttackPlan::new(scale, seed);
    let mut sample = OpSample {
        setup_s: start.elapsed().as_secs_f64(),
        latency_s: f64::NAN,
        digest: 0,
        wire_bytes_per_round: None,
        robust_accuracy_shielded: None,
        failures: Vec::new(),
    };
    let plan = match plan {
        Ok(plan) => plan,
        Err(e) => {
            sample.failures.push(format!("attack set-up failed: {e}"));
            return sample;
        }
    };
    let start = std::time::Instant::now();
    let run = plan.attack(index % 2 == 1, tracer);
    sample.latency_s = start.elapsed().as_secs_f64();
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            sample.failures.push(format!("attack failed: {e}"));
            return sample;
        }
    };
    let mut digest = 0u64;
    for (outcome, seen) in &run {
        sample.failures.extend(seen.violations.iter().cloned());
        if outcome.samples != plan.labels.len() || !(0.0..=1.0).contains(&outcome.robust_accuracy) {
            sample.failures.push(format!(
                "{}: {} samples, robust accuracy {}",
                outcome.defender, outcome.samples, outcome.robust_accuracy
            ));
        }
        match seen.final_batch_hash {
            Some(hash) => digest = digest.rotate_left(1) ^ hash,
            None => sample.failures.push(format!(
                "{}: adversarial batch never scored",
                outcome.defender
            )),
        }
        digest ^= u64::from(outcome.robust_accuracy.to_bits());
    }
    sample.digest = digest;
    sample.robust_accuracy_shielded = Some(f64::from(run[1].0.robust_accuracy));
    sample
}
