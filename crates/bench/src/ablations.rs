//! Ablation studies that go beyond the paper's published tables:
//! quantifying the design decisions DESIGN.md calls out and the extensions
//! the conclusion sketches.
//!
//! * [`ablation_prior_fidelity`] — the §VII "commonly used embedding
//!   matrices as a prior" attacker: how robust accuracy degrades as the
//!   attacker's guess of the shielded embedding approaches the true matrix.
//! * [`ablation_substitute_budget`] — the §IV-C BPDA-with-training attacker:
//!   how the transfer attack's strength scales with the attacker's local
//!   training budget.
//! * [`ablation_software_stack`] — the §VII combination of Pelta with
//!   software defenses (randomization, quantization): the four corners
//!   `none / software / Pelta / Pelta + software` under the same PGD attack.
//! * [`ablation_enclave_budget`] — feasibility: the smallest simulated
//!   secure-memory budget under which each defender's shield still fits
//!   (the constraint Table I exists to establish).
//! * [`backdoor_defense`] — the §I poisoning motivation end to end: a
//!   backdoor client inside a small federation against plain FedAvg and the
//!   robust aggregation rules.

use std::sync::Arc;

use pelta_attacks::AttackSuiteParams;
use pelta_attacks::{
    robust_accuracy, select_correctly_classified, EmbeddingPrior, Pgd, PriorGuidedPgd,
    SubstituteConfig, SubstituteTransfer,
};
use pelta_core::{AttackLoss, ClearWhiteBox, GradientOracle, ShieldedWhiteBox};
use pelta_data::{federated_split, DatasetSpec, Partition};
use pelta_defenses::{DefenseStack, RandomizationConfig};
use pelta_fl::{
    aggregate_with_rule, backdoor_success_rate, export_parameters, import_parameters,
    AggregationRule, BackdoorClient, FlClient, GlobalModel, TrojanTrigger,
};
use pelta_models::{ViTConfig, VisionTransformer};
use pelta_tee::{Enclave, EnclaveConfig};
use pelta_tensor::SeedStream;
use serde::{Deserialize, Serialize};

use crate::defenders::{build_defenders, ExperimentConfig};
use crate::report::{format_percent, TextTable};

// ---------------------------------------------------------------------------
// Prior-fidelity ablation
// ---------------------------------------------------------------------------

/// One fidelity level of the prior-informed attacker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriorFidelityRow {
    /// How close the attacker's embedding guess is to the true matrix
    /// (0 = pure noise, 1 = exact).
    pub fidelity: f32,
    /// Robust accuracy of the shielded defender against the prior-guided
    /// attack.
    pub shielded_robust_accuracy: f32,
}

/// Result of [`ablation_prior_fidelity`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PriorFidelityReport {
    /// Defender evaluated (the scaled ViT-L/16 stand-in).
    pub defender: String,
    /// Robust accuracy of the *clear* defender under plain PGD (floor).
    pub clear_robust_accuracy: f32,
    /// Robust accuracy of the shielded defender under plain PGD with the
    /// random upsampling fallback (the paper's §V-B attacker; ceiling).
    pub shielded_random_fallback: f32,
    /// One row per prior fidelity level.
    pub rows: Vec<PriorFidelityRow>,
}

impl PriorFidelityReport {
    /// Renders the report as a text table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec!["attacker", "robust accuracy"]);
        table.push_row(vec![
            "PGD, no shield".to_string(),
            format_percent(self.clear_robust_accuracy),
        ]);
        table.push_row(vec![
            "PGD, shield + random upsampling".to_string(),
            format_percent(self.shielded_random_fallback),
        ]);
        for row in &self.rows {
            table.push_row(vec![
                format!("PriorPGD, shield, fidelity {:.2}", row.fidelity),
                format_percent(row.shielded_robust_accuracy),
            ]);
        }
        format!(
            "Ablation: embedding-prior attacker against the shielded {} (§VII)\n{}",
            self.defender,
            table.render()
        )
    }
}

/// Sweeps the fidelity of the attacker's embedding prior against the
/// shielded ViT defender.
pub fn ablation_prior_fidelity(config: &ExperimentConfig) -> PriorFidelityReport {
    let spec = DatasetSpec::Cifar10Like;
    let params = AttackSuiteParams::table2(spec).scaled(config.epsilon_scale);
    let step = params.epsilon * 2.0 / config.attack_steps as f32;
    let mut seeds = SeedStream::new(config.seed ^ 0x5150);

    let defender = build_defenders(spec, config, Some(&["ViT-L/16"]))
        .into_iter()
        .next()
        .expect("one defender requested");
    let dataset = config.dataset(spec);
    let eval = dataset.test_subset(config.test_samples);
    let Ok((samples, labels)) = select_correctly_classified(
        defender.model.as_ref(),
        &eval.images,
        &eval.labels,
        config.attack_samples,
    ) else {
        return PriorFidelityReport {
            defender: defender.label,
            ..PriorFidelityReport::default()
        };
    };

    let clear = ClearWhiteBox::new(Arc::clone(&defender.model));
    let shielded = ShieldedWhiteBox::with_default_enclave(Arc::clone(&defender.model))
        .expect("default enclave");
    let pgd = Pgd::new(params.epsilon, step, config.attack_steps).expect("valid PGD");

    let mut rng = seeds.derive("prior.clear");
    let clear_outcome =
        robust_accuracy(&clear, &pgd, &samples, &labels, &mut rng).expect("clear PGD");
    let mut rng = seeds.derive("prior.random");
    let random_outcome =
        robust_accuracy(&shielded, &pgd, &samples, &labels, &mut rng).expect("shielded PGD");

    let patch =
        ViTConfig::vit_l16_scaled(spec.image_size(), spec.channels(), spec.num_classes()).patch;
    let mut rows = Vec::new();
    for &fidelity in &[0.0f32, 0.5, 0.9, 1.0] {
        let mut prior_rng = seeds.derive(&format!("prior.build.{fidelity}"));
        let prior = EmbeddingPrior::from_vit_defender(
            defender.model.as_ref(),
            patch,
            fidelity,
            &mut prior_rng,
        )
        .expect("ViT defender exposes an embedding");
        let attack = PriorGuidedPgd::new(params.epsilon, step, config.attack_steps, prior)
            .expect("valid PriorPGD");
        let mut rng = seeds.derive(&format!("prior.attack.{fidelity}"));
        let outcome =
            robust_accuracy(&shielded, &attack, &samples, &labels, &mut rng).expect("PriorPGD");
        rows.push(PriorFidelityRow {
            fidelity,
            shielded_robust_accuracy: outcome.robust_accuracy,
        });
    }

    PriorFidelityReport {
        defender: defender.label,
        clear_robust_accuracy: clear_outcome.robust_accuracy,
        shielded_random_fallback: random_outcome.robust_accuracy,
        rows,
    }
}

// ---------------------------------------------------------------------------
// Substitute-training ablation
// ---------------------------------------------------------------------------

/// One training budget of the substitute attacker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubstituteBudgetRow {
    /// Local distillation epochs the attacker spends on its substitute.
    pub epochs: usize,
    /// Robust accuracy of the shielded defender against the transferred
    /// attack.
    pub shielded_robust_accuracy: f32,
}

/// Result of [`ablation_substitute_budget`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SubstituteBudgetReport {
    /// Defender evaluated.
    pub defender: String,
    /// Robust accuracy of the clear defender under plain PGD (what full
    /// white-box access buys the attacker).
    pub clear_robust_accuracy: f32,
    /// One row per attacker training budget.
    pub rows: Vec<SubstituteBudgetRow>,
}

impl SubstituteBudgetReport {
    /// Renders the report as a text table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec!["attacker", "robust accuracy"]);
        table.push_row(vec![
            "PGD, no shield".to_string(),
            format_percent(self.clear_robust_accuracy),
        ]);
        for row in &self.rows {
            table.push_row(vec![
                format!("SubstituteTransfer, shield, {} epochs", row.epochs),
                format_percent(row.shielded_robust_accuracy),
            ]);
        }
        format!(
            "Ablation: BPDA substitute-training attacker against the shielded {} (§IV-C)\n{}",
            self.defender,
            table.render()
        )
    }
}

/// Sweeps the substitute attacker's training budget against the shielded ViT
/// defender.
pub fn ablation_substitute_budget(config: &ExperimentConfig) -> SubstituteBudgetReport {
    let spec = DatasetSpec::Cifar10Like;
    let params = AttackSuiteParams::table2(spec).scaled(config.epsilon_scale);
    let step = params.epsilon * 2.0 / config.attack_steps as f32;
    let mut seeds = SeedStream::new(config.seed ^ 0xB9DA);

    let defender = build_defenders(spec, config, Some(&["ViT-B/16"]))
        .into_iter()
        .next()
        .expect("one defender requested");
    let dataset = config.dataset(spec);
    let eval = dataset.test_subset(config.test_samples);
    let Ok((samples, labels)) = select_correctly_classified(
        defender.model.as_ref(),
        &eval.images,
        &eval.labels,
        config.attack_samples,
    ) else {
        return SubstituteBudgetReport {
            defender: defender.label,
            ..SubstituteBudgetReport::default()
        };
    };

    let clear = ClearWhiteBox::new(Arc::clone(&defender.model));
    let shielded = ShieldedWhiteBox::with_default_enclave(Arc::clone(&defender.model))
        .expect("default enclave");
    let pgd = Pgd::new(params.epsilon, step, config.attack_steps).expect("valid PGD");
    let mut rng = seeds.derive("substitute.clear");
    let clear_outcome =
        robust_accuracy(&clear, &pgd, &samples, &labels, &mut rng).expect("clear PGD");

    let mut rows = Vec::new();
    for &epochs in &[1usize, 3, 9] {
        let attack = SubstituteTransfer::new(SubstituteConfig {
            dim: 16,
            depth: 1,
            epochs,
            learning_rate: 0.02,
            epsilon: params.epsilon,
            epsilon_step: step,
            attack_steps: config.attack_steps,
        })
        .expect("valid substitute config");
        let mut rng = seeds.derive(&format!("substitute.{epochs}"));
        let outcome =
            robust_accuracy(&shielded, &attack, &samples, &labels, &mut rng).expect("transfer");
        rows.push(SubstituteBudgetRow {
            epochs,
            shielded_robust_accuracy: outcome.robust_accuracy,
        });
    }

    SubstituteBudgetReport {
        defender: defender.label,
        clear_robust_accuracy: clear_outcome.robust_accuracy,
        rows,
    }
}

// ---------------------------------------------------------------------------
// Software-defense stack ablation
// ---------------------------------------------------------------------------

/// One defense combination of the software-stack ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoftwareStackRow {
    /// Human-readable description of the defense combination.
    pub setting: String,
    /// Whether the Pelta shield is part of the combination.
    pub pelta: bool,
    /// Whether the software defenses (quantization + randomization) are
    /// applied.
    pub software: bool,
    /// Robust accuracy under the shared PGD attack.
    pub robust_accuracy: f32,
}

/// Result of [`ablation_software_stack`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SoftwareStackReport {
    /// Defender evaluated.
    pub defender: String,
    /// One row per defense combination.
    pub rows: Vec<SoftwareStackRow>,
}

impl SoftwareStackReport {
    /// Renders the report as a text table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec!["defense", "Pelta", "software", "robust accuracy"]);
        for row in &self.rows {
            table.push_row(vec![
                row.setting.clone(),
                if row.pelta { "yes" } else { "no" }.to_string(),
                if row.software { "yes" } else { "no" }.to_string(),
                format_percent(row.robust_accuracy),
            ]);
        }
        format!(
            "Ablation: Pelta combined with software defenses on {} (§VII)\n{}",
            self.defender,
            table.render()
        )
    }
}

/// Evaluates the four corners `none / software / Pelta / Pelta + software`
/// under the same PGD attack.
pub fn ablation_software_stack(config: &ExperimentConfig) -> SoftwareStackReport {
    let spec = DatasetSpec::Cifar10Like;
    let params = AttackSuiteParams::table2(spec).scaled(config.epsilon_scale);
    let step = params.epsilon * 2.0 / config.attack_steps as f32;
    let mut seeds = SeedStream::new(config.seed ^ 0x50F7);

    let defender = build_defenders(spec, config, Some(&["ViT-B/16"]))
        .into_iter()
        .next()
        .expect("one defender requested");
    let dataset = config.dataset(spec);
    let eval = dataset.test_subset(config.test_samples);
    let Ok((samples, labels)) = select_correctly_classified(
        defender.model.as_ref(),
        &eval.images,
        &eval.labels,
        config.attack_samples,
    ) else {
        return SoftwareStackReport {
            defender: defender.label,
            ..SoftwareStackReport::default()
        };
    };

    let software = |inner: Arc<dyn GradientOracle>, seed: u64| -> Arc<dyn GradientOracle> {
        DefenseStack::new(inner)
            .with_quantization(8)
            .expect("valid quantizer")
            .with_randomization(RandomizationConfig::default(), seed)
            .expect("valid randomization")
            .build()
    };

    let clear: Arc<dyn GradientOracle> = Arc::new(ClearWhiteBox::new(Arc::clone(&defender.model)));
    let shielded: Arc<dyn GradientOracle> = Arc::new(
        ShieldedWhiteBox::with_default_enclave(Arc::clone(&defender.model)).expect("enclave"),
    );
    let settings: Vec<(String, bool, bool, Arc<dyn GradientOracle>)> = vec![
        ("undefended".to_string(), false, false, Arc::clone(&clear)),
        (
            "software only".to_string(),
            false,
            true,
            software(Arc::clone(&clear), config.seed),
        ),
        ("Pelta only".to_string(), true, false, Arc::clone(&shielded)),
        (
            "Pelta + software".to_string(),
            true,
            true,
            software(Arc::clone(&shielded), config.seed + 1),
        ),
    ];

    let pgd = Pgd::new(params.epsilon, step, config.attack_steps).expect("valid PGD");
    let mut rows = Vec::new();
    for (setting, pelta, soft, oracle) in settings {
        let mut rng = seeds.derive(&format!("software.{setting}"));
        let outcome =
            robust_accuracy(oracle.as_ref(), &pgd, &samples, &labels, &mut rng).expect("PGD run");
        rows.push(SoftwareStackRow {
            setting,
            pelta,
            software: soft,
            robust_accuracy: outcome.robust_accuracy,
        });
    }

    SoftwareStackReport {
        defender: defender.label,
        rows,
    }
}

// ---------------------------------------------------------------------------
// Enclave-budget ablation
// ---------------------------------------------------------------------------

/// One defender × budget feasibility cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnclaveBudgetRow {
    /// Defender evaluated.
    pub defender: String,
    /// Bytes the shield actually needs per pass (measured).
    pub required_bytes: usize,
    /// The smallest budget of the sweep under which the shielded probe
    /// succeeds, if any.
    pub smallest_feasible_budget: Option<usize>,
}

/// Result of [`ablation_enclave_budget`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EnclaveBudgetReport {
    /// The budgets swept, in bytes.
    pub budgets: Vec<usize>,
    /// One row per defender.
    pub rows: Vec<EnclaveBudgetRow>,
}

impl EnclaveBudgetReport {
    /// Renders the report as a text table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec![
            "defender",
            "shield bytes/pass",
            "smallest feasible budget",
        ]);
        for row in &self.rows {
            table.push_row(vec![
                row.defender.clone(),
                format!("{}", row.required_bytes),
                row.smallest_feasible_budget
                    .map(|b| format!("{} KiB", b / 1024))
                    .unwrap_or_else(|| "none in sweep".to_string()),
            ]);
        }
        format!(
            "Ablation: enclave secure-memory budget sweep ({} budgets up to the 30 MB TrustZone default)\n{}",
            self.budgets.len(),
            table.render()
        )
    }
}

/// Sweeps the simulated secure-memory budget and reports the smallest one
/// under which each defender's shield still fits.
pub fn ablation_enclave_budget(config: &ExperimentConfig) -> EnclaveBudgetReport {
    let spec = DatasetSpec::Cifar10Like;
    let budgets: Vec<usize> = vec![
        64 * 1024,
        256 * 1024,
        1024 * 1024,
        4 * 1024 * 1024,
        30 * 1024 * 1024,
    ];
    let defenders = build_defenders(
        spec,
        config,
        Some(&["ViT-L/16", "ViT-B/16", "ResNet-56", "BiT-M-R101x3"]),
    );
    let dataset = config.dataset(spec);
    let eval = dataset.test_subset(1);

    let mut rows = Vec::new();
    for defender in defenders {
        // Measure the per-pass requirement with the default enclave first.
        let shielded = ShieldedWhiteBox::with_default_enclave(Arc::clone(&defender.model))
            .expect("default enclave");
        let probe = shielded.probe(&eval.images, &eval.labels, AttackLoss::CrossEntropy);
        let required_bytes = match probe {
            Ok(_) => shielded.last_shield_report().total_bytes(),
            Err(_) => usize::MAX,
        };

        let mut smallest = None;
        for &budget in &budgets {
            let enclave = Arc::new(Enclave::new(EnclaveConfig::with_budget(
                &format!("sweep-{budget}"),
                budget,
            )));
            let candidate = ShieldedWhiteBox::new(Arc::clone(&defender.model), enclave);
            if candidate
                .probe(&eval.images, &eval.labels, AttackLoss::CrossEntropy)
                .is_ok()
            {
                smallest = Some(budget);
                break;
            }
        }
        rows.push(EnclaveBudgetRow {
            defender: defender.label,
            required_bytes,
            smallest_feasible_budget: smallest,
        });
    }

    EnclaveBudgetReport { budgets, rows }
}

// ---------------------------------------------------------------------------
// Backdoor / robust-aggregation study
// ---------------------------------------------------------------------------

/// One aggregation rule's outcome in the backdoor study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackdoorRow {
    /// Human-readable rule name.
    pub rule: String,
    /// Clean accuracy of the aggregated global model on held-out data.
    pub global_clean_accuracy: f32,
    /// Backdoor activation rate of the aggregated global model.
    pub global_backdoor_rate: f32,
}

/// Result of [`backdoor_defense`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BackdoorReport {
    /// Number of honest clients in the federation.
    pub honest_clients: usize,
    /// One row per aggregation rule.
    pub rows: Vec<BackdoorRow>,
}

impl BackdoorReport {
    /// Renders the report as a text table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec!["aggregation rule", "clean accuracy", "backdoor rate"]);
        for row in &self.rows {
            table.push_row(vec![
                row.rule.clone(),
                format_percent(row.global_clean_accuracy),
                format_percent(row.global_backdoor_rate),
            ]);
        }
        format!(
            "Backdoor poisoning vs robust aggregation ({} honest clients + 1 backdoor client, §I / §II)\n{}",
            self.honest_clients,
            table.render()
        )
    }
}

/// Runs one federated round with a backdoor client under each aggregation
/// rule and reports the surviving backdoor rate.
pub fn backdoor_defense(config: &ExperimentConfig) -> BackdoorReport {
    let spec = DatasetSpec::Cifar10Like;
    let honest_clients = 3usize;
    let mut seeds = SeedStream::new(config.seed ^ 0xBAD0);
    let dataset = config.dataset(spec);
    let shards = federated_split(
        &dataset,
        honest_clients + 1,
        Partition::Iid,
        &mut seeds.derive("split"),
    );
    let trigger = TrojanTrigger::new(4, 1.0, 0).expect("valid trigger");
    let vit_config =
        ViTConfig::vit_b16_scaled(spec.image_size(), spec.channels(), spec.num_classes());

    let rules = [
        ("FedAvg".to_string(), AggregationRule::FedAvg),
        (
            "Norm clipping (max 1.0)".to_string(),
            AggregationRule::NormClipping { max_norm: 1.0 },
        ),
        (
            "Trimmed mean (trim 1)".to_string(),
            AggregationRule::TrimmedMean { trim: 1 },
        ),
    ];

    let eval = dataset.test_subset(config.test_samples.max(20));
    let mut rows = Vec::new();
    for (rule_name, rule) in rules {
        let init = VisionTransformer::new(vit_config.clone(), &mut seeds.derive("global"))
            .expect("valid config");
        let broadcast = GlobalModel {
            round: 0,
            parameters: export_parameters(&init),
        };

        // Honest clients.
        let mut clients: Vec<FlClient> = shards[..honest_clients]
            .iter()
            .cloned()
            .enumerate()
            .map(|(id, shard)| {
                let model = VisionTransformer::new(
                    vit_config.clone(),
                    &mut seeds.derive(&format!("client{id}.{rule_name}")),
                )
                .expect("valid config");
                FlClient::new(id, shard, Box::new(model), config.training())
            })
            .collect();
        // The backdoor client, heavily boosting its update.
        let mut attacker = BackdoorClient::new(
            honest_clients,
            shards[honest_clients].clone(),
            Box::new(
                VisionTransformer::new(
                    vit_config.clone(),
                    &mut seeds.derive(&format!("attacker.{rule_name}")),
                )
                .expect("valid config"),
            ),
            config.training(),
            trigger,
            0.8,
            5,
        )
        .expect("valid backdoor client");

        let mut updates = Vec::new();
        for client in &mut clients {
            let (update, _) = client.local_round(&broadcast).expect("honest round");
            updates.push(update);
        }
        let mut rng = seeds.derive(&format!("poison.{rule_name}"));
        let (poisoned_update, _) = attacker
            .poisoned_round(&broadcast, &mut rng)
            .expect("poisoned round");
        updates.push(poisoned_update);
        let aggregated =
            aggregate_with_rule(&broadcast.parameters, 0, updates, rule).expect("aggregation");

        // Evaluate the aggregated global model.
        let mut global = VisionTransformer::new(vit_config.clone(), &mut seeds.derive("eval"))
            .expect("valid config");
        import_parameters(&mut global, &aggregated).expect("schema matches");
        let clean =
            pelta_models::accuracy(&global, &eval.images, &eval.labels).expect("clean evaluation");
        let backdoor = backdoor_success_rate(&global, &eval.images, &eval.labels, &trigger)
            .expect("backdoor evaluation");
        rows.push(BackdoorRow {
            rule: rule_name,
            global_clean_accuracy: clean,
            global_backdoor_rate: backdoor,
        });
    }

    BackdoorReport {
        honest_clients,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig {
            seed: 7,
            train_samples: 24,
            test_samples: 20,
            train_epochs: 1,
            attack_samples: 3,
            attack_steps: 2,
            epsilon_scale: 2.0,
        }
    }

    #[test]
    #[cfg_attr(
        not(feature = "slow-tests"),
        ignore = "heavy reproduction test; enable with --features slow-tests"
    )]
    fn software_stack_ablation_covers_the_four_corners() {
        let report = ablation_software_stack(&quick_config());
        assert_eq!(report.rows.len(), 4);
        assert!(report.rows.iter().any(|r| r.pelta && r.software));
        assert!(report.rows.iter().any(|r| !r.pelta && !r.software));
        assert!(report
            .rows
            .iter()
            .all(|r| (0.0..=1.0).contains(&r.robust_accuracy)));
        assert!(report.render().contains("Pelta + software"));
    }

    #[test]
    #[cfg_attr(
        not(feature = "slow-tests"),
        ignore = "heavy reproduction test; enable with --features slow-tests"
    )]
    fn enclave_budget_ablation_finds_a_feasible_budget_for_small_models() {
        let report = ablation_enclave_budget(&quick_config());
        assert_eq!(report.rows.len(), 4);
        // The 30 MB TrustZone default must always be feasible for the scaled
        // models, so every row finds some feasible budget.
        for row in &report.rows {
            assert!(
                row.smallest_feasible_budget.is_some(),
                "{} has no feasible budget",
                row.defender
            );
            assert!(row.required_bytes > 0);
            assert!(row.required_bytes < 30 * 1024 * 1024);
        }
        assert!(report.render().contains("KiB"));
    }

    #[test]
    #[cfg_attr(
        not(feature = "slow-tests"),
        ignore = "heavy reproduction test; enable with --features slow-tests"
    )]
    fn backdoor_defense_reports_every_rule() {
        let report = backdoor_defense(&quick_config());
        assert_eq!(report.rows.len(), 3);
        assert!(report
            .rows
            .iter()
            .all(|r| (0.0..=1.0).contains(&r.global_backdoor_rate)
                && (0.0..=1.0).contains(&r.global_clean_accuracy)));
        assert!(report.render().contains("FedAvg"));
    }

    #[test]
    #[cfg_attr(
        not(feature = "slow-tests"),
        ignore = "heavy reproduction test; enable with --features slow-tests"
    )]
    fn prior_fidelity_ablation_sweeps_the_requested_levels() {
        let report = ablation_prior_fidelity(&quick_config());
        if report.rows.is_empty() {
            // The quick defender classified nothing correctly — acceptable in
            // the degenerate quick configuration.
            return;
        }
        assert_eq!(report.rows.len(), 4);
        assert!((report.rows[0].fidelity - 0.0).abs() < 1e-6);
        assert!((report.rows[3].fidelity - 1.0).abs() < 1e-6);
        assert!(report.render().contains("fidelity"));
    }
}
