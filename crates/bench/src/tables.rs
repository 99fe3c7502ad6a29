//! The experiments: one function per table and figure of the paper.

use std::sync::Arc;

use pelta_attacks::eval::outcome_from_samples;
use pelta_attacks::{
    robust_accuracy, select_correctly_classified, Apgd, AttackSuiteParams, CarliniWagner,
    EvasionAttack, Fgsm, Mim, Pgd, RandomUniform, Saga, SagaTarget,
};
use pelta_core::{measure_shield, AttackLoss, ClearWhiteBox, GradientOracle, ShieldedWhiteBox};
use pelta_data::{DatasetSpec, Partition};
use pelta_fl::{Federation, FederationConfig};
use pelta_models::paper_scale;
use pelta_models::{predict, TrainingConfig};
use pelta_tensor::{SeedStream, Tensor};
use serde::{Deserialize, Serialize};

use crate::defenders::{build_defenders, train_ensemble_members, ExperimentConfig};
use crate::report::{format_percent, TextTable};

// ---------------------------------------------------------------------------
// Table I — enclave memory cost and shielded portion
// ---------------------------------------------------------------------------

/// One row of the Table I comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Model name.
    pub model: String,
    /// Shielded portion computed analytically at paper scale (percent).
    pub shielded_percent: f64,
    /// Enclave memory computed analytically at paper scale (KiB).
    pub enclave_kib: f64,
    /// Shielded portion reported by the paper (percent).
    pub paper_shielded_percent: f64,
    /// Enclave memory reported by the paper (KiB).
    pub paper_enclave_kib: f64,
}

/// The Table I report: paper-scale analytic rows plus the measured footprint
/// of the scaled models actually used in the experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Report {
    /// Paper-scale analytic accounting vs the published values.
    pub rows: Vec<Table1Row>,
    /// Measured enclave bytes of the scaled experiment models
    /// `(model, enclave KiB, shielded parameter fraction)`.
    pub scaled_measurements: Vec<(String, f64, f64)>,
}

impl Table1Report {
    /// Renders the report as a text table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec![
            "Model",
            "Shielded % (ours)",
            "TEE mem (ours)",
            "Shielded % (paper)",
            "TEE mem (paper)",
        ]);
        for row in &self.rows {
            table.push_row(vec![
                row.model.clone(),
                format!("{:.3}%", row.shielded_percent),
                format_kib(row.enclave_kib),
                format!("{:.3}%", row.paper_shielded_percent),
                format_kib(row.paper_enclave_kib),
            ]);
        }
        let mut out = String::from("Table I — enclave memory cost and shielded portion\n");
        out.push_str(&table.render());
        out.push_str("\nMeasured scaled models (experiment substrate):\n");
        let mut scaled = TextTable::new(vec![
            "Scaled model",
            "Enclave KiB",
            "Shielded param fraction",
        ]);
        for (model, kib, fraction) in &self.scaled_measurements {
            scaled.push_row(vec![
                model.clone(),
                format!("{kib:.1}"),
                format!("{:.2}%", fraction * 100.0),
            ]);
        }
        out.push_str(&scaled.render());
        out
    }
}

fn format_kib(kib: f64) -> String {
    if kib >= 1024.0 {
        format!("{:.2} MB", kib / 1024.0)
    } else {
        format!("{kib:.2} KB")
    }
}

/// Regenerates Table I.
pub fn table1(config: &ExperimentConfig) -> Table1Report {
    let estimates = paper_scale::table1_estimates();
    let paper = paper_scale::table1_paper_values();
    let rows = estimates
        .iter()
        .zip(paper.iter())
        .map(|(est, (name, pct, kib))| Table1Row {
            model: name.to_string(),
            shielded_percent: est.shielded_percent(),
            enclave_kib: est.enclave_kib(),
            paper_shielded_percent: *pct,
            paper_enclave_kib: *kib,
        })
        .collect();

    // Measure the scaled experiment models on one synthetic sample.
    let mut scaled_measurements = Vec::new();
    let spec = DatasetSpec::Cifar10Like;
    let defenders = build_defenders(
        spec,
        &ExperimentConfig {
            train_epochs: 1,
            train_samples: 2 * spec.num_classes(),
            ..config.clone()
        },
        Some(&["ViT-L/16", "ViT-B/16", "BiT-M-R101x3"]),
    );
    let mut seeds = SeedStream::new(config.seed);
    let sample = Tensor::rand_uniform(
        &[1, spec.channels(), spec.image_size(), spec.image_size()],
        0.0,
        1.0,
        &mut seeds.derive("table1_sample"),
    );
    for defender in defenders {
        let measurement = measure_shield(Arc::clone(&defender.model), &sample)
            .expect("shield fits TrustZone budget");
        scaled_measurements.push((
            defender.label,
            measurement.enclave_kib(),
            measurement.shielded_fraction(),
        ));
    }
    Table1Report {
        rows,
        scaled_measurements,
    }
}

// ---------------------------------------------------------------------------
// Table II — attack parameters
// ---------------------------------------------------------------------------

/// Regenerates Table II (attack hyper-parameters per dataset) as text.
pub fn table2(config: &ExperimentConfig) -> String {
    let mut out = String::from("Table II — attack parameters\n");
    for spec in DatasetSpec::all() {
        let params = AttackSuiteParams::table2(spec).scaled(config.epsilon_scale);
        out.push_str(&format!(
            "\n{} (epsilon scale {:.1}):\n",
            spec, config.epsilon_scale
        ));
        let mut table = TextTable::new(vec!["Attack", "Parameters"]);
        table.push_row(vec![
            "FGSM".to_string(),
            format!("eps = {:.4}", params.epsilon),
        ]);
        table.push_row(vec![
            "PGD".to_string(),
            format!(
                "eps = {:.4}, eps_step = {:.5}, steps = {}",
                params.epsilon, params.epsilon_step, params.pgd_steps
            ),
        ]);
        table.push_row(vec![
            "MIM".to_string(),
            format!(
                "eps = {:.4}, eps_step = {:.5}, mu = {:.1}",
                params.epsilon, params.epsilon_step, params.mim_decay
            ),
        ]);
        table.push_row(vec![
            "APGD".to_string(),
            format!(
                "eps = {:.4}, restarts = {}, rho = {:.2}, steps = {}",
                params.epsilon, params.apgd_restarts, params.apgd_rho, params.apgd_steps
            ),
        ]);
        table.push_row(vec![
            "C&W".to_string(),
            format!(
                "confidence = {:.0}, eps_step = {:.5}, steps = {}",
                params.cw_confidence, params.epsilon_step, params.cw_steps
            ),
        ]);
        table.push_row(vec![
            "SAGA".to_string(),
            format!(
                "alpha_cnn = {:.4}, eps_step = {:.4}, steps = {}",
                params.saga.alpha_cnn, params.saga.step, params.saga.steps
            ),
        ]);
        out.push_str(&table.render());
    }
    out
}

// ---------------------------------------------------------------------------
// Table III — individual defenders against the five attacks
// ---------------------------------------------------------------------------

/// One (dataset, model, attack) cell of Table III.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Cell {
    /// Dataset name (paper naming).
    pub dataset: String,
    /// Defender name (paper naming).
    pub model: String,
    /// Attack name.
    pub attack: String,
    /// Robust accuracy without Pelta.
    pub clear_robust: f32,
    /// Robust accuracy with Pelta.
    pub shielded_robust: f32,
}

/// The Table III report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Table3Report {
    /// All attack cells.
    pub cells: Vec<Table3Cell>,
    /// Clean accuracy per `(dataset, model)`.
    pub clean_accuracy: Vec<(String, String, f32)>,
}

impl Table3Report {
    /// Mean robust-accuracy improvement of shielding over the clear setting.
    pub fn mean_shield_gain(&self) -> f32 {
        if self.cells.is_empty() {
            return 0.0;
        }
        self.cells
            .iter()
            .map(|c| c.shielded_robust - c.clear_robust)
            .sum::<f32>()
            / self.cells.len() as f32
    }

    /// Renders the report as one text table per dataset, mirroring the
    /// paper's layout (non-shielded | shielded per attack, clean accuracy in
    /// the last column).
    pub fn render(&self) -> String {
        let mut out = String::from("Table III — robust accuracy, non-shielded vs Pelta-shielded\n");
        let attacks = ["FGSM", "PGD", "MIM", "C&W", "APGD"];
        let datasets: Vec<String> = {
            let mut seen = Vec::new();
            for cell in &self.cells {
                if !seen.contains(&cell.dataset) {
                    seen.push(cell.dataset.clone());
                }
            }
            seen
        };
        for dataset in datasets {
            out.push_str(&format!("\n{dataset}:\n"));
            let mut header = vec!["Model".to_string()];
            for attack in &attacks {
                header.push(format!("{attack} (clear|shield)"));
            }
            header.push("Clean".to_string());
            let mut table = TextTable::new(header);
            let models: Vec<String> = {
                let mut seen = Vec::new();
                for cell in self.cells.iter().filter(|c| c.dataset == dataset) {
                    if !seen.contains(&cell.model) {
                        seen.push(cell.model.clone());
                    }
                }
                seen
            };
            for model in models {
                let mut row = vec![model.clone()];
                for attack in &attacks {
                    let cell = self
                        .cells
                        .iter()
                        .find(|c| c.dataset == dataset && c.model == model && c.attack == *attack);
                    row.push(match cell {
                        Some(c) => format!(
                            "{} | {}",
                            format_percent(c.clear_robust),
                            format_percent(c.shielded_robust)
                        ),
                        None => "-".to_string(),
                    });
                }
                let clean = self
                    .clean_accuracy
                    .iter()
                    .find(|(d, m, _)| *d == dataset && *m == model)
                    .map(|(_, _, acc)| format_percent(*acc))
                    .unwrap_or_else(|| "-".to_string());
                row.push(clean);
                table.push_row(row);
            }
            out.push_str(&table.render());
        }
        out
    }
}

/// Builds the five individual attacks of Table III for a parameter set,
/// trimming iteration counts to the experiment budget.
fn attack_suite(params: &AttackSuiteParams, steps: usize) -> Vec<Box<dyn EvasionAttack>> {
    // Keep the total movement budget of the paper (steps × step ≈ 2ε) when
    // running with fewer iterations.
    let step = params.epsilon * 2.0 / steps as f32;
    vec![
        Box::new(Fgsm::new(params.epsilon).expect("valid params")),
        Box::new(Pgd::new(params.epsilon, step, steps).expect("valid params")),
        Box::new(Mim::new(params.epsilon, step, steps, params.mim_decay).expect("valid params")),
        Box::new(
            CarliniWagner::new(params.cw_confidence, params.epsilon_step, steps)
                .expect("valid params"),
        ),
        Box::new(
            Apgd::new(params.epsilon, steps, params.apgd_rho, params.apgd_restarts)
                .expect("valid params"),
        ),
    ]
}

/// Regenerates Table III for the given datasets (all three when `datasets`
/// is `None`).
pub fn table3(config: &ExperimentConfig, datasets: Option<&[DatasetSpec]>) -> Table3Report {
    let all = DatasetSpec::all();
    let datasets = datasets.unwrap_or(&all);
    let mut report = Table3Report::default();
    let mut seeds = SeedStream::new(config.seed);

    for &spec in datasets {
        let params = AttackSuiteParams::table2(spec).scaled(config.epsilon_scale);
        let attacks = attack_suite(&params, config.attack_steps);
        let dataset = config.dataset(spec);
        let defenders = build_defenders(spec, config, None);
        for defender in defenders {
            report.clean_accuracy.push((
                spec.paper_name().to_string(),
                defender.label.clone(),
                defender.clean_accuracy,
            ));
            let eval = dataset.test_subset(config.test_samples.max(spec.num_classes()));
            let Ok((samples, labels)) = select_correctly_classified(
                defender.model.as_ref(),
                &eval.images,
                &eval.labels,
                config.attack_samples,
            ) else {
                // The defender classifies nothing correctly (possible for the
                // quickest smoke configurations); skip its attack cells.
                continue;
            };
            let clear = ClearWhiteBox::new(Arc::clone(&defender.model));
            let shielded = ShieldedWhiteBox::with_default_enclave(Arc::clone(&defender.model))
                .expect("default enclave");
            for attack in &attacks {
                let mut rng = seeds.derive(&format!(
                    "table3.{}.{}.{}",
                    spec.paper_name(),
                    defender.label,
                    attack.name()
                ));
                let clear_outcome =
                    robust_accuracy(&clear, attack.as_ref(), &samples, &labels, &mut rng)
                        .expect("clear attack");
                let shielded_outcome =
                    robust_accuracy(&shielded, attack.as_ref(), &samples, &labels, &mut rng)
                        .expect("shielded attack");
                report.cells.push(Table3Cell {
                    dataset: spec.paper_name().to_string(),
                    model: defender.label.clone(),
                    attack: attack.name().to_string(),
                    clear_robust: clear_outcome.robust_accuracy,
                    shielded_robust: shielded_outcome.robust_accuracy,
                });
            }
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Table IV — the ensemble against SAGA under four shielding settings
// ---------------------------------------------------------------------------

/// One row of Table IV (per dataset and per evaluated model).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table4Row {
    /// Dataset name.
    pub dataset: String,
    /// Evaluated model ("ViT", "BiT" or "Ensemble").
    pub model: String,
    /// Clean accuracy.
    pub clean: f32,
    /// Robust accuracy against the random-uniform baseline.
    pub random_baseline: f32,
    /// Robust accuracy against SAGA with no shield.
    pub shield_none: f32,
    /// Robust accuracy against SAGA with only the ViT shielded.
    pub shield_vit_only: f32,
    /// Robust accuracy against SAGA with only the BiT shielded.
    pub shield_bit_only: f32,
    /// Robust accuracy against SAGA with both members shielded.
    pub shield_both: f32,
}

/// The Table IV report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Table4Report {
    /// All rows.
    pub rows: Vec<Table4Row>,
}

impl Table4Report {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Table IV — ensemble robust accuracy against SAGA (four shield settings)\n",
        );
        let mut table = TextTable::new(vec![
            "Dataset",
            "Model",
            "Clean",
            "Random",
            "None",
            "ViT shield",
            "BiT shield",
            "Ensemble shield",
        ]);
        for row in &self.rows {
            table.push_row(vec![
                row.dataset.clone(),
                row.model.clone(),
                format_percent(row.clean),
                format_percent(row.random_baseline),
                format_percent(row.shield_none),
                format_percent(row.shield_vit_only),
                format_percent(row.shield_bit_only),
                format_percent(row.shield_both),
            ]);
        }
        out.push_str(&table.render());
        out
    }
}

/// Robust accuracy of one model on crafted samples.
fn member_robust(oracle: &dyn GradientOracle, adversarial: &Tensor, labels: &[usize]) -> f32 {
    outcome_from_samples(oracle, "SAGA", adversarial, adversarial, labels)
        .map(|o| o.robust_accuracy)
        .unwrap_or(0.0)
}

/// Regenerates Table IV for the given datasets (all three when `None`).
pub fn table4(config: &ExperimentConfig, datasets: Option<&[DatasetSpec]>) -> Table4Report {
    let all = DatasetSpec::all();
    let datasets = datasets.unwrap_or(&all);
    let mut report = Table4Report::default();
    let mut seeds = SeedStream::new(config.seed);

    for &spec in datasets {
        let params = AttackSuiteParams::table2(spec).scaled(config.epsilon_scale);
        let mut saga_params = params.saga;
        saga_params.steps = config.attack_steps;
        saga_params.step = params.epsilon * 2.0 / config.attack_steps as f32;
        let saga = Saga::new(saga_params, params.epsilon).expect("valid SAGA params");
        let random = RandomUniform::new(params.epsilon).expect("valid baseline");

        let dataset = config.dataset(spec);
        let (vit, bit) = train_ensemble_members(spec, config);

        // Clean accuracy per member and for the random-selection ensemble.
        let eval = dataset.test_subset(config.test_samples.max(spec.num_classes()));
        let ensemble_rng = &mut seeds.derive(&format!("table4.policy.{}", spec.paper_name()));
        // Select samples both members classify correctly so the ensemble's
        // clean accuracy over them is 100%, as in the paper's protocol.
        let Ok((vit_pool, vit_labels)) = select_correctly_classified(
            vit.model.as_ref(),
            &eval.images,
            &eval.labels,
            eval.labels.len(),
        ) else {
            continue;
        };
        // Prefer samples both members classify correctly; if the BiT member
        // gets none of the ViT pool right, fall back to the ViT pool.
        let (samples, labels) = match select_correctly_classified(
            bit.model.as_ref(),
            &vit_pool,
            &vit_labels,
            config.attack_samples,
        ) {
            Ok(selected) => selected,
            Err(_) => {
                let take = vit_labels.len().min(config.attack_samples);
                (
                    vit_pool.narrow(0, 0, take).expect("pool subset"),
                    vit_labels[..take].to_vec(),
                )
            }
        };

        let clear_vit = ClearWhiteBox::new(Arc::clone(&vit.model));
        let clear_bit = ClearWhiteBox::new(Arc::clone(&bit.model));
        let shielded_vit =
            ShieldedWhiteBox::with_default_enclave(Arc::clone(&vit.model)).expect("enclave");
        let shielded_bit =
            ShieldedWhiteBox::with_default_enclave(Arc::clone(&bit.model)).expect("enclave");

        // Random-uniform baseline samples (attack on pixels only).
        let mut rng = seeds.derive(&format!("table4.random.{}", spec.paper_name()));
        let random_samples = random
            .run(&clear_vit, &samples, &labels, &mut rng)
            .expect("random baseline");

        let settings: [(&str, SagaTarget<'_>); 4] = [
            (
                "none",
                SagaTarget {
                    vit: &clear_vit,
                    cnn: &clear_bit,
                },
            ),
            (
                "vit",
                SagaTarget {
                    vit: &shielded_vit,
                    cnn: &clear_bit,
                },
            ),
            (
                "bit",
                SagaTarget {
                    vit: &clear_vit,
                    cnn: &shielded_bit,
                },
            ),
            (
                "both",
                SagaTarget {
                    vit: &shielded_vit,
                    cnn: &shielded_bit,
                },
            ),
        ];
        let mut per_setting: Vec<Tensor> = Vec::with_capacity(4);
        for (name, target) in &settings {
            let mut rng = seeds.derive(&format!("table4.saga.{}.{}", spec.paper_name(), name));
            let adversarial = saga
                .run_ensemble(target, &samples, &labels, &mut rng)
                .expect("SAGA run");
            per_setting.push(adversarial);
        }

        // Evaluate members and the random-selection ensemble on each set.
        let member_rows: Vec<(&str, &dyn GradientOracle, f32)> = vec![
            (
                "ViT-L/16",
                &clear_vit as &dyn GradientOracle,
                vit.clean_accuracy,
            ),
            (
                bit.label.as_str(),
                &clear_bit as &dyn GradientOracle,
                bit.clean_accuracy,
            ),
        ];
        for (model_name, oracle, clean) in member_rows {
            let random_acc = member_robust(oracle, &random_samples, &labels);
            let per: Vec<f32> = per_setting
                .iter()
                .map(|adv| member_robust(oracle, adv, &labels))
                .collect();
            report.rows.push(Table4Row {
                dataset: spec.paper_name().to_string(),
                model: model_name.to_string(),
                clean,
                random_baseline: random_acc,
                shield_none: per[0],
                shield_vit_only: per[1],
                shield_bit_only: per[2],
                shield_both: per[3],
            });
        }

        // Ensemble row: random-selection policy between the two members.
        let ensemble_eval = |adv: &Tensor, rng: &mut rand_chacha::ChaCha8Rng| -> f32 {
            let vit_preds = predict(vit.model.as_ref(), adv).expect("vit predictions");
            let bit_preds = predict(bit.model.as_ref(), adv).expect("bit predictions");
            let mut correct = 0usize;
            for (i, &label) in labels.iter().enumerate() {
                let pick: bool = rand::Rng::gen_bool(rng, 0.5);
                let pred = if pick { vit_preds[i] } else { bit_preds[i] };
                if pred == label {
                    correct += 1;
                }
            }
            correct as f32 / labels.len() as f32
        };
        let ensemble_clean = ensemble_eval(&samples, ensemble_rng);
        let ensemble_random = ensemble_eval(&random_samples, ensemble_rng);
        let ensemble_per: Vec<f32> = per_setting
            .iter()
            .map(|adv| ensemble_eval(adv, ensemble_rng))
            .collect();
        report.rows.push(Table4Row {
            dataset: spec.paper_name().to_string(),
            model: "Ensemble".to_string(),
            clean: ensemble_clean,
            random_baseline: ensemble_random,
            shield_none: ensemble_per[0],
            shield_vit_only: ensemble_per[1],
            shield_bit_only: ensemble_per[2],
            shield_both: ensemble_per[3],
        });
    }
    report
}

// ---------------------------------------------------------------------------
// Figure 3 — attack trajectories
// ---------------------------------------------------------------------------

/// One recorded point of an attack trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryPoint {
    /// Iteration index.
    pub step: usize,
    /// Loss value at this iterate.
    pub loss: f32,
    /// L∞ distance from the clean sample.
    pub linf: f32,
}

/// The Figure 3 report: loss-ascent trajectories of FGSM, PGD and MIM on one
/// correctly classified sample, inside the ε-ball.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Figure3Report {
    /// Per-attack trajectories.
    pub trajectories: Vec<(String, Vec<TrajectoryPoint>)>,
    /// ε budget used.
    pub epsilon: f32,
    /// Whether each attack ended in a misclassification.
    pub successes: Vec<(String, bool)>,
}

impl Figure3Report {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure 3 — maximum-allowable attack trajectories (epsilon = {:.3})\n",
            self.epsilon
        );
        for (attack, points) in &self.trajectories {
            let success = self
                .successes
                .iter()
                .find(|(a, _)| a == attack)
                .map(|(_, s)| *s)
                .unwrap_or(false);
            out.push_str(&format!(
                "\n{attack} ({}):\n",
                if success {
                    "adversarial example found"
                } else {
                    "stayed correctly classified"
                }
            ));
            let mut table = TextTable::new(vec!["step", "loss", "L-inf distance"]);
            for p in points {
                table.push_row(vec![
                    p.step.to_string(),
                    format!("{:.4}", p.loss),
                    format!("{:.4}", p.linf),
                ]);
            }
            out.push_str(&table.render());
        }
        out
    }
}

/// Regenerates Figure 3 on a ViT-B/16 defender and one CIFAR-10-like sample.
pub fn figure3(config: &ExperimentConfig) -> Figure3Report {
    let spec = DatasetSpec::Cifar10Like;
    let params = AttackSuiteParams::table2(spec).scaled(config.epsilon_scale);
    let dataset = config.dataset(spec);
    let defenders = build_defenders(spec, config, Some(&["ViT-B/16"]));
    let defender = &defenders[0];
    let eval = dataset.test_subset(config.test_samples);
    let (samples, labels) =
        select_correctly_classified(defender.model.as_ref(), &eval.images, &eval.labels, 1)
            .expect("at least one correctly classified sample");
    let oracle = ClearWhiteBox::new(Arc::clone(&defender.model));
    let steps = config.attack_steps.max(3);
    let step_size = params.epsilon * 2.0 / steps as f32;

    let mut report = Figure3Report {
        epsilon: params.epsilon,
        ..Default::default()
    };

    for attack_name in ["FGSM", "PGD", "MIM"] {
        let mut current = samples.clone();
        let mut velocity = Tensor::zeros(samples.dims());
        let mut points = Vec::new();
        let total_steps = if attack_name == "FGSM" { 1 } else { steps };
        for step in 0..=total_steps {
            let probe = oracle
                .probe(&current, &labels, AttackLoss::CrossEntropy)
                .expect("probe");
            points.push(TrajectoryPoint {
                step,
                loss: probe.loss,
                linf: current.sub(&samples).expect("same shape").linf_norm(),
            });
            if step == total_steps {
                break;
            }
            let grad = probe.input_gradient.expect("clear oracle");
            let update = match attack_name {
                "FGSM" => grad.sign().mul_scalar(params.epsilon),
                "PGD" => grad.sign().mul_scalar(step_size),
                _ => {
                    let l1 = grad.l1_norm().max(1e-12);
                    velocity = velocity
                        .mul_scalar(params.mim_decay)
                        .add(&grad.mul_scalar(1.0 / l1))
                        .expect("same shape");
                    velocity.sign().mul_scalar(step_size)
                }
            };
            let candidate = current.add(&update).expect("same shape");
            let upper = samples.add_scalar(params.epsilon);
            let lower = samples.add_scalar(-params.epsilon);
            current = candidate
                .minimum(&upper)
                .and_then(|t| t.maximum(&lower))
                .expect("projection")
                .clamp(0.0, 1.0);
        }
        let prediction = predict(defender.model.as_ref(), &current).expect("prediction");
        report
            .successes
            .push((attack_name.to_string(), prediction[0] != labels[0]));
        report.trajectories.push((attack_name.to_string(), points));
    }
    report
}

// ---------------------------------------------------------------------------
// Figure 4 — qualitative SAGA outcome per shielding setting
// ---------------------------------------------------------------------------

/// One shielding setting's qualitative outcome on a single sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure4Row {
    /// Shielding setting ("No shield", "BiT only", "ViT only", "Both").
    pub setting: String,
    /// Whether SAGA produced a misclassification (by the random-selection
    /// ensemble).
    pub attack_succeeded: bool,
    /// L∞ norm of the perturbation.
    pub perturbation_linf: f32,
    /// L2 norm of the perturbation.
    pub perturbation_l2: f32,
    /// The ensemble's predicted class on the perturbed sample.
    pub predicted_class: usize,
}

/// The Figure 4 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Figure4Report {
    /// The true class of the attacked sample.
    pub true_class: usize,
    /// One row per shielding setting.
    pub rows: Vec<Figure4Row>,
}

impl Figure4Report {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure 4 — SAGA on one correctly classified sample (true class {})\n",
            self.true_class
        );
        let mut table = TextTable::new(vec![
            "Shielding",
            "Attack result",
            "Predicted class",
            "Perturbation L-inf",
            "Perturbation L2",
        ]);
        for row in &self.rows {
            table.push_row(vec![
                row.setting.clone(),
                if row.attack_succeeded {
                    "success".to_string()
                } else {
                    "failure".to_string()
                },
                row.predicted_class.to_string(),
                format!("{:.4}", row.perturbation_linf),
                format!("{:.4}", row.perturbation_l2),
            ]);
        }
        out.push_str(&table.render());
        out
    }
}

/// Regenerates Figure 4 on the CIFAR-10-like ensemble.
pub fn figure4(config: &ExperimentConfig) -> Figure4Report {
    let spec = DatasetSpec::Cifar10Like;
    let params = AttackSuiteParams::table2(spec).scaled(config.epsilon_scale);
    let mut saga_params = params.saga;
    saga_params.steps = config.attack_steps;
    saga_params.step = params.epsilon * 2.0 / config.attack_steps as f32;
    let saga = Saga::new(saga_params, params.epsilon).expect("valid SAGA params");

    let dataset = config.dataset(spec);
    let (vit, bit) = train_ensemble_members(spec, config);
    let eval = dataset.test_subset(config.test_samples);
    let (vit_pool, vit_labels) = select_correctly_classified(
        vit.model.as_ref(),
        &eval.images,
        &eval.labels,
        eval.labels.len(),
    )
    .expect("correctly classified pool");
    let (sample, label) =
        match select_correctly_classified(bit.model.as_ref(), &vit_pool, &vit_labels, 1) {
            Ok(selected) => selected,
            Err(_) => (
                vit_pool.narrow(0, 0, 1).expect("pool subset"),
                vit_labels[..1].to_vec(),
            ),
        };

    let clear_vit = ClearWhiteBox::new(Arc::clone(&vit.model));
    let clear_bit = ClearWhiteBox::new(Arc::clone(&bit.model));
    let shielded_vit =
        ShieldedWhiteBox::with_default_enclave(Arc::clone(&vit.model)).expect("enclave");
    let shielded_bit =
        ShieldedWhiteBox::with_default_enclave(Arc::clone(&bit.model)).expect("enclave");

    let settings: [(&str, SagaTarget<'_>); 4] = [
        (
            "No shield",
            SagaTarget {
                vit: &clear_vit,
                cnn: &clear_bit,
            },
        ),
        (
            "BiT only",
            SagaTarget {
                vit: &clear_vit,
                cnn: &shielded_bit,
            },
        ),
        (
            "ViT only",
            SagaTarget {
                vit: &shielded_vit,
                cnn: &clear_bit,
            },
        ),
        (
            "Both",
            SagaTarget {
                vit: &shielded_vit,
                cnn: &shielded_bit,
            },
        ),
    ];

    let mut seeds = SeedStream::new(config.seed);
    let mut report = Figure4Report {
        true_class: label[0],
        ..Default::default()
    };
    for (name, target) in &settings {
        let mut rng = seeds.derive(&format!("figure4.{name}"));
        let adversarial = saga
            .run_ensemble(target, &sample, &label, &mut rng)
            .expect("SAGA run");
        let delta = adversarial.sub(&sample).expect("same shape");
        // Random-selection policy on one sample: evaluate both members; the
        // attack "succeeds" only if it fools the member the policy picks — we
        // report the stricter joint criterion (fools both) as success, as a
        // single sample cannot express the policy's expectation.
        let vit_pred = predict(vit.model.as_ref(), &adversarial).expect("vit prediction")[0];
        let bit_pred = predict(bit.model.as_ref(), &adversarial).expect("bit prediction")[0];
        let succeeded = vit_pred != label[0] && bit_pred != label[0];
        report.rows.push(Figure4Row {
            setting: name.to_string(),
            attack_succeeded: succeeded,
            perturbation_linf: delta.linf_norm(),
            perturbation_l2: delta.l2_norm(),
            predicted_class: if vit_pred != label[0] {
                vit_pred
            } else {
                bit_pred
            },
        });
    }
    report
}

// ---------------------------------------------------------------------------
// Section VI — system implications
// ---------------------------------------------------------------------------

/// The §VI overhead measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct OverheadReport {
    /// World switches per shielded inference.
    pub inference_world_switches: u64,
    /// Secure-channel bytes per shielded inference.
    pub inference_channel_bytes: u64,
    /// Simulated enclave latency per shielded inference (milliseconds).
    pub inference_ms: f64,
    /// World switches per shielded backward probe (the training-time case).
    pub probe_world_switches: u64,
    /// Secure-channel bytes per shielded backward probe.
    pub probe_channel_bytes: u64,
    /// Simulated enclave latency per shielded probe (milliseconds).
    pub probe_ms: f64,
    /// Enclave bytes held by one shielded pass (worst case, no flush).
    pub shield_bytes: usize,
    /// Upload bytes of one federated round (all clients), from
    /// `RoundRecord::upload_bytes`: every update at its Raw codec size,
    /// unsealed tensors rather than sealed blobs when updates are shielded.
    /// `RunHistory::total_wire_bytes` counts the traffic as shipped.
    pub fl_round_upload_bytes: usize,
    /// Final global accuracy of the miniature federated run.
    pub fl_final_accuracy: f32,
}

impl OverheadReport {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out = String::from("Section VI — system implications (simulated TEE cost model)\n");
        let mut table = TextTable::new(vec!["Quantity", "Value"]);
        table.push_row(vec![
            "World switches / shielded inference".to_string(),
            self.inference_world_switches.to_string(),
        ]);
        table.push_row(vec![
            "Secure-channel bytes / shielded inference".to_string(),
            self.inference_channel_bytes.to_string(),
        ]);
        table.push_row(vec![
            "Simulated latency / shielded inference".to_string(),
            format!("{:.3} ms", self.inference_ms),
        ]);
        table.push_row(vec![
            "World switches / shielded backward probe".to_string(),
            self.probe_world_switches.to_string(),
        ]);
        table.push_row(vec![
            "Secure-channel bytes / shielded backward probe".to_string(),
            self.probe_channel_bytes.to_string(),
        ]);
        table.push_row(vec![
            "Simulated latency / shielded backward probe".to_string(),
            format!("{:.3} ms", self.probe_ms),
        ]);
        table.push_row(vec![
            "Enclave bytes per shielded pass (worst case)".to_string(),
            self.shield_bytes.to_string(),
        ]);
        table.push_row(vec![
            "FL upload bytes per round (all clients)".to_string(),
            self.fl_round_upload_bytes.to_string(),
        ]);
        table.push_row(vec![
            "FL final global accuracy".to_string(),
            format_percent(self.fl_final_accuracy),
        ]);
        out.push_str(&table.render());
        out
    }
}

/// Regenerates the §VI overhead study.
pub fn system_overhead(config: &ExperimentConfig) -> OverheadReport {
    let spec = DatasetSpec::Cifar10Like;
    let dataset = config.dataset(spec);
    let defenders = build_defenders(spec, config, Some(&["ViT-B/16"]));
    let defender = &defenders[0];
    let eval = dataset.test_subset(1);

    let shielded = ShieldedWhiteBox::with_default_enclave(Arc::clone(&defender.model))
        .expect("default enclave");

    // Inference-only crossing (deployment case of §VI).
    shielded.logits(&eval.images).expect("shielded inference");
    let inference = shielded.cost_ledger();

    // Backward probe (training / gradient-producing case of §VI).
    shielded.enclave().reset_ledger();
    shielded
        .probe(&eval.images, &eval.labels, AttackLoss::CrossEntropy)
        .expect("shielded probe");
    let probe = shielded.cost_ledger();
    let shield_bytes = shielded.last_shield_report().total_bytes();

    // A miniature federated run for the bandwidth half of §VI.
    let mut seeds = SeedStream::new(config.seed);
    let mut federation = Federation::vit_federation(
        &dataset,
        &FederationConfig {
            clients: 2,
            rounds: 1,
            local_training: TrainingConfig {
                epochs: 1,
                batch_size: 16,
                learning_rate: 0.02,
                momentum: 0.9,
            },
            eval_samples: config.test_samples,
            // The §VI bandwidth accounting runs the real wire path: shielded
            // segments sealed through the attested enclave channel, messages
            // forced through the serialised transport.
            transport: pelta_fl::TransportKind::Serialized,
            shield_updates: true,
            ..FederationConfig::default()
        },
        Partition::Iid,
        &mut seeds,
    )
    .expect("federation");
    let history = federation.run(&mut seeds).expect("federated round");

    OverheadReport {
        inference_world_switches: inference.world_switches,
        inference_channel_bytes: inference.channel_bytes,
        inference_ms: inference.total_ms(),
        probe_world_switches: probe.world_switches,
        probe_channel_bytes: probe.channel_bytes,
        probe_ms: probe.total_ms(),
        shield_bytes,
        fl_round_upload_bytes: history.rounds.first().map(|r| r.upload_bytes).unwrap_or(0),
        fl_final_accuracy: history.final_accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_config() -> ExperimentConfig {
        ExperimentConfig {
            seed: 3,
            train_samples: 20,
            test_samples: 12,
            train_epochs: 1,
            attack_samples: 2,
            attack_steps: 2,
            epsilon_scale: 2.0,
        }
    }

    #[test]
    #[cfg_attr(
        not(feature = "slow-tests"),
        ignore = "heavy reproduction test; enable with --features slow-tests"
    )]
    fn table1_report_has_four_paper_rows_and_renders() {
        let report = table1(&smoke_config());
        assert_eq!(report.rows.len(), 4);
        assert_eq!(report.scaled_measurements.len(), 3);
        let rendered = report.render();
        assert!(rendered.contains("ViT-L/16"));
        assert!(rendered.contains("BiT-M-R152x4"));
    }

    #[test]
    fn table2_lists_all_attacks_for_all_datasets() {
        let rendered = table2(&smoke_config());
        for needle in ["CIFAR-10", "CIFAR-100", "ImageNet", "FGSM", "SAGA", "APGD"] {
            assert!(rendered.contains(needle), "missing {needle}");
        }
    }

    #[test]
    #[cfg_attr(
        not(feature = "slow-tests"),
        ignore = "heavy reproduction test; enable with --features slow-tests"
    )]
    fn table3_smoke_on_one_dataset_and_reduced_lineup() {
        // Full Table III is exercised by the repro binary; the unit test uses
        // one dataset to keep the suite fast, with the full attack suite.
        let report = table3(&smoke_config(), Some(&[DatasetSpec::Cifar10Like]));
        assert!(!report.clean_accuracy.is_empty());
        assert!(!report.cells.is_empty());
        for cell in &report.cells {
            assert!((0.0..=1.0).contains(&cell.clear_robust));
            assert!((0.0..=1.0).contains(&cell.shielded_robust));
        }
        let rendered = report.render();
        assert!(rendered.contains("CIFAR-10"));
        assert!(rendered.contains("PGD"));
        let _ = report.mean_shield_gain();
    }

    #[test]
    #[cfg_attr(
        not(feature = "slow-tests"),
        ignore = "heavy reproduction test; enable with --features slow-tests"
    )]
    fn figure3_records_monotone_ball_distances() {
        let report = figure3(&smoke_config());
        assert_eq!(report.trajectories.len(), 3);
        for (attack, points) in &report.trajectories {
            assert!(!points.is_empty(), "{attack} recorded no points");
            // Distances never exceed the ε budget.
            for p in points {
                assert!(p.linf <= report.epsilon + 1e-5);
            }
        }
        assert!(report.render().contains("FGSM"));
    }

    #[test]
    #[cfg_attr(
        not(feature = "slow-tests"),
        ignore = "heavy reproduction test; enable with --features slow-tests"
    )]
    fn overhead_report_counts_enclave_interactions() {
        let report = system_overhead(&smoke_config());
        assert!(report.inference_world_switches >= 2);
        assert!(report.probe_world_switches >= 2);
        assert!(report.probe_channel_bytes > 0);
        assert!(report.shield_bytes > 0);
        assert!(report.fl_round_upload_bytes > 0);
        assert!(report.render().contains("World switches"));
    }
}
