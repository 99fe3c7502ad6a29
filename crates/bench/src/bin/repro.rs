//! `repro` — regenerates the tables and figures of the Pelta paper on the
//! scaled reproduction stack.
//!
//! ```text
//! Usage: repro [OPTIONS]
//!
//!   --table 1|2|3|4        regenerate one table
//!   --figure 3|4           regenerate one figure
//!   --system               regenerate the §VI overhead study
//!   --all                  regenerate everything (default)
//!   --dataset NAME         restrict Table III/IV to cifar10 | cifar100 | imagenet
//!   --samples N            attacked samples per cell            [default: 6]
//!   --steps N              iterative attack steps               [default: 6]
//!   --train-samples N      training samples per dataset         [default: 64]
//!   --epochs N             training epochs per defender         [default: 2]
//!   --eps-scale X          scale applied to every Table II ε    [default: 2.0]
//!   --seed N               master seed                          [default: 42]
//! ```

use pelta_bench::{
    ablation_enclave_budget, ablation_prior_fidelity, ablation_software_stack,
    ablation_substitute_budget, backdoor_defense, figure3, figure4, system_overhead, table1,
    table2, table3, table4, ExperimentConfig,
};
use pelta_data::DatasetSpec;

#[derive(Debug, Default)]
struct Cli {
    table: Option<u32>,
    figure: Option<u32>,
    system: bool,
    all: bool,
    ablation: Option<String>,
    dataset: Option<DatasetSpec>,
    config: ExperimentConfig,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        config: ExperimentConfig::default(),
        ..Default::default()
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0usize;
    let mut any_selection = false;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag {
            "--table" => {
                cli.table = Some(select(&value(&mut i)?, "table", &TABLES)?);
                any_selection = true;
            }
            "--figure" => {
                cli.figure = Some(select(&value(&mut i)?, "figure", &FIGURES)?);
                any_selection = true;
            }
            "--system" => {
                cli.system = true;
                any_selection = true;
            }
            "--ablation" => {
                let name = value(&mut i)?.to_lowercase();
                if name != "all" && !ABLATIONS.contains(&name.as_str()) {
                    return Err(format!("no such ablation: {name}"));
                }
                cli.ablation = Some(name);
                any_selection = true;
            }
            "--all" => {
                cli.all = true;
                any_selection = true;
            }
            "--dataset" => {
                cli.dataset = Some(match value(&mut i)?.to_lowercase().as_str() {
                    "cifar10" | "cifar-10" => DatasetSpec::Cifar10Like,
                    "cifar100" | "cifar-100" => DatasetSpec::Cifar100Like,
                    "imagenet" => DatasetSpec::ImageNetLike,
                    other => return Err(format!("unknown dataset '{other}'")),
                });
            }
            "--samples" => {
                cli.config.attack_samples = value(&mut i)?
                    .parse()
                    .map_err(|_| "bad --samples".to_string())?;
            }
            "--steps" => {
                cli.config.attack_steps = value(&mut i)?
                    .parse()
                    .map_err(|_| "bad --steps".to_string())?;
            }
            "--train-samples" => {
                cli.config.train_samples = value(&mut i)?
                    .parse()
                    .map_err(|_| "bad --train-samples".to_string())?;
            }
            "--epochs" => {
                cli.config.train_epochs = value(&mut i)?
                    .parse()
                    .map_err(|_| "bad --epochs".to_string())?;
            }
            "--eps-scale" => {
                cli.config.epsilon_scale = value(&mut i)?
                    .parse()
                    .map_err(|_| "bad --eps-scale".to_string())?;
            }
            "--seed" => {
                cli.config.seed = value(&mut i)?
                    .parse()
                    .map_err(|_| "bad --seed".to_string())?;
            }
            "--help" | "-h" => {
                println!("{}", HELP);
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}' (see --help)")),
        }
        i += 1;
    }
    if !any_selection {
        cli.all = true;
    }
    Ok(cli)
}

/// The selections `parse_args` admits; anything else exits with status 2
/// before any work runs.
const TABLES: [u32; 4] = [1, 2, 3, 4];
const FIGURES: [u32; 2] = [3, 4];
const ABLATIONS: [&str; 5] = ["prior", "substitute", "software", "enclave", "backdoor"];

/// Parses a numbered `what` selection, rejecting numbers outside `valid`.
fn select(value: &str, what: &str, valid: &[u32]) -> Result<u32, String> {
    match value.parse() {
        Ok(n) if valid.contains(&n) => Ok(n),
        Ok(_) => Err(format!("no such {what}: {value}")),
        Err(_) => Err(format!("bad --{what}")),
    }
}

const HELP: &str = "repro — regenerate the Pelta paper's tables and figures\n\
  --table 1|2|3|4    --figure 3|4    --system    --all\n\
  --ablation prior|substitute|software|enclave|backdoor|all\n\
  --dataset cifar10|cifar100|imagenet\n\
  --samples N  --steps N  --train-samples N  --epochs N  --eps-scale X  --seed N";

fn main() {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("error: {message}\n{HELP}");
            std::process::exit(2);
        }
    };
    let datasets: Option<Vec<DatasetSpec>> = cli.dataset.map(|d| vec![d]);
    let dataset_slice = datasets.as_deref();

    // Selections are validated in `parse_args`, so each match below ends
    // on its last admitted value.
    let run_table = |n: u32| match n {
        1 => println!("{}", table1(&cli.config).render()),
        2 => println!("{}", table2(&cli.config)),
        3 => println!("{}", table3(&cli.config, dataset_slice).render()),
        _ => println!("{}", table4(&cli.config, dataset_slice).render()),
    };
    let run_figure = |n: u32| match n {
        3 => println!("{}", figure3(&cli.config).render()),
        _ => println!("{}", figure4(&cli.config).render()),
    };
    let run_ablation = |name: &str| {
        let names: &[&str] = if name == "all" { &ABLATIONS } else { &[name] };
        for &name in names {
            match name {
                "prior" => println!("{}", ablation_prior_fidelity(&cli.config).render()),
                "substitute" => println!("{}", ablation_substitute_budget(&cli.config).render()),
                "software" => println!("{}", ablation_software_stack(&cli.config).render()),
                "enclave" => println!("{}", ablation_enclave_budget(&cli.config).render()),
                _ => println!("{}", backdoor_defense(&cli.config).render()),
            }
        }
    };

    println!(
        "pelta repro (seed {}, {} attack samples, {} attack steps, eps scale {:.1})\n",
        cli.config.seed,
        cli.config.attack_samples,
        cli.config.attack_steps,
        cli.config.epsilon_scale
    );

    if cli.all {
        run_table(1);
        run_table(2);
        run_table(3);
        run_table(4);
        run_figure(3);
        run_figure(4);
        println!("{}", system_overhead(&cli.config).render());
        return;
    }
    if let Some(n) = cli.table {
        run_table(n);
    }
    if let Some(n) = cli.figure {
        run_figure(n);
    }
    if let Some(name) = cli.ablation.as_deref() {
        run_ablation(name);
    }
    if cli.system {
        println!("{}", system_overhead(&cli.config).render());
    }
}
