//! # pelta-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! Pelta paper on the scaled substitution stack (see `DESIGN.md`):
//!
//! * [`table1`] — enclave memory cost and shielded model portion
//!   (paper-scale analytic accounting + measured scaled models);
//! * [`table2`] — attack hyper-parameters per dataset;
//! * [`table3`] — robust accuracy of individual defenders, clear vs
//!   shielded, against FGSM / PGD / MIM / C&W / APGD;
//! * [`table4`] — robust accuracy of the ViT + BiT ensemble against SAGA
//!   under the four shielding settings;
//! * [`figure3`] — the loss-ascent trajectories of the maximum-allowable
//!   attacks on one sample;
//! * [`figure4`] — the qualitative SAGA outcome per shielding setting on one
//!   sample;
//! * [`system_overhead`] — the §VI system-implications measurements (world
//!   switches, secure-channel bytes, simulated latency, FL upload bandwidth).
//!
//! Beyond the published tables, the ablation studies quantify the design
//! decisions and future-work extensions the paper discusses:
//!
//! * [`ablation_prior_fidelity`] — the §VII embedding-prior attacker;
//! * [`ablation_substitute_budget`] — the §IV-C BPDA substitute-training
//!   attacker as a function of its training budget;
//! * [`ablation_software_stack`] — Pelta combined with software defenses;
//! * [`ablation_enclave_budget`] — secure-memory feasibility sweep;
//! * [`backdoor_defense`] — the §I poisoning scenario against robust
//!   aggregation rules;
//! * [`run_chaos`] — the fault-injection churn soak: hundreds of rounds of
//!   scripted crashes, drops, duplicates, corruption and partitions per
//!   topology, replayed bit-identically (long tier behind `slow-tests`);
//! * [`run_secure_agg`] — the secure-aggregation probe: one shielded
//!   federation with a scripted mid-round dropout, pairwise masking on or
//!   off, backing the `secure_agg` block of `BENCH_federation.json`.
//!
//! The `repro` binary prints any of these as text tables; the Criterion
//! benches in `benches/` time the code paths behind each experiment. The
//! `perf` binary writes `BENCH_kernels.json` and `BENCH_federation.json`:
//! every federation probe in it except the population fold is a
//! `ScenarioSpec` run through `Federation::run`, and both snapshots are
//! typed structs written and read back with `serde_json`.
//!
//! Every probe asserts the bit-replay contract it measures (determinism
//! fields must be exactly 0) — see `docs/determinism.md`. A run's final
//! global model is a [`ModelBits`], and [`ModelBits::diffs`] is the one
//! bit-diff every determinism field counts with.

#![deny(rustdoc::broken_intra_doc_links)]

mod ablations;
mod chaos;
mod defenders;
mod report;
mod secure;
mod tables;

pub use ablations::{
    ablation_enclave_budget, ablation_prior_fidelity, ablation_software_stack,
    ablation_substitute_budget, backdoor_defense, BackdoorReport, EnclaveBudgetReport,
    PriorFidelityReport, SoftwareStackReport, SubstituteBudgetReport,
};
pub use chaos::{
    chaos_fault_config, chaos_topologies, run_chaos, ChannelHead, ChaosRun, CHAOS_CLIENTS,
};
pub use defenders::{build_defenders, train_ensemble_members, ExperimentConfig, TrainedDefender};
pub use report::{format_percent, TextTable};
pub use secure::{run_secure_agg, SecureAggRun, ShieldedProbe, SECURE_AGG_CLIENTS};
pub use tables::{
    figure3, figure4, system_overhead, table1, table2, table3, table4, Figure3Report,
    Figure4Report, OverheadReport, Table1Report, Table3Cell, Table3Report, Table4Report, Table4Row,
};

use pelta_tensor::Tensor;

/// A global model as exact `f32` bit patterns, tensor by tensor: what the
/// replay-determinism fields of the probes compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelBits(Vec<(String, Vec<u32>)>);

impl ModelBits {
    /// Captures named parameters bit for bit.
    pub fn of(parameters: &[(String, Tensor)]) -> Self {
        ModelBits(
            parameters
                .iter()
                .map(|(name, tensor)| {
                    let bits = tensor.data().iter().map(|v| v.to_bits()).collect();
                    (name.clone(), bits)
                })
                .collect(),
        )
    }

    /// Number of bit patterns that differ from `other`, zero when the
    /// replay contract holds. An element one tensor has and its twin lacks
    /// counts as a difference, and so does a tensor one model has and the
    /// other lacks.
    pub fn diffs(&self, other: &ModelBits) -> usize {
        self.0
            .iter()
            .zip(&other.0)
            .map(|((_, a), (_, b))| {
                a.iter().zip(b).filter(|(x, y)| x != y).count() + a.len().abs_diff(b.len())
            })
            .sum::<usize>()
            + self.0.len().abs_diff(other.0.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(weights: &[f32]) -> ModelBits {
        let tensor = |data: &[f32]| Tensor::from_vec(data.to_vec(), &[data.len()]).unwrap();
        ModelBits::of(&[
            ("w".to_string(), tensor(weights)),
            ("b".to_string(), tensor(&[0.5])),
        ])
    }

    #[test]
    fn diffs_count_differing_bits() {
        let reference = model(&[1.0, 2.0, 3.0]);
        assert_eq!(reference.diffs(&reference.clone()), 0);
        assert_eq!(reference.diffs(&model(&[1.0, -2.0, 3.0])), 1);
        // +0.0 and -0.0 compare equal as floats but not as bits.
        assert_eq!(model(&[0.0]).diffs(&model(&[-0.0])), 1);
    }

    #[test]
    fn a_truncated_or_missing_tensor_is_a_difference() {
        let reference = model(&[1.0, 2.0, 3.0]);
        let truncated = model(&[1.0, 2.0]);
        assert_eq!(reference.diffs(&truncated), 1);
        assert_eq!(truncated.diffs(&reference), 1);
        let missing = ModelBits(reference.0[..1].to_vec());
        assert_eq!(reference.diffs(&missing), 1);
    }
}
