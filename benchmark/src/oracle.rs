//! A gradient oracle that watches the real one it wraps.
//!
//! `attack_pgd` hands the attack an [`ObservedOracle`] around the real
//! `ClearWhiteBox` / `ShieldedWhiteBox`, so every probe the attack makes is
//! checked where it happens: the probed batch must lie inside the ε-ball
//! around the clean images, and a shielded probe must never expose `∇ₓL`.
//! With an enabled tracer the wrapper also times each call in place and
//! reads the enclave's cost-ledger deltas around it.

use std::sync::Mutex;

use pelta_core::{AttackLoss, BackwardProbe, GradientOracle, Result, ShieldedWhiteBox};
use pelta_models::Architecture;
use pelta_tensor::Tensor;

use crate::trace::Tracer;

/// What the wrapper saw during one attack.
#[derive(Debug, Default, Clone)]
pub struct Observations {
    /// Backward probes served.
    pub probes: usize,
    /// World switches the enclave recorded during probes.
    pub world_switches: u64,
    /// Secure-channel bytes the enclave recorded during probes.
    pub channel_bytes: u64,
    /// Enclave bytes the shield stored, summed over probes.
    pub enclave_bytes: usize,
    /// Contract violations, one line each.
    pub violations: Vec<String>,
    /// FNV-1a hash of the last batch classified through `logits` — the
    /// adversarial examples `robust_accuracy` scores.
    pub final_batch_hash: Option<u64>,
}

/// FNV-1a over the bit patterns of `values`.
pub fn bits_hash<'a>(values: impl IntoIterator<Item = &'a f32>) -> u64 {
    values
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |hash, value| {
            (hash ^ u64::from(value.to_bits())).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Wraps a real oracle for one attack on `clean` with budget `epsilon`.
pub struct ObservedOracle<'a> {
    inner: &'a dyn GradientOracle,
    /// The same oracle as `inner` when it is the shielded one, for its
    /// cost ledger and shield report.
    shielded: Option<&'a ShieldedWhiteBox>,
    clean: &'a Tensor,
    epsilon: f32,
    tracer: &'a Tracer,
    seen: Mutex<Observations>,
}

impl<'a> ObservedOracle<'a> {
    /// Observes the undefended oracle.
    pub fn clear(
        inner: &'a dyn GradientOracle,
        clean: &'a Tensor,
        epsilon: f32,
        tracer: &'a Tracer,
    ) -> Self {
        Self::new(inner, None, clean, epsilon, tracer)
    }

    /// Observes the shielded oracle.
    pub fn shielded(
        inner: &'a ShieldedWhiteBox,
        clean: &'a Tensor,
        epsilon: f32,
        tracer: &'a Tracer,
    ) -> Self {
        Self::new(inner, Some(inner), clean, epsilon, tracer)
    }

    fn new(
        inner: &'a dyn GradientOracle,
        shielded: Option<&'a ShieldedWhiteBox>,
        clean: &'a Tensor,
        epsilon: f32,
        tracer: &'a Tracer,
    ) -> Self {
        ObservedOracle {
            inner,
            shielded,
            clean,
            epsilon,
            tracer,
            seen: Mutex::new(Observations::default()),
        }
    }

    /// Everything observed so far.
    pub fn observations(&self) -> Observations {
        self.seen().clone()
    }

    fn seen(&self) -> std::sync::MutexGuard<'_, Observations> {
        self.seen
            .lock()
            .expect("an oracle call panicked while recording")
    }

    /// Records a violation if `images` leaves the ε-ball around the clean
    /// batch (with one ulp-scale tolerance for the projection's rounding).
    fn check_budget(&self, images: &Tensor, call: &str) -> Result<()> {
        let distance = images.sub(self.clean)?.linf_norm();
        if distance.is_nan() || distance > self.epsilon + 1e-6 {
            self.seen().violations.push(format!(
                "{call} on {}: L∞ distance {distance} exceeds ε = {}",
                self.inner.name(),
                self.epsilon
            ));
        }
        Ok(())
    }
}

impl GradientOracle for ObservedOracle<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn architecture(&self) -> Architecture {
        self.inner.architecture()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn input_shape(&self) -> [usize; 3] {
        self.inner.input_shape()
    }

    fn is_shielded(&self) -> bool {
        self.inner.is_shielded()
    }

    fn logits(&self, images: &Tensor) -> Result<Tensor> {
        self.check_budget(images, "logits")?;
        let logits = self
            .tracer
            .time("core.logits", || self.inner.logits(images))?;
        self.seen().final_batch_hash = Some(bits_hash(images.data()));
        Ok(logits)
    }

    fn probe(&self, images: &Tensor, labels: &[usize], loss: AttackLoss) -> Result<BackwardProbe> {
        self.check_budget(images, "probe")?;
        let before = self.shielded.map(ShieldedWhiteBox::cost_ledger);
        let name = if self.shielded.is_some() {
            "core.probe.shielded"
        } else {
            "core.probe.clear"
        };
        let probe = self
            .tracer
            .time(name, || self.inner.probe(images, labels, loss))?;
        let mut seen = self.seen();
        seen.probes += 1;
        if let (Some(oracle), Some(before)) = (self.shielded, before) {
            let after = oracle.cost_ledger();
            seen.world_switches += after.world_switches - before.world_switches;
            seen.channel_bytes += after.channel_bytes - before.channel_bytes;
            seen.enclave_bytes += oracle.last_shield_report().total_bytes();
        }
        if probe.input_gradient.is_some() == self.inner.is_shielded() {
            seen.violations.push(format!(
                "{} returned an input gradient: {}",
                self.inner.name(),
                probe.input_gradient.is_some()
            ));
        }
        Ok(probe)
    }
}
