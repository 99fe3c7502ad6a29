//! The delivery sweep engine — the one owner of the sweep discipline
//! every delivery phase runs, in a round and between rounds (see
//! `docs/determinism.md` §3).
//!
//! A *sweep* is one tick of the fault plan's instant: [`run`] advances it
//! by one before every sweep of every phase, so a run never meets one
//! instant twice, and no phase chooses where its clock starts. A phase
//! numbers its own sweeps from 0 for what is relative to it — the latency
//! gate, the floor, the active-set rebuild at sweep 0 — and stops at
//! quiescence: the first sweep, at or past a floor, that delivered nothing
//! and left no traffic pending. Within a sweep, [`sweep_active`] (the links
//! that held traffic when the phase began) and [`sweep_every`] (every
//! listed link) poll in ascending link order with **one**
//! [`Transport::recv_checked`] per polled link, skip a link whose latency
//! has not yet passed, and answer a [`Delivery::Faulted`] frame with the
//! [`NackReason::CorruptFrame`] refusal that triggers the fault wrapper's
//! retransmission. Callers keep only their per-frame handling.

use std::collections::BTreeSet;
use std::ops::BitOrAssign;

use crate::{Delivery, FaultPlan, Message, NackReason, Result, Transport};

/// The most sweeps one scheduled delay may span: a seat's latency, a
/// reorder window, a partition window, or a retransmission budget. A sweep
/// phase ends only at quiescence, so each of these holds the round open for
/// up to that many sweeps; validation refuses anything larger, which would
/// keep [`crate::Federation::run`] sweeping for practically ever.
pub const MAX_DELAY_SWEEPS: usize = 1024;

/// What one delivery sweep did.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepOutcome {
    /// Whether any frame — intact or faulted — was delivered this sweep.
    pub delivered: bool,
    /// Whether a polled or latency-gated link still holds traffic for a
    /// later sweep.
    pub pending_future: bool,
}

impl BitOrAssign for SweepOutcome {
    fn bitor_assign(&mut self, other: SweepOutcome) {
        self.delivered |= other.delivered;
        self.pending_future |= other.pending_future;
    }
}

/// What a sweep hands its caller for one polled link.
pub(crate) enum Arrival {
    /// An intact frame.
    Frame(Message),
    /// A frame that arrived damaged and failed its checksum. A collecting
    /// state machine burns a straggler-deadline slot for it; the engine
    /// sends the refusal itself. A frame lost outright never arrives here —
    /// nothing was delivered.
    Damaged { sender: usize, round: usize },
}

/// The runtime-side link ends one sweep polls, numbered `0..count()`.
pub(crate) trait SweepLinks {
    /// How many links there are.
    fn count(&self) -> usize;

    /// Link `index`.
    fn link(&self, index: usize) -> &dyn Transport;

    /// How many sweeps link `index`'s traffic lags behind (its scheduled
    /// latency).
    fn latency(&self, _index: usize) -> usize {
        0
    }

    /// Who the `CorruptFrame` refusal of a faulted frame on link `index`
    /// goes to: by default the sender the frame claimed.
    fn refusal_addressee(&self, _index: usize, sender: usize) -> usize {
        sender
    }
}

/// Bare links with no latency schedule (the root's uplink ends).
impl SweepLinks for Vec<Box<dyn Transport>> {
    fn count(&self) -> usize {
        self.len()
    }

    fn link(&self, index: usize) -> &dyn Transport {
        self[index].as_ref()
    }
}

/// Runs the phase's sweeps `0, 1, …`, ticking the fault plan's instant
/// before each, until a sweep numbered at least `floor` delivers nothing
/// and leaves nothing pending.
pub(crate) fn run(
    faults: Option<&FaultPlan>,
    floor: usize,
    mut sweep_once: impl FnMut(usize) -> Result<SweepOutcome>,
) -> Result<()> {
    let mut sweep = 0;
    loop {
        if let Some(plan) = faults {
            plan.tick();
        }
        let outcome = sweep_once(sweep)?;
        if !outcome.delivered && !outcome.pending_future && sweep >= floor {
            return Ok(());
        }
        sweep += 1;
    }
}

/// One sweep over the *active* links: those holding traffic when the phase
/// began. `active` is rebuilt at sweep 0 — all of a phase's traffic is
/// queued by then, and responses flow the other way — and a link leaves it
/// once drained, so the set only shrinks and the visiting order stays
/// ascending.
pub(crate) fn sweep_active<L: SweepLinks + ?Sized>(
    links: &mut L,
    sweep: usize,
    active: &mut Option<BTreeSet<usize>>,
    handle: impl FnMut(&mut L, usize, Arrival) -> Result<()>,
) -> Result<SweepOutcome> {
    let mut set = match active.take() {
        Some(set) if sweep != 0 => set,
        _ => (0..links.count())
            .filter(|&index| links.link(index).has_pending())
            .collect(),
    };
    let (outcome, drained) = poll(links, sweep, set.iter().copied(), handle)?;
    for index in drained {
        set.remove(&index);
    }
    *active = Some(set);
    Ok(outcome)
}

/// One sweep over every listed link, drained or not; `listed` ascends.
pub(crate) fn sweep_every<L: SweepLinks + ?Sized>(
    links: &mut L,
    sweep: usize,
    listed: impl IntoIterator<Item = usize>,
    handle: impl FnMut(&mut L, usize, Arrival) -> Result<()>,
) -> Result<SweepOutcome> {
    poll(links, sweep, listed, handle).map(|(outcome, _)| outcome)
}

/// Polls `polled` (ascending) once each and returns what the sweep did plus
/// the links left with nothing pending.
fn poll<L: SweepLinks + ?Sized>(
    links: &mut L,
    sweep: usize,
    polled: impl IntoIterator<Item = usize>,
    mut handle: impl FnMut(&mut L, usize, Arrival) -> Result<()>,
) -> Result<(SweepOutcome, Vec<usize>)> {
    let mut outcome = SweepOutcome::default();
    let mut drained = Vec::new();
    for index in polled {
        if links.latency(index) > sweep {
            outcome.pending_future |= links.link(index).has_pending();
            continue;
        }
        match links.link(index).recv_checked()? {
            Delivery::Empty => {}
            Delivery::Frame(message) => {
                outcome.delivered = true;
                handle(links, index, Arrival::Frame(message))?;
            }
            Delivery::Faulted {
                sender,
                round,
                lost,
            } => {
                outcome.delivered = true;
                if !lost {
                    handle(links, index, Arrival::Damaged { sender, round })?;
                }
                links.link(index).send(&Message::Nack {
                    client_id: links.refusal_addressee(index, sender),
                    round,
                    reason: NackReason::CorruptFrame,
                })?;
            }
        }
        if links.link(index).has_pending() {
            // A fault wrapper may hold traffic (reorder, partition,
            // retransmission) for a later sweep.
            outcome.pending_future = true;
        } else {
            drained.push(index);
        }
    }
    Ok((outcome, drained))
}
