//! In-memory spans in the style of Dapper (Sigelman et al. 2010).
//!
//! A span is a named interval with a parent and an operation id; spans are
//! kept in memory while the traced pass runs and written out as JSON lines
//! at exit. A disabled tracer hands out inert guards that never read the
//! clock, so the same replay code can run untraced to measure the cost of
//! tracing itself.
//!
//! The traced pass is sequential: the parent of a new span is the innermost
//! span still open, whichever thread opens it. The state sits behind a mutex
//! only so the tracer can be shared with code that must be `Sync` (the
//! timing gradient oracle).

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

use serde::Value;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the process, in opening order.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `fl.transport`.
    pub name: &'static str,
    /// The operation (round or attack) the span belongs to.
    pub op: usize,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct State {
    op: usize,
    next_id: usize,
    open: Vec<usize>,
    spans: Vec<Span>,
}

/// Records spans in memory (see the module docs).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: Mutex<State>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    open: Option<(usize, Option<usize>, &'static str, u64)>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`, and does nothing
    /// otherwise.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a span closed while another thread panicked")
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans opened from now on with operation `op`.
    pub fn set_op(&self, op: usize) {
        self.state().op = op;
    }

    /// Opens a span, closed when the guard drops; it is a child of the
    /// innermost span still open.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                open: None,
            };
        }
        let mut state = self.state();
        let id = state.next_id;
        state.next_id += 1;
        let parent = state.open.last().copied();
        state.open.push(id);
        drop(state);
        SpanGuard {
            tracer: self,
            open: Some((id, parent, name, self.now_ns())),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// Self time per span name in milliseconds: each span's duration minus
    /// the part its direct children cover, summed over spans of that name.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let state = self.state();
        let mut children_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for span in &state.spans {
            if let Some(parent) = span.parent {
                *children_ns.entry(parent).or_default() += span.duration_ns();
            }
        }
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        for span in &state.spans {
            let own = span.duration_ns() - children_ns.get(&span.id).copied().unwrap_or(0);
            *totals.entry(span.name).or_default() += own as f64 / 1e6;
        }
        totals
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.state()
            .spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// Returns the I/O error if the file cannot be written.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.state().spans {
            let line = Value::Map(vec![
                ("id".to_string(), Value::Int(span.id as i128)),
                (
                    "parent".to_string(),
                    span.parent.map_or(Value::Null, |p| Value::Int(p as i128)),
                ),
                ("name".to_string(), Value::Str(span.name.to_string())),
                ("op".to_string(), Value::Int(span.op as i128)),
                ("start_ns".to_string(), Value::Int(span.start_ns as i128)),
                ("end_ns".to_string(), Value::Int(span.end_ns as i128)),
            ]);
            writeln!(out, "{}", crate::to_json(line))?;
        }
        out.flush()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.open.take() else {
            return;
        };
        let end_ns = self.tracer.now_ns();
        // A poisoned tracer only loses this span; panicking here would abort.
        let Ok(mut state) = self.tracer.state.lock() else {
            return;
        };
        state.open.pop();
        let op = state.op;
        state.spans.push(Span {
            id,
            parent,
            name,
            op,
            start_ns,
            end_ns,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_tracers_record_nothing() {
        let tracer = Tracer::new(true);
        {
            let _outer = tracer.span("outer");
            tracer.time("inner", || {
                std::hint::black_box((0..100_000u64).sum::<u64>());
            });
        }
        let totals = tracer.self_ms_by_name();
        let outer = tracer.durations_ms("outer")[0];
        let inner = tracer.durations_ms("inner")[0];
        assert!(inner <= outer);
        assert!((totals["outer"] + totals["inner"] - outer).abs() < 1e-6);

        let off = Tracer::new(false);
        off.time("inner", || ());
        assert!(off.durations_ms("inner").is_empty());
    }
}
