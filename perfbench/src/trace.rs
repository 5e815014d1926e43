//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around its
//! calls into the simulator's public entry points. Each span keeps its
//! name, start, end, the span that caused it (its parent) and the pass
//! it belongs to — the pass id plays the role of a request id: every
//! span of one pass shares it. Nothing is written until the run ends.
//! With tracing off, [`Tracer::span`] is a direct call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.cluster.simulate`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Id of the pass (or set-up step) the span belongs to.
    pub pass: u64,
}

impl Span {
    /// Duration, nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans and per-span work counts on one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    pass: Cell<u64>,
    units: RefCell<BTreeMap<String, u64>>,
}

/// Closes its span when dropped, so a panicking call still leaves a
/// well-formed trace.
struct Open<'a> {
    tracer: &'a Tracer,
    idx: usize,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        self.tracer.spans.borrow_mut()[self.idx].end_ns = end;
        self.tracer.stack.borrow_mut().pop();
    }
}

impl Tracer {
    /// A tracer; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            pass: Cell::new(0),
            units: RefCell::new(BTreeMap::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Tags every span opened from now on with pass id `id`.
    pub fn set_pass(&self, id: u64) {
        self.pass.set(id);
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let mut stack = self.stack.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                parent: stack.last().copied(),
                start_ns: self.now_ns(),
                end_ns: 0,
                pass: self.pass.get(),
            });
            stack.push(spans.len() - 1);
            spans.len() - 1
        };
        let _open = Open { tracer: self, idx };
        f()
    }

    /// Adds `n` units of work to span name `name` (the denominator of its
    /// ns-per-unit figure).
    pub fn units(&self, name: &str, n: u64) {
        if self.on {
            *self.units.borrow_mut().entry(name.to_string()).or_insert(0) += n;
        }
    }

    /// All recorded spans, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Work units recorded per span name.
    pub fn unit_counts(&self) -> BTreeMap<String, u64> {
        self.units.borrow().clone()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (children never overlap on one thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per-name aggregate over a set of spans.
#[derive(Debug, Clone, Default)]
pub struct NameStats {
    /// Spans with this name.
    pub count: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

/// Aggregates the spans `keep` selects by name.
pub fn by_name(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<String, NameStats> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<String, NameStats> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if keep(s) {
            let e = out.entry(s.name.clone()).or_default();
            e.count += 1;
            e.self_ns += self_ns;
        }
    }
    out
}

/// The spans as Chrome trace-event JSON (`{"traceEvents": [...]}`),
/// loadable in Perfetto, with `extra` appended as top-level fields.
pub fn chrome_trace(spans: &[Span], extra: Vec<(String, Value)>) -> Value {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut args = vec![
                ("id".to_string(), Value::from(i as u64)),
                ("pass".to_string(), Value::from(s.pass)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), Value::from(p as u64)));
            }
            Value::Object(vec![
                ("name".to_string(), Value::from(s.name.as_str())),
                ("ph".to_string(), Value::from("X")),
                ("ts".to_string(), Value::from(s.start_ns as f64 / 1e3)),
                ("dur".to_string(), Value::from(s.dur_ns() as f64 / 1e3)),
                ("pid".to_string(), Value::from(1u64)),
                ("tid".to_string(), Value::from(1u64)),
                ("args".to_string(), Value::Object(args)),
            ])
        })
        .collect();
    let mut fields = vec![("traceEvents".to_string(), Value::Array(events))];
    fields.extend(extra);
    Value::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let tr = Tracer::new(true);
        tr.set_pass(7);
        tr.span("outer", || {
            spin(200_000);
            tr.span("inner", || spin(200_000));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.pass == 7));
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], spans[0].dur_ns() - spans[1].dur_ns());
        assert_eq!(selfs[1], spans[1].dur_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("x", || 3), 3);
        tr.units("x", 5);
        assert!(tr.spans().is_empty());
        assert!(tr.unit_counts().is_empty());
    }

    #[test]
    fn panicking_call_still_closes_its_span() {
        let tr = Tracer::new(true);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tr.span("boom", || panic!("expected"));
        }));
        assert!(r.is_err());
        tr.span("after", || ());
        let spans = tr.spans();
        assert!(spans[0].end_ns >= spans[0].start_ns);
        assert_eq!(spans[1].parent, None);
    }
}
