//! Spans recorded by the harness around its calls into each layer.
//!
//! Spans stay in memory during the run and are written once, at its end.
//! A layer's self time is its span's duration minus the part its child
//! spans cover; spans on one thread nest, so that part is the sum of the
//! children's durations.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `sim.step`.
    pub name: &'static str,
    /// Index of the enclosing span in the same [`Tracer`].
    pub parent: Option<u32>,
    /// Job or request the span belongs to.
    pub job: u64,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Value attached at the boundary (the server's `seconds` on
    /// `serve.wait`).
    pub attr: Option<f64>,
}

/// Per-thread span recorder; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that later spans nest under until [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, job: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            job,
            start_ns,
            end_ns: start_ns,
            attr: None,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn end(&mut self, span: Open) {
        if let Some(idx) = span.0 {
            let top = self.open.pop();
            assert_eq!(top, Some(idx), "spans close innermost first");
            self.spans[idx as usize].end_ns = self.ns(Instant::now());
        }
    }

    /// Attaches a value to an open or closed span.
    pub fn set_attr(&mut self, span: Open, value: f64) {
        if let Some(idx) = span.0 {
            self.spans[idx as usize].attr = Some(value);
        }
    }

    /// Records a finished span timed by the caller, nested under the
    /// innermost open span.
    pub fn leaf(&mut self, name: &'static str, job: u64, start: Instant, end: Instant) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                job,
                start_ns,
                end_ns,
                attr: None,
            });
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends the spans of another thread's tracer (same epoch).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time in seconds per span name: each span's duration minus the
/// durations of its direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0.0) +=
            (s.end_ns - s.start_ns).saturating_sub(c) as f64 * 1e-9;
    }
    out
}

/// Renders the spans and the boundary counts as one JSON document:
/// `{"spans": [[id, parent, name, job, start_ns, end_ns, attr], ...],
/// "counts": [...]}` with `parent` and `attr` `null` when absent.
pub fn render(spans: &[Span], counts: &[String]) -> String {
    let mut out = String::with_capacity(spans.len() * 48 + 64);
    out.push_str("{\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let attr = s.attr.map_or("null".to_string(), |a| format!("{a:e}"));
        let _ = writeln!(
            out,
            "[{i},{parent},\"{}\",{},{},{},{attr}]{}",
            s.name,
            s.job,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("],\n\"counts\":[\n");
    out.push_str(&counts.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "a",
                parent: None,
                job: 0,
                start_ns: 0,
                end_ns: 100,
                attr: None,
            },
            Span {
                name: "b",
                parent: Some(0),
                job: 0,
                start_ns: 10,
                end_ns: 40,
                attr: None,
            },
            Span {
                name: "b",
                parent: Some(0),
                job: 0,
                start_ns: 50,
                end_ns: 60,
                attr: None,
            },
        ];
        let st = self_times(&spans);
        assert!((st["a"] - 60e-9).abs() < 1e-15);
        assert!((st["b"] - 40e-9).abs() < 1e-15);
    }
}
