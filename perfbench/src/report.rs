//! The run's output: the metric table, the run record and the result line.

use std::fmt::Write as _;

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// Metrics in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a metric computed from `samples` samples.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: usize,
    ) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
            samples,
        });
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn values_json(&self) -> String {
        let parts: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quote(&m.name),
                    num(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", parts.join(","))
    }

    /// `{"name": samples, ...}`.
    pub fn samples_json(&self) -> String {
        let parts: Vec<String> = self
            .0
            .iter()
            .map(|m| format!("{}:{}", quote(&m.name), m.samples))
            .collect();
        format!("{{{}}}", parts.join(","))
    }
}

/// Operations the run attempted and how they ended.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted: engine jobs, or serve requests.
    pub attempted: u64,
    /// Operations that errored, were rejected, or failed an output check.
    pub failed: u64,
    /// Submissions the server refused (a subset of `failed`).
    pub rejected: u64,
}

impl Tally {
    /// Adds another tally's counts.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rejected += other.rejected;
    }

    /// Counts one operation; `Err` carries the reason it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: failed operation: {reason}");
            }
        }
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all its digits; non-finite values become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
