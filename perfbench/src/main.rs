//! `perfbench` — end-to-end and per-layer benchmark of the aqudd engine
//! and the `aq-served` service.
//!
//! ```text
//! perfbench --workload grover|gse|serve --seed N --seconds S --trace 0|1
//!           [--out DIR] [--server PATH] [--toy] [--corrupt]
//! ```
//!
//! `--seconds` fixes the size of the run's seeded, count-boxed job
//! sequence (about that many seconds on a 2-core host), never a deadline,
//! so both sides of a comparison do the same work. `--out` receives the
//! untraced end-to-end values and the traced run's spans. `--server` is
//! the `aq-served` binary (default: next to this one). `--toy` shrinks
//! every input for tests; `--corrupt` damages one output before it is
//! checked, so the run must fail.
//!
//! Prints a run record line, then the result line
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when a check
//! failed and 2 on bad usage or a run that could not be carried out.

mod engine;
mod host;
mod kernels;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;

use report::{num, quote, Metrics, Tally};
use trace::Tracer;

/// Which traffic a run replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Grover-12 under the three schemes.
    Grover,
    /// The Clifford+T-compiled GSE prefix under the three schemes.
    Gse,
    /// `aq-served` over TCP.
    Serve,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Grover => "grover",
            Workload::Gse => "gse",
            Workload::Serve => "serve",
        }
    }
}

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    /// The traffic to replay.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Sizes the count-boxed sequence.
    pub seconds: u64,
    /// Record spans and print the per-layer metrics.
    pub trace: bool,
    /// Where run artefacts go.
    pub out: Option<PathBuf>,
    /// The `aq-served` binary.
    pub server: Option<PathBuf>,
    /// Shrink every input.
    pub toy: bool,
    /// Damage one output before it is checked.
    pub corrupt: bool,
}

/// What a workload hands back for reporting.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// End-to-end metrics (always measured).
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// The spans recorded.
    pub tracer: Tracer,
    /// Counts taken at layer boundaries, as JSON values.
    pub counts: Vec<String>,
    /// Workload-specific members of the run record.
    pub record: String,
    /// Set when the run could not be carried out at all.
    pub error: Option<String>,
}

impl Outcome {
    /// A run that could not go on.
    pub fn failed(tally: Tally, error: impl Into<String>) -> Self {
        Outcome {
            tally,
            e2e: Metrics::default(),
            layers: Metrics::default(),
            tracer: Tracer::new(false, std::time::Instant::now()),
            counts: Vec::new(),
            record: String::new(),
            error: Some(error.into()),
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload grover|gse|serve --seed N --seconds S --trace 0|1 \
         [--out DIR] [--server PATH] [--toy] [--corrupt]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = Args {
        workload: Workload::Grover,
        seed: 0,
        seconds: 0,
        trace: false,
        out: None,
        server: None,
        toy: false,
        corrupt: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value().as_str() {
                    "grover" => Workload::Grover,
                    "gse" => Workload::Gse,
                    "serve" => Workload::Serve,
                    other => usage(&format!("unknown workload `{other}`")),
                })
            }
            "--seed" => {
                seed = value()
                    .parse()
                    .ok()
                    .or_else(|| usage("--seed takes an integer"))
            }
            "--seconds" => {
                seconds = value()
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .or_else(|| usage("--seconds takes an integer in 1..=600"))
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value())),
            "--server" => args.server = Some(PathBuf::from(value())),
            "--toy" => args.toy = true,
            "--corrupt" => args.corrupt = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    args.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    args.seed = seed.unwrap_or_else(|| usage("--seed is required"));
    args.seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    args.trace = trace.unwrap_or_else(|| usage("--trace is required"));
    args
}

fn main() {
    let args = parse_args();
    let outcome = match args.workload {
        Workload::Grover | Workload::Gse => engine::run(&args),
        Workload::Serve => serve::run(&args),
    };
    if let Some(e) = &outcome.error {
        eprintln!("perfbench: {} run failed: {e}", args.workload.name());
        std::process::exit(2);
    }
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let metrics = if args.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };

    let mut record = format!(
        "\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},{},\"rejected\":{},{}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        host::host_json(),
        outcome.tally.rejected,
        outcome.record
    );
    record.push_str(&format!(",\"samples\":{}", metrics.samples_json()));
    if args.trace {
        let self_s: Vec<String> = trace::self_times(outcome.tracer.spans())
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), num(*v)))
            .collect();
        record.push_str(&format!(",\"self_time_s\":{{{}}}", self_s.join(",")));
        record.push_str(&format!(
            ",\"traced_end_to_end\":{}",
            outcome.e2e.values_json()
        ));
        if let Some(overhead) = args
            .out
            .as_ref()
            .and_then(|d| tracing_overhead(d, &stem, &outcome.e2e))
        {
            record.push_str(&format!(",\"tracing_overhead\":{overhead}"));
        }
    }
    if let Some(dir) = &args.out {
        let written = std::fs::create_dir_all(dir).and_then(|()| {
            if args.trace {
                let path = dir.join(format!("{stem}.trace.json"));
                std::fs::write(path, trace::render(outcome.tracer.spans(), &outcome.counts))
            } else {
                std::fs::write(
                    dir.join(format!("{stem}.e2e.json")),
                    outcome.e2e.values_json(),
                )
            }
        });
        if let Err(e) = written {
            eprintln!("perfbench: cannot write to {}: {e}", dir.display());
        }
    }

    let all_finite = metrics.0.iter().all(|m| m.value.is_finite());
    let correct = outcome.tally.failed == 0 && all_finite && !metrics.0.is_empty();
    println!("{{\"record\":{{{record}}}}}");
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.values_json()
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Traced ÷ untraced − 1 for each end-to-end metric, against the
/// untraced run of the same workload and seed written to `dir` earlier.
fn tracing_overhead(dir: &std::path::Path, stem: &str, traced: &Metrics) -> Option<String> {
    let text = std::fs::read_to_string(dir.join(format!("{stem}.e2e.json"))).ok()?;
    let untraced = aq_serve::Json::parse(&text).ok()?;
    let parts: Vec<String> = traced
        .0
        .iter()
        .filter_map(|m| {
            let base = untraced.get(&m.name)?.get("value")?.as_f64()?;
            Some(format!("{}:{}", quote(&m.name), num(m.value / base - 1.0)))
        })
        .collect();
    Some(format!("{{{}}}", parts.join(",")))
}
