//! Shared harness code for regenerating the paper's figures.
//!
//! The `figures` binary (`cargo run --release -p aq-bench --bin figures --
//! <fig2|fig3|fig4|fig5|ablation|extras|all> [--paper]`) writes one CSV per
//! plot under `target/figures/`, with the same series the paper reports:
//! decision-diagram size, accuracy and cumulative run-time per applied
//! gate, for each tolerance value ε and for the algebraic representation.
//!
//! Throughput per weight scheme and of the job service is measured by the
//! repository's benchmark, `perfbench/` (`python3 perfbench/run.py`), not
//! here. The algebraic-gap gate this crate keeps lives in
//! `tests/gap_gate.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};

use aq_circuits::Circuit;
use aq_dd::{NormScheme, NumericContext, RunBudget};
use aq_sim::{Column, SimOptions, Trace};

pub use aq_sim::sweep::ReferenceRun;

/// The ε values the paper sweeps in Figs. 3–5.
pub const PAPER_EPSILONS: [f64; 6] = [0.0, 1e-20, 1e-15, 1e-10, 1e-5, 1e-3];

/// The ε values of Fig. 2 (GSE size table).
pub const FIG2_EPSILONS: [f64; 6] = [0.0, 1e-15, 1e-10, 1e-6, 1e-5, 1e-3];

/// Workload scale: quick (CI-sized) or paper-sized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced qubit counts/steps so the whole suite runs in minutes.
    Quick,
    /// The paper's parameters (Grover on 15 qubits etc.) — hours for the
    /// ε = 0 runs, exactly as the paper observes.
    Paper,
}

impl Scale {
    /// Parses `--paper` from argv.
    pub fn from_args(args: &[String]) -> Scale {
        if args.iter().any(|a| a == "--paper") {
            Scale::Paper
        } else {
            Scale::Quick
        }
    }
}

/// Parses resource-budget flags from argv: `--max-nodes=N`,
/// `--max-weights=N`, `--max-bits=N`, `--deadline-secs=S`. Absent flags
/// leave the corresponding limit unset (unlimited).
///
/// # Panics
///
/// Panics on an unparsable flag value (this is a command-line harness).
pub fn budget_from_args(args: &[String]) -> RunBudget {
    let mut budget = RunBudget::unlimited();
    for a in args {
        if let Some(v) = a.strip_prefix("--max-nodes=") {
            budget = budget.with_max_nodes(v.parse().expect("--max-nodes=N"));
        } else if let Some(v) = a.strip_prefix("--max-weights=") {
            budget = budget.with_max_distinct_weights(v.parse().expect("--max-weights=N"));
        } else if let Some(v) = a.strip_prefix("--max-bits=") {
            budget = budget.with_max_weight_bits(v.parse().expect("--max-bits=N"));
        } else if let Some(v) = a.strip_prefix("--deadline-secs=") {
            let secs: f64 = v.parse().expect("--deadline-secs=S");
            budget = budget.with_deadline(std::time::Duration::from_secs_f64(secs));
        }
    }
    budget
}

/// Parses crash-safety flags from argv: `--checkpoint=PATH` (dump a
/// checkpoint there when a budget abort hits) and `--resume=PATH`
/// (continue a matching stage from a previously dumped checkpoint).
/// Returns `(checkpoint, resume)`.
pub fn checkpoint_from_args(args: &[String]) -> (Option<PathBuf>, Option<PathBuf>) {
    let mut checkpoint = None;
    let mut resume = None;
    for a in args {
        if let Some(v) = a.strip_prefix("--checkpoint=") {
            checkpoint = Some(PathBuf::from(v));
        } else if let Some(v) = a.strip_prefix("--resume=") {
            resume = Some(PathBuf::from(v));
        }
    }
    (checkpoint, resume)
}

/// The numeric context used throughout the figure harness: the paper's
/// evaluation package normalizes by the largest-magnitude weight (\[29\]),
/// which keeps all stored weights at magnitude ≤ 1. (The simpler leftmost
/// scheme is *markedly* less stable at small non-zero ε — dividing by a
/// near-cancellation pivot produces huge co-weights that then merge
/// wrongly under the tolerance; see the `norm_scheme` ablation.)
pub fn figure_numeric_context(eps: f64) -> NumericContext {
    NumericContext::with_eps_and_scheme(eps, NormScheme::MaxMagnitude)
}

/// Simulation options for the figure harness: default tuning plus the
/// given resource budget (unlimited = historical behaviour).
pub fn figure_options(budget: RunBudget) -> SimOptions {
    SimOptions {
        budget,
        ..SimOptions::default()
    }
}

/// Runs the exact algebraic simulation once, keeping the amplitude
/// vectors at every sampling point (and at the end). Delegates to the
/// fail-soft [`aq_sim::sweep`] harness with an unlimited budget.
pub fn reference_run(circuit: &Circuit, sample_every: usize, start: u64) -> ReferenceRun {
    aq_sim::sweep::reference_run(circuit, sample_every, start, &SimOptions::default())
}

/// Like [`reference_run`] but under a resource budget: on a budget abort
/// the reference is partial ([`Trace::aborted`] set) instead of panicking.
pub fn reference_run_budgeted(
    circuit: &Circuit,
    sample_every: usize,
    start: u64,
    budget: RunBudget,
) -> ReferenceRun {
    aq_sim::sweep::reference_run(circuit, sample_every, start, &figure_options(budget))
}

/// Runs a numeric ε simulation, measuring the error against a shared
/// [`ReferenceRun`] at its sampling points.
pub fn traced_numeric_vs_reference(circuit: &Circuit, eps: f64, reference: &ReferenceRun) -> Trace {
    traced_numeric_vs_reference_budgeted(circuit, eps, reference, RunBudget::unlimited())
}

/// Like [`traced_numeric_vs_reference`] but under a resource budget: a
/// budget abort yields the partial prefix trace with [`Trace::aborted`]
/// set, so the surrounding ε sweep continues with its remaining points.
pub fn traced_numeric_vs_reference_budgeted(
    circuit: &Circuit,
    eps: f64,
    reference: &ReferenceRun,
    budget: RunBudget,
) -> Trace {
    aq_sim::sweep::numeric_vs_reference(
        figure_numeric_context(eps),
        circuit,
        reference,
        &figure_options(budget),
    )
}

/// Like [`traced_numeric_vs_reference_budgeted`] with crash-safe
/// persistence: a budget abort dumps a checkpoint (tagged `label`) to
/// `checkpoint`, and a later invocation passing the same file as `resume`
/// continues that stage from the stored cursor. Stages whose label does
/// not match the stored one run from scratch, so one `--resume` flag can
/// safely be applied to a whole sweep.
pub fn traced_numeric_vs_reference_resumable(
    circuit: &Circuit,
    eps: f64,
    reference: &ReferenceRun,
    budget: RunBudget,
    label: &str,
    checkpoint: Option<&Path>,
    resume: Option<&Path>,
) -> Trace {
    aq_sim::sweep::numeric_vs_reference_resumable(
        figure_numeric_context(eps),
        circuit,
        reference,
        &figure_options(budget),
        label,
        checkpoint,
        resume,
    )
}

/// Formats an ε for CSV column labels (`eps0`, `eps1e-10`, …).
pub fn eps_label(eps: f64) -> String {
    if aq_rings::is_exact_eps(eps) {
        "eps0".to_string()
    } else {
        format!("eps{eps:.0e}")
            .replace("e-", "1e-")
            .replace("eps11e-", "eps1e-")
    }
}

/// Assembles the three per-figure CSVs (size/accuracy/runtime) from a set
/// of labelled traces and writes them under `target/figures/`.
///
/// # Panics
///
/// Panics on I/O errors (this is a command-line harness).
pub fn write_figure(figure: &str, labelled: &[(String, Trace)]) {
    let dir = std::path::Path::new("target/figures");
    let gates: Vec<usize> = labelled
        .iter()
        .map(|(_, t)| t.points.len())
        .max()
        .map(|n| (1..=n).collect())
        .unwrap_or_default();

    let mut size_cols = vec![Column::from_usize("gates", gates.iter().copied())];
    let mut time_cols = vec![Column::from_usize("gates", gates.iter().copied())];
    let mut err_cols = vec![Column::from_usize("gates", gates.iter().copied())];
    let mut bits_cols = vec![Column::from_usize("gates", gates.iter().copied())];
    for (label, t) in labelled {
        size_cols.push(Column::from_usize(
            format!("nodes_{label}"),
            t.points.iter().map(|p| p.nodes),
        ));
        time_cols.push(Column::from_f64(
            format!("seconds_{label}"),
            t.points.iter().map(|p| p.seconds),
        ));
        err_cols.push(Column::from_opt_f64(
            format!("error_{label}"),
            t.points.iter().map(|p| p.error),
        ));
        bits_cols.push(Column::from_usize(
            format!("bits_{label}"),
            t.points.iter().map(|p| p.max_weight_bits as usize),
        ));
    }
    aq_sim::write_csv(dir.join(format!("{figure}a_size.csv")), &size_cols).expect("write csv");
    aq_sim::write_csv(dir.join(format!("{figure}b_accuracy.csv")), &err_cols).expect("write csv");
    aq_sim::write_csv(dir.join(format!("{figure}c_runtime.csv")), &time_cols).expect("write csv");
    aq_sim::write_csv(dir.join(format!("{figure}_bits.csv")), &bits_cols).expect("write csv");

    // Budget-aborted series are partial (shorter columns above); record
    // which ones and why so the CSVs are self-describing. A run in which
    // every series completed removes the record an earlier run left.
    let aborted_csv = dir.join(format!("{figure}_aborted.csv"));
    let aborted: Vec<&(String, Trace)> = labelled
        .iter()
        .filter(|(_, t)| t.aborted.is_some())
        .collect();
    if aborted.is_empty() {
        if let Err(e) = std::fs::remove_file(&aborted_csv) {
            assert!(
                e.kind() == std::io::ErrorKind::NotFound,
                "remove {}: {e}",
                aborted_csv.display()
            );
        }
        return;
    }
    let cols = vec![
        Column {
            name: "series".into(),
            values: aborted.iter().map(|(l, _)| l.clone()).collect(),
        },
        Column {
            name: "aborted".into(),
            values: aborted
                .iter()
                .map(|(_, t)| t.aborted.clone().unwrap_or_default())
                .collect(),
        },
        Column::from_usize("points_kept", aborted.iter().map(|(_, t)| t.points.len())),
    ];
    aq_sim::write_csv(aborted_csv, &cols).expect("write csv");
}

/// Prints a short textual summary of a figure's traces (peak size, final
/// error, total runtime) — the "rows the paper reports".
pub fn print_summary(figure: &str, labelled: &[(String, Trace)]) {
    println!("== {figure} ==");
    println!(
        "{:<14} {:>12} {:>12} {:>14} {:>10} {:>9} {:>8}",
        "series", "peak nodes", "final nodes", "final error", "seconds", "cache%", "compact"
    );
    for (label, t) in labelled {
        let final_nodes = t.points.last().map(|p| p.nodes).unwrap_or(0);
        let (cache, compactions) = t
            .engine
            .map(|e| {
                (
                    format!("{:.1}", 100.0 * e.cache_hit_rate()),
                    e.compactions.to_string(),
                )
            })
            .unwrap_or_else(|| ("-".into(), "-".into()));
        println!(
            "{:<14} {:>12} {:>12} {:>14} {:>10.3} {:>9} {:>8}",
            label,
            t.peak_nodes(),
            final_nodes,
            t.final_error()
                .map(|e| format!("{e:.3e}"))
                .unwrap_or_else(|| "exact".into()),
            t.total_seconds(),
            cache,
            compactions,
        );
        if let Some(reason) = &t.aborted {
            println!(
                "{:<14}   aborted: {} ({} points kept)",
                "",
                reason,
                t.points.len()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eps_labels() {
        assert_eq!(eps_label(0.0), "eps0");
        assert_eq!(eps_label(1e-10), "eps1e-10");
        assert_eq!(eps_label(1e-3), "eps1e-3");
        assert_eq!(eps_label(1e-20), "eps1e-20");
    }

    #[test]
    fn budget_parsing() {
        assert!(budget_from_args(&["fig3".into()]).is_unlimited());
        let b = budget_from_args(&[
            "fig3".into(),
            "--max-nodes=1000".into(),
            "--max-bits=256".into(),
            "--deadline-secs=1.5".into(),
        ]);
        assert_eq!(b.max_nodes, Some(1000));
        assert_eq!(b.max_weight_bits, Some(256));
        assert_eq!(b.deadline, Some(std::time::Duration::from_secs_f64(1.5)));
        assert_eq!(b.max_distinct_weights, None);
    }

    #[test]
    fn budgeted_sweep_reports_abort_and_continues() {
        let c = aq_circuits::grover(4, 5);
        let reference = reference_run(&c, 8, 0);
        assert!(reference.trace.aborted.is_none());
        // a numeric eps=0 run under a tiny node budget aborts fail-soft...
        let capped = traced_numeric_vs_reference_budgeted(
            &c,
            0.0,
            &reference,
            RunBudget::unlimited().with_max_nodes(8),
        );
        assert!(capped.aborted.is_some());
        assert!(capped.points.len() < c.len());
        // ...while the next sweep point (unlimited) still completes
        let free = traced_numeric_vs_reference(&c, 1e-10, &reference);
        assert!(free.aborted.is_none());
        assert_eq!(free.points.len(), c.len());
    }

    #[test]
    fn checkpoint_flag_parsing() {
        assert_eq!(checkpoint_from_args(&["fig3".into()]), (None, None));
        let (c, r) = checkpoint_from_args(&[
            "fig3".into(),
            "--checkpoint=/tmp/a.aqckp".into(),
            "--resume=/tmp/b.aqckp".into(),
        ]);
        assert_eq!(c, Some(PathBuf::from("/tmp/a.aqckp")));
        assert_eq!(r, Some(PathBuf::from("/tmp/b.aqckp")));
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::from_args(&["fig3".into()]), Scale::Quick);
        assert_eq!(
            Scale::from_args(&["fig3".into(), "--paper".into()]),
            Scale::Paper
        );
    }

    #[test]
    fn complete_rerun_removes_the_stale_aborted_csv() {
        let aborted_csv = Path::new("target/figures/stale_aborted_test_aborted.csv");
        let partial = Trace {
            aborted: Some("deadline exceeded".into()),
            ..Trace::default()
        };
        write_figure("stale_aborted_test", &[("eps0".into(), partial)]);
        assert!(aborted_csv.exists(), "an aborted series must be recorded");

        let c = aq_circuits::grover(3, 2);
        let reference = reference_run(&c, 4, 0);
        assert!(reference.trace.aborted.is_none());
        write_figure("stale_aborted_test", &[("eps0".into(), reference.trace)]);
        assert!(
            !aborted_csv.exists(),
            "a run with no aborted series must not leave the old record behind"
        );
    }
}
