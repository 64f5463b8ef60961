//! Algebraic-gap regression gate: on Grover-6, exact GCD `D[ω]`
//! throughput must hold at least [`MIN_GCD_OVER_NUMERIC`] of numeric
//! (ε = 1e-10) throughput, so the exact representation can never
//! silently fall back to orders of magnitude slower than floating point.
//!
//! The only test in its binary, so no other test competes for the cores
//! while it times the two runs.

use aq_circuits::grover;
use aq_sim::{run_job, JobSpec, SchemeSpec};

/// Required GCD-over-numeric gates/s ratio. The measured ratio on this
/// workload is above 1 (GCD beats numeric here) in both debug and
/// release builds; the gate catches a regression to the old
/// orders-of-magnitude gap, not small drift.
const MIN_GCD_OVER_NUMERIC: f64 = 0.5;

fn gates_per_second(scheme: SchemeSpec) -> f64 {
    let circuit = grover(6, 0b101101);
    let mut spec = JobSpec::new(&circuit, 0, scheme);
    spec.top_k = 0; // throughput only: skip amplitude extraction
    let outcome = run_job(&spec, None);
    assert!(
        outcome.aborted.is_none(),
        "{:?} aborted: {:?}",
        spec.scheme,
        outcome.aborted
    );
    assert_eq!(outcome.gates_applied, circuit.len());
    outcome.gates_applied as f64 / outcome.seconds
}

#[test]
fn gcd_throughput_holds_half_of_numeric_on_grover6() {
    let numeric = gates_per_second(SchemeSpec::Numeric { eps: 1e-10 });
    let gcd = gates_per_second(SchemeSpec::Gcd);
    let ratio = gcd / numeric;
    println!(
        "gap gate: gcd {gcd:.0} gates/s vs numeric {numeric:.0} gates/s, \
         ratio {ratio:.3} (required >= {MIN_GCD_OVER_NUMERIC})"
    );
    assert!(
        ratio >= MIN_GCD_OVER_NUMERIC,
        "GCD D[omega] throughput fell below {MIN_GCD_OVER_NUMERIC} of numeric (ratio {ratio:.3})"
    );
}
