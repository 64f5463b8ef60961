//! Ring and bigint kernel timings on operands taken from a workload's
//! final state, so the operand sizes are the ones the workload produces.

use std::hint::black_box;

use aq_bigint::IBig;
use aq_rings::{Domega, Qomega, Zomega};

use crate::host::thread_cpu_s;
use crate::report::Metrics;
use crate::stats::median;
use crate::trace::Tracer;

/// Exact basis-state probabilities of a final state, one list per ring.
#[derive(Debug, Default)]
pub struct Operands {
    /// From the Q[ω] run.
    pub qomega: Vec<Qomega>,
    /// From the GCD D[ω] run.
    pub domega: Vec<Domega>,
}

/// Batches per kernel; the reported time is their median.
const BATCHES: usize = 7;
/// CPU time per batch.
const BATCH_S: f64 = 0.01;

/// Times each kernel over neighbouring operand pairs and pushes
/// `rings.*_ns` and `bigint.mul_ns`.
pub fn time_kernels(ops: &Operands, tr: &mut Tracer, metrics: &mut Metrics) {
    let q = &ops.qomega;
    let d = &ops.domega;
    let nums: Vec<Zomega> = d.iter().map(|v| v.numerator().clone()).collect();
    let coeffs: Vec<IBig> = q
        .iter()
        .map(|v| v.numerator())
        .chain(nums.iter())
        .flat_map(|z| z.coeffs())
        .filter(|c| !c.is_zero())
        .collect();
    let mut kernel = |name: &'static str, ns: (f64, usize)| {
        metrics.push(name, "ns", ns.0, ns.1);
    };
    kernel(
        "rings.mul_ns.qomega",
        ns_per_op(tr, "rings.mul.qomega", q, |a, b| drop(black_box(a * b))),
    );
    kernel(
        "rings.add_ns.qomega",
        ns_per_op(tr, "rings.add.qomega", q, |a, b| drop(black_box(a + b))),
    );
    kernel(
        "rings.mul_ns.gcd",
        ns_per_op(tr, "rings.mul.gcd", d, |a, b| drop(black_box(a * b))),
    );
    kernel(
        "rings.add_ns.gcd",
        ns_per_op(tr, "rings.add.gcd", d, |a, b| drop(black_box(a + b))),
    );
    kernel(
        "rings.gcd_ns",
        ns_per_op(tr, "rings.gcd", &nums, |a, b| drop(black_box(a.gcd(b)))),
    );
    kernel(
        "bigint.mul_ns",
        ns_per_op(tr, "bigint.mul", &coeffs, |a, b| drop(black_box(a * b))),
    );
}

/// Median over [`BATCHES`] of the CPU nanoseconds per call of `f` on the
/// pairs `(items[i], items[i + 1])`, with the number of calls timed.
fn ns_per_op<T>(
    tr: &mut Tracer,
    span: &'static str,
    items: &[T],
    f: impl Fn(&T, &T),
) -> (f64, usize) {
    if items.len() < 2 {
        return (f64::NAN, 0);
    }
    batched(tr, span, items.len() - 1, || {
        for pair in items.windows(2) {
            f(black_box(&pair[0]), black_box(&pair[1]));
        }
    })
}

/// Median over [`BATCHES`] of the CPU nanoseconds per call, where one
/// `pass` makes `calls` calls; returns it with the number of calls timed.
pub fn batched(
    tr: &mut Tracer,
    span: &'static str,
    calls: usize,
    mut pass: impl FnMut(),
) -> (f64, usize) {
    let open = tr.begin(span, 0);
    let mut per_batch = Vec::with_capacity(BATCHES);
    let mut total = 0;
    for _ in 0..BATCHES {
        let start = thread_cpu_s();
        let mut n = 0usize;
        loop {
            pass();
            n += calls;
            let spent = thread_cpu_s() - start;
            if spent >= BATCH_S {
                per_batch.push(spent * 1e9 / n as f64);
                break;
            }
        }
        total += n;
    }
    tr.end(open);
    (median(&per_batch), total)
}
