//! Cross-crate integration tests exercising the public facade API the way
//! a downstream user would.

use std::time::Duration;

use aqudd::circuits::cliffordt::CliffordTCompiler;
use aqudd::circuits::{bwt, grover, gse, qft, BwtParams, Circuit, GseParams, Op};
use aqudd::dd::{
    GateMatrix, GcdContext, Manager, NumericContext, QomegaContext, RunBudget, WeightContext,
};
use aqudd::rings::{Domega, Qomega};
use aqudd::sim::{normalized_distance, PairedRun, SimOptions, SimResult, Simulator};

#[test]
fn facade_reexports_compose() {
    // a value that flows through all layers: a bigint into a ring element
    // into a DD weight
    let big = aqudd::bigint::IBig::from(3).pow(40);
    let z = aqudd::rings::Zomega::new(
        aqudd::bigint::IBig::zero(),
        aqudd::bigint::IBig::zero(),
        aqudd::bigint::IBig::zero(),
        big,
    );
    let q = Qomega::from(Domega::from(z));
    let mut m = Manager::new(QomegaContext::new(), 1);
    let id = m.intern(q);
    assert!(m.weight(id).coeff_bits() > 60);
}

#[test]
fn headline_claim_accuracy_and_compactness_together() {
    // The paper's headline: the algebraic QMDD is as compact as the best
    // ε and exactly accurate, simultaneously — no tuning.
    let circuit = grover(10, 777);

    // best-tuned numeric run
    let mut tuned = Simulator::new(NumericContext::with_eps(1e-10), &circuit);
    let tuned_result = tuned.run();

    // untuned exact run
    let mut exact = Simulator::new(QomegaContext::new(), &circuit);
    let exact_result = exact.run();

    assert!(exact_result.trace.peak_nodes() <= tuned_result.trace.peak_nodes() + 2);
    assert!(normalized_distance(&tuned_result.amplitudes, &exact_result.amplitudes) < 1e-8);
    // and the exact run has literally unit norm
    let norm: f64 = exact_result.probabilities().iter().sum();
    assert!((norm - 1.0).abs() < 1e-12);
}

#[test]
fn qft_roundtrip_exact_through_the_full_stack() {
    // QFT⁻¹·QFT = I on a non-trivial state. The 2-qubit QFT's controlled
    // phase is CP(π/2), whose decomposition uses P(π/4) = T — exactly
    // representable, so the whole round trip runs in Q[ω]. (Wider QFTs
    // need P(π/2^k) with k ≥ 3, which must be Clifford+T-compiled first —
    // exactly what the GSE pipeline does.)
    let n = 2;
    let mut c = Circuit::new(n);
    c.push_gate(GateMatrix::x(), 1, &[]);
    c.push_gate(GateMatrix::h(), 0, &[]);
    c.extend_from(&qft(n));
    c.extend_from(&aqudd::circuits::inverse_qft(n));
    let mut exact = Simulator::new(QomegaContext::new(), &c);
    let got = exact.run().amplitudes;

    let mut prep = Circuit::new(n);
    prep.push_gate(GateMatrix::x(), 1, &[]);
    prep.push_gate(GateMatrix::h(), 0, &[]);
    let mut ref_sim = Simulator::new(QomegaContext::new(), &prep);
    let want = ref_sim.run().amplitudes;
    assert!(normalized_distance(&got, &want) < 1e-12);

    // a 4-qubit QFT needs compilation; the compiled version still
    // round-trips within the approximation budget
    let n = 4;
    let mut c = Circuit::new(n);
    c.push_gate(GateMatrix::x(), 2, &[]);
    c.extend_from(&qft(n));
    c.extend_from(&aqudd::circuits::inverse_qft(n));
    let (compiled, worst) = CliffordTCompiler::new(8).compile(&c);
    assert!(compiled.is_exact());
    let mut sim = Simulator::new(QomegaContext::new(), &compiled);
    let got = sim.run().amplitudes;
    // |0010⟩ must remain dominant
    let p = got[0b0010].norm_sqr();
    assert!(
        p > 0.8,
        "round trip lost the state: {p} (worst gate {worst})"
    );
}

/// Runs `circuit` under a one-minute deadline, so a slow normalization
/// fails the test with the abort's message instead of stalling the suite.
fn run_within_a_minute<W: WeightContext>(ctx: W, circuit: &Circuit) -> SimResult {
    let kind = ctx.kind();
    let options = SimOptions {
        budget: RunBudget::unlimited().with_deadline(Duration::from_secs(60)),
        ..SimOptions::default()
    };
    Simulator::with_options(ctx, circuit, options)
        .try_run()
        .unwrap_or_else(|abort| panic!("{kind} run: {abort}"))
}

#[test]
fn gse_to_clifford_t_to_all_backends() {
    let raw = gse(&GseParams {
        precision_bits: 2,
        ..GseParams::default()
    });
    assert!(raw.approx_ops() > 0);
    let (compiled, _) = CliffordTCompiler::new(5).compile(&raw);
    assert!(compiled.is_exact());

    let qomega = run_within_a_minute(QomegaContext::new(), &compiled);
    let gcd = run_within_a_minute(GcdContext::new(), &compiled);
    let numeric = run_within_a_minute(NumericContext::with_eps(1e-13), &compiled);
    // Both exact schemes are canonical, so they agree node for node, and
    // their exact path products convert to the same doubles bit for bit.
    assert_eq!(gcd.final_nodes, qomega.final_nodes, "GCD vs Qω nodes");
    let bits = |amps: &[aqudd::rings::Complex64]| -> Vec<(u64, u64)> {
        amps.iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    };
    assert_eq!(bits(&gcd.amplitudes), bits(&qomega.amplitudes), "GCD vs Qω");
    assert!(
        normalized_distance(&numeric.amplitudes, &qomega.amplitudes) < 1e-8,
        "numeric vs Qω"
    );
}

#[test]
fn bwt_walk_ops_round_trip_through_facade() {
    let (circuit, tree) = bwt(BwtParams {
        height: 2,
        steps: 6,
        seed: 1,
    });
    assert!(circuit
        .iter()
        .any(|op| matches!(op, Op::Permutation { .. })));
    let mut sim = Simulator::new(GcdContext::new(), &circuit);
    sim.reset_to(tree.coined_start());
    let result = sim.run();
    let total: f64 = result.probabilities().iter().sum();
    assert!((total - 1.0).abs() < 1e-10);
}

#[test]
fn paired_run_reports_the_tradeoff() {
    let circuit = grover(6, 33);
    let (coarse, _) = PairedRun::new(NumericContext::with_eps(1e-2), &circuit, 10).run();
    let (fine, _) = PairedRun::new(NumericContext::with_eps(1e-12), &circuit, 10).run();
    let coarse_err = coarse.final_error().expect("sampled");
    let fine_err = fine.final_error().expect("sampled");
    assert!(coarse_err > 1e-2, "coarse ε must hurt: {coarse_err}");
    assert!(fine_err < 1e-9, "fine ε must track: {fine_err}");
}

#[test]
fn gse_algebraic_run_fails_soft_under_a_small_budget() {
    // The ISSUE's acceptance scenario: the exact GSE run is exactly the
    // workload whose nodes and coefficient bits blow up (Fig. 5), so a
    // small budget must produce a structured abort — carrying the partial
    // trace and the engine statistics — never a panic.
    let raw = gse(&GseParams {
        precision_bits: 2,
        ..GseParams::default()
    });
    let (compiled, _) = CliffordTCompiler::new(5).compile(&raw);
    let mut sim = Simulator::with_options(
        QomegaContext::new(),
        &compiled,
        SimOptions {
            budget: RunBudget::unlimited()
                .with_max_nodes(24)
                .with_max_weight_bits(16),
            ..SimOptions::default()
        },
    );
    let abort = *sim.try_run().expect_err("tiny budget must abort GSE");
    assert!(abort.error.source.is_budget(), "got: {}", abort.error);
    assert!(abort.gates_applied < compiled.len());
    // partial trace: one point per applied gate, with the abort reason
    assert_eq!(abort.trace.points.len(), abort.gates_applied);
    assert!(abort.trace.aborted.is_some());
    // engine statistics at the abort point are the real counters
    assert!(abort.statistics.vec_nodes + abort.statistics.mat_nodes > 0);
}

#[test]
fn exact_contexts_never_drift_over_long_runs() {
    // T applied 8k times is the identity — with exact arithmetic the DD
    // returns to the literal starting edge, regardless of run length.
    let mut m = Manager::new(QomegaContext::new(), 1);
    let t = m.gate(&GateMatrix::t(), 0, &[]);
    let mut u = m.identity();
    for _ in 0..8 * 1000 {
        u = m.mat_mul(&t, &u);
    }
    assert_eq!(u, m.identity());
}
