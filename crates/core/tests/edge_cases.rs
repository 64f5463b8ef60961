//! Edge-case and failure-injection tests for the QMDD engine.

use aq_dd::{
    Edge, EngineError, GateMatrix, GcdContext, Manager, NumericContext, QomegaContext,
    WeightContext, WeightId,
};
use aq_rings::{Complex64, Qomega};

#[test]
#[should_panic(expected = "need at least one qubit")]
fn zero_qubit_manager_rejected() {
    let _ = Manager::new(QomegaContext::new(), 0);
}

#[test]
#[should_panic(expected = "basis state index out of range")]
fn basis_state_out_of_range() {
    let mut m = Manager::new(QomegaContext::new(), 2);
    let _ = m.basis_state(4);
}

#[test]
#[should_panic(expected = "unit matrix index out of range")]
fn unit_matrix_out_of_range() {
    let mut m = Manager::new(QomegaContext::new(), 2);
    let _ = m.unit_matrix(0, 7);
}

#[test]
#[should_panic(expected = "target out of range")]
fn gate_target_out_of_range() {
    let mut m = Manager::new(QomegaContext::new(), 2);
    let _ = m.gate(&GateMatrix::x(), 2, &[]);
}

#[test]
#[should_panic(expected = "control coincides with target")]
fn gate_control_on_target() {
    let mut m = Manager::new(QomegaContext::new(), 2);
    let _ = m.gate(&GateMatrix::x(), 1, &[(1, true)]);
}

#[test]
fn sampling_the_zero_vector_is_an_impossible_measurement() {
    let mut m = Manager::new(QomegaContext::new(), 1);
    assert!(matches!(
        m.try_state_sampler(&Edge::ZERO_VEC),
        Err(EngineError::ImpossibleMeasurement { qubit: 0 })
    ));
}

#[test]
fn interning_zero_always_yields_the_zero_id() {
    let mut m = Manager::new(QomegaContext::new(), 1);
    assert_eq!(m.intern(Qomega::zero()), WeightId::ZERO);
    let diff = &Qomega::from_int_ratio(2, 7) - &Qomega::from_int_ratio(2, 7);
    assert_eq!(m.intern(diff), WeightId::ZERO);
    // numeric: ε-close-to-zero collapses too
    let mut n = Manager::new(NumericContext::with_eps(1e-6), 1);
    assert_eq!(n.intern(Complex64::new(1e-9, -1e-9)), WeightId::ZERO);
}

#[test]
fn scaling_by_zero_gives_the_zero_edge() {
    let mut m = Manager::new(QomegaContext::new(), 2);
    let s = m.basis_state(1);
    let z = m.vec_scale(&s, WeightId::ZERO);
    assert!(z.is_zero());
    let id = m.identity();
    assert!(m.mat_scale(&id, WeightId::ZERO).is_zero());
}

#[test]
fn adding_a_state_to_its_negation_is_zero() {
    let mut m = Manager::new(GcdContext::new(), 3);
    let mut s = m.basis_state(5);
    for q in 0..3 {
        let h = m.gate(&GateMatrix::h(), q, &[]);
        s = m.mat_vec(&h, &s);
    }
    let minus_one = {
        let v = m.ctx().neg(&m.ctx().one());
        m.intern(v)
    };
    let neg = m.vec_scale(&s, minus_one);
    let sum = m.vec_add(&s, &neg);
    assert!(sum.is_zero(), "ψ − ψ must cancel structurally");
}

#[test]
fn all_zero_children_normalize_to_zero_edge() {
    // mat_add of x and −x for operators
    let mut m = Manager::new(QomegaContext::new(), 2);
    let g = m.gate(&GateMatrix::t(), 0, &[(1, false)]);
    let minus_one = {
        let v = m.ctx().neg(&m.ctx().one());
        m.intern(v)
    };
    let ng = m.mat_scale(&g, minus_one);
    assert!(m.mat_add(&g, &ng).is_zero());
}

#[test]
fn single_qubit_manager_works() {
    let mut m = Manager::new(NumericContext::new(), 1);
    let s = m.basis_state(1);
    assert_eq!(m.vec_nodes(&s), 1);
    let x = m.gate(&GateMatrix::x(), 0, &[]);
    let flipped = m.mat_vec(&x, &s);
    assert!((m.amplitudes(&flipped)[0].re - 1.0).abs() < 1e-15);
}

#[test]
fn many_controls_mixed_polarities() {
    // X on q3 iff q0=1, q1=0, q2=1 — check the full truth table.
    let mut m = Manager::new(QomegaContext::new(), 4);
    let g = m.gate(&GateMatrix::x(), 3, &[(0, true), (1, false), (2, true)]);
    let mat = m.matrix(&g);
    for input in 0..16usize {
        let fires = (input >> 3) & 1 == 1 && (input >> 2) & 1 == 0 && (input >> 1) & 1 == 1;
        let expected = if fires { input ^ 1 } else { input };
        for (r, row) in mat.iter().enumerate() {
            let want = if r == expected { 1.0 } else { 0.0 };
            assert!(
                (row[input].re - want).abs() < 1e-12 && row[input].im.abs() < 1e-12,
                "input {input:04b}: row {r} = {:?}",
                row[input]
            );
        }
    }
}

#[test]
fn weight_table_growth_is_observable() {
    // ε = 0: every new double is a new weight; ε = 1e-2: everything merges.
    let run = |eps: f64| {
        let mut m = Manager::new(NumericContext::with_eps(eps), 4);
        let mut s = m.basis_state(0);
        for q in 0..4 {
            let h = m.gate(&GateMatrix::h(), q, &[]);
            s = m.mat_vec(&h, &s);
            let t = m.gate(&GateMatrix::t(), q, &[]);
            s = m.mat_vec(&t, &s);
        }
        m.distinct_weights()
    };
    assert!(
        run(0.0) >= run(1e-2),
        "looser ε must not grow the table more"
    );
}

#[test]
fn wide_register_basis_state_does_not_overflow_the_shift() {
    // 72 qubits: a u64 index only addresses the low 64; the high qubits
    // read as |0⟩ instead of hitting a shift-overflow panic.
    let mut m = Manager::new(QomegaContext::new(), 72);
    let s = m.basis_state(5);
    assert_eq!(m.vec_nodes(&s), 72);
    assert!((m.amplitude(&s, 5).re - 1.0).abs() < 1e-15);
    assert_eq!(m.amplitude(&s, 6).re, 0.0);
    // the all-ones u64 index is in range on a wide register
    let top = m.basis_state(u64::MAX);
    assert!((m.amplitude(&top, u64::MAX).re - 1.0).abs() < 1e-15);
    assert_eq!(m.amplitude(&top, 0).re, 0.0);
}

#[test]
fn wide_register_unit_matrix_maps_col_to_row() {
    let mut m = Manager::new(QomegaContext::new(), 70);
    let u = m.unit_matrix(3, 7);
    let col = m.basis_state(7);
    let mapped = m.mat_vec(&u, &col);
    assert!((m.amplitude(&mapped, 3).re - 1.0).abs() < 1e-15);
    assert_eq!(m.amplitude(&mapped, 7).re, 0.0);
    // gates still apply on a wide register: X on qubit 69 flips index
    // bit 0 (qubit q addresses index bit n−1−q)
    let x = m.gate(&GateMatrix::x(), 69, &[]);
    let flipped = m.mat_vec(&x, &mapped);
    assert!((m.amplitude(&flipped, 2).re - 1.0).abs() < 1e-15);
}

#[test]
fn compact_with_matrix_roots() {
    let mut m = Manager::new(QomegaContext::new(), 3);
    let a = m.gate(&GateMatrix::h(), 0, &[]);
    let b = m.gate(&GateMatrix::t(), 2, &[(0, true)]);
    let prod = m.mat_mul(&a, &b);
    let before = m.matrix(&prod);
    let (_, ms) = m.compact(&[], &[prod]);
    let after = m.matrix(&ms[0]);
    for (ra, rb) in before.iter().zip(&after) {
        for (x, y) in ra.iter().zip(rb) {
            assert!((*x - *y).abs() < 1e-12);
        }
    }
}
