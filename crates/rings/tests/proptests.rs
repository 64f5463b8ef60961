//! Property-based tests for the algebraic number systems: ring/field axioms,
//! canonical-form invariants, Euclidean structure, and agreement between
//! exact arithmetic and floating-point evaluation.

use aq_bigint::{IBig, UBig};
use aq_rings::{assoc::canonical_associate, Complex64, Domega, Qomega, Zomega};
use aq_testutil::proptest::prelude::*;

fn small_ibig() -> impl Strategy<Value = IBig> {
    (-1000i64..1000).prop_map(IBig::from)
}

fn zomega() -> impl Strategy<Value = Zomega> {
    (small_ibig(), small_ibig(), small_ibig(), small_ibig())
        .prop_map(|(a, b, c, d)| Zomega::new(a, b, c, d))
}

/// Coefficients straddling the `i64` boundary of the inline `Zomega`
/// representation: small, hugging `i64::MAX`/`i64::MIN` from inside, and
/// just past the boundary (heap-promoted).
fn boundary_coeff() -> impl Strategy<Value = IBig> {
    prop_oneof![
        (-1000i64..1000).prop_map(IBig::from),
        (0i64..1000).prop_map(|m| IBig::from(i64::MAX - m)),
        (i64::MIN..i64::MIN + 1000).prop_map(IBig::from),
        (1i64..1000).prop_map(|m| IBig::from(i64::MAX as i128 + m as i128)),
        (1i64..1000).prop_map(|m| IBig::from(i64::MIN as i128 - m as i128)),
    ]
}

fn boundary_zomega() -> impl Strategy<Value = Zomega> {
    (
        boundary_coeff(),
        boundary_coeff(),
        boundary_coeff(),
        boundary_coeff(),
    )
        .prop_map(|(a, b, c, d)| Zomega::new(a, b, c, d))
}

/// Reference multiplication straight from the `ω⁴ = −1` reduction rules,
/// entirely in heap bigint arithmetic — the oracle the inline `i64`/`i128`
/// fast paths must agree with bit for bit.
fn reference_mul(x: &Zomega, y: &Zomega) -> [IBig; 4] {
    let [a, b, c, d] = x.coeffs();
    let [e, f, g, h] = y.coeffs();
    [
        &(&(&a * &h) + &(&b * &g)) + &(&(&c * &f) + &(&d * &e)),
        &(&(&b * &h) + &(&c * &g)) + &(&(&d * &f) - &(&a * &e)),
        &(&(&c * &h) + &(&d * &g)) - &(&(&a * &f) + &(&b * &e)),
        &(&(&d * &h) - &(&a * &g)) - &(&(&b * &f) + &(&c * &e)),
    ]
}

fn domega() -> impl Strategy<Value = Domega> {
    (zomega(), -6i64..6).prop_map(|(z, k)| Domega::new(z, k))
}

/// Coefficients from small to well past `i64` (up to ~2^110).
fn wide_coeff() -> impl Strategy<Value = IBig> {
    (-1000i64..1000, 0u64..100).prop_map(|(m, shift)| &IBig::from(m) * &(&IBig::one() << shift))
}

fn wide_zomega() -> impl Strategy<Value = Zomega> {
    (wide_coeff(), wide_coeff(), wide_coeff(), wide_coeff())
        .prop_map(|(a, b, c, d)| Zomega::new(a, b, c, d))
}

/// Odd denominators: 1, single-limb, and past the inline two limbs.
fn odd_denominator() -> impl Strategy<Value = UBig> {
    (0u64..3, any::<u64>(), 0u32..90).prop_map(|(kind, r, p)| match kind {
        0 => UBig::one(),
        1 => UBig::from(r | 1),
        _ => &UBig::from(3u64).pow(p) * &UBig::from(r | 1),
    })
}

/// The canonical form: odd positive denominator coprime to the content,
/// minimal `√2` exponent, and `0 / (√2⁰·1)` for zero.
fn assert_canonical_qomega(q: &Qomega) {
    assert!(q.denom().is_odd(), "even denominator in {q:?}");
    if q.is_zero() {
        assert!(q.denom().is_one() && q.k() == 0, "non-canonical zero {q:?}");
        return;
    }
    let g = q.numerator().content().gcd(&IBig::from(q.denom().clone()));
    assert!(
        g.is_one(),
        "denominator shares {g} with the content in {q:?}"
    );
    assert!(
        !q.numerator().divisible_by_sqrt2(),
        "k not minimal in {q:?}"
    );
}

fn qomega() -> impl Strategy<Value = Qomega> {
    (zomega(), -6i64..6, 1u64..50).prop_map(|(z, k, e)| Qomega::new(z, k, aq_bigint::UBig::from(e)))
}

/// A random unit of `D[ω]`: product of generators `1/√2`, `ω`, `ω+1`, `−1`.
fn unit() -> impl Strategy<Value = Domega> {
    prop::collection::vec(0usize..4, 0..5).prop_map(|gens| {
        let mut u = Domega::one();
        for g in gens {
            let f = match g {
                0 => Domega::one_over_sqrt2(),
                1 => Domega::omega(),
                2 => Domega::from(&Zomega::omega() + &Zomega::one()),
                _ => -Domega::one(),
            };
            u = &u * &f;
        }
        u
    })
}

fn close(a: Complex64, b: Complex64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn zomega_ring_axioms(x in zomega(), y in zomega(), z in zomega()) {
        prop_assert_eq!(&x + &y, &y + &x);
        prop_assert_eq!(&x * &y, &y * &x);
        prop_assert_eq!(&(&x + &y) * &z, &(&x * &z) + &(&y * &z));
        prop_assert_eq!(&(&x * &y) * &z, &x * &(&y * &z));
        prop_assert_eq!(&x - &x, Zomega::zero());
    }

    #[test]
    fn zomega_norm_multiplicative_and_positive(x in zomega(), y in zomega()) {
        prop_assert_eq!((&x * &y).norm(), &x.norm() * &y.norm());
        if !x.is_zero() {
            prop_assert!(x.norm().is_positive());
        }
    }

    #[test]
    fn zomega_mul_matches_complex(x in zomega(), y in zomega()) {
        let lhs = (&x * &y).to_complex64();
        let rhs = x.to_complex64() * y.to_complex64();
        prop_assert!(close(lhs, rhs), "{lhs:?} vs {rhs:?}");
    }

    #[test]
    fn euclidean_division_reduces(x in zomega(), y in zomega()) {
        prop_assume!(!y.is_zero());
        let (q, r) = x.div_rem(&y);
        prop_assert_eq!(&(&q * &y) + &r, x);
        prop_assert!(r.euclidean_value() < y.euclidean_value());
    }

    #[test]
    fn gcd_divides_inputs(x in zomega(), y in zomega()) {
        prop_assume!(!x.is_zero() || !y.is_zero());
        let g = x.gcd(&y);
        prop_assert!(!g.is_zero());
        prop_assert!(x.div_rem(&g).1.is_zero());
        prop_assert!(y.div_rem(&g).1.is_zero());
    }

    #[test]
    fn domega_canonical_k_minimal(x in domega()) {
        if !x.is_zero() {
            prop_assert!(!x.numerator().divisible_by_sqrt2());
        } else {
            prop_assert_eq!(x.k(), 0);
        }
    }

    #[test]
    fn domega_add_mul_match_complex(x in domega(), y in domega()) {
        prop_assert!(close((&x + &y).to_complex64(), x.to_complex64() + y.to_complex64()));
        prop_assert!(close((&x * &y).to_complex64(), x.to_complex64() * y.to_complex64()));
        prop_assert!(close((&x - &y).to_complex64(), x.to_complex64() - y.to_complex64()));
    }

    #[test]
    fn domega_equality_iff_difference_zero(x in domega(), y in domega()) {
        prop_assert_eq!(x == y, (&x - &y).is_zero());
    }

    #[test]
    fn qomega_field_axioms(x in qomega(), y in qomega()) {
        prop_assert_eq!(&(&x + &y) - &y, x.clone());
        if !y.is_zero() {
            prop_assert_eq!(&(&x * &y) / &y, x.clone());
            let inv = y.inverse().expect("nonzero");
            prop_assert_eq!(&y * &inv, Qomega::one());
        }
    }

    #[test]
    fn qomega_canonical_denominator(x in qomega()) {
        prop_assert!(x.denom().is_odd());
        if x.is_zero() {
            prop_assert!(x.denom().is_one());
            prop_assert_eq!(x.k(), 0);
        } else {
            // denominator coprime to the numerator content
            let g = x.numerator().content().gcd(&IBig::from(x.denom().clone()));
            prop_assert!(g.is_one() || x.denom().is_one());
        }
    }

    /// Reduction keeps an odd denominator coprime to the content whether
    /// the denominator starts at 1 or above it, and the form is unique:
    /// scaling numerator and denominator by a common odd factor reduces
    /// back to the same value.
    #[test]
    fn qomega_reduce_keeps_odd_denominator_coprime_to_content(
        z in wide_zomega(),
        w in wide_zomega(),
        k in -4i64..4,
        e in odd_denominator(),
        f in odd_denominator(),
        m in 0u64..200,
    ) {
        let x = Qomega::new(z.clone(), k, e.clone());
        let y = Qomega::new(w, -k, f);
        let mut results = vec![x.clone(), &x * &y, &x + &y, &x - &y, x.conj()];
        results.extend(y.inverse().map(|inv| &x * &inv));
        for q in &results {
            assert_canonical_qomega(q);
        }
        let m = UBig::from(2 * m + 1);
        let scaled = Qomega::new(z.mul_scalar(&IBig::from(m.clone())), k, &e * &m);
        prop_assert_eq!(scaled, x);
    }

    #[test]
    fn qomega_matches_complex(x in qomega(), y in qomega()) {
        prop_assert!(close((&x + &y).to_complex64(), x.to_complex64() + y.to_complex64()));
        prop_assert!(close((&x * &y).to_complex64(), x.to_complex64() * y.to_complex64()));
    }

    #[test]
    fn canonical_associate_unit_invariant(z in domega(), u in unit()) {
        prop_assume!(!z.is_zero());
        let (c1, u1) = canonical_associate(&z);
        let zu = &z * &u;
        let (c2, _) = canonical_associate(&zu);
        prop_assert_eq!(&c1, &c2, "canonical form must be unit-invariant");
        // and the decomposition reproduces the value
        prop_assert_eq!(&Domega::from(c1) * &u1, z);
    }

    #[test]
    fn canonical_associate_idempotent(z in domega()) {
        prop_assume!(!z.is_zero());
        let (c, _) = canonical_associate(&z);
        let (c2, u2) = canonical_associate(&Domega::from(c.clone()));
        prop_assert_eq!(c2, c);
        prop_assert!(u2.is_one());
    }

    #[test]
    fn boundary_repr_is_canonical_and_roundtrips(x in boundary_zomega()) {
        prop_assert!(x.repr_is_canonical());
        prop_assert_eq!(x.is_inline(), x.coeffs_i64().is_some());
        let [a, b, c, d] = x.coeffs();
        prop_assert_eq!(&Zomega::new(a, b, c, d), &x);
    }

    #[test]
    fn boundary_mul_matches_bigint_reference(x in boundary_zomega(), y in boundary_zomega()) {
        let p = &x * &y;
        prop_assert_eq!(p.coeffs(), reference_mul(&x, &y));
        prop_assert!(p.repr_is_canonical());
    }

    #[test]
    fn boundary_add_sub_neg_match_reference(x in boundary_zomega(), y in boundary_zomega()) {
        let xs = x.coeffs();
        let ys = y.coeffs();
        let sum = &x + &y;
        let diff = &x - &y;
        let neg = -&x;
        for i in 0..4 {
            prop_assert_eq!(&sum.coeffs()[i], &(&xs[i] + &ys[i]));
            prop_assert_eq!(&diff.coeffs()[i], &(&xs[i] - &ys[i]));
            prop_assert_eq!(&neg.coeffs()[i], &-&xs[i]);
        }
        prop_assert!(sum.repr_is_canonical());
        prop_assert!(diff.repr_is_canonical());
        prop_assert!(neg.repr_is_canonical());
    }

    #[test]
    fn boundary_conj_and_norm_agree_with_heap_form(x in boundary_zomega()) {
        // ω̄ = −ω³ gives conj(aω³ + bω² + cω + d) = −cω³ − bω² − aω + d
        let [a, b, c, d] = x.coeffs();
        let conj = x.conj();
        prop_assert_eq!(conj.coeffs(), [-&c, -&b, -&a, d]);
        prop_assert!(conj.repr_is_canonical());
        // N(z) = z·z̄ = u + v√2, which embeds as −vω³ + vω + u
        let n = x.norm();
        let prod = &x * &conj;
        prop_assert_eq!(prod.coeffs(), [-&n.v, IBig::zero(), n.v.clone(), n.u.clone()]);
    }

    #[test]
    fn boundary_div_sqrt2_roundtrips(x in boundary_zomega()) {
        match x.div_sqrt2() {
            Some(half) => {
                prop_assert!(half.repr_is_canonical());
                prop_assert_eq!(half.mul_sqrt2(), x.clone());
            }
            None => prop_assert!(!x.divisible_by_sqrt2()),
        }
        // ·√2 then /√2 is always the identity, across the repr boundary
        let doubled = x.mul_sqrt2();
        prop_assert!(doubled.repr_is_canonical());
        prop_assert_eq!(doubled.div_sqrt2().expect("multiple of sqrt2"), x);
    }

    #[test]
    fn boundary_cancellation_demotes(x in boundary_zomega(), y in zomega()) {
        // (x + y) − x recovers y exactly, landing back on y's (inline) repr
        let back = &(&x + &y) - &x;
        prop_assert_eq!(&back, &y);
        prop_assert_eq!(back.is_inline(), y.is_inline());
        prop_assert!(back.repr_is_canonical());
    }

    #[test]
    fn boundary_domega_reduces(x in boundary_zomega(), k in -6i64..6) {
        let d = Domega::new(x, k);
        prop_assert!(d.is_reduced());
    }

    #[test]
    fn conj_mul_compatible(x in domega(), y in domega()) {
        prop_assert_eq!((&x * &y).conj(), &x.conj() * &y.conj());
        let n = x.norm_sqr().to_complex64();
        prop_assert!(n.im.abs() < 1e-9);
        prop_assert!(n.re >= -1e-9);
    }
}
