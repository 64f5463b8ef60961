//! Display formatting and conversion-path tests for the ring types.

use aq_bigint::IBig;
use aq_rings::{Complex64, Domega, Qomega, Zomega, Zroot2};

#[test]
fn zomega_display() {
    let z = Zomega::new(IBig::from(-1), IBig::zero(), IBig::from(2), IBig::from(3));
    assert_eq!(z.to_string(), "-1w3 + 0w2 + 2w + 3");
}

#[test]
fn zroot2_display_and_debug() {
    let x = Zroot2::new(IBig::from(4), IBig::from(-1));
    assert_eq!(x.to_string(), "4 + -1*sqrt2");
    assert!(format!("{x:?}").contains("Zroot2"));
}

#[test]
fn domega_display_shows_denominator_only_when_present() {
    assert_eq!(Domega::from_int(1).to_string(), "0w3 + 0w2 + 0w + 1");
    let h = Domega::one_over_sqrt2();
    assert_eq!(h.to_string(), "(0w3 + 0w2 + 0w + 1) / sqrt2^1");
}

#[test]
fn qomega_display_roundtrips_meaning() {
    let q = Qomega::from_int_ratio(3, 5);
    assert_eq!(q.to_string(), "(0w3 + 0w2 + 0w + 3) / (sqrt2^0 * 5)");
    assert_eq!(Qomega::one().to_string(), "0w3 + 0w2 + 0w + 1");
}

#[test]
fn conversion_chain_is_lossless() {
    // IBig -> Zomega -> Domega -> Qomega -> Complex64
    let z = Zomega::new(IBig::from(7), IBig::from(-3), IBig::from(2), IBig::from(11));
    let d = Domega::from(z.clone());
    let q = Qomega::from(d.clone());
    assert_eq!(q.to_domega().expect("unit denominator"), d);
    let c1 = z.to_complex64();
    let c2 = q.to_complex64();
    assert!((c1 - c2).abs() < 1e-12);
}

#[test]
fn complex_display() {
    let c = Complex64::new(1.5, -0.25);
    assert_eq!(c.to_string(), "1.5-0.25i");
    assert_eq!(format!("{c:?}"), "(1.5-0.25i)");
}

#[test]
fn from_int_ratio_sign_handling() {
    assert_eq!(Qomega::from_int_ratio(-3, -5), Qomega::from_int_ratio(3, 5));
    assert_eq!(Qomega::from_int_ratio(0, 7), Qomega::zero());
}

#[test]
#[should_panic(expected = "zero denominator")]
fn from_int_ratio_rejects_zero_denominator() {
    let _ = Qomega::from_int_ratio(1, 0);
}

#[test]
fn zomega_scalar_helpers() {
    let z = Zomega::new(IBig::from(6), IBig::from(-9), IBig::from(12), IBig::from(3));
    assert_eq!(z.content(), IBig::from(3));
    let scaled = z.mul_scalar(&IBig::from(2));
    assert_eq!(scaled.content(), IBig::from(6));
    let back = scaled.div_scalar_exact(&IBig::from(2));
    assert_eq!(back, z);
    // √2-power helper agrees with repeated multiplication
    let via_pow = z.mul_sqrt2_pow(3);
    let via_mul = z.mul_sqrt2().mul_sqrt2().mul_sqrt2();
    assert_eq!(via_pow, via_mul);
}

#[test]
#[should_panic(expected = "not divisible")]
fn zomega_scalar_division_rejects_an_inexact_scalar() {
    // inline i64 coefficients are checked like heap ones, in every build
    let z = Zomega::new(IBig::from(6), IBig::from(-9), IBig::from(12), IBig::from(3));
    let _ = z.div_scalar_exact(&IBig::from(2));
}

#[test]
fn domega_coeff_bits_and_pow_tracking() {
    let small = Domega::one();
    assert_eq!(small.coeff_bits(), 1);
    // odd numerator so canonicalization cannot strip it into the exponent
    let big = &(&IBig::from(1) << 100) + &IBig::from(1);
    let q = Qomega::new(
        Zomega::new(IBig::zero(), IBig::zero(), IBig::zero(), big),
        0,
        3u64.into(),
    );
    assert!(q.coeff_bits() >= 100);
}
