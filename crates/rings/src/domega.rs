//! The ring `D[ω] = Z[i, 1/√2]` with unique minimal-exponent representation.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

use aq_bigint::IBig;

use crate::{Complex64, Zomega};

/// An element of `D[ω]`, the ring of complex numbers realisable exactly by
/// Clifford+T circuits:
///
/// ```text
///   α = (a·ω³ + b·ω² + c·ω + d) / √2^k
/// ```
///
/// The representation is kept **canonical** at all times using the paper's
/// Algorithm 1: the denominator exponent `k` is minimal, i.e. the numerator
/// is not divisible by `√2` (zero is stored as `0 / √2⁰`). Structural
/// equality is therefore value equality, and `Hash` is consistent.
///
/// # Examples
///
/// ```
/// use aq_rings::Domega;
///
/// // Example 6/7 of the paper: √2 canonicalises to k = −1.
/// let sqrt2 = Domega::sqrt2();
/// assert_eq!(sqrt2.k(), -1);
/// let (h, _) = (Domega::one_over_sqrt2(), ());
/// assert_eq!(&sqrt2 * &h, Domega::one());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Domega {
    num: Zomega,
    k: i64,
}

impl Domega {
    /// Creates `num / √2^k` and canonicalises to the minimal denominator
    /// exponent (Algorithm 1 of the paper).
    pub fn new(num: Zomega, k: i64) -> Self {
        let mut v = Domega { num, k };
        v.reduce();
        v
    }

    /// The value `0`.
    pub fn zero() -> Self {
        Domega {
            num: Zomega::zero(),
            k: 0,
        }
    }

    /// The value `1`.
    pub fn one() -> Self {
        Domega {
            num: Zomega::one(),
            k: 0,
        }
    }

    /// The rational integer `n` (canonicalised: e.g. `2 = 1/√2⁻²`).
    pub fn from_int(n: i64) -> Self {
        Domega::new(Zomega::from_int(n), 0)
    }

    /// `ω = e^{iπ/4}`.
    pub fn omega() -> Self {
        Domega {
            num: Zomega::omega(),
            k: 0,
        }
    }

    /// The imaginary unit `i`.
    pub fn i() -> Self {
        Domega {
            num: Zomega::i(),
            k: 0,
        }
    }

    /// `√2` (canonically `1 / √2⁻¹`, Example 7 of the paper).
    pub fn sqrt2() -> Self {
        Domega::new(Zomega::sqrt2(), 0)
    }

    /// `1/√2`, the ubiquitous Hadamard factor.
    pub fn one_over_sqrt2() -> Self {
        Domega {
            num: Zomega::one(),
            k: 1,
        }
    }

    /// `1 + i√2`, the running example (Example 8) of the paper.
    pub fn one_plus_i_sqrt2() -> Self {
        // i√2 = ω² (ω − ω³) = ω³ − ω⁵ = ω³ + ω
        Domega::new(
            Zomega::new(IBig::one(), IBig::zero(), IBig::one(), IBig::one()),
            0,
        )
    }

    /// The numerator (not divisible by `√2` unless zero).
    pub fn numerator(&self) -> &Zomega {
        &self.num
    }

    /// The minimal denominator exponent `k_min`.
    pub fn k(&self) -> i64 {
        self.k
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        self.k == 0 && self.num.is_one()
    }

    /// Algorithm 1 of the paper: divide the numerator by `√2` while the
    /// parity criterion (`a ≡ c` and `b ≡ d (mod 2)`) holds, decrementing
    /// `k` — terminates because the Euclidean value shrinks by 4 each step.
    fn reduce(&mut self) {
        if self.num.is_zero() {
            self.k = 0;
            return;
        }
        while let Some(div) = self.num.div_sqrt2() {
            self.num = div;
            self.k -= 1;
        }
    }

    /// Multiplies by `√2^m` (negative `m` divides). Exact in `D[ω]`.
    pub fn mul_sqrt2_pow(&self, m: i64) -> Domega {
        if self.is_zero() {
            return Domega::zero();
        }
        Domega {
            num: self.num.clone(),
            k: self.k - m,
        }
    }

    /// Divides by `√2^m` (the inverse of [`Domega::mul_sqrt2_pow`]).
    pub fn div_sqrt2_pow(&self, m: i64) -> Domega {
        self.mul_sqrt2_pow(-m)
    }

    /// Complex conjugate.
    pub fn conj(&self) -> Domega {
        Domega {
            num: self.num.conj(),
            k: self.k,
        }
    }

    /// Returns `true` if the value is in the canonical reduced form every
    /// constructor produces: the denominator exponent `k` is minimal (the
    /// numerator is not divisible by `√2`; zero has `k = 0`) and the
    /// numerator's coefficient representation is canonical.
    ///
    /// Always `true` for values built through the public API — the check
    /// exists so the engine's invariant validator can prove that no pending
    /// (lazily deferred) normalization state ever escapes into an interned
    /// weight.
    pub fn is_reduced(&self) -> bool {
        let k_minimal = if self.num.is_zero() {
            self.k == 0
        } else {
            !self.num.divisible_by_sqrt2()
        };
        k_minimal && self.num.repr_is_canonical()
    }

    /// The squared absolute value `|α|² = α·ᾱ` as a real element of `D[√2]`
    /// represented in `D[ω]`.
    pub fn norm_sqr(&self) -> Domega {
        self * &self.conj()
    }

    /// Maximum bit length over the four coefficients — the quantity whose
    /// growth explains the GSE overhead in Fig. 5 of the paper.
    pub fn coeff_bits(&self) -> u64 {
        self.num.coeff_bits()
    }

    /// Exact equality with an integer-free check against `Zomega` scaled
    /// values is structural thanks to canonicity; this helper tests
    /// equality with `ω^j` for phase bookkeeping.
    pub fn is_power_of_omega(&self) -> Option<u8> {
        if self.k != 0 {
            return None;
        }
        let mut w = Zomega::one();
        for j in 0..8u8 {
            if self.num == w {
                return Some(j);
            }
            w = w.mul_omega();
        }
        None
    }

    /// Evaluates to a complex double using arbitrary-precision fixed-point
    /// arithmetic (no intermediate overflow or cancellation).
    pub fn to_complex64(&self) -> Complex64 {
        crate::eval::zomega_to_complex(&self.num, self.k, &aq_bigint::UBig::one())
    }
}

impl From<Zomega> for Domega {
    fn from(num: Zomega) -> Self {
        Domega::new(num, 0)
    }
}

impl Add<&Domega> for &Domega {
    type Output = Domega;
    fn add(self, rhs: &Domega) -> Domega {
        // Align to the larger exponent: num/√2^k + num'/√2^k' with k ≤ k'
        // becomes (num·√2^(k'−k) + num') / √2^k'.
        let (lo, hi) = if self.k <= rhs.k {
            (self, rhs)
        } else {
            (rhs, self)
        };
        let sum = match hi.k.abs_diff(lo.k) {
            0 => &lo.num + &hi.num,
            gap => &lo.num.mul_sqrt2_pow(gap) + &hi.num,
        };
        Domega::new(sum, hi.k)
    }
}

impl Sub<&Domega> for &Domega {
    type Output = Domega;
    fn sub(self, rhs: &Domega) -> Domega {
        self + &-rhs
    }
}

impl Mul<&Domega> for &Domega {
    type Output = Domega;
    fn mul(self, rhs: &Domega) -> Domega {
        Domega::new(&self.num * &rhs.num, self.k + rhs.k)
    }
}

impl Neg for &Domega {
    type Output = Domega;
    fn neg(self) -> Domega {
        Domega {
            num: -&self.num,
            k: self.k,
        }
    }
}

impl Neg for Domega {
    type Output = Domega;
    fn neg(self) -> Domega {
        -&self
    }
}

impl fmt::Debug for Domega {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Domega(({}) / sqrt2^{})", self.num, self.k)
    }
}

impl fmt::Display for Domega {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.k == 0 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "({}) / sqrt2^{}", self.num, self.k)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dw(a: i64, b: i64, c: i64, d: i64, k: i64) -> Domega {
        Domega::new(Zomega::new(a.into(), b.into(), c.into(), d.into()), k)
    }

    #[test]
    fn constructed_values_are_reduced_and_pending_state_is_not() {
        assert!(dw(0, 0, 0, 0, 5).is_reduced()); // zero collapses to k = 0
        assert!(dw(1, 1, 1, 1, 3).is_reduced());
        assert!(Domega::one_over_sqrt2().is_reduced());
        // hand-build the pending state `2/√2²` that `reduce` must never leak
        let pending = Domega {
            num: Zomega::from_int(2),
            k: 2,
        };
        assert!(!pending.is_reduced());
        assert!(Domega::new(pending.num.clone(), pending.k).is_reduced());
    }

    #[test]
    fn example_7_sqrt2_has_k_minus_1() {
        // √2 given as (−ω³ + ω)/√2⁰ must canonicalise to 1/√2⁻¹.
        let s = dw(-1, 0, 1, 0, 0);
        assert_eq!(s.k(), -1);
        assert_eq!(*s.numerator(), Zomega::one());
        assert_eq!(s, Domega::sqrt2());
    }

    #[test]
    fn non_minimal_representations_collapse() {
        // 2/√2² == 1
        assert_eq!(dw(0, 0, 0, 2, 2), Domega::one());
        // (2ω)/√2² == ω
        assert_eq!(dw(0, 0, 2, 0, 2), Domega::omega());
        // zero with junk exponent
        assert_eq!(dw(0, 0, 0, 0, 5), Domega::zero());
        assert_eq!(dw(0, 0, 0, 0, 5).k(), 0);
    }

    #[test]
    fn canonical_numerator_not_divisible() {
        let v = dw(6, 2, 4, 8, 3);
        assert!(!v.numerator().divisible_by_sqrt2() || v.is_zero());
    }

    #[test]
    fn hadamard_factor_squares_to_half() {
        let h = Domega::one_over_sqrt2();
        let half = &h * &h;
        assert_eq!(half, dw(0, 0, 0, 1, 2));
        assert_eq!(half.k(), 2);
        // and 2·(1/2) = 1
        assert_eq!(&half + &half, Domega::one());
    }

    #[test]
    fn addition_aligns_exponents() {
        // 1/√2 + 1/√2 = √2
        let h = Domega::one_over_sqrt2();
        assert_eq!(&h + &h, Domega::sqrt2());
        // 1 + (−1) = 0
        assert_eq!(&Domega::one() + &-&Domega::one(), Domega::zero());
        // 1 + 1/√2: stays at k = 1
        let x = &Domega::one() + &h;
        assert_eq!(x.k(), 1);
    }

    #[test]
    fn addition_aligns_wide_exponent_gaps() {
        // Gaps past 128 leave `mul_sqrt2_pow`'s inline shift; compare with
        // alignment one √2 at a time.
        let wide = Zomega::new(
            &IBig::from(5) << 70,
            IBig::from(-3),
            IBig::from(1),
            IBig::from(2),
        );
        for lo in [
            dw(3, -1, 4, 1, -2),
            dw(-7, 0, 1, 2, 0),
            Domega::new(wide, 1),
        ] {
            for gap in [0, 1, 2, 63, 64, 127, 128, 129, 130, 131, 200] {
                let hi = dw(1, 2, -5, 7, lo.k() + gap);
                assert_eq!(hi.k(), lo.k() + gap);
                let mut scaled = lo.numerator().clone();
                for _ in 0..gap {
                    scaled = scaled.mul_sqrt2();
                }
                let expected = Domega::new(&scaled + hi.numerator(), hi.k());
                assert_eq!(&lo + &hi, expected, "gap {gap}");
                assert_eq!(&hi + &lo, expected, "gap {gap}");
            }
        }
    }

    #[test]
    fn mixed_exponent_arithmetic_matches_f64() {
        let x = dw(1, -2, 3, 1, 3);
        let y = dw(0, 1, 1, -1, -2);
        let sum = (&x + &y).to_complex64();
        let fx = x.to_complex64();
        let fy = y.to_complex64();
        assert!((sum.re - (fx.re + fy.re)).abs() < 1e-12);
        assert!((sum.im - (fx.im + fy.im)).abs() < 1e-12);
        let prod = (&x * &y).to_complex64();
        let pf = fx * fy;
        assert!((prod.re - pf.re).abs() < 1e-12);
        assert!((prod.im - pf.im).abs() < 1e-12);
    }

    #[test]
    fn conj_and_norm() {
        let x = Domega::one_plus_i_sqrt2();
        let n = x.norm_sqr();
        // |1 + i√2|² = 3
        assert_eq!(n, Domega::from_int(3));
    }

    #[test]
    fn omega_power_detection() {
        assert_eq!(Domega::one().is_power_of_omega(), Some(0));
        assert_eq!(Domega::omega().is_power_of_omega(), Some(1));
        assert_eq!(Domega::i().is_power_of_omega(), Some(2));
        assert_eq!((-Domega::one()).is_power_of_omega(), Some(4));
        assert_eq!(Domega::sqrt2().is_power_of_omega(), None);
        assert_eq!(Domega::from_int(3).is_power_of_omega(), None);
    }

    #[test]
    fn sqrt2_pow_shifts() {
        let x = Domega::one();
        assert_eq!(x.mul_sqrt2_pow(2), Domega::from_int(2));
        assert_eq!(x.mul_sqrt2_pow(-2), dw(0, 0, 0, 1, 2));
        assert_eq!(Domega::zero().mul_sqrt2_pow(5), Domega::zero());
    }

    #[test]
    fn coeff_bits_tracks_growth() {
        let mut x = Domega::one_plus_i_sqrt2();
        let start = x.coeff_bits();
        for _ in 0..10 {
            x = &x * &Domega::one_plus_i_sqrt2();
        }
        assert!(x.coeff_bits() > start + 5);
    }
}
