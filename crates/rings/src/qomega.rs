//! The cyclotomic field `Q[ω]`, algebraic closure of `D[ω]` under division.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

use aq_bigint::{IBig, UBig};

use crate::{Complex64, Domega, Zomega};

/// An element of the cyclotomic field `Q[ω]`, represented as
///
/// ```text
///   q = (a·ω³ + b·ω² + c·ω + d) / (√2^k · e)
/// ```
///
/// in the unique form required by Sec. IV-B(2) of the paper: `e` is an odd
/// **positive** integer coprime to `gcd(a,b,c,d)`, and `k` is the minimal
/// denominator exponent (the numerator is not divisible by `√2`).
/// Structural equality is value equality.
///
/// `Q[ω]` is a field, so the first normalization scheme of the paper
/// (Algorithm 2) can divide by *any* non-zero edge weight via
/// [`Qomega::inverse`].
///
/// # Examples
///
/// ```
/// use aq_rings::{Domega, Qomega};
///
/// let third = Qomega::from_int_ratio(1, 3);
/// assert_eq!(&(&third + &third) + &third, Qomega::one());
/// assert_eq!(third.inverse().expect("nonzero"), Qomega::from_int(3));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Qomega {
    num: Zomega,
    k: i64,
    /// Odd positive denominator, coprime to the content of `num`.
    denom: UBig,
}

impl Qomega {
    /// Creates `num / (√2^k · denom)` and canonicalises.
    ///
    /// # Panics
    ///
    /// Panics if `denom` is zero.
    pub fn new(num: Zomega, k: i64, denom: UBig) -> Self {
        assert!(!denom.is_zero(), "Qomega denominator must be non-zero");
        let mut q = Qomega { num, k, denom };
        q.reduce();
        q
    }

    /// The value `0`.
    pub fn zero() -> Self {
        Qomega {
            num: Zomega::zero(),
            k: 0,
            denom: UBig::one(),
        }
    }

    /// The value `1`.
    pub fn one() -> Self {
        Qomega {
            num: Zomega::one(),
            k: 0,
            denom: UBig::one(),
        }
    }

    /// The rational integer `n`.
    pub fn from_int(n: i64) -> Self {
        Qomega::from(Domega::from_int(n))
    }

    /// The rational `p / q`.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`.
    pub fn from_int_ratio(p: i64, q: i64) -> Self {
        assert!(q != 0, "zero denominator");
        let num = Zomega::from_int(if q < 0 { -p } else { p });
        Qomega::new(num, 0, UBig::from(q.unsigned_abs()))
    }

    /// The numerator.
    pub fn numerator(&self) -> &Zomega {
        &self.num
    }

    /// The `√2` denominator exponent.
    pub fn k(&self) -> i64 {
        self.k
    }

    /// The odd positive integer denominator.
    pub fn denom(&self) -> &UBig {
        &self.denom
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        self.k == 0 && self.denom.is_one() && self.num.is_one()
    }

    /// Returns the value as a [`Domega`] if the odd denominator is 1.
    pub fn to_domega(&self) -> Option<Domega> {
        if self.denom.is_one() {
            Some(Domega::new(self.num.clone(), self.k))
        } else {
            None
        }
    }

    fn reduce(&mut self) {
        if self.num.is_zero() {
            self.k = 0;
            self.denom = UBig::one();
            return;
        }
        // Split powers of two out of the denominator into the √2 exponent:
        // e = 2^t·e' ⟹ 1/e = 1/(√2^{2t}·e').
        if let Some(t) = self.denom.trailing_zeros() {
            if t > 0 {
                self.denom = self.denom.shr_bits(t);
                self.k += 2 * t as i64;
            }
        }
        // Minimal √2 exponent (Algorithm 1).
        while let Some(div) = self.num.div_sqrt2() {
            self.num = div;
            self.k -= 1;
        }
        // Coprime odd denominator: strip gcd(e, a, b, c, d) — by
        // associativity gcd(content, e), but folded from e so it stops as
        // soon as it reaches 1, and skipped when e already is 1.
        if self.denom.is_one() {
            return;
        }
        let g = self.num.content_gcd(&self.denom);
        if !g.is_one() {
            let gi = IBig::from(g.clone());
            self.num = self.num.div_scalar_exact(&gi);
            self.denom = &self.denom / &g;
        }
    }

    /// Complex conjugate.
    pub fn conj(&self) -> Qomega {
        Qomega {
            num: self.num.conj(),
            k: self.k,
            denom: self.denom.clone(),
        }
    }

    /// The multiplicative inverse, or `None` for zero.
    ///
    /// Constructed as in the paper (Sec. IV-B(2) / Example 8):
    /// with `N(z) = z·z̄ = u + v√2`, the inverse of the norm is
    /// `(u − v√2)/(u² − 2v²)`, so `z⁻¹ = z̄·(u − v√2)/(u² − 2v²)`.
    pub fn inverse(&self) -> Option<Qomega> {
        if self.is_zero() {
            return None;
        }
        let n = self.num.norm();
        let field_norm = n.field_norm(); // u² − 2v², non-zero
                                         // (u − v√2) as a Z[ω] element: u + v(ω³ − ω).
        let sigma = Zomega::new(n.v.clone(), IBig::zero(), -&n.v, n.u.clone());
        let mut inv_num = (&self.num.conj() * &sigma).mul_scalar(&IBig::from(self.denom.clone()));
        if field_norm.is_negative() {
            inv_num = -&inv_num;
        }
        let mag = field_norm.abs().into_magnitude();
        // mag = 2^t · odd: powers of two go to the √2 exponent.
        // aq-lint: allow(R1): field norm of a non-zero element is non-zero
        let t = mag.trailing_zeros().expect("nonzero");
        let odd = mag.shr_bits(t);
        Some(Qomega::new(inv_num, 2 * t as i64 - self.k, odd))
    }

    /// Maximum bit length over numerator coefficients and denominator —
    /// the growth metric reported for Fig. 5.
    pub fn coeff_bits(&self) -> u64 {
        self.num
            .coeffs()
            .iter()
            .map(|c| c.bit_len())
            .max()
            .unwrap_or(0)
            .max(self.denom.bit_len())
    }

    /// Evaluates to a complex double using arbitrary-precision fixed-point
    /// arithmetic.
    pub fn to_complex64(&self) -> Complex64 {
        crate::eval::zomega_to_complex(&self.num, self.k, &self.denom)
    }
}

impl From<Domega> for Qomega {
    fn from(d: Domega) -> Self {
        Qomega {
            num: d.numerator().clone(),
            k: d.k(),
            denom: UBig::one(),
        }
    }
}

impl From<Zomega> for Qomega {
    fn from(z: Zomega) -> Self {
        Qomega::new(z, 0, UBig::one())
    }
}

impl Add<&Qomega> for &Qomega {
    type Output = Qomega;
    #[allow(clippy::suspicious_arithmetic_impl)] // denominator alignment needs / and −
    fn add(self, rhs: &Qomega) -> Qomega {
        if self.is_zero() {
            return rhs.clone();
        }
        if rhs.is_zero() {
            return self.clone();
        }
        let target_k = self.k.max(rhs.k);
        let l = self.denom.lcm(&rhs.denom);
        let scale = |q: &Qomega| -> Zomega {
            let s = IBig::from(&l / &q.denom);
            q.num.mul_sqrt2_pow((target_k - q.k) as u64).mul_scalar(&s)
        };
        Qomega::new(&scale(self) + &scale(rhs), target_k, l)
    }
}

impl Sub<&Qomega> for &Qomega {
    type Output = Qomega;
    fn sub(self, rhs: &Qomega) -> Qomega {
        self + &-rhs
    }
}

impl Mul<&Qomega> for &Qomega {
    type Output = Qomega;
    fn mul(self, rhs: &Qomega) -> Qomega {
        Qomega::new(
            &self.num * &rhs.num,
            self.k + rhs.k,
            &self.denom * &rhs.denom,
        )
    }
}

impl Div<&Qomega> for &Qomega {
    type Output = Qomega;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[allow(clippy::suspicious_arithmetic_impl)] // division = multiplication by the inverse
    fn div(self, rhs: &Qomega) -> Qomega {
        // aq-lint: allow(R1): documented panicking operator, mirroring std integer Div
        self * &rhs.inverse().expect("division by zero in Q[omega]")
    }
}

impl Neg for &Qomega {
    type Output = Qomega;
    fn neg(self) -> Qomega {
        Qomega {
            num: -&self.num,
            k: self.k,
            denom: self.denom.clone(),
        }
    }
}

impl Neg for Qomega {
    type Output = Qomega;
    fn neg(self) -> Qomega {
        -&self
    }
}

impl fmt::Debug for Qomega {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Qomega(({}) / (sqrt2^{} * {}))",
            self.num, self.k, self.denom
        )
    }
}

impl fmt::Display for Qomega {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.k == 0 && self.denom.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "({}) / (sqrt2^{} * {})", self.num, self.k, self.denom)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qi(n: i64) -> Qomega {
        Qomega::from_int(n)
    }

    #[test]
    fn canonical_form_invariants() {
        // 6/10 reduces to 3/5
        let q = Qomega::from_int_ratio(6, 10);
        assert_eq!(q, Qomega::from_int_ratio(3, 5));
        assert!(q.denom().is_odd());
        // powers of two move into the √2 exponent: 1/4 has k = 4, e = 1
        let quarter = Qomega::from_int_ratio(1, 4);
        assert_eq!(quarter.k(), 4);
        assert!(quarter.denom().is_one());
        // negative rational denominator flips sign into the numerator
        assert_eq!(
            Qomega::from_int_ratio(1, -3),
            -&Qomega::from_int_ratio(1, 3)
        );
    }

    #[test]
    fn example_8_inverse_of_one_plus_i_sqrt2() {
        // z = 1 + i√2, N(z) = 3, z⁻¹ = (1 − i√2)/3
        let z = Qomega::from(Domega::one_plus_i_sqrt2());
        let inv = z.inverse().expect("nonzero");
        assert_eq!(*inv.denom(), UBig::from(3u64));
        assert_eq!(inv.k(), 0);
        assert_eq!(
            *inv.numerator(),
            Domega::one_plus_i_sqrt2().numerator().conj()
        );
        assert_eq!(&z * &inv, Qomega::one());
    }

    #[test]
    fn field_axioms_small() {
        let vals = [
            qi(2),
            Qomega::from_int_ratio(3, 5),
            Qomega::from(Domega::one_over_sqrt2()),
            Qomega::from(Domega::omega()),
            &Qomega::from(Domega::one_plus_i_sqrt2()) * &Qomega::from_int_ratio(-7, 9),
        ];
        for x in &vals {
            for y in &vals {
                assert_eq!(&(x + y) - y, *x);
                if !y.is_zero() {
                    assert_eq!(&(x * y) / y, *x);
                }
            }
        }
    }

    #[test]
    fn inverse_of_zero_is_none() {
        assert_eq!(Qomega::zero().inverse(), None);
    }

    #[test]
    fn inverse_with_negative_field_norm() {
        // λ = 1 + √2 has field norm −1; its inverse is √2 − 1.
        let lambda = Qomega::from(&Domega::one() + &Domega::sqrt2());
        let inv = lambda.inverse().expect("unit");
        assert_eq!(&lambda * &inv, Qomega::one());
        assert_eq!(inv, Qomega::from(&Domega::sqrt2() - &Domega::one()));
    }

    #[test]
    fn odd_denominators_multiply_and_reduce() {
        let a = Qomega::from_int_ratio(1, 3);
        let b = Qomega::from_int_ratio(1, 5);
        let p = &a * &b;
        assert_eq!(p, Qomega::from_int_ratio(1, 15));
        assert_eq!(&p * &qi(15), Qomega::one());
        // (1/3) * 3 = 1 restores denominator 1
        assert_eq!(&a * &qi(3), Qomega::one());
    }

    #[test]
    fn add_with_mixed_k_and_denoms() {
        // 1/√2 + 1/3
        let h = Qomega::from(Domega::one_over_sqrt2());
        let third = Qomega::from_int_ratio(1, 3);
        let s = &h + &third;
        let c = s.to_complex64();
        assert!((c.re - (1.0 / 2f64.sqrt() + 1.0 / 3.0)).abs() < 1e-12);
        assert!(c.im.abs() < 1e-12);
        // subtracting back recovers the inputs exactly
        assert_eq!(&s - &third, h);
        assert_eq!(&s - &h, third);
    }

    #[test]
    fn conj_fixed_points_and_involution() {
        let q = &Qomega::from(Domega::omega()) * &Qomega::from_int_ratio(2, 7);
        assert_eq!(q.conj().conj(), q);
        let real = Qomega::from_int_ratio(5, 9);
        assert_eq!(real.conj(), real);
    }

    #[test]
    fn to_domega_boundary() {
        assert!(Qomega::from_int_ratio(1, 3).to_domega().is_none());
        let d = Qomega::from(Domega::one_over_sqrt2())
            .to_domega()
            .expect("denominator 1");
        assert_eq!(d, Domega::one_over_sqrt2());
    }
}
