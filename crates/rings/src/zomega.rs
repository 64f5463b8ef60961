//! The ring of cyclotomic integers `Z[ω]`, `ω = e^{iπ/4}`.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

use aq_bigint::{IBig, UBig};

use crate::Zroot2;

/// Internal representation of the four coefficients.
///
/// # Canonical representation
///
/// Every value has exactly **one** representation: `Small` whenever all four
/// coefficients fit `i64`, `Big` otherwise. Every constructor enforces this
/// (promotion on checked-overflow, demotion after wide arithmetic), so the
/// derived `PartialEq`/`Hash` are structural *and* value-consistent — the
/// same contract as the inline ≤2-limb `UBig` representation this mirrors.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// All four coefficients fit `i64` — the overwhelmingly common case for
    /// circuit weights, handled with native `i64`/`i128` arithmetic.
    Small([i64; 4]),
    /// At least one coefficient exceeds the `i64` range (canonical: never
    /// constructed otherwise). Boxed to keep `Zomega` one word plus a tag.
    Big(Box<[IBig; 4]>),
}

/// A cyclotomic integer `a·ω³ + b·ω² + c·ω + d` with `ω = e^{iπ/4}`.
///
/// `ω` is a primitive 8-th root of unity, so `ω⁴ = −1`, `ω² = i` and
/// `√2 = ω − ω³`. The coefficient order `(a, b, c, d)` follows the paper.
///
/// `Z[ω]` is a **Euclidean ring** (Sec. IV-B of the paper): division with
/// remainder ([`Zomega::div_rem`]) and greatest common divisors
/// ([`Zomega::gcd`]) exist, which is what makes the GCD normalization
/// scheme of algebraic QMDDs possible.
///
/// Coefficients are stored inline as `i64` while they fit (with
/// checked-overflow promotion to arbitrary precision), so the common
/// small-coefficient case never touches heap bigints.
///
/// # Examples
///
/// ```
/// use aq_rings::Zomega;
///
/// let omega = Zomega::omega();
/// assert_eq!(omega.pow(8), Zomega::one());
/// assert_eq!(omega.pow(4), -&Zomega::one());
/// // √2 = ω − ω³
/// let sqrt2 = &omega - &omega.pow(3);
/// assert_eq!(&sqrt2 * &sqrt2, Zomega::from_int(2));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Zomega {
    repr: Repr,
}

/// `gcd` on unsigned magnitudes (Euclid; `gcd(x, 0) = x`).
fn gcd_u64(mut x: u64, mut y: u64) -> u64 {
    while y != 0 {
        let r = x % y;
        x = y;
        y = r;
    }
    x
}

impl Zomega {
    /// Creates `a·ω³ + b·ω² + c·ω + d`.
    pub fn new(a: IBig, b: IBig, c: IBig, d: IBig) -> Self {
        Self::canonical([a, b, c, d])
    }

    /// Builds the canonical representation from big coefficients, demoting
    /// to the inline form when all four fit `i64`.
    fn canonical(coords: [IBig; 4]) -> Self {
        if let (Some(a), Some(b), Some(c), Some(d)) = (
            coords[0].to_i64(),
            coords[1].to_i64(),
            coords[2].to_i64(),
            coords[3].to_i64(),
        ) {
            Zomega::from_small([a, b, c, d])
        } else {
            Zomega {
                repr: Repr::Big(Box::new(coords)),
            }
        }
    }

    /// Builds directly from inline coefficients (always canonical).
    fn from_small(s: [i64; 4]) -> Self {
        Zomega {
            repr: Repr::Small(s),
        }
    }

    /// Builds from `i128` intermediates, demoting when all fit `i64`.
    fn from_i128s(v: [i128; 4]) -> Self {
        match (
            i64::try_from(v[0]),
            i64::try_from(v[1]),
            i64::try_from(v[2]),
            i64::try_from(v[3]),
        ) {
            (Ok(a), Ok(b), Ok(c), Ok(d)) => Zomega::from_small([a, b, c, d]),
            _ => Zomega {
                repr: Repr::Big(Box::new([
                    IBig::from(v[0]),
                    IBig::from(v[1]),
                    IBig::from(v[2]),
                    IBig::from(v[3]),
                ])),
            },
        }
    }

    /// The value `0`.
    pub fn zero() -> Self {
        Zomega::from_small([0, 0, 0, 0])
    }

    /// The value `1`.
    pub fn one() -> Self {
        Zomega::from_small([0, 0, 0, 1])
    }

    /// The rational integer `n`.
    pub fn from_int(n: i64) -> Self {
        Zomega::from_small([0, 0, 0, n])
    }

    /// The generator `ω = e^{iπ/4}`.
    pub fn omega() -> Self {
        Zomega::from_small([0, 0, 1, 0])
    }

    /// The imaginary unit `i = ω²`.
    pub fn i() -> Self {
        Zomega::from_small([0, 1, 0, 0])
    }

    /// `√2 = ω − ω³`.
    pub fn sqrt2() -> Self {
        Zomega::from_small([-1, 0, 1, 0])
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        // Zero fits i64, so (canonically) it is always inline.
        matches!(&self.repr, Repr::Small([0, 0, 0, 0]))
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        matches!(&self.repr, Repr::Small([0, 0, 0, 1]))
    }

    /// Coefficients as an owned array `[a, b, c, d]`.
    pub fn coeffs(&self) -> [IBig; 4] {
        match &self.repr {
            Repr::Small([a, b, c, d]) => [
                IBig::from(*a),
                IBig::from(*b),
                IBig::from(*c),
                IBig::from(*d),
            ],
            Repr::Big(bx) => (**bx).clone(),
        }
    }

    /// Inline coefficients, if the value is in the small representation.
    pub fn coeffs_i64(&self) -> Option<[i64; 4]> {
        match &self.repr {
            Repr::Small(s) => Some(*s),
            Repr::Big(_) => None,
        }
    }

    /// Returns `true` if the value is stored inline (all coefficients fit
    /// `i64`).
    pub fn is_inline(&self) -> bool {
        matches!(&self.repr, Repr::Small(_))
    }

    /// Checks the canonical-representation invariant: inline values are
    /// canonical by construction; a promoted value must have at least one
    /// coefficient that genuinely exceeds the `i64` range.
    pub fn repr_is_canonical(&self) -> bool {
        match &self.repr {
            Repr::Small(_) => true,
            Repr::Big(bx) => bx.iter().any(|x| x.to_i64().is_none()),
        }
    }

    /// Complex conjugate: `ω ↦ ω⁻¹ = −ω³`, giving
    /// `conj(aω³ + bω² + cω + d) = −cω³ − bω² − aω + d`.
    pub fn conj(&self) -> Zomega {
        if let Repr::Small([a, b, c, d]) = &self.repr {
            if let (Some(na), Some(nb), Some(nc)) =
                (c.checked_neg(), b.checked_neg(), a.checked_neg())
            {
                return Zomega::from_small([na, nb, nc, *d]);
            }
        }
        let [a, b, c, d] = self.coeffs();
        Zomega::canonical([-&c, -&b, -&a, d])
    }

    /// The squared norm `N(z) = z·z̄ = u + v√2 ∈ Z[√2]`, a non-negative
    /// real number with `N(z) = 0` iff `z = 0`.
    pub fn norm(&self) -> Zroot2 {
        if let Repr::Small([a, b, c, d]) = &self.repr {
            let (a, b, c, d) = (*a as i128, *b as i128, *c as i128, *d as i128);
            let u = (a * a)
                .checked_add(b * b)
                .and_then(|x| x.checked_add(c * c))
                .and_then(|x| x.checked_add(d * d));
            let v = (a * b)
                .checked_add(b * c)
                .and_then(|x| x.checked_add(c * d))
                .and_then(|x| x.checked_sub(a * d));
            if let (Some(u), Some(v)) = (u, v) {
                return Zroot2::new(IBig::from(u), IBig::from(v));
            }
        }
        let [a, b, c, d] = self.coeffs();
        let u = &(&(&a * &a) + &(&b * &b)) + &(&(&c * &c) + &(&d * &d));
        // v = ab + bc + cd − ad
        let v = &(&(&a * &b) + &(&b * &c)) + &(&(&c * &d) - &(&a * &d));
        Zroot2::new(u, v)
    }

    /// The Euclidean function `E(z) = |u² − 2v²|` where `N(z) = u + v√2`
    /// — the absolute field norm of `z` over `Q`.
    pub fn euclidean_value(&self) -> IBig {
        self.norm().field_norm().abs()
    }

    /// Multiplication by `ω` (a cheap coefficient rotation):
    /// `(a,b,c,d) ↦ (b, c, d, −a)`.
    pub fn mul_omega(&self) -> Zomega {
        if let Repr::Small([a, b, c, d]) = &self.repr {
            if let Some(na) = a.checked_neg() {
                return Zomega::from_small([*b, *c, *d, na]);
            }
        }
        let [a, b, c, d] = self.coeffs();
        Zomega::canonical([b, c, d, -&a])
    }

    /// Multiplication by `√2 = ω − ω³`:
    /// `(a,b,c,d) ↦ (b−d, a+c, b+d, c−a)`.
    pub fn mul_sqrt2(&self) -> Zomega {
        if let Repr::Small([a, b, c, d]) = &self.repr {
            let (a, b, c, d) = (*a as i128, *b as i128, *c as i128, *d as i128);
            return Zomega::from_i128s([b - d, a + c, b + d, c - a]);
        }
        let [a, b, c, d] = self.coeffs();
        Zomega::canonical([&b - &d, &a + &c, &b + &d, &c - &a])
    }

    /// Returns `z/√2` if `z` is divisible by `√2`
    /// (iff `a ≡ c` and `b ≡ d (mod 2)`, the minimality criterion of
    /// Algorithm 1 in the paper), else `None`.
    pub fn div_sqrt2(&self) -> Option<Zomega> {
        if let Repr::Small([a, b, c, d]) = &self.repr {
            if (a ^ c) & 1 != 0 || (b ^ d) & 1 != 0 {
                return None;
            }
            let (a, b, c, d) = (*a as i128, *b as i128, *c as i128, *d as i128);
            return Some(Zomega::from_i128s([
                (b - d) / 2,
                (a + c) / 2,
                (b + d) / 2,
                (c - a) / 2,
            ]));
        }
        let [a, b, c, d] = self.coeffs();
        let parity_ok = (&a - &c).is_even() && (&b - &d).is_even();
        if !parity_ok {
            return None;
        }
        Some(Zomega::canonical([
            (&b - &d).half_exact(),
            (&a + &c).half_exact(),
            (&b + &d).half_exact(),
            (&c - &a).half_exact(),
        ]))
    }

    /// Returns `true` iff `z` is divisible by `√2` in `Z[ω]`.
    pub fn divisible_by_sqrt2(&self) -> bool {
        match &self.repr {
            Repr::Small([a, b, c, d]) => (a ^ c) & 1 == 0 && (b ^ d) & 1 == 0,
            Repr::Big(bx) => {
                let [a, b, c, d] = &**bx;
                (a - c).is_even() && (b - d).is_even()
            }
        }
    }

    /// Multiplies every coefficient by the rational integer `s`.
    pub fn mul_scalar(&self, s: &IBig) -> Zomega {
        if let (Repr::Small([a, b, c, d]), Some(s)) = (&self.repr, s.to_i64()) {
            let s = s as i128;
            return Zomega::from_i128s([
                *a as i128 * s,
                *b as i128 * s,
                *c as i128 * s,
                *d as i128 * s,
            ]);
        }
        let [a, b, c, d] = self.coeffs();
        Zomega::canonical([&a * s, &b * s, &c * s, &d * s])
    }

    /// Divides every coefficient exactly by the rational integer `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is zero or does not divide every coefficient.
    pub fn div_scalar_exact(&self, s: &IBig) -> Zomega {
        if let (Repr::Small(coeffs), Some(s)) = (&self.repr, s.to_i64()) {
            // checked_div also rejects s = 0 and i64::MIN / −1, which must
            // promote. Those, and a coefficient that s does not divide
            // (|q·s| ≤ |x|, so the check cannot overflow), fall through to
            // the bigint path, which panics on an inexact division.
            if let [Some(a), Some(b), Some(c), Some(d)] =
                coeffs.map(|x| x.checked_div(s).filter(|q| q * s == x))
            {
                return Zomega::from_small([a, b, c, d]);
            }
        }
        let [a, b, c, d] = self.coeffs();
        Zomega::canonical([
            a.div_exact(s),
            b.div_exact(s),
            c.div_exact(s),
            d.div_exact(s),
        ])
    }

    /// Greatest common divisor of the four integer coefficients
    /// (the *content*; zero for the zero element).
    pub fn content(&self) -> IBig {
        IBig::from(self.content_gcd(&UBig::zero()))
    }

    /// `gcd(n, a, b, c, d)`: the gcd of `n` and the content, folded from `n`
    /// so that it stops as soon as it reaches 1.
    pub fn content_gcd(&self, n: &UBig) -> UBig {
        let mut g = n.clone();
        match &self.repr {
            Repr::Small(s) => {
                // the common case, a word-sized n, stays in native words
                if let Some(mut w) = n.to_u64() {
                    for x in s {
                        if w == 1 {
                            break;
                        }
                        w = gcd_u64(w, x.unsigned_abs());
                    }
                    return UBig::from(w);
                }
                for x in s {
                    if g.is_one() {
                        break;
                    }
                    g = g.gcd(&UBig::from(x.unsigned_abs()));
                }
            }
            Repr::Big(bx) => {
                for x in bx.iter() {
                    if g.is_one() {
                        break;
                    }
                    g = g.gcd(x.magnitude());
                }
            }
        }
        g
    }

    /// Multiplies by `√2^m` for `m ≥ 0` (powers of 2 shortcut).
    pub fn mul_sqrt2_pow(&self, m: u64) -> Zomega {
        let half = m / 2;
        if let Repr::Small([a, b, c, d]) = &self.repr {
            if half < 64 {
                let f = 1i128 << half;
                let shifted = Zomega::from_i128s([
                    *a as i128 * f,
                    *b as i128 * f,
                    *c as i128 * f,
                    *d as i128 * f,
                ]);
                return if m % 2 == 1 {
                    shifted.mul_sqrt2()
                } else {
                    shifted
                };
            }
        }
        let [a, b, c, d] = self.coeffs();
        let shifted = Zomega::canonical([&a << half, &b << half, &c << half, &d << half]);
        if m % 2 == 1 {
            shifted.mul_sqrt2()
        } else {
            shifted
        }
    }

    /// Raises to the power `n`.
    pub fn pow(&self, n: u32) -> Zomega {
        let mut acc = Zomega::one();
        let mut base = self.clone();
        let mut e = n;
        while e > 0 {
            if e & 1 == 1 {
                acc = &acc * &base;
            }
            e >>= 1;
            if e > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Euclidean division: returns `(q, r)` with `self = q·rhs + r` and
    /// `E(r) < E(rhs)` (in fact `E(r) ≤ (9/16)·E(rhs)`, see the paper).
    ///
    /// The quotient is obtained by dividing in `Q[ω]` and rounding each
    /// coordinate to the nearest integer.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub fn div_rem(&self, rhs: &Zomega) -> (Zomega, Zomega) {
        assert!(!rhs.is_zero(), "division by zero in Z[omega]");
        // self/rhs = self·conj(rhs)·σ(N(rhs)) / fieldnorm(rhs), where
        // σ(N) = u − v√2 is the Galois conjugate of N(rhs) = u + v√2.
        // As a Z[ω] element, u − v√2 = u + v(ω³ − ω) = (v, 0, −v, u).
        let n = rhs.norm();
        let denom = n.field_norm(); // u² − 2v², may be negative
        let sigma = Zomega::new(n.v.clone(), IBig::zero(), -&n.v, n.u.clone());
        let num = &(self * &rhs.conj()) * &sigma;
        let [na, nb, nc, nd] = num.coeffs();
        let q = Zomega::canonical([
            na.div_round_nearest(&denom),
            nb.div_round_nearest(&denom),
            nc.div_round_nearest(&denom),
            nd.div_round_nearest(&denom),
        ]);
        let r = self - &(&q * rhs);
        if r.euclidean_value() < rhs.euclidean_value() {
            return (q, r);
        }
        // Rounding ties can land on the boundary E(r) = E(rhs); nudge the
        // quotient by one unit per coordinate and take the best neighbour.
        let mut best: Option<(Zomega, Zomega, IBig)> = None;
        for da in -1..=1i64 {
            for db in -1..=1i64 {
                for dc in -1..=1i64 {
                    for dd in -1..=1i64 {
                        let cand = &q + &Zomega::new(da.into(), db.into(), dc.into(), dd.into());
                        let r = self - &(&cand * rhs);
                        let e = r.euclidean_value();
                        if best.as_ref().is_none_or(|(_, _, be)| e < *be) {
                            best = Some((cand, r, e));
                        }
                    }
                }
            }
        }
        // aq-lint: allow(R1): the candidate loop always runs, so best was set at least once
        let (q, r, e) = best.expect("nonempty neighbourhood");
        assert!(
            e < rhs.euclidean_value(),
            "Euclidean division failed to reduce: E(r)={e} ≥ E(rhs)={}",
            rhs.euclidean_value()
        );
        (q, r)
    }

    /// Greatest common divisor by the Euclidean algorithm.
    ///
    /// The result is unique only up to multiplication by units of `Z[ω]`;
    /// callers that need a canonical representative should pass it through
    /// [`crate::assoc::canonical_associate`].
    pub fn gcd(&self, other: &Zomega) -> Zomega {
        let mut x = self.clone();
        let mut y = other.clone();
        while !y.is_zero() {
            let (_, r) = x.div_rem(&y);
            x = y;
            y = r;
        }
        x
    }

    /// Evaluates to a complex double (for reporting / numeric backends).
    pub fn to_complex64(&self) -> crate::Complex64 {
        crate::eval::zomega_to_complex(self, 0, &aq_bigint::UBig::one())
    }
}

impl Add<&Zomega> for &Zomega {
    type Output = Zomega;
    fn add(self, rhs: &Zomega) -> Zomega {
        if let (Repr::Small([a1, b1, c1, d1]), Repr::Small([a2, b2, c2, d2])) =
            (&self.repr, &rhs.repr)
        {
            if let (Some(a), Some(b), Some(c), Some(d)) = (
                a1.checked_add(*a2),
                b1.checked_add(*b2),
                c1.checked_add(*c2),
                d1.checked_add(*d2),
            ) {
                return Zomega::from_small([a, b, c, d]);
            }
        }
        let [a1, b1, c1, d1] = self.coeffs();
        let [a2, b2, c2, d2] = rhs.coeffs();
        Zomega::canonical([&a1 + &a2, &b1 + &b2, &c1 + &c2, &d1 + &d2])
    }
}

impl Sub<&Zomega> for &Zomega {
    type Output = Zomega;
    fn sub(self, rhs: &Zomega) -> Zomega {
        if let (Repr::Small([a1, b1, c1, d1]), Repr::Small([a2, b2, c2, d2])) =
            (&self.repr, &rhs.repr)
        {
            if let (Some(a), Some(b), Some(c), Some(d)) = (
                a1.checked_sub(*a2),
                b1.checked_sub(*b2),
                c1.checked_sub(*c2),
                d1.checked_sub(*d2),
            ) {
                return Zomega::from_small([a, b, c, d]);
            }
        }
        let [a1, b1, c1, d1] = self.coeffs();
        let [a2, b2, c2, d2] = rhs.coeffs();
        Zomega::canonical([&a1 - &a2, &b1 - &b2, &c1 - &c2, &d1 - &d2])
    }
}

/// Inline multiply: `i64` coefficients widen to `i128` (single products
/// cannot overflow), with checked accumulation promoting on overflow.
fn mul_small(x: &[i64; 4], y: &[i64; 4]) -> Option<Zomega> {
    let [a1, b1, c1, d1] = x.map(|v| v as i128);
    let [a2, b2, c2, d2] = y.map(|v| v as i128);
    let d = (d1 * d2).checked_sub((a1 * c2).checked_add(c1 * a2)?.checked_add(b1 * b2)?)?;
    let c = (c1 * d2)
        .checked_add(d1 * c2)?
        .checked_sub((a1 * b2).checked_add(b1 * a2)?)?;
    let b = (b1 * d2)
        .checked_add(d1 * b2)?
        .checked_add(c1 * c2)?
        .checked_sub(a1 * a2)?;
    let a = (a1 * d2)
        .checked_add(d1 * a2)?
        .checked_add((b1 * c2).checked_add(c1 * b2)?)?;
    Some(Zomega::from_i128s([a, b, c, d]))
}

impl Mul<&Zomega> for &Zomega {
    type Output = Zomega;
    fn mul(self, rhs: &Zomega) -> Zomega {
        if let (Repr::Small(x), Repr::Small(y)) = (&self.repr, &rhs.repr) {
            if let Some(r) = mul_small(x, y) {
                return r;
            }
        }
        // Convolution of the coefficient polynomials modulo ω⁴ = −1.
        let [a1, b1, c1, d1] = &self.coeffs();
        let [a2, b2, c2, d2] = &rhs.coeffs();
        let d = &(d1 * d2) - &(&(&(a1 * c2) + &(c1 * a2)) + &(b1 * b2));
        let c = &(&(c1 * d2) + &(d1 * c2)) - &(&(a1 * b2) + &(b1 * a2));
        let b = &(&(&(b1 * d2) + &(d1 * b2)) + &(c1 * c2)) - &(a1 * a2);
        let a = &(&(a1 * d2) + &(d1 * a2)) + &(&(b1 * c2) + &(c1 * b2));
        Zomega::canonical([a, b, c, d])
    }
}

impl Neg for &Zomega {
    type Output = Zomega;
    fn neg(self) -> Zomega {
        if let Repr::Small([a, b, c, d]) = &self.repr {
            if let (Some(a), Some(b), Some(c), Some(d)) = (
                a.checked_neg(),
                b.checked_neg(),
                c.checked_neg(),
                d.checked_neg(),
            ) {
                return Zomega::from_small([a, b, c, d]);
            }
        }
        let [a, b, c, d] = self.coeffs();
        Zomega::canonical([-&a, -&b, -&c, -&d])
    }
}

impl Neg for Zomega {
    type Output = Zomega;
    fn neg(self) -> Zomega {
        -&self
    }
}

impl fmt::Debug for Zomega {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Zomega({self})")
    }
}

impl fmt::Display for Zomega {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.coeffs();
        write!(f, "{a}w3 + {b}w2 + {c}w + {d}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn zo(a: i64, b: i64, c: i64, d: i64) -> Zomega {
        Zomega::new(a.into(), b.into(), c.into(), d.into())
    }

    #[test]
    fn omega_powers() {
        let w = Zomega::omega();
        assert_eq!(w.pow(2), Zomega::i());
        assert_eq!(w.pow(4), zo(0, 0, 0, -1));
        assert_eq!(w.pow(8), Zomega::one());
        assert_eq!(&w * &w.pow(7), Zomega::one());
    }

    #[test]
    fn sqrt2_squares_to_two() {
        let s = Zomega::sqrt2();
        assert_eq!(&s * &s, Zomega::from_int(2));
        assert_eq!(s.mul_sqrt2(), Zomega::from_int(2));
    }

    #[test]
    fn mul_omega_is_rotation() {
        let z = zo(1, 2, 3, 4);
        assert_eq!(z.mul_omega(), &z * &Zomega::omega());
    }

    #[test]
    fn conj_is_involution_and_multiplicative() {
        let z = zo(3, -1, 4, 2);
        let w = zo(-2, 5, 0, 7);
        assert_eq!(z.conj().conj(), z);
        assert_eq!((&z * &w).conj(), &z.conj() * &w.conj());
    }

    #[test]
    fn norm_is_z_times_conj() {
        let z = zo(2, -3, 1, 5);
        let n = z.norm();
        // z·z̄ should equal u + v√2 as a Zomega element
        let prod = &z * &z.conj();
        let [pa, pb, pc, pd] = prod.coeffs();
        assert_eq!(pd, n.u);
        assert_eq!(pc, n.v);
        assert_eq!(pa, -&n.v);
        assert_eq!(pb, IBig::zero());
        assert!(n.is_positive());
    }

    #[test]
    fn norm_multiplicative() {
        let z = zo(1, 2, -2, 3);
        let w = zo(0, -1, 4, 1);
        let lhs = (&z * &w).norm();
        let rhs = &z.norm() * &w.norm();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn euclidean_value_of_paper_units() {
        // λ = 1 + √2 has |field norm| 1; ω ± 1 have field norm 2
        let lambda = &Zomega::one() + &Zomega::sqrt2();
        assert_eq!(lambda.euclidean_value(), IBig::one());
        let wp1 = &Zomega::omega() + &Zomega::one();
        assert_eq!(wp1.euclidean_value(), IBig::from(2));
    }

    #[test]
    fn sqrt2_divisibility() {
        assert!(Zomega::from_int(2).divisible_by_sqrt2());
        assert_eq!(
            Zomega::from_int(2).div_sqrt2().expect("2/√2 = √2"),
            Zomega::sqrt2()
        );
        assert!(!Zomega::one().divisible_by_sqrt2());
        assert!(!Zomega::omega().divisible_by_sqrt2());
        // (1+ω) is not divisible; (1+i) = √2·ω is:
        let one_plus_i = &Zomega::one() + &Zomega::i();
        assert_eq!(one_plus_i.div_sqrt2().expect("divisible"), Zomega::omega());
    }

    #[test]
    fn div_rem_invariant() {
        let cases = [
            (zo(5, 3, -2, 7), zo(1, 0, 1, 1)),
            (zo(100, -50, 25, 13), zo(3, 1, -1, 2)),
            (zo(0, 0, 0, 17), zo(0, 0, 0, 5)),
            (zo(1, 1, 1, 1), zo(2, -1, 3, 4)),
        ];
        for (x, y) in cases {
            let (q, r) = x.div_rem(&y);
            assert_eq!(&(&q * &y) + &r, x);
            assert!(r.euclidean_value() < y.euclidean_value());
        }
    }

    #[test]
    fn gcd_divides_both() {
        let g = zo(1, 0, 1, 2);
        let x = &g * &zo(3, -1, 0, 2);
        let y = &g * &zo(0, 2, 1, -1);
        let got = x.gcd(&y);
        // got must divide x and y with zero remainder
        let (_, r1) = x.div_rem(&got);
        let (_, r2) = y.div_rem(&got);
        assert!(r1.is_zero() && r2.is_zero());
        // and g must divide got
        let (_, r3) = got.div_rem(&g);
        assert!(r3.is_zero());
    }

    #[test]
    fn gcd_of_coprime_is_unit() {
        let x = zo(0, 0, 0, 3);
        let y = zo(0, 0, 0, 5);
        let g = x.gcd(&y);
        assert_eq!(g.euclidean_value(), IBig::one());
    }

    #[test]
    fn small_values_stay_inline() {
        assert!(zo(1, -2, 3, -4).is_inline());
        assert!(Zomega::zero().is_inline());
        assert!(zo(i64::MAX, i64::MIN, 0, 1).is_inline());
        let prod = &zo(1 << 20, 0, 0, 3) * &zo(0, 5, -7, 1 << 19);
        assert!(prod.is_inline() && prod.repr_is_canonical());
    }

    #[test]
    fn overflow_promotes_and_cancellation_demotes() {
        let big = zo(i64::MAX, 0, 0, 1);
        let sum = &big + &zo(1, 0, 0, 0); // a overflows i64
        assert!(!sum.is_inline());
        assert!(sum.repr_is_canonical());
        // subtracting back demotes to the inline form and compares equal
        let back = &sum - &zo(1, 0, 0, 0);
        assert!(back.is_inline());
        assert_eq!(back, big);
        // negating i64::MIN promotes
        let neg = -&zo(i64::MIN, 0, 0, 0);
        assert!(!neg.is_inline() && neg.repr_is_canonical());
    }

    #[test]
    fn promoted_arithmetic_matches_inline_results() {
        // (x·2^40)·(y·2^40) == (x·y)·2^80 computed through the big path
        let x = zo(3, -1, 4, 2);
        let y = zo(-2, 5, 0, 7);
        let shift = &IBig::from(1) << 40;
        let xs = x.mul_scalar(&shift);
        let ys = y.mul_scalar(&shift);
        let prod_big = &xs * &ys; // exceeds i64 → Big path
        assert!(!prod_big.is_inline());
        let expected = (&x * &y).mul_scalar(&(&IBig::from(1) << 80));
        assert_eq!(prod_big, expected);
    }

    #[test]
    fn mixed_repr_ops_are_exact() {
        let small = zo(1, 2, 3, 4);
        let big = small.mul_scalar(&(&IBig::from(1) << 70));
        let sum = &big + &small;
        assert!(!sum.is_inline() && sum.repr_is_canonical());
        assert_eq!(&sum - &big, small);
        // divisibility and div_sqrt2 agree across representations
        let even_big = zo(2, 0, 2, 0).mul_scalar(&(&IBig::from(1) << 70));
        assert!(even_big.divisible_by_sqrt2());
        let halved = even_big.div_sqrt2().expect("divisible");
        assert_eq!(halved.mul_sqrt2(), even_big);
    }
}
