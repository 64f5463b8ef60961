//! The signed arbitrary-precision integer.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Shl, Shr, Sub, SubAssign};

use crate::UBig;

/// Sign of an [`IBig`]. Zero always has [`Sign::Zero`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// The value zero.
    Zero,
    /// Strictly positive.
    Positive,
}

/// An arbitrary-precision signed integer.
///
/// The magnitude is a [`UBig`]; zero is canonically non-negative so
/// equality and hashing are structural.
///
/// # Examples
///
/// ```
/// use aq_bigint::IBig;
///
/// let x = IBig::from(-3).pow(41);
/// assert!(x.is_negative());
/// assert_eq!(&x + &-&x, IBig::zero());
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct IBig {
    negative: bool,
    magnitude: UBig,
}

impl IBig {
    /// The value `0`.
    pub fn zero() -> Self {
        IBig::default()
    }

    /// The value `1`.
    pub fn one() -> Self {
        IBig::from(1)
    }

    /// The value `-1`.
    pub fn neg_one() -> Self {
        IBig::from(-1)
    }

    /// Builds from a sign and magnitude (zero magnitude forces sign zero).
    pub fn from_sign_magnitude(negative: bool, magnitude: UBig) -> Self {
        IBig {
            negative: negative && !magnitude.is_zero(),
            magnitude,
        }
    }

    /// The sign of the value.
    pub fn sign(&self) -> Sign {
        if self.magnitude.is_zero() {
            Sign::Zero
        } else if self.negative {
            Sign::Negative
        } else {
            Sign::Positive
        }
    }

    /// Borrows the magnitude.
    pub fn magnitude(&self) -> &UBig {
        &self.magnitude
    }

    /// Consumes `self`, returning the magnitude.
    pub fn into_magnitude(self) -> UBig {
        self.magnitude
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.magnitude.is_zero()
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        !self.negative && self.magnitude.is_one()
    }

    /// Returns `true` if strictly negative.
    pub fn is_negative(&self) -> bool {
        self.negative
    }

    /// Returns `true` if strictly positive.
    pub fn is_positive(&self) -> bool {
        !self.negative && !self.magnitude.is_zero()
    }

    /// Returns `true` if the lowest bit is set.
    pub fn is_odd(&self) -> bool {
        self.magnitude.is_odd()
    }

    /// Returns `true` if the value is even.
    pub fn is_even(&self) -> bool {
        self.magnitude.is_even()
    }

    /// Absolute value.
    pub fn abs(&self) -> IBig {
        IBig {
            negative: false,
            magnitude: self.magnitude.clone(),
        }
    }

    /// Number of significant bits of the magnitude.
    pub fn bit_len(&self) -> u64 {
        self.magnitude.bit_len()
    }

    /// Truncated division: `(q, r)` with `self = q·rhs + r`,
    /// `|r| < |rhs|` and `r` taking the sign of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub fn div_rem(&self, rhs: &IBig) -> (IBig, IBig) {
        let (q, r) = self.magnitude.div_rem(&rhs.magnitude);
        (
            IBig::from_sign_magnitude(self.negative != rhs.negative, q),
            IBig::from_sign_magnitude(self.negative, r),
        )
    }

    /// Exact division.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero or does not divide `self` exactly, in
    /// release builds too: a truncated quotient would be a silently wrong
    /// value, and the remainder is computed anyway.
    pub fn div_exact(&self, rhs: &IBig) -> IBig {
        let (q, r) = self.div_rem(rhs);
        assert!(r.is_zero(), "div_exact: {self} not divisible by {rhs}");
        q
    }

    /// Division rounded to the **nearest** integer, ties away from zero.
    ///
    /// This is the rounding used for Euclidean division in `Z[omega]`:
    /// rounding each rational coordinate to the nearest integer keeps the
    /// remainder's norm strictly smaller than the divisor's.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub fn div_round_nearest(&self, rhs: &IBig) -> IBig {
        let q = self.magnitude.div_round_nearest(&rhs.magnitude);
        IBig::from_sign_magnitude(self.negative != rhs.negative, q)
    }

    /// Greatest common divisor (always non-negative).
    pub fn gcd(&self, other: &IBig) -> IBig {
        IBig::from_sign_magnitude(false, self.magnitude.gcd(&other.magnitude))
    }

    /// Raises to the power `exp`.
    pub fn pow(&self, exp: u32) -> IBig {
        IBig::from_sign_magnitude(self.negative && exp % 2 == 1, self.magnitude.pow(exp))
    }

    /// Doubles the value (cheap shift).
    pub fn double(&self) -> IBig {
        IBig::from_sign_magnitude(self.negative, self.magnitude.shl_bits(1))
    }

    /// Halves the value exactly; in debug builds, panics if odd.
    pub fn half_exact(&self) -> IBig {
        debug_assert!(self.is_even(), "half_exact of odd value");
        IBig::from_sign_magnitude(self.negative, self.magnitude.shr_bits(1))
    }

    /// Attempts conversion to `i64`.
    pub fn to_i64(&self) -> Option<i64> {
        let m = self.magnitude.to_u64()?;
        if self.negative {
            if m <= 1 << 63 {
                Some((m as i64).wrapping_neg())
            } else {
                None
            }
        } else {
            i64::try_from(m).ok()
        }
    }
}

impl From<UBig> for IBig {
    fn from(magnitude: UBig) -> Self {
        IBig {
            negative: false,
            magnitude,
        }
    }
}

macro_rules! impl_from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for IBig {
            fn from(v: $t) -> Self {
                IBig::from_sign_magnitude(v < 0, UBig::from(v.unsigned_abs() as u64))
            }
        }
    )*};
}
impl_from_signed!(i8, i16, i32, i64);

impl From<i128> for IBig {
    fn from(v: i128) -> Self {
        IBig::from_sign_magnitude(v < 0, UBig::from(v.unsigned_abs()))
    }
}

macro_rules! impl_from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for IBig {
            fn from(v: $t) -> Self {
                IBig::from(UBig::from(v as u64))
            }
        }
    )*};
}
impl_from_unsigned!(u8, u16, u32, u64);

impl Hash for IBig {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.negative.hash(state);
        self.magnitude.hash(state);
    }
}

impl Ord for IBig {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.sign(), other.sign()) {
            (Sign::Negative, Sign::Negative) => other.magnitude.cmp(&self.magnitude),
            (Sign::Negative, _) => Ordering::Less,
            (_, Sign::Negative) => Ordering::Greater,
            _ => self.magnitude.cmp(&other.magnitude),
        }
    }
}

impl PartialOrd for IBig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Neg for &IBig {
    type Output = IBig;
    fn neg(self) -> IBig {
        IBig::from_sign_magnitude(!self.negative, self.magnitude.clone())
    }
}

impl Neg for IBig {
    type Output = IBig;
    fn neg(self) -> IBig {
        IBig::from_sign_magnitude(!self.negative, self.magnitude)
    }
}

impl Add<&IBig> for &IBig {
    type Output = IBig;
    fn add(self, rhs: &IBig) -> IBig {
        if self.negative == rhs.negative {
            IBig::from_sign_magnitude(self.negative, &self.magnitude + &rhs.magnitude)
        } else {
            let (diff, ord) = self.magnitude.abs_diff(&rhs.magnitude);
            // The sign of the result follows the larger magnitude.
            let negative = match ord {
                Ordering::Greater => self.negative,
                Ordering::Less => rhs.negative,
                Ordering::Equal => false,
            };
            IBig::from_sign_magnitude(negative, diff)
        }
    }
}

impl Sub<&IBig> for &IBig {
    type Output = IBig;
    fn sub(self, rhs: &IBig) -> IBig {
        self + &(-rhs)
    }
}

impl Mul<&IBig> for &IBig {
    type Output = IBig;
    fn mul(self, rhs: &IBig) -> IBig {
        IBig::from_sign_magnitude(
            self.negative != rhs.negative,
            &self.magnitude * &rhs.magnitude,
        )
    }
}

macro_rules! forward_binop {
    ($($trait:ident :: $m:ident),*) => {$(
        impl $trait for IBig {
            type Output = IBig;
            fn $m(self, rhs: IBig) -> IBig { $trait::$m(&self, &rhs) }
        }
        impl $trait<&IBig> for IBig {
            type Output = IBig;
            fn $m(self, rhs: &IBig) -> IBig { $trait::$m(&self, rhs) }
        }
        impl $trait<IBig> for &IBig {
            type Output = IBig;
            fn $m(self, rhs: IBig) -> IBig { $trait::$m(self, &rhs) }
        }
    )*};
}
forward_binop!(Add::add, Sub::sub, Mul::mul);

impl std::ops::Div<&IBig> for &IBig {
    type Output = IBig;
    /// Truncated division (rounds toward zero).
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: &IBig) -> IBig {
        self.div_rem(rhs).0
    }
}

impl std::ops::Rem<&IBig> for &IBig {
    type Output = IBig;
    /// Truncated remainder (takes the sign of `self`).
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn rem(self, rhs: &IBig) -> IBig {
        self.div_rem(rhs).1
    }
}

forward_binop!(Div::div, Rem::rem);

impl AddAssign<&IBig> for IBig {
    fn add_assign(&mut self, rhs: &IBig) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&IBig> for IBig {
    fn sub_assign(&mut self, rhs: &IBig) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&IBig> for IBig {
    fn mul_assign(&mut self, rhs: &IBig) {
        *self = &*self * rhs;
    }
}

impl Shl<u64> for &IBig {
    type Output = IBig;
    fn shl(self, bits: u64) -> IBig {
        IBig::from_sign_magnitude(self.negative, self.magnitude.shl_bits(bits))
    }
}

impl Shr<u64> for &IBig {
    type Output = IBig;
    /// Arithmetic shift of the magnitude (rounds toward zero, not floor).
    fn shr(self, bits: u64) -> IBig {
        IBig::from_sign_magnitude(self.negative, self.magnitude.shr_bits(bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ib(v: i64) -> IBig {
        IBig::from(v)
    }

    #[test]
    fn sign_handling() {
        assert_eq!(ib(0).sign(), Sign::Zero);
        assert_eq!(ib(-5).sign(), Sign::Negative);
        assert_eq!(ib(5).sign(), Sign::Positive);
        assert_eq!(IBig::from_sign_magnitude(true, UBig::zero()), IBig::zero());
        assert_eq!(-IBig::zero(), IBig::zero());
    }

    #[test]
    fn mixed_sign_addition() {
        assert_eq!(ib(5) + ib(-3), ib(2));
        assert_eq!(ib(3) + ib(-5), ib(-2));
        assert_eq!(ib(-5) + ib(3), ib(-2));
        assert_eq!(ib(-3) + ib(-4), ib(-7));
        assert_eq!(ib(7) + ib(-7), ib(0));
    }

    #[test]
    fn subtraction_and_negation() {
        assert_eq!(ib(5) - ib(8), ib(-3));
        assert_eq!(ib(-5) - ib(-8), ib(3));
        assert_eq!(-(ib(9)), ib(-9));
    }

    #[test]
    fn multiplication_signs() {
        assert_eq!(ib(-4) * ib(6), ib(-24));
        assert_eq!(ib(-4) * ib(-6), ib(24));
        assert_eq!(ib(-4) * ib(0), ib(0));
        assert!(!(ib(-4) * ib(0)).is_negative());
    }

    #[test]
    fn ordering_across_signs() {
        assert!(ib(-10) < ib(-2));
        assert!(ib(-2) < ib(0));
        assert!(ib(0) < ib(1));
        assert!(ib(5) < ib(50));
    }

    #[test]
    fn truncated_div_rem() {
        // truncated semantics: r has the sign of the dividend
        assert_eq!(ib(7).div_rem(&ib(2)), (ib(3), ib(1)));
        assert_eq!(ib(-7).div_rem(&ib(2)), (ib(-3), ib(-1)));
        assert_eq!(ib(7).div_rem(&ib(-2)), (ib(-3), ib(1)));
        assert_eq!(ib(-7).div_rem(&ib(-2)), (ib(3), ib(-1)));
    }

    #[test]
    fn exact_division() {
        assert_eq!(ib(-42).div_exact(&ib(6)), ib(-7));
        let big = IBig::from(i128::MAX - 1); // 2^127 - 2
        assert_eq!(big.div_exact(&ib(-2)), -IBig::from(i128::MAX / 2));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn inexact_division_panics_in_every_build() {
        // 2^127 - 1 is prime: 3 leaves a remainder
        let _ = IBig::from(i128::MAX).div_exact(&ib(3));
    }

    #[test]
    fn nearest_rounding_signed() {
        assert_eq!(ib(7).div_round_nearest(&ib(2)), ib(4));
        assert_eq!(ib(-7).div_round_nearest(&ib(2)), ib(-4));
        assert_eq!(ib(5).div_round_nearest(&ib(4)), ib(1));
        assert_eq!(ib(-5).div_round_nearest(&ib(4)), ib(-1));
        assert_eq!(ib(-6).div_round_nearest(&ib(4)), ib(-2));
    }

    #[test]
    fn pow_parity() {
        assert_eq!(ib(-2).pow(3), ib(-8));
        assert_eq!(ib(-2).pow(4), ib(16));
        assert_eq!(ib(-2).pow(0), ib(1));
    }

    #[test]
    fn i64_roundtrip_and_bounds() {
        assert_eq!(ib(i64::MIN).to_i64(), Some(i64::MIN));
        assert_eq!(ib(i64::MAX).to_i64(), Some(i64::MAX));
        let too_big = IBig::from(UBig::from(u64::MAX));
        assert_eq!(too_big.to_i64(), None);
        assert_eq!((-too_big).to_i64(), None);
    }

    #[test]
    fn i128_conversion_bounds() {
        assert_eq!(IBig::from(0i128), IBig::zero());
        assert_eq!(IBig::from(-1i128), IBig::neg_one());
        assert_eq!(IBig::from(i64::MAX as i128), ib(i64::MAX));
        assert_eq!(IBig::from(i64::MIN as i128), ib(i64::MIN));
        // values beyond i64 round-trip through the decimal writer
        assert_eq!(IBig::from(i128::MAX).to_string(), i128::MAX.to_string());
        assert_eq!(IBig::from(i128::MIN).to_string(), i128::MIN.to_string());
    }

    #[test]
    fn half_and_double() {
        assert_eq!(ib(-6).half_exact(), ib(-3));
        assert_eq!(ib(21).double(), ib(42));
    }

    #[test]
    fn gcd_nonnegative() {
        assert_eq!(ib(-12).gcd(&ib(18)), ib(6));
        assert_eq!(ib(-12).gcd(&ib(-18)), ib(6));
    }
}
