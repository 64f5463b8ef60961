//! The unsigned magnitude type.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::Limb;

/// Internal storage: values of at most two limbs live inline, larger values
/// on the heap.
///
/// Invariants (maintained by every constructor):
/// - `Small.len <= 2`, `Small.limbs[len..]` is zeroed, and
///   `Small.limbs[len - 1] != 0` when `len > 0` (no trailing zero limbs);
/// - `Large` holds **at least three** limbs with a nonzero top limb.
///
/// Together these make the representation canonical: a value has exactly one
/// representation, so equality and hashing over [`UBig::as_limbs`] agree for
/// any two equal values regardless of how they were produced.
#[derive(Clone)]
enum Repr {
    Small { len: u8, limbs: [Limb; 2] },
    Large(Vec<Limb>),
}

/// An arbitrary-precision unsigned integer.
///
/// Stored as little-endian 64-bit limbs with no trailing zero limbs, so the
/// representation is canonical: structural equality is value equality.
/// Values that fit in two limbs (`< 2^128`) are stored inline and never touch
/// the heap; the arithmetic operators take native `u128` fast paths for such
/// operands whenever the result also fits.
///
/// # Examples
///
/// ```
/// use aq_bigint::UBig;
///
/// let a = UBig::from(u64::MAX);
/// let b = &a + &a;
/// assert_eq!(b.bit_len(), 65);
/// assert_eq!(b.to_string(), "36893488147419103230");
/// assert!(b.is_inline());
/// ```
#[derive(Clone)]
pub struct UBig {
    repr: Repr,
}

impl UBig {
    /// The value `0`.
    pub fn zero() -> Self {
        UBig {
            repr: Repr::Small {
                len: 0,
                limbs: [0, 0],
            },
        }
    }

    /// The value `1`.
    pub fn one() -> Self {
        UBig::from(1u64)
    }

    /// Creates a `UBig` from raw little-endian limbs, normalizing trailing
    /// zeros.
    pub fn from_limbs(limbs: Vec<Limb>) -> Self {
        UBig::from_limb_vec(limbs)
    }

    /// Normalizes a limb buffer and picks the canonical representation:
    /// inline for at most two significant limbs, heap otherwise.
    pub(crate) fn from_limb_vec(mut limbs: Vec<Limb>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        match limbs.len() {
            0 => UBig::zero(),
            1 => UBig {
                repr: Repr::Small {
                    len: 1,
                    limbs: [limbs[0], 0],
                },
            },
            2 => UBig {
                repr: Repr::Small {
                    len: 2,
                    limbs: [limbs[0], limbs[1]],
                },
            },
            _ => UBig {
                repr: Repr::Large(limbs),
            },
        }
    }

    /// Consumes the value, returning its limbs as a `Vec` (allocating only
    /// for inline values).
    pub(crate) fn into_limb_vec(self) -> Vec<Limb> {
        match self.repr {
            Repr::Small { len, limbs } => limbs[..len as usize].to_vec(),
            Repr::Large(v) => v,
        }
    }

    /// Copies the limbs into a fresh `Vec` scratch buffer.
    pub(crate) fn to_limb_vec(&self) -> Vec<Limb> {
        self.as_limbs().to_vec()
    }

    /// Borrows the little-endian limbs (no trailing zeros).
    pub fn as_limbs(&self) -> &[Limb] {
        match &self.repr {
            Repr::Small { len, limbs } => &limbs[..*len as usize],
            Repr::Large(v) => v,
        }
    }

    /// Returns `true` if the value is held in the inline (small-value)
    /// representation, i.e. it occupies no heap storage.
    ///
    /// Every value below `2^128` is inline; this is an invariant, not a
    /// best-effort cache, so tests can assert on it.
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Small { .. })
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.repr, Repr::Small { len: 0, .. })
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        matches!(
            self.repr,
            Repr::Small {
                len: 1,
                limbs: [1, _]
            }
        )
    }

    /// Returns `true` if the value is `2^k` for some `k ≥ 0`.
    ///
    /// ```
    /// use aq_bigint::UBig;
    /// assert!(UBig::one().is_power_of_two());
    /// assert!(UBig::from(1u128 << 100).is_power_of_two());
    /// assert!(!UBig::from(12u64).is_power_of_two());
    /// assert!(!UBig::zero().is_power_of_two());
    /// ```
    pub fn is_power_of_two(&self) -> bool {
        self.trailing_zeros()
            .is_some_and(|z| z + 1 == self.bit_len())
    }

    /// Returns `true` if the lowest bit is set.
    pub fn is_odd(&self) -> bool {
        self.as_limbs().first().is_some_and(|l| l & 1 == 1)
    }

    /// Returns `true` if the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        !self.is_odd()
    }

    /// Number of significant bits (`0` for zero).
    ///
    /// ```
    /// use aq_bigint::UBig;
    /// assert_eq!(UBig::from(0u64).bit_len(), 0);
    /// assert_eq!(UBig::from(255u64).bit_len(), 8);
    /// ```
    pub fn bit_len(&self) -> u64 {
        let limbs = self.as_limbs();
        match limbs.last() {
            None => 0,
            Some(top) => (limbs.len() as u64 - 1) * 64 + (64 - top.leading_zeros() as u64),
        }
    }

    /// Returns bit `i` (zero-based from the least significant bit).
    pub fn bit(&self, i: u64) -> bool {
        let limb = (i / 64) as usize;
        match self.as_limbs().get(limb) {
            Some(l) => (l >> (i % 64)) & 1 == 1,
            None => false,
        }
    }

    /// Number of trailing zero bits, or `None` for the value zero.
    pub fn trailing_zeros(&self) -> Option<u64> {
        for (i, &l) in self.as_limbs().iter().enumerate() {
            if l != 0 {
                return Some(i as u64 * 64 + l.trailing_zeros() as u64);
            }
        }
        None
    }

    /// Attempts to convert to `u64`, returning `None` on overflow.
    pub fn to_u64(&self) -> Option<u64> {
        match &self.repr {
            Repr::Small { len: 0, .. } => Some(0),
            Repr::Small { len: 1, limbs } => Some(limbs[0]),
            _ => None,
        }
    }

    /// Attempts to convert to `u128`, returning `None` on overflow.
    pub fn to_u128(&self) -> Option<u128> {
        match &self.repr {
            // the zero-tail invariant makes this correct for len 0, 1, 2
            Repr::Small { limbs, .. } => Some(limbs[0] as u128 | (limbs[1] as u128) << 64),
            Repr::Large(_) => None,
        }
    }
}

impl Default for UBig {
    fn default() -> Self {
        UBig::zero()
    }
}

impl From<u64> for UBig {
    fn from(v: u64) -> Self {
        UBig {
            repr: Repr::Small {
                len: (v != 0) as u8,
                limbs: [v, 0],
            },
        }
    }
}

impl From<u32> for UBig {
    fn from(v: u32) -> Self {
        UBig::from(v as u64)
    }
}

impl From<u128> for UBig {
    fn from(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let len = if hi != 0 { 2 } else { (lo != 0) as u8 };
        UBig {
            repr: Repr::Small {
                len,
                limbs: [lo, hi],
            },
        }
    }
}

impl PartialEq for UBig {
    fn eq(&self, other: &Self) -> bool {
        self.as_limbs() == other.as_limbs()
    }
}

impl Eq for UBig {}

impl Hash for UBig {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // hash the limb slice so equal values hash identically regardless of
        // representation (canonicity already guarantees one repr per value,
        // but slice hashing keeps that independent of storage details)
        Hash::hash(self.as_limbs(), state);
    }
}

/// Compares two limb slices without trailing zeros as numbers.
pub(crate) fn cmp_limbs(a: &[Limb], b: &[Limb]) -> Ordering {
    a.len()
        .cmp(&b.len())
        .then_with(|| a.iter().rev().cmp(b.iter().rev()))
}

impl Ord for UBig {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_limbs(self.as_limbs(), other.as_limbs())
    }
}

impl PartialOrd for UBig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for UBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UBig({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_zero() {
        assert_eq!(UBig::from_limbs(vec![0, 0, 0]), UBig::zero());
        assert!(UBig::zero().is_zero());
        assert!(UBig::zero().is_even());
        assert_eq!(UBig::zero().bit_len(), 0);
    }

    #[test]
    fn bit_len_and_bits() {
        let v = UBig::from(0b1011u64);
        assert_eq!(v.bit_len(), 4);
        assert!(v.bit(0) && v.bit(1) && !v.bit(2) && v.bit(3) && !v.bit(4));
        assert!(!v.bit(1000));
    }

    #[test]
    fn ordering_by_length_then_lex() {
        let small = UBig::from(u64::MAX);
        let big = UBig::from_limbs(vec![0, 1]);
        assert!(small < big);
        assert!(UBig::from(3u64) > UBig::from(2u64));
        assert_eq!(UBig::from(7u64).cmp(&UBig::from(7u64)), Ordering::Equal);
    }

    #[test]
    fn u128_roundtrip() {
        let v: u128 = 0x1234_5678_9abc_def0_1122_3344_5566_7788;
        assert_eq!(UBig::from(v).to_u128(), Some(v));
        assert_eq!(UBig::from(v).to_u64(), None);
        assert_eq!(UBig::from(42u64).to_u64(), Some(42));
    }

    #[test]
    fn trailing_zeros() {
        assert_eq!(UBig::zero().trailing_zeros(), None);
        assert_eq!(UBig::from(1u64).trailing_zeros(), Some(0));
        assert_eq!(UBig::from(8u64).trailing_zeros(), Some(3));
        assert_eq!(UBig::from_limbs(vec![0, 2]).trailing_zeros(), Some(65));
    }

    #[test]
    fn inline_boundary() {
        // up to two limbs: inline, no heap
        assert!(UBig::zero().is_inline());
        assert!(UBig::from(u64::MAX).is_inline());
        assert!(UBig::from(u128::MAX).is_inline());
        assert!(UBig::from_limbs(vec![1, 2]).is_inline());
        // normalization drops trailing zeros back to inline
        assert!(UBig::from_limbs(vec![1, 2, 0, 0]).is_inline());
        // three significant limbs: heap
        assert!(!UBig::from_limbs(vec![1, 2, 3]).is_inline());
    }

    #[test]
    fn equal_values_hash_identically_across_construction_routes() {
        use std::collections::hash_map::DefaultHasher;
        fn fingerprint(v: &UBig) -> u64 {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        }
        // same value via From, from_limbs, and arithmetic that crosses the
        // heap boundary and comes back
        let a = UBig::from(0xfeed_u64);
        let b = UBig::from_limbs(vec![0xfeed, 0, 0]);
        let big = UBig::from_limbs(vec![7, 7, 7]);
        let c = &(&big + &a) - &big;
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&c));
        assert!(c.is_inline());
    }
}
