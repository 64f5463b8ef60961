//! Arbitrary-precision integer arithmetic for exact quantum decision diagrams.
//!
//! The paper this workspace reproduces uses the GNU Multiple Precision
//! Arithmetic Library (GMP) to hold the integer coefficients of its algebraic
//! number representation. No big-integer crate is available in this build
//! environment, so this crate provides the substrate from scratch:
//!
//! * [`UBig`] — an unsigned magnitude (little-endian `u64` limbs) with
//!   schoolbook and Karatsuba multiplication, Knuth Algorithm D division,
//!   Lehmer GCD, integer square root, shifts and radix conversion.
//! * [`IBig`] — a signed integer built on [`UBig`] with the full set of
//!   arithmetic operators, comparisons and conversions.
//!
//! Values are always stored in canonical form (no leading zero limbs), so
//! `Eq`/`Ord`/`Hash` are structural and cheap.
//!
//! # Examples
//!
//! ```
//! use aq_bigint::IBig;
//!
//! let a = IBig::from(-7) * IBig::from(6);
//! assert_eq!(a.to_string(), "-42");
//!
//! let big: IBig = "123456789012345678901234567890".parse()?;
//! assert_eq!((&big * &big) / &big, big);
//! # Ok::<(), aq_bigint::ParseBigIntError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

mod add;
mod div;
mod float;
mod gcd;
mod ibig;
mod mul;
mod radix;
mod shift;
mod sqrt;
mod ubig;

pub use ibig::{IBig, Sign};
pub use radix::ParseBigIntError;
pub use ubig::UBig;

/// Number of bits in one limb of a [`UBig`].
pub const LIMB_BITS: u32 = 64;

pub(crate) type Limb = u64;
pub(crate) type DoubleLimb = u128;
