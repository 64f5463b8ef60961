//! Greatest common divisor: Lehmer's algorithm (Knuth TAOCP Vol. 2,
//! 4.5.2) over two in-place limb buffers, with word-sized tails.

use std::cmp::Ordering;

use crate::ubig::cmp_limbs;
use crate::{DoubleLimb, Limb, UBig};

/// Binary GCD over one native word. Both operands must be nonzero.
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Binary GCD over native `u128`. Both operands must be nonzero.
fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    if (a | b) >> 64 == 0 {
        return gcd_u64(a as u64, b as u64) as u128;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// `gcd(big, w)` for a non-zero limb `w`: one remainder pass over `big`,
/// then a word gcd.
fn gcd_limb(big: &[Limb], w: Limb) -> Limb {
    let r = big.iter().rev().fold(0, |rem: Limb, &l| {
        (((rem as DoubleLimb) << 64 | l as DoubleLimb) % w as DoubleLimb) as Limb
    });
    if r == 0 {
        w
    } else {
        gcd_u64(w, r)
    }
}

fn trim(x: &mut Vec<Limb>) {
    while x.last() == Some(&0) {
        x.pop();
    }
}

/// The cosequence of the Euclidean steps that the leading words of `a ≥ b`
/// determine: after them, `a' = ±(u0·a − v0·b)` and `b' = ±(v1·b − u1·a)`,
/// with the signs alternating step by step (`even` = an even number of
/// steps). Collins' condition stops the simulation while every quotient is
/// still provably the one the full operands give; `v0 == 0` means no step
/// was determined. Needs `a.len() ≥ b.len() ≥ 2`.
struct Cosequence {
    u0: Limb,
    u1: Limb,
    v0: Limb,
    v1: Limb,
    even: bool,
}

fn lehmer_simulate(a: &[Limb], b: &[Limb]) -> Cosequence {
    let n = a.len();
    let h = a[n - 1].leading_zeros();
    // the top word of x at a's alignment, from its limbs n−1 and n−2
    let top = |hi: Limb, lo: Limb| match h {
        0 => hi,
        _ => hi << h | lo >> (64 - h),
    };
    let mut a1 = top(a[n - 1], a[n - 2]);
    let mut a2 = match n - b.len() {
        0 => top(b[n - 1], b[n - 2]),
        1 => top(0, b[n - 2]),
        _ => 0,
    };
    let (mut u0, mut u1, mut u2): (Limb, Limb, Limb) = (0, 1, 0);
    let (mut v0, mut v1, mut v2): (Limb, Limb, Limb) = (0, 0, 1);
    let mut even = false;
    // a1₀ = v2·a1 + v1·a2 throughout (and a2₀ likewise with the u's), so no
    // cosequence term exceeds a leading word; once a2 ≥ v2 holds,
    // v1 ≤ v2 < 2³² and the sum v1 + v2 cannot overflow either
    while a2 >= v2 && a1 - a2 >= v1 + v2 {
        let q = a1 / a2;
        (a1, a2) = (a2, a1 % a2);
        (u0, u1, u2) = (u1, u2, u1 + q * u2);
        (v0, v1, v2) = (v1, v2, v1 + q * v2);
        even = !even;
    }
    Cosequence {
        u0,
        u1,
        v0,
        v1,
        even,
    }
}

/// Running state of one `p·x − q·y` stream, low limb first.
#[derive(Default)]
struct Combine {
    carry_p: Limb,
    carry_q: Limb,
    borrow: bool,
}

impl Combine {
    /// The next limb of `p·x − q·y` given the next limbs `x`, `y`.
    fn step(&mut self, p: Limb, x: Limb, q: Limb, y: Limb) -> Limb {
        let px = p as DoubleLimb * x as DoubleLimb + self.carry_p as DoubleLimb;
        let qy = q as DoubleLimb * y as DoubleLimb + self.carry_q as DoubleLimb;
        self.carry_p = (px >> 64) as Limb;
        self.carry_q = (qy >> 64) as Limb;
        let (d, b1) = (px as Limb).overflowing_sub(qy as Limb);
        let (d, b2) = d.overflowing_sub(self.borrow as Limb);
        self.borrow = b1 || b2;
        d
    }

    /// The combination is non-negative and no wider than the operands.
    fn fits(&self) -> bool {
        self.carry_p == self.carry_q + self.borrow as Limb
    }
}

/// Applies a cosequence to `a ≥ b` in place: limb `i` of both results
/// depends only on limb `i` of both inputs and the running carries.
fn lehmer_update(a: &mut Vec<Limb>, b: &mut Vec<Limb>, c: &Cosequence) {
    b.resize(a.len(), 0);
    let (mut ca, mut cb) = (Combine::default(), Combine::default());
    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
        let (ax, by) = (*x, *y);
        if c.even {
            *x = ca.step(c.u0, ax, c.v0, by);
            *y = cb.step(c.v1, by, c.u1, ax);
        } else {
            *x = ca.step(c.v0, by, c.u0, ax);
            *y = cb.step(c.u1, ax, c.v1, by);
        }
    }
    debug_assert!(
        ca.fits() && cb.fits(),
        "Lehmer step left the remainder sequence"
    );
    trim(a);
    trim(b);
}

/// `gcd(a, b)` of two non-zero trimmed buffers. Each step strictly shrinks
/// the smaller operand: a Lehmer update replaces `(a, b)` by a later pair
/// of their remainder sequence in place; when the leading words determine
/// no quotient (a large one), one full division step `(b, a mod b)` runs —
/// the only step that allocates.
fn gcd_lehmer(mut a: Vec<Limb>, mut b: Vec<Limb>) -> UBig {
    if cmp_limbs(&a, &b) == Ordering::Less {
        std::mem::swap(&mut a, &mut b);
    }
    // room for the zero-extended b, so updates never reallocate
    b.reserve(a.len() - b.len());
    loop {
        // invariant: a ≥ b
        match (a.len(), b.len()) {
            (_, 0) => return UBig::from_limb_vec(a),
            (_, 1) => return UBig::from(gcd_limb(&a, b[0])),
            (2, _) => {
                let wide = |x: &[Limb]| x[0] as u128 | (x[1] as u128) << 64;
                return UBig::from(gcd_u128(wide(&a), wide(&b)));
            }
            _ => {}
        }
        let c = lehmer_simulate(&a, &b);
        if c.v0 != 0 {
            lehmer_update(&mut a, &mut b, &c);
        } else {
            let divisor = UBig::from_limb_vec(std::mem::take(&mut b));
            b = (&UBig::from_limb_vec(a) % &divisor).into_limb_vec();
            a = divisor.into_limb_vec();
        }
    }
}

impl UBig {
    /// Greatest common divisor by Lehmer's algorithm.
    ///
    /// `gcd(0, b) == b`, `gcd(a, 0) == a` and `gcd(a, 1) == 1`. Operands of
    /// at most two limbs take a native `u128` path, a single-limb operand
    /// costs one remainder pass over the other, and wider operands are
    /// copied once into two buffers that the Lehmer steps update in place.
    ///
    /// ```
    /// use aq_bigint::UBig;
    /// assert_eq!(UBig::from(48u64).gcd(&UBig::from(18u64)), UBig::from(6u64));
    /// ```
    pub fn gcd(&self, other: &UBig) -> UBig {
        if self.is_zero() {
            return other.clone();
        }
        if other.is_zero() {
            return self.clone();
        }
        if self.is_one() || other.is_one() {
            return UBig::one();
        }
        // inline fast path: binary GCD entirely in native u128 arithmetic
        if let (Some(a), Some(b)) = (self.to_u128(), other.to_u128()) {
            return UBig::from(gcd_u128(a, b));
        }
        match (self.as_limbs(), other.as_limbs()) {
            (&[w], big) | (big, &[w]) => UBig::from(gcd_limb(big, w)),
            _ => gcd_lehmer(self.to_limb_vec(), other.to_limb_vec()),
        }
    }

    /// Least common multiple. Returns zero if either operand is zero.
    pub fn lcm(&self, other: &UBig) -> UBig {
        if self.is_zero() || other.is_zero() {
            return UBig::zero();
        }
        let g = self.gcd(other);
        if g.is_one() {
            return self * other;
        }
        &(self / &g) * other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(UBig::zero().gcd(&UBig::from(5u64)), UBig::from(5u64));
        assert_eq!(UBig::from(5u64).gcd(&UBig::zero()), UBig::from(5u64));
        assert_eq!(UBig::from(12u64).gcd(&UBig::from(18u64)), UBig::from(6u64));
        assert_eq!(UBig::from(17u64).gcd(&UBig::from(31u64)), UBig::one());
        assert_eq!(UBig::from(64u64).gcd(&UBig::from(48u64)), UBig::from(16u64));
    }

    #[test]
    fn gcd_large_common_factor() {
        let g = UBig::from(0xdead_beefu64).pow(5);
        let a = &g * &UBig::from(101u64);
        let b = &g * &UBig::from(103u64);
        assert_eq!(a.gcd(&b), g);
    }

    #[test]
    fn gcd_divides_both_and_is_maximal() {
        let a = UBig::from(2u64).pow(40) * UBig::from(3u64).pow(17);
        let b = UBig::from(2u64).pow(25) * UBig::from(3u64).pow(30) * UBig::from(7u64);
        let g = a.gcd(&b);
        assert_eq!(&a % &g, UBig::zero());
        assert_eq!(&b % &g, UBig::zero());
        assert_eq!(g, UBig::from(2u64).pow(25) * UBig::from(3u64).pow(17));
    }

    #[test]
    fn lehmer_update_advances_the_remainder_sequence() {
        // consecutive Fibonacci numbers: every quotient is 1, so the leading
        // words determine many steps and each update is a pure cosequence
        let (mut f0, mut f1) = (UBig::one(), UBig::one());
        for _ in 0..300 {
            (f0, f1) = (f1.clone(), &f0 + &f1);
        }
        let (a, b) = (f1.to_limb_vec(), f0.to_limb_vec());
        let c = lehmer_simulate(&a, &b);
        assert!(c.v0 != 0, "Fibonacci leading words must determine steps");
        let (mut x, mut y) = (a, b);
        lehmer_update(&mut x, &mut y, &c);
        assert!(cmp_limbs(&x, &y) != Ordering::Less && cmp_limbs(&y, f0.as_limbs()).is_lt());
        assert_eq!(UBig::from_limbs(x).gcd(&UBig::from_limbs(y)), UBig::one());
    }

    #[test]
    fn lcm_relation() {
        let a = UBig::from(12u64);
        let b = UBig::from(18u64);
        assert_eq!(&a.lcm(&b) * &a.gcd(&b), &a * &b);
        assert_eq!(UBig::zero().lcm(&b), UBig::zero());
    }
}
