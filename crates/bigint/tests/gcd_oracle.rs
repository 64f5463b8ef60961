//! `UBig::gcd` against a Euclid-by-`%` oracle, on the shapes where a gcd
//! kernel goes wrong: trivial and single-limb operands, the inline/heap
//! boundary, powers of two, equal and adjacent operands, large shared
//! factors, long runs of unit quotients and lopsided lengths.

use aq_bigint::{IBig, UBig};
use aq_testutil::Rng;

/// Euclid's algorithm by remainder: slow, but obviously right.
fn oracle(a: &UBig, b: &UBig) -> UBig {
    let (mut x, mut y) = (a.clone(), b.clone());
    while !y.is_zero() {
        let r = &x % &y;
        x = y;
        y = r;
    }
    x
}

fn check(a: &UBig, b: &UBig) {
    let want = oracle(a, b);
    assert_eq!(a.gcd(b), want, "gcd({a}, {b})");
    assert_eq!(b.gcd(a), want, "gcd({b}, {a})");
}

fn pow2(k: u64) -> UBig {
    UBig::one().shl_bits(k)
}

/// A limb biased towards the edge values of a word.
fn limb(rng: &mut Rng) -> u64 {
    match rng.below(6) {
        0 => 0,
        1 => u64::MAX,
        2 => 1 << 63,
        3 => rng.next_u64() >> rng.below(64),
        _ => rng.next_u64(),
    }
}

fn ubig(rng: &mut Rng, max_limbs: u64) -> UBig {
    let n = rng.below(max_limbs + 1) as usize;
    UBig::from_limbs((0..n).map(|_| limb(rng)).collect())
}

fn fib(n: usize) -> UBig {
    let (mut f0, mut f1) = (UBig::zero(), UBig::one());
    for _ in 0..n {
        (f0, f1) = (f1.clone(), &f0 + &f1);
    }
    f0
}

#[test]
fn zero_one_and_single_limb_operands() {
    let big = UBig::from_limbs(vec![7, 0, 5, 9]);
    assert_eq!(UBig::zero().gcd(&UBig::zero()), UBig::zero());
    for x in [
        UBig::one(),
        UBig::from(12u64),
        UBig::from(u128::MAX),
        big.clone(),
    ] {
        assert_eq!(UBig::zero().gcd(&x), x);
        assert_eq!(x.gcd(&UBig::zero()), x);
        assert_eq!(x.gcd(&UBig::one()), UBig::one());
        assert_eq!(UBig::one().gcd(&x), UBig::one());
        assert_eq!(x.gcd(&x), x);
    }
    for w in [2u64, 3, 7, 1 << 40, u64::MAX, 0x8000_0000_0000_0001] {
        check(&big, &UBig::from(w));
        check(&(&big * &UBig::from(w)), &UBig::from(w));
        check(
            &(&big * &UBig::from(w)),
            &UBig::from(w.wrapping_mul(6).max(2)),
        );
    }
}

#[test]
fn inline_heap_boundary() {
    let two_128 = pow2(128);
    let edges = [
        UBig::from(u64::MAX),
        pow2(64),
        UBig::from(u128::MAX - 1),
        UBig::from(u128::MAX),
        two_128.clone(),
        &two_128 + &UBig::one(),
        &two_128 * &UBig::from(3u64),
        UBig::from_limbs(vec![u64::MAX; 3]),
        UBig::from_limbs(vec![1, 0, 1]),
        &UBig::from(u128::MAX) * &UBig::from(u64::MAX),
    ];
    for a in &edges {
        for b in &edges {
            check(a, b);
        }
    }
    // the result crosses back to inline: a shared two-limb factor
    let g = UBig::from(0xffff_ffff_ffff_fff1_0000_0000_0000_0001u128);
    let a = &g * &pow2(70);
    let b = &g * &UBig::from(u64::MAX);
    assert_eq!(a.gcd(&b), g);
    assert!(a.gcd(&b).is_inline());
}

#[test]
fn powers_of_two_equal_and_adjacent_operands() {
    for i in [0u64, 1, 63, 64, 65, 127, 128, 129, 300] {
        for j in [0u64, 5, 64, 128, 200, 511] {
            assert_eq!(pow2(i).gcd(&pow2(j)), pow2(i.min(j)));
        }
    }
    let m = UBig::from_limbs(vec![0x1234_5678_9abc_def1, 42, 99, 7]);
    assert_eq!((&m * &pow2(100)).gcd(&(&m * &pow2(37))), &m * &pow2(37));
    for a in [UBig::from(u128::MAX), m.clone(), &m * &m] {
        let next = &a + &UBig::one();
        assert_eq!(a.gcd(&next), UBig::one());
        assert_eq!(a.gcd(&a), a);
        check(&a, &(&a - &UBig::one()));
    }
}

#[test]
fn large_shared_factor() {
    let mut rng = Rng::from_seed(7);
    for _ in 0..50 {
        let g = &ubig(&mut rng, 16) + &UBig::one();
        let p = ubig(&mut rng, 6);
        let q = ubig(&mut rng, 6);
        let (a, b) = (&g * &p, &g * &q);
        let want = &g * &oracle(&p, &q);
        assert_eq!(a.gcd(&b), want, "shared factor {g}");
    }
}

#[test]
fn unit_quotient_runs_and_lopsided_lengths() {
    // consecutive Fibonacci numbers: all quotients are 1
    assert_eq!(fib(700).gcd(&fib(701)), UBig::one());
    // gcd(F_m, F_n) = F_gcd(m, n)
    assert_eq!(fib(600).gcd(&fib(450)), fib(150));
    assert_eq!(fib(1000).gcd(&fib(375)), fib(125));
    // one huge quotient, then ordinary steps
    let b = UBig::from_limbs(vec![3, 5, 8]);
    let a = &(&b * &pow2(1000)) + &UBig::from(13u64);
    check(&a, &b);
}

#[test]
fn random_operands_match_oracle() {
    let mut rng = Rng::from_seed(0x9cd);
    for _ in 0..3000 {
        let g = ubig(&mut rng, 3);
        let a = &ubig(&mut rng, 8) * &g;
        let b = &ubig(&mut rng, 8) * &g;
        check(&a, &b);
    }
}

#[test]
fn lcm_times_gcd_is_the_product() {
    let mut rng = Rng::from_seed(11);
    for _ in 0..300 {
        let g = ubig(&mut rng, 2);
        let a = &ubig(&mut rng, 5) * &g;
        let b = &ubig(&mut rng, 5) * &g;
        assert_eq!(&a.lcm(&b) * &a.gcd(&b), &a * &b);
    }
}

#[test]
fn ibig_gcd_is_non_negative() {
    let x: IBig = "-340282366920938463463374607431768211456000"
        .parse()
        .expect("valid");
    let y: IBig = "1000000000000000000000000000000000".parse().expect("valid");
    for (a, b) in [(&x, &y), (&y, &x), (&x, &x)] {
        for (sa, sb) in [(1, 1), (1, -1), (-1, 1), (-1, -1)] {
            let (a, b) = (a * &IBig::from(sa), b * &IBig::from(sb));
            let g = a.gcd(&b);
            assert!(!g.is_negative(), "gcd({a}, {b}) = {g}");
            assert_eq!(g.magnitude(), &oracle(a.magnitude(), b.magnitude()));
        }
    }
    assert_eq!(IBig::from(-5).gcd(&IBig::zero()), IBig::from(5));
    assert_eq!(IBig::zero().gcd(&IBig::zero()), IBig::zero());
}
