//! The exact algebraic weight systems: `Q[ω]` (Algorithm 2) and the
//! GCD-normalized `D[ω]` (Algorithm 3).

use std::hash::Hash;
use std::sync::Mutex;

use aq_bigint::{IBig, UBig};
use aq_rings::assoc::AssocMemo;
use aq_rings::{Complex64, Domega, Qomega, Zomega};

use crate::error::EngineError;
use crate::fxhash::fx_hash;
use crate::snapshot::{ByteReader, ByteWriter};
use crate::unique::UniqueTable;
use crate::weight::{WeightContext, WeightId, WeightTable};

/// Serializes a `Z[ω]` element as four decimal coefficient strings
/// (the bigint radix I/O — exact at any width).
fn put_zomega(z: &Zomega, out: &mut ByteWriter) {
    for c in z.coeffs() {
        out.put_str(&c.to_string());
    }
}

fn take_ibig(r: &mut ByteReader<'_>) -> Result<IBig, String> {
    let s = r.take_str()?;
    s.parse::<IBig>()
        .map_err(|e| format!("bad integer `{s}`: {e}"))
}

fn take_zomega(r: &mut ByteReader<'_>) -> Result<Zomega, String> {
    let a = take_ibig(r)?;
    let b = take_ibig(r)?;
    let c = take_ibig(r)?;
    let d = take_ibig(r)?;
    Ok(Zomega::new(a, b, c, d))
}

/// Generic exact-deduplication weight table: canonical forms are hashable,
/// so equality is structural.
///
/// Values are stored once in an arena; the index holds only precomputed
/// hashes and ids, so interning hashes each value exactly once and never
/// clones it into a map key.
#[derive(Debug)]
pub struct ExactTable<V> {
    values: Vec<V>,
    index: UniqueTable,
}

impl<V: Clone + Eq + Hash> ExactTable<V> {
    fn with_constants(zero: V, one: V) -> Self {
        let mut t = ExactTable {
            values: Vec::new(),
            index: UniqueTable::new(),
        };
        let z = t.intern(zero);
        let o = t.intern(one);
        debug_assert_eq!(z, WeightId::ZERO);
        debug_assert_eq!(o, WeightId::ONE);
        t
    }
}

impl<V: Clone + Eq + Hash> WeightTable for ExactTable<V> {
    type Value = V;

    fn try_intern(&mut self, v: V) -> Result<WeightId, EngineError> {
        let hash = fx_hash(&v);
        let values = &self.values;
        if let Some(id) = self.index.find(hash, |i| values[i as usize] == v) {
            return Ok(WeightId(id));
        }
        let id = u32::try_from(self.values.len()).map_err(|_| EngineError::WeightTableOverflow)?;
        self.values.push(v);
        self.index.insert(hash, id);
        Ok(WeightId(id))
    }

    fn get(&self, id: WeightId) -> &V {
        &self.values[id.index()]
    }

    fn len(&self) -> usize {
        self.values.len()
    }
}

/// The `Q[ω]` weight system with field-inverse normalization — the paper's
/// **Algorithm 2** and the scheme that “always outperformed the
/// normalization scheme that uses GCDs” in the evaluation (Sec. V-B).
///
/// Every weight is an exact element of the cyclotomic field `Q[ω]`; node
/// weights are normalized by dividing through the leftmost non-zero
/// weight, which is always possible because `Q[ω]` is a field.
///
/// # Examples
///
/// ```
/// use aq_dd::{GateMatrix, Manager, QomegaContext};
///
/// let mut m = Manager::new(QomegaContext::new(), 1);
/// let h = m.gate(&GateMatrix::h(), 0, &[]);
/// let t = m.gate(&GateMatrix::t(), 0, &[]);
/// // (TH)·(TH)⁻¹ never leaves the exact ring, so equality is structural:
/// let th = m.mat_mul(&t, &h);
/// assert_ne!(th, m.identity());
/// ```
#[derive(Debug, Clone, Default)]
pub struct QomegaContext;

impl QomegaContext {
    /// Creates the context.
    pub fn new() -> Self {
        QomegaContext
    }
}

impl WeightContext for QomegaContext {
    type Value = Qomega;
    type Table = ExactTable<Qomega>;

    fn new_table(&self) -> Self::Table {
        ExactTable::with_constants(Qomega::zero(), Qomega::one())
    }

    fn zero(&self) -> Qomega {
        Qomega::zero()
    }

    fn one(&self) -> Qomega {
        Qomega::one()
    }

    fn add(&self, a: &Qomega, b: &Qomega) -> Qomega {
        a + b
    }

    fn mul(&self, a: &Qomega, b: &Qomega) -> Qomega {
        a * b
    }

    fn neg(&self, a: &Qomega) -> Qomega {
        -a
    }

    fn conj(&self, a: &Qomega) -> Qomega {
        a.conj()
    }

    fn is_canonical_value(&self, v: &Qomega) -> bool {
        v.numerator().repr_is_canonical()
    }

    fn is_zero(&self, a: &Qomega) -> bool {
        a.is_zero()
    }

    fn normalize(&self, ws: &mut [Qomega]) -> Option<Qomega> {
        // Algorithm 2: divide all weights by the leftmost non-zero one.
        let pivot = ws.iter().position(|w| !w.is_zero())?;
        let eta = ws[pivot].clone();
        // aq-lint: allow(R1): position() selected a non-zero weight, which is invertible in Q[omega]
        let inv = eta.inverse().expect("pivot is non-zero");
        for (i, w) in ws.iter_mut().enumerate() {
            if i == pivot {
                *w = Qomega::one();
            } else if !w.is_zero() {
                *w = &*w * &inv;
            }
        }
        Some(eta)
    }

    fn from_exact(&self, d: &Domega) -> Qomega {
        Qomega::from(d.clone())
    }

    fn from_approx(&self, _c: Complex64) -> Option<Qomega> {
        None // irrational angles must be Clifford+T-compiled first
    }

    fn sqrt_inv(&self, a: &Qomega) -> Option<Qomega> {
        // 1/√p is representable exactly iff p = √2^{-k} with even k:
        // then 1/√p = √2^{k/2}. Dyadic probabilities (1/2^m) all have
        // this form; everything else leaves the field.
        if a.numerator().is_one() && a.denom().is_one() && a.k() % 2 == 0 {
            Some(Qomega::from(Domega::new(Zomega::one(), -(a.k() / 2))))
        } else {
            None
        }
    }

    fn to_complex(&self, a: &Qomega) -> Complex64 {
        a.to_complex64()
    }

    fn value_bits(&self, a: &Qomega) -> u64 {
        a.coeff_bits()
    }

    fn kind(&self) -> &'static str {
        "qomega"
    }

    fn write_value(&self, v: &Qomega, out: &mut ByteWriter) {
        put_zomega(v.numerator(), out);
        out.put_i64(v.k());
        out.put_str(&v.denom().to_string());
    }

    fn read_value(&self, r: &mut ByteReader<'_>) -> Result<Qomega, String> {
        let num = take_zomega(r)?;
        let k = r.take_i64()?;
        let denom_str = r.take_str()?;
        let denom = UBig::from_decimal_str(&denom_str)
            .map_err(|e| format!("bad denominator `{denom_str}`: {e}"))?;
        if denom.is_zero() {
            return Err("zero denominator".into());
        }
        // Qomega::new reduces; a canonically stored value round-trips
        // structurally unchanged.
        Ok(Qomega::new(num, k, denom))
    }
}

/// A gcd in `Z[ω]` of the non-zero numerators of `ws`, or `None` when that
/// gcd is a `D[ω]` unit — the common case, which then needs little or no
/// Euclid. `ws` must hold a non-zero weight.
///
/// Norm certificate: a common divisor of `g` and the next numerator `w` has
/// an absolute norm dividing `M = gcd_Z(E(g), E(w))`. When `M` is a power
/// of two (1 included), that divisor is `(1+ω)^j` times a `Z[ω]` unit,
/// because `1+ω` is the only prime of `Z[ω]` above 2; and `(1+ω)² = λ·ω·√2`
/// makes `1+ω` a `D[ω]` unit, which the unit-invariant canonical associate
/// absorbs. The chain stops the same way once `E(g)` itself is a power of
/// two. Otherwise it runs Euclid exactly as before, so a non-unit result is
/// the one the plain chain would give.
///
/// A stop returns `None`, so the caller divides by 1 — never by the `g`
/// reached so far: that `g` need not divide the numerators not yet seen,
/// and the per-weight division is exact only for a common `Z[ω]` divisor.
fn numerator_gcd(ws: &[Domega]) -> Option<Zomega> {
    let mut nums = ws.iter().filter(|w| !w.is_zero()).map(Domega::numerator);
    // aq-lint: allow(R1): the caller found a pivot, so one numerator is non-zero
    let mut g = nums.next().expect("a non-zero weight").clone();
    let mut eg = g.euclidean_value().into_magnitude();
    loop {
        if eg.is_power_of_two() {
            return None;
        }
        let Some(num) = nums.next() else {
            return Some(g);
        };
        if eg.gcd(num.euclidean_value().magnitude()).is_power_of_two() {
            return None;
        }
        g = g.gcd(num);
        eg = g.euclidean_value().into_magnitude();
    }
}

/// The `D[ω]` weight system with canonical-GCD normalization — the paper's
/// **Algorithm 3**, enabled by `Z[ω]` being a Euclidean ring.
///
/// Node weights are divided by a greatest common divisor adjusted to the
/// canonical associate (norm-reduced, rotation-minimal), so the diagram is
/// canonical without ever leaving `D[ω]`.
///
/// The GCD extraction is **lazy**: [`GcdContext::normalize`] runs one plain
/// Euclidean GCD chain over the raw numerators (the per-weight `√2`
/// denominator exponents stay pending and are re-reduced once per weight),
/// then performs a single — memoized — canonical-associate search. Because
/// the canonical associate is unit-invariant, the result is bit-identical
/// to eager per-step canonicalization, at a fraction of the cost.
#[derive(Debug)]
pub struct GcdContext {
    /// Memo for the canonical-associate triple `(z_c, unit, unit⁻¹)` — the
    /// dominant cost of Algorithm 3, and highly repetitive across nodes.
    memo: Mutex<AssocMemo>,
}

/// Slot count of the per-context canonical-associate memo (bounded,
/// direct-mapped, lossy — identical results on hit or miss).
const ASSOC_MEMO_SLOTS: usize = 1 << 12;

impl GcdContext {
    /// Creates the context.
    pub fn new() -> Self {
        GcdContext {
            memo: Mutex::new(AssocMemo::new(ASSOC_MEMO_SLOTS)),
        }
    }

    /// `(hits, misses)` of the canonical-associate memo.
    pub fn assoc_memo_stats(&self) -> (u64, u64) {
        self.lock_memo().stats()
    }

    /// Locks the memo. The lock is uncontended in practice (managers are
    /// moved across threads, not shared), and the memo holds no invariant
    /// that a panic mid-`triple` could break — a poisoned lock is safe to
    /// keep using.
    fn lock_memo(&self) -> std::sync::MutexGuard<'_, AssocMemo> {
        self.memo.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Clone for GcdContext {
    fn clone(&self) -> Self {
        // The memo is lossy cache state, not semantics: a clone with a
        // fresh memo produces bit-identical normalizations.
        GcdContext::new()
    }
}

impl Default for GcdContext {
    fn default() -> Self {
        GcdContext::new()
    }
}

impl WeightContext for GcdContext {
    type Value = Domega;
    type Table = ExactTable<Domega>;

    fn new_table(&self) -> Self::Table {
        ExactTable::with_constants(Domega::zero(), Domega::one())
    }

    fn zero(&self) -> Domega {
        Domega::zero()
    }

    fn one(&self) -> Domega {
        Domega::one()
    }

    fn add(&self, a: &Domega, b: &Domega) -> Domega {
        a + b
    }

    fn mul(&self, a: &Domega, b: &Domega) -> Domega {
        a * b
    }

    fn neg(&self, a: &Domega) -> Domega {
        -a
    }

    fn conj(&self, a: &Domega) -> Domega {
        a.conj()
    }

    fn is_canonical_value(&self, v: &Domega) -> bool {
        // `is_reduced` is exactly "no pending lazy-GCD state": minimal √2
        // exponent and canonical (inline-where-it-fits) coefficients.
        v.is_reduced()
    }

    fn is_zero(&self, a: &Domega) -> bool {
        a.is_zero()
    }

    fn normalize(&self, ws: &mut [Domega]) -> Option<Domega> {
        // Algorithm 3, lazily: a norm-certified Euclidean GCD chain over the
        // raw numerators (denominator exponents stay pending), then a single
        // memoized canonical-associate search and one cheap exact division
        // per weight. The GCD is unique only up to units, and the pending
        // `√2` powers shift it by further `D[ω]` units — both absorbed by
        // the unit-invariant canonical associate, so the output is
        // bit-identical to eager per-step canonicalization.
        let pivot = ws.iter().position(|w| !w.is_zero())?;
        let g = numerator_gcd(ws);

        // Exact division by g in Z[ω], hoisting the division setup
        // (conjugate, Galois factor, field norm) out of the per-weight loop:
        // num/g = num·conj(g)·σ(N(g)) / fieldnorm(g), coordinate-exact
        // whenever g | num — which holds for every numerator by
        // construction of the GCD.
        let g_div = g.as_ref().map(|g| {
            let n = g.norm();
            let denom = n.field_norm();
            let sigma = Zomega::new(n.v.clone(), IBig::zero(), -&n.v, n.u.clone());
            (&g.conj() * &sigma, denom)
        });
        let div_g = |num: &Zomega| match &g_div {
            None => num.clone(),
            Some((adj, denom)) => (num * adj).div_scalar_exact(denom),
        };

        // One canonical-associate search on z = w_pivot/g (memoized): the
        // batched replacement for per-step `gcd_canonical` calls.
        let z = Domega::new(div_g(ws[pivot].numerator()), ws[pivot].k());
        let (zc, unit, unit_inv) = self.lock_memo().triple(&z);
        // η = g·unit, so that w_pivot/η = canonical associate z_c.
        let eta = match g {
            Some(g) => &Domega::from(g) * &unit,
            None => unit,
        };
        for (i, w) in ws.iter_mut().enumerate() {
            if w.is_zero() {
                continue;
            }
            if i == pivot {
                *w = Domega::from(zc.clone());
            } else {
                // w/η = (num/g)/√2^k · unit⁻¹ — the pending exponent is
                // paid here, once, by Domega's canonical reduction.
                let q = Domega::new(div_g(w.numerator()), w.k());
                *w = &q * &unit_inv;
            }
        }
        Some(eta)
    }

    fn from_exact(&self, d: &Domega) -> Domega {
        d.clone()
    }

    fn from_approx(&self, _c: Complex64) -> Option<Domega> {
        None
    }

    fn sqrt_inv(&self, a: &Domega) -> Option<Domega> {
        // same criterion as `Q[ω]`: p must be an even power of √2
        if a.numerator().is_one() && a.k() % 2 == 0 {
            Some(Domega::new(Zomega::one(), -(a.k() / 2)))
        } else {
            None
        }
    }

    fn to_complex(&self, a: &Domega) -> Complex64 {
        a.to_complex64()
    }

    fn value_bits(&self, a: &Domega) -> u64 {
        a.coeff_bits()
    }

    fn kind(&self) -> &'static str {
        "gcd-domega"
    }

    fn write_value(&self, v: &Domega, out: &mut ByteWriter) {
        put_zomega(v.numerator(), out);
        out.put_i64(v.k());
    }

    fn read_value(&self, r: &mut ByteReader<'_>) -> Result<Domega, String> {
        let num = take_zomega(r)?;
        let k = r.take_i64()?;
        Ok(Domega::new(num, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq_rings::assoc::gcd_canonical;
    use aq_rings::Zomega;
    use aq_testutil::Rng;

    fn zo(a: i64, b: i64, c: i64, d: i64) -> Zomega {
        Zomega::new(a.into(), b.into(), c.into(), d.into())
    }

    fn dw(a: i64, b: i64, c: i64, d: i64, k: i64) -> Domega {
        Domega::new(zo(a, b, c, d), k)
    }

    #[test]
    fn exact_table_dedups_structurally() {
        let ctx = QomegaContext::new();
        let mut t = ctx.new_table();
        let a = t.intern(Qomega::from_int_ratio(1, 3));
        let b = t.intern(&Qomega::from_int_ratio(2, 3) - &Qomega::from_int_ratio(1, 3));
        assert_eq!(a, b, "canonical forms must coincide");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn qomega_normalize_leftmost_becomes_one() {
        let ctx = QomegaContext::new();
        let mut ws = [
            Qomega::zero(),
            Qomega::from(Domega::one_over_sqrt2()),
            Qomega::from_int(-1),
            Qomega::from_int_ratio(3, 5),
        ];
        let orig = ws.clone();
        let eta = ctx.normalize(&mut ws).expect("nonzero");
        assert!(ws[1].is_one());
        for (w, o) in ws.iter().zip(&orig) {
            assert_eq!(&(&eta * w), o, "η·w' must reproduce w");
        }
    }

    #[test]
    fn qomega_normalize_all_zero() {
        let ctx = QomegaContext::new();
        assert!(ctx
            .normalize(&mut [Qomega::zero(), Qomega::zero()])
            .is_none());
    }

    #[test]
    fn gcd_normalize_reproduces_weights() {
        let ctx = GcdContext::new();
        let mut ws = [
            dw(0, 0, 0, 6, 1),
            dw(0, 0, 0, -9, 1),
            Domega::zero(),
            dw(0, 0, 3, 3, 1),
        ];
        let orig = ws.clone();
        let eta = ctx.normalize(&mut ws).expect("nonzero");
        for (w, o) in ws.iter().zip(&orig) {
            assert_eq!(&(&eta * w), o);
        }
        // the common factor 3 (times units) must have been extracted:
        // remaining weights have coprime numerators.
        let g = gcd_canonical(ws.iter()).expect("nonzero");
        assert!(
            g.euclidean_value().is_one(),
            "weights still share a factor: {g:?}"
        );
    }

    /// The eager Algorithm 3: canonical GCD up front (the full Euclid
    /// chain of `gcd_canonical`), full Q[ω] field division per weight. The
    /// lazy path must agree bitwise (canonical Domega representation is
    /// unique, so value equality is structural equality).
    fn eager(ws: &mut [Domega]) -> Option<Domega> {
        let div = |a: &Domega, b: &Domega| {
            (&Qomega::from(a.clone()) / &Qomega::from(b.clone()))
                .to_domega()
                .expect("exact by construction")
        };
        let g = Domega::from(gcd_canonical(ws.iter())?);
        let pivot = ws.iter().position(|w| !w.is_zero()).expect("gcd found one");
        let z = div(&ws[pivot], &g);
        let (zc, unit) = aq_rings::assoc::canonical_associate(&z);
        let eta = &g * &unit;
        for (i, w) in ws.iter_mut().enumerate() {
            if w.is_zero() {
                continue;
            }
            if i == pivot {
                *w = Domega::from(zc.clone());
            } else {
                *w = div(w, &eta);
            }
        }
        Some(eta)
    }

    #[test]
    fn lazy_normalize_is_bit_identical_to_eager_reference() {
        let ctx = GcdContext::new();
        let tuples: Vec<Vec<Domega>> = vec![
            vec![dw(0, 0, 0, 6, 1), dw(0, 0, 0, -9, 1), dw(0, 0, 3, 3, 1)],
            vec![Domega::zero(), dw(1, 0, 2, 3, 0), dw(0, 1, 1, -1, 2)],
            vec![dw(2, 2, 0, 4, 1), dw(0, 0, 0, 2, 3), dw(0, 0, 0, 0, 0)],
            vec![dw(0, 0, 0, 5, 0), dw(0, 0, 0, 7, 0)],
            vec![dw(1, 1, 1, 3, 5), dw(-7, 2, 0, 0, -3)],
            vec![dw(0, 0, 0, 1, 1), dw(0, 0, 0, 1, 1)], // identical weights
            vec![Domega::zero(), dw(3, -1, 4, 2, 2)],   // single non-zero
        ];
        // run each tuple twice so the second pass exercises memo hits
        for _ in 0..2 {
            for t in &tuples {
                let mut lazy = t.clone();
                let mut reference = t.clone();
                let eta_lazy = ctx.normalize(&mut lazy);
                let eta_eager = eager(&mut reference);
                assert_eq!(eta_lazy, eta_eager, "η differs for {t:?}");
                assert_eq!(lazy, reference, "weights differ for {t:?}");
            }
        }
        let (hits, misses) = ctx.assoc_memo_stats();
        assert!(hits > 0, "second pass must hit the memo");
        assert!(misses > 0);
    }

    /// A `Z[ω]` cofactor whose coefficients reach past `i64`.
    fn cofactor(rng: &mut Rng) -> Zomega {
        let mut coeff = || {
            let small = IBig::from(rng.below(41) as i64 - 20);
            match rng.below(3) {
                0 => &(&small * &(&IBig::from(rng.next_u64()) << 20)) + &IBig::from(7),
                _ => small,
            }
        };
        Zomega::new(coeff(), coeff(), coeff(), coeff())
    }

    /// `base^e` in `D[ω]`, for `e ≥ 0`.
    fn dpow(base: &Domega, e: u64) -> Domega {
        (0..e).fold(Domega::one(), |acc, _| &acc * base)
    }

    /// A shared factor drawn from the units and primes the norm certificate
    /// must tell apart: `(1+ω)^j`, `λ^±j`, `ω^j` and `√2^k` (all `D[ω]`
    /// units) times the odd-norm primes `2+ω` and `3`.
    fn shared_factor(rng: &mut Rng) -> Domega {
        let one_plus_omega = Domega::from(zo(0, 0, 1, 1));
        let lambda = Domega::from(zo(-1, 0, 1, 1));
        let lambda_inv = Domega::from(zo(-1, 0, 1, -1));
        let lambda_pow = rng.below(5) as i64 - 2;
        let lambda_part = if lambda_pow >= 0 {
            dpow(&lambda, lambda_pow as u64)
        } else {
            dpow(&lambda_inv, lambda_pow.unsigned_abs())
        };
        let units = &(&dpow(&one_plus_omega, rng.below(5)) * &lambda_part)
            * &dpow(&Domega::omega(), rng.below(8));
        let units = units.mul_sqrt2_pow(rng.below(7) as i64 - 3);
        let primes = &dpow(&Domega::from(zo(0, 0, 1, 2)), rng.below(3))
            * &dpow(&Domega::from_int(3), rng.below(2));
        &units * &primes
    }

    fn assert_matches_eager(ctx: &GcdContext, t: &[Domega]) {
        let mut lazy = t.to_vec();
        let mut reference = t.to_vec();
        let eta_lazy = ctx.normalize(&mut lazy);
        let eta_eager = eager(&mut reference);
        assert_eq!(eta_lazy, eta_eager, "η differs for {t:?}");
        assert_eq!(lazy, reference, "weights differ for {t:?}");
        if let Some(eta) = eta_lazy {
            for (w, o) in lazy.iter().zip(t) {
                assert_eq!(&(&eta * w), o, "η·w' must reproduce w");
            }
        }
    }

    #[test]
    fn certificate_normalize_matches_eager_euclid_chain() {
        // `div_scalar_exact` asserts that every per-weight division by g
        // is exact.
        let ctx = GcdContext::new();
        let mut rng = Rng::from_seed(0xa1_93);
        let (mut unit_gcds, mut proper_gcds) = (0, 0);
        for _ in 0..400 {
            let shared = shared_factor(&mut rng);
            let len = 2 + rng.below(3) as usize;
            let t: Vec<Domega> = (0..len)
                .map(|_| match rng.below(8) {
                    0 => Domega::zero(),
                    _ => {
                        let c = Domega::new(cofactor(&mut rng), rng.below(5) as i64 - 2);
                        &shared * &c
                    }
                })
                .collect();
            match gcd_canonical(t.iter()) {
                Some(g) if g.is_one() => unit_gcds += 1,
                Some(_) => proper_gcds += 1,
                None => {}
            }
            assert_matches_eager(&ctx, &t);
        }
        assert!(
            unit_gcds > 40 && proper_gcds > 40,
            "both paths must be exercised: {unit_gcds} unit, {proper_gcds} proper gcds"
        );
    }

    #[test]
    fn certificate_stop_on_a_power_of_one_plus_omega_divides_by_one() {
        // The first numerator is (1+ω)^j times a unit: a D[ω] unit but not
        // a Z[ω] one. A later numerator with odd norm is not divisible by
        // 1+ω, so dividing it by the g the chain stopped on would panic in
        // `div_scalar_exact`.
        let ctx = GcdContext::new();
        let mut rng = Rng::from_seed(0x1_0e);
        let one_plus_omega = Domega::from(zo(0, 0, 1, 1));
        let mut checked = 0;
        while checked < 60 {
            let c = cofactor(&mut rng);
            if c.euclidean_value().is_even() {
                continue;
            }
            let j = 1 + rng.below(4);
            let first = &dpow(&one_plus_omega, j) * &dpow(&Domega::omega(), rng.below(8));
            let later = Domega::new(c, rng.below(3) as i64);
            assert_matches_eager(&ctx, &[first.clone(), later.clone()]);
            assert_matches_eager(&ctx, &[Domega::zero(), first, later, Domega::one()]);
            checked += 1;
        }
    }

    #[test]
    fn gcd_normalize_is_unit_invariant() {
        let ctx = GcdContext::new();
        let base = [dw(1, 0, 2, 3, 0), dw(0, 1, 1, -1, 2), dw(2, 2, 0, 4, 1)];
        let mut w1 = base.clone();
        let n1 = ctx.normalize(&mut w1).expect("nonzero");
        // scale all weights by a unit: ω/√2
        let u = &Domega::omega() * &Domega::one_over_sqrt2();
        let mut w2 = base.clone();
        for w in &mut w2 {
            *w = &*w * &u;
        }
        let n2 = ctx.normalize(&mut w2).expect("nonzero");
        assert_eq!(w1, w2, "normalized weights must be scale-invariant");
        assert_eq!(&n2, &(&n1 * &u));
    }

    #[test]
    fn algebraic_contexts_reject_irrational_gates() {
        let c = Complex64::from_polar_unit(0.3);
        assert!(QomegaContext::new().from_approx(c).is_none());
        assert!(GcdContext::new().from_approx(c).is_none());
    }

    #[test]
    fn value_bits_grow_with_coefficients() {
        let ctx = QomegaContext::new();
        let big = Qomega::from_int_ratio(i64::MAX, 3);
        assert!(ctx.value_bits(&big) >= 60);
        assert_eq!(ctx.value_bits(&Qomega::one()), 1);
    }
}
