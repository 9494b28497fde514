"""Independent references that only the tests use.

The truncated Euler product of the Dedekind zeta function, Euler's phi,
quadratic ideal counts by norm, fractional ideals in integer Hermite
normal form, and a Monte Carlo estimate of the column integral.  The
package computes the same quantities by other routes (Dirichlet
L-functions, the Kronecker symbol, lattice indices modulo q) or bounds
them (the column-form height bound), so agreement with these is
evidence.  The box oracles' term-by-term loops and the one-k-at-a-time
threshold scan are here too: the package skips terms and bisects, and
must return the same floats.  So are the zeta kernel's prime powers by
two exponentials and the zeta compositions in mpmath.iv, which the
package replaced by one exponential per prime and raw libmp intervals
with equal results.  pytest puts this directory on sys.path, so
the test modules import it as `refroutes`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np
from mpmath import iv
from mpmath.libmp import from_float, mpf_exp, mpf_mul, mpf_neg, round_ceiling, round_floor

from latmoment.bounds import (
    _EVAL_PREC,
    _FIX_BITS,
    _ONE,
    HeightHypothesis,
    ZetaInterval,
    _enclose,
    _fix_mpf,
    _log_bounds,
    _precision_cutoff,
    _quadratic_splitting,
    _zeta_key,
    dedekind_zeta_field,
    t0_threshold,
)
from latmoment.numberfield import (
    FieldElement,
    NumberField,
    _factorize,
    _scaled_mul_rows,
    conjugates,
)
from latmoment.oracle import (
    McEstimate,
    _ball_points,
    _bounded_denominator_elements,
    _dirichlet_value,
    _hit_rate,
    _mc_inputs,
    _place_blocks,
)


# ---------------------------------------------------------------------------
# quadratic ideal counts and Euler's phi


def _quadratic_ideal_counts(F: NumberField, X: int) -> np.ndarray:
    """Ideal counts by norm 0..X in a quadratic field, in O(X^2).

    With basis {1, w} and w^2 = e w + f, primitive ideals of norm a are the
    roots of b^2 + e b - f mod a; summing over square divisors adds the rest.
    """
    e = -F.min_poly[1]
    f = -F.min_poly[0]
    prim = np.zeros(X + 1, dtype=np.int64)
    prim[1] = 1
    for a in range(2, X + 1):
        b = np.arange(a, dtype=np.int64)
        prim[a] = int(np.count_nonzero((b * b + e * b - f) % a == 0))
    counts = np.zeros(X + 1, dtype=np.int64)
    for c in range(1, math.isqrt(X) + 1):
        cc = c * c
        top = X // cc
        counts[cc * np.arange(1, top + 1)] += prim[1 : top + 1]
    return counts


@cache
def _euler_phi(n: int) -> int:
    phi = 1
    for p, e in _factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


# ---------------------------------------------------------------------------
# Euler-product zeta reference

# the memo holds one ZetaInterval per distinct Euler product
_EULER_CACHE_SIZE = 4096


def _primes_upto(P: int) -> list[int]:
    if P < 2:
        return []
    sieve = bytearray([1]) * (P + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(P) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, P + 1) if sieve[p]]


def _mult_order(p: int, n: int) -> int:
    if n == 1:
        return 1
    r = p % n
    if math.gcd(r, n) != 1:
        raise ValueError(f"{p} is not a unit modulo {n}")
    order, x = 1, r
    while x != 1:
        x = x * r % n
        order += 1
    return order


def _cyclotomic_splitting(n: int, p: int) -> tuple[int, int]:
    n_p = n
    while n_p % p == 0:
        n_p //= p
    f = _mult_order(p, n_p)
    return f, _euler_phi(n_p) // f


def _splitting(key: tuple[str, int], p: int) -> tuple[int, int]:
    kind, param = key
    if kind == "cyclotomic":
        return _cyclotomic_splitting(param, p)
    return _quadratic_splitting(param, p)


@lru_cache(maxsize=32)
def _prime_powers(s: float, Q: int) -> list:
    """The 80-bit intervals p^-s for the primes p <= Q, shared by every
    field's product at s; only _euler_interval's product calls it, inside
    _enclose's precision."""
    s_iv = iv.mpf(s)
    return [iv.mpf(p) ** -s_iv for p in _primes_upto(Q)]


@lru_cache(maxsize=_EULER_CACHE_SIZE)
def _euler_interval(
    splitting: tuple[str, int],
    d: int,
    s: float,
    P: int,
    conductor: int | str,
) -> ZetaInterval:
    """Truncated Euler product of a degree-d field, tail bound included.

    splitting is ("cyclotomic", n) or ("quadratic", disc); _splitting(key, p)
    = (f, g) means that g primes of norm p^f lie above p.  The product runs
    over p <= Q = _precision_cutoff(s, P) and the tail bound, proved in
    euler_zeta, covers p > Q; endpoints are rounded outward.  The
    arguments are the memo key, so callers pass s as a float, P as an int.
    """
    if not s > 1:
        raise ValueError(f"need s > 1, got s = {s}")
    if not P >= 1:
        raise ValueError(f"need P >= 1, got P = {P}")
    Q = _precision_cutoff(s, P)

    def product():
        one = iv.mpf(1)
        s_iv = iv.mpf(s)
        partial = one
        for p, power in zip(_primes_upto(Q), _prime_powers(s, Q)):
            f, g = _splitting(splitting, p)
            partial *= (one - power**f) ** (-g)
        high = partial * (one + iv.mpf(Q) ** (one - s_iv) / (s_iv - one)) ** d
        return iv.mpf([partial.a, high.b])

    lo, hi = _enclose(product)
    return ZetaInterval(s=s, conductor=conductor, value_low=lo, value_high=hi)


def euler_zeta(target: int | NumberField, s: float, P: int = 1000) -> ZetaInterval:
    """Truncated Euler product of a field's zeta function, the reference
    that dedekind_zeta and dedekind_zeta_field are tested against.

    target is a cyclotomic conductor or a supported field.  Splitting rule:
    in Q(zeta_n), above a prime p lie g = phi(n_p)/f primes of norm p^f,
    where n_p is the prime-to-p part of n and f the order of p mod n_p; in
    another Q(sqrt D) the Kronecker symbol (disc/p) decides (split, inert
    or ramified).  The primes up to Q contribute (1 - p^(-s f))^(-g) each.

    Cutoff: Q = min(P, the smallest integer Q >= 2 with
    Q^(1-s)/(s-1) <= 2^-100).  The primes above such a Q change the 80-bit
    product by less than a unit in the last place, so they are skipped;
    close to s = 1 the rule gives Q = P, which must be at least 1.

    Tail bound: the primes above Q contribute at most
    (1 + Q^(1-s)/(s-1))^d for a field of degree d, so the interval
    contains the true value.  Proof, for any integer 1 <= Q <= P (the
    choice of Q affects tightness only):
      1. a prime p has at most d primes above it, each of norm >= p, so its
         local factor is <= (1 - p^(-s))^(-d);
      2. hence the product over p > Q is <= (sum of n^(-s) over the n whose
         prime factors all exceed Q)^d <= (1 + sum_{n>Q} n^(-s))^d
         <= (1 + integral_Q^oo x^(-s) dx)^d;
      3. since log(1 + x) <= x, this is never looser than the bound
         exp(d Q^(1-s) / ((s-1)(1 - Q^(-s)))).

    Results are memoized per (field, s, P); interval arithmetic is
    outward-rounded throughout, at 80 bits whatever the caller's iv.prec.
    """
    key, conductor = _zeta_key(target)
    d = 2 if key[0] == "quadratic" else _euler_phi(key[1])
    return _euler_interval(key, d, float(s), operator.index(P), conductor)


# ---------------------------------------------------------------------------
# fractional ideals in Hermite normal form


def hnf_rows(rows: Iterable[Sequence[int]], ncols: int) -> list[list[int]]:
    """Hermite normal form of the ZZ-span of the given integer rows (the
    fractional-ideal HNF; the package takes lattice indices modulo q).

    Returns echelon rows with positive pivots; entries above each pivot are
    reduced into [0, pivot).  Zero rows are dropped, so the result has one
    row per pivot column.
    """
    rest = [tuple(int(x) for x in r) for r in rows]
    rest = [r for r in rest if any(r)]
    pivots: list[tuple[int, tuple[int, ...]]] = []
    for col in range(ncols):
        hits = [r for r in rest if r[col]]
        rest = [r for r in rest if not r[col]]
        if not hits:
            continue
        piv = hits.pop()
        for r in hits:
            while r[col]:
                q = piv[col] // r[col]
                piv, r = r, tuple(a - q * b for a, b in zip(piv, r))
            if any(r):
                rest.append(r)
        if piv[col] < 0:
            piv = tuple(-a for a in piv)
        pivots.append((col, piv))
    out = [list(p) for _, p in pivots]
    cols = [c for c, _ in pivots]
    for j in range(len(out)):
        cj = cols[j]
        pj = out[j][cj]
        for i in range(j):
            q = out[i][cj] // pj
            if q:
                out[i] = [a - q * b for a, b in zip(out[i], out[j])]
    return out


@dataclass(frozen=True)
class FracIdeal:
    """A fractional ideal: (1/den) times the ZZ-span of integer HNF rows,
    coordinates over the integral basis."""

    field: NumberField
    den: int
    hnf: tuple[tuple[int, ...], ...]

    @cached_property
    def norm(self) -> Fraction:
        return Fraction(math.prod(self.hnf[i][i] for i in range(self.field.degree)),
                        self.den**self.field.degree)

    def zz_basis(self) -> list[FieldElement]:
        return [self.field._reduced(row, self.den) for row in self.hnf]

    def contains(self, x: FieldElement) -> bool:
        x = self.field.coerce(x)
        v = [c * self.den for c in x.num]
        if any(c % x.den for c in v):
            return False
        v = [c // x.den for c in v]
        for i, row in enumerate(self.hnf):
            q, r = divmod(v[i], row[i])
            if r:
                return False
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        return not any(v)

    def __mul__(self, other: FracIdeal) -> FracIdeal:
        gens = [a * b for a in self.zz_basis() for b in other.zz_basis()]
        return ideal_from_generators(self.field, gens)


def ideal_from_generators(F: NumberField, xs: Sequence[FieldElement]) -> FracIdeal:
    """HNF form of the fractional ideal generated by xs over O_K."""
    xs = [x for x in map(F.coerce, xs) if x]
    if not xs:
        raise ValueError("the zero ideal has no HNF representation here")
    d = F.degree
    den = math.lcm(*(x.den for x in xs))
    rows = hnf_rows(_scaled_mul_rows(F, xs, den), d)
    if len(rows) != d:
        raise RuntimeError("ideal lattice is not full rank")
    # the least common denominator makes the form canonical
    g = math.gcd(den, *(c for row in rows for c in row))
    return FracIdeal(F, den // g, tuple(tuple(c // g for c in row) for row in rows))


# ---------------------------------------------------------------------------
# Monte Carlo column integral


def mc_column_sum_ratio(
    F: NumberField,
    t: int,
    alphas,
    samples: int = 100_000,
    seed: int = 0,
) -> McEstimate:
    """Monte Carlo estimate of the normalized column integral

        int f(x_1) ... f(x_M) f(alpha_1 x_1 + ... + alpha_M x_M) / V^M

    with f the unit-ball indicator: the chance that the alpha-weighted sum
    of M independent uniform ball points stays in the ball.  At M = 1 this
    is the same quantity as mc_intersection_ratio.  Scaling acts per place,
    so complex-place blocks combine with full complex multiplication.
    Same preconditions as mc_intersection_ratio.
    """
    N, alphas = _mc_inputs(F, t, alphas, samples)
    scales = [[complex(conjugates(F, a)[row]) for row, _ in F.places] for a in alphas]
    blocks = _place_blocks(F, t)

    def hits(rng, b):
        pts = [_ball_points(rng, b, N) for _ in alphas]
        r2 = np.zeros(b)
        for j, (_, off, width) in enumerate(blocks):
            if width == t:
                y = np.zeros((b, t))
                for i, g in enumerate(pts):
                    y += scales[i][j].real * g[:, off : off + width]
                r2 += (y**2).sum(axis=1)
            else:
                y = np.zeros((b, t), dtype=complex)
                for i, g in enumerate(pts):
                    block = g[:, off : off + t] + 1j * g[:, off + t : off + width]
                    y += scales[i][j] * block
                r2 += (np.abs(y) ** 2).sum(axis=1)
        return int(np.count_nonzero(r2 <= 1.0))

    return _hit_rate(samples, seed, hits)


# ---------------------------------------------------------------------------
# box oracles term by term


def truncated_partial_sum(F: NumberField, t: int, cutoff: int) -> float:
    """The partial sum of truncated_second_moment_rhs with every term
    evaluated, each element embedded by its own matrix-vector product."""
    d = F.degree
    embed = F.embed_matrix if len(F.places) > 1 else None
    total = 0.0
    for num, c in _bounded_denominator_elements(F, cutoff):
        conj = None if embed is None else embed @ [x / c for x in num]
        D = c**d // math.gcd(c, F._abs_norm_int(num))
        total += float(D) ** -t * _dirichlet_value(F, t, num, c, conj)
    return total


def lower_bound_terms(F: NumberField, t: int, elems) -> dict:
    """lower_bound_sum_check's result over elems, triples (num, den, D),
    one embedding product and one height per element."""
    d = F.degree
    embed = F.embed_matrix
    checked = 0
    min_margin = math.inf
    sum_lhs = 0.0
    sum_rhs = 0.0
    for num, den, D in elems:
        conj = embed @ [x / den for x in num]
        arch = float(np.log(np.maximum(np.abs(conj), 1.0)).sum())
        lhs = math.exp(-t * d * ((arch + math.log(D)) / d))
        rhs = float(D) ** (-float(t)) * _dirichlet_value(F, t, num, den, conj)
        min_margin = min(min_margin, rhs - lhs)
        sum_lhs += lhs
        sum_rhs += rhs
        checked += 1
    return {
        "checked": checked,
        "min_margin": float(min_margin),
        "sum_lhs": float(sum_lhs),
        "sum_rhs": float(sum_rhs),
    }


def box_elements(F: NumberField, cutoff: int) -> list[tuple[tuple[int, ...], int, int]]:
    """The (num, den, D) triples of the bounded denominator box."""
    d = F.degree
    return [(num, c, c**d // math.gcd(c, F._abs_norm_int(num)))
            for num, c in _bounded_denominator_elements(F, cutoff)]


# ---------------------------------------------------------------------------
# splitting parameter scan


def best_k_scan(M: int, hyp: HeightHypothesis, rank_ratio: float = 0.5) -> tuple[int, float]:
    """best_k_threshold one k at a time: k = 2, 3, ... keeping strict
    improvements, until the counting entry k M + 1/2 passes the best."""
    best_k, best = 2, math.inf
    k = 2
    while k * M + 0.5 < best:
        t0 = t0_threshold(M, k, hyp, rank_ratio)
        if t0 < best:
            best, best_k = t0, k
        k += 1
    return best_k, best


# ---------------------------------------------------------------------------
# zeta kernel routes the package replaced


def inverse_powers_two_exps(s: float, size: int) -> tuple[list[int], list[int]]:
    """bounds._inverse_powers with two exponentials per prime: e^(-s log p)
    with the exponent and the exponential rounded down for the lower end
    and up for the upper, both at 160 bits; elsewhere the product of two
    smaller entries, split as the package splits them."""
    factor = list(range(size + 1))
    for p in range(2, math.isqrt(size) + 1):
        if factor[p] == p:
            factor[p * p::p] = [p] * len(range(p * p, size + 1, p))
    s = from_float(s)
    prec = _EVAL_PREC
    low, high = [0, _ONE], [0, _ONE]
    for n in range(2, size + 1):
        p = factor[n]
        if p == n:
            log_lo, log_hi = _log_bounds(p)
            lo, hi = _fix_mpf(
                mpf_exp(mpf_neg(mpf_mul(s, log_hi, prec, round_ceiling)), prec, round_floor),
                mpf_exp(mpf_neg(mpf_mul(s, log_lo, prec, round_floor)), prec, round_ceiling),
            )
            low.append(lo)
            high.append(hi)
        else:
            low.append(low[p] * low[n // p] >> _FIX_BITS)
            high.append(-(-high[p] * high[n // p] >> _FIX_BITS))
    return low, high


def composite_zeta_iv(F: NumberField, parts: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """The endpoints of bounds._composite_zeta, composed in mpmath.iv."""
    zetas = [dedekind_zeta_field(F, s_i) for s_i, _ in parts]

    def product():
        out = iv.mpf(1)
        for z, (_, e_i) in zip(zetas, parts):
            out *= iv.mpf([z.value_low, z.value_high]) ** e_i
        return out

    return _enclose(product)


def cyclotomic_constants_iv(
    d: int, t: float, z1: ZetaInterval, z2: ZetaInterval
) -> tuple[float, float]:
    """C_low and C_high of bounds.cyclotomic_second_moment_constants at
    degree d, composed in mpmath.iv from its two zeta intervals."""
    return _enclose(
        lambda: (3 + 3 / (1 - iv.exp(-d * (t - iv.mpf(267) / 10) / 1124)))
        * iv.mpf([z1.value_low, z1.value_high])
        * iv.mpf([z2.value_low, z2.value_high])
    )
