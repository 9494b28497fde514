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
two exponentials, and alpha_M and the zeta compositions in mpmath.iv,
which the package replaced by one exponential per prime and raw libmp
intervals with equal results, and the exact floor and ceil of 2^128 p^-s
from 400-bit mpmath, which the package's integer roots at dyadic s
must equal.  The exact-arithmetic routes the package replaced are here
too, and its results must equal theirs: the field product as one
convolution folded by g^d at every degree, the inverse by Cayley-Hamilton
at every degree, row reduction in field-element arithmetic, the
two-column lattice index from every 2 x 2 minor, the wider ones from a
column-by-column echelon, the maximal minors
keyed by column subset, and one element's embedding as a row of the
stacked product.  So are the routes through field elements that the
integer echelon of an RredMatrix replaced: its integer rows rebuilt from
its elements, the multiplication rows by repeated shifts at degree 2,
the subspace height and ideal norm through the Pluecker ProjPoint, and
frak_D from the elements of D.rows.  The Euler product reads the splitting of
each prime from its own rules here, none from the package.  pytest puts
this directory on sys.path, so the test modules import it as `refroutes`.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from typing import Iterable, Sequence

import mpmath
import numpy as np
from mpmath import iv
from mpmath.libmp import from_float, mpf_exp, mpf_mul, mpf_neg, round_ceiling, round_floor

from latmoment.bounds import (
    _EVAL_PREC,
    _FIX_BITS,
    _ONE,
    _ZETA_PREC,
    HeightHypothesis,
    ZetaInterval,
    _fix_mpf,
    _log_bounds,
    _outward,
    _precision_cutoff,
    _zeta_key,
    dedekind_zeta_field,
    t0_threshold,
)
from latmoment.heights import GrHeightFactors, det_lattice, plucker, proj_height_l2
from latmoment.numberfield import (
    FieldElement,
    NumberField,
    _embed_rows,
    _factorize,
    _span_size_mod,
    conjugates,
    frak_D,
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
# mpmath.iv enclosures


def _enclose(compute) -> tuple[float, float]:
    """The iv interval compute() returns at 80 bits, as outward floats;
    the caller's iv.prec is restored."""
    old_prec = iv.prec
    iv.prec = _ZETA_PREC
    try:
        return _outward(compute()._mpi_)
    finally:
        iv.prec = old_prec


def alpha_exponent_iv(M: int, c0: float) -> float:
    """bounds._alpha_exponent in mpmath.iv: 2 log f_M(c0/2)/c0 at 80 bits
    plus the bits small c0 cancels, its lower end clamped at 0."""
    def exponent():
        iv.prec += 2 * max(0, -math.frexp(c0)[1]) + M.bit_length()
        x = iv.mpf(c0) / 2
        return 2 * iv.log((iv.exp(x) + M * iv.exp(-x / M)) / (M + 1)) / c0

    return max(_enclose(exponent)[0], 0.0)


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


def _quadratic_splitting(disc: int, p: int) -> tuple[int, int]:
    # the Kronecker symbol (disc/p) is 0 (ramified), 1 (split) or -1 (inert)
    if disc % p == 0:
        return 1, 1
    if p == 2:
        split = disc % 8 == 1
    else:
        split = pow(disc, (p - 1) // 2, p) == 1
    return (1, 2) if split else (2, 1)


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
    rows = hnf_rows([v for x in xs for v in mul_rows_by_shift(F, [c * (den // x.den) for c in x.num])], d)
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


def largest_factor_sieve(size: int) -> list[int]:
    """The largest prime factor p <= sqrt(n) of each n = 0..size (n itself
    at a prime), sieved over the whole range at once."""
    factor = list(range(size + 1))
    for p in range(2, math.isqrt(size) + 1):
        if factor[p] == p:
            factor[p * p::p] = [p] * len(range(p * p, size + 1, p))
    return factor


def inverse_powers_by(prime_pair, size: int) -> tuple[list[int], list[int]]:
    """The table of bounds._power_table up to size, with prime_pair(p) at
    each prime and elsewhere the product of two smaller entries, split as
    the package splits them, from a sieve of this size alone."""
    factor = largest_factor_sieve(size)
    low, high = [0, _ONE], [0, _ONE]
    for n in range(2, size + 1):
        p = factor[n]
        if p == n:
            lo, hi = prime_pair(p)
            low.append(lo)
            high.append(hi)
        else:
            low.append(low[p] * low[n // p] >> _FIX_BITS)
            high.append(-(-high[p] * high[n // p] >> _FIX_BITS))
    return low, high


def prime_power_two_exps(s: float, p: int) -> tuple[int, int]:
    """p^-s with two exponentials: e^(-s log p) with the exponent and the
    exponential rounded down for the lower end and up for the upper, both
    at 160 bits."""
    s = from_float(s)
    prec = _EVAL_PREC
    log_lo, log_hi = _log_bounds(p)
    return _fix_mpf(
        mpf_exp(mpf_neg(mpf_mul(s, log_hi, prec, round_ceiling)), prec, round_floor),
        mpf_exp(mpf_neg(mpf_mul(s, log_lo, prec, round_floor)), prec, round_ceiling),
    )


def inverse_powers_two_exps(s: float, size: int) -> tuple[list[int], list[int]]:
    """The package's table with two exponentials per prime."""
    return inverse_powers_by(lambda p: prime_power_two_exps(s, p), size)


def prime_power_400(s: float, p: int) -> tuple[int, int]:
    """floor and ceil of 2^128 p^-s from p^-s in 400-bit mpmath, which
    misses by about 2^-272 (the float s is exact): the exact pair unless
    2^128 p^-s lies that close to an integer without being one."""
    with mpmath.workprec(400):
        v = mpmath.ldexp(mpmath.mpf(p) ** -mpmath.mpf(s), _FIX_BITS)
        return int(mpmath.floor(v)), int(mpmath.ceil(v))


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


# ---------------------------------------------------------------------------
# exact-arithmetic routes the package replaced


def mul_int_convolution(F: NumberField, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """The product of two integer coordinate vectors at every degree: the
    convolution, its powers g^(2d-2) .. g^d folded down one at a time by
    the coordinates of g^d."""
    d = F.degree
    top = F._gen_pow_d
    conv = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
    for k in range(2 * d - 2, d - 1, -1):
        ck = conv[k]
        if ck:
            for j, t in enumerate(top):
                conv[k - d + j] += ck * t
    return tuple(conv[:d])


def inverse_charpoly(F: NumberField, x: FieldElement) -> FieldElement:
    """x^-1 by Cayley-Hamilton at every degree, on the numerator
    a = den * x: a * sum_{k<d} (-1)^k e_k a^(d-1-k) = (-1)^(d+1) e_d."""
    if not x:
        raise ZeroDivisionError("field element is zero")
    d = F.degree
    powers, e = F._charpoly(x.num)
    coeffs = [(-1) ** k * x.den * e[k] for k in range(d)]
    num = [sum(c * v for c, v in zip(coeffs, col)) for col in zip(*reversed(powers))]
    return F._reduced(num, (-1) ** (d + 1) * e[d])


def row_reduce_elements(rows: Sequence[Sequence[FieldElement]]) -> list[list[FieldElement]]:
    """Reduced row echelon form in field-element arithmetic, zero rows
    dropped: each pivot row divided by its pivot, each other row less its
    entry times the pivot row."""
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(len(mat[0])):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = mat[rank][col].inverse()
        mat[rank] = [e * inv for e in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [e - f * p for e, p in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return mat[:rank]


def index_mod_two_minors(q: int, rows: Sequence[Sequence[int]]) -> int:
    """[ZZ^2 : q ZZ^2 + span of the rows]: the gcd of q times gcd(q, all
    entries) with every 2 x 2 minor of the rows."""
    g = math.gcd(q, *(c for r in rows for c in r))
    return math.gcd(q * g, *(a[0] * b[1] - a[1] * b[0] for a, b in itertools.combinations(rows, 2)))


def index_mod_echelon(q: int, rows: Sequence[Sequence[int]], ncols: int) -> int:
    """[ZZ^ncols : q ZZ^ncols + span of the rows] as the product of the
    echelon pivots modulo q, column by column: extended gcds merge the rows
    that meet the column into one pivot row p, the pivot is gcd(q, p_0),
    and (q/g) p joins the rows left for the next columns."""
    rest = [[c % q for c in r] for r in rows]
    index = 1
    for _ in range(ncols):
        piv = None
        left = []
        for r in rest:
            a = r[0]
            if not a:
                left.append(r[1:])
                continue
            if piv is None:
                piv = r
                continue
            b = piv[0]
            if a % b:
                # u b + v a = g: piv becomes u piv + v r, r becomes (b/g) r - (a/g) piv
                g = math.gcd(a, b)
                u = pow(b // g, -1, a // g)
                v = (g - u * b) // a
                b, a = b // g, a // g
                piv, r = [(u * x + v * y) % q for x, y in zip(piv, r)], [
                    (b * y - a * x) % q for x, y in zip(piv[1:], r[1:])
                ]
            else:
                f = a // b
                r = [(y - f * x) % q for x, y in zip(piv[1:], r[1:])]
            if any(r):
                left.append(r)
        if piv is None:
            index *= q
        else:
            g = math.gcd(q, piv[0])
            index *= g
            s = q // g
            r = [s * x % q for x in piv[1:]]
            if any(r):
                left.append(r)
        rest = left
    return index


def minors_by_subset(F: NumberField, rows) -> dict:
    """The maximal minors of an m x n matrix of integer coordinate vectors
    (None for zero), keyed by column subset in lexicographic order, each
    the Laplace expansion along its top row over the subsets one smaller."""
    d, n, mul = F.degree, len(rows[0]), F._mul_int
    minors = {(): (1,) + (0,) * (d - 1)}
    for size, ints in enumerate(reversed(rows), 1):
        below, minors = minors, {}
        for subset in itertools.combinations(range(n), size):
            acc = [0] * d
            for t, j in enumerate(subset):
                a = ints[j]
                sub = below[subset[:t] + subset[t + 1:]]
                if a is not None and any(sub):
                    sign = -1 if t % 2 else 1
                    acc = [x + sign * y for x, y in zip(acc, mul(a, sub))]
            minors[subset] = acc
    return minors


def conjugates_stacked(F: NumberField, x: FieldElement) -> np.ndarray:
    """The embedding values of one element as the one row of the stacked
    product of _embed_rows."""
    return _embed_rows(F, [F.coerce(x).floats()])[0]


def ints_from_elements(D) -> tuple[list, list[int]]:
    """The integer rows of an RredMatrix rebuilt from its field elements:
    each row over the lcm of its denominators, the integer vectors of its
    entries (None for zero), and those lcms."""
    rows, dens = [], []
    for row in D.rows:
        L = math.lcm(*(e.den for e in row))
        dens.append(L)
        rows.append([(e.num if e.den == L else tuple([c * (L // e.den) for c in e.num]))
                     if any(e.num) else None for e in row])
    return rows, dens


def mul_rows_by_shift(F: NumberField, a: Sequence[int]) -> list[list[int]]:
    """The integer coordinates of a * g^k, k < d, at every degree: each row
    the one before times g, a shift with the overflow reduced by g^d."""
    top = F._gen_pow_d
    v = list(a)
    rows = [v]
    for _ in range(1, F.degree):
        over = v[-1]
        v = [over * top[0]] + [x + over * t for x, t in zip(v, top[1:])]
        rows.append(v)
    return rows


def gr_height_factors_by_projpoint(D) -> GrHeightFactors:
    """The subspace height factors with the height and the ideal norm of
    the Pluecker ProjPoint: its l2 height over its coordinates' floats, and
    N(<x>) from its field-element coordinates."""
    p = plucker(D)
    cov, idx = det_lattice(D), frak_D(D.field, D)
    return GrHeightFactors(height=proj_height_l2(p), covolume=cov, index=idx,
                           product=cov * idx, norm_index_product=p.ideal_norm * idx)


def frak_D_from_rows(F: NumberField, D) -> int:
    """frak_D from the field elements of D.rows: the columns with a
    non-integral entry, over the lcm q of those entries' denominators."""
    rows = [[F.coerce(e) for e in r] for r in D.rows]
    cols = [j for j in range(len(rows[0])) if not all(r[j].is_integral for r in rows)]
    if not cols:
        return 1
    q = math.lcm(*[r[j].den for r in rows for j in cols])
    big: list[list[int]] = []
    for r in rows:
        blocks = [mul_rows_by_shift(F, [c * (q // r[j].den) for c in r[j].num]) for j in cols]
        big.extend([c for block in blocks for c in block[k]] for k in range(F.degree))
    return _span_size_mod(q, big, F.degree * len(cols), F.degree)
