"""Explicit constants behind the moment error bounds.

Everything here is an inequality with every constant computed: admissibility
thresholds for the number of module copies t, closed-form convexity exponents,
unit-count boxes, volume-ratio bounds driven by heights, Dedekind zeta
values as rigorous intervals from Dirichlet L-functions, and the assembled
two-sided moment brackets.  Operations that need t above a threshold raise ThresholdError
carrying the computed threshold, so callers (and the command line front end)
can report it.

Conventions.  A "hypothesis" is a pair of uniform height floors c0 >= c1 > 0:
c0 bounds the Weil height of non-torsion algebraic integers of the field from
below, c1 does the same for arbitrary non-torsion field elements.  Zeta
values are returned as closed intervals [value_low, value_high] that contain
the true value; upper bounds consume the high endpoint, so a wide interval
weakens but never invalidates a bound.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as _field
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from mpmath import bernfrac, iv
from mpmath.libmp import (
    from_float,
    from_int,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_sub,
    round_ceiling,
    round_floor,
    to_fixed,
    to_float,
)
from mpmath.libmp.libmpi import mpi_add, mpi_cos_sin, mpi_div, mpi_exp, mpi_mul, mpi_pow, mpi_sub

from .heights import h_infty
from .moments import MomentReport, a1m_bound, main_term
from .numberfield import NumberField, _factorize, _field_conductor, abs_norm

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ThresholdError",
    "HeightHypothesis",
    "BoundReport",
    "ZetaInterval",
    "default_hypothesis",
    "voutier_hypothesis",
    "f_M",
    "alpha_M",
    "t0_threshold",
    "best_k_threshold",
    "ellipsoid_intersection_bound",
    "volume_ratio_height_bound",
    "column_height_ratio_bound",
    "unit_count_bound",
    "ideal_sum_bound",
    "second_moment_bounds",
    "cyclotomic_second_moment_constants",
    "a2m_bound",
    "moment_bounds",
    "dedekind_zeta",
    "dedekind_zeta_field",
]

_LOG2 = math.log(2.0)


class ThresholdError(ValueError):
    """The number of copies t is at or below the admissible threshold.

    The computed threshold is available as .t0 so front ends can print it.
    """

    def __init__(self, t0: float, message: str | None = None) -> None:
        self.t0 = float(t0)
        super().__init__(message or f"requires t > {self.t0:.6g}")


# ---------------------------------------------------------------------------
# height-floor hypotheses


@dataclass(frozen=True)
class HeightHypothesis:
    """Uniform lower bounds for the Weil height over a family of fields.

    c0 floors the height of non-torsion algebraic integers, c1 the height of
    arbitrary non-torsion elements; c0 >= c1 > 0 always.
    """

    c0: float
    c1: float
    provenance: str = "user"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c0) and math.isfinite(self.c1)):
            raise ValueError("height floors must be finite")
        if not self.c0 >= self.c1 > 0:
            raise ValueError(f"need c0 >= c1 > 0, got c0={self.c0}, c1={self.c1}")


_GOLDEN_FLOOR = 0.5 * math.log((1.0 + math.sqrt(5.0)) / 2.0)
_ABELIAN_FLOOR = math.log(5.0) / 12.0


def default_hypothesis(F: NumberField) -> HeightHypothesis:
    """Height floors for the supported family.

    Rationals: log 2 for both floors (a rational that is not 0 or a root of
    unity has a numerator or denominator of size >= 2).  Quadratic and
    cyclotomic fields: c0 = (1/2) log((1+sqrt 5)/2) for integers and
    c1 = (log 5)/12 for arbitrary elements; both are uniform over the family.
    """
    if F.kind == "rational":
        return HeightHypothesis(_LOG2, _LOG2, "cyclotomic-defaults")
    return HeightHypothesis(_GOLDEN_FLOOR, _ABELIAN_FLOOR, "cyclotomic-defaults")


def voutier_hypothesis(d: int) -> HeightHypothesis:
    """Unconditional degree-d floor (1/(4d)) (log log d / log d)^3.

    The displayed floor is nonpositive for d = 2 (log log 2 < 0), hence
    useless as a positive constant; we require d >= 3 and suggest the family
    defaults below that.
    """
    if d < 3:
        raise ValueError(
            "the (1/(4d))(log log d/log d)^3 floor is nonpositive for d < 3; "
            "use default_hypothesis instead"
        )
    v = (math.log(math.log(d)) / math.log(d)) ** 3 / (4 * d)
    return HeightHypothesis(v, v, "voutier")


# ---------------------------------------------------------------------------
# the convex comparison function and its exponent


def f_M(M: int, x: float) -> float:
    """(e^x + M e^(-x/M)) / (M+1); equals cosh x at M = 1, and >= 1 always."""
    if M < 1:
        raise ValueError(f"need M >= 1, got {M}")
    return (math.exp(x) + M * math.exp(-x / M)) / (M + 1)


def alpha_M(M: int, c0: float) -> float:
    """Largest a with f_M(x) >= e^(a x) for all x >= c0/2, rounded down.

    log f_M is a log-sum-exp of affine functions, so it is convex, and it
    vanishes at 0; hence log f_M(x)/x is nondecreasing on x > 0 and the
    supremum of admissible a is 2 log f_M(c0/2)/c0, attained at the left
    endpoint.  That value is enclosed in iv at 80 bits, plus the bits that
    small c0 cancels, and its lower endpoint is returned: rounded down, so
    never above the supremum, and clamped at 0, which is always admissible
    since f_M >= 1.  The memo is keyed by the exact float c0, never a
    rounded one, because a c0 rounded up would give a larger a.  A
    fractional M is rejected, not truncated: the exponent at the integer
    below it is larger, so truncating would overstate it.
    """
    try:
        M = operator.index(M)
    except TypeError:
        raise ValueError(f"need an integer M, got M = {M!r}") from None
    if M < 1:
        raise ValueError(f"need M >= 1, got {M}")
    c0 = float(c0)
    if not (math.isfinite(c0) and c0 > 0):
        raise ValueError("need finite c0 > 0")
    return _alpha_exponent(M, c0)


@lru_cache(maxsize=None)
def _alpha_exponent(M: int, c0: float) -> float:
    def exponent():
        # f_M(x) is about 1 + x^2/(2M) for small x, so the log loses about
        # log2(8M/c0^2) bits to the 1; extra precision pays for them
        iv.prec += 2 * max(0, -math.frexp(c0)[1]) + M.bit_length()
        x = iv.mpf(c0) / 2
        return 2 * iv.log((iv.exp(x) + M * iv.exp(-x / M)) / (M + 1)) / c0

    return max(_enclose(exponent)[0], 0.0)


# ---------------------------------------------------------------------------
# admissibility thresholds


def _rank_entry(numerator: float, log_base: float) -> float:
    """The unit-rank threshold entry numerator / log_base.

    The base (f_M, cosh or s_base at the height floors) exceeds 1 by
    about c0^2; below c0 ~ 1e-8 it rounds to 1 or under, the log is not
    positive, and no t is admissible.  Neither is one when the quotient
    overflows (a rank ratio near the float range).
    """
    entry = numerator / log_base if log_base > 0 else math.inf
    if not entry < math.inf:
        raise ThresholdError(math.inf)
    return entry


def _decay_gap(decay: float) -> float:
    """1 - e^(-decay), the denominator of a leading constant C; it rounds
    to 0 once the height floors make decay tiny (c0 ~ 1e-300)."""
    gap = 1.0 - math.exp(-decay)
    if not gap > 0:
        raise ValueError("1 - e^(-decay) rounds to 0: the height floors are too small")
    return gap


def t0_threshold(
    M: int,
    k: int,
    hyp: HeightHypothesis,
    rank_ratio: float = 0.5,
    shifted: bool = False,
) -> float:
    """Threshold sup for an M-tuple with splitting parameter k.

    Maximum of the counting entry k M + 1/2 and the unit-rank entry
    (2 r M / d) log(2 + 1/(2k)) / log f_M(x), with rank_ratio standing for
    r/d (1/2 is the supremum over the cyclotomic family).  `shifted`
    evaluates f_M at c0 (1 - 1/k) instead of c0; the bound operations use the
    shifted variant as their own precondition, the summary table the plain
    one.
    """
    if M < 1 or k < 2:
        raise ValueError("need M >= 1 and k >= 2")
    if not 0 <= rank_ratio < math.inf:
        raise ValueError("rank_ratio must be nonnegative and finite")
    entries = [k * M + 0.5]
    if rank_ratio > 0:
        x = hyp.c0 * (1.0 - 1.0 / k) if shifted else hyp.c0
        entries.append(_rank_entry(
            2.0 * rank_ratio * M * math.log(2.0 + 1.0 / (2 * k)), math.log(f_M(M, x))
        ))
    return max(entries)


# how many k below the crossing best_k_threshold scans one by one
_BEST_K_WINDOW = 64


def best_k_threshold(
    M: int, hyp: HeightHypothesis, rank_ratio: float = 0.5
) -> tuple[int, float]:
    """Minimize t0_threshold over integer k >= 2; returns (k, threshold).

    The counting entry k M + 1/2 grows in k and the rank entry does not
    (log(2 + 1/(2k)) falls and f_M grows in x), so the threshold falls until
    the counting entry binds, at some k_c, and grows after it.  Doubling and
    bisection find k_c.  The k returned is the first that attains the
    minimum, as a scan over k = 2, 3, ... that keeps strict improvements
    finds it.  That scan's rule runs over the _BEST_K_WINDOW k up to k_c,
    where rounding noise in the rank entry can place the minimum; where the
    rounded rank entry is constant over a run of k reaching back past the
    window, one more bisection finds the start of the run.
    """
    def t0(k: int) -> float:
        return t0_threshold(M, k, hyp, rank_ratio)

    def first(pred, lo: int, hi: int) -> int:
        # the least k in (lo, hi] with pred(k), given pred(hi) and a monotone pred
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if pred(mid) else (mid, hi)
        return hi

    def counting_binds(k: int) -> bool:
        return t0(k) == k * M + 0.5

    lo, hi = 1, 2
    while not counting_binds(hi):
        lo, hi = hi, 2 * hi
    k_c = first(counting_binds, lo, hi)
    start = max(2, k_c - _BEST_K_WINDOW)
    best_k, best = start, math.inf
    for k in range(start, k_c + 1):
        value = t0(k)
        if value < best:
            best_k, best = k, value
    if best_k == start > 2:
        best_k = first(lambda k: t0(k) <= best, 1, start)
    return best_k, best


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ZetaInterval:
    """A rigorous enclosure of a Dedekind zeta value.

    s is the evaluation point; conductor identifies the field (an integer
    conductor or a descriptor string).
    """

    s: float
    conductor: int | str
    value_low: float
    value_high: float

    def __post_init__(self) -> None:
        if not 0 < self.value_low <= self.value_high:
            raise ValueError("need 0 < value_low <= value_high")

    def contains(self, x: float) -> bool:
        return self.value_low <= x <= self.value_high

    @property
    def width(self) -> float:
        return self.value_high - self.value_low


@dataclass(frozen=True)
class BoundReport:
    """One evaluated error bound with the constants that produced it.

    C is the computed leading constant, or the string "unresolved" when the
    statement leaves it to the user (bound_value is then the evaluation at
    C = 1).  t0 is the statement's own printed threshold; any extra
    requirements folded into the precondition are recorded in inputs under
    "t0_effective", and the endpoints of the composed zeta factor under
    "zeta_low" and "zeta_high".
    """

    t0: float
    epsilon: float
    C: float | str
    bound_value: float
    inputs: dict = _field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not (math.isfinite(self.bound_value) and self.bound_value >= 0):
            raise ValueError("bound_value must be finite and nonnegative")
        if isinstance(self.C, str) and self.C != "unresolved":
            raise ValueError("C is a number or the flag 'unresolved'")


# ---------------------------------------------------------------------------
# Dedekind zeta intervals from Dirichlet L-functions

# the enclosures of _enclose (alpha_M, composed zeta factors, the cyclotomic
# constants) are computed in mpmath.iv at this precision, whatever the
# caller's iv.prec, and only their final endpoints are rounded to floats
_ZETA_PREC = 80
# the zeta kernel encloses each quantity v in a pair of integers (lo, hi)
# with lo 2^-128 <= v <= hi 2^-128; every operation floors lo and ceils hi,
# so an endpoint moves by at most 2^-128 per operation, far below a float ulp
_FIX_BITS = 128
_ONE = 1 << _FIX_BITS
# logarithms, exponentials, cos and sin are enclosed at this many bits by
# directed rounding in mpmath.libmp before they are rounded to that grid
_EVAL_PREC = 160
# e^(-s log p) is rounded down at this many bits and trusted to within
# 2^-180 relative; the slack is 2^180 (1 + 2^-180) (see _inverse_powers)
_EXP_PREC = 192
_EXP_SLACK = (1 << 180) + 1
# a tail below 2^-100 cannot move a float endpoint
_CUTOFF_BITS = 100
# L(s, chi) mod q sums n <= N q directly and the rest by Euler-Maclaurin
# with 12 terms: at N = 16 the first omitted term is below 1e-26 near s = 1
_EM_SHIFT = 16
_EM_TERMS = 12
# the memo holds one endpoint pair per (field, s), and the composition memo
# one product per tuple of factor endpoints; a bound assembly requests a
# handful, a sweep over t a few thousand
_ZETA_CACHE_SIZE = 4096
# p^-s per (s, p), about 0.3 KB an entry, and the residue sums of conductor
# q per (s, q, X), phi(q) pairs at about 0.23 KB each; dedekind_zeta gives
# the worst-case memory of each
_PRIME_POWER_CACHE_SIZE = 4096
_RESIDUE_CACHE_SIZE = 32


def _outward(x: tuple) -> tuple[float, float]:
    """The libmp interval x as outward floats: to_float rounds toward zero,
    so one float further out contains each end, and the width is never 0."""
    return math.nextafter(to_float(x[0]), -math.inf), math.nextafter(to_float(x[1]), math.inf)


def _enclose(compute) -> tuple[float, float]:
    """The iv interval compute() returns at 80 bits, as outward floats."""
    old_prec = iv.prec
    iv.prec = _ZETA_PREC
    try:
        return _outward(compute()._mpi_)
    finally:
        iv.prec = old_prec


def _mpi(x: float) -> tuple:
    # x as iv converts it at 80 bits (floats exactly)
    conv = from_int if isinstance(x, int) else from_float
    return conv(x, _ZETA_PREC, round_floor), conv(x, _ZETA_PREC, round_ceiling)


def _quadratic_splitting(disc: int, p: int) -> tuple[int, int]:
    # the Kronecker symbol (disc/p) is 0 (ramified), 1 (split) or -1 (inert)
    if disc % p == 0:
        return 1, 1
    if p == 2:
        split = disc % 8 == 1
    else:
        split = pow(disc, (p - 1) // 2, p) == 1
    return (1, 2) if split else (2, 1)


def _precision_cutoff(s: float, P: int) -> int:
    """Smallest Q >= 2 with Q^(1-s)/(s-1) <= 2^-100, capped at P.

    Solved in log space, log Q >= (100 log 2 - log(s-1))/(s-1), so s close
    to 1 cannot overflow; there the rule gives Q = P.
    """
    log_q = (_CUTOFF_BITS * _LOG2 - math.log(s - 1.0)) / (s - 1.0)
    if not log_q < math.log(P):
        return P
    return min(P, max(2, math.ceil(math.exp(log_q))))


def _prime_power_phases(p: int, k: int) -> tuple[int, list[dict[int, int]]]:
    """Primitive characters modulo p^k as (m, [{unit a: x}]), where
    chi(a) = e^(2 pi i x/m).

    For odd p, (Z/p^k)^* is cyclic with a generator g, and chi(g) =
    e^(2 pi i j/phi) is primitive when j != 0 (k = 1) or p does not divide
    j (k >= 2).  Modulo 4 the one primitive character is -1 on 3; modulo
    2^k, k >= 3, a = +-5^e and chi(5) = e^(2 pi i j/2^(k-2)) is primitive
    when j is odd, with either sign on -1.
    """
    q = p**k
    if p == 2:
        if k < 3:
            return 2, [{1: 0, 3: 1}] if k == 2 else []
        m = q // 4
        logs, x = {}, 1
        for e in range(m):
            logs[x], logs[q - x] = (0, e), (1, e)
            x = x * 5 % q
        return m, [
            {a: (sign * eps * m // 2 + j * e) % m for a, (sign, e) in logs.items()}
            for eps in (0, 1)
            for j in range(1, m, 2)
        ]
    phi = q - q // p
    for g in range(2, q):
        logs, x = {}, 1
        for e in range(phi):
            logs[x] = e
            x = x * g % q
        if len(logs) == phi:
            break
    return phi, [
        {a: j * e % phi for a, e in logs.items()}
        for j in range(1, phi)
        if k == 1 or j % p
    ]


def _primitive_phases(f: int) -> list[tuple[int, tuple]]:
    """(m, phases) of the primitive characters of conductor f, products of
    prime-power ones: chi(a) = e^(2 pi i phases[a]/m), one entry per
    residue mod f and None off the units."""
    parts, combos, m = [], [()], 1
    for p, k in _factorize(f).items():
        order, chars = _prime_power_phases(p, k)
        parts.append((p**k, order))
        m = math.lcm(m, order)
        combos = [c + (chi,) for c in combos for chi in chars]
    units = [math.gcd(a, f) == 1 for a in range(f)]
    return [
        (m, tuple(
            sum(chi[a % q] * (m // order) for (q, order), chi in zip(parts, c)) % m
            if units[a]
            else None
            for a in range(f)
        ))
        for c in combos
    ]


def _kronecker_phases(disc: int) -> tuple:
    """Phases over 2 of the character (disc/.) modulo |disc|, from the
    splitting rule at each prime, extended multiplicatively."""
    q = abs(disc)
    out = []
    for a in range(q):
        if math.gcd(a, q) != 1:
            out.append(None)
            continue
        inert = sum(e for p, e in _factorize(a).items() if _quadratic_splitting(disc, p)[0] == 2)
        out.append(inert % 2)
    return tuple(out)


@lru_cache(maxsize=None)
def _characters(key: tuple[str, int]) -> tuple[tuple[int, int, tuple], ...]:
    """(conductor q, m, phases mod q) of the primitive characters whose
    L-functions multiply to the field's zeta function, one per conjugate
    pair; chi(a) = e^(2 pi i phases[a]/m).

    ("cyclotomic", n): every character mod n, reduced to its primitive
    character; these are the primitive characters of each conductor
    f | n.  ("quadratic", disc): the trivial character and (disc/.).  A
    character is real when it equals its conjugate; of a complex pair the
    member with the smaller phase tuple stands for both.
    """
    kind, n = key
    if kind == "quadratic":
        chars = [(1, 1, (0,)), (abs(n), 2, _kronecker_phases(n))]
    else:
        chars = [(f, m, ph) for f in range(1, n + 1) if n % f == 0
                 for m, ph in _primitive_phases(f)]
    return tuple(
        (q, m, ph) for q, m, ph in chars
        if ph <= tuple(None if x is None else -x % m for x in ph)
    )


def _fix_ratio(num: int, den: int) -> tuple[int, int]:
    """The pair enclosing num/den, for den > 0."""
    n = num << _FIX_BITS
    return n // den, -(-n // den)


def _fix_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The pair enclosing the product of two pairs of any signs."""
    (a0, a1), (b0, b1) = a, b
    ends = (a0 * b0, a0 * b1, a1 * b0, a1 * b1)
    return min(ends) >> _FIX_BITS, -(-max(ends) >> _FIX_BITS)


def _fix_mul_positive(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """_fix_mul(a, b) for 0 <= b[0] <= b[1], by two products: each end of
    the product comes from the end of b that _fix_mul's min or max picks."""
    (a0, a1), (b0, b1) = a, b
    return a0 * (b0 if a0 >= 0 else b1) >> _FIX_BITS, -(-a1 * (b1 if a1 >= 0 else b0) >> _FIX_BITS)


def _fix_mpf(lo, hi) -> tuple[int, int]:
    """The pair enclosing the libmp interval [lo, hi]."""
    return to_fixed(lo, _FIX_BITS), -to_fixed(mpf_neg(hi), _FIX_BITS)


def _fix_float_floor(n: int) -> float:
    """The largest float <= n 2^-128, for n >= 0: the top 53 bits of n,
    scaled exactly (what float() of a positive mpf gives)."""
    k = max(n.bit_length() - 53, 0)
    return math.ldexp(n >> k, k - _FIX_BITS)


@lru_cache(maxsize=None)
def _log_bounds(p: int) -> tuple:
    # log p rounded down and up, shared by every s
    x = from_int(p)
    return mpf_log(x, _EVAL_PREC, round_floor), mpf_log(x, _EVAL_PREC, round_ceiling)


@lru_cache(maxsize=None)
def _root_of_unity(x: int, m: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The pairs enclosing cos and sin of 2 pi x/m, for 0 <= x < m, exact
    at quarter turns."""
    if 4 * x % m == 0:
        c, d = ((1, 0), (0, 1), (-1, 0), (0, -1))[4 * x // m]
        return (c << _FIX_BITS,) * 2, (d << _FIX_BITS,) * 2
    prec = _EVAL_PREC
    pi_lo, pi_hi = mpf_pi(prec, round_floor), mpf_pi(prec, round_ceiling)
    k, m = from_int(2 * x), from_int(m)
    angle = (mpf_div(mpf_mul(pi_lo, k, prec, round_floor), m, prec, round_floor),
             mpf_div(mpf_mul(pi_hi, k, prec, round_ceiling), m, prec, round_ceiling))
    c, d = mpi_cos_sin(angle, prec)
    return _fix_mpf(*c), _fix_mpf(*d)


@lru_cache(maxsize=_PRIME_POWER_CACHE_SIZE)
def _prime_power(s: float, p: int) -> tuple[int, int]:
    """The pair enclosing p^-s for a prime p.  With s log p in [a_lo, a_hi]
    and E = e^-a_hi rounded down at 192 bits (trusted to 2^-180 relative),
    the ends are floor(2^128 E) and ceil(2^128 E (1 + 2^-180)(1 + 2 delta)),
    as e^-a_lo = e^-a_hi e^delta <= e^-a_hi (1 + 2 delta) for the exact
    delta = a_hi - a_lo <= 1 (larger only where p^-s < 2^-128 is below every
    upper end).  Every field and table at this s shares it."""
    s = from_float(s)
    prec = _EVAL_PREC
    log_lo, log_hi = _log_bounds(p)
    a_hi = mpf_mul(s, log_hi, prec, round_ceiling)
    _, dm, de, _ = mpf_sub(a_hi, mpf_mul(s, log_lo, prec, round_floor))
    _, m, e, _ = E = mpf_exp(mpf_neg(a_hi), _EXP_PREC, round_floor)
    # 2^128 E (1 + 2^-180)(1 + 2 dm 2^de) = num 2^(128 + e - 180 - g)
    g = max(-de - 1, 0)
    num = m * _EXP_SLACK * ((1 << g) + (dm << (de + 1 + g)))
    return to_fixed(E, _FIX_BITS), -(-num >> (180 + g - e - _FIX_BITS))


def _inverse_powers(s: float, size: int) -> tuple[list[int], list[int]]:
    """The lower and upper ends of n^-s for n = 0..size (entry 0 unused),
    on the fixed-point grid: _prime_power at a prime, elsewhere the product
    of two smaller entries.  The sieve gives n its largest prime factor
    p <= sqrt(n), whatever the size, so entry n is the same in every
    table at this s."""
    factor = list(range(size + 1))
    for p in range(2, math.isqrt(size) + 1):
        if factor[p] == p:
            factor[p * p::p] = [p] * len(range(p * p, size + 1, p))
    low, high = [0, _ONE], [0, _ONE]
    for n in range(2, size + 1):
        p = factor[n]
        if p == n:
            lo, hi = _prime_power(s, p)
            low.append(lo)
            high.append(hi)
        else:
            low.append(low[p] * low[n // p] >> _FIX_BITS)
            high.append(-(-high[p] * high[n // p] >> _FIX_BITS))
    return low, high


@lru_cache(maxsize=None)
def _bernoulli_ratios() -> tuple[Fraction, ...]:
    # B_2j/(2j)! for j = 1..EM_TERMS + 1
    out = []
    for j in range(1, _EM_TERMS + 2):
        num, den = bernfrac(2 * j)
        out.append(Fraction(num, den * math.factorial(2 * j)))
    return tuple(out)


@lru_cache(maxsize=8)
def _em_weights(N: int, D: int) -> tuple[tuple[int, int], ...]:
    """The pairs enclosing w_j = B_2j/(2j)! prod_{i<j} (s+2i-1)(s+2i) at
    s = N/D, for j = 1..EM_TERMS + 1, the last one times [0, 1]; every
    conductor of a call shares them."""
    weights, num, den = [], 1, 1
    for j, b in enumerate(_bernoulli_ratios()):
        weights.append(_fix_ratio(b.numerator * num, b.denominator * den))
        num *= (N + (2 * j + 1) * D) * (N + (2 * j + 2) * D)
        den *= D * D
    lo, hi = weights[-1]
    weights[-1] = (min(lo, 0), max(hi, 0))
    return tuple(weights)


@lru_cache(maxsize=_RESIDUE_CACHE_SIZE)
def _residue_sums(s: float, q: int, X: int) -> tuple[dict, tuple[int, int]]:
    """Sums of n^-s over n = a mod q, n > 1, one pair per unit a in 1..q,
    and the pair that every sum_a chi(a) (sum for a) misses L(s, chi) - 1
    by; every character of conductor q at this s shares them, whatever
    its field.

    When X = 16 q is within the precision cutoff, the terms n <= X are
    summed directly and the rest, sum_k (y + k q)^-s with y = X + a, by
    Euler-Maclaurin: f(k) = (y + k q)^-s has
        sum_{k>=0} f(k) = y^(1-s)/(q(s-1)) + y^-s/2
                          + sum_{j=1}^{M} B_2j/(2j)! (s)_(2j-1) q^(2j-1) y^(-s-2j+1) + R,
    and since every even derivative of f is positive, R lies between 0
    and the first omitted term (j = M + 1).  With the product factored as
    s q y^(-s-1) w_j (q/y)^(2j-2), the sum over j is a Horner polynomial
    in (q/y)^2, and the sums are exact up to rounding (the returned pair
    is 0).  Past the cutoff only n <= X is summed and the pair is [-T, T],
    since |sum_{n>X} chi(n) n^-s| <= int_X^oo x^-s dx = X X^-s/(s-1), which
    T bounds from the upper end of X^-s (about 2^-100).  The memo hands
    every caller the same dict, which callers only read.
    """
    low, high = _inverse_powers(s, X + q if X == _EM_SHIFT * q else X)
    N, D = s.as_integer_ratio()
    units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
    sums = {a: (sum(low[a:X + 1:q]), sum(high[a:X + 1:q])) for a in units}
    # n = 1 is left out: L(s, chi) starts with the exact term 1
    sums[1] = (sums[1][0] - _ONE, sums[1][1] - _ONE)
    if X < _EM_SHIFT * q:
        T = -(-X * high[X] * D // (N - D))
        return sums, (-T, T)
    weights = _em_weights(N, D)
    for a in units:
        y = X + a
        r = _fix_ratio(q * q, y * y)
        poly = weights[-1]
        for w in reversed(weights[:-1]):
            lo, hi = _fix_mul_positive(poly, r)
            poly = (lo + w[0], hi + w[1])
        # y^(1-s)/(q(s-1)) + y^-s/2 = y^-s (2 y D + q (N - D))/(2 q (N - D))
        lo, hi = _fix_mul(_fix_ratio(N * q, D * y), poly)
        head = _fix_ratio(2 * y * D + q * (N - D), 2 * q * (N - D))
        lo, hi = _fix_mul((low[y], high[y]), (head[0] + lo, head[1] + hi))
        sums[a] = (sums[a][0] + lo, sums[a][1] + hi)
    return sums, (0, 0)


def _dirichlet_product(characters, s: float) -> tuple[int, int]:
    """zeta_K(s) as the product of L(s, chi) over the characters (complex
    ones as |L|^2), a fixed-point pair.

    Every L(s, chi) = 1 + delta starts with the exact term 1, so the sums
    leave n = 1 out and the product accumulates E = zeta_K(s) - 1 as
    E (1 + delta) + delta; the 1 is added once at the end.  A value just
    above a float (zeta_K(40) = 1 + 2^-40 + 2^-80 + ... for Q(i)) then
    stays above it.  E appears once per step, so a factor delta near -1
    does not widen it (E + E delta would, by 1 + |delta| per character).
    The residue sums are added per phase first, so each distinct root of
    unity costs one product for cos and one for sin; the roots themselves
    are enclosed once per process.
    """
    excess = (0, 0)
    for q, m, phases in characters:
        by_residue, tail = _residue_sums(s, q, _precision_cutoff(s, _EM_SHIFT * q))
        by_phase = {}
        for a, (lo, hi) in by_residue.items():
            x = phases[a % q]
            if x in by_phase:
                lo, hi = lo + by_phase[x][0], hi + by_phase[x][1]
            by_phase[x] = (lo, hi)
        re = im = tail
        for x, h in by_phase.items():
            if h == (0, 0):
                # past the cutoff, residues above X have no term
                continue
            c, d = _root_of_unity(x, m)
            lo, hi = _fix_mul(c, h)
            re = (re[0] + lo, re[1] + hi)
            lo, hi = _fix_mul(d, h)
            im = (im[0] + lo, im[1] + hi)
        # L = 1 + re (+ i im); |L|^2 = 1 + re (2 + re) + im^2
        if all(2 * x % m == 0 for x in by_phase):
            delta = re
        else:
            lo, hi = _fix_mul(re, (2 * _ONE + re[0], 2 * _ONE + re[1]))
            sq = _fix_mul(im, im)
            delta = (lo + sq[0], hi + sq[1])
        lo, hi = _fix_mul(excess, (_ONE + delta[0], _ONE + delta[1]))
        excess = (lo + delta[0], hi + delta[1])
    # zeta_K(s) >= 1: the unit ideal contributes 1 and every term is positive
    return _ONE + max(excess[0], 0), _ONE + excess[1]


@lru_cache(maxsize=_ZETA_CACHE_SIZE)
def _zeta_endpoints(key: tuple[str, int], s: float) -> tuple[float, float]:
    # rounded as _enclose rounds: the largest float at or below each end,
    # then one float further out.  eps = 2^-s (1 + 2/(s - 1)) >= zeta(s) - 1
    # and d <= 2 len(characters) give zeta_K(s) - 1 <= e^(d eps) - 1; when
    # d eps < 2^-60 the upper end stays under 1 + 2^-52 and both round to 1
    characters = _characters(key)
    if 2 * len(characters) * 2.0**-s * (1 + 2 / (s - 1)) < 2.0**-60:
        return math.nextafter(1.0, -math.inf), math.nextafter(1.0, math.inf)
    lo, hi = _dirichlet_product(characters, s)
    return (math.nextafter(_fix_float_floor(lo), -math.inf),
            math.nextafter(_fix_float_floor(hi), math.inf))


def _zeta_key(target: int | NumberField) -> tuple[tuple[str, int], int | str]:
    """The memo key, ("cyclotomic", n) or ("quadratic", disc), and the
    reported conductor of a conductor n or a field.

    Rational and cyclotomic fields, Q(i) and Q(sqrt -3) are cyclotomic of
    conductor 1, n, 4 and 3; conductors 2 mod 4 normalize to their odd
    part.  Another Q(sqrt D) is keyed by its discriminant.
    """
    if not isinstance(target, NumberField):
        n = _field_conductor(target)
        return ("cyclotomic", n), n
    F = target
    if F.kind == "quadratic" and F.D not in (-1, -3):
        return ("quadratic", F.disc), F.descriptor
    if F.kind == "quadratic":
        return _zeta_key(4 if F.D == -1 else 3)
    if F.kind in ("rational", "cyclotomic"):
        return _zeta_key(F.conductor or 1)
    raise ValueError(f"no zeta backend for field kind {F.kind!r}")


def _check_pinned_P(P: int) -> None:
    """Reject a truncation P below 1.  The entry points that still take P
    keep it for the benchmark's call shape only; it changes nothing."""
    if not operator.index(P) >= 1:
        raise ValueError(f"need P >= 1, got P = {P}")


def _zeta_arg(s: float) -> float:
    """s as a float, or ValueError unless 1 < s < inf."""
    s = float(s)
    if not 1 < s < math.inf:
        raise ValueError(f"need finite s > 1, got s = {s}")
    return s


def _zeta_interval(target: int | NumberField, s: float) -> ZetaInterval:
    key, conductor = _zeta_key(target)
    s = _zeta_arg(s)
    lo, hi = _zeta_endpoints(key, s)
    return ZetaInterval(s=s, conductor=conductor, value_low=lo, value_high=hi)


def dedekind_zeta(n: int, s: float, P: int = 1000) -> ZetaInterval:
    """Enclosure of the zeta function of the cyclotomic field Q(zeta_n).

    zeta_K(s) is the product of L(s, chi) over the characters chi mod n,
    each replaced by its primitive character, which is the same as every
    primitive character of every conductor f | n (Washington, Introduction
    to Cyclotomic Fields, Thm 4.3); a conjugate pair contributes |L|^2.

    Each L(s, chi) with chi of conductor q is the direct sum over n <= X
    plus a tail.  When X = 16 q is within the precision cutoff (the
    smallest X with X^(1-s)/(s-1) <= 2^-100), the tail is
    sum_a chi(a) sum_{k>=0} (X + a + k q)^-s with every inner sum taken by
    12 Euler-Maclaurin terms and a remainder certified between 0 and the
    first omitted term (all even derivatives of the summand are
    positive; Johansson, arXiv:1309.2877).  Past the cutoff X is the
    cutoff, and the tail is the interval [-T, T], T = X^(1-s)/(s-1)
    <= 2^-100.  The powers n^-s are computed at primes, by one exponential
    each, and extended multiplicatively.  Where d 2^-s (1 + 2/(s - 1))
    < 2^-60 bounds zeta_K(s) - 1, the endpoints are the floats on either
    side of 1 and no sum is taken.

    Every quantity is a pair of Python integers at the fixed scale 2^-128,
    the lower end floored and the upper ceiled by every operation; p^-s,
    cos and sin enter as mpmath.libmp values under directed rounding, so
    neither iv.prec nor mp.prec matters.  The float endpoints are rounded
    outward, so the width is never 0.

    Three memos hold the results, each bounded by its entry count.  The
    endpoints are memoized per (field, s), the last 4096.  What depends on
    s but not on the field is shared by every field asked for the same s:
    each p^-s (the last 4096 (s, p), at most 1.3 MB) and each conductor's
    residue sums (the last 32 (s, q, X): 2 KB an entry for conductors up
    to 8, and 0.17 MB for conductor 1001 of Q(sqrt,1001) near s = 1, the
    worst case in the tests, where 32 entries take 5.3 MB).  Every entry
    is formed from the same integers in the same order however the memos
    stand, so the endpoints do not depend on the call order.
    Conductors 2 mod 4 normalize to their odd part.  P must be at least 1
    and changes nothing: it is kept for the benchmark's call shape until
    the next benchmark change.
    """
    _check_pinned_P(P)
    return _zeta_interval(n, s)


def dedekind_zeta_field(F: NumberField, s: float, P: int = 1000) -> ZetaInterval:
    """Zeta enclosure of any supported field, as in dedekind_zeta.

    Rational and cyclotomic fields (and Q(i), Q(sqrt -3), which are also
    cyclotomic) use the characters of their conductor.  Another Q(sqrt D)
    has zeta(s) L(s, chi) with chi = (disc/.) of the field discriminant,
    built from the splitting rule: chi(p) is 1 when p splits, -1 when it
    stays inert and 0 when it ramifies.  Results are memoized the same way,
    and P is checked (P >= 1) and otherwise unused, as in dedekind_zeta.
    """
    _check_pinned_P(P)
    return _zeta_interval(F, s)


# ---------------------------------------------------------------------------
# volume-ratio bounds


def _simplex_project(v: np.ndarray) -> np.ndarray:
    import numpy as np
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    mask = u - css / idx > 0
    rho = idx[mask][-1]
    theta = css[mask][-1] / rho
    return np.maximum(v - theta, 0.0)


def _ratio_inputs(F: NumberField, t: int, alphas) -> list:
    """The tuple of a volume-ratio bound coerced into F, once t >= 2 (not
    nan) and every entry nonzero are checked."""
    if not t >= 2:
        raise ValueError("need t >= 2")
    alphas = [F.coerce(a) for a in alphas]
    if not alphas or any(not a for a in alphas):
        raise ValueError("need a tuple of nonzero elements")
    return alphas


def ellipsoid_intersection_bound(F: NumberField, t: int, alphas) -> float:
    """Upper bound for vol(ellipsoid intersection)/vol(ball) by convex weights.

    Each nonzero alpha scales the per-place block radii by its conjugate
    absolute values; any convex combination c of the constraints contains the
    intersection in a product ellipsoid of relative volume
    prod_places (sum_i c_i |alpha_i|_place^2)^(-t e/2).  Uniform weights are
    refined by 200 projected-gradient steps on the log bound; every iterate
    is a valid bound, so the minimum, rounded outward for float error, is
    sound regardless of optimizer quality.
    """
    alphas = _ratio_inputs(F, t, alphas)
    import numpy as np
    places = F.places
    E = F.embed_matrix[[row for row, _ in places]]
    X = np.array([a.floats() for a in alphas])
    A = np.abs(X @ E.T) ** 2
    exps = np.array([t * e / 2.0 for _, e in places])
    m = len(alphas)
    # Outward rounding by eta: with u = 2^-53 and correctly rounded inputs,
    # |sigma|^2 carries relative error rho <= 4 (d + 4) u sum_j |x_j E_j|/|sigma|;
    # the sum over c, logs, weighted sum and exp add (m + 4) u per place,
    # (P + 3) u sum_p e_p |log A_p| and 2 u, never more.
    u = 2.0**-53
    rho = 4 * (F.degree + 4) * u * (np.abs(X) @ np.abs(E).T) / np.sqrt(A)
    eta = float(
        (exps * (-np.log1p(-rho.max(axis=0)) + (m + 4) * u)).sum()
        + (len(places) + 3) * u * (exps * np.abs(np.log(A)).max(axis=0)).sum()
    )

    def log_bound(c: np.ndarray) -> float:
        return float(-(exps * np.log(A.T @ c)).sum())

    c = np.full(m, 1.0 / m)
    best = log_bound(c)
    for j in range(200):
        grad = -(A @ (exps / (A.T @ c)))
        step = 0.25 * 0.97**j / (np.linalg.norm(grad) + 1e-12)
        c = _simplex_project(c - step * grad)
        best = min(best, log_bound(c))
    return math.exp(best + eta) * (1 + 2 * u)


def volume_ratio_height_bound(F: NumberField, t: int, alphas, k: int = 2) -> float:
    """Height-driven bound for the relative volume of the intersection.

    With H the exponential joint house of the tuple and N the product of the
    absolute norms: for N >= 1 and k >= 2 the bound is
    N^(-t/(kM)) ((H^(2(k-1)/(kd)) + M H^(-2(k-1)/(kMd)))/(M+1))^(-dt/2);
    when the norm assumption fails the plain form
    ((H^(2/d) + M H^(-2/(dM)) N^(2/(dM)))/(M+1))^(-dt/2) applies instead.
    """
    alphas = _ratio_inputs(F, t, alphas)
    if k < 2:
        raise ValueError("need k >= 2")
    d = F.degree
    m = len(alphas)
    norm = float(math.prod(abs_norm(F, a) for a in alphas))
    house = math.exp(d * h_infty(F, alphas))
    if norm >= 1.0:
        mid = (
            house ** (2.0 * (k - 1) / (k * d))
            + m * house ** (-2.0 * (k - 1) / (k * m * d))
        ) / (m + 1)
        return norm ** (-t / (k * m)) * mid ** (-d * t / 2.0)
    mid = (
        house ** (2.0 / d) + m * house ** (-2.0 / (d * m)) * norm ** (2.0 / (d * m))
    ) / (m + 1)
    return mid ** (-d * t / 2.0)


def column_height_ratio_bound(F: NumberField, t: int, alphas) -> float:
    """Column-form bound for the relative intersection volume.

    The same ratio bounded through the house and norm of the entries alone:
    with M nonzero entries, H the exponential joint house and N the product
    of absolute norms,

        (M+1)^(M t d/2) (V(M t d)/V(t d)^M)
            (H^(2/d) + M N^(2/(d M)) H^(-2/(d M)))^(-d t/2).

    Coarser than the convex-weight search, but its shape survives dropping
    all constraints except the chosen entries, which is what the pair-tail
    assembly consumes.  Coincides with the plain height form at M = 1.
    """
    alphas = _ratio_inputs(F, t, alphas)
    d = F.degree
    m = len(alphas)
    half_dim = t * d / 2.0
    log_norm = float(sum(math.log(abs_norm(F, a)) for a in alphas))
    two_h = 2.0 * h_infty(F, alphas)
    base = math.exp(two_h) + m * math.exp(2.0 * log_norm / (d * m) - two_h / m)
    log_bound = (
        m * half_dim * math.log(m + 1)
        + m * math.lgamma(half_dim + 1.0)
        - math.lgamma(m * half_dim + 1.0)
        - half_dim * math.log(base)
    )
    return math.exp(log_bound)


# ---------------------------------------------------------------------------
# unit counting


def unit_count_bound(F: NumberField, hyp: HeightHypothesis, B: float) -> float:
    """Box bound for units with constrained archimedean size.

    Units u with h_infty(u) <= B number at most omega ((B + c0/2) / (c0/2))^r
    with r the unit rank: the log embedding packs them in an r-cube of that
    side count.
    """
    B = float(B)
    if not B >= 0:
        raise ValueError("size bound B must be nonnegative")
    half = hyp.c0 / 2.0
    return F.omega_K * ((B + half) / half) ** F.unit_rank


# ---------------------------------------------------------------------------
# ideal sums


@lru_cache(maxsize=_ZETA_CACHE_SIZE)
def _zeta_power_product(factors: tuple[tuple[float, float, float], ...]) -> tuple[float, float]:
    # prod [low, high]^e by the libmp interval operations of iv at 80 bits,
    # rounded outward; the key is every input the product reads
    out = _mpi(1)
    for low, high, e in factors:
        z = from_float(low), from_float(high)
        out = mpi_mul(out, mpi_pow(z, _mpi(e), _ZETA_PREC), _ZETA_PREC)
    return _outward(out)


def _composite_zeta(F: NumberField, parts: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Endpoints (low, high) of the product prod_i zeta_F(s_i)^{e_i}.

    Each factor is read from the endpoint memo of dedekind_zeta_field,
    under the same check that 1 < s_i < inf.  The powers (negative
    exponents divide) are composed by the libmp interval operations of iv
    at 80 bits and the endpoints rounded outward, so the result contains
    every product of values inside the factors.

    The composition is memoized (up to _ZETA_CACHE_SIZE entries) by the
    tuple ((value_low, value_high, e_i), ...) of the factor endpoints and
    exponents.  That tuple is all the composition reads, at a fixed
    precision, so a hit returns the floats a fresh composition would; no
    field, t or s enters the key, and calls whose factors match share an
    entry (above the zeta cutoff every factor is the floats beside 1).
    An exponent given as an int and as the equal float compose alike.
    """
    key = _zeta_key(F)[0]
    return _zeta_power_product(tuple(
        (*_zeta_endpoints(key, _zeta_arg(s_i)), e_i) for s_i, e_i in parts
    ))


def _ideal_sum_threshold(
    hyp: HeightHypothesis, M: int, k: int, rank_ratio: float
) -> tuple[float, float]:
    """(t0, t0_effective) of ideal_sum_bound at rank_ratio: the shifted
    t0_threshold, and its maximum with the zeta floor 4k/(3k-4)."""
    t0 = t0_threshold(M, k, hyp, rank_ratio=rank_ratio, shifted=True)
    return t0, max(t0, 4.0 * k / (3.0 * k - 4.0))


def ideal_sum_bound(
    F: NumberField,
    hyp: HeightHypothesis,
    t: float,
    M: int,
    k: int,
) -> BoundReport:
    """Bound for the full denominator-weighted sum over M-tuples of ideals.

    Threshold: sup(k M + 1/2, unit-rank entry with f_M at c0(1-1/k)), plus
    the requirement t > 4k/(3k-4) that makes every zeta argument exceed 1;
    the effective maximum is what ThresholdError reports.  The zeta factor
    is zeta(t(3/4 - 1/k)) zeta(t/(kM))^M / zeta(3t/4), consumed at the high
    endpoint; bound_value is the relative error factor
    C Z e^(-epsilon d (t - t0)) that multiplies the main term omega^M.
    M < 1 or k < 2 raises ValueError (from t0_threshold).
    """
    d = F.degree
    c0, c1 = hyp.c0, hyp.c1
    t0, t0_eff = _ideal_sum_threshold(hyp, M, k, F.unit_rank / d)
    if not t > t0_eff:
        raise ThresholdError(t0_eff)
    a = alpha_M(M, c0)
    eps = 0.5 * min(c1 / 8.0, math.log(f_M(M, 0.75 * c1)), a * c0 * (k - 1) / k)
    decay = a * c0 * d * (t - t0) * (k - 1) / (4.0 * k * k)
    C = (2 * M + 1) * (1.0 + 1.0 / _decay_gap(decay))
    z_lo, z_hi = _composite_zeta(
        F,
        [(t * (0.75 - 1.0 / k), 1.0), (t / (k * M), float(M)), (0.75 * t, -1.0)],
    )
    value = _finite_float(C * z_hi * math.exp(-eps * d * (t - t0)), f"ideal-sum tail M={M}")
    return BoundReport(
        t0=t0,
        epsilon=eps,
        C=C,
        bound_value=value,
        inputs={
            "field": F.descriptor,
            "t": t,
            "M": M,
            "k": k,
            "alpha": a,
            "t0_effective": t0_eff,
            "zeta_low": z_lo,
            "zeta_high": z_hi,
        },
    )


# ---------------------------------------------------------------------------
# second moment


def _finite_float(x, what: str) -> float:
    """x as a float, or ValueError when that is not finite: a bracket whose
    main term or endpoint overflows a float has nothing to report."""
    try:
        value = float(x)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"the {what} is not a finite float")
    return value


def second_moment_bounds(
    F: NumberField,
    hyp: HeightHypothesis,
    t: float,
    V,
    k: int = 4,
) -> MomentReport:
    """Two-sided second-moment bracket for the ball point count.

    lower = V^2 + omega V holds unconditionally (all sum terms are
    nonnegative); upper adds omega^2 C Z e^(-epsilon d (t - t0)) V with
    epsilon = (1/2) min(c1/8, log cosh(3 c1/4), (4/5) c0 (k-1)/k),
    C = 3 + 3/(1 - e^(-c0 d (t - t0)(k-1)/(10 k^2))) and the zeta factor
    Z = zeta(t(3/4 - 1/k)) zeta(t/k) / zeta(3t/4) at the high endpoint.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    if not 0 < V < math.inf:
        raise ValueError("need a finite V > 0")
    d = F.degree
    c0, c1 = hyp.c0, hyp.c1
    entries = [k + 0.5]
    if F.unit_rank > 0:
        entries.append(_rank_entry(
            2.0 * F.unit_rank / d * math.log(2.0 + 1.0 / (2 * k)),
            math.log(math.cosh(c0 * (1.0 - 1.0 / k))),
        ))
    t0 = max(entries)
    t0_eff = max(t0, 4.0 * k / (3.0 * k - 4.0))
    if not t > t0_eff:
        raise ThresholdError(t0_eff)
    eps = 0.5 * min(
        c1 / 8.0,
        math.log(math.cosh(0.75 * c1)),
        0.8 * c0 * (k - 1) / k,
    )
    decay = c0 * d * (t - t0) * (k - 1) / (10.0 * k * k)
    C = 3.0 + 3.0 / _decay_gap(decay)
    z_lo, z_hi = _composite_zeta(
        F,
        [(t * (0.75 - 1.0 / k), 1.0), (t / k, 1.0), (0.75 * t, -1.0)],
    )
    omega = F.omega_K
    lower = V * V + omega * V
    main = _finite_float(lower, "main term")
    err = omega * omega * C * z_hi * math.exp(-eps * d * (t - t0)) * V
    upper = _finite_float(lower + err, "upper endpoint")
    if upper < lower:
        # lower + err rounded to nearest fell below an exact lower that is
        # not a float (the comparison is exact); the next float up is at
        # least lower + err
        upper = math.nextafter(upper, math.inf)
    return MomentReport(
        main_term=lower,
        lower=lower,
        upper=upper,
        components={"main": main, "unit_ideal_tail": err},
        constants={
            "t0": t0,
            "t0_effective": t0_eff,
            "epsilon": eps,
            "C": C,
            "zeta_low": z_lo,
            "zeta_high": z_hi,
            "k": float(k),
        },
    )


def cyclotomic_second_moment_constants(F: NumberField, t: float) -> dict:
    """Published cyclotomic-family second-moment constants, as stated.

    For conductor fields of degree d >= 2 and t >= 27: threshold 267/10,
    epsilon = 1/400, and C = (3 + 3/(1 - e^(-d(t - 267/10)/1124)))
    zeta(37t/52) zeta(t/25).  The scalar in front of the zeta product stays
    below 5625 and is reported as a float; C_low and C_high are the exact
    scalar times the two zeta intervals, composed by the libmp interval
    operations of iv at 80 bits and rounded outward (the float scalar can
    sit 1e-13 off near t = 27, where 1 - e^(-x) cancels).  The general
    second-moment epsilon formula under the family defaults evaluates to
    (1/2) log cosh(3 c1/4) ~ 0.0025253 >= 1/400, which is checked here
    before the rounded constants are returned.
    """
    if F.kind not in ("cyclotomic", "quadratic"):
        raise ValueError("cyclotomic-family constants need a degree >= 2 field")
    d = F.degree
    if d < 2:
        raise ValueError("need degree >= 2")
    if not t >= 27:
        raise ThresholdError(27.0, "the stated constants need t >= 27")
    hyp = default_hypothesis(F)
    formula_eps = 0.5 * math.log(math.cosh(0.75 * hyp.c1))
    if formula_eps < 1.0 / 400.0:
        raise RuntimeError(f"the default c1 gives epsilon {formula_eps} < 1/400")
    t0 = 26.7
    scalar = 3.0 + 3.0 / (1.0 - math.exp(-d * (t - t0) / 1124.0))
    z1 = dedekind_zeta_field(F, 37.0 * t / 52.0)
    z2 = dedekind_zeta_field(F, t / 25.0)
    prec = _ZETA_PREC
    x = mpi_mul(_mpi(-d), mpi_sub(_mpi(t), mpi_div(_mpi(267), _mpi(10), prec), prec), prec)
    x = mpi_exp(mpi_div(x, _mpi(1124), prec), prec)
    C = mpi_add(_mpi(3), mpi_div(_mpi(3), mpi_sub(_mpi(1), x, prec), prec), prec)
    for z in (z1, z2):
        C = mpi_mul(C, (from_float(z.value_low), from_float(z.value_high)), prec)
    C_low, C_high = _outward(C)
    return {
        "t0": t0,
        "epsilon": 1.0 / 400.0,
        "scalar": scalar,
        "C_low": C_low,
        "C_high": C_high,
        "zeta1": z1,
        "zeta2": z2,
        "epsilon_formula": formula_eps,
    }


# ---------------------------------------------------------------------------
# higher moments


def _s_base(c1: float) -> float:
    """min(64/27, e^(c1/3), cosh(c1)^3), the base of the pair-tail rank
    entries.  From c1 = 3 on both transcendental terms exceed 64/27, so
    they are evaluated at min(c1, 3), where neither can overflow."""
    x = min(c1, 3.0)
    return min(64.0 / 27.0, math.exp(x / 3.0), math.cosh(x) ** 3)


def _pair_tail_threshold(
    hyp: HeightHypothesis, n: int, m: int, rank_ratio: float
) -> tuple[float, float]:
    """(t0, t0_effective) of a2m_bound: the printed 2(n-m) sup(m^2+m, rank
    entries), and its maximum with the floors that keep every zeta argument
    above 1."""
    c0 = hyp.c0
    entries = [float(m * m + m)]
    if rank_ratio > 0:
        entries.append(_rank_entry(
            rank_ratio * (m * m + m) * math.log(2.0 + 12.0 / c0 + 2.0 * math.log(n - m) / c0),
            math.log(_s_base(hyp.c1)),
        ))
        entries.append(_rank_entry(rank_ratio * _LOG2, math.log(f_M(n - m, 0.75 * c0))))
    t0 = 2.0 * (n - m) * max(entries)
    return t0, max(t0, 2.0 * (m + 1) * (1.0 + m * (n - m) / math.e), 4.0 * m * (n - m), 2.0)


def _rank_ratio(F: NumberField, rank_ratio: float | None) -> float:
    """rank_ratio, or the field's own unit rank / degree when it is None.

    A ratio below the field's own would understate the pair-tail
    precondition, and the rank-one tail uses the field's own ratio anyway,
    so it is rejected; so is an infinite one, as t0_threshold rejects it.
    """
    own = F.unit_rank / F.degree
    if rank_ratio is None:
        return own
    if not float(rank_ratio) >= own:
        raise ValueError(
            f"rank_ratio {rank_ratio} is below the field's unit rank / degree {own}"
        )
    if not float(rank_ratio) < math.inf:
        raise ValueError("rank_ratio must be nonnegative and finite")
    return float(rank_ratio)


def a2m_bound(
    F: NumberField,
    hyp: HeightHypothesis,
    t: float,
    n: int,
    m: int,
    C_S: float | None = None,
    rank_ratio: float | None = None,
) -> BoundReport:
    """Tail bound for the weight-m pair configurations of the n-th moment.

    Valid for 2 <= m <= n-1 and t above the printed threshold
    2(n-m) sup(m^2+m, rank entries); zeta-argument positivity adds the
    floors recorded as t0_effective.  bound_value evaluates
    C_S omega^{m(n-m)} (td)^{(m-1)/2} Z e^{-eps d (t - t0)} with
    eps = (1/2) log min(4/3, e^{c1/(3(m+1))}, f_{n-m}(3 c1/4)) and
    Z = zeta(t/(2(m+1)) - m(n-m)/e) zeta(t/(4m(n-m)))^{m(n-m)} / zeta(t-1).
    C_S is reported as "unresolved" unless supplied; the value uses C_S = 1
    in that case.  rank_ratio defaults to the field's unit rank / degree,
    and a smaller one raises ValueError.
    """
    if not 2 <= m <= n - 1:
        raise ValueError(f"need 2 <= m <= n-1, got n={n}, m={m}")
    d = F.degree
    c1 = hyp.c1
    rr = _rank_ratio(F, rank_ratio)
    t0, t0_eff = _pair_tail_threshold(hyp, n, m, rr)
    if not t > t0_eff:
        raise ThresholdError(t0_eff)
    eps = 0.5 * math.log(
        min(4.0 / 3.0, math.exp(c1 / (3.0 * (m + 1))), f_M(n - m, 0.75 * c1))
    )
    w = m * (n - m)
    z_lo, z_hi = _composite_zeta(
        F, [(t / (2.0 * (m + 1)) - w / math.e, 1.0), (t / (4.0 * w), float(w)), (t - 1.0, -1.0)]
    )
    cs = 1.0 if C_S is None else float(C_S)
    try:
        value = cs * float(F.omega_K) ** w * (t * d) ** ((m - 1) / 2.0) * z_hi
    except OverflowError:
        value = math.inf
    value = _finite_float(value * math.exp(-eps * d * (t - t0)), f"pair tail m={m}")
    return BoundReport(
        t0=t0,
        epsilon=eps,
        C="unresolved" if C_S is None else cs,
        bound_value=value,
        inputs={
            "field": F.descriptor,
            "t": t,
            "n": n,
            "m": m,
            "t0_effective": t0_eff,
            "rank_ratio": rr,
            "zeta_low": z_lo,
            "zeta_high": z_hi,
        },
    )


def moment_bounds(q, hyp: HeightHypothesis, options: dict | None = None) -> MomentReport:
    """Assembled bracket for the n-th moment of the ball point count.

    lower is the Poisson-type main term (every neglected contribution is
    nonnegative); upper adds the assembled exponential tail
    C omega^{n^2/4} (td)^{(n-2)/2} e^{-eps d (t - t0)} (V+1)^{n-1} Z.  The
    components dict itemizes the torsion tail, the rank-one ideal-sum tail
    and each pair tail as relative factors.  n = 2 delegates to
    second_moment_bounds, which takes k alone.

    options (all optional): k (splitting parameter for the rank-one tail,
    default 4), C (leading constant, default 1 and flagged unresolved via
    constants["C_unresolved"]), mode ("general", "fixed-field" or
    "cyclotomic"), rank_ratio (sup of unit rank over degree across the
    intended family, at least this field's own ratio, which is the
    default).  Any other key or mode raises ValueError, and so do k < 2
    and, at n = 2, C, mode and rank_ratio.

    The printed threshold formula omits the rank-free entries of the pair
    tails and the zeta-argument floors, so the effective precondition is
    their maximum; ThresholdError reports that effective value, while the
    constants record both.
    """
    opts = options or {}
    unknown = set(opts) - {"k", "C", "mode", "rank_ratio"}
    if unknown:
        raise ValueError(f"unknown moment_bounds options: {sorted(unknown, key=str)}")
    mode = opts.get("mode", "general")
    if mode not in ("general", "fixed-field", "cyclotomic"):
        raise ValueError(f"unknown mode {mode!r}")
    F = q.field
    t, n, V = float(q.t), q.n, q.V
    k = int(opts.get("k", 4))
    user_C = opts.get("C")
    cval = 1.0 if user_C is None else float(user_C)
    if n == 2:
        ignored = sorted(set(opts) - {"k"})
        if ignored:
            raise ValueError(f"moment_bounds options {ignored} do not apply at n = 2")
        return second_moment_bounds(F, hyp, t, V, k=k)
    if n < 2:
        raise ValueError("moment bounds need n >= 2")
    d = F.degree
    c0, c1 = hyp.c0, hyp.c1
    rr = _rank_ratio(F, opts.get("rank_ratio"))
    omega = F.omega_K

    if mode == "cyclotomic":
        t0 = max(
            19.0 * n * (n + 1) ** 2 * math.log(52.0 + 25.0 / 3.0 * math.log(n - 1)),
            (n - 1) * math.log(17.0 / 8.0) / math.log(f_M(n - 1, 9.0 / 50.0)),
        )
        eps = 0.5 * math.log(
            min(5.0 ** (1.0 / (36.0 * n + 24.0)), f_M(n - 1, math.log(5.0) / 16.0))
        )
    else:
        entries = [0.0]
        if rr > 0:
            entries.append(_rank_entry(
                rr * n * (n + 1) ** 2 * math.log(2.0 + 12.0 / c0 + 2.0 * math.log(n - 1) / c0),
                math.log(_s_base(c1)),
            ))
            entries.append(_rank_entry(
                2.0 * rr * (n - 1) * math.log(17.0 / 8.0), math.log(f_M(n - 1, 0.75 * c0))
            ))
        t0 = max(entries)
        eps = 0.5 * math.log(
            min(4.0 / 3.0, math.exp(c1 / (3.0 * n + 2.0)), f_M(n - 1, 0.75 * c1))
        )
    t0_eff = max(
        t0,
        float(n * n),
        2.0,
        _ideal_sum_threshold(hyp, n - 1, k, rr)[1],
        *(_pair_tail_threshold(hyp, n, m, rr)[1] for m in range(2, n)),
    )
    if not t > t0_eff:
        raise ThresholdError(t0_eff)

    main = _finite_float(main_term(q), "main term")
    try:
        poly = (t * d) ** ((n - 2) / 2.0) * (V + 1.0) ** (n - 1)
    except OverflowError:
        raise ValueError("the upper endpoint is not a finite float") from None
    components: dict[str, float] = {"main": main}
    components["torsion_tail"] = a1m_bound(F, n, q.t)
    components["rank_one_tail"] = ideal_sum_bound(F, hyp, t, n - 1, k).bound_value
    for m in range(2, n):
        components[f"pair_tail_m{m}"] = a2m_bound(
            F, hyp, t, n, m, C_S=user_C, rank_ratio=rr
        ).bound_value

    constants = {
        "t0": t0,
        "t0_effective": t0_eff,
        "epsilon": eps,
        "C": cval,
        "C_unresolved": 0.0 if user_C is not None else 1.0,
        "k": float(k),
    }
    z_hi = 1.0
    if mode == "general":
        s1 = min(t / (2.0 * (m + 1)) - m * (n - m) / math.e for m in range(2, n))
        parts = [(s1, 1.0), (t / (n * n), n * n / 4.0), (t - 1.0, -1.0)]
        constants["zeta_low"], z_hi = _composite_zeta(F, parts)
    constants["zeta_high"] = z_hi
    if mode == "fixed-field":
        err = cval * t ** ((n - 2) / 2.0) * math.exp(-eps * (t - t0)) * (V + 1.0) ** (
            n - 1
        )
    else:
        err = cval * float(omega) ** (n * n / 4.0) * poly * math.exp(-eps * d * (t - t0)) * z_hi
    return MomentReport(
        main_term=main,
        lower=main,
        upper=_finite_float(main + err, "upper endpoint"),
        components=components,
        constants=constants,
    )
