"""Poisson main terms and the combinatorics behind them.

Stirling numbers, moments of Poisson variables in Touchard form, the
main-term assembly for the n-th moment of the lattice-point count, ball
volumes, the classical ZZ-lattice error term, and the normalized two-ball
intersection volume, by the float regularized incomplete beta that the
Dirichlet oracle shares.

Everything here is pure arithmetic on the query parameters; no lattices
are touched.  Exact rational inputs give exact rational outputs where the
contract promises it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as _field
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from .numberfield import NumberField, Rational

__all__ = [
    "MomentQuery",
    "MomentReport",
    "a1m_bound",
    "ball_volume",
    "main_term",
    "poisson_moment",
    "poisson_moment_series",
    "rogers_error",
    "stirling2",
    "two_ball_intersection",
]

_SERIES_TOL = 1e-12  # absolute truncation error of poisson_moment_series
_SERIES_TERMS = 100000  # poisson_moment_series sums at most this many terms
_MAIN_TERM_CACHE_SIZE = 1024  # main terms memoized by (omega, n, V)
_STIRLING_MAX_N = 1000  # Stirling rows stop here (row 1000: 0.3 s, 0.6 MB)


# ---------------------------------------------------------------------------
# query and report types


@dataclass(frozen=True)
class MomentQuery:
    """Parameters of one moment computation: which field, how many module
    copies t, which moment n, and the ball volume V."""

    field: NumberField
    t: int
    n: int
    V: float | Rational

    def __post_init__(self) -> None:
        if not isinstance(self.t, int) or self.t < 2:
            raise ValueError("t must be an integer >= 2")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("moment order n must be an integer >= 1")
        if self.n > _STIRLING_MAX_N:
            raise ValueError(f"moment order n must be at most {_STIRLING_MAX_N}, got n = {self.n}")
        if not 0 < self.V < math.inf:
            raise ValueError("ball volume V must be positive and finite")
        if not self.t * self.field.degree > self.n:
            raise ValueError(
                f"need t*d > n for convergence; got t*d = {self.t * self.field.degree},"
                f" n = {self.n}"
            )


@dataclass(frozen=True)
class MomentReport:
    """A bracketed moment: the Poisson main term plus labeled nonnegative
    error contributions, with the constants that produced them."""

    main_term: float
    lower: float
    upper: float
    components: dict[str, float] = _field(default_factory=dict)
    constants: dict[str, float] = _field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.lower <= self.main_term <= self.upper:
            raise ValueError("moment bracket must satisfy lower <= main <= upper")
        bad = {k: v for k, v in self.components.items() if v < 0}
        if bad:
            raise ValueError(f"error components must be nonnegative, got {bad}")


# ---------------------------------------------------------------------------
# combinatorics


@lru_cache(maxsize=32)
def _stirling2_row(n: int) -> tuple[int, ...]:
    # S(n, 0..n), built up from row 0 by S(j, m) = m S(j-1, m) + S(j-1, m-1)
    if n > _STIRLING_MAX_N:
        raise ValueError(f"Stirling rows stop at n = {_STIRLING_MAX_N}, got n = {n}")
    row = (1,)
    for j in range(1, n + 1):
        row = (0, *(m * row[m] + row[m - 1] for m in range(1, j)), 1)
    return row


def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind, exact, for n <= _STIRLING_MAX_N."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got n={n}, m={m}")
    return _stirling2_row(n)[m]


def poisson_moment(n: int, lam: float | Rational):
    """n-th moment of a Poisson variable with mean lam, in Touchard form
    sum_{m=1..n} S(n,m) lam^m.  Exact for rational lam, float otherwise."""
    if n < 1:
        raise ValueError("moment order n must be >= 1")
    if not 0 <= lam < math.inf:
        raise ValueError("Poisson parameter must be nonnegative and finite")
    exact = isinstance(lam, (int, Fraction))
    lam_x = Fraction(lam) if exact else float(lam)
    acc = Fraction(0) if exact else 0.0
    p = lam_x
    for S in _stirling2_row(n)[1:]:
        acc += S * p
        p *= lam_x
    return acc


def poisson_moment_series(n: int, lam: float) -> float:
    """The same moment by direct summation e^(-lam) sum_r r^n lam^r / r!,
    truncated once the terms are negligible.  Slower; used as the second
    route in checks.

    Summed at 40 digits so truncation, not accumulated rounding, is the
    only error source; the absolute error of the returned float is below
    _SERIES_TOL plus half an ulp of the value."""
    if n < 1:
        raise ValueError("moment order n must be >= 1")
    if not 0 <= lam < math.inf:
        raise ValueError("Poisson parameter must be nonnegative and finite")
    if lam == 0:
        return 0.0
    if 2 * (lam + n) >= _SERIES_TERMS:
        raise ValueError(f"need 2 (lam + n) < {_SERIES_TERMS}: the series stops by then")
    with mp.workdps(40):
        L = mp.mpf(lam)
        term = mp.e ** (-L) * L
        total = term
        r = 1
        while r < _SERIES_TERMS:
            r += 1
            term = term * (mp.mpf(r) / (r - 1)) ** n * L / r
            total += term
            # past r > 2(lam+n) the term ratio is < e^(1/2)/2, so the tail
            # is under the last term; stop well below _SERIES_TOL
            if r > 2 * (lam + n) and term < 1e-4 * _SERIES_TOL * max(total, 1):
                break
        return float(total)


def main_term(q: MomentQuery):
    """Poisson main term of the n-th moment: omega^n m_n(V / omega).

    Returns a Fraction for rational V, a float otherwise.

    Memoized (up to _MAIN_TERM_CACHE_SIZE entries) by (omega_K, n, V) with
    the type of V in the key: the value reads nothing else of the query,
    so a hit returns what a fresh evaluation would.  The type must be part
    of the key because Fraction(5, 2) == 2.5 with equal hashes, and the
    first gives a Fraction, the second a float.
    """
    return _main_term(q.field.omega_K, q.n, q.V)


@lru_cache(maxsize=_MAIN_TERM_CACHE_SIZE, typed=True)
def _main_term(w: int, n: int, V):
    V = Fraction(V) if isinstance(V, (int, Fraction)) else float(V)
    return w**n * poisson_moment(n, V / w)


# ---------------------------------------------------------------------------
# volumes


def ball_volume(N: int) -> float:
    """Volume of the unit ball in R^N (ValueError from N = 342 on)."""
    if N < 1:
        raise ValueError("dimension must be >= 1")
    try:
        return math.pi ** (N / 2) / math.gamma(N / 2 + 1)
    except OverflowError:
        raise ValueError(f"the unit ball volume in dimension {N} is past the float range") from None


def rogers_error(n: int, t: float) -> float:
    """Exponentially decaying error term for the n-th moment of a random
    ZZ-lattice count: 2*3^k (sqrt3/2)^t + 21*5^k (1/2)^t with k = ceil(n^2/4).

    Warns (but still evaluates) below the validity threshold t >= k + 3.
    """
    k = -(-n * n // 4)
    if t < k + 3:
        warnings.warn(
            f"error term used below its validity threshold t >= {k + 3}",
            stacklevel=2,
        )
    return 2 * 3**k * (math.sqrt(3) / 2) ** t + 21 * 5**k * 0.5**t


def _beta_cf(a: float, b: float, x: float) -> float:
    # the continued fraction of DLMF 8.17.22 by the modified Lentz method,
    # two partial numerators d_2m, d_2m+1 per step
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        a2m = a + 2 * m
        for num in (m * (b - m) * x / ((a2m - 1.0) * a2m),
                    -(a + m) * (a + b + m) * x / (a2m * (a2m + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) <= 1e-15:
            return h
    raise RuntimeError(f"incomplete beta fraction did not converge: a={a}, b={b}, x={x}")


def _betainc(a: float, b: float, x: float, y: float, log_scale: float = 0.0) -> float:
    """exp(log_scale) I_x(a, b), the regularized incomplete beta function.

    The caller passes y = 1 - x, computed without cancellation.  The
    continued fraction runs in the tail below the mean, where it converges
    fast; above it the result is exp(log_scale) (1 - I_y(b, a)).  The scale
    enters the exponent, so a large factor times a tiny tail stays finite.
    """
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return math.exp(log_scale)
    if x > (a + 1.0) / (a + b + 2.0):
        return math.exp(log_scale) * (1.0 - _betainc(b, a, y, x))
    log_front = (
        log_scale + a * math.log(x) + b * math.log(y)
        + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    )
    return math.exp(log_front) * _beta_cf(a, b, x) / a


def two_ball_intersection(N: int, delta: float) -> float:
    """Volume of the intersection of two unit balls in R^N at center
    distance delta, normalized by the ball volume:

        2 (V(N-1)/V(N)) integral_(delta/2)^1 (1 - rho^2)^((N-1)/2) drho
        = I_(1 - delta^2/4)((N+1)/2, 1/2),

    the regularized incomplete beta function (two caps of height
    1 - delta/2; S. Li, "Concise formulas for the area and volume of a
    hyperspherical cap", 2011), evaluated in floats by _betainc.  Against
    a 30-digit evaluation over N = 2..199 and delta = 2k/401, k = 1..400,
    the worst relative error is 1.35e-12 (N = 164, delta = 0.264).
    """
    if N < 2:
        raise ValueError("dimension must be >= 2")
    if not delta >= 0:
        raise ValueError("center distance must be nonnegative")
    if delta >= 2:
        return 0.0
    y = delta * delta / 4
    return _betainc((N + 1) / 2, 0.5, 1 - y, y)


def a1m_bound(F: NumberField, n: int, t: int) -> float:
    """Upper bound for the total contribution of the torsion-entry matrix
    classes to the normalized n-th moment error:

        sum_m S(n,m) (1 + omega_K)^((n-m) m) * 2 (sqrt3/2)^(t d)

    ValueError when the integer sum is past the float range.
    """
    if n >= t:
        raise ValueError("need n < t")
    w = F.omega_K
    decay = 2 * (math.sqrt(3) / 2) ** (t * F.degree)
    total = sum(stirling2(n, m) * (1 + w) ** ((n - m) * m) for m in range(1, n + 1))
    try:
        return total * decay
    except OverflowError:
        raise ValueError("the torsion tail is not a finite float") from None
