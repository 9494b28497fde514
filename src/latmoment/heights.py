"""Heights of field elements, tuples, projective points and row spaces.

Covers the logarithmic height of a single element, the sup-height of a
tuple, l2 and l-infinity projective heights, the Pluecker embedding with
its induced subspace height, the covolume of the row lattice O_K^m D as
the norm of one Hermitian determinant over K (with the integrality
index, the second route to the subspace height), the integrality defect
M(x), and truncated height zeta sums over rational projective space.

Real-valued heights here are floats built from 100-bit embeddings; their
relative error is a few ulp, far below every tolerance used downstream.
All rational subfactors (ideal norms, lattice indices) are exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Sequence

from .numberfield import (
    ElementTuple,
    FieldElement,
    NumberField,
    Rational,
    _embed_rows,
    abs_norm,
    conjugates,
    denominator_norm,
    enumerate_torsion,
    frak_D,
    row_reduce,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ProjPoint",
    "RredMatrix",
    "ValueInterval",
    "rred_matrix",
    "weil_height",
    "h_infty",
    "proj_height_l2",
    "proj_height_linf",
    "plucker",
    "gr_height_factors",
    "det_lattice",
    "M_invariant",
    "height_gap_rhs",
    "enumerate_p1_rationals",
    "height_zeta_truncated",
]


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class ProjPoint:
    """A point of projective space over the field: a nonzero coordinate tuple,
    with rational coordinates taken into the field.

    Heights computed from it are invariant under scaling the tuple by any
    nonzero field element.
    """

    field: NumberField
    coords: ElementTuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(map(self.field.coerce, self.coords)))
        if not any(self.coords):
            raise ValueError("projective point needs a nonzero coordinate")

    @cached_property
    def ideal_norm(self) -> Fraction:
        """Exact norm of the fractional ideal generated by the coordinates.

        With x_k a nonzero coordinate, <x> = x_k <1, x / x_k>, so
        N(<x>) = |N(x_k)| / D(x / x_k).  x_k is a coordinate equal to 1 when
        there is one (every Pluecker point has one), so nothing is
        inverted; otherwise it is the first nonzero coordinate.
        """
        F = self.field
        rest = [c for c in self.coords if c]
        if F.one in rest:
            rest.remove(F.one)
            norm = Fraction(1)
        else:
            xk = rest.pop(0)
            norm = abs_norm(F, xk)
            rest = [c / xk for c in rest]
        return norm / denominator_norm(F, rest) if rest else norm

    @cached_property
    def conj_matrix(self) -> np.ndarray:
        """(d, N) complex array of embedding values of the coordinates."""
        return _embed_rows(self.field, [c.floats() for c in self.coords]).T


@dataclass(frozen=True)
class RredMatrix:
    """A full-rank m x n matrix over the field in row-reduced echelon form."""

    field: NumberField
    rows: tuple[ElementTuple, ...]

    def __post_init__(self) -> None:
        F = self.field
        m = len(self.rows)
        if not m:
            raise ValueError("empty matrix")
        n = len(self.rows[0])
        if any(len(r) != n for r in self.rows):
            raise ValueError("ragged matrix")
        last = -1
        for i, row in enumerate(self.rows):
            j = 0
            while j < n and not row[j]:
                j += 1
            if j == n:
                raise ValueError("zero row; matrix must have full rank")
            if row[j] != F.one:
                raise ValueError("pivot entries must be exactly 1")
            if j <= last:
                raise ValueError("pivot columns must strictly increase")
            for k in range(m):
                if k != i and self.rows[k][j]:
                    raise ValueError("pivot columns must be cleared above and below")
            last = j

    @cached_property
    def _ints(self) -> tuple[list[list[tuple[int, ...] | None]], int]:
        """Each row over the lcm of its denominators: the integer numerator
        vectors of its entries (None for zero), and the product of those
        lcms, which is the denominator of every maximal minor."""
        rows, den = [], 1
        for row in self.rows:
            L = math.lcm(*(e.den for e in row))
            den *= L
            rows.append([(e.num if e.den == L else tuple([c * (L // e.den) for c in e.num]))
                         if any(e.num) else None for e in row])
        return rows, den


def rred_matrix(F: NumberField, rows: Sequence[Sequence[FieldElement | Rational]]) -> RredMatrix:
    """Row-reduce an arbitrary full-rank matrix over F into an RredMatrix."""
    rows = list(rows)
    red = row_reduce(F, rows)
    if len(red) < len(rows):
        raise ValueError("matrix must have full row rank")
    return RredMatrix(F, tuple(tuple(r) for r in red))


@dataclass(frozen=True)
class ValueInterval:
    lo: float
    hi: float


# ---------------------------------------------------------------------------
# element and tuple heights


def weil_height(F: NumberField, alpha: FieldElement) -> float:
    """Logarithmic height: (1/d)(sum_sigma log+ |sigma(alpha)| + log D(alpha)).

    Zero exactly on the roots of unity (up to float rounding of the
    archimedean part).
    """
    if not alpha:
        raise ValueError("height of zero is undefined")
    conj = conjugates(F, alpha)
    return _heights_from_conjugates(F, conj[None], [denominator_norm(F, [alpha])])[0]


def _heights_from_conjugates(F: NumberField, conj: np.ndarray, Ds: Sequence[int]) -> list[float]:
    # weil_height of N elements from their (N, d) embedding values and their D
    import numpy as np
    arch = np.log(np.maximum(np.abs(conj), 1.0)).sum(axis=1).tolist()
    return [(a + math.log(D)) / F.degree for a, D in zip(arch, Ds)]


def h_infty(F: NumberField, alphas: Sequence[FieldElement]) -> float:
    """Sup-height of a tuple: (1/d) sum_sigma log max_j max(1, |sigma(alpha_j)|)."""
    alphas = list(alphas)
    if not alphas:
        raise ValueError("empty tuple")
    import numpy as np
    mat = np.abs(_embed_rows(F, [F.coerce(a).floats() for a in alphas]))  # (N, d)
    per_embedding = np.maximum(mat.max(axis=0), 1.0)
    return float(np.sum(np.log(per_embedding))) / F.degree


# ---------------------------------------------------------------------------
# projective heights


def proj_height_l2(x: ProjPoint) -> float:
    """l2 projective height: prod_sigma sqrt(sum_j |sigma x_j|^2) / N(<x>)."""
    import numpy as np
    mat = x.conj_matrix
    sums = np.sum(np.abs(mat) ** 2, axis=1)
    return float(np.prod(np.sqrt(sums))) / float(x.ideal_norm)


def proj_height_linf(x: ProjPoint) -> float:
    """l-infinity projective height: prod_sigma max_j |sigma x_j| / N(<x>)."""
    import numpy as np
    mat = x.conj_matrix
    return float(np.prod(np.max(np.abs(mat), axis=1))) / float(x.ideal_norm)


@lru_cache(maxsize=64)
def _expansion_plan(n: int, m: int) -> tuple[tuple[tuple[tuple[int, bool, int], ...], ...], ...]:
    """The Laplace expansions behind _minors for an m x n matrix: level s
    (s = 2..m) lists, per s-subset of the columns in lexicographic order,
    a triple (column j, negated, position at level s - 1 of the subset
    less j) per j in the subset; level 1 is the last row itself.  Keyed by
    the shape; at most 64 shapes, each of at most 2^n subsets, are kept."""
    plan = []
    index = {(j,): j for j in range(n)}
    for size in range(2, m + 1):
        level, nxt = [], {}
        for k, subset in enumerate(itertools.combinations(range(n), size)):
            nxt[subset] = k
            level.append(tuple((j, t % 2 == 1, index[subset[:t] + subset[t + 1:]])
                               for t, j in enumerate(subset)))
        plan.append(tuple(level))
        index = nxt
    return tuple(plan)


def _minors(F: NumberField, rows: Sequence[Sequence[Sequence[int] | None]]) -> list[tuple[int, ...]]:
    """The maximal minors of an m x n matrix of integer coordinate vectors
    (None for zero), by column subset in lexicographic order.

    They are built bottom-up with nothing inverted: the minor of rows i..
    on a column subset S is the Laplace expansion along row i over the
    minors of rows i+1.. on S less one column (_expansion_plan).
    """
    mul = F._mul_int
    below = list(rows[-1])
    for ints, level in zip(rows[-2::-1], _expansion_plan(len(rows[0]), len(rows))):
        minors = []
        for terms in level:
            acc = None
            for j, neg, k in terms:
                a, sub = ints[j], below[k]
                if a is None or sub is None:
                    continue
                p = mul(a, sub)
                if acc is None:
                    acc = [-x for x in p] if neg else p
                elif neg:
                    acc = [x - y for x, y in zip(acc, p)]
                else:
                    acc = [x + y for x, y in zip(acc, p)]
            minors.append(acc if acc is not None and any(acc) else None)
        below = minors
    zero = (0,) * F.degree
    return [x if x is not None else zero for x in below]


def plucker(D: RredMatrix) -> ProjPoint:
    """Pluecker coordinates: the m x m minors over column subsets in
    lexicographic order, expanded on the rows scaled to integer numerators,
    with the product of the row denominators divided out at the end.  The
    pivot-column minor is exactly 1."""
    F = D.field
    rows, den = D._ints
    return ProjPoint(F, tuple(F._reduced(num, den) for num in _minors(F, rows)))


def det_lattice(D: RredMatrix) -> float:
    """Covolume of O_K^(1 x m) D inside K_R^(1 x n), O_K of unit covolume.

    Every supported field is totally real or CM, so complex conjugation
    commutes with every embedding, and the covolume is
    sqrt |N_K/Q(det(D conj(D)^T))|: one m x m Hermitian determinant over K
    and one norm.  D conj(D)^T comes from the rows of D scaled as in
    plucker (its determinant gains den^2), not from the Pluecker point, so
    covolume times integrality index is a second route to the subspace
    height.  The t-copy covolume is this value to the power t.
    """
    F = D.field
    conj, mul = F._conj_int, F._mul_int
    rows, den = D._ints
    bars = [[conj(a) if a else None for a in row] for row in rows]
    herm = [[None] * len(rows) for _ in rows]
    for i, j in itertools.combinations_with_replacement(range(len(rows)), 2):
        acc = None
        for a, b in zip(rows[i], bars[j]):
            if a and b:
                p = mul(a, b)
                acc = p if acc is None else [x + y for x, y in zip(acc, p)]
        if acc is not None and any(acc):
            herm[i][j], herm[j][i] = acc, conj(acc)
    (det,) = _minors(F, herm)
    return math.sqrt(abs_norm(F, F._reduced(det, den * den)))


@dataclass(frozen=True)
class GrHeightFactors:
    """The two independent routes to the subspace height, side by side: the
    l2 height of the Pluecker point, and the covolume of O_K^m D from the
    rows of D times the integrality index."""

    height: float         # l2 height of the Pluecker point
    covolume: float       # det_lattice(D), by the norm of det(D conj(D)^T)
    index: int            # frak_D(D)
    product: float        # covolume * index
    norm_index_product: Fraction  # N(<Pluecker coords>) * frak_D(D); 1 for rref D


def gr_height_factors(D: RredMatrix) -> GrHeightFactors:
    p = plucker(D)
    h = proj_height_l2(p)
    cov = det_lattice(D)
    idx = frak_D(D.field, D)
    return GrHeightFactors(
        height=h,
        covolume=cov,
        index=idx,
        product=cov * idx,
        norm_index_product=p.ideal_norm * idx,
    )


# ---------------------------------------------------------------------------
# the integrality defect and the height gap


def M_invariant(x: ProjPoint) -> Fraction:
    """prod_j N(x_j) / N(<x>)^N: zero when a coordinate vanishes, otherwise
    a positive integer; equal to 1 only when the coordinates generate equal
    ideals (unit multiples of one another)."""
    F = x.field
    prod = Fraction(1)
    for c in x.coords:
        if not c:
            return Fraction(0)
        prod *= abs_norm(F, c)
    out = prod / x.ideal_norm ** len(x.coords)
    if out.denominator != 1 or out < 1:
        raise RuntimeError(f"M(x) = {out} is not a positive integer")
    return out


def height_gap_rhs(x: ProjPoint) -> float:
    """The lower-bound expression for H(x)^2 built from H_W(x) and M(x):

        (H_W^(2/d) + (N-1) M^(2/(d(N-1))) / H_W^(2/(d(N-1))))^d

    with the second term read as 0 when N = 1 or M(x) = 0.  Callers can
    check H(x)^2 >= this on any point; it is an equality for coprime
    integer pairs over the rationals.
    """
    F = x.field
    d = F.degree
    N = len(x.coords)
    hw = proj_height_linf(x)
    M = M_invariant(x)
    if N == 1 or M == 0:
        return hw ** 2
    expo = 2.0 / (d * (N - 1))
    term = (N - 1) * float(M) ** expo / hw ** expo
    return (hw ** (2.0 / d) + term) ** d


# ---------------------------------------------------------------------------
# counting and truncated zeta sums over rational projective space


def enumerate_p1_rationals(T: float) -> int:
    """Exact count of points of the rational projective line with l2 height
    at most T: coprime pairs (a, b), a^2 + b^2 <= T^2, up to sign."""
    if T < 1:
        raise ValueError("T must be at least 1")
    return _primitive_sum(2, T * T, 0.0)[1]


def _primitive_sum(n: int, T2: float, t: float) -> tuple[float, int]:
    """Sum of (l2 height)^(-t) and count over primitive integer vectors of
    length n, norm^2 <= T2, first nonzero coordinate positive."""
    bound = math.isqrt(int(T2))
    total = 0.0
    count = 0

    def rec(idx: int, seen: bool, g: int, s: int) -> None:
        nonlocal total, count
        if idx == n:
            if seen and g == 1:
                total += s ** (-t / 2)
                count += 1
            return
        lo = 0 if not seen else -bound
        for v in range(lo, bound + 1):
            s2 = s + v * v
            if s2 > T2:
                if v > 0:
                    break
                continue
            rec(idx + 1, seen or v != 0, math.gcd(g, abs(v)), s2)

    rec(0, False, 0, 0)
    return total, count


def height_zeta_truncated(
    F: NumberField, n: int, t: float, T: float, C2: float
) -> ValueInterval:
    """Partial height zeta sum over the rational projective (n-1)-space up to
    height T, with the Abel-summation tail window attached.

    The tail constant C2 is caller supplied (the counting constants are not
    pinned down by the source material); the returned interval is
    [partial, partial + C2 T^(n-t) + t C2 T^(n-t)/(t-n)], rigorous given a
    valid C2.  Supported over the rationals with one-dimensional spaces
    (projective points) only.
    """
    if F.kind != "rational":
        raise ValueError("truncated height zeta sums are enumerated over Q only")
    if n < 2:
        raise ValueError("ambient dimension must be at least 2")
    if t < n + 1:
        raise ValueError(f"exponent t must be at least n + 1 = {n + 1}")
    if T < 1:
        raise ValueError("cutoff T must be at least 1")
    partial, _ = _primitive_sum(n, T * T, t)
    tail = C2 * T ** (n - t) + t * C2 * T ** (n - t) / (t - n)
    return ValueInterval(partial, partial + tail)
