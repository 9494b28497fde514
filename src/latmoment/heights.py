"""Heights of field elements, tuples, projective points and row spaces:
the logarithmic and sup heights, l2 and l-infinity projective heights,
the Pluecker subspace height, the covolume of the row lattice O_K^m D
(times the integrality index, a second route to the subspace height),
the integrality defect M(x), and truncated height zeta sums over Q.

Real heights are floats from 100-bit embeddings, a few ulp off; ideal
norms and lattice indices are exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Sequence

from .numberfield import (
    Echelon,
    ElementTuple,
    FieldElement,
    NumberField,
    Rational,
    _denominator_norm_int,
    _echelon,
    _echelon_rows,
    _embed_rows,
    abs_norm,
    conjugates,
    denominator_norm,
    enumerate_torsion,
    frak_D,
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
        """Exact norm of the ideal the coordinates generate: <x> =
        x_k <1, x / x_k>, so N(<x>) = |N(x_k)| / D(x / x_k), at a coordinate
        x_k = 1 if there is one (nothing inverted), else the first nonzero."""
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


class RredMatrix:
    """A full-rank m x n matrix over the field in reduced row echelon form,
    held as its integer echelon `_ints` (numberfield._echelon), which the
    heights read; `rows`, its elements, are built when first read.
    RredMatrix(F, rows) checks that rows are their own rref; rred_matrix
    passes on the echelon its reduction holds."""

    def __init__(self, field: NumberField, rows: Sequence[Sequence[FieldElement]]) -> None:
        rows = tuple(map(tuple, rows))
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                if type(e) is not FieldElement or e.field is not field:
                    raise ValueError(f"entry ({i}, {j}) = {e!r} is not an element of {field.descriptor}")
        self.field, self._ints = field, _echelon(field, rows)
        if self.rows != rows:
            raise ValueError("rows must be a full-rank matrix in reduced row echelon form")

    @classmethod
    def _of_echelon(cls, field: NumberField, echelon: Echelon) -> RredMatrix:
        D = cls.__new__(cls)
        D.field, D._ints = field, echelon
        return D

    @cached_property
    def rows(self) -> tuple[ElementTuple, ...]:
        return tuple(map(tuple, _echelon_rows(self.field, self._ints)))

    def __eq__(self, other: object) -> bool:
        return type(other) is RredMatrix and (self.field, self.rows) == (other.field, other.rows)

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"RredMatrix({self.field!r}, {self.rows!r})"


def rred_matrix(F: NumberField, rows: Sequence[Sequence[FieldElement | Rational]]) -> RredMatrix:
    """Row-reduce an arbitrary full-rank matrix over F into an RredMatrix."""
    rows = list(rows)
    echelon = _echelon(F, rows)
    if len(echelon[0]) < len(rows):
        raise ValueError("matrix must have full row rank")
    return RredMatrix._of_echelon(F, echelon)


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
    return _height_l2(x.conj_matrix, float(x.ideal_norm))


def _height_l2(conj: np.ndarray, norm: float) -> float:
    # the l2 height from the (d, N) embedding values and the ideal norm
    import numpy as np
    sums = np.sum(np.abs(conj) ** 2, axis=1)
    return float(np.prod(np.sqrt(sums))) / norm


def proj_height_linf(x: ProjPoint) -> float:
    """l-infinity projective height: prod_sigma max_j |sigma x_j| / N(<x>)."""
    import numpy as np
    mat = x.conj_matrix
    return float(np.prod(np.max(np.abs(mat), axis=1))) / float(x.ideal_norm)


@lru_cache(maxsize=64)
def _expansion_plan(n: int, m: int) -> tuple[tuple[tuple[tuple[int, bool, int], ...], ...], ...]:
    """The Laplace expansions behind _minors for an m x n matrix: level s
    (s = 2..m) lists, per s-subset of the columns in lexicographic order,
    (column j, negated, position at level s - 1 of the subset less j) per
    j in it.  At most 64 shapes are kept, each of at most 2^n subsets."""
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
    (None for zero), by column subset in lexicographic order, bottom-up:
    the minor of rows i.. on S expands along row i over the minors of rows
    i+1.. on S less one column (_expansion_plan)."""
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
    """Pluecker coordinates: the m x m minors by column subset in
    lexicographic order, of the integer rows over the product of their
    denominators; the pivot-column minor is exactly 1."""
    F = D.field
    rows, dens = D._ints
    den = math.prod(dens)
    return ProjPoint(F, tuple(F._reduced(num, den) for num in _minors(F, rows)))


def det_lattice(D: RredMatrix) -> float:
    """Covolume of O_K^(1 x m) D inside K_R^(1 x n), O_K of unit covolume.

    Every supported field is totally real or CM, so conjugation commutes
    with every embedding and the covolume is sqrt |N(det(D conj(D)^T))|.
    D conj(D)^T comes from the integer rows of D (its determinant gains
    den^2), not from the Pluecker point, so covolume times integrality
    index is a second route to the subspace height.
    """
    F = D.field
    conj, mul = F._conj_int, F._mul_int
    rows, dens = D._ints
    bars = [[conj(a) if a else None for a in row] for row in rows] if F.signature[1] else rows
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
    # an int over an int divides correctly rounded, as float(Fraction) does
    return math.sqrt(F._abs_norm_int(det) / math.prod(dens) ** (2 * F.degree))


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
    """Both routes from the integer rows of D.  The Pluecker coordinates are
    the integer minors over den, the product of the row denominators: their
    floats are minor/den, correctly rounded as x.floats() is, and their
    ideal has norm 1 / D(minors/den), as one is den/den = 1."""
    F = D.field
    rows, dens = D._ints
    den = math.prod(dens)
    minors = _minors(F, rows)
    inverse_norm = _denominator_norm_int(F, minors, den)
    cov = det_lattice(D)
    idx = frak_D(F, D)
    return GrHeightFactors(
        height=_height_l2(_embed_rows(F, [c / den for x in minors for c in x]).T, 1 / inverse_norm),
        covolume=cov,
        index=idx,
        product=cov * idx,
        norm_index_product=Fraction(idx, inverse_norm),
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
    """Partial height zeta sum over rational projective (n-1)-space up to
    height T, with the Abel-summation tail window: the interval [partial,
    partial + C2 T^(n-t) + t C2 T^(n-t)/(t-n)], rigorous for a valid
    caller-supplied C2 (the source does not pin the counting constants).
    Over Q, for projective points only.
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
