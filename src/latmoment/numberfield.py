"""Exact arithmetic for the supported base fields: the rationals, quadratic
fields Q(sqrt D), and cyclotomic fields Q(zeta_n).

Elements are integer numerator vectors over a fixed integral basis (a power
basis in all three cases) with one positive common denominator, so norms,
traces, ideal norms and lattice indices are computed in integer arithmetic
without floating point (Cohen, GTM 138, sections 2.4 and 4.7).  Complex
embeddings are held at 100 bits and rounded to complex128 for the numeric
layers.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import TYPE_CHECKING, Sequence

import mpmath

if TYPE_CHECKING:
    import numpy as np

    from .heights import RredMatrix

__all__ = [
    "NumberField",
    "FieldElement",
    "rational_field",
    "quadratic_field",
    "cyclotomic_field",
    "make_field",
    "conjugates",
    "abs_norm",
    "denominator_norm",
    "frak_D",
    "enumerate_torsion",
    "fundamental_unit",
]

_EMBED_BITS = 100

Rational = int | Fraction
_EXACT = (int, Fraction)


# ---------------------------------------------------------------------------
# integer / polynomial helpers


def _factorize(n: int) -> dict[int, int]:
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    out: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _is_squarefree(n: int) -> bool:
    return all(e == 1 for e in _factorize(abs(n)).values())


def _poly_exact_div(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Exact division of integer polynomials, ascending coefficients, den monic."""
    if den[-1] != 1:
        raise RuntimeError("divisor polynomial must be monic")
    work = list(num)
    dd = len(den) - 1
    out = [0] * (len(work) - dd)
    for i in range(len(out) - 1, -1, -1):
        c = work[i + dd]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                work[i + j] -= c * dj
    if any(work):
        raise RuntimeError("polynomial division was not exact")
    return out


@cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial.

    Computed by exactly dividing x^n - 1 by the polynomials of the proper
    divisors of n; integer arithmetic throughout.
    """
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_exact_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _span_size_mod(q: int, rows: Sequence[Sequence[int]], ncols: int) -> int:
    """The number of vectors of (ZZ/q)^ncols in the span of the integer
    rows: q^ncols over the index of q ZZ^ncols + span, which divides it."""
    size, rem = divmod(q**ncols, _index_mod(q, rows, ncols))
    if rem:
        raise RuntimeError("lattice index must divide q^ncols")
    return size


def _index_mod(q: int, rows: Sequence[Sequence[int]], ncols: int) -> int:
    """[ZZ^ncols : q ZZ^ncols + ZZ-span of the integer rows], for q >= 1.

    The index is the gcd of the maximal minors of the rows stacked on q I.
    In one column that is gcd(q, rows); in two it is the gcd of q times
    gcd(q, all entries) with the 2 x 2 minors of the rows.  Beyond that it
    is the product of the echelon pivots, found modulo q because the
    lattice contains q ZZ^ncols (Cohen, GTM 138, Algorithm 2.4.8).  Column
    by column, extended gcds merge the rows that meet the column into one
    pivot row p; the pivot is g = gcd(q, p_0), and (q/g) p, which is 0 in
    that column modulo q, joins the rows left for the next columns.  Each
    row drops its leading column once that column is done.
    """
    # 98% of calls have 1 or 2 columns; there the closed forms take about half the echelon's time
    if ncols == 1:
        return math.gcd(q, *(r[0] for r in rows))
    if ncols == 2:
        g = math.gcd(q, *(c for r in rows for c in r))
        return math.gcd(q * g, *(a[0] * b[1] - a[1] * b[0] for a, b in itertools.combinations(rows, 2)))
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


def _field_conductor(n: int) -> int:
    """The least conductor of Q(zeta_n): n = 2 mod 4 gives the field of
    n/2, and the fields of n <= 2 are Q, of conductor 1."""
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    if n % 4 == 2:
        n //= 2
    return n if n > 2 else 1


# ---------------------------------------------------------------------------
# fields


class NumberField:
    """One field of the supported family, with its integral power basis.

    The basis is 1 for the rationals; {1, g} with g = sqrt(D) (or
    g = (1+sqrt(D))/2 when D = 1 mod 4) for quadratic fields; and
    {1, g, ..., g^(d-1)} with g = zeta_n for cyclotomic fields.  In every
    case g is an algebraic integer whose monic minimal polynomial has
    integer coefficients, so products of basis elements have integer
    coordinates.  Instances are immutable and cached; identity comparison
    is field equality.  The construction invariants (degree, signature,
    discriminant against the trace forms, torsion order, embeddings) are
    checked by the test suite for every field it and the benchmark build.
    """

    def __init__(self, kind: str, *, D: int | None = None, conductor: int | None = None) -> None:
        self.kind = kind
        self.D = D
        self.conductor = conductor
        if kind == "rational":
            self.degree = 1
            self.min_poly: tuple[int, ...] = (0, 1)
            self.signature = (1, 0)
            self.disc = 1
            self.omega_K = 2
            self.descriptor = "Q"
        elif kind == "quadratic":
            if D is None or D in (0, 1) or not _is_squarefree(D):
                raise ValueError(f"quadratic fields need squarefree D not 0 or 1, got {D!r}")
            self.degree = 2
            if D % 4 == 1:
                self.min_poly = (-((D - 1) // 4), -1, 1)
                self.disc = D
            else:
                self.min_poly = (-D, 0, 1)
                self.disc = 4 * D
            self.signature = (2, 0) if D > 0 else (0, 1)
            self.omega_K = 4 if D == -1 else 6 if D == -3 else 2
            self.descriptor = f"Q(sqrt,{D})"
        elif kind == "cyclotomic":
            if conductor is None or conductor < 3 or conductor % 4 == 2:
                raise ValueError(f"need a conductor >= 3 and not 2 mod 4, got {conductor!r}")
            n = conductor
            self.min_poly = cyclotomic_polynomial(n)
            d = len(self.min_poly) - 1
            self.degree = d
            self.signature = (0, d // 2)
            num = n**d
            den = 1
            for p in _factorize(n):
                den *= p ** (d // (p - 1))
            self.disc = (num // den) * (-1 if (d // 2) % 2 else 1)
            self.omega_K = n if n % 2 == 0 else 2 * n
            self.descriptor = f"Q(zeta,{n})"
        else:
            raise ValueError(f"unsupported field kind: {kind!r}")
        r1, r2 = self.signature
        self._gen_pow_d = tuple(-c for c in self.min_poly[:-1])  # coordinates of g^d
        self.abs_discriminant = abs(self.disc)
        self.unit_rank = r1 + r2 - 1

    # -- basic elements

    def element(self, coords: Sequence[Rational]) -> FieldElement:
        # ints and Fractions are exact as they are; Fraction converts and
        # checks anything else
        cs = [c if type(c) in _EXACT else Fraction(c) for c in coords]
        if len(cs) != self.degree:
            raise ValueError(f"expected {self.degree} coordinates, got {len(cs)}")
        den = math.lcm(*(c.denominator for c in cs))
        # over the lcm of the reduced denominators the numerators are coprime to it
        return FieldElement(self, tuple(c.numerator * (den // c.denominator) for c in cs), den)

    def from_rational(self, q: Rational) -> FieldElement:
        q = Fraction(q)
        return FieldElement(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    def coerce(self, x: FieldElement | Rational) -> FieldElement:
        """x as an element of this field: an element of it as it is, a
        rational through from_rational; an element of another field raises."""
        if isinstance(x, FieldElement):
            if x.field is not self:
                raise ValueError("elements belong to different fields")
            return x
        return self.from_rational(x)

    def _reduced(self, num: Sequence[int], den: int) -> FieldElement:
        """The element num/den (den nonzero) in lowest terms."""
        g = math.gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            return FieldElement(self, tuple(c // g for c in num), den // g)
        return FieldElement(self, tuple(num), den)

    @cached_property
    def zero(self) -> FieldElement:
        return self.from_rational(0)

    @cached_property
    def one(self) -> FieldElement:
        return self.from_rational(1)

    @cached_property
    def gen(self) -> FieldElement:
        if self.degree == 1:
            return self.zero
        return FieldElement(self, (0, 1) + (0,) * (self.degree - 2), 1)

    # -- multiplication structure

    def _mul_int(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of the product of two integer coordinate vectors: a
        convolution whose powers g^(2d-2) .. g^d are folded down by g^d."""
        d = self.degree
        top = self._gen_pow_d
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

    def _mul_rows(self, a: Sequence[int]) -> list[list[int]]:
        """Row k holds the integer coordinates of a * g^k: the transpose of
        the matrix of multiplication by a.  Each row is the one before times
        g, a shift with the overflow reduced by g^d."""
        top = self._gen_pow_d
        v = list(a)
        rows = [v]
        for _ in range(1, self.degree):
            over = v[-1]
            v = [over * top[0]] + [x + over * t for x, t in zip(v, top[1:])]
            rows.append(v)
        return rows

    def _charpoly(self, a: Sequence[int]) -> tuple[list[tuple[int, ...]], list[int]]:
        """For an integer vector a: the powers a^0 .. a^(d-1) and the
        elementary symmetric functions e_0 .. e_d of its conjugates, so the
        characteristic polynomial is sum_k (-1)^k e_k X^(d-k) and e_d = N(a).
        The e_k come from the power sums Tr(a^k), k <= d, by Newton's
        identities k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) Tr(a^i); every
        division is exact because a is an algebraic integer."""
        d = self.degree
        powers = [(1,) + (0,) * (d - 1), tuple(a)]
        while len(powers) <= d:
            powers.append(self._mul_int(powers[-1], a))
        p = self._power_traces
        s = [sum(c * t for c, t in zip(v, p)) for v in powers[1:]]  # Tr(a^i), i = 1..d
        e = [1]
        for k in range(1, d + 1):
            # pairs e_(k-i) with Tr(a^i) for i = 1..k
            e.append(sum((-1) ** i * x * y for i, (x, y) in enumerate(zip(reversed(e), s))) // k)
        return powers[:d], e

    def _abs_norm_int(self, num: Sequence[int]) -> int:
        """|N(num)| for an integer vector num.  Up to degree 2 this is the
        norm form: |p| over Q, |p^2 + e p q - f q^2| for the basis {1, w}
        with w^2 = e w + f; above that the last _charpoly coefficient."""
        if self.degree == 1:
            return abs(num[0])
        if self.degree == 2:
            p, q = num
            return abs(p * p - self.min_poly[1] * p * q + self.min_poly[0] * q * q)
        return abs(self._charpoly(num)[1][-1])

    def _inverse(self, x: FieldElement) -> FieldElement:
        """x^-1 by Cayley-Hamilton on the numerator a = den * x:
        a * sum_{k<d} (-1)^k e_k a^(d-1-k) = (-1)^(d+1) e_d."""
        if not x:
            raise ZeroDivisionError("field element is zero")
        d = self.degree
        powers, e = self._charpoly(x.num)
        if not e[d]:
            raise RuntimeError("the norm is zero; minimal polynomial is reducible")
        coeffs = [(-1) ** k * x.den * e[k] for k in range(d)]
        num = [sum(c * v for c, v in zip(coeffs, col)) for col in zip(*reversed(powers))]
        return self._reduced(num, (-1) ** (d + 1) * e[d])

    # -- traces, involution, embeddings

    @cached_property
    def _power_traces(self) -> tuple[int, ...]:
        """Tr(g^k) for k = 0..2d-2 via Newton's identities."""
        d, f = self.degree, self.min_poly
        p = [d]
        for k in range(1, 2 * d - 1):
            s = -k * f[d - k] if k <= d else 0
            for i in range(1, min(k - 1, d) + 1):
                s -= f[d - i] * p[k - i]
            p.append(s)
        return tuple(p)

    @cached_property
    def _invol_rows(self) -> tuple[tuple[int, ...], ...]:
        """Integer coordinates of conj(g)^k, k < d, in a field with complex places."""
        if self.kind == "quadratic":
            cg = self.element((1, -1)) if self.D % 4 == 1 else self.element((0, -1))
        else:
            cg = self.gen ** (self.conductor - 1)
        rows = [self.one]
        for _ in range(1, self.degree):
            rows.append(rows[-1] * cg)
        if any(r.den != 1 for r in rows):
            raise RuntimeError("conjugate powers of the generator must be integral")
        return tuple(r.num for r in rows)

    def _conj_int(self, num: Sequence[int]) -> list[int]:
        """Integer coordinates of the involution of the integer vector num."""
        if not self.signature[1]:
            return list(num)  # totally real: the identity
        out = [0] * self.degree
        for c, row in zip(num, self._invol_rows):
            if c:
                out = [x + c * r for x, r in zip(out, row)]
        return out

    @cached_property
    def embeddings_mp(self) -> tuple[mpmath.mpc, ...]:
        """Images of the basis generator, conjugate pairs adjacent, 100 bits."""
        with mpmath.workprec(_EMBED_BITS):
            if self.kind == "rational":
                vals = [mpmath.mpc(0)]
            elif self.kind == "quadratic":
                s = mpmath.sqrt(abs(self.D))
                if self.D > 0:
                    if self.D % 4 == 1:
                        vals = [(1 + s) / 2, (1 - s) / 2]
                    else:
                        vals = [s, -s]
                else:
                    g = (1 + mpmath.mpc(0, 1) * s) / 2 if self.D % 4 == 1 else mpmath.mpc(0, 1) * s
                    vals = [g, mpmath.conj(g)]
            else:
                n = self.conductor
                vals = []
                for k in range(1, (n + 1) // 2):
                    if math.gcd(k, n) == 1:
                        e = mpmath.exp(2j * mpmath.pi * k / n)
                        vals.extend([e, mpmath.conj(e)])
            return tuple(mpmath.mpc(v) for v in vals)

    @cached_property
    def embed_matrix(self) -> np.ndarray:
        """(d, d) complex matrix: row i, column j holds sigma_i(g^j)."""
        import numpy as np
        d = self.degree
        with mpmath.workprec(_EMBED_BITS):
            rows = []
            for v in self.embeddings_mp:
                acc = mpmath.mpc(1)
                row = []
                for _ in range(d):
                    row.append(complex(acc))
                    acc *= v
                rows.append(row)
        return np.array(rows, dtype=complex)

    @cached_property
    def places(self) -> tuple[tuple[int, int], ...]:
        """(embedding row, multiplicity e) per archimedean place; complex pairs
        are adjacent in the embedding order, so the representative rows are
        0..r1-1 and then every other row."""
        r1, r2 = self.signature
        out = [(i, 1) for i in range(r1)]
        out.extend((r1 + 2 * j, 2) for j in range(r2))
        return tuple(out)

    @cached_property
    def torsion_generator(self) -> FieldElement:
        if self.kind == "quadratic" and self.D == -1:
            return self.gen
        if self.kind == "quadratic" and self.D == -3:
            return self.gen
        if self.kind == "cyclotomic":
            return self.gen if self.conductor % 2 == 0 else -self.gen
        return self.from_rational(-1)


@cache
def rational_field() -> NumberField:
    return NumberField("rational")


@cache
def quadratic_field(D: int) -> NumberField:
    return NumberField("quadratic", D=D)


@cache
def _cyclotomic_field_cached(n: int) -> NumberField:
    return NumberField("cyclotomic", conductor=n)


def cyclotomic_field(n: int) -> NumberField:
    n = _field_conductor(n)
    return rational_field() if n == 1 else _cyclotomic_field_cached(n)


_DESCRIPTOR_RE = re.compile(r"\s*Q(?:\(\s*(sqrt|zeta)\s*,\s*(-?\d+)\s*\))?\s*$")


def make_field(descriptor: str) -> NumberField:
    """Build a field from the descriptor grammar "Q", "Q(sqrt,D)", "Q(zeta,n)"."""
    m = _DESCRIPTOR_RE.match(descriptor)
    if not m:
        raise ValueError(f"unrecognized field descriptor: {descriptor!r}")
    tag, val = m.groups()
    if tag is None:
        return rational_field()
    if tag == "sqrt":
        return quadratic_field(int(val))
    return cyclotomic_field(int(val))


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True, slots=True)
class FieldElement:
    """num/den over the integral basis: integer numerators, one positive
    denominator, gcd(den, *num) = 1 (so zero is (0, ..., 0)/1).  The
    constructor takes this reduced form as given; NumberField.element and
    the arithmetic produce it."""

    field: NumberField
    num: tuple[int, ...]
    den: int

    def floats(self) -> list[float]:
        """The coordinates, each the correctly rounded float of num/den."""
        return [c / self.den for c in self.num]

    def _coerce(self, other) -> "FieldElement | None":
        # None leaves other operand types to their own methods
        if isinstance(other, (FieldElement, int, Fraction)):
            return self.field.coerce(other)
        return None

    def __bool__(self) -> bool:
        return any(self.num)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.den, o.den
        return self.field._reduced([x * b + y * a for x, y in zip(self.num, o.num)], a * b)

    __radd__ = __add__

    def __neg__(self) -> FieldElement:
        return FieldElement(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.den, o.den
        return self.field._reduced([x * b - y * a for x, y in zip(self.num, o.num)], a * b)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return self.field._reduced([a * q.numerator for a in self.num], self.den * q.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        F = self.field
        return F._reduced(F._mul_int(self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> FieldElement:
        return self.field._inverse(self)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                raise ZeroDivisionError("division by zero")
            return self.field._reduced([a * q.denominator for a in self.num], self.den * q.numerator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, e: int) -> FieldElement:
        if e < 0:
            return self.inverse() ** (-e)
        out = self.field.one
        base = self
        n = e
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    @property
    def is_integral(self) -> bool:
        return self.den == 1


ElementTuple = tuple[FieldElement, ...]


# ---------------------------------------------------------------------------
# operations


def conjugates(F: NumberField, x: FieldElement) -> np.ndarray:
    """All d complex embedding values of x, conjugate pairs adjacent."""
    return _embed_rows(F, [F.coerce(x).floats()])[0]


def _embed_rows(F: NumberField, rows: Sequence[Sequence[float]]) -> np.ndarray:
    """(N, d) embedding values of N elements, given as rows of float
    coordinates (x.floats()).  The stacked product runs one matrix-vector
    product per row, so row i is bit for bit F.embed_matrix @ rows[i]; the
    plain product X @ F.embed_matrix.T can differ in the last bit."""
    import numpy as np
    X = np.array(rows, dtype=float).reshape(-1, F.degree)
    return (F.embed_matrix @ X[:, :, None])[:, :, 0]


def abs_norm(F: NumberField, x: FieldElement) -> Fraction:
    """|N(x)| as an exact rational: |N(den * x)| / den^d, the integer norm
    of the numerator from F._abs_norm_int."""
    x = F.coerce(x)
    return Fraction(F._abs_norm_int(x.num), x.den**F.degree)


def trace_pairing_exact(F: NumberField, x: FieldElement, y: FieldElement) -> Fraction:
    """Tr(x * conj(y)), without the discriminant normalization: the trace
    form Tr(g^k) = F._power_traces[k] on the integer product of the
    numerators, over the product of the denominators."""
    x, y = F.coerce(x), F.coerce(y)
    prod = F._mul_int(x.num, F._conj_int(y.num))
    return Fraction(sum(c * p for c, p in zip(prod, F._power_traces)), x.den * y.den)


def _scaled_mul_rows(F: NumberField, xs: Sequence[FieldElement], den: int) -> list[list[int]]:
    """The rows of den * (x * g^k) for every x and k; den must be a common
    denominator of the xs."""
    out = []
    for x in xs:
        s = den // x.den
        out.extend(F._mul_rows([c * s for c in x.num] if s != 1 else x.num))
    return out


def denominator_norm(F: NumberField, alphas: Sequence[FieldElement]) -> int:
    """D(alpha): the index of O_K inside the ideal generated by 1 and the
    alpha_i; equals 1 exactly when every alpha_i is integral.

    With c a common denominator the ideal is (1/c)(c, c alpha_1, ...), so
    D = c^d / [O_K : (c, c alpha_1, ...)], an index of integer lattices.
    """
    alphas = [F.coerce(a) for a in alphas]
    if not any(alphas):
        raise ValueError("need at least one nonzero coordinate")
    c = math.lcm(*(a.den for a in alphas))
    if c == 1:
        return 1
    return _span_size_mod(c, _scaled_mul_rows(F, alphas, c), F.degree)


def row_reduce(rows: Sequence[Sequence[FieldElement]]) -> list[list[FieldElement]]:
    """Reduced row echelon form over the field, zero rows dropped: pivots
    are exactly 1 and every pivot column is cleared above and below."""
    mat = [list(r) for r in rows]
    if not mat:
        raise ValueError("empty matrix")
    if any(len(r) != len(mat[0]) for r in mat):
        raise ValueError("ragged matrix")
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


def frak_D(F: NumberField, D: RredMatrix) -> int:
    """Index of {C in O_K^(1 x m) : C D is integral} inside O_K^(1 x m).

    Computed exactly as an index of (d*m)-dimensional ZZ-lattices: the
    integrality constraints from the non-integral columns are reduced
    modulo their common denominator q and the image size is read off an
    integer lattice index.  Equals 1 when all entries are integral.
    D is an RredMatrix, whose constructor proved full rank from its pivots.
    """
    rows = [[F.coerce(e) for e in r] for r in D.rows]
    m = len(rows)
    n = len(rows[0])
    d = F.degree
    cols = [j for j in range(n) if not all(rows[i][j].is_integral for i in range(m))]
    if not cols:
        return 1
    q = math.lcm(*(rows[i][j].den for i in range(m) for j in cols))
    # rows indexed by the dm coordinates of C, columns by the d coordinates
    # of each constrained product, scaled by q
    big: list[list[int]] = []
    for i in range(m):
        blocks = [_scaled_mul_rows(F, [rows[i][j]], q) for j in cols]
        for k in range(d):
            big.append([c for block in blocks for c in block[k]])
    return _span_size_mod(q, big, d * len(cols))


def enumerate_torsion(F: NumberField) -> list[FieldElement]:
    """The group of roots of unity, as powers of a fixed generator."""
    g = F.torsion_generator
    out = [F.one]
    x = g
    while x != F.one and len(out) <= F.omega_K:
        out.append(x)
        x = x * g
    if len(out) != F.omega_K:
        raise RuntimeError("torsion count disagrees with omega_K")
    return out


def _floor_quad_surd(P: int, Q: int, sq: int) -> int:
    """floor((P + sqrt(D))/Q) given sq = isqrt(D), D not a square."""
    n = P + sq
    if Q > 0:
        return n // Q
    return -(n // (-Q) + 1)


@cache
def fundamental_unit(F: NumberField) -> FieldElement:
    """The unit > 1 generating the units modulo torsion, for real quadratic
    fields, from the continued fraction of the basis generator."""
    if F.kind != "quadratic" or F.D < 0:
        raise ValueError("fundamental units are produced for real quadratic fields only")
    D = F.D
    sq = math.isqrt(D)
    half = D % 4 == 1
    P, Q = (1, 2) if half else (0, 1)
    h2, h1 = 0, 1
    k2, k1 = 1, 0
    for _ in range(100000):
        a = _floor_quad_surd(P, Q, sq)
        h2, h1 = h1, a * h1 + h2
        k2, k1 = k1, a * k1 + k2
        cand = F.element((h1 - k1, k1)) if half else F.element((h1, k1))
        if cand and abs_norm(F, cand) == 1:
            val = conjugates(F, cand)[0].real
            if val > 1 + 1e-12:
                return cand
        P = a * Q - P
        Q_next, rem = divmod(D - P * P, Q)
        if rem:
            raise RuntimeError("continued fraction step is not exact")
        Q = Q_next
    raise RuntimeError("continued fraction did not close; is D sane?")
