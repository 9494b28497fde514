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

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
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


@lru_cache(maxsize=256)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial: x^n - 1
    divided exactly by those of the proper divisors of n.  The memo keeps
    256 polynomials of phi(n) + 1 small integers: under 2 MB for n <= 1024.
    """
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_exact_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _span_size_mod(q: int, rows: Sequence[Sequence[int]], ncols: int, block: int) -> int:
    """The number of vectors of (ZZ/q)^ncols in the span of the integer
    rows: q^ncols over the index of q ZZ^ncols + span, which divides it."""
    size, rem = divmod(q**ncols, _index_mod(q, rows, ncols, block))
    if rem:
        raise RuntimeError("lattice index must divide q^ncols")
    return size


def _index_mod(q: int, rows: Sequence[Sequence[int]], ncols: int, block: int) -> int:
    """[ZZ^ncols : q ZZ^ncols + ZZ-span of the integer rows], for q >= 1.

    The rows join a Hermite basis of the lattice one at a time, q ZZ^ncols
    at first (Cohen, GTM 138, 2.4.3): basis row i is zero before column i
    with a pivot dividing q there, and the index is the product of the
    pivots.  Entries are kept modulo q.  A new row meets each basis row in
    turn: a multiple of the pivot is subtracted, or an extended gcd merges
    the two.  One column gives gcd(q, rows), two the basis (a, b), (0, c).

    The rows come in runs of block rows.  With block = d they are x, x g,
    .., x g^(d-1) for x in O_K^m, and the lattice is an O_K-module: a row
    that changes nothing lies in it, so do its later multiples by g, and
    the rest of its run is skipped.  Other lattices take block = 1.
    """
    # 98% of calls have 1 or 2 columns, which take closed forms
    if ncols == 1:
        return math.gcd(q, *(r[0] for r in rows))
    if ncols == 2:
        # the Hermite basis (a, b), (0, c) of the lattice, q ZZ^2 at first;
        # each row (x, y) meets (a, b) by an extended gcd in column 0, and
        # what is left of the two in column 1 joins c
        a, b, c = q, 0, q
        for start in range(0, len(rows), block):
            for x, y in rows[start:start + block]:
                k, x = divmod(x, a)
                y -= k * b
                if x:
                    g = math.gcd(a, x)
                    u = pow(a // g, -1, x // g)
                    c = math.gcd(c, (a * y - x * b) // g)
                    b = (u * b + (g - u * a) // x * y) % c
                    a = g
                elif y % c:
                    c = math.gcd(c, y)
                else:
                    break
        return a * c
    # basis row i: pivot piv[i] and the tail after it, None while zero
    piv, tails = [q] * ncols, [None] * ncols
    for start in range(0, len(rows), block):
        for v in rows[start:start + block]:
            v = [c % q for c in v]
            merged = False
            for i, h in enumerate(tails):
                x = v[0]
                if x:
                    a = piv[i]
                    if x % a:
                        # u a + w x = g: row i becomes u row_i + w v, v becomes (a/g) v - (x/g) row_i
                        g = math.gcd(a, x)
                        u = pow(a // g, -1, x // g)
                        w = (g - u * a) // x
                        a, x = a // g, x // g
                        piv[i] = g
                        if h is None:
                            tails[i] = [w * y % q for y in v[1:]]
                            v = [a * y % q for y in v[1:]]
                        else:
                            tails[i] = [(u * z + w * y) % q for z, y in zip(h, v[1:])]
                            v = [(a * y - x * z) % q for z, y in zip(h, v[1:])]
                        merged = True
                    elif h is None:
                        v = v[1:]
                    else:
                        f = x // a
                        v = [(y - f * z) % q for z, y in zip(h, v[1:])]
                else:
                    v = v[1:]
                if not any(v):
                    break
            if not merged:
                break
    return math.prod(piv)


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
    """One field of the supported family, with its integral power basis:
    1 for Q, {1, g} with g = sqrt(D) (or (1+sqrt(D))/2 when D = 1 mod 4)
    for quadratic fields, {1, g, ..., g^(d-1)} with g = zeta_n for
    cyclotomic fields.  g is an algebraic integer with a monic integer
    minimal polynomial, so basis products have integer coordinates.
    Instances are immutable and cached: identity is field equality.  The
    tests check the invariants (degree, signature, discriminant, torsion
    order, embeddings) of every field they and the benchmark build.
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
        pairs = [(c if type(c) in _EXACT else Fraction(c)).as_integer_ratio() for c in coords]
        if len(pairs) != self.degree:
            raise ValueError(f"expected {self.degree} coordinates, got {len(pairs)}")
        den = math.lcm(*[q for _, q in pairs])
        # over the lcm of the reduced denominators the numerators are coprime to it
        return FieldElement(self, tuple([p * (den // q) for p, q in pairs]), den)

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
            return FieldElement(self, tuple([c // g for c in num]), den // g)
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
        """The product of two integer coordinate vectors: up to degree 2
        (a0 + a1 g)(b0 + b1 g) with g^2 = e g + f, above that a convolution
        with g^d .. g^(2d-2) folded down by their coordinates (_fold)."""
        d = self.degree
        if d == 2:
            a0, a1 = a
            b0, b1 = b
            t = a1 * b1
            f, e = self._gen_pow_d
            return (a0 * b0 + f * t, a0 * b1 + a1 * b0 + e * t)
        if d == 1:
            return (a[0] * b[0],)
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for k, bj in enumerate(b, i):
                    conv[k] += ai * bj
        for ck, row in zip(conv[d:], self._fold):
            if ck:
                for j, t in row:
                    conv[j] += ck * t
        return tuple(conv[:d])

    @cached_property
    def _fold(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero coordinates (j, c) of g^k, k = d .. 2d-2: sparse for
        most cyclotomic polynomials (g^k = g^(k-n) for k >= n)."""
        return tuple(tuple((j, c) for j, c in enumerate(v) if c)
                     for v in self._mul_rows(self._gen_pow_d)[:-1])

    def _mul_rows(self, a: Sequence[int]) -> list[Sequence[int]]:
        """Row k holds the coordinates of a * g^k, k < d: each row the one
        before times g, a shift with the overflow reduced by g^d."""
        top = self._gen_pow_d
        if self.degree == 2:
            a0, a1 = a
            return [a, [top[0] * a1, a0 + top[1] * a1]]
        v = list(a)
        rows = [v]
        for _ in range(1, self.degree):
            over = v[-1]
            v = [over * top[0]] + [x + over * t for x, t in zip(v, top[1:])]
            rows.append(v)
        return rows

    def _charpoly(self, a: Sequence[int]) -> tuple[list[tuple[int, ...]], list[int]]:
        """The powers a^0 .. a^(d-1) of an integer vector a and the
        elementary symmetric functions e_0 .. e_d of its conjugates (e_d =
        N(a)), from the power sums Tr(a^i) by Newton's identities
        k e_k = sum_{i<=k} (-1)^(i-1) e_(k-i) Tr(a^i), each division exact."""
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

    def _adjugate(self, a: Sequence[int]) -> tuple[tuple[int, ...], int]:
        """An integer vector b and a nonzero integer n with a * b = n, for a
        nonzero integer vector a: b = 1, n = a0 over Q; b = a0 + e a1 - a1 g
        and n the norm form at degree 2 (g^2 = e g + f); above that
        Cayley-Hamilton, b = sum_{k<d} (-1)^k e_k a^(d-1-k), n = (-1)^(d+1) e_d."""
        d = self.degree
        if d == 2:
            p, q = a
            f, e = self._gen_pow_d
            return (p + e * q, -q), p * p + e * p * q - f * q * q
        if d == 1:
            return (1,), a[0]
        powers, e = self._charpoly(a)
        if not e[d]:
            raise RuntimeError("the norm is zero; minimal polynomial is reducible")
        coeffs = [(-1) ** k * e[k] for k in range(d)]
        adj = tuple(sum(c * v for c, v in zip(coeffs, col)) for col in zip(*reversed(powers)))
        return adj, (-1) ** (d + 1) * e[d]

    def _inverse(self, x: FieldElement) -> FieldElement:
        """x^-1 = den * b / n for the numerator a = den * x, a * b = n."""
        if not x:
            raise ZeroDivisionError("field element is zero")
        adj, n = self._adjugate(x.num)
        return self._reduced([x.den * c for c in adj], n)

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
    def _invol_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero integer coordinates (j, c) of conj(g)^k, k < d, in a
        field with complex places; sparse in a cyclotomic field, where
        conj(g)^k = g^(n-k)."""
        if self.kind == "quadratic":
            cg = self.element((1, -1)) if self.D % 4 == 1 else self.element((0, -1))
        else:
            cg = self.gen ** (self.conductor - 1)
        rows = [self.one]
        for _ in range(1, self.degree):
            rows.append(rows[-1] * cg)
        if not all(r.is_integral for r in rows):
            raise RuntimeError("conjugate powers of the generator must be integral")
        return tuple(tuple((j, c) for j, c in enumerate(r.num) if c) for r in rows)

    def _conj_int(self, num: Sequence[int]) -> list[int]:
        """Integer coordinates of the involution of the integer vector num."""
        if not self.signature[1]:
            return list(num)  # totally real: the identity
        out = [0] * self.degree
        for c, row in zip(num, self._invol_rows):
            if c:
                for j, r in row:
                    out[j] += c * r
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
        # an element is checked by type, not through isinstance's ABC
        # dispatch for Fraction; None leaves other operand types to their
        # own methods
        if type(other) is FieldElement:
            if other.field is not self.field:
                raise ValueError("elements belong to different fields")
            return other
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
        if type(other) is not FieldElement and isinstance(other, (int, Fraction)):
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
        if type(other) is not FieldElement and isinstance(other, (int, Fraction)):
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
    """All d complex embedding values of x, conjugate pairs adjacent: the
    matrix-vector product that _embed_rows runs per row."""
    import numpy as np
    return F.embed_matrix @ np.array(F.coerce(x).floats())


def _embed_rows(F: NumberField, rows: Sequence[Sequence[float]]) -> np.ndarray:
    """(N, d) embedding values of N elements, given as rows of float
    coordinates (x.floats()) or those rows joined.  The stacked product runs
    one matrix-vector product per row, so row i is bit for bit
    F.embed_matrix @ rows[i]; X @ F.embed_matrix.T can differ in the last
    bit.  From degree 4 the bits are numpy's kernel's: rows summed in plain
    order move the last bit of about 70% of Q(zeta,5) and Q(zeta,8)
    elements (no quadratic one) and 3 of the 8 degree-4 golden heights."""
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


def _denominator_norm_int(F: NumberField, nums: Sequence[Sequence[int]], c: int) -> int:
    """D of the elements x/c, integer vectors x over any positive common
    denominator c: c^d / [O_K : (c, x_1, ...)], the ideal (1, x/c) times c."""
    if c == 1:
        return 1
    return _span_size_mod(c, [v for x in nums if any(x) for v in F._mul_rows(x)], F.degree, F.degree)


def denominator_norm(F: NumberField, alphas: Sequence[FieldElement]) -> int:
    """D(alpha): the index of O_K inside the ideal generated by 1 and the
    alpha_i, 1 exactly when every alpha_i is integral."""
    alphas = [F.coerce(a) for a in alphas]
    if not any(alphas):
        raise ValueError("need at least one nonzero coordinate")
    c = math.lcm(*(a.den for a in alphas))
    return _denominator_norm_int(F, [[x * (c // a.den) for x in a.num] for a in alphas], c)


Echelon = tuple[list[list], list[int]]  # integer rows (None for zero), denominators


def _echelon(F: NumberField, rows: Sequence[Sequence[FieldElement | Rational]]) -> Echelon:
    """The reduced row echelon form over F, zero rows dropped, as integer
    rows and their denominators: row i of the rref is the integer vectors
    of row i (None for zero) over dens[i], its pivot entry (dens[i], 0, ..),
    no integer divides all its coordinates, so dens[i] is the lcm of the
    row's denominators.  The rref depends only on the row space, so rows
    are scaled to integer vectors free of a common factor.  A pivot row is
    multiplied by the adjugate b of its pivot a (a b = n, an integer);
    every other row r with entry c in that column becomes n r - c p.
    """
    mat = [[F.coerce(e) for e in r] for r in rows]
    if not mat:
        raise ValueError("empty matrix")
    ncols = len(mat[0])
    if any(len(r) != ncols for r in mat):
        raise ValueError("ragged matrix")
    mul = F._mul_int
    ints = []
    for r in mat:
        L = math.lcm(*[e.den for e in r])
        ints.append([(e.num if e.den == L else [c * (L // e.den) for c in e.num])
                     if any(e.num) else None for e in r])
    pivots: list[tuple[int, int]] = []  # (column, pivot integer) of rows 0 .. rank-1
    for col in range(ncols):
        rank = len(pivots)
        for piv in range(rank, len(ints)):
            if ints[piv][col] is not None:
                break
        else:
            continue
        ints[rank], ints[piv] = ints[piv], ints[rank]
        p = ints[rank]
        adj, n = F._adjugate(p[col])
        p[col] = [n] + [0] * (F.degree - 1)
        for j in range(col + 1, ncols):
            if p[j] is not None:
                p[j] = mul(adj, p[j])
        n = _drop_content(p, col)
        for i, r in enumerate(ints):
            c = r[col]
            if c is None or i == rank:
                continue
            for j, (x, y) in enumerate(zip(r, p)):
                if y is None:
                    if x is not None and n != 1:
                        r[j] = [n * v for v in x]
                elif x is None:
                    r[j] = [-u for u in mul(c, y)]
                elif j != col:
                    w = [n * v - u for v, u in zip(x, mul(c, y))]
                    r[j] = w if any(w) else None
            r[col] = None
            if i < rank:
                pc = pivots[i][0]
                pivots[i] = (pc, _drop_content(r, pc))
            else:
                _drop_content(r, col)
        pivots.append((col, n))
        if len(pivots) == len(ints):
            break
    return ints[:len(pivots)], [n for _, n in pivots]


def _drop_content(row: list, col: int) -> int:
    """Divide the integer vectors of row (None for zero) in place by the gcd
    of their coordinates, signed so that the entry in column col starts
    with a positive coordinate; returns it (0 when that entry is zero)."""
    x = row[col]
    g = math.gcd(*[c for y in row if y is not None for c in y])
    if x is not None and x[0] < 0:
        g = -g
    if g != 1:
        for j, y in enumerate(row):
            if y is not None:
                row[j] = [c // g for c in y]
    return row[col][0] if x is not None else 0


def _echelon_rows(F: NumberField, echelon: Echelon) -> list[list[FieldElement]]:
    """The rref's field elements: each integer vector over its row's denominator."""
    return [[F._reduced(x, n) if x is not None else F.zero for x in r] for r, n in zip(*echelon)]


def row_reduce(F: NumberField, rows: Sequence[Sequence[FieldElement | Rational]]) -> list[list[FieldElement]]:
    """Reduced row echelon form over F, zero rows dropped: pivots exactly 1
    and pivot columns cleared; the elements of _echelon's integer rows."""
    return _echelon_rows(F, _echelon(F, rows))


def frak_D(F: NumberField, D: RredMatrix) -> int:
    """Index of {C in O_K^(1 x m) : C D is integral} inside O_K^(1 x m): an
    index of ZZ-lattices, from the constraints of the non-pivot columns of
    the integer rows D._ints (row x over its n) scaled by q = lcm(n) and
    reduced modulo q.  Rows over 1 and integral columns add nothing."""
    if D.field is not F:
        raise ValueError("elements belong to different fields")
    rows, dens = D._ints
    q, d = math.lcm(*dens), F.degree
    if q == 1:
        return 1
    pivots = {next(j for j, x in enumerate(r) if x is not None) for r in rows}
    cols = [j for j in range(len(rows[0])) if j not in pivots]
    # rows indexed by the dm coordinates of C, columns by the d coordinates
    # of each constrained product
    big: list[list[int]] = []
    for r, n in zip(rows, dens):
        if n > 1:
            out = [[] for _ in range(d)]
            for j in cols:
                x = r[j]
                for row, v in zip(out, F._mul_rows([c * (q // n) for c in x]) if x else [[0] * d] * d):
                    row.extend(v)
            big.extend(out)
    return _span_size_mod(q, big, d * len(cols), d)


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


@lru_cache(maxsize=64)
def fundamental_unit(F: NumberField) -> FieldElement:
    """The unit > 1 generating the units modulo torsion of a real quadratic
    field, from the continued fraction of the basis generator.  The memo
    keeps 64 units, of O(sqrt(D) log D) bits each (the period's length)."""
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
