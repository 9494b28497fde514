"""Exact-arithmetic layer: fields, elements, ideals, indices.

Expected values marked "frozen" were produced by the independent oracles in
this file (exhaustive residue counts, float embedding products, Pell brute
force) and then fixed as literals.
"""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latmoment
from latmoment.numberfield import (
    FieldElement,
    NumberField,
    _index_mod,
    _poly_exact_div,
    abs_norm,
    conjugates,
    cyclotomic_field,
    cyclotomic_polynomial,
    denominator_norm,
    enumerate_torsion,
    frak_D,
    fundamental_unit,
    make_field,
    quadratic_field,
    rational_field,
    row_reduce,
    trace_pairing_exact,
)
from latmoment.heights import plucker, rred_matrix
from latmoment.oracle import _bounded_denominator_elements
from refroutes import FracIdeal, _euler_phi, hnf_rows, ideal_from_generators

ALL_FIELDS = ["Q", "Q(sqrt,-1)", "Q(sqrt,2)", "Q(sqrt,5)", "Q(sqrt,-3)", "Q(zeta,5)", "Q(zeta,8)"]

# every field the test suite and perfbench/workloads.py build
BUILT_FIELDS = [
    "Q",
    "Q(sqrt,-1)", "Q(sqrt,-3)", "Q(sqrt,-5)", "Q(sqrt,-7)",
    "Q(sqrt,2)", "Q(sqrt,3)", "Q(sqrt,5)", "Q(sqrt,6)", "Q(sqrt,7)",
    "Q(sqrt,10)", "Q(sqrt,13)", "Q(sqrt,61)",
    "Q(zeta,3)", "Q(zeta,4)", "Q(zeta,5)", "Q(zeta,7)", "Q(zeta,8)",
    "Q(zeta,9)", "Q(zeta,11)", "Q(zeta,12)", "Q(zeta,15)",
]


def _random_element(F, rng, scale=6, den=4):
    while True:
        x = F.element([Fraction(rng.randint(-scale, scale), rng.randint(1, den)) for _ in range(F.degree)])
        if x:
            return x


# ---------------------------------------------------------------------------
# construction


def test_make_field_rational():
    F = make_field("Q")
    assert (F.degree, F.abs_discriminant, F.omega_K, F.unit_rank) == (1, 1, 2, 0)


def test_make_field_cyclotomic_5():
    F = make_field("Q(zeta,5)")
    assert F.degree == 4
    assert F.signature == (0, 2)
    assert F.omega_K == len(enumerate_torsion(F)) == 10


def test_make_field_quadratic_5():
    F = make_field("Q(sqrt,5)")
    # frozen from the trace-matrix determinant of the (1, (1+sqrt 5)/2) basis
    assert F.abs_discriminant == 5
    assert F.signature == (2, 0)
    assert F.unit_rank == 1


def test_make_field_rejects():
    with pytest.raises(ValueError):
        make_field("Q(sqrt,12)")  # not squarefree
    with pytest.raises(ValueError):
        make_field("Q(sqrt,0)")
    with pytest.raises(ValueError):
        make_field("Q(sqrt,1)")
    with pytest.raises(ValueError):
        make_field("Z")
    with pytest.raises(ValueError):
        make_field("Q(zeta,0)")


def test_quadratic_field_rejects_with_the_constructor_message():
    for D in (0, 1, 12):
        with pytest.raises(ValueError, match="quadratic fields need squarefree D not 0 or 1"):
            quadratic_field(D)


@pytest.mark.parametrize("desc", BUILT_FIELDS)
def test_field_construction_invariants(desc):
    F = make_field(desc)
    d = F.degree
    assert len(F.min_poly) == d + 1 and F.min_poly[-1] == 1
    if F.kind == "cyclotomic":
        assert d == _euler_phi(F.conductor)
    r1, r2 = F.signature
    assert r1 + 2 * r2 == d
    sympy = pytest.importorskip("sympy")
    p = F._power_traces
    assert sympy.Matrix([[p[i + j] for j in range(d)] for i in range(d)]).det() == F.disc
    # the trace form Tr(x conj(y)) on the integral basis has det |disc|
    B = F.integral_basis
    T = [[trace_pairing_exact(F, x, y) for y in B] for x in B]
    assert all(T[k][l] == T[l][k] for k in range(d) for l in range(d))
    assert sympy.Matrix(T).det() == F.abs_discriminant
    assert F.omega_K % 2 == 0
    if r1 > 0:
        assert F.omega_K == 2
    # the embeddings are roots of the minimal polynomial
    with mpmath.workprec(100):
        for v in F.embeddings_mp:
            val = sum(c * v**k for k, c in enumerate(F.min_poly))
            scale = sum(abs(c) * abs(v) ** k for k, c in enumerate(F.min_poly))
            assert abs(val) <= 1e-14 * max(scale, 1)


def _run_under_O(code):
    src = os.path.dirname(os.path.dirname(latmoment.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_field_constructor_rejects_invalid_parameters_under_O():
    # the checks must survive python -O, which strips assert statements
    code = (
        "from latmoment.numberfield import NumberField\n"
        "for kw in ({'kind': 'quadratic', 'D': 4}, {'kind': 'cyclotomic', 'conductor': 6}):\n"
        "    try:\n"
        "        NumberField(**kw)\n"
        "    except ValueError:\n"
        "        print('ValueError')\n"
        "    else:\n"
        "        print('accepted')\n"
    )
    out = _run_under_O(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ValueError", "ValueError"]
    with pytest.raises(ValueError):
        NumberField("quadratic", D=4)
    with pytest.raises(ValueError):
        NumberField("cyclotomic", conductor=6)


def test_conductor_two_mod_four_normalized():
    assert make_field("Q(zeta,6)") is make_field("Q(zeta,3)")
    assert make_field("Q(zeta,10)") is make_field("Q(zeta,5)")
    assert make_field("Q(zeta,1)") is make_field("Q")
    assert make_field("Q(zeta,2)") is make_field("Q")


@pytest.mark.parametrize("n,disc", [(3, -3), (4, -4), (5, 125), (7, -16807), (8, 256), (12, 144)])
def test_cyclotomic_discriminants(n, disc):
    # construction cross-checks the closed form against the exact trace form
    assert cyclotomic_field(n).disc == disc


def test_inexact_polynomial_division_raises_under_O():
    code = (
        "from latmoment.numberfield import _poly_exact_div\n"
        "try:\n"
        "    _poly_exact_div([1, 0, 1], [1, 1])\n"
        "except RuntimeError:\n"
        "    print('RuntimeError')\n"
        "else:\n"
        "    print('accepted')\n"
    )
    out = _run_under_O(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["RuntimeError"]
    with pytest.raises(RuntimeError):
        _poly_exact_div([1, 0, 1], [1, 1])


def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


# ---------------------------------------------------------------------------
# coercion into a field


def test_coerce_keeps_elements_and_embeds_rationals():
    F, G = make_field("Q(sqrt,5)"), make_field("Q(zeta,5)")
    x = F.element((1, 2))
    assert F.coerce(x) is x
    assert F.coerce(2) == F.from_rational(2)
    assert F.coerce(Fraction(-3, 4)) == F.element((Fraction(-3, 4), 0))
    with pytest.raises(ValueError, match="elements belong to different fields"):
        F.coerce(G.gen)
    with pytest.raises(ValueError, match="elements belong to different fields"):
        x + G.gen


def test_element_keeps_exact_coordinates_and_converts_the_rest():
    F = make_field("Q(sqrt,5)")
    want = F.element((Fraction(3), Fraction(-1, 2)))
    assert (want.num, want.den) == ((6, -1), 2)
    for coords in ((3, Fraction(-1, 2)), (3.0, -0.5), ("3", "-1/2"),
                   (Fraction(6, 2), Fraction(-2, 4))):
        assert F.element(coords) == want
    assert F.element((True, False)) == F.one
    for coords, error in (
        ((math.nan, 0), ValueError), ((math.inf, 0), OverflowError), (("x", 0), ValueError),
        ((None, 0), TypeError), ((Fraction(1, 2),), ValueError), ((1, 2, 3), ValueError),
    ):
        with pytest.raises(error):
            F.element(coords)


# each entry point that takes a field and elements of it; unchecked, a
# Q(zeta,5) element offered to Q(sqrt,5) yields a number or a numpy error
_FOREIGN_CALLS = {
    "abs_norm": lambda F, a: abs_norm(F, a),
    "denominator_norm": lambda F, a: denominator_norm(F, [a / 3]),
    "conjugates": lambda F, a: conjugates(F, a),
    "trace_pairing_exact": lambda F, a: trace_pairing_exact(F, a, a),
    "ideal_from_generators": lambda F, a: ideal_from_generators(F, [a]),
    "FracIdeal.contains": lambda F, a: ideal_from_generators(F, [2]).contains(2 * a),
}


@pytest.mark.parametrize("entry", sorted(_FOREIGN_CALLS))
def test_entry_points_reject_elements_of_another_field(entry):
    F, G = make_field("Q(sqrt,5)"), make_field("Q(zeta,5)")
    with pytest.raises(ValueError, match="elements belong to different fields"):
        _FOREIGN_CALLS[entry](F, G.gen + 1)


# ---------------------------------------------------------------------------
# embeddings and conjugates


def test_conjugates_rational():
    F = make_field("Q")
    assert conjugates(F, F.from_rational(3)) == pytest.approx([3.0])


def test_conjugates_golden():
    F = make_field("Q(sqrt,5)")
    vals = conjugates(F, F.gen)
    assert vals[0].real == pytest.approx(1.6180339887, abs=1e-9)
    assert vals[1].real == pytest.approx(-0.6180339887, abs=1e-9)


def test_conjugates_zeta5():
    F = make_field("Q(zeta,5)")
    vals = conjugates(F, F.gen)
    assert sorted(np.angle(vals) / (2 * np.pi / 5)) == pytest.approx([-2, -1, 1, 2], abs=1e-12)
    assert np.abs(vals) == pytest.approx([1, 1, 1, 1])


@pytest.mark.parametrize("desc", ALL_FIELDS)
def test_conjugate_pair_symmetry(desc):
    F = make_field(desc)
    rng = random.Random(7)
    x = _random_element(F, rng)
    vals = conjugates(F, x)
    r1, r2 = F.signature
    for i in range(r1):
        assert abs(vals[i].imag) <= 1e-14 * (1 + abs(vals[i]))
    for j in range(r2):
        a, b = vals[r1 + 2 * j], vals[r1 + 2 * j + 1]
        assert abs(a - np.conj(b)) <= 1e-13 * (1 + abs(a))


# ---------------------------------------------------------------------------
# norms and traces


def test_abs_norm_examples():
    Q5 = make_field("Q(sqrt,5)")
    assert abs_norm(Q5, Q5.gen) == 1
    Qi = make_field("Q(sqrt,-1)")
    assert abs_norm(Qi, Qi.element((1, 1))) == 2
    Q = make_field("Q")
    assert abs_norm(Q, Q.element((Fraction(-3, 2),))) == Fraction(3, 2)


@pytest.mark.parametrize("desc", ALL_FIELDS)
def test_abs_norm_matches_embedding_product(desc):
    F = make_field(desc)
    rng = random.Random(11)
    for _ in range(25):
        x = _random_element(F, rng)
        exact = abs_norm(F, x)
        viaemb = float(np.prod(np.abs(conjugates(F, x))))
        assert viaemb == pytest.approx(float(exact), rel=1e-10)


@pytest.mark.parametrize("desc", ALL_FIELDS)
def test_abs_norm_multiplicative(desc):
    F = make_field(desc)
    rng = random.Random(13)
    for _ in range(25):
        x, y = _random_element(F, rng), _random_element(F, rng)
        assert abs_norm(F, x * y) == abs_norm(F, x) * abs_norm(F, y)


@pytest.mark.parametrize("desc", ["Q(zeta,11)", "Q(zeta,23)"])
def test_abs_norm_in_the_degree_aspect(desc):
    # the reference is |det| of the multiplication matrix, from sympy
    sympy = pytest.importorskip("sympy")
    F = make_field(desc)
    rng = random.Random(f"norm/{desc}")
    xs = [_random_element(F, rng) for _ in range(3)]
    for x in xs:
        det = sympy.Matrix(F._mul_rows(x.num)).det()
        assert abs_norm(F, x) == Fraction(abs(int(det)), x.den**F.degree)
    assert abs_norm(F, xs[0] * xs[1]) == abs_norm(F, xs[0]) * abs_norm(F, xs[1])


@pytest.mark.parametrize("desc", ALL_FIELDS)
def test_gram_determinant_is_one(desc):
    F = make_field(desc)
    # |disc|^(-1/d) normalizes the trace form so that O_K has unit covolume
    scale = F.abs_discriminant ** (-1.0 / F.degree)
    G = np.array([[scale * float(trace_pairing_exact(F, a, b)) for b in F.integral_basis]
                  for a in F.integral_basis])
    assert np.linalg.det(G) == pytest.approx(1.0, abs=1e-10)
    # positive definite
    assert np.all(np.linalg.eigvalsh(G) > 0)


@pytest.mark.parametrize("desc", ALL_FIELDS)
def test_trace_pairing_symmetric_real(desc):
    F = make_field(desc)
    rng = random.Random(17)
    x, y = _random_element(F, rng), _random_element(F, rng)
    assert trace_pairing_exact(F, x, y) == trace_pairing_exact(F, y, x)
    assert trace_pairing_exact(F, x, x) > 0


# ---------------------------------------------------------------------------
# element arithmetic (property-based)


@st.composite
def _field_and_element(draw):
    F = make_field(draw(st.sampled_from(ALL_FIELDS)))
    num = st.integers(min_value=-9, max_value=9)
    den = st.integers(min_value=1, max_value=5)
    coords = [Fraction(draw(num), draw(den)) for _ in range(F.degree)]
    return F, F.element(coords)


@given(_field_and_element())
@settings(max_examples=60, deadline=None)
def test_inverse_roundtrip(fx):
    F, x = fx
    if not x:
        return
    assert x * x.inverse() == F.one
    assert x ** 3 * x ** -3 == F.one


@pytest.mark.parametrize("desc", ["Q(zeta,11)", "Q(zeta,23)", "Q(zeta,47)"])
def test_inverse_roundtrip_in_the_degree_aspect(desc):
    F = make_field(desc)
    rng = random.Random(f"inverse/{desc}")
    for _ in range(3):
        x = _random_element(F, rng)
        assert x.den > 1
        assert x * x.inverse() == F.one
        assert x**3 * x**-3 == F.one
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()


@given(_field_and_element(), _field_and_element())
@settings(max_examples=60, deadline=None)
def test_mul_commutes_with_involution(fx, fy):
    F, x = fx
    Fy, y = fy
    if F is not Fy:
        return
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()


@pytest.mark.parametrize("desc", ALL_FIELDS)
def test_involution_fixes_norm_and_trace(desc):
    F = make_field(desc)
    rng = random.Random(23)
    x = _random_element(F, rng)
    assert abs_norm(F, x.conj()) == abs_norm(F, x)
    assert F.trace(x.conj()) == F.trace(x)


# ---------------------------------------------------------------------------
# ideals


def test_ideal_examples():
    Q = make_field("Q")
    assert ideal_from_generators(Q, [Q.from_rational(4), Q.from_rational(6)]).norm == 2
    Qi = make_field("Q(sqrt,-1)")
    assert ideal_from_generators(Qi, [Qi.element((1, 1))]).norm == 2
    Z5 = make_field("Q(zeta,5)")
    x = Z5.one - Z5.gen
    ideal = ideal_from_generators(Z5, [x])
    assert ideal.norm == 5 == abs_norm(Z5, x)


@pytest.mark.parametrize("desc", ALL_FIELDS)
def test_ideal_regeneration_idempotent(desc):
    F = make_field(desc)
    rng = random.Random(29)
    gens = [_random_element(F, rng) for _ in range(2)]
    ideal = ideal_from_generators(F, gens)
    again = ideal_from_generators(F, ideal.zz_basis())
    assert ideal == again


@pytest.mark.parametrize("desc", ALL_FIELDS)
def test_ideal_closed_under_basis_multiplication(desc):
    F = make_field(desc)
    rng = random.Random(31)
    ideal = ideal_from_generators(F, [_random_element(F, rng) for _ in range(2)])
    for x in ideal.zz_basis():
        for b in F.integral_basis:
            assert ideal.contains(b * x)


@pytest.mark.parametrize("desc", ALL_FIELDS)
def test_ideal_norm_multiplicative_principal(desc):
    F = make_field(desc)
    rng = random.Random(37)
    # 200 random principal pairs across the field family, exact equality
    rounds = 200 // len(ALL_FIELDS) + 1
    for _ in range(rounds):
        x, y = _random_element(F, rng), _random_element(F, rng)
        I, J = ideal_from_generators(F, [x]), ideal_from_generators(F, [y])
        assert (I * J).norm == I.norm * J.norm
        assert I.norm == abs_norm(F, x)


def test_zero_ideal_rejected():
    Q = make_field("Q")
    with pytest.raises(ValueError):
        ideal_from_generators(Q, [Q.zero])


# ---------------------------------------------------------------------------
# denominator norms


def test_denominator_norm_examples():
    Q = make_field("Q")
    assert denominator_norm(Q, [Q.from_rational(Fraction(1, 2))]) == 2
    Qi = make_field("Q(sqrt,-1)")
    assert denominator_norm(Qi, [Qi.element((Fraction(1, 2), Fraction(1, 2)))]) == 2
    # frozen from the lcm-of-denominators ZZ-module oracle: <1, 2/3, 3/2> = (1/6)ZZ
    assert denominator_norm(Q, [Q.from_rational(Fraction(2, 3)), Q.from_rational(Fraction(3, 2))]) == 6


@pytest.mark.parametrize("desc", ALL_FIELDS)
def test_denominator_norm_divides_lcm_bound(desc):
    F = make_field(desc)
    rng = random.Random(41)
    for _ in range(20):
        alphas = [_random_element(F, rng) for _ in range(rng.randint(1, 3))]
        D = denominator_norm(F, alphas)
        lcm = 1
        for a in alphas:
            for c in a.coords:
                lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
        # D(alpha) divides N(lcm O_K) = lcm^d
        assert pow(lcm, F.degree) % D == 0
        if all(a.is_integral for a in alphas):
            assert D == 1
        if D == 1:
            # integral closure: all alpha_i in O_K
            assert all(a.is_integral for a in alphas)


@pytest.mark.parametrize("desc", ALL_FIELDS)
def test_denominator_norm_inequality(desc):
    # D(alpha)^(-1) <= N(alpha_1 ... alpha_M)^(1/M) for nonzero tuples,
    # compared exactly as D^M * prod |N(alpha_i)| >= 1
    F = make_field(desc)
    rng = random.Random(43)
    for _ in range(20):
        alphas = [_random_element(F, rng) for _ in range(rng.randint(1, 3))]
        D = denominator_norm(F, alphas)
        prod = Fraction(1)
        for a in alphas:
            prod *= abs_norm(F, a)
        assert pow(D, len(alphas)) * prod >= 1


def _times_gen_powers(f, a):
    """Integer coordinates of g^k * a, k < d, for g a root of the monic f
    (ascending coefficients) and a an integer coordinate vector."""
    d = len(f) - 1
    rows = []
    v = list(a)
    for _ in range(d):
        rows.append(v)
        v = [0] + v
        top = v.pop()
        v = [x - top * c for x, c in zip(v, f[:d])]
    return rows


_RESIDUES = {}


def _denominator_norm_by_residues(F, alphas):
    """D = c^d / #{x in O_K / c O_K : x (c alpha_i) = 0 mod c for every i},
    c the lcm of the coordinate denominators: the residues counted form
    I^-1 / c O_K for I = O_K + sum alpha_i O_K, of order c^d N(I)."""
    d = F.degree
    c = math.lcm(*(q.denominator for a in alphas for q in a.coords))
    cols = []
    for a in alphas:
        ints = [int(q * c) for q in a.coords]
        cols.extend(_times_gen_powers(F.min_poly, ints))
    R = np.array(cols, dtype=np.int64).T  # (d, d * len(alphas)): x -> x * c alpha_i
    key = (c, d)
    if key not in _RESIDUES:
        _RESIDUES[key] = np.array(list(itertools.product(range(c), repeat=d)), dtype=np.int64)
    X = _RESIDUES[key]
    count = int(np.count_nonzero(np.all((X @ R) % c == 0, axis=1)))
    assert c**d % count == 0
    return c**d // count


@pytest.mark.parametrize(
    "desc", ["Q", "Q(sqrt,-1)", "Q(sqrt,-3)", "Q(sqrt,-7)", "Q(sqrt,2)", "Q(sqrt,5)", "Q(sqrt,13)"]
)
def test_denominator_norm_matches_residue_count_on_the_box(desc):
    # the box oracles take D(alpha) = c^d // gcd(c, N(num)) for alpha = num/c
    F = make_field(desc)
    checked = 0
    for num, c in _bounded_denominator_elements(F, 6):
        alpha = FieldElement(F, num, c)
        want = _denominator_norm_by_residues(F, [alpha])
        assert denominator_norm(F, [alpha]) == want
        assert c**F.degree // math.gcd(c, F._abs_norm_int(num)) == want
        checked += 1
    assert checked > (300 if F.degree == 2 else 30)


@pytest.mark.parametrize("desc", ["Q(zeta,5)", "Q(zeta,7)", "Q(zeta,8)"])
def test_denominator_norm_matches_residue_count_on_tuples(desc):
    F = make_field(desc)
    rng = random.Random(desc)
    sizes = []
    for _ in range(200):
        size = rng.randint(1, 2)
        alphas = [
            F.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(F.degree)])
            for _ in range(size)
        ]
        if not any(alphas):
            continue
        assert denominator_norm(F, alphas) == _denominator_norm_by_residues(F, alphas)
        sizes.append(size)
    assert sizes.count(1) > 50 and sizes.count(2) > 50


# ---------------------------------------------------------------------------
# frak_D


def _frak_D_bruteforce_rational(rows):
    """Residue count of {C in ZZ^m : C D integral} modulo the entry lcm."""
    m, n = len(rows), len(rows[0])
    q = 1
    for r in rows:
        for e in r:
            c = e.coords[0]
            q = q * c.denominator // math.gcd(q, c.denominator)
    hits = 0
    total = q**m
    for idx in range(total):
        C = []
        k = idx
        for _ in range(m):
            C.append(k % q)
            k //= q
        ok = True
        for j in range(n):
            s = sum(C[i] * rows[i][j].coords[0] for i in range(m))
            if Fraction(s).denominator != 1:
                ok = False
                break
        if ok:
            hits += 1
    assert total % hits == 0
    return total // hits


def test_frak_D_examples():
    Q = make_field("Q")
    r1 = [[Q.one, Q.from_rational(Fraction(1, 2))]]
    assert frak_D(Q, rred_matrix(Q, r1)) == 2 == _frak_D_bruteforce_rational(r1)
    r2 = [
        [Q.one, Q.zero, Q.from_rational(Fraction(1, 2))],
        [Q.zero, Q.one, Q.from_rational(Fraction(1, 3))],
    ]
    assert frak_D(Q, rred_matrix(Q, r2)) == 6 == _frak_D_bruteforce_rational(r2)


def test_frak_D_random_rational_vs_bruteforce():
    Q = make_field("Q")
    rng = random.Random(47)
    for _ in range(30):
        m = rng.randint(1, 2)
        n = m + rng.randint(1, 2)
        rows = [[Q.from_rational(Fraction(rng.randint(-3, 3), rng.randint(1, 4))) for _ in range(n)] for _ in range(m)]
        # pivot block keeps the rank full
        for i in range(m):
            for j in range(m):
                rows[i][j] = Q.one if i == j else Q.zero
        assert frak_D(Q, rred_matrix(Q, rows)) == _frak_D_bruteforce_rational(rows)


def test_frak_D_torsion_entries_give_one():
    for desc in ALL_FIELDS:
        F = make_field(desc)
        tors = enumerate_torsion(F)
        rng = random.Random(53)
        m, n = 2, 4
        rows = [[F.zero for _ in range(n)] for _ in range(m)]
        for i in range(m):
            rows[i][i] = F.one
            for j in range(m, n):
                rows[i][j] = rng.choice(tors + [F.zero])
        assert frak_D(F, rred_matrix(F, rows)) == 1


def test_frak_D_at_least_denominator_norm():
    # with a single row (1, alpha_1, ..) the index equals D(alpha)
    F = make_field("Q(sqrt,-1)")
    rng = random.Random(59)
    for _ in range(10):
        alphas = [_random_element(F, rng) for _ in range(2)]
        rows = [[F.one, *alphas]]
        assert frak_D(F, rred_matrix(F, rows)) == denominator_norm(F, alphas)


# ---------------------------------------------------------------------------
# torsion and units


@pytest.mark.parametrize("desc,omega", [
    ("Q", 2), ("Q(sqrt,2)", 2), ("Q(sqrt,-1)", 4), ("Q(sqrt,-3)", 6),
    ("Q(zeta,5)", 10), ("Q(zeta,8)", 8), ("Q(zeta,12)", 12),
])
def test_torsion_enumeration(desc, omega):
    F = make_field(desc)
    tors = enumerate_torsion(F)
    assert len(tors) == omega == F.omega_K
    for x in tors:
        assert x**omega == F.one
        assert abs_norm(F, x) == 1
    assert len(set(tors)) == omega


def _pell_bruteforce(D, ymax=300000):
    """Smallest unit > 1 of the maximal order, by scanning y."""
    if D % 4 == 1:
        # units are (x + y sqrt D)/2 with x = y mod 2 and x^2 - D y^2 = +-4
        for y in range(1, ymax):
            xs = []
            for sgn in (-4, 4):
                t = D * y * y + sgn
                if t > 0:
                    x = math.isqrt(t)
                    if x * x == t and (x + y) % 2 == 0:
                        xs.append(x)
            if xs:
                return Fraction(min(xs), 2), Fraction(y, 2)
    else:
        for y in range(1, ymax):
            xs = []
            for sgn in (-1, 1):
                t = D * y * y + sgn
                if t > 0:
                    x = math.isqrt(t)
                    if x * x == t:
                        xs.append(x)
            if xs:
                return Fraction(min(xs)), Fraction(y)
    raise AssertionError("no unit found")


@pytest.mark.parametrize("D", [2, 3, 5, 6, 7, 10, 13, 61])
def test_fundamental_unit_matches_bruteforce(D):
    F = quadratic_field(D)
    u = fundamental_unit(F)
    assert abs_norm(F, u) == 1
    val = conjugates(F, u)[0].real
    assert val > 1
    # compare against the minimal (x + y sqrt D)/denominator from brute force
    x, y = _pell_bruteforce(D)
    expected = float(x) + float(y) * math.sqrt(D)
    assert val == pytest.approx(expected, rel=1e-12)


def test_fundamental_unit_examples():
    assert str(fundamental_unit(quadratic_field(2))) == "1 + sqrt(2)"
    assert str(fundamental_unit(quadratic_field(3))) == "2 + sqrt(3)"
    assert str(fundamental_unit(quadratic_field(5))) == "w"


def test_fundamental_unit_rejects_non_real():
    with pytest.raises(ValueError):
        fundamental_unit(make_field("Q(sqrt,-1)"))
    with pytest.raises(ValueError):
        fundamental_unit(make_field("Q"))


# ---------------------------------------------------------------------------
# HNF backend


def test_hnf_known_lattice():
    rows = [[2, 0], [0, 3], [1, 1]]
    h = hnf_rows(rows, 2)
    # frozen by hand: the span is {(a,b): a+2b = 0 mod 3}... full ZZ^2? contains (1,1),(2,0),(0,3)
    # det of span: gcd computation gives index 1? (1,1),(2,0) span det -2; adding (0,3): index gcd(2? ) -> 1
    assert len(h) == 2
    det = h[0][0] * h[1][1]
    assert det == 1


def test_hnf_matches_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    rng = random.Random(61)
    checked = 0
    for _ in range(40):
        m = rng.randint(2, 4)
        n = rng.randint(2, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        ours = hnf_rows(rows, n)
        if len(ours) < n:
            continue
        det = 1
        for i in range(n):
            det *= ours[i][i]
        # sympy works column-style, so feed the transpose
        hh = hermite_normal_form(sympy.Matrix(rows).T)
        if hh.shape[0] == hh.shape[1]:
            assert det == abs(hh.det())
            checked += 1
    assert checked >= 10


def test_hnf_membership_consistency():
    # every input row must lie in the span of the HNF rows (triangular solve)
    rng = random.Random(67)
    for _ in range(30):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(1, 6))]
        h = hnf_rows(rows, n)
        cols = []
        for r in h:
            for j, c in enumerate(r):
                if c:
                    cols.append(j)
                    break
        for r in rows:
            v = list(r)
            for i, cj in enumerate(cols):
                q, rem = divmod(v[cj], h[i][cj])
                assert rem == 0
                if q:
                    v = [a - q * b for a, b in zip(v, h[i])]
            assert not any(v)


@st.composite
def _index_mod_case(draw):
    """q, rows and ncols for _index_mod: q up to 10^6 or a prime power, rows
    with entries around +-2q, zero rows and repeated rows."""
    ncols = draw(st.integers(min_value=3, max_value=9))
    q = draw(st.one_of(
        st.integers(min_value=1, max_value=10**6),
        st.builds(pow, st.sampled_from([2, 3, 5, 7, 11]), st.integers(min_value=1, max_value=5)),
    ))
    entry = st.integers(min_value=-2 * q, max_value=2 * q)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=2 * ncols))
    if draw(st.booleans()):
        rows.append([0] * ncols)
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    return q, rows, ncols


@given(_index_mod_case())
@settings(max_examples=300, deadline=None)
def test_index_mod_matches_the_stacked_hnf(case):
    # the echelon modulo q against the HNF pivots of the rows stacked on q I
    q, rows, ncols = case
    scaled = [[q if j == k else 0 for j in range(ncols)] for k in range(ncols)]
    hnf = hnf_rows([*rows, *scaled], ncols)
    assert _index_mod(q, rows, ncols) == math.prod(hnf[i][i] for i in range(ncols))


# ---------------------------------------------------------------------------
# Pluecker minors against cofactor expansion


def _cofactor_det(F, mat):
    if len(mat) == 1:
        return mat[0][0]
    total = F.zero
    for j, a in enumerate(mat[0]):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = a * _cofactor_det(F, minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _random_rred(F, rng, m, n):
    """A random full-rank m x n matrix in reduced form; some columns are
    zero or repeat another, so some minors vanish."""
    while True:
        rows = [[_random_element(F, rng, scale=3, den=3) for _ in range(n)] for _ in range(m)]
        zero_last = n > m and rng.random() < 0.3
        repeat_first = n > m + 1 and rng.random() < 0.3
        for row in rows:
            if zero_last:
                row[-1] = F.zero
            if repeat_first:
                row[-2] = row[0]
        try:
            return rred_matrix(F, rows)
        except ValueError:
            continue


@pytest.mark.parametrize("desc", ["Q", "Q(sqrt,5)", "Q(zeta,5)", "Q(zeta,7)"])
def test_plucker_minors_match_cofactor_expansion(desc):
    F = make_field(desc)
    rng = random.Random(f"plucker-cofactor/{desc}")
    zeros = 0
    for m in range(1, 5):
        for n in range(m, 7):
            D = _random_rred(F, rng, m, n)
            subsets = itertools.combinations(range(n), m)
            for subset, coord in zip(subsets, plucker(D).coords, strict=True):
                assert coord == _cofactor_det(F, [[row[j] for j in subset] for row in D.rows])
                zeros += not coord
    assert zeros >= 5


def test_plucker_minors_over_Q_match_sympy():
    sympy = pytest.importorskip("sympy")
    Q = make_field("Q")
    rng = random.Random(83)
    for _ in range(20):
        m = rng.randint(1, 4)
        n = rng.randint(m, 6)
        D = _random_rred(Q, rng, m, n)
        mat = sympy.Matrix([[sympy.Rational(*e.as_rational().as_integer_ratio()) for e in row] for row in D.rows])
        for subset, coord in zip(itertools.combinations(range(n), m), plucker(D).coords, strict=True):
            theirs = mat.extract(list(range(m)), list(subset)).det()
            assert coord.as_rational() == Fraction(int(theirs.p), int(theirs.q))


def test_row_reduce_drops_zero_rows():
    F = make_field("Q(sqrt,-1)")
    i = F.gen
    rows = [[F.one, i, F.zero], [i, -F.one, F.zero], [F.zero, F.one, i]]  # row 2 = i * row 1
    red = row_reduce(rows)
    assert red == [[F.one, F.zero, F.one], [F.zero, F.one, i]]
