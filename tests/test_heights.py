import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latmoment as lm
from latmoment import (
    M_invariant,
    ProjPoint,
    det_lattice,
    enumerate_p1_rationals,
    gr_height_factors,
    h_infty,
    height_gap_rhs,
    height_zeta_truncated,
    make_field,
    plucker,
    proj_height_l2,
    proj_height_linf,
    rred_matrix,
    weil_height,
)
from latmoment.numberfield import frak_D, trace_pairing_exact
from refroutes import ideal_from_generators

ALL_FIELDS = [
    "Q",
    "Q(sqrt,-1)",
    "Q(sqrt,2)",
    "Q(sqrt,5)",
    "Q(sqrt,-3)",
    "Q(zeta,5)",
    "Q(zeta,8)",
]


def _random_element(F, rng, scale=4, den=3, nonzero=False):
    while True:
        num = [rng.randint(-scale, scale) for _ in range(F.degree)]
        d = rng.randint(1, den)
        x = F.element([Fraction(a, d) for a in num])
        if x or not nonzero:
            return x


def _random_point(F, rng, n):
    while True:
        coords = [_random_element(F, rng) for _ in range(n)]
        if any(coords):
            return lm.ProjPoint(F, tuple(coords))


def _random_rred(F, rng, m, n):
    while True:
        rows = [[_random_element(F, rng) for _ in range(n)] for _ in range(m)]
        try:
            return rred_matrix(F, rows)
        except ValueError:
            continue


# ---------------------------------------------------------------------------
# element and tuple heights


def test_weil_height_rationals():
    Q = make_field("Q")
    assert weil_height(Q, Q.from_rational(2)) == pytest.approx(math.log(2), rel=1e-12)
    assert weil_height(Q, Q.from_rational(Fraction(1, 2))) == pytest.approx(
        math.log(2), rel=1e-12
    )
    assert weil_height(Q, Q.from_rational(Fraction(2, 3))) == pytest.approx(
        math.log(3), rel=1e-12
    )
    assert weil_height(Q, Q.one) == pytest.approx(0.0, abs=1e-12)


def test_weil_height_fundamental_unit():
    F = make_field("Q(sqrt,5)")
    eps = lm.fundamental_unit(F)
    golden = (1 + math.sqrt(5)) / 2
    assert weil_height(F, eps) == pytest.approx(math.log(golden) / 2, rel=1e-12)


@pytest.mark.parametrize("desc", ["Q", "Q(sqrt,-1)", "Q(sqrt,-3)", "Q(zeta,5)", "Q(zeta,8)"])
def test_weil_height_zero_on_torsion(desc):
    F = make_field(desc)
    for u in lm.enumerate_torsion(F):
        assert abs(weil_height(F, u)) < 1e-12


def test_weil_height_zero_rejected():
    Q = make_field("Q")
    with pytest.raises(ValueError):
        weil_height(Q, Q.zero)


@pytest.mark.parametrize("desc", ALL_FIELDS)
def test_weil_height_inverse_and_powers(desc):
    F = make_field(desc)
    rng = random.Random(71)
    for _ in range(12):
        a = _random_element(F, rng, nonzero=True)
        h = weil_height(F, a)
        assert weil_height(F, a.inverse()) == pytest.approx(h, rel=1e-10, abs=1e-12)
        assert weil_height(F, a * a) == pytest.approx(2 * h, rel=1e-10, abs=1e-12)


def test_h_infty_examples():
    Q = make_field("Q")
    two, three = Q.from_rational(2), Q.from_rational(3)
    assert h_infty(Q, [two, three]) == pytest.approx(math.log(3), rel=1e-12)
    half = Q.from_rational(Fraction(1, 2))
    third = Q.from_rational(Fraction(1, 3))
    assert h_infty(Q, [half, third]) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("desc", ALL_FIELDS)
def test_h_infty_monotone_in_tuple(desc):
    F = make_field(desc)
    rng = random.Random(72)
    for _ in range(8):
        xs = [_random_element(F, rng, nonzero=True) for _ in range(3)]
        a = h_infty(F, xs[:1])
        b = h_infty(F, xs[:2])
        c = h_infty(F, xs)
        assert -1e-12 <= a <= b + 1e-12 <= c + 2e-12


def test_h_infty_drops_denominator_part():
    # only the archimedean part enters, so integral elements agree with the
    # element height while small fractions contribute nothing
    Q = make_field("Q")
    assert h_infty(Q, [Q.from_rational(7)]) == pytest.approx(
        weil_height(Q, Q.from_rational(7)), rel=1e-12
    )
    assert h_infty(Q, [Q.from_rational(Fraction(1, 7))]) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# projective heights


def test_proj_point_rejects_zero():
    Q = make_field("Q")
    with pytest.raises(ValueError):
        ProjPoint(Q, (0, 0))


@pytest.mark.parametrize("entry", ["weil_height", "h_infty", "rred_matrix"])
def test_heights_reject_elements_of_another_field(entry):
    Q5, Z5 = make_field("Q(sqrt,5)"), make_field("Q(zeta,5)")
    a = Z5.gen / 3
    call = {
        "weil_height": lambda: weil_height(Q5, a),
        "h_infty": lambda: h_infty(Q5, [Q5.one, a]),
        "rred_matrix": lambda: rred_matrix(Q5, [[1, a]]),
    }[entry]
    with pytest.raises(ValueError, match="elements belong to different fields"):
        call()


def test_proj_point_rejects_mixed_fields():
    Q, Z5 = make_field("Q"), make_field("Q(zeta,5)")
    with pytest.raises(ValueError, match="elements belong to different fields"):
        ProjPoint(Z5, (Q.one, Z5.one))


def test_proj_point_constructor_coerces_its_coordinates():
    Q5, Z5 = make_field("Q(sqrt,5)"), make_field("Q(zeta,5)")
    x = lm.ProjPoint(Q5, (1, Fraction(2, 3)))
    assert x.coords == (Q5.one, Q5.from_rational(Fraction(2, 3)))
    assert x == ProjPoint(Q5, (1, Fraction(2, 3)))
    with pytest.raises(ValueError, match="elements belong to different fields"):
        lm.ProjPoint(Q5, (Q5.one, Z5.gen))


@pytest.mark.parametrize("desc", ALL_FIELDS + ["Q(zeta,7)"])
def test_ideal_norm_matches_the_ideal_hnf(desc):
    # N(<x>) = |N(x_k)| / D(x / x_k) against the norm of the full ideal HNF,
    # on Pluecker points (a coordinate is 1) and on points with no
    # coordinate equal to 1
    F = make_field(desc)
    rng = random.Random(f"ideal-norm/{desc}")
    for trial in range(30):
        if trial % 3 == 0:
            m = rng.randint(1, 2)
            x = plucker(_random_rred(F, rng, m, rng.randint(m, 4)))
        else:
            x = _random_point(F, rng, rng.randint(1, 4))
        c = _random_element(F, rng, nonzero=True)
        for y in (x, lm.ProjPoint(F, tuple(c * e for e in x.coords))):
            want = ideal_from_generators(F, [e for e in y.coords if e]).norm
            assert y.ideal_norm == want


def test_height_example_34():
    Q = make_field("Q")
    x = ProjPoint(Q, (3, 4))
    assert proj_height_l2(x) == pytest.approx(5.0, rel=1e-12)
    assert proj_height_linf(x) == pytest.approx(4.0, rel=1e-12)
    assert M_invariant(x) == 12
    assert height_gap_rhs(x) == pytest.approx(25.0, rel=1e-12)


def test_height_example_gaussian_ones():
    F = make_field("Q(sqrt,-1)")
    x = ProjPoint(F, (1, 1))
    assert proj_height_l2(x) == pytest.approx(2.0, rel=1e-12)
    assert proj_height_linf(x) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("desc", ALL_FIELDS)
def test_heights_scaling_invariant(desc):
    F = make_field(desc)
    rng = random.Random(73)
    for _ in range(10):
        x = _random_point(F, rng, rng.randint(2, 4))
        c = _random_element(F, rng, nonzero=True)
        y = lm.ProjPoint(F, tuple(c * e for e in x.coords))
        assert proj_height_l2(y) == pytest.approx(proj_height_l2(x), rel=1e-9)
        assert proj_height_linf(y) == pytest.approx(proj_height_linf(x), rel=1e-9)
        assert M_invariant(y) == M_invariant(x)


@pytest.mark.parametrize("desc", ALL_FIELDS)
def test_height_norm_comparison(desc):
    # sup height <= l2 height <= N^(d/2) * sup height
    F = make_field(desc)
    rng = random.Random(74)
    for _ in range(10):
        n = rng.randint(1, 4)
        x = _random_point(F, rng, n)
        hw = proj_height_linf(x)
        h2 = proj_height_l2(x)
        assert hw <= h2 * (1 + 1e-12)
        assert h2 <= n ** (F.degree / 2) * hw * (1 + 1e-12)


@pytest.mark.parametrize("desc", ALL_FIELDS)
def test_proj_height_at_least_one(desc):
    F = make_field(desc)
    rng = random.Random(75)
    for _ in range(10):
        x = _random_point(F, rng, rng.randint(1, 4))
        assert proj_height_linf(x) >= 1 - 1e-12


# ---------------------------------------------------------------------------
# the integrality defect


def test_M_invariant_examples():
    Q = make_field("Q")
    assert M_invariant(ProjPoint(Q, (2, 4))) == 2
    assert M_invariant(ProjPoint(Q, (2, 3))) == 6
    assert M_invariant(ProjPoint(Q, (0, 5))) == 0
    F = make_field("Q(sqrt,-1)")
    i = F.gen
    x = lm.ProjPoint(F, (F.one + i, F.from_rational(2)))
    assert M_invariant(x) == 2


@pytest.mark.parametrize("desc", ALL_FIELDS)
def test_M_invariant_integer_and_unit_multiples(desc):
    F = make_field(desc)
    rng = random.Random(76)
    for _ in range(8):
        x = _random_point(F, rng, rng.randint(2, 3))
        M = M_invariant(x)
        assert M.denominator == 1 and (M == 0 or M >= 1)
    # unit multiples of a single element give exactly 1
    a = _random_element(F, rng, nonzero=True)
    units = lm.enumerate_torsion(F)
    x = lm.ProjPoint(F, (a, units[len(units) // 2] * a))
    assert M_invariant(x) == 1


@pytest.mark.parametrize("desc", ALL_FIELDS)
def test_height_gap_inequality(desc):
    F = make_field(desc)
    rng = random.Random(77)
    for _ in range(12):
        x = _random_point(F, rng, rng.randint(2, 4))
        lhs = proj_height_l2(x) ** 2
        assert lhs >= height_gap_rhs(x) * (1 - 1e-9)


def test_height_gap_sharp_for_coprime_pairs():
    Q = make_field("Q")
    for a, b in [(3, 4), (1, 1), (2, 5), (7, 12)]:
        x = ProjPoint(Q, (a, b))
        assert height_gap_rhs(x) == pytest.approx(a * a + b * b, rel=1e-12)


def test_height_gap_degenerate_cases():
    Q = make_field("Q")
    x = ProjPoint(Q, (5,))
    assert height_gap_rhs(x) == pytest.approx(proj_height_linf(x) ** 2, rel=1e-12)
    y = ProjPoint(Q, (0, 3))
    assert height_gap_rhs(y) == pytest.approx(proj_height_linf(y) ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# row-reduced matrices and the Pluecker embedding


def test_rred_validation():
    Q = make_field("Q")
    with pytest.raises(ValueError):
        lm.RredMatrix(Q, ((Q.from_rational(2), Q.zero),))  # pivot not 1
    with pytest.raises(ValueError):
        lm.RredMatrix(Q, ((Q.zero, Q.one), (Q.one, Q.zero)))  # pivots not increasing
    with pytest.raises(ValueError):
        lm.RredMatrix(
            Q, ((Q.one, Q.one, Q.zero), (Q.zero, Q.one, Q.zero))
        )  # not cleared above
    with pytest.raises(ValueError):
        lm.RredMatrix(Q, ((Q.one, Q.zero), (Q.zero, Q.zero)))  # zero row


def test_empty_matrices_raise_value_error():
    Q = make_field("Q")
    with pytest.raises(ValueError):
        rred_matrix(Q, [])
    with pytest.raises(ValueError):
        lm.RredMatrix(Q, ())


def test_frak_D_rejects_mixed_fields():
    Q5, Z5 = make_field("Q(sqrt,5)"), make_field("Q(zeta,5)")
    D = rred_matrix(Z5, [[1, Fraction(1, 2)]])
    with pytest.raises(ValueError, match="elements belong to different fields"):
        frak_D(Q5, D)


def test_rred_reduction_and_uniqueness():
    Q = make_field("Q")
    D = rred_matrix(Q, [[2, 4, 6], [1, 3, 5]])
    assert D.rows == tuple(tuple(map(Q.from_rational, r)) for r in ((1, 0, -1), (0, 1, 2)))
    # any invertible recombination reduces back to the same matrix
    rows2 = [
        [3 * a + 1 * b for a, b in zip(D.rows[0], D.rows[1])],
        [2 * a + 1 * b for a, b in zip(D.rows[0], D.rows[1])],
    ]
    D2 = rred_matrix(Q, rows2)
    assert D2.rows == D.rows


def test_rred_rank_deficient_rejected():
    Q = make_field("Q")
    with pytest.raises(ValueError):
        rred_matrix(Q, [[1, 2], [2, 4]])


def test_plucker_example():
    Q = make_field("Q")
    D = rred_matrix(Q, [[1, 0, 1], [0, 1, 1]])
    p = plucker(D)
    assert p.coords == (Q.one, Q.one, -Q.one)
    assert proj_height_l2(plucker(D)) == pytest.approx(math.sqrt(3), rel=1e-12)


@pytest.mark.parametrize("desc", ["Q", "Q(sqrt,-1)", "Q(sqrt,5)", "Q(zeta,5)"])
def test_plucker_pivot_minor_is_one(desc):
    F = make_field(desc)
    rng = random.Random(97)
    for _ in range(10):
        m = rng.randint(1, 3)
        D = _random_rred(F, rng, m, rng.randint(m, 5))
        subsets = list(itertools.combinations(range(len(D.rows[0])), len(D.rows)))
        pivots = tuple(next(j for j, e in enumerate(row) if e) for row in D.rows)
        assert plucker(D).coords[subsets.index(pivots)] == F.one


def test_plucker_length():
    Q = make_field("Q")
    D = rred_matrix(Q, [[1, 0, 0, 2], [0, 1, 0, 3], [0, 0, 1, 4]])
    assert len(plucker(D).coords) == 4  # C(4,3)


def test_gr_height_identity_is_one():
    for desc in ALL_FIELDS:
        F = make_field(desc)
        D = rred_matrix(F, [[1, 0], [0, 1]])
        assert proj_height_l2(plucker(D)) == pytest.approx(1.0, rel=1e-10)
        assert det_lattice(D) == pytest.approx(1.0, rel=1e-10)


def test_det_lattice_example():
    Q = make_field("Q")
    D = rred_matrix(Q, [[1, Fraction(1, 2)]])
    f = gr_height_factors(D)
    assert f.covolume == pytest.approx(math.sqrt(5) / 2, rel=1e-12)
    assert f.index == 2
    assert f.height == pytest.approx(math.sqrt(5), rel=1e-12)
    assert f.product == pytest.approx(f.height, rel=1e-12)
    assert f.norm_index_product == 1


def test_det_lattice_gaussian_example():
    F = make_field("Q(sqrt,-1)")
    half = F.element([Fraction(1, 2), Fraction(1, 2)])  # (1 + i)/2
    D = rred_matrix(F, [[F.one, half]])
    f = gr_height_factors(D)
    assert f.index == 2
    assert f.covolume == pytest.approx(1.5, rel=1e-12)
    assert f.height == pytest.approx(3.0, rel=1e-12)


def _det_lattice_by_pairings(D):
    """The covolume from a Gram matrix of summed trace pairings and a sympy
    determinant: an integer-free reference route for det_lattice."""
    sympy = pytest.importorskip("sympy")
    F = D.field
    vectors = [[F.gen ** k * e for e in row] for row in D.rows for k in range(F.degree)]
    gram = [
        [sum((trace_pairing_exact(F, x, y) for x, y in zip(u, v)), Fraction(0)) for v in vectors]
        for u in vectors
    ]
    det = sympy.Matrix([[sympy.Rational(q.numerator, q.denominator) for q in r] for r in gram]).det()
    return math.sqrt(Fraction(int(det.p), int(det.q)) / F.abs_discriminant ** len(D.rows))


@pytest.mark.parametrize("desc", [
    "Q", "Q(sqrt,-1)", "Q(sqrt,-3)", "Q(sqrt,2)", "Q(sqrt,5)",
    "Q(zeta,5)", "Q(zeta,7)", "Q(zeta,8)", "Q(zeta,12)",
])
def test_det_lattice_bit_identical_to_pairing_route(desc):
    F = make_field(desc)
    rng = random.Random(f"det-lattice/{desc}")
    for _ in range(50):
        m = rng.randint(1, 3)
        n = rng.randint(m, 5)
        D = _random_rred(F, rng, m, n)
        assert det_lattice(D) == _det_lattice_by_pairings(D)


@pytest.mark.parametrize("desc", ["Q", "Q(sqrt,-1)", "Q(sqrt,5)", "Q(zeta,5)"])
def test_gr_height_dual_route(desc):
    # independent routes: l2 height of the Pluecker point versus
    # covolume times integrality index, plus the exact rational identity
    F = make_field(desc)
    rng = random.Random(78)
    for _ in range(8):
        m = rng.randint(1, min(3, 4))
        n = rng.randint(m + 1, 5)
        D = _random_rred(F, rng, m, n)
        f = gr_height_factors(D)
        assert f.product == pytest.approx(f.height, rel=1e-9)
        assert f.norm_index_product == 1


def test_gr_height_dual_route_in_degree_22():
    # the covolume is one norm, so the degree aspect stays cheap
    F = make_field("Q(zeta,23)")
    rng = random.Random(23)
    for _ in range(2):
        f = gr_height_factors(_random_rred(F, rng, 2, 4))
        assert f.product == pytest.approx(f.height, rel=1e-9)
        assert f.norm_index_product == 1


def _golden_matrix(F, rng):
    """A full-rank 3 x 5 matrix: entries a/b with |a| <= 4 and b <= 3,
    zero below a nonzero leading diagonal."""
    rows = []
    for i in range(3):
        row = []
        for j in range(5):
            while True:
                x = F.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(F.degree)])
                if x or j != i:
                    break
            row.append(F.zero if j < i else x)
        rows.append(row)
    return rred_matrix(F, rows)


# (field, height, covolume, index, product, norm_index_product) of
# _golden_matrix on random.Random(f"gr-golden/{field}"), four per field,
# printed by plucker as Gaussian elimination over K and by lattice indices
# from the HNF of the rows stacked on q I
GR_GOLDEN = [
    ("Q(sqrt,5)", 78378105.03829066, 37.337201975561435, 2099196, 78378105.03829066, Fraction(1, 1)),
    ("Q(sqrt,5)", 7230462.338711201, 4463.248357229134, 1620, 7230462.338711197, Fraction(1, 1)),
    ("Q(sqrt,5)", 5376561.460296067, 298.69785890533717, 18000, 5376561.460296069, Fraction(1, 1)),
    ("Q(sqrt,5)", 228591438.46934408, 3214.8885923343846, 71104, 228591438.46934408, Fraction(1, 1)),
    ("Q(zeta,5)", 1.5438625682219868e+18, 3607.966734187168, 427903770174256, 1.543862568221987e+18, Fraction(1, 1)),
    ("Q(zeta,5)", 2.8043608250648992e+17, 6294.501354203327, 44552549396025, 2.8043608250648995e+17, Fraction(1, 1)),
    ("Q(zeta,5)", 5.532621754737608e+18, 636.3721115761421, 8694004111893936, 5.532621754737606e+18, Fraction(1, 1)),
    ("Q(zeta,5)", 6.968521752183297e+17, 1619.0494452932417, 430408210968576, 6.968521752183295e+17, Fraction(1, 1)),
    ("Q(zeta,8)", 2.9388011014458225e+18, 31300.78599227288, 93889051290000, 2.938801101445822e+18, Fraction(1, 1)),
    ("Q(zeta,8)", 1.0299120449883638e+19, 1556.9302367824341, 6615017299148800, 1.029912044988364e+19, Fraction(1, 1)),
    ("Q(zeta,8)", 6.931250835448888e+16, 109750.2733165547, 631547478288, 6.93125083544889e+16, Fraction(1, 1)),
    ("Q(zeta,8)", 1.6601805067410957e+17, 77741.5399800414, 2135512760832, 1.660180506741095e+17, Fraction(1, 1)),
]


def test_gr_height_factors_match_the_golden_values():
    for desc in ("Q(sqrt,5)", "Q(zeta,5)", "Q(zeta,8)"):
        F = make_field(desc)
        rng = random.Random(f"gr-golden/{desc}")
        for want in [g[1:] for g in GR_GOLDEN if g[0] == desc]:
            f = gr_height_factors(_golden_matrix(F, rng))
            assert (f.height, f.covolume, f.index, f.product, f.norm_index_product) == want


def test_gr_height_row_space_invariant():
    # matrices with equal row spaces reduce identically, hence equal heights
    Q = make_field("Q")
    rng = random.Random(79)
    for _ in range(6):
        D = _random_rred(Q, rng, 2, 4)
        a, b, c, d = 2, 1, 1, 1  # det 1
        rows2 = [
            [a * u + b * v for u, v in zip(D.rows[0], D.rows[1])],
            [c * u + d * v for u, v in zip(D.rows[0], D.rows[1])],
        ]
        D2 = rred_matrix(Q, rows2)
        assert D2.rows == D.rows
        assert proj_height_l2(plucker(D2)) == proj_height_l2(plucker(D))


# ---------------------------------------------------------------------------
# counting rational points and truncated zeta sums


def _count_p1_oracle(T):
    # slope-set oracle: collect distinct projective classes directly
    seen = set()
    bound = int(T) + 1
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a == 0 and b == 0:
                continue
            if a * a + b * b <= T * T:
                g = math.gcd(abs(a), abs(b))
                aa, bb = a // g, b // g
                if bb < 0 or (bb == 0 and aa < 0):
                    aa, bb = -aa, -bb
                seen.add((aa, bb))
    return len(seen)


def test_enumerate_p1_small_values():
    assert enumerate_p1_rationals(1) == 2
    assert enumerate_p1_rationals(math.sqrt(2)) == 4
    for T in [1, 1.5, 2, 3, 5.5, 10]:
        assert enumerate_p1_rationals(T) == _count_p1_oracle(T)


def test_enumerate_p1_quadratic_growth():
    # density pi / (2 zeta(2)) = 3 / pi
    target = 3 / math.pi
    for T in [40, 80]:
        ratio = enumerate_p1_rationals(T) / T**2
        assert abs(ratio - target) < 0.03


def test_enumerate_p1_rejects_small_T():
    with pytest.raises(ValueError):
        enumerate_p1_rationals(0.5)


def test_height_zeta_window_example():
    Q = make_field("Q")
    iv = height_zeta_truncated(Q, 2, 4.0, 100.0, 1.0)
    assert iv.hi - iv.lo == pytest.approx(3.0e-4, rel=1e-12)
    assert iv.lo > 0


def test_height_zeta_nesting():
    # refined partial sums stay inside coarser windows
    Q = make_field("Q")
    coarse = height_zeta_truncated(Q, 2, 4.0, 50.0, 1.0)
    fine = height_zeta_truncated(Q, 2, 4.0, 400.0, 1.0)
    assert coarse.lo <= fine.lo <= fine.hi <= coarse.hi


def test_height_zeta_dimension_three():
    Q = make_field("Q")
    iv = height_zeta_truncated(Q, 3, 5.0, 20.0, 4.0)
    assert iv.lo > 0 and iv.hi > iv.lo
    finer = height_zeta_truncated(Q, 3, 5.0, 40.0, 4.0)
    assert finer.lo >= iv.lo


def test_height_zeta_preconditions():
    Q = make_field("Q")
    F = make_field("Q(sqrt,5)")
    with pytest.raises(ValueError):
        height_zeta_truncated(F, 2, 4.0, 10.0, 1.0)
    with pytest.raises(ValueError):
        height_zeta_truncated(Q, 2, 2.5, 10.0, 1.0)
    with pytest.raises(ValueError):
        height_zeta_truncated(Q, 1, 4.0, 10.0, 1.0)
    with pytest.raises(ValueError):
        height_zeta_truncated(Q, 2, 4.0, 0.5, 1.0)


# ---------------------------------------------------------------------------
# hypothesis properties


@st.composite
def _field_and_pair(draw):
    desc = draw(st.sampled_from(["Q", "Q(sqrt,-1)", "Q(sqrt,5)", "Q(zeta,5)"]))
    F = make_field(desc)
    d = F.degree
    num = st.integers(min_value=-5, max_value=5)
    den = st.integers(min_value=1, max_value=3)

    def elem():
        cs = [Fraction(draw(num), draw(den)) for _ in range(d)]
        return F.element(cs)

    a, b = elem(), elem()
    if not a and not b:
        a = F.one
    return F, a, b


@given(_field_and_pair())
@settings(max_examples=50, deadline=None)
def test_hypothesis_scaling_and_gap(data):
    F, a, b = data
    x = lm.ProjPoint(F, (a, b))
    h2 = proj_height_l2(x)
    hw = proj_height_linf(x)
    assert hw <= h2 * (1 + 1e-12)
    assert h2 * h2 >= height_gap_rhs(x) * (1 - 1e-9)
    u = lm.enumerate_torsion(F)[-1]
    y = lm.ProjPoint(F, (u * a, u * b))
    assert proj_height_l2(y) == pytest.approx(h2, rel=1e-9)
