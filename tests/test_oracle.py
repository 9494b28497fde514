import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latmoment as lm
from latmoment.oracle import (
    McEstimate,
    _GL_HALF,
    _betainc,
    _dirichlet_ratio,
    TruncationReport,
    dirichlet_intersection,
    lower_bound_sum_check,
    mahler_sequence,
    mc_intersection_ratio,
    random_lattice_moments,
    truncated_second_moment_rhs,
    unit_enumeration_check,
    verification_report,
)
from latmoment.moments import MomentQuery, main_term
from latmoment.bounds import ThresholdError
from latmoment.numberfield import (
    _embed_rows,
    abs_norm,
    conjugates,
    denominator_norm,
    enumerate_torsion,
    fundamental_unit,
    make_field,
)
from latmoment.heights import weil_height
from refroutes import (
    box_elements,
    lower_bound_terms,
    mc_column_sum_ratio,
    truncated_partial_sum,
)

Q = make_field("Q")
QI = make_field("Q(sqrt,-1)")
Q2 = make_field("Q(sqrt,2)")
Q3 = make_field("Q(sqrt,3)")
Z7 = make_field("Q(zeta,7)")


# ---------------------------------------------------------------------------
# Monte Carlo volumes


def test_mc_deterministic_and_seed_sensitive():
    a = mc_intersection_ratio(Q, 6, [Q.from_rational(2)], samples=20000, seed=1)
    b = mc_intersection_ratio(Q, 6, [Q.from_rational(2)], samples=20000, seed=1)
    c = mc_intersection_ratio(Q, 6, [Q.from_rational(2)], samples=20000, seed=2)
    assert (a.mean, a.std_error) == (b.mean, b.std_error)
    assert a.mean != c.mean


def test_mc_matches_exact_scaling():
    est = mc_intersection_ratio(Q, 6, [Q.from_rational(2)], samples=50000, seed=4)
    exact = 2.0**-6
    assert abs(est.mean - exact) <= 4 * est.std_error
    lo, hi = est.interval()
    assert lo <= exact <= hi


def test_mc_multiple_constraints_shrink():
    one = mc_intersection_ratio(QI, 4, [QI.one + QI.gen], samples=20000, seed=7)
    two = mc_intersection_ratio(
        QI, 4, [QI.one + QI.gen, QI.from_rational(2)], samples=20000, seed=7
    )
    assert two.mean <= one.mean


def test_mc_preconditions():
    with pytest.raises(ValueError):
        mc_intersection_ratio(Q, 6, [Q.one], samples=100)
    with pytest.raises(ValueError):
        mc_intersection_ratio(Q, 65, [Q.one], samples=20000)
    with pytest.raises(ValueError):
        mc_intersection_ratio(Q, 6, [Q.zero], samples=20000)
    with pytest.raises(ValueError):
        mc_intersection_ratio(Q, 6, [], samples=20000)


# ---------------------------------------------------------------------------
# Column sum estimates


def test_column_sum_single_scalar_matches_dilation():
    # With one coefficient the weighted sum degenerates to a dilation, so the
    # hit rate must match the exact |alpha|^-t volume scaling.
    est = mc_column_sum_ratio(Q, 6, [Q.from_rational(2)], samples=100_000, seed=3)
    assert abs(est.mean - 2.0**-6) <= 4 * est.std_error


def test_column_sum_complex_place_matches_norm():
    # 1+i acts on the complex embedding as multiplication by sqrt(2)*e^{i pi/4};
    # only the modulus matters for the ball constraint.
    est = mc_column_sum_ratio(QI, 4, [QI.one + QI.gen], samples=100_000, seed=5)
    assert abs(est.mean - 2.0**-4) <= 4 * est.std_error


def test_column_sum_deterministic():
    a = mc_column_sum_ratio(QI, 4, [QI.gen, QI.one], samples=20000, seed=11)
    b = mc_column_sum_ratio(QI, 4, [QI.gen, QI.one], samples=20000, seed=11)
    assert (a.mean, a.std_error, a.samples) == (b.mean, b.std_error, b.samples)


def test_column_sum_pair_below_single():
    # Adding an extra independent summand can only make the combined vector
    # longer in expectation, so the acceptance region shrinks.
    one = mc_column_sum_ratio(Q, 8, [Q.one], samples=50000, seed=13)
    two = mc_column_sum_ratio(Q, 8, [Q.one, Q.one], samples=50000, seed=13)
    assert two.mean < one.mean
    assert one.mean == pytest.approx(1.0)


def test_column_sum_preconditions():
    with pytest.raises(ValueError):
        mc_column_sum_ratio(Q, 6, [Q.one], samples=100)
    with pytest.raises(ValueError):
        mc_column_sum_ratio(Q, 65, [Q.one], samples=20000)
    with pytest.raises(ValueError):
        mc_column_sum_ratio(Q, 6, [Q.zero], samples=20000)
    with pytest.raises(ValueError):
        mc_column_sum_ratio(Q, 6, [], samples=20000)


# ---------------------------------------------------------------------------
# incomplete beta kernel


def _binomial_tail(a: int, b: int, x: Fraction) -> Fraction:
    # I_x(a, b) for integers a, b >= 1 is P(Binomial(a + b - 1, x) >= a)
    n = a + b - 1
    return sum(math.comb(n, j) * x**j * (1 - x) ** (n - j) for j in range(a, n + 1))


def test_betainc_integer_parameters_match_binomial_sums():
    # dyadic x, so x and 1 - x are exact floats; each case is checked as
    # I_x(a, b) and as its complement I_(1-x)(b, a), which covers both tails
    pairs = [(1, 1), (1, 31), (31, 1), (2, 3), (5, 6), (30, 31), (31, 30), (2, 60), (60, 2), (45, 45)]
    xs = [Fraction(1, 2**k) for k in (8, 16, 28)]
    xs += [Fraction(k, 8) for k in (1, 3, 4, 5, 7)]
    xs += [1 - Fraction(1, 2**k) for k in (8, 16, 28)]
    smallest = 1.0
    for a, b in pairs:
        for x in xs:
            exact = _binomial_tail(a, b, x)
            for p, q, u, want in ((a, b, x, exact), (b, a, 1 - x, 1 - exact)):
                if want < Fraction(1, 10**300):
                    continue
                got = _betainc(p, q, float(u), float(1 - u))
                assert got == pytest.approx(float(want), rel=1e-12, abs=0), (p, q, u)
                smallest = min(smallest, float(want))
    assert smallest < 1e-280


def test_betainc_half_integer_matches_quadrature():
    # 40-digit quadrature of the integrand scaled to 1 at the upper limit,
    # so a tiny integral is resolved to relative, not absolute, accuracy
    from mpmath import mp

    with mp.workdps(40):
        for a in (1.5, 5.5, 30.5):
            for b in (1.0, 2.5, 31.5):
                for x in (2.0**-30, 1 / 64, 1 / 4, 1 / 2, 3 / 4, 63 / 64):
                    y = 1.0 - x
                    X, Y = mp.mpf(x), mp.mpf(y)
                    scaled = mp.quad(
                        lambda s: (s / X) ** (a - 1) * ((1 - s) / Y) ** (b - 1), [0, X]
                    )
                    want = scaled * X ** (a - 1) * Y ** (b - 1) / mp.beta(a, b)
                    assert _betainc(a, b, x, y) == pytest.approx(
                        float(want), rel=1e-12, abs=0
                    ), (a, b, x)


def test_betainc_log_scale_and_endpoints():
    # the scale enters the exponent: e^700 times a tail near e^-720 is finite
    tail = _betainc(30.0, 31.0, 2.0**-28, 1 - 2.0**-28)
    scaled = _betainc(30.0, 31.0, 2.0**-28, 1 - 2.0**-28, 700.0)
    assert scaled == pytest.approx(tail * math.exp(700.0), rel=1e-12, abs=0)
    assert _betainc(3.0, 4.0, 0.0, 1.0) == 0.0
    assert _betainc(3.0, 4.0, 1.0, 0.0) == 1.0


def test_gauss_legendre_half_rule():
    # the written-out nodes and weights against numpy's rule, and exactness
    # on monomials up to degree 23 (the mirrored half supplies 1 - x)
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(12)
    lower = sorted(zip((1 + x) / 2, w / 2))[:6]
    for (node, weight), (ref_node, ref_weight) in zip(_GL_HALF, lower):
        assert node == pytest.approx(ref_node, rel=1e-14, abs=0)
        assert weight == pytest.approx(ref_weight, rel=1e-14, abs=0)
    for k in range(24):
        total = sum(g * (u**k + (1 - u) ** k) for u, g in _GL_HALF)
        assert total == pytest.approx(1 / (k + 1), rel=1e-14, abs=0)


# ---------------------------------------------------------------------------
# closed-form Dirichlet ratio


def test_dirichlet_closed_forms():
    assert dirichlet_intersection(Q, 4, Q.from_rational(2)) == pytest.approx(2.0**-4, rel=1e-12, abs=0)
    assert dirichlet_intersection(Q, 6, Q.from_rational(3)) == pytest.approx(3.0**-6, rel=1e-12, abs=0)
    a = QI.one + QI.gen
    assert dirichlet_intersection(QI, 4, a) == pytest.approx(2.0**-4, rel=1e-12, abs=0)


def test_dirichlet_unit_gives_one():
    assert dirichlet_intersection(Q, 4, Q.one) == 1.0
    assert dirichlet_intersection(QI, 4, QI.gen) == 1.0


def test_dirichlet_torsion_invariance():
    a = QI.one + QI.gen
    assert dirichlet_intersection(QI, 4, QI.gen * a) == dirichlet_intersection(QI, 4, a)


def test_dirichlet_known_fault_inputs():
    # the inputs where adaptive quadrature missed the closed form by up to 34%
    for descriptor, coords, t, want in (
        ("Q(sqrt,5)", (2, 0), 20, 2.0**-40),
        ("Q(zeta,5)", (-3, 0, Fraction(-3, 2), 1), 8, None),
        ("Q(zeta,7)", (3, -3, Fraction(1, 2), Fraction(1, 2), -1, -2), 3, None),
        ("Q(sqrt,2)", (1, 0), 40, 1.0),
        ("Q(sqrt,5)", (1, 0), 60, 1.0),
    ):
        F = make_field(descriptor)
        a = F.element(coords)
        if want is None:
            # every place weight is >= 1 here, so the ratio is N(alpha)^-t
            assert min(abs(conjugates(F, a))) > 1.0
            want = float(abs_norm(F, a)) ** -t
        assert dirichlet_intersection(F, t, a) == pytest.approx(want, rel=1e-12, abs=0), descriptor


@pytest.mark.parametrize(
    "descriptor",
    ["Q", "Q(sqrt,-1)", "Q(sqrt,-3)", "Q(zeta,3)", "Q(sqrt,2)", "Q(sqrt,5)",
     "Q(zeta,5)", "Q(zeta,8)", "Q(zeta,12)", "Q(zeta,7)", "Q(zeta,9)"],
)
def test_dirichlet_closed_forms_every_place_count(descriptor):
    # alpha^-1 B lies in B when every |sigma(alpha)| >= 1, and contains B
    # when every |sigma(alpha)| <= 1; elements within 1e-9 of a switch are
    # left to the roots-of-unity check below
    F = make_field(descriptor)
    rng = random.Random(descriptor)
    seen = {"above": 0, "below": 0}
    for i in range(60):
        if i % 2:
            coords = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(F.degree)]
        else:
            # |sigma(alpha)| <= degree/(degree + 1) < 1 at every place
            coords = [Fraction(rng.randint(-1, 1), F.degree + 1) for _ in range(F.degree)]
        a = F.element(coords)
        if not a:
            continue
        mods = abs(conjugates(F, a))
        t = rng.randint(2, 40 // F.degree)
        if min(mods) > 1.0 + 1e-9:
            seen["above"] += 1
            want = float(abs_norm(F, a)) ** -t
        elif max(mods) < 1.0 - 1e-9:
            seen["below"] += 1
            want = 1.0
        else:
            continue
        assert dirichlet_intersection(F, t, a) == pytest.approx(want, rel=1e-12, abs=0), (a, t)
    assert min(seen.values()) > 0, seen
    # roots of unity have every weight 1 up to rounding in the embedding
    for t in (2, 7):
        assert dirichlet_intersection(F, t, F.torsion_generator) == pytest.approx(1.0, rel=1e-12, abs=0)


def _galois_conjugate(F, a, k):
    # the image of a under zeta -> zeta^k, which permutes the places
    return sum((c * F.gen ** (j * k) for j, c in enumerate(a.coords)), F.zero)


def test_dirichlet_three_places_permutation_invariant():
    # the outer coordinate is the first place, so each order of the places is
    # a different integration; all must agree
    for w in ((3.25, 1.56, 0.198), (0.5, 2.0, 0.9), (1.7, 0.05, 4.0)):
        for t in (2, 5):
            values = [_dirichlet_ratio(p, (float(t),) * 3) for p in itertools.permutations(w)]
            assert max(values) == pytest.approx(min(values), rel=1e-12, abs=0)
    for F in (Z7, make_field("Q(zeta,9)")):
        a = F.one + F.gen
        for t in (2, 4):
            values = [dirichlet_intersection(F, t, _galois_conjugate(F, a, k))
                      for k in range(1, F.conductor) if math.gcd(k, F.conductor) == 1]
            assert max(values) == pytest.approx(min(values), rel=1e-12, abs=0)


@settings(max_examples=300, deadline=None)
@given(st.floats(2.0**-30, 2.0**30), st.floats(2.0**-30, 2.0**30), st.integers(2, 200))
def test_dirichlet_two_places_never_exceeds_the_skip_margin(w1, w2, t):
    # truncated_second_moment_rhs skips a term when its weight times
    # 1 + 2^-40 is under half an ulp of the sum, which needs every computed
    # two-place ratio (two real places, exponents t/2) at most that factor
    r = _dirichlet_ratio((w1, w2), (t / 2.0, t / 2.0))
    assert 0.0 <= r <= 1.0 + 2.0**-40


def test_dirichlet_two_places_vs_mc():
    s = Q2.element((1, 1))
    det = dirichlet_intersection(Q2, 6, s)
    est = mc_intersection_ratio(Q2, 6, [s], samples=100000, seed=3)
    assert abs(det - est.mean) <= 4 * est.std_error


def test_dirichlet_three_places_vs_mc():
    # weights 3.25, 1.56 and 0.198: no closed form applies
    a = Z7.one + Z7.gen
    det = dirichlet_intersection(Z7, 2, a)
    est = mc_intersection_ratio(Z7, 2, [a], samples=400_000, seed=5)
    assert abs(det - est.mean) <= 4 * est.std_error


def test_dirichlet_place_limit():
    Z15 = make_field("Q(zeta,15)")
    assert len(Z15.places) == 4
    with pytest.raises(ValueError):
        dirichlet_intersection(Z15, 2, Z15.one + Z15.gen)


@pytest.mark.parametrize("desc", ["Q(sqrt,-1)", "Q(sqrt,2)", "Q(zeta,7)"])
def test_dirichlet_rejects_elements_of_another_field(desc):
    # one, two and three places; over Q(i) an unchecked 1 + sqrt 5 read 0.0625
    Q5 = make_field("Q(sqrt,5)")
    with pytest.raises(ValueError, match="elements belong to different fields"):
        dirichlet_intersection(make_field(desc), 4, Q5.element((1, 1)))


def test_dirichlet_preconditions():
    with pytest.raises(ValueError):
        dirichlet_intersection(Q, 1, Q.one)
    with pytest.raises(ValueError):
        dirichlet_intersection(Q, 4, Q.zero)
    # a bare "t < 2" lets nan through, and the ratio comes out nan
    with pytest.raises(ValueError, match="t >= 2"):
        dirichlet_intersection(QI, math.nan, QI.gen + QI.one)


# ---------------------------------------------------------------------------
# truncated off-diagonal sums


def test_truncated_rational_consistent():
    rep = truncated_second_moment_rhs(Q, 6, 20)
    assert rep.verdict == "consistent"
    assert rep.lower_target == 2.0
    assert rep.lower_target <= rep.partial_sum <= rep.upper_target
    assert rep.terms == 510


def test_truncated_small_cutoff_value():
    # cutoff 2 over the rationals: +-1, +-2, +-1/2 give 2 + 2/64 + 2/64
    rep = truncated_second_moment_rhs(Q, 6, 2)
    assert rep.partial_sum == pytest.approx(2.0 + 4.0 / 64.0, rel=1e-9)


def test_truncated_monotone_in_cutoff():
    small = truncated_second_moment_rhs(Q, 6, 10)
    big = truncated_second_moment_rhs(Q, 6, 20)
    assert big.partial_sum >= small.partial_sum > 0


def test_truncated_gaussian_consistent():
    rep = truncated_second_moment_rhs(QI, 4, 8)
    assert rep.verdict == "consistent"
    assert rep.partial_sum >= 4.0


def test_truncated_real_quadratic_high_t_consistent():
    # the alpha = 1 term alone is 1 and the torsion terms give omega = 2; the
    # quadrature read it as 0.822 and returned "below-main-term"
    Q5 = make_field("Q(sqrt,5)")
    rep = truncated_second_moment_rhs(Q5, 60, 3)
    assert rep.verdict == "consistent"
    assert rep.partial_sum >= float(Q5.omega_K)


def test_truncated_preconditions():
    with pytest.raises(ValueError):
        truncated_second_moment_rhs(Q, 6, 1)


# ---------------------------------------------------------------------------
# random congruence lattices


def test_lattice_moments_deterministic():
    a = random_lattice_moments(6, 2, 2.0, 101, samples=200, seed=9)
    b = random_lattice_moments(6, 2, 2.0, 101, samples=200, seed=9)
    assert [(x.mean, x.std_error) for x in a] == [(x.mean, x.std_error) for x in b]


def test_lattice_moments_match_main_term():
    est = random_lattice_moments(6, 2, 2.0, 101, samples=600, seed=11)
    m1 = float(main_term(MomentQuery(Q, 6, 1, 2.0)))
    m2 = float(main_term(MomentQuery(Q, 6, 2, 2.0)))
    assert abs(est[0].mean - m1) <= 4 * est[0].std_error
    assert abs(est[1].mean - m2) <= 4 * est[1].std_error + 0.5


def test_lattice_counts_are_even():
    # points come in +- pairs, so every count and hence the scaled mean is even
    est = random_lattice_moments(6, 1, 2.0, 101, samples=150, seed=2)
    total = est[0].mean * 150
    assert round(total) % 2 == 0


def test_lattice_moments_radius_cap():
    with pytest.raises(ValueError):
        random_lattice_moments(2, 1, 1000.0, 11, samples=10, seed=0)


def test_lattice_moments_preconditions():
    with pytest.raises(ValueError):
        random_lattice_moments(1, 1, 1.0, 101, samples=10)
    with pytest.raises(ValueError):
        random_lattice_moments(6, 0, 1.0, 101, samples=10)
    with pytest.raises(ValueError):
        random_lattice_moments(6, 1, -1.0, 101, samples=10)


@pytest.mark.parametrize("V", [math.inf, math.nan])
def test_lattice_moments_reject_a_volume_that_is_not_finite(V):
    with pytest.raises(ValueError, match="finite"):
        random_lattice_moments(6, 1, V, 101, samples=10)


@pytest.mark.parametrize("p", [2, 25, 100, 1001])
def test_lattice_moments_reject_a_p_that_is_not_an_odd_prime(p):
    # the covolume assumes index p^(t-1), which holds for prime p only
    with pytest.raises(ValueError, match="odd prime"):
        random_lattice_moments(2, 1, 2.0, p, samples=10)


# ---------------------------------------------------------------------------
# unit census


def test_unit_census_knife_edges():
    for F in (Q2, Q3):
        h = weil_height(F, fundamental_unit(F))
        count, bound = unit_enumeration_check(F, h)
        assert count == 6 and bound == pytest.approx(6.0)
        count3, bound3 = unit_enumeration_check(F, 3 * h)
        assert count3 == 14 and bound3 == pytest.approx(14.0)


def test_unit_census_torsion_only_window():
    h = weil_height(Q2, fundamental_unit(Q2))
    count, bound = unit_enumeration_check(Q2, 0.5 * h)
    assert count == 2
    assert bound >= count


def test_unit_census_preconditions():
    with pytest.raises(ValueError):
        unit_enumeration_check(QI, 1.0)
    with pytest.raises(ValueError):
        unit_enumeration_check(Q, 1.0)
    with pytest.raises(ValueError):
        unit_enumeration_check(Q2, -1.0)


# ---------------------------------------------------------------------------
# trinomial heights


def test_mahler_sequence_limit():
    seq = mahler_sequence(40)
    assert len(seq) == 36
    assert all(h > 0 for h in seq)
    M40 = math.exp(40 * seq[-1])
    assert abs(M40 - 1.3815) <= 0.01


def test_mahler_sequence_range():
    with pytest.raises(ValueError):
        mahler_sequence(4)
    with pytest.raises(ValueError):
        mahler_sequence(61)


# ---------------------------------------------------------------------------
# termwise comparison


def test_lower_bound_units_family():
    r = lower_bound_sum_check(Q2, 6, 5, family="units")
    assert r["checked"] == 22
    assert r["min_margin"] >= -1e-12
    assert r["sum_lhs"] <= r["sum_rhs"] + 1e-12


def test_lower_bound_all_family_rational_is_tight():
    # one archimedean place makes the termwise inequality an identity
    r = lower_bound_sum_check(Q, 6, 8, family="all")
    assert r["sum_lhs"] == pytest.approx(r["sum_rhs"], rel=1e-9)


def test_lower_bound_gaussian_box():
    r = lower_bound_sum_check(QI, 4, 3, family="all")
    assert r["min_margin"] >= -1e-12
    assert r["checked"] > 0


def test_lower_bound_family_errors():
    with pytest.raises(ValueError):
        lower_bound_sum_check(Q, 6, 5, family="nope")
    with pytest.raises(ValueError):
        lower_bound_sum_check(QI, 4, 5, family="units")
    # with t = nan every term compares false, so the check would read as a pass
    with pytest.raises(ValueError, match="t >= 2"):
        lower_bound_sum_check(QI, math.nan, 2)
    # an empty walk would pass vacuously
    for F, family in ((Q, "all"), (Q2, "units")):
        for cutoff in (0, -3):
            with pytest.raises(ValueError):
                lower_bound_sum_check(F, 6, cutoff, family=family)
        for t, cutoff in ((1, 0), (1, 3), (0, 3)):
            with pytest.raises(ValueError):
                lower_bound_sum_check(F, t, cutoff, family=family)


def test_box_oracle_golden_values():
    # the floats the box oracles printed before they ran on integer pairs
    assert truncated_second_moment_rhs(Q, 6, 20).partial_sum == 2.07699989511315
    assert truncated_second_moment_rhs(QI, 4, 8).partial_sum == 4.64085425794614
    Q5 = make_field("Q(sqrt,5)")
    assert truncated_second_moment_rhs(Q5, 27, 3).partial_sum == 2.060015381038513
    assert truncated_second_moment_rhs(Q5, 60, 3).partial_sum == 2.001073248605309
    assert lower_bound_sum_check(QI, 4, 3, "all") == {
        "checked": 128, "min_margin": -8.673617379884035e-19,
        "sum_lhs": 4.578591941609453, "sum_rhs": 4.578591941609453,
    }
    assert lower_bound_sum_check(Q2, 5, 4, "all") == {
        "checked": 264, "min_margin": -1.3877787807814457e-17,
        "sum_lhs": 2.2009275324371163, "sum_rhs": 2.5366164164628056,
    }
    assert lower_bound_sum_check(Q2, 6, 5, "units") == {
        "checked": 22, "min_margin": 0.0,
        "sum_lhs": 2.0203050891043537, "sum_rhs": 2.2011024657757803,
    }


# the box fields of the term-by-term comparison and its t grid; no cutoff
# from 2 to 4 takes longer than a few ms per call
_BOX_FIELDS = ("Q", "Q(sqrt,-1)", "Q(sqrt,-3)", "Q(sqrt,2)", "Q(sqrt,5)", "Q(sqrt,13)")
_BOX_TS = (*range(2, 20), 27, 40, 60)


@pytest.mark.parametrize("desc", _BOX_FIELDS)
def test_box_oracles_equal_the_term_by_term_reference(desc):
    # skipped terms and stacked embeddings leave every float as it was
    F = make_field(desc)
    admitted = 0
    for cutoff in (2, 3, 4):
        elems = box_elements(F, cutoff)
        for t in _BOX_TS:
            assert lower_bound_sum_check(F, t, cutoff, "all") == lower_bound_terms(F, t, elems)
            try:
                rep = truncated_second_moment_rhs(F, t, cutoff)
            except ThresholdError:
                continue
            admitted += 1
            assert rep.partial_sum == truncated_partial_sum(F, t, cutoff), (t, cutoff)
            assert rep.terms == len(elems)
            assert 0 <= rep.skipped < rep.terms
    assert admitted > 0


@pytest.mark.parametrize("desc", ["Q(sqrt,2)", "Q(sqrt,5)", "Q(sqrt,13)"])
def test_lower_bound_units_family_equals_the_term_by_term_reference(desc):
    F = make_field(desc)
    eps = fundamental_unit(F)
    for t, cutoff in ((2, 3), (6, 5), (17, 2)):
        powers = [0] + [s * k for k in range(1, cutoff + 1) for s in (1, -1)]
        units = [tor * eps**k for tor in enumerate_torsion(F) for k in powers]
        elems = [(u.num, u.den, denominator_norm(F, [u])) for u in units]
        assert lower_bound_sum_check(F, t, cutoff, "units") == lower_bound_terms(F, t, elems)


def test_truncated_sum_skips_terms_that_cannot_move_it():
    # most of the 128 Q(sqrt,5) box terms at cutoff 3 weigh under half an
    # ulp of the running sum
    Q5 = make_field("Q(sqrt,5)")
    for t in (27, 60):
        rep = truncated_second_moment_rhs(Q5, t, 3)
        assert rep.terms == 128
        assert rep.skipped > 0
        assert rep.partial_sum == truncated_partial_sum(Q5, t, 3)


@pytest.mark.parametrize("desc", [
    "Q", "Q(sqrt,-1)", "Q(sqrt,-3)", "Q(sqrt,2)", "Q(sqrt,5)",
    "Q(zeta,5)", "Q(zeta,7)", "Q(zeta,8)", "Q(zeta,11)",
])
def test_stacked_embeddings_equal_one_product_per_element(desc):
    # bit for bit: the box oracles and the heights rely on it
    F = make_field(desc)
    rng = random.Random(desc)
    xs = [F.element([Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(F.degree)])
          for _ in range(400)]
    rows = [x.floats() for x in xs]
    stacked = _embed_rows(F, rows)
    assert stacked.shape == (len(xs), F.degree)
    assert np.array_equal(stacked, np.array([F.embed_matrix @ np.array(r) for r in rows]))
    assert all(np.array_equal(conjugates(F, x), F.embed_matrix @ np.array(r))
               for x, r in zip(xs, rows))
    if F.degree <= 2:
        box = [[x / c for x in num] for num, c, _ in box_elements(F, 4)]
        assert np.array_equal(_embed_rows(F, box), np.array([F.embed_matrix @ r for r in box]))


# ---------------------------------------------------------------------------
# report helper


def test_verification_report_verdicts():
    good = verification_report("x", {}, 1.0, 0.1, 0.9)
    assert good["verdict"] == "consistent"
    bad = verification_report("x", {}, 1.0, 0.01, 0.9)
    assert bad["verdict"] == "violated"
    det = verification_report("x", {}, 0.5, 0.0, 0.5)
    assert det["verdict"] == "consistent"
