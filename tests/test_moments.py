import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

import latmoment as lm
from latmoment.moments import (
    MomentQuery,
    MomentReport,
    a1m_bound,
    ball_volume,
    main_term,
    poisson_moment,
    poisson_moment_series,
    rogers_error,
    stirling2,
    two_ball_intersection,
)


# ---------------------------------------------------------------------------
# Stirling numbers


def _set_partitions(elems):
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield part + [[first]]


def test_stirling_examples():
    assert stirling2(3, 2) == 3
    for n in range(1, 9):
        assert stirling2(n, n) == 1
        assert stirling2(n, 1) == 1
    assert stirling2(0, 0) == 1


def test_stirling_against_partitions():
    parts = list(_set_partitions([1, 2, 3, 4]))
    assert len(parts) == 15 == sum(stirling2(4, m) for m in range(5))
    for m in range(1, 5):
        assert stirling2(4, m) == sum(1 for p in parts if len(p) == m)


def test_stirling_range_errors():
    with pytest.raises(ValueError):
        stirling2(3, 4)
    with pytest.raises(ValueError):
        stirling2(3, -1)


# ---------------------------------------------------------------------------
# Poisson moments


def test_poisson_moment_quadratic():
    for lam in [Fraction(1), Fraction(1, 2), Fraction(7, 3)]:
        assert poisson_moment(2, lam) == lam * lam + lam
    assert poisson_moment(2, 1) == 2


def test_poisson_moment_third_at_one():
    # coefficients 1, 3, 1
    assert poisson_moment(3, 1) == 5
    assert poisson_moment(3, Fraction(2)) == 8 + 3 * 4 + 2


def test_poisson_moment_at_zero():
    for n in range(1, 6):
        assert poisson_moment(n, 0) == 0


def test_poisson_moment_rejects_negative():
    with pytest.raises(ValueError):
        poisson_moment(2, -1)
    with pytest.raises(ValueError):
        poisson_moment(0, 1)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_poisson_moments_reject_a_rate_that_is_not_finite(lam):
    # nan and inf pass a bare "lam < 0" test; the series would run all its
    # terms and return nan
    for moment in (poisson_moment, poisson_moment_series):
        with pytest.raises(ValueError, match="finite"):
            moment(3, lam)
    big = Fraction(10**400)
    assert poisson_moment(2, big) == big * big + big


def test_poisson_series_rejects_a_rate_beyond_its_term_cap():
    # the stop rule needs r > 2 (lam + n), which the 10^5-term cap never
    # reaches here: the sum would end early and return 0.0
    with pytest.raises(ValueError, match="series stops"):
        poisson_moment_series(1, 2e5)


def test_touchard_vs_series():
    for n in range(1, 9):
        for x in [0.0, 0.3, 1.0, 2.7, 10.0]:
            a = poisson_moment(n, x)
            b = poisson_moment_series(n, x)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


# ---------------------------------------------------------------------------
# queries, reports, main term


def test_moment_query_validation():
    Q = lm.make_field("Q")
    Qi = lm.make_field("Q(sqrt,-1)")
    MomentQuery(Qi, 2, 3, 1.0)
    with pytest.raises(ValueError):
        MomentQuery(Q, 1, 1, 1.0)
    with pytest.raises(ValueError):
        MomentQuery(Q, 2, 2, 1.0)  # t*d = n
    with pytest.raises(ValueError):
        MomentQuery(Q, 3, 2, -1.0)
    with pytest.raises(ValueError):
        MomentQuery(Q, 3, 0, 1.0)


@pytest.mark.parametrize("V", [math.inf, math.nan])
def test_moment_query_rejects_a_volume_that_is_not_finite(V):
    Q = lm.make_field("Q")
    with pytest.raises(ValueError, match="finite"):
        MomentQuery(Q, 3, 2, V)
    MomentQuery(Q, 3, 2, Fraction(10**400))


def test_moment_report_validation():
    MomentReport(3.0, 3.0, 4.0, {"tail": 1.0})
    with pytest.raises(ValueError):
        MomentReport(3.0, 3.5, 4.0)
    with pytest.raises(ValueError):
        MomentReport(3.0, 3.0, 2.0)
    with pytest.raises(ValueError):
        MomentReport(3.0, 3.0, 4.0, {"tail": -0.1})


def test_main_term_rational_example():
    Q = lm.make_field("Q")
    out = main_term(MomentQuery(Q, 3, 2, 1))
    assert out == 3 and isinstance(out, Fraction)


def test_main_term_first_moment_is_volume():
    F = lm.make_field("Q(zeta,5)")
    for V in [Fraction(1), Fraction(37, 10), 2.25]:
        assert main_term(MomentQuery(F, 2, 1, V)) == V


@pytest.mark.parametrize("desc", ["Q", "Q(sqrt,-1)", "Q(sqrt,-3)", "Q(zeta,5)"])
def test_main_term_matches_stirling_sum(desc):
    # omega^n m_n(V/omega) against its expansion sum_m S(n,m) omega^(n-m) V^m
    F = lm.make_field(desc)
    w = F.omega_K
    assert w in (2, 4, 6, 10)
    for n in range(1, 9):
        for V in [Fraction(1, 2), Fraction(1), Fraction(5, 2)]:
            expansion = sum(stirling2(n, m) * w ** (n - m) * V**m for m in range(1, n + 1))
            assert main_term(MomentQuery(F, 9, n, V)) == expansion
        expansion = sum(stirling2(n, m) * w ** (n - m) * 2.5**m for m in range(1, n + 1))
        assert main_term(MomentQuery(F, 9, n, 2.5)) == pytest.approx(expansion, rel=1e-12)


@pytest.mark.parametrize("desc", ["Q", "Q(sqrt,-1)", "Q(sqrt,-3)", "Q(zeta,5)"])
def test_main_term_second_moment_formula(desc):
    F = lm.make_field(desc)
    w = F.omega_K
    for V in [Fraction(1), Fraction(5, 2), Fraction(9, 7)]:
        assert main_term(MomentQuery(F, 3, 2, V)) == V * V + w * V
    approx = main_term(MomentQuery(F, 3, 2, 2.5))
    assert approx == pytest.approx(2.5**2 + w * 2.5, rel=1e-12)


# ---------------------------------------------------------------------------
# matrix-class counting


def _count_Am_bruteforce(F, n, m):
    # all m x n matrices with one nonzero entry per column, values in the
    # torsion group, that are row reduced with no zero row
    units = lm.enumerate_torsion(F)
    one = F.one
    count = 0
    for cols in itertools.product(
        [(i, u) for i in range(m) for u in units], repeat=n
    ):
        first = {}
        for j, (i, u) in enumerate(cols):
            if i not in first:
                first[i] = (j, u)
        if len(first) != m:
            continue
        if any(u != one for (_, u) in first.values()):
            continue
        piv = [first[i][0] for i in range(m)]
        if all(piv[i] < piv[i + 1] for i in range(m - 1)):
            count += 1
    return count


def test_count_Am_examples():
    Q = lm.make_field("Q")
    Qi = lm.make_field("Q(sqrt,-1)")
    assert Q.omega_K ** (2 - 1) * stirling2(2, 1) == 2
    assert Q.omega_K ** (2 - 2) * stirling2(2, 2) == 1
    assert Qi.omega_K ** (2 - 1) * stirling2(2, 1) == 4


@pytest.mark.parametrize("desc", ["Q", "Q(sqrt,2)", "Q(sqrt,-1)", "Q(sqrt,-3)"])
def test_count_Am_enumeration(desc):
    F = lm.make_field(desc)
    for n in range(1, 4):
        for m in range(1, n + 1):
            assert F.omega_K ** (n - m) * stirling2(n, m) == _count_Am_bruteforce(F, n, m)


# ---------------------------------------------------------------------------
# volumes


def test_ball_volume_examples():
    assert ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-14)
    assert ball_volume(4) == pytest.approx(math.pi**2 / 2, rel=1e-14)
    with pytest.raises(ValueError):
        ball_volume(0)


# ---------------------------------------------------------------------------
# error terms


def test_rogers_error_values():
    assert rogers_error(2, 12) == pytest.approx(4479 / 4096, rel=1e-12)
    expected = 2 * 27 * (math.sqrt(3) / 2) ** 16 + 21 * 125 * 2**-16
    assert rogers_error(3, 16) == pytest.approx(expected, rel=1e-12)


def test_rogers_error_decay():
    prev = rogers_error(2, 12)
    for t in range(13, 60):
        cur = rogers_error(2, t)
        assert 0 < cur < prev
        prev = cur
    assert rogers_error(2, 500) < 1e-30


def test_rogers_error_warns_below_threshold():
    with pytest.warns(UserWarning):
        rogers_error(3, 4)


def test_a1m_bound_values():
    Q = lm.make_field("Q")
    Qi = lm.make_field("Q(sqrt,-1)")
    assert a1m_bound(Q, 2, 12) == pytest.approx(8 * (math.sqrt(3) / 2) ** 12, rel=1e-12)
    v = a1m_bound(Qi, 3, 20)
    assert 0 < v < math.inf
    assert a1m_bound(Qi, 3, 40) < v
    with pytest.raises(ValueError):
        a1m_bound(Q, 12, 12)


# ---------------------------------------------------------------------------
# two-ball intersections


def test_two_ball_endpoints():
    for N in [2, 3, 5, 8]:
        assert two_ball_intersection(N, 0.0) == pytest.approx(1.0, abs=1e-9)
        assert two_ball_intersection(N, 2.0) == 0.0
        assert two_ball_intersection(N, 3.5) == 0.0
    with pytest.raises(ValueError):
        two_ball_intersection(1, 0.5)


def test_two_ball_rejects_a_nan_distance():
    # nan fails every comparison, and mpmath's betainc does not return on it
    with pytest.raises(ValueError, match="center distance"):
        two_ball_intersection(6, math.nan)
    assert two_ball_intersection(6, math.inf) == 0.0


def test_two_ball_closed_form_dim3():
    assert two_ball_intersection(3, 1.0) == pytest.approx(5 / 16, abs=1e-9)


def _two_ball_quadrature(N, delta):
    # 30-digit quadrature of the defining integral; the integrand is scaled
    # to 1 at the lower limit so the quadrature's absolute tolerance is a
    # relative one for tiny overlaps
    with mp.workdps(30):
        lo = mp.mpf(delta) / 2
        e = mp.mpf(N - 1) / 2
        scale = (1 - lo * lo) ** e
        integral = mp.quad(lambda r: (1 - r * r) ** e / scale, [lo, 1]) * scale
        ratio = mp.gamma(mp.mpf(N) / 2 + 1) / (mp.sqrt(mp.pi) * mp.gamma(mp.mpf(N + 1) / 2))
        return 2 * ratio * integral


def test_two_ball_matches_quadrature():
    # relative accuracy also on tiny overlaps such as (39, 1.9), about
    # 7.9e-22, where any absolute tolerance would pass
    for N in range(2, 40):
        for delta in (0.0, 0.3, 0.7, 1.0, 1.5, 1.9, 1.99, 1.999):
            ref = float(_two_ball_quadrature(N, delta))
            got = two_ball_intersection(N, delta)
            assert got == pytest.approx(ref, rel=1e-12, abs=0), (N, delta)


def test_two_ball_monotone_in_delta():
    for N in [2, 3, 5, 8]:
        vals = [two_ball_intersection(N, 0.2 * k) for k in range(11)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12


def test_two_ball_monotone_in_dim():
    vals = [two_ball_intersection(N, 0.7) for N in range(2, 9)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12


def _ball_samples(rng, count, N):
    g = rng.standard_normal((count, N))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g * (rng.random((count, 1)) ** (1 / N))


def test_two_ball_monte_carlo():
    rng = np.random.default_rng(20240817)
    x = _ball_samples(rng, 200000, 3)
    z = np.array([1.0, 0.0, 0.0])
    p = float(np.mean(np.linalg.norm(x - z, axis=1) <= 1.0))
    assert abs(p - 5 / 16) < 0.005


# ---------------------------------------------------------------------------
# convolution inequality, empirically


def _block_rotation(rng, N):
    R = np.zeros((N, N))
    for k in range(0, N - 1, 2):
        a = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(a), math.sin(a)
        R[k, k], R[k, k + 1], R[k + 1, k], R[k + 1, k + 1] = c, -s, s, c
    if N % 2:
        R[N - 1, N - 1] = rng.choice([-1.0, 1.0])
    return R


@pytest.mark.parametrize("N", [4, 8])
def test_shifted_triple_product_not_larger(N):
    # P(a x + b y + z in ball) <= P(a x + b y in ball) + 3 combined SE,
    # for norm-preserving a, b and any shift z
    rng = np.random.default_rng(500 + N)
    count = 40000
    x = _ball_samples(rng, count, N)
    y = _ball_samples(rng, count, N)
    A = _block_rotation(rng, N)
    B = _block_rotation(rng, N)
    s = x @ A.T + y @ B.T
    z = rng.standard_normal(N)
    z *= 0.6 / np.linalg.norm(z)
    hits0 = np.linalg.norm(s, axis=1) <= 1.0
    hitsz = np.linalg.norm(s + z, axis=1) <= 1.0
    p0, pz = float(hits0.mean()), float(hitsz.mean())
    se = math.sqrt((p0 * (1 - p0) + pz * (1 - pz)) / count)
    assert pz <= p0 + 3 * se
