import itertools
import math
import random
from fractions import Fraction
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv

import latmoment as lm
from latmoment.bounds import (
    BoundReport,
    HeightHypothesis,
    ThresholdError,
    ZetaInterval,
    _FIX_BITS,
    _ONE as _FIX_ONE,
    _POWER_CACHE_SIZE,
    _RESIDUE_CACHE_SIZE,
    _ZETA_CACHE_SIZE,
    _characters,
    _composite_zeta,
    _dirichlet_product,
    _fix_float_floor,
    _fix_mul,
    _fix_mul_positive,
    _fix_ratio,
    _kronecker_phases,
    _log_base,
    _pair_epsilon,
    _power_table,
    _prime_power_exp,
    _prime_power_root,
    _residue_sums,
    _simplex_project,
    _zeta_endpoints,
    _zeta_key,
    _zeta_power_product,
    a2m_bound,
    alpha_M,
    best_k_threshold,
    column_height_ratio_bound,
    cyclotomic_second_moment_constants,
    dedekind_zeta,
    dedekind_zeta_field,
    default_hypothesis,
    ellipsoid_intersection_bound,
    f_M,
    ideal_sum_bound,
    moment_bounds,
    second_moment_bounds,
    t0_threshold,
    unit_count_bound,
    volume_ratio_height_bound,
    voutier_hypothesis,
)
from latmoment import bounds as bounds_module, moments as moments_module
from latmoment.moments import MomentQuery
from latmoment.numberfield import abs_norm, cyclotomic_field, fundamental_unit, make_field
from latmoment.heights import weil_height
from refroutes import (
    _EULER_CACHE_SIZE,
    _euler_interval,
    _quadratic_ideal_counts,
    _quadratic_splitting,
    _splitting,
    alpha_exponent_iv,
    best_k_scan,
    composite_zeta_iv,
    cyclotomic_constants_iv,
    euler_zeta,
    inverse_powers_by,
    inverse_powers_two_exps,
    largest_factor_sieve,
    prime_power_400,
)

Q = make_field("Q")
QI = make_field("Q(sqrt,-1)")
Q2 = make_field("Q(sqrt,2)")
Q5 = make_field("Q(sqrt,5)")
Z5 = make_field("Q(zeta,5)")


# ---------------------------------------------------------------------------
# comparison functions


def test_f1_is_cosh():
    for x in (-2.0, -0.3, 0.0, 0.7, 5.0):
        assert f_M(1, x) == pytest.approx(math.cosh(x), rel=1e-15)


def test_f_M_values():
    assert f_M(3, 0.0) == 1.0
    assert f_M(2, 1.0) == pytest.approx(1.3104477159614374, rel=1e-12)
    assert f_M(2, 0.24) == pytest.approx(1.015030, abs=1e-6)
    assert f_M(5, 0.24) == pytest.approx(1.006153, abs=1e-6)


def test_f_g_domain_errors():
    with pytest.raises(ValueError):
        f_M(0, 1.0)
    # f_M in the multiplicative variable y = e^x: y = 0 is outside its domain
    with pytest.raises(ValueError):
        f_M(2, math.log(0.0))
    with pytest.raises(ValueError):
        f_M(0, math.log(1.0))


@given(st.integers(1, 8), st.floats(-30, 30))
@settings(max_examples=80, deadline=None)
def test_f_M_at_least_one(m, x):
    # weighted AM-GM: the geometric mean of e^x (weight 1) and e^(-x/m)
    # (weight m) is 1
    assert f_M(m, x) >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# certified exponent


def test_alpha_certificate_samples():
    rng = np.random.default_rng(7)
    for m in (1, 2, 5):
        a = alpha_M(m, 0.24)
        assert 0 < a < 1
        xs = rng.uniform(0.12, 60.0, 300).tolist()
        assert all(f_M(m, x) >= math.exp(a * x) * (1 - 1e-9) for x in xs)


def test_alpha_binding_at_left_endpoint():
    # for M = 1 the constraint is tight where log cosh(x)/x is smallest,
    # the left end of the range
    a = alpha_M(1, 0.24)
    assert a == pytest.approx(math.log(math.cosh(0.12)) / 0.12, abs=2e-3)


def test_alpha_decreasing_in_M():
    vals = [alpha_M(m, 0.24) for m in (1, 2, 3, 5)]
    assert all(x > y > 0 for x, y in zip(vals, vals[1:]))


def test_alpha_increasing_in_c0():
    assert alpha_M(2, 0.5) > alpha_M(2, 0.24) > alpha_M(2, 0.1)


def test_alpha_domain_errors():
    with pytest.raises(ValueError):
        alpha_M(0, 0.24)
    with pytest.raises(ValueError):
        alpha_M(2, 0.0)
    # truncating M = 2.5 to 2 would return 0.03057, above the supremum
    # 0.02456 at M = 2.5
    for M in (2.5, 2.0, Fraction(5, 2), "2"):
        with pytest.raises(ValueError, match="integer M"):
            alpha_M(M, 0.24)
    assert alpha_M(np.int64(2), 0.24) == alpha_M(2, 0.24)


def _alpha_supremum(M, c0):
    # 2 log f_M(c0/2)/c0 at 40 digits
    with mpmath.workdps(40):
        x = mpmath.mpf(c0) / 2
        return 2 * mpmath.log((mpmath.exp(x) + M * mpmath.exp(-x / M)) / (M + 1)) / c0


def test_alpha_is_the_left_endpoint_supremum_rounded_down():
    # the default c0 and c1 of Q and Q(sqrt,5), the Voutier floors, small,
    # moderate and huge floors
    c0s = (default_hypothesis(Q).c0, default_hypothesis(Q).c1,
           default_hypothesis(Q5).c0, default_hypothesis(Q5).c1,
           *(voutier_hypothesis(d).c0 for d in (3, 6, 20)),
           0.01, 0.05, 1.0, 2.0, 99.0, 200.0, 1e6)
    for M in range(1, 9):
        for c0 in c0s:
            a, A = alpha_M(M, c0), _alpha_supremum(M, c0)
            assert 0 <= a <= A, (M, c0)
            if A >= 1e-6:
                assert (A - a) / A <= 2.0**-45, (M, c0)


def test_alpha_equals_the_iv_route():
    # the libmp enclosure against the same expression in mpmath.iv, with ==
    c0s = [10 ** (-9 + 11.5 * i / 100) for i in range(101)]
    c0s += [default_hypothesis(Q).c0, default_hypothesis(Q5).c0, default_hypothesis(Q5).c1,
            0.24, 1e300, 5e-324]
    for M in (*range(1, 9), 2**90 + 1):
        for c0 in c0s:
            assert alpha_M(M, c0) == alpha_exponent_iv(M, c0), (M, c0)


def test_alpha_past_the_old_grid_end():
    assert 0 < alpha_M(1, 200.0) < 1


def test_alpha_rejects_non_finite_c0():
    for c0 in (math.inf, math.nan):
        with pytest.raises(ValueError):
            alpha_M(2, c0)


def test_logs_of_bases_past_the_float_range_are_lower_bounds():
    # where f_M or cosh overflows the stand-in x - log(M + 1), one float
    # down, is below the true log; below that the value is math.log of the
    # base itself
    for M in (1, 2, 5):
        for x in (709.0, 709.7):
            assert _log_base(M, x) == math.log(f_M(M, x))
        for x in (709.8, 1e12, 7.5e299):
            log_f = _log_base(M, x)
            assert log_f == math.nextafter(x - math.log(M + 1), -math.inf)
            with mpmath.workdps(30):
                y = mpmath.mpf(x)
                assert log_f <= mpmath.log((mpmath.exp(y) + M * mpmath.exp(-y / M)) / (M + 1))
    def cosh(_, x):
        return math.cosh(x)

    assert _log_base(1, 710.0, cosh) == math.log(math.cosh(710.0))
    assert _log_base(1, 1e12, cosh) < 1e12 - math.log(2)


def test_thresholds_at_floors_past_the_float_range_are_the_counting_entries():
    # a huge floor leaves the rank entries far below the counting entries
    hyp = HeightHypothesis(1e300, 1e300)
    for M, k in ((1, 26), (2, 48), (5, 115)):
        for shifted in (False, True):
            assert t0_threshold(M, k, hyp, shifted=shifted) == k * M + 0.5
    rep = second_moment_bounds(Q5, hyp, 4000.0, 1)
    assert rep.constants["t0"] == 4.5 and rep.upper == 3.0


def test_pair_epsilon_caps_leave_the_minimum_unchanged():
    # below the overflow the capped arguments give the uncapped formula
    for M in (1, 2, 3, 7, 40):
        for j in (9.0, 14.0, 3.0 * 41 + 2.0):
            for c1 in (1e-9, 1e-3, 0.2, 1.0, 2.9, 3.0, 10.0, 40.0, 200.0, 900.0):
                want = 0.5 * math.log(min(4.0 / 3.0, math.exp(c1 / j), f_M(M, 0.75 * c1)))
                assert _pair_epsilon(c1, j, M) == want, (M, j, c1)
            assert _pair_epsilon(1e300, j, M) == 0.5 * math.log(4.0 / 3.0)


# ---------------------------------------------------------------------------
# hypotheses


def test_default_hypothesis_values():
    h = default_hypothesis(Z5)
    assert h.c0 == pytest.approx(0.5 * math.log((1 + math.sqrt(5)) / 2), rel=1e-12)
    assert h.c1 == pytest.approx(math.log(5) / 12, rel=1e-12)
    assert default_hypothesis(QI).c0 == h.c0
    hq = default_hypothesis(Q)
    assert hq.c0 == hq.c1 == pytest.approx(math.log(2), rel=1e-12)


def test_hypothesis_validation():
    with pytest.raises(ValueError):
        HeightHypothesis(0.1, 0.2)
    with pytest.raises(ValueError):
        HeightHypothesis(0.1, 0.0)
    with pytest.raises(ValueError):
        HeightHypothesis(math.inf, 0.1)


def test_voutier_floor():
    with pytest.raises(ValueError):
        voutier_hypothesis(2)
    h = voutier_hypothesis(10)
    assert 0 < h.c0 == h.c1 < 0.01
    assert h.provenance == "voutier"
    # decreasing in the degree once past the small-degree hump
    assert voutier_hypothesis(100).c0 < voutier_hypothesis(20).c0


# ---------------------------------------------------------------------------
# thresholds


TABLE = [(1, 26, 27), (2, 48, 97), (3, 70, 213), (4, 92, 372), (5, 115, 576)]
HC = HeightHypothesis(0.24, 0.12)


def test_threshold_table():
    sups = [t0_threshold(M, k, HC, rank_ratio=0.5) for M, k, _ in TABLE]
    assert sups == pytest.approx([26.5, 96.5, 210.5, 368.5, 575.5], abs=1e-9)
    for (M, k, target), sup in zip(TABLE, sups):
        assert sup < target


def test_threshold_rank_zero_is_counting_entry():
    assert t0_threshold(3, 7, HC, rank_ratio=0.0) == 21.5


def test_threshold_shifted_at_least_plain():
    for M, k, _ in TABLE:
        assert t0_threshold(M, k, HC, rank_ratio=0.5, shifted=True) >= t0_threshold(
            M, k, HC, rank_ratio=0.5
        )


def test_threshold_monotone_in_c0():
    ks = [t0_threshold(2, 10, HeightHypothesis(c, c / 2), rank_ratio=0.5)
          for c in (0.1, 0.2, 0.4, 0.8)]
    assert all(a >= b for a, b in zip(ks, ks[1:]))


def test_threshold_domain():
    with pytest.raises(ValueError):
        t0_threshold(0, 5, HC)
    with pytest.raises(ValueError):
        t0_threshold(1, 1, HC)
    with pytest.raises(ValueError):
        t0_threshold(1, 5, HC, rank_ratio=-0.1)


def test_best_k_ratio_window():
    for M in (20, 30, 40, 50, 60):
        _, t0 = best_k_threshold(M, HC, rank_ratio=0.5)
        assert 20.0 <= t0 / M**2 <= 23.0


def test_best_k_beats_fixed_k():
    k, t0 = best_k_threshold(4, HC, rank_ratio=0.5)
    assert t0 <= t0_threshold(4, 92, HC, rank_ratio=0.5) + 1e-12
    assert t0 == t0_threshold(4, k, HC, rank_ratio=0.5)


# the one-k-at-a-time scan ends near k = t0 / M; below this it takes
# under about 0.1 s
_SCAN_K_MAX = 50_000


@pytest.mark.parametrize("M", [1, 2, 3, 4, 5])
def test_best_k_equals_the_linear_scan(M):
    compared = 0
    for c0 in (0.01, 0.02, 0.05, 0.1203, 0.24, 0.5, 1.0, 3.0, 20.0):
        for rank_ratio in (0.0, 0.25, 0.5, 1.0, 3.0):
            hyp = HeightHypothesis(c0, c0)
            k, t0 = best_k_threshold(M, hyp, rank_ratio)
            if t0 / M > _SCAN_K_MAX:
                continue
            assert (k, t0) == best_k_scan(M, hyp, rank_ratio), (c0, rank_ratio)
            compared += 1
    assert compared >= 40


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.floats(0.02, 10.0), st.floats(0.0, 4.0))
def test_best_k_equals_the_linear_scan_at_random_floors(M, c0, rank_ratio):
    hyp = HeightHypothesis(c0, c0)
    k, t0 = best_k_threshold(M, hyp, rank_ratio)
    if t0 / M <= _SCAN_K_MAX:
        assert (k, t0) == best_k_scan(M, hyp, rank_ratio)


def test_best_k_at_small_height_floors():
    # the scan's own results at c0 = 1e-3 (1.4 million k, about 2 s each)
    hyp = HeightHypothesis(1e-3, 1e-3)
    assert best_k_threshold(1, hyp) == (1386294, 1386294.9524335572)
    # near 10^12 k the scan never ends; the rounded rank entry is constant
    # over runs of k there, and the first k of the binding run is returned
    hyp = HeightHypothesis(1e-6, 1e-6)
    k, t0 = best_k_threshold(1, hyp)
    assert 10**12 < k <= t0 < 2 * 10**12
    assert t0 == t0_threshold(1, k, hyp)
    assert t0_threshold(1, k - 1, hyp) > t0
    assert t0_threshold(1, math.ceil(t0), hyp) > t0


def test_best_k_with_an_overflowing_rank_entry_raises():
    # the rank entry's numerator overflows to inf; best_k_threshold once
    # doubled k about 1,000 times and then raised OverflowError
    with pytest.raises(ThresholdError) as exc:
        best_k_threshold(3, HeightHypothesis(0.24, 0.24), rank_ratio=1e308)
    assert exc.value.t0 == math.inf


# ---------------------------------------------------------------------------
# report validation


def test_zeta_interval_validation():
    ZetaInterval(2.0, 1, 1.5, 1.7)
    with pytest.raises(ValueError):
        ZetaInterval(2.0, 1, 1.7, 1.5)
    with pytest.raises(ValueError):
        ZetaInterval(2.0, 1, 0.0, 1.5)


def test_bound_report_validation():
    with pytest.raises(ValueError):
        BoundReport(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        BoundReport(1.0, 0.1, 1.0, math.inf)
    with pytest.raises(ValueError):
        BoundReport(1.0, 0.1, "mystery", 1.0)
    rep = BoundReport(1.0, 0.1, "unresolved", 1.0)
    assert rep.C == "unresolved"


# ---------------------------------------------------------------------------
# zeta intervals


def test_zeta_rational_contains_basel():
    z = dedekind_zeta(1, 2.0, 10000)
    assert z.value_low <= math.pi**2 / 6 <= z.value_high
    assert z.value_high - z.value_low < 1e-3
    z3 = dedekind_zeta(1, 3.0, 2000)
    assert z3.value_low <= 1.2020569031595943 <= z3.value_high


def test_zeta_gaussian_value():
    z = dedekind_zeta(4, 2.0, 10000)
    assert z.value_high - z.value_low < 1e-3
    # pi^2/6 * Catalan's constant, L(2, chi_4), at 30 digits
    with mpmath.workdps(30):
        assert z.value_low <= float(mpmath.zeta(2) * mpmath.catalan) <= z.value_high


def test_zeta_conductor_normalization():
    a = dedekind_zeta(6, 2.0, 500)
    b = dedekind_zeta(3, 2.0, 500)
    assert (a.value_low, a.value_high) == (b.value_low, b.value_high)
    assert dedekind_zeta(2, 2.0, 500).conductor == 1


def test_zeta_nesting_in_P():
    for n in (1, 5, 8):
        wide = euler_zeta(n, 1.5, 200)
        tight = euler_zeta(n, 1.5, 2000)
        assert wide.value_low - 1e-12 <= tight.value_low
        assert tight.value_high <= wide.value_high + 1e-12
        assert tight.value_high - tight.value_low < wide.value_high - wide.value_low


def test_zeta_domain():
    with pytest.raises(ValueError):
        dedekind_zeta(5, 1.0)
    for s in (math.inf, math.nan):
        with pytest.raises(ValueError):
            dedekind_zeta(5, s)
    with pytest.raises(ValueError):
        dedekind_zeta(0, 2.0)


def test_zeta_without_primes_is_the_tail_bound():
    # P = 1 takes no prime, so the interval is [1, s/(s-1)], which must
    # still contain zeta(s), however close to 1 it is
    for s in (2.0, 40.0):
        z = euler_zeta(1, s, 1)
        assert z.value_low <= float(mpmath.zeta(s)) <= z.value_high


def test_zeta_needs_a_positive_cutoff():
    for P in (0, -5):
        with pytest.raises(ValueError):
            dedekind_zeta(5, 2.0, P)
        with pytest.raises(ValueError):
            dedekind_zeta_field(Q5, 2.0, P)


def _splitting_by_hand(field, p):
    # (f, g) of p in Q (n = 1), Q(zeta,5), Q(zeta,8) and Q(sqrt,5)
    if field == 1:
        return 1, 1
    if field in (5, 8):
        if field % p == 0:
            return 1, 1
        f = next(f for f in range(1, 5) if pow(p, f, field) == 1)
        return f, 4 // f
    if p == 5:
        return 1, 1
    return (1, 2) if p % 5 in (1, 4) else (2, 1)


def _untruncated_euler_interval(field, d, s, P):
    # every prime p <= P, with the tail bound applied at P
    old = iv.prec
    iv.prec = 80
    try:
        one, s_iv = iv.mpf(1), iv.mpf(s)
        partial = one
        for p in range(2, P + 1):
            if all(p % q for q in range(2, math.isqrt(p) + 1)):
                f, g = _splitting_by_hand(field, p)
                partial *= (one - iv.mpf(p) ** (-s_iv * f)) ** (-g)
        high = partial * (one + iv.mpf(P) ** (one - s_iv) / (s_iv - one)) ** d
        lo = math.nextafter(float(partial.a), -math.inf)
        hi = math.nextafter(float(high.b), math.inf)
    finally:
        iv.prec = old
    return lo, hi


def test_zeta_precision_cutoff_matches_the_full_product():
    # primes past the cutoff cannot move the 80-bit product, so the low
    # endpoint is unchanged and the tail bound at the cutoff is no looser
    for s in (13.7, 40.0, 201.2, 847.5):
        for P in (600, 10_000):
            cases = [(n, len([a for a in range(1, n + 1) if math.gcd(a, n) == 1]),
                      euler_zeta(n, s, P)) for n in (1, 5, 8)]
            cases.append(("Q(sqrt,5)", 2, euler_zeta(Q5, s, P)))
            for field, d, z in cases:
                lo, hi = _untruncated_euler_interval(field, d, s, P)
                assert z.value_low == lo, (field, s, P)
                assert z.value_high <= hi, (field, s, P)


def test_zeta_memo_keeps_80_bits_and_the_callers_precision():
    _euler_interval.cache_clear()
    old = iv.prec
    try:
        iv.prec = 20
        at_20_bits = euler_zeta(5, 3.3, 700)
        assert iv.prec == 20
    finally:
        iv.prec = old
    _euler_interval.cache_clear()
    at_default = euler_zeta(5, 3.3, 700)
    assert at_20_bits == at_default
    hits = _euler_interval.cache_info().hits
    assert euler_zeta(5, 3.3, 700) == at_default
    assert _euler_interval.cache_info().hits == hits + 1
    assert _euler_interval.cache_info().maxsize == _EULER_CACHE_SIZE


def test_zeta_power_boundedness():
    z1 = dedekind_zeta(1, 2.0, 4000)
    for n in range(3, 13):
        z = dedekind_zeta(n, 2.0, 4000)
        d = len([a for a in range(1, n) if math.gcd(a, n) == 1])
        assert z.value_high <= z1.value_high**d * 1.001


# ---------------------------------------------------------------------------
# the L-function backend

ZETA_CONDUCTORS = (1, 3, 4, 5, 7, 8, 9, 11, 12, 15, 16)
ZETA_QUADRATIC_D = (2, 3, 5, 6, 7, 13, -2, -5, -7, -15)
ZETA_S = (1.02, 1.1, 1.25, 1.5, 2.0, 3.7, 13.7, 40.0, 201.2, 847.5, 7642.0)


def test_zeta_backend_is_ulp_tight_inside_the_euler_reference():
    targets = [(dedekind_zeta, n) for n in ZETA_CONDUCTORS]
    targets += [(dedekind_zeta_field, make_field(f"Q(sqrt,{D})")) for D in ZETA_QUADRATIC_D]
    for zeta, target in targets:
        for s in ZETA_S:
            z = zeta(target, s)
            ref = euler_zeta(target, s, 10_000)
            assert ref.value_low <= z.value_low <= z.value_high <= ref.value_high, (target, s)
            assert 0 < z.value_high - z.value_low <= 2 * math.ulp(z.value_high), (target, s)


def test_zeta_backend_stays_tight_over_many_characters():
    # 100 conjugate pairs of conductor up to 500, many with |L|^2 far from
    # 1: accumulating E + E delta instead of E (1 + delta) widened this
    # interval to a relative 7e-9
    z = dedekind_zeta(500, 1.5)
    ref = euler_zeta(500, 1.5, 10_000)
    assert ref.value_low <= z.value_low <= z.value_high <= ref.value_high
    assert 0 < z.value_high - z.value_low <= 2 * math.ulp(z.value_high)


# endpoints of the 80-bit mpmath.iv backend that the fixed-point kernel
# replaced, as (conductor or field, s, value_low, value_high); the kernel
# encloses every quantity more tightly, so its intervals lie inside these
ZETA_GOLDEN = (
    (1, 1.02, 50.57867004101555, 50.57867004101556),
    (1, 1.5, 2.6123753486854877, 2.6123753486854886),
    (1, 40.5, 1.0000000000006428, 1.0000000000006433),
    (3, 1.5, 1.839029289152468, 1.8390292891524684),
    (3, 2.0625, 1.2554415387651257, 1.255441538765126),
    (3, 300.25, 0.9999999999999999, 1.0000000000000002),
    (4, 2.0625, 1.4642585790151117, 1.4642585790151121),
    (4, 3.7, 1.0895650562227646, 1.089565056222765),
    (4, 7642.0, 0.9999999999999999, 1.0000000000000002),
    (5, 3.7, 1.0032160124233558, 1.0032160124233562),
    (5, 1.02, 17.5809087398481, 17.580908739848105),
    (5, 40.5, 0.9999999999999999, 1.0000000000000002),
    (7, 1.02, 14.967367686989528, 14.967367686989531),
    (7, 1.5, 1.2823183223070787, 1.282318322307079),
    (7, 300.25, 0.9999999999999999, 1.0000000000000002),
    (8, 1.5, 1.9180046114895395, 1.91800461148954),
    (8, 2.0625, 1.3695361427257162, 1.3695361427257167),
    (8, 7642.0, 0.9999999999999999, 1.0000000000000002),
    (15, 2.0625, 1.0177779567758356, 1.017777956775836),
    (15, 3.7, 1.0001034143804264, 1.0001034143804268),
    (15, 40.5, 0.9999999999999999, 1.0000000000000002),
    (24, 3.7, 1.0065799642591837, 1.0065799642591842),
    (24, 1.02, 15.66197068639154, 15.661970686391543),
    (24, 300.25, 0.9999999999999999, 1.0000000000000002),
    ("Q(sqrt,5)", 1.02, 22.12816491543214, 22.128164915432148),
    ("Q(sqrt,5)", 1.5, 1.5351959146888203, 1.5351959146888208),
    ("Q(sqrt,5)", 7642.0, 0.9999999999999999, 1.0000000000000002),
    ("Q(sqrt,1001)", 1.5, 3.7304437562900965, 3.7304437562900974),
    ("Q(sqrt,1001)", 2.0625, 1.9671558871596568, 1.9671558871596573),
    ("Q(sqrt,1001)", 40.5, 1.0000000000012859, 1.0000000000012863),
)


def test_zeta_backend_stays_inside_the_golden_endpoints():
    for target, s, low, high in ZETA_GOLDEN:
        if isinstance(target, int):
            z = dedekind_zeta(target, s)
        else:
            z = dedekind_zeta_field(make_field(target), s)
        assert low <= z.value_low <= z.value_high <= high, (target, s)


def _exact(pair):
    return Fraction(pair[0], _FIX_ONE), Fraction(pair[1], _FIX_ONE)


def _encloses(pair, x):
    lo, hi = _exact(pair)
    return lo <= x <= hi


_fix_ints = st.integers(-(2**260), 2**260)


@st.composite
def _fix_pairs(draw):
    lo, hi = sorted((draw(_fix_ints), draw(_fix_ints)))
    return lo, hi


@settings(max_examples=300, deadline=None)
@given(_fix_pairs(), _fix_pairs(), st.floats(0, 1), st.floats(0, 1),
       _fix_ints, st.integers(1, 2**200))
def test_zeta_backend_pair_arithmetic_encloses_exact_results(a, b, u, v, num, den):
    # a point of each pair, the exact results and the pairs that enclose them
    (a_lo, a_hi), (b_lo, b_hi) = _exact(a), _exact(b)
    x = a_lo + (a_hi - a_lo) * Fraction(u)
    y = b_lo + (b_hi - b_lo) * Fraction(v)
    assert _encloses(_fix_mul(a, b), x * y)
    assert _encloses((a[0] + b[0], a[1] + b[1]), x + y)
    lo, hi = _fix_ratio(num, den)
    assert _encloses((lo, hi), Fraction(num, den)) and hi - lo <= 1
    # the float below a nonnegative end is the largest one
    n = abs(num)
    f = _fix_float_floor(n)
    assert Fraction(f) <= Fraction(n, _FIX_ONE) < Fraction(math.nextafter(f, math.inf))


@settings(max_examples=300, deadline=None)
@given(_fix_pairs(), st.integers(0, 2**260), st.integers(0, 2**260))
def test_positive_pair_product_equals_the_four_product_route(a, u, v):
    b = (min(u, v), max(u, v))
    assert _fix_mul_positive(a, b) == _fix_mul(a, b)


def _inverse_powers(s, size):
    # entries 0..size of s's table from the per-s memo
    low, high = _power_table(s).grow(size)
    return low[:size + 1], high[:size + 1]


def test_zeta_backend_prime_powers_enclose_50_digit_values():
    with mpmath.workdps(50):
        for s in ZETA_S:
            low, high = _inverse_powers(s, 1000)
            for n in range(2, 1001):
                exact = mpmath.mpf(n) ** -mpmath.mpf(s) * 2**_FIX_BITS
                assert low[n] <= exact <= high[n], (n, s)


def _is_dyadic(s):
    # s = N/2^k with 2^k <= 16: the package's integer-root route
    return s.as_integer_ratio()[1] <= 16


def test_one_exponential_per_prime_equals_the_two_exponential_route():
    # a table grows in place and is shared by every request at its s, so
    # it equals a fresh one in either order of sizes and across s; at a
    # dyadic s its primes are the exact pairs of the 400-bit reference
    rng = np.random.default_rng(2801)
    grid = ZETA_S + tuple(float(x) for x in rng.uniform(1, 120, 40))
    assert sum(map(_is_dyadic, grid)) == 6
    for sizes in ((17, 1000, 136), (136, 1000, 17)):
        _clear_memos()
        for s in grid:
            for size in sizes:
                want = (inverse_powers_by(partial(prime_power_400, s), size) if _is_dyadic(s)
                        else inverse_powers_two_exps(s, size))
                assert _inverse_powers(s, size) == want, (s, size)
        assert _power_table.cache_info().hits > 0


def test_sieve_grown_in_steps_equals_one_sieve(monkeypatch):
    # the shared sieve grows in place; each size reads the same entries as
    # a sieve of that size alone, so no table depends on the one before
    monkeypatch.setattr(bounds_module, "_LARGEST_FACTOR", [0, 1])
    for size in (17, 136, 135, 1000, 1001, 17 * 1024):
        assert bounds_module._sieve(size)[:size + 1] == largest_factor_sieve(size), size


def test_dyadic_prime_powers_are_exact_and_inside_the_exponential_route():
    # s = N/2^k, k <= 4, from 1 + 1/16 to 64: every s below 2 and a seeded
    # sample above, with 64 itself, over the primes up to 2000; at the
    # large s the bit-length rule answers (0, 1) with no power taken
    rng = random.Random(3501)
    grid = [1 + j / 16 for j in range(1, 17)] + [64.0] + [
        n / 2**k for k in range(5) for n in rng.sample(range(2 * 2**k + 1, 64 * 2**k), 6)]
    primes = [p for p in range(2, 2001) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    shortcut = 0
    for s in grid:
        N, D = s.as_integer_ratio()
        assert D <= 16 and 1 < s <= 64
        for p in primes:
            lo, hi = pair = _prime_power_root(N, D, p)
            assert pair == prime_power_400(s, p), (s, p)
            exp_lo, exp_hi = _prime_power_exp(s, p)
            assert exp_lo <= lo <= hi <= exp_hi, (s, p)
            shortcut += pair == (0, 1)
    assert shortcut > 0


def _skips(d, s):
    # the skip rule of _zeta_endpoints for a field of degree d
    return d * 2.0**-s * (1 + 2 / (s - 1)) < 2.0**-60


def _rounded_product(key, s):
    lo, hi = _dirichlet_product(_characters(key), s)
    return (math.nextafter(_fix_float_floor(lo), -math.inf),
            math.nextafter(_fix_float_floor(hi), math.inf))


def _key_degree(key):
    return 2 if key[0] == "quadratic" else cyclotomic_field(key[1]).degree


def test_zeta_endpoints_equal_the_rounded_product_across_the_skip():
    # the skip bound d 2^-s (1 + 2/(s - 1)), d the degree, crosses 2^-60
    # inside [55, 80] for every key, so the grid has products that are
    # taken and products that are skipped; from s = 40 up it also has
    # endpoints above the floats beside 1, which a skip taken too early
    # would miss
    targets = list(ZETA_CONDUCTORS) + [make_field(f"Q(sqrt,{D})") for D in ZETA_QUADRATIC_D]
    for key, _ in map(_zeta_key, targets):
        skipped = 0
        for s in (40 + 0.25 * i for i in range(161)):
            assert _zeta_endpoints(key, s) == _rounded_product(key, s), (key, s)
            skipped += _skips(_key_degree(key), s)
        assert 0 < skipped < 101, key


def test_skip_by_degree_equals_the_product_where_the_table_rule_took_it():
    # the skip rule once bounded the degree by 2 len(characters), which
    # skips later; at every s of a 1/64 grid where only the degree rule
    # skips, the product taken in full rounds to the floats beside 1
    beside_one = (math.nextafter(1.0, -math.inf), math.nextafter(1.0, math.inf))
    targets = [*ZETA_CONDUCTORS, 47, 101,
               *(make_field(f"Q(sqrt,{D})") for D in ZETA_QUADRATIC_D + (1001,))]
    band = 0
    for key, _ in map(_zeta_key, targets):
        for s in (50 + i / 64 for i in range(64 * 30)):
            if _skips(_key_degree(key), s) and not _skips(2 * len(_characters(key)), s):
                assert _rounded_product(key, s) == beside_one == _zeta_endpoints(key, s), (key, s)
                band += 1
    assert band > 500, band


def test_skip_by_bit_length_needs_no_factoring(monkeypatch):
    # phi(n) <= n < 2^b decides far above the cutoff before any trial
    # division, and a conductor past the float range is never converted
    def no_factoring(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(bounds_module, "_factorize", no_factoring)
    beside_one = (math.nextafter(1.0, -math.inf), math.nextafter(1.0, math.inf))
    for n in (10**18 + 3, 10**400 + 1, 5):
        assert _zeta_endpoints.__wrapped__(("cyclotomic", n), 1e12) == beside_one, n
    with pytest.raises(AssertionError, match="factored"):
        _zeta_endpoints.__wrapped__(("cyclotomic", 1021), 60.0)
    # past the bit-length rule a conductor above the bound is refused
    # before the trial division that reads phi(n)
    for key in (("cyclotomic", 10**18 + 3), ("cyclotomic", 1025), ("quadratic", -1027)):
        with pytest.raises(ValueError, match="conductor of at most 1024"):
            _zeta_endpoints.__wrapped__(key, 60.0)


def test_skip_rule_builds_no_character_table():
    # far above the cutoff the degree decides, read from the key (the table
    # of conductor 100000 once took minutes; tests/test_cli.py runs it)
    _clear_memos()
    beside_one = (math.nextafter(1.0, -math.inf), math.nextafter(1.0, math.inf))
    for z in (dedekind_zeta(5, 1e12), dedekind_zeta(47, 300.0),
              dedekind_zeta_field(make_field("Q(sqrt,1001)"), 1e12)):
        assert (z.value_low, z.value_high) == beside_one
    assert _characters.cache_info().misses == 0


def _characters_by_search(n):
    # every character mod n as {unit: k}, chi(unit) = e^(2 pi i k/m), found
    # by trying all values on a greedy generating set and keeping the ones
    # that extend consistently over the Cayley graph
    units = [a for a in range(1, n + 1) if math.gcd(a, n) == 1]
    m = math.lcm(*(next(e for e in range(1, n + 1) if pow(a, e, n) == 1 % n) for a in units))
    gens, span = [], {1 % n}
    for a in units:
        if a % n not in span:
            gens.append(a % n)
            while True:
                grown = span | {x * g % n for x in span for g in gens}
                if grown == span:
                    break
                span = grown
    chars = []
    for values in np.ndindex(*([m] * len(gens))):
        phase, todo, ok = {1 % n: 0}, [1 % n], True
        while todo and ok:
            x = todo.pop()
            for g, v in zip(gens, values):
                y, k = x * g % n, (phase[x] + v) % m
                if y not in phase:
                    phase[y] = k
                    todo.append(y)
                elif phase[y] != k:
                    ok = False
        if ok:
            chars.append(phase)
    assert len(chars) == len(units)
    return chars, m


def _zeta_by_dirichlet(n, s):
    # zeta(s) prod L(s, chi*) over the characters chi mod n, each reduced to
    # its primitive character chi* of the smallest modulus f it factors through
    chars, m = _characters_by_search(n)
    value = mpmath.mpf(1)
    for phase in chars:
        f = next(f for f in range(1, n + 1) if n % f == 0
                 and all(k == 0 for a, k in phase.items() if (a - 1) % f == 0))
        if f == 1:
            value *= mpmath.zeta(s)
            continue
        table = []
        for b in range(f):
            a = next((a for a in phase if math.gcd(b, f) == 1 and (a - b) % f == 0), None)
            table.append(0 if a is None else mpmath.expjpi(mpmath.mpf(2 * phase[a]) / m))
        value *= mpmath.dirichlet(s, table)
    return value.real


def test_zeta_backend_composite_conductors_match_dirichlet_l_products():
    with mpmath.workdps(30):
        for n in (8, 9, 12, 15, 16):
            for s in ZETA_S:
                want = _zeta_by_dirichlet(n, mpmath.mpf(s))
                z = dedekind_zeta(n, s)
                assert z.value_low <= want <= z.value_high, (n, s)


def test_zeta_backend_ignores_P_in_its_memo():
    _zeta_endpoints.cache_clear()
    a = dedekind_zeta(5, 2.0, 600)
    b = dedekind_zeta(5, 2.0, 10_000)
    assert (a.value_low, a.value_high) == (b.value_low, b.value_high)
    info = _zeta_endpoints.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert info.maxsize == _ZETA_CACHE_SIZE


def test_zeta_backend_keeps_80_bits_and_the_callers_precision():
    _zeta_endpoints.cache_clear()
    at_default = dedekind_zeta(7, 1.3)
    _zeta_endpoints.cache_clear()
    old_prec, old_dps = iv.prec, mpmath.mp.dps
    try:
        iv.prec, mpmath.mp.dps = 20, 7
        at_low_precision = dedekind_zeta_field(make_field("Q(zeta,7)"), 1.3)
        assert (iv.prec, mpmath.mp.dps) == (20, 7)
    finally:
        iv.prec, mpmath.mp.dps = old_prec, old_dps
    assert (at_low_precision.value_low, at_low_precision.value_high) == (
        at_default.value_low, at_default.value_high)


def _factor_products(factors):
    # the 80-bit products of the factor endpoints that a composed interval
    # must contain: the lows (highs for negative exponents) and the highs
    old = iv.prec
    iv.prec = 80
    try:
        lo = hi = iv.mpf(1)
        for low, high, e in factors:
            a, b = (low, high) if e >= 0 else (high, low)
            lo *= iv.mpf(a) ** e
            hi *= iv.mpf(b) ** e
        return lo.a, hi.b
    finally:
        iv.prec = old


def test_composed_zeta_factors_round_outward():
    for F in (Q, QI, Q5, Z5, make_field("Q(zeta,7)")):
        for t in range(27, 67, 2):
            parts = [(t * 0.5, 1.0), (t / 9.0, 2.25), (0.75 * t, -1.0), (t / 13.0, 3.0)]
            lo, hi = _composite_zeta(F, parts)
            factors = []
            for s_i, e_i in parts:
                zi = dedekind_zeta_field(F, s_i)
                factors.append((zi.value_low, zi.value_high, e_i))
            want_lo, want_hi = _factor_products(factors)
            assert lo <= want_lo and want_hi <= hi, (F.descriptor, t)


def test_composed_zeta_factors_equal_the_iv_route():
    for F in (Q, QI, Q5, Z5, make_field("Q(zeta,7)")):
        for t in range(27, 67, 2):
            parts = [(t * 0.5, 1.0), (t / 9.0, 2.25), (0.75 * t, -1.0), (t / 13.0, 3.0)]
            assert _composite_zeta(F, parts) == composite_zeta_iv(F, parts), (F, t)
            if F.degree >= 2:
                c = cyclotomic_second_moment_constants(F, float(t))
                want = cyclotomic_constants_iv(F.degree, float(t), c["zeta1"], c["zeta2"])
                assert (c["C_low"], c["C_high"]) == want, (F.descriptor, t)


@pytest.mark.parametrize("desc,conductor", [
    ("Q", 1), ("Q(sqrt,-1)", 4), ("Q(sqrt,-3)", 3), ("Q(zeta,5)", 5), ("Q(sqrt,5)", "Q(sqrt,5)"),
])
def test_composed_zeta_reports_the_factor_conductor(desc, conductor):
    F = make_field(desc)
    assert dedekind_zeta_field(F, 2.0).conductor == conductor


# the eight fields of the benchmark's bracket sweep, and one of degree 46
MEMO_FIELDS = ("Q", "Q(sqrt,-1)", "Q(sqrt,-3)", "Q(sqrt,2)", "Q(sqrt,5)",
               "Q(zeta,5)", "Q(zeta,7)", "Q(zeta,8)", "Q(zeta,47)")


def _clear_memos():
    for module in (bounds_module, moments_module):
        for memo in vars(module).values():
            if hasattr(memo, "cache_clear"):
                memo.cache_clear()


def _memo_sweep_calls(F, n: int, t: int, V) -> list:
    hyp = default_hypothesis(F)
    calls = [partial(moment_bounds, MomentQuery(F, t, n, V), hyp),
             partial(second_moment_bounds, F, hyp, float(t), V)]
    if n >= 3:
        calls.append(partial(ideal_sum_bound, F, hyp, float(t), n - 1, 4))
    calls.extend(partial(a2m_bound, F, hyp, float(t), n, m) for m in range(2, n))
    return calls


def test_memoized_reports_equal_reports_from_cleared_memos():
    # from the threshold, where the zeta factors are wide, to t = 5000,
    # where each rounds to the floats beside 1
    _clear_memos()
    calls = []
    for desc in MEMO_FIELDS:
        F = make_field(desc)
        for n in (2, 3, 4):
            with pytest.raises(ThresholdError) as exc:
                moment_bounds(MomentQuery(F, n + 1, n, 1), default_hypothesis(F))
            t_min = math.floor(exc.value.t0) + 1
            for t in sorted({t_min, t_min + 37, max(t_min, 5000)}):
                for V in (1, 4, Fraction(5, 2)):
                    calls.extend(_memo_sweep_calls(F, n, t, V))
    warm = [call() for call in calls]
    assert _zeta_power_product.cache_info().hits > 0
    assert moments_module._main_term.cache_info().hits > 0
    for call, report in zip(calls, warm):
        _clear_memos()
        assert call() == report, call


def test_composition_memo_is_shared_across_t():
    hyp = default_hypothesis(Z5)
    _zeta_power_product.cache_clear()
    moment_bounds(MomentQuery(Z5, 4000, 3, 1), hyp)
    before = _zeta_power_product.cache_info()
    rep = moment_bounds(MomentQuery(Z5, 6000, 3, 4), hyp)
    after = _zeta_power_product.cache_info()
    z = dedekind_zeta_field(Z5, 6000 / 9)
    assert (z.value_low, z.value_high) == (math.nextafter(1.0, -math.inf),
                                           math.nextafter(1.0, math.inf))
    assert rep.constants["zeta_high"] > 1
    assert after.misses == before.misses
    assert after.hits > before.hits
    assert after.maxsize == _ZETA_CACHE_SIZE


def test_zeta_endpoints_do_not_depend_on_the_fields_before_them():
    # fields sharing an s share p^-s and residue sums (conductor 1 always,
    # 5 between Q(sqrt,5) and Q(zeta,5), 8 between Q(sqrt,2) and Q(zeta,8));
    # the grid straddles the skip rule, which crosses 2^-60 inside [55, 80]
    fields = [make_field(d) for d in MEMO_FIELDS + ("Q(sqrt,1001)",)]
    calls = [(F, s) for F in fields for s in (1.5, 2.0625, 13.7, 40.5, 57.25, 66.0, 80.0)]
    random.Random(3002).shuffle(calls)
    _clear_memos()
    warm = [dedekind_zeta_field(F, s) for F, s in calls]
    assert _residue_sums.cache_info().hits > 0
    assert _power_table.cache_info().hits > 0
    for (F, s), z in zip(calls, warm):
        _clear_memos()
        assert dedekind_zeta_field(F, s) == z, (F.descriptor, s)


def test_zeta_calls_leave_entry_one_of_every_table_at_one():
    # L(s, chi) - 1 leaves n = 1 out of the sums without changing any table
    for desc in ("Q", "Q(zeta,8)", "Q(sqrt,5)", "Q(zeta,47)"):
        _clear_memos()
        for s in (1.5, 13.7):
            dedekind_zeta_field(make_field(desc), s)
            for size in (17, 136, 1000):
                low, high = _inverse_powers(s, size)
                assert low[1] == high[1] == _FIX_ONE, (desc, s, size)


# the package's memos that keep every key, each with its key set: the
# field constructors, since field identity is field equality, and two
# memos whose key sets are finite
_UNBOUNDED_MEMOS = {
    "numberfield.rational_field": "one key: the field Q",
    "numberfield.quadratic_field": "one field per squarefree D asked for",
    "numberfield._cyclotomic_field_cached": "one field per conductor asked for",
    "bounds._log_bounds": "the primes of a power table, below 17 * _MAX_CONDUCTOR",
    "bounds._bernoulli_ratios": "one key: no arguments",
}


def _package_memos():
    import importlib
    import pkgutil

    for info in pkgutil.iter_modules(lm.__path__):
        module = importlib.import_module(f"latmoment.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module.__name__:
                yield f"{info.name}.{name}", obj


def test_shared_kernel_memos_are_bounded_lru_caches():
    dedekind_zeta_field(make_field("Q(zeta,7)"), 2.5)
    for memo, size in ((_power_table, _POWER_CACHE_SIZE),
                       (_residue_sums, _RESIDUE_CACHE_SIZE)):
        assert memo.cache_info().currsize > 0
        assert memo.cache_info().maxsize == size
    _clear_memos()
    assert _power_table.cache_info().currsize == _residue_sums.cache_info().currsize == 0
    # every memo in the package, found by introspection, has a bound
    # unless it is listed with its finite key set
    memos = dict(_package_memos())
    assert len(memos) >= 15
    assert set(_UNBOUNDED_MEMOS) <= set(memos)
    for name, memo in memos.items():
        if name in _UNBOUNDED_MEMOS:
            assert memo.cache_info().maxsize is None, name
        else:
            assert memo.cache_info().maxsize is not None, name
    assert memos["bounds._characters"].cache_info().maxsize == 16
    assert memos["bounds._alpha_exponent"].cache_info().maxsize == 1024


def test_fields_and_zeta_share_the_conductor_rule():
    for n in range(1, 41):
        assert dedekind_zeta(n, 2.0).conductor == (cyclotomic_field(n).conductor or 1), n
    for n in (0, -4):
        for build in (cyclotomic_field, lambda n: dedekind_zeta(n, 2.0)):
            with pytest.raises(ValueError, match="conductor must be a positive integer"):
                build(n)


def test_cyclotomic_constants_enclose_the_exact_scalar():
    # the true constant lies between the 40-digit scalar (t0 = 267/10
    # exactly) times the zeta lows and times the zeta highs; the float
    # scalar misses it near t = 27, where 1 - e^(-x) cancels
    with mpmath.workdps(40):
        for F in (QI, Q5, Z5, make_field("Q(zeta,7)"), make_field("Q(zeta,15)")):
            for t in range(27, 200):
                c = cyclotomic_second_moment_constants(F, float(t))
                x = F.degree * (t - mpmath.mpf(267) / 10) / 1124
                scalar = 3 + 3 / (1 - mpmath.exp(-x))
                z1, z2 = c["zeta1"], c["zeta2"]
                low = scalar * mpmath.mpf(z1.value_low) * z2.value_low
                high = scalar * mpmath.mpf(z1.value_high) * z2.value_high
                assert c["C_low"] <= low and high <= c["C_high"], (F.descriptor, t)


# ---------------------------------------------------------------------------
# quadratic-field zeta backend


def test_quadratic_ideal_counts_gaussian():
    F = QI
    counts = _quadratic_ideal_counts(F, 10)
    assert list(counts[1:]) == [1, 1, 0, 1, 2, 0, 0, 1, 1, 2]


def test_quadratic_splitting_matches_ideal_counts():
    # an independent count of the ideals of norm p: g when p has degree
    # f = 1 primes above it, none when p is inert
    X = 2000
    primes = [p for p in range(2, X + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    for D in (2, 3, 5, 13, -5, -7):
        F = make_field(f"Q(sqrt,{D})")
        counts = _quadratic_ideal_counts(F, X)
        for p in primes:
            f, g = _splitting(("quadratic", F.disc), p)
            assert counts[p] == (g if f == 1 else 0), (D, p)


def test_kronecker_phases_follow_the_reference_splitting_rule():
    # phase 1 at a unit a exactly when an odd number of its prime factors
    # (with multiplicity) stay inert under the reference's splitting rule
    for D in (2, 3, 5, 6, 7, 13, 1001, -2, -5, -7, -15, -163):
        disc = make_field(f"Q(sqrt,{D})").disc
        phases = _kronecker_phases(disc)
        for a, x in enumerate(phases):
            if math.gcd(a, disc) != 1:
                assert x is None, (disc, a)
                continue
            inert, rest = 0, a
            for p in range(2, a + 1):
                while rest % p == 0:
                    rest //= p
                    inert += _quadratic_splitting(disc, p)[0] == 2
            assert x == inert % 2, (disc, a)


def test_quadratic_zeta_sqrt5():
    z = dedekind_zeta_field(Q5, 2.0, 3000)
    chi = {1: 1, 4: 1, 2: -1, 3: -1}
    with mpmath.workdps(30):
        L = mpmath.dirichlet(2, [chi.get(n, 0) for n in range(5)])
        assert z.value_low <= float(mpmath.zeta(2) * L) <= z.value_high


def test_quadratic_zeta_sqrt2():
    z = dedekind_zeta_field(Q2, 2.0, 3000)
    chi = {1: 1, 7: 1, 3: -1, 5: -1}
    with mpmath.workdps(30):
        L = mpmath.dirichlet(2, [chi.get(n, 0) for n in range(8)])
        assert z.value_low <= float(mpmath.zeta(2) * L) <= z.value_high


def test_quadratic_zeta_width_near_pole():
    # zeta(s) L(s, (5/.)) close to s = 1, where the tail bound dominates
    z = dedekind_zeta_field(Q5, 1.12, 600)
    L = mpmath.zeta(1.12) * mpmath.dirichlet(1.12, [0, 1, -1, -1, 1])
    assert z.value_low <= float(L) <= z.value_high
    assert (z.value_high - z.value_low) / z.value_low < 30


def test_quadratic_dispatch_uses_euler_for_cyclotomic_quadratics():
    za = dedekind_zeta_field(QI, 2.0, 10000)
    zb = dedekind_zeta(4, 2.0, 10000)
    assert (za.value_low, za.value_high) == (zb.value_low, zb.value_high)
    zc = dedekind_zeta_field(make_field("Q(sqrt,-3)"), 2.0, 500)
    assert zc.conductor == 3


# ---------------------------------------------------------------------------
# ellipsoid intersections


def test_ellipsoid_optimizer_beats_uniform():
    # uniform weights (1/2, 1/2) give ((1 + 4)/2)^-2, where the optimizer starts
    best = ellipsoid_intersection_bound(Q, 4, (1, 2))
    assert best <= ((1 + 4) / 2) ** -2
    # all weight on alpha = 2 gives the true ratio 2^-4
    assert best == pytest.approx(2.0**-4, rel=1e-6)


def test_ellipsoid_single_unit_is_one():
    assert ellipsoid_intersection_bound(QI, 3, (QI.one,)) == pytest.approx(1.0)


@pytest.mark.parametrize("descriptor", ["Q", "Q(sqrt,-1)", "Q(sqrt,5)", "Q(zeta,8)", "Q(zeta,7)"])
def test_ellipsoid_single_element_never_below_exact_value(descriptor):
    # one element with every |sigma| >= 1 makes the bound tight: it equals
    # |N(alpha)|^-t exactly, so the float result must not round below it;
    # roots of unity make it tight at 1
    F = make_field(descriptor)
    for t in (2, 3, 7):
        for a in (F.from_rational(2), F.from_rational(Fraction(7, 3)), F.one + F.one + F.gen):
            v = ellipsoid_intersection_bound(F, t, (a,))
            assert Fraction(v) >= 1 / abs_norm(F, a) ** t
            assert v == pytest.approx(float(abs_norm(F, a)) ** -t, rel=1e-12)
        v = ellipsoid_intersection_bound(F, t, (F.torsion_generator,))
        assert 1.0 <= v <= 1.0 + 1e-12


def test_ellipsoid_errors():
    with pytest.raises(ValueError):
        ellipsoid_intersection_bound(Q, 4, ())
    with pytest.raises(ValueError):
        ellipsoid_intersection_bound(Q, 4, (0, 2))


@pytest.mark.parametrize("t", [math.nan, 1])
def test_ellipsoid_rejects_t_below_2(t):
    # nan used to raise IndexError from the simplex projection
    with pytest.raises(ValueError, match="need t >= 2"):
        ellipsoid_intersection_bound(QI, t, (QI.element((1, 1)),))


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_simplex_projection_lands_on_simplex(v):
    w = _simplex_project(np.array(v))
    assert (w >= 0).all()
    assert w.sum() == pytest.approx(1.0, abs=1e-9)


def test_simplex_projection_fixes_simplex_points():
    v = np.array([0.2, 0.5, 0.3])
    assert _simplex_project(v) == pytest.approx(v, abs=1e-12)


# ---------------------------------------------------------------------------
# volume-ratio height bound


@pytest.mark.parametrize("entry", [
    "ellipsoid_intersection_bound", "volume_ratio_height_bound",
    "column_height_ratio_bound",
])
def test_bound_inputs_reject_elements_of_another_field(entry):
    # a Q(zeta,5) element offered to Q(sqrt,5) once failed inside numpy
    a = Z5.gen + 1
    call = {
        "ellipsoid_intersection_bound": lambda: ellipsoid_intersection_bound(Q5, 4, [a]),
        "volume_ratio_height_bound": lambda: volume_ratio_height_bound(Q5, 4, [a]),
        "column_height_ratio_bound": lambda: column_height_ratio_bound(Q5, 4, [2, a]),
    }[entry]
    with pytest.raises(ValueError, match="elements belong to different fields"):
        call()


def test_volume_ratio_rational_example():
    v = volume_ratio_height_bound(Q, 4, (Q.from_rational(2),), k=2)
    assert v == pytest.approx(0.16, rel=1e-12)
    # true ratio 2^-4; the bound sits above it
    assert v >= 2.0**-4


def test_volume_ratio_silver_example():
    a = Q2.element((1, 1))
    v = volume_ratio_height_bound(Q2, 6, (a,), k=2)
    h = math.exp(2 * weil_height(Q2, a))
    expect = ((h**0.5 + h**-0.5) / 2) ** -6
    assert v == pytest.approx(expect, rel=1e-12)
    assert v == pytest.approx(0.5685424949238017, rel=1e-9)


def test_volume_ratio_torsion_is_one():
    assert volume_ratio_height_bound(QI, 4, (QI.gen,), k=2) == pytest.approx(1.0)


def test_volume_ratio_fallback_for_small_norm():
    # 2B contains B, so the true ratio is 1; the fallback form must sit at
    # or above it (vacuous is fine, invalid is not)
    half = Q.from_rational(Fraction(1, 2))
    v = volume_ratio_height_bound(Q, 4, (half,), k=2)
    assert math.isfinite(v) and v >= 1.0


def test_volume_ratio_errors():
    with pytest.raises(ValueError):
        volume_ratio_height_bound(Q, 4, (Q.zero,), k=2)
    with pytest.raises(ValueError):
        volume_ratio_height_bound(Q, 4, (Q.one,), k=1)


@pytest.mark.parametrize("t", [math.nan, 1])
def test_volume_ratio_rejects_t_below_2(t):
    # nan used to return a nan bound
    with pytest.raises(ValueError, match="need t >= 2"):
        volume_ratio_height_bound(QI, t, (QI.element((1, 1)),))


def test_column_form_matches_plain_form_at_single_entry():
    # at M=1 the gamma-ratio prefactor is 1 and the two displays coincide:
    # 0.16 is the plain form at 2, which volume_ratio_height_bound takes as
    # its fallback below norm 1, at 1/2
    a = Q.from_rational(2)
    assert column_height_ratio_bound(Q, 4, (a,)) == pytest.approx(0.16, rel=1e-12)
    half = Q.from_rational(Fraction(1, 2))
    assert column_height_ratio_bound(Q, 4, (half,)) == pytest.approx(
        volume_ratio_height_bound(Q, 4, (half,)), rel=1e-12)


def test_column_form_pair_value():
    v = column_height_ratio_bound(Q, 4, (Q.from_rational(2), Q.from_rational(3)))
    # (M+1)^(M t d/2) Gamma(3)^2/Gamma(5) base^(-2), base = 9 + 2*6/3 = 13
    assert v == pytest.approx(81.0 * (4.0 / 24.0) / 169.0, rel=1e-12)
    # the intersection is the smallest nested ball
    assert v >= 3.0**-4


def test_column_form_torsion_single_is_one():
    assert column_height_ratio_bound(QI, 4, (QI.gen,)) == pytest.approx(1.0)


def test_column_form_dominates_true_silver_ratio():
    a = Q2.element((1, 1))
    from latmoment.oracle import dirichlet_intersection

    assert column_height_ratio_bound(Q2, 6, [a]) >= dirichlet_intersection(Q2, 6, a)


def test_column_form_errors():
    with pytest.raises(ValueError):
        column_height_ratio_bound(Q, 4, (Q.zero,))
    with pytest.raises(ValueError):
        column_height_ratio_bound(Q, 4, ())


@pytest.mark.parametrize("t", [math.nan, 1])
def test_column_form_rejects_t_below_2(t):
    # nan used to return a nan bound
    with pytest.raises(ValueError, match="need t >= 2"):
        column_height_ratio_bound(QI, t, (QI.element((1, 1)),))


# ---------------------------------------------------------------------------
# unit counts


def test_unit_count_rational():
    hq = default_hypothesis(Q)
    assert unit_count_bound(Q, hq, 0.0) == 2.0
    assert unit_count_bound(Q, hq, 100.0) == 2.0


def test_unit_count_real_quadratic():
    he = weil_height(Q2, fundamental_unit(Q2))
    hyp = HeightHypothesis(he, he)
    assert unit_count_bound(Q2, hyp, he) == pytest.approx(6.0, rel=1e-12)
    assert unit_count_bound(Q2, hyp, 3 * he) == pytest.approx(14.0, rel=1e-12)


def test_unit_count_errors():
    hyp = HeightHypothesis(0.24, 0.24)
    with pytest.raises(ValueError):
        unit_count_bound(Q2, hyp, -1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        unit_count_bound(Q2, hyp, math.nan)


# ---------------------------------------------------------------------------
# ideal sums


def test_height_floors_too_small_raise_instead_of_dividing_by_zero():
    # log f_M, log cosh and log s_base round to 0 below c0 ~ 1e-8: no t
    # is admissible; 1 - e^(-decay) rounds to 0 near c0 = 1e-300
    tiny = HeightHypothesis(1e-9, 1e-9)
    for call in (
        lambda: t0_threshold(2, 4, tiny, rank_ratio=0.5),
        lambda: ideal_sum_bound(Q5, tiny, 4000.0, 2, 4),
        lambda: a2m_bound(Q5, tiny, 4000.0, 3, 2),
        lambda: second_moment_bounds(Q5, tiny, 400.0, 1.0),
        lambda: moment_bounds(MomentQuery(Q5, 4000, 3, 1.0), tiny),
    ):
        with pytest.raises(ThresholdError) as exc:
            call()
        assert exc.value.t0 == math.inf
    zero = HeightHypothesis(1e-300, 1e-300)
    for call in (
        lambda: ideal_sum_bound(Q, zero, 4000.0, 2, 4),
        lambda: second_moment_bounds(Q, zero, 400.0, 1.0),
        lambda: moment_bounds(MomentQuery(Q, 4000, 3, 1.0), zero),
    ):
        with pytest.raises(ValueError, match="height floors are too small"):
            call()


def test_ideal_sum_rational_example():
    hyp = default_hypothesis(Q)
    rep = ideal_sum_bound(Q, hyp, 6.0, 1, 4)
    assert rep.t0 == pytest.approx(4.5)
    assert rep.epsilon == pytest.approx(0.0433, abs=1e-3)
    assert 900 < rep.bound_value < 1300
    assert rep.inputs["zeta_high"] > 1


def test_ideal_sum_threshold_error_carries_value():
    hyp = default_hypothesis(QI)
    with pytest.raises(ThresholdError) as exc:
        ideal_sum_bound(QI, hyp, 3.0, 1, 3)
    assert exc.value.t0 == pytest.approx(3.5)


def test_ideal_sum_zeta_floor_dominates_for_small_k():
    # k = 2 makes the first zeta argument t/4; positivity needs t > 4
    hyp = default_hypothesis(Q)
    with pytest.raises(ThresholdError) as exc:
        ideal_sum_bound(Q, hyp, 2.7, 1, 2)
    assert exc.value.t0 == pytest.approx(4.0)


def test_ideal_sum_decreasing_in_t():
    hyp = default_hypothesis(QI)
    vals = [ideal_sum_bound(QI, hyp, t, 1, 3).bound_value for t in (4.0, 6.0, 10.0)]
    assert vals[0] > vals[1] > vals[2] > 0


# ---------------------------------------------------------------------------
# second moment


def test_second_moment_lower_is_main():
    hyp = default_hypothesis(QI)
    rep = second_moment_bounds(QI, hyp, 8.0, 3.0)
    assert rep.lower == rep.main_term == 3.0**2 + QI.omega_K * 3.0
    assert rep.upper > rep.lower


def test_second_moment_rational_gap_window():
    hyp = default_hypothesis(Q)
    rep = second_moment_bounds(Q, hyp, 30.0, 1.0, k=4)
    gap = rep.upper - rep.lower
    assert 10 < gap < 30
    assert rep.constants["epsilon"] == pytest.approx(0.0433, abs=1e-3)


def test_second_moment_threshold():
    hyp = default_hypothesis(Q)
    with pytest.raises(ThresholdError) as exc:
        second_moment_bounds(Q, hyp, 4.5, 1.0, k=4)
    assert exc.value.t0 == pytest.approx(4.5)


def test_second_moment_epsilon_monotone_in_c1():
    eps = []
    for c1 in (0.05, 0.1, 0.2):
        rep = second_moment_bounds(Q, HeightHypothesis(0.3, c1), 20.0, 1.0)
        eps.append(rep.constants["epsilon"])
    assert eps[0] < eps[1] < eps[2]


def test_second_moment_errors():
    hyp = default_hypothesis(Q)
    with pytest.raises(ValueError):
        second_moment_bounds(Q, hyp, 20.0, 0.0)
    with pytest.raises(ValueError):
        second_moment_bounds(Q, hyp, 20.0, 1.0, k=1)


@pytest.mark.parametrize("V", [math.inf, math.nan])
def test_second_moment_rejects_a_volume_that_is_not_finite(V):
    # an infinite V once gave the bracket [inf, inf]
    with pytest.raises(ValueError, match="finite"):
        second_moment_bounds(Q, default_hypothesis(Q), 20.0, V)


@pytest.mark.parametrize("n,V", [
    (2, 1e156), (2, Fraction(10) ** 156), (2, 1e300),
    (3, 1e104), (3, Fraction(10) ** 104), (3, 1e156), (3, Fraction(10) ** 156),
])
def test_brackets_reject_a_main_term_past_the_float_range(n, V):
    # n = 3 once returned upper = inf from V = 1e104 and raised
    # OverflowError from 1e156; n = 2 returned inf from 1e156
    hyp = default_hypothesis(Z5)
    with pytest.raises(ValueError, match="main term is not a finite float") as exc:
        moment_bounds(MomentQuery(Z5, 4000, n, V), hyp)
    assert not isinstance(exc.value, ThresholdError)
    if n == 2:
        with pytest.raises(ValueError, match="main term is not a finite float"):
            second_moment_bounds(Z5, hyp, 4000.0, V)


def test_moment_bounds_rejects_an_upper_endpoint_past_the_float_range():
    # a finite main term with an error term that overflows
    hyp = default_hypothesis(Z5)
    q = MomentQuery(Z5, 1809, 3, 1)
    assert math.isfinite(moment_bounds(q, hyp, {"C": 1e300}).upper)
    with pytest.raises(ValueError, match="upper endpoint is not a finite float"):
        moment_bounds(q, hyp, {"C": 1e304})


@pytest.mark.parametrize("desc,n,t,what", [
    ("Q(sqrt,-1)", 40, 19657, "torsion tail"),
    ("Q", 49, 35905, "torsion tail"),
    ("Q", 120, 518401, "upper endpoint"),
])
def test_moment_bounds_rejects_tails_past_the_float_range(desc, n, t, what):
    # each once raised OverflowError: a1m_bound's integer sum past 1.8e308
    # met a float, or (t d)^((n - 2)/2) overflowed
    F = make_field(desc)
    with pytest.raises(ValueError, match=f"{what} is not a finite float") as exc:
        moment_bounds(MomentQuery(F, t, n, 1), default_hypothesis(F))
    assert not isinstance(exc.value, ThresholdError)


def test_sub_bounds_name_the_tail_past_the_float_range():
    # each once left BoundReport to refuse "bound_value must be finite"
    # without saying which bound overflowed: zeta(1 + 1/800)^200 past the
    # float range, and omega^324 (t d)^8.5 at m = 18
    with pytest.raises(ValueError, match="the ideal-sum tail M=200 is not a finite float"):
        ideal_sum_bound(Q, default_hypothesis(Q), 801.0, 200, 4)
    F = make_field("Q(sqrt,-3)")
    with pytest.raises(ValueError, match="the pair tail m=18 is not a finite float"):
        a2m_bound(F, default_hypothesis(F), 4122176.0, 36, 18)


def test_infinite_rank_ratio_is_rejected_before_any_entry():
    # once a ValueError from t0_threshold in most cases, but ThresholdError
    # (inf) from a2m_bound and from a rank entry at tiny floors
    hyp = default_hypothesis(Z5)
    calls = [partial(a2m_bound, Z5, hyp, 4000.0, 3, 2, rank_ratio=math.inf)]
    for floors in (hyp, HeightHypothesis(1e-9, 1e-9)):
        for mode in ("general", "fixed-field", "cyclotomic"):
            opts = {"mode": mode, "rank_ratio": math.inf}
            calls.append(partial(moment_bounds, MomentQuery(Z5, 4000, 3, 1), floors, opts))
    for call in calls:
        with pytest.raises(ValueError, match="rank_ratio must be nonnegative and finite") as exc:
            call()
        assert not isinstance(exc.value, ThresholdError)


def test_pair_tail_base_stops_at_64_27_instead_of_overflowing():
    # min(64/27, e^(c1/3), cosh(c1)^3) is 64/27 from c1 = 3 on, so c1 = 400
    # gives the thresholds of c1 = 3; cosh(400)^3 once raised OverflowError
    for F in (Q5, Z5):
        for n in (3, 4, 6):
            t0 = []
            for c1 in (3.0, 400.0):
                with pytest.raises(ThresholdError) as exc:
                    moment_bounds(MomentQuery(F, n + 1, n, 1), HeightHypothesis(400.0, c1))
                t0.append(exc.value.t0)
            assert t0[0] == t0[1] < math.inf, (F.descriptor, n)


@pytest.mark.parametrize("desc", MEMO_FIELDS[:8])
def test_effective_threshold_is_the_max_of_the_sub_bound_thresholds(desc):
    # at the default rank ratio, the bracket's precondition is exactly its
    # own entries and those its rank-one and pair tails report; at k = 10
    # the rank-one tail's counting entry binds over rank-free fields
    F = make_field(desc)
    hyp = default_hypothesis(F)
    for n, k in itertools.product(range(3, 7), (4, 10)):
        with pytest.raises(ThresholdError) as exc:
            moment_bounds(MomentQuery(F, n + 1, n, 1), hyp, {"k": k})
        t = math.floor(exc.value.t0) + 1
        c = moment_bounds(MomentQuery(F, t, n, 1), hyp, {"k": k}).constants
        want = max(
            c["t0"],
            n * n,
            2,
            ideal_sum_bound(F, hyp, t, n - 1, k).inputs["t0_effective"],
            *(a2m_bound(F, hyp, t, n, m).inputs["t0_effective"] for m in range(2, n)),
        )
        assert c["t0_effective"] == want == exc.value.t0, (desc, n, k)


def test_second_moment_upper_is_never_below_an_exact_lower():
    # lower = V^2 + omega V is an exact Fraction; 9 of these 40 volumes once
    # rounded lower + err below it and MomentReport refused the bracket
    hyp = default_hypothesis(Z5)
    stepped = 0
    for a in range(10001, 10041):
        V = Fraction(a, 3)
        rep = second_moment_bounds(Z5, hyp, 4000.0, V)
        nearest = float(rep.lower + rep.components["unit_ideal_tail"])
        assert Fraction(rep.upper) >= rep.lower
        if nearest < rep.lower:
            assert rep.upper == math.nextafter(nearest, math.inf), a
            stepped += 1
        else:
            assert rep.upper == nearest, a
    assert stepped == 9


# ---------------------------------------------------------------------------
# cyclotomic-family second-moment constants


def test_cyclotomic_constants_epsilon_and_scalar():
    for F, cap in ((make_field("Q(sqrt,-3)"), 5625), (QI, 5625),
                   (Z5, 5625), (make_field("Q(zeta,8)"), 5625)):
        c = cyclotomic_second_moment_constants(F, 27.0)
        assert c["epsilon"] == 1.0 / 400.0
        assert c["epsilon_formula"] >= 1.0 / 400.0
        assert c["scalar"] <= cap
        assert c["C_low"] <= c["C_high"]
        z1, z2 = c["zeta1"], c["zeta2"]
        assert c["C_high"] <= cap * z1.value_high * z2.value_high + 1e-9


def test_cyclotomic_constants_degree_two_scalar_value():
    c = cyclotomic_second_moment_constants(QI, 27.0)
    assert c["scalar"] == pytest.approx(5624.5, abs=1.0)
    c4 = cyclotomic_second_moment_constants(Z5, 27.0)
    assert c4["scalar"] == pytest.approx(2814.5, abs=1.0)


def test_cyclotomic_constants_preconditions():
    with pytest.raises(ThresholdError):
        cyclotomic_second_moment_constants(QI, 26.0)
    with pytest.raises(ValueError):
        cyclotomic_second_moment_constants(Q, 27.0)


# ---------------------------------------------------------------------------
# pair tails


def test_a2m_rational_threshold_exact():
    hyp = default_hypothesis(Q)
    rep = a2m_bound(Q, hyp, 20.0, 3, 2)
    assert rep.t0 == 12.0
    assert rep.inputs["t0_effective"] == 12.0
    assert rep.C == "unresolved"
    assert rep.bound_value > 0
    with pytest.raises(ThresholdError) as exc:
        a2m_bound(Q, hyp, 12.0, 3, 2)
    assert exc.value.t0 == 12.0


def test_a2m_scales_with_supplied_constant():
    hyp = default_hypothesis(Q)
    one = a2m_bound(Q, hyp, 20.0, 3, 2).bound_value
    two = a2m_bound(Q, hyp, 20.0, 3, 2, C_S=2.0)
    assert two.C == 2.0
    assert two.bound_value == pytest.approx(2 * one, rel=1e-12)


def test_a2m_decreasing_in_t():
    hyp = default_hypothesis(Q)
    vals = [a2m_bound(Q, hyp, t, 3, 2).bound_value for t in (15.0, 25.0, 50.0)]
    assert vals[0] > vals[1] > vals[2] > 0


def test_a2m_unit_rank_field():
    hyp = default_hypothesis(Z5)
    rep = a2m_bound(Z5, hyp, 500.0, 3, 2)
    assert rep.t0 == pytest.approx(440.36, abs=0.5)
    assert rep.epsilon > 0
    assert math.isfinite(rep.bound_value)


def test_rank_ratio_below_the_fields_own_is_rejected():
    # a smaller ratio understates the pair-tail precondition, so it is an
    # invalid input at every t, not a threshold (Q(sqrt,5), n = 3: the
    # pair tails alone would give t0 = 12, the rank-one tail 180.16)
    for d, n in (("Q(sqrt,5)", 3), ("Q(zeta,5)", 3), ("Q(zeta,7)", 4), ("Q(sqrt,2)", 4)):
        F = make_field(d)
        hyp = default_hypothesis(F)
        own = F.unit_rank / F.degree
        for t in (12, 13, 10**5):
            with pytest.raises(ValueError) as exc:
                moment_bounds(MomentQuery(F, t, n, 1.0), hyp, {"rank_ratio": 0})
            assert not isinstance(exc.value, ThresholdError), (d, t)
        with pytest.raises(ValueError) as exc:
            a2m_bound(F, hyp, 1e5, n, 2, rank_ratio=own / 2)
        assert not isinstance(exc.value, ThresholdError), d
        assert a2m_bound(F, hyp, 1e5, n, 2, rank_ratio=own).inputs["rank_ratio"] == own


def test_moment_bounds_rejects_unknown_options_and_modes():
    hyp = default_hypothesis(Q)
    for q in (MomentQuery(Q, 40, 3, 1.0), MomentQuery(Q, 40, 2, 1.0)):
        for options in ({"P": 600}, {"mode": "foo"}, {"k": 4, "rank": 0.5}, {"k": 1}):
            with pytest.raises(ValueError):
                moment_bounds(q, hyp, options)
    # at n = 2 the second-moment bracket takes k alone, so the options it
    # would ignore are rejected by name, each valid value included
    q = MomentQuery(QI, 8, 2, 3.0)
    hyp = default_hypothesis(QI)
    for options in ({"C": 5.0}, {"mode": "general"}, {"mode": "fixed-field"},
                    {"rank_ratio": 0.9}, {"k": 4, "C": 1.0, "rank_ratio": 0.5}):
        with pytest.raises(ValueError, match="do not apply at n = 2") as exc:
            moment_bounds(q, hyp, options)
        assert not isinstance(exc.value, ThresholdError)
        for key in options.keys() - {"k"}:
            assert repr(key) in str(exc.value)
    assert moment_bounds(q, hyp, {"k": 4}).upper == moment_bounds(q, hyp).upper


def test_a2m_range_errors():
    hyp = default_hypothesis(Q)
    with pytest.raises(ValueError):
        a2m_bound(Q, hyp, 20.0, 3, 1)
    with pytest.raises(ValueError):
        a2m_bound(Q, hyp, 20.0, 3, 3)


# ---------------------------------------------------------------------------
# assembled moments


def test_moment_bounds_n2_delegates():
    hyp = default_hypothesis(QI)
    q = MomentQuery(QI, 8, 2, 3.0)
    via_assembler = moment_bounds(q, hyp)
    direct = second_moment_bounds(QI, hyp, 8.0, 3.0, k=4)
    assert via_assembler.upper == direct.upper
    assert via_assembler.lower == direct.lower


def test_moment_bounds_lower_equals_main():
    hyp = default_hypothesis(Q)
    q = MomentQuery(Q, 40, 3, 1.0)
    rep = moment_bounds(q, hyp)
    assert rep.lower == rep.main_term
    assert rep.upper > rep.main_term
    assert set(rep.components) == {"main", "torsion_tail", "rank_one_tail", "pair_tail_m2"}
    assert all(v >= 0 for v in rep.components.values())
    assert rep.constants["C_unresolved"] == 1.0


def test_moment_bounds_user_constant_resolves_flag():
    hyp = default_hypothesis(Q)
    q = MomentQuery(Q, 40, 3, 1.0)
    rep = moment_bounds(q, hyp, {"C": 2.5})
    assert rep.constants["C_unresolved"] == 0.0
    base = moment_bounds(q, hyp)
    assert rep.upper - rep.main_term == pytest.approx(
        2.5 * (base.upper - base.main_term), rel=1e-12
    )


def test_moment_bounds_threshold_reports_effective():
    hyp = default_hypothesis(Q)
    q = MomentQuery(Q, 12, 3, 1.0)
    with pytest.raises(ThresholdError) as exc:
        moment_bounds(q, hyp)
    assert exc.value.t0 == pytest.approx(12.0)


def test_moment_bounds_fixed_field_mode():
    hyp = default_hypothesis(Q)
    q = MomentQuery(Q, 40, 3, 1.0)
    rep = moment_bounds(q, hyp, {"mode": "fixed-field", "C": 5.0})
    t0 = rep.constants["t0"]
    eps = rep.constants["epsilon"]
    expect = 5.0 * 40.0**0.5 * math.exp(-eps * (40.0 - t0)) * 2.0**2
    assert rep.upper - rep.main_term == pytest.approx(expect, rel=1e-12)


def test_moment_bounds_cyclotomic_mode_threshold():
    hyp = default_hypothesis(Z5)
    q = MomentQuery(Z5, 4000, 3, 1.0)
    rep = moment_bounds(q, hyp, {"mode": "cyclotomic"})
    assert rep.constants["t0"] == pytest.approx(3699.6, abs=1.0)
    assert rep.upper > rep.main_term
    with pytest.raises(ThresholdError):
        moment_bounds(MomentQuery(Z5, 3000, 3, 1.0), hyp, {"mode": "cyclotomic"})


def test_moment_bounds_cyclotomic_threshold_growth():
    hyp = default_hypothesis(Z5)
    for n in (3, 6, 9, 12):
        t = int(40000 * n) + 1
        rep = moment_bounds(MomentQuery(Z5, t, n, 1.0), hyp, {"mode": "cyclotomic"})
        ratio = rep.constants["t0"] / (n**3 * math.log(math.log(n)))
        assert ratio < 1600


def test_moment_bounds_rank_ratio_override():
    hyp = default_hypothesis(Z5)
    q = MomentQuery(Z5, 5000, 3, 1.0)
    own = moment_bounds(q, hyp)
    fam = moment_bounds(q, hyp, {"rank_ratio": 0.5})
    assert fam.constants["t0"] > own.constants["t0"]


def test_moment_bounds_rejects_first_moment():
    hyp = default_hypothesis(Q)
    with pytest.raises(ValueError):
        moment_bounds(MomentQuery(Q, 10, 1, 1.0), hyp)
