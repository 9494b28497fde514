"""End-to-end acceptance runs.

Ten scripted checks, one test function each, so `pytest -v` prints one
pass/fail line per check.  Every check enforces its own wall-clock budget
and prints a one-line summary with the numbers it verified.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from latmoment.bounds import (
    HeightHypothesis,
    best_k_threshold,
    column_height_ratio_bound,
    cyclotomic_second_moment_constants,
    dedekind_zeta,
    ellipsoid_intersection_bound,
    t0_threshold,
    volume_ratio_height_bound,
)
from latmoment.heights import (
    M_invariant,
    ProjPoint,
    gr_height_factors,
    h_infty,
    height_gap_rhs,
    proj_height_l2,
    rred_matrix,
    weil_height,
)
from latmoment.moments import (
    poisson_moment,
    poisson_moment_series,
    rogers_error,
    two_ball_intersection,
)
from latmoment.numberfield import fundamental_unit, make_field
from latmoment.oracle import (
    dirichlet_intersection,
    mahler_sequence,
    mc_intersection_ratio,
    random_lattice_moments,
    truncated_second_moment_rhs,
    unit_enumeration_check,
)
from refroutes import mc_column_sum_ratio

Q = make_field("Q")
QI = make_field("Q(sqrt,-1)")


def _rand_entry(F, rng, scale=4, den=3):
    return F.element(
        [Fraction(rng.randint(-scale, scale), rng.randint(1, den)) for _ in range(F.degree)]
    )


def _rand_rred(F, rng, m, n):
    while True:
        rows = [[_rand_entry(F, rng) for _ in range(n)] for _ in range(m)]
        try:
            return rred_matrix(F, rows)
        except ValueError:
            continue


def test_criterion_01_poisson_moment_identities():
    start = time.perf_counter()
    for lam in (Fraction(1, 2), Fraction(1), Fraction(2)):
        assert poisson_moment(2, lam) == lam**2 + lam
        assert poisson_moment(3, lam) == lam**3 + 3 * lam**2 + lam
    worst = 0.0
    for n in range(1, 9):
        for lam in (Fraction(1, 2), Fraction(1), Fraction(2)):
            exact = poisson_moment(n, lam)
            series = poisson_moment_series(n, float(lam))
            worst = max(worst, abs(float(exact) - series))
    assert worst <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1: identities exact, series residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_subspace_height_two_routes():
    # The Pluecker-point height and the covolume-times-index product must
    # agree on row-reduced inputs, with the rational factor exactly 1.
    start = time.perf_counter()
    rng = random.Random(42)
    fields = [make_field(s) for s in ("Q", "Q(sqrt,-1)", "Q(sqrt,5)", "Q(zeta,5)")]
    worst = 0.0
    for F in fields:
        for _ in range(200):
            m = rng.randint(1, 3)
            n = rng.randint(m, 5)
            fac = gr_height_factors(_rand_rred(F, rng, m, n))
            assert fac.norm_index_product == 1
            worst = max(worst, abs(fac.height - fac.product) / fac.product)
    assert worst < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 2: 800 matrices, worst relative gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_threshold_table():
    start = time.perf_counter()
    hyp = HeightHypothesis(0.24, 0.24)
    published = {(1, 26): 27, (2, 48): 97, (3, 70): 213, (4, 92): 372, (5, 115): 576}
    sups = []
    for (M, k), target in published.items():
        sup = t0_threshold(M, k, hyp)
        assert sup < target
        sups.append(sup)
    ratios = []
    for M in range(20, 61):
        _, t0 = best_k_threshold(M, hyp, rank_ratio=0.5)
        ratios.append(t0 / M**2)
    assert 20.0 <= min(ratios) and max(ratios) <= 23.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"criterion 3: sups {sups}, t0/M^2 in "
        f"[{min(ratios):.4f}, {max(ratios):.4f}], {elapsed:.2f}s"
    )


def test_criterion_04_cyclotomic_second_moment_constants():
    start = time.perf_counter()
    caps = []
    for desc in ("Q(zeta,4)", "Q(zeta,5)"):
        F = make_field(desc)
        consts = cyclotomic_second_moment_constants(F, 27.0)
        assert consts["epsilon"] == 1 / 400
        assert consts["epsilon_formula"] >= consts["epsilon"]
        assert consts["scalar"] < 5625.0
        cap = 5625.0 * consts["zeta1"].value_high * consts["zeta2"].value_high
        assert consts["C_low"] <= consts["C_high"] <= cap
        caps.append((F.degree, consts["C_high"], cap))
    assert {d for d, _, _ in caps} == {2, 4}
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    detail = ", ".join(f"d={d}: C {c:.1f} <= {cap:.1f}" for d, c, cap in caps)
    print(f"criterion 4: epsilon 1/400, {detail}, {elapsed:.2f}s")


def test_criterion_05_zeta_backend():
    start = time.perf_counter()
    zq = dedekind_zeta(1, 2.0, 10_000)
    assert zq.value_low <= math.pi**2 / 6 <= zq.value_high
    assert zq.value_high - zq.value_low < 1e-3

    # Direct Gaussian-integer ideal sum: the number of ideals of norm n is
    # the divisor sum of the mod-4 character, so the double sum rearranges
    # into a cumulative-sum lookup.
    X = 10**6
    inv2 = 1.0 / np.arange(1, X + 1, dtype=float) ** 2
    cum = np.concatenate(([0.0], np.cumsum(inv2)))
    d = np.arange(1, X + 1)
    chi = np.where(d % 4 == 1, 1.0, np.where(d % 4 == 3, -1.0, 0.0))
    direct = float(np.sum(chi * inv2 * cum[X // d]))
    # The ideals of norm > X add at most 2 int_X^oo A(u) u^-3 du, where
    # A(u) <= pi (sqrt(u) + 1/sqrt(2))^2 / 4 counts the ideals of norm <= u
    # (a quarter of the lattice points of the disc of radius sqrt(u)).
    tail = math.pi / 2 * (1 / X + 2 * math.sqrt(2) / 3 * X**-1.5 + 0.25 / X**2)

    zqi = dedekind_zeta(4, 2.0, 10_000)
    assert zqi.value_low <= direct + tail and direct <= zqi.value_high
    assert zqi.value_high - zqi.value_low < 1e-3

    for n in range(1, 13):
        z = dedekind_zeta(n, 2.0, 2000)
        deg = make_field(f"Q(zeta,{n})").degree
        # the certified value sits below zeta(2)^degree; the upper endpoint
        # may exceed the cap only by its own truncation width
        cap = (math.pi**2 / 6) ** deg
        assert 1.0 <= z.value_low <= cap
        assert z.value_high <= cap * 1.001
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"criterion 5: gaussian ideal sum {direct:.7f} in "
        f"[{zqi.value_low:.7f}, {zqi.value_high:.7f}], {elapsed:.1f}s"
    )


def test_criterion_06_bound_soundness_sweep():
    # Three analytic volume-ratio bounds against their oracles on 100
    # random cases.  The two intersection bounds face the exact Dirichlet
    # value (singles) or the Monte Carlo hit rate (pairs); the column-form
    # bound faces the weighted-sum hit rate it actually dominates.
    start = time.perf_counter()
    pool = [
        make_field(s)
        for s in (
            "Q",
            "Q(sqrt,-1)",
            "Q(sqrt,2)",
            "Q(sqrt,5)",
            "Q(sqrt,-3)",
            "Q(zeta,5)",
            "Q(zeta,8)",
            "Q(zeta,7)",
        )
    ]
    rng = random.Random(20260823)

    def rand_nonzero(F):
        while True:
            x = F.element(
                [
                    Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
                    for _ in range(F.degree)
                ]
            )
            if x:
                return x

    fails = []
    vacuous = 0
    for case in range(100):
        F = pool[rng.randrange(len(pool))]
        t = rng.randint(2, min(8, 32 // F.degree))
        size = 1 if case % 2 == 0 else 2
        alphas = [rand_nonzero(F) for _ in range(size)]

        bound_a = ellipsoid_intersection_bound(F, t, alphas)
        bound_b = volume_ratio_height_bound(F, t, alphas, k=2)
        bound_c = column_height_ratio_bound(F, t, alphas)

        if size == 1:
            # the closed-form value is accurate to about 1e-14 relative
            est = dirichlet_intersection(F, t, alphas[0])
            floor = est * (1 - 1e-9)
            col_floor = floor
        else:
            mc = mc_intersection_ratio(F, t, alphas, samples=100_000, seed=case)
            floor = mc.mean - 3 * mc.std_error
            col = mc_column_sum_ratio(F, t, alphas, samples=100_000, seed=case)
            col_floor = col.mean - 3 * col.std_error

        for name, b, fl in (
            ("intersection-of-ellipsoids", bound_a, floor),
            ("volume-ratio-height", bound_b, floor),
            ("column-height-ratio", bound_c, col_floor),
        ):
            if b < fl:
                fails.append((case, name, F.descriptor, t, b, fl))
            vacuous += fl <= 0

    assert fails == []
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(
        f"criterion 6: 100 cases, 300 bound checks, 0 violations, "
        f"{vacuous} vacuous (floor <= 0), {elapsed:.1f}s"
    )


def test_criterion_07_empirical_moment_sandwich():
    start = time.perf_counter()
    details = []
    for V in (1, 4):
        ests = random_lattice_moments(12, 2, float(V), 1009, samples=2000, seed=20260823)
        for k, est in enumerate(ests, start=1):
            main = float(Fraction(2) ** k * poisson_moment(k, Fraction(V, 2)))
            err = rogers_error(k, 12) * (V + 1) ** (k - 1)
            assert main - 3 * est.std_error <= est.mean
            assert est.mean <= main + err + 3 * est.std_error
            details.append(f"V={V} k={k}: {est.mean:.3f}~{main:.0f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"criterion 7: {'; '.join(details)}, {elapsed:.1f}s")


def test_criterion_08_truncated_rhs_partial_sums():
    start = time.perf_counter()
    details = []
    for F, t in ((Q, 6), (QI, 4)):
        partials = []
        for cutoff in (25, 50):
            rep = truncated_second_moment_rhs(F, t, cutoff)
            assert rep.verdict == "consistent"
            assert rep.lower_target - 1e-9 <= rep.partial_sum <= rep.upper_target
            partials.append(rep.partial_sum)
        assert partials[0] <= partials[1]
        details.append(f"{F.descriptor}: {partials[0]:.4f} -> {partials[1]:.4f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"criterion 8: {'; '.join(details)}, {elapsed:.1f}s")


def test_criterion_09_height_floor_witnesses():
    start = time.perf_counter()
    Q5 = make_field("Q(sqrt,5)")
    # the integral basis generator is (1 + sqrt 5)/2
    golden_height = weil_height(Q5, Q5.gen)
    assert abs(golden_height - 0.2406) <= 5e-5

    Z5 = make_field("Q(zeta,5)")
    two_cos = Z5.element([-1, 0, -1, -1])  # zeta + zeta^4 = 2 cos(2 pi/5)
    h = h_infty(Z5, [two_cos])
    assert 0.0 < h <= 0.27132

    seq = mahler_sequence(40)
    measure = math.exp(40 * seq[-1])
    assert abs(measure - 1.3815) < 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"criterion 9: h(golden) {golden_height:.6f}, h_inf(2cos) {h:.6f}, "
        f"trinomial measure {measure:.4f}, {elapsed:.1f}s"
    )


def test_criterion_10_property_suites():
    start = time.perf_counter()
    rng = random.Random(7)

    # integrality defect and the height gap on random projective points
    for F in (Q, QI, make_field("Q(sqrt,2)"), make_field("Q(sqrt,5)")):
        for _ in range(50):
            coords = [_rand_entry(F, rng) for _ in range(rng.randint(2, 4))]
            if all(not c for c in coords):
                coords[0] = F.one
            x = ProjPoint(F, tuple(coords))
            M = M_invariant(x)
            if any(not c for c in x.coords):
                assert M == 0
            else:
                assert M.denominator == 1 and M >= 1
            assert proj_height_l2(x) ** 2 >= height_gap_rhs(x) * (1 - 1e-9)

    # M = 1 exactly on unit-multiple tuples, > 1 when an ideal differs,
    # and the gap inequality is an equality for coprime integer pairs
    F2 = make_field("Q(sqrt,2)")
    eps = fundamental_unit(F2)
    assert M_invariant(ProjPoint(F2, (F2.one, eps, eps * eps))) == 1
    assert M_invariant(ProjPoint(F2, (F2.one, F2.from_rational(2)))) > 1
    assert M_invariant(ProjPoint(Q, (3, 6))) == 2
    pythag = ProjPoint(Q, (3, 4))
    assert abs(proj_height_l2(pythag) ** 2 - height_gap_rhs(pythag)) < 1e-9

    # exhaustive unit census against the box bound
    census = []
    for F in (F2, make_field("Q(sqrt,3)")):
        for B in (0.5, 1.0, 2.5):
            count, bound = unit_enumeration_check(F, B)
            assert 0 < count <= bound + 1e-9
            census.append(count)

    # two-ball overlap formula against direct Monte Carlo
    nprng = np.random.default_rng(20260823)
    samples = 1_000_000
    for N in (3, 8):
        for delta in (0.6, 1.2):
            g = nprng.standard_normal((samples, N))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            g *= nprng.random((samples, 1)) ** (1.0 / N)
            g[:, 0] -= delta
            p = np.count_nonzero((g**2).sum(axis=1) <= 1.0) / samples
            se = math.sqrt(p * (1.0 - p) / (samples - 1))
            assert abs(two_ball_intersection(N, delta) - p) <= 3 * se
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"criterion 10: unit census {census}, all property checks held, {elapsed:.1f}s")
