"""Independent empirical checks for the bound machinery.

Monte Carlo volume estimators, deterministic low-dimensional quadrature,
brute-force sums over bounded denominators, exhaustive unit enumeration, and
random-lattice sampling.  Nothing here reuses the inequalities it is meant to
test: every oracle computes its quantity from first principles so agreement
is evidence, not circularity.

Determinism: every randomized routine derives its streams from
numpy SeedSequence keyed by (seed, batch or sample index) and accumulates
integer statistics, so results are bit-identical across runs and independent
of any batching or thread configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    HeightHypothesis,
    ThresholdError,
    default_hypothesis,
    ideal_sum_bound,
    unit_count_bound,
)
from .heights import weil_height
from .moments import adaptive_simpson, ball_volume
from .numberfield import (
    FieldElement,
    NumberField,
    conjugates,
    denominator_norm,
    enumerate_torsion,
    fundamental_unit,
)

__all__ = [
    "McEstimate",
    "TruncationReport",
    "mc_intersection_ratio",
    "mc_column_sum_ratio",
    "dirichlet_intersection",
    "truncated_second_moment_rhs",
    "random_lattice_moments",
    "unit_enumeration_check",
    "mahler_sequence",
    "lower_bound_sum_check",
    "verification_report",
]

_BATCH = 4096


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean with its standard error.

    std_error is the ddof-1 sample deviation over sqrt(samples), computed
    from integer hit or power sums, so it is exactly reproducible.
    """

    mean: float
    std_error: float
    samples: int
    seed: int

    def interval(self, zscore: float = 3.0) -> tuple[float, float]:
        return (self.mean - zscore * self.std_error, self.mean + zscore * self.std_error)


@dataclass(frozen=True)
class TruncationReport:
    """A truncated denominator-bounded sum compared against its bracket."""

    t: float
    cutoff: int
    terms: int
    partial_sum: float
    lower_target: float
    upper_target: float
    verdict: str


def _place_blocks(F: NumberField, t: int) -> list[tuple[int, int, int]]:
    # (embedding row, start offset, width) per archimedean place; a place of
    # local degree e owns t*e consecutive real coordinates
    blocks = []
    off = 0
    for row, e in F.places:
        blocks.append((row, off, t * e))
        off += t * e
    return blocks


def _constraint_matrix(F: NumberField, alphas) -> np.ndarray:
    rows = []
    for a in alphas:
        conj = conjugates(F, a)
        rows.append([abs(conj[row]) ** 2 for row, _ in F.places])
    return np.array(rows, dtype=float)


def mc_intersection_ratio(
    F: NumberField,
    t: int,
    alphas,
    samples: int = 100_000,
    seed: int = 0,
) -> McEstimate:
    """Monte Carlo vol(B cap alpha_1^-1 B cap ...)/vol(B).

    Samples uniform points of the unit ball in the t*degree real coordinates
    (one block of t*e reals per place), and tests each scaled-ball membership
    sum_places |alpha|_place^2 r_place^2 <= 1.  Needs samples >= 10^4 and
    total dimension t*degree <= 64.
    """
    if samples < 10_000:
        raise ValueError("need at least 10^4 samples")
    N = t * F.degree
    if N > 64:
        raise ValueError(f"total real dimension {N} > 64")
    alphas = list(alphas)
    if not alphas or any(not a for a in alphas):
        raise ValueError("need nonzero elements")
    W = _constraint_matrix(F, alphas)
    blocks = _place_blocks(F, t)
    hits = 0
    done = 0
    batch_idx = 0
    while done < samples:
        b = min(_BATCH, samples - done)
        rng = np.random.default_rng(np.random.SeedSequence((seed, batch_idx)))
        g = rng.standard_normal((b, N))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        g *= rng.random((b, 1)) ** (1.0 / N)
        r2 = np.empty((b, len(blocks)))
        for j, (_, off, width) in enumerate(blocks):
            r2[:, j] = (g[:, off : off + width] ** 2).sum(axis=1)
        ok = (r2 @ W.T <= 1.0).all(axis=1)
        hits += int(np.count_nonzero(ok))
        done += b
        batch_idx += 1
    p = hits / samples
    se = math.sqrt(p * (1.0 - p) / (samples - 1))
    return McEstimate(mean=p, std_error=se, samples=samples, seed=seed)


def mc_column_sum_ratio(
    F: NumberField,
    t: int,
    alphas,
    samples: int = 100_000,
    seed: int = 0,
) -> McEstimate:
    """Monte Carlo estimate of the normalized column integral

        int f(x_1) ... f(x_M) f(alpha_1 x_1 + ... + alpha_M x_M) / V^M

    with f the unit-ball indicator: the chance that the alpha-weighted sum
    of M independent uniform ball points stays in the ball.  At M = 1 this
    is the same quantity as mc_intersection_ratio.  Scaling acts per place,
    so complex-place blocks combine with full complex multiplication.
    Same preconditions as mc_intersection_ratio.
    """
    if samples < 10_000:
        raise ValueError("need at least 10^4 samples")
    N = t * F.degree
    if N > 64:
        raise ValueError(f"total real dimension {N} > 64")
    alphas = list(alphas)
    if not alphas or any(not a for a in alphas):
        raise ValueError("need nonzero elements")
    blocks = _place_blocks(F, t)
    scales = [
        [complex(conjugates(F, a)[row]) for row, _ in F.places] for a in alphas
    ]
    hits = 0
    done = 0
    batch_idx = 0
    while done < samples:
        b = min(_BATCH, samples - done)
        rng = np.random.default_rng(np.random.SeedSequence((seed, batch_idx)))
        pts = []
        for _ in alphas:
            g = rng.standard_normal((b, N))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            g *= rng.random((b, 1)) ** (1.0 / N)
            pts.append(g)
        r2 = np.zeros(b)
        for j, (_, off, width) in enumerate(blocks):
            if width == t:
                y = np.zeros((b, t))
                for i, g in enumerate(pts):
                    y += scales[i][j].real * g[:, off : off + width]
                r2 += (y**2).sum(axis=1)
            else:
                y = np.zeros((b, t), dtype=complex)
                for i, g in enumerate(pts):
                    block = g[:, off : off + t] + 1j * g[:, off + t : off + width]
                    y += scales[i][j] * block
                r2 += (np.abs(y) ** 2).sum(axis=1)
        hits += int(np.count_nonzero(r2 <= 1.0))
        done += b
        batch_idx += 1
    p = hits / samples
    se = math.sqrt(p * (1.0 - p) / (samples - 1))
    return McEstimate(mean=p, std_error=se, samples=samples, seed=seed)


def dirichlet_intersection(F: NumberField, t: int, alpha: FieldElement) -> float:
    """Deterministic vol(B cap alpha^-1 B)/vol(B) for up to three places.

    For a uniform ball point the per-place squared block norms follow a
    Dirichlet law with exponents t e/2 and a unit slack coordinate, so the
    ratio is an integral over a simplex slice.  The innermost coordinate
    integrates in closed form; outer coordinates use adaptive quadrature,
    run twice: an absolute-tolerance pilot pass, then a pass at a tolerance
    proportional to the pilot value, so tiny integrals are still resolved
    to small relative error instead of stalling at the first recursion
    level.  One-place fields reduce to min(1, 1/w)^(t e/2).
    """
    if not alpha:
        raise ValueError("alpha must be nonzero")
    if t < 2:
        raise ValueError("need t >= 2")
    places = F.places
    conj = conjugates(F, alpha)
    w = [abs(conj[row]) ** 2 for row, _ in places]
    a = [t * e / 2.0 for _, e in places]
    if len(places) == 1:
        return min(1.0, 1.0 / w[0]) ** a[0]
    lognorm = sum(math.lgamma(x) for x in a) - math.lgamma(sum(a) + 1.0)
    norm = math.exp(lognorm)
    if len(places) == 2:

        def outer(u1: float) -> float:
            c = min(1.0 - u1, (1.0 - w[0] * u1) / w[1])
            if c <= 0:
                return 0.0
            return u1 ** (a[0] - 1.0) * c ** a[1] / a[1]

        top = min(1.0, 1.0 / w[0])
        raw = adaptive_simpson(outer, 0.0, top, 1e-10)
        raw = adaptive_simpson(outer, 0.0, top, max(1e-16, 1e-8 * abs(raw)))
        return raw / norm
    if len(places) == 3:

        def mid(u1: float, u2: float) -> float:
            c = min(1.0 - u1 - u2, (1.0 - w[0] * u1 - w[1] * u2) / w[2])
            if c <= 0:
                return 0.0
            return u2 ** (a[1] - 1.0) * c ** a[2] / a[2]

        def make_outer(inner_tol: float):
            def outer(u1: float) -> float:
                top2 = min(1.0 - u1, (1.0 - w[0] * u1) / w[1])
                if top2 <= 0:
                    return 0.0
                return u1 ** (a[0] - 1.0) * adaptive_simpson(
                    lambda u2: mid(u1, u2), 0.0, top2, inner_tol
                )

            return outer

        top = min(1.0, 1.0 / w[0])
        raw = adaptive_simpson(make_outer(1e-11), 0.0, top, 1e-9)
        scale = abs(raw)
        inner_tol = max(1e-17, 1e-9 * scale / max(top, 1e-6))
        raw = adaptive_simpson(
            make_outer(inner_tol), 0.0, top, max(1e-15, 1e-7 * scale)
        )
        return raw / norm
    raise ValueError(
        "more than three archimedean places: use mc_intersection_ratio instead"
    )


def _bounded_denominator_elements(F: NumberField, cutoff: int):
    # canonical representatives (p + q w)/c with gcd(p, q, c) = 1, which is
    # the reduced form FieldElement takes as given; each field element in
    # the box appears exactly once
    if F.degree == 1:
        for c in range(1, cutoff + 1):
            for p in range(-cutoff, cutoff + 1):
                if p == 0 or math.gcd(p, c) != 1:
                    continue
                yield FieldElement(F, (p,), c)
        return
    if F.degree != 2:
        raise ValueError("denominator enumeration supports degree <= 2")
    for c in range(1, cutoff + 1):
        for p in range(-cutoff, cutoff + 1):
            gpc = math.gcd(p, c)
            for q in range(-cutoff, cutoff + 1):
                if p == 0 and q == 0:
                    continue
                if math.gcd(gpc, q) != 1:
                    continue
                yield FieldElement(F, (p, q), c)


def truncated_second_moment_rhs(
    F: NumberField, t: int, cutoff: int, P: int = 600
) -> TruncationReport:
    """Brute-force partial value of the second-moment off-diagonal sum.

    Sums D(alpha)^-t vol(B cap alpha^-1 B)/vol(B) over all field elements
    with numerator and denominator coordinates bounded by cutoff.  The
    torsion units alone contribute exactly omega, so the partial sum must
    land in [omega, omega (1 + relative ideal-sum bound)]; the verdict
    records which side fails, if any.  The bound uses the first splitting
    parameter k in 2..39 that admits t.
    """
    if cutoff < 2:
        raise ValueError("need cutoff >= 2")
    hyp = default_hypothesis(F)
    for k in range(2, 40):
        try:
            rel = ideal_sum_bound(F, hyp, float(t), 1, k, P).bound_value
            break
        except ThresholdError:
            continue
    else:
        raise ThresholdError(t, f"no splitting parameter admits t = {t}")
    omega = float(F.omega_K)
    total = 0.0
    terms = 0
    for alpha in _bounded_denominator_elements(F, cutoff):
        dn = denominator_norm(F, [alpha])
        ratio = dirichlet_intersection(F, t, alpha)
        total += float(dn) ** (-float(t)) * ratio
        terms += 1
    lower = omega
    upper = omega * (1.0 + rel)
    if total < lower - 1e-9:
        verdict = "below-main-term"
    elif total > upper:
        verdict = "exceeds-bound"
    else:
        verdict = "consistent"
    return TruncationReport(
        t=float(t),
        cutoff=cutoff,
        terms=terms,
        partial_sum=total,
        lower_target=lower,
        upper_target=upper,
        verdict=verdict,
    )


def _quadratic_ideal_counts(F: NumberField, X: int) -> np.ndarray:
    """Ideal counts by norm 0..X in a quadratic field, in O(X^2).

    With basis {1, w} and w^2 = e w + f, primitive ideals of norm a are the
    roots of b^2 + e b - f mod a; summing over square divisors adds the rest.
    """
    e = -F.min_poly[1]
    f = -F.min_poly[0]
    prim = np.zeros(X + 1, dtype=np.int64)
    prim[1] = 1
    for a in range(2, X + 1):
        b = np.arange(a, dtype=np.int64)
        prim[a] = int(np.count_nonzero((b * b + e * b - f) % a == 0))
    counts = np.zeros(X + 1, dtype=np.int64)
    for c in range(1, math.isqrt(X) + 1):
        cc = c * c
        top = X // cc
        counts[cc * np.arange(1, top + 1)] += prim[1 : top + 1]
    return counts


# ---------------------------------------------------------------------------
# random integer lattices


def _count_in_ball(cands: list[list[int]], b2: float) -> int:
    # depth-first over per-coordinate candidates with partial-norm pruning
    total = 0
    t = len(cands)

    def rec(i: int, acc: int) -> None:
        nonlocal total
        if i == t:
            total += 1
            return
        for v in cands[i]:
            nacc = acc + v * v
            if nacc <= b2:
                rec(i + 1, nacc)

    rec(0, 0)
    return total


def random_lattice_moments(
    t: int,
    n: int,
    V: float,
    p: int,
    samples: int = 2000,
    seed: int = 0,
) -> list[McEstimate]:
    """Moments of the nonzero-point count of a random p-congruence lattice.

    The lattice of x in Z^t congruent to a multiple of a uniform nonzero
    vector mod p, rescaled to covolume 1; the ball has volume V.  Returns
    estimates of E[count^j] for j = 1..n.  Counting is exact per sample: a
    vectorized minimum-norm prefilter over the multiplier classes, then a
    pruned search over the at most two representatives per coordinate.
    Requires the enumeration radius below p so representatives are unique.
    """
    if t < 2 or n < 1:
        raise ValueError("need t >= 2 and n >= 1")
    if p < 3 or samples < 1:
        raise ValueError("need an odd prime p >= 3 and samples >= 1")
    if not V > 0:
        raise ValueError("need V > 0")
    radius = (V / ball_volume(t)) ** (1.0 / t) * p ** (1.0 - 1.0 / t)
    if radius >= p:
        raise ValueError(
            f"enumeration radius {radius:.2f} >= p; increase p or decrease V"
        )
    b2 = radius * radius
    half = p // 2
    ks = np.arange(1, half + 1, dtype=np.int64)
    power_sums = [0] * (2 * n + 1)
    for i in range(samples):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        while True:
            v = rng.integers(0, p, size=t, dtype=np.int64)
            if v.any():
                break
        m = (ks[:, None] * v[None, :]) % p
        c = np.where(m > half, m - p, m)
        absc = np.abs(c)
        best = np.minimum(absc, p - absc)
        survivors = np.nonzero((best.astype(float) ** 2).sum(axis=1) <= b2)[0]
        rho = 0
        for idx in survivors:
            row = c[idx]
            cands: list[list[int]] = []
            dead = False
            for ci in row:
                ci = int(ci)
                opts = [x for x in (ci, ci - p if ci > 0 else ci + p) if x * x <= b2]
                if not opts:
                    dead = True
                    break
                cands.append(opts)
            if dead:
                continue
            rho += _count_in_ball(cands, b2)
        rho *= 2
        acc = 1
        for j in range(1, 2 * n + 1):
            acc *= rho
            power_sums[j] += acc
    out = []
    for j in range(1, n + 1):
        mean = power_sums[j] / samples
        var = power_sums[2 * j] / samples - mean * mean
        se = math.sqrt(max(var, 0.0) / (samples - 1)) if samples > 1 else math.inf
        out.append(McEstimate(mean=mean, std_error=se, samples=samples, seed=seed))
    return out


# ---------------------------------------------------------------------------
# unit enumeration


def unit_enumeration_check(F: NumberField, B: float) -> tuple[int, float]:
    """Exhaustively count units of height <= B and compare to the box bound.

    Real quadratic fields only: the units are the torsion times powers of
    the fundamental unit, whose heights are integer multiples of the
    fundamental height, so the census is exact.  Returns (count, bound) and
    raises if the enumeration ever exceeded the bound.
    """
    if F.kind != "quadratic" or F.unit_rank != 1:
        raise ValueError("exhaustive unit census needs a real quadratic field")
    if B < 0:
        raise ValueError("need B >= 0")
    eps = fundamental_unit(F)
    h_eps = weil_height(F, eps)
    torsion = enumerate_torsion(F)
    count = 0
    kmax = int(B / h_eps + 1e-9) + 1
    for k in range(-kmax, kmax + 1):
        u = F.one
        base = eps if k >= 0 else eps.inverse()
        for _ in range(abs(k)):
            u = u * base
        if weil_height(F, u) <= B + 1e-9:
            count += len(torsion)
    hyp = HeightHypothesis(h_eps, h_eps)
    bound = unit_count_bound(F, hyp, B)
    if count > bound + 1e-9:
        raise AssertionError(
            f"enumerated {count} units but the bound allows only {bound}"
        )
    return count, bound


# ---------------------------------------------------------------------------
# trinomial heights


def mahler_sequence(n_max: int) -> list[float]:
    """Average log-house of the roots of x^n - x + 1 for n = 5..n_max.

    Roots come from the companion matrix, polished by two Newton steps and
    rejected if the residual stays above 1e-8.  The exponential of n times
    the returned value is the Mahler measure of the trinomial, which
    converges to the bivariate measure of 1 + x + y as n grows.
    """
    if not 5 <= n_max <= 60:
        raise ValueError("supported range is 5 <= n_max <= 60")
    out = []
    for n in range(5, n_max + 1):
        coeffs = np.zeros(n + 1)
        coeffs[0] = 1.0
        coeffs[-2] = -1.0
        coeffs[-1] = 1.0
        roots = np.roots(coeffs)
        for _ in range(2):
            val = roots**n - roots + 1.0
            der = n * roots ** (n - 1) - 1.0
            roots = roots - val / der
        residual = np.abs(roots**n - roots + 1.0)
        if residual.max() > 1e-8:
            raise RuntimeError(f"root polishing failed at degree {n}")
        out.append(float(np.log(np.maximum(np.abs(roots), 1.0)).sum() / n))
    return out


# ---------------------------------------------------------------------------
# termwise lower-bound verification


def lower_bound_sum_check(
    F: NumberField, t: int, cutoff: int, family: str = "all"
) -> dict:
    """Check e^(-t d h(alpha)) <= D(alpha)^-t vol-ratio term by term.

    The left side is the height-sum term, the right side the quantity the
    bounds actually control; the inequality holds because the intersection
    contains a coordinate-scaled copy of the ball whose volume factor is
    exactly the archimedean part of the height, the denominator norm
    supplying the rest.  family="units" walks torsion times fundamental-unit
    powers up to the cutoff exponent; family="all" walks the bounded
    denominator box.  Returns counts, the minimum margin, and both sums.
    """
    if family == "units":
        if F.unit_rank != 1:
            raise ValueError("unit family needs a rank-one field")
        eps = fundamental_unit(F)
        elems = []
        for tor in enumerate_torsion(F):
            u = tor
            elems.append(u)
            up = u
            un = u
            for _ in range(cutoff):
                up = up * eps
                un = un * eps.inverse()
                elems.append(up)
                elems.append(un)
    elif family == "all":
        elems = _bounded_denominator_elements(F, cutoff)
    else:
        raise ValueError("family is 'units' or 'all'")
    d = F.degree
    checked = 0
    min_margin = math.inf
    sum_lhs = 0.0
    sum_rhs = 0.0
    for alpha in elems:
        lhs = math.exp(-t * d * weil_height(F, alpha))
        rhs = float(denominator_norm(F, [alpha])) ** (-float(t)) * dirichlet_intersection(
            F, t, alpha
        )
        if lhs > rhs * (1.0 + 1e-9):
            raise AssertionError(
                f"termwise inequality fails at {alpha}: {lhs} > {rhs}"
            )
        min_margin = min(min_margin, rhs - lhs)
        sum_lhs += lhs
        sum_rhs += rhs
        checked += 1
    return {
        "checked": checked,
        "min_margin": float(min_margin),
        "sum_lhs": float(sum_lhs),
        "sum_rhs": float(sum_rhs),
    }


def verification_report(
    check: str, params: dict, estimate: float, sigma: float, bound: float
) -> dict:
    """Uniform record for an oracle-versus-bound comparison.

    Consistent means the bound is not violated beyond three standard errors
    of the estimate (sigma = 0 for deterministic oracles).
    """
    verdict = "consistent" if bound >= estimate - 3.0 * sigma else "violated"
    return {
        "check": check,
        "params": dict(params),
        "estimate": float(estimate),
        "sigma": float(sigma),
        "bound": float(bound),
        "verdict": verdict,
    }
