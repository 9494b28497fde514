"""Independent empirical checks for the bound machinery.

Monte Carlo volume estimators, closed-form Dirichlet volume ratios (float
incomplete betas), brute-force sums over bounded denominators, exhaustive
unit enumeration and random-lattice sampling.  Nothing here reuses the
inequalities it is meant to test: every oracle computes its quantity from
first principles so agreement is evidence, not circularity.

Determinism: every randomized routine derives its streams from
numpy SeedSequence keyed by (seed, batch or sample index) and accumulates
integer statistics, so results are bit-identical across runs and independent
of any batching or thread configuration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .bounds import (
    HeightHypothesis,
    ThresholdError,
    _check_pinned_P,
    default_hypothesis,
    ideal_sum_bound,
    unit_count_bound,
)
from .heights import _heights_from_conjugates, weil_height
from .moments import _betainc, ball_volume
from .numberfield import (
    FieldElement,
    NumberField,
    _embed_rows,
    _factorize,
    conjugates,
    denominator_norm,
    enumerate_torsion,
    fundamental_unit,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "McEstimate",
    "TruncationReport",
    "mc_intersection_ratio",
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


@dataclass(frozen=True)
class TruncationReport:
    """A truncated denominator-bounded sum compared against its bracket.

    terms counts every element of the box; skipped counts those whose
    weight was too small to move the float sum, so their volume ratio was
    never evaluated.
    """

    t: float
    cutoff: int
    terms: int
    skipped: int
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


def _mc_inputs(F: NumberField, t: int, alphas, samples: int) -> tuple[int, list]:
    # the shared preconditions; returns the total real dimension and alphas
    if samples < 10_000:
        raise ValueError("need at least 10^4 samples")
    if not t >= 1:
        raise ValueError(f"need t >= 1, got t = {t}")
    N = t * F.degree
    if N > 64:
        raise ValueError(f"total real dimension {N} > 64")
    alphas = list(alphas)
    if not alphas or any(not a for a in alphas):
        raise ValueError("need nonzero elements")
    return N, alphas


def _hit_rate(samples: int, seed: int, hits) -> McEstimate:
    # hits(rng, b) counts the hits among b fresh samples drawn from rng
    import numpy as np
    total = 0
    done = 0
    batch_idx = 0
    while done < samples:
        b = min(_BATCH, samples - done)
        rng = np.random.default_rng(np.random.SeedSequence((seed, batch_idx)))
        total += hits(rng, b)
        done += b
        batch_idx += 1
    p = total / samples
    se = math.sqrt(p * (1.0 - p) / (samples - 1))
    return McEstimate(mean=p, std_error=se, samples=samples, seed=seed)


def _ball_points(rng: np.random.Generator, b: int, N: int) -> np.ndarray:
    import numpy as np
    g = rng.standard_normal((b, N))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    g *= rng.random((b, 1)) ** (1.0 / N)
    return g


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
    sum_places |alpha|_place^2 r_place^2 <= 1.  Needs samples >= 10^4,
    t >= 1 and total dimension t*degree <= 64.
    """
    N, alphas = _mc_inputs(F, t, alphas, samples)
    import numpy as np
    conj = _embed_rows(F, [F.coerce(a).floats() for a in alphas])
    W = np.array([[abs(z[row]) ** 2 for row, _ in F.places] for z in conj])
    blocks = _place_blocks(F, t)

    def hits(rng, b):
        g = _ball_points(rng, b, N)
        r2 = np.empty((b, len(blocks)))
        for j, (_, off, width) in enumerate(blocks):
            r2[:, j] = (g[:, off : off + width] ** 2).sum(axis=1)
        return int(np.count_nonzero((r2 @ W.T <= 1.0).all(axis=1)))

    return _hit_rate(samples, seed, hits)


# the largest t at which the three-place rule below is verified, on 12
# seeded weight triples with every place complex (see dirichlet_intersection)
_THREE_PLACE_MAX_T = 8

# The lower half of the 12-point Gauss-Legendre rule on [0, 1] as (node,
# weight), correctly rounded from a 50-digit Newton iteration on P_12; the
# upper half mirrors it.  The three-place ratio applies the rule on each
# piece of the outer coordinate between kinks, where the integrand is smooth.
_GL_HALF = (
    (0.009219682876640375, 0.023587668193255914), (0.04794137181476257, 0.05346966299765921),
    (0.11504866290284765, 0.08003916427167311), (0.2063410228566913, 0.10158371336153296),
    (0.3160842505009099, 0.1167462682691774), (0.43738329574426554, 0.12457352290670139),
)


def _dirichlet_ratio(w: tuple[float, ...], a: tuple[float, ...]) -> float:
    """Mass of {sum w_i u_i <= 1} under the Dirichlet law (a_1, .., a_k, 1).

    It is prod w^-a if every w >= 1 and 1 if every w <= 1.  Two places with
    w_1 > 1 > w_2 bound u_2 by two lines crossing at u* = (1 - w_2)/(w_1 - w_2),
    which gives I_u*(a_1, a_2 + 1) + prod w^-a I_y(a_2 + 1, a_1) with
    y = w_2 (w_1 - 1)/(w_1 - w_2).  Three places integrate the two-place mass
    of the last two places, at weights w_j (1 - u)/(1 - w_1 u), against the
    marginal of u_1, between the kinks u = (1 - w_j)/(w_1 - w_j).
    """
    log_norm = -sum(ai * math.log(wi) for wi, ai in zip(w, a))
    if min(w) >= 1.0:
        return math.exp(log_norm)
    if max(w) <= 1.0:
        return 1.0
    if len(w) == 2:
        (w1, w2), (a1, a2) = (w, a) if w[0] > w[1] else (w[::-1], a[::-1])
        span = w1 - w2
        return _betainc(a1, a2 + 1.0, (1.0 - w2) / span, (w1 - 1.0) / span) + _betainc(
            a2 + 1.0, a1, w2 * (w1 - 1.0) / span, w1 * (1.0 - w2) / span, log_norm
        )
    w1, w2, w3 = w
    a1, a2, a3 = a
    top = min(1.0, 1.0 / w1)
    kinks = [(1.0 - wj) / (w1 - wj) for wj in (w2, w3) if wj != w1]
    cuts = sorted({0.0, top, *(u for u in kinks if 0.0 < u < top)})
    log_beta = math.lgamma(a1) + math.lgamma(a2 + a3 + 1.0) - math.lgamma(a1 + a2 + a3 + 1.0)
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        h = hi - lo
        for x, g in _GL_HALF:
            for u in (lo + h * x, hi - h * x):
                s = (1.0 - u) / (1.0 - w1 * u)
                marginal = math.exp((a1 - 1.0) * math.log(u) + (a2 + a3) * math.log1p(-u) - log_beta)
                total += h * g * marginal * _dirichlet_ratio((w2 * s, w3 * s), (a2, a3))
    return total


def _dirichlet_value(F: NumberField, t: int, num: tuple[int, ...], den: int, conj,
                     norm: int | None = None) -> float:
    # dirichlet_intersection at alpha = num/den, reduced and nonzero; conj
    # holds the embedding values of alpha and is read only on two or three
    # places, norm (if the caller has it) is F._abs_norm_int(num)
    places = F.places
    if len(places) == 1:
        if norm is None:
            norm = F._abs_norm_int(num)
        return min(1.0, den**F.degree / norm) ** t
    w = tuple(float(abs(conj[row])) ** 2 for row, _ in places)
    return _dirichlet_ratio(w, tuple(t * e / 2.0 for _, e in places))


def dirichlet_intersection(F: NumberField, t: int, alpha: FieldElement) -> float:
    """Deterministic vol(B cap alpha^-1 B)/vol(B) for up to three places.

    The per-place squared block norms u_i of a uniform ball point follow a
    Dirichlet law with exponents t e_i/2 and a unit slack coordinate, so
    the ratio is the mass of {sum w_i u_i <= 1} with w_i = |sigma_i(alpha)|^2
    (_dirichlet_ratio), whatever the order of the places.  One place gives
    min(1, den^d/|N(num)|)^t from the exact integer norm of the numerator.
    Three places take t <= 8 (_THREE_PLACE_MAX_T): one 12-point rule per
    kink piece is within 3.5e-15 relative there, and 1.9e-6 off at t = 10,
    so a larger t raises ValueError instead of returning a wrong value.
    """
    alpha = F.coerce(alpha)
    if not alpha:
        raise ValueError("alpha must be nonzero")
    if not t >= 2:
        raise ValueError("need t >= 2")
    if len(F.places) > 3:
        raise ValueError("more than three archimedean places: use mc_intersection_ratio instead")
    if len(F.places) == 3 and t > _THREE_PLACE_MAX_T:
        raise ValueError(f"three places need t <= {_THREE_PLACE_MAX_T}, got {t}: "
                         "use mc_intersection_ratio instead")
    conj = conjugates(F, alpha) if len(F.places) > 1 else None
    return _dirichlet_value(F, t, alpha.num, alpha.den, conj)


def _bounded_denominator_elements(F: NumberField, cutoff: int):
    # the pairs (num, c) of the canonical representatives (p + q w)/c with
    # gcd(c, p, q) = 1, the reduced form FieldElement takes as given; each
    # field element in the box appears exactly once
    if F.degree > 2:
        raise ValueError("denominator enumeration supports degree <= 2")
    box = range(-cutoff, cutoff + 1)
    for c in range(1, cutoff + 1):
        for num in itertools.product(box, repeat=F.degree):
            if any(num) and math.gcd(c, *num) == 1:
                yield num, c


def truncated_second_moment_rhs(
    F: NumberField, t: int, cutoff: int, P: int = 600
) -> TruncationReport:
    """Brute-force partial value of the second-moment off-diagonal sum.

    Sums D(alpha)^-t vol(B cap alpha^-1 B)/vol(B) over all field elements
    with numerator and denominator coordinates bounded by cutoff, as integer
    pairs num/c: D = c^d / gcd(c, N(num)), N the norm form, which is the one
    2 x 2 minor of num's multiplication rows (gcd(c, their entries) = 1).  The
    torsion units alone contribute exactly omega, so the partial sum must
    land in [omega, omega (1 + relative ideal-sum bound)]; the verdict
    records which side fails, if any.  The bound uses the first splitting
    parameter k in 2..39 that admits t.  P must be at least 1 and changes
    nothing: it is kept for the benchmark's call shape until the next
    benchmark change.

    Every term is >= 0 and its ratio is at most 1 + 2^-40, so a term whose
    weight D^-t times that factor lies under half an ulp of the running sum
    cannot change the round-to-nearest sum.  Its ratio is not evaluated and
    it counts as skipped; the sum equals the full one bit for bit.
    """
    if cutoff < 2:
        raise ValueError("need cutoff >= 2")
    _check_pinned_P(P)
    hyp = default_hypothesis(F)
    for k in range(2, 40):
        try:
            rel = ideal_sum_bound(F, hyp, float(t), 1, k).bound_value
            break
        except ThresholdError:
            continue
    else:
        raise ThresholdError(t, f"no splitting parameter admits t = {t}")
    omega = float(F.omega_K)
    d = F.degree
    elems = list(_bounded_denominator_elements(F, cutoff))
    if len(F.places) > 1:
        conjs = _embed_rows(F, [[x / c for x in num] for num, c in elems])
    else:
        conjs = itertools.repeat(None)
    total = 0.0
    skipped = 0
    for (num, c), conj in zip(elems, conjs):
        norm = F._abs_norm_int(num)
        w = float(c**d // math.gcd(c, norm)) ** -t
        if w * (1.0 + 2.0**-40) < math.ulp(total) / 2:
            skipped += 1
            continue
        total += w * _dirichlet_value(F, t, num, c, conj, norm)
    upper = omega * (1.0 + rel)
    if total < omega - 1e-9:
        verdict = "below-main-term"
    elif total > upper:
        verdict = "exceeds-bound"
    else:
        verdict = "consistent"
    return TruncationReport(t=float(t), cutoff=cutoff, terms=len(elems), skipped=skipped,
                            partial_sum=total, lower_target=omega, upper_target=upper,
                            verdict=verdict)


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
    if p < 3 or _factorize(p) != {p: 1} or samples < 1:
        raise ValueError("need an odd prime p >= 3 and samples >= 1")
    if not 0 < V < math.inf:
        raise ValueError("need a finite V > 0")
    radius = (V / ball_volume(t)) ** (1.0 / t) * p ** (1.0 - 1.0 / t)
    if radius >= p:
        raise ValueError(
            f"enumeration radius {radius:.2f} >= p; increase p or decrease V"
        )
    b2 = radius * radius
    half = p // 2
    import numpy as np
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
    if not B >= 0:
        raise ValueError("need B >= 0")
    eps = fundamental_unit(F)
    h_eps = weil_height(F, eps)
    torsion = enumerate_torsion(F)
    count = 0
    kmax = int(B / h_eps + 1e-9) + 1
    for k in range(-kmax, kmax + 1):
        if weil_height(F, eps**k) <= B + 1e-9:
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
    import numpy as np
    out = []
    for n in range(5, n_max + 1):
        coeffs = np.zeros(n + 1)
        coeffs[[0, -2, -1]] = 1.0, -1.0, 1.0
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
    denominator box as truncated_second_moment_rhs does.  The embeddings of
    all walked elements come from one stacked product, and each row serves
    its element's height and its ratio.  Needs t >= 2 and
    cutoff >= 1.  Returns counts, the minimum margin, and both sums.
    """
    if not t >= 2:
        raise ValueError("need t >= 2")
    if cutoff < 1:
        raise ValueError("need cutoff >= 1")
    d = F.degree
    if family == "units":
        if F.unit_rank != 1:
            raise ValueError("unit family needs a rank-one field")
        eps = fundamental_unit(F)
        powers = [0] + [s * k for k in range(1, cutoff + 1) for s in (1, -1)]
        units = [tor * eps**k for tor in enumerate_torsion(F) for k in powers]
        elems = [(u.num, u.den, denominator_norm(F, [u]), None) for u in units]
    elif family == "all":
        elems = [(num, c, c**d // math.gcd(c, norm), norm)
                 for num, c in _bounded_denominator_elements(F, cutoff)
                 for norm in (F._abs_norm_int(num),)]
    else:
        raise ValueError("family is 'units' or 'all'")
    conjs = _embed_rows(F, [[x / den for x in num] for num, den, _, _ in elems])
    heights = _heights_from_conjugates(F, conjs, [D for _, _, D, _ in elems])
    min_margin = math.inf
    sum_lhs = 0.0
    sum_rhs = 0.0
    for (num, den, D, norm), conj, h in zip(elems, conjs, heights):
        lhs = math.exp(-t * d * h)
        rhs = float(D) ** (-float(t)) * _dirichlet_value(F, t, num, den, conj, norm)
        if lhs > rhs * (1.0 + 1e-9):
            raise AssertionError(
                f"termwise inequality fails at num={num}, den={den} in {F.descriptor}: "
                f"{lhs} > {rhs}"
            )
        min_margin = min(min_margin, rhs - lhs)
        sum_lhs += lhs
        sum_rhs += rhs
    return {
        "checked": len(elems),
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
