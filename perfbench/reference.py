"""Reference values computed apart from latmoment.

Nothing here imports the package: zeta values come from products of
Dirichlet L-functions (mpmath.dirichlet over the field's primitive
characters), embeddings from the defining generator, main terms from the
explicit Stirling formula, and box sizes from Moebius inversion.  The
benchmark checks the program's outputs against these.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from functools import lru_cache

import mpmath

_DESCRIPTOR = re.compile(r"Q(?:\((sqrt|zeta),(-?\d+)\))?$")


# ---------------------------------------------------------------------------
# field data from the descriptor alone


@lru_cache(maxsize=None)
def field_facts(descriptor: str) -> dict:
    """Kind, degree, |disc|, omega, places and generator images of a field.

    Quadratic fields use the generator sqrt(D), or (1 + sqrt D)/2 when
    D = 1 mod 4; cyclotomic fields use zeta_n.  `embeddings` lists one
    image of the generator per archimedean place with its multiplicity e
    (1 real, 2 complex).
    """
    m = _DESCRIPTOR.match(descriptor)
    if not m:
        raise ValueError(f"unsupported descriptor {descriptor!r}")
    tag, val = m.groups()
    if tag is None:
        return {"kind": "rational", "degree": 1, "abs_disc": 1, "omega": 2,
                "embeddings": ((0j, 1),), "n": 1, "D": None}
    v = int(val)
    if tag == "sqrt":
        D = v
        abs_disc = abs(D) if D % 4 == 1 else 4 * abs(D)
        omega = 4 if D == -1 else 6 if D == -3 else 2
        root = cmath.sqrt(D)
        if D % 4 == 1:
            gens = ((1 + root) / 2, (1 - root) / 2)
        else:
            gens = (root, -root)
        if D > 0:
            emb = ((gens[0], 1), (gens[1], 1))
        else:
            emb = ((gens[0], 2),)
        return {"kind": "quadratic", "degree": 2, "abs_disc": abs_disc,
                "omega": omega, "embeddings": emb, "n": None, "D": D}
    n = v
    phi = euler_phi(n)
    num = n**phi
    den = 1
    for p in prime_factors(n):
        den *= p ** (phi // (p - 1))
    omega = n if n % 2 == 0 else 2 * n
    emb = tuple(
        (cmath.exp(2j * math.pi * k / n), 2)
        for k in range(1, (n + 1) // 2)
        if math.gcd(k, n) == 1
    )
    return {"kind": "cyclotomic", "degree": phi, "abs_disc": num // den,
            "omega": omega, "embeddings": emb, "n": n, "D": None}


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def euler_phi(n: int) -> int:
    out = n
    for p in prime_factors(n):
        out = out // p * (p - 1)
    return out


def place_weights(descriptor: str, coords) -> list[tuple[float, int]]:
    """(|sigma alpha|^2, e) at each archimedean place of the element with the
    given power-basis coordinates."""
    out = []
    for g, e in field_facts(descriptor)["embeddings"]:
        val = sum(float(c) * g**j for j, c in enumerate(coords))
        out.append((abs(val) ** 2, e))
    return out


# ---------------------------------------------------------------------------
# Dirichlet intersection ratios


def dirichlet_expectation(descriptor: str, coords, t: int) -> tuple[str, float, float]:
    """What vol(B cap alpha^-1 B)/vol(B) must be, from the place weights w.

    Returns (kind, low, high).  kind "closed" means the value is exactly
    low == high: N(alpha)^-t when every w >= 1 (then alpha^-1 B lies in B)
    and 1 when every w <= 1.  Otherwise kind is "range": the ratio lies
    between the volume of the ball shrunk by sqrt(max w) and the volume of
    alpha^-1 B.
    """
    ws = place_weights(descriptor, coords)
    d = field_facts(descriptor)["degree"]
    slack = 1e-12
    log_norm_t = -t * sum(e / 2.0 * math.log(w) for w, e in ws)
    if all(w >= 1.0 - slack for w, _ in ws):
        v = math.exp(log_norm_t)
        return "closed", v, v
    if all(w <= 1.0 + slack for w, _ in ws):
        return "closed", 1.0, 1.0
    wmax = max(w for w, _ in ws)
    low = min(1.0, 1.0 / wmax) ** (t * d / 2.0)
    high = min(1.0, math.exp(log_norm_t))
    return "range", low, high


# ---------------------------------------------------------------------------
# Dedekind zeta values as products of L-functions


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n >= 0."""
    if n == 0:
        return 1 if abs(a) == 1 else 0
    result = 1
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 == 1 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _unit_group_factors(n: int) -> list[tuple[int, int, dict[int, int]]]:
    """(modulus, order, discrete-log table) of cyclic factors of (Z/n)^*.

    One factor per odd prime power (a primitive root); 4 gives {+-1}; 2^k
    with k >= 3 gives <-1> x <5>.  Each table maps a residue modulo the
    factor's prime power to its exponent, so dlog(a) = table[a % modulus].
    """
    factors = []
    for p in prime_factors(n):
        q = p
        while n % (q * p) == 0:
            q *= p
        units = [a for a in range(1, q) if a % p]
        if p == 2:
            if q == 2:
                continue
            if q == 4:
                factors.append((4, 2, {1: 0, 3: 1}))
                continue
            minus, five = {}, {}
            x = 1
            for k in range(q // 4):
                minus[x] = 0
                minus[(-x) % q] = 1
                five[x] = k
                five[(-x) % q] = k
                x = x * 5 % q
            factors.append((q, 2, minus))
            factors.append((q, q // 4, five))
            continue
        order = len(units)
        for g in units:
            table, x = {}, 1
            for k in range(order):
                table[x] = k
                x = x * g % q
            if len(table) == order:
                factors.append((q, order, table))
                break
    return factors


@lru_cache(maxsize=None)
def _primitive_characters(n: int) -> tuple[tuple, ...]:
    """Value lists [chi(0), ..., chi(f-1)] of the primitive characters that
    induce the characters modulo n; one list per character mod n."""
    factors = _unit_group_factors(n)
    units = [a for a in range(1, n + 1) if math.gcd(a, n) == 1]
    out = []

    def build(idx: int, exps: list[int]) -> None:
        if idx < len(factors):
            for j in range(factors[idx][1]):
                build(idx + 1, exps + [j])
            return

        def phase(a: int) -> Fraction:
            acc = Fraction(0)
            for (q, order, table), j in zip(factors, exps):
                acc += Fraction(j * table[a % q], order)
            return acc - math.floor(acc)

        conductor = next(
            f
            for f in range(1, n + 1)
            if n % f == 0 and all(phase(a) == 0 for a in units if (a - 1) % f == 0)
        )
        values = []
        for b in range(conductor):
            if math.gcd(b, conductor) != 1:
                values.append(0)
                continue
            a = next(a for a in units if (a - b) % conductor == 0)
            ph = phase(a)
            values.append(mpmath.expjpi(2 * mpmath.mpf(ph.numerator) / ph.denominator))
        out.append(tuple(values))

    build(0, [])
    return tuple(out)


def zeta_reference(descriptor: str, s: float) -> float:
    """zeta_K(s) as a product of L(s, chi) over primitive characters.

    Rational field: zeta(s).  Quadratic field of discriminant Delta:
    zeta(s) L(s, (Delta/.)).  Cyclotomic field Q(zeta_n): the product over
    all characters mod n, each replaced by its primitive character.
    """
    facts = field_facts(descriptor)
    with mpmath.workdps(20):
        sv = mpmath.mpf(s)
        if facts["kind"] == "rational":
            return float(mpmath.zeta(sv))
        if facts["kind"] == "quadratic":
            D = facts["D"]
            delta = D if D % 4 == 1 else 4 * D
            chi = [kronecker(delta, m) for m in range(abs(delta))]
            return float(mpmath.zeta(sv) * mpmath.dirichlet(sv, chi))
        prod = mpmath.mpc(1)
        for chi in _primitive_characters(facts["n"]):
            prod *= mpmath.dirichlet(sv, chi)
        if abs(prod.imag) > 1e-12 * abs(prod.real):
            raise ArithmeticError("L-product is not real")
        return float(prod.real)


def conductor_descriptor(n: int) -> str:
    """Descriptor of the cyclotomic field of conductor n."""
    if n % 4 == 2:
        n //= 2
    return "Q" if n <= 2 else f"Q(zeta,{n})"


# ---------------------------------------------------------------------------
# moments and box sizes


def stirling2(n: int, m: int) -> int:
    """S(n, m) from the explicit sum (1/m!) sum_j (-1)^j C(m, j) (m - j)^n."""
    total = sum((-1) ** j * math.comb(m, j) * (m - j) ** n for j in range(m + 1))
    return total // math.factorial(m)


def poisson_main_term(omega: int, n: int, V) -> Fraction:
    """omega^n m_n(V/omega) with m_n the n-th Poisson moment, exactly."""
    lam = Fraction(V) / omega
    return omega**n * sum(stirling2(n, m) * lam**m for m in range(1, n + 1))


def _mobius(n: int) -> int:
    ps = prime_factors(n)
    k = 1
    for p in ps:
        k *= p
    return 0 if k != n else (-1) ** len(ps)


def box_count(degree: int, cutoff: int) -> int:
    """Number of nonzero (p/c) or ((p + q w)/c) with |p|, |q| <= cutoff,
    1 <= c <= cutoff and gcd(p, q, c) = 1, by Moebius inversion over the
    common divisor."""
    total = 0
    for g in range(1, cutoff + 1):
        mu = _mobius(g)
        if mu == 0:
            continue
        k = cutoff // g
        total += mu * k * ((2 * k + 1) ** degree - 1)
    return total
