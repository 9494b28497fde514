"""The three workloads: their seeded inputs, operations and output checks.

A workload is built in two steps.  `prepare()` is the set-up a user pays
once per process (import, field construction, the alpha_M cache and a
warm-up that requests none of the timed zeta arguments).  `passes(seed, n)`
then lists n passes of operations.  Every pass holds the same kinds of
operation; pass parameters that change cost or bracket widths (t, s, P) come
from a pass key, and the keys of a run are a seeded permutation of
range(n), so every seed does the same total work while no input repeats
across passes.  The seed also draws the random elements and matrices and
the order of operations inside each pass.

Operations marked with a fault reproduce a known defect on inputs that do
not depend on the seed; they fail on every run (see README.md).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import latmoment as lm

import reference as ref
from procs import run_process

FIELDS = (
    "Q",
    "Q(sqrt,-1)",
    "Q(sqrt,-3)",
    "Q(sqrt,2)",
    "Q(sqrt,5)",
    "Q(zeta,5)",
    "Q(zeta,7)",
    "Q(zeta,8)",
)

CSV_HEADER = "# latmoment-csv v1"


@dataclass
class Op:
    """One timed call and the checks on its result.

    `check` returns a list of problems (empty when the output is right);
    `widths` returns the relative widths (high - low)/low of the two-sided
    certified results in the output.  `fault` names the known defect an
    operation reproduces.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    widths: Callable[[object], list[float]] = lambda result: []
    fault: str | None = None


def _rel_width(low: float, high: float) -> float:
    return (high - low) / low


def _keys(rng: random.Random, n: int) -> list[int]:
    keys = list(range(n))
    rng.shuffle(keys)
    return keys


def _threshold(call) -> float:
    try:
        call()
    except lm.ThresholdError as exc:
        return exc.t0
    raise RuntimeError("expected the probe to raise ThresholdError")


def _moment_bounds(F, t: int, n: int, V, hyp):
    return lm.moment_bounds(lm.MomentQuery(F, t, n, V), hyp)


def _gr_height_factors(F, rows):
    return lm.gr_height_factors(lm.rred_matrix(F, [[F.element(c) for c in row] for row in rows]))


def _contains(label: str, low: float, high: float, value: float) -> list[str]:
    if 0 < low <= value <= high:
        return []
    return [f"{label} [{low!r}, {high!r}] misses the L-product {value!r}"]


def _moment_problems(rep, omega: int, n: int, V) -> list[str]:
    problems = []
    want = float(ref.poisson_main_term(omega, n, V))
    if rep.lower != want or rep.main_term != want:
        problems.append(f"lower {rep.lower!r} != omega^n m_n(V/omega) = {want!r}")
    if not rep.lower <= rep.upper < math.inf:
        problems.append(f"bracket [{rep.lower!r}, {rep.upper!r}] is not ordered and finite")
    bad = {k: v for k, v in rep.components.items() if not 0 <= v < math.inf}
    if bad:
        problems.append(f"components not finite and >= 0: {bad}")
    if rep.constants.get("zeta_low", 0) > rep.constants.get("zeta_high", math.inf):
        problems.append("zeta_low > zeta_high")
    return problems


def _second_moment_problems(rep, omega: int, V) -> list[str]:
    problems = []
    want = Fraction(V) ** 2 + omega * Fraction(V)
    if rep.lower != want:
        problems.append(f"lower {rep.lower!r} != V^2 + omega V = {want}")
    if not rep.lower <= rep.upper < math.inf:
        problems.append(f"bracket [{rep.lower!r}, {rep.upper!r}] is not ordered and finite")
    if any(not 0 <= v < math.inf for v in rep.components.values()):
        problems.append(f"components not finite and >= 0: {rep.components}")
    return problems


def _cyclo_problems(c: dict, d: str, t: int) -> list[str]:
    problems = _contains("zeta(37t/52)", c["zeta1"].value_low, c["zeta1"].value_high,
                         ref.zeta_reference(d, 37.0 * t / 52.0))
    problems += _contains("zeta(t/25)", c["zeta2"].value_low, c["zeta2"].value_high,
                          ref.zeta_reference(d, t / 25.0))
    if not 0 < c["C_low"] <= c["C_high"]:
        problems.append(f"C bracket [{c['C_low']!r}, {c['C_high']!r}] is not ordered")
    if c["epsilon"] != 1 / 400:
        problems.append(f"epsilon {c['epsilon']!r} != 1/400")
    return problems


# ---------------------------------------------------------------------------
# bracket-sweep


class BracketSweep:
    """Library calls of the bounds layer over a fixed grid of fields."""

    name = "bracket-sweep"

    def prepare(self) -> None:
        self.fields = {d: lm.make_field(d) for d in FIELDS}
        self.hyp = {d: lm.default_hypothesis(F) for d, F in self.fields.items()}
        self.t_min = {}
        for d, F in self.fields.items():
            hyp = self.hyp[d]
            for n in (3, 4):
                probe = partial(lm.moment_bounds, lm.MomentQuery(F, max(2, n // F.degree + 1), n, 1), hyp)
                self.t_min[("moment", n, d)] = math.floor(_threshold(probe)) + 1
            probe = partial(lm.second_moment_bounds, F, hyp, 2.0, 1)
            self.t_min[("second", d)] = math.floor(_threshold(probe)) + 1
            if F.degree >= 2:
                probe = partial(lm.cyclotomic_second_moment_constants, F, 2.0)
                self.t_min[("cyclo", d)] = math.floor(_threshold(probe)) + 1
            for M in (2, 3):
                lm.alpha_M(M, hyp.c0)
        # warm-up far above every timed t, so no timed zeta argument is requested
        Q = self.fields["Q"]
        lm.moment_bounds(lm.MomentQuery(Q, self.t_min[("moment", 3, "Q")] + 1000, 3, 1), self.hyp["Q"])
        lm.second_moment_bounds(Q, self.hyp["Q"], 1000.0, 1)
        lm.cyclotomic_second_moment_constants(self.fields["Q(sqrt,-1)"], 1000.0)
        lm.dedekind_zeta_field(Q, 7.5, 600)

    def passes(self, seed: int, n: int) -> list[list[Op]]:
        rng = random.Random(f"{self.name}/{seed}")
        out = []
        for key in _keys(rng, n):
            ops = self._pass(key)
            rng.shuffle(ops)
            out.append(ops)
        return out

    def _pass(self, key: int) -> list[Op]:
        ops = []
        s = 2.0 + key / 16.0
        for d, F in self.fields.items():
            hyp = self.hyp[d]
            omega = ref.field_facts(d)["omega"]
            for n in (3, 4):
                t = self.t_min[("moment", n, d)] + key
                for V in (1, 4):
                    ops.append(Op(
                        f"moment_bounds {d} n={n} t={t} V={V}",
                        partial(_moment_bounds, F, t, n, V, hyp),
                        partial(_moment_problems, omega=omega, n=n, V=V),
                        lambda r: [_rel_width(r.lower, r.upper)],
                    ))
            t = self.t_min[("second", d)] + key
            for V in (1, 4):
                ops.append(Op(
                    f"second_moment_bounds {d} t={t} V={V}",
                    partial(lm.second_moment_bounds, F, hyp, float(t), V),
                    partial(_second_moment_problems, omega=omega, V=V),
                    lambda r: [_rel_width(float(r.lower), r.upper)],
                ))
            if F.degree >= 2:
                t = self.t_min[("cyclo", d)] + key
                ops.append(Op(
                    f"cyclotomic_second_moment_constants {d} t={t}",
                    partial(lm.cyclotomic_second_moment_constants, F, float(t)),
                    partial(_cyclo_problems, d=d, t=t),
                    lambda c: [_rel_width(c["zeta1"].value_low, c["zeta1"].value_high),
                               _rel_width(c["zeta2"].value_low, c["zeta2"].value_high)],
                ))
            for P in (600, 10_000):
                ops.append(Op(
                    f"dedekind_zeta_field {d} s={s} P={P}",
                    partial(lm.dedekind_zeta_field, F, s, P),
                    lambda z, d=d, s=s: _contains("zeta", z.value_low, z.value_high,
                                                  ref.zeta_reference(d, s)),
                    lambda z: [_rel_width(z.value_low, z.value_high)],
                ))
        return ops


# ---------------------------------------------------------------------------
# exact-oracle

# (field, cutoff, t) of the truncated second-moment sums; Q(sqrt,5) at
# t = 27 is the smallest admissible t, t = 60 is known fault (b)
TRUNCATED = (("Q", 16, 6), ("Q(sqrt,-1)", 5, 4), ("Q(sqrt,5)", 3, 27))
FAULT_B = ("Q(sqrt,5)", 3, 60)

# (field, power-basis coordinates, t) where dirichlet_intersection misses its
# closed form: known fault (a)
FAULT_A = (
    ("Q(sqrt,5)", (2, 0), 20),
    ("Q(zeta,5)", (-3, 0, Fraction(-3, 2), 1), 8),
    ("Q(zeta,7)", (3, -3, Fraction(1, 2), Fraction(1, 2), -1, -2), 3),
    ("Q(sqrt,2)", (1, 0), 40),
    ("Q(sqrt,5)", (1, 0), 60),
)

_WIDE = tuple(Fraction(v, b) for v in range(-3, 4) for b in (1, 2))
_NARROW = tuple(Fraction(v, 2) for v in range(-4, 5) if v % 2 == 0 or abs(v) == 1)
_UNIT = (Fraction(-1), Fraction(0), Fraction(1))

# Seeded Dirichlet batches: (field, elements per operation, coordinate
# values).  Multi-place fields are drawn with t * degree <= 12: above that the
# quadrature misses its closed form for some elements and not others (fault
# (a)), so a seeded case would fail on some seeds only.
DIRICHLET = (
    ("Q", 16, _WIDE),
    ("Q(sqrt,-1)", 16, _WIDE),
    ("Q(sqrt,-3)", 16, _WIDE),
    ("Q(sqrt,2)", 32, _NARROW),
    ("Q(sqrt,5)", 32, _NARROW),
    ("Q(zeta,5)", 32, _NARROW),
    ("Q(zeta,8)", 32, _NARROW),
    ("Q(zeta,7)", 4, _UNIT),
)
ONE_PLACE_MAX_T = 60
MULTI_PLACE_TD = 12

# subspace heights per pass; the eight cheap Q(sqrt,5) matrices put the
# median operation of a pass inside one cluster of like operations
HEIGHT_FIELDS = ("Q(sqrt,5)",) * 8 + ("Q(zeta,5)",) * 2

# t of the lower-bound checks runs over 2 .. 2 + LOWER_T_SPAN - 1, distinct
# for up to LOWER_T_SPAN passes; at t >= 30 the unit family meets fault (a)
LOWER_T_SPAN = 18
LOWER_CUTOFF = 4


def _dirichlet_problems(values, cases, descriptor: str) -> list[str]:
    problems = []
    for v, (coords, t) in zip(values, cases):
        kind, low, high = ref.dirichlet_expectation(descriptor, coords, t)
        if kind == "closed":
            ok = abs(v / low - 1.0) <= 1e-6
        else:
            ok = low * (1 - 1e-9) <= v <= high * (1 + 1e-9)
        if not ok:
            problems.append(f"{descriptor} t={t} alpha={coords}: {v!r} vs {kind} [{low!r}, {high!r}]")
    return problems


def _truncated_problems(rep, descriptor: str, cutoff: int) -> list[str]:
    facts = ref.field_facts(descriptor)
    problems = []
    if rep.verdict != "consistent":
        problems.append(f"verdict {rep.verdict} (partial sum {rep.partial_sum!r})")
    if not rep.partial_sum >= facts["omega"] * (1 - 1e-12):
        problems.append(f"partial sum {rep.partial_sum!r} < omega = {facts['omega']}")
    want = ref.box_count(facts["degree"], cutoff)
    if rep.terms != want:
        problems.append(f"{rep.terms} terms, the box holds {want}")
    return problems


def _lower_bound_problems(res: dict, want_checked: int) -> list[str]:
    problems = []
    if res["checked"] != want_checked:
        problems.append(f"checked {res['checked']} elements, expected {want_checked}")
    if not res["sum_lhs"] <= res["sum_rhs"] * (1 + 1e-9):
        problems.append(f"height sum {res['sum_lhs']!r} exceeds {res['sum_rhs']!r}")
    if not res["min_margin"] >= -1e-9:
        problems.append(f"negative margin {res['min_margin']!r}")
    return problems


def _height_problems(fac) -> list[str]:
    problems = []
    if abs(fac.height - fac.product) > 1e-9 * fac.product:
        problems.append(f"height {fac.height!r} != covolume x index {fac.product!r}")
    if fac.norm_index_product != 1:
        problems.append(f"norm_index_product {fac.norm_index_product} != 1")
    return problems


def random_rows(rng: random.Random, degree: int, m: int = 3, n: int = 5) -> list[list[tuple]]:
    """A full-rank m x n matrix of field-element coordinates: entries
    a/b with |a| <= 4 and b <= 3, zero below a nonzero leading diagonal."""
    rows = []
    for i in range(m):
        row = []
        for j in range(n):
            if j < i:
                row.append((0,) * degree)
                continue
            while True:
                cell = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree))
                if j != i or any(cell):
                    break
            row.append(cell)
        rows.append(row)
    return rows


class ExactOracle:
    """Oracle and exact-arithmetic calls in the shape of the acceptance
    criteria on subspace heights, bound soundness and truncated sums."""

    name = "exact-oracle"

    def prepare(self) -> None:
        self.fields = {d: lm.make_field(d) for d in FIELDS}
        for d, F in self.fields.items():
            lm.alpha_M(1, lm.default_hypothesis(F).c0)
        # warm-up on inputs no timed operation uses
        Q, QI = self.fields["Q"], self.fields["Q(sqrt,-1)"]
        lm.truncated_second_moment_rhs(Q, 6, 2, 599)
        lm.dirichlet_intersection(self.fields["Q(sqrt,5)"], 2, self.fields["Q(sqrt,5)"].from_rational(3))
        lm.gr_height_factors(lm.rred_matrix(QI, [[1, Fraction(1, 2)]]))

    def passes(self, seed: int, n: int) -> list[list[Op]]:
        rng = random.Random(f"{self.name}/{seed}")
        out = []
        for index, key in enumerate(_keys(rng, n)):
            ops = self._pass(rng, key, index)
            rng.shuffle(ops)
            out.append(ops)
        return out

    def _element(self, rng: random.Random, descriptor: str, values) -> tuple:
        while True:
            coords = tuple(rng.choice(values) for _ in range(self.fields[descriptor].degree))
            if any(coords):
                return coords

    def _dirichlet_op(self, descriptor: str, cases, fault: str | None = None) -> Op:
        F = self.fields[descriptor]

        def run():
            return [lm.dirichlet_intersection(F, t, F.element(coords)) for coords, t in cases]

        label = f"dirichlet_intersection {descriptor} x{len(cases)}"
        if len(cases) == 1:
            label += f" alpha={cases[0][0]} t={cases[0][1]}"
        return Op(label, run, partial(_dirichlet_problems, cases=cases, descriptor=descriptor),
                  fault=fault)

    def _pass(self, rng: random.Random, key: int, index: int) -> list[Op]:
        ops = []
        # P changes per pass so no zeta argument repeats across passes; the
        # fault case takes the pass index, not the seeded key
        specs = [(*case, 600 + key, None) for case in TRUNCATED]
        specs.append((*FAULT_B, 600 + index, "b"))
        for d, cutoff, t, P, fault in specs:
            F = self.fields[d]
            ops.append(Op(
                f"truncated_second_moment_rhs {d} t={t} cutoff={cutoff} P={P}",
                partial(lm.truncated_second_moment_rhs, F, t, cutoff, P),
                partial(_truncated_problems, descriptor=d, cutoff=cutoff),
                lambda r: [_rel_width(r.lower_target, r.upper_target)],
                fault,
            ))
        t = 2 + key % LOWER_T_SPAN
        QI, Q2 = self.fields["Q(sqrt,-1)"], self.fields["Q(sqrt,2)"]
        ops.append(Op(
            f"lower_bound_sum_check all Q(sqrt,-1) t={t}",
            partial(lm.lower_bound_sum_check, QI, t, LOWER_CUTOFF, "all"),
            partial(_lower_bound_problems, want_checked=ref.box_count(2, LOWER_CUTOFF)),
        ))
        ops.append(Op(
            f"lower_bound_sum_check units Q(sqrt,2) t={t}",
            partial(lm.lower_bound_sum_check, Q2, t, LOWER_CUTOFF, "units"),
            partial(_lower_bound_problems,
                    want_checked=ref.field_facts("Q(sqrt,2)")["omega"] * (2 * LOWER_CUTOFF + 1)),
        ))
        for d, size, values in DIRICHLET:
            facts = ref.field_facts(d)
            one_place = len(facts["embeddings"]) == 1
            top = ONE_PLACE_MAX_T if one_place else MULTI_PLACE_TD // facts["degree"]
            cases = [(self._element(rng, d, values), rng.randint(2, top)) for _ in range(size)]
            ops.append(self._dirichlet_op(d, cases))
        for d, coords, t in FAULT_A:
            ops.append(self._dirichlet_op(d, [(coords, t)], fault="a"))
        for d in HEIGHT_FIELDS:
            F = self.fields[d]
            rows = random_rows(rng, F.degree)
            ops.append(Op(
                f"gr_height_factors {d} 3x5",
                partial(_gr_height_factors, F, rows),
                _height_problems,
            ))
        return ops


# ---------------------------------------------------------------------------
# cli-runs


def parse_csv(stdout: str) -> list[dict]:
    lines = stdout.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"missing the {CSV_HEADER!r} header")
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def _cli_field_info(out: str, descriptor: str) -> list[str]:
    row = parse_csv(out)[0]
    facts = ref.field_facts(descriptor)
    problems = []
    for col, want in (("degree", facts["degree"]), ("omega", facts["omega"])):
        if int(row[col]) != want:
            problems.append(f"{col} {row[col]} != {want}")
    if abs(int(row["discriminant"])) != facts["abs_disc"]:
        problems.append(f"|disc| {row['discriminant']} != {facts['abs_disc']}")
    return problems


def _cli_zeta(out: str, descriptor: str, s: float) -> list[str]:
    row = parse_csv(out)[0]
    return _contains("zeta", float(row["value_low"]), float(row["value_high"]),
                     ref.zeta_reference(descriptor, s))


def _cli_second_moment(out: str, descriptor: str, V: int) -> list[str]:
    row = parse_csv(out)[0]
    omega = ref.field_facts(descriptor)["omega"]
    problems = []
    if Fraction(row["lower"]) != V * V + omega * V:
        problems.append(f"lower {row['lower']} != V^2 + omega V")
    if not float(row["lower"]) <= float(row["upper"]) < math.inf:
        problems.append(f"bracket [{row['lower']}, {row['upper']}] is not ordered and finite")
    return problems


def _cli_moment_bounds(out: str, descriptor: str, n: int, V: int) -> list[str]:
    vals = {r["quantity"]: float(r["value"]) for r in parse_csv(out)}
    want = float(ref.poisson_main_term(ref.field_facts(descriptor)["omega"], n, V))
    problems = []
    if vals["lower"] != want:
        problems.append(f"lower {vals['lower']!r} != omega^n m_n(V/omega) = {want!r}")
    if not vals["lower"] <= vals["upper"] < math.inf:
        problems.append("bracket is not ordered and finite")
    bad = {k: v for k, v in vals.items() if k.startswith("component:") and not 0 <= v < math.inf}
    if bad:
        problems.append(f"components not finite and >= 0: {bad}")
    return problems


def _cli_gr_height(out: str) -> list[str]:
    row = parse_csv(out)[0]
    product = float(row["covolume"]) * int(row["index"])
    problems = []
    if abs(float(row["gr_height"]) - product) > 1e-9 * product:
        problems.append(f"height {row['gr_height']} != covolume x index {product!r}")
    if Fraction(row["norm_index_product"]) != 1:
        problems.append(f"norm_index_product {row['norm_index_product']} != 1")
    return problems


def _cli_verify(out: str) -> list[str]:
    report = json.loads(out)
    if report.get("all_pass") is not True:
        failed = [c["check"] for c in report.get("checks", []) if c.get("verdict") != "consistent"]
        return [f"verify all_pass is not true: {failed}"]
    return []


def _cli_widths(out: str, kind: str) -> list[float]:
    if kind == "zeta":
        row = parse_csv(out)[0]
        return [_rel_width(float(row["value_low"]), float(row["value_high"]))]
    if kind == "second-moment":
        row = parse_csv(out)[0]
        return [_rel_width(float(row["lower"]), float(row["upper"]))]
    if kind == "moment-bounds":
        vals = {r["quantity"]: float(r["value"]) for r in parse_csv(out)}
        return [_rel_width(vals["lower"], vals["upper"])]
    return []


@dataclass
class CliResult:
    code: int
    stdout: str


def run_cli(args: list[str]) -> CliResult:
    """One `python -m latmoment.cli` process, waited for to the end."""
    proc = run_process([sys.executable, "-m", "latmoment.cli", *args], timeout=120,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return CliResult(proc.returncode, proc.stdout)


class CliRuns:
    """Fresh `python -m latmoment.cli` processes, one at a time."""

    name = "cli-runs"

    def __init__(self, runner: Callable[[list[str]], CliResult] = run_cli) -> None:
        self.runner = runner

    def prepare(self) -> None:
        self.t_min = {}
        for d in FIELDS:
            F = lm.make_field(d)
            hyp = lm.default_hypothesis(F)
            probe = partial(lm.second_moment_bounds, F, hyp, 2.0, 1)
            self.t_min[("second", d)] = math.floor(_threshold(probe)) + 1
            probe = partial(lm.moment_bounds, lm.MomentQuery(F, max(2, 3 // F.degree + 1), 3, 1), hyp)
            self.t_min[("moment", d)] = math.floor(_threshold(probe)) + 1

    def passes(self, seed: int, n: int) -> list[list[Op]]:
        rng = random.Random(f"{self.name}/{seed}")
        out = []
        field_offset = rng.randrange(len(FIELDS))
        verify_base = rng.randrange(10_000)
        for key in _keys(rng, n):
            ops = self._pass(rng, key, FIELDS[(key + field_offset) % len(FIELDS)],
                             verify_base + key)
            # the repeated command follows the pass key, so every seed
            # repeats the same commands
            repeat = self._repeat(ops[key % (len(ops) - 1)])
            rng.shuffle(ops)
            out.append(ops + [repeat])
        return out

    def _op(self, label_args: list[str], check, kind: str = "", fault: str | None = None) -> Op:
        def checked(res: CliResult) -> list[str]:
            if check is None:
                return [] if res.code == 2 else [f"exit code {res.code}, expected 2"]
            if res.code != 0:
                return [f"exit code {res.code}"]
            try:
                return check(res.stdout)
            except (ValueError, KeyError, IndexError) as exc:
                return [f"unparsable output: {exc!r}"]

        def widths(res: CliResult) -> list[float]:
            try:
                return _cli_widths(res.stdout, kind) if res.code == 0 else []
            except (ValueError, KeyError, IndexError):
                return []

        return Op("latmoment " + " ".join(label_args), partial(self.runner, label_args),
                  checked, widths, fault)

    def _pass(self, rng: random.Random, key: int, field: str, verify_seed: int) -> list[Op]:
        s = repr(2.0 + key / 16.0)
        d2 = FIELDS[key % len(FIELDS)]
        d3 = FIELDS[(key + 3) % len(FIELDS)]
        V = (1, 4)[key % 2]
        t2 = self.t_min[("second", d2)] + key
        t3 = self.t_min[("moment", d3)] + key
        rows = random_rows(rng, 4)
        row_args = []
        for row in rows:
            row_args += ["--row", " ".join(",".join(str(c) for c in cell) for cell in row)]
        return [
            self._op(["field-info", field], partial(_cli_field_info, descriptor=field)),
            self._op(["zeta", "Q(sqrt,5)", "--s", s],
                     partial(_cli_zeta, descriptor="Q(sqrt,5)", s=float(s)), "zeta"),
            self._op(["zeta", "5", "--s", s, "--p", "10000"],
                     partial(_cli_zeta, descriptor=ref.conductor_descriptor(5), s=float(s)), "zeta"),
            self._op(["second-moment", d2, "--t", str(t2), "--volume", str(V)],
                     partial(_cli_second_moment, descriptor=d2, V=V), "second-moment"),
            self._op(["moment-bounds", d3, "--t", str(t3), "--n", "3", "--volume", str(V)],
                     partial(_cli_moment_bounds, descriptor=d3, n=3, V=V), "moment-bounds"),
            self._op(["gr-height", "Q(zeta,5)", *row_args], _cli_gr_height),
            self._op(["verify", "--suite", "core", "--seed", str(verify_seed)], _cli_verify),
            # a missing required parameter is invalid configuration: exit 2;
            # kept last, outside the repeated commands
            self._op(["second-moment", "Q"], None, fault="c"),
        ]

    def _repeat(self, original: Op) -> Op:
        """Run `original` again; its stdout and exit code must not change."""
        first: dict = {}
        run_first = original.run

        def remember():
            first["result"] = run_first()
            return first["result"]

        original.run = remember

        def same(res: CliResult) -> list[str]:
            before = first["result"]
            if (res.code, res.stdout) != (before.code, before.stdout):
                return ["output differs from the first run of the same command"]
            return []

        return Op(original.label + " (repeat)", run_first, same)


WORKLOADS = {w.name: w for w in (BracketSweep, ExactOracle, CliRuns)}
