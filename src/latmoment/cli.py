"""Batch front end.

Subcommands cover field information, element and subspace heights, Poisson
moments, the moment brackets, zeta intervals, the threshold table, the
verification suite, and the empirical oracles.  Tables emit CSV (header
comment `# latmoment-csv v1`) or JSON (with a `schema` field); verification
reports are always JSON.  Identical configuration and seed produce
byte-identical output.  Exit status: 0 success, 2 precondition violation
(the computed threshold is printed) or invalid configuration, 3
verification failure.

A flat key=value config file (`--config`) supplies defaults: a key sets the
command's single-valued option of that name (`rank_ratio` for --rank-ratio,
`lam` for --lambda), converted and checked by the option's own type and
choices.  Flags win; arguments and repeatable options (--row, --alpha) are
flag-only, and other keys are ignored.  Keys that earlier versions ignored
are honoured too: `kind` (height, empirical), `n` and `lam` (poisson), `s`
(zeta), `constant` and `rank_ratio` (moment-bounds), `shifted` (t0-table)
and `suite` (verify).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from fractions import Fraction

import click

from .bounds import (
    HeightHypothesis,
    ThresholdError,
    dedekind_zeta,
    dedekind_zeta_field,
    default_hypothesis,
    ellipsoid_intersection_bound,
    moment_bounds,
    second_moment_bounds,
    t0_threshold,
    volume_ratio_height_bound,
)
from .heights import (
    gr_height_factors,
    h_infty,
    rred_matrix,
    weil_height,
)
from .moments import MomentQuery, main_term, poisson_moment, poisson_moment_series
from .numberfield import FieldElement, NumberField, fundamental_unit, make_field
from .oracle import (
    dirichlet_intersection,
    mahler_sequence,
    mc_intersection_ratio,
    random_lattice_moments,
    truncated_second_moment_rhs,
    unit_enumeration_check,
    verification_report,
)

CSV_HEADER = "# latmoment-csv v1"
SCHEMA = 1

# published thresholds for the canonical (M, k) pairs of the summary table
PUBLISHED_T0 = {(1, 26): 27, (2, 48): 97, (3, 70): 213, (4, 92): 372, (5, 115): 576}

# float-evaluation slack attached to transcendental cells
EVAL_PM = 1e-9


def _load_config(path: str) -> dict:
    cfg = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise click.UsageError(f"config line without '=': {raw.strip()!r}")
            key, val = line.split("=", 1)
            cfg[key.strip()] = val.strip()
    return cfg


def _apply_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """The config file's values as defaults of the command's single-valued
    options, keyed by option name; click converts and checks them as flags."""
    if path is not None:
        names = {p.name for p in ctx.command.params
                 if isinstance(p, click.Option) and not p.multiple}
        ctx.default_map = {k: v for k, v in _load_config(path).items() if k in names}


def _parse_rational(text: str) -> Fraction | float:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return float(text)


def _parse_element(F: NumberField, text: str) -> FieldElement:
    parts = [p.strip() for p in text.split(",")]
    try:
        coords = [Fraction(p) for p in parts]
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in element {text!r}") from None
    if len(coords) > F.degree:
        raise click.UsageError(
            f"{len(coords)} coordinates for a degree-{F.degree} field"
        )
    coords += [Fraction(0)] * (F.degree - len(coords))
    return F.element(tuple(coords))


def _render(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return repr(x)
    if x is None:
        return ""
    return str(x)


def _emit(columns: list[str], rows: list[dict], fmt: str, output: str | None,
          summary: str) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_render(row.get(c)) for c in columns] for row in rows)
        body = CSV_HEADER + "\n" + buf.getvalue()
    else:
        payload = {
            "schema": SCHEMA,
            "columns": columns,
            "rows": [
                {c: (str(v) if isinstance(v, Fraction) else v) for c, v in r.items()}
                for r in rows
            ],
        }
        body = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _write(body, output)
    click.echo(summary, err=True)


def _write(body: str, output: str | None) -> None:
    """The body to the output path, or to stdout when there is none."""
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(body)
        except OSError as exc:
            raise click.UsageError(f"cannot write output {output!r}: {exc.strerror}") from None
    else:
        click.echo(body, nl=False)


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ThresholdError as exc:
            click.echo(f"precondition violated: {exc} (computed t0 = {exc.t0!r})",
                       err=True)
            raise SystemExit(2)
        except ValueError as exc:
            click.echo(f"invalid configuration: {exc}", err=True)
            raise SystemExit(2)

    return wrapper


def _hypothesis(F: NumberField, c0: float | None, c1: float | None) -> HeightHypothesis:
    if c0 is None and c1 is None:
        return default_hypothesis(F)
    if c0 is None:
        raise click.UsageError("c1 override requires c0")
    return HeightHypothesis(c0, c1 if c1 is not None else c0, "user")


_config = click.option("--config", type=click.Path(exists=True, dir_okay=False),
                       is_eager=True, expose_value=False, callback=_apply_config,
                       help="flat key=value defaults file; flags win")
_output = click.option("--output", default=None, help="write to this path instead of stdout")
_common = [
    _config,
    click.option("--format", type=click.Choice(["csv", "json"]), default="csv"),
    _output,
]


def _with_common(fn):
    for deco in reversed(_common):
        fn = deco(fn)
    return fn


@click.group()
def main() -> None:
    """Moments of lattice-point counts over number fields."""


@main.command("field-info")
@click.argument("descriptor")
@_with_common
@_guard
def field_info(descriptor: str, format: str, output) -> None:
    """Degree, signature, discriminant and unit data of a field."""
    F = make_field(descriptor)
    r1, r2 = F.signature
    row = {
        "descriptor": F.descriptor,
        "kind": F.kind,
        "degree": F.degree,
        "r1": r1,
        "r2": r2,
        "unit_rank": F.unit_rank,
        "discriminant": F.disc,
        "omega": F.omega_K,
        "conductor": F.conductor,
    }
    _emit(list(row), [row], format, output,
          f"{F.descriptor}: degree {F.degree}, signature ({r1},{r2}), "
          f"disc {F.disc}, omega {F.omega_K}")


@main.command("height")
@click.argument("descriptor")
@click.argument("elements", nargs=-1, required=True)
@click.option("--kind", type=click.Choice(["weil", "house"]), default="weil",
              help="weil: all places; house: archimedean part only")
@_with_common
@_guard
def height_cmd(descriptor: str, elements, kind: str, format: str, output) -> None:
    """Heights of field elements given as comma-separated rational coordinates."""
    F = make_field(descriptor)
    rows = []
    for text in elements:
        a = _parse_element(F, text)
        val = weil_height(F, a) if kind == "weil" else h_infty(F, [a])
        rows.append({"element": text, "kind": kind, "height": val, "pm": EVAL_PM})
    _emit(["element", "kind", "height", "pm"], rows, format, output,
          f"{len(rows)} height(s) over {F.descriptor}")


@main.command("gr-height")
@click.argument("descriptor")
@click.option("--row", "row_texts", multiple=True, required=True,
              help="matrix row: entries space-separated, coordinates comma-separated")
@_with_common
@_guard
def gr_height_cmd(descriptor: str, row_texts, format: str, output) -> None:
    """Subspace height of a row-reduced matrix, with its factorization."""
    F = make_field(descriptor)
    rows_elems = [[_parse_element(F, cell) for cell in text.split()] for text in row_texts]
    mat = rred_matrix(F, rows_elems)
    fac = gr_height_factors(mat)
    row = {
        "m": len(rows_elems),
        "n": len(rows_elems[0]),
        "gr_height": fac.height,
        "pm": EVAL_PM,
        "covolume": fac.covolume,
        "covolume_pm": EVAL_PM,
        "index": fac.index,
        "norm_index_product": fac.norm_index_product,
    }
    _emit(list(row), [row], format, output,
          f"gr height {fac.height!r} = covolume x index over {F.descriptor}")


@main.command("poisson")
@click.option("--n", type=int, required=True)
@click.option("--lambda", "lam", type=_parse_rational, metavar="RATIONAL", required=True,
              help="rate; rationals are kept exact")
@_with_common
@_guard
def poisson_cmd(n: int, lam, format: str, output) -> None:
    """Moments of a Poisson variable, exact for rational rates."""
    value = poisson_moment(n, lam)
    row = {"n": n, "lambda": lam, "m_n": value,
           "pm": 0 if isinstance(value, (int, Fraction)) else EVAL_PM}
    _emit(["n", "lambda", "m_n", "pm"], [row], format, output,
          f"m_{n}({lam}) = {value}")


@main.command("zeta")
@click.argument("target")
@click.option("--s", type=float, required=True)
@click.option("--p", "--P", "P", type=int, default=1000,
              help="P >= 1, checked and otherwise unused; kept for the "
                   "benchmark's call shape until the next benchmark change")
@_with_common
@_guard
def zeta_cmd(target: str, s: float, P: int, format: str, output) -> None:
    """Dedekind zeta interval for a conductor or a field descriptor."""
    if target.isdigit():
        z = dedekind_zeta(int(target), s, P)
    else:
        z = dedekind_zeta_field(make_field(target), s, P)
    row = {"conductor": z.conductor, "s": z.s,
           "value_low": z.value_low, "value_high": z.value_high}
    mid = (z.value_low + z.value_high) / 2
    _emit(list(row), [row], format, output,
          f"zeta({s}) in [{z.value_low!r}, {z.value_high!r}] (~{mid:.9g})")


@main.command("second-moment")
@click.argument("descriptor")
@click.option("--t", type=float, required=True)
@click.option("--volume", type=_parse_rational, metavar="RATIONAL", required=True)
@click.option("--k", type=int, default=4)
@click.option("--c0", type=float, default=None)
@click.option("--c1", type=float, default=None)
@_with_common
@_guard
def second_moment_cmd(descriptor, t, volume, k, c0, c1, format, output):
    """Two-sided second-moment bracket for the ball point count."""
    F = make_field(descriptor)
    rep = second_moment_bounds(F, _hypothesis(F, c0, c1), t, volume, k=k)
    row = {
        "field": F.descriptor, "t": t, "volume": volume, "k": k,
        "lower": rep.lower, "main": rep.main_term, "upper": rep.upper,
        "t0": rep.constants["t0"], "epsilon": rep.constants["epsilon"],
        "C": rep.constants["C"],
        "zeta_low": rep.constants["zeta_low"], "zeta_high": rep.constants["zeta_high"],
        "pm": EVAL_PM,
    }
    _emit(list(row), [row], format, output,
          f"second moment in [{_render(rep.lower)}, {rep.upper!r}]")


@main.command("moment-bounds")
@click.argument("descriptor")
@click.option("--t", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--volume", type=_parse_rational, metavar="RATIONAL", required=True)
@click.option("--k", type=int, default=None)
@click.option("--constant", type=float, default=None,
              help="leading constant; omitted means unresolved, evaluated at 1")
@click.option("--mode", type=click.Choice(["general", "fixed-field", "cyclotomic"]),
              default=None)
@click.option("--rank-ratio", type=float, default=None)
@click.option("--c0", type=float, default=None)
@click.option("--c1", type=float, default=None)
@_with_common
@_guard
def moment_bounds_cmd(descriptor, t, n, volume, k, constant, mode, rank_ratio,
                      c0, c1, format, output):
    """Assembled n-th moment bracket; long-format quantity/value rows."""
    F = make_field(descriptor)
    options = {"k": k, "C": constant, "mode": mode, "rank_ratio": rank_ratio}
    options = {key: val for key, val in options.items() if val is not None}
    rep = moment_bounds(MomentQuery(F, t, n, volume), _hypothesis(F, c0, c1), options)
    rows = [
        {"quantity": "lower", "value": rep.lower, "pm": EVAL_PM},
        {"quantity": "main", "value": rep.main_term, "pm": EVAL_PM},
        {"quantity": "upper", "value": rep.upper, "pm": EVAL_PM},
    ]
    for name in sorted(rep.components):
        rows.append({"quantity": f"component:{name}",
                     "value": rep.components[name], "pm": EVAL_PM})
    for name in sorted(rep.constants):
        rows.append({"quantity": f"constant:{name}",
                     "value": rep.constants[name], "pm": EVAL_PM})
    _emit(["quantity", "value", "pm"], rows, format, output,
          f"moment {n} of {F.descriptor} at t={t}: "
          f"[{rep.lower!r}, {rep.upper!r}]")


@main.command("t0-table")
@click.option("--k", default="26,48,70,92,115", help="comma-separated split parameters")
@click.option("--m", "--M", "M", default=None,
              help="comma-separated tuple sizes; defaults to 1..len(k)")
@click.option("--c0", type=float, default=0.24)
@click.option("--rank-ratio", type=float, default=0.5)
@click.option("--shifted", is_flag=True, default=False)
@_with_common
@_guard
def t0_table_cmd(k, M, c0, rank_ratio, shifted, format, output):
    """Admissibility thresholds per (M, k), with the published targets."""
    ks = [int(x) for x in k.split(",") if x.strip()]
    ms = ([int(x) for x in M.split(",") if x.strip()]
          if M else list(range(1, len(ks) + 1)))
    if len(ms) != len(ks):
        raise click.UsageError("M list and k list must have equal length")
    hyp = HeightHypothesis(c0, c0 / 2.0, "user")
    rows = []
    for M, k in zip(ms, ks):
        sup = t0_threshold(M, k, hyp, rank_ratio=rank_ratio, shifted=shifted)
        counting = k * M + 0.5
        rows.append({
            "M": M,
            "k": k,
            "t0_sup": sup,
            "sup_pm": 0 if sup == counting else EVAL_PM,
            "t0_ceil": math.ceil(sup),
            "published": PUBLISHED_T0.get((M, k)),
        })
    below = [r for r in rows if r["published"] is not None]
    note = (f"; {len(below)}/{len(rows)} rows have published targets, "
            f"all above the computed sup"
            if below and all(r["t0_sup"] < r["published"] for r in below) else "")
    _emit(["M", "k", "t0_sup", "sup_pm", "t0_ceil", "published"], rows, format, output,
          f"{len(rows)} threshold rows (c0={c0}, rank ratio {rank_ratio})" + note)


@main.command("empirical")
@click.argument("descriptor", required=False)
@click.option("--kind", type=click.Choice(["mc-ratio", "lattice"]), required=True)
@click.option("--t", type=int, required=True)
@click.option("--n", type=int, default=None)
@click.option("--volume", type=_parse_rational, metavar="RATIONAL")
@click.option("--p", type=int, default=None)
@click.option("--alpha", "alphas", multiple=True,
              help="element coordinates, repeatable")
@click.option("--samples", type=int, default=100_000)
@click.option("--seed", type=int, default=0)
@_with_common
@_guard
def empirical_cmd(descriptor, kind, t, n, volume, p, alphas, samples, seed, format, output):
    """Seeded Monte Carlo oracles: intersection volumes or lattice moments."""
    if kind == "mc-ratio":
        if not descriptor or not alphas:
            raise click.UsageError("mc-ratio needs a descriptor and --alpha")
        F = make_field(descriptor)
        elems = [_parse_element(F, a) for a in alphas]
        est = mc_intersection_ratio(F, t, elems, samples=samples, seed=seed)
        rows = [{
            "kind": kind, "field": F.descriptor, "t": t,
            "alphas": "|".join(alphas), "estimate": est.mean,
            "std_error": est.std_error, "samples": est.samples, "seed": est.seed,
        }]
        summary = f"ratio ~ {est.mean!r} +- {est.std_error!r}"
    else:
        missing = [f"--{name}" for name, val in (("n", n), ("volume", volume), ("p", p))
                   if val is None]
        if missing:
            raise click.UsageError(f"lattice needs {', '.join(missing)}")
        if descriptor is not None and make_field(descriptor) is not make_field("Q"):
            raise click.UsageError("lattice samples ZZ-lattices only; give Q or no descriptor")
        ests = random_lattice_moments(t, n, float(volume), p, samples=samples, seed=seed)
        expected_field = make_field("Q")
        rows = []
        for j, est in enumerate(ests, start=1):
            expect = main_term(MomentQuery(expected_field, t, j, volume))
            rows.append({
                "kind": kind, "t": t, "order": j, "volume": volume, "p": p,
                "estimate": est.mean, "std_error": est.std_error,
                "expected_main": expect, "samples": est.samples, "seed": est.seed,
            })
        summary = f"{len(rows)} moment estimates at p={p}"
    _emit(list(rows[0]), rows, format, output, summary)


def _core_suite(seed: int, cutoff: int) -> list[dict]:
    Q = make_field("Q")
    QI = make_field("Q(sqrt,-1)")
    Q2 = make_field("Q(sqrt,2)")
    Q5 = make_field("Q(sqrt,5)")
    checks = []

    resid = 0.0
    for n in range(1, 9):
        for lam in (Fraction(1, 2), Fraction(1), Fraction(2)):
            exact = poisson_moment(n, lam)
            series = poisson_moment_series(n, float(lam))
            resid = max(resid, abs(float(exact) - series))
    checks.append(verification_report(
        "poisson-touchard-series", {"n_max": 8}, resid, 0.0, 1e-10))

    for F, t, coords in ((Q, 6, "2"), (QI, 4, "1,1"), (Q2, 4, "1,1")):
        a = _parse_element(F, coords)
        det = dirichlet_intersection(F, t, a)
        checks.append(verification_report(
            "ellipsoid-vs-dirichlet", {"field": F.descriptor, "t": t, "alpha": coords},
            det, 0.0, ellipsoid_intersection_bound(F, t, [a])))
        checks.append(verification_report(
            "volume-ratio-vs-dirichlet",
            {"field": F.descriptor, "t": t, "alpha": coords},
            det, 0.0, volume_ratio_height_bound(F, t, [a], k=2)))

    est = mc_intersection_ratio(QI, 4, [_parse_element(QI, "1,1"),
                                        _parse_element(QI, "2")],
                                samples=20000, seed=seed)
    checks.append(verification_report(
        "mc-vs-ellipsoid", {"field": "Q(sqrt,-1)", "t": 4, "alphas": "1,1|2",
                            "samples": 20000, "seed": seed},
        est.mean, est.std_error,
        ellipsoid_intersection_bound(QI, 4, [_parse_element(QI, "1,1"),
                                             _parse_element(QI, "2")])))

    rep = truncated_second_moment_rhs(Q, 6, cutoff)
    checks.append(verification_report(
        "truncated-sum-upper", {"field": "Q", "t": 6, "cutoff": cutoff},
        rep.partial_sum, 0.0, rep.upper_target))
    checks.append(verification_report(
        "truncated-sum-lower", {"field": "Q", "t": 6, "cutoff": cutoff},
        rep.lower_target, 0.0, rep.partial_sum))

    count, bound = unit_enumeration_check(Q2, 3 * weil_height(Q2, fundamental_unit(Q2)))
    checks.append(verification_report(
        "unit-census", {"field": "Q(sqrt,2)", "multiple": 3}, float(count), 0.0, bound))

    seq = mahler_sequence(40)
    checks.append(verification_report(
        "mahler-window", {"n": 40}, abs(math.exp(40 * seq[-1]) - 1.3815), 0.0, 0.01))

    golden = weil_height(Q5, Q5.element((Fraction(0), Fraction(1))))
    checks.append(verification_report(
        "golden-ratio-height", {"field": "Q(sqrt,5)"},
        abs(golden - 0.2406), 0.0, 5e-5))

    smq = second_moment_bounds(Q, default_hypothesis(Q), 30.0, 1.0)
    checks.append(verification_report(
        "second-moment-bracket", {"field": "Q", "t": 30, "V": 1},
        smq.lower, 0.0, smq.upper))
    return checks


@main.command("verify")
@click.option("--suite", type=click.Choice(["core"]), default="core")
@click.option("--seed", type=int, default=7)
@click.option("--cutoff", type=int, default=15)
@_config
@_output
@_guard
def verify_cmd(suite, seed, cutoff, output) -> None:
    """Run the verification suite; JSON report, exit 3 on any violation."""
    checks = _core_suite(seed, cutoff)
    all_pass = all(c["verdict"] == "consistent" for c in checks)
    payload = {
        "schema": SCHEMA,
        "suite": suite,
        "seed": seed,
        "all_pass": all_pass,
        "checks": checks,
    }
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", output)
    for c in checks:
        status = "PASS" if c["verdict"] == "consistent" else "FAIL"
        click.echo(f"{status} {c['check']}", err=True)
    if not all_pass:
        click.echo("verification failed", err=True)
        raise SystemExit(3)
    click.echo(f"{len(checks)} checks passed", err=True)


if __name__ == "__main__":
    main()
