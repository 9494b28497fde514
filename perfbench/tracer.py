"""Per-layer tracing of latmoment, installed from outside the package.

Every module-level function of the six layer modules that is public, or
private but imported by another module, is replaced by a timing wrapper in
every namespace that binds it (the package namespace included), because
modules import one another's functions by name.  A wrapper records calls,
total time and self time (its span minus the spans of wrapped callees), and
a few counters where the work is done: integrand evaluations of the
adaptive quadrature, repeated zeta requests, truncated-sum terms and Monte
Carlo samples.  Generator functions are left alone; their work accrues to
the consumer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("numberfield", "heights", "moments", "bounds", "oracle", "cli")

# name, unit, better; the traced run prints exactly these
PER_LAYER = (
    ("numberfield.self_ms", "ms", "lower"),
    ("numberfield.denominator_norm.calls", "count", "lower"),
    ("numberfield.denominator_norm.us_per_call", "us", "lower"),
    ("numberfield.frak_D.ms_per_call", "ms", "lower"),
    ("numberfield.make_field.ms", "ms", "lower"),
    ("heights.self_ms", "ms", "lower"),
    ("heights.det_lattice.ms_per_call", "ms", "lower"),
    ("heights.plucker.ms_per_call", "ms", "lower"),
    ("heights.weil_height.calls", "count", "lower"),
    ("moments.self_ms", "ms", "lower"),
    ("moments.adaptive_simpson.calls", "count", "lower"),
    ("moments.adaptive_simpson.evals_per_call", "count", "lower"),
    ("moments.main_term.us_per_call", "us", "lower"),
    ("bounds.self_ms", "ms", "lower"),
    ("bounds.dedekind_zeta.calls", "count", "lower"),
    ("bounds.dedekind_zeta.ms_per_call", "ms", "lower"),
    ("bounds.moment_bounds.ms_per_call", "ms", "lower"),
    ("bounds.dedekind_zeta_field.self_ms", "ms", "lower"),
    ("bounds.zeta.repeat_ratio", "ratio", "lower"),
    ("bounds.alpha_M.ms", "ms", "lower"),
    ("oracle.self_ms", "ms", "lower"),
    ("oracle.dirichlet_intersection.calls", "count", "lower"),
    ("oracle.dirichlet_intersection.ms_per_call", "ms", "lower"),
    ("oracle.truncated_second_moment_rhs.terms_per_s", "1/s", "higher"),
    ("oracle.mc_intersection_ratio.samples_per_s", "1/s", "higher"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.verify.ms", "ms", "lower"),
    ("cli.moment-bounds.ms", "ms", "lower"),
    ("cli.zeta.ms", "ms", "lower"),
    ("cli.gr-height.ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
)

_ZETA_KEYS = ("bounds.dedekind_zeta", "bounds.dedekind_zeta_field")


@dataclass
class Stats:
    """Per-key call counts, total and self nanoseconds, and counters."""

    calls: Counter = field(default_factory=Counter)
    total_ns: Counter = field(default_factory=Counter)
    self_ns: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)

    def copy(self) -> Stats:
        return Stats(Counter(self.calls), Counter(self.total_ns),
                     Counter(self.self_ns), Counter(self.counts))

    def __add__(self, other: Stats) -> Stats:
        return Stats(self.calls + other.calls, self.total_ns + other.total_ns,
                     self.self_ns + other.self_ns, self.counts + other.counts)

    def __sub__(self, other: Stats) -> Stats:
        # Counter subtraction drops keys that reach zero, which reads as 0
        return Stats(self.calls - other.calls, self.total_ns - other.total_ns,
                     self.self_ns - other.self_ns, self.counts - other.counts)

    def to_json(self) -> dict:
        return {k: dict(getattr(self, k)) for k in ("calls", "total_ns", "self_ns", "counts")}

    @classmethod
    def from_json(cls, data: dict) -> Stats:
        return cls(*(Counter(data[k]) for k in ("calls", "total_ns", "self_ns", "counts")))


class Tracer:
    """Wraps latmoment's layer functions and accumulates Stats."""

    def __init__(self) -> None:
        self.stats = Stats()
        self._open: list[int] = []  # child nanoseconds of each open span
        self._zeta_depth = 0
        self._zeta_seen: set = set()

    def install(self) -> None:
        import latmoment

        modules = {layer: importlib.import_module(f"latmoment.{layer}") for layer in LAYERS}
        namespaces = [latmoment, *modules.values()]
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue
                shared = any(vars(ns).get(name) is obj for ns in namespaces if ns is not mod)
                if name.startswith("_") and not shared:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, name, hit[1])

    @contextmanager
    def span(self, key: str):
        """A span for code that is not a wrapped function (a CLI command)."""
        self._open.append(0)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(key, time.perf_counter_ns() - start)

    def _close(self, key: str, dt: int) -> None:
        child = self._open.pop()
        self.stats.calls[key] += 1
        self.stats.total_ns[key] += dt
        self.stats.self_ns[key] += dt - child
        if self._open:
            self._open[-1] += dt

    def _wrap(self, key: str, fn):
        counts = self.stats.counts
        if key == "moments.adaptive_simpson":

            def prepare(args, kwargs):
                f = args[0]

                def counted(x):
                    counts["moments.adaptive_simpson.evals"] += 1
                    return f(x)

                return (counted, *args[1:]), kwargs

        elif key in _ZETA_KEYS:
            sig = inspect.signature(fn)

            def prepare(args, kwargs):
                if self._zeta_depth == 0:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    target, s, P = bound.args
                    req = (getattr(target, "descriptor", target), float(s), int(P))
                    counts["bounds.zeta.requests"] += 1
                    if req in self._zeta_seen:
                        counts["bounds.zeta.repeats"] += 1
                    self._zeta_seen.add(req)
                return args, kwargs

        else:
            prepare = None

        if key == "oracle.truncated_second_moment_rhs":

            def finish(result):
                counts["oracle.truncated_second_moment_rhs.terms"] += result.terms

        elif key == "oracle.mc_intersection_ratio":

            def finish(result):
                counts["oracle.mc_intersection_ratio.samples"] += result.samples

        else:
            finish = None
        zeta = key in _ZETA_KEYS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            self._open.append(0)
            self._zeta_depth += zeta
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._zeta_depth -= zeta
                self._close(key, time.perf_counter_ns() - start)
            if finish is not None:
                finish(result)
            return result

        return wrapper


def per_layer_metrics(timed: Stats, whole: Stats, cli_import_ms: float) -> dict:
    """The PER_LAYER figures from traced Stats.

    `timed` covers the timed operations, `whole` the whole traced process
    (set-up included), which is where field construction and the alpha_M
    search happen.  Per-call figures read 0 when there were no calls.
    """

    def per_call(key: str, scale: float) -> float:
        n = timed.calls[key]
        return timed.total_ns[key] / n / scale if n else 0.0

    def layer_self_ms(layer: str) -> float:
        return sum(v for k, v in timed.self_ns.items() if k.startswith(layer + ".")) / 1e6

    def rate(count_key: str, time_key: str) -> float:
        ns = timed.total_ns[time_key]
        return timed.counts[count_key] / (ns / 1e9) if ns else 0.0

    c = timed.counts
    return {
        "numberfield.self_ms": layer_self_ms("numberfield"),
        "numberfield.denominator_norm.calls": timed.calls["numberfield.denominator_norm"],
        "numberfield.denominator_norm.us_per_call": per_call("numberfield.denominator_norm", 1e3),
        "numberfield.frak_D.ms_per_call": per_call("numberfield.frak_D", 1e6),
        "numberfield.make_field.ms": whole.total_ns["numberfield.make_field"] / 1e6,
        "heights.self_ms": layer_self_ms("heights"),
        "heights.det_lattice.ms_per_call": per_call("heights.det_lattice", 1e6),
        "heights.plucker.ms_per_call": per_call("heights.plucker", 1e6),
        "heights.weil_height.calls": timed.calls["heights.weil_height"],
        "moments.self_ms": layer_self_ms("moments"),
        "moments.adaptive_simpson.calls": timed.calls["moments.adaptive_simpson"],
        "moments.adaptive_simpson.evals_per_call": (
            c["moments.adaptive_simpson.evals"] / timed.calls["moments.adaptive_simpson"]
            if timed.calls["moments.adaptive_simpson"] else 0.0
        ),
        "moments.main_term.us_per_call": per_call("moments.main_term", 1e3),
        "bounds.self_ms": layer_self_ms("bounds"),
        "bounds.dedekind_zeta.calls": timed.calls["bounds.dedekind_zeta"],
        "bounds.dedekind_zeta.ms_per_call": per_call("bounds.dedekind_zeta", 1e6),
        "bounds.moment_bounds.ms_per_call": per_call("bounds.moment_bounds", 1e6),
        "bounds.dedekind_zeta_field.self_ms": timed.self_ns["bounds.dedekind_zeta_field"] / 1e6,
        "bounds.zeta.repeat_ratio": (
            c["bounds.zeta.repeats"] / c["bounds.zeta.requests"]
            if c["bounds.zeta.requests"] else 0.0
        ),
        "bounds.alpha_M.ms": whole.total_ns["bounds.alpha_M"] / 1e6,
        "oracle.self_ms": layer_self_ms("oracle"),
        "oracle.dirichlet_intersection.calls": timed.calls["oracle.dirichlet_intersection"],
        "oracle.dirichlet_intersection.ms_per_call": per_call("oracle.dirichlet_intersection", 1e6),
        "oracle.truncated_second_moment_rhs.terms_per_s": rate(
            "oracle.truncated_second_moment_rhs.terms", "oracle.truncated_second_moment_rhs"),
        "oracle.mc_intersection_ratio.samples_per_s": rate(
            "oracle.mc_intersection_ratio.samples", "oracle.mc_intersection_ratio"),
        "cli.import_ms": cli_import_ms,
        "cli.verify.ms": per_call("cli.verify", 1e6),
        "cli.moment-bounds.ms": per_call("cli.moment-bounds", 1e6),
        "cli.zeta.ms": per_call("cli.zeta", 1e6),
        "cli.gr-height.ms": per_call("cli.gr-height", 1e6),
        "cli.self_ms": layer_self_ms("cli"),
    }
