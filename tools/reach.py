"""Which functions and methods of the package its callers enter.

    PYTHONPATH=src python3 tools/reach.py

The callers are the package itself, every CLI command through click's
CliRunner (the README examples and a gr-height run), the three benchmark
workloads of perfbench/workloads.py (seeds 1 and 2, 3 passes each, the
cli-runs commands in-process) and the acceptance criteria in
tests/test_acceptance.py.  The unit tests are not callers, so a function
or line that only they run is listed.  A trace hook (sys.settrace)
records every code object of src/latmoment that is entered, and every
line run inside one, from before the package is imported; nothing runs
in another process or thread.

Prints, per module, the functions and methods defined (every def,
nested ones included, found with ast) and how many were entered, then
each one that was not, as module:line and its qualified name.  Then, per
module, the body lines of those functions (the lines that carry
bytecode, def lines excluded) and how many no caller runs, leaving out
the lines of raise statements, which are input contracts; and each such
run of lines as module:first-last with its function.  Takes about 30 s
on a 2-core machine.
"""

from __future__ import annotations

import ast
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "latmoment"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

COMMANDS = (
    ["field-info", "Q(zeta,5)"],
    ["poisson", "--n", "3", "--lambda", "1"],
    ["height", "Q(sqrt,5)", "0,1"],
    ["zeta", "Q(sqrt,-1)", "--s", "2"],
    ["t0-table", "--c0", "0.24"],
    ["second-moment", "Q(zeta,4)", "--t", "27", "--volume", "1"],
    ["moment-bounds", "Q", "--t", "40", "--n", "3", "--volume", "1"],
    ["empirical", "Q", "--kind", "mc-ratio", "--t", "6", "--alpha", "2", "--samples", "100000",
     "--seed", "3"],
    ["verify", "--suite", "core", "--seed", "7"],
    ["gr-height", "Q(zeta,5)", "--row", "1,0,0,0 0,1,0,0 1/2,0,0,1",
     "--row", "0,0,1,0 1,1,0,0 0,0,0,2"],
)
SEEDS = (1, 2)
PASSES = 3


def defined() -> dict[tuple[str, int], tuple[str, str]]:
    """(file, first line) -> (module, qualified name) of every def in the
    package.  The first line is the first decorator's, as in co_firstlineno."""
    out = {}

    def visit(node, module: str, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                out[(path, first)] = (module, prefix + child.name)
                visit(child, module, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, path, prefix + child.name + ".")
            else:
                visit(child, module, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, str(path), "")
    return out


def body_lines() -> dict[tuple[str, int], str]:
    """(file, line) -> qualified name of every line that carries bytecode
    in a function of the package, the def lines and the lines of raise
    statements left out; a comprehension's or lambda's lines count as the
    function's around it."""
    out = {}

    def visit(code, path: str, raises: set[int], owner: str | None) -> None:
        for const in code.co_consts:
            if not hasattr(const, "co_lines"):
                continue
            if not const.co_flags & inspect.CO_OPTIMIZED:
                # a class body: its methods are functions, its lines are not
                visit(const, path, raises, None)
                continue
            name = owner if owner and const.co_name.startswith("<") else const.co_qualname
            for _, _, line in const.co_lines():
                if line is not None and line > const.co_firstlineno and line not in raises:
                    out.setdefault((path, line), name)
            visit(const, path, raises, name)

    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        raises = {line for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Raise)
                  for line in range(node.lineno, node.end_lineno + 1)}
        visit(compile(text, str(path), "exec"), str(path), raises, None)
    return out


def run_callers() -> None:
    import pytest
    from click.testing import CliRunner

    import workloads
    from latmoment.cli import main as cli_main

    def in_process(args: list[str]) -> workloads.CliResult:
        result = CliRunner().invoke(cli_main, args)
        return workloads.CliResult(result.exit_code, result.stdout)

    for args in COMMANDS:
        code = in_process(args).code
        if code != 0:
            raise SystemExit(f"latmoment {' '.join(args)} exited {code}")
    for name, kind in workloads.WORKLOADS.items():
        workload = kind(in_process) if name == "cli-runs" else kind()
        workload.prepare()
        for seed in SEEDS:
            for ops in workload.passes(seed, PASSES):
                for op in ops:
                    # an operation that reproduces a known fault may report it
                    problems = op.check(op.run())
                    if problems and op.fault is None:
                        raise SystemExit(f"{op.label}: {problems}")
    code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py")])
    if code != 0:
        raise SystemExit(f"the acceptance criteria exited {code}")


def main() -> None:
    src = str(SRC)
    entered: set[tuple[str, int]] = set()
    ran: set[tuple[str, int]] = set()

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(src):
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
            return lines
        return None

    sys.settrace(hook)
    try:
        run_callers()
    finally:
        sys.settrace(None)

    functions = defined()
    per_module: dict[str, list[int]] = {}
    missed = []
    for key, (module, qualname) in sorted(functions.items()):
        counts = per_module.setdefault(module, [0, 0])
        counts[0] += 1
        if key in entered:
            counts[1] += 1
        else:
            missed.append(f"{module}:{key[1]} {qualname}")
    print(f"{'module':<12} {'defined':>8} {'entered':>8} {'not':>5}")
    for module, (total, hit) in sorted(per_module.items()):
        print(f"{module:<12} {total:>8} {hit:>8} {total - hit:>5}")
    total = sum(c[0] for c in per_module.values())
    hit = sum(c[1] for c in per_module.values())
    print(f"{'all':<12} {total:>8} {hit:>8} {total - hit:>5}")
    print(f"\nnot entered by any caller ({len(missed)}):")
    for line in missed:
        print("  " + line)

    unrun: dict[str, list[tuple[int, str]]] = {}
    line_counts: dict[str, list[int]] = {}
    for (path, line), qualname in sorted(body_lines().items()):
        module = Path(path).stem
        counts = line_counts.setdefault(module, [0, 0])
        counts[0] += 1
        if (path, line) not in ran:
            counts[1] += 1
            unrun.setdefault(module, []).append((line, qualname))
    print(f"\n{'module':<12} {'lines':>8} {'not run':>8}   (raise statements left out)")
    for module, (total, missing) in sorted(line_counts.items()):
        print(f"{module:<12} {total:>8} {missing:>8}")
    total = sum(c[0] for c in line_counts.values())
    missing = sum(c[1] for c in line_counts.values())
    print(f"{'all':<12} {total:>8} {missing:>8}")
    print(f"\nbody lines no caller runs ({missing}):")
    for module, items in sorted(unrun.items()):
        runs = []
        for line, qualname in items:
            if runs and runs[-1][2] == qualname and runs[-1][1] == line - 1:
                runs[-1][1] = line
            else:
                runs.append([line, line, qualname])
        for first, last, qualname in runs:
            where = f"{first}" if first == last else f"{first}-{last}"
            print(f"  {module}:{where} {qualname}")


if __name__ == "__main__":
    main()
