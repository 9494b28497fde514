"""Run one latmoment command in-process under the tracer.

    python3 perfbench/clitrace.py <command> [args...]

Imports latmoment.cli, wraps the layer functions, runs the command through
click's test runner inside a `cli.<command>` span, and prints one JSON line
with the exit code, the command's stdout and the traced Stats.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main() -> int:
    args = sys.argv[1:]
    tracer = Tracer()
    tracer.install()
    from click.testing import CliRunner

    import latmoment.cli

    with tracer.span(f"cli.{args[0]}"):
        res = CliRunner().invoke(latmoment.cli.main, args)
    print(json.dumps({"exit_code": res.exit_code, "stdout": res.stdout,
                      "stats": tracer.stats.to_json()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
