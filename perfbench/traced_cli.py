"""Run the flowline-risk CLI with every hook traced, then save the spans.

Usage: python3 traced_cli.py SPANS_OUT.npz CLI_ARGS...

The spans file is written even when a stage fails, so the parent can still
report how far the run got.
"""

from __future__ import annotations

import sys

import hooks
from spans import Tracer


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    missing, _ = hooks.install(tracer, hooks.CLI_HOOKS)
    missing += hooks.install_stages(tracer)
    if missing:
        print(f"untraced (names not found): {', '.join(missing)}", file=sys.stderr)
    from flowline_risk import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.spans().save(spans_out, missing=missing)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
