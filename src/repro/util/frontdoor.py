"""One subcommand dispatcher for the ``repro-*`` front doors.

A front door is a table ``{subcommand: (target, one-line help)}``.
``target`` uses the console-script syntax ``"package.module:attr"``
(``attr`` defaults to ``main``); the module is imported only when its
subcommand runs, and ``attr`` is called with the remaining arguments.
The usage text is generated from the same table, so the subcommand
list is written once.
"""

from __future__ import annotations

import importlib
import sys
from typing import Mapping, Sequence

__all__ = ["dispatch", "usage"]


def usage(prog: str, table: Mapping[str, tuple[str, str]]) -> str:
    width = max(len(name) for name in table)
    lines = [f"usage: {prog} {{{','.join(table)}}} [options]", ""]
    lines += [f"  {name:<{width}}  {help_}" for name, (_, help_) in table.items()]
    lines += ["", f"Run `{prog} <subcommand> --help` for subcommand options."]
    return "\n".join(lines) + "\n"


def dispatch(
    prog: str,
    table: Mapping[str, tuple[str, str]],
    argv: Sequence[str] | None = None,
) -> int:
    """Run ``argv[0]``'s target on ``argv[1:]``.

    No arguments print the usage and exit 2; ``-h``/``--help`` print it
    and exit 0; an unknown subcommand exits 2 with the usage on stderr.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(usage(prog, table), end="")
        return 0 if argv else 2
    command, rest = argv[0], argv[1:]
    if command not in table:
        print(f"{prog}: unknown subcommand {command!r}", file=sys.stderr)
        print(usage(prog, table), end="", file=sys.stderr)
        return 2
    module, _, attr = table[command][0].partition(":")
    return getattr(importlib.import_module(module), attr or "main")(rest)
