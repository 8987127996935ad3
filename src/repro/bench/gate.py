"""``repro-bench gate``: regression gate over committed BENCH baselines.

The benchmark suites write ``BENCH_*.json`` artifacts, but until now
nothing *read* them — a regression in cycles-per-message or message
rate would land silently. The gate closes that loop: it flattens a
freshly produced benchmark file and its committed baseline into dotted
numeric paths, applies per-metric rules (direction + noise tolerance),
and returns a typed :class:`GateVerdict` — nonzero exit on any
regression, so CI fails the build.

Flattening rules (stable across the repo's BENCH schemas):

* nested objects become dotted paths (``params.rounds``);
* lists of objects carrying a ``"label"`` key are keyed by that label
  (``results[evict].dpa_cycles``) so reordering a results list is not
  a spurious diff; other lists are keyed by index;
* booleans count as numbers (0/1) so structural flags like
  ``parallel_identical_to_serial`` are gateable; strings are compared
  for exact equality under the same rule table.

Rule matching is first-match-wins over ``fnmatch`` patterns, exactly
like the fleet cache's kind table. Directions:

``lower``
    lower is better — fail when fresh exceeds baseline by more than
    the relative ``tolerance``;
``higher``
    higher is better — fail when fresh falls short by more than it;
``exact``
    any change fails (deterministic metrics);
``ignore``
    machine-dependent metrics (wall-clock seconds, core counts).

A metric present in the baseline but missing from the fresh file is a
failure (dropping a metric is how a regression hides); new metrics in
the fresh file are reported but pass (schemas are allowed to grow).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Mapping

__all__ = [
    "GateRule",
    "GateFinding",
    "GateVerdict",
    "DEFAULT_RULES",
    "flatten",
    "run_gate",
    "main",
]

GATE_SCHEMA = "repro.bench.gate/v1"

DIRECTIONS = ("lower", "higher", "exact", "ignore")


@dataclass(frozen=True)
class GateRule:
    """One per-metric policy: which paths, which direction, how much
    noise to forgive (relative fraction of the baseline value)."""

    pattern: str
    direction: str
    tolerance: float = 0.0

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"direction must be one of {DIRECTIONS}, got {self.direction!r}"
            )
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")

    def matches(self, path: str) -> bool:
        return fnmatchcase(path, self.pattern)

    def to_dict(self) -> dict:
        return {
            "pattern": self.pattern,
            "direction": self.direction,
            "tolerance": self.tolerance,
        }


#: Default policy, ordered; first match wins. Wall-clock fields from
#: the fleet bench are machine-dependent and ignored; cost metrics get
#: a small relative tolerance; everything else in the deterministic
#: suites must reproduce exactly.
DEFAULT_RULES: tuple[GateRule, ...] = (
    GateRule("serial_s", "ignore"),
    GateRule("parallel_s", "ignore"),
    GateRule("warm_s", "ignore"),
    GateRule("speedup", "ignore"),
    GateRule("cpu_count", "ignore"),
    GateRule("jobs", "ignore"),
    GateRule("jobs_*", "ignore"),
    GateRule("*_seconds", "ignore"),
    GateRule("*cycles_per_message", "lower", 0.05),
    GateRule("*ticks_per_message", "lower", 0.05),
    GateRule("*dpa_cycles", "lower", 0.05),
    GateRule("*host_matching_cycles", "lower", 0.05),
    GateRule("*retransmits", "lower", 0.05),
    GateRule("*timeouts", "lower", 0.05),
    GateRule("slowdown", "lower", 0.05),
    GateRule("*message_rate", "higher", 0.05),
    GateRule("*", "exact"),
)


def flatten(payload: Any, prefix: str = "") -> dict[str, float | str]:
    """Flatten a BENCH JSON payload to dotted scalar paths."""
    flat: dict[str, float | str] = {}
    _flatten_into(payload, prefix, flat)
    return flat


def _flatten_into(node: Any, prefix: str, out: dict[str, float | str]) -> None:
    if isinstance(node, Mapping):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            _flatten_into(value, path, out)
        return
    if isinstance(node, list):
        labelled = all(
            isinstance(item, Mapping) and "label" in item for item in node
        ) and node
        for index, item in enumerate(node):
            key = f"[{item['label']}]" if labelled else f"[{index}]"
            _flatten_into(item, f"{prefix}{key}", out)
        return
    if isinstance(node, bool):
        out[prefix] = 1.0 if node else 0.0
    elif isinstance(node, (int, float)):
        out[prefix] = float(node)
    elif isinstance(node, str):
        out[prefix] = node
    # None and other types carry no gateable value.


@dataclass(frozen=True)
class GateFinding:
    """One compared metric: baseline vs fresh under its matched rule."""

    path: str
    baseline: float | str | None
    fresh: float | str | None
    direction: str
    tolerance: float
    ok: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "baseline": self.baseline,
            "fresh": self.fresh,
            "direction": self.direction,
            "tolerance": self.tolerance,
            "ok": self.ok,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GateFinding":
        return cls(
            path=str(payload["path"]),
            baseline=payload.get("baseline"),
            fresh=payload.get("fresh"),
            direction=str(payload["direction"]),
            tolerance=float(payload["tolerance"]),
            ok=bool(payload["ok"]),
            note=str(payload.get("note", "")),
        )


@dataclass
class GateVerdict:
    """The gate's typed result (schema ``repro.bench.gate/v1``)."""

    baseline_path: str
    fresh_path: str
    benchmark: str
    findings: list[GateFinding] = field(default_factory=list)
    new_metrics: list[str] = field(default_factory=list)

    SCHEMA = GATE_SCHEMA

    @property
    def passed(self) -> bool:
        return all(f.ok for f in self.findings)

    @property
    def regressions(self) -> list[GateFinding]:
        return [f for f in self.findings if not f.ok]

    def to_dict(self) -> dict:
        return {
            "schema": self.SCHEMA,
            "baseline_path": self.baseline_path,
            "fresh_path": self.fresh_path,
            "benchmark": self.benchmark,
            "passed": self.passed,
            "findings": [f.to_dict() for f in self.findings],
            "new_metrics": list(self.new_metrics),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GateVerdict":
        return cls(
            baseline_path=str(payload.get("baseline_path", "")),
            fresh_path=str(payload.get("fresh_path", "")),
            benchmark=str(payload.get("benchmark", "")),
            findings=[GateFinding.from_dict(f) for f in payload.get("findings", ())],
            new_metrics=[str(p) for p in payload.get("new_metrics", ())],
        )

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "GateVerdict":
        payload = json.loads(text)
        schema = payload.get("schema", cls.SCHEMA)
        if schema != cls.SCHEMA:
            raise ValueError(f"unsupported schema {schema!r}, expected {cls.SCHEMA!r}")
        return cls.from_dict(payload)

    def render(self) -> str:
        lines = [
            f"gate: {self.benchmark or 'benchmark'} "
            f"{'PASS' if self.passed else 'FAIL'} "
            f"({len(self.findings)} metrics compared, "
            f"{len(self.regressions)} regressed, "
            f"{len(self.new_metrics)} new)"
        ]
        for finding in self.regressions:
            lines.append(
                f"  REGRESSED {finding.path}: baseline={finding.baseline!r} "
                f"fresh={finding.fresh!r} ({finding.note})"
            )
        return "\n".join(lines)


def _match_rule(path: str, rules: tuple[GateRule, ...] | list[GateRule]) -> GateRule:
    for rule in rules:
        if rule.matches(path):
            return rule
    return GateRule("*", "exact")


def _compare(
    path: str, base: float | str, fresh: float | str | None, rule: GateRule
) -> GateFinding:
    if fresh is None:
        return GateFinding(
            path, base, None, rule.direction, rule.tolerance, False,
            note="metric missing from fresh run",
        )
    if isinstance(base, str) or isinstance(fresh, str):
        ok = base == fresh
        return GateFinding(
            path, base, fresh, rule.direction, rule.tolerance, ok,
            note="" if ok else "string value changed",
        )
    slack = rule.tolerance * abs(base)
    if rule.direction == "lower":
        ok = fresh <= base + slack
        note = "" if ok else f"rose past tolerance (+{fresh - base:g})"
    elif rule.direction == "higher":
        ok = fresh >= base - slack
        note = "" if ok else f"fell past tolerance ({fresh - base:g})"
    else:  # exact
        ok = fresh == base
        note = "" if ok else f"changed by {fresh - base:g}"
    return GateFinding(path, base, fresh, rule.direction, rule.tolerance, ok, note)


def run_gate(
    baseline: Mapping[str, Any],
    fresh: Mapping[str, Any],
    *,
    rules: tuple[GateRule, ...] | list[GateRule] = DEFAULT_RULES,
    baseline_path: str = "",
    fresh_path: str = "",
) -> GateVerdict:
    """Compare two parsed BENCH payloads under a rule table."""
    base_flat = flatten(baseline)
    fresh_flat = flatten(fresh)
    benchmark = str(
        baseline.get("benchmark") or baseline.get("schema") or ""
    )
    verdict = GateVerdict(
        baseline_path=baseline_path,
        fresh_path=fresh_path,
        benchmark=benchmark,
    )
    for path in sorted(base_flat):
        rule = _match_rule(path, rules)
        if rule.direction == "ignore":
            continue
        verdict.findings.append(
            _compare(path, base_flat[path], fresh_flat.get(path), rule)
        )
    verdict.new_metrics = sorted(set(fresh_flat) - set(base_flat))
    return verdict


def _parse_rule(spec: str) -> GateRule:
    """``pattern:direction[:tolerance]`` from the command line."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"rule spec must be pattern:direction[:tolerance], got {spec!r}")
    tolerance = float(parts[2]) if len(parts) == 3 else 0.0
    return GateRule(parts[0], parts[1], tolerance)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench gate",
        description=(
            "Compare a fresh BENCH_*.json against its committed baseline. "
            "Exit codes: 0 no regression, 1 regression detected, 2 usage "
            "or unreadable input."
        ),
    )
    parser.add_argument("baseline", help="committed baseline BENCH_*.json")
    parser.add_argument("fresh", help="freshly produced BENCH_*.json")
    parser.add_argument(
        "--rule",
        action="append",
        default=[],
        metavar="PATTERN:DIRECTION[:TOL]",
        help=(
            "prepend a rule (checked before the defaults); DIRECTION is "
            "lower/higher/exact/ignore, TOL a relative fraction"
        ),
    )
    parser.add_argument(
        "--json-out", metavar="PATH", help="write the typed verdict as JSON"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the rendered verdict"
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2

    try:
        extra = [_parse_rule(spec) for spec in args.rule]
    except ValueError as exc:
        print(f"repro-bench gate: {exc}", file=sys.stderr)
        return 2

    payloads = []
    for path in (args.baseline, args.fresh):
        try:
            with open(path, "r", encoding="utf-8") as fp:
                payloads.append(json.load(fp))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"repro-bench gate: cannot read {path}: {exc}", file=sys.stderr)
            return 2

    verdict = run_gate(
        payloads[0],
        payloads[1],
        rules=list(extra) + list(DEFAULT_RULES),
        baseline_path=args.baseline,
        fresh_path=args.fresh,
    )
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fp:
            fp.write(verdict.to_json())
    if not args.quiet:
        print(verdict.render())
    return 0 if verdict.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
