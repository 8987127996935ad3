"""One fresh interpreter running one workload (started by ``run.py``).

Modes:

* ``setup``   — set up, report ``setup_s`` and exit;
* ``imports`` — only import what the workload needs (run under
  ``python -X importtime`` for import attribution);
* ``run``     — set up, then time whole passes over the deck untraced;
* ``trace``   — set up, then alternate untraced and traced passes.

Every step's output is checked by the workload's own check and against
its golden digest. The result is one JSON object on the last line of
standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, digest

HERE = Path(__file__).resolve().parent


class Steps:
    """Timing and verdicts of every step of one run."""

    def __init__(self, workload, goldens: dict[str, str]) -> None:
        self.workload = workload
        self.goldens = goldens
        self.times: list[float] = []
        self.messages = 0
        self.failed = 0
        self.golden_checked = 0
        self.problems: list[str] = []

    def run_pass(self, deck: list[str], call=None) -> float:
        """Run every step of ``deck`` once; returns the summed step time.

        ``call(step, fn)`` runs one step (the tracer's root span); the
        untraced default times it directly.
        """
        total = 0.0
        for key in deck:
            step = len(self.times)
            output = error = None
            start = time.perf_counter()
            try:
                if call is None:
                    output = self.workload.run(key)
                else:
                    output = call(step, lambda: self.workload.run(key))
            except Exception as exc:  # noqa: BLE001 - a raising step is a failed step
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            total += elapsed
            self.times.append(elapsed)
            self._verdict(key, output, error)
        return total

    def _verdict(self, key: str, output, error: str | None) -> None:
        problems = [error] if error else []
        if error is None:
            checked = self.workload.check(key, output)
            problems.extend(checked.problems)
            golden = self.goldens.get(key)
            if golden is None:
                problems.append("no golden recorded")
            else:
                self.golden_checked += 1
                if digest(checked.canonical) != golden:
                    problems.append("simulated output differs from golden")
            if not problems:
                self.messages += checked.messages
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{key}: {'; '.join(problems)}")


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values``."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--mode", choices=("setup", "imports", "run", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before it started us")
    parser.add_argument("--goldens", default=str(HERE / "goldens.json"))
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    workload.setup()
    if args.mode == "imports":
        return 0
    deck = workload.deck(args.seed)
    goldens = json.loads(Path(args.goldens).read_text())[workload.name]
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    steps = Steps(workload, goldens)
    result: dict = {"setup_s": setup_s, "deck": len(deck)}
    began = time.perf_counter()
    if args.mode == "run":
        wall = 0.0
        while True:
            wall += steps.run_pass(deck)
            if time.perf_counter() - began >= args.seconds:
                break
        tail = percentile(steps.times, workload.tail_percentile)
        result.update(
            step_wall_s=wall,
            sim_msgs_per_s=steps.messages / wall,
            step_p50_ms=percentile(steps.times, 50.0) * 1e3,
            step_tail_ms=tail * 1e3,
            tail_percentile=workload.tail_percentile,
            steps_beyond_tail=sum(t > tail for t in steps.times),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    else:
        from tracing import Tracer

        tracer = Tracer()
        untraced = traced = 0.0
        while True:
            untraced += steps.run_pass(deck)
            tracer.install()
            try:
                traced += steps.run_pass(deck, tracer.run_step)
            finally:
                tracer.uninstall()
            if time.perf_counter() - began >= args.seconds:
                break
        layers = tracer.metrics()
        layers["trace.overhead_frac"] = traced / untraced - 1.0
        result["per_layer"] = layers
        result["spans"] = len(tracer.spans)
        result["spans_dropped"] = tracer.dropped
        if args.trace_out:
            meta = {"workload": workload.name, "seed": args.seed}
            Path(args.trace_out).write_text(json.dumps(tracer.chrome_trace(meta)))
    result.update(
        messages=steps.messages,
        message_unit=workload.message_unit,
        steps=len(steps.times),
        failed=steps.failed,
        golden_checked=steps.golden_checked,
        problems=steps.problems,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
