"""Host wall-clock benchmark of the simulator.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measurement runs in a fresh interpreter (``worker.py``) with
``src`` on ``PYTHONPATH``. With ``--trace 0`` the run reports the
end-to-end metrics: the median set-up time of several fresh
interpreters, then simulated-message throughput, step-time median and
tail, and peak RSS of one untraced run. With ``--trace 1`` it reports
the per-layer metrics of a traced run and import attribution from
``python -X importtime``. Every step's simulated output is checked
(workload check + golden digest) in both modes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Details (the
environment record, tail percentile, step counts, failures) go to
``perfbench/out/``; the traced run's spans go there as Chrome
``trace_event`` JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracing import COUNTERS, LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fresh interpreters whose set-up time is measured in one untraced run
#: (the last one also runs the timed phase); ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Packages whose import time ``-X importtime`` attributes.
IMPORT_PACKAGES = ("scipy", "networkx", "numpy", "repro")
#: Any single interpreter this script starts must finish within this.
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_msgs_per_s": "msg/s",
    "step_p50_ms": "ms",
    "step_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}


def layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in a fixed order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "fraction"
    units.update(COUNTERS)
    units["bench.self_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_frac"] = "fraction"
    for package in IMPORT_PACKAGES:
        units[f"import.{package}_s"] = "s"
    return units


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def worker(args: argparse.Namespace, mode: str, *extra: str) -> dict:
    """Start one fresh worker interpreter and return its JSON result."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--goldens", args.goldens, *extra,
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        [*command, "--t0", repr(t0)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker {mode} failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times(args: argparse.Namespace) -> dict[str, float]:
    """Self import time per package, from a fresh ``-X importtime`` interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(HERE / "worker.py"),
         "--workload", args.workload, "--seed", str(args.seed), "--mode", "imports",
         "--t0", "0"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"import probe failed:\n{proc.stderr[-4000:]}")
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in proc.stderr.splitlines():
        # "import time: <self us> | <cumulative us> | <indented module>"
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if not fields[0].strip().isdigit():
            continue  # the header line
        package = fields[2].strip().split(".")[0]
        if package in totals:
            totals[package] += int(fields[0]) / 1e6
    return {f"import.{package}_s": seconds for package, seconds in totals.items()}


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: a machine-speed yardstick."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc + i * i) % 1_000_003
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def environment() -> dict:
    def version(name: str) -> str:
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return "absent"

    commit = "unknown"
    if (ROOT / ".git").exists():  # never search directories above the checkout
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "networkx": version("networkx"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
        "calibration_s": calibration_s(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--goldens", default=str(HERE / "goldens.json"),
                        help="golden digests to check steps against")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        trace_file = OUT / f"{stem}.trace.json"
        result = worker(args, "trace", "--trace-out", str(trace_file))
        values = {**result["per_layer"], **import_times(args)}
        units = layer_units()
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        setups = [worker(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        result = worker(args, "run")
        setups.append(result["setup_s"])
        result["setup_samples_s"] = setups
        values = {name: result[name] for name in END_TO_END_UNITS}
        values["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS

    result["environment"] = environment()
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    summary = (
        f"# {args.workload} seed {args.seed} trace {args.trace}: {result['steps']} steps "
        f"({result['deck']} per pass), {result['failed']} failed, "
        f"{result['golden_checked']} golden-checked, {result['messages']} "
        f"{result['message_unit']}, error_rate {result['failed'] / result['steps']:.4f}"
    )
    if not args.trace:
        summary += (
            f"; tail = p{result['tail_percentile']:g} with "
            f"{result['steps_beyond_tail']} steps beyond"
        )
    print(summary)
    for problem in result["problems"]:
        print(f"# FAILED {problem}")
    env = result["environment"]
    print("# env " + " ".join(f"{key}={value}" for key, value in env.items()))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["steps"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
