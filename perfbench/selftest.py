"""The benchmark's own self-test, at tiny run length (about two minutes).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that, on every workload:

* every metric named in ``BENCHMARK.json`` prints with its unit, and every
  end-to-end value is positive;
* no step fails (``error_rate`` is 0), untraced and traced;
* the per-layer self times plus ``bench.self_s`` sum to ``trace.wall_s``;
* the traced run's Chrome trace passes ``python -m repro.obs.validate``;

and that a deliberately perturbed golden makes the affected steps fail,
and that the benchmark refuses to run (non-zero exit, no result line)
in a directory holding only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = "0.1"  # seconds: every run is a single pass over its deck


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, specs: list[dict], where: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    for spec in specs:
        printed = result["metrics"].get(spec["name"])
        assert printed is not None, f"{where}: {spec['name']} not printed"
        assert printed["unit"] == spec["unit"], f"{where}: {spec['name']} unit {printed['unit']}"
    assert len(result["metrics"]) == len(specs), f"{where}: unexpected extra metrics"


def check_workload(name: str) -> None:
    plain = result_of(bench("--workload", name, "--seed", "0", "--seconds", TINY))
    check_metrics(plain, SPEC["end_to_end"], f"{name} untraced")
    assert plain["correct"] and plain["failed"] == 0, f"{name}: {plain}"
    for metric, entry in plain["metrics"].items():
        assert entry["value"] > 0, f"{name}: {metric} = {entry['value']}"

    traced = result_of(bench("--workload", name, "--seed", "1", "--seconds", TINY, "--trace", "1"))
    check_metrics(traced, SPEC["per_layer"], f"{name} traced")
    assert traced["correct"] and traced["failed"] == 0, f"{name} traced: {traced}"
    values = {metric: entry["value"] for metric, entry in traced["metrics"].items()}
    layers = sum(v for metric, v in values.items()
                 if metric.endswith(".self_s") and metric != "bench.self_s")
    assert values["bench.self_s"] >= 0, f"{name}: negative bench.self_s"
    total = layers + values["bench.self_s"]
    assert abs(total - values["trace.wall_s"]) <= 1e-9 * max(1.0, values["trace.wall_s"]) + 1e-9, (
        f"{name}: layer self times {layers} + bench {values['bench.self_s']} "
        f"!= traced wall {values['trace.wall_s']}"
    )
    trace_file = OUT / f"{name}-seed1-trace1.trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs.validate", str(trace_file)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, f"{name}: trace invalid:\n{proc.stdout}{proc.stderr}"
    print(f"ok {name}: {plain['attempted']} + {traced['attempted']} steps, traced wall "
          f"{values['trace.wall_s']:.3f} s = layers {layers:.3f} s + bench "
          f"{values['bench.self_s']:.3f} s")


def check_perturbed_golden() -> None:
    goldens = json.loads((HERE / "goldens.json").read_text())
    real = goldens["fig8-pingpong"]["wc-sp"]
    goldens["fig8-pingpong"]["wc-sp"] = ("0" if real[0] != "0" else "1") + real[1:]
    perturbed = OUT / "perturbed-goldens.json"
    perturbed.write_text(json.dumps(goldens))
    result = result_of(bench("--workload", "fig8-pingpong", "--seed", "0",
                             "--seconds", TINY, "--goldens", str(perturbed)))
    copies = result["attempted"] // 5  # the deck holds each configuration equally often
    assert not result["correct"] and result["failed"] == copies, result
    print(f"ok perturbed golden: {result['failed']} of {result['attempted']} steps failed")


def check_refuses_bare_directory() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench("--workload", "fig8-pingpong", "--seed", "0", "--seconds", TINY,
                 "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "benchmark ran without the program"
    assert not proc.stdout.strip(), f"printed a result without the program: {proc.stdout}"
    print(f"ok bare directory: exit {proc.returncode}")


def main() -> int:
    OUT.mkdir(exist_ok=True)
    for workload in SPEC["workloads"]:
        check_workload(workload["name"])
    check_perturbed_golden()
    check_refuses_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
