"""The analyzer runs on the declared install: numpy plus the stdlib.

``pyproject.toml`` lists numpy as the only runtime dependency; scipy and
networkx sit in the ``dev`` extra as test oracles. Each check runs in a
fresh interpreter so that modules other tests imported do not leak in.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    ).stdout


def test_analyzer_runs_with_scipy_and_networkx_blocked():
    out = _run(
        """
        import sys
        sys.modules["scipy"] = sys.modules["networkx"] = None  # import -> ImportError

        import repro.analyzer
        from repro.analyzer import graph_stats, predict, sweep_applications
        from repro.analyzer.placement import recommend_placement
        from repro.net.cluster import cluster_workload
        from repro.net.topology import torus2d
        from repro.traces.synthetic import generate

        print(predict(26, 384).expected_max_load)
        print(graph_stats(generate("AMG", rounds=2)).components)
        print(recommend_placement(cluster_workload("halo", 16, rounds=2), torus2d(2, 2)).scheme)
        results = sweep_applications(names=["AMG"], bins_list=(1,), jobs=1)
        print(sorted(results), sorted(results["AMG"]))
        """
    )
    assert out.splitlines() == ["2.0", "1", "greedy", "['AMG'] [1]"]


def test_import_closure_is_numpy_and_stdlib():
    out = _run(
        """
        import json, sys
        before = set(sys.modules)
        import repro.analyzer, repro.fleet.kinds, repro.tools.reproduce
        top = {name.partition(".")[0] for name in set(sys.modules) - before}
        # __mp_main__ is multiprocessing's alias of __main__, not a package.
        allowed = set(sys.stdlib_module_names) | {"repro", "__mp_main__"}
        print(json.dumps(sorted(top - allowed)))
        """
    )
    assert json.loads(out) == ["numpy"]
