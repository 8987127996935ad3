"""The benchmark's four workloads.

Each workload turns a seed into a *deck*: an ordered list of step keys.
A run repeats whole passes over the deck, so every run of a workload
measures the same multiset of steps whatever the seed; the seed only
changes their order (and, for ``chaos-soak``, which schedules are drawn).

A step calls the program through its public API and returns the
simulated output. :meth:`Workload.check` turns that output into the
simulated-message count the throughput metric uses, the canonical bytes
whose digest is compared with the recorded golden, and a list of
problems found by the workload's own correctness check.

Every ``repro`` import happens in :meth:`Workload.setup`, so a worker's
set-up time covers exactly the import closure its workload needs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Any

#: The seed the documentation's figures were taken with.
DEFAULT_SEED = 0


def digest(blob: str) -> str:
    """The golden form of a step's canonical output (96-bit sha256 prefix)."""
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


@dataclass(frozen=True)
class Checked:
    messages: int
    canonical: str
    problems: tuple[str, ...]


class Workload:
    name = ""
    #: What one simulated message is, for ``sim_msgs_per_s``.
    message_unit = ""
    #: The tail percentile reported as ``step_tail_ms``: the highest of
    #: p99, p95, p90 and p75 with at least ten steps beyond it in a 20 s
    #: run at the commit that defined the benchmark. Fixed, so that a
    #: faster program (more steps) cannot move the tail to a higher
    #: percentile.
    tail_percentile = 90.0

    def setup(self) -> None:
        """Import the program and build inputs shared by every step."""

    def universe(self) -> list[str]:
        """Every step key any seed can draw (the goldens cover all of them)."""
        raise NotImplementedError

    def deck(self, seed: int) -> list[str]:
        keys = list(self.universe())
        random.Random(seed).shuffle(keys)
        return keys

    def run(self, key: str) -> Any:
        raise NotImplementedError

    def check(self, key: str, output: Any) -> Checked:
        raise NotImplementedError


class Fig8PingPong(Workload):
    """Figure 8: one configuration of the ping-pong bench per step.

    All five Figure 8 bars run equally often, so the median step is an
    NC step and the p95 tail sits inside the WC-SP slow path.
    """

    name = "fig8-pingpong"
    message_unit = "matched messages"
    tail_percentile = 95.0
    CONFIGS = ("nc", "wc-fp", "wc-sp", "mpi-cpu", "rdma-cpu")
    #: Copies of each configuration in one pass.
    COPIES = 4

    def setup(self) -> None:
        from repro.bench.pingpong import PingPongBench
        from repro.bench.scenarios import scenario_by_name

        # §VI shape (k = 100, 1024 in flight, 32 threads), one sequence.
        self.bench = PingPongBench(repetitions=1)
        self.runs = {
            name: partial(self.bench.run_optimistic, scenario_by_name(name))
            for name in ("nc", "wc-fp", "wc-sp")
        }
        self.runs["mpi-cpu"] = self.bench.run_mpi_cpu
        self.runs["rdma-cpu"] = self.bench.run_rdma_cpu

    def universe(self) -> list[str]:
        return list(self.CONFIGS)

    def deck(self, seed: int) -> list[str]:
        keys = list(self.CONFIGS) * self.COPIES
        random.Random(seed).shuffle(keys)
        return keys

    def run(self, key: str) -> Any:
        return self.runs[key]()

    def check(self, key: str, output: Any) -> Checked:
        # run_optimistic itself asserts every event is EXPECTED; here the
        # result must account for every message of the sequence.
        problems = []
        expected = self.bench.k * self.bench.repetitions
        if output.messages != expected:
            problems.append(f"{output.messages} messages, expected {expected}")
        if key in ("nc", "wc-fp", "wc-sp") and sum(output.path_mix.values()) != expected:
            problems.append(f"path mix {output.path_mix} does not cover {expected}")
        return Checked(output.messages, output.to_json(), tuple(problems))


class TraceSweep(Workload):
    """Figures 6/7: one (app, bins) cell of the analyzer grid per step."""

    name = "trace-sweep"
    message_unit = "sends replayed into EmulatedMatchers"
    tail_percentile = 90.0
    BINS = (1, 32, 128)

    def setup(self) -> None:
        from repro.analyzer import sweep_applications
        from repro.fleet import kinds  # noqa: F401 - registered lazily on first job
        from repro.traces.model import OpKind
        from repro.traces.synthetic import app_names

        self.sweep_applications = sweep_applications
        self.send_kinds = (OpKind.ISEND, OpKind.SEND)
        self.apps = app_names()

    def universe(self) -> list[str]:
        return [f"{app}@{bins}" for app in self.apps for bins in self.BINS]

    def run(self, key: str) -> Any:
        app, bins = key.rsplit("@", 1)
        results = self.sweep_applications(names=[app], bins_list=(int(bins),), jobs=1)
        return results[app][int(bins)]

    def check(self, key: str, output: Any) -> Checked:
        app, bins = key.rsplit("@", 1)
        problems = []
        if (output.name, output.bins) != (app, int(bins)):
            problems.append(f"got cell {output.name}@{output.bins}")
        sends = sum(output.p2p_kinds.get(kind, 0) for kind in self.send_kinds)
        canonical = json.dumps(output.to_dict(), sort_keys=True)
        return Checked(sends, canonical, tuple(problems))


class ClusterAlltoall(Workload):
    """One ClusterSim cell of the 32-rank alltoall per step.

    Three placements per topology (the two named schemes plus one fixed
    shuffled mapping) give nine cells, an odd number of populations, so
    the median step sits inside one cell type instead of on the gap
    between two.
    """

    name = "cluster-alltoall"
    message_unit = "delivered sends"
    tail_percentile = 75.0
    RANKS = 32
    ROUNDS = 1
    TOPOLOGIES = ("ring", "torus", "fattree")
    PLACEMENTS = ("block", "round_robin", "shuffled")
    #: Seed of the fixed shuffled placement (the same on every run).
    SHUFFLE_SEED = 2024

    def setup(self) -> None:
        from repro.net import cluster
        from repro.net.placement import Placement
        from repro.net.topology import topology_by_name

        self.cluster = cluster
        self.trace = cluster.cluster_workload("alltoall", self.RANKS, rounds=self.ROUNDS)
        self.shuffled = {}
        for topology in self.TOPOLOGIES:
            nodes = list(Placement.block(self.RANKS, topology_by_name(topology, self.RANKS).hosts).nodes)
            random.Random(self.SHUFFLE_SEED).shuffle(nodes)
            self.shuffled[topology] = Placement.custom(dict(enumerate(nodes)), scheme="shuffled")

    def universe(self) -> list[str]:
        return [f"{t}/{p}" for t in self.TOPOLOGIES for p in self.PLACEMENTS]

    def run(self, key: str) -> Any:
        topology, placement = key.split("/")
        if placement == "shuffled":
            placement = self.shuffled[topology]
        # record=True is run_cluster's default, so the ledger is measured.
        sim = self.cluster.ClusterSim(self.trace, topology=topology, placement=placement)
        return sim.run()

    def check(self, key: str, output: Any) -> Checked:
        results = output.results
        problems = []
        if not output.ok:
            problems.append(
                f"{len(results['violations'])} violations, "
                f"{results['undelivered']} undelivered"
            )
        conservation = results["conservation"]
        if conservation["exact"] != conservation["checked"]:
            problems.append(f"conservation {conservation}")
        canonical = json.dumps(results, sort_keys=True)
        return Checked(results["deliveries"], canonical, tuple(problems))


class ChaosSoak(Workload):
    """One seeded run_chaos schedule per step, cycling the soak profiles."""

    name = "chaos-soak"
    message_unit = "delivered messages (ChaosReport.delivered)"
    tail_percentile = 99.0
    #: Schedule seeds a benchmark seed draws from, per profile: the range
    #: the repository's CI soak runs (``--seeds 25 --seed-base 1``). Wider
    #: ranges contain failing schedules: at this commit the ``overload``
    #: profile reports ``transport_failed`` on seeds 136, 161 and 237 (see
    #: README.md), which would make runs on some benchmark seeds fail.
    SCHEDULE_SEEDS = range(1, 26)
    #: Schedules per profile in one pass.
    PER_PROFILE = 20

    def setup(self) -> None:
        from repro.chaos import harness
        from repro.chaos.soak import PROFILES

        self.harness = harness
        self.profiles = PROFILES

    def universe(self) -> list[str]:
        return [
            f"{profile}/{seed}"
            for profile in self.profiles
            for seed in self.SCHEDULE_SEEDS
        ]

    def deck(self, seed: int) -> list[str]:
        rng = random.Random(seed)
        drawn = {
            profile: rng.sample(self.SCHEDULE_SEEDS, self.PER_PROFILE)
            for profile in self.profiles
        }
        return [
            f"{profile}/{drawn[profile][i]}"
            for i in range(self.PER_PROFILE)
            for profile in self.profiles
        ]

    def run(self, key: str) -> Any:
        profile, seed = key.split("/")
        return self.harness.run_chaos(replace(self.profiles[profile], seed=int(seed)))

    def check(self, key: str, output: Any) -> Checked:
        problems = ()
        if not output.ok:
            problems = (f"report not ok: sent {output.sent}, delivered {output.delivered}",)
        return Checked(output.delivered, output.to_json(), problems)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Fig8PingPong, TraceSweep, ClusterAlltoall, ChaosSoak)
}
