"""One lane runner for every ``repro-chaos`` soak family.

A *family* is a table of lanes over one fleet job kind, each lane a row
of job params run at ``--schedules`` seeds. A real lane fails on any
report its family's ``check`` objects to. A *mutant* lane runs a
planted bug, so the verdict is inverted: an objection is a catch, and a
mutant lane no seed caught fails the run — the check would be vacuous.

The ``chaos_run`` families also write observability artifacts:
``--metrics-out`` (a :mod:`repro.obs.registry` snapshot, counters
labeled by lane and cumulative over every run), ``--trace-out`` (each
real lane's most *eventful* seed — spill/recovery windows first, then
retransmits and RNR stalls — re-run under a scoped tracer, one Perfetto
timeline per lane) and ``--ledger-out`` (the same re-run under a
:class:`repro.obs.ledger.FlightRecorder`, plus every failing seed, so
its first-violation passport lands on stderr and in the dump).

Calling a :class:`Family` with an argument list runs its command line;
``repro.chaos.cli`` is the front door.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Mapping

from repro.chaos.harness import (
    ChaosConfig,
    ChaosReport,
    config_from_params,
    config_to_params,
    run_chaos,
)
from repro.chaos.soak import CORE_PROFILES, MUTANT_PROFILES, OVERLOAD_PROFILES, PROFILES
from repro.fleet import JobSpec, run_jobs
from repro.obs.ledger import NULL_RECORDER, FlightRecorder, LedgerDump
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER, ScopedTracer, SpanTracer

__all__ = [
    "CORES",
    "OVERLOAD",
    "SOAK",
    "Family",
    "Lane",
    "SoakResult",
    "chaos_lanes",
    "family_jobs",
    "family_main",
    "run_family",
]


@dataclass(frozen=True, slots=True)
class Lane:
    """One row of a family's matrix."""

    name: str
    #: Job params shared by every seed of the lane (the runner adds
    #: ``profile`` = the lane name and the family's knobs).
    params: Mapping[str, Any]
    #: Planted bug: a report ``check`` objects to is a catch.
    mutant: bool = False


@dataclass(frozen=True)
class Family:
    """A soak family: one fleet kind, a lane table, and its verdicts."""

    #: ``repro-chaos`` subcommand.
    name: str
    #: Fleet job kind every lane runs.
    kind: str
    lanes: tuple[Lane, ...]
    #: ``(lane, report) -> reason`` the run breaks the lane's contract,
    #: or ``None`` if it holds.
    check: Callable[[Lane, Any], str | None]
    #: ``(lane, report) -> text`` after ``"<lane> seed=<n>: "`` in
    #: ``-v`` output (``None`` prints nothing).
    describe: Callable[[Lane, Any], str | None]
    #: Summary line, formatted with ``runs``, ``failures``, ``caught``,
    #: ``mutants`` and the tallied counters. Its prefix (``chaos
    #: soak:``, ...) is what scripts grep for.
    summary: str
    #: ``report -> counters`` summed over every run (a counter named
    #: ``peak...`` keeps the maximum instead).
    tally: Callable[[Any], Mapping[str, int]] = lambda report: {}
    #: ``--assert-<name>`` non-vacuity gates: name -> (counter, message
    #: printed when the counter stayed zero).
    asserts: Mapping[str, tuple[str, str]] = field(default_factory=dict)
    #: Default ``--schedules``.
    schedules: int = 4
    #: Job params every lane shares, each also a command-line option
    #: (``--ranks``/``--rounds``): name -> value.
    knobs: Mapping[str, int] = field(default_factory=dict)

    def __call__(self, argv: list[str] | None = None) -> int:
        return family_main(self, argv)


@dataclass(slots=True)
class SoakResult:
    """Aggregate outcome of one family run."""

    runs: int = 0
    failures: int = 0
    counters: Counter = field(default_factory=Counter)
    #: mutant lane name -> seeds on which its bug was caught.
    mutants_caught: dict[str, int] = field(default_factory=dict)
    #: Fleet accounting: jobs run now vs. served from the result cache.
    executed: int = 0
    cached: int = 0

    @property
    def mutants_missed(self) -> list[str]:
        return sorted(n for n, caught in self.mutants_caught.items() if caught == 0)

    @property
    def ok(self) -> bool:
        return self.failures == 0 and not self.mutants_missed

    def summary(self, family: Family) -> str:
        line = family.summary.format_map(
            Counter(
                self.counters,
                runs=self.runs,
                failures=self.failures,
                caught=sum(1 for n in self.mutants_caught.values() if n),
                mutants=len(self.mutants_caught),
            )
        )
        return f"{line} | executed={self.executed} cached={self.cached}"


def family_jobs(family: Family, seeds: range) -> Iterator[JobSpec]:
    """Lazily enumerate the family's matrix as fleet jobs.

    Lane-major, seed-minor order fixes job indices (and therefore the
    merge order of parallel runs); a generator so the scheduler pulls
    jobs as worker slots free up.
    """
    for lane in family.lanes:
        params = {"profile": lane.name, **family.knobs, **lane.params}
        for seed in seeds:
            yield JobSpec(kind=family.kind, params=params, seed=seed)


def run_family(
    family: Family,
    schedules: int | None = None,
    seed_base: int = 1,
    *,
    jobs: int = 1,
    cache_dir: str | None = None,
    registry: MetricsRegistry | None = None,
    tracer: SpanTracer | None = None,
    ledger_sink: list[LedgerDump] | None = None,
    verbose: bool = False,
    out=None,
    err=None,
) -> SoakResult:
    """Run every lane of ``family`` at ``schedules`` seeds.

    Outcomes are merged in job order, so output, metrics, and the
    choice of traced seed are identical at any ``jobs``. ``registry``,
    ``tracer`` and ``ledger_sink`` apply to ``chaos_run`` families.
    """
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    by_name = {lane.name: lane for lane in family.lanes}
    count = family.schedules if schedules is None else schedules
    seeds = range(seed_base, seed_base + count)
    fleet = run_jobs(family_jobs(family, seeds), jobs=jobs, cache_dir=cache_dir)
    result = SoakResult(
        mutants_caught={lane.name: 0 for lane in family.lanes if lane.mutant},
        executed=fleet.report.executed,
        cached=fleet.report.cached,
    )
    trace_on = tracer is not None and tracer.enabled
    rerun = trace_on or ledger_sink is not None
    # real lane -> (interest, seed) of its first most eventful run that
    # kept its transport: the one re-run under the tracer/recorder.
    eventful: dict[str, tuple[int, int]] = {}
    for outcome in fleet.outcomes:
        lane = by_name[outcome.spec.params["profile"]]
        seed = outcome.spec.seed
        result.runs += 1
        if not outcome.ok:
            result.failures += 1
            print(
                f"FAIL {lane.name} seed={seed}: quarantined ({outcome.error})",
                file=err,
            )
            continue
        report = outcome.result
        if rerun and not lane.mutant and not report.transport_failed:
            interest = _interest(report)
            if interest > eventful.get(lane.name, (-1, 0))[0]:
                eventful[lane.name] = (interest, seed)
        if registry is not None:
            _record(registry, lane.name, report)
        for key, value in family.tally(report).items():
            if key.startswith("peak"):
                result.counters[key] = max(result.counters[key], value)
            else:
                result.counters[key] += value
        if verbose:
            text = family.describe(lane, report)
            if text is not None:
                print(f"{lane.name} seed={seed}: {text}", file=out)
        reason = family.check(lane, report)
        if lane.mutant:
            if reason is not None:
                result.mutants_caught[lane.name] += 1
            continue
        if reason is None:
            continue
        result.failures += 1
        print(f"FAIL {lane.name} seed={seed}: {reason}", file=err)
        if isinstance(report, ChaosReport):
            _print_detail(report, err)
            if ledger_sink is not None:
                # Deterministic re-run of the failing seed with the
                # flight recorder: the report ships the violating
                # message's passport, the sink gets the full ledger.
                recorder = FlightRecorder()
                passport = run_chaos(_config(lane, seed), recorder=recorder).passport
                scenario = f"{lane.name}/seed{seed}"
                ledger_sink.append(recorder.export(scenario=scenario))
                if passport:
                    phases = "->".join(
                        str(t[1]) for t in passport.get("transitions", ())
                    )
                    print(
                        f"  passport {passport.get('label', '')}: {phases}", file=err
                    )
    for lane in family.lanes:
        if lane.name not in eventful:
            continue
        seed = eventful[lane.name][1]
        scoped = ScopedTracer(tracer, f"{lane.name}/") if trace_on else NULL_TRACER
        recorder = FlightRecorder() if ledger_sink is not None else NULL_RECORDER
        run_chaos(_config(lane, seed), tracer=scoped, recorder=recorder)
        if ledger_sink is not None:
            ledger_sink.append(recorder.export(scenario=lane.name))
        if verbose:
            print(f"{lane.name}: traced seed {seed}", file=out)
    return result


def family_main(family: Family, argv: list[str] | None = None) -> int:
    """``repro-chaos <family>``: exit 0 only if every real lane held,
    every mutant lane was caught, and every requested gate fired."""
    parser = argparse.ArgumentParser(prog=f"repro-chaos {family.name}")
    parser.add_argument(
        "--schedules", type=int, default=family.schedules, help="seeds per lane"
    )
    parser.add_argument("--seed-base", type=int, default=1, help="first seed")
    parser.set_defaults(
        no_mutants=False, trace_out=None, metrics_out=None, ledger_out=None
    )
    for knob, default in family.knobs.items():
        parser.add_argument(f"--{knob}", type=int, default=default)
    if any(lane.mutant for lane in family.lanes):
        parser.add_argument(
            "--no-mutants", action="store_true", help="skip the planted-bug lanes"
        )
    if family.kind == "chaos_run":
        for flag, what in (
            ("--trace-out", "Perfetto trace of each lane's most eventful seed"),
            ("--metrics-out", "cumulative metrics snapshot of every run"),
            ("--ledger-out", "flight-recorder ledger of the traced and failing seeds"),
        ):
            parser.add_argument(flag, metavar="PATH", help=f"write a {what}")
    for name, (_, message) in family.asserts.items():
        parser.add_argument(
            f"--assert-{name}", action="store_true", help=f"fail if {message}"
        )
    parser.add_argument(
        "--jobs", type=int, default=1, help="fleet worker processes (1 = inline)"
    )
    parser.add_argument("--cache-dir", help="content-addressed result cache")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    lanes = family.lanes
    if args.no_mutants:
        lanes = tuple(lane for lane in lanes if not lane.mutant)
    knobs = {knob: getattr(args, knob) for knob in family.knobs}
    family = replace(family, lanes=lanes, knobs=knobs)
    tracer = SpanTracer() if args.trace_out else None
    registry = MetricsRegistry() if args.metrics_out else None
    ledger_sink: list[LedgerDump] | None = [] if args.ledger_out else None
    result = run_family(
        family,
        args.schedules,
        args.seed_base,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        registry=registry,
        tracer=tracer,
        ledger_sink=ledger_sink,
        verbose=args.verbose,
    )
    if tracer is not None:
        tracer.write(args.trace_out)
        print(f"trace: {args.trace_out} ({len(tracer)} events)")
    if ledger_sink is not None:
        dump = functools.reduce(LedgerDump.merge, ledger_sink, LedgerDump())
        with open(args.ledger_out, "w", encoding="utf-8") as fp:
            fp.write(dump.to_json())
        records = sum(len(p.get("records", ())) for p in dump.scenarios.values())
        print(
            f"ledger: {args.ledger_out} "
            f"({len(dump.scenarios)} scenarios, {records} records)"
        )
    if registry is not None:
        snapshot = registry.snapshot()
        with open(args.metrics_out, "w", encoding="utf-8") as fp:
            fp.write(snapshot.to_json())
        print(f"metrics: {args.metrics_out} ({len(snapshot.values)} series)")
    ok = result.ok
    for name, (counter, message) in family.asserts.items():
        if getattr(args, f"assert_{name}") and not result.counters[counter]:
            print(f"ASSERT FAILED: {message}", file=sys.stderr)
            ok = False
    print(result.summary(family))
    if result.mutants_missed:
        print(f"MUTANTS MISSED: {result.mutants_missed}", file=sys.stderr)
    return 0 if ok else 1


# -- chaos_run families ------------------------------------------------------

#: ChaosReport counters folded into the soak metrics registry.
_REPORT_COUNTERS = (
    "sent",
    "delivered",
    "retransmits",
    "rnr_naks",
    "faults_injected",
    "dropped",
    "duplicated",
    "reordered",
    "corrupted",
    "host_spills",
    "degraded_stagings",
    "fallback_spills",
    "fallback_recoveries",
    "engine_retransmits",
    "engine_rnr_naks",
    "core_fail_stops",
    "core_hangs",
    "core_bit_flips",
    "block_rollbacks",
    "blocks_replayed",
    "cores_quarantined",
    "core_repairs",
    "host_takeovers",
    "reoffloads",
    "watchdog_checks",
    "budget_overruns",
    "demotions",
    "evictions",
    "recalls",
    "posts_deferred",
    "credit_holds",
    "pressure_entries",
    "pressure_exits",
    "pressure_takeovers",
    "pressure_reoffloads",
)


def chaos_lanes(
    table: Mapping[str, ChaosConfig], *, mutant: bool = False
) -> tuple[Lane, ...]:
    """``chaos_run`` lanes from a name -> :class:`ChaosConfig` table."""
    return tuple(
        Lane(name, {"config": config_to_params(config)}, mutant)
        for name, config in table.items()
    )


def _config(lane: Lane, seed: int) -> ChaosConfig:
    """The config a ``chaos_run`` job of ``lane`` runs at ``seed``."""
    return replace(config_from_params(lane.params["config"]), seed=seed)


def _interest(report: ChaosReport) -> int:
    """How much a run would show in a trace (for picking what to trace)."""
    return (
        1000 * (report.fallback_spills + report.fallback_recoveries)
        + 1000 * (report.host_takeovers + report.reoffloads)
        + 1000 * (report.pressure_takeovers + report.pressure_reoffloads)
        + 100 * report.blocks_replayed
        + 100 * (report.evictions + report.recalls)
        + 10 * report.block_rollbacks
        + 10 * report.demotions
        + report.retransmits
        + report.rnr_naks
        + report.posts_deferred
    )


def _record(registry: MetricsRegistry, name: str, report: ChaosReport) -> None:
    """Fold one run's report into the cumulative soak metrics."""
    labels = {"profile": name}
    registry.counter("chaos.runs", "chaos runs executed").labels(**labels).inc()
    if not report.ok:
        registry.counter("chaos.failures", "runs violating exactly-once/oracle").labels(
            **labels
        ).inc()
    if report.transport_failed:
        registry.counter(
            "chaos.transport_failures", "runs ending in TransportError"
        ).labels(**labels).inc()
    for field_name in _REPORT_COUNTERS:
        registry.counter(
            f"chaos.{field_name}", f"cumulative ChaosReport.{field_name}"
        ).labels(**labels).inc(getattr(report, field_name))
    registry.histogram(
        "chaos.retransmits_per_run",
        "retransmissions needed by one run",
        buckets=(0, 1, 2, 5, 10, 20, 50, 100),
    ).labels(**labels).observe(report.retransmits)
    registry.histogram(
        "chaos.generations_per_run",
        "engine generations one run spanned",
        buckets=(1, 2, 3, 5, 8),
    ).labels(**labels).observe(1 + report.fallback_recoveries)


def _print_detail(report: ChaosReport, err) -> None:
    if report.transport_failed:
        print(f"  transport: {report.transport_error}", file=err)
    if report.engine_failed:
        print(f"  engine: {report.engine_error}", file=err)
    if report.first_violation:
        print(
            f"  first violation (round={report.first_violation_round} "
            f"block={report.first_violation_block}): {report.first_violation}",
            file=err,
        )
    for label, lines in (
        ("duplicate", report.duplicates),
        ("missing", report.missing),
        ("mismatch", report.mismatches),
    ):
        for line in lines[:5]:
            print(f"  {label}: {line}", file=err)


def _wire_fields(report: ChaosReport) -> str:
    return (
        f"sent={report.sent} delivered={report.delivered} "
        f"faults={report.faults_injected} retransmits={report.retransmits} "
        f"rnr={report.rnr_naks} spills={report.host_spills} "
        f"generations={1 + report.fallback_recoveries}"
    )


def _core_fields(report: ChaosReport) -> str:
    return (
        f"sent={report.sent} "
        f"core_faults={report.core_fail_stops}fs/{report.core_hangs}h/"
        f"{report.core_bit_flips}bf replayed={report.blocks_replayed} "
        f"takeovers={report.host_takeovers} reoffloads={report.reoffloads} "
        f"checks={report.watchdog_checks}"
    )


def _overload_fields(report: ChaosReport) -> str:
    return (
        f"sent={report.sent} "
        f"peak={report.peak_charged_bytes}/{report.budget_bytes}B "
        f"deferred={report.posts_deferred} demoted={report.demotions} "
        f"evicted={report.evictions} recalled={report.recalls} "
        f"takeovers={report.pressure_takeovers} "
        f"reoffloads={report.pressure_reoffloads}"
    )


def _core_check(lane: Lane, report: ChaosReport) -> str | None:
    if lane.mutant:
        # A caught bug: an oracle divergence or an engine crash.
        if not report.detected_violation:
            return None
        where = report.engine_error if report.engine_failed else report.first_violation
        return (
            f"caught at round={report.first_violation_round} "
            f"block={report.first_violation_block} ({where})"
        )
    return None if report.ok else _core_fields(report)


def _core_tally(report: ChaosReport) -> dict[str, int]:
    return {
        "faults": report.core_fail_stops + report.core_hangs + report.core_bit_flips,
        "replayed": report.blocks_replayed,
        "takeovers": report.host_takeovers,
        "reoffloads": report.reoffloads,
    }


def _overload_check(lane: Lane, report: ChaosReport) -> str | None:
    # The budget is checked first: an overrun is the enforcement bug
    # this family exists to catch, whatever else went wrong.
    if report.budget_overruns:
        return (
            f"{report.budget_overruns} budget overruns (enforcement let a "
            f"charge exceed {report.budget_bytes} B)"
        )
    return None if report.ok else _overload_fields(report)


def _overload_tally(report: ChaosReport) -> dict[str, int]:
    return {
        "overruns": report.budget_overruns,
        "peak": report.peak_charged_bytes,
        "deferred": report.posts_deferred,
        "demoted": report.demotions,
        "evicted": report.evictions,
        "recalled": report.recalls,
        "holds": report.credit_holds,
        "takeovers": report.pressure_takeovers,
        "reoffloads": report.pressure_reoffloads,
        "episodes": report.pressure_entries,
    }


SOAK = Family(
    name="soak",
    kind="chaos_run",
    lanes=chaos_lanes({name: PROFILES[name] for name in sorted(PROFILES)}),
    check=lambda lane, report: None if report.ok else _wire_fields(report),
    describe=lambda lane, report: _wire_fields(report),
    summary="chaos soak: {runs} runs, {failures} failures",
    schedules=50,
)

CORES = Family(
    name="cores",
    kind="chaos_run",
    lanes=chaos_lanes(CORE_PROFILES) + chaos_lanes(MUTANT_PROFILES, mutant=True),
    check=_core_check,
    # A mutant lane's -v line is its catch; a real lane's, its counters.
    describe=lambda lane, report: (
        _core_check(lane, report) if lane.mutant else _core_fields(report)
    ),
    tally=_core_tally,
    summary=(
        "core soak: {runs} runs, {failures} failures | faults={faults} "
        "replayed={replayed} takeovers={takeovers} reoffloads={reoffloads} | "
        "mutants caught {caught}/{mutants}"
    ),
    asserts={
        "replay": ("replayed", "no block was ever replayed"),
        "takeover": ("takeovers", "no host takeover ever happened"),
    },
    schedules=40,
)

OVERLOAD = Family(
    name="overload",
    kind="chaos_run",
    lanes=chaos_lanes(OVERLOAD_PROFILES),
    check=_overload_check,
    describe=lambda lane, report: _overload_fields(report),
    tally=_overload_tally,
    summary=(
        "overload soak: {runs} runs, {failures} failures | "
        "overruns={overruns} peak={peak}B | deferred={deferred} "
        "demoted={demoted} evicted={evicted} recalled={recalled} holds={holds} | "
        "takeovers={takeovers} reoffloads={reoffloads} episodes={episodes}"
    ),
    asserts={
        "demotion": ("demoted", "no eager send was ever demoted"),
        "eviction": ("evicted", "nothing was ever evicted to host"),
        "recall": ("recalled", "no evicted message was ever recalled"),
        "takeover": ("takeovers", "pressure never escalated to takeover"),
    },
    schedules=50,
)
