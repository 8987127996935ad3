"""Differential tests: the wake-on-change executor against the
poll-everything loop it replaced.

:class:`ReferenceExecutor` keeps that loop verbatim: every iteration it
rebuilds the runnable list by scanning all live threads and re-polling
every blocked thread's condition. It is the specification of the
executor's observable behaviour — the pick sequence and the runnable
lists the policy sees, per-thread ``steps`` and ``wait_polls``, and the
exception raised on deadlock or livelock — and the production executor
must reproduce all of it exactly, because ``steps`` and ``wait_polls``
feed the DPA cycle model.

Two levels are checked: random thread programs mixing bare steps,
partial-barrier waits, opaque conditions, early returns and
unsatisfiable waits; and whole engines (every mutant included, plus a
core-fault hang schedule) on random post/submit streams with the
engine's executor swapped for the reference.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, MessageEnvelope, OptimisticMatcher, ReceiveRequest
from repro.core.barrier import PartialBarrier
from repro.core.faults import MUTANT_ENGINES
from repro.core.threadsim import (
    DeadlockError,
    RandomPolicy,
    RoundRobinPolicy,
    SchedulePolicy,
    ScriptedPolicy,
    SteppedExecutor,
    ThreadProc,
    ThreadStats,
)
from repro.matching.oracle import StreamOp
from repro.recovery.faults import CoreFaultInjector, CoreFaultPlan
from tests.conftest import schedules, stream_ops

#: Examples per differential test; CI's engine-equivalence job raises it.
EXAMPLES = int(os.environ.get("EXECUTOR_DIFF_EXAMPLES", "150"))

COMMON = settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class ReferenceExecutor(SteppedExecutor):
    """The poll-everything executor, kept verbatim as the test oracle."""

    def run(self, threads: Sequence[ThreadProc]) -> ThreadStats:
        self._policy.reset()
        stats = ThreadStats(
            steps={tid: 0 for tid in range(len(threads))},
            wait_polls={tid: 0 for tid in range(len(threads))},
        )
        alive: dict[int, ThreadProc] = dict(enumerate(threads))
        blocked: dict[int, Callable[[], bool]] = {}
        budget = self._max_steps

        while alive:
            runnable = []
            for tid in alive:
                cond = blocked.get(tid)
                if cond is None:
                    runnable.append(tid)
                else:
                    stats.wait_polls[tid] += 1
                    if cond():
                        del blocked[tid]
                        runnable.append(tid)
            if not runnable:
                waiting = sorted(blocked)
                raise DeadlockError(
                    f"threads {waiting} are all blocked with unsatisfiable conditions"
                )
            tid = self._policy.pick(runnable)
            stats.steps[tid] += 1
            try:
                yielded = alive[tid].send(None)
            except StopIteration:
                del alive[tid]
                blocked.pop(tid, None)
            else:
                if yielded is not None:
                    blocked[tid] = yielded
            budget -= 1
            if budget <= 0:
                raise RuntimeError(
                    f"executor exceeded {self._max_steps} steps; likely livelock"
                )
        return stats


class RecordingPolicy(SchedulePolicy):
    """Delegates to ``inner`` and records every (runnable, choice)."""

    def __init__(self, inner: SchedulePolicy) -> None:
        self.inner = inner
        self.log: list[tuple[tuple[int, ...], int]] = []

    def reset(self) -> None:
        self.inner.reset()
        self.log.append(((), -1))  # run boundary

    def pick(self, runnable: Sequence[int]) -> int:
        choice = self.inner.pick(runnable)
        self.log.append((tuple(runnable), choice))
        return choice


policy_specs = st.one_of(
    st.tuples(st.just("scripted"), schedules),
    st.tuples(st.just("random"), st.integers(0, 2**16)),
    st.just(("round_robin", None)),
)


def make_policy(spec) -> SchedulePolicy:
    kind, arg = spec
    if kind == "scripted":
        return ScriptedPolicy(arg)
    if kind == "random":
        return RandomPolicy(arg)
    return RoundRobinPolicy()


def outcome(run: Callable[[], object]):
    """The result of ``run()``, or the exception's type and message."""
    try:
        return ("ok", run())
    except Exception as exc:  # noqa: BLE001 - any failure must match too
        return ("raised", type(exc).__name__, str(exc))


# ----------------------------------------------------------------------
# Executor level: random thread programs
# ----------------------------------------------------------------------

N_BARRIERS = 3
N_FLAGS = 2

#: One instruction of a thread program. Thresholds may exceed the
#: barrier width, which makes the wait unsatisfiable.
instructions = st.one_of(
    st.just(("step",)),
    st.tuples(st.just("enter"), st.integers(0, N_BARRIERS - 1), st.integers(0, 7)),
    st.tuples(st.just("wait"), st.integers(0, N_BARRIERS - 1), st.integers(0, 9)),
    st.tuples(st.just("opaque"), st.integers(0, N_BARRIERS - 1), st.integers(0, 9)),
    st.tuples(st.just("set_flag"), st.integers(0, N_FLAGS - 1)),
    st.tuples(st.just("wait_flag"), st.integers(0, N_FLAGS - 1)),
    st.just(("return",)),
    st.just(("never",)),
)

programs = st.lists(st.lists(instructions, max_size=10), max_size=7)


def build_threads(program, widths, trace):
    """Fresh barriers/flags and one generator per thread program."""
    barriers = [PartialBarrier(width) for width in widths]
    flags = [False] * N_FLAGS

    def thread(tid, instrs):
        for pc, instr in enumerate(instrs):
            trace.append((tid, pc))
            op = instr[0]
            if op == "step":
                yield None
            elif op == "enter":
                barrier = barriers[instr[1]]
                barrier.enter(instr[2] % barrier.width)
            elif op == "wait":
                yield barriers[instr[1]].wait_condition(instr[2])
            elif op == "opaque":
                barrier, threshold = barriers[instr[1]], instr[2]
                yield lambda: barrier.prefix >= threshold
            elif op == "set_flag":
                flags[instr[1]] = True
            elif op == "wait_flag":
                index = instr[1]
                yield lambda: flags[index]
            elif op == "return":
                return
            else:  # never
                yield lambda: False

    return [thread(tid, instrs) for tid, instrs in enumerate(program)]


def run_program(executor_cls, program, widths, policy_spec, max_steps):
    policy = RecordingPolicy(make_policy(policy_spec))
    trace: list[tuple[int, int]] = []
    executor = executor_cls(policy, max_steps=max_steps)
    result = outcome(lambda: executor.run(build_threads(program, widths, trace)))
    if result[0] == "ok":
        stats = result[1]
        result = ("ok", dict(stats.steps), dict(stats.wait_polls))
    return result, policy.log, trace


class TestExecutorDifferential:
    @COMMON
    @given(
        program=programs,
        widths=st.lists(st.integers(1, 8), min_size=N_BARRIERS, max_size=N_BARRIERS),
        policy_spec=policy_specs,
        max_steps=st.sampled_from([1, 7, 40, 10_000, 10_000, 10_000]),
    )
    def test_matches_reference(self, program, widths, policy_spec, max_steps):
        expected = run_program(ReferenceExecutor, program, widths, policy_spec, max_steps)
        actual = run_program(SteppedExecutor, program, widths, policy_spec, max_steps)
        assert actual == expected

    def test_known_charges_and_deadlock_report(self):
        """Thread 0 blocks in iteration 0 and is first found ready in
        iteration 3 (3 polls); a deadlock names every blocked thread."""
        for executor_cls in (ReferenceExecutor, SteppedExecutor):
            result, _, _ = run_program(
                executor_cls, [[("wait", 0, 1)], [("step",), ("enter", 0, 0)]],
                [2, 1, 1], ("round_robin", None), 100,
            )
            assert result == ("ok", {0: 2, 1: 2}, {0: 3, 1: 0})
            result, _, _ = run_program(
                executor_cls, [[("never",)], [("wait", 0, 5)]],
                [2, 1, 1], ("round_robin", None), 100,
            )
            assert result == (
                "raised", "DeadlockError",
                "threads [0, 1] are all blocked with unsatisfiable conditions",
            )


# ----------------------------------------------------------------------
# Engine level: random post/submit streams
# ----------------------------------------------------------------------

ENGINES = ["optimistic", *sorted(MUTANT_ENGINES)]


@st.composite
def engine_streams(draw):
    """A same-key burst (wide conflicted blocks, slow path) followed by
    a random stream over a small key domain."""
    burst = draw(st.integers(0, 48))
    ops = [StreamOp.post(0, 0)] * burst + [StreamOp.message(0, 0)] * burst
    return ops + draw(st.lists(stream_ops(), min_size=8, max_size=80))


def run_engine(engine_name, executor_cls, ops, flushes, config, policy_spec, hang_seed):
    engine_cls = MUTANT_ENGINES.get(engine_name, OptimisticMatcher)
    policy = RecordingPolicy(make_policy(policy_spec))
    engine = engine_cls(config, keep_history=True)
    engine._executor = executor_cls(policy)
    if hang_seed is not None:
        plan = CoreFaultPlan(seed=hang_seed, hang_rate=0.3, max_steps=12)
        engine.fault_injector = CoreFaultInjector(plan, active_cores=lambda: range(4))
    events = []

    def drive():
        for i, op in enumerate(ops):
            if op.kind == "post":
                event = engine.post_receive(ReceiveRequest(source=op.source, tag=op.tag))
                if event is not None:
                    events.append(event)
            else:
                engine.submit_message(
                    MessageEnvelope(source=op.source, tag=op.tag, send_seq=i)
                )
            if i in flushes:
                events.extend(engine.process_all())
        events.extend(engine.process_all())

    result = outcome(drive)
    summary = [(e.kind, e.pairing(), e.path, e.decision_order) for e in events]
    blocks = [(b.thread_steps, b.wait_polls) for b in engine.stats.block_history]
    return result, summary, blocks, engine.stats.block_history, policy.log


class TestEngineDifferential:
    @COMMON
    @given(
        ops=engine_streams(),
        flushes=st.sets(st.integers(0, 176), max_size=6),
        width=st.integers(1, 32),
        bins=st.sampled_from([1, 4, 64]),
        early_booking=st.booleans(),
        fast_path=st.booleans(),
        engine_name=st.sampled_from(ENGINES),
        policy_spec=policy_specs,
        hang_seed=st.one_of(st.none(), st.integers(0, 2**16)),
    )
    def test_matches_reference(
        self, ops, flushes, width, bins, early_booking, fast_path, engine_name,
        policy_spec, hang_seed,
    ):
        config = EngineConfig(
            bins=bins,
            block_threads=width,
            max_receives=256,
            early_booking_check=early_booking,
            enable_fast_path=fast_path,
        )
        args = (ops, flushes, config, policy_spec, hang_seed)
        expected = run_engine(engine_name, ReferenceExecutor, *args)
        actual = run_engine(engine_name, SteppedExecutor, *args)
        assert actual == expected

    def test_hang_schedule_reaches_the_opaque_path(self):
        """The hang lane is not vacuous: some seed deadlocks a block."""
        config = EngineConfig(bins=1, block_threads=8, max_receives=256)
        stream = [StreamOp.post(0, 7)] * 8 + [StreamOp.message(0, 7)] * 8
        outcomes = [
            run_engine("optimistic", SteppedExecutor, stream, set(), config,
                       ("round_robin", None), seed)[0]
            for seed in range(16)
        ]
        assert any(o[0] == "raised" and o[1] == "DeadlockError" for o in outcomes)
