"""Deterministic stepped-thread executor.

The DPA runs one hardware thread per in-flight message in a
run-to-completion fashion; the relative progress of those threads is
arbitrary. CPython cannot reproduce that concurrency natively (the
GIL serializes everything anyway), so the engine models each matching
thread as a *generator* that yields control at every
synchronization-relevant step. A scheduler then interleaves the
generators under a pluggable policy:

* :class:`RoundRobinPolicy` — fair lockstep (the default),
* :class:`RandomPolicy` — seeded adversarial interleavings,
* :class:`ScriptedPolicy` — an explicit choice sequence, which is what
  lets hypothesis drive the scheduler in property tests and *prove*
  the booking/barrier protocol under arbitrary schedules.

Yield protocol: a thread yields ``None`` to mark one step of work, or
yields a wait meaning "block me until it holds". Two kinds of wait
exist, and both must be free of side effects:

* :class:`PrefixWait` — "``barrier.prefix >= threshold``", the
  partial-barrier condition of :class:`repro.core.barrier.PartialBarrier`.
  The executor *parks* such a thread on its barrier and, after every
  step, wakes exactly the parked threads whose threshold the barrier's
  watermark has reached. Nothing is polled while the watermark stands
  still, so a step costs no scan over the blocked threads.
* any other zero-argument callable ``cond`` — an opaque condition,
  polled once per scheduler iteration until ``cond()`` is true (the
  recovery layer's hang fault and ad-hoc test conditions use this).

Both kinds report the same statistics as an executor that re-polls
every blocked thread on every iteration: a thread that blocks in
iteration ``since`` and whose condition a poll would first find true in
iteration ``k`` is charged ``wait_polls = k - since``. A thread woken
by the step of iteration ``i`` is charged ``i + 1 - since``; a
condition already true when yielded costs exactly 1. Policies see the
same ascending list of runnable thread IDs and are consulted on every
iteration. ``steps`` and ``wait_polls`` feed the DPA cycle model, so
this exactness is what keeps every simulated cycle count unchanged.

A blocked thread whose condition never becomes true while every other
thread is blocked or finished is a deadlock and raises
:class:`DeadlockError` — turning liveness bugs into test failures
instead of hangs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Callable, Generator, Sequence
from dataclasses import dataclass, field
from heapq import heappop, heappush

from repro.util.rng import make_rng

__all__ = [
    "DeadlockError",
    "PrefixWait",
    "SchedulePolicy",
    "RoundRobinPolicy",
    "RandomPolicy",
    "ScriptedPolicy",
    "SteppedExecutor",
    "ThreadStats",
]

#: What a simulated thread may yield: a bare step or a wait condition.
Yielded = Callable[[], bool] | None
ThreadProc = Generator[Yielded, None, None]


class DeadlockError(RuntimeError):
    """All live threads are blocked on conditions that cannot progress."""


class PrefixWait:
    """Wait until ``barrier.prefix >= threshold``.

    ``barrier`` is any object with an integer ``prefix`` attribute that
    changes only while a thread steps (the partial barrier's
    watermark). Calling the wait evaluates it, so it is also a valid
    opaque condition.
    """

    __slots__ = ("barrier", "threshold")

    def __init__(self, barrier, threshold: int) -> None:
        self.barrier = barrier
        self.threshold = threshold

    def __call__(self) -> bool:
        return self.barrier.prefix >= self.threshold


class SchedulePolicy:
    """Chooses which runnable thread advances next.

    ``runnable`` is the executor's ascending list of runnable thread
    IDs; a policy must neither keep nor modify it.
    """

    def pick(self, runnable: Sequence[int]) -> int:
        raise NotImplementedError

    def reset(self) -> None:
        """Called once per executor run; stateful policies rewind here."""


class RoundRobinPolicy(SchedulePolicy):
    """Advance runnable threads in cyclic thread-ID order."""

    def __init__(self) -> None:
        self._last = -1

    def reset(self) -> None:
        self._last = -1

    def pick(self, runnable: Sequence[int]) -> int:
        i = bisect_right(runnable, self._last)
        tid = runnable[i] if i < len(runnable) else runnable[0]
        self._last = tid
        return tid


class RandomPolicy(SchedulePolicy):
    """Seeded uniformly-random interleaving (adversarial stress)."""

    def __init__(self, seed: int | None = None) -> None:
        self._seed = seed
        self._rng = make_rng(seed)

    def reset(self) -> None:
        self._rng = make_rng(self._seed)

    def pick(self, runnable: Sequence[int]) -> int:
        return runnable[int(self._rng.integers(len(runnable)))]


class ScriptedPolicy(SchedulePolicy):
    """Follows an explicit choice script; used by hypothesis.

    Each script entry is an arbitrary non-negative integer reduced
    modulo the number of runnable threads, so any integer list is a
    valid schedule. When the script runs out the policy falls back to
    picking the lowest runnable thread.
    """

    def __init__(self, script: Sequence[int]) -> None:
        self._script = list(script)
        self._pos = 0

    def reset(self) -> None:
        self._pos = 0

    def pick(self, runnable: Sequence[int]) -> int:
        if self._pos < len(self._script):
            choice = self._script[self._pos] % len(runnable)
            self._pos += 1
            return runnable[choice]
        return runnable[0]


@dataclass(slots=True)
class ThreadStats:
    """Per-run scheduling statistics (also feeds the cycle model)."""

    steps: dict[int, int] = field(default_factory=dict)
    wait_polls: dict[int, int] = field(default_factory=dict)

    def total_steps(self) -> int:
        return sum(self.steps.values())

    def total_wait_polls(self) -> int:
        return sum(self.wait_polls.values())


class SteppedExecutor:
    """Runs a set of thread generators to completion under a policy."""

    def __init__(self, policy: SchedulePolicy | None = None, max_steps: int = 10_000_000):
        self._policy = policy if policy is not None else RoundRobinPolicy()
        self._max_steps = max_steps

    def run(self, threads: Sequence[ThreadProc]) -> ThreadStats:
        """Interleave ``threads`` until all complete.

        Returns scheduling statistics. Raises :class:`DeadlockError`
        when no thread can make progress, and ``RuntimeError`` if the
        step budget is exhausted (a livelock guard for tests).
        """
        policy = self._policy
        policy.reset()
        pick = policy.pick
        count = len(threads)
        steps = [0] * count
        polls = [0] * count
        runnable = list(range(count))
        live = count
        # barrier -> heap of (threshold, tid) of the threads parked on it
        parked: dict[object, list[tuple[int, int]]] = {}
        # parked tid -> iteration in which it blocked
        since: dict[int, int] = {}
        # tid -> opaque condition, re-polled every iteration
        polled: dict[int, Callable[[], bool]] = {}
        step = 0
        max_steps = self._max_steps

        while live:
            if polled:
                for tid, cond in list(polled.items()):
                    polls[tid] += 1
                    if cond():
                        del polled[tid]
                        insort(runnable, tid)
            if not runnable:
                waiting = sorted([*since, *polled])
                raise DeadlockError(
                    f"threads {waiting} are all blocked with unsatisfiable conditions"
                )
            tid = pick(runnable)
            steps[tid] += 1
            try:
                yielded = threads[tid].send(None)
            except StopIteration:
                live -= 1
                del runnable[bisect_left(runnable, tid)]
            else:
                if yielded is not None:
                    if yielded.__class__ is PrefixWait:
                        barrier = yielded.barrier
                        if barrier.prefix >= yielded.threshold:
                            polls[tid] += 1
                        else:
                            del runnable[bisect_left(runnable, tid)]
                            heap = parked.get(barrier)
                            if heap is None:
                                parked[barrier] = heap = []
                            heappush(heap, (yielded.threshold, tid))
                            since[tid] = step
                    else:
                        del runnable[bisect_left(runnable, tid)]
                        polled[tid] = yielded
            if since:
                for barrier, heap in parked.items():
                    prefix = barrier.prefix
                    while heap and heap[0][0] <= prefix:
                        woken = heappop(heap)[1]
                        polls[woken] += step + 1 - since.pop(woken)
                        insort(runnable, woken)
            step += 1
            if step >= max_steps:
                raise RuntimeError(
                    f"executor exceeded {self._max_steps} steps; likely livelock"
                )
        return ThreadStats(steps=dict(enumerate(steps)), wait_polls=dict(enumerate(polls)))
