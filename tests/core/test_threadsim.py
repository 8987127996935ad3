"""Tests for the stepped-thread executor and schedule policies."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.threadsim import (
    DeadlockError,
    RandomPolicy,
    RoundRobinPolicy,
    ScriptedPolicy,
    SteppedExecutor,
)
from tests.conftest import schedules


def worker(log, tid, steps):
    for i in range(steps):
        log.append((tid, i))
        yield None


class TestBasicExecution:
    def test_all_threads_complete(self):
        log = []
        SteppedExecutor().run([worker(log, 0, 3), worker(log, 1, 2)])
        assert sorted(log) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]

    def test_round_robin_interleaves(self):
        log = []
        SteppedExecutor(RoundRobinPolicy()).run([worker(log, 0, 2), worker(log, 1, 2)])
        assert log == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_empty_thread_list(self):
        stats = SteppedExecutor().run([])
        assert stats.total_steps() == 0

    def test_zero_step_thread(self):
        def empty():
            return
            yield  # pragma: no cover - makes this a generator

        SteppedExecutor().run([empty()])

    def test_stats_count_steps(self):
        log = []
        stats = SteppedExecutor().run([worker(log, 0, 5)])
        # 5 yields plus the final resume that finishes the generator.
        assert stats.steps[0] == 6


class TestWaitConditions:
    def test_wait_until_flag(self):
        state = {"flag": False}
        order = []

        def setter():
            yield None
            state["flag"] = True
            order.append("set")

        def waiter():
            yield lambda: state["flag"]
            order.append("woke")

        SteppedExecutor(RoundRobinPolicy()).run([waiter(), setter()])
        assert order == ["set", "woke"]

    def test_deadlock_detected(self):
        def stuck():
            yield lambda: False

        with pytest.raises(DeadlockError):
            SteppedExecutor().run([stuck()])

    def test_mutual_wait_deadlock(self):
        a_done = {"v": False}
        b_done = {"v": False}

        def thread_a():
            yield lambda: b_done["v"]
            a_done["v"] = True

        def thread_b():
            yield lambda: a_done["v"]
            b_done["v"] = True

        with pytest.raises(DeadlockError):
            SteppedExecutor().run([thread_a(), thread_b()])

    def test_livelock_guard(self):
        def spinner():
            while True:
                yield None

        with pytest.raises(RuntimeError, match="steps"):
            SteppedExecutor(max_steps=100).run([spinner()])


class TestPolicies:
    def test_random_policy_reproducible(self):
        def run(seed):
            log = []
            SteppedExecutor(RandomPolicy(seed)).run(
                [worker(log, 0, 5), worker(log, 1, 5), worker(log, 2, 5)]
            )
            return log

        assert run(3) == run(3)

    def test_random_policy_seeds_differ(self):
        def run(seed):
            log = []
            SteppedExecutor(RandomPolicy(seed)).run(
                [worker(log, 0, 10), worker(log, 1, 10)]
            )
            return log

        assert any(run(a) != run(b) for a, b in [(1, 2), (3, 4), (5, 6)])

    @given(
        runnable=st.sets(st.integers(0, 40), min_size=1).map(sorted),
        last=st.integers(-1, 41),
    )
    def test_round_robin_matches_linear_scan(self, runnable, last):
        """The bisect pick equals "first tid above _last, else wrap"."""
        expected = next((tid for tid in runnable if tid > last), runnable[0])
        policy = RoundRobinPolicy()
        policy._last = last
        assert policy.pick(runnable) == expected
        assert policy._last == expected

    def test_scripted_policy_follows_script(self):
        log = []
        # Always pick the highest runnable thread (index 1 of 2, then
        # the remaining one).
        policy = ScriptedPolicy([1] * 10)
        SteppedExecutor(policy).run([worker(log, 0, 2), worker(log, 1, 2)])
        assert log[:2] == [(1, 0), (1, 1)]

    def test_scripted_policy_exhausted_falls_back(self):
        log = []
        SteppedExecutor(ScriptedPolicy([])).run([worker(log, 0, 2), worker(log, 1, 2)])
        assert log == [(0, 0), (0, 1), (1, 0), (1, 1)]

    @given(schedules)
    def test_any_script_completes_all_threads(self, script):
        log = []
        SteppedExecutor(ScriptedPolicy(script)).run(
            [worker(log, t, 3) for t in range(4)]
        )
        assert len(log) == 12
