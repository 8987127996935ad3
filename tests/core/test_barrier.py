"""Tests for the partial barrier."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.barrier import PartialBarrier
from repro.core.threadsim import RandomPolicy, SteppedExecutor
from repro.util.bitmap import Bitmap


@st.composite
def enter_sequences(draw):
    """A width in 1..64 and any order/subset (with repeats) of entries."""
    width = draw(st.integers(1, 64))
    entries = draw(st.lists(st.integers(0, width - 1), max_size=2 * width))
    return width, entries


class TestPartialBarrier:
    def test_thread_zero_passes_immediately(self):
        barrier = PartialBarrier(4)
        assert barrier.passed(0)

    def test_waits_on_all_lower(self):
        barrier = PartialBarrier(4)
        barrier.enter(0)
        assert barrier.passed(1)
        assert not barrier.passed(2)
        barrier.enter(1)
        assert barrier.passed(2)

    def test_higher_threads_do_not_matter(self):
        # Partial: thread 1 must not wait on threads 2, 3.
        barrier = PartialBarrier(4)
        barrier.enter(3)
        barrier.enter(0)
        assert barrier.passed(1)

    def test_entered(self):
        barrier = PartialBarrier(2)
        assert not barrier.entered(1)
        barrier.enter(1)
        assert barrier.entered(1)

    def test_reset(self):
        barrier = PartialBarrier(2)
        barrier.enter(0)
        barrier.reset()
        assert not barrier.entered(0)
        assert not barrier.passed(1)

    def test_under_executor_orders_exits(self):
        """Whatever the schedule, barrier exit order must respect IDs:
        thread i exits only after all j < i entered."""
        for seed in range(10):
            barrier = PartialBarrier(4)
            entered: set[int] = set()
            exit_snapshots = {}

            def proc(tid, barrier=None):
                yield None  # pre-barrier work
                entered.add(tid)
                barrier.enter(tid)
                yield barrier.wait_condition(tid)
                exit_snapshots[tid] = set(entered)

            SteppedExecutor(RandomPolicy(seed)).run(
                [proc(t, barrier=barrier) for t in range(4)]
            )
            assert set(exit_snapshots) == {0, 1, 2, 3}
            for tid, snapshot in exit_snapshots.items():
                # When thread i exited, every j < i had already entered.
                assert snapshot.issuperset(range(tid))


class TestWatermark:
    @given(enter_sequences())
    def test_prefix_tracks_the_bitmap(self, case):
        width, entries = case
        barrier = PartialBarrier(width)
        reference = Bitmap(width)
        for tid in entries:
            barrier.enter(tid)
            reference.set(tid)
            trailing = 0
            while trailing < width and reference.test(trailing):
                trailing += 1
            assert barrier.prefix == trailing
            for t in range(width):
                assert barrier.passed(t) == reference.all_below(t)
        barrier.reset()
        assert barrier.prefix == 0
        assert barrier.passed(0)
        assert width == 1 or not barrier.passed(1)

    def test_full_barrier_watermark_is_width(self):
        barrier = PartialBarrier(3)
        for tid in (2, 0, 1):
            barrier.enter(tid)
        assert barrier.prefix == 3
