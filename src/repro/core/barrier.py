"""The partial barrier (§III-D.1).

"A thread must wait only on threads processing earlier messages. …
As threads move over blocks of the incoming message stream, this
barrier can be implemented by letting a thread *i* wait on all threads
*j* with *j* < *i*. We implement the partial barrier with a bitmap,
where each thread sets its own bit whenever it enters the barrier."

The same bitmap mechanism is reused twice more per block: to publish
conflict-detection status (thread *i* must know whether any lower
thread detected a conflict before it may consume its candidate without
resolution, §III-D.2: "if a thread *i* detects a conflict, then all
other threads *j* > *i* need to enter the conflict resolution phase"),
and to publish which threads have settled their message.

"Every *j* < *i* has entered" is a prefix property and bits are only
ever set within a block, so the barrier also keeps a *watermark*: the
length of the run of set bits starting at bit 0. Thread *i* has passed
exactly when ``prefix >= i``, an O(1) test instead of a mask over the
bitmap — the host-side analogue of a NIC-resident barrier counter.
"""

from __future__ import annotations

from repro.core.threadsim import PrefixWait
from repro.util.bitmap import Bitmap

__all__ = ["PartialBarrier"]


class PartialBarrier:
    """Bitmap-based partial barrier over ``width`` block threads."""

    __slots__ = ("_bitmap", "prefix")

    def __init__(self, width: int) -> None:
        self._bitmap = Bitmap(width)
        #: Count of trailing set bits: threads ``0 .. prefix-1`` entered.
        self.prefix = 0

    @property
    def width(self) -> int:
        return self._bitmap.width

    def enter(self, thread_id: int) -> None:
        """Thread ``thread_id`` publishes that it reached the barrier."""
        bitmap = self._bitmap
        bitmap.set(thread_id)
        bits = bitmap.value
        self.prefix = (bits ^ (bits + 1)).bit_length() - 1

    def entered(self, thread_id: int) -> bool:
        return self._bitmap.test(thread_id)

    def passed(self, thread_id: int) -> bool:
        """Whether every thread below ``thread_id`` has entered.

        Thread 0 passes immediately — it has nobody to wait for.
        """
        return self.prefix >= thread_id

    def wait_condition(self, thread_id: int) -> PrefixWait:
        """The executor wait for :meth:`passed` (parked, woken on change)."""
        return PrefixWait(self, thread_id)

    def reset(self) -> None:
        self._bitmap.reset()
        self.prefix = 0
