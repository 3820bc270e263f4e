"""State of the 16-entry processor write buffer.

The paper's processors "stall on read misses and on write buffer overflow".
The buffer is a FIFO of pending store completion times that retire
serially: a store completes at the later of its issue time and the
previous store's completion, plus its own service latency.  A store issued
into a full buffer stalls the processor until the oldest entry retires.
The replay engines (:meth:`~repro.memsim.numa.NumaMachine.write` and the
kernels of :mod:`repro.memsim.interleave`) apply that rule to ``entries``
and ``_last_completion`` directly.
"""

from collections import deque


class WriteBuffer:
    """FIFO write buffer with bounded occupancy and serial retirement."""

    __slots__ = ("entries", "capacity", "_last_completion", "stall_cycles")

    def __init__(self, capacity=16):
        if capacity < 1:
            raise ValueError("write buffer needs at least one entry")
        self.capacity = capacity
        self.entries = deque()
        self._last_completion = 0
        self.stall_cycles = 0

    def drain_time(self, now):
        """Return the time at which the buffer becomes empty."""
        return max(now, self._last_completion)

    def reset(self):
        """Empty the buffer (between workload phases)."""
        self.entries.clear()
        self._last_completion = 0
        self.stall_cycles = 0
