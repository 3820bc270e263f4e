"""Model of the 16-entry processor write buffer.

The paper's processors "stall on read misses and on write buffer overflow".
We model the buffer as a FIFO of pending stores that retire serially: a
store's completion time is the later of its issue time and the previous
store's completion, plus its own service latency.  When a store is issued
while the buffer is full, the processor stalls until the oldest entry
retires.
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

    def issue(self, now, latency):
        """Issue a store at time ``now`` with service time ``latency``.

        Returns the number of cycles the processor stalls (zero unless the
        buffer was full).
        """
        self._drain(now)
        stall = 0
        if len(self.entries) >= self.capacity:
            # Processor waits for the oldest entry to retire.
            oldest = self.entries.popleft()
            if oldest > now:
                stall = oldest - now
        issue_time = now + stall
        completion = max(self._last_completion, issue_time) + latency
        self._last_completion = completion
        self.entries.append(completion)
        self.stall_cycles += stall
        return stall

    def _drain(self, now):
        entries = self.entries
        while entries and entries[0] <= now:
            entries.popleft()

    def pending(self, now):
        """Return the number of stores still in flight at time ``now``."""
        self._drain(now)
        return len(self.entries)

    def drain_time(self, now):
        """Return the time at which the buffer becomes empty."""
        return max(now, self._last_completion)

    def reset(self):
        """Empty the buffer (between workload phases)."""
        self.entries.clear()
        self._last_completion = 0
        self.stall_cycles = 0
