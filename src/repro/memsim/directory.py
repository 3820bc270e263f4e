"""Full-map directory for invalidation-based cache coherence.

The directory tracks, per secondary-cache line, which nodes hold a copy and
which node (if any) holds it dirty.  It is the mechanism behind the 2-hop
and 3-hop remote transactions of the paper's NUMA latency model, and the
source of the coherence invalidations that Figure 7 classifies as ``Cohe``
misses.  It is plain state: the replay engines
(:class:`~repro.memsim.numa.NumaMachine` and the kernels of
:mod:`repro.memsim.interleave`) read and update ``_sharers`` and
``_dirty`` directly on their miss paths.
"""


class Directory:
    """Per-line sharing state for an ``n_nodes``-node machine.

    ``_sharers`` maps a line to the set of nodes caching it; ``_dirty``
    maps a line to the one node holding it dirty, which is then its only
    sharer.
    """

    __slots__ = ("n_nodes", "_sharers", "_dirty")

    def __init__(self, n_nodes):
        self.n_nodes = n_nodes
        self._sharers = {}
        self._dirty = {}
