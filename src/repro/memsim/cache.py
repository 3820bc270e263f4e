"""Set-associative cache model with cold/conflict/coherence miss taxonomy.

A cache is a set of small LRU ways holding line tags.  A *line tag* is the
memory address shifted right by ``line_shift``; callers compute it so that a
cache never needs to know about byte addresses in its hot path.  The replay
engines probe ``_sets`` and update ``_seen``/``_invalidated`` inline on
their hot paths; the methods here serve the colder ones (prefetch fills,
coherence invalidations, L2 miss classification).

Miss classification follows the paper (Figure 7):

* **cold** -- the line was never in this cache before;
* **coherence** -- the line was here, and was removed by an invalidation
  caused by another processor's write;
* **conflict** -- everything else (replacement misses, which at fixed cache
  size also include what other taxonomies call capacity misses).
"""

MISS_COLD = 0
MISS_CONFLICT = 1
MISS_COHERENCE = 2

MISS_NAMES = {MISS_COLD: "Cold", MISS_CONFLICT: "Conf", MISS_COHERENCE: "Cohe"}


class Cache:
    """One level of a processor's cache hierarchy.

    Parameters
    ----------
    size:
        Capacity in bytes.
    line_size:
        Line size in bytes (power of two).
    assoc:
        Associativity; ``1`` models a direct-mapped cache.
    name:
        Label used in error messages and debugging output.
    """

    __slots__ = ("size", "line_size", "line_shift", "assoc", "n_sets",
                 "_set_mask", "_sets", "_seen", "_invalidated", "name")

    def __init__(self, size, line_size, assoc=1, name=""):
        if size % (line_size * assoc) != 0:
            raise ValueError(
                f"{name or 'cache'}: size {size} not divisible by "
                f"line_size*assoc {line_size * assoc}"
            )
        n_sets = size // (line_size * assoc)
        if n_sets & (n_sets - 1):
            raise ValueError(f"{name or 'cache'}: number of sets {n_sets} not a power of two")
        if line_size & (line_size - 1):
            raise ValueError(f"{name or 'cache'}: line size {line_size} not a power of two")
        self.size = size
        self.line_size = line_size
        self.line_shift = line_size.bit_length() - 1
        self.assoc = assoc
        self.n_sets = n_sets
        self._set_mask = n_sets - 1
        # Each set is a list of tags ordered most-recently-used first.
        self._sets = [[] for _ in range(n_sets)]
        self._seen = set()
        self._invalidated = set()
        self.name = name

    def contains(self, line):
        """Return whether ``line`` is resident, without touching LRU state."""
        return line in self._sets[line & self._set_mask]

    def insert(self, line):
        """Fill ``line`` into the cache; return the evicted tag, if any."""
        ways = self._sets[line & self._set_mask]
        if line in ways:
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
            return None
        ways.insert(0, line)
        self._seen.add(line)
        self._invalidated.discard(line)
        if len(ways) > self.assoc:
            return ways.pop()
        return None

    def invalidate(self, line, coherence=False):
        """Remove ``line`` if present.

        When ``coherence`` is true the removal is recorded so that the next
        miss on this line classifies as a coherence miss.  Returns whether
        the line was resident.
        """
        ways = self._sets[line & self._set_mask]
        if line in ways:
            ways.remove(line)
            if coherence:
                self._invalidated.add(line)
            return True
        return False

    def classify_miss(self, line):
        """Classify a miss on ``line`` (call before :meth:`insert`)."""
        if line not in self._seen:
            return MISS_COLD
        if line in self._invalidated:
            return MISS_COHERENCE
        return MISS_CONFLICT
