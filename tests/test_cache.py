"""Unit tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memsim.cache import (
    Cache, MISS_COHERENCE, MISS_COLD, MISS_CONFLICT,
)


def test_geometry_direct_mapped():
    c = Cache(1024, 32, assoc=1)
    assert c.n_sets == 32
    assert c.line_shift == 5


def test_geometry_set_associative():
    c = Cache(4096, 64, assoc=2)
    assert c.n_sets == 32
    assert c.assoc == 2


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        Cache(1000, 32, assoc=1)  # size not divisible
    with pytest.raises(ValueError):
        Cache(96, 32, assoc=1)  # 3 sets: not a power of two
    with pytest.raises(ValueError):
        Cache(1024, 48, assoc=1)  # line not a power of two


def test_miss_then_hit():
    c = Cache(1024, 32)
    assert not c.contains(5)
    c.insert(5)
    assert c.contains(5)


def test_direct_mapped_conflict_eviction():
    c = Cache(1024, 32, assoc=1)  # 32 sets
    c.insert(1)
    evicted = c.insert(1 + 32)  # same set
    assert evicted == 1
    assert not c.contains(1)
    assert c.contains(33)


def test_two_way_lru_order():
    c = Cache(2048, 32, assoc=2)  # 32 sets
    a, b, d = 1, 33, 65  # all map to set 1
    c.insert(a)
    c.insert(b)
    c.insert(a)  # a hit: a becomes MRU
    evicted = c.insert(d)
    assert evicted == b  # b was LRU


def test_insert_existing_line_is_not_eviction():
    c = Cache(1024, 32)
    c.insert(7)
    assert c.insert(7) is None


def test_cold_miss_classification():
    c = Cache(1024, 32)
    assert c.classify_miss(9) == MISS_COLD
    c.insert(9)
    c.invalidate(9, coherence=False)
    assert c.classify_miss(9) == MISS_CONFLICT


def test_coherence_miss_classification():
    c = Cache(1024, 32)
    c.insert(9)
    c.invalidate(9, coherence=True)
    assert c.classify_miss(9) == MISS_COHERENCE
    # After refill, a replacement eviction downgrades to conflict.
    c.insert(9)
    c.invalidate(9, coherence=False)
    assert c.classify_miss(9) == MISS_CONFLICT


def test_replacement_eviction_classifies_conflict():
    c = Cache(1024, 32, assoc=1)
    c.insert(1)
    c.insert(33)  # evicts 1
    assert c.classify_miss(1) == MISS_CONFLICT


def test_invalidate_absent_line_returns_false():
    c = Cache(1024, 32)
    assert not c.invalidate(77)


def test_contains_does_not_touch_lru():
    c = Cache(2048, 32, assoc=2)
    a, b, d = 1, 33, 65
    c.insert(a)
    c.insert(b)  # b is MRU
    assert c.contains(a)  # must NOT promote a
    evicted = c.insert(d)
    assert evicted == a


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                max_size=300))
def test_cache_agrees_with_naive_lru_model(lines):
    """Property: the cache behaves like a per-set LRU list model.  Each
    access probes with ``contains`` and then calls ``insert``, which fills
    a miss and moves a hit to the MRU way, as the engines' probes do."""
    c = Cache(512, 32, assoc=2)  # 8 sets, 2 ways
    model = {s: [] for s in range(8)}
    for line in lines:
        s = line % 8
        hit = c.contains(line)
        assert hit == (line in model[s])
        evicted = c.insert(line)
        if not hit:
            assert evicted == (model[s][-1] if len(model[s]) == 2 else None)
            model[s].insert(0, line)
            if len(model[s]) > 2:
                model[s].pop()
        else:
            model[s].remove(line)
            model[s].insert(0, line)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["access", "inval"]),
                          st.integers(0, 63)), max_size=200))
def test_miss_classification_taxonomy(ops):
    """Property: first-touch is cold, post-invalidation is coherence, and
    everything else is conflict."""
    c = Cache(256, 32, assoc=1)  # 8 sets
    seen = set()
    invalidated = set()
    resident = {}
    for op, line in ops:
        s = line % 8
        if op == "access":
            if resident.get(s) == line:
                assert c.contains(line)
            else:
                assert not c.contains(line)
                kind = c.classify_miss(line)
                if line not in seen:
                    assert kind == MISS_COLD
                elif line in invalidated:
                    assert kind == MISS_COHERENCE
                else:
                    assert kind == MISS_CONFLICT
                c.insert(line)
                seen.add(line)
                invalidated.discard(line)
                resident[s] = line
        else:
            c.invalidate(line, coherence=True)
            if resident.get(s) == line:
                invalidated.add(line)
                del resident[s]
