"""Property tests for the send-buffer pool and the pin-down cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ib import Fabric, HCA, IBConfig
from repro.mpi.buffer_pool import BufferPoolError, SendBufferPool
from repro.mpi.pindown_cache import PinDownCache
from repro.sim import Simulator


# ----------------------------------------------------------------------
# SendBufferPool
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(1, 50),
    ops=st.lists(st.sampled_from(["acquire", "release"]), max_size=200),
)
def test_pool_accounting_never_corrupts(capacity, ops):
    pool = SendBufferPool(capacity, 2048)
    held = 0
    for op in ops:
        if op == "acquire":
            if pool.try_acquire():
                held += 1
        else:
            if held > 0:
                pool.release()
                held -= 1
            else:
                with pytest.raises(BufferPoolError):
                    pool.release()
        assert pool.free + held == capacity
        assert 0 <= pool.free <= capacity
    assert pool.min_free <= pool.free


def test_pool_rejects_zero_capacity():
    with pytest.raises(BufferPoolError):
        SendBufferPool(0, 2048)


# ----------------------------------------------------------------------
# PinDownCache
# ----------------------------------------------------------------------
def make_cache(capacity_bytes=1 << 20):
    sim = Simulator()
    fabric = Fabric(sim, IBConfig())
    hca = HCA(sim, fabric, 0)
    return PinDownCache(hca, capacity_bytes=capacity_bytes)


def test_cache_hit_costs_nothing():
    cache = make_cache()
    mr1, cost1 = cache.acquire("buf", 10_000)
    assert cost1 > 0
    mr2, cost2 = cache.acquire("buf", 10_000)
    assert mr2 is mr1
    assert cost2 == 0
    assert cache.hits == 1 and cache.misses == 1


def test_anonymous_buffers_always_miss_and_are_released():
    cache = make_cache()
    mr1, c1 = cache.acquire(None, 4096)
    mr2, c2 = cache.acquire(None, 4096)
    assert mr1 is not mr2
    assert c1 > 0 and c2 > 0
    release_cost = cache.release(None, mr1)
    assert release_cost > 0
    assert not mr1.valid


def test_cached_release_keeps_registration():
    cache = make_cache()
    mr, _ = cache.acquire("k", 8192)
    assert cache.release("k", mr) == 0
    assert mr.valid
    assert cache.pinned_bytes == mr.length


def test_resized_buffer_reregisters():
    cache = make_cache()
    small, _ = cache.acquire("k", 1000)
    big, cost = cache.acquire("k", 100_000)
    assert big is not small
    assert cost > 0
    assert big.length >= 100_000


def test_lru_eviction_on_capacity():
    cache = make_cache(capacity_bytes=100_000)
    a, _ = cache.acquire("a", 60_000)
    b, _ = cache.acquire("b", 60_000)  # evicts a
    assert cache.evictions == 1
    assert not a.valid
    assert b.valid
    # "a" re-acquired: a fresh miss
    a2, cost = cache.acquire("a", 60_000)
    assert cost > 0 and a2 is not a


def test_lru_order_respected():
    cache = make_cache(capacity_bytes=150_000)
    a, _ = cache.acquire("a", 60_000)
    b, _ = cache.acquire("b", 60_000)
    cache.acquire("a", 60_000)  # touch a → b is now LRU
    c, _ = cache.acquire("c", 60_000)  # evicts b
    assert not b.valid
    assert a.valid and c.valid


def test_flush_drops_everything():
    cache = make_cache()
    mrs = [cache.acquire(f"k{i}", 10_000)[0] for i in range(5)]
    cost = cache.flush()
    assert cost > 0
    assert all(not m.valid for m in mrs)
    assert cache.pinned_bytes == 0
    assert len(cache) == 0


@settings(max_examples=100, deadline=None)
@given(
    keys=st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=60),
    cap_regions=st.integers(1, 4),
)
def test_cache_pinned_bytes_always_within_one_region_of_cap(keys, cap_regions):
    """Eviction keeps pinned bytes ≤ capacity + one region (the newest
    entry is never evicted)."""
    region = 50_000
    cache = make_cache(capacity_bytes=cap_regions * region)
    for k in keys:
        mr, _ = cache.acquire(k, region - 4096)
        assert mr.valid
    assert cache.pinned_bytes <= (cap_regions + 1) * region
    # registration table agrees with the cache's view
    assert cache.hits + cache.misses == len(keys)
