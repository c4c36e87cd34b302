"""A4 (ablation) — the transactional object cache.

Every LabBase operation deserializes the objects it touches; without a
cache each touch pays the full storage-manager round trip (page fetch +
decode) again.  This ablation runs the warmed E8 operation mix — a
transaction of updates plus the Q2/Q6/Q7 query families — with the
cache at its default size and with capacity 0, and reports the wall
clock, the logical-read split (hits vs misses) and the write
coalescing.  Capacity 0 keeps the identical unit-of-work write path, so
the two runs differ only in speed (see test_objcache_equivalence.py).
"""

from __future__ import annotations

import itertools
import time

import pytest

from repro.benchmark import BenchmarkConfig, LabFlowWorkload
from repro.benchmark.operations import QueryRunner
from repro.labbase import LabBase
from repro.obs.registry import gauges_from
from repro.storage import DEFAULT_CACHE_OBJECTS, ObjectStoreSM
from repro.util.fmt import format_table
from repro.util.rng import DeterministicRng

from _common import emit

_CONFIG = BenchmarkConfig(clones_per_interval=10, intervals=(0.5, 1.0))
_WARMUP_ROUNDS = 20
_ROUNDS = 120
_SPEEDUP_FLOOR = 1.3


def _build(capacity: int):
    sm = ObjectStoreSM(buffer_pages=512)
    db = LabBase(sm, object_cache=capacity)
    workload = LabFlowWorkload(db, _CONFIG)
    workload.run_all()
    runner = QueryRunner(db, workload.registry, DeterministicRng(99))
    return sm, db, workload, runner


def _mix_once(db, workload, runner, times) -> None:
    """One round of the E8 mix: an update transaction + three queries."""
    _key, oid = workload.registry.by_class["tclone"][0]
    db.begin()
    db.record_step(
        "determine_sequence", next(times), [oid], {"quality": 0.5}
    )
    db.set_state(oid, "bench_state", next(times))
    db.commit()
    runner.run_q2()
    runner.run_q6()
    runner.run_q7()


def _run(capacity: int) -> dict:
    sm, db, workload, runner = _build(capacity)
    times = itertools.count(5_000_000)
    for _ in range(_WARMUP_ROUNDS):
        _mix_once(db, workload, runner, times)
    before = sm.stats.snapshot()
    started = time.perf_counter()
    for _ in range(_ROUNDS):
        _mix_once(db, workload, runner, times)
    elapsed = time.perf_counter() - started
    delta = sm.stats.delta(before)
    return {
        "capacity": capacity,
        "mix_us": elapsed / _ROUNDS * 1e6,
        "cache_hits": delta["cache_hits"],
        "cache_misses": delta["cache_misses"],
        "cache_coalesced": delta["cache_coalesced"],
        "cache_hit_ratio": gauges_from(delta)["cache_hit_ratio"],
        "objects_read": delta["objects_read"],
        "objects_written": delta["objects_written"],
    }


@pytest.fixture(scope="module")
def ablation():
    return {"on": _run(DEFAULT_CACHE_OBJECTS), "off": _run(0)}


def test_a4_emit_table(benchmark, ablation):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    on, off = ablation["on"], ablation["off"]
    speedup = off["mix_us"] / on["mix_us"]
    rows = [
        ["E8 mix round (us)", f"{on['mix_us']:.0f}", f"{off['mix_us']:.0f}"],
        ["cache hits", f"{on['cache_hits']}", f"{off['cache_hits']}"],
        ["cache misses", f"{on['cache_misses']}", f"{off['cache_misses']}"],
        ["cache hit ratio", f"{on['cache_hit_ratio']:.3f}",
         f"{off['cache_hit_ratio']:.3f}"],
        ["writes coalesced", f"{on['cache_coalesced']}",
         f"{off['cache_coalesced']}"],
        ["SM object reads", f"{on['objects_read']}", f"{off['objects_read']}"],
        ["SM object writes", f"{on['objects_written']}",
         f"{off['objects_written']}"],
        ["speedup (off/on)", f"{speedup:.2f}x", "1.00x"],
    ]
    text = format_table(
        ["metric", "cache on", "cache off"],
        rows,
        title="A4: object cache ablation (warm E8 operation mix)",
        align_right=(1, 2),
    )
    emit("a4_object_cache", text, payload={"on": on, "off": off, "speedup": speedup})

    # the warm mix must be decisively cheaper with the cache
    assert speedup >= _SPEEDUP_FLOOR, (
        f"object cache speedup {speedup:.2f}x below {_SPEEDUP_FLOOR}x floor"
    )
    # warm means warm: almost every logical read served from the cache.
    # Capacity 0 still hits its own dirty buffer inside a transaction
    # (the unit of work is visible to reads), so "off" is low, not zero.
    assert on["cache_hit_ratio"] > 0.95
    assert off["cache_hit_ratio"] < 0.25
    # the transaction rewrites the material record more than once per
    # round, so writes coalesce — and they coalesce *identically* in
    # both settings, because capacity 0 disables read caching only, not
    # the unit of work.  Identical SM write traffic is what makes the
    # ablation honest (the on-disk bytes match; see the equivalence
    # property test).
    assert on["cache_coalesced"] > 0
    assert on["cache_coalesced"] == off["cache_coalesced"]
    assert on["objects_written"] == off["objects_written"]


@pytest.mark.parametrize(
    "capacity",
    [DEFAULT_CACHE_OBJECTS, 0],
    ids=["cache_on", "cache_off"],
)
def test_a4_q7_history_scan_latency(benchmark, capacity):
    _sm, db, workload, runner = _build(capacity)
    runner.run_q7()  # warm the scanned chain
    benchmark(runner.run_q7)


@pytest.mark.parametrize(
    "capacity",
    [DEFAULT_CACHE_OBJECTS, 0],
    ids=["cache_on", "cache_off"],
)
def test_a4_update_transaction_latency(benchmark, capacity):
    _sm, db, workload, _runner = _build(capacity)
    _key, oid = workload.registry.by_class["tclone"][0]
    times = itertools.count(6_000_000)

    def txn():
        db.begin()
        db.record_step(
            "determine_sequence", next(times), [oid], {"quality": 0.5}
        )
        db.set_state(oid, "bench_state", next(times))
        db.commit()

    benchmark(txn)
