"""A6 (ablation) — group commit in the served session layer.

The page-server story of Section 10 only pays off if concurrent
sessions' commits can share their durability cost.  This ablation
drives an E8-style mix (record_step + set_state + a most_recent read
per round) through ``LabFlowService`` at 1, 2, 4 and 8 concurrent
sessions — units interleaved round-robin, each session on its own
page — with group commit on (group cap = session count) and off (one
storage commit per update unit).  The store runs the legacy pickle
codec: the schema-aware codec packs materials so densely that a growing
material relocates to the segment's shared tail page, which would turn
the sweep into a lock-contention measurement (the premise is asserted,
as in tests/test_server.py).  Reported per setting: wall clock per
update unit, storage commits, mean group width, vectored I/O batches
and checkpoint bytes per unit.

The acceptance floor pinned here (and in tests/test_server.py): at four
sessions, grouping must make *strictly* fewer io_batches + meta bytes
per committed step than the sequential per-unit baseline.
"""

from __future__ import annotations

import os
import tempfile
import time

import pytest

from repro.labbase import LabBase
from repro.obs.registry import gauges_from
from repro.server import LabFlowService, LocalClient, bootstrap_schema
from repro.storage import ObjectStoreSM
from repro.util.fmt import format_table

from _common import emit

_SESSION_COUNTS = (1, 2, 4, 8)
_ROUNDS = 24
_SPREAD_FILLERS = 40


def _open_store(workdir: str) -> ObjectStoreSM:
    # codec="pickle": the page-per-session spread needs pickle's looser
    # packing, which leaves each material room to grow in place.
    return ObjectStoreSM(
        path=os.path.join(workdir, "db.pages"), checkpoint_every=1,
        codec="pickle",
    )


def _spread_sessions(sm, clients):
    """One material per session, each on its own page (filler-padded),
    so the sweep measures commit amortization, not page contention."""
    tick = 0
    oids = []
    for index, client in enumerate(clients):
        tick += 1
        oids.append(
            client.create_material(
                "clone", f"{client.session}-m", tick, state="active"
            )
        )
        for filler in range(_SPREAD_FILLERS):
            tick += 1
            clients[0].create_material("clone", f"fill-{index}-{filler}", tick)
    pages = [sm.pages_of(oid)[0] for oid in oids]
    assert len(set(pages)) == len(pages), "expected one page per session"
    return oids, tick


def _run(sessions: int, group: bool) -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        sm = _open_store(workdir)
        db = LabBase(sm)
        bootstrap_schema(db)
        service = LabFlowService(
            db, group_commit=group, group_cap=sessions, retry_backoff=0.0
        )
        clients = [LocalClient(service, f"c{i}") for i in range(sessions)]
        oids, tick = _spread_sessions(sm, clients)
        service.drain()

        before = sm.stats.snapshot()
        units = 0
        started = time.perf_counter()
        for _round in range(_ROUNDS):
            # round-robin interleave: every session contributes one
            # update unit before any session contributes its next
            for client, oid in zip(clients, oids):
                tick += 1
                client.record_step("measure", tick, [oid], {"value": tick})
                units += 1
            for client, oid in zip(clients, oids):
                tick += 1
                client.set_state(oid, "busy" if tick % 2 else "active", tick)
                units += 1
            for client, oid in zip(clients, oids):
                client.most_recent(oid, "value")
        service.drain()
        elapsed = time.perf_counter() - started
        delta = sm.stats.delta(before)

        service.shutdown()
        assert db.verify_storage().ok
        sm.close()

    return {
        "sessions": sessions,
        "group_commit": group,
        "units": units,
        "unit_us": elapsed / units * 1e6,
        "commits": delta["commits"],
        "group_commits": delta["group_commits"],
        "sessions_per_group": delta["sessions_per_group"],
        "group_width": gauges_from(delta)["group_width"],
        "commit_stalls": delta["commit_stalls"],
        "io_batches": delta["io_batches"],
        "meta_bytes_written": delta["meta_bytes_written"],
        "page_writes": delta["page_writes"],
        "cost_per_unit": (delta["io_batches"] + delta["meta_bytes_written"])
        / units,
    }


@pytest.fixture(scope="module")
def sweep():
    return {
        (sessions, group): _run(sessions, group)
        for sessions in _SESSION_COUNTS
        for group in (True, False)
    }


def test_a6_emit_table(benchmark, sweep):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for sessions in _SESSION_COUNTS:
        for group in (True, False):
            run = sweep[(sessions, group)]
            rows.append(
                [
                    f"{sessions}",
                    "on" if group else "off",
                    f"{run['unit_us']:.0f}",
                    f"{run['commits']}",
                    f"{run['group_width']:.2f}",
                    f"{run['commit_stalls']}",
                    f"{run['io_batches']}",
                    f"{run['meta_bytes_written']}",
                    f"{run['cost_per_unit']:.1f}",
                ]
            )
    text = format_table(
        [
            "sessions",
            "group",
            "us/unit",
            "commits",
            "width",
            "stalls",
            "io_batches",
            "meta bytes",
            "cost/unit",
        ],
        rows,
        title="A6: group commit across concurrent sessions (E8-style mix)",
        align_right=(2, 3, 4, 5, 6, 7, 8),
    )
    payload = {
        f"s{sessions}_{'on' if group else 'off'}": run
        for (sessions, group), run in sweep.items()
    }
    emit("a6_group_commit", text, payload=payload)

    # The acceptance floor: at 4 concurrent sessions, group commit must
    # cost strictly less I/O per committed step than per-unit commits.
    grouped, sequential = sweep[(4, True)], sweep[(4, False)]
    assert grouped["units"] == sequential["units"]
    assert grouped["cost_per_unit"] < sequential["cost_per_unit"], (
        f"grouped {grouped['cost_per_unit']:.1f} !< "
        f"sequential {sequential['cost_per_unit']:.1f}"
    )
    assert grouped["meta_bytes_written"] < sequential["meta_bytes_written"]
    assert grouped["io_batches"] <= sequential["io_batches"]
    assert grouped["commits"] < sequential["commits"]

    # grouping must actually batch once there is someone to batch with,
    # and the batch should widen with the session count
    assert sweep[(2, True)]["group_width"] > 1.0
    assert sweep[(8, True)]["group_width"] > sweep[(2, True)]["group_width"]
    for sessions in _SESSION_COUNTS:
        assert sweep[(sessions, False)]["group_width"] <= 1.0


@pytest.mark.parametrize("group", [True, False], ids=["group_on", "group_off"])
def test_a6_four_session_unit_latency(benchmark, group):
    with tempfile.TemporaryDirectory() as workdir:
        sm = _open_store(workdir)
        db = LabBase(sm)
        bootstrap_schema(db)
        service = LabFlowService(
            db, group_commit=group, group_cap=4, retry_backoff=0.0
        )
        clients = [LocalClient(service, f"c{i}") for i in range(4)]
        oids, tick = _spread_sessions(sm, clients)
        service.drain()
        state = {"tick": tick, "turn": 0}

        def unit():
            state["tick"] += 1
            state["turn"] = (state["turn"] + 1) % 4
            clients[state["turn"]].record_step(
                "measure", state["tick"], [oids[state["turn"]]],
                {"value": state["tick"]},
            )

        benchmark(unit)
        service.shutdown()
        sm.close()
