"""The two library-path workloads: ``stream`` and ``query_mix``.

Both run in this process against the persistent ``OStore`` backend on a
file, with one caller in a closed loop.

* ``stream`` repeats whole passes of the Section 10 stream, each on a
  fresh store, until the run's seconds are used.  Every pass replays
  the identical seeded stream, so its answer digest must repeat exactly.
* ``query_mix`` builds its database once with the stream (set-up), then
  repeats passes of a fixed seeded Q1-Q7 sequence, each on the store
  reopened cold from disk with a buffer pool under half the database's
  pages and fewer object-cache slots than objects.

Each figure is taken per pass, calibrated by the host speed probed
around it (``common.SpeedProbe``), and reported as its median over the
run's passes.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from array import array
from dataclasses import dataclass

from repro.labbase.database import LabBase
from repro.storage.objectstore import ObjectStoreSM
from repro.storage.page import PAGE_SIZE
from repro.storage.registry import backend
from repro.util.rng import DeterministicRng

import tracing
from common import (
    InstrumentPools,
    Figures,
    Report,
    SegmentClock,
    SpeedProbe,
    emit_pass_medians,
    end_to_end_common,
    peak_rss_self,
    quarters,
    remove_store,
    store_bytes,
)
from lab import AnswerLog, LabStream, QueryMix
from layers import library_layers

#: Set-ups measured per run at least; the median is reported.
SETUP_SAMPLES = 9

#: Intake blocks per calibrated segment of a stream pass: the host's
#: speed changes within a second, so it is probed every ~0.1 s.
BLOCKS_PER_SEGMENT = 10

#: The benchmark's own work inside the timed region, spanned as the
#: ``benchmark`` layer in traced runs.
OWN_TARGETS = (
    ("lab", "LabStream", "_register", "benchmark.register"),
    ("lab", "LabStream", "_choose", "benchmark.choose"),
    ("lab", "QueryMix", "draw", "benchmark.draw"),
    ("lab", "AnswerLog", "add", "benchmark.record"),
)


class Workspace:
    """Database files of one run, inside the benchmark's work directory."""

    def __init__(self, root: str) -> None:
        self.root = root
        self._count = 0
        os.makedirs(root, exist_ok=True)

    def new_path(self, stem: str) -> str:
        self._count += 1
        path = os.path.join(self.root, f"{stem}-{self._count}.db")
        remove_store(path)
        return path


@dataclass
class Pass:
    """One timed pass: wall time, window, answers digest, counter delta."""

    wall: float
    window: tuple[float, float]
    digest: str
    counters: dict[str, int]
    spans: list | None
    ops: int


class Traced:
    """Layer wrappers installed for the duration of a ``with`` block."""

    def __init__(self, enabled: bool) -> None:
        self.recorder = tracing.Recorder() if enabled else None
        self._undo: list = []

    def __enter__(self) -> "Traced":
        if self.recorder is not None:
            self._undo = [tracing.install(self.recorder),
                          tracing.install(self.recorder, OWN_TARGETS)]
        return self

    def __exit__(self, *exc) -> None:
        for undo in reversed(self._undo):
            undo()

    def spans(self) -> list | None:
        return None if self.recorder is None else self.recorder.export()


def _pregen(seed: int, scale: dict) -> tuple[InstrumentPools, float]:
    t0 = time.perf_counter()
    pools = InstrumentPools.generate(seed, scale["dna_reads"], scale["hit_lists"])
    return pools, time.perf_counter() - t0


def _open_stream(path: str, seed: int, scale: dict,
                 pools: InstrumentPools) -> tuple[LabStream, float]:
    """Create a store and install the schema: the stream's set-up."""
    t0 = time.perf_counter()
    sm = ObjectStoreSM(path=path, buffer_pages=scale["buffer_pages"])
    stream = LabStream(LabBase(sm), seed, scale, pools)
    stream.install_schema()
    return stream, time.perf_counter() - t0


def _check_digest(report: Report, label: str, digest: str,
                  recorded: str | None, reference) -> None:
    """Against the digest recorded for this seed, or else against the
    same answers computed another way."""
    if recorded is not None:
        report.check(f"{label} digest matches recorded", digest == recorded,
                     f"{digest[:16]} vs recorded {recorded[:16]}")
        return
    expected = reference()
    report.check(f"{label} digest matches reference", digest == expected,
                 f"{digest[:16]} vs {expected[:16]}")


# -- stream ----------------------------------------------------------------------


def run_stream(opts, scale: dict, recorded: str | None, work: Workspace,
               report: Report, probe: SpeedProbe) -> dict:
    seed = opts.seed
    pools, pregen_s = _pregen(seed, scale)
    setup_raw: list[float] = []
    setup_cal: list[float] = []
    speed = probe.measure()
    while len(setup_raw) < SETUP_SAMPLES - 1:
        stream, seconds = _open_stream(work.new_path("setup"), seed, scale, pools)
        setup_raw.append(seconds)
        setup_cal.append(seconds / speed)
        stream.db.storage.close()

    per_pass: list[dict] = []
    raw_rates: list[float] = []
    facts: dict = {}

    def one_pass(traced: bool) -> Pass:
        path = work.new_path("stream")
        gc.collect()  # the last pass's object graph, so peak RSS is per pass
        speed = probe.measure()
        clock = SegmentClock(probe)
        with Traced(traced) as trace:
            stream, seconds = _open_stream(path, seed, scale, pools)
            before = stream.db.storage.stats.snapshot()
            clock.mark(0)
            t0 = time.perf_counter()
            stream.run(None if traced else _every_segment(clock))
            t1 = time.perf_counter()
            clock.mark(len(stream.ops))
        sm = stream.db.storage
        counters = sm.stats.delta(before)
        stream.check(report)
        facts.update(pages=sm.size_bytes() // PAGE_SIZE,
                     objects=sum(1 for _ in sm.oids()),
                     instrument_values_reused=stream.values.reused)
        sm.close()
        facts["db_bytes"] = store_bytes(path)
        if not traced:
            setup_raw.append(seconds)
            setup_cal.append(seconds / speed)
            figures = _stream_figures(stream, clock)
            raw_rates.append(figures.raw_ops_per_s)
            per_pass.append(figures.metrics(writes=True))
        return Pass(t1 - t0, (t0, t1), stream.answers.digest(), counters,
                    trace.spans(), len(stream.ops))

    passes: list[Pass] = []
    while sum(p.wall for p in passes) < opts.seconds or not passes:
        passes.append(one_pass(False))
    traced = one_pass(True) if opts.trace else None
    peak = peak_rss_self()

    digests = {p.digest for p in passes + ([traced] if traced else [])}
    report.check("digest repeats in every pass", len(digests) == 1,
                 f"{len(digests)} distinct")
    _check_digest(report, "stream", passes[0].digest, recorded,
                  lambda: _stream_reference(seed, scale, pools))
    report.attempted = sum(p.ops for p in passes)
    emit_pass_medians(report, per_pass)
    end_to_end_common(report, setup_raw=setup_raw, setup_cal=setup_cal,
                      db_bytes=facts.pop("db_bytes"), peak_rss_bytes=peak)
    if traced is not None:
        library_layers(report, traced.spans, traced.window, traced.counters,
                       ops=traced.ops,
                       untraced_ops_per_s=statistics.median(raw_rates),
                       pregen_s=pregen_s)
    return {"passes": len(passes), "digest": passes[0].digest, **facts}


def _every_segment(clock: SegmentClock):
    """A ``LabStream.run`` hook that probes every ``BLOCKS_PER_SEGMENT``
    intake blocks."""
    blocks = [0]

    def between_blocks(ops_so_far: int) -> None:
        blocks[0] += 1
        if blocks[0] % BLOCKS_PER_SEGMENT == 0:
            clock.mark(ops_so_far)

    return between_blocks


def _stream_figures(stream: LabStream, clock: SegmentClock) -> Figures:
    """Per-op latencies and the pass time, each calibrated by the speed
    probed around its segment."""
    rows = stream.ops
    figures = Figures()
    head, tail = quarters(rows)
    first_end, last_start = len(head), len(rows) - len(tail)
    for lo, hi, wall, factor in clock.segments():
        figures.wall += wall / factor
        figures.wall_raw += wall
        for i in range(lo, hi):
            kind, seconds = rows[i][0], rows[i][1]
            ms = seconds * 1e3 / factor
            if kind == "Q":
                figures.query_ms.append(ms)
                continue
            figures.update_ms.append(ms)
            if i < first_end:
                figures.first_ms.append(ms)
            elif i >= last_start:
                figures.last_ms.append(ms)
    start = ("", 0.0, *stream.counters_at_start)

    def written(lo: tuple, hi: tuple) -> tuple[int, int]:
        return (hi[2] - lo[2]) * PAGE_SIZE + (hi[3] - lo[3]), hi[4] - lo[4]

    figures.bytes_first = written(start, head[-1])
    figures.bytes_last = written(rows[last_start - 1], rows[-1])
    figures.bytes_all = written(start, rows[-1])
    return figures


def _stream_reference(seed: int, scale: dict, pools: InstrumentPools) -> str:
    """The stream's answers on the in-memory ObjectStore-flavoured backend."""
    stream = LabStream(LabBase(backend("OStore-mm").cls()), seed, scale, pools)
    stream.install_schema()
    stream.run()
    return stream.answers.digest()


# -- query_mix -------------------------------------------------------------------


def run_query_mix(opts, scale: dict, recorded: str | None, work: Workspace,
                  report: Report, probe: SpeedProbe) -> dict:
    seed = opts.seed
    pools, pregen_s = _pregen(seed, scale)
    path = work.new_path("query_mix")
    clock = SegmentClock(probe)
    clock.mark(0)
    built, open_s = _open_stream(path, seed, scale, pools)
    built.run(_every_segment(clock))
    clock.mark(len(built.ops))
    sm = built.db.storage
    facts = {"pages": sm.size_bytes() // PAGE_SIZE,
             "objects": sum(1 for _ in sm.oids())}
    t_close = time.perf_counter()
    sm.close()
    close_s = time.perf_counter() - t_close
    # The build's set-up share: creating, filling and closing the store,
    # calibrated segment by segment like a stream pass.
    run_raw = sum(wall for _lo, _hi, wall, _f in clock.segments())
    run_cal = sum(wall / f for _lo, _hi, wall, f in clock.segments())
    build_s = open_s + run_raw + close_s
    build_cal = run_cal + (open_s + close_s) * run_cal / run_raw
    registry, key_of = built.registry, built.key_of
    step_classes = built.queries.step_classes
    del built, sm  # the build's caches are not part of the measured process
    n_queries = scale["queries_per_pass"]

    def mix(db: LabBase) -> QueryMix:
        return QueryMix(db, registry, key_of,
                        DeterministicRng(seed).substream("query_mix"), step_classes)

    setup_raw: list[float] = []
    setup_cal: list[float] = []
    per_pass: list[dict] = []
    raw_rates: list[float] = []

    def one_pass(traced: bool) -> tuple[Pass, LabBase]:
        gc.collect()  # the last pass's object graph, so peak RSS is per pass
        speed = probe.measure()
        with Traced(traced) as trace:
            t_open = time.perf_counter()
            sm = ObjectStoreSM(path=path, buffer_pages=scale["cold_buffer_pages"])
            db = LabBase(sm, object_cache=scale["cold_cache_objects"])
            opened = time.perf_counter() - t_open
            queries = mix(db)
            log = AnswerLog(queries)
            figures = Figures()
            latencies = figures.query_ms
            before = sm.stats.snapshot()
            t_start = time.perf_counter()
            for _ in range(n_queries):
                query = queries.draw()
                answer, seconds = queries.call(query)
                latencies.append(seconds * 1e3)
                log.add(query, answer)
            t_end = time.perf_counter()
        speed = (speed + probe.measure()) / 2
        figures.wall_raw = t_end - t_start
        figures.wall = figures.wall_raw / speed
        figures.query_ms = array("d", (ms / speed for ms in latencies))
        counters = sm.stats.delta(before)
        report.check("read-only",
                     counters["commits"] == 0 and counters["page_writes"] == 0,
                     f"{counters['commits']} commits, "
                     f"{counters['page_writes']} page writes")
        report.check("Q1 answers", log.lookups_ok())
        if not traced:
            setup_raw.append(build_s + opened)
            setup_cal.append(build_cal + opened / speed)
            raw_rates.append(figures.raw_ops_per_s)
            per_pass.append(figures.metrics(writes=False))
        done = Pass(figures.wall_raw, (t_start, t_end), log.digest(), counters,
                    trace.spans(), n_queries)
        return done, db

    passes: list[Pass] = []
    while sum(p.wall for p in passes) < opts.seconds or not passes:
        done, db = one_pass(False)
        passes.append(done)
        db.storage.close()
    # A last reopen for the integrity checks, outside the timed passes.
    db = LabBase(ObjectStoreSM(path=path))
    verdict = db.verify_storage()
    report.check("verify_storage", verdict.ok, "; ".join(verdict.problems[:3]))
    materials = sum(1 for _ in db.iter_materials())
    counted = sum(db.catalog.material_counts.values())
    report.check("material count matches scan",
                 materials == counted == len(key_of),
                 f"scan {materials} / catalog {counted} / built {len(key_of)}")
    db.storage.close()
    del db

    traced = None
    if opts.trace:
        traced, traced_db = one_pass(True)
        traced_db.storage.close()
    peak = peak_rss_self()

    digests = {p.digest for p in passes + ([traced] if traced else [])}
    report.check("digest repeats in every pass", len(digests) == 1,
                 f"{len(digests)} distinct")
    _check_digest(report, "query_mix", passes[0].digest, recorded,
                  lambda: _warm_reference(path, mix, n_queries))
    report.attempted = sum(p.ops for p in passes)
    emit_pass_medians(report, per_pass)
    end_to_end_common(report, setup_raw=setup_raw, setup_cal=setup_cal,
                      db_bytes=store_bytes(path), peak_rss_bytes=peak)
    if traced is not None:
        library_layers(report, traced.spans, traced.window, traced.counters,
                       ops=n_queries,
                       untraced_ops_per_s=statistics.median(raw_rates),
                       pregen_s=pregen_s)
    return {"passes": len(passes), "digest": passes[0].digest, **facts}


def _warm_reference(path: str, mix, n_queries: int) -> str:
    """The same query sequence with every page and object cached: the
    cold read path must give the same answers."""
    sm = ObjectStoreSM(path=path, buffer_pages=1 << 16)
    db = LabBase(sm, object_cache=1 << 20)
    queries = mix(db)
    log = AnswerLog(queries)
    for _ in range(n_queries):
        query = queries.draw()
        log.add(query, queries.call(query)[0])
    sm.close()
    return log.digest()
