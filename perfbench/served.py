"""The ``served`` workload: socket clients against a ``repro serve``
subprocess with its default settings (checkpoint every commit, group
commit on).

Each client is a thread of this process running the repo's seeded
``ClientRunner`` mix in a closed loop: 45% ``record_step``, 15%
``set_state`` and 40% queries over its own materials, with the
client-side retries ``ServiceClient`` offers.  A pass runs a fixed
number of units per client against a fresh server on a fresh file;
passes repeat until the run's seconds are used, and each figure is
reported as its median over the passes.  Every
acknowledged ``create_material`` and ``record_step`` of a pass is looked
up again in the file after a graceful stop.

Timings are calibrated by ``EchoProbe``, probed between the passes.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

from repro.labbase.database import LabBase
from repro.server import Channel, Request, ServiceClient
from repro.server.client_runner import (
    DEFAULT_CLIENT_BACKOFF,
    DEFAULT_CLIENT_RETRIES,
    ClientRunner,
)
from repro.storage.objectstore import ObjectStoreSM
from repro.storage.page import PAGE_SIZE

import tracing
from common import (
    HERE,
    Report,
    Figures,
    SpeedProbe,
    emit_pass_medians,
    end_to_end_common,
    page_bytes,
    store_bytes,
)
from echo_server import HEADER
from layers import emit

#: The line ``repro serve`` prints once it listens.
SERVING_LINE = re.compile(r"^serving \S+ \[[^\]]+\] on (?P<host>[^\s:]+):(?P<port>\d+) ")

#: Server set-ups measured per run at least; the median is reported.
SETUP_SAMPLES = 3

#: Materials each client creates and then works on.
MATERIALS_PER_CLIENT = 4

#: Units of the mix that write.
UPDATE_OPS = frozenset({"create_material", "record_step", "set_state"})

LAUNCHER = os.path.join(HERE, "serve_traced.py")
ECHO_SERVER = os.path.join(HERE, "echo_server.py")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


class Server:
    """One ``repro serve`` subprocess on a database file."""

    def __init__(self, src: str, db_path: str, spans_path: str | None = None) -> None:
        self.db_path = db_path
        if spans_path is None:
            command = [sys.executable, "-u", "-m", "repro", "serve", db_path]
        else:
            command = [sys.executable, "-u", LAUNCHER, spans_path, db_path]
        env = dict(os.environ, PYTHONPATH=src)
        self._stderr = open(db_path + ".stderr", "w+")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr,
            env=env, text=True,
        )
        try:
            self.host, self.port = self._await_line()
            _ping(self.host, self.port)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def _await_line(self) -> tuple[str, int]:
        ready, _w, _x = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        match = SERVING_LINE.match(line)
        if match is None:
            raise RuntimeError(f"server did not start: {line!r} {self.errors()}")
        return match["host"], int(match["port"])

    def errors(self) -> str:
        self._stderr.flush()
        self._stderr.seek(0)
        return self._stderr.read()[-2000:]

    def stop(self) -> tuple[int, str]:
        """Graceful SIGINT stop; returns (exit code, remaining stdout).

        The exit is reaped with ``wait4`` so the server's peak resident
        set (``peak_rss``) comes from the kernel's own accounting.
        """
        self.proc.send_signal(signal.SIGINT)
        killer = threading.Timer(STOP_TIMEOUT_S, self.proc.kill)
        killer.start()
        try:
            out = self.proc.stdout.read()
            _pid, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            killer.cancel()
            self._stderr.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.peak_rss = usage.ru_maxrss * 1024
        return self.proc.returncode, out

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()
        self._stderr.close()


def _ping(host: str, port: int) -> None:
    channel = Channel(socket.create_connection((host, port)))
    try:
        response = channel.roundtrip(Request(op="ping"))
        if not response.ok:
            raise RuntimeError(f"ping failed: {response.error}")
    finally:
        channel.close()


class EchoProbe(SpeedProbe):
    """How fast the host runs a served-shaped load right now.

    The served workload's speed follows two processes and their thread
    hand-offs sharing the host's cores, which the CPU kernel of
    ``SpeedProbe`` does not track.  This probe times round trips of two
    client threads against ``echo_server.py``, a subprocess of the
    benchmark's own: the same shape, without the program.
    """

    REPEATS = 5
    CLIENTS = 2
    ROUND_TRIPS = 1500

    def __init__(self, reference_s: float) -> None:
        super().__init__(reference_s)
        self._proc: subprocess.Popen | None = None
        self._port = 0

    def _start(self) -> None:
        self._proc = subprocess.Popen([sys.executable, "-u", ECHO_SERVER],
                                      stdout=subprocess.PIPE, text=True)
        ready, _w, _x = select.select([self._proc.stdout], [], [], START_TIMEOUT_S)
        line = self._proc.stdout.readline() if ready else ""
        if not line.strip().isdigit():
            raise RuntimeError(f"echo server did not start: {line!r}")
        self._port = int(line)

    def kernel(self) -> None:
        if self._proc is None:
            self._start()
        socks = [socket.create_connection(("127.0.0.1", self._port))
                 for _ in range(self.CLIENTS)]
        try:
            threads = [threading.Thread(target=_round_trips,
                                        args=(sock, self.ROUND_TRIPS))
                       for sock in socks]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            for sock in socks:
                sock.close()

    def close(self) -> None:
        if self._proc is not None:
            self._proc.kill()
            self._proc.wait()
            self._proc.stdout.close()


def _round_trips(sock: socket.socket, count: int) -> None:
    with sock.makefile("rb") as stream:
        for i in range(count):
            body = pickle.dumps({"k": i, "v": list(range(i % 40))})
            sock.sendall(HEADER.pack(len(body)) + body)
            stream.read(HEADER.unpack(stream.read(HEADER.size))[0])


class Progress:
    """Counts the pass's finished units over every client and marks the
    moments the first quarter of them has finished and the last quarter
    begins, so the counters are polled only there."""

    def __init__(self, total: int, clients: int) -> None:
        self._lock = threading.Lock()
        self._done = 0
        self._running = clients
        self._marks = (total // 4, total - total // 4)
        self.crossed = (threading.Event(), threading.Event())
        self.moments = [0.0, 0.0]

    def unit_done(self) -> None:
        with self._lock:
            self._done += 1
            for i, mark in enumerate(self._marks):
                if self._done == mark:
                    self._cross(i)

    def client_done(self) -> None:
        """A client ended; once all have, no mark is left waiting."""
        with self._lock:
            self._running -= 1
            if not self._running:
                for i, event in enumerate(self.crossed):
                    if not event.is_set():
                        self._cross(i)

    def _cross(self, i: int) -> None:
        self.moments[i] = time.perf_counter()
        self.crossed[i].set()


class RecordingClient(ServiceClient):
    """A ``ServiceClient`` that times every unit of work, retries
    included, and keeps what the server acknowledged.

    ``ClientRunner`` sends a unit through ``call_with_retry`` or, for
    creates, lookups and ``in_state``, through a bare ``call``; the
    outermost of the two is the unit.
    """

    def __init__(self, host: str, port: int, session: str,
                 progress: Progress) -> None:
        #: (kind "U"/"Q", start, end) per acknowledged unit
        self.rows: list[tuple[str, float, float]] = []
        self.created: dict[str, int] = {}
        self.acked_steps: dict[int, int] = defaultdict(int)
        self.failures: list[str] = []
        self.window = (0.0, 0.0)
        self._progress = progress
        self._in_unit = False
        self._last_error: BaseException | None = None
        super().__init__(host, port, session)

    def call_with_retry(self, op: str, retries: int = DEFAULT_CLIENT_RETRIES,
                        backoff: float = DEFAULT_CLIENT_BACKOFF,
                        **args: object) -> object:
        return self._unit(op, args, lambda: super(RecordingClient, self)
                          .call_with_retry(op, retries, backoff, **args))

    def call(self, op: str, **args: object) -> object:
        if self._in_unit or op not in tracing.UNIT_OPS:
            return super().call(op, **args)
        return self._unit(op, args,
                          lambda: super(RecordingClient, self).call(op, **args))

    def _unit(self, op: str, args: dict, send) -> object:
        self._in_unit = True
        start = time.perf_counter()
        try:
            value = send()
        except Exception as exc:
            self.failures.append(f"{op}: {type(exc).__name__}: {exc}")
            self._last_error = exc
            raise
        finally:
            self._in_unit = False
            self._progress.unit_done()
        self.rows.append(("U" if op in UPDATE_OPS else "Q", start,
                          time.perf_counter()))
        if op == "create_material":
            self.created[args["key"]] = value
        elif op == "record_step":
            for oid in args["involves"]:
                self.acked_steps[oid] += 1
        return value

    def run_mix(self, start: threading.Event, seed: int, units: int) -> None:
        """The repo's seeded client mix, closed loop, once ``start`` is set."""
        start.wait()
        t0 = time.perf_counter()
        try:
            ClientRunner(self, seed=seed, materials=MATERIALS_PER_CLIENT).run(units)
        except Exception as exc:  # a failed unit or a dead connection ends it
            if exc is not self._last_error:
                self.failures.append(f"client stopped: {type(exc).__name__}: {exc}")
        finally:
            self.window = (t0, time.perf_counter())
            self._progress.client_done()


class Monitor:
    """Reads the server's storage counters with the ``stats`` request."""

    def __init__(self, host: str, port: int) -> None:
        self.client = ServiceClient(host, port, "monitor")
        self.polls: list[dict[str, int]] = []

    def poll(self) -> None:
        self.polls.append(self.client.stats())

    def close(self) -> None:
        self.client.close()


def _delta(later: dict[str, int], earlier: dict[str, int]) -> dict[str, int]:
    return {name: later[name] - earlier.get(name, 0) for name in later}


def _drive(server: Server, seed: int, clients: int, units: int, label: str
           ) -> tuple[list[RecordingClient], Monitor, Progress, tuple[float, float]]:
    """Run every client's units.  The counters are read four times: at
    the start, when the first quarter of the units has finished, when
    the last quarter begins, and at the end."""
    progress = Progress(clients * (MATERIALS_PER_CLIENT + units), clients)
    loops = [
        RecordingClient(server.host, server.port, f"{label}-c{i}", progress)
        for i in range(clients)
    ]
    monitor = Monitor(server.host, server.port)
    start = threading.Event()
    threads = [threading.Thread(target=c.run_mix, args=(start, seed * 1000 + i, units),
                                name=f"perfbench-{c.session}")
               for i, c in enumerate(loops)]
    for thread in threads:
        thread.start()
    monitor.poll()
    t0 = time.perf_counter()
    start.set()
    for crossed in progress.crossed:
        crossed.wait()
        monitor.poll()
    for thread in threads:
        thread.join()
    t1 = max(loop.window[1] for loop in loops)
    monitor.poll()
    monitor.close()
    for loop in loops:
        loop.close()
    return loops, monitor, progress, (t0, t1)


def _figures(loops: list[RecordingClient], monitor: Monitor, progress: Progress,
             window: tuple[float, float], factor: float) -> Figures:
    """The pass's figures, calibrated by the echo probes' ``factor``."""
    first_cut, last_cut = progress.moments
    figures = Figures()
    figures.wall_raw = window[1] - window[0]
    figures.wall = figures.wall_raw / factor
    for loop in loops:
        for kind, start, end in loop.rows:
            ms = (end - start) * 1e3 / factor
            if kind == "Q":
                figures.query_ms.append(ms)
                continue
            figures.update_ms.append(ms)
            if end <= first_cut:
                figures.first_ms.append(ms)
            elif end > last_cut:
                figures.last_ms.append(ms)

    def written(later: dict[str, int], earlier: dict[str, int]) -> tuple[int, int]:
        delta = _delta(later, earlier)
        return page_bytes(delta), delta["commits"]

    begin, first, last, end = monitor.polls
    figures.bytes_first = written(first, begin)
    figures.bytes_last = written(end, last)
    figures.bytes_all = written(end, begin)
    return figures


def _check_durable(report: Report, src: str, server: Server,
                   loops: list[RecordingClient]) -> None:
    """Graceful stop, cold ``repro verify``, then every acknowledged
    create and step must be in the file."""
    code, out = server.stop()
    report.check("graceful SIGINT stop", code == 0 and "shutting down" in out,
                 f"exit {code}")
    verify = subprocess.run(
        [sys.executable, "-m", "repro", "verify", server.db_path],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=STOP_TIMEOUT_S,
    )
    report.check("cold repro verify", verify.returncode == 0,
                 verify.stdout.strip().splitlines()[-1] if verify.stdout else
                 verify.stderr[-200:])
    sm = ObjectStoreSM(path=server.db_path)
    try:
        db = LabBase(sm)
        missing = wrong = 0
        for loop in loops:
            for key, oid in loop.created.items():
                if not db.material_exists("clone", key) or db.lookup("clone", key) != oid:
                    missing += 1
                elif db.history_length(oid) != loop.acked_steps.get(oid, 0):
                    wrong += 1
        acked = sum(len(d.created) for d in loops)
        steps = sum(sum(d.acked_steps.values()) for d in loops)
        report.check(
            "acked writes durable", missing == 0 and wrong == 0,
            f"{acked} creates ({missing} missing), {steps} step links "
            f"({wrong} materials with a wrong history length)",
        )
    finally:
        sm.close()


def run_served(opts, scale: dict, work, report: Report, src: str,
               probe: EchoProbe) -> dict:
    """Passes of a fixed number of units per client, each against a
    fresh server on a fresh file, until the run's seconds are used.
    The host is probed before the first pass and after each one; a
    pass is calibrated by the mean of the probes on either side."""
    clients, units = scale["clients"], scale["units_per_client"]
    setups: list[float] = []
    per_pass: list[dict] = []
    raw_rates: list[float] = []
    peaks: list[int] = []
    started: list[Server] = []

    def start(stem: str) -> Server:
        server = Server(src, work.new_path(stem))
        started.append(server)
        setups.append(server.setup_s)
        return server

    try:
        timed = 0.0
        speed = probe.measure()
        while timed < opts.seconds or not per_pass:
            server = start("served")
            loops, monitor, progress, window = _run_pass(
                server, opts.seed, clients, units, "s")
            _check_durable(report, src, server, loops)
            after = probe.measure()
            figures = _figures(loops, monitor, progress, window, (speed + after) / 2)
            speed = after
            db_bytes = store_bytes(server.db_path)
            pages = os.path.getsize(server.db_path) // PAGE_SIZE
            peaks.append(server.peak_rss)
            _count_units(report, loops)
            per_pass.append(figures.metrics(writes=True))
            raw_rates.append(figures.raw_ops_per_s)
            timed += figures.wall_raw
        while len(setups) < SETUP_SAMPLES:
            report.check("set-up server stops cleanly", start("setup").stop()[0] == 0)

        emit_pass_medians(report, per_pass)
        end_to_end_common(report, setup_raw=setups, setup_cal=setups,
                          db_bytes=db_bytes,
                          peak_rss_bytes=int(statistics.median(peaks)))
        if opts.trace:
            _traced_pass(opts, src, work, report, clients, units,
                         statistics.median(raw_rates), started)
    finally:
        for server in started:
            if server.proc.returncode is None and server.proc.poll() is None:
                server.kill()
    return {"clients": clients, "units_per_client": units, "passes": len(per_pass),
            "pages": pages}


def _run_pass(server: Server, seed: int, clients: int, units: int, label: str):
    try:
        return _drive(server, seed, clients, units, label)
    except BaseException:
        server.kill()
        raise


def _count_units(report: Report, loops: list[RecordingClient]) -> None:
    failures = [f for d in loops for f in d.failures]
    report.attempted += sum(len(d.rows) for d in loops) + len(failures)
    report.failed += len(failures)
    if failures:
        report.check("no failed units", False, failures[0])


def _traced_pass(opts, src: str, work, report: Report, clients: int, units: int,
                 untraced_ops_per_s: float, started: list[Server]) -> None:
    """The same load against the traced launcher, client calls spanned."""
    path = work.new_path("served-traced")
    spans_path = path + ".spans.json"
    recorder = tracing.Recorder()
    undo = _install_client_tracing(recorder)
    try:
        server = Server(src, path, spans_path)
        started.append(server)
        loops, monitor, _progress, window = _run_pass(
            server, opts.seed, clients, units, "t")
    finally:
        undo()
    _check_durable(report, src, server, loops)
    with open(spans_path, encoding="utf-8") as handle:
        server_spans = [tuple(s[:4]) + (tuple(s[4]) if s[4] else None, s[5])
                        for s in json.load(handle)]
    done = sum(len(d.rows) + len(d.failures) for d in loops)
    served_layers(
        report, client_spans=recorder.export(), server_spans=server_spans,
        window=window, client_windows=[d.window for d in loops],
        counters=_delta(monitor.polls[-1], monitor.polls[0]),
        traced_ops_per_s=done / (window[1] - window[0]),
        untraced_ops_per_s=untraced_ops_per_s,
    )


def _install_client_tracing(recorder: tracing.Recorder):
    """Span each unit-of-work call of ``ServiceClient`` with its request
    id, and the client half of the wire codec."""
    original = ServiceClient.call
    sequence = tracing.session_sequencer()
    traced = recorder.wrap("client.call", original,
                           req_of=lambda args: sequence(args[0].session))

    def call(self, op: str, **args: object) -> object:
        if op in tracing.UNIT_OPS:
            return traced(self, op, **args)
        return original(self, op, **args)

    ServiceClient.call = call
    undo_codec = tracing.install(
        recorder, [t for t in tracing.PROGRAM_TARGETS if t[3].startswith("communicator.")]
    )
    undo_own = tracing.install(
        recorder, [("repro.server.client_runner", "ClientRunner", "run",
                    "benchmark.mix")]
    )

    def undo() -> None:
        undo_own()
        undo_codec()
        ServiceClient.call = original

    return undo


def served_layers(
    report: Report, *, client_spans: list, server_spans: list,
    window: tuple[float, float], client_windows: list[tuple[float, float]],
    counters: dict[str, int], traced_ops_per_s: float, untraced_ops_per_s: float,
) -> None:
    """Join client and server spans on the request id and emit the
    per-layer metrics of the served run."""
    keep_c = tracing.in_window(client_spans, *window)
    for i, span in enumerate(client_spans):
        # Codec spans outside a unit call belong to the stats monitor.
        if span[0].startswith("communicator.") and span[3] < 0:
            keep_c[i] = False
    keep_s = tracing.in_window(server_spans, *window)
    client_self = tracing.self_times(client_spans)
    server_self = tracing.self_times(server_spans)
    submit = {s[4]: s[2] - s[1] for i, s in enumerate(server_spans)
              if keep_s[i] and s[0] == "server.submit"}
    call_self = joined = 0
    wire = 0.0
    for i, span in enumerate(client_spans):
        if keep_c[i] and span[0] == "client.call":
            call_self += 1
            if span[4] in submit:
                joined += 1
                wire += client_self[i] - submit[span[4]]
            else:
                wire += client_self[i]
    wire -= sum(server_self[i] for i, s in enumerate(server_spans)
                if keep_s[i] and s[0].startswith("communicator."))
    totals = tracing.totals(client_spans, keep_c)
    for name, (calls, seconds) in tracing.totals(server_spans, keep_s).items():
        c_calls, c_seconds = totals.get(name, (0, 0.0))
        totals[name] = (calls + c_calls, seconds + c_seconds)
    report.check("every client call joined to its server span",
                 joined == call_self, f"{joined} of {call_self} joined")
    retries_failed = sum(1 for i, s in enumerate(server_spans)
                         if keep_s[i] and s[0] == "server.submit" and s[5] == "LockError")
    emit(report, totals=totals, counters=counters,
         region_s=sum(b - a for a, b in client_windows), pregen_s=0.0,
         traced_ops_per_s=traced_ops_per_s, untraced_ops_per_s=untraced_ops_per_s,
         wire_s=wire, units=len(submit), retries_failed=retries_failed)
