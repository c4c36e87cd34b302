"""The benchmark's own tests.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
They run each workload at the tiny scale, so they check the plumbing,
the output checks and the span arithmetic, not performance.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

from conftest import BENCH_DIR, ROOT

import tracing
from served import SERVING_LINE, _ping

WORKLOADS = ("stream", "served", "query_mix")

#: Every end-to-end metric the benchmark defines, printed by name on
#: every workload (as a value or as n/a).
END_TO_END = (
    "setup_s", "ops_per_s", "update_p50_ms", "update_p99_ms", "query_p50_ms",
    "query_p99_ms", "error_ratio", "write_bytes_per_commit", "write_growth",
    "update_ms_growth", "db_mb", "peak_rss_mb",
)


def run_bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    """``perfbench/run.py`` of the checkout at ``cwd``."""
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def printed_metrics(stdout: str) -> dict[str, str]:
    """Metric name -> unit column of the human-readable report."""
    found = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3 and parts[0] not in (
                "check", "operations:"):
            found[parts[0]] = parts[2]
    return found


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload: str, trace: str) -> None:
    done = run_bench("--workload", workload, "--scale", "tiny", "--seconds",
                     "0.3", "--trace", trace, "--seed", "11")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = benchmark_json()["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in listed}
    for entry in listed:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], float)
    printed = printed_metrics(done.stdout)
    for name in END_TO_END:
        assert name in printed, name
    if trace == "1":
        for name in ("unattributed_s", "coverage", "tracing.overhead_ratio",
                     "server.group_width", "buffer.prefetch_useful_ratio"):
            assert name in printed, name


def copy_benchmark(into) -> None:
    """The benchmark's files and BENCHMARK.json, without the program."""
    shutil.copytree(BENCH_DIR, into / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), into)


def test_corrupted_answer_digest_fails(tmp_path) -> None:
    copy_benchmark(tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    spec_path = tmp_path / "perfbench" / "spec.json"
    spec = json.loads(spec_path.read_text())
    spec["digests"].setdefault("tiny", {}).setdefault("stream", {})["11"] = "0" * 64
    spec_path.write_text(json.dumps(spec))
    done = run_bench("--workload", "stream", "--scale", "tiny", "--seconds",
                     "0.2", "--seed", "11", cwd=tmp_path)
    assert done.returncode != 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "digest matches recorded: FAILED" in done.stdout


def test_missing_program_fails_without_a_result(tmp_path) -> None:
    copy_benchmark(tmp_path)
    done = run_bench("--workload", "stream", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _span(name, start, end, parent=-1):
    return (name, start, end, parent, None, "")


def test_self_time_subtracts_the_union_of_children() -> None:
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),   # overlaps a: the union counts once
        _span("c", 6.0, 7.0, 0),
        _span("a.inner", 1.5, 2.5, 1),
        _span("a.inner", 2.6, 2.8, 1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([5.0, 0.8, 3.0, 1.0, 1.0, 0.2])
    totals = tracing.totals(spans)
    assert totals["a.inner"] == (2, pytest.approx(1.2))
    # self times of a tree add back up to the root's duration
    assert sum(selfs) == pytest.approx(10.0 + 1.0)  # b's overlap with a


def test_recorder_links_nested_calls_and_request_ids() -> None:
    recorder = tracing.Recorder()
    sequence = tracing.session_sequencer()
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda session: inner(1),
                          req_of=lambda args: sequence(args[0]))
    outer("s1")
    outer("s1")
    spans = recorder.export()
    assert [s[0] for s in spans] == ["outer", "inner", "outer", "inner"]
    assert spans[1][3] == 0 and spans[3][3] == 2
    assert spans[0][4] == ("s1", 1) and spans[2][4] == ("s1", 2)


def test_traced_launcher_prints_the_serving_line(tmp_path) -> None:
    spans_path = tmp_path / "spans.json"
    proc = subprocess.Popen(
        [sys.executable, "-u", os.path.join(BENCH_DIR, "serve_traced.py"),
         str(spans_path), str(tmp_path / "lab.db")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
    )
    try:
        match = SERVING_LINE.match(proc.stdout.readline())
        assert match is not None
        _ping(match["host"], int(match["port"]))
    finally:
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert "shutting down" in out
    spans = json.loads(spans_path.read_text())
    assert all(len(span) == 6 for span in spans)
