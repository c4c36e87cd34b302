"""The repository's benchmark: one workload per invocation.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload stream --seed 1996 --seconds 10 --trace 0

Workloads: ``stream`` (the paper's Section 10 stream on the library
path), ``served`` (socket clients against ``repro serve``) and
``query_mix`` (read-only Q1-Q7 on a database reopened cold).  The run
prints every metric by name and unit, runs the output checks, and ends
with one JSON line: ``correct``, ``attempted``, ``failed`` and the
metrics ``BENCHMARK.json`` lists, the end-to-end ones with ``--trace 0``
and the per-layer ones of a separate traced run with ``--trace 1``.
It exits nonzero when any check fails.

End-to-end timings are calibrated to the reference host's speed,
probed around every measured segment: by a CPU kernel on the library
path (``common.SpeedProbe``) and by socket round trips to an echo
subprocess for ``served`` (``served.EchoProbe``).  The uncalibrated
figures are printed beside them.  Workload sizes, seeds and recorded
answer digests are in ``perfbench/spec.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("stream", "served", "query_mix")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the spec's default seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the measured region")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = add a traced run and report per-layer metrics")
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="workload size; 'tiny' is for the benchmark's tests")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    opts = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}; run it from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from common import Report, SpeedProbe, load_spec
    from library import Workspace, run_query_mix, run_stream
    from served import EchoProbe, run_served

    spec = load_spec()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    if opts.seed is None:
        opts.seed = spec["default_seed"]
    scale = spec["scales"][opts.scale][opts.workload]
    recorded = spec["digests"].get(opts.scale, {}).get(opts.workload, {}).get(
        str(opts.seed))
    work = Workspace(os.path.join(ROOT, ".perfbench_work",
                                  f"{opts.workload}-{os.getpid()}"))
    report = Report()
    probe = (EchoProbe(spec["reference_echo_s"]) if opts.workload == "served"
             else SpeedProbe(spec["reference_kernel_s"]))
    facts: dict = {}
    try:
        if opts.workload == "stream":
            facts = run_stream(opts, scale, recorded, work, report, probe)
        elif opts.workload == "query_mix":
            facts = run_query_mix(opts, scale, recorded, work, report, probe)
        else:
            facts = run_served(opts, scale, work, report, SRC, probe)
    except Exception:  # the run's boundary: report, never hide, the failure
        traceback.print_exc()
        report.check("run completed", False, traceback.format_exc().splitlines()[-1])
    finally:
        probe.close()
        shutil.rmtree(work.root, ignore_errors=True)

    listed = bench["per_layer" if opts.trace else "end_to_end"]
    metrics = {}
    for entry in listed:
        metric = report.metrics.get(entry["name"])
        if metric is None or metric.value is None:
            report.check(f"metric {entry['name']} reported", False,
                         metric.note if metric else "not measured")
            continue
        metrics[entry["name"]] = {"value": metric.value, "unit": metric.unit}

    about = spec["workloads"][opts.workload]
    print(f"== perfbench {opts.workload}: seed {opts.seed}, {opts.seconds:g} s, "
          f"scale {opts.scale}, trace {opts.trace} ==")
    print(f"  {about['loop']}; {about['flush_policy']}; "
          + ", ".join(f"{k} {v}" for k, v in sorted(facts.items())))
    if probe.factors:
        print(f"  timings calibrated to the reference host: {probe.describe()}")
    else:
        print("  timings are wall-clock, not calibrated")
    for line in report.render():
        print(line)
    print(json.dumps({
        "correct": report.correct,
        "attempted": max(1, report.attempted),
        "failed": report.failed + report.failed_checks,
        "metrics": metrics,
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
