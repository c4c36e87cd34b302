"""repro.obs — metrics, unit-of-work tracing, and recorded baselines.

The observability layer over the reproduction (DESIGN.md section 14):

* :mod:`repro.obs.registry` — every derived gauge, declared once as a
  :class:`~repro.obs.registry.MetricSpec` entry (formula, baseline
  schema, tolerance); schemas and gauge columns are generated from it;
* :mod:`repro.obs.sampler` — interval snapshots of the counter block
  with per-interval deltas and gauges, as deterministic JSONL;
* :mod:`repro.obs.tracing` — span events from the served session layer
  with per-phase duration histograms;
* :mod:`repro.obs.baseline` — ``repro bench record`` / ``compare``
  against the committed ``BENCH_*.json`` files at the repo root;
* :mod:`repro.obs.monitor` — attach to a live server (imported lazily
  by the CLI: it depends on :mod:`repro.server`, which depends on the
  tracing module here, so it stays off this package's import surface).

Everything is clock-injected (:mod:`repro.obs.clock`): with a
:class:`~repro.obs.clock.ManualClock` the sample and trace streams are
byte-identical across runs, which is what lets tests pin them.
"""

from repro.obs.clock import Clock, ManualClock, system_clock
from repro.obs.registry import DERIVED_METRICS, METRIC_NAMES, MetricSpec, gauges_from, metric
from repro.obs.sampler import IntervalSampler, Sample, sample_from_snapshots
from repro.obs.tracing import HISTOGRAM_BOUNDS, PHASES, PhaseHistogram, UnitTracer

__all__ = [
    "Clock",
    "ManualClock",
    "system_clock",
    "DERIVED_METRICS",
    "METRIC_NAMES",
    "MetricSpec",
    "gauges_from",
    "metric",
    "IntervalSampler",
    "Sample",
    "sample_from_snapshots",
    "HISTOGRAM_BOUNDS",
    "PHASES",
    "PhaseHistogram",
    "UnitTracer",
]
