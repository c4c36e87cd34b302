"""The library-path loops: the Section 10 stream and the Q1-Q7 mix.

``LabStream`` runs the paper's stream (intake U2, pumped steps U1+U3,
interleaved queries) through ``WorkflowEngine`` and ``LabBase``, one
caller, closed loop.  ``QueryMix`` issues Q1-Q7 at the program's
``QUERY_MIX`` weights and keeps each raw answer so that, after the
timed region, the answers fold into a digest over backend-independent
values only: keys, attribute values and counts, never oids.

Choices the stream makes never depend on oid values or on the order a
state set happens to list its members: the next material to advance is
the pending one with the smallest key, and query targets are drawn by
position in creation order.  A change to set layout or oid allocation
therefore replays the identical logical stream.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import time

from repro.benchmark.operations import (
    CLASS_ATTRIBUTES,
    QUERY_MIX,
    QUERYABLE_STATES,
    REPORT_ATTRIBUTES,
    REPORT_SAMPLE,
    MaterialRegistry,
)
from repro.errors import UnknownAttributeError
from repro.labbase.database import LabBase
from repro.labbase.temporal import LabClock
from repro.util.rng import DeterministicRng
from repro.workflow.engine import WorkflowEngine
from repro.workflow.genome import build_genome_workflow

from common import InstrumentPools, PooledValues

_OPS, _WEIGHTS = zip(*QUERY_MIX)

#: Marker for "the material has no value for that attribute yet".
NO_VALUE = "<no value>"


class KeyedEngine(WorkflowEngine):
    """The workflow engine, noting each material key it hands out so the
    benchmark knows keys without reading them back from the database."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.issued: list[str] = []

    def next_key(self, class_name: str) -> str:
        key = super().next_key(class_name)
        self.issued.append(key)
        return key


class QueryMix:
    """Q1-Q7 drawn at ``QUERY_MIX`` weights against registered materials.

    ``draw`` picks the query and its target (the benchmark's work), ``call`` runs
    it (program work) and returns the raw answer and the seconds spent
    inside the program.
    """

    def __init__(
        self, db: LabBase, registry: MaterialRegistry, key_of: dict[int, str],
        rng: DeterministicRng, step_classes: list[str],
    ) -> None:
        self.db = db
        self.registry = registry
        self.key_of = key_of
        self.rng = rng
        self.step_classes = step_classes

    def draw(self) -> tuple:
        rng = self.rng
        op = rng.weighted_choice(_OPS, _WEIGHTS)
        if op in ("Q1", "Q2", "Q7"):
            target = self.registry.random(rng)
            if op == "Q2":
                return op, target, rng.choice(CLASS_ATTRIBUTES[target[0]])
            return op, target
        if op == "Q4":
            return op, self.registry.random(rng, "clone")
        if op in ("Q3", "Q6"):
            return op, rng.choice(QUERYABLE_STATES)
        if rng.chance(0.5):
            return op, "material", rng.choice(tuple(CLASS_ATTRIBUTES))
        return op, "step", rng.choice(self.step_classes)

    def call(self, query: tuple) -> tuple[object, float]:
        db = self.db
        perf = time.perf_counter
        op = query[0]
        t0 = perf()
        if op == "Q1":
            class_name, key, _oid = query[1]
            answer: object = db.lookup(class_name, key)
        elif op == "Q2":
            try:
                answer = db.most_recent(query[1][2], query[2])
            except UnknownAttributeError:
                answer = NO_VALUE
        elif op == "Q3":
            answer = db.in_state(query[1])
        elif op == "Q4":
            try:
                answer = db.most_recent(query[1][2], "hits")
            except UnknownAttributeError:
                answer = NO_VALUE
        elif op == "Q5":
            if query[1] == "material":
                answer = db.count_materials(query[2])
            else:
                answer = db.count_steps(query[2])
        elif op == "Q6":
            members = db.in_state(query[1])
            t_mid = perf()
            cohort = heapq.nsmallest(REPORT_SAMPLE, members, key=self.key_of.__getitem__)
            t_resume = perf()
            answer = db.report(cohort, REPORT_ATTRIBUTES)
            return answer, (t_mid - t0) + (perf() - t_resume)
        else:  # Q7
            answer = db.material_history(query[1][2])
        return answer, perf() - t0

    def canonical(self, query: tuple, answer: object) -> object:
        """The answer in backend-independent terms (no oids)."""
        op = query[0]
        key_of = self.key_of
        if op == "Q1":
            class_name, key, oid = query[1]
            return [op, class_name, key, answer == oid]
        if op in ("Q2", "Q4"):
            return [op, query[1][1], query[2] if op == "Q2" else "hits", answer]
        if op == "Q3":
            return [op, query[1], sorted(key_of[oid] for oid in answer)]
        if op == "Q5":
            return [op, query[1], query[2], answer]
        if op == "Q6":
            rows = [{k: v for k, v in row.items() if k != "oid"} for row in answer]
            return [op, query[1], rows]
        history = [
            [step["class_version"], step["valid_time"], step["results"],
             sorted(key_of[oid] for oid in step["involves"])]
            for _step_oid, step in answer
        ]
        return [op, query[1][1], history]


class AnswerLog:
    """Raw answers kept during the timed region, digested after it."""

    def __init__(self, queries: QueryMix) -> None:
        self.queries = queries
        self.entries: list[tuple[tuple, object]] = []

    def add(self, query: tuple, answer: object) -> None:
        self.entries.append((query, answer))

    def digest(self) -> str:
        sha = hashlib.sha256()
        for query, answer in self.entries:
            line = json.dumps(
                self.queries.canonical(query, answer),
                sort_keys=True, separators=(",", ":"),
            )
            sha.update(line.encode("utf-8"))
            sha.update(b"\n")
        return sha.hexdigest()

    def lookups_ok(self) -> bool:
        """Every Q1 found the oid the store assigned at creation."""
        return all(
            answer == query[1][2]
            for query, answer in self.entries if query[0] == "Q1"
        )


class LabStream:
    """One pass of the Section 10 stream against one LabBase."""

    def __init__(
        self, db: LabBase, seed: int, scale: dict, pools: InstrumentPools,
    ) -> None:
        self.db = db
        self.scale = scale
        rng = DeterministicRng(seed)
        self.graph = build_genome_workflow()
        self.values = PooledValues(pools)
        self.engine = KeyedEngine(
            db, self.graph, rng.substream("workflow"),
            clock=LabClock(), value_factory=self.values,
        )
        self.registry = MaterialRegistry()
        self.key_of: dict[int, str] = {}
        self._class_by_prefix = {
            m.key_prefix: m.class_name for m in self.graph.spec.materials
        }
        self.pending_states = [
            s for s in self.graph.states() if not self.graph.is_terminal(s)
        ]
        self.queries = QueryMix(
            db, self.registry, self.key_of, rng.substream("queries"),
            sorted(step.class_name for step in self.graph.spec.steps),
        )
        self.answers = AnswerLog(self.queries)
        #: Per op: kind ("U" update transaction, "Q" query), seconds, and
        #: the store's page writes, meta bytes and commits after it.
        self.ops: list[tuple[str, float, int, int, int]] = []
        self.steps_executed = 0

    def install_schema(self) -> None:
        self.db.begin()
        self.engine.install_schema()
        self.db.commit()

    def _register(self, oids: tuple[int, ...]) -> None:
        issued = self.engine.issued
        for oid, key in zip(oids, issued[len(issued) - len(oids):]):
            class_name = self._class_by_prefix[key.rsplit("-", 1)[0]]
            self.registry.add(class_name, key, oid)
            self.key_of[oid] = key

    def _pick(self) -> int | None:
        """The pending material with the smallest key, in the first
        non-terminal state (graph order) that has any."""
        for state in self.pending_states:
            pending = self.db.in_state(state)
            if pending:
                return self._choose(pending)
        return None

    def _choose(self, pending: list[int]) -> int:
        return min(pending, key=self.key_of.__getitem__)

    def run(self, between_blocks=None) -> None:
        """The timed pass: intake, pumped steps and queries.

        ``between_blocks(ops_so_far)``, when given, is called after each
        intake block (one clone with its pumped steps and queries); the
        caller keeps the time it spends there out of its figures.
        """
        db = self.db
        engine = self.engine
        stats = db.storage.stats
        perf = time.perf_counter
        ops = self.ops
        scale = self.scale
        queries = self.queries
        answers = self.answers
        self.counters_at_start = (
            stats.page_writes, stats.meta_bytes_written, stats.commits
        )
        n_queries = scale["queries_per_intake"]
        for _interval in range(scale["intervals"]):
            for _clone in range(scale["clones_per_interval"]):
                t0 = perf()
                db.begin()
                oid = engine.create_material("clone")
                db.commit()
                ops.append(("U", perf() - t0, stats.page_writes,
                            stats.meta_bytes_written, stats.commits))
                self._register((oid,))
                for _step in range(scale["pump_budget"]):
                    target = self._pick()
                    if target is None:
                        break
                    t0 = perf()
                    db.begin()
                    event = engine.advance(target)
                    db.commit()
                    ops.append(("U", perf() - t0, stats.page_writes,
                                stats.meta_bytes_written, stats.commits))
                    self.steps_executed += 1
                    if event.created:
                        self._register(event.created)
                for _query in range(n_queries):
                    query = queries.draw()
                    answer, seconds = queries.call(query)
                    ops.append(("Q", seconds, stats.page_writes,
                                stats.meta_bytes_written, stats.commits))
                    answers.add(query, answer)
                if between_blocks is not None:
                    between_blocks(len(ops))

    def check(self, report) -> None:
        """Storage integrity, counts against a scan, and key lookups."""
        db = self.db
        verdict = db.verify_storage()
        report.check(
            "verify_storage", verdict.ok, "; ".join(verdict.problems[:3])
        )
        materials = sum(1 for _ in db.iter_materials())
        steps = sum(1 for _ in db.iter_steps())
        counted_m = sum(db.catalog.material_counts.values())
        counted_s = sum(db.catalog.step_counts.values())
        created = len(self.key_of)
        report.check(
            "counts match scan",
            materials == counted_m == created
            and steps == counted_s == self.steps_executed,
            f"materials scan {materials} / catalog {counted_m} / created {created}; "
            f"steps scan {steps} / catalog {counted_s} / "
            f"executed {self.steps_executed}",
        )
        registered = [
            (class_name, key, oid)
            for class_name, items in self.registry.by_class.items()
            for key, oid in items
        ]
        lost = [key for class_name, key, oid in registered
                if db.lookup(class_name, key) != oid]
        report.check(
            "every material found by key", not lost,
            f"{len(registered)} keys, {len(lost)} lost",
        )
        report.check("Q1 answers", self.answers.lookups_ok())
