"""The LF rules: invariants of the storage stack, checked statically.

==== =======================================================================
LF01 all disk writes flow through the buffer pool — no direct ``PageFile``
     construction, ``os``-level I/O or write-mode ``open()`` outside
     ``storage/disk.py`` / ``storage/faultinject.py`` (otherwise the
     fault injector cannot see every write point)
LF02 nondeterminism ban on crash-path and benchmark modules: wall-clock
     time, unseeded module-level ``random``, ``os.urandom``, and
     set-iteration-order leaks (the crash matrix needs bit-identical
     write schedules)
LF03 no cross-module private-attribute reach-ins (``other._attr`` where
     the receiver is not ``self``/``cls`` and ``_attr`` is not defined in
     the accessing module — same-module friend access stays legal)
LF04 lock-ordering discipline: a loop that acquires locks must iterate a
     canonically ordered source (``sorted(...)`` or a ``self`` helper, as
     in ``labbase/sessions.py``) and sit under a ``try`` that releases
     partial grabs (or a context manager)
LF06 no broad exception handling on storage/labbase paths (``except
     Exception`` / bare ``except`` without a bare re-raise)
LF08 lock-order / strict-2PL discipline over the served core: every
     lock is registered in ``LOCK_RANKS``/``LOCK_SITES``, no
     acquisition edge inverts the ranks or closes a cycle, releases
     happen only on unwind/commit boundaries, rollback handlers that
     drop page locks restore upgrades, and lock-acquiring loops
     iterate canonically ordered sources (interprocedural; defined in
     ``repro.analysis.concurrency``)
LF09 shared-state confinement: mutable module globals and ``self.``
     attributes reachable from more than one thread entry point must
     have every access dominated by one common ``with <lock>``
     (defined in ``repro.analysis.concurrency``)
==== =======================================================================
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.concurrency import CONCURRENCY_RULES
from repro.analysis.core import (
    NAMEDTUPLE_METHODS,
    Finding,
    ParentMap,
    Project,
    Rule,
    SourceModule,
    _receiver_is_self,
    in_crash_path,
    in_storage_stack,
)

# ---------------------------------------------------------------------------
# LF01 — direct I/O outside the disk layer
# ---------------------------------------------------------------------------

_LF01_EXEMPT = ("repro.storage.disk", "repro.storage.faultinject")

#: os functions that read or write file state directly.
_OS_IO_FUNCS = frozenset(
    {
        "open", "write", "pwrite", "pread", "read", "lseek", "fsync",
        "fdatasync", "ftruncate", "truncate", "replace", "rename",
        "remove", "unlink",
    }
)

_PAGEFILE_NAMES = frozenset(
    {"PageFile", "FaultyPageFile", "MMapPageFile", "FaultyMMapPageFile"}
)


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _open_mode(node: ast.Call) -> str | None:
    """The mode string of an ``open`` call, if statically known."""
    mode: ast.expr | None = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


class DirectIORule(Rule):
    id = "LF01"
    title = "disk writes must flow through the buffer pool"

    def applies(self, module: SourceModule) -> bool:
        return in_storage_stack(module.name) and module.name not in _LF01_EXEMPT

    def check_module(
        self, project: Project, module: SourceModule
    ) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name in _PAGEFILE_NAMES:
                yield self.finding(
                    module,
                    node,
                    f"constructs {name} directly; page files belong to the "
                    "disk layer (storage/disk.py, storage/faultinject.py)",
                )
            elif isinstance(node.func, ast.Name) and name == "open":
                mode = _open_mode(node)
                if mode is None or any(ch in mode for ch in "wax+"):
                    yield self.finding(
                        module,
                        node,
                        f"open() in mode {mode!r} bypasses the buffer pool; "
                        "the fault injector cannot see this write point",
                    )
            elif (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "os"
                and name in _OS_IO_FUNCS
            ):
                yield self.finding(
                    module,
                    node,
                    f"os.{name}() is disk-layer I/O; route it through "
                    "storage/disk.py so every write point is injectable",
                )


# ---------------------------------------------------------------------------
# LF02 — nondeterminism on crash-path / benchmark modules
# ---------------------------------------------------------------------------

_RANDOM_MODULE_FUNCS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "betavariate",
        "getrandbits", "triangular", "expovariate",
    }
)

_DATETIME_NOW = frozenset({"now", "utcnow", "today"})

#: Call wrappers that make iteration order irrelevant (or canonical).
_ORDER_SAFE_CONSUMERS = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset"}
)


def _is_set_expr(node: ast.expr, set_vars: frozenset[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and node.id in set_vars:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_vars) or _is_set_expr(
            node.right, set_vars
        )
    return False


def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope without descending into nested function bodies.

    ``ast.walk`` yields every descendant, which would leak one function's
    locals into another's analysis; this walker stops at nested defs
    (each is analysed as its own scope).
    """
    stack: list[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _set_typed_locals(scope: ast.AST) -> frozenset[str]:
    """Names assigned only set-valued expressions within one scope."""
    candidates: dict[str, bool] = {}
    for node in _walk_scope(scope):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                is_set = _is_set_expr(node.value, frozenset())
                candidates[target.id] = candidates.get(target.id, True) and is_set
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            note = node.annotation
            is_set_note = (
                isinstance(note, ast.Subscript)
                and isinstance(note.value, ast.Name)
                and note.value.id in ("set", "frozenset")
            ) or (isinstance(note, ast.Name) and note.id in ("set", "frozenset"))
            candidates[node.target.id] = (
                candidates.get(node.target.id, True) and is_set_note
            )
    return frozenset(name for name, is_set in candidates.items() if is_set)


def _iteration_sites(scope: ast.AST) -> Iterator[tuple[ast.AST, ast.expr, str]]:
    """(node, iterated expression, description) triples within a scope."""
    for node in _walk_scope(scope):
        if isinstance(node, ast.For):
            yield node, node.iter, "for-loop"
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            for generator in node.generators:
                yield node, generator.iter, "comprehension"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("list", "tuple") and len(node.args) == 1:
                yield node, node.args[0], f"{node.func.id}()"


class DeterminismRule(Rule):
    id = "LF02"
    title = "crash-path and benchmark code must be deterministic"

    def applies(self, module: SourceModule) -> bool:
        return in_crash_path(module.name)

    def check_module(
        self, project: Project, module: SourceModule
    ) -> Iterable[Finding]:
        yield from self._banned_calls(module)
        yield from self._set_order_leaks(module)

    def _banned_calls(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            base = node.value
            if not isinstance(base, ast.Name):
                continue
            if base.id == "time" and node.attr in ("time", "time_ns"):
                yield self.finding(
                    module,
                    node,
                    "time.time() is wall-clock nondeterminism; valid time "
                    "comes from LabClock, timings from perf_counter in the "
                    "harness only",
                )
            elif base.id in ("datetime", "date") and node.attr in _DATETIME_NOW:
                yield self.finding(
                    module,
                    node,
                    f"{base.id}.{node.attr}() reads the wall clock; "
                    "crash-path schedules must be reproducible",
                )
            elif base.id == "os" and node.attr == "urandom":
                yield self.finding(
                    module, node, "os.urandom() is unseedable entropy"
                )
            elif base.id == "random" and node.attr in _RANDOM_MODULE_FUNCS:
                yield self.finding(
                    module,
                    node,
                    f"module-level random.{node.attr}() shares unseeded "
                    "global state; use repro.util.rng.DeterministicRng",
                )

    def _set_order_leaks(self, module: SourceModule) -> Iterator[Finding]:
        scopes: list[ast.AST] = [module.tree]
        scopes.extend(
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            set_vars = _set_typed_locals(scope)
            for node, iterated, description in _iteration_sites(scope):
                if _is_set_expr(iterated, set_vars):
                    yield self.finding(
                        module,
                        node,
                        f"{description} iterates a set in hash order; wrap "
                        "the source in sorted() so the schedule is "
                        "bit-identical across runs",
                    )


# ---------------------------------------------------------------------------
# LF03 — cross-module private reach-ins
# ---------------------------------------------------------------------------


class PrivateReachInRule(Rule):
    id = "LF03"
    title = "no cross-module private-attribute access"

    def applies(self, module: SourceModule) -> bool:
        return (
            in_storage_stack(module.name)
            or module.name.startswith("repro.benchmark")
            or module.name.startswith("repro.obs")
        )

    def check_module(
        self, project: Project, module: SourceModule
    ) -> Iterable[Finding]:
        local_privates = module.private_names()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            attr = node.attr
            if not attr.startswith("_"):
                continue
            if attr.startswith("__") and attr.endswith("__"):
                continue
            if attr in NAMEDTUPLE_METHODS:
                continue
            if _receiver_is_self(node.value):
                continue
            if attr in local_privates:
                continue  # same-module friend access (e.g. factory helpers)
            yield self.finding(
                module,
                node,
                f"reach-in to private attribute {attr!r} defined outside "
                f"{module.name}; add or use a public accessor instead",
            )


# ---------------------------------------------------------------------------
# LF04 — lock-ordering discipline
# ---------------------------------------------------------------------------

_ACQUIRE_NAMES = frozenset(
    {"acquire", "lock_page", "lock_object", "lock_objects", "lock_material"}
)
_RELEASE_NAMES = frozenset(
    {
        "release", "release_all", "unlock_page", "unlock_all",
        "_unlock_pages", "unlock_pages", "unlock", "release_locks",
        "_restore_pages", "downgrade", "downgrade_page",
    }
)


def _calls_named(scope: ast.AST, names: frozenset[str]) -> ast.Call | None:
    for node in ast.walk(scope):
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in names:
                return node
    return None


def _iter_is_canonical(iterated: ast.expr, sorted_vars: set[str]) -> bool:
    """Trusted acquire-loop sources: sorted() output or a self helper."""
    if isinstance(iterated, ast.Call):
        if isinstance(iterated.func, ast.Name):
            return iterated.func.id in ("sorted", "range", "enumerate")
        if isinstance(iterated.func, ast.Attribute):
            return _receiver_is_self(iterated.func.value) or (
                isinstance(iterated.func.value, ast.Attribute)
                and _receiver_is_self(iterated.func.value.value)
            )
    if isinstance(iterated, ast.Attribute):
        return _receiver_is_self(iterated.value)
    if isinstance(iterated, ast.Name):
        return iterated.id in sorted_vars
    return False


def _sorted_assigned_names(scope: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            value = node.value
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "sorted"
            ):
                names.add(target.id)
    return names


def _release_guarded(loop: ast.For, parents: ParentMap) -> bool:
    """Whether a partial acquisition can be unwound on failure."""
    for node in ast.walk(loop):
        if isinstance(node, ast.Try):
            if node.finalbody or any(
                _calls_named(handler, _RELEASE_NAMES) for handler in node.handlers
            ):
                return True
    for ancestor in parents.ancestors(loop):
        if isinstance(ancestor, ast.With):
            return True
        if isinstance(ancestor, ast.Try):
            if ancestor.finalbody:
                return True
            if any(
                _calls_named(handler, _RELEASE_NAMES)
                for handler in ancestor.handlers
            ):
                return True
    return False


class LockOrderingRule(Rule):
    id = "LF04"
    title = "nested lock acquisition must be ordered and unwindable"

    def applies(self, module: SourceModule) -> bool:
        return in_storage_stack(module.name)

    def check_module(
        self, project: Project, module: SourceModule
    ) -> Iterable[Finding]:
        parents = ParentMap.of(module.tree)
        functions = [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for function in functions:
            sorted_vars = _sorted_assigned_names(function)
            for node in ast.walk(function):
                if not isinstance(node, ast.For):
                    continue
                acquire = None
                for stmt in node.body:
                    acquire = _calls_named(stmt, _ACQUIRE_NAMES)
                    if acquire is not None:
                        break
                if acquire is None:
                    continue
                if not _iter_is_canonical(node.iter, sorted_vars):
                    yield self.finding(
                        module,
                        node,
                        "multi-lock acquisition iterates an unordered "
                        "source; iterate sorted(...) (the canonical oid "
                        "order of labbase/sessions.py) so concurrent "
                        "clients cannot deadlock on opposite orders",
                    )
                if not _release_guarded(node, parents):
                    yield self.finding(
                        module,
                        node,
                        "lock-acquiring loop has no release guard; a "
                        "conflict partway leaks the locks already taken — "
                        "wrap it in try/finally or release in the handler",
                    )


# ---------------------------------------------------------------------------
# LF06 — broad exception handling
# ---------------------------------------------------------------------------


def _is_broad(handler_type: ast.expr | None) -> bool:
    if handler_type is None:
        return True
    if isinstance(handler_type, ast.Name):
        return handler_type.id in ("Exception", "BaseException")
    if isinstance(handler_type, ast.Tuple):
        return any(_is_broad(element) for element in handler_type.elts)
    return False


def _reraises(handler: ast.ExceptHandler) -> bool:
    """A bare ``raise`` preserves the original exception — allowed."""
    return any(
        isinstance(node, ast.Raise) and node.exc is None
        for node in ast.walk(handler)
    )


class BroadExceptRule(Rule):
    id = "LF06"
    title = "storage paths must not swallow arbitrary exceptions"

    def applies(self, module: SourceModule) -> bool:
        return in_storage_stack(module.name) or module.name.startswith(
            "repro.obs"
        )

    def check_module(
        self, project: Project, module: SourceModule
    ) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node.type):
                continue
            if _reraises(node):
                continue
            label = "bare except" if node.type is None else "except Exception"
            yield self.finding(
                module,
                node,
                f"{label} without a bare re-raise can swallow "
                "InjectedCrashError and corruption signals; catch the "
                "concrete error types (StorageError, PageError, ...) or "
                "justify with a lint: ignore[LF06] comment",
            )


ALL_RULES: tuple[Rule, ...] = (
    DirectIORule(),
    DeterminismRule(),
    PrivateReachInRule(),
    LockOrderingRule(),
    BroadExceptRule(),
) + CONCURRENCY_RULES


def rules_by_id(ids: Iterable[str] | None = None) -> tuple[Rule, ...]:
    """Resolve rule ids (``None`` = all), raising on unknown ids."""
    if ids is None:
        return ALL_RULES
    wanted = [identifier.strip().upper() for identifier in ids if identifier.strip()]
    known = {rule.id: rule for rule in ALL_RULES}
    unknown = [identifier for identifier in wanted if identifier not in known]
    if unknown:
        raise KeyError(f"unknown rule id(s): {', '.join(unknown)}")
    return tuple(known[identifier] for identifier in wanted)
