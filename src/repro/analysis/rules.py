"""The simlint rule engine: PDES determinism rules over the stdlib AST.

Every rule encodes one way a discrete-event simulation silently stops
being a pure function of its configuration:

======= ================================================================
SIM001  Wall-clock access (``time.time``, ``time.monotonic``,
        ``perf_counter``, ``datetime.now`` ...) inside the sim core.
        Only the harness and the benchmarks may time things; host time
        inside the model is a *simulated* quantity.
SIM002  Unseeded randomness: module-level ``random.*`` or ``np.random.*``
        draws (and ``default_rng()`` with no seed) anywhere outside
        ``engine/rng.py``.  All stochastic behaviour must route through
        the named, seeded streams of :class:`repro.engine.rng.RngStreams`.
SIM003  Iteration-order hazards in the sim core: iterating a ``set`` (or
        building an ordered sequence from one), or feeding ``dict``
        views straight into event insertion.  Set iteration order
        depends on ``PYTHONHASHSEED`` for strings, which breaks
        bit-identical replay across processes — iterate ``sorted(...)``.
SIM004  Float/``SimTime`` mixing: arithmetic combining a float literal
        with a simulated-time expression outside ``engine/units.py``.
        Simulated time is integer nanoseconds *exactly* (the ground-
        truth determinism argument relies on it); quantize explicitly
        through ``round``/``int`` instead.
SIM005  Mutable default arguments (the exact bug class of the
        ``FarmBarrierModel.layout`` fix in PR 1): the default is shared
        across calls and across *runs*, leaking state between
        configurations.
SIM006  Bare or broad ``except`` in the sim core that swallows the
        error: a typo'd attribute inside a handler-covered region turns
        into silent timing skew.  Handlers that re-raise (wrap-and-
        raise) are allowed.
SIM022  Thread/lock/queue/pool construction in the sim core: shard
        workers fork with the built simulator, and such state does not
        survive ``fork``.
======= ================================================================

Rules are *zone-scoped*: a file's zone is derived from its path
(``sim-core`` for ``repro/{engine,core,network,node,mpi,workloads,faults,
obs,shard}``, ``harness``, ``analysis``, ``tests``, ``benchmarks``,
``examples``, ``other``), so the same invocation can lint the whole tree
while holding only the sim core to the strictest contract.

Each rule sees one file.  The shard protocol rules SIM021 and SIM023 see
one ``repro/shard/`` module at a time (:mod:`repro.analysis.shardrules`).
Whether ambient state (env, clock, hash seed, cpu count) reaches a
result across calls is not argued statically: the perturbation check in
``tests/test_determinism_perturbation.py`` runs it.  ``RULES`` and
``RULE_DOCS`` below cover every rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import Iterable, Optional, Union

#: Packages under ``repro`` that form the deterministic simulation core.
SIM_CORE_PACKAGES = frozenset(
    {
        "engine",
        "core",
        "network",
        "node",
        "mpi",
        "workloads",
        "faults",
        "obs",
        "shard",
        "checkpoint",
        "service",
    }
)

#: One-line description per rule, keyed by code.
RULES: dict[str, str] = {
    "SIM000": "file does not parse (reported so a syntax error cannot hide findings)",
    "SIM001": "wall-clock access in the sim core (only harness/benchmarks may time things)",
    "SIM002": "unseeded randomness outside engine/rng.py (route draws through RngStreams)",
    "SIM003": "iteration-order hazard: unordered container feeding an order-sensitive consumer",
    "SIM004": "float literal mixed into SimTime arithmetic outside engine/units.py",
    "SIM005": "mutable default argument (shared across calls and across runs)",
    "SIM006": "bare/broad except swallowing errors in the sim core",
    "SIM021": "unpaired pipe-protocol tag between shard parent and worker",
    "SIM022": "thread/lock/pool state created in fork-inherited simulation objects",
    "SIM023": "parent-only accounting state mutated in worker-executed code",
}

#: Extended documentation per rule, rendered by ``simlint --explain RULE``.
#: Each entry states the invariant the rule protects and how to fix a hit.
RULE_DOCS: dict[str, str] = {
    "SIM000": (
        "The file failed to parse, so no other rule could inspect it.  A\n"
        "syntax error must never *hide* findings, so it is itself reported\n"
        "as a finding.  Fix: make the file parse."
    ),
    "SIM001": (
        "Invariant: simulated time is a model output, never an input.  A\n"
        "wall-clock read (time.time, perf_counter, datetime.now, ...) inside\n"
        "the sim core makes results depend on host speed and breaks\n"
        "bit-identical replay.  Fix: time things in the harness/benchmarks\n"
        "only; inside the model, use the simulator clock."
    ),
    "SIM002": (
        "Invariant: every random draw is attributable to a named, seeded\n"
        "stream.  Module-level random.*/np.random.* draws, default_rng()\n"
        "without a seed, seedless random.Random(), and direct\n"
        "numpy.random.Generator/RandomState construction outside\n"
        "engine/rng.py all create entropy- or convention-seeded state the\n"
        "replay cannot reproduce or audit.  Fix: route draws through\n"
        "repro.engine.rng.RngStreams."
    ),
    "SIM003": (
        "Invariant: schedule order never depends on PYTHONHASHSEED.  Set\n"
        "iteration order (and dict views fed into event insertion) varies\n"
        "across processes for str keys, so two bit-identical configurations\n"
        "can produce different event orders.  Fix: iterate sorted(...) or\n"
        "an explicitly ordered list."
    ),
    "SIM004": (
        "Invariant: SimTime is exact integer nanoseconds (the ground-truth\n"
        "determinism argument relies on it).  Mixing a float literal into\n"
        "SimTime arithmetic silently reintroduces rounding.  Fix: quantize\n"
        "explicitly via round() or int()."
    ),
    "SIM005": (
        "Invariant: no state leaks between runs.  A mutable default\n"
        "argument is shared across calls *and across configurations* (the\n"
        "FarmBarrierModel.layout bug of PR 1).  Fix: default to None and\n"
        "construct inside, or use field(default_factory=...)."
    ),
    "SIM006": (
        "Invariant: errors in the sim core are loud.  A bare/broad except\n"
        "that does not re-raise turns a typo'd attribute into silent timing\n"
        "skew.  Fix: catch the specific exception, or wrap-and-raise."
    ),
    "SIM021": (
        "Invariant: every pipe-protocol tag sent by one side of the shard\n"
        "barrier is handled by the other.  An unpaired tag deadlocks the\n"
        "per-quantum barrier or silently drops a protocol state.  Fix:\n"
        "add the matching compare (or catch-all) on the receiving side,\n"
        "or remove the dead tag."
    ),
    "SIM022": (
        "Invariant: fork-inherited simulation objects carry no live\n"
        "thread/lock/pool state.  Threads do not survive fork; an\n"
        "inherited locked lock deadlocks the child.  The shard driver\n"
        "forks workers that inherit the built simulator, so sim-core\n"
        "classes must not construct threading/queue/pool primitives.\n"
        "Fix: create such state after the fork, in the owning process."
    ),
    "SIM023": (
        "Invariant: parent-only accounting (perf counters, quantum stats,\n"
        "timelines) is mutated only by the parent, whose ClusterSimulator.run()\n"
        "loop owns all accounting (workers only step nodes).  A worker-side\n"
        "mutation would be lost at join *or* double-counted, either way\n"
        "breaking bit-identity with the serial driver.  Fix: ship raw\n"
        "values over the pipe and let the parent account."
    ),
}

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Synchronization primitives that must not live in fork-inherited
#: simulation objects (SIM022).  ``Process``/``Pipe`` are the shard
#: mechanism itself and are not listed.
_SYNC_CTORS = frozenset(
    {
        "threading.Thread", "threading.Lock", "threading.RLock",
        "threading.Condition", "threading.Semaphore",
        "threading.BoundedSemaphore", "threading.Event", "threading.Barrier",
        "threading.Timer", "threading.local",
        "queue.Queue", "queue.LifoQueue", "queue.PriorityQueue",
        "queue.SimpleQueue",
        "multiprocessing.Pool", "multiprocessing.Queue", "multiprocessing.Lock",
        "multiprocessing.RLock", "multiprocessing.Manager",
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.ProcessPoolExecutor",
    }
)

#: Module-level draws (and global-state mutations) of the stdlib ``random``.
_RANDOM_DRAWS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    }
)

#: ``numpy.random`` attributes that *construct* explicitly-seeded state
#: rather than drawing from the hidden module-level generator.
_NUMPY_RANDOM_CONSTRUCTORS = frozenset(
    {
        "BitGenerator", "Generator", "MT19937", "PCG64", "PCG64DXSM",
        "Philox", "SFC64", "SeedSequence", "default_rng",
    }
)

#: Calls that explicitly quantize a float expression back to SimTime,
#: sanctioning the mixed arithmetic inside their argument.
_QUANTIZERS = frozenset(
    {"round", "int", "nanoseconds", "microseconds", "milliseconds", "seconds"}
)

#: Callee names that insert into an ordering-sensitive structure (event
#: queues, delivery schedules, heaps): feeding them from a dict view is
#: flagged, because the view's order becomes part of the schedule.
_ORDER_SINKS = frozenset(
    {
        "appendleft", "deliver", "heapify", "heappush", "hold", "insert",
        "push", "schedule", "submit",
    }
)

#: Substrings marking a name as host/wall-clock-domain (legitimately float).
_HOST_DOMAIN_MARKERS = ("host", "wall", "rate", "slowdown", "factor")

#: Exact names that denote simulated-time quantities.
_SIMTIME_NAMES = frozenset(
    {
        "now", "due", "deadline", "horizon", "sim_time",
        "quantum_start", "quantum_end", "window_start", "window_end",
    }
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    snippet: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


def zone_of(path: str) -> str:
    """Classify *path* into a lint zone (see module docstring)."""
    parts = PurePosixPath(path.replace("\\", "/")).parts
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        if index + 1 < len(parts):
            package = parts[index + 1]
            if package in SIM_CORE_PACKAGES:
                return "sim-core"
            if package == "harness":
                return "harness"
            if package == "analysis":
                return "analysis"
    for zone in ("tests", "benchmarks", "examples"):
        if zone in parts:
            return zone
    return "other"


def _is_rng_module(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return normalized.endswith("engine/rng.py")


def _is_units_module(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return normalized.endswith("engine/units.py")


def _terminal_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_simtime_expr(node: ast.expr) -> bool:
    """Heuristic: does *node* name a simulated-time quantity?"""
    name = _terminal_name(node)
    if name is None:
        return False
    lowered = name.lower()
    if any(marker in lowered for marker in _HOST_DOMAIN_MARKERS):
        return False
    return lowered in _SIMTIME_NAMES or lowered.endswith("_time") or lowered.endswith("_ns")


def _call_terminal(node: ast.Call) -> Optional[str]:
    return _terminal_name(node.func)


class _Visitor(ast.NodeVisitor):
    """Single-pass collector applying every applicable rule to one file."""

    def __init__(self, path: str, source_lines: list[str]) -> None:
        self.path = path
        self.lines = source_lines
        self.zone = zone_of(path)
        self.findings: list[Finding] = []
        # alias -> canonical dotted module/function path
        self._imports: dict[str, str] = {}
        # Stack of per-scope "names currently bound to a set" tables.
        self._set_bindings: list[set[str]] = [set()]
        # BinOp nodes sanctioned by an enclosing quantizer call (SIM004).
        self._sanctioned: set[int] = set()
        self._core = self.zone == "sim-core"
        self._rng_exempt = _is_rng_module(path)
        self._units_exempt = _is_units_module(path)

    # -- reporting ----------------------------------------------------- #

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        snippet = ""
        if 1 <= line <= len(self.lines):
            snippet = self.lines[line - 1].strip()
        self.findings.append(Finding(rule, self.path, line, col, message, snippet))

    # -- import tracking ----------------------------------------------- #

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._imports[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                self._imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        self.generic_visit(node)

    def _resolve(self, node: ast.expr) -> Optional[str]:
        """Canonical dotted path of an attribute chain, or None."""
        if isinstance(node, ast.Name):
            return self._imports.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    # -- scope management (SIM003 bindings, SIM005 defaults) ------------ #

    def _check_defaults(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]
    ) -> None:
        args = node.args
        for default in [*args.defaults, *args.kw_defaults]:
            if default is not None and self._is_mutable_literal(default):
                self._report(
                    "SIM005",
                    default,
                    "mutable default argument; use None (or field(default_factory=...))",
                )

    @staticmethod
    def _is_mutable_literal(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in {
                "list", "dict", "set", "bytearray", "defaultdict", "deque",
                "Counter", "OrderedDict",
            }
        return False

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._set_bindings.append(set())
        self.generic_visit(node)
        self._set_bindings.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._set_bindings.append(set())
        self.generic_visit(node)
        self._set_bindings.pop()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._expr_is_set(node.value, track_names=False):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._set_bindings[-1].add(target.id)
        else:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._set_bindings[-1].discard(target.id)
        self.generic_visit(node)

    # -- SIM001 / SIM002 / SIM022: calls -------------------------------- #

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self._resolve(node.func)
        if resolved is not None:
            if self._core and resolved in _WALL_CLOCK_CALLS:
                self._report(
                    "SIM001",
                    node,
                    f"wall-clock call {resolved}() in the sim core; host time is a "
                    "model output, not an input",
                )
            if self._core and resolved in _SYNC_CTORS:
                self._report(
                    "SIM022",
                    node,
                    f"{resolved}() constructed in the sim core: shard workers "
                    "fork with the built simulator, and thread/lock/queue/pool "
                    "state does not survive fork (an inherited locked lock "
                    "deadlocks the child); create it post-fork in the owning "
                    "process",
                )
            if not self._rng_exempt:
                self._check_randomness(node, resolved)
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _QUANTIZERS
            and node.args
        ):
            for arg in node.args:
                if isinstance(arg, ast.BinOp):
                    self._sanctioned.add(id(arg))
        self.generic_visit(node)

    def _check_randomness(self, node: ast.Call, resolved: str) -> None:
        if resolved.startswith("random."):
            attr = resolved.split(".", 1)[1]
            if attr in _RANDOM_DRAWS:
                self._report(
                    "SIM002",
                    node,
                    f"{resolved}() draws from hidden global state; use a named "
                    "RngStreams stream",
                )
            elif attr == "Random" and not node.args and not node.keywords:
                self._report(
                    "SIM002",
                    node,
                    "random.Random() without a seed is entropy-seeded; pass an "
                    "explicit seed or use a named RngStreams stream",
                )
            return
        for prefix in ("numpy.random.", "np.random."):
            if resolved.startswith(prefix):
                attr = resolved[len(prefix):].split(".")[0]
                if attr == "default_rng" and not node.args and not node.keywords:
                    self._report(
                        "SIM002",
                        node,
                        "default_rng() without a seed is entropy-seeded; pass an "
                        "explicit seed or use RngStreams",
                    )
                elif attr in ("Generator", "RandomState"):
                    self._report(
                        "SIM002",
                        node,
                        f"direct numpy.random.{attr}(...) construction outside "
                        "engine/rng.py; obtain generators from the named, seeded "
                        "streams of RngStreams",
                    )
                elif attr not in _NUMPY_RANDOM_CONSTRUCTORS:
                    self._report(
                        "SIM002",
                        node,
                        f"numpy.random.{attr}() uses the hidden module-level "
                        "generator; use a named RngStreams stream",
                    )
                return

    # -- SIM003: iteration-order hazards -------------------------------- #

    def _expr_is_set(self, node: ast.expr, track_names: bool = True) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in {"set", "frozenset"}:
                return True
        if track_names and isinstance(node, ast.Name):
            return any(node.id in scope for scope in self._set_bindings)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
        ):
            # Set algebra (a | b, a - b) over set operands.
            return self._expr_is_set(node.left) and self._expr_is_set(node.right)
        return False

    @staticmethod
    def _is_dict_view(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in {"values", "keys", "items"}
            and not node.args
            and not node.keywords
        )

    def _body_hits_order_sink(self, body: list[ast.stmt]) -> bool:
        for stmt in body:
            for child in ast.walk(stmt):
                if isinstance(child, ast.Call):
                    name = _call_terminal(child)
                    if name in _ORDER_SINKS:
                        return True
        return False

    def visit_For(self, node: ast.For) -> None:
        if self._core:
            if self._expr_is_set(node.iter):
                self._report(
                    "SIM003",
                    node.iter,
                    "iterating a set in the sim core; order depends on "
                    "PYTHONHASHSEED for str keys — iterate sorted(...) instead",
                )
            elif self._is_dict_view(node.iter) and self._body_hits_order_sink(
                node.body
            ):
                self._report(
                    "SIM003",
                    node.iter,
                    "dict-view iteration feeds an event/heap insertion; make the "
                    "schedule order explicit (sorted keys or an ordered list)",
                )
        self.generic_visit(node)

    def _visit_comprehension(
        self, node: Union[ast.ListComp, ast.DictComp]
    ) -> None:
        if self._core:
            for generator in node.generators:
                if self._expr_is_set(generator.iter):
                    self._report(
                        "SIM003",
                        generator.iter,
                        "building an ordered sequence from a set; wrap the "
                        "iterable in sorted(...)",
                    )
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node)

    # -- SIM004: float/SimTime mixing ------------------------------------ #

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if (
            self._core
            and not self._units_exempt
            and id(node) not in self._sanctioned
            and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod))
        ):
            sides = (node.left, node.right)
            for literal, other in (sides, sides[::-1]):
                if (
                    isinstance(literal, ast.Constant)
                    and isinstance(literal.value, float)
                    and _is_simtime_expr(other)
                ):
                    self._report(
                        "SIM004",
                        node,
                        f"float literal {literal.value!r} mixed into SimTime "
                        f"arithmetic with {_terminal_name(other)!r}; SimTime is "
                        "exact integer nanoseconds — quantize via round() or int()",
                    )
                    break
        self.generic_visit(node)

    # -- SIM006: broad exception handlers -------------------------------- #

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self._core:
            broad = self._broad_exception_name(node.type)
            if broad is not None and not self._handler_reraises(node):
                label = "bare except" if broad == "" else f"except {broad}"
                self._report(
                    "SIM006",
                    node,
                    f"{label} swallows errors in the sim core; catch the "
                    "specific exception or re-raise",
                )
        self.generic_visit(node)

    @staticmethod
    def _broad_exception_name(type_node: Optional[ast.expr]) -> Optional[str]:
        """'' for a bare except, the name for Exception/BaseException, else None."""
        if type_node is None:
            return ""
        candidates: Iterable[ast.expr]
        if isinstance(type_node, ast.Tuple):
            candidates = type_node.elts
        else:
            candidates = (type_node,)
        for candidate in candidates:
            if isinstance(candidate, ast.Name) and candidate.id in (
                "Exception",
                "BaseException",
            ):
                return candidate.id
        return None

    @staticmethod
    def _handler_reraises(node: ast.ExceptHandler) -> bool:
        for stmt in node.body:
            for child in ast.walk(stmt):
                if isinstance(child, ast.Raise):
                    return True
        return False


def lint_source(source: str, path: str) -> list[Finding]:
    """Lint *source* as if it lived at *path*; returns sorted findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as err:
        return [
            Finding(
                rule="SIM000",
                path=path,
                line=err.lineno or 1,
                col=(err.offset or 1) - 1,
                message=f"syntax error: {err.msg}",
                snippet=(err.text or "").strip(),
            )
        ]
    visitor = _Visitor(path, source.splitlines())
    visitor.visit(tree)
    return sorted(visitor.findings, key=Finding.sort_key)
