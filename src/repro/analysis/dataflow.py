"""Inter-procedural determinism dataflow: rules SIM010-SIM014.

The per-file rules of :mod:`repro.analysis.rules` see one syntactic
pattern at a time; they cannot see a wall-clock value laundered through
a helper into a cache key.  This pass can.  It works in two stages:

1. **Extraction** (:func:`summarize_module`) — one AST walk per file
   producing a *symbolic* taint summary: for every function, the
   influencers of its return value, the influencers of every call
   argument, and every direct taint-source read.  Influencers are atoms:

   * ``["src", kind, name, line]`` — a direct taint-source read
     (wall clock, unseeded RNG, ``os.environ``, ``os.cpu_count``,
     ``hash()``/``id()``, set-iteration order),
   * ``["ret", callee, line]`` — the return value of a resolved callee,
   * ``["param", index]`` — one of the function's own parameters.

   Summaries are plain JSON dicts, so the project index can cache them
   per file (keyed by content hash) and warm whole-tree runs never
   re-parse anything.

2. **Analysis** (:func:`analyze`) — a whole-program fixpoint over the
   summaries.  ``ret_taint`` propagates "returns a nondeterministic
   value" up the call graph; ``param_sink`` propagates "parameter i
   reaches a determinism sink" down it.  A finding fires where taint
   meets a sink, and carries the full source -> sink call chain.

The determinism sinks, each its own rule:

======= ===============================================================
SIM010  Event scheduling (``schedule``/``submit``/``push``/...): a
        nondeterministic value entering the event queue changes the
        simulated timeline itself.
SIM011  ``RunResult`` fields: the run's observable output would differ
        between bit-identical replays.
SIM012  Trace-event payloads (classes of ``repro.obs.events``): traced
        runs must stay bit-identical to untraced ones.
SIM013  The disk-cache key (returns of ``key_fragment``/``key_payload``,
        arguments of ``key_of``): everything entering a cache key must
        derive from hashable config fields, never from ambient host
        state — a polluted key silently forks the cache.
SIM014  Whole-program ambient-state reachability in the sim core: a
        sim-core function reads — or transitively calls something that
        reads — the wall clock or ambient host state (``os.environ``,
        ``cpu_count``, pids, hostnames).  The laundering case SIM001
        cannot see.
======= ===============================================================
"""

from __future__ import annotations

import ast
from typing import Any, Optional

from repro.analysis.rules import (
    _RANDOM_DRAWS,
    _WALL_CLOCK_CALLS,
    Finding,
    zone_of,
)

#: JSON summary schema version; the index folds it into cache keys.
SUMMARY_VERSION = 1

#: Resolved call targets that read ambient host state.
_AMBIENT_CALLS = frozenset(
    {
        "os.getenv",
        "os.cpu_count",
        "os.getpid",
        "os.getppid",
        "os.getlogin",
        "os.uname",
        "multiprocessing.cpu_count",
        "platform.node",
        "platform.platform",
        "platform.machine",
        "socket.gethostname",
        "socket.gethostbyname",
    }
)

#: Resolved attribute chains that *are* ambient state when read.
_AMBIENT_ATTRS = frozenset({"os.environ"})

#: Source kinds that SIM014 (sim-core ambient reachability) cares about.
_SIM014_KINDS = frozenset({"wall-clock", "ambient-host"})

#: Terminal callee names that insert into the event/delivery schedule.
_SCHEDULE_TERMINALS = frozenset(
    {
        "schedule",
        "schedule_at",
        "schedule_after",
        "schedule_many",
        "push",
        "push_many",
        "heappush",
        "submit",
        "submit_held_batch",
        "deliver",
        "hold",
    }
)

#: Function names whose *return value* is a cache-key sink.
_CACHE_KEY_FUNCTIONS = frozenset({"key_fragment", "key_payload"})

#: Synchronization-primitive constructors that must never be created in
#: fork-inherited simulation objects (consumed by the shard-safety pass).
SYNC_CTORS = frozenset(
    {
        "threading.Thread",
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.Event",
        "threading.Barrier",
        "threading.Timer",
        "threading.local",
        "queue.Queue",
        "queue.LifoQueue",
        "queue.PriorityQueue",
        "queue.SimpleQueue",
        "multiprocessing.Pool",
        "multiprocessing.Queue",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
        "multiprocessing.Manager",
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.ProcessPoolExecutor",
    }
)

#: Zones whose sinks the dataflow rules guard.  Tests and benchmarks
#: legitimately time and label things; the shipped packages may not.
_SINK_ZONES = frozenset({"sim-core", "harness", "analysis"})


def module_name_of(path: str) -> str:
    """Dotted module name for *path* (``src/repro/x/y.py`` -> ``repro.x.y``)."""
    normalized = path.replace("\\", "/")
    parts = [part for part in normalized.split("/") if part not in ("", ".")]
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<root>"


# --------------------------------------------------------------------- #
# Extraction: one file -> one JSON-able module summary
# --------------------------------------------------------------------- #


class _Extractor:
    """Builds function taint summaries for one parsed module."""

    def __init__(self, tree: ast.Module, path: str, module: str) -> None:
        self.path = path
        self.module = module
        self.imports: dict[str, str] = {}
        self.module_defs: set[str] = set()
        self.classes: list[str] = []
        self.functions: list[dict[str, Any]] = []
        self.sync_sites: list[list[Any]] = []
        self._collect_toplevel(tree)
        self._walk_module(tree)

    # -- module scan ---------------------------------------------------- #

    def _collect_toplevel(self, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.module_defs.add(node.name)
            elif isinstance(node, ast.ClassDef):
                self.classes.append(node.name)
                self.module_defs.add(node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        self.imports[root] = root
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.imports[alias.asname or alias.name] = f"{base}.{alias.name}"

    def _import_base(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        # Relative import: resolve against this module's package.
        package = self.module.split(".")
        if len(package) < node.level:
            return None
        package = package[: len(package) - node.level]
        if node.module:
            package.append(node.module)
        return ".".join(package) if package else None

    def _walk_module(self, tree: ast.Module) -> None:
        module_level: list[ast.stmt] = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._summarize_function(item, f"{node.name}.{item.name}")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._summarize_function(node, node.name)
            else:
                module_level.append(node)
        if module_level:
            wrapper = ast.Module(body=module_level, type_ignores=[])
            pseudo = ast.FunctionDef(
                name="<module>",
                args=ast.arguments(
                    posonlyargs=[], args=[], kwonlyargs=[],
                    kw_defaults=[], defaults=[],
                ),
                body=module_level,
                decorator_list=[],
                lineno=1,
                col_offset=0,
            )
            del wrapper
            self._summarize_function(pseudo, "<module>")

    # -- resolution ------------------------------------------------------ #

    def _resolve_chain(self, node: ast.expr) -> Optional[str]:
        """Canonical dotted path of a Name/Attribute chain, or None."""
        if isinstance(node, ast.Name):
            return self.imports.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._resolve_chain(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    def _resolve_callee(
        self, func: ast.expr, class_name: Optional[str]
    ) -> tuple[Optional[str], str, bool]:
        """(resolved dotted name, terminal name, is-method-call)."""
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.module_defs:
                return f"{self.module}.{name}", name, False
            target = self.imports.get(name)
            return target, name, False
        if isinstance(func, ast.Attribute):
            terminal = func.attr
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and class_name is not None
            ):
                return f"{self.module}.{class_name}.{terminal}", terminal, True
            chain = self._resolve_chain(func)
            return chain, terminal, True
        return None, "", False

    # -- function summaries ---------------------------------------------- #

    def _summarize_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, qual: str
    ) -> None:
        class_name = qual.split(".")[0] if "." in qual else None
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        state = _FunctionState(self, params, class_name)
        state.process_block(node.body)
        self.functions.append(
            {
                "qual": qual,
                "line": node.lineno,
                "params": params,
                "returns": sorted(state.returns),
                "edges": state.edges,
                "sources": sorted(state.sources),
            }
        )

    def summary(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "module": self.module,
            "zone": zone_of(self.path),
            "classes": sorted(self.classes),
            "functions": self.functions,
            "sync_sites": sorted(self.sync_sites),
        }


# Atoms are tuples in memory and lists in JSON; keep them hashable here.
Atom = tuple


class _FunctionState:
    """Forward symbolic walk of one function body."""

    def __init__(
        self, owner: _Extractor, params: list[str], class_name: Optional[str]
    ) -> None:
        self.owner = owner
        self.class_name = class_name
        self.env: dict[str, frozenset[Atom]] = {
            name: frozenset({("param", index)})
            for index, name in enumerate(params)
        }
        self.returns: set[Atom] = set()
        self.edges: list[dict[str, Any]] = []
        self.sources: set[tuple[str, str, int]] = set()

    # -- statements ------------------------------------------------------ #

    def process_block(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._process_stmt(stmt)

    def _process_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returns |= self.atoms_of(stmt.value)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            if value is None:
                return
            atoms = self.atoms_of(value)
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            else:
                targets = [stmt.target]
            for target in targets:
                self._bind(target, atoms, augment=isinstance(stmt, ast.AugAssign))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_atoms = self.atoms_of(stmt.iter)
            self._bind(stmt.target, iter_atoms, augment=False)
            # Two passes so taint assigned late in the body reaches uses
            # at the top of the next iteration.
            self.process_block(stmt.body)
            self.process_block(stmt.body)
            self.process_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.atoms_of(stmt.test)
            self.process_block(stmt.body)
            self.process_block(stmt.body)
            self.process_block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self.atoms_of(stmt.test)
            self.process_block(stmt.body)
            self.process_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                atoms = self.atoms_of(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, atoms, augment=False)
            self.process_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.process_block(stmt.body)
            for handler in stmt.handlers:
                self.process_block(handler.body)
            self.process_block(stmt.orelse)
            self.process_block(stmt.finalbody)
        elif isinstance(stmt, ast.Expr):
            self.atoms_of(stmt.value)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are summarized separately or skipped
        else:
            # Raise, Assert, Delete, Global, match statements, ...: walk
            # their expressions so calls/sources inside them register.
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.atoms_of(child)
                elif isinstance(child, ast.stmt):
                    self._process_stmt(child)

    def _bind(self, target: ast.expr, atoms: frozenset[Atom], augment: bool) -> None:
        if isinstance(target, ast.Name):
            if augment:
                atoms = atoms | self.env.get(target.id, frozenset())
            self.env[target.id] = atoms
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, atoms, augment)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, atoms, augment)
        elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
            key = f"{target.value.id}.{target.attr}"
            if augment:
                atoms = atoms | self.env.get(key, frozenset())
            self.env[key] = atoms
        # Subscript targets: the container keeps its existing influencers.
        elif isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
            existing = self.env.get(target.value.id, frozenset())
            self.env[target.value.id] = existing | atoms

    # -- expressions ----------------------------------------------------- #

    def atoms_of(self, node: ast.expr) -> frozenset[Atom]:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, frozenset())
        if isinstance(node, ast.Attribute):
            chain = self.owner._resolve_chain(node)
            if chain in _AMBIENT_ATTRS:
                atom = ("src", "ambient-host", chain, node.lineno)
                self.sources.add(atom[1:])
                return frozenset({atom})
            if isinstance(node.value, ast.Name):
                key = f"{node.value.id}.{node.attr}"
                if key in self.env:
                    return self.env[key]
            return self.atoms_of(node.value)
        if isinstance(node, ast.Call):
            return self._atoms_of_call(node)
        if isinstance(node, ast.Lambda):
            return frozenset()
        atoms: frozenset[Atom] = frozenset()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                atoms |= self.atoms_of(child)
            elif isinstance(child, ast.comprehension):
                atoms |= self.atoms_of(child.iter)
        return atoms

    def _atoms_of_call(self, node: ast.Call) -> frozenset[Atom]:
        owner = self.owner
        resolved, terminal, is_method = owner._resolve_callee(
            node.func, self.class_name
        )
        arg_atoms = [self.atoms_of(arg) for arg in node.args]
        kwarg_atoms = {
            kw.arg: self.atoms_of(kw.value)
            for kw in node.keywords
            if kw.arg is not None
        }
        for kw in node.keywords:
            if kw.arg is None:  # **kwargs splat
                arg_atoms.append(self.atoms_of(kw.value))

        source = self._source_kind(node, resolved, terminal)
        if source is not None:
            kind, name = source
            atom = ("src", kind, name, node.lineno)
            self.sources.add(atom[1:])
            passthrough = frozenset().union(*arg_atoms) if arg_atoms else frozenset()
            return frozenset({atom}) | passthrough

        if resolved is not None and resolved in SYNC_CTORS:
            owner.sync_sites.append([resolved, node.lineno])

        interesting = (
            resolved is not None
            or terminal in _SCHEDULE_TERMINALS
            or terminal in {"RunResult", "key_of"}
        )
        if interesting and terminal:
            self.edges.append(
                {
                    "callee": resolved or f"?{terminal}",
                    "terminal": terminal,
                    "line": node.lineno,
                    "col": node.col_offset,
                    "method": is_method,
                    "args": [sorted(atoms) for atoms in arg_atoms],
                    "kwargs": {
                        name: sorted(atoms)
                        for name, atoms in sorted(kwarg_atoms.items())
                    },
                }
            )

        passthrough = frozenset().union(*arg_atoms) if arg_atoms else frozenset()
        passthrough |= frozenset().union(*kwarg_atoms.values()) if kwarg_atoms else frozenset()
        if resolved is not None or is_method:
            # A resolved callee's return may be tainted (decided globally);
            # method calls on tainted receivers propagate the receiver.
            passthrough |= self.atoms_of(node.func)
        if resolved is not None:
            passthrough |= frozenset({("ret", resolved, node.lineno)})
        return passthrough

    def _source_kind(
        self, node: ast.Call, resolved: Optional[str], terminal: str
    ) -> Optional[tuple[str, str]]:
        """(kind, display name) when this call reads a taint source."""
        if resolved is not None:
            if resolved in _WALL_CLOCK_CALLS:
                return ("wall-clock", resolved)
            if resolved in _AMBIENT_CALLS:
                return ("ambient-host", resolved)
            if resolved == "os.environ.get":
                return ("ambient-host", "os.environ.get")
            if resolved.startswith("random."):
                attr = resolved.split(".", 1)[1]
                if attr in _RANDOM_DRAWS:
                    return ("unseeded-rng", resolved)
                if attr == "Random" and not node.args and not node.keywords:
                    return ("unseeded-rng", "random.Random()")
            for prefix in ("numpy.random.", "np.random."):
                if resolved.startswith(prefix):
                    attr = resolved[len(prefix) :].split(".")[0]
                    if attr in ("default_rng", "RandomState") and not node.args:
                        return ("unseeded-rng", f"numpy.random.{attr}()")
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("hash", "id")
            and node.func.id not in self.owner.imports
            and node.func.id not in self.owner.module_defs
        ):
            return ("hash-id", f"{node.func.id}()")
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple")
            and len(node.args) == 1
            and self._is_set_expr(node.args[0])
        ):
            return ("set-order", f"{node.func.id}(set)")
        return None

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )


def summarize_module(tree: ast.Module, path: str) -> dict[str, Any]:
    """The JSON-able taint summary of one parsed file."""
    return _Extractor(tree, path, module_name_of(path)).summary()


# --------------------------------------------------------------------- #
# Analysis: whole-program fixpoint over the summaries
# --------------------------------------------------------------------- #


def _short(qual: str) -> str:
    return qual.rsplit(".", 1)[-1]


class _Taint:
    """Where a nondeterministic value came from, and how it traveled."""

    __slots__ = ("kind", "name", "steps")

    def __init__(
        self, kind: str, name: str, steps: list[tuple[str, int, str]]
    ) -> None:
        self.kind = kind
        self.name = name
        self.steps = steps


class _Program:
    """Resolved whole-program view: function table + fixpoint results."""

    def __init__(self, summaries: list[dict[str, Any]]) -> None:
        self.summaries = summaries
        self.functions: dict[str, tuple[dict[str, Any], dict[str, Any]]] = {}
        self.event_classes: set[str] = set()
        for module in summaries:
            for fn in module["functions"]:
                self.functions[f"{module['module']}.{fn['qual']}"] = (module, fn)
            if module["module"].endswith("obs.events"):
                self.event_classes.update(module["classes"])
        self.ret_taint: dict[str, _Taint] = {}
        self.reach: dict[str, _Taint] = {}
        self.param_sink: dict[str, dict[int, tuple[str, str, list]]] = {}
        self._fix_ret_taint()
        self._fix_reach()
        self._fix_param_sink()

    # -- helpers --------------------------------------------------------- #

    def _sink_of(self, edge: dict[str, Any]) -> Optional[tuple[str, str]]:
        terminal = edge["terminal"]
        callee = edge["callee"]
        if terminal in _SCHEDULE_TERMINALS:
            return ("SIM010", f"event schedule ({terminal})")
        if terminal == "RunResult":
            return ("SIM011", "RunResult field")
        if callee.startswith("repro.obs.events.") or terminal in self.event_classes:
            return ("SIM012", f"trace event {terminal}")
        if terminal == "key_of":
            return ("SIM013", "disk-cache key (key_of)")
        return None

    @staticmethod
    def _param_index(
        fn: dict[str, Any], edge: dict[str, Any], position: int
    ) -> Optional[int]:
        params = fn["params"]
        offset = 1 if (edge["method"] and params and params[0] in ("self", "cls")) else 0
        index = position + offset
        return index if index < len(params) else None

    # -- fixpoints ------------------------------------------------------- #

    def _fix_ret_taint(self) -> None:
        for _ in range(len(self.functions) + 1):
            changed = False
            for qual, (module, fn) in self.functions.items():
                if qual in self.ret_taint:
                    continue
                taint = self._return_taint_of(module, fn)
                if taint is not None:
                    self.ret_taint[qual] = taint
                    changed = True
            if not changed:
                return

    def _return_taint_of(
        self, module: dict[str, Any], fn: dict[str, Any]
    ) -> Optional[_Taint]:
        path = module["path"]
        for atom in fn["returns"]:
            if atom[0] == "src":
                _, kind, name, line = atom
                return _Taint(kind, name, [(path, line, f"{name} read here")])
            if atom[0] == "ret":
                _, callee, line = atom
                inner = self.ret_taint.get(callee)
                if inner is not None:
                    step = (
                        path,
                        line,
                        f"tainted value returned by {_short(callee)}()",
                    )
                    return _Taint(inner.kind, inner.name, inner.steps + [step])
        return None

    def _fix_reach(self) -> None:
        """SIM014 reachability: functions touching wall-clock/ambient state."""
        for qual, (module, fn) in self.functions.items():
            for kind, name, line in fn["sources"]:
                if kind in _SIM014_KINDS:
                    self.reach[qual] = _Taint(
                        kind, name, [(module["path"], line, f"{name} read here")]
                    )
                    break
        for _ in range(len(self.functions) + 1):
            changed = False
            for qual, (module, fn) in self.functions.items():
                if qual in self.reach:
                    continue
                for edge in fn["edges"]:
                    inner = self.reach.get(edge["callee"])
                    if inner is not None:
                        step = (
                            module["path"],
                            edge["line"],
                            f"calls {_short(edge['callee'])}()",
                        )
                        self.reach[qual] = _Taint(
                            inner.kind, inner.name, inner.steps + [step]
                        )
                        changed = True
                        break
            if not changed:
                return

    def _fix_param_sink(self) -> None:
        # Seed: parameters that reach a sink inside their own function.
        for qual, (module, fn) in self.functions.items():
            table = self.param_sink.setdefault(qual, {})
            path = module["path"]
            for edge in fn["edges"]:
                sink = self._sink_of(edge)
                if sink is None:
                    continue
                rule, label = sink
                for atoms in list(edge["args"]) + list(edge["kwargs"].values()):
                    for atom in atoms:
                        if atom[0] == "param" and atom[1] not in table:
                            table[atom[1]] = (
                                rule,
                                label,
                                [(path, edge["line"], f"flows into {label}")],
                            )
            if _short(fn["qual"]) in _CACHE_KEY_FUNCTIONS:
                for atom in fn["returns"]:
                    if atom[0] == "param" and atom[1] not in table:
                        table[atom[1]] = (
                            "SIM013",
                            "disk-cache key",
                            [
                                (
                                    path,
                                    fn["line"],
                                    f"returned from {_short(fn['qual'])}()",
                                )
                            ],
                        )
        # Propagate: an argument forwarded into a sinking parameter.
        for _ in range(len(self.functions) + 1):
            changed = False
            for qual, (module, fn) in self.functions.items():
                table = self.param_sink[qual]
                path = module["path"]
                for edge in fn["edges"]:
                    target = self.functions.get(edge["callee"])
                    if target is None:
                        continue
                    callee_fn = target[1]
                    callee_table = self.param_sink.get(edge["callee"], {})
                    if not callee_table:
                        continue
                    for position, atoms in enumerate(edge["args"]):
                        index = self._param_index(callee_fn, edge, position)
                        if index is None or index not in callee_table:
                            continue
                        rule, label, steps = callee_table[index]
                        for atom in atoms:
                            if atom[0] == "param" and atom[1] not in table:
                                step = (
                                    path,
                                    edge["line"],
                                    f"passed to {_short(edge['callee'])}()",
                                )
                                table[atom[1]] = (rule, label, [step] + steps)
                                changed = True
                    for name, atoms in edge["kwargs"].items():
                        if name not in callee_fn["params"]:
                            continue
                        index = callee_fn["params"].index(name)
                        if index not in callee_table:
                            continue
                        rule, label, steps = callee_table[index]
                        for atom in atoms:
                            if atom[0] == "param" and atom[1] not in table:
                                step = (
                                    path,
                                    edge["line"],
                                    f"passed to {_short(edge['callee'])}()",
                                )
                                table[atom[1]] = (rule, label, [step] + steps)
                                changed = True
            if not changed:
                return


def analyze(summaries: list[dict[str, Any]], source_lines=None) -> list[Finding]:
    """Run the whole-program determinism dataflow; returns sorted findings.

    *source_lines* optionally maps a display path to the file's split
    source lines, used to attach snippets to findings.
    """
    program = _Program(summaries)
    findings: list[Finding] = []
    seen: set[tuple[str, str, int]] = set()

    def snippet(path: str, line: int) -> str:
        if source_lines is None:
            return ""
        lines = source_lines.get(path)
        if lines and 1 <= line <= len(lines):
            return lines[line - 1].strip()
        return ""

    def report(
        rule: str,
        path: str,
        line: int,
        col: int,
        message: str,
        chain: list[tuple[str, int, str]],
    ) -> None:
        key = (rule, path, line)
        if key in seen:
            return
        seen.add(key)
        findings.append(
            Finding(
                rule=rule,
                path=path,
                line=line,
                col=col,
                message=message,
                snippet=snippet(path, line),
                chain=tuple(chain),
            )
        )

    for qual, (module, fn) in program.functions.items():
        path = module["path"]
        zone = module["zone"]
        in_sink_zone = zone in _SINK_ZONES

        for edge in fn["edges"]:
            sink = program._sink_of(edge) if in_sink_zone else None
            callee_entry = program.functions.get(edge["callee"])
            all_atom_groups = list(edge["args"]) + list(edge["kwargs"].values())

            # (A) Tainted value directly at a sink call site.
            if sink is not None:
                rule, label = sink
                for atoms in all_atom_groups:
                    for atom in atoms:
                        taint = _resolve_atom_taint(program, atom, path)
                        if taint is None:
                            continue
                        chain = taint.steps + [
                            (path, edge["line"], f"flows into {label}")
                        ]
                        report(
                            rule, path, edge["line"], edge["col"],
                            f"{label} receives a nondeterministic value "
                            f"from {taint.name} ({taint.kind}): "
                            + _render_chain(chain),
                            chain,
                        )

            # (C) Tainted value forwarded into a parameter that sinks.
            if callee_entry is not None and in_sink_zone:
                callee_fn = callee_entry[1]
                callee_table = program.param_sink.get(edge["callee"], {})
                if callee_table:
                    for position, atoms in enumerate(edge["args"]):
                        index = program._param_index(callee_fn, edge, position)
                        if index is None or index not in callee_table:
                            continue
                        rule, label, sink_steps = callee_table[index]
                        for atom in atoms:
                            taint = _resolve_atom_taint(program, atom, path)
                            if taint is None:
                                continue
                            step = (
                                path,
                                edge["line"],
                                f"passed to {_short(edge['callee'])}()",
                            )
                            chain = taint.steps + [step] + sink_steps
                            report(
                                rule, path, edge["line"], edge["col"],
                                f"{label} receives a nondeterministic value "
                                f"from {taint.name} ({taint.kind}) via "
                                f"{_short(edge['callee'])}(): "
                                + _render_chain(chain),
                                chain,
                            )
                    for name, atoms in edge["kwargs"].items():
                        if name not in callee_fn["params"]:
                            continue
                        index = callee_fn["params"].index(name)
                        if index not in callee_table:
                            continue
                        rule, label, sink_steps = callee_table[index]
                        for atom in atoms:
                            taint = _resolve_atom_taint(program, atom, path)
                            if taint is None:
                                continue
                            step = (
                                path,
                                edge["line"],
                                f"passed to {_short(edge['callee'])}()",
                            )
                            chain = taint.steps + [step] + sink_steps
                            report(
                                rule, path, edge["line"], edge["col"],
                                f"{label} receives a nondeterministic value "
                                f"from {taint.name} ({taint.kind}) via "
                                f"{_short(edge['callee'])}(): "
                                + _render_chain(chain),
                                chain,
                            )

            # (D) SIM014: sim-core function calling into ambient state.
            if zone == "sim-core" and callee_entry is not None:
                inner = program.reach.get(edge["callee"])
                if inner is not None:
                    chain = inner.steps + [
                        (path, edge["line"], f"called from {_short(qual)}()")
                    ]
                    report(
                        "SIM014", path, edge["line"], edge["col"],
                        f"sim-core function {_short(qual)}() transitively "
                        f"reaches {inner.name} ({inner.kind}) via "
                        f"{_short(edge['callee'])}(): " + _render_chain(chain),
                        chain,
                    )

        # (B) Return-value sinks: key_fragment / key_payload purity.
        if in_sink_zone and _short(fn["qual"]) in _CACHE_KEY_FUNCTIONS:
            for atom in fn["returns"]:
                taint = _resolve_atom_taint(program, atom, path)
                if taint is None:
                    continue
                line = atom[3] if atom[0] == "src" else atom[2]
                chain = taint.steps + [
                    (path, fn["line"], f"enters the cache key via {_short(fn['qual'])}()")
                ]
                report(
                    "SIM013", path, line, 0,
                    f"disk-cache key derives from {taint.name} ({taint.kind}); "
                    "cache keys must be pure functions of hashable config "
                    "fields: " + _render_chain(chain),
                    chain,
                )

        # (D) SIM014 direct: ambient reads inside the sim core itself.
        if zone == "sim-core":
            for kind, name, line in fn["sources"]:
                if kind == "ambient-host":
                    chain = [(path, line, f"{name} read here")]
                    report(
                        "SIM014", path, line, 0,
                        f"sim-core function {_short(qual)}() reads ambient "
                        f"host state {name}; results must be pure functions "
                        "of the configuration",
                        chain,
                    )

    return sorted(findings, key=Finding.sort_key)


def _resolve_atom_taint(
    program: _Program, atom: Atom, path: str
) -> Optional[_Taint]:
    """Taint behind *atom* with its source site as the first chain step."""
    if atom[0] == "src":
        _, kind, name, line = atom
        return _Taint(kind, name, [(path, line, f"{name} read here")])
    if atom[0] == "ret":
        return program.ret_taint.get(atom[1])
    return None


def _render_chain(chain: list[tuple[str, int, str]]) -> str:
    return " -> ".join(f"{path}:{line} ({note})" for path, line, note in chain)


__all__ = [
    "SUMMARY_VERSION",
    "SYNC_CTORS",
    "analyze",
    "module_name_of",
    "summarize_module",
]
