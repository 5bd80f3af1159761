"""Shard-protocol rules SIM021 and SIM023 over ``repro/shard/`` modules.

The sharded driver is bit-identical to serial only while its pipe
protocol holds; two of its invariants get a static rule each:

======= ===============================================================
SIM021  Every pipe-protocol tag sent by one side of the barrier must be
        handled by the other: parent-sent command tags must be compared
        in worker code (or fall to a catch-all ``else``); worker-sent
        reply tags must echo a parent command or be compared parent-side.
SIM023  Parent-only accounting state (perf counters, quantum stats,
        timelines) must not be mutated in worker-executed functions —
        the parent runs the one quantum loop that owns all accounting,
        so a worker-side mutation is lost at join or double-counted.
======= ===============================================================

The third shard rule, SIM022 (no thread/lock/pool state in the
fork-inherited sim core), is a per-file rule of :mod:`repro.analysis.rules`.

*Worker-executed* functions are the ``Process(target=...)`` targets plus
their transitive same-module callees; everything else in the module runs
parent-side.  Sides and tags are resolved from the module source alone,
so the pass works unchanged on golden fixtures.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.rules import Finding, zone_of

#: Attribute segments naming parent-only accounting state (SIM023).
PARENT_ONLY_ATTRS = frozenset(
    {"perf", "stats", "quantum_stats", "breakdown", "timeline"}
)

#: Method names that mutate an accounting object in place (SIM023).
_MUTATOR_METHODS = frozenset(
    {"record", "record_lengths", "add", "add_span", "append", "update", "increment"}
)


def is_shard_path(path: str) -> bool:
    return "repro/shard/" in path.replace("\\", "/")


def _snippet(lines: list[str], line: int) -> str:
    if 1 <= line <= len(lines):
        return lines[line - 1].strip()
    return ""


# --------------------------------------------------------------------- #
# Module model: functions, sides, tags
# --------------------------------------------------------------------- #


class _ShardModule:
    """Resolved view of one ``repro/shard/`` module."""

    def __init__(self, tree: ast.Module, path: str, lines: list[str]) -> None:
        self.path = path
        self.lines = lines
        self.functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        self.tags: dict[str, str] = {}  # constant name -> tag string
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self.functions[f"{node.name}.{item.name}"] = item
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._collect_constant(node)
        self.worker_functions = self._worker_closure()

    def _collect_constant(self, node: ast.Assign | ast.AnnAssign) -> None:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        value = node.value
        if value is None or len(targets) != 1 or not isinstance(targets[0], ast.Name):
            return
        name = targets[0].id
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            self.tags[name] = value.value

    def _worker_closure(self) -> set[str]:
        """``Process(target=F)`` targets plus transitive same-module callees."""
        roots: set[str] = set()
        for fn in self.functions.values():
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                if _terminal(node.func) != "Process":
                    continue
                for kw in node.keywords:
                    if (
                        kw.arg == "target"
                        and isinstance(kw.value, ast.Name)
                        and kw.value.id in self.functions
                    ):
                        roots.add(kw.value.id)
        closure = set(roots)
        frontier = list(roots)
        while frontier:
            name = frontier.pop()
            for node in ast.walk(self.functions[name]):
                if isinstance(node, ast.Call):
                    callee = None
                    if isinstance(node.func, ast.Name):
                        callee = node.func.id
                    if callee in self.functions and callee not in closure:
                        closure.add(callee)
                        frontier.append(callee)
        return closure

    def side_of(self, function_name: str) -> str:
        return "worker" if function_name in self.worker_functions else "parent"


def _terminal(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


# --------------------------------------------------------------------- #
# SIM021: pipe-protocol tag pairing
# --------------------------------------------------------------------- #


class _ProtocolUse:
    """Send/compare sites of the tag constants, split by side."""

    def __init__(self) -> None:
        self.sends: dict[str, dict[str, tuple[int, int]]] = {
            "parent": {},
            "worker": {},
        }
        self.compares: dict[str, set[str]] = {"parent": set(), "worker": set()}
        self.catch_all: dict[str, bool] = {"parent": False, "worker": False}


def _collect_protocol(module: _ShardModule) -> _ProtocolUse:
    use = _ProtocolUse()
    tag_names = set(module.tags)
    for name, fn in module.functions.items():
        side = module.side_of(name)
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and _terminal(node.func) == "send":
                tag = _sent_tag(node, tag_names)
                if tag is not None:
                    use.sends[side].setdefault(
                        tag, (node.lineno, node.col_offset)
                    )
            elif isinstance(node, ast.Compare):
                for comparator in [node.left, *node.comparators]:
                    if (
                        isinstance(comparator, ast.Name)
                        and comparator.id in tag_names
                    ):
                        use.compares[side].add(comparator.id)
                    elif isinstance(comparator, (ast.Tuple, ast.List, ast.Set)):
                        for element in comparator.elts:
                            if (
                                isinstance(element, ast.Name)
                                and element.id in tag_names
                            ):
                                use.compares[side].add(element.id)
            elif isinstance(node, ast.If) and _compares_tag(node.test, tag_names):
                if _chain_has_catch_all(node):
                    use.catch_all[side] = True
    return use


def _sent_tag(node: ast.Call, tag_names: set[str]) -> Optional[str]:
    """Tag constant heading a ``conn.send((TAG, ...))`` payload, if any."""
    if not node.args:
        return None
    payload = node.args[0]
    if isinstance(payload, ast.Tuple) and payload.elts:
        payload = payload.elts[0]
    if isinstance(payload, ast.Name) and payload.id in tag_names:
        return payload.id
    return None


def _compares_tag(test: ast.expr, tag_names: set[str]) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and node.id in tag_names:
            return True
    return False


def _chain_has_catch_all(node: ast.If) -> bool:
    """Does this if/elif chain on tags end in a plain ``else`` body?"""
    current = node
    while True:
        orelse = current.orelse
        if not orelse:
            return False
        if len(orelse) == 1 and isinstance(orelse[0], ast.If):
            current = orelse[0]
            continue
        return True


def _check_tag_pairing(module: _ShardModule) -> list[Finding]:
    use = _collect_protocol(module)
    findings: list[Finding] = []
    pairings = (
        # (sender, receiver, what the receiver must do with the tag)
        ("parent", "worker", "compared in worker code"),
        ("worker", "parent", "recognized parent-side"),
    )
    for sender, receiver, requirement in pairings:
        for tag, (line, col) in sorted(use.sends[sender].items()):
            handled = tag in use.compares[receiver] or use.catch_all[receiver]
            if sender == "worker":
                # Echo convention: a reply tagged with the command it
                # answers pairs trivially with the parent's send.
                handled = handled or tag in use.sends["parent"]
            if handled:
                continue
            findings.append(
                Finding(
                    rule="SIM021",
                    path=module.path,
                    line=line,
                    col=col,
                    message=(
                        f"pipe tag {tag} ({module.tags[tag]!r}) is sent "
                        f"{sender}-side but never {requirement}; an unpaired "
                        "tag deadlocks or desynchronizes the per-quantum "
                        "barrier"
                    ),
                    snippet=_snippet(module.lines, line),
                )
            )
    return findings


# --------------------------------------------------------------------- #
# SIM023: parent-only accounting in worker code
# --------------------------------------------------------------------- #


def _check_worker_accounting(module: _ShardModule) -> list[Finding]:
    findings: list[Finding] = []
    for name in sorted(module.worker_functions):
        fn = module.functions[name]
        for node in ast.walk(fn):
            hit: Optional[tuple[int, int, str]] = None
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    attr = _accounting_attr(target)
                    if attr is not None:
                        hit = (target.lineno, target.col_offset, f"writes .{attr}")
                        break
            elif isinstance(node, ast.Call):
                terminal = _terminal(node.func)
                if (
                    terminal in _MUTATOR_METHODS
                    and isinstance(node.func, ast.Attribute)
                    and _accounting_attr(node.func.value) is not None
                ):
                    attr = _accounting_attr(node.func.value)
                    hit = (
                        node.lineno,
                        node.col_offset,
                        f"calls .{attr}.{terminal}()",
                    )
            if hit is None:
                continue
            line, col, what = hit
            findings.append(
                Finding(
                    rule="SIM023",
                    path=module.path,
                    line=line,
                    col=col,
                    message=(
                        f"worker-executed {name}() {what}: parent-only "
                        "accounting must be mutated by the parent only (its "
                        "quantum loop owns all accounting; worker mutations "
                        "are lost at join or double-counted)"
                    ),
                    snippet=_snippet(module.lines, line),
                )
            )
    return findings


def _accounting_attr(node: ast.expr) -> Optional[str]:
    """The parent-only attribute segment in an attribute chain, if any."""
    current: Optional[ast.expr] = node
    if isinstance(current, ast.Subscript):
        current = current.value
    while isinstance(current, ast.Attribute):
        if current.attr in PARENT_ONLY_ATTRS:
            return current.attr
        current = current.value
    return None


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #


def check_shard_source(source: str, path: str) -> list[Finding]:
    """SIM021/SIM023 findings for one ``repro/shard/`` module."""
    if zone_of(path) != "sim-core" or not is_shard_path(path):
        return []
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return []  # SIM000 already reported by the per-file pass
    module = _ShardModule(tree, path, source.splitlines())
    findings = _check_tag_pairing(module) + _check_worker_accounting(module)
    return sorted(findings, key=Finding.sort_key)


__all__ = [
    "PARENT_ONLY_ATTRS",
    "check_shard_source",
    "is_shard_path",
]
