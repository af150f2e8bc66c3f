"""MET001/MET002/MET003 — metrics-schema conformance.

The observability layer's contract (DESIGN.md) is that every
instrument name matches ``repro_<subsystem>_*``, counters only ever
go up (``Counter.set`` exists solely for ``reset()`` paths), and a
given metric name carries the same label keys at every call site so
exports aggregate instead of fragmenting.

Names are resolved through one level of constant propagation: string
literals, f-strings over locals bound to literals or class-level
string constants (the ``WorkerStats.PREFIX`` idiom), and module-level
constants.  A name the resolver cannot settle is skipped, not
guessed at.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.astutil import (
    class_constants,
    iter_class_defs,
    leaf_name,
    module_constants,
    self_attr,
)
from repro.analysis.core import Finding, Rule, WARNING
from repro.analysis.walker import SourceFile

_INSTRUMENT_METHODS = {"counter", "gauge", "histogram"}
_NAME_RE = re.compile(r"^repro_[a-z0-9]+_[a-z0-9_]*[a-z0-9]$")

#: Function-name prefixes inside which ``Counter.set``/``dec`` is the
#: documented deliberate departure (reset paths).
_RESET_CONTEXTS = ("reset",)


class _NameResolver:
    """Resolve a metric-name expression to a string, or give up.

    Resolution is scope-aware on purpose: a bare ``name`` looks at
    locals then module constants, ``self.PREFIX`` looks only at the
    *enclosing* class's string constants, and ``Other.PREFIX`` at that
    class's — never at unrelated classes that happen to define an
    attribute with the same leaf name.
    """

    def __init__(self, source: SourceFile) -> None:
        assert source.tree is not None
        self.module_env = module_constants(source.tree)
        self.class_envs: Dict[str, Dict[str, str]] = {
            cls.name: class_constants(cls)
            for cls in iter_class_defs(source.tree)
        }
        self.locals: Dict[str, str] = {}
        self.current_class: Optional[str] = None

    def enter(self, func: ast.AST, cls_name: Optional[str]) -> None:
        """Set scope for resolution: record ``name = <resolvable>``
        assignments in ``func`` and the enclosing class."""
        self.current_class = cls_name
        self.locals = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    value = self.resolve(node.value)
                    if value is not None:
                        self.locals[target.id] = value

    def resolve(self, node: Optional[ast.AST]) -> Optional[str]:
        if node is None:
            return None
        if isinstance(node, ast.Constant):
            return node.value if isinstance(node.value, str) else None
        if isinstance(node, ast.Name):
            return self.locals.get(node.id) or self.module_env.get(node.id)
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name):
                if base.id in ("self", "cls"):
                    env = self.class_envs.get(self.current_class or "", {})
                    return env.get(node.attr)
                if base.id in self.class_envs:
                    return self.class_envs[base.id].get(node.attr)
            return None
        if isinstance(node, ast.JoinedStr):
            parts: List[str] = []
            for piece in node.values:
                if isinstance(piece, ast.Constant):
                    parts.append(str(piece.value))
                elif isinstance(piece, ast.FormattedValue):
                    resolved = self.resolve(piece.value)
                    if resolved is None:
                        return None
                    parts.append(resolved)
                else:
                    return None
            return "".join(parts)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left = self.resolve(node.left)
            right = self.resolve(node.right)
            if left is not None and right is not None:
                return left + right
        return None


def _registration_calls(
    tree: ast.Module,
) -> Iterable[Tuple[ast.Call, str, ast.AST, Optional[str]]]:
    """Yield ``(call, kind, enclosing_func, enclosing_class)`` for every
    ``<registry>.counter/gauge/histogram(...)`` call."""
    # Map nodes to their nearest enclosing function and class for
    # scope-aware constant resolution.
    enclosing: Dict[ast.AST, Tuple[ast.AST, Optional[str]]] = {}

    def mark(node: ast.AST, func: ast.AST, cls: Optional[str]) -> None:
        enclosing[node] = (func, cls)
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                mark(child, child, cls)
            elif isinstance(child, ast.ClassDef):
                mark(child, func, child.name)
            else:
                mark(child, func, cls)

    mark(tree, tree, None)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _INSTRUMENT_METHODS
        ):
            func, cls = enclosing.get(node, (tree, None))
            yield node, node.func.attr, func, cls


def _name_argument(call: ast.Call) -> Optional[ast.AST]:
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "name":
            return keyword.value
    return None


def _tag_keys(call: ast.Call) -> Optional[FrozenSetStr]:
    for keyword in call.keywords:
        if keyword.arg != "tags":
            continue
        if isinstance(keyword.value, ast.Dict):
            keys: Set[str] = set()
            for key in keyword.value.keys:
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    keys.add(key.value)
                else:
                    return None  # dynamic key: skip this site
            return frozenset(keys)
        return None  # tags=<expr>: unresolvable, skip
    return frozenset()


FrozenSetStr = frozenset


class MetricNameRule(Rule):
    id = "MET001"
    name = "metric-naming"
    description = "instrument names must match repro_<subsystem>_*"

    def visit(self, source: SourceFile) -> Iterable[Finding]:
        assert source.tree is not None
        resolver = _NameResolver(source)
        for call, kind, func, cls in _registration_calls(source.tree):
            resolver.enter(func, cls)
            name = resolver.resolve(_name_argument(call))
            if name is None:
                continue
            if not _NAME_RE.match(name):
                yield self.finding(
                    source,
                    call,
                    f"{kind} name {name!r} does not match "
                    f"'repro_<subsystem>_*' (lowercase, underscore-"
                    f"separated, repro_ prefix)",
                )
            elif kind == "counter" and not name.endswith("_total"):
                yield self.finding(
                    source,
                    call,
                    f"counter name {name!r} should end in '_total'",
                    severity=WARNING,
                )


class CounterDirectionRule(Rule):
    id = "MET002"
    name = "counter-direction"
    description = (
        "counters are increment-only outside reset() paths"
    )

    def visit(self, source: SourceFile) -> Iterable[Finding]:
        assert source.tree is not None
        counters = self._counter_bindings(source.tree)
        if not counters:
            return
        for cls_or_mod in [source.tree]:
            yield from self._scan(source, cls_or_mod, counters)

    # ------------------------------------------------------------------
    @staticmethod
    def _counter_bindings(tree: ast.Module) -> Set[str]:
        """Attribute/local names bound to ``<registry>.counter(...)``."""
        bound: Set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if not (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "counter"
            ):
                continue
            for target in node.targets:
                attr = self_attr(target)
                if attr is not None:
                    bound.add(attr)
                elif isinstance(target, ast.Name):
                    bound.add(target.id)
        return bound

    def _scan(
        self, source: SourceFile, tree: ast.Module, counters: Set[str]
    ) -> Iterable[Finding]:
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in {"set", "dec"}
            ):
                continue
            owner = node.func.value
            owner_name = self_attr(owner) or (
                owner.id if isinstance(owner, ast.Name) else None
            )
            if owner_name is None and isinstance(owner, ast.Call):
                # Chained: registry.counter("...").set(...)
                if (
                    isinstance(owner.func, ast.Attribute)
                    and owner.func.attr == "counter"
                ):
                    owner_name = "<counter>"
            if owner_name is None:
                continue
            if owner_name != "<counter>" and owner_name not in counters:
                continue
            if self._in_reset_context(source, node):
                continue
            yield self.finding(
                source,
                node,
                f"counter '{owner_name}' adjusted with .{node.func.attr}() "
                f"outside a reset() path; counters are "
                f"increment-only",
            )

    @staticmethod
    def _in_reset_context(source: SourceFile, node: ast.AST) -> bool:
        """True when ``node`` sits inside a function whose name starts
        with ``reset``."""
        assert source.tree is not None
        line = getattr(node, "lineno", 0)
        for candidate in ast.walk(source.tree):
            if not isinstance(
                candidate, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            start = candidate.lineno
            end = getattr(candidate, "end_lineno", start)
            if not (start <= line <= end):
                continue
            if candidate.name.startswith(_RESET_CONTEXTS):
                return True
        return False


class MetricLabelSchemaRule(Rule):
    id = "MET003"
    name = "metric-label-schema"
    description = "label keys for a metric name must agree across call sites"

    def __init__(self) -> None:
        # name -> {frozenset(keys) -> first (file, line)}
        self.schemas: Dict[str, Dict[frozenset, Tuple[str, int]]] = {}

    def visit(self, source: SourceFile) -> Iterable[Finding]:
        assert source.tree is not None
        resolver = _NameResolver(source)
        for call, _kind, func, cls in _registration_calls(source.tree):
            resolver.enter(func, cls)
            name = resolver.resolve(_name_argument(call))
            if name is None:
                continue
            keys = _tag_keys(call)
            if keys is None:
                continue
            sites = self.schemas.setdefault(name, {})
            sites.setdefault(keys, (source.rel, call.lineno))
        return ()

    def finalize(self) -> Iterable[Finding]:
        for name, sites in sorted(self.schemas.items()):
            if len(sites) < 2:
                continue
            rendered = sorted(
                (sorted(keys), where) for keys, where in sites.items()
            )
            canonical, _ = rendered[0]
            for keys, (file, line) in rendered[1:]:
                yield Finding(
                    rule=self.id,
                    file=file,
                    line=line,
                    message=(
                        f"metric {name!r} registered with label keys "
                        f"{keys or ['<none>']} here but "
                        f"{canonical or ['<none>']} elsewhere; label "
                        f"schemas must agree per metric name"
                    ),
                    severity=self.severity,
                )
