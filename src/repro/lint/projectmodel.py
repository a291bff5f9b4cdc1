"""Whole-project model for interprocedural lint rules.

:func:`build_project_model` runs one deterministic pass over every
collected :class:`~repro.lint.base.FileContext` and produces a
:class:`ProjectModel` with three layers:

* a **module graph** — dotted module names derived from file paths plus
  the per-module import table (local binding → dotted target), so rules
  can resolve ``sleep(...)`` to ``time.sleep`` through a
  ``from time import sleep``;
* a **symbol table** — every function and method in the tree, keyed by
  qualified name (``repro.fabric.broker.Broker.run``,
  ``repro.net.node.LiveNode._heartbeat_loop``), each with its AST node,
  parameters, and async-ness;
* a **call-graph approximation** — per function, the dotted names its
  body calls, resolved through the import table, module-level
  definitions, and ``self.``/``cls.`` method dispatch.  Unresolvable
  calls (attribute chains on arbitrary objects) are simply absent: the
  graph is sound for name-based reachability questions, not complete.

On top of the call graph the model answers the two questions the
concurrency rules need: which functions are *dispatched onto a
concurrent executor* (handed to ``pool.map``/``submit``,
``loop.create_task``, ``run_in_executor``, ``Thread(target=...)``, an
``asyncio.start_server`` callback, ...) and therefore run concurrently
with the code that spawned them (:meth:`ProjectModel.concurrent_entry_
points` + :meth:`ProjectModel.reachable`), and which *parameters* of
which functions flow into such a dispatch (:meth:`ProjectModel.
concurrent_sink_params`, a fixpoint over one level of forwarding per
round) so a taint rule can follow a generator through helper calls.

Everything iterates in sorted order — the model is a pure function of
the file set, and rule output built from it stays byte-deterministic.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import Iterable, Union

from repro.lint.base import FileContext

_BUILTIN_NAMES = frozenset(dir(builtins))

__all__ = [
    "FunctionInfo",
    "ModuleInfo",
    "ProjectModel",
    "build_project_model",
    "attr_chain",
]

#: Method names that hand a callable (or a just-created coroutine
#: object) to a concurrent executor.  Matched as ``obj.<name>(...)`` —
#: the receiver is deliberately ignored, because pools, loops, and
#: executors arrive through many local names.
DISPATCH_METHODS = frozenset(
    {
        "map",
        "starmap",
        "imap",
        "imap_unordered",
        "submit",
        "apply",
        "apply_async",
        "map_async",
        "starmap_async",
        "run_in_executor",
        "create_task",
        "ensure_future",
        "start_server",
        "call_soon",
        "call_soon_threadsafe",
        "call_later",
    }
)

#: Constructors whose ``target=`` keyword is a concurrent entry point.
DISPATCH_CLASSES = frozenset({"Thread", "Process", "Timer"})

#: Positional index of the *callable* operand per dispatcher; payload
#: arguments (the ones forwarded into the callable) start right after.
#: ``run_in_executor(executor, fn, *args)`` puts the callable second.
_CALLABLE_INDEX = {"run_in_executor": 1, "call_later": 1}


def attr_chain(node: ast.AST) -> list[str]:
    """``np.random.default_rng`` → ``["np", "random", "default_rng"]``
    (empty when the chain does not bottom out at a plain name)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return []
    parts.append(node.id)
    return parts[::-1]


def module_name_for(path: str) -> str:
    """Dotted module name for a posix-relative file label.

    ``src/repro/sim/engine.py`` → ``repro.sim.engine``; ``__init__.py``
    maps to its package; ``..`` segments (out-of-root files) and a
    leading ``src`` are dropped so labels resolve the same from any
    lint root.
    """
    parts = [p for p in path.split("/") if p not in ("..", ".")]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function or method, with everything rules ask about it."""

    qualname: str
    module: str
    ctx: FileContext
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    is_async: bool
    class_name: Union[str, None]
    params: tuple[str, ...]
    #: bare names assigned anywhere in the body (shadowing detection)
    local_names: frozenset[str] = frozenset()
    #: resolved dotted callee names, source order, duplicates kept
    calls: tuple[str, ...] = ()


@dataclass
class ModuleInfo:
    """One collected file as a module: imports plus its definitions."""

    name: str
    ctx: FileContext
    #: local binding → dotted target (``m`` → ``x.y`` for
    #: ``import x.y as m``; ``f`` → ``pkg.f`` for ``from pkg import f``)
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level function/class-method qualnames defined here
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: top-level class names defined here
    classes: tuple[str, ...] = ()


def _collect_imports(tree: ast.Module, module: str) -> dict[str, str]:
    imports: dict[str, str] = {}
    package = module.rsplit(".", 1)[0] if "." in module else ""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    imports[alias.asname] = alias.name
                else:
                    # ``import x.y`` binds ``x``; dotted use resolves
                    # through the chain (x → x, then .y.z appended)
                    top = alias.name.split(".")[0]
                    imports[top] = top
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package
                for _ in range(node.level - 1):
                    anchor = anchor.rsplit(".", 1)[0] if "." in anchor else ""
                base = f"{anchor}.{base}" if base else anchor
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports


def _local_assigned_names(
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
) -> frozenset[str]:
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            for t in ast.walk(sub.target):
                if isinstance(t, ast.Name):
                    names.add(t.id)
    return frozenset(names)


def _param_names(
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
) -> tuple[str, ...]:
    a = node.args
    params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
    if a.vararg is not None:
        params.append(a.vararg.arg)
    if a.kwarg is not None:
        params.append(a.kwarg.arg)
    return tuple(params)


class ProjectModel:
    """The assembled whole-project view handed to every ProjectRule."""

    def __init__(self, ctxs: list[FileContext]):
        self.ctxs = ctxs
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: (path, lineno, col, name) → FunctionInfo, for node lookup
        self._by_site: dict[tuple[str, int, int, str], FunctionInfo] = {}
        self._entry_cache: Union[tuple[str, ...], None] = None
        self._sink_cache: Union[dict[str, frozenset[str]], None] = None
        for ctx in sorted(ctxs, key=lambda c: c.path):
            self._ingest(ctx)
        # second pass: resolve call edges (needs the full symbol table)
        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            info.calls = tuple(
                name
                for node in ast.walk(info.node)
                if isinstance(node, ast.Call)
                for name in [self.resolve(info, node.func)]
                if name is not None
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _ingest(self, ctx: FileContext) -> None:
        mod_name = module_name_for(ctx.path)
        if mod_name in self.modules:
            return  # first (sorted) occurrence wins on collisions
        mod = ModuleInfo(
            name=mod_name,
            ctx=ctx,
            imports=_collect_imports(ctx.tree, mod_name),
        )
        classes: list[str] = []

        def add_function(
            node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
            class_name: Union[str, None],
        ) -> None:
            prefix = f"{mod_name}.{class_name}." if class_name else f"{mod_name}."
            info = FunctionInfo(
                qualname=f"{prefix}{node.name}",
                module=mod_name,
                ctx=ctx,
                node=node,
                is_async=isinstance(node, ast.AsyncFunctionDef),
                class_name=class_name,
                params=_param_names(node),
                local_names=_local_assigned_names(node),
            )
            if info.qualname not in mod.functions:
                mod.functions[info.qualname] = info
                self.functions[info.qualname] = info
                self._by_site[
                    (ctx.path, node.lineno, node.col_offset, node.name)
                ] = info

        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add_function(stmt, None)
            elif isinstance(stmt, ast.ClassDef):
                classes.append(stmt.name)
                for sub in stmt.body:
                    if isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        add_function(sub, stmt.name)
        mod.classes = tuple(classes)
        self.modules[mod_name] = mod

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def module_of(self, ctx: FileContext) -> Union[ModuleInfo, None]:
        return self.modules.get(module_name_for(ctx.path))

    def function_for(
        self,
        ctx: FileContext,
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
    ) -> Union[FunctionInfo, None]:
        return self._by_site.get(
            (ctx.path, node.lineno, node.col_offset, node.name)
        )

    def resolve(
        self, scope: FunctionInfo, func: ast.AST
    ) -> Union[str, None]:
        """Dotted name a call target resolves to, or ``None``.

        Resolution order: ``self.``/``cls.`` method dispatch in the
        enclosing class, module-level definitions, the import table
        (modules, imported functions, and imported classes — so
        ``RingState.build(...)`` resolves through
        ``from repro.core.state import RingState``).  Parameters and
        local variables shadow everything and resolve to ``None``.
        """
        chain = attr_chain(func)
        if not chain:
            return None
        mod = self.modules.get(scope.module)
        if mod is None:
            return None
        head = chain[0]
        if head in ("self", "cls") and scope.class_name is not None:
            if len(chain) == 2:
                qual = f"{scope.module}.{scope.class_name}.{chain[1]}"
                return qual if qual in self.functions else None
            return None
        if head in scope.params or head in scope.local_names:
            return None
        if len(chain) == 1:
            qual = f"{scope.module}.{head}"
            if qual in self.functions:
                return qual
        if head in mod.imports:
            dotted = mod.imports[head]
            if len(chain) > 1:
                dotted = f"{dotted}.{'.'.join(chain[1:])}"
            return dotted
        if head in mod.classes and len(chain) == 2:
            qual = f"{scope.module}.{head}.{chain[1]}"
            return qual if qual in self.functions else None
        if len(chain) == 1 and head in _BUILTIN_NAMES:
            return head
        return None

    def resolve_reference(
        self, scope: FunctionInfo, node: ast.AST
    ) -> Union[str, None]:
        """Like :meth:`resolve`, for a bare callable reference
        (``pool.submit(worker, ...)`` hands ``worker`` uncalled)."""
        return self.resolve(scope, node)

    # ------------------------------------------------------------------
    # reachability
    # ------------------------------------------------------------------
    def reachable(self, seeds: Iterable[str]) -> frozenset[str]:
        """Project functions reachable from ``seeds`` over call edges."""
        seen: set[str] = set()
        frontier = sorted(q for q in seeds if q in self.functions)
        while frontier:
            nxt: set[str] = set()
            for qual in frontier:
                if qual in seen:
                    continue
                seen.add(qual)
                for callee in self.functions[qual].calls:
                    if callee in self.functions and callee not in seen:
                        nxt.add(callee)
            frontier = sorted(nxt)
        return frozenset(seen)

    def _dispatch_sites(
        self, info: FunctionInfo
    ) -> list[tuple[ast.Call, list[ast.AST], list[ast.AST]]]:
        """Every dispatcher call in ``info``: (call, callable-operands,
        payload-args forwarded into the dispatched callable)."""
        sites: list[tuple[ast.Call, list[ast.AST], list[ast.AST]]] = []
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if not chain:
                continue
            name = chain[-1]
            if name in DISPATCH_METHODS and len(chain) > 1:
                idx = _CALLABLE_INDEX.get(name, 0)
                if len(node.args) <= idx:
                    continue
                sites.append(
                    (node, [node.args[idx]], list(node.args[idx + 1 :]))
                )
            elif name in DISPATCH_CLASSES:
                callables = [
                    kw.value for kw in node.keywords if kw.arg == "target"
                ]
                payload: list[ast.AST] = []
                for kw in node.keywords:
                    if kw.arg in ("args", "kwargs"):
                        payload.extend(ast.walk(kw.value))
                if callables:
                    sites.append((node, callables, payload))
        return sites

    def concurrent_entry_points(self) -> tuple[str, ...]:
        """Project functions handed to a concurrency dispatcher
        anywhere in the tree (worker bodies, loop tasks, callbacks)."""
        if self._entry_cache is not None:
            return self._entry_cache
        entries: set[str] = set()
        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            for _call, callables, _payload in self._dispatch_sites(info):
                for ref in callables:
                    target = ref.func if isinstance(ref, ast.Call) else ref
                    resolved = self.resolve(info, target)
                    if resolved in self.functions:
                        entries.add(resolved)
        self._entry_cache = tuple(sorted(entries))
        return self._entry_cache

    def concurrent_sink_params(self) -> dict[str, frozenset[str]]:
        """Per function: parameters that flow into a concurrent
        dispatch — directly as payload, or forwarded into another
        function's sink parameter (fixpoint over call sites)."""
        if self._sink_cache is not None:
            return self._sink_cache
        sinks: dict[str, set[str]] = {q: set() for q in self.functions}
        # direct: a parameter appearing in dispatcher payload args
        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            for _call, _callables, payload in self._dispatch_sites(info):
                for arg in payload:
                    for sub in ast.walk(arg) if not isinstance(
                        arg, ast.Name
                    ) else [arg]:
                        if (
                            isinstance(sub, ast.Name)
                            and sub.id in info.params
                        ):
                            sinks[qualname].add(sub.id)
        # propagate: calling g(p) where p lands on a sink param of g
        changed = True
        rounds = 0
        while changed and rounds <= len(self.functions):
            changed = False
            rounds += 1
            for qualname in sorted(self.functions):
                info = self.functions[qualname]
                for node in ast.walk(info.node):
                    if not isinstance(node, ast.Call):
                        continue
                    callee = self.resolve(info, node.func)
                    if callee not in self.functions:
                        continue
                    callee_info = self.functions[callee]
                    callee_sinks = sinks[callee]
                    if not callee_sinks:
                        continue
                    for pos, arg in enumerate(node.args):
                        if not isinstance(arg, ast.Name):
                            continue
                        if arg.id not in info.params:
                            continue
                        # positional → callee param (methods called via
                        # self.x() shift by one for the bound receiver)
                        shift = (
                            1
                            if callee_info.class_name is not None
                            and isinstance(node.func, ast.Attribute)
                            and attr_chain(node.func)[:1] in (["self"], ["cls"])
                            else 0
                        )
                        cp = callee_info.params
                        target_pos = pos + shift
                        if (
                            target_pos < len(cp)
                            and cp[target_pos] in callee_sinks
                            and arg.id not in sinks[qualname]
                        ):
                            sinks[qualname].add(arg.id)
                            changed = True
                    for kw in node.keywords:
                        if (
                            kw.arg in callee_sinks
                            and isinstance(kw.value, ast.Name)
                            and kw.value.id in info.params
                            and kw.value.id not in sinks[qualname]
                        ):
                            sinks[qualname].add(kw.value.id)
                            changed = True
        self._sink_cache = {
            q: frozenset(names) for q, names in sinks.items()
        }
        return self._sink_cache

    def dispatch_sites(
        self, info: FunctionInfo
    ) -> list[tuple[ast.Call, list[ast.AST], list[ast.AST]]]:
        """Public accessor for rules (same shape as _dispatch_sites)."""
        return self._dispatch_sites(info)


def build_project_model(ctxs: list[FileContext]) -> ProjectModel:
    """One deterministic whole-project pass over the collected files."""
    return ProjectModel(ctxs)
