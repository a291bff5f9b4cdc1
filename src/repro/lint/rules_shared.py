"""R008 shared-state hazard: concurrent code must not mutate shared state.

The trial fabric and the live node both promise bit-identical seeded
results, and both keep that promise the same way: concurrent workers
only ever write *disjoint* data (per-trial result slots keyed by
index).  Any other shared mutable write from concurrently-executing
code is a race that a green test run cannot rule out.  R008 pins the
discipline statically, using the project model's call graph:

* **Part A — module-level mutable state.**  A module-level ``dict`` /
  ``list`` / ``set`` (or ``defaultdict``/``Counter``/``deque``/... )
  mutated by a function *reachable from a concurrent entry point* — a
  function handed to ``pool.map``/``submit``, ``loop.create_task``,
  ``run_in_executor``, ``Thread(target=...)``, an asyncio server
  callback — is flagged at the mutation site.  Fork-inherited
  per-process caches (a worker-side attachment cache, say) are
  legitimate, but each such write carries a justified inline
  suppression so the exemption is visible in the diff.
* **Part B — shared-memory slab writes.**  A NumPy view over a
  ``multiprocessing.shared_memory`` buffer (``np.frombuffer(shm.buf)``
  or the worker-side ``_attach`` helper) written through a subscript
  outside the blessed writer (``_ShmMirror.write``, called strictly
  *between* parallel phases) bypasses the partition's disjointness
  contract.  No module in the tree uses shared memory today; the rule
  keeps any future one honest.
"""

from __future__ import annotations

import ast
from typing import Iterator, Union

from repro.lint.base import ProjectRule, register
from repro.lint.findings import Finding
from repro.lint.projectmodel import (
    FunctionInfo,
    ProjectModel,
    attr_chain,
)

__all__ = ["SharedStateHazard"]

#: Constructors whose result is mutable shared state when bound at
#: module level.
_MUTABLE_FACTORIES = frozenset(
    {
        "dict",
        "list",
        "set",
        "Counter",
        "defaultdict",
        "deque",
        "OrderedDict",
    }
)

#: Method calls that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "remove",
        "discard",
        "pop",
        "popitem",
        "popleft",
        "appendleft",
        "clear",
        "setdefault",
        "sort",
        "reverse",
    }
)

#: Qualname suffixes sanctioned to write shared-memory views: the
#: engine-side mirror writer runs between parallel phases, never inside
#: one.
_BLESSED_SHM_WRITERS = ("._ShmMirror.write",)


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call):
        chain = attr_chain(node.func)
        return bool(chain) and chain[-1] in _MUTABLE_FACTORIES
    return False


def _module_level_mutables(tree: ast.Module) -> dict[str, int]:
    """``{name: lineno}`` of module-level mutable bindings (dunders like
    ``__all__`` excluded — nothing mutates an export list at runtime)."""
    out: dict[str, int] = {}
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: Union[ast.expr, None] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None or not _is_mutable_literal(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and not (
                target.id.startswith("__") and target.id.endswith("__")
            ):
                out[target.id] = stmt.lineno
    return out


def _uses_shared_memory(ctx_tree: ast.Module) -> bool:
    for node in ast.walk(ctx_tree):
        if isinstance(node, ast.Import):
            if any(
                a.name.startswith("multiprocessing") for a in node.names
            ):
                return True
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if mod.startswith("multiprocessing") or any(
                a.name == "shared_memory" for a in node.names
            ):
                return True
    return False


def _is_shm_view_source(node: ast.AST) -> bool:
    """Whether an assignment RHS produces a view over a shared-memory
    buffer: ``np.frombuffer(<anything>.buf, ...)``, or a call to a
    worker-side attach helper (a function named ``_attach``/``attach``),
    optionally sliced (``_attach(...)[:n]``)."""
    if isinstance(node, ast.Subscript):
        return _is_shm_view_source(node.value)
    if not isinstance(node, ast.Call):
        return False
    chain = attr_chain(node.func)
    if chain and chain[-1] == "frombuffer":
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Attribute) and sub.attr == "buf":
                    return True
        return False
    return bool(chain) and chain[-1] in ("_attach", "attach")


@register
class SharedStateHazard(ProjectRule):
    """R008: no shared mutable writes from concurrently-running code."""

    rule_id = "R008"
    name = "shared-state-hazard"
    summary = (
        "no module-level mutable or out-of-partition shared-memory "
        "writes from concurrent workers"
    )

    SCOPE_DIRS = ("sim", "net", "fabric")

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        entries = project.concurrent_entry_points()
        reachable = project.reachable(entries)
        # entry -> functions it reaches, for attribution in messages
        reached_by: dict[str, list[str]] = {}
        for entry in entries:
            for fn in project.reachable([entry]):
                reached_by.setdefault(fn, []).append(entry)
        for qualname in sorted(project.functions):
            info = project.functions[qualname]
            if not info.ctx.in_dirs(*self.SCOPE_DIRS):
                continue
            if qualname in reachable:
                via = sorted(reached_by.get(qualname, []))[:1]
                yield from self._check_module_mutables(
                    project, info, via[0] if via else qualname
                )
            if _uses_shared_memory(info.ctx.tree):
                yield from self._check_shm_writes(info)

    # ------------------------------------------------------------------
    # Part A: module-level mutable state
    # ------------------------------------------------------------------
    def _check_module_mutables(
        self, project: ProjectModel, info: FunctionInfo, entry: str
    ) -> Iterator[Finding]:
        mod = project.modules.get(info.module)
        if mod is None:
            return
        mutables = _module_level_mutables(mod.ctx.tree)
        if not mutables:
            return
        shadowed = set(info.params) | set(info.local_names)
        globals_declared: set[str] = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                globals_declared.update(node.names)
        live = {
            n
            for n in mutables
            if n not in shadowed or n in globals_declared
        }
        if not live:
            return

        def hit(name: str, node: ast.AST, how: str) -> Finding:
            return self.finding(
                info.ctx,
                node,
                f"module-level mutable `{name}` {how} in "
                f"`{info.qualname}`, which runs concurrently "
                f"(reachable from `{entry}`) — shared mutation is a "
                "race; pass state explicitly or keep it per-process "
                "with a justified suppression",
            )

        for node in ast.walk(info.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    base = target
                    while isinstance(
                        base, (ast.Subscript, ast.Attribute)
                    ):
                        base = base.value
                    if (
                        isinstance(base, ast.Name)
                        and base.id in live
                        and base is not target
                    ):
                        yield hit(base.id, node, "written")
                    elif (
                        isinstance(target, ast.Name)
                        and target.id in live
                        and target.id in globals_declared
                    ):
                        yield hit(target.id, node, "rebound via global")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    base = target
                    while isinstance(
                        base, (ast.Subscript, ast.Attribute)
                    ):
                        base = base.value
                    if isinstance(base, ast.Name) and base.id in live:
                        yield hit(base.id, node, "deleted from")
            elif isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                if (
                    len(chain) == 2
                    and chain[0] in live
                    and chain[1] in _MUTATOR_METHODS
                ):
                    yield hit(
                        chain[0], node, f"mutated via .{chain[1]}()"
                    )

    # ------------------------------------------------------------------
    # Part B: shared-memory slab writes
    # ------------------------------------------------------------------
    def _check_shm_writes(self, info: FunctionInfo) -> Iterator[Finding]:
        if any(
            info.qualname.endswith(suffix)
            for suffix in _BLESSED_SHM_WRITERS
        ):
            return
        views: set[str] = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign):
                if _is_shm_view_source(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            views.add(target.id)
            elif isinstance(node, ast.AnnAssign):
                if node.value is not None and _is_shm_view_source(
                    node.value
                ):
                    if isinstance(node.target, ast.Name):
                        views.add(node.target.id)
        if not views:
            return
        for node in ast.walk(info.node):
            if not isinstance(node, (ast.Assign, ast.AugAssign)):
                continue
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in views
                ):
                    yield self.finding(
                        info.ctx,
                        node,
                        f"shared-memory view `{target.value.id}` "
                        f"written in `{info.qualname}` outside the "
                        "blessed _ShmMirror.write path — out-of-"
                        "partition slab writes break the partition's "
                        "disjointness contract (kernels may mutate "
                        "only their own arc)",
                    )
