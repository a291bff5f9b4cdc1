"""R001 rng-discipline and R002 nondeterminism-hazard.

Both rules defend the same guarantee from different directions: every
stochastic draw in a seeded run must come from a ``numpy.random.Generator``
that was derived (via :mod:`repro.util.rng`) from the run's
``SeedSequence``, and nothing else in the simulation may observe
run-to-run-varying state (wall clock, OS entropy, hash-order of sets).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.base import FileContext, ProjectRule, Rule, register
from repro.lint.findings import Finding
from repro.lint.projectmodel import FunctionInfo, ProjectModel

__all__ = ["RngDiscipline", "NondeterminismHazard", "RngStreamAliasing"]

#: The one module allowed to construct generators from raw seeds.
RNG_MODULE_TAIL = "util/rng.py"

#: ``np.random.<name>`` calls that mint or mutate RNG state, or sample
#: from the *global* generator.  ``SeedSequence`` is deliberately absent:
#: deriving child seeds is bookkeeping, not sampling, and the trial
#: runner does it far from util/rng.py.
_BANNED_NP_RANDOM = {
    "default_rng",
    "seed",
    "get_state",
    "set_state",
    "Generator",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
    # legacy global-state samplers
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "ranf",
    "sample",
    "choice",
    "shuffle",
    "permutation",
    "bytes",
    "uniform",
    "normal",
    "standard_normal",
    "beta",
    "binomial",
    "poisson",
    "exponential",
    "gamma",
    "geometric",
    "zipf",
}


def _attr_chain(node: ast.AST) -> list[str]:
    """``np.random.default_rng`` -> ["np", "random", "default_rng"]."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        return []
    return parts[::-1]


@register
class RngDiscipline(Rule):
    """R001: randomness flows only through ``repro.util.rng``.

    Flags, outside ``util/rng.py``:

    * ``import random`` / ``from random import ...`` (the stdlib global
      Mersenne Twister — unseedable per-run, shared process state);
    * ``np.random.default_rng`` / ``np.random.seed`` /
      ``np.random.Generator(...)`` and friends (ad-hoc generator
      construction bypasses the SeedSequence spawn tree);
    * legacy ``np.random.<sampler>()`` calls that draw from numpy's
      hidden global generator;
    * any ``.random_raw`` (raw bit-generator words): replaying NumPy's
      samplers over raw words is exact only as
      :func:`repro.util.rng.bounded_int` / ``uniform_word_id`` do it, so
      a second replay elsewhere could drift from NumPy unnoticed.

    RNG must arrive as a ``numpy.random.Generator`` *parameter*, built
    by :func:`repro.util.rng.make_rng` or spawned by the trial runner.
    Annotations (``rng: np.random.Generator``) are not calls and are
    never flagged.
    """

    rule_id = "R001"
    name = "rng-discipline"
    summary = "randomness must flow through util/rng.py Generators"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.is_file(RNG_MODULE_TAIL):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith(
                        "random."
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            "stdlib `import random` — draw from the "
                            "np.random.Generator parameter instead "
                            "(see util/rng.py)",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        ctx,
                        node,
                        "`from random import ...` — stdlib global RNG "
                        "is not seed-reproducible here; use the "
                        "Generator parameter",
                    )
            elif isinstance(node, ast.Attribute):
                if node.attr == "random_raw":
                    yield self.finding(
                        ctx,
                        node,
                        "`.random_raw` outside util/rng.py — draw through "
                        "repro.util.rng.bounded_int / uniform_word_id, "
                        "the one exact replay of NumPy's samplers",
                    )
            elif isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if (
                    len(chain) >= 3
                    and chain[-2] == "random"
                    and chain[0] in ("np", "numpy")
                    and chain[-1] in _BANNED_NP_RANDOM
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"`{'.'.join(chain)}(...)` outside util/rng.py — "
                        "construct generators with "
                        "repro.util.rng.make_rng and pass them down",
                    )


#: Wall-clock / entropy calls banned inside simulation logic.
#: ``time.perf_counter`` is included: even duration measurement is
#: nondeterministic state, so it needs an explicit allowlist entry or a
#: justified suppression.  ``time.sleep`` is not here — it observes
#: nothing.
_BANNED_TIME_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("os", "urandom"),
    ("os", "getrandom"),
    ("uuid", "uuid1"),
    ("uuid", "uuid3"),
    ("uuid", "uuid4"),
    ("uuid", "uuid5"),
    ("secrets", "token_bytes"),
    ("secrets", "token_hex"),
    ("secrets", "randbelow"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
}

#: Files allowed to read the wall clock: user-facing reporting and the
#: live measurement layer, where elapsed-seconds output is the point and
#: never feeds simulation state.  Only the *clock* check is waived —
#: id()-keys, set-order, and parallelism checks still apply.
WALLCLOCK_ALLOWLIST = (
    "repro/cli.py",
    # The stress generator exists to measure wall-clock latency and
    # convergence time on a live ring; every decision it makes (keys,
    # targets, op mix) still comes from seeded generators.
    "repro/net/stress.py",
    # Subprocess startup/shutdown deadlines: timeouts on real child
    # processes are inherently wall-clock; nothing feeds results.
    "repro/net/cluster.py",
    # The trial-fabric broker: lease deadlines, ETA estimates and
    # status-file rate limiting are scheduling metadata.  Results are assembled by unit index from seeds fixed at
    # queue-build time, so no clock read can reach a fingerprint (the
    # fabric rows of `make smoke` hold broker output bit-identical to
    # serial).
    "repro/fabric/broker.py",
)

#: Top-level modules whose import signals process/thread parallelism or
#: real network I/O — scheduling, completion, and message-arrival order
#: are run-varying state, so these are banned in simulation logic except
#: where a fixed-order merge makes the parallelism invisible to
#: fingerprinted outputs (or the module is the live layer itself).
_PARALLEL_MODULES = {
    "multiprocessing",
    "threading",
    "concurrent",
    "asyncio",
    "socket",
    "selectors",
}

#: Files allowed to import parallelism machinery.  Each entry exists
#: because its merge discipline provably removes scheduling order from
#: every fingerprinted output:
PARALLELISM_ALLOWLIST = (
    # The trial-fabric broker: fans out *whole trials*, each sealed with
    # its own spawned SeedSequence fixed at queue-build time; results
    # are keyed by (point, trial) unit index, so the settle arrival
    # order of its workers, local or remote, cannot reorder anything
    # observable.  Uses threading (listener, connection threads, one
    # lock), multiprocessing (the local fabric workers it spawns) and
    # socket (the lease protocol every worker speaks).
    "repro/fabric/broker.py",
    # The live layer (repro/net/) runs on real sockets by design; it is
    # strictly additive — nothing in the simulation path imports it, so
    # its scheduling nondeterminism cannot reach a fingerprinted output
    # (the obs rows of `make smoke` enforce the separation):
    # asyncio + socket: the wire protocol itself.
    "repro/net/transport.py",
    # asyncio server/tasks + a thread pool for blocking protocol work;
    # all *decisions* (jitter, Sybil placement) stay on seeded RNGs.
    "repro/net/node.py",
    # asyncio load-generator workers; op/key/target choices are seeded.
    "repro/net/stress.py",
    # threading: one stdout-reader thread per spawned serve subprocess.
    "repro/net/cluster.py",
)

#: Builtins through which consuming a set is order-safe.
_ORDER_SAFE_CONSUMERS = {"sorted", "len", "sum", "min", "max", "any", "all"}
#: Builtins that materialize iteration order (hash order escapes).
_ORDER_EXPOSING_CONSUMERS = {"list", "tuple", "enumerate", "iter", "next"}


def _is_setlike(node: ast.AST) -> bool:
    """Expressions that statically evaluate to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_setlike(node.left) or _is_setlike(node.right)
    return False


@register
class NondeterminismHazard(Rule):
    """R002: no run-varying state inside ordering-sensitive logic.

    Scope: ``sim/``, ``chord/``, ``core/``, ``experiments/`` (plus
    ``hashspace/``, ``obs/``, and ``net/``) — the layers whose outputs
    are fingerprint-pinned, plus the live layer where only the
    explicitly allowlisted wall-clock/parallelism uses are sanctioned.
    Flags:

    * wall-clock / entropy calls (``time.time``, ``time.monotonic``,
      ``os.urandom``, ``uuid.*``, ``datetime.now``, ...);
    * ``id()``-keyed containers and ``key=id`` sort keys (CPython
      addresses vary run to run);
    * iterating a set (``for x in set(...)``, ``list({...})``,
      comprehensions over set expressions): hash order is not part of
      the reproducibility contract — wrap in ``sorted(...)`` instead;
    * ``multiprocessing`` / ``threading`` / ``concurrent.*`` imports:
      scheduling and completion order vary run to run, so parallelism
      is sanctioned only in ``PARALLELISM_ALLOWLIST`` modules whose
      fixed-order merges keep it out of fingerprinted outputs.

    ``repro/cli.py`` is allowlisted for wall-clock reporting; anything
    else needs a per-line suppression with a justification.
    """

    rule_id = "R002"
    name = "nondeterminism-hazard"
    summary = "no wall clock, uuid, id()-keys, or set-order in sim logic"

    SCOPE_DIRS = (
        "sim",
        "chord",
        "core",
        "experiments",
        "hashspace",
        "obs",
        "net",
        "fabric",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_dirs(*self.SCOPE_DIRS):
            return
        # Allowlists are per-check, not per-file: a wall-clock waiver
        # must not also waive set-order or parallelism findings.
        clock_ok = any(
            ctx.path.endswith(tail) for tail in WALLCLOCK_ALLOWLIST
        )
        parallel_ok = any(
            ctx.path.endswith(tail) for tail in PARALLELISM_ALLOWLIST
        )
        for node in ast.walk(ctx.tree):
            if not clock_ok:
                yield from self._check_clock_call(ctx, node)
            yield from self._check_id_keys(ctx, node)
            yield from self._check_set_order(ctx, node)
            if not parallel_ok:
                yield from self._check_parallel_import(ctx, node)

    def _check_clock_call(
        self, ctx: FileContext, node: ast.AST
    ) -> Iterator[Finding]:
        if not isinstance(node, ast.Call):
            return
        chain = _attr_chain(node.func)
        if len(chain) < 2:
            return
        # match on the last two components so `datetime.datetime.now`
        # and `from os import urandom; urandom()` both resolve.
        pair = (chain[-2], chain[-1])
        if pair in _BANNED_TIME_CALLS:
            yield self.finding(
                ctx,
                node,
                f"`{'.'.join(chain)}()` in simulation code — wall clock "
                "and OS entropy vary run to run; derive everything from "
                "the seeded Generator (allowlist: cli.py reporting)",
            )

    def _check_parallel_import(
        self, ctx: FileContext, node: ast.AST
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            return
        for name in names:
            if name.split(".")[0] in _PARALLEL_MODULES:
                yield self.finding(
                    ctx,
                    node,
                    f"`{name}` import in simulation code — process/"
                    "thread scheduling order varies run to run; "
                    "parallelism is sanctioned only in the allowlisted "
                    "trial runners (PARALLELISM_ALLOWLIST)",
                )

    def _check_id_keys(
        self, ctx: FileContext, node: ast.AST
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            for kw in node.keywords:
                if (
                    kw.arg == "key"
                    and isinstance(kw.value, ast.Name)
                    and kw.value.id == "id"
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "`key=id` — CPython object addresses vary run "
                        "to run; sort by a stable attribute",
                    )
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if (
                    isinstance(key, ast.Call)
                    and isinstance(key.func, ast.Name)
                    and key.func.id == "id"
                ):
                    yield self.finding(
                        ctx,
                        key,
                        "`id(...)`-keyed container — object addresses "
                        "are not reproducible; key by a stable identity",
                    )

    def _check_set_order(
        self, ctx: FileContext, node: ast.AST
    ) -> Iterator[Finding]:
        message = (
            "iterating a set exposes hash order to ordering-sensitive "
            "logic — wrap in sorted(...) for a reproducible order"
        )
        if isinstance(node, (ast.For, ast.AsyncFor)) and _is_setlike(
            node.iter
        ):
            yield self.finding(ctx, node.iter, message)
        elif isinstance(
            node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)
        ):
            for gen in node.generators:
                if _is_setlike(gen.iter):
                    yield self.finding(ctx, gen.iter, message)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_EXPOSING_CONSUMERS
            and node.args
            and _is_setlike(node.args[0])
        ):
            yield self.finding(
                ctx,
                node,
                f"`{node.func.id}(<set>)` materializes hash order — "
                "use sorted(...) instead",
            )


# ----------------------------------------------------------------------
# R009: interprocedural RNG-stream aliasing
# ----------------------------------------------------------------------

#: Call names that mint a ``numpy.random.Generator``.
_GENERATOR_FACTORIES = ("make_rng", "default_rng", "spawn_rng")


def _tainted_rng_names(
    info: FunctionInfo,
) -> dict[str, int]:
    """``{name: lineno}`` of local names holding a Generator: bare
    assignments from a generator factory, plus parameters annotated
    ``Generator``."""
    tainted: dict[str, int] = {}
    args = info.node.args
    for param in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        ann = param.annotation
        if ann is None:
            continue
        for sub in ast.walk(ann):
            if (
                isinstance(sub, ast.Name) and sub.id == "Generator"
            ) or (
                isinstance(sub, ast.Attribute) and sub.attr == "Generator"
            ):
                tainted[param.arg] = info.node.lineno
                break
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Assign):
            continue
        if not isinstance(node.value, ast.Call):
            continue
        chain = _attr_chain(node.value.func)
        if not chain or chain[-1] not in _GENERATOR_FACTORIES:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                tainted[target.id] = node.lineno
    return tainted


def _loops_containing(
    info: FunctionInfo,
) -> list[tuple[int, int]]:
    """(lineno, end_lineno) span of every loop in the function body."""
    spans = []
    for node in ast.walk(info.node):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            spans.append(
                (node.lineno, getattr(node, "end_lineno", node.lineno))
            )
    return spans


@register
class RngStreamAliasing(ProjectRule):
    """R009: one Generator, one concurrent consumer.

    A ``numpy.random.Generator`` is a mutable stream cursor: two
    concurrent consumers drawing from the same instance interleave in
    scheduling order, so a seeded run stops being a function of its
    seed.  The per-file R001/R002 checks cannot see a generator *flow*
    across function boundaries — R009 uses the project model's
    dispatcher and sink-parameter analysis to follow it:

    * a tainted name (assigned from ``make_rng``/``default_rng``/
      ``spawn_rng``, or a ``Generator``-annotated parameter) appearing
      in the payload of **more than one** concurrency dispatch
      (``pool.submit``/``map``, ``create_task``, ``Thread(target=...,
      args=...)``, ...) or forwarded into more than one function whose
      matching parameter reaches such a dispatch;
    * the same tainted name dispatched **inside a loop** whose body did
      not create it — every iteration ships the *same* stream to
      another concurrent consumer;
    * **seed-stream reuse**: two generator-factory calls in one
      function with byte-identical non-``None`` seed expressions mint
      two cursors over one stream — the same numbers come out twice
      (spawn children from a ``SeedSequence`` instead, as
      ``run_trials`` does).
    """

    rule_id = "R009"
    name = "rng-stream-aliasing"
    summary = (
        "a Generator must not flow into more than one concurrent "
        "consumer or reuse a seed stream"
    )

    SCOPE_DIRS = NondeterminismHazard.SCOPE_DIRS

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        sink_params = project.concurrent_sink_params()
        for qualname in sorted(project.functions):
            info = project.functions[qualname]
            if not info.ctx.in_dirs(*self.SCOPE_DIRS):
                continue
            yield from self._check_aliasing(project, info, sink_params)
            yield from self._check_seed_reuse(info)

    # ------------------------------------------------------------------
    def _consumption_events(
        self,
        project: ProjectModel,
        info: FunctionInfo,
        sink_params: dict,
        tainted: dict[str, int],
    ) -> list[tuple[str, ast.AST]]:
        """Each ``(name, node)`` where a tainted generator is handed to
        a concurrent consumer, in source order."""
        events: list[tuple[str, ast.AST]] = []
        dispatch_calls: set[int] = set()
        for call, callables, payload in project.dispatch_sites(info):
            dispatch_calls.add(id(call))
            for arg in payload:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Name) and sub.id in tainted:
                        events.append((sub.id, sub))
            # a lambda handed to a dispatcher closes over the stream
            for ref in callables:
                if isinstance(ref, ast.Lambda):
                    for sub in ast.walk(ref.body):
                        if (
                            isinstance(sub, ast.Name)
                            and sub.id in tainted
                        ):
                            events.append((sub.id, sub))
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call) or id(node) in dispatch_calls:
                continue
            callee = project.resolve(info, node.func)
            if callee not in project.functions:
                continue
            callee_info = project.functions[callee]
            sinks = sink_params.get(callee, frozenset())
            if not sinks:
                continue
            shift = (
                1
                if callee_info.class_name is not None
                and isinstance(node.func, ast.Attribute)
                else 0
            )
            for pos, arg in enumerate(node.args):
                if not (
                    isinstance(arg, ast.Name) and arg.id in tainted
                ):
                    continue
                cp = callee_info.params
                if pos + shift < len(cp) and cp[pos + shift] in sinks:
                    events.append((arg.id, arg))
            for kw in node.keywords:
                if (
                    kw.arg in sinks
                    and isinstance(kw.value, ast.Name)
                    and kw.value.id in tainted
                ):
                    events.append((kw.value.id, kw.value))
        events.sort(
            key=lambda e: (
                getattr(e[1], "lineno", 0),
                getattr(e[1], "col_offset", 0),
            )
        )
        return events

    def _check_aliasing(
        self,
        project: ProjectModel,
        info: FunctionInfo,
        sink_params: dict,
    ) -> Iterator[Finding]:
        tainted = _tainted_rng_names(info)
        if not tainted:
            return
        events = self._consumption_events(
            project, info, sink_params, tainted
        )
        loops = _loops_containing(info)
        by_name: dict[str, list[ast.AST]] = {}
        for name, node in events:
            by_name.setdefault(name, []).append(node)
        for name in sorted(by_name):
            nodes = by_name[name]
            if len(nodes) > 1:
                for node in nodes[1:]:
                    yield self.finding(
                        info.ctx,
                        node,
                        f"generator `{name}` flows into multiple "
                        "concurrent consumers — each consumer needs "
                        "its own spawned stream (SeedSequence.spawn / "
                        "spawn_seeds), or the interleaving order "
                        "becomes part of the result",
                    )
                continue
            node = nodes[0]
            created = tainted[name]
            line = getattr(node, "lineno", 0)
            for lo, hi in loops:
                if lo <= line <= hi and not (lo <= created <= hi):
                    yield self.finding(
                        info.ctx,
                        node,
                        f"generator `{name}` is dispatched to a "
                        "concurrent consumer inside a loop but created "
                        "outside it — every iteration shares one "
                        "stream; mint a per-iteration generator from a "
                        "spawned seed",
                    )
                    break

    def _check_seed_reuse(self, info: FunctionInfo) -> Iterator[Finding]:
        seen: dict[str, ast.Call] = {}
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if not chain or chain[-1] not in _GENERATOR_FACTORIES:
                continue
            if not node.args or node.keywords:
                continue
            seed_expr = node.args[0]
            if (
                isinstance(seed_expr, ast.Constant)
                and seed_expr.value is None
            ):
                continue
            key = ast.dump(seed_expr)
            if key in seen:
                yield self.finding(
                    info.ctx,
                    node,
                    f"`{'.'.join(chain)}({ast.unparse(seed_expr)})` "
                    "reuses a seed already consumed in "
                    f"`{info.node.name}` — two generators over one "
                    "seed stream emit identical draws; spawn child "
                    "seeds instead (spawn_seeds / SeedSequence.spawn)",
                )
            else:
                seen[key] = node
        return
