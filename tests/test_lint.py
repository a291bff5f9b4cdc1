"""reprolint tests: every rule proven to fire, clean snippets stay clean,
self-lint of the real tree, deterministic JSON output, suppressions."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.cli import main as cli_main
from repro.errors import LintError
from repro.lint import all_rules, lint_paths, render_json
from repro.lint.rules_project import KNOWN_RESULT_SCHEMAS

SRC_DIR = Path(repro.__file__).resolve().parent


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


def run_rules(root: Path, *rules: str):
    report = lint_paths([root], select=list(rules), root=root)
    return report.findings


def rule_ids(findings) -> set[str]:
    return {f.rule for f in findings}


class TestRuleCatalogue:
    def test_all_nine_rules_registered(self):
        ids = [r.rule_id for r in all_rules()]
        assert ids == [
            "R001", "R002", "R003", "R004", "R005", "R006",
            "R007", "R008", "R009",
        ]

    def test_unknown_rule_id_rejected(self, tmp_path):
        with pytest.raises(LintError):
            lint_paths([tmp_path], select=["R999"])


class TestR001RngDiscipline:
    def test_fires_on_stdlib_random_and_default_rng(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/sim/bad.py": (
                    "import random\n"
                    "import numpy as np\n"
                    "rng = np.random.default_rng(0)\n"
                    "x = np.random.rand(3)\n"
                ),
            },
        )
        findings = run_rules(tmp_path, "R001")
        assert rule_ids(findings) == {"R001"}
        assert len(findings) == 3

    def test_fires_on_raw_words_outside_the_rng_module(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/sim/bad.py": (
                    "def draw(rng, n):\n"
                    "    raw = rng.bit_generator.random_raw\n"
                    "    return (raw() * n) >> 64\n"
                    "def word(rng):\n"
                    "    return rng.bit_generator.random_raw()\n"
                ),
                "repro/util/rng.py": (
                    "def word(rng):\n"
                    "    return rng.bit_generator.random_raw()\n"
                ),
            },
        )
        findings = run_rules(tmp_path, "R001")
        assert [(f.path.endswith("sim/bad.py"), f.line) for f in findings] == [
            (True, 2), (True, 5),
        ]

    def test_clean_generator_parameter_and_rng_module(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/sim/good.py": (
                    "import numpy as np\n"
                    "def sample(rng: np.random.Generator) -> float:\n"
                    "    return float(rng.normal())\n"
                ),
                # the one module allowed to mint generators
                "repro/util/rng.py": (
                    "import numpy as np\n"
                    "def make_rng(seed):\n"
                    "    return np.random.default_rng(seed)\n"
                ),
            },
        )
        assert run_rules(tmp_path, "R001") == []


class TestR002NondeterminismHazard:
    def test_fires_on_clock_set_order_and_id_keys(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/sim/bad.py": (
                    "import time\n"
                    "t = time.time()\n"
                    "for x in set([3, 1, 2]):\n"
                    "    print(x)\n"
                    "order = sorted([], key=id)\n"
                    "exposed = list({1, 2})\n"
                ),
            },
        )
        findings = run_rules(tmp_path, "R002")
        assert rule_ids(findings) == {"R002"}
        assert len(findings) == 4

    def test_clean_sorted_sets_and_cli_allowlist(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/sim/good.py": (
                    "for x in sorted(set([3, 1, 2])):\n"
                    "    print(x)\n"
                    "n = len(set([1, 2]))\n"
                ),
                # wall-clock reporting is the CLI's job (allowlist)
                "repro/cli.py": "import time\nt0 = time.perf_counter()\n",
                # out-of-scope layer: viz may do what it likes
                "repro/viz/free.py": "import time\nt = time.time()\n",
            },
        )
        assert run_rules(tmp_path, "R002") == []

    def test_fires_on_parallelism_imports(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/sim/rogue.py": (
                    "import multiprocessing\n"
                    "import threading\n"
                    "from concurrent.futures import ProcessPoolExecutor\n"
                ),
            },
        )
        findings = run_rules(tmp_path, "R002")
        assert rule_ids(findings) == {"R002"}
        assert len(findings) == 3
        assert all("PARALLELISM_ALLOWLIST" in f.message for f in findings)

    def test_parallelism_allowlist_covers_the_fabric_broker(self, tmp_path):
        source = (
            "import multiprocessing as mp\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
        )
        write_tree(
            tmp_path,
            {
                # the sanctioned fixed-order-merge module
                "repro/fabric/broker.py": source,
                # out-of-scope layer: the analysis CLI may pool freely
                "repro/viz/pool.py": source,
            },
        )
        assert run_rules(tmp_path, "R002") == []

    def test_trial_runner_is_not_allowlisted(self, tmp_path):
        """The trial runner only seeds and delegates to the broker; it
        holds no lock and spawns nothing, so a threading import there
        is a finding."""
        write_tree(tmp_path, {"repro/sim/trials.py": "import threading\n"})
        findings = run_rules(tmp_path, "R002")
        assert rule_ids(findings) == {"R002"}
        assert len(findings) == 1


class TestR003Uint64Arithmetic:
    def test_fires_on_float_mix_division_and_subtraction(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/sim/bad.py": (
                    "import numpy as np\n"
                    "ids = np.asarray([1, 2], dtype=np.uint64)\n"
                    "a = ids - 1\n"
                    "b = ids / 2\n"
                    "c = ids * 0.5\n"
                ),
            },
        )
        findings = run_rules(tmp_path, "R003")
        assert rule_ids(findings) == {"R003"}
        assert len(findings) == 3

    def test_taint_is_scoped_per_function(self, tmp_path):
        # `ids` is uint64 only inside f(); the plain-int `ids` in g()
        # and the shadowing parameter in h() must not be flagged.
        write_tree(
            tmp_path,
            {
                "repro/sim/scoped.py": (
                    "import numpy as np\n"
                    "def f():\n"
                    "    ids = np.asarray([1], dtype=np.uint64)\n"
                    "    return ids - 1\n"
                    "def g():\n"
                    "    ids = 7\n"
                    "    return ids - 1\n"
                    "def h(ids):\n"
                    "    return ids - 1\n"
                ),
            },
        )
        findings = run_rules(tmp_path, "R003")
        assert len(findings) == 1
        assert findings[0].line == 4

    def test_nested_function_inherits_enclosing_taint(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/sim/nested.py": (
                    "import numpy as np\n"
                    "def outer():\n"
                    "    ids = np.asarray([1], dtype=np.uint64)\n"
                    "    def inner():\n"
                    "        return ids - 1\n"
                    "    return inner\n"
                ),
            },
        )
        findings = run_rules(tmp_path, "R003")
        assert len(findings) == 1
        assert findings[0].line == 5

    def test_clean_blessed_module_and_unsigned_math(self, tmp_path):
        write_tree(
            tmp_path,
            {
                # blessed wraparound implementation is exempt
                "repro/sim/arcops.py": (
                    "import numpy as np\n"
                    "ids = np.asarray([1, 2], dtype=np.uint64)\n"
                    "d = ids - np.uint64(1)\n"
                ),
                "repro/sim/good.py": (
                    "import numpy as np\n"
                    "ids = np.asarray([1, 2], dtype=np.uint64)\n"
                    "half = ids // 2\n"
                    "s = ids + np.uint64(1)\n"
                ),
            },
        )
        assert run_rules(tmp_path, "R003") == []


class TestR004ErrorDiscipline:
    def test_fires_on_bare_broad_and_builtin_raise(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/sim/bad.py": (
                    "def f():\n"
                    "    try:\n"
                    "        g()\n"
                    "    except:\n"
                    "        pass\n"
                    "def h():\n"
                    "    try:\n"
                    "        g()\n"
                    "    except Exception:\n"
                    "        return None\n"
                    "def r():\n"
                    "    raise ValueError('core module')\n"
                ),
            },
        )
        findings = run_rules(tmp_path, "R004")
        assert rule_ids(findings) == {"R004"}
        assert len(findings) == 3

    def test_clean_reraise_typed_raise_and_non_core_scope(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/sim/good.py": (
                    "from repro.errors import SimulationError\n"
                    "def f():\n"
                    "    try:\n"
                    "        g()\n"
                    "    except Exception:\n"
                    "        cleanup()\n"
                    "        raise\n"
                    "def r():\n"
                    "    raise SimulationError('typed')\n"
                    "def lookup(d, k):\n"
                    "    if k not in d:\n"
                    "        raise KeyError(k)\n"
                    "    return d[k]\n"
                ),
                # raise-discipline only binds the core layers
                "repro/analysis/free.py": (
                    "def f():\n"
                    "    raise ValueError('analysis may')\n"
                ),
            },
        )
        assert run_rules(tmp_path, "R004") == []


class TestR005ConfigDrift:
    CONFIG = (
        "class SimulationConfig:\n"
        "    n_nodes: int = 10\n"
        "    dead_knob: float = 0.5\n"
        "class FailureModel:\n"
        "    crash_fraction: float = 0.0\n"
    )

    def test_fires_on_unread_field(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/config.py": self.CONFIG,
                "repro/sim/engine.py": (
                    "def run(cfg):\n"
                    "    return cfg.n_nodes + cfg.failures.crash_fraction\n"
                ),
            },
        )
        findings = run_rules(tmp_path, "R005")
        assert len(findings) == 1
        assert findings[0].rule == "R005"
        assert "dead_knob" in findings[0].message
        assert findings[0].path == "repro/config.py"

    def test_clean_when_every_field_is_read(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/config.py": self.CONFIG,
                "repro/sim/engine.py": (
                    "def run(cfg):\n"
                    "    x = cfg.n_nodes + cfg.dead_knob\n"
                    "    return x + cfg.failures.crash_fraction\n"
                ),
            },
        )
        assert run_rules(tmp_path, "R005") == []


def _schema_tree(extra_field: str | None = None) -> dict[str, str]:
    """Mini results/persistence pair matching the pinned v2 schema."""
    fields = sorted(KNOWN_RESULT_SCHEMAS["repro.simulation_result.v2"])
    if extra_field:
        fields.append(extra_field)
    results = "class SimulationResult:\n" + "".join(
        f"    {name}: int = 0\n" for name in fields
    )
    keys = ",\n".join(
        f'        "{name}": 0'
        for name in sorted(KNOWN_RESULT_SCHEMAS["repro.simulation_result.v2"])
    )
    persistence = (
        'RESULT_FORMAT = "repro.simulation_result.v2"\n'
        "def result_to_dict(result):\n"
        "    payload = {\n" + keys + "\n    }\n"
        "    return payload\n"
    )
    return {
        "repro/sim/results.py": results,
        "repro/sim/persistence.py": persistence,
    }


class TestR006SchemaVersioning:
    def test_fires_on_field_change_without_version_bump(self, tmp_path):
        write_tree(tmp_path, _schema_tree(extra_field="new_field"))
        findings = run_rules(tmp_path, "R006")
        assert rule_ids(findings) == {"R006"}
        # the new field is both unserialized and a manifest mismatch
        assert len(findings) == 2
        assert any("not serialized" in f.message for f in findings)
        assert any("bump the version" in f.message for f in findings)

    def test_clean_when_fields_match_pinned_schema(self, tmp_path):
        write_tree(tmp_path, _schema_tree())
        assert run_rules(tmp_path, "R006") == []

    def test_fires_on_unknown_version_string(self, tmp_path):
        tree = _schema_tree()
        tree["repro/sim/persistence.py"] = tree[
            "repro/sim/persistence.py"
        ].replace("v2", "v99")
        write_tree(tmp_path, tree)
        findings = run_rules(tmp_path, "R006")
        assert any("KNOWN_RESULT_SCHEMAS" in f.message for f in findings)


class TestR007AsyncDiscipline:
    def test_fires_on_blocking_unawaited_and_dropped_task(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/net/server.py": (
                    "import asyncio\n"
                    "import time\n"
                    "async def handler():\n"
                    "    time.sleep(0.5)\n"
                    "    asyncio.sleep(1.0)\n"
                    "    asyncio.create_task(work())\n"
                    "async def work():\n"
                    "    await asyncio.sleep(0)\n"
                    "def sync_block():\n"
                    "    time.sleep(1)\n"
                    "async def indirect():\n"
                    "    sync_block()\n"
                ),
            },
        )
        findings = run_rules(tmp_path, "R007")
        assert rule_ids(findings) == {"R007"}
        assert len(findings) == 4
        messages = "\n".join(f.message for f in findings)
        assert "time.sleep" in messages          # direct blocking call
        assert "never awaited" in messages       # bare asyncio.sleep(...)
        assert "result dropped" in messages      # dropped create_task
        assert "sync_block" in messages          # transitive blocking

    def test_clean_executor_offload_awaits_and_kept_tasks(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/net/good.py": (
                    "import asyncio\n"
                    "import time\n"
                    "async def handler(loop, tasks):\n"
                    "    await asyncio.sleep(0.1)\n"
                    "    await loop.run_in_executor(None, blocking_io)\n"
                    "    tasks.append(asyncio.create_task(work()))\n"
                    "async def work():\n"
                    "    await asyncio.sleep(0)\n"
                    "def blocking_io():\n"
                    "    time.sleep(1)\n"
                ),
            },
        )
        assert run_rules(tmp_path, "R007") == []

    def test_out_of_scope_async_is_ignored(self, tmp_path):
        # R007 binds only net/ — async helpers elsewhere may block
        write_tree(
            tmp_path,
            {
                "repro/viz/anim.py": (
                    "import time\n"
                    "async def render():\n"
                    "    time.sleep(1)\n"
                ),
            },
        )
        assert run_rules(tmp_path, "R007") == []


class TestR008SharedStateHazard:
    # The second prelude pins that the finding does not hinge on the
    # module importing multiprocessing.
    @pytest.mark.parametrize(
        "prelude",
        ["", "import multiprocessing\n"],
        ids=["plain", "imports_multiprocessing"],
    )
    def test_fires_on_module_state_mutated_from_worker(
        self, tmp_path, prelude
    ):
        write_tree(
            tmp_path,
            {
                "repro/sim/shmod.py": prelude + (
                    "_CACHE = {}\n"
                    "def worker(task):\n"
                    "    _CACHE[task] = 1\n"
                    "    return 0\n"
                    "def driver(pool, tasks):\n"
                    "    return sum(pool.map(worker, tasks))\n"
                ),
            },
        )
        findings = run_rules(tmp_path, "R008")
        assert rule_ids(findings) == {"R008"}
        assert len(findings) == 1
        assert "_CACHE" in findings[0].message

    def test_clean_blessed_writer_and_unreachable_mutation(self, tmp_path):
        write_tree(
            tmp_path,
            {
                # module state mutated only from sequential code
                "repro/sim/seq.py": (
                    "_MEMO = {}\n"
                    "def remember(k, v):\n"
                    "    _MEMO[k] = v\n"
                ),
            },
        )
        assert run_rules(tmp_path, "R008") == []


class TestR009RngStreamAliasing:
    def test_generator_shared_across_two_shard_workers(self, tmp_path):
        # Regression: one Generator dispatched to two workers means both
        # draw from the same stream cursor — results then depend on
        # worker interleaving.
        write_tree(
            tmp_path,
            {
                "repro/sim/fan.py": (
                    "from repro.util.rng import make_rng\n"
                    "def fan_out(pool, seed):\n"
                    "    rng = make_rng(seed)\n"
                    "    a = pool.submit(job, rng)\n"
                    "    b = pool.submit(job, rng)\n"
                    "    return a, b\n"
                    "def job(rng):\n"
                    "    return rng.integers(10)\n"
                ),
            },
        )
        findings = run_rules(tmp_path, "R009")
        assert rule_ids(findings) == {"R009"}
        assert len(findings) == 1
        assert findings[0].line == 5  # the second dispatch is the alias

    def test_fires_on_loop_dispatch_and_seed_reuse(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/sim/looped.py": (
                    "from repro.util.rng import make_rng\n"
                    "def loop_share(pool, seed):\n"
                    "    rng = make_rng(seed)\n"
                    "    for i in range(4):\n"
                    "        pool.submit(job, rng)\n"
                    "def seed_twice():\n"
                    "    r1 = make_rng(123)\n"
                    "    r2 = make_rng(123)\n"
                    "    return r1, r2\n"
                    "def job(rng):\n"
                    "    return rng.integers(10)\n"
                ),
            },
        )
        findings = run_rules(tmp_path, "R009")
        assert len(findings) == 2
        messages = "\n".join(f.message for f in findings)
        assert "loop" in messages
        assert "seed" in messages

    def test_fires_through_forwarding_helper(self, tmp_path):
        # Interprocedural: the generator reaches two dispatch sites via
        # helpers whose parameters are concurrent sinks.
        write_tree(
            tmp_path,
            {
                "repro/sim/fwd.py": (
                    "from repro.util.rng import make_rng\n"
                    "def forwarded(pool, seed):\n"
                    "    rng = make_rng(seed)\n"
                    "    helper(pool, rng)\n"
                    "    helper2(pool, rng)\n"
                    "def helper(pool, rng):\n"
                    "    pool.submit(job, rng)\n"
                    "def helper2(pool, rng):\n"
                    "    pool.submit(job, rng)\n"
                    "def job(rng):\n"
                    "    return rng.integers(10)\n"
                ),
            },
        )
        findings = run_rules(tmp_path, "R009")
        assert len(findings) >= 1
        assert all(f.rule == "R009" for f in findings)

    def test_clean_per_worker_spawned_streams(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/sim/spawned.py": (
                    "from repro.util.rng import make_rng\n"
                    "def fan_out(pool, seeds):\n"
                    "    rngs = [make_rng(seed) for seed in seeds]\n"
                    "    futs = []\n"
                    "    for i in range(len(rngs)):\n"
                    "        futs.append(pool.submit(job, rngs[i]))\n"
                    "    return futs\n"
                    "def job(rng):\n"
                    "    return rng.integers(10)\n"
                    "def single(pool, seed):\n"
                    "    rng = make_rng(seed)\n"
                    "    return pool.submit(job, rng)\n"
                ),
            },
        )
        assert run_rules(tmp_path, "R009") == []


class TestSuppressions:
    def test_line_suppression(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/sim/s.py": (
                    "import random  # reprolint: disable=R001 (why)\n"
                ),
            },
        )
        report = lint_paths([tmp_path], select=["R001"], root=tmp_path)
        assert report.findings == []
        assert report.n_suppressed == 1

    def test_file_suppression(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/sim/s.py": (
                    "# reprolint: disable-file=R002\n"
                    "import time\n"
                    "a = time.time()\n"
                    "b = time.monotonic()\n"
                ),
            },
        )
        report = lint_paths([tmp_path], select=["R002"], root=tmp_path)
        assert report.findings == []
        assert report.n_suppressed == 2

    def test_uppercase_justification_does_not_break_rule_list(
        self, tmp_path
    ):
        # Free text after the rule list must not merge into the ids,
        # even when it starts with uppercase letters or digits.
        write_tree(
            tmp_path,
            {
                "repro/sim/s.py": (
                    "import time\n"
                    "t = time.time()  "
                    "# reprolint: disable=R002 WALL CLOCK 123\n"
                ),
            },
        )
        report = lint_paths([tmp_path], select=["R002"], root=tmp_path)
        assert report.findings == []
        assert report.n_suppressed == 1

    def test_suppressing_one_rule_keeps_others(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/sim/s.py": (
                    "import random  # reprolint: disable=R002\n"
                ),
            },
        )
        report = lint_paths([tmp_path], select=["R001"], root=tmp_path)
        assert len(report.findings) == 1

    def test_multi_rule_inline_suppression(self, tmp_path):
        # one line, two rules, one comment listing both ids
        write_tree(
            tmp_path,
            {
                "repro/sim/s.py": (
                    "import time\n"
                    "import numpy as np\n"
                    "rng = np.random.default_rng(time.time())"
                    "  # reprolint: disable=R001,R002 (demo)\n"
                ),
            },
        )
        report = lint_paths(
            [tmp_path], select=["R001", "R002"], root=tmp_path
        )
        assert report.findings == []
        assert report.n_suppressed == 2

    def test_file_and_inline_suppressions_combine(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/sim/s.py": (
                    "# reprolint: disable-file=R002\n"
                    "import time\n"
                    "import random  # reprolint: disable=R001 (demo)\n"
                    "t = time.time()\n"
                ),
            },
        )
        report = lint_paths(
            [tmp_path], select=["R001", "R002"], root=tmp_path
        )
        assert report.findings == []
        assert report.n_suppressed == 2

    def test_suppression_inside_async_def(self, tmp_path):
        # project-rule findings (R007 lives on the project pass) honor
        # inline suppressions at the reported line like per-file rules
        write_tree(
            tmp_path,
            {
                "repro/net/s.py": (
                    "import time\n"
                    "async def handler():\n"
                    "    time.sleep(0.1)"
                    "  # reprolint: disable=R007 (demo)\n"
                ),
            },
        )
        report = lint_paths([tmp_path], select=["R007"], root=tmp_path)
        assert report.findings == []
        assert report.n_suppressed == 1


class TestSkipDirs:
    def test_tool_caches_and_venvs_are_not_walked(self, tmp_path):
        bad = "import random\n"
        write_tree(
            tmp_path,
            {
                "repro/sim/good.py": "x = 1\n",
                ".venv/lib/pkg.py": bad,
                ".mypy_cache/3.11/pkg.py": bad,
                ".ruff_cache/0.1/pkg.py": bad,
                "__pycache__/pkg.py": bad,
            },
        )
        report = lint_paths([tmp_path], root=tmp_path)
        assert report.findings == []
        assert report.n_files == 1


class TestOutOfRootLabels:
    def test_directory_scoped_rules_apply_outside_root(self, tmp_path):
        # A linted file outside the lint root keeps its directory parts
        # (via `..` segments) so dir-scoped rules like R002 still apply
        # and same-basename files cannot collide in the label space.
        outside = write_tree(
            tmp_path / "elsewhere",
            {"repro/sim/bad.py": "import time\nt = time.time()\n"},
        )
        root = tmp_path / "rootdir"
        root.mkdir()
        report = lint_paths([outside], select=["R002"], root=root)
        assert len(report.findings) == 1
        label = report.findings[0].path
        assert label.startswith("../")
        assert label.endswith("elsewhere/repro/sim/bad.py")


class TestSelfLintAndDeterminism:
    def test_repo_source_tree_is_clean(self):
        report = lint_paths([SRC_DIR], root=SRC_DIR.parent)
        assert report.findings == [], "\n".join(
            f.render() for f in report.findings
        )
        assert report.exit_code == 0
        assert report.n_files > 90

    def test_cli_lint_exits_zero_on_src(self, capsys):
        assert cli_main(["lint", str(SRC_DIR)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_json_output_is_byte_stable(self):
        first = render_json(lint_paths([SRC_DIR], root=SRC_DIR.parent))
        second = render_json(lint_paths([SRC_DIR], root=SRC_DIR.parent))
        assert first == second
        assert "timestamp" not in first

    def test_json_cli_byte_stable_with_violations(self, tmp_path, capsys):
        write_tree(
            tmp_path,
            {
                "repro/sim/bad.py": "import random\nimport time\n"
                "t = time.time()\n",
            },
        )
        outputs = []
        for _ in range(2):
            code = cli_main(["lint", str(tmp_path), "--json"])
            assert code == 1
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rid in (
            "R001", "R002", "R003", "R004", "R005", "R006",
            "R007", "R008", "R009",
        ):
            assert rid in out
