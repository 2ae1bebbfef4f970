"""Fixture suite for tools.repolint: every rule proven on a minimal
true-positive and a minimal clean snippet, plus the suppression
machinery, the JSON round trip, and the CLI exit-code contract.

Fixtures go through :func:`tools.repolint.engine.check_source` with a
*pretended* repository path, so path-scoped rules see e.g.
``src/repro/graphs/x.py`` without the snippet living in the tree.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tools.repolint.engine import all_rules, check_source, run_paths
from tools.repolint.reporters import (
    JSON_SCHEMA_VERSION,
    parse_json,
    render_json,
    render_text,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint(source: str, rel_path: str = "src/repro/core/x.py"):
    return check_source(textwrap.dedent(source), rel_path)


def rules_hit(source: str, rel_path: str = "src/repro/core/x.py"):
    return {f.rule for f in lint(source, rel_path)}


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_contains_the_catalogue():
    names = {rule.name for rule in all_rules()}
    assert {
        "rng-discipline",
        "index-dtype",
        "pool-bypass",
        "lock-discipline",
        "epoch-discipline",
        "hot-path-alloc",
        "error-discipline",
        "except-discipline",
        "no-recursion",
        "mutable-default",
        "shadowed-builtin",
    } <= names


def test_rules_have_unique_names_and_descriptions():
    rules = all_rules()
    names = [rule.name for rule in rules]
    assert len(names) == len(set(names))
    assert all(rule.description for rule in rules)


# ----------------------------------------------------------------------
# rng-discipline
# ----------------------------------------------------------------------
def test_rng_discipline_flags_stdlib_random():
    assert "rng-discipline" in rules_hit(
        """
        import random

        def pick(xs):
            return random.choice(xs)
        """
    )


def test_rng_discipline_flags_global_numpy_rng():
    findings = lint(
        """
        import numpy as np

        def noise(n):
            return np.random.rand(n)
        """
    )
    assert [f.rule for f in findings] == ["rng-discipline"]


def test_rng_discipline_clean_on_generator_typing_and_rng_module():
    clean = """
        import numpy as np

        def noise(rng: np.random.Generator, n: int):
            return rng.standard_normal(n)
        """
    assert "rng-discipline" not in rules_hit(clean)
    # The coercion point itself may touch np.random.default_rng…
    coercion = "import numpy as np\nrng = np.random.default_rng(0)\n"
    assert "rng-discipline" not in rules_hit(
        coercion, rel_path="src/repro/util/rng.py"
    )
    # …but nothing else may, and stdlib random is banned even there.
    assert "rng-discipline" in rules_hit(coercion)
    assert "rng-discipline" in rules_hit(
        "import random\n", rel_path="src/repro/util/rng.py"
    )


# ----------------------------------------------------------------------
# index-dtype
# ----------------------------------------------------------------------
def test_index_dtype_flags_literal_dtypes():
    src = """
        import numpy as np

        def ids(n):
            a = np.zeros(n, dtype=np.int32)
            return a.astype(np.int64)
        """
    findings = [
        f
        for f in lint(src, rel_path="src/repro/graphs/x.py")
        if f.rule == "index-dtype"
    ]
    assert len(findings) == 2


def test_index_dtype_clean_on_named_lanes_and_out_of_scope():
    clean = """
        import numpy as np
        from repro.dtypes import INDEX_DTYPE, WIDE_DTYPE

        def ids(n):
            a = np.zeros(n, dtype=INDEX_DTYPE)
            return a.astype(WIDE_DTYPE)
        """
    assert "index-dtype" not in rules_hit(clean, "src/repro/graphs/x.py")
    # Out of the rule's scope entirely (e.g. congest cost models).
    dirty = "import numpy as np\na = np.zeros(3, dtype=np.int64)\n"
    assert "index-dtype" not in rules_hit(dirty, "src/repro/congest/x.py")


# ----------------------------------------------------------------------
# pool-bypass
# ----------------------------------------------------------------------
def test_pool_bypass_flags_direct_threading_import():
    assert "pool-bypass" in rules_hit("import threading\n")
    assert "pool-bypass" in rules_hit(
        "from concurrent.futures import ThreadPoolExecutor\n"
    )


def test_pool_bypass_flags_the_former_parallel_package():
    # No path under src/repro is exempt, the old package path included.
    assert "pool-bypass" in rules_hit(
        "import threading\n", rel_path="src/repro/parallel/pool.py"
    )


# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------
_LOCKED_CLASS = """
    import threading

    class Pool:
        _GUARDED_BY = ("_items",)

        def __init__(self):
            self._lock = threading.Lock()  # repolint: disable=pool-bypass -- fixture
            self._items = []

        def put(self, x):
            {body}
    """


def test_lock_discipline_flags_unguarded_write():
    src = _LOCKED_CLASS.format(body="self._items.append(x)")
    assert "lock-discipline" in rules_hit(src)


def test_lock_discipline_flags_assignment_outside_with():
    src = _LOCKED_CLASS.format(body="self._items = [x]")
    assert "lock-discipline" in rules_hit(src)


def test_lock_discipline_clean_under_lock_and_in_init():
    src = _LOCKED_CLASS.format(
        body="with self._lock:\n                self._items.append(x)"
    )
    assert "lock-discipline" not in rules_hit(src)


# ----------------------------------------------------------------------
# epoch-discipline
# ----------------------------------------------------------------------
def test_epoch_discipline_flags_mutation_without_invalidate():
    src = """
        class Graph:
            def chop(self):
                self._eu = self._eu[:-1]
        """
    findings = lint(src, rel_path="src/repro/graphs/graph.py")
    assert any(f.rule == "epoch-discipline" for f in findings)


def test_epoch_discipline_flags_return_before_bump():
    src = """
        class Graph:
            def chop(self, bail):
                self._eu = self._eu[:-1]
                if bail:
                    return None
                self._invalidate()
        """
    findings = [
        f
        for f in lint(src, rel_path="src/repro/graphs/graph.py")
        if f.rule == "epoch-discipline"
    ]
    assert len(findings) == 1
    assert "return" in findings[0].message


def test_epoch_discipline_clean_with_invalidate():
    src = """
        class Graph:
            def chop(self):
                self._eu = self._eu[:-1]
                self._invalidate()
        """
    assert "epoch-discipline" not in rules_hit(src, "src/repro/graphs/graph.py")


def test_epoch_discipline_flags_unjournaled_capacity_write():
    # A bare version bump next to a capacity write satisfies the old
    # epoch contract but leaves a step deltas_since() cannot account
    # for: the write must route through _record_capacity_delta or
    # _invalidate.
    src = """
        class Graph:
            def scale(self, eid, factor):
                self._cap[eid] = self._cap[eid] * factor
                self._version += 1
        """
    findings = [
        f
        for f in lint(src, rel_path="src/repro/graphs/graph.py")
        if f.rule == "epoch-discipline"
    ]
    assert len(findings) == 1
    assert "journal" in findings[0].message


def test_epoch_discipline_clean_capacity_write_through_journal():
    src = """
        class Graph:
            def scale(self, eid, factor):
                old = float(self._cap[eid])
                self._cap[eid] = old * factor
                self._record_capacity_delta(eid, old, old * factor)
        """
    assert "epoch-discipline" not in rules_hit(src, "src/repro/graphs/graph.py")


# ----------------------------------------------------------------------
# hot-path-alloc
# ----------------------------------------------------------------------
def test_hot_path_alloc_flags_allocation_in_hot_kernel():
    src = """
        import numpy as np
        from repro.hotpath import hot_kernel

        @hot_kernel
        def step(ws):
            tmp = np.zeros(ws.size)
            return tmp
        """
    findings = [f for f in lint(src) if f.rule == "hot-path-alloc"]
    assert len(findings) == 1
    assert "np.zeros" in findings[0].message


def test_hot_path_alloc_honors_alloc_ok_and_undecorated():
    marked = """
        import numpy as np
        from repro.hotpath import hot_kernel

        @hot_kernel
        def step(ws, out=None):
            if out is None:
                out = np.zeros(ws.size)  # alloc-ok (unbuffered fallback)
            return out
        """
    assert "hot-path-alloc" not in rules_hit(marked)
    undecorated = """
        import numpy as np

        def setup(n):
            return np.zeros(n)
        """
    assert "hot-path-alloc" not in rules_hit(undecorated)


#: The per-iteration kernels of the routing loop, as ROADMAP's "Static
#: contracts" section lists them.
DOCUMENTED_HOT_KERNELS = {
    "repro.core.almost_route._evaluate",
    "repro.core.almost_route._rescale_cached",
    "repro.core.almost_route._gradient_delta",
    "repro.core.almost_route._sign_step",
    "repro.core.softmax.smax_and_gradient",
    "repro.core.stacked.StackedTreeOperator.apply",
    "repro.core.stacked.StackedTreeOperator.apply_transpose",
    "repro.core.stacked.StackedTreeOperator.estimate",
    "repro.graphs.graph.Graph.excess",
}


def test_hot_kernel_registry_is_the_documented_list():
    """After ``import repro`` the registry holds exactly the documented
    kernels, once each: a kernel that loses its ``@hot_kernel`` (and
    with it hot-path-alloc's check), or a new one left off the list,
    fails here. A fresh interpreter keeps other tests' imports out."""
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro, repro.hotpath; "
            "print(chr(10).join(repro.hotpath.HOT_KERNELS))",
        ],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    registered = result.stdout.split()
    assert len(registered) == len(set(registered))
    assert set(registered) == DOCUMENTED_HOT_KERNELS


# ----------------------------------------------------------------------
# error-discipline
# ----------------------------------------------------------------------
def test_error_discipline_flags_bare_valueerror_and_assert():
    src = """
        def check(x):
            assert x is not None
            if x < 0:
                raise ValueError("negative")
            if x > 9:
                raise IndexError(f"id {x} out of range")
        """
    hits = [f for f in lint(src) if f.rule == "error-discipline"]
    assert len(hits) == 3


def test_error_discipline_clean_on_repro_errors():
    src = """
        from repro.errors import GraphError

        def check(x):
            if x < 0:
                raise GraphError("negative")
        """
    assert "error-discipline" not in rules_hit(src)


# ----------------------------------------------------------------------
# except-discipline
# ----------------------------------------------------------------------
def test_except_discipline_flags_bare_and_silent_broad_handlers():
    src = """
        def teardown(x):
            try:
                x.close()
            except:
                pass
            try:
                x.unlink()
            except Exception:
                pass
            try:
                x.flush()
            except (ValueError, BaseException):
                ...
        """
    hits = [f for f in lint(src) if f.rule == "except-discipline"]
    assert len(hits) == 3


def test_except_discipline_clean_on_counted_or_narrow_handlers():
    src = """
        from repro.errors import ServingError

        def recover(pool, x):
            try:
                x.export()
            except OSError:
                pass
            try:
                x.attach()
            except Exception as exc:
                pool.stats.attach_failures += 1
            try:
                x.solve()
            except Exception:
                raise ServingError("wrapped")
        """
    assert "except-discipline" not in rules_hit(src)


def test_except_discipline_suppression_and_scope():
    src = """
        def teardown(x):
            try:
                x.close()
            except Exception:  # repolint: disable=except-discipline -- atexit teardown
                pass
        """
    assert "except-discipline" not in rules_hit(src)
    # Out of scope: tools/ and benchmarks/ are not recovery layers.
    assert "except-discipline" not in rules_hit(
        """
        def f(x):
            try:
                x()
            except Exception:
                pass
        """,
        rel_path="tools/somewhere/x.py",
    )


# ----------------------------------------------------------------------
# no-recursion
# ----------------------------------------------------------------------
def test_no_recursion_flags_self_calls_by_name_and_method():
    src = """
        def depth(tree, node):
            return 1 + max((depth(tree, c) for c in tree[node]), default=0)

        class Walker:
            def visit(self, node):
                for child in node.children:
                    self.visit(child)

            @classmethod
            def build(cls, spec):
                return cls.build(spec[1:]) if spec else None
        """
    hits = [f for f in lint(src) if f.rule == "no-recursion"]
    assert [f.line for f in hits] == [2, 6, 11]
    assert "explicit stack" in hits[0].message
    # Only files under src/repro are checked.
    assert "no-recursion" not in rules_hit(src, rel_path="tools/x.py")


def test_no_recursion_clean_on_explicit_stack_namesakes_and_suppression():
    (rule,) = [r for r in all_rules() if r.name == "no-recursion"]
    src = """
        def depth(tree, root):
            best, stack = 0, [(root, 1)]
            while stack:
                node, d = stack.pop()
                best = max(best, d)
                stack.extend((c, d + 1) for c in tree[node])
            return best

        class Operator:
            def apply(self, b):
                return apply(self, b)  # the module function, not itself

            def estimate(self, b):
                return self.inner.estimate(b)

        def words(payload):  # repolint: disable=no-recursion -- nesting depth
            if isinstance(payload, list):
                return sum(words(item) for item in payload)
            return 1
        """
    assert check_source(textwrap.dedent(src), "src/repro/core/x.py", [rule]) == []


# ----------------------------------------------------------------------
# mutable-default
# ----------------------------------------------------------------------
def test_mutable_default_flags_literal_and_constructor():
    src = """
        def collect(x, seen=[], cache=dict()):
            seen.append(x)
            return seen, cache
        """
    hits = [f for f in lint(src) if f.rule == "mutable-default"]
    assert len(hits) == 2


def test_mutable_default_clean_on_none_sentinel():
    src = """
        def collect(x, seen=None):
            seen = [] if seen is None else seen
            seen.append(x)
            return seen
        """
    assert "mutable-default" not in rules_hit(src)


# ----------------------------------------------------------------------
# shadowed-builtin
# ----------------------------------------------------------------------
def test_shadowed_builtin_flags_parameter_and_local():
    src = """
        def lookup(list, key):
            id = key + 1
            return list[id]
        """
    hits = [f for f in lint(src) if f.rule == "shadowed-builtin"]
    assert len(hits) == 2


def test_shadowed_builtin_clean_on_ordinary_names():
    src = """
        def lookup(items, key):
            idx = key + 1
            return items[idx]
        """
    assert "shadowed-builtin" not in rules_hit(src)


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_line_suppression_silences_only_named_rule():
    src = """
        def check(x):
            raise ValueError("x")  # repolint: disable=error-discipline -- fixture
        """
    assert "error-discipline" not in rules_hit(src)
    # A different rule name on the same line does not silence it.
    other = """
        def check(x):
            raise ValueError("x")  # repolint: disable=rng-discipline -- fixture
        """
    assert "error-discipline" in rules_hit(other)


def test_disable_all_and_def_line_suppression():
    src = """
        def check(x):
            raise ValueError("x")  # repolint: disable=all -- fixture
        """
    assert lint(src) == []
    # Whole-method findings anchor at the def line, so the comment
    # belongs there.
    graph = """
        class Graph:
            def chop(self):  # repolint: disable=epoch-discipline -- fixture
                self._eu = self._eu[:-1]
        """
    assert "epoch-discipline" not in rules_hit(graph, "src/repro/graphs/graph.py")


def test_parse_error_is_reported_as_finding():
    findings = lint("def broken(:\n")
    assert [f.rule for f in findings] == ["parse-error"]


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def test_json_round_trip():
    findings = lint(
        """
        def check(x):
            assert x
        """
    )
    assert findings
    text = render_json(findings, files_scanned=1)
    assert parse_json(text) == findings


def test_json_version_mismatch_rejected():
    bad = render_json([], 0).replace(
        f'"version": {JSON_SCHEMA_VERSION}', '"version": 99'
    )
    with pytest.raises(ValueError):
        parse_json(bad)


def test_text_report_format():
    findings = lint(
        """
        def check(x):
            assert x
        """
    )
    out = render_text(findings, files_scanned=3)
    first = out.splitlines()[0]
    assert first.startswith("src/repro/core/x.py:3:")
    assert "error-discipline" in first
    assert out.splitlines()[-1] == "repolint: 1 finding in 3 files"


# ----------------------------------------------------------------------
# Runner + CLI
# ----------------------------------------------------------------------
def test_run_paths_rejects_unknown_select(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n")
    with pytest.raises(ValueError):
        run_paths(["a.py"], root=tmp_path, select=["no-such-rule"])


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "tools.repolint", *argv],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )


def test_cli_exit_codes(tmp_path):
    clean = tmp_path / "clean"
    clean.mkdir()
    (clean / "ok.py").write_text("x = 1\n")
    # Every repository rule is path-scoped, so the portable way to
    # trip the CLI from a scratch dir is the engine-level parse-error.
    dirty = tmp_path / "dirty"
    dirty.mkdir()
    (dirty / "bad.py").write_text("def broken(:\n")

    assert _cli(str(clean)).returncode == 0
    proc = _cli(str(dirty))
    assert proc.returncode == 1
    assert "parse-error" in proc.stdout
    assert _cli(str(tmp_path / "missing")).returncode == 2
    assert _cli("--select", "no-such-rule", str(clean)).returncode == 2
    assert _cli("--list-rules").returncode == 0


def test_repo_tree_is_clean_under_repolint():
    """The shipped tree itself must lint clean (the CI gate)."""
    findings = run_paths(["src", "tools", "benchmarks"], root=REPO_ROOT)
    assert findings == [], render_text(findings)
