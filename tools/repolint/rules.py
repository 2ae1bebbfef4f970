"""The repository's rule catalogue.

Each rule guards one cross-cutting convention the substrate's
correctness rests on; ROADMAP.md ("Static contracts") maps every rule
to the invariant it enforces and the PR that introduced the
invariant. Rules are intentionally *syntactic*: they inspect one file
at a time with the stdlib ``ast`` and accept per-line
``# repolint: disable=<rule>`` suppressions (see engine.py), trading
soundness for zero-dependency speed and reviewable precision. Where a
rule needs a registry (guarded attributes, hot kernels), the registry
lives *in the checked source* — a ``_GUARDED_BY`` class attribute, a
``@hot_kernel`` decorator — so the contract is visible at the
definition it protects, not in a lint config.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.repolint.engine import FileContext, Finding, Rule, register

SRC = "src/repro"

#: Names the repository imports NumPy as. The substrate uses ``np``
#: exclusively; ``numpy`` is accepted so fixtures/tools can't dodge a
#: rule by spelling the import out.
_NUMPY_NAMES = ("np", "numpy")


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _root_pos(node: ast.AST) -> tuple[int, int]:
    """Position of the root Name of an attribute chain (dedup key)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))


def _functions(tree: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _walk_shallow(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Walk a function's nodes, not descending into nested defs (those
    are visited as functions in their own right)."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _decorator_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    names: set[str] = set()
    for dec in func.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        dotted = _dotted(target)
        if dotted is not None:
            names.add(dotted.rsplit(".", 1)[-1])
    return names


@register
class RngDiscipline(Rule):
    """Randomness must thread an explicit seeded Generator.

    Module-level NumPy RNG state (``np.random.seed`` / ``np.random.rand``
    / …) and the stdlib ``random`` module are process-global: any use
    breaks run-to-run reproducibility and the draw-for-draw goldens the
    tree samplers are pinned against. The single coercion point is
    ``repro.util.rng.as_generator``; that file is the one place allowed
    to touch ``np.random.default_rng``.
    """

    name = "rng-discipline"
    description = (
        "no module-level np.random state or stdlib random under src/repro "
        "(thread an explicit Generator; coerce via repro.util.rng)"
    )
    paths = (SRC,)

    _COERCION_POINT = f"{SRC}/util/rng.py"
    #: Attribute chains under np.random that do not touch global state.
    _ALLOWED_SUFFIXES = ("Generator", "SeedSequence", "BitGenerator", "PCG64")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "random":
                        yield self.finding(
                            ctx,
                            node,
                            "stdlib 'random' is banned: thread a seeded "
                            "np.random.Generator (repro.util.rng.as_generator)",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] == "random":
                    yield self.finding(
                        ctx,
                        node,
                        "stdlib 'random' is banned: thread a seeded "
                        "np.random.Generator (repro.util.rng.as_generator)",
                    )
        if ctx.path == self._COERCION_POINT:
            return
        seen: set[tuple[int, int]] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            dotted = _dotted(node)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if len(parts) < 2 or parts[0] not in _NUMPY_NAMES:
                continue
            if parts[1] != "random":
                continue
            pos = _root_pos(node)
            if pos in seen:  # inner link of an already-reported chain
                continue
            seen.add(pos)
            if len(parts) > 2 and parts[2] in self._ALLOWED_SUFFIXES:
                continue
            if len(parts) == 2:
                # Bare ``np.random`` (e.g. a module alias) — still
                # reachable global state.
                pass
            yield self.finding(
                ctx,
                node,
                f"'{dotted}' reaches np.random module state: accept an "
                "explicit Generator (repro.util.rng.as_generator) instead",
            )


@register
class IndexDtype(Rule):
    """Integer array dtypes must be the named single-point constants.

    PR 2 narrowed every index array to ``INDEX_DTYPE`` (int32, guarded
    by ``MAX_INDEX`` at the Graph boundary) and PR 7 named the
    deliberate 64-bit lane ``WIDE_DTYPE`` (overflow-proof pair keys,
    cumulative counts, sentinel-valued distance/parent arrays). A
    literal ``np.int32``/``np.int64``/``int`` dtype in the kernel
    directories bypasses that single point of control — the compiled
    tier and any future re-narrowing must be one-line switches.
    """

    name = "index-dtype"
    description = (
        "integer array constructors in graphs/ and core/ must use "
        "INDEX_DTYPE / WIDE_DTYPE, not literal np.int32/np.int64/int"
    )
    paths = (f"{SRC}/graphs", f"{SRC}/core")

    _BAD_ATTRS = {"int32", "int64", "intc", "longlong", "intp"}
    #: The definition sites themselves assign the literal once.
    _DEFINITION_NAMES = {"INDEX_DTYPE", "WIDE_DTYPE"}

    def _is_bad_dtype(self, node: ast.AST) -> str | None:
        if isinstance(node, ast.Name) and node.id == "int":
            return "int"
        dotted = _dotted(node)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if (
            len(parts) == 2
            and parts[0] in _NUMPY_NAMES
            and parts[1] in self._BAD_ATTRS
        ):
            return dotted
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        definition_lines: set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in self._DEFINITION_NAMES
                for t in node.targets
            ):
                definition_lines.add(node.lineno)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg != "dtype":
                    continue
                bad = self._is_bad_dtype(kw.value)
                if bad and node.lineno not in definition_lines:
                    yield self.finding(
                        ctx,
                        kw.value,
                        f"literal integer dtype '{bad}': use INDEX_DTYPE "
                        "(narrow index lane) or WIDE_DTYPE (64-bit "
                        "keys/counts) from repro.graphs.csr",
                    )
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "astype"
                and node.args
            ):
                bad = self._is_bad_dtype(node.args[0])
                if bad:
                    yield self.finding(
                        ctx,
                        node.args[0],
                        f"literal integer dtype '{bad}' in astype(): use "
                        "INDEX_DTYPE or WIDE_DTYPE from repro.graphs.csr",
                    )


@register
class PoolBypass(Rule):
    """The library runs in one process, on the calling thread.

    Construction and routing both run serially: sharding them over
    thread and process pools measured slower on the recorded host and
    was deleted. A stray Executor, Thread or Process would reintroduce
    a schedule the bit-identity goldens never exercise. Every import
    of ``threading``, ``multiprocessing`` or ``concurrent`` under
    ``src/repro`` therefore needs a justified per-line suppression
    (today there is one: the ``Lock`` of the serving workspace pool).
    """

    name = "pool-bypass"
    description = (
        "concurrent.futures/multiprocessing/threading import under "
        "src/repro (the library runs on the calling thread)"
    )
    paths = (SRC,)

    _BANNED_ROOTS = {"threading", "multiprocessing", "concurrent"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            modules: list[str] = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
            for module in modules:
                if module.split(".")[0] in self._BANNED_ROOTS:
                    yield self.finding(
                        ctx,
                        node,
                        f"import of '{module}': the library runs on the "
                        "calling thread; justify a lock-only import with "
                        "a per-line suppression",
                    )


class _LockWalker:
    """Walks a method body tracking ``with self._lock`` nesting."""

    def __init__(self, guarded: set[str]) -> None:
        self.guarded = guarded
        self.violations: list[tuple[ast.AST, str]] = []

    _MUTATORS = {
        "append", "extend", "insert", "remove", "pop", "clear", "update",
        "setdefault", "popitem", "add", "discard",
    }

    def _is_lock_with(self, node: ast.With) -> bool:
        for item in node.items:
            try:
                text = ast.unparse(item.context_expr)
            except Exception:
                continue
            if "self._lock" in text:
                return True
        return False

    def _guarded_attr(self, node: ast.AST) -> str | None:
        """The guarded attribute written through ``node``, if any."""
        target = node
        if isinstance(target, ast.Subscript):
            target = target.value
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and target.attr in self.guarded
        ):
            return target.attr
        return None

    def walk(self, stmts: list[ast.stmt], locked: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = locked or (
                    isinstance(stmt, ast.With) and self._is_lock_with(stmt)
                )
                self.walk(stmt.body, inner)
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Nested defs execute later, under whatever lock their
                # caller holds then — analyze them as unlocked.
                self.walk(stmt.body, False)
                continue
            if not locked:
                self._check_stmt(stmt)
            for field in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, field, None)
                if isinstance(sub, list) and sub:
                    self.walk(sub, locked)
            for handler in getattr(stmt, "handlers", []) or []:
                self.walk(handler.body, locked)

    def _check_stmt(self, stmt: ast.stmt) -> None:
        targets: list[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            func = stmt.value.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self._MUTATORS
            ):
                attr = self._guarded_attr(func.value)
                if attr is not None:
                    self.violations.append((stmt, attr))
            return
        for target in targets:
            attr = self._guarded_attr(target)
            if attr is not None:
                self.violations.append((stmt, attr))


@register
class LockDiscipline(Rule):
    """Writes to ``_GUARDED_BY`` attributes need ``with self._lock``.

    Classes sharing state across threads (the serving workspace pool,
    PR 6) declare their lock-protected
    fields in a ``_GUARDED_BY`` class attribute; any lexical write to
    one of them outside a ``with self._lock`` block is a data race
    waiting for a free-threaded build. ``__init__`` is exempt
    (construction happens-before publication).
    """

    name = "lock-discipline"
    description = (
        "write to a _GUARDED_BY attribute outside 'with self._lock' "
        "(construction in __init__ exempt)"
    )
    paths = (SRC,)

    def _guarded_set(self, cls: ast.ClassDef) -> set[str]:
        for stmt in cls.body:
            if not isinstance(stmt, ast.Assign):
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == "_GUARDED_BY"
                for t in stmt.targets
            ):
                continue
            value = stmt.value
            if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                return {
                    elt.value
                    for elt in value.elts
                    if isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)
                }
            if isinstance(value, ast.Call) and value.args:
                inner = value.args[0]
                if isinstance(inner, (ast.Tuple, ast.List, ast.Set)):
                    return {
                        elt.value
                        for elt in inner.elts
                        if isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)
                    }
        return set()

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            guarded = self._guarded_set(node)
            if not guarded:
                continue
            for func in node.body:
                if not isinstance(
                    func, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if func.name == "__init__":
                    continue
                walker = _LockWalker(guarded)
                walker.walk(func.body, locked=False)
                for stmt, attr in walker.violations:
                    yield self.finding(
                        ctx,
                        stmt,
                        f"write to lock-guarded 'self.{attr}' outside "
                        f"'with self._lock' in {node.name}.{func.name} "
                        f"(declared in {node.name}._GUARDED_BY)",
                    )


@register
class EpochDiscipline(Rule):
    """Graph buffer mutations must bump the version epoch.

    ``Graph._version`` (PR 5) is what keys the serving layer's result
    cache and its approximator epoch: a method that writes the edge or
    capacity buffers and exits without ``self._invalidate()`` or a
    ``self._version`` bump hands every downstream cache a stale epoch
    — the wrong-but-plausible-flow failure mode. The check is
    lexical: a mutating method must contain a bump, and no ``return``
    may sit between the first mutation and the first bump.

    PR 10 tightened the capacity side: ``deltas_since`` vouches for
    every version step in its window, so a ``_cap`` write must also
    *journal* — route through ``self._record_capacity_delta(...)`` or
    ``self._invalidate()`` (which marks the journal structural). A
    bare ``self._version += 1`` next to a capacity write would leave
    an unaccounted step the journal then wrongly vouches across.
    """

    name = "epoch-discipline"
    description = (
        "Graph method mutates edge/capacity buffers without "
        "_invalidate()/_version bump on every exit path, or writes "
        "the capacity buffer without journaling the delta"
    )
    paths = (f"{SRC}/graphs",)

    _CLASS = "Graph"
    _BUFFERS = {"_eu", "_ev", "_cap"}
    _EXEMPT = {"__init__", "_record_capacity_delta"}

    def _self_attr(self, node: ast.AST) -> str | None:
        target = node
        if isinstance(target, ast.Subscript):
            target = target.value
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return target.attr
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef) or cls.name != self._CLASS:
                continue
            for func in cls.body:
                if not isinstance(
                    func, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if func.name in self._EXEMPT:
                    continue
                mutations: list[ast.stmt] = []
                cap_mutations: list[ast.stmt] = []
                bumps: list[ast.stmt] = []
                journal_bumps: list[ast.stmt] = []
                returns: list[ast.Return] = []
                for node in ast.walk(func):
                    if isinstance(node, (ast.Assign, ast.AugAssign)):
                        targets = (
                            node.targets
                            if isinstance(node, ast.Assign)
                            else [node.target]
                        )
                        for target in targets:
                            attr = self._self_attr(target)
                            if attr in self._BUFFERS:
                                mutations.append(node)
                                if attr == "_cap":
                                    cap_mutations.append(node)
                            elif attr == "_version":
                                bumps.append(node)
                    elif isinstance(node, ast.Expr) and isinstance(
                        node.value, ast.Call
                    ):
                        dotted = _dotted(node.value.func)
                        if dotted in (
                            "self._invalidate",
                            "self._adopt_arrays",
                            "self._record_capacity_delta",
                        ):
                            # _adopt_arrays invalidates on behalf of
                            # its caller (it is itself checked);
                            # _record_capacity_delta bumps and journals
                            # a capacity-only write.
                            bumps.append(node)
                            journal_bumps.append(node)
                    elif isinstance(node, ast.Return):
                        returns.append(node)
                if not mutations:
                    continue
                if cap_mutations and not journal_bumps:
                    yield self.finding(
                        ctx,
                        cap_mutations[0],
                        f"{cls.name}.{func.name} writes the capacity "
                        "buffer without journaling the delta: route the "
                        "write through _record_capacity_delta() or "
                        "_invalidate(), or deltas_since() vouches for "
                        "an interval it cannot account for",
                    )
                if not bumps:
                    yield self.finding(
                        ctx,
                        func,
                        f"{cls.name}.{func.name} writes "
                        f"{sorted(self._BUFFERS)} buffers but never calls "
                        "_invalidate() / bumps _version: downstream "
                        "version-keyed caches go stale",
                    )
                    continue
                first_mut = min(m.lineno for m in mutations)
                first_bump = min(b.lineno for b in bumps)
                for ret in returns:
                    if first_mut <= ret.lineno < first_bump:
                        yield self.finding(
                            ctx,
                            ret,
                            f"exit path in {cls.name}.{func.name} between "
                            "buffer mutation and epoch bump: this return "
                            "skips _invalidate()",
                        )


@register
class HotPathAlloc(Rule):
    """``@hot_kernel`` functions may not allocate outside ``# alloc-ok``.

    PR 3 made AlmostRoute's inner loop allocation-free on a reusable
    workspace. The ``@hot_kernel`` decorator (repro.util.hotpath) marks the
    functions under that contract; inside them, allocating NumPy
    constructors are findings unless the line carries ``# alloc-ok
    (reason)`` — the escape hatch for unbuffered-caller fallbacks.
    """

    name = "hot-path-alloc"
    description = (
        "allocating NumPy constructor inside a @hot_kernel function "
        "without an '# alloc-ok' marker"
    )
    paths = (SRC,)

    _ALLOCATORS = {
        "empty", "zeros", "ones", "full", "empty_like", "zeros_like",
        "ones_like", "full_like", "array", "arange", "linspace",
        "concatenate", "stack", "vstack", "hstack", "column_stack",
        "tile", "repeat", "copy",
    }

    def _alloc_ok(self, ctx: FileContext, node: ast.AST) -> bool:
        start = getattr(node, "lineno", 0)
        end = getattr(node, "end_lineno", start) or start
        return any(
            "alloc-ok" in ctx.comments.get(line, "")
            for line in range(start, end + 1)
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in _functions(ctx.tree):
            if "hot_kernel" not in _decorator_names(func):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                func_node = node.func
                label: str | None = None
                if isinstance(func_node, ast.Attribute):
                    dotted = _dotted(func_node)
                    if dotted is not None:
                        parts = dotted.split(".")
                        if (
                            len(parts) == 2
                            and parts[0] in _NUMPY_NAMES
                            and parts[1] in self._ALLOCATORS
                        ):
                            label = dotted
                    if label is None and func_node.attr == "copy" and not node.args:
                        label = f"{_dotted(func_node) or '<expr>.copy'}()"
                if label is None:
                    continue
                if self._alloc_ok(ctx, node):
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"'{label}' allocates inside hot kernel "
                    f"'{func.name}': reuse a workspace buffer, or mark "
                    "the line '# alloc-ok (reason)' if it is a "
                    "setup/fallback path",
                )


@register
class ErrorDiscipline(Rule):
    """Input validation raises the ReproError family, never bare
    ValueError/TypeError/IndexError/KeyError/assert.

    The library's catchability contract (errors.py): callers catch
    ``ReproError`` subclasses without swallowing programming errors.
    A bare ``ValueError`` leaks NumPy-shaped failures into user
    ``except`` clauses; a bare ``assert`` disappears under ``-O``.
    """

    name = "error-discipline"
    description = (
        "bare raise ValueError/TypeError/IndexError/KeyError or assert "
        "under src/repro (raise a ReproError subclass, e.g. GraphError)"
    )
    paths = (SRC,)

    _BANNED = {"ValueError", "TypeError", "IndexError", "KeyError"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                target = exc.func if isinstance(exc, ast.Call) else exc
                if isinstance(target, ast.Name) and target.id in self._BANNED:
                    yield self.finding(
                        ctx,
                        node,
                        f"bare {target.id}: raise a ReproError subclass "
                        "(repro.errors) so callers can catch library "
                        "failures without swallowing programming errors",
                    )
            elif isinstance(node, ast.Assert):
                yield self.finding(
                    ctx,
                    node,
                    "bare assert vanishes under 'python -O': raise a "
                    "ReproError subclass for invariants that must hold "
                    "in production",
                )


@register
class NoRecursion(Rule):
    """No function under src/repro calls itself.

    The paper's round bound makes large-diameter networks first-class
    inputs, and a recursion whose depth follows the graph (a DFS along
    an augmenting path, a walk down a tree) stops at Python's ~1000
    frames. The finding anchors at the ``def`` line, so a recursion
    bounded by something other than the graph carries its suppression
    there, naming the bound.
    """

    name = "no-recursion"
    description = (
        "function under src/repro calls itself, by name or through "
        "self./cls. in a method (use an explicit stack)"
    )
    paths = (SRC,)

    @staticmethod
    def _calls_itself(target: ast.AST, name: str, is_method: bool) -> bool:
        if is_method:
            return (
                isinstance(target, ast.Attribute)
                and target.attr == name
                and isinstance(target.value, ast.Name)
                and target.value.id in ("self", "cls")
            )
        return isinstance(target, ast.Name) and target.id == name

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        methods = {
            id(node)
            for cls in ast.walk(ctx.tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for func in _functions(ctx.tree):
            is_method = id(func) in methods
            lines = [
                node.lineno
                for node in _walk_shallow(func)
                if isinstance(node, ast.Call)
                and self._calls_itself(node.func, func.name, is_method)
            ]
            if lines:
                yield self.finding(
                    ctx,
                    func,
                    f"'{func.name}' calls itself (line {min(lines)}): "
                    "Python's ~1000-frame limit turns a deep graph into "
                    "a RecursionError; use an explicit stack",
                )


@register
class MutableDefault(Rule):
    """No mutable default arguments.

    A shared list/dict/set default is cross-call state — in a library
    that serves many queries from one process (PR 6), that is a cache
    poisoning bug, not a style nit.
    """

    name = "mutable-default"
    description = "mutable default argument (list/dict/set literal or call)"
    paths = (SRC, "tools", "benchmarks")

    _CTOR_NAMES = {"list", "dict", "set"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in _functions(ctx.tree):
            args = func.args
            for default in [*args.defaults, *args.kw_defaults]:
                if default is None:
                    continue
                bad = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in self._CTOR_NAMES
                )
                if bad:
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default in '{func.name}': defaults are "
                        "evaluated once and shared across calls; default "
                        "to None and construct inside",
                    )


@register
class ShadowedBuiltin(Rule):
    """Function parameters and locals must not shadow builtins.

    Shadowing ``id``/``list``/``type``/… inside kernel code is how a
    later edit silently calls the wrong callable. Class-level
    attribute names (e.g. a dataclass ``id`` field) are fine — only
    bindings that enter a function scope are flagged.
    """

    name = "shadowed-builtin"
    description = "function parameter or local variable shadows a builtin"
    paths = (SRC,)

    _BUILTINS = frozenset({
        "list", "dict", "set", "tuple", "type", "id", "input", "filter",
        "map", "sum", "min", "max", "len", "range", "object", "hash",
        "next", "iter", "vars", "format", "bytes", "str", "int", "float",
        "bool", "all", "any", "open", "print", "sorted", "zip", "abs",
        "round", "repr", "slice", "frozenset", "dir", "bin", "hex", "pow",
    })

    def _flag(
        self, ctx: FileContext, node: ast.AST, name: str, func_name: str
    ) -> Finding:
        return self.finding(
            ctx,
            node,
            f"'{name}' shadows the builtin inside '{func_name}'",
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in _functions(ctx.tree):
            args = func.args
            for arg in [
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
                *( [args.vararg] if args.vararg else [] ),
                *( [args.kwarg] if args.kwarg else [] ),
            ]:
                if arg.arg in self._BUILTINS:
                    yield self._flag(ctx, arg, arg.arg, func.name)
            for node in _walk_shallow(func):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id in self._BUILTINS
                        ):
                            yield self._flag(ctx, target, target.id, func.name)
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    if (
                        isinstance(node.target, ast.Name)
                        and node.target.id in self._BUILTINS
                    ):
                        yield self._flag(
                            ctx, node.target, node.target.id, func.name
                        )
                elif isinstance(node, ast.comprehension):
                    if (
                        isinstance(node.target, ast.Name)
                        and node.target.id in self._BUILTINS
                    ):
                        yield self._flag(
                            ctx, node.target, node.target.id, func.name
                        )


@register
class ExceptDiscipline(Rule):
    """Recovery paths must recover, not swallow.

    Every failure a layer absorbs must either re-raise a
    ``ReproError`` or record a counted ``ServerHealth`` degradation,
    so that "recovered" is observable and "silently ignored" is
    impossible.
    A bare ``except:`` (which also eats ``KeyboardInterrupt``) or an
    ``except Exception: pass`` body is exactly the silent-swallow
    shape that rots into a wrong-answer bug; teardown paths that
    legitimately must not raise (finalizers, atexit hooks) carry a
    per-line suppression naming why.
    """

    name = "except-discipline"
    description = (
        "bare 'except:' or 'except Exception/BaseException' whose body "
        "only passes under src/repro (re-raise a ReproError or record "
        "a counted degradation)"
    )
    paths = (SRC,)

    _BROAD = {"Exception", "BaseException"}

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        """Whether the handler catches Exception/BaseException (alone
        or as a tuple member). ``except:`` is handled separately."""
        exc = handler.type
        members = exc.elts if isinstance(exc, ast.Tuple) else [exc]
        for member in members:
            dotted = _dotted(member) if member is not None else None
            if dotted is not None and dotted.rsplit(".", 1)[-1] in self._BROAD:
                return True
        return False

    def _only_passes(self, handler: ast.ExceptHandler) -> bool:
        """Whether the handler body does nothing (Pass statements or
        bare constant expressions like docstrings/ellipses only)."""
        for stmt in handler.body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue
            return False
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare 'except:' catches KeyboardInterrupt/SystemExit "
                    "too: name the exceptions, and re-raise a ReproError "
                    "or record a counted degradation",
                )
            elif self._is_broad(node) and self._only_passes(node):
                yield self.finding(
                    ctx,
                    node,
                    "'except Exception: pass' swallows failures "
                    "silently: re-raise a ReproError or record a "
                    "counted degradation (suppress per-line for "
                    "finalizer/atexit teardown that must not raise)",
                )
