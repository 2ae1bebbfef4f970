"""repolint — AST-based contract checker for this repository.

PRs 1–6 grew a substrate whose correctness rests on cross-cutting
*conventions*: one-process execution, ``Graph._version`` epoch
discipline, ``INDEX_DTYPE``/``WIDE_DTYPE`` single-point dtype
control, allocation-free hot kernels, seeded-``Generator``-only
randomness, lock-guarded shared state, and a ``ReproError``-family
exception contract. Every one of them used to be enforced only
dynamically — by golden tests that catch a violation *after* it has
corrupted a result. repolint enforces them statically, at the source
level, the way a sanitizer tier guards a native build.

Usage (from the repository root)::

    python -m tools.repolint src tools benchmarks
    python -m tools.repolint --format json src
    python -m tools.repolint --list-rules

The exit code is non-zero iff findings remain. Intentional exceptions
are suppressed per line with a justification::

    import threading  # repolint: disable=pool-bypass -- Lock only

and hot-kernel setup allocations with ``# alloc-ok (reason)``. The
rule catalogue, the invariant each rule guards, and the PR that
introduced each invariant are documented in ROADMAP.md ("Static
contracts"). The package is stdlib-only (``ast`` + ``tokenize``):
no third-party dependency, importable anywhere the repo is.

Layout: :mod:`~tools.repolint.engine` (file contexts, suppression
parsing, rule registry, runner), :mod:`~tools.repolint.rules` (the
rule implementations), :mod:`~tools.repolint.reporters` (text/JSON),
:mod:`~tools.repolint.cli` (argument parsing and exit codes).
"""

from tools.repolint.engine import (
    FileContext,
    Finding,
    Rule,
    all_rules,
    check_file,
    check_source,
    run_paths,
)

__all__ = [
    "FileContext",
    "Finding",
    "Rule",
    "all_rules",
    "check_file",
    "check_source",
    "run_paths",
]
