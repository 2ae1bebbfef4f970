"""Repository tooling: benchmark drivers and the repolint static pass.

The scripts (``bench_regression.py``, ``bench_serving.py``,
``run_scenarios.py``) are run directly; the :mod:`tools.repolint`
package is run as ``python -m tools.repolint`` from the repository
root. This ``__init__`` exists only to make that module path
importable.
"""
