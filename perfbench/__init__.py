"""End-to-end and per-layer benchmark of the max-flow library.

Run one workload with ``python3 perfbench/run.py --workload maxflow
--seed 1 --seconds 30 --trace 0``; see ``perfbench/README.md``.
"""
