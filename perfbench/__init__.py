"""The repo's one benchmark: eight workloads, one set of metric names.

See ``perfbench/README.md``; the entry point is ``perfbench/run.py``.
"""
