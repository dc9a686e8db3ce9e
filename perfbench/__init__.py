"""The repository's benchmark: the serving path, end to end and by layer.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads and metrics.
"""
