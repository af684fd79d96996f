"""End-to-end and per-layer benchmark of the ``repro serve`` solve daemon.

Run ``python3 servebench/run.py --help`` from the repository root.
"""
