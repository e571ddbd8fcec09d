"""Seeded benchmark of the centerstring solvers; run it as ``python3 perfbench/run.py``."""
