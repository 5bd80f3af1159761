"""Shared by everything under ``benchmarks/``."""

#: One root seed for every artefact and benchmark run, so they are comparable.
BENCH_SEED = 42
