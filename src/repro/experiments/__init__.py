"""Experiment harness: timing, repetition, sweeps, and table rendering.

Shared by every script in ``benchmarks/``; keeping it inside the library
means the reproduction protocol (seeding, averaging over runs) is itself
tested code.
"""

from repro.experiments.ascii_map import render_point_map, render_region_map
from repro.experiments.charts import ascii_chart
from repro.experiments.harness import (
    RepeatedMeasurement,
    repeat_measurements,
    timed,
)
from repro.experiments.sweep import SweepPoint, edge_count_range, run_sweep
from repro.experiments.tables import format_cell, format_table, write_csv

__all__ = [
    "RepeatedMeasurement",
    "SweepPoint",
    "ascii_chart",
    "edge_count_range",
    "format_cell",
    "format_table",
    "render_point_map",
    "render_region_map",
    "repeat_measurements",
    "run_sweep",
    "timed",
    "write_csv",
]
