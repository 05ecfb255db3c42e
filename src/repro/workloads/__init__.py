"""Synthetic workload suite (stand-in for the paper's Table 1 traces)."""

from repro.workloads.categories import CATEGORIES, CATEGORY_COUNTS, base_params
from repro.workloads.generators.engine import generate_trace
from repro.workloads.spec import WorkloadParams, WorkloadSpec
from repro.workloads.suite import (
    build_suite,
    get_workload,
    sample_suite,
    suite_by_category,
)

__all__ = [
    "CATEGORIES",
    "CATEGORY_COUNTS",
    "WorkloadParams",
    "WorkloadSpec",
    "base_params",
    "generate_trace",
    "build_suite",
    "suite_by_category",
    "get_workload",
    "sample_suite",
]
