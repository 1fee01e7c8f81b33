"""Reproducible benchmark harness: configs, datasets, runners, CLI, SVG."""

from .config import BenchError, ExperimentConfig, parse_config
from .datasets import (load_dataset, materialize_dataset, parse_dataset_spec,
                       synth_planted)
from .runners import run_lpreg, run_optimize, run_scores, run_vmv
from .svg import polyline_svg

__all__ = [
    "BenchError",
    "ExperimentConfig",
    "parse_config",
    "load_dataset",
    "materialize_dataset",
    "parse_dataset_spec",
    "synth_planted",
    "run_optimize",
    "run_lpreg",
    "run_vmv",
    "run_scores",
    "polyline_svg",
    "main",
]


def __getattr__(name):
    # ``cli`` is imported on first use, so ``python -m sketchopt.bench.cli``
    # does not find the module already imported by the package
    if name == "main":
        from .cli import main
        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
