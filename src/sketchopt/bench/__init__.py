"""Reproducible benchmark harness: configs, datasets, runners, CLI, SVG."""

from . import config, datasets, runners, svg
from .config import *
from .datasets import *
from .runners import *
from .svg import *

__all__ = [*config.__all__, *datasets.__all__, *runners.__all__,
           *svg.__all__, "main"]


def __getattr__(name):
    # ``cli`` is imported on first use, so ``python -m sketchopt.bench.cli``
    # does not find the module already imported by the package
    if name == "main":
        from .cli import main
        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
