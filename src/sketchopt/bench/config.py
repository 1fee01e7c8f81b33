"""Flat key=value experiment configuration for the bench command.

A config file is plain text: one ``key = value`` pair per line, ``#`` starts
a comment, blank lines are ignored.  Keys mirror the runner options (see each
runner's docstring for its schema).  A config plus a master seed determines
every output byte of a run, up to floating-point reassociation.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

__all__ = ["BenchError", "ExperimentConfig", "parse_config"]

SUBCOMMANDS = ("optimize", "lpreg", "vmv", "scores")

_BOOLS = dict.fromkeys(("true", "1", "yes", "on"), True) \
    | dict.fromkeys(("false", "0", "no", "off"), False)


class BenchError(Exception):
    """Operational failure with a machine-parsable code.

    The CLI renders these as one line: ``ERROR <code>: <message>`` and exits
    nonzero.  Codes: CONFIG_NOT_FOUND, CONFIG_PARSE, CONFIG_INVALID,
    DATASET_NOT_FOUND, DATASET_PARSE, RUN_FAILED.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _check_floor(key, value, minimum):
    if minimum is not None and value < minimum:
        raise BenchError("CONFIG_INVALID", f"key {key!r}: must be >= {minimum}")


@dataclass
class ExperimentConfig:
    """A subcommand plus its flat string options.

    Typed accessors validate on demand and raise ``BenchError`` with code
    CONFIG_INVALID on malformed values, so every config mistake surfaces as a
    clean CLI error rather than a traceback.  ``minimum`` is the floor of a
    count or a real value, and an integer list may not repeat a value.  The
    accessors record every key they read, so ``check_all_read`` can reject a
    key no run uses, such as a misspelling.
    """

    subcommand: str
    options: dict = field(default_factory=dict)
    _read: set = field(default_factory=set, init=False, repr=False,
                       compare=False)

    def __post_init__(self):
        if self.subcommand not in SUBCOMMANDS:
            raise BenchError(
                "CONFIG_INVALID",
                f"unknown subcommand {self.subcommand!r}; "
                f"expected one of {', '.join(SUBCOMMANDS)}")

    # -- typed accessors ----------------------------------------------------

    def get_str(self, key, default=None, required=False):
        self._read.add(key)
        if key in self.options:
            return self.options[key].strip()
        if required:
            raise BenchError("CONFIG_INVALID", f"missing required key {key!r}")
        return default

    def _typed(self, key, default, parse, expected, minimum=None):
        """``parse`` of the value of ``key``, or ``default`` when unset; a
        value ``parse`` rejects, a non-finite float or one below ``minimum``
        is CONFIG_INVALID."""
        raw = self.get_str(key)
        if raw is None:
            return default
        try:
            value = parse(raw)
        except (KeyError, ValueError):
            raise BenchError("CONFIG_INVALID",
                             f"key {key!r}: expected {expected}, got {raw!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise BenchError("CONFIG_INVALID",
                             f"key {key!r}: must be finite, got {raw!r}")
        _check_floor(key, value, minimum)
        return value

    def get_int(self, key, default=None, minimum=None):
        return self._typed(key, default, int, "an integer", minimum)

    def get_float(self, key, default=None, minimum=None):
        return self._typed(key, default, float, "a number", minimum)

    def get_bool(self, key, default=False):
        return self._typed(key, default, lambda raw: _BOOLS[raw.lower()],
                           "true/false")

    def get_list(self, key, default=None, required=False):
        raw = self.get_str(key, None, required)
        if raw is None:
            return list(default) if default is not None else None
        items = [s.strip() for s in raw.split(",") if s.strip()]
        if not items:
            raise BenchError("CONFIG_INVALID", f"key {key!r}: empty list")
        return items

    def get_int_list(self, key, required=False, minimum=None):
        items = self.get_list(key, None, required)
        if items is None:
            return None
        try:
            values = [int(s) for s in items]
        except ValueError:
            raise BenchError("CONFIG_INVALID",
                             f"key {key!r}: expected a comma list of integers")
        _check_floor(key, min(values), minimum)
        for i, value in enumerate(values):
            if value in values[:i]:
                raise BenchError("CONFIG_INVALID",
                                 f"key {key!r}: value {value} repeats")
        return values

    def check_all_read(self):
        """Raise CONFIG_INVALID naming every key no accessor has read."""
        unread = sorted(set(self.options) - self._read)
        if unread:
            raise BenchError(
                "CONFIG_INVALID",
                f"keys not read by {self.subcommand}: "
                f"{', '.join(map(repr, unread))}")

    # -- fields shared across runners ----------------------------------------

    @property
    def out(self) -> str:
        return self.get_str("out", "bench_out")

    @property
    def seed(self) -> int:
        return self.get_int("seed", 0, minimum=0)

    @property
    def seeds(self) -> int:
        return self.get_int("seeds", 1, minimum=1)

    @property
    def svg(self) -> bool:
        return self.get_bool("svg", False)

    @property
    def workers(self) -> int:
        """Thread count; 0, the default, means min(4, cpu count)."""
        return self.get_int("workers", 0, minimum=0) \
            or min(4, os.cpu_count() or 1)

    @property
    def dataset(self) -> str:
        return self.get_str("dataset", required=True)

    @property
    def loss(self) -> str:
        return self.get_str("loss", "nlls_classification")

    @property
    def lambda_policy(self) -> str:
        policy = self.get_str("lambda_policy", "manual")
        if policy not in ("manual", "convex_auto"):
            raise BenchError(
                "CONFIG_INVALID",
                f"key 'lambda_policy': expected manual or convex_auto, "
                f"got {policy!r}")
        return policy

    @property
    def schemes(self) -> list:
        return self.get_list("schemes", default=["full"])


def parse_config(path, subcommand=None) -> ExperimentConfig:
    """Read a flat key=value config file.

    ``subcommand`` (from the CLI) wins; a ``subcommand`` key inside the file
    is allowed but must agree with it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise BenchError("CONFIG_NOT_FOUND", f"config file not found: {path}")
    except OSError as exc:
        raise BenchError("CONFIG_NOT_FOUND", f"cannot read {path}: {exc}")

    options = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise BenchError(
                "CONFIG_PARSE",
                f"{path}: line {lineno}: expected 'key = value', "
                f"got {stripped!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise BenchError("CONFIG_PARSE",
                             f"{path}: line {lineno}: empty key")
        options[key] = value.strip()

    stated = options.pop("subcommand", None)
    if subcommand is None:
        subcommand = stated
    elif stated is not None and stated != subcommand:
        raise BenchError(
            "CONFIG_INVALID",
            f"config states subcommand {stated!r} but {subcommand!r} was "
            f"requested")
    if subcommand is None:
        raise BenchError("CONFIG_INVALID",
                         "no subcommand given on the command line or in the "
                         "config file")
    return ExperimentConfig(subcommand=subcommand, options=options)
