"""Dataset loading and synthesis for the bench command.

A dataset spec is one string:

* ``synth:n=5000,d=20,heavy_rows=20,heavy_scale=1000`` — planted instance
  drawn with the run's master seed;
* ``csv:PATH`` — delimited text, features in the leading columns, label in
  the last column;
* ``libsvm:PATH`` — sparse ``label idx:val ...`` lines with 1-based indices.

Loaded features are standardized per column (constant columns become zeros)
unless the config says ``standardize = false``.  Labels are mapped to {0, 1}:
two distinct values map low to 0 and high to 1; an integer multi-class label
column becomes one-vs-rest with the most frequent class as the positive one.
Anything else is a reported error, never a silent guess; so is a ``nan`` or
``inf`` field, which standardization would otherwise zero without a trace.
"""

from __future__ import annotations

import math

import numpy as np

from ..core_complex import seeded_generator
from .config import BenchError

__all__ = ["parse_dataset_spec", "synth_planted", "load_dataset",
           "materialize_dataset"]

LABEL_FLIP_FRACTION = 0.1
#: the keys of a ``synth:`` spec; ``n`` and ``d`` are required
SYNTH_KEYS = ("n", "d", "heavy_rows", "heavy_scale")


def parse_dataset_spec(spec):
    """Split ``kind:rest`` and validate the kind.

    A ``synth:`` spec names each of ``SYNTH_KEYS`` at most once and no other
    key.
    """
    if ":" not in spec:
        raise BenchError(
            "CONFIG_INVALID",
            f"dataset spec {spec!r} must look like synth:..., csv:PATH or "
            f"libsvm:PATH")
    kind, rest = spec.split(":", 1)
    kind = kind.strip().lower()
    if kind == "synth":
        params = {}
        for item in rest.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise BenchError("CONFIG_INVALID",
                                 f"synth spec: expected k=v, got {item!r}")
            key, value = item.split("=", 1)
            key = key.strip()
            if key not in SYNTH_KEYS:
                raise BenchError(
                    "CONFIG_INVALID",
                    f"synth spec: unknown key {key!r}; expected "
                    f"{', '.join(SYNTH_KEYS)}")
            if key in params:
                raise BenchError("CONFIG_INVALID",
                                 f"synth spec: key {key!r} given twice")
            try:
                params[key] = float(value) if key == "heavy_scale" \
                    else int(value)
            except ValueError:
                raise BenchError(
                    "CONFIG_INVALID",
                    f"synth spec: bad value for {key!r}: {value.strip()!r}")
        for key in ("n", "d"):
            if key not in params:
                raise BenchError("CONFIG_INVALID",
                                 f"synth spec: missing {key!r}")
        params.setdefault("heavy_rows", 0)
        params.setdefault("heavy_scale", 1.0)
        if not math.isfinite(params["heavy_scale"]):
            raise BenchError("CONFIG_INVALID",
                             "synth spec: heavy_scale must be finite")
        return ("synth", params)
    if kind in ("csv", "libsvm"):
        if not rest.strip():
            raise BenchError("CONFIG_INVALID",
                             f"dataset spec {spec!r}: empty path")
        return (kind, rest.strip())
    raise BenchError("CONFIG_INVALID",
                     f"unknown dataset kind {kind!r}; expected synth, csv or "
                     f"libsvm")


def synth_planted(n, d, heavy_rows, heavy_scale, seed):
    """Gaussian design with a few rescaled rows and a planted classifier.

    Rows are standard Gaussian; ``heavy_rows`` of them (chosen without
    replacement) are multiplied by ``heavy_scale``.  Labels come from a unit
    planted direction through the sign of the clean margin, then 10% of them
    are flipped.  With ``heavy_scale`` near 1 the row influence stays within a
    small constant factor; at large scales the rescaled rows dominate any
    norm-based importance measure, which is the regime the samplers are meant
    to exploit.
    """
    if n < 1 or d < 1:
        raise BenchError("CONFIG_INVALID", "synth sizes must be positive")
    if not 0 <= heavy_rows <= n:
        raise BenchError("CONFIG_INVALID",
                         f"heavy_rows must lie in [0, n]; got {heavy_rows}")
    rng = seeded_generator(seed, "synth_planted: seed")
    A = rng.standard_normal((n, d))
    if heavy_rows:
        picked = rng.choice(n, size=heavy_rows, replace=False)
        A[picked] *= heavy_scale
    w_star = rng.standard_normal(d)
    w_star /= np.linalg.norm(w_star)
    labels = (A @ w_star >= 0.0).astype(float)
    flips = rng.random(n) < LABEL_FLIP_FRACTION
    labels[flips] = 1.0 - labels[flips]
    return A, labels


def _map_labels(raw, path):
    """Map a raw label column onto {0, 1} or raise DATASET_PARSE."""
    values = np.unique(raw)
    if values.size < 2:
        raise BenchError(
            "DATASET_PARSE",
            f"{path}: label column is constant ({values[0]!r}); need two "
            f"classes")
    if values.size == 2:
        return (raw == values[1]).astype(float)
    if not np.allclose(values, np.round(values)):
        raise BenchError(
            "DATASET_PARSE",
            f"{path}: {values.size} distinct non-integer label values; "
            f"cannot map to two classes")
    classes, counts = np.unique(raw, return_counts=True)
    majority = classes[np.argmax(counts)]
    return (raw == majority).astype(float)


def _standardize(A):
    """Center columns and scale to unit variance; constant columns -> 0."""
    mean = A.mean(axis=0)
    std = A.std(axis=0)
    out = A - mean
    nonzero = std > 0
    out[:, nonzero] /= std[nonzero]
    out[:, ~nonzero] = 0.0
    return out


def _check_finite(values, path, lineno):
    """Raise DATASET_PARSE on the first NaN or Inf among parsed values."""
    for v in values:
        if not math.isfinite(v):
            raise BenchError("DATASET_PARSE",
                             f"{path}: line {lineno}: non-finite value {v!r}")


def _load_csv(path, delimiter):
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split(delimiter)
            if width is None:
                width = len(parts)
                if width < 2:
                    raise BenchError(
                        "DATASET_PARSE",
                        f"{path}: line {lineno}: need at least one feature "
                        f"column plus a label column")
            elif len(parts) != width:
                raise BenchError(
                    "DATASET_PARSE",
                    f"{path}: line {lineno}: expected {width} fields, got "
                    f"{len(parts)}")
            try:
                values = [float(p) for p in parts]
            except ValueError as exc:
                raise BenchError("DATASET_PARSE",
                                 f"{path}: line {lineno}: {exc}")
            _check_finite(values, path, lineno)
            rows.append(values)
    if not rows:
        raise BenchError("DATASET_PARSE", f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    return data[:, :-1], data[:, -1]


def _load_libsvm(path):
    labels = []
    entries = []   # (row, col, value)
    max_col = 0
    with open(path, "r", encoding="utf-8") as fh:
        row = 0
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            try:
                labels.append(float(parts[0]))
            except ValueError:
                raise BenchError(
                    "DATASET_PARSE",
                    f"{path}: line {lineno}: bad label {parts[0]!r}")
            _check_finite([labels[-1]], path, lineno)
            for token in parts[1:]:
                if ":" not in token:
                    raise BenchError(
                        "DATASET_PARSE",
                        f"{path}: line {lineno}: expected idx:value, got "
                        f"{token!r}")
                idx_s, val_s = token.split(":", 1)
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise BenchError(
                        "DATASET_PARSE",
                        f"{path}: line {lineno}: bad feature {token!r}")
                _check_finite([val], path, lineno)
                if idx < 1:
                    raise BenchError(
                        "DATASET_PARSE",
                        f"{path}: line {lineno}: feature index {idx} must be "
                        f">= 1")
                entries.append((row, idx - 1, val))
                max_col = max(max_col, idx)
            row += 1
    if not labels:
        raise BenchError("DATASET_PARSE", f"{path}: no data rows")
    A = np.zeros((len(labels), max_col))
    for r, c, v in entries:
        A[r, c] = v
    return A, np.asarray(labels, dtype=float)


def load_dataset(path, fmt, delimiter=",", standardize=True):
    """Load csv/libsvm features and {0,1} labels, optionally standardized."""
    try:
        if fmt == "csv":
            A, raw = _load_csv(path, delimiter)
        elif fmt == "libsvm":
            A, raw = _load_libsvm(path)
        else:
            raise BenchError("CONFIG_INVALID",
                             f"unknown dataset format {fmt!r}")
    except FileNotFoundError:
        raise BenchError("DATASET_NOT_FOUND", f"dataset file not found: {path}")
    except OSError as exc:
        raise BenchError("DATASET_NOT_FOUND", f"cannot read {path}: {exc}")
    labels = _map_labels(raw, path)
    if standardize:
        A = _standardize(A)
    return A, labels


def materialize_dataset(config, master_seed):
    """Resolve the config's dataset spec into (A, labels).

    Synthetic data derives its randomness from the master seed so a rerun with
    the same config and seed reproduces the instance bit for bit.  Only a
    ``csv:`` dataset reads ``delimiter``, and only a file dataset reads
    ``standardize``; elsewhere they are unread keys.
    """
    kind, detail = parse_dataset_spec(config.dataset)
    if kind == "synth":
        return synth_planted(detail["n"], detail["d"], detail["heavy_rows"],
                             detail["heavy_scale"], master_seed)
    delimiter = config.get_str("delimiter", ",") if kind == "csv" else None
    return load_dataset(detail, kind, delimiter=delimiter,
                        standardize=config.get_bool("standardize", True))
