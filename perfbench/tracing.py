"""In-memory spans around the library's layer boundaries, and per-layer metrics.

Hooks replace the module attribute a caller looks a function up by (for
example ``sketchopt.optimizers.hessp_sketched``) with a wrapper that records a
span: name, start, end, parent span and the cell it ran in.  A hook whose
attribute no longer exists is reported absent and skipped, so a refactor of
the library cannot break the benchmark; the affected metrics then read zero.

A span's *self time* is its duration minus the part of its interval covered
by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    parent: int  # -1 for a root span
    cell: int
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from the wrappers it builds; one tracer per run."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[Span] = []
        self.cell = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, observe=None):
        """Wrapper of ``fn`` recording a span; ``observe`` fills its attrs."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(tracer.spans),
                        tracer._stack[-1] if tracer._stack else -1,
                        tracer.cell, name, 0.0, 0.0)
            tracer.spans.append(span)
            tracer._stack.append(span.sid)
            span.start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
            if observe is not None:
                observe(span.attrs, args, kwargs, result)
            return result

        return traced


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the union of child intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = s.duration - covered
    return out


# ---------------------------------------------------------------------------
# hooks
# ---------------------------------------------------------------------------


def _observe_fallback(attrs, args, kwargs, result):
    attrs["fell_back"] = bool(result.fell_back)


def _observe_lp(attrs, args, kwargs, result):
    attrs["iterations"] = int(result.iterations)


def _observe_small_lp(attrs, args, kwargs, result):
    _observe_lp(attrs, args, kwargs, result)
    attrs["rows"] = int(len(args[0]))


#: (span name, module, attribute path, observer).  The module is where the
#: caller looks the name up, which is not always where it is defined.
HOOKS = [
    ("core_complex.svd", "sketchopt.sketch_sampling", "svd", None),
    ("core_complex.lift", "sketchopt.lp_regression", "lift_matrix", None),
    ("core_complex.lift", "sketchopt.lp_regression", "phi", None),
    ("core_complex.lift", "sketchopt.lp_regression", "unphi", None),
    ("sketch_sampling.scheme_probabilities", "sketchopt.optimizers",
     "scheme_probabilities", _observe_fallback),
    ("sketch_sampling.exact_leverage_scores", "sketchopt.sketch_sampling",
     "exact_leverage_scores", None),
    ("sketch_sampling.exact_leverage_scores", "sketchopt.hybrid_sampling",
     "exact_leverage_scores", None),
    ("sketch_sampling.build_sampling_sketch", "sketchopt.optimizers",
     "build_sampling_sketch", None),
    ("sketch_sampling.build_sampling_sketch", "sketchopt.hybrid_sampling",
     "build_sampling_sketch", None),
    ("hybrid_sampling.ls_det_fraction_plan", "sketchopt.optimizers",
     "ls_det_fraction_plan", None),
    ("hessian_oracle.value", "sketchopt.optimizers", "value", None),
    ("hessian_oracle.grad", "sketchopt.optimizers", "grad", None),
    ("hessian_oracle.d_diag", "sketchopt.hessian_oracle", "d_diag", None),
    ("hessian_oracle.hessp_full", "sketchopt.optimizers", "hessp_full", None),
    ("hessian_oracle.hessp_sketched", "sketchopt.optimizers",
     "hessp_sketched", None),
    ("optimizers.outer", "sketchopt", "newton_cg", None),
    ("optimizers.outer", "sketchopt", "newton_mr", None),
    ("optimizers.outer", "sketchopt", "trust_region", None),
    ("optimizers.inner", "sketchopt.optimizers", "cg_solve", None),
    ("optimizers.inner", "sketchopt.optimizers", "minnorm_lsq", None),
    ("optimizers.inner", "sketchopt.optimizers", "cg_steihaug", None),
    ("lp_regression.sketch_and_solve", "sketchopt", "sketch_and_solve", None),
    ("lp_regression.complex_lp_solve", "sketchopt", "complex_lp_solve",
     _observe_lp),
    ("lp_regression.build_sketch", "sketchopt.lp_regression",
     "build_sketch_finite_p", None),
    ("lp_regression.build_sketch", "sketchopt.lp_regression",
     "build_sketch_inf", None),
    ("lp_regression.sketch_apply", "sketchopt.lp_regression",
     "BlockSketch.apply", None),
    ("lp_regression.small_lp_solve", "sketchopt.lp_regression",
     "small_lp_solve", _observe_small_lp),
    ("vmv_sketch.estimate", "sketchopt", "estimate", None),
    ("vmv_sketch.ts_new", "sketchopt.vmv_sketch", "ts_new", None),
    ("vmv_sketch.ingest", "sketchopt.vmv_sketch", "ingest", None),
    ("vmv_sketch.estimate_vmv", "sketchopt.vmv_sketch", "estimate_vmv", None),
]


def _resolve(module: str, path: str):
    """(owner object, attribute name) for ``module`` + dotted ``path``."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class installed_hooks:
    """Context manager: wrap every resolvable hook, restore on exit.

    ``absent`` lists ``module:path`` of hooks whose target does not exist.
    """

    def __init__(self, tracer: Tracer, hooks=None):
        self.tracer = tracer
        self.hooks = HOOKS if hooks is None else hooks
        self.absent: list[str] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for name, module, path, observe in self.hooks:
            try:
                owner, attr = _resolve(module, path)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module}:{path}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(name, original, observe))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: metrics reported as totals per traced cell, by span name
_CALL_METRICS = {
    "core_complex.svd": ("calls", "s"),
    "core_complex.lift": ("calls", "s"),
    "sketch_sampling.scheme_probabilities": ("calls", "s", "self_s"),
    "sketch_sampling.exact_leverage_scores": ("calls", "s"),
    "sketch_sampling.build_sampling_sketch": ("calls", "s"),
    "hybrid_sampling.ls_det_fraction_plan": ("calls", "s", "self_s"),
    "hessian_oracle.value": ("calls", "s"),
    "hessian_oracle.grad": ("calls", "s"),
    "hessian_oracle.d_diag": ("calls", "s"),
    "hessian_oracle.hessp_full": ("calls", "s"),
    "hessian_oracle.hessp_sketched": ("calls", "s"),
    "optimizers.outer": ("calls", "s", "self_s"),
    "optimizers.inner": ("calls", "s", "self_s"),
    "lp_regression.sketch_and_solve": ("calls", "s", "self_s"),
    "lp_regression.build_sketch": ("calls", "s"),
    "lp_regression.sketch_apply": ("calls", "s"),
    "lp_regression.small_lp_solve": ("calls", "s"),
    "lp_regression.complex_lp_solve": ("calls", "s"),
    "vmv_sketch.estimate": ("calls", "s", "self_s"),
    "vmv_sketch.ts_new": ("calls", "s"),
    "vmv_sketch.ingest": ("calls", "s"),
    "vmv_sketch.estimate_vmv": ("calls", "s"),
}

_UNITS = {"calls": "count/cell", "s": "s/cell", "self_s": "s/cell"}

#: derived metrics and their units
DERIVED_UNITS = {
    "sketch_sampling.fallback_frac": "fraction",
    "hessian_oracle.oracle_units": "count/cell",
    "hessian_oracle.oracle_calls_p50": "count",
    "optimizers.outer_iters": "count/cell",
    "optimizers.hessp_per_inner": "count",
    "optimizers.step_accept_ratio": "fraction",
    "optimizers.linesearch_evals_per_iter": "count",
    "optimizers.converged_frac": "fraction",
    "optimizers.final_objective_p50": "objective",
    "lp_regression.solver_iters": "count/cell",
    "lp_regression.unconverged_frac": "fraction",
    "lp_regression.compressed_rows": "count/cell",
    "lp_regression.rel_err_p50": "ratio",
    "vmv_sketch.ingest_rows_per_s": "1/s",
    "vmv_sketch.rel_err_p50": "ratio",
    "trace.overhead_frac": "fraction",
    "trace.hooks_absent": "count",
}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    for span, kinds in _CALL_METRICS.items():
        for kind in kinds:
            names[f"{span}.{kind}"] = _UNITS[kind]
    names.update(DERIVED_UNITS)
    return names


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


#: evaluation that each optimizer repeats in its step search; it also makes
#: one of them before its first step
_STEP_SEARCH_EVAL = {"newton_cg": "hessian_oracle.value",
                     "newton_mr": "hessian_oracle.grad",
                     "trust_region": "hessian_oracle.value"}


def layer_metrics(spans, cells, absent, overhead_frac) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``cells`` lists one dict per traced cell with its ``algorithm`` (or
    None) and its ``outcome``.  Totals are divided by the number of traced
    cells, so a layer a workload bypasses reads zero.
    """
    n_cells = max(len(cells), 1)
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + selfs[s.sid]
    out = {}
    for span, kinds in _CALL_METRICS.items():
        values = {"calls": calls.get(span, 0), "s": total.get(span, 0.0),
                  "self_s": own.get(span, 0.0)}
        for kind in kinds:
            out[f"{span}.{kind}"] = values[kind] / n_cells

    by_id = {s.sid: s for s in spans}
    probs = [s for s in spans if s.name == "sketch_sampling.scheme_probabilities"]
    out["sketch_sampling.fallback_frac"] = _ratio(
        sum(s.attrs.get("fell_back", False) for s in probs), len(probs))

    cells = [c if c["outcome"] else {} for c in cells]  # raised: no outcome
    opt = [c for c in cells if c.get("algorithm")]
    out["hessian_oracle.oracle_units"] = \
        sum(c["outcome"]["oracle_calls"] for c in opt) / n_cells
    out["hessian_oracle.oracle_calls_p50"] = \
        _p50([c["outcome"]["oracle_calls"] for c in opt])
    out["optimizers.outer_iters"] = \
        sum(c["outcome"]["outer_iters"] for c in opt) / n_cells
    inner = {s.sid for s in spans if s.name == "optimizers.inner"}
    hessp_in_inner = sum(1 for s in spans if s.parent in inner
                         and s.name.startswith("hessian_oracle.hessp"))
    out["optimizers.hessp_per_inner"] = _ratio(hessp_in_inner, len(inner))
    out["optimizers.step_accept_ratio"] = _ratio(
        sum(c["outcome"]["steps_accepted"] for c in opt),
        sum(c["outcome"]["steps_attempted"] for c in opt))
    search_evals = 0
    for s in spans:
        if s.parent < 0 or by_id[s.parent].name != "optimizers.outer":
            continue
        cell = cells[s.cell] if 0 <= s.cell < len(cells) else {}
        search_evals += s.name == _STEP_SEARCH_EVAL.get(cell.get("algorithm"))
    search_evals -= len(opt)
    out["optimizers.linesearch_evals_per_iter"] = _ratio(
        search_evals, out["optimizers.outer_iters"] * n_cells)
    out["optimizers.converged_frac"] = _ratio(
        sum(c["outcome"]["converged"] for c in opt), len(opt))
    out["optimizers.final_objective_p50"] = \
        _p50([c["outcome"]["final_objective"] for c in opt])

    solves = [s for s in spans if s.name in ("lp_regression.small_lp_solve",
                                             "lp_regression.complex_lp_solve")]
    out["lp_regression.solver_iters"] = \
        sum(s.attrs.get("iterations", 0) for s in solves) / n_cells
    lp_cells = [c for c in cells if c.get("lp")]
    out["lp_regression.unconverged_frac"] = _ratio(
        sum(not c["outcome"]["converged"] for c in lp_cells), len(lp_cells))
    out["lp_regression.compressed_rows"] = sum(
        s.attrs.get("rows", 0) for s in spans
        if s.name == "lp_regression.small_lp_solve") / n_cells
    out["lp_regression.rel_err_p50"] = _p50(
        [c["outcome"]["rel_err"] for c in lp_cells
         if "rel_err" in c["outcome"]])

    out["vmv_sketch.ingest_rows_per_s"] = _ratio(
        calls.get("vmv_sketch.ingest", 0), total.get("vmv_sketch.ingest", 0.0))
    out["vmv_sketch.rel_err_p50"] = _p50(
        [c["outcome"]["rel_err"] for c in cells if c.get("vmv")])
    out["trace.overhead_frac"] = overhead_frac
    out["trace.hooks_absent"] = len(absent)
    return out


def write_spans(path, spans) -> None:
    """One tab-separated line per span: id, parent, cell, name, start, end."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sid\tparent\tcell\tname\tstart\tend\n")
        for s in spans:
            fh.write(f"{s.sid}\t{s.parent}\t{s.cell}\t{s.name}\t"
                     f"{s.start!r}\t{s.end!r}\n")
