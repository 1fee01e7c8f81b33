"""Benchmark harness: config parsing, datasets, runners, CLI, SVG.

Fixture files are written inline so every expected value is visible next to
its assertion.  Dataset loading is checked against hand-computable matrices;
runner outputs are checked for schema, determinism (byte-identical reruns),
and the statistical behavior each experiment is meant to expose.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from sketchopt.bench import (
    BenchError,
    ExperimentConfig,
    load_dataset,
    main,
    parse_config,
    parse_dataset_spec,
    run_lpreg,
    run_optimize,
    run_scores,
    run_vmv,
    synth_planted,
)
from sketchopt.bench.svg import polyline_svg
from sketchopt.sketch_sampling import exact_leverage_scores


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _dir_digest(d):
    h = hashlib.sha256()
    for name in sorted(os.listdir(d)):
        h.update(name.encode())
        with open(os.path.join(d, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


class TestConfig:
    def test_parse_flat_keys_comments_and_blanks(self, tmp_path):
        path = _write(tmp_path / "a.cfg", """
# comment line
dataset = synth:n=10,d=2   # trailing comment
seeds = 3

schemes = full, ls
""")
        cfg = parse_config(path, "optimize")
        assert cfg.subcommand == "optimize"
        assert cfg.dataset == "synth:n=10,d=2"
        assert cfg.seeds == 3
        assert cfg.schemes == ["full", "ls"]

    def test_roundtrip_through_to_text(self, tmp_path):
        cfg = ExperimentConfig("vmv", {"k_values": "4,8", "seeds": "5"})
        path = _write(tmp_path / "b.cfg", cfg.to_text())
        again = parse_config(path)
        assert again.subcommand == "vmv"
        assert again.options == cfg.options

    def test_missing_file_is_config_not_found(self, tmp_path):
        with pytest.raises(BenchError) as err:
            parse_config(tmp_path / "nope.cfg", "vmv")
        assert err.value.code == "CONFIG_NOT_FOUND"

    def test_line_without_separator_reports_line_number(self, tmp_path):
        path = _write(tmp_path / "c.cfg", "seeds = 2\njust words\n")
        with pytest.raises(BenchError) as err:
            parse_config(path, "vmv")
        assert err.value.code == "CONFIG_PARSE"
        assert "line 2" in str(err.value)

    def test_subcommand_conflict_rejected(self, tmp_path):
        path = _write(tmp_path / "d.cfg", "subcommand = vmv\n")
        with pytest.raises(BenchError) as err:
            parse_config(path, "lpreg")
        assert err.value.code == "CONFIG_INVALID"

    def test_typed_accessors_validate(self):
        cfg = ExperimentConfig("vmv", {"n": "abc", "flag": "maybe",
                                       "xs": "1,2,zz"})
        for call in (lambda: cfg.get_int("n"),
                     lambda: cfg.get_bool("flag"),
                     lambda: cfg.get_int_list("xs"),
                     lambda: cfg.get_str("absent", required=True)):
            with pytest.raises(BenchError) as err:
                call()
            assert err.value.code == "CONFIG_INVALID"

    def test_count_floors_name_the_key(self):
        cfg = ExperimentConfig("vmv", {"k_values": "4,0", "workers": "-3",
                                       "reps": "0", "seeds": "0"})
        for call, message in (
                (lambda: cfg.get_int_list("k_values", minimum=1),
                 "key 'k_values': must be >= 1"),
                (lambda: cfg.get_int("reps", 1, minimum=1),
                 "key 'reps': must be >= 1"),
                (lambda: cfg.workers, "key 'workers': must be >= 0"),
                (lambda: cfg.seeds, "key 'seeds': must be >= 1")):
            with pytest.raises(BenchError) as err:
                call()
            assert err.value.code == "CONFIG_INVALID"
            assert str(err.value) == message

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(BenchError):
            ExperimentConfig("frobnicate", {})


# ---------------------------------------------------------------------------
# dataset specs and loading
# ---------------------------------------------------------------------------


class TestDatasets:
    def test_spec_parsing(self):
        kind, params = parse_dataset_spec(
            "synth:n=50,d=4,heavy_rows=2,heavy_scale=10")
        assert kind == "synth"
        assert params == {"n": 50, "d": 4, "heavy_rows": 2,
                          "heavy_scale": 10.0}
        assert parse_dataset_spec("csv:/x/y.csv") == ("csv", "/x/y.csv")
        assert parse_dataset_spec("libsvm:a.txt") == ("libsvm", "a.txt")
        for bad in ("plain", "synth:n=5", "hdf5:x", "csv:"):
            with pytest.raises(BenchError):
                parse_dataset_spec(bad)

    @pytest.mark.parametrize("spec, message", [
        ("synth:n=50,d=3,heavy_row=5,heavy_scal=100",
         "synth spec: unknown key 'heavy_row'; expected n, d, heavy_rows, "
         "heavy_scale"),
        ("synth:n=50,d=3,n=60", "synth spec: key 'n' given twice"),
        ("synth:n=50,d=3,heavy_scale=2,heavy_scale=2",
         "synth spec: key 'heavy_scale' given twice"),
    ], ids=["misspelled", "repeated", "repeated-same-value"])
    def test_synth_spec_rejects_unknown_and_repeated_keys(self, spec,
                                                          message):
        with pytest.raises(BenchError) as err:
            parse_dataset_spec(spec)
        assert err.value.code == "CONFIG_INVALID"
        assert str(err.value) == message

    def test_csv_values_and_binary_label_mapping(self, tmp_path):
        path = _write(tmp_path / "t.csv",
                      "1.0,2.0,-1\n3.0,4.0,1\n5.0,6.0,-1\n")
        A, y = load_dataset(path, "csv", standardize=False)
        assert np.array_equal(A, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        # low label value -> 0, high -> 1
        assert np.array_equal(y, [0.0, 1.0, 0.0])

    def test_libsvm_sparse_layout(self, tmp_path):
        path = _write(tmp_path / "t.svm", "1 3:0.5\n0 1:2.0 2:-1.0\n")
        A, y = load_dataset(path, "libsvm", standardize=False)
        assert A.shape == (2, 3)
        assert np.array_equal(A, [[0.0, 0.0, 0.5], [2.0, -1.0, 0.0]])
        assert np.array_equal(y, [1.0, 0.0])

    def test_standardization_and_constant_column(self, tmp_path):
        path = _write(tmp_path / "t.csv",
                      "1.0,7.0,0\n2.0,7.0,1\n3.0,7.0,0\n6.0,7.0,1\n")
        A, _ = load_dataset(path, "csv", standardize=True)
        assert abs(A[:, 0].mean()) < 1e-12
        assert abs(A[:, 0].std() - 1.0) < 1e-12
        assert np.array_equal(A[:, 1], np.zeros(4))

    def test_multiclass_maps_majority_class_to_one(self, tmp_path):
        path = _write(tmp_path / "t.csv",
                      "1,0,1\n2,0,2\n3,0,2\n4,0,3\n5,0,2\n")
        _, y = load_dataset(path, "csv")
        assert np.array_equal(y, [0.0, 1.0, 1.0, 0.0, 1.0])

    def test_csv_parse_error_carries_line_number(self, tmp_path):
        path = _write(tmp_path / "t.csv", "1,2,0\n1,oops,1\n")
        with pytest.raises(BenchError) as err:
            load_dataset(path, "csv")
        assert err.value.code == "DATASET_PARSE"
        assert "line 2" in str(err.value)

    def test_ragged_row_and_bad_libsvm_token_rejected(self, tmp_path):
        ragged = _write(tmp_path / "r.csv", "1,2,0\n1,2,3,1\n")
        with pytest.raises(BenchError, match="line 2"):
            load_dataset(ragged, "csv")
        bad = _write(tmp_path / "b.svm", "1 nonsense\n")
        with pytest.raises(BenchError, match="line 1"):
            load_dataset(bad, "libsvm")

    def test_constant_and_noninteger_multiclass_labels_rejected(
            self, tmp_path):
        const = _write(tmp_path / "c.csv", "1,5\n2,5\n")
        with pytest.raises(BenchError, match="constant"):
            load_dataset(const, "csv")
        frac = _write(tmp_path / "f.csv", "1,0.1\n2,0.2\n3,0.3\n")
        with pytest.raises(BenchError, match="label"):
            load_dataset(frac, "csv")

    def test_csv_nonfinite_field_rejected(self, tmp_path):
        # standardization would zero a NaN column and the run would then
        # report convergence at gradient norm 0
        path = _write(tmp_path / "n.csv", "1,2,0\n3,nan,1\n5,6,0\n")
        with pytest.raises(BenchError, match="line 2") as err:
            load_dataset(path, "csv")
        assert err.value.code == "DATASET_PARSE"

    def test_libsvm_nonfinite_field_rejected(self, tmp_path):
        for text in ("1 1:0.5\n0 1:inf\n", "inf 1:0.5\n0 1:1.0\n"):
            path = _write(tmp_path / "n.svm", text)
            with pytest.raises(BenchError) as err:
                load_dataset(path, "libsvm")
            assert err.value.code == "DATASET_PARSE"

    def test_missing_dataset_file(self, tmp_path):
        with pytest.raises(BenchError) as err:
            load_dataset(tmp_path / "gone.csv", "csv")
        assert err.value.code == "DATASET_NOT_FOUND"


class TestSynthPlanted:
    def test_shapes_labels_and_determinism(self):
        A, y = synth_planted(200, 7, 3, 10.0, seed=4)
        B, z = synth_planted(200, 7, 3, 10.0, seed=4)
        assert A.shape == (200, 7) and y.shape == (200,)
        assert set(np.unique(y)) <= {0.0, 1.0}
        assert np.array_equal(A, B) and np.array_equal(y, z)
        C, _ = synth_planted(200, 7, 3, 10.0, seed=5)
        assert not np.array_equal(A, C)

    def test_unit_scale_rows_have_near_uniform_influence(self):
        # Gaussian rows at n >> d have comparable leverage; the spread
        # stays within a factor of 5 at this aspect ratio.
        A, _ = synth_planted(300, 100, 0, 1.0, seed=11)
        lev = exact_leverage_scores(A)
        assert lev.max() / lev.min() <= 5.0

    def test_heavy_rows_capture_leverage_mass(self):
        d = 20
        A, _ = synth_planted(2000, d, d, 1e3, seed=11)
        lev = exact_leverage_scores(A)
        top = np.sort(lev)[::-1][:d].sum()
        assert top / lev.sum() >= 0.9

    def test_label_flip_fraction_near_ten_percent(self):
        rng = np.random.default_rng(0)
        A, y = synth_planted(20000, 5, 0, 1.0, seed=9)
        # recover the planted margin sign frequency: ~10% disagree
        # with the majority-consistent halfspace fit
        w, *_ = np.linalg.lstsq(A, 2 * y - 1, rcond=None)
        agree = ((A @ w >= 0) == (y == 1)).mean()
        assert 0.85 <= agree <= 0.95

    def test_validation(self):
        with pytest.raises(BenchError):
            synth_planted(0, 3, 0, 1.0, 0)
        with pytest.raises(BenchError):
            synth_planted(10, 3, 11, 1.0, 0)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def _optimize_config(**extra):
    options = {
        "dataset": "synth:n=200,d=8,heavy_rows=8,heavy_scale=50",
        "algorithm": "newton_mr",
        "schemes": "full,ls,ls-det@0.5",
        "sample_size": "60",
        "seeds": "2",
        "loss": "nlls_classification",
        "lambda_policy": "convex_auto",
        "max_outer": "20",
        "grad_tol": "1e-6",
    }
    options.update(extra)
    return ExperimentConfig("optimize", options)


class TestRunOptimize:
    def test_writes_traces_and_summary_with_expected_schema(self, tmp_path):
        out = tmp_path / "o"
        paths = run_optimize(_optimize_config(), 7, out)
        names = sorted(os.path.basename(p) for p in paths)
        assert "summary.csv" in names
        assert "trace_full_seed0.csv" in names
        assert "trace_ls-det-0.5_seed1.csv" in names
        header, *rows = _read(paths[0]).splitlines()
        assert header == ("iter,oracle_calls,objective,grad_norm,"
                          "step_or_radius,accepted")
        assert rows, "trace must contain at least one iteration row"
        for row in rows:
            values = [float(f) for f in row.split(",")]
            assert all(np.isfinite(values))
        summary = _read(os.path.join(out, "summary.csv")).splitlines()
        assert summary[0] == ("scheme,algorithm,seed,status,oracle_calls,"
                              "final_objective,final_grad_norm")
        statuses = {line.split(",")[3] for line in summary[1:]}
        assert statuses <= {"converged", "max_outer", "budget",
                            "line_search_failed", "radius_underflow"}

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_optimize(_optimize_config(), 3, a, svg=True)
        run_optimize(_optimize_config(), 3, b, svg=True)
        assert _dir_digest(a) == _dir_digest(b)

    def test_different_master_seed_changes_sampled_traces(self, tmp_path):
        cfg = _optimize_config(schemes="ls", seeds="1")
        a, b = tmp_path / "a", tmp_path / "b"
        run_optimize(cfg, 1, a)
        run_optimize(cfg, 2, b)
        ta = _read(a / "trace_ls_seed0.csv")
        tb = _read(b / "trace_ls_seed0.csv")
        assert ta != tb

    def test_failed_cell_recorded_without_crashing_batch(self, tmp_path,
                                                         monkeypatch):
        # A cell that blows up mid-run must be recorded as error_* without
        # taking down the rest of the sweep.  Inject the failure into one
        # scheme's solver call; the other cells must still complete.
        from sketchopt.bench import runners as runners_mod

        real = runners_mod.ALGORITHMS["newton_mr"]

        def flaky(problem, oc):
            if oc.scheme == "ls":
                raise ValueError("synthetic mid-run failure")
            return real(problem, oc)

        monkeypatch.setitem(runners_mod.ALGORITHMS, "newton_mr", flaky)
        cfg = _optimize_config(schemes="full,ls", seeds="1")
        out = tmp_path / "o"
        run_optimize(cfg, 5, out)
        summary = _read(out / "summary.csv").splitlines()[1:]
        by_scheme = {line.split(",")[0]: line for line in summary}
        assert by_scheme["full"].split(",")[3] in ("converged", "max_outer")
        assert by_scheme["ls"].split(",")[3] == "error_ValueError"
        # the errored trace file still exists, header-only
        trace = _read(out / "trace_ls_seed0.csv").splitlines()
        assert len(trace) == 1 and trace[0].startswith("iter,")

    def test_full_cells_run_once_with_unchanged_outputs(self, tmp_path,
                                                        monkeypatch):
        # A full-Hessian trace ignores its seed, so its cell runs once and
        # the rows are copied to every seed.  Treating no cell as seed-
        # independent runs them all, which must write the same bytes.
        from sketchopt.bench import runners as runners_mod

        real = runners_mod.ALGORITHMS["newton_cg"]
        calls = []

        def counted(problem, oc):
            calls.append(oc.scheme)
            return real(problem, oc)

        monkeypatch.setitem(runners_mod.ALGORITHMS, "newton_cg", counted)
        cfg = _optimize_config(algorithm="newton_cg", schemes="full,ls",
                               seeds="3", max_outer="8")
        once, every = tmp_path / "once", tmp_path / "every"
        run_optimize(cfg, 4, once, svg=True)
        assert sorted(calls) == ["full"] + ["ls"] * 3
        calls.clear()
        monkeypatch.setattr(runners_mod, "_seed_independent", lambda oc: False)
        run_optimize(cfg, 4, every, svg=True)
        assert sorted(calls) == ["full"] * 3 + ["ls"] * 3
        assert sorted(os.listdir(once)) == sorted(os.listdir(every))
        assert _dir_digest(once) == _dir_digest(every)

    def test_worker_threads_bounded_by_cell_count(self, monkeypatch):
        from sketchopt.bench import runners as runners_mod

        requested = []

        class RecordingExecutor:
            # runs the cells inline, so no thread is ever started
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(runners_mod, "ThreadPoolExecutor",
                            RecordingExecutor)
        out = runners_mod._run_cells(lambda c, seed: 2 * c, [1, 2, 3], 10_000,
                                     0)
        assert out == [2, 4, 6]
        assert requested == [3]

    def test_nonpositive_or_missing_sample_size_rejected_upfront(
            self, tmp_path):
        # Structurally bad sample sizes are config errors, not cell errors:
        # the run must refuse to start rather than emit an all-error summary.
        with pytest.raises(BenchError) as excinfo:
            run_optimize(_optimize_config(sample_size="0"), 0, tmp_path / "a")
        assert excinfo.value.code == "CONFIG_INVALID"
        cfg = _optimize_config(schemes="full,uniform")
        del cfg.options["sample_size"]
        with pytest.raises(BenchError) as excinfo:
            run_optimize(cfg, 0, tmp_path / "b")
        assert excinfo.value.code == "CONFIG_INVALID"
        # full-only sweeps never need a sample size
        cfg = _optimize_config(schemes="full")
        del cfg.options["sample_size"]
        run_optimize(cfg, 0, tmp_path / "c")

    def test_manual_lambda_and_algorithm_validation(self, tmp_path):
        with pytest.raises(BenchError):
            run_optimize(_optimize_config(algorithm="sgd"), 0, tmp_path / "x")
        with pytest.raises(BenchError):
            run_optimize(_optimize_config(lambda_policy="manual",
                                          ridge_lambda="-1"), 0,
                         tmp_path / "y")
        with pytest.raises(BenchError):
            run_optimize(_optimize_config(schemes="full,magic"), 0,
                         tmp_path / "z")
        # optimizer keys are checked once, before any cell runs
        for key, bad in (("tr_delta0", "-1"), ("tr_delta0", "nan"),
                         ("inner_cap", "0"), ("grad_tol", "nan"),
                         ("inner_tol", "-1"), ("tr_gamma", "1")):
            out = tmp_path / f"bad_{key}_{bad}"
            with pytest.raises(BenchError) as excinfo:
                run_optimize(_optimize_config(**{key: bad}), 0, out)
            assert excinfo.value.code == "CONFIG_INVALID"
            assert not out.exists()
        # "_" and "-" are interchangeable in scheme tokens
        paths = run_optimize(_optimize_config(schemes="ls_mx", seeds="1"), 0,
                             tmp_path / "mx")
        summary = _read(paths[-1]).splitlines()
        assert summary[1].split(",")[:2] == ["ls_mx", "newton_mr"]
        assert not summary[1].split(",")[3].startswith("error")

    def test_duplicate_cells_rejected_upfront(self, tmp_path):
        # Two tokens or sizes that build the same cell would write one trace
        # file twice and leave a summary row without its trace.
        for i, (key, value) in enumerate((
                ("schemes", "ls,ls"), ("schemes", "ls_mx,ls-mx"),
                ("schemes", "ls,LS"), ("schemes", "ls-det,ls-det@0.5"),
                ("sample_sizes", "40,40"))):
            cfg = _optimize_config(**{"schemes": "ls", "seeds": "1",
                                      key: value})
            if key == "sample_sizes":
                cfg.options.pop("sample_size")
            out = tmp_path / f"dup{i}"
            with pytest.raises(BenchError) as excinfo:
                run_optimize(cfg, 0, out)
            assert excinfo.value.code == "CONFIG_INVALID"
            assert not out.exists()
        # distinct fractions and sizes are distinct cells
        cfg = _optimize_config(schemes="ls-det@0.25,ls-det@0.75", seeds="1",
                               max_outer="2")
        cfg.options.pop("sample_size")
        cfg.options["sample_sizes"] = "40,80"
        paths = run_optimize(cfg, 0, tmp_path / "ok")
        assert len(paths) == len(set(paths)) == 5

    def test_sample_size_sweep_names_files_by_size(self, tmp_path):
        cfg = _optimize_config(schemes="ls", seeds="1")
        cfg.options.pop("sample_size")
        cfg.options["sample_sizes"] = "40,80"
        out = tmp_path / "o"
        paths = run_optimize(cfg, 2, out)
        names = {os.path.basename(p) for p in paths}
        assert {"trace_ls_m40_seed0.csv", "trace_ls_m80_seed0.csv"} <= names


class TestRunLpreg:
    def test_zero_residual_recovery_and_schema(self, tmp_path):
        cfg = ExperimentConfig("lpreg", {"n": "40", "d": "8", "p": "1",
                                         "t_values": "2,4", "seeds": "3"})
        paths = run_lpreg(cfg, 9, tmp_path / "o", svg=True)
        header, *rows = _read(paths[0]).splitlines()
        assert header == "t_or_s,seed,err_x,err_obj"
        assert len(rows) == 6
        for row in rows:
            _, _, err_x, err_obj = (float(f) for f in row.split(","))
            assert err_x <= 1e-6 and abs(err_obj) <= 1e-6

    def test_inf_norm_route_uses_s_values(self, tmp_path):
        # s = 24 lies past the 2^20-row enumeration cap, which the solve
        # never meets
        cfg = ExperimentConfig("lpreg", {"n": "16", "d": "4", "p": "inf",
                                         "s_values": "2,3,24", "seeds": "2"})
        paths = run_lpreg(cfg, 9, tmp_path / "o")
        rows = _read(paths[0]).splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["2", "2", "3", "3", "24",
                                                  "24"]
        for row in rows:
            assert float(row.split(",")[2]) <= 1e-6

    def test_noisy_instance_errors_shrink_with_sketch_size(self, tmp_path):
        cfg = ExperimentConfig("lpreg", {
            "n": "60", "d": "6", "p": "1", "t_values": "1,24",
            "seeds": "9", "zero_residual": "false", "noise_scale": "0.5"})
        paths = run_lpreg(cfg, 21, tmp_path / "o")
        rows = [r.split(",") for r in _read(paths[0]).splitlines()[1:]]
        med = {}
        for t, _, err_x, _ in rows:
            med.setdefault(int(t), []).append(float(err_x))
        assert np.median(med[24]) < np.median(med[1])

    def test_requires_matching_sweep_key(self, tmp_path):
        cfg = ExperimentConfig("lpreg", {"n": "10", "d": "3", "p": "inf",
                                         "t_values": "2", "seeds": "1"})
        with pytest.raises(BenchError):
            run_lpreg(cfg, 0, tmp_path / "o")


class TestRunVmv:
    def test_schema_and_error_decreases_with_width(self, tmp_path):
        cfg = ExperimentConfig("vmv", {"rows": "30", "cols": "4", "reps": "3",
                                       "k_values": "8,128", "seeds": "40"})
        paths = run_vmv(cfg, 5, tmp_path / "o", svg=True)
        header, *rows = _read(paths[0]).splitlines()
        assert header == "k,seed,abs_err"
        errs = {}
        for row in rows:
            k, _, e = row.split(",")
            errs.setdefault(int(k), []).append(float(e))
        assert np.median(errs[128]) < np.median(errs[8])

    def test_k_doubling_halves_mean_squared_error(self, tmp_path):
        cfg = ExperimentConfig("vmv", {"rows": "30", "cols": "4", "reps": "3",
                                       "k_values": "16,32", "seeds": "200"})
        paths = run_vmv(cfg, 12, tmp_path / "o")
        errs = {}
        for row in _read(paths[0]).splitlines()[1:]:
            k, _, e = row.split(",")
            errs.setdefault(int(k), []).append(float(e) ** 2)
        ratio = np.mean(errs[32]) / np.mean(errs[16])
        assert 0.3 <= ratio <= 0.7

    def test_cancellation_instance_is_resolved_exactly(self, tmp_path):
        cfg = ExperimentConfig("vmv", {
            "rows": "40", "cols": "3", "instance": "cancellation",
            "cancel_scale": "1000", "k_values": "4", "seeds": "5"})
        paths = run_vmv(cfg, 3, tmp_path / "o")
        for row in _read(paths[0]).splitlines()[1:]:
            assert float(row.split(",")[2]) <= 1e-6

    def test_unknown_instance_rejected(self, tmp_path):
        cfg = ExperimentConfig("vmv", {"instance": "dense", "k_values": "2"})
        with pytest.raises(BenchError):
            run_vmv(cfg, 0, tmp_path / "o")


class TestRunScores:
    def test_identity_rows_score_exactly_one(self, tmp_path):
        d = 6
        lines = [",".join("1" if j == i else "0" for j in range(d))
                 + f",{i % 2}" for i in range(d)]
        data = _write(tmp_path / "ident.csv", "\n".join(lines) + "\n")
        cfg = ExperimentConfig("scores", {"dataset": f"csv:{data}",
                                          "standardize": "false",
                                          "loss": "quadratic"})
        paths = run_scores(cfg, 3, tmp_path / "o")
        header, *rows = _read(paths[0]).splitlines()
        assert header == ("row,exact,approx,ratio,p_uniform,p_ls,p_rn,"
                          "p_ls_mx,p_rn_mx")
        assert len(rows) == d
        for row in rows:
            fields = [float(f) for f in row.split(",")]
            assert fields[1] == 1.0          # exact score of an identity row
            assert fields[4] == pytest.approx(1.0 / d)  # uniform
            assert fields[5] == pytest.approx(1.0 / d)  # ls on equal scores
            assert all(np.isfinite(fields))

    def test_heavy_rows_dominate_scores_and_probabilities(self, tmp_path):
        cfg = ExperimentConfig("scores", {
            "dataset": "synth:n=300,d=10,heavy_rows=10,heavy_scale=1000",
            "loss": "quadratic"})
        paths = run_scores(cfg, 6, tmp_path / "o", svg=True)
        rows = [r.split(",") for r in _read(paths[0]).splitlines()[1:]]
        exact = np.array([float(r[1]) for r in rows])
        p_ls = np.array([float(r[5]) for r in rows])
        top = np.argsort(exact)[::-1][:10]
        assert p_ls[top].sum() >= 0.9
        ratio = np.array([float(r[3]) for r in rows])
        assert np.all(np.isfinite(ratio)) and np.all(ratio > 0)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


class TestCli:
    def test_success_prints_paths_and_returns_zero(self, tmp_path, capsys):
        cfgp = _write(tmp_path / "e.cfg",
                      "dataset = synth:n=100,d=5,heavy_rows=0,heavy_scale=1\n"
                      "schemes = full\nseeds = 1\nmax_outer = 10\n"
                      "loss = quadratic\n")
        rc = main(["optimize", "--config", cfgp, "--seed", "2",
                   "--out", str(tmp_path / "out"), "--svg"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "summary.csv" in captured.out
        assert (tmp_path / "out" / "optimize.svg").exists()

    def test_missing_config_exits_nonzero_with_error_line(self, tmp_path,
                                                          capsys):
        rc = main(["vmv", "--config", str(tmp_path / "gone.cfg")])
        captured = capsys.readouterr()
        assert rc != 0
        assert captured.err.startswith("ERROR CONFIG_NOT_FOUND:")
        assert captured.err.count("\n") == 1

    def test_config_errors_map_to_single_error_lines(self, tmp_path, capsys):
        bad = _write(tmp_path / "bad.cfg", "no separators here\n")
        rc = main(["scores", "--config", bad])
        assert rc != 0
        assert capsys.readouterr().err.startswith("ERROR CONFIG_PARSE:")

        missing = _write(tmp_path / "m.cfg", "seeds = 1\n")
        rc = main(["lpreg", "--config", missing])
        assert rc != 0
        assert capsys.readouterr().err.startswith("ERROR CONFIG_INVALID:")

    def test_dataset_error_surfaces_with_code(self, tmp_path, capsys):
        cfgp = _write(tmp_path / "e.cfg",
                      f"dataset = csv:{tmp_path / 'none.csv'}\n")
        rc = main(["scores", "--config", cfgp])
        assert rc != 0
        assert capsys.readouterr().err.startswith("ERROR DATASET_NOT_FOUND:")

    def test_module_entry_point_runs_without_runpy_warning(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "sketchopt.bench.cli", "--help"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    _BASE = {
        "optimize": "dataset = synth:n=50,d=3\nschemes = full\n"
                    "max_outer = 2\nloss = quadratic\n",
        "lpreg": "n = 10\nd = 3\np = 1\nt_values = 2\nseeds = 1\n",
        "vmv": "rows = 10\ncols = 2\nk_values = 4\nseeds = 1\n",
        "scores": "loss = quadratic\n",
    }

    @pytest.mark.parametrize("sub, extra", [
        ("lpreg", "p = nan"),
        ("optimize", "lambda_policy = manual\nridge_lambda = nan"),
        ("optimize", "lambda_policy = convex_auto\nlambda_scale = inf"),
        ("lpreg", "zero_residual = false\nnoise_scale = inf"),
        ("vmv", "instance = cancellation\ncancel_scale = inf"),
        ("scores", "dataset = synth:n=50,d=3,heavy_rows=2,heavy_scale=inf"),
        ("vmv", "rows = -2"),
        ("vmv", "cols = 0"),
        ("lpreg", "d = 0"),
        ("lpreg", "n = 0"),
        ("lpreg", "n = 3\nd = 8"),
        ("vmv", "instance = cancellation\nrows = 5"),
        ("vmv", "workers = -3"),
        ("vmv", "k_values = 0"),
        ("vmv", "reps = 2.5"),
        ("scores", "dataset = synth:n=50,d=3,heavy_row=5,heavy_scal=100"),
        ("optimize", "dataset = synth:n=50,d=3,n=60"),
    ], ids=["p-nan", "ridge_lambda-nan", "lambda_scale-inf", "noise_scale-inf",
            "cancel_scale-inf", "heavy_scale-inf", "rows-neg", "cols-0", "d-0",
            "n-0", "n-le-d", "cancellation-odd-rows", "workers-neg",
            "k_values-0", "reps-float", "synth-unknown-keys",
            "synth-repeated-key"])
    def test_bad_values_are_config_errors_before_any_cell(
            self, tmp_path, capsys, sub, extra):
        # later keys win, so each case overrides its base config
        cfgp = _write(tmp_path / "e.cfg", self._BASE[sub] + extra + "\n")
        out = tmp_path / "out"
        rc = main([sub, "--config", cfgp, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR CONFIG_INVALID:")
        assert not out.exists()

    @pytest.mark.parametrize("sub, extra, unread", [
        ("optimize", "max_outr = 3", "'max_outr'"),
        ("optimize", "lambda_policy = manual\nlambda_scale = 2",
         "'lambda_scale'"),
        ("lpreg", "s_values = 2\nseed_count = 2", "'s_values', 'seed_count'"),
        ("scores", "dataset = synth:n=50,d=3\nseeds = 2", "'seeds'"),
    ], ids=["misspelled", "manual-lambda_scale", "finite-p-s_values",
            "scores-seeds"])
    def test_unread_keys_are_config_errors_before_any_cell(
            self, tmp_path, capsys, sub, extra, unread):
        cfgp = _write(tmp_path / "e.cfg", self._BASE[sub] + extra + "\n")
        out = tmp_path / "out"
        rc = main([sub, "--config", cfgp, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"ERROR CONFIG_INVALID: keys not read by {sub}: {unread}\n")
        assert not out.exists()

    def test_delimiter_is_read_only_for_a_csv_dataset(self, tmp_path,
                                                      capsys):
        rows = [f"{i % 3};{(i * 7) % 5};{i % 2}" for i in range(12)]
        csv = _write(tmp_path / "t.csv", "\n".join(rows) + "\n")
        svm = _write(tmp_path / "t.svm", "".join(
            f"{i % 2} 1:{i % 3} 2:{(i * 7) % 5}\n" for i in range(12)))
        for dataset, rc in ((f"csv:{csv}", 0), (f"libsvm:{svm}", 1)):
            cfgp = _write(tmp_path / "e.cfg", self._BASE["scores"]
                          + f"dataset = {dataset}\ndelimiter = ;\n")
            out = tmp_path / f"out{rc}"
            assert main(["scores", "--config", cfgp, "--out",
                         str(out)]) == rc
            assert out.exists() == (rc == 0)
        assert capsys.readouterr().err == (
            "ERROR CONFIG_INVALID: keys not read by scores: 'delimiter'\n")

    def test_overridden_seed_out_and_svg_keys_count_as_read(self, tmp_path):
        unused = tmp_path / "unused"
        cfgp = _write(tmp_path / "e.cfg", self._BASE["vmv"]
                      + f"seed = 1\nout = {unused}\nsvg = false\n")
        out = tmp_path / "out"
        assert main(["vmv", "--config", cfgp, "--seed", "2", "--out",
                     str(out), "--svg"]) == 0
        assert (out / "vmv.svg").exists()
        assert not unused.exists()

    @pytest.mark.parametrize("sub, extra, flags, message", [
        ("vmv", "seed = -1", [], "key 'seed': must be >= 0"),
        ("lpreg", "", ["--seed", "-1"], "key 'seed': must be >= 0"),
        ("scores", "dataset = synth:n=50,d=3\njl_cols = 0", [],
         "key 'jl_cols': must be >= 1"),
        ("scores", "dataset = synth:n=50,d=3\nembed_rows = -2", [],
         "key 'embed_rows': must be >= 1"),
        ("scores", "dataset = synth:n=50,d=3\nembed_rows = 2", [],
         "key 'embed_rows': must be >= 3, the dataset's column count"),
    ], ids=["seed-key", "seed-flag", "jl_cols-0", "embed_rows-neg",
            "embed_rows-below-cols"])
    def test_counts_below_their_floor_are_config_errors(
            self, tmp_path, capsys, sub, extra, flags, message):
        cfgp = _write(tmp_path / "e.cfg", self._BASE[sub] + extra + "\n")
        out = tmp_path / "out"
        rc = main([sub, "--config", cfgp, "--out", str(out)] + flags)
        assert rc == 1
        assert capsys.readouterr().err == f"ERROR CONFIG_INVALID: {message}\n"
        assert not out.exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfgp = _write(tmp_path / "e.cfg",
                      "n = 10\nd = 3\np = 2\nt_values = 2\nseeds = 1\n"
                      "seed = 1\nzero_residual = false\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["lpreg", "--config", cfgp, "--out", str(out1),
                     "--seed", "99"]) == 0
        assert main(["lpreg", "--config", cfgp, "--out", str(out2)]) == 0
        assert _read(out1 / "lpreg.csv") != _read(out2 / "lpreg.csv")


# ---------------------------------------------------------------------------
# svg output
# ---------------------------------------------------------------------------


class TestSvg:
    def test_svg_files_are_valid_and_pure_functions_of_the_csvs(
            self, tmp_path):
        cfg = ExperimentConfig("vmv", {"rows": "20", "cols": "3",
                                       "k_values": "4,8", "seeds": "5"})
        a, b = tmp_path / "a", tmp_path / "b"
        run_vmv(cfg, 4, a, svg=True)
        run_vmv(cfg, 4, b, svg=True)
        svg_a = _read(a / "vmv.svg")
        svg_b = _read(b / "vmv.svg")
        assert svg_a.startswith("<svg")
        assert "</svg>" in svg_a
        assert "polyline" in svg_a
        assert svg_a == svg_b

    def test_svgs_equal_a_render_of_the_csvs_read_back(self, tmp_path):
        # The runners draw each SVG from the rows they just wrote; %.17g
        # round-trips every value, so rendering the CSVs must match it.
        def read(path):
            lines = _read(path).splitlines()[1:]
            return [[float(f) for f in line.split(",")] for line in lines]

        def medians(rows, sweep):
            return [float(np.median([r[2] for r in rows if r[0] == value]))
                    for value in sweep]

        cfg = _optimize_config(schemes="ls,uniform", sample_sizes="40,60",
                               seeds="2", max_outer="5")
        del cfg.options["sample_size"]
        out = tmp_path / "optimize"
        run_optimize(cfg, 3, out, svg=True)
        series = []
        for token in ("ls", "uniform"):
            for size in (40, 60):
                for seed_idx in range(2):
                    rows = read(out / f"trace_{token}_m{size}_seed{seed_idx}"
                                ".csv")
                    series.append((f"{token} m={size} seed{seed_idx}",
                                   [r[1] for r in rows], [r[2] for r in rows]))
        expected = {"optimize": polyline_svg(
            series, "newton_mr: objective vs cost", "oracle calls",
            "objective", log_y=False)}

        cfg = ExperimentConfig("lpreg", {
            "n": "30", "d": "4", "p": "1.5", "t_values": "2,4", "seeds": "3",
            "zero_residual": "false"})
        run_lpreg(cfg, 3, tmp_path / "lpreg", svg=True)
        rows = read(tmp_path / "lpreg" / "lpreg.csv")
        expected["lpreg"] = polyline_svg(
            [("median err_x", [2.0, 4.0], medians(rows, (2, 4)))],
            "sketched regression error vs sketch size", "t per pair",
            "median solution error", log_y=True)

        cfg = ExperimentConfig("vmv", {"rows": "20", "cols": "3",
                                       "k_values": "4,8", "seeds": "5"})
        run_vmv(cfg, 3, tmp_path / "vmv", svg=True)
        rows = read(tmp_path / "vmv" / "vmv.csv")
        expected["vmv"] = polyline_svg(
            [("median abs err", [4.0, 8.0], medians(rows, (4, 8)))],
            "bilinear estimate error vs sketch width", "sketch width k",
            "median absolute error", log_y=True)

        cfg = ExperimentConfig("scores", {
            "dataset": "synth:n=60,d=4,heavy_rows=4,heavy_scale=30"})
        run_scores(cfg, 3, tmp_path / "scores", svg=True)
        rows = read(tmp_path / "scores" / "scores.csv")
        order = np.argsort([-r[1] for r in rows])
        xs = list(range(1, len(rows) + 1))
        expected["scores"] = polyline_svg(
            [("exact", xs, [rows[j][1] for j in order]),
             ("approx", xs, [rows[j][2] for j in order])],
            "row scores, sorted by exact value", "row rank", "score",
            log_y=False)

        for sub, text in expected.items():
            svg = (tmp_path / sub / f"{sub}.svg").read_text(encoding="utf-8")
            assert svg == text, sub
