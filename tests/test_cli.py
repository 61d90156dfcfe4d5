import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from covfield import (
    KernelConfig,
    PointSet,
    absolute_field,
    cost_equivalent_rank,
    estimator_field,
    fit,
    generate_gaussian_cloud,
    kernel_matrix,
    lrsp_dense,
    nystrom_build,
    pattern_by_radius,
    preset_observations,
    sparse_correction,
)
from covfield import bounds as bounds_mod
from covfield import cli as cli_mod
from covfield import estimators as est_mod
from covfield import kernel as kernel_mod
from covfield import lrsp as lrsp_mod
from covfield import posterior as posterior_mod
from covfield import precond as precond_mod
from covfield.cli import _grid_rows, _write_csv, build_parser, run


def read_csv(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


class TestFieldCommand:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "f.csv"
        code = run(["field", "--preset", "uniform1d", "--sigma", "0.1",
                    "--grid", "101", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x", "y", "value"]
        assert len(rows) == 101 * 101

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            assert run(["field", "--preset", "nonuniform1d", "--sigma", "0.4",
                        "--grid", "31", "--out", str(p), "--no-timestamp"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_timestamp_line_optional(self, tmp_path):
        out = tmp_path / "f.csv"
        run(["field", "--preset", "uniform1d", "--sigma", "0.1", "--grid", "5",
             "--out", str(out)])
        assert out.read_text().startswith("# generated ")

    def test_17_significant_digits(self, tmp_path):
        out = tmp_path / "f.csv"
        run(["field", "--preset", "uniform1d", "--sigma", "0.1", "--grid", "5",
             "--out", str(out), "--no-timestamp"])
        _, rows = read_csv(out)
        vals = [float(r[2]) for r in rows]
        assert any(len(r[2]) > 12 for r in rows)  # full precision serialized
        assert all(np.isfinite(vals))


class TestWriteCsv:
    def test_cell_formats(self, tmp_path):
        row = ("obs", 3, np.int64(-4), 0.1, np.float64(2.0 / 3.0), math.nan,
               math.inf, -np.inf, -0.0, np.float64(-0.0), 1e-300)
        out = tmp_path / "c.csv"
        assert _write_csv(out, ["c"] * len(row), [row, row], timestamp=False) == 2
        cells = ["obs", "3", "-4"] + [f"{float(v):.17g}" for v in row[3:]]
        line = ",".join(cells) + "\n"
        assert out.read_bytes() == ("c," * (len(row) - 1) + "c\n" + 2 * line).encode()
        assert line == ("obs,3,-4,0.10000000000000001,0.66666666666666663,"
                        "nan,inf,-inf,-0,-0,1e-300\n")

    @pytest.mark.parametrize("rows", [
        [("obs", 1.0), ("obs", "2.0")],   # a str in a number column
        [(1.0, 2.0), ("obs", 2.0)],
        [(1.0, 2.0), [1.0, 2.0]],          # a list row
        [[1.0, 2.0]],
        [(1.0, 2.0), (1.0, 2.0, 3.0)],     # a row longer or shorter than the first
        [(1.0, 2.0), (1.0,)],
    ], ids=["str_in_number", "str_first_number", "list_row", "list_first", "long", "short"])
    def test_row_not_fitting_the_template_raises(self, tmp_path, rows):
        out = tmp_path / "c.csv"
        with pytest.raises(TypeError):
            _write_csv(out, ["a", "b"], rows, timestamp=False)
        assert len(out.read_text().splitlines()) == len(rows)   # no cell of the bad row


class TestGridCsv:
    """The grid CSVs against rows formatted one cell at a time."""

    @staticmethod
    def per_cell(header, xs, *mats):
        lines = [",".join(header)]
        lines += [",".join(f"{v:.17g}" for v in (x, y, *(M[i, j] for M in mats)))
                  for i, x in enumerate(xs) for j, y in enumerate(xs)]
        return ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("tau", [0.0, 0.1])
    def test_field_bytes(self, tmp_path, tau):
        out = tmp_path / "f.csv"
        assert run(["field", "--preset", "nonuniform1d", "--sigma", "0.1", "--tau", str(tau),
                    "--grid", "9", "--out", str(out), "--no-timestamp"]) == 0
        g = PointSet(np.linspace(0.0, 1.0, 9)[:, None])
        model = fit(preset_observations("nonuniform1d"), KernelConfig(sigma=0.1, tau=tau))
        R = np.abs(model.cov_matrix(g, g))
        assert out.read_bytes() == self.per_cell(["x", "y", "value"], g.coords[:, 0], R)

    def test_estimate_bytes(self, tmp_path):
        out = tmp_path / "e.csv"
        assert run(["estimate", "--preset", "nonuniform1d", "--sigma", "0.1",
                    "--grid", "9", "--out", str(out), "--no-timestamp"]) == 0
        g = PointSet(np.linspace(0.0, 1.0, 9)[:, None])
        S = preset_observations("nonuniform1d")
        R = np.abs(fit(S, KernelConfig(sigma=0.1)).cov_matrix(g, g))
        F = absolute_field(estimator_field(g, S, 0.1), float(R.max()))
        want = self.per_cell(["x", "y", "exact", "estimate"], g.coords[:, 0], R, F)
        assert out.read_bytes() == want

    def test_rows_of_unsymmetric_matrices(self, tmp_path):
        g = PointSet(np.array([[0.0], [0.1], [1.0 / 3.0]]))
        A = np.arange(9.0).reshape(3, 3) / 7.0
        B = np.array([[math.nan, math.inf, -0.0], [1e-300, -2.5, 0.1], [3.0, 4.0, 5.0]])
        out = tmp_path / "g.csv"
        assert _write_csv(out, ["x", "y", "a", "b"], _grid_rows(g, A, B), False) == 9
        assert out.read_bytes() == self.per_cell(["x", "y", "a", "b"], g.coords[:, 0], A, B)


class TestSubcommandBytes:
    """Each subcommand's CSV against its own rows formatted one cell at a
    time: a str as it is, an int as its digits, anything else as "%.17g"."""

    @staticmethod
    def per_cell(v) -> str:
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return "%.17g" % float(v)

    @pytest.mark.parametrize("argv", [
        ["field2d", "--n-obs", "5", "--grid", "11"],
        ["bounds", "--condition", "1", "--grid", "51"],
        ["bounds", "--condition", "2", "--grid", "51"],
        ["bounds", "--condition", "3", "--grid", "51"],
        ["gp-demo", "--n-obs", "5", "--grid", "21"],
        ["svd", "--equispaced", "30", "--sigma", "0.3", "--k", "5"],
        ["lrsp", "--n", "60", "--r0", "10", "--rank-sweep", "10:30:10",
         "--delta-sweep", "1:2:1"],
        ["precond", "--n", "120", "--maxit", "50"],
        ["gen", "--n", "10", "--d", "2"],
        ["gen", "--n", "4", "--d", "1"],
    ], ids=["field2d", "bounds1", "bounds2", "bounds3", "gp-demo", "svd", "lrsp", "precond",
            "gen_d2", "gen_d1"])
    def test_bytes(self, tmp_path, argv):
        out = tmp_path / "o.csv"
        assert run([*argv, "--out", str(out), "--no-timestamp"]) == 0
        args = build_parser().parse_args([*argv, "--out", str(tmp_path / "unused.csv")])
        header, rows = args.func(args)
        lines = [",".join(header)] + [",".join(map(self.per_cell, row)) for row in rows]
        assert len(lines) > 1
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


class TestOutputPath:
    """Every subcommand writes its CSV and its one report line the same way."""

    REPORT = re.compile(r"wrote (\d+) rows to (.+) in \d+\.\d\d s")

    @pytest.mark.parametrize("argv", [
        ["field", "--preset", "uniform1d", "--sigma", "0.1", "--grid", "7"],
        ["field2d", "--n-obs", "5", "--grid", "11"],
        ["bounds", "--condition", "1", "--grid", "11"],
        ["estimate", "--preset", "uniform1d", "--sigma", "0.2", "--grid", "7"],
        ["gp-demo", "--n-obs", "5", "--grid", "21"],
        ["svd", "--equispaced", "30", "--sigma", "0.3", "--k", "5"],
        ["lrsp", "--n", "60", "--r0", "10", "--rank-sweep", "10:30:10",
         "--delta-sweep", "1:2:1"],
        ["precond", "--n", "120", "--maxit", "50"],
        ["gen", "--n", "10", "--d", "2"],
    ], ids=lambda argv: argv[0])
    def test_one_report_line(self, tmp_path, capsys, argv):
        out = tmp_path / "o.csv"
        assert run([*argv, "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        m = self.REPORT.fullmatch(lines[0])
        assert m is not None and m.group(2) == str(out)
        _, rows = read_csv(out)
        assert int(m.group(1)) == len(rows) > 0

    @pytest.mark.parametrize("argv", [["lrsp", "--r0", "0"], ["gen", "--n", "0", "--d", "2"]],
                             ids=lambda argv: argv[0])
    def test_failure_writes_nothing(self, tmp_path, capsys, argv):
        out = tmp_path / "o.csv"
        assert run([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().out == ""
        assert not out.exists()


class TestUsageAndErrors:
    def test_missing_required_flag_is_usage_error(self):
        assert run(["field", "--preset", "uniform1d", "--sigma", "0.1"]) == 2

    def test_unknown_subcommand(self):
        assert run(["fandango"]) == 2

    def test_runtime_error_exit_code(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["field", "--obs", str(tmp_path / "missing.csv"),
                    "--sigma", "0.1", "--out", str(out)]) == 1

    @pytest.mark.parametrize("argv, flag", [
        (["field", "--preset", "uniform1d", "--sigma", "0.1", "--grid", "0"], "--grid"),
        (["field", "--preset", "uniform1d", "--sigma", "0.1", "--grid", "-3"], "--grid"),
        (["field2d", "--grid", "-1"], "--grid"),
        (["field2d", "--n-obs", "0"], "--n-obs"),
        (["gp-demo", "--n-obs", "0"], "--n-obs"),
        (["gp-demo", "--n-obs", "1"], "--n-obs"),   # the variance estimator needs two
        (["gp-demo", "--grid", "0"], "--grid"),
        (["bounds", "--condition", "1", "--grid", "0"], "--grid"),
        (["estimate", "--preset", "uniform1d", "--sigma", "0.1", "--grid", "0"], "--grid"),
        (["gen", "--n", "0", "--d", "2"], "--n"),
        (["gen", "--n", "5", "--d", "0"], "--d"),
        (["lrsp", "--n", "0"], "--n"),
        (["lrsp", "--d", "0"], "--d"),
        (["precond", "--n", "0"], "--n"),
        (["precond", "--d", "0"], "--d"),
        (["svd", "--sigma", "0.1", "--equispaced", "0", "--k", "1"], "--equispaced"),
        (["gen", "--n", "5", "--d", "2", "--seed", "-1"], "--seed"),
        (["field2d", "--seed", "-1"], "--seed"),
        (["gp-demo", "--seed", "-1"], "--seed"),
        (["lrsp", "--seed", "-1"], "--seed"),
        (["precond", "--seed", "-1"], "--seed"),
        # {2d} stands for a CSV of 2-d points
        (["field", "--obs", "{2d}", "--sigma", "0.1"], "--obs"),
        (["estimate", "--obs", "{2d}", "--sigma", "0.1"], "--obs"),
        (["bounds", "--condition", "1", "--obs", "{2d}"], "--obs"),
        (["bounds", "--condition", "1", "--ystar", "nan"], "--ystar"),
        (["precond", "--data", "{2d}", "--subsample", "0"], "--subsample"),
    ], ids=lambda v: "_".join(v) if isinstance(v, list) else v)
    def test_grid_and_count_flags_fail_before_kernel_work(
            self, tmp_path, capsys, monkeypatch, argv, flag):
        def never(*args, **kwargs):
            raise AssertionError("kernel work started")

        for mod in (kernel_mod, posterior_mod, precond_mod, lrsp_mod, bounds_mod, est_mod,
                    cli_mod):
            monkeypatch.setattr(mod, "kernel_matrix", never)
        data = tmp_path / "pts2d.csv"
        np.savetxt(data, np.random.default_rng(0).uniform(0.0, 1.0, (6, 2)), delimiter=",")
        out = tmp_path / "o.csv"
        assert run([*(a.replace("{2d}", str(data)) for a in argv), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} ")
        assert not out.exists()


class TestSvdCommand:
    def test_decay_large_bandwidth(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["svd", "--equispaced", "500", "--sigma", "0.6", "--k", "50",
                    "--out", str(out), "--no-timestamp"]) == 0
        _, rows = read_csv(out)
        vals = [float(r[1]) for r in rows]
        assert len(vals) == 50
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)
        assert vals[49] <= 1e-10 * vals[0]

    @pytest.mark.parametrize("k", ["-5", "0", "51"])
    def test_k_outside_grid_fails_before_kernel_work(self, tmp_path, capsys, monkeypatch, k):
        def never(*args, **kwargs):
            raise AssertionError("kernel work started")

        monkeypatch.setattr(cli_mod, "kernel_matrix", never)
        out = tmp_path / "s.csv"
        assert run(["svd", "--equispaced", "50", "--sigma", "0.6", f"--k={k}",
                    "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --k")
        assert not out.exists()


class TestBoundsCommand:
    def test_default_sigma_per_condition(self, tmp_path):
        for cond in (1, 2, 3):
            out = tmp_path / f"b{cond}.csv"
            assert run(["bounds", "--condition", str(cond), "--out", str(out),
                        "--no-timestamp"]) == 0
            header, rows = read_csv(out)
            assert header == ["x", "in_region", "exact_abs", "upper_curve",
                              "lower_curve", "distance_curve"]
            assert len(rows) == 101
            flags = [int(r[1]) for r in rows]
            assert 0 < sum(flags) <= 101

    @pytest.mark.parametrize("cond", ["1", "2", "3"])
    def test_one_exact_column_and_one_kernel_column(self, tmp_path, monkeypatch, cond):
        # cov_matrix forms |R(x, y*)| (with its own K(grid, y*)); bounds forms the
        # kernel column for the upper and lower curves once more, both once per run
        calls = {"cov_matrix": 0, "kernel_matrix": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(posterior_mod.PosteriorModel, "cov_matrix",
                            counted("cov_matrix", posterior_mod.PosteriorModel.cov_matrix))
        monkeypatch.setattr(bounds_mod, "kernel_matrix",
                            counted("kernel_matrix", bounds_mod.kernel_matrix))
        assert run(["bounds", "--condition", cond, "--grid", "101",
                    "--out", str(tmp_path / "b.csv"), "--no-timestamp"]) == 0
        assert calls == {"cov_matrix": 1, "kernel_matrix": 1}

    def test_obs_file_reads_as_the_preset(self, tmp_path):
        obs = tmp_path / "s.csv"
        np.savetxt(obs, preset_observations("nonuniform1d").coords, delimiter=",")
        outs = []
        for source in (["--obs", str(obs)], ["--preset", "nonuniform1d"]):
            outs.append(tmp_path / f"{source[0][2:]}.csv")
            assert run(["bounds", "--condition", "2", *source, "--out", str(outs[-1]),
                        "--no-timestamp"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("preset", ["uniform1d", "nonuniform1d"])
    def test_preset_and_obs_together_is_usage_error(self, tmp_path, preset):
        obs = tmp_path / "s.csv"
        np.savetxt(obs, [0.1, 0.5, 0.9])
        out = tmp_path / "b.csv"
        assert run(["bounds", "--condition", "1", "--preset", preset, "--obs", str(obs),
                    "--out", str(out)]) == 2
        assert not out.exists()


class TestEstimateCommand:
    def test_columns(self, tmp_path):
        out = tmp_path / "e.csv"
        assert run(["estimate", "--preset", "uniform1d", "--sigma", "0.2",
                    "--grid", "41", "--out", str(out), "--no-timestamp"]) == 0
        header, rows = read_csv(out)
        assert header == ["x", "y", "exact", "estimate"]
        assert len(rows) == 41 * 41
        est_max = max(float(r[3]) for r in rows)
        exact_max = max(float(r[2]) for r in rows)
        assert est_max == pytest.approx(exact_max, rel=1e-12)


class TestGpDemoCommand:
    def test_obs_and_curve_rows(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run(["gp-demo", "--grid", "201", "--out", str(out),
                    "--no-timestamp"]) == 0
        _, rows = read_csv(out)
        kinds = [r[0] for r in rows]
        assert kinds.count("obs") == 15
        assert kinds.count("curve") == 201


class TestField2dCommand:
    def test_disk_layout(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["field2d", "--grid", "41", "--seed", "5", "--out", str(out),
                    "--no-timestamp"]) == 0
        _, rows = read_csv(out)
        kinds = [r[0] for r in rows]
        assert kinds.count("xstar") == 1
        assert kinds.count("obs") == 25
        field_rows = [r for r in rows if r[0] == "field"]
        assert field_rows
        for r in field_rows:
            assert float(r[1]) ** 2 + float(r[2]) ** 2 <= 0.4**2 + 1e-12


class TestGenCommand:
    def test_roundtrip(self, tmp_path):
        data = tmp_path / "pts.csv"
        assert run(["gen", "--n", "50", "--d", "2", "--seed", "3",
                    "--out", str(data), "--no-timestamp"]) == 0
        out = tmp_path / "p.csv"
        assert run(["precond", "--data", str(data), "--standardize", "--seed", "1",
                    "--maxit", "200", "--out", str(out), "--no-timestamp"]) == 0
        header, rows = read_csv(out)
        assert header == ["method", "iterations", "rel_err", "residual",
                          "fsai_nnz_fraction"]
        assert [r[0] for r in rows] == ["1", "2", "3"]


class TestLrspCommand:
    def test_sweep_layout(self, tmp_path):
        out = tmp_path / "l.csv"
        assert run(["lrsp", "--n", "150", "--r0", "20", "--rank-sweep", "20:60:20",
                    "--delta-sweep", "2:3:1", "--out", str(out), "--no-timestamp"]) == 0
        header, rows = read_csv(out)
        assert header == ["equiv_rank", "lr_max", "lrsp_max", "lr_2norm", "lrsp_2norm"]
        assert len(rows) == 3 + 2  # three rank-sweep rows, two delta rows
        for r in rows[3:]:
            assert float(r[2]) < float(r[1])  # LRSP beats LR at equal storage
        # the radius rows against the dense LRSP reconstruction
        X = generate_gaussian_cloud(150, 3, 42)
        cfg = KernelConfig(sigma=0.5)
        f0 = nystrom_build(X, np.random.default_rng(43).permutation(X.n)[:20], cfg)
        K = kernel_matrix(X, X, cfg)
        v = np.random.default_rng(44).standard_normal(X.n)
        for mult, r in zip((2, 3), rows[3:]):
            pat = pattern_by_radius(X, mult * cfg.sigma)
            E = K - lrsp_dense(f0, sparse_correction(X, f0, pat, cfg))
            assert float(r[0]) == cost_equivalent_rank(20, X.n, pat.nnz)
            assert float(r[2]) == pytest.approx(np.abs(E).max(), rel=0, abs=1e-12)
            two = np.linalg.norm(E @ v) / np.linalg.norm(v)
            assert float(r[4]) == pytest.approx(two, rel=0, abs=1e-12)

    @pytest.mark.parametrize("flags", [
        ["--n", "200", "--rank-sweep", "100:400:100"],   # ranks above n
        ["--n", "200", "--r0", "500"],
        ["--r0", "0"],
    ])
    def test_rank_outside_range(self, tmp_path, capsys, flags):
        out = tmp_path / "l.csv"
        assert run(["lrsp", *flags, "--out", str(out)]) == 1
        flag = "--rank-sweep" if "--rank-sweep" in flags else "--r0"
        assert capsys.readouterr().err.startswith(f"error: {flag}")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--delta-sweep", "1:x:1"),           # malformed
        ("--delta-sweep", "-1:3:1"),          # a negative radius
        ("--delta-sweep", "nan:3:1"),
        ("--delta-sweep", "0:1e12:1"),        # more radii than distinct patterns
        ("--rank-sweep", "100:1100:100"),     # its last rank is above n
        ("--rank-sweep", "100:1e9:1"),        # would build 1e9 ranks
        ("--rank-sweep", "100:600:0.25"),     # more ranks than n
        ("--rank-sweep", "100:inf:40"),
    ])
    def test_bad_sweep_fails_before_any_work(self, tmp_path, capsys, monkeypatch, flag, value):
        def never(*args, **kwargs):
            raise AssertionError("reached past the flag checks")

        # a sweep is built only once its count passed the check: at most n = 1000
        # ranks or n(n-1)/2 + 1 radii (the default rank sweep, 15 values, is
        # built before the radii are read)
        limit = 1000 if flag == "--rank-sweep" else 1000 * 999 // 2 + 1
        arange = np.arange

        def checked_arange(start, stop, step):
            if not math.ceil((stop - start) / step) <= limit:
                raise AssertionError("a sweep was built before its count check")
            return arange(start, stop, step)

        monkeypatch.setattr(lrsp_mod, "nystrom_build", never)
        monkeypatch.setattr(np, "arange", checked_arange)
        out = tmp_path / "l.csv"
        assert run(["lrsp", f"{flag}={value}", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}")
        assert not out.exists()


    @pytest.mark.parametrize("spec", [
        "1:10:1", "100:660:40", "0.5:4:0.7", "10:90:7", "-1:3:1", "1e-3:2.3:0.013",
    ])
    def test_sweep_values_are_arange_bitwise(self, spec):
        lo, hi, step = map(float, spec.split(":"))
        got = np.array(cli_mod._parse_sweep(spec, "--x", 10**6))
        want = np.arange(lo, hi + 1e-9, step)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_empty_sweep_is_named(self, tmp_path, capsys):
        # hi + 1e-9 rounds to hi = lo at this magnitude: no values at all
        out = tmp_path / "l.csv"
        assert run(["lrsp", "--delta-sweep", "1e20:1e20:1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: --delta-sweep: 0 values")
        assert not out.exists()

    def test_negative_sweep_value_needs_equals(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("reached past the flag checks")

        monkeypatch.setattr(lrsp_mod, "nystrom_build", never)
        out = tmp_path / "l.csv"
        # with a space, argparse reads the value as another option: usage error
        assert run(["lrsp", "--delta-sweep", "-1:3:1", "--out", str(out)]) == 2
        assert "--delta-sweep" in capsys.readouterr().err
        # with '=', the value reaches the named check
        assert run(["lrsp", "--delta-sweep=-1:3:1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: --delta-sweep: radii must be >= 0")
        assert not out.exists()


class TestPrecondCommand:
    def test_benchmark_instance(self, tmp_path):
        # the documented benchmark instance: seed 42, defaults everywhere
        out = tmp_path / "t.csv"
        assert run(["precond", "--n", "1000", "--d", "3",
                    "--seed", "42", "--out", str(out), "--no-timestamp"]) == 0
        header, rows = read_csv(out)
        assert [r[0] for r in rows] == ["1", "2", "3"]
        method3 = rows[2]
        assert int(method3[1]) <= 50
        assert float(method3[3]) <= 1e-5

    def test_precond_on_repeated_rows(self, tmp_path):
        # tau > 0 makes the landmark block SPD even when landmarks repeat
        data = tmp_path / "dup.csv"
        X = np.random.default_rng(0).standard_normal((300, 3))
        np.savetxt(data, np.repeat(X, 2, axis=0), delimiter=",")
        out = tmp_path / "p.csv"
        assert run(["precond", "--data", str(data), "--maxit", "200",
                    "--out", str(out), "--no-timestamp"]) == 0
        _, rows = read_csv(out)
        assert float(rows[2][3]) <= 1e-5

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "nan"), ("--tol", "0"), ("--tol", "-1"), ("--tol", "inf"),
        ("--maxit", "0"),
        ("--delta", "nan"), ("--delta", "-1"), ("--delta", "inf"),
        ("--r-fraction", "nan"), ("--r-fraction", "inf"), ("--r-fraction", "1"),
        ("--percentile", "0"), ("--percentile", "100"), ("--percentile", "nan"),
        ("--tau", "-1"), ("--tau", "nan"), ("--tau", "inf"),
    ])
    def test_bad_flag_fails_before_kernel_work(self, tmp_path, capsys, monkeypatch, flag, value):
        def never(*args, **kwargs):
            raise AssertionError("kernel work started")

        for mod in (kernel_mod, posterior_mod, precond_mod, lrsp_mod, cli_mod):
            monkeypatch.setattr(mod, "kernel_matrix", never)
        out = tmp_path / "p.csv"
        assert run(["precond", f"{flag}={value}", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}")
        assert not out.exists()

    def test_subsample_zero_is_a_range_error(self, tmp_path, capsys):
        data = tmp_path / "pts.csv"
        np.savetxt(data, np.random.default_rng(0).standard_normal((50, 2)), delimiter=",")
        out = tmp_path / "p.csv"
        assert run(["precond", "--data", str(data), "--subsample", "0",
                    "--out", str(out)]) == 1
        assert "need 1 <= m <= 50, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_singular_reference_solve_is_named(self, tmp_path, capsys, monkeypatch):
        # tau = 0 with every row twice: K is singular, so the dense reference
        # Cholesky fails, and it is named before any PCG runs
        def never(*args, **kwargs):
            raise AssertionError("PCG ran")

        monkeypatch.setattr(precond_mod, "pcg", never)
        data = tmp_path / "dup.csv"
        X = np.random.default_rng(0).standard_normal((300, 3))
        np.savetxt(data, np.repeat(X, 2, axis=0), delimiter=",")
        out = tmp_path / "p.csv"
        assert run(["precond", "--data", str(data), "--tau", "0",
                    "--out", str(out), "--no-timestamp"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: reference Cholesky failed")
        assert "600 x 600" in err and "tau = 0" in err
        assert not out.exists()


# a fresh interpreter: import the package and the CLI, run a small precond and
# a small lrsp, and print which of the named scipy modules got loaded
_IMPORT_PROBE = """
import sys
import covfield, covfield.cli
out = sys.argv[1]
assert covfield.cli.run(["precond", "--n", "120", "--seed", "3", "--out", out + "/p.csv"]) == 0
assert covfield.cli.run(["lrsp", "--n", "120", "--r0", "10", "--rank-sweep", "10:30:10",
                         "--delta-sweep", "1:3:1", "--out", out + "/l.csv"]) == 0
print(sorted(m for m in ("scipy.spatial", "scipy.sparse.linalg") if m in sys.modules))
"""


def test_cli_runs_load_neither_scipy_spatial_nor_sparse_linalg(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
