"""Command-line front end: outputs, schemas, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from sqg_vstates import cli, specfun
from sqg_vstates.cli import EXIT_GUARD, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, _fmt17, build_parser, main
from sqg_vstates.contour import MAX_KP, BranchRun, boundary_samples
from sqg_vstates.specfun import AnnulusConstants, lambda_coeff, s_sum
from sqg_vstates.spectrum import threshold_N
from sqg_vstates.verify import TOLERANCES

SPECTRUM_HEADER = "m,C_m,D_m,Delta_m,lambda_minus,lambda_plus,omega_minus,omega_plus,transversal"


def run_branch(tmp_path, name="branch.json", steps=2, extra=()):
    out = tmp_path / name
    code = main([
        "branch", "--b", "0.6", "--m", "5", "--sign", "plus",
        "--steps", str(steps), "--ds", "1e-3",
        "--modes", "4", "--quad", "320", "--out", str(out), *extra,
    ])
    assert code == EXIT_OK
    return out


def count_constants(monkeypatch):
    """Record every ``AnnulusConstants.build`` call and every one-mode
    ``s_sum`` or ``lambda_coeff`` evaluation (a value computed outside
    a table)."""
    builds, lookups = [], []
    build = AnnulusConstants.build.__func__

    def counted(cls, *args, **kwargs):
        builds.append(args)
        return build(cls, *args, **kwargs)

    def counted_s(n):
        lookups.append(("s_sum", n))
        return s_sum(n)

    def counted_lambda(n, b):
        lookups.append(("lambda_coeff", n))
        return lambda_coeff(n, b)

    monkeypatch.setattr(AnnulusConstants, "build", classmethod(counted))
    monkeypatch.setattr(specfun, "s_sum", counted_s)
    monkeypatch.setattr(specfun, "lambda_coeff", counted_lambda)
    return builds, lookups


def reference_row(b, m, consts):
    """One spectrum row from the scalar formulas on Python floats: the
    columns m, C_m, D_m, Delta_m, lambda^-, lambda^+, Omega^-, Omega^+ and
    the transversal flag."""
    s_m, lam_1, lam_m = consts.s(m), consts.lam(1), consts.lam(m)
    c_m = 1.0 + (1.0 / b - 1.0) * s_m - (1.0 - b * b) * lam_1
    alpha = 1.0 - 2.0 * s_m + 2.0 * b * b * lam_1
    beta = 1.0 + 2.0 * s_m / b - 2.0 * lam_1
    d_m = alpha * beta + 4.0 * b * b * lam_m * lam_m
    core = (1.0 / b + 1.0) * s_m - (1.0 + b * b) * lam_1
    delta = core * core - 4.0 * b * b * lam_m * lam_m
    # the root of larger magnitude, the other from the product D_m
    q = c_m + math.copysign(math.sqrt(delta), c_m)
    lam_minus, lam_plus = min(q, d_m / q), max(q, d_m / q)
    return [m, c_m, d_m, delta, lam_minus, lam_plus,
            0.5 * (1.0 - lam_plus), 0.5 * (1.0 - lam_minus), delta > 1e-12]


@pytest.mark.parametrize("argv", [
    ["spectrum", "--b", "0.5", "--m-max", "1000000000"],
    ["branch", "--b", "0.6", "--m", "1000000000"],
])
def test_huge_mode_fails_fast(argv, capsys):
    # spectrum: the recurrence-length cap, checked before any table is
    # allocated; branch: its grid cap, checked before the table
    code, message = {
        "spectrum": (EXIT_NUMERIC, "needs a recurrence of"),
        "branch": (EXIT_GUARD, f"within the cap K*P <= {MAX_KP}"),
    }[argv[0]]
    t0 = time.perf_counter()
    assert main(argv) == code
    assert time.perf_counter() - t0 < 1.0
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--b", "1e-300"],
    ["threshold", "--b", "5e-324"],
])
def test_tiny_radius_is_a_guard_error(argv, capsys):
    # (S_n / b)^2 overflows: a guard error, not inf or nan with exit 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == EXIT_GUARD
    out, err = capsys.readouterr()
    assert out == "" and not caught
    assert err.startswith("error: ") and err.count("\n") == 1


class TestSpectrumCommand:
    def test_default_range_csv(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--b", "0.5", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == SPECTRUM_HEADER
        assert len(lines) == 22  # N(0.5)=3 .. N+20, inclusive
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(3, 24))
        assert all(r[8] == "true" for r in rows)
        # Omega = (1 - lambda)/2 mapping, columns are round-trip exact
        for r in rows:
            lam_minus, lam_plus = float(r[4]), float(r[5])
            om_minus, om_plus = float(r[6]), float(r[7])
            assert om_plus == 0.5 * (1.0 - lam_minus)
            assert om_minus == 0.5 * (1.0 - lam_plus)

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["spectrum", "--b", "0.37", "--out", str(out1)])
        main(["spectrum", "--b", "0.37", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--b", "0.5", "--m-min", "3", "--m-max", "5",
                     "--format", "json", "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        assert [row["m"] for row in data] == [3, 4, 5]
        assert all(row["transversal"] for row in data)

    def test_below_threshold_guard(self, tmp_path, capsys):
        code = main(["spectrum", "--b", "0.5", "--m-min", "2", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_GUARD
        assert "threshold" in capsys.readouterr().err

    def test_empty_mode_range_guard(self, capsys):
        assert main(["spectrum", "--b", "0.5", "--m-min", "10", "--m-max", "5"]) == EXIT_GUARD
        assert "mode range 10..5 is empty" in capsys.readouterr().err

    def test_invalid_b_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--b", "1.2"])
        assert exc.value.code == 2

    def test_thin_annulus_reads_one_table(self, capsys, monkeypatch):
        # N(0.9999) = 14225 and its 20 rows above all come from one table
        builds, lookups = count_constants(monkeypatch)
        assert main(["spectrum", "--b", "0.9999"]) == EXIT_OK
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert rows[0].startswith("14225,") and len(rows) == 21
        assert len(builds) == 1 and lookups == []

    def test_m_min_sizes_the_table(self, capsys, monkeypatch):
        # rows from 20000 lie past the 15000 modes that reach N(0.9999); the
        # one table is built to the last row, so no row is a past-table lookup
        builds, lookups = count_constants(monkeypatch)
        assert main(["spectrum", "--b", "0.9999", "--m-min", "20000"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows[0].startswith("20000,") and len(rows) == 21
        assert len(builds) == 1 and lookups == []
        assert main(["spectrum", "--b", "0.9999", "--m-max", "20020"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-21:] == rows

    def test_default_rows_lie_in_the_table(self, capsys, monkeypatch):
        # N(0.993) = 203 and rows 216..223 lie past ceil(1.5 / (1 - b)) = 215:
        # build() reaches N(b) + 20, so one table holds every default row
        builds, lookups = count_constants(monkeypatch)
        assert main(["spectrum", "--b", "0.993"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows[0].startswith("203,") and len(rows) == 21
        assert len(builds) == 1 and lookups == []
        assert main(["spectrum", "--b", "0.993", "--m-max", "223"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-21:] == rows

    @pytest.mark.parametrize("b, m_min, m_max", [
        (0.05, None, 400),
        (0.6, None, None),
        (0.95, 60, 300),
        (0.9999, None, None),
    ])
    def test_rows_equal_scalar_reference(self, b, m_min, m_max, tmp_path):
        # every written value equals, bitwise, the scalar formulas on
        # Python floats; the reference table reaches the last row
        consts = AnnulusConstants.build(b) if m_max is None else AnnulusConstants.build(b, m_max)
        first = m_min if m_min is not None else threshold_N(b, consts)
        last = m_max if m_max is not None else first + 20
        argv = ["spectrum", "--b", repr(b)]
        argv += ["--m-min", str(m_min)] if m_min is not None else []
        argv += ["--m-max", str(m_max)] if m_max is not None else []
        csv_out, json_out = tmp_path / "s.csv", tmp_path / "s.json"
        assert main([*argv, "--out", str(csv_out)]) == EXIT_OK
        assert main([*argv, "--format", "json", "--out", str(json_out)]) == EXIT_OK
        lines = csv_out.read_text().splitlines()
        assert lines[0] == SPECTRUM_HEADER
        fields = [line.split(",") for line in lines[1:]]
        assert all(f[8] in ("true", "false") for f in fields)
        csv_rows = [[int(f[0])] + [float(v) for v in f[1:8]] + [f[8] == "true"] for f in fields]
        json_rows = [list(row.values()) for row in json.loads(json_out.read_text())]
        expected = [reference_row(b, m, consts) for m in range(first, last + 1)]
        assert csv_rows == expected
        assert json_rows == expected

    def test_default_m_max_follows_m_min(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--b", "0.5", "--m-min", "50", "--out", str(out)]) == EXIT_OK
        rows = out.read_text().strip().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == list(range(50, 71))


class TestThresholdCommand:
    def test_prints_bracketing(self, capsys):
        assert main(["threshold", "--b", "0.5"]) == EXIT_OK
        line = capsys.readouterr().out.strip()
        assert line.startswith("b=0.5 N=3 ")
        parts = dict(tok.split("=") for tok in line.split())
        assert float(parts["E[N-1]"]) <= 0.0 < float(parts["E[N]"])

    @pytest.mark.parametrize("b", ["0.1", "0.9"])
    def test_extreme_radii_well_defined(self, b, capsys):
        assert main(["threshold", "--b", b]) == EXIT_OK
        parts = dict(tok.split("=") for tok in capsys.readouterr().out.strip().split())
        assert int(parts["N"]) >= 2

    def test_invalid_b_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--b", "1.2"])
        assert exc.value.code == 2

    def test_threshold_past_default_table(self, capsys):
        # N(0.995) = 284 lies past the 200-mode default table
        assert main(["threshold", "--b", "0.995"]) == EXIT_OK
        assert " N=284 " in capsys.readouterr().out

    def test_thin_annulus_builds_one_table(self, capsys, monkeypatch):
        # the table build() sizes reaches N, so E[N-1] and E[N] are lookups
        builds, lookups = count_constants(monkeypatch)
        assert main(["threshold", "--b", "0.9999"]) == EXIT_OK
        assert " N=14225 " in capsys.readouterr().out
        assert len(builds) == 1 and lookups == []

    def test_thinnest_annulus_fails_fast(self, capsys):
        # b = 1 - 2^-53 would need a recurrence of about 4e17 steps
        t0 = time.perf_counter()
        assert main(["threshold", "--b", "0.9999999999999999"]) == EXIT_NUMERIC
        assert time.perf_counter() - t0 < 1.0
        assert "needs a recurrence of" in capsys.readouterr().err


class TestBranchCommand:
    def test_json_schema_and_contract(self, tmp_path):
        out = run_branch(tmp_path, steps=2)
        data = json.loads(out.read_text())
        assert data["b"] == 0.6 and data["m"] == 5 and data["sign"] == "plus"
        assert data["K"] == 4 and data["P"] == 320
        assert data["stopped_reason"] is None
        assert len(data["points"]) == 3
        assert data["points"][0]["s"] == 0.0
        for pt in data["points"]:
            assert len(pt["a"]) == 4 and len(pt["c"]) == 4
            assert pt["residual_norm"] <= 1e-10

    def test_deterministic_output(self, tmp_path):
        out1 = run_branch(tmp_path, "b1.json", steps=1)
        out2 = run_branch(tmp_path, "b2.json", steps=1)
        assert out1.read_bytes() == out2.read_bytes()

    def test_ten_steps_default_contract(self, tmp_path):
        out = run_branch(tmp_path, steps=10)
        data = json.loads(out.read_text())
        assert len(data["points"]) == 11  # includes s = 0
        assert [round(p["s"], 12) for p in data["points"]] == [
            round(k * 1e-3, 12) for k in range(11)
        ]
        assert all(p["residual_norm"] <= 1e-10 for p in data["points"])

    def test_default_quad_is_4km(self, tmp_path):
        # without --quad the grid is P = 4 K m, already converged: Omega
        # matches --quad 4096 (rounded up to 4160) at every point
        runs = []
        for name, extra in (("default.json", ()), ("fine.json", ("--quad", "4096"))):
            out = tmp_path / name
            assert main(["branch", "--b", "0.6", "--m", "5", "--steps", "3", "--ds", "1e-3",
                         "--modes", "4", "--out", str(out), *extra]) == EXIT_OK
            runs.append(json.loads(out.read_text()))
        default, fine = runs
        assert default["P"] == 4 * 4 * 5 and fine["P"] == 4160
        assert len(default["points"]) == len(fine["points"]) == 4
        for pt, ref in zip(default["points"], fine["points"]):
            assert abs(pt["omega"] - ref["omega"]) <= 1e-12

    def test_boundaries_csv(self, tmp_path):
        run_branch(tmp_path, steps=1, extra=("--boundaries",))
        for idx in (0, 1):
            csv = tmp_path / f"branch.boundaries.{idx:03d}.csv"
            lines = csv.read_text().strip().splitlines()
            assert lines[0] == "theta,x1,y1,x2,y2"
            assert len(lines) == 513
            first = [float(v) for v in lines[1].split(",")]
            assert len(first) == 5

    def test_boundaries_csv_matches_fmt17(self, tmp_path):
        out = run_branch(tmp_path, steps=1, extra=("--boundaries",))
        patch = BranchRun.from_dict(json.loads(out.read_text())).points[1].patch
        lines = ["theta,x1,y1,x2,y2"]
        lines += [",".join(_fmt17(v) for v in row) for row in boundary_samples(patch)]
        written = (tmp_path / "branch.boundaries.001.csv").read_text()
        assert written == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("value", [-0.0, 5e-324, 1.0 / 3.0, 1e300])
    def test_percent_format_matches_fmt17(self, value):
        assert "%.17g" % value == _fmt17(value)

    def test_early_stop_is_reported_on_stderr(self, tmp_path, capsys):
        # the univalence guard ends this branch at step 8: the command still
        # writes the partial branch and exits 0, and says why on stderr
        out = tmp_path / "early.json"
        assert main(["branch", "--b", "0.6", "--m", "5", "--modes", "8", "--ds", "5e-3",
                     "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        assert len(data["points"]) == 8
        assert data["stopped_reason"].startswith("PreconditionError at step 8: ")
        assert capsys.readouterr().err == f"stopped: {data['stopped_reason']}\n"

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_full_branch_writes_no_stderr(self, tmp_path, capsys, sign):
        # the criterion-10 configuration runs all 10 steps in silence
        out = tmp_path / "branch.json"
        assert main(["branch", "--b", "0.6", "--m", "5", "--sign", sign, "--steps", "10",
                     "--ds", "1e-3", "--modes", "8", "--quad", "1280",
                     "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["stopped_reason"] is None
        assert capsys.readouterr().err == ""

    def test_below_threshold_guard(self, tmp_path, capsys):
        code = main(["branch", "--b", "0.6", "--m", "2", "--steps", "1",
                     "--modes", "4", "--quad", "320", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_GUARD

    @pytest.mark.parametrize("extra", [
        ("--modes", "0"),
        ("--ds", "nan"),
        ("--ds", "inf"),
        ("--tol", "nan"),
        ("--quad", "0"),
        ("--quad", "-5"),
    ])
    def test_degenerate_arguments_are_guard_errors(self, tmp_path, capsys, extra):
        out = tmp_path / "x.json"
        code = main(["branch", "--b", "0.6", "--m", "5", "--steps", "1",
                     "--quad", "320", "--out", str(out), *extra])
        assert code == EXIT_GUARD
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        ("--modes", "100000"),  # P = 4Km = 2e6: a 149 GiB table
        ("--modes", "8", "--quad", "1000000000"),  # 7.45 GiB of node indices
        ("--modes", "1000000000000"),  # 7.28 TiB of annulus coefficients
        ("--modes", str(10**30)),  # beyond numpy's largest dimension
    ])
    def test_oversized_grid_fails_before_allocating(self, tmp_path, capsys, extra):
        out = tmp_path / "x.json"
        tracemalloc.start()
        try:
            code = main(["branch", "--b", "0.6", "--m", "5", "--steps", "1",
                         "--out", str(out), *extra])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_GUARD
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"cap K*P <= {MAX_KP}" in err and f"K={extra[1]} " in err
        assert peak < 32 * 2**20
        assert not out.exists()

    def test_missing_output_directory_fails_before_tracing(self, tmp_path, capsys, monkeypatch):
        # every command refuses the file that open() would refuse after its
        # work, before that work, with the same message, and creates nothing
        from sqg_vstates import verify

        def fail(*args, **kwargs):
            pytest.fail("the command ran")

        for module, name in ((cli, "branch_continue"), (cli.AnnulusConstants, "build"),
                             (verify, "run_default_suite"), (cli.BranchRun, "from_dict")):
            monkeypatch.setattr(module, name, fail)
        source = tmp_path / "in.json"
        source.write_text("{}")
        out = tmp_path / "no" / "such" / "o.txt"
        for argv in (["branch", "--b", "0.6", "--m", "5", "--boundaries"],
                     ["spectrum", "--b", "0.5"], ["check"], ["render", str(source)]):
            assert main(argv + ["--out", str(out)]) == EXIT_USAGE, argv
            assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
            assert list(tmp_path.iterdir()) == [source]

    def test_bare_output_name_goes_to_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["branch", "--b", "0.6", "--m", "5", "--modes", "4", "--steps", "1",
                     "--out", "b.json", "--boundaries"]) == EXIT_OK
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "b.boundaries.000.csv", "b.boundaries.001.csv", "b.json"]

    def test_minus_branch_starts_at_small_radius(self, tmp_path, capsys):
        # Omega^- ~ -S_m / b: the kernel direction comes from the first row,
        # whose terms do not cancel
        out = tmp_path / "x.json"
        code = main(["branch", "--b", "1e-6", "--m", "3", "--sign", "minus",
                     "--modes", "4", "--steps", "1", "--out", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().err.startswith("stopped: ")
        assert len(json.loads(out.read_text())["points"]) == 1


class TestRenderCommand:
    def test_round_trip_from_branch(self, tmp_path):
        src = run_branch(tmp_path, steps=1)
        out = tmp_path / "img.svg"
        assert main(["render", str(src), "--out", str(out)]) == EXIT_OK
        svg = out.read_text()
        assert svg.startswith("<svg ")
        assert svg.count("<polygon") == 2  # outer + inner of the last point
        assert svg.count("<circle") == 2  # dashed reference circles
        assert "viewBox" in svg

    def test_annulus_point_renders_circles(self, tmp_path):
        src = run_branch(tmp_path, steps=0)
        out = tmp_path / "img.svg"
        assert main(["render", str(src), "--points", "0", "--out", str(out)]) == EXIT_OK
        svg = out.read_text()
        data = json.loads(src.read_text())
        # the rendered outer polygon of the annulus point lies on |z| = 1
        pts_attr = svg.split('<polygon points="')[1].split('"')[0]
        xy = np.array([[float(u) for u in tok.split(",")] for tok in pts_attr.split()])
        assert np.abs(np.hypot(xy[:, 0], xy[:, 1]) - 1.0).max() <= 1e-6
        assert data["points"][0]["s"] == 0.0

    def test_mfold_symmetry_of_samples(self, tmp_path):
        # boundary points map onto themselves under rotation by 2 pi / m,
        # a shift by a whole number of samples
        src = run_branch(tmp_path, steps=2)
        patch = BranchRun.from_dict(json.loads(src.read_text())).points[-1].patch
        shift = 32
        samples = boundary_samples(patch, npoints=shift * patch.m)
        rot = np.exp(2j * math.pi / patch.m)
        for col in (1, 3):
            z = samples[:, col] + 1j * samples[:, col + 1]
            assert np.abs(np.roll(z, -shift) - rot * z).max() <= 1e-9

    def test_all_points(self, tmp_path):
        src = run_branch(tmp_path, steps=2)
        out = tmp_path / "img.svg"
        assert main(["render", str(src), "--points", "all", "--out", str(out)]) == EXIT_OK
        assert out.read_text().count("<polygon") == 2 * 3  # outer + inner of each point

    def test_unparsable_points(self, tmp_path, capsys):
        src = run_branch(tmp_path, steps=1)
        out = tmp_path / "img.svg"
        assert main(["render", str(src), "--points", "0,x", "--out", str(out)]) == EXIT_GUARD
        assert "cannot parse --points '0,x'" in capsys.readouterr().err
        assert not out.exists()

    def test_point_that_is_not_an_object(self, tmp_path, capsys):
        src = run_branch(tmp_path, steps=1)
        data = json.loads(src.read_text())
        data["points"][0] = [1, 2]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["render", str(bad), "--out", str(tmp_path / "img.svg")]) == EXIT_GUARD
        assert "at points[0]: expected an object" in capsys.readouterr().err

    def test_empty_selection(self, tmp_path):
        src = run_branch(tmp_path, steps=1)
        out = tmp_path / "img.svg"
        assert main(["render", str(src), "--points", "none", "--out", str(out)]) == EXIT_OK
        svg = out.read_text()
        assert "<polygon" not in svg
        assert svg.count("<circle") == 2

    def test_huge_m_is_a_guard_error(self, tmp_path, capsys):
        src = run_branch(tmp_path, steps=1)
        data = json.loads(src.read_text())
        data["m"] = 10**30
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "img.svg"
        assert main(["render", str(bad), "--out", str(out)]) == EXIT_GUARD
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "int64" in err
        assert not out.exists()

    def test_huge_m_is_refused_with_no_point_selected(self, tmp_path, capsys):
        # every point builds its patch, not only the selected ones
        src = run_branch(tmp_path, steps=1)
        data = json.loads(src.read_text())
        data["m"] = 10**30
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "img.svg"
        assert main(["render", str(bad), "--points", "none", "--out", str(out)]) == EXIT_GUARD
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "int64" in err
        assert not out.exists()

    def test_empty_point_list_is_a_guard_error(self, tmp_path, capsys):
        # a run always holds its annulus point, which also gives the drawn b
        src = run_branch(tmp_path, steps=1)
        data = json.loads(src.read_text())
        data["points"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        for points in ("none", "last"):
            assert main(["render", str(bad), "--points", points,
                         "--out", str(tmp_path / "img.svg")]) == EXIT_GUARD
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "at points: expected at least the annulus point" in err

    @pytest.mark.parametrize("value,code", [(None, EXIT_OK), ("x", EXIT_OK), (7, EXIT_GUARD),
                                            (["x"], EXIT_GUARD), ("missing", EXIT_OK)])
    def test_stopped_reason_is_a_string_or_null(self, tmp_path, capsys, value, code):
        src = run_branch(tmp_path, steps=1)
        data = json.loads(src.read_text())
        if value == "missing":
            del data["stopped_reason"]
        else:
            data["stopped_reason"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["render", str(bad), "--out", str(tmp_path / "img.svg")]) == code
        if code == EXIT_GUARD:
            assert "at stopped_reason: expected str or null" in capsys.readouterr().err

    def test_schema_violation_names_field(self, tmp_path, capsys):
        src = run_branch(tmp_path, steps=1)
        data = json.loads(src.read_text())
        del data["points"][1]["omega"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = main(["render", str(bad), "--out", str(tmp_path / "img.svg")])
        assert code == EXIT_GUARD
        assert "points[1].omega" in capsys.readouterr().err

    @pytest.mark.parametrize("key,k,bad", [("a", 0, "x"), ("c", 2, {"x": 1}), ("a", 3, True)])
    def test_non_numeric_coefficient_names_entry(self, tmp_path, capsys, key, k, bad):
        src = run_branch(tmp_path, steps=1)
        data = json.loads(src.read_text())
        data["points"][1][key][k] = bad
        bad_file = tmp_path / "bad.json"
        bad_file.write_text(json.dumps(data))
        code = main(["render", str(bad_file), "--out", str(tmp_path / "img.svg")])
        assert code == EXIT_GUARD
        assert f"points[1].{key}[{k}]" in capsys.readouterr().err

    @pytest.mark.parametrize("path,bad", [
        ("points[1].omega", True), ("points[1].s", False),
        ("points[1].residual_norm", True), ("K", True), ("P", True), ("m", True),
    ])
    def test_boolean_scalar_names_field(self, tmp_path, capsys, path, bad):
        src = run_branch(tmp_path, steps=1)
        data = json.loads(src.read_text())
        if path.startswith("points[1]."):
            data["points"][1][path.split(".")[1]] = bad
        else:
            data[path] = bad
        if path == "K":  # true would read as one retained mode
            for pt in data["points"]:
                pt["a"], pt["c"] = pt["a"][:1], pt["c"][:1]
        bad_file = tmp_path / "bad.json"
        bad_file.write_text(json.dumps(data))
        code = main(["render", str(bad_file), "--out", str(tmp_path / "img.svg")])
        assert code == EXIT_GUARD
        assert f"at {path}:" in capsys.readouterr().err

    def test_directory_path_is_usage_error(self, tmp_path, capsys):
        src = run_branch(tmp_path, steps=1)
        assert main(["render", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert main(["render", str(src), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"b": 0.6,')
        code = main(["render", str(bad), "--out", str(tmp_path / "img.svg")])
        assert code == EXIT_GUARD
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not valid JSON" in err

    def test_bad_point_index(self, tmp_path, capsys):
        src = run_branch(tmp_path, steps=1)
        code = main(["render", str(src), "--points", "7", "--out", str(tmp_path / "i.svg")])
        assert code == EXIT_GUARD


class TestCheckCommand:
    def test_reduced_suite_via_api(self, tmp_path):
        # one reduced check through the API; the default suite runs below
        from sqg_vstates.verify import check_c3_c8

        reports = check_c3_c8(b_set=(0.4,), n_max=3)
        assert all(r.passed for r in reports)

    def test_negative_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [12345, 288545019])
    def test_default_suite_json(self, tmp_path, seed):
        out = tmp_path / "check.json"
        assert main(["check", "--seed", str(seed), "--format", "json", "--out", str(out)]) == EXIT_OK
        reports = json.loads(out.read_text())
        assert len(reports) == 16 and {r["name"] for r in reports} == set(TOLERANCES)
        assert all(r["passed"] and r["max_error"] <= r["tolerance"] for r in reports)

    def test_default_suite_text(self, capsys):
        assert main(["check", "--format", "text"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 16 and {row.split()[0] for row in rows} == set(TOLERANCES)
        assert [row.split()[-1] for row in rows] == ["PASS"] * 16


def test_parser_is_built_once(capsys):
    # commands of different kinds in one process write what each writes
    # with a parser of its own, and the process builds one parser
    argvs = [["spectrum", "--b", "0.5", "--m-max", "5", "--format", "json"],
             ["threshold", "--b", "0.5"],
             ["spectrum", "--b", "0.5", "--m-max", "5"]]
    separate = []
    for argv in argvs:
        build_parser.cache_clear()
        assert main(argv) == EXIT_OK
        separate.append(capsys.readouterr())
    build_parser.cache_clear()
    for argv, expected in zip(argvs, separate):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr() == expected
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["branch", "--b", "0.6"])
        assert exc.value.code == 2

    def test_missing_input_file(self, capsys):
        assert main(["render", "/nonexistent/branch.json"]) == 2


def test_module_entry_point():
    # python -m sqg_vstates.cli runs main and exits with its code
    src = str(Path(specfun.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "sqg_vstates.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    done = run("threshold", "--b", "0.5")
    assert done.returncode == EXIT_OK and " N=3 " in done.stdout
    assert run("spectrum", "--b", "0.5", "--m-min", "10", "--m-max", "5").returncode == EXIT_GUARD


def test_criterion_10_branch_bytes_do_not_depend_on_blas_threads(tmp_path):
    # K = 8: every product stays below OpenBLAS's threading size, so the
    # output is byte-identical at 1 and 2 threads.  The default K = 32 run
    # is not: its Jacobian products are threaded and its bytes differ.
    src = str(Path(specfun.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"k8_{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        argv = ["branch", "--b", "0.6", "--m", "5", "--modes", "8", "--quad", "1280",
                "--out", str(out)]
        code = f"from sqg_vstates.cli import main; raise SystemExit(main({argv!r}))"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=300)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
