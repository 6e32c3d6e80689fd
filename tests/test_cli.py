"""Command-line front end: outputs, schemas, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

from sqg_vstates.cli import EXIT_GUARD, EXIT_OK, _fmt17, main
from sqg_vstates.contour import PatchPair, boundary_samples

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

    def test_invalid_b_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--b", "1.2"])
        assert exc.value.code == 2

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
        data = json.loads(out.read_text())
        pt = data["points"][1]
        patch = PatchPair(b=0.6, m=5, K=4, a=np.array(pt["a"]), c=np.array(pt["c"]),
                          omega=pt["omega"])
        lines = ["theta,x1,y1,x2,y2"]
        lines += [",".join(_fmt17(v) for v in row) for row in boundary_samples(patch)]
        written = (tmp_path / "branch.boundaries.001.csv").read_text()
        assert written == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("value", [-0.0, 5e-324, 1.0 / 3.0, 1e300])
    def test_percent_format_matches_fmt17(self, value):
        assert "%.17g" % value == _fmt17(value)

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
        # boundary points map onto themselves under rotation by 2 pi / m
        from sqg_vstates.contour import PatchPair, eval_maps

        src = run_branch(tmp_path, steps=2)
        data = json.loads(src.read_text())
        pt = data["points"][-1]
        patch = PatchPair(b=data["b"], m=data["m"], K=data["K"],
                          a=np.array(pt["a"]), c=np.array(pt["c"]),
                          omega=pt["omega"])
        rot = np.exp(2j * math.pi / data["m"])
        for theta in np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False):
            z1, z2, _, _ = eval_maps(patch, theta)
            z1r, z2r, _, _ = eval_maps(patch, theta + 2.0 * math.pi / data["m"])
            assert abs(z1r - rot * z1) <= 1e-9
            assert abs(z2r - rot * z2) <= 1e-9

    def test_empty_selection(self, tmp_path):
        src = run_branch(tmp_path, steps=1)
        out = tmp_path / "img.svg"
        assert main(["render", str(src), "--points", "none", "--out", str(out)]) == EXIT_OK
        svg = out.read_text()
        assert "<polygon" not in svg
        assert svg.count("<circle") == 2

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
        # the full default suite runs in the acceptance tests; here only
        # the plumbing: text table to a file, json format, exit code
        from sqg_vstates.verify import check_c3_c8

        reports = check_c3_c8(b_set=(0.4,), n_max=3)
        assert all(r.passed for r in reports)

    def test_negative_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


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
