import csv
import json
import math

import numpy as np
import pytest

from selectlik.cli import _emit_json, main

STEP_FLAGS = ["--rho", "1,0.6,0.1", "--alpha", "0,0.025,0.05,1"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def simulate_file(tmp_path, capsys, seed=5, n=15, theta0=1.0, tau=0.2):
    path = tmp_path / "studies.csv"
    code, out, _ = run(
        capsys,
        "simulate",
        *STEP_FLAGS,
        "--theta0",
        str(theta0),
        "--tau",
        str(tau),
        "--n-studies",
        str(n),
        "--sigma-value",
        "1.0",
        "--seed",
        str(seed),
        "--out",
        str(path),
    )
    assert code == 0
    return path, json.loads(out)


class TestSimulate:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        path, summary = simulate_file(tmp_path, capsys)
        assert summary["schema_version"] == "1"
        assert summary["n_studies"] == 15
        assert 0 < summary["acceptance_rate"] <= 1
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["effect", "se"]
        assert len(rows) == 16

    def test_deterministic_files(self, tmp_path, capsys):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        dir_a.mkdir()
        dir_b.mkdir()
        a, _ = simulate_file(dir_a, capsys)
        b, _ = simulate_file(dir_b, capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_uncensored_mean_near_theta0(self, tmp_path, capsys):
        path = tmp_path / "u.csv"
        code, out, _ = run(
            capsys,
            "simulate",
            "--rho",
            "1",
            "--alpha",
            "0,1",
            "--theta0",
            "0.4",
            "--tau",
            "0.1",
            "--n-studies",
            "400",
            "--sigma-value",
            "0.5",
            "--seed",
            "2",
            "--out",
            str(path),
        )
        assert code == 0
        effects = np.loadtxt(path, delimiter=",", skiprows=1)[:, 0]
        assert abs(effects.mean() - 0.4) < 3 * 0.51 / math.sqrt(400)

    def test_bad_steps_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "simulate",
            "--rho",
            "1,2",
            "--alpha",
            "0,0.5,1",
            "--theta0",
            "0",
            "--tau",
            "0",
            "--n-studies",
            "5",
            "--sigma-value",
            "1",
            "--seed",
            "0",
            "--out",
            str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "error" in err


class TestFit:
    def test_fit_roundtrip(self, tmp_path, capsys):
        path, _ = simulate_file(tmp_path, capsys)
        code, out, _ = run(capsys, "fit", str(path), *STEP_FLAGS)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == "1"
        assert payload["converged"] is True
        assert math.isfinite(payload["loglik_hat"])

    def test_uncensored_fit_near_truth(self, tmp_path, capsys):
        path = tmp_path / "u.csv"
        run(
            capsys,
            "simulate",
            "--rho",
            "1",
            "--alpha",
            "0,1",
            "--theta0",
            "0.4",
            "--tau",
            "0.2",
            "--n-studies",
            "300",
            "--sigma-value",
            "0.5",
            "--seed",
            "3",
            "--out",
            str(path),
        )
        code, out, _ = run(capsys, "fit", str(path), "--rho", "1", "--alpha", "0,1")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["theta0_hat"] - 0.4) < 3 * math.hypot(0.2, 0.5) / math.sqrt(300)

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "fit", "/nonexistent/studies.csv")
        assert code == 2

    def test_malformed_row_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("effect,se\n1.0,1.0\nnot-a-number,1.0\n")
        code, _, err = run(capsys, "fit", str(path))
        assert code == 2
        assert "row 3" in err

    def test_bad_header_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,1.0\n")
        code, _, err = run(capsys, "fit", str(path))
        assert code == 2


class TestContour:
    def test_long_format_grid(self, tmp_path, capsys):
        path, _ = simulate_file(tmp_path, capsys)
        out_path = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys,
            "contour",
            str(path),
            *STEP_FLAGS,
            "--theta-range=-3,3",
            "--tau-range",
            "0,2",
            "--resolution",
            "6,5",
            "--out",
            str(out_path),
        )
        assert code == 0
        rows = out_path.read_text().strip().split("\n")
        assert rows[0] == "theta,tau,loglik"
        assert len(rows) == 1 + 6 * 5
        theta, tau, ll = rows[1].split(",")
        assert float(theta) == -3.0
        assert math.isfinite(float(ll))


class TestGridFlags:
    @pytest.mark.parametrize(
        "command, flag",
        [("contour", "--tau-range=0,inf"), ("bayes", "--theta-range=-inf,5")],
    )
    def test_non_finite_range_exit_2(self, tmp_path, capsys, command, flag):
        path, _ = simulate_file(tmp_path, capsys)
        out_path = tmp_path / "grid.csv"
        code, _, err = run(
            capsys, command, str(path), *STEP_FLAGS, flag, "--out", str(out_path)
        )
        assert code == 2
        assert "finite" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["contour", "bayes"])
    @pytest.mark.parametrize("resolution", ["2.9,3,7", "3.0", "6,5,4", "1", "4,x", ""])
    def test_bad_resolution_exit_2(self, tmp_path, capsys, command, resolution):
        path, _ = simulate_file(tmp_path, capsys)
        out_path = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys,
            command,
            str(path),
            *STEP_FLAGS,
            "--resolution",
            resolution,
            "--out",
            str(out_path),
        )
        assert code == 2
        assert not out_path.exists()


class TestProbe:
    def test_probe_report(self, tmp_path, capsys):
        # seed 8 yields an all-significant corpus whose region hits the ray
        path, _ = simulate_file(tmp_path, capsys, seed=8, n=10)
        code, out, _ = run(
            capsys, "probe", str(path), *STEP_FLAGS, "--n-values", "10,100,1000"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["chi2_threshold"] == pytest.approx(5.9915, abs=1e-3)
        assert payload["diameter_lower_bound"] > 1000
        assert payload["unbounded"] is True
        assert isinstance(payload["limit_loglik"], float)


class TestJsonOutput:
    def test_non_finite_values_are_strict_json(self, tmp_path):
        path = tmp_path / "out.json"
        _emit_json({"a": -math.inf, "b": [math.nan, 1.5], "c": {"d": math.inf}}, path)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(path.read_text(), parse_constant=reject)
        assert payload["a"] == "-inf"
        assert payload["b"] == ["nan", 1.5]
        assert payload["c"] == {"d": "inf"}


class TestWitness:
    def test_decreasing_sup_error(self, tmp_path, capsys):
        out_path = tmp_path / "witness.csv"
        code, _, _ = run(
            capsys,
            "witness",
            "--a",
            "1.96",
            "--n",
            "10,100,1000,10000",
            "--out",
            str(out_path),
        )
        assert code == 0
        rows = out_path.read_text().strip().split("\n")
        assert rows[0] == "n,sup_error"
        errs = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(b < a for a, b in zip(errs, errs[1:]))


class TestBayes:
    def test_summary_and_grid(self, tmp_path, capsys):
        path, _ = simulate_file(tmp_path, capsys, seed=8, n=10)
        grid_path = tmp_path / "post.csv"
        code, out, _ = run(
            capsys,
            "bayes",
            str(path),
            *STEP_FLAGS,
            "--resolution",
            "80",
            "--out-grid",
            str(grid_path),
        )
        assert code == 0
        payload = json.loads(out)
        lo, hi = payload["theta0_interval"]
        assert -5 < lo < hi < 5
        rows = grid_path.read_text().strip().split("\n")
        assert rows[0] == "theta,tau,log_post"
        assert len(rows) == 1 + 80 * 80

    def test_grid_too_small_exit_2(self, tmp_path, capsys):
        path = tmp_path / "far.csv"
        path.write_text("effect,se\n" + "".join(f"{9.0 + i/100},0.1\n" for i in range(20)))
        code, _, err = run(
            capsys,
            "bayes",
            str(path),
            "--rho",
            "1",
            "--alpha",
            "0,1",
            "--theta-range=-1,1",
            "--tau-range",
            "0,0.5",
            "--resolution",
            "40",
        )
        assert code == 2
