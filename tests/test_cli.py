import json
import subprocess
import sys

import numpy as np
import pytest

from curvlab.cli import run
from curvlab.serialization import read_tensor, tensor_to_json, trace_from_csv, write_tensor
from curvlab.tensors import pad_euclidean, product, random_tensor, sphere


def _write(tmp_path, name, tensor):
    path = tmp_path / name
    write_tensor(str(path), tensor)
    return str(path)


def _strip_timestamp(text):
    return "\n".join(line for line in text.splitlines() if '"timestamp"' not in line)


def test_model_sphere_writes_identical_json(tmp_path):
    out = tmp_path / "s.json"
    code = run(["model", "--kind", "sphere", "--n", "4", "--kappa", "0.5", "--out", str(out)])
    assert code == 0
    assert out.read_text() == tensor_to_json(sphere(4, 0.5))


def test_model_product_pad_random(tmp_path, monkeypatch):
    f1 = _write(tmp_path, "f1.json", sphere(2, 1.0))
    f2 = _write(tmp_path, "f2.json", sphere(2, 2.0))
    out = tmp_path / "prod.json"
    assert run(["model", "--kind", "product", "--factor", f1, "--factor", f2, "--out", str(out)]) == 0
    got = read_tensor(str(out))
    assert np.array_equal(got.comps, product(sphere(2, 1.0), sphere(2, 2.0)).comps)

    padded = tmp_path / "pad.json"
    assert run(["model", "--kind", "pad", "--tensor", str(out), "--k", "1", "--out", str(padded)]) == 0
    assert read_tensor(str(padded)).n == 5
    assert np.array_equal(read_tensor(str(padded)).comps, pad_euclidean(got, 1).comps)

    monkeypatch.setenv("CURVLAB_SEED", "7")
    rnd = tmp_path / "rnd.json"
    assert run(["model", "--kind", "random", "--n", "5", "--out", str(rnd)]) == 0
    assert np.array_equal(read_tensor(str(rnd)).comps, random_tensor(7, 5).comps)


def test_bad_env_seed_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CURVLAB_SEED", "banana")
    out = tmp_path / "x.json"
    assert run(["model", "--kind", "random", "--out", str(out)]) == 2
    assert "CURVLAB_SEED" in capsys.readouterr().err


def test_negative_seed_is_usage_error(tmp_path, monkeypatch, capsys):
    path = _write(tmp_path, "s.json", sphere(4, 1.0))
    commands = (
        ["check", "--condition", "nic", "--tensor", path, "--restarts", "2"],
        ["minimize", "--objective", "sectional", "--tensor", path, "--restarts", "2"],
        ["flow", "--tensor", path, "--t-end", "0.01", "--restarts", "2"],
    )
    for argv in commands:
        assert run(argv + ["--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--seed must be a nonnegative integer, got -1" in captured.err
    monkeypatch.setenv("CURVLAB_SEED", "-3")
    for argv in commands:
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "CURVLAB_SEED must be a nonnegative integer, got -3" in captured.err


def test_check_nic_on_sphere(tmp_path, capsys):
    path = _write(tmp_path, "s.json", sphere(4, 1.0))
    code = run(["check", "--condition", "nic", "--tensor", path, "--restarts", "4", "--seed", "3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["condition"] == "nic"
    assert report["decision"] is True
    assert report["boundary"] is False
    assert report["min_value"] == pytest.approx(4.0, abs=1e-8)
    assert report["seed"] == 3
    assert report["margin"] == 1e-7
    assert len(report["frame"]) == 4


def test_check_pic2_sphere_sits_on_boundary(tmp_path, capsys):
    path = _write(tmp_path, "s.json", sphere(4, 1.0))
    code = run(["check", "--condition", "pic2", "--tensor", path, "--restarts", "4"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["decision"] is True
    assert report["boundary"] is True
    assert abs(report["min_value"]) <= 1e-7
    assert report["restarts"] == 4
    assert report["lower_bound"] == 0.0 and report["certified"] is True
    assert set(report) == {
        "boundary", "certified", "condition", "converged", "decision", "frame", "grad_norm",
        "lower_bound", "margin", "min_value", "n", "restarts", "seed", "timestamp",
    }
    assert len(report["frame"]) == 4 and len(report["frame"][0]) == 6
    # the sphere's (0, 0) family value K13 = 1 bounds the padded minimum from above
    code = run(["minimize", "--objective", "lambda-mu", "--tensor", path,
                "--lambda", "0", "--mu", "0", "--restarts", "4"])
    k13 = json.loads(capsys.readouterr().out)["min_value"]
    assert code == 0
    assert k13 == pytest.approx(1.0, abs=1e-7)
    assert report["min_value"] <= k13 + 1e-9


def test_check_quarter_pinch_product_fails(tmp_path, capsys):
    path = _write(tmp_path, "p.json", product(sphere(2, 1.0), sphere(2, 1.0)))
    code = run(["check", "--condition", "quarter-pinch", "--tensor", path, "--restarts", "8"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["decision"] is False
    assert abs(report["min_value"]) <= 1e-7
    assert report["kmax"] == pytest.approx(1.0, abs=1e-7)
    # Thorpe's bounds are exact at n = 4: Kmin >= 0 and Kmax <= 1
    assert report["lower_bound"] == pytest.approx(0.0, abs=1e-12)
    assert report["kmax_upper_bound"] == pytest.approx(1.0, abs=1e-12)
    assert report["certified"] is True and "weights" not in report


def test_minimize_lambda_mu(tmp_path, capsys):
    path = _write(tmp_path, "s.json", sphere(4, 1.0))
    code = run(
        ["minimize", "--objective", "lambda-mu", "--tensor", path,
         "--lambda", "0.5", "--mu", "0.5", "--restarts", "4"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["min_value"] == pytest.approx(25.0 / 16.0, abs=1e-8)
    assert report["weights"] == {"lam": 0.5, "mu": 0.5}
    assert report["converged"] is True
    # the weighted Ky Fan bound (1 + lam^2)(1 + mu^2) is exact on the sphere
    assert report["lower_bound"] == pytest.approx(25.0 / 16.0, abs=1e-12) and report["certified"] is True

    assert run(["minimize", "--objective", "lambda-mu", "--tensor", path]) == 2
    assert "--lambda" in capsys.readouterr().err
    # the weights apply to lambda-mu only, and are refused elsewhere
    for objective in ("isotropic", "sectional"):
        assert run(["minimize", "--objective", objective, "--tensor", path, "--lambda", "0.5", "--mu", "0.2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "apply only to --objective lambda-mu" in captured.err


def test_minimize_sectional_product(tmp_path, capsys):
    path = _write(tmp_path, "p.json", product(sphere(2, 1.0), sphere(2, 1.0)))
    code = run(["minimize", "--objective", "sectional", "--tensor", path, "--restarts", "8"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(report["min_value"]) <= 1e-8
    assert report["weights"] is None
    assert report["lower_bound"] == pytest.approx(0.0, abs=1e-12)
    assert report["certified"] is True and report["converged"] is True


def test_identity_batteries_pass(capsys):
    for suite in ("lift", "cyclic", "decomposition"):
        code = run(["identity", "--suite", suite, "--trials", "10", "--seed", "1"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0, suite
        assert report["passed"] is True
        assert report["max_residual"] < report["tolerance"]
        assert report["trials"] == 10


def test_flow_csv_and_report(tmp_path, capsys):
    path = _write(tmp_path, "s.json", sphere(4, 1.0))
    code = run(["flow", "--tensor", path, "--t-end", "0.02", "--restarts", "2"])
    text = capsys.readouterr().out
    assert code == 0
    assert text.splitlines()[0] == "t,kmin,kmax,min_iso,min_pic2,scalar,dt,err_est"
    trace = trace_from_csv(text)
    assert trace.rows[0].t == 0.0
    assert trace.rows[-1].t == pytest.approx(0.02, abs=1e-12)
    assert trace.rows[0].scalar == pytest.approx(12.0, abs=1e-10)

    out = tmp_path / "trace.csv"
    assert run(["flow", "--tensor", path, "--t-end", "0.02", "--restarts", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["report", "--trace", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["rows"] == len(trace.rows)
    assert summary["t_last"] == pytest.approx(0.02, abs=1e-12)
    assert summary["scalar_first"] == pytest.approx(12.0, abs=1e-10)
    assert summary["min_iso"] > 0.0


def test_flow_past_blowup_exits_one(tmp_path, capsys):
    path = _write(tmp_path, "s.json", sphere(4, 1.0))
    code = run(
        ["flow", "--tensor", path, "--t-end", "0.3", "--dt", "0.005",
         "--fixed-step", "--stride", "100000"]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("curvlab:")


def test_error_limited_flow_into_a_blowup_exits_one(tmp_path):
    # CP^2 at c = 4 blows up at t = 1/12.  The error test scales with the
    # state, so the steps toward the singularity stay long enough to reach
    # the blow-up cap; under an absolute test they shrank without end.
    path = str(tmp_path / "cp2.json")
    assert run(["model", "--kind", "cpm", "--m", "2", "--c", "4", "--out", path]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "curvlab", "flow", "--tensor", path, "--t-end", "0.1", "--stride", "1000000000"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("curvlab: blow-up at t = 0.0833333")


def test_step_underflow_exits_one(tmp_path, capsys, monkeypatch):
    import curvlab.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("step size underflow at t = 0.1")

    monkeypatch.setattr(cli_mod, "integrate", boom)
    path = _write(tmp_path, "s.json", sphere(4, 1.0))
    assert run(["flow", "--tensor", path, "--t-end", "0.2"]) == 1
    assert "underflow" in capsys.readouterr().err


def test_reports_are_deterministic_modulo_timestamp(tmp_path, capsys):
    path = _write(tmp_path, "s.json", sphere(4, 1.0))
    argv = ["check", "--condition", "nic", "--tensor", path, "--restarts", "4", "--seed", "9"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert _strip_timestamp(first) == _strip_timestamp(second)
    assert '"timestamp"' in first


def test_usage_and_io_errors(tmp_path, capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["--help"]) == 0
    capsys.readouterr()

    assert run(["check", "--condition", "nic", "--tensor", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 4}')
    assert run(["check", "--condition", "nic", "--tensor", str(bad)]) == 2
    bad.write_text('{"n": 2, "components": [{}' + ", 1" * 15 + "]}")
    assert run(["check", "--condition", "nic", "--tensor", str(bad)]) == 2
    f1 = _write(tmp_path, "f1.json", sphere(2, 1.0))
    assert run(["model", "--kind", "product", "--factor", f1, "--out", str(tmp_path / "o.json")]) == 2
    for trials in ("0", "-5"):
        assert run(["identity", "--suite", "lift", "--trials", trials]) == 2
    assert run(["check", "--condition", "nic", "--tensor", f1, "--margin", "nan"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "curvlab:" in err
    assert "margin" in err and "--trials" in err


def test_module_entry_point(tmp_path):
    out = tmp_path / "s.json"
    proc = subprocess.run(
        [sys.executable, "-m", "curvlab", "model", "--kind", "sphere", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert read_tensor(str(out)).n == 4
