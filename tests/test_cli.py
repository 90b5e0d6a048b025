import csv
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from magnon_gk import cli


def run(argv, capsys=None):
    code = cli.main(argv)
    return code


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def test_simulate_writes_files_and_meta(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run(["simulate", "--n", "8", "--coords", "deformation",
                "--t-end", "1", "--dt-out", "0.5", "--n-traj", "2",
                "--track", "bonds", "--seed", "3", "--out", "trajs"])
    assert code == 0
    meta = json.loads((tmp_path / "trajs" / "meta.json").read_text())
    assert len(meta["files"]) == 2
    assert "config_hash" in meta
    from magnon_gk.dynamics import continuity_residual, load_trajectory
    for f in meta["files"]:
        traj = load_trajectory(str(tmp_path / "trajs" / f))
        assert continuity_residual(traj) <= 1e-9


def test_simulate_same_seed_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["simulate", "--n", "8", "--coords", "deformation", "--t-end",
            "1", "--dt-out", "0.5", "--seed", "9"]
    assert run(args + ["--out", "a"]) == 0
    assert run(args + ["--out", "b"]) == 0
    fa = (tmp_path / "a" / "traj_00000.bin").read_bytes()
    fb = (tmp_path / "b" / "traj_00000.bin").read_bytes()
    assert fa == fb


def test_correlate_outputs_series(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(["simulate", "--n", "16", "--coords", "deformation", "--beta", "1",
         "--t-end", "8", "--dt-out", "0.5", "--n-traj", "12", "--seed", "7",
         "--out", "trajs"])
    code = run(["correlate", "--input", "trajs", "--out", "corr.csv",
                "--kappa-out", "kap.csv"])
    assert code == 0
    header, data = read_csv(tmp_path / "corr.csv")
    assert header == ["t", "value", "stderr"]
    # D(0) = 1/beta^2 within 3 SE
    assert abs(data[0, 1] - 1.0) <= 3 * data[0, 2]
    _, kap = read_csv(tmp_path / "kap.csv")
    assert np.all(np.isfinite(kap))


def test_correlate_missing_input_fails_with_json(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.chdir(tmp_path)
    code = run(["correlate", "--input", "nowhere"])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert set(err) == {"code", "message", "context"}


@pytest.mark.parametrize("direction", ["1", "-1"])
def test_correlate_rejects_a_direction_outside_the_lattice(
        tmp_path, monkeypatch, capsys, direction):
    # at d=1, 1 is past the last direction and -1 would alias to 0
    monkeypatch.chdir(tmp_path)
    run(["simulate", "--n", "8", "--coords", "deformation", "--t-end", "1",
         "--dt-out", "0.5", "--n-traj", "2", "--out", "trajs"])
    capsys.readouterr()
    code = run(["correlate", "--input", "trajs", "--direction", direction,
                "--out", "corr.csv", "--kappa-out", "kap.csv"])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["code"] == "SpecError" and "direction" in err["message"]
    assert not (tmp_path / "corr.csv").exists()
    assert not (tmp_path / "kap.csv").exists()


def test_correlate_direction_selects_both_series(tmp_path, monkeypatch):
    from magnon_gk.dynamics import load_trajectory
    from magnon_gk.greenkubo import estimate_correlation, estimate_kappa
    monkeypatch.chdir(tmp_path)
    run(["simulate", "--d", "2", "--n", "4", "--ensemble", "micro",
         "--t-end", "2", "--dt-out", "0.5", "--n-traj", "3", "--seed", "4",
         "--out", "trajs"])
    assert run(["correlate", "--input", "trajs", "--direction", "1",
                "--out", "corr.csv", "--kappa-out", "kap.csv"]) == 0
    meta = json.loads((tmp_path / "trajs" / "meta.json").read_text())
    trajs = [load_trajectory(str(tmp_path / "trajs" / f))
             for f in meta["files"]]
    gamma = trajs[0].spec.gamma
    want = estimate_kappa(trajs, a=1, b=1, e=1.0, gamma=gamma).values
    other = estimate_kappa(trajs, a=0, b=0, e=1.0, gamma=gamma).values
    _, kap = read_csv(tmp_path / "kap.csv")
    assert np.array_equal(kap[:, 1], want)
    assert not np.array_equal(kap[:, 1], other)
    corr = estimate_correlation(trajs, trajs[0].spec.nsites, 0.5, a=1)
    _, got = read_csv(tmp_path / "corr.csv")
    assert np.array_equal(got[:, 1], corr.values)


def test_closedform_slope_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run(["closedform", "--kind", "micro", "--b", "1", "--gamma", "1",
                "--tmin", "1e4", "--tmax", "1e6", "--points", "10",
                "--out", "k.csv", "--report", "r.json"])
    assert code == 0
    rep = json.loads((tmp_path / "r.json").read_text())
    assert abs(rep["slope"] - 0.25) < 0.03
    assert rep["schema"] == "closedform-report-2"
    assert 0.0 < rep["slope_stderr"] < 0.03 and "fit_residual" not in rep
    header, data = read_csv(tmp_path / "k.csv")
    assert header == ["t", "value", "err_est"]
    assert len(data) == 10
    # kappa does not depend on beta, E or a seed: no such flags are accepted
    for flag in ("--beta", "--e", "--seed"):
        with pytest.raises(SystemExit) as exc:
            run(["closedform", flag, "2"])
        assert exc.value.code == 2


@pytest.mark.parametrize("gamma", ["0", "-1"])
def test_closedform_rejects_nonpositive_gamma(tmp_path, monkeypatch, capsys,
                                              gamma):
    # the closed forms reject the rate before any quadrature is set up
    monkeypatch.chdir(tmp_path)
    code = run(["closedform", "--gamma", gamma, "--points", "8"])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["code"] == "ValueError"
    assert err["message"].startswith("gamma must be finite and > 0")
    assert not (tmp_path / "kappa_closed.csv").exists()


@pytest.mark.parametrize("args", [
    ["--kind", "canonical", "--d", "2", "--dstar", "3"],
    ["--dstar", "0"], ["--dstar", "1"], ["--d", "0"]],
    ids=["canonical-d2-dstar3", "dstar0", "dstar1-field", "d0"])
def test_closedform_rejects_dimensions_the_model_rejects(
        tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    code = run(["closedform", "--points", "8", *args])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["code"] == "ValueError"
    assert not (tmp_path / "kappa_closed.csv").exists()
    assert not (tmp_path / "closedform_report.json").exists()


@pytest.mark.parametrize("points", ["5", "0"])
def test_closedform_failed_fit_writes_nothing(tmp_path, monkeypatch, capsys,
                                              points):
    # the fit runs before any file is written
    monkeypatch.chdir(tmp_path)
    code = run(["closedform", "--tmin", "1e2", "--tmax", "1e3",
                "--points", points])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["code"] == "ValueError" and "8 points" in err["message"]
    assert not (tmp_path / "kappa_closed.csv").exists()
    assert not (tmp_path / "closedform_report.json").exists()


@pytest.mark.parametrize("flag,value", [("--tmin", "0"), ("--tmax", "-1"),
                                        ("--tmin", "inf")])
def test_closedform_rejects_a_bad_time_bound_by_name(
        tmp_path, monkeypatch, capsys, flag, value):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before logspace warns
        code = run(["closedform", flag, value, "--points", "8"])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["code"] == "ValueError"
    assert err["message"].startswith(f"{flag[2:]} must be finite and > 0")
    assert not (tmp_path / "kappa_closed.csv").exists()


def test_certify_passes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run(["certify", "--n", "6", "--samples", "400",
                "--out", "cert.json"])
    assert code == 0
    rep = json.loads((tmp_path / "cert.json").read_text())
    assert rep["pass"] and rep["resolvent"]["max_residual"] < 1e-10


def test_certify_rejects_fewer_than_two_samples(tmp_path, monkeypatch,
                                                capsys):
    # one sample has no standard error: before, NaN and a silent FAIL
    monkeypatch.chdir(tmp_path)
    assert run(["certify", "--n", "4", "--samples", "1",
                "--out", "cert.json"]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["code"] == "SpecError" and "samples" in err["message"]
    assert not (tmp_path / "cert.json").exists()


def test_certify_max_residual_covers_row_sums(tmp_path, monkeypatch):
    # the reduction's pass depends on row_sum, so the reported maximum must
    # cover it; raise one case's row_sum above every residual to see it
    from magnon_gk import resolvent
    real = resolvent.run_certification

    def raised(n):
        rep = real(n)
        rep["cases"][0]["row_sum"] = 0.5
        return rep

    monkeypatch.setattr(resolvent, "run_certification", raised)
    monkeypatch.chdir(tmp_path)
    run(["certify", "--n", "4", "--samples", "50", "--out", "cert.json"])
    got = json.loads((tmp_path / "cert.json").read_text())
    rows = [c["row_sum"] for c in raised(4)["cases"]]
    assert got["resolvent"]["max_residual"] >= max(rows) == 0.5


def test_sample_deterministic(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["sample", "--ensemble", "micro", "--n", "9", "--e", "2",
            "--samples", "1", "--seed", "5"]
    run(args + ["--out", "s1.csv"])
    run(args + ["--out", "s2.csv"])
    assert (tmp_path / "s1.csv").read_text() == \
        (tmp_path / "s2.csv").read_text()


def test_config_file_with_flag_override(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {"n": 9, "ensemble": "micro", "e": 2.0, "samples": 1, "seed": 4,
           "out": "from_cfg.csv"}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    code = run(["sample", "--config", "cfg.json", "--out", "override.csv"])
    assert code == 0
    assert os.path.exists(tmp_path / "override.csv")
    with open(tmp_path / "override.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert max(int(r["site"]) for r in rows) == 8  # n=9 from the config file
    # a flag passed at its parser default still overrides the file
    code = run(["sample", "--config", "cfg.json", "--n", "8", "--out",
                "default_flag.csv"])
    assert code == 0
    with open(tmp_path / "default_flag.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert max(int(r["site"]) for r in rows) == 7


@pytest.mark.parametrize("command,cfg,bad", [
    ("closedform", {"points": 3, "beta": 2.0}, "beta"),
    ("simulate", {"n": 8, "gama": 0.5}, "gama")])
def test_config_rejects_keys_that_are_not_flags(tmp_path, monkeypatch,
                                               capsys, command, cfg, bad):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run([command, "--config", "cfg.json"]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["code"] == "SpecError"
    assert bad in err["message"]


def test_config_accepts_tau_with_beta(tmp_path, monkeypatch):
    # tau has no flag; it shifts the canonical deformations by -tau
    monkeypatch.chdir(tmp_path)
    values = []
    for name, extra in (("plain", {}), ("tilted", {"tau": [0.5, 0.0]})):
        cfg = {"n": 8, "coords": "deformation", "out": f"{name}.csv", **extra}
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        assert run(["sample", "--config", f"{name}.json"]) == 0
        with open(tmp_path / f"{name}.csv") as fh:
            values.append(np.array([[float(r["component"]), float(r["value"])]
                                    for r in csv.DictReader(fh)
                                    if r["field"] == "pos"]))
    shift = values[1][:, 1] - values[0][:, 1]
    assert np.allclose(shift, np.where(values[0][:, 0] == 0, -0.5, 0.0),
                       atol=1e-12)


@pytest.mark.parametrize("tau", ["ab", [0.5]])
def test_config_rejects_a_malformed_tau(tmp_path, monkeypatch, capsys, tau):
    # a string or a tilt of the wrong length is a JSON error, exit 1
    monkeypatch.chdir(tmp_path)
    cfg = {"n": 8, "coords": "deformation", "out": "s.csv", "tau": tau}
    (tmp_path / "bad.json").write_text(json.dumps(cfg))
    assert run(["sample", "--config", "bad.json"]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["code"] == "SpecError" and "tau" in err["message"]
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("extra,name", [
    ({"coords": "deformation", "beta": float("nan")}, "beta"),
    ({"ensemble": "micro", "e": float("inf")}, "e"),
    ({"b": float("nan")}, "b"),
    ({"gamma": float("inf")}, "gamma")])
def test_sample_rejects_non_finite_parameters(tmp_path, monkeypatch, capsys,
                                              extra, name):
    # before, beta = NaN wrote rows of NaN and exited 0
    monkeypatch.chdir(tmp_path)
    cfg = {"n": 8, "out": "s.csv", **extra}
    (tmp_path / "bad.json").write_text(json.dumps(cfg))
    assert run(["sample", "--config", "bad.json"]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["code"] == "SpecError"
    assert err["message"].startswith(f"{name} must be finite")
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("flag,value,name", [
    ("--t-end", "inf", "t_end"), ("--t-end", "nan", "t_end"),
    ("--dt-out", "nan", "dt_out")])
def test_simulate_rejects_non_finite_times_by_name(tmp_path, monkeypatch,
                                                   capsys, flag, value, name):
    # before, --t-end inf ended in an OverflowError traceback
    monkeypatch.chdir(tmp_path)
    code = run(["simulate", "--ensemble", "micro", flag, value,
                "--out", "trajs"])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["code"] == "SpecError"
    assert err["message"].startswith(f"{name} must be finite")
    assert not (tmp_path / "trajs" / "traj_00000.bin").exists()


def test_thread_cap_is_set_before_numpy_loads():
    # record the pool variables at the moment numpy is first imported
    probe = """
import importlib.abc, json, os, sys
seen = {}
class Spy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({v: os.environ.get(v) for v in VARS})
sys.meta_path.insert(0, Spy())
import magnon_gk.cli
print(json.dumps(seen))
"""
    pools = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in pools}
    env["MAGNON_GK_THREADS"] = "3"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    res = subprocess.run(
        [sys.executable, "-c", probe.replace("VARS", repr(pools))],
        env=env, capture_output=True, text=True, check=True)
    seen = json.loads(res.stdout)
    assert seen == {v: "3" for v in pools}


def test_invalid_model_reports_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run(["sample", "--n", "2"])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "n" in err["message"]
