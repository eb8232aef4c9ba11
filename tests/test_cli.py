import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import kdentangle as ke
from kdentangle import cli, entanglement

RUN = [sys.executable, "-m", "kdentangle"]
# the child imports the package this session imported, installed or not
SRC = str(Path(ke.__file__).resolve().parent.parent)


def run_cli(*args, cwd=None):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        RUN + list(args), capture_output=True, text=True, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
    )


def strip_timing(text: str) -> str:
    return re.sub(r'"wall_time_s": [0-9.e-]+', '"wall_time_s": X', text)


def test_kd_dist_bell(tmp_path):
    out = tmp_path / "table.csv"
    res = run_cli("kd-dist", "--builtin", "bell", "--basis-a", "computational",
                  "--basis-y", "computational", "--out", str(out))
    assert res.returncode == 0
    assert "nonreality: 0" in res.stdout
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    cells = {(r["x"], r["y"]): (float(r["re"]), float(r["im"])) for r in rows}
    assert cells[("0", "0")] == (0.5, 0.0)
    assert cells[("1", "3")] == (0.5, 0.0)
    assert all(v == (0.0, 0.0) for k, v in cells.items()
               if k not in (("0", "0"), ("1", "3")))


def test_kd_dist_bad_dims_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dims": [2], "kind": "pure", "data": []}))
    res = run_cli("kd-dist", "--state", str(path))
    assert res.returncode == 2
    assert "dims" in res.stderr


def test_kd_dist_reconstruct_singular(tmp_path):
    res = run_cli("kd-dist", "--builtin", "bell", "--reconstruct",
                  "--out", str(tmp_path / "t.csv"))
    assert res.returncode == 3


def test_kd_dist_reconstruct_roundtrip(tmp_path):
    res = run_cli("kd-dist", "--builtin", "bell", "--reconstruct",
                  "--basis-y", "random:3", "--out", str(tmp_path / "t.csv"))
    assert res.returncode == 0
    m = re.search(r"reconstruction trace distance: ([0-9.e-]+)", res.stdout)
    assert m and float(m.group(1)) <= 1e-8


def test_pure_bell_report():
    res = run_cli("pure", "--builtin", "bell")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["value"] == 1.0
    assert report["concurrence"] == 1.0


def test_pure_accepts_rank_one_density(tmp_path):
    path = tmp_path / "state.json"
    ke.save_state(ke.bell_state().density(), path)
    res = run_cli("pure", "--state", str(path))
    assert res.returncode == 0
    assert json.loads(res.stdout)["value"] == 1.0


def test_pure_rejects_mixed_density(tmp_path):
    path = tmp_path / "state.json"
    ke.save_state(ke.werner_state(0.5), path)
    res = run_cli("pure", "--state", str(path))
    assert res.returncode == 2
    assert "pure" in res.stderr


def test_mixed_werner_half():
    res = run_cli("mixed", "--builtin", "werner:0.5", "--restarts", "16",
                  "--terms", "4")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert abs(report["normalized"] - 0.25) <= 2e-3
    assert abs(sum(report["probabilities"]) - 1.0) < 1e-9


def test_mixed_reports_searched_terms(capsys):
    # rank 1, so the default decomposition size is min(2 * 1, 16) = 2, and
    # the only decomposition is not searched
    assert cli.main(["mixed", "--builtin", "bell", "--restarts", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["terms"] == 2
    assert abs(report["normalized"] - 1.0) < 1e-12
    assert report["diagnostics"]["iterations"] == 0


def test_mixed_rejects_terms_above_cap(capsys):
    assert cli.main(["mixed", "--builtin", "werner:0.5", "--terms", "100"]) == 2
    assert "terms 100 above the cap" in capsys.readouterr().err


def test_mixed_rejects_non_finite_tol(capsys):
    assert cli.main(["mixed", "--builtin", "werner:0.5", "--restarts", "1",
                     "--terms", "4", "--tol", "nan"]) == 2
    assert "tol must be positive and finite" in capsys.readouterr().err


def test_bounds_rejects_side_above_pattern_cap(monkeypatch, capsys):
    def no_patterns(d):
        raise AssertionError(f"sign patterns built for d={d}")

    monkeypatch.setattr(entanglement, "_sign_patterns", no_patterns)
    assert cli.main(["bounds", "--builtin", "product", "--dims", "2x32"]) == 2
    assert "above the sign-pattern cap" in capsys.readouterr().err


def test_bounds_maximally_mixed():
    res = run_cli("bounds", "--builtin", "werner:0.0", "--restarts", "4")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["lower"] <= 1e-8
    assert abs(report["upper"] - 1.0) < 1e-9
    assert report["certified_lower"] == 0.0


def test_isotropic_builtin(capsys):
    assert cli.main(["bounds", "--builtin", "isotropic:2:0.7", "--restarts", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["certified_lower"] - 0.4 / np.sqrt(2)) < 1e-11
    for spec in ("isotropic:3:1.5", "isotropic:1:0.5", "isotropic:9:0.5"):
        assert cli.main(["bounds", "--builtin", spec]) == 2
        assert "error:" in capsys.readouterr().err


def test_verify_lemma1():
    res = run_cli("verify", "--suite", "lemma1", "--seed", "7")
    assert res.returncode == 0
    assert "lemma1: PASS" in res.stdout


def test_verify_failure_exit_code():
    # the mixed-state lower-bound suite documents a disproven inequality and
    # reports FAIL; the command must exit 1
    res = run_cli("verify", "--suite", "prop5", "--count", "4")
    assert res.returncode == 1
    assert "prop5: FAIL" in res.stdout


def test_optimizer_failure_exit_code(monkeypatch):
    from kdentangle import cli
    from kdentangle.errors import OptimizerFailed

    def boom(*args, **kwargs):
        raise OptimizerFailed("simulated bound violation")

    monkeypatch.setattr(cli, "mixed_entanglement", boom)
    code = cli.main(["mixed", "--builtin", "werner:0.5"])
    assert code == 4


def test_verify_dims_cap():
    res = run_cli("verify", "--suite", "prop2", "--dims", "5x5")
    assert res.returncode == 2
    assert "dims" in res.stderr


def test_verify_unknown_suite():
    res = run_cli("verify", "--suite", "nonsense")
    assert res.returncode == 2


def test_weak_sim_bell(tmp_path):
    res = run_cli("weak-sim", "--builtin", "bell", "--shots", "100000",
                  "--records", str(tmp_path / "rec.csv"))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert abs(report["estimate"] - 1.0) <= 5 * 4 / np.sqrt(100000)
    with open(tmp_path / "rec.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert sum(int(r["count"]) for r in rows) == 4 * 100000


def test_weak_sim_shot_floor(tmp_path):
    res = run_cli("weak-sim", "--builtin", "bell", "--shots", "10",
                  "--records", str(tmp_path / "rec.csv"))
    assert res.returncode == 2


def test_weak_sim_reports_search_diagnostics(tmp_path, capsys):
    records = tmp_path / "rec.csv"
    assert cli.main(["weak-sim", "--builtin", "bell", "--shots", "1000",
                     "--restarts", "1", "--records", str(records)]) == 0
    diag = json.loads(capsys.readouterr().out)["diagnostics"]
    assert list(diag) == ["restarts", "best_start", "iterations", "converged"]
    assert diag["restarts"] == 1
    assert diag["best_start"] in ("identity", "warm", "restart0")
    assert diag["iterations"] > 0
    assert isinstance(diag["converged"], bool)


def test_weak_sim_rejects_shots_beyond_int64(tmp_path, capsys):
    records = tmp_path / "rec.csv"
    assert cli.main(["weak-sim", "--builtin", "bell", "--shots", str(2**63),
                     "--records", str(records)]) == 2
    assert "exceed the int64 count cap" in capsys.readouterr().err
    assert not records.exists()


def test_weak_sim_rejects_mixed(tmp_path):
    path = tmp_path / "state.json"
    ke.save_state(ke.werner_state(0.5), path)
    res = run_cli("weak-sim", "--state", str(path), "--shots", "10000",
                  "--records", str(tmp_path / "rec.csv"))
    assert res.returncode == 2


def test_outputs_deterministic(tmp_path):
    # werner:0.3 has maximally mixed marginals, so its searches warm from a
    # degenerate eigenbasis
    for args in (("pure", "--builtin", "random-pure:9", "--dims", "2x3"),
                 ("bounds", "--builtin", "werner:0.3")):
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == 0
        assert strip_timing(a.stdout) == strip_timing(b.stdout)

    runs = []
    for name in ("a.csv", "b.csv"):
        res = run_cli("weak-sim", "--builtin", "bell", "--shots", "20000",
                      "--records", name, cwd=str(tmp_path))
        assert res.returncode == 0
        runs.append(strip_timing(res.stdout).replace(name, "RECORDS"))
    assert runs[0] == runs[1]
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_state_and_builtin_conflict():
    res = run_cli("pure", "--state", "x.json", "--builtin", "bell")
    assert res.returncode == 2


def test_unknown_builtin():
    res = run_cli("pure", "--builtin", "glome")
    assert res.returncode == 2
