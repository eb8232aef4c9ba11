import csv
import dataclasses
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kdentangle as ke
from kdentangle import cli, entanglement, optimize, states, verify, weakvalue
from kdentangle.errors import OptimizerFailed

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


def test_kd_dist_json_format(tmp_path, capsys):
    out = tmp_path / "table.json"
    assert cli.main(["kd-dist", "--builtin", "bell", "--format", "json",
                     "--out", str(out)]) == 0
    assert f"table: {out}" in capsys.readouterr().out
    cells = json.loads(out.read_text())
    # the marginal table of a 2x2 state: 2 first-basis by 4 second-basis cells
    assert [(c["x"], c["y"]) for c in cells] == [(x, y) for x in range(2) for y in range(4)]
    assert sum(c["re"] for c in cells) == 1.0
    assert all(c["im"] == 0.0 for c in cells)


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


def test_pure_csv_format(capsys):
    assert cli.main(["pure", "--builtin", "bell", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "field,value"
    assert "value,1.0" in lines
    assert lines[1] == 'command,"pure"'


def test_pure_accepts_rank_one_density(tmp_path):
    path = tmp_path / "state.json"
    ke.save_state(ke.bell_state().density(), path)
    res = run_cli("pure", "--state", str(path))
    assert res.returncode == 0
    assert json.loads(res.stdout)["value"] == 1.0


def test_pure_and_mixed_print_one_normalized(tmp_path, capsys):
    # the Bell state embedded in 3x3 has Schmidt rank 2, below min(dA, dB) = 3:
    # both commands divide its value 1 by sqrt(3 - 1)
    bell = np.zeros((3, 3), dtype=complex)
    bell[0, 0] = bell[1, 1] = 1 / np.sqrt(2)
    path = tmp_path / "bell33.json"
    ke.save_state(ke.BipartitePureState(ke.BipartiteDims(3, 3), bell.ravel()), path)
    printed = {}
    for command in ("pure", "mixed"):
        assert cli.main([command, "--state", str(path)]) == 0
        printed[command] = json.loads(capsys.readouterr().out)
    assert printed["pure"]["normalized"] == printed["mixed"]["normalized"] == 0.707106781187
    assert printed["pure"]["concurrence"] == 0.866025403784


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


def test_mixed_rank_one_with_one_term(capsys):
    # terms equal to the rank is a valid request, even with one term
    assert cli.main(["mixed", "--builtin", "bell", "--terms", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["value"] == 1.0
    assert report["terms"] == 1
    assert report["probabilities"] == [1.0]
    assert report["diagnostics"]["iterations"] == 0


def test_mixed_rejects_terms_above_cap(capsys):
    assert cli.main(["mixed", "--builtin", "werner:0.5", "--terms", "100"]) == 2
    assert "terms 100 above the cap" in capsys.readouterr().err


@pytest.mark.parametrize("terms", [[], ["--terms", "16"], ["--terms", "30"]])
def test_mixed_rejects_rank_above_cap(terms, capsys):
    # a full-rank 5x5 state has no decomposition of at most 16 terms: its rank
    # is named whatever --terms reads, and no search starts
    assert cli.main(["mixed", "--builtin", "isotropic:5:0.5", *terms]) == 2
    assert "state rank 25 above the terms cap 16" in capsys.readouterr().err


def test_mixed_rejects_restarts_above_cap(tmp_path, monkeypatch, capsys):
    # the restarts and the seed are checked before any start runs, so 10^9
    # restarts never reach the search, and a negative seed is named as the
    # fault by every command, instead of failing in numpy after the first
    # start, blaming a state spec or being echoed in a report
    def no_search(*args, **kwargs):
        raise AssertionError("a start ran")

    monkeypatch.setattr(optimize, "_scipy_minimize", no_search)
    monkeypatch.chdir(tmp_path)  # kd-dist would write its table here
    negative_seed = "seed must be >= 0, got -1"
    for argv, message in (
        (["mixed", "--builtin", "werner:0.5", "--restarts", "1000000000"],
         f"restarts must be in [1, {optimize.RESTART_CAP}]"),
        (["mixed", "--builtin", "werner:0.5", "--seed", "-1", "--restarts", "2"],
         negative_seed),
        (["bounds", "--builtin", "werner:0.5", "--seed", "-1"], negative_seed),
        (["weak-sim", "--builtin", "bell", "--seed", "-1"], negative_seed),
        (["verify", "--seed", "-1"], negative_seed),
        (["pure", "--builtin", "random-pure", "--seed", "-1"], negative_seed),
        (["kd-dist", "--builtin", "random-pure", "--seed", "-1"], negative_seed),
        (["pure", "--builtin", "bell", "--seed", "-1"], negative_seed),
    ):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, module, name, preset", [
    (["mixed", "--builtin", "werner:0.5"], cli, "mixed_entanglement",
     entanglement.ROOF_SEARCH),
    (["bounds", "--builtin", "werner:0.5"], cli, "bounds_report",
     entanglement.ASYMMETRY_SEARCH),
    (["weak-sim", "--builtin", "bell"], weakvalue, "sampled_entanglement",
     weakvalue.SAMPLED_SEARCH),
], ids=["mixed", "bounds", "weak-sim"])
@pytest.mark.parametrize("restarts", [None, 3], ids=["default", "restarts-3"])
def test_searches_run_with_the_library_presets(argv, module, name, preset, restarts,
                                               monkeypatch):
    # the CLI changes nothing of a search's preset but what its options set
    seen = []

    def capture(*args, **kwargs):
        seen.append(next(a for a in args if isinstance(a, optimize.OptimizerConfig)))
        raise OptimizerFailed("captured")

    monkeypatch.setattr(module, name, capture)
    extra = [] if restarts is None else ["--restarts", str(restarts)]
    assert cli.main([*argv, "--seed", "5", *extra]) == 4
    expected = dataclasses.replace(preset, seed=5)
    if restarts is not None:
        expected = dataclasses.replace(expected, restarts=restarts)
    assert seen == [expected]


def test_bounds_rejects_side_above_pattern_cap(monkeypatch, capsys):
    def no_plus_sets(d):
        raise AssertionError(f"+ sets built for d={d}")

    monkeypatch.setattr(entanglement, "_plus_sets", no_plus_sets)
    assert cli.main(["bounds", "--builtin", "product", "--dims", "2x32"]) == 2
    assert "above the sign-pattern cap" in capsys.readouterr().err


def test_bounds_maximally_mixed():
    res = run_cli("bounds", "--builtin", "werner:0.0", "--restarts", "4")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["lower"] <= 1e-8
    assert abs(report["upper"] - 1.0) < 1e-9
    assert report["certified_lower"] == 0.0


def test_readme_bounds_report(capsys):
    # the README line's full report, field for field and in order
    assert cli.main(["bounds", "--builtin", "werner:0.0"]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["wall_time_s"]
    assert list(report.items()) == [
        ("command", "bounds"), ("dims", [2, 2]), ("lower", 0.0), ("upper", 1.0),
        ("lower_swapped", 0.0), ("upper_swapped", 1.0), ("best_lower", 0.0),
        ("best_upper", 1.0), ("certified_lower", 0.0), ("seed", 0), ("restarts", 8),
    ]


@pytest.mark.parametrize("spec, upper", [("werner:0.0", 1.0), ("product", 0.0)])
def test_zero_valued_bounds_run_no_descent(spec, upper, monkeypatch, capsys):
    # both sides' asymmetry searches start on a basis that scores 0, their
    # floor, so no descent runs; the report is the full search's
    def no_descent(*args, **kwargs):
        raise AssertionError("a descent ran")

    monkeypatch.setattr(optimize, "_scipy_minimize", no_descent)
    assert cli.main(["bounds", "--builtin", spec]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [report[key] for key in ("lower", "upper", "lower_swapped", "upper_swapped",
                                    "best_lower", "best_upper", "certified_lower")] == [
        0.0, upper, 0.0, upper, 0.0, upper, 0.0]


@pytest.mark.parametrize("delta", [4e-11, 9e-11])
def test_bounds_near_pure_state(delta, tmp_path, capsys):
    # an accepted state whose A marginal has the eigenvalue delta, which the
    # square root makes sqrt(delta), while its B marginal is pure: the two
    # sides' entropies differ by far more than roundoff
    rho = ke.DensityOperator(ke.BipartiteDims(2, 2), np.diag([1 - delta, 0, delta, 0]))
    report = ke.bounds_report(rho, ke.OptimizerConfig(restarts=1, max_iters=50))
    assert abs(report.upper - 2 * np.sqrt(delta * (1 - delta))) < 1e-12
    assert report.upper_swapped == 0.0
    path = tmp_path / "near_pure.json"
    ke.save_state(rho, path)
    assert cli.main(["bounds", "--state", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "bounds"


def test_isotropic_builtin(capsys):
    assert cli.main(["bounds", "--builtin", "isotropic:2:0.7", "--restarts", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    # the exact roof 2F - 1 of the two-qubit isotropic state
    assert abs(report["certified_lower"] - 0.4) < 1e-11
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


def test_missing_state_file_is_input_error(tmp_path, capsys):
    assert cli.main(["pure", "--state", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("data, message", [
    ("[[{}, 0], [0, 0], [0, 0], [0, 0]]", "pairs of numbers"),
    ("[[-1" + "0" * 400 + ", 0], [0, 0], [0, 0], [0, 0]]", "pairs of numbers"),
    ("[" * 100_000 + "]" * 100_000, "too deeply"),
    ('[["1", 0], [0, 0], [0, 0], [0, 0]]', "pairs of numbers"),
    ("[[true, 0], [0, 0], [0, 0], [0, 0]]", "pairs of numbers"),
], ids=["dict-entry", "integer-beyond-float", "nested-100000-deep", "string-leaf",
        "boolean-leaf"])
def test_malformed_state_data_is_input_error(data, message, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text('{"dims": [2, 2], "kind": "pure", "data": ' + data + "}")
    assert cli.main(["pure", "--state", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("data, message", [
    ("[[[1, 0], [{}, 0]], [[0, 0], [1, 0]]]", "pairs of numbers"),
    ("[[[1, 0], [0, 0]], [[0, 0], [-1" + "0" * 400 + ", 0]]]", "pairs of numbers"),
    ("[" * 100_000 + "]" * 100_000, "too deeply"),
    ('[[[1, 0], ["0", 0]], [[0, 0], [1, 0]]]', "pairs of numbers"),
    ("[[[true, 0], [0, 0]], [[0, 0], [1, 0]]]", "pairs of numbers"),
], ids=["dict-entry", "integer-beyond-float", "nested-100000-deep", "string-leaf",
        "boolean-leaf"])
def test_malformed_basis_file_is_input_error(data, message, tmp_path, capsys):
    path = tmp_path / "basis.json"
    path.write_text(data)
    assert cli.main(["kd-dist", "--builtin", "bell", "--basis-a", str(path),
                     "--out", str(tmp_path / "table.csv")]) == 2
    assert message in capsys.readouterr().err


def basis_grid(kets) -> list:
    """The basis-file form of ``kets``: one row of ``[re, im]`` pairs per ket."""
    return [[[float(z.real), float(z.imag)] for z in ket] for ket in kets]


def test_basis_file_within_tolerance_is_repaired(tmp_path):
    kets = states.haar_unitary(3, 5).T.copy()
    kets[0] *= 1 + 5e-10  # the Gram matrix is off by 1e-9, inside the 1e-8 tolerance
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(basis_grid(kets)))
    basis = states.make_basis(str(path), 3)
    assert np.abs(basis.conj().T @ basis - np.eye(3)).max() < 1e-14
    assert np.abs(basis - kets.T).max() < 1e-8


@pytest.mark.parametrize("dim, stretch, message", [
    (2, 5e-7, "not orthonormal within 1e-08"),
    (3, 0.0, "basis dimension 3 != expected 2"),
], ids=["off-by-1e-6", "wrong-dimension"])
def test_basis_file_off_tolerance_or_dimension_is_input_error(dim, stretch, message,
                                                             tmp_path, capsys):
    kets = states.haar_unitary(dim, 5).T.copy()
    kets[0] *= 1 + stretch
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(basis_grid(kets)))
    assert cli.main(["kd-dist", "--builtin", "bell", "--basis-a", str(path),
                     "--out", str(tmp_path / "table.csv")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, spec", [
    (["pure", "--builtin", "bell:7"], "bell:7"),
    (["pure", "--builtin", "product:3"], "product:3"),
    (["kd-dist", "--builtin", "bell", "--basis-a", "computational:9"], "computational:9"),
    (["kd-dist", "--builtin", "bell", "--basis-y", "fourier:2"], "fourier:2"),
], ids=["bell:7", "product:3", "computational:9", "fourier:2"])
def test_argumentless_spec_rejects_an_argument(argv, spec, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # kd-dist writes its table here
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{spec!r}" in err and "takes no argument" in err


@pytest.mark.parametrize("spec", ["random:-1", "random:1.5"])
def test_bad_random_basis_seed_names_its_spec(spec, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["kd-dist", "--builtin", "bell", "--basis-y", spec]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"bad seed in basis spec {spec!r}" in err


json_scalars = (st.none() | st.booleans() | st.floats() | st.text(max_size=4) | st.integers()
                | st.integers(0, 400).map(lambda e: -10**e))


def json_containers(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3)


json_values = st.recursive(json_scalars, json_containers, max_leaves=20)
amplitude_pairs = st.lists(st.lists(st.floats(-1.5, 1.5) | json_values, min_size=1, max_size=3),
                           max_size=9)
SAVED_STATES = (ke.bell_state(), ke.bell_state().density(), ke.werner_state(0.5),
                ke.haar_pure(ke.BipartiteDims(2, 3), 1))


def edit_a_node(draw, parent, key):
    """Leave ``parent[key]`` whole, or replace it or one node nested in its
    lists by any JSON value."""
    while isinstance(parent[key], list) and parent[key] and draw(st.booleans()):
        parent, key = parent[key], draw(st.integers(0, len(parent[key]) - 1))
    if draw(st.booleans()):
        parent[key] = draw(json_values)


@st.composite
def edited_state_files(draw):
    """A saved state's file object, left whole or with one node (a field, a
    row, an entry or a number) replaced by any JSON value."""
    obj = states.state_to_json(draw(st.sampled_from(SAVED_STATES)))
    edit_a_node(draw, obj, draw(st.sampled_from(["dims", "kind", "data"])))
    return obj


state_objects = json_values | edited_state_files() | st.fixed_dictionaries({
    "dims": st.lists(st.integers(-1, 9), min_size=2, max_size=2) | json_values,
    "kind": st.sampled_from(["pure", "density"]) | json_values,
    "data": amplitude_pairs | st.lists(amplitude_pairs, max_size=4) | json_values,
})


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=state_objects)
def test_fuzzed_state_files_end_in_an_answer_or_input_error(obj, tmp_path):
    # any JSON object in a state file gives a report or exit 2, never a traceback
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["pure", "--state", str(path)]) in (0, 2)


SAVED_BASES = (np.eye(2), states.haar_unitary(2, 1), states.haar_unitary(3, 2))


@st.composite
def edited_basis_files(draw):
    """A basis's file grid, left whole or with one node (a row, a pair or a
    number) replaced by any JSON value."""
    holder = [basis_grid(draw(st.sampled_from(SAVED_BASES)).T)]
    edit_a_node(draw, holder, 0)
    return holder[0]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=json_values | edited_basis_files())
def test_fuzzed_basis_files_end_in_an_answer_or_input_error(obj, tmp_path):
    # any JSON value in a basis file gives a table or exit 2, never a traceback
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["kd-dist", "--builtin", "bell", "--basis-a", str(path),
                     "--out", str(tmp_path / "table.csv")]) in (0, 2)


@pytest.mark.parametrize("buffered", [True, False])
def test_closed_stdout_exits_141_silently(buffered):
    # the reader end is closed before the child starts, so every write to
    # its stdout fails; a buffered stdout fails only when flushed
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run(RUN + ["pure", "--builtin", "bell"], stdout=write_end,
                             stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert res.returncode == 141
    assert res.stderr == ""


REPORT_KEYS = {
    "pure": (
        ["pure", "--builtin", "bell"],
        ["command", "dims", "value", "normalized", "schmidt_rank", "concurrence",
         "seed", "wall_time_s"],
    ),
    "mixed": (
        ["mixed", "--builtin", "bell", "--restarts", "1"],
        ["command", "dims", "value", "normalized", "certified_lower", "gap",
         "probabilities", "pure_states", "diagnostics", "seed", "restarts", "terms",
         "wall_time_s"],
    ),
    "bounds": (
        ["bounds", "--builtin", "werner:0.0", "--restarts", "1"],
        ["command", "dims", "lower", "upper", "lower_swapped", "upper_swapped",
         "best_lower", "best_upper", "certified_lower", "seed", "restarts",
         "wall_time_s"],
    ),
    "weak-sim": (
        ["weak-sim", "--builtin", "bell", "--shots", "1000", "--restarts", "1"],
        ["command", "dims", "estimate", "reference", "deviation", "shots_per_cell",
         "records", "diagnostics", "seed", "restarts", "wall_time_s"],
    ),
}


@pytest.mark.parametrize("command", sorted(REPORT_KEYS))
def test_report_keys(command, tmp_path, monkeypatch, capsys):
    argv, keys = REPORT_KEYS[command]
    monkeypatch.chdir(tmp_path)  # weak-sim writes its shot records here
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == keys
    assert report["command"] == command


@pytest.mark.parametrize("argv", [
    ["pure", "--builtin", "bell", "--tol", "1e-3"],
    ["pure", "--builtin", "bell", "--restarts", "3"],
    ["kd-dist", "--builtin", "bell", "--tol", "1e-3"],
    ["bounds", "--builtin", "bell", "--tol", "1e-3"],
    ["weak-sim", "--builtin", "bell", "--tol", "1e-3"],
    ["mixed", "--builtin", "bell", "--tol", "1e-3"],
    ["kd-dist", "--builtin", "bell", "--basis-b", "fourier"],
])
def test_unread_options_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert argv[3] in capsys.readouterr().err


def _no_suite(**kwargs):
    raise AssertionError("a suite ran")


@pytest.mark.parametrize("suite,option,value", [
    ("roof", "--count", "1"),
    ("roof", "--dims", "2x2"),
    ("weak", "--count", "1"),
    ("weak", "--dims", "2x2"),
    ("prop5", "--dims", "2x2"),
    ("concurrence", "--dims", "2x2"),
])
def test_verify_rejects_option_suite_ignores(suite, option, value, monkeypatch, capsys):
    monkeypatch.setitem(verify.SUITES, suite, _no_suite)
    assert cli.main(["verify", "--suite", suite, option, value]) == 2
    err = capsys.readouterr().err
    assert option in err and suite in err


def test_verify_all_passes_options_to_suites_that_take_them(monkeypatch, capsys):
    seen = {}
    for name in verify.SUITES:
        def record(name=name, **kwargs):
            seen[name] = kwargs
            return True, 0.0, "stub"
        monkeypatch.setitem(verify.SUITES, name, record)
    assert cli.main(["verify", "--count", "3", "--dims", "2x2", "--seed", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(verify.SUITES)
    for line, name in zip(lines, verify.SUITES):
        assert line.startswith(f"{name}: PASS (max deviation 0; stub; "), line
    dims = ke.BipartiteDims(2, 2)
    for name, kwargs in seen.items():
        assert kwargs.pop("seed") == 5
        assert set(kwargs) == verify.SUITE_OPTIONS[name]
        assert kwargs.pop("count", 3) == 3
        assert kwargs.pop("dims", dims) == dims


def test_every_suite_takes_seed_and_only_cli_options():
    # the CLI passes a suite only the options in its signature, so a suite
    # parameter outside them is a setting nothing can change
    for name, fn in verify.SUITES.items():
        params = set(inspect.signature(fn).parameters)
        assert "seed" in params, name
        assert params <= {"seed", "count", "dims"}, name


def test_readme_commands_parse():
    # every CLI line in the README must be one the parser accepts; nothing runs
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("kdentangle ")]
    assert len(lines) >= 8
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func)


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


CHEAP_README_COMMANDS = {
    "kd-dist": ["kd-dist", "--builtin", "bell", "--basis-a", "computational",
                "--basis-y", "computational", "--out", "table.csv"],
    "kd-dist-reconstruct": ["kd-dist", "--builtin", "bell", "--reconstruct",
                            "--basis-y", "random:3", "--out", "table.csv"],
    "pure-builtin": ["pure", "--builtin", "max-entangled:3"],
    "pure-state": ["pure", "--state", "state.json"],
}


def run_in_process(argv, capsys):
    """Exit code, stdout with the wall time stripped, stderr, and the files
    the command wrote into the working directory, which are then deleted."""
    code = cli.main(argv)
    out, err = capsys.readouterr()
    files = {}
    for path in Path.cwd().iterdir():
        if path.name != "state.json":
            files[path.name] = path.read_bytes()
            path.unlink()
    return code, strip_timing(out), err, files


@pytest.mark.parametrize("name", CHEAP_README_COMMANDS)
def test_readme_commands_repeat_in_process(name, tmp_path, monkeypatch, capsys):
    # the second call reuses the first call's parser and must print and write
    # what the first did, and what a fresh process does
    monkeypatch.chdir(tmp_path)
    ke.save_state(ke.haar_pure(ke.BipartiteDims(2, 3), 11), "state.json")
    argv = CHEAP_README_COMMANDS[name]
    first = run_in_process(argv, capsys)
    assert first[0] == 0 and first[2] == ""
    assert first == run_in_process(argv, capsys)
    fresh = run_cli(*argv, cwd=str(tmp_path))
    assert (fresh.returncode, strip_timing(fresh.stdout), fresh.stderr) == first[:3]
    assert set(first[3]) == {path.name for path in tmp_path.iterdir()} - {"state.json"}
    assert all((tmp_path / fname).read_bytes() == data for fname, data in first[3].items())


def test_parser_errors_leave_the_shared_parser_intact(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = CHEAP_README_COMMANDS["pure-builtin"]
    before = run_in_process(argv, capsys)
    for bad in (["pure", "--builtin", "bell", "--no-such-option"],
                ["kd-dist", "--builtin", "bell", "--basis-b", "computational"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(bad)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err
    assert list(tmp_path.iterdir()) == []
    assert run_in_process(argv, capsys) == before


def test_state_and_builtin_conflict():
    res = run_cli("pure", "--state", "x.json", "--builtin", "bell")
    assert res.returncode == 2


def test_unknown_builtin():
    res = run_cli("pure", "--builtin", "glome")
    assert res.returncode == 2


@pytest.mark.parametrize("source, dims", [
    ("state", "3x3"), ("bell", "3x3"), ("max-entangled:3", "2x2"),
])
def test_dims_that_differ_from_the_state_are_rejected(source, dims, tmp_path, capsys):
    path = tmp_path / "bell.json"
    ke.save_state(ke.bell_state(), path)
    spec = ["--state", str(path)] if source == "state" else ["--builtin", source]
    assert cli.main(["pure", *spec, "--dims", dims]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"--dims {dims} does not match" in err


def test_dims_matching_a_state_file_run(tmp_path, capsys):
    path = tmp_path / "state.json"
    ke.save_state(ke.haar_pure(ke.BipartiteDims(2, 3), 4), path)
    assert cli.main(["pure", "--state", str(path), "--dims", "2x3"]) == 0
    assert json.loads(capsys.readouterr().out)["dims"] == [2, 3]


SCIPY_PROBE = """
import runpy, sys
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import kdentangle
print(loaded())
sys.argv = ["kdentangle", "pure", "--builtin", "bell"]
try:
    runpy.run_module("kdentangle", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(loaded())
"""


def test_no_scipy_module_loaded():
    # the package and the CLI run on numpy alone
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", SCIPY_PROBE], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path))
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert '"command": "pure"' in res.stdout
    assert lines[0] == "[]" and lines[-1] == "[]"
