"""Tests for the command-line surface: file formats, reports, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import statekit
from statekit import cli
from statekit.factor import FactorSet
from statekit.linalg import SystemShape
from statekit.mixed import MixedState
from statekit.oracle import FixtureParams, fixtures
from statekit.pure import PureState
from util import GHZ3, W3, random_complex

EX2_PARAMS = "a=0.3,b=0.4,c=0.5,alpha=0.6,beta=1.6,gamma=4.0"


def _write(tmp_path, name, obj) -> str:
    path = tmp_path / name
    path.write_text(cli._emit(obj) + "\n", encoding="utf-8")
    return str(path)


def _state_file(tmp_path, name, state) -> str:
    return _write(tmp_path, name, cli.state_object(state))


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_bell_state_inline():
    text = (
        '{"version":1,"type":"pure","dims":[2,2],"data":'
        '[[0.7071067811865476,0],[0,0],[0,0],[0.7071067811865476,0]]}'
    )
    state = cli.parse_state(text)
    assert isinstance(state, PureState)
    assert np.allclose(state.amplitudes, [1, 0, 0, 1] / np.sqrt(2.0))


def test_parse_serialize_round_trip(tmp_path):
    state, _ = fixtures(2, cli._parse_fixture_params(EX2_PARAMS))
    path = _state_file(tmp_path, "state.json", state)
    parsed = cli.parse_state(path)
    assert isinstance(parsed, MixedState)
    assert np.array_equal(parsed.rho, state.rho)
    assert parsed.shape == state.shape


def test_pure_state_round_trip(tmp_path):
    path = _state_file(tmp_path, "ghz.json", GHZ3)
    parsed = cli.parse_state(path)
    assert np.array_equal(parsed.amplitudes, GHZ3.amplitudes)


def test_witness_round_trip(tmp_path):
    factors = (np.eye(2, dtype=complex), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    fs = FactorSet(factors, 2.0 - 0.5j)
    path = _write(tmp_path, "w.json", cli.witness_object(fs))
    parsed = cli.parse_witness(path)
    for f, g in zip(parsed.factors, fs.factors):
        assert np.array_equal(f, g)
    assert parsed.scale == fs.scale


def test_bad_trace_is_rejected(tmp_path, capsys):
    rho = np.diag([0.45, 0.45, 0.0, 0.0]).astype(complex)
    obj = {
        "version": 1,
        "type": "mixed",
        "dims": [2, 2],
        "data": [[z.real, z.imag] for z in rho.reshape(-1)],
    }
    path = _write(tmp_path, "bad.json", obj)
    code, out, err = _run(capsys, "check-mixed", path, path)
    assert code == cli.EXIT_DATA
    assert "data error" in err


def test_schema_violations_are_rejected():
    with pytest.raises(cli.DataFormatError):
        cli.parse_state('{"version":2,"type":"pure","dims":[2],"data":[[1,0],[0,0]]}')
    with pytest.raises(cli.DataFormatError):
        cli.parse_state('{"version":1,"type":"spin","dims":[2],"data":[[1,0],[0,0]]}')
    with pytest.raises(cli.DataFormatError):
        cli.parse_state('{"version":1,"type":"pure","dims":[1],"data":[[1,0]]}')
    with pytest.raises(cli.DataFormatError):
        cli.parse_state('{"version":1,"type":"pure","dims":[2],"data":[[1,0]]}')
    with pytest.raises(cli.DataFormatError):
        cli.parse_state('["not","an","object"]')


def test_identical_pure_states_exit_zero(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SLOCC_SEED", raising=False)
    path = _state_file(tmp_path, "ghz.json", GHZ3)
    code, out, _ = _run(capsys, "check-pure", path, path)
    assert code == cli.EXIT_EQUIVALENT
    report = json.loads(out)
    assert report["outcome"] == "Equivalent"
    assert "witness" in report
    assert report["seed"] == 0


def test_biseparable_pair_exits_one(tmp_path, capsys):
    phi, psi = fixtures(4)
    a = _state_file(tmp_path, "a.json", phi)
    b = _state_file(tmp_path, "b.json", psi)
    code, out, _ = _run(capsys, "check-pure", a, b)
    assert code == cli.EXIT_INEQUIVALENT
    report = json.loads(out)
    assert report["outcome"] == "Inequivalent"
    assert "rank signature" in report["reason"]
    assert "witness" not in report


def test_unresolved_pair_exits_two(tmp_path, capsys):
    a = _state_file(tmp_path, "ghz.json", GHZ3)
    b = _state_file(tmp_path, "w.json", W3)
    code, out, _ = _run(capsys, "check-pure", a, b)
    assert code == cli.EXIT_INCONCLUSIVE
    assert json.loads(out)["outcome"] == "Inconclusive"


def test_corner_pair_exits_zero_with_kernel_ratio(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "gen", "--example", "2", "--params", EX2_PARAMS, "--out", str(tmp_path)
    )
    assert code == 0
    written = json.loads(out)["written"]
    code, out, _ = _run(capsys, "check-mixed", written[0], written[1], "--seed", "7")
    assert code == cli.EXIT_EQUIVALENT
    report = json.loads(out)
    assert report["outcome"] == "Equivalent"
    assert abs(report["kernel_ratio"] - 0.25) <= 1e-9
    assert report["witness"]["type"] == "witness"
    assert report["seed"] == 7


def test_reports_are_deterministic_bytes(tmp_path, capsys):
    phi, psi = fixtures(4)
    a = _state_file(tmp_path, "a.json", phi)
    b = _state_file(tmp_path, "b.json", psi)
    _, first, _ = _run(capsys, "check-pure", a, b, "--seed", "3")
    _, second, _ = _run(capsys, "check-pure", a, b, "--seed", "3")
    assert first == second
    lam = "lam=0.4:0.3:0.2:0.1,mu=0.2:0.1:0.4:0.3"
    _run(capsys, "gen", "--example", "1", "--params", lam, "--out", str(tmp_path))
    a = str(tmp_path / "fixture1a.json")
    b = str(tmp_path / "fixture1b.json")
    _, first, _ = _run(capsys, "check-mixed", a, b, "--seed", "5")
    _, second, _ = _run(capsys, "check-mixed", a, b, "--seed", "5")
    assert first == second


def test_gen_random_equivalent_pair_verifies(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "gen", "--random", "mixed", "--dims", "2,2", "--seed", "11",
        "--equivalent-pair", "--out", str(tmp_path),
    )
    assert code == 0
    written = json.loads(out)["written"]
    assert [p.rsplit("/", 1)[-1] for p in written] == [
        "state_a.json", "state_b.json", "witness.json",
    ]
    code, out, _ = _run(capsys, "verify", written[1], written[0], written[2])
    assert code == 0
    result = json.loads(out)
    assert result["passed"] is True
    assert result["relative_residual"] <= 1e-10


def test_verify_rejects_wrong_witness(tmp_path, capsys):
    phi, psi = fixtures(4)
    a = _state_file(tmp_path, "a.json", phi)
    b = _state_file(tmp_path, "b.json", psi)
    eye = FactorSet(tuple(np.eye(2, dtype=complex) for _ in range(3)))
    w = _write(tmp_path, "w.json", cli.witness_object(eye))
    code, out, _ = _run(capsys, "verify", a, b, w)
    assert code == cli.EXIT_INCONCLUSIVE
    assert json.loads(out)["passed"] is False


def test_realign_subcommand_reports_rank(tmp_path, capsys):
    z = np.array([
        [1, 2, 5, 6],
        [3, 4, 7, 8],
        [9, 10, 13, 14],
        [11, 12, 15, 16],
    ], dtype=float)
    obj = {
        "version": 1,
        "type": "matrix",
        "dims": [2, 2],
        "data": [[v, 0.0] for v in z.reshape(-1)],
    }
    path = _write(tmp_path, "z.json", obj)
    code, out, _ = _run(capsys, "realign", path, "--party", "1")
    assert code == 0
    report = json.loads(out)
    expected = np.array([
        [1, 3, 2, 4],
        [9, 11, 10, 12],
        [5, 7, 6, 8],
        [13, 15, 14, 16],
    ])
    assert report["numerical_rank"] == np.linalg.matrix_rank(expected)
    assert report["rows"] == 4 and report["cols"] == 4
    code, _, _ = _run(capsys, "realign", path, "--party", "3")
    assert code == cli.EXIT_USAGE


def test_factor_subcommand(tmp_path, capsys):
    a = np.kron(np.array([[1.0, 2.0], [0.5, 1.0j]]), np.diag([1.0, -3.0]))
    obj = {
        "version": 1,
        "type": "matrix",
        "dims": [2, 2],
        "data": [[z.real, z.imag] for z in a.astype(complex).reshape(-1)],
    }
    path = _write(tmp_path, "prod.json", obj)
    code, out, _ = _run(capsys, "factor", path)
    assert code == 0
    report = json.loads(out)
    assert report["decomposable"] is True
    assert len(report["factors"]) == 2
    cnot = np.eye(4)[[0, 1, 3, 2]]
    obj["data"] = [[v, 0.0] for v in cnot.reshape(-1)]
    path = _write(tmp_path, "cnot.json", obj)
    code, out, _ = _run(capsys, "factor", path, "--dims", "2,2")
    assert code == 0
    report = json.loads(out)
    assert report["decomposable"] is False
    assert "error" in report and "factors" not in report


def test_classify_subcommand(tmp_path, capsys):
    path = _state_file(tmp_path, "ghz.json", GHZ3)
    code, out, _ = _run(capsys, "classify", path)
    assert code == 0
    report = json.loads(out)
    assert report["dims"] == [2, 2, 2]
    assert {"cut": [1], "rank": 2} in report["signature"]


def test_seed_environment_fallback(tmp_path, capsys, monkeypatch):
    path = _state_file(tmp_path, "ghz.json", GHZ3)
    monkeypatch.setenv("SLOCC_SEED", "17")
    code, out, _ = _run(capsys, "check-pure", path, path)
    assert code == 0
    assert json.loads(out)["seed"] == 17
    monkeypatch.setenv("SLOCC_SEED", "not-a-number")
    code, _, err = _run(capsys, "check-pure", path, path)
    assert code == cli.EXIT_USAGE
    assert "SLOCC_SEED" in err


def test_usage_and_io_errors(tmp_path, capsys):
    code, _, err = _run(capsys, "check-pure", "/nonexistent/a.json", "/nonexistent/b.json")
    assert code == cli.EXIT_IO
    assert "io error" in err
    code, _, err = _run(capsys, "gen", "--example", "3", "--params", "a=0.5,b=0.6,c=0.7",
                        "--out", str(tmp_path))
    assert code == cli.EXIT_DATA
    code, _, err = _run(capsys, "gen", "--example", "1", "--params", "bogus",
                        "--out", str(tmp_path))
    assert code == cli.EXIT_USAGE
    code, _, err = _run(capsys, "not-a-command")
    assert code == cli.EXIT_USAGE


def test_float_formatting_is_normalized():
    assert cli._fmt_float(-0.0) == "0"
    assert cli._fmt_float(float("nan")) == "null"
    assert cli._fmt_float(0.1) == "0.10000000000000001"
    payload = cli._emit({"x": [1.0, True, None, "s"]})
    assert payload == '{"x":[1,true,null,"s"]}'


def test_import_leaves_scipy_unloaded():
    src = str(Path(statekit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, statekit.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


def _error_inputs(tmp_path) -> dict:
    rng = np.random.default_rng(3)
    pure3 = PureState(SystemShape((2, 2, 2)), np.ones(8) / np.sqrt(8.0))
    pure2 = PureState(SystemShape((2, 2)), np.ones(4) / 2.0)
    rho = np.eye(4, dtype=complex) / 4.0
    nan_obj = cli.state_object(pure3)
    nan_obj["data"][0] = [float("nan"), 0.0]
    singular = FactorSet((np.ones((2, 2), dtype=complex), np.eye(2, dtype=complex)))
    product = np.kron(random_complex(rng, 2, 2), random_complex(rng, 2, 2))
    return {
        "p3": _state_file(tmp_path, "p3.json", pure3),
        "p2": _state_file(tmp_path, "p2.json", pure2),
        "m": _state_file(tmp_path, "m.json", MixedState(SystemShape((2, 2)), rho)),
        "wsing": _write(tmp_path, "wsing.json", cli.witness_object(singular)),
        "k": _write(tmp_path, "k.json", {
            "version": 1, "type": "matrix", "dims": [2, 2],
            "data": [[z.real, z.imag] for z in product.reshape(-1)],
        }),
        "nan": _write_nan_state(tmp_path, "nan.json", nan_obj),
    }


def _write_nan_state(tmp_path, name, obj) -> str:
    # json.dumps writes NaN, which the deterministic writer renders as null
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv,expected", [
    (["gen", "--random", "pure", "--dims", "1,2", "--out", "{out}"], cli.EXIT_USAGE),
    (["gen", "--random", "pure", "--dims", "a,2", "--out", "{out}"], cli.EXIT_USAGE),
    (["factor", "{k}", "--dims", "x"], cli.EXIT_USAGE),
    (["check-pure", "{p3}", "{p2}"], cli.EXIT_DATA),
    (["verify", "{m}", "{m}", "{wsing}"], cli.EXIT_DATA),
    (["check-pure", "{nan}", "{nan}"], cli.EXIT_DATA),
], ids=["gen-dims-1", "gen-dims-a", "factor-dims-x", "shape-mismatch",
        "singular-witness", "nan-state"])
def test_bad_input_exits_with_documented_code(tmp_path, argv, expected):
    paths = _error_inputs(tmp_path)
    args = [a.format(out=str(tmp_path / "gen"), **paths) for a in argv]
    src = str(Path(statekit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-m", "statekit.cli", *args], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode in {0, 1, 2, 64, 65, 66}
    assert "Traceback" not in run.stderr
    assert run.returncode == expected
    assert len(run.stderr.strip().splitlines()) == 1
    assert not (tmp_path / "gen").exists()
