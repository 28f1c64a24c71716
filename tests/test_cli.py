"""Tests for the command-line surface: file formats, reports, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import statekit
from statekit import cli
from statekit.factor import FactorSet
from statekit.linalg import SystemShape
from statekit.mixed import MixedState
from statekit.oracle import FixtureParams, fixtures
from statekit.pure import PureState
from util import GHZ3, W3, random_complex

EX2_PARAMS = "a=0.3,b=0.4,c=0.5,alpha=0.6,beta=1.6,gamma=4.0"
ONE_PARTY_PURE = '{"version":1,"type":"pure","dims":[2],"data":[[1,0],[0,0]]}'


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
    assert "seed" not in report


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
    _, first, _ = _run(capsys, "check-pure", a, b)
    _, second, _ = _run(capsys, "check-pure", a, b)
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


def test_classify_one_party_state(capsys):
    code, out, err = _run(capsys, "classify", ONE_PARTY_PURE)
    assert code == 0 and err == ""
    assert json.loads(out) == {"dims": [2], "signature": []}


def test_seed_environment_fallback(tmp_path, capsys, monkeypatch):
    rho = MixedState(SystemShape((2, 2)), np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    path = _state_file(tmp_path, "rho.json", rho)
    monkeypatch.setenv("SLOCC_SEED", "17")
    code, out, _ = _run(capsys, "check-mixed", path, path)
    assert code == 0
    assert json.loads(out)["seed"] == 17
    for bad in ("not-a-number", "-2"):
        monkeypatch.setenv("SLOCC_SEED", bad)
        code, _, err = _run(capsys, "check-mixed", path, path)
        assert code == cli.EXIT_USAGE
        assert "SLOCC_SEED" in err
    # no pure verdict depends on a seed, so check-pure never reads one
    ghz = _state_file(tmp_path, "ghz.json", GHZ3)
    code, out, _ = _run(capsys, "check-pure", ghz, ghz)
    assert code == 0
    assert "seed" not in json.loads(out)


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
    nan_witness = cli.witness_object(FactorSet((np.eye(2, dtype=complex),) * 2))
    nan_witness["scale"] = [float("nan"), 0.0]
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
        "wnan": _write_nan_state(tmp_path, "wnan.json", nan_witness),
        "latin1": _write_bytes(tmp_path, "latin1.json", b"\xff\xfe"),
        "huge": _write_bytes(tmp_path, "huge.json", HUGE_ENTRY_STATE.encode()),
        "deep": _write_bytes(tmp_path, "deep.json", b"[" * 100_000),
    }


# an integer entry beyond the float range
HUGE_ENTRY_STATE = (
    '{"version":1,"type":"pure","dims":[2],"data":[[1' + "0" * 400 + ',0],[0,0]]}'
)


def _write_bytes(tmp_path, name, data: bytes) -> str:
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


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
    (["gen", "--random", "mixed", "--dims", "2,2", "--seed", "-1", "--out", "{out}"],
     cli.EXIT_USAGE),
    (["check-mixed", "{m}", "{m}", "--seed", "-1"], cli.EXIT_USAGE),
    (["check-pure", "{p3}", "{p3}", "--seed", "3"], cli.EXIT_USAGE),
    (["verify", "{m}", "{m}", "{wnan}"], cli.EXIT_DATA),
    (["check-pure", "{latin1}", "{latin1}"], cli.EXIT_DATA),
    (["check-pure", "{huge}", "{huge}"], cli.EXIT_DATA),
    (["check-pure", "{deep}", "{deep}"], cli.EXIT_DATA),
], ids=["gen-dims-1", "gen-dims-a", "factor-dims-x", "shape-mismatch",
        "singular-witness", "nan-state", "gen-negative-seed",
        "check-mixed-negative-seed", "check-pure-seed", "nan-witness-scale", "not-utf8",
        "huge-integer-entry", "deep-nesting"])
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


# ------------------------------------------------------------------ fuzzing

# entries that break a [re, im] pair: non-finite, beyond the float range,
# near its edge, or not a number at all
BAD_VALUES = st.sampled_from(
    [float("nan"), float("inf"), 10**400, 1e300, "1", None, True, [1.0]]
)
# --dims values with few enough states that every verdict stays fast
DIMS_TEXT = st.sampled_from(
    ["2", "3", "2,2", "2,3", "3,2", "2,2,2", "1,2", "a,2", "", "2,,2", "-2,2"]
)
PARAMS_TEXT = st.sampled_from([
    EX2_PARAMS, "a=0.5,b=0.6,c=0.7", "a=0.7,b=0.8,c=1.2", "bogus", "a=x", "zz=1",
    "lam=0.4:0.3:0.2:0.1,mu=0.2:0.1:0.4:0.3", "lam=1:0:0:0", "a=0", "a=nan",
])
SEED_TEXT = st.sampled_from(["0", "3", "-1", "x", str(2**70)])


@st.composite
def _documents(draw, dims, kind):
    """One input file as (bytes, whether it is passed as a path): a state,
    matrix or witness document, mostly of the kind and dims asked for, well
    formed or broken in its header, its data, its encoding or its syntax."""
    kind = draw(st.sampled_from([kind] * 9 + ["pure", "mixed", "matrix", "witness"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = int(np.prod(dims))
    obj = {"version": 1, "type": kind, "dims": list(dims)}
    if kind == "witness":
        obj["factors"] = [cli._vector_pairs(random_complex(rng, d, d)) for d in dims]
        obj["scale"] = [1.0, 0.0]
        entries = obj["factors"][0]
    elif kind == "pure":
        v = random_complex(rng, n)
        entries = obj["data"] = cli._vector_pairs(v / np.linalg.norm(v))
    else:
        rho = random_complex(rng, n, n)
        rho = rho @ rho.conj().T
        entries = obj["data"] = cli._vector_pairs(rho / np.trace(rho).real)
    flaw = draw(st.sampled_from(
        [None] * 20 + ["version", "type", "dims", "length", "entry", "pair", "scale"]
    ))
    if flaw == "version":
        obj["version"] = draw(st.sampled_from([2, "1", None]))
    elif flaw == "type":
        obj["type"] = draw(st.sampled_from(["spin", "pure", "mixed", "witness"]))
    elif flaw == "dims":
        obj["dims"] = draw(st.sampled_from([[], [1], ["2"], [True, 2], 2, [2] * 4]))
    elif flaw == "length":
        entries.pop()
    elif flaw == "entry":
        entries[0] = [draw(BAD_VALUES), 0.0]
    elif flaw == "pair":
        entries[-1] = draw(st.sampled_from([[1.0], [1.0, 0.0, 0.0], "x", 1.0]))
    elif flaw == "scale":
        obj["scale"] = [draw(BAD_VALUES), 0.0]
    text = json.dumps(obj)
    syntax = draw(st.sampled_from([None] * 30 + ["cut", "array", "deep", "digits"]))
    if syntax == "cut":
        text = text[: len(text) // 2]
    elif syntax == "array":
        text = '["not","an","object"]'
    elif syntax == "deep":
        text = "[" * 100_000
    elif syntax == "digits":
        text = text[:-1] + ', "pad": 1' + "0" * 5000 + "}"
    as_file = draw(st.booleans())
    if as_file and draw(st.integers(0, 9)) == 0:
        return b"\xff\xfe" + text.encode(), True
    return text.encode(), as_file


@st.composite
def _invocations(draw):
    """An argv template for any subcommand, with {0}-{2} standing for the
    drawn documents and {out} for an output directory, and the documents."""
    command = draw(st.sampled_from([
        "realign", "factor", "classify", "check-pure", "check-mixed", "verify",
        "gen-random", "gen-example", "help", "version", "bogus",
    ]))
    seed = draw(st.one_of(st.just([]), SEED_TEXT.map(lambda s: ["--seed", s])))
    second = draw(st.sampled_from(["{0}", "{1}"]))
    argv = {
        "realign": ["realign", "{0}", "--party", str(draw(st.integers(-1, 4)))],
        "factor": ["factor", "{0}"]
        + draw(st.one_of(st.just([]), DIMS_TEXT.map(lambda d: ["--dims", d]))),
        "classify": ["classify", "{0}"],
        "check-pure": ["check-pure", "{0}", second] + seed,
        "check-mixed": ["check-mixed", "{0}", second] + seed,
        "verify": ["verify", "{0}", second, "{2}"],
        "gen-random": ["gen", "--random", draw(st.sampled_from(["pure", "mixed"])),
                       "--dims", draw(DIMS_TEXT), "--out", "{out}"] + seed
        + draw(st.sampled_from([[], ["--equivalent-pair"]])),
        "gen-example": ["gen", "--example", draw(st.sampled_from("12345x")),
                        "--out", "{out}"]
        + draw(st.one_of(st.just([]), PARAMS_TEXT.map(lambda p: ["--params", p]))),
        "help": draw(st.sampled_from([["--help"], ["check-mixed", "--help"]])),
        "version": ["--version"],
        "bogus": [draw(st.sampled_from(["", "check", "--seed"]))],
    }[command]
    dims = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3)
                .filter(lambda d: int(np.prod(d)) <= 12))
    kinds = {"check-pure": "pure", "classify": "pure", "realign": "matrix",
             "factor": "matrix"}.get(command, "mixed")
    docs = (draw(_documents(dims, kinds)), draw(_documents(dims, kinds)),
            draw(_documents(dims, "witness")))
    return argv, docs


# finite entries whose norm or substitution leaves the float range
NEAR_OVERFLOW_PURE = b'{"version":1,"type":"pure","dims":[2],"data":[[1e300,0],[0,0]]}'
NEAR_OVERFLOW_WITNESS = (
    b'{"version":1,"type":"witness","dims":[2],"factors":[[[1,0],[0,0],[0,0],[1,0]]],'
    b'"scale":[1e300,0]}'
)


@settings(max_examples=150)
@given(spec=_invocations())
@example(spec=(["check-pure", "{0}", "{0}"], ((b"\xff\xfe", True),)))
@example(spec=(["check-pure", "{0}", "{0}"], ((HUGE_ENTRY_STATE.encode(), True),)))
@example(spec=(["check-pure", "{0}", "{0}"], ((b"[" * 100_000, True),)))
@example(spec=(["classify", "{0}"], ((ONE_PARTY_PURE.encode(), False),)))
@example(spec=(["check-pure", "{0}", "{0}"], ((NEAR_OVERFLOW_PURE, False),)))
@example(spec=(["verify", "{0}", "{0}", "{1}"],
               ((ONE_PARTY_PURE.encode(), False), (NEAR_OVERFLOW_WITNESS, False))))
def test_any_invocation_exits_with_a_documented_code(tmp_path_factory, spec):
    argv, docs = spec
    # a fresh folder per example, so no example sees another's files
    folder = tmp_path_factory.mktemp("fuzz")
    sources = []
    for i, (payload, as_file) in enumerate(docs):
        if as_file:
            path = folder / f"doc{i}.json"
            path.write_bytes(payload)
            payload = str(path).encode()
        sources.append(payload.decode())
    args = [a.format(*sources, out=str(folder / "out")) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            # only argparse's --help and --version leave through SystemExit
            assert {"--help", "--version"} & set(args) and exc.code == 0
            return
    assert code in {0, 1, 2, 64, 65, 66}
