"""Command-line surface: state files, verdict reports, and subcommands.

State files are JSON with complex entries as [re, im] pairs. Verdict reports
are emitted on standard output as deterministic byte streams: fixed key
order, floats at 17 significant digits, diagnostics on standard error. Exit
codes: 0 Equivalent (or plain success), 1 Inequivalent, 2 Inconclusive (or a
failed witness check), 64 usage, 65 bad data, 66 unreadable file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .factor import FactorSet, NotDecomposable, decomposability, extract_factors
from .linalg import SystemShape, bipartition_view, rank_report, realign
from .mixed import MixedState, check_mixed_equivalence
from .oracle import (
    FixtureParams,
    Verdict,
    fixtures,
    make_equivalent_pair,
    verify_witness_mixed,
    verify_witness_pure,
)
from .pure import PureState, check_pure_equivalence, rank_signature

EXIT_EQUIVALENT = 0
EXIT_INEQUIVALENT = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_IO = 66

_OUTCOME_CODES = {
    "Equivalent": EXIT_EQUIVALENT,
    "Inequivalent": EXIT_INEQUIVALENT,
    "Inconclusive": EXIT_INCONCLUSIVE,
}


class UsageError(Exception):
    pass


class DataFormatError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt_float(x) -> str:
    x = float(x)
    if not np.isfinite(x):
        return "null"
    if x == 0.0:
        x = 0.0
    return f"{x:.17g}"


def _emit(value) -> str:
    """Serialize to JSON with insertion-ordered keys and fixed float form."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(
            json.dumps(str(k)) + ":" + _emit(v) for k, v in value.items()
        ) + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _vector_pairs(v) -> list:
    return [_pair(z) for z in np.asarray(v).reshape(-1)]


def _load_source(src: str) -> dict:
    """Accept a JSON document or a path to one."""
    text = src
    if not src.lstrip().startswith(("{", "[")):
        try:
            with open(src, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"not UTF-8 text: {exc}") from None
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a syntax error, an integer literal beyond the digit limit of int(),
        # or nesting deeper than the recursion limit
        raise DataFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DataFormatError("top-level JSON value must be an object")
    return obj


def _check_header(obj: dict, expected_types: tuple[str, ...]) -> tuple[str, tuple[int, ...]]:
    if obj.get("version") != 1:
        raise DataFormatError("unsupported or missing format version (need 1)")
    kind = obj.get("type")
    if kind not in expected_types:
        raise DataFormatError(
            f"type must be one of {list(expected_types)}, got {kind!r}"
        )
    dims = obj.get("dims")
    if (
        not isinstance(dims, list)
        or not dims
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 2 for d in dims)
    ):
        raise DataFormatError("dims must be a list of integers, each at least 2")
    return kind, tuple(dims)


def _finite(x) -> bool:
    """Whether a JSON number converts to a finite float; an integer beyond
    the float range does not."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _complex_array(data, count: int, what: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != count:
        raise DataFormatError(f"data must hold {count} entries for {what}")
    out = np.empty(count, dtype=complex)
    for i, cell in enumerate(data):
        if (
            not isinstance(cell, list)
            or len(cell) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in cell)
        ):
            raise DataFormatError(
                f"data entry {i} must be a [re, im] pair of numbers"
            )
        if not (_finite(cell[0]) and _finite(cell[1])):
            raise DataFormatError(f"data entry {i} is not finite")
        out[i] = complex(cell[0], cell[1])
    return out


def parse_state(src: str):
    """Parse a state file (path or JSON text) into a pure or mixed state."""
    obj = _load_source(src)
    kind, dims = _check_header(obj, ("pure", "mixed"))
    shape = SystemShape(dims)
    n = shape.side
    if kind == "pure":
        amp = _complex_array(obj.get("data"), n, f"a pure state over dims {list(dims)}")
        try:
            return PureState(shape, amp)
        except ValueError as exc:
            raise DataFormatError(f"invalid pure state: {exc}") from None
    data = _complex_array(
        obj.get("data"), n * n, f"a density matrix over dims {list(dims)}"
    )
    try:
        return MixedState(shape, data.reshape(n, n))
    except ValueError as exc:
        raise DataFormatError(f"invalid density matrix: {exc}") from None


def _parse_matrix(src: str) -> tuple[np.ndarray, tuple[int, ...]]:
    """Load a square matrix with party structure from a matrix or mixed file."""
    obj = _load_source(src)
    kind, dims = _check_header(obj, ("matrix", "mixed"))
    n = int(np.prod(dims))
    data = _complex_array(obj.get("data"), n * n, f"a matrix over dims {list(dims)}")
    return data.reshape(n, n), dims


def parse_witness(src: str) -> FactorSet:
    obj = _load_source(src)
    _, dims = _check_header(obj, ("witness",))
    factors = obj.get("factors")
    if not isinstance(factors, list) or len(factors) != len(dims):
        raise DataFormatError("factors must list one matrix per party")
    mats = []
    for d, entries in zip(dims, factors):
        mats.append(_complex_array(entries, d * d, f"a {d}x{d} factor").reshape(d, d))
    scale = obj.get("scale", [1.0, 0.0])
    if (
        not isinstance(scale, list)
        or len(scale) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in scale)
    ):
        raise DataFormatError("scale must be a [re, im] pair")
    if not (_finite(scale[0]) and _finite(scale[1])):
        raise DataFormatError("scale is not finite")
    return FactorSet(tuple(mats), complex(scale[0], scale[1]))


def state_object(state, label: Optional[str] = None) -> dict:
    if isinstance(state, PureState):
        obj = {
            "version": 1,
            "type": "pure",
            "dims": list(state.shape.dims),
            "data": _vector_pairs(state.amplitudes),
        }
    else:
        obj = {
            "version": 1,
            "type": "mixed",
            "dims": list(state.shape.dims),
            "data": _vector_pairs(state.rho.reshape(-1)),
        }
    if label is not None:
        obj["label"] = label
    return obj


def witness_object(fs: FactorSet) -> dict:
    return {
        "version": 1,
        "type": "witness",
        "dims": list(fs.dims),
        "factors": [_vector_pairs(f.reshape(-1)) for f in fs.factors],
        "scale": _pair(fs.scale),
    }


def _verdict_report(verdict: Verdict) -> dict:
    report = {
        "outcome": verdict.outcome,
        "reason": verdict.reason,
        "residuals": [float(r) for r in verdict.residuals],
    }
    if verdict.oracle_residual is not None:
        report["oracle_residual"] = float(verdict.oracle_residual)
    if verdict.kernel_ratio is not None:
        report["kernel_ratio"] = float(verdict.kernel_ratio)
    if verdict.witness is not None:
        report["witness"] = witness_object(verdict.witness)
    report["version"] = __version__
    return report


def _print(obj: dict):
    sys.stdout.write(_emit(obj) + "\n")


def _resolve_seed(value: Optional[int]) -> int:
    """The --seed value, else SLOCC_SEED, else 0. numpy's generators take
    only non-negative seeds."""
    source = "--seed"
    if value is None:
        source = "SLOCC_SEED"
        try:
            value = int(os.environ.get(source, "0"))
        except ValueError:
            raise UsageError("SLOCC_SEED must be an integer") from None
    if value < 0:
        raise UsageError(f"{source} must be a non-negative integer, got {value}")
    return value


def _parse_dims(text: str) -> tuple[int, ...]:
    """Party dimensions from a comma-separated --dims value."""
    try:
        return SystemShape(tuple(int(d) for d in text.split(","))).dims
    except ValueError:
        raise UsageError(
            f"--dims must list integers of at least 2, got {text!r}"
        ) from None


def _require_same_shape(first, second):
    if first.shape != second.shape:
        raise DataFormatError(
            f"states have different dims ({list(first.shape.dims)} vs "
            f"{list(second.shape.dims)})"
        )


def _cmd_realign(args) -> int:
    matrix, dims = _parse_matrix(args.file)
    k = len(dims)
    if not 1 <= args.party <= k:
        raise UsageError(f"--party must be between 1 and {k}")
    view = bipartition_view(matrix, dims, args.party)
    m = dims[args.party - 1]
    n = int(np.prod(dims)) // m
    rep = rank_report(realign(view, m, n))
    _print({
        "party": args.party,
        "rows": m * m,
        "cols": n * n,
        "singular_values": [float(s) for s in rep.singular_values],
        "numerical_rank": rep.numerical_rank,
        "rank1_residual": rep.rank1_residual,
    })
    return 0


def _cmd_factor(args) -> int:
    matrix, file_dims = _parse_matrix(args.file)
    dims = _parse_dims(args.dims) if args.dims else file_dims
    if int(np.prod(dims)) != matrix.shape[0]:
        raise DataFormatError(
            f"dims {list(dims)} do not match matrix side {matrix.shape[0]}"
        )
    rep = decomposability(matrix, dims)
    out = {
        "invertible": rep.invertible,
        "decomposable": rep.decomposable,
        "per_party": [
            {"party": p, "rank1_residual": res, "numerical_rank": r}
            for p, res, r in rep.per_party
        ],
    }
    try:
        fs = extract_factors(matrix, dims)
        out["factors"] = [_vector_pairs(f.reshape(-1)) for f in fs.factors]
        out["scale"] = _pair(fs.scale)
    except NotDecomposable as exc:
        out["error"] = str(exc)
    _print(out)
    return 0


def _cmd_classify(args) -> int:
    state = parse_state(args.file)
    if not isinstance(state, PureState):
        raise DataFormatError("classify requires a pure state file")
    sig = rank_signature(state)
    _print({
        "dims": list(state.shape.dims),
        "signature": [
            {"cut": list(cut), "rank": sig.entries[cut]}
            for cut in sorted(sig.entries, key=lambda c: (len(c), c))
        ],
    })
    return 0


def _cmd_check_pure(args) -> int:
    phi = parse_state(args.first)
    psi = parse_state(args.second)
    if not isinstance(phi, PureState) or not isinstance(psi, PureState):
        raise DataFormatError("check-pure requires two pure state files")
    _require_same_shape(phi, psi)
    verdict = check_pure_equivalence(phi, psi)
    _print(_verdict_report(verdict))
    return _OUTCOME_CODES[verdict.outcome]


def _cmd_check_mixed(args) -> int:
    seed = _resolve_seed(args.seed)
    rho1 = parse_state(args.first)
    rho2 = parse_state(args.second)
    if not isinstance(rho1, MixedState) or not isinstance(rho2, MixedState):
        raise DataFormatError("check-mixed requires two mixed state files")
    _require_same_shape(rho1, rho2)
    verdict = check_mixed_equivalence(rho1, rho2, seed)
    _print({**_verdict_report(verdict), "seed": seed})
    return _OUTCOME_CODES[verdict.outcome]


def _cmd_verify(args) -> int:
    first = parse_state(args.first)
    second = parse_state(args.second)
    witness = parse_witness(args.witness)
    if isinstance(first, PureState) != isinstance(second, PureState):
        raise DataFormatError("verify requires two states of the same kind")
    _require_same_shape(first, second)
    if witness.dims != first.shape.dims:
        raise DataFormatError("witness dims do not match the states")
    verify = verify_witness_pure if isinstance(first, PureState) else verify_witness_mixed
    try:
        with np.errstate(over="raise", invalid="raise"):
            check = verify(first, second, witness)
    except (ValueError, FloatingPointError) as exc:
        # a singular factor, a zero scale, or entries whose substitution
        # leaves the float range
        raise DataFormatError(f"invalid witness: {exc}") from None
    _print({
        "relative_residual": check.relative_residual,
        "passed": check.passed,
    })
    return 0 if check.passed else EXIT_INCONCLUSIVE


def _parse_fixture_params(text: Optional[str]) -> FixtureParams:
    if not text:
        return FixtureParams()
    kwargs = {}
    scalar = {"a", "b", "c", "alpha", "beta", "gamma"}
    for item in text.split(","):
        key, sep, val = item.partition("=")
        key = key.strip()
        val = val.strip()
        if not sep or not key or not val:
            raise UsageError(f"bad parameter {item!r}; use key=value")
        try:
            if key in ("lam", "mu"):
                kwargs[key] = tuple(float(x) for x in val.split(":"))
            elif key in scalar:
                kwargs[key] = float(val)
            else:
                raise UsageError(f"unknown parameter {key!r}")
        except ValueError:
            raise UsageError(f"parameter {key!r} has a non-numeric value") from None
    return FixtureParams(**kwargs)


def _write_json(path: str, obj: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_emit(obj) + "\n")


def _cmd_gen(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.example is not None:
        params = _parse_fixture_params(args.params)
        try:
            first, second = fixtures(args.example, params)
        except ValueError as exc:
            raise DataFormatError(str(exc)) from None
        names = [f"fixture{args.example}{tag}" for tag in ("a", "b")]
        objs = [state_object(state, name) for state, name in zip((first, second), names)]
    else:
        shape = SystemShape(_parse_dims(args.dims))
        rng = np.random.default_rng(seed)
        n = shape.side
        if args.random == "pure":
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            state = PureState(shape, v / np.linalg.norm(v))
        else:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rho = g @ g.conj().T
            state = MixedState(shape, rho / np.trace(rho).real)
        names = ["state_a"]
        objs = [state_object(state, "state_a")]
        if args.equivalent_pair:
            partner, fs = make_equivalent_pair(state, seed)
            names += ["state_b", "witness"]
            objs += [state_object(partner, "state_b"), witness_object(fs)]
    # the output directory is created only once every input has been accepted
    os.makedirs(args.out, exist_ok=True)
    written = []
    for name, obj in zip(names, objs):
        path = os.path.join(args.out, f"{name}.json")
        _write_json(path, obj)
        written.append(path)
    _print({"written": written})
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="statekit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"statekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("realign", help="rank report of one party's realignment")
    p.add_argument("file")
    p.add_argument("--party", type=int, required=True)
    p.set_defaults(func=_cmd_realign)

    p = sub.add_parser("factor", help="Kronecker decomposability report")
    p.add_argument("file")
    p.add_argument("--dims", default=None)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("classify", help="rank signature of a pure state")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("check-pure", help="equivalence verdict for two pure states")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_check_pure)

    p = sub.add_parser("check-mixed", help="equivalence verdict for two mixed states")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_check_mixed)

    p = sub.add_parser("verify", help="check a claimed witness by substitution")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("witness")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="write fixture or random state files")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--example", type=int, choices=(1, 2, 3, 4))
    group.add_argument("--random", choices=("pure", "mixed"))
    p.add_argument("--params", default=None)
    p.add_argument("--dims", default="2,2")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--equivalent-pair", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
