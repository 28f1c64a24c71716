"""Command-line surface: state files, verdict reports, and subcommands.

State files are JSON with complex entries as [re, im] pairs. Verdict reports
are emitted on standard output as deterministic byte streams: fixed key
order, floats at 17 significant digits, diagnostics on standard error. Exit
codes: 0 Equivalent (or plain success), 1 Inequivalent, 2 Inconclusive (or a
failed witness check), 64 usage, 65 bad data, 66 unreadable file, 70 internal
error (any other exception, such as running out of memory, reported on one
line of standard error).

Usage, I/O and format errors are reported before numpy is imported, so they
return at once: each subcommand imports numpy and the statekit modules it
runs only after its arguments and input files have passed those checks, and
--dims is checked before any file is read. The data refusals that the state
and witness types make wait for numpy: a density matrix's trace,
Hermiticity and positivity, a pure state's norm, and a singular witness
factor.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
from typing import TYPE_CHECKING, Optional

from . import __version__

if TYPE_CHECKING:
    import numpy as np

    from .factor import FactorSet
    from .oracle import FixtureParams, Verdict

EXIT_EQUIVALENT = 0
EXIT_INEQUIVALENT = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_IO = 66
EXIT_SOFTWARE = 70

# The most complex entries `gen --random` writes: n for a pure state and n**2
# for a density matrix, where n is the product of the dims (256 MiB of numpy
# complex numbers, before the JSON text).
_GEN_MAX_ENTRIES = 2**24

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
    if not math.isfinite(x):
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
    # numpy registers its integer and floating scalars with both classes
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
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


def _vector_pairs(v: np.ndarray) -> list:
    return [_pair(z) for z in v.reshape(-1)]


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
    """`count` [re, im] pairs of finite numbers as a complex vector; the
    errors name `what`. Every entry is checked before numpy loads."""
    if not isinstance(data, list) or len(data) != count:
        raise DataFormatError(f"{what} must hold {count} entries")
    values = []
    for i, cell in enumerate(data):
        if (
            not isinstance(cell, list)
            or len(cell) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in cell)
        ):
            raise DataFormatError(f"entry {i} of {what} must be a [re, im] pair of numbers")
        if not (_finite(cell[0]) and _finite(cell[1])):
            raise DataFormatError(f"entry {i} of {what} is not finite")
        values.append(complex(cell[0], cell[1]))
    import numpy as np

    return np.array(values, dtype=complex)


def _state_header(src: str) -> tuple[dict, str, tuple[int, ...]]:
    """A state file's JSON object, kind and dims, with its header checked
    and its data not yet read."""
    obj = _load_source(src)
    return (obj, *_check_header(obj, ("pure", "mixed")))


def _state_from(obj: dict, kind: str, dims: tuple[int, ...]):
    """The pure or mixed state of a checked header (_state_header)."""
    n = math.prod(dims)
    count, what = (n, "a pure state") if kind == "pure" else (n * n, "a density matrix")
    data = _complex_array(obj.get("data"), count, f"{what} over dims {list(dims)}")
    from .linalg import SystemShape

    shape = SystemShape(dims)
    if kind == "pure":
        from .pure import PureState

        try:
            return PureState(shape, data)
        except ValueError as exc:
            raise DataFormatError(f"invalid pure state: {exc}") from None
    from .mixed import MixedState

    try:
        return MixedState(shape, data.reshape(n, n))
    except ValueError as exc:
        raise DataFormatError(f"invalid density matrix: {exc}") from None


def parse_state(src: str):
    """Parse a state file (path or JSON text) into a pure or mixed state."""
    return _state_from(*_state_header(src))


def _parse_matrix(src: str) -> tuple[np.ndarray, tuple[int, ...]]:
    """Load a square matrix with party structure from a matrix or mixed file."""
    obj = _load_source(src)
    kind, dims = _check_header(obj, ("matrix", "mixed"))
    n = math.prod(dims)
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
    scale = _complex_array([obj.get("scale", [1.0, 0.0])], 1, "the witness scale")
    from .factor import FactorSet

    return FactorSet(tuple(mats), complex(scale[0]))


def _is_pure(state) -> bool:
    """Whether a state is a PureState, told without importing statekit.pure:
    a MixedState holds `rho` where a PureState holds `amplitudes`."""
    return hasattr(state, "amplitudes")


def state_object(state, label: Optional[str] = None) -> dict:
    pure = _is_pure(state)
    obj = {
        "version": 1,
        "type": "pure" if pure else "mixed",
        "dims": list(state.shape.dims),
        "data": _vector_pairs(state.amplitudes if pure else state.rho),
    }
    if label is not None:
        obj["label"] = label
    return obj


def witness_object(fs: FactorSet) -> dict:
    return {
        "version": 1,
        "type": "witness",
        "dims": list(fs.dims),
        "factors": [_vector_pairs(f) for f in fs.factors],
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


def _parse_dims(text: str) -> tuple[int, ...]:
    """Party dimensions from a comma-separated --dims value."""
    try:
        dims = tuple(int(d) for d in text.split(","))
    except ValueError:
        dims = ()
    if not dims or min(dims) < 2:
        raise UsageError(f"--dims must list integers of at least 2, got {text!r}")
    return dims


def _require_same_dims(first: tuple[int, ...], second: tuple[int, ...]):
    if first != second:
        raise DataFormatError(f"states have different dims ({list(first)} vs {list(second)})")


def _cmd_realign(args) -> int:
    matrix, dims = _parse_matrix(args.file)
    k = len(dims)
    if not 1 <= args.party <= k:
        raise UsageError(f"--party must be between 1 and {k}")
    from .linalg import bipartition_view, rank_report, realign

    view = bipartition_view(matrix, dims, args.party)
    m = dims[args.party - 1]
    n = math.prod(dims) // m
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
    # --dims is checked before the file is read
    dims = _parse_dims(args.dims) if args.dims else None
    matrix, file_dims = _parse_matrix(args.file)
    dims = dims or file_dims
    if math.prod(dims) != matrix.shape[0]:
        raise DataFormatError(
            f"dims {list(dims)} do not match matrix side {matrix.shape[0]}"
        )
    from .factor import NotDecomposable, decomposability, extract_factors

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
        out["factors"] = [_vector_pairs(f) for f in fs.factors]
        out["scale"] = _pair(fs.scale)
    except NotDecomposable as exc:
        out["error"] = str(exc)
    _print(out)
    return 0


def _cmd_classify(args) -> int:
    # the kind is refused from the header, before the data is read
    obj, kind, dims = _state_header(args.file)
    if kind != "pure":
        raise DataFormatError("classify requires a pure state file")
    state = _state_from(obj, kind, dims)
    from .pure import rank_signature

    sig = rank_signature(state)
    _print({
        "dims": list(state.shape.dims),
        "signature": [{"cut": list(cut), "rank": rank} for cut, rank in sig.entries.items()],
    })
    return 0


def _cmd_check(args) -> int:
    # both headers are checked, and a kind or dims mismatch refused, before
    # either file's data is read
    heads = [_state_header(src) for src in (args.first, args.second)]
    kind = args.command.removeprefix("check-")
    if any(k != kind for _, k, _ in heads):
        raise DataFormatError(f"{args.command} requires two {kind} state files")
    _require_same_dims(heads[0][2], heads[1][2])
    first, second = (_state_from(*head) for head in heads)
    if kind == "pure":
        from .pure import check_pure_equivalence as check
    else:
        from .mixed import check_mixed_equivalence as check
    verdict = check(first, second)
    _print(_verdict_report(verdict))
    return _OUTCOME_CODES[verdict.outcome]


def _cmd_verify(args) -> int:
    # as in _cmd_check, the states' headers come before their data
    heads = [_state_header(src) for src in (args.first, args.second)]
    (_, kind1, dims1), (_, kind2, dims2) = heads
    if kind1 != kind2:
        raise DataFormatError("verify requires two states of the same kind")
    _require_same_dims(dims1, dims2)
    first, second = (_state_from(*head) for head in heads)
    witness = parse_witness(args.witness)
    if witness.dims != first.shape.dims:
        raise DataFormatError("witness dims do not match the states")
    import numpy as np

    from .oracle import verify_witness_mixed, verify_witness_pure

    verify = verify_witness_pure if _is_pure(first) else verify_witness_mixed
    try:
        with np.errstate(over="raise", invalid="raise"):
            check = verify(first, second, witness)
    except (ValueError, FloatingPointError) as exc:
        # a singular factor, a zero scale, or entries whose substitution
        # leaves the float range
        raise DataFormatError(f"invalid witness: {exc}") from None
    _print({
        "relative_residual": check.relative_residual,
        "backward_error": check.backward_error,
        "passed": check.passed,
    })
    return 0 if check.passed else EXIT_INCONCLUSIVE


def _parse_fixture_params(text: Optional[str]) -> FixtureParams:
    kwargs = {}
    scalar = {"a", "b", "c", "alpha", "beta", "gamma"}
    for item in text.split(",") if text else ():
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
    from .oracle import FixtureParams

    return FixtureParams(**kwargs)


def _write_json(path: str, obj: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_emit(obj) + "\n")


def _cmd_gen(args) -> int:
    if args.seed < 0:  # numpy's generators take only non-negative seeds
        raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
    if args.example is not None:
        params = _parse_fixture_params(args.params)
        from .oracle import fixtures

        try:
            first, second = fixtures(args.example, params)
        except ValueError as exc:
            raise DataFormatError(str(exc)) from None
        names = [f"fixture{args.example}{tag}" for tag in ("a", "b")]
        objs = [state_object(state, name) for state, name in zip((first, second), names)]
    else:
        dims = _parse_dims(args.dims)
        n = math.prod(dims)
        entries = n if args.random == "pure" else n * n
        if entries > _GEN_MAX_ENTRIES:
            raise UsageError(
                f"a {args.random} state over dims {list(dims)} has {entries} entries; "
                f"gen writes at most 2**24 = {_GEN_MAX_ENTRIES}"
            )
        import numpy as np

        from .linalg import SystemShape

        shape = SystemShape(dims)
        rng = np.random.default_rng(args.seed)
        if args.random == "pure":
            from .pure import PureState

            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            state = PureState(shape, v / np.linalg.norm(v))
        else:
            from .mixed import MixedState

            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rho = g @ g.conj().T
            state = MixedState(shape, rho / np.trace(rho).real)
        names = ["state_a"]
        objs = [state_object(state, "state_a")]
        if args.equivalent_pair:
            from .oracle import make_equivalent_pair

            partner, fs = make_equivalent_pair(state, args.seed)
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

    for kind in ("pure", "mixed"):
        p = sub.add_parser(f"check-{kind}", help=f"equivalence verdict for two {kind} states")
        p.add_argument("first")
        p.add_argument("second")
        p.set_defaults(func=_cmd_check)

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
    p.add_argument("--seed", type=int, default=0)
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
    except Exception as exc:
        # an uncaught exception would exit 1, the Inequivalent code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
