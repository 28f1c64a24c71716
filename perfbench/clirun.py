"""The `cli` workload: a fixed script of statekit invocations, one process
each, run one at a time from a scratch directory inside the checkout.

The script covers every subcommand on cheap inputs plus malformed calls
that must end with a documented usage, data or I/O exit code. Inputs are
written by the benchmark from the seed; the program only reads them.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

import tracing
import truth
import workloads as wl

DOCUMENTED_EXITS = {0, 1, 2, 64, 65, 66}
OUTCOME_EXITS = {"Equivalent": 0, "Inequivalent": 1, "Inconclusive": 2}
LAUNCH = "import sys; from statekit.cli import main; sys.exit(main())"
TRACED_LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_traced.py")
INVOCATION_TIMEOUT_S = 120


@dataclass(frozen=True)
class Invocation:
    name: str
    args: tuple[str, ...]
    expect: int
    pair: Optional[wl.Pair] = None  # set for verdict subcommands


def _pairs(z) -> list:
    return [[float(c.real), float(c.imag)] for c in np.asarray(z).reshape(-1)]


def _state(kind, dims, data) -> dict:
    return {"version": 1, "type": kind, "dims": list(dims), "data": _pairs(data)}


def _witness(factors) -> dict:
    return {"version": 1, "type": "witness", "dims": [f.shape[0] for f in factors],
            "factors": [_pairs(f) for f in factors], "scale": [1.0, 0.0]}


def build_script(seed: int, workdir: str) -> list[Invocation]:
    """Write the input files for `seed` and return the invocation script."""
    rng = np.random.default_rng([seed, 99])
    rho = wl.random_density(rng, (2, 2))
    local = wl.random_local_map(rng, (2, 2))
    image = wl.conjugate(rho, wl.kron_all(local))
    mixed = wl.Pair("cli-mixed", "mixed", (2, 2), rho, image, wl.EQUIVALENT, "random local map")
    r1, r2, label, basis = wl.mixed_rank_mismatch(rng, (2, 2))
    ranked = wl.Pair("cli-rank", "mixed", (2, 2), r1, r2, label, basis)
    p1, p2, label, basis = wl.pure_equivalent(rng, (2, 2, 2))
    pure = wl.Pair("cli-pure", "pure", (2, 2, 2), p1, p2, label, basis)
    f1, f2, label, basis = wl.fixture4_pair(0)
    fixture4 = wl.Pair("cli-f4", "pure", (2, 2, 2), f1, f2, label, basis)
    product = wl.kron_all(wl.random_local_map(rng, (2, 2, 2)))
    bad_trace = 0.5 * rho
    nan_state = p1.copy()
    nan_state[0] = np.nan

    files = {
        "m1.json": _state("mixed", (2, 2), rho),
        "m2.json": _state("mixed", (2, 2), image),
        "r1.json": _state("mixed", (2, 2), r1),
        "r2.json": _state("mixed", (2, 2), r2),
        "p1.json": _state("pure", (2, 2, 2), p1),
        "p2.json": _state("pure", (2, 2, 2), p2),
        "f4a.json": _state("pure", (2, 2, 2), f1),
        "f4b.json": _state("pure", (2, 2, 2), f2),
        "q22.json": _state("pure", (2, 2), wl.random_vector(rng, 4)),
        "k.json": _state("matrix", (2, 2, 2), product),
        "w.json": _witness([np.linalg.inv(f) for f in local]),
        "wsing.json": _witness([np.ones((2, 2)), np.eye(2)]),
        "badtrace.json": _state("mixed", (2, 2), bad_trace),
        "nan.json": _state("pure", (2, 2, 2), nan_state),
    }
    for name, obj in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, allow_nan=True)

    return [
        Invocation("gen", ("gen", "--random", "mixed", "--dims", "2,2", "--seed",
                           str(seed), "--equivalent-pair", "--out", "gen"), 0),
        Invocation("check-mixed", ("check-mixed", "m1.json", "m2.json"), 0, mixed),
        Invocation("check-mixed-rank", ("check-mixed", "r1.json", "r2.json"), 1, ranked),
        Invocation("check-pure", ("check-pure", "p1.json", "p2.json"), 0, pure),
        Invocation("check-pure-f4", ("check-pure", "f4a.json", "f4b.json"), 1, fixture4),
        Invocation("verify", ("verify", "m1.json", "m2.json", "w.json"), 0),
        Invocation("classify", ("classify", "p1.json"), 0),
        Invocation("factor", ("factor", "k.json"), 0),
        Invocation("bad-trace", ("check-mixed", "badtrace.json", "badtrace.json"), 65),
        Invocation("missing-file", ("check-mixed", "missing.json", "m2.json"), 66),
        Invocation("unknown-command", ("frobnicate",), 64),
        # The calls below escape as tracebacks at the time of writing; they
        # stay so that the fix shows in error_share and solved_share.
        Invocation("gen-bad-dims", ("gen", "--random", "pure", "--dims", "1,2", "--out", "gen"), 64),
        Invocation("factor-bad-dims", ("factor", "k.json", "--dims", "x"), 64),
        Invocation("check-pure-shape-mismatch", ("check-pure", "p1.json", "q22.json"), 65),
        Invocation("verify-singular-witness", ("verify", "m1.json", "m2.json", "wsing.json"), 65),
        Invocation("nan-state", ("check-pure", "nan.json", "nan.json"), 65),
    ]


def child_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    env.pop("SLOCC_SEED", None)
    return env


def _verdict_solved(inv: Invocation, code: int, stdout: str) -> tuple[bool, bool]:
    try:
        report = json.loads(stdout)
        outcome = report["outcome"]
    except (ValueError, KeyError, TypeError):
        return False, False
    factors, scale = None, 1.0
    if outcome == "Equivalent":
        try:
            w = report["witness"]
            factors = [
                np.array([complex(re, im) for re, im in f]).reshape(d, d)
                for f, d in zip(w["factors"], w["dims"])
            ]
            scale = complex(*w["scale"])
        except (KeyError, TypeError, ValueError):
            factors = None
    solved, unsound = truth.score(inv.pair, outcome, factors, scale)
    return solved and code == OUTCOME_EXITS.get(outcome), unsound


def run_one(inv: Invocation, cycle: int, workdir: str, env: dict, traced: bool) -> dict:
    """Spawn one invocation, time it from spawn to exit, and judge it. The
    record's id is the invocation's name and its cycle."""
    spans_path = os.path.join(workdir, "spans.json")
    if traced:
        argv = [sys.executable, "-X", "importtime", TRACED_LAUNCHER, spans_path, *inv.args]
    else:
        argv = [sys.executable, "-c", LAUNCH, *inv.args]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"id": f"{inv.name}-{cycle}", "t": time.perf_counter() - start, "exit_code": None,
                "failed": True, "error": True, "solved": False, "unsound": False,
                "traceback": False}
    elapsed = time.perf_counter() - start
    code = proc.returncode
    traceback = "Traceback (most recent call last)" in proc.stderr
    if inv.pair is not None:
        solved, unsound = _verdict_solved(inv, code, proc.stdout)
    elif inv.name == "verify":
        solved, unsound = code == 0 and '"passed":true' in proc.stdout, False
    else:
        solved, unsound = code == inv.expect and not traceback, False
    rec = {
        "id": f"{inv.name}-{cycle}",
        "t": elapsed,
        "exit_code": code,
        "expect": inv.expect,
        "stdout_sha256": hashlib.sha256(proc.stdout.encode()).hexdigest(),
        "traceback": traceback,
        "failed": code not in DOCUMENTED_EXITS,
        "error": traceback or code not in DOCUMENTED_EXITS,
        "solved": solved,
        "unsound": unsound,
    }
    if traced:
        try:
            with open(spans_path, encoding="utf-8") as fh:
                dump = json.load(fh)
            os.remove(spans_path)
        except (OSError, ValueError):
            dump = {"import_s": 0.0, "spans": []}
        rec["import_s"] = dump["import_s"]
        rec["spans"] = dump["spans"]
        rec["import_s_scipy"] = tracing.scipy_import_s(proc.stderr)
    return rec
