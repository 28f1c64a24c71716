"""statekit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a statekit checkout; the program is imported from its
`src/` directory. The run measures a fixed number of whole cycles of the
workload's pairs, one verdict at a time (a closed loop with one client): S
divided by the workload's nominal cycle time. The count depends on S alone,
never on how fast the program is, so every commit sees the same pairs and
the same percentiles. With `--trace 0` it reports the end-to-end metrics.
With `--trace 1` it runs each pair of the same cycles under the tracer and
then at once untraced, and reports the per-layer metrics; its end-to-end
lines come from the untraced calls. Every verdict is checked against the
pair's ground truth; the run exits 1 if any verdict is unsound. The last line of standard
output is one JSON object; the lines before it print every metric with its
unit. A per-pair record goes to `.bench_out/`.
"""

import os

# Pinned before numpy is imported, here and in every process started.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import clirun  # noqa: E402
import tracing  # noqa: E402
import truth  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("mixed-random", "mixed-structured", "pure", "cli")
# Set-up launches: half before the workload and half after, so that the
# median spans the run; one untimed launch first writes the bytecode caches.
SETUP_LAUNCHES = 6
# Nominal seconds of verdict time per cycle: the median cycle time over seeds
# 1-10 on 2 shared vCPUs at the baseline commit, so that a run lasts about
# --seconds. A run covers round(seconds / this) whole cycles: a count fixed by
# --seconds alone, so the sample count, the tail percentile and the per-layer
# call counts repeat exactly for a seed whatever the program's speed.
CYCLE_S = {"mixed-random": 4.9, "mixed-structured": 4.7, "pure": 0.94, "cli": 11.8}
END_TO_END = [
    ("verdict_s.p50", "s"), ("verdict_s.tail", "s"), ("verdicts_per_s", "1/s"),
    ("solved_share", "share"), ("unsound_count", "count"), ("error_share", "share"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
]
# All are printed for every run; the result line carries the bounded ones.
# unsound_count and error_share are 0 on most workloads, so they enter it as
# `correct` and `failed`. verdict_s.p50 and verdict_s.tail spread by up to a
# third from run to run on a shared 2-vCPU machine, more than the largest
# bound allowed, so they are printed and recorded but not bounded.
UNBOUNDED = ("unsound_count", "error_share", "verdict_s.p50", "verdict_s.tail")
RESULT_METRICS = [m for m in END_TO_END if m[0] not in UNBOUNDED]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (nearest
    rank); 50 when there are too few samples for any tail."""
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 50


def nearest_rank(sorted_values, p: int) -> float:
    return sorted_values[max(0, math.ceil(p * len(sorted_values) / 100) - 1)]


def summarize(records) -> dict:
    """End-to-end figures from per-verdict records."""
    times = [r["t"] for r in records if not r["failed"]]
    pct = tail_percentile(len(times))
    n = len(records)
    return {
        "samples": len(times),
        "tail_percentile": pct,
        "verdict_s.p50": statistics.median(times) if times else float("nan"),
        "verdict_s.tail": nearest_rank(sorted(times), pct) if times else float("nan"),
        # failed calls add their time but no verdict
        "verdicts_per_s": len(times) / _total_t(records),
        "solved_share": sum(r["solved"] for r in records) / n,
        "unsound_count": sum(r["unsound"] for r in records),
        "error_share": sum(r["error"] for r in records) / n,
    }


def environment() -> dict:
    import numpy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def measure_setup(root: Path, env: dict, launches: int) -> list[float]:
    """Wall times of fresh interpreters importing statekit.cli."""
    argv = [sys.executable, "-c", "import statekit.cli"]
    times = []
    for _ in range(launches):
        start = time.perf_counter()
        subprocess.run(argv, cwd=root, env=env, check=True, capture_output=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


# ------------------------------------------------------------ library runs


def _verdict(pair, states) -> dict:
    import statekit.mixed
    import statekit.pure

    # looked up on every call, so a traced run reaches the wrapped function
    if pair.kind == "mixed":
        check = statekit.mixed.check_mixed_equivalence
    else:
        check = statekit.pure.check_pure_equivalence
    start = time.perf_counter()
    try:
        verdict = check(*states)
    except Exception as exc:  # a raising call is a failed operation, not a crash
        return {"id": pair.pair_id, "label": pair.label, "t": time.perf_counter() - start,
                "outcome": "raised", "reason": f"{type(exc).__name__}: {exc}",
                "solved": False, "unsound": False, "failed": True, "error": True}
    elapsed = time.perf_counter() - start
    witness = verdict.witness
    solved, unsound = truth.score(
        pair, verdict.outcome,
        None if witness is None else witness.factors,
        1.0 if witness is None else witness.scale,
    )
    return {"id": pair.pair_id, "label": pair.label, "t": elapsed, "outcome": verdict.outcome,
            "reason": verdict.reason, "solved": solved, "unsound": unsound,
            "failed": False, "error": False}


def _states(pair):
    from statekit import MixedState, PureState, SystemShape

    shape = SystemShape(pair.dims)
    make = MixedState if pair.kind == "mixed" else PureState
    return make(shape, pair.first), make(shape, pair.second)


def run_library(name: str, seed: int, seconds: float, trace: bool):
    recipes = wl.LIBRARY[name]
    items = [(p, _states(p)) for c in range(cycles(name, seconds))
             for p in wl.build_cycle(recipes, seed, c)]
    _verdict(*items[0])  # warm-up, not measured
    if not trace:
        return [_verdict(p, s) for p, s in items], None
    # Each pair runs traced and then untraced at once, so that both timings
    # see the same load on a shared host and their ratio is the overhead.
    tracer = tracing.Tracer()
    traced, records = [], []
    for p, s in items:
        with tracing.installed(tracer):
            traced.append(_verdict(p, s))
        records.append(_verdict(p, s))
    layer = tracing.layer_metrics(tracer.spans)
    layer["trace.overhead_ratio"] = _total_t(traced) / _total_t(records)
    return records, layer


def _total_t(records) -> float:
    return sum(r["t"] for r in records)


def cycles(name: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_S[name]))


# ---------------------------------------------------------------- cli run


def run_cli(out: Path, env: dict, seed: int, seconds: float, trace: bool):
    workdir = tempfile.mkdtemp(prefix="cli-", dir=out)
    try:
        script = clirun.build_script(seed, workdir)
        items = [(inv, c) for c in range(cycles("cli", seconds)) for inv in script]
        if not trace:
            return [clirun.run_one(inv, c, workdir, env, False) for inv, c in items], None
        traced, records = [], []
        for inv, c in items:
            traced.append(clirun.run_one(inv, c, workdir, env, True))
            records.append(clirun.run_one(inv, c, workdir, env, False))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spans = []
    for rec in traced:
        base = len(spans)
        spans += [[n, s, e, None if p is None else p + base, tag]
                  for n, s, e, p, tag in rec.pop("spans")]
    layer = tracing.layer_metrics(spans, traced)
    layer["trace.overhead_ratio"] = _total_t(traced) / _total_t(records)
    return records, layer


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "statekit" / "__init__.py").is_file():
        print(f"no statekit source under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    env = clirun.child_env(str(src))
    measure_setup(root, env, 1)
    setup = measure_setup(root, env, SETUP_LAUNCHES // 2)
    if args.workload == "cli":
        records, layer = run_cli(out, env, args.seed, args.seconds, bool(args.trace))
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    else:
        records, layer = run_library(args.workload, args.seed, args.seconds, bool(args.trace))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    setup += measure_setup(root, env, SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
    figures = summarize(records)
    figures["setup_s"] = statistics.median(setup)
    figures["peak_rss_mb"] = rss
    env_info = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env_info, sort_keys=True))
    for metric, unit in END_TO_END:
        note = ""
        if metric == "verdict_s.p50":
            note = f"  (n={figures['samples']})"
        elif metric == "verdict_s.tail":
            note = f"  (p{figures['tail_percentile']})"
        print(f"{metric:<16} {figures[metric]:.6g} {unit}{note}")
    if layer is not None:
        units = dict(tracing.per_layer_names())
        for metric, unit in units.items():
            print(f"{metric:<44} {layer[metric]:.6g} {unit}")
        result = {m: {"value": layer[m], "unit": u} for m, u in units.items()}
    else:
        result = {m: {"value": figures[m], "unit": u} for m, u in RESULT_METRICS}

    record_path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "env": env_info, "figures": figures,
                   "per_layer": layer, "pairs": records}, fh, indent=1)
    print(f"record {record_path.relative_to(root)}")
    unsound = figures["unsound_count"]
    print(json.dumps({
        "correct": unsound == 0,
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
        "metrics": result,
    }))
    return 1 if unsound else 0


if __name__ == "__main__":
    sys.exit(main())
