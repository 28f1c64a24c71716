"""Spans around the program's public functions, and the per-layer metrics
computed from them.

Tracing lives entirely in the benchmark: `installed` swaps each public
function of statekit's modules, and the numpy.linalg kernels they call, for a
wrapper that records a span, and restores the originals on exit. A function
imported into another module is wrapped there too, so every call site is
seen. Spans are named after the defining module, except those in
CALLER_ATTRIBUTED, which take the name of the module they were called
through (pure's calls to mixed.gauge_search are `pure.gauge_search`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import re
import statistics
import time
from collections import defaultdict

LAYERS = ("linalg", "factor", "mixed", "pure", "oracle", "cli")
CALLER_ATTRIBUTED = {"gauge_search"}
NUMPY_KERNELS = {"svd": "linalg.np_svd", "lstsq": "linalg.np_lstsq", "eigh": "linalg.np_eigh"}

# Reason text -> route code, first match wins. Inconclusive reasons can hold
# several notes, so the note that ended the search is listed first.
MIXED_ROUTES = [
    ("decomposable connector over eigenbases", "eigenbases"),
    ("connector composed through filtered frames", "filtered_frames"),
    ("global rank mismatch", "global_rank"),
    ("reduced rank mismatch", "reduced_rank"),
    ("filtered spectra mismatch", "filtered_spectra_mismatch"),
    ("filtering did not converge", "filtering_not_converged"),
    ("degenerate", "degenerate_spectrum"),
    ("support ranks differ", "support_borderline"),
    ("no decomposable connector", "no_connector"),
]
PURE_ROUTES = [
    ("identical amplitudes", "identical"),
    ("two singular decompositions", "schmidt"),
    ("Schmidt ranks differ", "schmidt_rank"),
    ("rank signature differs", "rank_signature"),
    ("remainder equivalent", "product_factor"),
    ("after factoring party", "product_factor_inequivalent"),
    ("remainder is inconclusive", "product_factor_inconclusive"),
    ("diagonal connectors over the singular frames", "svd_frames"),
    ("product-vector pairing", "product_vectors"),
    ("no verifiable connector", "no_connector"),
    ("single-party rotation", "single_party"),
    ("failed verification", "witness_failed"),
]
EXIT_CODES = ("0", "1", "2", "64", "65", "66")


def route_code(routes, reason: str) -> str:
    for text, code in routes:
        if text in reason:
            return code
    return "other"


def _tag(name: str, result):
    """The outcome of one call that a counter needs, or None."""
    short = name.split(".", 1)[1]
    if short == "gauge_search":
        return "miss" if result is None else "hit"
    if short == "normal_form":
        return "none" if result is None else None
    if short == "invariant_screen":
        return "decided" if result is not None else None
    if short == "cluster_pairings":
        return len(result) if result is not None else 0
    if short.startswith("verify_witness"):
        return None if result.passed else "rejected"
    if short in ("check_mixed_equivalence", "check_pure_equivalence"):
        return result.reason
    if short == "main":
        return result
    return None


class Tracer:
    """In-memory spans: [name, start, end, parent index, tag]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, self.clock(), None, self._stack[-1] if self._stack else None, None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = "raised:" + type(exc).__name__
                raise
            finally:
                self._stack.pop()
                span[2] = self.clock()
            try:
                span[4] = _tag(name, result)
            except Exception:  # a changed result type must not break the call
                span[4] = "untagged"
            return result

        return traced


def _targets():
    """(owner, attribute, span name) for every function to wrap."""
    import numpy.linalg

    out = [(numpy.linalg, attr, span) for attr, span in NUMPY_KERNELS.items()]
    for layer in LAYERS:
        mod = importlib.import_module(f"statekit.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = getattr(obj, "__module__", "") or ""
            if not home.startswith("statekit."):
                continue
            owner_layer = layer if attr in CALLER_ATTRIBUTED else home.split(".")[1]
            out.append((mod, attr, f"{owner_layer}.{attr}"))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    saved = []
    try:
        for owner, attr, span in _targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(span, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ------------------------------------------------------------------ metrics


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (end - start) - _union_length(children[i])
        for i, (name, start, end, parent, _) in enumerate(spans)
    ]


def _outermost(spans, i) -> bool:
    name, parent = spans[i][0], spans[i][3]
    while parent is not None:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = [
        ("mixed.check.calls", "count"), ("mixed.check.self_s", "s"),
        ("mixed.invariant_screen.s", "s"), ("mixed.invariant_screen.decided", "count"),
        ("mixed.spectral_prep.s", "s"),
        ("mixed.normal_form.calls", "count"), ("mixed.normal_form.s", "s"),
        ("mixed.normal_form.none", "count"),
        ("mixed.gauge_search.calls", "count"), ("mixed.gauge_search.hits", "count"),
        ("mixed.gauge_search.hit_ratio", "ratio"), ("mixed.gauge_search.hit_s", "s"),
        ("mixed.gauge_search.miss_s", "s"), ("mixed.cluster_pairings.pairings", "count"),
    ]
    names += [(f"mixed.route.{code}", "count") for _, code in MIXED_ROUTES]
    names += [("mixed.route.other", "count")]
    names += [
        ("pure.check.calls", "count"), ("pure.check.self_s", "s"),
        ("pure.rank_signature.s", "s"), ("pure.check_bipartite.s", "s"),
        ("pure.gauge_search.calls", "count"), ("pure.gauge_search.hits", "count"),
        ("pure.gauge_search.hit_s", "s"), ("pure.gauge_search.miss_s", "s"),
    ]
    names += [(f"pure.route.{code}", "count") for _, code in PURE_ROUTES]
    names += [("pure.route.other", "count")]
    names += [
        ("factor.extract_factors.calls", "count"), ("factor.extract_factors.s", "s"),
        ("factor.extract_factors.not_decomposable", "count"), ("factor.decomposability.s", "s"),
        ("oracle.verify.calls", "count"), ("oracle.verify.s", "s"),
        ("oracle.verify.rejected", "count"),
        ("linalg.np_svd.calls", "count"), ("linalg.np_svd.s", "s"),
        ("linalg.np_lstsq.calls", "count"), ("linalg.np_lstsq.s", "s"),
        ("linalg.np_eigh.calls", "count"), ("linalg.np_eigh.s", "s"),
        ("linalg.decisive_rank.s", "s"), ("linalg.realign.calls", "count"),
        ("cli.main.calls", "count"), ("cli.main.self_s", "s"), ("cli.parse_state.s", "s"),
        ("cli.import_s", "s"), ("cli.import_s.scipy", "s"),
    ]
    names += [(f"cli.exit_code.{code}", "count") for code in EXIT_CODES]
    names += [("cli.exit_code.other", "count"), ("cli.tracebacks", "count"),
              ("trace.overhead_ratio", "ratio")]
    return names


def layer_metrics(spans, cli_runs=()) -> dict[str, float]:
    """Per-layer metrics from spans. `cli_runs` holds one dict per traced CLI
    launch: its exit code, import times and whether stderr had a traceback."""
    own = self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    tags = defaultdict(lambda: defaultdict(int))
    tagged_s = defaultdict(lambda: defaultdict(float))
    pairings = 0
    mixed_routes = defaultdict(int)
    pure_routes = defaultdict(int)
    for i, (name, start, end, parent, tag) in enumerate(spans):
        calls[name] += 1
        self_s[name] += own[i]
        outer = _outermost(spans, i)
        if outer:
            busy[name] += end - start
        if name == "mixed.cluster_pairings":
            pairings += tag or 0
        elif name == "mixed.check_mixed_equivalence" and isinstance(tag, str):
            mixed_routes[route_code(MIXED_ROUTES, tag)] += 1
        elif name == "pure.check_pure_equivalence" and isinstance(tag, str) and outer:
            pure_routes[route_code(PURE_ROUTES, tag)] += 1
        elif isinstance(tag, str):
            kind = "raised" if tag.startswith("raised") else tag
            tags[name][kind] += 1
            tagged_s[name][kind] += end - start

    def verify(field):
        names = ("oracle.verify_witness_mixed", "oracle.verify_witness_pure")
        if field == "calls":
            return sum(calls[n] for n in names)
        if field == "s":
            return sum(busy[n] for n in names)
        return sum(tags[n]["rejected"] + tags[n]["raised"] for n in names)

    m = {
        "mixed.check.calls": calls["mixed.check_mixed_equivalence"],
        "mixed.check.self_s": self_s["mixed.check_mixed_equivalence"],
        "mixed.invariant_screen.s": busy["mixed.invariant_screen"],
        "mixed.invariant_screen.decided": tags["mixed.invariant_screen"]["decided"],
        "mixed.spectral_prep.s": busy["mixed.spectral_prep"],
        "mixed.normal_form.calls": calls["mixed.normal_form"],
        "mixed.normal_form.s": busy["mixed.normal_form"],
        "mixed.normal_form.none": tags["mixed.normal_form"]["none"],
        "mixed.cluster_pairings.pairings": pairings,
        "pure.check.calls": calls["pure.check_pure_equivalence"],
        "pure.check.self_s": self_s["pure.check_pure_equivalence"],
        "pure.rank_signature.s": busy["pure.rank_signature"],
        "pure.check_bipartite.s": busy["pure.check_bipartite"],
        "factor.extract_factors.calls": calls["factor.extract_factors"],
        "factor.extract_factors.s": busy["factor.extract_factors"],
        "factor.extract_factors.not_decomposable": tags["factor.extract_factors"]["raised"],
        "factor.decomposability.s": busy["factor.decomposability"],
        "oracle.verify.calls": verify("calls"),
        "oracle.verify.s": verify("s"),
        "oracle.verify.rejected": verify("rejected"),
        "linalg.decisive_rank.s": busy["linalg.decisive_rank"],
        "linalg.realign.calls": calls["linalg.realign"],
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.parse_state.s": busy["cli.parse_state"],
    }
    for layer in ("mixed", "pure"):
        name = f"{layer}.gauge_search"
        hits = tags[name]["hit"]
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.hits"] = hits
        m[f"{name}.hit_s"] = tagged_s[name]["hit"]
        m[f"{name}.miss_s"] = tagged_s[name]["miss"]
        if layer == "mixed":
            m[f"{name}.hit_ratio"] = hits / calls[name] if calls[name] else 0.0
    for kernel in NUMPY_KERNELS.values():
        m[f"{kernel}.calls"] = calls[kernel]
        m[f"{kernel}.s"] = busy[kernel]
    for _, code in MIXED_ROUTES + [("", "other")]:
        m[f"mixed.route.{code}"] = mixed_routes[code]
    for _, code in PURE_ROUTES + [("", "other")]:
        m[f"pure.route.{code}"] = pure_routes[code]
    exits = defaultdict(int)
    for run in cli_runs:
        code = str(run["exit_code"])
        exits[code if code in EXIT_CODES else "other"] += 1
    for code in EXIT_CODES + ("other",):
        m[f"cli.exit_code.{code}"] = exits[code]
    m["cli.tracebacks"] = sum(1 for run in cli_runs if run["traceback"])
    m["cli.import_s"] = statistics.median([r["import_s"] for r in cli_runs]) if cli_runs else 0.0
    m["cli.import_s.scipy"] = (
        statistics.median([r["import_s_scipy"] for r in cli_runs]) if cli_runs else 0.0
    )
    return m


IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)\s*$")


def scipy_import_s(stderr: str) -> float:
    """Seconds spent in scipy's own modules, from `-X importtime` lines."""
    total_us = 0
    for line in stderr.splitlines():
        hit = IMPORTTIME.match(line)
        if hit and hit.group(4).split(".")[0] == "scipy":
            total_us += int(hit.group(1))
    return total_us * 1e-6
