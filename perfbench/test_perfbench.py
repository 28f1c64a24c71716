"""Self-tests for the benchmark. Run from the checkout root with

    python3 -m pytest perfbench
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import truth  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_children_on_a_fake_clock():
    # ticks: root opens, mid opens, leaf opens, leaf closes, mid closes,
    # leaf opens, leaf closes, root closes
    tracer = tracing.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 8.5, 10.0]))
    leaf = tracer.wrap("linalg.leaf", lambda: None)
    mid = tracer.wrap("factor.mid", lambda: leaf())

    def body():
        mid()
        leaf()

    tracer.wrap("mixed.root", body)()
    assert [s[0] for s in tracer.spans] == ["mixed.root", "factor.mid", "linalg.leaf", "linalg.leaf"]
    assert [s[3] for s in tracer.spans] == [None, 0, 1, 0]
    assert tracing.self_times(tracer.spans) == pytest.approx([3.5, 3.0, 1.0, 2.5])


def test_self_time_arithmetic_on_hand_made_spans():
    spans = [
        ["mixed.root", 0.0, 10.0, None, None],
        ["factor.mid", 1.0, 5.0, 0, None],
        ["linalg.leaf", 2.0, 3.0, 1, None],
        ["linalg.leaf", 6.0, 8.5, 0, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.5, 3.0, 1.0, 2.5])


def test_overlapping_children_are_counted_once():
    spans = [["a.x", 0.0, 10.0, None, None], ["a.y", 1.0, 4.0, 0, None],
             ["a.z", 3.0, 6.0, 0, None]]
    assert tracing.self_times(spans)[0] == pytest.approx(5.0)


def test_recursive_spans_count_busy_time_once():
    spans = [
        ["pure.check_pure_equivalence", 0.0, 4.0, None, "no verifiable connector"],
        ["pure.check_pure_equivalence", 1.0, 3.0, 0, "no verifiable connector"],
        ["pure.gauge_search", 1.5, 2.0, 1, "miss"],
        ["mixed.gauge_search", 5.0, 7.0, None, "hit"],
    ]
    m = tracing.layer_metrics(spans)
    assert m["pure.check.calls"] == 2
    assert m["pure.check.self_s"] == pytest.approx(3.5)
    assert m["pure.route.no_connector"] == 1
    assert m["pure.gauge_search.miss_s"] == pytest.approx(0.5)
    assert m["mixed.gauge_search.hit_s"] == pytest.approx(2.0)
    assert m["mixed.gauge_search.hit_ratio"] == 1.0


def test_every_metric_name_is_well_formed_and_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared_e2e = [m["name"] for m in bench["end_to_end"]]
    declared_layer = [m["name"] for m in bench["per_layer"]]
    for name in declared_e2e + declared_layer + [n for n, _ in run.END_TO_END]:
        assert NAME.fullmatch(name), name
    assert declared_e2e == [n for n, _ in run.RESULT_METRICS]
    assert declared_layer == [n for n, _ in tracing.per_layer_names()]
    assert set(tracing.layer_metrics([])) | {"trace.overhead_ratio"} == set(declared_layer)


def _equivalent_pair(kind):
    rng = np.random.default_rng(7)
    local = wl.random_local_map(rng, (2, 2))
    a = wl.kron_all(local)
    if kind == "mixed":
        first = wl.random_density(rng, (2, 2))
        second = wl.conjugate(first, a)
    else:
        first = wl.random_vector(rng, 4)
        second = wl.apply(first, a)
    pair = wl.Pair("t-0", kind, (2, 2), first, second, wl.EQUIVALENT, "test")
    return pair, [np.linalg.inv(f) for f in local]


@pytest.mark.parametrize("kind", ["mixed", "pure"])
def test_recheck_accepts_the_true_witness_and_rejects_a_corrupted_one(kind):
    pair, witness = _equivalent_pair(kind)
    assert truth.score(pair, "Equivalent", witness, 2.5 - 1j) == (True, False)
    corrupted = [witness[0] + 1e-3 * np.array([[0, 1], [0, 0]]), witness[1]]
    assert truth.score(pair, "Equivalent", corrupted, 1.0) == (False, True)
    assert truth.score(pair, "Equivalent", None, 1.0) == (False, True)


def test_mislabelled_pair_raises_unsound_count():
    pair, witness = _equivalent_pair("mixed")
    wrong = wl.Pair(pair.pair_id, pair.kind, pair.dims, pair.first, pair.second,
                    wl.INEQUIVALENT, "deliberately wrong")
    records = []
    for p, outcome in ((pair, "Inequivalent"), (wrong, "Equivalent"), (pair, "Inconclusive")):
        solved, unsound = truth.score(p, outcome, witness, 1.0)
        records.append({"t": 0.1, "solved": solved, "unsound": unsound,
                        "failed": False, "error": False})
    figures = run.summarize(records)
    assert figures["unsound_count"] == 2
    assert figures["solved_share"] == 0.0


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(30) == 66
    assert run.tail_percentile(12) == 50
    values = sorted(range(1, 101))
    assert run.nearest_rank(values, 90) == 90


def test_run_length_is_a_cycle_count_set_by_seconds_alone():
    assert set(run.CYCLE_S) == set(run.WORKLOADS)
    for name in run.WORKLOADS:
        assert run.cycles(name, 20) == round(20 / run.CYCLE_S[name]) >= 1
        assert run.cycles(name, 0.01) == 1


def test_inputs_repeat_for_a_seed_and_change_with_it():
    for recipes in wl.LIBRARY.values():
        a = wl.build_cycle(recipes, 3, 0)
        b = wl.build_cycle(recipes, 3, 0)
        c = wl.build_cycle(recipes, 4, 0)
        assert all(np.array_equal(x.first, y.first) and x.label == y.label for x, y in zip(a, b))
        assert any(not np.array_equal(x.first, y.first) for x, y in zip(a, c))


def test_rank_mismatched_pairs_differ_in_rank():
    for recipes in wl.LIBRARY.values():
        for pair in wl.build_cycle(recipes, 11, 0):
            if pair.basis.startswith("global rank"):
                r1 = np.linalg.matrix_rank(pair.first, tol=1e-9)
                r2 = np.linalg.matrix_rank(pair.second, tol=1e-9)
                assert r1 != r2


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "pure", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_flags_lost_outcomes_and_changed_bytes():
    before = {"workload": "cli", "seed": 1, "seconds": 20, "pairs": [
        {"id": "a", "solved": True, "unsound": False, "exit_code": 0, "stdout_sha256": "x"},
        {"id": "b", "solved": False, "unsound": False, "exit_code": 1, "stdout_sha256": "y"},
    ]}
    same = json.loads(json.dumps(before))
    assert compare.compare(before, same) == []
    worse = json.loads(json.dumps(before))
    worse["pairs"][0].update(solved=False, stdout_sha256="z")
    problems = compare.compare(before, worse)
    assert any("solved before" in p for p in problems)
    assert any("bytes differ" in p for p in problems)


def test_compare_counts_solved_pairs_over_the_shared_ids_only():
    before = {"workload": "pure", "seed": 1, "seconds": 20, "pairs": [
        {"id": "a-0", "solved": True, "unsound": False},
        {"id": "a-1", "solved": True, "unsound": False},
    ]}
    after = {"workload": "pure", "seed": 1, "seconds": 20, "pairs": [
        {"id": "a-0", "solved": True, "unsound": False},
    ]}
    assert compare.compare(before, after) == ["records hold different pairs"]
    longer = dict(after, seconds=40)
    assert compare.compare(before, longer) == [
        "records are from different workloads, seeds or run lengths"]
