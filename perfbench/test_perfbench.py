"""Tests of the benchmark's own code.

Run from the repository root:  PYTHONPATH=src python -m pytest -q perfbench
"""
from __future__ import annotations

import json
import math
import os
import random
import statistics
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import run
import spans
import validate
import workload

ROOT = Path(__file__).resolve().parent.parent


def test_harness_modules_do_not_import_the_library():
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
            "print(sorted(m for m in sys.modules if m.startswith('rainbowmatch')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "[]", proc.stderr


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_same_seed_gives_identical_files(tmp_path, name):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    reqs_a = workload.build(name, 5, a)
    reqs_b = workload.build(name, 5, b)
    workload.build(name, 6, c)
    assert [r.argv for r in reqs_a] == [r.argv for r in reqs_b]
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir())
    for f in files:
        assert (a / f).read_bytes() == (b / f).read_bytes()
    if files:
        assert any((a / f).read_bytes() != (c / f).read_bytes() for f in files)


def test_generated_instances_meet_their_hypotheses(tmp_path):
    for req in workload.build("solve", 3, tmp_path):
        inst = req.instance
        sizes = sorted(len(m) for m in inst["families"])
        n, r, k = inst["n"], inst["r"], len(sizes)
        algo = req.argv[2] if req.argv[0] == "solve" else req.argv[0]
        if algo in ("hall", "check"):
            assert validate.hall_size_check(inst)["ok"]
        if algo in ("r3", "large-n", "greedy"):
            assert sizes[0] > workload.g_formula(n, r, k)
        if algo == "simple":
            assert all(s >= (i + 1) * n for i, s in enumerate(sizes))
        if algo == "meshulam":
            assert sizes[0] > workload.f_r2(n, k)


def _tiny():
    return {"kind": "partite", "r": 2, "n": 3,
            "families": [[(0, 0), (1, 1)], [(0, 1), (2, 2)]]}


def test_validator_accepts_a_rainbow_matching():
    assert validate.matching_error(_tiny(), [[1, 1], [3, 3]]) is None


@pytest.mark.parametrize("matching, why", [
    ([[1, 1], [1, 2]], "meets an earlier edge"),
    ([[1, 1], [2, 2]], "not in member 2"),
    ([[1, 1]], "one edge per member"),
])
def test_validator_rejects_a_corrupted_matching(matching, why):
    assert why in validate.matching_error(_tiny(), matching)


def test_check_output_rejects_corrupted_solve_output():
    req = workload.Request("t", "shifted", [], {"status": "success"}, instance=_tiny())
    good = json.dumps({"status": "success", "matching": [[2, 2], [3, 3]]})
    bad = json.dumps({"status": "success", "matching": [[2, 2], [2, 3]]})
    assert validate.check_output(req, 0, good, "") is None
    assert validate.check_output(req, 0, bad, "") is not None
    assert validate.check_output(req, 1, good, "") is not None
    assert validate.check_output(req, 0, good, "Traceback (most recent call last)") is not None


def test_matching_size_agrees_with_brute_force():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 5)
        edges = [(a, b) for a in range(n) for b in range(n) if rng.random() < 0.4]
        best = max((size for size in range(n + 1) for chosen in combinations(edges, size)
                    if len({a for a, _ in chosen}) == size == len({b for _, b in chosen})),
                   default=0)
        assert validate.matching_size(n, edges) == best


def test_counterexample_check_confirms_hypothesis_and_no_rainbow_matching():
    params = {"n": 2, "r": 2, "k": 2, "d": 1}
    genuine = {"kind": "partite", "r": 2, "n": 2,
               "families": [[[1, 1], [2, 2]], [[1, 2], [2, 1]]]}
    has_one = {"kind": "partite", "r": 2, "n": 2,
               "families": [[[1, 1], [2, 2]], [[1, 1], [2, 2]]]}
    too_dense = {"kind": "partite", "r": 2, "n": 2,
                 "families": [[[1, 1], [1, 2]], [[1, 1], [1, 2]]]}
    assert validate.counterexample_error("degree_condition", params, genuine) is None
    assert "has a rainbow matching" in validate.counterexample_error(
        "degree_condition", params, has_one)
    assert "hypothesis" in validate.counterexample_error("degree_condition", params, too_dense)


@pytest.mark.parametrize("n, pct", [
    (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0), (200, 95.0), (1000, 99.0),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, pct):
    values = list(range(n))
    random.Random(n).shuffle(values)
    got, got_pct, got_n = run.tail(values)
    assert (got_pct, got_n) == (pct, n)
    # on 0..n-1 the Harrell-Davis estimate of the q-quantile is q*n - 1/2
    assert got == pytest.approx(pct / 100 * n - 0.5, abs=0.01)
    assert n - math.ceil(round(pct * n / 100, 9)) >= 10
    higher = [p for p in run.TAIL_PERCENTILES if p > pct]
    if higher:  # the next percentile up would leave fewer than 10 beyond
        assert n - math.ceil(round(higher[0] * n / 100, 9)) < 10


def test_tail_with_too_few_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_harrell_davis_is_smooth_across_a_gap():
    # two request kinds, 0.3 s and 0.5 s, with the median on their border:
    # when one sample crosses over, the middle order statistic jumps by 0.2
    # but the estimate moves by a small fraction of that
    more_low = [0.3] * 31 + [0.5] * 30
    more_high = [0.3] * 30 + [0.5] * 31
    assert statistics.median(more_high) - statistics.median(more_low) == pytest.approx(0.2)
    step = run.hd_quantile(more_high, 0.5) - run.hd_quantile(more_low, 0.5)
    assert 0 < step < 0.05
    assert run.hd_quantile([0.2] * 40, 0.75) == pytest.approx(0.2)


def _tree():
    # cli.main [0, 10]
    #   solvers.r3 [1, 9]
    #     shifting.shifted_closure [2, 6]
    #       core.Hypergraph [3, 4]
    #     solvers.hall [6.5, 8]
    return [("cli.main", 0.0, 10.0, -1), ("solvers.r3", 1.0, 9.0, 0),
            ("shifting.shifted_closure", 2.0, 6.0, 1), ("core.Hypergraph", 3.0, 4.0, 2),
            ("solvers.hall", 6.5, 8.0, 1)]


def test_self_times_subtract_direct_children():
    assert spans.self_times(_tree()) == pytest.approx([2.0, 2.5, 3.0, 1.0, 1.5])


def test_layer_self_times_add_up_to_the_root_span():
    tree = _tree()
    agg = spans.aggregate(tree)
    layers = spans.layer_self(agg)
    assert layers == pytest.approx({"cli": 2.0, "instances": 0.0, "core": 1.0,
                                    "shifting": 3.0, "solvers": 4.0, "verify": 0.0})
    assert sum(layers.values()) == pytest.approx(spans.root_duration(tree))
    assert agg["shifting.shifted_closure"] == pytest.approx([1, 3.0, 4.0])
    m = spans.layer_metrics(agg, {}, rounds=2, startup_s=1.0, traced_s=11.0, untraced_s=10.0)
    assert m["shifting.closure_s"] == pytest.approx(1.5)
    assert m["solvers.r3_s"] == pytest.approx(1.25)
    assert m["trace.accounted_ratio"] == pytest.approx(1.0)
    assert m["trace.overhead_s"] == pytest.approx(0.5)


def test_span_file_round_trip(tmp_path):
    names = ["cli.main", "core.Hypergraph"]
    raw = [(0, 1_000, 9_000, -1), (1, 2_000, 3_000, 0)]
    path = tmp_path / "s.spans"
    spans.write_spans(str(path), "0:req", names, raw, {"verify.ideals": 3})
    header, got = spans.read_spans(str(path))
    assert header["counts"] == {"verify.ideals": 3}
    assert got == [("cli.main", 1e-6, 9e-6, -1, "0:req"),
                   ("core.Hypergraph", 2e-6, 3e-6, 0, "0:req")]


@pytest.mark.skipif(not (ROOT / "src" / "rainbowmatch").is_dir(), reason="needs the package source")
def test_traced_closure_is_a_child_of_its_solver(tmp_path):
    inst = workload.above_g(random.Random(0), 3, 3, 2, 9)
    (tmp_path / "in.json").write_text(workload.instance_json(inst))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(tmp_path / "s.spans"),
         "0:r3", "solve", "--algorithm", "r3", "--in", str(tmp_path / "in.json"),
         "--format", "json"], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    req = workload.Request("r3", "shifted", [], {"status": "success"}, instance=inst)
    assert validate.check_output(req, proc.returncode, proc.stdout, proc.stderr) is None
    header, got = spans.read_spans(str(tmp_path / "s.spans"))
    by_index = {i: s for i, s in enumerate(got)}
    closures = [s for s in got if s[0] == "shifting.shifted_closure"]
    assert closures and all(by_index[s[3]][0] == "solvers.r3" for s in closures)
    assert got[0][0] == "cli.main" and got[0][3] == -1
    assert min(spans.self_times(got)) >= 0
    assert sum(spans.self_times(got)) == pytest.approx(spans.root_duration(got))
    assert header["counts"]["shifting.shift_calls"] > 0
