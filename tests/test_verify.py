import hashlib
import itertools
import json
import math
import os
import random
import re
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import reference_oracle
import reference_ordered
import reference_sampler as reference
from rainbowmatch import (GENERAL, PARTITE, ConjectureId, DegreeMatrix, Family,
                          GroundSet, Hypergraph, InputError, TheoremViolationError,
                          check_conjecture, check_matrix_conjecture,
                          compute_threshold_exact, enumerate_shifted,
                          f_r2, g_formula, is_shifted, iter_shifted,
                          rainbow_exact, shifted_closure)
from rainbowmatch import exhaustive, sampling
from rainbowmatch.core import is_matching
from rainbowmatch.index import CellIndex, _closer, bits, rainbow_positions
from rainbowmatch.instances import instance_from_dict
from rainbowmatch.solvers import check_hall_condition
from rainbowmatch.sampling import SHARD_TRIALS, _below, _mask_sampler
from rainbowmatch.verify import _make_checker
from conftest import brute_is_downward_closed, random_family, seeded

B2 = GroundSet(PARTITE, 2, 2)
B3 = GroundSet(PARTITE, 2, 3)
FIXTURES = Path(__file__).parent / "fixtures"
IDEAL_GOLDENS = {
    "partite_r2_n3": B3,
    "partite_r3_n2": GroundSet(PARTITE, 3, 2),
    "general_r2_n5": GroundSet(GENERAL, 2, 5),
}


def ideals_text(ground):
    """Every shifted edge set over the ground in enumeration order, one JSON
    list of 1-based edges per line."""
    lines = [json.dumps([[v + 1 for v in e] for e in h.edges])
             for h in iter_shifted(ground)]
    return "[\n" + ",\n".join(lines) + "\n]\n"


def brute_shifted_of_size(ground, size):
    cells = list(ground.cells())
    found = []
    for subset in itertools.combinations(cells, size):
        h = Hypergraph(ground, subset)
        if brute_is_downward_closed(h):
            found.append(h)
    return found


def test_verify_forwards_exactly_the_names_its_drivers_took():
    # the walk and the thresholds are exhaustive's, scan_large_n is
    # sampling's; verify forwards them as the same objects and nothing else
    from rainbowmatch import verify
    for name in ("_ideal_dfs", "compute_threshold_exact", "enumerate_shifted", "iter_shifted"):
        assert getattr(verify, name) is getattr(exhaustive, name)
    assert verify.scan_large_n is sampling.scan_large_n
    for name in ("_run_shard", "SHARD_TRIALS", "MAX_EXHAUSTIVE_CELLS", "no_such_name"):
        with pytest.raises(AttributeError, match=f"'rainbowmatch.verify' has no attribute "
                                                 f"'{name}'"):
            getattr(verify, name)


class TestEnumerateShifted:
    def test_b2_counts_match_filter_oracle(self):
        for size in range(5):
            ours = list(enumerate_shifted(B2, size))
            brute = brute_shifted_of_size(B2, size)
            assert len(ours) == len(brute)
            assert set(ours) == set(brute)
        assert [len(list(enumerate_shifted(B2, s))) for s in range(5)] == [1, 1, 2, 1, 1]

    def test_b2_size_two_exact_sets(self):
        got = {h.edges for h in enumerate_shifted(B2, 2)}
        assert got == {((0, 0), (0, 1)), ((0, 0), (1, 0))}

    def test_b2_extremes(self):
        (empty,) = enumerate_shifted(B2, 0)
        assert empty.edges == ()
        (full,) = enumerate_shifted(B2, 4)
        assert len(full) == 4

    @pytest.mark.parametrize("ground", [B3, GroundSet(GENERAL, 2, 5),
                                        GroundSet(GENERAL, 3, 5),
                                        GroundSet(PARTITE, 3, 2)])
    def test_matches_filter_oracle(self, ground):
        for size in range(ground.cell_count + 1):
            ours = set(enumerate_shifted(ground, size))
            assert ours == set(brute_shifted_of_size(ground, size))

    def test_iter_shifted_is_the_union_over_sizes(self):
        all_at_once = set(iter_shifted(B3))
        by_size = set()
        for size in range(B3.cell_count + 1):
            by_size.update(enumerate_shifted(B3, size))
        assert all_at_once == by_size
        assert all(is_shifted(h) for h in all_at_once)

    def test_size_out_of_range(self):
        with pytest.raises(InputError):
            list(enumerate_shifted(B2, 5))

    @pytest.mark.parametrize("name", sorted(IDEAL_GOLDENS))
    def test_enumeration_order_golden(self, name):
        # exhaustive reports list counterexamples in this order
        golden = (FIXTURES / f"ideals_{name}.json").read_text()
        assert ideals_text(IDEAL_GOLDENS[name]) == golden


class TestComputeThreshold:
    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 2), (6, 3), (8, 3), (9, 3)])
    def test_f_matches_formula(self, n, k):
        assert compute_threshold_exact("f_r2_general", n, 2, k) == f_r2(n, k)

    @pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3),
                                     (3, 1), (3, 2), (3, 3), (4, 2), (4, 3),
                                     (5, 2), (5, 3), (6, 2), (6, 3)])
    def test_g_matches_formula_r2(self, n, k):
        assert compute_threshold_exact("g_partite", n, 2, k) == g_formula(n, 2, k)

    @pytest.mark.parametrize("n", [2, 3])
    def test_g_r3(self, n):
        assert compute_threshold_exact("g_partite", n, 3, 2) == g_formula(n, 3, 2)

    def test_degenerate_k_exceeding_n_plus_one(self):
        # with k - 1 > n the formula exceeds the universe and the definitional
        # maximum saturates at the universe size instead
        assert compute_threshold_exact("g_partite", 1, 2, 3) == 1
        assert g_formula(1, 2, 3) == 2

    def test_refuses_beyond_scale(self):
        with pytest.raises(InputError, match=r"refused: .* 49 cells \(limit 36\)"):
            compute_threshold_exact("g_partite", 7, 2, 2)

    def test_a_lowered_cell_limit_is_obeyed(self, monkeypatch):
        from rainbowmatch import exhaustive
        monkeypatch.setattr(exhaustive, "MAX_EXHAUSTIVE_CELLS", 15)
        with pytest.raises(InputError, match=r"16 cells \(limit 15\)"):
            compute_threshold_exact("g_partite", 4, 2, 3)
        with pytest.raises(InputError, match=r"16 cells \(limit 15\)"):
            check_conjecture("matrix", {"n": 4, "k": 2}, mode="exhaustive")
        with pytest.raises(InputError, match=r"16 cells \(limit 15\)"):
            check_conjecture("size_condition", {"n": 4, "r": 2, "k": 2}, mode="exhaustive")

    def test_rejects_bad_mode(self):
        with pytest.raises(InputError):
            compute_threshold_exact("nope", 4, 2, 2)
        with pytest.raises(InputError):
            compute_threshold_exact("f_r2_general", 6, 3, 2)


class TestCheckConjecture:
    def test_size_condition_exhaustive_smallest(self):
        rep = check_conjecture(ConjectureId.SIZE_CONDITION,
                               {"n": 2, "r": 2, "k": 2}, mode="exhaustive")
        assert rep.ok and rep.instances_checked == 4

    def test_size_condition_exhaustive_n3(self):
        rep = check_conjecture("size_condition", {"n": 3, "r": 2, "k": 2},
                               mode="exhaustive")
        assert rep.ok and rep.instances_checked > 0

    def test_simple_exhaustive_boundary(self):
        rep = check_conjecture(ConjectureId.SIMPLE, {"n": 2, "k": 2},
                               mode="exhaustive")
        assert rep.ok and rep.instances_checked == 7

    def test_rainbow_general_exhaustive(self):
        rep = check_conjecture(ConjectureId.RAINBOW_GENERAL,
                               {"n": 4, "r": 2, "k": 2}, mode="exhaustive")
        assert rep.ok and rep.instances_checked > 0

    def test_rainbow_general_exhaustive_r3(self):
        rep = check_conjecture(ConjectureId.RAINBOW_GENERAL,
                               {"n": 6, "r": 3, "k": 2}, mode="exhaustive")
        assert rep.ok and rep.instances_checked > 0

    def test_exact_general_threshold_k2_is_the_point_count(self):
        # enumeration rediscovers the classical k=2 value C(n-1, r-1)
        from rainbowmatch.verify import _exact_f
        from rainbowmatch import f_large_n
        import math
        assert _exact_f(6, 3, 2) == f_large_n(6, 3, 2) == math.comb(5, 2)
        assert _exact_f(5, 2, 2) == math.comb(4, 1)

    def test_degree_condition_d1_counterexample_found(self):
        rep = check_conjecture(ConjectureId.DEGREE_CONDITION,
                               {"n": 2, "k": 2, "d": 1},
                               mode="random", budget=100, seed=7)
        assert not rep.ok
        for counter in rep.counterexamples:
            fam = instance_from_dict(counter).to_family()
            assert all(len(h) > 1 for h in fam)
            assert all(h.degree(v, s) <= 1
                       for h in fam for s in (0, 1) for v in range(2))
            assert rainbow_exact(fam) is None

    @pytest.mark.parametrize("mode", ["random", "exhaustive"])
    @pytest.mark.parametrize("n,r,k,bound", [(4, 2, 3, 6), (5, 2, 3, 10), (6, 3, 3, 20)])
    def test_rainbow_general_threshold_of_every_cell_is_refused(self, n, r, k, bound, mode):
        # no member can pass a threshold of every cell, so nothing is drawn
        # or enumerated
        with pytest.raises(InputError,
                           match=f"hypothesis bound {bound} leaves no admissible size"):
            check_conjecture(ConjectureId.RAINBOW_GENERAL, {"n": n, "r": r, "k": k},
                             mode=mode, budget=10)

    def test_degree_condition_exhaustive_refused(self):
        with pytest.raises(InputError):
            check_conjecture(ConjectureId.DEGREE_CONDITION,
                             {"n": 2, "k": 2, "d": 1}, mode="exhaustive")

    @pytest.mark.parametrize("conjecture,params,message", [
        ("simple", {"n": 4, "k": 2, "r": 5}, "simple checks bipartite families: needs r=2, got r=5"),
        ("matrix", {"n": 4, "k": 2, "r": 3}, "needs r=2, got r=3"),
        ("degree_condition", {"n": 4, "k": 2, "r": 3, "d": 1}, "needs r=2, got r=3"),
        ("size_condition", {"n": 4, "k": 2, "r": 2, "d": 7},
         "size_condition takes no degree cap d, got d=7"),
        ("simple", {"n": 4, "k": 2, "d": 1}, "takes no degree cap d"),
        ("rainbow_general", {"n": 6, "k": 2, "d": 1}, "takes no degree cap d"),
        ("matrix", {"n": 4, "k": 2, "d": 1}, "takes no degree cap d"),
    ])
    @pytest.mark.parametrize("mode", ["random", "exhaustive"])
    def test_a_parameter_the_check_never_reads_is_refused(self, conjecture, params, message,
                                                          mode):
        with pytest.raises(InputError, match=message):
            check_conjecture(conjecture, params, mode=mode, budget=10)

    def test_read_parameters_are_accepted(self):
        for conjecture, params in [("simple", {"n": 3, "k": 2, "r": 2}),
                                   ("matrix", {"n": 3, "k": 2, "r": 2, "d": None}),
                                   ("size_condition", {"n": 3, "k": 2, "r": 3}),
                                   ("degree_condition", {"n": 3, "k": 2, "r": 2, "d": 1})]:
            assert check_conjecture(conjecture, params, budget=10).instances_checked == 10

    def test_degree_condition_d2_random(self):
        rep = check_conjecture(ConjectureId.DEGREE_CONDITION,
                               {"n": 4, "k": 2, "d": 2},
                               mode="random", budget=300, seed=5)
        assert rep.instances_checked == 300  # open conjecture: record the outcome
        for counter in rep.counterexamples:
            fam = instance_from_dict(counter).to_family()
            assert rainbow_exact(fam) is None

    def test_degree_condition_past_the_listing_limit_is_refused_before_any_draw(
            self, monkeypatch):
        # each draw copies and shuffles all n^2 cells: 725^2 * 2 passes 2^20
        monkeypatch.setattr(sampling, "_degree_capped_sampler",
                            lambda *a: pytest.fail("a member was drawn"))
        with pytest.raises(InputError, match="each draw would list 1051250 vertices, "
                                             r"cells times r \(limit 1048576\)"):
            check_conjecture(ConjectureId.DEGREE_CONDITION, {"n": 725, "k": 2, "d": 1},
                             budget=1)
        _make_checker(ConjectureId.DEGREE_CONDITION, {"n": 724, "k": 2, "d": 1})

    def test_degree_cap_past_n_is_refused_at_the_true_bound(self):
        # max degree d on n + n vertices allows at most n*min(d, n) edges, so
        # min_size 100,001 passes the 90,000 cells and no draw is made
        start = time.perf_counter()
        with pytest.raises(InputError, match="no bipartite graph with max degree 100000 "
                                             "has more than 90000 edges"):
            check_conjecture(ConjectureId.DEGREE_CONDITION,
                             {"n": 300, "k": 2, "d": 100000}, budget=1)
        assert time.perf_counter() - start < 1

    def test_degree_cap_past_n_draws_sizes_up_to_every_cell(self):
        # d=1000 on n=100: members of 9,001 to 10,000 edges. Drawn from
        # [9001, 100000], 99 targets in 100 passed the 10,000 cells and were
        # drawn again, and a member could use up its 200 draws
        # ("could not sample")
        rep = check_conjecture(ConjectureId.DEGREE_CONDITION,
                               {"n": 100, "k": 10, "d": 1000}, budget=1, seed=1)
        assert rep.instances_checked == 1

    def test_degree_condition_listing_limit_boundary(self, monkeypatch):
        from rainbowmatch import verify
        monkeypatch.setattr(verify, "MAX_LISTED_VERTICES", 18)  # n=3: 9 cells times 2
        rep = check_conjecture(ConjectureId.DEGREE_CONDITION, {"n": 3, "k": 2, "d": 1},
                               budget=20, seed=1)
        assert rep.instances_checked == 20
        with pytest.raises(InputError, match=r"would list 32 vertices, cells times r \(limit 18\)"):
            check_conjecture(ConjectureId.DEGREE_CONDITION, {"n": 4, "k": 2, "d": 1},
                             budget=20, seed=1)

    def test_same_seed_same_report(self):
        params = {"n": 3, "r": 2, "k": 2}
        a = check_conjecture(ConjectureId.SIZE_CONDITION, params,
                             mode="random", budget=200, seed=13)
        b = check_conjecture(ConjectureId.SIZE_CONDITION, params,
                             mode="random", budget=200, seed=13)
        assert a == b  # elapsed is excluded from comparison

    def test_workers_do_not_change_the_report(self, monkeypatch):
        # every random checker: a raw sampler and four shifted ones, the
        # general one past the closed form; forked workers run the checker
        # they inherit
        fork_workers(monkeypatch, 3)
        for conjecture, params in [(ConjectureId.DEGREE_CONDITION, {"n": 2, "k": 2, "d": 1}),
                                   (ConjectureId.SIZE_CONDITION, {"n": 4, "r": 3, "k": 2}),
                                   (ConjectureId.RAINBOW_GENERAL, {"n": 7, "r": 3, "k": 2}),
                                   (ConjectureId.SIMPLE, {"n": 5, "k": 3}),
                                   (ConjectureId.MATRIX, {"n": 3, "k": 2})]:
            a, b, c = (check_conjecture(conjecture, params, mode="random", budget=600,
                                        seed=3, workers=workers) for workers in (1, 2, 3))
            assert a == b == c
        assert_no_child()

    def test_every_shard_runs_the_one_checker(self, monkeypatch):
        # three shards, one checker: a shard neither rebuilds the ground, its
        # index and its closure plan nor re-walks the exact threshold
        from rainbowmatch import verify
        make, calls = verify._make_checker, []
        monkeypatch.setattr(verify, "_make_checker",
                            lambda *args: calls.append(args) or make(*args))
        rep = check_conjecture(ConjectureId.RAINBOW_GENERAL, {"n": 7, "r": 3, "k": 2},
                               mode="random", budget=SHARD_TRIALS * 2 + 1, seed=5)
        assert rep.instances_checked == SHARD_TRIALS * 2 + 1
        assert len(calls) == 1

    def test_workers_below_one_are_refused(self):
        for workers in (0, -5):
            with pytest.raises(InputError, match="workers"):
                check_conjecture(ConjectureId.SIZE_CONDITION, {"n": 2, "r": 2, "k": 2},
                                 mode="random", budget=10, workers=workers)

    def test_more_workers_in_exhaustive_mode_are_refused(self, monkeypatch):
        # exhaustive mode runs in one process; the refusal comes before the
        # checker, whose exact threshold may itself walk every shifted set
        from rainbowmatch import verify
        params = {"n": 3, "r": 2, "k": 2}
        make = verify._make_checker
        monkeypatch.setattr(verify, "_make_checker", lambda *args: pytest.fail("checker built"))
        for workers in (2, 3):
            with pytest.raises(InputError, match=f"^exhaustive mode runs in one process: "
                                                 f"workers must be 1, got {workers}$"):
                check_conjecture(ConjectureId.SIZE_CONDITION, params, mode="exhaustive",
                                 workers=workers)
        monkeypatch.setattr(verify, "_make_checker", make)
        assert check_conjecture(ConjectureId.SIZE_CONDITION, params, mode="exhaustive",
                                workers=1).ok

    def test_pool_size_clamp(self, monkeypatch):
        monkeypatch.setattr(sampling.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        monkeypatch.setattr(sampling.os, "cpu_count", lambda: 64)
        assert sampling._pool_size(1, 10) == 1
        assert sampling._pool_size(3, 10) == 3
        assert sampling._pool_size(64, 10) == 4   # no more than the CPUs it may run on
        assert sampling._pool_size(64, 2) == 2    # no more than the shards
        monkeypatch.delattr(sampling.os, "sched_getaffinity")
        assert sampling._pool_size(64, 10) == 10  # no affinity: the CPU count
        monkeypatch.setattr(sampling.os, "cpu_count", lambda: None)
        assert sampling._pool_size(8, 10) == 1    # CPU count unknown: serial
        monkeypatch.setattr(sampling.os, "cpu_count", lambda: 64)
        monkeypatch.delattr(sampling.os, "fork", raising=False)
        assert sampling._pool_size(8, 10) == 1    # nothing to fork with: serial

    @pytest.mark.parametrize("workers", [1, 2])
    def test_huge_budget_fails_at_once(self, monkeypatch, workers):
        # shards are made one at a time: the second shard's error surfaces
        # before a third is made. Listing every shard first, as a regression
        # would, takes tens of MB at this budget, over the bound many times
        # but harmless; at the 10^12 of a real run it exhausts memory. Forked
        # workers run their shards in their own memory; at two workers the
        # caller runs the warm-up trial and shard 0, the child stops at shard
        # 1, and the caller runs shard 1 itself.
        import tracemalloc
        fork_workers(monkeypatch, workers)
        run_shard, calls = sampling._run_shard, []

        def failing(args):
            calls.append(args[4])
            if args[4] == 1:
                raise RuntimeError("second shard")
            return run_shard(args)

        monkeypatch.setattr(sampling, "_run_shard", failing)
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="second shard"):
                check_conjecture(ConjectureId.SIZE_CONDITION, {"n": 2, "r": 2, "k": 2},
                                 mode="random", budget=sampling.SHARD_TRIALS * 10 ** 5,
                                 workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == ([0, 1] if workers == 1 else [0, 0, 1])  # a child keeps its own calls
        assert peak < 1 << 20
        assert_no_child()

    def test_size_condition_random_r3(self):
        rep = check_conjecture(ConjectureId.SIZE_CONDITION, {"n": 4, "r": 3, "k": 2},
                               mode="random", budget=300, seed=21)
        assert rep.ok and rep.instances_checked == 300

    def test_size_condition_random_r3_ten_thousand(self):
        rep = check_conjecture(ConjectureId.SIZE_CONDITION, {"n": 4, "r": 3, "k": 2},
                               mode="random", budget=10_000, seed=21)
        assert rep.ok and rep.instances_checked == 10_000

    def test_report_json_shape(self):
        rep = check_conjecture("simple", {"n": 2, "k": 2}, mode="exhaustive")
        payload = rep.to_json()
        assert payload["kind"] == "verify_report"
        assert payload["instances_checked"] == 7
        assert payload["counterexamples"] == []

    def test_report_matches_golden_file(self):
        import json
        from pathlib import Path
        rep = check_conjecture("size_condition", {"n": 2, "r": 2, "k": 2},
                               mode="exhaustive")
        payload = rep.to_json()
        payload["elapsed"] = 0.0  # the only wall-clock field
        golden = Path(__file__).parent / "fixtures" / "verify_size_condition_n2_r2_k2.json"
        assert json.dumps(payload, indent=2) + "\n" == golden.read_text()

    def test_bad_modes_and_params(self):
        with pytest.raises(InputError):
            check_conjecture("size_condition", {"n": 2, "r": 2, "k": 2}, mode="weird")
        with pytest.raises(InputError):
            check_conjecture("size_condition", {"n": 2, "r": 2}, mode="random")
        with pytest.raises(ValueError):
            check_conjecture("not_a_conjecture", {"n": 2, "k": 2})

    def test_boolean_params_are_refused(self):
        # bool is an int subclass; the instance parser refuses it too
        for key in ("n", "r", "k"):
            params = {"n": 3, "r": 2, "k": 2} | {key: True}
            with pytest.raises(InputError, match=f"parameter '{key}'"):
                check_conjecture("size_condition", params, mode="random", budget=5)


def fork_workers(monkeypatch, workers):
    """Let _pool_size grant up to 8 workers, so that workers > 1 forks."""
    if workers > 1 and not hasattr(os, "fork"):
        pytest.skip("the pool needs os.fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedPool:
    """The pool's workers are real forked processes; they inherit a
    monkeypatched _run_shard."""

    def test_shards_fold_in_order(self, monkeypatch):
        fork_workers(monkeypatch, 3)
        monkeypatch.setattr(sampling, "_run_shard",
                            lambda args: (args[5], [{"shard": args[4], "pid": os.getpid()}]))
        budget = sampling.SHARD_TRIALS * 40 + 7
        checker = _make_checker(ConjectureId.SIZE_CONDITION, {"n": 2, "r": 2, "k": 2})
        checked, counters = sampling._run_random(checker, budget, seed=0, workers=3)
        assert checked == budget
        assert [c["shard"] for c in counters] == list(range(41))
        pids = [c["pid"] for c in counters]
        assert len(set(pids)) == 3
        # the caller is worker 0
        assert [s for s, pid in enumerate(pids) if pid == os.getpid()] == list(range(0, 41, 3))
        assert pids[:3] * 13 + pids[:2] == pids  # shard s ran in worker s % 3
        assert_no_child()

    @pytest.mark.parametrize("error", [InputError, TheoremViolationError])
    def test_failing_shard_raises_as_at_one_worker(self, monkeypatch, error):
        fork_workers(monkeypatch, 3)

        def failing(args):
            if args[4] in (5, 7):
                raise error(f"shard {args[4]} failed")
            return args[5], []

        monkeypatch.setattr(sampling, "_run_shard", failing)
        raised = []
        for workers in (1, 3):
            with pytest.raises(error) as info:
                check_conjecture(ConjectureId.SIZE_CONDITION, {"n": 2, "r": 2, "k": 2},
                                 mode="random", budget=sampling.SHARD_TRIALS * 12,
                                 workers=workers)
            raised.append((type(info.value), str(info.value)))
        assert raised == [(error, "shard 5 failed")] * 2
        assert_no_child()

    # families just outside each sampler's hypothesis, on partite r=2 n=4
    # (position x*4 + y is the cell (x, y)): a degree-capped member whose
    # w-side vertex 0 has degree d+1 = 2, one of exactly (k-1)d = 1 edge, and
    # a shifted member of g = 4 cells, one below its floor g+1
    OUTSIDE = [
        ("degree_condition", {"n": 4, "k": 2, "d": 1}, (1 | 1 << 5, 1 | 1 << 4)),
        ("degree_condition", {"n": 4, "k": 2, "d": 1}, (1 | 1 << 5, 1)),
        ("size_condition", {"n": 4, "r": 2, "k": 2}, (0b11111, 0b1111))]

    @pytest.mark.parametrize("case", OUTSIDE, ids=["w-degree", "size", "shifted-floor"])
    def test_a_sampled_family_outside_the_hypothesis_is_a_fault(self, monkeypatch, case):
        conjecture, params, masks = case
        fork_workers(monkeypatch, 2)
        if conjecture == "degree_condition":
            members = itertools.cycle(masks)
            monkeypatch.setattr(sampling, "_degree_capped_sampler",
                                lambda ground, d, min_size: lambda getrandbits: next(members))
        else:
            monkeypatch.setattr(sampling, "_shifted_sampler",
                                lambda ground: lambda getrandbits, floors: masks)
        raised = []
        for workers in (1, 2):
            with pytest.raises(TheoremViolationError,
                               match="sampler produced a family outside the hypothesis") as info:
                check_conjecture(conjecture, params, budget=2 * SHARD_TRIALS, seed=1,
                                 workers=workers)
            raised.append(tuple(h.mask for h in info.value.instance))
        assert raised == [masks] * 2
        assert_no_child()

    def test_planted_failures_are_listed_alike_at_every_pool_size(self, monkeypatch):
        # real failures, planted by lowering the size floor by 6 below g, which
        # the children inherit; each failing family is listed in full, also
        # where its shard decided its kernel traces before
        from rainbowmatch import verify
        fork_workers(monkeypatch, 3)
        monkeypatch.setattr(verify, "g_formula", lambda n, r, k: g_formula(n, r, k) - 6)
        a, b, c = (check_conjecture(ConjectureId.SIZE_CONDITION, {"n": 4, "r": 2, "k": 3},
                                    budget=SHARD_TRIALS * 4 + 9, seed=2, workers=workers)
                   for workers in (1, 2, 3))
        # the same list with the verdicts keyed by whole members: a kernel of
        # every cell
        monkeypatch.setattr(CellIndex, "below", lambda index, m: -1)
        assert a == check_conjecture(ConjectureId.SIZE_CONDITION, {"n": 4, "r": 2, "k": 3},
                                     budget=SHARD_TRIALS * 4 + 9, seed=2)
        assert len(a.counterexamples) > 1
        for listed in a.counterexamples:
            family = instance_from_dict(listed).to_family()
            assert rainbow_exact(family) is None
            assert min(family.sizes()) <= g_formula(4, 2, 3)
        assert a == b == c
        assert_no_child()

    def test_failure_in_the_callers_own_shard_raises_at_its_shard(self, monkeypatch):
        # at three workers shard 3 is the caller's and shard 4 a child's
        fork_workers(monkeypatch, 3)

        def failing(shard):
            if shard in (3, 4):
                raise InputError(f"shard {shard} failed in {os.getpid()}")
            return 1, [shard]

        monkeypatch.setattr(sampling, "_run_shard", failing)
        results = sampling._pooled(3, iter(range(9)))
        assert [next(results) for _ in range(3)] == [(1, [s]) for s in range(3)]
        with pytest.raises(InputError, match=f"^shard 3 failed in {os.getpid()}$"):
            next(results)
        assert_no_child()

    def test_error_in_the_first_trial_raises_before_any_fork(self, monkeypatch):
        # k - 1 >= n: no member with max degree d has (k - 1)d + 1 edges, so
        # shard 0's first draw fails
        fork_workers(monkeypatch, 3)
        fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
        raised = []
        for workers in (1, 3):
            with pytest.raises(InputError) as info:
                check_conjecture(ConjectureId.DEGREE_CONDITION, {"n": 2, "k": 3, "d": 1},
                                 budget=SHARD_TRIALS * 3, workers=workers)
            raised.append(str(info.value))
        assert raised == ["no bipartite graph with max degree 1 has more than 2 edges"] * 2
        assert forks == []
        assert_no_child()

    def test_early_close_leaves_no_child(self, monkeypatch):
        fork_workers(monkeypatch, 2)
        monkeypatch.setattr(sampling, "_run_shard", lambda args: (1, [{"shard": args}]))
        results = sampling._pooled(2, iter(itertools.count()))  # workers that never end
        assert [next(results) for _ in range(5)] == [(1, [{"shard": s}]) for s in range(5)]
        results.close()
        assert_no_child()

    def test_caller_takes_over_a_worker_that_dies(self, monkeypatch):
        # the child dies at shard 3; the caller, which never dies, runs it
        # and the child's later shards
        fork_workers(monkeypatch, 2)
        caller = os.getpid()

        def dying(args):
            if args == 3 and os.getpid() != caller:
                os._exit(9)
            return 1, [{"shard": args, "pid": os.getpid()}]

        monkeypatch.setattr(sampling, "_run_shard", dying)
        results = list(sampling._pooled(2, iter(range(8))))
        assert [found[0]["shard"] for _, found in results] == list(range(8))
        pids = [found[0]["pid"] for _, found in results]
        assert [s for s, pid in enumerate(pids) if pid != caller] == [1]
        assert_no_child()

    @pytest.mark.parametrize("bad", [lambda record: record[:len(record) // 2],
                                     lambda record: b"\xff" + record],
                             ids=["cut", "malformed"])
    def test_child_that_stops_mid_record_is_taken_over(self, monkeypatch, bad):
        # the child writes half of its second record, or one that marshal
        # cannot read, and exits
        fork_workers(monkeypatch, 2)
        caller, dump, dumped = os.getpid(), sampling.marshal.dump, []

        def partial(value, out):
            dumped.append(value)
            if os.getpid() != caller and len(dumped) == 2:
                out.write(bad(sampling.marshal.dumps(value)))
                out.flush()
                os._exit(0)
            dump(value, out)

        monkeypatch.setattr(sampling, "_run_shard", lambda args: (args, [{"shard": args}]))
        monkeypatch.setattr(sampling.marshal, "dump", partial)
        assert list(sampling._pooled(2, iter(range(9)))) == list(sampling._pooled(1, iter(range(9))))
        assert dumped == []  # the caller sends nothing
        assert_no_child()

    def test_pool_of_one_is_the_serial_run(self, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("a pool of one forked"),
                            raising=False)
        checker = _make_checker(ConjectureId.SIZE_CONDITION, {"n": 4, "r": 3, "k": 2})
        shards = [(checker, checker.sampler(), checker.trace(), 7, s, 50) for s in range(3)]
        assert list(sampling._pooled(1, iter(shards))) == list(map(sampling._run_shard, shards))

    def test_failed_fork_leaves_its_worker_to_the_caller(self, monkeypatch):
        # the second fork fails as under a process limit: worker 2's shards
        # are the caller's, and the report is the one-worker report
        import errno
        fork_workers(monkeypatch, 3)
        fork, forks = os.fork, []

        def limited():
            forks.append(os.getpid())
            if len(forks) == 2:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        params = {"n": 4, "r": 3, "k": 2}
        one = check_conjecture(ConjectureId.SIZE_CONDITION, params, budget=SHARD_TRIALS * 5,
                               seed=4, workers=1)
        monkeypatch.setattr(os, "fork", limited)
        three = check_conjecture(ConjectureId.SIZE_CONDITION, params, budget=SHARD_TRIALS * 5,
                                 seed=4, workers=3)
        assert len(forks) == 2
        assert three == one
        assert_no_child()


class TestMatrixConjecture:
    def test_k1_positive_entry(self):
        dm = DegreeMatrix(((1, 0, 0),), 3)
        res = check_matrix_conjecture(dm)
        assert res.permutation == (0,)

    def test_all_entries_n(self):
        n, k = 4, 3
        dm = DegreeMatrix(tuple((n,) * n for _ in range(k)), n)
        res = check_matrix_conjecture(dm)
        assert res.hypothesis and res.permutation == (0, 1, 2)

    def test_no_entries_no_permutation(self):
        dm = DegreeMatrix(((0, 0), (0, 0)), 2)
        res = check_matrix_conjecture(dm)
        assert not res.hypothesis and res.permutation is None

    def test_random_shifted_families_meeting_condition(self):
        rng = seeded("matrix")
        found = 0
        while found < 200:
            n = rng.randint(2, 4)
            k = rng.randint(1, min(4, n))
            fam = random_family(rng, GroundSet(PARTITE, 2, n), k)
            shifted, _ = shifted_closure(fam)
            if not check_hall_condition(shifted):
                continue
            res = check_matrix_conjecture(DegreeMatrix.from_family(shifted))
            assert res.hypothesis
            assert res.permutation is not None
            # the strong conclusion subsumes the entrywise one
            assert res.weak_permutation is not None
            found += 1

    def test_k_guard(self):
        with pytest.raises(InputError):
            check_matrix_conjecture(DegreeMatrix(
                tuple((1,) * 11 for _ in range(11)), 11))

    @pytest.mark.parametrize("k,n,message", [
        (11, 11, "permutation search is limited to k <= 10, got k=11"),
        (3, 2, "matrix permutations need k <= n, got k=3, n=2")])
    def test_one_k_guard_for_the_matrix_and_the_checker(self, k, n, message):
        # a degree matrix and a verify run refuse the same k with one message
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            check_matrix_conjecture(DegreeMatrix(tuple((1,) * n for _ in range(k)), n))
        for mode in ("random", "exhaustive"):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                check_conjecture("matrix", {"n": n, "k": k}, mode=mode, budget=1)

    @pytest.mark.parametrize("mode", ["random", "exhaustive"])
    @pytest.mark.parametrize("n", [12, 30])
    def test_k_past_10_is_refused_before_any_draw_or_walk(self, monkeypatch, n, mode):
        # one message whatever n and the mode, where the permutation search
        # would refuse it after the draws
        monkeypatch.setattr(sampling, "_below", lambda *args: pytest.fail("drawn"))
        monkeypatch.setattr(exhaustive, "_ideal_dfs", lambda *args: pytest.fail("walked"))
        with pytest.raises(InputError, match=r"^permutation search is limited to k <= 10, "
                                             r"got k=11$"):
            check_conjecture("matrix", {"n": n, "k": 11}, mode=mode, budget=1)


class TestMatrixConjectureViaFamilies:
    def test_random_mode(self):
        rep = check_conjecture(ConjectureId.MATRIX, {"n": 4, "k": 3},
                               mode="random", budget=200, seed=3)
        assert rep.ok and rep.instances_checked == 200

    def test_exhaustive_small(self):
        rep = check_conjecture(ConjectureId.MATRIX, {"n": 2, "k": 2},
                               mode="exhaustive")
        assert rep.ok and rep.instances_checked > 0


# every parameter set here admits some size above the bound
MONOTONE_CASES = (
    [("size_condition", {"n": 2, "r": 2, "k": 2})]
    + [("size_condition", {"n": n, "r": 2, "k": k}) for n in (3, 4) for k in (2, 3)]
    + [("size_condition", {"n": 2, "r": 3, "k": 2})]
    + [("rainbow_general", {"n": n, "r": 2, "k": 2}) for n in (4, 5, 6)]
    + [("rainbow_general", {"n": 6, "r": 2, "k": 3}),
       ("rainbow_general", {"n": 6, "r": 3, "k": 2})]
    + [("simple", {"n": n, "k": 2}) for n in (2, 3, 4)] + [("simple", {"n": 3, "k": 3})])


def member_masks(instance):
    """A counterexample's members as a sorted tuple of masks."""
    return tuple(sorted(h.mask for h in instance_from_dict(instance).to_family()))


def _case_id(case):
    conjecture, params = case
    return conjecture + "-" + "-".join(f"{k}{v}" for k, v in sorted(params.items()))


def family_key(checker):
    """The checker's family key, built as the verdict loop (_failing)
    builds it: the sorted traces of the members."""
    trace = checker.trace()
    return lambda masks: tuple(sorted(map(trace, masks)))


def family_view(checker):
    """The checker with its hypothesis and conclusion read from a Family, as
    reference_ordered calls them; the checker itself reads member masks,
    and its conclusion their key."""
    from rainbowmatch import verify
    key = family_key(checker)

    def masks(family):
        return tuple(h.mask for h in family)

    return verify._Checker(checker.ground, checker.k,
                           lambda family: checker.hypothesis(masks(family)),
                           lambda family: checker.conclusion(key(masks(family))),
                           checker.sampler, checker.trace, floors=checker.floors,
                           sums=checker.sums)


def assert_matches_the_product_walk(checker, checked, counters):
    """An exhaustive count and counterexample list against reference_ordered,
    which decides every ordered family: the same count and verdict, and
    each reported multiset among the reference's failures."""
    ordered_checked, ordered = reference_ordered.run_ordered(family_view(checker))
    assert checked == ordered_checked
    assert bool(counters) == bool(ordered)
    assert {member_masks(inst) for inst in counters} <= {member_masks(inst) for inst in ordered}


class TestMinimalFamilies:
    """Every exhaustive check decides only its minimal member multisets; the
    product walk over every ordered family (reference_ordered) is the
    reference."""

    @pytest.mark.parametrize("case", MONOTONE_CASES, ids=_case_id)
    def test_report_equals_the_ordered_walk(self, case):
        conjecture, params = case
        report = check_conjecture(conjecture, params, mode="exhaustive")
        checker = _make_checker(ConjectureId(conjecture), params)
        assert report.instances_checked > 0
        assert_matches_the_product_walk(checker, report.instances_checked,
                                        report.counterexamples)

    @pytest.mark.parametrize("conjecture,params,inside", [
        ("size_condition", {"n": 3, "r": 2, "k": 2}, [(0, 0), (0, 1), (0, 2), (1, 0)]),
        ("size_condition", {"n": 2, "r": 3, "k": 2},
         [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1)]),
        ("rainbow_general", {"n": 5, "r": 2, "k": 2}, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]),
        ("simple", {"n": 3, "k": 2}, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]),
    ])
    def test_planted_downward_closed_failure(self, conjecture, params, inside):
        # a family fails iff every member lies inside one shifted set, so a
        # family of subsets fails whenever a family of supersets does; the
        # conclusion reads whole members, so its trace is the whole mask
        from rainbowmatch import verify
        base = verify._make_checker(ConjectureId(conjecture), params)
        fixed = Hypergraph(base.ground, inside)
        assert is_shifted(fixed)
        checker = verify._Checker(
            base.ground, base.k, base.hypothesis,
            conclusion=lambda masks: any(m & ~fixed.mask for m in masks),
            sampler=base.sampler, trace=verify._traces(base.ground, base.ground.n),
            floors=base.floors, sums=base.sums)
        checked, counters = exhaustive._run_exhaustive(checker)
        ordered_checked, ordered = reference_ordered.run_ordered(family_view(checker))
        assert checked == ordered_checked
        # the minimal report lists each failing multiset at the floor sizes
        # once; the ordered walk lists every order of every failure
        minimal = [member_masks(inst) for inst in counters]
        assert len(set(minimal)) == len(minimal)
        assert set(minimal) == {member_masks(inst) for inst in ordered
                                if sorted(instance_from_dict(inst).to_family().sizes())
                                == list(base.floors)}
        assert counters
        for inst in counters:
            family = instance_from_dict(inst).to_family()
            assert all(h.mask & ~fixed.mask == 0 for h in family)

    @pytest.mark.parametrize("n,checked", [(4, 3969), (5, 57_600), (6, 819_025)])
    def test_planted_failure_with_the_floor_lowered(self, n, checked):
        # the floor lowered by one to (k-1)n: the paper's stars now qualify
        # and fail, and only two stars, at either side's first vertex, do;
        # n=5 and n=6 (25 and 36 cells) are out of the product walk's reach
        from rainbowmatch import verify
        ground = GroundSet(PARTITE, 2, n)
        checker = verify._rainbow_checker(ground, 2, lambda i: g_formula(n, 2, 2))
        count, counters = exhaustive._run_exhaustive(checker)
        assert count == checked
        stars = [Hypergraph(ground, [(0, j) for j in range(n)]),
                 Hypergraph(ground, [(j, 0) for j in range(n)])]
        assert sorted(member_masks(inst) for inst in counters) == sorted(
            (star.mask, star.mask) for star in stars)

    def test_a_minimal_family_outside_the_hypothesis_is_a_fault(self):
        from rainbowmatch import TheoremViolationError, verify
        base = verify._make_checker(ConjectureId.SIZE_CONDITION, {"n": 3, "r": 2, "k": 2})
        checker = verify._Checker(base.ground, base.k, lambda masks: False,
                                  base.conclusion, base.sampler, base.trace,
                                  floors=base.floors,
                                  sums=base.sums)
        with pytest.raises(TheoremViolationError, match="minimal family outside"):
            exhaustive._run_exhaustive(checker)

    @pytest.mark.parametrize("conjecture,n,r,k,checked", [
        ("size_condition", 3, 3, 2, 625_681), ("size_condition", 5, 2, 3, 4_492_125),
        ("rainbow_general", 7, 3, 2, 46_656)])
    def test_newly_reachable_through_the_cli(self, capsys, conjecture, n, r, k, checked):
        from rainbowmatch.cli import main
        code = main(["verify", "--conjecture", conjecture, "--n", str(n),
                     "--r", str(r), "--k", str(k), "--mode", "exhaustive",
                     "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["instances_checked"] == checked
        assert payload["counterexamples"] == []

    def test_refuses_past_the_cell_limit_at_once(self):
        import time
        start = time.perf_counter()
        with pytest.raises(InputError, match=r"64 cells \(limit 36\); up to 2\^64"):
            check_conjecture("size_condition", {"n": 4, "r": 3, "k": 2}, mode="exhaustive")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("case", [
        ("rainbow_general", {"n": 30, "r": 2, "k": 3}, "exhaustive enumeration refused"),
        ("size_condition", {"n": 7, "r": 3, "k": 2}, "exhaustive enumeration refused"),
        ("simple", {"n": 7, "k": 3}, "exhaustive enumeration refused"),
        ("matrix", {"n": 7, "k": 3}, "exhaustive enumeration refused"),
        ("degree_condition", {"n": 7, "k": 3, "d": 2}, "no shifted reduction")],
        ids=lambda c: _case_id(c[:2]))
    def test_a_refused_ground_gets_no_cell_index(self, monkeypatch, case):
        # random mode builds its sampler and kernel, and degree_condition's
        # hypothesis its degree reader, when it starts, not when the checker
        # is made, so neither making the checker nor the exhaustive refusal
        # of its ground indexes the ground
        from rainbowmatch import verify
        conjecture, params, refusal = case
        checker = _make_checker(ConjectureId(conjecture), params)
        assert "index" not in vars(checker.ground)
        monkeypatch.setattr(verify, "_make_checker", lambda conjecture, params: checker)
        with pytest.raises(InputError, match=refusal):
            check_conjecture(conjecture, params, mode="exhaustive")
        assert "index" not in vars(checker.ground)
        # a run's first trial builds them
        assert checker.hypothesis(checker.sampler()(random.Random(1).getrandbits))
        assert "index" in vars(checker.ground)

    def test_refuses_past_the_family_limit_before_any_oracle_call(self, monkeypatch):
        import time
        from rainbowmatch import exhaustive, oracles, verify
        monkeypatch.setattr(exhaustive, "MAX_EXHAUSTIVE_INSTANCES", 400_000)
        for module, oracle in ((oracles, "rainbow_exact"), (oracles, "nu_exact"),
                               (verify, "rainbow_positions")):
            monkeypatch.setattr(module, oracle, lambda *args: pytest.fail("oracle called"))
        start = time.perf_counter()
        with pytest.raises(InputError,
                           match=r"about 424270 minimal families \(limit 400000\)"):
            check_conjecture("size_condition", {"n": 6, "r": 2, "k": 4}, mode="exhaustive")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("conjecture,n,k", [("simple", 6, 6), ("matrix", 6, 6)])
    def test_refuses_past_the_family_limit_at_once(self, conjecture, n, k):
        start = time.perf_counter()
        with pytest.raises(InputError, match=r"minimal families \(limit 2000000\)"):
            check_conjecture(conjecture, {"n": n, "k": k}, mode="exhaustive")
        assert time.perf_counter() - start < 1.0

    def test_count_families_counts_ordered_families_meeting_the_floors(self):
        from rainbowmatch.exhaustive import _count_families
        histogram = [0, 2, 3, 1, 5]  # members of sizes 0..4
        sizes = [s for s, m in enumerate(histogram) for _ in range(m)]
        brute = sum(1 for a, b in itertools.product(sizes, repeat=2)
                    if min(a, b) >= 2 and max(a, b) >= 4)
        assert _count_families((2, 4), (0, 0), histogram) == brute
        assert _count_families((3, 3, 3), (0, 0, 0), histogram) == 6 ** 3
        # prefix-sum floors: the smaller size at least 2, the two sum to at least 7
        brute = sum(1 for a, b in itertools.product(sizes, repeat=2)
                    if min(a, b) >= 2 and a + b >= 7)
        assert _count_families((0, 0), (2, 7), histogram) == brute == 2 * 1 * 5 + 5 * 5


def brute_meeting(floors, sums, most):
    """Every ascending size tuple up to most meeting the floors and sums."""
    return [t for t in itertools.combinations_with_replacement(range(most + 1), len(floors))
            if all(s >= f for s, f in zip(t, floors))
            and all(p >= f for p, f in zip(itertools.accumulate(t), sums))]


@st.composite
def size_conditions(draw):
    """Floors and sums of up to 4 members over up to 9 cells, and a size
    histogram, empty sizes included."""
    k = draw(st.integers(1, 4))
    cells = draw(st.integers(0, 9))
    floors = tuple(draw(st.lists(st.integers(0, cells + 1), min_size=k, max_size=k)))
    sums = tuple(draw(st.lists(st.integers(0, 3 * cells + 1), min_size=k, max_size=k)))
    histogram = draw(st.lists(st.integers(0, 3), min_size=cells + 1, max_size=cells + 1))
    return floors, sums, histogram


class TestSizeConditions:
    """The minimal size tuples and the family count of the exhaustive walk
    against brute force over every size tuple."""

    @given(size_conditions())
    def test_minimal_sizes_are_the_minimal_meeting_tuples(self, case):
        from rainbowmatch.exhaustive import _minimal_sizes
        floors, sums, histogram = case
        minimal = []  # by ascending sum: one below a tuple is listed before it
        for t in sorted(brute_meeting(floors, sums, len(histogram) - 1), key=sum):
            if not any(all(a <= b for a, b in zip(m, t)) for m in minimal):
                minimal.append(t)
        assert list(_minimal_sizes(floors, sums, len(histogram) - 1)) == sorted(minimal)

    @given(size_conditions())
    def test_count_families_is_the_brute_count(self, case):
        from rainbowmatch.exhaustive import _count_families
        floors, sums, histogram = case
        meeting = set(brute_meeting(floors, sums, len(histogram) - 1))
        brute = sum(math.prod(histogram[s] for s in order)
                    for order in itertools.product(range(len(histogram)), repeat=len(floors))
                    if tuple(sorted(order)) in meeting)
        assert _count_families(floors, sums, histogram) == brute

    def test_a_rainbow_checker_has_one_minimal_tuple_its_floors(self):
        from rainbowmatch.exhaustive import _minimal_sizes
        for conjecture, params in MONOTONE_CASES:
            checker = _make_checker(ConjectureId(conjecture), params)
            assert checker.sums == (0,) * checker.k
            assert (list(_minimal_sizes(checker.floors, checker.sums, checker.ground.cell_count))
                    == [checker.floors])


def _setsize(size):
    """Random.sample's largest population for its pool branch."""
    return 21 + (4 ** math.ceil(math.log(size * 3, 4)) if size > 5 else 0)


def _stdlib_mask(rng, u, size):
    return sum(1 << p for p in rng.sample(range(u), size))


class TestDrawsAgainstTheStandardLibrary:
    """The draws made straight from a generator's bits against the standard
    library calls they stand for: equal values and equal generator state."""

    @given(st.integers(0, 2 ** 64), st.data())
    def test_sample_mask_is_the_mask_of_random_sample(self, seed, data):
        u = data.draw(st.integers(1, 1200))
        size = data.draw(st.integers(0, u))
        rng, twin = random.Random(seed), random.Random(seed)
        draw = _mask_sampler(GroundSet(PARTITE, 1, u))
        assert draw(rng.getrandbits, size) == _stdlib_mask(twin, u, size)
        assert rng.getstate() == twin.getstate()

    PINNED_DRAWS = [
        (1, 0), (1, 1), (10, 0), (40, 0), (64, 64), (1200, 1200),
        (21, 5), (22, 5),  # sizes up to 5 keep the pool branch to 21 cells
        (85, 6), (86, 6),  # size 6 moves it to 85
        (1200, 5), (1200, 300)]

    @pytest.mark.parametrize("u,size", PINNED_DRAWS)
    def test_pinned_draws_on_both_sides_of_setsize(self, monkeypatch, u, size):
        # the set branch lists its positions once, through _mask; the pool
        # branch sets bits as it draws
        listed, mask = [], sampling._mask
        monkeypatch.setattr(sampling, "_mask", lambda positions, n: listed.append(n)
                            or mask(positions, n))
        draw = _mask_sampler(GroundSet(PARTITE, 1, u))
        for seed in (1, 5, 977):
            rng, twin = random.Random(seed), random.Random(seed)
            assert draw(rng.getrandbits, size) == _stdlib_mask(twin, u, size)
            assert rng.getstate() == twin.getstate()
        assert listed == ([] if u <= _setsize(size) else [u] * 3)

    def test_pinned_draws_reach_both_branches(self):
        assert {u <= _setsize(size) for u, size in self.PINNED_DRAWS} == {True, False}

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 8, 9, 255, 256, 257, 1000,
                                   2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 70 + 3])
    def test_below_is_randrange(self, m):
        for seed in (1, 5, 977):
            rng, twin = random.Random(seed), random.Random(seed)
            assert ([_below(rng.getrandbits, m) for _ in range(50)]
                    == [twin.randrange(m) for _ in range(50)])
            assert rng.getstate() == twin.getstate()

    @given(st.integers(0, 2 ** 64), st.integers(-10 ** 6, 10 ** 6), st.integers(0, 2 ** 80))
    def test_offset_below_is_randint(self, seed, a, width):
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert a + _below(rng.getrandbits, width + 1) == twin.randint(a, a + width)
        assert rng.getstate() == twin.getstate()


class TestOrderedWalk:
    """The minimal-family walk against the product walk of reference_ordered,
    which decides every ordered family: matrix, whose hypothesis is Hall's
    condition on the prefix sums, and the rainbow checkers."""

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 2), (3, 3)])
    def test_matrix_equals_the_product_walk(self, n, k):
        checker = _make_checker(ConjectureId.MATRIX, {"n": n, "k": k})
        assert_matches_the_product_walk(checker, *exhaustive._run_exhaustive(checker))

    @pytest.mark.parametrize("case", [("size_condition", {"n": 3, "r": 2, "k": 2}),
                                      ("rainbow_general", {"n": 5, "r": 2, "k": 2}),
                                      ("simple", {"n": 3, "k": 3})], ids=_case_id)
    def test_monotone_checkers_equal_the_product_walk(self, case):
        conjecture, params = case
        checker = _make_checker(ConjectureId(conjecture), params)
        assert_matches_the_product_walk(checker, *exhaustive._run_exhaustive(checker))


def down_closure(ground, cells):
    """The partite r=2 cells at or below some given cell, coordinatewise."""
    return Hypergraph(ground, {(a, b) for x, y in cells
                               for a in range(x + 1) for b in range(y + 1)})


class TestMatrixExhaustive:
    """matrix is checked on its minimal families: its hypothesis is a floor on
    each ascending prefix sum, and its conclusion survives supersets."""

    @given(st.integers(2, 5), st.integers(1, 4), st.integers(0, 2 ** 32), st.data())
    def test_the_conclusion_survives_a_shifted_superset(self, n, k, seed, data):
        k = min(k, n)
        checker = _make_checker(ConjectureId.MATRIX, {"n": n, "k": k})
        key = family_key(checker)

        def conclusion(masks):
            return checker.conclusion(key(masks))

        ground = GroundSet(PARTITE, 2, n)
        cells = list(ground.cells())
        rng = random.Random(seed)
        members = [down_closure(ground, rng.sample(cells, rng.randint(0, 3)))
                   for _ in range(k)]
        i = data.draw(st.integers(0, k - 1))
        wider = down_closure(ground, list(members[i].edges) + rng.sample(cells, rng.randint(1, 3)))
        assert all(is_shifted(h) for h in [*members, wider])
        replaced = members[:i] + [wider] + members[i + 1:]
        if conclusion(tuple(h.mask for h in members)):
            assert conclusion(tuple(h.mask for h in replaced))

    def test_n5_k3_has_one_failing_minimal_family(self):
        # F1 = {m1 w1}; F2 = rows m1, m2 and column w1; F3 = rows m1..m3 and
        # column w1: sizes 1, 13 and 17
        report = check_conjecture("matrix", {"n": 5, "k": 3}, mode="exhaustive")
        assert report.instances_checked == 12_713_469
        (counter,) = report.counterexamples
        ground = GroundSet(PARTITE, 2, 5)
        column = {(x, 0) for x in range(5)}
        expected = [Hypergraph(ground, [(0, 0)]),
                    Hypergraph(ground, {(x, y) for x in range(2) for y in range(5)} | column),
                    Hypergraph(ground, {(x, y) for x in range(3) for y in range(5)} | column)]
        family = instance_from_dict(counter).to_family()
        assert list(family) == expected and family.sizes() == (1, 13, 17)
        assert check_hall_condition(family).ok  # 1 > 0, 14 > 10, 31 > 30
        dm = DegreeMatrix.from_family(family)
        assert [row[:3] for row in dm.entries] == [(1, 0, 0), (5, 2, 2), (5, 3, 3)]
        # no permutation's sorted selection has every prefix sum above j(j-1)
        for perm in itertools.permutations(range(3)):
            sel = sorted(dm.entries[i][perm[i]] for i in range(3))
            assert not all(total > j * (j - 1)
                           for j, total in enumerate(itertools.accumulate(sel), 1))
        result = check_matrix_conjecture(dm)
        assert result.hypothesis and result.permutation is None
        assert result.weak_permutation is not None

    def test_n6_k2_through_the_cli_within_a_second(self, capsys):
        from rainbowmatch.cli import main
        start = time.perf_counter()
        code = main(["verify", "--conjecture", "matrix", "--n", "6", "--k", "2",
                     "--mode", "exhaustive", "--format", "json"])
        elapsed = time.perf_counter() - start
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["instances_checked"] == 849_728
        assert payload["counterexamples"] == []
        assert elapsed < 1.0


class TestSamplerAgainstReference:
    """The cell-position sampler and log-free closure against the edge-tuple
    sampler and shifted_closure they replaced."""

    @pytest.mark.parametrize("seed", [1, 5, 977])
    @pytest.mark.parametrize("case", [
        ("size_condition", {"n": 3, "r": 3, "k": 2}),
        ("size_condition", {"n": 4, "r": 2, "k": 3}),
        ("simple", {"n": 4, "k": 3}),
        ("rainbow_general", {"n": 7, "r": 2, "k": 3}),
        ("rainbow_general", {"n": 6, "r": 3, "k": 2}),
        ("matrix", {"n": 4, "k": 3}),
        ("matrix", {"n": 5, "k": 3}),  # sizes up to 5 on 25 cells take the set branch
    ], ids=_case_id)
    def test_same_families_from_a_twin_generator(self, case, seed):
        conjecture, params = case
        checker = _make_checker(ConjectureId(conjecture), params)
        rng, twin = random.Random(seed), random.Random(seed)
        sample = checker.sampler()
        families = [sample(rng.getrandbits) for _ in range(40)]
        if checker.ground.kind == PARTITE:
            assert checker.ground.index._cells is None  # positions, not the cell tuple
        for family in families:
            if conjecture == "matrix":
                expected = reference.sample_matrix(twin, checker.ground, checker.k)
            else:
                expected = reference._sample_shifted_family(twin, checker.ground,
                                                            list(checker.floors))
            assert family == tuple(h.mask for h in expected)
        assert rng.getstate() == twin.getstate()

    @pytest.mark.parametrize("seed", [1, 5, 977])
    @pytest.mark.parametrize("n,k,d", [(2, 2, 1), (4, 2, 1), (5, 3, 2), (6, 2, 3), (3, 2, 5)])
    def test_same_degree_capped_members_from_a_twin_generator(self, n, k, d, seed):
        # (3, 2, 5) has d > n: no vertex reaches degree n + 1, so the cap d
        # draws as the cap n, at the same least size. The reference drew
        # targets up to d*n there, past every cell, and drew again.
        checker = _make_checker(ConjectureId.DEGREE_CONDITION, {"n": n, "k": k, "d": d})
        rng, twin = random.Random(seed), random.Random(seed)
        sample = checker.sampler()
        families = [sample(rng.getrandbits) for _ in range(40)]
        assert checker.ground.index._cells is None  # positions, not the cell tuple
        for family in families:
            expected = [reference._sample_degree_capped(twin, checker.ground, min(d, n),
                                                        (k - 1) * d + 1)
                        for _ in range(k)]
            assert family == tuple(h.mask for h in expected)
        assert rng.getstate() == twin.getstate()

    # SHA-256 of the closed member masks, one family a line, drawn by the
    # first shard of each shifted random-verify job of the benchmark at seed 1
    FIRST_SHARD_DIGESTS = [
        ("size_condition", {"n": 4, "r": 3, "k": 2},
         "2f9fc44f2c9f24987badd35198782f798a594763a2972eb4add6d9abe2ff9d2a"),
        ("simple", {"n": 5, "r": 2, "k": 3},
         "9dac2d88755e967e36baf417b74f3f73f48b1050257034fb98813f09b950b496"),
        ("rainbow_general", {"n": 8, "r": 2, "k": 3},
         "7de9010e62203ddf26986fd5041a90beebe6386532e51499df0ed3ba2bcded5b"),
        ("size_condition", {"n": 3, "r": 3, "k": 2},
         "f5eea761cbfc2517c30f6dfe91504377f6cfa7e2786800fedf8561be8413d77b"),
        ("size_condition", {"n": 4, "r": 2, "k": 3},
         "b9edbb9cddfb9010990cef90d5470bb38aa32028024a96e563767a9d4081c0fb"),
        ("simple", {"n": 4, "r": 2, "k": 3},
         "fdd8cb56e28af6ed72a7455c88e25eab47a268a4651f35543976a182530bcf2d"),
    ]

    @pytest.mark.parametrize("case", FIRST_SHARD_DIGESTS, ids=lambda c: _case_id(c[:2]))
    def test_first_shard_families_are_pinned(self, case):
        conjecture, params, digest = case
        checker = _make_checker(ConjectureId(conjecture), params)
        sample = checker.sampler()
        getrandbits = random.Random("1:0").getrandbits  # seed 1, shard 0, as _run_shard seeds it
        text = "\n".join(" ".join(format(m, "x") for m in sample(getrandbits))
                         for _ in range(SHARD_TRIALS))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def cells_below(ground, m):
    """The cells whose vertices all lie below m, listed cell by cell."""
    return sum(1 << i for i, cell in enumerate(ground.cells()) if max(cell) < m)


def kernel_cells(ground, k):
    """The k-kernel listed cell by cell: every vertex below k on a partite
    ground, below k*r on a general one."""
    return cells_below(ground, k if ground.kind == PARTITE else k * ground.r)


def listed_key(conjecture, ground, k):
    """A checker's key with its cells listed one by one: the sorted traces
    on the k-kernel for a rainbow checker, the sorted whole masks for
    degree_condition, and for matrix the sorted rows of the members'
    degrees at w_1..w_k."""
    if conjecture == "matrix":
        return lambda masks: tuple(sorted(Hypergraph._from_mask(ground, m).degrees(1)[:k]
                                          for m in masks))
    kernel = (1 << ground.cell_count) - 1 if conjecture == "degree_condition" else (
        kernel_cells(ground, k))
    return lambda masks: tuple(sorted(m & kernel for m in masks))


@st.composite
def shifted_families(draw):
    """k <= 4 shifted members on a partite ground of r = 1..3 or a general
    one of r = 2..3, with n below, at and above k (kr on a general ground)."""
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        r = draw(st.integers(1, 3))
        ground = GroundSet(PARTITE, r, draw(st.integers(1, k + 2 if r < 3 else 5)))
    else:
        r = draw(st.integers(2, 3))
        ground = GroundSet(GENERAL, r, draw(st.integers(r, k * r + 2 if r < 3 else 12)))
    u = ground.cell_count
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    # small members keep traces apart from members; any size reaches every closure
    sizes = draw(st.lists(st.integers(0, 2 * k) | st.integers(0, u), min_size=k, max_size=k))
    draw, close = _mask_sampler(ground), _closer(ground)
    return ground, Family([Hypergraph._from_mask(ground, close(draw(rng.getrandbits, min(size, u))))
                           for size in sizes])


# the eight random jobs of perfbench's verify-random workload:
# (conjecture, n, r, k, d, budget), and the SHA-256 of the JSON report at
# seeds 1 and 977, keys sorted and elapsed removed
BENCHMARK_REPORTS = [
    (("size_condition", 4, 3, 2, None, 512),
     "65fe1998623d3e251bf92b11246bf37c30300577256aef1d99dffb00865c55ee",
     "8f048be7561cfc06fab7c042d68cff1d79c1b53bf034adca111c9964d51165f8"),
    (("simple", 5, 2, 3, None, 512),
     "d94d2309083a53772eb14bcd6f278e4c62453cec408f3855414bea91410c90ab",
     "317f923907d5ee3d6e17bbfa80dc9fafc7195773e14d82ef68e9cb0e1a268116"),
    (("rainbow_general", 8, 2, 3, None, 512),
     "e202d3dc3df39c552aa5129eff53d9865264dac69038ae936985819a5ba153ee",
     "ad0d9c71c4dab696e5235df5f4cac63cb72079e5c992189582fa16b6e0e41910"),
    (("degree_condition", 4, 2, 2, 1, 1024),
     "3287e2de98465abc4482fe08282aeaaf99094fe1f051408dc4df4ed9d0043fbf",
     "c9edd2a7abc0455fc4a0e2d67154872935fb0f4df1817fcae4f8b4c57953e5b8"),
    (("size_condition", 3, 3, 2, None, 512),
     "6024bcbff18541f088083104ba723482a382d136f045362d9bce15f2fadd77fb",
     "5e431d2b177a8cdd4803797e232011b01f4b260feec77921155f8b17180a6960"),
    (("size_condition", 4, 2, 3, None, 512),
     "0436c34611c17189420ebcfa7b043ce1894e397e88433e860eb4cbeeebaeb20a",
     "3762f791f48e59dad583d8d1226bdb448826c181cc39f2ad4c7f2f483b961db3"),
    (("simple", 4, 2, 3, None, 512),
     "5394f8c58e442704f8787660ab16e255fc7a3f15cd5a4f11e5ab7da4bf369685",
     "431a58f577ac23c7a788e87cb91e7b4e30b4a1f811d8328a9922a8680950bf84"),
    (("degree_condition", 5, 2, 3, 2, 512),
     "c474eef3a38e52248525e49ad71d3c54f9d18e8e180816c15567fc053a7dca26",
     "cb44a603109f073e0cef905957bd0cf935c0e371ca73037a49d24ec70f75bcfb"),
]


@st.composite
def masked_families(draw):
    """k <= 4 members as masks over ground.index: on a partite ground of
    r = 1..3 or a general one of r = 2..3, or on the partite r=2 grounds of
    1,024 and 1,089 cells (n = 32 and 33), either side of the bound up to
    which the search reads index masks. Each member is drawn from the cells below a bound m, so that
    small m leaves too few vertices (a pigeonhole refutation); a size of 0
    gives an empty member."""
    k = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["partite", "general", "n32", "n33"]))
    if kind == "partite":
        r = draw(st.integers(1, 3))
        ground = GroundSet(PARTITE, r, draw(st.integers(1, 6 if r < 3 else 4)))
    elif kind == "general":
        r = draw(st.integers(2, 3))
        ground = GroundSet(GENERAL, r, draw(st.integers(r, 9)))
    else:
        ground = GroundSet(PARTITE, 2, int(kind[1:]))
    box = bits(ground.index.below(draw(st.integers(1, ground.n))))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    sizes = draw(st.lists(st.integers(0, 3) | st.integers(0, min(len(box), 40)),
                          min_size=k, max_size=k))
    return ground, tuple(sum(1 << p for p in rng.sample(box, min(size, len(box))))
                         for size in sizes)


class TestMaskConclusion:
    """The rainbow conclusion on member masks (rainbow_positions up to
    1,024 cells, rainbow_exact on a Family past it) against the recursive
    reference oracle on the same members as a Family."""

    @given(masked_families())
    def test_conclusion_is_the_reference_verdict(self, case):
        from rainbowmatch import verify
        ground, masks = case
        family = Family([Hypergraph._from_mask(ground, m) for m in masks])
        expected = reference_oracle.rainbow_exact(family) is not None
        assert verify._rainbow_concl(ground)(masks) == expected

    @given(masked_families())
    def test_positions_are_a_rainbow_matching(self, case):
        ground, masks = case
        if ground.cell_count > 1024:
            return  # past 1,024 cells the search takes a local numbering
        positions = rainbow_positions(ground, masks)
        family = Family([Hypergraph._from_mask(ground, m) for m in masks])
        matching = rainbow_exact(family)
        if positions is None:
            assert matching is None
            return
        assert all(m >> p & 1 for m, p in zip(masks, positions))
        cells = [ground.index.cell(p) for p in positions]
        assert is_matching(ground, cells)
        assert tuple(cells) == matching.choices

    @pytest.mark.parametrize("n", [32, 33])
    def test_an_empty_member_and_a_pigeonhole_refute(self, n):
        from rainbowmatch import verify
        ground = GroundSet(PARTITE, 2, n)
        decide = verify._rainbow_concl(ground)
        full = (1 << ground.cell_count) - 1
        row = (1 << n) - 1  # the n cells through vertex 0 of side 0
        assert decide((full, full, full))
        assert not decide((full, 0, full))
        assert not decide((row, row))
        assert decide((row, full))


@st.composite
def keyed_families(draw, conjectures=("size_condition", "simple", "degree_condition",
                                      "matrix", "rainbow_general")):
    """A checker of one of the conjectures, its k members drawn as any
    masks over its ground, and an order of them: the partite r=2 checkers
    at n <= 5 and k <= min(n, 3), and rainbow_general on the general
    ground r=2 n=6 at k <= 3."""
    conjecture = draw(st.sampled_from(conjectures))
    if conjecture == "rainbow_general":
        params = {"n": 6, "r": 2, "k": draw(st.integers(1, 3))}
    else:
        n = draw(st.integers(1, 5))
        params = {"n": n, "k": draw(st.integers(1, min(n, 3)))}
        if conjecture == "degree_condition":
            params["d"] = draw(st.integers(1, n))
    checker = _make_checker(ConjectureId(conjecture), params)
    k, u = checker.k, checker.ground.cell_count
    masks = tuple(draw(st.lists(st.integers(0, (1 << u) - 1), min_size=k, max_size=k)))
    return checker, masks, draw(st.permutations(range(k)))


class TestExactKeys:
    """A key stands for every family that has it: it does not depend on
    member order, and matrix's verdict on its sorted rows is the
    permutation search on the rows in member order."""

    @given(keyed_families())
    def test_a_key_is_unchanged_when_the_members_are_permuted(self, case):
        checker, masks, order = case
        key = family_key(checker)
        assert key(tuple(masks[i] for i in order)) == key(masks)

    @given(keyed_families(["matrix"]))
    def test_matrix_decides_its_sorted_rows_as_its_rows_in_member_order(self, case):
        from rainbowmatch import verify
        checker, masks, _ = case
        rows = [Hypergraph._from_mask(checker.ground, m).degrees(1)[:checker.k] for m in masks]
        assert checker.conclusion(family_key(checker)(masks)) == (
            verify._first_permutation(rows, verify._strong_form) is not None)


class TestKernelVerdicts:
    """Every conclusion decides its checker's key, in both drivers: random
    mode each key once per shard (_run_shard), exhaustive mode once per run
    (_run_exhaustive). A rainbow checker's key is the members' sorted
    traces on the kernel, which the kernel lemma (_rainbow_checker) makes
    exact, and CellIndex.below gives the kernel's mask."""

    @pytest.mark.parametrize("kind,r,n_values", [(PARTITE, 1, range(1, 7)),
                                                 (PARTITE, 2, range(1, 7)),
                                                 (PARTITE, 3, range(1, 5)),
                                                 (PARTITE, 4, range(1, 4)),
                                                 (GENERAL, 1, range(1, 7)),
                                                 (GENERAL, 2, range(2, 11)),
                                                 (GENERAL, 3, range(3, 10)),
                                                 (GENERAL, 4, range(4, 9))])
    def test_below_is_the_listed_cells(self, kind, r, n_values):
        # m from 0 up to past n: below, at and above the ground's vertices
        for n in n_values:
            ground = GroundSet(kind, r, n)
            for m in range(n + 3):
                assert ground.index.below(m) == cells_below(ground, m), (n, m)

    @given(shifted_families())
    def test_shifted_members_match_iff_their_traces_do(self, case):
        ground, family = case
        kernel = kernel_cells(ground, family.k)
        traces = Family([Hypergraph._from_mask(ground, h.mask & kernel) for h in family])
        assert (rainbow_exact(family) is None) == (rainbow_exact(traces) is None)

    @pytest.mark.parametrize("case", [
        ("size_condition", {"n": 4, "r": 3, "k": 2}),
        ("simple", {"n": 5, "k": 3}),
        ("rainbow_general", {"n": 8, "k": 3}),
        ("rainbow_general", {"n": 7, "r": 3, "k": 2}),
        ("degree_condition", {"n": 3, "k": 2, "d": 1}),
        ("matrix", {"n": 3, "k": 2}),
        ("matrix", {"n": 5, "k": 3})], ids=_case_id)
    def test_each_key_is_its_listed_key(self, case):
        # only the rainbow checkers take the kernel: raw members key on
        # every cell, and the degree-matrix conclusion on rows
        conjecture, params = case
        checker = _make_checker(ConjectureId(conjecture), params)
        key, sample = family_key(checker), checker.sampler()
        expected = listed_key(conjecture, checker.ground, checker.k)
        getrandbits = random.Random(1).getrandbits
        for _ in range(50):
            masks = sample(getrandbits)
            assert key(masks) == expected(masks)

    def test_each_trace_multiset_is_decided_once_per_shard(self, monkeypatch):
        from rainbowmatch import verify
        params = {"n": 4, "r": 3, "k": 2}
        checker = _make_checker(ConjectureId.SIZE_CONDITION, params)
        kernel = kernel_cells(checker.ground, 2)

        def traces(masks):
            return tuple(sorted(m & kernel for m in masks))

        # the distinct trace multisets of each shard's families, drawn again
        # from the shard's own seed
        distinct, sample = set(), checker.sampler()
        for s in range(2):
            getrandbits = random.Random(f"1:{s}").getrandbits
            distinct.update((s, traces(sample(getrandbits))) for _ in range(SHARD_TRIALS))
        shard, calls = [None], []
        search, run_shard = verify.rainbow_positions, sampling._run_shard
        monkeypatch.setattr(verify, "rainbow_positions", lambda ground, masks: calls.append(
            (shard[0], tuple(masks))) or search(ground, masks))
        monkeypatch.setattr(sampling, "_run_shard",
                            lambda args: shard.__setitem__(0, args[4]) or run_shard(args))
        report = check_conjecture(ConjectureId.SIZE_CONDITION, params, budget=2 * SHARD_TRIALS,
                                  seed=1)
        assert report.instances_checked == 2 * SHARD_TRIALS and report.ok
        # each decided argument is its own key: the sorted traces
        assert all(masks == traces(masks) for _, masks in calls)
        assert sorted(calls) == sorted(distinct)
        assert len(calls) == 8

    @pytest.mark.parametrize("case", [
        ("size_condition", {"n": 4, "r": 3, "k": 2}, "random"),
        ("simple", {"n": 5, "k": 3}, "random"),
        ("rainbow_general", {"n": 8, "k": 3}, "random"),
        ("degree_condition", {"n": 4, "k": 2, "d": 1}, "random"),
        ("matrix", {"n": 4, "k": 2}, "random"),
        ("size_condition", {"n": 3, "r": 3, "k": 2}, "exhaustive"),
        ("size_condition", {"n": 4, "r": 2, "k": 3}, "exhaustive"),
        ("simple", {"n": 4, "k": 3}, "exhaustive"),
        ("matrix", {"n": 4, "k": 2}, "exhaustive")], ids=lambda c: f"{_case_id(c[:2])}-{c[2]}")
    def test_the_conclusion_decides_only_kernel_traces(self, case):
        # both drivers hand the conclusion the key of the family the
        # hypothesis has just read (cells listed one by one here): the
        # sorted traces on the kernel, never a cell outside it, or for
        # matrix the sorted rows; exhaustive mode decides each key once
        from rainbowmatch import verify
        conjecture, params, mode = case
        base = _make_checker(ConjectureId(conjecture), params)
        expected = listed_key(conjecture, base.ground, base.k)
        families, decided = [], []

        def conclusion(key):
            assert key == expected(families[-1])
            decided.append(key)
            return base.conclusion(key)

        checker = verify._Checker(base.ground, base.k,
                                  lambda masks: families.append(masks) or base.hypothesis(masks),
                                  conclusion, base.sampler, base.trace, base.floors, base.sums)
        if mode == "random":
            sampling._run_random(checker, 2 * SHARD_TRIALS, 1, 1)
        else:
            exhaustive._run_exhaustive(checker)
            assert len(set(decided)) == len(decided)
        assert decided
        # the rainbow checkers' members reach past their kernels
        if conjecture not in ("degree_condition", "matrix"):
            kernel = kernel_cells(base.ground, base.k)
            assert all(m & ~kernel == 0 for masks in decided for m in masks)
            assert any(m & ~kernel for masks in families for m in masks)

    def test_a_passing_run_builds_no_family(self, monkeypatch):
        # members travel as masks, and the oracle searches on them: a run
        # that lists no counterexample builds no Family
        from rainbowmatch import verify
        builds, calls = [], []
        init, search = Family.__init__, verify.rainbow_positions
        monkeypatch.setattr(Family, "__init__",
                            lambda self, members: builds.append(1) or init(self, members))
        monkeypatch.setattr(verify, "rainbow_positions",
                            lambda ground, masks: calls.append(1) or search(ground, masks))
        report = check_conjecture(ConjectureId.SIZE_CONDITION, {"n": 4, "r": 3, "k": 2},
                                  budget=2 * SHARD_TRIALS, seed=1)
        assert report.ok
        assert len(builds) == 0
        assert len(calls) == 8

    @pytest.mark.parametrize("case", [
        ("degree_condition", {"n": 4, "k": 2, "d": 1}),
        ("degree_condition", {"n": 3, "k": 3, "d": 1}),
        ("matrix", {"n": 4, "k": 2})], ids=_case_id)
    def test_raw_and_matrix_checkers_decide_each_family_once_per_shard(self, case):
        # one verdict path: degree_condition keys on whole members and
        # matrix on rows, each key is decided once per shard, and the
        # reused verdicts are those of every family
        from rainbowmatch import verify
        conjecture, params = case
        base = _make_checker(ConjectureId(conjecture), params)
        key, calls = family_key(base), []
        checker = verify._Checker(
            base.ground, base.k, base.hypothesis,
            lambda key: calls.append(key) or base.conclusion(key), base.sampler, base.trace)
        for shard in range(2):
            calls.clear()
            count, listed = sampling._run_shard(
                (checker, checker.sampler(), checker.trace(), 1, shard, SHARD_TRIALS))
            sample, getrandbits = base.sampler(), random.Random(f"1:{shard}").getrandbits
            drawn = [sample(getrandbits) for _ in range(SHARD_TRIALS)]
            assert count == SHARD_TRIALS
            assert sorted(calls) == sorted({key(masks) for masks in drawn})
            if conjecture == "degree_condition":
                assert all(key(masks) == tuple(sorted(masks)) for masks in drawn)
            assert ([tuple(h.mask for h in instance_from_dict(c).to_family()) for c in listed]
                    == [masks for masks in drawn if not base.conclusion(key(masks))])

    @pytest.mark.parametrize("case", [
        ("size_condition", {"n": 3, "r": 3, "k": 2}, 2080, 36),
        ("size_condition", {"n": 4, "r": 2, "k": 3}, 84, 20),
        ("simple", {"n": 4, "k": 3}, 200, 60),
        ("rainbow_general", {"n": 6, "r": 2, "k": 3}, 4, 4),
        ("size_condition", {"n": 6, "r": 2, "k": 3}, 13_244, 20)],
        ids=lambda c: _case_id(c[:2]))
    def test_exhaustive_mode_decides_every_minimal_family(self, monkeypatch, case):
        # the oracle calls are the distinct sorted kernel traces of the
        # minimal multisets, each once: the multisets of shifted members
        # at the floor sizes, a rainbow checker's one minimal size tuple
        from rainbowmatch import verify
        conjecture, params, families, keys = case
        checker = _make_checker(ConjectureId(conjecture), params)
        ground, kernel = checker.ground, kernel_cells(checker.ground, checker.k)
        by_size = {}
        for mask in exhaustive._ideal_dfs(ground):
            by_size.setdefault(mask.bit_count(), []).append(mask)
        minimal = [sum(parts, ()) for parts in itertools.product(*(
            itertools.combinations_with_replacement(by_size[size], m)
            for size, m in sorted(Counter(checker.floors).items())))]
        traces = {tuple(sorted(m & kernel for m in masks)) for masks in minimal}
        assert (len(minimal), len(traces)) == (families, keys)
        made, search = [], verify.rainbow_positions
        monkeypatch.setattr(verify, "rainbow_positions",
                            lambda ground, masks: made.append(masks) or search(ground, masks))
        assert check_conjecture(conjecture, params, mode="exhaustive").ok
        assert sorted(made) == sorted(traces)

    @pytest.mark.parametrize("case", [
        ("matrix", {"n": 4, "k": 3}, 159_712),
        ("size_condition", {"n": 4, "r": 2, "k": 3}, 29_791)], ids=lambda c: _case_id(c[:2]))
    def test_exhaustive_mode_traces_each_shifted_set_once(self, monkeypatch, case):
        # the walk's members are shifted sets, so their traces are taken
        # once per run, not once per minimal family that holds them
        from rainbowmatch import verify
        conjecture, params, checked = case
        base = _make_checker(ConjectureId(conjecture), params)
        walked, traced = set(exhaustive._ideal_dfs(base.ground)), []

        def trace():
            built = base.trace()
            return lambda mask: traced.append(mask) or built(mask)

        checker = verify._Checker(base.ground, base.k, base.hypothesis, base.conclusion,
                                  base.sampler, trace, base.floors, base.sums)
        report = check_conjecture(conjecture, params, mode="exhaustive")
        monkeypatch.setattr(verify, "_make_checker", lambda conjecture, params: checker)
        assert check_conjecture(conjecture, params, mode="exhaustive") == report
        assert (report.instances_checked, report.counterexamples) == (checked, ())
        assert traced and len(traced) <= len(walked)
        assert len(set(traced)) == len(traced) and set(traced) <= walked

    # random matrix reports at budget 600, three shards: (n, k) and the
    # SHA-256 at seeds 1 and 977, as for BENCHMARK_REPORTS
    MATRIX_REPORTS = [
        ((4, 2), "6c0c2fb67d309755437f2afd87d27e9492c74933735b5e22de22caae74919b71",
         "6719e9dda30b89ed3c7f8cb78442b40ba8fc1fe9e154aa0a132e30cfd3d9ac06"),
        ((5, 3), "79803ab15e2c78e9c827825a39596ea509cc0e2a7d30bf20b845b7d5cfb04694",
         "5465aa2e85bceaee99ec181fa12c2e7850121518b6407af12c7d3a97497de234"),
    ]

    @pytest.mark.parametrize("case", MATRIX_REPORTS, ids=lambda c: "n{}-k{}".format(*c[0]))
    def test_matrix_reports_are_pinned_at_every_pool_size(self, monkeypatch, case):
        (n, k), digest_1, digest_977 = case
        fork_workers(monkeypatch, 3)
        for seed, digest in ((1, digest_1), (977, digest_977)):
            for workers in (1, 2, 3):
                report = check_conjecture("matrix", {"n": n, "k": k}, budget=600, seed=seed,
                                          workers=workers).to_json()
                del report["elapsed"]
                text = json.dumps(report, sort_keys=True)
                assert hashlib.sha256(text.encode()).hexdigest() == digest, (seed, workers)
        assert_no_child()

    # random reports on grounds past 1,024 cells, where the oracle numbers
    # the traces from their union's set bits: (conjecture, params, budget)
    # and the SHA-256 at seeds 1 and 977, as for BENCHMARK_REPORTS. At n <= k
    # the kernel is the whole ground; degree_condition's is every cell.
    LARGE_GROUND_REPORTS = [
        (("size_condition", {"n": 33, "r": 2, "k": 2}, 600),
         "bb9e3f4d7cd56cfd29ee1a21ad12104c80075d9a27b8c6df4b8b8b032eef403f",
         "21fa8061a213cb0c94f3daeac29b7b084614eb9876a6177d101f70b9d2ad27b9"),
        (("size_condition", {"n": 60, "r": 2, "k": 60}, 2),
         "4de5a1a795690ed2643afb59358c445a9b35f47ba2e37db924d5a59ee4739a2c",
         "d2cc1d7bc28c843dc5f77967d860818b02d322be448fe338dda591243cf2a4dd"),
        (("simple", {"n": 40, "k": 3}, 300),
         "db6d97ffc01012363ea1f3673ca768fd9f9564d11afde2f1411e315aef3a026e",
         "136e6d85f3a3fa8f158b27bf6afe6c76b443cef5d5dbce4cd7d3eea8ea322556"),
        (("degree_condition", {"n": 40, "k": 2, "d": 2}, 300),
         "0d0883d8a669e0f1a8d2a2fa89aa31fd86f97a80b8e82add1dfce819148adee7",
         "c579db2ff07e5d76397dd57e78f24fa1e499d5dafc7baf7b2c44ae31dbbbdd2f"),
    ]

    @pytest.mark.parametrize("case", LARGE_GROUND_REPORTS,
                             ids=lambda c: _case_id(c[0][:2]))
    def test_reports_past_the_cell_limit_are_pinned(self, monkeypatch, case):
        (conjecture, params, budget), digest_1, digest_977 = case
        fork_workers(monkeypatch, 2)
        for seed, digest in ((1, digest_1), (977, digest_977)):
            for workers in (1, 2):
                report = check_conjecture(conjecture, params, budget=budget, seed=seed,
                                          workers=workers).to_json()
                del report["elapsed"]
                text = json.dumps(report, sort_keys=True)
                assert hashlib.sha256(text.encode()).hexdigest() == digest, (seed, workers)
        assert_no_child()

    @pytest.mark.parametrize("case", BENCHMARK_REPORTS,
                             ids=lambda c: "-".join(map(str, c[0][:4])))
    def test_benchmark_reports_are_pinned(self, case):
        (conjecture, n, r, k, d, budget), digest_1, digest_977 = case
        params = {"n": n, "k": k, "r": r} | ({"d": d} if d is not None else {})
        for seed, digest in ((1, digest_1), (977, digest_977)):
            report = check_conjecture(conjecture, params, budget=budget, seed=seed).to_json()
            del report["elapsed"]
            text = json.dumps(report, sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest() == digest, seed
