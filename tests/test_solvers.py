import math

import pytest
from hypothesis import given, settings, strategies as st

from rainbowmatch import (GENERAL, PARTITE, DegreeMatrix, Family, GroundSet,
                          Hypergraph, InputError, PreconditionError,
                          check_hall_condition, f_r2, g_formula, greedy_bipartite,
                          hall_size_algorithm, large_n_procedure, meshulam_r2,
                          pullback_rainbow, r3_solve, rainbow_exact,
                          shifted_closure, simple_algorithm, star_family,
                          steal_family)
from rainbowmatch.verify import iter_shifted, scan_large_n
from conftest import random_family, random_hypergraph, seeded

B2 = GroundSet(PARTITE, 2, 2)
B3 = GroundSet(PARTITE, 2, 3)


def shifted_random_family(rng, ground, k, low, high=None):
    fam = random_family(rng, ground, k, low=low, high=high)
    shifted, _ = shifted_closure(fam)
    return shifted


class TestHallCheck:
    def test_single_nonempty_member(self):
        fam = Family([Hypergraph(B2, [(0, 0)])])
        assert check_hall_condition(fam)

    def test_steal_family_violates_with_equality(self):
        fam = steal_family(3, 6)
        check = check_hall_condition(fam)
        assert not check
        assert check.witness == (0, 1, 2, 3)
        assert check.total == check.bound == 3 * 4 * 6

    def test_complete_members(self):
        full = Hypergraph(B3, B3.cells())
        for k in (1, 2, 3):
            assert check_hall_condition(Family([full] * k))

    def test_wrong_uniformity(self):
        g = GroundSet(PARTITE, 3, 2)
        with pytest.raises(InputError):
            check_hall_condition(Family([Hypergraph(g, [(0, 0, 0)])]))


class TestHallSizeAlgorithm:
    def test_steal_trace_matches_worked_example(self):
        trace = hall_size_algorithm(steal_family(3, 6))
        assert not trace.succeeded and trace.halt_t == 4
        chosen = [rec.edge for rec in trace.steps]
        assert chosen == [(2, 0), (0, 5), (1, 4), None]
        assert [(rec.a, rec.b) for rec in trace.steps] == [
            (0, 0), (0, 1), (1, 1), (3, 1)]
        # exactly one short edge: the first one
        assert [rec.short for rec in trace.steps] == [True, False, False, None]
        # tails: w_1, then m_1, then m_2
        assert [rec.tail_side for rec in trace.steps] == [1, 0, 0, None]

    def test_single_edge_member(self):
        fam = Family([Hypergraph(B2, [(0, 0)])])
        trace = hall_size_algorithm(fam)
        assert trace.succeeded
        assert trace.matching.choices == ((0, 0),)

    def test_requires_shifted_members(self):
        fam = Family([Hypergraph(B2, [(1, 1)])])
        with pytest.raises(PreconditionError):
            hall_size_algorithm(fam)

    def test_requires_bipartite(self):
        g = GroundSet(GENERAL, 2, 4)
        with pytest.raises(InputError):
            hall_size_algorithm(Family([Hypergraph(g, [(0, 1)])]))

    def test_random_families_meeting_condition_succeed(self):
        rng = seeded("hall-random")
        runs = 0
        while runs < 500:
            n = rng.randint(2, 6)
            k = rng.randint(1, 4)
            ground = GroundSet(PARTITE, 2, n)
            fam = shifted_random_family(rng, ground, k, low=1)
            if not check_hall_condition(fam):
                continue
            trace = hall_size_algorithm(fam)
            assert trace.succeeded
            assert trace.matching.is_valid_for(fam)
            if n <= 4:  # independent oracle agrees a matching had to exist
                assert rainbow_exact(fam) is not None
            runs += 1

    def test_processing_order_is_size_ascending(self):
        trace = hall_size_algorithm(steal_family(3, 6))
        assert trace.order == (0, 1, 2, 3)


class TestGreedyBipartite:
    def test_single_member(self):
        fam = Family([Hypergraph(B3, [(2, 1)])])
        m = greedy_bipartite(fam)
        assert m is not None and m.choices == ((2, 1),)

    def test_complete_pair(self):
        full = Hypergraph(B2, B2.cells())
        fam = Family([full, full])
        m = greedy_bipartite(fam)
        assert m is not None and m.is_valid_for(fam)

    def test_random_above_bound_always_succeeds(self):
        rng = seeded("greedy")
        for _ in range(300):
            n = rng.randint(2, 8)
            k = rng.randint(1, min(4, n))
            ground = GroundSet(PARTITE, 2, n)
            fam = random_family(rng, ground, k, low=(k - 1) * n + 1)
            m = greedy_bipartite(fam)
            assert m is not None and m.is_valid_for(fam)

    def test_sharpness_star_family(self):
        for n in (2, 3, 4):
            for k in (2, 3):
                fam = star_family(n, 2, k)
                assert len(fam[0]) == (k - 1) * n
                assert rainbow_exact(fam) is None

    def test_failure_below_bound(self):
        # a star pair is exactly at the bound and must make greedy give up
        fam = star_family(3, 2, 2)
        assert greedy_bipartite(fam) is None


class TestMeshulamR2:
    def test_k1_shifted_gives_minimum_pair(self):
        g = GroundSet(GENERAL, 2, 4)
        fam = Family([Hypergraph(g, [(0, 1), (0, 2)])])
        m = meshulam_r2(fam)
        assert m.choices == ((0, 1),)

    def test_all_large_shifted_subgraphs_contain_the_pairs(self):
        g = GroundSet(GENERAL, 2, 5)
        seen = 0
        for h in iter_shifted(g):
            if len(h) >= 5:
                assert (0, 3) in h and (1, 2) in h
                seen += 1
        assert seen > 0

    def test_star_pair_at_bound_has_no_rainbow(self):
        g = GroundSet(GENERAL, 2, 5)
        star = Hypergraph(g, [(0, j) for j in range(1, 5)])
        assert len(star) == 4  # exactly the threshold value
        assert rainbow_exact(Family([star, star])) is None
        with pytest.raises(PreconditionError):
            meshulam_r2(Family([star, star]))

    def test_random_above_bound(self):
        g = GroundSet(GENERAL, 2, 6)
        rng = seeded("meshulam")
        for _ in range(150):
            k = rng.randint(1, 3)
            fam = random_family(rng, g, k, low=f_r2(6, k) + 1)
            m = meshulam_r2(fam)
            assert m.is_valid_for(fam)

    def test_needs_general_kind(self):
        with pytest.raises(InputError):
            meshulam_r2(Family([Hypergraph(B2, [(0, 0)])]))


class TestR3Solve:
    def test_k1(self):
        g = GroundSet(PARTITE, 3, 2)
        fam = Family([Hypergraph(g, [(1, 1, 0), (0, 0, 0)])])
        m = r3_solve(fam)
        assert m.is_valid_for(fam)

    def test_sharpness_at_bound(self):
        for n, k in ((2, 2), (3, 2), (3, 3)):
            fam = star_family(n, 3, k)
            assert len(fam[0]) == (k - 1) * n * n
            assert rainbow_exact(fam) is None
            with pytest.raises(PreconditionError):
                r3_solve(fam)

    def test_random_above_bound(self):
        rng = seeded("r3")
        for _ in range(60):
            n = rng.randint(2, 4)
            k = rng.randint(1, min(3, n))
            ground = GroundSet(PARTITE, 3, n)
            fam = random_family(rng, ground, k, low=(k - 1) * n * n + 1)
            m = r3_solve(fam)
            assert m.is_valid_for(fam)


class TestSimpleAlgorithm:
    def test_k1(self):
        fam = Family([Hypergraph(B3, [(0, 0), (1, 1), (2, 2)])])
        m = simple_algorithm(fam)
        assert m is not None and m.is_valid_for(fam)

    def test_exhaustive_pairs_n2(self):
        # every shifted pair on [2]^2 with ascending sizes (2, 4) succeeds
        ideals = list(iter_shifted(B2))
        for a in ideals:
            if len(a) < 2:
                continue
            for b in ideals:
                if len(b) < 4:
                    continue
                fam = Family([a, b])
                m = simple_algorithm(fam)
                assert m is not None and m.is_valid_for(fam)

    def test_exhaustive_triples_at_the_k3_boundary(self):
        # n = C(3,2) + 1 = 4 is the smallest side size the guarantee covers
        # for k=3; every ascending shifted triple with sizes >= (4, 8, 12)
        # must succeed
        ideals = list(iter_shifted(GroundSet(PARTITE, 2, 4)))
        count = 0
        for x in (h for h in ideals if len(h) >= 4):
            for y in (h for h in ideals if len(h) >= 8):
                if len(y) < len(x):
                    continue
                for z in (h for h in ideals if len(h) >= 12):
                    if len(z) < len(y):
                        continue
                    fam = Family([x, y, z])
                    m = simple_algorithm(fam)
                    assert m is not None and m.is_valid_for(fam)
                    count += 1
        assert count == 18546

    def test_failure_probe_below_hypothesis(self):
        # an empty first member zeroes a matrix row: distinct failure, no error
        fam = Family([Hypergraph(B2, []), Hypergraph(B2, B2.cells())])
        assert simple_algorithm(fam) is None

    def test_requires_small_k_for_n(self):
        fam = Family([Hypergraph(B2, [(0, 0)])] * 3)
        with pytest.raises(PreconditionError):
            simple_algorithm(fam)  # n=2 <= C(3,2)=3


class TestLargeNProcedure:
    def test_k1(self):
        fam = Family([Hypergraph(B3, [(1, 2)])])
        m = large_n_procedure(fam)
        assert m is not None and m.is_valid_for(fam)

    def test_complete_families(self):
        for r, n, k in ((2, 10, 2), (2, 8, 3), (3, 4, 2)):
            ground = GroundSet(PARTITE, r, n)
            full = Hypergraph(ground, ground.cells())
            fam = Family([full] * k)
            m = large_n_procedure(fam)
            assert m is not None and m.is_valid_for(fam)

    def test_below_bound_is_an_error(self):
        fam = Family([Hypergraph(B3, [])])
        with pytest.raises(PreconditionError):
            large_n_procedure(fam)

    @pytest.mark.parametrize("n", [3, 12, 50])
    def test_fails_above_the_threshold_at_every_n(self, n):
        # three copies of the edges meeting m_1, w_1 or w_2: 3n - 2 > 2n
        # edges each, and a rainbow matching, at every n >= 3; the procedure
        # finds none, so it is not guaranteed for large n
        ground = GroundSet(PARTITE, 2, n)
        member = Hypergraph(ground, [(x, y) for x, y in ground.cells() if x == 0 or y < 2])
        fam = Family([member] * 3)
        assert len(member) == 3 * n - 2 > g_formula(n, 2, 3) == 2 * n
        assert large_n_procedure(fam) is None
        shifted, log = shifted_closure(fam)
        trace = hall_size_algorithm(shifted)
        for m in (rainbow_exact(fam),
                  pullback_rainbow(log, fam, trace.matching, shifted=shifted)):
            assert m is not None and m.is_valid_for(fam)

    def test_scan_records_empirical_boundary(self):
        # no theoretical cutoff exists to compare against; freeze what the
        # seeded scan observes so regressions surface
        results = scan_large_n(2, 2, range(4, 9), trials=40, seed=11)
        assert set(results) == set(range(4, 9))
        assert results[4][0] < 40  # small n can legitimately fail
        assert all(results[n] == (40, 40) for n in range(6, 9))
        results3 = scan_large_n(2, 3, range(6, 9), trials=40, seed=11)
        assert all(results3[n] == (40, 40) for n in range(7, 9))

    def test_scan_results_are_pinned(self):
        # the seeded draws fix every count: a change to the sizes or members
        # drawn shows here
        assert scan_large_n(2, 2, range(4, 9), trials=40, seed=11) == {
            4: (37, 40), 5: (39, 40), 6: (40, 40), 7: (40, 40), 8: (40, 40)}

    def test_scan_r3_smoke(self):
        results = scan_large_n(3, 2, [3, 4], trials=10, seed=11)
        assert all(0 <= s <= t for s, t in results.values())


class TestDegreeMatrix:
    def test_from_shifted_family_rows_non_increasing(self):
        rng = seeded("dm")
        for _ in range(50):
            fam = shifted_random_family(rng, B3, rng.randint(1, 3), low=1)
            dm = DegreeMatrix.from_family(fam)
            assert dm.row_sums() == fam.sizes()
            # row i holds member i's degrees at w_1..w_n, side 1
            assert dm.entries == tuple(tuple(h.degree(j, 1) for j in range(B3.n)) for h in fam)
            for row in dm.entries:
                assert all(row[j] >= row[j + 1] for j in range(dm.n - 1))

    def test_validation(self):
        with pytest.raises(InputError):
            DegreeMatrix(((1, 2),), 3)
        # rows are w-side degrees of bipartite members
        for ground, edge in ((GroundSet(GENERAL, 2, 4), (0, 1)),
                             (GroundSet(PARTITE, 3, 2), (0, 0, 0))):
            with pytest.raises(InputError, match="needs"):
                DegreeMatrix.from_family(Family([Hypergraph(ground, [edge])]))
        with pytest.raises(InputError):
            DegreeMatrix(((4, 0, 0),), 3)


@st.composite
def families_around(draw, r_values, n_max, k_max, floor, kind=PARTITE):
    """A family on a ground of the kind, of uniformity in r_values and at
    most n_max vertices (a side), of at most k_max members; member i's size
    is within n of floor(n, r, k, i), a solver's size bound, on either side."""
    r = draw(st.sampled_from(r_values))
    n = draw(st.integers(1 if kind == PARTITE else r, n_max))
    k = draw(st.integers(1, k_max))
    ground = GroundSet(kind, r, n)
    cells = list(ground.cells())
    members = []
    for i in range(k):
        bound = floor(n, r, k, i)
        low = min(max(0, bound - n), len(cells))
        size = draw(st.integers(low, min(len(cells), bound + n)))
        members.append(Hypergraph(ground, draw(st.permutations(cells))[:size]))
    return Family(members)


def hall_through_closure(family):
    shifted, log = shifted_closure(family)
    matching = hall_size_algorithm(shifted).matching
    return matching and pullback_rainbow(log, family, matching)


def agrees_with_the_oracle(family, matching, inside):
    """A returned matching is one of the family, none is returned where the
    oracle finds none, and inside the solver's hypothesis one is returned."""
    if matching is not None:
        assert matching.is_valid_for(family)
    if rainbow_exact(family) is None:
        assert matching is None
    if inside:
        assert matching is not None


class TestSolversAgainstTheOracle:
    """The solvers that may answer None, on small families drawn on both
    sides of their size bounds, against rainbow_exact. A guard of theirs
    (TheoremViolationError) is never caught here."""

    @settings(max_examples=200)
    @given(families_around([2], 4, 5, lambda n, r, k, i: (k - 1) * n))
    def test_greedy(self, fam):
        n = fam.ground.n
        inside = all(size > (fam.k - 1) * n for size in fam.sizes())
        agrees_with_the_oracle(fam, greedy_bipartite(fam), inside)

    @settings(max_examples=200)
    @given(families_around([2], 4, 3, lambda n, r, k, i: (i + 1) * n))
    def test_simple(self, fam):
        n, k = fam.ground.n, fam.k
        if n <= math.comb(k, 2):
            with pytest.raises(PreconditionError):
                simple_algorithm(fam)
            return
        inside = all(size >= (i + 1) * n for i, size in enumerate(sorted(fam.sizes())))
        agrees_with_the_oracle(fam, simple_algorithm(fam), inside)

    @settings(max_examples=200)
    @given(families_around([1, 2, 3], 3, 3, lambda n, r, k, i: (k - 1) * n ** (r - 1)))
    def test_large_n(self, fam):
        # no n is known past which the procedure always succeeds, so inside
        # its hypothesis it may still answer None
        n, r = fam.ground.n, fam.ground.r
        if any(size <= (fam.k - 1) * n ** (r - 1) for size in fam.sizes()):
            with pytest.raises(PreconditionError):
                large_n_procedure(fam)
            return
        agrees_with_the_oracle(fam, large_n_procedure(fam), inside=False)

    @settings(max_examples=200)
    @given(families_around([2], 6, 3, lambda n, r, k, i: f_r2(n, k) if n >= 2 * k else 0,
                           kind=GENERAL))
    def test_meshulam_r2(self, fam):
        n, k = fam.ground.n, fam.k
        if n < 2 * k or any(size <= f_r2(n, k) for size in fam.sizes()):
            with pytest.raises(PreconditionError):
                meshulam_r2(fam)
            return
        agrees_with_the_oracle(fam, meshulam_r2(fam), inside=True)

    @settings(max_examples=200)
    @given(families_around([3], 3, 3, lambda n, r, k, i: (k - 1) * n ** 2))
    def test_r3_solve(self, fam):
        if any(size <= (fam.k - 1) * fam.ground.n ** 2 for size in fam.sizes()):
            with pytest.raises(PreconditionError):
                r3_solve(fam)
            return
        agrees_with_the_oracle(fam, r3_solve(fam), inside=True)

    @settings(max_examples=200)
    @given(families_around([2], 4, 5, lambda n, r, k, i: (k - 1) * n))
    def test_hall_through_closure_and_pullback(self, fam):
        # shifting keeps every size, so the condition holds for the shifted
        # family iff it holds here
        agrees_with_the_oracle(fam, hall_through_closure(fam),
                               inside=check_hall_condition(fam).ok)
