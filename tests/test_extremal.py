import math

import pytest
from hypothesis import given, strategies as st

from rainbowmatch import (GENERAL, PARTITE, Family, GroundSet, Hypergraph,
                          InputError, check_hall_condition, ekr_star,
                          f_large_n, f_r2, g_formula, is_shifted, nu_exact,
                          r3_counterexample, rainbow_exact, star_family,
                          steal_family)


class TestFormulas:
    @pytest.mark.parametrize("n,k,value", [(4, 2, 3), (10, 3, 17), (10, 1, 0),
                                           (5, 2, 4), (6, 2, 5), (6, 3, 10)])
    def test_f_r2_values(self, n, k, value):
        assert f_r2(n, k) == value

    def test_f_r2_domain(self):
        with pytest.raises(InputError):
            f_r2(3, 2)

    @pytest.mark.parametrize("n,r,k,value", [(6, 2, 3, 9), (5, 2, 2, 4),
                                             (6, 3, 2, 10)])
    def test_f_large_n_values(self, n, r, k, value):
        assert f_large_n(n, r, k) == value

    @given(st.integers(1, 6), st.integers(2, 12))
    def test_f_large_n_k2_is_the_ekr_bound(self, r, n):
        if n < r:
            return
        assert f_large_n(n, r, 2) == math.comb(n - 1, r - 1)

    def test_f_large_n_saturates_for_large_k(self):
        # once n - k + 1 < r the subtracted term vanishes
        assert f_large_n(4, 2, 5) == math.comb(4, 2)

    @pytest.mark.parametrize("n,r,k,value", [(2, 2, 2, 2), (3, 3, 2, 9),
                                             (5, 3, 1, 0), (3, 2, 3, 6)])
    def test_g_formula(self, n, r, k, value):
        assert g_formula(n, r, k) == value

    @pytest.mark.parametrize("name", ["f_r2", "g_formula", "MAX_LISTED_VERTICES"])
    def test_core_defines_what_extremal_re_exports(self, name):
        # the solvers and verify drivers read these from core, so one object
        # serves them and extremal's constructions
        import rainbowmatch
        from rainbowmatch import core, extremal
        assert getattr(extremal, name) is getattr(core, name)
        if not name.startswith("MAX"):
            assert getattr(rainbowmatch, name) is getattr(core, name)


class TestStarFamily:
    @pytest.mark.parametrize("n,r,k", [(3, 2, 2), (3, 3, 3), (2, 2, 3),
                                       (4, 2, 3), (2, 3, 2), (3, 1, 2)])
    def test_member_size_matches_threshold(self, n, r, k):
        fam = star_family(n, r, k)
        assert fam.k == k
        assert all(len(h) == g_formula(n, r, k) for h in fam)

    @pytest.mark.parametrize("n,r,k", [(2, 2, 2), (3, 2, 2), (4, 2, 3),
                                       (2, 3, 2), (3, 3, 2), (3, 3, 3),
                                       (4, 2, 1)])
    def test_no_rainbow_matching(self, n, r, k):
        assert rainbow_exact(star_family(n, r, k)) is None

    @pytest.mark.parametrize("n,r,k", [(2, 1, 2), (3, 1, 3), (2, 2, 2),
                                       (3, 2, 2), (3, 2, 3)])
    def test_any_extra_edge_creates_a_rainbow(self, n, r, k):
        fam = star_family(n, r, k)
        ground = fam.ground
        absent = [e for e in ground.cells() if e not in fam[0]]
        for extra in absent:
            grown = Family([Hypergraph(ground, list(h.edges) + [extra])
                            for h in fam])
            assert rainbow_exact(grown) is not None

    def test_domain(self):
        with pytest.raises(InputError):
            star_family(2, 2, 4)  # k - 1 > n

    def test_member_of_no_edges_lists_nothing(self, monkeypatch):
        # k = 1 gives one empty member: nothing is listed, so nothing is
        # allocated per side however many sides there are
        from rainbowmatch import extremal

        def no_listing(*args, **kwargs):
            raise AssertionError("an empty member listed its edges")
        monkeypatch.setattr(extremal.itertools, "product", no_listing)
        fam = star_family(3, 5, 1)
        assert fam.k == 1 and len(fam[0]) == 0


class TestStealFamily:
    def test_sizes_and_total(self):
        fam = steal_family(3, 6)
        assert fam.sizes() == (9, 21, 21, 21)
        assert sum(fam.sizes()) == 3 * 4 * 6  # q (q+1) n exactly

    def test_already_shifted(self):
        assert all(is_shifted(h) for h in steal_family(3, 6))
        assert all(is_shifted(h) for h in steal_family(4, 7))

    def test_hall_condition_fails_with_equality(self):
        check = check_hall_condition(steal_family(3, 6))
        assert not check and check.total == check.bound

    def test_rainbow_exists_anyway(self):
        assert rainbow_exact(steal_family(3, 6)) is not None

    def test_domain(self):
        with pytest.raises(InputError):
            steal_family(2, 6)
        with pytest.raises(InputError):
            steal_family(3, 3)


class TestR3Counterexample:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_counts_by_enumeration(self, n):
        fam = r3_counterexample(n)
        assert len(fam[0]) == 1
        assert len(fam[1]) == n ** 3 - (n - 1) ** 3
        # enumeration disagrees with the published count n^3 - (n-1)^2;
        # the enumerated value is authoritative here
        if n > 2:
            assert len(fam[1]) != n ** 3 - (n - 1) ** 2

    @pytest.mark.parametrize("n", [3, 4])
    def test_sum_exceeds_double_square(self, n):
        fam = r3_counterexample(n)
        assert sum(fam.sizes()) == 3 * n * n - 3 * n + 2
        assert sum(fam.sizes()) > 2 * n * n

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_no_rainbow(self, n):
        assert rainbow_exact(r3_counterexample(n)) is None


class TestEkrStar:
    def test_small(self):
        h = ekr_star(4, 2)
        assert len(h) == 3 and nu_exact(h) == 1

    def test_count_n6_r3(self):
        assert len(ekr_star(6, 3)) == math.comb(5, 2) == 10

    @pytest.mark.parametrize("n", range(2, 9))
    def test_nu_is_one(self, n):
        for r in range(1, n // 2 + 1):
            h = ekr_star(n, r)
            assert len(h) == math.comb(n - 1, r - 1)
            assert nu_exact(h) == 1

    def test_domain(self):
        with pytest.raises(InputError):
            ekr_star(3, 2)


class TestDirectGeneration:
    """Each construction lists its edges directly, in sorted order; over small
    grounds they are exactly the cells the definitions select."""

    @pytest.mark.parametrize("n,r,k", [(3, 1, 2), (3, 2, 2), (2, 3, 3), (4, 2, 5), (3, 3, 1)])
    def test_star_is_the_cells_through_the_first_vertices(self, n, r, k):
        ground = GroundSet(PARTITE, r, n)
        assert star_family(n, r, k)[0] == Hypergraph(
            ground, [e for e in ground.cells() if e[0] < k - 1])

    @pytest.mark.parametrize("q,n", [(3, 4), (3, 6), (4, 7)])
    def test_steal_members_are_the_blocks(self, q, n):
        ground = GroundSet(PARTITE, 2, n)
        first, rest = steal_family(q, n)[0], steal_family(q, n)[1]
        assert first == Hypergraph(ground, [e for e in ground.cells() if max(e) < q])
        assert rest == Hypergraph(ground, [e for e in ground.cells()
                                           if e[0] < q or e[1] == 0])

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_r3_member_is_the_cells_through_zero(self, n):
        ground = GroundSet(PARTITE, 3, n)
        assert r3_counterexample(n)[1] == Hypergraph(
            ground, [e for e in ground.cells() if 0 in e])

    @pytest.mark.parametrize("n,r", [(2, 1), (6, 3), (9, 4)])
    def test_ekr_is_the_cells_through_the_first_vertex(self, n, r):
        ground = GroundSet(GENERAL, r, n)
        assert ekr_star(n, r) == Hypergraph(ground, [e for e in ground.cells() if e[0] == 0])

    @pytest.mark.parametrize("build,estimate", [
        (lambda: star_family(2, 100_000, 2), "536870912"),
        (lambda: ekr_star(60, 30), str(math.comb(59, 29))),
        (lambda: r3_counterexample(10_000), str(10_000 ** 3 - 9_999 ** 3)),
        (lambda: steal_family(3, 10 ** 9), str(4 * 10 ** 9 - 3)),
        (lambda: steal_family(10 ** 5, 10 ** 5 + 1), str(10 ** 10)),
    ], ids=["star", "ekr", "r3counter", "steal", "steal-block"])
    def test_members_past_the_index_limit_are_refused_with_their_count(self, build,
                                                                        estimate):
        with pytest.raises(InputError, match=f"at least {estimate} edges"):
            build()

    @pytest.mark.parametrize("build,estimate", [
        (lambda: star_family(1, 2 ** 20 + 1, 2), str(2 ** 20 + 1)),
        (lambda: r3_counterexample(342), str(3 * (342 ** 3 - 341 ** 3))),
        (lambda: ekr_star(2 ** 19 + 2, 2), str(2 * (2 ** 19 + 1))),
    ], ids=["star-one-edge", "r3counter", "ekr"])
    def test_members_past_the_vertex_limit_are_refused_with_their_count(self, build,
                                                                         estimate):
        with pytest.raises(InputError, match=f"would list {estimate} vertices"):
            build()

    def test_members_at_the_vertex_limit_are_built(self):
        assert len(ekr_star(2 ** 19 + 1, 2)) == 2 ** 19

    @pytest.mark.parametrize("build,estimate", [
        (lambda: star_family(1024, 2, 513), str(513 * 512 * 1024 * 2)),
        (lambda: steal_family(100, 5000), str(2 * (100 * 100 + 100 * (101 * 5000 - 100)))),
    ], ids=["star", "steal"])
    def test_families_past_the_vertex_limit_are_refused_before_listing(self, build,
                                                                       estimate, monkeypatch):
        # every member is under both limits; their copies together are not
        from rainbowmatch import extremal
        monkeypatch.setattr(extremal, "Hypergraph", lambda *a: pytest.fail("member listed"))
        with pytest.raises(InputError, match=f"the family would list {estimate} vertices"):
            build()
