import itertools
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_oracle as reference

from rainbowmatch import (GENERAL, PARTITE, Family, GroundSet, Hypergraph,
                          InputError, is_matching, iter_shifted,
                          nu_exact, pm_decomposition, rainbow_exact)
from rainbowmatch.core import edge_vertices
from rainbowmatch.index import SHIFT_MASK_BITS, _mask
from rainbowmatch.oracles import _edge_masks
from conftest import (brute_nu, brute_rainbow_exists, random_family,
                      random_hypergraph, seeded)

FIXTURES = Path(__file__).parent / "fixtures"
B2 = GroundSet(PARTITE, 2, 2)
B3 = GroundSet(PARTITE, 2, 3)


def H(ground, *edges):
    return Hypergraph(ground, edges)


class TestGroundSet:
    def test_cells_partite(self):
        assert list(B2.cells()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert B2.cell_count == 4

    def test_cells_general(self):
        g = GroundSet(GENERAL, 2, 4)
        assert list(g.cells()) == list(itertools.combinations(range(4), 2))
        assert g.cell_count == 6

    @pytest.mark.parametrize("ground", [GroundSet(PARTITE, 3, 3), GroundSet(GENERAL, 3, 6)])
    def test_cell_index_bit_order_is_edge_order(self, ground):
        index = ground.index
        assert index.cells == tuple(ground.cells())
        rng = seeded(f"index:{ground.kind}")
        for _ in range(50):
            h = random_hypergraph(rng, ground, rng.randint(0, ground.cell_count))
            mask = index.mask(h.edges)
            assert bin(mask).count("1") == len(h)
            assert index.edges(mask) == h.edges
            assert h.mask == mask
            lazy = Hypergraph._from_mask(ground, mask)
            assert len(lazy) == len(h) and hash(lazy) == hash(h)
            assert lazy == h and h == lazy
            assert lazy.edges == h.edges and all(e in lazy for e in h)
            other = Hypergraph._from_mask(ground, mask ^ 1)
            assert other != lazy and other != h and len(other) != len(h)
            # a tuple-only, a mask-only and a two-form copy agree on every
            # cell, on equality and on hash
            both = Hypergraph(ground, h.edges)
            both.mask  # now held in both forms
            forms = (Hypergraph(ground, h.edges), Hypergraph._from_mask(ground, mask), both)
            for cell in index.cells:
                assert len({cell in f for f in forms}) == 1
                assert (cell in forms[0]) == (cell in h.edges)
            for a, b in itertools.product(forms, repeat=2):
                assert a == b and hash(a) == hash(b)
            # non-cells are not members, in either form
            n, r = ground.n, ground.r
            for f in forms:
                for bad in [(), (0,) * (r - 1), (0,) * (r + 1), (n,) * r, (-1,) * r,
                            (n,) + (0,) * (r - 1), (-1,) + (0,) * (r - 1),
                            ("a",) * r, (None,) * r, (0.5,) * r, [[0]] * r]:
                    assert bad not in f

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_cell_index_numbers_each_kind_one_way(self, data):
        # partite positions are base-n digits and general ones vertex sets;
        # either way position, cell, mask and edges invert one another
        kind = data.draw(st.sampled_from([PARTITE, GENERAL]))
        r = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 4) if kind == PARTITE else st.integers(r, 7))
        ground = GroundSet(kind, r, n)
        index, cells = ground.index, list(ground.cells())
        for i, c in enumerate(cells):
            assert index.position(c) == i and index.cell(i) == c
        chosen = data.draw(st.lists(st.sampled_from(cells), unique=True))
        assert index.edges(index.mask(chosen)) == tuple(sorted(chosen))
        assert index._cells is None  # listed only when asked for

    @pytest.mark.parametrize("n,indexed", [(4, True), (33, False)])  # 16 and 1,089 cells
    @pytest.mark.parametrize("oracle", [lambda fam: rainbow_exact(fam),
                                        lambda fam: nu_exact(fam[0])], ids=["rainbow", "nu"])
    def test_index_is_lazy_and_skipped_by_direct_paths(self, n, indexed, oracle):
        # greedy and check never build the index; the oracles build it on a
        # ground of at most SHIFT_MASK_BITS cells and leave a larger one bare
        from rainbowmatch import check_hall_condition, greedy_bipartite
        ground = GroundSet(PARTITE, 2, n)
        fam = random_family(seeded("lazy"), ground, 2, low=6)
        greedy_bipartite(fam)
        check_hall_condition(fam)
        assert "index" not in vars(ground)
        oracle(fam)
        assert ("index" in vars(ground)) == indexed
        assert ground.index is ground.index  # built once, then cached

    def test_bad_parameters(self):
        with pytest.raises(InputError):
            GroundSet("weird", 2, 2)
        with pytest.raises(InputError):
            GroundSet(PARTITE, 0, 2)
        with pytest.raises(InputError):
            GroundSet(GENERAL, 5, 3)

    def test_bad_edges(self):
        with pytest.raises(InputError):
            H(B2, (0, 2))
        with pytest.raises(InputError):
            H(B2, (0,))
        with pytest.raises(InputError):
            H(GroundSet(GENERAL, 2, 4), (2, 1))
        with pytest.raises(InputError):
            H(B2, (0, 0), (0, 0))

    @pytest.mark.parametrize("edge", [(0.0, 1.0), (0, 1.0), (True, 0), (0, False), ("0", 1)],
                             ids=["floats", "one-float", "true", "false", "string"])
    def test_non_int_vertices_are_refused(self, edge):
        # refused as parse_instance refuses them, before any mask is built
        for ground in (B2, GroundSet(GENERAL, 2, 4)):
            with pytest.raises(InputError, match="vertices must be integers"):
                Hypergraph(ground, [edge])


class TestDegree:
    def test_two_edges_at_m1(self):
        h = H(B2, (0, 0), (0, 1))
        assert h.degree(0, side=0) == 2

    def test_empty(self):
        h = Hypergraph(B2, [])
        assert h.degree(0, side=0) == 0
        assert h.degree(1, side=1) == 0

    def test_complete_w2(self):
        h = Hypergraph(B3, B3.cells())
        assert h.degree(1, side=1) == 3

    def test_general_degree(self):
        g = GroundSet(GENERAL, 2, 4)
        h = H(g, (0, 1), (0, 2), (1, 2))
        assert h.degree(2) == 2

    def test_errors(self):
        h = Hypergraph(B2, [(0, 0)])
        with pytest.raises(InputError):
            h.degree(5, side=0)
        with pytest.raises(InputError):
            h.degree(0)  # partite without a side
        hg = Hypergraph(GroundSet(GENERAL, 2, 4), [(0, 1)])
        with pytest.raises(InputError):
            hg.degree(0, side=0)

    def test_degree_rows(self):
        h = H(B3, (0, 0), (0, 2), (2, 2))
        assert h.degrees(0) == (2, 0, 1) and h.degrees(1) == (1, 0, 2)
        assert H(GroundSet(GENERAL, 2, 4), (0, 1), (1, 3)).degrees() == (1, 2, 0, 1)
        for side in (None, -1, 2):
            with pytest.raises(InputError):
                h.degrees(side)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 5), st.data())
    def test_index_counts_every_side_as_the_edge_walk(self, r, n, data):
        ground = GroundSet(PARTITE, r, n)
        h = Hypergraph._from_mask(ground, data.draw(st.integers(0, (1 << ground.cell_count) - 1)))
        counts = tuple(tuple(ground.index.degrees(s)(h.mask)) for s in range(r))
        assert h._edges is None  # read from the mask, with no edge listed
        assert counts == tuple(h.degrees(s) for s in range(r))


class TestPackage:
    def test_all_exports_resolve(self):
        import rainbowmatch
        assert len(set(rainbowmatch.__all__)) == len(rainbowmatch.__all__)
        for name in rainbowmatch.__all__:
            assert hasattr(rainbowmatch, name), name

    def test_dir_lists_every_export_and_module(self):
        import rainbowmatch
        listed = set(dir(rainbowmatch))
        assert set(rainbowmatch.__all__) <= listed
        assert {"core", "errors", "extremal", "index", "instances", "oracles", "shifting",
                "solvers", "verify"} <= listed

    def test_star_import_binds_every_export(self):
        import rainbowmatch
        namespace: dict = {}
        exec("from rainbowmatch import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == rainbowmatch.__all__
        for name, value in namespace.items():
            assert value is getattr(rainbowmatch, name), name

    def test_unknown_name_is_an_attribute_error(self):
        import rainbowmatch
        with pytest.raises(AttributeError, match="has no attribute 'nonesuch'"):
            rainbowmatch.nonesuch
        # private names stay on their modules
        assert not hasattr(rainbowmatch, "_dominates")

    def test_core_forwards_exactly_the_two_oracles(self):
        import rainbowmatch
        from rainbowmatch import core, oracles
        for name in ("nu_exact", "rainbow_exact"):
            assert getattr(core, name) is getattr(oracles, name), name
            assert getattr(rainbowmatch, name) is getattr(oracles, name), name
        # nothing else that left core is read through it
        for name in ("nonesuch", "_edge_masks", "_Conflicts", "CellIndex", "bits",
                     "rainbow_positions", "SHIFT_MASK_BITS", "_closer"):
            with pytest.raises(AttributeError, match=f"'rainbowmatch.core' has no attribute "
                                                     f"'{name}'"):
                getattr(core, name)

    def test_conjecture_id_is_one_class(self):
        import rainbowmatch
        from rainbowmatch import core, verify
        assert rainbowmatch.ConjectureId is verify.ConjectureId is core.ConjectureId

    # argparse wraps usage lines differently from Python 3.13 on
    @pytest.mark.parametrize("argv,golden", [
        (["--help"], "help.txt"),
        (["verify", "--help"],
         "help_verify_3.13.txt" if sys.version_info >= (3, 13) else "help_verify.txt"),
    ])
    def test_help_is_unchanged(self, capsys, monkeypatch, argv, golden):
        from rainbowmatch.cli import main
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == (FIXTURES / "cli" / golden).read_text()


class TestIsMatching:
    def test_disjoint(self):
        assert is_matching(B2, [(0, 0), (1, 1)])

    def test_shared_m(self):
        assert not is_matching(B2, [(0, 0), (0, 1)])

    def test_empty(self):
        assert is_matching(B2, [])

    def test_general(self):
        g = GroundSet(GENERAL, 2, 4)
        assert is_matching(g, [(0, 1), (2, 3)])
        assert not is_matching(g, [(0, 1), (1, 2)])

    def test_partite_sides_are_distinct(self):
        # (0,1) and (1,0) share no vertex: index 0 on side M vs side W differ
        assert is_matching(B2, [(0, 1), (1, 0)])


class TestNuExact:
    def test_empty(self):
        assert nu_exact(Hypergraph(B3, [])) == 0

    def test_complete_b3(self):
        assert nu_exact(Hypergraph(B3, B3.cells())) == 3

    def test_star(self):
        h = H(B3, (0, 0), (0, 1), (0, 2))
        assert nu_exact(h) == 1

    def test_matches_subset_oracle_exhaustive_b2(self):
        cells = list(B2.cells())
        for mask in range(2 ** len(cells)):
            h = Hypergraph(B2, [c for i, c in enumerate(cells) if mask >> i & 1])
            assert nu_exact(h) == brute_nu(h)

    def test_matches_subset_oracle_exhaustive_k4(self):
        g = GroundSet(GENERAL, 2, 4)
        cells = list(g.cells())
        for mask in range(2 ** len(cells)):
            h = Hypergraph(g, [c for i, c in enumerate(cells) if mask >> i & 1])
            assert nu_exact(h) == brute_nu(h)

    @pytest.mark.parametrize("ground", [
        B3, GroundSet(PARTITE, 3, 2), GroundSet(PARTITE, 3, 3),
        GroundSet(GENERAL, 2, 5), GroundSet(GENERAL, 3, 6),
    ])
    def test_matches_subset_oracle_random(self, ground):
        rng = seeded(f"nu:{ground.kind}:{ground.r}:{ground.n}")
        for _ in range(60):
            h = random_hypergraph(rng, ground, rng.randint(0, min(12, ground.cell_count)))
            assert nu_exact(h) == brute_nu(h)


class TestSizeImpliesMatching:
    """Any partite edge set larger than (k-1) n^(r-1) has nu >= k."""

    @pytest.mark.parametrize("n,r", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2),
                                     (3, 2), (2, 3), (3, 3)])
    def test_exhaustive_shifted(self, n, r):
        ground = GroundSet(PARTITE, r, n)
        for h in iter_shifted(ground):
            for k in (1, 2):
                if len(h) > (k - 1) * n ** (r - 1):
                    assert nu_exact(h) >= k

    def test_random_n4(self):
        rng = seeded("obs-size")
        for r in (2, 3):
            ground = GroundSet(PARTITE, r, 4)
            for _ in range(40):
                k = rng.randint(1, 3)
                low = (k - 1) * 4 ** (r - 1) + 1
                h = random_hypergraph(rng, ground, rng.randint(low, ground.cell_count))
                assert nu_exact(h) >= k


class TestRainbowExact:
    def test_disjoint_singletons(self):
        fam = Family([H(B2, (0, 0)), H(B2, (1, 1))])
        m = rainbow_exact(fam)
        assert m is not None and m.choices == ((0, 0), (1, 1))

    def test_blocked(self):
        fam = Family([H(B2, (0, 0)), H(B2, (0, 1), (1, 0))])
        assert rainbow_exact(fam) is None

    def test_steal_family_has_rainbow(self):
        from rainbowmatch import steal_family
        m = rainbow_exact(steal_family(3, 6))
        assert m is not None
        # deterministic tie order: members ascending by size, edges lexicographic
        assert m.choices == ((0, 1), (1, 2), (2, 3), (3, 0))

    @pytest.mark.parametrize("ground", [B2, B3, GroundSet(PARTITE, 3, 2),
                                        GroundSet(GENERAL, 2, 4)])
    def test_matches_product_oracle(self, ground):
        rng = seeded(f"rx:{ground.kind}:{ground.r}:{ground.n}")
        for _ in range(80):
            fam = random_family(rng, ground, rng.randint(1, 3))
            m = rainbow_exact(fam)
            assert (m is not None) == brute_rainbow_exists(fam)
            if m is not None:
                assert m.is_valid_for(fam)


ORACLE_GROUNDS = [(PARTITE, 1, 4), (PARTITE, 2, 3), (PARTITE, 3, 3),
                  (GENERAL, 2, 5), (GENERAL, 3, 7)]


@st.composite
def oracle_families(draw):
    """Families of up to n + 2 members, which may be empty or share edges."""
    kind, r, n_max = draw(st.sampled_from(ORACLE_GROUNDS))
    ground = GroundSet(kind, r, draw(st.integers(r if kind == GENERAL else 1, n_max)))
    cells = list(ground.cells())
    members = []
    for _ in range(draw(st.integers(1, ground.n + 2))):
        keep = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
        members.append(Hypergraph(ground, [c for c, k in zip(cells, keep) if k]))
    return Family(members)


class TestOraclesAgainstReference:
    """The explicit-stack oracles against the recursive ones they replaced."""

    # the lowest vertex must stay unmatched for a maximum matching
    @example(Family([H(GroundSet(PARTITE, 3, 3), (0, 0, 0), (1, 0, 1), (2, 1, 0))]))
    @example(Family([H(GroundSet(GENERAL, 3, 7), (0, 1, 2), (1, 3, 4), (2, 5, 6))]))
    @settings(max_examples=300)
    @given(oracle_families())
    def test_same_matching_and_nu(self, fam):
        assert rainbow_exact(fam) == reference.rainbow_exact(fam)
        for h in fam:
            assert nu_exact(h) == reference.nu_exact(h)

    @example(Family([H(GroundSet(PARTITE, 3, 3), (0, 0, 0), (1, 0, 1), (2, 1, 0))]), 0)
    @example(Family([H(GroundSet(GENERAL, 3, 7), (0, 1, 2), (1, 3, 4), (2, 5, 6))]), 0)
    @example(Family([H(B3, (0, 0), (1, 1)), H(B3, (0, 1)), H(B3, (1, 0), (2, 2))]), 0b101)
    @settings(max_examples=300)
    @given(oracle_families(), st.integers(0, (1 << 6) - 1))
    def test_same_matching_and_nu_on_index_masks(self, fam, listed):
        # members holding only their masks are searched on the index
        # numbering, alone and mixed with members holding only their edge
        # lists (member i is listed if bit i of listed is set)
        masked = [Hypergraph._from_mask(fam.ground, h.mask) for h in fam]
        mixed = [Hypergraph(fam.ground, h.edges) if listed >> i & 1 else m
                 for i, (h, m) in enumerate(zip(fam, masked))]
        for members in (masked, mixed):
            assert rainbow_exact(Family(members)) == reference.rainbow_exact(fam)
            for h, m in zip(fam, members):
                assert nu_exact(m) == reference.nu_exact(h)

    @pytest.mark.parametrize("ground", [GroundSet(PARTITE, 2, 40), GroundSet(PARTITE, 3, 12),
                                        GroundSet(GENERAL, 2, 50)])
    def test_same_answers_past_a_kilobit_of_edges(self, ground):
        # past 1,024 cells, so the edges are numbered locally and every mask
        # is set through a byte buffer
        rng = random.Random(ground.n)
        cells = list(ground.cells())
        fam = Family([Hypergraph(ground, rng.sample(cells, len(cells) * 2 // 3))
                      for _ in range(4)])
        assert rainbow_exact(fam) == reference.rainbow_exact(fam)
        for h in fam:
            if ground.kind == PARTITE:
                assert nu_exact(h) == reference.nu_exact(h)
            else:  # perfect matchings, which the reference search takes minutes to find
                assert nu_exact(h) == ground.n // 2


@st.composite
def masks_past_the_cell_limit(draw):
    """Up to 4 members as index masks on a ground past SHIFT_MASK_BITS
    cells: partite r=2 n=33..40, general r=2 n=47..55 or general r=3
    n=20..21 (1,081 to 1,600 cells); each member empty, sparse or dense."""
    kind, r, low, high = draw(st.sampled_from([(PARTITE, 2, 33, 40), (GENERAL, 2, 47, 55),
                                               (GENERAL, 3, 20, 21)]))
    ground = GroundSet(kind, r, draw(st.integers(low, high)))
    u = ground.cell_count
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    sizes = draw(st.lists(st.integers(0, 3) | st.integers(0, u), min_size=1, max_size=4))
    return ground, [_mask(rng.sample(range(u), size), u) for size in sizes]


class TestIndexNumbering:
    """Members on a ground of at most SHIFT_MASK_BITS cells are searched on the
    cell index's numbering and members past it on the local one, keyed by
    index position when every member holds a mask and by edge otherwise, with
    the same answers whatever form each member holds."""

    @pytest.mark.parametrize("ground,within", [
        (GroundSet(PARTITE, 2, 32), True),    # 1,024 cells
        (GroundSet(GENERAL, 2, 47), False)])  # 1,081 cells
    def test_both_sides_of_the_cell_limit(self, ground, within):
        assert (ground.cell_count <= SHIFT_MASK_BITS) == within
        rng = random.Random(ground.n)
        cells = list(ground.cells())
        # dense enough that every nu meets the bound at the root at once
        listed = Family([Hypergraph(ground, rng.sample(cells, len(cells) * 2 // 3))
                         for _ in range(6)])
        answers = rainbow_exact(listed), [nu_exact(h) for h in listed]
        # only the index numbering builds the masks of listed members
        assert all((h._mask is not None) == within for h in listed)
        masked = Family([Hypergraph._from_mask(ground, h.mask) for h in listed])
        assert (rainbow_exact(masked), [nu_exact(h) for h in masked]) == answers
        # no numbering decodes a member that holds a mask
        assert all(h._edges is None for h in masked)

    @pytest.mark.parametrize("ground", [GroundSet(PARTITE, 1, 5), GroundSet(PARTITE, 3, 4),
                                        GroundSet(GENERAL, 2, 6), GroundSet(GENERAL, 3, 7)])
    def test_mask_members_are_not_decoded(self, ground):
        rng = seeded(f"undecoded:{ground.kind}:{ground.r}")
        for _ in range(20):
            masks = [h.mask for h in random_family(rng, ground, rng.randint(1, 4))]
            fam = Family([Hypergraph._from_mask(ground, m) for m in masks])
            rainbow_exact(fam)
            for h in fam:
                nu_exact(h)
            assert all(h._edges is None for h in fam)

    @pytest.mark.parametrize("ground", [GroundSet(PARTITE, 1, 5), GroundSet(PARTITE, 3, 3),
                                        GroundSet(GENERAL, 2, 6), GroundSet(GENERAL, 3, 7)])
    def test_search_tables_are_built_once_per_ground_and_kept(self, ground):
        index = ground.index
        assert index._conflict is None and index._side_vertex is None
        cells = list(ground.cells())
        full = Hypergraph(ground, cells)
        assert nu_exact(full) == ground.n // (1 if ground.kind == PARTITE else ground.r)
        tables = index._conflict, index._side_vertex
        # each cell's conflict mask is the cells sharing a vertex with it,
        # on the same side if partite
        assert index._conflict == tuple(
            sum(1 << j for j, other in enumerate(cells)
                if set(edge_vertices(ground, cell)) & set(edge_vertices(ground, other)))
            for cell in cells)
        assert (index._side_vertex is None) == (ground.kind == GENERAL)  # general: _vertex
        rng = seeded(f"tables:{ground.kind}:{ground.r}")
        for _ in range(20):
            fam = random_family(rng, ground, rng.randint(1, 3))
            rainbow_exact(fam)
            nu_exact(fam[0])
        assert (index._conflict, index._side_vertex) == tables
        assert index._conflict is tables[0] and index._side_vertex is tables[1]

    @given(masks_past_the_cell_limit())
    def test_masks_are_numbered_as_their_edges_are(self, case):
        # past the limit members holding index masks are numbered from their
        # union's set bits, and parsed members from their edges: the same
        # numbering, with no member decoded and no listed member's mask set
        ground, masks = case
        assert ground.cell_count > SHIFT_MASK_BITS
        masked = [Hypergraph._from_mask(ground, m) for m in masks]
        listed = [Hypergraph(ground, ground.index.edges(m)) for m in masks]
        numberings = []
        for members in (masked, listed):
            local, touched, tables = _edge_masks(ground, members)
            edges, first, conflict = tables()
            numberings.append((local, touched, edges, first,
                               [conflict[i] for i in range(len(edges))]))
        assert numberings[0] == numberings[1]
        assert all(h._edges is None for h in masked)
        assert all(h._mask is None for h in listed)

    @pytest.mark.parametrize("ground", [GroundSet(PARTITE, 2, 33), GroundSet(GENERAL, 2, 47)])
    def test_no_tables_past_the_cell_limit(self, ground):
        # 1,089 and 1,081 cells: the edges are numbered locally and the
        # ground gets no index, so no table with one entry per cell
        rng = random.Random(ground.n)
        cells = list(ground.cells())
        fam = Family([Hypergraph(ground, rng.sample(cells, 40)) for _ in range(3)])
        rainbow_exact(fam)
        nu_exact(fam[0])
        assert "index" not in vars(ground)

    @pytest.mark.parametrize("n,r,k", [(6, 2, 5), (4, 3, 4), (3, 2, 3)])
    def test_a_root_pigeonhole_refutation_builds_no_table(self, n, r, k):
        from rainbowmatch import star_family
        fam = Family([Hypergraph._from_mask(h.ground, h.mask) for h in star_family(n, r, k)])
        assert rainbow_exact(fam) is None
        index = fam.ground.index
        assert index._conflict is None and index._side_vertex is None and index._cells is None


class TestOracleLimits:
    """Inputs far past the recursion limit or the search the oracles once made."""

    @pytest.mark.parametrize("n,k", [(8, 7), (10, 9)])
    def test_stars_are_refuted(self, n, k):
        from rainbowmatch import star_family
        assert rainbow_exact(star_family(n, 2, k)) is None

    def test_many_members(self):
        ground = GroundSet(PARTITE, 2, 1500)
        fam = Family([H(ground, (i, i), (i, (i + 1) % 1500)) for i in range(1500)])
        m = rainbow_exact(fam)
        assert m is not None and m.choices == tuple((i, i) for i in range(1500))

    @pytest.mark.parametrize("ground", [GroundSet(PARTITE, 2, 10 ** 6),
                                        GroundSet(GENERAL, 2, 10 ** 6)])
    def test_memory_follows_edges_not_vertices(self, ground):
        h = H(ground, (0, 1), (2, 3))
        fam = Family([h, h])
        for oracle, arg in [(nu_exact, h), (rainbow_exact, fam)]:
            tracemalloc.start()
            try:
                oracle(arg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 ** 20
        assert nu_exact(h) == 2 and rainbow_exact(fam).choices == ((0, 1), (2, 3))

    @pytest.mark.parametrize("ground,nu,choices", [
        (GroundSet(PARTITE, 2, 200), 200, ((0, 0), (1, 1))),
        (GroundSet(GENERAL, 2, 280), 140, ((0, 1), (2, 3)))])
    def test_memory_stays_linear_in_dense_edges(self, ground, nu, choices):
        # about 40,000 edges: one int per edge, as 1 << i, would hold E^2/16
        # bytes (about 100 MiB) before the search starts
        h = Hypergraph(ground, ground.cells())
        fam = Family([h, h])
        results = []
        for oracle, arg in [(nu_exact, h), (rainbow_exact, fam)]:
            tracemalloc.start()
            try:
                results.append(oracle(arg))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2 ** 20
        assert results[0] == nu and results[1].choices == choices


class TestPmDecomposition:
    def test_n2_r2(self):
        assert pm_decomposition(2, 2) == [((0, 0), (1, 1)), ((0, 1), (1, 0))]

    @given(st.integers(1, 4), st.integers(1, 3))
    def test_partition_property(self, n, r):
        ground = GroundSet(PARTITE, r, n)
        matchings = pm_decomposition(n, r)
        assert len(matchings) == n ** (r - 1)
        seen = set()
        for m in matchings:
            assert len(m) == n
            assert is_matching(ground, m)
            seen.update(m)
        assert len(seen) == ground.cell_count  # disjoint union covers everything

    def test_bad_args(self):
        with pytest.raises(InputError):
            pm_decomposition(0, 2)


class TestFamily:
    def test_mixed_grounds_rejected(self):
        with pytest.raises(InputError):
            Family([Hypergraph(B2, [(0, 0)]), Hypergraph(B3, [(0, 0)])])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            Family([])
