import itertools

import pytest
from hypothesis import given, settings, strategies as st

import reference_shifting as reference
from rainbowmatch import (GENERAL, PARTITE, Family, GroundSet, Hypergraph,
                          InputError, RainbowMatching,
                          is_shifted, nu_exact, pullback_rainbow, rainbow_exact,
                          shift_hypergraph, shifted_closure)
from rainbowmatch import index as index_module
from rainbowmatch.index import MAX_PLAN_ENTRIES, _closer
from rainbowmatch.shifting import ShiftLog, ShiftStep
from conftest import brute_is_downward_closed, random_family, random_hypergraph, seeded

B2 = GroundSet(PARTITE, 2, 2)
B3 = GroundSet(PARTITE, 2, 3)


def all_subgraphs(ground):
    cells = list(ground.cells())
    for mask in range(2 ** len(cells)):
        yield Hypergraph(ground, [c for i, c in enumerate(cells) if mask >> i & 1])


def all_shift_args(ground):
    sides = range(ground.r) if ground.kind == PARTITE else [None]
    for side in sides:
        for x, y in itertools.combinations(range(ground.n), 2):
            yield x, y, side


class TestShiftHypergraph:
    def test_moves_edge(self):
        h = Hypergraph(B2, [(1, 0)])
        h2, step = shift_hypergraph(h, 0, 1, side=0)
        assert h2.edges == ((0, 0),)
        assert step.moved == (((1, 0), (0, 0)),)

    def test_image_present_keeps_edge(self):
        h = Hypergraph(B2, [(0, 0), (1, 0)])
        h2, step = shift_hypergraph(h, 0, 1, side=0)
        assert h2 == h
        assert step.moved == ()

    def test_fixpoint_on_shifted(self):
        h = Hypergraph(B2, [(0, 0), (0, 1)])
        h2, step = shift_hypergraph(h, 0, 1, side=0)
        assert h2 == h and step.moved == ()

    def test_general_kind(self):
        g = GroundSet(GENERAL, 2, 4)
        h = Hypergraph(g, [(1, 3)])
        h2, _ = shift_hypergraph(h, 0, 3)
        assert h2.edges == ((0, 1),)

    def test_bad_args(self):
        h = Hypergraph(B2, [(0, 0)])
        with pytest.raises(InputError):
            shift_hypergraph(h, 1, 0, side=0)
        with pytest.raises(InputError):
            shift_hypergraph(h, 0, 1)  # partite needs a side
        with pytest.raises(InputError):
            shift_hypergraph(h, 0, 5, side=0)

    @given(st.integers(0, 2 ** 9 - 1))
    def test_size_preserved(self, mask):
        cells = list(B3.cells())
        h = Hypergraph(B3, [c for i, c in enumerate(cells) if mask >> i & 1])
        for x, y, side in all_shift_args(B3):
            h2, _ = shift_hypergraph(h, x, y, side=side)
            assert len(h2) == len(h)

    def test_matching_number_never_grows_exhaustive(self):
        for h in all_subgraphs(B2):
            for x, y, side in all_shift_args(B2):
                h2, _ = shift_hypergraph(h, x, y, side=side)
                assert nu_exact(h2) <= nu_exact(h)

    def test_matching_number_never_grows_random(self):
        rng = seeded("mono")
        for _ in range(250):
            h = random_hypergraph(rng, B3, rng.randint(0, 9))
            for x, y, side in all_shift_args(B3):
                h2, _ = shift_hypergraph(h, x, y, side=side)
                assert nu_exact(h2) <= nu_exact(h)


class TestIsShifted:
    def test_minimum_edge(self):
        assert is_shifted(Hypergraph(B2, [(0, 0)]))

    def test_missing_lower_edge(self):
        assert not is_shifted(Hypergraph(B2, [(1, 1)]))

    def test_star_is_shifted(self):
        h = Hypergraph(B3, [(0, j) for j in range(3)])
        assert is_shifted(h)

    @pytest.mark.parametrize("ground", [B2, GroundSet(GENERAL, 2, 4),
                                        GroundSet(PARTITE, 3, 2)])
    def test_equals_fixpoint_definition(self, ground):
        for h in all_subgraphs(ground):
            fixpoint = all(
                shift_hypergraph(h, x, y, side=side)[1].moved == ()
                for x, y, side in all_shift_args(ground))
            assert is_shifted(h) == fixpoint

    @pytest.mark.parametrize("ground", [B2, B3, GroundSet(GENERAL, 2, 4)])
    def test_equals_downward_closure(self, ground):
        rng = seeded(f"dc:{ground.kind}:{ground.n}")
        for _ in range(120):
            h = random_hypergraph(rng, ground, rng.randint(0, ground.cell_count))
            assert is_shifted(h) == brute_is_downward_closed(h)

    def test_complement_upward_closed(self):
        # a set is shifted exactly when its complement is closed upward
        for h in all_subgraphs(B2):
            cells = list(B2.cells())
            comp = [c for c in cells if c not in h]
            upward = all(
                f in comp
                for e in comp for f in cells
                if all(fv >= ev for fv, ev in zip(f, e)))
            assert is_shifted(h) == upward


class TestOneSweepLemma:
    """One sweep in the closure's order, side by side and then x and y
    ascending, leaves every edge set shifted. Swept here with bare
    CellIndex.move, not through the shifting module."""

    @pytest.mark.parametrize("ground", [GroundSet(GENERAL, 2, 6), GroundSet(GENERAL, 4, 6),
                                        GroundSet(PARTITE, 2, 4)],
                             ids=["general-r2-n6", "general-r4-n6", "partite-r2-n4"])
    def test_every_edge_set_is_shifted_after_one_sweep(self, ground):
        move = ground.index.move
        pairs = list(all_shift_args(ground))
        for mask in range(1 << ground.cell_count):
            swept = mask
            for x, y, side in pairs:
                origins, images = move(swept, side, x, y)
                swept ^= origins | images
            assert not any(move(swept, side, x, y)[1] for x, y, side in pairs), mask


class TestShiftedClosure:
    def test_identity_on_shifted(self):
        fam = Family([Hypergraph(B2, [(0, 0), (0, 1)])])
        shifted, log = shifted_closure(fam)
        assert shifted == fam
        assert log.steps == ()

    def test_singleton(self):
        fam = Family([Hypergraph(B2, [(1, 1)])])
        shifted, _ = shifted_closure(fam)
        assert shifted[0].edges == ((0, 0),)

    @pytest.mark.parametrize("ground", [B3, GroundSet(GENERAL, 2, 5),
                                        GroundSet(PARTITE, 3, 2)])
    def test_closure_properties(self, ground):
        rng = seeded(f"closure:{ground.kind}:{ground.n}")
        for _ in range(350):
            fam = random_family(rng, ground, rng.randint(1, 3), low=0)
            shifted, log = shifted_closure(fam)
            assert all(is_shifted(h) for h in shifted)
            assert shifted.sizes() == fam.sizes()
            again, log2 = shifted_closure(shifted)
            assert again == shifted and log2.steps == ()
            assert log.replay(fam) == shifted


class TestPullback:
    def test_empty_log(self):
        fam = Family([Hypergraph(B2, [(0, 0)])])
        shifted, log = shifted_closure(fam)
        m = RainbowMatching(((0, 0),))
        assert pullback_rainbow(log, fam, m).choices == ((0, 0),)

    def test_forced_single_edge(self):
        fam = Family([Hypergraph(B2, [(1, 0)])])
        shifted, log = shifted_closure(fam)
        assert shifted[0].edges == ((0, 0),)
        back = pullback_rainbow(log, fam, RainbowMatching(((0, 0),)))
        assert back.choices == ((1, 0),)

    def test_swap_branch(self):
        # the reversed step must hand y back to the moved edge and give its
        # holder the x-edge instead: both choices change in one step
        fam = Family([Hypergraph(B2, [(1, 0)]), Hypergraph(B2, B2.cells())])
        shifted, log = shifted_closure(fam)
        assert shifted[0].edges == ((0, 0),)
        assert len(log.steps) == 1
        back = pullback_rainbow(log, fam, RainbowMatching(((0, 0), (1, 1))))
        assert back.choices == ((1, 0), (0, 1))

    def test_rejects_invalid_matching(self):
        fam = Family([Hypergraph(B2, [(1, 0)])])
        _, log = shifted_closure(fam)
        with pytest.raises(InputError):
            pullback_rainbow(log, fam, RainbowMatching(((1, 1),)))

    @pytest.mark.parametrize("ground", [B3, GroundSet(GENERAL, 2, 5),
                                        GroundSet(PARTITE, 3, 2)])
    def test_pulled_back_matchings_validate(self, ground):
        rng = seeded(f"pull:{ground.kind}:{ground.n}")
        found = 0
        for _ in range(250):
            fam = random_family(rng, ground, rng.randint(1, 3))
            shifted, log = shifted_closure(fam)
            m = rainbow_exact(shifted)
            if m is None:
                continue
            back = pullback_rainbow(log, fam, m)
            assert back.is_valid_for(fam)
            found += 1
        assert found > 50  # the suite must actually exercise the pull-back

    @pytest.mark.parametrize("ground", [B3, GroundSet(GENERAL, 2, 5), GroundSet(PARTITE, 3, 2),
                                        GroundSet(GENERAL, 3, 6)])
    def test_the_closed_family_given_pulls_back_the_same_matching(self, ground, monkeypatch):
        rng = seeded(f"given:{ground.kind}:{ground.r}:{ground.n}")
        cases = []
        for _ in range(200):
            fam = random_family(rng, ground, rng.randint(1, 3))
            shifted, log = shifted_closure(fam)
            m = rainbow_exact(shifted)
            if m is not None:
                cases.append((fam, shifted, log, m, pullback_rainbow(log, fam, m)))
        assert len(cases) > 40
        # the closed family given, the log is not replayed
        monkeypatch.setattr(ShiftLog, "replay", lambda *args: pytest.fail("log replayed"))
        for fam, shifted, log, m, back in cases:
            assert pullback_rainbow(log, fam, m, shifted=shifted) == back
        # and a matching of another family is still refused
        fam, shifted, log, m, _ = next(c for c in cases if len(c[1][0]) < ground.cell_count)
        other = RainbowMatching(tuple(e for e in ground.cells() if e not in shifted[0])[:1]
                                + m.choices[1:])
        with pytest.raises(InputError, match="not a rainbow matching of the shifted family"):
            pullback_rainbow(log, fam, other, shifted=shifted)

    def test_counterexamples_survive_shifting(self):
        # contrapositive of the pull-back lemma: a family without a rainbow
        # matching cannot gain one through shifting (the converse is false)
        rng = seeded("contra")
        hits = 0
        for _ in range(300):
            fam = random_family(rng, B3, 2, high=4)  # small members block more often
            if rainbow_exact(fam) is None:
                shifted, _ = shifted_closure(fam)
                assert rainbow_exact(shifted) is None
                hits += 1
        assert hits > 10


class TestLogRefusals:
    """A log or matching that does not fit the family is refused with
    InputError, by replay and by the pull-back alike."""

    G4 = GroundSet(GENERAL, 2, 4)

    @staticmethod
    def refusals(log, fam, matching, match):
        with pytest.raises(InputError, match=match):
            log.replay(fam)
        with pytest.raises(InputError, match=match):
            pullback_rainbow(log, fam, matching)

    @pytest.mark.parametrize("image", [(0, 1), 40])  # holds y as well; past the cells
    def test_general_image_no_shift_makes(self, image):
        g = self.G4
        bit = 1 << (g.index.position(image) if isinstance(image, tuple) else image)
        fam = Family([Hypergraph(g, [(0, 1)])])
        log = ShiftLog((ShiftStep(g, None, 0, 1, (bit,)),))
        self.refusals(log, fam, RainbowMatching(((0, 1),)),
                      "shift log does not apply to this family")

    def test_partite_image_without_x(self):
        # (1, 0) does not hold x=0 on side 0, so no shift 1 -> 0 there makes it
        fam = Family([Hypergraph(B3, [(2, 0)])])
        log = ShiftLog((ShiftStep(B3, 0, 0, 1, (1 << B3.index.position((1, 0)),)),))
        self.refusals(log, fam, RainbowMatching(((1, 0),)),
                      "shift log does not apply to this family")

    def test_partite_step_without_side(self):
        fam = Family([Hypergraph(B3, [(1, 0)])])
        log = ShiftLog((ShiftStep(B3, None, 0, 1, (1,)),))
        self.refusals(log, fam, RainbowMatching(((0, 0),)), "partite shifts need a side")

    def test_log_of_another_ground(self):
        _, log = shifted_closure(Family([Hypergraph(B3, [(1, 0)])]))
        self.refusals(log, Family([Hypergraph(B2, [(1, 0)])]), RainbowMatching(((1, 0),)),
                      "different ground")

    def test_log_of_another_member_count(self):
        _, log = shifted_closure(Family([Hypergraph(B2, [(1, 0)])]))
        fam = Family([Hypergraph(B2, [(1, 0)]), Hypergraph(B2, [(1, 1)])])
        self.refusals(log, fam, RainbowMatching(((1, 0), (1, 1))),
                      "different member count")

    def test_partite_log_of_another_family(self):
        _, log = shifted_closure(Family([Hypergraph(B2, [(1, 0)])]))
        self.refusals(log, Family([Hypergraph(B2, [(0, 0)])]), RainbowMatching(((0, 0),)),
                      "shift log does not apply to this family")

    def test_partial_step(self):
        # (0, 0) is the image of (1, 0) in both members, but the shift 1 -> 0
        # on side 0 also moves the first member's (1, 1) to (0, 1): the step
        # moves only some of the edges its shift moves
        fam = Family([Hypergraph(B2, [(1, 0), (1, 1)]), Hypergraph(B2, [(1, 0)])])
        m = 1 << B2.index.position((0, 0))
        log = ShiftLog((ShiftStep(B2, 0, 0, 1, (m, m)),))
        self.refusals(log, fam, RainbowMatching(((1, 1), (0, 0))),
                      "shift log does not apply to this family")

    def test_matching_of_another_size(self):
        fam = Family([Hypergraph(B2, [(1, 0)])])
        _, log = shifted_closure(fam)
        with pytest.raises(InputError, match="matching size does not fit"):
            pullback_rainbow(log, fam, RainbowMatching(((0, 0), (1, 1))))

    # (steps, family edges, matching, message, whether the last step alone
    # is refused) of four bad steps: a partite step with no side; an image
    # without x, which zip would report as a member moved with no pairs; and
    # a later step of another ground (position 4 is (1, 0) on n=4 but (1, 1)
    # on n=3, so one side-0 shift would change both coordinates) or member
    # count, which only the whole log shows
    BAD_STEPS = {
        "no-side": ([ShiftStep(B3, None, 0, 1, (1,))], [(1, 0)], (0, 0),
                    "partite shifts need a side", True),
        "image-without-x": ([ShiftStep(B3, 0, 0, 1, (1 << B3.index.position((1, 0)),))],
                            [(2, 0)], (1, 0), "shift log does not apply to this family", True),
        "later-ground": ([ShiftStep(B3, 0, 0, 1, (1 << B3.index.position((0, 1)),)),
                          ShiftStep(GroundSet(PARTITE, 2, 4), 0, 0, 1, (1,))],
                         [(1, 1)], (0, 0), "different ground", False),
        "later-count": ([ShiftStep(B3, 0, 0, 1, (1 << B3.index.position((0, 0)),)),
                         ShiftStep(B3, 1, 0, 1, (0, 0))],
                        [(1, 0)], (0, 0), "different member count", False),
    }

    @pytest.mark.parametrize("case", sorted(BAD_STEPS))
    def test_every_reader_refuses_a_bad_step(self, case):
        steps, edges, choice, match, alone = self.BAD_STEPS[case]
        log = ShiftLog(tuple(steps))
        self.refusals(log, Family([Hypergraph(B3, edges)]), RainbowMatching((choice,)), match)
        with pytest.raises(InputError, match=match):
            log.to_json()
        if alone:  # read against its own ground and image count
            with pytest.raises(InputError, match=match):
                steps[-1].moved
            with pytest.raises(InputError, match=match):
                steps[-1].pairs(0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_edited_closure_logs_are_read_or_refused(self, data):
        fam = data.draw(small_families())
        _, log = shifted_closure(fam)
        edited = ShiftLog(tuple(data.draw(edited_steps(list(log.steps), fam.ground))))
        try:
            replayed = edited.replay(fam)
        except InputError:
            replayed = None
        try:
            payload = edited.to_json()
        except InputError:
            assert replayed is None and edited.steps
            payload = None
        for step in edited.steps:
            try:
                moved = step.moved
            except InputError:
                assert replayed is None
                continue
            pairs = [step.pairs(i) for i in range(len(step.images))]
            assert moved == tuple(p for member in pairs for p in member)
        if replayed is None:
            return
        # replay accepts a step only where it moves what its shift moves
        assert own_shifts(edited, fam)
        # to_json and moved report the moves replay makes, step by step
        edges = [set(h.edges) for h in fam]
        for step, entry in zip(edited.steps, payload):
            assert entry["moved"] == [
                {"member": i + 1, "pairs": [[[v + 1 for v in a], [v + 1 for v in b]]
                                            for a, b in step.pairs(i)]}
                for i in range(fam.k) if step.pairs(i)]
            for i in range(fam.k):
                for orig, img in step.pairs(i):
                    assert orig in edges[i] and img not in edges[i]
                    edges[i] ^= {orig, img}
        assert [set(h.edges) for h in replayed] == edges
        m = rainbow_exact(replayed)
        if m is not None:
            assert pullback_rainbow(edited, fam, m).is_valid_for(fam)


def own_shifts(log, fam):
    """Whether every step moves all the edges its shift moves in the family
    as replayed so far."""
    members = list(fam)
    for step in log.steps:
        shifted = [shift_hypergraph(h, step.x, step.y, step.side) for h in members]
        if tuple(s.images[0] for _, s in shifted) != step.images:
            return False
        members = [h for h, _ in shifted]
    return True


@st.composite
def edited_steps(draw, steps, ground):
    """A closure log's steps with one to three edits: a step dropped,
    duplicated or moved; its ground, side, x or y replaced; an image bit
    flipped; an image entry added or removed."""
    others = [GroundSet(kind, ground.r, n) for kind in (PARTITE, GENERAL)
              for n in (ground.n - 1, ground.n, ground.n + 1)
              if n >= (ground.r if kind == GENERAL else 1)]
    other = draw(st.sampled_from([g for g in others if g != ground]))
    for _ in range(draw(st.integers(1, 3))):
        if not steps:
            return steps
        j = draw(st.integers(0, len(steps) - 1))
        step = steps[j]
        edit = draw(st.sampled_from(["drop", "duplicate", "move", "ground", "side",
                                     "x", "y", "flip", "add", "remove"]))
        if edit == "drop":
            del steps[j]
        elif edit == "duplicate":
            steps.insert(j, step)
        elif edit == "move":
            steps.insert(draw(st.integers(0, len(steps) - 1)), steps.pop(j))
        elif edit == "ground":
            steps[j] = step._replace(ground=other)
        elif edit == "side":
            steps[j] = step._replace(side=draw(st.sampled_from([None, -1, 0, 1, ground.r])))
        elif edit in ("x", "y"):
            steps[j] = step._replace(**{edit: draw(st.integers(-1, ground.n))})
        elif edit == "flip" and step.images:
            i = draw(st.integers(0, len(step.images) - 1))
            bit = 1 << draw(st.integers(0, ground.cell_count))
            steps[j] = step._replace(images=(*step.images[:i], step.images[i] ^ bit,
                                             *step.images[i + 1:]))
        elif edit == "add":
            extra = draw(st.sampled_from([0, *step.images]))
            steps[j] = step._replace(images=(*step.images, extra))
        elif edit == "remove":
            steps[j] = step._replace(images=step.images[:-1])
    return steps


# (kind, r, largest n) of the grounds the differential test draws from
REFERENCE_GROUNDS = [(PARTITE, 1, 6), (PARTITE, 2, 5), (PARTITE, 3, 3),
                     (GENERAL, 2, 7), (GENERAL, 3, 6)]


@st.composite
def small_families(draw):
    kind, r, n_max = draw(st.sampled_from(REFERENCE_GROUNDS))
    ground = GroundSet(kind, r, draw(st.integers(r if kind == GENERAL else 1, n_max)))
    cells = list(ground.cells())
    members = []
    for _ in range(draw(st.integers(1, 3))):
        keep = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
        members.append(Hypergraph(ground, [c for c, k in zip(cells, keep) if k]))
    return Family(members)


class TestAgainstReference:
    """The mask kernel against the edge-tuple sweep it replaced."""

    @settings(max_examples=300)
    @given(small_families())
    def test_closure_log_and_pullback_agree(self, fam):
        shifted, log = shifted_closure(fam)
        ref_shifted, ref_log = reference.shifted_closure(fam)
        assert shifted == ref_shifted
        assert ([(s.side, s.x, s.y, tuple(s.pairs(i) for i in range(fam.k)))
                 for s in log.steps]
                == [(s.side, s.x, s.y, s.member_moves) for s in ref_log.steps])
        assert log.to_json() == ref_log.to_json()
        assert log.replay(fam) == shifted
        m = rainbow_exact(shifted)
        if m is not None:
            assert (pullback_rainbow(log, fam, m)
                    == reference.pullback_rainbow(ref_log, fam, m))
        for h in (*fam, *shifted):
            assert is_shifted(h) == reference.is_shifted(h) == brute_is_downward_closed(h)

    @given(small_families())
    def test_single_shifts_agree(self, fam):
        h = fam[0]
        for x, y, side in all_shift_args(h.ground):
            h2, step = shift_hypergraph(h, x, y, side=side)
            ref_h2, ref_step = reference.shift_hypergraph(h, x, y, side=side)
            assert h2 == ref_h2 and h2.edges == ref_h2.edges
            assert step.moved == ref_step.moved

    @pytest.mark.parametrize("ground", [GroundSet(PARTITE, 3, 30), GroundSet(GENERAL, 3, 30)])
    def test_sparse_large_ground(self, ground):
        rng = seeded(f"sparse:{ground.kind}")
        if ground.kind == PARTITE:
            edges = [tuple(rng.randrange(ground.n) for _ in range(3)) for _ in range(40)]
        else:
            edges = [tuple(sorted(rng.sample(range(ground.n), 3))) for _ in range(40)]
        fam = Family([Hypergraph(ground, set(edges[i::2])) for i in range(2)])
        shifted, log = shifted_closure(fam)
        ref_shifted, ref_log = reference.shifted_closure(fam)
        assert shifted == ref_shifted
        assert log.to_json() == ref_log.to_json()
        if ground.kind == PARTITE:
            assert ground.index._cells is None  # positions are computed, not looked up


class TestClosedMask:
    """The log-free member closure of the random samplers against
    shifted_closure, whose grounds cover partite r=1..3 and general r=2..3."""

    @pytest.mark.parametrize("n", [8, 30])  # with and without a kept plan
    def test_general_shifts_never_list_the_cells(self, n):
        # a general cell is numbered by its vertex set: the closure, its
        # plan and move read the vertex-set tables, never the cell tuple
        g = GroundSet(GENERAL, 3, n)
        rng = seeded(f"unlisted:{n}")
        fam = Family([random_hypergraph(rng, g, 12) for _ in range(2)])
        shifted, _ = shifted_closure(fam)
        assert [_closer(g)(h.mask) for h in fam] == [h.mask for h in shifted]
        g.index.move(fam[0].mask, None, 0, n - 1)
        assert (g.index._plan is not None) == (n == 8)
        assert g.index._cells is None

    @settings(max_examples=300)
    @given(small_families())
    def test_equals_the_closure_member_by_member(self, fam):
        g = fam.ground
        shifted, _ = shifted_closure(fam)
        assert [_closer(g)(h.mask) for h in fam] == [h.mask for h in shifted]
        for h in fam:
            assert _closer(g)(h.mask) == shifted_closure(Family([h]))[0][0].mask

    # (kind, r, n, whether the plan is kept): the last ground a plan is kept
    # for and the first past MAX_PLAN_ENTRIES, on each side of the bound
    PLAN_BOUND = [(PARTITE, 1, 91, True), (PARTITE, 1, 92, False),
                  (PARTITE, 2, 64, True), (PARTITE, 2, 65, False),
                  (GENERAL, 2, 21, True), (GENERAL, 2, 22, False)]

    @pytest.mark.parametrize("kind, r, n, kept", PLAN_BOUND,
                             ids=[f"{k}-r{r}-n{n}" for k, r, n, _ in PLAN_BOUND])
    def test_equals_the_closure_on_both_sides_of_the_plan_bound(self, kind, r, n, kept):
        g = GroundSet(kind, r, n)
        entries = r * n * (n - 1) // 2 if kind == PARTITE else sum(
            y in c and x not in c
            for x, y in itertools.combinations(range(n), 2) for c in g.cells())
        assert (entries <= MAX_PLAN_ENTRIES) == kept
        rng = seeded(f"plan:{kind}:{r}:{n}")
        fam = Family([random_hypergraph(rng, g, rng.randint(1, g.cell_count // 4))
                      for _ in range(2)])
        shifted, _ = shifted_closure(fam)
        assert [_closer(g)(h.mask) for h in fam] == [h.mask for h in shifted]
        assert (g.index._plan is not None) == kept

    def test_plan_is_built_once_and_kept_on_the_index(self, monkeypatch):
        # the sweep's guard, told apart from the index's own (sweep=False)
        calls = []
        guard = index_module._guard_index
        monkeypatch.setattr(index_module, "_guard_index",
                            lambda g, sweep=True: sweep and calls.append(g) or guard(g, sweep))
        for g in (GroundSet(PARTITE, 3, 4), GroundSet(GENERAL, 2, 8)):
            assert g.index._plan is None
            _closer(g)(1)
            plan = g.index._plan
            assert plan is not None
            rng = seeded(f"once:{g.kind}")
            for _ in range(20):
                _closer(g)(rng.getrandbits(g.cell_count))
            assert g.index._plan is plan
            assert calls == [g]  # the sweep's guard ran when the plan was built, and only then
            calls.clear()

    def test_no_plan_is_kept_past_the_bound(self):
        g = GroundSet(PARTITE, 1, 92)
        for mask in (0, 1 << 91, (1 << 92) - 2):
            _closer(g)(mask)
        assert g.index._plan is None

    def test_one_cell_ground_past_the_sweep_limit_is_refused_before_a_plan(self):
        # n(n-1)/2 shift pairs pass the limit from n = 23,171; the one cell
        # makes a plan of no entries, which must not be built
        n = 23171
        g = GroundSet(GENERAL, n, n)
        with pytest.raises(InputError, match="^ground too large to shift: ") as err:
            _closer(g)(1)
        assert f"each closure sweep {n * (n - 1) // 2} shift pairs" in str(err.value)
        assert g.index._plan is None
