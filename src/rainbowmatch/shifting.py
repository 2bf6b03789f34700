"""Compression of edge sets: the shift operator, shiftedness tests, shifted
closure with a replayable log, and constructive pull-back of rainbow matchings
through that log.

Members are shifted as int masks over the ground's cell index
(``GroundSet.index``): a partite shift is a few big-int operations, and a
general-kind shift maps each moving cell through the position map."""
from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, NamedTuple

from .core import (PARTITE, Edge, Family, GroundSet, Hypergraph, RainbowMatching,
                   _guard_index, _Record, bits)
from .errors import InputError, TheoremViolationError


class ShiftStep(NamedTuple):
    """One shift y -> x (on one side when partite) applied to every member of
    a family at once. images[i] masks, over ground.index, the edges the step
    created in member i; each is an original edge with y replaced by x.

    A named tuple rather than a record: the closure makes one per member
    per shift, and a tuple is built in under half the time."""

    ground: GroundSet
    side: int | None  # None for the global (general-kind) order
    x: int
    y: int
    images: tuple[int, ...]  # indexed like the family

    def pairs(self, member: int) -> tuple[tuple[Edge, Edge], ...]:
        """(original, image) pairs of one member, in sorted edge order."""
        return self._pairs(self.ground, len(self.images))[member]

    @property
    def moved(self) -> tuple[tuple[Edge, Edge], ...]:
        """(original, image) pairs of every member, member by member."""
        return tuple(p for pairs in self._pairs(self.ground, len(self.images)) for p in pairs)

    def _pairs(self, ground: GroundSet, count: int) -> list[tuple[tuple[Edge, Edge], ...]]:
        """Every member's pairs, the step checked against ground and count and
        every image given an origin. Images keep their originals' order:
        y -> x keeps symmetric differences."""
        _check_step(self, ground, count)
        index = ground.index
        origins = [index.origins(i, self.side, self.x, self.y) for i in self.images]
        if list(map(int.bit_count, origins)) != list(map(int.bit_count, self.images)):
            raise InputError("shift log does not apply to this family")
        return [tuple(zip(index.edges(o), index.edges(i))) for o, i in zip(origins, self.images)]


def _check_step(step: ShiftStep, ground: GroundSet, count: int) -> None:
    """Refuse a step not recorded on ground for count members, or no shift of it."""
    if step.ground != ground:
        raise InputError("shift log was recorded on a different ground")
    if len(step.images) != count:
        raise InputError("shift log was recorded for a different member count")
    _check_shift_args(ground, step.x, step.y, step.side)


class ShiftLog(_Record):
    """Ordered shift steps; replaying them forward reproduces the shifted family,
    and each step is individually reversible through its image masks."""

    steps: tuple[ShiftStep, ...]

    def replay(self, family: Family) -> Family:
        """Apply the logged moves to a family; errors if the log does not fit,
        or if a member does not move exactly as its step's shift moves it."""
        g, masks = family.ground, [h.mask for h in family.members]
        move = g.index.move
        for step in self.steps:
            _check_step(step, g, len(masks))
            for i, images in enumerate(step.images):
                origins, moved = move(masks[i], step.side, step.x, step.y)
                if moved != images:
                    raise InputError("shift log does not apply to this family")
                masks[i] ^= origins | images
        return Family([Hypergraph._from_mask(g, m) for m in masks])

    def to_json(self) -> list[dict]:
        first = self.steps[0] if self.steps else None  # every step is checked against it
        return [{"side": None if step.side is None else step.side + 1,
                 "x": step.x + 1,
                 "y": step.y + 1,
                 "moved": [{"member": i + 1,
                            "pairs": [[[v + 1 for v in orig], [v + 1 for v in img]]
                                      for orig, img in pairs]}
                           for i, pairs in enumerate(step._pairs(first.ground, len(first.images)))
                           if pairs]}
                for step in self.steps]


def _check_shift_args(ground: GroundSet, x: int, y: int, side: int | None) -> None:
    if x >= y:
        raise InputError(f"shift needs x < y, got x={x}, y={y}")
    if x < 0 or y >= ground.n:
        raise InputError(f"shift pair ({x}, {y}) out of range [0, {ground.n})")
    if ground.kind == PARTITE:
        if side is None:
            raise InputError("partite shifts need a side")
        if side < 0 or side >= ground.r:
            raise InputError(f"side {side} out of range [0, {ground.r})")
    elif side is not None:
        raise InputError("general-kind shifts take no side")


def shift_hypergraph(h: Hypergraph, x: int, y: int,
                     side: int | None = None) -> tuple[Hypergraph, ShiftStep]:
    """Replace y by x in every edge containing y but not x, unless the image
    already exists. Preserves the edge count."""
    g = h.ground
    _check_shift_args(g, x, y, side)
    mask = h.mask
    origins, images = g.index.move(mask, side, x, y)
    step = ShiftStep(g, side, x, y, (images,))
    if not images:
        return h, step
    return Hypergraph._from_mask(g, mask ^ origins ^ images), step


def is_shifted(h: Hypergraph) -> bool:
    """True iff replacing any single vertex of any edge by a smaller vertex
    (on the same side, if partite) yields an edge already present.

    It suffices to test the shifts v -> v-1: each longer replacement is a
    chain of them through edges that must then be present."""
    g = h.ground
    return not any(g.index.move(h.mask, side, v - 1, v)[1]
                   for side in g.sides for v in range(1, g.n))


def _sweep(ground: GroundSet) -> Iterator[tuple[int | None, int, int]]:
    """The closure's shift pairs (side, x, y): side by side, then x and y
    ascending, listed once the guard on the pairs and the cell index passes.

    One sweep leaves a set shifted (Frankl, 1987). Write S_ab for b -> a. If F
    is stable under every S_ab with a < x, so is S_xy(F). Take A in it with b
    in A, a not in A, and A' = A - b + a. If A is in F, so is A', and S_xy
    keeps it, else A - y + x (x not in A) or A - y + a (b = x) would put
    A' - y + x in F. If A = B - y + x is new, A' is B - y + a (b = x), which
    avoids y, or C - y + x for C = B - b + a, which S_xy keeps or makes. S_xy
    also keeps every S_xy' with y' < y: it adds only edges through x and
    removes only edges avoiding x. So by induction on x the sweep ends
    shifted. Pairs on different sides share no vertex, so side order is free."""
    _guard_index(ground)
    for side in ground.sides:
        for x, y in itertools.combinations(range(ground.n), 2):
            yield side, x, y


def shifted_closure(family: Family) -> tuple[Family, ShiftLog]:
    """Shift every member simultaneously by each pair of one sweep (_sweep),
    logging the shifts that move an edge. Partite grounds shift within each
    side, general grounds over the one ordered vertex set."""
    g = family.ground
    members = list(family.members)
    steps: list[ShiftStep] = []
    for side, x, y in _sweep(g):
        shifted = [shift_hypergraph(h, x, y, side) for h in members]
        images = tuple(step.images[0] for _, step in shifted)
        if any(images):
            members = [h for h, _ in shifted]
            steps.append(ShiftStep(g, side, x, y, images))
    return Family(members), ShiftLog(tuple(steps))


# Largest closure plan kept on a cell index, in entries: r*C(n, 2) sweep
# pairs on a partite ground, C(n, 2)*C(n-2, r-1) moving cells on a general
# one. An entry takes up to about 160 bytes (tracemalloc, CPython 3.11), so
# a kept plan stays under 0.7 MiB; partite r=1 with 1,024 cells would
# otherwise keep 73 MiB.
MAX_PLAN_ENTRIES = 1 << 12


def _closure_plan(ground: GroundSet) -> tuple | None:
    """The constants of one sweep (_sweep) for _closer, kept on the
    cell index, or None past MAX_PLAN_ENTRIES. The sweep's guard runs here,
    once per ground, before any entry is kept.

    A partite entry is one shift pair's (y*t, zero, x*t, (y-x)*t), for the
    stride t of its side and the mask zero of the side's vertex-0 cells, as
    in CellIndex.move. A general entry is one pair's mask of the cells that
    hold y and not x, with each such cell's (origin, origin | image) one-bit
    masks. They are read off CellIndex.move of that mask, which moves every
    one of them: y -> x keeps symmetric differences, so it keeps the order
    of cells, and the i-th origin goes to the i-th image."""
    index, n, r = ground.index, ground.n, ground.r
    pairs = n * (n - 1) // 2
    partite = ground.kind == PARTITE
    if (r if partite else math.comb(max(n - 2, 0), r - 1)) * pairs > MAX_PLAN_ENTRIES:
        return None
    plan = []
    for side, x, y in _sweep(ground):
        if partite:
            t = index._stride[side]
            plan.append((y * t, index._zero[side], x * t, (y - x) * t))
            continue
        origins, images = index.move(index._vertex[y] & ~index._vertex[x], None, x, y)
        if origins:
            plan.append((origins, tuple((1 << i, 1 << i | 1 << j)
                                        for i, j in zip(bits(origins), bits(images)))))
    index._plan = plan = tuple(plan)
    return plan


def _closer(ground: GroundSet) -> Callable[[int], int]:
    """The map from one member's edge mask to its mask after
    shifted_closure, with no log kept. A shift acts on each member on its
    own, so this is the member's mask in shifted_closure's result whatever
    family it is closed in.

    The ground's closure plan is read, or built, here, once per caller that
    closes many members; each shift pair is then one step of the plan. Past
    the plan's bound, each is a CellIndex.move call."""
    plan = ground.index._plan
    if plan is None and (plan := _closure_plan(ground)) is None:
        move = ground.index.move

        def close(mask: int) -> int:
            for side, x, y in _sweep(ground):
                origins, images = move(mask, side, x, y)
                mask ^= origins | images
            return mask
    elif ground.kind == PARTITE:
        def close(mask: int) -> int:
            for down, zero, up, back in plan:
                images = ((mask >> down) & zero) << up & ~mask
                mask ^= images | images << back
            return mask
    else:
        def close(mask: int) -> int:
            for held, cells in plan:
                if mask & held:
                    for origin, moving in cells:
                        if mask & moving == origin:  # the origin is an edge, its image is not
                            mask ^= moving
            return mask
    return close


def pullback_rainbow(log: ShiftLog, original: Family,
                     matching: RainbowMatching) -> RainbowMatching:
    """Translate a rainbow matching of the shifted family back to the original.

    Walks the log backward with each chosen edge as a one-bit mask. At each
    reversed step (x, y), at most one chosen edge can be an image a+x of the
    step; it gets back its origin a+y, and the chosen edge b+y, if any, that
    the shift y -> x moves (only a+x holds x) is swapped to its image b+x
    (present, else b+y would itself have been shifted).
    """
    g = original.ground
    if len(original.members) != len(matching.choices):
        raise InputError("matching size does not fit the family")
    shifted = log.replay(original)
    if not matching.is_valid_for(shifted):
        raise InputError("not a rainbow matching of the shifted family")
    masks = [h.mask for h in shifted.members]

    index = g.index
    chosen = [1 << index.position(e) for e in matching.choices]
    for step in reversed(log.steps):
        for i, images in enumerate(step.images):  # replay checked the step
            masks[i] ^= index.origins(images, step.side, step.x, step.y) | images
        lost = [i for i, c in enumerate(chosen) if step.images[i] & c]
        if not lost:
            continue
        if len(lost) > 1:
            raise TheoremViolationError(
                "multiple chosen edges lost by one reversed shift", instance=original)
        for i, c in enumerate(chosen):
            swapped = index.move(c, step.side, step.x, step.y)[1]
            if swapped:
                if not masks[i] & swapped:
                    raise TheoremViolationError(
                        "expected swap partner edge is missing", instance=original)
                chosen[i] = swapped
                break
        j = lost[0]
        chosen[j] = index.origins(chosen[j], step.side, step.x, step.y)

    result = RainbowMatching(tuple(index.cell(c.bit_length() - 1) for c in chosen))
    if not result.is_valid_for(original):
        raise TheoremViolationError("pull-back produced an invalid matching",
                                    instance=original)
    return result
