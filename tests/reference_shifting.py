"""The edge-tuple shifting sweep that rainbowmatch.shifting replaced with a
mask kernel, kept verbatim as the slow reference for differential tests."""
from __future__ import annotations

from dataclasses import dataclass

from rainbowmatch.core import GENERAL, PARTITE, Edge, Family, GroundSet, Hypergraph, RainbowMatching
from rainbowmatch.errors import InputError, TheoremViolationError

MODE_PARTITE = "partite"
MODE_GLOBAL = "global"


@dataclass(frozen=True)
class ShiftStep:
    """One shift of a single hypergraph: every edge pair that actually moved."""

    side: int | None  # None for the global (general-kind) order
    x: int
    y: int
    moved: tuple[tuple[Edge, Edge], ...]  # (original, image), image = original with y -> x


@dataclass(frozen=True)
class FamilyShiftStep:
    """One shift applied to every member of a family simultaneously."""

    side: int | None
    x: int
    y: int
    member_moves: tuple[tuple[tuple[Edge, Edge], ...], ...]  # indexed like the family


@dataclass(frozen=True)
class ShiftLog:
    """Ordered shift steps; replaying them forward reproduces the shifted family,
    and each step is individually reversible through its moved-edge pairs."""

    steps: tuple[FamilyShiftStep, ...]

    def replay(self, family: Family) -> Family:
        """Apply the logged moves to a family; errors if the log does not fit."""
        sets = [set(h.edges) for h in family.members]
        if self.steps and len(sets) != len(self.steps[0].member_moves):
            raise InputError("shift log was recorded for a different member count")
        for step in self.steps:
            for i, moves in enumerate(step.member_moves):
                for orig, img in moves:
                    if orig not in sets[i] or img in sets[i]:
                        raise InputError("shift log does not apply to this family")
                    sets[i].remove(orig)
                    sets[i].add(img)
        return Family([Hypergraph(family.ground, s) for s in sets])

    def to_json(self) -> list[dict]:
        out = []
        for step in self.steps:
            moved = []
            for i, moves in enumerate(step.member_moves):
                if moves:
                    moved.append({
                        "member": i + 1,
                        "pairs": [[[v + 1 for v in orig], [v + 1 for v in img]]
                                  for orig, img in moves],
                    })
            out.append({
                "side": None if step.side is None else step.side + 1,
                "x": step.x + 1,
                "y": step.y + 1,
                "moved": moved,
            })
        return out


def _mode_for(ground: GroundSet, mode: str | None) -> str:
    if mode is None:
        return MODE_PARTITE if ground.kind == PARTITE else MODE_GLOBAL
    if mode not in (MODE_PARTITE, MODE_GLOBAL):
        raise InputError(f"unknown shift mode: {mode!r}")
    if mode == MODE_PARTITE and ground.kind != PARTITE:
        raise InputError("partite shifting needs a partite ground")
    if mode == MODE_GLOBAL and ground.kind != GENERAL:
        raise InputError("global shifting needs a general ground")
    return mode


def _replace_vertex(edge: Edge, old: int, new: int, side: int | None, kind: str) -> Edge:
    if kind == PARTITE:
        assert side is not None and edge[side] == old
        return edge[:side] + (new,) + edge[side + 1:]
    return tuple(sorted(set(edge) - {old} | {new}))


def _shift_image(edge: Edge, x: int, y: int, side: int | None, kind: str) -> Edge | None:
    """Image of an edge under the shift y -> x, or None if the edge is untouched."""
    if kind == PARTITE:
        if edge[side] != y:
            return None
        return edge[:side] + (x,) + edge[side + 1:]
    if y not in edge or x in edge:
        return None
    return tuple(sorted(set(edge) - {y} | {x}))


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
    moved = []
    for e in h.edges:
        img = _shift_image(e, x, y, side, g.kind)
        if img is not None and img not in h:
            moved.append((e, img))
    step = ShiftStep(side, x, y, tuple(moved))
    if not moved:
        return h, step
    removed = {e for e, _ in moved}
    new_edges = [e for e in h.edges if e not in removed] + [img for _, img in moved]
    return Hypergraph(g, new_edges), step


def is_shifted(h: Hypergraph, mode: str | None = None) -> bool:
    """True iff replacing any single vertex of any edge by a smaller vertex
    (same side, in partite mode) yields an edge already present."""
    g = h.ground
    _mode_for(g, mode)
    if g.kind == PARTITE:
        for e in h.edges:
            for s in range(g.r):
                for u in range(e[s]):
                    if e[:s] + (u,) + e[s + 1:] not in h:
                        return False
        return True
    for e in h.edges:
        es = set(e)
        for v in e:
            for u in range(v):
                if u not in es and tuple(sorted(es - {v} | {u})) not in h:
                    return False
    return True


def shifted_closure(family: Family, mode: str | None = None) -> tuple[Family, ShiftLog]:
    """Sweep all (side, x, y) pairs in canonical order, shifting every member
    simultaneously, until a full sweep changes nothing.

    Terminates because every effective shift strictly decreases the total sum
    of vertex indices over all edges of all members.
    """
    g = family.ground
    mode = _mode_for(g, mode)
    sides: list[int | None] = list(range(g.r)) if mode == MODE_PARTITE else [None]
    members = list(family.members)
    steps: list[FamilyShiftStep] = []
    while True:
        changed = False
        for side in sides:
            for x in range(g.n - 1):
                for y in range(x + 1, g.n):
                    member_moves = []
                    new_members = []
                    for h in members:
                        h2, st = shift_hypergraph(h, x, y, side)
                        new_members.append(h2)
                        member_moves.append(st.moved)
                    if any(member_moves):
                        members = new_members
                        steps.append(FamilyShiftStep(side, x, y, tuple(member_moves)))
                        changed = True
        if not changed:
            break
    return Family(members), ShiftLog(tuple(steps))


def pullback_rainbow(log: ShiftLog, original: Family,
                     matching: RainbowMatching) -> RainbowMatching:
    """Translate a rainbow matching of the shifted family back to the original.

    Walks the log backward. At each reversed step with shift pair (x, y), at
    most one chosen edge can be an image a+x missing from the pre-step member;
    it is replaced by a+y, and if another chosen edge b+y exists, that one is
    swapped to b+x (present, else b+y would itself have been shifted).
    """
    g = original.ground
    sets = [set(h.edges) for h in original.members]
    if len(sets) != len(matching.choices):
        raise InputError("matching size does not fit the family")
    for step in log.steps:
        for i, moves in enumerate(step.member_moves):
            for orig, img in moves:
                if orig not in sets[i] or img in sets[i]:
                    raise InputError("shift log does not apply to this family")
                sets[i].remove(orig)
                sets[i].add(img)
    shifted = Family([Hypergraph(g, s) for s in sets])
    if not matching.is_valid_for(shifted):
        raise InputError("not a rainbow matching of the shifted family")

    choices = list(matching.choices)
    for step in reversed(log.steps):
        for i, moves in enumerate(step.member_moves):
            for orig, img in moves:
                sets[i].remove(img)
                sets[i].add(orig)
        bad = [i for i, e in enumerate(choices) if e not in sets[i]]
        if not bad:
            continue  # no chosen edge was created by this step
        if len(bad) > 1:
            raise TheoremViolationError(
                "multiple chosen edges lost by one reversed shift", instance=original)
        j = bad[0]
        pre_image = _replace_vertex(choices[j], step.x, step.y, step.side, g.kind)
        holder = next((i for i, e in enumerate(choices) if i != j
                       and _edge_has(e, step.y, step.side, g.kind)), None)
        choices[j] = pre_image
        if holder is not None:
            swapped = _replace_vertex(choices[holder], step.y, step.x, step.side, g.kind)
            if swapped not in sets[holder]:
                raise TheoremViolationError(
                    "expected swap partner edge is missing", instance=original)
            choices[holder] = swapped

    result = RainbowMatching(tuple(choices))
    if not result.is_valid_for(original):
        raise TheoremViolationError("pull-back produced an invalid matching",
                                    instance=original)
    return result


def _edge_has(edge: Edge, v: int, side: int | None, kind: str) -> bool:
    if kind == PARTITE:
        return edge[side] == v
    return v in edge
