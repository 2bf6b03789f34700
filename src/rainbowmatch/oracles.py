"""The exact oracles that take members: nu_exact on a hypergraph and
rainbow_exact on a family, with the edge numbering both search in
(_edge_masks). The rainbow search itself is index.rainbow_positions."""
from __future__ import annotations

import functools
import itertools
import operator
from bisect import bisect_left
from typing import Callable, Sequence

from .core import PARTITE, Edge, Family, GroundSet, Hypergraph, RainbowMatching, capped_cells
from .index import SHIFT_MASK_BITS, _index_numbering, _mask, bits, rainbow_positions


class _Conflicts(dict):
    """Conflict masks of locally numbered edges, by bit: each computed on its
    first lookup, as the OR of the masks of its vertices, and then kept."""

    __slots__ = ("edges", "vertex")

    def __init__(self, edges: tuple[Edge, ...], vertex: list[dict[int, int]]):
        super().__init__()
        self.edges, self.vertex = edges, vertex

    def __missing__(self, i: int) -> int:
        mask = 0
        for by_vertex, v in zip(self.vertex, self.edges[i]):
            mask |= by_vertex[v]
        self[i] = mask
        return mask


def _edge_masks(ground: GroundSet, members: Sequence[Hypergraph]
                ) -> tuple[list[int], list[list[int]], Callable[[], tuple]]:
    """Bit numbering of the members' edges, for the exact oracles.

    Returns one edge mask per member; the vertices their edges touch,
    ascending, one list per side on a partite ground and one list on a
    general ground; and a function giving the search tables. Those are the
    edges, where bit i stands for the i-th; the masks of the edges through
    each vertex of the first position (side 0, or any vertex on a general
    ground); and, indexed by bit, each edge's conflict mask, the edges that
    share a vertex with it, itself included. A search node then takes an
    edge with one OR. The oracles refute by pigeonhole on the touched
    vertices before they ask for the tables.

    The ground alone picks the numbering. Up to SHIFT_MASK_BITS cells it is
    the index's: the member masks are the members' own, the vertices are
    read off the index, and the tables are the index's own, built by the
    first search that asks for them and kept (CellIndex.search_tables).
    Their vertex and conflict masks hold every cell of the ground; an edge
    of no member is never a candidate, so the extra bits change nothing.
    Past it the members' distinct edges are numbered locally, each mask set
    through _mask in time linear in |E|: one mask per touched vertex, and
    an edge's conflict mask computed on its first use in the call
    (_Conflicts), never for all |E| edges at once. Members that all hold
    index masks are numbered from the set bits of their union, whose cells
    are decoded once and no member's edges listed; otherwise (parsed edge
    lists) from their edges, and the index is not built. Both orders are
    lexicographic, so the search takes the same path either way. The cells
    are counted by capped_cells: a general ground's full count can take
    seconds."""
    if capped_cells(ground.kind, ground.r, ground.n) <= SHIFT_MASK_BITS:
        masks = [h.mask for h in members]
        return (masks, *_index_numbering(ground, masks))
    if None in (held := [h._mask for h in members]):  # keyed by edge
        edges = tuple(sorted(set().union(*(keys := [h.edges for h in members]))))
        position = dict(zip(edges, itertools.count()))
    else:  # keyed by index position
        keys, union = map(bits, held), functools.reduce(operator.or_, held)
        edges, position = ground.index.edges(union), dict(zip(bits(union), itertools.count()))
    m = len(edges)
    masks = [_mask(map(position.__getitem__, key), m) for key in keys]
    partite = ground.kind == PARTITE
    groups = [(s,) for s in range(ground.r)] if partite else [range(ground.r)]
    vertex = []
    for slots in groups:
        at: dict[int, list[int]] = {}
        for i, e in enumerate(edges):
            for s in slots:
                at.setdefault(e[s], []).append(i)
        vertex.append({v: _mask(p, m) for v, p in at.items()})
    conflict = _Conflicts(edges, vertex if partite else vertex * ground.r)
    return masks, [sorted(by_vertex) for by_vertex in vertex], lambda: (edges, vertex[0], conflict)


def nu_exact(h: Hypergraph) -> int:
    """Exact matching number, by branch and bound on an explicit stack.

    A node is a size and a mask of live edges: those disjoint from every
    edge taken so far and not through a vertex left unmatched. It branches
    on the lowest side-0 vertex (partite) or lowest vertex (general) with a
    live edge: first each of its live edges in order, each clearing its
    conflict mask from the live edges, then leaving it unmatched. A frame
    holds a node and the branch vertex's edges not yet tried, so the stack
    holds one frame per level of the current path. No vertex below the
    branch vertex has a live edge, so a node is pruned when its size plus
    the touched side-0 vertices (partite) or touched vertices // r
    (general) from the branch vertex on cannot beat the best; the search
    stops once a matching meets the bound at the root.
    """
    if not len(h):
        return 0
    g = h.ground
    (live,), touched, tables = _edge_masks(g, (h,))
    edges, first, conflict = tables()
    touched0 = touched[0]
    per_edge = 1 if g.kind == PARTITE else g.r
    limit = min(map(len, touched)) // per_edge  # the bound at the root
    best = 0
    stack = [(0, live, first[edges[(live & -live).bit_length() - 1][0]] & live)]
    while stack:
        size, live, rest = stack.pop()
        if rest:
            low = rest & -rest
            stack.append((size, live, rest ^ low))
            live &= ~conflict[low.bit_length() - 1]
            size += 1
        else:  # the branch vertex stays unmatched
            live &= ~first[edges[(live & -live).bit_length() - 1][0]]
        if not live:
            if size > best:
                best = size
                if best == limit:
                    break
            continue
        u = edges[(live & -live).bit_length() - 1][0]
        if size + (len(touched0) - bisect_left(touched0, u)) // per_edge > best:
            stack.append((size, live, first[u] & live))
    return best


def rainbow_exact(family: Family) -> RainbowMatching | None:
    """A rainbow matching if one exists, else None: rainbow_positions on the
    members' masks in the numbering _edge_masks picks, the index's up to
    SHIFT_MASK_BITS cells and a local one past it, with the chosen bits
    read back as edges."""
    masks, touched, tables = _edge_masks(family.ground, family.members)
    chosen = rainbow_positions(family.ground, masks, (touched, tables))
    if chosen is None:
        return None
    edges = tables()[0]
    return RainbowMatching(tuple(edges[i] for i in chosen))
