"""Ground sets, hypergraphs, families, and exact brute-force oracles."""
from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import InputError

Edge = tuple[int, ...]

PARTITE = "partite"
GENERAL = "general"


@dataclass(frozen=True)
class GroundSet:
    """Vertex universe: either r sides of n ordered vertices, or one ordered n-set.

    Vertices are 0-based internally everywhere; serialized forms are 1-based.
    Partite edges are per-side index tuples of length r; general edges are
    strictly increasing r-tuples of global indices.
    """

    kind: str
    r: int
    n: int

    def __post_init__(self) -> None:
        if self.kind not in (PARTITE, GENERAL):
            raise InputError(f"unknown ground kind: {self.kind!r}")
        if self.r < 1:
            raise InputError(f"uniformity must be at least 1, got {self.r}")
        if self.n < 1:
            raise InputError(f"vertex count must be at least 1, got {self.n}")
        if self.kind == GENERAL and self.r > self.n:
            raise InputError(f"cannot form {self.r}-subsets of {self.n} vertices")

    @property
    def cell_count(self) -> int:
        """Number of edges of the complete hypergraph over this ground."""
        if self.kind == PARTITE:
            return self.n ** self.r
        return math.comb(self.n, self.r)

    def cells(self) -> Iterator[Edge]:
        """All possible edges, in lexicographic order."""
        if self.kind == PARTITE:
            yield from itertools.product(range(self.n), repeat=self.r)
        else:
            yield from itertools.combinations(range(self.n), self.r)

    @property
    def sides(self) -> tuple[int | None, ...]:
        """The sides a shift can name: each of the r if partite, else None
        alone (a general ground shifts over its one ordered vertex set)."""
        return tuple(range(self.r)) if self.kind == PARTITE else (None,)

    @property
    def index(self) -> "CellIndex":
        """The cell index of this ground, built on first use and then kept.

        Kept as a plain attribute, not a cached_property: writing through
        __dict__ makes every later read of kind, r or n several times slower
        on CPython 3.11, and the oracles read kind once per edge they try."""
        try:
            return self._index
        except AttributeError:
            object.__setattr__(self, "_index", CellIndex(self))
            return self._index

    def check_edge(self, edge: Sequence[int]) -> Edge:
        e = tuple(edge)
        if len(e) != self.r:
            raise InputError(f"edge {e} has {len(e)} vertices, expected {self.r}")
        if any(v < 0 or v >= self.n for v in e):
            raise InputError(f"edge {e}: vertex index out of range [0, {self.n})")
        if self.kind == GENERAL and any(e[i] >= e[i + 1] for i in range(self.r - 1)):
            raise InputError(f"edge {e} on a general ground must be strictly increasing")
        return e


def bits(mask: int) -> list[int]:
    """Positions of the set bits of a non-negative int, ascending."""
    if mask.bit_count() < 8:
        # a few bits are peeled off one by one rather than spelling out every
        # digit of what may be a long int
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out
    digits = bin(mask)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _repeat(block: int, period: int, length: int) -> int:
    """block repeated every period bits up to length bits; block must fit in
    period bits and length must be a multiple of period."""
    while period < length:
        block |= block << period
        period *= 2
    return block & ((1 << length) - 1)


class CellIndex:
    """Lexicographic numbering of a ground's cells. An edge set becomes an int
    mask with bit i set iff cell(i) is an edge, and bit order is sorted edge
    order.

    A partite cell's position is its vertices read as base-n digits. So the
    partite index keeps the n^(r-1) cells of the last r-1 sides with their
    positions, and just r masks of cell_count bits: side s's cells with
    vertex 0 there, which shift left by v*n^(r-1-s) to side s's cells with
    vertex v. That is O(cell_count/n) entries plus r*cell_count bits. A
    general index keeps the cell tuple, a position map, each cell's vertex
    set and one mask per vertex: O(cell_count) entries plus n*cell_count
    bits. The full cell tuple of a partite index is only listed when asked
    for (the random samplers draw from it).
    """

    __slots__ = ("_ground", "_n", "_partite", "_cells", "_pos", "_stride", "_zero",
                 "_tail", "_tail_pos", "_sets", "_by_set", "_vertex")

    def __init__(self, ground: GroundSet):
        self._ground = ground
        n, r = ground.n, ground.r
        self._n = n
        self._partite = ground.kind == PARTITE
        if self._partite:
            self._cells = None
            self._stride = tuple(n ** (r - 1 - s) for s in range(r))
            self._zero = tuple(_repeat((1 << t) - 1, n * t, ground.cell_count)
                               for t in self._stride)
            self._tail = tuple(itertools.product(range(n), repeat=r - 1))
            self._tail_pos = dict(zip(self._tail, itertools.count()))
            return
        self._cells = tuple(ground.cells())
        self._pos = dict(zip(self._cells, itertools.count()))
        # a general cell is also keyed by its vertex set as a mask, so that
        # replacing one vertex is two XORs and a lookup
        self._sets = tuple(map(sum, itertools.combinations([1 << v for v in range(n)], r)))
        self._by_set = dict(zip(self._sets, itertools.count()))
        rows = [bytearray((len(self._cells) + 7) // 8) for _ in range(n)]
        for i, e in enumerate(self._cells):
            for v in e:
                rows[v][i >> 3] |= 1 << (i & 7)
        self._vertex = tuple(int.from_bytes(row, "little") for row in rows)

    @property
    def cells(self) -> tuple[Edge, ...]:
        """Every cell, in position order."""
        if self._cells is None:
            self._cells = tuple(self._ground.cells())
        return self._cells

    def position(self, edge: Edge) -> int:
        if self._partite:
            return edge[0] * self._stride[0] + self._tail_pos[edge[1:]]
        return self._pos[edge]

    def cell(self, i: int) -> Edge:
        if self._partite:
            head = self._stride[0]
            return (i // head,) + self._tail[i % head]
        return self._cells[i]

    def mask(self, edges: Iterable[Edge]) -> int:
        row = bytearray((self._ground.cell_count + 7) // 8)
        for i in map(self.position, edges):
            row[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(row, "little")

    def edges(self, mask: int) -> tuple[Edge, ...]:
        """The cells of a mask's set bits, in position order."""
        return tuple(map(self.cell, bits(mask)))

    def has(self, i: int, side: int | None, v: int) -> bool:
        """True iff cell i has vertex v (on the given side if partite)."""
        if side is not None:
            return i // self._stride[side] % self._n == v
        return bool(self._sets[i] >> v & 1)

    def replace(self, i: int, side: int | None, old: int, new: int) -> int | None:
        """Position of cell i with vertex old replaced by new (on the given
        side if partite), or None if that is no cell. Cell i must hold old."""
        if side is not None:
            return i + (new - old) * self._stride[side]
        return self._by_set.get(self._sets[i] ^ (1 << old | 1 << new))

    def move(self, mask: int, side: int | None, x: int, y: int) -> tuple[int, int]:
        """The shift y -> x of an edge mask, as (origins, images): the edges
        that move and the edges they become. Every edge holding y (on the
        side, if partite) but not x moves unless its image is already an
        edge; mask ^ origins ^ images is the shifted mask."""
        if side is not None:
            t = self._stride[side]
            images = (((mask >> y * t) & self._zero[side]) << x * t) & ~mask
            return images << (y - x) * t, images
        sets, by_set, flip = self._sets, self._by_set, 1 << x | 1 << y
        origins = images = 0
        for i in bits(mask & self._vertex[y] & ~self._vertex[x]):
            j = by_set[sets[i] ^ flip]
            if not mask >> j & 1:
                origins |= 1 << i
                images |= 1 << j
        return origins, images

    def origins(self, images: int, side: int | None, x: int, y: int) -> int:
        """The origins of a mask of images of the shift y -> x."""
        if side is not None:
            return images << ((y - x) * self._stride[side])
        out = 0
        for j in bits(images):
            out |= 1 << self.replace(j, None, x, y)
        return out


def edge_vertices(ground: GroundSet, edge: Edge) -> tuple:
    """Vertex keys of an edge: (side, index) pairs if partite, bare indices else."""
    if ground.kind == PARTITE:
        return tuple(enumerate(edge))
    return edge


class Hypergraph:
    """An immutable edge set with O(1) membership and sorted iteration.

    The edges are held as a sorted tuple, as an int mask over ground.index,
    or both: each form is derived from the other on first use, so a chain of
    shifts never decodes its intermediate masks."""

    __slots__ = ("ground", "_edges", "_edge_set", "_mask")

    def __init__(self, ground: GroundSet, edges: Iterable[Sequence[int]]):
        checked = [ground.check_edge(e) for e in edges]
        edge_set = frozenset(checked)
        if len(edge_set) != len(checked):
            raise InputError("duplicate edges in hypergraph")
        self.ground = ground
        self._edges = tuple(sorted(edge_set))
        self._edge_set = edge_set
        self._mask = None

    @classmethod
    def _from_sorted(cls, ground: GroundSet, edges: tuple[Edge, ...]) -> "Hypergraph":
        """Trusted constructor: a sorted tuple of edges already checked valid
        and distinct over ground."""
        h = cls.__new__(cls)
        h.ground = ground
        h._edges = edges
        h._edge_set = h._mask = None
        return h

    @classmethod
    def _from_mask(cls, ground: GroundSet, mask: int) -> "Hypergraph":
        """Trusted constructor: the edges of a mask over ground.index, which
        are valid and distinct by construction."""
        h = cls.__new__(cls)
        h.ground = ground
        h._edges = h._edge_set = None
        h._mask = mask
        return h

    @property
    def edges(self) -> tuple[Edge, ...]:
        if self._edges is None:
            self._edges = self.ground.index.edges(self._mask)
        return self._edges

    @property
    def mask(self) -> int:
        """The edge set as an int mask over ground.index (which this builds
        on first use)."""
        if self._mask is None:
            self._mask = self.ground.index.mask(self._edges)
        return self._mask

    def _frozen(self) -> frozenset[Edge]:
        if self._edge_set is None:
            self._edge_set = frozenset(self.edges)
        return self._edge_set

    def __len__(self) -> int:
        return len(self._edges) if self._edges is not None else self._mask.bit_count()

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def __contains__(self, edge) -> bool:
        return tuple(edge) in self._frozen()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph) or self.ground != other.ground:
            return False
        if self._mask is not None and other._mask is not None:
            return self._mask == other._mask
        return self._frozen() == other._frozen()

    def __hash__(self) -> int:
        return hash((self.ground, self._frozen()))

    def __repr__(self) -> str:
        return f"Hypergraph({self.ground.kind}, r={self.ground.r}, n={self.ground.n}, {len(self)} edges)"

    def degrees(self, side: int | None = None) -> tuple[int, ...]:
        """Degree of every vertex (on the given side if partite), in one pass."""
        g = self.ground
        row = [0] * g.n
        if g.kind == PARTITE:
            if side is None:
                raise InputError("partite degree queries need a side")
            if side < 0 or side >= g.r:
                raise InputError(f"side {side} out of range [0, {g.r})")
            for e in self.edges:
                row[e[side]] += 1
        else:
            if side is not None:
                raise InputError("general degree queries take no side")
            for e in self.edges:
                for v in e:
                    row[v] += 1
        return tuple(row)

    def degree(self, v: int, side: int | None = None) -> int:
        """Number of edges containing vertex v (on the given side if partite)."""
        if v < 0 or v >= self.ground.n:
            raise InputError(f"vertex index {v} out of range [0, {self.ground.n})")
        return self.degrees(side)[v]


class Family:
    """An ordered sequence of hypergraphs over one shared ground set."""

    __slots__ = ("ground", "members")

    def __init__(self, members: Sequence[Hypergraph]):
        members = tuple(members)
        if not members:
            raise InputError("a family needs at least one member")
        ground = members[0].ground
        if any(m.ground != ground for m in members):
            raise InputError("family members must share one ground set")
        self.ground = ground
        self.members = members

    @property
    def k(self) -> int:
        return len(self.members)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(m) for m in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Hypergraph]:
        return iter(self.members)

    def __getitem__(self, i: int) -> Hypergraph:
        return self.members[i]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Family)
                and self.ground == other.ground and self.members == other.members)

    def __hash__(self) -> int:
        return hash((self.ground, self.members))

    def __repr__(self) -> str:
        return f"Family(k={self.k}, sizes={self.sizes()})"


@dataclass(frozen=True)
class RainbowMatching:
    """One edge per family member, pairwise vertex-disjoint."""

    choices: tuple[Edge, ...]

    def is_valid_for(self, family: Family) -> bool:
        if len(self.choices) != family.k:
            return False
        if any(self.choices[i] not in family[i] for i in range(family.k)):
            return False
        return is_matching(family.ground, self.choices)


def is_matching(ground: GroundSet, edges: Iterable[Sequence[int]]) -> bool:
    """True iff the edges are pairwise vertex-disjoint (per side when partite)."""
    seen: set = set()
    for e in edges:
        for key in edge_vertices(ground, ground.check_edge(e)):
            if key in seen:
                return False
            seen.add(key)
    return True


# Masks up to this many bits are built by ORing in one shifted int per edge,
# the cheapest way while they are short. A shift costs a digit per 30 bits of
# its result, so past it that would be quadratic in the edges, in time and in
# the memory of the per-edge ints (|E|^2/16 bytes).
SHIFT_MASK_BITS = 1024


def _mask(positions: Iterable[int], length: int) -> int:
    """The int of at most length bits with exactly the given bits set, set
    in a byte buffer: linear in length, however many bits are set."""
    buf = bytearray((length + 7) >> 3)
    for i in positions:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def _edge_masks(ground: GroundSet, members: Sequence[Hypergraph]
                ) -> tuple[tuple[Edge, ...], list[int], list[dict[int, int]]]:
    """Local bit numbering of the members' edges, for the exact oracles.

    Numbers the distinct edges of the members in lexicographic order, so bit
    i is the i-th smallest edge and lowest bit first is edge order. Returns
    those edges, one edge mask per member, and one dict per vertex position
    mapping each vertex an edge touches there to the mask of edges holding
    it: a partite ground has one dict per side, and a general ground one
    dict shared by all r positions. Each mask has at most |E| bits; nothing
    is allocated per vertex or cell that no edge touches, and the ground's
    cell index is not built. Past SHIFT_MASK_BITS edges the positions of
    each mask are gathered and set through _mask, so the build stays linear
    in |E| (over small families that way is about 1.5 times slower)."""
    edges = tuple(sorted(set().union(*(h.edges for h in members))))
    m = len(edges)
    groups = [(s,) for s in range(ground.r)] if ground.kind == PARTITE else [range(ground.r)]
    vertex = []
    if m <= SHIFT_MASK_BITS:
        bit = dict(zip(edges, map((1).__lshift__, range(m))))
        masks = [sum(map(bit.__getitem__, h.edges)) for h in members]
        for slots in groups:
            by_vertex: dict[int, int] = {}
            for e, b in bit.items():
                for s in slots:
                    by_vertex[e[s]] = by_vertex.get(e[s], 0) | b
            vertex.append(by_vertex)
    else:
        position = dict(zip(edges, range(m)))
        masks = [_mask(map(position.__getitem__, h.edges), m) for h in members]
        for slots in groups:
            at: dict[int, list[int]] = {}
            for e, i in position.items():
                for s in slots:
                    at.setdefault(e[s], []).append(i)
            vertex.append({v: _mask(p, m) for v, p in at.items()})
    return edges, masks, vertex if ground.kind == PARTITE else vertex * ground.r


def nu_exact(h: Hypergraph) -> int:
    """Exact matching number, by branch and bound on an explicit stack.

    A node is a size and a mask of live edges: those disjoint from every
    edge taken so far and not through a vertex left unmatched. It branches
    on the lowest side-0 vertex (partite) or lowest vertex (general) with a
    live edge: first each of its live edges in order, then leaving it
    unmatched. A frame holds a node and the branch vertex's edges not yet
    tried, so the stack holds one frame per level of the current path. No
    vertex below the branch vertex has a live edge, so a node is pruned when
    its size plus the touched side-0 vertices (partite) or touched vertices
    // r (general) from the branch vertex on cannot beat the best; the
    search stops once a matching meets the bound at the root.
    """
    if not len(h):
        return 0
    g = h.ground
    edges, (live,), vertex = _edge_masks(g, (h,))
    touched = sorted(vertex[0])
    per_edge = 1 if g.kind == PARTITE else g.r
    limit = min(map(len, vertex)) // per_edge  # the bound at the root
    best = 0
    stack = [(0, live, vertex[0][edges[(live & -live).bit_length() - 1][0]] & live)]
    while stack:
        size, live, rest = stack.pop()
        if rest:
            low = rest & -rest
            stack.append((size, live, rest ^ low))
            for by_vertex, v in zip(vertex, edges[low.bit_length() - 1]):
                live &= ~by_vertex[v]
            size += 1
        else:  # the branch vertex stays unmatched
            live &= ~vertex[0][edges[(live & -live).bit_length() - 1][0]]
        if not live:
            if size > best:
                best = size
                if best == limit:
                    break
            continue
        u = edges[(live & -live).bit_length() - 1][0]
        if size + (len(touched) - bisect_left(touched, u)) // per_edge > best:
            stack.append((size, live, vertex[0][u] & live))
    return best


def rainbow_exact(family: Family) -> RainbowMatching | None:
    """A rainbow matching if one exists, else None.

    Refuses at the root by pigeonhole when the members' edges together touch
    fewer than k vertices on some side (partite) or fewer than r*k vertices
    (general). Otherwise searches on an explicit stack: members are taken in
    ascending size order (fail-first, ties by index) and each member's free
    edges lowest bit first, which is lexicographic order, so the first
    matching found is deterministic. A frame is (depth, remaining candidates,
    blocked mask), and a node is pruned when some later member has no edge
    left outside the blocked mask. Choices are reported in the original
    member order.
    """
    g = family.ground
    k = family.k
    edges, masks, vertex = _edge_masks(g, family.members)
    if g.kind == PARTITE:
        if any(len(by_vertex) < k for by_vertex in vertex):
            return None
    elif len(vertex[0]) < g.r * k:
        return None
    order = sorted(range(k), key=lambda i: (len(family[i]), i))
    masks = [masks[i] for i in order]
    if not all(masks):
        return None
    chosen = [0] * k
    stack = [(0, masks[0], 0)]
    while stack:
        depth, candidates, blocked = stack.pop()
        low = candidates & -candidates
        if candidates != low:
            stack.append((depth, candidates ^ low, blocked))
        i = low.bit_length() - 1
        chosen[depth] = i
        for by_vertex, v in zip(vertex, edges[i]):
            blocked |= by_vertex[v]
        depth += 1
        if depth == k:
            choices: list[Edge] = [()] * k
            for d, i in enumerate(chosen):
                choices[order[d]] = edges[i]
            return RainbowMatching(tuple(choices))
        free = ~blocked
        if all(m & free for m in masks[depth:]):
            stack.append((depth, masks[depth] & free, blocked))
    return None


def pm_decomposition(n: int, r: int) -> list[tuple[Edge, ...]]:
    """Decompose the complete n-balanced r-partite hypergraph into n^(r-1) perfect matchings.

    The matching for offsets (c_2, ..., c_r) holds the edges
    (i, i+c_2 mod n, ..., i+c_r mod n); the matchings are pairwise disjoint
    and their union is the whole cell universe.
    """
    if n < 1 or r < 1:
        raise InputError("pm_decomposition needs n >= 1 and r >= 1")
    out = []
    for offsets in itertools.product(range(n), repeat=r - 1):
        out.append(tuple((i, *(((i + c) % n) for c in offsets)) for i in range(n)))
    return out
