"""Ground sets, hypergraphs, families, and exact brute-force oracles."""
from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .errors import InputError

Edge = tuple[int, ...]

PARTITE = "partite"
GENERAL = "general"


class ConjectureId(str, Enum):
    """The conjectures the verify drivers check. Defined here, not in verify,
    because the command-line parser lists them for every command."""

    RAINBOW_GENERAL = "rainbow_general"    # sizes above the general-kind threshold
    SIZE_CONDITION = "size_condition"      # sizes above (k-1) n^(r-1), r-partite
    DEGREE_CONDITION = "degree_condition"  # max degree <= d and sizes above (k-1)d
    SIMPLE = "simple"                      # ascending sizes at least i*n, bipartite
    MATRIX = "matrix"                      # degree-matrix permutation with growing prefix sums


class _Record:
    """Base of the immutable records: a subclass lists its fields as
    annotations, in order, and a field's default as its class attribute.

    The constructor takes the fields by position or name and then runs
    __post_init__; ==, hash and repr follow the fields, those named in
    _uncompared are left out of == and hash, and no attribute can be set
    afterwards. Plain methods and nothing generated, so defining a record
    costs a class statement."""

    _uncompared = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        cls._key = operator.attrgetter(*(f for f in cls._fields if f not in cls._uncompared))

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value, given some by position and some by name, with
        the defaults for the rest."""
        fields = cls._fields
        given = dict(zip(fields, args))
        values = {**cls._defaults, **given, **kwargs}
        if len(args) > len(fields) or given.keys() & kwargs or values.keys() != set(fields):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(fields)}, each "
                            f"once; got {len(args)} by position and {sorted(kwargs)} by name")
        return [values[f] for f in fields]

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class GroundSet(_Record):
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
        """The edge as a tuple, or InputError naming its fault but no vertex."""
        e = tuple(edge)
        if len(e) != self.r:
            raise InputError(f"{len(e)} vertices, expected {self.r}")
        if any(type(v) is not int for v in e):  # bools are refused too
            raise InputError("vertices must be integers")
        if min(e) < 0 or max(e) >= self.n:
            raise InputError(f"vertex out of range for n={self.n}")
        if self.kind == GENERAL and any(map(operator.ge, e, e[1:])):
            raise InputError("general edges must be strictly increasing")
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


# Largest cell index and closure sweep. The index holds r*n^r bits on a
# partite ground (n*C(n, r) on a general one), and the shifted closure sweeps
# r*n(n-1)/2 shift pairs (n(n-1)/2 on a general one); each is refused past
# this limit. 2^28 bits is 32 MiB of index masks.
MAX_INDEX_BITS = 1 << 28


def capped_cells(kind: str, r: int, n: int) -> int:
    """Cells of a ground of this kind with uniformity r (0 allowed) and n
    vertices: the exact count while it is at most MAX_INDEX_BITS, else a
    lower bound that is still above it. Exponents are cut where the limit is
    passed already, so an absurd r costs nothing to count or to print."""
    cut = MAX_INDEX_BITS.bit_length()
    if kind == PARTITE:
        return n ** min(r, cut)
    return math.comb(n, min(r, n - r, cut))


def estimate_text(count: int) -> str:
    """A non-negative count in decimal, or, if it has more digits than
    Python converts to text, the power of ten at or below it, taken from its
    bit length."""
    try:
        return str(count)
    except ValueError:
        return f"10^{int((count.bit_length() - 1) * math.log10(2))}"


def _guard_index(ground: GroundSet, sweep: bool = True) -> None:
    """Refuse a ground whose cell index, or with sweep its closure sweep,
    passes MAX_INDEX_BITS, with both sizes as the estimate. The index alone
    is not refused on the sweep: a general ground with r = n has one cell
    however many shift pairs it has."""
    n, r = ground.n, ground.r
    partite = ground.kind == PARTITE
    bits = (r if partite else n) * capped_cells(ground.kind, r, n)
    pairs = (r if partite else 1) * (n * (n - 1) // 2)
    if bits > MAX_INDEX_BITS or sweep and pairs > MAX_INDEX_BITS:
        raise InputError(
            f"ground too large to shift: its cell index needs at least "
            f"{estimate_text(bits)} bits and each closure sweep "
            f"{estimate_text(pairs)} shift pairs (limit {MAX_INDEX_BITS} each)")


def _mask(positions: Iterable[int], length: int) -> int:
    """The int of at most length bits with exactly the given bits set, set
    in a byte buffer: linear in length, however many bits are set."""
    buf = bytearray((length + 7) >> 3)
    for i in positions:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


class CellIndex:
    """Lexicographic numbering of a ground's cells. An edge set becomes an int
    mask with bit i set iff cell(i) is an edge, and bit order is sorted edge
    order.

    Each kind has one numbering. A partite position is the cell's vertices
    read as base-n digits, so the partite index keeps no per-cell table, just
    r masks of cell_count bits: side s's cells with vertex 0 there, which
    shift left by v*n^(r-1-s) to side s's cells with vertex v. A general cell
    is found by its vertex set as a mask: the index keeps each cell's vertex
    set, the map back to positions and one mask per vertex, O(cell_count)
    entries plus n*cell_count bits. The cell tuple is listed only when asked
    for: the degree-capped sampler shuffles it, and the exact oracles take it
    as their edge tuple up to SHIFT_MASK_BITS cells (_edge_masks).

    The index also keeps the closure plan of shifting._closed_mask, the
    constants of one sweep, once the first member is closed on its ground.
    """

    __slots__ = ("_ground", "_partite", "_cells", "_stride", "_zero",
                 "_sets", "_by_set", "_vertex", "_plan")

    def __init__(self, ground: GroundSet):
        _guard_index(ground, sweep=False)
        self._ground = ground
        self._cells = None
        self._plan = None
        n, r = ground.n, ground.r
        self._partite = ground.kind == PARTITE
        if self._partite:
            self._stride = tuple(n ** (r - 1 - s) for s in range(r))
            self._zero = tuple(_repeat((1 << t) - 1, n * t, ground.cell_count)
                               for t in self._stride)
            return
        # replacing a vertex of a general cell is two XORs and a lookup
        self._sets = tuple(map(sum, itertools.combinations([1 << v for v in range(n)], r)))
        self._by_set = dict(zip(self._sets, itertools.count()))
        at: list[list[int]] = [[] for _ in range(n)]
        for i, e in enumerate(ground.cells()):
            for v in e:
                at[v].append(i)
        self._vertex = tuple(_mask(p, len(self._sets)) for p in at)

    @property
    def cells(self) -> tuple[Edge, ...]:
        """Every cell, in position order."""
        if self._cells is None:
            self._cells = tuple(self._ground.cells())
        return self._cells

    def position(self, edge: Edge) -> int:
        if self._partite:
            return sum(map(operator.mul, edge, self._stride))
        return self._by_set[sum(map((1).__lshift__, edge))]

    def cell(self, i: int) -> Edge:
        if self._partite:
            return tuple(i // t % self._ground.n for t in self._stride)
        return tuple(bits(self._sets[i]))

    def mask(self, edges: Sequence[Edge]) -> int:
        """The mask of distinct cells of the ground; an edge that is no cell
        may set a wrong bit. The positions, or a general member's vertex
        sets, are sums taken one vertex slot at a time over every edge."""
        terms = [0] * len(edges)
        if self._partite:
            for t, column in zip(self._stride, zip(*edges)):
                terms = map(operator.add, terms, map(t.__mul__, column))
            return _mask(terms, self._ground.cell_count)
        for column in zip(*edges):
            terms = map(operator.add, terms, map((1).__lshift__, column))
        return _mask(map(self._by_set.__getitem__, terms), len(self._sets))

    def edges(self, mask: int) -> tuple[Edge, ...]:
        """The cells of a mask's set bits, in position order. A partite
        mask is decoded one side at a time, the inverse of mask's sums."""
        if not self._partite:
            return tuple(map(self.cell, bits(mask)))
        positions, n = bits(mask), self._ground.n
        return tuple(zip(*([p // t % n for p in positions] for t in self._stride)))

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
        """The origins of a mask of images of the shift y -> x. A bit that is
        no such image (its cell lacks x, on the side if partite) has none:
        it is dropped."""
        if side is not None:
            t = self._stride[side]
            return (images & self._zero[side] << x * t) << (y - x) * t
        return self.move(images, None, y, x)[1]  # the shift x -> y


def edge_vertices(ground: GroundSet, edge: Edge) -> tuple:
    """Vertex keys of an edge: (side, index) pairs if partite, bare indices else."""
    if ground.kind == PARTITE:
        return tuple(enumerate(edge))
    return edge


class Hypergraph:
    """An immutable edge set with sorted iteration.

    The edges are held as a sorted tuple, as an int mask over ground.index,
    or both: each form is derived from the other on first use, so a chain of
    shifts never decodes its intermediate masks. Membership is an edge check,
    then a bit test of the mask or else a bisection of the tuple."""

    __slots__ = ("ground", "_edges", "_mask")

    def __init__(self, ground: GroundSet, edges: Iterable[Sequence[int]]):
        """The sorted edges, or InputError "[j]: <fault>" at the first bad edge j."""
        edges = list(map(tuple, edges))
        labels = list(itertools.chain.from_iterable(edges))
        shaped = not (set(map(len, edges)) - {ground.r}
                      or set(map(type, labels)) - {int})  # bools too
        self._check(ground, edges, labels if shaped else None)

    @classmethod
    def _of_shaped(cls, ground: GroundSet, edges: list[Edge], labels: list[int]) -> "Hypergraph":
        """The constructor for a caller that has checked the shape: every
        edge an r-tuple of ints, with labels their concatenation. The bounds,
        order and repeat checks still run."""
        h = cls.__new__(cls)
        h._check(ground, edges, labels)
        return h

    def _check(self, ground: GroundSet, edges: list[Edge], labels: list[int] | None) -> None:
        """Sets the sorted edges; labels is None when the shape is wrong. On
        any fault, walks the edges to raise at the first bad or repeated one."""
        r, checked = ground.r, None
        if labels is not None and not (
            labels and (min(labels) < 0 or max(labels) >= ground.n)
            or ground.kind == GENERAL and not all(
                all(map(operator.lt, labels[s::r], labels[s + 1::r])) for s in range(r - 1))
        ):
            if all(map(operator.lt, edges, edges[1:])):  # in order, so no repeats
                checked = edges
            else:
                checked = sorted(edges)
                if any(map(operator.eq, checked, checked[1:])):
                    checked = None
        if checked is None:
            seen: set[Edge] = set()
            for j, e in enumerate(edges):
                try:
                    if ground.check_edge(e) in seen:
                        raise InputError("duplicate edge")
                except InputError as exc:
                    raise InputError(f"[{j}]: {exc}") from None
                seen.add(e)
        self.ground = ground
        self._edges = tuple(checked)
        self._mask = None

    @classmethod
    def _from_mask(cls, ground: GroundSet, mask: int) -> "Hypergraph":
        """Trusted constructor: the edges of a mask over ground.index, which
        are valid and distinct by construction."""
        h = cls.__new__(cls)
        h.ground = ground
        h._edges = None
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

    def __len__(self) -> int:
        return len(self._edges) if self._edges is not None else self._mask.bit_count()

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def __contains__(self, edge) -> bool:
        try:
            e = self.ground.check_edge(edge)
        except (InputError, TypeError):  # not a cell of the ground
            return False
        if self._mask is not None:
            return bool(self._mask >> self.ground.index.position(e) & 1)
        i = bisect_left(self._edges, e)
        return i < len(self._edges) and self._edges[i] == e

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph) or self.ground != other.ground:
            return False
        if self._mask is not None and other._mask is not None:
            return self._mask == other._mask
        return self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.ground, self.edges))

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

    def by_size(self) -> tuple[int, ...]:
        """Member indices in ascending size order, ties by index: the order
        in which the solvers and the exact search take the members."""
        return tuple(sorted(range(self.k), key=self.sizes().__getitem__))

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


def _dominates(sizes, floors) -> bool:
    """True iff the i-th smallest size is at least the i-th of the ascending
    floors, for every i."""
    return all(s >= f for s, f in zip(sorted(sizes), floors))


class RainbowMatching(_Record):
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


# Grounds of at most this many cells give the exact oracles the cell index's
# numbering, whose masks are then at most a kilobit; past it, index masks would
# grow with the ground rather than with the members' edges (_edge_masks).
SHIFT_MASK_BITS = 1024


def _edge_masks(ground: GroundSet, members: Sequence[Hypergraph]
                ) -> tuple[tuple[Edge, ...], list[int], list[dict[int, int]]]:
    """Bit numbering of the members' edges, for the exact oracles.

    Returns a tuple of edges, where bit i stands for the i-th, one edge mask
    per member, and one dict per vertex position mapping each vertex an
    edge touches there to a mask of the edges holding it: a partite ground
    has one dict per side, and a general ground one dict shared by all r
    positions.

    The ground alone picks the numbering. Up to SHIFT_MASK_BITS cells it is
    the index's: the edges are index.cells, the member masks the members'
    own, and vertex v's mask holds every cell through it (an edge of no
    member is never a candidate, so the extra bits change nothing). Past it
    the members' distinct edges are numbered locally, each mask set through
    _mask in time linear in |E|, and the index is not built. Both orders are
    lexicographic, so the search takes the same path either way. The cells
    are counted by capped_cells: a general ground's full count can take
    seconds."""
    if capped_cells(ground.kind, ground.r, ground.n) <= SHIFT_MASK_BITS:
        index = ground.index
        masks = [h.mask for h in members]
        union = 0
        for m in masks:
            union |= m
        if ground.kind == PARTITE:
            vertex = []
            for t, zero in zip(index._stride, index._zero):  # side s's vertex-0 cells
                at = (zero << v * t for v in range(ground.n))
                vertex.append({v: m for v, m in enumerate(at) if union & m})
        else:
            vertex = [{v: m for v, m in enumerate(index._vertex) if union & m}] * ground.r
        return index.cells, masks, vertex
    edges = tuple(sorted(set().union(*(h.edges for h in members))))
    m = len(edges)
    position = dict(zip(edges, range(m)))
    masks = [_mask(map(position.__getitem__, h.edges), m) for h in members]
    groups = [(s,) for s in range(ground.r)] if ground.kind == PARTITE else [range(ground.r)]
    vertex = []
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
    order = family.by_size()
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
    return [tuple((i, *((i + c) % n for c in offsets)) for i in range(n))
            for offsets in itertools.product(range(n), repeat=r - 1)]
