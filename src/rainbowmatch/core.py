"""Ground sets and their cell index, with the shifted closure's sweep and
plan; hypergraphs and families; the size predicates and closed-form
thresholds the solvers and verify drivers test sizes against; and exact
brute-force oracles."""
from __future__ import annotations

import functools
import itertools
import math
import operator
from bisect import bisect_left
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

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

    @functools.cached_property
    def index(self) -> "CellIndex":
        """The cell index of this ground, built on first use and then kept."""
        return CellIndex(self)

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

# Vertices (members times edges times r) a family may list: up to 150 MB to
# build and print. extremal's constructions are refused past it, and so is
# verify's degree-capped sampler, whose every draw lists each cell.
MAX_LISTED_VERTICES = 1 << 20


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
    read as base-n digits, and a general cell is found by its vertex set as
    a mask. Every table the index keeps, and its size bound, with N the cell
    count (at most MAX_INDEX_BITS / r bits partite, MAX_INDEX_BITS / n
    general):

    - partite, from the start: _stride, the r strides n^(r-1-s), and _zero,
      r masks of N bits, side s's cells with vertex 0 there; they shift left
      by v*n^(r-1-s) to side s's cells with vertex v.
    - general, from the start: _sets, each cell's vertex set (N ints of n
      bits); _by_set, the map back to positions (N entries); and _vertex,
      the cells through each vertex (n masks of N bits).
    - _cells, the cell tuple (N tuples), listed only when asked for: the
      exact oracles take it as their edge tuple up to SHIFT_MASK_BITS cells.
      The samplers draw positions and never list it.
    - _plan, the closure plan of _closer, the constants of one sweep, built
      by closure_plan when the first closer is made on the ground: at most
      MAX_PLAN_ENTRIES entries, else none is kept.
    - _side_vertex and _conflict, the exact oracles' tables, kept only on a
      ground of at most SHIFT_MASK_BITS cells and built by the first search
      past the root pigeonhole test (search_tables): a partite ground's
      vertex masks, side s's zero[s] << v*t for each vertex v (r*n masks of
      at most 1,024 bits; a general ground's are _vertex), and each cell's
      conflict mask, the cells that share a vertex with it (at most 1,024
      masks of 1,024 bits, 128 KiB of bits).

    The queries keep nothing more: below(m), the kernel mask of verify's
    random mode, is read off _stride (partite) or _sets (general) when asked
    for, and degrees' shifts are held by the reader it returns.
    """

    __slots__ = ("_ground", "_partite", "_cells", "_stride", "_zero", "_sets",
                 "_by_set", "_vertex", "_side_vertex", "_conflict", "_plan")

    def __init__(self, ground: GroundSet):
        _guard_index(ground, sweep=False)
        self._ground = ground
        self._cells = self._side_vertex = self._conflict = self._plan = None
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

    def degrees(self, *sides: int) -> Callable[[int], Iterator[int]]:
        """A reader of a partite mask's degrees at every vertex of the given
        sides, side by side and vertex by vertex, lazily and with no edge
        listed: side s's vertex v holds the cells zero[s] << v*t, so its
        degree is the bit count of (mask >> v*t) & zero[s]. The shifts v*t
        are fixed here, once; the vertex masks are shifted per read rather
        than kept, n*cell_count bits a side."""
        n = self._ground.n
        shifts = [v * self._stride[s] for s in sides for v in range(n)]
        zeros = [self._zero[s] for s in sides for _ in range(n)]
        return lambda mask: map(int.bit_count, map(operator.and_, map(mask.__rshift__, shifts),
                                                   zeros))

    def below(self, m: int) -> int:
        """The cells whose vertices all lie below m (on every side, if
        partite), as a mask: the whole ground once m >= n. Side s's cells
        with a vertex below m are the first m*t of every n*t positions, and
        a general cell lies below m iff its vertex set, as a mask, does."""
        if self._partite:
            n, length = self._ground.n, self._ground.cell_count
            mask = (1 << length) - 1
            for t in self._stride:
                mask &= _repeat((1 << min(m, n) * t) - 1, n * t, length)
            return mask
        top = 1 << m
        return _mask(itertools.compress(itertools.count(), map(top.__gt__, self._sets)),
                     len(self._sets))

    def touched(self, mask: int) -> list[list[int]]:
        """The vertices that some cell of the mask holds, ascending: one list
        per side on a partite ground, one on a general ground. Read off the
        vertex-0 masks (partite) or the vertex masks (general), so no table
        is built."""
        if self._partite:
            n = self._ground.n
            return [[v for v in range(n) if mask >> v * t & zero]
                    for t, zero in zip(self._stride, self._zero)]
        return [[v for v, m in enumerate(self._vertex) if mask & m]]

    def search_tables(self) -> tuple[tuple[Edge, ...], Sequence[int], tuple[int, ...]]:
        """The exact oracles' tables on this numbering (_edge_masks), built
        on the first call and then kept: the cells; the cells through each
        vertex of the first position (side 0, or any vertex on a general
        ground); and each cell's conflict mask. A cell's conflict mask is
        the OR of its vertices' masks, taken over the cells in position
        order: the product of the sides' vertex masks (partite) or their
        r-combinations (general). For grounds of at most SHIFT_MASK_BITS
        cells only."""
        if self._conflict is None:
            if self._partite:
                n = self._ground.n
                self._side_vertex = tuple(tuple(zero << v * t for v in range(n))
                                          for t, zero in zip(self._stride, self._zero))
                groups = itertools.product(*self._side_vertex)
            else:
                groups = itertools.combinations(self._vertex, self._ground.r)
            self._conflict = tuple(functools.reduce(operator.or_, g) for g in groups)
        first = self._side_vertex[0] if self._partite else self._vertex
        return self.cells, first, self._conflict

    def closure_plan(self) -> tuple | None:
        """The constants of one sweep (_sweep) for _closer, built on the
        first call and then kept, or None past MAX_PLAN_ENTRIES. The sweep's
        guard runs when the plan is built, once per ground, before any entry
        is kept.

        A partite entry is one shift pair's (y*t, zero, x*t, (y-x)*t), for
        the stride t of its side and the mask zero of the side's vertex-0
        cells, as in move. A general entry is one pair's mask of the cells
        that hold y and not x, with each such cell's (origin, origin | image)
        one-bit masks. They are read off move of that mask, which moves every
        one of them: y -> x keeps symmetric differences, so it keeps the
        order of cells, and the i-th origin goes to the i-th image."""
        if self._plan is not None:
            return self._plan
        ground = self._ground
        n, r = ground.n, ground.r
        pairs = n * (n - 1) // 2
        if (r if self._partite else math.comb(max(n - 2, 0), r - 1)) * pairs > MAX_PLAN_ENTRIES:
            return None
        plan = []
        for side, x, y in _sweep(ground):
            if self._partite:
                t = self._stride[side]
                plan.append((y * t, self._zero[side], x * t, (y - x) * t))
                continue
            origins, images = self.move(self._vertex[y] & ~self._vertex[x], None, x, y)
            if origins:
                plan.append((origins, tuple((1 << i, 1 << i | 1 << j)
                                            for i, j in zip(bits(origins), bits(images)))))
        self._plan = tuple(plan)
        return self._plan

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


# Largest closure plan kept on a cell index, in entries: r*C(n, 2) sweep
# pairs on a partite ground, C(n, 2)*C(n-2, r-1) moving cells on a general
# one. An entry takes up to about 160 bytes (tracemalloc, CPython 3.11), so
# a kept plan stays under 0.7 MiB; partite r=1 with 1,024 cells would
# otherwise keep 73 MiB.
MAX_PLAN_ENTRIES = 1 << 12


def _closer(ground: GroundSet) -> Callable[[int], int]:
    """The map from one member's edge mask to its mask after
    shifting.shifted_closure, with no log kept. A shift acts on each member
    on its own, so this is the member's mask in shifted_closure's result
    whatever family it is closed in.

    The ground's closure plan is read, or built, here, once per caller that
    closes many members; each shift pair is then one step of the plan. Past
    the plan's bound, each is a CellIndex.move call."""
    plan = ground.index.closure_plan()
    if plan is None:
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
    return all(map(operator.ge, sorted(sizes), floors))


def _hall_violation(sizes, n: int) -> int:
    """The length j of the shortest ascending-size prefix whose sum is at
    most n*j*(j-1), or 0 if every prefix sum is above it."""
    prefix_sums = itertools.accumulate(sorted(sizes))
    return next((j for j, total in enumerate(prefix_sums, start=1)
                 if total <= n * j * (j - 1)), 0)


def f_r2(n: int, k: int) -> int:
    """Largest size of a graph on n vertices with no matching of k disjoint edges:
    max(C(2k-1, 2), (k-1)(n-1) - C(k-1, 2)). Needs n >= 2k."""
    if k < 1:
        raise InputError(f"k must be at least 1, got {k}")
    if n < 2 * k:
        raise InputError(f"f(n, 2, k) needs n >= 2k, got n={n}, k={k}")
    return max(math.comb(2 * k - 1, 2), (k - 1) * (n - 1) - math.comb(k - 1, 2))


def g_formula(n: int, r: int, k: int) -> int:
    """The n-balanced r-partite threshold (k-1) * n^(r-1)."""
    if n < 1 or r < 1 or k < 1:
        raise InputError("n, r and k must be at least 1")
    return (k - 1) * n ** (r - 1)


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


def _index_numbering(ground: GroundSet, masks: Iterable[int]
                     ) -> tuple[list[list[int]], Callable[[], tuple]]:
    """The touched vertices and the search tables of masks over
    ground.index, as _edge_masks gives them on a ground of at most
    SHIFT_MASK_BITS cells."""
    index = ground.index
    union = 0
    for m in masks:
        union |= m
    return index.touched(union), index.search_tables


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


def rainbow_positions(ground: GroundSet, masks: Sequence[int],
                      numbering: tuple[list[list[int]], Callable[[], tuple]] | None = None
                      ) -> list[int] | None:
    """The bit of each member's mask that a rainbow matching takes, in
    member order, if one exists, else None. The masks are over
    ground.index, on a ground of at most SHIFT_MASK_BITS cells, unless
    numbering gives the touched vertices and the search tables of their own
    numbering, as _edge_masks returns them; the search builds no Hypergraph
    or Family.

    Refuses at the root by pigeonhole when the members' edges together touch
    fewer than k vertices on some side (partite) or fewer than r*k vertices
    (general), before any search table is asked for. Otherwise searches on
    an explicit stack: members are taken in ascending size order (fail-first,
    ties by index, as Family.by_size) and each member's free edges lowest
    bit first, which is lexicographic order, so the first matching found is
    deterministic. A frame is (depth, remaining candidates, blocked mask);
    taking an edge ORs its conflict mask into the blocked mask, and a node
    is pruned when some later member has no edge left outside it.
    """
    k = len(masks)
    touched, tables = numbering or _index_numbering(ground, masks)
    if min(map(len, touched)) < (k if ground.kind == PARTITE else ground.r * k):
        return None
    order = sorted(range(k), key=list(map(int.bit_count, masks)).__getitem__)
    masks = [masks[i] for i in order]
    if not masks[0]:  # the smallest member is empty
        return None
    conflict = tables()[2]
    chosen = [0] * k
    stack = [(0, masks[0], 0)]
    while stack:
        depth, candidates, blocked = stack.pop()
        low = candidates & -candidates
        if candidates != low:
            stack.append((depth, candidates ^ low, blocked))
        i = low.bit_length() - 1
        chosen[depth] = i
        blocked |= conflict[i]
        depth += 1
        if depth == k:
            positions = [0] * k
            for d, i in enumerate(chosen):
                positions[order[d]] = i
            return positions
        free = ~blocked
        if all(map(free.__and__, masks[depth:])):
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
