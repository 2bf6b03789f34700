"""The cell index of a ground and what reads its masks: the lexicographic
numbering of cells (CellIndex), the shifted closure's sweep and plan
(_sweep, _closer), and the rainbow search on index masks
(rainbow_positions), which random and exhaustive verdicts call with no
member built."""
from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Callable, Iterable, Iterator, Sequence

from .core import PARTITE, Edge, GroundSet, _guard_index


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
    order. Built by GroundSet.index, the one place a ground is indexed; the
    data model in core holds no mask arithmetic of its own.

    Each kind has one numbering. A partite position is the cell's vertices
    read as base-n digits, and a general cell is found by its vertex set as
    a mask. Every table the index keeps, and its size bound, with N the cell
    count (at most core.MAX_INDEX_BITS / r bits partite, MAX_INDEX_BITS / n
    general):

    - partite, from the start: _stride, the r strides n^(r-1-s), and _zero,
      r masks of N bits, side s's cells with vertex 0 there; they shift left
      by v*n^(r-1-s) to side s's cells with vertex v.
    - general, from the start: _sets, each cell's vertex set (N ints of n
      bits); _by_set, the map back to positions (N entries); and _vertex,
      the cells through each vertex (n masks of N bits).
    - _cells, the cell tuple (N tuples), listed only when asked for: the
      rainbow search and the exact oracles take it as their edge tuple up
      to SHIFT_MASK_BITS cells. The samplers draw positions and never list
      it.
    - _plan, the closure plan of _closer, the constants of one sweep, built
      by closure_plan when the first closer is made on the ground: at most
      MAX_PLAN_ENTRIES entries, else none is kept.
    - _side_vertex and _conflict, the search tables of rainbow_positions
      and of the exact oracles, kept only on a ground of at most
      SHIFT_MASK_BITS cells and built by the first search past the root
      pigeonhole test (search_tables): a partite ground's
      vertex masks, side s's zero[s] << v*t for each vertex v (r*n masks of
      at most 1,024 bits; a general ground's are _vertex), and each cell's
      conflict mask, the cells that share a vertex with it (at most 1,024
      masks of 1,024 bits, 128 KiB of bits).

    The queries keep nothing more: below(m), the kernel mask of the
    rainbow checkers' verdict key, is read off _stride (partite) or _sets (general) when asked
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
        """The search tables on this numbering (as oracles._edge_masks gives
        them), built on the first call and then kept: the cells; the cells
        through each vertex of the first position (side 0, or any vertex on
        a general ground); and each cell's conflict mask. A cell's conflict
        mask is the OR of its vertices' masks, taken over the cells in
        position order: the product of the sides' vertex masks (partite) or
        their r-combinations (general). For grounds of at most
        SHIFT_MASK_BITS cells only."""
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


# Grounds of at most this many cells give the exact oracles the cell index's
# numbering, whose masks are then at most a kilobit; past it, index masks
# would grow with the ground rather than with the members' edges
# (oracles._edge_masks).
SHIFT_MASK_BITS = 1024


def _index_numbering(ground: GroundSet, masks: Iterable[int]
                     ) -> tuple[list[list[int]], Callable[[], tuple]]:
    """The touched vertices and the search tables of masks over
    ground.index, as oracles._edge_masks gives them on a ground of at most
    SHIFT_MASK_BITS cells."""
    index = ground.index
    union = 0
    for m in masks:
        union |= m
    return index.touched(union), index.search_tables


def rainbow_positions(ground: GroundSet, masks: Sequence[int],
                      numbering: tuple[list[list[int]], Callable[[], tuple]] | None = None
                      ) -> list[int] | None:
    """The bit of each member's mask that a rainbow matching takes, in
    member order, if one exists, else None. The masks are over
    ground.index, on a ground of at most SHIFT_MASK_BITS cells, unless
    numbering gives the touched vertices and the search tables of their own
    numbering, as oracles._edge_masks returns them; the search builds no
    Hypergraph or Family.

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
