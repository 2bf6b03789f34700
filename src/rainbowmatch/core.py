"""The data model: ground sets, hypergraphs, families and rainbow matchings;
the limits past which a ground or a listing is refused, with their
estimates; and the size predicates and closed-form thresholds the solvers
and verify drivers test sizes against. The cell index lives in index and
the exact oracles in oracles, both bound here without being executed."""
from __future__ import annotations

import functools
import itertools
import math
import operator
from bisect import bisect_left
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .errors import InputError
# bound, not executed: a ground builds its cell index on first use, and the
# oracles run only when a command calls one
from . import index, oracles

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
    def index(self) -> index.CellIndex:
        """The cell index of this ground, built on first use and then kept.
        The index module, which defines CellIndex, executes on the first
        ground indexed, so a command that indexes none never runs it."""
        return index.CellIndex(self)

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


def __getattr__(name: str):
    """nu_exact and rainbow_exact, read from oracles, their module, for
    callers that name them on core, as perfbench/traced_cli.py does; every
    other name core lacks is an AttributeError. Read here, not bound, so
    that core runs without executing oracles."""
    if name in ("nu_exact", "rainbow_exact"):
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
