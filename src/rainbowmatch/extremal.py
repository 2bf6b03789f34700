"""Closed-form thresholds and the sharpness / counterexample constructions."""
from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable

from .core import (GENERAL, MAX_INDEX_BITS, PARTITE, Edge, Family, GroundSet,
                   Hypergraph, capped_cells, estimate_text)
from .errors import InputError

# Vertices (edges times r) one member may list: up to 150 MB to build and print.
MAX_LISTED_VERTICES = 1 << 20


def _member(ground: GroundSet, count: int, edges: Callable[[], Iterable[Edge]]) -> Hypergraph:
    """The member of the sorted edges that edges() lists, refused before
    they are listed if count passes MAX_INDEX_BITS or count * r passes
    MAX_LISTED_VERTICES. A callable, because some iterators (itertools.product
    over range(n)) allocate per vertex as soon as they are made."""
    if count > MAX_INDEX_BITS:
        raise InputError(f"construction refused: a member would have at least "
                         f"{estimate_text(count)} edges (limit {MAX_INDEX_BITS})")
    if (listed := count * ground.r) > MAX_LISTED_VERTICES:
        raise InputError(f"construction refused: a member would list {estimate_text(listed)} "
                         f"vertices, edges times r (limit {MAX_LISTED_VERTICES})")
    return Hypergraph._from_sorted(ground, tuple(edges()) if count else ())


def f_r2(n: int, k: int) -> int:
    """Largest size of a graph on n vertices with no matching of k disjoint edges:
    max(C(2k-1, 2), (k-1)(n-1) - C(k-1, 2)). Needs n >= 2k."""
    if k < 1:
        raise InputError(f"k must be at least 1, got {k}")
    if n < 2 * k:
        raise InputError(f"f(n, 2, k) needs n >= 2k, got n={n}, k={k}")
    return max(math.comb(2 * k - 1, 2), (k - 1) * (n - 1) - math.comb(k - 1, 2))


def f_large_n(n: int, r: int, k: int) -> int:
    """C(n, r) - C(n-k+1, r). Valid as the general-kind threshold only for
    large n (no explicit cutoff is known); evaluates the formula for any n >= r."""
    if r < 1 or k < 1:
        raise InputError("r and k must be at least 1")
    if n < r:
        raise InputError(f"needs n >= r, got n={n}, r={r}")
    m = n - k + 1
    return math.comb(n, r) - (math.comb(m, r) if m >= r else 0)


def g_formula(n: int, r: int, k: int) -> int:
    """The n-balanced r-partite threshold (k-1) * n^(r-1)."""
    if n < 1 or r < 1 or k < 1:
        raise InputError("n, r and k must be at least 1")
    return (k - 1) * n ** (r - 1)


def star_family(n: int, r: int, k: int) -> Family:
    """k identical members, each holding every edge meeting the first k-1
    vertices of side 1. Each member has exactly (k-1) * n^(r-1) edges and the
    family has no rainbow matching."""
    if k < 1:
        raise InputError(f"k must be at least 1, got {k}")
    if k - 1 > n:
        raise InputError(f"star family needs k - 1 <= n, got k={k}, n={n}")
    ground = GroundSet(PARTITE, r, n)
    member = _member(ground, (k - 1) * capped_cells(PARTITE, r - 1, n),
                     lambda: itertools.product(range(k - 1), *[range(n)] * (r - 1)))
    return Family([member] * k)


def steal_family(q: int, n: int) -> Family:
    """The q+1 member bipartite family on [n]^2 where the longest-edge algorithm
    halts although a rainbow matching exists.

    Member 1 is the q x q block; members 2..q+1 each hold the full q x n block
    plus the whole first column, (q+1)n - q edges each. The size sums meet the
    Hall-type bound with equality instead of strict inequality.
    """
    if q < 3:
        raise InputError(f"needs q >= 3, got q={q}")
    if q >= n:
        raise InputError(f"needs q < n, got q={q}, n={n}")
    ground = GroundSet(PARTITE, 2, n)
    first = _member(ground, q * q, lambda: itertools.product(range(q), repeat=2))
    rest = _member(ground, (q + 1) * n - q,
                   lambda: ((c, d) for c in range(n) for d in (range(n) if c < q else (0,))))
    return Family([first] + [rest] * q)


def r3_counterexample(n: int) -> Family:
    """The k=2, r=3 pair defeating the naive sum condition: a single edge plus
    all edges meeting it. |F_2| = n^3 - (n-1)^3 and the size sum exceeds 2n^2
    for n >= 3, yet there is no rainbow matching."""
    if n < 2:
        raise InputError(f"needs n >= 2, got {n}")
    ground = GroundSet(PARTITE, 3, n)
    f1 = Hypergraph(ground, [(0, 0, 0)])
    f2 = _member(ground, n ** 3 - (n - 1) ** 3,
                 lambda: ((a, b, c) for a in range(n) for b in range(n)
                          for c in (range(n) if 0 in (a, b) else (0,))))
    return Family([f1, f2])


def ekr_star(n: int, r: int) -> Hypergraph:
    """All r-subsets of [n] through vertex 1: C(n-1, r-1) edges, matching number 1."""
    if r < 1:
        raise InputError(f"r must be at least 1, got {r}")
    if 2 * r > n:
        raise InputError(f"needs r <= n/2, got r={r}, n={n}")
    ground = GroundSet(GENERAL, r, n)
    return _member(ground, capped_cells(GENERAL, r - 1, n - 1),
                   lambda: ((0, *e) for e in itertools.combinations(range(1, n), r - 1)))
