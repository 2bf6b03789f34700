"""Closed-form thresholds and the sharpness / counterexample constructions."""
from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable

# f_r2, g_formula and MAX_LISTED_VERTICES live in core, where the solvers and
# verify drivers read them without executing this module
from .core import (GENERAL, MAX_INDEX_BITS, MAX_LISTED_VERTICES, PARTITE, Edge, Family,
                   GroundSet, Hypergraph, capped_cells, estimate_text, f_r2, g_formula)
from .errors import InputError


def _family(ground: GroundSet,
            parts: list[tuple[int, int, Callable[[], Iterable[Edge]]]]) -> Family:
    """The family of each part (copies, count, edges) as copies of the
    member of the sorted edges that edges() lists. Refused before anything
    is listed if a member's count passes MAX_INDEX_BITS or its vertices
    (count times r) pass MAX_LISTED_VERTICES, and then if the family's do
    (every copy counted). A callable, because some iterators
    (itertools.product over range(n)) allocate per vertex once made."""
    r = ground.r
    for _, count, _ in parts:
        if count > MAX_INDEX_BITS:
            raise InputError(f"construction refused: a member would have at least "
                             f"{estimate_text(count)} edges (limit {MAX_INDEX_BITS})")
        if (listed := count * r) > MAX_LISTED_VERTICES:
            raise InputError(f"construction refused: a member would list "
                             f"{estimate_text(listed)} vertices, edges times r "
                             f"(limit {MAX_LISTED_VERTICES})")
    if (listed := r * sum(copies * count for copies, count, _ in parts)) > MAX_LISTED_VERTICES:
        raise InputError(f"construction refused: the family would list "
                         f"{estimate_text(listed)} vertices, members times edges times r "
                         f"(limit {MAX_LISTED_VERTICES})")
    return Family([h for copies, count, edges in parts
                   for h in [Hypergraph(ground, edges() if count else ())] * copies])


def f_large_n(n: int, r: int, k: int) -> int:
    """C(n, r) - C(n-k+1, r). Valid as the general-kind threshold only for
    large n (no explicit cutoff is known); evaluates the formula for any n >= r."""
    if r < 1 or k < 1:
        raise InputError("r and k must be at least 1")
    if n < r:
        raise InputError(f"needs n >= r, got n={n}, r={r}")
    m = n - k + 1
    return math.comb(n, r) - (math.comb(m, r) if m >= r else 0)


def star_family(n: int, r: int, k: int) -> Family:
    """k identical members, each holding every edge meeting the first k-1
    vertices of side 1. Each member has exactly (k-1) * n^(r-1) edges and the
    family has no rainbow matching."""
    if k < 1:
        raise InputError(f"k must be at least 1, got {k}")
    if k - 1 > n:
        raise InputError(f"star family needs k - 1 <= n, got k={k}, n={n}")
    return _family(GroundSet(PARTITE, r, n), [
        (k, (k - 1) * capped_cells(PARTITE, r - 1, n),
         lambda: itertools.product(range(k - 1), *[range(n)] * (r - 1)))])


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
    return _family(GroundSet(PARTITE, 2, n), [
        (1, q * q, lambda: itertools.product(range(q), repeat=2)),
        (q, (q + 1) * n - q,
         lambda: ((c, d) for c in range(n) for d in (range(n) if c < q else (0,))))])


def r3_counterexample(n: int) -> Family:
    """The k=2, r=3 pair defeating the naive sum condition: a single edge plus
    all edges meeting it. |F_2| = n^3 - (n-1)^3 and the size sum exceeds 2n^2
    for n >= 3, yet there is no rainbow matching."""
    if n < 2:
        raise InputError(f"needs n >= 2, got {n}")
    return _family(GroundSet(PARTITE, 3, n), [
        (1, 1, lambda: [(0, 0, 0)]),
        (1, n ** 3 - (n - 1) ** 3,
         lambda: ((a, b, c) for a in range(n) for b in range(n)
                  for c in (range(n) if 0 in (a, b) else (0,))))])


def ekr_star(n: int, r: int) -> Hypergraph:
    """All r-subsets of [n] through vertex 1: C(n-1, r-1) edges, matching number 1."""
    if r < 1:
        raise InputError(f"r must be at least 1, got {r}")
    if 2 * r > n:
        raise InputError(f"needs r <= n/2, got r={r}, n={n}")
    pool = range(1, n) if r > 1 else ()  # combinations lists its pool first; r=1 needs none
    return _family(GroundSet(GENERAL, r, n), [
        (1, capped_cells(GENERAL, r - 1, n - 1),
         lambda: ((0, *e) for e in itertools.combinations(pool, r - 1)))])[0]
