"""The exhaustive driver of the verify checks: the walk over shifted
(downward closed) edge sets (_ideal_dfs), every family of shifted members a
checker admits, decided through its minimal families (_run_exhaustive), and
the exact thresholds by full enumeration (compute_threshold_exact), with the
guards that bound them.

verify calls into this module through its attribute (_run_exhaustive, and
_largest_shifted_below for a general threshold off f_r2's closed form) and
forwards the walk and the thresholds by name; _run_exhaustive hands its
minimal families to verify's verdict loop (_failing). A threshold runs here
without verify, and random checks never execute this module."""
from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterable, Iterator

from .core import (GENERAL, MAX_INDEX_BITS, PARTITE, GroundSet, Hypergraph, capped_cells,
                   estimate_text)
from .errors import InputError
# bound, not executed: oracles runs only when a threshold walk takes a
# matching number, verify only by an exhaustive check, whose checker and
# verdict loop it defines
from . import oracles, verify

# Explicit scale guardrails: exhaustive claims refuse anything beyond these.
# 36 cells admits r=2 n=6 and r=3 n=3, whose shifted edge sets are walked in
# well under a second, while the family-count guard bounds the work on them.
MAX_EXHAUSTIVE_CELLS = 36
MAX_EXHAUSTIVE_INSTANCES = 2_000_000


def _guard_cells(ground: GroundSet, limit: int, walk: str = "") -> None:
    """Refuses a ground of more than limit cells, with an estimate; walk,
    when given, names the walk refused."""
    cells = capped_cells(ground.kind, ground.r, ground.n)
    if cells > limit:
        exact = cells <= MAX_INDEX_BITS  # else cells is a lower bound
        text = estimate_text(cells)
        walk = walk and walk + "; its "
        raise InputError(f"exhaustive enumeration refused: {walk}universe has "
                         f"{'' if exact else 'at least '}{text} cells (limit {limit}); "
                         f"{'up to' if exact else 'at least'} 2^{text} candidate edge sets")


# ---------------------------------------------------------------------------
# Enumeration of shifted edge sets

def _ideal_dfs(ground: GroundSet) -> Iterator[int]:
    """All downward-closed edge masks over ground.index, each once.

    Walks the cells graded by coordinate sum, a linear extension of the
    dominance order; a cell may join only when its immediate predecessors (the
    cells with one vertex lowered by one) are in, which makes every branch
    downward closed.
    """
    index = ground.index
    m = ground.cell_count
    walk = sorted(range(m), key=lambda i: (sum(index.cell(i)), i))
    # a cell's lower covers are its images under the shifts v -> v-1
    covers = [sum(index.move(1 << i, side, v - 1, v)[1]
                  for side in ground.sides for v in range(1, ground.n))
              for i in walk]
    # depth first, leaving cell walk[t] out before taking it: a popped (t, mask)
    # leaves out every later cell and stacks the branches that take one
    stack = [(0, 0)]
    while stack:
        t, mask = stack.pop()
        for u in range(t, m):
            if mask & covers[u] == covers[u]:
                stack.append((u + 1, mask | 1 << walk[u]))
        yield mask


def enumerate_shifted(ground: GroundSet, size: int) -> Iterator[Hypergraph]:
    """Every downward-closed edge set of exactly the given size, each once."""
    if size < 0 or size > ground.cell_count:
        raise InputError(f"size {size} out of range [0, {ground.cell_count}]")
    for h in iter_shifted(ground):
        if len(h) == size:
            yield h


def iter_shifted(ground: GroundSet) -> Iterator[Hypergraph]:
    """Every downward-closed edge set over the ground, all sizes."""
    for mask in _ideal_dfs(ground):
        yield Hypergraph._from_mask(ground, mask)


# ---------------------------------------------------------------------------
# Exact thresholds

F_R2_GENERAL = "f_r2_general"
G_PARTITE = "g_partite"


def compute_threshold_exact(mode: str, n: int, r: int, k: int) -> int:
    """Largest size of a shifted hypergraph with matching number below k,
    by full enumeration. Restricting to shifted sets is sound because shifting
    never increases the matching number."""
    if k < 1:
        raise InputError(f"k must be at least 1, got {k}")
    if mode == F_R2_GENERAL:
        if r != 2:
            raise InputError("f_r2_general computes the r=2 general-kind threshold")
        if n < 4:
            raise InputError(f"needs r <= n/2, got n={n}")
        ground = GroundSet(GENERAL, 2, n)
    elif mode == G_PARTITE:
        ground = GroundSet(PARTITE, r, n)
    else:
        raise InputError(f"unknown threshold mode: {mode!r}")
    return _largest_shifted_below(ground, k)


def _largest_shifted_below(ground: GroundSet, k: int, walk: str = "") -> int:
    """Largest size of a shifted edge set over the ground with matching
    number below k, by full enumeration; walk names it in a refusal
    (_guard_cells)."""
    _guard_cells(ground, MAX_EXHAUSTIVE_CELLS, walk)
    best = 0
    for h in iter_shifted(ground):
        if len(h) > best and oracles.nu_exact(h) < k:
            best = len(h)
    return best


# ---------------------------------------------------------------------------
# Exhaustive checks

def _run_exhaustive(checker: verify._Checker) -> tuple[int, list[dict]]:
    """The ordered hypothesis families of shifted members covered, and the
    failing minimal families: by ascending size tuple, then in product order.

    A shifted member contains a shifted member of every smaller size (keep
    deleting a maximal cell), a family that passes makes every family of
    supersets pass, and the verdict ignores member order. So every ordered
    family passes iff every multiset of shifted members passes whose
    ascending sizes are a minimal tuple meeting the floors and sums. The
    failing multisets are the complete counterexample list, at most the
    MAX_EXHAUSTIVE_INSTANCES the family guard admits; one outside the
    hypothesis is a fault and raises TheoremViolationError.

    The minimal families go in product order to verify's verdict loop
    (_failing), which reads the hypothesis on their members, lists a
    failure and a fault with the full members, and decides each key once
    per run. Their members are shifted sets, so the loop reads each
    member's trace (_Checker) from a lookup taken once per run, one trace
    per shifted set walked.
    """
    ground = checker.ground
    _guard_cells(ground, MAX_EXHAUSTIVE_CELLS)
    by_size: list[list[int]] = [[] for _ in range(ground.cell_count + 1)]
    for mask in _ideal_dfs(ground):
        by_size[mask.bit_count()].append(mask)
    levels = [Counter(sizes) for sizes in
              _minimal_sizes(checker.floors, checker.sums, ground.cell_count)]
    count = sum(math.prod(math.comb(len(by_size[size]) + m - 1, m)
                          for size, m in level.items()) for level in levels)
    if count > MAX_EXHAUSTIVE_INSTANCES:
        raise InputError(
            f"exhaustive enumeration refused: about {count} minimal "
            f"families (limit {MAX_EXHAUSTIVE_INSTANCES})")
    trace = checker.trace()
    traced = {mask: trace(mask) for masks in by_size for mask in masks}
    families = (sum(parts, ()) for level in levels
                for parts in itertools.product(*(
                    itertools.combinations_with_replacement(by_size[size], m)
                    for size, m in level.items())))
    counters = verify._failing(checker, traced.__getitem__, families,
                               "minimal family outside the hypothesis")
    return _count_families(checker.floors, checker.sums, map(len, by_size)), counters


def _minimal_sizes(floors: tuple[int, ...], sums: tuple[int, ...],
                   most: int) -> Iterator[tuple[int, ...]]:
    """The minimal ascending size tuples, none above most, whose size j (from
    0) is at least floors[j] and whose sizes 0..j sum to at least sums[j],
    in ascending order, by depth-first search. Two rules cut it:

    - A meeting tuple is minimal iff lowering the first size of each run of
      equal sizes breaks it: that size sits at its floor, or a prefix sum
      from it on sits exactly at its sum floor. Proof: such a lowering keeps
      the tuple ascending and lowers each prefix sum from it on by one; and
      if a meeting tuple lies below t, so does t lowered at the first place
      where the two differ, which starts a run of t.
    - A size s at place i raised past its floor stops rising once no prefix
      sum from it on can land on its sum floor. Proof: every later size is
      at least s, so the sum through j is at least the sum before i plus
      (j - i + 1) * s, which grows with s.
    """
    k = len(floors)
    sizes: list[int] = []

    def extend(prev: int, total: int, pending: bool) -> Iterator[tuple[int, ...]]:
        i = len(sizes)  # pending: a size raised past its floors awaits a tight sum
        if i == k:
            if not pending:
                yield tuple(sizes)
            return
        for s in range(max(prev, floors[i], sums[i] - total), most + 1):
            needs = pending or s > max(prev, floors[i])
            if needs and all(total + (j - i + 1) * s > sums[j] for j in range(i, k)):
                break
            sizes.append(s)
            yield from extend(s, total + s, needs and total + s != sums[i])
            sizes.pop()

    return extend(0, 0, False)


def _count_families(floors: tuple[int, ...], sums: tuple[int, ...],
                    histogram: Iterable[int]) -> int:
    """Ordered families of members, histogram[s] of them of size s, whose
    ascending sizes meet the floors and sums: the sizes are placed in
    ascending order, m members of a size with c of them taking m of the
    k - j places still open, C(k - j, m) * c^m ways. A state is (members
    placed, their size sum capped at the largest sum floor)."""
    k, cap = len(floors), max(sums)
    ways: Counter[tuple[int, int]] = Counter({(0, 0): 1})
    for size, c in enumerate(histogram):
        for (j, total), w in list(ways.items()):
            for m in range(1, k - j + 1):
                t = j + m - 1  # the place the m-th member takes
                if size < floors[t] or total + m * size < sums[t]:
                    break
                ways[j + m, min(cap, total + m * size)] += w * math.comb(k - j, m) * c ** m
    return sum(w for (j, _), w in ways.items() if j == k)
