"""The exhaustive walk of the verify drivers: every family of shifted members
a checker admits, decided through its minimal families (_run_exhaustive),
and the exact thresholds by full enumeration (_largest_shifted_below), with
the guards that bound both.

verify reaches this module through its attribute, and calls back into
verify's enumeration (_ideal_dfs, iter_shifted) the same way, so random
checks and closed-form thresholds never execute it."""
from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterable, Iterator

from .core import MAX_INDEX_BITS, GroundSet, capped_cells, estimate_text
from .errors import InputError, TheoremViolationError
# bound, not executed: instances runs only when a counterexample is listed,
# oracles only when a threshold walk takes a matching number
from . import instances, oracles, verify

# Explicit scale guardrails: exhaustive claims refuse anything beyond these.
# 36 cells admits r=2 n=6 and r=3 n=3, whose shifted edge sets are walked in
# well under a second, while the family-count guard bounds the work on them.
MAX_EXHAUSTIVE_CELLS = 36
MAX_EXHAUSTIVE_INSTANCES = 2_000_000


def _guard_cells(ground: GroundSet, limit: int) -> None:
    cells = capped_cells(ground.kind, ground.r, ground.n)
    if cells > limit:
        exact = cells <= MAX_INDEX_BITS  # else cells is a lower bound
        text = estimate_text(cells)
        raise InputError(f"exhaustive enumeration refused: universe has "
                         f"{'' if exact else 'at least '}{text} cells (limit {limit}); "
                         f"{'up to' if exact else 'at least'} 2^{text} candidate edge sets")


def _largest_shifted_below(ground: GroundSet, k: int) -> int:
    """Largest size of a shifted edge set over the ground with matching
    number below k, by full enumeration."""
    _guard_cells(ground, MAX_EXHAUSTIVE_CELLS)
    best = 0
    for h in verify.iter_shifted(ground):
        if len(h) > best and oracles.nu_exact(h) < k:
            best = len(h)
    return best


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

    The hypothesis reads each minimal family's members, the conclusion
    their traces on the checker's kernel, in the same product order, and
    a failure and a fault are listed with the full members.
    """
    ground = checker.ground
    _guard_cells(ground, MAX_EXHAUSTIVE_CELLS)
    by_size: list[list[int]] = [[] for _ in range(ground.cell_count + 1)]
    for mask in verify._ideal_dfs(ground):
        by_size[mask.bit_count()].append(mask)
    kernel = ground.index.below(checker.kernel_below)
    traced = [[mask & kernel for mask in masks] for masks in by_size]
    levels = [Counter(sizes) for sizes in
              _minimal_sizes(checker.floors, checker.sums, ground.cell_count)]
    count = sum(math.prod(math.comb(len(by_size[size]) + m - 1, m)
                          for size, m in level.items()) for level in levels)
    if count > MAX_EXHAUSTIVE_INSTANCES:
        raise InputError(
            f"exhaustive enumeration refused: about {count} minimal "
            f"families (limit {MAX_EXHAUSTIVE_INSTANCES})")
    counters: list[dict] = []
    for level in levels:
        # the members and their traces, taken once per shifted set, walked
        # in one product order
        for parts, traces in zip(*(itertools.product(*(
                itertools.combinations_with_replacement(listed[size], m)
                for size, m in level.items())) for listed in (by_size, traced))):
            masks = sum(parts, ())
            if not checker.hypothesis(masks):
                raise TheoremViolationError("minimal family outside the hypothesis",
                                            instance=verify._family(ground, masks))
            if not checker.conclusion(sum(traces, ())):
                counters.append(
                    instances.Instance.from_family(verify._family(ground, masks)).to_dict())
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
