"""The recursive exact oracles that rainbowmatch.core replaced with an
explicit-stack search over local edge masks, kept verbatim as the slow
reference for differential tests."""
from __future__ import annotations

from rainbowmatch.core import (PARTITE, Edge, Family, Hypergraph, RainbowMatching,
                               edge_vertices)


def nu_exact(h: Hypergraph) -> int:
    """Exact matching number, by branch and bound.

    Branches on the least-index uncovered vertex (side 0 for partite grounds):
    either it stays unmatched, or one of its free incident edges is taken.
    Bounds by the remaining-vertex quota.
    """
    g = h.ground
    if not h.edges:
        return 0
    best = 0
    if g.kind == PARTITE:
        by_first: list[list[Edge]] = [[] for _ in range(g.n)]
        for e in h.edges:
            by_first[e[0]].append(e)
        covered = [[False] * g.n for _ in range(g.r)]

        def rec_p(i: int, size: int) -> None:
            nonlocal best
            if size > best:
                best = size
            if i == g.n or size + (g.n - i) <= best:
                return
            for e in by_first[i]:
                if all(not covered[s][e[s]] for s in range(1, g.r)):
                    for s in range(1, g.r):
                        covered[s][e[s]] = True
                    rec_p(i + 1, size + 1)
                    for s in range(1, g.r):
                        covered[s][e[s]] = False
            rec_p(i + 1, size)

        rec_p(0, 0)
        return best

    by_min: list[list[Edge]] = [[] for _ in range(g.n)]
    for e in h.edges:
        by_min[e[0]].append(e)
    covered_g = [False] * g.n

    def rec_g(v: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while v < g.n and covered_g[v]:
            v += 1
        if v == g.n or size + (g.n - v) // g.r <= best:
            return
        for e in by_min[v]:
            if all(not covered_g[u] for u in e):
                for u in e:
                    covered_g[u] = True
                rec_g(v + 1, size + 1)
                for u in e:
                    covered_g[u] = False
        covered_g[v] = True  # v stays unmatched on this branch
        rec_g(v + 1, size)
        covered_g[v] = False

    rec_g(0, 0)
    return best


def rainbow_exact(family: Family) -> RainbowMatching | None:
    """A rainbow matching if one exists, else None.

    Exhaustive backtracking; members are processed in ascending size order
    (fail-first) with edges in lexicographic order, so the result is
    deterministic. Choices are reported in the original member order.
    """
    g = family.ground
    order = sorted(range(family.k), key=lambda i: (len(family[i]), i))
    choices: list[Edge | None] = [None] * family.k
    used: set = set()

    def rec(pos: int) -> bool:
        if pos == family.k:
            return True
        idx = order[pos]
        for e in family[idx].edges:
            keys = edge_vertices(g, e)
            if any(key in used for key in keys):
                continue
            used.update(keys)
            choices[idx] = e
            if rec(pos + 1):
                return True
            used.difference_update(keys)
            choices[idx] = None
        return False

    if not rec(0):
        return None
    return RainbowMatching(tuple(choices))  # type: ignore[arg-type]

