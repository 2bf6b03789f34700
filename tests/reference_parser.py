"""The per-edge loop that rainbowmatch.instances replaced with one member
check in Hypergraph, kept verbatim in its rules as the reference for
differential tests: each edge is checked for shape and type, range, order
and repetition in turn, and the first bad one is reported by its path."""
from __future__ import annotations

from rainbowmatch.core import GENERAL, Edge
from rainbowmatch.errors import InputError


def parse_members(kind: str, r: int, n: int, fams: list,
                  path: str = "instance") -> list[tuple[Edge, ...]]:
    """Each member's sorted 0-based edges, or InputError at the first bad
    edge's path, for a families list whose members are all lists."""
    members = []
    for fi, fam in enumerate(fams):
        seen: set[Edge] = set()
        edges = []
        for ei, raw in enumerate(fam):
            where = f"{path}.families[{fi}][{ei}]"
            if (not isinstance(raw, list) or len(raw) != r
                    or any(not isinstance(v, int) or isinstance(v, bool) for v in raw)):
                raise InputError(f"{where}: expected a list of {r} integers")
            if any(v < 1 or v > n for v in raw):
                raise InputError(f"{where}: vertex labels must lie in [1, {n}]")
            e = tuple(v - 1 for v in raw)
            if kind == GENERAL and any(e[i] >= e[i + 1] for i in range(r - 1)):
                raise InputError(f"{where}: general edges must be strictly increasing")
            if e in seen:
                raise InputError(f"{where}: duplicate edge")
            seen.add(e)
            edges.append(e)
        members.append(tuple(sorted(edges)))
    return members
