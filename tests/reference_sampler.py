"""The edge-tuple samplers that rainbowmatch.verify replaced with cell
positions, direct draws from the generator's bits and a log-free closure,
kept verbatim as the reference for differential tests: each member is drawn
as a tuple of cells by Random.sample, shuffle and randint, validated edge by
edge, and the family is closed by shifted_closure. The degree-capped member
is picked from a shuffled copy of the cell tuple."""
from __future__ import annotations

import random

from rainbowmatch.core import Family, GroundSet, Hypergraph
from rainbowmatch.errors import InputError
from rainbowmatch.shifting import shifted_closure
from rainbowmatch.core import _hall_violation


def _sample_member(rng: random.Random, ground: GroundSet, size: int) -> Hypergraph:
    return Hypergraph(ground, rng.sample(ground.index.cells, size))


def _sample_shifted_family(rng: random.Random, ground: GroundSet,
                           floors: list[int]) -> Family:
    u = ground.cell_count
    return shifted_closure(Family([_sample_member(rng, ground, rng.randint(f, u))
                                   for f in floors]))[0]


def sample_matrix(rng: random.Random, ground: GroundSet, k: int) -> Family:
    """The matrix checker's sample, with its ground and k as arguments."""
    n = ground.n
    u = ground.cell_count
    for _ in range(1000):
        sizes = [rng.randint(1, u) for _ in range(k)]
        if not _hall_violation(sizes, n):
            return _sample_shifted_family(rng, ground, sizes)
    raise InputError("could not sample sizes meeting the sum condition")


def _sample_degree_capped(rng: random.Random, ground: GroundSet, d: int,
                          min_size: int) -> Hypergraph:
    n = ground.n
    max_size = d * n
    if min_size > max_size:
        raise InputError(
            f"no bipartite graph with max degree {d} has more than {max_size} edges")
    cells = list(ground.index.cells)  # a copy: it is shuffled
    for _ in range(200):
        target = rng.randint(min_size, max_size)
        rng.shuffle(cells)
        degs = ([0] * n, [0] * n)
        picked = []
        for e in cells:
            if len(picked) == target:
                break
            if degs[0][e[0]] < d and degs[1][e[1]] < d:
                picked.append(e)
                degs[0][e[0]] += 1
                degs[1][e[1]] += 1
        if len(picked) == target:
            return Hypergraph(ground, picked)
    raise InputError("could not sample a degree-capped member at these parameters")
