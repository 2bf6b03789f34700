"""The edge-tuple samplers that rainbowmatch.verify replaced with cell
positions and a log-free closure, kept verbatim as the reference for
differential tests: each member is drawn as a tuple of cells, validated edge
by edge, and the family is closed by shifted_closure."""
from __future__ import annotations

import random

from rainbowmatch.core import Family, GroundSet, Hypergraph
from rainbowmatch.errors import InputError
from rainbowmatch.shifting import shifted_closure
from rainbowmatch.solvers import _hall_violation


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
