"""The exhaustive walk for a non-monotone checker as it was before it walked
member multisets, kept verbatim as the reference for differential tests:
every ordered k-tuple of shifted members no smaller than the least floor is
built and decided, in product order."""
from __future__ import annotations

import itertools

from rainbowmatch.core import Family
from rainbowmatch.instances import Instance
from rainbowmatch.exhaustive import iter_shifted


def run_ordered(checker) -> tuple[int, list[dict]]:
    """Families meeting the hypothesis, and those failing the conclusion as
    instances, in product order."""
    least = min(checker.floors, default=1)
    candidates = [h for h in iter_shifted(checker.ground) if len(h) >= least]
    checked = 0
    counters: list[dict] = []
    for members in itertools.product(candidates, repeat=checker.k):
        family = Family(members)
        if not checker.hypothesis(family):
            continue
        checked += 1
        if not checker.conclusion(family):
            counters.append(Instance.from_family(family).to_dict())
    return checked, counters
