"""Exhaustive and randomized verification: enumeration of shifted (downward
closed) edge sets, exact thresholds, conjecture checkers, and counterexample
search."""
from __future__ import annotations

import itertools
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator

from .core import (GENERAL, PARTITE, Family, GroundSet, Hypergraph, nu_exact,
                   rainbow_exact)
from .errors import InputError, TheoremViolationError
from .extremal import f_r2, g_formula
from .instances import Instance
from .shifting import shifted_closure
from .solvers import DegreeMatrix, check_hall_condition, large_n_procedure

# Explicit scale guardrails: exhaustive claims refuse anything beyond these.
# 21 cells admits the smallest valid r=3 general universe (C(6,3) = 20) while
# the family-count guard below bounds the actual enumeration work.
MAX_EXHAUSTIVE_CELLS = 21
MAX_EXHAUSTIVE_INSTANCES = 2_000_000
SHARD_TRIALS = 256  # random-mode work unit; fixes report contents per seed


class ConjectureId(str, Enum):
    RAINBOW_GENERAL = "rainbow_general"    # sizes above the general-kind threshold
    SIZE_CONDITION = "size_condition"      # sizes above (k-1) n^(r-1), r-partite
    DEGREE_CONDITION = "degree_condition"  # max degree <= d and sizes above (k-1)d
    SIMPLE = "simple"                      # ascending sizes at least i*n, bipartite
    MATRIX = "matrix"                      # degree-matrix permutation with growing prefix sums


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a verification run; counterexamples carry full instances."""

    conjecture: str
    params: dict
    mode: str
    instances_checked: int
    counterexamples: tuple[dict, ...]
    elapsed: float = field(compare=False, default=0.0)
    seed: int | None = None

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "verify_report",
            "conjecture": self.conjecture,
            "params": dict(self.params),
            "mode": self.mode,
            "instances_checked": self.instances_checked,
            "counterexamples": [dict(c) for c in self.counterexamples],
            "elapsed": self.elapsed,
            "seed": self.seed,
        }

    def to_text(self) -> str:
        """Summary lines; counterexamples are counted here, listed in to_json."""
        params = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return (f"conjecture: {self.conjecture}\nparams: {params}\nmode: {self.mode}\n"
                f"instances checked: {self.instances_checked}\n"
                f"counterexamples: {len(self.counterexamples)}\n")


@dataclass(frozen=True)
class MatrixCheck:
    """Degree-matrix check: the row-sum hypothesis, a permutation whose sorted
    selected entries have every prefix sum above j(j-1), and a weaker witness
    whose sorted entries dominate (1, 2, ..., k)."""

    hypothesis: bool
    permutation: tuple[int, ...] | None       # permutation[i] = column for row i
    weak_permutation: tuple[int, ...] | None

    @property
    def ok(self) -> bool:
        return self.permutation is not None


# ---------------------------------------------------------------------------
# Enumeration of shifted edge sets

def _ideal_dfs(ground: GroundSet, size: int | None = None) -> Iterator[int]:
    """All downward-closed edge masks over ground.index (of one exact size
    when given), each once.

    Walks the cells graded by coordinate sum, a linear extension of the
    dominance order; a cell may join only when its immediate predecessors (the
    cells with one vertex lowered by one) are in, which makes every branch
    downward closed.
    """
    index = ground.index
    m = ground.cell_count
    walk = sorted(range(m), key=lambda i: (sum(index.cell(i)), i))
    covers = [sum(1 << j for side in ground.sides for v in range(1, ground.n)
                  if index.has(i, side, v)
                  and (j := index.replace(i, side, v, v - 1)) is not None)
              for i in walk]

    def rec(t: int, mask: int, count: int) -> Iterator[int]:
        if size is not None and (count > size or count + (m - t) < size):
            return
        if t == m:
            if size is None or count == size:
                yield mask
            return
        yield from rec(t + 1, mask, count)
        if mask & covers[t] == covers[t]:
            yield from rec(t + 1, mask | 1 << walk[t], count + 1)

    yield from rec(0, 0, 0)


def enumerate_shifted(ground: GroundSet, size: int) -> Iterator[Hypergraph]:
    """Every downward-closed edge set of exactly the given size, each once."""
    if size < 0 or size > ground.cell_count:
        raise InputError(f"size {size} out of range [0, {ground.cell_count}]")
    for mask in _ideal_dfs(ground, size):
        yield Hypergraph._from_mask(ground, mask)


def iter_shifted(ground: GroundSet) -> Iterator[Hypergraph]:
    """Every downward-closed edge set over the ground, all sizes."""
    for mask in _ideal_dfs(ground):
        yield Hypergraph._from_mask(ground, mask)


def _guard_cells(ground: GroundSet) -> None:
    if ground.cell_count > MAX_EXHAUSTIVE_CELLS:
        raise InputError(
            f"exhaustive enumeration refused: universe has {ground.cell_count} "
            f"cells (limit {MAX_EXHAUSTIVE_CELLS}); up to "
            f"2^{ground.cell_count} candidate edge sets")


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


def _exact_f(n: int, r: int, k: int) -> int:
    """Exact general-kind threshold at desk scale (closed form for r=2)."""
    if r == 2 and n >= 2 * k:
        return f_r2(n, k)
    return _largest_shifted_below(GroundSet(GENERAL, r, n), k)


def _largest_shifted_below(ground: GroundSet, k: int) -> int:
    """Largest size of a shifted edge set over the ground with matching
    number below k, by full enumeration."""
    _guard_cells(ground)
    best = 0
    for h in iter_shifted(ground):
        if len(h) > best and nu_exact(h) < k:
            best = len(h)
    return best


# ---------------------------------------------------------------------------
# Conjecture checkers

def _params_int(params: dict, key: str, default: int | None = None) -> int:
    v = params.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise InputError(f"parameter {key!r} must be a positive integer, got {v!r}")
    return v


@dataclass(frozen=True)
class _Checker:
    ground: GroundSet
    k: int
    prefilter_size: int                     # members below this can never qualify
    hypothesis: Callable[[Family], bool]
    conclusion: Callable[[Family], bool]
    sample: Callable[[random.Random], Family]
    exhaustive_allowed: bool = True


def _rainbow_concl(family: Family) -> bool:
    return rainbow_exact(family) is not None


def _matrix_concl(family: Family) -> bool:
    return check_matrix_conjecture(DegreeMatrix.from_family(family)).ok


def _sample_member(rng: random.Random, ground: GroundSet, size: int) -> Hypergraph:
    return Hypergraph(ground, rng.sample(ground.index.cells, size))


def _sample_shifted_family(rng: random.Random, ground: GroundSet,
                           floors: list[int]) -> Family:
    u = ground.cell_count
    members = [_sample_member(rng, ground, rng.randint(f, u)) for f in floors]
    shifted, _ = shifted_closure(Family(members))
    return shifted


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


def _make_checker(conjecture: ConjectureId, params: dict) -> _Checker:
    n = _params_int(params, "n")
    k = _params_int(params, "k")

    if conjecture is ConjectureId.RAINBOW_GENERAL:
        r = _params_int(params, "r", 2)
        if 2 * r > n:
            raise InputError(f"needs r <= n/2, got r={r}, n={n}")
        ground = GroundSet(GENERAL, r, n)
        bound = _exact_f(n, r, k)
        floors = [bound + 1] * k
        return _Checker(
            ground, k, bound + 1,
            hypothesis=lambda fam: all(len(h) > bound for h in fam),
            conclusion=_rainbow_concl,
            sample=lambda rng: _sample_shifted_family(rng, ground, floors))

    if conjecture is ConjectureId.SIZE_CONDITION:
        r = _params_int(params, "r", 2)
        ground = GroundSet(PARTITE, r, n)
        bound = g_formula(n, r, k)
        if bound >= ground.cell_count:
            raise InputError(f"hypothesis bound {bound} leaves no admissible size")
        floors = [bound + 1] * k
        return _Checker(
            ground, k, bound + 1,
            hypothesis=lambda fam: all(len(h) > bound for h in fam),
            conclusion=_rainbow_concl,
            sample=lambda rng: _sample_shifted_family(rng, ground, floors))

    if conjecture is ConjectureId.SIMPLE:
        ground = GroundSet(PARTITE, 2, n)
        if k * n > ground.cell_count:
            raise InputError(f"hypothesis needs k*n <= n^2, got k={k}, n={n}")
        floors = [(i + 1) * n for i in range(k)]
        return _Checker(
            ground, k, n,
            hypothesis=lambda fam: all(
                s >= (i + 1) * n for i, s in enumerate(sorted(fam.sizes()))),
            conclusion=_rainbow_concl,
            sample=lambda rng: _sample_shifted_family(rng, ground, floors))

    if conjecture is ConjectureId.DEGREE_CONDITION:
        d = _params_int(params, "d")
        ground = GroundSet(PARTITE, 2, n)
        min_size = (k - 1) * d + 1

        def hyp(fam: Family) -> bool:
            return all(
                len(h) > (k - 1) * d
                and max(max(h.degrees(s)) for s in (0, 1)) <= d
                for h in fam)

        def sample(rng: random.Random) -> Family:
            # no shifted reduction is known for a degree cap: sample raw members
            return Family([_sample_degree_capped(rng, ground, d, min_size)
                           for _ in range(k)])

        return _Checker(ground, k, min_size, hyp, _rainbow_concl, sample,
                        exhaustive_allowed=False)

    if conjecture is ConjectureId.MATRIX:
        ground = GroundSet(PARTITE, 2, n)
        if k > n:
            raise InputError(f"matrix permutations need k <= n, got k={k}, n={n}")

        def hyp(fam: Family) -> bool:
            return bool(check_hall_condition(fam))

        def sample(rng: random.Random) -> Family:
            u = ground.cell_count
            for _ in range(1000):
                sizes = [rng.randint(1, u) for _ in range(k)]
                pref = sorted(sizes)
                if all(sum(pref[:j]) > n * j * (j - 1) for j in range(1, k + 1)):
                    return _sample_shifted_family(rng, ground, sizes)
            raise InputError("could not sample sizes meeting the sum condition")

        return _Checker(ground, k, 1, hyp, _matrix_concl, sample)

    raise InputError(f"unknown conjecture: {conjecture!r}")


def check_conjecture(conjecture: ConjectureId | str, params: dict,
                     mode: str = "random", budget: int = 1000,
                     seed: int = 0, workers: int = 1) -> VerifyReport:
    """Check a conjecture's predicate over its hypothesis-satisfying families.

    Exhaustive mode enumerates every family of shifted members meeting the
    hypothesis at the given parameters (sound for the conjectures that survive
    shifting; refused for the degree-capped one). Random mode draws seeded
    hypothesis-satisfying samples. Counterexamples are embedded as instances.
    """
    conjecture = ConjectureId(conjecture)
    if workers < 1:
        raise InputError(f"workers must be at least 1, got {workers}")
    checker = _make_checker(conjecture, params)
    start = time.perf_counter()
    if mode == "exhaustive":
        if not checker.exhaustive_allowed:
            raise InputError(
                f"{conjecture.value}: no shifted reduction is available, "
                "exhaustive mode is refused; use random mode")
        checked, counters = _run_exhaustive(checker)
        return VerifyReport(conjecture.value, dict(params), mode, checked,
                            tuple(counters), time.perf_counter() - start, None)
    if mode != "random":
        raise InputError(f"unknown mode: {mode!r}")
    if budget < 1:
        raise InputError(f"budget must be positive, got {budget}")
    checked, counters = _run_random(conjecture, params, budget, seed, workers)
    return VerifyReport(conjecture.value, dict(params), mode, checked,
                        tuple(counters), time.perf_counter() - start, seed)


def _run_exhaustive(checker: _Checker) -> tuple[int, list[dict]]:
    _guard_cells(checker.ground)
    candidates = [h for h in iter_shifted(checker.ground)
                  if len(h) >= checker.prefilter_size]
    estimate = len(candidates) ** checker.k
    if estimate > MAX_EXHAUSTIVE_INSTANCES:
        raise InputError(
            f"exhaustive enumeration refused: about {estimate} candidate "
            f"families (limit {MAX_EXHAUSTIVE_INSTANCES})")
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


def _shard_spans(budget: int) -> list[tuple[int, int]]:
    return [(s, min(SHARD_TRIALS, budget - s * SHARD_TRIALS))
            for s in range((budget + SHARD_TRIALS - 1) // SHARD_TRIALS)]


def _run_shard(args: tuple) -> tuple[int, list[tuple[int, dict]]]:
    conjecture, params, seed, shard, count = args
    checker = _make_checker(ConjectureId(conjecture), params)
    rng = random.Random(f"{seed}:{shard}")
    counters: list[tuple[int, dict]] = []
    for t in range(count):
        family = checker.sample(rng)
        if not checker.hypothesis(family):
            raise TheoremViolationError(
                "sampler produced a family outside the hypothesis",
                instance=family)
        if not checker.conclusion(family):
            counters.append((shard * SHARD_TRIALS + t,
                             Instance.from_family(family).to_dict()))
    return count, counters


def _pool_size(workers: int, shards: int) -> int:
    """Worker processes worth starting: no more than the CPUs or the shards."""
    return min(workers, os.cpu_count() or 1, shards)


def _run_random(conjecture: ConjectureId, params: dict, budget: int,
                seed: int, workers: int) -> tuple[int, list[dict]]:
    shards = [(conjecture.value, params, seed, s, c) for s, c in _shard_spans(budget)]
    size = _pool_size(workers, len(shards))
    if size > 1:
        with ProcessPoolExecutor(max_workers=size) as pool:
            results = list(pool.map(_run_shard, shards))
    else:
        results = [_run_shard(s) for s in shards]
    checked = sum(c for c, _ in results)
    ranked = sorted((item for _, items in results for item in items))
    return checked, [inst for _, inst in ranked]


# ---------------------------------------------------------------------------
# Degree-matrix conjecture

def check_matrix_conjecture(dm: DegreeMatrix) -> MatrixCheck:
    """Search the k! permutations through the first k columns for one whose
    sorted selected entries have every prefix sum above j(j-1); also record a
    witness for the weaker entrywise bound (1, 2, ..., k) and whether the
    row-sum hypothesis holds. Rows are expected non-increasing, as degree
    matrices of shifted families are."""
    k = dm.k
    if k > 10:
        raise InputError(f"permutation search is limited to k <= 10, got k={k}")
    if k > dm.n:
        raise InputError(f"needs k <= n, got k={k}, n={dm.n}")
    sums = sorted(dm.row_sums())
    hypothesis = all(sum(sums[:j]) > dm.n * j * (j - 1) for j in range(1, k + 1))
    strong = weak = None
    for perm in itertools.permutations(range(k)):
        sel = sorted(dm.entries[i][perm[i]] for i in range(k))
        if strong is None and all(sum(sel[:j]) > j * (j - 1) for j in range(1, k + 1)):
            strong = perm
        if weak is None and all(sel[j - 1] >= j for j in range(1, k + 1)):
            weak = perm
        if strong is not None and weak is not None:
            break
    return MatrixCheck(hypothesis, strong, weak)


# ---------------------------------------------------------------------------
# Empirical boundary scan for the prefix-block procedure

def scan_large_n(r: int, k: int, n_values, trials: int = 50,
                 seed: int = 0) -> dict[int, tuple[int, int]]:
    """Success counts of large_n_procedure on random threshold-exceeding
    families, per side size n. No theoretical cutoff is known to compare
    against; this records the empirical boundary only."""
    results: dict[int, tuple[int, int]] = {}
    for n in n_values:
        ground = GroundSet(PARTITE, r, n)
        bound = g_formula(n, r, k)
        if bound + 1 > ground.cell_count:
            raise InputError(f"no admissible member size at n={n}, r={r}, k={k}")
        rng = random.Random(f"{seed}:{r}:{k}:{n}")
        successes = 0
        for _ in range(trials):
            members = [_sample_member(rng, ground, rng.randint(bound + 1, ground.cell_count))
                       for _ in range(k)]
            family = Family(members)
            matching = large_n_procedure(family)
            if matching is not None:
                if not matching.is_valid_for(family):
                    raise TheoremViolationError("invalid matching from the "
                                                "prefix-block procedure",
                                                instance=family)
                successes += 1
        results[n] = (successes, trials)
    return results
