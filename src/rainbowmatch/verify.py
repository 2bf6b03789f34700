"""Exhaustive and randomized verification: enumeration of shifted (downward
closed) edge sets, exact thresholds, conjecture checkers, and counterexample
search."""
from __future__ import annotations

import itertools
import marshal
import math
import os
import random
import time
from bisect import bisect_right
from collections import Counter
from typing import Callable, Iterable, Iterator, NoReturn

from .core import (GENERAL, MAX_INDEX_BITS, PARTITE, ConjectureId, Family, GroundSet,
                   Hypergraph, _dominates, _guard_index, _mask, _Record, capped_cells,
                   estimate_text, nu_exact, rainbow_exact)
from .errors import InputError, TheoremViolationError
from . import extremal, shifting, solvers
from .extremal import f_r2, g_formula
from .instances import Instance

# Explicit scale guardrails: exhaustive claims refuse anything beyond these.
# 36 cells admits r=2 n=6 and r=3 n=3, whose shifted edge sets are walked in
# well under a second, while the family-count guard bounds the work on them.
MAX_EXHAUSTIVE_CELLS = 36
MAX_EXHAUSTIVE_INSTANCES = 2_000_000
SHARD_TRIALS = 256  # random-mode work unit; fixes report contents per seed


class VerifyReport(_Record):
    """Outcome of a verification run; counterexamples carry full instances.
    Its run time is left out of ==."""

    _uncompared = ("elapsed",)
    conjecture: str
    params: dict
    mode: str
    instances_checked: int
    counterexamples: tuple[dict, ...]
    elapsed: float = 0.0
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


class MatrixCheck(_Record):
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


def _guard_cells(ground: GroundSet, limit: int) -> None:
    cells = capped_cells(ground.kind, ground.r, ground.n)
    if cells > limit:
        exact = cells <= MAX_INDEX_BITS  # else cells is a lower bound
        text = estimate_text(cells)
        raise InputError(f"exhaustive enumeration refused: universe has "
                         f"{'' if exact else 'at least '}{text} cells (limit {limit}); "
                         f"{'up to' if exact else 'at least'} 2^{text} candidate edge sets")


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
    _guard_cells(ground, MAX_EXHAUSTIVE_CELLS)
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


class _Checker(_Record):
    ground: GroundSet
    k: int
    hypothesis: Callable[[Family], bool]
    conclusion: Callable[[Family], bool]
    sample: Callable[[random.Random], Family]
    exhaustive_allowed: bool = True
    # sorted sizes whose dominance by the sorted member sizes is the
    # hypothesis, when the conclusion also holds for every family of
    # supersets; empty when the checker is not monotone
    floors: tuple[int, ...] = ()


def _rainbow_concl(family: Family) -> bool:
    return rainbow_exact(family) is not None


def _matrix_concl(family: Family) -> bool:
    return check_matrix_conjecture(solvers.DegreeMatrix.from_family(family)).ok


def _sample_mask(rng: random.Random, ground: GroundSet, size: int) -> int:
    """The mask of a uniform member of the given size, drawn as cell
    positions: the same random calls and positions as sampling from
    ground.index.cells."""
    ground.index  # refuses a ground too large to index before anything is drawn
    u = ground.cell_count
    return _mask(rng.sample(range(u), size), u)


def _sample_shifted_family(rng: random.Random, ground: GroundSet,
                           floors: list[int]) -> Family:
    """Uniform members of sizes drawn from [floor, cell_count], each closed
    as shifted_closure would close their family."""
    u = ground.cell_count
    drawn = [_sample_mask(rng, ground, rng.randint(f, u)) for f in floors]
    return Family([Hypergraph._from_mask(ground, shifting._closed_mask(ground, m))
                   for m in drawn])


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


def _rainbow_checker(ground: GroundSet, k: int, floor: Callable[[int], int]) -> _Checker:
    """The rainbow-matching checker for families of k members whose sorted
    sizes dominate the floors floor(0) <= ... <= floor(k-1). A ground too
    large to index (every mode needs it) and a top floor past the cell count
    are refused before any floor is listed, as k may be huge. A rainbow
    matching of a family is one of every family of supersets, so the
    checker is monotone."""
    _guard_index(ground)
    if (top := floor(k - 1)) > ground.cell_count:
        raise InputError(f"hypothesis bound {top - 1} leaves no admissible size")
    floors = [floor(i) for i in range(k)]
    return _Checker(
        ground, k,
        hypothesis=lambda fam: _dominates(fam.sizes(), floors),
        conclusion=_rainbow_concl,
        sample=lambda rng: _sample_shifted_family(rng, ground, floors),
        floors=tuple(floors))


def _make_checker(conjecture: ConjectureId, params: dict) -> _Checker:
    n = _params_int(params, "n")
    k = _params_int(params, "k")

    if conjecture is ConjectureId.RAINBOW_GENERAL:
        r = _params_int(params, "r", 2)
        if 2 * r > n:
            raise InputError(f"needs r <= n/2, got r={r}, n={n}")
        bound = _exact_f(n, r, k)
        return _rainbow_checker(GroundSet(GENERAL, r, n), k, lambda i: bound + 1)

    if conjecture is ConjectureId.SIZE_CONDITION:
        r = _params_int(params, "r", 2)
        return _rainbow_checker(GroundSet(PARTITE, r, n), k, lambda i: g_formula(n, r, k) + 1)

    if conjecture is ConjectureId.SIMPLE:
        ground = GroundSet(PARTITE, 2, n)
        if k * n > ground.cell_count:
            raise InputError(f"hypothesis needs k*n <= n^2, got k={k}, n={n}")
        return _rainbow_checker(ground, k, lambda i: (i + 1) * n)

    if conjecture is ConjectureId.DEGREE_CONDITION:
        d = _params_int(params, "d")
        ground = GroundSet(PARTITE, 2, n)
        # every draw copies and shuffles the whole cell tuple, whatever d is
        if (listed := ground.cell_count * ground.r) > extremal.MAX_LISTED_VERTICES:
            raise InputError(f"degree-capped sampling refused: each draw would list "
                             f"{estimate_text(listed)} vertices, cells times r "
                             f"(limit {extremal.MAX_LISTED_VERTICES})")
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

        return _Checker(ground, k, hyp, _rainbow_concl, sample,
                        exhaustive_allowed=False)

    if conjecture is ConjectureId.MATRIX:
        ground = GroundSet(PARTITE, 2, n)
        if k > n:
            raise InputError(f"matrix permutations need k <= n, got k={k}, n={n}")
        _guard_index(ground)  # every mode needs it; refused before k sizes are drawn

        def hyp(fam: Family) -> bool:
            return bool(solvers.check_hall_condition(fam))

        def sample(rng: random.Random) -> Family:
            u = ground.cell_count
            for _ in range(1000):
                sizes = [rng.randint(1, u) for _ in range(k)]
                if not solvers._hall_violation(sizes, n):
                    return _sample_shifted_family(rng, ground, sizes)
            raise InputError("could not sample sizes meeting the sum condition")

        return _Checker(ground, k, hyp, _matrix_concl, sample)

    raise InputError(f"unknown conjecture: {conjecture!r}")


def check_conjecture(conjecture: ConjectureId | str, params: dict,
                     mode: str = "random", budget: int = 1000,
                     seed: int = 0, workers: int = 1) -> VerifyReport:
    """Check a conjecture's predicate over its hypothesis-satisfying families.

    Exhaustive mode covers every family of shifted members meeting the
    hypothesis at the given parameters (sound for the conjectures that survive
    shifting; refused for the degree-capped one), checking only the minimal
    families where the conjecture is monotone. Random mode draws seeded
    hypothesis-satisfying samples. Counterexamples are embedded as instances.
    """
    conjecture = ConjectureId(conjecture)
    if workers < 1:
        raise InputError(f"workers must be at least 1, got {workers}")
    checker = _make_checker(conjecture, params)
    start = time.perf_counter()
    if mode == "random":
        if budget < 1:
            raise InputError(f"budget must be positive, got {budget}")
        checked, counters = _run_random(checker, budget, seed, workers)
    elif mode == "exhaustive":
        if not checker.exhaustive_allowed:
            raise InputError(
                f"{conjecture.value}: no shifted reduction is available, "
                "exhaustive mode is refused; use random mode")
        checked, counters = (_run_exhaustive if checker.floors else _run_ordered)(checker)
        seed = None  # nothing is drawn
    else:
        raise InputError(f"unknown mode: {mode!r}")
    return VerifyReport(conjecture.value, dict(params), mode, checked,
                        tuple(counters), time.perf_counter() - start, seed)


def _run_exhaustive(checker: _Checker) -> tuple[int, list[dict]]:
    """The ordered hypothesis families of shifted members covered, and the
    failing minimal families in product order.

    A monotone checker needs only its minimal families. A shifted member
    contains a shifted member of every smaller size (keep deleting a maximal
    cell), a family that passes makes every family of supersets pass, and
    the verdict ignores member order. So every ordered family passes iff
    every multiset of shifted members whose sizes are exactly the floors
    does. The failing multisets are the complete counterexample list, at
    most the MAX_EXHAUSTIVE_INSTANCES the family guard admits; one outside
    the hypothesis is a fault and raises TheoremViolationError.
    """
    ground = checker.ground
    _guard_cells(ground, MAX_EXHAUSTIVE_CELLS)
    levels = Counter(checker.floors)  # member size -> members of that size
    minimal: dict[int, list[Hypergraph]] = {size: [] for size in levels}
    histogram: Counter[int] = Counter()
    for mask in _ideal_dfs(ground):
        size = mask.bit_count()
        histogram[size] += 1
        if size in minimal:
            minimal[size].append(Hypergraph._from_mask(ground, mask))
    count = math.prod(math.comb(len(minimal[size]) + m - 1, m)
                      for size, m in levels.items())
    if count > MAX_EXHAUSTIVE_INSTANCES:
        raise InputError(
            f"exhaustive enumeration refused: about {count} minimal "
            f"families (limit {MAX_EXHAUSTIVE_INSTANCES})")
    counters: list[dict] = []
    for parts in itertools.product(*(
            itertools.combinations_with_replacement(minimal[size], m)
            for size, m in levels.items())):
        family = Family([h for part in parts for h in part])
        if not checker.hypothesis(family):
            raise TheoremViolationError("minimal family outside the hypothesis",
                                        instance=family)
        if not checker.conclusion(family):
            counters.append(Instance.from_family(family).to_dict())
    return _covered(checker.floors, histogram), counters


def _covered(floors: tuple[int, ...], histogram: Counter[int]) -> int:
    """Ordered families of members, drawn from a size histogram, whose sorted
    sizes dominate the ascending floors. A member's class is the number of
    floors at or below its size, and a family qualifies iff its i-th
    smallest class is at least i."""
    k = len(floors)
    weight = [0] * (k + 1)
    for size, members in histogram.items():
        weight[bisect_right(floors, size)] += members
    total = 0
    for classes in itertools.combinations_with_replacement(range(1, k + 1), k):
        if all(c >= i for i, c in enumerate(classes, 1)):
            orders = math.factorial(k)
            for c, m in Counter(classes).items():
                orders = orders // math.factorial(m) * weight[c] ** m
            total += orders
    return total


def _run_ordered(checker: _Checker) -> tuple[int, list[dict]]:
    """Every ordered k-tuple of shifted members no smaller than the least
    floor, non-empty without floors: the walk for a non-monotone checker.

    A verdict ignores member order, so each multiset of members is decided
    once and counts as many families as it has orders. The failing families
    are every order of every failing multiset, listed in product order."""
    _guard_cells(checker.ground, MAX_EXHAUSTIVE_CELLS)
    least = min(checker.floors, default=1)
    candidates = [h for h in iter_shifted(checker.ground) if len(h) >= least]
    estimate = len(candidates) ** checker.k
    if estimate > MAX_EXHAUSTIVE_INSTANCES:
        raise InputError(
            f"exhaustive enumeration refused: about {estimate} candidate "
            f"families (limit {MAX_EXHAUSTIVE_INSTANCES})")
    checked = 0
    failing: set[tuple[int, ...]] = set()
    for picks in itertools.combinations_with_replacement(range(len(candidates)), checker.k):
        family = Family([candidates[i] for i in picks])
        if not checker.hypothesis(family):
            continue
        checked += math.factorial(checker.k) // math.prod(
            math.factorial(m) for m in Counter(picks).values())
        if not checker.conclusion(family):
            failing.update(itertools.permutations(picks))
    counters = [Instance.from_family(Family([candidates[i] for i in order])).to_dict()
                for order in sorted(failing)]
    return checked, counters


def _run_shard(args: tuple) -> tuple[int, list[dict]]:
    checker, seed, shard, count = args
    rng = random.Random(f"{seed}:{shard}")
    counters: list[dict] = []
    for _ in range(count):
        family = checker.sample(rng)
        if not checker.hypothesis(family):
            raise TheoremViolationError(
                "sampler produced a family outside the hypothesis",
                instance=family)
        if not checker.conclusion(family):
            counters.append(Instance.from_family(family).to_dict())
    return count, counters


def _pool_size(workers: int, shards: int) -> int:
    """Workers worth running, the calling process counted as one: no more
    than the CPUs this process may run on or the shards, and one, which
    forks nothing, where os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    return min(workers, cpus or 1, shards)


def _pooled(size: int, shards: Iterator[tuple]) -> Iterator[tuple[int, list[dict]]]:
    """_run_shard's results over size workers, in shard order: the calling
    process and size - 1 forked children.

    Child i runs shards i, i + size, ... of its own copy of the lazy shard
    generator, forked before the caller draws its first shard, and writes
    each result to a pipe of its own (_serve); a full pipe stalls it, so the
    pipes bound the results in flight. The caller walks every shard in
    order: shard s is worker s % size's, and the caller reads a child's
    shard from its pipe and runs every other shard itself. A child that
    stops, at a shard that raised or because it died, and a worker that
    could not be forked, leave their shards to the caller. A shard is
    seeded by its number, so one that raised in a child raises again in the
    caller, at its shard: the error one worker gives. A pool of one forks
    nothing. Every child is reaped on the way out; after a failure or an
    early close, each is sent SIGTERM first.
    """
    pids: list[int] = []
    pipes: dict = {}  # worker -> read end, while its child serves
    done = False
    try:
        for i in range(1, size):
            read, write = os.pipe()
            pipes[i] = open(read, "rb")
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(itertools.islice(shards, i, None, size), pipes.values(), write)
                pids.append(pid)
            except OSError:  # no process to spare: the caller runs worker i
                pipes.pop(i).close()
            finally:
                os.close(write)
        for s, shard in enumerate(shards):
            result = None
            if s % size in pipes:
                try:
                    result = marshal.load(pipes[s % size])
                except (EOFError, ValueError):  # the child stopped
                    pipes.pop(s % size).close()
            yield _run_shard(shard) if result is None else result
        done = True
    finally:
        for pipe in pipes.values():
            pipe.close()
        if not done:
            import signal
            for pid in pids:
                os.kill(pid, signal.SIGTERM)
        for pid in pids:
            os.waitpid(pid, 0)


def _serve(shards: Iterator[tuple], pipes: Iterable, write: int) -> NoReturn:
    """A forked child's whole life: each shard's result, by marshal, to the
    write end. A shard that raises ends it with nothing more written, and
    the caller runs that shard itself. It leaves through os._exit, so it
    never flushes the parent's stdio buffers or runs the parent's exit
    handlers."""
    try:
        for pipe in pipes:  # read ends held here would keep a dead parent's pipes open
            pipe.close()
        with open(write, "wb") as out:
            for shard in shards:
                marshal.dump(_run_shard(shard), out)
                out.flush()
    finally:
        os._exit(0)


def _run_random(checker: _Checker, budget: int, seed: int,
                workers: int) -> tuple[int, list[dict]]:
    """Trials checked and counterexamples in trial order. Shards are made one
    at a time, so a huge budget costs no memory before its first trial, and
    folded in shard order by one loop at every pool size (_pooled), so the
    report does not depend on workers.

    Before a pool of more than one forks, the run's first trial runs once
    and its result is dropped. It executes the modules a trial needs and
    builds the ground's index and closure plan, which the children then
    inherit with the checker rather than each building its own; and a
    sampler that fails fails there, with the error one worker raises,
    before any fork."""
    count = -(-budget // SHARD_TRIALS)
    shards = ((checker, seed, s, min(SHARD_TRIALS, budget - s * SHARD_TRIALS))
              for s in range(count))
    size = _pool_size(workers, count)
    if size > 1:
        _run_shard((checker, seed, 0, 1))
    checked = 0
    counters: list[dict] = []
    for trials, found in _pooled(size, shards):
        checked += trials
        counters.extend(found)
    return checked, counters


# ---------------------------------------------------------------------------
# Degree-matrix conjecture

def check_matrix_conjecture(dm: solvers.DegreeMatrix) -> MatrixCheck:
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
    hypothesis = not solvers._hall_violation(dm.row_sums(), dm.n)
    strong = weak = None
    for perm in itertools.permutations(range(k)):
        sel = [dm.entries[i][perm[i]] for i in range(k)]
        if strong is None and not solvers._hall_violation(sel, 1):
            strong = perm
        if weak is None and _dominates(sel, range(1, k + 1)):
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
            family = Family([Hypergraph._from_mask(ground, _sample_mask(
                rng, ground, rng.randint(bound + 1, ground.cell_count))) for _ in range(k)])
            matching = solvers.large_n_procedure(family)
            if matching is not None:
                if not matching.is_valid_for(family):
                    raise TheoremViolationError("invalid matching from the "
                                                "prefix-block procedure",
                                                instance=family)
                successes += 1
        results[n] = (successes, trials)
    return results
