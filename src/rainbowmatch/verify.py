"""Exhaustive and randomized verification: enumeration of shifted (downward
closed) edge sets, exact thresholds, conjecture checkers, and counterexample
search. The exhaustive walk and its guards are the exhaustive module's, which
only exhaustive checks and thresholds off the closed forms execute."""
from __future__ import annotations

import functools
import itertools
import marshal
import math
import os
import random
import time
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

from .core import (GENERAL, MAX_LISTED_VERTICES, PARTITE, ConjectureId, Family, GroundSet,
                   Hypergraph, _dominates, _guard_index, _hall_violation, _Record,
                   capped_cells, estimate_text, f_r2, g_formula)
from .errors import InputError, TheoremViolationError
from .index import SHIFT_MASK_BITS, _closer, _mask, rainbow_positions
# bound, not executed: instances runs only when a counterexample is listed,
# exhaustive only by an exhaustive walk, oracles only past SHIFT_MASK_BITS
# cells, solvers only by scan_large_n
from . import exhaustive, instances, oracles, solvers

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
    return exhaustive._largest_shifted_below(ground, k)


def _exact_f(n: int, r: int, k: int) -> int:
    """Exact general-kind threshold at desk scale (closed form for r=2)."""
    if r == 2 and n >= 2 * k:
        return f_r2(n, k)
    return exhaustive._largest_shifted_below(GroundSet(GENERAL, r, n), k)


# ---------------------------------------------------------------------------
# Conjecture checkers

def _params_int(params: dict, key: str, default: int | None = None) -> int:
    v = params.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise InputError(f"parameter {key!r} must be a positive integer, got {v!r}")
    return v


class _Checker(_Record):
    """A conjecture at fixed parameters: its hypothesis on a family given as
    its members' masks over ground.index, its conclusion on their traces on
    the kernel, a builder of its sampler of hypothesis families, and what
    the exhaustive walk (floors, sums) may reduce to.

    The kernel is the cells whose vertices all lie below kernel_below
    (CellIndex.below), and the conclusion decides the members' traces on it
    (mask & kernel): in product order in exhaustive mode
    (exhaustive._run_exhaustive), sorted in random mode, which decides each
    multiset once per shard (_run_shard). So the verdict must not depend on
    member order, and a conclusion that the traces on a smaller kernel do
    not decide takes kernel_below = n, every cell: matrix, degree_condition
    and any other conclusion that reads whole members. A rainbow checker's
    kernel is the k-kernel, k partite and kr general, where its members are
    shifted and the kernel lemma makes the verdict on the traces that of the
    members (_rainbow_checker).

    Random mode builds the sampler and the kernel mask when it starts
    (_run_random), so making a checker, which exhaustive mode also does and
    may then refuse its ground, builds no cell index."""

    ground: GroundSet
    k: int
    hypothesis: Callable[[tuple[int, ...]], bool]
    conclusion: Callable[[tuple[int, ...]], bool]
    # builds the sampler, which is called with a generator's getrandbits
    sampler: Callable[[], Callable[[Callable[[int], int]], tuple[int, ...]]]
    kernel_below: int
    # the hypothesis as floors on the ascending member sizes, when the
    # conclusion also holds for every family of supersets: size j (from 0)
    # is at least floors[j], and sizes 0..j sum to at least sums[j].
    # Empty floors refuse exhaustive mode: no shifted reduction is known.
    floors: tuple[int, ...] = ()
    sums: tuple[int, ...] = ()


def _family(ground: GroundSet, masks: Iterable[int]) -> Family:
    """The members as a Family, for the oracle past SHIFT_MASK_BITS cells,
    an error or a listing."""
    return Family([Hypergraph._from_mask(ground, m) for m in masks])


def _rainbow_concl(ground: GroundSet) -> Callable[[tuple[int, ...]], bool]:
    """Whether the masks, a checker's kernel traces, have a rainbow
    matching: the exact search on the masks themselves up to
    SHIFT_MASK_BITS cells, with no Family built; past it, rainbow_exact on
    their Family, which numbers them from the set bits of their union and
    decodes no member, the split oracles._edge_masks makes."""
    if capped_cells(ground.kind, ground.r, ground.n) <= SHIFT_MASK_BITS:
        return lambda masks: rainbow_positions(ground, masks) is not None
    return lambda masks: oracles.rainbow_exact(_family(ground, masks)) is not None


def _below(getrandbits: Callable[[int], int], m: int) -> int:
    """A uniform int in [0, m), m >= 1, by the getrandbits calls that
    Random._randbelow makes: the draws and the generator state are those of
    the standard library's randrange(m), and a + _below(.., b - a + 1) those
    of randint(a, b)."""
    b = m.bit_length()
    r = getrandbits(b)
    while r >= m:
        r = getrandbits(b)
    return r


def _pool_from(u: int) -> int:
    """The least size at which Random.sample(range(u), size) takes its pool
    branch. It takes it iff u <= setsize, which is 21 plus, past size 5,
    4 ** ceil(log(3 * size, 4)), and never falls as size grows, so one
    comparison with this size picks the branch of every draw. Found by
    bisection on that same expression, floats and all; size u always
    takes the pool branch."""
    low, high = 0, u
    while low < high:
        size = (low + high) // 2
        if u <= 21 + (4 ** math.ceil(math.log(size * 3, 4)) if size > 5 else 0):
            high = size
        else:
            low = size + 1
    return low


def _mask_sampler(ground: GroundSet) -> Callable[[Callable[[int], int], int], int]:
    """A drawer of uniform members of a given size, called with a
    generator's getrandbits and the size: the mask of
    Random.sample(range(cell_count), size), by Random.sample's two branches
    and getrandbits calls, with each drawn position set in the mask rather
    than listed. The drawing constants are fixed here, once: the cell
    count, its bit width, the least size of the pool branch (_pool_from)
    and, on a ground of at most SHIFT_MASK_BITS cells, the pool branch's
    steps, (m - 1, m.bit_length()) for m = u, u - 1, ..., 1, and its pool of
    one-bit ints, one a cell. Past that bound each pool draw lists its
    positions and takes each step's bit length as it goes: one-bit ints
    would cost about u^2/16 bytes, and a step table about 90 bytes a cell.
    """
    ground.index  # refuses a ground too large to index before anything is drawn
    u = ground.cell_count
    width = u.bit_length()
    pool_from = _pool_from(u)
    small = u <= SHIFT_MASK_BITS
    steps = [(m - 1, m.bit_length()) for m in range(u, 0, -1)] if small else []
    one_bits = [1 << i for i in range(u)] if small else []

    # each position is _below's rejection loop, written out: this is the
    # innermost loop of random mode
    def sample(getrandbits: Callable[[int], int], size: int) -> int:
        if size >= pool_from:
            # a partial Fisher-Yates: pool[:last + 1] holds the cells not yet drawn
            mask = 0
            if small:
                pool = one_bits.copy()
                for last, b in itertools.islice(steps, size):
                    j = getrandbits(b)
                    while j > last:
                        j = getrandbits(b)
                    mask |= pool[j]
                    pool[j] = pool[last]
                return mask
            pool = list(range(u))
            for m in range(u, u - size, -1):
                b = m.bit_length()
                j = getrandbits(b)
                while j >= m:
                    j = getrandbits(b)
                mask |= 1 << pool[j]
                pool[j] = pool[m - 1]
            return mask
        seen: set[int] = set()
        for _ in range(size):
            j = getrandbits(width)
            while j >= u or j in seen:  # out of range, or drawn before: draw again
                j = getrandbits(width)
            seen.add(j)
        return _mask(seen, u)

    return sample


def _shifted_sampler(ground: GroundSet) -> Callable[[Callable[[int], int], Iterable[int]],
                                                    tuple[int, ...]]:
    """A drawer of families, called with a generator's getrandbits and the
    floors: for each floor f, a size drawn from [f, cell_count] as
    Random.randint draws it, then a uniform member of that size
    (_mask_sampler), closed as shifted_closure would close their family
    (index._closer). The closure draws nothing. The member drawer and
    the closure plan are fixed here, once."""
    u = ground.cell_count
    draw, close = _mask_sampler(ground), _closer(ground)
    return lambda getrandbits, floors: tuple(
        [close(draw(getrandbits, f + _below(getrandbits, u - f + 1))) for f in floors])


def _degree_capped_sampler(ground: GroundSet, d: int,
                           min_size: int) -> Callable[[Callable[[int], int]], int]:
    """A drawer of member masks of at least min_size edges and max degree at
    most d, called with a generator's getrandbits: a target size drawn from
    [min_size, n*min(d, n)], then the cell positions in shuffled order, each
    kept while both its vertices have degree below d; a new target and
    shuffle when the walk falls short. n*min(d, n) is the most edges such a
    member has, so a cap past n draws as the cap n. The random calls are
    those of Random.randint and Random.shuffle on a list of every cell. The
    refusal of parameters it cannot meet, the target's span and the
    shuffle's swaps are fixed here, once: the swaps as (b, the descending
    range of the i whose i + 1 has bit length b), one pair a bit length, so
    no bit length is taken per swap and the table stays small on every
    ground. On a ground of at most SHIFT_MASK_BITS cells each cell's
    (one-bit int, x, y) is fixed here too, and the walk reads it with no
    division. Past that bound a draw shuffles positions, divides each one
    into its vertices and sets its mask once: a one-bit int a cell would
    cost about u^2/16 bytes, 17 GB at n = 724."""
    n = ground.n
    if min_size > (most := n * min(d, n)):
        raise InputError(
            f"no bipartite graph with max degree {d} has more than {most} edges")
    u = ground.cell_count
    span = most - min_size + 1
    swaps = [(b, range(min(u - 1, (1 << b) - 2), (1 << b - 1) - 2, -1))
             for b in range(u.bit_length(), 1, -1)]
    small = u <= SHIFT_MASK_BITS
    # a partite r=2 position is x*n + y
    cells = [(1 << p, p // n, p % n) for p in range(u)] if small else []

    def sample(getrandbits: Callable[[int], int]) -> int:
        # shuffled in place, draw after draw
        positions = cells.copy() if small else list(range(u))
        for _ in range(200):
            target = min_size + _below(getrandbits, span)
            for b, run in swaps:
                for i in run:  # _below(getrandbits, i + 1), written out
                    j = getrandbits(b)
                    while j > i:
                        j = getrandbits(b)
                    positions[i], positions[j] = positions[j], positions[i]
            u_degrees, w_degrees = [0] * n, [0] * n
            if small:
                mask, left = 0, target
                for bit, x, y in positions:
                    if u_degrees[x] < d and w_degrees[y] < d:
                        mask |= bit
                        left -= 1
                        if not left:
                            return mask
                        u_degrees[x] += 1
                        w_degrees[y] += 1
                continue
            picked = []
            for p in positions:
                x = p // n
                y = p - x * n
                if u_degrees[x] < d and w_degrees[y] < d:
                    picked.append(p)
                    if len(picked) == target:
                        return _mask(picked, u)
                    u_degrees[x] += 1
                    w_degrees[y] += 1
        raise InputError("could not sample a degree-capped member at these parameters")

    return sample


def _rainbow_checker(ground: GroundSet, k: int, floor: Callable[[int], int]) -> _Checker:
    """The rainbow-matching checker for families of k members whose sorted
    sizes dominate the floors floor(0) <= ... <= floor(k-1). A ground too
    large to index (every mode needs it) and a top floor past the cell count
    are refused before any floor is listed, as k may be huge. A rainbow
    matching of a family is one of every family of supersets, so the
    checker is monotone. Its conclusion is the rainbow search on the
    members' traces on the k-kernel: the cells of [k]^r on a partite
    ground, the r-sets of the first kr vertices on a general one. Both
    drivers give it shifted members, closed by the sampler or walked as
    ideals, and for those it is the members' own verdict.

    Shifted members F_1..F_k have a rainbow matching iff their traces on
    the kernel do. Take a rainbow matching: on each side its k edges use k
    values (on a general ground, kr vertices). Map them in order onto
    0..k-1 (0..kr-1). No value goes up, so each image edge lies below its
    edge, and a shifted member holds it; the images are disjoint and in
    the kernel."""
    _guard_index(ground)
    if (top := floor(k - 1)) > ground.cell_count:
        raise InputError(f"hypothesis bound {top - 1} leaves no admissible size")
    floors = [floor(i) for i in range(k)]

    def sampler() -> Callable[[Callable[[int], int]], tuple[int, ...]]:
        draw = _shifted_sampler(ground)
        return lambda getrandbits: draw(getrandbits, floors)

    return _Checker(
        ground, k,
        hypothesis=lambda masks: _dominates(map(int.bit_count, masks), floors),
        conclusion=_rainbow_concl(ground), sampler=sampler,
        kernel_below=k if ground.kind == PARTITE else k * ground.r,
        floors=tuple(floors), sums=(0,) * k)


def _make_checker(conjecture: ConjectureId, params: dict) -> _Checker:
    n = _params_int(params, "n")
    k = _params_int(params, "k")
    r = _params_int(params, "r", 2)
    # a parameter the check would not read is refused, not echoed in its report
    if r != 2 and conjecture not in (ConjectureId.RAINBOW_GENERAL, ConjectureId.SIZE_CONDITION):
        raise InputError(f"{conjecture.value} checks bipartite families: needs r=2, got r={r}")
    if params.get("d") is not None and conjecture is not ConjectureId.DEGREE_CONDITION:
        raise InputError(f"{conjecture.value} takes no degree cap d, got d={params['d']!r}")

    if conjecture is ConjectureId.RAINBOW_GENERAL:
        if 2 * r > n:
            raise InputError(f"needs r <= n/2, got r={r}, n={n}")
        bound = _exact_f(n, r, k)
        return _rainbow_checker(GroundSet(GENERAL, r, n), k, lambda i: bound + 1)

    if conjecture is ConjectureId.SIZE_CONDITION:
        return _rainbow_checker(GroundSet(PARTITE, r, n), k, lambda i: g_formula(n, r, k) + 1)

    if conjecture is ConjectureId.SIMPLE:
        ground = GroundSet(PARTITE, 2, n)
        if k * n > ground.cell_count:
            raise InputError(f"hypothesis needs k*n <= n^2, got k={k}, n={n}")
        return _rainbow_checker(ground, k, lambda i: (i + 1) * n)

    if conjecture is ConjectureId.DEGREE_CONDITION:
        d = _params_int(params, "d")
        ground = GroundSet(PARTITE, 2, n)
        # every draw shuffles all n^2 cell positions, whatever d is
        if (listed := ground.cell_count * ground.r) > MAX_LISTED_VERTICES:
            raise InputError(f"degree-capped sampling refused: each draw would list "
                             f"{estimate_text(listed)} vertices, cells times r "
                             f"(limit {MAX_LISTED_VERTICES})")
        min_size = (k - 1) * d + 1
        degrees, within = None, d.__ge__

        def hyp(masks: tuple[int, ...]) -> bool:
            # each member's size, then its degrees vertex by vertex, up to
            # the first past d; the degree reader is built by the run's first
            # call, so making the checker builds no cell index
            nonlocal degrees
            degrees = degrees or ground.index.degrees(0, 1)
            return all(m.bit_count() >= min_size and all(map(within, degrees(m)))
                       for m in masks)

        def sampler() -> Callable[[Callable[[int], int]], tuple[int, ...]]:
            # no shifted reduction is known for a degree cap: sample raw members
            draw = _degree_capped_sampler(ground, d, min_size)
            return lambda getrandbits: tuple([draw(getrandbits) for _ in range(k)])

        return _Checker(ground, k, hyp, _rainbow_concl(ground), sampler, kernel_below=n)

    if conjecture is ConjectureId.MATRIX:
        ground = GroundSet(PARTITE, 2, n)
        if k > 10:
            raise InputError(f"permutation search is limited to k <= 10, got k={k}")
        if k > n:
            raise InputError(f"matrix permutations need k <= n, got k={k}, n={n}")
        _guard_index(ground)  # every mode needs it; refused before k sizes are drawn

        def hyp(masks: tuple[int, ...]) -> bool:
            return not _hall_violation(map(int.bit_count, masks), n)

        def concl(masks: tuple[int, ...]) -> bool:
            # row i: member i's degrees at w_1..w_k, read from its mask
            w_degrees = ground.index.degrees(1)
            rows = [list(itertools.islice(w_degrees(m), k)) for m in masks]
            return _first_permutation(rows, _strong_form) is not None

        def sampler() -> Callable[[Callable[[int], int]], tuple[int, ...]]:
            draw, u = _shifted_sampler(ground), ground.cell_count

            def sample(getrandbits: Callable[[int], int]) -> tuple[int, ...]:
                for _ in range(1000):
                    sizes = [1 + _below(getrandbits, u) for _ in range(k)]
                    if not _hall_violation(sizes, n):
                        return draw(getrandbits, sizes)
                raise InputError("could not sample sizes meeting the sum condition")

            return sample

        # Hall's condition on the ascending prefixes: the j smallest sizes
        # sum to more than n*j*(j-1)
        return _Checker(ground, k, hyp, concl, sampler, kernel_below=n, floors=(0,) * k,
                        sums=tuple(n * j * (j - 1) + 1 for j in range(1, k + 1)))

    raise InputError(f"unknown conjecture: {conjecture!r}")


def check_conjecture(conjecture: ConjectureId | str, params: dict,
                     mode: str = "random", budget: int = 1000,
                     seed: int = 0, workers: int = 1) -> VerifyReport:
    """Check a conjecture's predicate over its hypothesis-satisfying families.

    Exhaustive mode covers every family of shifted members meeting the
    hypothesis at the given parameters (sound for the conjectures that survive
    shifting; refused for the degree-capped one), deciding only its minimal
    families (exhaustive._run_exhaustive), in one process: more workers are
    refused.
    Random mode draws seeded hypothesis-satisfying samples, split over the
    workers. Counterexamples are embedded as instances.
    """
    conjecture = ConjectureId(conjecture)
    if workers < 1:
        raise InputError(f"workers must be at least 1, got {workers}")
    if mode == "exhaustive" and workers > 1:
        raise InputError(f"exhaustive mode runs in one process: workers must be 1, "
                         f"got {workers}")
    checker = _make_checker(conjecture, params)
    start = time.perf_counter()
    if mode == "random":
        if budget < 1:
            raise InputError(f"budget must be positive, got {budget}")
        checked, counters = _run_random(checker, budget, seed, workers)
    elif mode == "exhaustive":
        if not checker.floors:
            raise InputError(
                f"{conjecture.value}: no shifted reduction is available, "
                "exhaustive mode is refused; use random mode")
        checked, counters = exhaustive._run_exhaustive(checker)
        seed = None  # nothing is drawn
    else:
        raise InputError(f"unknown mode: {mode!r}")
    return VerifyReport(conjecture.value, dict(params), mode, checked,
                        tuple(counters), time.perf_counter() - start, seed)


def _run_shard(args: tuple) -> tuple[int, list[dict]]:
    """One shard, args (checker, sample, kernel, seed, shard, count): count
    trials from a generator seeded by the run's seed and the shard's
    number. Each family is drawn by sample, the checker's built sampler,
    and checked against the hypothesis, and each one failing the
    conclusion is listed in full.

    The conclusion decides the sorted tuple of the members' traces on the
    kernel mask (_Checker), through a cache of its verdicts on that tuple,
    so each multiset of traces is decided once per shard. The cache lives
    in this call, so it holds at most count verdicts, each keyed by masks
    no larger than the family's."""
    checker, sample, kernel, seed, shard, count = args
    getrandbits = random.Random(f"{seed}:{shard}").getrandbits
    ground = checker.ground
    decide = functools.cache(checker.conclusion)
    counters: list[dict] = []
    for _ in range(count):
        masks = sample(getrandbits)
        if not checker.hypothesis(masks):
            raise TheoremViolationError(
                "sampler produced a family outside the hypothesis",
                instance=_family(ground, masks))
        if not decide(tuple(sorted(map(kernel.__and__, masks)))):
            counters.append(instances.Instance.from_family(_family(ground, masks)).to_dict())
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

    The run's sampler and kernel mask are built first, once: with them the
    ground's index and closure plan, and a sampler that refuses its
    parameters refuses here. Before a pool of more than one forks, the
    run's first trial also runs once and its result is dropped: it executes
    the modules a trial needs and builds the oracle's tables, and a draw
    that fails fails there, with the error one worker raises. The children
    inherit all of it rather than each building its own."""
    sample = checker.sampler()
    kernel = checker.ground.index.below(checker.kernel_below)
    count = -(-budget // SHARD_TRIALS)
    shards = ((checker, sample, kernel, seed, s, min(SHARD_TRIALS, budget - s * SHARD_TRIALS))
              for s in range(count))
    size = _pool_size(workers, count)
    if size > 1:
        _run_shard((checker, sample, kernel, seed, 0, 1))
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
    return MatrixCheck(not _hall_violation(dm.row_sums(), dm.n),
                       _first_permutation(dm.entries, _strong_form),
                       _first_permutation(dm.entries,
                                          lambda sel: _dominates(sel, range(1, k + 1))))


def _strong_form(selected: list[int]) -> bool:
    """True iff the sorted entries have every prefix sum above j(j-1)."""
    return not _hall_violation(selected, 1)


def _first_permutation(rows: Sequence[Sequence[int]],
                       holds: Callable[[list[int]], bool]) -> tuple[int, ...] | None:
    """The first permutation of range(k), k the number of rows, in
    itertools order, whose selected entries (row i's at column
    permutation[i]) hold: a search through the first k columns. None if no
    permutation does."""
    k = len(rows)
    return next((perm for perm in itertools.permutations(range(k))
                 if holds([rows[i][perm[i]] for i in range(k)])), None)


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
        draw, getrandbits = _mask_sampler(ground), rng.getrandbits
        successes = 0
        for _ in range(trials):
            family = _family(ground, [draw(
                getrandbits, bound + 1 + _below(getrandbits, ground.cell_count - bound))
                for _ in range(k)])
            matching = solvers.large_n_procedure(family)
            if matching is not None:
                if not matching.is_valid_for(family):
                    raise TheoremViolationError("invalid matching from the "
                                                "prefix-block procedure",
                                                instance=family)
                successes += 1
        results[n] = (successes, trials)
    return results
