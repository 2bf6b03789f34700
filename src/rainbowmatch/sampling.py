"""The random driver of the verify checks: the samplers that draw a
checker's hypothesis families, the seeded shards of SHARD_TRIALS trials
(_run_shard) and the fork pool that runs them in shard order (_run_random),
and the empirical scan of the prefix-block procedure (scan_large_n).

verify reaches this module through its attribute, and this module reads
verify's _family, which builds a family to list or to raise with, the same
way; exhaustive checks and thresholds never execute it."""
from __future__ import annotations

import functools
import itertools
import marshal
import math
import os
import random
from typing import Callable, Iterable, Iterator, NoReturn

from .core import PARTITE, GroundSet, g_formula
from .errors import InputError, TheoremViolationError
from .index import SHIFT_MASK_BITS, _closer, _mask
# bound, not executed: instances runs only when a counterexample is listed,
# solvers only by scan_large_n
from . import instances, solvers, verify

SHARD_TRIALS = 256  # random-mode work unit; fixes report contents per seed


# ---------------------------------------------------------------------------
# Samplers

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


# ---------------------------------------------------------------------------
# Shards and the fork pool

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
                instance=verify._family(ground, masks))
        if not decide(tuple(sorted(map(kernel.__and__, masks)))):
            counters.append(
                instances.Instance.from_family(verify._family(ground, masks)).to_dict())
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


def _run_random(checker: verify._Checker, budget: int, seed: int,
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
            family = verify._family(ground, [draw(
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
