"""The front of the verify checks: the conjecture checkers, each a
hypothesis, a conclusion and a sampler builder at fixed parameters
(_make_checker), the one entry that runs a checker in either mode
(check_conjecture) and its report, and the degree-matrix check.

The drivers are modules of their own, each executed only by the mode that
runs it: exhaustive holds the walk over shifted edge sets and the exact
thresholds, sampling the samplers, the shards and the fork pool. The names
that moved there are still read on this module (__getattr__)."""
from __future__ import annotations

import itertools
import time
from typing import Callable, Iterable, Sequence

from .core import (GENERAL, MAX_LISTED_VERTICES, PARTITE, ConjectureId, Family, GroundSet,
                   Hypergraph, _dominates, _guard_index, _hall_violation, _Record,
                   capped_cells, estimate_text, f_r2, g_formula)
from .errors import InputError
from .index import SHIFT_MASK_BITS, rainbow_positions
# bound, not executed: exhaustive runs only by an exhaustive walk or a
# threshold off f_r2's closed form, sampling only in random mode, oracles only
# past SHIFT_MASK_BITS cells; solvers names the matrix check's input
from . import exhaustive, oracles, sampling, solvers

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
# Conjecture checkers

def _params_int(params: dict, key: str, default: int | None = None) -> int:
    v = params.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise InputError(f"parameter {key!r} must be a positive integer, got {v!r}")
    return v


def _exact_f(n: int, r: int, k: int) -> int:
    """Exact general-kind threshold at desk scale (closed form for r=2)."""
    if r == 2 and n >= 2 * k:
        return f_r2(n, k)
    return exhaustive._largest_shifted_below(GroundSet(GENERAL, r, n), k)


class _Checker(_Record):
    """A conjecture at fixed parameters: its hypothesis on a family given as
    its members' masks over ground.index, its conclusion on their traces on
    the kernel, a builder of its sampler of hypothesis families, and what
    the exhaustive walk (floors, sums) may reduce to.

    The kernel is the cells whose vertices all lie below kernel_below
    (CellIndex.below), and the conclusion decides the members' traces on it
    (mask & kernel): in product order in exhaustive mode
    (exhaustive._run_exhaustive), sorted in random mode, which decides each
    multiset once per shard (sampling._run_shard). So the verdict must not
    depend on member order, and a conclusion that the traces on a smaller
    kernel do not decide takes kernel_below = n, every cell: matrix,
    degree_condition and any other conclusion that reads whole members. A
    rainbow checker's kernel is the k-kernel, k partite and kr general, where
    its members are shifted and the kernel lemma makes the verdict on the
    traces that of the members (_rainbow_checker).

    Random mode builds the sampler and the kernel mask when it starts
    (sampling._run_random), so making a checker, which exhaustive mode also
    does and may then refuse its ground, builds no cell index."""

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
        draw = sampling._shifted_sampler(ground)
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
            draw = sampling._degree_capped_sampler(ground, d, min_size)
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
            draw, u = sampling._shifted_sampler(ground), ground.cell_count

            def sample(getrandbits: Callable[[int], int]) -> tuple[int, ...]:
                for _ in range(1000):
                    sizes = [1 + sampling._below(getrandbits, u) for _ in range(k)]
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
        checked, counters = sampling._run_random(checker, budget, seed, workers)
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


def __getattr__(name: str):
    """The walk and the thresholds, read from exhaustive, and scan_large_n,
    read from sampling, for callers that name them on verify, as README does
    and perfbench/traced_cli.py does for _ideal_dfs and
    compute_threshold_exact; every other name verify lacks is an
    AttributeError. Read here, not bound, so that verify runs without
    executing either driver."""
    if name in ("_ideal_dfs", "compute_threshold_exact", "enumerate_shifted", "iter_shifted"):
        return getattr(exhaustive, name)
    if name == "scan_large_n":
        return sampling.scan_large_n
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
