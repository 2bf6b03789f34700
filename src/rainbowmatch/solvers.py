"""Constructive rainbow-matching solvers: the Hall-type size check, the
longest-edge algorithm with a full step trace, the greedy bipartite solver,
the shifted-pair construction on K_n, the 3-partite link reduction, the
degree-matrix permutation solver, and the prefix-block procedure."""
from __future__ import annotations

import itertools
import math
from collections import Counter
from operator import itemgetter

from .core import (GENERAL, PARTITE, Edge, Family, GroundSet, Hypergraph,
                   RainbowMatching, _dominates, _hall_violation, _Record, f_r2, g_formula)
from .errors import InputError, PreconditionError, TheoremViolationError
from . import shifting


def _require_kind(family: Family, kind: str, r: int | None = None) -> None:
    if family.ground.kind != kind:
        raise InputError(f"needs a {kind} ground, got {family.ground.kind}")
    if r is not None and family.ground.r != r:
        raise InputError(f"needs uniformity r={r}, got r={family.ground.r}")


def _require_sizes_above(family: Family, bound: int) -> None:
    for i, h in enumerate(family.members):
        if len(h) <= bound:
            raise PreconditionError(
                f"member {i + 1} has {len(h)} edges; needs more than {bound}")


class HallCheck(_Record):
    """Result of the Hall-type size condition; falsy when violated."""

    ok: bool
    witness: tuple[int, ...] | None = None  # violating member indices (0-based)
    total: int | None = None                # their size sum
    bound: int | None = None                # the bound n * |I| * (|I| - 1)

    def __bool__(self) -> bool:
        return self.ok


def check_hall_condition(family: Family) -> HallCheck:
    """True iff sum of |F_i| over I strictly exceeds n|I|(|I|-1) for every
    nonempty I. Only the ascending-size prefixes need checking: for fixed |I|
    the minimum sum is attained by the smallest members."""
    _require_kind(family, PARTITE, r=2)
    n = family.ground.n
    j = _hall_violation(family.sizes(), n)
    if not j:
        return HallCheck(True)
    prefix = family.by_size()[:j]
    return HallCheck(False, tuple(sorted(prefix)), sum(len(family[i]) for i in prefix),
                     n * j * (j - 1))


class StepRecord(_Record):
    """State and choice of one step of the longest-edge algorithm.

    a and b are the least uncovered indices on sides M and W (0-based); the
    initial-segment set R_t is {m_i : i < a} + {w_j : j < b}. A halt step
    carries edge=None. The short flag classifies the chosen edge against the
    final initial-segment set of the whole run.
    """

    t: int
    member: int
    a: int
    b: int
    covered_m: tuple[int, ...]
    covered_w: tuple[int, ...]
    edge: Edge | None
    length: int | None = None
    tail_side: int | None = None  # 0: tail is m_a, 1: tail is w_b
    short: bool | None = None

    @property
    def r_m(self) -> tuple[int, ...]:
        return tuple(range(self.a))

    @property
    def r_w(self) -> tuple[int, ...]:
        return tuple(range(self.b))


class AlgoTrace(_Record):
    """Full record of a longest-edge run: per-step states, the outcome, and
    the processing order (original member indices, ascending by size)."""

    ground: GroundSet
    order: tuple[int, ...]
    steps: tuple[StepRecord, ...]
    matching: RainbowMatching | None  # in original member order when successful
    halt_t: int | None
    final_a: int
    final_b: int

    @property
    def succeeded(self) -> bool:
        return self.matching is not None

    def to_text(self) -> str:
        """Line-oriented rendering with 1-based m_i / w_j labels."""
        lines = []
        for rec in self.steps:
            lines.append(f"R_{rec.t} = " + _label_set(rec.r_m, rec.r_w))
            if rec.edge is None:
                lines.append(f"HALT at t={rec.t}")
            else:
                lines.append(f"e_{rec.t} = m_{rec.edge[0] + 1} w_{rec.edge[1] + 1}")
        if self.succeeded:
            lines.append("SUCCESS")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        steps = []
        for rec in self.steps:
            entry: dict = {
                "t": rec.t,
                "member": rec.member + 1,
                "a": rec.a + 1,
                "b": rec.b + 1,
                "R": {"m": [i + 1 for i in rec.r_m], "w": [j + 1 for j in rec.r_w]},
                "Z": {"m": [i + 1 for i in rec.covered_m],
                      "w": [j + 1 for j in rec.covered_w]},
                "edge": None,
            }
            if rec.edge is not None:
                entry["edge"] = [rec.edge[0] + 1, rec.edge[1] + 1]
                entry["length"] = rec.length
                if rec.tail_side == 0:
                    entry["tail"] = f"m_{rec.a + 1}"
                    entry["head"] = f"w_{rec.edge[1] + 1}"
                else:
                    entry["tail"] = f"w_{rec.b + 1}"
                    entry["head"] = f"m_{rec.edge[0] + 1}"
                entry["short"] = rec.short
            steps.append(entry)
        if self.succeeded:
            outcome: dict = {
                "status": "success",
                "matching": [[e[0] + 1, e[1] + 1] for e in self.matching.choices],
            }
        else:
            outcome = {"status": "halt", "t": self.halt_t}
        return {
            "schema_version": 1,
            "kind": "hall_trace",
            "n": self.ground.n,
            "order": [i + 1 for i in self.order],
            "steps": steps,
            "outcome": outcome,
            "final_R": {"m": list(range(1, self.final_a + 1)),
                        "w": list(range(1, self.final_b + 1))},
        }


def _label_set(m_indices, w_indices) -> str:
    labels = [f"m_{i + 1}" for i in m_indices] + [f"w_{j + 1}" for j in w_indices]
    return "{" + ", ".join(labels) + "}"


def hall_size_algorithm(family: Family) -> AlgoTrace:
    """Run the longest-edge algorithm on a shifted bipartite family.

    Members are processed in ascending size order. At step t the edges meeting
    previously chosen vertices are discarded and a longest remaining edge is
    taken, length being |(q - b_t) - (p - a_t)| for an edge (m_p, w_q). Among
    longest edges the one through w_{b_t} is preferred, then the
    lexicographically least. Halts at step t if no edge remains.
    """
    _require_kind(family, PARTITE, r=2)
    for i, h in enumerate(family.members):
        if not shifting.is_shifted(h):
            raise PreconditionError(f"member {i + 1} is not shifted; "
                                    "run shifted_closure first")
    k = family.k
    order = family.by_size()
    covered_m: set[int] = set()
    covered_w: set[int] = set()
    raw: list[dict] = []
    halt_t = None
    for t, idx in enumerate(order, start=1):
        a, b = _first_free(covered_m), _first_free(covered_w)
        state = {"t": t, "member": idx, "a": a, "b": b,
                 "covered_m": tuple(sorted(covered_m)),
                 "covered_w": tuple(sorted(covered_w))}
        cand = [e for e in family[idx].edges
                if e[0] not in covered_m and e[1] not in covered_w]
        if not cand:
            halt_t = t
            raw.append(state | {"edge": None})
            break
        length = lambda e: abs((e[1] - b) - (e[0] - a))
        # longest, then through w_b, then lexicographically least
        e = min(cand, key=lambda e: (-length(e), e[1] != b, e))
        if e[0] != a and e[1] != b:
            raise TheoremViolationError(
                "a longest edge avoids both first uncovered vertices although "
                "the member is shifted", instance=family)
        raw.append(state | {"edge": e, "length": length(e),
                            "tail_side": 0 if e[0] == a else 1})
        covered_m.add(e[0])
        covered_w.add(e[1])

    # a halted run covers nothing after its last recorded state
    final_a, final_b = _first_free(covered_m), _first_free(covered_w)
    steps = [StepRecord(**state, short=None if state["edge"] is None else
                        state["edge"][0] < final_a and state["edge"][1] < final_b)
             for state in raw]
    _assert_tail_observation(steps, family)

    matching = None
    if halt_t is None:
        choices: list[Edge | None] = [None] * k
        for rec in steps:
            choices[rec.member] = rec.edge
        matching = RainbowMatching(tuple(choices))  # type: ignore[arg-type]
        if not matching.is_valid_for(family):
            raise TheoremViolationError("trace output is not a rainbow matching",
                                        instance=family)
    return AlgoTrace(family.ground, order, tuple(steps), matching, halt_t,
                     final_a, final_b)


def _first_free(covered: set[int]) -> int:
    return next(i for i in itertools.count() if i not in covered)


def _assert_tail_observation(steps, family) -> None:
    # tail(e_i) must lie in R_j for every later step j
    for i, early in enumerate(steps):
        if early.edge is None:
            continue
        for later in steps[i + 1:]:
            if not (early.edge[0] < later.a if early.tail_side == 0
                    else early.edge[1] < later.b):
                raise TheoremViolationError(
                    f"tail of e_{early.t} escapes R_{later.t}", instance=family)


def greedy_bipartite(family: Family) -> RainbowMatching | None:
    """Forward pass: pick distinct side-M vertices v_1..v_k where member i,
    restricted away from the earlier picks, still has degree >= k-i+1 at v_i
    (maximum-degree vertex, ties to the smallest index). Backward pass: give
    each v_i an edge avoiding the later choices. Guaranteed to succeed when
    every member is larger than (k-1)n; returns None when a pass gets stuck.
    """
    _require_kind(family, PARTITE, r=2)
    n, k = family.ground.n, family.k
    if k > n:
        return None
    picked: list[int] = []
    for i in range(k):
        degs = Counter(map(itemgetter(0), family[i].edges))
        for u in picked:
            degs.pop(u, None)
        # an untouched vertex has degree 0 < k - i, so picking one would fail
        v = max(degs, key=lambda u: (degs[u], -u), default=None)
        if v is None or degs[v] < k - i:
            return None
        picked.append(v)
    choices: list[Edge | None] = [None] * k
    used_w: set[int] = set()
    for i in range(k - 1, -1, -1):
        e = min((e for e in family[i].edges if e[0] == picked[i] and e[1] not in used_w),
                default=None)
        if e is None:
            return None
        choices[i] = e
        used_w.add(e[1])
    return RainbowMatching(tuple(choices))  # type: ignore[arg-type]


def meshulam_r2(family: Family) -> RainbowMatching:
    """Rainbow matching for graph families on K_n above the exact threshold.

    Shifts the family; the shifted member i must then contain the edge
    (v_i, v_{2k-i+1}), and those k edges form a rainbow matching which is
    pulled back through the shift log.
    """
    _require_kind(family, GENERAL, r=2)
    n, k = family.ground.n, family.k
    if n < 2 * k:
        raise PreconditionError(f"needs n >= 2k, got n={n}, k={k}")
    _require_sizes_above(family, f_r2(n, k))
    shifted, log = shifting.shifted_closure(family)
    choices = []
    for i in range(k):
        e = (i, 2 * k - i - 1)
        if e not in shifted[i]:
            raise TheoremViolationError(
                f"shifted member {i + 1} misses the edge (v_{i + 1}, v_{2 * k - i})",
                instance=family)
        choices.append(e)
    return shifting.pullback_rainbow(log, family, RainbowMatching(tuple(choices)),
                                    shifted=shifted)


def r3_solve(family: Family) -> RainbowMatching:
    """Rainbow matching for 3-partite families with every member larger than
    (k-1)n^2.

    Shifts the family, assigns to each of the first k vertices of side 1 the
    remaining member of maximal degree there, takes the bipartite links of
    those vertices, solves the link family with the longest-edge algorithm
    (its size condition holds under the precondition), lifts the 2-edges back
    to 3-edges and pulls the result back through the shift log.
    """
    _require_kind(family, PARTITE, r=3)
    n, k = family.ground.n, family.k
    _require_sizes_above(family, g_formula(n, 3, k))
    shifted, log = shifting.shifted_closure(family)
    remaining = set(range(k))
    assign: list[int] = []
    rows = [h.degrees(0) for h in shifted]
    for j in range(k):
        best = max(remaining, key=lambda i: (rows[i][j], -i))
        assign.append(best)
        remaining.discard(best)
    bip = GroundSet(PARTITE, 2, n)
    links = Family([
        Hypergraph(bip, ((e[1], e[2]) for e in shifted[assign[j]].edges if e[0] == j))
        for j in range(k)
    ])
    trace = hall_size_algorithm(links)
    if not trace.succeeded:
        raise TheoremViolationError(
            f"link family halted at t={trace.halt_t} although the size "
            "condition is guaranteed", instance=family)
    choices: list[Edge | None] = [None] * k
    for j in range(k):
        p, q = trace.matching.choices[j]
        choices[assign[j]] = (j, p, q)
    matching = RainbowMatching(tuple(choices))  # type: ignore[arg-type]
    return shifting.pullback_rainbow(log, family, matching, shifted=shifted)


class DegreeMatrix(_Record):
    """Row i holds the degrees of w_1..w_n in member i. For shifted members
    every row is non-increasing, and row sums equal the member sizes."""

    entries: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self) -> None:
        if not self.entries:
            raise InputError("degree matrix needs at least one row")
        for row in self.entries:
            if len(row) != self.n:
                raise InputError(f"row length {len(row)} != n={self.n}")
            if any(d < 0 or d > self.n for d in row):
                raise InputError("degrees must lie in [0, n]")

    @property
    def k(self) -> int:
        return len(self.entries)

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.entries)

    @classmethod
    def from_family(cls, family: Family) -> "DegreeMatrix":
        _require_kind(family, PARTITE, r=2)
        return cls(tuple(h.degrees(1) for h in family.members), family.ground.n)


def _perfect_assignment(allowed: list[list[bool]]) -> tuple[int, ...] | None:
    """Kuhn's augmenting-path matcher on a k x k boolean matrix.
    Returns pi with pi[j] = the row assigned to column j, or None."""
    k = len(allowed)
    match_col = [-1] * k
    def augment(i: int, seen: list[bool]) -> bool:
        for j in range(k):
            if allowed[i][j] and not seen[j]:
                seen[j] = True
                if match_col[j] == -1 or augment(match_col[j], seen):
                    match_col[j] = i
                    return True
        return False
    for i in range(k):
        if not augment(i, [False] * k):
            return None
    return tuple(match_col)


def simple_algorithm(family: Family) -> RainbowMatching | None:
    """Degree-matrix solver for bipartite families with |F_i| >= i*n after
    ascending relabeling, valid for n > C(k, 2).

    Shifts, marks matrix cell (i, j) when member i has degree > k-j at w_j,
    finds a permutation through the marked cells by bipartite matching, and
    matches w_k down to w_1 greedily, each to its least free m. A shifted
    member's edges through w_j are those of an initial segment m_1..m_d, so
    both steps test single cells of [k]^2: the mark is the cell
    (m_{k-j+1}, w_j), and the greedy step the cells (m_p, w_j) for the free
    p in ascending order. No degree matrix is built. When the size
    hypothesis holds a missing permutation is a guarantee violation; below
    the hypothesis it is reported as an ordinary failure (None).
    """
    _require_kind(family, PARTITE, r=2)
    n, k = family.ground.n, family.k
    if n <= math.comb(k, 2):
        raise PreconditionError(f"needs n > C(k, 2) = {math.comb(k, 2)}, got n={n}")
    order = family.by_size()
    sizes_ok = _dominates(family.sizes(), range(n, (k + 1) * n, n))
    shifted, log = shifting.shifted_closure(family)
    allowed = [[(k - 1 - j, j) in shifted[order[i]] for j in range(k)] for i in range(k)]
    pi = _perfect_assignment(allowed)
    if pi is None:
        if sizes_ok:
            raise TheoremViolationError(
                "no permutation through the marked degree-matrix cells although "
                "the size hypothesis holds", instance=family)
        return None
    choices: list[Edge | None] = [None] * k
    used_m: set[int] = set()
    for j in range(k - 1, -1, -1):
        member = order[pi[j]]
        e = next(((m, j) for m in range(n) if m not in used_m and (m, j) in shifted[member]),
                 None)
        if e is None:
            raise TheoremViolationError(
                f"greedy completion stuck at w_{j + 1} despite the marked cell",
                instance=family)
        used_m.add(e[0])
        choices[member] = e
    matching = RainbowMatching(tuple(choices))  # type: ignore[arg-type]
    return shifting.pullback_rainbow(log, family, matching, shifted=shifted)


def large_n_procedure(family: Family) -> RainbowMatching | None:
    """Prefix-block procedure for r-partite families above (k-1)n^(r-1).

    Shifts the family, takes the first k-1 vertices of each side as the block
    A, picks for the first k-1 members edges meeting A in exactly one fresh
    point x_i, finds a last-member edge avoiding all x_i, then pulls each
    earlier edge coordinatewise down into unused block vertices (membership is
    implied by shiftedness and verified).

    A shifted member holds every cell below one of its edges, so each step
    tests single cells of the kernel [k]^r. Member i has an edge meeting A
    in v alone, with every other coordinate >= k-1, iff it holds the corner
    cell with v on that side and k-1 on the others. The last edge is the
    least cell of [k]^r held and off every x_i, by the fewest coordinates in
    A and then lexicographically: lowering each coordinate above k-1 to k-1
    keeps an edge in the member and off the x_i, keeps its count in A and
    makes it smaller. So the procedure decides a shifted family as it
    decides its members' largest lifts {c : min(c, k-1) in F_i}.

    Any impossible selection step returns None, and that is not confined to
    small n: three copies of the edges meeting m_1, w_1 or w_2 have
    3n - 2 > 2n edges each and a rainbow matching, but at every n the
    pull-down of the second block edge finds its side's block vertices used,
    so no large n is known past which the procedure succeeds. Of the ordered
    k-tuples of kernel ideals whose lifts exceed g(n, r, k), it fails on 48
    of 64 at r=2 k=3 for n = 3..8, on 56 of 64 at r=3 k=2 for n = 2..5, and
    at r=2 k=4 on 2,058 of 2,401 at n=4 and 3,584 of 4,096 at n=5.
    """
    _require_kind(family, PARTITE)
    g = family.ground
    n, r, k = g.n, g.r, family.k
    _require_sizes_above(family, g_formula(n, r, k))
    shifted, log = shifting.shifted_closure(family)
    a = k - 1
    xs: list[tuple[int, int]] = []
    for i in range(k - 1):
        found = next(((side, v) for side in range(r) for v in range(a)
                      if (side, v) not in xs
                      and tuple(v if s == side else a for s in range(r)) in shifted[i]), None)
        if found is None:
            return None
        xs.append(found)
    # the k-1 block edges must tile the block, so prefer a last edge outside it
    ek = min((e for e in itertools.product(range(k), repeat=r)
              if all(e[side] != v for side, v in xs) and e in shifted[k - 1]),
             key=lambda e: (sum(1 for v in e if v < a), e), default=None)
    if ek is None:
        return None
    x_values = [{v for side, v in xs if side == s} for s in range(r)]
    used = [{ek[s]} if ek[s] < a else set() for s in range(r)]
    choices: list[Edge | None] = [None] * (k - 1) + [ek]
    for i in range(k - 1):
        side_i, x_i = xs[i]
        coords = []
        for s in range(r):
            if s == side_i:
                # descent cannot raise this coordinate; x_i itself is reserved
                opts = [u for u in range(x_i + 1) if u not in used[s]]
            else:
                free = [u for u in range(a) if u not in used[s]]
                nonx = [u for u in free if u not in x_values[s]]
                opts = nonx or free
            if not opts:
                return None
            coords.append(max(opts))
        e2 = tuple(coords)
        if e2 not in shifted[i]:
            raise TheoremViolationError(
                "shifted member misses a coordinatewise-dominated edge",
                instance=family)
        for s in range(r):
            used[s].add(e2[s])
        choices[i] = e2
    matching = RainbowMatching(tuple(choices))  # type: ignore[arg-type]
    return shifting.pullback_rainbow(log, family, matching, shifted=shifted)
