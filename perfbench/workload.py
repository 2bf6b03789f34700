"""Seeded inputs and request lists for the three benchmark workloads.

This module is the benchmark's own generator: it never imports rainbowmatch,
so a change to the library's samplers or constructions cannot change what
the benchmark feeds the program. The same seed gives byte-identical files.

A request is one ``python -m rainbowmatch`` process. Each carries what the
independent checks in ``validate.py`` need to judge its output.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("solve", "verify-random", "exact")

# Seed used while the benchmark and any change measured with it are being
# written. A claim is confirmed afterwards on HELD_OUT_SEED, which nobody
# tunes against.
DEV_SEED = 1
HELD_OUT_SEED = 977


@dataclass
class Request:
    """One program invocation and the facts its output must agree with."""

    name: str                 # short label, e.g. "hall-n20-k6"
    cls: str                  # request class: shifted, direct, oracle, exhaustive, threshold, random
    argv: list[str]           # arguments after ``python -m rainbowmatch``
    expect: dict = field(default_factory=dict)
    infile: str | None = None  # input file name inside the run's input directory
    instance: dict | None = None  # the input, 0-based, for the checks


# ---------------------------------------------------------------------------
# Instance generators (0-based edges; files are written 1-based)

def _instance(kind: str, r: int, n: int, members: list[list[tuple]]) -> dict:
    return {"kind": kind, "r": r, "n": n,
            "families": [sorted(m) for m in members]}


def instance_json(inst: dict) -> str:
    """The instance in the program's JSON schema, one member per line."""
    rows = ",\n".join("    " + json.dumps([[v + 1 for v in e] for e in m])
                      for m in inst["families"])
    return ('{\n  "kind": "%s",\n  "r": %d,\n  "n": %d,\n  "families": [\n%s\n  ]\n}\n'
            % (inst["kind"], inst["r"], inst["n"], rows))


def _partite_cell(index: int, n: int, r: int) -> tuple:
    out = []
    for _ in range(r):
        index, v = divmod(index, n)
        out.append(v)
    return tuple(reversed(out))


def _partite_member(rng: random.Random, n: int, r: int, size: int) -> list[tuple]:
    return [_partite_cell(i, n, r) for i in rng.sample(range(n ** r), size)]


def _pairs(n: int) -> list[tuple]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def f_r2(n: int, k: int) -> int:
    """Largest graph on n >= 2k vertices with no k disjoint edges."""
    return max(math.comb(2 * k - 1, 2), (k - 1) * (n - 1) - math.comb(k - 1, 2))


def g_formula(n: int, r: int, k: int) -> int:
    """The n-balanced r-partite threshold (k-1) n^(r-1)."""
    return (k - 1) * n ** (r - 1)


def _sizes(rng: random.Random, lo: int, spread: int, k: int, cap: int) -> list[int]:
    """k member sizes spaced evenly over [lo, lo + spread], in seeded order.
    The sizes are fixed by the parameters, so only which edges are drawn
    depends on the seed, and a request costs about the same on every seed."""
    sizes = [min(cap, lo + (i * spread) // max(1, k - 1)) for i in range(k)]
    rng.shuffle(sizes)
    return sizes


def hall_bipartite(rng: random.Random, n: int, k: int) -> dict:
    """Bipartite family whose sizes all exceed (k-1)n, so every prefix of
    the ascending sizes beats n j (j-1): inside the hall hypothesis."""
    sizes = _sizes(rng, (k - 1) * n + 1, n, k, n * n)
    return _instance("partite", 2, n, [_partite_member(rng, n, 2, s) for s in sizes])


def simple_bipartite(rng: random.Random, n: int, k: int) -> dict:
    """Ascending sizes at least i*n, with n > C(k, 2)."""
    sizes = [min(n * n, i * n + n // 2) for i in range(1, k + 1)]
    rng.shuffle(sizes)
    return _instance("partite", 2, n, [_partite_member(rng, n, 2, s) for s in sizes])


def above_g(rng: random.Random, n: int, r: int, k: int, spread: int) -> dict:
    """r-partite members each larger than (k-1) n^(r-1)."""
    sizes = _sizes(rng, g_formula(n, r, k) + 1, spread, k, n ** r)
    return _instance("partite", r, n, [_partite_member(rng, n, r, s) for s in sizes])


def above_f_r2(rng: random.Random, n: int, k: int, spread: int) -> dict:
    """Graphs on n vertices, each larger than f(n, 2, k)."""
    cells = _pairs(n)
    members = [rng.sample(cells, size)
               for size in _sizes(rng, f_r2(n, k) + 1, spread, k, len(cells))]
    return _instance("general", 2, n, members)


def sub_star(rng: random.Random, n: int, k: int, density: float) -> dict:
    """k members inside the first k-1 rows of [n]^2: no rainbow matching,
    by pigeonhole, which the exact oracle must prove by search. Each member
    holds exactly the given share of those rows' cells, which keeps the
    search cost within about 10-30% across seeds."""
    rows = [(i, j) for i in range(k - 1) for j in range(n)]
    size = max(1, round(density * len(rows)))
    return _instance("partite", 2, n, [rng.sample(rows, size) for _ in range(k)])


def star(n: int, r: int, k: int) -> dict:
    """k copies of every edge meeting the first k-1 vertices of side 1."""
    member = [_partite_cell(i, n, r) for i in range(n ** r)]
    member = [e for e in member if e[0] < k - 1]
    return _instance("partite", r, n, [member] * k)


def dense_bipartite(rng: random.Random, n: int, k: int, density: float) -> dict:
    """Dense members that each hold a seeded perfect matching, so nu = n.
    Without one, nu_exact must refute a perfect matching by search: on a
    random n=16 graph at density 0.5 that took over a minute on one seed."""
    members = []
    for _ in range(k):
        perm = list(range(n))
        rng.shuffle(perm)
        edges = {(i, j) for i in range(n) for j in range(n) if rng.random() < density}
        members.append(list(edges | {(i, perm[i]) for i in range(n)}))
    return _instance("partite", 2, n, members)


def deficient_bipartite(rng: random.Random, n: int, k: int, density: float) -> dict:
    """Members with one empty column, so nu = n - 1 and nu_exact has to
    refute a perfect matching: search exponential in n, kept small here."""
    members = []
    for _ in range(k):
        empty = rng.randrange(n)
        cells = [(i, j) for i in range(n) for j in range(n) if j != empty]
        members.append(rng.sample(cells, round(density * n * n)))
    return _instance("partite", 2, n, members)


# ---------------------------------------------------------------------------
# Workloads

def _rngs(seed: int, workload: str):
    """One independent generator per instance, in order."""
    for index in itertools.count(1):
        yield random.Random(f"perfbench:{seed}:{workload}:{index}")


def _file_request(name: str, cls: str, argv: list[str], inst: dict,
                  expect: dict) -> Request:
    return Request(name, cls, argv + ["--in", f"{name}.json", "--format", "json"],
                   expect, infile=f"{name}.json", instance=inst)


# (solver, n, k) for the shifted class; the closure dominates each request.
HALL_SIZES = [(16, 5), (18, 6), (20, 6), (22, 6), (24, 7), (26, 7), (28, 8)]
SIMPLE_SIZES = [(12, 4), (14, 4)]
R3_SIZES = [(5, 3), (6, 3)]
LARGE_N_SIZES = [(2, 30, 3), (3, 10, 2)]  # (r, n, k); large-n fails at smaller n
MESHULAM_SIZES = [(14, 4), (16, 5)]
# (n, k, total edges) for the direct class: large files, no shifting.
DIRECT_SIZES = [(200, 4, 30000), (260, 5, 50000), (300, 6, 70000)]


def solve_requests(seed: int) -> list[Request]:
    out: list[Request] = []
    rngs = _rngs(seed, "solve")
    rng = lambda: next(rngs)

    for n, k in HALL_SIZES:
        out.append(_file_request(f"hall-n{n}-k{k}", "shifted",
                                 ["solve", "--algorithm", "hall"],
                                 hall_bipartite(rng(), n, k), {"status": "success"}))
    for n, k in SIMPLE_SIZES:
        out.append(_file_request(f"simple-n{n}-k{k}", "shifted",
                                 ["solve", "--algorithm", "simple"],
                                 simple_bipartite(rng(), n, k), {"status": "success"}))
    for n, k in R3_SIZES:
        out.append(_file_request(f"r3-n{n}-k{k}", "shifted",
                                 ["solve", "--algorithm", "r3"],
                                 above_g(rng(), n, 3, k, n * n), {"status": "success"}))
    for r, n, k in LARGE_N_SIZES:
        out.append(_file_request(f"large-n-r{r}-n{n}-k{k}", "shifted",
                                 ["solve", "--algorithm", "large-n"],
                                 above_g(rng(), n, r, k, n ** (r - 1)),
                                 {"status": "success"}))
    for n, k in MESHULAM_SIZES:
        out.append(_file_request(f"meshulam-n{n}-k{k}", "shifted",
                                 ["solve", "--algorithm", "meshulam"],
                                 above_f_r2(rng(), n, k, n), {"status": "success"}))
    for n, k, total in DIRECT_SIZES:
        inst = _direct_bipartite(rng(), n, k, total)
        out.append(_file_request(f"greedy-n{n}-k{k}", "direct",
                                 ["solve", "--algorithm", "greedy"], inst,
                                 {"status": "success"}))
        inst = _direct_bipartite(rng(), n, k, total)
        out.append(_file_request(f"check-n{n}-k{k}", "direct", ["check"], inst,
                                 {"hall_check": True}))
    return out


def _direct_bipartite(rng: random.Random, n: int, k: int, total: int) -> dict:
    sizes = _sizes(rng, total // k - n, 2 * n, k, n * n)
    return _instance("partite", 2, n, [_partite_member(rng, n, 2, s) for s in sizes])


# Random-verify jobs: (conjecture, n, r, k, d, budget). Each runs once at
# --workers 1 and once at --workers 2 with the run's seed. A budget of at
# least two shards (2 x 256 trials) lets the pool split the work. The jobs
# span 0.2 to 1.8 s, so the latency distribution has no large gaps.
RANDOM_JOBS = [
    ("size_condition", 4, 3, 2, None, 512),
    ("simple", 5, 2, 3, None, 512),
    ("rainbow_general", 8, 2, 3, None, 512),
    ("degree_condition", 4, 2, 2, 1, 1024),
    ("size_condition", 3, 3, 2, None, 512),
    ("size_condition", 4, 2, 3, None, 512),
    ("simple", 4, 2, 3, None, 512),
    ("degree_condition", 5, 2, 3, 2, 512),
]


def verify_random_requests(seed: int) -> list[Request]:
    out = []
    for conj, n, r, k, d, budget in RANDOM_JOBS:
        argv = ["verify", "--conjecture", conj, "--n", str(n), "--r", str(r),
                "--k", str(k), "--mode", "random", "--budget", str(budget),
                "--seed", str(seed), "--format", "json"]
        if d is not None:
            argv += ["--d", str(d)]
        params = {"n": n, "r": r, "k": k, "d": d}
        for workers in (1, 2):
            name = f"{conj}-n{n}-r{r}-k{k}"
            out.append(Request(f"{name}-w{workers}", "random",
                               argv + ["--workers", str(workers)],
                               {"conjecture": conj, "params": params,
                                "budget": budget, "workers": workers,
                                "pair": name}))
    return out


# Exhaustive jobs: (conjecture, n, r, k, instances_checked at the seed commit).
EXHAUSTIVE_JOBS = [
    ("size_condition", 4, 2, 3, 29791),
    ("rainbow_general", 7, 2, 3, 19683),
    ("size_condition", 2, 4, 2, 5184),
    ("matrix", 4, 2, 2, 4524),
    ("simple", 4, 2, 2, 3393),
    ("rainbow_general", 6, 3, 2, 900),
]
# Threshold jobs: (mode, n, r, k); the value must equal the closed form.
THRESHOLD_JOBS = [
    ("g_partite", 4, 2, 3),
    ("g_partite", 2, 4, 2),
    ("f_r2_general", 6, 2, 3),
    ("f_r2_general", 7, 2, 3),
]
# Oracle refutations on seeded sub-star families: (n, k, density).
SUB_STAR_SIZES = [(6, 5, 0.9), (7, 6, 0.5), (8, 6, 0.5)]
STAR_SIZES = [(6, 2, 5), (4, 3, 4)]
NU_SIZES = [(14, 2, 0.5), (16, 1, 0.5)]      # (n, k, density), nu = n
DEFICIENT_NU_SIZES = [(10, 6, 0.5)]          # nu = n - 1


def exact_requests(seed: int) -> list[Request]:
    out: list[Request] = []
    rngs = _rngs(seed, "exact")
    rng = lambda: next(rngs)

    for conj, n, r, k, count in EXHAUSTIVE_JOBS:
        out.append(Request(f"exhaustive-{conj}-n{n}-r{r}-k{k}", "exhaustive",
                           ["verify", "--conjecture", conj, "--n", str(n),
                            "--r", str(r), "--k", str(k), "--mode", "exhaustive",
                            "--format", "json"],
                           {"instances_checked": count}))
    for mode, n, r, k in THRESHOLD_JOBS:
        value = f_r2(n, k) if mode == "f_r2_general" else g_formula(n, r, k)
        out.append(Request(f"threshold-{mode}-n{n}-r{r}-k{k}", "threshold",
                           ["verify", "--threshold", mode, "--n", str(n),
                            "--r", str(r), "--k", str(k), "--format", "json"],
                           {"value": value}))
    for n, k, density in SUB_STAR_SIZES:
        out.append(_file_request(f"substar-n{n}-k{k}-d{density}", "oracle",
                                 ["solve", "--algorithm", "oracle"],
                                 sub_star(rng(), n, k, density), {"status": "none"}))
    for n, r, k in STAR_SIZES:
        out.append(_file_request(f"star-n{n}-r{r}-k{k}", "oracle",
                                 ["solve", "--algorithm", "oracle"],
                                 star(n, r, k), {"status": "none"}))
    for n, k, density in NU_SIZES:
        out.append(_file_request(f"nu-n{n}-k{k}", "oracle", ["nu"],
                                 dense_bipartite(rng(), n, k, density), {"nu": True}))
    for n, k, density in DEFICIENT_NU_SIZES:
        out.append(_file_request(f"nu-deficient-n{n}-k{k}", "oracle", ["nu"],
                                 deficient_bipartite(rng(), n, k, density), {"nu": True}))
    return out


GENERATORS = {"solve": solve_requests, "verify-random": verify_random_requests,
            "exact": exact_requests}


def build(workload: str, seed: int, directory: Path) -> list[Request]:
    """Write the workload's input files into ``directory`` and return its
    request list, in the order one round runs them."""
    requests = GENERATORS[workload](seed)
    for req in requests:
        if req.infile is not None:
            (directory / req.infile).write_text(instance_json(req.instance),
                                                encoding="utf-8")
    random.Random(f"perfbench:{seed}:{workload}:order").shuffle(requests)
    return requests
