"""Command-line surface: solve, shift, nu, check, extremal, verify, trace.

Exit statuses: 0 success; 2 no matching found (a legitimate outcome);
3 invalid input or precondition violation; 4 a guaranteed algorithm step
failed (accompanied by an instance dump on stderr).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .core import GroundSet, RainbowMatching, nu_exact, rainbow_exact
from .errors import InputError, PreconditionError, RainbowError, TheoremViolationError
from .extremal import ekr_star, r3_counterexample, star_family, steal_family
from .instances import Instance, edge_text, parse_instance, serialize_instance
from .shifting import ShiftLog, pullback_rainbow, shifted_closure
from .solvers import (AlgoTrace, HallCheck, check_hall_condition,
                      greedy_bipartite, hall_size_algorithm, large_n_procedure,
                      meshulam_r2, r3_solve, simple_algorithm)
from .verify import (ConjectureId, VerifyReport, check_conjecture,
                     compute_threshold_exact)

EXIT_OK = 0
EXIT_NO_MATCHING = 2
EXIT_PRECONDITION = 3
EXIT_THEOREM_VIOLATION = 4


@dataclass(frozen=True)
class SolveResult:
    ground: GroundSet
    status: str  # success | none | failure | halt
    matching: RainbowMatching | None = None
    detail: str | None = None
    halt_t: int | None = None


@dataclass(frozen=True)
class NuResult:
    values: tuple[int, ...]


@dataclass(frozen=True)
class ShiftResult:
    instance: Instance
    log: ShiftLog


@dataclass(frozen=True)
class ThresholdResult:
    mode: str
    n: int
    r: int
    k: int
    value: int


def emit_result(result, format: str = "text") -> str:
    """Render any command result; JSON output is schema-versioned and text
    output uses 1-based m_i / w_j style labels."""
    if format not in ("text", "json"):
        raise InputError(f"unknown format: {format!r}")
    if isinstance(result, SolveResult):
        return _emit_solve(result, format)
    if isinstance(result, AlgoTrace):
        return result.to_text() if format == "text" else _dump(result.to_json())
    if isinstance(result, HallCheck):
        return _emit_check(result, format)
    if isinstance(result, Instance):
        if format == "json":
            return serialize_instance(result)
        return _instance_text(result)
    if isinstance(result, NuResult):
        if format == "json":
            return _dump({"schema_version": 1, "kind": "nu",
                          "values": list(result.values)})
        return "".join(f"F_{i + 1}: nu = {v}\n" for i, v in enumerate(result.values))
    if isinstance(result, ShiftResult):
        if format == "json":
            return _dump({"schema_version": 1, "kind": "shift_result",
                          "instance": result.instance.to_dict(),
                          "log": result.log.to_json()})
        return (_instance_text(result.instance)
                + f"shift steps applied: {len(result.log.steps)}\n")
    if isinstance(result, VerifyReport):
        if format == "json":
            return _dump(result.to_json())
        lines = [f"conjecture: {result.conjecture}",
                 "params: " + " ".join(f"{k}={v}" for k, v in sorted(result.params.items())),
                 f"mode: {result.mode}",
                 f"instances checked: {result.instances_checked}",
                 f"counterexamples: {len(result.counterexamples)}"]
        return "\n".join(lines) + "\n"
    if isinstance(result, ThresholdResult):
        if format == "json":
            return _dump({"schema_version": 1, "kind": "threshold",
                          "mode": result.mode, "n": result.n, "r": result.r,
                          "k": result.k, "value": result.value})
        return f"{result.mode}(n={result.n}, r={result.r}, k={result.k}) = {result.value}\n"
    raise InputError(f"cannot emit a {type(result).__name__}")


def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _instance_text(instance: Instance) -> str:
    g = instance.ground
    lines = [f"kind: {g.kind} r={g.r} n={g.n}"]
    for i, member in enumerate(instance.families):
        edges = ", ".join(edge_text(g, e) for e in sorted(member))
        lines.append(f"F_{i + 1}: {edges}" if edges else f"F_{i + 1}: (empty)")
    return "\n".join(lines) + "\n"


def _emit_solve(result: SolveResult, format: str) -> str:
    if format == "json":
        payload: dict = {"schema_version": 1, "kind": "solve",
                         "status": result.status, "matching": None}
        if result.matching is not None:
            payload["matching"] = [[v + 1 for v in e] for e in result.matching.choices]
        if result.halt_t is not None:
            payload["halt_t"] = result.halt_t
        if result.detail:
            payload["detail"] = result.detail
        return _dump(payload)
    if result.status == "success":
        return "".join(
            f"F_{i + 1}: {edge_text(result.ground, e)}\n"
            for i, e in enumerate(result.matching.choices))
    if result.status == "none":
        return "no rainbow matching\n"
    if result.status == "halt":
        return f"no rainbow matching found (halted at t={result.halt_t})\n"
    return "no rainbow matching found" + (f" ({result.detail})\n" if result.detail else "\n")


def _read_instance(path: str) -> Instance:
    if path == "-":
        return parse_instance(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _cmd_solve(args) -> int:
    family = _read_instance(args.infile).to_family()
    g = family.ground
    algo = args.algorithm
    result: SolveResult
    if algo == "oracle":
        m = rainbow_exact(family)
        result = SolveResult(g, "success" if m else "none", m)
    elif algo == "hall":
        _need(g, "partite", 2, algo)
        shifted, log = shifted_closure(family)
        trace = hall_size_algorithm(shifted)
        if trace.succeeded:
            m = pullback_rainbow(log, family, trace.matching)
            result = SolveResult(g, "success", m)
        else:
            result = SolveResult(g, "halt", halt_t=trace.halt_t)
    elif algo == "greedy":
        _need(g, "partite", 2, algo)
        m = greedy_bipartite(family)
        result = SolveResult(g, "success" if m else "failure", m,
                             detail=None if m else "greedy pass got stuck")
    elif algo == "meshulam":
        _need(g, "general", 2, algo)
        result = SolveResult(g, "success", meshulam_r2(family))
    elif algo == "r3":
        _need(g, "partite", 3, algo)
        result = SolveResult(g, "success", r3_solve(family))
    elif algo == "simple":
        _need(g, "partite", 2, algo)
        m = simple_algorithm(family)
        result = SolveResult(g, "success" if m else "failure", m,
                             detail=None if m else "no degree-matrix permutation")
    elif algo == "large-n":
        _need(g, "partite", None, algo)
        m = large_n_procedure(family)
        result = SolveResult(g, "success" if m else "failure", m,
                             detail=None if m else "a selection step was impossible")
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown algorithm: {algo!r}")
    sys.stdout.write(emit_result(result, args.format))
    return EXIT_OK if result.status == "success" else EXIT_NO_MATCHING


def _need(ground: GroundSet, kind: str, r: int | None, algo: str) -> None:
    if ground.kind != kind or (r is not None and ground.r != r):
        want = f"{kind} r={r}" if r is not None else kind
        raise InputError(f"algorithm {algo!r} needs a {want} instance, "
                         f"got {ground.kind} r={ground.r}")


def _cmd_shift(args) -> int:
    family = _read_instance(args.infile).to_family()
    shifted, log = shifted_closure(family)
    result = ShiftResult(Instance.from_family(shifted), log)
    sys.stdout.write(emit_result(result, args.format))
    return EXIT_OK


def _cmd_nu(args) -> int:
    family = _read_instance(args.infile).to_family()
    result = NuResult(tuple(nu_exact(h) for h in family.members))
    sys.stdout.write(emit_result(result, args.format))
    return EXIT_OK


def _cmd_check(args) -> int:
    family = _read_instance(args.infile).to_family()
    sys.stdout.write(emit_result(check_hall_condition(family), args.format))
    return EXIT_OK


def _emit_check(check: HallCheck, format: str) -> str:
    if format == "json":
        payload: dict = {"schema_version": 1, "kind": "hall_check", "ok": check.ok,
                         "witness": None}
        if not check.ok:
            payload["witness"] = [i + 1 for i in check.witness]
            payload["total"] = check.total
            payload["bound"] = check.bound
        return _dump(payload)
    if check.ok:
        return "condition holds: size sums exceed n|I|(|I|-1) for every I\n"
    witness = "{" + ", ".join(str(i + 1) for i in check.witness) + "}"
    return (f"condition violated at I={witness}: "
            f"sum = {check.total}, bound = {check.bound}\n")


def _cmd_extremal(args) -> int:
    name = args.name
    if name == "star":
        family = star_family(args.n, args.r, args.k)
        instance = Instance.from_family(family)
    elif name == "steal":
        instance = Instance.from_family(steal_family(args.q, args.n))
    elif name == "r3counter":
        instance = Instance.from_family(r3_counterexample(args.n))
    elif name == "ekr":
        h = ekr_star(args.n, args.r)
        instance = Instance(h.ground, (h.edges,))
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown construction: {name!r}")
    sys.stdout.write(emit_result(instance, args.format))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.threshold is not None:
        value = compute_threshold_exact(args.threshold, args.n, args.r, args.k)
        result = ThresholdResult(args.threshold, args.n, args.r, args.k, value)
        sys.stdout.write(emit_result(result, args.format))
        return EXIT_OK
    if args.conjecture is None:
        raise InputError("verify needs either --conjecture or --threshold")
    params: dict = {"n": args.n, "k": args.k, "r": args.r}
    if args.d is not None:
        params["d"] = args.d
    report = check_conjecture(ConjectureId(args.conjecture), params,
                              mode=args.mode, budget=args.budget,
                              seed=args.seed, workers=args.workers)
    sys.stdout.write(emit_result(report, args.format))
    return EXIT_OK


def _cmd_trace(args) -> int:
    if args.name is not None:
        if args.name != "steal":
            raise InputError(f"unknown named trace instance: {args.name!r}")
        family = steal_family(args.q, args.n)
    elif args.infile is not None:
        family = _read_instance(args.infile).to_family()
    else:
        raise InputError("trace needs --name or --in")
    trace = hall_size_algorithm(family)
    sys.stdout.write(emit_result(trace, args.format))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbowmatch",
        description="Rainbow matchings in bipartite, r-partite and general "
                    "uniform hypergraphs: solvers, shifting, constructions, "
                    "exact oracles and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        if with_input:
            p.add_argument("--in", dest="infile", default="-",
                           help="instance file (JSON), '-' for stdin")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("solve", help="find a rainbow matching")
    p.add_argument("--algorithm", required=True,
                   choices=("hall", "greedy", "meshulam", "r3", "simple",
                            "large-n", "oracle"))
    add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("shift", help="emit the shifted family and its log")
    add_common(p)
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("nu", help="exact matching number of every member")
    add_common(p)
    p.set_defaults(func=_cmd_nu)

    p = sub.add_parser("check", help="check the Hall-type size condition")
    add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("extremal", help="emit a named construction")
    p.add_argument("--name", required=True,
                   choices=("star", "steal", "r3counter", "ekr"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--q", type=int, default=3)
    add_common(p, with_input=False)
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("verify", help="conjecture checks and exact thresholds")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--conjecture",
                       choices=[c.value for c in ConjectureId])
    group.add_argument("--threshold", choices=("f_r2_general", "g_partite"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--mode", choices=("exhaustive", "random"), default="random")
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    add_common(p, with_input=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("trace", help="replay the longest-edge algorithm step log")
    p.add_argument("--name", choices=("steal",), default=None)
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--in", dest="infile", default=None,
                   help="instance file (JSON), '-' for stdin")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_trace)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TheoremViolationError as exc:
        sys.stderr.write(f"theorem violation: {exc}\n")
        if exc.instance is not None:
            try:
                sys.stderr.write(serialize_instance(Instance.from_family(exc.instance)))
            except RainbowError:
                pass
        return EXIT_THEOREM_VIOLATION
    except (InputError, PreconditionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
