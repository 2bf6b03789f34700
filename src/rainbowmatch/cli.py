"""Command-line surface: solve, shift, nu, check, extremal, verify, trace.

Exit statuses: 0 success; 2 no matching found (a legitimate outcome);
3 invalid input (a usage error too) or precondition violation; 4 a
guaranteed algorithm step failed (accompanied by an instance dump on stderr);
141 standard output closed (run() only).

Each command writes its result as text with 1-based m_i / w_j style labels,
or as schema-versioned JSON.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import sys
from typing import NoReturn

from .core import PARTITE, ConjectureId, Family
from .errors import InputError, PreconditionError, RainbowError, TheoremViolationError
# bound, not executed: a command runs a module the first time it calls into it,
# so one that reads and writes no instance never runs instances
from . import extremal, instances, oracles, shifting, solvers, verify

EXIT_OK = 0
EXIT_NO_MATCHING = 2
EXIT_PRECONDITION = 3
EXIT_THEOREM_VIOLATION = 4
EXIT_CLOSED_OUTPUT = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it


def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _instance_text(instance: instances.Instance) -> str:
    g = instance.ground
    lines = [f"kind: {g.kind} r={g.r} n={g.n}"]
    for i, member in enumerate(instance.families):
        edges = ", ".join(instances.edge_text(g, e) for e in member.edges)
        lines.append(f"F_{i + 1}: {edges}" if edges else f"F_{i + 1}: (empty)")
    return "\n".join(lines) + "\n"


def _read_instance(path: str) -> instances.Instance:
    source = "stdin" if path == "-" else path
    try:
        if path == "-":
            # decoded here, strictly: the stream's own decoding may escape
            # bad bytes (as under the C locale). A stream without a byte
            # buffer holds text already.
            raw = getattr(sys.stdin, "buffer", None)
            text = raw.read().decode("utf-8") if raw is not None else sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {source}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{source}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return instances.parse_instance(text)


def _cmd_solve(args) -> int:
    family = _read_instance(args.infile).to_family()
    extra: dict = {}
    if args.algorithm == "oracle":
        matching = oracles.rainbow_exact(family)
        status, text = "none", "no rainbow matching\n"
    elif args.algorithm == "hall":
        solvers._require_kind(family, PARTITE, r=2)
        shifted, log = shifting.shifted_closure(family)
        trace = solvers.hall_size_algorithm(shifted)
        matching = trace.matching and shifting.pullback_rainbow(log, family, trace.matching,
                                                                 shifted=shifted)
        status, text = "halt", f"no rainbow matching found (halted at t={trace.halt_t})\n"
        extra["halt_t"] = trace.halt_t
    else:
        # solvers that return a matching or None, with the detail reported on
        # None (meshulam and r3 refuse below their hypotheses instead). Built
        # per call, so that a solver replaced on its module (as perfbench's
        # tracer does) is the one that runs.
        solver, detail = {
            "greedy": (solvers.greedy_bipartite, "greedy pass got stuck"),
            "meshulam": (solvers.meshulam_r2, None),
            "r3": (solvers.r3_solve, None),
            "simple": (solvers.simple_algorithm, "no degree-matrix permutation"),
            "large-n": (solvers.large_n_procedure, "a selection step was impossible"),
        }[args.algorithm]
        matching = solver(family)
        status, text = "failure", "no rainbow matching found\n"
        if detail:
            text = f"no rainbow matching found ({detail})\n"
            extra["detail"] = detail
    choices = None
    if matching:
        status, extra = "success", {}
        choices = [[v + 1 for v in e] for e in matching.choices]
        text = "".join(f"F_{i + 1}: {instances.edge_text(family.ground, e)}\n"
                       for i, e in enumerate(matching.choices))
    if args.format == "json":
        text = _dump({"schema_version": 1, "kind": "solve", "status": status,
                      "matching": choices, **extra})
    sys.stdout.write(text)
    return EXIT_OK if matching else EXIT_NO_MATCHING


def _cmd_shift(args) -> int:
    family = _read_instance(args.infile).to_family()
    shifted, log = shifting.shifted_closure(family)
    instance = instances.Instance.from_family(shifted)
    if args.format == "json":
        sys.stdout.write(_dump({"schema_version": 1, "kind": "shift_result",
                                "instance": instance.to_dict(), "log": log.to_json()}))
    else:
        sys.stdout.write(_instance_text(instance)
                         + f"shift steps applied: {len(log.steps)}\n")
    return EXIT_OK


def _cmd_nu(args) -> int:
    family = _read_instance(args.infile).to_family()
    values = [oracles.nu_exact(h) for h in family.members]
    if args.format == "json":
        sys.stdout.write(_dump({"schema_version": 1, "kind": "nu", "values": values}))
    else:
        sys.stdout.write("".join(f"F_{i + 1}: nu = {v}\n" for i, v in enumerate(values)))
    return EXIT_OK


def _cmd_check(args) -> int:
    check = solvers.check_hall_condition(_read_instance(args.infile).to_family())
    if args.format == "json":
        payload: dict = {"schema_version": 1, "kind": "hall_check", "ok": check.ok,
                         "witness": None}
        if not check.ok:
            payload.update(witness=[i + 1 for i in check.witness],
                           total=check.total, bound=check.bound)
        sys.stdout.write(_dump(payload))
    elif check.ok:
        sys.stdout.write("condition holds: size sums exceed n|I|(|I|-1) for every I\n")
    else:
        witness = "{" + ", ".join(str(i + 1) for i in check.witness) + "}"
        sys.stdout.write(f"condition violated at I={witness}: "
                         f"sum = {check.total}, bound = {check.bound}\n")
    return EXIT_OK


def _cmd_extremal(args) -> int:
    if args.name == "star":
        family = extremal.star_family(args.n, args.r, args.k)
    elif args.name == "steal":
        family = extremal.steal_family(args.q, args.n)
    elif args.name == "r3counter":
        family = extremal.r3_counterexample(args.n)
    else:  # ekr
        family = Family([extremal.ekr_star(args.n, args.r)])
    instance = instances.Instance.from_family(family)
    sys.stdout.write(instances.serialize_instance(instance) if args.format == "json"
                     else _instance_text(instance))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.threshold is not None:
        value = verify.compute_threshold_exact(args.threshold, args.n, args.r, args.k)
        if args.format == "json":
            sys.stdout.write(_dump({"schema_version": 1, "kind": "threshold",
                                    "mode": args.threshold, "n": args.n, "r": args.r,
                                    "k": args.k, "value": value}))
        else:
            sys.stdout.write(f"{args.threshold}(n={args.n}, r={args.r}, k={args.k}) = {value}\n")
        return EXIT_OK
    params: dict = {"n": args.n, "k": args.k, "r": args.r}
    if args.d is not None:
        params["d"] = args.d
    report = verify.check_conjecture(ConjectureId(args.conjecture), params,
                                     mode=args.mode, budget=args.budget,
                                     seed=args.seed, workers=args.workers)
    sys.stdout.write(report.to_text() if args.format == "text" else _dump(report.to_json()))
    return EXIT_OK


def _cmd_trace(args) -> int:
    if args.name is not None:  # steal, the one named instance
        family = extremal.steal_family(args.q, args.n)
    elif args.infile is not None:
        family = _read_instance(args.infile).to_family()
    else:
        raise InputError("trace needs --name or --in")
    trace = solvers.hall_size_algorithm(family)
    sys.stdout.write(trace.to_text() if args.format == "text" else _dump(trace.to_json()))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse, with a usage error exiting 3 (invalid input), not 2 (no
    matching). Subcommand parsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PRECONDITION, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
                sys.stderr.write(instances.serialize_instance(
                    instances.Instance.from_family(exc.instance)))
            except RainbowError:
                pass
        return EXIT_THEOREM_VIOLATION
    except (InputError, PreconditionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION


def run() -> NoReturn:
    """The process entry of `python -m rainbowmatch` and the console script.

    main's status, with both streams flushed, through os._exit: the process
    ends without the interpreter's teardown (clearing modules, collecting
    and freeing every object, atexit handlers), which is the same work for
    every command and adds nothing once the output is written. Standard
    output closed at start (sys.stdout is None) or by its reader (a broken
    pipe) ends with EXIT_CLOSED_OUTPUT and no traceback; standard error
    closed at start drops the messages and keeps the statuses. argparse's
    SystemExit (help, usage errors) and any other exception leave as they
    would from sys.exit(main()). Unbuffered standard output (python -u,
    PYTHONUNBUFFERED) is given a buffer: a raw write may take only part of
    its bytes, and the text layer drops the rest, where a buffered writer
    writes them or raises BrokenPipeError."""
    if sys.stderr is None:
        sys.stderr = open(os.devnull, "w")
    status = EXIT_CLOSED_OUTPUT
    out = sys.stdout
    if isinstance(getattr(out, "buffer", None), io.FileIO):
        sys.stdout = io.TextIOWrapper(io.BufferedWriter(out.buffer), encoding=out.encoding,
                                      errors=out.errors)
    if sys.stdout is not None:
        try:
            status = main()
            sys.stdout.flush()
        except BrokenPipeError:
            status = EXIT_CLOSED_OUTPUT
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
