"""Run one rainbowmatch CLI request with a span around each layer's calls.

Usage: python perfbench/traced_cli.py SPANS_FILE REQUEST_ID ARGS...

ARGS are what ``python -m rainbowmatch`` would take. The wrappers are
installed at runtime, at the defining module and at every other module
that imported the same function, so that for example a closure run inside
a solver becomes a child span of that solver. The program itself is not
changed. Spans stay in memory and are written to SPANS_FILE at exit.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from spans import write_spans


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn, observe=None):
        """fn with a span named name around each call; observe(counts, args,
        result) runs after each call that returns."""
        nid = self._name_id(name)
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, stack[-1])
            if observe is not None:
                observe(counts, args, result)
            return result
        return traced

    def wrap_generator(self, name: str, fn, counter: str):
        """A generator function with one span per resumption; each item
        yielded adds one to counts[counter]."""
        nid = self._name_id(name)
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = len(spans)
                spans.append(None)
                stack.append(idx)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    spans[idx] = (nid, start, end, stack[-1])
                counts[counter] += 1
                yield item
        return traced

    def count_only(self, fn, observe):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(counts, args, result)
            return result
        return counted


def _add(key: str, value=lambda args, result: 1):
    def observe(counts, args, result):
        counts[key] += value(args, result)
    return observe


def _observe_shift(counts, args, result):
    moved = len(result[1].moved)
    counts["shifting.shift_calls"] += 1
    counts["shifting.effective_shifts"] += moved > 0
    counts["shifting.moved_edges"] += moved


def _observe_report(counts, args, result):
    counts["verify.trials"] += result.instances_checked
    counts["verify.counterexamples"] += len(result.counterexamples)


def _solver(name: str, ok=lambda result: result is not None):
    return _add(f"solvers.{name}_ok", lambda args, result: bool(ok(result)))


# (module, attribute path, span name, observer). The span name's first
# component is its layer.
SPANNED = [
    ("instances", "parse_instance", "instances.parse_instance",
     _add("instances.parse_bytes", lambda args, result: len(args[0].encode()))),
    ("instances", "serialize_instance", "instances.serialize_instance", None),
    ("instances", "Instance.to_dict", "instances.Instance.to_dict", None),
    ("instances", "Instance.to_family", "instances.Instance.to_family", None),
    ("core", "Hypergraph.__init__", "core.Hypergraph", None),
    ("core", "Family.__init__", "core.Family", None),
    ("core", "rainbow_exact", "core.rainbow_exact",
     _add("core.rainbow_found", lambda args, result: result is not None)),
    ("core", "nu_exact", "core.nu_exact", None),
    ("shifting", "shifted_closure", "shifting.shifted_closure",
     _add("shifting.closure_steps", lambda args, result: len(result[1].steps))),
    ("shifting", "is_shifted", "shifting.is_shifted", None),
    ("shifting", "pullback_rainbow", "shifting.pullback_rainbow", None),
    ("solvers", "check_hall_condition", "solvers.check", _solver("check", lambda r: r.ok)),
    ("solvers", "hall_size_algorithm", "solvers.hall",
     _solver("hall", lambda r: r.succeeded)),
    ("solvers", "greedy_bipartite", "solvers.greedy", _solver("greedy")),
    ("solvers", "simple_algorithm", "solvers.simple", _solver("simple")),
    ("solvers", "r3_solve", "solvers.r3", _solver("r3")),
    ("solvers", "meshulam_r2", "solvers.meshulam", _solver("meshulam")),
    ("solvers", "large_n_procedure", "solvers.large_n", _solver("large_n")),
    ("verify", "check_conjecture", "verify.check_conjecture", _observe_report),
    ("verify", "compute_threshold_exact", "verify.compute_threshold_exact", None),
    ("verify", "check_matrix_conjecture", "verify.check_matrix_conjecture", None),
]


def install(tracer: Tracer) -> None:
    """Replace each traced function wherever the package holds a reference."""
    import rainbowmatch.cli  # noqa: F401  (loads every module of the package)
    modules = [m for name, m in list(sys.modules.items())
               if name == "rainbowmatch" or name.startswith("rainbowmatch.")]

    def replace(module: str, path: str, make) -> None:
        owner = sys.modules[f"rainbowmatch.{module}"]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = make(original)
        setattr(owner, attr, wrapped)
        if not cls_path:
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    for module, path, name, observe in SPANNED:
        replace(module, path, lambda fn: tracer.wrap(name, fn, observe))
    replace("shifting", "shift_hypergraph", lambda fn: tracer.count_only(fn, _observe_shift))
    replace("verify", "_ideal_dfs",
            lambda fn: tracer.wrap_generator("verify._ideal_dfs", fn, "verify.ideals"))


def main() -> int:
    out_path, request_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    install(tracer)
    from rainbowmatch.cli import main as cli_main
    try:
        return tracer.wrap("cli.main", cli_main)(argv)
    finally:
        sys.stdout.flush()
        write_spans(out_path, request_id, tracer.names, tracer.spans, tracer.counts)


if __name__ == "__main__":
    sys.exit(main())
