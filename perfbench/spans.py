"""Span files of traced requests, and the self-time arithmetic over them.

A traced request (see ``traced_cli.py``) records one span per call of a
wrapped function: (name, start, end, parent), where parent is the index of
the enclosing span or -1 for the root ``cli.main``. A span's name starts
with its layer: ``cli``, ``instances``, ``core``, ``shifting``, ``solvers``
or ``verify``. The self time of a span is its duration minus the durations
of its direct children, so the self times of one request sum to the
duration of its root span.
"""
from __future__ import annotations

import json
from array import array
from collections import defaultdict

LAYERS = ("cli", "instances", "core", "shifting", "solvers", "verify")


def write_spans(path: str, request: str, names: list[str], spans: list[tuple],
                counts: dict) -> None:
    """One JSON header line, then the spans as four native int64 arrays
    (name index, start ns, end ns, parent index)."""
    cols = [array("q", (s[i] for s in spans)) for i in range(4)]
    header = {"request": request, "names": names, "count": len(spans),
              "counts": dict(counts)}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for col in cols:
            col.tofile(fh)


def read_spans(path: str) -> tuple[dict, list[tuple]]:
    """The header and the spans as (name, start_s, end_s, parent, request)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = []
        for _ in range(4):
            col = array("q")
            col.fromfile(fh, header["count"])
            cols.append(col)
    names, req = header["names"], header["request"]
    spans = [(names[n], s / 1e9, e / 1e9, p, req) for n, s, e, p in zip(*cols)]
    return header, spans


def self_times(spans: list[tuple]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def aggregate(spans: list[tuple]) -> dict[str, list[float]]:
    """Per span name: [calls, total self seconds, total inclusive seconds]."""
    agg: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for s, own in zip(spans, self_times(spans)):
        entry = agg[s[0]]
        entry[0] += 1
        entry[1] += own
        entry[2] += s[2] - s[1]
    return dict(agg)


def layer_self(agg: dict[str, list[float]]) -> dict[str, float]:
    """Self seconds per layer, keyed by LAYERS."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, (_, own, _) in agg.items():
        out[name.split(".", 1)[0]] += own
    return out


def root_duration(spans: list[tuple]) -> float:
    roots = [s for s in spans if s[3] < 0]
    return sum(s[2] - s[1] for s in roots)


SOLVERS = ("hall", "greedy", "simple", "r3", "meshulam", "large_n", "check")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict[str, list[float]], counts: dict, rounds: int,
                  startup_s: float, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of a traced run, per round of the workload.

    ``agg`` and ``counts`` are summed over every traced request, and the
    three times over the same requests. A ratio whose base is zero is 0.
    """
    calls = lambda name: agg.get(name, [0, 0.0, 0.0])[0]
    own = lambda name: agg.get(name, [0, 0.0, 0.0])[1]
    c = lambda key: counts.get(key, 0)
    per = lambda v: v / rounds
    m = {
        "shifting.closure_calls": per(calls("shifting.shifted_closure")),
        "shifting.closure_s": per(own("shifting.shifted_closure")),
        "shifting.closure_incl_s": per(agg.get("shifting.shifted_closure", [0, 0.0, 0.0])[2]),
        "shifting.closure_steps": per(c("shifting.closure_steps")),
        "shifting.moved_edges": per(c("shifting.moved_edges")),
        "shifting.shift_calls": per(c("shifting.shift_calls")),
        "shifting.effective_shift_ratio": _ratio(c("shifting.effective_shifts"),
                                                 c("shifting.shift_calls")),
        "shifting.pullback_calls": per(calls("shifting.pullback_rainbow")),
        "shifting.pullback_s": per(own("shifting.pullback_rainbow")),
        "shifting.is_shifted_s": per(own("shifting.is_shifted")),
        "core.hypergraph_builds": per(calls("core.Hypergraph")),
        "core.hypergraph_s": per(own("core.Hypergraph")),
        "core.family_builds": per(calls("core.Family")),
        "core.family_s": per(own("core.Family")),
        "core.rainbow_exact_calls": per(calls("core.rainbow_exact")),
        "core.rainbow_exact_s": per(own("core.rainbow_exact")),
        "core.rainbow_found_ratio": _ratio(c("core.rainbow_found"),
                                           calls("core.rainbow_exact")),
        "core.nu_exact_calls": per(calls("core.nu_exact")),
        "core.nu_exact_s": per(own("core.nu_exact")),
        "instances.parse_calls": per(calls("instances.parse_instance")),
        "instances.parse_bytes": per(c("instances.parse_bytes")),
        "instances.parse_s": per(own("instances.parse_instance")),
        "instances.serialize_s": per(own("instances.serialize_instance")
                                     + own("instances.Instance.to_dict")),
        "cli.self_s": per(own("cli.main")),
        "verify.check_s": per(own("verify.check_conjecture")),
        "verify.trials": per(c("verify.trials")),
        "verify.counterexamples": per(c("verify.counterexamples")),
        "verify.ideals": per(c("verify.ideals")),
        "verify.enumerate_s": per(own("verify._ideal_dfs")),
        "verify.threshold_s": per(own("verify.compute_threshold_exact")),
        "verify.matrix_check_s": per(own("verify.check_matrix_conjecture")),
    }
    solver_calls = solver_ok = 0
    for name in SOLVERS:
        m[f"solvers.{name}_calls"] = per(calls(f"solvers.{name}"))
        m[f"solvers.{name}_s"] = per(own(f"solvers.{name}"))
        solver_calls += calls(f"solvers.{name}")
        solver_ok += c(f"solvers.{name}_ok")
    m["solvers.success_ratio"] = _ratio(solver_ok, solver_calls)
    layers = layer_self(agg)
    for layer in LAYERS:
        m[f"layer.{layer}_s"] = per(layers[layer])
    m["process.startup_s"] = per(startup_s)
    m["trace.request_s"] = per(traced_s)
    m["trace.untraced_s"] = per(untraced_s)
    m["trace.overhead_s"] = per(traced_s - untraced_s)
    m["trace.accounted_ratio"] = _ratio(sum(layers.values()) + startup_s, traced_s)
    return m
