"""Independent checks of the program's outputs.

Nothing here imports rainbowmatch: every answer is recomputed or confirmed
with the benchmark's own code, so a defect in the library cannot also hide
in its check. ``check_output`` returns None for a correct answer and a short
reason otherwise.
"""
from __future__ import annotations

import json
from itertools import product

from workload import Request, f_r2, g_formula


def matching_size(n: int, edges) -> int:
    """Maximum matching of a bipartite graph on [n] x [n], by augmenting paths."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
    match_w = [-1] * n

    def augment(a: int, seen: list[bool]) -> bool:
        stack = [(a, iter(adj[a]))]
        path: list[tuple[int, int]] = []
        while stack:
            u, it = stack[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    path.append((u, w))
                    if match_w[w] == -1:
                        for pu, pw in path:
                            match_w[pw] = pu
                        return True
                    stack.append((match_w[w], iter(adj[match_w[w]])))
                    break
            else:
                stack.pop()
                if path:
                    path.pop()
        return False

    return sum(augment(a, [False] * n) for a in range(n))


def hall_size_check(inst: dict) -> dict:
    """The Hall-type size condition: each prefix of the ascending sizes
    (ties by member index) must sum to more than n j (j-1)."""
    n = inst["n"]
    sizes = [len(m) for m in inst["families"]]
    order = sorted(range(len(sizes)), key=lambda i: (sizes[i], i))
    total = 0
    for j, idx in enumerate(order, start=1):
        total += sizes[idx]
        if total <= n * j * (j - 1):
            return {"ok": False, "witness": sorted(i + 1 for i in order[:j]),
                    "total": total, "bound": n * j * (j - 1)}
    return {"ok": True, "witness": None}


def _vertex_keys(kind: str, edge) -> list:
    return list(enumerate(edge)) if kind == "partite" else list(edge)


def matching_error(inst: dict, matching) -> str | None:
    """Why a 1-based matching is not a rainbow matching of inst, or None."""
    members = inst["families"]
    if not isinstance(matching, list) or len(matching) != len(members):
        return "matching does not pick one edge per member"
    seen: set = set()
    for i, raw in enumerate(matching):
        edge = tuple(v - 1 for v in raw)
        if edge not in set(members[i]):
            return f"edge {raw} is not in member {i + 1}"
        for key in _vertex_keys(inst["kind"], edge):
            if key in seen:
                return f"edge {raw} of member {i + 1} meets an earlier edge"
            seen.add(key)
    return None


def has_rainbow_matching(inst: dict) -> bool:
    """Brute force over one edge per member; for small counterexamples only."""
    kind = inst["kind"]
    for choice in product(*inst["families"]):
        keys = [k for e in choice for k in _vertex_keys(kind, e)]
        if len(keys) == len(set(keys)):
            return True
    return False


def _parse_instance(data: dict) -> dict:
    return {"kind": data["kind"], "r": data["r"], "n": data["n"],
            "families": [[tuple(v - 1 for v in e) for e in m] for m in data["families"]]}


def counterexample_error(conjecture: str, params: dict, data: dict) -> str | None:
    """Confirm that a reported counterexample meets the conjecture's
    hypothesis and has no rainbow matching."""
    inst = _parse_instance(data)
    n, r, k = params["n"], params["r"], params["k"]
    sizes = [len(m) for m in inst["families"]]
    if inst["n"] != n or len(sizes) != k:
        return "counterexample has the wrong n or member count"
    if conjecture == "degree_condition":
        d = params["d"]
        for m in inst["families"]:
            degrees: dict = {}
            for e in m:
                for key in enumerate(e):
                    degrees[key] = degrees.get(key, 0) + 1
            if len(m) <= (k - 1) * d or max(degrees.values()) > d:
                return "counterexample breaks the degree hypothesis"
    elif conjecture == "size_condition":
        if min(sizes) <= g_formula(n, r, k):
            return "counterexample breaks the size hypothesis"
    elif conjecture == "simple":
        if any(s < (i + 1) * n for i, s in enumerate(sorted(sizes))):
            return "counterexample breaks the simple hypothesis"
    elif conjecture == "rainbow_general" and r == 2:
        if min(sizes) <= f_r2(n, k):
            return "counterexample breaks the size hypothesis"
    if has_rainbow_matching(inst):
        return "reported counterexample has a rainbow matching"
    return None


def same_report(a: dict, b: dict) -> bool:
    """Reports agree once the wall-clock field is removed."""
    strip = lambda rep: {key: v for key, v in rep.items() if key != "elapsed"}
    return strip(a) == strip(b)


def check_output(req: Request, returncode: int, stdout: str, stderr: str) -> str | None:
    """None if the process answered req correctly, else the reason."""
    if "Traceback" in stderr:
        return "traceback on stderr"
    want_rc = 2 if req.expect.get("status") == "none" else 0
    if returncode != want_rc:
        return f"exit status {returncode}, expected {want_rc}: {stderr.strip()[-200:]}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    exp = req.expect
    if "status" in exp:
        if out.get("status") != exp["status"]:
            return f"status {out.get('status')!r}, expected {exp['status']!r}"
        if exp["status"] == "none":
            return None if out.get("matching") is None else "refutation carries a matching"
        return matching_error(req.instance, out.get("matching"))
    if "hall_check" in exp:
        want = hall_size_check(req.instance)
        got = {key: out.get(key) for key in want}
        return None if got == want else f"hall check {got}, expected {want}"
    if "nu" in exp:
        n = req.instance["n"]
        want = [matching_size(n, m) for m in req.instance["families"]]
        return None if out.get("values") == want else f"nu {out.get('values')}, expected {want}"
    if "value" in exp:
        return None if out.get("value") == exp["value"] else \
            f"threshold {out.get('value')}, expected {exp['value']}"
    if "instances_checked" in exp:
        if out.get("instances_checked") != exp["instances_checked"]:
            return (f"checked {out.get('instances_checked')} families, "
                    f"expected {exp['instances_checked']}")
        return None if out.get("counterexamples") == [] else "exhaustive run found counterexamples"
    if "budget" in exp:
        if out.get("instances_checked") != exp["budget"]:
            return f"checked {out.get('instances_checked')} trials, expected {exp['budget']}"
        for data in out.get("counterexamples", []):
            err = counterexample_error(exp["conjecture"], exp["params"], data)
            if err:
                return err
        return None
    if "instance" in exp:
        got = _parse_instance(out)
        return None if got == exp["instance"] else "construction differs from the expected instance"
    return "request has no check"
