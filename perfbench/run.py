#!/usr/bin/env python3
"""End-to-end benchmark of the rainbowmatch command line.

Usage:
    python3 perfbench/run.py --workload {solve,verify-random,exact}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. Each request is one
``python -m rainbowmatch`` process, started with PYTHONPATH=<root>/src and
timed from spawn to exit by this single client, which starts the next
request only after the previous one has exited (a closed loop). Whole
rounds of the workload's request list run until S seconds have passed,
and at least three when untraced. Every output is checked by code
independent of the library.

--trace 0 prints the end-to-end metrics. --trace 1 runs every request
twice, untraced and then through traced_cli.py, and prints the per-layer
metrics. The last line of standard output is one JSON object; a record
with provenance goes to .perfbench_out/ in the checkout. See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import spans
import validate
import workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_ARGV = ["extremal", "--name", "star", "--n", "3", "--r", "2", "--k", "2",
              "--format", "json"]
SETUP_EVERY = 4  # a cold-start probe runs after every fourth request
# An untraced run measures at least this many whole rounds, so each of its
# request mixes repeats and the tail percentile rests on 40 samples or more.
MIN_ROUNDS = 3
REQUEST_TIMEOUT_S = 20  # requests are sized at 0.1 to 2 s
# No request starts after this many seconds of measuring, so that a run
# whose requests slow down or time out still ends within three minutes.
MAX_LOOP_S = 120
TAIL_BEYOND = 10
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# The speed of a shared host drifts by 20% and more, in phases that can
# outlast a whole run. A reference process, a cold interpreter that runs a
# fixed loop and no program code, is timed between requests and tracks that
# drift. End-to-end times are scaled by NOMINAL_REFERENCE_S over the mean
# reference time just before and after each request: they read as at the
# speed where the reference takes NOMINAL_REFERENCE_S.
NOMINAL_REFERENCE_S = 0.06
REFERENCE_CODE = """
table = {}
for i in range(20_000):
    key = (i & 255, i % 7)
    table[key] = table.get(key, 0) + i
sorted(table.items(), key=lambda kv: -kv[1])
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # fixed string hashing, so set and dict layouts repeat from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def check_package(env: dict) -> str:
    """Path of the rainbowmatch package the children import; refuses any
    package other than the one in this checkout's src/."""
    src = (ROOT / "src" / "rainbowmatch").resolve()
    if not (src / "__init__.py").is_file():
        raise BenchError(f"no rainbowmatch package under {ROOT / 'src'}")
    proc = subprocess.run(
        [sys.executable, "-c", "import rainbowmatch; print(rainbowmatch.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"cannot import rainbowmatch: {proc.stderr.strip()[-300:]}")
    found = Path(proc.stdout.strip()).resolve().parent
    if found != src:
        raise BenchError(f"rainbowmatch resolves to {found}, not {src}")
    return str(found)


def git_state() -> dict:
    """The commit measured and whether the tree differs from it; both are
    None outside a git repository."""
    def git(*args: str) -> str | None:
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout if proc.returncode == 0 else None

    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    sha, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    return {"sha": sha.strip() if sha else None,
            "dirty": None if status is None else bool(status.strip())}


def provenance(args, input_dir: Path, package: str) -> dict:
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(input_dir.iterdir())}
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **git_state(), "package": package,
            "python": platform.python_version(), "cpu_count": os.cpu_count(),
            "inputs_sha256": hashes}


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics, weighted by the Beta(q(n+1), (1-q)(n+1)) mass over each
    rank's interval. Unlike one order statistic it moves smoothly when two
    neighbouring samples swap, so a gap between the costs of two request
    kinds does not make the estimate jump from run to run."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    if a <= 1 or b <= 1:
        return ordered[min(n - 1, max(0, math.ceil(q * n) - 1))]
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    steps = 16  # Simpson's rule per rank interval
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        lo = i / n
        inner = sum((4 if j % 2 else 2) * density(lo + j * h) for j in range(1, steps))
        weights.append(density(lo) + inner + density(lo + steps * h))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) for the highest percentile of
    TAIL_PERCENTILES that leaves at least TAIL_BEYOND samples beyond its
    nearest rank; the value is its Harrell-Davis estimate. With too few
    samples for any, the maximum at 100.

    A fixed ladder keeps the percentile, and so the value, the same when a
    run completes one round more or fewer: whole rounds fix the mix."""
    n = len(values)
    for pct in reversed(TAIL_PERCENTILES):
        if n - math.ceil(round(pct * n / 100, 9)) >= TAIL_BEYOND:
            return hd_quantile(values, pct / 100), pct, n
    return max(values), 100.0, n


def reference_s() -> float:
    """Wall time of the reference process; -I keeps it away from
    PYTHONPATH, so it never loads program code."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", REFERENCE_CODE], check=True,
                   capture_output=True, timeout=REQUEST_TIMEOUT_S)
    return time.perf_counter() - start


class Runner:
    """Starts request processes one at a time and checks their outputs."""

    def __init__(self, input_dir: Path, env: dict) -> None:
        self.input_dir = input_dir
        self.env = env
        self.attempted = 0
        self.failures: list[str] = []
        self.reports: dict[str, dict] = {}
        self.reference = reference_s()

    def spawn(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess | None]:
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *argv], cwd=self.input_dir,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=REQUEST_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        return time.perf_counter() - start, proc

    def request(self, req: workload.Request, round_no: int,
                spans_path: Path | None = None) -> tuple[float, float]:
        """Run req once (through the tracer when spans_path is given) and
        check its answer. Returns its wall time and the mean reference
        time just before and just after it."""
        if spans_path is None:
            argv = ["-m", "rainbowmatch", *req.argv]
        else:
            argv = [str(BENCH_DIR / "traced_cli.py"), str(spans_path),
                    f"{round_no}:{req.name}", *req.argv]
        before = self.reference
        wall, proc = self.spawn(argv)
        if spans_path is None:
            self.reference = reference_s()
        self.attempted += 1
        if proc is None:
            error = f"timed out after {REQUEST_TIMEOUT_S} s"
        else:
            error = validate.check_output(req, proc.returncode, proc.stdout, proc.stderr)
        if error is None and "pair" in req.expect:
            error = self._compare_pair(req, json.loads(proc.stdout))
        if error is not None:
            self.failures.append(f"{req.name}{' (traced)' if spans_path else ''}: {error}")
        return wall, (before + self.reference) / 2

    def _compare_pair(self, req: workload.Request, report: dict) -> str | None:
        """Every report of one random job, at any worker count, traced or
        not, must agree with the first one."""
        first = self.reports.setdefault(req.expect["pair"], report)
        if first is not report and not validate.same_report(first, report):
            return "report differs from an earlier run of the same job"
        return None


SETUP_PROBE = workload.Request("setup-star", "setup", SETUP_ARGV,
                               {"instance": workload.star(3, 2, 2)})


def run_loop(runner: Runner, requests: list, seconds: float, trace: bool,
             trace_dir: Path) -> dict:
    """Whole rounds of requests until seconds have passed. An untraced run
    measures at least MIN_ROUNDS rounds and a cold-start probe after every
    SETUP_EVERY requests. A traced run follows each request with its traced
    twin, except the --workers 2 jobs, and needs only one round."""
    samples: list[dict] = []
    setup: list[tuple[float, float]] = []
    traced: list[dict] = []
    runner.request(SETUP_PROBE, -1)  # fills the bytecode cache; not counted
    start = time.perf_counter()
    rounds = 0
    min_rounds = 1 if trace else MIN_ROUNDS
    stopped = False
    while not stopped and (rounds < min_rounds or time.perf_counter() - start < seconds):
        for req in requests:
            if time.perf_counter() - start > MAX_LOOP_S:
                runner.failures.append(f"stopped after {MAX_LOOP_S} s, in round {rounds + 1}")
                stopped = True
                break
            failed_before = len(runner.failures)
            wall, ref = runner.request(req, rounds)
            samples.append({"name": req.name, "cls": req.cls, "wall": wall, "ref": ref,
                            "expect": req.expect})
            if trace and req.expect.get("workers", 1) == 1:
                path = trace_dir / f"{rounds}-{req.name}.spans"
                traced_wall, _ = runner.request(req, rounds, path)
                if len(runner.failures) == failed_before:
                    traced.append({"name": req.name, "cls": req.cls, "wall": traced_wall,
                                   "untraced": wall, "spans": path})
            if not trace and len(samples) % SETUP_EVERY == 0:
                setup.append(runner.request(SETUP_PROBE, rounds))
        rounds += 1
    return {"samples": samples, "setup": setup, "traced": traced, "rounds": rounds,
            "elapsed": time.perf_counter() - start}


def normalised(wall: float, ref: float) -> float:
    return wall * NOMINAL_REFERENCE_S / ref


def work_rates(samples: list[dict]) -> dict:
    """Verify throughput of the untraced requests: random trials per second
    of process time at one and at two workers, exhaustive families per
    second, and pool efficiency = w2 rate / (2 x w1 rate). Times are at
    nominal speed."""
    done: dict = defaultdict(float)
    wall: dict = defaultdict(float)
    for s in samples:
        if s["cls"] == "random":
            key = f"w{s['expect']['workers']}"
            done[key] += s["expect"]["budget"]
        elif s["cls"] == "exhaustive":
            key = "exhaustive"
            done[key] += s["expect"]["instances_checked"]
        else:
            continue
        wall[key] += normalised(s["wall"], s["ref"])
    rate = {key: done[key] / wall[key] for key in done}
    w1, w2 = rate.get("w1", 0.0), rate.get("w2", 0.0)
    return {"verify.trials_per_s": w1, "verify.trials_per_s_w2": w2,
            "verify.families_per_s": rate.get("exhaustive", 0.0),
            "verify.pool_efficiency": w2 / (2 * w1) if w1 else 0.0}


def end_to_end(loop: dict) -> tuple[dict, dict]:
    """The end-to-end metrics, with times at nominal speed, and notes that
    give the raw readings."""
    setup = loop["setup"]
    walls = [normalised(s["wall"], s["ref"]) for s in loop["samples"]]
    raw = [s["wall"] for s in loop["samples"]]
    value, pct, n = tail(walls)
    metrics = {
        "setup_s": (statistics.median(normalised(*x) for x in setup), "s"),
        "requests_per_s": (len(walls) / sum(walls), "1/s"),
        "latency_p50_s": (hd_quantile(walls, 0.5), "s"),
        "latency_tail_s": (value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }
    ref = statistics.median(s["ref"] for s in loop["samples"])
    notes = {
        "setup_s": f"median of {len(setup)} cold starts; raw "
                   f"{statistics.median(w for w, _ in setup):.4f} s",
        "requests_per_s": f"raw {len(raw) / loop['elapsed']:.4f} per second of loop time",
        "latency_p50_s": f"raw {hd_quantile(raw, 0.5):.4f} s; reference median "
                         f"{ref * 1e3:.2f} ms, nominal {NOMINAL_REFERENCE_S * 1e3:.0f} ms",
        "latency_tail_s": f"p{pct:g} of {n} samples; raw {tail(raw)[0]:.4f} s",
    }
    return metrics, notes


def per_layer(loop: dict) -> tuple[dict, dict]:
    """Per-layer metrics per round from the traced requests, and each
    request class's layer shares of its traced time."""
    agg: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    counts: dict[str, int] = defaultdict(int)
    startup = traced_s = untraced_s = 0.0
    by_class: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for t in loop["traced"]:
        header, request_spans = spans.read_spans(str(t["spans"]))
        t["spans"].unlink()
        one = spans.aggregate(request_spans)
        for name, entry in one.items():
            for i, v in enumerate(entry):
                agg[name][i] += v
        for key, v in header["counts"].items():
            counts[key] += v
        own_startup = t["wall"] - spans.root_duration(request_spans)
        startup += own_startup
        traced_s += t["wall"]
        untraced_s += t["untraced"]
        shares = by_class[t["cls"]]
        for layer, own in spans.layer_self(one).items():
            shares[layer] += own
        closure = one.get("shifting.shifted_closure", [0, 0.0, 0.0])
        shares["shifting.closure_self"] += closure[1]
        shares["shifting.closure_incl"] += closure[2]
        shares["process.startup"] += own_startup
        shares["total"] += t["wall"]
    metrics = spans.layer_metrics(dict(agg), counts, loop["rounds"], startup,
                                  traced_s, untraced_s)
    metrics.update(work_rates(loop["samples"]))
    classes = {cls: {k: round(v / s["total"], 4) for k, v in s.items() if k != "total"}
               for cls, s in by_class.items()}
    return metrics, classes


# Unit of a per-layer metric, by the first matching name suffix.
UNITS = [("_per_s", "1/s"), ("_s_w2", "1/s"), ("_s", "s"), ("_ratio", "ratio"),
         ("efficiency", "ratio"), ("_bytes", "B")]


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = child_env()
    try:
        package = check_package(env)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT_DIR))
    try:
        requests = workload.build(args.workload, args.seed, work)
        prov = provenance(args, work, package)
        runner = Runner(work, env)
        loop = run_loop(runner, requests, args.seconds, bool(args.trace), work)
        if args.trace:
            values, classes = per_layer(loop)
            metrics = {name: (v, unit_of(name)) for name, v in values.items()}
            notes = {}
        else:
            metrics, notes = end_to_end(loop)
            classes = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{loop['rounds']} rounds, {len(loop['samples'])} requests in "
          f"{loop['elapsed']:.1f} s, python {prov['python']}, "
          f"{prov['cpu_count']} cpus, commit {prov['sha']} dirty={prov['dirty']}, "
          f"inputs {hashlib.sha256(json.dumps(prov['inputs_sha256']).encode()).hexdigest()[:16]}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {value:14.6g} {unit}{note}")
    if not args.trace:
        for name, value in work_rates(loop["samples"]).items():
            if value:
                print(f"  {name:34s} {value:14.6g} {unit_of(name)}  (not bounded)")
    for cls, shares in classes.items():
        print(f"  layer shares of traced time, {cls}: "
              + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    for failure in runner.failures:
        print(f"  FAILED {failure}")

    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": len(runner.failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": prov, "result": result, "notes": notes,
                                  "layer_shares": classes, "failures": runner.failures,
                                  "samples": [{k: s[k] for k in ("name", "wall", "ref")}
                                              for s in loop["samples"]]},
                                 indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
