"""Run one jetcalc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {chi,verify,derive,all} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run from anywhere inside a checkout that holds ``src/jetcalc``.  Every pass
over the workload's items runs in a fresh interpreter (`child.py`), one at a
time, so each pays the cold start of a CLI call.  With ``--trace 0`` it
runs passes until the next one would end after ``--seconds``, with a few
set-up-only processes before and after them, and reports medians.  With
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the seed, the sampled item ids, ``nproc``, the Python version and
``failed_frac``.

Every time is in seconds at the reference host speed: the child samples the
host's speed while it works and scales what it measured (`hostspeed`).  The
record line carries the raw medians and the scale factors too.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

SETUP_PROBES = 3  # before and again after the passes
# every invocation must end within 180 s; children are killed before that
TIME_LIMIT_S = 170.0


class ChildFailed(Exception):
    pass


def run_child(spec: dict, limit_at: float) -> dict:
    """Run one cold child process; adds its set-up and wall time."""
    timeout = limit_at - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("time limit reached before the child could start")
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, "-B", CHILD], input=json.dumps(spec),
                              capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child killed after {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"child exited with {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["raw_setup_s"] = out["t_ready"] - spawned - out["setup_sampling_s"]
    out["setup_s"] = out["raw_setup_s"] * out["setup_speed"]["wall"]
    out["wall_s"] = time.monotonic() - spawned
    return out


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, items: list, seconds: float, limit_at: float):
    """Untraced: passes while the next one fits, between set-up probes."""
    start = time.monotonic()
    base = {"workload": workload, "items": items, "trace": False}

    def probes():
        return [run_child(dict(base, setup_only=True), limit_at)
                for _ in range(SETUP_PROBES)]

    # probes before and after the passes sample more of the machine's
    # speed swings than one burst would
    setups = probes()
    passes = []
    while True:
        r = run_child(dict(base, setup_only=False), limit_at)
        passes.append(r)
        setups.append(r)
        if time.monotonic() - start + r["wall_s"] > seconds:
            break
    setups += probes()
    def median(runs, key):
        return statistics.median(r[key] for r in runs)

    metrics = {
        "run_s": metric(median(passes, "run_s"), "s"),
        "cpu_s": metric(median(passes, "cpu_s"), "s"),
        "setup_s": metric(median(setups, "setup_s"), "s"),
        "peak_rss_mb": metric(median(passes, "rss_mb"), "MB"),
    }
    raw = {key: median(runs, key) for runs, key in ((passes, "raw_run_s"),
                                                     (passes, "raw_cpu_s"),
                                                     (setups, "raw_setup_s"))}
    speed = {"run": statistics.median(p["speed"]["wall"] for p in passes),
             "cpu": statistics.median(p["speed"]["cpu"] for p in passes),
             "setup": statistics.median(r["setup_speed"]["wall"] for r in setups)}
    return passes, metrics, {"setup_samples": len(setups), "raw": raw, "speed": speed}


def measure_traced(workload: str, items: list, limit_at: float):
    """One untraced and one traced pass; per-layer spans from the traced one."""
    base = {"workload": workload, "items": items, "setup_only": False}
    plain = run_child(dict(base, trace=False), limit_at)
    traced = run_child(dict(base, trace=True), limit_at)
    spans, setup_spans = traced["spans"], traced["setup_spans"]
    run_s = traced["run_s"]
    # span times scale by their own phase's factor, like the times they split
    scale, setup_scale = traced["speed"]["wall"], traced["setup_speed"]["wall"]
    self_s = {k: v * scale for k, v in spans["self_s"].items()}
    metrics = {}
    for name in tracing.SPANS:
        metrics[f"{name}.self_s"] = metric(self_s.get(name, 0.0), "s")
        metrics[f"{name}.calls"] = metric(spans["calls"].get(name, 0), "count")
    for name in tracing.SETUP_SPANS:
        metrics[f"{name}.setup_self_s"] = metric(
            setup_spans["self_s"].get(name, 0.0) * setup_scale, "s")
        metrics[f"{name}.setup_calls"] = metric(setup_spans["calls"].get(name, 0), "count")
    for layer in tracing.LAYERS:
        own = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        metrics[f"{layer}.share"] = metric(own / run_s, "ratio")
    for name in tracing.COUNTERS:
        metrics[name] = metric(spans["counters"][name], "count")
    self_sum = sum(self_s.values())
    metrics["trace.run_s"] = metric(run_s, "s")
    metrics["trace.untraced_run_s"] = metric(plain["run_s"], "s")
    metrics["trace.overhead_s"] = metric(run_s - plain["run_s"], "s")
    metrics["trace.setup_s"] = metric(traced["setup_s"], "s")
    metrics["trace.span_self_sum_s"] = metric(self_sum, "s")
    extra = {"bound": spans["bound"], "spans_within_run": self_sum <= run_s}
    return [plain, traced], metrics, extra


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> None:
    limit_at = time.monotonic() + TIME_LIMIT_S
    items = workloads.sample(workload, seed, smoke)
    if trace:
        passes, metrics, extra = measure_traced(workload, items, limit_at)
    else:
        passes, metrics, extra = measure(workload, items, seconds, limit_at)
    attempted = len(items) * len(passes)
    failures = {}
    for p in passes:
        for item, why in p["failures"].items():
            failures.setdefault(item, why)
    failed = sum(len(p["failures"]) for p in passes)
    correct = failed == 0 and extra.get("spans_within_run", True)
    record = {
        "workload": workload, "seed": seed, "trace": trace, "smoke": smoke,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "items": items, "passes": len(passes), "pass_run_s": [p["run_s"] for p in passes],
        "failed_frac": metric(failed / attempted, "ratio"),
        "failed_items": failures, **extra,
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one cheap item per kind, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "jetcalc", "__init__.py")):
        print(f"run.py: no jetcalc sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
