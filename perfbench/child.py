"""One cold benchmark process: set up, run one pass of items, report as JSON.

`run.py` starts it as ``python3 -B perfbench/child.py`` and writes its spec,
``{"workload", "items", "trace", "setup_only"}``, to stdin.  The child prints
one JSON line.  Set-up ends at ``t_ready`` (a `time.monotonic` stamp, which
is system-wide, so the parent can subtract its own spawn stamp).  The host's
speed is sampled throughout (`hostspeed`); the pass's ``run_s`` and
``cpu_s`` are scaled to the reference speed, and the scale factors, the raw
times and the sampling time of set-up are reported beside them.

jetcalc is always compiled from source, ignoring any cached bytecode, so
every process pays the same cold start as a first CLI call, whatever
``__pycache__`` directories the checkout holds.
"""

from __future__ import annotations

import importlib.machinery
import json
import os
import resource
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class _SourceOnlyLoader(importlib.machinery.SourceFileLoader):
    def get_code(self, fullname):
        path = self.get_filename(fullname)
        return self.source_to_code(self.get_data(path), path)


class _SourceOnlyFinder:
    """Finds jetcalc modules as usual but loads them with _SourceOnlyLoader."""

    @classmethod
    def find_spec(cls, name, path=None, target=None):
        if name != "jetcalc" and not name.startswith("jetcalc."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is not None and isinstance(spec.loader, importlib.machinery.SourceFileLoader):
            spec.loader = _SourceOnlyLoader(spec.loader.name, spec.loader.path)
        return spec


def main() -> None:
    speed = hostspeed.HostSpeed()
    speed.start()
    spec = json.load(sys.stdin)
    sys.meta_path.insert(0, _SourceOnlyFinder)
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    env = workloads.Env(spec["workload"])
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer(clock=speed.wall)
        bound = tracer.install()
    env.set_up()
    out = {"t_ready": time.monotonic(), "setup_sampling_s": speed.spent_wall}
    out["setup_speed"] = speed.take()
    if tracer is not None:
        out["setup_spans"] = {"self_s": dict(tracer.self_s), "calls": dict(tracer.calls)}
        tracer.reset()
    if not spec["setup_only"]:
        failures = {}
        cpu0, wall0 = speed.cpu(), speed.wall()
        for item in spec["items"]:
            try:
                workloads.run_item(env, item)
            except Exception as exc:  # any failure of an item is recorded and counted
                failures[item] = f"{type(exc).__name__}: {exc}"[:500]
        out["raw_run_s"] = speed.wall() - wall0
        out["raw_cpu_s"] = speed.cpu() - cpu0
        out["speed"] = speed.take()
        out["run_s"] = out["raw_run_s"] * out["speed"]["wall"]
        out["cpu_s"] = out["raw_cpu_s"] * out["speed"]["cpu"]
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["failures"] = failures
        if tracer is not None:
            out["spans"] = {"self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
                            "counters": tracer.counters, "bound": bound}
    speed.stop()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
