#!/usr/bin/env python3
"""phyenergy benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a phyenergy checkout.  The package is imported from
``src/`` of that checkout; nothing is installed.  One client runs each
workload closed loop: the next operation starts when the previous one
has finished.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run is traced and the metrics are the per-layer ones, and every
span is written to ``.perfbench_work/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REQUIRED = ("src/phyenergy/__init__.py", "configs/reference.yaml",
            "configs/filter_example.yaml", "configs/tombaz.yaml")

# Every end-to-end metric an untraced run prints, with its unit.  Times
# of operations are given in units of the reference run timed next to
# them (see workloads.py); absolute times are printed alongside and
# reported as per-layer metrics.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB",
              "throughput_per_ref": "items/ref", "op_per_ref.p50": "ref"}

SETUP_RUNS = 3       # fresh set-up interpreters at each of three points
WARMUP_S = 1.5

# Program set-up in a fresh interpreter: package import, default cost
# table and (for compare-ingest) the filter config.  The first base-graph
# lookup is timed after set-up, as a layer metric.
SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import phyenergy.cli
t1 = time.perf_counter()
from phyenergy import costmodel, ingest
costmodel.load_default_cost_table()
if len(sys.argv) > 1:
    ingest.load_filter_config(sys.argv[1])
t2 = time.perf_counter()
from phyenergy.scenario import select_base_graph
select_base_graph(8000, 800)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0,
                  "bg_first_s": t3 - t2}))
"""


def provenance() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        sha = ref
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count(), "git_sha": sha,
            "loadavg_start": os.getloadavg()}


def fresh_interpreters(code: str, args: list[str], runs: int, env) -> list:
    """Run ``python -c code`` in ``runs`` fresh interpreters, one at a time;
    return (wall seconds, parsed last stdout line) for each."""
    out = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        wall = time.perf_counter() - t0
        lines = proc.stdout.splitlines()
        out.append((wall, json.loads(lines[-1]) if lines else None))
    return out


def window(wl, tr, seconds: float, total):
    """Run repeats of ``wl`` for ``seconds``; fold its checks into total."""
    w = type(total)()
    end = time.perf_counter() + seconds
    while True:
        wl.repeat(tr, w)
        if time.perf_counter() >= end:
            break
    total.absorb(w)
    return w


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print("perfbench: not a phyenergy checkout, missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import layers
    import workloads
    from tracer import NullTracer, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2

    prov = provenance()
    goldens = json.loads((HERE / "goldens.json").read_text())
    wl = workloads.make(args.workload, ROOT, WORK, args.seed, goldens)
    env = workloads.child_env(ROOT)
    filter_arg = ([str(wl.filter_path)] if hasattr(wl, "filter_path") else [])

    def set_up_fresh():
        return [r for _, r in fresh_interpreters(SETUP_PROBE, filter_arg,
                                                  SETUP_RUNS, env)]

    # Set-up is timed at three points of the run, so that its median
    # sees the host as the whole run does.
    setup = set_up_fresh()
    out = workloads.Outcome()
    wl.verify(out)
    window(wl, NullTracer(), WARMUP_S, out)
    setup += set_up_fresh()

    if not args.trace:
        w = window(wl, NullTracer(), args.seconds, out)
        setup += set_up_fresh()
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in setup),
            "peak_rss_mb": wl.peak_rss_mb(),
            "throughput_per_ref": w.throughput_per_ref(),
            "op_per_ref.p50": statistics.median(w.rel),
        }
        metrics = {name: (values[name], unit)
                   for name, unit in END_TO_END.items()}
        absolute = {"throughput_per_s": statistics.median(w.rates),
                    "op_ms.p50": statistics.median(w.latencies_ms),
                    "ref_ms": statistics.median(w.ref_ms)}
    else:
        plain = window(wl, NullTracer(), args.seconds / 2, out)
        tr = Tracer()
        traced = window(wl, tr, args.seconds / 2, out)
        setup += set_up_fresh()
        n_ops = tr.op
        values = layers.self_times(tr, n_ops)
        values.update(layers.probe(tr, ROOT, args.seed, WORK))
        values.update(layers.span_metrics(tr))
        starts = fresh_interpreters("pass", [], 3 * SETUP_RUNS, env)
        base = plain.throughput_per_ref()
        values.update({
            "scenario.base_graph_first_ms":
                statistics.median(r["bg_first_s"] for r in setup) * 1e3,
            "cli.import_ms": statistics.median(r["import_s"] for r in setup) * 1e3,
            "cli.interp_start_ms": statistics.median(w for w, _ in starts) * 1e3,
            "run.throughput_per_s": statistics.median(plain.rates),
            "run.op_ms.p50": statistics.median(plain.latencies_ms),
            "run.op_ms.p90": layers.quantile(plain.latencies_ms, 90),
            "run.op_ms.p99": layers.quantile(plain.latencies_ms, 99),
            "run.ref_ms": statistics.median(plain.ref_ms),
            "trace.overhead_pct":
                (base - traced.throughput_per_ref()) / base * 100,
        })
        absolute = {}
        metrics = {name: (values[name], unit)
                   for name, unit in layers.PER_LAYER.items()}
        tr.write(WORK / f"trace-{args.workload}-{args.seed}.json",
                 {"workload": args.workload, "seed": args.seed,
                  "provenance": prov, "coverage": wl.coverage(),
                  "metrics": {k: v for k, (v, _) in metrics.items()}})

    print(f"workload: {args.workload}  seed: {args.seed}")
    print("provenance: " + json.dumps(prov))
    print("coverage: " + json.dumps(wl.coverage()))
    for what in out.failures:
        print(f"FAILED: {what}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for name, value in absolute.items():
        print(f"  ({name:30s} {value:14.6g})")
    print(json.dumps({
        "correct": out.failed == 0, "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
