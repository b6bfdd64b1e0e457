#!/usr/bin/env python3
"""Benchmark two checkouts in alternating pairs and compare their metrics.

usage: bench_pairs.py PARENT CHANGE --workload W --seed S --seconds T
                      --pairs N [--trace {0,1}]
       bench_pairs.py PARENT CHANGE --setup-probes N

Each run is one ``perfbench/run.py`` process, started in the root of its
checkout; runs go one at a time, and the side that runs first alternates
from pair to pair.  A run whose last line reports ``failed`` other than 0,
or ``correct`` false, stops the script with exit status 1.

The metrics compared are those CHANGE's ``BENCHMARK.json`` lists: the
end-to-end ones, or with ``--trace 1`` the per-layer ones.  For each, the
script prints every pair, then each side's median and quartiles, the ratio
of the medians (change over parent) and in how many pairs the change was
better.  An end-to-end metric also shows the regression gate: how much
worse the change's median is than the parent's, relative to the parent's
(negative when it is better), next to the metric's ``bound``, marked
``> bound`` when it passes it.  Per-layer metrics have no bound, and show
``-``.

With ``--setup-probes N`` the script instead runs the set-up probe of
CHANGE's ``perfbench/run.py`` (its ``SETUP_PROBE`` text) N times per side,
each in a fresh interpreter started in the root of its checkout, with the
side that runs first alternating.  Each side's probe runs in the
environment perfbench gives its children: ``PYTHONPATH`` led by
``<side>/src`` and no ``PHYENERGY_COST_TABLE``.  It prints the same
summary for ``setup_s`` (with its bound) and ``import_s``: a single
``setup_s`` reading is the median of nine probes, so a few benchmark
pairs resolve it poorly.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys


def summarize(parent: list[float], change: list[float], better: str,
              bound: float | None = None) -> dict:
    """Median and quartiles of each side's values, the ratio of the medians,
    the pairs the change won and, with a ``bound``, the regression gate:
    ``worse``, the relative change of the median in the worse direction, and
    whether it is past the bound.  ``parent[i]`` and ``change[i]`` are pair
    ``i``, and ``better`` is ``"higher"`` or ``"lower"``."""
    def spread(values):
        if len(values) == 1:
            return values[0], values[0], values[0]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return q1, median, q3

    won = sum(c > p if better == "higher" else c < p
              for p, c in zip(parent, change))
    parent_q, change_q = spread(parent), spread(change)
    ratio = change_q[1] / parent_q[1] if parent_q[1] else None
    worse = None
    if bound is not None and ratio is not None:
        worse = 1 - ratio if better == "higher" else ratio - 1
    return {"parent": parent_q, "change": change_q, "ratio": ratio,
            "won": won, "pairs": len(parent), "worse": worse,
            "past_bound": worse is not None and worse > bound}


def run_once(root: str, args: argparse.Namespace) -> dict:
    """One benchmark run in checkout ``root``: its last line's metrics."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if (done.returncode or result.get("failed") != 0
            or result.get("correct") is not True):
        sys.stderr.write(done.stdout + done.stderr)
        print(f"bench_pairs: run in {root} failed: exit {done.returncode}, "
              f"correct {result.get('correct')}, failed "
              f"{result.get('failed')}", file=sys.stderr)
        raise SystemExit(1)
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def setup_probe(root: str) -> str:
    """The ``SETUP_PROBE`` text of ``root``'s ``perfbench/run.py``."""
    path = os.path.join(root, "perfbench", "run.py")
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "SETUP_PROBE"):
            return ast.literal_eval(node.value)
    raise SystemExit(f"bench_pairs: {path} assigns no SETUP_PROBE")


def probe_env(root: str) -> dict:
    """perfbench's environment for a child of checkout ``root``: its
    ``src`` first on ``PYTHONPATH``, and no ``PHYENERGY_COST_TABLE``."""
    env = {k: v for k, v in os.environ.items() if k != "PHYENERGY_COST_TABLE"}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.abspath(root), "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def probe_once(root: str, code: str) -> dict:
    """One set-up probe in a fresh interpreter: its ``setup_s`` and
    ``import_s``."""
    done = subprocess.run([sys.executable, "-c", code], cwd=root,
                          env=probe_env(root), capture_output=True,
                          text=True, timeout=60)
    if done.returncode:
        sys.stderr.write(done.stdout + done.stderr)
        print(f"bench_pairs: set-up probe in {root} failed: exit "
              f"{done.returncode}", file=sys.stderr)
        raise SystemExit(1)
    result = json.loads(done.stdout.splitlines()[-1])
    return {name: result[name] for name in ("setup_s", "import_s")}


def print_summary(runs: dict[str, list[dict]], better: dict[str, str],
                  bounds: dict[str, float | None]) -> None:
    """One line per metric: :func:`summarize` over the pairs in ``runs``."""
    print(f"{'metric':28s} {'better':6s} {'parent q1/median/q3':>32s}  "
          f"{'change q1/median/q3':>32s}  {'ratio':>6s}  won    "
          "worse / bound")
    for name, direction in better.items():
        s = summarize([run[name] for run in runs["parent"]],
                      [run[name] for run in runs["change"]], direction,
                      bounds.get(name))
        sides = ["/".join(f"{v:.4g}" for v in s[side])
                 for side in ("parent", "change")]
        ratio = "-" if s["ratio"] is None else f"{s['ratio']:.3f}"
        gate = "-" if s["worse"] is None else (
            f"{s['worse']:+.1%} / {bounds[name]:.1%}"
            + ("  > bound" if s["past_bound"] else ""))
        won = f"{s['won']}/{s['pairs']}"
        print(f"{name:28s} {direction:6s} {sides[0]:>32s}  {sides[1]:>32s}  "
              f"{ratio:>6s}  {won:5s}  {gate}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probes", type=int, metavar="N")
    args = parser.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        contract = json.load(f)
    runs: dict[str, list[dict]] = {"parent": [], "change": []}

    if args.setup_probes is not None:
        bound = next(m.get("bound") for m in contract["end_to_end"]
                     if m["name"] == "setup_s")
        code = setup_probe(args.change)
        for probe in range(args.setup_probes):
            order = (("parent", "change") if probe % 2 == 0
                     else ("change", "parent"))
            for side in order:
                runs[side].append(probe_once(getattr(args, side), code))
        print(f"set-up probe, {args.setup_probes} alternating runs per side")
        print_summary(runs, {"setup_s": "lower", "import_s": "lower"},
                      {"setup_s": bound})
        return 0

    missing = [flag for flag in ("workload", "seed", "seconds", "pairs")
               if getattr(args, flag) is None]
    if missing:
        parser.error("the following arguments are required: " + ", ".join(
            f"--{flag}" for flag in missing) + " (or --setup-probes)")
    declared = contract["per_layer" if args.trace else "end_to_end"]
    better = {m["name"]: m["better"] for m in declared}
    bounds = {m["name"]: m.get("bound") for m in declared}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args))
        print(f"pair {pair + 1} ({order[0]} first): " + "  ".join(
            f"{name} {runs['parent'][-1][name]:.6g} -> "
            f"{runs['change'][-1][name]:.6g}" for name in better))

    print(f"\n{args.workload} seed {args.seed}, {args.seconds:g} s, "
          f"{args.pairs} pairs, trace {args.trace}")
    print_summary(runs, better, bounds)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
