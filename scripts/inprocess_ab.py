#!/usr/bin/env python3
"""Time perfbench's estimate operation of two checkouts in one process.

usage: inprocess_ab.py PARENT CHANGE --seed S --rounds N

Each checkout's ``src`` and its ``perfbench`` modules ``gen``,
``workloads``, ``tracer`` and ``reference`` are imported in turn into this
one process; they and ``phyenergy*`` leave ``sys.modules`` between the
two, so each side keeps its own functions and its own copy of the seeded
``sweep-grid`` pool (``gen.scenario_pool(S, 300)``).

The script first renders the estimate text of every pool scenario on both
sides and stops with exit status 1 unless the two are byte-identical.  It
then runs N rounds.  In each, both sides cost the whole pool once, the side
that goes first alternating from round to round, and one operation is
``workloads.estimate_op`` with a ``tracer.NullTracer``: the operation that
perfbench's ``sweep-grid`` times.  It prints through
``bench_pairs.summarize`` each side's median and quartiles of the time per
operation, and the quartiles of the per-round ratios (change over parent,
with the parent at 1 in every round).  A reading taken this way shares the
process, the host's load and its drift between the sides, so it resolves a
per-layer change that separate benchmark runs cannot.

It writes nothing into either checkout (no bytecode either).  Standard
library only.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

sys.dont_write_bytecode = True      # before any import from a checkout

from bench_pairs import print_summary  # noqa: E402

POOL = 300      # scenarios per round
PERFBENCH = ("gen", "workloads", "tracer", "reference")   # imported per side


def load(root: str, seed: int) -> dict:
    """perfbench's estimate operation in checkout ``root``, its pool and
    cost table, then a clean ``sys.modules`` for the next checkout."""
    paths = [os.path.join(os.path.abspath(root), part)
             for part in ("src", "perfbench")]
    sys.path[:0] = paths
    try:
        import gen
        import workloads
        from phyenergy.costmodel import load_default_cost_table
        from tracer import NullTracer
        side = dict(pool=gen.scenario_pool(seed, POOL),
                    table=load_default_cost_table(),
                    op=workloads.estimate_op, tracer=NullTracer())
    finally:
        del sys.path[:len(paths)]
        for name in [name for name in sys.modules
                     if name in PERFBENCH or name == "phyenergy"
                     or name.startswith("phyenergy.")]:
            del sys.modules[name]
    return side


def texts(side: dict) -> list[str]:
    """The estimate text of each pool scenario."""
    return [side["op"](s, side["table"], side["tracer"])[2]
            for s in side["pool"]]


def time_pool(side: dict) -> float:
    """Microseconds per operation over one pass of the pool."""
    pool, table, op, tracer = (side["pool"], side["table"], side["op"],
                               side["tracer"])
    gc.collect()
    t0 = time.perf_counter()
    for s in pool:
        op(s, table, tracer)
    return (time.perf_counter() - t0) / len(pool) * 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    args = parser.parse_args()
    sides = {name: load(getattr(args, name), args.seed)
             for name in ("parent", "change")}

    rendered = {name: texts(side) for name, side in sides.items()}
    for i, (old, new) in enumerate(zip(rendered["parent"],
                                       rendered["change"])):
        if old != new:
            print(f"inprocess_ab: scenario {i} of the seed-{args.seed} pool "
                  "renders differently:", file=sys.stderr)
            print(sides["parent"]["pool"][i], file=sys.stderr)
            return 1
    print(f"seed {args.seed}: {POOL} estimate texts byte-identical")

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        us = {name: time_pool(sides[name]) for name in order}
        runs["parent"].append({"op_us": us["parent"], "round_ratio": 1.0})
        runs["change"].append({"op_us": us["change"],
                               "round_ratio": us["change"] / us["parent"]})
    print(f"seed {args.seed}, {args.rounds} alternating rounds of "
          f"{POOL} scenarios, perfbench's workloads.estimate_op")
    print_summary(runs, {"op_us": "lower", "round_ratio": "lower"}, {})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
