#!/usr/bin/env python3
"""Time the estimate path of two checkouts in one process, round by round.

usage: inprocess_ab.py PARENT CHANGE --seed S --rounds N

Each checkout's ``src`` and ``perfbench/gen.py`` are imported in turn into
this one process; ``phyenergy*`` and ``gen`` leave ``sys.modules`` between
the two, so each side keeps its own functions and its own copy of the
seeded ``sweep-grid`` pool (``gen.scenario_pool(S, 300)``).

The script first renders the estimate text of every pool scenario on both
sides and stops with exit status 1 unless the two are byte-identical.  It
then runs N rounds.  In each, both sides cost the whole pool once, the side
that goes first alternating from round to round, and one operation is
``derive`` -> ``tally_pipeline`` -> ``build_report`` ->
``render_estimate_text``, as in perfbench's ``sweep-grid``.  It prints
through ``bench_pairs.summarize`` each side's median and quartiles of the
time per operation, and the quartiles of the per-round ratios (change over
parent, with the parent at 1 in every round).  A reading taken this way
shares the process, the host's load and its drift between the sides, so it
resolves a per-layer change that separate benchmark runs cannot.

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


def load(root: str, seed: int) -> dict:
    """The estimate path of checkout ``root`` and its pool, then a clean
    ``sys.modules`` for the next checkout."""
    paths = [os.path.join(os.path.abspath(root), part)
             for part in ("src", "perfbench")]
    sys.path[:0] = paths
    try:
        import gen
        from phyenergy.cli import render_estimate_text
        from phyenergy.costmodel import (EnergyParams, build_report,
                                         load_default_cost_table)
        from phyenergy.opcount import tally_pipeline
        from phyenergy.scenario import derive
        side = dict(pool=gen.scenario_pool(seed, POOL),
                    table=load_default_cost_table(), derive=derive,
                    tally_pipeline=tally_pipeline, build_report=build_report,
                    energy=EnergyParams, render=render_estimate_text)
    finally:
        del sys.path[:len(paths)]
        for name in [name for name in sys.modules
                     if name == "gen" or name == "phyenergy"
                     or name.startswith("phyenergy.")]:
            del sys.modules[name]
    return side


def texts(side: dict) -> list[str]:
    """The estimate text of each pool scenario."""
    return [side["render"](side["build_report"](
        side["tally_pipeline"](s), side["table"],
        side["energy"](kappa=s.kappa, clock_hz=s.clock_hz), scenario=s))
        for s in side["pool"]]


def time_pool(side: dict) -> float:
    """Microseconds per operation over one pass of the pool."""
    pool, table = side["pool"], side["table"]
    derive, tally_pipeline = side["derive"], side["tally_pipeline"]
    build_report, energy = side["build_report"], side["energy"]
    render = side["render"]
    gc.collect()
    t0 = time.perf_counter()
    for s in pool:
        derive(s)
        render(build_report(tally_pipeline(s), table,
                            energy(kappa=s.kappa, clock_hz=s.clock_hz),
                            scenario=s))
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
          f"{POOL} scenarios, derive -> tally_pipeline -> build_report"
          " -> render_estimate_text")
    print_summary(runs, {"op_us": "lower", "round_ratio": "lower"}, {})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
