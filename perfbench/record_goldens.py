#!/usr/bin/env python3
"""Record perfbench/goldens.json from the checkout this file sits in.

The goldens pin the program's output byte for byte: the sha256 of the
stdout of each cli-cold command, and one sha256 over the rendered
estimate text of every scenario in the sweep-grid pool at seed 0.
Every benchmark run checks them.  Re-record only for a change that is
meant to alter output, and say so in CHANGES.md.

usage: python3 perfbench/record_goldens.py
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import workloads  # noqa: E402
from phyenergy import costmodel  # noqa: E402


def main() -> None:
    table = costmodel.load_default_cost_table()
    pool = gen.scenario_pool(workloads.GOLDEN_SEED, workloads.SWEEP_POOL)
    goldens = {"sweep-grid": {
        "seed": workloads.GOLDEN_SEED, "scenarios": len(pool),
        "sha256": workloads.pool_digest(pool, table)}}
    for command in workloads.CLI_COMMANDS:
        wl = workloads.CliCold(ROOT, ROOT / ".perfbench_work",
                               workloads.GOLDEN_SEED, {}, command)
        _, code, stdout, stderr, _ = wl.run_once()
        if code != 0 or stderr:
            raise SystemExit(f"{wl.name} failed: exit {code}: {stderr!r}")
        goldens[wl.name] = hashlib.sha256(stdout).hexdigest()
    (HERE / "goldens.json").write_text(json.dumps(goldens, indent=2) + "\n")


if __name__ == "__main__":
    main()
