"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its seed: the same seed gives the
same scenarios, the same profiler report and the same filter config.
The program only ever sees the generated inputs.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from phyenergy.costmodel import InstructionCostTable
from phyenergy.opcount import BlockId, OpKind, PipelineTallies, tally_pipeline
from phyenergy.scenario import (DecodeConfig, Modulation, Scenario, derive,
                                load_scenario)

REPORT_HEADER = "function_path,block,operator,data_type,shape,count"


# ---------------------------------------------------------------------------
# sweep-grid: valid scenarios across the whole configuration space


def draw_scenario(rng: random.Random) -> Scenario:
    """One valid scenario; roughly one in five is a tbs/fft/pilot variant."""
    n_tx = rng.randint(1, 8)
    n_rx = rng.randint(1, 8)
    n_layers = rng.randint(1, min(n_tx, n_rx))
    s = Scenario(
        n_slots=rng.choice((1, 1, 1, 2, 4)),
        snr_db=rng.choice((0.0, 5.0, 10.0, 17.5, 25.0)),
        scs_khz=rng.choice((15, 30, 60, 120)),
        n_prb=rng.randint(1, 275),
        modulation=rng.choice(list(Modulation)),
        code_rate=rng.randint(30, 948),
        n_tx=n_tx, n_rx=n_rx, n_layers=n_layers,
        n_ports=rng.randint(n_layers, 8),
        clock_hz=rng.choice((1.5e9, 2.1e9, 3.0e9)),
        kappa=rng.choice((5e-26, 1e-25, 2e-25)),
        channel_len=rng.choice((4, 8, 16)),
        decode=DecodeConfig(iterations=rng.randint(1, 12)),
    )
    variant = rng.random()
    if variant < 0.07:
        s = replace(s, tbs_override=rng.randint(0, 150_000))
    elif variant < 0.14:
        s = replace(s, rx_fft_antennas=rng.randint(1, 8))
    elif variant < 0.21:
        s = replace(s, pilot_sc_per_prb=rng.randint(1, 12),
                    pilot_symbols_per_slot=rng.randint(0, 3))
    return s


def scenario_pool(seed: int, size: int) -> list[Scenario]:
    rng = random.Random(f"sweep-grid/{seed}")
    return [draw_scenario(rng) for _ in range(size)]


def pool_coverage(pool: list[Scenario]) -> dict:
    """Share of draws on each base graph and the spread of code blocks c."""
    derived = [derive(s) for s in pool]
    cs = sorted(d.c for d in derived)
    return {
        "scenarios": len(pool),
        "bg1_share": round(sum(d.bg == 1 for d in derived) / len(pool), 3),
        "bg2_share": round(sum(d.bg == 2 for d in derived) / len(pool), 3),
        "c_min": cs[0], "c_median": statistics.median(cs), "c_max": cs[-1],
        "c_gt1_share": round(sum(c > 1 for c in cs) / len(cs), 3),
        "variant_share": round(sum(
            s.tbs_override is not None or s.rx_fft_antennas is not None
            or s.pilot_sc_per_prb != 6 or s.pilot_symbols_per_slot != 1
            for s in pool) / len(pool), 3),
    }


# ---------------------------------------------------------------------------
# compare-ingest: a large synthetic profiler report


@dataclass(frozen=True)
class IngestInputs:
    scenario: Scenario
    tallies: PipelineTallies
    report_text: str
    filter_yaml: str
    rows: int                 # data rows in the report
    rows_filtered: int        # deny-prefixed rows
    rows_unattributed: int    # rows under no block-map prefix
    unattributed_cycles: Fraction


def _split(rng: random.Random, n: int, parts: int) -> list[int]:
    """Split n into min(parts, n) positive integers that sum to n."""
    parts = max(1, min(parts, n))
    cuts = sorted(rng.sample(range(1, n), parts - 1)) if parts > 1 else []
    edges = [0] + cuts + [n]
    return [hi - lo for lo, hi in zip(edges, edges[1:])]


def _quotas(counts: list[int], total: int) -> list[int]:
    """Rows per tally entry: an even share capped at the entry's count,
    the remainder going to the largest counts, so that the report has
    the same number of rows for every seed."""
    even = max(1, total // len(counts))
    quotas = [min(n, even) for n in counts]
    for i in sorted(range(len(counts)), key=lambda i: -counts[i]):
        quotas[i] += max(0, min(counts[i] - quotas[i], total - sum(quotas)))
    return quotas


def _row(path: str, block: str, kind, cls, count: int) -> str:
    return f"{path},{block},{kind.value},{cls.value},,{count}"


def ingest_inputs(seed: int, n_rows: int,
                  table: InstructionCostTable) -> IngestInputs:
    """Model tallies of one seeded scenario, split across many paths.

    The block map has 40 prefixes: four per block plus one nested
    ``inner/`` prefix per block that maps to the next block, so
    attribution depends on the longest match.  Half the model rows name
    their block; the rest leave it empty and rely on the map.  Five
    percent of rows sit under the deny prefix and five percent under a
    prefix no map entry covers (the injected unattributed part).  The
    report has ``n_rows`` rows.
    """
    rng = random.Random(f"compare-ingest/{seed}")
    while True:
        s = draw_scenario(rng)
        if derive(s).c > 1:
            break
    tallies = tally_pipeline(s)
    blocks = list(BlockId)

    prefixes: dict[BlockId, list[str]] = {b: [] for b in blocks}
    block_map: dict[str, BlockId] = {}
    for i, b in enumerate(blocks):
        for j in range(4):
            p = f"phy/{b.value.lower()}{j}/"
            prefixes[b].append(p)
            block_map[p] = b
        nxt = blocks[(i + 1) % len(blocks)]
        inner = f"phy/{b.value.lower()}0/inner/"
        prefixes[nxt].append(inner)
        block_map[inner] = nxt
    all_prefixes = list(block_map)

    keys = [(b, key, n) for b in blocks
            for key, n in tallies.per_block[b].items()]
    extra = max(1, n_rows // 20)
    quotas = _quotas([n for _, _, n in keys], n_rows - 2 * extra)
    lines: list[str] = []
    for (b, (kind, cls), n), quota in zip(keys, quotas):
        for part in _split(rng, n, quota):
            leaf = f"fn{rng.randrange(10_000)}"
            if rng.random() < 0.5:
                lines.append(_row(rng.choice(all_prefixes) + leaf, b.value,
                                  kind, cls, part))
            else:
                lines.append(_row(rng.choice(prefixes[b]) + leaf, "",
                                  kind, cls, part))

    priced = [key for _, key, _ in keys]
    for _ in range(extra):
        kind, cls = rng.choice(priced)
        block = rng.choice(["", rng.choice(blocks).value])
        lines.append(_row(f"phy/debug/fn{rng.randrange(10_000)}", block,
                          kind, cls, rng.randint(1, 10**6)))
    unattributed = Fraction(0)
    for _ in range(extra):
        kind, cls = rng.choice(priced)
        count = rng.randint(1, 10**6)
        lines.append(_row(f"ext/runtime/fn{rng.randrange(10_000)}", "",
                          kind, cls, count))
        if kind is OpKind.FLOP:
            unit = (table.lookup(OpKind.ADD, cls).cycles
                    + table.lookup(OpKind.MUL, cls).cycles)
        else:
            unit = table.lookup(kind, cls).cycles
        unattributed += count * unit
    rng.shuffle(lines)

    filter_lines = ["allow:", "  - phy/", "  - ext/",
                    "deny:", "  - phy/debug/", "block_map:"]
    filter_lines += [f"  {p}: {b.value}" for p, b in block_map.items()]
    return IngestInputs(
        scenario=s, tallies=tallies,
        report_text="\n".join([REPORT_HEADER] + lines) + "\n",
        filter_yaml="\n".join(filter_lines) + "\n",
        rows=len(lines), rows_filtered=extra, rows_unattributed=extra,
        unattributed_cycles=unattributed,
    )


# ---------------------------------------------------------------------------
# cli-cold: the small report `phyenergy compare` reads


def cli_compare_report(seed: int, reference: Path) -> str:
    """The reference scenario's own tallies as report rows.

    Rows sit under ``nr5g/`` so that configs/filter_example.yaml keeps
    them.  The seed shuffles the rows and splits each count into up to
    three rows; the compare output is the same for every seed.
    """
    rng = random.Random(f"cli-cold/{seed}")
    tallies = tally_pipeline(load_scenario(reference))
    lines = []
    for b in BlockId:
        for (kind, cls), n in tallies.per_block[b].items():
            for part in _split(rng, n, rng.randint(1, 3)):
                lines.append(_row(f"nr5g/block_{b.value.lower()}", b.value,
                                  kind, cls, part))
    rng.shuffle(lines)
    return "\n".join([REPORT_HEADER] + lines) + "\n"
