"""Per-layer metrics for a traced run.

Every traced run reports every layer metric.  Spans the workload's own
loop recorded are used as they are; for each layer call the loop did not
make, ``probe`` times the public function directly on seeded inputs of
the same generators, so that each metric is defined on every workload.
"""

from __future__ import annotations

import contextlib
import io
import statistics
from dataclasses import replace
from importlib import resources
from pathlib import Path

import yaml

from phyenergy import cli, costmodel, ingest, legacy, opcount, scenario
from phyenergy.costmodel import EnergyParams, build_report

import gen
from tracer import NullTracer
from workloads import REFERENCE, estimate_op

BLOCKS = "ABCDEFGH"
PROBE_POOL = 200
PROBE_ROWS = 10_000

# metric name -> (span name, factor from microseconds to the metric's unit)
SPAN_METRICS = {
    "scenario.load_us": ("scenario.load_scenario", 1),
    "scenario.derive_us": ("scenario.derive", 1),
    "opcount.tally_pipeline_us": ("opcount.tally_pipeline", 1),
    **{f"opcount.block_{b}_us": (f"opcount.count_block_{b.lower()}", 1)
       for b in BLOCKS},
    "costmodel.table_parse_us": ("costmodel.parse_cost_table", 1),
    "costmodel.build_report_us": ("costmodel.build_report", 1),
    **{f"costmodel.cycles_for_{b}_us": (f"costmodel.cycles_for[{b}]", 1)
       for b in BLOCKS},
    "cli.main_estimate_ms": ("cli.main", 1e-3),
    "cli.render_estimate_us": ("cli.render_estimate_text", 1),
    "cli.render_sweep_ms": ("cli.render_sweep_table", 1e-3),
    "cli.render_compare_us": ("cli.render_compare_text", 1),
    "ingest.parse_ms": ("ingest.parse_measurement", 1e-3),
    "ingest.assign_block_us": ("ingest.assign_block", 1),
    "ingest.measured_cycles_ms": ("ingest.measured_cycles", 1e-3),
    "ingest.compare_us": ("ingest.compare", 1),
    "ingest.load_filter_config_ms": ("ingest.load_filter_config", 1e-3),
    "legacy.evaluate_us": ("legacy.evaluate_model", 1),
}

# Layers whose self time per operation the traced loop reports.
SELF_LAYERS = ("scenario", "opcount", "costmodel", "ingest", "cli", "bench")

# Every per-layer metric a traced run prints, with its unit.
PER_LAYER = {
    **{name: name.rsplit("_", 1)[1] for name in SPAN_METRICS},
    "scenario.base_graph_first_ms": "ms",
    "opcount.ops_total": "count",
    "costmodel.entries_priced": "count",
    "cli.import_ms": "ms",
    "cli.interp_start_ms": "ms",
    "ingest.rows_kept_ratio": "ratio",
    **{f"{layer}.self_ms_per_op": "ms" for layer in SELF_LAYERS},
    "run.throughput_per_s": "1/s",
    "run.op_ms.p50": "ms",
    "run.op_ms.p90": "ms",
    "run.op_ms.p99": "ms",
    "run.ref_ms": "ms",
    "trace.overhead_pct": "%",
}


def _blocks(s):
    """Each count_block_* call with the arguments tally_pipeline passes."""
    d = scenario.derive(s)
    bg = scenario.select_base_graph(d.a, s.code_rate)
    e_ant = s.rx_fft_antennas if s.rx_fft_antennas is not None else s.n_tx
    return {
        "a": lambda: opcount.count_block_a(d, bg),
        "b": lambda: opcount.count_block_b(d.m_cw, d.n_symbols),
        "c": lambda: opcount.count_block_c(s.n_ports, s.n_layers,
                                           d.m_symb_layer),
        "d": lambda: opcount.count_block_d(d.g, s.n_tx, d.n_fft),
        "e": lambda: opcount.count_block_e(d.g, e_ant, d.n_fft),
        "f": lambda: opcount.count_block_f(d, s),
        "g": lambda: opcount.count_block_g(d.m_cw, d.n_symbols),
        "h": lambda: opcount.count_block_h(d, s.decode),
    }


def probe(tr, root: Path, seed: int, work: Path) -> dict:
    """Time every layer call the loop did not; return the probe's counts."""
    have = {s[0] for s in tr.spans}
    tr.op = 0

    def timed(name, fn, times=1):
        if name in have:
            return
        for _ in range(times):
            with tr.span(name):
                fn()

    reference = root / REFERENCE
    table = costmodel.load_default_cost_table()
    pool = gen.scenario_pool(seed, PROBE_POOL)
    tallies = [opcount.tally_pipeline(s) for s in pool]

    timed("scenario.load_scenario", lambda: scenario.load_scenario(reference),
          50)
    for s, t in zip(pool, tallies):
        timed("scenario.derive", lambda: scenario.derive(s))
        timed("opcount.tally_pipeline", lambda: opcount.tally_pipeline(s))
        for letter, call in _blocks(s).items():
            timed(f"opcount.count_block_{letter}", call)
        energy = EnergyParams(kappa=s.kappa, clock_hz=s.clock_hz)
        timed("costmodel.build_report",
              lambda: build_report(t, table, energy, scenario=s))
        for b in opcount.BlockId:
            timed(f"costmodel.cycles_for[{b.value}]",
                  lambda: costmodel.cycles_for(t.per_block[b], table))
        rep = build_report(t, table, energy, scenario=s)
        timed("cli.render_estimate_text", lambda: cli.render_estimate_text(rep))

    text = resources.files("phyenergy").joinpath(
        "data", costmodel.DEFAULT_TABLE_RESOURCE).read_text()
    timed("costmodel.parse_cost_table",
          lambda: costmodel.parse_cost_table(text), 50)

    def main_estimate():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["estimate", "--scenario", str(reference)])
    timed("cli.main", main_estimate, 20)

    if "cli.render_sweep_table" not in have:
        base = scenario.load_scenario(reference)
        results = [(str(n), estimate_op(replace(base, n_prb=n), table,
                                        NullTracer())[1])
                   for n in range(1, 276)]
        timed("cli.render_sweep_table",
              lambda: cli.render_sweep_table("n_prb", results), 10)

    inp = gen.ingest_inputs(seed, PROBE_ROWS, table)
    work.mkdir(parents=True, exist_ok=True)
    report_path = work / "probe.csv"
    filter_path = work / "probe-filter.yaml"
    report_path.write_text(inp.report_text)
    filter_path.write_text(inp.filter_yaml)
    timed("ingest.load_filter_config",
          lambda: ingest.load_filter_config(filter_path), 20)
    path_filter, block_map = ingest.load_filter_config(filter_path)
    timed("ingest.parse_measurement",
          lambda: ingest.parse_measurement(report_path, path_filter,
                                           block_map), 3)
    measured_report = ingest.parse_measurement(report_path, path_filter,
                                               block_map)
    paths = [line.split(",", 1)[0]
             for line in inp.report_text.splitlines()[1:2001]]
    for p in paths:
        timed("ingest.assign_block", lambda: ingest.assign_block(p, block_map))
    timed("ingest.measured_cycles",
          lambda: ingest.measured_cycles(measured_report, table), 3)
    measured = ingest.measured_cycles(measured_report, table)
    modeled = build_report(inp.tallies, table,
                           EnergyParams(kappa=inp.scenario.kappa,
                                        clock_hz=inp.scenario.clock_hz))
    timed("ingest.compare", lambda: ingest.compare(modeled, measured), 200)
    result = ingest.compare(modeled, measured)
    timed("cli.render_compare_text", lambda: cli.render_compare_text(result),
          200)

    params = yaml.safe_load((root / "configs" / "tombaz.yaml").read_text())
    timed("legacy.evaluate_model",
          lambda: legacy.evaluate_model("tombaz", params), 500)

    meta = measured_report.meta
    return {
        "opcount.ops_total": sum(t.total.total_ops(expand_flops=True)
                                 for t in tallies),
        "costmodel.entries_priced": sum(
            len(costmodel.expand_flops(t.per_block[b]).as_dict())
            for t in tallies for b in opcount.BlockId),
        "ingest.rows_kept_ratio": meta.rows_kept / meta.rows_seen,
    }


def span_metrics(tr) -> dict:
    return {metric: tr.median_us(span) * factor
            for metric, (span, factor) in SPAN_METRICS.items()}


def self_times(tr, n_ops: int) -> dict:
    """Self time per loop operation, per layer, in milliseconds."""
    totals = tr.self_time_us()
    return {f"{layer}.self_ms_per_op": totals.get(layer, 0.0) / n_ops / 1e3
            for layer in SELF_LAYERS}


def quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
