"""Command-line interface: estimate, sweep, compare, legacy.

Output is deterministic byte-for-byte for identical inputs: sections
and keys are emitted in fixed order, floating quantities use six
significant digits, and operation/micro-op counts print as exact
integers.  Cycle totals are exact rationals; they print as exact
decimals when terminating and fall back to six significant digits
otherwise.

The default instruction-cost table is the bundled one; the
``PHYENERGY_COST_TABLE`` environment variable or ``--cost-table``
(which wins) can point at a replacement.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import lru_cache
from itertools import chain
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import ConfigError, MeasurementError, PhyEnergyError, UsageError
from .readers import echo, read_yaml, reject_long_digits, write_text

if TYPE_CHECKING:
    from fractions import Fraction

    from .costmodel import EnergyReport, InstructionCostTable
    from .ingest import ComparisonReport
    from .scenario import DerivedParams, Scenario

COST_TABLE_ENV = "PHYENERGY_COST_TABLE"

_FORMATS = ("structured-text", "delimited-table")
_SWEEP_PARAMS = ("modulation", "n_prb", "n_layers", "n_slots")
# The names of legacy.MODELS, sorted, so that building the parser loads no
# legacy module.
_LEGACY_MODELS = ("auer", "desset", "fu-bb", "fu-rf", "tombaz", "yan", "yu")


# ---------------------------------------------------------------------------
# Deterministic value formatting


def fmt_float(x: float) -> str:
    return format(x, ".6g")


@lru_cache(maxsize=256)
def _decimal_places(den: int) -> Optional[int]:
    """Decimal places of the fractions over a reduced denominator, or None
    when their decimals do not terminate.  Cached: the cycle counts of a
    report share the cost table's denominator."""
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    return max(twos, fives) if den == 1 else None


def fmt_ratio(num: int, den: int) -> str:
    """``num / den`` (``den`` > 0) as :func:`fmt_exact` prints it.  A float
    appears only as integer true division, the correctly rounded value."""
    whole, rest = divmod(num, den)
    if not rest:
        return str(whole)
    places = _decimal_places(den // math.gcd(rest, den))
    if places is None:
        return fmt_float(num / den)
    text = str(abs(num) * 10 ** places // den).rjust(places + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{text[:-places]}.{text[-places:].rstrip('0')}"


def fmt_exact(q: Fraction) -> str:
    """Exact decimal rendering when terminating, else 6 significant digits."""
    return fmt_ratio(q.numerator, q.denominator)


def fmt_opt(q: Optional[Fraction | float], as_float: bool = False) -> str:
    if q is None:
        return "undefined"
    return fmt_float(float(q)) if as_float else fmt_exact(q)


# ---------------------------------------------------------------------------
# Report rendering.  The blocks and total of an estimate and of a sweep, as
# text and as a table, are each one ``%`` template built at import from
# ``_ROWS`` and filled with one ``%`` over a report's flat ``_cost_rows``.
# An estimate's other sections are f-strings.  Both comparison layouts read
# one row model, ``_comparison_rows``, through ``_section`` and ``_table``.

_COST_KEYS = ("micro_ops", "cycles", "cycles_per_bit", "energy_j",
              "energy_nj_per_bit")
_COMPARISON_KEYS = ("modeled_cycles", "measured_cycles", "ratio",
                    "signed_relative_error", "flag")

# Name and side (transmitter BS, receiver UE) of each block, in the order
# of a report's ``per_block`` (BlockId order), then of the total.
_ROWS = (*zip("ABCDEFGH", ("BS",) * 4 + ("UE",) * 4), ("TOTAL", ""))


def _layout(row: str, total: Optional[str] = None) -> dict[bool, str]:
    """A ``%`` template per report: ``row`` for each block and ``total``
    (``row`` if None) for the total, with ``{name}`` and ``{side}`` filled
    in, keyed by whether the report has payload bits.  ``{per_bit}`` (the
    per-bit fields) takes ``%.6g`` with bits and ``undefined`` without."""
    return {bits: "".join(
        fmt.format(name=name, side=side,
                   per_bit="%.6g" if bits else "undefined")
        for (name, side), fmt in zip(_ROWS, (row,) * 8 + (total or row,)))
        for bits in (True, False)}


_ESTIMATE_TEXT = _layout(
    "  {name}:\n    side: {side}\n    micro_ops: %s\n    cycles: %s\n"
    "    cycles_per_bit: {per_bit}\n    energy_j: %.6g\n"
    "    energy_nj_per_bit: {per_bit}\n",
    "total:\n  micro_ops: %s\n  cycles: %s\n  cycles_per_bit: {per_bit}\n"
    "  energy_j: %.6g\n  energy_nj_per_bit: {per_bit}\n")
_ESTIMATE_TABLE = _layout("{name},{side},%s,%s,{per_bit},%.6g,{per_bit}\n")
_SWEEP_TEXT = _layout("  {name}: cycles=%s cycles_per_bit={per_bit}\n")
_SWEEP_TABLE = _layout("%s,{name},%s,%s,{per_bit}\n")


def _cost_rows(rep: EnergyReport) -> list[tuple]:
    """Each block's, then the total's, fields in the estimate layouts'
    order: micro-ops, cycles and energy, with cycles per bit after the
    cycles and nJ per bit last when the report has payload bits."""
    costs = (*rep.per_block.values(), rep.total)
    if rep.bits_transmitted > 0:
        return [(micro_ops, fmt_ratio(num, den), num / (den * bits),
                 energy_j, nj)
                for micro_ops, num, den, bits, energy_j, nj in costs]
    return [(micro_ops, fmt_ratio(num, den), energy_j)
            for micro_ops, num, den, _, energy_j, _ in costs]


def _comparison_rows(result: ComparisonReport) -> list[list[str]]:
    """Name and comparison fields for each block, then the total."""
    return [[name, fmt_exact(cmp.modeled_cycles),
             fmt_opt(cmp.measured_cycles), fmt_opt(cmp.ratio),
             fmt_opt(cmp.signed_relative_error, as_float=True), cmp.flag]
            for (name, _), cmp in zip(_ROWS, (*result.per_block.values(),
                                              result.total))]


def _section(lines: list[str], indent: str, key: str, pairs) -> None:
    """Append ``key:`` and then one indented ``name: value`` line per pair."""
    lines.append(f"{indent}{key}:")
    indent += "  "
    for name, value in pairs:
        lines.append(f"{indent}{name}: {value}")


def _table(header: Sequence[str], rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def _scenario_text(s: Scenario, d: DerivedParams) -> str:
    """The scenario and derived sections, as printed (``:.6g`` is
    :func:`fmt_float`); the optional scenario keys appear when set."""
    optional = ""
    if s.tbs_override is not None:
        optional += f"\n  tbs_override: {s.tbs_override}"
    if s.rx_fft_antennas is not None:
        optional += f"\n  rx_fft_antennas: {s.rx_fft_antennas}"
    return f"""scenario:
  n_slots: {s.n_slots}
  snr_db: {s.snr_db:.6g}
  scs_khz: {s.scs_khz}
  n_prb: {s.n_prb}
  modulation: {s.modulation.name}
  code_rate: {s.code_rate}/1024
  n_tx: {s.n_tx}
  n_rx: {s.n_rx}
  n_layers: {s.n_layers}
  n_ports: {s.n_ports}
  clock_hz: {s.clock_hz:.6g}
  kappa: {s.kappa:.6g}
  channel_len: {s.channel_len}
  pilot_sc_per_prb: {s.pilot_sc_per_prb}
  pilot_symbols_per_slot: {s.pilot_symbols_per_slot}{optional}
  decode:
    deg_cn: {s.decode.deg_cn}
    deg_vn: {s.decode.deg_vn}
    iterations: {s.decode.iterations}
derived:
  n_f: {d.n_f}
  n_fft: {d.n_fft}
  k_p: {d.k_p}
  n_re: {d.n_re}
  n_symbols: {d.n_symbols}
  m_cw: {d.m_cw}
  a: {d.a}
  base_graph: {d.bg}
  c: {d.c}
  z: {d.z}
  k: {d.k}
  n_ccb: {d.n_ccb}"""


def render_estimate_text(rep: EnergyReport) -> str:
    e = rep.energy
    scenario = ("" if rep.scenario is None
                else _scenario_text(rep.scenario, rep.derived) + "\n")
    return f"""{scenario}energy:
  kappa_j_s2: {e.kappa:.6g}
  clock_hz: {e.clock_hz:.6g}
  epsilon_j_per_cycle: {rep.epsilon:.6g}
cost_table:
  source: {rep.table_source}
  date: {rep.table_date or "unknown"}
bits_transmitted: {rep.bits_transmitted}
blocks:
""" + _ESTIMATE_TEXT[rep.bits_transmitted > 0] % tuple(
        chain.from_iterable(_cost_rows(rep)))


def render_estimate_table(rep: EnergyReport) -> str:
    return ",".join(("block", "side") + _COST_KEYS) + "\n" + _ESTIMATE_TABLE[
        rep.bits_transmitted > 0] % tuple(chain.from_iterable(_cost_rows(rep)))


def render_sweep_table(param: str, results: Sequence[tuple[str, EnergyReport]],
                       ) -> str:
    lines = [",".join((param, "block") + _COST_KEYS[:3]) + "\n"]
    for label, rep in results:
        bits = rep.bits_transmitted > 0
        end = 3 if bits else 2      # micro-ops, cycles[, cycles per bit]
        lines.append(_SWEEP_TABLE[bits] % tuple(chain.from_iterable(
            (label, *row[:end]) for row in _cost_rows(rep))))
    return "".join(lines)


def render_sweep_text(param: str, results: Sequence[tuple[str, EnergyReport]],
                      ) -> str:
    lines = [f"sweep: {param}\n"]
    for label, rep in results:
        bits = rep.bits_transmitted > 0
        end = 3 if bits else 2      # cycles[, cycles per bit]
        lines.append(f"{label}:\n" + _SWEEP_TEXT[bits] % tuple(
            chain.from_iterable(row[1:end] for row in _cost_rows(rep))))
    return "".join(lines)


def render_compare_text(result: ComparisonReport) -> str:
    lines = ["comparison:", "blocks:"]
    *blocks, total = _comparison_rows(result)
    for row in blocks:
        _section(lines, "  ", row[0], zip(_COMPARISON_KEYS, row[1:]))
    _section(lines, "", "total", zip(_COMPARISON_KEYS, total[1:]))
    lines += [
        f"unattributed_cycles: {fmt_exact(result.unattributed_cycles)}",
        "overestimated: " + (",".join(b.value for b in result.overestimated)
                             or "none"),
        "underestimated: " + (",".join(b.value for b in result.underestimated)
                              or "none"),
    ]
    return "\n".join(lines) + "\n"


def render_compare_table(result: ComparisonReport) -> str:
    unattributed = ["UNATTRIBUTED", "", fmt_exact(result.unattributed_cycles),
                    "", "", ""]
    return _table(("block",) + _COMPARISON_KEYS,
                  _comparison_rows(result) + [unattributed])


# ---------------------------------------------------------------------------
# Command implementations


def _emit(args: argparse.Namespace, text: str) -> int:
    if args.out:
        write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _resolve_table(arg: Optional[str]) -> InstructionCostTable:
    from . import costmodel
    path = arg or os.environ.get(COST_TABLE_ENV)
    if path:
        return costmodel.load_cost_table(path)
    return costmodel.load_default_cost_table()


def _load_run(args: argparse.Namespace,
              ) -> tuple[Scenario, InstructionCostTable]:
    from dataclasses import replace

    from .scenario import load_scenario
    overrides = {"kappa": args.kappa, "clock_hz": args.clock_hz}
    s = replace(load_scenario(args.scenario),
                **{name: v for name, v in overrides.items() if v is not None})
    return s, _resolve_table(args.cost_table)


def _estimate(s: Scenario, table: InstructionCostTable) -> EnergyReport:
    from .costmodel import EnergyParams, build_report
    from .opcount import tally_pipeline
    energy = EnergyParams(kappa=s.kappa, clock_hz=s.clock_hz)
    return build_report(tally_pipeline(s), table, energy, scenario=s)


def cmd_estimate(args: argparse.Namespace) -> int:
    rep = _estimate(*_load_run(args))
    return _emit(args, render_estimate_table(rep)
                 if args.format == "delimited-table"
                 else render_estimate_text(rep))


def _sweep_scenarios(s: Scenario, param: str,
                     raw_values: str) -> list[tuple[str, Scenario]]:
    from dataclasses import replace

    from .scenario import parse_modulation
    values = [v.strip() for v in raw_values.split(",") if v.strip()]
    if not values:
        raise UsageError("--values must list at least one value")
    out = []
    for value in values:
        if param == "modulation":
            mod = parse_modulation(value)
            out.append((mod.name, replace(s, modulation=mod)))
        else:
            try:
                number = int(value)
            except ValueError:
                reject_long_digits(value, f"--values: a value for {param}",
                                   ConfigError)
                raise UsageError(
                    f"--values: {echo(value)} is not an integer for {param}"
                ) from None
            out.append((value, replace(s, **{param: number})))
    return out


def cmd_sweep(args: argparse.Namespace) -> int:
    s, table = _load_run(args)
    if args.param not in _SWEEP_PARAMS:
        raise UsageError(
            f"--param must be one of {', '.join(_SWEEP_PARAMS)}")
    pairs = _sweep_scenarios(s, args.param, args.values)
    # Evaluate everything before emitting: an invalid value must fail
    # with no partial output.
    results = [(label, _estimate(scenario, table))
               for label, scenario in pairs]
    return _emit(args, render_sweep_text(args.param, results)
                 if args.format == "structured-text"
                 else render_sweep_table(args.param, results))


def cmd_compare(args: argparse.Namespace) -> int:
    from . import ingest
    s, table = _load_run(args)
    path_filter, block_map = (ingest.load_filter_config(args.filter)
                              if args.filter else (ingest.PathFilter(), {}))
    report = ingest.parse_measurement(args.measured, path_filter, block_map)
    if not report.meta.rows_seen:
        raise MeasurementError(f"{report.meta.source}: no data rows")
    if report.empty:
        raise MeasurementError(
            f"{report.meta.source}: no rows left after filtering "
            f"({report.meta.rows_filtered} filtered out)")
    result = ingest.compare(_estimate(s, table),
                            ingest.measured_cycles(report, table),
                            ingest.unattributed_cycles(report, table))
    return _emit(args, render_compare_table(result)
                 if args.format == "delimited-table"
                 else render_compare_text(result))


def cmd_legacy(args: argparse.Namespace) -> int:
    from . import legacy
    if args.model not in legacy.MODELS:
        raise UsageError(
            f"unknown model {args.model!r}; valid: "
            + ", ".join(sorted(legacy.MODELS)))
    value, unit = read_yaml(args.params, "params", lambda _, raw:
                            legacy.evaluate_model(args.model, raw))
    key = "power_w" if unit == "W" else "energy_j"
    return _emit(args, f"model: {args.model}\n{key}: {fmt_float(value)}\n")


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phyenergy",
        description="Operation counting and energy estimation for a 5G NR "
                    "downlink baseband chain.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", required=True,
                       help="scenario config file")
        p.add_argument("--cost-table", default=None,
                       help=f"instruction cost table CSV (default: bundled, "
                            f"or ${COST_TABLE_ENV})")
        p.add_argument("--kappa", type=float, default=None,
                       help="override energy scale in J*s^2")
        p.add_argument("--clock-hz", type=float, default=None,
                       help="override processor clock in Hz")
        p.add_argument("--format", choices=_FORMATS, default=None,
                       help="output format")
        p.add_argument("--out", default=None, help="write output to a file")

    p_est = sub.add_parser("estimate",
                           help="cost one scenario: cycles, energy, per bit")
    add_run_flags(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_sweep = sub.add_parser("sweep",
                             help="re-estimate while varying one parameter")
    add_run_flags(p_sweep)
    p_sweep.add_argument("--param", required=True,
                         help="parameter to vary: " + ", ".join(_SWEEP_PARAMS))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated parameter values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare",
                           help="compare modeled cycles against a "
                                "measurement report")
    add_run_flags(p_cmp)
    p_cmp.add_argument("--measured", required=True,
                       help="measurement report (delimited text)")
    p_cmp.add_argument("--filter", default=None,
                       help="path filter / block map config")
    p_cmp.set_defaults(func=cmd_compare)

    p_leg = sub.add_parser("legacy",
                           help="evaluate a literature base-station "
                                "power model")
    p_leg.add_argument("--model", required=True,
                       help="model name: " + ", ".join(_LEGACY_MODELS))
    p_leg.add_argument("--params", required=True,
                       help="model parameter file")
    p_leg.add_argument("--out", default=None, help="write output to a file")
    p_leg.set_defaults(func=cmd_legacy)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PhyEnergyError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
