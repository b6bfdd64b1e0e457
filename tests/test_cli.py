import contextlib
import io
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from operator import attrgetter
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_table, reference_scenario
from phyenergy import cli, opcount, scenario
from phyenergy.cli import fmt_exact, fmt_float, fmt_opt, main
from phyenergy.costmodel import (LOCATION_BY_CLASS, EnergyParams,
                                 build_report, load_cost_table,
                                 load_default_cost_table)
from phyenergy.errors import ConfigError
from phyenergy.ingest import (compare, rows_from_tallies,
                              serialize_measurement)
from phyenergy.opcount import DataClass, OpKind, tally_pipeline
from phyenergy.scenario import DecodeConfig, load_scenario
from test_opcount import _valid_scenarios

ROOT = Path(__file__).parent.parent
CONFIGS = ROOT / "configs"
REFERENCE = str(CONFIGS / "reference.yaml")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_uniform_csv(path: Path, cycles: str = "1") -> str:
    lines = ["# source: uniform test table",
             "# date: 2026-02",
             "op_kind,data_class,operand_location,micro_ops,cycles"]
    for kind in OpKind:
        for cls in DataClass:
            lines.append(f"{kind.value},{cls.value},"
                         f"{LOCATION_BY_CLASS[cls]},1,{cycles}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# Value formatting


def test_fmt_exact_integers_and_terminating_decimals():
    assert fmt_exact(Fraction(5)) == "5"
    assert fmt_exact(Fraction(3, 2)) == "1.5"
    assert fmt_exact(Fraction(1, 8)) == "0.125"
    assert fmt_exact(Fraction(1, 400)) == "0.0025"
    assert fmt_exact(Fraction(-3, 2)) == "-1.5"
    assert fmt_exact(Fraction(67392, 10)) == "6739.2"
    assert fmt_exact(Fraction(1, 10 ** 7)) == "0.0000001"


def test_fmt_exact_nonterminating_falls_back_to_sig_figs():
    assert fmt_exact(Fraction(1, 3)) == "0.333333"
    assert fmt_exact(Fraction(2, 3)) == "0.666667"


def test_fmt_float_six_significant_digits():
    assert fmt_float(4.41e-7) == "4.41e-07"
    assert fmt_float(2.1e9) == "2.1e+09"
    assert fmt_float(123456789.0) == "1.23457e+08"


def test_fmt_opt_undefined():
    assert fmt_opt(None) == "undefined"
    assert fmt_opt(Fraction(1, 2)) == "0.5"


def _outcome(fmt, q):
    try:
        return fmt(q)
    except OverflowError:       # a non-terminating value past the float range
        return OverflowError


_numerators = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                        st.integers(-10 ** 400, 10 ** 400),
                        st.sampled_from([0, 1, -1, 10 ** 330, -10 ** 330]))
_denominators = st.builds(lambda twos, fives, odd: 2 ** twos * 5 ** fives * odd,
                          st.integers(0, 40), st.integers(0, 40),
                          st.sampled_from([1, 1, 1, 3, 7, 9, 21, 10 ** 9 + 7]))


@given(num=_numerators, den=_denominators)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_fmt_exact_matches_the_fraction_oracle(num, den):
    q = Fraction(num, den)
    assert _outcome(fmt_exact, q) == _outcome(oracles.fmt_exact, q)
    assert _outcome(fmt_exact, -q) == _outcome(oracles.fmt_exact, -q)


def test_rendered_block_names_and_sides_follow_the_block_order():
    """The renderers label a report's blocks by position, from their own
    name/side table: it must list BlockId's members in order."""
    assert cli._ROWS == (*((b.value, b.side) for b in opcount.BlockId),
                         ("TOTAL", ""))


class _Int(int):
    """An int subclass whose ``str()`` is not its digits: a field printed
    with ``%d`` instead of ``%s`` or ``{}`` would show."""

    def __str__(self):
        return f"{int(self)}i"


def _with_int_subclasses(s):
    """``s`` with every integer field that holds an int an ``_Int``."""
    return replace(s, decode=DecodeConfig(*map(_Int, s.decode)), **{
        name: _Int(getattr(s, name)) for name in scenario._INT_FIELDS
        if "." not in name and getattr(s, name) is not None})


# The bundled table (cycles in twelfths: exact decimals), and tables whose
# cycles print as six significant digits.
_TABLES = (load_default_cost_table(), make_table(cycles=Fraction(1, 3)),
           make_table(micro_ops=3, cycles=Fraction(5, 7)))
_REFERENCE_ARGS = dict(snr_db=10.0, kappa=1e-25, clock_hz=2.1e9, table=0,
                       with_scenario=True, subclass=False, labels=["52", "x"])


@given(s=_valid_scenarios(),
       snr_db=st.floats(-1e3, 1e3), kappa=st.floats(1e-30, 1e-20),
       clock_hz=st.floats(1e6, 1e11), table=st.integers(0, len(_TABLES) - 1),
       with_scenario=st.booleans(), subclass=st.booleans(),
       labels=st.lists(st.text(max_size=4), min_size=2, max_size=2))
@example(s=reference_scenario(tbs_override=0), **_REFERENCE_ARGS)
@example(s=reference_scenario(tbs_override=8000, rx_fft_antennas=2),
         **_REFERENCE_ARGS)
@example(s=reference_scenario(), **{**_REFERENCE_ARGS, "with_scenario": False})
@example(s=reference_scenario(tbs_override=8000, rx_fft_antennas=2),
         **{**_REFERENCE_ARGS, "subclass": True, "labels": ["%s", "100%"]})
@settings(max_examples=100, deadline=None, derandomize=True)
def test_templates_render_as_the_row_oracles(s, snr_db, kappa, clock_hz,
                                             table, with_scenario, subclass,
                                             labels):
    """The estimate and sweep layouts, filled from their ``%`` templates,
    are byte for byte the row-at-a-time renderers, for a report with
    payload bits and for the same scenario with none; each sweep has one
    report of each."""
    s = replace(s, snr_db=snr_db, kappa=kappa, clock_hz=clock_hz)
    if subclass:
        s = _with_int_subclasses(s)
    reports = [build_report(tally_pipeline(x), _TABLES[table],
                            EnergyParams(x.kappa, x.clock_hz),
                            scenario=x if with_scenario else None)
               for x in (s, replace(s, tbs_override=0))]
    assert reports[1].bits_transmitted == 0
    for rep in reports:
        assert (cli.render_estimate_text(rep)
                == oracles.render_estimate_text(rep))
        assert (cli.render_estimate_table(rep)
                == oracles.render_estimate_table(rep))
    results = list(zip(labels, reports))
    for param in ("n_prb", "modulation"):
        assert (cli.render_sweep_text(param, results)
                == oracles.render_sweep_text(param, results))
        assert (cli.render_sweep_table(param, results)
                == oracles.render_sweep_table(param, results))


# How a block's measured cycles relate to its modeled ones: None leaves the
# block unmeasured, else it is measured at that multiple of its modeled
# cycles.  _EVERY_KIND measures one block of each kind: match, under, over,
# missing, zero, and three whose ratios do not terminate.
_SCALES = st.one_of(st.none(), st.just(Fraction(0)),
                    st.builds(Fraction, st.integers(1, 12),
                              st.integers(1, 12)))
_EVERY_KIND = [Fraction(1), Fraction(2), Fraction(1, 3), None, Fraction(0),
               Fraction(7, 3), Fraction(3, 7), Fraction(11, 9)]


@given(table=st.integers(0, len(_TABLES) - 1),
       scales=st.lists(_SCALES, min_size=8, max_size=8),
       unattributed=st.sampled_from([Fraction(0), Fraction(7, 3),
                                     Fraction(1234567, 8)]))
@example(table=0, scales=_EVERY_KIND, unattributed=Fraction(0))
@example(table=1, scales=_EVERY_KIND, unattributed=Fraction(7, 3))
@example(table=2, scales=_EVERY_KIND, unattributed=Fraction(5, 2))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_compare_templates_render_as_the_row_oracles(table, scales,
                                                     unattributed):
    """Both compare layouts, filled from their ``%`` templates, are byte
    for byte the row-at-a-time renderers."""
    modeled = build_report(tally_pipeline(reference_scenario()),
                           _TABLES[table], EnergyParams(1e-25, 2.1e9))
    measured = {block: modeled.per_block[block].cycles * scale
                for block, scale in zip(opcount.BlockId, scales)
                if scale is not None}
    result = compare(modeled, measured, unattributed)
    assert cli.render_compare_text(result) == oracles.render_compare_text(
        result)
    assert cli.render_compare_table(result) == oracles.render_compare_table(
        result)


# ---------------------------------------------------------------------------
# estimate


def test_estimate_structured_text(capsys):
    code, out, err = run(capsys, "estimate", "--scenario", REFERENCE)
    assert code == 0
    assert err == ""
    assert "a: 32248" in out
    assert "base_graph: 1" in out
    assert "c: 4" in out
    assert "z: 384" in out
    assert "epsilon_j_per_cycle: 4.41e-07" in out
    assert "bits_transmitted: 32248" in out
    for letter, side in zip("ABCDEFGH", ["BS"] * 4 + ["UE"] * 4):
        assert f"  {letter}:\n    side: {side}\n" in out
    assert out.index("blocks:") < out.index("total:")


def test_estimate_is_deterministic(capsys):
    _, first, _ = run(capsys, "estimate", "--scenario", REFERENCE)
    _, second, _ = run(capsys, "estimate", "--scenario", REFERENCE)
    assert first == second


def test_estimate_delimited_table(capsys):
    code, out, _ = run(capsys, "estimate", "--scenario", REFERENCE,
                       "--format", "delimited-table")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("block,side,micro_ops,cycles,cycles_per_bit,"
                        "energy_j,energy_nj_per_bit")
    assert len(lines) == 1 + 8 + 1
    assert lines[1].startswith("A,BS,")
    assert lines[5].startswith("E,UE,")
    assert lines[-1].startswith("TOTAL,,")


def test_estimate_out_file(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "estimate", "--scenario", REFERENCE,
                       "--out", str(target))
    assert code == 0
    assert out == ""
    _, direct, _ = run(capsys, "estimate", "--scenario", REFERENCE)
    assert target.read_text() == direct


def test_estimate_kappa_override_scales_energy_not_cycles(capsys):
    _, base, _ = run(capsys, "estimate", "--scenario", REFERENCE,
                     "--format", "delimited-table")
    _, bumped, _ = run(capsys, "estimate", "--scenario", REFERENCE,
                       "--format", "delimited-table",
                       "--kappa", "2e-25")
    base_rows = [r.split(",") for r in base.strip().splitlines()[1:]]
    bump_rows = [r.split(",") for r in bumped.strip().splitlines()[1:]]
    for b, u in zip(base_rows, bump_rows):
        assert b[3] == u[3]                   # cycles unchanged
        # both sides were printed at 6 significant digits
        assert float(u[5]) == pytest.approx(2 * float(b[5]), rel=1e-5)


def test_estimate_unknown_scenario_file(capsys):
    code, out, err = run(capsys, "estimate", "--scenario", "/no/such.yaml")
    assert code == 1
    assert out == ""
    assert err.startswith("error[config]:")


def test_estimate_invalid_scenario_reports_rule(capsys, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(Path(REFERENCE).read_text().replace(
        "n_layers: 2", "n_layers: 9"))
    code, _, err = run(capsys, "estimate", "--scenario", str(bad))
    assert code == 1
    assert "error[config]:" in err
    assert "n_layers exceeds min(n_tx,n_rx)" in err


@pytest.mark.parametrize("extra,replacement", [
    (["--kappa", "nan"], None),
    (["--clock-hz", "inf"], None),
    ([], ("snr_db: 10.0", "snr_db: nan")),
])
def test_estimate_rejects_non_finite_numbers(capsys, tmp_path, extra,
                                             replacement):
    scenario = REFERENCE
    if replacement is not None:
        scenario = tmp_path / "nan.yaml"
        scenario.write_text(Path(REFERENCE).read_text().replace(*replacement))
    code, out, err = run(capsys, "estimate", "--scenario", str(scenario),
                         *extra)
    assert code == 1
    assert out == ""
    assert err.startswith("error[config]:")
    assert "must be finite" in err


def test_estimate_rejects_n_prb_beyond_a_carrier(capsys, tmp_path):
    wide = tmp_path / "wide.yaml"
    wide.write_text(Path(REFERENCE).read_text().replace(
        "n_prb: 52", "n_prb: 100000000"))
    code, out, err = run(capsys, "estimate", "--scenario", str(wide))
    assert code == 1
    assert out == ""
    assert err.startswith("error[config]:")
    assert "n_prb must be <= 275" in err


_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("command", [
    ["estimate", "--scenario", "{huge}"],
    ["sweep", "--scenario", REFERENCE, "--param", "n_slots",
     "--values", "1," + _HUGE],
    # finite cycles, and an energy per bit beyond the float range
    ["estimate", "--scenario", REFERENCE, "--kappa", "1e280",
     "--format", "delimited-table"],
], ids=["estimate-n-slots", "sweep-n-slots", "energy-per-bit"])
def test_energy_beyond_the_float_range_is_a_domain_error(capsys, tmp_path,
                                                         command):
    huge = tmp_path / "huge.yaml"
    huge.write_text(Path(REFERENCE).read_text().replace(
        "n_slots: 1", "n_slots: " + _HUGE))
    code, out, err = run(capsys, *[arg.format(huge=huge) for arg in command])
    assert code == 1
    assert out == ""
    assert err.startswith("error[domain]:")


@pytest.mark.parametrize("fmt", ["structured-text", "delimited-table"])
def test_underflowing_energy_per_cycle_is_a_config_error(capsys, fmt):
    # kappa * clock_hz**2 is 0.0: every block would print zero energy
    code, out, err = run(capsys, "estimate", "--scenario", REFERENCE,
                         "--kappa", "1e-300", "--clock-hz", "1e-20",
                         "--format", fmt)
    assert code == 1
    assert out == ""
    assert err.startswith("error[config]:")
    assert "smallest normal float" in err


def test_overflowing_energy_per_cycle_fails_the_sweep_at_derive(capsys):
    # kappa * clock_hz**2 overflows: refused by validate, before counting
    code, out, err = run(capsys, "sweep", "--scenario", REFERENCE,
                         "--kappa", "1e300", "--param", "n_prb",
                         "--values", "1,2")
    assert code == 1
    assert out == ""
    assert err.startswith("error[config]:")
    assert "kappa * clock_hz**2 must be finite" in err
    with pytest.raises(ConfigError,
                       match=r"kappa \* clock_hz\*\*2 must be finite"):
        scenario.derive(replace(load_scenario(REFERENCE), kappa=1e300))


@pytest.mark.parametrize("text,message", [
    (b"n_slots: 1\xff\n", "scenario file is not text"),
    (b"n_slots: !!timestamp 2001-13-45\n",
     "malformed config: month must be in"),
], ids=["not-utf8", "bad-date"])
def test_unreadable_scenario_values_are_config_errors(capsys, tmp_path, text,
                                                      message):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(text)
    code, out, err = run(capsys, "estimate", "--scenario", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith("error[config]:")
    assert message in err


def test_structured_estimate_derives_once(capsys, monkeypatch):
    calls = []

    def counting_derive(s):
        calls.append(s)
        return scenario.derive(s)

    monkeypatch.setattr(opcount, "derive", counting_derive)
    # rendering must reuse the tallies' DerivedParams, not derive again
    monkeypatch.setattr(cli, "derive", counting_derive, raising=False)
    code, _, _ = run(capsys, "estimate", "--scenario", REFERENCE)
    assert code == 0
    assert len(calls) == 1


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# cost table resolution


def test_cost_table_flag(capsys, tmp_path):
    table = write_uniform_csv(tmp_path / "uniform.csv")
    code, out, _ = run(capsys, "estimate", "--scenario", REFERENCE,
                       "--cost-table", table, "--format", "delimited-table")
    assert code == 0
    total = out.strip().splitlines()[-1].split(",")
    tallies = tally_pipeline(load_scenario(REFERENCE))
    assert int(total[2]) == tallies.total.total_ops(expand_flops=True)


def test_cost_table_env_var(capsys, tmp_path, monkeypatch):
    table = write_uniform_csv(tmp_path / "uniform.csv", cycles="2")
    monkeypatch.setenv("PHYENERGY_COST_TABLE", table)
    _, out, _ = run(capsys, "estimate", "--scenario", REFERENCE,
                    "--format", "delimited-table")
    total_cycles = Fraction(out.strip().splitlines()[-1].split(",")[3])
    tallies = tally_pipeline(load_scenario(REFERENCE))
    assert total_cycles == 2 * tallies.total.total_ops(expand_flops=True)


def test_cost_table_flag_beats_env(capsys, tmp_path, monkeypatch):
    env_table = write_uniform_csv(tmp_path / "env.csv", cycles="2")
    flag_table = write_uniform_csv(tmp_path / "flag.csv", cycles="1")
    monkeypatch.setenv("PHYENERGY_COST_TABLE", env_table)
    _, out, _ = run(capsys, "estimate", "--scenario", REFERENCE,
                    "--cost-table", flag_table, "--format", "delimited-table")
    total_cycles = Fraction(out.strip().splitlines()[-1].split(",")[3])
    tallies = tally_pipeline(load_scenario(REFERENCE))
    assert total_cycles == tallies.total.total_ops(expand_flops=True)


def test_broken_cost_table_reports_code(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("op_kind,data_class,operand_location,micro_ops,cycles\n"
                   "ADD,double_scalar,register,1,1\n"
                   "ADD,double_scalar,register,1,1\n")
    code, _, err = run(capsys, "estimate", "--scenario", REFERENCE,
                       "--cost-table", str(bad))
    assert code == 1
    assert err.startswith("error[cost-table]:")
    assert "duplicate" in err


@pytest.mark.parametrize("row, message", [
    ("ADD,double_scalar,memory,1,500",
     "operand_location of double_scalar must be 'register', got 'memory'"),
    ("ADD,double_scalar,register,1,500",
     "duplicate entry for ADD,double_scalar,register"),
])
def test_bundled_table_with_an_extra_row_fails(capsys, tmp_path, row,
                                               message):
    bundled = resources.files("phyenergy").joinpath("data", "cost_table.csv")
    lines = bundled.read_text().splitlines() + [row]
    table = tmp_path / "extra.csv"
    table.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "estimate", "--scenario", REFERENCE,
                         "--cost-table", str(table))
    assert (code, out) == (1, "")
    assert err == f"error[cost-table]: {table}:{len(lines)}: {message}\n"


def test_sparse_cost_table_reports_coverage(capsys, tmp_path):
    sparse = tmp_path / "sparse.csv"
    sparse.write_text("op_kind,data_class,operand_location,micro_ops,cycles\n"
                      "ADD,double_scalar,register,1,1\n")
    code, _, err = run(capsys, "estimate", "--scenario", REFERENCE,
                       "--cost-table", str(sparse))
    assert code == 1
    assert err.startswith("error[coverage]:")
    assert "op_kind=" in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_modulation_table(capsys):
    code, out, _ = run(capsys, "sweep", "--scenario", REFERENCE,
                       "--param", "modulation",
                       "--values", "qpsk,QAM16,64QAM,QAM256")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "modulation,block,micro_ops,cycles,cycles_per_bit"
    assert len(lines) == 1 + 4 * 9
    labels = {row.split(",")[0] for row in lines[1:]}
    assert labels == {"QPSK", "QAM16", "QAM64", "QAM256"}
    # transform and estimation blocks do not move with modulation
    by_block: dict[str, set[str]] = {}
    for row in lines[1:]:
        cells = row.split(",")
        by_block.setdefault(cells[1], set()).add(cells[3])
    for block in ("C", "D", "E", "F"):
        assert len(by_block[block]) == 1
    assert len(by_block["B"]) == 4


def test_sweep_text_format(capsys):
    code, out, _ = run(capsys, "sweep", "--scenario", REFERENCE,
                       "--param", "n_slots", "--values", "1,2",
                       "--format", "structured-text")
    assert code == 0
    assert out.startswith("sweep: n_slots\n")
    assert "1:\n" in out and "2:\n" in out


def test_sweep_rejects_unknown_param(capsys):
    code, out, err = run(capsys, "sweep", "--scenario", REFERENCE,
                         "--param", "n_prbx", "--values", "1,2")
    assert code == 1
    assert out == ""
    assert err.startswith("error[usage]:")


@pytest.mark.parametrize("param", ["n_prbx", "decode", "decode.spin"])
def test_sweep_lists_every_key_it_takes(capsys, param):
    code, out, err = run(capsys, "sweep", "--scenario", REFERENCE,
                         "--param", param, "--values", "1")
    assert (code, out) == (1, "")
    assert err == (
        "error[usage]: --param must be one of n_slots, snr_db, scs_khz, "
        "n_prb, modulation, code_rate, n_tx, n_rx, n_layers, n_ports, "
        "clock_hz, kappa, channel_len, pilot_sc_per_prb, "
        "pilot_symbols_per_slot, tbs_override, rx_fft_antennas, "
        "decode.deg_cn, decode.deg_vn, decode.iterations\n")


def test_sweep_rejects_non_integer_value(capsys):
    code, out, err = run(capsys, "sweep", "--scenario", REFERENCE,
                         "--param", "n_prb", "--values", "52,many")
    assert code == 1
    assert out == ""
    assert err.startswith("error[config]:")
    assert err == ("error[config]: --values: a value for n_prb: expected an "
                   "integer, got 'many'\n")


def test_sweep_labels_each_row_by_the_value_costed(capsys):
    code, out, _ = run(capsys, "sweep", "--scenario", REFERENCE,
                       "--param", "n_prb", "--values", "053,+2")
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()[1::9]] == ["53", "2"]


def test_sweep_reads_a_rate_as_a_file_does(capsys):
    _, fractions, _ = run(capsys, "sweep", "--scenario", REFERENCE,
                          "--param", "code_rate",
                          "--values", "490/1024,658/1024")
    _, numerators, _ = run(capsys, "sweep", "--scenario", REFERENCE,
                           "--param", "code_rate", "--values", "490,658")
    assert fractions == numerators
    assert [row.split(",")[0] for row in fractions.splitlines()[1::9]] == [
        "490", "658"]


def test_a_sweep_value_wins_over_the_override_flag(capsys, monkeypatch):
    costed = []
    estimate = cli._estimate
    monkeypatch.setattr(cli, "_estimate", lambda s, table: (
        costed.append(s.kappa), estimate(s, table))[1])
    code, out, _ = run(capsys, "sweep", "--scenario", REFERENCE,
                       "--kappa", "1e-25", "--param", "kappa",
                       "--values", "2e-25")
    assert code == 0
    assert costed == [2e-25]
    assert out.splitlines()[1].startswith("2e-25,A,")


@pytest.mark.parametrize("fmt", ["structured-text", "delimited-table"])
def test_a_kappa_sweep_prints_rows_that_differ_only_in_their_label(capsys,
                                                                   fmt):
    """Sweep layouts print cycles only, and kappa moves energy alone; an
    energy column would change the sweep layouts and their goldens."""
    code, out, err = run(capsys, "sweep", "--scenario", REFERENCE,
                         "--param", "kappa", "--values=1e-25,2e-25",
                         "--format", fmt)
    assert (code, err) == (0, "")
    rows = {}
    for line in out.splitlines()[1:]:
        if fmt == "delimited-table":
            label, line = line.split(",", 1)
        elif not line.startswith(" "):
            label = line.removesuffix(":")
            continue
        rows.setdefault(label, []).append(line)
    assert list(rows) == ["1e-25", "2e-25"]
    assert rows["1e-25"] == rows["2e-25"] and len(rows["1e-25"]) == 9


@pytest.mark.parametrize("flag", ["--kappa", "--clock-hz"])
def test_an_override_flag_is_read_as_its_file_key(capsys, flag):
    code, out, err = run(capsys, "estimate", "--scenario", REFERENCE,
                         flag, "x")
    assert (code, out) == (1, "")
    assert err == f"error[config]: {flag}: expected a number, got 'x'\n"


@pytest.mark.parametrize("argv", [
    ["estimate", "--scenario", REFERENCE, "--kappa", "-1e-25"],
    ["sweep", "--scenario", REFERENCE, "--param", "snr_db", "--values",
     "-5,-3"],
], ids=["kappa", "values"])
def test_a_value_that_starts_with_a_minus_needs_the_equals_form(capsys,
                                                                argv):
    """argparse reads ``--kappa -1e-25`` as a flag missing its value and
    exits 2; ``--kappa=-1e-25`` hands the value on."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()
    flag, value = argv[-2:]
    code, out, err = run(capsys, *argv[:-2], f"{flag}={value}",
                         "--format", "delimited-table")
    if flag == "--kappa":
        assert (code, out, err) == (
            1, "", "error[config]: kappa must be positive\n")
    else:
        assert (code, err) == (0, "")
        assert [row.split(",")[0] for row in out.splitlines()[1::9]] == [
            "-5", "-3"]


# A valid text for each key a sweep takes, as a user may write it: integers
# with a sign or leading zeros, reals in any spelling float() reads, a rate
# as n/1024 and a modulation by any alias.  The ranges keep the reference
# scenario valid (4 antennas each side, 2 layers).
def _int_text(low, high):
    return st.tuples(st.integers(low, high), st.sampled_from(
        ["{}", "+{}", "0{}", " {} "])).map(lambda pair: pair[1].format(pair[0]))


def _real_text(low, high):
    return st.floats(low, high).flatmap(lambda x: st.sampled_from(
        [repr(x), format(x, "e"), format(x, ".6g")]))


def _stdout(*argv):
    """``main``'s exit code and stdout, for a test that runs it repeatedly."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


_VALUE_TEXTS = {
    "n_slots": _int_text(1, 4), "snr_db": _real_text(-100, 100),
    "scs_khz": st.sampled_from(["15", "30", "60", "120"]),
    "n_prb": _int_text(1, 275),
    "modulation": st.sampled_from(["qpsk", "QAM16", "16qam", "64QAM",
                                   "QAM256", " 256QAM "]),
    "code_rate": st.integers(1, 1023).flatmap(lambda n: st.sampled_from(
        [str(n), f"{n}/1024", f" {n} / 1024 "])),
    "n_tx": _int_text(2, 8), "n_rx": _int_text(2, 8),
    "n_layers": _int_text(1, 4), "n_ports": _int_text(2, 8),
    "clock_hz": _real_text(1e6, 1e10), "kappa": _real_text(1e-30, 1e-20),
    "channel_len": _int_text(1, 16), "pilot_sc_per_prb": _int_text(1, 12),
    "pilot_symbols_per_slot": _int_text(0, 13),
    "tbs_override": _int_text(0, 200_000),
    "rx_fft_antennas": _int_text(1, 8), "decode.deg_cn": _int_text(1, 30),
    "decode.deg_vn": _int_text(1, 10), "decode.iterations": _int_text(0, 20),
}


@given(data=st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_a_sweep_row_is_the_estimate_of_the_file(tmp_path_factory, data):
    """For any key a sweep takes and a valid text for it, the sweep's
    scenario, label and rows are those of the reference file with that key
    set to that text (a quoted YAML string)."""
    key = data.draw(st.sampled_from(sorted(_VALUE_TEXTS)))
    text = data.draw(_VALUE_TEXTS[key])
    assert sorted(_VALUE_TEXTS) == sorted(scenario.KEY_CONVERTERS)
    mapping = yaml.safe_load(Path(REFERENCE).read_text())
    section, _, name = key.rpartition(".")
    (mapping.setdefault(section, {}) if section else mapping)[name] = text
    path = tmp_path_factory.getbasetemp() / "swept.yaml"
    path.write_text(yaml.safe_dump(mapping))
    expected = load_scenario(path)

    (label, swept), = cli._sweep_scenarios(load_scenario(REFERENCE), key,
                                           text)
    assert swept == expected
    value = attrgetter(key)(expected)
    assert label == (fmt_float(value) if isinstance(value, float)
                     else getattr(value, "name", str(value)))
    # "--values=" keeps a negative value in exponent form from reading
    # as a flag.
    code, rows = _stdout("sweep", "--scenario", REFERENCE, "--param", key,
                         f"--values={text}", "--format", "delimited-table")
    assert code == 0
    _, estimate = _stdout("estimate", "--scenario", str(path),
                          "--format", "delimited-table")
    assert [row.split(",") for row in rows.splitlines()[1:]] == [
        [label, block, micro_ops, cycles, per_bit] for block, _, micro_ops,
        cycles, per_bit, *_ in map(lambda row: row.split(","),
                                   estimate.splitlines()[1:])]


def test_sweep_invalid_scenario_value_emits_nothing(capsys):
    # n_layers=9 exceeds the antenna count; no partial table may appear
    code, out, err = run(capsys, "sweep", "--scenario", REFERENCE,
                         "--param", "n_layers", "--values", "1,9")
    assert code == 1
    assert out == ""
    assert err.startswith("error[config]:")


def test_sweep_past_the_prb_cap_emits_nothing(capsys):
    code, out, err = run(capsys, "sweep", "--scenario", REFERENCE,
                         "--param", "n_prb", "--values", "275,276")
    assert code == 1
    assert out == ""
    assert err.startswith("error[config]:")
    assert "n_prb must be <= 275" in err


def test_sweep_slots_scale_cycles(capsys):
    _, out, _ = run(capsys, "sweep", "--scenario", REFERENCE,
                    "--param", "n_slots", "--values", "1,3")
    totals = {}
    for row in out.strip().splitlines()[1:]:
        cells = row.split(",")
        if cells[1] == "TOTAL":
            totals[cells[0]] = Fraction(cells[3])
    assert totals["3"] == 3 * totals["1"]


# ---------------------------------------------------------------------------
# compare


@pytest.fixture
def measurement_file(tmp_path):
    tallies = tally_pipeline(load_scenario(REFERENCE))
    rows = rows_from_tallies(tallies)
    path = tmp_path / "measured.csv"
    path.write_text(serialize_measurement(rows))
    return str(path)


def test_compare_round_trip_matches(capsys, measurement_file):
    code, out, _ = run(capsys, "compare", "--scenario", REFERENCE,
                       "--measured", measurement_file)
    assert code == 0
    assert out.count("ratio: 1\n") == 9      # eight blocks plus total
    assert out.count("flag: match") == 9
    assert "overestimated: none" in out
    assert "underestimated: none" in out
    assert "unattributed_cycles: 0" in out


def test_compare_table_format_has_unattributed_row(capsys, measurement_file):
    code, out, _ = run(capsys, "compare", "--scenario", REFERENCE,
                       "--measured", measurement_file,
                       "--format", "delimited-table")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("block,modeled_cycles,measured_cycles,ratio,"
                        "signed_relative_error,flag")
    assert len(lines) == 1 + 8 + 1 + 1
    assert lines[-1].startswith("UNATTRIBUTED,")


def test_compare_totals_only_the_measured_blocks(capsys, tmp_path):
    """A block with no kept row has no measured cycles, and the total
    compares the modeled cycles of the measured blocks (here A alone)
    against their measured cycles."""
    report = tmp_path / "m.csv"
    report.write_text("function_path,block,operator,data_type,shape,count\n"
                      "10/dlsch/crc,A,XOR,logical_scalar,32,500\n"
                      "nr5g/stray,B,XOR,logical_scalar,32,7\n")
    filt = tmp_path / "filter.yaml"
    filt.write_text('allow: ["10"]\n')
    code, out, _ = run(capsys, "compare", "--scenario", REFERENCE,
                       "--measured", str(report), "--filter", str(filt),
                       "--format", "delimited-table")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "A,2306248010.25,125,18449984.082,1.845e+07,over"
    for line in lines[2:9]:
        assert line.endswith(",undefined" * 4)
    assert lines[9] == "TOTAL,2306248010.25,125,18449984.082,1.845e+07,over"


def test_compare_missing_measurement(capsys):
    code, _, err = run(capsys, "compare", "--scenario", REFERENCE,
                       "--measured", "/no/such.csv")
    assert code == 1
    assert err.startswith("error[measured]:")


def test_compare_everything_filtered_out(capsys, measurement_file, tmp_path):
    filt = tmp_path / "filter.yaml"
    filt.write_text("deny:\n  - nr5g/\n")
    code, out, err = run(capsys, "compare", "--scenario", REFERENCE,
                         "--measured", measurement_file,
                         "--filter", str(filt))
    assert code == 1
    assert out == ""
    assert err.startswith("error[measured]:")
    assert "no rows left" in err


def test_compare_header_only_report_has_no_data_rows(capsys, tmp_path):
    """A report with a header and no rows is not a filtering problem."""
    path = tmp_path / "m.csv"
    path.write_text("function_path,block,operator,data_type,shape,count\n")
    code, out, err = run(capsys, "compare", "--scenario", REFERENCE,
                         "--measured", str(path))
    assert (code, out) == (1, "")
    assert err == f"error[measured]: {path}: no data rows\n"


def test_compare_filter_attributes_unlabeled_rows(capsys, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "function_path,block,operator,data_type,shape,count\n"
        "nr5g/dlsch/crc,,XOR,logical_scalar,32,500\n"
        "nr5g/stray,,SET,int_scalar,1,7\n")
    filt = tmp_path / "filter.yaml"
    filt.write_text("block_map:\n  nr5g/dlsch: A\n")
    # uniform unit costs so measured cycles equal the raw counts
    table = write_uniform_csv(tmp_path / "uniform.csv")
    code, out, _ = run(capsys, "compare", "--scenario", REFERENCE,
                       "--measured", str(path), "--filter", str(filt),
                       "--cost-table", table,
                       "--format", "delimited-table")
    assert code == 0
    lines = out.strip().splitlines()
    a_row = lines[1].split(",")
    assert a_row[0] == "A" and a_row[2] == "500"
    assert lines[-1].split(",")[2] == "7"   # stray row lands unattributed


def _with_bom(path: Path, boms: int = 1) -> str:
    marked = path.with_name(f"bom{boms}_{path.name}")
    marked.write_text("\ufeff" * boms + path.read_text())
    return str(marked)


@pytest.mark.parametrize("fmt", ["structured-text", "delimited-table"])
def test_csv_inputs_with_a_byte_order_mark_read_as_without(
        capsys, tmp_path, measurement_file, fmt):
    table = write_uniform_csv(tmp_path / "uniform.csv", cycles="3")
    for command, flag, path in (
            (["estimate"], "--cost-table", table),
            (["compare", "--measured", measurement_file], "--cost-table",
             table),
            (["compare", "--cost-table", table], "--measured",
             measurement_file)):
        argv = [*command, "--scenario", REFERENCE, "--format", fmt, flag]
        plain = run(capsys, *argv, path)
        assert plain[0] == 0
        assert run(capsys, *argv, _with_bom(Path(path))) == plain
    assert load_cost_table(_with_bom(Path(table))).source == (
        "uniform test table")


def test_a_second_byte_order_mark_still_fails(capsys, tmp_path,
                                              measurement_file):
    table = _with_bom(Path(write_uniform_csv(tmp_path / "uniform.csv")), 2)
    measured = _with_bom(Path(measurement_file), 2)
    code, out, err = run(capsys, "estimate", "--scenario", REFERENCE,
                         "--cost-table", table)
    assert (code, out) == (1, "")
    assert err == (f"error[cost-table]: {table}:1: header must be "
                   "op_kind,data_class,operand_location,micro_ops,cycles\n")
    code, out, err = run(capsys, "compare", "--scenario", REFERENCE,
                         "--measured", measured)
    assert (code, out) == (1, "")
    assert err == (f"error[measured]: {measured}:1: header must be "
                   "function_path,block,operator,data_type,shape,count\n")


def test_a_byte_order_mark_inside_a_cell_still_fails(capsys, tmp_path):
    measured = tmp_path / "m.csv"
    measured.write_text("function_path,block,operator,data_type,shape,count\n"
                        "nr5g/x,A,\ufeffADD,int_scalar,1,5\n")
    code, out, err = run(capsys, "compare", "--scenario", REFERENCE,
                         "--measured", str(measured))
    assert (code, out, err) == (1, "", f"error[measured]: {measured}:2: "
                                "unknown operator '\\ufeffADD'\n")
    table = tmp_path / "t.csv"
    table.write_text("op_kind,data_class,operand_location,micro_ops,cycles\n"
                     "ADD,\ufeffint_scalar,register,1,1\n")
    code, out, err = run(capsys, "estimate", "--scenario", REFERENCE,
                         "--cost-table", str(table))
    assert (code, out, err) == (1, "", f"error[cost-table]: {table}:2: "
                                "unknown data_class '\\ufeffint_scalar'\n")


# ---------------------------------------------------------------------------
# legacy


@pytest.mark.parametrize("model,params,expected_key,expected", [
    ("auer", "auer.yaml", "power_w", "320"),
    ("desset", "desset.yaml", "power_w", "120"),
    ("yan", "yan.yaml", "energy_j", "50"),
    ("yu", "yu.yaml", "power_w", "38"),
    ("tombaz", "tombaz.yaml", "power_w", "432"),
    ("fu-bb", "fu.yaml", "power_w", "10"),
    ("fu-rf", "fu.yaml", "power_w", "5"),
])
def test_legacy_models_frozen_values(capsys, model, params, expected_key,
                                     expected):
    code, out, _ = run(capsys, "legacy", "--model", model,
                       "--params", str(CONFIGS / params))
    assert code == 0
    assert out == f"model: {model}\n{expected_key}: {expected}\n"


def test_legacy_model_names_are_the_models_table():
    """The parser lists the legacy models from a tuple of its own, so that
    building it loads no legacy module; the tuple must stay the table's
    sorted names."""
    from phyenergy import legacy
    assert cli._LEGACY_MODELS == tuple(sorted(legacy.MODELS))


def test_legacy_help_lists_every_model(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main(["legacy", "--help"])
    assert done.value.code == 0
    from phyenergy import legacy
    listed = "--model MODEL model name: " + ", ".join(sorted(legacy.MODELS))
    assert listed in " ".join(capsys.readouterr().out.split())


def test_legacy_unknown_model(capsys):
    code, _, err = run(capsys, "legacy", "--model", "watts",
                       "--params", str(CONFIGS / "auer.yaml"))
    assert code == 1
    assert err.startswith("error[usage]:")


def test_legacy_domain_error_surfaces(capsys, tmp_path):
    params = tmp_path / "auer.yaml"
    params.write_text(Path(CONFIGS / "auer.yaml").read_text().replace(
        "p_out_w: 20.0", "p_out_w: 99.0"))
    code, _, err = run(capsys, "legacy", "--model", "auer",
                       "--params", str(params))
    assert code == 1
    assert err.startswith("error[domain]:")


@pytest.mark.parametrize("model,params,replacement,error_code", [
    ("auer", "auer.yaml", ("p0_w: 100.0", "p0_w: .nan"), "config"),
    ("tombaz", "tombaz.yaml",
     ("p_tx_sector_w: 21.0", "p_tx_sector_w: 1e400"), "config"),
    ("fu-rf", "fu.yaml", ("m_antennas: 4", "m_antennas: -4"), "config"),
    # finite parameters whose result overflows
    ("tombaz", "tombaz.yaml",
     ("p_tx_sector_w: 21.0", "p_tx_sector_w: 1.0e308"), "domain"),
    # an integer beyond the float range, and a key that is not a string
    ("auer", "auer.yaml", ("p0_w: 100.0", "p0_w: 1" + "0" * 400), "config"),
    ("tombaz", "tombaz.yaml", ("delta: 1.0", "delta: 1.0\n1: 2"), "config"),
    # counts too large to mix with the models' floats
    ("auer", "auer.yaml", ("n_trx: 2", "n_trx: 1" + "0" * 400), "domain"),
    ("fu-rf", "fu.yaml", ("m_antennas: 4", "m_antennas: 1" + "0" * 400),
     "domain"),
], ids=["nan", "1e400", "negative-count", "overflowing-result",
        "huge-integer", "integer-key", "huge-n-trx", "huge-m-antennas"])
def test_legacy_never_prints_non_finite_or_a_traceback(
        capsys, tmp_path, model, params, replacement, error_code):
    path = tmp_path / params
    path.write_text((CONFIGS / params).read_text().replace(*replacement))
    assert replacement[1] in path.read_text()
    code, out, err = run(capsys, "legacy", "--model", model,
                         "--params", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error[{error_code}]:")


@pytest.mark.parametrize("model, params, replacement, problem", [
    ("desset", "desset.yaml", ("p_bbu_w: 30.0", "p_bbu_w: -30"),
     "desset.p_bbu_w must be >= 0"),
    ("tombaz", "tombaz.yaml", ("p_c_w: 1.0", "p_c_w: -100"),
     "tombaz.p_c_w must be >= 0"),
    # a negative slope would make more radiated power cost less input
    ("auer", "auer.yaml", ("delta_p: 3.0", "delta_p: -10.0"),
     "auer.delta_p must be >= 0"),
])
def test_legacy_refuses_a_negative_power(capsys, tmp_path, model, params,
                                         replacement, problem):
    path = tmp_path / params
    path.write_text((CONFIGS / params).read_text().replace(*replacement))
    assert replacement[1] in path.read_text()
    code, out, err = run(capsys, "legacy", "--model", model,
                         "--params", str(path))
    assert (code, out, err) == (1, "", f"error[config]: {path}: {problem}\n")


def test_legacy_missing_params_file(capsys):
    code, _, err = run(capsys, "legacy", "--model", "auer",
                       "--params", "/no/params.yaml")
    assert code == 1
    assert err.startswith("error[config]:")


# ---------------------------------------------------------------------------
# file arguments


@pytest.mark.parametrize("flag,error_code", [
    ("--scenario", "config"),
    ("--params", "config"),
    ("--filter", "config"),
    ("--measured", "measured"),
    ("--cost-table", "cost-table"),
])
def test_directory_path_fails_with_loader_code(capsys, tmp_path,
                                               measurement_file, flag,
                                               error_code):
    if flag == "--params":
        argv = ["legacy", "--model", "auer", "--params", str(tmp_path)]
    else:
        files = {"--scenario": REFERENCE, "--measured": measurement_file,
                 "--filter": str(CONFIGS / "filter_example.yaml")}
        files[flag] = str(tmp_path)
        argv = ["compare"] + [arg for pair in files.items() for arg in pair]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error[{error_code}]:")
    assert "is not a file" in err


def test_input_is_read_as_utf8_whatever_the_locale(capsys, tmp_path):
    """Under the C locale, with UTF-8 mode and locale coercion off, the
    locale's encoding is ASCII; a scenario with a non-ASCII comment still
    reads, and the estimate is the reference one."""
    scenario = tmp_path / "s.yaml"
    scenario.write_text(Path(REFERENCE).read_text(encoding="utf-8")
                        + "# café\n", encoding="utf-8")
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("LC_", "PYTHONUTF8", "PYTHONIOENCODING"))}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "phyenergy",
                           "estimate", "--scenario", str(scenario)],
                          cwd=tmp_path, env=env, capture_output=True,
                          timeout=120)
    _, expected, _ = run(capsys, "estimate", "--scenario", REFERENCE)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == expected.encode("ascii")


# ---------------------------------------------------------------------------
# scripts


def test_synth_measurement_script_round_trips_through_compare(capsys,
                                                              tmp_path):
    out = tmp_path / "measured.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = ROOT / "scripts" / "synth_measurement.py"
    subprocess.run([sys.executable, str(script), REFERENCE, str(out)],
                   cwd=tmp_path, env=env, check=True, capture_output=True,
                   timeout=120)
    # Its rows are under nr5g/, so the example filter keeps every one.
    for filter_args in ([], ["--filter", str(CONFIGS / "filter_example.yaml")]):
        code, text, _ = run(capsys, "compare", "--scenario", REFERENCE,
                            "--measured", str(out), *filter_args)
        assert code == 0
        flags = [line for line in text.splitlines() if "flag:" in line]
        assert len(flags) == 9                    # eight blocks plus total
        assert all(line.endswith("flag: match") for line in flags)
        assert "unattributed_cycles: 0\n" in text
