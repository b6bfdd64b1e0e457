from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import make_table, reference_scenario

import phyenergy
from phyenergy.costmodel import (CostEntry, EnergyParams, InstructionCostTable,
                                 build_report, cycles_for, expand_flops,
                                 load_cost_table, load_default_cost_table,
                                 parse_cost_table)
from phyenergy.errors import ConfigError, CostTableError, CoverageError
from phyenergy.opcount import (BlockId, DataClass, OpKind, OperationTally,
                               tally_pipeline)
from phyenergy.scenario import energy_per_cycle

DS = DataClass.DOUBLE_SCALAR


# ---------------------------------------------------------------------------
# Parsing


_HEADER = "op_kind,data_class,operand_location,micro_ops,cycles\n"
GOOD_TABLE = """\
# source: unit test fixture
# date: 2026-01
op_kind,data_class,operand_location,micro_ops,cycles
ADD,double_scalar,register,1,1
MUL,double_scalar,register,1,3
DIV,double_scalar,register,4,1/3
XOR,logical_vector,mmx,1,0.5
"""


def test_parse_good_table():
    table = parse_cost_table(GOOD_TABLE, source="fixture")
    assert table.source == "unit test fixture"
    assert table.date == "2026-01"
    entry = table.lookup(OpKind.DIV, DS)
    assert entry.micro_ops == 4
    assert entry.cycles == Fraction(1, 3)
    assert table.lookup(OpKind.XOR,
                        DataClass.LOGICAL_VECTOR).cycles == Fraction(1, 2)


def test_parse_requires_header():
    with pytest.raises(CostTableError, match="header"):
        parse_cost_table("ADD,double_scalar,register,1,1\n")


@pytest.mark.parametrize("cls, location", [
    (DataClass.LOGICAL_SCALAR, "register"),
    (DataClass.INT_SCALAR, "register"),
    (DataClass.DOUBLE_SCALAR, "register"),
    (DataClass.LOGICAL_VECTOR, "mmx"),
    (DataClass.INT_VECTOR, "mmx"),
    (DataClass.DOUBLE_VECTOR, "xmm"),
    (DataClass.STRUCT, "memory"),
])
def test_parse_accepts_only_the_implied_location(cls, location):
    row = f"ADD,{cls.value},{{}},2,3\n"
    table = parse_cost_table(_HEADER + row.format(location), source="t")
    assert table.entries == {(OpKind.ADD, cls): CostEntry(2, Fraction(3))}
    for other in sorted({"register", "mmx", "xmm", "memory"} - {location}):
        with pytest.raises(CostTableError) as exc:
            parse_cost_table(_HEADER + row.format(other), source="t")
        assert str(exc.value) == (
            f"t:2: operand_location of {cls.value} must be "
            f"'{location}', got '{other}'")


def test_parse_rejects_duplicates_with_line_number():
    text = GOOD_TABLE + "ADD,double_scalar,register,2,2\n"
    with pytest.raises(CostTableError, match=r":8: duplicate"):
        parse_cost_table(text, source="dup")


def test_parse_rejects_unknown_names():
    base = ("op_kind,data_class,operand_location,micro_ops,cycles\n")
    with pytest.raises(CostTableError, match="unknown op_kind"):
        parse_cost_table(base + "NOP,double_scalar,register,1,1\n")
    with pytest.raises(CostTableError, match="unknown data_class"):
        parse_cost_table(base + "ADD,quad,register,1,1\n")
    with pytest.raises(CostTableError, match="unknown operand_location"):
        parse_cost_table(base + "ADD,double_scalar,cache,1,1\n")


def test_parse_rejects_bad_numbers():
    base = "op_kind,data_class,operand_location,micro_ops,cycles\n"
    with pytest.raises(CostTableError, match="micro_ops"):
        parse_cost_table(base + "ADD,double_scalar,register,x,1\n")
    with pytest.raises(CostTableError, match="cycles"):
        parse_cost_table(base + "ADD,double_scalar,register,1,fast\n")
    with pytest.raises(CostTableError, match=">= 0"):
        parse_cost_table(base + "ADD,double_scalar,register,1,-2\n")


def test_parse_rejects_empty():
    with pytest.raises(CostTableError, match="empty"):
        parse_cost_table("# nothing but comments\n")


def test_load_missing_file():
    with pytest.raises(CostTableError, match="not found"):
        load_cost_table("/nonexistent/table.csv")


def test_load_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(GOOD_TABLE)
    table = load_cost_table(path)
    assert table.lookup(OpKind.MUL, DS).cycles == 3


# ---------------------------------------------------------------------------
# Lookup coverage


def test_lookup_miss_names_the_key():
    table = parse_cost_table(GOOD_TABLE, source="tiny")
    with pytest.raises(CoverageError) as exc:
        table.lookup(OpKind.LOG, DS)
    msg = str(exc.value)
    assert "op_kind=LOG" in msg
    assert "data_class=double_scalar" in msg
    assert "operand_location=register" in msg


def test_default_table_covers_every_kind_and_class():
    table = load_default_cost_table()
    for kind in OpKind:
        for cls in DataClass:
            entry = table.lookup(kind, cls)
            assert entry.micro_ops >= 1
            assert entry.cycles > 0
    assert table.source
    assert table.date


def test_default_table_covers_pipeline_tallies():
    table = load_default_cost_table()
    tallies = tally_pipeline(reference_scenario())
    for block in BlockId:
        totals = cycles_for(tallies.per_block[block], table)
        assert totals.cycles > 0


def test_default_table_is_the_bundled_file():
    """The default table is ``data/cost_table.csv`` in the package, read as
    any table file is.  Its ``# source:`` line names it in both cases; the
    ``bundled:`` label prefixes only errors in the file."""
    bundled = load_default_cost_table()
    table = load_cost_table(Path(phyenergy.__file__).parent / "data"
                            / "cost_table.csv")
    assert (bundled.entries, bundled.date) == (table.entries, table.date)
    assert bundled.source == table.source
    assert bundled.source.startswith("bundled default, ")


# ---------------------------------------------------------------------------
# FLOP expansion


def test_expand_flops_splits_into_add_and_mul():
    t = OperationTally({(OpKind.FLOP, DS): 15})
    e = expand_flops(t)
    assert e.get(OpKind.ADD, DS) == 15
    assert e.get(OpKind.MUL, DS) == 15
    assert e.get(OpKind.FLOP, DS) == 0
    assert e.total_ops() == 30


def test_expand_flops_merges_with_existing_counts():
    t = OperationTally({(OpKind.FLOP, DS): 10, (OpKind.ADD, DS): 5})
    e = expand_flops(t)
    assert e.get(OpKind.ADD, DS) == 15
    assert e.get(OpKind.MUL, DS) == 10


def test_expand_flops_preserves_other_entries():
    t = OperationTally({(OpKind.XOR, DataClass.LOGICAL_VECTOR): 7})
    assert expand_flops(t) == t


# ---------------------------------------------------------------------------
# Cycle accumulation


def test_uniform_table_counts_expanded_ops():
    t = OperationTally({(OpKind.FLOP, DS): 3000,
                        (OpKind.ADD, DS): 500})
    totals = cycles_for(t, make_table())
    assert totals.cycles == 6500
    assert totals.micro_ops == 6500
    assert totals.cycles == t.total_ops(expand_flops=True)


def test_cycles_accumulate_exactly():
    table = parse_cost_table(
        "op_kind,data_class,operand_location,micro_ops,cycles\n"
        "DIV,double_scalar,register,1,1/3\n")
    t = OperationTally({(OpKind.DIV, DS): 3})
    assert cycles_for(t, table).cycles == 1   # no float rounding


def test_flop_uses_add_and_mul_costs():
    table = parse_cost_table(
        "op_kind,data_class,operand_location,micro_ops,cycles\n"
        "ADD,double_scalar,register,1,1\n"
        "MUL,double_scalar,register,2,2\n")
    t = OperationTally({(OpKind.FLOP, DS): 10})
    totals = cycles_for(t, table)
    assert totals.cycles == 30
    assert totals.micro_ops == 30


@given(scale=st.integers(min_value=1, max_value=50))
@settings(max_examples=25, deadline=None)
def test_cycle_costs_are_homogeneous_in_the_table(scale):
    t = tally_pipeline(reference_scenario()).per_block[BlockId.F]
    base = cycles_for(t, make_table(cycles=Fraction(1, 2)))
    scaled = cycles_for(t, make_table(cycles=Fraction(scale, 2)))
    assert scaled.cycles == base.cycles * scale
    assert scaled.micro_ops == base.micro_ops


# ---------------------------------------------------------------------------
# The compiled kernel against a plain Fraction sum


_ALL_KEYS = [(kind, cls) for kind in OpKind for cls in DataClass]


def _fraction_oracle(tally, table):
    """expand_flops + lookup + Fraction sum: the kernel's reference."""
    micro_ops, cycles = 0, Fraction(0)
    for (kind, cls), n in expand_flops(tally).items():
        entry = table.lookup(kind, cls)
        micro_ops += n * entry.micro_ops
        cycles += n * entry.cycles
    return micro_ops, cycles


def _outcome(price):
    try:
        return price()
    except CoverageError as exc:
        return str(exc)


_entry_st = st.builds(
    CostEntry, micro_ops=st.integers(min_value=0, max_value=12),
    cycles=st.builds(Fraction, st.integers(min_value=0, max_value=40),
                     st.sampled_from([1, 2, 3, 4, 7])))


@st.composite
def _random_table(draw, max_missing):
    entries = {key: draw(_entry_st) for key in _ALL_KEYS}
    for key in draw(st.sets(st.sampled_from(_ALL_KEYS),
                            max_size=max_missing)):
        del entries[key]
    return InstructionCostTable(entries=entries, source="random")


_big_tally_st = st.dictionaries(
    st.sampled_from(_ALL_KEYS), st.integers(min_value=0, max_value=10**12),
    max_size=len(_ALL_KEYS)).map(OperationTally)


# Explaining a failure of a 77-key example takes minutes and much memory;
# the shrunk example alone is enough to debug from.
_NO_EXPLAIN = [phase for phase in Phase if phase is not Phase.explain]


@given(tally=_big_tally_st, table=_random_table(max_missing=0))
@settings(max_examples=150, deadline=None, phases=_NO_EXPLAIN)
def test_cycles_for_matches_fraction_oracle(tally, table):
    totals = cycles_for(tally, table)
    assert (totals.micro_ops, totals.cycles) == _fraction_oracle(tally, table)
    assert type(totals.cycles) is Fraction


@given(tally=_big_tally_st, table=_random_table(max_missing=6))
@settings(max_examples=150, deadline=None, phases=_NO_EXPLAIN)
def test_cycles_for_fails_like_the_oracle_on_partial_tables(tally, table):
    def kernel():
        totals = cycles_for(tally, table)
        return totals.micro_ops, totals.cycles
    assert (_outcome(kernel)
            == _outcome(lambda: _fraction_oracle(tally, table)))


def test_coverage_error_for_a_missing_plain_entry():
    table = parse_cost_table(_HEADER + "ADD,double_scalar,register,1,1\n",
                             source="tiny")
    with pytest.raises(CoverageError) as exc:
        cycles_for(OperationTally({(OpKind.LOG, DS): 2}), table)
    assert str(exc.value) == (
        "no cost entry for op_kind=LOG data_class=double_scalar "
        "operand_location=register (table source: tiny)")
    # a zero count needs no entry
    zero = OperationTally({(OpKind.LOG, DS): 0, (OpKind.ADD, DS): 3})
    assert cycles_for(zero, table).cycles == 3


def test_coverage_error_for_a_flop_without_its_mul_row():
    table = parse_cost_table(_HEADER + "ADD,double_scalar,register,1,1\n"
                             "FLOP,double_scalar,register,2,2\n",
                             source="tiny")
    t = OperationTally({(OpKind.DIV, DS): 1, (OpKind.FLOP, DS): 1})
    with pytest.raises(CoverageError) as exc:
        cycles_for(t, table)
    # expanded order is ADD, MUL, DIV: MUL is the first key missing
    assert str(exc.value) == (
        "no cost entry for op_kind=MUL data_class=double_scalar "
        "operand_location=register (table source: tiny)")


def test_bundled_flop_rows_are_add_plus_mul():
    table = load_default_cost_table()
    for cls in DataClass:
        flop, add, mul = (table.lookup(kind, cls)
                          for kind in (OpKind.FLOP, OpKind.ADD, OpKind.MUL))
        assert flop.micro_ops == add.micro_ops + mul.micro_ops, cls
        assert flop.cycles == add.cycles + mul.cycles, cls


# ---------------------------------------------------------------------------
# Energy


def test_energy_per_cycle_reference_value():
    eps = energy_per_cycle(1e-25, 2.1e9)
    assert abs(eps - 4.41e-7) <= 1e-12 * 4.41e-7


def test_energy_per_cycle_rejects_nonpositive():
    with pytest.raises(ConfigError):
        energy_per_cycle(0.0, 2.1e9)
    with pytest.raises(ConfigError):
        energy_per_cycle(1e-25, -1.0)


def test_report_epsilon(uniform_table):
    report = build_report(tally_pipeline(reference_scenario()), uniform_table,
                          EnergyParams(kappa=1e-25, clock_hz=2.1e9))
    assert report.epsilon == 1e-25 * 2.1e9 * 2.1e9


@given(f=st.floats(min_value=1e6, max_value=1e10),
       k=st.floats(min_value=1e-27, max_value=1e-20))
@settings(max_examples=100, deadline=None)
def test_energy_quadratic_in_clock(f, k):
    assert energy_per_cycle(k, 2 * f) == pytest.approx(
        4 * energy_per_cycle(k, f), rel=1e-12)


# ---------------------------------------------------------------------------
# Report assembly


def test_report_totals_are_blockwise_sums(uniform_table):
    tallies = tally_pipeline(reference_scenario())
    report = build_report(tallies, uniform_table,
                          EnergyParams(kappa=1e-25, clock_hz=2.1e9))
    assert report.total.micro_ops == sum(
        report.per_block[b].micro_ops for b in BlockId)
    assert report.total.cycles == sum(
        (report.per_block[b].cycles for b in BlockId), Fraction(0))
    assert report.bits_transmitted == 32248
    for b in BlockId:
        cost = report.per_block[b]
        assert cost.cycles_per_bit == cost.cycles / 32248
        assert cost.energy_j == pytest.approx(
            float(cost.cycles) * report.epsilon, rel=1e-12)


def test_report_energy_scales_with_kappa(uniform_table):
    tallies = tally_pipeline(reference_scenario())
    r1 = build_report(tallies, uniform_table,
                      EnergyParams(kappa=1e-25, clock_hz=2.1e9))
    r2 = build_report(tallies, uniform_table,
                      EnergyParams(kappa=2e-25, clock_hz=2.1e9))
    assert r2.total.energy_j == pytest.approx(2 * r1.total.energy_j, rel=1e-12)
    assert r2.total.cycles == r1.total.cycles    # cycles unaffected


def test_report_carries_table_metadata():
    tallies = tally_pipeline(reference_scenario())
    table = InstructionCostTable(
        entries=make_table().entries, source="alpha", date="2025-12")
    report = build_report(tallies, table,
                          EnergyParams(kappa=1e-25, clock_hz=2.1e9))
    assert report.table_source == "alpha"
    assert report.table_date == "2025-12"


def test_report_zero_bits_leaves_per_bit_undefined(uniform_table):
    tallies = tally_pipeline(reference_scenario(tbs_override=0))
    report = build_report(tallies, uniform_table,
                          EnergyParams(kappa=1e-25, clock_hz=2.1e9))
    assert report.bits_transmitted == 0
    assert report.total.cycles_per_bit is None
    assert report.total.cycles > 0


def test_a_table_with_negative_cycles_cannot_price():
    """Reports check only the total's energy for the float range, which
    covers every block because table cycles are non-negative; a table built
    in code with a negative entry is refused when compiled."""
    entries = dict(make_table().entries)
    entries[(OpKind.ADD, DS)] = CostEntry(micro_ops=1, cycles=Fraction(-1))
    with pytest.raises(CostTableError, match="negative: cycles must be >= 0"):
        table = InstructionCostTable(entries=entries, source="negative")
        build_report(tally_pipeline(reference_scenario()), table,
                     EnergyParams(kappa=1e-25, clock_hz=2.1e9))


@pytest.mark.parametrize("cycles, value", [
    ("0e-10000000", Fraction(0)),
    ("1" + "0" * 4299 + "e-4301", Fraction(1, 100)),
    ("1e-4601", "denominator"),
    ("-1e-10000000", ">= 0"),
    ("1e4300", Fraction(10 ** 4300)),
    ("1e 5000", "bad cycles value"),
    ("1e -99999", "bad cycles value"),
    ("1/2e99999", "bad cycles value"),
    ("1e" + "9" * 5000, "digit"),
], ids=["zero", "long-mantissa", "bound", "negative", "largest-exponent",
        "space-after-e", "space-before-sign", "fraction-form",
        "long-exponent"])
def test_cycles_exponents_near_the_bound(cycles, value):
    """Under -4601 an exponent is read as -4601, which keeps every outcome:
    zero is zero, anything else is finer than 10**-300, and a negative
    value stays negative.  Up to 4300 a positive exponent parses.  Text
    that Fraction's grammar refuses keeps Fraction's refusal."""
    text = _HEADER + "ADD,double_scalar,register,1," + cycles + "\n"
    if isinstance(value, str):
        with pytest.raises(CostTableError, match=value):
            parse_cost_table(text, source="t")
    else:
        entry = parse_cost_table(text, source="t").entries[
            (OpKind.ADD, DataClass.DOUBLE_SCALAR)]
        assert entry.cycles == value
