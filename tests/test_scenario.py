import dataclasses
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_table, reference_scenario

from phyenergy.costmodel import EnergyParams, build_report
from phyenergy.errors import ConfigError, DomainError
from phyenergy.ingest import load_filter_config
from phyenergy.legacy import evaluate_model
from phyenergy.opcount import tally_pipeline
from phyenergy.scenario import (_INT_FIELDS, BASE_GRAPHS, LIFTING_SIZES,
                                MAX_CB_BITS, SC_PER_PRB, DecodeConfig,
                                Modulation, _as_scenario, base_graph_id,
                                derive, energy_per_cycle, is_int,
                                load_scenario, parse_modulation,
                                select_base_graph, validate)
from oracles import validate_rules
from test_opcount import _valid_scenarios


# ---------------------------------------------------------------------------
# Lifting sizes and base graph rule


def test_lifting_size_set():
    assert len(LIFTING_SIZES) == 51
    assert LIFTING_SIZES[0] == 2
    assert LIFTING_SIZES[-1] == 384
    assert list(LIFTING_SIZES) == sorted(set(LIFTING_SIZES))


def test_base_graph_rule_thresholds():
    assert base_graph_id(100, 490) == 2      # short block
    assert base_graph_id(292, 948) == 2      # boundary still short
    assert base_graph_id(293, 948) == 1
    assert base_graph_id(3000, 682) == 2     # mid size, rate <= 2/3 (682/1024)
    assert base_graph_id(3000, 683) == 1     # just above 2/3
    assert base_graph_id(8448, 256) == 2     # low rate (1/4)
    assert base_graph_id(8448, 257) == 1
    assert base_graph_id(8448, 948) == 1


# ---------------------------------------------------------------------------
# Derivation


def test_reference_grid_derivation():
    d = derive(reference_scenario())
    assert d.n_f == 624
    assert d.g == 14
    assert d.n_fft == 1024          # smallest power of two above 624
    assert d.k_p == 312
    assert d.n_re == 624 * 14 - 312
    assert d.n_symbols == d.n_re * 2
    assert d.m_cw == d.n_symbols * 4
    assert d.m_symb_layer * 2 == d.n_symbols


def test_fft_size_floor():
    d = derive(reference_scenario(n_prb=1))  # 12 subcarriers
    assert d.n_fft == 128


def test_fft_size_strictly_greater():
    # 516 occupied subcarriers must step up to 1024; 504 fit under 512.
    assert derive(reference_scenario(n_prb=43)).n_fft == 1024
    assert derive(reference_scenario(n_prb=42)).n_fft == 512


def test_tbs_is_byte_aligned_capacity():
    s = reference_scenario()
    d = derive(s)
    capacity = Fraction(d.n_re * d.qm * s.n_layers * s.code_rate, 1024)
    assert d.a % 8 == 0
    assert d.a <= capacity < d.a + 8


def test_tbs_override_respected():
    # rate 683/1024 is above both graph-2 thresholds, so graph 1 applies
    # and 3824 bits fit a single code block.
    d = derive(reference_scenario(tbs_override=3824, code_rate=683))
    assert d.a == 3824
    assert d.bg == 1
    assert d.c == 1
    assert d.b == 3848
    # same payload at rate 490/1024 lands on graph 2 and must split
    d2 = derive(reference_scenario(tbs_override=3824))
    assert d2.bg == 2
    assert d2.c == 2
    assert d2.b == 3824 + 48


def test_reference_segmentation():
    d = derive(reference_scenario())
    assert d.a == 32248
    assert d.bg == 1
    assert d.c == 4                  # ceil(32272 / 8424)
    assert d.b == 32248 + 24 * 4
    assert d.z == 384
    assert d.k == 22 * 384
    assert d.n_ccb == 66 * 384


def test_single_code_block_has_cb_crc_argument():
    d = derive(reference_scenario(tbs_override=0))
    assert d.c == 1
    assert d.b == 24


def test_lifting_selection_is_minimal():
    d = derive(reference_scenario())
    smaller = [z for z in LIFTING_SIZES if z < d.z]
    assert all(22 * z * d.c < d.b for z in smaller)
    assert 22 * d.z * d.c >= d.b


@given(prb=st.integers(min_value=1, max_value=137))
@settings(max_examples=60, deadline=None)
def test_doubling_prb_doubles_grid(prb):
    d1 = derive(reference_scenario(n_prb=prb))
    d2 = derive(reference_scenario(n_prb=2 * prb))
    assert d2.n_f == 2 * d1.n_f
    assert d2.k_p == 2 * d1.k_p


@given(num=st.integers(min_value=1, max_value=1023),
       prb=st.integers(min_value=1, max_value=273),
       mod=st.sampled_from(list(Modulation)))
@settings(max_examples=120, deadline=None)
def test_segmentation_consistency(num, prb, mod):
    d = derive(reference_scenario(n_prb=prb, code_rate=num, modulation=mod))
    k_cb = {1: 8448, 2: 3840}[d.bg]
    if d.c == 1:
        assert d.a + 24 <= k_cb
    else:
        assert d.c == math.ceil((d.a + 24) / (k_cb - 24))
    assert d.b == d.a + 24 * d.c
    # every code block payload must fit the chosen lifting
    assert {1: 22, 2: 10}[d.bg] * d.z * d.c >= d.b
    assert d.z in LIFTING_SIZES


@given(tbs=st.integers(min_value=0, max_value=1_500_000),
       num=st.integers(min_value=1, max_value=1023))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_lifting_size_is_the_smallest_that_fits(tbs, num):
    d = derive(reference_scenario(tbs_override=tbs, code_rate=num))
    info_cols = {1: 22, 2: 10}[d.bg]
    assert info_cols * d.z * d.c >= d.b
    assert all(info_cols * z * d.c < d.b for z in LIFTING_SIZES if z < d.z)


@given(prb=st.integers(min_value=1, max_value=275))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_fft_size_is_the_smallest_power_of_two_above_the_band(prb):
    n_fft = derive(reference_scenario(n_prb=prb)).n_fft
    assert n_fft & (n_fft - 1) == 0 and n_fft >= 128
    assert n_fft > 12 * prb and (n_fft == 128 or n_fft // 2 <= 12 * prb)


def test_derive_is_pure():
    s = reference_scenario()
    assert derive(s) == derive(s)


# ---------------------------------------------------------------------------
# Validation


def test_validate_accepts_reference():
    assert validate(reference_scenario()) == []


def test_layers_cannot_exceed_antennas():
    problems = validate(reference_scenario(n_layers=3, n_rx=2))
    assert "n_layers exceeds min(n_tx,n_rx)" in problems


def test_code_rate_bounds():
    assert any("code_rate out of range" in p
               for p in validate(reference_scenario(code_rate=0)))
    assert any("code_rate out of range" in p
               for p in validate(reference_scenario(code_rate=1024)))


def test_unsupported_scs_rejected():
    problems = validate(reference_scenario(scs_khz=17))
    assert any("scs_khz" in p for p in problems)
    with pytest.raises(ConfigError):
        derive(reference_scenario(scs_khz=17))


def test_ports_must_cover_layers():
    assert any("n_ports" in p
               for p in validate(reference_scenario(n_ports=1)))


def test_counts_must_be_positive():
    problems = validate(reference_scenario(n_prb=0, n_slots=0))
    assert "n_prb must be >= 1" in problems
    assert "n_slots must be >= 1" in problems


@pytest.mark.parametrize("overrides,problem", [
    ({"n_prb": 52.0}, "n_prb must be an integer"),
    ({"code_rate": 490.0}, "code_rate must be an integer"),
    ({"n_slots": True}, "n_slots must be an integer"),
    ({"decode": DecodeConfig(iterations=2.0)},
     "decode.iterations must be an integer"),
    ({"tbs_override": 8000.0}, "tbs_override must be an integer"),
    ({"rx_fft_antennas": False}, "rx_fft_antennas must be an integer"),
], ids=["float-n_prb", "float-code_rate", "bool-n_slots",
        "float-iterations", "float-tbs_override", "bool-rx_fft_antennas"])
def test_integer_fields_must_hold_ints(overrides, problem):
    """The counters trust their integers, so validate checks every integer
    field's type once: a float or a bool never reaches a count."""
    s = reference_scenario(**overrides)
    assert validate(s) == [problem]
    with pytest.raises(ConfigError, match=problem):
        derive(s)
    with pytest.raises(ConfigError, match=problem):
        tally_pipeline(s)


def test_validate_reports_every_non_integer_field():
    s = reference_scenario(n_prb=52.0, n_tx=4.0, n_slots=0,
                           decode=DecodeConfig(deg_cn=True))
    assert validate(s) == ["n_prb must be an integer",
                           "n_tx must be an integer",
                           "decode.deg_cn must be an integer"]


class _Int(int):
    """An int subclass, as a YAML loader or a caller might pass."""


@pytest.mark.parametrize("value, expected", [
    (0, True), (-(10 ** 400), True), (_Int(3), True),
    (True, False), (False, False), (1.0, False), (None, False), ("1", False),
])
def test_is_int_is_the_one_integer_rule(value, expected):
    """The rule validate, the tally constructor and the public counters
    share: an int or an int subclass, never a bool."""
    assert is_int(value) is expected


@pytest.mark.parametrize("overrides,problems", [
    ({"n_prb": None}, ["n_prb must be an integer"]),
    ({"decode": DecodeConfig(iterations=None)},
     ["decode.iterations must be an integer"]),
    ({"n_slots": None, "tbs_override": True},
     ["n_slots must be an integer", "tbs_override must be an integer"]),
    ({"n_prb": _Int(52), "decode": DecodeConfig(deg_cn=_Int(19))}, []),
    ({"tbs_override": _Int(8000), "rx_fft_antennas": _Int(2)}, []),
], ids=["none-n_prb", "none-iterations", "none-and-bool",
        "int-subclass-required", "int-subclass-optional"])
def test_integer_rule_refuses_none_and_accepts_int_subclasses(overrides,
                                                              problems):
    """None in a required integer field is refused, as is a bool anywhere;
    an int subclass is accepted and counts exactly as the plain int does."""
    s = reference_scenario(**overrides)
    assert validate(s) == problems
    if not problems:
        plain = dataclasses.replace(s, **{
            name: (value._replace(**{f: int(v) for f, v in
                                     value._asdict().items()})
                   if isinstance(value, DecodeConfig) else int(value))
            for name, value in overrides.items()})
        assert tally_pipeline(s) == tally_pipeline(plain)


def _reference_with(name, value):
    """The reference scenario with integer field ``name`` set to ``value``."""
    if name.startswith("decode."):
        return reference_scenario(
            decode=DecodeConfig()._replace(**{name[len("decode."):]: value}))
    return reference_scenario(**{name: value})


@pytest.mark.parametrize("value", [True, 1.0, None, "1", _Int(3)],
                         ids=["bool", "float", "none", "str", "int-subclass"])
@pytest.mark.parametrize("name", _INT_FIELDS)
def test_integer_fields_are_checked_one_field_at_a_time_on_failure(name,
                                                                   value):
    """Whatever the one-pass type check decides, validate lists exactly the
    problems of the field-by-field rule: None passes only in the two
    optional fields, and an int subclass passes everywhere, leaving the
    range rules to judge it as the plain int."""
    problems = validate(_reference_with(name, value))
    if isinstance(value, _Int):
        assert problems == validate(_reference_with(name, int(value)))
    elif value is None and name in ("tbs_override", "rx_fft_antennas"):
        assert problems == []
    else:
        assert problems == [f"{name} must be an integer"]


@pytest.mark.parametrize("overrides, problems", [
    ({"kappa": 10 ** 400}, ["kappa must be a real number"]),
    ({"kappa": "x"}, ["kappa must be a real number"]),
    ({"snr_db": None}, ["snr_db must be a real number"]),
    ({"clock_hz": True}, ["clock_hz must be a real number"]),
    ({"decode": {"deg_cn": 19}}, ["decode must be a DecodeConfig"]),
    ({"modulation": "QPSK"}, ["modulation must be a Modulation"]),
    ({"decode": (19, 3, 8), "n_prb": 52.0, "kappa": None, "n_slots": 0},
     ["kappa must be a real number", "decode must be a DecodeConfig",
      "n_prb must be an integer"]),
    ({"kappa": 1, "clock_hz": 10 ** 200},
     ["kappa * clock_hz**2 must be finite"]),
    ({"snr_db": 10, "clock_hz": 2_100_000_000}, []),
], ids=["huge-int-kappa", "str-kappa", "none-snr_db", "bool-clock_hz",
        "dict-decode", "str-modulation", "several", "int-overflow",
        "int-reals"])
def test_validate_reports_a_field_of_the_wrong_type(overrides, problems):
    """A scenario built in code may hold anything: validate lists each field
    of the wrong type, alone and never raising, and derive refuses it.  A
    real-number field takes a float or an int a float can hold."""
    s = reference_scenario(**overrides)
    assert validate(s) == problems
    if problems:
        with pytest.raises(ConfigError, match=re.escape("; ".join(problems))):
            derive(s)
    else:
        assert tally_pipeline(s) == tally_pipeline(reference_scenario())


_SCENARIO_FIELDS = [field.name for field in dataclasses.fields(
    reference_scenario())]
_ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(10 ** 400), st.floats(),
    st.text(max_size=3), st.just("QPSK"), st.dictionaries(st.text(max_size=2),
                                                         st.integers()),
    st.tuples(st.integers(), st.integers(), st.integers()),
    st.sampled_from(list(Modulation)), st.just(DecodeConfig()))


@given(field=st.sampled_from(_SCENARIO_FIELDS + list(_INT_FIELDS[11:14])),
       value=_ANY_VALUE)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_validate_never_raises_on_a_field_of_any_value(field, value):
    """Whatever one field holds, validate returns a list of messages, and
    derive either refuses the scenario with ConfigError or expands it."""
    if field.startswith("decode."):
        s = _reference_with(field, value)
    else:
        s = reference_scenario(**{field: value})
    problems = validate(s)
    assert all(isinstance(problem, str) for problem in problems)
    try:
        derive(s)
    except ConfigError as exc:
        if problems:
            assert str(exc) == "; ".join(problems)
    else:
        assert problems == []


def test_n_prb_is_capped_at_a_full_carrier():
    assert validate(reference_scenario(n_prb=275)) == []
    assert "n_prb must be <= 275" in validate(reference_scenario(n_prb=276))
    with pytest.raises(ConfigError, match="n_prb must be <= 275"):
        derive(reference_scenario(n_prb=100_000_000))


@pytest.mark.parametrize("field", ["snr_db", "clock_hz", "kappa"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_validate_requires_finite_floats(field, value):
    problems = validate(reference_scenario(**{field: value}))
    assert f"{field} must be finite" in problems
    with pytest.raises(ConfigError, match="must be finite"):
        derive(reference_scenario(**{field: value}))


@pytest.mark.parametrize("kappa,clock_hz", [
    (math.nan, 2.1e9), (1e-25, math.inf), (math.inf, 2.1e9),
    # finite inputs whose product kappa * clock_hz**2 overflows
    (1e300, 2.1e9), (1e-25, 1e200),
])
def test_energy_per_cycle_rejects_non_finite(kappa, clock_hz):
    with pytest.raises(ConfigError, match="finite"):
        energy_per_cycle(kappa, clock_hz)


@pytest.mark.parametrize("kappa,clock_hz", [
    (1e-300, 1e-20),            # the product underflows to 0.0
    (1e-310, 1.0),              # a subnormal product
])
def test_energy_per_cycle_rejects_underflow(kappa, clock_hz):
    with pytest.raises(ConfigError, match="smallest normal float"):
        energy_per_cycle(kappa, clock_hz)


@pytest.mark.parametrize("kappa,clock_hz,problem", [
    (-math.inf, 2.1e9, "kappa must be finite"),
    (0.0, 2.1e9, "kappa must be positive"),
    (1e-25, -math.inf, "clock_hz must be finite"),
    (1e-25, 0.0, "clock_hz must be positive"),
    (-1.0, math.nan, "kappa must be positive"),     # the first rule broken
    (1e300, 2.1e9, "kappa * clock_hz**2 must be finite"),
])
def test_validate_reports_the_first_energy_scale_rule_broken(kappa, clock_hz,
                                                             problem):
    s = reference_scenario(kappa=kappa, clock_hz=clock_hz)
    assert validate(s) == [problem]


@pytest.mark.parametrize("kappa, clock_hz, problem", [
    (10 ** 400, 2.1e9, "kappa must be a real number"),
    ("x", 2.1e9, "kappa must be a real number"),
    (True, 2.1e9, "kappa must be a real number"),
    (1e-25, "x", "clock_hz must be a real number"),
    (None, None, "kappa must be a real number"),
], ids=["huge-int-kappa", "str-kappa", "bool-kappa", "str-clock_hz",
        "none-both"])
def test_a_report_refuses_an_energy_scale_of_the_wrong_type(kappa, clock_hz,
                                                            problem):
    """energy_per_cycle applies validate's real-number rule first, so an
    EnergyParams built in code with a non-float fails with ConfigError,
    in the words validate uses, never with OverflowError or TypeError."""
    with pytest.raises(ConfigError, match=f"^{problem}$"):
        energy_per_cycle(kappa, clock_hz)
    with pytest.raises(ConfigError, match=f"^{problem}$"):
        build_report(tally_pipeline(reference_scenario()), make_table(),
                     EnergyParams(kappa, clock_hz))
    assert problem in validate(reference_scenario(kappa=kappa,
                                                  clock_hz=clock_hz))


# Log-uniform over the positive floats, subnormals included: 2**-1074 is
# the smallest, and 2**1023 leaves room below the largest.
_SCALES = st.floats(min_value=-1074, max_value=1023).map(lambda e: 2.0 ** e)
_TABLE = make_table()


@given(s=_valid_scenarios(), kappa=_SCALES, clock_hz=_SCALES)
@example(s=reference_scenario(), kappa=1e-300, clock_hz=1e-20)
@example(s=reference_scenario(), kappa=1e300, clock_hz=2.1e9)
@example(s=reference_scenario(), kappa=1e-25, clock_hz=2.1e9)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_a_scenario_validates_exactly_when_its_energy_scale_prices(
        s, kappa, clock_hz):
    """validate and build_report apply one energy-scale rule: a scenario
    validates exactly when its report prices without ConfigError, and then
    the report's epsilon is kappa * clock_hz**2."""
    tallies = tally_pipeline(s)         # the counts ignore the energy scale
    s = dataclasses.replace(s, kappa=kappa, clock_hz=clock_hz)
    problems = validate(s)
    try:
        report = build_report(tallies, _TABLE, EnergyParams(kappa, clock_hz))
    except ConfigError as exc:
        assert problems == [str(exc)]
        with pytest.raises(ConfigError, match=re.escape(str(exc))):
            tally_pipeline(s)
        return
    except DomainError:                 # a finite epsilon, too many joules
        epsilon = energy_per_cycle(kappa, clock_hz)
    else:
        epsilon = report.epsilon
    assert problems == []
    assert epsilon == kappa * clock_hz * clock_hz


def _around(*edges):
    """Each integer edge of a range rule, and its two neighbours."""
    return st.sampled_from(sorted({e + d for e in edges for d in (-1, 0, 1)}))


_TINY, _HUGE = sys.float_info.min, sys.float_info.max
# The energy-scale edges: each field's sign and finiteness, and the
# product on, just inside and just outside the normal float range.
_KAPPAS = st.sampled_from([
    math.nan, math.inf, -math.inf, -1e-25, -0.0, 0.0, 5e-324, _TINY / 2,
    _TINY, math.nextafter(_TINY, 1.0), 1e-25, _HUGE / 2, _HUGE])
_CLOCKS = st.sampled_from([
    math.nan, math.inf, -math.inf, -1.0, 0.0, 5e-324,
    math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 2.1e9, 1e200])


@st.composite
def _edge_scenarios(draw):
    """Scenarios whose fields sit on, just inside or just outside every
    range rule validate applies, several rules broken at once as often as
    none."""
    n_tx, n_rx = draw(_around(1, 8)), draw(_around(1, 8))
    n_layers = min(n_tx, n_rx) + draw(st.integers(-1, 1))
    optional = st.one_of(st.none(), _around(0, 1))
    return reference_scenario(
        n_slots=draw(_around(1)), n_prb=draw(_around(1, 275)),
        n_tx=n_tx, n_rx=n_rx, n_layers=n_layers,
        n_ports=n_layers + draw(st.integers(-1, 1)),
        channel_len=draw(_around(1)),
        scs_khz=draw(st.sampled_from([0, 14, 15, 16, 30, 60, 120, 240])),
        code_rate=draw(_around(1, 1023)),
        snr_db=draw(st.sampled_from([math.nan, math.inf, -math.inf, -_HUGE,
                                     0.0, 10.0, _HUGE])),
        kappa=draw(_KAPPAS), clock_hz=draw(_CLOCKS),
        pilot_sc_per_prb=draw(_around(1, 12)),
        pilot_symbols_per_slot=draw(_around(0, 13)),
        tbs_override=draw(optional), rx_fft_antennas=draw(optional),
        decode=DecodeConfig(deg_cn=draw(_around(1)), deg_vn=draw(_around(1)),
                            iterations=draw(_around(0))))


@given(s=_edge_scenarios())
@example(s=reference_scenario())
@example(s=reference_scenario(kappa=_TINY, clock_hz=1.0))
@example(s=reference_scenario(kappa=_HUGE, clock_hz=math.nextafter(1.0, 2.0)))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_validate_applies_the_range_rules_one_at_a_time(s):
    """validate's one tuple of flags lists exactly the messages of the
    rule-at-a-time oracle, in its order."""
    assert validate(s) == validate_rules(s)


def test_every_layer_maps_onto_one_codeword():
    # A modelling choice: TS 38.211 would split 5-8 layers over two
    # codewords, the model keeps one for any layer count.
    def derived(v):
        return derive(reference_scenario(n_tx=8, n_rx=8, n_ports=8,
                                         n_layers=v))
    one = derived(1)
    for v in range(1, 9):
        d = derived(v)
        assert d.n_symbols == v * one.n_symbols
        assert d.m_cw == v * one.m_cw
        assert d.m_symb_layer == one.m_symb_layer == one.n_re


def test_validate_returns_multiple_problems():
    problems = validate(reference_scenario(code_rate=0, n_layers=9))
    assert len(problems) >= 2


# ---------------------------------------------------------------------------
# Base graph shapes


def test_bg1_entry_count_is_standard():
    bg1 = select_base_graph(8448, 948)
    assert (bg1.bg, bg1.rows, bg1.cols, bg1.n1) == (1, 46, 68, 316)
    assert bg1.info_cols == 22
    bg2 = select_base_graph(100, 490)
    assert (bg2.bg, bg2.rows, bg2.cols, bg2.n1) == (2, 42, 52, 197)
    assert bg2.info_cols == 10


# ---------------------------------------------------------------------------
# Config file loading


def _write(tmp_path, text):
    path = tmp_path / "scenario.yaml"
    path.write_text(text)
    return path


REFERENCE_YAML = """\
n_slots: 1
snr_db: 10.0
scs_khz: 15
n_prb: 52
modulation: QAM16
code_rate: 490/1024
n_tx: 4
n_rx: 4
n_layers: 2
n_ports: 4
clock_hz: 2.1e9
kappa: 1.0e-25
"""


def test_load_reference_file(tmp_path):
    s = load_scenario(_write(tmp_path, REFERENCE_YAML))
    assert s == reference_scenario()


def test_unknown_keys_rejected(tmp_path):
    path = _write(tmp_path, REFERENCE_YAML + "frobnicate: 3\n")
    with pytest.raises(ConfigError, match="unknown scenario keys: frobnicate"):
        load_scenario(path)


def test_missing_keys_rejected(tmp_path):
    path = _write(tmp_path, "n_prb: 52\n")
    with pytest.raises(ConfigError, match="missing scenario keys"):
        load_scenario(path)


def test_missing_file_names_path(tmp_path):
    missing = tmp_path / "nope.yaml"
    with pytest.raises(ConfigError, match="nope.yaml"):
        load_scenario(missing)


def test_scientific_notation_strings_coerced():
    # YAML 1.1 resolves 2.1e9 as a string; the loader must still accept it.
    s = _as_scenario("scenario", {
        "n_slots": 1, "snr_db": "10", "scs_khz": 15, "n_prb": 52,
        "modulation": "16QAM", "code_rate": "490/1024", "n_tx": 4,
        "n_rx": 4, "n_layers": 2, "n_ports": 4, "clock_hz": "2.1e9",
        "kappa": "1e-25",
    })
    assert s.clock_hz == 2.1e9
    assert s.kappa == 1e-25
    assert s.modulation is Modulation.QAM16


def test_rate_denominator_must_be_1024():
    with pytest.raises(ConfigError, match="denominator"):
        _as_scenario("scenario", {**_base_mapping(), "code_rate": "1/2"})


def _base_mapping():
    return {
        "n_slots": 1, "snr_db": 10.0, "scs_khz": 15, "n_prb": 52,
        "modulation": "QAM16", "code_rate": 490, "n_tx": 4, "n_rx": 4,
        "n_layers": 2, "n_ports": 4,
    }


def test_defaults_applied():
    s = _as_scenario("scenario", _base_mapping())
    assert s.clock_hz == 2.1e9
    assert s.kappa == 1e-25
    assert s.channel_len == 8
    assert s.pilot_sc_per_prb == 6
    assert s.decode.deg_cn == 19
    assert s.decode.deg_vn == 3
    assert s.decode.iterations == 8


def test_decode_section_parsed():
    s = _as_scenario("scenario", {**_base_mapping(),
                                  "decode": {"iterations": 12}})
    assert s.decode.iterations == 12
    assert s.decode.deg_cn == 19
    with pytest.raises(ConfigError, match="unknown decode keys"):
        _as_scenario("scenario", {**_base_mapping(), "decode": {"spin": 1}})


def test_decode_config_is_a_tuple_and_only_a_scenario_is_a_dataclass():
    """Records compare equal to plain tuples and take ``_replace``, not
    ``dataclasses.replace``; a Scenario still takes the latter."""
    assert DecodeConfig() == (19, 3, 8)
    assert DecodeConfig()._replace(iterations=2) == DecodeConfig(iterations=2)
    with pytest.raises(TypeError):
        dataclasses.replace(DecodeConfig(), iterations=2)
    s = dataclasses.replace(reference_scenario(),
                            decode=DecodeConfig(iterations=2))
    assert s.decode == (19, 3, 2)


def _params(name):
    configs = Path(__file__).parent.parent / "configs"
    return yaml.safe_load((configs / f"{name}.yaml").read_text())


def _load_filter(mapping, tmp_path):
    path = tmp_path / "filter.yaml"
    path.write_text(yaml.safe_dump(mapping))
    return load_filter_config(path)


def _model(name):
    return lambda mapping, _: evaluate_model(name, mapping)


# Every mapping the shared field reader serves: (context, a field, whether
# the field is required, a valid mapping, load(mapping, tmp_path)).
LOADER_CASES = {
    "scenario": ("scenario", "n_prb", True, _base_mapping(),
                 lambda m, _: _as_scenario("scenario", m)),
    "decode": ("decode", "iterations", False, {"iterations": 8},
               lambda m, _: _as_scenario("scenario", {**_base_mapping(),
                                                      "decode": m})),
    "auer": ("auer", "n_trx", True, _params("auer"), _model("auer")),
    "desset": ("desset", "p_bbu_w", True, _params("desset"),
               _model("desset")),
    "yan": ("yan", "e_ue_j", True, _params("yan"), _model("yan")),
    "yu": ("yu", "p_cp_static_w", True, _params("yu"), _model("yu")),
    "tombaz": ("tombaz", "n_sectors", True, _params("tombaz"),
               _model("tombaz")),
    "fu-bb": ("fu", "rho_gops_per_w", True, _params("fu"), _model("fu-bb")),
    "fu-rf": ("fu", "rho_gops_per_w", True, _params("fu"), _model("fu-rf")),
    "yu-carrier": ("yu.carriers[0]", "p_tx_w", True,
                   _params("yu")["carriers"][0],
                   lambda m, _: evaluate_model(
                       "yu", {"p_cp_static_w": 5.0, "carriers": [m]})),
    "fu.bb": ("fu.bb", "l_beams", True, _params("fu")["bb"],
              lambda m, _: evaluate_model("fu-bb", {**_params("fu"),
                                                    "bb": m})),
    "filter": ("filter", "allow", False, {"allow": ["nr5g/"]}, _load_filter),
}


@pytest.mark.parametrize("case", LOADER_CASES.values(), ids=LOADER_CASES)
def test_every_mapping_reader_checks_keys_and_types(tmp_path, case):
    context, key, required, valid, load = case
    load(valid, tmp_path)

    def fails(mapping, message):
        with pytest.raises(ConfigError, match=re.escape(message)) as exc:
            load(mapping, tmp_path)
        if context == "filter":         # the file path leads every message
            assert str(exc.value).startswith(str(tmp_path))

    fails({**valid, "bogus": 1, 7: 1}, f"unknown {context} keys: 7, bogus")
    fails({**valid, key: True}, f"{context}.{key}")
    fails(["not", "a", "mapping"], f"{context}: expected a key/value mapping")
    if required:
        fails({k: v for k, v in valid.items() if k != key},
              f"missing {context} keys: {key}")


def test_modulation_aliases():
    assert parse_modulation("qpsk") is Modulation.QPSK
    assert parse_modulation("64QAM") is Modulation.QAM64
    assert parse_modulation("QAM256") is Modulation.QAM256
    with pytest.raises(ConfigError, match="unknown modulation"):
        parse_modulation("BPSK")


def test_maximal_pilot_budget_still_leaves_data():
    # Densest legal pilot layout: 12 pilot subcarriers on 13 of 14 symbols.
    d = derive(reference_scenario(pilot_sc_per_prb=12,
                                  pilot_symbols_per_slot=13, n_prb=1))
    assert d.n_re == 12


def test_the_largest_code_block_fills_the_largest_lifting_size():
    for bg in (1, 2):
        assert MAX_CB_BITS[bg] == BASE_GRAPHS[bg].info_cols * LIFTING_SIZES[-1]


@given(s=_valid_scenarios())
@example(s=reference_scenario(pilot_sc_per_prb=12, pilot_symbols_per_slot=13,
                              n_prb=1))
@example(s=reference_scenario(tbs_override=0))
@example(s=reference_scenario(tbs_override=3824))     # graph 2, two blocks
@example(s=reference_scenario(tbs_override=3825))     # graph 1, one block
@example(s=reference_scenario(tbs_override=8424))     # graph 1, full block
@example(s=reference_scenario(tbs_override=8425))     # graph 1, two blocks
@example(s=reference_scenario(tbs_override=200_000, code_rate=200))  # graph 2
@settings(max_examples=300, deadline=None, derandomize=True)
def test_validate_leaves_derive_nothing_to_check(s):
    """Under validate's ranges every subcarrier keeps a data resource
    element, and some lifting size fits each code block, so derive raises
    nothing validate does not list."""
    d = derive(s)
    assert d.n_re >= SC_PER_PRB * s.n_prb
    needed = -(-d.b // (BASE_GRAPHS[d.bg].info_cols * d.c))
    assert needed <= d.z <= LIFTING_SIZES[-1]
    assert d.k * d.c >= d.b


def test_pilot_bounds_validated():
    assert any("pilot_sc_per_prb" in p
               for p in validate(reference_scenario(pilot_sc_per_prb=13)))
    assert any("pilot_symbols_per_slot" in p
               for p in validate(
                   reference_scenario(pilot_symbols_per_slot=14)))
