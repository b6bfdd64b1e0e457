"""Property suite: no scenario file or argument list ends in a traceback.

``cli.main`` runs in-process on generated scenario files (the reference
scenario with a few fields replaced, dropped or added) and generated
``estimate``/``sweep`` argument lists.  Every run must return 0 or 1, or
exit 2 from argparse.  A run that returns 0 prints no ``nan``/``inf``; a
run that returns 1 prints nothing on stdout and an ``error[<code>]`` line
on stderr.
"""

import contextlib
import csv
import io
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from phyenergy import legacy, readers
from phyenergy.cli import main
from phyenergy.errors import ConfigError

REFERENCE_PATH = Path(__file__).parent.parent / "configs" / "reference.yaml"
REFERENCE = yaml.safe_load(REFERENCE_PATH.read_text())
HUGE = 10 ** 400                        # a 401-digit integer
_DROP = object()                        # remove the field instead


class _Literal(str):
    """A YAML integer written as these digits: 5001 digits are past the
    limit of Python's int/str conversion, so the int cannot be dumped."""


class _Dumper(yaml.SafeDumper):
    pass


_Dumper.add_representer(_Literal, lambda dumper, digits:
                        dumper.represent_scalar("tag:yaml.org,2002:int",
                                                digits))
LONG = _Literal("1" + "0" * 5000)       # a 5001-digit integer

_FIELDS = sorted(REFERENCE) + ["pilot_symbols_per_slot", "tbs_override",
                               "rx_fft_antennas", "decode", "bogus_key"]
_VALUES = st.one_of(
    st.integers(min_value=-2, max_value=300),
    st.sampled_from([HUGE, LONG, 1e300, -1e300, 0.5, math.nan, math.inf,
                     -math.inf, True, False, None, "abc", "2.1e9", "490/1024",
                     "QAM64", {"iterations": HUGE}, {"deg_cn": 0}, [1, 2],
                     _DROP]))
# The scenario file, and each override, is left as it is about half the
# time, so that runs which succeed are generated too.
_CHANGES = st.just([]) | st.lists(st.tuples(st.sampled_from(_FIELDS), _VALUES),
                                  min_size=1, max_size=3)
_KAPPAS = st.none() | st.sampled_from(["1e-25", "0", "-1", "nan", "1e280",
                                       "1e300", "1e-320", "abc"])
_CLOCKS = st.none() | st.sampled_from(["2.1e9", "0", "inf", "1e150", "1e200"])
_FORMATS = st.sampled_from([None, "structured-text", "delimited-table"])
_SWEEPS = st.tuples(
    st.sampled_from(["n_slots", "n_prb", "n_layers", "modulation", "snr_db"]),
    st.lists(st.sampled_from(["1", "2", "52", "275", "QPSK", "QAM64"])
             | st.sampled_from(["276", "0", "-1", str(HUGE), "x"]),
             min_size=1, max_size=3).map(",".join))

_NO_EXPLAIN = [phase for phase in Phase if phase is not Phase.explain]
_NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def _scenario_text(changes) -> str:
    mapping = dict(REFERENCE)
    for field, value in changes:
        if value is _DROP:
            mapping.pop(field, None)
        else:
            mapping[field] = value
    return yaml.dump(mapping, Dumper=_Dumper)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse rejected the arguments
            code = exc.code
            assert code == 2, code
    return code, out.getvalue(), err.getvalue()


def _loader(monkeypatch, base):
    """Read YAML with the package's loader built on ``base``."""
    if not hasattr(yaml, base):
        pytest.skip("PyYAML was built without libyaml")
    monkeypatch.setattr(readers, "_YAML_LOADER",
                        readers._yaml_loader(getattr(yaml, base)))


@given(changes=_CHANGES, sweep=st.none() | _SWEEPS, kappa=_KAPPAS,
       clock_hz=_CLOCKS, fmt=_FORMATS)
@example(changes=[("n_slots", HUGE)], sweep=None, kappa=None, clock_hz=None,
         fmt=None)
@example(changes=[], sweep=("n_slots", f"1,{HUGE}"), kappa=None,
         clock_hz=None, fmt=None)
@example(changes=[], sweep=None, kappa="1e300", clock_hz=None, fmt=None)
@example(changes=[("n_slots", LONG)], sweep=None, kappa=None, clock_hz=None,
         fmt=None)
@example(changes=[], sweep=("n_slots", str(LONG)), kappa=None, clock_hz=None,
         fmt=None)
@example(changes=[], sweep=None, kappa=None, clock_hz="1e200",
         fmt="delimited-table")
@settings(max_examples=400, deadline=None, derandomize=True,
          phases=_NO_EXPLAIN)
def test_cli_exits_cleanly_on_any_input(tmp_path_factory, changes, sweep,
                                        kappa, clock_hz, fmt):
    scenario = tmp_path_factory.getbasetemp() / "fuzzed_scenario.yaml"
    scenario.write_text(_scenario_text(changes))
    argv = ["estimate", "--scenario", str(scenario)]
    if sweep is not None:
        argv[0] = "sweep"
        argv += ["--param", sweep[0], "--values", sweep[1]]
    for flag, value in (("--kappa", kappa), ("--clock-hz", clock_hz),
                        ("--format", fmt)):
        if value is not None:
            argv += [flag, value]

    code, out, err = _run(argv)

    assert code in (0, 1, 2), code
    if code == 0:
        assert not _NON_FINITE.search(out), out
    elif code == 1:
        assert out == ""
        assert err.startswith("error["), err


@pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
def test_integer_past_the_digit_limit_in_a_file(tmp_path, monkeypatch, loader):
    """A plain integer reaches the digit rule as text, as a quoted one does."""
    _loader(monkeypatch, loader)
    path = tmp_path / "long.yaml"
    path.write_text(_scenario_text([("n_slots", LONG)]))
    code, out, err = _run(["estimate", "--scenario", str(path)])
    assert (code, out) == (1, "")
    assert err == (f"error[config]: {path}: scenario.n_slots has too many "
                   "digits (5001)\n"), err


@pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
def test_an_integer_tagged_past_the_digit_limit_is_malformed(tmp_path,
                                                             monkeypatch,
                                                             loader):
    """An integer tagged ``!!int`` is built by PyYAML, which refuses it."""
    _loader(monkeypatch, loader)
    path = tmp_path / "long.yaml"
    path.write_text(_scenario_text([("n_slots", LONG)]).replace(
        LONG, "!!int " + LONG))
    code, out, err = _run(["estimate", "--scenario", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error[config]: {path}: malformed config:"), err


def _with_n_prb(tmp_path, text):
    path = tmp_path / f"n_prb_{text.replace(':', '_')}.yaml"
    path.write_text(REFERENCE_PATH.read_text().replace(
        "n_prb: 52", f"n_prb: {text}"))
    return path


@pytest.mark.parametrize("base", ["CSafeLoader", "SafeLoader"])
def test_an_integer_with_leading_zeros_is_decimal(tmp_path, monkeypatch,
                                                  base):
    """``n_prb: 010`` is 10, as ``"010"`` and ``sweep --values 010`` are,
    not YAML 1.1's octal 8."""
    _loader(monkeypatch, base)
    octal, decimal = (_run(["estimate", "--scenario",
                            str(_with_n_prb(tmp_path, text))])
                      for text in ("010", "10"))
    assert octal == decimal
    assert decimal[0] == 0 and "n_prb: 10\n" in decimal[1]


@pytest.mark.parametrize("base", ["CSafeLoader", "SafeLoader"])
@pytest.mark.parametrize("text", ["0x1F", "0b11", "1:30"])
def test_a_hex_binary_or_sexagesimal_integer_is_refused(tmp_path,
                                                        monkeypatch, base,
                                                        text):
    """YAML 1.1 would read these as 31, 3 and 90; the loader hands them to
    the converter as text, which reads decimal integers only."""
    _loader(monkeypatch, base)
    path = _with_n_prb(tmp_path, text)
    assert _run(["estimate", "--scenario", str(path)]) == (
        1, "", f"error[config]: {path}: scenario.n_prb: expected an "
               f"integer, got {text!r}\n")


@pytest.mark.parametrize("base", ["CSafeLoader", "SafeLoader"])
@pytest.mark.parametrize("key, text", [
    ("snr_db", "1:30.5"), ("snr_db", ".inf"), ("snr_db", "nan"),
    ("clock_hz", "2.1e+9"), ("n_prb", "2001-01-01"), ("n_prb", "1__0"),
    ("n_prb", "10_"), ("n_prb", "0x1F"), ("n_prb", "5_2"), ("n_prb", "+52"),
    ("n_slots", LONG), ("allow", "10"),
], ids=["sexagesimal", "inf", "nan", "exponent", "date", "double-underscore",
        "trailing-underscore", "hex", "underscore", "plus", "long", "filter"])
def test_an_unquoted_scalar_reads_as_its_quoted_form(tmp_path, monkeypatch,
                                                     base, key, text):
    """YAML 1.1 would read 1:30.5 as 90.5, .inf as infinity, 2001-01-01 as
    a date, 1__0 as 10 and 10 as an integer; the loader hands each to its
    converter as the text of its quoted form, so both print alike."""
    _loader(monkeypatch, base)
    path = tmp_path / "input.yaml"
    if key == "allow":
        report = tmp_path / "report.csv"
        # one row under the prefix 10/ and one outside it
        report.write_text(_REPORT_HEADER
                          + "10/dlsch/crc,A,XOR,logical_scalar,32,500\n"
                          "nr5g/stray,B,SET,int_scalar,1,7\n")
        argv = ["compare", "--scenario", str(REFERENCE_PATH), "--measured",
                str(report), "--filter", str(path)]
        template = "allow: [{}]\n"
    else:
        argv = ["estimate", "--scenario", str(path)]
        template = re.sub(f"^{key}: .*$", f"{key}: {{}}",
                          REFERENCE_PATH.read_text(), flags=re.M)
    outcomes = []
    for value in (text, f'"{text}"'):
        path.write_text(template.format(value))
        outcomes.append(_run(argv))
    assert outcomes[0] == outcomes[1]


def test_integer_past_the_digit_limit_in_a_sweep():
    code, out, err = _run(["sweep", "--scenario", str(REFERENCE_PATH),
                           "--param", "n_slots", "--values", f"1,{LONG}"])
    assert (code, out) == (1, "")
    assert err == ("error[config]: --values: a value for n_slots has too "
                   "many digits (5001)\n")


_TABLE_HEADER = "op_kind,data_class,operand_location,micro_ops,cycles\n"
_REPORT_HEADER = "function_path,block,operator,data_type,shape,count\n"


@pytest.mark.parametrize("kind, text, message", [
    ("table", f"ADD,double_scalar,register,{LONG},1",
     "error[cost-table]: {path}:2: micro_ops has too many digits (5001)"),
    ("table", f"ADD,double_scalar,register,1,{LONG}",
     "error[cost-table]: {path}:2: cycles has too many digits (5001)"),
    ("table", f"ADD,double_scalar,register,1,1/{LONG}",
     "error[cost-table]: {path}:2: cycles has too many digits (5001)"),
    ("table", f"ADD,double_scalar,register,1,0.{LONG}",
     "error[cost-table]: {path}:2: cycles has too many digits (5001)"),
    ("report", f"f,A,ADD,double_scalar,,{LONG}",
     "error[measured]: {path}:2: count has too many digits (5001)"),
    ("scenario", _scenario_text([("n_slots", str(LONG))]),
     "error[config]: {path}: scenario.n_slots has too many digits (5001)"),
    ("scenario", _scenario_text([("code_rate", f"{LONG}/1024")]),
     "error[config]: {path}: scenario.code_rate has too many digits (5001)"),
], ids=["micro_ops", "cycles", "cycles-fraction", "cycles-decimal", "count",
        "quoted-scenario-value", "rate"])
def test_integer_text_past_the_digit_limit(tmp_path, kind, text, message):
    """Each reader of integer text reports a value past the digit limit as
    too long, in a short message that does not echo the digits."""
    path = tmp_path / "input"
    argv = ["estimate", "--scenario", str(REFERENCE_PATH)]
    if kind == "table":
        path.write_text(_TABLE_HEADER + text + "\n")
        argv += ["--cost-table", str(path)]
    elif kind == "report":
        path.write_text(_REPORT_HEADER + text + "\n")
        argv = ["compare", "--scenario", str(REFERENCE_PATH),
                "--measured", str(path)]
    else:
        path.write_text(text)
        argv[2] = str(path)
    code, out, err = _run(argv)
    assert (code, out) == (1, "")
    assert err == message.format(path=path) + "\n"


@pytest.mark.parametrize("quote", ["", '"'], ids=["bare", "quoted"])
@pytest.mark.parametrize("kind", ["table", "report"])
def test_a_field_past_the_csv_limit(tmp_path, kind, quote):
    """A cell longer than csv.field_size_limit() fails as the file's own
    error, quoted or not, instead of escaping as csv.Error."""
    limit = csv.field_size_limit()
    cell = quote + "x" * (limit + 1) + quote
    path = tmp_path / "input.csv"
    if kind == "table":
        path.write_text(_TABLE_HEADER + f"{cell},double_scalar,register,1,1\n")
        argv = ["estimate", "--scenario", str(REFERENCE_PATH),
                "--cost-table", str(path)]
        code_name = "cost-table"
    else:
        path.write_text(_REPORT_HEADER + f"{cell},A,ADD,double_scalar,,1\n")
        argv = ["compare", "--scenario", str(REFERENCE_PATH),
                "--measured", str(path)]
        code_name = "measured"
    code, out, err = _run(argv)
    assert (code, out) == (1, "")
    assert err == (f"error[{code_name}]: {path}:2: field larger than field "
                   f"limit ({limit})\n")



_FU_PARAMS = (Path(__file__).parent.parent / "configs" / "fu.yaml").read_text()
_ESTIMATE = ["estimate", "--scenario", "{path}"]


@pytest.mark.parametrize("argv, text, message", [
    (["sweep", "--scenario", str(REFERENCE_PATH), "--param", "n_prb",
      "--values", ","], None,
     "error[usage]: --values must list at least one value"),
    (["legacy", "--model", "fu-rf", "--params", "{path}"], "",
     "error[config]: {path}: empty params file"),
    (_ESTIMATE, "", "error[config]: {path}: empty scenario file"),
    (_ESTIMATE, _scenario_text([("decode", {"deg_cn": 0})]),
     "error[config]: decode.deg_cn must be >= 1"),
    (_ESTIMATE, _scenario_text([("decode", {"deg_vn": 0})]),
     "error[config]: decode.deg_vn must be >= 1"),
    (_ESTIMATE, _scenario_text([("decode", {"iterations": -1})]),
     "error[config]: decode.iterations must be >= 0"),
    (["compare", "--scenario", str(REFERENCE_PATH), "--measured", "report.csv",
      "--filter", "{path}"], "block_map: [a, b]\n",
     "error[config]: {path}: filter.block_map must be a mapping"),
    (["legacy", "--model", "fu-rf", "--params", "{path}"],
     _FU_PARAMS.replace("rho_gops_per_w: 8.0", "rho_gops_per_w: 0"),
     "error[config]: {path}: rho_gops_per_w must be positive"),
], ids=["sweep-no-values", "empty-params", "empty-scenario", "decode-deg-cn",
        "decode-deg-vn", "decode-iterations", "filter-block-map-list",
        "fu-rf-zero-rho"])
def test_reader_and_loader_errors(tmp_path, argv, text, message):
    """Each reader or loader rejection prints its exact error line; the
    input file, when the case has one, is ``{path}``."""
    path = tmp_path / "input.yaml"
    if text is not None:
        path.write_text(text)
    code, out, err = _run([arg.replace("{path}", str(path)) for arg in argv])
    assert (code, out) == (1, "")
    assert err == message.replace("{path}", str(path)) + "\n"



@pytest.mark.parametrize("text, message", [
    ("allow: [010, on, 1_000]\n", "filter.allow item True is not a string"),
    ("deny: [nr5g/, on]\n", "filter.deny item True is not a string"),
    ("block_map: {0x1F: A, ~: B}\n",
     "filter.block_map key None is not a string"),
    ("block_map: {nr5g/: A, ~: B}\n",
     "filter.block_map key None is not a string"),
], ids=["allow-octal", "deny-bool", "block-map-hex", "block-map-null"])
def test_a_filter_prefix_yaml_did_not_read_as_a_string(tmp_path, text,
                                                       message):
    """YAML reads on as True and ~ as None, while 010, 0x1F and 1_000 stay
    text, since the loader types no number; a prefix it did not read as a
    string is refused, not rewritten by str()."""
    path = tmp_path / "filter.yaml"
    path.write_text(text)
    code, out, err = _run(["compare", "--scenario", str(REFERENCE_PATH),
                           "--measured", "report.csv", "--filter", str(path)])
    assert (code, out) == (1, "")
    assert err == f"error[config]: {path}: {message}; quote it\n"


_COMPARE = ["compare", "--scenario", str(REFERENCE_PATH), "--measured",
            "report.csv", "--filter", "{path}"]


@pytest.mark.parametrize("base", ["CSafeLoader", "SafeLoader"])
@pytest.mark.parametrize("argv, text, message", [
    (_ESTIMATE, REFERENCE_PATH.read_text() + "n_prb: 3\n",
     "duplicate key 'n_prb' (line 17)"),
    (_COMPARE, "block_map:\n  nr5g/: A\n  nr5g/: B\n",
     "duplicate key 'nr5g/' (line 3)"),
    (["legacy", "--model", "fu-rf", "--params", "{path}"],
     _FU_PARAMS.replace("  m_antennas: 4\n", "  m_antennas: 4\n"
                        "  m_antennas: 8\n"),
     "duplicate key 'm_antennas' (line 10)"),
], ids=["scenario", "filter-block-map", "legacy-params"])
def test_a_key_repeated_in_one_mapping(tmp_path, monkeypatch, base, argv,
                                       text, message):
    """A repeated key is refused with its line, not silently read as the
    last of the two values."""
    _loader(monkeypatch, base)
    path = tmp_path / "input.yaml"
    path.write_text(text)
    code, out, err = _run([arg.replace("{path}", str(path)) for arg in argv])
    assert (code, out) == (1, "")
    assert err == f"error[config]: {path}: {message}\n"


@pytest.mark.parametrize("base", ["CSafeLoader", "SafeLoader"])
def test_a_mapping_may_override_the_keys_it_merges(tmp_path, monkeypatch,
                                                   base):
    """Own keys override merged ones, also where a mapping that merges
    another is itself merged before it is built."""
    _loader(monkeypatch, base)
    path = tmp_path / "merged.yaml"
    path.write_text("c: &c {x: 0}\nouter:\n  inner: &b\n    <<: *c\n"
                    "    x: 1\nother:\n  <<: *b\n  x: 2\n")
    assert readers.read_yaml(path, "test", lambda _, value: value) == {
        "c": {"x": "0"}, "outer": {"inner": {"x": "1"}},
        "other": {"x": "2"}}
    path.write_text("<<: {n_prb: 3}\n" + REFERENCE_PATH.read_text())
    assert _run(["estimate", "--scenario", str(path)]) == _run(
        ["estimate", "--scenario", str(REFERENCE_PATH)])


def test_a_loader_set_before_a_read_is_the_one_it_uses(monkeypatch):
    """The seam the loader tests above rely on: ``read_yaml`` parses with
    the class in ``readers._YAML_LOADER`` and leaves it in place."""
    built = []

    class Recording(readers._UniqueKeys, yaml.SafeLoader):
        def __init__(self, stream):
            built.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(readers, "_YAML_LOADER", Recording)
    assert readers.read_yaml(REFERENCE_PATH, "test",
                             lambda _, value: value) == REFERENCE
    assert built and set(built) == {REFERENCE_PATH.read_text()}
    assert readers._YAML_LOADER is Recording


def test_the_first_read_builds_the_default_loader(monkeypatch):
    monkeypatch.setattr(readers, "_YAML_LOADER", None)
    readers.read_yaml(REFERENCE_PATH, "test", lambda _, value: value)
    assert issubclass(readers._YAML_LOADER, readers._UniqueKeys)
    assert issubclass(readers._YAML_LOADER,
                      getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def _nested(kind: str, depth: int) -> str:
    """A scenario file whose key ``x`` holds ``depth`` nested sequences
    (``flow``) or mappings (``block``)."""
    if kind == "flow":
        value = " " + "[" * depth + "]" * depth
    else:
        value = "".join(f"\n{'  ' * level}y:" for level in range(1, depth))
        value += f"\n{'  ' * depth}y: 1"
    return "n_slots: 1\nx:" + value + "\n"


@pytest.mark.parametrize("base", ["CSafeLoader", "SafeLoader"])
@pytest.mark.parametrize("kind", ["flow", "block"])
@pytest.mark.parametrize("depth", [readers.YAML_DEPTH - 1,
                                   readers.YAML_DEPTH, 1000])
def test_nesting_past_the_cap_is_a_config_error(tmp_path, monkeypatch, base,
                                                kind, depth):
    """A file nested deeper than ``YAML_DEPTH`` (``x`` adds one level to
    ``depth``) fails as ``error[config]`` before it is composed, where the
    pure-Python composer would raise RecursionError at 1000 levels; at the
    cap it is read, and fails on its unknown key."""
    _loader(monkeypatch, base)
    path = tmp_path / "nested.yaml"
    path.write_text(_nested(kind, depth))
    code, out, err = _run(["estimate", "--scenario", str(path)])
    assert (code, out) == (1, "")
    if depth < readers.YAML_DEPTH:
        assert err == f"error[config]: {path}: unknown scenario keys: x\n"
    else:
        line = 2 if kind == "flow" else readers.YAML_DEPTH + 2
        assert err == (f"error[config]: {path}: nested deeper than "
                       f"{readers.YAML_DEPTH} levels (line {line})\n")


def test_a_deeply_nested_file_does_not_crash_the_process(tmp_path):
    """60 000 nested sequences, which libyaml's composer recurses through
    on the C stack until the process dies, in a child process."""
    path = tmp_path / "nested.yaml"
    path.write_text(_nested("flow", 60_000))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(readers.__file__).parent.parent),
                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "phyenergy", "estimate",
                           "--scenario", str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == (f"error[config]: {path}: nested deeper than "
                           f"{readers.YAML_DEPTH} levels (line 2)\n")


@pytest.mark.parametrize("rate", ["abc/1024", "490/abc", "4 9 0/1024"])
def test_a_malformed_rate_is_not_too_many_digits(tmp_path, rate):
    """Only a half of the rate that int() refuses meets the digit rule."""
    path = tmp_path / "scenario.yaml"
    path.write_text(_scenario_text([("code_rate", rate)]))
    code, out, err = _run(["estimate", "--scenario", str(path)])
    assert (code, out) == (1, "")
    assert err == (f"error[config]: {path}: scenario.code_rate: malformed "
                   f"rate {rate!r}\n")


_WIDE = "x" * 100_000
_ROW = "f,A,ADD,double_scalar,,1"
_REPORT = ["compare", "--scenario", str(REFERENCE_PATH), "--measured",
           "{path}"]
_TABLE = ["estimate", "--scenario", str(REFERENCE_PATH), "--cost-table",
          "{path}"]
_TOMBAZ = "".join(f"{key}: 1\n" for key in ("n_sectors", "p_tx_sector_w",
                                             "eta_pa", "n_rf_chains", "p_c_w",
                                             "p_b_w"))


@pytest.mark.parametrize("argv, text", [
    (_REPORT, _REPORT_HEADER + _ROW.replace("ADD", _WIDE)),
    (_REPORT, _REPORT_HEADER + _ROW.replace(",1", "," + _WIDE)),
    (_REPORT, _REPORT_HEADER + _ROW.replace("double_scalar", _WIDE)),
    (_REPORT, _REPORT_HEADER + _ROW.replace(",A,", f",{_WIDE},")),
    (_TABLE, _TABLE_HEADER + f"ADD,double_scalar,{_WIDE},1,1"),
    (_TABLE, _TABLE_HEADER + f"ADD,double_scalar,register,1,{_WIDE}"),
    (_TABLE, _TABLE_HEADER + f"ADD,double_scalar,register,1,1/{_WIDE}"),
    (_ESTIMATE, _scenario_text([("modulation", _WIDE)])),
    (_ESTIMATE, _scenario_text([("code_rate", f"{_WIDE}/1024")])),
    (_ESTIMATE, _scenario_text([("n_slots", _WIDE)])),
    (_ESTIMATE, _scenario_text([("snr_db", _WIDE)])),
    (_ESTIMATE, _scenario_text([("n_slots", list(range(30_000)))])),
    (_REPORT[:-1] + ["report.csv", "--filter", "{path}"],
     f"block_map:\n  nr5g/: {_WIDE}\n"),
    (["legacy", "--model", "tombaz", "--params", "{path}"],
     _TOMBAZ + f"dtx_enabled: {_WIDE}\n"),
    (["sweep", "--scenario", str(REFERENCE_PATH), "--param", "n_prb",
      "--values", _WIDE], None),
], ids=["operator", "count", "data_type", "block", "operand_location",
        "cycles", "cycles-fraction", "modulation", "rate", "int", "float",
        "int-list", "block-map-letter", "legacy-flag", "sweep-value"])
def test_a_wide_cell_is_shown_by_its_length(tmp_path, argv, text):
    """A message names a cell or value longer than the echo limit by its
    length: one short stderr line, not the 100 kB of input."""
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    code, out, err = _run([arg.replace("{path}", str(path)) for arg in argv])
    assert (code, out) == (1, "")
    assert err.startswith("error[") and err.count("\n") == 1, err[:300]
    assert len(err.replace(str(path), "").encode()) < 300, err[:300]


@pytest.mark.parametrize("length", [100_000, 61, 60])
def test_an_unknown_key_is_shown_bare_or_by_its_length(tmp_path, length):
    """An unknown key prints bare up to the echo limit and by its length
    past it, so the error stays one short line."""
    key = "k" * length
    path = tmp_path / "scenario.yaml"
    path.write_text(REFERENCE_PATH.read_text() + f"? {key}\n: 1\n")
    code, out, err = _run(["estimate", "--scenario", str(path)])
    assert (code, out) == (1, "")
    shown = key if length <= readers.ECHO_LIMIT else f"<{length} characters>"
    assert err == f"error[config]: {path}: unknown scenario keys: {shown}\n"
    assert len(err.encode()) < 300


def _alias_chain(levels: int) -> str:
    """Inline YAML for a list of 10 lists of 10 ... of 10 strings, ``levels``
    deep, in which each list after the first at a level is an alias of the
    first: a few hundred bytes whose repr grows tenfold with each level."""
    text = "&l0 [" + ", ".join("a" * 10) + "]"
    for level in range(1, levels):
        text = f"&l{level} [{text}" + f", *l{level - 1}" * 9 + "]"
    return text


_SCENARIO = REFERENCE_PATH.read_text()


@pytest.mark.parametrize("levels", [3, 6])
@pytest.mark.parametrize("argv, text, message", [
    (_ESTIMATE, _SCENARIO.replace("n_prb: 52", "n_prb: {chain}"),
     "scenario.n_prb: expected an integer, got <list of 10 items>"),
    (_ESTIMATE, _SCENARIO.replace("modulation: QAM16", "modulation: {chain}"),
     "unknown modulation <list of 10 items>; valid: 16QAM, 256QAM, 64QAM, "
     "QAM16, QAM256, QAM64, QPSK"),
    (_REPORT[:-1] + ["report.csv", "--filter", "{path}"],
     "block_map:\n  nr5g/: {chain}\n",
     "filter.block_map value <list of 10 items> is not a block A-H"),
], ids=["n_prb", "modulation", "block-map-letter"])
def test_an_alias_chain_is_shown_by_its_type(tmp_path, levels, argv, text,
                                             message):
    """A container is shown by its type and length, never walked: a chain
    of YAML aliases gives the same one short line at any depth, where its
    repr would take 5 MB at 6 levels and 5 GB at 9."""
    chain = _alias_chain(levels)
    assert len(chain) < 400
    path = tmp_path / "input.yaml"
    path.write_text(text.replace("{chain}", chain))
    code, out, err = _run([arg.replace("{path}", str(path)) for arg in argv])
    assert (code, out) == (1, "")
    assert err == f"error[config]: {path}: {message}\n"


@pytest.mark.parametrize("n_slots, row", [
    (4 * 10 ** 298, "x,A,XOR,logical_scalar,,1"),
    (1, f"x,A,XOR,double_scalar,,{HUGE}"),
    (1, f"y,,XOR,double_scalar,,{HUGE}"),
    (1, "x,A,LOG,double_scalar,," + "9" * 4299),
], ids=["ratio", "measured", "unattributed", "digit-limit"])
def test_compare_past_the_float_range(tmp_path, n_slots, row):
    """A ratio of a huge model to a tiny measurement, a measured or an
    unattributed count past the float range, and one whose exact decimal
    would pass the int/str digit limit all fail as a domain error."""
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(_scenario_text([("n_slots", n_slots)]))
    report = tmp_path / "report.csv"
    report.write_text(_REPORT_HEADER + row + "\n")
    code, out, err = _run(["compare", "--scenario", str(scenario),
                           "--measured", str(report)])
    assert (code, out) == (1, "")
    assert err == ("error[domain]: measured cycles, or a modeled/measured "
                   "ratio, too large for a float\n")


def _table_with_add_cycles(cycles: str) -> str:
    """The bundled table with one row's cycles replaced."""
    text = (Path(readers.__file__).with_name("data")
            / "cost_table.csv").read_text()
    row = "ADD,double_scalar,register,1,"
    assert text.count("\n" + row) == 1
    return re.sub(f"(?m)^{row}.*$", row + cycles, text)


@pytest.mark.parametrize("cycles, shown", [
    ("1e-5000", "'1e-5000'"), ("1e-301", "'1e-301'"),
    (f"1/{10 ** 300 + 1}", "<303 characters>"),
], ids=["1e-5000", "1e-301", "fraction"])
def test_cycles_finer_than_the_bound_are_refused(tmp_path, cycles, shown):
    """A 5000-place decimal would print as more digits than Python's
    int/str limit allows."""
    path = tmp_path / "table.csv"
    path.write_text(_table_with_add_cycles(cycles))
    code, out, err = _run(["estimate", "--scenario", str(REFERENCE_PATH),
                           "--cost-table", str(path)])
    line = path.read_text().splitlines().index(
        "ADD,double_scalar,register,1," + cycles) + 1
    assert (code, out) == (1, "")
    assert err == (f"error[cost-table]: {path}:{line}: cycles {shown} has a "
                   "reduced denominator over 10**300\n")


@pytest.mark.parametrize("cycles, reason", [
    ("1e-10000000", "has a reduced denominator over 10**300"),
    ("1e-1000000", "has a reduced denominator over 10**300"),
    ("1e1000000", "has a decimal exponent over 4300"),
    ("1e-5000", "has a reduced denominator over 10**300"),
    ("1e4301", "has a decimal exponent over 4300"),
], ids=["1e-10000000", "1e-1000000", "1e1000000", "1e-5000", "1e4301"])
def test_a_cycles_exponent_past_the_digit_limit_fails_fast(tmp_path, cycles,
                                                           reason):
    """Fraction would build 10**abs(exponent) first, a stall of seconds
    for a 12-character cell; the exponent is bounded before that."""
    path = tmp_path / "table.csv"
    path.write_text(_table_with_add_cycles(cycles))
    started = time.perf_counter()
    code, out, err = _run(["estimate", "--scenario", str(REFERENCE_PATH),
                           "--cost-table", str(path)])
    assert time.perf_counter() - started < 1.0
    line = path.read_text().splitlines().index(
        "ADD,double_scalar,register,1," + cycles) + 1
    assert (code, out) == (1, "")
    assert err == (f"error[cost-table]: {path}:{line}: cycles '{cycles}' "
                   f"{reason}\n")


@pytest.mark.parametrize("cycles", ["1e-300", f"1/{2 ** 996}",
                                    f"{10 ** 400 + 1}e-300"],
                         ids=["1e-300", "2**-996", "long-1e-300"])
def test_cycles_at_the_bound_price_and_print(tmp_path, cycles):
    """A reduced denominator of 10**300, or just under it, is accepted,
    and the estimate prints every row."""
    path = tmp_path / "table.csv"
    path.write_text(_table_with_add_cycles(cycles))
    code, out, err = _run(["estimate", "--scenario", str(REFERENCE_PATH),
                           "--cost-table", str(path), "--format",
                           "delimited-table"])
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 10


def test_an_integer_past_the_float_range_is_not_finite():
    """A library caller's int beyond the float range fails as a non-finite
    number, not with float()'s OverflowError."""
    with pytest.raises(ConfigError, match="^x must be finite$"):
        readers.as_float("x", HUGE)



def _with_encoding_warnings(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(readers.__file__).parent.parent),
                      env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W",
         "error::EncodingWarning", *argv],
        env=env, capture_output=True, text=True, timeout=60)


def test_every_command_states_its_encodings(tmp_path):
    """Under ``-X warn_default_encoding``, a file opened with the locale's
    encoding raises EncodingWarning; made an error, it fails the command.
    Each command, in the forms CI's encoding step runs, and the script
    that writes the compared report, exits 0."""
    scenario = ["--scenario", str(REFERENCE_PATH)]
    configs, measured = REFERENCE_PATH.parent, str(tmp_path / "measured.csv")
    runs = [
        ["estimate", *scenario],
        ["estimate", *scenario, "--format", "delimited-table", "--out",
         str(tmp_path / "estimate.csv")],
        ["sweep", *scenario, "--param", "n_prb", "--values", "25,52,106"],
        ["compare", *scenario, "--measured", measured,
         "--filter", str(configs / "filter_example.yaml")],
        *(["legacy", "--model", model,
           "--params", str(configs / f"{model.split('-')[0]}.yaml")]
          for model in legacy.MODELS),
    ]
    done = _with_encoding_warnings(
        str(configs.parent / "scripts" / "synth_measurement.py"),
        str(REFERENCE_PATH), measured)
    assert done.returncode == 0, done.stderr
    for argv in runs:
        done = _with_encoding_warnings("-m", "phyenergy", *argv)
        assert done.returncode == 0, (argv, done.stderr)
    unstated = _with_encoding_warnings(
        "-c", f"open({str(REFERENCE_PATH)!r}).close()")
    assert unstated.returncode == 1
    assert "EncodingWarning" in unstated.stderr
