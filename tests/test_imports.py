"""Each CLI command imports only the package modules it runs, and a
library session loads neither PyYAML nor argparse.

A cold ``phyenergy`` process spends most of its time starting up, so the
import graph is pinned here: every case runs in a fresh interpreter and
reports which modules were loaded when it finished.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import phyenergy
from phyenergy.ingest import rows_from_tallies, serialize_measurement
from phyenergy.opcount import tally_pipeline
from phyenergy.scenario import load_scenario

ROOT = Path(__file__).parent.parent
CONFIGS = ROOT / "configs"
REFERENCE = str(CONFIGS / "reference.yaml")
_COUNTING = {"phyenergy.opcount", "phyenergy.costmodel", "phyenergy.ingest"}
_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "phyenergy")))
"""


def _loaded_after(code: str) -> set:
    """The ``phyenergy`` modules loaded after running ``code`` in a fresh
    interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(phyenergy.__file__).parent.parent),
                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code + _REPORT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def _loaded_bare(code: str, names) -> list:
    """Which of the modules ``names`` are loaded after running ``code`` in
    a fresh ``python -S`` interpreter, so that no site hook imports one
    first, with this checkout's package and PyYAML's directory on the
    path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([
        str(Path(phyenergy.__file__).parent.parent),
        str(Path(yaml.__file__).parent.parent)])
    report = (f"\nimport sys\nprint([name for name in {list(names)!r} "
              "if name in sys.modules])")
    done = subprocess.run([sys.executable, "-S", "-c", code + report],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


def _command(*argv: str) -> str:
    return ("from phyenergy import cli\n"
            f"assert cli.main({list(argv)!r}) == 0")


def test_importing_the_package_loads_no_submodule():
    assert _loaded_after("import phyenergy") == {"phyenergy"}


def test_legacy_loads_no_counting_costing_or_ingest():
    loaded = _loaded_after(_command(
        "legacy", "--model", "tombaz",
        "--params", str(CONFIGS / "tombaz.yaml")))
    assert "phyenergy.legacy" in loaded
    assert not loaded & _COUNTING


def test_legacy_loads_only_the_cli_readers_and_legacy():
    loaded = _loaded_after(_command(
        "legacy", "--model", "tombaz",
        "--params", str(CONFIGS / "tombaz.yaml")))
    assert loaded == {"phyenergy", "phyenergy.cli", "phyenergy.errors",
                      "phyenergy.readers", "phyenergy.legacy"}


@pytest.mark.parametrize("argv", [
    ["estimate", "--scenario", REFERENCE],
    ["sweep", "--scenario", REFERENCE, "--param", "n_prb", "--values", "1,2"],
], ids=["estimate", "sweep"])
def test_estimate_and_sweep_load_no_ingest(argv):
    loaded = _loaded_after(_command(*argv))
    assert {"phyenergy.opcount", "phyenergy.costmodel"} <= loaded
    assert "phyenergy.ingest" not in loaded


# Standard modules no command loads: the bundled cost table is a plain file
# next to the package's modules, and paths are os.path text, not pathlib
# objects (pathlib pulls in urllib.parse and ipaddress).
_UNLOADED = ["importlib.resources", "pathlib", "urllib.parse", "ipaddress"]


@pytest.mark.parametrize("argv", [
    ["estimate", "--scenario", REFERENCE],
    ["sweep", "--scenario", REFERENCE, "--param", "n_prb", "--values", "1,2"],
    ["compare", "--scenario", REFERENCE, "--measured", "{measured}",
     "--filter", str(CONFIGS / "filter_example.yaml")],
    ["legacy", "--model", "tombaz", "--params", str(CONFIGS / "tombaz.yaml")],
    ["estimate", "--scenario", REFERENCE, "--out", "{out}"],
], ids=["estimate", "sweep", "compare", "legacy", "estimate-out"])
def test_counting_commands_load_no_importlib_resources(tmp_path, argv):
    """No command, writing a file or not, loads a module of
    :data:`_UNLOADED`.  Run under ``python -S``, so that no site hook
    imports one first; PyYAML's directory goes on the path."""
    measured = tmp_path / "measured.csv"
    measured.write_text(serialize_measurement(rows_from_tallies(
        tally_pipeline(load_scenario(REFERENCE)))))
    argv = [arg.replace("{measured}", str(measured)).replace(
        "{out}", str(tmp_path / "out.txt")) for arg in argv]
    assert _loaded_bare(_command(*argv), _UNLOADED) == []


# A library session, one that reads no YAML file and builds no parser,
# loads neither: PyYAML loads on the first YAML read, argparse when the
# parser is built.
_HEAVY = ["yaml", "argparse"]
_IN_CODE = """
from phyenergy.cli import render_estimate_text
from phyenergy.costmodel import (EnergyParams, build_report,
                                 load_default_cost_table)
from phyenergy.opcount import tally_pipeline
from phyenergy.scenario import Modulation, Scenario
s = Scenario(n_slots=1, snr_db=10.0, scs_khz=15, n_prb=52,
             modulation=Modulation.QAM16, code_rate=490, n_tx=4, n_rx=4,
             n_layers=2, n_ports=4)
tallies = tally_pipeline(s)
report = build_report(tallies, load_default_cost_table(),
                      EnergyParams(kappa=s.kappa, clock_hz=s.clock_hz),
                      scenario=s)
assert render_estimate_text(report).startswith("scenario")
"""


def test_importing_every_module_loads_no_yaml_or_argparse():
    modules = sorted(f"phyenergy.{path.stem}" for path in
                     Path(phyenergy.__file__).parent.glob("*.py"))
    assert "phyenergy.readers" in modules
    code = "".join(f"import {name}\n" for name in modules)
    assert _loaded_bare(code, _HEAVY) == []


def test_costing_a_scenario_built_in_code_loads_no_yaml_or_argparse():
    assert _loaded_bare(_IN_CODE, _HEAVY) == []


def test_parsing_a_report_loads_no_yaml_or_argparse():
    code = _IN_CODE + """
from phyenergy.ingest import (parse_measurement_text, rows_from_tallies,
                              serialize_measurement)
text = serialize_measurement(rows_from_tallies(tallies))
assert parse_measurement_text(text).meta.rows_seen == text.count("\\n") - 1
"""
    assert _loaded_bare(code, _HEAVY) == []


@pytest.mark.parametrize("code, loaded", [
    (f"from phyenergy.scenario import load_scenario\n"
     f"load_scenario({REFERENCE!r})", ["yaml"]),
    ("from phyenergy.cli import build_parser\nbuild_parser()", ["argparse"]),
], ids=["load_scenario", "build_parser"])
def test_a_yaml_read_loads_yaml_and_the_parser_loads_argparse(code, loaded):
    assert _loaded_bare(code, _HEAVY) == loaded


@pytest.mark.parametrize("argv", [
    ["estimate", "--scenario", REFERENCE],
    ["sweep", "--scenario", REFERENCE, "--param", "n_prb", "--values", "1,2"],
    ["compare", "--scenario", REFERENCE, "--measured", "{measured}",
     "--filter", str(CONFIGS / "filter_example.yaml")],
], ids=["estimate", "sweep", "compare"])
def test_counting_commands_load_no_legacy(tmp_path, argv):
    """The ``--model`` help names come from a tuple in ``cli``, so building
    the parser loads no ``legacy``."""
    measured = tmp_path / "measured.csv"
    measured.write_text(serialize_measurement(rows_from_tallies(
        tally_pipeline(load_scenario(REFERENCE)))))
    loaded = _loaded_after(_command(
        *[arg.replace("{measured}", str(measured)) for arg in argv]))
    assert "phyenergy.costmodel" in loaded
    assert "phyenergy.legacy" not in loaded


def test_every_exported_name_resolves():
    for name in phyenergy.__all__:
        value = getattr(phyenergy, name)
        module = sys.modules[value.__module__]
        assert getattr(module, name) is value
    with pytest.raises(AttributeError, match="no_such_name"):
        phyenergy.no_such_name


def _imported_names(tree: ast.Module) -> list:
    """(module, name) for each ``from phyenergy... import name`` and each
    ``from . import``/``from .module import`` in a module's syntax tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("phyenergy")):
            found += [(node.module or ".", alias.name) for alias in node.names]
    return found


@pytest.mark.parametrize("path", sorted(
    Path(phyenergy.__file__).parent.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_another_modules_private_name(path):
    """A name with a leading underscore belongs to its own module: no
    ``phyenergy`` module imports one from another."""
    private = [f"{module}.{name}" for module, name in
               _imported_names(ast.parse(path.read_text()))
               if name.startswith("_")]
    assert private == []


def test_scenario_is_the_only_dataclass_and_nothing_is_cached_lazily():
    """Every record but ``Scenario`` is a ``NamedTuple`` (the cost table is
    a slotted class compiled when built), and no module imports or
    decorates with ``cached_property``, so no record computes state after
    it is built."""
    dataclasses, cached = [], []
    for path in sorted(Path(phyenergy.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            # The names a node imports, or else its decorators, each by
            # its last dotted part and without arguments.
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            else:
                names = [ast.unparse(dec).split("(")[0]
                         for dec in getattr(node, "decorator_list", ())]
            names = [name.split(".")[-1] for name in names]
            if isinstance(node, ast.ClassDef) and "dataclass" in names:
                dataclasses.append(f"{path.stem}.{node.name}")
            if "cached_property" in names:
                cached.append(f"{path.stem}:{node.lineno}")
    assert dataclasses == ["scenario.Scenario"]
    assert cached == []
