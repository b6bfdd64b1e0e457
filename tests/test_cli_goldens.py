"""Byte-for-byte goldens of every CLI command's stdout.

Each case pins the sha256 of what ``phyenergy`` prints, so a refactor of
the loaders or renderers must reproduce the output exactly.  The
``compare`` cases read a report that mirrors the reference scenario's
tallies under the ``nr5g/`` prefix, which the example filter admits.
"""

import hashlib
from pathlib import Path

import pytest

from phyenergy.cli import main
from phyenergy.costmodel import LOCATION_BY_CLASS
from phyenergy.ingest import rows_from_tallies, serialize_measurement
from phyenergy.opcount import DataClass, OpKind, tally_pipeline
from phyenergy.scenario import load_scenario

CONFIGS = Path(__file__).parent.parent / "configs"
REFERENCE = str(CONFIGS / "reference.yaml")
FILTER = str(CONFIGS / "filter_example.yaml")
FORMATS = {"text": "structured-text", "table": "delimited-table"}
MEASURED = "<measured>"

CASES = {
    "estimate": ["estimate", "--scenario", REFERENCE],
    "sweep-n_prb": ["sweep", "--scenario", REFERENCE,
                    "--param", "n_prb", "--values", "1,52,275"],
    "sweep-modulation": ["sweep", "--scenario", REFERENCE,
                         "--param", "modulation",
                         "--values", "QPSK,16QAM,QAM256"],
    "compare": ["compare", "--scenario", REFERENCE, "--measured", MEASURED,
                "--filter", FILTER],
}

GOLDENS = {
    "estimate-text":
        "d353b2d7cf314e292581356abd0d7def392f2eefe1f4173ad6c5ee37652a80be",
    "estimate-table":
        "b52aa3411846d3c6645be65196a754263c01c115dcd71c2701fbe3ba6a88855a",
    "sweep-n_prb-text":
        "ecf601be5ee0c780a00e4ce8ef812c8d4462c10883f1f2ccb58c1d15b5b9e4fb",
    "sweep-n_prb-table":
        "9add37d1333aefae912bbae074264af5ed3ef79841d979b264fba63d5f80b655",
    "sweep-modulation-text":
        "1be4b5e1322c31ebe781402fb1ba066ab79dfa2af4085d19d2920fedd88c2259",
    "sweep-modulation-table":
        "2997d22c3094257776d4db4ee2c42e0ad5fa3f12f8e904c3309228666b1dc431",
    "compare-text":
        "f2c836faa21581baa686a4895fe1d6a0af42521f42a157ded9c233359fba613c",
    "compare-table":
        "0afe4c9d59f8548fef514e79e1d3db065b044b91c0722c450ef6b856156ec580",
    "legacy-auer":
        "539625232b9e95cca1230e046fdb9c103506802ccda3b1ee0899ee80829e3bab",
    "legacy-desset":
        "c7e8e591fa66f2617a1dbc7cb8cca2cbbf0952c660021fec0b7a82c5cd5bd43b",
    "legacy-yan":
        "c8d808c195644d59509850ae0f279780563153530a3990b8981fadb6f6ce6328",
    "legacy-yu":
        "73b6ad02e9f8414e6763eea17e9c6dbd13fdb3301b7f94badde757d53bcb3573",
    "legacy-tombaz":
        "ae55b55353d661117ce1779fe9dfb928c479642449cd7656d53498749be4faef",
    "legacy-fu-bb":
        "f50f71e2efd585a0d564b48534933a206858ba1ae56078d862fb89edb9468a61",
    "legacy-fu-rf":
        "3e6268c4a4a677f4f5741e9ea8e4f3dced0aeabe10cd07c7c4dc9cd0da64550d",
}

LEGACY_PARAMS = {"auer": "auer.yaml", "desset": "desset.yaml",
                 "yan": "yan.yaml", "yu": "yu.yaml", "tombaz": "tombaz.yaml",
                 "fu-bb": "fu.yaml", "fu-rf": "fu.yaml"}


def _argv(name: str, measured: str) -> list[str]:
    if name.startswith("legacy-"):
        model = name[len("legacy-"):]
        return ["legacy", "--model", model,
                "--params", str(CONFIGS / LEGACY_PARAMS[model])]
    case, fmt = name.rsplit("-", 1)
    argv = [measured if arg == MEASURED else arg for arg in CASES[case]]
    return argv + ["--format", FORMATS[fmt]]


@pytest.fixture(scope="module")
def measured(tmp_path_factory) -> str:
    rows = rows_from_tallies(tally_pipeline(load_scenario(REFERENCE)),
                             path_prefix="nr5g/")
    path = tmp_path_factory.mktemp("goldens") / "measured.csv"
    path.write_text(serialize_measurement(rows))
    return str(path)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_cli_stdout_matches_golden(capsys, measured, name):
    code = main(_argv(name, measured))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == GOLDENS[name]


# A cost table whose cycles have denominators 3, 7 and 8 (the bundled one
# has 4 and 3, so lcm 12): block cycles over 168 that terminate in some
# blocks and not in others, through the exact and the float fallback.
ODD_CYCLES = {
    ("ADD", "int_scalar"): "2/7",
    ("LOOKUP", "int_scalar"): "3/8",
    ("ADD", "double_scalar"): "5/8",
    ("MUL", "double_scalar"): "1/8",
    ("XOR", "double_scalar"): "1/3",
    ("LOG", "double_scalar"): "22/7",
    ("XOR", "logical_vector"): "7/8",
}

ODD_GOLDENS = {
    "estimate-text":
        "54f098e32975425fc87731b6e174b1272fd6006e229857ae9fdedd3a6cf9bafc",
    "estimate-table":
        "cf6f1e3657a0845d90fffdc49058c05f46668dd4ffc3fc90574cdf0b3ac8163c",
    "sweep-n_prb-text":
        "b56646054c5a301f7eed219e6db5253156ec7c999f5c7a8b5721e316cb1b1423",
    "sweep-n_prb-table":
        "71c168823998305247333bfb61ab78dc5919e40905ffd4641f52a540d7bcf958",
}


@pytest.fixture(scope="module")
def odd_table(tmp_path_factory) -> str:
    lines = ["# source: denominators 3, 7 and 8",
             "op_kind,data_class,operand_location,micro_ops,cycles"]
    for kind in OpKind:
        for cls in DataClass:
            cycles = ODD_CYCLES.get((kind.value, cls.value), "1")
            lines.append(f"{kind.value},{cls.value},{LOCATION_BY_CLASS[cls]},"
                         f"2,{cycles}")
    path = tmp_path_factory.mktemp("goldens") / "odd.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("name", sorted(ODD_GOLDENS))
def test_cli_stdout_matches_golden_under_odd_denominators(capsys, odd_table,
                                                          name):
    code = main(_argv(name, MEASURED) + ["--cost-table", odd_table])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""
    assert (hashlib.sha256(captured.out.encode()).hexdigest()
            == ODD_GOLDENS[name])
