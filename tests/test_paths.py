"""The path rule: ``readers`` opens, writes and shows every path as
``os.path.normpath`` gives it.

For a path with no ``..`` component that is ``str(PurePosixPath(path))``,
the text pathlib gave: ``./a``, ``a//b`` and ``a/`` all open ``a``.  A
``..`` component is collapsed by the text alone, so ``nowhere/../a``
opens ``a`` even where ``nowhere`` does not exist.
"""

import os
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import phyenergy
from phyenergy import readers
from phyenergy.cli import main
from phyenergy.errors import ConfigError
from phyenergy.ingest import rows_from_tallies, write_measurement
from phyenergy.opcount import tally_pipeline
from phyenergy.scenario import load_scenario

ROOT = Path(__file__).parent.parent
REFERENCE = "configs/reference.yaml"
BUNDLED = Path(phyenergy.__file__).parent / "data" / "cost_table.csv"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def empty_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("empty")


@given(path=st.text(alphabet="ab./é ", max_size=12))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_a_path_is_shown_as_pathlib_shows_it(empty_dir, path):
    """Run in an empty directory, so that no generated path is a file."""
    assume(".." not in path.split("/"))
    cwd = os.getcwd()
    os.chdir(empty_dir)
    try:
        with pytest.raises(ConfigError) as info:
            readers.read_text(path, "input", ConfigError)
    finally:
        os.chdir(cwd)
    state, shown = str(info.value).split(": ", 1)
    assert state in ("input not found", "input is not a file")
    assert shown == str(PurePosixPath(path))


@pytest.mark.parametrize("scenario", [
    "./configs/reference.yaml", "configs//reference.yaml",
    "configs/./reference.yaml", "nowhere/../configs/reference.yaml",
], ids=["dot", "double-slash", "inner-dot", "dot-dot"])
def test_a_scenario_path_opens_its_normal_form(capsys, monkeypatch,
                                               scenario):
    """``nowhere`` does not exist: the ``..`` is collapsed before the
    file is opened, where the operating system would fail."""
    monkeypatch.chdir(ROOT)
    assert _run(capsys, "estimate", "--scenario", scenario) == _run(
        capsys, "estimate", "--scenario", REFERENCE)


def test_a_dot_dot_path_is_shown_collapsed(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert _run(capsys, "estimate", "--scenario", "configs/../missing.yaml") \
        == (1, "", "error[config]: scenario file not found: missing.yaml\n")


def test_a_trailing_slash_opens_and_names_the_file(capsys, monkeypatch,
                                                   tmp_path):
    """A cost table with no ``# source:`` line is named by its path, in
    the normal form whatever the form given; ``--out`` writes the file a
    trailing slash names."""
    monkeypatch.chdir(tmp_path)
    Path("table.csv").write_text("".join(
        line for line in BUNDLED.read_text(encoding="utf-8").splitlines(True)
        if not line.startswith("# source:")), encoding="utf-8")
    argv = ["estimate", "--scenario", str(ROOT / REFERENCE)]
    code, out, err = _run(capsys, *argv, "--cost-table", "./table.csv/")
    assert (code, err) == (0, "")
    assert "\n  source: table.csv\n" in out
    assert _run(capsys, *argv, "--cost-table", "table.csv",
                "--out", "out.txt/") == (0, "", "")
    assert Path("out.txt").read_text(encoding="utf-8") == out


def test_an_empty_filter_file_means_no_filter(capsys, tmp_path):
    """A file with no keys, or with every key null, filters nothing."""
    reference = str(ROOT / REFERENCE)
    measured = tmp_path / "measured.csv"
    write_measurement(rows_from_tallies(tally_pipeline(
        load_scenario(reference))), measured)
    argv = ["compare", "--scenario", reference, "--measured", str(measured)]
    code, unfiltered, _ = _run(capsys, *argv)
    assert code == 0
    empty = tmp_path / "filter.yaml"
    for text in ("# no keys\n", "allow: ~\ndeny: ~\nblock_map: ~\n"):
        empty.write_text(text)
        assert _run(capsys, *argv, "--filter", str(empty)) == (
            0, unfiltered, "")


def test_a_params_field_error_names_its_file(capsys, tmp_path):
    params = tmp_path / "auer.yaml"
    params.write_text("n_trx: 2\np0_w: 100.0\n")
    assert _run(capsys, "legacy", "--model", "auer", "--params",
                str(params)) == (1, "", (
                    f"error[config]: {params}: missing auer keys: delta_p, "
                    "p_max_w, p_out_w, p_sleep_w\n"))
