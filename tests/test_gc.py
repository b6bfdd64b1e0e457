"""A ``phyenergy`` process runs without the cyclic garbage collector.

``phyenergy.__main__`` switches the collector off before the imports and
freezes every object before teardown.  That is safe only while a command's
work makes no reference cycles per scenario, sweep value or report row, so
that the garbage left uncollected does not grow with the input; the first
tests here pin that.  The others pin that the entry keeps every exit status
and message, and that ``cli.main`` leaves the caller's collector alone.

No test here imports ``phyenergy.__main__``: that would switch the
collector off in the test process.
"""

import contextlib
import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from phyenergy import cli
from phyenergy.ingest import rows_from_tallies, serialize_measurement
from phyenergy.opcount import tally_pipeline
from phyenergy.scenario import load_scenario

ROOT = Path(__file__).parent.parent
CONFIGS = ROOT / "configs"
REFERENCE = str(CONFIGS / "reference.yaml")
_SWEEP = ["sweep", "--scenario", REFERENCE, "--param", "n_prb", "--values"]
_LEGACY = ["legacy", "--model", "tombaz", "--params",
           str(CONFIGS / "tombaz.yaml")]


def _compare(measured) -> list:
    return ["compare", "--scenario", REFERENCE, "--measured", str(measured),
            "--filter", str(CONFIGS / "filter_example.yaml")]


def _report(path: Path, n_rows: int) -> Path:
    """A report of ``n_rows`` rows: the reference model's rows, repeated
    under distinct function paths."""
    model = rows_from_tallies(tally_pipeline(load_scenario(REFERENCE)))
    rows = [row._replace(function_path=f"{row.function_path}/{i}")
            for i in range(-(-n_rows // len(model))) for row in model]
    path.write_text(serialize_measurement(rows[:n_rows]))
    return path


def _garbage_after(argv) -> int:
    """The unreachable objects ``gc.collect()`` finds after ``cli.main(argv)``
    ran with the collector off, as it runs in a ``phyenergy`` process."""
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        return gc.collect()
    finally:
        gc.enable()


def test_a_sweep_leaves_no_garbage_per_value():
    one = [*_SWEEP, "1"]
    _garbage_after(one)         # warm-up: first-use caches, lazy imports
    assert _garbage_after(one) == _garbage_after(
        [*_SWEEP, ",".join(str(n) for n in range(1, 276))])


def test_a_compare_leaves_no_garbage_per_row(tmp_path):
    small = _compare(_report(tmp_path / "small.csv", 10))
    large = _compare(_report(tmp_path / "large.csv", 10_000))
    _garbage_after(small)
    assert _garbage_after(small) == _garbage_after(large)


@pytest.mark.parametrize("argv", [["estimate", "--scenario", REFERENCE],
                                  _LEGACY], ids=["estimate", "legacy"])
def test_a_command_leaves_the_same_garbage_each_run(argv):
    _garbage_after(argv)
    assert _garbage_after(argv) == _garbage_after(argv)


@pytest.mark.parametrize("argv", [
    ["estimate", "--scenario", REFERENCE],
    [*_SWEEP, "1,2"],
    _compare("{measured}"),
    _LEGACY,
], ids=["estimate", "sweep", "compare", "legacy"])
def test_cli_main_leaves_the_collector_alone(tmp_path, argv):
    measured = str(_report(tmp_path / "measured.csv", 10))
    argv = [measured if arg == "{measured}" else arg for arg in argv]
    assert "phyenergy.__main__" not in sys.modules
    before = gc.isenabled(), gc.get_freeze_count()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def _env() -> dict:
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_the_entry_runs_with_the_collector_off_and_frozen():
    code = ("import gc, sys\n"
            "sys.argv = ['phyenergy', 'estimate', '--scenario',"
            f" {REFERENCE!r}]\n"
            "from phyenergy.__main__ import run\n"
            "status = run()\n"
            "print(status, gc.isenabled(), gc.get_freeze_count() > 0,"
            " file=sys.stderr)\n")
    done = subprocess.run([sys.executable, "-c", code], env=_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("scenario:\n")
    assert done.stderr == "0 False True\n"


@pytest.mark.parametrize("argv, status", [
    (["estimate"], 2),                              # argparse usage error
    (["--help"], 0),
    (["estimate", "--scenario", "missing.yaml"], 1),  # error[config]
], ids=["usage", "help", "config"])
def test_the_entry_keeps_each_exit_status_and_message(
        capsys, monkeypatch, tmp_path, argv, status):
    done = subprocess.run([sys.executable, "-m", "phyenergy", *argv],
                          cwd=tmp_path, env=_env(), capture_output=True,
                          text=True, timeout=60)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    try:
        in_process = cli.main(argv)
    except SystemExit as exc:       # argparse exits by itself
        in_process = exc.code
    out, err = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr) == (status, out, err)
    assert in_process == status
