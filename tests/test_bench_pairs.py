import importlib.util
import os
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summary_gives_quartiles_ratio_and_pairs_won():
    parent = [10.0, 12.0, 11.0, 13.0, 14.0]
    change = [11.0, 11.0, 12.0, 15.0, 16.0]
    higher = bench_pairs.summarize(parent, change, "higher")
    assert higher["parent"] == (11.0, 12.0, 13.0)
    assert higher["change"] == (11.0, 12.0, 15.0)
    assert higher["ratio"] == 1.0
    assert (higher["won"], higher["pairs"]) == (4, 5)
    lower = bench_pairs.summarize(parent, change, "lower")
    assert (lower["won"], lower["pairs"]) == (1, 5)     # ties are not won
    one = bench_pairs.summarize([2.0], [3.0], "lower")
    assert one["parent"] == (2.0, 2.0, 2.0)
    assert one["ratio"] == pytest.approx(1.5)
    assert one["won"] == 0
    assert (one["worse"], one["past_bound"]) == (None, False)   # no bound


@pytest.mark.parametrize("better, change, worse, past", [
    ("higher", [19.0, 19.0, 19.0], 0.05, False),
    ("higher", [14.0, 14.0, 14.0], 0.3, True),
    ("lower", [21.0, 21.0, 21.0], 0.05, False),
    ("lower", [26.0, 26.0, 26.0], 0.3, True),
    ("lower", [18.0, 18.0, 18.0], -0.1, False),
], ids=["higher-inside", "higher-past", "lower-inside", "lower-past",
        "lower-better"])
def test_summary_measures_the_worse_direction_against_the_bound(
        better, change, worse, past):
    s = bench_pairs.summarize([20.0, 20.0, 20.0], change, better, 0.25)
    assert s["worse"] == pytest.approx(worse)
    assert s["past_bound"] is past


def test_setup_probe_is_the_text_perfbench_runs():
    root = _SCRIPT.parent.parent
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", root / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert bench_pairs.setup_probe(str(root)) == run.SETUP_PROBE


def test_setup_probe_reads_the_assignment_alone(tmp_path):
    (tmp_path / "perfbench").mkdir()
    run = tmp_path / "perfbench" / "run.py"
    run.write_text('"""SETUP_PROBE = 1"""\nOTHER = "a"\n'
                   'SETUP_PROBE = """\nprint(2)\n"""\n')
    assert bench_pairs.setup_probe(str(tmp_path)) == "\nprint(2)\n"
    run.write_text('OTHER = "a"\n')
    with pytest.raises(SystemExit, match="assigns no SETUP_PROBE"):
        bench_pairs.setup_probe(str(tmp_path))


def test_probe_env_is_perfbenchs_child_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("PHYENERGY_COST_TABLE", "other.csv")
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    monkeypatch.syspath_prepend(str(_SCRIPT.parent.parent / "perfbench"))
    import workloads
    env = bench_pairs.probe_env(str(tmp_path))
    assert env == workloads.child_env(tmp_path)
    assert "PHYENERGY_COST_TABLE" not in env
    assert env["PYTHONPATH"] == os.pathsep.join(
        [str(tmp_path / "src"), "elsewhere"])
