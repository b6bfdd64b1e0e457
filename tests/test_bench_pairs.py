import importlib.util
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
