"""Tests of the benchmark itself: tiny workloads pass their checks, broken
outputs are counted as failed, and the printed metrics match
BENCHMARK.json.

usage: python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from phyenergy import costmodel  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402

GOLDENS = json.loads((BENCH / "goldens.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_sweep(tmp_path, goldens=None):
    wl = workloads.SweepGrid(ROOT, tmp_path, seed=5, goldens={},
                             pool_size=60, golden_pool=30)
    table = costmodel.load_default_cost_table()
    digest = workloads.pool_digest(
        gen.scenario_pool(workloads.GOLDEN_SEED, 30), table)
    wl.goldens = goldens or {"sweep-grid": {"scenarios": 30, "sha256": digest}}
    return wl


def test_tiny_sweep_grid_passes_its_checks(tmp_path):
    wl = _tiny_sweep(tmp_path)
    out = workloads.Outcome()
    wl.verify(out)
    wl.repeat(NullTracer(), out)
    assert out.failed == 0, out.failures
    assert out.attempted > workloads.SWEEP_CHUNK
    assert len(out.rel) == workloads.SWEEP_CHUNK and len(out.ref_ms) == 1
    assert out.throughput_per_ref() > 0


def test_sweep_grid_golden_digest_matches_this_checkout():
    pool = gen.scenario_pool(workloads.GOLDEN_SEED, workloads.SWEEP_POOL)
    table = costmodel.load_default_cost_table()
    assert (workloads.pool_digest(pool, table)
            == GOLDENS["sweep-grid"]["sha256"])


def test_corrupted_sweep_golden_is_counted_as_failed(tmp_path):
    wl = _tiny_sweep(tmp_path, {"sweep-grid": {"scenarios": 30,
                                               "sha256": "0" * 64}})
    out = workloads.Outcome()
    wl.verify(out)
    assert out.failed == 1


def test_tiny_compare_ingest_passes_its_checks(tmp_path):
    wl = workloads.CompareIngest(ROOT, tmp_path, seed=3, goldens={},
                                 n_rows=2000)
    out = workloads.Outcome()
    wl.repeat(NullTracer(), out)
    assert (out.attempted, out.failed) == (1, 0), out.failures
    assert wl.inp.rows_filtered > 0 and wl.inp.rows_unattributed > 0


def test_doctored_report_row_is_counted_as_failed(tmp_path):
    wl = workloads.CompareIngest(ROOT, tmp_path, seed=3, goldens={},
                                 n_rows=2000)
    lines = wl.report_path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines[1:], 1)
             if line.startswith("phy/") and not line.startswith("phy/debug/"))
    path, rest = lines[i].rsplit(",", 1)
    lines[i] = f"{path},{int(rest) + 1}"
    wl.report_path.write_text("\n".join(lines) + "\n")
    out = workloads.Outcome()
    wl.repeat(NullTracer(), out)
    assert (out.attempted, out.failed) == (1, 1)


@pytest.mark.parametrize("command", list(workloads.CLI_COMMANDS))
def test_cli_cold_commands_match_their_goldens(tmp_path, command):
    wl = workloads.CliCold(ROOT, tmp_path, seed=9, goldens=GOLDENS,
                           command=command)
    out = workloads.Outcome()
    wl.repeat(NullTracer(), out)
    assert out.failed == 0, out.failures
    assert out.attempted == wl.per_repeat and wl.peak_rss_mb() > 0


def test_corrupted_cli_golden_is_counted_as_failed(tmp_path):
    goldens = dict(GOLDENS, **{"cli-cold.legacy": "0" * 64})
    wl = workloads.CliCold(ROOT, tmp_path, seed=0, goldens=goldens,
                           command="legacy")
    out = workloads.Outcome()
    wl.repeat(NullTracer(), out)
    assert out.failed == out.attempted == wl.per_repeat


def test_generators_are_deterministic_and_cover_the_space():
    table = costmodel.load_default_cost_table()
    assert gen.scenario_pool(7, 50) == gen.scenario_pool(7, 50)
    assert gen.scenario_pool(7, 50) != gen.scenario_pool(8, 50)
    a = gen.ingest_inputs(7, 1000, table)
    assert a == gen.ingest_inputs(7, 1000, table)
    cov = gen.pool_coverage(gen.scenario_pool(7, 300))
    assert cov["bg1_share"] > 0 and cov["bg2_share"] > 0
    assert cov["c_max"] > 1 and cov["variant_share"] > 0


def test_cli_compare_report_varies_with_the_seed():
    # The compare output does not: the goldens test above runs seed 9
    # against goldens recorded at seed 0.
    reference = ROOT / workloads.REFERENCE
    assert (gen.cli_compare_report(1, reference)
            != gen.cli_compare_report(2, reference))


def test_traced_spans_give_self_times():
    tr = Tracer()
    tr.next_op()
    with tr.span("bench.op"):
        with tr.span("scenario.derive"):
            pass
    assert [s[0] for s in tr.spans] == ["bench.op", "scenario.derive"]
    assert tr.spans[1][3] == 0 and tr.spans[1][4] == 1
    selfs = tr.self_time_us()
    total = (tr.spans[0][2] - tr.spans[0][1]) / 1e3
    assert selfs["bench"] + selfs["scenario"] == pytest.approx(total)


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        layers.PER_LAYER.items())
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-grid",
         "--seed", "4", "--seconds", "0.3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    proc = _run(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[key]}


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
