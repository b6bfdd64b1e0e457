import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SCRIPT = ROOT / "scripts" / "inprocess_ab.py"


def _run(parent, change):
    return subprocess.run(
        [sys.executable, str(_SCRIPT), str(parent), str(change), "--seed",
         "0", "--rounds", "1"],
        capture_output=True, text=True, timeout=120)


def test_a_checkout_against_itself_renders_alike_and_is_timed():
    done = _run(ROOT, ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "seed 0: 300 estimate texts byte-identical"
    assert [line.split()[0] for line in lines[-2:]] == ["op_us",
                                                        "round_ratio"]


def test_a_checkout_that_renders_differently_is_refused(tmp_path):
    """The two sides are loaded apart: a copy whose estimate text differs
    fails the byte check, and nothing is timed."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    cli = tmp_path / "src" / "phyenergy" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    cli.write_text(text.replace("bits_transmitted: {", "bits: {"),
                   encoding="utf-8")
    done = _run(ROOT, tmp_path)
    assert done.returncode == 1
    assert "scenario 0 of the seed-0 pool renders differently" in done.stderr
    assert done.stdout == ""
