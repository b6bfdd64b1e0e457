"""The benchmark's workloads: one closed-loop client each.

A workload's ``repeat(tracer, outcome)`` runs a short stretch of
operations, checks every output, and then runs the reference
(reference.py): in process for the in-process workloads, in a fresh
interpreter for the cold-process ones.  The host's cores are shared with
other machines' work and its speed drifts by up to 1.8x within minutes;
an operation timed next to reference runs sees the same host state, so
the ratio of the two stays put while both absolute times move.  ``verify`` runs the untimed checks
that span more than one operation (goldens, linearity).
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from phyenergy import costmodel, ingest
from phyenergy.cli import render_compare_text, render_estimate_text
from phyenergy.costmodel import EnergyParams, build_report
from phyenergy.opcount import BlockId, tally_pipeline
from phyenergy.scenario import derive

import gen
from reference import time_reference
from tracer import NullTracer

GOLDEN_SEED = 0
SWEEP_POOL = 1000
SWEEP_CHUNK = 50          # scenarios between two reference runs
INGEST_ROWS = 100_000
INGEST_REFS = 150         # reference runs between two ingest ops
CLI_REFS = 15             # reference runs in one cold reference process


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    latencies_ms: list = field(default_factory=list)   # per operation
    rel: list = field(default_factory=list)            # op time / reference
    rates: list = field(default_factory=list)          # items/s per repeat
    ref_ms: list = field(default_factory=list)         # reference times
    items: int = 0
    busy_s: float = 0.0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)

    def add(self, op_s: list[float], items: int, ref_s: float) -> None:
        """Record one repeat: its operation times and its reference time."""
        busy = sum(op_s)
        self.latencies_ms += [t * 1e3 for t in op_s]
        self.rel += [t / ref_s for t in op_s]
        self.rates.append(items / busy)
        self.ref_ms.append(ref_s * 1e3)
        self.items += items
        self.busy_s += busy

    def throughput_per_ref(self) -> float:
        """Items per reference time over the whole window: a time-weighted
        ratio, steadier than a median when operations are long."""
        return self.items / self.busy_s * statistics.mean(self.ref_ms) / 1e3

    def absorb(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures[:5 - len(self.failures)]


class Bracket:
    """Pairs each stretch of operations with the mean of the reference
    runs just before and just after it; the run after one stretch is
    the run before the next."""

    def __init__(self, measure):
        self.measure = measure
        self.last = None

    def before(self) -> float:
        if self.last is None:
            self.last = self.measure()
        return self.last

    def after(self) -> float:
        self.last = self.measure()
        return self.last


def process_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _energy(s) -> EnergyParams:
    return EnergyParams(kappa=s.kappa, clock_hz=s.clock_hz)


def estimate_op(s, table, tr):
    """derive -> tally_pipeline -> build_report -> render_estimate_text."""
    with tr.span("scenario.derive"):
        d = derive(s)
    with tr.span("opcount.tally_pipeline"):
        tallies = tally_pipeline(s)
    with tr.span("costmodel.build_report"):
        rep = build_report(tallies, table, _energy(s), scenario=s)
    with tr.span("cli.render_estimate_text"):
        text = render_estimate_text(rep)
    return d, rep, text


def pool_digest(pool, table) -> str:
    h = hashlib.sha256()
    for s in pool:
        h.update(estimate_op(s, table, NullTracer())[2].encode())
    return h.hexdigest()


class SweepGrid:
    """In-process costing of a seeded draw over the scenario space."""

    name = "sweep-grid"

    def __init__(self, root: Path, work: Path, seed: int, goldens: dict,
                 pool_size: int = SWEEP_POOL, golden_pool: int = SWEEP_POOL):
        self.table = costmodel.load_default_cost_table()
        self.pool = gen.scenario_pool(seed, pool_size)
        self.goldens = goldens
        self.golden_pool = golden_pool
        self.next = 0
        self.ref = Bracket(time_reference)

    def coverage(self) -> dict:
        return gen.pool_coverage(self.pool)

    peak_rss_mb = staticmethod(process_peak_rss_mb)

    def repeat(self, tr, out: Outcome) -> None:
        chunk = [self.pool[(self.next + i) % len(self.pool)]
                 for i in range(min(SWEEP_CHUNK, len(self.pool)))]
        self.next = (self.next + len(chunk)) % len(self.pool)
        before = self.ref.before()
        op_s = []
        for s in chunk:
            tr.next_op()
            t0 = time.perf_counter()
            try:
                with tr.span("bench.op"):
                    d, rep, text = estimate_op(s, self.table, tr)
            except Exception as exc:    # counted as a failed operation
                out.check(False, f"sweep-grid: {exc!r} for {s}")
                continue
            op_s.append(time.perf_counter() - t0)
            blocks = [rep.per_block[b] for b in BlockId]
            out.check(
                sum((c.cycles for c in blocks), Fraction(0)) == rep.total.cycles
                and sum(c.micro_ops for c in blocks) == rep.total.micro_ops
                and rep.bits_transmitted == d.a * s.n_slots
                and f"\nbits_transmitted: {d.a * s.n_slots}\n" in text
                and text.count("\n    side: ") == len(blocks),
                f"sweep-grid: inconsistent report for {s}")
        after = self.ref.after()
        if op_s:
            out.add(op_s, len(op_s), (before + after) / 2)

    def verify(self, out: Outcome) -> None:
        pool = gen.scenario_pool(GOLDEN_SEED, self.golden_pool)
        want = self.goldens.get("sweep-grid", {})
        out.check(want.get("scenarios") == self.golden_pool
                  and pool_digest(pool, self.table) == want.get("sha256"),
                  "sweep-grid: rendered outputs differ from the golden digest")
        for s in self.pool[::20]:
            one = build_report(tally_pipeline(replace(s, n_slots=1)),
                               self.table, _energy(s))
            for k in (2, 3, 5):
                many = build_report(tally_pipeline(replace(s, n_slots=k)),
                                    self.table, _energy(s))
                out.check(
                    all(many.per_block[b].cycles == k * one.per_block[b].cycles
                        for b in BlockId)
                    and many.total.cycles == k * one.total.cycles,
                    f"sweep-grid: cycles not linear in n_slots={k} for {s}")


class CompareIngest:
    """In-process parse, attribution and compare of a large report."""

    name = "compare-ingest"

    def __init__(self, root: Path, work: Path, seed: int, goldens: dict,
                 n_rows: int = INGEST_ROWS):
        self.table = costmodel.load_default_cost_table()
        self.inp = gen.ingest_inputs(seed, n_rows, self.table)
        work.mkdir(parents=True, exist_ok=True)
        self.report_path = work / "ingest.csv"
        self.filter_path = work / "ingest-filter.yaml"
        self.report_path.write_text(self.inp.report_text)
        self.filter_path.write_text(self.inp.filter_yaml)
        self.path_filter, self.block_map = ingest.load_filter_config(
            self.filter_path)
        self.modeled = build_report(self.inp.tallies, self.table,
                                    _energy(self.inp.scenario))
        self.ref = Bracket(lambda: time_reference(INGEST_REFS))

    def coverage(self) -> dict:
        d = derive(self.inp.scenario)
        return {"rows": self.inp.rows, "rows_filtered": self.inp.rows_filtered,
                "rows_unattributed": self.inp.rows_unattributed,
                "block_map_prefixes": len(self.block_map),
                "scenario_bg": d.bg, "scenario_c": d.c}

    peak_rss_mb = staticmethod(process_peak_rss_mb)

    def op(self, tr):
        with tr.span("ingest.parse_measurement"):
            rep = ingest.parse_measurement(self.report_path, self.path_filter,
                                           self.block_map)
        with tr.span("ingest.measured_cycles"):
            measured = ingest.measured_cycles(rep, self.table)
        with tr.span("ingest.unattributed_cycles"):
            unattributed = ingest.unattributed_cycles(rep, self.table)
        with tr.span("ingest.compare"):
            result = ingest.compare(self.modeled, measured, unattributed)
        with tr.span("cli.render_compare_text"):
            text = render_compare_text(result)
        return rep.meta, result, text

    def repeat(self, tr, out: Outcome) -> None:
        before = self.ref.before()
        tr.next_op()
        t0 = time.perf_counter()
        try:
            with tr.span("bench.op"):
                meta, result, text = self.op(tr)
        except Exception as exc:        # counted as a failed operation
            out.check(False, f"compare-ingest: {exc!r}")
            return
        dt = time.perf_counter() - t0
        out.add([dt], self.inp.rows, (before + self.ref.after()) / 2)
        inp = self.inp
        rows = list(result.per_block.values()) + [result.total]
        out.check(
            all(c.flag == "match" and c.ratio == 1 for c in rows)
            and result.unattributed_cycles == inp.unattributed_cycles
            and (meta.rows_seen, meta.rows_kept, meta.rows_filtered,
                 meta.rows_unattributed)
            == (inp.rows, inp.rows - inp.rows_filtered, inp.rows_filtered,
                inp.rows_unattributed)
            and text.endswith("overestimated: none\nunderestimated: none\n"),
            f"compare-ingest: comparison disagrees with the generated report "
            f"({meta})")

    def verify(self, out: Outcome) -> None:
        pass


REFERENCE = "configs/reference.yaml"
CLI_MEASURED = "cli-measured.csv"

CLI_COMMANDS = {
    "estimate": ["estimate", "--scenario", REFERENCE],
    "sweep275": ["sweep", "--scenario", REFERENCE, "--param", "n_prb",
                 "--values", ",".join(str(n) for n in range(1, 276))],
    "compare": ["compare", "--scenario", REFERENCE,
                "--measured", None, "--filter", "configs/filter_example.yaml"],
    "legacy": ["legacy", "--model", "tombaz", "--params",
               "configs/tombaz.yaml"],
}


def child_env(root: Path) -> dict:
    """Environment for child interpreters: this checkout's package only."""
    env = {k: v for k, v in os.environ.items() if k != "PHYENERGY_COST_TABLE"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


class CliCold:
    """Fresh ``python -m phyenergy`` processes, one at a time, with a
    fresh reference process between two commands."""

    per_repeat = 4

    def __init__(self, root: Path, work: Path, seed: int, goldens: dict,
                 command: str):
        self.name = f"cli-cold.{command}"
        self.root = root
        self.golden = goldens.get(self.name)
        work.mkdir(parents=True, exist_ok=True)
        measured = work / CLI_MEASURED
        measured.write_text(gen.cli_compare_report(seed, root / REFERENCE))
        args = [str(measured) if a is None else a
                for a in CLI_COMMANDS[command]]
        self.argv = [sys.executable, "-m", "phyenergy"] + args
        self.env = child_env(root)
        self.stdout_path = work / "cli-stdout"
        self.stderr_path = work / "cli-stderr"
        self.rss_kb: list[int] = []
        reference = [sys.executable, str(Path(__file__).with_name(
            "reference.py")), str(CLI_REFS)]
        self.ref = Bracket(lambda: self.run_once(reference)[0])

    def coverage(self) -> dict:
        return {"argv": self.argv[1:]}

    def run_once(self, argv=None):
        """Run the command (or ``argv``) once; return (seconds, exit code,
        stdout, stderr, peak RSS in kB of that process)."""
        with open(self.stdout_path, "w+b") as so, \
                open(self.stderr_path, "w+b") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv or self.argv, cwd=self.root,
                                    env=self.env, stdout=so, stderr=se)
            killer = threading.Timer(60, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            dt = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            so.seek(0)
            se.seek(0)
            return dt, proc.returncode, so.read(), se.read(), usage.ru_maxrss

    def repeat(self, tr, out: Outcome) -> None:
        for _ in range(self.per_repeat):
            before = self.ref.before()
            tr.next_op()
            with tr.span("cli.process"):
                dt, code, stdout, stderr, rss_kb = self.run_once()
            out.add([dt], 1, (before + self.ref.after()) / 2)
            self.rss_kb.append(rss_kb)
            digest = hashlib.sha256(stdout).hexdigest()
            out.check(code == 0 and not stderr and digest == self.golden,
                      f"{self.name}: exit {code}, stdout sha256 "
                      f"{digest[:12]}, stderr {stderr[-200:]!r}")

    def peak_rss_mb(self) -> float:
        return statistics.median(self.rss_kb) / 1024

    def verify(self, out: Outcome) -> None:
        pass


def make(name: str, root: Path, work: Path, seed: int, goldens: dict):
    if name == "sweep-grid":
        return SweepGrid(root, work, seed, goldens)
    if name == "compare-ingest":
        return CompareIngest(root, work, seed, goldens)
    family, _, command = name.partition(".")
    if family == "cli-cold" and command in CLI_COMMANDS:
        return CliCold(root, work, seed, goldens, command)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep-grid", "compare-ingest") + tuple(
    f"cli-cold.{c}" for c in CLI_COMMANDS)
