import sys
from fractions import Fraction
from pathlib import Path

import pytest

from phyenergy.costmodel import CostEntry, InstructionCostTable
from phyenergy.opcount import DataClass, OpKind
from phyenergy.scenario import Modulation, Scenario

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable


def make_table(micro_ops=1, cycles=Fraction(1), source="test") -> InstructionCostTable:
    """Table covering every (kind, class)."""
    entries = {}
    for kind in OpKind:
        for cls in DataClass:
            entries[(kind, cls)] = CostEntry(micro_ops=micro_ops,
                                             cycles=Fraction(cycles))
    return InstructionCostTable(entries=entries, source=source)


def reference_scenario(**overrides) -> Scenario:
    base = dict(
        n_slots=1, snr_db=10.0, scs_khz=15, n_prb=52,
        modulation=Modulation.QAM16, code_rate=490, n_tx=4, n_rx=4,
        n_layers=2, n_ports=4, clock_hz=2.1e9, kappa=1e-25,
    )
    base.update(overrides)
    return Scenario(**base)


@pytest.fixture
def uniform_table() -> InstructionCostTable:
    return make_table()


@pytest.fixture
def reference() -> Scenario:
    return reference_scenario()
