"""Analytical operation counting and energy estimation for a 5G NR
downlink baseband chain, plus classic base-station power models and
measurement-report comparison."""

from .errors import (ConfigError, CostTableError, CoverageError, DomainError,
                     MeasurementError, PhyEnergyError)
from .scenario import (BaseGraphSpec, DecodeConfig, DerivedParams, Modulation,
                       Scenario, derive, load_scenario, select_base_graph,
                       validate)
from .opcount import (BlockId, DataClass, OperationTally, OpKind,
                      PipelineTallies, tally_pipeline)
from .costmodel import (EnergyParams, EnergyReport, InstructionCostTable,
                        build_report, cycles_for, energy_per_cycle,
                        load_cost_table, load_default_cost_table)
from .ingest import (ComparisonReport, MeasuredReport, PathFilter, compare,
                     measured_cycles, parse_measurement)

__version__ = "0.1.0"

__all__ = [
    "BaseGraphSpec", "BlockId", "ComparisonReport", "ConfigError",
    "CostTableError", "CoverageError", "DataClass", "DecodeConfig",
    "DerivedParams", "DomainError", "EnergyParams", "EnergyReport",
    "InstructionCostTable", "MeasuredReport",
    "MeasurementError", "Modulation", "OperationTally", "OpKind",
    "PathFilter", "PhyEnergyError", "PipelineTallies", "Scenario",
    "build_report", "compare", "cycles_for", "derive", "energy_per_cycle",
    "load_cost_table", "load_default_cost_table", "load_scenario",
    "measured_cycles", "parse_measurement", "select_base_graph",
    "tally_pipeline", "validate",
]
