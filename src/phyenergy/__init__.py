"""Analytical operation counting and energy estimation for a 5G NR
downlink baseband chain, plus classic base-station power models and
measurement-report comparison."""

from importlib import import_module

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.  Names are resolved on
# first use (PEP 562), so ``import phyenergy`` loads no submodule and each
# CLI command pays only for the modules it runs.
_EXPORTS = {
    **dict.fromkeys(("ConfigError", "CostTableError", "CoverageError",
                     "DomainError", "MeasurementError", "PhyEnergyError"),
                    "errors"),
    **dict.fromkeys(("BaseGraphSpec", "DecodeConfig", "DerivedParams",
                     "Modulation", "Scenario", "derive", "energy_per_cycle",
                     "load_scenario", "validate"),
                    "scenario"),
    **dict.fromkeys(("BlockId", "DataClass", "OperationTally", "OpKind",
                     "PipelineTallies", "tally_pipeline"), "opcount"),
    **dict.fromkeys(("EnergyParams", "EnergyReport", "InstructionCostTable",
                     "build_report", "cycles_for", "load_cost_table",
                     "load_default_cost_table"),
                    "costmodel"),
    **dict.fromkeys(("ComparisonReport", "MeasuredReport", "PathFilter",
                     "compare", "measured_cycles", "parse_measurement"),
                    "ingest"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
