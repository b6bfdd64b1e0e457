"""Exception hierarchy shared across the package.

Every error carries a short machine-greppable code that the CLI prints
as ``error[<code>]: <message>`` before exiting nonzero.
"""

from __future__ import annotations


class PhyEnergyError(Exception):
    """Base class for all package errors."""

    code = "internal"


class ConfigError(PhyEnergyError):
    """Invalid or inconsistent scenario / model configuration."""

    code = "config"


class DomainError(PhyEnergyError):
    """A counting formula was called outside its domain of validity."""

    code = "domain"


class CostTableError(PhyEnergyError):
    """Malformed instruction-cost table file."""

    code = "cost-table"


class CoverageError(PhyEnergyError):
    """An operation key has no entry in the active cost table."""

    code = "coverage"


class MeasurementError(PhyEnergyError):
    """Malformed or unusable measurement report."""

    code = "measured"


class UsageError(PhyEnergyError):
    """Bad command-line usage that argparse cannot catch itself."""

    code = "usage"
