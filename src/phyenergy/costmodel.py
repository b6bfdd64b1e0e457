"""Instruction costs: micro-ops, cycles and energy for counted operations.

An :class:`InstructionCostTable` maps (operation kind, data class) to
a micro-op count and a reciprocal-throughput cycle cost.  The data class
alone decides where an operand lives (:data:`LOCATION_BY_CLASS`):
scalars in general-purpose registers, logical/integer vectors in mmx
registers, double vectors in xmm registers, and structs in memory.  A
table row's ``operand_location`` must be the one its class implies;
:func:`parse_cost_table` rejects any other row.

Each table is compiled once, when it is built, into per-slot integer
vectors indexed like :data:`~phyenergy.opcount.SLOT_KEYS`: micro-ops,
and cycle numerators over one common denominator (the lcm of the cycle
denominators of the rows that can be priced).  A slot is priced as the
sum of its parts (:data:`~phyenergy.opcount.PART_SLOTS`), so a FLOP
costs one addition plus one multiplication of its class and a table's
own FLOP rows are checked but never priced.  A table keeps only these
prices and its metadata, and :meth:`InstructionCostTable.lookup` prices
one operation as a report does.  Pricing a tally is an integer
multiply-accumulate over its slots.  A report's :class:`BlockCost`
records carry each cycle count as an integer numerator over the table's
denominator, so renderers format exact decimals from integers; ``cycles``
and ``cycles_per_bit`` build the exact rationals only when asked for, and
floats appear only as energies (cycles times the report's ``epsilon``, which
:func:`~phyenergy.scenario.energy_per_cycle` gives) and in rendered reports.

Cost-table text, the bundled table's included, is read and split into
rows and cells by :mod:`~phyenergy.readers`, as measurement reports are;
this module keeps only the table's own rules: its header, the kind and
class names, the location rule and the ``cycles`` syntax.
"""

from __future__ import annotations

import math
import os
import re
from fractions import Fraction
from typing import (Dict, Iterable, List, Mapping, NamedTuple, Optional,
                    Tuple)

from .errors import CostTableError, CoverageError, DomainError
from .opcount import (PART_SLOTS, SLOT_INDEX, SLOT_KEYS, BlockId, DataClass,
                      OpKey, OpKind, OperationTally, PipelineTallies)
from .opcount import expand_flops  # noqa: F401  (kept importable from here)
from .readers import (count_cell, echo, name_cell, path_text, read_csv_rows,
                      read_text, reject_long_parts)
from .scenario import DerivedParams, Scenario, energy_per_cycle

DEFAULT_TABLE_RESOURCE = "cost_table.csv"

# The operand location each data class implies, by its cost-table name.
LOCATION_BY_CLASS = {
    DataClass.LOGICAL_SCALAR: "register",
    DataClass.INT_SCALAR: "register",
    DataClass.DOUBLE_SCALAR: "register",
    DataClass.LOGICAL_VECTOR: "mmx",
    DataClass.INT_VECTOR: "mmx",
    DataClass.DOUBLE_VECTOR: "xmm",
    DataClass.STRUCT: "memory",
}


class CostEntry(NamedTuple):
    micro_ops: int
    cycles: Fraction


def _compile(entries: Mapping[OpKey, CostEntry], source: str,
             ) -> Tuple[Tuple[int, ...], Tuple[int, ...], int, Dict[int, int]]:
    """A table compiled per slot (see :data:`~phyenergy.opcount.SLOT_KEYS`),
    each slot priced as the sum of its :data:`~phyenergy.opcount.PART_SLOTS`:
    ``(micro_ops, cycles, den, missing)``.  A slot costs ``micro_ops[slot]``
    micro-ops and ``cycles[slot] / den`` cycles, unless ``missing`` maps it
    to the first of its parts that has no table entry.  Cycles must be
    non-negative (as :func:`parse_cost_table` ensures), so that no block of
    a report costs more than the total."""
    if any(entry.cycles < 0 for entry in entries.values()):
        raise CostTableError(f"{source or 'cost table'}: cycles must be >= 0")
    # Only the rows that can be a part are ever priced (a table's FLOP rows
    # are not), so only they set the denominator.
    parts = {part for slot_parts in PART_SLOTS for part in slot_parts}
    priced = {SLOT_INDEX[key]: entry for key, entry in entries.items()
              if SLOT_INDEX[key] in parts}
    den = math.lcm(*[e.cycles.denominator for e in priced.values()])
    scaled = {slot: e.cycles.numerator * (den // e.cycles.denominator)
              for slot, e in priced.items()}
    micro_ops = [0] * len(SLOT_KEYS)
    cycles = [0] * len(SLOT_KEYS)
    missing: Dict[int, int] = {}
    for slot, parts in enumerate(PART_SLOTS):
        lacking = [part for part in parts if part not in priced]
        if lacking:
            missing[slot] = lacking[0]
        else:
            micro_ops[slot] = sum(priced[part].micro_ops for part in parts)
            cycles[slot] = sum(scaled[part] for part in parts)
    return tuple(micro_ops), tuple(cycles), den, missing


class InstructionCostTable:
    """Micro-ops and cycles per (kind, class), compiled from ``entries``
    when built; a table with a negative cycles entry is refused then.  The
    operand location is not a key: a CSV row's ``operand_location`` must
    equal the one its class implies (:data:`LOCATION_BY_CLASS`), and
    :func:`parse_cost_table` rejects any other row."""

    __slots__ = ("source", "date", "_kernel")

    def __init__(self, entries: Mapping[OpKey, CostEntry], source: str = "",
                 date: str = ""):
        self.source = source
        self.date = date
        self._kernel = _compile(entries, source)

    def lookup(self, kind: OpKind, cls: DataClass) -> CostEntry:
        """One operation priced as a report prices it (a FLOP as ADD + MUL)."""
        return cycles_for(OperationTally({(kind, cls): 1}), self)


_HEADER = ["op_kind", "data_class", "operand_location", "micro_ops", "cycles"]

# Each enum's members by value, for reading CSV cells (ingest's too).
KIND_BY_NAME = {kind.value: kind for kind in OpKind}
CLASS_BY_NAME = {cls.value: cls for cls in DataClass}


# The largest reduced denominator of a cycles value (1e-300 is about
# where floats end).  A report's cycle counts fit a float, so each then
# prints as at most 309 whole digits and 996 decimal places, inside
# Python's int/str digit limit.
_MAX_CYCLES_DEN = 10 ** 300

# Fraction builds 10**abs(exponent) for a decimal exponent before any rule
# can see the value, which takes seconds from a few million on.  A positive
# exponent past the int/str digit limit, 4300, is refused.  The integer part
# of a mantissa has at most 4300 digits, so under -4601 any exponent gives
# zero or a value finer than 10**-301, whose reduced denominator is over
# 10**300: such an exponent is read as -4601, which decides the same.
_MAX_CYCLES_EXPONENT = 4300
_MIN_CYCLES_EXPONENT = -4601
# A decimal with an exponent, in Fraction's own grammar; text of any other
# form goes to Fraction as it is, which refuses it or builds no power.  It
# is compiled on first use, and a cell with no E never uses it.
_DECIMAL_WITH_EXPONENT = (
    r"\s*[-+]?(?=\d|\.\d)\d*(?:_\d+)*(?:\.(?:\d+(?:_\d+)*)?)?"
    r"E([-+]?\d+(?:_\d+)*)\s*")


def _parse_cycles(text: str, where: str) -> Fraction:
    form = ("E" in text.upper()
            and re.fullmatch(_DECIMAL_WITH_EXPONENT, text, re.IGNORECASE))
    try:
        exponent = int(form[1]) if form else 0
    except ValueError:      # past the digit limit: Fraction refuses it too
        exponent = 0
    if exponent > _MAX_CYCLES_EXPONENT:
        raise CostTableError(f"{where}: cycles {echo(text)} has a decimal "
                             f"exponent over {_MAX_CYCLES_EXPONENT}")
    parsed = (text if exponent >= _MIN_CYCLES_EXPONENT
              else f"{text[:form.start(1)]}{_MIN_CYCLES_EXPONENT}")
    try:
        value = Fraction(parsed)
    except (ValueError, ZeroDivisionError):
        # The digit rule holds for each integer of 1/3, 0.25 and 2.5e-1.
        reject_long_parts(re.split("[/.eE]", text), f"{where}: cycles",
                          CostTableError)
        raise CostTableError(f"{where}: bad cycles value {echo(text)}"
                             ) from None
    if value < 0:
        raise CostTableError(f"{where}: cycles must be >= 0")
    if value.denominator > _MAX_CYCLES_DEN:
        raise CostTableError(f"{where}: cycles {echo(text)} has a reduced "
                             "denominator over 10**300")
    return value


def parse_cost_table(text: str, source: str = "<string>") -> InstructionCostTable:
    """Parse cost-table CSV text.

    Lines starting with ``#`` are comments; ``# source:`` and
    ``# date:`` comments populate the table metadata.  The header row
    is required, and duplicate keys and rows whose ``operand_location``
    is not the one their class implies are rejected.
    """
    meta = {"source": source, "date": ""}
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            for tag in ("source", "date"):
                prefix = tag + ":"
                if body.lower().startswith(prefix):
                    meta[tag] = body[len(prefix):].strip()

    entries: Dict[OpKey, CostEntry] = {}
    for lineno, row in read_csv_rows(text, source, _HEADER, "cost table",
                                     CostTableError):
        where = f"{source}:{lineno}"
        kind_s, cls_s, loc_s, uops_s, cyc_s = row
        kind = name_cell(kind_s, KIND_BY_NAME, "op_kind", where,
                         CostTableError)
        cls = name_cell(cls_s, CLASS_BY_NAME, "data_class", where,
                        CostTableError)
        location = LOCATION_BY_CLASS[cls]
        if loc_s != location:
            if loc_s not in LOCATION_BY_CLASS.values():
                raise CostTableError(
                    f"{where}: unknown operand_location {echo(loc_s)}")
            raise CostTableError(
                f"{where}: operand_location of {cls.value} must be "
                f"{location!r}, got {loc_s!r}")
        micro_ops = count_cell(uops_s, "micro_ops", where, CostTableError)
        cycles = _parse_cycles(cyc_s, where)
        if (kind, cls) in entries:
            raise CostTableError(
                f"{where}: duplicate entry for "
                f"{kind.value},{cls.value},{location}")
        entries[(kind, cls)] = CostEntry(micro_ops=micro_ops, cycles=cycles)

    return InstructionCostTable(entries=entries, source=meta["source"],
                                date=meta["date"])


def load_cost_table(path: str | os.PathLike[str]) -> InstructionCostTable:
    return parse_cost_table(read_text(path, "cost table", CostTableError),
                            source=path_text(path))


def load_default_cost_table() -> InstructionCostTable:
    """The table bundled as ``data/cost_table.csv`` next to this module,
    read as any table file is (its ``# source:`` line names it)."""
    return load_cost_table(os.path.join(os.path.dirname(__file__), "data",
                                        DEFAULT_TABLE_RESOURCE))


def _price(tallies: Iterable[OperationTally], table: InstructionCostTable,
           ) -> List[Tuple[int, int]]:
    """Micro-ops, and cycles as a numerator over the table's denominator,
    for each tally in turn."""
    micro_ops_of, cycles_of, _, missing = table._kernel
    priced = []
    for tally in tallies:
        counts = tally.slot_counts()
        if missing and not missing.keys().isdisjoint(counts):
            # Name the first absent key in expanded (kind, class) order:
            # parts ascend within a slot, so that is the smallest
            # first-lacking part.
            kind, cls = SLOT_KEYS[min(missing[slot] for slot in counts
                                      if slot in missing)]
            raise CoverageError(
                f"no cost entry for op_kind={kind.value} "
                f"data_class={cls.value} "
                f"operand_location={LOCATION_BY_CLASS[cls]} "
                f"(table source: {table.source or 'unknown'})")
        micro_ops = cycles = 0
        for slot, n in counts.items():
            micro_ops += n * micro_ops_of[slot]
            cycles += n * cycles_of[slot]
        priced.append((micro_ops, cycles))
    return priced


def cycles_for(tally: OperationTally, table: InstructionCostTable) -> CostEntry:
    """Micro-ops and cycles for a tally under a cost table (exact)."""
    [(micro_ops, cycles)] = _price((tally,), table)
    return CostEntry(micro_ops=micro_ops,
                     cycles=Fraction(cycles, table._kernel[2]))


class EnergyParams(NamedTuple):
    kappa: float
    clock_hz: float


class BlockCost(NamedTuple):
    """Cost of a block, or of the total: ``cycle_num / cycle_den`` cycles
    exactly, where ``cycle_den`` is the cost table's denominator."""

    micro_ops: int
    cycle_num: int
    cycle_den: int
    bits: int                            # payload bits; 0 when none
    energy_j: float
    energy_nj_per_bit: Optional[float]   # None when no payload bits

    @property
    def cycles(self) -> Fraction:
        return Fraction(self.cycle_num, self.cycle_den)

    @property
    def cycles_per_bit(self) -> Optional[Fraction]:
        """None when no payload bits."""
        if self.bits > 0:
            return Fraction(self.cycle_num, self.cycle_den * self.bits)
        return None


class EnergyReport(NamedTuple):
    """Costed pipeline: per-block and total micro-ops, cycles, energy."""

    per_block: Mapping[BlockId, BlockCost]
    total: BlockCost
    bits_transmitted: int
    energy: EnergyParams
    epsilon: float              # joules per cycle, checked
    table_source: str
    table_date: str
    derived: DerivedParams      # from the pipeline tallies
    scenario: Optional[Scenario] = None


# Blocks in report order.
_BLOCKS = tuple(BlockId)


def build_report(tallies: PipelineTallies, table: InstructionCostTable,
                 energy: EnergyParams,
                 scenario: Optional[Scenario] = None) -> EnergyReport:
    """Attach costs to pipeline tallies and aggregate totals.

    A bad energy scale raises ConfigError, an energy beyond the float range
    DomainError.  Table cycles are non-negative, so no block costs more
    than the total, and checking the total's energies covers every
    block's."""
    eps = energy_per_cycle(energy.kappa, energy.clock_hz)
    bits = tallies.bits_transmitted
    priced = _price(map(tallies.per_block.__getitem__, _BLOCKS), table)
    den = table._kernel[2]
    costs = []
    new = tuple.__new__     # every field in order, as in scenario.derive
    try:
        # The total first.  Integer true division is correctly rounded, so
        # ``cycles / den`` is the float of the exact rational, reduced or
        # not; it raises OverflowError past the float range.
        for micro_ops, cycles in ((sum([m for m, _ in priced]),
                                   sum([c for _, c in priced])), *priced):
            energy_j = cycles / den * eps
            costs.append(new(BlockCost, (micro_ops, cycles, den, bits,
                                         energy_j, energy_j / bits * 1e9
                                         if bits > 0 else None)))
        total = costs[0]
        finite = (math.isfinite(total.energy_j)
                  and math.isfinite(total.energy_nj_per_bit or 0.0))
    except OverflowError:       # a count too large to mix with floats
        finite = False
    if not finite:
        raise DomainError("energy is not finite: too many cycles, or too "
                          "much energy per cycle, for a float")
    return new(EnergyReport, (dict(zip(_BLOCKS, costs[1:])), total, bits,
                              energy, eps, table.source, table.date,
                              tallies.derived, scenario))
