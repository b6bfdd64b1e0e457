"""Measurement-report ingestion and model-vs-measurement comparison.

A measurement report is delimited text with one row per operator
record::

    function_path,block,operator,data_type,shape,count

``block`` is a letter A-H or empty; empty cells are attributed by
longest-prefix match against a user-supplied path-to-block map, and
rows that still match nothing land in an "unattributed" bucket that is
reported separately.  The column set is a reconstruction of a profiler
export: the original tooling's exact column names are not public, so
this schema is the package's documented interchange format.

Rows are split and their cells read by :mod:`~phyenergy.readers`, as
cost-table rows are, and filter configs go through its YAML readers;
this module keeps the report's columns, the block letters and the
filter fields.

A report is read a chunk of columns at a time
(:func:`~phyenergy.readers.read_csv_columns`).  Every cell of a chunk is
validated first, a column at a time: one dict probe per name cell and one
``int()`` per count, with no row position built.  So a row the filter
drops still fails on a bad cell, and only a chunk that fails is read
again by the cell readers, a row at a time, for its first bad row's
``<source>:<line>`` message.  The path filter runs next, on the whole path
column at once (two ``str.startswith`` maps), and only the rows it keeps
are attributed and summed: the block map is indexed by prefix length, so
a kept row with an empty block cell costs one dict probe per length,
longest first, up to the first match.  No row outlives its chunk: a
:class:`MeasuredReport` holds the parse's counters and the per-block
sums, and :class:`MeasuredRow` is the record
:func:`serialize_measurement` writes.

Measured rows run through the same cost path as modeled tallies
(:func:`~phyenergy.costmodel.cycles_for` over the compiled cost table),
which makes model/measurement ratios invariant under cost-table
rescaling.
"""

from __future__ import annotations

import csv
import io
import os
import sys
from fractions import Fraction
from itertools import compress, repeat
from operator import gt, not_
from typing import (Any, Dict, Iterable, Mapping, NamedTuple, NoReturn,
                    Optional, Sequence, Tuple)

from .costmodel import (CLASS_BY_NAME, KIND_BY_NAME, EnergyReport,
                        InstructionCostTable, cycles_for)
from .errors import ConfigError, DomainError, MeasurementError
from .opcount import (BlockId, DataClass, OpKind, OperationTally,
                      PipelineTallies)
from .readers import (as_list, count_cell, echo, name_cell, path_text,
                      read_csv_columns, read_text, read_yaml, record,
                      write_text)

# Block letters in either case.
_BLOCK_BY_NAME = {name: blk for blk in BlockId
                  for name in (blk.value, blk.value.lower())}
# A block cell's block; an empty cell has none.
_BLOCK_CELL = {**_BLOCK_BY_NAME, "": None}


class MeasuredRow(NamedTuple):
    function_path: str
    block: Optional[BlockId]
    operator: OpKind
    data_type: DataClass
    shape: str
    count: int


class MeasurementMeta(NamedTuple):
    source: str = ""
    rows_seen: int = 0
    rows_kept: int = 0
    rows_filtered: int = 0
    rows_unattributed: int = 0


class MeasuredReport(NamedTuple):
    """The parse's counts, and the kept rows' counts summed per block,
    unattributed rows under None.  The rows themselves are not kept."""

    meta: MeasurementMeta
    block_tallies: Mapping[Optional[BlockId], OperationTally]

    @property
    def empty(self) -> bool:
        return not self.meta.rows_kept


def _passes(paths: Sequence[str], allow: Tuple[str, ...],
            deny: Tuple[str, ...]) -> list[bool]:
    """Which paths pass: allowed, or no allowlist, and not denied."""
    denied = map(str.startswith, paths, repeat(deny))
    return list(map(gt, map(str.startswith, paths, repeat(allow)), denied)
                if allow else map(not_, denied))


class PathFilter(NamedTuple("PathFilter", [("allow", Tuple[str, ...]),
                                           ("deny", Tuple[str, ...])])):
    """Prefix allow/deny filter over profiled function paths.

    A path passes when it starts with some allow prefix (an empty
    allowlist admits everything) and starts with no deny prefix.
    ``allow`` and ``deny`` take any iterable of prefixes, except a single
    string, and are kept as tuples, by ``_replace`` too.  Filtering is
    idempotent by construction.
    """

    __slots__ = ()

    def __new__(cls, allow: Iterable[str] = (), deny: Iterable[str] = ()):
        if isinstance(allow, str) or isinstance(deny, str):
            raise TypeError("PathFilter allow and deny take an iterable of "
                            "prefixes, not a string")
        return super().__new__(cls, tuple(allow), tuple(deny))

    @classmethod
    def _make(cls, iterable: Iterable) -> PathFilter:
        return cls(*iterable)

    def matches(self, path: str) -> bool:
        return _passes((path,), *self)[0]


# A block map indexed by prefix length, longest first:
# ((length, {prefix: block}), ...).
_BlockIndex = Tuple[Tuple[int, Dict[str, BlockId]], ...]


def _index_block_map(block_map: Mapping[str, BlockId]) -> _BlockIndex:
    by_length: Dict[int, Dict[str, BlockId]] = {}
    for prefix, block in block_map.items():
        by_length.setdefault(len(prefix), {})[prefix] = block
    return tuple(sorted(by_length.items(), reverse=True))


def _lookup(path: str, index: _BlockIndex) -> Optional[BlockId]:
    # Two matching prefixes of one length are the same string, so the
    # first length that matches gives the longest match.
    for length, blocks in index:
        block = blocks.get(path[:length])
        if block is not None:
            return block
    return None


def assign_block(path: str, block_map: Mapping[str, BlockId]) -> Optional[BlockId]:
    """Longest-prefix block attribution; None when nothing matches."""
    return _lookup(path, _index_block_map(block_map))


def parse_measurement(path: str | os.PathLike[str],
                      path_filter: Optional[PathFilter] = None,
                      block_map: Optional[Mapping[str, BlockId]] = None,
                      ) -> MeasuredReport:
    """Read a measurement file, filter it, and attribute rows to blocks."""
    text = read_text(path, "measurement file", MeasurementError)
    return parse_measurement_text(text, source=path_text(path),
                                  path_filter=path_filter,
                                  block_map=block_map)


def _reject_first_bad_row(source: str, linenos: Sequence[int],
                          block_cells: Sequence[str], op_cells: Sequence[str],
                          type_cells: Sequence[str],
                          count_cells: Sequence[str]) -> NoReturn:
    """Raise the message of the first row of a chunk with a bad cell,
    checking its operator, data_type, count and block in that order."""
    for lineno, block_s, op_s, type_s, count_s in zip(
            linenos, block_cells, op_cells, type_cells, count_cells):
        where = f"{source}:{lineno}"
        name_cell(op_s, KIND_BY_NAME, "operator", where, MeasurementError)
        name_cell(type_s, CLASS_BY_NAME, "data_type", where, MeasurementError)
        count_cell(count_s, "count", where, MeasurementError)
        if block_s:
            name_cell(block_s, _BLOCK_BY_NAME, "block", where,
                      MeasurementError)
    raise AssertionError("a chunk that failed a check has no bad cell")


def parse_measurement_text(text: str, source: str = "<string>",
                           path_filter: Optional[PathFilter] = None,
                           block_map: Optional[Mapping[str, BlockId]] = None,
                           ) -> MeasuredReport:
    allow, deny = path_filter or PathFilter()
    index = _index_block_map(block_map or {})

    # Kept rows' counts by (block, operator, data type).
    sums: Dict[Tuple[Optional[BlockId], OpKind, DataClass], int] = {}
    seen = kept = unattributed = 0
    for linenos, columns in read_csv_columns(
            text, source, MeasuredRow._fields, "measurement file",
            MeasurementError):
        paths, block_cells, op_cells, type_cells, _, count_cells = columns
        seen += len(linenos)

        # Every cell is checked before the filter, so a denied row with a
        # bad cell fails too.  A chunk that fails a check is read again by
        # the cell readers, a row at a time, for the first bad row's message.
        try:
            operators = list(map(KIND_BY_NAME.__getitem__, op_cells))
            data_types = list(map(CLASS_BY_NAME.__getitem__, type_cells))
            counts = list(map(int, count_cells))
            blocks = list(map(_BLOCK_CELL.__getitem__, block_cells))
            valid = min(counts) >= 0
        except (KeyError, ValueError):
            valid = False
        if not valid:
            _reject_first_bad_row(source, linenos, block_cells, op_cells,
                                  type_cells, count_cells)

        keep = _passes(paths, allow, deny)
        kept += keep.count(True)
        for fpath, block, operator, data_type, count in compress(
                zip(paths, blocks, operators, data_types, counts), keep):
            if block is None:
                block = _lookup(fpath, index)
                if block is None:
                    unattributed += 1
            key = (block, operator, data_type)
            sums[key] = sums.get(key, 0) + count

    grouped: Dict[Optional[BlockId], Dict] = {}
    for (block, operator, data_type), count in sums.items():
        grouped.setdefault(block, {})[(operator, data_type)] = count
    meta = MeasurementMeta(source=source, rows_seen=seen, rows_kept=kept,
                           rows_filtered=seen - kept,
                           rows_unattributed=unattributed)
    return MeasuredReport(meta, {
        block: OperationTally(counts) for block, counts in grouped.items()})


def serialize_measurement(rows: Iterable[MeasuredRow]) -> str:
    """Measurement rows back to delimited text (inverse of parsing)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(MeasuredRow._fields)
    for row in rows:
        writer.writerow([
            row.function_path,
            row.block.value if row.block is not None else "",
            row.operator.value,
            row.data_type.value,
            row.shape,
            row.count,
        ])
    return out.getvalue()


def write_measurement(rows: Iterable[MeasuredRow],
                      path: str | os.PathLike[str]) -> None:
    write_text(path, serialize_measurement(rows))


def rows_from_tallies(tallies: PipelineTallies) -> list[MeasuredRow]:
    """Synthesize measurement rows that mirror modeled tallies exactly.

    Used to exercise the ingest/compare path against the model itself (the
    paths start ``nr5g/``, which ``configs/filter_example.yaml`` allows);
    re-ingesting these rows must reproduce every per-block cycle count."""
    rows = []
    for block in BlockId:
        fpath = f"nr5g/block_{block.value.lower()}"
        for (kind, cls), count in tallies.per_block[block].items():
            rows.append(MeasuredRow(function_path=fpath, block=block,
                                    operator=kind, data_type=cls,
                                    shape="", count=count))
    return rows


def _as_prefix(label: str, value: Any) -> str:
    # YAML reads on as True and ~ as None; str() would rewrite the prefix.
    if not isinstance(value, str):
        raise ConfigError(f"{label} {echo(value)} is not a string; quote it")
    return value


def _as_prefixes(label: str, value: Any) -> Tuple[str, ...]:
    return tuple(_as_prefix(f"{label} item", item)
                 for item in as_list(label, value))


def _as_block_map(label: str, value: Any) -> Dict[str, BlockId]:
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(f"{label} must be a mapping")
    block_map: Dict[str, BlockId] = {}
    for prefix, letter in value.items():
        prefix = _as_prefix(f"{label} key", prefix)
        block = isinstance(letter, str) and _BLOCK_BY_NAME.get(letter.strip())
        if not block:
            raise ConfigError(
                f"{label} value {echo(letter)} is not a block A-H")
        block_map[prefix] = block
    return block_map


_FILTER_FIELDS = {"allow": _as_prefixes, "deny": _as_prefixes,
                  "block_map": _as_block_map}


def load_filter_config(path: str | os.PathLike[str],
                       ) -> tuple[PathFilter, Dict[str, BlockId]]:
    """Read a filter config: allow/deny prefix lists plus a block map."""
    fields = read_yaml(path, "filter", record(dict, {}, _FILTER_FIELDS),
                       empty={})
    block_map = fields.pop("block_map", {})
    return PathFilter(**fields), block_map


# ---------------------------------------------------------------------------
# Costing measured rows and comparing against the model


def measured_cycles(report: MeasuredReport,
                    table: InstructionCostTable) -> Dict[BlockId, Fraction]:
    """Per-block measured cycles through the shared cost path, for each
    block the report has a kept row of: zero when those rows count
    nothing, and no entry when it has none.  Unattributed rows are
    excluded here; see :func:`unattributed_cycles`.
    """
    return {block: _cycles_of(report, block, table) for block in BlockId
            if block in report.block_tallies}


def unattributed_cycles(report: MeasuredReport,
                        table: InstructionCostTable) -> Fraction:
    """Cycles from rows that could not be attributed to any block."""
    return _cycles_of(report, None, table)


def _cycles_of(report: MeasuredReport, block: Optional[BlockId],
               table: InstructionCostTable) -> Fraction:
    """One group's cycles: the block's, or the unattributed rows' (None)."""
    tally = report.block_tallies.get(block)
    return cycles_for(tally, table).cycles if tally else Fraction(0)


class BlockComparison(NamedTuple):
    modeled_cycles: Fraction
    measured_cycles: Optional[Fraction]
    ratio: Optional[Fraction]                # modeled / measured
    signed_relative_error: Optional[float]   # (modeled - measured) / measured
    flag: str                                # over | under | match | undefined


class ComparisonReport(NamedTuple):
    per_block: Mapping[BlockId, BlockComparison]
    total: BlockComparison
    unattributed_cycles: Fraction = Fraction(0)

    @property
    def overestimated(self) -> Tuple[BlockId, ...]:
        return tuple(b for b in BlockId if self.per_block[b].flag == "over")

    @property
    def underestimated(self) -> Tuple[BlockId, ...]:
        return tuple(b for b in BlockId if self.per_block[b].flag == "under")


def _check_float_range(*values: Fraction) -> None:
    """DomainError unless every value fits a float.  Reports print cycle
    counts and ratios as exact decimals or through floats, and a relative
    error is a float: its ratio minus one, which fits when the ratio does."""
    if max(values) > sys.float_info.max:
        raise DomainError("measured cycles, or a modeled/measured ratio, too "
                          "large for a float")


def _compare_pair(modeled: Fraction,
                  measured: Optional[Fraction]) -> BlockComparison:
    if measured is None or measured == 0:
        return BlockComparison(modeled, measured, None, None, "undefined")
    ratio = modeled / measured
    _check_float_range(measured, ratio)
    flag = "over" if modeled > measured else (
        "under" if modeled < measured else "match")
    return BlockComparison(modeled, measured, ratio, float(ratio - 1), flag)


def compare(modeled: EnergyReport,
            measured: Mapping[BlockId, Fraction],
            unattributed: Fraction = Fraction(0)) -> ComparisonReport:
    """Per-block modeled/measured ratios with over/under flags.

    Blocks missing from ``measured`` (or measured at zero cycles) get
    an undefined ratio rather than an error.  The total compares only
    what was measured: the exact sum of the modeled cycles of the blocks
    in ``measured`` against the sum of their measured cycles (undefined
    when there are none).  A measured or unattributed cycle count, ratio
    or relative error beyond the float range raises DomainError.
    """
    _check_float_range(unattributed)
    per_block = {block: _compare_pair(modeled.per_block[block].cycles,
                                      measured.get(block))
                 for block in BlockId}
    present = [b for b in BlockId if measured.get(b) is not None]
    total = _compare_pair(sum([modeled.per_block[b].cycles for b in present],
                              Fraction(0)),
                          sum([measured[b] for b in present])
                          if present else None)
    return ComparisonReport(per_block=per_block, total=total,
                            unattributed_cycles=unattributed)
