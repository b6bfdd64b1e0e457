"""Files: the path, text, YAML, CSV and cell rules every loader shares.

Every file the package reads comes in through :func:`read_text`, the
bundled cost table included, and every file it writes goes out through
:func:`write_text`, as UTF-8 whatever the locale.  Each opens a path, and
messages and a report's ``source`` show it, as :func:`path_text` gives it.
YAML files (scenarios, legacy parameters, filter configs) are read by
:func:`read_yaml` through a converter, and any ConfigError names the file.
PyYAML is imported by the first such read, not with this module, so a
session that reads no YAML file does not load it.  A file nested deeper
than :data:`YAML_DEPTH` is refused before it is composed.
Mappings are checked by :func:`read_fields`, which hands each value to a
converter such as :func:`as_int`; :func:`record` makes the converter that
builds a record from a mapping.
CSV files (cost tables, measurement reports) are split by
:func:`read_csv_columns`, a chunk of columns at a time, or by
:func:`read_csv_rows`, a row at a time, and their cells are read by
:func:`name_cell` and :func:`count_cell`.  :func:`read_text` drops one
leading byte order mark (U+FEFF), so a CSV file saved with one reads like
the same file without it, and reads with universal newlines, so a file's
``\\r\\n`` and lone ``\\r`` line ends arrive as ``\\n``.

:func:`read_csv_columns` cuts the text after the header line into chunks
of about :data:`CHUNK_CHARS` characters.  A plain chunk (ASCII, with no
quote, ``#``, NUL or whitespace but ``\\n``, the header's comma count on
every line, and no longer than the csv field limit) is split into one
list per column by a few whole-chunk splits; every line of any other
chunk goes through :mod:`csv` on its own.  Either way the cells are those
of csv over each line, and the memory a parse holds beyond the text and
what its caller keeps does not grow with the file.

Two rules hold for every message about input.  Integer text past
Python's int/str digit limit is reported by its length
(:func:`reject_long_digits`, or :func:`reject_long_parts` for text made
of several integers), and a message shows a cell, value or key through
:func:`echo`, which reports text longer than :data:`ECHO_LIMIT` by its
length.  Which keys, columns and names a format accepts is up to the
module that defines the format.
"""

from __future__ import annotations

import csv
import math
import os
from collections.abc import Hashable
from itertools import repeat
from typing import (TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence,
                    TypeVar)

from .errors import ConfigError, PhyEnergyError

if TYPE_CHECKING:
    import yaml

# Longest repr a message echoes; a longer value is shown by its length.
ECHO_LIMIT = 60


def echo(value: Any, bare: bool = False) -> str:
    """How a message shows an input cell or value: its repr, or the string
    itself when ``bare`` (as keys print); or, when that is longer than
    :data:`ECHO_LIMIT`, its length (the repr's, for a non-string value).
    A container, whose repr YAML aliases can make exponentially long, shows
    as ``<list of 10 items>``; a long string's repr is not built either."""
    if isinstance(value, (dict, list, set, tuple)):
        return f"<{type(value).__name__} of {len(value)} items>"
    long = isinstance(value, str) and len(value) > ECHO_LIMIT
    text = value if bare or long else repr(value)
    if len(text) <= ECHO_LIMIT:
        return text
    length = len(value) if isinstance(value, str) else len(text)
    return f"<{length} characters>"


def reject_long_digits(text: str, label: str,
                       error: type[PhyEnergyError]) -> None:
    """Called by every reader of integer text when int() refuses it: raise
    ``error``, without echoing the digits, when ``text`` is a decimal integer
    past Python's int/str digit limit (4300 digits by default)."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits.isdecimal():
        raise error(f"{label} has too many digits ({len(text)})") from None


def reject_long_parts(parts: Sequence[str], label: str,
                      error: type[PhyEnergyError]) -> None:
    """The digit rule for text made of several integers, such as a fraction:
    :func:`reject_long_digits` for each of ``parts`` that int() refuses."""
    for part in parts:
        try:
            int(part)
        except ValueError:
            reject_long_digits(part, label, error)


# ---------------------------------------------------------------------------
# Text and YAML files.  The YAML loader types only nulls and booleans, so
# every number reaches its field's converter as text.


def path_text(path: str | os.PathLike[str]) -> str:
    """The path a file is opened by and shown as: ``os.path.normpath``, so
    ``t.csv/`` is ``t.csv``, and ``a/../b`` is ``b`` by the text alone."""
    return os.path.normpath(path)


def read_text(path: str | os.PathLike[str], what: str,
              error: type[PhyEnergyError]) -> str:
    """UTF-8 text of a regular file without one leading byte order mark; a
    missing path, a directory or bytes that do not decode raise error."""
    path = path_text(path)
    if not os.path.isfile(path):
        state = "is not a file" if os.path.exists(path) else "not found"
        raise error(f"{what} {state}: {path}")
    try:
        with open(path, encoding="utf-8") as file:
            return file.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not text: {path}: {exc}") from None


def write_text(path: str | os.PathLike[str], text: str) -> None:
    with open(path_text(path), "w", encoding="utf-8") as file:
        file.write(text)


class _UniqueKeys:
    """Mixed into a PyYAML loader: a key repeated in one mapping raises
    ConfigError, without the path, which :func:`read_yaml` adds.  A key that
    a ``<<`` merge brings in may be overridden by the mapping's own."""

    # Runs on each mapping before it is built, and on a merged one before
    # it is merged in: only the first run sees the mapping's own keys alone.
    def flatten_mapping(self, node: yaml.MappingNode) -> None:
        if not hasattr(node, "unique"):
            node.unique, seen = True, {}
            for key_node, _ in node.value:
                if key_node.tag != "tag:yaml.org,2002:merge":
                    key = self.construct_object(key_node)
                    if isinstance(key, Hashable) and seen.setdefault(
                            key, key_node) is not key_node:
                        raise ConfigError(f"duplicate key {echo(key)} (line "
                                          f"{key_node.start_mark.line + 1})")
        super().flatten_mapping(node)


def _yaml_loader(base: type) -> type:
    """The loader :func:`read_yaml` parses with, on PyYAML's safe loader
    ``base``: unique keys, and implicit types only for nulls, booleans and
    the ``<<`` merge key, so that every unquoted number, date or YAML 1.1
    form (010, 0x1F, 1:30.5, .inf) reaches a converter as text."""
    kept = ("tag:yaml.org,2002:null", "tag:yaml.org,2002:bool",
            "tag:yaml.org,2002:merge")
    return type("Loader", (_UniqueKeys, base), {"yaml_implicit_resolvers": {
        first: [(tag, regexp) for tag, regexp in resolvers if tag in kept]
        for first, resolvers in base.yaml_implicit_resolvers.items()}})


# The loader read_yaml parses with, built on its first call, so that a
# session which reads no YAML loads no PyYAML: libyaml's parser when PyYAML
# was built with it, else the pure-Python one; both construct the same safe
# types.
_YAML_LOADER: type | None = None

# The deepest nesting of mappings and sequences a YAML file may have; the
# package's own files nest at most 3 levels.  Both composers recurse once
# per level, libyaml's on the C stack, so a deeper file is refused before
# it is composed.
YAML_DEPTH = 32


# Called as ``conv(label, value)``; ``label`` is the field's <context>.<key>.
Converter = Callable[[str, Any], Any]


def read_yaml(path: str | os.PathLike[str], what: str, convert: Converter,
              empty: Any = None) -> Any:
    """``convert(what, value)`` of a YAML file's value, or of ``empty`` for
    an empty file (an error when None); any ConfigError names the file."""
    global _YAML_LOADER
    import yaml
    if _YAML_LOADER is None:
        _YAML_LOADER = _yaml_loader(getattr(yaml, "CSafeLoader",
                                            yaml.SafeLoader))
    path = path_text(path)
    text = read_text(path, f"{what} file", ConfigError)
    try:
        try:
            # Parse events come without recursion, and the walk stops at
            # the first one past the cap.
            depth = 0
            for event in yaml.parse(text, Loader=_YAML_LOADER):
                if isinstance(event, yaml.CollectionStartEvent):
                    depth += 1
                    if depth > YAML_DEPTH:
                        raise ConfigError(
                            f"nested deeper than {YAML_DEPTH} levels (line "
                            f"{event.start_mark.line + 1})")
                elif isinstance(event, yaml.CollectionEndEvent):
                    depth -= 1
            value = yaml.load(text, Loader=_YAML_LOADER)
        # ValueError: a tagged scalar the safe constructors reject, such as
        # !!int past Python's digit limit or !!timestamp 2001-13-45.
        except (yaml.YAMLError, ValueError) as exc:
            raise ConfigError(f"malformed config: {exc}") from None
        if value is None and empty is None:
            raise ConfigError(f"empty {what} file")
        return convert(what, empty if value is None else value)
    except ConfigError as exc:  # a repeated key, or any error above
        raise ConfigError(f"{path}: {exc}") from None


def read_fields(mapping: Any, context: str, required: Mapping[str, Converter],
                optional: Mapping[str, Converter]) -> dict[str, Any]:
    """Convert the ``required`` keys and any present ``optional`` keys of a
    mapping read under ``context``; other keys are rejected.  Every YAML
    mapping the package reads goes through here."""
    if not isinstance(mapping, Mapping):
        raise ConfigError(f"{context}: expected a key/value mapping")
    # YAML keys need not be strings: "on: 2" has the boolean key True.
    unknown = sorted(map(str, set(mapping) - set(required) - set(optional)))
    if unknown:
        raise ConfigError(f"unknown {context} keys: " + ", ".join(
            echo(key, bare=True) for key in unknown))
    missing = sorted(set(required) - set(mapping))
    if missing:
        raise ConfigError(f"missing {context} keys: " + ", ".join(missing))
    return {key: conv(f"{context}.{key}", mapping[key])
            for fields in (required, optional)
            for key, conv in fields.items() if key in mapping}


def record(cls: Callable, required: Mapping[str, Converter],
           optional: Mapping[str, Converter],
           context: str | None = None) -> Converter:
    """Converter building ``cls`` from a mapping read under ``context``, or
    under the label it is called with when there is none."""
    return lambda label, mapping: cls(**read_fields(
        mapping, context or label, required, optional))


def as_int(label: str, value: Any) -> int:
    if isinstance(value, bool):
        raise ConfigError(f"{label}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        text = value.strip()
        try:
            return int(text)
        except ValueError:
            reject_long_digits(text, label, ConfigError)
    raise ConfigError(f"{label}: expected an integer, got {echo(value)}")


def as_float(label: str, value: Any) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"{label}: expected a number, got a boolean")
    try:
        number = float(value) if isinstance(value, (int, float, str)) else None
    except ValueError:
        number = None
    except OverflowError:       # an integer beyond the float range
        number = math.inf
    if number is None:
        raise ConfigError(f"{label}: expected a number, got {echo(value)}")
    if not math.isfinite(number):
        raise ConfigError(f"{label} must be finite")
    return number


def as_list(label: str, value: Any) -> Sequence[Any]:
    """A YAML list; an empty value is an empty list."""
    if value is None:
        return ()
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise ConfigError(f"{label} must be a list")
    return value


# read_csv_columns cuts the text after the header line into chunks of
# this many characters, each running on to just past the next "\n".
CHUNK_CHARS = 1 << 14

# Characters no plain chunk holds: the quote, the comment mark, NUL (which
# csv rejects before Python 3.11), and every ASCII space and line break but
# "\n", so that no cell of a plain chunk needs stripping.  Only a string
# passed in holds "\r": read_text gives a file's line ends as "\n".
_NOT_PLAIN = '"#\0\t\r\v\f\x1c\x1d\x1e\x1f '


def _chunks(text: str, start: int = 0) -> Iterator[str]:
    r"""``text[start:]`` in pieces of about :data:`CHUNK_CHARS` characters.
    Each piece but the last ends in ``\n``, which ends every line break it
    can end (``\r\n`` is the only two-character one), so the lines of the
    pieces are the lines of the text for any cut."""
    end = len(text)
    while start < end:
        cut = text.find("\n", start + CHUNK_CHARS) + 1 or end
        yield text[start:cut]
        start = cut


def _line_cells(raw: str, source: str, lineno: int,
                error: type[PhyEnergyError]) -> list[str] | None:
    """The stripped cells :mod:`csv` reads from a line, or None when the
    line is blank or a ``#`` comment."""
    line = raw.strip()
    if not line or line.startswith("#"):
        return None
    try:
        return list(map(str.strip, next(csv.reader((line,)))))
    except csv.Error as exc:
        raise error(f"{source}:{lineno}: {exc}") from None


def _plain_columns(chunk: str, width: int,
                   limit: int) -> list[list[str]] | None:
    """The columns of a plain chunk, or None when the chunk is not plain:
    ASCII, no character of :data:`_NOT_PLAIN`, no blank line, ``width - 1``
    commas on every line, and no longer than the csv field limit.  Split on
    commas, such a chunk gives the cells csv would, already stripped."""
    if (len(chunk) > limit or not chunk.isascii()
            or any(char in chunk for char in _NOT_PLAIN)):
        return None
    lines = chunk.split("\n")
    if not lines[-1]:
        lines.pop()             # the chunk's final "\n"
    if "" in lines or set(map(str.count, lines,
                              repeat(","))) != {width - 1}:
        return None
    cells = ",".join(lines).split(",")
    return [cells[column::width] for column in range(width)]


def read_csv_columns(text: str, source: str, header: Sequence[str],
                     what: str, error: type[PhyEnergyError],
                     ) -> Iterator[tuple[Sequence[int], list[list[str]]]]:
    """Yield ``(linenos, columns)`` for each chunk of the data rows of CSV
    text (see the module docstring): one list of stripped cells per column
    of ``header``, and each row's line number, by which a caller reports a
    problem in the row as ``<source>:<lineno>: ...``.

    Lines are those of ``text.splitlines()``.  Blank lines and ``#``
    comments are skipped, and the first remaining line must be ``header``.
    A line read through csv is read on its own, so an unterminated quote
    cannot swallow the lines after it.  Problems, csv's own errors
    included, raise ``error`` as ``<source>:<lineno>: ...`` once the rows
    before them are yielded; ``what`` names the file kind in the
    empty-file error.
    """
    header = list(header)
    offset = 0
    lines = (line for chunk in _chunks(text)
             for line in chunk.splitlines(keepends=True))
    for lineno, raw in enumerate(lines, start=1):
        offset += len(raw)
        cells = _line_cells(raw, source, lineno, error)
        if cells is not None:
            break
    else:
        raise error(f"{source}: empty {what}")
    if cells != header:
        raise error(f"{source}:{lineno}: header must be " + ",".join(header))

    width, limit = len(header), csv.field_size_limit()
    for chunk in _chunks(text, offset):
        first = lineno + 1
        columns = _plain_columns(chunk, width, limit)
        if columns is not None:
            lineno += len(columns[0])
            yield range(first, lineno + 1), columns
            continue
        linenos, rows = [], []
        try:
            for lineno, raw in enumerate(chunk.splitlines(), start=first):
                cells = _line_cells(raw, source, lineno, error)
                if cells is None:
                    continue
                if len(cells) != width:
                    raise error(f"{source}:{lineno}: expected {width} "
                                f"columns, got {len(cells)}")
                linenos.append(lineno)
                rows.append(cells)
        except error:
            if rows:        # the rows before a bad line are read first
                yield linenos, list(map(list, zip(*rows)))
            raise
        if rows:
            yield linenos, list(map(list, zip(*rows)))


def read_csv_rows(text: str, source: str, header: Sequence[str], what: str,
                  error: type[PhyEnergyError],
                  ) -> Iterator[tuple[int, list[str]]]:
    """:func:`read_csv_columns` a row at a time: ``(lineno, cells)``."""
    for linenos, columns in read_csv_columns(text, source, header, what,
                                             error):
        yield from zip(linenos, map(list, zip(*columns)))


Member = TypeVar("Member")


def name_cell(text: str, names: Mapping[str, Member], column: str, where: str,
              error: type[PhyEnergyError]) -> Member:
    """The member that ``names`` (an enum's members by value) gives a cell."""
    member = names.get(text)
    if member is None:
        raise error(f"{where}: unknown {column} {echo(text)}")
    return member


def count_cell(text: str, column: str, where: str,
               error: type[PhyEnergyError]) -> int:
    """A cell that holds a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        reject_long_digits(text, f"{where}: {column}", error)
        raise error(f"{where}: {column} must be an integer, got {echo(text)}"
                    ) from None
    if value < 0:
        raise error(f"{where}: {column} must be >= 0")
    return value
