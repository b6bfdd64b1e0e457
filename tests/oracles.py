"""Independent counting oracles used to cross-check the closed forms.

Everything here counts by *simulating the loop structure* of the
algorithm in question, never by evaluating a formula, so agreement
with the package's closed-form counts is meaningful.

The ingest oracles keep the plain loops that the indexed attribution, the
tuple-based path filter, the comma split, the chunked line split, the
column-at-a-time cell checks and the parse's per-block grouping replaced.
The renderers build an estimate's, a sweep's and a comparison's blocks a
row at a time, as the package did before its ``%`` templates, and the
scenario and derived sections a field at a time from the records' own
fields; they print exact values through :func:`fmt_exact`, a Fraction-based
formatter, and import nothing from the package's ``cli``.
:func:`validate_rules` checks a scenario's range rules one ``if`` at a
time, as ``validate`` did before its one tuple of flags.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from collections import Counter
from fractions import Fraction

from phyenergy.errors import ConfigError, MeasurementError
from phyenergy.ingest import MeasuredReport, MeasuredRow, MeasurementMeta
from phyenergy.opcount import BlockId, DataClass, OperationTally, OpKind
from phyenergy.readers import count_cell, name_cell
from phyenergy.scenario import energy_per_cycle


def schoolbook_product_ops(m: int, k: int, n: int) -> tuple[int, int]:
    """(muls, adds) for a dense (m x k) @ (k x n) product, triple loop."""
    muls = adds = 0
    for _ in range(m):
        for _ in range(n):
            for t in range(k):
                muls += 1
                if t > 0:
                    adds += 1
    return muls, adds


def gauss_jordan_inverse_ops(n: int) -> int:
    """Multiplicative ops (mul/div) to invert an n x n matrix in place.

    Simulates Jordan elimination over the augmented system: each pivot
    step normalizes one row (n nontrivial entries) and updates the
    other n-1 rows (n entries each).  Additions are not counted.
    """
    ops = 0
    for pivot in range(n):
        for _ in range(n):          # normalize the pivot row
            ops += 1
        for row in range(n):        # eliminate the remaining rows
            if row == pivot:
                continue
            for _ in range(n):
                ops += 1
    return ops


def radix2_fft_ops(n: int) -> int:
    """Real ops of one recursive radix-2 decimation-in-time transform.

    Each butterfly costs 10 real ops: one complex multiply (4 mul +
    2 add) and two complex additions (2 adds each).
    """
    if n < 1 or n & (n - 1):
        raise ValueError(f"{n} is not a power of two")
    if n == 1:
        return 0
    half = n // 2
    return 2 * radix2_fft_ops(half) + 10 * half


def crc_slice_ops(a_bits: int, p: int) -> int:
    """Per-kind op count of the word-sliced CRC loop, by simulation."""
    ops = 0
    remaining = a_bits
    while remaining >= p:
        remaining -= p
        ops += 5
    return ops + 1


def ls_bracket_ops(l: int, n_t: int, g: int, k_p: int) -> int:
    """Total flops of one least-squares solve, stage by stage.

    Gram matrix (u x pilots) @ (pilots x u), Jordan inversion of the
    u x u result, then the pseudo-inverse application
    (u x u) @ (u x pilots).
    """
    u = l * n_t
    pilots = g * k_p
    gram = sum(schoolbook_product_ops(u, pilots, u))
    inv = gauss_jordan_inverse_ops(u)
    apply_ = sum(schoolbook_product_ops(u, u, pilots))
    return gram + inv + apply_


def svd_ops(rows: int, cols: int, rank: int) -> int:
    """Flops of the model's SVD of a rows x cols matrix, stage by stage:
    a multiply and an add for every entry of the matrix in each of the
    ``cols`` reduction steps, then one flop for each of ``rank``
    rotations over ``rank`` entries in each of ``rank`` sweeps."""
    flops = 0
    for _ in range(cols):               # reduction steps
        for _ in range(rows):
            for _ in range(cols):
                flops += 2
    for _ in range(rank):               # diagonalization sweeps
        for _ in range(rank):
            for _ in range(rank):
                flops += 1
    return flops


def block_c_flops(p: int, v: int, m_symb_layer: int) -> int:
    """Block C: for each layer-mapped symbol, the SVD of the p x v channel
    estimate, regularization of its v singular values, the p x v precoder
    (one scaling per entry), then the precoder applied to the v-layer
    symbol vector."""
    flops = 0
    for _ in range(m_symb_layer):
        flops += svd_ops(p, v, rank=v)
        for _ in range(v):              # regularize each singular value
            flops += 1
        for _ in range(p):              # form the precoder
            for _ in range(v):
                flops += 1
        flops += sum(schoolbook_product_ops(p, v, 1))
    return flops


def mmse_flops(n_r: int, n_t: int, n_f: int, g: int) -> int:
    """MMSE equalization: one filter setup (an SVD of the n_r x n_t channel
    whose diagonalization runs over n_r, n_r regularized values and n_r x
    n_t filter entries), then for each of ``n_f`` subcarriers diagonal
    loading (3 flops per transmit stream) and three products:
    (n_t x n_t) @ (n_t x n_r), (n_t x n_r) @ (n_r x n_r) and the filter
    (n_t x n_r) applied to the g received vectors (n_r x g)."""
    flops = svd_ops(n_r, n_t, rank=n_r)
    for _ in range(n_r):                # regularize
        flops += 1
    for _ in range(n_r):                # form the filter
        for _ in range(n_t):
            flops += 1
    for _ in range(n_f):
        for _ in range(n_t):            # diagonal loading
            flops += 3
        flops += sum(schoolbook_product_ops(n_t, n_t, n_r))
        flops += sum(schoolbook_product_ops(n_t, n_r, n_r))
        flops += sum(schoolbook_product_ops(n_t, n_r, g))
    return flops


# Blocks A and H count (kind, data class) pairs.  Their oracles return a
# Counter keyed by the pair's names, e.g. ("XOR", "logical_scalar").


def _crc_pass(ops: Counter, bits: int, check: bool) -> None:
    """One word-sliced CRC pass: AND, XOR and SHIFT each step, plus the
    digest compare when ``check``."""
    steps = crc_slice_ops(bits, 32)
    for kind in ("AND", "XOR", "SHIFT"):
        ops[(kind, "logical_scalar")] += steps
    if check:
        ops[("CMP", "logical_scalar")] += 1


def block_a_ops(a: int, b: int, c: int, k: int, z: int, n1: int, rows: int,
                cols: int, n_ccb: int) -> Counter:
    """Block A, stage by stage: the TB CRC over ``a`` bits, segmentation
    bookkeeping, one CRC pass over the ``b`` bits of all code blocks, then
    a systematic LDPC encoder run on each of the ``c`` code blocks."""
    ops: Counter = Counter()
    _crc_pass(ops, a, check=False)
    for _ in range(9):                  # segmentation arithmetic
        ops[("FLOP", "int_scalar")] += 1
    _crc_pass(ops, b, check=False)
    for _ in range(c):
        for _ in range(k - 2 * z):      # each payload bit checked as 0 or 1
            ops[("CMP", "int_scalar")] += 2
        for _ in range(rows):           # expand every base-graph entry
            for _ in range(cols):
                ops[("SET", "int_scalar")] += 1
        for _ in range(n1):             # shift coefficient modulo z
            ops[("DIV", "int_scalar")] += 1
        # parity: the (rows*z x cols*z) expanded graph times the bit vector
        muls, adds = schoolbook_product_ops(rows * z, cols * z, 1)
        ops[("MUL", "int_scalar")] += muls
        ops[("ADD", "int_scalar")] += adds
        for _ in range(n_ccb + 2 * z - k):      # write the coded output
            ops[("SET", "int_scalar")] += 1
    return ops


def block_h_ops(a: int, b: int, c: int, n_vn: int, w_cn: int, deg_cn: int,
                deg_vn: int, iters: int) -> Counter:
    """Block H: normalized min-sum decoding of ``c`` code blocks over
    ``n_vn`` variable and ``w_cn`` check nodes, then the CB and TB CRC
    checks."""
    ops: Counter = Counter()
    for _ in range(c):
        for _ in range(n_vn):           # channel LLR: a ratio and its log
            ops[("DIV", "double_scalar")] += 1
            ops[("LOG", "double_scalar")] += 1
        for _ in range(iters):
            for _ in range(w_cn):       # check-node update, per edge
                for _ in range(deg_cn):
                    ops[("MUL", "double_scalar")] += 1
            for _ in range(n_vn):       # variable-node update, per edge
                for _ in range(deg_vn):
                    ops[("ADD", "double_scalar")] += 1
            for _ in range(n_vn):       # decision: edges plus channel LLR
                for _ in range(deg_vn + 1):
                    ops[("ADD", "double_scalar")] += 1
            for _ in range(w_cn):       # parity sign, per check-node edge
                for _ in range(deg_cn):
                    ops[("XOR", "double_scalar")] += 1
    _crc_pass(ops, b, check=True)
    _crc_pass(ops, a, check=True)
    return ops


# ---------------------------------------------------------------------------
# Ingest


def longest_prefix_block(path, block_map):
    """The block of the longest key of ``block_map`` that ``path`` starts
    with, trying every key; None when none does."""
    best = None
    best_len = -1
    for prefix, block in block_map.items():
        if path.startswith(prefix) and len(prefix) > best_len:
            best, best_len = block, len(prefix)
    return best


def path_passes(path, allow, deny):
    """The allow/deny rule, one prefix at a time."""
    if allow and not any(path.startswith(p) for p in allow):
        return False
    return not any(path.startswith(p) for p in deny)


def csv_cells(line):
    """The cells the csv module reads from one line."""
    return next(csv.reader((line,)))


def csv_rows(text, source, header, what, error):
    """The data rows of CSV text as ``(lineno, stripped cells)``, one line
    of ``text.splitlines()`` at a time, every line through the csv module;
    the same problems raise ``error`` with the same messages."""
    seen_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            cells = [cell.strip() for cell in csv_cells(line)]
        except csv.Error as exc:
            raise error(f"{source}:{lineno}: {exc}") from None
        if not seen_header:
            if cells != list(header):
                raise error(f"{source}:{lineno}: header must be "
                            + ",".join(header))
            seen_header = True
        elif len(cells) != len(header):
            raise error(f"{source}:{lineno}: expected {len(header)} columns, "
                        f"got {len(cells)}")
        else:
            yield lineno, cells
    if not seen_header:
        raise error(f"{source}: empty {what}")


def block_tallies(rows):
    """Row counts summed per block, unattributed rows under None, in a
    second pass over the kept rows."""
    grouped = {}
    for row in rows:
        counts = grouped.setdefault(row.block, {})
        key = (row.operator, row.data_type)
        counts[key] = counts.get(key, 0) + row.count
    return {blk: OperationTally(counts) for blk, counts in grouped.items()}


_HEADER = ["function_path", "block", "operator", "data_type", "shape", "count"]
_KINDS = {kind.value: kind for kind in OpKind}
_CLASSES = {cls.value: cls for cls in DataClass}
_BLOCKS = {name: blk for blk in BlockId
           for name in (blk.value, blk.value.lower())}


def parse_rows(text, source, allow, deny, block_map):
    """A measurement report parsed a row at a time over :func:`csv_rows`:
    each row's cells checked in column order (operator, data_type, count,
    then a non-empty block), then the path filter, then the longest prefix
    for a row without a block, then the kept counts summed per block."""
    rows = []
    seen = filtered = 0
    for lineno, cells in csv_rows(text, source, _HEADER, "measurement file",
                                  MeasurementError):
        fpath, block_s, op_s, type_s, shape, count_s = cells
        where = f"{source}:{lineno}"
        seen += 1
        operator = name_cell(op_s, _KINDS, "operator", where,
                             MeasurementError)
        data_type = name_cell(type_s, _CLASSES, "data_type", where,
                              MeasurementError)
        count = count_cell(count_s, "count", where, MeasurementError)
        block = (name_cell(block_s, _BLOCKS, "block", where, MeasurementError)
                 if block_s else None)
        if not path_passes(fpath, allow, deny):
            filtered += 1
            continue
        if block is None:
            block = longest_prefix_block(fpath, block_map)
        rows.append(MeasuredRow(fpath, block, operator, data_type, shape,
                                count))
    meta = MeasurementMeta(source, seen, len(rows), filtered,
                           sum(row.block is None for row in rows))
    return MeasuredReport(meta, block_tallies(rows))


# ---------------------------------------------------------------------------
# Report renderers, a row at a time


def fmt_exact(q):
    """The Fraction-based formatter: strip 2s and 5s from the denominator
    one at a time, then print the terminating decimal or six digits."""
    if q.denominator == 1:
        return str(q.numerator)
    den = q.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{float(q):.6g}"
    digits = max(twos, fives)
    sign = "-" if q < 0 else ""
    scaled = abs(q.numerator) * 10 ** digits // abs(q.denominator)
    text = str(scaled).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:].rstrip('0')}"


_COST_KEYS = ("micro_ops", "cycles", "cycles_per_bit", "energy_j",
              "energy_nj_per_bit")
_ROWS = (*zip("ABCDEFGH", ("BS",) * 4 + ("UE",) * 4), ("TOTAL", ""))


def _entries(rep):
    return zip(_ROWS, (*rep.per_block.values(), rep.total))


def _cycle_fields(micro_ops, num, den, bits):
    return [str(micro_ops), fmt_exact(Fraction(num, den)),
            f"{num / (den * bits):.6g}" if bits > 0 else "undefined"]


def _estimate_rows(rep):
    return [[name, side, *_cycle_fields(micro_ops, num, den, bits),
             f"{energy_j:.6g}", "undefined" if nj is None else f"{nj:.6g}"]
            for (name, side), (micro_ops, num, den, bits, energy_j, nj)
            in _entries(rep)]


def _table(header, rows):
    return "\n".join([",".join(header)] + [",".join(row) for row in rows]
                     ) + "\n"


# The DerivedParams fields an estimate does not print, and the key that
# ``bg`` prints under.
_DERIVED_UNSHOWN = {"qm", "g", "m_symb_layer", "b", "n_checks",
                    "rx_antennas"}
_DERIVED_KEYS = {"bg": "base_graph"}


def _scenario_text(s, d):
    """The scenario and derived sections, a field at a time in the order
    of the records' own fields: a ``float`` field to six significant digits,
    the modulation by name, the code rate over 1024, an unset optional
    field not at all, and the decode section nested."""
    lines = ["scenario:"]
    for field in dataclasses.fields(s):
        name, value = field.name, getattr(s, field.name)
        if name == "decode":
            lines.append("  decode:")
            lines += [f"    {key}: {part}"
                      for key, part in zip(value._fields, value)]
        elif name == "code_rate":
            lines.append(f"  code_rate: {value}/1024")
        elif name == "modulation":
            lines.append(f"  modulation: {value.name}")
        elif field.type == "float":
            lines.append(f"  {name}: {value:.6g}")
        elif value is not None:
            lines.append(f"  {name}: {value}")
    lines.append("derived:")
    lines += [f"  {_DERIVED_KEYS.get(name, name)}: {value}"
              for name, value in zip(d._fields, d)
              if name not in _DERIVED_UNSHOWN]
    return "\n".join(lines)


def render_estimate_text(rep):
    """Each block's lines from its row of :func:`_estimate_rows`."""
    e = rep.energy
    lines = [] if rep.scenario is None else [
        _scenario_text(rep.scenario, rep.derived)]
    lines.append(f"""energy:
  kappa_j_s2: {e.kappa:.6g}
  clock_hz: {e.clock_hz:.6g}
  epsilon_j_per_cycle: {rep.epsilon:.6g}
cost_table:
  source: {rep.table_source}
  date: {rep.table_date or "unknown"}
bits_transmitted: {rep.bits_transmitted}
blocks:""")
    *blocks, total = _estimate_rows(rep)
    lines += [f"  {name}:\n    side: {side}\n    micro_ops: {micro_ops}\n"
              f"    cycles: {cycles}\n    cycles_per_bit: {per_bit}\n"
              f"    energy_j: {energy_j}\n    energy_nj_per_bit: {nj}"
              for name, side, micro_ops, cycles, per_bit, energy_j, nj
              in blocks]
    _, _, micro_ops, cycles, per_bit, energy_j, nj = total
    lines.append(f"total:\n  micro_ops: {micro_ops}\n  cycles: {cycles}\n"
                 f"  cycles_per_bit: {per_bit}\n  energy_j: {energy_j}\n"
                 f"  energy_nj_per_bit: {nj}\n")
    return "\n".join(lines)


def render_estimate_table(rep):
    return _table(("block", "side") + _COST_KEYS, _estimate_rows(rep))


def render_sweep_table(param, results):
    return _table(
        (param, "block") + _COST_KEYS[:3],
        [[label, name, *_cycle_fields(*cost[:4])]
         for label, rep in results for (name, _), cost in _entries(rep)])


def render_sweep_text(param, results):
    lines = [f"sweep: {param}"]
    for label, rep in results:
        lines.append(f"{label}:")
        lines += [f"  {name}: cycles={cycles} cycles_per_bit={per_bit}"
                  for (name, _), cost in _entries(rep)
                  for _, cycles, per_bit in [_cycle_fields(*cost[:4])]]
    return "\n".join(lines) + "\n"


_COMPARISON_KEYS = ("modeled_cycles", "measured_cycles", "ratio",
                    "signed_relative_error", "flag")


def _comparison_rows(result):
    """Name and printed fields of each block, by its letter, then of the
    total; an absent value prints as ``undefined``."""
    def opt(value, text):
        return "undefined" if value is None else text(value)
    entries = [(block.value, cmp) for block, cmp in result.per_block.items()]
    return [[name, fmt_exact(cmp.modeled_cycles),
             opt(cmp.measured_cycles, fmt_exact), opt(cmp.ratio, fmt_exact),
             opt(cmp.signed_relative_error, lambda error: f"{error:.6g}"),
             cmp.flag]
            for name, cmp in entries + [("TOTAL", result.total)]]


def render_compare_text(result):
    lines = ["comparison:", "blocks:"]
    *blocks, total = _comparison_rows(result)
    for name, *fields in blocks:
        lines.append(f"  {name}:")
        lines += [f"    {key}: {value}"
                  for key, value in zip(_COMPARISON_KEYS, fields)]
    lines.append("total:")
    lines += [f"  {key}: {value}"
              for key, value in zip(_COMPARISON_KEYS, total[1:])]
    lines.append("unattributed_cycles: "
                 + fmt_exact(result.unattributed_cycles))
    for key, flag in (("overestimated", "over"), ("underestimated", "under")):
        names = [block.value for block, cmp in result.per_block.items()
                 if cmp.flag == flag]
        lines.append(f"{key}: {','.join(names) or 'none'}")
    return "\n".join(lines) + "\n"


def render_compare_table(result):
    return _table(("block",) + _COMPARISON_KEYS, _comparison_rows(result) + [
        ["UNATTRIBUTED", "", fmt_exact(result.unattributed_cycles), "", "",
         ""]])


# ---------------------------------------------------------------------------
# Scenario range rules, one at a time


def validate_rules(s):
    """The range rules ``validate`` applies to a scenario whose fields all
    have the right types, in its order; the energy rule is
    ``energy_per_cycle``'s, with its message."""
    problems = [f"{name} must be >= 1"
                for name in ("n_slots", "n_prb", "n_tx", "n_rx", "n_layers",
                             "n_ports", "channel_len")
                if getattr(s, name) < 1]
    if s.n_prb > 275:
        problems.append("n_prb must be <= 275")
    if s.scs_khz not in (15, 30, 60, 120):
        problems.append("scs_khz not one of 15, 30, 60, 120")
    if not 1 <= s.code_rate <= 1023:
        problems.append("code_rate out of range (numerator must be in 1..1023)")
    if s.n_layers > min(s.n_tx, s.n_rx):
        problems.append("n_layers exceeds min(n_tx,n_rx)")
    if s.n_ports < s.n_layers:
        problems.append("n_ports must be >= n_layers")
    if not math.isfinite(s.snr_db):
        problems.append("snr_db must be finite")
    try:
        energy_per_cycle(s.kappa, s.clock_hz)
    except ConfigError as exc:
        problems.append(str(exc))
    if not 1 <= s.pilot_sc_per_prb <= 12:
        problems.append("pilot_sc_per_prb must be in 1..12")
    if not 0 <= s.pilot_symbols_per_slot < 14:
        problems.append("pilot_symbols_per_slot must be in 0..13")
    if s.tbs_override is not None and s.tbs_override < 0:
        problems.append("tbs_override must be >= 0")
    if s.rx_fft_antennas is not None and s.rx_fft_antennas < 1:
        problems.append("rx_fft_antennas must be >= 1")
    if s.decode.deg_cn < 1:
        problems.append("decode.deg_cn must be >= 1")
    if s.decode.deg_vn < 1:
        problems.append("decode.deg_vn must be >= 1")
    if s.decode.iterations < 0:
        problems.append("decode.iterations must be >= 0")
    return problems
