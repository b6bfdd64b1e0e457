"""Downlink scenario configuration and derived air-interface parameters.

A :class:`Scenario` captures the user-facing knobs of one downlink run
(grid size, modulation, coding rate, antenna counts, clock, ...).
:func:`derive` expands it into the quantities the counting formulas
need: resource elements, transport block size, code block segmentation,
LDPC lifting size and so on.  Sizing conventions (lifting-size set,
code block limits, base graph selection thresholds) follow 3GPP
TS 38.212; the transport block size uses a deliberately simplified
byte-aligned capacity rule rather than the full TS 38.214 procedure.

This module is the model and its loader: everything here is a pure
value computation except :func:`load_scenario` and the field tables at
the end of the module.  How a file is read, how each value is checked
and how a mapping becomes a :class:`Scenario` or :class:`DecodeConfig`
are :mod:`~phyenergy.readers`' rules.
"""

from __future__ import annotations

import enum
import math
import os
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Mapping, NamedTuple, Optional

from .errors import ConfigError
from .readers import (as_float, as_int, echo, read_yaml, record,
                      reject_long_parts)

# OFDM symbols per slot, normal cyclic prefix (TS 38.211).
SYMBOLS_PER_SLOT = 14

# Subcarriers per physical resource block (TS 38.211).
SC_PER_PRB = 12

# Largest carrier in resource blocks (TS 38.211 clause 4.4.2).
MAX_PRB = 275

SUPPORTED_SCS_KHZ = (15, 30, 60, 120)

# LDPC lifting sizes Z = a * 2^j, a in {2,3,5,7,9,11,13,15}, Z <= 384
# (TS 38.212 Table 5.3.2-1).
LIFTING_SIZES = tuple(sorted(
    a * (1 << j)
    for a in (2, 3, 5, 7, 9, 11, 13, 15)
    for j in range(8)
    if a * (1 << j) <= 384
))

# Max code block payload per base graph (TS 38.212 clause 5.2.2).
MAX_CB_BITS = {1: 8448, 2: 3840}

TB_CRC_BITS = 24   # fixed-width CRC prefix used for both TB and CB


class Modulation(enum.Enum):
    """Downlink modulation order."""

    QPSK = 2
    QAM16 = 4
    QAM64 = 6
    QAM256 = 8

    @property
    def bits_per_symbol(self) -> int:
        return self.value


_MODULATION_ALIASES = {
    "QPSK": Modulation.QPSK,
    "QAM16": Modulation.QAM16,
    "16QAM": Modulation.QAM16,
    "QAM64": Modulation.QAM64,
    "64QAM": Modulation.QAM64,
    "QAM256": Modulation.QAM256,
    "256QAM": Modulation.QAM256,
}


def parse_modulation(value: Any) -> Modulation:
    """Accept canonical names (QAM16) and common aliases (16QAM)."""
    if isinstance(value, Modulation):
        return value
    name = str(value).strip().upper()
    try:
        return _MODULATION_ALIASES[name]
    except KeyError:
        valid = ", ".join(sorted(set(_MODULATION_ALIASES)))
        raise ConfigError(f"unknown modulation {echo(value)}; valid: {valid}"
                          ) from None


class DecodeConfig(NamedTuple):
    """Belief-propagation decoder shape assumptions."""

    deg_cn: int = 19      # check-node degree
    deg_vn: int = 3       # variable-node degree
    iterations: int = 8


@dataclass(frozen=True)
class Scenario:
    """One downlink transmission configuration: the package's one
    dataclass, as its variants are made with ``dataclasses.replace``."""

    n_slots: int                    # slots simulated
    snr_db: float                   # recorded for reporting only
    scs_khz: int                    # subcarrier spacing
    n_prb: int                      # resource blocks in the grid
    modulation: Modulation
    code_rate: int                  # numerator of rate/1024
    n_tx: int                       # transmit antennas
    n_rx: int                       # receive antennas
    n_layers: int                   # spatial layers v
    n_ports: int                    # antenna ports fed by precoding
    clock_hz: float = 2.1e9
    kappa: float = 1.0e-25          # J*s^2, energy-per-cycle scale
    channel_len: int = 8            # channel taps assumed by estimation
    pilot_sc_per_prb: int = 6       # pilot subcarriers per PRB
    pilot_symbols_per_slot: int = 1
    tbs_override: Optional[int] = None       # force transport block bits
    rx_fft_antennas: Optional[int] = None    # receive-FFT antenna count
    decode: DecodeConfig = DecodeConfig()


class DerivedParams(NamedTuple):
    """Air-interface quantities expanded from a Scenario."""

    qm: int             # bits per modulation symbol
    n_f: int            # occupied subcarriers
    g: int              # OFDM symbols per slot
    n_fft: int          # transform size
    k_p: int            # pilot subcarriers per pilot symbol
    n_re: int           # data resource elements per slot
    n_symbols: int      # modulation symbols per codeword
    m_cw: int           # codeword bits
    m_symb_layer: int   # modulation symbols per layer
    a: int              # transport block bits
    bg: int             # base graph id (1 or 2)
    c: int              # code blocks
    b: int              # TB bits plus per-CB CRC bits
    z: int              # lifting size
    k: int              # information bits per code block
    n_ccb: int          # coded bits per code block


class BaseGraphSpec(NamedTuple):
    """Shape summary of a standard LDPC base graph."""

    bg: int
    rows: int
    cols: int
    n1: int             # non-null entries
    info_cols: int


# The two standard base graphs (TS 38.212 Tables 5.3.2-2 and 5.3.2-3).
# Counting uses only these shape figures, never the shift coefficients.
BASE_GRAPHS = {
    1: BaseGraphSpec(1, 46, 68, 316, 22),
    2: BaseGraphSpec(2, 42, 52, 197, 10),
}


def base_graph_id(a_bits: int, code_rate_num: int) -> int:
    """Base graph selection rule (TS 38.212 clause 7.2.2).

    Graph 2 serves short blocks and low rates; graph 1 everything else.
    Rate comparisons are exact: rate <= 2/3 iff 3*num <= 2*1024.
    """
    if a_bits <= 292:
        return 2
    if a_bits <= 3824 and 3 * code_rate_num <= 2 * 1024:
        return 2
    if 4 * code_rate_num <= 1024:
        return 2
    return 1


def _fft_size(n_f: int) -> int:
    # Smallest power of two strictly above the occupied bandwidth,
    # never below 128.
    return max(1 << n_f.bit_length(), 128)


# Every integer field, the seven that must be >= 1 first; the last two
# are optional and may be None.
_INT_FIELDS = ("n_slots", "n_prb", "n_tx", "n_rx", "n_layers", "n_ports",
               "channel_len", "scs_khz", "code_rate", "pilot_sc_per_prb",
               "pilot_symbols_per_slot", "decode.deg_cn", "decode.deg_vn",
               "decode.iterations", "tbs_override", "rx_fft_antennas")
_int_fields_of = attrgetter(*_INT_FIELDS)
_INT_OR_NONE = frozenset((int, type(None)))


def is_int(value: object) -> bool:
    """Whether ``value`` is an integer the counters trust: an ``int``, or
    an ``int`` subclass other than ``bool``."""
    return type(value) is int or (isinstance(value, int)
                                  and not isinstance(value, bool))


def validate(s: Scenario) -> list[str]:
    """Return a list of violated configuration rules (empty when valid).

    Integer fields that hold no ``int`` (or a bool) are reported alone,
    before any range rule: the counters trust every integer to be one."""
    values = _int_fields_of(s)
    # The usual scenario (every field an exact int, None only in the two
    # optional ones) passes in one pass over the types, where sixteen
    # is_int steps took about 0.5 us of each of derive's two validations
    # per sweep-grid operation.  Any other scenario, an int subclass
    # included, is judged field by field.
    if not (_INT_OR_NONE.issuperset(map(type, values))
            and None not in values[:-2]):
        problems = [f"{name} must be an integer"
                    for name, value in zip(_INT_FIELDS, values)
                    if not is_int(value)
                    and not (value is None and name in _INT_FIELDS[-2:])]
        if problems:
            return problems

    problems = [f"{name} must be >= 1"
                for name, value in zip(_INT_FIELDS[:7], values) if value < 1]
    if s.n_prb > MAX_PRB:
        problems.append(f"n_prb must be <= {MAX_PRB}")

    if s.scs_khz not in SUPPORTED_SCS_KHZ:
        problems.append("scs_khz not one of 15, 30, 60, 120")
    if not 1 <= s.code_rate <= 1023:
        problems.append("code_rate out of range (numerator must be in 1..1023)")
    if s.n_layers > min(s.n_tx, s.n_rx):
        problems.append("n_layers exceeds min(n_tx,n_rx)")
    if s.n_ports < s.n_layers:
        problems.append("n_ports must be >= n_layers")
    for name in ("snr_db", "clock_hz", "kappa"):
        if not math.isfinite(getattr(s, name)):
            problems.append(f"{name} must be finite")
    if s.clock_hz <= 0:
        problems.append("clock_hz must be positive")
    if s.kappa <= 0:
        problems.append("kappa must be positive")
    if not 1 <= s.pilot_sc_per_prb <= SC_PER_PRB:
        problems.append("pilot_sc_per_prb must be in 1..12")
    if not 0 <= s.pilot_symbols_per_slot < SYMBOLS_PER_SLOT:
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


def derive(s: Scenario) -> DerivedParams:
    """Expand a valid scenario into counting-formula inputs.

    Every layer is mapped onto one codeword, so ``n_symbols`` and ``m_cw``
    grow linearly with ``n_layers`` while ``m_symb_layer`` stays
    ``n_re``.  TS 38.211 splits 5-8 layers over two codewords; the model
    keeps one codeword for any layer count, as a modelling choice.

    Raises ConfigError when the scenario fails :func:`validate` or the
    pilot configuration leaves no data resource elements.
    """
    problems = validate(s)
    if problems:
        raise ConfigError("; ".join(problems))

    qm = s.modulation.bits_per_symbol
    v = s.n_layers
    n_f = SC_PER_PRB * s.n_prb
    g = SYMBOLS_PER_SLOT
    n_fft = _fft_size(n_f)
    k_p = s.pilot_sc_per_prb * s.n_prb
    n_re = n_f * g - k_p * s.pilot_symbols_per_slot
    if n_re <= 0:
        raise ConfigError("pilot configuration leaves no data resource elements")

    n_symbols = n_re * v            # single codeword carries every layer
    m_cw = n_symbols * qm
    m_symb_layer = n_re

    if s.tbs_override is not None:
        a = s.tbs_override
    else:
        # Largest byte-aligned payload not exceeding the raw bit capacity
        # n_re * qm * v * rate.
        a = 8 * (n_re * qm * v * s.code_rate // (1024 * 8))

    bg = base_graph_id(a, s.code_rate)
    k_cb = MAX_CB_BITS[bg]
    if a + TB_CRC_BITS <= k_cb:
        c = 1
    else:
        c = -((a + TB_CRC_BITS) // -(k_cb - TB_CRC_BITS))
    b = a + TB_CRC_BITS * c

    info_cols = BASE_GRAPHS[bg].info_cols
    # Smallest lifting size with info_cols * z * c >= b, kept in integers.
    index = bisect_left(LIFTING_SIZES, -(-b // (info_cols * c)))
    if index == len(LIFTING_SIZES):
        raise ConfigError(
            f"no lifting size fits {b} bits in {c} code blocks on graph {bg}")
    z = LIFTING_SIZES[index]
    k = info_cols * z
    # Coded length: every column but the two punctured systematic ones.
    n_ccb = (BASE_GRAPHS[bg].cols - 2) * z

    # In field order: keyword arguments would cost a microsecond here.
    return DerivedParams(qm, n_f, g, n_fft, k_p, n_re, n_symbols, m_cw,
                         m_symb_layer, a, bg, c, b, z, k, n_ccb)


def select_base_graph(a_bits: int, code_rate_num: int) -> BaseGraphSpec:
    """Pick the base graph for a payload and return its shape."""
    return BASE_GRAPHS[base_graph_id(a_bits, code_rate_num)]


# ---------------------------------------------------------------------------
# Scenario file loading (the shared rules are in :mod:`~phyenergy.readers`).


def _as_rate(label: str, value: Any) -> int:
    """Code rate as the numerator of n/1024; accepts 490 or '490/1024'."""
    if isinstance(value, str) and "/" in value:
        num, _, den = value.strip().partition("/")
        try:
            numerator, denominator = int(num), int(den)
        except ValueError:
            reject_long_parts((num.strip(), den.strip()), label, ConfigError)
            raise ConfigError(f"{label}: malformed rate {echo(value)}"
                              ) from None
        if denominator != 1024:
            raise ConfigError(f"{label}: rate denominator must be 1024")
        return numerator
    return as_int(label, value)


# The decode section is read under the context ``decode``.
_as_decode = record(DecodeConfig, {}, {"deg_cn": as_int, "deg_vn": as_int,
                                       "iterations": as_int}, "decode")


_REQUIRED_FIELDS = {
    "n_slots": as_int,
    "snr_db": as_float,
    "scs_khz": as_int,
    "n_prb": as_int,
    "modulation": lambda label, v: parse_modulation(v),
    "code_rate": _as_rate,
    "n_tx": as_int,
    "n_rx": as_int,
    "n_layers": as_int,
    "n_ports": as_int,
}

_OPTIONAL_FIELDS = {
    "clock_hz": as_float,
    "kappa": as_float,
    "channel_len": as_int,
    "pilot_sc_per_prb": as_int,
    "pilot_symbols_per_slot": as_int,
    "tbs_override": as_int,
    "rx_fft_antennas": as_int,
    "decode": _as_decode,
}


_as_scenario = record(Scenario, _REQUIRED_FIELDS, _OPTIONAL_FIELDS)


def scenario_from_mapping(mapping: Mapping[str, Any]) -> Scenario:
    """Build a Scenario from a parsed config mapping, rejecting unknown keys."""
    return _as_scenario("scenario", mapping)


def load_scenario(path: str | os.PathLike[str]) -> Scenario:
    """Read a scenario config file (YAML mapping)."""
    return read_yaml(path, "scenario", _as_scenario)
