"""Downlink scenario configuration and derived air-interface parameters.

A :class:`Scenario` captures the user-facing knobs of one downlink run
(grid size, modulation, coding rate, antenna counts, clock, ...).
:func:`derive` expands it into the quantities the counting formulas
need: resource elements, transport block size, code block segmentation,
LDPC lifting size and so on.  Sizing conventions (lifting-size set,
code block limits, base graph selection thresholds) follow 3GPP
TS 38.212; the transport block size uses a deliberately simplified
byte-aligned capacity rule rather than the full TS 38.214 procedure.

:func:`energy_per_cycle` is the one rule for the energy scale
``kappa * clock_hz**2``: :func:`validate` reports its failure, so a
scenario that validates always prices.

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
import sys
from bisect import bisect_left
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Any, NamedTuple, Optional

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
    """Downlink modulation order; a member's value is its bits per symbol."""

    QPSK = 2
    QAM16 = 4
    QAM64 = 6
    QAM256 = 8


# The canonical names (QAM16) and the common aliases (16QAM).
_MODULATION_ALIASES = {**Modulation.__members__, "16QAM": Modulation.QAM16,
                       "64QAM": Modulation.QAM64, "256QAM": Modulation.QAM256}


def parse_modulation(value: Any) -> Modulation:
    """Accept canonical names (QAM16) and common aliases (16QAM)."""
    if isinstance(value, Modulation):
        return value
    name = value.strip().upper() if isinstance(value, str) else None
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
    n_checks: int       # check-node rows per code block: n_ccb - k
    rx_antennas: int    # receive-FFT antennas: rx_fft_antennas, else n_tx


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
_REAL_FIELDS = ("snr_db", "clock_hz", "kappa")
_fields_of = attrgetter(*_INT_FIELDS, *_REAL_FIELDS, "modulation")
# The field types of the usual scenario, in _fields_of's order.
_USUAL_TYPES = frozenset((int,) * 14 + (tbs, rx) + (float,) * 3 + (Modulation,)
                         for tbs in (int, type(None))
                         for rx in (int, type(None)))


def is_int(value: object) -> bool:
    """Whether ``value`` is an integer the counters trust: an ``int``, or
    an ``int`` subclass other than ``bool``."""
    return type(value) is int or (isinstance(value, int)
                                  and not isinstance(value, bool))


def _is_real(value: object) -> bool:
    """Whether ``value`` is a float, or an integer a float can hold."""
    return isinstance(value, float) or (is_int(value) and
                                        abs(value) <= sys.float_info.max)


def _type_problems(s: Scenario) -> list[str]:
    """Each field of ``s`` whose value has the wrong type, in turn."""
    problems = [f"{name} must be a real number" for name in _REAL_FIELDS
                if not _is_real(getattr(s, name))]
    if not isinstance(s.modulation, Modulation):
        problems.append("modulation must be a Modulation")
    if not isinstance(s.decode, DecodeConfig):
        problems.append("decode must be a DecodeConfig")
        s = replace(s, decode=DecodeConfig())    # so its fields can be read
    return problems + [f"{name} must be an integer"
                       for name, value in zip(_INT_FIELDS, _fields_of(s))
                       if not is_int(value)
                       and not (value is None and name in _INT_FIELDS[-2:])]


def energy_per_cycle(kappa: float, clock_hz: float) -> float:
    """Joules per cycle, ``kappa * clock_hz**2``.  ConfigError names the
    first rule broken: each field a real number, then each finite and
    positive, then the product a finite, normal float."""
    # Unrolled: a loop over the two fields doubled the time of a call, and
    # every validation and every report makes one.
    if type(kappa) is not float and not _is_real(kappa):
        raise ConfigError("kappa must be a real number")
    if type(clock_hz) is not float and not _is_real(clock_hz):
        raise ConfigError("clock_hz must be a real number")
    if not math.isfinite(kappa):
        raise ConfigError("kappa must be finite")
    if kappa <= 0:
        raise ConfigError("kappa must be positive")
    if not math.isfinite(clock_hz):
        raise ConfigError("clock_hz must be finite")
    if clock_hz <= 0:
        raise ConfigError("clock_hz must be positive")
    epsilon = float(kappa) * clock_hz * clock_hz     # a float for int fields
    if epsilon == math.inf:
        raise ConfigError("kappa * clock_hz**2 must be finite")
    if epsilon < sys.float_info.min:          # zero or subnormal
        raise ConfigError("kappa * clock_hz**2 must be at least the smallest "
                          f"normal float, {sys.float_info.min:g}")
    return epsilon


# The messages of validate's range rules, in its order and one per flag; the
# energy rule's is empty, as validate lists the one energy_per_cycle raises.
_RANGE_MESSAGES = (*(f"{name} must be >= 1" for name in _INT_FIELDS[:7]),
    f"n_prb must be <= {MAX_PRB}",
    f"scs_khz not one of {', '.join(map(str, SUPPORTED_SCS_KHZ))}",
    "code_rate out of range (numerator must be in 1..1023)",
    "n_layers exceeds min(n_tx,n_rx)", "n_ports must be >= n_layers",
    "snr_db must be finite", "",
    f"pilot_sc_per_prb must be in 1..{SC_PER_PRB}",
    f"pilot_symbols_per_slot must be in 0..{SYMBOLS_PER_SLOT - 1}",
    "tbs_override must be >= 0", "rx_fft_antennas must be >= 1",
    "decode.deg_cn must be >= 1", "decode.deg_vn must be >= 1",
    "decode.iterations must be >= 0")


def validate(s: Scenario) -> list[str]:
    """Return a list of violated configuration rules (empty when valid).

    Fields of the wrong type are reported alone, before any range rule: an
    integer field must hold an ``int``, not a bool (the counters trust it),
    and snr_db, clock_hz and kappa a float or an ``int`` a float can hold."""
    # The usual field types (ints, None only in the two optional ints,
    # floats) pass in one test; any others are judged field by field.
    values = _fields_of(s) if isinstance(s.decode, DecodeConfig) else ()
    if tuple(map(type, values)) not in _USUAL_TYPES:
        problems = _type_problems(s)
        if problems:
            return problems

    (n_slots, n_prb, n_tx, n_rx, n_layers, n_ports, channel_len, scs_khz,
     code_rate, pilot_sc, pilot_symbols, deg_cn, deg_vn, iterations, tbs,
     rx_fft, snr_db, clock_hz, kappa, _) = values
    try:
        energy_per_cycle(kappa, clock_hz)
        energy_problem = ""
    except ConfigError as exc:
        energy_problem = str(exc)
    broken = (n_slots < 1, n_prb < 1, n_tx < 1, n_rx < 1, n_layers < 1,
              n_ports < 1, channel_len < 1, n_prb > MAX_PRB,
              scs_khz not in SUPPORTED_SCS_KHZ, not 1 <= code_rate <= 1023,
              n_layers > n_tx or n_layers > n_rx, n_ports < n_layers,
              not math.isfinite(snr_db), energy_problem != "",
              not 1 <= pilot_sc <= SC_PER_PRB,
              not 0 <= pilot_symbols < SYMBOLS_PER_SLOT,
              tbs is not None and tbs < 0, rx_fft is not None and rx_fft < 1,
              deg_cn < 1, deg_vn < 1, iterations < 0)
    if True not in broken:
        return []
    return [rule or energy_problem
            for rule, flag in zip(_RANGE_MESSAGES, broken) if flag]


def derive(s: Scenario) -> DerivedParams:
    """Expand a valid scenario into counting-formula inputs.

    Every layer is mapped onto one codeword, so ``n_symbols`` and ``m_cw``
    grow linearly with ``n_layers`` while ``m_symb_layer`` stays
    ``n_re``.  TS 38.211 splits 5-8 layers over two codewords; the model
    keeps one codeword for any layer count, as a modelling choice.

    Raises ConfigError with :func:`validate`'s problems, and nothing else:
    under its ranges ``n_re >= SC_PER_PRB * n_prb``, and a code block holds
    under ``MAX_CB_BITS[bg] == info_cols * LIFTING_SIZES[-1]`` bits.
    """
    problems = validate(s)
    if problems:
        raise ConfigError("; ".join(problems))

    qm = s.modulation.value
    v = s.n_layers
    n_f = SC_PER_PRB * s.n_prb
    g = SYMBOLS_PER_SLOT
    n_fft = _fft_size(n_f)
    k_p = s.pilot_sc_per_prb * s.n_prb
    n_re = n_f * g - k_p * s.pilot_symbols_per_slot

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
    z = LIFTING_SIZES[bisect_left(LIFTING_SIZES, -(-b // (info_cols * c)))]
    k = info_cols * z
    # Coded length: every column but the two punctured systematic ones.
    n_ccb = (BASE_GRAPHS[bg].cols - 2) * z

    # Every field in order, as the generated __new__ takes twice as long.
    # rx_fft_antennas is None or >= 1, so ``or`` falls back on None alone.
    return tuple.__new__(DerivedParams, (qm, n_f, g, n_fft, k_p, n_re,
                                         n_symbols, m_cw, m_symb_layer, a,
                                         bg, c, b, z, k, n_ccb, n_ccb - k,
                                         s.rx_fft_antennas or s.n_tx))


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


# One table of converters per record, in the order a file's keys are read.
_DECODE_FIELDS = dict.fromkeys(DecodeConfig._fields, as_int)
_REQUIRED_FIELDS = {
    "n_slots": as_int, "snr_db": as_float, "scs_khz": as_int, "n_prb": as_int,
    "modulation": lambda label, v: parse_modulation(v), "code_rate": _as_rate,
    "n_tx": as_int, "n_rx": as_int, "n_layers": as_int, "n_ports": as_int}
_OPTIONAL_FIELDS = {
    "clock_hz": as_float, "kappa": as_float, "channel_len": as_int,
    "pilot_sc_per_prb": as_int, "pilot_symbols_per_slot": as_int,
    "tbs_override": as_int, "rx_fft_antennas": as_int}

# The decode section is read under the context ``decode``.
_as_decode = record(DecodeConfig, {}, _DECODE_FIELDS, "decode")
_as_scenario = record(Scenario, _REQUIRED_FIELDS,
                      {**_OPTIONAL_FIELDS, "decode": _as_decode})

# The converter of each key :func:`with_field` takes: every scenario key but
# the decode section, then each decode field as ``decode.<field>``.
KEY_CONVERTERS = {**_REQUIRED_FIELDS, **_OPTIONAL_FIELDS, **{
    f"decode.{key}": conv for key, conv in _DECODE_FIELDS.items()}}


def load_scenario(path: str | os.PathLike[str]) -> Scenario:
    """Read a scenario config file (YAML mapping)."""
    return read_yaml(path, "scenario", _as_scenario)


def with_field(s: Scenario, key: str, text: str, label: str) -> Scenario:
    """``s`` with ``key``'s field read from ``text`` under ``label``, as a
    file's quoted value is; :func:`validate` applies the domain rules."""
    value = KEY_CONVERTERS[key](label, text)
    section, _, name = key.rpartition(".")
    if section:
        return replace(s, decode=s.decode._replace(**{name: value}))
    return replace(s, **{key: value})
