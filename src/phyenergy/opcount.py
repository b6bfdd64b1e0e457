"""Arithmetic/logic operation counts for the downlink baseband chain.

The transmitter and receiver are modelled as eight blocks:

======  ====  =====================================================
block   side  processing
======  ====  =====================================================
A       BS    CRC attach, code block segmentation, LDPC encoding
B       BS    scrambling, modulation mapping, layer mapping
C       BS    antenna-port mapping (precoding)
D       BS    OFDM modulation (inverse FFT per symbol and antenna)
E       UE    FFT per symbol and antenna
F       UE    channel estimation (least squares) + MMSE equalization
G       UE    layer demapping, demodulation, descrambling
H       UE    LDPC decoding (normalized min-sum) and CRC checks
======  ====  =====================================================

Every counter returns an :class:`OperationTally`, a multiset of
(operation kind, data class) pairs, stored sparsely by slot: the
number of the pair in :data:`SLOT_KEYS`.  Counts are closed-form in the
scenario's derived parameters; nothing here touches sample data.

Every formula is a private term that returns a raw ``{slot: count}``
dict, and a block is the tuple of its terms; :data:`TERMS` names each
term, in block order, with the blocks it is part of.
:func:`tally_pipeline` merges each tuple once, scaling by ``n_slots`` in
the same pass, and wraps it once, with no key or type check: its integer
inputs come from :func:`~phyenergy.scenario.derive`, whose
:func:`~phyenergy.scenario.validate` has checked once that every integer
field of the scenario is an ``int``.  The checked entries, :func:`count_term`
(one term by name) and ``count_block_a`` to ``count_block_h`` (one block
each, as the benchmark times them), refuse an argument that breaks the
counters' one input rule, :func:`_check_ints` (a non-negative ``int``, not
a bool).  A term keeps only its structural rules (``>= 1``, ``k >= 2z``,
``p >= v``, powers of two), and block H checks the one count it computes,
``n_ccb - k``.  The public :class:`OperationTally` checks keys and counts.

Data classes follow the block split: the bit-oriented stages (block A,
block G, and the scrambling/modulation inputs of block B) count as
integer or logical operands, the signal-processing stages as doubles.
Composite floating-point operations are recorded as FLOP.  A FLOP is
one addition plus one multiplication of its class; :data:`PART_SLOTS`
holds that rule, and both :meth:`OperationTally.total_ops` and the cost
model's compiled tables read it from there.
"""

from __future__ import annotations

import enum
from typing import (Callable, Dict, Iterator, Mapping, NamedTuple, Sequence,
                    Tuple)

from .errors import DomainError
from .scenario import DecodeConfig, DerivedParams, Scenario, BaseGraphSpec
from .scenario import BASE_GRAPHS, derive, is_int


class OpKind(enum.Enum):
    ADD = "ADD"
    MUL = "MUL"
    DIV = "DIV"
    XOR = "XOR"
    AND = "AND"
    SHIFT = "SHIFT"
    CMP = "CMP"
    LOOKUP = "LOOKUP"
    SET = "SET"
    LOG = "LOG"
    FLOP = "FLOP"       # one addition plus one multiplication

    # Members are singletons compared by identity, so the identity hash
    # agrees with equality; Enum's own __hash__ is a Python-level call.
    __hash__ = object.__hash__


class DataClass(enum.Enum):
    LOGICAL_SCALAR = "logical_scalar"
    LOGICAL_VECTOR = "logical_vector"
    INT_SCALAR = "int_scalar"
    INT_VECTOR = "int_vector"
    DOUBLE_SCALAR = "double_scalar"
    DOUBLE_VECTOR = "double_vector"
    STRUCT = "struct"

    __hash__ = object.__hash__


class BlockId(enum.Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E = "E"
    F = "F"
    G = "G"
    H = "H"

    __hash__ = object.__hash__

    @property
    def side(self) -> str:
        """Transmitter (BS) or receiver (UE) half of the chain."""
        return "BS" if self.value in "ABCD" else "UE"


OpKey = Tuple[OpKind, DataClass]

# Every (kind, class) key numbered in declaration order, kind-major: the
# slot order is the order ``OperationTally.items`` reports.
SLOT_KEYS: Tuple[OpKey, ...] = tuple(
    (kind, cls) for kind in OpKind for cls in DataClass)
SLOT_INDEX: Dict[OpKey, int] = {key: i for i, key in enumerate(SLOT_KEYS)}

# The slots each slot's count is made of, ascending: a FLOP is the ADD
# and the MUL of its class, every other slot is itself.
PART_SLOTS: Tuple[Tuple[int, ...], ...] = tuple(
    (SLOT_INDEX[(OpKind.ADD, cls)], SLOT_INDEX[(OpKind.MUL, cls)])
    if kind is OpKind.FLOP else (slot,)
    for slot, (kind, cls) in enumerate(SLOT_KEYS))


def _slots(cls: DataClass, *kinds: OpKind) -> Tuple[int, ...]:
    return tuple(SLOT_INDEX[(kind, cls)] for kind in kinds)


# Slot numbers of the keys the counters fill, named <kind>_<class>.
_AND_LS, _XOR_LS, _SHIFT_LS, _CMP_LS = _slots(
    DataClass.LOGICAL_SCALAR, OpKind.AND, OpKind.XOR, OpKind.SHIFT, OpKind.CMP)
_ADD_IS, _MUL_IS, _DIV_IS, _SHIFT_IS, _CMP_IS, _LOOKUP_IS, _SET_IS, _FLOP_IS = (
    _slots(DataClass.INT_SCALAR, OpKind.ADD, OpKind.MUL, OpKind.DIV,
           OpKind.SHIFT, OpKind.CMP, OpKind.LOOKUP, OpKind.SET, OpKind.FLOP))
_ADD_DS, _MUL_DS, _DIV_DS, _XOR_DS, _LOG_DS, _FLOP_DS = _slots(
    DataClass.DOUBLE_SCALAR, OpKind.ADD, OpKind.MUL, OpKind.DIV, OpKind.XOR,
    OpKind.LOG, OpKind.FLOP)
(_XOR_LV,) = _slots(DataClass.LOGICAL_VECTOR, OpKind.XOR)

# A block as the tuple of its terms' raw {slot: count} dicts.
_Terms = Tuple[Dict[int, int], ...]


class OperationTally:
    """Immutable multiset of (operation kind, data class) counts.

    Merging is commutative and associative with the empty tally as
    identity; scaling by a non-negative integer distributes over it.
    Counts are held by slot (see :data:`SLOT_KEYS`) with zero counts
    dropped, so equal tallies compare equal regardless of construction
    order.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Mapping[OpKey, int] | None = None):
        cleaned: Dict[int, int] = {}
        for key, value in (counts or {}).items():
            try:
                slot = SLOT_INDEX.get(key)
            except TypeError:       # unhashable key from a custom mapping
                slot = None
            if slot is None:
                raise DomainError(f"bad tally key {key!r}")
            _check_ints(**{f"tally count for {key}": value})
            if value:
                cleaned[slot] = value
        self._counts = cleaned

    def get(self, kind: OpKind, cls: DataClass) -> int:
        return self._counts.get(SLOT_INDEX.get((kind, cls)), 0)

    def items(self) -> Iterator[Tuple[OpKey, int]]:
        """Entries in a fixed (kind, class) declaration order."""
        counts = self._counts
        return iter([(SLOT_KEYS[slot], counts[slot]) for slot in sorted(counts)])

    def slot_counts(self) -> Mapping[int, int]:
        """The ``{slot: count}`` mapping itself (slots index
        :data:`SLOT_KEYS`); callers must not mutate it."""
        return self._counts

    def as_dict(self) -> Dict[OpKey, int]:
        return {SLOT_KEYS[slot]: n for slot, n in self._counts.items()}

    def scaled(self, factor: int) -> "OperationTally":
        _check_ints(factor=factor)
        if factor <= 1:
            return self if factor else EMPTY_TALLY
        return _of_slots({slot: n * factor
                          for slot, n in self._counts.items()})

    def total_ops(self, expand_flops: bool = False) -> int:
        """Total operation count; FLOPs count double when expanded."""
        if expand_flops:
            return sum(v * len(PART_SLOTS[slot])
                       for slot, v in self._counts.items())
        return sum(self._counts.values())

    def __add__(self, other: "OperationTally") -> "OperationTally":
        if not isinstance(other, OperationTally):
            return NotImplemented
        return _merge((self._counts, other._counts))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OperationTally):
            return NotImplemented
        return self._counts == other._counts

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __repr__(self) -> str:
        inner = ", ".join(f"{kind.value}/{cls.value}={n}"
                          for (kind, cls), n in self.items())
        return f"OperationTally({inner})"


EMPTY_TALLY = OperationTally()


def _of_slots(counts: Dict[int, int]) -> OperationTally:
    """Wrap a ``{slot: non-negative int}`` dict, zero counts dropped, with
    no key or type check: the caller vouches for both."""
    if 0 in counts.values():
        counts = {slot: n for slot, n in counts.items() if n}
    tally = object.__new__(OperationTally)
    tally._counts = counts
    return tally


def _merge(terms: Sequence[Mapping[int, int]], factor: int = 1,
           ) -> OperationTally:
    """The merge of raw ``{slot: count}`` terms, scaled by ``factor``
    (>= 1), in one pass and wrapped once; one term at factor 1 is wrapped
    as it is."""
    if factor == 1 and len(terms) == 1:
        return _of_slots(terms[0])
    counts: Dict[int, int] = {}
    for term in terms:
        for slot, n in term.items():
            counts[slot] = counts.get(slot, 0) + n * factor
    return _of_slots(counts)


def expand_flops(tally: OperationTally) -> OperationTally:
    """Rewrite each FLOP as one ADD plus one MUL of the same class."""
    counts: Dict[int, int] = {}
    for slot, n in tally.slot_counts().items():
        for part in PART_SLOTS[slot]:
            counts[part] = counts.get(part, 0) + n
    return _of_slots(counts)


def _check_ints(**args: object) -> None:
    """The counters' one input rule: every argument is an ``int``, not a
    bool, and ``>= 0``.  The terms trust every input to keep it."""
    for name, value in args.items():
        if not is_int(value):
            raise DomainError(f"{name} must be an integer")
        if value < 0:
            raise DomainError(f"{name} must be >= 0")


def _ilog2(n: int) -> int:
    if n < 1 or n & (n - 1):
        raise DomainError(f"{n} is not a power of two")
    return n.bit_length() - 1


# ---------------------------------------------------------------------------
# Block A: CRC attach, segmentation, LDPC encoding


def _crc(a_bits: int) -> Dict[int, int]:
    """Table-driven CRC over ``a_bits`` payload bits, 32 bits per step:
    each full word costs five logical operations in each of AND, XOR and
    shift, and one more of each finishes the digest, so 5*floor(a_bits/32)
    + 1 per kind."""
    per_kind = 5 * (a_bits // 32) + 1
    return {_AND_LS: per_kind, _XOR_LS: per_kind, _SHIFT_LS: per_kind}


def _segmentation(c: int) -> Dict[int, int]:
    """Code block segmentation bookkeeping: nine ops per transport block.

    The cost is per TB and does not grow with the number of code
    blocks.  The nine operations are generic integer arithmetic,
    recorded as FLOPs in the integer class.
    """
    if c < 1:
        raise DomainError("segmentation needs at least one code block")
    return {_FLOP_IS: 9}


def _ldpc_encode(k: int, z: int, n1: int, rows: int, cols: int,
                 n_ccb: int, c: int) -> Dict[int, int]:
    """LDPC systematic encoding cost for ``c`` identical code blocks.

    Per code block:

    * validation of the non-filler payload: 2*(k - 2z) compares
    * base graph expansion: rows*cols replacements
    * one modulo (costed as a division) per non-null entry: n1
    * generator-matrix product, schoolbook: each of the rows*z output
      elements takes cols*z multiplies and cols*z - 1 additions
    * writing the rate-matched output: n_ccb + 2z - k stores
    """
    if min(k, z, rows, cols, c, n_ccb) < 1:
        raise DomainError("LDPC encode arguments must be positive")
    if k < 2 * z:
        raise DomainError("LDPC encode needs k >= 2z")
    if n_ccb + 2 * z < k:
        raise DomainError("LDPC encode needs n_ccb + 2z >= k")
    out_elems = rows * z * c
    inner = cols * z
    return {
        _CMP_IS: 2 * (k - 2 * z) * c,
        _SET_IS: (rows * cols + (n_ccb + 2 * z - k)) * c,
        _DIV_IS: n1 * c,
        _MUL_IS: out_elems * inner,
        _ADD_IS: out_elems * (inner - 1),
    }


def _block_a(d: DerivedParams, bg: BaseGraphSpec) -> _Terms:
    """The per-code-block CRCs are costed as one pass over the total
    payload ``b`` (the sum of all code block sizes).  Rate matching and
    concatenation are index bookkeeping and contribute no operations."""
    return (_crc(d.a), _segmentation(d.c), _crc(d.b),
            _ldpc_encode(d.k, d.z, bg.n1, bg.rows, bg.cols, d.n_ccb, d.c))


def count_block_a(d: DerivedParams, bg: BaseGraphSpec) -> OperationTally:
    """Transport channel encoding: TB CRC, segmentation, CB CRCs, LDPC."""
    _check_ints(**d._asdict())
    _check_ints(**bg._asdict())
    return _merge(_block_a(d, bg))


# ---------------------------------------------------------------------------
# Blocks B and G: scrambling, modulation mapping, layer mapping


def _scrambling(m_cw: int) -> Dict[int, int]:
    """Six vectorized XORs per codeword bit (Gold sequence update plus the
    masking itself)."""
    return {_XOR_LV: 6 * m_cw}


def _modulation(n_symbols: int) -> Dict[int, int]:
    """One table lookup per symbol."""
    return {_LOOKUP_IS: n_symbols}


def _layer_mapping(n_symbols: int) -> Dict[int, int]:
    """One shift per symbol, into its place."""
    return {_SHIFT_IS: n_symbols}


def _block_b(m_cw: int, n_symbols: int) -> _Terms:
    return (_scrambling(m_cw), _modulation(n_symbols),
            _layer_mapping(n_symbols))


def count_block_b(m_cw: int, n_symbols: int) -> OperationTally:
    """Scrambling, modulation and layer mapping for one codeword."""
    _check_ints(m_cw=m_cw, n_symbols=n_symbols)
    return _merge(_block_b(m_cw, n_symbols))


count_block_g = count_block_b      # block B's receiver mirror, same counts


# ---------------------------------------------------------------------------
# Block C: antenna-port mapping


def _precoding(p: int, v: int, m_symb_layer: int) -> Dict[int, int]:
    """Per layer-mapped symbol: an SVD of the p-by-v channel estimate
    (2pv^2 + v^3 flops), singular-value regularization (v), forming
    the precoder (pv), and applying it (2pv - p)."""
    if v < 1 or p < v:
        raise DomainError("precoding needs p >= v >= 1")
    per_symbol = 2 * p * v * v + v ** 3 + v + p * v + (2 * p * v - p)
    return {_FLOP_DS: m_symb_layer * per_symbol}


def count_block_c(p: int, v: int, m_symb_layer: int) -> OperationTally:
    """Precoding over ``p`` ports and ``v`` layers."""
    _check_ints(p=p, v=v, m_symb_layer=m_symb_layer)
    return _of_slots(_precoding(p, v, m_symb_layer))


# ---------------------------------------------------------------------------
# Blocks D and E: OFDM transforms


def _fft(g: int, n_ant: int, n_fft: int) -> Dict[int, int]:
    """5*n_fft*log2(n_fft) real flops per radix-2 transform.  ``n_fft``
    must be a power of two."""
    if g < 1 or n_ant < 1:
        raise DomainError("transform counts need g >= 1 and n_ant >= 1")
    return {_FLOP_DS: 5 * g * n_ant * n_fft * _ilog2(n_fft)}


def count_block_d(g: int, n_ant: int, n_fft: int) -> OperationTally:
    """Radix-2 transforms for ``g`` symbols on ``n_ant`` antennas."""
    _check_ints(g=g, n_ant=n_ant, n_fft=n_fft)
    return _of_slots(_fft(g, n_ant, n_fft))


count_block_e = count_block_d      # the receiver FFT bank, as block D


# ---------------------------------------------------------------------------
# Block F: channel estimation and equalization


def _ls(v: int, n_r: int, n_t: int, l: int, g: int,
        k_p: int) -> Dict[int, int]:
    """Least-squares channel estimation from pilot observations.

    Solves, per layer/receive-antenna pair, a linear system with
    l*n_t unknowns from g*k_p pilot equations via the normal equations:
    Gram matrix build, Gauss-Jordan inversion, and the pseudo-inverse
    application.
    """
    if min(l, n_t, g, k_p) < 1:
        raise DomainError("ls: l, n_t, g, k_p must be >= 1")
    unknowns = l * n_t
    pilots = g * k_p
    bracket = (
        unknowns ** 2 * (2 * pilots - 1)     # A^H A
        + unknowns ** 3                      # inversion
        + pilots * unknowns * (2 * unknowns - 1)   # (A^H A)^-1 A^H
    )
    return {_FLOP_DS: v * n_r * bracket}


def _mmse(n_r: int, n_t: int, n_f: int, g: int) -> Dict[int, int]:
    """MMSE equalization across ``n_f`` subcarriers and ``g`` symbols.

    One SVD-based filter setup per slot (2*n_r*n_t^2 + n_r^3 + n_r +
    n_r*n_t), then per subcarrier: diagonal loading, two small matrix
    products, and applying the filter to g received vectors.

    A modelling choice: the set-up's cube term is n_r^3, the cube of the
    receive-antenna count, while block C prices an SVD by the cube of its
    column count, which here would be n_t^3.  With n_r = 8 and n_t = 2 the
    set-up is 600 flops, where block C's rule would give 96; equal antenna
    counts give the same either way.  The term is kept, because changing
    it would move every sweep over asymmetric antenna counts.
    """
    if min(n_r, n_t, g) < 1:
        raise DomainError("mmse: n_r, n_t, g must be >= 1")
    setup = 2 * n_r * n_t ** 2 + n_r ** 3 + n_r + n_r * n_t
    per_sc = (
        3 * n_t
        + n_t * n_r * (2 * n_t - 1)
        + n_t * n_r * (2 * n_r - 1)
        + n_t * g * (2 * n_r - 1)
    )
    return {_FLOP_DS: setup + n_f * per_sc}


def _block_f(d: DerivedParams, s: Scenario) -> _Terms:
    """A modelling choice: estimation is costed over g*k_p = 14*k_p pilot
    equations whatever pilot_symbols_per_slot is, 0 included, so the
    pilot symbol count never reaches block F."""
    return (_ls(s.n_layers, s.n_rx, s.n_tx, s.channel_len, d.g, d.k_p),
            _mmse(s.n_rx, s.n_tx, d.n_f, d.g))


def count_block_f(d: DerivedParams, s: Scenario) -> OperationTally:
    """Least squares plus MMSE."""
    _check_ints(**d._asdict(), n_layers=s.n_layers, n_rx=s.n_rx,
                n_tx=s.n_tx, channel_len=s.channel_len)
    return _merge(_block_f(d, s))


# ---------------------------------------------------------------------------
# Block H: LDPC decoding and CRC checks


def _ldpc_decode(n_vn: int, w_cn: int, deg_cn: int, deg_vn: int,
                 iters: int, c: int) -> Dict[int, int]:
    """Normalized min-sum decoding for ``c`` code blocks.

    Initialization computes one LLR per variable node (a division and
    a logarithm each).  Every iteration then runs the horizontal step
    (one product per check-node edge), the vertical step (deg_vn
    additions per variable node), and the decision step (deg_vn + 1
    additions per variable node plus one sign XOR per check-node
    edge).  Check/variable node degrees are taken as constants.
    """
    if min(deg_cn, deg_vn, c) < 1:
        raise DomainError("decode: deg_cn, deg_vn and c must be >= 1")
    edge_ops = iters * w_cn * deg_cn * c
    return {
        _DIV_DS: n_vn * c,
        _LOG_DS: n_vn * c,
        _MUL_DS: edge_ops,
        _ADD_DS: iters * (n_vn * deg_vn + n_vn * (deg_vn + 1)) * c,
        _XOR_DS: edge_ops,
    }


def _crc_check(bits: int) -> Dict[int, int]:
    """CRC check: recompute the digest, then one compare."""
    return {**_crc(bits), _CMP_LS: 1}


def _block_h(d: DerivedParams, decode: DecodeConfig) -> _Terms:
    """The decoder sees the full coded block (n_ccb variable nodes); the
    redundancy handled per check node is the coded length minus the
    systematic payload, a count this layer computes and so checks."""
    if d.n_ccb < d.k:
        raise DomainError("decode needs n_ccb >= k")
    return (_ldpc_decode(d.n_ccb, d.n_ccb - d.k, decode.deg_cn,
                         decode.deg_vn, decode.iterations, d.c),
            _crc_check(d.b), _crc_check(d.a))


def count_block_h(d: DerivedParams, decode: DecodeConfig) -> OperationTally:
    """LDPC decoding plus CB and TB CRC checks."""
    _check_ints(**d._asdict(), **decode._asdict())
    return _merge(_block_h(d, decode))


# ---------------------------------------------------------------------------
# Terms by name, and the full pipeline


# Every term in block order: its name, the blocks whose tuple lists it,
# and the function that counts it.
TERMS: Dict[str, Tuple[str, Callable[..., Dict[int, int]]]] = {
    "tb_crc": ("A", _crc), "segmentation": ("A", _segmentation),
    "cb_crc": ("A", _crc), "ldpc_encode": ("A", _ldpc_encode),
    "scrambling": ("BG", _scrambling), "modulation": ("BG", _modulation),
    "layer_mapping": ("BG", _layer_mapping),
    "precoding": ("C", _precoding),
    "fft": ("DE", _fft),
    "ls": ("F", _ls), "mmse": ("F", _mmse),
    "ldpc_decode": ("H", _ldpc_decode), "cb_crc_check": ("H", _crc_check),
    "tb_crc_check": ("H", _crc_check),
}


def count_term(name: str, /, **args: int) -> OperationTally:
    """The term :data:`TERMS` names, called with exactly its arguments, by
    keyword.  An unknown name, a missing or unknown keyword, or an argument
    that breaks :func:`_check_ints` raises :class:`DomainError`."""
    entry = TERMS.get(name)
    if entry is None:
        raise DomainError(f"unknown term {name!r}")
    code = entry[1].__code__
    if args.keys() != set(params := code.co_varnames[:code.co_argcount]):
        raise DomainError(f"{name} takes {', '.join(params)}")
    _check_ints(**args)
    return _of_slots(entry[1](**args))


# Blocks in order, looked up once: an attribute of the enum class is slow.
_BLOCKS = tuple(BlockId)


class PipelineTallies(NamedTuple):
    """Per-block operation tallies for a whole run, in block order."""

    per_block: Mapping[BlockId, OperationTally]
    bits_transmitted: int
    derived: DerivedParams      # what the counts came from

    @property
    def total(self) -> OperationTally:
        return _merge([tally._counts for tally in self.per_block.values()])


def tally_pipeline(s: Scenario) -> PipelineTallies:
    """Count every block of the chain for a scenario, scaled by n_slots."""
    d = derive(s)
    n = s.n_slots
    # Blocks G and E mirror B and D; E differs only with rx_fft_antennas.
    bit_blocks = _merge(_block_b(d.m_cw, d.n_symbols), n)
    transforms = _merge((_fft(d.g, s.n_tx, d.n_fft),), n)
    per_block = dict(zip(_BLOCKS, (
        _merge(_block_a(d, BASE_GRAPHS[d.bg]), n),
        bit_blocks,
        _merge((_precoding(s.n_ports, s.n_layers, d.m_symb_layer),), n),
        transforms,
        transforms if s.rx_fft_antennas is None
        else _merge((_fft(d.g, s.rx_fft_antennas, d.n_fft),), n),
        _merge(_block_f(d, s), n),
        bit_blocks,
        _merge(_block_h(d, s.decode), n))))
    # Every field in order, through the base constructor, as derive does.
    return tuple.__new__(PipelineTallies, (per_block, d.a * n, d))
