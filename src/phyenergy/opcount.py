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
dict.  :data:`TERMS`, the only wiring, declares each as a :class:`Term`:
its function, that function's parameters, and in each block that has the
term the field that feeds each parameter.  :func:`tally_pipeline` reads
every field once per scenario, then merges each block's terms, scaled by
``n_slots``, with no check: :func:`~phyenergy.scenario.validate` has
checked every integer field of the scenario once.  The checked entries,
:func:`count_term` (one term by name) and ``count_block_a`` to
``count_block_h`` (one block each, for the benchmark), refuse an argument
that breaks the counters' one input rule, :func:`_check_ints` (a
non-negative ``int``, not a bool); a term keeps only its structural rules
(``>= 1``, ``k >= 2z``, ``p >= v``, powers of two).  The public
:class:`OperationTally` checks keys and counts.

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
from operator import attrgetter, itemgetter
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


def _merge(terms: Sequence[Mapping[int, int]]) -> OperationTally:
    """The merge of raw ``{slot: count}`` terms, wrapped once."""
    counts: Dict[int, int] = {}
    for term in terms:
        for slot, n in term.items():
            counts[slot] = counts.get(slot, 0) + n
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
# The terms, in block order; TERMS says which blocks each is part of.


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


def _precoding(p: int, v: int, m_symb_layer: int) -> Dict[int, int]:
    """Per layer-mapped symbol: an SVD of the p-by-v channel estimate
    (2pv^2 + v^3 flops), singular-value regularization (v), forming
    the precoder (pv), and applying it (2pv - p)."""
    if v < 1 or p < v:
        raise DomainError("precoding needs p >= v >= 1")
    per_symbol = 2 * p * v * v + v ** 3 + v + p * v + (2 * p * v - p)
    return {_FLOP_DS: m_symb_layer * per_symbol}


def _fft(g: int, n_ant: int, n_fft: int) -> Dict[int, int]:
    """5*n_fft*log2(n_fft) real flops per radix-2 transform.  ``n_fft``
    must be a power of two."""
    if g < 1 or n_ant < 1:
        raise DomainError("transform counts need g >= 1 and n_ant >= 1")
    return {_FLOP_DS: 5 * g * n_ant * n_fft * _ilog2(n_fft)}


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


# ---------------------------------------------------------------------------
# The term table and the pipeline


class Term(NamedTuple):
    """One formula: its count function, that function's parameters in
    order, and each block that has it, with the field for each parameter."""

    name: str
    count: Callable[..., Dict[int, int]]
    params: Tuple[str, ...]
    blocks: Mapping[str, Tuple[str, ...]]   # block letter -> its fields


def _table(*rows: tuple) -> Dict[str, Term]:
    """Terms by name from rows of a name, a count function, then each
    group of blocks and its ``parameter=field`` list."""
    terms = {}
    for name, count, *uses in rows:
        blocks = {}
        for letters, spec in zip(uses[::2], uses[1::2]):
            params, fields = zip(*(arg.split("=") for arg in spec.split()))
            blocks.update(dict.fromkeys(letters, fields))
        terms[name] = Term(name, count, params, blocks)
    return terms


# Every term in block order.  A field is ``d.<DerivedParams field>``,
# ``s.<Scenario field>``, ``s.decode.<DecodeConfig field>`` or
# ``bg.<BaseGraphSpec field>``, the shape of base graph ``d.bg``.
TERMS: Dict[str, Term] = _table(
    ("tb_crc", _crc, "A", "a_bits=d.a"),
    ("segmentation", _segmentation, "A", "c=d.c"),
    # The per-code-block CRCs are one pass over the total payload b.
    ("cb_crc", _crc, "A", "a_bits=d.b"),
    # Rate matching and concatenation are index bookkeeping: no operations.
    ("ldpc_encode", _ldpc_encode, "A", "k=d.k z=d.z n1=bg.n1 rows=bg.rows "
                                       "cols=bg.cols n_ccb=d.n_ccb c=d.c"),
    ("scrambling", _scrambling, "BG", "m_cw=d.m_cw"),
    ("modulation", _modulation, "BG", "n_symbols=d.n_symbols"),
    ("layer_mapping", _layer_mapping, "BG", "n_symbols=d.n_symbols"),
    ("precoding", _precoding, "C", "p=s.n_ports v=s.n_layers "
                                   "m_symb_layer=d.m_symb_layer"),
    ("fft", _fft, "D", "g=d.g n_ant=s.n_tx n_fft=d.n_fft",
                  "E", "g=d.g n_ant=d.rx_antennas n_fft=d.n_fft"),
    # A modelling choice: g*k_p = 14*k_p pilot equations whatever
    # pilot_symbols_per_slot is, 0 included; that count never reaches F.
    ("ls", _ls, "F", "v=s.n_layers n_r=s.n_rx n_t=s.n_tx l=s.channel_len "
                     "g=d.g k_p=d.k_p"),
    ("mmse", _mmse, "F", "n_r=s.n_rx n_t=s.n_tx n_f=d.n_f g=d.g"),
    # The decoder sees the full coded block: n_ccb variable nodes, and the
    # n_ccb - k check-node rows derive gives as n_checks.
    ("ldpc_decode", _ldpc_decode, "H", "n_vn=d.n_ccb w_cn=d.n_checks "
     "deg_cn=s.decode.deg_cn deg_vn=s.decode.deg_vn "
     "iters=s.decode.iterations c=d.c"),
    ("cb_crc_check", _crc_check, "H", "bits=d.b"),
    ("tb_crc_check", _crc_check, "H", "bits=d.a"),
)

# A row is one tuple per scenario, read once: the fields of d, bg and
# s.decode, then the scenario fields that some term names.  Each term's
# getter picks its arguments from it.
_SCENARIO_FIELDS = tuple(dict.fromkeys(
    f[2:] for t in TERMS.values() for fields in t.blocks.values()
    for f in fields if f[:2] == "s." and f[:9] != "s.decode."))
_ROW = (*(f"d.{f}" for f in DerivedParams._fields),
        *(f"bg.{f}" for f in BaseGraphSpec._fields),
        *(f"s.decode.{f}" for f in DecodeConfig._fields),
        *(f"s.{f}" for f in _SCENARIO_FIELDS))
_read_scenario = attrgetter(*_SCENARIO_FIELDS)
_NO_GRAPH = (None,) * len(BaseGraphSpec._fields)


def _getter(fields: Sequence[str]) -> Callable[[tuple], tuple]:
    """The tuple of the values of ``fields`` in a row."""
    at = [_ROW.index(field) for field in fields]
    return itemgetter(*at) if len(at) > 1 else itemgetter(slice(at[0],
                                                                at[0] + 1))


# Each block's terms, each with the fields that feed it in that block.
_BLOCK_TERMS = {block: tuple((t, t.blocks[block.value]) for t in TERMS.values()
                             if block.value in t.blocks) for block in BlockId}
# Each block's terms as (count function, argument getter) pairs.
_PLANS = {block: tuple((t.count, _getter(fields)) for t, fields in terms)
          for block, terms in _BLOCK_TERMS.items()}
# A block takes the tally of the first block whose terms read exactly the
# same fields: G takes B's.  E is always counted, as its transform reads
# d.rx_antennas where D's reads s.n_tx.
_TWINS = {block: twin for block, twin in (
    (block, next(b for b in BlockId if _BLOCK_TERMS[b] == terms))
    for block, terms in _BLOCK_TERMS.items()) if twin is not block}


def _tally(block: BlockId, row: tuple, n: int = 1) -> OperationTally:
    """``block``'s terms, their arguments read from ``row``, merged and
    scaled by ``n``."""
    counts: Dict[int, int] = {}
    for count, get in _PLANS[block]:
        for slot, k in count(*get(row)).items():
            counts[slot] = counts.get(slot, 0) + k * n
    return _of_slots(counts)


def count_term(name: str, /, **args: int) -> OperationTally:
    """The term :data:`TERMS` names, called with exactly its parameters, by
    keyword.  An unknown name, a missing or unknown keyword, or an argument
    that breaks :func:`_check_ints` raises :class:`DomainError`."""
    term = TERMS.get(name)
    if term is None:
        raise DomainError(f"unknown term {name!r}")
    if args.keys() != set(term.params):
        raise DomainError(f"{name} takes {', '.join(term.params)}")
    _check_ints(**args)
    return _of_slots(term.count(**args))


# The benchmark's entries, one block each, checked as count_term is.


def _count_named(block: BlockId, **args: int) -> OperationTally:
    """One slot of ``block``, each term given its parameters by name."""
    _check_ints(**args)
    return _merge([t.count(*map(args.__getitem__, t.params))
                   for t, _ in _BLOCK_TERMS[block]])


def count_block_a(d: DerivedParams, bg: BaseGraphSpec) -> OperationTally:
    """Transport channel encoding: TB CRC, segmentation, CB CRCs, LDPC."""
    _check_ints(**d._asdict())
    _check_ints(**bg._asdict())
    return _tally(BlockId.A, d + bg)


def count_block_b(m_cw: int, n_symbols: int) -> OperationTally:
    """Scrambling, modulation and layer mapping for one codeword."""
    return _count_named(BlockId.B, m_cw=m_cw, n_symbols=n_symbols)


def count_block_c(p: int, v: int, m_symb_layer: int) -> OperationTally:
    """Precoding over ``p`` ports and ``v`` layers."""
    return _count_named(BlockId.C, p=p, v=v, m_symb_layer=m_symb_layer)


def count_block_d(g: int, n_ant: int, n_fft: int) -> OperationTally:
    """Radix-2 transforms for ``g`` symbols on ``n_ant`` antennas."""
    return _count_named(BlockId.D, g=g, n_ant=n_ant, n_fft=n_fft)


def count_block_f(d: DerivedParams, s: Scenario) -> OperationTally:
    """Least squares plus MMSE."""
    _check_ints(**d._asdict(), n_layers=s.n_layers, n_rx=s.n_rx,
                n_tx=s.n_tx, channel_len=s.channel_len)
    return _tally(BlockId.F, d + _NO_GRAPH + s.decode + _read_scenario(s))


def count_block_h(d: DerivedParams, decode: DecodeConfig) -> OperationTally:
    """LDPC decoding plus CB and TB CRC checks."""
    _check_ints(**d._asdict(), **decode._asdict())
    return _tally(BlockId.H, d + _NO_GRAPH + decode)


# The receiver's mirrors of B and D have the same terms and parameters.
count_block_g, count_block_e = count_block_b, count_block_d


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
    row = d + BASE_GRAPHS[d.bg] + s.decode + _read_scenario(s)
    per_block = {}
    for block in _PLANS:
        twin = _TWINS.get(block)
        per_block[block] = (_tally(block, row, n) if twin is None
                            else per_block[twin])
    # Every field in order, through the base constructor, as derive does.
    return tuple.__new__(PipelineTallies, (per_block, d.a * n, d))
