from fractions import Fraction
from functools import partial

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from conftest import reference_scenario
from oracles import (block_a_ops, block_c_flops, block_h_ops, crc_slice_ops,
                     gauss_jordan_inverse_ops, ls_bracket_ops, mmse_flops,
                     radix2_fft_ops, schoolbook_product_ops)

from phyenergy import opcount
from phyenergy.errors import DomainError
from phyenergy.opcount import (EMPTY_TALLY, TERMS, BlockId, DataClass, OpKind,
                               OperationTally, count_block_a, count_block_b,
                               count_block_c, count_block_d, count_block_e,
                               count_block_f, count_block_g, count_block_h,
                               count_term, tally_pipeline)
from phyenergy.scenario import (BASE_GRAPHS, LIFTING_SIZES, TB_CRC_BITS,
                                BaseGraphSpec, DecodeConfig, Modulation,
                                derive, select_base_graph)

LS = DataClass.LOGICAL_SCALAR
IS = DataClass.INT_SCALAR
DS = DataClass.DOUBLE_SCALAR


# ---------------------------------------------------------------------------
# Tally container


def test_tally_drops_zero_counts():
    t = OperationTally({(OpKind.ADD, DS): 0, (OpKind.MUL, DS): 3})
    assert t == OperationTally({(OpKind.MUL, DS): 3})
    assert t.get(OpKind.ADD, DS) == 0
    assert t.total_ops() == 3


def test_tally_rejects_bad_values():
    with pytest.raises(DomainError):
        OperationTally({(OpKind.ADD, DS): -1})
    with pytest.raises(DomainError):
        OperationTally({(OpKind.ADD, DS): 1.5})
    with pytest.raises(DomainError):
        OperationTally({("ADD", DS): 1})


@pytest.mark.parametrize("key", [
    ("a", "b", "c"),
    OpKind.ADD,
    DS,
    "ADD",
    None,
    ("ADD", DS),
    (DS, OpKind.ADD),
    (OpKind.ADD,),
    (OpKind.ADD, DS, "register"),
], ids=["three-strings", "bare-kind", "bare-class", "string", "none",
        "kind-name", "swapped", "one-tuple", "three-tuple"])
def test_tally_rejects_bad_keys(key):
    with pytest.raises(DomainError, match="bad tally key"):
        OperationTally({key: 1})


def test_tally_items_order_is_declaration_order():
    t = OperationTally({
        (OpKind.XOR, LS): 1,
        (OpKind.ADD, DS): 2,
        (OpKind.ADD, IS): 3,
    })
    keys = [key for key, _ in t.items()]
    assert keys == [(OpKind.ADD, IS), (OpKind.ADD, DS), (OpKind.XOR, LS)]


def test_tally_flop_expansion_doubles():
    t = OperationTally({(OpKind.FLOP, DS): 4, (OpKind.ADD, DS): 1})
    assert t.total_ops() == 5
    assert t.total_ops(expand_flops=True) == 9


def test_tally_scale_rejects_negative():
    with pytest.raises(DomainError):
        EMPTY_TALLY.scaled(-1)


_key_st = st.tuples(st.sampled_from(list(OpKind)),
                    st.sampled_from(list(DataClass)))
_tally_st = st.dictionaries(_key_st, st.integers(min_value=0, max_value=10**6),
                            max_size=8).map(OperationTally)


@given(a=_tally_st, b=_tally_st, c=_tally_st)
@settings(max_examples=120, deadline=None)
def test_tally_merge_is_commutative_monoid(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + EMPTY_TALLY == a


@given(a=_tally_st, b=_tally_st,
       m=st.integers(min_value=0, max_value=100),
       n=st.integers(min_value=0, max_value=100))
@settings(max_examples=120, deadline=None)
def test_tally_scaling_distributes(a, b, m, n):
    assert (a + b).scaled(m) == a.scaled(m) + b.scaled(m)
    assert a.scaled(m + n) == a.scaled(m) + a.scaled(n)
    assert a.scaled(m).scaled(n) == a.scaled(m * n)
    assert a.scaled(1) == a
    assert not a.scaled(0)


# ---------------------------------------------------------------------------
# CRC


def test_crc_frozen_values():
    # 5 * floor(bits/32) + 1 in each of AND, XOR, SHIFT
    for bits, expected in [(0, 1), (24, 1), (31, 1), (32, 6), (3824, 596)]:
        t = count_term("tb_crc", a_bits=bits)
        for kind in (OpKind.AND, OpKind.XOR, OpKind.SHIFT):
            assert t.get(kind, LS) == expected
        assert t.total_ops() == 3 * expected


@given(bits=st.integers(min_value=0, max_value=100_000),
       p=st.integers(min_value=1, max_value=128))
@settings(max_examples=200, deadline=None)
def test_crc_matches_slice_loop_oracle(bits, p):
    t = count_term("tb_crc", a_bits=bits, p=p)
    expected = crc_slice_ops(bits, p)
    assert t.get(OpKind.AND, LS) == expected
    assert t.get(OpKind.XOR, LS) == expected
    assert t.get(OpKind.SHIFT, LS) == expected


def test_crc_rejects_bad_arguments():
    with pytest.raises(DomainError):
        count_term("tb_crc", a_bits=-1)
    with pytest.raises(DomainError):
        count_term("tb_crc", a_bits=10, p=0)


def test_crc_decode_adds_one_compare():
    t = count_term("cb_crc_check", bits=3824)
    assert t.get(OpKind.CMP, LS) == 1
    assert t.get(OpKind.XOR, LS) == 596


# ---------------------------------------------------------------------------
# Segmentation and LDPC encoding


def test_segmentation_is_per_transport_block():
    assert count_term("segmentation", c=1) == count_term("segmentation", c=7)
    assert count_term("segmentation", c=1).get(OpKind.FLOP, IS) == 9
    with pytest.raises(DomainError):
        count_term("segmentation", c=0)


def test_ldpc_encode_frozen_example():
    # graph 1 shape, lifting 2, payload 44 bits, 128 rate-matched bits
    t = count_term("ldpc_encode", k=44, z=2, n1=316, rows=46, cols=68,
                   n_ccb=128, c=1)
    assert t.get(OpKind.CMP, IS) == 80            # 2*(44 - 4)
    assert t.get(OpKind.DIV, IS) == 316           # one modulo per entry
    assert t.get(OpKind.MUL, IS) == 12512         # 92 * 136
    assert t.get(OpKind.ADD, IS) == 12420         # 92 * 135
    assert t.get(OpKind.SET, IS) == 3128 + 88     # expansion + output


def test_ldpc_encode_scales_with_code_blocks():
    one = count_term("ldpc_encode", k=44, z=2, n1=316, rows=46, cols=68,
                     n_ccb=128, c=1)
    three = count_term("ldpc_encode", k=44, z=2, n1=316, rows=46, cols=68,
                       n_ccb=128, c=3)
    assert three == one.scaled(3)


@given(z=st.sampled_from([2, 4, 8, 16, 32]),
       c=st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_ldpc_encode_product_matches_schoolbook(z, c):
    rows, cols, info = 46, 68, 22
    k = info * z
    t = count_term("ldpc_encode", k=k, z=z, n1=316, rows=rows, cols=cols,
                   n_ccb=66 * z, c=c)
    muls, adds = schoolbook_product_ops(rows * z, cols * z, 1)
    assert t.get(OpKind.MUL, IS) == muls * c
    assert t.get(OpKind.ADD, IS) == adds * c


def test_ldpc_encode_rejects_underfull_payload():
    with pytest.raises(DomainError):
        count_term("ldpc_encode", k=3, z=2, n1=10, rows=4, cols=6, n_ccb=8,
                   c=1)


def test_block_a_composition():
    s = reference_scenario()
    d = derive(s)
    bg = select_base_graph(d.a, s.code_rate)
    t = count_block_a(d, bg)
    expected = (count_term("tb_crc", a_bits=d.a)
                + count_term("segmentation", c=d.c)
                + count_term("cb_crc", a_bits=d.b)
                + count_term("ldpc_encode", k=d.k, z=d.z, n1=bg.n1,
                             rows=bg.rows, cols=bg.cols, n_ccb=d.n_ccb,
                             c=d.c))
    assert t == expected
    assert t.get(OpKind.DIV, IS) == 316 * d.c


# ---------------------------------------------------------------------------
# Blocks B and G


def test_block_b_counts():
    t = count_block_b(m_cw=67392, n_symbols=16848)
    assert t.get(OpKind.XOR, DataClass.LOGICAL_VECTOR) == 6 * 67392
    assert t.get(OpKind.LOOKUP, IS) == 16848
    assert t.get(OpKind.SHIFT, IS) == 16848


def test_block_g_mirrors_block_b():
    assert count_block_g(1000, 250) == count_block_b(1000, 250)


def test_block_b_empty_codeword():
    assert not count_block_b(0, 0)


# ---------------------------------------------------------------------------
# Block C


def test_block_c_frozen_per_symbol_costs():
    # 4 ports, 2 layers: 62 flops per layer-mapped symbol
    t = count_block_c(p=4, v=2, m_symb_layer=1)
    assert t.get(OpKind.FLOP, DS) == 62
    # degenerate single-antenna case: 6 flops per symbol
    t = count_block_c(p=1, v=1, m_symb_layer=1)
    assert t.get(OpKind.FLOP, DS) == 6


def test_block_c_linear_in_symbols():
    base = count_block_c(4, 2, 1)
    assert count_block_c(4, 2, 8424) == base.scaled(8424)


def test_block_c_rejects_more_layers_than_ports():
    with pytest.raises(DomainError):
        count_block_c(p=2, v=3, m_symb_layer=10)


@given(v=st.integers(min_value=1, max_value=4),
       extra_ports=st.integers(min_value=0, max_value=4),
       m_symb_layer=st.integers(min_value=0, max_value=12))
@settings(max_examples=100, deadline=None)
def test_block_c_matches_loop_oracle(v, extra_ports, m_symb_layer):
    p = v + extra_ports
    assert count_block_c(p, v, m_symb_layer) == OperationTally(
        {(OpKind.FLOP, DS): block_c_flops(p, v, m_symb_layer)})


# ---------------------------------------------------------------------------
# Blocks D and E


def test_block_d_frozen_example():
    # 14 symbols, 4 antennas, 256-point transform
    t = count_block_d(g=14, n_ant=4, n_fft=256)
    assert t.get(OpKind.FLOP, DS) == 573440


@given(log_n=st.integers(min_value=0, max_value=12))
@settings(max_examples=13, deadline=None)
def test_block_d_matches_recursive_fft_oracle(log_n):
    n = 1 << log_n
    t = count_block_d(g=1, n_ant=1, n_fft=n)
    assert t.get(OpKind.FLOP, DS) == radix2_fft_ops(n)


def test_block_d_rejects_non_power_of_two():
    with pytest.raises(DomainError):
        count_block_d(g=14, n_ant=4, n_fft=600)


def test_block_e_same_shape_as_d():
    assert count_block_e(14, 4, 1024) == count_block_d(14, 4, 1024)


# ---------------------------------------------------------------------------
# Block F


def test_ls_frozen_example():
    # 2 layers, 2 rx antennas, 4 unknowns, 336 pilot equations
    t = count_term("ls", v=2, n_r=2, n_t=2, l=2, g=14, k_p=24)
    assert t.get(OpKind.FLOP, DS) == 80832
    assert 80832 == 2 * 2 * 20208


@given(l=st.integers(min_value=1, max_value=4),
       n_t=st.integers(min_value=1, max_value=4),
       g=st.integers(min_value=1, max_value=14),
       k_p=st.integers(min_value=1, max_value=64))
@settings(max_examples=120, deadline=None)
def test_ls_bracket_matches_loop_oracle(l, n_t, g, k_p):
    t = count_term("ls", v=1, n_r=1, n_t=n_t, l=l, g=g, k_p=k_p)
    assert t.get(OpKind.FLOP, DS) == ls_bracket_ops(l, n_t, g, k_p)


@given(n=st.integers(min_value=1, max_value=8))
@settings(max_examples=8, deadline=None)
def test_ls_inversion_term_is_cubic(n):
    # the inversion inside the bracket costs exactly gauss_jordan(n)
    assert gauss_jordan_inverse_ops(n) == n ** 3


def test_mmse_frozen_examples():
    one = count_term("mmse", n_r=1, n_t=1, n_f=1, g=1)
    assert one.get(OpKind.FLOP, DS) == 11
    two = count_term("mmse", n_r=2, n_t=2, n_f=12, g=14)
    assert two.get(OpKind.FLOP, DS) == 1398


@given(n_r=st.integers(min_value=1, max_value=5),
       n_t=st.integers(min_value=1, max_value=5),
       n_f=st.integers(min_value=0, max_value=12),
       g=st.integers(min_value=1, max_value=14))
@settings(max_examples=100, deadline=None)
def test_mmse_matches_loop_oracle(n_r, n_t, n_f, g):
    t = count_term("mmse", n_r=n_r, n_t=n_t, n_f=n_f, g=g)
    assert t == OperationTally({(OpKind.FLOP, DS): mmse_flops(n_r, n_t, n_f,
                                                               g)})


def test_mmse_affine_in_subcarriers():
    t0 = count_term("mmse", n_r=2, n_t=2, n_f=0, g=14).get(OpKind.FLOP, DS)
    t1 = count_term("mmse", n_r=2, n_t=2, n_f=1, g=14).get(OpKind.FLOP, DS)
    t9 = count_term("mmse", n_r=2, n_t=2, n_f=9, g=14).get(OpKind.FLOP, DS)
    assert t9 - t0 == 9 * (t1 - t0)


def test_block_f_composition():
    s = reference_scenario()
    d = derive(s)
    t = count_block_f(d, s)
    expected = (count_term("ls", v=2, n_r=4, n_t=4, l=8, g=14, k_p=312)
                + count_term("mmse", n_r=4, n_t=4, n_f=624, g=14))
    assert t == expected


# ---------------------------------------------------------------------------
# Block H


def test_decode_frozen_addition_count():
    # 64 variable nodes, degree 3, 8 iterations: 8*(64*3 + 64*4) additions
    t = count_term("ldpc_decode", n_vn=64, w_cn=14, deg_cn=19, deg_vn=3,
                   iters=8, c=1)
    assert t.get(OpKind.ADD, DS) == 3584
    assert t.get(OpKind.DIV, DS) == 64
    assert t.get(OpKind.LOG, DS) == 64
    assert t.get(OpKind.MUL, DS) == 8 * 14 * 19
    assert t.get(OpKind.XOR, DS) == 8 * 14 * 19


def test_decode_zero_iterations_keeps_initialization():
    t = count_term("ldpc_decode", n_vn=64, w_cn=14, deg_cn=19, deg_vn=3,
                   iters=0, c=1)
    assert t.get(OpKind.DIV, DS) == 64
    assert t.get(OpKind.MUL, DS) == 0


@given(iters=st.integers(min_value=0, max_value=30),
       c=st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_decode_iteration_cost_is_linear(iters, c):
    base = count_term("ldpc_decode", n_vn=100, w_cn=30, deg_cn=19, deg_vn=3,
                      iters=0, c=c)
    one = count_term("ldpc_decode", n_vn=100, w_cn=30, deg_cn=19, deg_vn=3,
                     iters=1, c=c)
    many = count_term("ldpc_decode", n_vn=100, w_cn=30, deg_cn=19, deg_vn=3,
                      iters=iters, c=c)
    per_iter = {k: one.get(*k) - base.get(*k) for k, _ in one.items()}
    for key, delta in per_iter.items():
        assert many.get(*key) == base.get(*key) + iters * delta


def test_block_h_composition():
    s = reference_scenario()
    d = derive(s)
    t = count_block_h(d, s.decode)
    expected = (count_term("ldpc_decode", n_vn=d.n_ccb, w_cn=d.n_ccb - d.k,
                           deg_cn=19, deg_vn=3, iters=8, c=d.c)
                + count_term("cb_crc_check", bits=d.b)
                + count_term("tb_crc_check", bits=d.a))
    assert t == expected
    assert t.get(OpKind.CMP, LS) == 2


def test_block_h_honours_decode_config():
    s = reference_scenario(decode=DecodeConfig(deg_cn=10, deg_vn=2,
                                               iterations=4))
    d = derive(s)
    t = count_block_h(d, s.decode)
    assert t.get(OpKind.MUL, DS) == 4 * (d.n_ccb - d.k) * 10 * d.c


def _tally(ops) -> OperationTally:
    """An oracle's Counter of (kind name, class name) pairs as a tally."""
    return OperationTally({(OpKind(kind), DataClass(cls)): n
                           for (kind, cls), n in ops.items()})


@st.composite
def _small_codes(draw):
    """A small base graph, lifting size, code block count and decoder."""
    info_cols = draw(st.integers(min_value=2, max_value=5))
    cols = info_cols + 2 + draw(st.integers(min_value=0, max_value=3))
    rows = draw(st.integers(min_value=1, max_value=4))
    n1 = draw(st.integers(min_value=0, max_value=rows * cols))
    bg = BaseGraphSpec(bg=1, rows=rows, cols=cols, n1=n1, info_cols=info_cols)
    z = draw(st.sampled_from([z for z in LIFTING_SIZES if z <= 16]))
    c = draw(st.integers(min_value=1, max_value=3))
    a = draw(st.integers(min_value=0, max_value=300))
    d = derive(reference_scenario())._replace(
        a=a, b=a + TB_CRC_BITS * c, c=c, z=z, k=info_cols * z,
        n_ccb=(cols - 2) * z)
    decode = DecodeConfig(deg_cn=draw(st.integers(min_value=1, max_value=6)),
                          deg_vn=draw(st.integers(min_value=1, max_value=4)),
                          iterations=draw(st.integers(min_value=0,
                                                      max_value=4)))
    return d, bg, decode


@given(code=_small_codes())
@settings(max_examples=120, deadline=None, derandomize=True,
          phases=[phase for phase in Phase if phase is not Phase.explain])
def test_blocks_a_and_h_match_loop_oracles(code):
    d, bg, decode = code
    assert count_block_a(d, bg) == _tally(block_a_ops(
        d.a, d.b, d.c, d.k, d.z, bg.n1, bg.rows, bg.cols, d.n_ccb))
    assert count_block_h(d, decode) == _tally(block_h_ops(
        d.a, d.b, d.c, n_vn=d.n_ccb, w_cn=d.n_ccb - d.k,
        deg_cn=decode.deg_cn, deg_vn=decode.deg_vn,
        iters=decode.iterations))


# ---------------------------------------------------------------------------
# Pipeline assembly


def test_pipeline_covers_all_blocks(reference):
    tl = tally_pipeline(reference)
    assert set(tl.per_block) == set(BlockId)
    assert all(tl.per_block[b] for b in BlockId)
    assert tl.bits_transmitted == 32248


def test_pipeline_sides():
    assert [b.side for b in BlockId] == ["BS"] * 4 + ["UE"] * 4


def test_pipeline_linear_in_slots(reference):
    one = tally_pipeline(reference)
    five = tally_pipeline(reference_scenario(n_slots=5))
    for b in BlockId:
        assert five.per_block[b] == one.per_block[b].scaled(5)
    assert five.bits_transmitted == 5 * one.bits_transmitted
    assert five.total == one.total.scaled(5)


def test_pipeline_modulation_invariant_blocks():
    runs = {m: tally_pipeline(reference_scenario(modulation=m))
            for m in Modulation}
    fixed = [BlockId.C, BlockId.D, BlockId.E, BlockId.F]
    for b in fixed:
        first = runs[Modulation.QPSK].per_block[b]
        for m in Modulation:
            assert runs[m].per_block[b] == first


def test_pipeline_modulation_raises_bit_blocks():
    qpsk = tally_pipeline(reference_scenario(modulation=Modulation.QPSK))
    qam64 = tally_pipeline(reference_scenario(modulation=Modulation.QAM64))
    xor_key = (OpKind.XOR, DataClass.LOGICAL_VECTOR)
    assert (qam64.per_block[BlockId.B].get(*xor_key)
            > qpsk.per_block[BlockId.B].get(*xor_key))
    assert qam64.bits_transmitted > qpsk.bits_transmitted


def test_rx_fft_antenna_override_only_moves_block_e():
    base = tally_pipeline(reference_scenario())
    wide = tally_pipeline(reference_scenario(rx_fft_antennas=8))
    assert wide.per_block[BlockId.E] == base.per_block[BlockId.E].scaled(2)
    for b in BlockId:
        if b is not BlockId.E:
            assert wide.per_block[b] == base.per_block[b]


def test_mmse_setup_cubes_the_receive_antenna_count():
    """The MMSE set-up's SVD cube term is n_r**3, not block C's cube of the
    column count (n_t**3, which would give 96 for the first case)."""
    assert count_term("mmse", n_r=8, n_t=2, n_f=0, g=1) == OperationTally(
        {(OpKind.FLOP, DS): 600})
    assert count_term("mmse", n_r=2, n_t=8, n_f=0, g=1) == OperationTally(
        {(OpKind.FLOP, DS): 282})


def test_block_f_ignores_the_pilot_symbol_count():
    """Least squares is costed over g*k_p pilot equations, as if every
    symbol of the slot carried pilots, even with no pilot symbols at all;
    pilot_symbols_per_slot only changes how many data elements are left."""
    runs = [tally_pipeline(reference_scenario(pilot_symbols_per_slot=n))
            for n in range(4)]
    for fewer, more in zip(runs, runs[1:]):
        assert more.per_block[BlockId.F] == fewer.per_block[BlockId.F]
        assert more.per_block[BlockId.B] != fewer.per_block[BlockId.B]


def test_pipeline_total_is_blockwise_sum(reference):
    tl = tally_pipeline(reference)
    merged = EMPTY_TALLY
    for b in BlockId:
        merged = merged + tl.per_block[b]
    assert tl.total == merged


# ---------------------------------------------------------------------------
# The fused pipeline against its public term functions


@st.composite
def _valid_scenarios(draw, max_prb=275, max_antennas=8, max_channel_len=8,
                     max_tbs=200_000):
    """Scenarios across the whole valid space, optional fields included;
    the bounds shrink it where a loop oracle must stay fast."""
    n_tx = draw(st.integers(min_value=1, max_value=max_antennas))
    n_rx = draw(st.integers(min_value=1, max_value=max_antennas))
    n_layers = draw(st.integers(min_value=1, max_value=min(n_tx, n_rx)))
    optional = st.one_of(st.none(),
                         st.integers(min_value=1, max_value=max_antennas))
    return reference_scenario(
        n_slots=draw(st.integers(min_value=1, max_value=5)),
        scs_khz=draw(st.sampled_from([15, 30, 60, 120])),
        n_prb=draw(st.integers(min_value=1, max_value=max_prb)),
        modulation=draw(st.sampled_from(list(Modulation))),
        code_rate=draw(st.integers(min_value=1, max_value=1023)),
        n_tx=n_tx, n_rx=n_rx, n_layers=n_layers,
        n_ports=draw(st.integers(min_value=n_layers, max_value=max_antennas)),
        channel_len=draw(st.integers(min_value=1, max_value=max_channel_len)),
        pilot_sc_per_prb=draw(st.integers(min_value=1, max_value=12)),
        pilot_symbols_per_slot=draw(st.integers(min_value=0, max_value=13)),
        tbs_override=draw(st.one_of(
            st.none(), st.integers(min_value=0, max_value=max_tbs))),
        rx_fft_antennas=draw(optional),
        decode=DecodeConfig(
            deg_cn=draw(st.integers(min_value=1, max_value=24)),
            deg_vn=draw(st.integers(min_value=1, max_value=6)),
            iterations=draw(st.integers(min_value=0, max_value=12))))


def _term_args(s, d, bg, n_ant):
    """Each term's arguments as tally_pipeline passes them, with ``n_ant``
    antennas for the transform."""
    return {
        "tb_crc": dict(a_bits=d.a),
        "segmentation": dict(c=d.c),
        "cb_crc": dict(a_bits=d.b),
        "ldpc_encode": dict(k=d.k, z=d.z, n1=bg.n1, rows=bg.rows,
                            cols=bg.cols, n_ccb=d.n_ccb, c=d.c),
        "scrambling": dict(m_cw=d.m_cw),
        "modulation": dict(n_symbols=d.n_symbols),
        "layer_mapping": dict(n_symbols=d.n_symbols),
        "precoding": dict(p=s.n_ports, v=s.n_layers,
                          m_symb_layer=d.m_symb_layer),
        "fft": dict(g=d.g, n_ant=n_ant, n_fft=d.n_fft),
        "ls": dict(v=s.n_layers, n_r=s.n_rx, n_t=s.n_tx, l=s.channel_len,
                   g=d.g, k_p=d.k_p),
        "mmse": dict(n_r=s.n_rx, n_t=s.n_tx, n_f=d.n_f, g=d.g),
        "ldpc_decode": dict(n_vn=d.n_ccb, w_cn=d.n_ccb - d.k,
                            deg_cn=s.decode.deg_cn, deg_vn=s.decode.deg_vn,
                            iters=s.decode.iterations, c=d.c),
        "cb_crc_check": dict(bits=d.b),
        "tb_crc_check": dict(bits=d.a),
    }


def _public_terms(s):
    """Each block's one-slot tally from its public ``count_block_*``
    function, and its terms: every term :data:`TERMS` lists for the block,
    through :func:`count_term`."""
    d = derive(s)
    bg = select_base_graph(d.a, s.code_rate)
    e_antennas = s.n_tx if s.rx_fft_antennas is None else s.rx_fft_antennas
    blocks = {
        BlockId.A: count_block_a(d, bg),
        BlockId.B: count_block_b(d.m_cw, d.n_symbols),
        BlockId.C: count_block_c(s.n_ports, s.n_layers, d.m_symb_layer),
        BlockId.D: count_block_d(d.g, s.n_tx, d.n_fft),
        BlockId.E: count_block_e(d.g, e_antennas, d.n_fft),
        BlockId.F: count_block_f(d, s),
        BlockId.G: count_block_g(d.m_cw, d.n_symbols),
        BlockId.H: count_block_h(d, s.decode),
    }
    terms = {}
    for block in BlockId:
        args = _term_args(s, d, bg, e_antennas if block is BlockId.E
                          else s.n_tx)
        assert list(args) == list(TERMS)
        terms[block] = [count_term(name, **args[name])
                        for name, (letters, _) in TERMS.items()
                        if block.value in letters]
    return {block: (blocks[block], terms[block]) for block in BlockId}


@given(s=_valid_scenarios())
@settings(max_examples=150, deadline=None, derandomize=True,
          phases=[phase for phase in Phase if phase is not Phase.explain])
def test_fused_pipeline_equals_its_validated_terms(s):
    """Each block is the merge of the terms TERMS lists for it, no more and
    no fewer, every term re-validated through the public constructor,
    scaled by n_slots; its count_block_* function gives that merge for one
    slot, and every stored count is a positive int."""
    tallies = tally_pipeline(s)
    assert list(tallies.per_block) == list(BlockId)
    for block, (per_slot, terms) in _public_terms(s).items():
        merged = EMPTY_TALLY
        for term in terms:
            merged = merged + OperationTally(term.as_dict())
        assert per_slot == merged
        assert tallies.per_block[block] == merged.scaled(s.n_slots)
        for count in tallies.per_block[block].slot_counts().values():
            assert type(count) is int and count > 0


# ---------------------------------------------------------------------------
# The pipeline against the loop oracles


def _flops(n: int) -> OperationTally:
    return OperationTally({(OpKind.FLOP, DS): n})


@given(s=_valid_scenarios(max_prb=2, max_antennas=4, max_channel_len=2,
                          max_tbs=56))
@settings(max_examples=60, deadline=None, derandomize=True,
          phases=[phase for phase in Phase if phase is not Phase.explain])
def test_pipeline_matches_the_loop_oracles(s):
    """Every block of the pipeline is its loop oracle's count (blocks B and
    G the closed form over derive's sizes) times n_slots.  Loop oracles
    take time in proportion to the counts, so the draw stays small and its
    lifting size at most 8."""
    d = derive(s)
    assume(d.z <= 8)
    bg = BASE_GRAPHS[d.bg]
    e_antennas = s.n_tx if s.rx_fft_antennas is None else s.rx_fft_antennas
    bits = OperationTally({(OpKind.XOR, DataClass.LOGICAL_VECTOR): 6 * d.m_cw,
                           (OpKind.LOOKUP, IS): d.n_symbols,
                           (OpKind.SHIFT, IS): d.n_symbols})
    oracles = {
        BlockId.A: _tally(block_a_ops(d.a, d.b, d.c, d.k, d.z, bg.n1,
                                      bg.rows, bg.cols, d.n_ccb)),
        BlockId.B: bits,
        BlockId.C: _flops(block_c_flops(s.n_ports, s.n_layers,
                                        d.m_symb_layer)),
        BlockId.D: _flops(d.g * s.n_tx * radix2_fft_ops(d.n_fft)),
        BlockId.E: _flops(d.g * e_antennas * radix2_fft_ops(d.n_fft)),
        BlockId.F: _flops(s.n_layers * s.n_rx * ls_bracket_ops(
            s.channel_len, s.n_tx, d.g, d.k_p)
            + mmse_flops(s.n_rx, s.n_tx, d.n_f, d.g)),
        BlockId.G: bits,
        BlockId.H: _tally(block_h_ops(
            d.a, d.b, d.c, n_vn=d.n_ccb, w_cn=d.n_ccb - d.k,
            deg_cn=s.decode.deg_cn, deg_vn=s.decode.deg_vn,
            iters=s.decode.iterations)),
    }
    tallies = tally_pipeline(s)
    assert list(tallies.per_block) == list(oracles)
    for block, oracle in oracles.items():
        assert tallies.per_block[block] == oracle.scaled(s.n_slots), block


# ---------------------------------------------------------------------------
# The public counters are the validating boundary


class _Int(int):
    """An int subclass: accepted wherever an int is."""


_REFERENCE_DERIVED = derive(reference_scenario())

# Each term with valid integer arguments.
_TERM_CALLS = {
    "tb_crc": dict(a_bits=3824, p=32),
    "segmentation": dict(c=2),
    "cb_crc": dict(a_bits=3824, p=32),
    "ldpc_encode": dict(k=44, z=2, n1=316, rows=46, cols=68, n_ccb=128, c=1),
    "scrambling": dict(m_cw=1000),
    "modulation": dict(n_symbols=250),
    "layer_mapping": dict(n_symbols=250),
    "precoding": dict(p=4, v=2, m_symb_layer=10),
    "fft": dict(g=14, n_ant=4, n_fft=256),
    "ls": dict(v=2, n_r=2, n_t=2, l=2, g=14, k_p=24),
    "mmse": dict(n_r=2, n_t=2, n_f=12, g=14),
    "ldpc_decode": dict(n_vn=64, w_cn=14, deg_cn=19, deg_vn=3, iters=8, c=1),
    "cb_crc_check": dict(bits=3824, p=32),
    "tb_crc_check": dict(bits=3824, p=32),
}

# Each public counter with valid integer arguments, by keyword: every term
# through count_term, and the block counters that take plain integers.
_PUBLIC_CALLS = [
    *((partial(count_term, name), args) for name, args in _TERM_CALLS.items()),
    (count_block_b, dict(m_cw=1000, n_symbols=250)),
    (count_block_g, dict(m_cw=1000, n_symbols=250)),
    (count_block_c, dict(p=4, v=2, m_symb_layer=10)),
    (count_block_d, dict(g=14, n_ant=4, n_fft=256)),
    (count_block_e, dict(g=14, n_ant=4, n_fft=256)),
]
_PUBLIC_IDS = [*_TERM_CALLS, "count_block_b", "count_block_g",
               "count_block_c", "count_block_d", "count_block_e"]


@pytest.mark.parametrize("call, message", [
    (lambda: count_term("tb_crc", a_bits=100.0), "a_bits must be an integer"),
    (lambda: count_block_b(1.0, 2), "m_cw must be an integer"),
    (lambda: count_term("ldpc_decode", n_vn=64, w_cn=14, deg_cn=19, deg_vn=3,
                        iters=True, c=1),
     "iters must be an integer"),
    (lambda: count_block_a(_REFERENCE_DERIVED._replace(a=1.5),
                           BASE_GRAPHS[_REFERENCE_DERIVED.bg]),
     "a must be an integer"),
    (lambda: count_block_a(_REFERENCE_DERIVED,
                           BASE_GRAPHS[1]._replace(n1=316.0)),
     "n1 must be an integer"),
    (lambda: count_block_f(_REFERENCE_DERIVED,
                           reference_scenario(channel_len=8.0)),
     "channel_len must be an integer"),
    (lambda: count_block_h(_REFERENCE_DERIVED,
                           DecodeConfig(iterations=False)),
     "iterations must be an integer"),
], ids=["crc-float", "block_b-float", "decode-bool", "block_a-derived",
        "block_a-graph", "block_f-scenario", "block_h-decode"])
def test_public_counters_refuse_non_integers(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("count, args", _PUBLIC_CALLS, ids=_PUBLIC_IDS)
def test_every_argument_of_a_public_counter_must_be_an_int(count, args):
    """A float, a bool or None in any position is refused before counting,
    so no count is ever a float; an int subclass counts as the int does."""
    for name, value in args.items():
        for bad in (float(value), True, None):
            with pytest.raises(DomainError, match="must be an integer"):
                count(**{**args, name: bad})
    as_subclass = {name: _Int(value) for name, value in args.items()}
    assert count(**as_subclass) == count(**args)


def test_count_term_knows_every_term_and_no_other():
    assert list(_TERM_CALLS) == list(TERMS)
    with pytest.raises(DomainError, match="^unknown term 'crc'$"):
        count_term("crc", a_bits=3824)


@pytest.mark.parametrize("name", ["scrambling", "modulation", "layer_mapping"])
def test_count_term_refuses_a_negative_argument(name):
    """The bit-level terms have no range check of their own (their block
    checks its sizes), so count_term refuses a negative argument for them
    rather than return a negative count."""
    (arg,) = _TERM_CALLS[name]
    with pytest.raises(DomainError, match=f"^{name} arguments must be >= 0$"):
        count_term(name, **{arg: -1})


def test_the_pipeline_never_runs_the_public_check(monkeypatch):
    """tally_pipeline trusts validate's one type check: the public
    counters' per-argument check is not on its path."""
    expected = tally_pipeline(reference_scenario(n_slots=3))

    def refuse(**args):
        raise AssertionError("type check on the pipeline path")

    monkeypatch.setattr(opcount, "_check_ints", refuse)
    assert tally_pipeline(reference_scenario(n_slots=3)) == expected
    with pytest.raises(AssertionError):
        count_term("tb_crc", a_bits=100)
