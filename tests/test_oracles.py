"""Pin the oracles themselves on hand-checkable cases.

The oracles cross-check the package's closed forms, so their own
behaviour is frozen here against values small enough to verify by
hand.
"""

from oracles import (block_a_ops, block_c_flops, block_h_ops, crc_slice_ops,
                     gauss_jordan_inverse_ops, ls_bracket_ops, mmse_flops,
                     radix2_fft_ops, schoolbook_product_ops, svd_ops)


def test_schoolbook_product_hand_cases():
    assert schoolbook_product_ops(1, 1, 1) == (1, 0)
    assert schoolbook_product_ops(2, 3, 4) == (24, 16)   # 2*4*3, 2*4*(3-1)
    assert schoolbook_product_ops(1, 5, 1) == (5, 4)     # dot product


def test_gauss_jordan_hand_cases():
    assert gauss_jordan_inverse_ops(1) == 1
    assert gauss_jordan_inverse_ops(2) == 8    # 2 pivots x (2 + 1*2)
    assert gauss_jordan_inverse_ops(3) == 27


def test_fft_hand_cases():
    assert radix2_fft_ops(1) == 0
    assert radix2_fft_ops(2) == 10             # one butterfly
    assert radix2_fft_ops(4) == 40             # two stages x two butterflies
    assert radix2_fft_ops(8) == 120


def test_crc_loop_hand_cases():
    assert crc_slice_ops(0, 32) == 1
    assert crc_slice_ops(31, 32) == 1
    assert crc_slice_ops(32, 32) == 6
    assert crc_slice_ops(3824, 32) == 596      # 119 whole words


def test_ls_bracket_hand_case():
    # l=1, n_t=1, g=1, k_p=1: gram (1,0)->1, inversion 1, apply (1,0)->1.
    assert ls_bracket_ops(1, 1, 1, 1) == 3


def test_svd_hand_cases():
    assert svd_ops(1, 1, rank=1) == 2 + 1
    assert svd_ops(2, 1, rank=1) == 4 + 1      # one step over 2 entries
    assert svd_ops(2, 1, rank=2) == 4 + 8


def test_block_c_hand_case():
    # p=2, v=1: SVD 4+1, one singular value, a 2x1 precoder, and a 2x1
    # product with no additions; no symbols cost nothing.
    assert block_c_flops(p=2, v=1, m_symb_layer=1) == 5 + 1 + 2 + 2
    assert block_c_flops(p=2, v=1, m_symb_layer=3) == 3 * 10
    assert block_c_flops(p=2, v=1, m_symb_layer=0) == 0


def test_mmse_hand_case():
    # n_r=2, n_t=1: setup is SVD 4+8, 2 values and a 1x2 filter; each
    # subcarrier loads 1 diagonal entry (3) and runs products of 2, 6 and
    # 3 flops.
    assert mmse_flops(n_r=2, n_t=1, n_f=0, g=1) == 12 + 2 + 2
    assert mmse_flops(n_r=2, n_t=1, n_f=1, g=1) == 16 + 3 + 2 + 6 + 3
    assert mmse_flops(n_r=1, n_t=1, n_f=1, g=1) == 11


def test_block_a_hand_case():
    # empty TB and 24 CB bits: one trailing CRC step each; a 1x2 graph
    # lifted by 2 gives a 2x4 parity product.
    ops = block_a_ops(a=0, b=24, c=1, k=4, z=2, n1=1, rows=1, cols=2,
                      n_ccb=2)
    assert ops == {("AND", "logical_scalar"): 2, ("XOR", "logical_scalar"): 2,
                   ("SHIFT", "logical_scalar"): 2, ("FLOP", "int_scalar"): 9,
                   ("SET", "int_scalar"): 2 + 2, ("DIV", "int_scalar"): 1,
                   ("MUL", "int_scalar"): 8, ("ADD", "int_scalar"): 6}


def test_block_h_hand_case():
    # one iteration over 2 variable nodes (degree 1) and 1 check node
    # (degree 2), then two CRC checks of empty payloads.
    ops = block_h_ops(a=0, b=0, c=1, n_vn=2, w_cn=1, deg_cn=2, deg_vn=1,
                      iters=1)
    assert ops == {("DIV", "double_scalar"): 2, ("LOG", "double_scalar"): 2,
                   ("MUL", "double_scalar"): 2, ("ADD", "double_scalar"): 6,
                   ("XOR", "double_scalar"): 2, ("AND", "logical_scalar"): 2,
                   ("XOR", "logical_scalar"): 2,
                   ("SHIFT", "logical_scalar"): 2,
                   ("CMP", "logical_scalar"): 2}
