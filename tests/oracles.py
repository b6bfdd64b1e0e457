"""Independent counting oracles used to cross-check the closed forms.

Everything here counts by *simulating the loop structure* of the
algorithm in question, never by evaluating a formula, so agreement
with the package's closed-form counts is meaningful.
"""

from __future__ import annotations


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

