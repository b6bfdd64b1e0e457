"""Acceptance gate: eight criteria, one test (and one pass/fail line) each.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
verdict lines; add ``-s`` to also see the printed PASS summaries.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import make_table, reference_scenario
from oracles import (crc_slice_ops, ls_bracket_ops, radix2_fft_ops,
                     schoolbook_product_ops)

from phyenergy.cli import main
from phyenergy.costmodel import (EnergyParams, build_report, cycles_for,
                                 expand_flops, load_default_cost_table)
from phyenergy.ingest import (compare, measured_cycles, parse_measurement_text,
                              rows_from_tallies, serialize_measurement)
from phyenergy.legacy import (AuerParams, ComponentCarrier, DessetComponents,
                              FuBasebandUnit, FuParams, FuRfChain,
                              TombazParams, YanSegments, YuParams, auer_power,
                              desset_power, fu_bb_power, fu_rf_power,
                              tombaz_power, yan_energy, yu_power)
from phyenergy.opcount import (BlockId, DataClass, OperationTally, OpKind,
                               count_block_d, count_term, tally_pipeline)
from phyenergy.scenario import DecodeConfig, Modulation, load_scenario

CONFIGS = Path(__file__).parent.parent / "configs"
REFERENCE = str(CONFIGS / "reference.yaml")

SEED = 20260817


# ---------------------------------------------------------------------------
# 1. Reference scenario runs end to end, fast, with the expected energy scale


def test_criterion_1_reference_run():
    start = time.perf_counter()
    scenario = load_scenario(REFERENCE)
    table = load_default_cost_table()
    tallies = tally_pipeline(scenario)
    report = build_report(tallies, table,
                          EnergyParams(kappa=scenario.kappa,
                                       clock_hz=scenario.clock_hz),
                          scenario=scenario)
    elapsed = time.perf_counter() - start

    assert elapsed < 1.0, f"reference run took {elapsed:.3f}s"

    non_zero = [b for b in BlockId if tallies.per_block[b]]
    assert len(non_zero) == 8
    for block in BlockId:
        assert report.per_block[block].cycles > 0

    eps = report.epsilon
    assert abs(eps - 4.41e-7) <= 1e-12 * 4.41e-7

    print(f"ACCEPTANCE 1 (reference run): PASS "
          f"[{elapsed * 1000:.0f} ms, 8 non-zero blocks, "
          f"epsilon={eps:.6g} J/cycle]")


# ---------------------------------------------------------------------------
# 2. Closed-form counts equal loop-simulation oracles on randomized cases


def test_criterion_2_formula_vs_oracle():
    rng = random.Random(SEED)

    # (a) matrix products: the encoder's generator product ...
    for _ in range(1000):
        z = rng.choice([1, 2])
        rows = rng.randint(1, 8 // z)
        cols = rng.randint(1, 8 // z)
        k = 2 * z
        tally = count_term("ldpc_encode", k=k, z=z, n1=1, rows=rows,
                           cols=cols, n_ccb=max(1, k), c=1)
        muls, adds = schoolbook_product_ops(rows * z, cols * z, 1)
        assert tally.get(OpKind.MUL, DataClass.INT_SCALAR) == muls
        assert tally.get(OpKind.ADD, DataClass.INT_SCALAR) == adds

    # ... and the least-squares solve (Gram, inversion, application)
    for _ in range(1000):
        l = rng.randint(1, 4)
        n_t = rng.randint(1, 8 // l)
        g = rng.randint(1, 14)
        k_p = rng.randint(1, 8)
        tally = count_term("ls", v=1, n_r=1, n_t=n_t, l=l, g=g, k_p=k_p)
        assert (tally.get(OpKind.FLOP, DataClass.DOUBLE_SCALAR)
                == ls_bracket_ops(l, n_t, g, k_p))

    # (b) transforms against the recursive butterfly count
    sizes = [1 << j for j in range(1, 13)]          # 2 .. 4096
    oracle_fft = {n: radix2_fft_ops(n) for n in sizes}
    for _ in range(1000):
        n = rng.choice(sizes)
        g = rng.randint(1, 14)
        ant = rng.randint(1, 8)
        tally = count_block_d(g=g, n_ant=ant, n_fft=n)
        assert (tally.get(OpKind.FLOP, DataClass.DOUBLE_SCALAR)
                == g * ant * oracle_fft[n])

    # (c) CRC against the word-sliced loop
    for _ in range(1000):
        bits = rng.randint(0, 100_000)
        expected = crc_slice_ops(bits, 32)
        tally = count_term("tb_crc", a_bits=bits)
        for kind in (OpKind.AND, OpKind.XOR, OpKind.SHIFT):
            assert tally.get(kind, DataClass.LOGICAL_SCALAR) == expected

    print("ACCEPTANCE 2 (formula vs oracle): PASS "
          "[1000 cases per oracle, all exact]")


# ---------------------------------------------------------------------------
# 3. Modulation sweep: C/D/E/F invariant, per-bit cost strictly decreasing


def test_criterion_3_modulation_sweep():
    table = load_default_cost_table()
    mods = [Modulation.QPSK, Modulation.QAM16, Modulation.QAM64]
    reports = {}
    for mod in mods:
        s = reference_scenario(modulation=mod)
        reports[mod] = build_report(
            tally_pipeline(s), table,
            EnergyParams(kappa=s.kappa, clock_hz=s.clock_hz))

    fixed_blocks = (BlockId.C, BlockId.D, BlockId.E, BlockId.F)
    for block in fixed_blocks:
        cycles = {reports[m].per_block[block].cycles for m in mods}
        assert len(cycles) == 1, f"block {block.value} moved with modulation"

    for block in fixed_blocks:
        per_bit = [reports[m].per_block[block].cycles_per_bit for m in mods]
        assert all(q is not None for q in per_bit)
        assert per_bit[0] > per_bit[1] > per_bit[2], (
            f"block {block.value} cycles/bit not strictly decreasing")

    print("ACCEPTANCE 3 (modulation sweep): PASS "
          "[C/D/E/F cycles identical, cycles/bit strictly decreasing]")


# ---------------------------------------------------------------------------
# 4. Linearity in slots, code blocks, and cycles-to-energy


def test_criterion_4_linearity():
    # total tallies scale exactly with the slot count
    one = tally_pipeline(reference_scenario())
    for n in (2, 3, 10):
        many = tally_pipeline(reference_scenario(n_slots=n))
        assert many.total == one.total.scaled(n)
        for block in BlockId:
            assert many.per_block[block] == one.per_block[block].scaled(n)

    # encoder and decoder tallies scale exactly with the code block count
    for c in (1, 2, 5):
        enc = count_term("ldpc_encode", k=8448, z=384, n1=316, rows=46,
                         cols=68, n_ccb=25344, c=c)
        assert enc == count_term("ldpc_encode", k=8448, z=384, n1=316,
                                 rows=46, cols=68, n_ccb=25344,
                                 c=1).scaled(c)
        dec = count_term("ldpc_decode", n_vn=25344, w_cn=16896, deg_cn=19,
                         deg_vn=3, iters=8, c=c)
        assert dec == count_term("ldpc_decode", n_vn=25344, w_cn=16896,
                                 deg_cn=19, deg_vn=3, iters=8,
                                 c=1).scaled(c)

    # energy is epsilon times cycles, and scales with cycles, to 1e-12
    energy = EnergyParams(kappa=1e-25, clock_hz=2.1e9)
    base = build_report(one, make_table(), energy)
    for block in BlockId:
        cost = base.per_block[block]
        expected = float(cost.cycles) * base.epsilon
        assert abs(cost.energy_j - expected) <= 1e-12 * expected
    for scale in (2, 7):
        scaled = build_report(one, make_table(cycles=Fraction(scale)), energy)
        assert scaled.total.cycles == scale * base.total.cycles
        assert (abs(scaled.total.energy_j - scale * base.total.energy_j)
                <= 1e-12 * scaled.total.energy_j)

    print("ACCEPTANCE 4 (linearity): PASS "
          "[slots exact, code blocks exact, energy linear to 1e-12]")


# ---------------------------------------------------------------------------
# 5. Legacy models: branch identities exact, degree-1 homogeneity to 1e-12


def test_criterion_5_legacy_models():
    # exact branch identities
    sleeping = AuerParams(n_trx=3, p0_w=100.0, delta_p=3.0, p_out_w=0.0,
                          p_max_w=40.0, p_sleep_w=47.5)
    assert auer_power(sleeping) == 3 * 47.5

    idle = TombazParams(n_sectors=3, p_tx_sector_w=0.0, eta_pa=0.3,
                        n_rf_chains=64, p_c_w=1.0, p_b_w=10.0)
    dtx_full = TombazParams(n_sectors=3, p_tx_sector_w=0.0, eta_pa=0.3,
                            n_rf_chains=64, p_c_w=1.0, p_b_w=10.0,
                            dtx_enabled=True, delta=1.0)
    assert tombaz_power(dtx_full) == tombaz_power(idle)

    assert yu_power(YuParams(carriers=(), p_cp_static_w=6.25)) == 6.25

    fu = FuParams(rho_gops_per_w=8.0,
                  rf=FuRfChain(m_antennas=4, q_mod_gops=2.0, q_mix_gops=2.0,
                               q_vga_gops=2.0, q_lna_gops=1.0, q_adc_gops=1.0,
                               q_clk_gops=4.0))
    assert fu_rf_power(fu) == 5.0

    # degree-1 homogeneity under power scaling, all six models
    def check(scaled_value, reference_value, lam, label):
        assert scaled_value == pytest.approx(lam * reference_value,
                                             rel=1e-12), label

    for lam in (0.5, 2.0, 3.7, 10.0):
        check(auer_power(AuerParams(2, 100.0 * lam, 3.0, 20.0 * lam,
                                    40.0 * lam, 50.0 * lam)),
              auer_power(AuerParams(2, 100.0, 3.0, 20.0, 40.0, 50.0)),
              lam, "auer")
        check(desset_power(DessetComponents(30.0 * lam, 12.0 * lam,
                                            60.0 * lam, 18.0 * lam)),
              desset_power(DessetComponents(30.0, 12.0, 60.0, 18.0)),
              lam, "desset")
        check(yan_energy(YanSegments(2.0 * lam, 40.0 * lam, 5.0 * lam,
                                     3.0 * lam)),
              yan_energy(YanSegments(2.0, 40.0, 5.0, 3.0)), lam, "yan")
        cc = ComponentCarrier(10.0, 20.0, 0.5)
        cc_lam = ComponentCarrier(10.0 * lam, 20.0, 0.5 * lam)
        check(yu_power(YuParams((cc_lam,), 5.0 * lam)),
              yu_power(YuParams((cc,), 5.0)), lam, "yu")
        check(tombaz_power(TombazParams(3, 21.0 * lam, 0.3, 64, 1.0 * lam,
                                        10.0 * lam)),
              tombaz_power(TombazParams(3, 21.0, 0.3, 64, 1.0, 10.0)),
              lam, "tombaz")
        bb = FuBasebandUnit(4, 10.0, 6.0, 4.0)
        bb_lam = FuBasebandUnit(4, 10.0 * lam, 6.0 * lam, 4.0 * lam)
        rf = FuRfChain(4, 2.0, 2.0, 2.0, 1.0, 1.0, 4.0)
        rf_lam = FuRfChain(4, 2.0 * lam, 2.0 * lam, 2.0 * lam, 1.0 * lam,
                           1.0 * lam, 4.0 * lam)
        check(fu_bb_power(FuParams(8.0, bb=bb_lam)),
              fu_bb_power(FuParams(8.0, bb=bb)), lam, "fu-bb")
        check(fu_rf_power(FuParams(8.0, rf=rf_lam)),
              fu_rf_power(FuParams(8.0, rf=rf)), lam, "fu-rf")

    print("ACCEPTANCE 5 (legacy models): PASS "
          "[branch identities exact, homogeneity within 1e-12]")


# ---------------------------------------------------------------------------
# 6. Measurement round trip reproduces the model exactly


def test_criterion_6_round_trip():
    scenario = load_scenario(REFERENCE)
    table = load_default_cost_table()
    tallies = tally_pipeline(scenario)
    modeled = build_report(tallies, table,
                           EnergyParams(kappa=scenario.kappa,
                                        clock_hz=scenario.clock_hz))

    text = serialize_measurement(rows_from_tallies(tallies))
    report = parse_measurement_text(text)
    measured = measured_cycles(report, table)
    result = compare(modeled, measured)

    for block in BlockId:
        assert result.per_block[block].ratio == 1, block
        assert result.per_block[block].flag == "match"
    assert result.total.ratio == 1

    print("ACCEPTANCE 6 (round trip): PASS "
          "[all per-block ratios exactly 1]")


# ---------------------------------------------------------------------------
# 7. Byte-identical command output; uniform table counts operations


def test_criterion_7_determinism(tmp_path):
    tallies = tally_pipeline(load_scenario(REFERENCE))
    measured = tmp_path / "measured.csv"
    measured.write_text(serialize_measurement(rows_from_tallies(tallies)))

    commands = [
        ("estimate-text",
         ["estimate", "--scenario", REFERENCE]),
        ("estimate-table",
         ["estimate", "--scenario", REFERENCE,
          "--format", "delimited-table"]),
        ("sweep",
         ["sweep", "--scenario", REFERENCE, "--param", "modulation",
          "--values", "QPSK,QAM16,QAM64,QAM256"]),
        ("compare",
         ["compare", "--scenario", REFERENCE,
          "--measured", str(measured)]),
        ("legacy",
         ["legacy", "--model", "tombaz",
          "--params", str(CONFIGS / "tombaz.yaml")]),
    ]
    for name, argv in commands:
        first = tmp_path / f"{name}.1"
        second = tmp_path / f"{name}.2"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name

    # a unit-cost table makes total cycles equal the expanded op count
    uniform = make_table()
    totals = cycles_for(tallies.total, uniform)
    assert totals.cycles == tallies.total.total_ops(expand_flops=True)
    assert totals.cycles.denominator == 1

    print("ACCEPTANCE 7 (determinism): PASS "
          "[5 commands byte-identical, uniform-table cycles == op count]")


# ---------------------------------------------------------------------------
# 8. Every key the counters can emit resolves in the bundled table


def test_criterion_8_coverage_guard():
    table = load_default_cost_table()
    grid_keys = set()
    scenarios = 0
    for modulation in Modulation:
        for n_prb in (1, 6, 52, 273):
            for n_layers in (1, 2, 4):
                for code_rate in (78, 490, 948):
                    s = reference_scenario(modulation=modulation,
                                           n_prb=n_prb, n_layers=n_layers,
                                           code_rate=code_rate)
                    tallies = tally_pipeline(s)
                    scenarios += 1
                    for block in BlockId:
                        tally = tallies.per_block[block]
                        grid_keys.update(k for k, _ in tally.items())
                        # raises a coverage error on any hole
                        cycles_for(tally, table)

    # zero-payload and zero-iteration edges go through the same gate
    for edge in (reference_scenario(tbs_override=0),
                 reference_scenario(decode=DecodeConfig(deg_cn=19, deg_vn=3,
                                                        iterations=0))):
        tallies = tally_pipeline(edge)
        for block in BlockId:
            cycles_for(tallies.per_block[block], table)
            grid_keys.update(k for k, _ in tallies.per_block[block].items())

    expanded = set()
    for key in grid_keys:
        expanded.update(
            k for k, _ in expand_flops(OperationTally({key: 1})).items())
    for kind, cls in expanded:
        table.lookup(kind, cls)     # must not raise

    print(f"ACCEPTANCE 8 (coverage guard): PASS "
          f"[{scenarios} scenarios, {len(grid_keys)} distinct op keys, "
          f"{len(expanded)} expanded keys all covered]")
