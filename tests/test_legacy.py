from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from phyenergy import legacy
from phyenergy.errors import ConfigError, DomainError
from phyenergy.legacy import (MODELS, AuerParams, ComponentCarrier,
                              DessetComponents, FuBasebandUnit, FuParams,
                              FuRfChain, TombazParams, YanSegments, YuParams,
                              auer_power, desset_power, evaluate_model,
                              fu_bb_power, fu_rf_power, tombaz_power,
                              yan_energy, yu_power)

ACTIVE_AUER = AuerParams(n_trx=2, p0_w=100.0, delta_p=3.0, p_out_w=20.0,
                         p_max_w=40.0, p_sleep_w=50.0)


# ---------------------------------------------------------------------------
# Frozen values


def test_auer_active_branch():
    assert auer_power(ACTIVE_AUER) == 320.0


def test_auer_sleep_branch():
    sleeping = AuerParams(n_trx=2, p0_w=100.0, delta_p=3.0, p_out_w=0.0,
                          p_max_w=40.0, p_sleep_w=50.0)
    assert auer_power(sleeping) == 100.0


def test_auer_rejects_output_above_maximum():
    over = AuerParams(n_trx=2, p0_w=100.0, delta_p=3.0, p_out_w=41.0,
                      p_max_w=40.0, p_sleep_w=50.0)
    with pytest.raises(DomainError, match="p_max_w"):
        auer_power(over)


def test_auer_full_load_is_in_domain():
    full = AuerParams(n_trx=1, p0_w=100.0, delta_p=3.0, p_out_w=40.0,
                      p_max_w=40.0, p_sleep_w=50.0)
    assert auer_power(full) == 220.0


def test_desset_is_component_sum():
    c = DessetComponents(p_bbu_w=30.0, p_rf_w=12.0, p_pa_w=60.0, p_oh_w=18.0)
    assert desset_power(c) == 120.0


def test_yan_is_segment_sum():
    s = YanSegments(e_ue_j=2.0, e_bs_j=40.0, e_wireline_j=5.0, e_dc_j=3.0)
    assert yan_energy(s) == 50.0


def test_yu_single_carrier():
    p = YuParams(carriers=(ComponentCarrier(
        p_tx_w=10.0, bandwidth_mhz=20.0, p_cp_var_w_per_mhz=0.5),),
        p_cp_static_w=5.0)
    assert yu_power(p) == 25.0


def test_yu_no_carriers_is_static_only():
    assert yu_power(YuParams(carriers=(), p_cp_static_w=7.5)) == 7.5
    assert evaluate_model("yu", {"carriers": None, "p_cp_static_w": 7.5}
                          ) == (7.5, "W")


def test_tombaz_transmitting():
    p = TombazParams(n_sectors=3, p_tx_sector_w=21.0, eta_pa=0.3,
                     n_rf_chains=64, p_c_w=1.0, p_b_w=10.0)
    assert tombaz_power(p) == pytest.approx(432.0, rel=1e-12)


def test_tombaz_idle_and_dtx_branches():
    idle = TombazParams(n_sectors=3, p_tx_sector_w=0.0, eta_pa=0.3,
                        n_rf_chains=64, p_c_w=1.0, p_b_w=10.0)
    assert tombaz_power(idle) == 30.0
    asleep = TombazParams(n_sectors=3, p_tx_sector_w=0.0, eta_pa=0.3,
                          n_rf_chains=64, p_c_w=1.0, p_b_w=10.0,
                          dtx_enabled=True, delta=0.4)
    assert tombaz_power(asleep) == pytest.approx(12.0, rel=1e-12)


def test_tombaz_validates_efficiency_and_delta():
    bad_eta = TombazParams(n_sectors=1, p_tx_sector_w=1.0, eta_pa=0.0,
                           n_rf_chains=1, p_c_w=1.0, p_b_w=1.0)
    with pytest.raises(ConfigError, match="eta_pa"):
        tombaz_power(bad_eta)
    bad_delta = TombazParams(n_sectors=1, p_tx_sector_w=0.0, eta_pa=0.5,
                             n_rf_chains=1, p_c_w=1.0, p_b_w=1.0,
                             dtx_enabled=True, delta=1.5)
    with pytest.raises(ConfigError, match="delta"):
        tombaz_power(bad_delta)


FU = FuParams(
    rho_gops_per_w=8.0,
    bb=FuBasebandUnit(l_beams=4, q_enc_gops=10.0, q_net_gops=6.0,
                      q_ctrl_gops=4.0),
    rf=FuRfChain(m_antennas=4, q_mod_gops=2.0, q_mix_gops=2.0,
                 q_vga_gops=2.0, q_lna_gops=1.0, q_adc_gops=1.0,
                 q_clk_gops=4.0),
)


def test_fu_baseband():
    assert fu_bb_power(FU) == 10.0       # 4 * 20 / 8


def test_fu_rf():
    assert fu_rf_power(FU) == 5.0        # (4*8 + 2*4) / 8


def test_fu_requires_matching_section():
    bare = FuParams(rho_gops_per_w=8.0)
    with pytest.raises(ConfigError, match="bb"):
        fu_bb_power(bare)
    with pytest.raises(ConfigError, match="rf"):
        fu_rf_power(bare)


def test_fu_rejects_nonpositive_efficiency():
    with pytest.raises(ConfigError, match="rho"):
        fu_bb_power(FuParams(rho_gops_per_w=0.0, bb=FU.bb))


# ---------------------------------------------------------------------------
# Homogeneity: doubling every power/energy parameter doubles the result


_scale = st.floats(min_value=1e-3, max_value=1e3,
                   allow_nan=False, allow_infinity=False)


@given(lam=_scale)
@settings(max_examples=80, deadline=None)
def test_auer_homogeneous_in_power_parameters(lam):
    scaled = AuerParams(n_trx=2, p0_w=100.0 * lam, delta_p=3.0,
                        p_out_w=20.0 * lam, p_max_w=40.0 * lam,
                        p_sleep_w=50.0 * lam)
    assert auer_power(scaled) == pytest.approx(lam * 320.0, rel=1e-12)


@given(lam=_scale)
@settings(max_examples=80, deadline=None)
def test_tombaz_homogeneous_in_power_parameters(lam):
    scaled = TombazParams(n_sectors=3, p_tx_sector_w=21.0 * lam, eta_pa=0.3,
                          n_rf_chains=64, p_c_w=1.0 * lam, p_b_w=10.0 * lam)
    assert tombaz_power(scaled) == pytest.approx(lam * 432.0, rel=1e-12)


@given(lam=_scale)
@settings(max_examples=80, deadline=None)
def test_fu_homogeneous_in_workloads(lam):
    scaled = FuParams(
        rho_gops_per_w=8.0,
        bb=FuBasebandUnit(4, 10.0 * lam, 6.0 * lam, 4.0 * lam),
        rf=FuRfChain(4, 2.0 * lam, 2.0 * lam, 2.0 * lam, 1.0 * lam,
                     1.0 * lam, 4.0 * lam),
    )
    assert fu_bb_power(scaled) == pytest.approx(lam * 10.0, rel=1e-12)
    assert fu_rf_power(scaled) == pytest.approx(lam * 5.0, rel=1e-12)


@given(a=_scale, b=_scale, c=_scale, d=_scale)
@settings(max_examples=80, deadline=None)
def test_additive_models_commute_with_addition(a, b, c, d):
    assert desset_power(DessetComponents(a, b, c, d)) == a + b + c + d
    assert yan_energy(YanSegments(a, b, c, d)) == a + b + c + d


# ---------------------------------------------------------------------------
# Mapping loaders


AUER_MAPPING = {"n_trx": 2, "p0_w": 100.0, "delta_p": 3.0, "p_out_w": 20.0,
                "p_max_w": 40.0, "p_sleep_w": 50.0}


def test_evaluate_auer_from_mapping():
    value, unit = evaluate_model("auer", AUER_MAPPING)
    assert (value, unit) == (320.0, "W")


def test_evaluate_rejects_unknown_model():
    with pytest.raises(ConfigError, match="unknown model"):
        evaluate_model("watts", AUER_MAPPING)


def test_loader_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown auer keys: psu_w"):
        evaluate_model("auer", {**AUER_MAPPING, "psu_w": 12.0})


def test_loader_rejects_missing_keys():
    partial = {k: v for k, v in AUER_MAPPING.items() if k != "p_max_w"}
    with pytest.raises(ConfigError, match="missing auer keys: p_max_w"):
        evaluate_model("auer", partial)


def test_loader_rejects_boolean_numbers():
    with pytest.raises(ConfigError, match="number"):
        evaluate_model("auer", {**AUER_MAPPING, "p0_w": True})


def test_loader_accepts_numeric_strings():
    value, _ = evaluate_model("auer", {**AUER_MAPPING, "p0_w": "100.0"})
    assert value == 320.0


def test_yan_unit_is_joules():
    _, unit = evaluate_model("yan", {"e_ue_j": 1, "e_bs_j": 2,
                                     "e_wireline_j": 3, "e_dc_j": 4})
    assert unit == "J"


def test_yu_loader_builds_carriers():
    value, _ = evaluate_model("yu", {
        "carriers": [
            {"p_tx_w": 10.0, "bandwidth_mhz": 20.0,
             "p_cp_var_w_per_mhz": 0.5},
            {"p_tx_w": 8.0, "bandwidth_mhz": 10.0,
             "p_cp_var_w_per_mhz": 0.5},
        ],
        "p_cp_static_w": 5.0,
    })
    assert value == 38.0


def test_yu_loader_points_at_bad_carrier():
    with pytest.raises(ConfigError, match=r"yu\.carriers\[1\]"):
        evaluate_model("yu", {
            "carriers": [
                {"p_tx_w": 1.0, "bandwidth_mhz": 1.0,
                 "p_cp_var_w_per_mhz": 1.0},
                {"p_tx_w": 1.0},
            ],
            "p_cp_static_w": 0.0,
        })


def test_fu_loader_reads_both_sections():
    mapping = {
        "rho_gops_per_w": 8.0,
        "bb": {"l_beams": 4, "q_enc_gops": 10.0, "q_net_gops": 6.0,
               "q_ctrl_gops": 4.0},
        "rf": {"m_antennas": 4, "q_mod_gops": 2.0, "q_mix_gops": 2.0,
               "q_vga_gops": 2.0, "q_lna_gops": 1.0, "q_adc_gops": 1.0,
               "q_clk_gops": 4.0},
    }
    assert evaluate_model("fu-bb", mapping)[0] == 10.0
    assert evaluate_model("fu-rf", mapping)[0] == 5.0


def test_tombaz_loader_handles_optional_flags():
    mapping = {"n_sectors": 3, "p_tx_sector_w": 0.0, "eta_pa": 0.3,
               "n_rf_chains": 64, "p_c_w": 1.0, "p_b_w": 10.0,
               "dtx_enabled": True, "delta": 0.4}
    value, _ = evaluate_model("tombaz", mapping)
    assert value == pytest.approx(12.0, rel=1e-12)
    with pytest.raises(ConfigError, match="true/false"):
        evaluate_model("tombaz", {**mapping, "dtx_enabled": "yes"})


_CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Every W, J, MHz and GOPS field, and auer's load slope, as (model,
# parameter file, path to the field, the label its error names).
_AMOUNTS = [
    *(("auer", "auer.yaml", (f,), f"auer.{f}")
      for f in ("p0_w", "delta_p", "p_out_w", "p_max_w", "p_sleep_w")),
    *(("desset", "desset.yaml", (f,), f"desset.{f}")
      for f in ("p_bbu_w", "p_rf_w", "p_pa_w", "p_oh_w")),
    *(("yan", "yan.yaml", (f,), f"yan.{f}")
      for f in ("e_ue_j", "e_bs_j", "e_wireline_j", "e_dc_j")),
    ("yu", "yu.yaml", ("p_cp_static_w",), "yu.p_cp_static_w"),
    *(("yu", "yu.yaml", ("carriers", 0, f), f"yu.carriers[0].{f}")
      for f in ("p_tx_w", "bandwidth_mhz", "p_cp_var_w_per_mhz")),
    *(("tombaz", "tombaz.yaml", (f,), f"tombaz.{f}")
      for f in ("p_tx_sector_w", "p_c_w", "p_b_w")),
    *(("fu-bb", "fu.yaml", ("bb", f), f"fu.bb.{f}")
      for f in ("q_enc_gops", "q_net_gops", "q_ctrl_gops")),
    *(("fu-rf", "fu.yaml", ("rf", f), f"fu.rf.{f}")
      for f in ("q_mod_gops", "q_mix_gops", "q_vga_gops", "q_lna_gops",
                "q_adc_gops", "q_clk_gops")),
]


@pytest.mark.parametrize("model, params, path, label", _AMOUNTS,
                         ids=[case[3] for case in _AMOUNTS])
def test_every_power_energy_bandwidth_and_workload_is_non_negative(
        model, params, path, label):
    mapping = yaml.safe_load((_CONFIGS / params).read_text())
    evaluate_model(model, mapping)
    *parents, name = path
    field = mapping
    for key in parents:
        field = field[key]
    field[name] = -1.5
    with pytest.raises(ConfigError) as exc:
        evaluate_model(model, mapping)
    assert str(exc.value) == f"{label} must be >= 0"


def test_model_registry_names():
    assert set(MODELS) == {"auer", "desset", "yan", "yu", "tombaz",
                           "fu-bb", "fu-rf"}


# Each model's context, parameter file and the keys its loader requires:
# the fields of its record without a default, sorted.  yu's carrier list
# may be left out, although YuParams requires it.
_LOADERS = {
    "auer": ("auer", "auer.yaml",
             "delta_p, n_trx, p0_w, p_max_w, p_out_w, p_sleep_w"),
    "desset": ("desset", "desset.yaml", "p_bbu_w, p_oh_w, p_pa_w, p_rf_w"),
    "yan": ("yan", "yan.yaml", "e_bs_j, e_dc_j, e_ue_j, e_wireline_j"),
    "yu": ("yu", "yu.yaml", "p_cp_static_w"),
    "tombaz": ("tombaz", "tombaz.yaml",
               "eta_pa, n_rf_chains, n_sectors, p_b_w, p_c_w, p_tx_sector_w"),
    "fu-bb": ("fu", "fu.yaml", "rho_gops_per_w"),
    "fu-rf": ("fu", "fu.yaml", "rho_gops_per_w"),
}


@pytest.mark.parametrize("model", _LOADERS)
def test_every_loader_names_its_missing_and_unknown_keys(model):
    context, params, required = _LOADERS[model]
    with pytest.raises(ConfigError) as exc:
        evaluate_model(model, {})
    assert str(exc.value) == f"missing {context} keys: {required}"
    mapping = yaml.safe_load((_CONFIGS / params).read_text())
    with pytest.raises(ConfigError) as exc:
        evaluate_model(model, {**mapping, "zz": 1})
    assert str(exc.value) == f"unknown {context} keys: zz"


def test_a_loader_names_only_fields_of_its_record():
    """A misspelt exception would read a count as an amount; it fails
    when the loader is built instead."""
    with pytest.raises(TypeError,
                       match=r"AuerParams has no fields \['n_tx'\]"):
        legacy._params(AuerParams, n_tx=legacy._as_count)
