"""Classic base-station power/energy models for side-by-side comparison.

Six closed-form models from the RAN energy-efficiency literature,
selectable by first-author name.  All are pure arithmetic over a small
parameter set; each model reads its parameters from the same
structured-text mapping format the scenario uses, with unknown keys
rejected.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Mapping, NamedTuple, Optional, Sequence

from .errors import ConfigError, DomainError
from .readers import Converter, as_float, as_int, as_list, echo, record


class AuerParams(NamedTuple):
    """Load-proportional transceiver model with a sleep state."""

    n_trx: int          # transceiver chains
    p0_w: float         # per-chain power at minimum non-zero load
    delta_p: float      # load slope (dimensionless, >= 0)
    p_out_w: float      # radiated output power
    p_max_w: float      # maximum radiated power
    p_sleep_w: float    # per-chain sleep power


def auer_power(p: AuerParams) -> float:
    """Input power: n_trx*(p0 + delta_p*p_out), or n_trx*p_sleep at zero load.

    The active branch covers 0 < p_out <= p_max; output above p_max is
    outside the model's domain.
    """
    if p.p_out_w > p.p_max_w:
        raise DomainError(
            f"p_out_w={p.p_out_w} exceeds p_max_w={p.p_max_w}")
    if p.p_out_w == 0:
        return p.n_trx * p.p_sleep_w
    return p.n_trx * (p.p0_w + p.delta_p * p.p_out_w)


class DessetComponents(NamedTuple):
    """Additive breakdown: baseband, RF transceiver, PA, overhead."""

    p_bbu_w: float
    p_rf_w: float
    p_pa_w: float
    p_oh_w: float


def desset_power(c: DessetComponents) -> float:
    return c.p_bbu_w + c.p_rf_w + c.p_pa_w + c.p_oh_w


class YanSegments(NamedTuple):
    """Network-wide energy split: terminals, base stations, wireline, DC."""

    e_ue_j: float
    e_bs_j: float
    e_wireline_j: float
    e_dc_j: float


def yan_energy(s: YanSegments) -> float:
    return s.e_ue_j + s.e_bs_j + s.e_wireline_j + s.e_dc_j


class ComponentCarrier(NamedTuple):
    p_tx_w: float               # transmit power on this carrier
    bandwidth_mhz: float
    p_cp_var_w_per_mhz: float   # bandwidth-proportional processing power


class YuParams(NamedTuple):
    """Carrier-aggregation model: per-carrier terms plus shared static power."""

    carriers: Sequence[ComponentCarrier]
    p_cp_static_w: float


def yu_power(p: YuParams) -> float:
    total = p.p_cp_static_w
    for cc in p.carriers:
        total += cc.p_tx_w + cc.bandwidth_mhz * cc.p_cp_var_w_per_mhz
    return total


class TombazParams(NamedTuple):
    """Sectorized model with RF chains and optional cell DTX."""

    n_sectors: int
    p_tx_sector_w: float
    eta_pa: float       # PA efficiency, in (0, 1]
    n_rf_chains: int
    p_c_w: float        # per-chain circuit power
    p_b_w: float        # baseband/idle floor
    dtx_enabled: bool = False
    delta: float = 1.0  # DTX sleep factor, in [0, 1]


def tombaz_power(p: TombazParams) -> float:
    """Per-sector power, three branches: transmitting, idle, DTX sleep."""
    if not 0 < p.eta_pa <= 1:
        raise ConfigError("eta_pa must be in (0, 1]")
    if not 0 <= p.delta <= 1:
        raise ConfigError("delta must be in [0, 1]")
    if p.p_tx_sector_w > 0:
        per_sector = (p.p_tx_sector_w / p.eta_pa
                      + p.n_rf_chains * p.p_c_w + p.p_b_w)
    elif p.dtx_enabled:
        per_sector = p.delta * p.p_b_w
    else:
        per_sector = p.p_b_w
    return p.n_sectors * per_sector


class FuBasebandUnit(NamedTuple):
    l_beams: int        # spatial streams processed
    q_enc_gops: float
    q_net_gops: float
    q_ctrl_gops: float


class FuRfChain(NamedTuple):
    m_antennas: int
    q_mod_gops: float
    q_mix_gops: float
    q_vga_gops: float
    q_lna_gops: float
    q_adc_gops: float
    q_clk_gops: float   # shared clock, scales with sqrt(m)


class FuParams(NamedTuple):
    """Complexity-based model: GOPS workloads over a technology efficiency."""

    rho_gops_per_w: float
    bb: Optional[FuBasebandUnit] = None
    rf: Optional[FuRfChain] = None


def fu_bb_power(p: FuParams) -> float:
    """Baseband power: l*(q_enc + q_net + q_ctrl)/rho."""
    if p.bb is None:
        raise ConfigError("fu-bb requires a 'bb' parameter section")
    if p.rho_gops_per_w <= 0:
        raise ConfigError("rho_gops_per_w must be positive")
    bb = p.bb
    return bb.l_beams * (bb.q_enc_gops + bb.q_net_gops
                         + bb.q_ctrl_gops) / p.rho_gops_per_w


def fu_rf_power(p: FuParams) -> float:
    """RF power: m*(per-chain GOPS)/rho + sqrt(m)*q_clk/rho."""
    if p.rf is None:
        raise ConfigError("fu-rf requires an 'rf' parameter section")
    if p.rho_gops_per_w <= 0:
        raise ConfigError("rho_gops_per_w must be positive")
    rf = p.rf
    chain = (rf.q_mod_gops + rf.q_mix_gops + rf.q_vga_gops
             + rf.q_lna_gops + rf.q_adc_gops)
    return (rf.m_antennas * chain
            + math.sqrt(rf.m_antennas) * rf.q_clk_gops) / p.rho_gops_per_w


# ---------------------------------------------------------------------------
# Parameter-file loading: every mapping is read by readers.record.


def _non_negative(conv: Converter) -> Converter:
    """``conv`` that also rejects values below zero."""
    def checked(label: str, value: Any) -> Any:
        number = conv(label, value)
        if number < 0:
            raise ConfigError(f"{label} must be >= 0")
        return number
    return checked


_as_count = _non_negative(as_int)      # chains, sectors, beams, antennas
_as_amount = _non_negative(as_float)    # W, J, MHz, GOPS; auer slope


def _as_flag(label: str, value: Any) -> bool:
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{label}: expected true/false, got {echo(value)}")


def _params(cls: type, **special: Converter) -> Converter:
    """The loader of the NamedTuple ``cls``, built from its fields: a field
    with a default is optional, and each is read by its ``special``
    converter, or else as a non-negative amount."""
    fields = {name: special.pop(name, _as_amount) for name in cls._fields}
    if special:
        raise TypeError(f"{cls.__name__} has no fields {sorted(special)}")
    optional = {name: fields.pop(name) for name in cls._field_defaults}
    return record(cls, fields, optional)


_carrier = _params(ComponentCarrier)


def _as_carriers(label: str, value: Any) -> tuple[ComponentCarrier, ...]:
    return tuple(_carrier(f"{label}[{i}]", cc)
                 for i, cc in enumerate(as_list(label, value)))


_fu_params = _params(FuParams, rho_gops_per_w=as_float,
                     bb=_params(FuBasebandUnit, l_beams=_as_count),
                     rf=_params(FuRfChain, m_antennas=_as_count))

# model name -> (context, loader, evaluator, unit); the loader reads the
# parameter mapping under the context, which fu-bb and fu-rf share.
MODELS: dict[str, tuple] = {
    "auer": ("auer", _params(AuerParams, n_trx=_as_count), auer_power, "W"),
    "desset": ("desset", _params(DessetComponents), desset_power, "W"),
    "yan": ("yan", _params(YanSegments), yan_energy, "J"),
    # A missing carrier list means no carriers.
    "yu": ("yu",
           record(partial(YuParams, carriers=()),
                  {"p_cp_static_w": _as_amount}, {"carriers": _as_carriers}),
           yu_power, "W"),
    "tombaz": ("tombaz",
               _params(TombazParams, n_sectors=_as_count, eta_pa=as_float,
                       n_rf_chains=_as_count, dtx_enabled=_as_flag,
                       delta=as_float),
               tombaz_power, "W"),
    "fu-bb": ("fu", _fu_params, fu_bb_power, "W"),
    "fu-rf": ("fu", _fu_params, fu_rf_power, "W"),
}


def evaluate_model(name: str, mapping: Mapping[str, Any]) -> tuple[float, str]:
    """Evaluate a named model on a parameter mapping; returns (value, unit).

    A result that is not finite raises DomainError.
    """
    try:
        context, loader, evaluator, unit = MODELS[name]
    except KeyError:
        raise ConfigError(
            f"unknown model {name!r}; valid: " + ", ".join(sorted(MODELS))
        ) from None
    params = loader(context, mapping)
    try:
        value = evaluator(params)
    except OverflowError:       # a count too large to mix with floats
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{name}: result {value} is not finite")
    return value, unit
