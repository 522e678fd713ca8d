"""Conducted-power limits and directional gain for 2.4 GHz ISM transmitters.

Digitally modulated intentional radiators in 2400-2483.5 MHz are limited
to 1 W (30 dBm) of conducted output power, reduced dB-for-dB for every
dB of directional antenna gain above 6 dBi:

    P_max = 30 dBm            if G_dir <= 6 dBi
    P_max = 36 dBm - G_dir    if G_dir >  6 dBi

For multi-antenna transmitters the directional gain depends on whether
the per-antenna signals are correlated (beamforming) or uncorrelated
(spatial multiplexing):

    correlated:    G_dir = G_ant + 10*log10(N_ant)
    uncorrelated:  G_dir = G_ant

and conducted power is always summed across antennas in linear units.

The consequence, exposed by delivered_power_at_target(), is that for
antennas of 6 dBi or more a perfectly coherent beamforming array gains
exactly what the mandated power backoff takes away, so beamforming can
never deliver more power to a target than uncorrelated transmission,
and strictly less as soon as the array is imperfect.

The compliance quantity here is maximum conducted output power measured
by averaging, not the peak-detector variant; the averaged method is the
favorable one for high peak-to-average waveforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import rf
from .units import Distance, Frequency, GainDbi, PowerDbm

#: Gain at or below which no power backoff applies.
GAIN_BREAKPOINT_DBI = 6.0
BASE_LIMIT_DBM = 30.0


@dataclass(frozen=True)
class TxPlan:
    """A multi-antenna transmitter description.

    total_conducted is the conducted output power summed across all
    antennas (linear-domain sum). beamforming_efficiency is the fraction
    of the ideal coherent array gain actually realized; it is only
    meaningful for correlated plans.
    """

    n_ant: int
    g_ant: GainDbi
    total_conducted: PowerDbm
    correlated: bool = False
    beamforming_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.n_ant < 1:
            raise ValueError(f"n_ant must be >= 1, got {self.n_ant}")
        if not (0.0 < self.beamforming_efficiency <= 1.0):
            raise ValueError(
                f"beamforming_efficiency must be in (0, 1], got "
                f"{self.beamforming_efficiency}"
            )


@dataclass(frozen=True)
class ComplianceReport:
    g_dir: GainDbi
    allowed_total: PowerDbm
    actual_total: PowerDbm
    margin_db: float
    compliant: bool

    def as_text(self) -> str:
        lines = [
            f"g_dir_dbi={self.g_dir.value:.4f}",
            f"allowed_total_dbm={self.allowed_total.value:.4f}",
            f"actual_total_dbm={self.actual_total.value:.4f}",
            f"margin_db={self.margin_db:.4f}",
            f"compliant={'yes' if self.compliant else 'no'}",
        ]
        return "\n".join(lines)


def max_conducted_power(g_dir: GainDbi) -> PowerDbm:
    """30 dBm up to 6 dBi of directional gain, 36 - G_dir beyond.

    Continuous at the 6 dBi breakpoint (both branches give 30 dBm) and
    non-increasing in gain.
    """
    if g_dir.value <= GAIN_BREAKPOINT_DBI:
        return PowerDbm(BASE_LIMIT_DBM)
    return PowerDbm(BASE_LIMIT_DBM + GAIN_BREAKPOINT_DBI - g_dir.value)


def directional_gain(g_ant: GainDbi, n_ant: int, correlated: bool) -> GainDbi:
    """G_ant + 10*log10(N_ant) for correlated signals, G_ant otherwise."""
    if n_ant < 1:
        raise ValueError(f"n_ant must be >= 1, got {n_ant}")
    if correlated:
        return GainDbi(g_ant.value + 10.0 * math.log10(n_ant))
    return GainDbi(g_ant.value)


def check_compliance(plan: TxPlan) -> ComplianceReport:
    """Evaluate a plan against the conducted-power limit."""
    g_dir = directional_gain(plan.g_ant, plan.n_ant, plan.correlated)
    allowed = max_conducted_power(g_dir)
    margin = allowed.value - plan.total_conducted.value
    return ComplianceReport(
        g_dir=g_dir,
        allowed_total=allowed,
        actual_total=plan.total_conducted,
        margin_db=margin,
        compliant=margin >= 0.0,
    )


def plan_eirp(plan: TxPlan) -> PowerDbm:
    """EIRP toward the array focus with conducted power capped legally.

    Uncorrelated antennas add no coherent gain at any point in space, so
    EIRP is capped_total + G_ant. A correlated array focuses
    10*log10(N_ant * eta) dB of additional gain on the target, eta being
    the beamforming efficiency.
    """
    capped = min(plan.total_conducted.value, check_compliance(plan).allowed_total.value)
    if plan.correlated:
        array_gain = 10.0 * math.log10(plan.n_ant * plan.beamforming_efficiency)
        return PowerDbm(capped + plan.g_ant.value + array_gain)
    return PowerDbm(capped + plan.g_ant.value)


def delivered_power_at_target(
    plan: TxPlan,
    g_rx: GainDbi,
    d: Distance,
    f: Frequency,
    wall: Optional[rf.WallMaterial] = None,
) -> PowerDbm:
    """Power at a receiver when the plan transmits at its legal maximum.

    For g_ant >= 6 dBi this makes the beamforming-no-better statement
    literally true: a correlated plan with eta = 1 delivers exactly the
    uncorrelated value (the mandated backoff 10*log10(N) cancels the
    coherent array gain 10*log10(N)), and any eta < 1 delivers strictly
    less. Below 6 dBi a small correlated array may escape backoff
    entirely, so no such identity is claimed there.
    """
    link = rf.LinkGeometry(d, f, wall or rf.WallMaterial.NONE)
    return rf.received_power(plan_eirp(plan), g_rx, link)
