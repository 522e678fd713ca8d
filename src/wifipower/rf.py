"""Free-space propagation and link-budget arithmetic.

Implements the path between a transmitter's EIRP and the RF power
incident on a harvester antenna: free-space path loss, a flat per-wall
attenuation, and the closed-form inversion used to answer "out to what
distance does the budget close".

Propagation is plain Friis (exponent 2). The short, line-of-sight
desk/room geometries this simulator targets close their budgets under
free space almost exactly, so no indoor fading model is layered on top.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .units import Distance, Frequency, GainDbi, PowerDbm

SPEED_OF_LIGHT = 299_792_458.0  # m/s
_FOUR_PI = 4.0 * math.pi

#: Center frequencies of the three non-overlapping 2.4 GHz channels.
CHANNEL_FREQ_HZ: dict[int, float] = {
    1: 2.412e9,
    6: 2.437e9,
    11: 2.462e9,
}

#: Minimum distance considered physically meaningful by range searches.
MIN_RANGE_M = 0.01


class NoSolutionError(ValueError):
    """The requested receive threshold cannot be met at any distance."""


class WallMaterial(enum.Enum):
    """Wall types between router and harvester.

    The attenuation figures are calibration parameters, not measured
    constants: they only have to preserve the physical ordering
    none <= glass <= wood <= hollow <= double sheetrock.
    """

    NONE = "none"
    DOUBLE_PANE_GLASS = "double_pane_glass"
    WOODEN_DOOR = "wooden_door"
    HOLLOW_WALL = "hollow_wall"
    DOUBLE_SHEETROCK = "double_sheetrock"

    @property
    def attenuation_db(self) -> float:
        return _WALL_DB[self]


_WALL_DB = {
    WallMaterial.NONE: 0.0,
    WallMaterial.DOUBLE_PANE_GLASS: 3.0,
    WallMaterial.WOODEN_DOOR: 5.0,
    WallMaterial.HOLLOW_WALL: 8.0,
    WallMaterial.DOUBLE_SHEETROCK: 11.0,
}


@dataclass(frozen=True)
class LinkGeometry:
    """One transmitter-to-harvester path."""

    distance: Distance
    freq: Frequency
    wall: WallMaterial = WallMaterial.NONE

    def __post_init__(self) -> None:
        if self.distance.meters <= 0:
            raise ValueError("link distance must be > 0 m")


def fspl_db(d: Distance, f: Frequency) -> float:
    """Free-space path loss: 20*log10(4*pi*d*f/c).

    Doubling the distance always costs 20*log10(2) = 6.0206 dB.
    """
    if d.meters <= 0:
        raise ValueError(f"distance must be > 0 m, got {d.meters!r}")
    if f.hz <= 0:
        raise ValueError(f"frequency must be > 0 Hz, got {f.hz!r}")
    return _fspl_db(d.meters, f.hz)


def _fspl_db(d_m: float, f_hz: float) -> float:
    return 20.0 * math.log10(_FOUR_PI * d_m * f_hz / SPEED_OF_LIGHT)


def received_power(eirp: PowerDbm, g_rx: GainDbi, link: LinkGeometry) -> PowerDbm:
    """Link budget: EIRP - FSPL - wall attenuation + receive gain."""
    return PowerDbm(received_dbm(
        eirp.value, g_rx.value, link.distance.meters, link.freq.hz, link.wall.attenuation_db))


def received_dbm(eirp: float, g_rx: float, d_m: float, f_hz: float, wall_db: float) -> float:
    """`received_power` in plain floats, on a link already checked."""
    return eirp - (_fspl_db(d_m, f_hz) + wall_db) + g_rx


def range_for_threshold(
    eirp: PowerDbm,
    g_rx: GainDbi,
    f: Frequency,
    threshold: PowerDbm,
    wall: WallMaterial = WallMaterial.NONE,
) -> Distance:
    """Distance at which the received power equals the threshold.

    Closed-form inversion of Friis:
        d = c / (4*pi*f) * 10^(FSPL/20),
        FSPL = EIRP + G_rx - wall - threshold.

    Raises NoSolutionError if the threshold is unreachable even at 1 cm.
    """
    fspl = eirp.value + g_rx.value - wall.attenuation_db - threshold.value
    d = (SPEED_OF_LIGHT / (_FOUR_PI * f.hz)) * 10.0 ** (fspl / 20.0)
    if d < MIN_RANGE_M:
        raise NoSolutionError(
            f"threshold {threshold.value} dBm unreachable at any distance >= 1 cm"
        )
    return Distance(d)
