"""Unit-tagged scalars for RF power arithmetic.

Powers are carried in dBm everywhere and converted to linear milliwatts
only where they are summed, by `mw_sum_dbm`, the one linear power sum.
The wrappers define no arithmetic: adding two dBm values is meaningless
and raises, and a budget step works on `.value` floats. A silent
dB/linear mix-up corrupts every downstream link-budget and harvesting
number, which is why these wrappers exist at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

METERS_PER_FOOT = 0.3048
FEET_PER_METER = 1.0 / METERS_PER_FOOT


def _require_finite(name: str, value: float) -> None:
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True, order=True)
class PowerDbm:
    """Power in decibel-milliwatts.

    -inf is permitted as the representation of exactly zero linear power
    (an idle channel); every other non-finite value is rejected.
    """

    value: float

    def __post_init__(self) -> None:
        if math.isnan(self.value) or self.value == math.inf:
            raise ValueError(f"PowerDbm must be finite or -inf, got {self.value!r}")


@dataclass(frozen=True, order=True)
class PowerMw:
    """Linear power in milliwatts, non-negative."""

    value: float

    def __post_init__(self) -> None:
        _require_finite("PowerMw", self.value)
        if self.value < 0:
            raise ValueError(f"PowerMw must be >= 0, got {self.value!r}")


@dataclass(frozen=True, order=True)
class GainDbi:
    """Antenna gain in dB relative to an isotropic radiator."""

    value: float

    def __post_init__(self) -> None:
        _require_finite("GainDbi", self.value)


@dataclass(frozen=True, order=True)
class Frequency:
    """Carrier frequency in hertz, strictly positive."""

    hz: float

    def __post_init__(self) -> None:
        _require_finite("Frequency", self.hz)
        if self.hz <= 0:
            raise ValueError(f"Frequency must be > 0 Hz, got {self.hz!r}")


@dataclass(frozen=True, order=True)
class Distance:
    """Distance in meters.

    Zero is allowed only as the documented "no usable range" sentinel
    returned by range searches; propagation math validates d > 0 itself.
    """

    meters: float

    def __post_init__(self) -> None:
        _require_finite("Distance", self.meters)
        if self.meters < 0:
            raise ValueError(f"Distance must be >= 0 m, got {self.meters!r}")

    @classmethod
    def from_feet(cls, feet: float) -> "Distance":
        return cls(feet * METERS_PER_FOOT)

    @property
    def feet(self) -> float:
        return self.meters * FEET_PER_METER


def dbm_to_mw(p: PowerDbm) -> PowerMw:
    """10^(p/10): 0 dBm is 1 mW, 30 dBm is 1 W. -inf maps to 0 mW."""
    if p.value == -math.inf:
        return PowerMw(0.0)
    return PowerMw(10.0 ** (p.value / 10.0))


def mw_to_dbm(p: PowerMw) -> PowerDbm:
    """10*log10(p). Zero or negative linear power has no dBm value."""
    if p.value <= 0:
        raise ValueError(f"cannot express {p.value!r} mW in dBm (log of non-positive)")
    return PowerDbm(10.0 * math.log10(p.value))


def mw_sum_dbm(values_mw: Iterable[float]) -> PowerDbm:
    """Milliwatt powers added left to right (`sum_in_order`), in dBm.

    The one linear power sum: the total of powers arriving together at
    one receiver, never an addition of dB figures. A total of zero
    (nothing on the air) is -inf dBm.
    """
    total = sum_in_order(values_mw)
    return mw_to_dbm(PowerMw(total)) if total > 0 else PowerDbm(-math.inf)


def sum_in_order(values: Iterable[float]) -> float:
    """Add the values left to right, one rounding per addition.

    Since CPython 3.12 the builtin `sum` of floats compensates for
    rounding error (`sum([1e16, 1.0, -1e16])` is 1.0 there and 0.0 on
    3.10 and 3.11), so its last bits depend on the interpreter. Every
    float total that reaches a report goes through this helper instead,
    which keeps the outputs byte-identical across versions. Like `sum`,
    it starts from the integer 0, so an empty input gives 0.
    """
    total = 0
    for v in values:
        total += v
    return total
