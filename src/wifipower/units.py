"""Unit-tagged scalars for RF power arithmetic.

Powers are carried in dBm everywhere and converted to linear milliwatts
only at summation points. The types are deliberately non-interchangeable:
adding two dBm values is meaningless and raises, adding an antenna gain
to a power yields a power, and so on. A silent dB/linear mix-up corrupts
every downstream link-budget and harvesting number, which is why these
wrappers exist at all.
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

    def __add__(self, other):
        if isinstance(other, GainDbi):
            return PowerDbm(self.value + other.value)
        if isinstance(other, PowerDbm):
            raise TypeError(
                "adding two PowerDbm values in the dB domain is forbidden; "
                "use sum_linear()"
            )
        if isinstance(other, (int, float)):
            return PowerDbm(self.value + float(other))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GainDbi):
            return PowerDbm(self.value - other.value)
        if isinstance(other, LossDb):
            # subtracting an attenuation is the usual budget step
            return PowerDbm(self.value - other.value)
        if isinstance(other, PowerDbm):
            # Difference of two powers is a plain dB margin.
            return self.value - other.value
        if isinstance(other, (int, float)):
            return PowerDbm(self.value - float(other))
        return NotImplemented


@dataclass(frozen=True, order=True)
class PowerMw:
    """Linear power in milliwatts. Non-negative and additive."""

    value: float

    def __post_init__(self) -> None:
        _require_finite("PowerMw", self.value)
        if self.value < 0:
            raise ValueError(f"PowerMw must be >= 0, got {self.value!r}")

    def __add__(self, other):
        if isinstance(other, PowerMw):
            return PowerMw(self.value + other.value)
        return NotImplemented


@dataclass(frozen=True, order=True)
class GainDbi:
    """Antenna gain in dB relative to an isotropic radiator."""

    value: float

    def __post_init__(self) -> None:
        _require_finite("GainDbi", self.value)

    def __add__(self, other):
        if isinstance(other, GainDbi):
            return GainDbi(self.value + other.value)
        if isinstance(other, (int, float)):
            return GainDbi(self.value + float(other))
        return NotImplemented


@dataclass(frozen=True, order=True)
class LossDb:
    """A positive-is-attenuation quantity in dB (path loss, wall loss)."""

    value: float

    def __post_init__(self) -> None:
        _require_finite("LossDb", self.value)


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


def sum_linear(ps: list[PowerDbm]) -> PowerDbm:
    """Sum powers the only valid way: convert to mW, add, convert back.

    Conducted output power of a multi-antenna transmitter is summed
    across antennas in linear units, never by adding dB figures; the sum
    is `mw_sum_dbm`'s, so powers that are all -inf dBm sum to -inf.
    """
    if not ps:
        raise ValueError("sum_linear needs at least one power")
    return mw_sum_dbm(dbm_to_mw(p).value for p in ps)


def mw_sum_dbm(values_mw: Iterable[float]) -> PowerDbm:
    """Milliwatt powers added left to right (`sum_in_order`), in dBm.

    The total of powers arriving together at one receiver; a total of
    zero (nothing on the air) is -inf dBm.
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
