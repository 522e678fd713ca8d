"""Deterministic desk-scale simulator of power delivery over Wi-Fi.

Subsystems:
  units      unit-tagged scalars (dBm, mW, dBi, Hz, meters), linear power sum
  fcc        conducted-power limits and multi-antenna directional gain
  rf         free-space propagation, wall loss, range inversion
  harvester  rectifier / storage / sensor-load pipeline
  mac        event-driven CSMA/CA engine and channel occupancy metrics
  router     power-packet policies and the comparison schemes
  scenario   config files, deterministic runs, sweeps, report CSVs
"""

from .units import (
    Distance,
    Frequency,
    GainDbi,
    PowerDbm,
    PowerMw,
    dbm_to_mw,
    mw_to_dbm,
)
from .errors import ConfigError, TraceFormatError

__all__ = [
    "Distance",
    "Frequency",
    "GainDbi",
    "PowerDbm",
    "PowerMw",
    "dbm_to_mw",
    "mw_to_dbm",
    "ConfigError",
    "TraceFormatError",
]

__version__ = "0.1.0"
