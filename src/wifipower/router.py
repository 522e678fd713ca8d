"""Power-packet transmission policies and the comparison schemes.

The router keeps a quiet channel warm for harvesters by pacing
superfluous UDP broadcast frames ("power packets") onto it, and backs
off the moment real traffic queues up: a power packet is dropped at
admission whenever the interface's pending queue depth is at or above a
threshold. High-bit-rate power packets occupy the air only briefly,
which is what makes the default policy fair (better than equal-share)
to neighboring networks.

Schemes compared throughout the test and demo suite:
  Baseline    no power traffic at all, beacons only
  BlindUDP    saturating broadcast at 1 Mbps, no queue gate
  NoQueue     broadcast at 54 Mbps, no queue gate
  PoWiFi      broadcast at 54 Mbps, queue-depth gate enabled
  PoWiFiSlow  as PoWiFi but paced at 500 us
  EqualShare  broadcast at the neighbor's bit rate, no gate (models a
              router taking exactly one equal share of the medium)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from . import mac
from .errors import ConfigError

POWER_CHANNELS = (1, 6, 11)

SCHEME_NAMES = ("Baseline", "BlindUDP", "NoQueue", "PoWiFi", "PoWiFiSlow", "EqualShare")


@dataclass(frozen=True)
class PowerPolicy:
    """Pacing and admission parameters of one channel's power source."""

    inter_packet_delay_us: float = 100.0
    packet_size_bytes: int = 1500
    rate_mbps: float = 54.0
    queue_threshold: int = 5
    gate_enabled: bool = True

    def __post_init__(self) -> None:
        if self.inter_packet_delay_us <= 0:
            raise ConfigError("inter-packet delay must be > 0 us")
        if self.packet_size_bytes < 1:
            raise ConfigError("packet size must be >= 1 byte")
        if self.queue_threshold < 1:
            raise ConfigError("queue threshold must be >= 1 frame")
        mac.payload_airtime_us(self.packet_size_bytes, self.rate_mbps)

    @property
    def gate_threshold(self) -> Optional[int]:
        """Queue depth at which power packets drop; None when ungated."""
        return self.queue_threshold if self.gate_enabled else None


@dataclass(frozen=True)
class Scheme:
    """A comparison scheme; EqualShare's rate may stay None until the
    neighbor pair's bit rate is known."""

    name: str
    equal_share_rate_mbps: Optional[float] = None

    def __post_init__(self) -> None:
        if self.name not in SCHEME_NAMES:
            raise ConfigError(f"unknown scheme {self.name!r}")


def power_gate(queue_depth: int, policy: PowerPolicy) -> bool:
    """Admission decision for one power packet: True admits.

    Drops when the pending queue depth is at or above the threshold
    (depth 5 against threshold 5 is a drop), or always admits with the
    gate disabled.
    """
    if queue_depth < 0:
        raise ConfigError("queue depth cannot be negative")
    return mac.gate_admits(queue_depth, policy.gate_threshold)


def next_power_packet_time(t_last_emit_us: float, policy: PowerPolicy) -> float:
    """Emission instant of the packet after one emitted at t_last_emit."""
    if t_last_emit_us < 0:
        raise ConfigError("emission time cannot be negative")
    return t_last_emit_us + policy.inter_packet_delay_us


def configure_scheme(
    scheme: Scheme,
    base: Optional[PowerPolicy] = None,
    channels: tuple[int, ...] = POWER_CHANNELS,
) -> dict[int, Optional[PowerPolicy]]:
    """Per-channel power policy for a scheme (None means no power traffic).

    `base` carries any operator overrides (delay, size, threshold); the
    scheme then fixes rate and gating on top of it.
    """
    base = base or PowerPolicy()
    if scheme.name == "Baseline":
        per = None
    elif scheme.name == "BlindUDP":
        per = replace(base, rate_mbps=1.0, gate_enabled=False)
    elif scheme.name == "NoQueue":
        per = replace(base, rate_mbps=54.0, gate_enabled=False)
    elif scheme.name == "PoWiFi":
        per = replace(base, rate_mbps=54.0, gate_enabled=True)
    elif scheme.name == "PoWiFiSlow":
        per = replace(base, rate_mbps=54.0, gate_enabled=True, inter_packet_delay_us=500.0)
    else:  # EqualShare: match the neighbor pair's bit rate, gate off
        if scheme.equal_share_rate_mbps is None:
            raise ConfigError("EqualShare rate is unresolved; no neighbor rate known")
        per = replace(base, rate_mbps=scheme.equal_share_rate_mbps, gate_enabled=False)
    return {ch: per for ch in channels}


def power_flow_spec(station_id: str, policy: PowerPolicy) -> mac.FlowSpec:
    """The MAC-level flow implementing a channel's power source."""
    return mac.FlowSpec(
        name=f"{station_id}.power",
        kind="power_broadcast",
        pacing="paced",
        size_bytes=policy.packet_size_bytes,
        rate_mbps=policy.rate_mbps,
        interval_us=policy.inter_packet_delay_us,
        gate_threshold=policy.gate_threshold,
    )


def throughput_series(
    trace: mac.ChannelTrace, flow: str, bin_ms: float = 500.0
) -> list[float]:
    """Delivered payload Mbps of one flow per time bin.

    A frame counts toward the bin its transmission starts in, placed by
    `mac.bin_sums` as occupancy bins are.
    """
    if bin_ms <= 0:
        raise ConfigError("bin width must be > 0 ms")
    bin_us = bin_ms * 1000.0
    n_bins = max(1, int(trace.duration_us // bin_us))
    frame_bits = _per_code(trace, flow, lambda row: row.size_bytes * 8.0)
    bits, _ = mac.bin_sums(trace, frame_bits, bin_us, n_bins)
    return [b / bin_us for b in bits]  # bits per us == Mbps


def burst_completion_times_ms(
    trace: mac.ChannelTrace, flow: str, period_us: float, frames_per_burst: int
) -> list[float]:
    """Completion time of each fully delivered burst, in milliseconds.

    A burst issued at k*period completes when its last frame finishes;
    bursts the run cut off before completion are skipped.
    """
    if period_us <= 0 or frames_per_burst < 1:
        raise ConfigError("burst period and size must be positive")
    busy = _per_code(trace, flow, lambda row: row.busy_time_us)
    done: dict[int, tuple[int, float]] = {}
    for t, c in zip(trace.starts, trace.codes):
        if busy[c] is None:
            continue
        # Frames of burst k are issued at exactly k*period; attribute by
        # issue order since delivery order preserves FIFO within a flow.
        k_seen = done.setdefault(-1, (0, 0.0))[0]
        burst_idx = k_seen // frames_per_burst
        done[-1] = (k_seen + 1, 0.0)
        end = t + busy[c]
        prev = done.get(burst_idx, (0, 0.0))
        done[burst_idx] = (prev[0] + 1, max(prev[1], end))
    out = []
    for k in sorted(k for k in done if k >= 0):
        n, end = done[k]
        if n == frames_per_burst:
            out.append((end - k * period_us) / 1000.0)
    return out


def _per_code(trace: mac.ChannelTrace, flow: str, value) -> list:
    """`value(row)` for each trace code of a delivered frame of `flow`,
    None for every other code."""
    return [
        value(row) if row.flow == flow and row.outcome == "delivered" else None
        for row in trace.rows
    ]
