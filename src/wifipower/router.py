"""The comparison schemes, the power source each gives the router,
and the per-flow throughput and burst metrics.

The router keeps a quiet channel warm for harvesters by pacing
superfluous UDP broadcast frames ("power packets") onto it, and backs
off the moment real traffic queues up: a power packet is dropped at
admission whenever the interface's pending queue depth is at or above a
threshold. High-bit-rate power packets occupy the air only briefly,
which is what makes the default policy fair (better than equal-share)
to neighboring networks. The source is a `mac.FlowSpec`: the engine
times its arrivals and applies its gate (`mac.gate_admits`).

Schemes compared throughout the test and demo suite, as `SCHEMES` holds
them:
  Baseline    no power traffic at all, beacons only
  BlindUDP    saturating broadcast at 1 Mbps, no queue gate
  NoQueue     broadcast at 54 Mbps, no queue gate
  PoWiFi      broadcast at 54 Mbps, queue-depth gate enabled
  PoWiFiSlow  as PoWiFi but paced at 500 us
  EqualShare  broadcast at the neighbor's bit rate, no gate (models a
              router taking exactly one equal share of the medium)
"""

from __future__ import annotations

from typing import Optional

from . import mac
from .errors import ConfigError

#: Scheme -> None (no power source) or (rate in Mbps, None for the
#: neighbor pair's; queue gate on; pacing in us, None for the operator's
#: delay). The one place a scheme's rate, gate and pacing are written.
SCHEMES: dict[str, Optional[tuple[Optional[float], bool, Optional[float]]]] = {
    "Baseline": None,
    "BlindUDP": (1.0, False, None),
    "NoQueue": (54.0, False, None),
    "PoWiFi": (54.0, True, None),
    "PoWiFiSlow": (54.0, True, 500.0),
    "EqualShare": (None, False, None),
}
SCHEME_NAMES = tuple(SCHEMES)


def power_flow(
    scheme: str,
    station_id: str,
    delay_us: float,
    size_bytes: int,
    queue_threshold: int,
    share_rate_mbps: Optional[float] = None,
) -> Optional[mac.FlowSpec]:
    """The MAC flow of a channel's power source under `scheme`, or None
    for Baseline.

    The operator's delay, size and threshold are taken as given, and
    `share_rate_mbps` is the neighbor pair's rate; `SCHEMES` fixes the
    rest.
    """
    row = SCHEMES[scheme]
    if row is None:
        return None
    rate, gated, pacing_us = row
    rate = share_rate_mbps if rate is None else rate
    if rate is None:
        raise ConfigError(f"{scheme} rate is unresolved; no neighbor rate known")
    return mac.FlowSpec(
        name=f"{station_id}.power",
        kind="power_broadcast",
        size_bytes=size_bytes,
        rate_mbps=rate,
        interval_us=delay_us if pacing_us is None else pacing_us,
        gate_threshold=queue_threshold if gated else None,
    )


def throughput_series(
    trace: mac.ChannelTrace, flow: str, bin_ms: float = 500.0
) -> list[float]:
    """Delivered payload Mbps of one flow per time bin, from
    `mac.channel_sums`, whose bins place a frame as occupancy bins do."""
    if bin_ms <= 0:
        raise ConfigError("bin width must be > 0 ms")
    bin_us = bin_ms * 1000.0
    sums = mac.channel_sums(trace, (), bin_us, bin_us)
    # a flow with no frame reads zero on the same grid as the occupancy bins
    bits = sums.bits.get(flow, [0.0] * len(sums.occupancy_us))
    return mac.bin_means(bits, bin_us, trace.duration_us)  # bits per us == Mbps


def burst_completion_times_ms(
    trace: mac.ChannelTrace, spec: mac.FlowSpec, retry_limit: int
) -> list[float]:
    """Completion time of each fully delivered burst of the unicast flow
    `spec`, in milliseconds, from one pass over the trace.

    A station keeps its head frame until it is delivered or lost, so a
    flow's frames finish in issue order, each in one delivery or in
    `retry_limit` + 1 collisions. Burst k, issued at start + k*period,
    is finished frames k*n to k*n + n - 1 (n frames per burst) and
    completes when its last frame ends; a burst that lost a frame, or
    that the run cut off, is skipped.
    """
    n = spec.frames_per_burst
    # per code: None for another flow's frames, else (busy time, delivered)
    per_code = [(row.busy_time_us, row.outcome == "delivered") if row.flow == spec.name
                else None for row in trace.rows]
    out = []
    finished = collisions = 0
    whole = True  # no frame of the burst so far was lost
    for t, c in zip(trace.starts, trace.codes):
        frame = per_code[c]
        if frame is None:
            continue
        if not frame[1]:
            collisions += 1
            if collisions <= retry_limit:
                continue
            whole = False
        collisions = 0
        finished += 1
        if finished % n == 0:
            if whole:
                k = finished // n - 1
                out.append((t + frame[0] - (spec.start_us + k * spec.interval_us)) / 1000.0)
            whole = True
    return out
