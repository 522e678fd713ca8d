"""Trace helpers shared by the tests."""

from wifipower import mac


def trace_of(channel, duration_us, records):
    """A trace of `records` (FrameRecords) in the order given, filled the
    way the engine fills one: a code per row and an append per frame."""
    tr = mac.ChannelTrace(channel, duration_us)
    for r in records:
        tr.append(r.t_start_us, tr.code(mac.FrameRow(
            r.channel, r.station_id, r.kind, r.size_bytes, r.rate_mbps,
            r.outcome, r.payload_airtime_us, r.busy_time_us, r.flow,
        )))
    return tr
