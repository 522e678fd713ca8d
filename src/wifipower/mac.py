"""Event-driven CSMA/CA engine for three independent 2.4 GHz channels.

Stations with pending frames wait DIFS, draw a uniform backoff in
[0, CW] slots (counters decrement only while the medium is idle and
freeze while it is busy), and transmit when their counter expires.
Simultaneous expiry is a collision: unicast frames double CW and
retransmit up to a retry limit, broadcast frames are simply lost.
A delivered unicast holds the channel for SIFS plus the ACK.

One deliberate extension beyond plain per-frame DCF: a station whose
just-finished frame was a broadcast, whose next head-of-queue frame is
also a broadcast, and which faces no other contender, sends that next
frame back to back. This models how access points drain queued
broadcast traffic in bursts, and it is what lets a saturated
power-packet source hold a quiet channel near-continuously while still
degrading gracefully to fair per-frame contention the moment any other
station has traffic.

The engine steps from one channel event to the next, and keeps each
step cheap without changing any output. A round is one scan over the
stations, the same code whether it opens the round or takes in a
latecomer that arrives before the earliest backoff expiry. A station
pulls its frame arrivals only while it has no frame in service (its
queue depth cannot fall until it takes its next frame, so every gate
decision comes out the same as at the arrival instant), and a pull
counts a run of one flow's arrivals in closed form, one scan of the
flows per change of flow. A broadcast burst is sent as a run: while
its sender is the only station with a frame, one loop sends its frames
back to back, each starting where the last one ended, with no rescan,
until another station or another flow of the sender may have a frame,
the queue empties or the window ends. And a backoff is drawn straight
from the station's `getrandbits` with the rejection loop that
`random.Random.randrange` runs, so the stream is bit-identical to
`randrange(cw + 1)`.

A trace is stored as columns. Each ChannelTrace holds an `array('d')`
of frame start times, an `array('I')` of frame codes, and one FrameRow
per distinct (station, flow, kind, size, rate, outcome, payload airtime,
busy time). Each flow registers its delivered and collided code in the
trace as the engine builds it (`_FlowRt`, from the flow's spec), and
the loop appends just a start time and a code per frame: 13.0 bytes
of heap per frame on the first seed-1 `home-contended` benchmark input
(`mac.heap_bytes_per_frame`). The engine and
`parse_trace` fill a trace one way, a `code` per row and an `append` per
frame. The metrics look values up once per code and walk the two
columns, and the export formats one line tail per row
(`format_trace_tail`). `ChannelTrace.records` reads the frames back as
FrameRecords, built one at a time. A flow's counters live only in the
FlowStats that its trace reports, and the engine counts into it.

`run_mac` keeps the traces of its last distinct input, so a sweep whose
variable leaves the MAC input unchanged simulates it once per seed.
Every call returns its own copies, which the caller may change freely;
the kept traces are a second copy, so a call holds about twice the heap
per frame given above.

Occupancy is accounted exactly like the standard capture-analysis
pipeline: the payload airtime of a frame is size * 8 / rate and the
occupancy of a window is the summed payload airtime of the frames
starting in it over the window length. PHY preamble, IFS, backoff and
ACK time make the channel busy but are not occupancy.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from array import array
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import ConfigError, TraceFormatError

#: PHY bit rates accepted for frames, in Mbps. The 802.11b/g basic and
#: OFDM set, plus 16 Mbps which appears as a comparison point in the
#: neighbor-fairness experiments.
RATE_SET_MBPS = (1.0, 2.0, 5.5, 6.0, 9.0, 11.0, 12.0, 16.0, 18.0, 24.0, 36.0, 48.0, 54.0)

VALID_CHANNELS = (1, 6, 11)

BROADCAST_KINDS = frozenset({"power_broadcast", "beacon"})
FRAME_KINDS = frozenset(
    {"client_data", "power_broadcast", "beacon", "neighbor_data", "ack"}
)

BEACON_SIZE_BYTES = 300
BEACON_RATE_MBPS = 1.0
BEACON_INTERVAL_US = 102_400.0

#: Largest frame a flow sends, of any kind: data and power frames default to it.
MAX_FRAME_BYTES = 1500


@dataclass(frozen=True)
class MacParams:
    """802.11g ERP-OFDM medium-access constants."""

    slot_us: float = 9.0
    sifs_us: float = 10.0
    cw_min: int = 15
    cw_max: int = 1023
    phy_overhead_us: float = 24.0
    ack_airtime_us: float = 44.0
    retry_limit: int = 7

    def __post_init__(self) -> None:
        # a frame holds the channel a positive time, and a freeze divides by the slot
        for name in ("slot_us", "sifs_us", "phy_overhead_us", "ack_airtime_us"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0")
        if self.slot_us == 0.0:
            raise ConfigError("slot_us must be > 0")
        for name, v in (("cw_min", self.cw_min), ("cw_max", self.cw_max)):
            if v < 1 or (v & (v + 1)) != 0:
                raise ConfigError(f"{name} must be one less than a power of two")
        if self.cw_max < self.cw_min:
            raise ConfigError("cw_max must be >= cw_min")

    @property
    def difs_us(self) -> float:
        """DIFS: SIFS plus two slots."""
        return self.sifs_us + 2 * self.slot_us


def payload_airtime_us(size_bytes: int, rate_mbps: float) -> float:
    """Airtime of the frame body: size * 8 / rate (us when rate in Mbps)."""
    if size_bytes < 1:
        raise ConfigError(f"frame size must be >= 1 byte, got {size_bytes}")
    if rate_mbps not in RATE_SET_MBPS:
        raise ConfigError(f"rate {rate_mbps} Mbps not in the allowed rate set")
    return size_bytes * 8.0 / rate_mbps


@dataclass(slots=True)
class FrameRecord:
    t_start_us: float
    channel: int
    station_id: str
    kind: str
    size_bytes: int
    rate_mbps: float
    outcome: str  # delivered | collided
    payload_airtime_us: float
    busy_time_us: float
    flow: str = ""


class FrameRow(NamedTuple):
    """Every field of a FrameRecord but its start time."""

    channel: int
    station_id: str
    kind: str
    size_bytes: int
    rate_mbps: float
    outcome: str
    payload_airtime_us: float
    busy_time_us: float
    flow: str


@dataclass(slots=True)
class FlowStats:
    admitted: int = 0
    dropped_gate: int = 0
    delivered: int = 0
    lost: int = 0


class ChannelTrace:
    """One channel's frames, stored as columns.

    Frame k starts at `starts[k]` and has the fields of `rows[codes[k]]`.
    A channel repeats a few dozen distinct rows over tens of thousands of
    frames, so a frame costs one double and one code (12 bytes) instead
    of a FrameRecord and its list slot (~143 bytes). Start times are
    kept as doubles, and rows that compare equal share a code.

    A trace starts empty; `code` registers a row and `append` adds a
    frame. `records` reads the frames back as FrameRecords.
    """

    def __init__(self, channel: int, duration_us: float):
        self.channel = channel
        self.duration_us = duration_us
        self.flow_stats: dict[str, FlowStats] = {}
        self.starts = array("d")
        self.codes = array("I")  # one code per frame fits even if every row differs
        self.rows: list[FrameRow] = []
        self._code_of: dict[FrameRow, int] = {}

    def code(self, row: FrameRow) -> int:
        """The code of `row`, registered on first sight."""
        code = self._code_of.get(row)
        if code is None:
            code = self._code_of[row] = len(self.rows)
            self.rows.append(row)
        return code

    def append(self, t_start_us: float, code: int) -> None:
        self.starts.append(t_start_us)
        self.codes.append(code)

    def copy(self) -> "ChannelTrace":
        """A trace equal to this one that shares nothing mutable with it."""
        out = ChannelTrace(self.channel, self.duration_us)
        out.flow_stats = {name: replace(st) for name, st in self.flow_stats.items()}
        out.starts = self.starts[:]
        out.codes = self.codes[:]
        out.rows = self.rows[:]
        out._code_of = dict(self._code_of)
        return out

    @property
    def records(self) -> "FrameRecords":
        return FrameRecords(self)


class FrameRecords:
    """Read-only view of a trace's frames; each FrameRecord is built as
    it is reached and none is kept."""

    __slots__ = ("_trace",)

    def __init__(self, trace: ChannelTrace):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.starts)

    def __iter__(self) -> Iterator[FrameRecord]:
        rows = self._trace.rows
        for t, c in zip(self._trace.starts, self._trace.codes):
            yield FrameRecord(t, *rows[c])


def occupancy(trace: ChannelTrace, window: tuple[float, float]) -> float:
    """Fraction of the window attributed to frame payload airtime.

    Sums size*8/rate over every record (collided included, matching a
    capture that counts retransmissions) whose transmission starts
    inside the window.
    """
    t0, t1 = window
    length = window_length(window)
    payload = [row.payload_airtime_us for row in trace.rows]
    total = 0.0
    for t, c in zip(trace.starts, trace.codes):
        if t0 <= t < t1:
            total += payload[c]
    return total / length


def window_length(window: tuple[float, float]) -> float:
    """Length of an occupancy window; empty windows are rejected."""
    t0, t1 = window
    if t1 <= t0:
        raise ConfigError(f"empty occupancy window ({t0}, {t1})")
    return t1 - t0


def bin_count(window_us: float, bin_us: float) -> int:
    """Number of report bins of `bin_us` that cover a window: the fewest
    n with n * bin_us >= window_us, so every bin starts inside it."""
    n = max(1, math.ceil(window_us / bin_us) - 1)
    while n * bin_us < window_us:
        n += 1
    return n


def bin_means(sums: Sequence[float], bin_us: float, window_us: float) -> list[float]:
    """Each bin's sum over the bin's length inside the window."""
    return [v / (min((i + 1) * bin_us, window_us) - i * bin_us) for i, v in enumerate(sums)]


def bin_at(t: float, bin_us: float, window_us: float) -> tuple[int, float, float]:
    """Bin i of the bins of `bin_us` over a window that holds `t`, and its
    edges lo <= t < hi: bin i is i*bin_us <= t < (i+1)*bin_us cut at the
    window end, the edge test of `occupancy`, which corrects the floor
    division where it lands one bin off an edge. A t outside the window
    (or NaN) is in no bin and gets i = -1 and empty edges."""
    if not 0.0 <= t < window_us:
        return -1, 0.0, 0.0
    i = int(t // bin_us)
    while i * bin_us > t:
        i -= 1
    while (i + 1) * bin_us <= t:
        i += 1
    return i, i * bin_us, min((i + 1) * bin_us, window_us)


def on_air_us(trace: ChannelTrace, stations: Iterable[str], phy_overhead_us: float) -> float:
    """On-air time of the frames `stations` sent (payload plus PHY, not a
    delivered unicast's SIFS/ACK tail), added in frame order; others add 0.0."""
    keep = set(stations)
    air = [min(row.busy_time_us, row.payload_airtime_us + phy_overhead_us)
           if row.station_id in keep else 0.0 for row in trace.rows]
    on = 0.0
    for c in trace.codes:
        on += air[c]
    return on


class ChannelSums(NamedTuple):
    """One channel's report sums, from `channel_sums`."""

    occupancy_us: list[float]  # router payload airtime per occupancy bin
    payload_us: float  # router payload airtime over 0 <= t < duration
    bits: dict[str, list[float]]  # flow -> delivered payload bits per throughput bin


def channel_sums(
    trace: ChannelTrace, stations: Iterable[str], occupancy_bin_us: float,
    throughput_bin_us: float,
) -> ChannelSums:
    """Every report sum of one channel, in one pass over its frames.

    The frames of `stations` (the router's) make the occupancy sums, and
    each flow's delivered frames make its bits.
    Every sum adds in frame order, so a bin's sum over its length is
    `occupancy` of its window, float for float. Frames in start-time
    order mostly share the previous frame's bins, so those are tried
    before `bin_at` looks a bin up.
    """
    duration = trace.duration_us
    keep = set(stations)
    n_occ = bin_count(duration, occupancy_bin_us)
    n_tput = bin_count(duration, throughput_bin_us)
    occ = [0.0] * (n_occ + 1)  # slot -1 takes the frames in no bin
    bits = {row.flow: [0.0] * (n_tput + 1) for row in trace.rows}
    # per code: router payload (None for other stations), and the bins
    # of a delivered frame's flow (None if not delivered)
    per_code = [
        (row.payload_airtime_us if row.station_id in keep else None,
         row.size_bytes * 8.0, bits[row.flow] if row.outcome == "delivered" else None)
        for row in trace.rows
    ]
    payload = 0.0
    oi, olo, ohi = ti, tlo, thi = 0, 0.0, 0.0
    for t, c in zip(trace.starts, trace.codes):
        v, b, series = per_code[c]
        if v is not None:
            if 0.0 <= t < duration:
                payload += v
            if not olo <= t < ohi:
                oi, olo, ohi = bin_at(t, occupancy_bin_us, duration)
            occ[oi] += v
        if series is not None:
            if not tlo <= t < thi:
                ti, tlo, thi = bin_at(t, throughput_bin_us, duration)
            series[ti] += b
    return ChannelSums(occ[:-1], payload, {f: b[:-1] for f, b in bits.items()})


# ---------------------------------------------------------------------------
# Traffic sources


@dataclass(frozen=True)
class FlowSpec:
    """A frame source feeding one station's transmit queue.

    With `interval_us` None the flow is backlogged: a frame is always
    available. Otherwise `frames_per_burst` frames arrive together at
    `start_us + k * interval_us` for k = 0, 1, ...; with a
    `gate_threshold` each of them is admitted only while the station's
    total queue depth is below it (`gate_admits`), else dropped.
    """

    name: str
    kind: str  # frame kind
    size_bytes: int = MAX_FRAME_BYTES
    rate_mbps: float = 54.0
    interval_us: Optional[float] = None
    start_us: float = 0.0
    frames_per_burst: int = 1
    gate_threshold: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FRAME_KINDS:
            raise ConfigError(f"unknown frame kind {self.kind!r}")
        if self.interval_us is not None and not self.interval_us > 0:
            raise ConfigError(f"flow {self.name!r}: interval must be > 0 us")
        if self.frames_per_burst < 1:
            raise ConfigError(f"flow {self.name!r}: frames per burst must be >= 1")
        if self.gate_threshold is not None and self.gate_threshold < 1:
            raise ConfigError(f"flow {self.name!r}: gate threshold must be >= 1")
        if self.size_bytes > MAX_FRAME_BYTES:
            raise ConfigError(
                f"flow {self.name!r}: frames are limited to {MAX_FRAME_BYTES} bytes")
        payload_airtime_us(self.size_bytes, self.rate_mbps)


def gate_admits(queue_depth: int, gate_threshold: Optional[int], frames: int = 1) -> int:
    """The queue gate: how many of `frames` arriving in a row at a
    station whose pending queue holds `queue_depth` are admitted. Each is
    admitted while the depth, counting those admitted before it, is below
    the threshold (depth 5 against threshold 5 drops), and the rest drop;
    a flow without a threshold is never gated."""
    if gate_threshold is None:
        return frames
    room = gate_threshold - queue_depth
    if room <= 0:
        return 0
    return frames if frames < room else room


@dataclass(frozen=True)
class StationSpec:
    station_id: str
    channel: int
    flows: tuple[FlowSpec, ...] = ()
    is_ap: bool = False  # access points also emit beacons

    def __post_init__(self) -> None:
        if self.channel not in VALID_CHANNELS:
            raise ConfigError(
                f"station {self.station_id!r}: channel must be one of {VALID_CHANNELS}"
            )
        if not self.station_id:
            raise ConfigError("station id must be non-empty")


def station_seed(master_seed: int, station_id: str) -> int:
    """Substream seed for one station.

    Hash-derived so that adding or removing an unrelated station never
    perturbs another station's random stream.
    """
    digest = hashlib.sha256(f"{master_seed}/{station_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# Engine internals


class _FlowRt:
    """One flow in the engine. It registers its stats and the codes of
    its delivered and collided frames in the channel's trace; `codes`
    and `busy` are indexed by collision."""

    __slots__ = (
        "spec", "stats", "broadcast", "backlogged", "codes", "busy", "queued",
        # arrival k is at spec.start_us + k * spec.interval_us
        "emitted", "next_arrival",
    )

    def __init__(self, spec: FlowSpec, station_id: str, params: MacParams, trace: ChannelTrace):
        self.spec = spec
        self.stats = trace.flow_stats[spec.name] = FlowStats()
        self.broadcast = spec.kind in BROADCAST_KINDS
        self.backlogged = spec.interval_us is None
        payload_us = payload_airtime_us(spec.size_bytes, spec.rate_mbps)
        collided_us = params.phy_overhead_us + payload_us
        # a delivered unicast also holds SIFS + ACK
        delivered_us = collided_us
        if not self.broadcast:
            delivered_us += params.sifs_us + params.ack_airtime_us
        self.busy = (delivered_us, collided_us)
        self.codes = tuple(
            trace.code(FrameRow(
                trace.channel, station_id, spec.kind, spec.size_bytes, spec.rate_mbps,
                outcome, payload_us, busy, spec.name,
            ))
            for outcome, busy in zip(("delivered", "collided"), self.busy)
        )
        self.emitted = 0
        self.next_arrival = math.inf if self.backlogged else spec.start_us
        self.queued = 0


class _StationRt:
    __slots__ = (
        "flows", "backlogged", "getrandbits", "rr", "head", "ready_since",
        "backoff_slots", "expiry", "cw", "retries", "queued", "next_t",
    )

    def __init__(
        self, spec: StationSpec, master_seed: int, params: MacParams, trace: ChannelTrace
    ):
        flows = list(spec.flows)
        if spec.is_ap:
            flows.append(FlowSpec(
                name=f"{spec.station_id}.beacon", kind="beacon", size_bytes=BEACON_SIZE_BYTES,
                rate_mbps=BEACON_RATE_MBPS, interval_us=BEACON_INTERVAL_US,
            ))
        self.flows = [_FlowRt(f, spec.station_id, params, trace) for f in flows]
        self.backlogged = any(fl.backlogged for fl in self.flows)
        seed = station_seed(master_seed, spec.station_id)
        self.getrandbits = random.Random(seed).getrandbits
        self.rr = 0
        self.head: Optional[_FlowRt] = None  # flow of the frame in service
        self.ready_since = 0.0
        self.backoff_slots: Optional[int] = None
        self.expiry = math.inf  # backoff expiry in the current contention round
        self.cw = params.cw_min
        self.retries = 0
        self.queued = 0  # admitted frames waiting (excludes the head in service)
        # next unpulled arrival; current only while the station has no head
        self.next_t = min((fl.next_arrival for fl in self.flows), default=math.inf)

    def pull_arrivals(self, up_to: float) -> None:
        """Emit every arrival at or before `up_to`, in time order; at
        equal times the flow listed first goes first.

        The gate sees the station's total queue depth as it was at each
        arrival instant: the engine pulls only while the station is idle,
        and the depth cannot fall before it takes its next frame. Each
        pass scans the flows once for the earliest arrival and the next
        one after it, and admits a run of the earliest flow's arrivals
        through `gate_admits`. While the gate is open the run ends just
        before that next arrival; once it is shut the run goes through
        `up_to`, since nothing leaves the queue during a pull. A pass in
        which no other flow is due by `up_to` is the last. The run is
        counted by floor division, corrected against the
        `start + k * step` expression that times each arrival.
        """
        flows = self.flows
        queued = self.queued
        while True:
            t_next = t_second = math.inf
            for fl in flows:
                a = fl.next_arrival
                if a < t_next:
                    # the old earliest is listed first: it goes first at a tie
                    t_second, second_first = t_next, True
                    best, t_next = fl, a
                elif a < t_second:
                    t_second, second_first = a, False
            if t_next > up_to:
                break
            spec = best.spec
            gate = spec.gate_threshold
            end = up_to
            if t_second <= up_to and gate_admits(queued, gate):
                end = math.nextafter(t_second, -math.inf) if second_first else t_second
            start, step = spec.start_us, spec.interval_us
            last = int((end - start) // step)
            while start + (last + 1) * step <= end:
                last += 1
            while start + last * step > end:
                last -= 1
            frames = (last + 1 - best.emitted) * spec.frames_per_burst
            n = gate_admits(queued, gate, frames)
            best.queued += n
            best.stats.admitted += n
            best.stats.dropped_gate += frames - n
            queued += n
            best.emitted = last + 1
            a = best.next_arrival = start + best.emitted * step
            if t_second > up_to:
                t_next = a if a < t_second else t_second
                break
        self.queued = queued
        self.next_t = t_next

    def draw_backoff(self) -> int:
        """A uniform backoff in [0, cw] slots, drawn the way
        `random.Random.randrange(cw + 1)` draws it: take
        `(cw + 1).bit_length()` bits and redraw while the value exceeds
        cw. The stream is bit-identical to `randrange`'s without going
        through its generic argument checks."""
        cw = self.cw
        k = (cw + 1).bit_length()
        r = self.getrandbits(k)
        while r > cw:
            r = self.getrandbits(k)
        return r


def run_mac(
    stations: Sequence[StationSpec],
    duration_us: float,
    params: Optional[MacParams] = None,
    seed: int = 0,
) -> dict[int, ChannelTrace]:
    """Simulate all channels and return their frame traces.

    Channels are fully independent; station random substreams derive
    from (seed, station id) alone, so the same station behaves
    identically no matter what happens on other channels.

    The inputs are checked on every call. The traces of the last
    distinct input are kept, and each call returns copies of them.
    """
    params = params or MacParams()
    if duration_us <= 0:
        raise ConfigError("duration must be > 0")
    ids = [s.station_id for s in stations]
    if len(set(ids)) != len(ids):
        raise ConfigError("station ids must be unique")
    for f in (f for s in stations for f in s.flows if f.interval_us is not None):
        # past ~2**52 arrivals, consecutive start + k * step stop being distinct
        if duration_us / f.interval_us >= 2**52:
            raise ConfigError(f"flow {f.name!r}: over 2**52 arrivals in the MAC window")
    traces = _simulate(tuple(stations), duration_us, params, seed)
    return {ch: tr.copy() for ch, tr in traces.items()}


@functools.lru_cache(maxsize=1, typed=True)
def _simulate(
    stations: tuple[StationSpec, ...], duration_us: float, params: MacParams, seed: int
) -> dict[int, ChannelTrace]:
    traces: dict[int, ChannelTrace] = {}
    for ch in VALID_CHANNELS:
        chan_stations = [s for s in stations if s.channel == ch]
        if not chan_stations:
            continue
        traces[ch] = _run_channel(ch, chan_stations, duration_us, params, seed)
    return traces


def _run_channel(
    channel: int,
    specs: Sequence[StationSpec],
    duration_us: float,
    params: MacParams,
    seed: int,
) -> ChannelTrace:
    trace = ChannelTrace(channel=channel, duration_us=duration_us)
    stations = [_StationRt(s, seed, params, trace) for s in specs]
    append_start = trace.starts.append
    append_code = trace.codes.append
    difs = params.difs_us
    slot = params.slot_us
    cw_min = params.cw_min
    t = 0.0
    # the sender of the frame that just ended, if it was a delivered
    # broadcast: it may send its next broadcast back to back
    last_broadcaster: Optional[_StationRt] = None

    while t < duration_us:
        # Scan at t_scan for the stations with a frame to send, in station
        # order, and the earliest arrival at a station that stays idle.
        # Only a station without a head pulls and takes a head; the
        # `next_t` of one with a frame in service goes stale, unread. A
        # latecomer that arrives before the earliest expiry is scanned in
        # and joins with its own DIFS+backoff.
        t_scan = t
        t_win = math.inf  # stays inf when no contention round is fought
        while True:
            ready = []
            t_arr = math.inf
            for st in stations:
                if st.head is None:
                    if st.next_t <= t_scan:
                        st.pull_arrivals(t_scan)
                    if not (st.queued or st.backlogged):
                        if st.next_t < t_arr:
                            t_arr = st.next_t
                        continue
                    # the next frame, round-robin across flows
                    flows = st.flows
                    i = st.rr
                    while True:
                        fl = flows[i]
                        i += 1
                        if i == len(flows):
                            i = 0
                        if fl.queued:
                            fl.queued -= 1
                            st.queued -= 1
                            break
                        if fl.backlogged:
                            break
                    st.rr = i
                    st.head = fl
                    st.ready_since = t_scan
                    st.retries = 0
                ready.append(st)
            if not ready or (
                ready[0] is last_broadcaster and len(ready) == 1
                and last_broadcaster.head.broadcast
            ):
                break
            t_win = math.inf
            for st in ready:
                if st.backoff_slots is None:
                    st.backoff_slots = st.draw_backoff()
                origin = t if t >= st.ready_since else st.ready_since
                e = st.expiry = origin + difs + st.backoff_slots * slot
                if e < t_win:
                    t_win = e
                    winner = st
                elif e == t_win:
                    winner = None  # a collision
            if t_arr < t_win and t_arr < duration_us:
                t_scan = t_arr
                continue
            break

        if not ready:
            t = t_arr
            last_broadcaster = None
            continue

        if t_win == math.inf:
            # A broadcast run (see the module docstring): arrivals are
            # pulled at each frame start, as a rescan would pull them.
            st = last_broadcaster
            fl = st.head
            stop = t_arr if t_arr < duration_us else duration_us
            for other in st.flows:
                if other is not fl:
                    if other.queued or other.backlogged:
                        stop = t  # its frame may be next: send this one only
                    elif other.next_arrival < stop:
                        stop = other.next_arrival
            code = fl.codes[0]
            busy = fl.busy[0]
            stats = fl.stats
            while True:
                append_start(t)
                append_code(code)
                stats.delivered += 1
                t += busy
                if t >= stop:
                    break
                if st.next_t <= t:
                    st.pull_arrivals(t)
                if fl.queued:
                    fl.queued -= 1
                    st.queued -= 1
                elif not fl.backlogged:
                    break
            st.head = None
            continue

        if t_win >= duration_us:
            break
        collision = winner is None
        busy_end = t_win
        for st in ready:
            if st.expiry != t_win:
                # Losers freeze whatever whole slots they have not used.
                origin = t if t >= st.ready_since else st.ready_since
                consumed = int((t_win - origin - difs) / slot)
                if consumed > 0:
                    left = st.backoff_slots - consumed
                    st.backoff_slots = left if left > 0 else 0
                continue
            fl = st.head
            append_start(t_win)
            append_code(fl.codes[collision])
            if t_win + fl.busy[collision] > busy_end:
                busy_end = t_win + fl.busy[collision]
            st.backoff_slots = None
            if not collision:
                fl.stats.delivered += 1
                st.head = None
                st.cw = cw_min
            elif fl.broadcast:
                fl.stats.lost += 1
                st.head = None
            else:
                st.retries += 1
                if st.retries > params.retry_limit:
                    fl.stats.lost += 1
                    st.head = None
                    st.cw = cw_min
                else:
                    st.cw = min(2 * st.cw + 1, params.cw_max)
        t = busy_end
        last_broadcaster = winner if fl.broadcast else None

    # Arrivals after the last event still count as offered. No frame can
    # leave a queue before the window ends, so the gate sees the final
    # queue depth.
    last_instant = math.nextafter(duration_us, -math.inf)
    for st in stations:
        if st.next_t <= last_instant:
            st.pull_arrivals(last_instant)
    return trace

# ---------------------------------------------------------------------------
# Trace export / import


def format_trace_tail(row: FrameRow) -> str:
    """Everything of a trace line after its `repr(t_start_us)`."""
    return (
        f",{row.channel},{row.station_id},{row.kind},"
        f"{row.size_bytes},{row.rate_mbps:g},{row.outcome}"
    )


def export_trace(traces: Iterable[ChannelTrace]) -> str:
    """Line-per-record text form, ordered by channel then start time.

    A line is `repr(t_start_us)` followed by a tail that depends only on
    the frame's code, so each trace formats one tail per row and then
    joins start reprs with tails.
    """
    parts: list[str] = []
    for tr in sorted(traces, key=lambda x: x.channel):
        tails = [format_trace_tail(row) + "\n" for row in tr.rows]
        lines = [""] * (2 * len(tr.starts))
        lines[::2] = map(repr, tr.starts)
        lines[1::2] = map(tails.__getitem__, tr.codes)
        parts += lines
    return "".join(parts)


def parse_trace_line(raw: str, lineno: int) -> Optional[tuple]:
    """Validated fields of one trace line, or None for a blank or comment.

    Returns (t_start_us, channel, station_id, kind, size_bytes,
    rate_mbps, outcome). Errors carry the 1-based line number.
    """
    line = raw.strip()
    if not line or line.startswith("#"):
        return None
    parts = line.split(",")
    if len(parts) != 7:
        raise TraceFormatError(f"line {lineno}: expected 7 fields, got {len(parts)}")
    t_s, ch_s, station, kind, size_s, rate_s, outcome = parts
    try:
        t_start = float(t_s)
        ch = int(ch_s)
        size = int(size_s)
        rate = float(rate_s)
    except ValueError as exc:
        raise TraceFormatError(f"line {lineno}: {exc}") from exc
    if not 0.0 <= t_start < math.inf:
        raise TraceFormatError(f"line {lineno}: start time {t_s!r} must be finite and >= 0")
    if ch not in VALID_CHANNELS:
        raise TraceFormatError(f"line {lineno}: unknown channel {ch}")
    if kind not in FRAME_KINDS:
        raise TraceFormatError(f"line {lineno}: unknown frame kind {kind!r}")
    if rate not in RATE_SET_MBPS:
        raise TraceFormatError(f"line {lineno}: unknown rate token {rate_s!r}")
    if outcome not in ("delivered", "collided"):
        raise TraceFormatError(f"line {lineno}: unknown outcome {outcome!r}")
    if size < 1:
        raise TraceFormatError(f"line {lineno}: frame size must be >= 1")
    return t_start, ch, station, kind, size, rate, outcome


def parse_trace(
    text: str, duration_us: Optional[float] = None
) -> dict[int, ChannelTrace]:
    """Parse the line format back into per-channel traces, each sorted
    by start time (stable, so equal starts keep their line order).

    Errors carry the 1-based line number of the offending record.
    """
    traces: dict[int, ChannelTrace] = {}
    max_t = 0.0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = parse_trace_line(raw, lineno)
        if fields is None:
            continue
        t_start, ch, station, kind, size, rate, outcome = fields
        payload = size * 8.0 / rate
        tr = traces.get(ch)
        if tr is None:
            tr = traces[ch] = ChannelTrace(ch, 0.0)
        tr.append(t_start, tr.code(FrameRow(
            ch, station, kind, size, rate, outcome, payload, payload,
            f"{station}:{kind}",
        )))
        max_t = max(max_t, t_start + payload)
    out: dict[int, ChannelTrace] = {}
    for ch in sorted(traces):
        tr = out[ch] = traces[ch]
        tr.duration_us = duration_us if duration_us is not None else max_t
        starts, codes = tr.starts, tr.codes
        order = sorted(range(len(starts)), key=starts.__getitem__)
        tr.starts = array("d", [starts[k] for k in order])
        tr.codes = array("I", [codes[k] for k in order])
    return out
