"""Property tests of the trace text form over random traces.

Start times are finite doubles whose shortest repr needs all 17
significant digits, so a round trip that lost a bit would show.
"""

import math
import struct

from hypothesis import HealthCheck, given, settings, strategies as st

from wifipower import mac, scenario

from trace_helpers import trace_of

SETTINGS = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _digits(x: float) -> int:
    mantissa = repr(x).split("e")[0].replace(".", "").replace("-", "")
    return len(mantissa.lstrip("0"))


def _seventeen_digits(x: float) -> float:
    # in [10**k, 2 * 10**k) most doubles need 17 digits, the rest a step away
    while _digits(x) != 17:
        x = math.nextafter(x, math.inf)
    return x


@st.composite
def starts(draw):
    k = draw(st.integers(0, 7))
    # positive doubles order like their bit patterns
    bits = draw(st.integers(_bits(10.0**k), _bits(2 * 10.0**k) - 1))
    return _seventeen_digits(_float(bits))


station_ids = st.text("abcXYZ019_.-", min_size=1, max_size=6)


@st.composite
def traces(draw):
    """Per-channel traces in start-time order, as the engine writes them."""
    out = []
    channels = draw(st.lists(st.sampled_from(mac.VALID_CHANNELS), min_size=1,
                             max_size=3, unique=True))
    for ch in channels:
        frames = draw(st.lists(st.tuples(
            starts(),
            station_ids,
            st.sampled_from(sorted(mac.FRAME_KINDS)),
            st.integers(1, 2304),
            st.sampled_from(mac.RATE_SET_MBPS),
            st.sampled_from(("delivered", "collided")),
        ), min_size=1, max_size=40))
        frames.sort(key=lambda f: f[0])
        records = [
            mac.FrameRecord(t, ch, sid, kind, size, rate, outcome,
                            size * 8.0 / rate, size * 8.0 / rate + 24.0, f"{sid}:{kind}")
            for t, sid, kind, size, rate, outcome in frames
        ]
        out.append(trace_of(ch, records[-1].t_start_us, records))
    return out


def test_start_times_need_seventeen_digits():
    assert _digits(_seventeen_digits(1.0)) == 17
    assert _digits(0.1) == 1


@SETTINGS
@given(traces())
def test_export_parse_export_is_byte_identical(trs):
    text = mac.export_trace(trs)
    parsed = mac.parse_trace(text)
    assert mac.export_trace(parsed.values()) == text

    # and every field, the start time to the last bit, came back
    def fields(tr):
        return [(r.t_start_us, r.channel, r.station_id, r.kind, r.size_bytes,
                 r.rate_mbps, r.outcome) for r in tr.records]

    assert {ch: fields(tr) for ch, tr in parsed.items()} == {tr.channel: fields(tr) for tr in trs}


@SETTINGS
@given(traces(), st.data())
def test_analyzed_file_equals_occupancy_of_parsed_trace(tmp_path, trs, data):
    text = mac.export_trace(trs)
    path = tmp_path / "trace.txt"
    path.write_text(text, encoding="utf-8")
    parsed = mac.parse_trace(text)
    ids = sorted({r.station_id for tr in trs for r in tr.records})
    stations = data.draw(st.none() | st.lists(st.sampled_from(ids), unique=True))
    keep = None if stations is None else set(stations)
    want = {}
    for ch, tr in parsed.items():
        if keep is not None:
            tr = trace_of(ch, tr.duration_us,
                          [r for r in tr.records if r.station_id in keep])
        want[ch] = mac.occupancy(tr, (0.0, tr.duration_us))
    got = scenario.analyze_trace(str(path), stations=stations)
    assert got["per_channel"] == want
