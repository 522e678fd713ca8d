"""The operating-range search against a test-local reference.

`harvester.max_operating_range` builds the envelope geometry once per
call and, at each bisection step, re-sums only the powers on it. The
reference here is the search without that split: at every step each
channel's received power from `rf.fspl_db`, the envelope from a local
copy of `duty_envelope` as it was before `envelope_geometry` was split
out of it, `mean_transfer_power_w` of that envelope, and all 80 steps.
Both must give the same float. The rectifier curve, which now keeps its
anchor table per curve, is held to a local copy of its per-call form.
"""

import math

from hypothesis import example, given, settings, strategies as st

from wifipower import fcc, harvester as hv, rf
from wifipower.units import Distance, Frequency, GainDbi, PowerDbm, dbm_to_mw, mw_sum_dbm

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def old_duty_envelope(channel_power, period_s=hv.ENVELOPE_PERIOD_S):
    """One period of incident power from per-channel (rx, duty) pairs,
    each segment summed over the spans that hold its midpoint."""
    n = len(channel_power)
    marks = {0.0, period_s}
    spans = []  # start, end, rx_mw
    for i, (rx, duty) in enumerate(channel_power):
        assert 0.0 <= duty <= 1.0
        if duty == 0.0:
            continue
        start = (i * period_s / n) % period_s
        length = duty * period_s
        rx_mw = dbm_to_mw(rx).value
        end = start + length
        if end <= period_s:
            spans.append((start, end, rx_mw))
            marks.update((start, end))
        else:
            spans.append((start, period_s, rx_mw))
            spans.append((0.0, end - period_s, rx_mw))
            marks.update((start, end - period_s))
    edges = sorted(marks)
    segments = []
    for a, b in zip(edges, edges[1:]):
        if b - a <= 0:
            continue
        mid = 0.5 * (a + b)
        p = mw_sum_dbm(s_mw for s0, s1, s_mw in spans if s0 <= mid < s1)
        segments.append((b - a, p))
    return segments


def old_output_w(curve, p_in):
    """`RectifierCurve.output_w` with its anchor table rebuilt per call."""
    x = p_in.value
    if x < curve.sensitivity.value:
        return 0.0
    xs = [a[0] for a in curve.anchors]
    ys = [a[1] for a in curve.anchors]
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        eff = ys[-1] / (10.0 ** (xs[-1] / 10.0) * 1e-3)
        return eff * 10.0 ** (x / 10.0) * 1e-3
    for i in range(len(xs) - 1):
        if xs[i] <= x <= xs[i + 1]:
            frac = (x - xs[i]) / (xs[i + 1] - xs[i])
            logy = math.log10(ys[i]) + frac * (math.log10(ys[i + 1]) - math.log10(ys[i]))
            return 10.0 ** logy
    raise AssertionError("unreachable")


def reference_range_m(plan, cfg, g_rx, duty, channels, wall):
    eirp = fcc.plan_eirp(plan)

    def sustainable(d_m):
        chp = []
        for ch in channels:
            fspl = rf.fspl_db(Distance(d_m), Frequency(rf.CHANNEL_FREQ_HZ[ch]))
            chp.append((PowerDbm(eirp.value - (fspl + wall.attenuation_db) + g_rx.value), duty))
        return hv.mean_transfer_power_w(old_duty_envelope(chp), cfg) - cfg.storage.leakage_w > 0.0

    lo, hi = rf.MIN_RANGE_M, 100.0
    if duty <= 0.0 or not sustainable(lo):
        return 0.0
    if sustainable(hi):
        return hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if sustainable(mid):
            lo = mid
        else:
            hi = mid
    return lo


def duty_of(kind, n, u):
    """A duty of one kind for `n` channels; `u` in [0, 1] picks within it."""
    share = 1.0 / n
    return {
        "zero": 0.0,
        "below_share": math.nextafter(share, 0.0),
        "share": share,
        "wrap": share + u * (1.0 - share),  # a later channel's span wraps round
        "one": 1.0,
        "any": u,
    }[kind]


DUTY_KINDS = ["zero", "below_share", "share", "wrap", "one", "any"]
plans = st.builds(
    fcc.TxPlan,
    n_ant=st.integers(1, 4),
    g_ant=st.builds(GainDbi, st.floats(0.0, 12.0)),
    total_conducted=st.builds(PowerDbm, st.floats(0.0, 33.0)),
    correlated=st.booleans(),
    beamforming_efficiency=st.floats(0.1, 1.0),
)
channel_lists = st.lists(st.sampled_from([1, 6, 11]), min_size=1, max_size=3, unique=True)


@SETTINGS
@given(preset=st.sampled_from(sorted(hv.PRESETS)), plan=plans, channels=channel_lists,
       kind=st.sampled_from(DUTY_KINDS), u=st.floats(0.0, 1.0),
       wall=st.sampled_from(list(rf.WallMaterial)), g_rx=st.floats(-5.0, 8.0))
@example(preset="temp_battery_free", plan=fcc.TxPlan(3, GainDbi(6.0), PowerDbm(30.0)),
         channels=[1, 6, 11], kind="any", u=0.9, wall=rf.WallMaterial.NONE, g_rx=2.0)
def test_range_search_matches_the_per_step_envelope(
    preset, plan, channels, kind, u, wall, g_rx
):
    cfg = hv.PRESETS[preset]()
    duty = duty_of(kind, len(channels), u)
    got = hv.max_operating_range(
        plan, cfg, g_rx=GainDbi(g_rx), duty=duty, channels=channels, wall=wall)
    assert got.meters == reference_range_m(plan, cfg, GainDbi(g_rx), duty, channels, wall)


@SETTINGS
@given(chans=st.lists(st.tuples(st.one_of(st.just(-math.inf), st.floats(-60.0, 20.0)),
                                st.sampled_from(DUTY_KINDS), st.floats(0.0, 1.0)),
                      min_size=1, max_size=3),
       period_s=st.sampled_from([hv.ENVELOPE_PERIOD_S, 1.0, 0.3, 7e-3]))
# the last segment's midpoint rounds up to the period's end, where the
# span that wraps round has already stopped
@example(chans=[(-math.inf, "zero", 0.0), (0.0, "wrap", 1.0), (-math.inf, "below_share", 0.0)],
         period_s=1.0)
def test_duty_envelope_is_the_old_envelope_bit_for_bit(chans, period_s):
    chp = [(PowerDbm(dbm), duty_of(kind, len(chans), u)) for dbm, kind, u in chans]
    assert repr(hv.duty_envelope(chp, period_s)) == repr(old_duty_envelope(chp, period_s))


@SETTINGS
@given(curve=st.sampled_from([hv.BATTERY_FREE_RECTIFIER, hv.BATTERY_RECTIFIER]),
       dbm=st.one_of(st.floats(-30.0, 25.0),
                     st.sampled_from([-19.3, -17.8, -10.0, 0.0, 10.0, -math.inf])))
def test_rectifier_output_is_the_per_call_curve(curve, dbm):
    assert repr(curve.output_w(PowerDbm(dbm))) == repr(old_output_w(curve, PowerDbm(dbm)))
