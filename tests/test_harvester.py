import math

import pytest
from hypothesis import example, given, settings, strategies as st

from wifipower import fcc, harvester as hv, rf
from wifipower.units import Distance, Frequency, GainDbi, PowerDbm, dbm_to_mw, mw_sum_dbm

PLAN = fcc.TxPlan(n_ant=3, g_ant=GainDbi(6.0), total_conducted=PowerDbm(30.0))


def ledger_residue(state: hv.HarvesterState, stored_start_j: float = 0.0) -> float:
    delta_stored = state.stored_j - stored_start_j
    return state.harvested_j - delta_stored - state.consumed_j - state.leaked_j - state.curtailed_j


# -- rectifier ---------------------------------------------------------------

def test_rectifier_below_sensitivity_is_dead():
    assert hv.BATTERY_FREE_RECTIFIER.output_w(PowerDbm(-25.0)) == 0.0


def ulps_from(x: float, n: int) -> float:
    """The float `n` steps above `x` (below it for n < 0)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    curve=st.sampled_from([hv.BATTERY_FREE_RECTIFIER, hv.BATTERY_RECTIFIER]),
    dbm=st.floats(-60.0, 40.0) | st.none(),
    ulps=st.integers(-8, 8),
)
@example(curve=hv.BATTERY_FREE_RECTIFIER, dbm=None, ulps=1)
@example(curve=hv.BATTERY_RECTIFIER, dbm=None, ulps=1)
def test_rectifier_output_is_zero_below_the_sensitivity_and_a_first_anchor_from_it(
    curve, dbm, ulps
):
    # the battery-free converter's 300 mV cold start sits at the first
    # anchor, so no input the rectifier passes falls short of it;
    # `dbm=None` draws an input `ulps` steps from the sensitivity
    x = ulps_from(curve.anchors[0][0], ulps) if dbm is None else dbm
    out = curve.output_w(PowerDbm(x))
    if x < curve.anchors[0][0]:
        assert out == 0.0
    else:
        assert out >= curve.anchors[0][1]


@pytest.mark.parametrize("curve, sensitivity_dbm", [
    (hv.BATTERY_FREE_RECTIFIER, -17.8),
    (hv.BATTERY_RECTIFIER, -19.3),
])
def test_preset_rectifiers_start_at_their_hardware_sensitivity(curve, sensitivity_dbm):
    # the measured sensitivities are hardware facts, held only as each
    # preset's first anchor: dead one ulp below it, the anchor at it
    assert curve.anchors[0][0] == sensitivity_dbm
    below = math.nextafter(sensitivity_dbm, -math.inf)
    assert curve.output_w(PowerDbm(below)) == 0.0
    assert curve.output_w(PowerDbm(sensitivity_dbm)) == curve.anchors[0][1] > 0.0


def test_rectifier_monotone_sweep():
    prev = -1.0
    for k in range(0, 81):
        p_in = PowerDbm(-20.0 + 0.25 * k)
        p_dc = hv.BATTERY_FREE_RECTIFIER.output_w(p_in)
        assert p_dc >= prev
        prev = p_dc


def test_rectifier_efficiency_never_exceeds_one():
    for k in range(0, 200):
        x = -19.0 + 0.2 * k
        p_dc = hv.BATTERY_FREE_RECTIFIER.output_w(PowerDbm(x))
        p_in_w = 10 ** (x / 10.0) * 1e-3
        assert p_dc <= p_in_w + 1e-18


def test_rectifier_rejects_bad_anchor_tables():
    with pytest.raises(ValueError):
        hv.RectifierCurve(anchors=())
    with pytest.raises(ValueError):
        hv.RectifierCurve(anchors=((-10.0, 2e-6), (-5.0, 1e-6)))
    with pytest.raises(ValueError):  # efficiency above one
        hv.RectifierCurve(anchors=((-10.0, 2e-4),))


# -- cold start and stepping -------------------------------------------------

def test_cold_start_blocks_below_300mv():
    # A battery-free pipeline transfers nothing below its sensitivity,
    # which is exactly where the rectifier falls under 300 mV.
    cfg = hv.battery_free_temp_sensor()
    assert cfg.rectifier.output_w(PowerDbm(-20.8)) == 0.0
    assert cfg.rectifier.output_w(PowerDbm(-17.8)) > 0.0


def test_step_decay_never_negative():
    cfg = hv.battery_free_temp_sensor()
    store = cfg.storage
    e0 = store.energy_j(2.0)
    st = hv.HarvesterState(stored_j=e0)
    hv.step(st, PowerDbm(-60.0), 1e6, cfg)
    assert st.stored_j == pytest.approx(0.0, abs=1e-18)
    assert st.v_store(cfg) >= 0.0
    assert abs(ledger_residue(st, e0)) < 1e-12


def test_step_charge_time_oracle():
    # constant transfer of twice the leakage: net equals leakage, so the
    # boot instant is exactly E_activate / leakage (the load fires only
    # after it)
    store = hv.TEMP_SENSOR_STORE
    cfg = hv.HarvesterConfig(
        rectifier=hv.RectifierCurve(anchors=((-10.0, 2 * store.leakage_w),)),
        storage=store,
        load=hv.TEMP_SENSOR_LOAD,
    )
    st = hv.new_state(cfg)
    t_boot = store.energy_j(store.v_activate) / store.leakage_w
    hv.step(st, PowerDbm(-10.0), t_boot * 1.01, cfg)
    boots = [t for t, e, _ in st.events if e == "boot"]
    assert len(boots) == 1
    assert boots[0] == pytest.approx(t_boot, rel=1e-9)


def test_boot_never_happens_below_leakage():
    # transfer permanently below leakage: the store cannot reach boot
    store = hv.TEMP_SENSOR_STORE
    cfg = hv.HarvesterConfig(
        rectifier=hv.RectifierCurve(anchors=((-10.0, 0.5 * store.leakage_w),)),
        storage=store,
        load=hv.TEMP_SENSOR_LOAD,
    )
    st = hv.new_state(cfg)
    hv.step(st, PowerDbm(-10.0), 86400.0, cfg)
    assert st.counts["boot"] == 0
    assert not st.booted


def test_camera_activation_energy_and_single_fire():
    store = hv.CAMERA_STORE
    usable = store.energy_j(store.v_activate) - store.energy_j(store.v_cutoff)
    assert usable == pytest.approx(0.5 * 6.8e-3 * (3.1**2 - 2.4**2), rel=1e-12)
    assert usable == pytest.approx(13.09e-3, abs=0.02e-3)
    assert usable >= 10.4e-3

    cfg = hv.battery_free_camera()
    st = hv.new_state(cfg)
    # hold a strong input long enough for several activation cycles
    hv.step(st, PowerDbm(0.0), 5000.0, cfg)
    fires = [t for t, e, _ in st.events if e == "sensor_fire"]
    assert len(fires) >= 2
    # one image per activation: after each fire the store sits below the
    # activation voltage and must recharge before the next
    for t, e, v in st.events:
        if e == "sensor_fire":
            assert v < store.v_activate
            assert v >= store.v_cutoff - 1e-9
    assert abs(ledger_residue(st)) <= 1e-6 * max(st.harvested_j, 1e-30)


def test_energy_ledger_closes_across_mixed_driving():
    cfg = hv.battery_free_temp_sensor()
    st = hv.new_state(cfg)
    pattern = [(-12.0, 3.0), (-40.0, 1.0), (-8.0, 0.5), (-60.0, 4.0), (-5.0, 2.0)]
    for dbm, dt in pattern * 20:
        hv.step(st, PowerDbm(dbm), dt, cfg)
    assert st.harvested_j > 0
    assert abs(ledger_residue(st)) <= 1e-6 * st.harvested_j


@pytest.mark.parametrize("make", [hv.battery_temp_sensor, hv.battery_camera])
def test_energy_ledger_closes_on_the_battery_envelope_path(make):
    cfg = make()
    segs = hv.duty_envelope([(PowerDbm(-12.0), 0.9)] * 3, period_s=0.010)
    st = hv.run_envelope(cfg, segs, 3600.0)
    assert st.counts["sensor_fire"] >= 1
    assert abs(ledger_residue(st)) <= 1e-9 * st.harvested_j
    # resuming the same state, then stepping it, keeps the ledger closed
    hv.run_envelope(cfg, segs, 1234.5, state=st)
    for dbm, dt in [(-12.0, 3.0), (-60.0, 2.0), (-8.0, 5.0)] * 10:
        hv.step(st, PowerDbm(dbm), dt, cfg)
    assert abs(ledger_residue(st)) <= 1e-9 * st.harvested_j


@pytest.mark.parametrize("path", ["run_envelope", "step"])
def test_a_drained_battery_fires_after_a_full_operation_of_surplus(path):
    # charge, drain the battery empty, charge again: the first fire after
    # the drain comes once e_op of new surplus is in, not from the surplus
    # gathered before it
    cfg = hv.battery_temp_sensor()
    st = hv.new_state(cfg)

    def drive(dbm, dt):
        if path == "step":
            hv.step(st, PowerDbm(dbm), dt, cfg)
        else:
            hv.run_envelope(cfg, [(0.01, PowerDbm(dbm))], dt, state=st)

    drive(-8.0, 1.2)
    drive(-60.0, 100.0)
    assert st.stored_j == 0.0
    resumed, n_events = st.t_s, len(st.events)
    drive(-8.0, 0.5)
    fires = [t for t, e, _ in st.events[n_events:] if e == "sensor_fire"]
    net = cfg.rectifier.output_w(PowerDbm(-8.0)) - cfg.storage.leakage_w
    assert fires[0] - resumed == pytest.approx(cfg.load.e_op_j / net, rel=1e-9)
    assert st.stored_j >= 0.0
    assert abs(ledger_residue(st)) <= 1e-9 * st.harvested_j


@pytest.mark.parametrize("make", [hv.battery_temp_sensor, hv.battery_camera])
@pytest.mark.parametrize("dbm", [-8.0, -18.0])  # above and below leakage_w
def test_battery_step_and_run_envelope_share_one_charging_rule(make, dbm):
    # one step and a run of a one-segment envelope at the same constant
    # input, from the same charged state, fire at the same evenly spaced
    # times and keep their ledgers closed
    cfg = make()
    net = cfg.rectifier.output_w(PowerDbm(dbm)) - cfg.storage.leakage_w
    assert (net > 0) == (dbm == -8.0)
    fires, states = [], []
    for path in ("step", "run_envelope"):
        st = hv.new_state(cfg)
        hv.step(st, PowerDbm(-8.0), 600.0, cfg)
        n_events, charged = len(st.events), st.stored_j
        if path == "step":
            hv.step(st, PowerDbm(dbm), 3600.0, cfg)
        else:
            hv.run_envelope(cfg, [(0.01, PowerDbm(dbm))], 3600.0, state=st)
        assert abs(ledger_residue(st)) <= 1e-9 * st.harvested_j
        assert [e for _, e, _ in st.events[n_events:]] == ["sensor_fire"] * (
            len(st.events) - n_events
        )
        fires.append([t for t, _, _ in st.events[n_events:]])
        states.append(st)
        assert net > 0 or st.stored_j < charged  # a drain takes charge
    stepped, enveloped = fires
    assert len(stepped) == len(enveloped)
    assert all(abs(a - b) <= 1e-9 for a, b in zip(stepped, enveloped))
    assert states[0].t_s == states[1].t_s
    assert states[0].stored_j == pytest.approx(states[1].stored_j, rel=1e-9)
    if net > 0:
        assert len(stepped) >= 5
        for times in fires:
            for a, b in zip(times, times[1:]):
                assert b - a == pytest.approx(cfg.load.e_op_j / net, rel=1e-9)
    else:
        assert not stepped


# -- incident power ----------------------------------------------------------

def test_incident_power_single_channel():
    p = mw_sum_dbm([dbm_to_mw(PowerDbm(-10.0)).value])
    assert p.value == pytest.approx(-10.0, abs=1e-12)


def test_incident_power_superposition_gain():
    # the harvester front end cannot tell channels apart: k equally
    # strong busy channels raise the incident power by 10*log10(k) dB
    for k in (1, 2, 3):
        p = mw_sum_dbm([dbm_to_mw(PowerDbm(-10.0)).value] * k)
        assert p.value == pytest.approx(-10.0 + 10.0 * math.log10(k), abs=1e-12)


def test_incident_power_silence_is_zero():
    p = mw_sum_dbm([])
    assert p.value == -math.inf


# -- update rate -------------------------------------------------------------

def test_energy_neutral_update_rate():
    assert hv.energy_neutral_update_rate(2.77e-6, hv.TEMP_SENSOR_LOAD) == pytest.approx(1.0)
    assert hv.energy_neutral_update_rate(0.0, hv.TEMP_SENSOR_LOAD) == 0.0
    # 10.4 mJ per image at 5 uW: one image every 2080 s
    rate = hv.energy_neutral_update_rate(5e-6, hv.CAMERA_LOAD)
    assert 1.0 / rate == pytest.approx(2080.0, rel=1e-9)


# -- envelopes and range -----------------------------------------------------

def test_duty_envelope_durations_and_power():
    segs = hv.duty_envelope([(PowerDbm(-10.0), 0.9)] * 3, period_s=0.010)
    assert sum(dt for dt, _ in segs) == pytest.approx(0.010, rel=1e-9)
    # per-channel duty 0.9 staggered across thirds: the channel count on
    # the air alternates between three (70%) and two (30%)
    t3 = sum(dt for dt, p in segs if abs(p.value - (-10 + 10 * math.log10(3))) < 1e-6)
    t2 = sum(dt for dt, p in segs if abs(p.value - (-10 + 10 * math.log10(2))) < 1e-6)
    assert t3 / 0.010 == pytest.approx(0.7, abs=1e-9)
    assert t2 / 0.010 == pytest.approx(0.3, abs=1e-9)


def test_duty_envelope_low_duty_never_overlaps():
    segs = hv.duty_envelope([(PowerDbm(-10.0), 0.3)] * 3, period_s=0.010)
    for _, p in segs:
        assert p.value == -math.inf or p.value == pytest.approx(-10.0, abs=1e-9)


def test_run_envelope_matches_plain_stepping():
    cfg = hv.battery_free_temp_sensor()
    segs = hv.duty_envelope([(PowerDbm(-11.0), 0.9)] * 3, period_s=0.010)
    fast = hv.run_envelope(cfg, segs, 120.0)
    slow = hv.new_state(cfg)
    for _ in range(int(120.0 / 0.010)):
        for dt, p in segs:
            hv.step(slow, p, dt, cfg)
    assert fast.counts["boot"] == slow.counts["boot"]
    assert fast.counts["sensor_fire"] == slow.counts["sensor_fire"]
    assert fast.stored_j == pytest.approx(slow.stored_j, rel=1e-6, abs=1e-12)
    assert fast.harvested_j == pytest.approx(slow.harvested_j, rel=1e-9)


def test_run_envelope_from_mid_period_sees_the_first_brown_out():
    # the run starts in the off half of the period, a quarter period of
    # leakage above the cutoff, so it browns out before the next "on"
    cfg = hv.battery_free_temp_sensor()
    segs = [(0.005, PowerDbm(-5.0)), (0.005, PowerDbm(-60.0))]
    e_cut, _ = hv._store_levels(cfg.storage)

    def start():
        return hv.HarvesterState(
            t_s=0.005, stored_j=e_cut + 0.5 * cfg.storage.leakage_w * 0.005, booted=True
        )

    fast = hv.run_envelope(cfg, segs, 1.0, state=start())
    slow = start()
    for dt, p in [segs[1]] + segs * 99 + [segs[0]]:
        hv.step(slow, p, dt, cfg)
    assert [e for _, e, _ in slow.events] == ["brown_out"]
    assert slow.events[0][0] == pytest.approx(0.0075, abs=1e-12)
    assert [e for _, e, _ in fast.events] == ["brown_out"]
    assert fast.events[0][0] == pytest.approx(slow.events[0][0], abs=1e-12)
    assert fast.t_s == pytest.approx(slow.t_s, abs=1e-12)
    assert fast.stored_j == pytest.approx(slow.stored_j, rel=1e-9)


def _regime(name):
    """(cfg, segments, state) in one regime of the capacitor rule; the
    envelope has 'on' segments above leakage and 'off' ones at zero."""
    cfg = hv.battery_free_temp_sensor()
    segs = hv.duty_envelope([(PowerDbm(-11.0), 0.3)] * 3, period_s=0.010)
    e_cut, e_act = hv._store_levels(cfg.storage)
    if name == "cold":
        st = hv.new_state(cfg)
    elif name == "mid_charge":
        st = hv.HarvesterState(t_s=1.0, stored_j=0.5 * e_act)
    elif name == "boot_pending_across_edge":
        st = hv.HarvesterState(stored_j=e_act, booted=True)
        st._pending_fire_t = 1.5 * segs[0][0]
    elif name == "booted_near_cutoff":
        segs = hv.duty_envelope([(PowerDbm(-60.0), 0.3)] * 3, period_s=0.010)
        st = hv.HarvesterState(stored_j=e_cut * (1 + 1e-6), booted=True)
    elif name == "floor_below_sensitivity":
        segs = hv.duty_envelope([(PowerDbm(-30.0), 0.9)] * 3, period_s=0.010)
        st = hv.HarvesterState(stored_j=0.0)
    else:  # a load under the activation tolerance leaves the store at its ceiling
        cfg = hv.HarvesterConfig(cfg.rectifier, cfg.storage, hv.SensorLoad(e_op_j=1e-25))
        st = hv.HarvesterState(stored_j=e_act, booted=True)
    return cfg, segs, st


@pytest.mark.parametrize("name", [
    "cold", "mid_charge", "boot_pending_across_edge", "booted_near_cutoff",
    "floor_below_sensitivity", "light_load_ceiling",
])
def test_segment_walk_equals_public_stepping(name):
    cfg, segs, walked = _regime(name)
    _, _, ref = _regime(name)
    walk = [(dt, cfg.rectifier.output_w(p)) for dt, p in segs]
    period = sum(dt for dt, _ in segs)
    hv._walk(walked, cfg, walk, walked.t_s % period, period)
    left = period
    for dt, p in segs:  # the pieces _walk cuts from one period
        tau = min(dt, left)
        hv.step(ref, p, tau, cfg)
        left -= tau
    for attr in ("t_s", "stored_j", "booted", "events", "harvested_j",
                 "leaked_j", "consumed_j", "curtailed_j", "_pending_fire_t"):
        assert getattr(walked, attr) == getattr(ref, attr), attr
    kinds = [e for _, e, _ in walked.events]
    expect = {
        "cold": not kinds and 0.0 < walked.stored_j,
        "mid_charge": not kinds,
        "boot_pending_across_edge": kinds == ["sensor_fire"],
        "booted_near_cutoff": kinds == ["brown_out"],
        "floor_below_sensitivity": walked.harvested_j == 0.0 and walked.stored_j == 0.0,
        "light_load_ceiling": walked.curtailed_j > 0.0 and set(kinds) == {"sensor_fire"},
    }
    assert expect[name], (name, walked)


def test_step_books_a_stretch_shorter_than_the_walk_guard():
    # the walk ends once less than 1e-15 s is left, but never before
    # stepping its first piece, so a tiny `step` is still booked
    cfg = hv.battery_free_temp_sensor()
    st = hv.new_state(cfg)
    w = cfg.rectifier.output_w(PowerDbm(-10.0))
    hv.step(st, PowerDbm(-10.0), 1e-16, cfg)
    assert st.t_s == 1e-16
    assert st.harvested_j == w * 1e-16
    assert st.leaked_j == cfg.storage.leakage_w * 1e-16
    assert st.stored_j == (w - cfg.storage.leakage_w) * 1e-16 > 0.0


def test_max_operating_range_battery_free_window():
    d = hv.max_operating_range(PLAN, hv.battery_free_temp_sensor(), duty=0.9)
    assert 18.0 <= d.feet <= 22.0


def test_max_operating_range_battery_exceeds_battery_free():
    d_bf = hv.max_operating_range(PLAN, hv.battery_free_temp_sensor(), duty=0.9)
    d_bat = hv.max_operating_range(PLAN, hv.battery_temp_sensor(), duty=0.9)
    assert d_bat.meters > d_bf.meters
    assert 24.0 <= d_bat.feet <= 30.0


def test_max_operating_range_monotone_in_sensitivity():
    # same storage and loss budget, only the sensitivity differs
    better = hv.HarvesterConfig(
        rectifier=hv.BATTERY_RECTIFIER,
        storage=hv.TEMP_SENSOR_STORE,
        load=hv.TEMP_SENSOR_LOAD,
    )
    worse = hv.battery_free_temp_sensor()
    d_better = hv.max_operating_range(PLAN, better, duty=0.9)
    d_worse = hv.max_operating_range(PLAN, worse, duty=0.9)
    assert d_better.meters >= d_worse.meters


def _full_bisection_m(cfg, duty, channels, wall):
    """max_operating_range's bisection run for all 80 steps."""
    eirp = fcc.plan_eirp(PLAN)

    def sustainable(d_m):
        chp = []
        for ch in channels:
            link = rf.LinkGeometry(Distance(d_m), Frequency(rf.CHANNEL_FREQ_HZ[ch]), wall)
            chp.append((rf.received_power(eirp, GainDbi(2.0), link), duty))
        return hv.mean_transfer_power_w(hv.duty_envelope(chp), cfg) - cfg.storage.leakage_w > 0.0

    assert sustainable(rf.MIN_RANGE_M) and not sustainable(100.0)
    lo, hi = rf.MIN_RANGE_M, 100.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if sustainable(mid):
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize(
    "make, duty, wall, channels",
    [
        (hv.battery_free_temp_sensor, 0.9, rf.WallMaterial.NONE, (1, 6, 11)),
        (hv.battery_free_temp_sensor, 0.3, rf.WallMaterial.WOODEN_DOOR, (6,)),
        (hv.battery_temp_sensor, 0.9, rf.WallMaterial.DOUBLE_PANE_GLASS, (1, 6, 11)),
        (hv.battery_temp_sensor, 0.5, rf.WallMaterial.DOUBLE_SHEETROCK, (11,)),
    ],
)
def test_max_operating_range_stops_early_with_the_same_float(
    monkeypatch, make, duty, wall, channels
):
    cfg = make()
    full = _full_bisection_m(cfg, duty, channels, wall)
    calls = []
    kernel = rf.received_dbm
    monkeypatch.setattr(rf, "received_dbm", lambda *a: calls.append(1) or kernel(*a))
    d = hv.max_operating_range(PLAN, cfg, duty=duty, channels=channels, wall=wall)
    assert d.meters == full
    # each step works out each channel's received power once
    steps, rest = divmod(len(calls), len(channels))
    assert rest == 0
    assert steps < 82  # two end checks plus fewer than 80 steps


def test_max_operating_range_zero_duty_is_zero():
    d = hv.max_operating_range(PLAN, hv.battery_free_temp_sensor(), duty=0.0)
    assert d.meters == 0.0


def test_update_rate_non_increasing_with_distance():
    cfg = hv.battery_free_temp_sensor()
    eirp = fcc.plan_eirp(PLAN)
    prev = math.inf
    for ft in (4, 8, 12, 16, 20):
        chp = []
        for ch in (1, 6, 11):
            link = rf.LinkGeometry(
                Distance.from_feet(ft), Frequency(rf.CHANNEL_FREQ_HZ[ch])
            )
            chp.append((rf.received_power(eirp, GainDbi(2.0), link), 0.9))
        segs = hv.duty_envelope(chp)
        net = hv.mean_transfer_power_w(segs, cfg) - cfg.storage.leakage_w
        rate = hv.energy_neutral_update_rate(max(0.0, net), hv.TEMP_SENSOR_LOAD)
        assert rate <= prev + 1e-12
        prev = rate
