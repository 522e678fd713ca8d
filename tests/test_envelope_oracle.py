"""`harvester.run_envelope` against an outside reference of the store.

The reference here shares no stepping code with the harvester module.
It walks every segment of every period on a clock worked out from the
period index, so it never drifts. Within a segment the store moves
linearly at transfer minus leakage, and it solves each threshold
crossing directly. It has no jump over quiet periods, no fire train,
no replication of a fixed point and no shortcut at the ceiling, so it
checks those shortcuts of `run_envelope` from outside. A battery has
one closed-form rule, checked the same way.

Hypothesis draws envelopes on all four presets. It also draws start
states: mid-period, booted above the cutoff, or with a boot delay
pending across a segment edge. It draws heavier loads that leave the
store near the cutoff after a fire, so that some runs brown out in
what would otherwise be a train. Event kinds must match exactly,
voltages within `V_RTOL` and event times within `T_TOL`, and the run's
ledger must close and agree with the reference's.
"""

import dataclasses
import math

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from wifipower import harvester as hv
from wifipower.units import PowerDbm

#: Largest |dt| allowed between an event of `run_envelope` and of the
#: reference, in seconds, over the at most 20 s drawn here.
T_TOL = 1e-10
#: Largest relative difference allowed between the voltages they log. A
#: fire's voltage is the same float in both, except after a boot delay
#: the store leaks through: the two clocks round that delay's stretches
#: apart in the last bits, and the store's level with them.
V_RTOL = 1e-12

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class Ledger:
    def __init__(self):
        self.harvested = self.leaked = self.consumed = self.curtailed = 0.0


class Energy:
    """The store's energy as an unevaluated sum hi + lo (Knuth's TwoSum),
    so that the small gains of thousands of segments add to a store of
    tens of millijoules with no rounding; a plain float lost 1e-14 J over
    a 14 s camera run, which moved a fire by 1e-9 s at 14 uW of net."""

    def __init__(self, e):
        self.set(e)

    def add(self, x):
        s = self.hi + x
        z = s - self.hi
        self.lo += (self.hi - (s - z)) + (x - z)
        self.hi = s

    def set(self, e):
        self.hi, self.lo = e, 0.0

    def to(self, level):
        """The energy from the store up to `level`."""
        return (level - self.hi) - self.lo

    @property
    def value(self):
        return self.hi + self.lo


def reference_capacitor(cfg, segments, duration_s, t0, e0, booted, pending):
    """Events, ledger and final energy of a capacitor store driven over
    the periodic envelope from time `t0` for `duration_s`, one segment
    at a time. Within period k the clock is the phase; an event at phase
    x is logged at k * period + x."""
    store, load = cfg.storage, cfg.load
    e_floor, e_cut, e_act = (
        store.capacitance_f * v * v / 2
        for v in (0.0, store.v_cutoff, store.v_activate)
    )
    leak = store.leakage_w
    watts = [cfg.rectifier.output_w(p) for _, p in segments]
    starts = [0.0]
    for dt, _ in segments:
        starts.append(starts[-1] + dt)
    period = starts[-1]
    t_end = t0 + duration_s
    e, events, led = Energy(e0), [], Ledger()

    def fire(t, booted):
        used = min(load.e_op_j, e.value - e_floor)
        led.consumed += used
        e.set(e.value - used)
        events.append((t, "sensor_fire", store.voltage(e.value)))
        if booted and e.value < e_cut:
            booted = False
            events.append((t, "brown_out", store.voltage(e.value)))
        return booted

    def book(w, tau, net):
        led.harvested += w * tau
        led.leaked += leak * tau
        e.add(net * tau)

    k = math.floor(t0 / period)
    while k * period < t_end:
        base = k * period
        for i, w in enumerate(watts):
            x = max(t0 - base, starts[i])
            b = min(t_end - base, starts[i + 1])
            net = w - leak
            while x < b:
                if pending is not None:
                    # the boot delay: capped at activation, no brown-out
                    xp = min(max(pending - base, x), b)
                    book(w, xp - x, net)
                    if e.to(e_act) < 0:
                        led.curtailed -= e.to(e_act)
                        e.set(e_act)
                    x = xp
                    if pending - base <= x:
                        pending = None
                        booted = fire(base + x, booted)
                    continue
                if net > 0:
                    x_hit = x + max(0.0, e.to(e_act)) / net
                    if x_hit >= b:
                        book(w, b - x, net)
                        x = b
                        continue
                    book(w, x_hit - x, 0.0)
                    e.set(e_act)
                    x = x_hit
                    if not booted:
                        booted = True
                        events.append((base + x, "boot", store.voltage(e_act)))
                        pending = base + x + load.boot_time_s
                    else:
                        booted = fire(base + x, booted)
                    continue
                if net < 0 and e.to(e_floor) < 0:
                    level = e_cut if booted and e.to(e_cut) < 0 else e_floor
                    x_hit = x + e.to(level) / net
                    if x_hit >= b:
                        book(w, b - x, net)
                        x = b
                        continue
                    book(w, x_hit - x, 0.0)
                    e.set(level)
                    x = x_hit
                    if level == e_cut:
                        booted = False
                        events.append((base + x, "brown_out", store.voltage(e_cut)))
                    continue
                # at the floor, or no net input: the input leaks away
                led.harvested += w * (b - x)
                led.leaked += w * (b - x)
                x = b
        k += 1
    return events, led, e.value


def reference_battery(cfg, segments, duration_s):
    """Events of a fresh battery run: the envelope's mean transfer, less
    the store's leakage, pays for one fire per operation's energy."""
    period = math.fsum(dt for dt, _ in segments)
    mean_w = math.fsum(cfg.rectifier.output_w(p) * dt for dt, p in segments) / period
    net = mean_w - cfg.storage.leakage_w
    events = [(0.0, "boot", cfg.storage.voltage)]
    if net > 0:
        n = int(net * duration_s / cfg.load.e_op_j)
        events += [(i * cfg.load.e_op_j / net, "sensor_fire", cfg.storage.voltage)
                   for i in range(1, n + 1)]
    return events


channels = st.lists(
    st.tuples(st.floats(-20.0, -4.0), st.floats(0.05, 1.0)), min_size=1, max_size=3
)
starts = st.tuples(
    st.sampled_from(["fresh", "unbooted", "booted", "pending"]),
    st.integers(0, 50),  # whole periods before the start
    st.floats(0.0, 0.999),  # phase, as a fraction of the period
    st.floats(0.0, 1.0),  # store, as a fraction of the way from the cutoff to activation
    st.floats(0.05, 0.95),  # boot delay left, as a fraction of the boot time
)
#: The load: the preset's, or one whose operation takes this fraction of
#: the energy between the cutoff and activation. Light loads fire often;
#: near 1 a fire leaves the store close to the cutoff, or below it.
loads = st.tuples(st.sampled_from(["preset", "light", "heavy"]), st.floats(0.0, 1.0))


def assert_ledger_closes(state, stored_before):
    residue = (state.harvested_j - (state.stored_j - stored_before) - state.consumed_j
               - state.leaked_j - state.curtailed_j)
    assert abs(residue) <= 1e-9 * max(state.harvested_j, stored_before)


def assert_same_events(got, want):
    assert [e for _, e, _ in got] == [e for _, e, _ in want]
    for (t, _, v), (t_ref, _, v_ref) in zip(got, want):
        assert abs(t - t_ref) <= T_TOL, (t, t_ref)
        assert abs(v - v_ref) <= V_RTOL * v_ref, (v, v_ref)


@SETTINGS
@given(preset=st.sampled_from(["camera_battery_free", "temp_battery_free"]),
       chans=channels, duration_s=st.floats(0.5, 20.0), start=starts, load=loads)
# booted just above the cutoff, the store leaks below it in the silent
# first half of the period, before it can climb to its first fire
@example(preset="temp_battery_free", chans=[(-20.0, 0.5), (-5.0, 0.5)], duration_s=6.0,
         start=("booted", 0, 0.0, 1e-4, 0.5), load=("preset", 0.0))
def test_capacitor_runs_match_the_reference(preset, chans, duration_s, start, load):
    cfg = hv.PRESETS[preset]()
    segments = hv.duty_envelope([(PowerDbm(dbm), duty) for dbm, duty in chans])
    store = cfg.storage
    e_cut, e_act = store.energy_j(store.v_cutoff), store.energy_j(store.v_activate)
    weight, x = load
    if weight != "preset":
        share = 0.001 + 0.1 * x if weight == "light" else 0.97 + 0.06 * x
        cfg = dataclasses.replace(
            cfg, load=dataclasses.replace(cfg.load, e_op_j=share * (e_act - e_cut)))
    state = hv.new_state(cfg)
    mode, periods, phase, frac, delay = start
    if mode != "fresh":
        period = sum(dt for dt, _ in segments)
        state.t_s = periods * period + phase * period
        state.stored_j = e_cut + frac * (e_act - e_cut)
        state.booted = mode != "unbooted"
        if mode == "pending":
            state.stored_j = e_act
            state._pending_fire_t = state.t_s + delay * cfg.load.boot_time_s
    t0, e0 = state.t_s, state.stored_j
    events, led, e_end = reference_capacitor(
        cfg, segments, duration_s, t0, e0, state.booted, state._pending_fire_t)

    hv.run_envelope(cfg, segments, duration_s, state=state)
    assert_same_events(state.events, events)
    assert_ledger_closes(state, e0)
    assert state.t_s == pytest.approx(t0 + duration_s, rel=1e-12, abs=1e-12)
    assert abs(state.stored_j - e_end) <= 1e-9 * e_act
    for got, want in ((state.harvested_j, led.harvested), (state.consumed_j, led.consumed),
                      (state.leaked_j, led.leaked), (state.curtailed_j, led.curtailed)):
        assert abs(got - want) <= 1e-9 * max(led.harvested, e_act)


@settings(SETTINGS, max_examples=40)
@given(preset=st.sampled_from(["camera_battery", "temp_battery"]),
       chans=channels, duration_s=st.floats(0.5, 3600.0))
def test_battery_runs_match_the_reference(preset, chans, duration_s):
    cfg = hv.PRESETS[preset]()
    segments = hv.duty_envelope([(PowerDbm(dbm), duty) for dbm, duty in chans])
    state = hv.run_envelope(cfg, segments, duration_s)
    assert_same_events(state.events, reference_battery(cfg, segments, duration_s))
    assert_ledger_closes(state, 0.0)


def test_the_reference_sees_a_brown_out_and_a_boot_delay_across_an_edge():
    # the reference itself: a pending fire after a segment edge, and a
    # booted store drained to the cutoff in the silent half
    cfg = hv.battery_free_temp_sensor()
    store = cfg.storage
    e_cut, e_act = store.energy_j(store.v_cutoff), store.energy_j(store.v_activate)
    segments = [(0.001, PowerDbm(-5.0)), (0.009, PowerDbm(-60.0))]
    events, _, _ = reference_capacitor(cfg, segments, 0.01, 0.0, e_act, True, 0.0015)
    assert [e for _, e, _ in events] == ["sensor_fire"]
    assert events[0][0] == 0.0015
    e0 = e_cut + 0.5 * store.leakage_w * 0.009
    events, _, e_end = reference_capacitor(cfg, segments, 0.009, 0.001, e0, True, None)
    assert [e for _, e, _ in events] == ["brown_out"]
    assert abs(events[0][0] - 0.0055) <= 1e-12
    assert e_end < e_cut
