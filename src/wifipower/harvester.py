"""Behavioral RF-harvester model: rectifier, storage, loads.

The chain is: incident RF power -> rectifier (piecewise log-log curve
with a hard sensitivity floor) -> storage element (capacitor, or
battery behind its converter, each with a standing draw `leakage_w`)
-> sensor load firing at an activation voltage.

Everything steps in closed form over intervals of constant incident
power, so runs are exact and deterministic with no integration tick.
Long runs over periodic power patterns jump every whole period before
the next threshold crossing in closed form, and take a booted sensor's
fires as a train, one closed-form step per fire, which is what makes a
24 hour harvester timeline cheap to simulate; any other period that
holds a crossing is walked by `_walk`, the one capacitor stepping
kernel, which `step` calls too.

Calibration notice: the rectifier anchor powers and the stores'
leakages are calibration parameters. The sensitivity endpoints
(-17.8 dBm battery-free, where the rectifier reaches the converter's
300 mV cold start, and -19.3 dBm battery-assisted) and the 2.4 V boot
threshold are hardware facts; the interior curve shape and the loss
magnitudes are fitted so that the end-to-end range and update-rate
behavior lands where the real hardware was observed to land, and are
documented as fitted values, not measurements.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional, Sequence

from . import fcc, rf
from .units import (
    Distance, Frequency, GainDbi, PowerDbm, dbm_to_mw, mw_sum_dbm, sum_in_order,
)

# ---------------------------------------------------------------------------
# Component models


@dataclass(frozen=True)
class RectifierCurve:
    """Input RF power to output DC power, anchored in (dBm, watts).

    Between anchors the output interpolates linearly in log10(watts)
    against dBm (a straight segment on the usual log-log benchmark
    plot). The first anchor's input is the sensitivity: below it the
    output is exactly zero, and at it the first anchor's. Above the last
    anchor the conversion efficiency is clamped at the last anchor's
    efficiency.
    """

    anchors: tuple[tuple[float, float], ...]  # (p_in dBm, p_out watts)

    def __post_init__(self) -> None:
        if not self.anchors:
            raise ValueError("rectifier curve needs at least one anchor")
        xs = [a[0] for a in self.anchors]
        ys = [a[1] for a in self.anchors]
        if xs != sorted(xs) or len(set(xs)) != len(xs):
            raise ValueError("anchors must be strictly sorted by input power")
        if any(y <= 0 for y in ys):
            raise ValueError("anchor outputs must be > 0 W")
        if any(b < a for a, b in zip(ys, ys[1:])):
            raise ValueError("anchor outputs must be non-decreasing")
        for x, y in self.anchors:
            p_in_w = 10.0 ** (x / 10.0) * 1e-3
            if y > p_in_w:
                raise ValueError(f"anchor ({x} dBm, {y} W) implies efficiency > 1")
        # what `output_w` reads, worked out once per curve
        object.__setattr__(self, "_xs", tuple(xs))
        object.__setattr__(self, "_log_ys", tuple(map(math.log10, ys)))
        object.__setattr__(self, "_tail_eff", ys[-1] / (10.0 ** (xs[-1] / 10.0) * 1e-3))

    def output_w(self, p_in: PowerDbm) -> float:
        """DC output power in watts for the given incident RF power."""
        x = p_in.value
        xs, log_ys = self._xs, self._log_ys
        if x <= xs[0]:
            return self.anchors[0][1] if x == xs[0] else 0.0
        if x >= xs[-1]:
            # constant-efficiency extrapolation past the last anchor
            return self._tail_eff * 10.0 ** (x / 10.0) * 1e-3
        i = bisect_left(xs, x) - 1  # xs[i] < x <= xs[i + 1]
        frac = (x - xs[i]) / (xs[i + 1] - xs[i])
        return 10.0 ** (log_ys[i] + frac * (log_ys[i + 1] - log_ys[i]))


@dataclass(frozen=True)
class CapacitorStore:
    """Storage capacitor with a constant leakage draw.

    Leakage pulls the store down toward empty (0 V) during silent
    periods and never below it. Stored energy is the usual C V^2 / 2.
    """

    capacitance_f: float
    v_cutoff: float = 1.9
    v_activate: float = 2.4
    leakage_w: float = 4.3e-6

    def __post_init__(self) -> None:
        if self.capacitance_f <= 0:
            raise ValueError("capacitance must be > 0")
        if not (0.0 <= self.v_cutoff < self.v_activate):
            raise ValueError("need 0 <= v_cutoff < v_activate")
        if self.leakage_w < 0:
            raise ValueError("leakage must be >= 0")

    def energy_j(self, v: float) -> float:
        return 0.5 * self.capacitance_f * v * v

    def voltage(self, energy_j: float) -> float:
        return math.sqrt(max(0.0, 2.0 * energy_j / self.capacitance_f))


@dataclass(frozen=True)
class BatteryStore:
    """Rechargeable battery at a nominal terminal voltage, charged
    through a converter whose standing draw is `leakage_w`; harvested
    power below it cannot charge the battery."""

    voltage: float
    capacity_j: float
    leakage_w: float

    def __post_init__(self) -> None:
        if self.voltage <= 0 or self.capacity_j <= 0:
            raise ValueError("battery voltage and capacity must be > 0")
        if self.leakage_w < 0:
            raise ValueError("leakage must be >= 0")


StorageElement = CapacitorStore | BatteryStore


@dataclass(frozen=True)
class SensorLoad:
    e_op_j: float
    boot_time_s: float = 2e-3

    def __post_init__(self) -> None:
        if self.e_op_j <= 0:
            raise ValueError("per-operation energy must be > 0")


@dataclass(frozen=True)
class HarvesterConfig:
    rectifier: RectifierCurve
    storage: StorageElement
    load: SensorLoad


# ---------------------------------------------------------------------------
# Default hardware configurations

#: Battery-free rectifier: sensitivity -17.8 dBm; interior anchors fitted.
BATTERY_FREE_RECTIFIER = RectifierCurve(
    anchors=((-17.8, 0.8e-6), (-10.0, 20e-6), (0.0, 200e-6), (10.0, 3e-3)),
)

#: Battery-assisted rectifier: 1.5 dB better sensitivity.
BATTERY_RECTIFIER = RectifierCurve(
    anchors=((-19.3, 0.8e-6), (-10.0, 20e-6), (0.0, 200e-6), (10.0, 3e-3)),
)

TEMP_SENSOR_LOAD = SensorLoad(e_op_j=2.77e-6)
CAMERA_LOAD = SensorLoad(e_op_j=10.4e-3)

#: Temperature-sensor storage: capacitance is not dictated by the part
#: list, picked so a full boot store dwarfs the 2.77 uJ per operation.
TEMP_SENSOR_STORE = CapacitorStore(capacitance_f=100e-6, v_cutoff=1.9, v_activate=2.4)

#: Camera storage: 6.8 mF super-capacitor, buck active from 3.1 V down
#: to 2.4 V, so one activation banks 0.5 * 6.8 mF * (3.1^2 - 2.4^2)
#: = 13.09 mJ of usable energy against a 10.4 mJ image. The larger
#: standby draw of the camera's buck stage shortens its battery-free
#: range relative to the temperature sensor (fitted).
CAMERA_STORE = CapacitorStore(
    capacitance_f=6.8e-3, v_cutoff=2.4, v_activate=3.1,
    leakage_w=6.0e-6,
)

#: Battery stores; the coin cell's converter, for the camera, has the
#: heavier standing draw (both fitted).
NIMH_BATTERY = BatteryStore(voltage=2.4, capacity_j=0.750 * 2.4 * 3600, leakage_w=2.0e-6)
LI_ION_COIN_CELL = BatteryStore(voltage=3.0, capacity_j=0.001 * 3.0 * 3600, leakage_w=3.9e-6)


def battery_free_temp_sensor() -> HarvesterConfig:
    return HarvesterConfig(
        rectifier=BATTERY_FREE_RECTIFIER,
        storage=TEMP_SENSOR_STORE,
        load=TEMP_SENSOR_LOAD,
    )


def battery_temp_sensor() -> HarvesterConfig:
    return HarvesterConfig(
        rectifier=BATTERY_RECTIFIER,
        storage=NIMH_BATTERY,
        load=TEMP_SENSOR_LOAD,
    )


def battery_free_camera() -> HarvesterConfig:
    return HarvesterConfig(
        rectifier=BATTERY_FREE_RECTIFIER,
        storage=CAMERA_STORE,
        load=CAMERA_LOAD,
    )


def battery_camera() -> HarvesterConfig:
    return HarvesterConfig(
        rectifier=BATTERY_RECTIFIER,
        storage=LI_ION_COIN_CELL,
        load=CAMERA_LOAD,
    )


PRESETS = {
    "temp_battery_free": battery_free_temp_sensor,
    "temp_battery": battery_temp_sensor,
    "camera_battery_free": battery_free_camera,
    "camera_battery": battery_camera,
}


# ---------------------------------------------------------------------------
# State and stepping


@dataclass
class HarvesterState:
    """Voltage/charge state plus the audit trail of a run.

    The energy ledger satisfies, exactly by construction:
        harvested = delta(stored) + consumed + leaked + curtailed
    where curtailed is input discarded while a capacitor is pinned at its
    activation ceiling (during a boot delay) or a battery is full.
    `counts` counts each event kind as it is logged to `events`.
    """

    t_s: float = 0.0
    stored_j: float = 0.0
    booted: bool = False
    events: list[tuple[float, str, float]] = field(default_factory=list)
    counts: Counter[str] = field(default_factory=Counter)
    harvested_j: float = 0.0
    leaked_j: float = 0.0
    consumed_j: float = 0.0
    curtailed_j: float = 0.0
    _fire_surplus_j: float = 0.0  # battery path: surplus toward the next firing
    _pending_fire_t: Optional[float] = None

    def v_store(self, cfg: HarvesterConfig) -> float:
        if isinstance(cfg.storage, CapacitorStore):
            return cfg.storage.voltage(self.stored_j)
        return cfg.storage.voltage

    def log(self, t: float, event: str, v: float) -> None:
        self.events.append((t, event, v))
        self.counts[event] += 1


def new_state(cfg: HarvesterConfig) -> HarvesterState:
    if isinstance(cfg.storage, BatteryStore):
        # A battery-assisted design starts alive.
        st = HarvesterState(stored_j=0.0, booted=True)
        st.log(0.0, "boot", cfg.storage.voltage)
        return st
    return HarvesterState()


def step(
    state: HarvesterState, p_in: PowerDbm, dt: float, cfg: HarvesterConfig
) -> HarvesterState:
    """Advance the harvester across `dt` seconds of constant input.

    Closed form within the interval: stored energy moves linearly at
    (transfer - leakage) watts between threshold crossings; boot, fire
    and brown-out events are located exactly and logged in order. A
    capacitor store steps through `_walk`, the kernel `run_envelope`
    uses too, as a walk of one piece; a battery charges by
    `_charge_battery` at this input's transfer power.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    p_dc = cfg.rectifier.output_w(p_in)
    if isinstance(cfg.storage, BatteryStore):
        _charge_battery(state, p_dc, dt, cfg)
    else:
        _walk(state, cfg, [(dt, p_dc)], 0.0, dt)
    return state


def _store_levels(store: CapacitorStore) -> tuple[float, float]:
    """Stored energy (e_cut, e_act) at the cutoff and activation
    voltages; the floor is empty, 0 J."""
    return store.energy_j(store.v_cutoff), store.energy_j(store.v_activate)


def _charge_battery(
    state: HarvesterState, p_dc: float, dt: float, cfg: HarvesterConfig
) -> None:
    """The battery stepping rule, in closed form: `dt` seconds at `p_dc`
    watts of transfer. The net of the store's leakage charges the battery
    (a drain takes at most the charge). The load fires once per `e_op_j`
    of new net surplus, evenly spaced, never from charge stored before."""
    store: BatteryStore = cfg.storage  # type: ignore[assignment]
    net = p_dc - store.leakage_w
    state.harvested_j += p_dc * dt
    if net <= 0:
        drained = min(state.stored_j, -net * dt)
        state.leaked_j += p_dc * dt + drained
        state.stored_j -= drained
        state._fire_surplus_j = min(state._fire_surplus_j, state.stored_j)
        state.t_s += dt
        return
    state.leaked_j += store.leakage_w * dt
    e_op = cfg.load.e_op_j
    surplus = state._fire_surplus_j + net * dt
    n_fires = int(surplus / e_op)
    t_first = state.t_s + (e_op - state._fire_surplus_j) / net
    dt_fire = e_op / net
    state.events.extend(
        (t_first + i * dt_fire, "sensor_fire", store.voltage) for i in range(n_fires))
    state.counts["sensor_fire"] += n_fires
    state.consumed_j += n_fires * e_op
    state._fire_surplus_j = surplus - n_fires * e_op
    charge = state.stored_j + net * dt - n_fires * e_op
    if charge > store.capacity_j:
        state.curtailed_j += charge - store.capacity_j
        charge = store.capacity_j
    state.stored_j = charge
    state.t_s += dt


def _fire(
    state: HarvesterState, t: float, e: float, booted: bool, cfg: HarvesterConfig,
    e_cut: float,
) -> tuple[float, bool]:
    """Consume one operation's energy from a capacitor store holding
    `e` joules, with cutoff energy `e_cut`; returns the store's new
    (e, booted)."""
    store: CapacitorStore = cfg.storage  # type: ignore[assignment]
    new_e = max(0.0, e - cfg.load.e_op_j)
    state.consumed_j += e - new_e
    state.log(t, "sensor_fire", store.voltage(new_e))
    if booted and new_e < e_cut:
        booted = False
        state.log(t, "brown_out", store.voltage(new_e))
    return new_e, booted


def _walk(
    state: HarvesterState,
    cfg: HarvesterConfig,
    pieces: Sequence[tuple[float, float]],
    offset: float,
    span_s: float,
) -> None:
    """The capacitor stepping rule: step the store `span_s` seconds
    through `pieces`, each (seconds, transfer watts) of constant input,
    from `offset` seconds into them and wrapping round at their end.
    The first piece is always stepped, however short the span.

    Each stretch heads for one level: activation while the input beats
    leakage, else the cutoff while booted and the floor after. One
    crossing rule books the stretch up to the level, or to the end of
    its piece; only the event at the level differs (boot or fire,
    brown-out). A store pinned at the floor, or with no net input,
    holds to the end of the piece. A store held at activation curtails
    its surplus: through a boot delay, and after a fire too light to move
    it (under the 1e-21 J activation tolerance). This is the innermost
    loop of `run_envelope`, so the clock, the store, the ledger terms,
    `booted` and a pending boot stay in locals for the whole walk.
    """
    store: CapacitorStore = cfg.storage  # type: ignore[assignment]
    e_cut, e_act = _store_levels(store)
    e_top = e_act - 1e-21
    leak = store.leakage_w
    t, e, booted, pending = state.t_s, state.stored_j, state.booted, state._pending_fire_t
    harvested, leaked, curtailed = state.harvested_j, state.leaked_j, state.curtailed_j
    idx, acc = 0, 0.0
    for i, (dt_s, _) in enumerate(pieces):
        if offset < acc + dt_s - 1e-15:
            idx = i
            break
        acc += dt_s
    else:
        acc = offset = 0.0
    into = offset - acc
    n = len(pieces)
    left = span_s

    while True:
        dt_s, p_in_w = pieces[idx]
        avail = dt_s - into
        remaining = left if left < avail else avail
        if remaining > 0:
            left -= remaining
        net = p_in_w - leak
        while remaining > 1e-18:
            # A boot is in progress: hold at the ceiling until the boot
            # delay elapses, then fire.
            if pending is not None:
                wait = pending - t
                tau = min(wait, remaining) if wait > 0 else 0.0
                if tau > 0:
                    gained = min(net * tau, e_act - e)
                    curtailed += max(0.0, net * tau - gained)
                    e = max(0.0, e + gained)
                    harvested += p_in_w * tau
                    leaked += leak * tau
                    t += tau
                    remaining -= tau
                if pending - t > 1e-15:
                    break  # boot still pending past this piece
                pending = None
                e, booted = _fire(state, t, e, booted, cfg, e_cut)
                continue

            if net > 0:
                target = e_act
            elif net < 0 and booted and e > e_cut:
                target = e_cut
            elif net < 0 and e > 0.0:
                target = 0.0
            else:
                # Pinned at the floor, or no net input: whatever comes in
                # leaks away (at net 0 the input is the leakage).
                harvested += p_in_w * remaining
                leaked += p_in_w * remaining
                t += remaining
                break
            at_ceiling = net > 0 and e >= e_top
            if not at_ceiling:
                t_cross = (target - e) / net
                if t_cross >= remaining:
                    e += net * remaining
                    harvested += p_in_w * remaining
                    leaked += leak * remaining
                    t += remaining
                    break
                e = target
                harvested += p_in_w * t_cross
                leaked += leak * t_cross
                t += t_cross
                remaining -= t_cross
            if net < 0:
                if target == e_cut and booted:
                    booted = False
                    state.log(t, "brown_out", store.voltage(e))
            elif not booted:
                booted = True
                state.log(t, "boot", store.voltage(e))
                pending = t + cfg.load.boot_time_s
            else:
                e, booted = _fire(state, t, e, booted, cfg, e_cut)
            if at_ceiling and pending is None and e >= e_top:
                # Pinned at the ceiling; surplus is curtailed.
                curtailed += net * remaining
                harvested += p_in_w * remaining
                leaked += leak * remaining
                t += remaining
                break

        if left <= 1e-15:
            break
        into = 0.0
        idx += 1
        if idx == n:
            idx = 0

    state.t_s, state.stored_j, state.booted, state._pending_fire_t = t, e, booted, pending
    state.harvested_j, state.leaked_j, state.curtailed_j = harvested, leaked, curtailed


# ---------------------------------------------------------------------------
# Update rate


def energy_neutral_update_rate(p_harvest_w: float, load: SensorLoad) -> float:
    """Sustainable operation rate in Hz: harvested power over energy/op."""
    if p_harvest_w < 0:
        raise ValueError("harvested power must be >= 0")
    return p_harvest_w / load.e_op_j


# ---------------------------------------------------------------------------
# Periodic power envelopes and long-run driving

Segment = tuple[float, PowerDbm]  # (duration in seconds, incident power)

#: Length of the periodic incident-power envelope a harvester is driven over.
ENVELOPE_PERIOD_S = 0.010


def envelope_geometry(
    duties: Sequence[float], period_s: float = ENVELOPE_PERIOD_S
) -> list[tuple[float, tuple[int, ...]]]:
    """One period's segments as (seconds, indices of the channels on the
    air, in channel order), from per-channel duties. Channel busy spans
    are staggered uniformly across the period, and one past its end wraps
    round to its start. With per-channel duty below 1/n they never
    overlap; high per-channel duties force simultaneous spans."""
    if not duties:
        raise ValueError("need at least one channel")
    if period_s <= 0:
        raise ValueError("period must be > 0")
    marks = {0.0, period_s}
    spans = []  # channel index, start, end in the period, end past it (<= 0 if none)
    for i, duty in enumerate(duties):
        if not (0.0 <= duty <= 1.0):
            raise ValueError(f"duty must be in [0, 1], got {duty}")
        if duty == 0.0:
            continue
        start = (i * period_s / len(duties)) % period_s
        end = start + duty * period_s
        spans.append((i, start, min(end, period_s), end - period_s))
        marks.update((start, end % period_s))  # past the end, end - period_s exactly
    edges = sorted(marks)
    geometry = []
    for a, b in zip(edges, edges[1:]):
        mid = 0.5 * (a + b)
        on = tuple(i for i, s0, s1, wrap in spans if s0 <= mid < s1 or mid < wrap)
        geometry.append((b - a, on))
    return geometry


def duty_envelope(
    channel_power: Sequence[tuple[PowerDbm, float]], period_s: float = ENVELOPE_PERIOD_S
) -> list[Segment]:
    """One period of incident power from per-channel (rx, duty) pairs: each
    segment of their `envelope_geometry` at its powers' `mw_sum_dbm`."""
    rx_mw = [dbm_to_mw(rx).value for rx, _ in channel_power]
    geometry = envelope_geometry([duty for _, duty in channel_power], period_s)
    return [(dt_s, mw_sum_dbm(rx_mw[i] for i in on)) for dt_s, on in geometry]


def link_envelope(
    eirp: PowerDbm,
    g_rx: GainDbi,
    distance_m: float,
    wall: rf.WallMaterial,
    channel_duty: Sequence[tuple[int, float]],
) -> list[Segment]:
    """The `duty_envelope` a harvester sees `distance_m` from a router
    radiating `eirp`, behind `wall`, from each (channel, duty) it draws
    from; a channel at duty 0 adds nothing, and all at 0 give silence."""
    chan_power = []
    for ch, duty in channel_duty:
        link = rf.LinkGeometry(Distance(distance_m), Frequency(rf.CHANNEL_FREQ_HZ[ch]), wall)
        chan_power.append((rf.received_power(eirp, g_rx, link), duty))
    return duty_envelope(chan_power, ENVELOPE_PERIOD_S)


def mean_transfer_power_w(segments: Sequence[Segment], cfg: HarvesterConfig) -> float:
    """Time-average DC power entering storage over one envelope period."""
    total_t = sum_in_order(dt for dt, _ in segments)
    if total_t <= 0:
        raise ValueError("envelope has zero duration")
    output_w = cfg.rectifier.output_w
    return sum_in_order(output_w(p_in) * dt_s for dt_s, p_in in segments) / total_t


def run_envelope(
    cfg: HarvesterConfig,
    segments: Sequence[Segment],
    duration_s: float,
    state: Optional[HarvesterState] = None,
) -> HarvesterState:
    """Drive a harvester over a periodic envelope for `duration_s`.

    A battery charges by `_charge_battery`, the rule `step` uses too,
    here at the envelope's `mean_transfer_power_w` for the whole run:
    fires are evenly spaced at the mean net surplus.

    A capacitor run is phase-locked to absolute time zero. Its clock is
    a whole period index k and a phase; `t_s = k * period + phase` is
    worked out only where it walks, logs a fire or ends, so it does not
    drift. Once per run it works out each segment's transfer watts, the
    store's `_store_levels` and C, the period's cumulative net energy at
    each segment edge. What it walks goes through `_walk`, the kernel
    `step` uses too: a pending boot, and a start or a train's end in
    mid-period, walk to the next boundary. From a boundary it takes:

    - A fire train, for a booted store with `d_period > 0` and
      no way to reach the cutoff before its first fire (e + min(C)) or
      after any (`e_act - e_op + min(C) - max(C)`). Each next fire is
      the first instant the net energy gained reaches what the store
      lacks of activation: whole periods by division, a bisection of
      C's running maximum (or its suffix maximum, for a fire later in
      the same period) and one linear solve. Each fire consumes `e_op`;
      `harvested_j` and `leaked_j` are booked per whole period plus
      prefix sums at the train's last fire.
    - Else a jump over every whole period with no threshold crossing:
      period j (from 0) stays clear while e + j*d_period + max(C) stays
      below activation and e + j*d_period + min(C) above the cutoff
      (the floor before boot).
    - Else a walk of the period with the crossing. A walked period that
      changes nothing is a fixed point, replicated to the end.

    So runtime scales with the number of events (boots, fires,
    brown-outs), not with simulated time.
    """
    if state is None:
        state = new_state(cfg)
    if isinstance(cfg.storage, BatteryStore):
        _charge_battery(state, mean_transfer_power_w(segments, cfg), duration_s, cfg)
        return state
    store: CapacitorStore = cfg.storage  # type: ignore[assignment]
    leak = store.leakage_w
    # (seconds, transfer watts) of each segment, worked out once per run
    walk = [(dt_s, cfg.rectifier.output_w(p)) for dt_s, p in segments]
    nets = [w - leak for _, w in walk]
    # phase, net energy C and harvested energy at each segment edge
    edges = list(accumulate((dt_s for dt_s, _ in walk), initial=0.0))
    cum = list(accumulate((n * dt_s for n, (dt_s, _) in zip(nets, walk)), initial=0.0))
    harv = list(accumulate((w * dt_s for dt_s, w in walk), initial=0.0))
    period, d_period, harvest_period = edges[-1], cum[-1], harv[-1]
    if period <= 0:
        raise ValueError("envelope has zero duration")
    c_min, c_max = min(cum), max(cum)
    run_max = list(accumulate(cum, max))
    suffix_max = list(accumulate(reversed(cum), max))[::-1]

    e_cut, e_act = _store_levels(store)
    eps = 1e-18
    e_op = cfg.load.e_op_j
    trains = d_period > 0 and e_act - e_op + c_min - c_max > e_cut + eps
    v_fire = store.voltage(e_act - e_op)
    events = state.events

    end_t = state.t_s + duration_s
    k, phase = int(state.t_s // period), state.t_s % period
    while True:
        t = state.t_s = k * period + phase
        remaining = end_t - t
        if remaining <= 1e-12:
            break
        if phase or remaining < period or state._pending_fire_t is not None:
            # the train and the jump start at phase 0: walk to a boundary
            span = min(period - phase, remaining)
            _walk(state, cfg, walk, phase, span)
            k, phase = (k + 1, 0.0) if span == period - phase else (k, phase + span)
            continue
        e = state.stored_j
        if trains and state.booted and e + c_min > e_cut + eps and e < e_act:
            # level: the C the next fire reaches, in period k's frame;
            # s: the segment of the last fire
            k0, level, s, fires = k, e_act - e, 0, 0
            while True:
                if level <= suffix_max[s + 1]:
                    j, i = 0, s + 1
                    while cum[i] < level:
                        i += 1
                else:
                    # the fewest whole periods j >= 1 that bring level
                    # down to C's maximum, so 0 < level <= max(C)
                    j = math.ceil((level - c_max) / d_period)
                    if j < 1:
                        j = 1
                    level -= j * d_period
                    if level > c_max:
                        j, level = j + 1, level - d_period
                    elif j > 1 and level + d_period <= c_max:
                        j, level = j - 1, level + d_period
                    i = bisect_left(run_max, level)
                x = edges[i - 1] + (level - cum[i - 1]) / nets[i - 1]
                t = (k + j) * period + x
                if t >= end_t:
                    break
                k, s = k + j, i - 1
                events.append((t, "sensor_fire", v_fire))
                fires += 1
                phase = x
                level += e_op
            if fires:
                state.counts["sensor_fire"] += fires
                state.stored_j = e_act - e_op
                state.consumed_j += fires * e_op
                state.harvested_j += (k - k0) * harvest_period + (
                    harv[s] + walk[s][1] * (phase - edges[s]))
                state.leaked_j += (k - k0) * (harvest_period - d_period) + leak * phase
                if phase >= period:
                    k, phase = k + 1, phase - period
                continue
        low_bound = e_cut if state.booted else 0.0
        if e + c_min > low_bound + eps and e + c_max < e_act - eps:
            if d_period > 0:
                room = (e_act - eps - c_max - e) / d_period
            elif d_period < 0:
                room = (e + c_min - low_bound - eps) / (-d_period)
            else:
                room = math.inf
            # period j is crossing-free while j < room: jump all of them
            n = int(remaining / period)
            if room < n:
                n = math.ceil(room)
            state.stored_j += n * d_period
            state.harvested_j += n * harvest_period
            state.leaked_j += n * (harvest_period - d_period)
            k += n
            continue
        # A crossing in this period, or pinned: walk it exactly, and if
        # the state comes back identical with no events, the run is in
        # a periodic fixed point and can be replicated to the end.
        snap = (state.stored_j, state.booted, len(events))
        h0, l0, c0 = state.harvested_j, state.leaked_j, state.curtailed_j
        _walk(state, cfg, walk, 0.0, period)
        k += 1
        if (state.stored_j, state.booted, len(events)) == snap:
            reps = int((end_t - k * period) / period)
            if reps >= 1:
                state.harvested_j += reps * (state.harvested_j - h0)
                state.leaked_j += reps * (state.leaked_j - l0)
                state.curtailed_j += reps * (state.curtailed_j - c0)
                k += reps
    return state


# ---------------------------------------------------------------------------
# Operating range


def max_operating_range(
    plan: fcc.TxPlan,
    cfg: HarvesterConfig,
    *,
    g_rx: GainDbi = GainDbi(2.0),
    duty: float = 0.9,
    channels: Sequence[int] = (1, 6, 11),
    wall: rf.WallMaterial = rf.WallMaterial.NONE,
) -> Distance:
    """Largest distance, up to 100 m, at which steady-state operation is
    sustainable.

    The time-average power entering storage must exceed the store's
    `leakage_w`: a capacitor then eventually reaches the boot voltage,
    and a battery's energy-neutral update rate is positive. Found by
    bisection on the envelope `scenario.run`
    drives a harvester with (`link_envelope`), at most 80 steps and
    none once the bounds are adjacent doubles; returns a zero Distance
    when even point-blank operation is unsustainable. The distance does
    not move the `envelope_geometry`, so it is built once; a step sums
    the powers on it into its `mean_transfer_power_w`, float for float.

    `duty` is the per-channel busy fraction; `channels` is the set the
    harvester draws from, so a single-channel harvester passes one.
    """
    draw_w = cfg.storage.leakage_w
    if duty <= 0.0:
        return Distance(0.0)
    eirp_dbm, g_rx_dbi, wall_db = fcc.plan_eirp(plan).value, g_rx.value, wall.attenuation_db
    freqs = [rf.CHANNEL_FREQ_HZ[ch] for ch in channels]
    geometry = envelope_geometry([duty] * len(freqs), ENVELOPE_PERIOD_S)
    total_t = sum_in_order(dt_s for dt_s, _ in geometry)

    def sustainable(d_m: float) -> bool:
        rx_mw = [dbm_to_mw(PowerDbm(rf.received_dbm(eirp_dbm, g_rx_dbi, d_m, f_hz, wall_db)))
                 .value for f_hz in freqs]
        watts = {on: cfg.rectifier.output_w(mw_sum_dbm(rx_mw[i] for i in on))
                 for on in dict.fromkeys(on for _, on in geometry)}
        return sum_in_order(watts[on] * dt_s for dt_s, on in geometry) / total_t - draw_w > 0.0

    lo, hi = rf.MIN_RANGE_M, 100.0
    if not sustainable(lo):
        return Distance(0.0)
    if sustainable(hi):
        return Distance(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # adjacent doubles: no later step can move lo
        if sustainable(mid):
            lo = mid
        else:
            hi = mid
    return Distance(lo)
