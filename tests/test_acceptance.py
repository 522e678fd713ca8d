"""Acceptance suite: every release criterion at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS line with
the measured numbers per criterion. Simulated durations follow the
criteria (60 s of MAC time for channel metrics, a full simulated day
for harvester endurance), so this module dominates suite runtime.
"""

import math
import random
import time

import numpy as np
import pytest

from wifipower import fcc, harvester as hv, mac, rf, scenario
from wifipower.units import Distance, Frequency, GainDbi, PowerDbm

from trace_helpers import trace_of

SEEDS = (101, 211, 307, 401, 503)


def _pass(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def _load(name: str) -> scenario.Scenario:
    return scenario.load_scenario(scenario.bundled_config(name))


def _scheme_run(name: str, scheme: str, seed: int) -> scenario.ReportSet:
    sc = _load(name)
    sc.router.scheme = scheme
    sc.seed = seed
    return scenario.run(sc)


# ---------------------------------------------------------------------------

def test_c01_occupancy_matches_busy_counter_oracle():
    # 1,000 randomized synthetic traces; occupancy() must match a brute
    # per-microsecond busy counter within 1e-9, in under 10 s.
    t0 = time.time()
    rng = random.Random(20240817)
    worst = 0.0
    for _ in range(1000):
        duration = rng.randrange(20_000, 80_000)
        records = []
        t = float(rng.randrange(0, 100))
        while True:
            rate = rng.choice((1.0, 2.0))
            size = rng.randrange(40, 1500)
            airtime = size * 8.0 / rate  # integral microseconds
            if t + airtime > duration:
                break
            records.append(mac.FrameRecord(
                t_start_us=t, channel=6, station_id="s", kind="power_broadcast",
                size_bytes=size, rate_mbps=rate,
                outcome=rng.choice(("delivered", "collided")),
                payload_airtime_us=airtime, busy_time_us=airtime, flow="f",
            ))
            t += airtime + rng.randrange(1, 300)
        trace = trace_of(6, float(duration), records)
        occ = mac.occupancy(trace, (0.0, float(duration)))
        busy = np.zeros(duration, dtype=np.uint8)
        for r in records:
            busy[int(r.t_start_us):int(r.t_start_us + r.payload_airtime_us)] = 1
        oracle = float(busy.sum()) / duration
        worst = max(worst, abs(occ - oracle))
    elapsed = time.time() - t0
    assert worst < 1e-9
    assert elapsed < 10.0
    _pass("C1 occupancy-oracle", f"worst |diff|={worst:.2e} over 1000 traces in {elapsed:.2f}s")


def _delay_occupancy(delay_us: float, threshold: int, seed: int = 51) -> float:
    sc = _load("delay_sweep.cfg")
    sc.router.power_delay_us = delay_us
    sc.router.queue_threshold = threshold
    sc.seed = seed
    rep = scenario.run(sc)
    return rep.occupancy_mean[6]


def test_c02_delay_sweep_plateau_knee_and_threshold_insensitivity():
    plateau = {}
    for delay in (25.0, 50.0, 100.0, 150.0, 200.0, 222.0):
        plateau[delay] = _delay_occupancy(delay, 5)
        assert plateau[delay] > 0.90, f"occupancy {plateau[delay]:.4f} at delay {delay}"
    tail = [plateau[222.0]]
    for delay in (300.0, 400.0, 600.0, 800.0):
        tail.append(_delay_occupancy(delay, 5))
    for a, b in zip(tail, tail[1:]):
        assert b < a, f"occupancy not strictly decreasing past the airtime knee: {tail}"
    thr_occ = [_delay_occupancy(100.0, thr) for thr in (2, 4, 8, 16, 32)]
    spread = max(thr_occ) - min(thr_occ)
    assert spread < 0.05, f"threshold sensitivity {spread:.4f}"
    _pass(
        "C2 delay-sweep",
        f"plateau {min(plateau.values()):.4f}..{max(plateau.values()):.4f} > 0.90, "
        f"tail {['%.3f' % v for v in tail]}, threshold spread {spread:.2e}",
    )


@pytest.fixture(scope="module")
def scheme_means():
    means: dict[str, float] = {}
    for scheme in ("Baseline", "BlindUDP", "NoQueue", "PoWiFi"):
        vals = []
        for seed in SEEDS:
            rep = _scheme_run("scheme_comparison.cfg", scheme, seed)
            vals.append(rep.throughput_mean["client1"])
        means[scheme] = sum(vals) / len(vals)
    return means


def test_c03_scheme_impact_on_saturated_client(scheme_means):
    base = scheme_means["Baseline"]
    assert 28.0 <= base <= 34.0, f"baseline throughput {base:.2f} Mbps"
    ratio_nq = scheme_means["NoQueue"] / base
    ratio_pw = scheme_means["PoWiFi"] / base
    ratio_bl = scheme_means["BlindUDP"] / base
    assert 0.40 <= ratio_nq <= 0.60, f"NoQueue/Baseline {ratio_nq:.3f}"
    assert ratio_pw >= 0.90, f"PoWiFi/Baseline {ratio_pw:.3f}"
    assert ratio_bl <= 0.20, f"BlindUDP/Baseline {ratio_bl:.3f}"
    _pass(
        "C3 scheme-impact",
        f"baseline {base:.2f} Mbps; NoQueue {ratio_nq:.3f}x, "
        f"PoWiFi {ratio_pw:.3f}x, BlindUDP {ratio_bl:.3f}x",
    )


def test_c04_cumulative_occupancy_with_udp_client():
    sc = _load("powifi_default.cfg")
    sc.duration_s = 60.0
    rep = scenario.run(sc)
    assert rep.cumulative_mean >= 0.85, f"cumulative {rep.cumulative_mean:.3f}"
    _pass("C4 cumulative-occupancy", f"mean cumulative {rep.cumulative_mean:.3f} >= 0.85")


def _neighbor_tput(scheme: str, rate: float, seed: int) -> float:
    sc = _load("neighbor_fairness.cfg")
    for st in sc.stations:
        if st.role == "neighbor_ap":
            st.rate_mbps = rate
    sc.router.scheme = scheme
    sc.seed = seed
    rep = scenario.run(sc)
    return rep.throughput_mean["neigh1"]


def test_c05_neighbor_fairness_better_than_equal_share():
    detail = []
    for rate in (6.0, 16.0, 24.0, 36.0, 54.0):
        po = sum(_neighbor_tput("PoWiFi", rate, s) for s in SEEDS) / len(SEEDS)
        eq = sum(_neighbor_tput("EqualShare", rate, s) for s in SEEDS) / len(SEEDS)
        assert po >= eq, f"at {rate} Mbps: PoWiFi {po:.3f} < EqualShare {eq:.3f}"
        detail.append(f"{rate:g}: {po:.2f}>={eq:.2f}")
    eq54 = eq  # the loop's last rate is 54 Mbps
    blind = sum(_neighbor_tput("BlindUDP", 54.0, s) for s in SEEDS) / len(SEEDS)
    assert blind <= 0.25 * eq54, f"BlindUDP {blind:.3f} vs EqualShare {eq54:.3f}"
    _pass(
        "C5 neighbor-fairness",
        "; ".join(detail) + f"; BlindUDP {blind:.2f} <= 0.25*{eq54:.2f}",
    )


def test_c06_stock_router_never_boots():
    sc = _load("baseline_boot.cfg")
    rep = scenario.run(sc)
    # the scenario must actually look like the weak stock setup
    occ = rep.occupancy_mean[6]
    assert occ <= 0.40, f"baseline occupancy {occ:.3f} not sporadic"
    summ = rep.harvester_summary["temp1"]
    assert sc.duration_s == 86400.0
    assert summ["boots"] == 0.0, f"unexpected boots: {summ['boots']}"
    assert summ["fires"] == 0.0
    _pass(
        "C6 baseline-no-boot",
        f"occupancy {occ:.3f} <= 0.40, zero boot events across 24 simulated hours",
    )


def test_c07_temperature_sensor_operating_ranges():
    plan = fcc.TxPlan(n_ant=3, g_ant=GainDbi(6.0), total_conducted=PowerDbm(30.0))
    assert fcc.plan_eirp(plan).value == pytest.approx(36.0)

    d_bf = hv.max_operating_range(plan, hv.battery_free_temp_sensor(), duty=0.9)
    assert 18.0 <= d_bf.feet <= 22.0, f"battery-free range {d_bf.feet:.2f} ft"

    d_bat = hv.max_operating_range(plan, hv.battery_temp_sensor(), duty=0.9)
    assert d_bat.meters > d_bf.meters, "battery range must exceed battery-free"
    assert 24.0 <= d_bat.feet <= 30.0, f"battery range {d_bat.feet:.2f} ft"

    # The single-channel link budget alone cannot reach the battery
    # range: that shortfall is part of the record, not hidden.
    d_budget = rf.range_for_threshold(
        PowerDbm(36.0), GainDbi(2.0), Frequency(2.437e9), PowerDbm(-19.3)
    )
    assert d_budget.feet < 24.0
    d_single = hv.max_operating_range(
        plan, hv.battery_temp_sensor(), duty=0.9, channels=(6,)
    )
    assert d_single.meters < d_bat.meters
    _pass(
        "C7 sensor-range",
        f"battery-free {d_bf.feet:.1f} ft in [18,22]; battery (3-channel) "
        f"{d_bat.feet:.1f} ft in [24,30]; single-channel budget stops at "
        f"{d_budget.feet:.1f} ft and single-channel harvesting at {d_single.feet:.1f} ft",
    )


def test_c08_camera_energy_cycle_and_through_wall_ordering():
    store = hv.CAMERA_STORE
    usable = store.energy_j(store.v_activate) - store.energy_j(store.v_cutoff)
    assert usable == pytest.approx(13.09e-3, abs=0.01e-3)
    assert usable >= 10.4e-3

    walls = ("double_pane_glass", "wooden_door", "hollow_wall", "double_sheetrock")
    intervals = []
    fires_per_activation_ok = True
    for wall in walls:
        sc = _load("camera_throughwall.cfg")
        sc.harvesters[0].wall = rf.WallMaterial(wall)
        rep = scenario.run(sc)
        events = rep.harvester_events["cam1"]
        fires = [t for t, e, _ in events if e == "sensor_fire"]
        assert len(fires) >= 2, f"no repeat captures through {wall}"
        # exactly one capture per activation: every firing leaves the
        # store strictly below the activation voltage
        for t, e, v in events:
            if e == "sensor_fire" and not (v < store.v_activate):
                fires_per_activation_ok = False
        gaps = [b - a for a, b in zip(fires, fires[1:])]
        intervals.append(sum(gaps) / len(gaps))
    assert fires_per_activation_ok
    assert all(math.isfinite(v) for v in intervals)
    assert intervals == sorted(intervals), f"wall ordering violated: {intervals}"
    assert len(set(intervals)) == len(intervals)
    _pass(
        "C8 camera-cycle",
        f"usable {usable * 1e3:.2f} mJ >= 10.4 mJ; inter-image seconds by wall "
        + ", ".join(f"{w}={v:.0f}" for w, v in zip(walls, intervals)),
    )


def test_c09_fcc_properties():
    below = fcc.max_conducted_power(GainDbi(6.0 - 1e-9)).value
    above = fcc.max_conducted_power(GainDbi(6.0 + 1e-9)).value
    assert abs(below - above) < 1e-6

    f = Frequency(2.437e9)
    worst_tie = 0.0
    for n in (1, 2, 3, 4):
        un = fcc.TxPlan(n_ant=n, g_ant=GainDbi(6.0), total_conducted=PowerDbm(30.0))
        ideal = fcc.TxPlan(n_ant=n, g_ant=GainDbi(6.0), total_conducted=PowerDbm(30.0),
                           correlated=True, beamforming_efficiency=1.0)
        p_un = fcc.delivered_power_at_target(un, GainDbi(2.0), Distance(2.0), f).value
        p_id = fcc.delivered_power_at_target(ideal, GainDbi(2.0), Distance(2.0), f).value
        worst_tie = max(worst_tie, abs(p_un - p_id))
        assert abs(p_un - p_id) < 1e-9
        for eta in (0.9, 0.5):
            lossy = fcc.TxPlan(n_ant=n, g_ant=GainDbi(6.0), total_conducted=PowerDbm(30.0),
                               correlated=True, beamforming_efficiency=eta)
            p_lossy = fcc.delivered_power_at_target(
                lossy, GainDbi(2.0), Distance(2.0), f
            ).value
            assert p_lossy < p_un
    _pass(
        "C9 fcc-properties",
        f"continuity at 6 dBi; ideal beamforming ties within {worst_tie:.1e} dB "
        f"and every eta < 1 is strictly worse",
    )


def test_c10_determinism_and_seed_sensitivity(tmp_path):
    sc = _load("powifi_default.cfg")
    sc.duration_s = 10.0
    sc.mac_window_s = 10.0
    rep1 = scenario.run(sc)
    # run_mac and run keep their last results: clear both so the second
    # run simulates and sums its channels too
    mac._simulate.cache_clear()
    scenario._kept_stage.cache_clear()
    sc2 = _load("powifi_default.cfg")
    sc2.duration_s = 10.0
    sc2.mac_window_s = 10.0
    rep2 = scenario.run(sc2)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    rep1.write_outputs(str(d1))
    rep2.write_outputs(str(d2))
    names = ("occupancy.csv", "throughput.csv", "harvester.csv", "summary.txt",
             "trace.txt")
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    sc3 = _load("powifi_default.cfg")
    sc3.duration_s = 10.0
    sc3.mac_window_s = 10.0
    sc3.seed = sc.seed + 1
    rep3 = scenario.run(sc3)
    assert list(rep3.trace_chunks()) != list(rep1.trace_chunks())
    _pass("C10 determinism", "identical seed -> byte-identical CSVs; new seed -> new trace")


def test_c11_home_deployment_envelope_and_anticorrelation():
    cumulative = []
    pairs = []  # (injected neighbor Mbps, our per-channel occupancy)
    for i in range(1, 7):
        sc = _load(f"home_{i}.cfg")
        rep = scenario.run(sc)
        cumulative.append(rep.cumulative_mean)
        assert 0.70 <= rep.cumulative_mean <= 1.35, (
            f"home_{i} cumulative {rep.cumulative_mean:.3f}"
        )
        loads = {ch: 0.0 for ch in (1, 6, 11)}
        for st in sc.stations:
            if st.role == "neighbor_ap":
                offered = st.target_mbps if st.traffic == "udp_cbr" else st.rate_mbps
                loads[st.channel] += offered
        for ch in (1, 6, 11):
            pairs.append((loads[ch], rep.occupancy_mean[ch]))
    xs = np.array([p[0] for p in pairs])
    ys = np.array([p[1] for p in pairs])
    r = float(np.corrcoef(xs, ys)[0, 1])
    assert r < -0.6, f"occupancy does not anti-correlate with neighbor load: r={r:.3f}"
    _pass(
        "C11 home-envelope",
        f"cumulative {min(cumulative):.3f}..{max(cumulative):.3f} within [0.70, 1.35]; "
        f"load/occupancy correlation r={r:.3f}",
    )


def test_c12_burst_completion_ordering():
    # Interactive-burst inflation replaces wall-clock page loads, which
    # depend on host and transport specifics this model does not carry:
    # the testable content is the strict scheme ordering.
    means: dict[str, float] = {}
    for scheme in ("Baseline", "PoWiFi", "NoQueue", "BlindUDP"):
        vals = []
        for seed in SEEDS:
            rep = _scheme_run("burst_workload.cfg", scheme, seed)
            comps = rep.burst_completions_ms["web1"]
            assert comps, f"{scheme}: no completed bursts"
            vals.append(sum(comps) / len(comps))
        means[scheme] = sum(vals) / len(vals)
    inflation = {s: means[s] / means["Baseline"] for s in ("PoWiFi", "NoQueue", "BlindUDP")}
    assert inflation["PoWiFi"] < inflation["NoQueue"] < inflation["BlindUDP"]
    _pass(
        "C12 burst-ordering",
        f"completion inflation PoWiFi {inflation['PoWiFi']:.2f}x < "
        f"NoQueue {inflation['NoQueue']:.2f}x < BlindUDP {inflation['BlindUDP']:.2f}x",
    )
