"""Sensor update rate vs distance, and maximum operating ranges.

With three channels held near 90% busy, the battery-free temperature
sensor updates several times a second up close and dies just past
twenty feet (its cold-start sensitivity plus storage leakage bound).
The battery-assisted version, 1.5 dB more sensitive and free of the
cold-start floor, stretches energy-neutral operation toward thirty
feet when it can harvest all three channels at once.
"""

from wifipower import fcc, harvester as hv, rf
from wifipower.units import Distance, Frequency, GainDbi, PowerDbm

PLAN = fcc.TxPlan(n_ant=3, g_ant=GainDbi(6.0), total_conducted=PowerDbm(30.0))
EIRP = fcc.plan_eirp(PLAN)
DUTY = 0.9


def mean_net_w(cfg, d_ft, wall=rf.WallMaterial.NONE):
    chp = []
    for ch in (1, 6, 11):
        link = rf.LinkGeometry(Distance.from_feet(d_ft),
                               Frequency(rf.CHANNEL_FREQ_HZ[ch]), wall)
        chp.append((rf.received_power(EIRP, GainDbi(2.0), link), DUTY))
    segs = hv.duty_envelope(chp)
    return hv.mean_transfer_power_w(segs, cfg) - cfg.storage.leakage_w


print("Energy-neutral update rate vs distance (updates per second):\n")
print("  distance   temp battery-free   temp battery   camera battery-free")
for d_ft in (4, 8, 12, 16, 20, 24, 28):
    cells = []
    for cfg, load in (
        (hv.battery_free_temp_sensor(), hv.TEMP_SENSOR_LOAD),
        (hv.battery_temp_sensor(), hv.TEMP_SENSOR_LOAD),
        (hv.battery_free_camera(), hv.CAMERA_LOAD),
    ):
        net = max(0.0, mean_net_w(cfg, d_ft))
        cells.append(hv.energy_neutral_update_rate(net, load))
    print(f"   {d_ft:3d} ft      {cells[0]:9.3f}        {cells[1]:9.3f}      "
          f"{cells[2]:12.5f}")

print("\nMaximum operating ranges (bisection over the link budget):")
for label, cfg in (
    ("temperature, battery-free", hv.battery_free_temp_sensor()),
    ("temperature, battery", hv.battery_temp_sensor()),
    ("camera, battery-free", hv.battery_free_camera()),
    ("camera, battery", hv.battery_camera()),
):
    d3 = hv.max_operating_range(PLAN, cfg, duty=DUTY)
    d1 = hv.max_operating_range(PLAN, cfg, duty=DUTY, channels=(6,))
    print(f"  {label:27s}: {d3.feet:5.1f} ft (three channels), "
          f"{d1.feet:5.1f} ft (single channel)")

d_budget = rf.range_for_threshold(PowerDbm(36.0), GainDbi(2.0),
                                  Frequency(2.437e9), PowerDbm(-19.3))
print(f"\nFor scale: the single-channel -19.3 dBm budget closes at "
      f"{d_budget.feet:.1f} ft, so ranges beyond it require summing power "
      f"across simultaneously busy channels.")
