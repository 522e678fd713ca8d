"""Why ordinary Wi-Fi fails to power sensors: leakage between packets.

Drives the battery-free temperature harvester's storage element through
two transmit patterns at ten feet:

  * a stock router at 10-40% occupancy, whose incident power sits below
    the rectifier sensitivity, so the store never moves at all, and
  * a sparse-but-above-sensitivity pattern versus a near-continuous one,
    showing how silent periods leak away whatever short bursts banked.

The storage trace is printed as a coarse voltage strip chart.
"""

from wifipower import harvester as hv
from wifipower.units import PowerDbm


def run_pattern(label, p_on: float, duty: float, seconds: float = 400.0):
    cfg = hv.battery_free_temp_sensor()
    state = hv.new_state(cfg)
    period = 0.010
    on = duty * period
    samples = []
    t = 0.0
    while t < seconds:
        if on > 0:
            hv.step(state, PowerDbm(p_on), on, cfg)
        if period - on > 0:
            hv.step(state, PowerDbm(-90.0), period - on, cfg)
        t += period
        if int(t / 20.0) != int((t - period) / 20.0):
            samples.append(state.v_store(cfg))
    boots = state.counts["boot"]
    fires = state.counts["sensor_fire"]
    print(f"\n{label}")
    print(f"  incident {p_on} dBm, duty {duty:.0%}; boots={boots} fires={fires}")
    bar = "".join("#" if v >= 2.3 else str(int(v * 4)) for v in samples)
    print(f"  v_store every 20 s (0..9 = 0..2.4 V, # = boot level): {bar}")


# Stock router at ten feet: -20.8 dBm is below the -17.8 dBm sensitivity.
run_pattern("Stock router, 30% occupancy, ten feet (below sensitivity)", -20.8, 0.30)

# Above sensitivity but sparse: the store creeps up between leaks and
# never makes the 2.4 V boot threshold inside the run.
run_pattern("Above sensitivity but sparse (duty 22%)", -10.0, 0.22)

# Keep the channel effectively continuous and it boots within seconds.
run_pattern("Near-continuous power traffic (duty 90%)", -10.0, 0.90)

print("\nThe failure mode is not low peak power but the silent periods:")
print("the store leaks between packets faster than sparse traffic refills it.")
