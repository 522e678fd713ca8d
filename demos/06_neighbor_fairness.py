"""Fairness toward a neighboring network.

A saturated neighbor router-client pair shares channel 1 with our
power traffic. EqualShare (power packets at the neighbor's own bit
rate) models a world where each router takes one equal time share.
Because the gated scheme sends at 54 Mbps, its transmissions occupy
the channel more briefly than a slower neighbor's, leaving the
neighbor more throughput than an equal time share would.
"""

from wifipower import scenario


def neighbor_tput(scheme_name, rate, seconds=20.0):
    sc = scenario.load_scenario(scenario.bundled_config("neighbor_fairness.cfg"))
    sc.duration_s = seconds
    for st in sc.stations:
        if st.role == "neighbor_ap":
            st.rate_mbps = rate
    sc.router.scheme = scheme_name
    return scenario.run(sc).throughput_mean["neigh1"]


print("Neighbor throughput (Mbps) vs its bit rate, 20 s per point:\n")
print("  neighbor rate    BlindUDP    EqualShare    gated 54 Mbps power")
for rate in (6.0, 16.0, 24.0, 36.0, 54.0):
    bl = neighbor_tput("BlindUDP", rate)
    eq = neighbor_tput("EqualShare", rate)
    po = neighbor_tput("PoWiFi", rate)
    print(f"      {rate:4.0f}        {bl:7.2f}     {eq:7.2f}        {po:7.2f}")

print("\nThe gated scheme beats the equal-share line at every rate and ties")
print("it at 54 Mbps, where both sides send identical frames. Blind 1 Mbps")
print("broadcast starves the neighbor outright.")
