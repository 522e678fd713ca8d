"""What the power traffic does to a saturated download client.

One client saturates channel 1 through the router while each power
scheme runs. Blind low-rate broadcast wrecks the client; ungated
54 Mbps broadcast halves it (the interface splits evenly between the
two flows); the queue-gated scheme backs off whenever client frames
are waiting and costs almost nothing.
"""

from wifipower import scenario

print("Saturated 54 Mbps client, 20 s per scheme:\n")
results = {}
for scheme in ("Baseline", "BlindUDP", "NoQueue", "PoWiFi", "PoWiFiSlow"):
    sc = scenario.load_scenario(scenario.bundled_config("scheme_comparison.cfg"))
    sc.duration_s = 20.0
    sc.router.scheme = scheme
    rep = scenario.run(sc)
    results[scheme] = rep.throughput_mean["client1"]
    stats = rep.power_stats.get(1)
    gate = (f"power admitted {stats.admitted}, gated {stats.dropped_gate}"
            if stats else "no power traffic")
    print(f"  {scheme:9s}: client {results[scheme]:6.2f} Mbps   ({gate})")

base = results["Baseline"]
print("\nRelative to baseline:")
for scheme in ("BlindUDP", "NoQueue", "PoWiFi", "PoWiFiSlow"):
    print(f"  {scheme:9s}: {results[scheme] / base:6.3f}x")

print("\nThe queue-depth gate is the whole trick: with client frames queued")
print("at or above the threshold, power packets are dropped before they")
print("ever contend for air.")
