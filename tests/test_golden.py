"""Golden report digests: every bundled config, byte for byte.

Each bundled config runs at its own seed with the MAC window cut to
0.2 s, and the SHA-256 of each of the five files `write_outputs` writes
is pinned below. A change that only restructures or speeds up the
simulator must leave every digest unchanged; a change that moves one
must say in CHANGES.md which behaviour it changed and why.

No bundled config uses a battery-assisted preset, so `BATTERY_GOLDEN`
pins the harvester reports of one more config, `BATTERY_CONFIG`, which
lives here: both battery presets near and far, in the open and behind
a wall, over an hour.

Print the current tables with:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import os

import pytest

from wifipower import scenario

MAC_WINDOW_S = 0.2
REPORTS = ("occupancy.csv", "throughput.csv", "harvester.csv", "summary.txt", "trace.txt")

GOLDEN = {
    "baseline_boot.cfg": {
        "occupancy.csv": "4cb2a26a338ba81956e41c8c88962736d8cac954b8cb9974afd7041d18111e37",
        "throughput.csv": "34c59d4331d498cb35e06a2833284db9d0a006ddf49e5496379e8c40d65597d3",
        "harvester.csv": "34498cd9af4c6383d45024677f90556bb44bd364304959daac4438a8acdaf31a",
        "summary.txt": "c6d65fb6deaecced4d1a925c902809ce911ad870570ae7d6c270d1a014ab5163",
        "trace.txt": "27b82d9fa0608603291386028af7eee555435756060dfc9d097659bc44b5fc2e",
    },
    "burst_workload.cfg": {
        "occupancy.csv": "154c37e8fef72968398712ecf1c68ba9551786dcea3d71e8e4f78bb26806138d",
        "throughput.csv": "f50533eef36d6b969995b1c637404e837afd55290f8ba5e4757eb5e39bc12a5b",
        "harvester.csv": "34498cd9af4c6383d45024677f90556bb44bd364304959daac4438a8acdaf31a",
        "summary.txt": "ef0449b5183e8f540ab283240195f120f8dab3abd7f8863a75c90649f1d220ab",
        "trace.txt": "abd0371ee4413245d1716711b3ca3a8321c89a2869edaff262e6ad52adfc7036",
    },
    "camera_throughwall.cfg": {
        "occupancy.csv": "df2df6bde5468692d64b1d68b4e7ac8630348521f31ae60183982385e1c5e65e",
        "throughput.csv": "5b52a9c729e243d8aeea8a3a4051471eb31b5822a3357a8ebcd5e87b7ad59df6",
        "harvester.csv": "5eb7ba2b2556975aef9015e321654a662a41abdc6e323c38ad188d81d5add272",
        "summary.txt": "1a444d6e6947a9245cb28313b521d031de42af6773b1f221ed339779f77eebd9",
        "trace.txt": "459cb97b70209bb065e7536470f2fa72c01ab15f3e6e8fcd92403699fbf440b8",
    },
    "delay_sweep.cfg": {
        "occupancy.csv": "87289f03ef68eec4e45ad826b26ee47f2a6d8be16f055e90bdc00ed3e1d48755",
        "throughput.csv": "5b52a9c729e243d8aeea8a3a4051471eb31b5822a3357a8ebcd5e87b7ad59df6",
        "harvester.csv": "34498cd9af4c6383d45024677f90556bb44bd364304959daac4438a8acdaf31a",
        "summary.txt": "8ecfd46fd8a8352b9ba486dd7d0e49b27bb32d697ff198a11c73a6a515816a86",
        "trace.txt": "32e88b454b66f39b7644e62efca2f6fa8d2cb350a63851ff25e8fa14a17cfbb6",
    },
    "home_1.cfg": {
        "occupancy.csv": "d3ae45f5a4e85aefa6df635b797e6b41c1359a0199efa4d27dc91815d2ab4f13",
        "throughput.csv": "a27eff82a02d7d7152247099bb129b03faf8263673d1c1c4d6db24770a197200",
        "harvester.csv": "a84572a01974a7bf59637d5dc1f269009c1bc28632430987a15a4fdb55c583fa",
        "summary.txt": "d502d7be65a5dad4f5d56409eb0d96424d5a7d57e09c7dad7c69f647ce6c8a7d",
        "trace.txt": "63bcaf0188ec622053c148cfd18793240fcaf0398c9605489b56606920c38c6f",
    },
    "home_2.cfg": {
        "occupancy.csv": "19d908c87276217ecb0f23249e2e0b71eed5b938c118180f40d03e74541be8a9",
        "throughput.csv": "5064c1a30a5cf8add6f4b408cc0620ba7a384fc2e5fa9c438ea5e6e7cb6b81a7",
        "harvester.csv": "36ca60c00707eb7eec4a8d9afbc5a1091ad2552cc415300a528a81b7063b42f4",
        "summary.txt": "625df4adf264cf973715598d11594457293952dccb610ff4903eb8fa19c8ed07",
        "trace.txt": "9c612c69d4bc48e4e9f697f128bea1b101c691ce78bc07ac185a3fb378663828",
    },
    "home_3.cfg": {
        "occupancy.csv": "7ab176baa4fb645296c1b64d1fe0f50e59f587bf34476ebbb2838f8008f6b62b",
        "throughput.csv": "c38128899519ae3bb5d0c89502ab76351123c711518f12152bc9050002c06b33",
        "harvester.csv": "bc2393b4918d6346090903ebd0a50245745caf08d5a2f8bb4cff8190e600ddb8",
        "summary.txt": "03fe0b6983bfdd431a44ac5fd1fd43255d9133de4409f0efacd238dddd4df78a",
        "trace.txt": "59b035bbf28aca21d506015470cc5745e7b0962ca2a4a122bcb539c77719acd1",
    },
    "home_4.cfg": {
        "occupancy.csv": "65673859191568b03f24a8bfe00b1fbdf8107091935730f5180dd66e00ac5ee2",
        "throughput.csv": "d35f3d1667cc7eefae7ab33301f6a2c0e375ee12313c41eae826a959dc086df4",
        "harvester.csv": "d852bc6cb13968e70f070d3edd3b616850ef49551baab9215eb40fc5d5267a1e",
        "summary.txt": "50a6b2963c772892a15cbe0601bd1f22665b6d49e649d2ed642e1df09d2dce73",
        "trace.txt": "8649a0ff0017cc4fc42c6f4f0d09e47ff2ec49b024a64be2d3e5696aa8e064b6",
    },
    "home_5.cfg": {
        "occupancy.csv": "eeb88bcdab4a4d2e687320d0e87e0b79dc8cbb12d847be43a1378ee624bdf27a",
        "throughput.csv": "24b9849b3cb0e44e20597e369ddf3414dd0a0b9506bb7f6e2dab41e3b0f40ce5",
        "harvester.csv": "2a60cac0108e391ebf376d0e9a769960421262683b6a4da93852667afd2fec01",
        "summary.txt": "8d9d9b2ae6b07dcd789eec9a75440ab3e3876730c1f6569d14bd65c6ce7ba9e2",
        "trace.txt": "ab9ddd7b5de89ab4787e5db7f1112a57cd156f6b6f0e3cce1d40d13bafe4305b",
    },
    "home_6.cfg": {
        "occupancy.csv": "737f485af9f52030e99b09a34bc18bdab3c6c159823b4acd4fc13e10ded97693",
        "throughput.csv": "d5c9764361e4c0a9d77cb750160a1047344b944df8ce16772a0d186615c85977",
        "harvester.csv": "e35b535b68130f39dae90b62982dfa145c21655f42d91fec595220de8e40af17",
        "summary.txt": "3bff583dcb683f913a8f0627e0a954bfaf8e999d050e2ea8673e1f627df2f8a3",
        "trace.txt": "10b83c18580d4988e50474892ecdd0397e72cfd1dc902cb11c7f3922b62861fa",
    },
    "neighbor_fairness.cfg": {
        "occupancy.csv": "4156f40dab3b46cdc5000c8061c21c94b2e2e80984490ab961b9ed36c93ba7fb",
        "throughput.csv": "7d98c7171dad2e6623f101948c9283e4d5fa4a148b0776db931c10dce4f80911",
        "harvester.csv": "34498cd9af4c6383d45024677f90556bb44bd364304959daac4438a8acdaf31a",
        "summary.txt": "46537dfaea0cbfd2d0f5bae09632318c86571337a9f89e6904d60a07f91f449a",
        "trace.txt": "79512e0e0c1e728f54a6fcfcc48b7b82a59e409963e1a9b35b4c23b0764d8a37",
    },
    "powifi_default.cfg": {
        "occupancy.csv": "c4de479bc1272404528def65396e308666278a9d0a918b57de7c6d629f882a12",
        "throughput.csv": "e4f0f06c1f155fe0bda247e80a69a9da6e9a01edbdb45cffedc515cab9bc093b",
        "harvester.csv": "c61a349dd3c05914146799e1a6c6b30ed889d23af8880950a5123c296f201026",
        "summary.txt": "39a927a3f443ee437721868ade40600b3110412967f681801a46783b4b134d76",
        "trace.txt": "9d2c69c4c1bddfd14fca2c7f8c043e81895b430339621517f6f03b776d87faba",
    },
    "scheme_comparison.cfg": {
        "occupancy.csv": "37d6f402529ad3d9721cbe4dc1c4a7574ea96fed66562d5a81d549fb1412184d",
        "throughput.csv": "e51584b2d46973ab89c0bee99940925f6d1911b99c6406a275c2a646231dd744",
        "harvester.csv": "34498cd9af4c6383d45024677f90556bb44bd364304959daac4438a8acdaf31a",
        "summary.txt": "f679f2a36bdf2a74d877957a02837d689c6d736aa4ceb68e39e39270768604b9",
        "trace.txt": "b34a5f8372ac327b8c0c46f21777e95c3660e3aab4ecb856b2eb52b6fd86121a",
    },
    "temp_sensor_range.cfg": {
        "occupancy.csv": "68d5eeaff25d313df543e456c08de05dbee69af898c92c33e1b47ee9c38b9749",
        "throughput.csv": "5b52a9c729e243d8aeea8a3a4051471eb31b5822a3357a8ebcd5e87b7ad59df6",
        "harvester.csv": "c8acb9470b59983c548ff71a60493bcda33453781c0a197c497d9ef66d7db8b2",
        "summary.txt": "711cf6a7b38e2bff96dfb480c9364af50fdd8c5673fdc7cafd67ac8522dea193",
        "trace.txt": "627bc74e2b627f919bef8ce67ac75387bcf7a83fa47f42eb6c58bb9d92a3b147",
    },
}


BATTERY_CONFIG = """\
duration_s = 3600
seed = 1
mac_window_s = 0.2

[harvester temp_near]
kind = temp_battery
distance_ft = 10

[harvester temp_far]
kind = temp_battery
distance_ft = 60

[harvester cam_near]
kind = camera_battery
distance_ft = 6

[harvester cam_wall]
kind = camera_battery
distance_ft = 8
wall = hollow_wall
"""
BATTERY_REPORTS = ("harvester.csv", "summary.txt")

BATTERY_GOLDEN = {
    "harvester.csv": "68069bb3302f5fcda32edabf8fc9fc1f4ce8db87d8ddcd8b06797a220292f64f",
    "summary.txt": "83ba444c56e1235496ca2f2ad4fb275e1c6f3d8f90c483c0598974a7a64f951c",
}


def _digests(
    sc: scenario.Scenario, out_dir: str, reports: tuple[str, ...]
) -> dict[str, str]:
    scenario.run(sc).write_outputs(out_dir)
    out = {}
    for name in reports:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def report_digests(config: str, out_dir: str) -> dict[str, str]:
    sc = scenario.load_scenario(scenario.bundled_config(config))
    sc.mac_window_s = MAC_WINDOW_S
    return _digests(sc, out_dir, REPORTS)


def battery_digests(out_dir: str) -> dict[str, str]:
    return _digests(scenario.parse_scenario(BATTERY_CONFIG), out_dir, BATTERY_REPORTS)


def test_every_bundled_config_is_pinned():
    configs_dir = os.path.dirname(scenario.bundled_config("powifi_default.cfg"))
    assert sorted(GOLDEN) == sorted(f for f in os.listdir(configs_dir) if f.endswith(".cfg"))


@pytest.mark.parametrize("config", sorted(GOLDEN))
def test_report_digests_unchanged(config, tmp_path):
    assert report_digests(config, str(tmp_path)) == GOLDEN[config]


def test_battery_report_digests_unchanged(tmp_path):
    assert battery_digests(str(tmp_path)) == BATTERY_GOLDEN


if __name__ == "__main__":
    import tempfile

    configs_dir = os.path.dirname(scenario.bundled_config("powifi_default.cfg"))
    print("GOLDEN = {")
    for cfg in sorted(f for f in os.listdir(configs_dir) if f.endswith(".cfg")):
        with tempfile.TemporaryDirectory() as tmp:
            digests = report_digests(cfg, tmp)
        print(f'    "{cfg}": {{')
        for name in REPORTS:
            print(f'        "{name}": "{digests[name]}",')
        print("    },")
    print("}")
    with tempfile.TemporaryDirectory() as tmp:
        digests = battery_digests(tmp)
    print("BATTERY_GOLDEN = {")
    for name in BATTERY_REPORTS:
        print(f'    "{name}": "{digests[name]}",')
    print("}")
