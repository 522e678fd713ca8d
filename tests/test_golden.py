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

`ZERO_DUTY_GOLDEN` pins the harvester reports of `ZERO_DUTY_CONFIG`,
whose harvesters (all four presets) draw only from channels the router
does not serve, so each runs over an envelope with no power in it.

`SWEEP_GOLDEN` pins the bytes of `sweep_csv` for three short sweeps:
two that leave every MAC input unchanged (`distance`, `wall_material`)
and one that changes it (`inter_packet_delay`), each over several seeds.

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
        "occupancy.csv": "621b58e46aa3837ecb70de543e34b3dd3ac22ed3bafc0232d3490ac3ae831258",
        "throughput.csv": "8ec3ca3de435af3d66b32a2ff9028a2cf343a06fd6efe3d114927b16adfb1411",
        "harvester.csv": "34498cd9af4c6383d45024677f90556bb44bd364304959daac4438a8acdaf31a",
        "summary.txt": "a709999fc44a535c01963e2db3c3397244aa08d97a3a4fe0c873ca2b8398a7fb",
        "trace.txt": "27b82d9fa0608603291386028af7eee555435756060dfc9d097659bc44b5fc2e",
    },
    "burst_workload.cfg": {
        "occupancy.csv": "0a5e029f4912f77ac8e09ac476e5e6d1ec0786f728b6177cac321825225fd0d3",
        "throughput.csv": "8aa280983cdeaa420d9c612b69dabe45ed22c3e5cc330066647a665a48fa5809",
        "harvester.csv": "34498cd9af4c6383d45024677f90556bb44bd364304959daac4438a8acdaf31a",
        "summary.txt": "3fcce0e68a7ee1bfdbb643bc4d337d54917d74af4e205872e45eefb539b120ff",
        "trace.txt": "abd0371ee4413245d1716711b3ca3a8321c89a2869edaff262e6ad52adfc7036",
    },
    "camera_throughwall.cfg": {
        "occupancy.csv": "d505c36a8a4727e15e4ed87f22174708ab097ef68501b79c7f6b4db8a7ad29e4",
        "throughput.csv": "5b52a9c729e243d8aeea8a3a4051471eb31b5822a3357a8ebcd5e87b7ad59df6",
        "harvester.csv": "db5de37e43cbd8b25f21b352bf094854dd6401dfc3065c4dad45a0506c8944db",
        "summary.txt": "1a444d6e6947a9245cb28313b521d031de42af6773b1f221ed339779f77eebd9",
        "trace.txt": "459cb97b70209bb065e7536470f2fa72c01ab15f3e6e8fcd92403699fbf440b8",
    },
    "delay_sweep.cfg": {
        "occupancy.csv": "ca13a0f655d2618947e9ea2299e572b5dabcdaf435d8bd59ce18417ec90bf4db",
        "throughput.csv": "5b52a9c729e243d8aeea8a3a4051471eb31b5822a3357a8ebcd5e87b7ad59df6",
        "harvester.csv": "34498cd9af4c6383d45024677f90556bb44bd364304959daac4438a8acdaf31a",
        "summary.txt": "8ecfd46fd8a8352b9ba486dd7d0e49b27bb32d697ff198a11c73a6a515816a86",
        "trace.txt": "32e88b454b66f39b7644e62efca2f6fa8d2cb350a63851ff25e8fa14a17cfbb6",
    },
    "home_1.cfg": {
        "occupancy.csv": "d4e0e8ee7db5d46679b680be9379026708b09ff48756a0b6ea58a4cbbf2dec83",
        "throughput.csv": "2ef5f0ed434aa33aa466f376914155dbaf72b250b6ca6820f6f8ee82f6f5c0df",
        "harvester.csv": "fd46bea1c2b6125ccef973aa67dcea5a08c63523e3c18bb460a473d86bac728c",
        "summary.txt": "ede0421edd8ebbb71895988c68497b900c8c3b7cf577eabc6eea53fee85270fb",
        "trace.txt": "63bcaf0188ec622053c148cfd18793240fcaf0398c9605489b56606920c38c6f",
    },
    "home_2.cfg": {
        "occupancy.csv": "2696007059b344e928cd31958ff799ad50f0e408808819404560aa97d0abbbe7",
        "throughput.csv": "a53c9fe4c4e2624dc92b6bebfaec5a1248e61b5d638d66b257abd91e9bc61bb1",
        "harvester.csv": "1e885687ad15745b0f9cecc34e221b9dd2024e703f65acc00bf70a73f724f63c",
        "summary.txt": "1abfb0f640b41d3d5c74ed975e0f8a7ee89eece6247865e7894064908d636e00",
        "trace.txt": "9c612c69d4bc48e4e9f697f128bea1b101c691ce78bc07ac185a3fb378663828",
    },
    "home_3.cfg": {
        "occupancy.csv": "fa559c9024a6b14305c8694926c3e100988fc70ac63b9eb91fd929b8d6fd23c8",
        "throughput.csv": "465493c07f5fd1caacced91f9581dd92e895ca47aba5a6f505b06d41af794d0f",
        "harvester.csv": "90472cdcac3e20c3d779d2a2ca47098f5addaed3402a77fa31c11d541b99d2ff",
        "summary.txt": "5f71a333e7baf60924a8d0b126d9b82d4667093f3e23539554f0a215d72cddd1",
        "trace.txt": "59b035bbf28aca21d506015470cc5745e7b0962ca2a4a122bcb539c77719acd1",
    },
    "home_4.cfg": {
        "occupancy.csv": "68e0f5bc745eb709f25f84820f25463237ad1d95903527b31ac15a305ce5b275",
        "throughput.csv": "dda7a77aacacb67f05376c17c64c2c8885621bcc5651e12db805b67ddf70f775",
        "harvester.csv": "beb1b524c7271bcd59db6110ac1bcf83cb289e0f01c8bcec9cd088ddeddac4d7",
        "summary.txt": "990db311c0695f40a366916b9434530ddbe11fdfeee5d6173fb67848f5faadca",
        "trace.txt": "8649a0ff0017cc4fc42c6f4f0d09e47ff2ec49b024a64be2d3e5696aa8e064b6",
    },
    "home_5.cfg": {
        "occupancy.csv": "402824fedd8fff4956a0b92ab8886cc7b13e3bb34830e05664be033ad4375de9",
        "throughput.csv": "78b95994a3dc76d0be6caeb72c2b069b40665ee8b7a4cdfff3beccc218358fd7",
        "harvester.csv": "2a60cac0108e391ebf376d0e9a769960421262683b6a4da93852667afd2fec01",
        "summary.txt": "fa4877b5c4bc81c4a981a02116d517366ec49483cb7cc04f29db450d939a49eb",
        "trace.txt": "ab9ddd7b5de89ab4787e5db7f1112a57cd156f6b6f0e3cce1d40d13bafe4305b",
    },
    "home_6.cfg": {
        "occupancy.csv": "d4e379e1844fde6dcc659be6bf5fb59cae8323389b2619d311b95ba90931ac60",
        "throughput.csv": "b92ec69a8edb7f3839ffa95419ecbe527090f6b3ba0fe26f65f3cfccfa3ee83f",
        "harvester.csv": "7529bf18c0c330901222b58ccea9f7e8c0ed362697379f0d629a9911bc6f94e8",
        "summary.txt": "781123bd4bd46fd7dc614a202ab12b7b2189debb4da0f81d8c75ef1b946f728a",
        "trace.txt": "10b83c18580d4988e50474892ecdd0397e72cfd1dc902cb11c7f3922b62861fa",
    },
    "neighbor_fairness.cfg": {
        "occupancy.csv": "257c418360776c6399c54ef5316c6fb2e03113d639824afadfcc8157be6f7022",
        "throughput.csv": "f98ed718a7274d2049e73df50bfac4aeabef403a2f69f5db6054f482479a3afe",
        "harvester.csv": "34498cd9af4c6383d45024677f90556bb44bd364304959daac4438a8acdaf31a",
        "summary.txt": "45312bc4ec4b9613eeefa2bcc797535cd996c296935b81f5528e6f1a5051b7e4",
        "trace.txt": "79512e0e0c1e728f54a6fcfcc48b7b82a59e409963e1a9b35b4c23b0764d8a37",
    },
    "powifi_default.cfg": {
        "occupancy.csv": "f2395f1765370d74965d3b379dd890e457463ee023868f943ed77736390a87b1",
        "throughput.csv": "13a612eb57aff6d4b6e30858fbdaa169ecb91387667787b6820044a1e68e3cba",
        "harvester.csv": "c61a349dd3c05914146799e1a6c6b30ed889d23af8880950a5123c296f201026",
        "summary.txt": "f9a801582d807e63a78408404759f6b246675a1fdd3fb80081c961a7033992ad",
        "trace.txt": "9d2c69c4c1bddfd14fca2c7f8c043e81895b430339621517f6f03b776d87faba",
    },
    "scheme_comparison.cfg": {
        "occupancy.csv": "51214ddedba156a7413177d1d1fbb35a3bfe14699ab17a905d3b1d7a0c1349d8",
        "throughput.csv": "4ad3db181f1470ef89eb074dd8d7c94352ad27eed4b5922f74a9571109f2f8ae",
        "harvester.csv": "34498cd9af4c6383d45024677f90556bb44bd364304959daac4438a8acdaf31a",
        "summary.txt": "59609684bab28b78909624b0552169a420f71289611a57deaf830005d338fa62",
        "trace.txt": "b34a5f8372ac327b8c0c46f21777e95c3660e3aab4ecb856b2eb52b6fd86121a",
    },
    "temp_sensor_range.cfg": {
        "occupancy.csv": "43a1e337502da1d0a71ec7c952dd5ba9f906d2816eea6072a4a8c13912497e0c",
        "throughput.csv": "5b52a9c729e243d8aeea8a3a4051471eb31b5822a3357a8ebcd5e87b7ad59df6",
        "harvester.csv": "e0e53a50b78c01652edab5a017f8f403e7c1a6e593ae7a75a0a7a7c7e45f51a8",
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

ZERO_DUTY_CONFIG = """\
duration_s = 3600
seed = 1
mac_window_s = 0.2

[router]
channels = 1

[harvester temp_free]
kind = temp_battery_free
channels = 6, 11

[harvester temp_batt]
kind = temp_battery
channels = 6

[harvester cam_free]
kind = camera_battery_free
channels = 11

[harvester cam_batt]
kind = camera_battery
channels = 6, 11
"""

ZERO_DUTY_GOLDEN = {
    "harvester.csv": "c2c304291938f2030e531827f701fc03b20fc8cc695ab4d44d869ffbdb52da63",
    "summary.txt": "527ebad1a739897479977ab7b5674ef7907d3b791141286a2a6fa909de58eef0",
}

#: name -> (bundled config, variable, values, seeds, duration_s); each
#: runs with `mac_window_s = 0.05`
SWEEP_CASES = {
    "distance": ("temp_sensor_range.cfg", "distance", (4.0, 12.0, 24.0), (11, 12, 13), 60.0),
    "wall_material": (
        "camera_throughwall.cfg", "wall_material",
        ("none", "wooden_door", "double_sheetrock"), (61, 62), 3600.0,
    ),
    "inter_packet_delay": (
        "neighbor_fairness.cfg", "inter_packet_delay", (100.0, 1000.0, 5000.0), (41, 42), 10.0,
    ),
}

SWEEP_GOLDEN = {
    "distance": "023e0b1f18710ced4fc0236d16aead22fa455332fe3d45028b099b1ecaba935d",
    "wall_material": "dbb34e19742f5d49fbb96ff9f7955221e2d200eacd6b97a819a8d5a23649213e",
    "inter_packet_delay": "6ecf511dd657202ef66403c0f8b14b46230ccf473060c4ac182bacff02f94145",
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


def zero_duty_digests(out_dir: str) -> dict[str, str]:
    return _digests(scenario.parse_scenario(ZERO_DUTY_CONFIG), out_dir, BATTERY_REPORTS)


def sweep_digest(case: str) -> str:
    config, variable, values, seeds, duration_s = SWEEP_CASES[case]
    sc = scenario.load_scenario(scenario.bundled_config(config))
    sc.mac_window_s = 0.05
    sc.duration_s = duration_s
    rows = scenario.sweep(sc, scenario.SweepSpec(variable, values), seeds=seeds)
    return hashlib.sha256(scenario.sweep_csv(rows).encode()).hexdigest()


def test_every_bundled_config_is_pinned():
    configs_dir = os.path.dirname(scenario.bundled_config("powifi_default.cfg"))
    assert sorted(GOLDEN) == sorted(f for f in os.listdir(configs_dir) if f.endswith(".cfg"))


@pytest.mark.parametrize("config", sorted(GOLDEN))
def test_report_digests_unchanged(config, tmp_path):
    assert report_digests(config, str(tmp_path)) == GOLDEN[config]


def test_battery_report_digests_unchanged(tmp_path):
    assert battery_digests(str(tmp_path)) == BATTERY_GOLDEN


def test_zero_duty_report_digests_unchanged(tmp_path):
    assert zero_duty_digests(str(tmp_path)) == ZERO_DUTY_GOLDEN


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_csv_unchanged(case):
    assert sweep_digest(case) == SWEEP_GOLDEN[case]


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
    with tempfile.TemporaryDirectory() as tmp:
        digests = zero_duty_digests(tmp)
    print("ZERO_DUTY_GOLDEN = {")
    for name in BATTERY_REPORTS:
        print(f'    "{name}": "{digests[name]}",')
    print("}")
    print("SWEEP_GOLDEN = {")
    for case in SWEEP_CASES:
        print(f'    "{case}": "{sweep_digest(case)}",')
    print("}")
