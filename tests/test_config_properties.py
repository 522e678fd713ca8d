"""Property tests of the config boundary over edited bundled configs.

A bundled config with lines dropped, duplicated or swapped, or with
keys set to random tokens, either parses into a scenario whose stations
and transmit plan build, or raises `ConfigError` (exit 2 at the CLI);
never another exception (exit 3). A config that parses also runs,
with a short MAC window and duration: its reports hold no `nan` and
its trace reads back through `analyze_trace`.
"""

import os
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from wifipower import scenario
from wifipower.errors import ConfigError

SETTINGS = settings(max_examples=1000, deadline=None, derandomize=True, database=None)

CONFIG_DIR = Path(scenario.bundled_config("powifi_default.cfg")).parent
CONFIGS = [p.read_text() for p in sorted(CONFIG_DIR.glob("*.cfg"))]
DEFAULT = (CONFIG_DIR / "powifi_default.cfg").read_text()
TEMP_SENSOR = (CONFIG_DIR / "temp_sensor_range.cfg").read_text()
KEYS = sorted({key for keys in scenario._SECTION_KEYS.values() for key in keys})
TOKENS = st.one_of(
    st.sampled_from([
        "0", "-1", "1", "2", "6", "1e-300", "1e308", "nan", "inf", "", "true",
        "1,6,11", "6,,", "none", "PoWiFi", "EqualShare", "neighbor_ap", "burst",
        "udp_cbr", "hollow_wall", "camera_battery",
    ]),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(alphabet="[]=#,. -_01x", max_size=8),
)


@st.composite
def edited_configs(draw) -> str:
    lines = draw(st.sampled_from(CONFIGS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("drop", "duplicate", "swap", "set")))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines.insert(i, f"{draw(st.sampled_from(KEYS))} = {draw(TOKENS)}")
    return "\n".join(lines) + "\n"


@SETTINGS
@given(edited_configs())
@example(DEFAULT + "[]\n")
@example(DEFAULT.replace("[router]\n", "[router]\nn_antennas = 0\n"))
def test_edited_configs_parse_or_raise_config_error(text):
    try:
        sc = scenario.parse_scenario(text)
        scenario.build_stations(sc)
        sc.router.tx_plan()
    except ConfigError:
        pass


#: The run-level fuzz caps each run so that the whole test stays short.
RUN_MAC_WINDOW_S = 0.05
RUN_DURATION_S = 60.0


# most edited configs do not parse; only the ones that do count as examples
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(edited_configs())
# far under the range search's floor the link budget overflowed in the run
@example(TEMP_SENSOR.replace("distance_ft = 10", "distance_m = 1e-300"))
def test_edited_configs_that_parse_run_and_read_back(text):
    try:
        sc = scenario.parse_scenario(text)
    except ConfigError:
        assume(False)
    sc.duration_s = min(sc.duration_s, RUN_DURATION_S)
    sc.mac_window_s = min(sc.effective_mac_window_s(), RUN_MAC_WINDOW_S)
    rep = scenario.run(sc)
    with tempfile.TemporaryDirectory() as out:
        rep.write_outputs(out)
        for name in os.listdir(out):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                # a harvester firing fewer than twice has mean_interval_s=inf
                assert "nan" not in re.split(r"[,=\n]", fh.read()), name
        read = scenario.analyze_trace(os.path.join(out, "trace.txt"))
    assert sorted(read["per_channel"]) == sorted(ch for ch, tr in rep.traces.items() if tr.starts)
