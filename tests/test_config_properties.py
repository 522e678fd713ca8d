"""Property tests of the config boundary over edited bundled configs.

A bundled config with lines dropped, duplicated or swapped, or with
keys set to random tokens, either parses into a scenario whose stations
and transmit plan build, or raises `ConfigError` (exit 2 at the CLI);
never another exception (exit 3). Parse only: nothing is run.
"""

from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from wifipower import scenario
from wifipower.errors import ConfigError

SETTINGS = settings(max_examples=1000, deadline=None, derandomize=True, database=None)

CONFIG_DIR = Path(scenario.bundled_config("powifi_default.cfg")).parent
CONFIGS = [p.read_text() for p in sorted(CONFIG_DIR.glob("*.cfg"))]
DEFAULT = (CONFIG_DIR / "powifi_default.cfg").read_text()
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
