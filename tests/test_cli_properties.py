"""Property test of the CLI's argv boundary.

`wifipower run`, `sweep`, `fcc` and `analyze`, given option values drawn
from lists of good and bad tokens, exit 0 or 2 (argparse's own usage
errors included), never 3, and never print `nan`.

Every drawn `--duration` is invalid or at most 0.2 s: a run keeps each
harvester event in memory, so a long valid duration would only make the
test slow.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from wifipower import cli, scenario

CONFIG_DIR = Path(scenario.bundled_config("powifi_default.cfg")).parent
CONFIGS = [str(CONFIG_DIR / name) for name in (
    "powifi_default.cfg", "temp_sensor_range.cfg", "neighbor_fairness.cfg",
    "delay_sweep.cfg", "home_1.cfg",
)]
BAD = ["nan", "inf", "-inf", "-1", "0", "1e300", "", "abc"]


def tokens(good: list[str]) -> st.SearchStrategy[str]:
    """A token of `good` or of `BAD`, each good one three times as likely."""
    return st.sampled_from(good * 3 + BAD)


INTS = tokens(["1", "2", "3", "7"])
NUMBERS = tokens(["1e-300", "1", "2", "6", "30", "0.5"])
DURATIONS = tokens(["1e-300", "0.001", "0.05", "0.2"])
SWEEP_VALUES = st.lists(
    tokens(["1e-300", "6", "12", "24", "54", "none", "hollow_wall"]), min_size=1, max_size=3,
).map(",".join)  # "" among the bad tokens makes an empty list
WINDOWS = tokens(["0,1000", "0,200000", "1e-300,1e300"]) | st.sampled_from(
    ["5,1", "5,5", "nan,1", "0,inf", "0"]
)
STATIONS = tokens(["router_ch1", "router_ch6,router_ch11", "nobody"]) | st.just(",")


def options(**drawn):
    """`--name value` pairs, each option of `drawn` given or left out."""
    return st.fixed_dictionaries({}, optional=drawn).map(
        lambda d: [arg for name, value in d.items()
                   for arg in (f"--{name.replace('_', '-')}", value)]
    )


def argvs(out: str, trace: str) -> st.SearchStrategy:
    config = st.sampled_from(CONFIGS)
    run = st.tuples(config, options(seed=INTS), DURATIONS).map(
        lambda t: ["run", t[0], *t[1], "--duration", t[2], "--out-dir", out]
    )
    sweep = st.tuples(
        config, st.sampled_from(scenario.SWEEP_VARIABLES + ("speed",)), SWEEP_VALUES,
        options(seeds=INTS, seed=INTS), DURATIONS,
    ).map(lambda t: ["sweep", t[0], "--var", t[1], "--values", t[2], *t[3],
                     "--duration", t[4], "--out-dir", out])
    fcc = st.tuples(
        options(n_ant=INTS, gain_dbi=NUMBERS, total_dbm=NUMBERS, efficiency=NUMBERS),
        st.booleans(),
    ).map(lambda t: ["fcc", *t[0], *(["--correlated"] if t[1] else [])])
    analyze = st.tuples(
        st.sampled_from([trace] * 3 + [CONFIGS[0], out + "/missing.txt"]),
        options(window=WINDOWS, stations=STATIONS),
    ).map(lambda t: ["analyze", t[0], *t[1]])
    return st.one_of(run, sweep, fcc, analyze)


def exit_code(argv: list[str], stdout: io.StringIO) -> int:
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            return exc.code


def test_any_argv_exits_0_or_2_without_nan():
    with tempfile.TemporaryDirectory() as tmp:
        trace = f"{tmp}/trace.txt"
        assert exit_code(["run", CONFIGS[0], "--duration", "0.2", "--out-dir", tmp],
                         io.StringIO()) == 0

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(argvs(f"{tmp}/out", trace))
        def check(argv):
            stdout = io.StringIO()
            assert exit_code(argv, stdout) in (0, 2)
            assert "nan" not in re.split(r"[,=\s]", stdout.getvalue())

        check()
