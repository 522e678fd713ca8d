"""Set-up probe: import wifipower, then parse, validate and build the
stations of the scenario read from stdin. `run.py` times this script
from process start to exit.

    python3 bench/probe.py src < scenario.cfg
"""

import sys

sys.path.insert(0, sys.argv[1])

from wifipower import scenario  # noqa: E402

scenario.build_stations(scenario.parse_scenario(sys.stdin.read()))
