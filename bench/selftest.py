"""Show that every output check catches a deliberately corrupted output.

    python3 bench/selftest.py [--seed 1]

Runs one checked round of each workload, then feeds each check a copy of
the outputs with one fault put in (a shifted occupancy, a dropped trace
line, a perturbed ledger term, ...) and requires that check to fail.
Exits 1 if a clean output fails a check other than the two known
faults (the battery ledger and the exact arrival identity on the fixed
home), or if a corruption goes unnoticed.
"""

from __future__ import annotations

import argparse
import copy
import shutil
import sys
from pathlib import Path

import checks
import run

#: Checks that fail on today's program, on inputs that do not depend on
#: the seed: the battery ledger misses the held fire surplus, and the
#: MAC leaves the last arrivals of the window unpulled.
KNOWN_FAULTS = ("harvester.ledger_closes", "home.arrivals")


def edit_lines(path: Path, fn) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(fn(lines)))


def shift_field(line: str, index: int, delta: float) -> str:
    cells = line.rstrip("\n").split(",")
    cells[index] = repr(float(cells[index]) + delta)
    return ",".join(cells) + "\n"


def first_router_power_line(lines: list[str]) -> int:
    """A router power frame that follows another frame on its channel."""
    return next(i for i, ln in enumerate(lines) if i > 0
                and ",router_ch" in ln and ",power_broadcast," in ln
                and ln.split(",")[1] == lines[i - 1].split(",")[1])


def drop_power_line(lines: list[str]) -> list[str]:
    del lines[first_router_power_line(lines)]
    return lines


def home_cases(bench, kept):
    dep, out_dir, analyzed, stats = next(k for k in kept if not k[0].fixed)
    bin_us = bench.workloads.HOME_BIN_MS * 1000.0
    power = "router_ch1.power"

    def summary(lines):
        return [f"occupancy_ch1={float(ln[14:]) + 0.001:.6f}\n"
                if ln.startswith("occupancy_ch1=") else ln for ln in lines]

    def overlap(lines):
        # start 1 us after the previous frame on the same channel
        i = first_router_power_line(lines)
        prev_start = float(lines[i - 1].split(",")[0])
        lines[i] = shift_field(lines[i], 0, prev_start + 1.0 - float(lines[i].split(",")[0]))
        return lines

    file_cases = [
        ("home.occupancy_vs_summary", "shifted occupancy in summary.txt", "summary.txt", summary),
        ("home.occupancy_bins", "shifted bin in occupancy.csv", "occupancy.csv",
         lambda ls: ls[:3] + [shift_field(ls[3], 1, 0.01)] + ls[4:]),
        ("home.occupancy_vs_summary", "dropped trace line", "trace.txt", drop_power_line),
        ("home.throughput_bins", "shifted bin in throughput.csv", "throughput.csv",
         lambda ls: ls[:2] + [shift_field(ls[2], 2, 0.5)] + ls[3:]),
        ("home.no_overlap", "trace start moved into the previous busy span", "trace.txt",
         overlap),
    ]
    for name, what, fname, fn in file_cases:
        bad = out_dir.parent / "corrupt"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(out_dir, bad)
        edit_lines(bad / fname, fn)
        yield name, what, checks.check_home(dep, str(bad), analyzed, stats, bin_us)

    shifted = copy.deepcopy(analyzed)
    shifted["per_channel"][1] *= 1.001
    yield ("home.occupancy_vs_analyze", "shifted analyze result",
           checks.check_home(dep, str(out_dir), shifted, stats, bin_us))
    admitted, dropped, delivered, lost = stats[power]
    for name, what, counters in (
        ("home.flow_ledger", "one extra delivered frame in the flow counters",
         (admitted, dropped, delivered + 1, lost)),
        ("home.arrivals_at_most", "100 phantom gate drops",
         (admitted, dropped + 100, delivered, lost)),
    ):
        yield name, what, checks.check_home(dep, str(out_dir), analyzed,
                                            {**stats, power: counters}, bin_us)

    # The exact identity fails on the fixed home's real counters; with
    # the gate drops made up to the window's arrivals it must pass, and
    # one phantom drop more must fail it again.
    dep, out_dir, analyzed, stats = next(k for k in kept if k[0].fixed)
    made_up = dict(stats)
    for flow, (_ch, _st, _kind, pacing, interval) in dep.flows.items():
        if pacing in ("paced", "cbr"):
            adm, _, dlv, lst = stats[flow]
            want = checks.window_arrivals(interval, dep.window_us)
            made_up[flow] = (adm, want - adm, dlv, lst)
    yield ("home.arrivals", "gate drops made up to the window's arrivals (must pass)",
           checks.check_home(dep, str(out_dir), analyzed, made_up, bin_us))
    adm, drp, dlv, lst = made_up[power]
    yield ("home.arrivals", "one phantom gate drop",
           checks.check_home(dep, str(out_dir), analyzed,
                             {**made_up, power: (adm, drp + 1, dlv, lst)}, bin_us))


def pacing_cases(bench, kept):
    delay_occ, fairness = kept
    n_plateau = sum(1 for d, _ in delay_occ if d <= checks.POWER_AIRTIME_US)

    def with_occ(i, value):
        out = list(delay_occ)
        out[i] = (out[i][0], value)
        return out

    yield ("pacing.plateau", "plateau occupancy shifted to 0.85",
           checks.check_pacing(with_occ(0, 0.85), fairness))
    yield ("pacing.tail_analytic", "tail occupancy shifted by +0.05",
           checks.check_pacing(with_occ(n_plateau + 1, delay_occ[n_plateau + 1][1] + 0.05), fairness))
    swapped = list(delay_occ)
    swapped[-1], swapped[-2] = (swapped[-1][0], swapped[-2][1]), (swapped[-2][0], swapped[-1][1])
    yield "pacing.tail_falls", "last two tail points swapped", checks.check_pacing(swapped, fairness)
    rate = min(r for _, r in fairness)
    unfair = dict(fairness)
    unfair[("PoWiFi", rate)] = fairness[("EqualShare", rate)] - 0.1
    yield "pacing.fairness", "PoWiFi below EqualShare", checks.check_pacing(delay_occ, unfair)
    top = max(r for _, r in fairness)
    loud = dict(fairness)
    loud[("BlindUDP", top)] = fairness[("EqualShare", top)]
    yield "pacing.blind_starves", "BlindUDP as fast as EqualShare", checks.check_pacing(delay_occ, loud)


def harvester_cases(bench, kept):
    p, out_dir, range_m, fires, rate = next(k for k in kept if k[0].kind == "temp_battery_free")
    duty = checks.measured_duty(str(out_dir / "trace.txt"), p.window_us)
    state = checks.rerun_envelope(p, duty)
    yield "harvester.ledger_closes", "clean capacitor ledger (must pass)", [checks.check_ledger(state)]
    leaky = copy.deepcopy(state)
    leaky.leaked_j += 1e-6 * leaky.harvested_j
    yield "harvester.ledger_closes", "leaked_j perturbed by 1 ppm", [checks.check_ledger(leaky)]

    bad = out_dir.parent / "corrupt"
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(out_dir, bad)
    edit_lines(bad / "harvester.csv", lambda ls: ls[:5] + ls[6:])
    yield ("harvester.events_match", "dropped harvester.csv line",
           [checks.check_events(state, str(bad / "harvester.csv"))])
    edit_lines(bad / "trace.txt", drop_power_line)
    other = checks.rerun_envelope(p, checks.measured_duty(str(bad / "trace.txt"), p.window_us))
    yield ("harvester.events_match", "dropped trace line",
           [checks.check_events(other, str(out_dir / "harvester.csv"))])
    yield ("harvester.within_range", "fires beyond 1.1x the operating range",
           [checks.check_range(p, max(fires, 1), p.distance_ft * 0.3048 / 2)])
    yield ("harvester.rate_monotone", "update rate rising with distance",
           [checks.check_monotone(p.series, [1.0, 2.0, 0.5])])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    if not (run.SRC / "wifipower" / "__init__.py").is_file():
        print(f"selftest: no wifipower sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    problems = 0
    for workload, cases in (("home-contended", home_cases), ("pacing-sweep", pacing_cases),
                            ("harvester-range", harvester_cases)):
        bench = run.Bench(workload, args.seed, trace=False)
        try:
            rnd = bench.round(check=True)
            clean_failures = [(n, d) for n, ok, d in rnd.checks if not ok]
            expected = [f for f in clean_failures if f[0] in KNOWN_FAULTS]
            unexpected = [f for f in clean_failures if f not in expected]
            print(f"{workload}: clean round {len(rnd.checks)} checks, "
                  f"{len(clean_failures)} failed ({len(expected)} known faults)")
            for f in unexpected:
                print(f"  UNEXPECTED clean failure {f}")
                problems += 1
            for name, what, results in cases(bench, bench.kept):
                failed = any(n == name and not ok for n, ok, _ in results)
                must_pass = what.endswith("(must pass)")
                good = failed != must_pass
                verdict = ("passes" if not failed else "FAILS") if must_pass else (
                    "caught" if failed else "MISSED")
                print(f"  {name:28s} {what:48s} {verdict}")
                problems += not good
        finally:
            bench.close()
    print("selftest: " + ("OK" if not problems else f"{problems} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
