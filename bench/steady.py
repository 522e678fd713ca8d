"""Two sets of benchmark runs, compared against the bounds in BENCHMARK.json.

    python3 bench/steady.py

For every workload, runs `bench/run.py` once per seed 1-10 in each of
two sets (set after set, as a regression gate would) and reports, per
end-to-end metric, each set's median and quartile spread
(q3 - q1) / median. It fails when a spread exceeds the metric's bound
(except `setup_s`'s: set-up time is gated on its set-to-set median
only, because its spread mixes fresh-interpreter start-up noise with
the host's),
when a later set's median is worse than the first set's by more than
the bound, when the failed share of operations differs between runs,
or when a seed's report digest or simulated counts differ between sets.
It also runs each workload traced on the first seed and requires the
same digest as the untraced runs.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    identity = json.loads(lines[-2].removeprefix("identity "))
    return identity, json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    problems = []
    report = {}
    seconds = spec["run_seconds"]
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for k in range(SETS):
            runs = {}
            for seed in SEEDS:
                t0 = time.monotonic()
                runs[seed] = run_once(workload, seed, seconds, 0)
                print(f"{workload} set {k + 1} seed {seed} ({time.monotonic() - t0:.1f} s): "
                      + json.dumps(runs[seed][1]), flush=True)
            sets.append(runs)
        shares = {(r["failed"], r["attempted"]) for runs in sets for _, r in runs.values()}
        if len({f / a for f, a in shares}) != 1:
            problems.append(f"{workload}: failed share differs between runs: {shares}")
        if not all(r["correct"] for runs in sets for _, r in runs.values()):
            problems.append(f"{workload}: a run reported correct=false")
        for seed in SEEDS:
            idents = {json.dumps([runs[seed][0]["digest"], runs[seed][0]["counts"]])
                      for runs in sets}
            if len(idents) != 1:
                problems.append(f"{workload} seed {seed}: digest or counts differ between sets")
        report[workload] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [spread([r["metrics"][name]["value"] for _, r in runs.values()])
                     for runs in sets]
            report[workload][name] = stats
            for k, (med, spr) in enumerate(stats):
                if name != "setup_s" and spr > bound:
                    problems.append(f"{workload} {name}: set {k + 1} spread {spr:.3f} > {bound}")
                base = stats[0][0]
                worse = (med - base) / base if m["better"] == "lower" else (base - med) / base
                if worse > bound:
                    problems.append(f"{workload} {name}: set {k + 1} median {worse:+.3f} "
                                    f"worse than set 1 (bound {bound})")
        ident, result = run_once(workload, SEEDS[0], seconds, 1)
        if ident["digest"] != sets[0][SEEDS[0]][0]["digest"]:
            problems.append(f"{workload}: traced digest differs from untraced")
        print(f"{workload} traced seed {SEEDS[0]}: " + json.dumps(result), flush=True)

    print("\nworkload          metric         " + "  ".join(
        f"set{k + 1} median  spread" for k in range(SETS)))
    for workload, per in report.items():
        for name, stats in per.items():
            cells = "  ".join(f"{med:12.6g} {spr:7.3f}" for med, spr in stats)
            print(f"{workload:17s} {name:14s} {cells}")
    for line in problems:
        print("PROBLEM " + line)
    print("steady: " + ("FAIL" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
