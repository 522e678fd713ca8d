"""wifipower benchmark: one workload per process, timed end to end or per layer.

    python3 bench/run.py --workload home-contended --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload's scenario points until `--seconds`
have passed. The first round's outputs are checked, and every later
round must reproduce its digest; the first round is a warm-up and is
left out of the end-to-end times. Prints
as its last line one JSON object with `correct`, `attempted`, `failed`
and `metrics`. With `--trace 0` the metrics are the end-to-end ones;
with `--trace 1` the run is traced and the metrics are per layer. The
line before it, `identity {...}`, holds the report digest and simulated
counts of one round, which a change that only speeds the simulator up
must leave identical. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
WORKLOADS = ("home-contended", "pacing-sweep", "harvester-range")
SETUP_PROBES = 15
REPORTS = ("occupancy.csv", "throughput.csv", "harvester.csv", "summary.txt", "trace.txt")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "wall_s": "s",
    "frames_per_s": "frames/s",
    "sim_s_per_s": "sim_s/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, span name or None when derived otherwise)
PER_LAYER = {
    "scenario.parse_s": ("s", "scenario.parse"),
    "scenario.build_stations_s": ("s", "scenario.build_stations"),
    "scenario.run_self_s": ("s", "scenario.run"),
    "scenario.occupancy_bins_s": ("s", "scenario.occupancy_bins"),
    "scenario.harvest_duty_s": ("s", "scenario.harvest_duty"),
    "scenario.write_outputs_s": ("s", "scenario.write_outputs"),
    "scenario.analyze_trace_s": ("s", "scenario.analyze_trace"),
    "scenario.sweep_copy_s": ("s", "scenario.sweep_copy"),
    "mac.run_mac_s": ("s", "mac.run_mac"),
    "mac.frames_per_s": ("frames/s", None),
    "mac.run_mac_calls": ("calls", None),
    "mac.backlog_frames": ("frames", None),
    "mac.heap_bytes_per_frame": ("B/frame", None),
    "mac.occupancy_s": ("s", "mac.occupancy"),
    "mac.occupancy_calls": ("calls", None),
    "mac.export_trace_s": ("s", "mac.export_trace"),
    "mac.trace_bytes_per_frame": ("B/frame", None),
    "mac.parse_trace_s": ("s", "mac.parse_trace"),
    "router.throughput_series_s": ("s", "router.throughput_series"),
    "router.burst_completion_s": ("s", "router.burst_completion"),
    "harvester.duty_envelope_s": ("s", "harvester.duty_envelope"),
    "harvester.run_envelope_s": ("s", "harvester.run_envelope"),
    "harvester.events_per_s": ("events/s", None),
    "harvester.max_operating_range_s": ("s", "harvester.max_operating_range"),
}


class Round:
    """What one pass over a workload's points measured and produced."""

    def __init__(self) -> None:
        self.run_s: list[float] = []
        self.block_s = 0.0
        self.sim_s = 0.0
        self.events = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.digest = hashlib.sha256()
        self.counts: dict[str, int] = {}
        self.out_dirs: list[Path] = []
        self.rows: list[dict] = []

    def add_files(self, out_dir: Path) -> None:
        for name in REPORTS:
            self.digest.update(name.encode())
            self.digest.update((out_dir / name).read_bytes())


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        from wifipower import harvester, mac, router, scenario
        import checks
        import spans
        import workloads

        self.sc, self.mac, self.hv = scenario, mac, harvester
        self.checks, self.workloads = checks, workloads
        self.out = OUT_ROOT / f"{workload}-{os.getpid()}"
        self.tracer = spans.Tracer() if trace else None
        self.counter = spans.MacCounter(self.tracer)
        self.counter.install(mac)
        if self.tracer is not None:
            self.tracer.install({"scenario": scenario, "mac": mac, "router": router,
                                 "harvester": harvester})
        self.kind = workload.split("-")[0]  # home | pacing | harvester
        self.inputs = getattr(workloads, workload.replace("-", "_"))(seed)
        first = self.inputs[0][0] if self.kind == "pacing" else self.inputs[0]
        self.first_text = first.text

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()
        self.counter.uninstall()
        shutil.rmtree(self.out, ignore_errors=True)

    # -- timing helpers ------------------------------------------------------

    def _timed(self, fn):
        """(result, seconds) with the counter's own time taken out."""
        c0 = self.counter.count_s
        t0 = perf_counter()
        result = fn()
        return result, perf_counter() - t0 - (self.counter.count_s - c0)

    @contextlib.contextmanager
    def _untraced(self):
        was = self.tracer is not None and self.tracer.active
        if was:
            self.tracer.active = False
        try:
            yield
        finally:
            if was:
                self.tracer.active = True

    # -- rounds --------------------------------------------------------------

    def round(self, check: bool) -> Round:
        """One timed pass over the workload's points. With `check`, the
        outputs are also checked (first round only: later rounds must
        reproduce its digest). `self.kept` keeps what the checks read."""
        self.counter.reset()
        rnd = Round()
        run, verify = getattr(self, "_run_" + self.kind), getattr(self, "_check_" + self.kind)
        self.kept, rnd.block_s = self._timed(lambda: run(rnd))
        with self._untraced():
            for out_dir in rnd.out_dirs:
                rnd.add_files(out_dir)
            if rnd.rows:
                rnd.digest.update(self.sc.sweep_csv(rnd.rows).encode())
            if check:
                rnd.checks = verify(self.kept)
        rnd.counts = dict(self.counter.counts, harvester_events=rnd.events)
        rnd.digest.update(json.dumps(rnd.counts, sort_keys=True).encode())
        return rnd

    def _run_home(self, rnd: Round) -> list:
        sc_mod = self.sc
        kept = []
        for dep in self.inputs:
            out_dir = self.out / dep.name

            def one():
                rep = sc_mod.run(sc_mod.parse_scenario(dep.text))
                rep.write_outputs(str(out_dir))
                return rep

            rep, secs = self._timed(one)
            rnd.run_s.append(secs)
            rnd.sim_s += rep.scenario.duration_s
            rnd.events += sum(len(v) for v in rep.harvester_events.values())
            stats = {name: (st.admitted, st.dropped_gate, st.delivered, st.lost)
                     for tr in rep.traces.values() for name, st in tr.flow_stats.items()}
            router_ids = rep.router_station_ids
            del rep
            analyzed = sc_mod.analyze_trace(str(out_dir / "trace.txt"),
                                            window_us=(0.0, dep.window_us),
                                            stations=router_ids)
            rnd.out_dirs.append(out_dir)
            kept.append((dep, out_dir, analyzed, stats))
        return kept

    def _check_home(self, kept: list) -> list:
        bin_us = self.workloads.HOME_BIN_MS * 1000.0
        out = []
        for dep, out_dir, analyzed, stats in kept:
            out += self.checks.check_home(dep, str(out_dir), analyzed, stats, bin_us)
        return out

    def _run_pacing(self, rnd: Round) -> tuple:
        sc_mod = self.sc
        delay_points, fair_points, quiet_ch = self.inputs
        for p in delay_points + fair_points:
            def one():
                spec = sc_mod.SweepSpec(p.variable, (p.value,))
                return sc_mod.sweep(sc_mod.parse_scenario(p.text), spec)

            rows, secs = self._timed(one)
            rnd.run_s.append(secs)
            rnd.sim_s += p.duration_s
            rnd.rows.extend(rows)
        n = len(delay_points)
        delay_occ = [(p.value, row[f"occupancy_ch{quiet_ch}_mean"])
                     for p, row in zip(delay_points, rnd.rows[:n])]
        fairness = {(p.name.split("@")[0], p.value): row["tput.neigh1_mean"]
                    for p, row in zip(fair_points, rnd.rows[n:])}
        return delay_occ, fairness

    def _check_pacing(self, kept: tuple) -> list:
        return self.checks.check_pacing(*kept)

    def _run_harvester(self, rnd: Round) -> list:
        sc_mod, hv = self.sc, self.hv
        kept = []
        for i, p in enumerate(self.inputs):
            out_dir = self.out / f"p{i:02d}"

            def one():
                sc = sc_mod.apply_sweep_value(sc_mod.parse_scenario(p.text),
                                              p.variable, p.value)
                rep = sc_mod.run(sc)
                rep.write_outputs(str(out_dir))
                return sc, rep

            (sc, rep), secs = self._timed(one)
            rnd.run_s.append(secs)
            rnd.sim_s += sc.duration_s
            rnd.events += sum(len(v) for v in rep.harvester_events.values())
            # The operating range at the duty this run measured.
            duty = max(sc_mod.harvest_duty(tr, rep.router_station_ids,
                                           sc.mac_params.phy_overhead_us)
                       for tr in rep.traces.values())
            h = sc.harvesters[0]
            range_m = hv.max_operating_range(sc.router.tx_plan(), h.config(),
                                             duty=duty, wall=h.wall).meters
            summary = rep.harvester_summary["h1"]
            del rep
            rnd.out_dirs.append(out_dir)
            kept.append((p, out_dir, range_m, int(summary["fires"]), summary["update_rate_hz"]))
        return kept

    def _check_harvester(self, kept: list) -> list:
        ck = self.checks
        out = []
        series: dict[str, list[float]] = {}
        for p, out_dir, range_m, fires, rate in kept:
            state = ck.rerun_envelope(p, ck.measured_duty(str(out_dir / "trace.txt"),
                                                          p.window_us))
            out.append(ck.check_events(state, str(out_dir / "harvester.csv")))
            out.append(ck.check_ledger(state))
            out.append(ck.check_range(p, fires, range_m))
            series.setdefault(p.series, []).append(rate)
        out += [ck.check_monotone(name, rates) for name, rates in series.items()]
        return out

    # -- set-up --------------------------------------------------------------

    def setup_samples(self) -> list[float]:
        """Host seconds from process start to the first scenario parsed,
        validated and built, in fresh interpreters."""
        probe = [sys.executable, str(BENCH_DIR / "probe.py"), str(SRC)]
        samples = []
        for _ in range(SETUP_PROBES):
            t0 = perf_counter()
            subprocess.run(probe, input=self.first_text, text=True, check=True,
                           stdout=subprocess.DEVNULL)
            samples.append(perf_counter() - t0)
        return samples

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self, rounds: list[Round]) -> dict[str, float]:
        per_round = self.tracer.self_times()
        values: dict[str, list[float]] = {name: [] for name in PER_LAYER}
        for i, rnd in enumerate(rounds[::2]):
            st = per_round.get(2 * i, {})

            def self_s(span):
                return st.get(span, [0.0, 0])[0]

            for name, (_, span) in PER_LAYER.items():
                if span is not None:
                    values[name].append(self_s(span))
            mac_s = self_s("mac.run_mac")
            env_s = self_s("harvester.run_envelope")
            values["mac.frames_per_s"].append(rnd.counts["frames"] / mac_s if mac_s else 0.0)
            values["mac.run_mac_calls"].append(st.get("mac.run_mac", [0, 0])[1])
            values["mac.backlog_frames"].append(rnd.counts["backlog"])
            values["mac.occupancy_calls"].append(st.get("mac.occupancy", [0, 0])[1])
            values["harvester.events_per_s"].append(rnd.events / env_s if env_s else 0.0)
        out = {name: statistics.median(v) for name, v in values.items() if v}
        out.update(self.frame_footprint())
        return out

    def frame_footprint(self) -> dict[str, float]:
        """Heap and trace-text bytes per frame of the first MAC call, replayed
        untraced after the timed rounds."""
        self.tracer.active = False
        fn, args, kwargs = self.counter.first_call
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        traces = fn(*args, **kwargs)
        heap = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.stop()
        frames = sum(len(tr.records) for tr in traces.values())
        text = self.mac.export_trace(traces.values())
        return {"mac.heap_bytes_per_frame": heap / frames,
                "mac.trace_bytes_per_frame": len(text.encode()) / frames}


def end_to_end(rounds: list[Round], setup: list[float]) -> dict[str, float]:
    med = statistics.median
    rounds = rounds[1:] or rounds  # the first round warms caches up
    return {
        "setup_s": med(setup),
        "run_s": med([s for r in rounds for s in r.run_s]),
        "wall_s": med([r.block_s for r in rounds]),
        "frames_per_s": med([r.counts["frames"] / sum(r.run_s) for r in rounds]),
        "sim_s_per_s": med([r.sim_s / sum(r.run_s) for r in rounds]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wifipower" / "__init__.py").is_file():
        print(f"benchmark: no wifipower sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = Bench(args.workload, args.seed, bool(args.trace))
    try:
        setup = [] if args.trace else bench.setup_samples()
        rounds: list[Round] = []
        deadline = perf_counter() + args.seconds
        while not rounds or perf_counter() < deadline:
            if bench.tracer is not None:
                # even rounds traced, odd rounds untraced: their ratio is
                # the tracing overhead
                bench.tracer.round = len(rounds)
                bench.tracer.active = len(rounds) % 2 == 0
            rounds.append(bench.round(check=not rounds))
        metrics = (bench.layer_metrics(rounds) if args.trace
                   else end_to_end(rounds, setup))
    finally:
        bench.close()

    if args.trace and len(rounds) > 1:
        traced = statistics.median(r.block_s for r in rounds[::2])
        plain = statistics.median(r.block_s for r in rounds[1::2])
        print(f"tracing overhead: round {traced:.4f} s traced, {plain:.4f} s untraced "
              f"({traced / plain - 1:+.2%})", file=sys.stderr)
    checked = rounds[0].checks
    failed = [(name, detail) for name, ok, detail in checked if not ok]
    for name, detail in failed:
        print(f"check failed: {name}: {detail}", file=sys.stderr)
    units = {n: u for n, (u, _) in PER_LAYER.items()} if args.trace else END_TO_END_UNITS
    print("identity " + json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "digest": rounds[0].digest.hexdigest(), "counts": rounds[0].counts,
    }, sort_keys=True))
    print(json.dumps({
        "correct": len({r.digest.hexdigest() for r in rounds}) == 1,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
