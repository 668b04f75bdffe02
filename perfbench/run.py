"""The citerhythm benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The package is used from ``src`` through
``PYTHONPATH``; nothing is installed. Inputs are generated from the seed
into ``perfbench/_work`` and removed afterwards. Every load is a closed loop
with one client and no extra threads.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the traced variant and prints the per-layer metrics.
The last line of standard output is one JSON object. The exit code is 0
only when every output checked was correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from importlib import metadata
from pathlib import Path
from statistics import median
from time import perf_counter

import gen
import workloads as wl

HERE = Path(__file__).resolve().parent
# Set-ups run in two bursts, before and after the timed loop, and setup_s is
# their p90, not their median: a median took whichever CPU speed mode the
# host was in at the start of a run and moved by 25% between sets of runs.
SETUP_REPEATS = 6
INIT_REPEATS = 5


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(round(p / 100 * len(ordered), 6)) - 1]


def run_worker(name: str, work: Path, seed: int, seconds: float, mode: str) -> dict:
    code, out, err, _ = wl.run_child(
        [sys.executable, str(HERE / "workloads.py"), name, str(work), str(seed),
         str(seconds), mode], timeout=170)
    if code != 0:
        raise RuntimeError(f"{name} worker ({mode}) exited {code}: {err[-2000:]}")
    return json.loads(out.splitlines()[-1])


def timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def end_to_end(name: str, work: Path, seed: int, seconds: float) -> tuple[dict, list[str]]:
    cls = wl.WORKLOADS[name]
    if name == "cli-scim":
        w = wl.CliScim(work, seed)

        def setup() -> float:
            return timed(w.stage)

        def loop() -> dict:
            return {**wl.measure(w, seconds), "rss_kb": median(w.rss_kb)}
    else:
        def setup() -> float:
            return run_worker(name, work, seed, 0, "setup")["setup_s"]

        def loop() -> dict:
            return run_worker(name, work, seed, seconds, "measure")

    setups = [setup() for _ in range(SETUP_REPEATS)]
    r = loop()
    setups += [setup() for _ in range(SETUP_REPEATS)]
    lat = r["latencies"]
    tail = percentile(lat, cls.tail_pct)

    metrics = {
        "latency_p90_ms": 1e3 * percentile(lat, 90),
        "setup_s": percentile(setups, 90),
        "peak_rss_mb": r["rss_kb"] / 1024,
        "ok_ratio": (r["attempted"] - r["failed"]) / r["attempted"],
    }
    notes = [
        f"{len(lat)} ops in {sum(lat):.1f} s of op time; setup_s is the p90 of {len(setups)}",
        f"  {'latency_p50_ms':<40} {1e3 * median(lat):>14.4f} ms   (not gated)",
        f"  {'latency_tail_ms':<40} {1e3 * tail:>14.4f} ms   (p{cls.tail_pct:g}, "
        f"{sum(x > tail for x in lat)} samples beyond; not gated)",
        f"  {'ops_per_s':<40} {len(lat) / sum(lat):>14.4f} 1/s  (not gated)",
    ]
    return {**r, "metrics": metrics}, notes


def init_metrics() -> dict:
    """Interpreter start and package import, each in fresh processes."""
    start, imported = [], []
    for _ in range(INIT_REPEATS):
        for code, times in (("pass", start), ("import citerhythm.cli", imported)):
            times.append(timed(lambda: wl.run_child([sys.executable, "-c", code])))
    _, out, _, _ = wl.run_child(
        [sys.executable, "-c", "import sys, citerhythm.cli; print(int('numpy' in sys.modules))"])
    return {
        "python.start_ms": 1e3 * median(start),
        "init.import_ms": 1e3 * (median(imported) - median(start)),
        "init.numpy_loaded": int(out),
    }


def traced(name: str, work: Path, seed: int, seconds: float) -> tuple[dict, list[str]]:
    init = init_metrics()
    if name == "cli-scim":
        wl.CliScim(work, seed).stage()
    r = run_worker(name, work, seed, seconds, "trace")
    m = r["metrics"]
    notes = [f"{r['blocks']} untraced/traced block pairs of {wl.WORKLOADS[name].block} ops; "
             f"self times are ms per op, counts cover set-up plus the first traced block",
             f"tracing overhead {m['trace.overhead_pct']:.1f}% "
             f"({m['trace.untraced_ops_per_s']:.1f} -> {m['trace.ops_per_s']:.1f} ops/s); "
             f"time outside every span {m['trace.unattributed_pct']:.2f}% of traced op time"]
    return {**r, "metrics": {**init, **m}}, notes


def prepare(name: str, work: Path, seed: int) -> None:
    if name == "league-k100":
        gen.write_collective(work / "league", seed)
    elif name == "wide-n500":
        gen.write_wide(work / "wide", seed)


def machine(load: tuple[float, ...]) -> str:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return (f"Python {sys.version.split()[0]}, numpy {numpy}, nproc {os.cpu_count()}, "
            f"load average at start {' '.join(f'{x:.2f}' for x in load)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load = os.getloadavg()

    spec_path = wl.ROOT / "BENCHMARK.json"
    if not (wl.SRC / "citerhythm" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {wl.ROOT} is not a checkout with src/citerhythm and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # Compile bytecode and fill the file cache before anything is timed.
        code, _, err, _ = wl.run_child([sys.executable, "-c", "import citerhythm.cli"])
        if code != 0:
            print(f"error: cannot import citerhythm.cli: {err}", file=sys.stderr)
            return 2
        sys.path.insert(0, str(wl.SRC))  # for the checks' reference computations
        prepare(args.workload, work, args.seed)
        measure = traced if args.trace else end_to_end
        r, notes = measure(args.workload, work, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(r["metrics"]) != set(units):
        raise RuntimeError(f"metrics {sorted(r['metrics'])} do not match BENCHMARK.json")
    baseline = {}
    if args.trace and (HERE / "baseline.json").is_file():
        baseline = json.loads((HERE / "baseline.json").read_text())["workloads"]
        baseline = baseline.get(args.workload, {})
    print(f"workload {args.workload}, seed {args.seed}, {'traced' if args.trace else 'untraced'}")
    print(f"machine: {machine(load)}")
    for note in notes:
        print(note)
    for name, unit in units.items():
        value = r["metrics"][name]
        line = f"  {name:<40} {value:>14.4f} {unit}"
        if name in baseline:
            line += f"   (seed baseline {baseline[name]:.4f})"
        print(line)
    for error in r["errors"]:
        print(f"FAILED: {error}")
    correct = r["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {k: {"value": r["metrics"][k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
