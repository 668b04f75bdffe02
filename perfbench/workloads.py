"""Benchmark workloads, their timed loops and their correctness checks.

Imported by ``run.py``; also run as a worker process
(``python3 perfbench/workloads.py <workload> <work dir> <seed> <seconds>
<mode>``) so that an in-process workload's memory and import time are its
own. Each op's result is reduced to a fingerprint outside the timed region;
every repeat of an op must reproduce the first fingerprint, and the first
one is checked in full after the timed loop.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import random
import resource
import selectors
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLE_TOL = 1e-9  # the package's oracle bound
RATIO_TOL = 0.002  # the acceptance suite's tolerance on printed ratios and I1/I2
SCIM_FILES = ("scim.manifest", "scim_total.csv", "china.csv", "brazil.csv",
              "netherlands.csv", "scim_golden.json")


def run_child(argv: list[str], timeout: float = 120.0) -> tuple[int, str, str, int]:
    """Run a process to completion; return exit code, stdout, stderr and its
    peak RSS in KiB (reaped with wait4, which reports the child's own usage)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=str(SRC)))
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = perf_counter() + timeout
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            events = sel.select(max(0.0, deadline - perf_counter()))
            if not events:
                proc.kill()
                break
            for key, _ in events:
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = (b"".join(chunks[f]).decode() for f in (proc.stdout, proc.stderr))
    return proc.returncode, out, err, usage.ru_maxrss


class Workload:
    """One closed-loop client issuing ops ``0 .. op_total() - 1`` in turn."""

    tail_pct = 90.0  # the highest percentile with >= 10 samples beyond it at min_ops
    min_ops = 100  # also leaves >= 10 samples beyond p90
    stop_every = 1  # a run ends on a multiple of this many ops
    block = 1  # ops per traced block; trace counts cover set-up plus the first block

    def setup(self) -> None:
        """In-process set-up after the package is imported."""

    def op_total(self) -> int:
        raise NotImplementedError

    def run(self, i: int):
        raise NotImplementedError

    def fingerprint(self, i: int, result):
        """A comparable digest of an op's output, or None to skip checking."""
        return result

    def verify(self, i: int, fp) -> str | None:
        """Full check of an op's first output; an error message or None."""
        return None


# -- cli-scim -------------------------------------------------------------


class CliScim(Workload):
    tail_pct = 90.0
    min_ops = 105
    stop_every = 7
    block = 7

    def __init__(self, work: Path, seed: int, inprocess: bool = False) -> None:
        self.dir = work / "scim"
        self.inprocess = inprocess
        f = {name: str(self.dir / name) for name in SCIM_FILES}
        self.ops = [
            ["validate", f["scim.manifest"]],
            ["internal", f["china.csv"]],
            ["internal", f["china.csv"], "--format", "csv"],
            ["external", f["scim.manifest"], "--actor", "china", "--format", "svg"],
            ["compare", f["scim.manifest"], "--a", "brazil", "--b", "netherlands"],
            ["windows", f["china.csv"], "--width", "5", "--format", "csv"],
            ["oracle-check", f["scim.manifest"], "--trials", "20", "--seed", str(seed)],
        ]
        random.Random(seed).shuffle(self.ops)
        self.rss_kb: list[int] = []

    def stage(self) -> None:
        """Copy the bundled SCIM fixture into the work directory."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        fixtures = SRC / "citerhythm" / "fixtures"
        for name in SCIM_FILES:
            shutil.copyfile(fixtures / name, self.dir / name)

    def op_total(self) -> int:
        return len(self.ops)

    def run(self, i: int):
        if self.inprocess:
            import citerhythm.cli as cli

            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(self.ops[i]))
            return code, out.getvalue(), err.getvalue()
        code, out, err, rss = run_child([sys.executable, "-m", "citerhythm.cli", *self.ops[i]])
        self.rss_kb.append(rss)
        return code, out, err

    def verify(self, i: int, fp) -> str | None:
        code, out, err = fp
        argv = self.ops[i]
        if code != 0 or err:
            return f"{argv[0]}: exit {code}, stderr {err[-300:]!r}"
        golden = json.loads((self.dir / "scim_golden.json").read_text())
        check = getattr(self, "_check_" + argv[0].replace("-", "_"))
        try:
            problems = check(argv, out, golden)
        except (ValueError, IndexError, KeyError, ET.ParseError) as exc:
            problems = [f"unreadable output ({exc!r})"]
        return f"{' '.join(argv[:1] + argv[2:])}: {'; '.join(problems[:5])}" if problems else None

    @staticmethod
    def _close(problems, what, got, want, tol) -> None:
        if got is None or abs(got - want) > tol:
            problems.append(f"{what}: got {got}, want {want} +/- {tol}")

    def _check_validate(self, argv, out, golden):
        lines = out.splitlines()
        want = "collective SCIM: 3 constituents, window 2015-2024"
        ok = lines[0] == want and lines[-1] == "ok" and "[error]" not in out
        return [] if ok else [f"unexpected report {out[:200]!r}"]

    def _sequence_table(self, header, rows, footers, golden):
        # Columns printed at 3 decimals: observed, ck and expected must equal
        # the golden values exactly; ratios and I2 within RATIO_TOL.
        problems = []
        if header != ["year", "observed", "ck", "expected", "ratio"] or len(rows) != 10:
            return [f"table shape {header} x {len(rows)}"]
        want = golden["internal"]["china"]
        for idx, row in enumerate(rows):
            year, observed, ck, expected, ratio = row
            if int(year) != golden["years"][idx]:
                problems.append(f"year {year}")
            for what, got, ref in (
                ("observed", observed, golden["actors"]["china"]["observed"]),
                ("ck", ck, want["ck"]),
                ("expected", expected, want["expected"]),
            ):
                if float(got) != float(ref[idx]):
                    problems.append(f"{what}({year}) {got} != {ref[idx]}")
            self._close(problems, f"ratio({year})", float(ratio), want["ratio"][idx], RATIO_TOL)
        self._close(problems, "I1", float(footers["I1"]), 1.0, 0.0005)
        self._close(problems, "I2", float(footers["I2"]), want["i2"], RATIO_TOL)
        return problems

    def _check_internal(self, argv, out, golden):
        if "--format" in argv:
            rows = list(csv.reader(io.StringIO(out)))
            footers = {r[0]: r[1] for r in rows[11:]}
            return self._sequence_table(rows[0], rows[1:11], footers, golden)
        lines = out.splitlines()
        if lines[0] != "Internal rhythm: china (2015-2024)":
            return [f"title {lines[0]!r}"]
        footers = dict(line.split(" = ") for line in lines[12:14])
        return self._sequence_table(lines[1].split(), [l.split() for l in lines[2:12]],
                                    footers, golden)

    def _check_external(self, argv, out, golden):
        # The chart maps 0 to the x axis and 1 to the reference line, so a
        # point's ratio is its height above the axis over the line's height.
        root = ET.fromstring(out)
        tag = lambda el: el.tag.rpartition("}")[2]
        axis = next(el for el in root.iter() if tag(el) == "g" and el.get("class") == "axis")
        bottom = float(next(el for el in axis if tag(el) == "line").get("y2"))
        ref = [el for el in root.iter() if tag(el) == "line" and el.get("class") == "refline"]
        series = [el for el in root.iter() if tag(el) == "polyline" and el.get("class") == "series"]
        if len(ref) != 1 or ref[0].get("data-level") != "1" or len(series) != 1:
            return ["chart needs one reference line at 1 and one series"]
        unit = bottom - float(ref[0].get("y1"))
        points = [float(p.split(",")[1]) for p in series[0].get("points").split()]
        want = golden["external"]["china"]["ratio"]
        if len(points) != len(want):
            return [f"{len(points)} points, want {len(want)}"]
        problems = []
        tol = RATIO_TOL + 0.1 / unit  # plus the chart's 0.1-pixel rounding
        for year, y, ratio in zip(golden["years"], points, want):
            self._close(problems, f"ratio({year})", (bottom - y) / unit, ratio, tol)
        return problems

    def _check_compare(self, argv, out, golden):
        lines = out.splitlines()
        if lines[1].split() != ["year", "brazil", "netherlands", "winner"]:
            return [f"header {lines[1]!r}"]
        br, nl = golden["external"]["brazil"], golden["external"]["netherlands"]
        problems = []
        for idx, line in enumerate(lines[2:12]):
            year, rb, rn, winner = line.split()
            self._close(problems, f"brazil({year})", float(rb), br["ratio"][idx], RATIO_TOL)
            self._close(problems, f"netherlands({year})", float(rn), nl["ratio"][idx], RATIO_TOL)
            if abs(br["ratio"][idx] - nl["ratio"][idx]) > 2 * RATIO_TOL:
                want = "brazil" if br["ratio"][idx] > nl["ratio"][idx] else "netherlands"
                if winner != want:
                    problems.append(f"winner({year}) {winner} != {want}")
        for line, ref, name in ((lines[12], br, "brazil"), (lines[13], nl, "netherlands")):
            head, _, rest = line.partition(": ")
            values = dict(part.split(" = ") for part in rest.split(", "))
            if head != name:
                problems.append(f"footer {line!r}")
            self._close(problems, f"{name} I1", float(values["I1"]), ref["i1"], RATIO_TOL)
            self._close(problems, f"{name} I2", float(values["I2"]), ref["i2"], RATIO_TOL)
        return problems

    def _check_windows(self, argv, out, golden):
        # No golden windows exist: each window's ratios come from the
        # event-level oracle over the benchmark's own parse of china.csv.
        from citerhythm import CitationEvent, EventCorpus, brute_force_rhythm

        width = int(argv[argv.index("--width") + 1])
        first, pubs, cites = gen.parse_csv(self.dir / "china.csv")
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0] != ["start", "end", "i1", "i2"] + [f"r{k + 1}" for k in range(width)]:
            return [f"header {rows[0]}"]
        starts = list(range(first, first + len(pubs) - width + 1))
        if [int(r[0]) for r in rows[1:]] != starts:
            return [f"window starts {[r[0] for r in rows[1:]]}"]
        problems = []
        for row, start in zip(rows[1:], starts):
            s = start - first
            events = tuple(CitationEvent(start + t, start + t + a, float(v))
                           for t in range(width) for a, v in enumerate(cites[s + t][: width - t])
                           if v > 0)
            ref = brute_force_rhythm(EventCorpus(start, tuple(pubs[s:s + width]), events))
            self._close(problems, f"{start} I1", float(row[2]), ref.i1, RATIO_TOL)
            self._close(problems, f"{start} I2", float(row[3]), ref.i2, RATIO_TOL)
            for k, (cell, p) in enumerate(zip(row[4:], ref.points)):
                self._close(problems, f"{start} r{k + 1}", float(cell), p.ratio, RATIO_TOL)
        return problems

    def _check_oracle_check(self, argv, out, golden):
        trials = int(argv[argv.index("--trials") + 1])
        lines = out.splitlines()
        head, _, worst = lines[0].rpartition(", worst ")
        # 4 internal (total and 3 actors) + 3 actor-vs-rest + 2 per trial.
        want = f"oracle-check: {7 + 2 * trials} comparisons ({trials} random trials, seed "
        if (not head.startswith(want) or float(worst) > ORACLE_TOL
                or lines[-1] != "all within 1e-09"):
            return [f"unexpected report {out[:200]!r}"]
        return []


# -- league-k100 ----------------------------------------------------------


class League(Workload):
    tail_pct = 99.9
    min_ops = 10_000
    block = 505
    SAMPLE = (10, 30)  # oracle-checked ops inside and outside the first block

    def __init__(self, work: Path, seed: int) -> None:
        self.dir = work / "league"
        self.seed = seed

    def setup(self) -> None:
        import citerhythm as cr

        self.c = cr.load_manifest(self.dir / "league.manifest")
        ids = self.c.actor_ids
        rng = random.Random(self.seed)
        self.ops = [(a,) for a in ids] + list(itertools.combinations(ids, 2))
        rng.shuffle(self.ops)
        self.sample = set(rng.sample(range(self.block), self.SAMPLE[0]))
        self.sample |= set(rng.sample(range(self.block, len(self.ops)), self.SAMPLE[1]))

    def op_total(self) -> int:
        return len(self.ops)

    def run(self, i: int):
        import citerhythm as cr

        op = self.ops[i]
        if len(op) == 1:
            return cr.actor_vs_collective(self.c, op[0])
        return cr.actor_vs_actor(self.c, op[0], op[1])

    def fingerprint(self, i: int, result):
        return result if i in self.sample else None

    def verify(self, i: int, fp) -> str | None:
        import citerhythm as cr

        op = self.ops[i]
        first, total_pubs, rest = gen.parse_csv(self.dir / "total.csv")
        actors = {a: gen.parse_csv(self.dir / f"{a}.csv") for a in op}
        pubs = list(total_pubs)
        for _, a_pubs, a_cites in actors.values():
            pubs = [x - y for x, y in zip(pubs, a_pubs)]
            rest = [[x - y for x, y in zip(r, ar)] for r, ar in zip(rest, a_cites)]
        baseline = cr.corpus_from_matrix(cr.PCMatrix(first, pubs, rest))
        refs = {a: cr.brute_force_rhythm(cr.corpus_from_matrix(cr.PCMatrix(first, p, c)), baseline)
                for a, (_, p, c) in actors.items()}
        got = {op[0]: fp} if len(op) == 1 else fp.sequences
        for a, ref in refs.items():
            diff = cr.max_relative_difference(got[a], ref)
            if diff > ORACLE_TOL:
                return f"{' vs '.join(op)}: {a} differs from the oracle by {diff:.3e}"
        if len(op) == 2:
            u, v = op
            for year, w, pu, pv in zip(fp.years, fp.per_year_winner,
                                       refs[u].points, refs[v].points):
                if pu.ratio is None or pv.ratio is None or abs(pu.ratio - pv.ratio) < 1e-6:
                    continue
                if w != (u if pu.ratio > pv.ratio else v):
                    return f"{u} vs {v}: winner({year}) is {w}"
        return None


# -- wide-n500 ------------------------------------------------------------


class Wide(Workload):
    tail_pct = 90.0
    min_ops = 100
    block = 3
    WIDTH = 20
    WINDOW_CHECKS = 5  # windows per file checked against the oracle

    def __init__(self, work: Path, seed: int) -> None:
        self.paths = sorted((work / "wide").glob("wide*.csv"))
        self.seed = seed

    def op_total(self) -> int:
        return len(self.paths)

    def run(self, i: int):
        import citerhythm as cr

        m = cr.read_matrix_file(self.paths[i]).matrix
        seq = cr.internal_rhythm(m)
        series = cr.sliding_windows(m, self.WIDTH)
        return m, seq, series, cr.write_matrix(m)

    def fingerprint(self, i: int, result):
        m, seq, series, text = result
        windows = tuple((s, q.ratios, q.i1, q.i2) for s, q in series.entries)
        return hashlib.sha256(text.encode()).hexdigest(), seq.ratios, seq.i1, seq.i2, windows

    def verify(self, i: int, fp) -> str | None:
        import citerhythm as cr

        path = self.paths[i]
        m, seq, series, text = self.run(i)
        if self.fingerprint(i, (m, seq, series, text)) != fp:
            return f"{path.name}: output differs between runs of one op"
        first, pubs, cites = gen.parse_csv(path)
        if m != cr.PCMatrix(first, pubs, cites):
            return f"{path.name}: matrix read differs from the file"
        if cr.parse_matrix(text) != m:
            return f"{path.name}: parse_matrix(write_matrix(m)) != m"
        if text != path.read_text():
            return f"{path.name}: canonical rewrite differs from the file"
        diff = cr.max_relative_difference(seq, cr.brute_force_rhythm(cr.corpus_from_matrix(m)))
        if diff > ORACLE_TOL:
            return f"{path.name}: internal rhythm differs from the oracle by {diff:.3e}"
        entries = dict(series.entries)
        if sorted(entries) != list(range(first, first + len(pubs) - self.WIDTH + 1)):
            return f"{path.name}: wrong window starts"
        for start in random.Random(self.seed * 31 + i).sample(sorted(entries), self.WINDOW_CHECKS):
            s = start - first
            rows = cites[s:s + self.WIDTH]
            sub = cr.PCMatrix(start, pubs[s:s + self.WIDTH],
                              [row[: self.WIDTH - t] for t, row in enumerate(rows)])
            diff = cr.max_relative_difference(
                entries[start], cr.brute_force_rhythm(cr.corpus_from_matrix(sub)))
            if diff > ORACLE_TOL:
                return f"{path.name}: window {start} differs from the oracle by {diff:.3e}"
        return None


WORKLOADS = {"cli-scim": CliScim, "league-k100": League, "wide-n500": Wide}


# -- loops ----------------------------------------------------------------


class Checker:
    """Compares every repeat of an op with its first output and checks each
    first output in full at the end; counts failed ops."""

    def __init__(self, w: Workload) -> None:
        self.w = w
        self.first: dict = {}
        self.repeats: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(message)

    def run(self, i: int) -> float:
        """Run op ``i``; return its latency in seconds."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = self.w.run(i)
        except Exception as exc:
            t1 = perf_counter()
            self._fail(1, f"op {i}: {exc!r}")
            return t1 - t0
        t1 = perf_counter()
        fp = self.w.fingerprint(i, result)
        if fp is None:
            return t1 - t0
        if i not in self.first:
            self.first[i] = fp
        elif fp == self.first[i]:
            self.repeats[i] += 1
        else:
            self._fail(1, f"op {i}: output differs from its first run")
        return t1 - t0

    def finish(self) -> None:
        for i, fp in self.first.items():
            message = self.w.verify(i, fp)
            if message:
                self._fail(1 + self.repeats[i], message)

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors}


def measure(w: Workload, seconds: float) -> dict:
    """Closed loop, one client: run ops in turn for ``seconds`` (and at least
    ``min_ops``), then check outputs outside the timed region."""
    checker = Checker(w)
    total = w.op_total()
    latencies = []
    deadline = perf_counter() + seconds
    for n in itertools.count(1):
        latencies.append(checker.run((n - 1) % total))
        if n >= w.min_ops and n % w.stop_every == 0 and perf_counter() >= deadline:
            break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    checker.finish()
    return {"latencies": latencies, "rss_kb": rss_kb, **checker.result()}


def measure_traced(w: Workload, seconds: float, tracer, setup: dict) -> dict:
    """Alternate untraced and traced blocks of the same ops for ``seconds``;
    report per-layer figures (medians over traced blocks, per op), exact
    counts over set-up plus the first traced block, and the tracing overhead."""
    from spans import LAYERS

    checker = Checker(w)
    ops = [k % w.op_total() for k in range(w.block)]
    inclusive = ("ingest.write_matrix", "collective.validate_collective")
    rows = []
    deadline = perf_counter() + seconds
    while not rows or perf_counter() < deadline:
        untraced = sum(checker.run(i) for i in ops)
        tracer.install()
        try:
            traced = sum(checker.run(i) for i in ops)
        finally:
            tracer.uninstall()
        stats = tracer.take(inclusive)
        if not rows:  # exact counts: set-up plus this first traced block
            counts = Counter(tracer.counts)
            failed = Counter(tracer.failed)
            calls = setup["calls"] + stats["calls"]
            distinct = len(tracer.complement_sets)
        attributed = sum(stats["self"].values())
        rows.append({
            "untraced": untraced, "traced": traced, "attributed": attributed,
            **{f"{m}.self_ms": 1e3 * stats["self"][m] / len(ops) for m in LAYERS},
            "ingest.write_ms": 1e3 * stats["inclusive"]["ingest.write_matrix"] / len(ops),
            "collective.validate_ms":
                1e3 * stats["inclusive"]["collective.validate_collective"] / len(ops),
        })
    checker.finish()
    metrics = {k: median(r[k] for r in rows) for k in rows[0]
               if k not in ("untraced", "traced", "attributed")}
    for m in ("ingest", "collective", "pcmatrix"):
        metrics[f"{m}.setup_ms"] = 1e3 * setup["self"][m]
    for m in LAYERS:
        metrics[f"{m}.failed"] = failed[m]
    complements = counts["collective.complement_calls"]
    metrics.update({
        "ingest.bytes_read": counts["ingest.bytes_read"],
        "ingest.cells_parsed": counts["ingest.cells_parsed"],
        "collective.complement_calls": complements,
        "collective.distinct_complement_ratio": distinct / complements if complements else 0.0,
        "pcmatrix.calls": calls["pcmatrix"],
        "pcmatrix.cells_touched": counts["pcmatrix.cells_touched"],
        "rhythm.sequences": counts["rhythm.sequences"],
        "trace.untraced_ops_per_s": median(len(ops) / r["untraced"] for r in rows),
        "trace.ops_per_s": median(len(ops) / r["traced"] for r in rows),
        "trace.overhead_pct": median(100 * (r["traced"] / r["untraced"] - 1) for r in rows),
        "trace.unattributed_pct":
            median(100 * (r["traced"] - r["attributed"]) / r["traced"] for r in rows),
    })
    return {"metrics": metrics, "blocks": len(rows), **checker.result()}


def worker(name: str, work: Path, seed: int, seconds: float, mode: str) -> dict:
    """Import the package, set up, then measure (``mode`` is ``setup``,
    ``measure`` or ``trace``)."""
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import citerhythm  # noqa: F401  (the import is part of set-up)
    if name == "cli-scim":
        import citerhythm.cli  # noqa: F401
    w = CliScim(work, seed, inprocess=True) if name == "cli-scim" else WORKLOADS[name](work, seed)
    if mode != "trace":
        w.setup()
        setup_s = perf_counter() - t0
        if mode == "setup":
            return {"setup_s": setup_s}
        return {"setup_s": setup_s, **measure(w, seconds)}
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        w.setup()
    finally:
        tracer.uninstall()
    return measure_traced(w, seconds, tracer, tracer.take())


if __name__ == "__main__":
    name, work, seed, seconds, mode = sys.argv[1:6]
    print(json.dumps(worker(name, Path(work), int(seed), float(seconds), mode)))
