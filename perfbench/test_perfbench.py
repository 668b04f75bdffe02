"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import gen
import run
import workloads as wl

sys.path.insert(0, str(wl.SRC))

import citerhythm as cr  # noqa: E402

# Counts that must repeat exactly across runs with one seed.
EXACT = ("ingest.bytes_read", "ingest.cells_parsed", "collective.complement_calls",
         "pcmatrix.calls", "pcmatrix.cells_touched", "rhythm.sequences")


@pytest.fixture
def work():
    path = run.HERE / "_work" / "test"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_generator_is_seeded_and_valid(work):
    manifest = gen.write_collective(work / "a", seed=5)
    gen.write_collective(work / "b", seed=5)
    gen.write_collective(work / "c", seed=6)
    files = sorted(p.name for p in (work / "a").iterdir())
    assert len(files) == 102  # 100 actors, the total and the manifest
    assert all((work / "a" / f).read_bytes() == (work / "b" / f).read_bytes() for f in files)
    assert (work / "a" / "total.csv").read_bytes() != (work / "c" / "total.csv").read_bytes()

    c = cr.build_collective(cr.parse_manifest(manifest))
    report = cr.validate_collective(c)
    assert report.errors == () and report.warnings == ()
    assert len(c.actor_ids) == 100 and c.total.n == 30

    paths = gen.write_wide(work / "wide", seed=5)
    assert [p.read_bytes() for p in paths] == [
        p.read_bytes() for p in gen.write_wide(work / "again", seed=5)]
    for path in paths:
        m = cr.read_matrix(path)
        assert m.n == 500 and min(m.pubs) >= 1
        assert cr.write_matrix(m) == path.read_text()
        assert gen.parse_csv(path) == (m.first_year, list(m.pubs), [list(r) for r in m.cites])


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_counts_repeat_exactly(work, name):
    run.prepare(name, work, 3)
    if name == "cli-scim":
        wl.CliScim(work, 3).stage()
    first, second = (run.run_worker(name, work, 3, 0.1, "trace") for _ in range(2))
    assert first["failed"] == second["failed"] == 0
    assert first["attempted"] >= 2 * wl.WORKLOADS[name].block
    for key in EXACT:
        assert first["metrics"][key] == second["metrics"][key], key
    assert first["metrics"]["rhythm.sequences"] > 0
    # Self times account for the traced op time up to the tracing overhead.
    m = first["metrics"]
    assert m["trace.unattributed_pct"] <= max(m["trace.overhead_pct"], 1.0)


def test_numpy_flag_repeats():
    assert run.init_metrics()["init.numpy_loaded"] == run.init_metrics()["init.numpy_loaded"]


def test_checks_reject_wrong_output(work):
    w = wl.CliScim(work, 3, inprocess=True)
    w.stage()
    i = next(k for k, argv in enumerate(w.ops) if argv[0] == "internal" and "--format" in argv)
    code, out, err = w.run(i)
    assert w.verify(i, (code, out, err)) is None
    assert "ratio(2015)" in w.verify(i, (code, out.replace("0.890", "0.990"), err))
    assert "exit 1" in w.verify(i, (1, out, err))


def test_refuses_to_run_without_the_package(work):
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copyfile(wl.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-scim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_spec_matches_workloads():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    for w in spec["workloads"]:
        assert f"p{wl.WORKLOADS[w['name']].tail_pct:g} " in w["why"]
