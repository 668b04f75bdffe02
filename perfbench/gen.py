"""Seeded synthetic inputs for the benchmark.

Standard library only, so the program under test receives nothing but the
files written here. The same seed always gives byte-identical files.

Every matrix has at least one publication in every year and its citations
are drawn per publication, so no year carries citations without
publications (which the package rejects as inconsistent data), and the
collective's total is the cellwise sum of all actors plus an unnamed
remainder, so it contains every actor.
"""

from __future__ import annotations

import csv
import math
import random
from pathlib import Path


def matrix_csv(first_year: int, pubs: list[int], cites: list[list[int]]) -> str:
    """Canonical matrix CSV: citing years as columns, blank cells below the
    diagonal, integer counts, LF endings."""
    n = len(pubs)
    lines = ["year,pubs," + ",".join(str(first_year + j) for j in range(n))]
    for t in range(n):
        cells = [str(first_year + t), str(pubs[t])] + [""] * t + [str(c) for c in cites[t]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def parse_csv(path: Path) -> tuple[int, list[float], list[list[float]]]:
    """The benchmark's own reading of a matrix CSV, independent of the
    package: first year, publications and the on-and-above-diagonal cells."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    pubs = [float(r[1]) for r in rows]
    cites = [[float(c) for c in r[2 + t:]] for t, r in enumerate(rows)]
    return int(rows[0][0]), pubs, cites


def _age_rates(n: int, per_paper: float, tau: float) -> list[float]:
    # Citations per paper by age: a rise over the first years, then
    # exponential decay with time constant ``tau``.
    return [per_paper * (a + 1) * math.exp(-(a + 1) / tau) for a in range(n)]


def _matrix(
    rng: random.Random, n: int, base_pubs: float, rates: list[float]
) -> tuple[list[int], list[list[int]]]:
    pubs = [
        max(1, round(base_pubs * (1 + 0.03 * t) * rng.uniform(0.7, 1.3))) for t in range(n)
    ]
    cites = [
        [int(pubs[t] * rates[a] * rng.uniform(0.5, 1.5)) for a in range(n - t)]
        for t in range(n)
    ]
    return pubs, cites


def write_collective(out: Path, seed: int) -> Path:
    """Write 100 named actor matrices over 30 years, the explicit total
    (named actors plus an unnamed remainder) and a manifest; return the
    manifest path."""
    actors, n, first_year = 100, 30, 1995
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)
    total_pubs = [0] * n
    total_cites = [[0] * (n - t) for t in range(n)]
    lines = ["[collective]", "label = League", "total = total.csv", ""]
    sizes = [rng.lognormvariate(2.5, 0.8) for _ in range(actors)]
    # The remainder is as large as all named actors together, so no
    # complement is small and no actor dominates.
    for idx, base in enumerate(sizes + [sum(sizes)]):
        rates = _age_rates(n, 0.4 * rng.lognormvariate(0.0, 0.3), rng.uniform(2.5, 4.5))
        pubs, cites = _matrix(rng, n, base, rates)
        for t in range(n):
            total_pubs[t] += pubs[t]
            for a, c in enumerate(cites[t]):
                total_cites[t][a] += c
        if idx < actors:
            actor_id = f"a{idx:03d}"
            (out / f"{actor_id}.csv").write_text(matrix_csv(first_year, pubs, cites))
            lines += ["[actor]", f"id = {actor_id}", f"label = Actor {idx:03d}",
                      f"path = {actor_id}.csv", ""]
    (out / "total.csv").write_text(matrix_csv(first_year, total_pubs, total_cites))
    manifest = out / "league.manifest"
    manifest.write_text("\n".join(lines))
    return manifest


def write_wide(out: Path, seed: int) -> list[Path]:
    """Write three single-actor matrices of 500 years each."""
    n, first_year = 500, 1525
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for idx in range(3):
        rates = _age_rates(n, 0.5 * rng.lognormvariate(0.0, 0.2), rng.uniform(9.0, 11.0))
        pubs, cites = _matrix(rng, n, rng.uniform(120, 200), rates)
        path = out / f"wide{idx}.csv"
        path.write_text(matrix_csv(first_year, pubs, cites))
        paths.append(path)
    return paths
