"""Shared test utilities: seeded random and all-zero matrices, and scaled copies."""

import random

from citerhythm import PCMatrix


def random_matrix(
    rng: random.Random,
    n: int | None = None,
    first_year: int = 2000,
    min_pubs: int = 1,
    max_pubs: int = 50,
    max_cites: int = 30,
    fractional: bool = False,
) -> PCMatrix:
    n = n if n is not None else rng.randint(1, 20)
    if fractional:
        pubs = tuple(rng.uniform(min_pubs, max_pubs) for _ in range(n))
        cites = tuple(
            tuple(rng.uniform(0, max_cites) for _ in range(n - t)) for t in range(n)
        )
    else:
        pubs = tuple(float(rng.randint(min_pubs, max_pubs)) for _ in range(n))
        cites = tuple(
            tuple(float(rng.randint(0, max_cites)) for _ in range(n - t))
            for t in range(n)
        )
    return PCMatrix(first_year=first_year, pubs=pubs, cites=cites, label=f"rand-{n}")


def zero(first_year: int, n: int) -> PCMatrix:
    """All-zero matrix over ``n`` years starting at ``first_year``."""
    return PCMatrix(first_year, (0.0,) * n, tuple((0.0,) * (n - t) for t in range(n)))


def scale_cites(m: PCMatrix, factor: float) -> PCMatrix:
    return PCMatrix(
        first_year=m.first_year,
        pubs=m.pubs,
        cites=tuple(tuple(c * factor for c in row) for row in m.cites),
        label=m.label,
    )


def scale_pubs(m: PCMatrix, factor: float) -> PCMatrix:
    return PCMatrix(
        first_year=m.first_year,
        pubs=tuple(p * factor for p in m.pubs),
        cites=m.cites,
        label=m.label,
    )


def rel_err(a: float | None, b: float | None) -> float:
    if a is None and b is None:
        return 0.0
    if a is None or b is None:
        return float("inf")
    return abs(a - b) / max(abs(a), abs(b), 1e-300)
