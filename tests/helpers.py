"""Shared test utilities: seeded random and all-zero matrices, scaled copies,
and the window-by-window reference of ``sliding_windows``.

This module needs no pytest: ``windows_match_one_by_one`` also runs as a
plain script under any interpreter the package supports.
"""

import random

from citerhythm import PCMatrix, internal_rhythm, sliding_windows


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


# Count kinds for window_matrix, with the weight by which a matrix draws
# each: one kind, or two mixed cell by cell.
_KINDS = [
    (3, lambda rng: float(rng.randint(0, 30))),
    (1, lambda rng: rng.choice([0.0, rng.uniform(0, 30)])),
    # Whole counts whose sums reach 2**53 in some windows but not in others.
    (2, lambda rng: float(rng.choice([0, 1, 7, 2**51, 2**52 - 1, 2**52, 2**52 + 1]))),
    # Counts that make ratios or sums pass the largest float.
    (1, lambda rng: rng.choice([0.0, -0.0, 1.0, 3.0, 0.5, 1e-300, 1e300, 1.7e308])),
]


def window_matrix(rng: random.Random) -> PCMatrix:
    """A random matrix of 1-12 years for checking ``sliding_windows``: whole,
    fractional, near-2**53 or extreme counts, with some years without
    publications and some rows without citations, so that windows have
    undefined ratios and some inputs raise."""
    n = rng.randint(1, 12)
    weights, samplers = zip(*_KINDS)
    kinds = rng.choices(samplers, weights, k=rng.choice([1, 1, 2]))
    count = lambda: rng.choice(kinds)(rng)
    zeros = rng.choice([0.0, 0.0, 0.1, 0.3])
    pubs = tuple(0.0 if rng.random() < zeros else count() or 1.0 for _ in range(n))
    cites = tuple(
        (0.0,) * (n - t) if rng.random() < zeros else tuple(count() for _ in range(n - t))
        for t in range(n)
    )
    return PCMatrix(first_year=2000, pubs=pubs, cites=cites, label=f"w-{n}")


def _outcome(compute):
    try:
        return repr(compute())
    except Exception as e:  # the error itself is the outcome compared
        return type(e).__name__, str(e)


def windows_match_one_by_one(m: PCMatrix, w: int) -> bool:
    """Whether ``sliding_windows(m, w)`` equals the internal rhythm of each
    window matrix in every field, bit for bit (``repr`` shows every digit of
    a float and the sign of a zero), or raises the same error type and
    message."""
    starts = range(m.first_year, m.last_year - w + 2)
    fast = _outcome(lambda: sliding_windows(m, w).entries)
    slow = _outcome(lambda: tuple((s, internal_rhythm(m.window(s, w))) for s in starts))
    return fast == slow


if __name__ == "__main__":
    import sys

    from citerhythm import rhythm

    rng = random.Random(2026)
    cases = [(m, w) for m in (window_matrix(rng) for _ in range(3000)) for w in range(1, m.n + 1)]
    differ = [(m, w) for m, w in cases if not windows_match_one_by_one(m, w)]
    at_once = sum(rhythm._all_windows(m, w) is not None for m, w in cases)
    print(f"Python {sys.version.split()[0]}: {len(cases)} (matrix, width) cases, "
          f"{at_once} computed all at once, "
          f"{len(differ)} differ from window-by-window rhythms")
    sys.exit(1 if differ else 0)
