"""Shared test utilities: seeded random and all-zero matrices, scaled copies,
the window-by-window reference of ``sliding_windows`` and its rule for
computing all windows at once, the comparison of the two matrix CSV
readers, and a seeded fuzz of the command line over damaged fixtures.

This module needs no pytest: run as a plain script, it checks
``windows_match_one_by_one``, ``routed_by_rule``, ``readers_agree`` and
``fuzz_cli`` on seeded inputs under any interpreter the package supports.
"""

import contextlib
import io
import random
import tempfile
from pathlib import Path

from citerhythm import PCMatrix, internal_rhythm, parse_matrix, sliding_windows, write_matrix
from citerhythm import cli, fixture_path, rhythm


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


def whole_by_scan(m: PCMatrix) -> bool:
    """Whether every count of ``m`` is a whole number, cell by cell."""
    return all(x.is_integer() for x in (*m.pubs, *(c for row in m.cites for c in row)))


def computed_at_once(m: PCMatrix, w: int) -> bool:
    """Whether ``sliding_windows(m, w)`` computes all windows at once, by its
    rule: every cell of ``m`` is whole, the publications and the cells of
    the first ``w`` diagonals each sum to less than 2**53, and every
    window's first year has publications."""
    if not whole_by_scan(m):
        return False
    cells = [c for row in m.cites for c in row[:w]]
    if not (sum(map(int, m.pubs)) < 2**53 and sum(map(int, cells)) < 2**53):
        return False
    return all(p > 0 for p in m.pubs[: m.n - w + 1])


def routed_by_rule(m: PCMatrix, w: int) -> bool:
    """Whether ``rhythm._all_windows(m, w)`` returns a result exactly where
    ``computed_at_once`` says it does."""
    return (rhythm._all_windows(m, w) is not None) == computed_at_once(m, w)


# Cell texts that damage a matrix CSV: bad, non-finite, blank or merely
# unusual counts.
CELL_TOKENS = ["-1", "x", "nan", "inf", "-inf", "1e999", "1e308", "", "0", "-0", " 3 ", "1.5"]


def quote_header(text: str) -> str:
    """``text`` with the first field of its header quoted (``"year",pubs,...``),
    which makes ``parse_matrix`` read the document with ``csv.reader``."""
    return '"' + text[:4] + '"' + text[4:] if text.startswith("year") else text


def parse_outcome(text: str):
    """What ``parse_matrix`` gives for ``text``: the matrix's ``repr`` (which
    tells -0.0 from 0.0), or the error's type, message, line and column."""
    try:
        return repr(parse_matrix(text))
    except Exception as e:  # the error itself is the outcome compared
        return type(e).__name__, str(e), getattr(e, "line", None), getattr(e, "column", None)


def readers_agree(text: str) -> bool:
    """Whether ``text`` parses, or fails, the same when its header is quoted,
    so that ``csv.reader`` reads it instead of the line splitter."""
    return parse_outcome(text) == parse_outcome(quote_header(text))


def damaged_document(rng: random.Random) -> str:
    """A matrix CSV of 1-8 years with up to three cells replaced by
    ``CELL_TOKENS``, and sometimes CRLF line ends, a blank, missing or extra
    row, or a cell too many or too few."""
    n = rng.randint(1, 8)
    lines = write_matrix(random_matrix(rng, n=n, min_pubs=0, max_cites=9)).splitlines()
    grid = [line.split(",") for line in lines]
    for _ in range(rng.randint(0, 3)):
        row = rng.choice(grid[1:])
        row[rng.randrange(len(row))] = rng.choice(CELL_TOKENS)
    lines = [",".join(row) for row in grid]
    damage = rng.choice(["", "", "crlf", "blank", "missing", "extra", "cell+", "cell-"])
    i = rng.randint(1, n)
    if damage == "blank":
        lines.insert(i, "")
    elif damage == "missing":
        del lines[i]
    elif damage == "extra":
        lines.append(f"{2000 + n},1" + ",0" * n)
    elif damage == "cell+":
        lines[i] += ",0"
    elif damage == "cell-":
        lines[i] = lines[i].rpartition(",")[0]
    end = "\r\n" if damage == "crlf" else "\n"
    return end.join(lines) + end


# Bytes that damage a fixture where they are put: numbers a float reads as
# non-finite, a byte no UTF-8 text has, a byte order mark, and a manifest
# line that asks for the partition check.
_FUZZ_TOKENS = [b"nan", b"1e400", b"\xff", b"\xef\xbb\xbf", b"assert_partition = true\n"]

# Every fuzzed command: its name, its input fixture and its options.
_FUZZ_COMMANDS = [
    ("internal", "china.csv", []),
    ("internal", "china.csv", ["--format", "svg"]),
    ("windows", "china.csv", ["--width", "5"]),
    ("validate", "scim.manifest", []),
    ("external", "scim.manifest", ["--actor", "china"]),
    ("external", "scim.manifest", ["--actor", "china", "--format", "svg"]),
    ("compare", "scim.manifest", ["--a", "brazil", "--b", "netherlands", "--format", "csv"]),
]

# The manifest and the matrices it names: every file a fuzzed command reads.
_FUZZ_FILES = ["scim.manifest", "scim_total.csv", "china.csv", "brazil.csv", "netherlands.csv"]


def mutated(data: bytes, rng: random.Random) -> bytes:
    """``data`` with one byte flipped, a run deleted, a run of it copied
    elsewhere, or one of ``_FUZZ_TOKENS`` put in, half the time at a line
    start."""
    i = rng.randrange(len(data))
    damage = rng.choice(["flip", "delete", "splice", "token", "line"])
    if damage == "line":
        i = data.rfind(b"\n", 0, i) + 1
    if damage == "flip":
        return data[:i] + bytes([data[i] ^ 1 << rng.randrange(8)]) + data[i + 1 :]
    if damage == "delete":
        return data[:i] + data[i + rng.randint(1, 20) :]
    if damage == "splice":
        j = rng.randrange(len(data))
        return data[:i] + data[j : j + rng.randint(1, 40)] + data[i:]
    return data[:i] + rng.choice(_FUZZ_TOKENS) + data[i:]


def ended_cleanly(command: str, code: object, out: str, err: str) -> bool:
    """Whether a ``cli.main`` call ended as the command line promises:
    exit 0; exit 1 with one line on stderr that starts ``error: ``; or, for
    ``validate``, exit 1 with ``FAILED`` on stdout and nothing on stderr.
    Lines are counted at ``\\n`` alone: a damaged path in an error message
    may hold U+2028, which ``str.splitlines`` also breaks at."""
    if code == 0:
        return True
    if code != 1:
        return False
    if err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"):
        return True
    return command == "validate" and "FAILED" in out and err == ""


def fuzz_cli(rng: random.Random, cases: int) -> list[tuple[list[str], dict, tuple]]:
    """Runs ``cases`` calls of ``cli.main``, each on a fresh copy of the
    bundled fixtures with 1-2 of the command's input files damaged by 1-2
    ``mutated`` steps, and returns the calls that did not end cleanly: the
    arguments, the damaged files' bytes and what the call gave."""
    originals = {name: fixture_path(name).read_bytes() for name in _FUZZ_FILES}
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for _ in range(cases):
            command, name, options = rng.choice(_FUZZ_COMMANDS)
            readable = _FUZZ_FILES if name.endswith(".manifest") else [name]
            damaged = {}
            for target in rng.sample(readable, min(len(readable), rng.randint(1, 2))):
                data = originals[target]
                for _ in range(rng.randint(1, 2)):
                    data = mutated(data, rng)
                damaged[target] = data
            for target, data in originals.items():
                (work / target).write_bytes(damaged.get(target, data))
            argv = [command, str(work / name), *options]
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except (Exception, SystemExit) as e:  # nothing may escape main
                code = f"escaped {type(e).__name__}: {e}"
            if not ended_cleanly(command, code, out.getvalue(), err.getvalue()):
                failures.append((argv, damaged, (code, out.getvalue()[-500:], err.getvalue())))
    return failures


if __name__ == "__main__":
    import sys

    rng = random.Random(2026)
    cases = [(m, w) for m in (window_matrix(rng) for _ in range(3000)) for w in range(1, m.n + 1)]
    differ = [(m, w) for m, w in cases if not windows_match_one_by_one(m, w)]
    at_once = sum(rhythm._all_windows(m, w) is not None for m, w in cases)
    misrouted = [(m, w) for m, w in cases if not routed_by_rule(m, w)]
    version = f"Python {sys.version.split()[0]}"
    print(f"{version}: {len(cases)} (matrix, width) cases, "
          f"{at_once} computed all at once, "
          f"{len(misrouted)} routed against the rule, "
          f"{len(differ)} differ from window-by-window rhythms")

    documents = [damaged_document(rng) for _ in range(3000)]
    disagree = [text for text in documents if not readers_agree(text)]
    parsed = sum(isinstance(parse_outcome(text), str) for text in documents)
    # A NUL is an ordinary character to the line splitter on every version.
    nul = parse_outcome("year,pubs,2020\n2020,1\x00,1\n")
    nul_ok = nul == ("MatrixParseError", "line 2, column 2: not a number: '1\\x00'", 2, 2)
    print(f"{version}: {len(documents)} documents, {parsed} parsed, "
          f"{len(disagree)} read differently with a quoted header; NUL cell: {nul}")

    fuzzed = 1000
    crashes = fuzz_cli(rng, fuzzed)
    for argv, damaged, outcome in crashes[:5]:
        print(f"  {argv[0]} with damaged {sorted(damaged)}: {outcome!r}")
    print(f"{version}: {fuzzed} command-line runs on damaged fixtures, "
          f"{len(crashes)} did not end cleanly")
    sys.exit(1 if differ or misrouted or disagree or not nul_ok or crashes else 0)
