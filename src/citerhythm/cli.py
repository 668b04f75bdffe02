"""Command-line front end.

Subcommands: validate, internal, external, compare, windows, oracle-check.
Internal analyses take a bare matrix CSV; external and pairwise analyses
take a manifest, so the rest of the collective always comes from a
validated collective. Output formats: text (default), csv, svg (charts).
Only commands that read a manifest load ``collective``, only svg output
loads ``chart`` and only ``oracle-check`` loads ``oracle``.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from decimal import ROUND_HALF_UP, Context, Decimal
from pathlib import Path

from . import __version__
from .errors import RhythmError
from .ingest import parse_manifest, read_matrix_file
from .rhythm import RhythmSequence, cross_rhythm, internal_rhythm, sliding_windows

ORACLE_TOLERANCE = 1e-9

# Digits before the point of the largest finite float: quantizing any float
# to ``decimals`` places needs at most this many digits plus ``decimals``.
_FLOAT_INTEGER_DIGITS = 309

# The shortest repr of every float, 5e-324 the smallest, ends at or before
# this decimal place, so more places would only print zeros, and a large
# enough count would fill memory before the first digit is written.
_MAX_DECIMALS = 324


def format_number(value: float, decimals: int) -> str:
    """Fixed-point rendering, ties rounded half away from zero; -0.0 prints
    as 0."""
    context = Context(prec=_FLOAT_INTEGER_DIGITS + decimals, rounding=ROUND_HALF_UP)
    d = Decimal(repr(value + 0.0)).quantize(Decimal((0, (1,), -decimals)), context=context)
    return format(d, "f")


def _write(args: argparse.Namespace, text: str) -> int:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _emit(
    args: argparse.Namespace,
    title: str,
    series: list[tuple[str, RhythmSequence]],
    headers: list[str],
    rows: list[list[float | str | None]],
    csv_footers: list[list[float | str | None]],
    text_footers: list[list[float | str | None]],
) -> int:
    """Write a command's result in ``--format``: svg draws ``series``
    (labelled sequences) as a line chart; csv writes headers, rows, then
    ``csv_footers`` as more rows; text writes ``title``, right-aligned
    columns, then each of ``text_footers`` with its cells joined as they
    are. Numbers print at ``--decimals`` places; None, an undefined value,
    prints as an empty csv cell and as ``-`` in text."""
    if args.format == "svg":
        # Only svg output draws, so other runs do not load the chart module.
        from .chart import line_chart

        return _write(args, line_chart(title, series))

    def cell(value: float | str | None, missing: str) -> str:
        if value is None:
            return missing
        return value if isinstance(value, str) else format_number(value, args.decimals)

    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows([cell(v, "") for v in row] for row in rows + csv_footers)
        return _write(args, buf.getvalue())
    table = [headers] + [[cell(v, "-") for v in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(*table)]
    lines = [title] + ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in table]
    lines += ["".join(cell(v, "-") for v in footer) for footer in text_footers]
    return _write(args, "\n".join(lines) + "\n")


def _emit_rhythm(
    args: argparse.Namespace,
    title: str,
    seq: RhythmSequence,
    pubs: tuple[float, ...] | None = None,
) -> int:
    """One rhythm's per-year derivation (with the publications column when
    ``pubs`` is given), I1 and I2, or its chart."""
    columns = {"observed": seq.observed, "ck": seq.profile.values,
               "expected": seq.expected, "ratio": seq.ratios}
    if pubs is not None:
        columns = {"pubs": pubs, **columns}
    rows = [[str(year), *cells] for year, *cells in zip(seq.years, *columns.values())]
    text_footers = [["I1 = ", seq.i1], ["I2 = ", seq.i2]]
    if seq.undefined_years:
        years = ", ".join(str(y) for y in seq.undefined_years)
        text_footers.append([f"undefined ratio (expected = 0) in: {years}"])
    series = [(seq.observed_label or "ratio", seq)]
    csv_footers = [["I1", seq.i1], ["I2", seq.i2]]
    return _emit(args, title, series, ["year", *columns], rows, csv_footers, text_footers)


def _cmd_validate(args: argparse.Namespace) -> int:
    from .collective import build_collective, validate_collective

    manifest = parse_manifest(args.manifest)
    c = build_collective(manifest)
    report = validate_collective(c, assert_partition=manifest.assert_partition)
    print(
        f"collective {c.label}: {len(c.constituents)} constituents, "
        f"window {c.total.first_year}-{c.total.last_year}"
    )
    for finding in report.findings:
        print(f"  [{finding.severity}] {finding.code}: {finding.message}")
    if report.ok:
        print("ok")
        return 0
    print(f"FAILED: {len(report.errors)} error(s)")
    return 1


def _cmd_internal(args: argparse.Namespace) -> int:
    m = read_matrix_file(args.matrix).matrix
    title = f"Internal rhythm: {m.label} ({m.first_year}-{m.last_year})"
    return _emit_rhythm(args, title, internal_rhythm(m))


def _cmd_external(args: argparse.Namespace) -> int:
    from .collective import actor_vs_collective, load_manifest

    c = load_manifest(args.manifest)
    seq = actor_vs_collective(c, args.actor)
    title = f"External rhythm: {seq.observed_label} vs {seq.expectation_label}"
    return _emit_rhythm(args, title, seq, c.actor(args.actor).pubs)


def _cmd_compare(args: argparse.Namespace) -> int:
    from .collective import actor_vs_actor, load_manifest

    a, b = args.actor_a, args.actor_b
    result = actor_vs_actor(load_manifest(args.manifest), a, b)
    seq_a, seq_b = result.sequences[a], result.sequences[b]
    title = f"Comparison: {a} vs {b} (baseline {result.baseline_label})"
    rows: list[list[float | str | None]] = []
    for year, ra, rb, winner in zip(seq_a.years, seq_a.ratios, seq_b.ratios,
                                    result.per_year_winner):
        # No winner is a tie, or undefined where either ratio is.
        if winner is None and None not in (ra, rb):
            winner = "tie"
        rows.append([str(year), ra, rb, winner])
    csv_footers = [["I1", seq_a.i1, seq_b.i1], ["I2", seq_a.i2, seq_b.i2]]
    text_footers = [
        [f"{actor}: I1 = ", seq.i1, ", I2 = ", seq.i2] for actor, seq in ((a, seq_a), (b, seq_b))
    ]
    return _emit(args, title, [(a, seq_a), (b, seq_b)], ["year", a, b, "winner"], rows,
                 csv_footers, text_footers)


def _cmd_windows(args: argparse.Namespace) -> int:
    m = read_matrix_file(args.matrix).matrix
    # The windows come first: they reject a width before a column is named.
    rows = [[str(start), str(start + args.width - 1), seq.i1, seq.i2, *seq.ratios]
            for start, seq in sliding_windows(m, args.width).entries]
    headers = ["start", "end", "i1", "i2"] + [f"r{i + 1}" for i in range(args.width)]
    title = f"Sliding windows (width {args.width}): {m.label}"
    return _emit(args, title, [], headers, rows, [], [])


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    from .collective import actor_vs_collective, load_manifest
    from .oracle import (
        CorpusSpec,
        aggregate,
        brute_force_rhythm,
        corpus_from_matrix,
        default_age_curve,
        generate,
        max_relative_difference,
        rest_corpus,
    )

    path = Path(args.data)
    if path.suffix == ".manifest":
        c = load_manifest(path)
        matrices = [("total", c.total), *c.constituents.items()]
    else:
        m = read_matrix_file(path).matrix
        c, matrices = None, [(m.label, m)]

    checks: list[tuple[str, float]] = []
    for name, m in matrices:
        diff = max_relative_difference(
            internal_rhythm(m), brute_force_rhythm(corpus_from_matrix(m))
        )
        checks.append((f"{name} internal", diff))
    if c is not None:
        for actor_id, m in c.constituents.items():
            diff = max_relative_difference(
                actor_vs_collective(c, actor_id),
                brute_force_rhythm(corpus_from_matrix(m), rest_corpus(c.total, [m])),
            )
            checks.append((f"{actor_id} vs rest", diff))

    for trial in range(args.trials):
        n = 1 + (trial % 10)
        cspec = CorpusSpec(
            n=n,
            pubs_range=(0 if trial % 7 == 0 else 1, 8),
            age_curve=default_age_curve(n),
            magnet_share=0.05 if trial % 3 == 0 else 0.0,
        )
        corpus_b = generate(args.seed * 100_003 + 2 * trial, cspec)
        corpus_a = generate(args.seed * 100_003 + 2 * trial + 1, cspec)
        b = aggregate(corpus_b)
        internal_diff = max_relative_difference(internal_rhythm(b), brute_force_rhythm(corpus_b))
        cross_diff = max_relative_difference(
            cross_rhythm(b, aggregate(corpus_a)),
            brute_force_rhythm(corpus_b, corpus_a),
        )
        checks.append((f"trial {trial} internal", internal_diff))
        checks.append((f"trial {trial} cross", cross_diff))

    worst = max(diff for _, diff in checks)
    failures = [(name, diff) for name, diff in checks if diff > ORACLE_TOLERANCE]
    if args.verbose:
        for name, diff in checks:
            print(f"  {name}: max relative difference {diff:.3e}")
    print(
        f"oracle-check: {len(checks)} comparisons "
        f"({args.trials} random trials, seed {args.seed}), worst {worst:.3e}"
    )
    if failures:
        for name, diff in failures:
            print(f"  FAIL {name}: {diff:.3e} > {ORACLE_TOLERANCE:g}")
        return 1
    print(f"all within {ORACLE_TOLERANCE:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhythm",
        description="Rhythm sequences and summary indicators from publication-citation matrices.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_report_args(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
        p.add_argument("--format", choices=formats, default="text", help="output format")
        p.add_argument("--decimals", type=int, default=3, help="decimal places (default 3)")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("validate", help="check a collective manifest and its data")
    p.add_argument("manifest")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("internal", help="internal rhythm of one matrix")
    p.add_argument("matrix")
    add_report_args(p, ("text", "csv", "svg"))
    p.set_defaults(func=_cmd_internal)

    p = sub.add_parser("external", help="rhythm of an actor vs the rest of its collective")
    p.add_argument("manifest")
    p.add_argument("--actor", required=True, help="actor id from the manifest")
    add_report_args(p, ("text", "csv", "svg"))
    p.set_defaults(func=_cmd_external)

    p = sub.add_parser("compare", help="two actors vs the shared rest of the collective")
    p.add_argument("manifest")
    p.add_argument("--a", dest="actor_a", required=True, help="first actor id")
    p.add_argument("--b", dest="actor_b", required=True, help="second actor id")
    add_report_args(p, ("text", "csv", "svg"))
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("windows", help="sliding-window internal rhythms")
    p.add_argument("matrix")
    p.add_argument("--width", type=int, required=True, help="window width in years")
    add_report_args(p, ("text", "csv"))
    p.set_defaults(func=_cmd_windows)

    p = sub.add_parser(
        "oracle-check",
        help="compare the fast path against the event-level brute-force path",
    )
    p.add_argument("data", help="manifest if the name ends in .manifest, else matrix CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--verbose", action="store_true", help="print every comparison")
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "decimals", 0) < 0:
            raise ValueError("decimals must be >= 0")
        if getattr(args, "decimals", 0) > _MAX_DECIMALS:
            raise ValueError(f"decimals must be <= {_MAX_DECIMALS}")
        if getattr(args, "trials", 0) < 0:
            raise ValueError("trials must be >= 0")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull, so that the flush
        # at interpreter exit cannot fail again and print to stderr.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (RhythmError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
