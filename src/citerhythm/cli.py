"""Command-line front end.

Subcommands: validate, internal, external, compare, windows, oracle-check.
Internal analyses take a bare matrix CSV; external and pairwise analyses
take a manifest so the complement is always built through the validated
collective path. Output formats: text (default), csv, svg (charts).
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from . import __version__
from .chart import ChartSeries, line_chart
from .collective import actor_vs_actor, complement, validate_collective
from .errors import RhythmError
from .ingest import build_collective, load_manifest, parse_manifest, read_matrix_file
from .oracle import (
    CorpusSpec,
    aggregate,
    brute_force_rhythm,
    corpus_from_matrix,
    default_age_curve,
    generate,
    max_relative_difference,
)
from .pcmatrix import ck_profile
from .rhythm import RhythmSequence, cross_rhythm, internal_rhythm, sliding_windows

ORACLE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ReportSpec:
    """How to render a command's result: format, decimal places for numeric
    cells, and destination (None = stdout)."""

    fmt: str = "text"
    decimals: int = 3
    out: Path | None = None

    def __post_init__(self) -> None:
        if self.decimals < 0:
            raise ValueError("decimals must be >= 0")


def format_number(value: float | None, decimals: int) -> str:
    """Fixed-point rendering, ties rounded half away from zero."""
    if value is None:
        return ""
    quantum = Decimal(1).scaleb(-decimals)
    return str(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def _text_cell(value: float | None, decimals: int) -> str:
    return format_number(value, decimals) if value is not None else "-"


def _render_table(headers: list[str], rows: list[list[str]], footers: list[str]) -> str:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    lines.extend(footers)
    return "\n".join(lines) + "\n"


def _render_csv(headers: list[str], rows: list[list[str]], footers: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    writer.writerows(footers)
    return buf.getvalue()


def _emit(text: str, spec: ReportSpec) -> None:
    if spec.out is None:
        sys.stdout.write(text)
    else:
        spec.out.write_text(text, encoding="utf-8")


def _color_enabled() -> bool:
    return sys.stdout.isatty() and not os.environ.get("RHYTHM_NO_COLOR")


_SEVERITY_STYLE = {"error": "31", "warning": "33", "info": "36"}


def _severity(word: str) -> str:
    if _color_enabled() and word in _SEVERITY_STYLE:
        return f"\x1b[{_SEVERITY_STYLE[word]}m{word}\x1b[0m"
    return word


def _report_spec(args: argparse.Namespace) -> ReportSpec:
    return ReportSpec(
        fmt=getattr(args, "format", "text"),
        decimals=getattr(args, "decimals", 3),
        out=Path(args.out) if getattr(args, "out", None) else None,
    )


def _sequence_rows(
    seq: RhythmSequence,
    decimals: int,
    *,
    pubs: tuple[float, ...] | None = None,
    ck: tuple[float, ...] | None = None,
    blank_missing: bool = False,
) -> list[list[str]]:
    missing = "" if blank_missing else "-"
    rows = []
    for idx, p in enumerate(seq.points):
        row = [str(p.year)]
        if pubs is not None:
            row.append(format_number(pubs[idx], decimals))
        row.append(format_number(p.observed, decimals))
        if ck is not None:
            row.append(format_number(ck[idx], decimals))
        row.append(format_number(p.expected, decimals))
        row.append(format_number(p.ratio, decimals) if p.ratio is not None else missing)
        rows.append(row)
    return rows


def _sequence_report(
    seq: RhythmSequence,
    spec: ReportSpec,
    title: str,
    *,
    pubs: tuple[float, ...] | None = None,
    ck: tuple[float, ...] | None = None,
) -> str:
    headers = ["year"]
    if pubs is not None:
        headers.append("pubs")
    headers.append("observed")
    if ck is not None:
        headers.append("ck")
    headers += ["expected", "ratio"]

    if spec.fmt == "csv":
        rows = _sequence_rows(seq, spec.decimals, pubs=pubs, ck=ck, blank_missing=True)
        footers = [
            ["I1", format_number(seq.i1, spec.decimals)],
            ["I2", format_number(seq.i2, spec.decimals)],
        ]
        return _render_csv(headers, rows, footers)

    if spec.fmt == "svg":
        points = tuple((p.year, p.ratio) for p in seq.points if p.ratio is not None)
        series = [ChartSeries(label=seq.observed_label or "ratio", points=points)]
        return line_chart(seq.years, series, title=title)

    rows = _sequence_rows(seq, spec.decimals, pubs=pubs, ck=ck)
    footers = [
        f"I1 = {_text_cell(seq.i1, spec.decimals)}",
        f"I2 = {_text_cell(seq.i2, spec.decimals)}",
    ]
    if seq.undefined_years:
        years = ", ".join(str(y) for y in seq.undefined_years)
        footers.append(f"undefined ratio (expected = 0) in: {years}")
    return f"{title}\n" + _render_table(headers, rows, footers)


def _cmd_validate(args: argparse.Namespace) -> int:
    manifest = parse_manifest(args.manifest)
    c = build_collective(manifest)
    report = validate_collective(c, assert_partition=manifest.assert_partition)
    print(
        f"collective {report.collective_label}: {report.constituent_count} constituents, "
        f"window {report.first_year}-{report.first_year + report.n - 1}"
    )
    for finding in report.findings:
        print(f"  [{_severity(finding.severity)}] {finding.code}: {finding.message}")
    if report.ok:
        print("ok")
        return 0
    print(f"FAILED: {len(report.errors)} error(s)")
    return 1


def _cmd_internal(args: argparse.Namespace) -> int:
    spec = _report_spec(args)
    m = read_matrix_file(args.matrix).matrix
    seq = internal_rhythm(m)
    profile = ck_profile(m)
    title = f"Internal rhythm: {m.label} ({m.first_year}-{m.last_year})"
    _emit(_sequence_report(seq, spec, title, ck=profile.values), spec)
    return 0


def _cmd_external(args: argparse.Namespace) -> int:
    spec = _report_spec(args)
    c = load_manifest(args.manifest)
    actor = c.actor(args.actor)
    rest = complement(c, {args.actor})
    seq = cross_rhythm(actor, rest)
    profile = ck_profile(rest)
    title = f"External rhythm: {actor.label} vs {rest.label}"
    _emit(
        _sequence_report(seq, spec, title, pubs=actor.pubs, ck=profile.values),
        spec,
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    spec = _report_spec(args)
    c = load_manifest(args.manifest)
    result = actor_vs_actor(c, args.actor_a, args.actor_b)
    seq_a = result.sequences[args.actor_a]
    seq_b = result.sequences[args.actor_b]
    title = f"Comparison: {args.actor_a} vs {args.actor_b} (baseline {result.baseline_label})"

    if spec.fmt == "svg":
        series = [
            ChartSeries(
                label=args.actor_a,
                points=tuple((p.year, p.ratio) for p in seq_a.points if p.ratio is not None),
                dashed=True,
            ),
            ChartSeries(
                label=args.actor_b,
                points=tuple((p.year, p.ratio) for p in seq_b.points if p.ratio is not None),
            ),
        ]
        _emit(line_chart(seq_a.years, series, title=title), spec)
        return 0

    headers = ["year", args.actor_a, args.actor_b, "winner"]
    blank = "" if spec.fmt == "csv" else "-"
    rows = []
    for pa, pb, winner in zip(seq_a.points, seq_b.points, result.per_year_winner):
        rows.append(
            [
                str(pa.year),
                format_number(pa.ratio, spec.decimals) if pa.ratio is not None else blank,
                format_number(pb.ratio, spec.decimals) if pb.ratio is not None else blank,
                winner if winner is not None else "tie",
            ]
        )
    i1_cells = [format_number(seq_a.i1, spec.decimals), format_number(seq_b.i1, spec.decimals)]
    i2_cells = [format_number(seq_a.i2, spec.decimals), format_number(seq_b.i2, spec.decimals)]
    if spec.fmt == "csv":
        footers = [["I1"] + i1_cells, ["I2"] + i2_cells]
        _emit(_render_csv(headers, rows, footers), spec)
        return 0
    footers = [
        f"{args.actor_a}: I1 = {i1_cells[0] or '-'}, I2 = {i2_cells[0] or '-'}",
        f"{args.actor_b}: I1 = {i1_cells[1] or '-'}, I2 = {i2_cells[1] or '-'}",
    ]
    _emit(f"{title}\n" + _render_table(headers, rows, footers), spec)
    return 0


def _cmd_windows(args: argparse.Namespace) -> int:
    spec = _report_spec(args)
    m = read_matrix_file(args.matrix).matrix
    series = sliding_windows(m, args.width)
    headers = ["start", "end", "i1", "i2"] + [f"r{i + 1}" for i in range(args.width)]
    blank = "" if spec.fmt == "csv" else "-"
    rows = []
    for start, seq in series.entries:
        row = [
            str(start),
            str(start + args.width - 1),
            format_number(seq.i1, spec.decimals) if seq.i1 is not None else blank,
            format_number(seq.i2, spec.decimals) if seq.i2 is not None else blank,
        ]
        row.extend(
            format_number(p.ratio, spec.decimals) if p.ratio is not None else blank
            for p in seq.points
        )
        rows.append(row)
    if spec.fmt == "csv":
        _emit(_render_csv(headers, rows, []), spec)
        return 0
    title = f"Sliding windows (width {args.width}): {m.label}"
    _emit(f"{title}\n" + _render_table(headers, rows, []), spec)
    return 0


def _looks_like_manifest(path: Path) -> bool:
    """Whether the first line that is not blank or a comment is
    ``[collective]``; reads no further than that line."""
    try:
        with path.open(encoding="utf-8-sig", errors="replace") as lines:
            for line in lines:
                line = line.strip()
                if line and not line.startswith(("#", ";")):
                    return line == "[collective]"
    except OSError:
        return False
    return False


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    path = Path(args.data)
    checks: list[tuple[str, float]] = []

    if _looks_like_manifest(path):
        c = load_manifest(path)
        matrices = [("total", c.total)] + [
            (actor_id, m) for actor_id, m in c.constituents.items()
        ]
        for name, m in matrices:
            diff = max_relative_difference(
                internal_rhythm(m), brute_force_rhythm(corpus_from_matrix(m))
            )
            checks.append((f"{name} internal", diff))
        for actor_id in c.constituents:
            rest = complement(c, {actor_id})
            diff = max_relative_difference(
                cross_rhythm(c.actor(actor_id), rest),
                brute_force_rhythm(corpus_from_matrix(c.actor(actor_id)), corpus_from_matrix(rest)),
            )
            checks.append((f"{actor_id} vs rest", diff))
    else:
        m = read_matrix_file(path).matrix
        diff = max_relative_difference(
            internal_rhythm(m), brute_force_rhythm(corpus_from_matrix(m))
        )
        checks.append((f"{m.label} internal", diff))

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
        internal_diff = max_relative_difference(
            internal_rhythm(aggregate(corpus_b)), brute_force_rhythm(corpus_b)
        )
        cross_diff = max_relative_difference(
            cross_rhythm(aggregate(corpus_b), aggregate(corpus_a)),
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
    p.add_argument("data", help="matrix CSV or manifest")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--verbose", action="store_true", help="print every comparison")
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RhythmError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
