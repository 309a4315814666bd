#!/usr/bin/env python3
"""Plot a cebinae_bench results stream (--out=) as a labeled line or CDF
figure.

Pure standard library: renders SVG directly, so it works in the bare build
container. Rows are read by the rule `cebinae_bench --resume` uses: a last
line that ends inside its row, or lacks its newline, is a write the process
died in and is skipped; any other line that is not a JSON row is an error
that names the line. A traced job's row is read as its time series when a
field selector (--x, --y, --group-by or a --filter key) names a field that
only its ticks carry, such as `t_s`: its `trace` list then becomes one row
per tick, which carries the job's label, job_index, seed and params.
Otherwise the row stays one row, so `--y jfi` plots each job's whole-run
`jfi`.

Examples
--------
Fig. 1-style goodput time series from a traced experiment's results (one
line per flow of one job):

  scripts/plot_jsonl.py results.jsonl --x t_s --y 'tput_Bps[0]' --y 'tput_Bps[1]' \
      --filter label='qdisc=Cebinae trial=0' --out fig01.svg

Fig. 8-style goodput CDF from a results file, one curve per qdisc:

  scripts/plot_jsonl.py results.jsonl --y jfi --cdf --group-by qdisc --out fig08.svg

Field selectors accept `name` (scalar) or `name[i]` (array element). With
--group-by KEY, rows are split into one series per distinct value of KEY
(a scalar/string field, or a params.* echo via `params.KEY`).
"""

import argparse
import json
import math
import string
import sys


# --------------------------------------------------------------------------
# data access


def truncated(line, err):
    """True when `line` ends inside its row rather than at a byte no row can
    contain: every prefix of a row is truncated."""
    rest = line[err.pos:]
    if not rest or err.msg.startswith("Unterminated string"):
        return True
    if err.msg.startswith("Invalid \\uXXXX escape"):
        return len(rest) < 5 and all(c in string.hexdigits for c in rest[1:])
    # A row ends with '}', so a line that ends in a number or a literal was
    # cut in it.
    return set(rest) <= set("0123456789+-.eE") or any(
        word.startswith(rest) for word in ("true", "false", "null"))


def load_rows(path):
    """Parse a JSONL file by the rule --resume uses: only the last line may
    be torn (truncated, or without its newline), and is then skipped."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()  # the empty string after the final newline
    decoder = json.JSONDecoder(strict=False)
    rows = []
    for n, line in enumerate(lines, 1):
        last = n == len(lines)
        try:
            row = decoder.decode(line)
        except json.JSONDecodeError as err:
            if not truncated(line, err):
                raise SystemExit(f"error: {path} line {n} is not a JSON row")
            if not last:
                raise SystemExit(f"error: {path} line {n} is torn but not the last line")
            break
        if not isinstance(row, dict):
            raise SystemExit(f"error: {path} line {n} is not a JSON row")
        if last and not text.endswith("\n"):
            break
        rows.append(row)
    return rows


def expand_traces(rows, fields):
    """Replace each row that has a `trace` list by one row per tick, each
    prefixed with the job's context fields and the row's top-level string
    fields (such as `qdisc`; a tick's own fields win), when one of `fields`
    resolves in its ticks but not in the row itself."""
    out = []
    for row in rows:
        trace = row.get("trace")
        if not isinstance(trace, list) or not any(
                select(row, f) is None and any(select(tick, f) is not None for tick in trace)
                for f in fields):
            out.append(row)
            continue
        context = {k: v for k, v in row.items()
                   if k in ("job_index", "seed", "params") or isinstance(v, str)}
        out.extend({**context, **tick} for tick in trace)
    return out


def select(row, field):
    """Resolve `name`, `name[i]`, or `params.name` against one row."""
    if field.endswith("]") and "[" in field:
        name, idx = field[:-1].split("[", 1)
        value = select(row, name)
        try:
            return value[int(idx)] if value is not None else None
        except (IndexError, TypeError, ValueError):
            return None
    obj = row
    for part in field.split("."):
        if not isinstance(obj, dict) or part not in obj:
            return None
        obj = obj[part]
    return obj


def numeric(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def build_series(rows, xfield, yfields, group_by):
    """-> list of (label, [(x, y), ...]) sorted by label for determinism."""
    series = {}
    for n, row in enumerate(rows):
        x = select(row, xfield) if xfield else n
        if not numeric(x):
            continue
        group = select(row, group_by) if group_by else None
        for yfield in yfields:
            y = select(row, yfield)
            if not numeric(y):
                continue
            key = yfield if group is None else (
                f"{group}" if len(yfields) == 1 else f"{group} {yfield}")
            series.setdefault(key, []).append((x, y))
    return sorted(series.items())


def to_cdf(points):
    ys = sorted(y for _, y in points)
    n = len(ys)
    return [(y, (i + 1) / n) for i, y in enumerate(ys)]


# --------------------------------------------------------------------------
# pure-python SVG renderer


PALETTE = ["#4269d0", "#efb118", "#ff725c", "#6cc5b0", "#3ca951",
           "#ff8ab7", "#a463f2", "#97bbf5", "#9c6b4e", "#9498a0"]


def nice_ticks(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / max(1, n)))
    for mult in (1, 2, 2.5, 5, 10, 20):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks


def fmt_tick(v):
    if v == 0:
        return "0"
    if abs(v) >= 1e5 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:g}"


def render_svg(series, title, xlabel, ylabel, width=720, height=440):
    ml, mr, mt, mb = 72, 16, 34, 48
    pw, ph = width - ml - mr, height - mt - mb
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    if not xs:
        raise SystemExit("error: no numeric points matched the selection")
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi = ylo + (abs(ylo) or 1.0) * 0.1
    ypad = (yhi - ylo) * 0.05
    ylo, yhi = ylo - ypad, yhi + ypad

    def px(x):
        return ml + (x - xlo) / (xhi - xlo) * pw

    def py(y):
        return mt + ph - (y - ylo) / (yhi - ylo) * ph

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
               f'height="{height}" viewBox="0 0 {width} {height}" '
               f'font-family="system-ui, sans-serif" font-size="12">')
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    out.append(f'<text x="{ml + pw / 2}" y="20" text-anchor="middle" '
               f'font-size="14" font-weight="600">{escape(title)}</text>')

    for t in nice_ticks(xlo, xhi):
        x = px(t)
        out.append(f'<line x1="{x:.1f}" y1="{mt}" x2="{x:.1f}" y2="{mt + ph}" '
                   f'stroke="#e3e3e8" stroke-width="1"/>')
        out.append(f'<text x="{x:.1f}" y="{mt + ph + 18}" text-anchor="middle" '
                   f'fill="#555">{fmt_tick(t)}</text>')
    for t in nice_ticks(ylo, yhi):
        y = py(t)
        out.append(f'<line x1="{ml}" y1="{y:.1f}" x2="{ml + pw}" y2="{y:.1f}" '
                   f'stroke="#e3e3e8" stroke-width="1"/>')
        out.append(f'<text x="{ml - 8}" y="{y + 4:.1f}" text-anchor="end" '
                   f'fill="#555">{fmt_tick(t)}</text>')
    out.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
               f'stroke="#9aa0a6" stroke-width="1"/>')
    out.append(f'<text x="{ml + pw / 2}" y="{height - 10}" text-anchor="middle" '
               f'fill="#333">{escape(xlabel)}</text>')
    out.append(f'<text x="16" y="{mt + ph / 2}" text-anchor="middle" fill="#333" '
               f'transform="rotate(-90 16 {mt + ph / 2})">{escape(ylabel)}</text>')

    for k, (label, pts) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        pts = sorted(pts)
        path = " ".join(f"{'M' if i == 0 else 'L'}{px(x):.2f},{py(y):.2f}"
                        for i, (x, y) in enumerate(pts))
        out.append(f'<path d="{path}" fill="none" stroke="{color}" '
                   f'stroke-width="1.8"/>')
        if len(pts) <= 40:  # markers only when they stay readable
            for x, y in pts:
                out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.4" '
                           f'fill="{color}"/>')
        ly = mt + 14 + 16 * k
        out.append(f'<line x1="{ml + pw - 130}" y1="{ly - 4}" x2="{ml + pw - 108}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="2.5"/>')
        out.append(f'<text x="{ml + pw - 102}" y="{ly}" fill="#333">'
                   f'{escape(label)}</text>')

    out.append("</svg>")
    return "\n".join(out)


def escape(s):
    return (str(s).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


# --------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("jsonl", help="results JSONL file (--out=)")
    ap.add_argument("--x", default=None,
                    help="x field selector (default: t_s if present, else row index)")
    ap.add_argument("--y", action="append", required=True,
                    help="y field selector; repeatable (name or name[i])")
    ap.add_argument("--cdf", action="store_true",
                    help="plot the CDF of the y values instead of y-vs-x")
    ap.add_argument("--group-by", default=None,
                    help="split rows into one series per value of this field")
    ap.add_argument("--filter", action="append", default=[],
                    help="KEY=VALUE; keep only rows whose KEY stringifies to VALUE")
    ap.add_argument("--title", default=None)
    ap.add_argument("--xlabel", default=None)
    ap.add_argument("--ylabel", default=None)
    ap.add_argument("--out", default="plot.svg", help="output .svg path")
    args = ap.parse_args()
    if not args.out.lower().endswith(".svg"):
        raise SystemExit(f"error: --out must name an .svg file, got '{args.out}'")

    for f in args.filter:
        if "=" not in f:
            raise SystemExit(f"error: --filter wants KEY=VALUE, got '{f}'")
    filters = [f.split("=", 1) for f in args.filter]
    fields = [f for f in (args.x, args.group_by) if f] + args.y + [key for key, _ in filters]
    rows = expand_traces(load_rows(args.jsonl), fields)
    if not rows:
        raise SystemExit(f"error: no parseable rows in {args.jsonl}")

    for key, want in filters:
        rows = [r for r in rows if str(select(r, key)) == want]
    if not rows:
        raise SystemExit("error: --filter removed every row")

    xfield = args.x
    if xfield is None and not args.cdf:
        xfield = "t_s" if any("t_s" in r for r in rows) else None

    series = build_series(rows, xfield, args.y, args.group_by)
    if args.cdf:
        series = [(label, to_cdf(pts)) for label, pts in series]

    ylist = ", ".join(args.y)
    if args.cdf:
        xlabel = args.xlabel or ylist
        ylabel = args.ylabel or "CDF"
    else:
        xlabel = args.xlabel or (xfield or "row")
        ylabel = args.ylabel or ylist
    title = args.title or f"{ylist} — {args.jsonl}"

    with open(args.out, "w", encoding="utf-8") as f:
        f.write(render_svg(series, title, xlabel, ylabel))
    total = sum(len(p) for _, p in series)
    print(f"wrote {args.out}: {len(series)} series, {total} points", file=sys.stderr)


if __name__ == "__main__":
    main()
