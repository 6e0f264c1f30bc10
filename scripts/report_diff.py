#!/usr/bin/env python3
"""List what differs between two nws-report-v1 artifacts of one bench.

    python3 scripts/report_diff.py A B

A and B are `--report=FILE` artifacts of the same bench binary (for
example the parent's and the change's).  One line is printed per
difference, in this order:

  table cells      named by table title, row label and header, with the
                   relative change when both cells are numbers;
  table shape      tables, rows or headers that only one side has;
  metrics          counters and gauges by value, histograms by count,
                   min, max, mean, p50, p95 and p99, each with the relative
                   change; metrics that only one side has, or whose kind
                   changed;
  config           flags that differ (except `report`, the artifact's own
                   path), for information only.

A row's label is its first k cells, for the smallest k that tells every
row of the table apart on both sides (the row number when none does), so a
table of (scenario, backend, ...) rows is labelled `stream/dfs`.  A row
whose label cells changed shows as one row removed and one added.

The exit code is 0 when tables and metrics are identical, 1 when they
differ, and 2 when an input cannot be read, is not nws-report-v1, or the
two come from different benches.  Config alone never makes it 1.  Python
stdlib only.
"""

import json
import sys

SCHEMA = "nws-report-v1"
HISTOGRAM_FIELDS = ("count", "min", "max", "mean", "p50", "p95", "p99")


class Unreadable(Exception):
    pass


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as err:
        raise Unreadable(f"{path}: {err}") from err
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        raise Unreadable(f"{path}: not an {SCHEMA} report")
    for key, kind in (("config", dict), ("tables", list), ("metrics", dict)):
        if not isinstance(report.get(key), kind):
            raise Unreadable(f"{path}: missing or malformed '{key}'")
    entries = list(report["tables"]) + list(report["metrics"].values())
    if not all(isinstance(entry, dict) for entry in entries):
        raise Unreadable(f"{path}: a table or metric is not an object")
    return report


def number(value):
    """The value as a float when it is a number or a numeric cell, else None."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def change(a, b):
    """`a -> b`, with the relative change when both are numbers."""
    text = f"{a} -> {b}"
    x, y = number(a), number(b)
    if x is None or y is None:
        return text
    if x == 0:
        return text if y == 0 else text + " (from zero)"
    return text + f" ({(y - x) / abs(x):+.2%})"


def unique_names(names):
    """The names, a repeated one suffixed with its occurrence number."""
    out = []
    for name in names:
        unique, n = name, 1
        while unique in out:
            n += 1
            unique = f"{name} (#{n})"
        out.append(unique)
    return out


def keyed_tables(tables):
    """Tables by title (a repeated title gets its occurrence number)."""
    return dict(zip(unique_names(t.get("title", "") for t in tables), tables))


def label_width(*row_sets):
    """Smallest k whose leading-k-cell tuples are unique in every row set."""
    widest = max((len(row) for rows in row_sets for row in rows), default=0)
    for k in range(1, widest + 1):
        if all(len({tuple(row[:k]) for row in rows}) == len(rows) for rows in row_sets):
            return k
    return 0


def keyed_rows(rows, k):
    if k == 0:
        return {f"#{i}": row for i, row in enumerate(rows)}
    return {"/".join(row[:k]): row for row in rows}


def diff_table(name, a, b, out):
    headers_a = unique_names(a.get("headers", []))
    headers_b = unique_names(b.get("headers", []))
    for header in headers_a:
        if header not in headers_b:
            out.append(f"table '{name}' header '{header}': removed")
    for header in headers_b:
        if header not in headers_a:
            out.append(f"table '{name}' header '{header}': added")
    rows_a, rows_b = a.get("rows", []), b.get("rows", [])
    k = label_width(rows_a, rows_b)
    keyed_a, keyed_b = keyed_rows(rows_a, k), keyed_rows(rows_b, k)
    for label, row_a in keyed_a.items():
        row_b = keyed_b.get(label)
        if row_b is None:
            out.append(f"table '{name}' row '{label}': removed")
            continue
        for col, header in enumerate(headers_a):
            if col < k or header not in headers_b:
                continue
            col_b = headers_b.index(header)
            cell_a = row_a[col] if col < len(row_a) else None
            cell_b = row_b[col_b] if col_b < len(row_b) else None
            if cell_a != cell_b:
                out.append(f"table '{name}' row '{label}' col '{header}': {change(cell_a, cell_b)}")
    for label in keyed_b:
        if label not in keyed_a:
            out.append(f"table '{name}' row '{label}': added")


def diff_tables(a, b, out):
    tables_a, tables_b = keyed_tables(a), keyed_tables(b)
    for name, table in tables_a.items():
        if name not in tables_b:
            out.append(f"table '{name}': removed")
        else:
            diff_table(name, table, tables_b[name], out)
    for name in tables_b:
        if name not in tables_a:
            out.append(f"table '{name}': added")


def diff_metrics(a, b, out):
    for name in sorted(set(a) | set(b)):
        if name not in b:
            out.append(f"metric {name}: removed ({a[name].get('kind')})")
            continue
        if name not in a:
            out.append(f"metric {name}: added ({b[name].get('kind')})")
            continue
        ma, mb = a[name], b[name]
        if ma.get("kind") != mb.get("kind"):
            out.append(f"metric {name}: kind {ma.get('kind')} -> {mb.get('kind')}")
            continue
        known = HISTOGRAM_FIELDS if ma.get("kind") == "histogram" else ("value",)
        fields = list(known) + sorted((set(ma) | set(mb)) - set(known) - {"kind"})
        for field in fields:
            if ma.get(field) != mb.get(field):
                label = name if field == "value" else f"{name} {field}"
                out.append(f"metric {label}: {change(ma.get(field), mb.get(field))}")


def diff_config(a, b, out):
    for key in sorted((set(a) | set(b)) - {"report"}):
        if a.get(key) != b.get(key):
            out.append(f"config {key}: {a.get(key)} -> {b.get(key)} (information only)")


def main(argv):
    if len(argv) != 3:
        print("usage: report_diff.py A B", file=sys.stderr)
        return 2
    try:
        a, b = load(argv[1]), load(argv[2])
    except Unreadable as err:
        print(f"report_diff: {err}", file=sys.stderr)
        return 2
    if a.get("bench") != b.get("bench"):
        print(f"report_diff: different benches: {a.get('bench')} vs {b.get('bench')}",
              file=sys.stderr)
        return 2
    lines = []
    diff_tables(a["tables"], b["tables"], lines)
    diff_metrics(a["metrics"], b["metrics"], lines)
    differ = bool(lines)
    # Equal content in another serialisation order still differs byte-wise.
    for section in ("tables", "metrics"):
        if not differ and json.dumps(a[section]) != json.dumps(b[section]):
            lines.append(f"{section}: same content, different order")
            differ = True
    diff_config(a["config"], b["config"], lines)
    for line in lines:
        print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
