#!/usr/bin/env python3
"""Checks scripts/report_diff.py on two small committed reports.

    python3 scripts/test_report_diff.py

The fixtures (scripts/testdata/report_diff_{a,b}.json) are hand-written
nws-report-v1 artifacts of one bench that differ in a few cells, rows,
headers, tables, metrics and config flags.  The checks: the listing names
exactly those differences, a report against itself prints nothing and
exits 0, config alone exits 0, repeated headers pair by occurrence, and
unreadable input, another schema or another bench exit 2.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import report_diff  # noqa: E402

TOOL = os.path.join(HERE, "report_diff.py")
A = os.path.join(HERE, "testdata", "report_diff_a.json")
B = os.path.join(HERE, "testdata", "report_diff_b.json")

EXPECTED = [
    "table 'Interfaces' row 'stream/dfs' col 'write (GiB/s)': 0.831 -> 0.856 (+3.01%)",
    "table 'Interfaces' row 'stream/dfs' col 'fields/s': 851.1 -> 876.2 (+2.95%)",
    "table 'Interfaces' row 'meta/native': removed",
    "table 'Interfaces' row 'meta/dfs' col 'fields/s': 801.2 -> 846.6 (+5.67%)",
    "table 'Interfaces' row 'stream/posix': added",
    "table 'Ordering' header 'note': added",
    "table 'Setup': added",
    "metric daos.kv_gets: 8868 -> 8952 (+0.95%)",
    "metric daos.kv_puts: 1944 -> 1656 (-14.81%)",
    "metric dfs.lookups: kind counter -> gauge",
    "metric io.write.latency_seconds p99: 0.9 -> 0.95 (+5.56%)",
    "metric new.metric: added (gauge)",
    "metric old.metric: removed (counter)",
    "config jobs: 0 -> 1 (information only)",
]


def run(a, b):
    proc = subprocess.run([sys.executable, TOOL, a, b], capture_output=True, text=True,
                          check=False)
    return proc.returncode, proc.stdout.splitlines()


class ReportDiffTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, report):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        return path

    def fixture(self, path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def test_lists_every_difference(self):
        code, lines = run(A, B)
        self.assertEqual(code, 1)
        self.assertEqual(lines, EXPECTED)

    def test_identical_reports_print_nothing(self):
        self.assertEqual(run(A, A), (0, []))

    def test_config_alone_is_information(self):
        report = self.fixture(A)
        report["config"]["jobs"] = "1"
        report["config"]["report"] = "elsewhere.json"  # never listed
        code, lines = run(A, self.write("jobs1.json", report))
        self.assertEqual(code, 0)
        self.assertEqual(lines, ["config jobs: 0 -> 1 (information only)"])

    def test_reordered_content_still_differs(self):
        report = self.fixture(A)
        report["metrics"] = dict(reversed(list(report["metrics"].items())))
        code, lines = run(A, self.write("reordered.json", report))
        self.assertEqual(code, 1)
        self.assertEqual(lines, ["metrics: same content, different order"])

    def test_unreadable_schema_and_bench_exit_2(self):
        other_bench = self.fixture(B)
        other_bench["bench"] = "fig6_objclass_size"
        other_schema = self.fixture(B)
        other_schema["schema"] = "nws-report-v0"
        bad_metric = self.fixture(B)
        bad_metric["metrics"]["daos.kv_gets"] = 8952
        broken = os.path.join(self.tmp.name, "broken.json")
        with open(broken, "w", encoding="utf-8") as fh:
            fh.write("{\"schema\": ")
        for path in (self.write("bench.json", other_bench), self.write("schema.json", other_schema),
                     self.write("metric.json", bad_metric), broken,
                     os.path.join(self.tmp.name, "missing.json")):
            with self.subTest(path=os.path.basename(path)):
                self.assertEqual(run(A, path), (2, []))

    def test_repeated_headers_pair_by_occurrence(self):
        table = {"title": "T", "headers": ["case", "paper", "paper"],
                 "rows": [["a", "1", "2"], ["b", "3", "4"]]}
        report = self.fixture(A)
        report["tables"] = [table]
        before = self.write("before.json", report)
        self.assertEqual(run(before, before), (0, []))
        table["rows"][1][2] = "5"
        code, lines = run(before, self.write("after.json", report))
        self.assertEqual(code, 1)
        self.assertEqual(lines, ["table 'T' row 'b' col 'paper (#2)': 4 -> 5 (+25.00%)"])

    def test_row_labels_are_the_shortest_unique_prefix(self):
        rows = [["stream", "dfs", "1"], ["stream", "posix", "1"], ["meta", "dfs", "1"]]
        self.assertEqual(report_diff.label_width(rows), 2)
        self.assertEqual(report_diff.label_width([["a", "1"], ["b", "1"]]), 1)
        # Duplicate rows have no unique prefix: they are told apart by number.
        self.assertEqual(report_diff.label_width([["a", "1"], ["a", "1"]]), 0)
        self.assertEqual(list(report_diff.keyed_rows([["a"], ["a"]], 0)), ["#0", "#1"])


if __name__ == "__main__":
    unittest.main()
