#!/usr/bin/env python3
"""Aggregate gcov line coverage: per-directory floors, or unreached src/ files.

Usage: scripts/coverage.py <build-dir> [--baseline scripts/coverage_baseline.txt]
       scripts/coverage.py <build-dir> --reached

Walks <build-dir> for .gcda counter files (produced by runs of an
NWS_COVERAGE=ON build), asks gcov for machine-readable JSON per translation
unit (`gcov --json-format --stdout`; gcovr is deliberately not a dependency)
and sums execution counts per source line across all translation units.

By default it reports line coverage for each directory listed in the
baseline file, which has one `<directory> <min-percent>` pair per line
(comments with '#').  Coverage below the baseline fails the script — the
floor only ratchets up: when a PR raises coverage, raise the baseline with
it.

What the line counts measure: GCC 12.2's gcov emits no line record inside
a coroutine body.  A coroutine (any function that uses co_await or
co_return) is recorded only at its first and last lines, plus the lambdas
and plain functions it calls; src/dfs/dfs.cc, whose operations are all
coroutines, has 116 instrumented lines out of 450, and Dfs::mount is
recorded only at its first and last lines and its retry lambdas.  So the
src/daos, src/dfs and src/fdb floors count function heads, lambdas and
non-coroutine helpers, not the statements of the coroutine operations.

--reached instead names every src/**/*.cc file that executed no line, and
fails if there is one.  A file with no gcov record at all counts as
unreached: it is a library member that no binary links.  Only .cc files
are checked, so headers and templates stay out of it.  scripts/check.sh
runs it after the artifact producers alone (benches, examples, nwsbench),
so code that only tests reach fails it.

Override the gcov binary with GCOV=gcov-12 when the compiler was g++-12.
"""

import argparse
import json
import os
import subprocess
import sys


def parse_baseline(path):
    baseline = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            directory, minimum = line.split()
            baseline[directory.rstrip("/")] = float(minimum)
    return baseline


def find_gcda(build_dir):
    for root, _dirs, files in os.walk(build_dir):
        for name in files:
            if name.endswith(".gcda"):
                # Absolute: gcov runs with cwd=build_dir, not the repo root.
                yield os.path.abspath(os.path.join(root, name))


def gcov_json(gcov, gcda_paths, build_dir):
    """Yields one parsed gcov JSON document per translation unit."""
    # Batched invocations: one process per ~64 files keeps this fast without
    # hitting argv limits.  --stdout emits one JSON document per line.
    for start in range(0, len(gcda_paths), 64):
        batch = gcda_paths[start : start + 64]
        proc = subprocess.run(
            [gcov, "--json-format", "--stdout"] + batch,
            cwd=build_dir,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            check=True,
            text=True,
        )
        for line in proc.stdout.splitlines():
            line = line.strip()
            if line.startswith("{"):
                yield json.loads(line)


def line_counts(gcov, gcda, build_dir, repo):
    """{(source path relative to the repo, line): summed execution count}."""
    counts = {}
    for doc in gcov_json(gcov, gcda, build_dir):
        for entry in doc.get("files", []):
            path = entry["file"]
            if not os.path.isabs(path):
                path = os.path.join(build_dir, path)
            rel = os.path.relpath(os.path.abspath(path), repo)
            if rel.startswith(".."):
                continue  # system or third-party header
            for line in entry.get("lines", []):
                key = (rel, line["line_number"])
                counts[key] = counts.get(key, 0) + int(line["count"])
    return counts


def check_reached(counts, repo):
    """Names every src/**/*.cc file that executed no line; 1 if there is one."""
    sources = sorted(
        os.path.relpath(os.path.join(root, name), repo)
        for root, _dirs, files in os.walk(os.path.join(repo, "src"))
        for name in files
        if name.endswith(".cc"))
    reached = {rel for (rel, _line), n in counts.items() if n > 0}
    unreached = [rel for rel in sources if rel not in reached]
    for rel in unreached:
        print(f"coverage: {rel} executed no line", file=sys.stderr)
    print(f"reached {len(sources) - len(unreached)} of {len(sources)} src/ .cc files")
    return 1 if unreached else 0


def check_floors(counts, baseline):
    """Prints each baseline directory's line coverage; 1 if one is below its floor."""
    failed = False
    print(f"{'directory':<12} {'lines':>7} {'covered':>8} {'coverage':>9} {'baseline':>9}")
    for directory in sorted(baseline):
        prefix = directory.rstrip("/") + "/"
        total = sum(1 for (rel, _line) in counts if rel.startswith(prefix))
        covered = sum(1 for (rel, _line), n in counts.items() if rel.startswith(prefix) and n > 0)
        if total == 0:
            print(f"coverage: no instrumented lines under {directory}", file=sys.stderr)
            failed = True
            continue
        percent = 100.0 * covered / total
        verdict = "ok" if percent >= baseline[directory] else "BELOW BASELINE"
        print(f"{directory:<12} {total:>7} {covered:>8} {percent:>8.1f}% {baseline[directory]:>8.1f}% {verdict}")
        if percent < baseline[directory]:
            failed = True
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("build_dir")
    parser.add_argument("--baseline", default="scripts/coverage_baseline.txt")
    parser.add_argument("--reached", action="store_true",
                        help="fail on a src/ .cc file that executed no line; no floors")
    args = parser.parse_args()
    gcov = os.environ.get("GCOV", "gcov")

    gcda = sorted(find_gcda(args.build_dir))
    if not gcda:
        print(f"coverage: no .gcda files under {args.build_dir} — "
              "configure with -DNWS_COVERAGE=ON and run the binaries first", file=sys.stderr)
        return 1
    repo = os.path.abspath(os.path.dirname(os.path.dirname(__file__)))
    counts = line_counts(gcov, gcda, args.build_dir, repo)
    if args.reached:
        return check_reached(counts, repo)
    return check_floors(counts, parse_baseline(args.baseline))


if __name__ == "__main__":
    sys.exit(main())
