#!/usr/bin/env python3
"""Attribute nwsbench's host CPU time to subsystems from a gprof flat profile.

    python3 scripts/hostprof.py [--seconds S] [--seed N] [WORKLOAD ...]
    python3 scripts/hostprof.py --fold FLAT_PROFILE

Run it from anywhere; paths are relative to the repository root.  It builds a
static `-pg` nwsbench in build-hostprof/ (its own tree: the plain, sanitizer
and benchmark builds stay untouched), runs each named workload (default:
every workload of BENCHMARK.json) in a temporary directory, and runs
`gprof -b -p` on the gmon.out the run leaves there.  gprof ships with
binutils, so nothing is downloaded.

The flat profile's self time is folded into host.share.<bucket> shares that
sum to 1:

  sim, net, daos, fdb, dfs, pgen, obs, fault, ioserver, ...
                the nws::<namespace> of the symbol (every nws:: namespace
                gets its own bucket);
  harness       nws::bench, and nwsbench's own nwsbench:: namespace;
  common        nws:: itself (md5, rng, status, cli, ...);
  libc.mem      memmove, memcpy, memset, memcmp and their variants;
  libc.alloc    malloc, free, operator new/delete and the allocator's
                internals;
  other         everything else (std:: code on no nws type, the profiler's
                own mcount, ...).

A symbol goes to the nws:: namespace of its own qualified name, read outside
template arguments and parameter lists (the last one there, so a template's
return type does not count).  A symbol with no nws:: name of its own, such
as a std:: template, goes to the last nws:: namespace in its template
arguments: the type or lambda it was instantiated for.  The top symbols are
listed after the shares.

--fold FILE folds an existing flat profile instead (`gprof -b -p` output).

The shares are a diagnostic of where host time goes, not a benchmark
metric: they are sampled CPU time at gprof's 10 ms resolution, from a build
that also pays -pg's call counting.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-hostprof")
BINARY = os.path.join(BUILD, "nwsbench")
TOP_SYMBOLS = 15

# nws:: namespaces whose bucket is not their own name.
NAMESPACE_BUCKET = {"bench": "harness"}
NAMESPACE = re.compile(r"\b(nwsbench|nws)::(?:([a-z_][a-z0-9_]*)::)?")
# Operator names whose brackets are not template or parameter brackets.
OPERATOR = re.compile(r"operator\s*(<=>|<<=?|>>=?|<=|>=|->\*?|<|>|\(\)|\[\])")
LIBC_MEM = re.compile(r"^_*(mem(move|cpy|set|cmp)|bcmp|wmemset)(_|$|@)")
LIBC_ALLOC = re.compile(
    r"^(_*libc_(malloc|free|calloc|realloc|memalign)|_*(malloc|free|calloc|realloc|cfree)"
    r"|_int_(malloc|free|realloc|memalign)|malloc_consolidate|unlink_chunk|tcache_\w+"
    r"|sysmalloc|systrim|operator (new|delete))\b")
# A flat-profile row: %time, cumulative s, self s, optional call columns, name.
ROW = re.compile(r"^\s*(\d+\.\d+)\s+(\d+\.\d+)\s+(\d+\.\d+)\s+(?:\d+\s+\d+\.\d+\s+\d+\.\d+\s+)?(\S.*)$")


def without_groups(text, brackets):
    """`text` with every bracketed group of the given bracket pairs removed."""
    opens, closes = brackets[0::2], brackets[1::2]
    out, depth = [], 0
    for ch in text:
        if ch in opens:
            depth += 1
        elif ch in closes and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def bucket(symbol):
    """The host.share bucket of one demangled symbol name."""
    if LIBC_MEM.search(symbol):
        return "libc.mem"
    if LIBC_ALLOC.search(symbol):
        return "libc.alloc"
    name = OPERATOR.sub("operator", symbol)
    # Own qualified name first, then template arguments.
    for text in (without_groups(name, "<>()"), without_groups(name, "()")):
        found = NAMESPACE.findall(text)
        if found:
            top, namespace = found[-1]
            if top == "nwsbench":
                return "harness"
            return NAMESPACE_BUCKET.get(namespace, namespace) if namespace else "common"
    return "other"


def parse_flat(text):
    """[(self seconds, symbol)] of a `gprof -b -p` flat profile."""
    rows = []
    for line in text.splitlines():
        match = ROW.match(line)
        if match:
            rows.append((float(match.group(3)), match.group(4).strip()))
    return rows


def fold(rows):
    """(total self seconds, {bucket: share}) over the profile's rows."""
    total = sum(seconds for seconds, _ in rows)
    if total <= 0:
        raise ValueError("the flat profile holds no samples")
    shares = {}
    for seconds, symbol in rows:
        key = bucket(symbol)
        shares[key] = shares.get(key, 0.0) + seconds / total
    return total, shares


def report(title, text):
    """Prints the shares and top symbols of one flat profile."""
    rows = parse_flat(text)
    total, shares = fold(rows)
    print(f"== {title}: {total:.2f} s sampled self time")
    for key, share in sorted(shares.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"host.share.{key:<12} {share:7.4f}")
    print(f"-- top {TOP_SYMBOLS} symbols (share, bucket, symbol)")
    for seconds, symbol in sorted(rows, key=lambda r: -r[0])[:TOP_SYMBOLS]:
        print(f"{seconds / total:7.4f}  {bucket(symbol):<10}  {symbol[:110]}")


def build():
    """Configures (once) and builds the static -pg nwsbench."""
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release", "-DCMAKE_CXX_FLAGS=-pg",
                     "-DCMAKE_EXE_LINKER_FLAGS=-pg -static"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "nwsbench", "--parallel", jobs])
    for cmd in steps:
        subprocess.run(cmd, stdout=sys.stderr, check=True)


def profile(workload, seconds, seed):
    """The flat profile of one nwsbench run of `workload`."""
    with tempfile.TemporaryDirectory(prefix="hostprof-") as scratch:
        subprocess.run([BINARY, "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"],
                       cwd=scratch, stdout=subprocess.DEVNULL, check=True)
        done = subprocess.run(["gprof", "-b", "-p", BINARY, os.path.join(scratch, "gmon.out")],
                              capture_output=True, text=True, check=True)
        return done.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*",
                        help="nwsbench workloads (default: every one in BENCHMARK.json)")
    parser.add_argument("--fold", metavar="FILE", help="fold this flat profile; run nothing")
    parser.add_argument("--seconds", type=int, default=3, help="nwsbench run length")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    if args.fold:
        with open(args.fold) as f:
            report(args.fold, f.read())
        return 0
    workloads = args.workloads
    if not workloads:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    build()
    for workload in workloads:
        report(workload, profile(workload, args.seconds, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
