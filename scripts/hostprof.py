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

gprof drops every function symbol with a dot in its name, except the
`.N`, `.clone.N` and `.constprop.N` suffixes, and charges its samples to
the kept symbol before it.  GCC names coroutine bodies `.actor` and
`.destroy`, and split or specialised functions `.cold`, `.part.N` and
`.isra.N`, so their time would land on an unrelated function (a pgen
serving run charged `nws::ior::run_ior` with the I/O server's coroutine
body).  hostprof therefore profiles against a copy of the binary,
build-hostprof/nwsbench.gprof, in which each such name is renamed once to
a kept `<prefix>.N` name (`objcopy --redefine-syms`).  Rows of the
renamed symbols are mapped back to their original names before
demangling (`c++filt`) and bucketing.

The static binary's .plt holds no symbol either: it is the stubs of its
IFUNC slots (R_X86_64_IRELATIVE relocations), and gprof would charge their
samples to `_init`, the symbol before it.  When the binary has a .plt,
the copy gets one function symbol at its start (`objcopy --add-symbol`),
IFUNC_STUBS, which folds into libc.ifunc.

The flat profile's self time is folded into host.share.<bucket> shares that
sum to 1:

  sim, net, daos, fdb, dfs, pgen, obs, fault, ioserver, ...
                the nws::<namespace> of the symbol (every nws:: namespace
                gets its own bucket);
  harness       nws::bench, and nwsbench's own nwsbench:: namespace;
  common        nws:: itself (md5, rng, status, cli, ...);
  libc.mem      memmove, memcpy, memset, memcmp and their variants;
  libc.ifunc    the IFUNC stubs in .plt, through which calls reach glibc's
                string, memory and math routines (memmove, memcpy, memset,
                strlen, ceil, cos, exp, log, log2, ...);
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
# The copy gprof reads symbols from: BINARY with every dotted name that gprof
# would drop renamed (rename_table).
RENAMED = BINARY + ".gprof"
# The function symbol RENAMED gets at the start of .plt (see the docstring).
# gprof keeps it: the name has no dot.
IFUNC_STUBS = "hostprof_ifunc_stubs"
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
# The dotted suffixes gprof keeps (binutils gprof/corefile.c, core_sym_class):
# runs of `.N`, `.clone.N` and `.constprop.N`.
KEPT_SUFFIX = re.compile(r"(?:\.(?:clone\.|constprop\.)?\d+)*")
# Text symbols in `nm` output: address, type, name.
TEXT_SYMBOL = re.compile(r"^[0-9a-fA-F]+ [tTwWi] (\S+)$")


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
    if symbol == IFUNC_STUBS:
        return "libc.ifunc"
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


def rename_table(names):
    """{name: kept name} for every symbol name gprof would drop.

    A name gprof drops has a dot that does not start a kept suffix.  It is
    renamed to the part before its first dot plus `.N`, with N unique over
    the table and the new name unused in `names`.  Each distinct name is
    listed once (objcopy aborts on a repeated entry).
    """
    names = set(names)
    table = {}
    serial = 0
    for name in sorted(names):
        dot = name.find(".")
        if dot <= 0 or KEPT_SUFFIX.fullmatch(name, dot):
            continue
        while True:
            serial += 1
            new = f"{name[:dot]}.{serial}"
            if new not in names:
                break
        table[name] = new
    return table


def demangle(names):
    """`names` demangled as gprof shows them (`c++filt --no-verbose`)."""
    if not names:
        return []
    done = subprocess.run(["c++filt", "--no-verbose"], input="\n".join(names) + "\n",
                          capture_output=True, text=True, check=True)
    out = done.stdout.splitlines()
    if len(out) != len(names):
        raise RuntimeError("c++filt returned a different number of names")
    return out


def restore_names(rows, table):
    """Rows of an undemangled flat profile of the renamed binary, with each
    renamed symbol mapped back to its original name, then demangled."""
    original = {new: old for old, new in table.items()}
    names = demangle([original.get(symbol, symbol) for _, symbol in rows])
    return [(seconds, name) for (seconds, _), name in zip(rows, names)]


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


def report(title, rows):
    """Prints the shares and top symbols of one flat profile's rows."""
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


def has_section(binary, name):
    """Whether `binary` has a section called `name`."""
    done = subprocess.run(["objdump", "-h", binary], capture_output=True, text=True, check=True)
    return any(line.split()[1:2] == [name] for line in done.stdout.splitlines())


def write_renamed():
    """Writes RENAMED (see the module docstring); returns its rename table."""
    nm = subprocess.run(["nm", "--defined-only", BINARY], capture_output=True, text=True,
                        check=True)
    names = [m.group(1) for m in map(TEXT_SYMBOL.match, nm.stdout.splitlines()) if m]
    table = rename_table(names)
    with tempfile.NamedTemporaryFile("w", prefix="hostprof-", suffix=".syms") as syms:
        syms.writelines(f"{old} {new}\n" for old, new in sorted(table.items()))
        syms.flush()
        objcopy = ["objcopy", f"--redefine-syms={syms.name}"]
        if has_section(BINARY, ".plt"):
            objcopy.append(f"--add-symbol={IFUNC_STUBS}=.plt:0,function")
        subprocess.run(objcopy + [BINARY, RENAMED], check=True)
    return table


def profile(workload, seconds, seed, table):
    """The rows of the flat profile of one nwsbench run of `workload`."""
    with tempfile.TemporaryDirectory(prefix="hostprof-") as scratch:
        subprocess.run([BINARY, "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"],
                       cwd=scratch, stdout=subprocess.DEVNULL, check=True)
        done = subprocess.run(["gprof", "-b", "-p", "--no-demangle", RENAMED,
                               os.path.join(scratch, "gmon.out")],
                              capture_output=True, text=True, check=True)
        return restore_names(parse_flat(done.stdout), table)


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
            report(args.fold, parse_flat(f.read()))
        return 0
    workloads = args.workloads
    if not workloads:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    build()
    table = write_renamed()
    for workload in workloads:
        report(workload, profile(workload, args.seconds, args.seed, table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
