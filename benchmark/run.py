#!/usr/bin/env python3
"""Build nwsbench from source and run its workloads.

    python3 benchmark/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--trace-dir DIR] [--out FILE]

Run it from the repository root; the build tree is .bench_build/ there.

With --workload, the workload runs in a child nwsbench process, and the last
line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}.  The metrics are the end-to-end ones with --trace 0 and the
per-layer ones with --trace 1; BENCHMARK.json declares both sets.  Peak RSS
is the child's, read from wait4.

Without --workload, every workload of BENCHMARK.json runs in turn with the
traced repetition, and every metric is printed by name with its unit.

--out FILE writes the full records plus a stamp (git commit, compiler and
flags, nproc, workers, seed, repetitions, per-repetition host timings), the
input of benchmark/compare.py.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "nwsbench")
CHILD_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds nwsbench; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    generated = any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile"))
    if not generated:
        configure = ["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "nwsbench", "--parallel", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
        except OSError as e:
            log(f"run.py: {e}")
            return False
        if done.returncode != 0:
            log(f"run.py: build step failed: {' '.join(cmd)}")
            return False
    return True


def run_child(workload, seed, seconds, trace, trace_dir):
    """Runs one workload in its own process; returns (record, peak RSS MiB)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    watchdog.start()
    try:
        out = child.stdout.read().decode()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        watchdog.cancel()
        child.stdout.close()
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise RuntimeError(f"nwsbench --workload {workload} exited with {child.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"nwsbench --workload {workload} printed no record")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec


def full_record(workload, args):
    record, rss = run_child(workload, args.seed, args.seconds, args.trace, args.trace_dir)
    # With tracing the traced repetition can raise the process peak, so the
    # figure then comes from nwsbench's own reading before it.
    peak = rss if args.trace == 0 else record["host"]["timed_peak_rss_mib"]
    record["end_to_end"]["peak_rss_mib"] = {"value": peak, "unit": "MiB"}
    return record


def check_declared(record, spec, trace):
    """Every declared metric of the printed set is present with its unit."""
    want = spec["per_layer"] if trace else spec["end_to_end"]
    have = record["per_layer" if trace else "end_to_end"]
    for m in want:
        got = have.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise RuntimeError(f"metric {m['name']} missing or not in {m['unit']}")
    return {m["name"]: have[m["name"]] for m in want}


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def write_results(path, records, args):
    first = next(iter(records.values()))
    stamp = dict(first["stamp"])
    stamp.update({"commit": git_commit(), "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace})
    with open(path, "w") as f:
        json.dump({"stamp": stamp, "workloads": records}, f, indent=1)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measurement length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--trace-dir", default="")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    spec = declared_metrics()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload and args.workload not in names:
        log(f"run.py: unknown workload {args.workload}; choose from {', '.join(names)}")
        return 2
    if args.trace is None:
        args.trace = 0 if args.workload else 1
    if not build():
        return 1

    try:
        records = {}
        for name in [args.workload] if args.workload else names:
            log(f"run.py: {name} ...")
            records[name] = full_record(name, args)
            check_declared(records[name], spec, 0)
            if args.trace:
                check_declared(records[name], spec, 1)
    except (OSError, RuntimeError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        return 1

    if args.out:
        write_results(args.out, records, args)
    if args.workload:
        r = records[args.workload]
        print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                          "failed": r["failed"],
                          "metrics": check_declared(r, spec, args.trace)}))
        return 0

    for name, r in records.items():
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']} "
              f"reps={r['reps']} samples={r['samples']}")
        for section in ("end_to_end", "per_layer"):
            for metric, m in r.get(section, {}).items():
                print(f"  {metric:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": all(r["correct"] for r in records.values()),
                      "attempted": sum(r["attempted"] for r in records.values()),
                      "failed": sum(r["failed"] for r in records.values()),
                      "metrics": {f"{n}.{k}": v for n, r in records.items()
                                  for k, v in r["end_to_end"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
