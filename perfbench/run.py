#!/usr/bin/env python3
"""HolDCSim benchmark: build the driver, run one workload, report.

    python3 perfbench/run.py --workload farm_20k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --record farm_20k,fabric_rpc --seeds 0-31

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/; later calls only
re-run the incremental build. The driver (perfbench/driver.cc) does the
simulation work; this script adds the reference-digest comparison and
provenance, prints every metric with its unit, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end_to_end metrics of BENCHMARK.json, --trace 1 the per_layer ones.

Exit codes: 0 with a result line (check "correct"); 1 without one, when
the build fails, the driver crashes or a metric is missing.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "holdcsim_perfbench")
LAYERS = os.path.join(BENCH_DIR, "layers.txt")
REFERENCE = os.path.join(BENCH_DIR, "reference_digests.json")
DRIVER_TIMEOUT_S = 170
WARMUP_POLICY = (
    "one untimed warm-up repetition per process (its cold-heap setup_s "
    "reads about 2x later ones and is printed as warmup_setup_s); "
    "reported values are medians over the later repetitions"
)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally. Output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "holdcsim_perfbench",
           "--parallel", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def git_rev():
    """HEAD of the checkout, unless ROOT is not a git work tree's top."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except OSError:
        return "unavailable"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unavailable"
    return lines[1]


def source_digest():
    """SHA-1 over src/ (paths and contents): identifies the code measured
    when the checkout carries no git metadata."""
    h = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_names(trace):
    return [m["name"] for m in benchmark()["per_layer" if trace else
                                           "end_to_end"]]


def run_all(args):
    """Every workload, one process each, then a table of all metrics."""
    results = {}
    for w in benchmark()["workloads"]:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             w["name"], "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(out.stderr)
        print(out.stdout, end="")
        if out.returncode != 0:
            fail("workload %s failed" % w["name"])
        results[w["name"]] = json.loads(out.stdout.splitlines()[-1])
    print("%-28s %s" % ("metric", "  ".join("%16s" % w for w in results)))
    for name in metric_names(args.trace):
        print("%-28s %s" % (name, "  ".join(
            "%16.6g" % r["metrics"][name]["value"]
            for r in results.values())))
    print("%-28s %s" % ("correct", "  ".join(
        "%16s" % r["correct"] for r in results.values())))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s.%s" % (w, n): m for w, r in results.items()
                    for n, m in r["metrics"].items()},
    }))


def digest_match(workload, seed, digest):
    with open(REFERENCE) as f:
        ref = json.load(f).get(workload, {}).get(str(seed))
    if ref is None:
        return "unknown (no reference for this seed)"
    return "yes" if ref == digest else "no (reference %s)" % ref


def record(workloads, seeds):
    """Store the stats digest of each (workload, seed) as the reference."""
    with open(REFERENCE) as f:
        ref = json.load(f)
    lo, _, hi = seeds.partition("-")
    for workload in workloads.split(","):
        for seed in range(int(lo), int(hi or lo) + 1):
            out = subprocess.run(
                [DRIVER, "--workload", workload, "--seed", str(seed),
                 "--digest-only", "1", "--layers", LAYERS],
                capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S)
            fields = out.stdout.split()
            if out.returncode != 0 or fields[:1] != ["PERFBENCH_DIGEST"]:
                fail("%s seed %d: %s%s" % (workload, seed, out.stdout,
                                          out.stderr))
            ref.setdefault(workload, {})[str(seed)] = fields[1]
            print(workload, seed, fields[1], flush=True)
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="WORKLOADS",
                    help="write reference digests for these workloads "
                         "(comma-separated) and --seeds, then exit")
    ap.add_argument("--seeds", default="0-31", metavar="LO-HI")
    args = ap.parse_args()
    if args.record:
        build()
        record(args.record, args.seeds)
        return
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    if args.workload == "all":
        run_all(args)
        return

    names = metric_names(args.trace)
    build()
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--layers", LAYERS]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if result is None:
        fail("driver exited with %d and no result" % proc.returncode)
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail("driver reported no value for " + ", ".join(missing))

    provenance = {
        "host_cpus": os.cpu_count(),
        "git_rev": git_rev(),
        "src_sha1": source_digest(),
        "compiler": result["compiler"],
        "build_type": result["build_type"],
        "seed": args.seed,
        "seconds": args.seconds,
        "reps": result["reps"],
        "warmup_setup_s": result["warmup_setup_s"],
        "warmup_policy": WARMUP_POLICY,
    }
    print("%-32s %s" % ("digest_match",
                        digest_match(args.workload, args.seed,
                                     result["stats_digest"])))
    print("%-32s %s" % ("digest_stable", result["digest_stable"]))
    for key, value in provenance.items():
        print("%-32s %s" % (key, value))

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in names},
    }))


if __name__ == "__main__":
    main()
