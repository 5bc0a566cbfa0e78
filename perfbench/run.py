#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload fem_cg|graph_pagerank|serve_zipf \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library, the cvr_served daemon and
the benchmark driver from source (CMake, into $CARGO_TARGET_DIR or
.bench_build), runs one workload, checks the driver's output against
BENCHMARK.json and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones. Full records (provenance,
failures, error rate) and chrome traces land in .bench_out/.

Self-test switches: --tiny (small problem sizes), --corrupt-y (a kernel
decorator corrupts one y element; the run must then fail its check).
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".bench_out"
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def build(build_dir):
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    log_path = os.path.join(ROOT, OUT_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench_driver", "cvr_served"])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.SubprocessError) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                fail("build failed (%s):\n%s" % (" ".join(cmd), tail))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return spec, [(m["name"], m["unit"]) for m in section]


def validate(summary, expected, workloads, workload):
    """Returns a list of contract violations in the driver's result."""
    errors = []
    if workload not in workloads:
        errors.append("workload %r is not in BENCHMARK.json" % workload)
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys %s" % sorted(summary))
        return errors
    got = summary["metrics"]
    if [n for n, _ in expected] != list(got):
        errors.append("metric names differ from BENCHMARK.json: missing %s, "
                      "extra %s" % (sorted(set(n for n, _ in expected) -
                                           set(got)),
                                    sorted(set(got) -
                                           set(n for n, _ in expected))))
    for name, unit in expected:
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append("%s: unit %r, want %r" % (name, m.get("unit"), unit))
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or \
                not math.isfinite(v):
            errors.append("%s: value %r is not a finite number" % (name, v))
    if not isinstance(summary["attempted"], int) or summary["attempted"] < 1:
        errors.append("attempted must be a positive integer")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt-y", action="store_true")
    args = ap.parse_args()

    for needed in ("src/CMakeLists.txt", "tools/cvr_served.cpp",
                   "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s not found: run from a full checkout of the repository"
                 % needed, 2)
    spec, expected = expected_metrics(args.trace)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %r (have %s)" % (args.workload, workloads), 2)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(build_dir)

    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--out-dir=" + OUT_DIR, "--source-id=" + source_id(),
           "--daemon=" + os.path.join(build_dir, "cvr_served")]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_y:
        cmd.append("--corrupt-y")
    # Own process group: a timeout takes the daemon down with the driver.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timed_out = False
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
    # A driver that died or hung may leave its daemon behind.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except OSError:
        pass  # Nothing left in the group.
    if timed_out:
        proc.communicate()
        fail("driver timed out after %d s" % DRIVER_TIMEOUT_S)
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail("driver exited with code %d" % proc.returncode)
    try:
        summary = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver's last line is not JSON: %r" % lines[-1][:200])
    errors = validate(summary, expected, workloads, args.workload)
    if errors:
        fail("result violates BENCHMARK.json:\n  " + "\n  ".join(errors))

    for line in lines[:-1]:
        print(line)
    detail = os.path.join(ROOT, OUT_DIR, "%s-s%d-t%d.json" %
                          (args.workload, args.seed, args.trace))
    with open(detail) as f:
        record = json.load(f)
    print("perfbench: provenance " +
          json.dumps(record["provenance"], separators=(",", ":")))
    print("perfbench: error_rate %.6g (%d of %d operations failed)%s" %
          (record["error_rate"], summary["failed"], summary["attempted"],
           "; first failures: %s" % record["failures"][:3]
           if record["failures"] else ""))
    print(json.dumps(summary, separators=(",", ":")))
    sys.stdout.flush()
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
