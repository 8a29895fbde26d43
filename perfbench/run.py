"""Runs one workload of the MISCELA-V request-path benchmark.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the benchmark if its sources changed
(see build.py), then runs it in one JVM with Spark master local[nproc].
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. Everything the run writes
stays under .bench_build/ and is removed when it ends, except the span
file of a traced run.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

DRIVER_MEMORY = "3g"
# G1's own young-generation size on this workload, fixed so that the heap
# the JVM touches, and so peak_rss_mb, does not depend on how far G1's
# adaptive sizing got in a run.
YOUNG_GEN = "1800m"
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()

    try:
        stamp = build.build()
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")

    work = os.path.abspath(os.path.join(build.OUT_DIR, f"run-{os.getpid()}"))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    cores = len(os.sched_getaffinity(0))
    cmd = build.java_command("repro.perfbench.Bench", [
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace), "--work", work, "--inputs", os.path.abspath(build.INPUTS),
        "--trace-dir", os.path.abspath(os.path.join(build.OUT_DIR, "traces", stamp[:16])),
        "--cores", str(cores), "--driver-memory", DRIVER_MEMORY,
    ], DRIVER_MEMORY, os.path.join(work, "tmp"), YOUNG_GEN)

    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        shutil.rmtree(work, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        shutil.rmtree(work, ignore_errors=True)
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    shutil.rmtree(work, ignore_errors=True)

    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(out)
        sys.exit(f"perfbench: benchmark JVM exited with {child.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
