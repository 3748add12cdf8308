#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-figures --seed 1 \
        --seconds 20 --trace 0

It builds the bsisa library and the measuring binary from source into
.bench_build/perfbench (CMake, RelWithDebInfo), runs one measurement
in a temporary directory it owns under .bench_tmp/ and removes
afterwards, and relays the binary's report: human-readable lines, then
one JSON result object as the last line of stdout.  Trace and summary
files go to .bench_out/.

BSISA_JOBS is pinned explicitly: the caller's value when set (the
binary refuses one above the CPU count), otherwise min(4, CPUs).
Every other BSISA_* variable is cleared so a stray knob cannot change
what is measured.

Any failure to measure (no sources, build error, unwritable
directory, a crash, a timeout) exits non-zero without printing a
result; failed outputs are reported in the result instead.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

WORKLOADS = ("paper-figures", "design-sweep", "ooo-fig3")
BENCH_DIR = "perfbench"
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_ROOT = ".bench_tmp"
OUT_DIR = ".bench_out"
BINARY_TIMEOUT_S = 170


def infra_error(message):
    print(f"perfbench: infrastructure error: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if shutil.which("cmake") is None:
        infra_error("cmake is not installed")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(len(os.sched_getaffinity(0)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            infra_error("build failed: " + " ".join(cmd))
    binary = os.path.join(BUILD_DIR, "bsisa_perfbench")
    if not os.access(binary, os.X_OK):
        infra_error(f"{binary} was not built")
    return binary


def revision():
    """The git revision when this directory is a git checkout, else a
    digest of the sources the benchmark builds."""
    if os.path.exists(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run_binary(cmd, env):
    """Run the binary in its own process group; kill the whole group
    (the binary's pass processes included) if it overruns or this
    script is stopped."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        stdout, _ = proc.communicate(timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        infra_error(f"measurement exceeded {BINARY_TIMEOUT_S} s")
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    return proc.returncode, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden-dir", default=None,
                        help="golden outputs to check against "
                             "(default perfbench/golden/<workload>)")
    args = parser.parse_args()

    for path in ("src/CMakeLists.txt", os.path.join(BENCH_DIR,
                                                    "CMakeLists.txt")):
        if not os.path.isfile(path):
            infra_error(f"{path} not found; run from the root of a "
                        "bsisa checkout")

    binary = build()
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("BSISA_")}
    env["BSISA_JOBS"] = os.environ.get(
        "BSISA_JOBS", str(min(4, len(os.sched_getaffinity(0)))))

    try:
        os.makedirs(WORK_ROOT, exist_ok=True)
        os.makedirs(OUT_DIR, exist_ok=True)
        work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    except OSError as e:
        infra_error(f"cannot create a working directory: {e}")
    try:
        cmd = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work,
               "--bench-dir", BENCH_DIR, "--out-dir", OUT_DIR,
               "--revision", revision()]
        if args.golden_dir:
            cmd += ["--golden-dir", args.golden_dir]
        code, stdout = run_binary(cmd, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    if code != 0:
        sys.stderr.write(stdout)
        infra_error(f"the measuring binary exited with status {code}")
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(stdout)
        infra_error("the measuring binary printed no result")
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
