#!/usr/bin/env python3
"""The benchmark's own test.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It proves that the benchmark cannot report a wrong or missing
measurement as a pass:

1. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero and prints no result.
2. With BSISA_JOBS above the CPU count it refuses to measure.
3. A corrupted golden of every kind is reported as failed operations
   (correct: false), in the mode that checks it.
4. Intact goldens pass, and each mode emits exactly the metric names
   BENCHMARK.json declares, with the units it declares.

Each measurement runs for one second (one pass), so the whole test
takes a few minutes; the first call builds the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

RUN = [sys.executable, "perfbench/run.py"]
SCRATCH = ".bench_tmp"


def run(args, cwd=".", env=None):
    proc = subprocess.run(RUN + args, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return proc.returncode, result, proc.stderr


def measure(workload, trace, golden_dir=None):
    args = ["--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace)]
    if golden_dir:
        args += ["--golden-dir", golden_dir]
    return run(args)


def corrupt(path):
    """Change one character in the middle of a golden file."""
    with open(path, "rb") as f:
        data = bytearray(f.read())
    i = len(data) // 2
    data[i] = ord("7") if data[i] != ord("7") else ord("3")
    with open(path, "wb") as f:
        f.write(bytes(data))


failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    os.makedirs(SCRATCH, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=SCRATCH)
    try:
        # 1. Nothing to build: loud failure, no result.
        bare = os.path.join(tmp, "bare")
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
        code, result, _ = run(["--workload", "paper-figures", "--seed",
                               "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare)
        check(code != 0 and result is None,
              "bare directory exits non-zero without a result")

        # 2. Oversubscribed BSISA_JOBS: refused, no result.
        env = dict(os.environ)
        env["BSISA_JOBS"] = str(len(os.sched_getaffinity(0)) + 1)
        code, result, _ = run(["--workload", "ooo-fig3", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              env=env)
        check(code != 0 and result is None,
              "BSISA_JOBS above the CPU count is refused")

        # 3. Every kind of golden, corrupted, fails the operations
        #    that check it.
        cases = [
            ("paper-figures", "fig3.txt", 0),
            ("paper-figures", "fig6.values", 0),
            ("paper-figures", "table2.values", 1),
            ("paper-figures", "retired_ops", 1),
            ("ooo-fig3", "fig3.values", 0),
            ("design-sweep", "units.txt", 0),
            ("design-sweep", "snapshot.digest", 0),
            ("design-sweep", "retired_ops", 0),
        ]
        for workload, name, trace in cases:
            golden = os.path.join(tmp, "golden-" + workload + "-" + name)
            shutil.copytree(os.path.join("perfbench", "golden", workload),
                            golden)
            corrupt(os.path.join(golden, name))
            code, result, _ = measure(workload, trace, golden)
            check(code == 0 and result is not None
                  and result["correct"] is False and result["failed"] > 0,
                  f"corrupted {workload}/{name} (trace {trace}) is "
                  "reported as failed")

        # 4. Intact goldens pass and the metric names match.
        declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                    1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
        for workload in [w["name"] for w in bench["workloads"]]:
            for trace in (0, 1):
                code, result, _ = measure(workload, trace)
                check(code == 0 and result is not None
                      and result["correct"] is True
                      and result["failed"] == 0
                      and result["attempted"] > 0,
                      f"{workload} (trace {trace}) passes")
                emitted = ({k: v["unit"]
                            for k, v in result["metrics"].items()}
                           if result else {})
                check(emitted == declared[trace],
                      f"{workload} (trace {trace}) emits the declared "
                      "metrics")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
