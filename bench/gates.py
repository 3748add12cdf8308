#!/usr/bin/env python3
"""CI's speed and golden gates, checked against one table.

Run from anywhere, after `cmake -B build -S . && cmake --build build`:

    python3 bench/gates.py GROUP...

Each GROUP (throughput, rss, sweep, goldens) is measured once, then
every row of GATES in it is checked.  A row divides the value it reads
by the one it reads `over` (when it names one) and compares the result
with its bound.  A row fails when a number it reads is missing, is
zero (unless the bound itself is 0), or comes from a run that reported
an error.  The script prints every row, writes the readings and
verdicts to build/gates.json, and exits 1 naming each failed row.
"""

import json
import operator
import os
import shutil
import subprocess
import sys
import time

# A reading is "source:field".  Throughput sources are google-benchmark
# cases, each read as its best repetition (highest items_per_second,
# lowest times in seconds and counters).
GATES = [
    # row, group, value, over (or None), test, bound
    ("replay >= seed", "throughput",
     "BM_PairSweep_CaptureReplayParallel:items_per_second",
     "BM_PairSweep_SeedPath:items_per_second", ">=", 1.0),
    ("warm store >= replay", "throughput",
     "BM_PairSweep_WarmStoreReplayParallel:items_per_second",
     "BM_PairSweep_CaptureReplayParallel:items_per_second", ">=", 1.0),
    ("warm load / cold capture", "throughput",
     "BM_TraceStore_WarmLoad:real_time",
     "BM_TraceStore_ColdCapture:real_time", "<", 0.10),
    ("Grid16 conv lockstep / independent", "throughput",
     "BM_Grid16Conv_Lockstep:items_per_second",
     "BM_Grid16Conv_IndependentReplay:items_per_second", ">=", 1.5),
    ("Grid16 BSA lockstep / independent", "throughput",
     "BM_Grid16Bsa_Lockstep:items_per_second",
     "BM_Grid16Bsa_IndependentReplay:items_per_second", ">=", 1.5),
    ("Grid16 conv lanes", "throughput",
     "BM_Grid16Conv_Lockstep:lanes", None, ">=", 16),
    ("Grid16 BSA lanes", "throughput",
     "BM_Grid16Bsa_Lockstep:lanes", None, ">=", 16),
    ("dispatch / direct", "throughput",
     "BM_Seam_AbstractDispatch:items_per_second",
     "BM_Seam_AbstractDirect:items_per_second", ">=", 0.95),
    ("OoO ops/s", "throughput",
     "BM_Seam_OooDispatch:items_per_second", None, ">", 0),
    ("sweep 4-job / 1-job speedup", "sweep",
     "sweep:cold_1job_s", "sweep:cold_4job_s", ">=", 2.5),
    ("sweep warm / cold", "sweep",
     "sweep:warm_s", "sweep:cold_4job_s", "<=", 0.10),
    ("fig3 /10 abstract peak MiB", "rss",
     "fig3-abstract:peak_mib", None, "<=", 330),
    ("fig3 /10 ooo peak MiB", "rss",
     "fig3-ooo:peak_mib", None, "<=", 330),
    ("paper-figures attempted", "goldens",
     "paper-figures:attempted", None, ">", 0),
    ("paper-figures failed", "goldens",
     "paper-figures:failed", None, "==", 0),
    ("design-sweep attempted", "goldens",
     "design-sweep:attempted", None, ">", 0),
    ("design-sweep failed", "goldens",
     "design-sweep:failed", None, "==", 0),
    ("ooo-fig3 attempted", "goldens",
     "ooo-fig3:attempted", None, ">", 0),
    ("ooo-fig3 failed", "goldens",
     "ooo-fig3:failed", None, "==", 0),
]

TESTS = {">=": operator.ge, ">": operator.gt, "<": operator.lt,
         "<=": operator.le, "==": operator.eq}
WORK = os.path.join("build", "gates")
RECORD = os.path.join("build", "gates.json")
FIG3 = os.path.join("build", "bench", "bench_fig3_performance")
SECONDS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
BOOKKEEPING = {"family_index", "per_family_instance_index", "repetitions",
               "repetition_index", "threads", "iterations"}


class GroupFailed(Exception):
    """A measurement that produced no readings at all."""


def run(cmd, **kwargs):
    code = subprocess.run(cmd, **kwargs).returncode
    if code != 0:
        raise GroupFailed(f"{' '.join(cmd)} exited {code}")


def throughput():
    """One bench_sim_throughput run: best of five interleaved
    repetitions of every case, from google-benchmark's own JSON."""
    out = os.path.join(WORK, "bench_sim_throughput.json")
    if os.path.exists(out):
        os.remove(out)
    run([os.path.join("build", "bench", "bench_sim_throughput"),
         "--benchmark_repetitions=5",
         "--benchmark_enable_random_interleaving=true",
         f"--benchmark_out={out}", "--benchmark_out_format=json"])
    with open(out) as f:
        entries = json.load(f)["benchmarks"]
    readings = {}
    for entry in entries:
        if entry.get("run_type") != "iteration":
            continue
        source = entry["run_name"].split("/")[0]
        if entry.get("error_occurred"):
            readings[source] = f"error: {entry.get('error_message')}"
        if isinstance(readings.get(source), str):
            continue
        best = readings.setdefault(source, {})
        for field, value in entry.items():
            if field in BOOKKEEPING or isinstance(value, bool) or \
                    not isinstance(value, (int, float)):
                continue
            if field in ("real_time", "cpu_time"):
                value *= SECONDS[entry["time_unit"]]
            keep = max if field == "items_per_second" else min
            best[field] = keep(best.get(field, value), value)
    return readings


def rss():
    """Peak RSS (wait4) of a warm tenth-scale Fig. 3 on both models."""
    env = dict(os.environ, BSISA_SCALE="10",
               BSISA_TRACE_DIR=os.path.join(WORK, "trace-store-10"))
    run([FIG3], env=env, stdout=subprocess.DEVNULL)  # warm the store
    readings = {}
    for model in ("abstract", "ooo"):
        child = subprocess.Popen(
            [FIG3], stdout=subprocess.DEVNULL,
            env=dict(env, BSISA_EXPECT_WARM="1", BSISA_JOBS="4",
                     BSISA_TIMING_MODEL=model))
        _, status, usage = os.wait4(child.pid, 0)
        code = os.waitstatus_to_exitcode(status)
        readings[f"fig3-{model}"] = (
            {"peak_mib": usage.ru_maxrss / 1024} if code == 0
            else f"bench_fig3_performance exited {code}")
    return readings


def sweep():
    """Best-of-3 cold sweeps of the 64-unit CI grid at one job and at
    four, then a warm resweep under BSISA_EXPECT_WARM.  Traces come
    from BSISA_TRACE_DIR when set, else a store under build/gates."""
    env = dict(os.environ)
    env.setdefault("BSISA_TRACE_DIR", os.path.join(WORK, "trace-store"))

    def timed(store, jobs, fresh=True, **extra):
        if fresh:
            shutil.rmtree(store, ignore_errors=True)
        start = time.monotonic()
        run([os.path.join("build", "tools", "bsisa-sweep"), "run",
             os.path.join("specs", "ci-grid64.yml"), "--store", store],
            env=dict(env, BSISA_JOBS=str(jobs), **extra),
            stderr=subprocess.DEVNULL)
        return time.monotonic() - start

    one, four = (os.path.join(WORK, f"sweep-store-{j}j") for j in (1, 4))
    return {"sweep": {
        "cold_1job_s": min(timed(one, 1) for _ in range(3)),
        "cold_4job_s": min(timed(four, 4) for _ in range(3)),
        "warm_s": min(timed(four, 4, fresh=False, BSISA_EXPECT_WARM="1")
                      for _ in range(3)),
    }}


def goldens():
    """perfbench's golden checks: one short run per workload, read
    from its result line."""
    readings = {}
    for workload in ("paper-figures", "design-sweep", "ooo-fig3"):
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", workload, "--seed", "1", "--seconds", "1",
             "--trace", "0"], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
            metrics = result["metrics"]
            readings[workload] = {
                "attempted": result["attempted"],
                "failed": result["failed"],
                "peak_rss_mb": metrics["peak_rss_mb"]["value"],
                "wall_s": metrics["wall_s"]["value"]}
            print(f"{workload}: {readings[workload]}")
        except (IndexError, ValueError, KeyError, TypeError):
            readings[workload] = (f"perfbench exited {proc.returncode} "
                                  f"without a result line")
    return readings


MEASURES = {"throughput": throughput, "rss": rss, "sweep": sweep,
            "goldens": goldens}


def read(readings, ref, bound):
    """The number `ref` names, or a str saying why it is unusable."""
    source, field = ref.split(":")
    got = readings.get(source)
    if isinstance(got, str):
        return f"{source}: {got}"
    if got is None or field not in got:
        return f"{ref} is missing"
    if got[field] == 0 and bound != 0:
        return f"{ref} is zero"
    return got[field]


def check(row, readings):
    name, _, ref, over, test, bound = row
    value = read(readings, ref, bound)
    if over is not None and not isinstance(value, str):
        base = read(readings, over, None)
        value = base if isinstance(base, str) else value / base
    if isinstance(value, str):
        return None, value
    return value, "" if TESTS[test](value, bound) else "out of bound"


def main(groups):
    if not groups or any(g not in MEASURES for g in groups):
        sys.exit(f"usage: gates.py {{{','.join(MEASURES)}}}...")
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    os.makedirs(WORK, exist_ok=True)
    readings, failures = {}, {}
    for group in groups:
        try:
            readings[group] = MEASURES[group]()
        except (GroupFailed, OSError, ValueError, KeyError) as e:
            readings[group] = {}
            failures[group] = f"{group}: {e}"

    rows, failed = [], []
    for row in GATES:
        name, group, _, _, test, bound = row
        if group not in groups:
            continue
        value, why = check(row, readings[group])
        why = failures.get(group, why)
        rows.append({"row": name, "group": group, "value": value,
                     "test": test, "bound": bound, "passed": not why,
                     "why": why})
        shown = "-" if value is None else f"{value:.4g}"
        print(f"{'PASS' if not why else 'FAIL'}  {name}: {shown} "
              f"{test} {bound}" + (f"  ({why})" if why else ""))
        if why:
            failed.append(name)
    with open(RECORD, "w") as f:
        json.dump({"groups": groups, "readings": readings, "rows": rows},
                  f, indent=1)
    if failed:
        sys.exit("gates: failed: " + "; ".join(failed))


if __name__ == "__main__":
    main(sys.argv[1:])
