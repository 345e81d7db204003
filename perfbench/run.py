#!/usr/bin/env python3
"""Host-time benchmark of the GTPN models and the simulator.

Builds perfbench/perfdriver against the repository's libraries, then
measures one workload and prints, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload model_local --seed 1 \\
        --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
and writes spans and a metrics dump under <build dir>/out.
--write-reference regenerates perfbench/reference.txt from the current
code.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("model_local", "model_nonlocal", "des_network")
REFERENCE = os.path.join(HERE, "reference.txt")
# Set-up is timed this many extra times per run; the median is reported.
SETUP_SAMPLES = 14


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configure and build the driver; return its path or None."""
    out = build_dir()
    cmd = ["cmake", "-S", HERE, "-B", out]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "--target", "perfdriver",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "perfdriver")


def run_driver(cmd):
    """Run @cmd to the end; return (exit code, set-up seconds, lines).

    Set-up is the time from starting the process until it prints
    'ready', just before its first timed call.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        setup = None
        for line in proc.stdout:
            if line.strip() == "ready":
                setup = time.perf_counter() - t0
                break
        lines = proc.stdout.read().splitlines()
        return proc.wait(), setup, lines
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def run(args):
    driver = build()
    if driver is None:
        log("perfbench: build failed")
        return 1
    base = [driver, "--workload", args.workload, "--seed", str(args.seed)]

    setups = []
    for _ in range(SETUP_SAMPLES):
        code, setup, _ = run_driver(base + ["--setup-only"])
        if code != 0 or setup is None:
            log("perfbench: set-up run failed")
            return 1
        setups.append(setup)

    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    code, setup, lines = run_driver(base + [
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--reference", REFERENCE, "--out", out_dir])
    if code != 0 or setup is None or not lines:
        log("perfbench: driver failed")
        return 1
    setups.append(setup)
    res = json.loads(lines[-1])

    metrics = res["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   **metrics}
    for line in lines[:-1]:
        print(line)
    info = res["info"]
    for name, m in metrics.items():
        n = info["samples"].get(name)
        print(f"{name:28s} {m['value']:.6g} {m['unit']}"
              + (f" (n={n})" if n else "")
              + (f" (n={len(setups)})" if name == "setup_s" else ""))
    if not args.trace:
        for name, value in info["extra"].items():
            print(f"{name:28s} {value:.6g}")
    print(json.dumps({
        "correct": res["failed"] == 0 and res["crosscheck"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def write_reference():
    driver = build()
    if driver is None:
        log("perfbench: build failed")
        return 1
    lines = ["# perfbench reference: every job a workload can draw.",
             "# Analytic: round trips per us; DES: FNV-1a 64 of",
             "# outcomeJson + \"\\n\" + topoJson.  Regenerate with",
             "#   python3 perfbench/run.py --write-reference"]
    for w in WORKLOADS:
        proc = subprocess.run([driver, "--write-reference", w],
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            log(f"perfbench: reference run of {w} failed")
            return 1
        lines += proc.stdout.splitlines()
    with open(REFERENCE, "w") as f:
        f.write("\n".join(lines) + "\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args()
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
