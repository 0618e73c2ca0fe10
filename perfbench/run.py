#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. Every run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) under
$CARGO_TARGET_DIR, or .bench_build when that is unset; after the first run
this is an incremental no-op. Build output goes to standard error.
Standard output carries the benchmark's metric table and, as its last
line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end_to_end (--trace 0) or per_layer (--trace 1)
metrics listed in BENCHMARK.json. Exits non-zero without a result if the
build fails, the benchmark fails, or a listed metric is missing.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Configures and builds the benchmark; returns the binary path."""
    bdir = os.path.join(build_root(), "perfbench")
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home and os.path.realpath(home[0]) != os.path.realpath(HERE):
            shutil.rmtree(bdir)  # configured for another checkout
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs]]
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(build_root(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def run_binary(binary, workload, seed, seconds, trace, scale=1.0):
    """Runs one measurement; returns (table, attempted, failed, raw stdout),
    where table maps metric name -> (value, unit, samples)."""
    out_dir = os.path.join(build_root(), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scale", str(scale), "--out-dir", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark exited with {proc.returncode}")
    table, checks = {}, None
    for line in proc.stdout.splitlines():
        fields = line.split("\t")
        if fields[0] == "metric" and len(fields) == 5:
            table[fields[1]] = (float(fields[2]), fields[3], int(fields[4]))
        elif fields[0] == "checks" and len(fields) == 3:
            checks = (int(fields[1]), int(fields[2]))
    if checks is None:
        raise RuntimeError("benchmark printed no check tally")
    return table, checks[0], checks[1], proc.stdout


def gated_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def result_json(table, attempted, failed, trace):
    metrics = {}
    for m in gated_metrics(trace):
        if m["name"] not in table:
            raise RuntimeError(f"metric {m['name']} was not emitted")
        value, unit, _ = table[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"metric {m['name']} has unit {unit}, "
                               f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    try:
        binary = build()
        table, attempted, failed, raw = run_binary(
            binary, args.workload, args.seed, args.seconds, args.trace)
        result = result_json(table, attempted, failed, args.trace)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(str(e))
        return 1
    sys.stdout.write(raw)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
