#!/usr/bin/env python3
"""Tiny-scale self-check of the benchmark.

    python3 perfbench/selfcheck.py

Builds the benchmark like run.py, runs every workload at 2% of its data
size for one second, untraced and traced, and asserts that:
  * every metric BENCHMARK.json lists, and every end-to-end metric that
    applies to the workload, is emitted with its unit;
  * no answer is wrong (fail_share == 0);
  * the cube6d_mixed writer keeps its schedule.
Exits 0 when every assertion holds.
"""
import json
import os
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SCALE = 0.02
SECONDS = 1
SEED = 7

# End-to-end metrics by op kind, where the workload issues that kind.
TABLE_ONLY = {
    "tiger2d_read": ["read_ops_s", "find_p50_us", "find_p99_us",
                     "window_p50_us", "window_p99_us", "knn_p50_us",
                     "knn_p99_us"],
    "move3d_update": ["read_ops_s", "write_ops_s", "find_p50_us",
                      "find_p99_us", "write_p50_us", "write_p99_us"],
    "cube6d_mixed": ["read_ops_s", "write_ops_s", "window_p50_us",
                     "window_p99_us", "knn_p50_us", "knn_p99_us",
                     "write_p50_us", "write_p99_us", "gen.writer_late_p99_ms",
                     "gen.writer_done_share"],
}
UNITS = {"read_ops_s": "1/s", "write_ops_s": "1/s", "gen.writer_late_p99_ms":
         "ms", "gen.writer_done_share": "share"}


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    binary = run.build()
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            table, attempted, failed, _ = run.run_binary(
                binary, workload, SEED, SECONDS, trace, scale=SCALE)
            where = f"{workload} --trace {trace}"
            try:
                result = run.result_json(table, attempted, failed, trace)
            except RuntimeError as e:
                problems.append(f"{where}: {e}")
                continue
            if not result["correct"] or table["fail_share"][0] != 0:
                problems.append(f"{where}: {failed} of {attempted} answers "
                                "were wrong")
            if trace:
                continue
            for name in TABLE_ONLY[workload]:
                unit = UNITS.get(name, "us")
                if name not in table:
                    problems.append(f"{where}: {name} not emitted")
                elif table[name][1] != unit:
                    problems.append(f"{where}: {name} has unit "
                                    f"{table[name][1]}, expected {unit}")
                elif name.endswith(("_p50_us", "_p99_us")) and \
                        table[name][2] == 0:
                    problems.append(f"{where}: {name} has no sample count")
            if workload == "cube6d_mixed":
                done = table.get("gen.writer_done_share", (0,))[0]
                late = table.get("gen.writer_late_p99_ms", (1e9,))[0]
                if done < 0.99 or late > 5:
                    problems.append(f"{where}: writer missed its schedule "
                                    f"(done share {done}, p99 late {late} ms)")
    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
