"""Self-check of the benchmark, run from the root of a checkout:

    python3 bench/selfcheck.py

1. A tiny-size pass over all three workloads, untraced and traced, asserts
   that every metric named in BENCHMARK.json is printed with its unit and
   that no invocation failed.
2. A deliberately altered output file is counted as a failed invocation.
3. In each traced run, the layer self times plus the import time account for
   the wall time of the traced process from before its import to the end of
   the CLI call: what is left (wrapping the functions) is at least zero and
   at most the tracing overhead plus ``UNCOVERED_ALLOWANCE_S``. Interpreter
   start and exit lie outside that interval; both runs pay them.

Exits 0 when every check holds.
"""

import contextlib
import dataclasses
import io
import json
import math
import sys

import run as bench

# The overhead is a difference of two noisy medians and can read below the
# true cost of wrapping, which takes a few milliseconds.
UNCOVERED_ALLOWANCE_S = 0.05

TINY = {
    "fading-blocks": (("ergodic", "--M", "3", "--J1", "2", "--J2", "4",
                       "--power_policy", "equal", "--blocks", "200", *bench.GRID), 600),
    "rank-census": (("verify-channel", "--M", "3", "--J1", "4", "--J2", "4"), math.comb(8, 3)),
    "constant-trials": (("gaussian", "--trials", "3", *bench.GRID), 9),
}


def tiny(name):
    argv, items = TINY[name]
    return dataclasses.replace(bench.WORKLOADS[name], name=f"{name}-tiny", argv=argv, items=items)


def printed_result(workload, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        bench.report(*bench.run(workload, seed=0, seconds=0, trace=trace))
    lines = buf.getvalue().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def check_printed(workload, trace, failures):
    detail, result = printed_result(workload, trace)
    with open(bench.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{workload.name}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        failures.append(f"{workload.name} trace={trace}: {result['failed']} failed")
    for m in spec:
        got = result["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            failures.append(f"{workload.name}: {m['name']} missing or unit {got}")
        elif not math.isfinite(got["value"]):
            failures.append(f"{workload.name}: {m['name']} = {got['value']}")
    if trace:
        c = detail["self_time_check"]
        uncovered = c["main_s"] - c["import_s"] - c["sum_self_s"]
        limit = max(result["metrics"]["trace.overhead_s"]["value"], 0.0) + UNCOVERED_ALLOWANCE_S
        if not 0.0 <= uncovered <= limit:
            failures.append(
                f"{workload.name}: wall time not covered by spans or import is "
                f"{uncovered:.3f} s, outside [0, {limit:.3f}] s"
            )
        print(f"{workload.name}: uncovered {uncovered:.4f} s of {c['main_s']:.3f} s")


def check_altered_output(failures):
    import compound_bcc.cli as cli

    workload = tiny("constant-trials")
    runner = bench.Runner()
    check = bench.OutputCheck()
    ok, *_ = runner.cli_process(workload, 0, check)
    out = runner.fresh_dir()
    code = cli.main(workload.cli_args(0, out))
    summary = out / "summary.json"
    summary.write_bytes(summary.read_bytes() + b" ")
    altered_ok = check.record(code, out)
    bench.shutil.rmtree(out)
    if not ok or altered_ok or (check.attempted, check.failed) != (2, 1):
        failures.append(
            f"altered output: first ok={ok}, altered ok={altered_ok}, "
            f"{check.failed} of {check.attempted} counted as failed"
        )


def main():
    failures = []
    for name in bench.WORKLOADS:
        for trace in (0, 1):
            check_printed(tiny(name), trace, failures)
    check_altered_output(failures)
    for f in failures:
        print("FAIL", f)
    print("selfcheck:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
