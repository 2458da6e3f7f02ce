"""Benchmark of the compound-bcc command line, end to end and per layer.

Usage, from the root of a checkout (no install step; the package is imported
from ``src``):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One single-process closed loop: each CLI invocation starts only after the
previous one ended, and no extra threads are started. The seed becomes the
CLI's ``--seed``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (machine facts, sample counts, spreads, error_rate).

Workloads, chosen so that each hot layer has one workload that exercises it
and one that bypasses it:

* ``fading-blocks``: ``ergodic`` with 5,000 blocks on the 3-point grid. Time
  goes to ``ergodic.sample_block`` (one Philox generator per block, the block
  sequence repeated at each grid point); the rank check costs only
  4 x C(6, 3) subsets and ``gaussian`` is unused.
* ``rank-census``: ``verify-channel --M 4 --J1 12 --J2 12``. 24 stacked rows,
  exactly ``EXHAUSTIVE_ROW_LIMIT``, so all C(24, 4) = 10,626 subsets are
  checked, twice today. Time goes to ``channel.verify_rank_condition`` and
  ``linalg.numerical_rank``; ``ergodic`` and ``gaussian`` are unused.
* ``constant-trials``: ``gaussian`` with M=4, N=1, J=2, r=1 and 150 trials:
  thousands of tiny ``logdet2_hpd`` and ``null_space_basis`` calls and one
  single-subset rank check per trial, the opposite use of ``channel`` to
  ``rank-census``, so added per-call cost in the rank check shows here.

End-to-end metrics (``--trace 0``, tracing off):

* ``wall_s``: upper quartile of the wall times of ``python -m compound_bcc``
  processes, import included.
* ``setup_s``: upper quartile of the wall times of a fresh interpreter
  running ``import compound_bcc``, sampled on every other pass of the loop.
* ``items_per_s``: lower quartile of the work units per second of
  ``cli.main(argv)`` in this already-warm interpreter. Units are fixed by the
  input: blocks x grid points, C(rows, M) subsets, trials x grid points.
* ``peak_rss_mb``: median peak resident memory of the CLI process.
* ``success_rate``: 1 - error_rate, where error_rate is failed / attempted
  invocations. A failure is a non-zero exit, an output whose SHA-256 differs
  from the digest pinned in ``bench/golden.json`` for the workload and seed,
  or, on an unpinned seed, an output differing from the first invocation's.

Timings take the quartile on the slow side, not the median. On the shared
2-core host the benchmark was tuned on, an invocation runs at one of two
speeds about 1.5x apart: mostly the slower, with bursts of the faster lasting
a few seconds. The share of invocations that fall in bursts varies between
runs and moved run medians by up to 16% (interquartile range over ten runs,
as a share of their median); the slow-side quartile stayed within 8%.

Per-layer metrics (``--trace 1``) come from ``bench/tracer.py`` runs alternated
with untraced runs; each is the median over the traced runs, and
``trace.overhead_s`` is the traced minus the untraced median wall time.
``linalg.import_s`` is the cumulative import time of ``compound_bcc.linalg``
from ``python -X importtime``, and ``linalg.import_scipy_share`` the part of
it spent importing scipy.
"""

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
GOLDEN = BENCH / "golden.json"

IMPORT = ("-c", "import compound_bcc")
# setup_s is sampled on every SETUP_EVERY-th pass of the timed loop.
SETUP_EVERY = 2
IMPORT_REPEATS = 3
# A run must end within 180 s; past this, the child in flight is killed.
RUN_LIMIT_S = 170
GRID = ("--snr_db_grid", "60,80,100")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    items: int

    def cli_args(self, seed, out):
        return [*self.argv, "--seed", str(seed), "--out", str(out)]


# Sizes keep one invocation near half a second of compute. On a shared
# 2-core host single invocations vary by +-25%, so a run's median is steadier
# over many short invocations than over a few long ones.
BLOCKS = 5_000
TRIALS = 150
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fading-blocks",
            ("ergodic", "--M", "3", "--J1", "2", "--J2", "4",
             "--power_policy", "equal", "--blocks", str(BLOCKS), *GRID),
            BLOCKS * 3,
        ),
        Workload(
            "rank-census",
            ("verify-channel", "--M", "4", "--J1", "12", "--J2", "12"),
            math.comb(24, 4),
        ),
        Workload(
            "constant-trials",
            ("gaussian", "--M", "4", "--N1", "1", "--N2", "1", "--J1", "2",
             "--J2", "2", "--r1", "1", "--r2", "1", "--trials", str(TRIALS), *GRID),
            TRIALS * 3,
        ),
    )
}

class RunTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RunTimeout("benchmark run exceeded its time limit")


def digest_dir(path):
    """SHA-256 of every file in ``path``, keyed by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(path).iterdir())
    }


class OutputCheck:
    """Checks each invocation's output files and counts the failures.

    The reference is the digest set pinned for the workload and seed; on an
    unpinned seed it is the first invocation's, so repeats must agree.
    """

    def __init__(self, expected=None):
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def record(self, exit_code, out_dir):
        self.attempted += 1
        ok = exit_code == 0
        if ok:
            digests = digest_dir(out_dir)
            if self.expected is None:
                self.expected = digests
            ok = digests == self.expected
        if not ok:
            self.failed += 1
        return ok


def pinned_digests(workload, seed):
    with open(GOLDEN) as fh:
        return json.load(fh).get(workload.name, {}).get(str(seed))


class Runner:
    """Starts CLI invocations one at a time inside the checkout."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.count = 0

    def fresh_dir(self):
        self.count += 1
        out = WORK / f"out-{self.count}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        return out

    def process(self, argv, stderr_path=None):
        """Run one child to completion: (exit code, wall s, peak RSS MB)."""
        with open(stderr_path or os.devnull, "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=self.env,
                stdout=subprocess.DEVNULL, stderr=stderr,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def cli_process(self, workload, seed, check, tracer_out=None):
        out = self.fresh_dir()
        err = WORK / f"stderr-{self.count}.txt"
        argv = workload.cli_args(seed, out)
        if tracer_out is None:
            argv = ["-m", "compound_bcc", *argv]
        else:
            argv = [str(BENCH / "tracer.py"), str(tracer_out), *argv]
        code, wall, rss = self.process(argv, err)
        ok = check.record(code, out)
        if not ok:
            _report_failure(workload, code, err)
        nbytes = sum(p.stat().st_size for p in out.iterdir())
        shutil.rmtree(out)
        err.unlink()
        return ok, wall, rss, nbytes

    def cli_inprocess(self, cli, workload, seed, check):
        out = self.fresh_dir()
        argv = workload.cli_args(seed, out)
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as e:  # a crash is a failed invocation, not a failed run
            print(f"{workload.name}: in-process call raised {e!r}", file=sys.stderr)
            code = -1
        elapsed = time.perf_counter() - start
        ok = check.record(code, out)
        if not ok and code == 0:
            print(f"{workload.name}: outputs differ from the reference", file=sys.stderr)
        shutil.rmtree(out)
        return ok, elapsed


def _report_failure(workload, code, err_path):
    tail = err_path.read_text(errors="replace")[-2000:] if err_path.exists() else ""
    print(f"{workload.name}: exit {code} or outputs differ from the reference\n{tail}",
          file=sys.stderr)


def quartiles(samples):
    """(lower quartile, median, upper quartile); one sample is all three."""
    if len(samples) < 2:
        return samples * 3
    return statistics.quantiles(samples, n=4)


def summary_stats(samples):
    """Median and quartiles of the samples, which are kept in measured order."""
    q1, median, q3 = quartiles(samples)
    return {
        "n": len(samples), "median": median, "q1": q1, "q3": q3,
        "samples": [float(f"{x:.6g}") for x in samples],
    }


def setup_time(runner):
    """Wall time of a fresh interpreter importing the package."""
    code, wall, _ = runner.process(IMPORT)
    if code != 0:
        raise RuntimeError(f"'import compound_bcc' exited with {code}")
    return wall


def import_breakdown(runner):
    """Cumulative import seconds of compound_bcc.linalg and of scipy in it."""
    err = WORK / "importtime.txt"
    code, _, _ = runner.process(["-X", "importtime", *IMPORT], err)
    if code != 0:
        raise RuntimeError(f"'import compound_bcc' exited with {code}")
    lines = err.read_text().splitlines()
    err.unlink()
    # Lines read "import time: <self us> | <cumulative us> | <indent><module>",
    # two spaces of indent per nesting level, each module after its imports.
    entries = []
    for line in lines:
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        module = parts[2]
        depth = (len(module) - len(module.lstrip()) - 1) // 2
        entries.append((depth, module.strip(), int(parts[1])))
    i = next(i for i, e in enumerate(entries) if e[1] == "compound_bcc.linalg")
    depth, _, linalg_us = entries[i]
    scipy_us = 0
    for d, name, cumulative in reversed(entries[:i]):
        if d <= depth:
            break
        if d == depth + 1 and name.split(".")[0] == "scipy":
            scipy_us += cumulative
    return linalg_us / 1e6, scipy_us / 1e6


def run_end_to_end(workload, seed, seconds, check, runner):
    import compound_bcc.cli as cli

    runner.process(IMPORT)  # compiles bytecode; not timed
    runner.cli_inprocess(cli, workload, seed, check)  # warm-up, checked
    setup, walls, rss, rates = [], [], [], []
    stop = time.perf_counter() + seconds
    for i in itertools.count():
        if i % SETUP_EVERY == 0:
            setup.append(setup_time(runner))
        _, wall, peak, _ = runner.cli_process(workload, seed, check)
        walls.append(wall)
        rss.append(peak)
        _, elapsed = runner.cli_inprocess(cli, workload, seed, check)
        rates.append(workload.items / elapsed)
        if time.perf_counter() >= stop:
            break
    samples = {"wall_s": walls, "setup_s": setup, "items_per_s": rates, "peak_rss_mb": rss}
    metrics = {
        "wall_s": quartiles(walls)[2],
        "setup_s": quartiles(setup)[2],
        "items_per_s": quartiles(rates)[0],
        "peak_rss_mb": statistics.median(rss),
    }
    metrics["success_rate"] = 1.0 - check.failed / check.attempted
    detail = {k: summary_stats(v) for k, v in samples.items()}
    return metrics, detail


def run_traced(workload, seed, seconds, check, runner):
    from tracer import Trace, layer_metrics

    imports = [import_breakdown(runner) for _ in range(IMPORT_REPEATS)]
    linalg_s = statistics.median(i[0] for i in imports)
    scipy_s = statistics.median(i[1] for i in imports)
    spans = WORK / "spans.npz"
    untraced, traced, per_run, self_checks = [], [], [], []
    stop = time.perf_counter() + seconds
    while True:
        _, wall, _, _ = runner.cli_process(workload, seed, check)
        untraced.append(wall)
        ok, wall, _, nbytes = runner.cli_process(workload, seed, check, tracer_out=spans)
        traced.append(wall)
        if ok:
            trace = Trace.load(spans)
            metrics = layer_metrics(trace)
            metrics["cli.bytes_written"] = nbytes
            per_run.append(metrics)
            layer_self = trace.layer_self()
            self_checks.append({
                "traced_wall_s": wall,
                "main_s": trace.meta["main_s"],
                "import_s": trace.meta["import_s"],
                "sum_self_s": sum(layer_self.values()),
                "layer_self_s": layer_self,
            })
        spans.unlink(missing_ok=True)
        if time.perf_counter() >= stop:
            break
    if not per_run:
        raise RuntimeError("no traced invocation succeeded")
    metrics = {k: statistics.median(r[k] for r in per_run) for k in per_run[0]}
    metrics["linalg.import_s"] = linalg_s
    metrics["linalg.import_scipy_share"] = scipy_s / linalg_s if linalg_s else 0.0
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    detail = {
        "untraced_wall_s": summary_stats(untraced),
        "traced_wall_s": summary_stats(traced),
        "scipy_import_s": scipy_s,
        "self_time_check": self_checks[len(self_checks) // 2],
    }
    return metrics, detail


def machine_facts():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu
            )
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {
        v: os.environ.get(v, "unset")
        for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": threads,
    }


def load_units(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (result line object, detail object)."""
    if not (SRC / "compound_bcc" / "__init__.py").is_file():
        raise FileNotFoundError(f"no compound_bcc sources under {SRC}")
    for path in (str(SRC), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import compound_bcc

    if Path(compound_bcc.__file__).resolve().parent != SRC / "compound_bcc":
        raise ImportError(f"compound_bcc imported from {compound_bcc.__file__}, not {SRC}")
    units = load_units(trace)
    WORK.mkdir(exist_ok=True)
    pinned = pinned_digests(workload, seed)
    check = OutputCheck(pinned)
    runner = Runner()
    measure = run_traced if trace else run_end_to_end
    metrics, detail = measure(workload, seed, seconds, check, runner)
    detail.update(
        workload=workload.name,
        cli_args=list(workload.argv),
        seed=seed,
        digests_pinned=pinned is not None,
        error_rate=check.failed / check.attempted,
        machine=machine_facts(),
    )
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, detail


def report(result, detail):
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    report(*run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
