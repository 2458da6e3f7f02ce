"""The process checks of CI, one step at a time, from any directory:

    python tools/ci.py census|horizon|constant|demos|haswell|selfcheck|console|all
    python tools/ci.py console compound-bcc   # against an installed console script

Each step runs its children one after another and prints one line per child:
the command, its exit code and its peak RSS against its cap. A census child
also prints its subset count and whether the census was exhaustive; a demo's
output is compared with its pin in tests/data/demo_output.json. The first
check that fails ends the run with exit code 1.

Peak RSS is the child's own, from ``os.wait4``: the ``ru_maxrss`` of a child
counts the RSS it shares with its parent at the fork, so this runner imports
the standard library only and stays far below every cap. The package runs
from ``src`` of this checkout, with numpy RuntimeWarnings as errors.
"""

import argparse
import difflib
import filecmp
import glob
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKOUT_ENV = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
CLI = [sys.executable, "-W", "error::RuntimeWarning", "-m", "compound_bcc"]
DEMO_PINS = os.path.join(ROOT, "tests", "data", "demo_output.json")
# the oracle tests of the rules that decide without LAPACK what LAPACK would,
# the rank census's determinant screens among them (their products of pair
# minors run through OpenBLAS zgemm), and of the one log-det rule
EXACT_RULE_ORACLES = (
    "tests/test_gaussian.py::TestLogdetRule",
    "tests/test_gaussian.py::TestExactRanks",
    "tests/test_channel.py::TestDeterminantScreen",
    "tests/test_channel.py::TestBatchedRankCheck",
)
# the tests that hold stacked builds and products to their one-trial bits
STACKED_BIT_EXACT = (
    "tests/test_gaussian.py::TestChunkedBuild",
    "tests/test_gaussian.py::TestStackedProducts",
    "tests/test_ergodic.py::TestStackedBitExact",
    "tests/test_linalg.py::TestStackedNullSpaces",
)


def fail(message):
    sys.exit(f"FAILED: {message}")


def child(cmd, cap=math.inf, cwd=ROOT, env=CHECKOUT_ENV, stdout=None):
    """Run ``cmd`` to its end, its standard output to ``stdout`` (a file, or
    this process's), and print its line; fail unless it exits 0 with a peak
    RSS below ``cap`` MB."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss / 1024  # kB on Linux
    shown = ["python" if arg == sys.executable else arg for arg in cmd]
    line = f"{shlex.join(shown)}: exit {proc.returncode}, peak RSS {rss_mb:.1f} MB, cap {cap} MB"
    print(line, flush=True)
    if proc.returncode or not rss_mb < cap:
        fail(line)


def census():
    """The rank check at scale: all C(24, 4) = 10,626 subsets (one product of
    pair minors), C(24, 5) = 42,504 (one-row prefixes), C(24, 6) = 134,596
    and C(24, 8) = 735,471 (four-row prefixes), then all C(26, 3) = 2,600
    subsets of 26 rows, above the row limit but within the sample's count,
    and 10,000 sampled ones of the C(26, 4) = 14,950."""
    for cap, exhaustive, count, args in (
        (math.inf, True, 10_626, "--M 4 --J1 12 --J2 12"),
        (math.inf, True, 42_504, "--M 5 --J1 12 --J2 12"),
        (math.inf, True, 134_596, "--M 6 --J1 12 --J2 12"),
        (48, True, 735_471, "--M 8 --J1 12 --J2 12"),
        (math.inf, True, 2_600, "--M 3 --J1 13 --J2 13"),
        (math.inf, False, 10_000, "--M 4 --J1 13 --J2 13"),
    ):
        with tempfile.TemporaryDirectory() as out:
            child([*CLI, "verify-channel", *args.split(), "--out", out], cap)
            with open(os.path.join(out, "summary.json")) as fh:
                s = json.load(fh)
        print(f"  subsets {s['subsets_checked']}, exhaustive {s['exhaustive']}", flush=True)
        if (s["passed"], s["exhaustive"], s["subsets_checked"]) != (True, exhaustive, count):
            fail(f"census {args}: expected {count} subsets, exhaustive {exhaustive}, a pass")


def horizon():
    """Long block horizons: a run holds one sampling pass at a time."""
    for blocks in ("4000000", "40000000"):
        with tempfile.TemporaryDirectory() as out:
            child([*CLI, "ergodic", "--blocks", blocks, "--out", out], 48)


def constant():
    """The constant model at scale: 1000 light trials, 300 rank-heavy ones
    (chunks of 64, all C(24, 4) subsets per trial), two runs of 300 whose
    chunks mix seeds of one and two, then two and three uint32 words, 64
    trials of M = 300, one per chunk for their 300 x 300 null-space factors,
    64 trials of 600 x 4 nulled rows, whose SVDs take no 600 x 600 left
    factors, and 40 trials of two receive antennas up to 180 dB, whose
    log-dets come from singular values, not from Grams."""
    for cap, args in (
        (48, "--trials 1000"),
        (56, "--M 4 --J1 12 --J2 12 --r1 0 --r2 0 --trials 300"),
        (48, "--trials 300 --seed 4294967200"),
        (48, "--trials 300 --seed 18446744073709551500"),
        (80, "--M 300 --J1 1 --J2 1 --trials 64"),
        (80, "--M 4 --J1 600 --J2 1 --r1 0 --r2 0 --trials 64"),
        (48, "--M 5 --N1 2 --N2 2 --J1 1 --J2 1 --r1 1 --r2 1 --trials 40 "
             "--snr_db_grid 140,160,180"),
    ):
        with tempfile.TemporaryDirectory() as out:
            child([*CLI, "gaussian", *args.split(), "--out", out], cap)


def demos(pins=DEMO_PINS, env=CHECKOUT_ENV):
    """Every demo, run with ``env`` and a numpy RuntimeWarning an error as
    in the tests, prints what ``pins`` (a JSON object: demo file name ->
    standard output) holds for it. The demos call the one-trial API
    (build_beamformers, zero_forcing, block_secrecy_rates, sample_block,
    equal_power_slopes) and print rates, slopes and certificate bounds, so
    a change in their results shows here."""
    with open(pins, encoding="utf-8") as fh:
        pinned = json.load(fh)
    names = sorted(os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "demos", "*.py")))
    if names != sorted(pinned):
        fail(f"demos {names} differ from the pinned {sorted(pinned)}")
    for name in names:
        with tempfile.TemporaryFile("w+", encoding="utf-8") as out:
            child([sys.executable, "-W", "error::RuntimeWarning", os.path.join("demos", name)],
                  env={**env, "PYTHONIOENCODING": "utf-8"}, stdout=out)
            out.seek(0)
            printed = out.read()
        if printed != pinned[name]:
            diff = difflib.unified_diff(pinned[name].splitlines(True), printed.splitlines(True),
                                        "pinned", name)
            fail(f"demos/{name} printed other output than its pin:\n{''.join(diff)}")


def haswell():
    """The exact rules (the log-det rule, vector ranks, the census's
    determinant screens and the chunked census they feed) hold
    their oracles on OpenBLAS's Haswell (AVX2) kernels too, the class
    that an AVX2-only machine runs, whatever this machine's own kernels; and
    so do the stacked builds and products, whose views get one-trial bits
    only as far as the BLAS kernel gives every matrix of a stack the bits
    of its 2-D call. The demos print their pins on these kernels too."""
    env = {**CHECKOUT_ENV, "OPENBLAS_CORETYPE": "Haswell"}
    child([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           *EXACT_RULE_ORACLES, *STACKED_BIT_EXACT], env=env)
    demos(env=env)


def selfcheck():
    """The benchmark's self-check, as a checkout runs it."""
    child([sys.executable, os.path.join("bench", "selfcheck.py")], env=os.environ)


def console(installed=None):
    """The console script writes the same bytes as ``python -m compound_bcc``
    from this checkout. ``installed`` names an installed script, run with the
    environment's own packages; without it, compound_bcc.cli:main runs from
    another directory, the way the script calls it."""
    if installed:
        script = [installed]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    else:
        script = [sys.executable, "-c", "import sys; from compound_bcc.cli import main; sys.exit(main())"]
        env = CHECKOUT_ENV
    for args, names in (
        ("verify-channel --M 4 --J1 12 --J2 12", ["summary.json"]),
        ("ergodic --blocks 2000", ["summary.json"]),
        ("gaussian --trials 70 --seed 11", ["rates.csv", "region.json", "summary.json"]),
        ("compare --M 7 --J1 8 --J2 8", ["summary.json"]),
        ("region --model ergodic", ["region.json", "summary.json"]),
    ):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            child([*script, *args.split(), "--out", a], cwd=a, env=env)
            child([sys.executable, "-m", "compound_bcc", *args.split(), "--out", b])
            _, differ, missing = filecmp.cmpfiles(a, b, names, shallow=False)
            if differ or missing:
                fail(f"{args}: {differ + missing} differ from the checkout's")


STEPS = {f.__name__: f for f in (census, horizon, constant, demos, haswell, selfcheck, console)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=[*STEPS, "all"])
    parser.add_argument("installed", nargs="?", help="console: the installed script to compare")
    args = parser.parse_args()
    if args.installed and args.step not in ("console", "all"):
        parser.error(f"step {args.step} takes no installed script")
    for name in STEPS if args.step == "all" else [args.step]:
        print(f"== {name}", flush=True)
        if name == "console":
            console(args.installed)
        else:
            STEPS[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
