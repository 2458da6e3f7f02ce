"""Pin the SHA-256 digests of every workload's outputs in bench/golden.json.

    python3 bench/pin_golden.py

Each workload runs twice per pinned seed as a CLI process; both runs must
exit 0 and agree before their digests are written. Rerun this only when a
change to the outputs is intended: every benchmark run counts an output that
differs from its pinned digest as a failed invocation.
"""

import json

from run import GOLDEN, WORK, WORKLOADS, OutputCheck, Runner

PINNED_SEEDS = range(10)


def main():
    WORK.mkdir(exist_ok=True)
    runner = Runner()
    golden = {}
    for workload in WORKLOADS.values():
        golden[workload.name] = {}
        for seed in PINNED_SEEDS:
            check = OutputCheck()
            for _ in range(2):
                runner.cli_process(workload, seed, check)
            if check.failed:
                raise SystemExit(f"{workload.name} seed {seed}: runs failed or disagree")
            golden[workload.name][str(seed)] = check.expected
            print(workload.name, seed, "pinned", flush=True)
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
