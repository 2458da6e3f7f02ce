"""Command-line front end.

Subcommands
-----------
gaussian        simulate the constant-model superposition scheme over an
                SNR grid, fit slopes, emit rates.csv, region.json, summary.json
ergodic         simulate the block-fading scheme under a power policy,
                fit slopes, emit rates.csv, region.json, summary.json
compare         build both analytic (d1, d2) regions and report dominance
verify-channel  check the generic rank condition of a channel set
region          emit an analytic region without simulating

All outputs are deterministic: rerunning with the same configuration and
seed reproduces every file byte for byte. Exit code 0 means pass, 2 means
a tolerance check failed, 1 means an error. The CLI only orchestrates
library calls and serializes their results. Each subcommand takes the
flags and config file fields that its runner reads (COMMANDS) and rejects
any other, and it imports the modules it calls when it runs, so a process
loads only those.
"""

import argparse
import dataclasses
import functools
import itertools
import json
import os
import sys
from dataclasses import dataclass

from .errors import CompoundBccError, ConfigError, check_counts, check_real, read_json
from .sdof import DEFAULT_SNR_GRID_DB

__all__ = ["ExperimentConfig", "main"]

SLOPE_TOL = 0.05
POLICIES = ("full1", "full2", "equal", "split")
MODELS = ("gaussian", "ergodic")


@dataclass
class ExperimentConfig:
    """Parameters of one experiment. A subcommand sets only the fields that
    its row of COMMANDS names, by flags and config file fields of the same
    names; the others keep these defaults, and to_dict writes every field."""

    M: int = 4
    N1: int = 1
    N2: int = 1
    J1: int = 2
    J2: int = 2
    r1: int = 1
    r2: int = 1
    snr_db_grid: tuple = DEFAULT_SNR_GRID_DB
    trials: int = 1
    blocks: int = 10_000
    common_state_count: int = 4
    seed: int = 0
    power_policy: str = "equal"
    p1_frac: float = 0.5
    model: str = "gaussian"

    def validate(self):
        check_counts(ConfigError, M=self.M, N1=self.N1, N2=self.N2, J1=self.J1, J2=self.J2,
                     common_state_count=self.common_state_count, trials=self.trials,
                     blocks=self.blocks)
        check_counts(ConfigError, 0, r1=self.r1, r2=self.r2, seed=self.seed)
        if not isinstance(self.snr_db_grid, (list, tuple)):
            raise ConfigError("snr_db_grid must be a list of dB values")
        grid = tuple(check_real(x, "snr_db_grid entry", ConfigError) for x in self.snr_db_grid)
        if not grid:
            raise ConfigError("snr_db_grid must not be empty")
        if any(x < 0 for x in grid):
            raise ConfigError("snr_db_grid values must be >= 0 dB")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("snr_db_grid must be strictly increasing")
        self.snr_db_grid = grid
        if self.power_policy not in POLICIES:
            raise ConfigError(f"unknown power_policy {self.power_policy!r}")
        frac = check_real(self.p1_frac, "p1_frac", ConfigError)
        if not (0.0 <= frac <= 1.0):
            raise ConfigError(f"p1_frac must be in [0, 1], got {self.p1_frac!r}")
        self.p1_frac = frac  # a float, as the flag gives it, so both write the same bytes
        if self.model not in MODELS:
            raise ConfigError(f"model must be 'gaussian' or 'ergodic', got {self.model!r}")
        return self

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["snr_db_grid"] = list(self.snr_db_grid)
        return d


# each subcommand's help and the ExperimentConfig fields its runner reads:
# it takes a flag and a config file field for each of these, and no other
COMMANDS = {
    "gaussian": ("constant-model superposition scheme",
                 "M N1 N2 J1 J2 r1 r2 trials seed snr_db_grid"),
    "ergodic": ("block-fading zero-forcing scheme",
                "M J1 J2 blocks common_state_count seed snr_db_grid power_policy p1_frac"),
    "compare": ("dominance report between the two models' regions", "M J1 J2"),
    "verify-channel": ("check the generic rank condition", "M N1 N2 J1 J2 seed"),
    "region": ("emit an analytic region without simulating", "M N1 N2 J1 J2 model"),
}


def load_config(path, command):
    """The fields of a config file, each one that ``command`` reads."""
    data = read_json(path, ConfigError, "config file")
    unknown = set(data) - set(COMMANDS[command][1].split())
    if unknown:
        raise ConfigError(f"unknown config fields for {command}: {sorted(unknown)}")
    return data


def build_config(args):
    """Defaults, overridden by --config file fields, overridden by flags.
    p1_frac is for the split policy only, and a channel file sets every
    field that verify-channel reads."""
    data = load_config(args.config, args.command) if args.config else {}
    flags = {k: getattr(args, k) for k in COMMANDS[args.command][1].split()}
    data.update({k: v for k, v in flags.items() if v is not None})
    if getattr(args, "channel", None) and data:
        raise ConfigError(f"verify-channel --channel takes no dimension or seed: the file "
                          f"fixes the channel; got {', '.join(sorted(data))}")
    cfg = ExperimentConfig(**data).validate()
    if "p1_frac" in data and cfg.power_policy != "split":
        raise ConfigError(f"p1_frac is for power_policy 'split' only; got {cfg.power_policy!r}")
    return cfg


def _parse_grid(text):
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated dB values, got {text!r}"
        )


def _write_csv(path, header, rows):
    """The header, then a line per row of the non-empty list ``rows``, all
    formatted in one pass by the first row's types."""
    fmt = ",".join("%.12g" if isinstance(v, float) else "%s" for v in rows[0]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n" + fmt * len(rows) % tuple(itertools.chain.from_iterable(rows)))


def _write_summary(path, payload):
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _region_fields(cfg, region, ergodic=False):
    """Summary fields of an analytic region: its exact vertices and, for an
    ergodic region with J1, J2 >= M, the symmetric-point margin."""
    from .regions import frac_pair, point_pairs

    fields = {"region_vertices": point_pairs(region.vertices)}
    if ergodic and cfg.J1 >= cfg.M and cfg.J2 >= cfg.M:
        from .theory import symmetric_point_margin

        margin, advantage = symmetric_point_margin(cfg.M, cfg.J1, cfg.J2)
        fields["symmetric_point"] = {
            "margin": frac_pair(margin),
            "improves_time_sharing": advantage,
        }
    return fields


def run_gaussian(cfg, out_dir):
    """Constant-model run: the per-channel rates and slope fits of
    gaussian.run_trials over seeds seed, seed + 1, ..., analytic region."""
    import numpy as np

    from .gaussian import run_trials
    from .regions import save_region
    from .theory import common_slope_target, gaussian_sdof_region

    grid = cfg.snr_db_grid
    dims = cfg.M, cfg.N1, cfg.N2, cfg.J1, cfg.J2
    seeds = range(cfg.seed, cfg.seed + cfg.trials)
    all_rates, slopes, k_built = run_trials(dims, cfg.r1, cfg.r2, grid, seeds)
    mean_slopes = [sum(s[i] for s in slopes) / len(slopes) for i in range(3)]
    k_target = common_slope_target(cfg.N1, cfg.N2, cfg.r1, cfg.r2, k_built)
    targets = (float(k_target), float(cfg.r1), float(cfg.r2))
    passed = all(abs(m - t) <= SLOPE_TOL for m, t in zip(mean_slopes, targets))
    region = gaussian_sdof_region(*dims)
    snr_db = np.broadcast_to(np.array(grid)[:, None], (*all_rates.shape[:2], 1))
    _write_csv(
        os.path.join(out_dir, "rates.csv"),
        ("snr_db", "R0", "R1", "R2", "leakage_max"),
        np.concatenate([snr_db, all_rates], axis=2).reshape(-1, 5).tolist(),
    )
    save_region(region, os.path.join(out_dir, "region.json"))
    _write_summary(
        os.path.join(out_dir, "summary.json"),
        {
            "command": "gaussian",
            "config": cfg.to_dict(),
            "common_subspace_dimension": k_built,
            "slopes": {
                "estimated_mean": mean_slopes,
                "per_trial": slopes,
                "targets": list(targets),
                "tolerance": SLOPE_TOL,
            },
            # gaussian._stacked_rates starts each leakage at 0.0 and raises
            # it only to a larger value, so none is NaN or -0.0 and the
            # array's maximum is Python's max
            "max_leakage": float(all_rates[..., 3].max()),
            **_region_fields(cfg, region),
            "passed": passed,
        },
    )
    return passed


def run_ergodic(cfg, out_dir):
    """Block-fading run: simulated averages, slope fits, analytic region."""
    from .ergodic import FadingProcess, ergodic_slope_estimates
    from .regions import save_region
    from .theory import ergodic_sdof_region, policy_slope_targets

    fp = FadingProcess(cfg.M, cfg.J1, cfg.J2, cfg.common_state_count, cfg.blocks, cfg.seed)
    frac = cfg.p1_frac if cfg.power_policy == "split" else None
    stats, (est1, est2) = ergodic_slope_estimates(
        fp, cfg.power_policy, cfg.snr_db_grid, p1_frac=frac
    )
    rows = [
        (snr_db, cfg.power_policy, st.r1_mean, st.r2_mean, st.leak_violation_freq)
        for snr_db, st in zip(cfg.snr_db_grid, stats)
    ]
    targets = policy_slope_targets(cfg.M, cfg.J1, cfg.J2, cfg.power_policy, frac)
    targets = [float(t) for t in targets]
    passed = all(abs(est.slope - t) <= SLOPE_TOL for est, t in zip((est1, est2), targets))
    region = ergodic_sdof_region(cfg.M, cfg.J1, cfg.J2)
    summary = {
        "command": "ergodic",
        "config": cfg.to_dict(),
        "slopes": {
            "estimated": [est1.slope, est2.slope],
            "targets": targets,
            "tolerance": SLOPE_TOL,
        },
        "leak_violation_freq": [st.leak_violation_freq for st in stats],
        **_region_fields(cfg, region, ergodic=True),
        "passed": passed,
    }
    _write_csv(
        os.path.join(out_dir, "rates.csv"),
        ("snr_db", "policy", "R1m", "R2m", "leak_violation_freq"),
        rows,
    )
    save_region(region, os.path.join(out_dir, "region.json"))
    _write_summary(os.path.join(out_dir, "summary.json"), summary)
    return passed


def run_compare(cfg, out_dir):
    """Dominance report between the two models' analytic (d1, d2) regions."""
    from .regions import (
        contains,
        dominates,
        nontrivial_vertices,
        point_pairs,
        region_to_dict,
    )
    from .theory import ergodic_sdof_region, gaussian_confidential_region

    erg = ergodic_sdof_region(cfg.M, cfg.J1, cfg.J2)
    gau = gaussian_confidential_region(cfg.M, 1, 1, cfg.J1, cfg.J2)  # single-antenna, as ergodic
    erg_covers = dominates(erg, gau)
    gau_covers = dominates(gau, erg)
    witnesses = [v for v in nontrivial_vertices(erg) if not contains(gau, v)]
    summary = {
        "command": "compare",
        "config": cfg.to_dict(),
        "ergodic_region": region_to_dict(erg),
        "gaussian_region": region_to_dict(gau),
        "ergodic_covers_gaussian": erg_covers,
        "gaussian_covers_ergodic": gau_covers,
        "ergodic_strictly_larger": erg_covers and not gau_covers,
        "witness_points": point_pairs(witnesses),
    }
    _write_summary(os.path.join(out_dir, "summary.json"), summary)
    return True


def run_verify_channel(cfg, out_dir, channel_path=None):
    """Generic rank condition check for a loaded or generated channel set."""
    from .channel import (
        ChannelGenSpec,
        generate_compound,
        load_channel,
        rank_report,
        verify_rank_condition,
    )

    if channel_path:
        ch = load_channel(channel_path)
        report = verify_rank_condition(ch)
        source = {"channel_file": os.path.basename(channel_path)}
    else:
        # generation checked the draw it returns, so the report is a pass
        ch = generate_compound(
            ChannelGenSpec(cfg.M, cfg.N1, cfg.N2, cfg.J1, cfg.J2, seed=cfg.seed)
        )
        report = rank_report(ch)
        source = {"generated": True, "seed": cfg.seed}
    _write_summary(
        os.path.join(out_dir, "summary.json"),
        {
            "command": "verify-channel",
            "source": source,
            "dimensions": {
                "M": ch.M, "N1": ch.N1, "N2": ch.N2, "J1": ch.J1, "J2": ch.J2,
            },
            "passed": report.passed,
            "subsets_checked": report.checked,
            "exhaustive": report.exhaustive,
            "failures": [list(labels) for labels in report.failure_labels],
        },
    )
    return report.passed


def run_region(cfg, out_dir):
    """Emit the analytic region for the configured model, no simulation."""
    from .regions import save_region
    from .theory import ergodic_sdof_region, gaussian_sdof_region

    if cfg.model == "gaussian":
        region = gaussian_sdof_region(cfg.M, cfg.N1, cfg.N2, cfg.J1, cfg.J2)
    elif cfg.N1 == cfg.N2 == 1:
        region = ergodic_sdof_region(cfg.M, cfg.J1, cfg.J2)
    else:
        raise ConfigError(
            "region --model ergodic requires single-antenna receivers (N1 = N2 = 1); "
            f"got N1={cfg.N1}, N2={cfg.N2}"
        )
    summary = {
        "command": "region",
        "config": cfg.to_dict(),
        "model": cfg.model,
        **_region_fields(cfg, region, ergodic=cfg.model == "ergodic"),
    }
    save_region(region, os.path.join(out_dir, "region.json"))
    _write_summary(os.path.join(out_dir, "summary.json"), summary)
    return True


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; keep 2 reserved for
    # tolerance failures by turning usage errors into ConfigError.
    def error(self, message):
        raise ConfigError(message)


# argparse options of the flags that are not integers
_FLAG_OPTIONS = {
    "snr_db_grid": {"type": _parse_grid, "help": "comma-separated dB values, e.g. 60,80,100"},
    "power_policy": {"choices": POLICIES},
    "p1_frac": {"type": float, "help": "user 1's share of the power (split only)"},
    "model": {"choices": MODELS},
}


@functools.cache
def make_parser():
    """The CLI's parser, built once per process: parse_args leaves it as it is."""
    parser = _Parser(
        prog="compound-bcc",
        description="Secrecy-rate laboratory for compound broadcast channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fields) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON file with fields named like these flags")
        sp.add_argument("--out", default=".", help="output directory (default: .)")
        for field in fields.split():
            sp.add_argument(f"--{field}", **_FLAG_OPTIONS.get(field, {"type": int}))
        if name == "verify-channel":
            sp.add_argument("--channel", help="channel JSON file; it sets the dimensions")
    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        cfg = build_config(args)
        out_dir = args.out
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "gaussian":
            passed = run_gaussian(cfg, out_dir)
        elif args.command == "ergodic":
            passed = run_ergodic(cfg, out_dir)
        elif args.command == "compare":
            passed = run_compare(cfg, out_dir)
        elif args.command == "verify-channel":
            passed = run_verify_channel(cfg, out_dir, getattr(args, "channel", None))
        else:
            passed = run_region(cfg, out_dir)
    except CompoundBccError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, MemoryError) as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1
    if not passed:
        print("tolerance check failed; see summary.json", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
