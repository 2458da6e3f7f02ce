#!/usr/bin/env python3
"""Walkthrough: block-fading zero-forcing under different power policies.

Sets up a fading process whose state counts exceed what M - 1 nulling
directions can absorb, so some states are only partially protected: the
transmitter pays leakage for user 1 and interference for both. Samples a
few blocks, zero-forces the common state each one draws and shows its
secrecy accounting, then sweeps the power policies and compares the fitted
slopes with their analytic targets.
"""

from compound_bcc import (
    FadingProcess,
    PowerPolicy,
    block_secrecy_rates,
    ergodic_slope_estimates,
    policy_slope_targets,
    sample_block,
    simulate_blocks,
    zero_forcing,
)

M, J1, J2 = 3, 2, 4
GRID_DB = (60.0, 80.0, 100.0)


def main():
    fp = FadingProcess(M, J1, J2, common_state_count=4, block_count=10_000, seed=1)
    print(f"M={M}, J1={J1}, J2={J2}: user 1's stream can be nulled in "
          f"min(J2, M-1)={min(J2, M - 1)} of user 2's {J2} states, "
          f"user 2's in all {J1} of user 1's")

    print("\nfirst blocks (state draw is a pure function of seed and index):")
    for t in (1, 2, 3):
        s, a1, a2 = sample_block(fp, t)
        rec = block_secrecy_rates(zero_forcing(fp.states[s - 1]), 500.0, 500.0)
        print(f"  t={t}: common state {s}, A1={a1}, A2={a2}, "
              f"tx=({rec.tx[0]:.2f}, {rec.tx[1]:.2f}) "
              f"leak=({rec.leak[0]:.2f}, {rec.leak[1]:.2f}) "
              f"secrecy=({rec.secrecy[0]:.2f}, {rec.secrecy[1]:.2f})")

    stats = simulate_blocks(fp, PowerPolicy("equal", 1e6))
    print(f"\nequal power at 60 dB over {stats.m} blocks: "
          f"R1 = {stats.r1_mean:.3f} (analytic {stats.analytic_r1:.3f}), "
          f"R2 = {stats.r2_mean:.3f} (analytic {stats.analytic_r2:.3f}), "
          f"leak>tx in {stats.leak_violation_freq:.1%} of blocks")

    print("\npolicy slopes (fit over {} dB)".format("/".join(str(int(g)) for g in GRID_DB)))
    # a constant power fraction keeps the pre-logs: split at 0.2 has equal's
    for kind, p1_frac in (("full1", None), ("full2", None), ("equal", None), ("split", 0.2)):
        _, (e1, e2) = ergodic_slope_estimates(fp, kind, GRID_DB, p1_frac=p1_frac)
        t1, t2 = policy_slope_targets(M, J1, J2, kind, p1_frac)
        print(f"  {kind:6s} estimated ({e1.slope:+.3f}, {e2.slope:+.3f})  "
              f"target ({t1}, {t2})")


if __name__ == "__main__":
    main()
