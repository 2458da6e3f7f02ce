#!/usr/bin/env python3
"""Walkthrough: worst-case rates of the superposition scheme vs power.

Sweeps transmit power over an SNR grid, prints the three worst-case rates
(common stream and both confidential streams) together with the largest
leakage seen at any unintended state, then fits the high-SNR slopes and
compares them to their analytic targets. Ends with the exact achievable
slope region for these dimensions.
"""

from compound_bcc import (
    ChannelGenSpec,
    build_beamformers,
    common_slope_target,
    equal_power_slopes,
    gaussian_sdof_region,
    generate_compound,
)

M, N1, N2, J1, J2 = 4, 1, 1, 2, 2
R1, R2 = 1, 1
GRID_DB = (60.0, 80.0, 100.0)


def main():
    ch = generate_compound(ChannelGenSpec(M, N1, N2, J1, J2, seed=0))
    bf = build_beamformers(ch, R1, R2)
    print(f"M={M}, J1={J1}, J2={J2}: streams r1={bf.r1}, r2={bf.r2}, "
          f"common subspace K={bf.K}")

    # worst_case_rates under equal power at each grid point, and slope fits
    triples, ests = equal_power_slopes(ch, bf, GRID_DB)
    print(f"\n{'snr_db':>7} {'R0':>9} {'R1':>9} {'R2':>9} {'leak_max':>10}")
    for snr_db, rt in zip(GRID_DB, triples):
        print(f"{snr_db:7.0f} {rt.r0:9.3f} {rt.r1:9.3f} {rt.r2:9.3f} {rt.leakage:10.2e}")

    targets = (common_slope_target(N1, N2, R1, R2, bf.K), R1, R2)
    print("\nslope fits (bits per log2 P)")
    for name, est, tgt in zip(("common", "user 1", "user 2"), ests, targets):
        print(f"  {name:7s} estimated {est.slope:+.4f}  target {tgt}  "
              f"residual {est.residual:.1e}")

    region = gaussian_sdof_region(M, N1, N2, J1, J2)
    print("\nexact slope region (d0, d1, d2), vertices:")
    for v in region.vertices:
        print("  (" + ", ".join(str(c) for c in v) + ")")


if __name__ == "__main__":
    main()
