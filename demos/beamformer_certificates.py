#!/usr/bin/env python3
"""Walkthrough: null-space beamformers and their numerical certificates.

Builds a compound channel set where each user's state is one of several
candidate matrices, points each confidential stream into the common null
space of the other user's candidates, and prints the certificates that
make the construction trustworthy: orthonormality, exact nulling at every
unintended state, and full rank at every intended one.
"""

import numpy as np

from compound_bcc import (
    ChannelGenSpec,
    FeasibilityError,
    build_beamformers,
    confidential_stream_bounds,
    generate_compound,
    verify_rank_condition,
)

M, N1, N2, J1, J2 = 5, 2, 1, 2, 2


def bound(residual, limit=1e-15):
    """A residual at rounding level as the bound it meets, since its digits
    follow the BLAS kernels' rounding; any larger one as its value."""
    return f"< {limit:.0e}" if residual < limit else f"= {residual:.2e}"


def main():
    ch = generate_compound(ChannelGenSpec(M, N1, N2, J1, J2, seed=7))
    report = verify_rank_condition(ch)
    print(f"channel: M={M} transmit antennas, user 1 has {J1} candidate "
          f"{N1}x{M} states, user 2 has {J2} candidate {N2}x{M} states")
    print(f"generic rank condition: checked {report.checked} row subsets, "
          f"passed={report.passed}")

    b1, b2 = confidential_stream_bounds(M, N1, N2, J1, J2)
    print(f"\nfeasible confidential streams: r1 <= {b1}, r2 <= {b2}")

    bf = build_beamformers(ch, b1, b2)
    print(f"built V1 ({bf.v1.shape[0]}x{bf.r1}), V2 ({bf.v2.shape[0]}x{bf.r2}), "
          f"common V0 ({bf.v0.shape[0]}x{bf.K})")

    print("\ncertificates")
    for k, v in ((1, bf.v1), (2, bf.v2)):
        gram = np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1]))
        print(f"  ||V{k}^H V{k} - I|| {bound(gram)}")
        for j, h in enumerate(ch.states(3 - k), start=1):
            rel = np.linalg.norm(h @ v) / np.linalg.norm(h)
            print(f"  ||H_{3 - k}_{j} V{k}|| / ||H_{3 - k}_{j}|| {bound(rel)}  (nulled)")
        for j, h in enumerate(ch.states(k), start=1):
            rank = np.linalg.matrix_rank(h @ v, tol=1e-9)
            print(f"  rank(H_{k}_{j} V{k}) = {rank} (want {v.shape[1]})")

    print("\nasking for one stream too many:")
    try:
        build_beamformers(ch, b1 + 1, b2)
    except FeasibilityError as e:
        print(f"  FeasibilityError: {e}")


if __name__ == "__main__":
    main()
