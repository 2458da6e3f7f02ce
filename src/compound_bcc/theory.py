"""The paper's exact secure degrees-of-freedom (s.d.o.f.) results.

Exact rational arithmetic (fractions.Fraction) on the dimensions: M
transmit antennas, and N_k receive antennas and J_k states for user k (k'
is the other user). The simulations fit slopes against these targets;
compare and region need nothing else.

Constant compound channel (gaussian). User k's confidential streams lie
in the null space of the other user's J_k' N_k' stacked state rows and
fit in its N_k antennas: at most b_k = max(0, min(N_k, M - J_k' N_k'))
(confidential_stream_bounds). The (d0, d1, d2) region is d >= 0,
d_k <= b_k, d0 + d_k <= N_k; a user shut out by the other's states
(J_k' N_k' >= M) keeps d0 <= N_k alone, and with both shut out
d0 <= min(M, N1, N2) (gaussian_sdof_region). Its slice d0 = 0 is the box
[0, b1] x [0, b2] (gaussian_confidential_region).

Ergodic fading channel (ergodic, N1 = N2 = 1). Each block zero-forces
user k's beam against M - 1 of the other user's states (all when
J_k' < M), so a fraction lost_k = max(J_k - (M - 1), 0) / J_k of user k's
states is missed by the other beam. The policies' slope pairs are
full1 = (1 - lost2, 0), user 1 leaking where user 2 is missed;
full2 = (0, 1 - lost1); equal = (t, t), t = max(0, 1 - lost1 - lost2),
each stream losing its interfered and its leaking states
(policy_slope_targets). The region is their time-share
(ergodic_sdof_region): the unit square when both J_k < M; with both
J_k >= M the corners (M-1)/J2 and (M-1)/J1, joined through (t, t) iff
its margin t - (M-1)/(J1+J2) over their segment is positive
(symmetric_point_margin).

The headline claim: the ergodic region contains the constant one with
N1 = N2 = 1, strictly iff M >= 2 and some J_k' >= M (then b_k = 0 while
full_k keeps (M-1)/J_k' > 0); otherwise both are the unit square or,
with M = 1, the origin.
"""

from fractions import Fraction

from .errors import InvalidInputError, check_counts
from .regions import region_from_inequalities, time_share

__all__ = [
    "confidential_stream_bounds",
    "common_slope_target",
    "gaussian_sdof_region",
    "gaussian_confidential_region",
    "policy_slope_targets",
    "symmetric_point_margin",
    "ergodic_sdof_region",
]


def confidential_stream_bounds(M, N1, N2, J1, J2):
    """Largest feasible confidential stream counts (r1_max, r2_max).

    Stream k must fit in both the intended receiver (N_k) and the common
    null space of the other user's stacked states (M - J_k' * N_k'); a
    non-positive null-space dimension forces zero streams.
    """
    b1 = max(0, min(N1, M - J2 * N2))
    b2 = max(0, min(N2, M - J1 * N1))
    return b1, b2


def common_slope_target(N1, N2, r1, r2, K):
    """Expected high-SNR slope of the worst-case common rate.

    At user k the common stream rides on K + r_k generic beam directions of
    which r_k are spent on the confidential stream, so its rate grows like
    min(N_k, K + r_k) - r_k; the worst case takes the smaller user.
    """
    return min(min(N1, K + r1) - r1, min(N2, K + r2) - r2)


def gaussian_sdof_region(M, N1, N2, J1, J2):
    """Achievable (d0, d1, d2) degrees-of-freedom region, exact.

    The shape depends on whether each user's stacked states still leave a
    null space (J_k * N_k < M). When neither does, only the common message
    survives, with d0 up to min(M, N1, N2).
    """
    check_counts(M=M, N1=N1, N2=N2, J1=J1, J2=J2)
    nonneg = [((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0)]
    b1, b2 = confidential_stream_bounds(M, N1, N2, J1, J2)
    room1 = J1 * N1 < M
    room2 = J2 * N2 < M
    if room1 and room2:
        ineqs = [((0, 1, 0), b1), ((0, 0, 1), b2), ((1, 1, 0), N1), ((1, 0, 1), N2)]
    elif room1:
        # user 2's states exhaust the space: no stream for user 1
        ineqs = [((0, 1, 0), 0), ((0, 0, 1), b2), ((1, 0, 0), N1), ((1, 0, 1), N2)]
    elif room2:
        ineqs = [((0, 0, 1), 0), ((0, 1, 0), b1), ((1, 0, 0), N2), ((1, 1, 0), N1)]
    else:
        ineqs = [((0, 1, 0), 0), ((0, 0, 1), 0), ((1, 0, 0), min(M, N1, N2))]
    return region_from_inequalities(nonneg + ineqs, 3)


def gaussian_confidential_region(M, N1, N2, J1, J2):
    """The (d1, d2) slice of the region with no common message, exact 2-D."""
    b1, b2 = confidential_stream_bounds(M, N1, N2, J1, J2)
    return time_share([(Fraction(b1), Fraction(b2))])


def _policy_targets(M, J1, J2):
    """The slope pair of each of the policies full1, full2 and equal, from
    the fraction lost_k of user k's states that the other beam misses."""
    lost1, lost2 = (Fraction(max(J - (M - 1), 0), J) for J in (J1, J2))
    zero = Fraction(0)
    t = max(zero, 1 - lost1 - lost2)
    return {"full1": (1 - lost2, zero), "full2": (zero, 1 - lost1), "equal": (t, t)}


def policy_slope_targets(M, J1, J2, policy_kind):
    """Analytic high-SNR slope pair for a named policy; None for 'split'."""
    check_counts(M=M, J1=J1, J2=J2)
    if policy_kind == "split":
        return None
    targets = _policy_targets(M, J1, J2)
    if policy_kind not in targets:
        raise InvalidInputError(f"unknown power policy {policy_kind!r}")
    return targets[policy_kind]


def symmetric_point_margin(M, J1, J2):
    """Margin of the symmetric equal-power point over the time-sharing line.

    Exact rational. Requires both state counts to be at least M (below
    that the equal-power point saturates the unit square instead). The
    returned flag says whether the symmetric point (r_s, r_s) with
    r_s = (M-1)/J1 + (M-1)/J2 - 1 lies strictly outside the segment
    between the two single-user corners, which happens iff the margin is
    positive.
    """
    check_counts(M=M, J1=J1, J2=J2)
    if J1 < M or J2 < M:
        raise InvalidInputError(
            f"symmetric point margin needs J1, J2 >= M, got J1={J1}, J2={J2}, M={M}"
        )
    f = Fraction(M - 1, J1) + Fraction(M - 1, J2) - 1 - Fraction(M - 1, J1 + J2)
    return f, f > 0


def ergodic_sdof_region(M, J1, J2):
    """Achievable (d1, d2) region of the block-fading scheme, exact: the
    time-share of the slope pairs of the policies full1, full2 and equal."""
    check_counts(M=M, J1=J1, J2=J2)
    return time_share(list(_policy_targets(M, J1, J2).values()))
