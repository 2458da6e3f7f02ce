"""The paper's exact results: the time-shared ergodic region and the
policies' slope pairs against their case-by-case oracles, and the headline
claim that the ergodic region contains the constant model's."""

import pytest
from hypothesis import given, settings, strategies as st

import reference
from compound_bcc.errors import InvalidInputError
from compound_bcc.regions import contains, dominates, region_to_dict
from compound_bcc.theory import (
    common_slope_target,
    confidential_stream_bounds,
    ergodic_sdof_region,
    gaussian_confidential_region,
    policy_slope_targets,
)

STATE_COUNTS = range(1, 22)
POLICIES = (("full1", None), ("full2", None), ("equal", None),
            ("split", 0), ("split", 0.3), ("split", 1.0))


@pytest.mark.parametrize("M", range(1, 14))
def test_region_and_targets_equal_the_oracle(M):
    for J1 in STATE_COUNTS:
        for J2 in STATE_COUNTS:
            got = ergodic_sdof_region(M, J1, J2)
            assert region_to_dict(got) == region_to_dict(reference.ergodic_sdof_region(M, J1, J2))
            for kind, p1_frac in POLICIES:
                want = reference.policy_slope_targets(M, J1, J2, kind, p1_frac)
                assert policy_slope_targets(M, J1, J2, kind, p1_frac) == want
                assert contains(got, want)


@pytest.mark.parametrize("call, args, match", [
    (policy_slope_targets, (0, 2, 2, "equal"), "M"),
    (policy_slope_targets, (4, 2, True, "split"), "J2"),  # counts are checked before the policy
    (policy_slope_targets, (4, 2, 2, "bogus"), "unknown power policy 'bogus'"),
    (policy_slope_targets, (4, 2, 2, "split"), "p1_frac must be a finite number, got None"),
    (policy_slope_targets, (4, 2, 2, "split", 1.5), r"p1_frac must be in \[0, 1\], got 1.5"),
    (policy_slope_targets, (4, 2, 2, "split", True), "p1_frac must be a finite number, got True"),
    (policy_slope_targets, (4, 2, 2, "equal", 0.5),
     "p1_frac is for the split policy only; got kind 'equal'"),
    # the constant model's bounds take the dimensions and stream counts
    (gaussian_confidential_region, (0, 1, 1, 3, 3), "M must be a positive integer, got 0"),
    (gaussian_confidential_region, (4, -2, 1, 1, 1), "N1 must be a positive integer, got -2"),
    (gaussian_confidential_region, (4, 1, 1, 1, 2.0), "J2 must be a positive integer"),
    (confidential_stream_bounds, (4, 1.5, True, 1, 1), "N1 must be a positive integer, got 1.5"),
    (confidential_stream_bounds, (4, 1, True, 1, 1), "N2 must be a positive integer, got True"),
    (common_slope_target, (0, 1, 1, 1, 2), "N1 must be a positive integer"),
    (common_slope_target, (1, 1, -1, 0, 2), "r1 must be an integer >= 0, got -1"),
    (common_slope_target, (1, 1, 0, 0.0, 2), "r2 must be an integer >= 0"),
    (common_slope_target, (1, 1, 0, 0, True), "K must be an integer >= 0, got True"),
])
def test_targets_reject_bad_arguments(call, args, match):
    with pytest.raises(InvalidInputError, match=match):
        call(*args)


@settings(max_examples=200, deadline=None)
@given(M=st.integers(1, 12), J1=st.integers(1, 19), J2=st.integers(1, 19))
def test_ergodic_region_contains_the_constant_one(M, J1, J2):
    # strictly larger exactly when some state count shuts a constant-model
    # stream out (J_k >= M) and a stream has a slope to keep (M >= 2)
    erg = ergodic_sdof_region(M, J1, J2)
    gau = gaussian_confidential_region(M, 1, 1, J1, J2)
    assert dominates(erg, gau)
    assert dominates(gau, erg) == (M == 1 or max(J1, J2) < M)
