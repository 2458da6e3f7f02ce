"""The paper's exact results: the time-shared ergodic region and the
policies' slope pairs against their case-by-case oracles, and the headline
claim that the ergodic region contains the constant model's."""

import pytest
from hypothesis import given, settings, strategies as st

import reference
from compound_bcc.errors import InvalidInputError
from compound_bcc.regions import contains, dominates, region_to_dict
from compound_bcc.theory import (
    ergodic_sdof_region,
    gaussian_confidential_region,
    policy_slope_targets,
)

STATE_COUNTS = range(1, 22)
POLICIES = ("full1", "full2", "equal", "split")


@pytest.mark.parametrize("M", range(1, 14))
def test_region_and_targets_equal_the_oracle(M):
    for J1 in STATE_COUNTS:
        for J2 in STATE_COUNTS:
            got = ergodic_sdof_region(M, J1, J2)
            assert region_to_dict(got) == region_to_dict(reference.ergodic_sdof_region(M, J1, J2))
            for kind in POLICIES:
                want = reference.policy_slope_targets(M, J1, J2, kind)
                assert policy_slope_targets(M, J1, J2, kind) == want
                assert want is None or contains(got, want)


@pytest.mark.parametrize("args, match", [
    ((0, 2, 2, "equal"), "M"),
    ((4, 2, True, "split"), "J2"),  # counts are checked before the policy
    ((4, 2, 2, "bogus"), "unknown power policy 'bogus'"),
])
def test_targets_reject_bad_arguments(args, match):
    with pytest.raises(InvalidInputError, match=match):
        policy_slope_targets(*args)


@settings(max_examples=200, deadline=None)
@given(M=st.integers(1, 12), J1=st.integers(1, 19), J2=st.integers(1, 19))
def test_ergodic_region_contains_the_constant_one(M, J1, J2):
    # strictly larger exactly when some state count shuts a constant-model
    # stream out (J_k >= M) and a stream has a slope to keep (M >= 2)
    erg = ergodic_sdof_region(M, J1, J2)
    gau = gaussian_confidential_region(M, 1, 1, J1, J2)
    assert dominates(erg, gau)
    assert dominates(gau, erg) == (M == 1 or max(J1, J2) < M)
